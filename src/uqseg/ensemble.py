"""Fuse per-checkpoint probability maps into one averaged posterior.

Members are weighted uniformly (1/n); averaging is per pixel and per class,
so it works identically on 2D slices (c, H, W) and 3D volumes (c, D, H, W).
"""

from __future__ import annotations

import numpy as np

from .arrays import validate_probabilities
from .errors import ValidationError


def ensemble_mean(members, names=None) -> np.ndarray:
    """Uniform per-pixel, per-class mean of member posteriors, in float64.

    ``members`` is a sequence of probability arrays with identical shapes.
    This is where member posteriors enter the analysis, so each one is
    validated here, once, in its own dtype. The members are added in order
    into a float64 running sum that is then divided by n: bit for bit the
    float64 mean of the stacked members, without building the stack.
    ``names`` label the members in error messages (default: their index).
    """
    arrays = [np.asarray(m) for m in members]
    if len(arrays) < 1:
        raise ValidationError("ensemble needs at least one member")
    if names is None:
        names = [f"member {i}" for i in range(len(arrays))]
    first = arrays[0].shape
    # numpy's sum starts from +0.0 too, which turns a -0.0 into 0.0
    total = np.zeros(first, dtype=np.float64)
    for name, m in zip(names, arrays):
        if m.shape != first:
            raise ValidationError(f"{name} has shape {m.shape}, expected {first}")
        validate_probabilities(m, name=name)
        total += m
    total /= len(arrays)
    return total


def argmax_labels(p) -> np.ndarray:
    """Per-pixel argmax class of a trusted posterior; ties go to the lowest class.

    A class takes a pixel only where it beats every earlier class, so the
    first maximum wins, as in ``argmax(axis=0)`` on NaN-free posteriors.
    Labels are uint8 up to 256 classes, wider above.
    """
    arr = np.asarray(p)
    labels = np.zeros(arr.shape[1:], dtype=np.min_scalar_type(arr.shape[0] - 1))
    best = arr[0].copy()
    for k in range(1, arr.shape[0]):
        labels[arr[k] > best] = k
        np.maximum(best, arr[k], out=best)
    return labels


def class_foreground(p, class_id: int) -> np.ndarray:
    """Extract the probability plane of one class of a trusted posterior."""
    arr = np.asarray(p)
    if not 0 <= class_id < arr.shape[0]:
        raise ValidationError(
            f"class {class_id} out of range for {arr.shape[0]} classes"
        )
    return arr[class_id]
