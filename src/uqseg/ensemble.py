"""Fuse per-checkpoint probability maps into one averaged posterior.

Members are weighted uniformly (1/n); averaging is per pixel and per class,
so it works identically on 2D slices (c, H, W) and 3D volumes (c, D, H, W).
"""

from __future__ import annotations

import numpy as np

from .arrays import validate_probabilities
from .errors import ValidationError


def ensemble_mean(members) -> np.ndarray:
    """Uniform per-pixel, per-class mean of member posteriors.

    ``members`` is a sequence of probability arrays with identical shapes.
    """
    arrays = [np.asarray(m) for m in members]
    if len(arrays) < 1:
        raise ValidationError("ensemble needs at least one member")
    first = arrays[0].shape
    for i, m in enumerate(arrays):
        if m.shape != first:
            raise ValidationError(
                f"member {i} has shape {m.shape}, expected {first}"
            )
        validate_probabilities(m)
    stacked = np.stack([np.asarray(m, dtype=np.float64) for m in arrays], axis=0)
    return stacked.mean(axis=0)


def argmax_labels(p) -> np.ndarray:
    """Per-pixel argmax class; ties go to the lowest class index."""
    arr = validate_probabilities(p)
    return arr.argmax(axis=0).astype(np.uint8)


def class_foreground(p, class_id: int) -> np.ndarray:
    """Extract the probability plane of one class."""
    arr = validate_probabilities(p)
    if not 0 <= class_id < arr.shape[0]:
        raise ValidationError(
            f"class {class_id} out of range for {arr.shape[0]} classes"
        )
    return arr[class_id]
