"""Fuse per-checkpoint probability maps into one averaged posterior.

Members are weighted uniformly (1/n); averaging is per pixel and per class,
so it works identically on 2D slices (c, H, W) and 3D volumes (c, D, H, W).
"""

import numpy as np

from .arrays import validate_probabilities
from .errors import ValidationError


def ensemble_mean(members, names=None) -> np.ndarray:
    """Uniform per-pixel, per-class mean of member posteriors, in float64.

    ``members`` is any iterable of probability arrays of one shape, such as
    the generator with which ``pipeline.fuse_blocks`` reads two or more files.
    The members are added in order into a float64 running sum, which starts
    as 0.0 + the first member and is then divided by n: bit for bit the
    float64 mean of the stacked members, without building the stack. Each is
    validated here, once, in its own dtype, just after it is added, and
    dropped before the next is drawn, so one member and the sum are held at
    once. ``names`` label the members in error messages (default: their
    index); when given, there must be one per member.
    """
    total, n = None, 0
    for m in members:
        if names is not None and n >= len(names):
            raise ValidationError(f"more members than the {len(names)} names given")
        name = f"member {n}" if names is None else names[n]
        m = np.asarray(m)
        if total is not None and m.shape != total.shape:
            raise ValidationError(f"{name} has shape {m.shape}, expected {total.shape}")
        # 0.0 + m first, as numpy's sum turns -0.0 into 0.0; added before the check (run's RSS)
        total = np.add(m, 0.0, dtype=np.float64) if total is None else np.add(total, m, out=total)
        validate_probabilities(m, name=name)
        n += 1
        del m  # before the next member is drawn
    if total is None:
        raise ValidationError("ensemble needs at least one member")
    if names is not None and n != len(names):
        raise ValidationError(f"{n} members for {len(names)} names")
    total /= n
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
