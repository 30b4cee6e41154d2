"""Array shape conventions, validators, and per-case preprocessing.

Arrays are plain numpy ndarrays with these shape conventions:

* intensity slice/volume: ``(H, W)`` or ``(D, H, W)``, float
* label slice/volume:     ``(H, W)`` or ``(D, H, W)``, integer codes,
  0 = background, foreground classes 1..c-1
* probability map:        ``(c, H, W)`` or ``(c, D, H, W)``, one softmax
  simplex per pixel
* binary image:           ``(H, W)`` or ``(D, H, W)``, values in {0, 1}

All functions are pure; nothing here mutates its inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, ValidationError

# Per-pixel class vectors must sum to 1 within this tolerance; float32
# softmax outputs accumulate rounding at roughly this scale.
SIMPLEX_TOLERANCE = 1e-5


def validate_intensities(volume, *, case_id=None):
    """Check an intensity array for NaN/Inf; returns it as float64."""
    v = np.asarray(volume, dtype=np.float64)
    if v.size == 0:
        raise ValidationError(_tag("empty intensity array", case_id))
    if not np.all(np.isfinite(v)):
        raise ValidationError(_tag("intensity array contains NaN or Inf", case_id))
    return v


def validate_labels(labels, class_count):
    """Check integer label codes lie in [0, class_count)."""
    lab = np.asarray(labels)
    if not np.issubdtype(lab.dtype, np.integer):
        raise ValidationError(f"labels must be integer-typed, got {lab.dtype}")
    if lab.size == 0:
        raise ValidationError("empty label array")
    lo, hi = int(lab.min()), int(lab.max())
    if lo < 0 or hi >= class_count:
        raise ValidationError(
            f"label codes must lie in [0, {class_count}), found range [{lo}, {hi}]"
        )
    return lab


def validate_binary(image):
    """Check values are restricted to {0, 1}; returns a uint8 view/copy."""
    img = np.asarray(image)
    if img.size == 0:
        raise ValidationError("empty binary image")
    vals = np.unique(img)
    if not np.all(np.isin(vals, (0, 1))):
        raise ValidationError(f"binary image contains values other than 0/1: {vals[:8]}")
    return img.astype(np.uint8, copy=False)


def validate_probabilities(p, *, tol=SIMPLEX_TOLERANCE):
    """Check per-pixel simplex constraints on a (c, ...) probability array.

    Every entry must be in [0, 1] and each per-pixel class vector must sum
    to 1 within ``tol``. Returns the array as float64.
    """
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim not in (3, 4):
        raise ValidationError(
            f"probability array must be (c,H,W) or (c,D,H,W), got shape {arr.shape}"
        )
    if arr.shape[0] < 2:
        raise ValidationError(f"probability array needs >= 2 classes, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("probability array contains NaN or Inf")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValidationError(
            f"probabilities outside [0, 1]: min {arr.min()}, max {arr.max()}"
        )
    sums = arr.sum(axis=0)
    worst = float(np.abs(sums - 1.0).max())
    if worst > tol:
        raise ValidationError(
            f"per-pixel class probabilities must sum to 1 within {tol}; "
            f"worst deviation {worst:.3e}"
        )
    return arr


def zscore_normalize(volume, *, case_id=None):
    """Normalize a whole intensity array to zero mean and unit std.

    Uses the population standard deviation (divide by N). Raises
    DegenerateInputError for constant input, naming the case when given.
    """
    v = validate_intensities(volume, case_id=case_id)
    mean = v.mean()
    std = v.std()
    if std == 0.0:
        raise DegenerateInputError(
            _tag("constant volume has zero standard deviation", case_id)
        )
    return (v - mean) / std


def _tag(message, case_id):
    return f"{message} (case {case_id})" if case_id is not None else message
