"""Array shape conventions, validators, and per-case preprocessing.

Arrays are plain numpy ndarrays with these shape conventions:

* intensity slice/volume: ``(H, W)`` or ``(D, H, W)``, float
* label slice/volume:     ``(H, W)`` or ``(D, H, W)``, integer codes,
  0 = background, foreground classes 1..c-1
* probability map:        ``(c, H, W)`` or ``(c, D, H, W)``, one softmax
  simplex per pixel
* binary image:           ``(H, W)`` or ``(D, H, W)``, values in {0, 1};
  masks built by thresholding are bool

All functions are pure; nothing here mutates its inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

# Per-pixel class vectors must sum to 1 within this tolerance; float32
# softmax outputs accumulate rounding at roughly this scale.
SIMPLEX_TOLERANCE = 1e-5

# Per-pixel passes over a flattened pixel axis run in blocks of this many
# pixels (512 KiB of float64 scratch); a 64x64 slice is one block.
BLOCK_PIXELS = 1 << 16


def pixel_blocks(n):
    """Slices of at most BLOCK_PIXELS covering ``range(n)`` in order, at least one."""
    return [slice(i, min(i + BLOCK_PIXELS, n)) for i in range(0, max(n, 1), BLOCK_PIXELS)]


def validate_labels(labels, class_count, *, name=None):
    """Check integer label codes lie in [0, class_count).

    Error messages start with ``name`` when given.
    """
    lab = np.asarray(labels)
    if not np.issubdtype(lab.dtype, np.integer):
        raise ValidationError(_named(f"labels must be integer-typed, got {lab.dtype}", name))
    if lab.size == 0:
        raise ValidationError(_named("empty label array", name))
    lo, hi = int(lab.min()), int(lab.max())
    if lo < 0 or hi >= class_count:
        raise ValidationError(_named(
            f"label codes must lie in [0, {class_count}), found range [{lo}, {hi}]", name
        ))
    return lab


def validate_binary(image):
    """Check values are restricted to {0, 1}; returns a bool view/copy.

    A bool array is binary by its type and skips the value scan.
    """
    img = np.asarray(image)
    if img.size == 0:
        raise ValidationError("empty binary image")
    if img.dtype == np.bool_:
        return img
    vals = np.unique(img)
    if not np.all(np.isin(vals, (0, 1))):
        raise ValidationError(f"binary image contains values other than 0/1: {vals[:8]}")
    return img.astype(bool)


def validate_probability_shape(shape, *, name=None):
    """Check that ``shape`` is a non-empty (c, H, W) or (c, D, H, W) with c >= 2."""
    if len(shape) not in (3, 4):
        raise ValidationError(_named(
            f"probability array must be (c,H,W) or (c,D,H,W), got shape {shape}", name
        ))
    if shape[0] < 2:
        raise ValidationError(
            _named(f"probability array needs >= 2 classes, got {shape[0]}", name)
        )
    if 0 in shape:
        raise ValidationError(_named("empty probability array", name))


def validate_probabilities(p, *, name=None):
    """Check per-pixel simplex constraints on a (c, ...) probability array.

    Every entry must be in [0, 1] and each per-pixel class vector must sum
    to 1 within SIMPLEX_TOLERANCE, read at call time. The check runs on the
    array's own dtype, with the class sums taken in float64, and returns the
    array unchanged. Error messages start with ``name`` when given.
    Posteriors are checked once, where they enter the program, one pixel
    block at a time; the kernels take them as trusted.
    """
    arr = np.asarray(p)
    validate_probability_shape(arr.shape, name=name)
    lo, hi = arr.min(), arr.max()
    if not (lo >= 0.0 and hi <= 1.0):  # a NaN fails both comparisons
        if not (np.isfinite(lo) and np.isfinite(hi)):  # a NaN or an inf is an extreme
            raise ValidationError(_named("probability array contains NaN or Inf", name))
        raise ValidationError(_named(f"probabilities outside [0, 1]: min {lo}, max {hi}", name))
    # the class sums in class order, as sum(axis=0) adds the rows of a
    # C-contiguous stack of more than one pixel
    sums = arr[0].astype(np.float64)
    for plane in arr[1:]:
        sums += plane
    # the largest |s - 1|, as rounding s - 1 is monotone and symmetric
    worst = max(float(sums.max()) - 1.0, 1.0 - float(sums.min()))
    if worst > SIMPLEX_TOLERANCE:
        raise ValidationError(_named(
            f"per-pixel class probabilities must sum to 1 within {SIMPLEX_TOLERANCE}; "
            f"worst deviation {worst:.3e}",
            name,
        ))
    return arr


def zscore_normalize(volume):
    """Normalize a whole intensity array to zero mean and unit std, as float64.

    Uses the population standard deviation (divide by N). Raises
    ValidationError for an empty array, a NaN/Inf or constant input.
    """
    v = np.asarray(volume, dtype=np.float64)
    if v.size == 0:
        raise ValidationError("empty intensity array")
    if not np.all(np.isfinite(v)):
        raise ValidationError("intensity array contains NaN or Inf")
    mean = v.mean()
    std = v.std()
    if std == 0.0:
        raise ValidationError("constant volume has zero standard deviation")
    return (v - mean) / std


def _named(message, name):
    return f"{name}: {message}" if name is not None else message
