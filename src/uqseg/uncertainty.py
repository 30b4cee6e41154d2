"""Entropy maps, binary morphology, and contour-normalized uncertainty scores.

The per-class score pipeline: take the class's probability plane from the
averaged posterior, threshold it at 0.5 into a binary mask, dilate, keep
only the ring of pixels the dilation added (the segmentation contour), and
divide total entropy by the ring's pixel count. Normalizing by contour
length makes scores comparable across segmentations of different sizes.

Entropy is base-2 (bits) throughout. Masks are bool arrays, dilated with a
box (a full square or cube) one axis at a time. Scores always dilate slice by
slice with the 3x3 square; only ``dilate`` and ``contour_normalizer`` take an
element, such as a 3D box. Posteriors are validated where they enter the program
(``pipeline.fuse_blocks`` for files, ``ensemble_mean`` for arrays), so these kernels trust them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .arrays import pixel_blocks, validate_binary, validate_probability_shape
from .errors import ValidationError

FOREGROUND_THRESHOLD = 0.5


@dataclass(frozen=True)
class StructuringElement:
    """Box of side 2*radius + 1: a square (2D) or a cube (3D)."""

    ndim: int = 2
    radius: int = 1

    def __post_init__(self):
        if self.ndim not in (2, 3):
            raise ValidationError(f"element must be 2D or 3D, got ndim={self.ndim}")
        if self.radius < 0:
            raise ValidationError(f"radius must be >= 0, got {self.radius}")

    @classmethod
    def full(cls, ndim: int = 2, radius: int = 1):
        """Fully-set square (2D) or cube (3D) of side 2*radius + 1."""
        return cls(ndim, radius)

    @property
    def mask(self) -> np.ndarray:
        return np.ones((2 * self.radius + 1,) * self.ndim, dtype=bool)


_SQUARE = StructuringElement.full(2)


@dataclass(frozen=True)
class UncertaintyScore:
    """Per-class result: total entropy, ring size, and their ratio."""

    class_id: int
    h_total: float
    contour_pixels: int
    score: float
    empty_contour: bool


def pixel_entropy(p) -> np.ndarray:
    """Per-pixel Shannon entropy -sum_k p_k log2 p_k, with 0*log2(0) = 0.

    ``p`` is a trusted posterior; the entropy is computed in float64 one
    class plane at a time, so the working set is the map and one term plane
    whatever c is (``run`` and the CLI pass one pixel block). Each plane's
    -(p log2 p) is added into the map, which starts at +0.0, in class order,
    for every shape and memory layout. That is what ``sum(axis=0)`` does on
    a C-contiguous stack of more than one pixel; numpy sums the classes
    pairwise instead from c = 8 on when they are its innermost loop (a
    single pixel, a class-last layout), where the last bits can differ.
    """
    arr = np.asarray(p)
    h = np.zeros(arr.shape[1:], dtype=np.float64)
    term = np.empty_like(h)
    # -(p * log2 p) in one buffer; it equals (-p) * log2 p bit for bit.
    # dtype= casts a float32 plane exactly, as a float64 copy would
    with np.errstate(divide="ignore", invalid="ignore"):
        for plane in arr:
            np.log2(plane, out=term, dtype=np.float64)
            np.multiply(term, plane, out=term, dtype=np.float64)
            np.negative(term, out=term)
            np.copyto(term, 0.0, where=~(plane > 0.0))
            h += term
    return h


def dilate(image, element=None) -> np.ndarray:
    """Binary dilation into a bool mask; outside the image counts as background.

    A 3D image with a 2D element is dilated independently per axial slice.
    """
    return _dilate(validate_binary(image), element)


def _dilate(img, element):
    elem = _SQUARE if element is None else element
    if not (img.ndim == elem.ndim or (img.ndim == 3 and elem.ndim == 2)):
        raise ValidationError(f"{elem.ndim}D element incompatible with {img.ndim}D image")
    out = img
    # one axis at a time: out[x] = OR of src[x - s .. x + s] within the image
    for axis in range(img.ndim - elem.ndim, img.ndim):
        src, out = out, out.copy()
        lead = (slice(None),) * axis
        for s in range(1, min(elem.radius, img.shape[axis] - 1) + 1):
            out[lead + (slice(s, None),)] |= src[lead + (slice(None, -s),)]
            out[lead + (slice(None, -s),)] |= src[lead + (slice(s, None),)]
    return out


def contour_normalizer(image, element=None) -> np.ndarray:
    """Ring of pixels added by dilation: dilate(I) minus I, as a bool mask."""
    img = validate_binary(image)
    ring = _dilate(img, element)  # a new array: _dilate copies per axis
    ring &= ~img
    return ring


def check_classes(classes, class_count=None) -> list:
    """``classes`` as a list; ValidationError unless each is a foreground class, named once."""
    for k in classes:
        if not 0 < k < (class_count or math.inf):  # None: c is not known yet, no upper bound
            where = f" for {class_count} classes" if class_count else ""
            raise ValidationError(f"class {k} out of range{where}; "
                                  "background (class 0) has no uncertainty score")
    if len(set(classes)) < len(classes):
        raise ValidationError(f"class list {list(classes)} names a class more than once")
    return list(classes)


def class_scores(shape, classes, h_total, rows_of, restrict_to_contour=False) -> list:
    """Each class's score in a ``shape`` image, in one pass over the ``(c, m)`` rows that
    ``rows_of(pixels)`` reads: a block's image rows and one either side. Its own ring pixels count;
    ``restrict_to_contour`` sums their entropy in block order for ``h_total``. No ring scores 0."""
    width, height, n = shape[-1], shape[-2], math.prod(shape)
    counts = np.zeros(len(classes), dtype=np.int64)
    totals = [0.0 if restrict_to_contour else h_total] * len(classes)
    for sl in pixel_blocks(n):
        top, end = max(sl.start // width - 1, 0), min((sl.stop - 1) // width + 2, n // width)
        rows = rows_of(slice(top * width, end * width))  # the window of image rows
        rings = np.empty((len(classes), end - top, width), dtype=bool)
        for mask, k in zip(rings, classes):  # each class's mask, with no c-row scratch
            np.greater(rows[k].reshape(-1, width), FOREGROUND_THRESHOLD, out=mask)
        for lo in range(top - top % height, end, height):  # each slice's rows, ringed in place
            seg = slice(max(top, lo) - top, min(end, lo + height) - top)
            rings[:, seg] = contour_normalizer(rings[:, seg])
        block = slice(sl.start - top * width, sl.stop - top * width)
        ring = rings.reshape(len(classes), -1)[:, block]
        counts += [np.count_nonzero(own) for own in ring]  # no axis: no reduction buffer
        if restrict_to_contour:  # each ring pixel's entropy, summed in block order
            union = ring.any(axis=0)
            h = pixel_entropy(rows[:, block][:, union])
            totals = [total + float(h[own[union]].sum()) for total, own in zip(totals, ring)]
        del rows, rings, ring  # before the next window is read
    return [UncertaintyScore(k, total, p, total / p if p else 0.0, not p)
            for k, total, p in zip(classes, totals, counts.tolist())]


def uncertainty_score(p, class_id: int, *, restrict_to_contour=False):
    """Contour-normalized uncertainty score for one class of a trusted posterior.

    ``restrict_to_contour`` sums the entropy of the contour ring only, in
    ``class_scores``, and takes no whole-image sum; either sum is taken per
    pixel block, the block sums added in block order, as in ``run``. A ``class_id`` outside
    1 to c - 1, or a shape other than (c, H, W) or (c, D, H, W), is a ValidationError.
    """
    p = np.asarray(p)
    check_classes([class_id], p.shape[0])
    validate_probability_shape(p.shape)
    flat = p.reshape(p.shape[0], -1)
    h_total = 0.0  # not ``sum``: it compensates from Python 3.12
    for sl in () if restrict_to_contour else pixel_blocks(flat.shape[1]):
        h_total += float(pixel_entropy(flat[:, sl]).sum())
    return class_scores(p.shape[1:], [class_id], h_total, lambda sl: flat[:, sl],
                        restrict_to_contour)[0]
