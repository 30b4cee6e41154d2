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
(``ensemble_mean``, the CLI's readers), so these kernels take them as trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import pixel_blocks, validate_binary
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

    ``p`` is a trusted posterior; the entropy is computed in float64, one
    block of pixels and one class plane at a time, so the working set is the
    map and one block-sized term whatever c is. Each plane's -(p log2 p) is
    added into the map, which starts at +0.0, in class order, for every
    shape and memory layout. That is what ``sum(axis=0)`` does on a
    C-contiguous stack of more than one pixel; numpy sums the classes
    pairwise instead from c = 8 on when they are its innermost loop (a
    single pixel, a class-last layout), where the last bits can differ.
    """
    arr = np.asarray(p)
    flat = arr.reshape(arr.shape[0], -1)
    h = np.zeros(arr.shape[1:], dtype=np.float64)
    h_flat = h.reshape(-1)
    blocks = pixel_blocks(flat.shape[1])
    scratch = np.empty(blocks[0].stop, dtype=np.float64)
    # -(p * log2 p) in one buffer; it equals (-p) * log2 p bit for bit.
    # dtype= casts a float32 plane exactly, as a float64 copy would
    with np.errstate(divide="ignore", invalid="ignore"):
        for sl in blocks:
            total = h_flat[sl]
            term = scratch[: sl.stop - sl.start]
            for plane in flat[:, sl]:
                np.log2(plane, out=term, dtype=np.float64)
                np.multiply(term, plane, out=term, dtype=np.float64)
                np.negative(term, out=term)
                np.copyto(term, 0.0, where=~(plane > 0.0))
                total += term
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


def total_entropy(entropy_map, region=None) -> float:
    """Sum of entropy values over the whole map, or over a binary region: one
    sum per pixel block, the block sums added in block order, as in ``run``."""
    h = np.asarray(entropy_map, dtype=np.float64)
    mask = np.broadcast_to(True, h.shape) if region is None else validate_binary(region)
    if mask.shape != h.shape:
        raise ValidationError(f"region shape {mask.shape} does not match map shape {h.shape}")
    h, mask = h.reshape(-1), mask.reshape(-1)
    return sum(float(h[sl][mask[sl]].sum()) for sl in pixel_blocks(h.size))


def check_classes(classes, class_count) -> list:
    """``classes`` as a list; ValidationError unless each is a foreground class."""
    for k in classes:
        if not 0 < k < class_count:
            raise ValidationError(
                f"class {k} out of range for {class_count} classes; "
                "background (class 0) has no uncertainty score"
            )
    return list(classes)


def mask_score(mask, class_id, entropy_total, restrict_to_contour=False) -> UncertaintyScore:
    """The score of class ``class_id`` from its bool foreground ``mask``;
    ``entropy_total(region)`` sums the entropy over a bool region, or over
    the image for None. An empty contour gives score 0 and ``empty_contour``."""
    ring = contour_normalizer(mask)
    pixels = int(np.count_nonzero(ring))
    h_total = entropy_total(ring if restrict_to_contour else None)
    score = h_total / pixels if pixels else 0.0
    return UncertaintyScore(class_id, h_total, pixels, score, not pixels)


def uncertainty_score(p, class_id: int, *, entropy=None, restrict_to_contour=False):
    """Contour-normalized uncertainty score for one class of a trusted posterior.

    ``entropy`` is the posterior's ``pixel_entropy`` map, computed here when
    not given; one map serves every class of a case. ``restrict_to_contour``
    limits the entropy sum to the contour ring instead of the whole image.
    A ``class_id`` outside 1 to c - 1 is a ValidationError.
    """
    p = np.asarray(p)
    check_classes([class_id], p.shape[0])
    h = pixel_entropy(p) if entropy is None else entropy
    mask = p[class_id] > FOREGROUND_THRESHOLD  # a trusted plane needs no value check
    return mask_score(mask, class_id, lambda region: total_entropy(h, region), restrict_to_contour)
