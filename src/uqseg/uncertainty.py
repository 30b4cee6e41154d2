"""Entropy maps, binary morphology, and contour-normalized uncertainty scores.

The per-class score pipeline: take the class's probability plane from the
averaged posterior, threshold it at 0.5 into a binary mask, dilate, keep
only the ring of pixels the dilation added (the segmentation contour), and
divide total entropy by the ring's pixel count. Normalizing by contour
length makes scores comparable across segmentations of different sizes.

Entropy is base-2 (bits) throughout. Masks are bool arrays, dilated with a
box only (a full square or cube), one axis at a time. Masks over 3D volumes
are dilated slice by slice with the 3x3 square by default; pass a 3D box for
volumetric dilation. Posteriors are validated where they enter the program
(``ensemble_mean``, the CLI's readers), so these kernels take them as trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import validate_binary
from .ensemble import class_foreground
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
    class plane at a time, so the working set is two planes whatever c is.
    Each plane's -(p log2 p) is added into the map, which starts at +0.0,
    in class order, for every shape and memory layout. That is what
    ``sum(axis=0)`` does on a C-contiguous stack of more than one pixel;
    numpy sums the classes pairwise instead from c = 8 on when they are its
    innermost loop (a single pixel, a class-last layout), where the last
    bits can differ.
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
    return _dilate(img, element) & ~img


def total_entropy(entropy_map, region=None) -> float:
    """Sum of entropy values over the whole map, or over a binary region."""
    h = np.asarray(entropy_map, dtype=np.float64)
    if region is None:
        return float(h.sum())
    mask = validate_binary(region)
    if mask.shape != h.shape:
        raise ValidationError(
            f"region shape {mask.shape} does not match map shape {h.shape}"
        )
    return float(h[mask].sum())


def uncertainty_score(
    p,
    class_id: int,
    element=None,
    *,
    entropy=None,
    restrict_to_contour: bool = False,
) -> UncertaintyScore:
    """Contour-normalized uncertainty score for one class of a trusted posterior.

    ``entropy`` is the posterior's ``pixel_entropy`` map, computed here when
    not given; one map serves every class of a case. ``restrict_to_contour``
    limits the entropy sum to the contour ring instead of the whole image.
    An empty contour is reported via the ``empty_contour`` flag with score
    0, not an error.
    """
    if class_id == 0:
        raise ValidationError("background (class 0) has no uncertainty score")
    # a trusted plane needs no range check: threshold it directly
    mask = class_foreground(p, class_id) > FOREGROUND_THRESHOLD
    ring = contour_normalizer(mask, element)
    contour_pixels = int(np.count_nonzero(ring))
    if entropy is None:
        entropy = pixel_entropy(p)
    h_total = total_entropy(entropy, ring if restrict_to_contour else None)
    if contour_pixels == 0:
        return UncertaintyScore(class_id, h_total, 0, 0.0, True)
    return UncertaintyScore(
        class_id, h_total, contour_pixels, h_total / contour_pixels, False
    )
