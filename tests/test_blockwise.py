"""Block-wise per-pixel kernels against the whole-array kernels they replace.

Each ``former_*`` function below is the kernel as it was before the pixel
passes ran block by block; the block-wise kernels must give the same bytes
and the same error messages. Shapes span several blocks with a ragged last
block, at the real block size and, patched, at tiny ones.
"""

import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uqseg.arrays
from uqseg.arrayio import entropy_to_gray
from uqseg.arrays import BLOCK_PIXELS, SIMPLEX_TOLERANCE, pixel_blocks, validate_probabilities
from uqseg.ensemble import argmax_labels
from uqseg.errors import ValidationError
from uqseg.metrics import CalibrationAccumulator, ece
from uqseg.uncertainty import pixel_entropy


def former_validation_error(arr, tol=SIMPLEX_TOLERANCE):
    """The value checks of the former validate_probabilities; the message or None."""
    lo, hi = arr.min(), arr.max()
    if not (lo >= 0.0 and hi <= 1.0):
        if not np.all(np.isfinite(arr)):
            return "probability array contains NaN or Inf"
        return f"probabilities outside [0, 1]: min {lo}, max {hi}"
    sums = arr.sum(axis=0, dtype=np.float64)
    sums -= 1.0
    worst = float(np.abs(sums, out=sums).max())
    if worst > tol:
        return (
            f"per-pixel class probabilities must sum to 1 within {tol}; "
            f"worst deviation {worst:.3e}"
        )
    return None


def former_pixel_entropy(arr):
    """One whole float64 term plane, one class plane at a time."""
    h = np.zeros(arr.shape[1:], dtype=np.float64)
    term = np.empty_like(h)
    with np.errstate(divide="ignore", invalid="ignore"):
        for plane in arr:
            np.log2(plane, out=term, dtype=np.float64)
            np.multiply(term, plane, out=term, dtype=np.float64)
            np.negative(term, out=term)
            np.copyto(term, 0.0, where=~(plane > 0.0))
            h += term
    return h


def former_entropy_to_gray(entropy_map, class_count):
    h = np.asarray(entropy_map, dtype=np.float64)
    ceiling = float(np.log2(class_count))
    return np.clip(np.rint(h / ceiling * 255.0), 0, 255).astype(np.uint8)


def former_argmax_labels(arr):
    """The class chain with a whole running-maximum plane."""
    labels = np.zeros(arr.shape[1:], dtype=np.min_scalar_type(arr.shape[0] - 1))
    best = arr[0].copy()
    for k in range(1, arr.shape[0]):
        labels[arr[k] > best] = k
        np.maximum(best, arr[k], out=best)
    return labels


def former_add(arr, labels, n_bins, pred=None, foreground_only=False):
    """The former accumulator kernel on one pair: (counts, sums, correct counts).

    Whole confidence plane, int64 bin indices and one stable sort of them.
    The confidences are float64 whatever the posterior's dtype, as the bin
    buffer holds them.
    """
    edges = np.array([k / n_bins for k in range(1, n_bins)])
    if pred is None:
        pred = arr.argmax(axis=0)
    confidence = arr.max(axis=0).ravel().astype(np.float64)
    correct = (pred == labels).ravel()
    if foreground_only:
        keep = (labels > 0).ravel()
        confidence = confidence[keep]
        correct = correct[keep]
    idx = np.searchsorted(edges, confidence, side="left").astype(
        np.min_scalar_type(n_bins - 1)
    )
    counts = np.bincount(idx, minlength=n_bins)
    correct_counts = np.bincount(idx[correct], minlength=n_bins)
    ordered = confidence[np.argsort(idx, kind="stable")]
    stops = np.cumsum(counts)
    sums = np.zeros(n_bins)
    for b in np.flatnonzero(counts):
        sums[b] += float(np.sum(ordered[stops[b] - counts[b] : stops[b]]))
    return counts, sums, correct_counts


def posterior(rng, c, spatial, dtype, scale=2.0):
    """A softmax posterior; a large scale drives classes to exact 0 and 1."""
    logits = scale * rng.normal(size=(c, *spatial))
    e = np.exp(logits - logits.max(axis=0))
    return (e / e.sum(axis=0)).astype(dtype)


def assert_add_matches(p, gt, n_bins, *, pred=None, foreground_only=False):
    acc = CalibrationAccumulator(n_bins)
    for _ in range(2):  # a second add accumulates onto the first
        acc.add(p, gt, pred=pred, foreground_only=foreground_only)
    counts, sums, correct_counts = former_add(p, gt, n_bins, pred, foreground_only)
    twice = np.zeros(n_bins)
    twice += sums
    twice += sums
    np.testing.assert_array_equal(acc.counts, 2 * counts)
    np.testing.assert_array_equal(acc.correct_counts, 2 * correct_counts)
    assert acc.confidence_sums.tobytes() == twice.tobytes()


# three blocks with a ragged last one, and two in 2D
SPATIAL = [(3, 211, 223), (300, 250)]


class TestPixelBlocks:
    @pytest.mark.parametrize("n", [1, 5, BLOCK_PIXELS - 1, BLOCK_PIXELS, BLOCK_PIXELS + 1, 141159])
    def test_cover_the_axis_in_order(self, n):
        blocks = pixel_blocks(n)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all(0 < s.stop - s.start <= BLOCK_PIXELS for s in blocks)
        assert len(blocks) == -(-n // BLOCK_PIXELS)

    def test_a_64x64_slice_is_one_block(self):
        assert pixel_blocks(64 * 64) == [slice(0, 64 * 64)]

    def test_empty_axis_has_one_empty_block(self):
        assert pixel_blocks(0) == [slice(0, 0)]


@pytest.mark.parametrize("spatial", SPATIAL)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c", [2, 4, 9])
class TestAtTheBlockSize:
    def test_entropy_and_gray(self, c, dtype, spatial):
        p = posterior(np.random.default_rng(c), c, spatial, dtype, scale=30.0)
        h = pixel_entropy(p)
        assert h.tobytes() == former_pixel_entropy(p).tobytes()
        assert entropy_to_gray(h, c).tobytes() == former_entropy_to_gray(h, c).tobytes()
        h32 = h.astype(np.float32)
        assert entropy_to_gray(h32, c).tobytes() == former_entropy_to_gray(h32, c).tobytes()

    def test_argmax(self, c, dtype, spatial):
        # small integer weights over their sum: exact ties are common
        rng = np.random.default_rng(c + 1)
        w = rng.integers(0, 3, size=(c, *spatial)).astype(np.float64)
        w[0][w.sum(axis=0) == 0] = 1.0
        p = (w / w.sum(axis=0)).astype(dtype)
        labels = argmax_labels(p)
        assert labels.dtype == np.uint8
        assert labels.tobytes() == former_argmax_labels(p).tobytes()
        assert labels.tobytes() == p.argmax(axis=0).astype(np.uint8).tobytes()

    @pytest.mark.parametrize("foreground_only", [False, True])
    def test_calibration(self, c, dtype, spatial, foreground_only):
        rng = np.random.default_rng(c + 2)
        p = posterior(rng, c, spatial, dtype)
        gt = rng.integers(0, c, size=spatial).astype(np.uint8)
        for n_bins in (1, 10, 300):  # every pixel in one bin; many empty bins
            assert_add_matches(p, gt, n_bins, foreground_only=foreground_only)
        assert_add_matches(p, gt, 10, pred=argmax_labels(p), foreground_only=foreground_only)

    def test_valid_posterior_is_returned_unchanged(self, c, dtype, spatial):
        p = posterior(np.random.default_rng(c + 3), c, spatial, dtype)
        assert former_validation_error(p) is None
        assert validate_probabilities(p) is p


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c", [2, 4, 9])
@pytest.mark.parametrize(
    "fault",
    ["nan", "inf", "-inf", "above", "below", "sum", "below_then_nan", "sum_then_above"],
)
def test_fault_in_the_last_block_gives_the_former_message(c, dtype, fault):
    spatial = (3, 211, 223)
    p = posterior(np.random.default_rng(c + 4), c, spatial, dtype)
    last = (slice(None), -1, -1, slice(-5, None))  # pixels of the last block only
    first = (0, 0, 0, 0)
    if fault == "nan":
        p[1, -1, -1, -1] = np.nan
    elif fault == "inf":
        p[0, -1, -1, -2] = np.inf
    elif fault == "-inf":
        p[c - 1, -1, -1, -1] = -np.inf
    elif fault == "above":
        p[0, -1, -1, -1] = 1.5
    elif fault == "below":
        p[last] = -0.25
    elif fault == "sum":
        p[last] *= dtype(0.999)
    elif fault == "below_then_nan":
        p[first] = -0.5
        p[1, -1, -1, -1] = np.nan
    elif fault == "sum_then_above":
        p[first] *= dtype(0.9)
        p[0, -1, -1, -1] = 1.25
    expected = former_validation_error(p)
    assert expected is not None
    with pytest.raises(ValidationError) as err:
        validate_probabilities(p, name="m.uqsg")
    assert str(err.value) == f"m.uqsg: {expected}"


def test_empty_posterior_is_rejected_by_name():
    with pytest.raises(ValidationError, match=r"^m\.uqsg: empty probability array$"):
        validate_probabilities(np.zeros((3, 0, 4), dtype=np.float32), name="m.uqsg")


@st.composite
def _small_block_cases(draw):
    """A posterior and labels, and a block size that cuts them into many ragged blocks."""
    c = draw(st.sampled_from([2, 4, 9]))
    spatial = draw(st.lists(st.integers(1, 13), min_size=2, max_size=3))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = posterior(rng, c, spatial, dtype, scale=draw(st.sampled_from([0.5, 3.0, 300.0])))
    gt = rng.integers(0, c, size=spatial).astype(np.uint8)
    block = draw(st.integers(1, int(np.prod(spatial)) + 1))
    return p, gt, block, draw(st.integers(1, 40)), draw(st.booleans())


@settings(max_examples=100, deadline=None)
@given(case=_small_block_cases())
def test_every_kernel_at_tiny_block_sizes(case):
    p, gt, block, n_bins, foreground_only = case
    c = p.shape[0]
    with patch.object(uqseg.arrays, "BLOCK_PIXELS", block):
        assert validate_probabilities(p) is p
        h = pixel_entropy(p)
        assert h.tobytes() == former_pixel_entropy(p).tobytes()
        assert entropy_to_gray(h, c).tobytes() == former_entropy_to_gray(h, c).tobytes()
        assert argmax_labels(p).tobytes() == former_argmax_labels(p).tobytes()
        assert_add_matches(p, gt, n_bins, foreground_only=foreground_only)
        bad = p.copy()
        bad[(0,) + tuple(n - 1 for n in p.shape[1:])] = np.nan
        with pytest.raises(ValidationError, match="NaN or Inf"):
            validate_probabilities(bad)


@settings(max_examples=100, deadline=None)
@given(case=_small_block_cases(), shift=st.floats(-1e-3, 1e-3))
def test_worst_deviation_is_the_former_one_bit_for_bit(case, shift):
    """validate accepts at SIMPLEX_TOLERANCE = the former worst deviation, rejects just below it."""
    p, _, block, _, _ = case
    c = p.shape[0]
    p = p.copy()
    ramp = np.linspace(-1.0, 1.0, p[0].size).reshape(p[0].shape)
    p[0] = np.clip(p[0] + shift * ramp, 0.0, 1.0)  # deviations of both signs
    sums = p.sum(axis=0, dtype=np.float64)
    sums -= 1.0
    worst = float(np.abs(sums, out=sums).max())
    if c >= 8 and p[0].size == 1:
        return  # numpy sums a lone pixel's c >= 8 classes pairwise, not in class order
    with patch.object(uqseg.arrays, "BLOCK_PIXELS", block):
        with patch.object(uqseg.arrays, "SIMPLEX_TOLERANCE", worst):
            assert validate_probabilities(p) is p
        if worst > 0.0:
            with patch.object(uqseg.arrays, "SIMPLEX_TOLERANCE", np.nextafter(worst, 0.0)):
                with pytest.raises(ValidationError, match="worst deviation"):
                    validate_probabilities(p)


def test_ece_without_pred_equals_the_former_int64_argmax():
    rng = np.random.default_rng(21)
    p = posterior(rng, 4, (2, 190, 200), np.float64)
    gt = rng.integers(0, 4, size=p.shape[1:]).astype(np.uint8)
    for foreground_only in (False, True):
        counts, sums, correct_counts = former_add(p, gt, 10, None, foreground_only)
        report = ece(p, gt, 10, foreground_only=foreground_only)
        expected = np.abs(correct_counts - sums)[counts > 0].sum() * 100.0 / counts.sum()
        assert report.ece == float(expected)
        np.testing.assert_array_equal(report.counts, counts)


def _peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scratch_is_block_sized():
    """Ten blocks of pixels: each kernel holds its whole outputs and a few blocks."""
    c, spatial = 4, (10, 128, 512)
    n = int(np.prod(spatial))
    assert n == 10 * BLOCK_PIXELS
    rng = np.random.default_rng(22)
    p = posterior(rng, c, spatial, np.float32)
    gt = rng.integers(0, c, size=spatial).astype(np.uint8)
    h = pixel_entropy(p)
    block = 8 * BLOCK_PIXELS  # one float64 block
    slack = 128 * 1024  # numpy's cast buffers and interpreter objects
    # the float64 class sums of one block
    assert _peak(validate_probabilities, p) < block + slack
    # the map; the term and two bool blocks of the > 0 test
    assert _peak(pixel_entropy, p) < 8 * n + block + block // 4 + slack
    # the uint8 image and the scaled block
    assert _peak(entropy_to_gray, h, c) < n + block + slack
    # the uint8 labels; a float32 maximum and a bool block
    assert _peak(argmax_labels, p) < n + block // 2 + block // 8 + slack
    # the bin-ordered float64 confidences and the uint8 bin indices, the
    # uint8 argmax, and a few blocks: confidences, int64 bin indices, the
    # int64 stable-sort permutation and the sorted confidences
    acc = CalibrationAccumulator(10)
    assert _peak(acc.add, p, gt) < 8 * n + n + n + 4 * block + slack
