"""Per-pixel kernels against the former whole-array kernels; block-sized commands.

Each ``former_*`` function below is a kernel as it was before the pixel
passes ran block by block; the kernels, which ``run`` and the CLI hand one
pixel block at a time, must give the same bytes and the same error messages.
The ECE bin sums are the exception: they are summed per block, so they must
equal ``former_add`` applied to each block, and come close to its
whole-array sums. Shapes span several blocks with a ragged last block, at
the real block size and, patched, at tiny ones. The ``entropy``, ``score``
and ``ece`` commands hold a few blocks of a posterior and, whole, only the
gray image of ``entropy --pgm`` and the labels of ``ece``; ``run`` holds its
labels whole and ``dice`` its two label files. ``run`` and ``score`` score
from a window of block rows, never a class mask of the whole case.
"""

import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uqseg.arrays
import uqseg.pipeline
import uqseg.uncertainty
from uqseg.arrayio import entropy_to_gray, read_array, write_array
from uqseg.arrays import BLOCK_PIXELS, SIMPLEX_TOLERANCE, pixel_blocks, validate_probabilities
from uqseg.cli import main
from uqseg.ensemble import argmax_labels
from uqseg.errors import ValidationError
from uqseg.metrics import CalibrationAccumulator, DiceResult, dice, ece
from uqseg.reports import csv_line
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


def former_dice(pred, gt, class_id):
    """One class's Dice from whole masks of both label arrays."""
    pm, gm = pred == class_id, gt == class_id
    inter, psz, gsz = (int(np.count_nonzero(m)) for m in (pm & gm, pm, gm))
    return DiceResult(class_id, inter, psz, gsz, 2.0 * inter / (psz + gsz) if psz + gsz else 1.0)


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


def assert_same_report(report, acc):
    """``report`` is ``acc``'s report, bit for bit; an accumulator with no pixels has none."""
    if not acc.counts.any():
        with pytest.raises(ValidationError, match="no pixels scored"):
            report()
        return
    report, expected = report(), acc.report()
    for name in ("counts", "mean_confidence", "accuracy"):
        assert getattr(report, name).tobytes() == getattr(expected, name).tobytes()
    assert report.ece == expected.ece


def assert_add_matches(p, gt, n_bins, *, pred=None, foreground_only=False):
    """Per-block adds against ``former_add`` on each pixel block, bit for bit.

    Each block is added with its slice of ``pred``, or else with its own
    argmax, as ``ece`` adds it. The oracle replays the block sums in the
    order the accumulator adds them: per bin, block by block. The
    whole-array ``former_add`` gives the same counts, and sums that may
    differ in the last bits.
    """
    acc = CalibrationAccumulator(n_bins)
    counts = np.zeros(n_bins, dtype=np.int64)
    correct_counts = np.zeros(n_bins, dtype=np.int64)
    sums = np.zeros(n_bins)
    flat, truth = p.reshape(p.shape[0], -1), gt.reshape(-1)
    for repeat in range(2):  # the second pass accumulates onto the first
        for sl in pixel_blocks(truth.size):
            block_pred = None if pred is None else pred.reshape(-1)[sl]
            acc.add(flat[:, sl], truth[sl],
                    argmax_labels(flat[:, sl]) if pred is None else block_pred,
                    foreground_only=foreground_only)
            block_counts, block_sums, block_correct = former_add(
                flat[:, sl], truth[sl], n_bins, block_pred, foreground_only
            )
            counts += block_counts
            correct_counts += block_correct
            for b in np.flatnonzero(block_counts):
                sums[b] += block_sums[b]
        if repeat == 0 and pred is None:  # ece is one pass of these adds
            assert_same_report(lambda: ece(p, gt, n_bins, foreground_only=foreground_only), acc)
    np.testing.assert_array_equal(acc.counts, counts)
    np.testing.assert_array_equal(acc.correct_counts, correct_counts)
    assert acc.confidence_sums.tobytes() == sums.tobytes()
    whole_counts, whole_sums, whole_correct = former_add(p, gt, n_bins, pred, foreground_only)
    np.testing.assert_array_equal(acc.counts, 2 * whole_counts)
    np.testing.assert_array_equal(acc.correct_counts, 2 * whole_correct)
    np.testing.assert_allclose(acc.confidence_sums, 2 * whole_sums, rtol=1e-12)


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
        pred = argmax_labels(p)
        for k in range(c):
            assert dice(pred, gt, k) == former_dice(pred, gt, k)
        assert_add_matches(p, gt, n_bins, foreground_only=foreground_only)
        bad = p.copy()
        bad[(0,) + tuple(n - 1 for n in p.shape[1:])] = np.nan
        with pytest.raises(ValidationError, match="NaN or Inf"):
            validate_probabilities(bad)


@settings(max_examples=100, deadline=None)
@given(case=_small_block_cases(), with_pred=st.booleans())
def test_adding_a_pair_equals_adding_its_blocks_in_order(case, with_pred):
    """``ece`` of a pair is the report of its blocks added in order, each with its
    argmax: taken per block, or sliced from the whole pair's."""
    p, gt, block, n_bins, foreground_only = case
    pred = argmax_labels(p).reshape(-1)
    flat, truth = p.reshape(p.shape[0], -1), gt.reshape(-1)
    blockwise = CalibrationAccumulator(n_bins)
    with patch.object(uqseg.arrays, "BLOCK_PIXELS", block):
        for sl in pixel_blocks(truth.size):
            block_pred = pred[sl] if with_pred else argmax_labels(flat[:, sl])
            blockwise.add(flat[:, sl], truth[sl], block_pred, foreground_only=foreground_only)
        assert_same_report(lambda: ece(p, gt, n_bins, foreground_only=foreground_only),
                           blockwise)


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


def edge_confidences(n_bins, dtype):
    """Each bin edge k/n in ``dtype``, one ``dtype`` ulp either side of it, 1.0 and tiny
    values, all in [0, 1]."""
    edges = np.array([k / n_bins for k in range(n_bins + 1)]).astype(dtype)
    finfo = np.finfo(dtype)
    tiny = np.array([0.0, finfo.smallest_subnormal, finfo.tiny, finfo.eps, 1.0], dtype=dtype)
    x = np.concatenate([edges, np.nextafter(edges, dtype(-1)), np.nextafter(edges, dtype(2)), tiny])
    return np.clip(x, 0, 1)


@pytest.mark.parametrize("n_bins", [1, 2, 3, 7, 10, 13, 255, 256, 257, 10_000])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("foreground", ["none", "some"])
@pytest.mark.parametrize("foreground_only", [False, True])
def test_confidences_on_and_next_to_the_edges_bin_as_searchsorted_did(
        n_bins, dtype, foreground, foreground_only):
    """The bins of any confidence in [0, 1], against ``former_add`` byte for byte: the rows'
    class maximum is the confidence (its other row is 0), the labels and argmax are drawn."""
    rng = np.random.default_rng(n_bins)
    x = rng.permutation(edge_confidences(n_bins, dtype))
    rows = np.stack([x, np.zeros_like(x)])
    truth = rng.integers(0, 2, size=x.size).astype(np.uint8) * (foreground == "some")
    pred = rng.integers(0, 2, size=x.size).astype(np.uint8)
    acc = CalibrationAccumulator(n_bins)
    acc.add(rows, truth, pred, foreground_only=foreground_only)
    counts, sums, correct_counts = former_add(rows, truth, n_bins, pred, foreground_only)
    assert acc.counts.tobytes() == counts.tobytes()
    assert acc.correct_counts.tobytes() == correct_counts.tobytes()
    assert acc.confidence_sums.tobytes() == sums.tobytes()
    assert acc.counts.sum() == (np.count_nonzero(truth) if foreground_only else x.size)


def _deviated_block(c, sign):
    """A float32 (c, 64, 64) posterior whose first pixel sums to about 1 + sign * 1e-5."""
    p = posterior(np.random.default_rng(c), c, (64, 64), np.float32)
    p[:, 0, 0] *= np.float32(1.0 + sign * 1e-5)
    return p


def _former_worst(p):
    sums = p.sum(axis=0, dtype=np.float64)
    sums -= 1.0
    return float(np.abs(sums, out=sums).max())


@pytest.mark.parametrize("c", [2, 4, 7, 83, 84, 255])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("ulps", [-3, -1, 0, 1, 3, "slack-1", "slack", "slack+1"])
def test_float32_sums_accept_only_what_the_float64_sums_accept(c, sign, ulps):
    """Tolerances a few steps of 2**-24 (a float32 ulp just below 1, half of one above)
    from the float64 worst deviation, and from it plus the float32 slack c 2**-23: the
    verdict and the message are the former ones."""
    p = _deviated_block(c, sign)
    worst = _former_worst(p)
    if isinstance(ulps, str):
        ulps = 2 * c + {"slack-1": -1, "slack": 0, "slack+1": 1}[ulps]
    tolerance = worst + ulps * 2.0**-24
    expected = former_validation_error(p, tolerance)
    assert (expected is None) == (ulps >= 0)
    with patch.object(uqseg.arrays, "SIMPLEX_TOLERANCE", tolerance):
        if expected is None:
            assert validate_probabilities(p) is p
        else:
            with pytest.raises(ValidationError) as err:
                validate_probabilities(p)
            assert str(err.value) == expected


@pytest.mark.parametrize("c, float32_decides", [(2, True), (4, True), (7, True),
                                                 (84, False), (255, False)])
def test_a_valid_float32_block_builds_no_float64_plane(c, float32_decides):
    """A valid float32 block is accepted on its float32 class sums, one float32 plane,
    while the tolerance leaves room for their rounding, c 2**-23; from c = 84 that
    exceeds 1e-5 and the float64 sums run, as they do for a float64 block."""
    p = posterior(np.random.default_rng(c), c, (256, 256), np.float32)
    assert p[0].size == BLOCK_PIXELS
    float64_plane = 8 * BLOCK_PIXELS
    assert (_peak(validate_probabilities, p) < float64_plane) == float32_decides
    assert _peak(validate_probabilities, p.astype(np.float64)) >= float64_plane


def _peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scratch_is_block_sized(tmp_path):
    """Ten blocks of pixels: each command holds its whole outputs and a few blocks."""
    c, spatial = 4, (10, 128, 512)
    n = int(np.prod(spatial))
    assert n == 10 * BLOCK_PIXELS
    rng = np.random.default_rng(22)
    p = posterior(rng, c, spatial, np.float32)
    gt = rng.integers(0, c, size=spatial).astype(np.uint8)
    write_array(tmp_path / "p.uqsg", p)
    write_array(tmp_path / "gt.uqsg", gt)
    block = 8 * BLOCK_PIXELS  # one float64 block; a block of c = 4 float32 rows is two
    slack = 128 * 1024  # numpy's cast buffers and interpreter objects

    def command_peak(*argv):
        tracemalloc.start()
        try:
            assert main(list(argv)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    posterior_file = str(tmp_path / "p.uqsg")
    # the rows of the block read and of the one before it, and its (float32)
    # class sums or its entropy and term; with ``--pgm``, the uint8 gray image
    # too; the whole float32 posterior alone (16 * n = 20 blocks) would exceed it
    entropy = ["entropy", "--in", posterior_file, "--out", str(tmp_path / "h.uqsg")]
    assert command_peak(*entropy) < 6 * block + slack
    assert command_peak(*entropy, "--pgm", str(tmp_path / "maps")) < n + 6 * block + slack
    # scored in blocks of 4,096 pixels, where one bool class mask of the case
    # (n bytes) is 20 float64 blocks, so that it would exceed either bound: the
    # float32 rows of a window (a block's image rows and one either side), its
    # classes' rings and their dilation scratch; in the contour region also the
    # union's rows and their entropy and term
    score = ["score", "--in", posterior_file, "--classes", "1,2,3", "--out", str(tmp_path / "s.csv")]
    small = 8 * RUN_BLOCK  # one float64 block of 4,096 pixels
    with patch.object(uqseg.arrays, "BLOCK_PIXELS", RUN_BLOCK):
        assert command_peak(*score) < 10 * small + slack
        assert command_peak(*score, "--contour-entropy") < 14 * small + slack
    # the uint8 labels; the rows of two blocks and the accumulator's scratch
    calibration = ["ece", "--pred", posterior_file, "--gt", str(tmp_path / "gt.uqsg"),
                   "--out", str(tmp_path / "e.csv")]
    assert command_peak(*calibration) < n + 6 * block + slack
    # the uint8 argmax and a few float64 blocks: the confidences, their bins'
    # upper edges, the stable-sort permutation and the sorted confidences;
    # a whole float64 plane (8 * n = 10 blocks) would exceed it
    assert _peak(ece, p, gt) < n + 5 * block + slack


def test_entropy_holds_the_rows_of_one_block(tmp_path):
    """Ten blocks of pixels: the rows of a block are dropped before the next is read."""
    c, spatial = 4, (10, 128, 512)
    n = int(np.prod(spatial))
    write_array(tmp_path / "p.uqsg", posterior(np.random.default_rng(23), c, spatial, np.float32))
    block = 8 * BLOCK_PIXELS  # one float64 block; a block of c = 4 float32 rows is two
    slack = 128 * 1024  # numpy's cast buffers and interpreter objects
    tracemalloc.start()
    try:
        assert main(["entropy", "--in", str(tmp_path / "p.uqsg"),
                     "--out", str(tmp_path / "h.uqsg")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float32 rows of one block, its float64 entropy and one term, and its
    # float32 map rows; the rows of the block before would add two blocks, and
    # the uint8 gray image, which only ``--pgm`` keeps, n = 1.25 blocks
    assert peak < 4.5 * block + slack


def _write_run_inputs(root, c, spatial, rng):
    """One case of two members and its labels; the path of a ``run`` config over them
    that scores classes 1 to 3. The trace's two 2-epoch cycles peak at ep1 and ep3."""
    (root / "trace.csv").write_text("epoch,lr,val_metric,checkpoint_id\n" + "".join(
        f"{e},0.1,{0.5 + 0.1 * (e % 2)},ep{e}\n" for e in range(4)))
    (root / "predictions" / "case0000").mkdir(parents=True)
    for cid in ("ep1", "ep3"):
        write_array(root / "predictions" / "case0000" / f"{cid}.uqsg",
                    posterior(rng, c, spatial, np.float32))
    (root / "cases").mkdir()
    write_array(root / "cases" / "case0000_labels.uqsg",
                rng.integers(0, c, size=spatial).astype(np.uint8))
    config = root / "run.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in (
        ("trace", root / "trace.csv"), ("predictions_dir", root / "predictions"),
        ("cases_dir", root / "cases"), ("outdir", root / "out"), ("t0", 2), ("eta", 1),
        ("total_epochs", 4), ("per_cycle", 1), ("classes", "1,2,3"),
        ("entropy_region", "contour"))))
    return config


def _command_peak(*argv):
    tracemalloc.start()
    try:
        assert main(list(argv)) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# 64 blocks of 4,096 pixels: each byte per pixel of a whole array is 8 float64 blocks
RUN_SPATIAL, RUN_BLOCK = (8, 128, 256), 4096


def test_run_peak_minus_labels_does_not_grow_with_the_case(tmp_path):
    """A 3D case of c = 4 and two members, three classes scored: ``run`` holds its uint8
    labels whole and everything else block-sized (the fuse's class sums, a window
    of the scoring pass and a few more blocks), so its peak less the labels is alike on 8
    and on 32 slices. One whole bool class mask would add 8 blocks at 8 slices and 32 at 32."""
    block = 8 * RUN_BLOCK  # one float64 block
    beyond_labels = []
    for depth in (8, 32):
        spatial = (depth, *RUN_SPATIAL[1:])
        root = tmp_path / f"d{depth}"
        root.mkdir()
        config = _write_run_inputs(root, 4, spatial, np.random.default_rng(24))
        with patch.object(uqseg.arrays, "BLOCK_PIXELS", RUN_BLOCK):
            beyond_labels.append(_command_peak("run", "--config", str(config)) - np.prod(spatial))
        assert len((root / "out" / "manifest.csv").read_text().splitlines()) == 3  # two members
    assert abs(beyond_labels[1] - beyond_labels[0]) < 2 * block, [b / block for b in beyond_labels]


def _peaks_at_depths(tmp_path, *argv):
    """The peaks of the command ``argv`` on a (4, D, 128, 256) posterior given as ``--in``,
    at D = 8 and D = 32, with blocks of 4,096 pixels."""
    peaks = []
    for depth in (8, 32):
        path = tmp_path / f"p{depth}.uqsg"
        write_array(path, posterior(np.random.default_rng(26), 4, (depth, *RUN_SPATIAL[1:]),
                                    np.float32))
        with patch.object(uqseg.arrays, "BLOCK_PIXELS", RUN_BLOCK):
            peaks.append(_command_peak(argv[0], "--in", str(path), *argv[1:]))
    return peaks


@pytest.mark.parametrize("contour", [False, True])
def test_score_peak_does_not_grow_with_the_case(tmp_path, contour):
    """``score`` of three classes peaks alike on 8 and on 32 slices: its scoring pass holds
    the rows of a window (a block's image rows and one row either side) and the rings of its
    classes, not a mask of the case (one bool mask of 32 slices is 32 float64 blocks)."""
    block = 8 * RUN_BLOCK  # one float64 block; a block of c = 4 float32 rows is two
    slack = 128 * 1024  # numpy's cast buffers and interpreter objects
    peaks = _peaks_at_depths(tmp_path, "score", "--classes", "1,2,3",
                             "--out", str(tmp_path / "s.csv"), *["--contour-entropy"] * contour)
    assert abs(peaks[1] - peaks[0]) < 2 * block, peaks
    assert max(peaks) < 10 * block + slack, peaks


def test_entropy_peak_does_not_grow_with_the_case(tmp_path):
    """Plain ``entropy`` (no ``--pgm``) peaks alike on 8 and on 32 slices: it holds the rows
    of a block and their entropy, not a uint8 gray image of the case (32 blocks at 32 slices)."""
    block = 8 * RUN_BLOCK  # one float64 block; a block of c = 4 float32 rows is two
    slack = 128 * 1024  # numpy's cast buffers and interpreter objects
    peaks = _peaks_at_depths(tmp_path, "entropy", "--out", str(tmp_path / "h.uqsg"))
    assert abs(peaks[1] - peaks[0]) < 2 * block, peaks
    assert max(peaks) < 10 * block + slack, peaks


def test_dice_holds_its_two_label_files_and_block_masks(tmp_path):
    """``dice`` of four label codes on (32, 128, 256) labels counts each class by block: it
    holds its two uint8 label files whole (2 n bytes, n = 32 float64 blocks) and block-sized
    masks. Three whole bool masks of one class (both labels' and their overlap) would add
    3 n bytes, 96 blocks. Its rows are the Dice of whole masks."""
    spatial = (32, *RUN_SPATIAL[1:])
    n = int(np.prod(spatial))
    rng = np.random.default_rng(28)
    for name in ("pred", "gt"):
        write_array(tmp_path / f"{name}.uqsg", rng.integers(0, 4, size=spatial).astype(np.uint8))
    argv = ["dice", "--pred", str(tmp_path / "pred.uqsg"), "--gt", str(tmp_path / "gt.uqsg"),
            "--classes", "0,1,2,3", "--out", str(tmp_path / "d.csv")]
    block = 8 * RUN_BLOCK  # one float64 block
    slack = 128 * 1024  # numpy's cast buffers and interpreter objects
    with patch.object(uqseg.arrays, "BLOCK_PIXELS", RUN_BLOCK):
        peak = _command_peak(*argv)
    assert peak < 2 * n + 2 * block + slack, (peak - 2 * n) / block
    pred, gt = (read_array(tmp_path / f"{name}.uqsg") for name in ("pred", "gt"))
    assert (tmp_path / "d.csv").read_text().splitlines()[1:] == [
        csv_line(*vars(former_dice(pred, gt, k)).values()) for k in range(4)]


def test_run_scoring_pass_holds_a_window_of_rows(tmp_path, monkeypatch):
    """After its pass, a ``run`` case of 32 slices allocates no array of its size: scoring
    three classes in the contour region holds the float32 rows of one window, the rings of
    its classes, their dilation scratch and the entropy of their union, a few blocks; one bool
    mask of the case is 32 blocks, and the labels, held since the pass, are not counted."""
    spatial = (32, *RUN_SPATIAL[1:])
    config = _write_run_inputs(tmp_path, 4, spatial, np.random.default_rng(27))
    block = 8 * RUN_BLOCK  # one float64 block
    peaks = []

    def spy(*args):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        scores = uqseg.uncertainty.class_scores(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - held)
        return scores

    monkeypatch.setattr(uqseg.pipeline, "class_scores", spy)
    with patch.object(uqseg.arrays, "BLOCK_PIXELS", RUN_BLOCK):
        _command_peak("run", "--config", str(config))
    assert len(peaks) == 1
    assert peaks[0] < 12 * block, peaks[0] / block
