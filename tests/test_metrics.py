import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqseg.errors import ValidationError
from uqseg.metrics import (
    CalibrationAccumulator,
    dice,
    ece,
    uncertainty_dice_table,
)
from uqseg.uncertainty import UncertaintyScore


def ece_oracle(p, gt, n_bins):
    """Textbook per-pixel loop with right-inclusive equal-width bins."""
    edges = [k / n_bins for k in range(1, n_bins)]
    conf = p.max(axis=0).ravel()
    correct = (p.argmax(axis=0) == gt).ravel()
    bins = [[0, 0.0, 0] for _ in range(n_bins)]  # count, conf sum, correct
    for c, ok in zip(conf, correct):
        b = 0
        while b < n_bins - 1 and c > edges[b]:
            b += 1
        bins[b][0] += 1
        bins[b][1] += c
        bins[b][2] += int(ok)
    total = len(conf)
    value = 0.0
    for count, conf_sum, n_correct in bins:
        if count:
            value += (count / total) * abs(n_correct / count - conf_sum / count)
    return value * 100.0


def binary_posterior(conf, correct, gt_class=0):
    """2-class posterior where every pixel has max-probability ``conf``."""
    n = len(conf)
    p = np.zeros((2, 1, n))
    gt = np.zeros((1, n), dtype=np.uint8)
    for i, (c, ok) in enumerate(zip(conf, correct)):
        p[0, 0, i] = c
        p[1, 0, i] = 1.0 - c
        gt[0, i] = 0 if ok else 1
    return p, gt


class TestDice:
    def test_identical_masks(self):
        lab = np.array([[0, 1], [1, 2]], dtype=np.uint8)
        assert dice(lab, lab, 1).dice == 1.0

    def test_disjoint_masks(self):
        a = np.array([[1, 1], [0, 0]], dtype=np.uint8)
        b = np.array([[0, 0], [1, 1]], dtype=np.uint8)
        assert dice(a, b, 1).dice == 0.0

    def test_half_overlap_counting_oracle(self):
        # 4-pixel fixture: two-pixel masks overlapping in one pixel
        pred = np.array([[1, 1], [0, 0]], dtype=np.uint8)
        gt = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        r = dice(pred, gt, 1)
        assert (r.intersection, r.pred_size, r.gt_size) == (1, 2, 2)
        assert r.dice == 2 * 1 / (2 + 2)

    def test_both_empty_convention(self):
        z = np.zeros((3, 3), dtype=np.uint8)
        assert dice(z, z, 2).dice == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 3, size=(10, 10)).astype(np.uint8)
        b = rng.integers(0, 3, size=(10, 10)).astype(np.uint8)
        for k in (1, 2):
            assert dice(a, b, k).dice == dice(b, a, k).dice

    def test_invariant_under_pixel_permutation(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 4, size=64).astype(np.uint8)
        b = rng.integers(0, 4, size=64).astype(np.uint8)
        perm = rng.permutation(64)
        for k in (1, 2, 3):
            assert dice(a, b, k).dice == dice(a[perm], b[perm], k).dice

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            dice(np.zeros((2, 2), dtype=np.uint8), np.zeros((3, 3), dtype=np.uint8), 1)


class TestEce:
    def test_confident_and_correct_is_zero(self):
        p, gt = binary_posterior([1.0] * 8, [True] * 8)
        assert ece(p, gt).ece == 0.0

    def test_single_bin_gap_is_twenty_percent(self):
        p, gt = binary_posterior([0.9] * 10, [True] * 7 + [False] * 3)
        assert ece(p, gt, n_bins=1).ece == 20.0

    def test_matches_loop_oracle_on_random_fixtures(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            n = int(rng.integers(4, 40))
            conf = 0.5 + rng.random(n) * 0.5
            correct = rng.random(n) < conf
            p, gt = binary_posterior(conf, correct)
            n_bins = int(rng.integers(1, 15))
            assert ece(p, gt, n_bins).ece == pytest.approx(
                ece_oracle(p, gt, n_bins), abs=1e-9
            )

    def test_calibrated_fixture_is_zero(self):
        # dyadic confidences with exactly matching per-bin accuracy
        conf, correct = [], []
        for c, total, right in ((0.625, 8, 5), (0.75, 8, 6), (0.875, 8, 7), (1.0, 8, 8)):
            conf += [c] * total
            correct += [True] * right + [False] * (total - right)
        p, gt = binary_posterior(conf, correct)
        assert ece(p, gt, n_bins=10).ece < 1e-12

    def test_confidence_on_interior_edge_goes_to_lower_bin(self):
        p, gt = binary_posterior([0.7], [True])
        report = ece(p, gt, n_bins=10)
        assert report.counts[6] == 1  # bin (0.6, 0.7]
        assert report.counts[7] == 0

    def test_invariant_under_pixel_shuffle(self):
        rng = np.random.default_rng(5)
        conf = 0.5 + rng.random(50) * 0.5
        correct = rng.random(50) < 0.8
        p, gt = binary_posterior(conf, correct)
        perm = rng.permutation(50)
        p2, gt2 = p[:, :, perm], gt[:, perm]
        assert ece(p, gt).ece == pytest.approx(ece(p2, gt2).ece, abs=1e-12)

    def test_bin_counts_partition_pixels(self):
        rng = np.random.default_rng(6)
        conf = 0.5 + rng.random(64) * 0.5
        p, gt = binary_posterior(conf, [True] * 64)
        report = ece(p, gt, n_bins=7)
        assert int(report.counts.sum()) == 64

    def test_refining_bins_does_not_decrease_ece_on_varying_fixture(self):
        rng = np.random.default_rng(44)
        conf = 0.5 + rng.random(400) * 0.5
        correct = rng.random(400) < 0.7
        p, gt = binary_posterior(conf, correct)
        coarse = ece(p, gt, n_bins=5).ece
        fine = ece(p, gt, n_bins=10).ece
        assert fine >= coarse - 1e-12
        assert fine == pytest.approx(ece_oracle(p, gt, 10), abs=1e-9)
        assert coarse == pytest.approx(ece_oracle(p, gt, 5), abs=1e-9)

    def test_foreground_only_mask(self):
        p = np.zeros((2, 1, 4))
        p[0] = [[0.9, 0.9, 0.6, 0.6]]
        p[1] = 1.0 - p[0]
        gt = np.array([[0, 0, 1, 1]], dtype=np.uint8)
        full = ece(p, gt, n_bins=1)
        fg = ece(p, gt, n_bins=1, foreground_only=True)
        assert int(fg.counts.sum()) == 2
        assert fg.ece != full.ece

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            ece(np.full((2, 2, 2), 0.5), np.zeros((3, 3), dtype=np.uint8))

    def test_empty_accumulator_report_rejected(self):
        with pytest.raises(ValidationError):
            CalibrationAccumulator(5).report()


def per_bin_loop(p, gt, n_bins, foreground_only):
    """The accumulator's former kernel: one boolean selection per bin.

    Returns (counts, confidence_sums, correct_counts) of one pair.
    """
    edges = np.array([k / n_bins for k in range(1, n_bins)])
    confidence = p.max(axis=0).ravel()
    correct = (p.argmax(axis=0) == gt).ravel()
    if foreground_only:
        keep = (gt > 0).ravel()
        confidence, correct = confidence[keep], correct[keep]
    idx = np.digitize(confidence, edges, right=True)
    sums = np.zeros(n_bins)
    correct_counts = np.zeros(n_bins, dtype=np.int64)
    for b in range(n_bins):
        sel = idx == b
        if np.any(sel):
            sums[b] += float(np.sum(confidence[sel]))
            correct_counts[b] += int(np.count_nonzero(correct[sel]))
    return np.bincount(idx, minlength=n_bins), sums, correct_counts


@st.composite
def _binned_pairs(draw):
    """A 2-class score array and labels whose maxima often sit on bin edges.

    The add kernel does not look at simplex sums, so the two planes are
    drawn independently: maxima hit interior edges k/n, 0 and 1 exactly.
    """
    n_bins = draw(st.integers(1, 300))
    n = draw(st.integers(0, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.random((2, 1, n))
    kind = rng.integers(0, 8, size=values.shape)
    values[kind == 0] = 0.0
    values[kind == 1] = 1.0
    on_edge = kind >= 6
    values[on_edge] = rng.integers(1, max(n_bins, 2), size=int(on_edge.sum())) / n_bins
    gt = rng.integers(0, 2, size=(1, n)).astype(np.uint8)
    return values, gt, n_bins, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(case=_binned_pairs())
def test_slice_sums_equal_per_bin_loop_bit_for_bit(case):
    p, gt, n_bins, foreground_only = case
    acc = CalibrationAccumulator(n_bins)
    for _ in range(2):  # a second add accumulates onto the first
        acc.add(p, gt, foreground_only=foreground_only)
    counts, sums, correct_counts = per_bin_loop(p, gt, n_bins, foreground_only)
    twice = np.zeros(n_bins)
    twice += sums
    twice += sums
    np.testing.assert_array_equal(acc.counts, 2 * counts)
    np.testing.assert_array_equal(acc.correct_counts, 2 * correct_counts)
    assert acc.confidence_sums.tobytes() == twice.tobytes()


def _pairs(scores, dices):
    from uqseg.metrics import DiceResult

    return [
        (UncertaintyScore(1, s, 10, s, False), DiceResult(1, 0, 0, 0, d))
        for s, d in zip(scores, dices)
    ]


def spearman_oracle(xs, ys):
    """Pearson correlation of average ranks."""

    def ranks(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        r = [0.0] * len(v)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and v[order[j + 1]] == v[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                r[order[k]] = avg
            i = j + 1
        return r

    rx, ry = np.array(ranks(xs)), np.array(ranks(ys))
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx**2).sum() * (ry**2).sum()))


class TestUncertaintyDiceTable:
    def test_anti_monotone_pairs(self):
        table = uncertainty_dice_table(_pairs([1.0, 2.0, 3.0], [0.9, 0.8, 0.7]))
        assert table.spearman == pytest.approx(-1.0)

    def test_constant_scores_flagged(self):
        table = uncertainty_dice_table(_pairs([1.0, 1.0, 1.0], [0.9, 0.8, 0.7]))
        assert table.spearman is None
        assert "constant" in table.note

    def test_too_few_cases(self):
        table = uncertainty_dice_table(_pairs([1.0, 2.0], [0.9, 0.8]))
        assert table.spearman is None
        assert "fewer than 3" in table.note
        assert len(table.rows) == 2

    def test_matches_rank_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(3, 20))
            scores = list(np.round(rng.random(n), 3))
            dices = list(np.round(rng.random(n), 3))
            if len(set(scores)) == 1 or len(set(dices)) == 1:
                continue
            table = uncertainty_dice_table(_pairs(scores, dices))
            assert table.spearman == pytest.approx(
                spearman_oracle(scores, dices), abs=1e-12
            )

    def test_ties(self):
        scores = [0.3, 0.1, 0.3, 0.7, 0.1, 0.3, 0.9, 0.5]
        dices = [0.8, 0.9, 0.6, 0.6, 0.95, 0.7, 0.2, 0.6]
        table = uncertainty_dice_table(_pairs(scores, dices))
        assert table.spearman == pytest.approx(
            spearman_oracle(scores, dices), abs=1e-12
        )
        # bit for bit the value scipy.stats.spearmanr gives on these vectors
        assert table.spearman == -0.9182571549035955

    @pytest.mark.parametrize("nan_in", ["scores", "dices"])
    def test_nan_omits_correlation(self, nan_in):
        scores = [1.0, 2.0, 3.0, 4.0]
        dices = [0.9, 0.7, 0.8, 0.6]
        (scores if nan_in == "scores" else dices)[1] = float("nan")
        table = uncertainty_dice_table(_pairs(scores, dices))
        assert table.spearman is None
        assert table.note == "constant ranks; correlation undefined"

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(5)
        scores = np.round(rng.random(30), 1)
        dices = np.round(rng.random(30), 2)
        rho = uncertainty_dice_table(_pairs(scores, dices)).spearman
        moved = uncertainty_dice_table(
            _pairs(np.exp(3.0 * scores) - 7.0, dices**3)
        ).spearman
        assert moved == rho
