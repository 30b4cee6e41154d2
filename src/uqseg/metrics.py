"""Segmentation overlap and calibration metrics.

Dice uses the both-empty = 1.0 convention. ECE bins per-pixel confidence
(the maximum class probability) into equal-width bins over (0, 1], with
values exactly on an interior edge going to the lower bin; the reported
number is a percentage. An accumulator bins one pixel block per call and
pools the counters; a bin's confidence sums are added in call order, and
``ece``, ``run`` and ``uqseg ece`` add a posterior's blocks in order.
"""

from dataclasses import dataclass

import numpy as np

from .arrays import pixel_blocks
from .ensemble import argmax_labels
from .errors import ValidationError

# ECE bin count of ``ece``, the accumulator, ``uqseg ece`` and ``uqseg run``
DEFAULT_ECE_BINS = 10
# upper bound of the bin count: ece.csv and the per-bin sums grow with it
MAX_ECE_BINS = 10_000


@dataclass(frozen=True)
class DiceResult:
    class_id: int
    intersection: int
    pred_size: int
    gt_size: int
    dice: float


def dice(pred, gt, class_id: int) -> DiceResult:
    """Overlap 2|A&B| / (|A|+|B|) for one class; 1.0 when both masks are empty. Its counts
    are summed over pixel blocks, as ``run`` sums them, so no mask of the arrays is whole."""
    p, g = np.asarray(pred), np.asarray(gt)
    if p.shape != g.shape:
        raise ValidationError(f"pred shape {p.shape} != gt shape {g.shape}")
    p, g = p.reshape(-1), g.reshape(-1)
    blocks = [dice_counts(p[pixels], g[pixels], class_id) for pixels in pixel_blocks(p.size)]
    return dice_of_counts(class_id, *map(sum, zip(*blocks)))


def dice_counts(pred, gt, class_id):
    """|A&B|, |A| and |B| of one class in two label arrays (or blocks) of one shape."""
    pm, gm = pred == class_id, gt == class_id
    return int(np.count_nonzero(pm & gm)), int(np.count_nonzero(pm)), int(np.count_nonzero(gm))


def dice_of_counts(class_id, inter, psz, gsz) -> DiceResult:
    """The Dice of one class from its int ``dice_counts``; 1.0 when both masks are empty."""
    return DiceResult(class_id, inter, psz, gsz, 2.0 * inter / (psz + gsz) if psz + gsz else 1.0)


@dataclass(frozen=True)
class CalibrationReport:
    """Per-bin statistics and the ECE; empty bins carry NaN confidence/accuracy."""

    counts: np.ndarray
    mean_confidence: np.ndarray
    accuracy: np.ndarray
    ece: float  # percent


class CalibrationAccumulator:
    """Pooled confidence/correctness histogram: bin b of n holds the x in (b/n, (b + 1)/n]."""

    def __init__(self, n_bins: int = DEFAULT_ECE_BINS):
        if not 1 <= n_bins <= MAX_ECE_BINS:
            raise ValidationError(f"n_bins must be in [1, {MAX_ECE_BINS}], got {n_bins}")
        self.n_bins = n_bins
        self.counts = np.zeros(n_bins, dtype=np.int64)
        self.confidence_sums = np.zeros(n_bins, dtype=np.float64)
        self.correct_counts = np.zeros(n_bins, dtype=np.int64)

    def add(self, rows, truth, pred, *, foreground_only: bool = False):
        """Bin one pixel block: its ``(c, m)`` trusted rows, their ``(m,)`` labels and
        their argmax. Each bin adds the pairwise float64 sum of the block's confidences
        in it, in pixel order, whatever the rows' dtype."""
        keep = truth > 0 if foreground_only else slice(None)
        confidence = rows.max(axis=0)[keep].astype(np.float64)
        correct = (pred == truth)[keep]
        # x (n - 1/2), truncated, is x's bin b or b - 1 (it lies in (b - 1/2, b + 1) up to one
        # rounding each of it and of k/n), so x > (g + 1)/n in float64 settles the guess g, and
        # x == k/n goes to the lower bin. One scratch holds the guess, the edges and the sorted
        # confidences (fresh temporaries raise run's RSS); a narrow idx lets argsort radix-sort
        scratch = np.multiply(confidence, self.n_bins - 0.5)
        idx = scratch.astype(np.min_scalar_type(2 * self.n_bins - 1))
        idx += confidence > np.divide(np.add(idx, 1.0, out=scratch, dtype=float), self.n_bins,
                                      out=scratch)
        ordered = np.take(confidence, np.argsort(idx, kind="stable"), out=scratch, mode="clip")
        # one bincount of 2 b + correct counts both, where a masked copy and a second one cost 2x
        both = np.bincount(2 * idx + correct, minlength=2 * self.n_bins).reshape(-1, 2)
        counts = both.sum(axis=1)
        self.counts += counts
        self.correct_counts += both[:, 1]
        stops = np.cumsum(counts)
        for b in np.flatnonzero(counts):
            self.confidence_sums[b] += float(np.sum(ordered[stops[b] - counts[b] : stops[b]]))

    def report(self) -> CalibrationReport:
        total = int(self.counts.sum())
        if total == 0:
            raise ValidationError("no pixels scored")
        with np.errstate(invalid="ignore"):
            mean_conf = np.where(self.counts > 0, self.confidence_sums / self.counts, np.nan)
            accuracy = np.where(self.counts > 0, self.correct_counts / self.counts, np.nan)
        # count_b * |acc_b - conf_b| == |correct_b - conf_sum_b|; summing the
        # raw gaps avoids the intermediate divisions
        gaps = np.abs(self.correct_counts - self.confidence_sums)
        ece = float(gaps[self.counts > 0].sum() * 100.0 / total)
        return CalibrationReport(self.counts.copy(), mean_conf, accuracy, ece)


def ece(p, gt, n_bins: int = DEFAULT_ECE_BINS, *,
        foreground_only: bool = False) -> CalibrationReport:
    """Expected calibration error (percent) of one posterior/label pair, binned by
    ``CalibrationAccumulator.add`` one pixel block at a time, in order."""
    acc = CalibrationAccumulator(n_bins)
    arr, labels = np.asarray(p), np.asarray(gt)
    if labels.shape != arr.shape[1:]:
        raise ValidationError(f"label shape {labels.shape} does not match posterior {arr.shape}")
    flat, truth = arr.reshape(arr.shape[0], -1), labels.reshape(-1)
    for sl in pixel_blocks(truth.size):
        block = flat[:, sl]
        acc.add(block, truth[sl], argmax_labels(block), foreground_only=foreground_only)
    return acc.report()


@dataclass(frozen=True)
class UncertaintyDiceTable:
    """The Spearman rank correlation of per-case (score, dice) pairs."""

    spearman: float | None
    note: str | None = None


def uncertainty_dice_table(cases) -> UncertaintyDiceTable:
    """Pair uncertainty scores with Dice results and rank-correlate them.

    ``cases`` holds (UncertaintyScore, DiceResult) pairs, or plain
    (score, dice) floats. The correlation is the Pearson correlation of
    average ranks. With fewer than 3 cases, constant ranks or a NaN value it
    is omitted with a note.
    """
    rows = [(float(getattr(s, "score", s)), float(getattr(d, "dice", d))) for s, d in cases]
    if len(rows) < 3:
        return UncertaintyDiceTable(None, "fewer than 3 cases; correlation omitted")
    table = np.array(rows)  # a column of scores and one of Dice values
    if np.isnan(table).any() or (table == table[0]).all(axis=0).any():
        return UncertaintyDiceTable(None, "constant ranks; correlation undefined")
    rho = float(np.corrcoef(*map(_average_ranks, table.T))[1, 0])
    return UncertaintyDiceTable(rho, None)


def _average_ranks(values) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks
