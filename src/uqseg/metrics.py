"""Segmentation overlap and calibration metrics.

Dice uses the both-empty = 1.0 convention. ECE bins per-pixel confidence
(the maximum class probability) into equal-width bins over (0, 1], with
values exactly on an interior edge going to the lower bin; the reported
number is a percentage. An accumulator pools the bin counters of every
case added to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import pixel_blocks
from .ensemble import argmax_labels
from .errors import ValidationError

# ECE bin count of ``ece``, the accumulator, ``uqseg ece`` and ``uqseg run``
DEFAULT_ECE_BINS = 10
# upper bound of the bin count: the edges and ece.csv grow with it
MAX_ECE_BINS = 10_000


@dataclass(frozen=True)
class DiceResult:
    class_id: int
    intersection: int
    pred_size: int
    gt_size: int
    dice: float


def dice(pred, gt, class_id: int) -> DiceResult:
    """Overlap 2|A&B| / (|A|+|B|) for one class; 1.0 when both masks are empty."""
    p = np.asarray(pred)
    g = np.asarray(gt)
    if p.shape != g.shape:
        raise ValidationError(f"pred shape {p.shape} != gt shape {g.shape}")
    pm = p == class_id
    gm = g == class_id
    inter = int(np.count_nonzero(pm & gm))
    psz = int(np.count_nonzero(pm))
    gsz = int(np.count_nonzero(gm))
    if psz + gsz == 0:
        value = 1.0
    else:
        value = 2.0 * inter / (psz + gsz)
    return DiceResult(class_id, inter, psz, gsz, value)


@dataclass(frozen=True)
class CalibrationReport:
    """Per-bin statistics and the ECE; empty bins carry NaN confidence/accuracy."""

    counts: np.ndarray
    mean_confidence: np.ndarray
    accuracy: np.ndarray
    ece: float  # percent


class CalibrationAccumulator:
    """Pooled confidence/correctness histogram over (0, 1]."""

    def __init__(self, n_bins: int = DEFAULT_ECE_BINS):
        if not 1 <= n_bins <= MAX_ECE_BINS:
            raise ValidationError(f"n_bins must be in [1, {MAX_ECE_BINS}], got {n_bins}")
        self.n_bins = n_bins
        # interior edges k/n; searchsorted(side="left") sends x == edge to the lower bin
        self._edges = np.array([k / n_bins for k in range(1, n_bins)])
        self.counts = np.zeros(n_bins, dtype=np.int64)
        self.confidence_sums = np.zeros(n_bins, dtype=np.float64)
        self.correct_counts = np.zeros(n_bins, dtype=np.int64)

    def add(self, p, gt, *, pred=None, foreground_only: bool = False):
        """Score one trusted posterior/label pair into the bins.

        ``pred`` is the posterior's per-pixel argmax when already computed.
        Pixels are binned block by block. A bin's confidences are summed in
        float64, whatever the posterior's dtype, from its run of one float64
        buffer, in pixel order, as a boolean selection of the bin would hold
        them: the same sum, bit for bit.
        """
        arr = np.asarray(p)
        labels = np.asarray(gt)
        if labels.shape != arr.shape[1:]:
            raise ValidationError(
                f"label shape {labels.shape} does not match posterior {arr.shape}"
            )
        if pred is None:
            pred = argmax_labels(arr)
        flat, truth = arr.reshape(arr.shape[0], -1), labels.reshape(-1)
        pred = np.asarray(pred).reshape(-1)
        blocks = pixel_blocks(truth.size)
        counts = np.zeros(self.n_bins, dtype=np.int64)
        block_bins = []
        for sl in blocks:
            keep = truth[sl] > 0 if foreground_only else slice(None)
            confidence = flat[:, sl].max(axis=0)[keep].astype(np.float64)
            correct = (pred[sl] == truth[sl])[keep]
            # the narrowest index type lets the stable argsort use radix sort
            idx = np.searchsorted(self._edges, confidence, side="left").astype(
                np.min_scalar_type(self.n_bins - 1)
            )
            counts += np.bincount(idx, minlength=self.n_bins)
            self.correct_counts += np.bincount(idx[correct], minlength=self.n_bins)
            block_bins.append(idx)
        self.counts += counts
        stops = np.cumsum(counts)
        if len(blocks) == 1:
            ordered = confidence[np.argsort(idx, kind="stable")]
        else:
            del confidence, correct, pred  # the second pass takes its own blocks
            ordered = np.empty(int(stops[-1]), dtype=np.float64)
            ends = stops - counts
            for sl, idx in zip(blocks, block_bins):
                keep = truth[sl] > 0 if foreground_only else slice(None)
                _fill_runs(ordered, ends, flat[:, sl].max(axis=0)[keep].astype(np.float64), idx)
        for b in np.flatnonzero(counts):
            self.confidence_sums[b] += float(np.sum(ordered[stops[b] - counts[b] : stops[b]]))
        return self

    def report(self) -> CalibrationReport:
        total = int(self.counts.sum())
        if total == 0:
            raise ValidationError("no pixels scored")
        with np.errstate(invalid="ignore"):
            mean_conf = np.where(
                self.counts > 0, self.confidence_sums / self.counts, np.nan
            )
            accuracy = np.where(
                self.counts > 0, self.correct_counts / self.counts, np.nan
            )
        # count_b * |acc_b - conf_b| == |correct_b - conf_sum_b|; summing the
        # raw gaps avoids the intermediate divisions
        gaps = np.abs(self.correct_counts - self.confidence_sums)
        ece = float(gaps[self.counts > 0].sum() * 100.0 / total)
        return CalibrationReport(self.counts.copy(), mean_conf, accuracy, ece)


def _fill_runs(ordered, ends, confidence, idx):
    """Append a block's confidences, in pixel order, to its bins' runs in ``ordered``.

    ``ends[b]`` is where bin b's run is filled up to; it moves past the block.
    """
    # bincount's intp copy of idx is freed before the sort's permutation exists
    block_counts = np.bincount(idx, minlength=len(ends))
    order = np.argsort(idx, kind="stable")
    start = 0
    for b, n in enumerate(block_counts):
        # gathered straight into the run: "clip" takes no buffer
        run = ordered[ends[b] : ends[b] + n]
        np.take(confidence, order[start : start + n], out=run, mode="clip")
        ends[b] += n
        start += n


def ece(
    p, gt, n_bins: int = DEFAULT_ECE_BINS, *, foreground_only: bool = False
) -> CalibrationReport:
    """Expected calibration error (percent) of one posterior/label pair."""
    return (
        CalibrationAccumulator(n_bins)
        .add(p, gt, foreground_only=foreground_only)
        .report()
    )


@dataclass(frozen=True)
class UncertaintyDiceTable:
    """Per-case (score, dice) rows plus their Spearman rank correlation."""

    rows: tuple
    spearman: float | None
    note: str | None = None


def uncertainty_dice_table(cases) -> UncertaintyDiceTable:
    """Pair uncertainty scores with Dice results and rank-correlate them.

    ``cases`` holds (UncertaintyScore, DiceResult) pairs, or plain
    (score, dice) floats. The correlation is the Pearson correlation of
    average ranks. With fewer than 3 cases, constant ranks or a NaN value it
    is omitted with a note.
    """
    rows = tuple(
        (
            float(getattr(s, "score", s)),
            float(getattr(d, "dice", d)),
        )
        for s, d in cases
    )
    if len(rows) < 3:
        return UncertaintyDiceTable(rows, None, "fewer than 3 cases; correlation omitted")
    scores = np.array([r[0] for r in rows])
    dices = np.array([r[1] for r in rows])
    if (
        np.isnan(scores).any()
        or np.isnan(dices).any()
        or np.all(scores == scores[0])
        or np.all(dices == dices[0])
    ):
        return UncertaintyDiceTable(rows, None, "constant ranks; correlation undefined")
    rho = float(np.corrcoef(_average_ranks(scores), _average_ranks(dices))[1, 0])
    return UncertaintyDiceTable(rows, rho, None)


def _average_ranks(values) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks
