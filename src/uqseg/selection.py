"""Pick ensemble checkpoints from the validation-metric peaks of each cycle.

Each cycle is searched over its final stretch (default: last 50% of the
cycle, where the rate has annealed). A cycle contributes checkpoints only
if its best windowed metric reaches ``min_peak_ratio`` of the best metric
seen anywhere in the trace; flat cycles are skipped entirely.
"""

import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field

from .errors import ValidationError
from .reports import csv_line, read_csv, write_lines
from .scheduler import SgdrConfig, _cycle_iter


def check_id(text, what="checkpoint_id"):
    """``text``, a checkpoint id: it names a member file, so it may not hold a path separator."""
    if not (isinstance(text, str) and re.fullmatch(r"[A-Za-z0-9_.-]+", text)):
        raise ValidationError(f"{what} must match [A-Za-z0-9_.-]+, got {text!r}")
    return text


_TRACE_COLUMNS = {
    "epoch": int,
    "lr": float,
    "val_metric": float,
    "checkpoint_id": lambda text: check_id(text) if text else None,
}
_MANIFEST_COLUMNS = {"cycle": int, "epoch": int, "checkpoint_id": check_id, "metric": float}


@dataclass(frozen=True)
class TraceRecord:
    epoch: int
    lr: float
    val_metric: float
    checkpoint_id: str | None = None

    def __post_init__(self):
        if self.checkpoint_id is not None:
            check_id(self.checkpoint_id)


@dataclass(frozen=True)
class TrainingTrace:
    """Per-epoch training records; epochs strictly increasing."""

    records: tuple

    def __post_init__(self):
        recs = tuple(self.records)
        object.__setattr__(self, "records", recs)
        for prev, r in zip((None, *recs), recs):
            if r.epoch < 0:
                raise ValidationError(f"trace epochs must be >= 0, got {r.epoch}")
            if prev is not None and r.epoch <= prev.epoch:
                raise ValidationError(
                    f"trace epochs must be strictly increasing, got {prev.epoch} then {r.epoch}"
                )
            if not math.isfinite(r.val_metric) or not 0.0 <= r.val_metric <= 1.0:
                raise ValidationError(
                    f"val_metric must be finite in [0, 1], got {r.val_metric} at epoch {r.epoch}"
                )

    def to_csv(self, path):
        write_lines(path, [",".join(_TRACE_COLUMNS),
                           *(csv_line(*vars(r).values()) for r in self.records)])

    @classmethod
    def from_csv(cls, path):
        return cls(tuple(TraceRecord(*row) for row in read_csv(path, _TRACE_COLUMNS)))


@dataclass(frozen=True)
class SelectionPolicy:
    """How many checkpoints per cycle, where to look, and when to skip."""

    per_cycle: int = 3
    window_fraction: float = 0.5
    min_peak_ratio: float = 0.9

    def __post_init__(self):
        if self.per_cycle < 1:
            raise ValidationError(f"per_cycle must be >= 1, got {self.per_cycle}")
        if not 0.0 < self.window_fraction <= 1.0:
            raise ValidationError(f"window_fraction must be in (0, 1], got {self.window_fraction}")
        if not 0.0 < self.min_peak_ratio <= 1.0:
            raise ValidationError(f"min_peak_ratio must be in (0, 1], got {self.min_peak_ratio}")

    def window_epochs(self, span: int) -> int:
        """Search-window length in epochs for a cycle of ``span`` epochs."""
        return max(1, math.ceil(self.window_fraction * span))

    def window(self, cyc) -> range:
        """The epochs of cycle ``cyc``'s search window, which ends with the cycle."""
        return range(cyc.cycle_end - self.window_epochs(cyc.t_i), cyc.cycle_end)


@dataclass(frozen=True)
class SelectedCheckpoint:
    cycle: int
    epoch: int
    checkpoint_id: str
    val_metric: float

    def __post_init__(self):
        check_id(self.checkpoint_id)


@dataclass(frozen=True)
class CheckpointSet:
    """Selected checkpoints, ordered by (cycle, metric desc, epoch desc)."""

    entries: tuple = field(default_factory=tuple)

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        key = [(e.cycle, -e.val_metric, -e.epoch) for e in entries]
        if key != sorted(key):
            raise ValidationError("checkpoint entries out of canonical order")
        ids = [e.checkpoint_id for e in entries]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate checkpoint_id in selection")

    @property
    def checkpoint_ids(self):
        return [e.checkpoint_id for e in self.entries]


def find_cycle_peaks(
    trace: TrainingTrace, cfg: SgdrConfig, policy: SelectionPolicy | None = None
) -> CheckpointSet:
    """Select up to ``per_cycle`` peak checkpoints from each qualifying cycle.

    Ties in the metric are broken toward the later epoch. Cycles whose best
    windowed metric falls below min_peak_ratio * global best are skipped.
    """
    policy = policy or SelectionPolicy()
    if not trace.records:
        raise ValidationError("empty trace")
    max_epoch = trace.records[-1].epoch
    if max_epoch >= cfg.total_epochs:
        raise ValidationError(
            f"trace epoch {max_epoch} exceeds schedule total_epochs {cfg.total_epochs}"
        )

    # the cycles the trace reaches; their starts increase, and the schedule ends
    cycles = [cyc for cyc in _cycle_iter(cfg) if cyc.cycle_start <= max_epoch]
    if max_epoch < cycles[0].cycle_end - 1:
        raise ValidationError(
            f"trace must span at least one full cycle (need epoch {cycles[0].cycle_end - 1})"
        )

    floor = policy.min_peak_ratio * max(r.val_metric for r in trace.records)
    epochs = [r.epoch for r in trace.records]  # strictly increasing
    entries = []
    for cyc in cycles:
        window = policy.window(cyc)
        windowed = trace.records[bisect_left(epochs, window.start):
                                 bisect_left(epochs, window.stop)]
        if not windowed or max(r.val_metric for r in windowed) < floor:
            continue
        ranked = sorted(windowed, key=lambda r: (-r.val_metric, -r.epoch))
        for r in ranked[: policy.per_cycle]:
            cid = r.checkpoint_id or f"ep{r.epoch:05d}"
            entries.append(SelectedCheckpoint(cyc.cycle, r.epoch, cid, r.val_metric))
    return CheckpointSet(tuple(entries))


def export_selection(selection: CheckpointSet, path):
    """Write the manifest CSV consumed by the fuse stage."""
    if not selection.entries:
        raise ValidationError("refusing to export an empty checkpoint selection")
    write_lines(path, [",".join(_MANIFEST_COLUMNS),
                       *(csv_line(*vars(e).values()) for e in selection.entries)])


def read_selection(path) -> CheckpointSet:
    """Read the manifest CSV written by export_selection."""
    rows = read_csv(path, _MANIFEST_COLUMNS)
    return CheckpointSet(tuple(SelectedCheckpoint(*row) for row in rows))
