"""Warm-restart cosine learning-rate schedule and cycle bookkeeping.

Cycle boundaries sit at t0 * eta**i, so with the default t0=100, eta=2 the
restarts land at epochs 100, 200, 400, 800 (cycle lengths 100, 100, 200,
400). For eta=1 this degenerates gracefully to equal cycles of t0 epochs.

Within a cycle the rate anneals from lr_max down toward lr_min:

    lr(e) = lr_min + (lr_max - lr_min)/2 * (1 + cos(pi * (e - start) / span))

The published formula differs: its amplitude is lr_min/2, so it only spans
[lr_min, 2*lr_min], and its phase is the absolute epoch modulo t0 * eta**i.
"""

import math
import sys
from dataclasses import dataclass

from .errors import ValidationError

MAX_EPOCHS = 100_000  # a schedule holds one row per epoch


@dataclass(frozen=True)
class SgdrConfig:
    """Schedule parameters; defaults mirror the reference training setup."""

    t0: int = 100
    eta: float = 2.0
    lr_max: float = 0.1
    lr_min: float = 1e-4
    total_epochs: int = 800

    def __post_init__(self):
        for name in ("eta", "lr_max", "lr_min"):
            value = getattr(self, name)
            if not -sys.float_info.max <= value <= sys.float_info.max:
                raise ValidationError(f"{name} must be finite, got {value}")
        if self.t0 < 1:
            raise ValidationError(f"t0 must be >= 1, got {self.t0}")
        if self.eta < 1.0:
            raise ValidationError(f"eta must be >= 1, got {self.eta}")
        # lr_min == lr_max is allowed for degenerate (e.g. zero-rate) runs
        if not (0.0 <= self.lr_min <= self.lr_max):
            raise ValidationError(
                f"need 0 <= lr_min <= lr_max, got lr_min={self.lr_min} lr_max={self.lr_max}"
            )
        if self.total_epochs < 1:
            raise ValidationError(f"total_epochs must be >= 1, got {self.total_epochs}")
        if self.total_epochs > MAX_EPOCHS:
            raise ValidationError(f"total_epochs must be <= {MAX_EPOCHS}, got {self.total_epochs}")


@dataclass(frozen=True)
class CycleIndex:
    """One cycle: index, actual span in epochs, half-open epoch range."""

    cycle: int
    t_i: int
    cycle_start: int
    cycle_end: int


def _cycle_iter(cfg: SgdrConfig):
    """Yield CycleIndex values from epoch 0 through the cycle that reaches
    ``total_epochs``.

    A span t0 * eta**i beyond the float range, an int t0 beyond it too, is
    taken as the largest float: the cycle then outlasts the run, and every
    rate in it is the one an unbounded span gives (cos(pi * x) rounds to 1).
    """
    prev, i = 0, 0
    while prev < cfg.total_epochs:
        t_i = min(min(cfg.t0, sys.float_info.max) * cfg.eta**i, sys.float_info.max)
        # next zero of mod(t, t_i) strictly after the previous boundary
        mult = math.floor(prev / t_i) + 1
        end = max(prev + 1, int(round(mult * t_i)))
        yield CycleIndex(cycle=i, t_i=end - prev, cycle_start=prev, cycle_end=end)
        prev = end
        i += 1


def cycle_of(epoch: int, cfg: SgdrConfig) -> CycleIndex:
    """Return the unique cycle whose [cycle_start, cycle_end) contains epoch."""
    if not 0 <= epoch < cfg.total_epochs:
        raise ValidationError(f"epoch {epoch} outside [0, {cfg.total_epochs})")
    return next(cyc for cyc in _cycle_iter(cfg) if epoch < cyc.cycle_end)


def restart_epochs(cfg: SgdrConfig) -> list[int]:
    """Cycle-end epochs up to and including total_epochs."""
    return [cyc.cycle_end for cyc in _cycle_iter(cfg) if cyc.cycle_end <= cfg.total_epochs]


def _cycle_lr(epoch: int, cyc: CycleIndex, cfg: SgdrConfig) -> float:
    offset = epoch - cyc.cycle_start
    if offset == 0:
        return cfg.lr_max
    x = offset / cyc.t_i
    return cfg.lr_min + (cfg.lr_max - cfg.lr_min) / 2.0 * (1.0 + math.cos(math.pi * x))


def lr_at(epoch: int, cfg: SgdrConfig) -> float:
    """Learning rate at the start of ``epoch``; a whole run reads ``schedule_rows``."""
    return _cycle_lr(epoch, cycle_of(epoch, cfg), cfg)


def schedule_rows(cfg: SgdrConfig):
    """(epoch, cycle, lr) triples for the whole run; backs the CSV emitter."""
    return [(epoch, cyc.cycle, _cycle_lr(epoch, cyc, cfg)) for cyc in _cycle_iter(cfg)
            for epoch in range(cyc.cycle_start, min(cyc.cycle_end, cfg.total_epochs))]
