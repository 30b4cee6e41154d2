
import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqseg.cli import main
from uqseg.errors import ValidationError
from uqseg.scheduler import SgdrConfig, cycle_of, lr_at, restart_epochs, schedule_rows

REFERENCE = SgdrConfig(t0=100, eta=2, lr_max=0.1, lr_min=1e-4, total_epochs=800)


class TestRestartEpochs:
    def test_reference_configuration(self):
        assert restart_epochs(REFERENCE) == [100, 200, 400, 800]

    def test_unit_cycles(self):
        assert restart_epochs(SgdrConfig(t0=1, eta=1, total_epochs=3)) == [1, 2, 3]

    def test_growing_cycles_truncated_by_total(self):
        # boundaries are t0 * eta**i: 5, 15; the next (45) exceeds the run
        assert restart_epochs(SgdrConfig(t0=5, eta=3, total_epochs=20)) == [5, 15]

    def test_boundaries_match_cycle_of(self):
        for cfg in (REFERENCE, SgdrConfig(t0=7, eta=2, total_epochs=60)):
            bounds = restart_epochs(cfg)
            seen = []
            for epoch in range(cfg.total_epochs):
                cyc = cycle_of(epoch, cfg)
                if cyc.cycle_end not in seen and cyc.cycle_end <= cfg.total_epochs:
                    seen.append(cyc.cycle_end)
            assert seen == bounds


class TestCycleOf:
    @pytest.mark.parametrize(
        "epoch,cycle,start,end",
        [(0, 0, 0, 100), (150, 1, 100, 200), (399, 2, 200, 400), (799, 3, 400, 800)],
    )
    def test_reference_spans(self, epoch, cycle, start, end):
        cyc = cycle_of(epoch, REFERENCE)
        assert (cyc.cycle, cyc.cycle_start, cyc.cycle_end) == (cycle, start, end)
        assert cyc.t_i == end - start

    def test_adjacent_cycles_share_boundary(self):
        prev = cycle_of(0, REFERENCE)
        for epoch in range(1, REFERENCE.total_epochs):
            cyc = cycle_of(epoch, REFERENCE)
            if cyc.cycle != prev.cycle:
                assert cyc.cycle_start == prev.cycle_end
            prev = cyc

    def test_epoch_out_of_range(self):
        with pytest.raises(ValidationError):
            cycle_of(-1, REFERENCE)
        with pytest.raises(ValidationError):
            cycle_of(800, REFERENCE)


class TestLearningRate:
    def test_cycle_starts_hit_lr_max_exactly(self):
        for start in (0, 100, 200, 400):
            assert lr_at(start, REFERENCE) == 0.1

    def test_midpoint_value(self):
        # cycle 0 spans [0, 100); its midpoint sits at epoch 50
        assert abs(lr_at(50, REFERENCE) - (0.1 + 0.0001) / 2) < 1e-12

    def test_approaches_floor_at_cycle_end(self):
        lr = lr_at(99, REFERENCE)
        assert lr == pytest.approx(1e-4, abs=3e-5)
        assert lr > REFERENCE.lr_min

    def test_non_increasing_within_cycles(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            cfg = SgdrConfig(
                t0=int(rng.integers(1, 30)),
                eta=float(rng.integers(1, 4)),
                lr_max=0.5,
                lr_min=1e-3,
                total_epochs=int(rng.integers(10, 200)),
            )
            prev_cycle, prev_lr = -1, None
            for epoch in range(cfg.total_epochs):
                cyc = cycle_of(epoch, cfg)
                lr = lr_at(epoch, cfg)
                if cyc.cycle == prev_cycle:
                    assert lr <= prev_lr + 1e-15
                prev_cycle, prev_lr = cyc.cycle, lr

    def test_warm_restart_jump_exists(self):
        for boundary in restart_epochs(REFERENCE)[:-1]:
            assert lr_at(boundary, REFERENCE) - lr_at(boundary - 1, REFERENCE) > 0

    def test_degenerate_flat_schedule_allowed(self):
        cfg = SgdrConfig(t0=4, eta=1, lr_max=0.0, lr_min=0.0, total_epochs=8)
        assert all(lr_at(e, cfg) == 0.0 for e in range(8))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(t0=0),
            dict(eta=0.5),
            dict(lr_min=0.2, lr_max=0.1),
            dict(lr_min=-1e-4),
            dict(total_epochs=0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            SgdrConfig(**kwargs)

    @pytest.mark.parametrize("name", ["eta", "lr_max", "lr_min"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            SgdrConfig(**{name: value})

    @pytest.mark.parametrize(
        "name, value", [("eta", 10**400), ("lr_max", 10**400), ("lr_min", -(10**400))],
        ids=["eta", "lr_max", "lr_min"])
    def test_rejects_an_int_past_the_float_range(self, name, value):
        # such an int cannot be converted to a float, so math.isfinite would raise
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            SgdrConfig(**{name: value})


def test_schedule_rows_cover_run():
    cfg = SgdrConfig(t0=3, eta=2, total_epochs=10)
    rows = schedule_rows(cfg)
    assert [r[0] for r in rows] == list(range(10))
    for epoch, cycle, lr in rows:
        assert cycle == cycle_of(epoch, cfg).cycle
        assert lr == lr_at(epoch, cfg)


class TestHugeSpans:
    """A span t0 * eta**i past the float range outlasts the run."""

    def test_overflowing_span_holds_lr_max(self):
        # t0 * eta overflows to inf in cycle 1
        cfg = SgdrConfig(t0=100, eta=1e308, total_epochs=800)
        rows = schedule_rows(cfg)
        assert [r[0] for r in rows] == list(range(800))
        assert restart_epochs(cfg) == [100]
        assert cycle_of(799, cfg).cycle_start == 100
        assert all(lr == cfg.lr_max for _, cycle, lr in rows if cycle == 1)

    def test_next_span_is_never_computed(self):
        # eta**2 would raise OverflowError; cycle 1 already reaches the end
        cfg = SgdrConfig(t0=1, eta=1e300, total_epochs=5)
        assert schedule_rows(cfg) == [(0, 0, 0.1)] + [(e, 1, 0.1) for e in range(1, 5)]

    @pytest.mark.parametrize("eta", [2.0, 2])
    def test_int_t0_past_the_float_range_is_the_largest_span(self, eta):
        # an int this large cannot be converted to a float, so t0 * 2.0 would raise
        cfg = SgdrConfig(t0=10**309, eta=eta, total_epochs=5)
        assert schedule_rows(cfg) == [(e, 0, 0.1) for e in range(5)]
        assert restart_epochs(cfg) == []

    def test_lr_schedule_cli_takes_an_int_t0_past_the_float_range(self, capsys):
        assert main(["lr-schedule", "--t0", str(10**309), "--epochs", "3"]) == 0
        assert capsys.readouterr().out == "epoch,cycle,lr\n0,0,0.1\n1,0,0.1\n2,0,0.1\n"


@settings(max_examples=60, deadline=None)
@given(
    eta=st.floats(min_value=1.0, max_value=1e308),
    t0=st.integers(min_value=1, max_value=10**6),
    epochs=st.integers(min_value=1, max_value=1000),
)
def test_lr_schedule_cli_keeps_exit_contract(eta, t0, epochs):
    out = io.StringIO()
    argv = ["lr-schedule", "--t0", str(t0), "--eta", repr(eta), "--epochs", str(epochs)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a value
            code = exc.code
    assert code in (0, 2)
    if code == 0:
        assert len(out.getvalue().splitlines()) == epochs + 1
