import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqseg.errors import ValidationError
from uqseg.scheduler import SgdrConfig, cycle_of
from uqseg.selection import (
    CheckpointSet,
    SelectedCheckpoint,
    SelectionPolicy,
    TraceRecord,
    TrainingTrace,
    check_id,
    export_selection,
    find_cycle_peaks,
    read_selection,
)

CFG = SgdrConfig(t0=100, eta=2, lr_max=0.1, lr_min=1e-4, total_epochs=800)


def ramp_trace(cfg, peaks):
    """Trace whose metric ramps up to the given peak at each cycle's end."""
    records = []
    for epoch in range(cfg.total_epochs):
        cyc = cycle_of(epoch, cfg)
        peak = peaks[cyc.cycle]
        frac = (epoch - cyc.cycle_start) / max(cyc.t_i - 1, 1)
        records.append(
            TraceRecord(epoch, 0.1, round(peak * (0.2 + 0.8 * frac), 9), f"ep{epoch:05d}")
        )
    return TrainingTrace(tuple(records))


def brute_force_pick(trace, cfg, policy):
    """Oracle: sort each cycle window by (metric, epoch) and take the top k."""
    global_best = max(r.val_metric for r in trace.records)
    picks = {}
    by_cycle = {}
    for r in trace.records:
        cyc = cycle_of(r.epoch, cfg)
        window = cyc.cycle_end - policy.window_epochs(cyc.t_i)
        if r.epoch >= window:
            by_cycle.setdefault(cyc.cycle, []).append(r)
    for cycle, recs in sorted(by_cycle.items()):
        best = max(r.val_metric for r in recs)
        if best < policy.min_peak_ratio * global_best:
            continue
        ordered = sorted(recs, key=lambda r: (r.val_metric, r.epoch), reverse=True)
        picks[cycle] = [r.epoch for r in ordered[: policy.per_cycle]]
    return picks


class TestFindCyclePeaks:
    def test_flat_cycle_is_skipped(self):
        trace = ramp_trace(CFG, peaks=[0.80, 0.60, 0.83, 0.85])
        selected = find_cycle_peaks(trace, CFG, SelectionPolicy(min_peak_ratio=0.9))
        cycles = sorted({e.cycle for e in selected.entries})
        assert cycles == [0, 2, 3]
        per_cycle = {c: [e.epoch for e in selected.entries if e.cycle == c] for c in cycles}
        assert per_cycle[0] == [99, 98, 97]
        assert per_cycle[3] == [799, 798, 797]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            cfg = SgdrConfig(t0=int(rng.integers(4, 12)), eta=2, total_epochs=60)
            records = tuple(
                TraceRecord(e, 0.1, float(np.round(rng.random(), 6)), f"ep{e:05d}")
                for e in range(cfg.total_epochs)
            )
            trace = TrainingTrace(records)
            policy = SelectionPolicy(per_cycle=int(rng.integers(1, 4)))
            selected = find_cycle_peaks(trace, cfg, policy)
            got = {}
            for e in selected.entries:
                got.setdefault(e.cycle, []).append(e.epoch)
            assert got == brute_force_pick(trace, cfg, policy)

    def test_monotone_metric_k1_selects_cycle_ends(self):
        cfg = SgdrConfig(t0=10, eta=2, total_epochs=40)
        records = tuple(
            TraceRecord(e, 0.1, e / 40.0, f"ep{e:05d}") for e in range(40)
        )
        selected = find_cycle_peaks(
            TrainingTrace(records), cfg, SelectionPolicy(per_cycle=1, min_peak_ratio=0.2)
        )
        assert [e.epoch for e in selected.entries] == [9, 19, 39]

    def test_k_exceeding_cycle_takes_every_epoch(self):
        cfg = SgdrConfig(t0=5, eta=1, total_epochs=10)
        records = tuple(TraceRecord(e, 0.1, 0.5 + e / 100, None) for e in range(10))
        policy = SelectionPolicy(per_cycle=50, window_fraction=1.0, min_peak_ratio=0.5)
        selected = find_cycle_peaks(TrainingTrace(records), cfg, policy)
        assert sorted(e.epoch for e in selected.entries) == list(range(10))

    def test_ties_break_toward_later_epoch(self):
        cfg = SgdrConfig(t0=10, eta=1, total_epochs=10)
        records = tuple(TraceRecord(e, 0.1, 0.7, None) for e in range(10))
        policy = SelectionPolicy(per_cycle=2, window_fraction=1.0)
        selected = find_cycle_peaks(TrainingTrace(records), cfg, policy)
        assert [e.epoch for e in selected.entries] == [9, 8]

    def test_selected_epochs_stay_inside_their_cycle(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            cfg = SgdrConfig(t0=int(rng.integers(3, 10)), eta=2, total_epochs=50)
            records = tuple(
                TraceRecord(e, 0.1, float(rng.random()), None) for e in range(50)
            )
            selected = find_cycle_peaks(TrainingTrace(records), cfg, SelectionPolicy())
            for e in selected.entries:
                cyc = cycle_of(e.epoch, cfg)
                assert cyc.cycle == e.cycle
                assert cyc.cycle_start <= e.epoch < cyc.cycle_end

    def test_raising_ratio_never_adds_cycles(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            cfg = SgdrConfig(t0=8, eta=2, total_epochs=60)
            records = tuple(
                TraceRecord(e, 0.1, float(rng.random()), None) for e in range(60)
            )
            trace = TrainingTrace(records)
            counts = []
            for ratio in (0.3, 0.6, 0.9, 1.0):
                sel = find_cycle_peaks(trace, cfg, SelectionPolicy(min_peak_ratio=ratio))
                counts.append(len({e.cycle for e in sel.entries}))
            assert counts == sorted(counts, reverse=True)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValidationError):
            find_cycle_peaks(TrainingTrace(()), CFG, SelectionPolicy())

    def test_trace_beyond_schedule_rejected(self):
        records = (TraceRecord(900, 0.1, 0.5, None),)
        with pytest.raises(ValidationError, match="exceeds"):
            find_cycle_peaks(TrainingTrace(records), CFG, SelectionPolicy())

    def test_trace_shorter_than_first_cycle_rejected(self):
        records = tuple(TraceRecord(e, 0.1, 0.5, None) for e in range(50))
        with pytest.raises(ValidationError, match="full cycle"):
            find_cycle_peaks(TrainingTrace(records), CFG, SelectionPolicy())

    @pytest.mark.parametrize("seed", range(4))
    def test_many_short_cycles_with_gaps_match_the_oracle(self, seed):
        """Hundreds of short cycles, some epochs missing from the trace: each cycle's
        window is found among the records by its epochs, as the per-record oracle finds it."""
        rng = np.random.default_rng(seed)
        cfg = SgdrConfig(t0=int(rng.integers(1, 4)), eta=float(rng.choice([1.0, 1.003])),
                         total_epochs=600)
        kept = [e for e in range(cfg.total_epochs - 1) if rng.random() < 0.7]
        metrics = rng.choice([0.2, 0.5, 0.8, 0.81, 1.0], size=len(kept) + 1)
        trace = TrainingTrace(tuple(TraceRecord(e, 0.1, float(m), None)
                                    for e, m in zip([*kept, cfg.total_epochs - 1], metrics)))
        policy = SelectionPolicy(per_cycle=int(rng.integers(1, 4)),
                                 window_fraction=float(rng.choice([0.3, 0.5, 1.0])),
                                 min_peak_ratio=float(rng.choice([0.1, 0.9])))
        selected = find_cycle_peaks(trace, cfg, policy)
        assert len({e.cycle for e in selected.entries}) > 50
        got = {}
        for e in selected.entries:
            got.setdefault(e.cycle, []).append(e.epoch)
        assert got == brute_force_pick(trace, cfg, policy)


@st.composite
def _selection_cases(draw):
    """A schedule, a contiguous trace spanning its first cycle, and a policy.

    Metrics come from a few values, so ties are common; ids are generated or
    given.
    """
    t0 = draw(st.integers(1, 12))
    eta = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    total = draw(st.integers(t0, 80))
    cfg = SgdrConfig(t0=t0, eta=eta, total_epochs=total)
    last = draw(st.integers(cycle_of(0, cfg).cycle_end - 1, total - 1))
    metrics = draw(
        st.lists(st.sampled_from([0.2, 0.5, 0.8, 0.81, 1.0]), min_size=last + 1, max_size=last + 1)
    )
    named = draw(st.booleans())
    trace = TrainingTrace(
        tuple(
            TraceRecord(e, 0.1, m, f"ck{e}" if named else None)
            for e, m in enumerate(metrics)
        )
    )
    policy = SelectionPolicy(
        per_cycle=draw(st.integers(1, 5)),
        window_fraction=draw(st.sampled_from([0.1, 0.5, 1.0])),
        min_peak_ratio=draw(st.sampled_from([0.1, 0.9, 1.0])),
    )
    return trace, cfg, policy


@settings(max_examples=200, deadline=None)
@given(case=_selection_cases())
def test_find_cycle_peaks_returns_a_canonical_checkpoint_set(case):
    trace, cfg, policy = case
    selection = find_cycle_peaks(trace, cfg, policy)
    assert isinstance(selection, CheckpointSet)
    keys = [(e.cycle, -e.val_metric, -e.epoch) for e in selection.entries]
    assert keys == sorted(keys)
    # rebuilding from the entries passes the set's own order and id checks
    assert CheckpointSet(selection.entries) == selection
    picks = {}
    for e in selection.entries:
        assert cycle_of(e.epoch, cfg).cycle == e.cycle
        assert trace.records[e.epoch].val_metric == e.val_metric
        picks.setdefault(e.cycle, []).append(e.epoch)
    assert picks == brute_force_pick(trace, cfg, policy)


class TestCheckpointIds:
    """Ids built in Python get the CSV readers' ``[A-Za-z0-9_.-]+`` check."""

    @pytest.mark.parametrize(
        "cid", ["ep00001", "a", "run-1.best_2", "..", "../a", "a/b", "/a", "a\\b", "a b", "\u00e9",
                "a\x00", "a\tb"])
    def test_the_readers_and_check_id_take_the_same_ids(self, cid, tmp_path):
        """One rule: ``check_id`` returns an id the trace and manifest readers take, and
        raises, with its own message, for an id they reject as a bad field."""
        trace, manifest = tmp_path / "trace.csv", tmp_path / "manifest.csv"
        trace.write_text(f"epoch,lr,val_metric,checkpoint_id\n0,0.1,0.5,\n1,0.1,0.9,{cid}\n")
        manifest.write_text(f"cycle,epoch,checkpoint_id,metric\n0,1,{cid},0.9\n")
        if re.fullmatch(r"[A-Za-z0-9_.-]+", cid):
            assert check_id(cid) == cid
            assert TrainingTrace.from_csv(trace).records[1].checkpoint_id == cid
            assert read_selection(manifest).checkpoint_ids == [cid]
            return
        with pytest.raises(ValidationError) as raised:
            check_id(cid)
        assert str(raised.value) == f"checkpoint_id must match [A-Za-z0-9_.-]+, got {cid!r}"
        with pytest.raises(ValidationError) as raised:
            check_id(cid, "case directory under predictions_dir p")
        assert str(raised.value) == (
            f"case directory under predictions_dir p must match [A-Za-z0-9_.-]+, got {cid!r}")
        for path, line in ((trace, 3), (manifest, 2)):
            reader = TrainingTrace.from_csv if path == trace else read_selection
            with pytest.raises(ValidationError) as raised:
                reader(path)
            assert str(raised.value) == f"{path}:{line}: bad checkpoint_id {cid!r}"

    BAD = ["../a", "/etc/x", "a/b", "a\\b", "a b", "", "a,b", 7]

    @pytest.mark.parametrize("cid", BAD)
    def test_trace_record_rejects_path_like_ids(self, cid):
        with pytest.raises(ValidationError, match="checkpoint_id must match"):
            TraceRecord(0, 0.1, 0.5, cid)

    @pytest.mark.parametrize("cid", BAD)
    def test_selected_checkpoint_rejects_path_like_ids(self, cid):
        with pytest.raises(ValidationError, match="checkpoint_id must match"):
            SelectedCheckpoint(0, 1, cid, 0.5)

    @pytest.mark.parametrize("cid", ["ep00000", "a", "run-1.best_2"])
    def test_plain_ids_accepted(self, cid):
        assert TraceRecord(0, 0.1, 0.5, cid).checkpoint_id == cid
        assert SelectedCheckpoint(0, 1, cid, 0.5).checkpoint_id == cid
        assert TraceRecord(0, 0.1, 0.5).checkpoint_id is None


class TestTraceValidation:
    def test_epochs_strictly_increasing(self):
        with pytest.raises(ValidationError):
            TrainingTrace((TraceRecord(0, 0.1, 0.5, None), TraceRecord(0, 0.1, 0.6, None)))

    def test_epochs_non_negative(self):
        # a trace of negative epochs has no cycle to select from
        with pytest.raises(ValidationError, match=">= 0"):
            TrainingTrace((TraceRecord(-2, 0.1, 0.5, None), TraceRecord(-1, 0.1, 0.6, None)))

    def test_metric_in_unit_interval(self):
        with pytest.raises(ValidationError):
            TrainingTrace((TraceRecord(0, 0.1, 1.5, None),))

    def test_csv_round_trip(self, tmp_path):
        trace = ramp_trace(SgdrConfig(t0=5, eta=2, total_epochs=15), [0.5, 0.8, 0.9])
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert TrainingTrace.from_csv(path) == trace

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with pytest.raises(ValidationError):
            TrainingTrace.from_csv(path)


class TestManifest:
    def _selection(self):
        return CheckpointSet(
            (
                SelectedCheckpoint(0, 99, "ep00099", 0.91),
                SelectedCheckpoint(0, 98, "ep00098", 0.90),
                SelectedCheckpoint(1, 199, "ep00199", 0.95),
            )
        )

    def test_round_trip(self, tmp_path):
        sel = self._selection()
        path = tmp_path / "manifest.csv"
        export_selection(sel, path)
        assert read_selection(path) == sel
        lines = path.read_text().splitlines()
        assert lines[0] == "cycle,epoch,checkpoint_id,metric"
        assert len(lines) == 4

    def test_empty_export_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            export_selection(CheckpointSet(()), tmp_path / "m.csv")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            CheckpointSet(
                (
                    SelectedCheckpoint(0, 99, "same", 0.9),
                    SelectedCheckpoint(0, 98, "same", 0.8),
                )
            )

    def test_out_of_order_entries_rejected(self):
        with pytest.raises(ValidationError):
            CheckpointSet(
                (
                    SelectedCheckpoint(1, 199, "a", 0.9),
                    SelectedCheckpoint(0, 99, "b", 0.9),
                )
            )


def test_policy_validation():
    with pytest.raises(ValidationError):
        SelectionPolicy(per_cycle=0)
    with pytest.raises(ValidationError):
        SelectionPolicy(window_fraction=0.0)
    with pytest.raises(ValidationError):
        SelectionPolicy(min_peak_ratio=1.5)
    assert SelectionPolicy().window_epochs(100) == 50
    assert SelectionPolicy(window_fraction=0.5).window_epochs(1) == 1
