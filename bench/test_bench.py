"""Tests of the benchmark itself: generator, span arithmetic, names, failures.

Run from the repository root with
``PYTHONPATH=src python -m pytest -q bench/test_bench.py``.
"""

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run_bench  # noqa: E402
from checks import tree_digest  # noqa: E402
from tracer import aggregate, import_time, module_time, self_times  # noqa: E402
from workloads import WORKLOADS, Workload, generate_inputs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

# a few-second stand-in for the generated workloads: two 4-epoch cycles,
# three checkpoints saved and selected per cycle, three generated cases
TINY_TRAIN = (
    "--cases", "3", "--test-cases", "1", "--shape", "32x32", "--classes", "3",
    "--noise", "0.1", "--t0", "4", "--eta", "1", "--lr-max", "2.0",
    "--lr-min", "0.0001", "--epochs", "8", "--per-cycle", "3",
    "--window-fraction", "0.75",
)
TINY_CONFIG = (
    ("t0", 4), ("eta", 1), ("lr_max", 2.0), ("lr_min", 0.0001), ("total_epochs", 8),
    ("per_cycle", 3), ("window_fraction", 0.75), ("min_peak_ratio", 0.01),
)
TINY = Workload("tiny", "test", classes=3, train_args=TINY_TRAIN, config=TINY_CONFIG,
                cases=3, shape=(32, 32))


@pytest.fixture(scope="module")
def source(tmp_path_factory):
    """A toy-train output directory with six checkpoints."""
    from uqseg.scheduler import SgdrConfig
    from uqseg.selection import SelectionPolicy
    from uqseg.toy import run_toy_training

    out = tmp_path_factory.mktemp("source")
    run_toy_training(
        out, seed=5, n_train=3, n_test=1, shape=(32, 32), class_count=4,
        cfg=SgdrConfig(t0=4, eta=1, lr_max=2.0, lr_min=1e-4, total_epochs=8),
        policy=SelectionPolicy(per_cycle=3, window_fraction=0.75),
    )
    return out


@pytest.mark.parametrize(
    "workload",
    [replace(TINY, classes=4), replace(WORKLOADS["volume3d"], cases=2, depth=3, shape=(32, 32))],
    ids=["2d", "3d"],
)
def test_generator_is_deterministic_per_seed(tmp_path, source, workload):
    digests = []
    for n, seed in enumerate((11, 11, 12)):
        dest = tmp_path / f"inputs{n}"
        generate_inputs(workload, seed, source, dest)
        digests.append(tree_digest(dest))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]
    members = sorted((tmp_path / "inputs0" / "predictions" / "case0001").iterdir())
    assert len(members) == 6


def test_self_time_on_hand_built_tree():
    spans = [
        ["root", 0.0, 10.0, -1, None, 0],
        ["a", 1.0, 4.0, 0, None, 0],
        ["a.inner", 2.0, 3.0, 1, None, 0],
        ["b", 5.0, 7.0, 0, None, 0],
        ["b", 6.5, 8.0, 0, None, 0],  # overlaps b; covered time counts once
        ["c", 9.5, 11.0, 0, None, 0],  # runs past its parent's end
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 3 - 0.5, 2.0, 1.0, 2.0, 1.5, 1.5])
    stats = aggregate(spans)
    assert stats["b"]["calls"] == 2
    assert stats["b"]["s"] == pytest.approx(3.5)
    assert stats["a"]["self_s"] == pytest.approx(2.0)


def test_module_time_counts_nested_calls_once():
    spans = [
        ["pipeline.run", 0.0, 10.0, -1, None, 0],
        ["reports.write", 1.0, 5.0, 0, None, 0],
        ["reports.row", 2.0, 3.0, 1, None, 0],
        ["reports.row", 6.0, 7.0, 0, None, 0],
    ]
    assert module_time(spans, "reports") == pytest.approx(5.0)


def test_import_time_sums_outermost_submodules():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       numpy.core",
            "import time:       200 |        300 |     numpy",
            "import time:        50 |         50 |       scipy.stats._a",
            "import time:        10 |         40 |         scipy.stats._c",
            "import time:        30 |        100 |       scipy.stats._b",
            "import time:        20 |        500 |     pkg.metrics",
            "import time:        10 |        900 |   pkg",
        ]
    )
    assert import_time(text, "numpy") == pytest.approx(300e-6)
    assert import_time(text, "scipy.stats") == pytest.approx(150e-6)
    assert import_time(text, "pkg") == pytest.approx(900e-6)
    assert import_time(text, "absent") == 0.0


def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == dict(run_bench.END_TO_END)
    assert per_layer == run_bench.per_layer_units()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    for name in [*end_to_end, *per_layer, *WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_corrupted_member_is_a_counted_failure(tmp_path):
    bench = run_bench.Bench(ROOT, TINY, seed=3, seconds=1, trace=True, work=tmp_path / "w")
    bench.work.mkdir()
    assert bench.repetition(0, traced=False) is not None
    member = next((bench.inputs / "predictions" / "case0001").iterdir())
    member.write_bytes(member.read_bytes()[:40])
    assert bench.repetition(1, traced=False) is not None  # the run goes on
    assert (bench.attempted, bench.failed) == (5, 1)
    assert bench.problems[0].startswith("run: exit 3")
    assert bench.end_to_end()["run_s"][0] > 0


def test_tracing_does_not_change_outputs(tmp_path):
    bench = run_bench.Bench(ROOT, TINY, seed=3, seconds=1, trace=True, work=tmp_path / "w")
    bench.work.mkdir()
    for i in range(4):
        bench.repetition(i, traced=i % 2 == 1)
    layers = bench.per_layer()
    assert bench.failed == 0, bench.problems
    assert set(layers) == set(run_bench.per_layer_units())
    assert layers["arrayio.read_array.calls"][0] > 0
    assert layers["toy.case_features.calls"][0] > 0
    _, (run,) = bench.traced[0]
    cases = {span[4] for span in run.spans if span[0] == "ensemble.ensemble_mean"}
    assert cases == set(bench.case_ids)

    # a count that differs between traced repetitions is a counted failure
    _, (run,) = bench.traced[1]
    next(span for span in run.spans if span[0] == "arrayio.read_array")[0] = "other.read"
    bench.per_layer()
    assert bench.failed == 1
    assert "differs between traced repetitions" in bench.problems[-1]


def test_refuses_a_tree_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args = ["--workload", "demo2d", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run_bench.main(args) == 2
    assert capsys.readouterr().out == ""
