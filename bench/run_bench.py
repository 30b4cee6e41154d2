"""uqseg benchmark: one workload, fresh CLI processes, checked outputs.

Run from the repository root:

    python3 bench/run_bench.py --workload demo2d --seed 7 --seconds 20 --trace 0

Each repetition runs ``uqseg toy-train`` (twice on volume3d, where it is
short) and then ``uqseg run`` (three times on demo2d, where it is short) in
fresh child processes (``bench/child.py`` calls ``uqseg.cli.main``), one at
a time, until ``--seconds`` of command time is used (at least two
repetitions, four with ``--trace 1``). The first repetition's training
output becomes the ``run`` input, directly on demo2d and through
``workloads.generate_inputs`` elsewhere. Generation time is reported
under "meta", never as a metric.

With ``--trace 0`` the last stdout line holds the end-to-end metrics
(medians over the repetitions). With ``--trace 1`` every second repetition
runs traced (spans from ``tracer.py`` plus ``-X importtime``) and the line
holds the per-layer metrics; traced numbers never feed the end-to-end ones.

Every command and output check is one operation; a failed one is counted
and the run goes on. Exit status: 0 when all passed, 1 when any failed,
2 when the current directory holds no uqseg sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from checks import CheckFailed, check_case, check_golden, check_summary, tree_digest
from tracer import aggregate, import_time, module_time
from workloads import WORKLOADS, generate_inputs, write_config

BENCH = Path(__file__).resolve().parent
GOLDEN = Path("tests/data/golden_summary_seed7.csv")
GOLDEN_SEED = 7
WORK = ".bench_work"
MIN_REPS = 2
CHILD_TIMEOUT_S = 120.0
RUN_LIMIT_S = 160.0  # no repetition starts that would end after this

# Gated metrics. pipeline_s, the main() call of ``uqseg run``, is printed but
# not gated: on demo2d it lasts ~30 ms and its run-to-run spread on a shared
# 2-CPU machine (a third of its median) exceeds any allowed bound.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("run_peak_rss_mb", "MiB"),
    ("train_s", "s"),
    ("train_peak_rss_mb", "MiB"),
)

# (span name, statistic); the metric is "<span>.<statistic>"
SPAN_METRICS = (
    ("toy.train", "s"),
    ("toy.train", "self_s"),
    ("toy.validation_dice", "s"),
    ("toy.predict", "calls"),
    ("toy.predict", "s"),
    ("toy.case_features", "calls"),
    ("toy.case_features", "s"),
    ("toy.run_toy_training", "self_s"),
    ("arrays.validate_probabilities", "calls"),
    ("arrays.validate_probabilities", "s"),
    ("ensemble.ensemble_mean", "s"),
    ("ensemble.ensemble_mean", "bytes_in"),
    ("ensemble.argmax_labels", "s"),
    ("uncertainty.uncertainty_score", "calls"),
    ("uncertainty.uncertainty_score", "self_s"),
    ("uncertainty.pixel_entropy", "calls"),
    ("uncertainty.pixel_entropy", "s"),
    ("uncertainty.contour_normalizer", "s"),
    ("metrics.CalibrationAccumulator.add", "s"),
    ("metrics.dice", "s"),
    ("metrics.uncertainty_dice_table", "s"),
    ("arrayio.read_array", "calls"),
    ("arrayio.read_array", "s"),
    ("arrayio.read_array", "bytes"),
    ("arrayio.write_array", "calls"),
    ("arrayio.write_array", "s"),
    ("arrayio.write_array", "bytes"),
    ("arrayio.write_pgm", "calls"),
    ("arrayio.write_pgm", "s"),
    ("selection.find_cycle_peaks", "s"),
    ("pipeline.run_pipeline", "s"),
    ("pipeline.run_pipeline", "self_s"),
)
UNITS = {"calls": "count", "s": "s", "self_s": "s", "bytes": "bytes", "bytes_in": "bytes"}
# (metric, module in ``python -X importtime`` output), from the run command
IMPORT_METRICS = (
    ("import.uqseg_cli_s", "uqseg.cli"),
    ("import.scipy_stats_s", "scipy.stats"),
    ("import.numpy_s", "numpy"),
)


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {name: "s" for name, _ in IMPORT_METRICS}
    units.update({f"{span}.{stat}": UNITS[stat] for span, stat in SPAN_METRICS})
    units["arrays.validate_probabilities.calls_per_case"] = "count"
    units["reports.s"] = "s"
    units["trace.overhead_frac"] = "frac"
    return units


@dataclass
class Child:
    """One finished uqseg command."""

    rc: int
    wall_s: float  # spawn to exit
    stderr: str
    setup_s: float = 0.0  # spawn until uqseg.cli is imported
    main_s: float = 0.0  # the main() call
    rss_mb: float = 0.0  # peak RSS of the child since exec
    spans: list | None = None


def layer_values(train, run, cases):
    """Per-layer metrics of one traced repetition (toy-train plus run)."""
    stats = {}
    for child in (train, run):
        for name, s in aggregate(child.spans).items():
            total = stats.setdefault(name, dict.fromkeys(s, 0))
            for key, value in s.items():
                total[key] += value
    values = {name: import_time(run.stderr, module) for name, module in IMPORT_METRICS}
    for span, stat in SPAN_METRICS:
        key = "bytes" if stat == "bytes_in" else stat
        values[f"{span}.{stat}"] = stats.get(span, {}).get(key, 0)
    validate = aggregate(run.spans).get("arrays.validate_probabilities", {"calls": 0})
    values["arrays.validate_probabilities.calls_per_case"] = validate["calls"] / cases
    values["reports.s"] = module_time(train.spans, "reports") + module_time(run.spans, "reports")
    return values


class Bench:
    """One benchmark run: its work directory, samples and failure tally."""

    def __init__(self, root, workload, seed, seconds, trace, work=None):
        self.root = Path(root).resolve()
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = Path(work) if work else self.root / WORK
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ)
        paths = [str(self.root / "src"), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self.untraced = []  # ([toy-train Child, ...], [run Child, ...]) per repetition
        self.traced = []
        self.inputs = None
        self.case_ids = []
        self.meta = {}
        self._children = 0

    # ------------------------------------------------------------ processes

    def spawn(self, args, traced=False):
        """Run ``uqseg ARGS`` in a fresh child and wait for it."""
        n = self._children
        self._children += 1
        files = {k: self.work / f"child{n}.{k}" for k in ("timing", "spans", "out", "err")}
        argv = [sys.executable]
        if traced:
            argv += ["-X", "importtime"]
        argv += [str(BENCH / "child.py"), str(files["timing"])]
        if traced:
            argv += ["--spans", str(files["spans"])]
        argv += ["--", *map(str, args)]
        timeout = max(1.0, min(CHILD_TIMEOUT_S, self.deadline - time.perf_counter()))
        with open(files["out"], "wb") as out, open(files["err"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, _ = os.wait4(proc.pid, 0)
                end = time.perf_counter()
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        stderr = files["err"].read_text(errors="replace")
        child = Child(proc.returncode, end - start, stderr)
        if child.rc == 0:
            stamps = json.loads(files["timing"].read_text())
            child.setup_s = stamps["ready"] - start
            child.main_s = stamps["main_end"] - stamps["main_start"]
            child.rss_mb = stamps["peak_rss_kib"] / 1024.0
            if traced:
                trace = json.loads(files["spans"].read_text())
                child.spans = trace["spans"]
                if trace["missing"]:
                    self.meta["untraced_targets"] = trace["missing"]
        for path in files.values():
            path.unlink(missing_ok=True)
        return child

    def command(self, args, traced=False):
        child = self.spawn(args, traced)
        if child.rc != 0:
            tail = child.stderr.strip().splitlines()[-3:]
            raise CheckFailed(f"exit {child.rc}: {' | '.join(tail)}")
        return child

    def operation(self, kind, fn):
        """Count one operation; a failure is recorded and the run goes on."""
        self.attempted += 1
        try:
            return fn()
        except CheckFailed as exc:
            reason = str(exc)
        except Exception:  # any failure of the command or its check counts
            reason = traceback.format_exc(limit=-2).strip().replace("\n", " | ")
        self.failed += 1
        self.problems.append(f"{kind}: {reason}")
        return None

    def same(self, what, digest):
        """Outputs of ``what`` must not change across repetitions."""
        first = self.digests.setdefault(what, digest)
        if digest != first:
            raise CheckFailed(f"{what} differ from the first repetition's")

    # ---------------------------------------------------------- repetitions

    def train(self, outdir, traced):
        args = ["toy-train", *self.workload.train_args, "--seed", self.seed, "--outdir", outdir]
        child = self.command(args, traced)
        self.same("toy-train outputs", tree_digest(outdir))
        return child

    def build_inputs(self):
        source = self.work / "train0"
        if self.workload.cases:
            self.inputs = self.work / "inputs"
            generate_inputs(self.workload, self.seed, source, self.inputs)
            shutil.rmtree(source)
        else:
            self.inputs = source
        self.case_ids = sorted(p.name for p in (self.inputs / "predictions").iterdir())
        return True

    def run(self, outdir, traced, first):
        config = outdir.with_suffix(".cfg")
        write_config(self.workload, self.inputs, outdir, config)
        child = self.command(["run", "--config", config], traced)
        self.same("run outputs", tree_digest(outdir, ".csv"))
        if first:
            classes = self.workload.classes
            check_summary(outdir / "summary.csv", len(self.case_ids), classes)
            check_case(self.inputs, outdir, self.case_ids[0], classes)
            if self.workload.name == "demo2d" and self.seed == GOLDEN_SEED:
                check_golden(outdir / "summary.csv", self.root / GOLDEN)
        return child

    def repetition(self, i, traced):
        """``workload.trains`` toy-trains, then ``workload.runs`` runs.

        Returns the seconds the commands took, None when inputs could not
        be built.
        """
        trains = []
        for k in range(self.workload.trains):
            outdir = self.work / (f"train{i}" if k == 0 else f"train{i}_{k}")
            trains.append(self.operation("toy-train", lambda: self.train(outdir, traced)))
            if k > 0:
                shutil.rmtree(outdir, ignore_errors=True)
        if i == 0:
            start = time.perf_counter()
            built = trains[0] is not None and self.operation("generate", self.build_inputs)
            self.meta["generate_s"] = time.perf_counter() - start
            if not built:
                return None
        runs = []
        for j in range(self.workload.runs):
            outdir = self.work / f"analysis{i}_{j}"
            runs.append(self.operation("run", lambda: self.run(outdir, traced, i == j == 0)))
            shutil.rmtree(outdir, ignore_errors=True)
        trained = [t for t in trains if t is not None]
        done = [r for r in runs if r is not None]
        if trained and done:
            (self.traced if traced else self.untraced).append((trained, done))
        if i > 0 or self.workload.cases:
            shutil.rmtree(self.work / f"train{i}", ignore_errors=True)
        return sum(c.wall_s for c in (*trains, *runs) if c is not None)

    def measure(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir()
        try:
            # untimed warm-up: page cache and lazy imports, as a user's second call
            self.operation("warm-up", lambda: self.command(["info"]))
            # traced runs alternate with untraced ones; each kind gets MIN_REPS
            min_reps = 2 * MIN_REPS if self.trace else MIN_REPS
            used, last, i = 0.0, 0.0, 0
            while i < min_reps or used < self.seconds:
                if i >= min_reps and time.perf_counter() + last > self.deadline:
                    break
                last = self.repetition(i, traced=self.trace and i % 2 == 1)
                if last is None:
                    break
                used += last
                i += 1
            self.meta["repetitions"] = i
            self.meta["command_s"] = used
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    # -------------------------------------------------------------- metrics

    def end_to_end(self):
        if not self.untraced:
            return {}
        trains = [t for trained, _ in self.untraced for t in trained]
        runs = [r for _, done in self.untraced for r in done]
        samples = {
            "setup_s": [c.setup_s for c in trains + runs],
            "run_s": [c.wall_s for c in runs],
            "pipeline_s": [c.main_s for c in runs],
            "run_peak_rss_mb": [c.rss_mb for c in runs],
            "train_s": [c.wall_s for c in trains],
            "train_peak_rss_mb": [c.rss_mb for c in trains],
        }
        self.meta["samples"] = samples
        return {name: (statistics.median(samples[name]), unit) for name, unit in END_TO_END}

    def per_layer(self):
        if not self.traced or not self.untraced:
            return {}
        reps = [layer_values(t[0], done[0], len(self.case_ids)) for t, done in self.traced]
        units = per_layer_units()

        def counts_repeat():
            if len(reps) < MIN_REPS:
                raise CheckFailed(f"{len(reps)} traced repetitions, counts need {MIN_REPS}")
            for name, unit in units.items():
                if unit in ("count", "bytes") and len({rep[name] for rep in reps}) > 1:
                    raise CheckFailed(f"{name} differs between traced repetitions")

        self.operation("trace counts", counts_repeat)
        traced_main = statistics.median(r.main_s for _, done in self.traced for r in done)
        plain_main = statistics.median(r.main_s for _, done in self.untraced for r in done)
        out = {}
        for name, unit in units.items():
            if name == "trace.overhead_frac":
                out[name] = (traced_main / plain_main - 1.0, unit)
            elif unit in ("count", "bytes"):
                out[name] = (reps[0][name], unit)
            else:
                out[name] = (statistics.median(rep[name] for rep in reps), unit)
        return out


def environment(root):
    """Machine and code facts recorded next to every result."""
    import numpy as np

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    try:
        import tomllib

        project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
        deps = len(project.get("dependencies", []))
    except (ImportError, OSError, KeyError, ValueError):
        deps = None
    src = root / "src" / "uqseg"
    lines = sum(len(p.read_text().splitlines()) for p in src.rglob("*.py"))
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas_threads_env": {k: os.environ.get(k) for k in thread_vars},
        "page_cache": "warm: inputs are written just before they are read; caches are never dropped",
        "driver": "one command at a time from one driver process",
        "src_uqseg_lines": lines,
        "runtime_dependencies": deps,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "uqseg" / "cli.py").is_file():
        sys.stderr.write(f"error: no src/uqseg/cli.py under {root}; run from the repository root\n")
        return 2
    sys.path.insert(0, str(root / "src"))
    bench = Bench(root, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    bench.meta["environment"] = environment(root)
    bench.measure()
    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    failed_frac = bench.failed / max(bench.attempted, 1)

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"repetitions {bench.meta.get('repetitions', 0)}  "
        f"generate_s {bench.meta.get('generate_s', 0.0):.3f} (not a metric)"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {unit}")
    if not args.trace and bench.untraced:
        pipeline_s = statistics.median(bench.meta["samples"]["pipeline_s"])
        print(f"  {'pipeline_s':<46} {pipeline_s:>14.6g} s (not gated)")
    print(f"  {'failed_frac':<46} {failed_frac:>14.6g} frac ({bench.failed}/{bench.attempted})")
    for problem in bench.problems:
        print(f"  FAILED {problem}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print("meta " + json.dumps(bench.meta, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
