"""The benchmark's workloads and the generator that builds their inputs.

Every workload starts with ``uqseg toy-train``. On ``demo2d`` that is the
README walkthrough and its output is the ``run`` input as it stands. On
``volume3d`` and ``many2d`` a short training run only supplies six
checkpoints (two 30-epoch cycles, three saved per cycle, all of them
selected) and ``generate_inputs`` predicts fresh toy scenes with them. The
program only ever sees the generated files; the seed stays here.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

README_TRAIN = (
    "--cases", "16", "--test-cases", "4", "--shape", "64x64", "--classes", "3",
    "--noise", "0.1", "--t0", "100", "--eta", "2", "--lr-max", "2.0",
    "--lr-min", "0.0001", "--epochs", "200",
)
README_CONFIG = (
    ("t0", 100), ("eta", 2), ("lr_max", 2.0), ("lr_min", 0.0001), ("total_epochs", 200),
)

# Checkpoint source of the generated workloads: two 30-epoch cycles whose
# 3-epoch windows save exactly the six checkpoints the pipeline then selects
# (the low peak ratio keeps a slow first cycle from being skipped).
SOURCE_TRAIN = (
    "--cases", "8", "--test-cases", "2", "--shape", "64x64",
    "--noise", "0.1", "--t0", "30", "--eta", "1", "--lr-max", "2.0",
    "--lr-min", "0.0001", "--epochs", "60", "--per-cycle", "3",
    "--window-fraction", "0.09",
)
SOURCE_CONFIG = (
    ("t0", 30), ("eta", 1), ("lr_max", 2.0), ("lr_min", 0.0001), ("total_epochs", 60),
    ("per_cycle", 3), ("window_fraction", 0.09), ("min_peak_ratio", 0.01),
)
NOISE_STD = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    classes: int
    train_args: tuple  # toy-train flags other than --seed and --outdir
    config: tuple  # (key, value) lines of the run config besides the paths
    cases: int = 0  # generated cases; 0 runs on toy-train's own test split
    depth: int = 0  # toy slices stacked into one volume per case; 0 keeps 2D
    shape: tuple = (64, 64)
    trains: int = 1  # toy-train commands per repetition
    runs: int = 1  # run commands per repetition


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "demo2d",
            "the README walkthrough every user runs first: toy-train time and CLI import dominate",
            classes=3,
            train_args=README_TRAIN,
            config=README_CONFIG,
            runs=3,
        ),
        Workload(
            "volume3d",
            "few large c=4 volumes: fuse/entropy/score/Dice/ECE kernels and large array reads dominate",
            classes=4,
            train_args=(*SOURCE_TRAIN, "--classes", "4"),
            config=SOURCE_CONFIG,
            cases=3,
            trains=2,  # its ~2 s toy-train needs more samples than one per repetition
            depth=48,
            shape=(192, 192),
        ),
        Workload(
            "many2d",
            "many small 2D cases: per-call overhead, per-file IO and the per-case loop dominate",
            classes=3,
            train_args=(*SOURCE_TRAIN, "--classes", "3"),
            config=SOURCE_CONFIG,
            cases=1000,
        ),
    )
}


def data_seed(seed):
    """Scene seed of the generated cases, independent of the training scenes."""
    return int(np.random.SeedSequence((seed, 1)).generate_state(1)[0])


def generate_inputs(workload, seed, source, dest):
    """Write trace.csv, cases/ and predictions/ for ``workload`` under ``dest``.

    ``source`` is a toy-train output directory; its checkpoints predict
    ``workload.cases`` fresh scenes (``depth`` stacked slices each). The
    result depends only on ``(workload, seed)`` and the source checkpoints.
    """
    from uqseg.arrayio import read_array, write_array
    from uqseg.toy import case_features, generate_dataset

    source, dest = Path(source), Path(dest)
    weights = {
        path.stem: read_array(path).astype(np.float64)
        for path in sorted((source / "checkpoints").glob("*.uqsg"))
    }
    slices = max(workload.depth, 1)
    scenes = generate_dataset(
        data_seed(seed),
        workload.cases * slices,
        shape=workload.shape,
        class_count=workload.classes,
        noise_std=NOISE_STD,
    )
    (dest / "cases").mkdir(parents=True)
    shutil.copyfile(source / "trace.csv", dest / "trace.csv")
    for i in range(workload.cases):
        case_id = f"case{i:04d}"
        group = scenes[i * slices : (i + 1) * slices]
        labels = np.stack([s.labels for s in group]) if workload.depth else group[0].labels
        write_array(dest / "cases" / f"{case_id}_labels.uqsg", labels)
        case_dir = dest / "predictions" / case_id
        case_dir.mkdir(parents=True)
        features = [case_features(s.image).T for s in group]
        for cid, w in weights.items():
            member = np.empty((workload.classes, slices, *workload.shape), np.float32)
            for k, f in enumerate(features):
                member[:, k] = softmax_posterior(f, w).reshape(-1, *workload.shape)
            if not workload.depth:
                member = member[:, 0]
            write_array(case_dir / f"{cid}.uqsg", member)


def softmax_posterior(features_t, weights):
    """``uqseg.toy.predict`` on transposed features, (c, P) laid out, so
    the six checkpoints of a case share one feature pass per scene."""
    logits = weights @ features_t
    logits -= logits.max(axis=0)
    exp = np.exp(logits)
    return exp / exp.sum(axis=0)


def write_config(workload, inputs, outdir, path):
    """The flat key=value config of ``uqseg run`` over ``inputs``."""
    inputs = Path(inputs)
    lines = [
        f"trace = {inputs / 'trace.csv'}",
        f"predictions_dir = {inputs / 'predictions'}",
        f"cases_dir = {inputs / 'cases'}",
        f"outdir = {outdir}",
    ]
    lines += [f"{key} = {value}" for key, value in workload.config]
    Path(path).write_text("\n".join(lines) + "\n")
