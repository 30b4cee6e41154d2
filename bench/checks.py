"""Output checks of the benchmark, independent of the uqseg code under test.

Arrays are parsed here with a reader of the documented ``.uqsg`` layout, and
the fused mean, entropy map and Dice of one case are recomputed from the
member files with plain numpy.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

_DTYPES = {0: "<f4", 1: "u1", 2: "<i4"}
MEAN_TOL = 1e-6  # float32 storage of a float64 mean of probabilities
ENTROPY_TOL = 1e-5  # float32 storage of entropies up to log2(c) bits
DICE_TOL = 1e-8  # nine significant digits in summary.csv


class CheckFailed(Exception):
    """An output differs from what the benchmark expects."""


def read_uqsg(path):
    data = Path(path).read_bytes()
    magic, _version, code, rank = struct.unpack_from("<4sHBB", data)
    if magic != b"UQSG" or code not in _DTYPES:
        raise CheckFailed(f"{path}: not a uqsg array file")
    shape = struct.unpack_from(f"<{rank}I", data, 8)
    return np.frombuffer(data, dtype=_DTYPES[code], offset=8 + 4 * rank).reshape(shape)


def tree_digest(root, suffix=""):
    """sha256 over the relative paths and bytes of the files under ``root``
    whose names end in ``suffix``."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob(f"*{suffix}") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_golden(summary, golden):
    if Path(summary).read_bytes() != Path(golden).read_bytes():
        raise CheckFailed(f"{summary} differs from the golden file {golden}")


def _summary_rows(path):
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "kind,case_id,class_id,metric,value":
        raise CheckFailed(f"{path}: bad header")
    return [line.split(",") for line in lines[1:]]


def check_summary(summary, cases, classes):
    """Row count and value ranges of summary.csv."""
    rows = _summary_rows(summary)
    case_rows = [r for r in rows if r[0] == "case"]
    expected = cases * (classes - 1) * 2
    if len(case_rows) != expected:
        raise CheckFailed(f"{summary}: {len(case_rows)} case rows, expected {expected}")
    dataset = {r[3]: r[4] for r in rows if r[0] == "dataset"}
    ece = float(dataset.get("ece_percent", "nan"))
    avg_h = float(dataset.get("avg_entropy_bits", "nan"))
    if not 0.0 <= ece <= 100.0:
        raise CheckFailed(f"{summary}: ece_percent {ece} outside [0, 100]")
    if not 0.0 <= avg_h <= math.log2(classes) + ENTROPY_TOL:
        raise CheckFailed(f"{summary}: avg_entropy_bits {avg_h} outside [0, log2 {classes}]")
    for r in case_rows:
        value = float(r[4])
        if not math.isfinite(value) or (r[3] == "dice" and not 0.0 <= value <= 1.0):
            raise CheckFailed(f"{summary}: bad {r[3]} {value} for {r[1]} class {r[2]}")


def check_case(inputs, analysis, case_id, classes):
    """Recompute one case's mean, entropy map and Dice from the inputs."""
    inputs, analysis = Path(inputs), Path(analysis)
    manifest = (analysis / "manifest.csv").read_text().splitlines()[1:]
    ids = [line.split(",")[2] for line in manifest if line]
    members = [read_uqsg(inputs / "predictions" / case_id / f"{cid}.uqsg") for cid in ids]
    mean = np.mean([m.astype(np.float64) for m in members], axis=0)
    got = read_uqsg(analysis / "mean" / f"{case_id}.uqsg")
    if got.shape != mean.shape or np.abs(got - mean).max() > MEAN_TOL:
        raise CheckFailed(f"{case_id}: fused mean differs from the member average")

    with np.errstate(divide="ignore", invalid="ignore"):
        entropy = np.where(mean > 0.0, -mean * np.log2(mean), 0.0).sum(axis=0)
    got = read_uqsg(analysis / "entropy" / f"{case_id}.uqsg")
    if got.shape != entropy.shape or np.abs(got - entropy).max() > ENTROPY_TOL:
        raise CheckFailed(f"{case_id}: entropy map differs from -sum p log2 p")

    labels = read_uqsg(inputs / "cases" / f"{case_id}_labels.uqsg")
    pred = mean.argmax(axis=0)
    reported = {
        int(r[2]): float(r[4])
        for r in _summary_rows(analysis / "summary.csv")
        if r[0] == "case" and r[1] == case_id and r[3] == "dice"
    }
    for k in range(1, classes):
        p, g = pred == k, labels == k
        total = p.sum() + g.sum()
        expected = 1.0 if total == 0 else 2.0 * (p & g).sum() / total
        if k not in reported or abs(reported[k] - expected) > DICE_TOL:
            raise CheckFailed(
                f"{case_id}: class {k} Dice {reported.get(k)} in summary, expected {expected:.9g}"
            )
