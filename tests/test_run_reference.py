"""``run`` against a whole-array reference, over every output and every option.

The reference builds a run's outputs from the whole-array library functions:
``read_array`` of each member in manifest order, ``ensemble_mean`` cast to
float32, ``pixel_entropy`` and ``entropy_to_gray`` for the maps, each class's
score from its whole mask ringed by ``contour_normalizer``
(``uncertainty_score`` must agree), ``dice`` on ``argmax_labels`` of the mean,
and ``csv_line`` for every row. ``run`` pools the ECE bins of every case into
one accumulator, so the reference adds each case's pixel blocks as
``metrics.ece`` does for one posterior. The sums that ``run`` takes per pixel
block (a case's entropy total, the ECE bin sums) are taken over the same
blocks and added left to right, so every byte must match, at any block size.
Some member pixels are one-hot with their zeros written as ``-0.0``; the
reference's ``ensemble_mean`` writes ``+0.0`` there, also for one member.
"""

from functools import reduce
from operator import add
from unittest.mock import patch

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import uqseg.arrays
from uqseg.arrayio import entropy_to_gray, read_array, write_array, write_pgm
from uqseg.arrays import pixel_blocks
from uqseg.cli import main
from uqseg.ensemble import argmax_labels, ensemble_mean
from uqseg.errors import ValidationError
from uqseg.metrics import CalibrationAccumulator, dice, uncertainty_dice_table
from uqseg.reports import DICE_HEADER, SCORE_HEADER, SUMMARY_HEADER, csv_line, write_ece_csv
from uqseg.uncertainty import (FOREGROUND_THRESHOLD, UncertaintyScore, contour_normalizer,
                               pixel_entropy, uncertainty_score)

OUTPUTS = ("scores.csv", "dice.csv", "ece.csv", "summary.csv")


def in_order(values):
    """The float sum of ``values`` added left to right: not ``sum``, which compensates
    from Python 3.12 on."""
    return reduce(add, values, 0.0)


def whole_score(mean, k, contour):
    """Class ``k``'s score from its whole mask and ring; each entropy sum per pixel block."""
    flat, ring = mean.reshape(len(mean), -1), contour_normalizer(mean[k] > FOREGROUND_THRESHOLD)
    ring = ring.reshape(-1)
    blocks = (flat[:, sl][:, ring[sl]] if contour else flat[:, sl]
              for sl in pixel_blocks(ring.size))
    total = in_order(float(pixel_entropy(rows).sum()) for rows in blocks)
    pixels = int(np.count_nonzero(ring))
    score = UncertaintyScore(k, total, pixels, total / pixels if pixels else 0.0, not pixels)
    assert uncertainty_score(mean, k, restrict_to_contour=contour) == score
    return score


def reference(inputs, ids, case_ids, out, classes, region, foreground_only, bins):
    """Write into ``out`` the maps and the four CSVs that ``run`` writes for these inputs."""
    (out / "mean").mkdir(parents=True)
    (out / "entropy").mkdir()
    acc = CalibrationAccumulator(bins)
    score_lines, dice_lines = [f"case_id,{SCORE_HEADER}"], [f"case_id,{DICE_HEADER}"]
    pairs, case_lines, entropy_sum, entropy_count = [], [], 0.0, 0
    for case_id in case_ids:
        members = (read_array(inputs / "predictions" / case_id / f"{cid}.uqsg") for cid in ids)
        mean = ensemble_mean(members).astype(np.float32)
        gt = read_array(inputs / "cases" / f"{case_id}_labels.uqsg")
        c, h = len(mean), pixel_entropy(mean)
        write_array(out / "mean" / f"{case_id}.uqsg", mean)
        write_array(out / "entropy" / f"{case_id}.uqsg", h.astype(np.float32))
        write_pgm(out / "entropy" / f"{case_id}.pgm", entropy_to_gray(h, c))
        flat, truth = mean.reshape(c, -1), gt.reshape(-1)
        for sl in pixel_blocks(truth.size):
            acc.add(flat[:, sl], truth[sl], argmax_labels(flat[:, sl]),
                    foreground_only=foreground_only)
        entropy_sum += in_order(float(h.reshape(-1)[sl].sum()) for sl in pixel_blocks(truth.size))
        entropy_count += truth.size
        for k in classes or range(1, c):
            s = whole_score(mean, k, region == "contour")
            d = dice(argmax_labels(mean), gt, k)
            score_lines.append(csv_line(case_id, *vars(s).values()))
            dice_lines.append(csv_line(case_id, *vars(d).values()))
            pairs.append((s, d))
            case_lines += [csv_line("case", case_id, k, "uncertainty_score", s.score),
                           csv_line("case", case_id, k, "dice", d.dice)]
    report = acc.report()
    table = uncertainty_dice_table(pairs)
    first = ("spearman_note", table.note) if table.spearman is None else (
        "spearman_score_dice", table.spearman)
    dataset = [first, ("ece_percent", report.ece),
               ("avg_entropy_bits", entropy_sum / entropy_count), ("h_total_region", region)]
    summary = [SUMMARY_HEADER, *case_lines, *(csv_line("dataset", "", "", *r) for r in dataset)]
    for name, lines in (("scores.csv", score_lines), ("dice.csv", dice_lines),
                        ("summary.csv", summary)):
        (out / name).write_text("\n".join(lines) + "\n")
    write_ece_csv(out / "ece.csv", report)


def tree(root, *names):
    """The bytes of the maps under ``root`` and of the files ``names``, by relative path."""
    paths = [*(root / "mean").iterdir(), *(root / "entropy").iterdir(), *(root / n for n in names)]
    return {str(p.relative_to(root)): p.read_bytes() for p in paths}


@st.composite
def runs(draw):
    spatial = draw(st.one_of(st.tuples(st.integers(1, 12), st.integers(1, 12)),
                             st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6))))
    n, width, plane = int(np.prod(spatial)), spatial[-1], spatial[-1] * spatial[-2]
    c = draw(st.integers(2, 5))
    # blocks shorter than one image row, of one row, ending on a slice boundary, and any other
    block = draw(st.one_of(st.sampled_from([1, max(width - 1, 1), width, width + 1, plane, n + 1]),
                           st.integers(1, n + 1)))
    classes = draw(st.one_of(st.just(()), st.lists(st.integers(1, c - 1), min_size=1,
                                                   unique=True).map(tuple)))
    return dict(spatial=spatial, c=c, block=block, classes=classes,
                members=draw(st.integers(1, 4)), cases=draw(st.integers(1, 3)),
                region=draw(st.sampled_from(["image", "contour"])),
                foreground_only=draw(st.booleans()), bins=draw(st.integers(1, 12)),
                seed=draw(st.integers(0, 2**32 - 1)))


def write_inputs(root, spatial, c, members, cases, seed, **_):
    """A trace whose ``members`` 2-epoch cycles select ep1, ep3, ...; the members of each
    case, from small integer logits (so ties and 0.5 exactly occur), with about a quarter
    of their pixels one-hot, their zeros written as ``-0.0``; uint8 labels."""
    rng = np.random.default_rng(seed)
    epochs = 2 * members
    (root / "trace.csv").write_text("epoch,lr,val_metric,checkpoint_id\n" + "".join(
        f"{e},0.1,{0.5 + 0.1 * (e % 2)},ep{e}\n" for e in range(epochs)))
    ids = [f"ep{e}" for e in range(1, epochs, 2)]
    case_ids = [f"case{i:04d}" for i in range(cases)]
    (root / "cases").mkdir()
    for case_id in case_ids:
        (root / "predictions" / case_id).mkdir(parents=True)
        for cid in ids:
            logits = rng.integers(-2, 3, size=(c, *spatial)).astype(np.float64)
            p = (np.exp(logits) / np.exp(logits).sum(axis=0)).astype(np.float32)
            hot = rng.random(spatial) < 0.25
            p[:, hot] = np.where(np.arange(c)[:, None] == rng.integers(0, c, hot.sum()), 1.0, -0.0)
            write_array(root / "predictions" / case_id / f"{cid}.uqsg", p)
        write_array(root / "cases" / f"{case_id}_labels.uqsg",
                    rng.integers(0, c, size=spatial).astype(np.uint8))
    return ids, case_ids, epochs


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=runs())
def test_run_writes_the_bytes_of_the_whole_array_reference(tmp_path_factory, case):
    root = tmp_path_factory.mktemp("ref")
    ids, case_ids, epochs = write_inputs(root, **case)
    config = root / "run.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in (
        ("trace", root / "trace.csv"), ("predictions_dir", root / "predictions"),
        ("cases_dir", root / "cases"), ("outdir", root / "out"), ("t0", 2), ("eta", 1),
        ("total_epochs", epochs), ("per_cycle", 1),
        ("classes", ",".join(map(str, case["classes"]))), ("entropy_region", case["region"]),
        ("ece_foreground_only", case["foreground_only"]), ("bins", case["bins"]))))
    with patch.object(uqseg.arrays, "BLOCK_PIXELS", case["block"]):
        code = main(["run", "--config", str(config)])
        try:
            reference(root, ids, case_ids, root / "ref", case["classes"], case["region"],
                      case["foreground_only"], case["bins"])
        except ValidationError:  # ECE over the foreground of labels that hold none
            assert case["foreground_only"] and code == 2
            assert not (root / "out").exists()
            return
    assert code == 0
    assert len((root / "out" / "manifest.csv").read_text().splitlines()) == 1 + len(ids)
    assert tree(root / "out", *OUTPUTS) == tree(root / "ref", *OUTPUTS)
