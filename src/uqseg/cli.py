"""Command-line entry point exposing every pipeline stage as a subcommand.

Exit codes: 0 success, 2 validation error, 3 IO/format error, 4 numeric
failure. Every subcommand is a pure function of its input files and flags;
it returns on success and raises an error that carries its exit code.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__, reports
from .arrayio import FORMAT_VERSION, ArrayFile, entropy_to_gray, write_pgm
from .arrays import SIMPLEX_TOLERANCE
from .ensemble import argmax_labels
from .errors import UqsegError, ValidationError
from .metrics import DEFAULT_ECE_BINS, CalibrationAccumulator, dice
from .pipeline import (
    FIELD_PARSERS, PipelineConfig, entropy_block, fuse_blocks, publish, read_labels,
    run_pipeline, select_checkpoints, settings_of, write_summary,
)
from .scheduler import SgdrConfig, schedule_rows
from .selection import SelectionPolicy, read_selection
from .toy import generate_dataset, run_toy_training, write_cases
from .uncertainty import FOREGROUND_THRESHOLD, check_classes, class_scores, pixel_entropy

_CASE_COLUMNS = {"case_id": str, "class_id": int, "uncertainty_score": float, "dice": float}


def _parse_classes(text):
    try:
        classes = FIELD_PARSERS[tuple](text)
    except ValueError:
        raise ValidationError(f"bad class list {text!r}; expected e.g. 1,2,3")
    if not classes:
        raise ValidationError("empty class list")
    return classes


def _parse_shape(text):
    try:
        h, w = (int(v) for v in text.split("x"))
    except ValueError:
        raise ValidationError(f"bad shape {text!r}; expected HxW like 64x64")
    return (h, w)


def _emit(lines, out_path):
    if out_path:
        reports.write_lines(out_path, lines)
    else:
        sys.stdout.write("\n".join(lines) + "\n")


def _add_settings_args(p, *settings, skip=()):
    """One flag per field of each settings dataclass, typed and defaulted by it, but none
    for the fields in ``skip``, which the command never reads (``settings_of`` defaults them)."""
    for f in [f for cls in settings for f in fields(cls) if f.name not in skip]:
        flag = "--epochs" if f.name == "total_epochs" else "--" + f.name.replace("_", "-")
        p.add_argument(flag, dest=f.name, type=FIELD_PARSERS[f.type], default=f.default)


def _add_scene_args(p, cases, cases_help):
    """The flags of the synthetic scenes that toy-gen and toy-train draw."""
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--cases", type=int, default=cases, help=cases_help)
    p.add_argument("--shape", default="64x64")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--noise", type=float, default=0.1)


def check_output(out, inputs):
    """ValidationError if the file ``out`` (None: stdout) is one of the files ``inputs``."""
    for path in inputs:
        if out and os.path.exists(out) and os.path.exists(path) and os.path.samefile(out, path):
            raise ValidationError(f"output {out} is the input {path}; name another output")


def cmd_lr_schedule(args):
    _emit(["epoch,cycle,lr"] + [reports.csv_line(*row)
                                for row in schedule_rows(settings_of(SgdrConfig, args))], args.out)


def cmd_select(args):
    select_checkpoints(args.trace, args, args.out)


def cmd_fuse(args):
    paths = [Path(args.inputs) / f"{cid}.uqsg"
             for cid in read_selection(args.manifest).checkpoint_ids]
    with fuse_blocks(paths) as (first, blocks):
        check_output(args.out, paths)
        with ArrayFile(args.out, first.shape, np.float32) as f:
            for pixels, rows in blocks:
                f.write(pixels, rows)
                del rows  # before the next block is read


def cmd_entropy(args):
    with fuse_blocks([args.input]) as (f, blocks):
        if args.pgm is not None:  # before ``--out`` is created, so a failure here writes nothing
            check_output(pgm := Path(args.pgm) / f"{Path(args.out).stem}.pgm", [args.input])
            if os.path.realpath(pgm) == os.path.realpath(args.out):
                raise ValidationError(f"PGM {pgm} would replace --out; name another output")
            gray = np.empty(f.n, dtype=np.uint8)  # the one whole array, and only for the PGM
        with ArrayFile(args.out, f.shape[1:], np.float32) as e:
            for pixels, rows in blocks:
                h = entropy_block(e, pixels, rows)
                if args.pgm is not None:
                    gray[pixels] = entropy_to_gray(h, len(rows))
                del rows, h  # before the next block is read
            if args.pgm is not None:  # after the last block, so a failure removes ``--out``
                Path(args.pgm).mkdir(parents=True, exist_ok=True)
                write_pgm(pgm, gray.reshape(f.shape[1:]))


def cmd_score(args):
    classes = check_classes(_parse_classes(args.classes))  # before any file is read
    with fuse_blocks([args.input]) as (f, blocks):
        check_classes(classes, f.shape[0])  # only the upper bound waits for c
        h_total = 0.0
        for pixels, rows in blocks:  # validates every block before a mask is made
            h_total += 0.0 if args.contour_entropy else float(pixel_entropy(rows).sum())
            del rows  # before the next block is read
        scores = class_scores(f.shape[1:], classes, h_total, f.rows, args.contour_entropy)
    _emit([reports.SCORE_HEADER] + [reports.csv_line(*vars(s).values()) for s in scores], args.out)


def cmd_dice(args):
    classes = _parse_classes(args.classes)  # before any file is read, so a bad flag wins
    if len(set(classes)) < len(classes) or not all(0 <= k < 256 for k in classes):
        raise ValidationError(f"label codes must be in [0, 256), each once; got {args.classes!r}")
    pred = read_labels(args.pred, 256)
    gt = read_labels(args.gt, 256)
    if pred.shape != gt.shape:
        raise ValidationError(
            f"{args.pred}: labels shape {pred.shape} does not match {args.gt} shape {gt.shape}"
        )
    _emit([reports.DICE_HEADER] + [reports.csv_line(*vars(dice(pred, gt, k)).values())
                                   for k in classes], args.out)


def cmd_ece(args):
    acc = CalibrationAccumulator(args.bins)  # before any file is read, so a bad flag wins
    with fuse_blocks([args.pred]) as (f, blocks):
        gt = read_labels(args.gt, f.shape[0], f.shape).reshape(-1)
        for pixels, rows in blocks:
            acc.add(rows, gt[pixels], argmax_labels(rows), foreground_only=args.foreground_only)
            del rows  # before the next block is read
    reports.write_ece_csv(args.out, acc.report())


def cmd_report(args):
    write_summary(args.out, reports.read_csv(args.cases, _CASE_COLUMNS))


def cmd_toy_gen(args):
    cases = generate_dataset(
        args.seed, args.cases, shape=_parse_shape(args.shape), class_count=args.classes,
        noise_std=args.noise,
    )
    with publish(args.outdir) as out:
        write_cases(cases, out)


def cmd_toy_train(args):
    run_toy_training(
        args.outdir, seed=args.seed, n_train=args.cases, n_test=args.test_cases,
        shape=_parse_shape(args.shape), class_count=args.classes,
        cfg=settings_of(SgdrConfig, args), policy=settings_of(SelectionPolicy, args),
        noise_std=args.noise,
    )


def cmd_run(args):
    summary = run_pipeline(PipelineConfig.from_file(args.config))
    sys.stdout.write(f"summary written to {summary}\n")


def cmd_info(args):
    info = {
        "version": __version__,
        "array_format_version": FORMAT_VERSION,
        "defaults": {
            **asdict(SgdrConfig()),
            **asdict(SelectionPolicy()),
            "foreground_threshold": FOREGROUND_THRESHOLD,
            "simplex_tolerance": SIMPLEX_TOLERANCE,
            "ece_bins": DEFAULT_ECE_BINS,
        },
        "exit_codes": {"success": 0, "validation": 2, "io": 3, "numeric": 4},
    }
    if args.json:
        sys.stdout.write(json.dumps(info, indent=2, sort_keys=True) + "\n")
    else:
        _emit([
            f"uqseg {info['version']}",
            f"array format version: {info['array_format_version']}",
            *(f"default {key}: {value}" for key, value in info["defaults"].items()),
            "exit codes: 0 success, 2 validation, 3 io, 4 numeric",
        ], None)


def _command(sub, name, fn, help_text, *reads):
    """The subcommand ``name`` of ``fn``; ``reads`` are the dests of its flags that name
    the files it reads, none of which ``main`` lets its ``--out`` name."""
    p = sub.add_parser(name, help=help_text)
    p.set_defaults(fn=fn, reads=reads)
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="uqseg",
        description="Checkpoint-ensemble uncertainty quantification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "lr-schedule", cmd_lr_schedule, "emit the warm-restart schedule as CSV")
    _add_settings_args(p, SgdrConfig)
    p.add_argument("--out")

    p = _command(sub, "select-checkpoints", cmd_select, "pick peak checkpoints per cycle", "trace")
    p.add_argument("--trace", required=True)
    _add_settings_args(p, SgdrConfig, SelectionPolicy, skip=("lr_max", "lr_min"))
    p.add_argument("--out", required=True)

    p = _command(sub, "fuse", cmd_fuse, "average member posteriors from a manifest", "manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--inputs", required=True, help="dir of <checkpoint_id>.uqsg files")
    p.add_argument("--out", required=True)

    p = _command(sub, "entropy", cmd_entropy, "per-pixel entropy map of a posterior", "input")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pgm", help="also write the 8-bit PGM image of the map here")

    p = _command(sub, "score", cmd_score, "contour-normalized per-class uncertainty scores",
                 "input")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--classes", required=True)
    p.add_argument("--out")
    p.add_argument(
        "--contour-entropy",
        action="store_true",
        help="sum entropy over the contour ring instead of the whole image",
    )

    p = _command(sub, "dice", cmd_dice, "per-class Dice between two label files", "pred", "gt")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--classes", required=True)
    p.add_argument("--out")

    p = _command(sub, "ece", cmd_ece, "expected calibration error report", "pred", "gt")
    p.add_argument("--pred", required=True, help="posterior .uqsg file")
    p.add_argument("--gt", required=True, help="label .uqsg file")
    p.add_argument("--bins", type=int, default=DEFAULT_ECE_BINS)
    p.add_argument("--out", required=True)
    p.add_argument("--foreground-only", action="store_true")

    p = _command(sub, "report", cmd_report, "score/Dice table with rank correlation", "cases")
    p.add_argument("--cases", required=True)
    p.add_argument("--out", required=True)

    p = _command(sub, "toy-gen", cmd_toy_gen, "emit a synthetic dataset")
    _add_scene_args(p, 20, None)
    p.add_argument("--outdir", required=True)

    p = _command(sub, "toy-train", cmd_toy_train, "train the toy model and emit artifacts")
    _add_scene_args(p, 16, "training cases")
    p.add_argument("--test-cases", type=int, default=4)
    _add_settings_args(p, SgdrConfig, SelectionPolicy, skip=("min_peak_ratio",))
    p.add_argument("--outdir", required=True)

    p = _command(sub, "run", cmd_run, "run the full analysis pipeline from a config")
    p.add_argument("--config", required=True)

    p = _command(sub, "info", cmd_info, "print version, format, and defaults")
    p.add_argument("--json", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_output(vars(args).get("out"), [getattr(args, dest) for dest in args.reads])
        return args.fn(args) or 0
    except (UqsegError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return getattr(exc, "exit_code", 3)


if __name__ == "__main__":
    sys.exit(main())
