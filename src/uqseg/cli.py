"""Command-line entry point exposing every pipeline stage as a subcommand.

Exit codes: 0 success, 2 validation error, 3 IO/format error, 4 numeric
failure. Every subcommand is a pure function of its input files and flags;
it returns on success and raises an error that carries its exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__, reports
from .arrayio import FORMAT_VERSION, read_array
from .arrays import SIMPLEX_TOLERANCE, validate_probabilities
from .errors import UqsegError, ValidationError
from .metrics import DEFAULT_ECE_BINS, dice, ece
from .pipeline import (
    FIELD_PARSERS, PipelineConfig, fuse_members, read_labels, run_pipeline, settings_of,
    write_entropy, write_summary,
)
from .scheduler import SgdrConfig, schedule_rows
from .selection import (
    SelectionPolicy, TrainingTrace, export_selection, find_cycle_peaks, read_selection,
)
from .toy import generate_dataset, run_toy_training, write_cases
from .uncertainty import FOREGROUND_THRESHOLD, pixel_entropy, uncertainty_score

_CASE_COLUMNS = {"case_id": str, "class_id": int, "uncertainty_score": float, "dice": float}


def _parse_classes(text):
    try:
        classes = [int(v) for v in text.split(",") if v.strip()]
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


def _read_posterior(path):
    """The posterior file at ``path``, validated once, in its own dtype."""
    return validate_probabilities(read_array(path), name=path)


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _add_settings_args(p, *settings):
    """One flag per field of each settings dataclass, typed and defaulted by it."""
    for f in [f for cls in settings for f in fields(cls)]:
        flag = "--epochs" if f.name == "total_epochs" else "--" + f.name.replace("_", "-")
        p.add_argument(flag, dest=f.name, type=FIELD_PARSERS[f.type], default=f.default)


def cmd_lr_schedule(args):
    cfg = settings_of(SgdrConfig, args)
    lines = ["epoch,cycle,lr"]
    for epoch, cycle, lr in schedule_rows(cfg):
        lines.append(f"{epoch},{cycle},{reports.fmt9(lr)}")
    _emit(lines, args.out)


def cmd_select(args):
    trace = TrainingTrace.from_csv(args.trace)
    schedule, policy = settings_of(SgdrConfig, args), settings_of(SelectionPolicy, args)
    export_selection(find_cycle_peaks(trace, schedule, policy), args.out)


def cmd_fuse(args):
    fuse_members(read_selection(args.manifest).checkpoint_ids, args.inputs, args.out)


def cmd_entropy(args):
    probs = _read_posterior(args.input)
    if args.pgm:
        Path(args.pgm).mkdir(parents=True, exist_ok=True)
    write_entropy(probs, args.out, args.pgm)


def cmd_score(args):
    probs = _read_posterior(args.input)
    classes = _parse_classes(args.classes)
    h = pixel_entropy(probs)
    scores = [
        uncertainty_score(probs, k, entropy=h, restrict_to_contour=args.contour_entropy)
        for k in classes
    ]
    _emit([reports.SCORE_HEADER] + [reports.score_row(s) for s in scores], args.out)


def cmd_dice(args):
    pred = read_labels(args.pred, 256)
    gt = read_labels(args.gt, 256)
    results = [dice(pred, gt, k) for k in _parse_classes(args.classes)]
    _emit([reports.DICE_HEADER] + [reports.dice_row(r) for r in results], args.out)


def cmd_ece(args):
    probs = _read_posterior(args.pred)
    gt = read_labels(args.gt, probs.shape[0], probs.shape)
    report = ece(probs, gt, args.bins, foreground_only=args.foreground_only)
    reports.write_ece_csv(args.out, report)


def cmd_report(args):
    write_summary(args.out, reports.read_csv(args.cases, _CASE_COLUMNS))


def cmd_toy_gen(args):
    cases = generate_dataset(
        args.seed, args.cases, shape=_parse_shape(args.shape), class_count=args.classes,
        noise_std=args.noise,
    )
    write_cases(cases, args.outdir)


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
        lines = [f"uqseg {info['version']}"]
        lines.append(f"array format version: {info['array_format_version']}")
        for key, value in info["defaults"].items():
            lines.append(f"default {key}: {value}")
        lines.append("exit codes: 0 success, 2 validation, 3 io, 4 numeric")
        sys.stdout.write("\n".join(lines) + "\n")


def _command(sub, name, fn, help_text):
    p = sub.add_parser(name, help=help_text)
    p.set_defaults(fn=fn)
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

    p = _command(sub, "select-checkpoints", cmd_select, "pick peak checkpoints per cycle")
    p.add_argument("--trace", required=True)
    _add_settings_args(p, SgdrConfig, SelectionPolicy)
    p.add_argument("--out", required=True)

    p = _command(sub, "fuse", cmd_fuse, "average member posteriors from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--inputs", required=True, help="dir of <checkpoint_id>.uqsg files")
    p.add_argument("--out", required=True)

    p = _command(sub, "entropy", cmd_entropy, "per-pixel entropy map of a posterior")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pgm", help="also write 8-bit PGM maps here")

    p = _command(sub, "score", cmd_score, "contour-normalized per-class uncertainty scores")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--classes", required=True)
    p.add_argument("--out")
    p.add_argument(
        "--contour-entropy",
        action="store_true",
        help="sum entropy over the contour ring instead of the whole image",
    )

    p = _command(sub, "dice", cmd_dice, "per-class Dice between two label files")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--classes", required=True)
    p.add_argument("--out")

    p = _command(sub, "ece", cmd_ece, "expected calibration error report")
    p.add_argument("--pred", required=True, help="posterior .uqsg file")
    p.add_argument("--gt", required=True, help="label .uqsg file")
    p.add_argument("--bins", type=int, default=DEFAULT_ECE_BINS)
    p.add_argument("--out", required=True)
    p.add_argument("--foreground-only", action="store_true")

    p = _command(sub, "report", cmd_report, "score/Dice table with rank correlation")
    p.add_argument("--cases", required=True)
    p.add_argument("--out", required=True)

    p = _command(sub, "toy-gen", cmd_toy_gen, "emit a synthetic dataset")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--cases", type=int, default=20)
    p.add_argument("--shape", default="64x64")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--outdir", required=True)

    p = _command(sub, "toy-train", cmd_toy_train, "train the toy model and emit artifacts")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--cases", type=int, default=16, help="training cases")
    p.add_argument("--test-cases", type=int, default=4)
    p.add_argument("--shape", default="64x64")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--noise", type=float, default=0.1)
    _add_settings_args(p, SgdrConfig, SelectionPolicy)
    p.add_argument("--outdir", required=True)

    p = _command(sub, "run", cmd_run, "run the full analysis pipeline from a config")
    p.add_argument("--config", required=True)

    p = _command(sub, "info", cmd_info, "print version, format, and defaults")
    p.add_argument("--json", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args) or 0
    except UqsegError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
