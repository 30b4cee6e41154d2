"""Command-line entry point exposing every pipeline stage as a subcommand.

Exit codes: 0 success, 2 validation error, 3 IO/format error, 4 numeric
failure. Every subcommand is a pure function of its input files and flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, reports
from .arrayio import (
    FORMAT_VERSION,
    entropy_to_gray,
    read_array,
    write_array,
    write_pgm,
)
from .arrays import SIMPLEX_TOLERANCE, validate_labels, validate_probabilities
from .ensemble import ensemble_mean
from .errors import UqsegError, ValidationError
from .metrics import dice, ece, uncertainty_dice_table
from .pipeline import PipelineConfig, run_pipeline
from .scheduler import SgdrConfig, schedule_rows
from .selection import (
    SelectionPolicy,
    TrainingTrace,
    export_selection,
    find_cycle_peaks,
    read_selection,
)
from .toy import generate_dataset, run_toy_training
from .uncertainty import FOREGROUND_THRESHOLD, pixel_entropy, uncertainty_score

DEFAULTS = SgdrConfig()
DEFAULT_POLICY = SelectionPolicy()


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


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _add_schedule_args(p, with_epochs=True):
    p.add_argument("--t0", type=int, default=DEFAULTS.t0)
    p.add_argument("--eta", type=float, default=DEFAULTS.eta)
    p.add_argument("--lr-max", type=float, default=DEFAULTS.lr_max)
    p.add_argument("--lr-min", type=float, default=DEFAULTS.lr_min)
    if with_epochs:
        p.add_argument("--epochs", type=int, default=DEFAULTS.total_epochs)


def _schedule_from(args) -> SgdrConfig:
    return SgdrConfig(
        t0=args.t0,
        eta=args.eta,
        lr_max=args.lr_max,
        lr_min=args.lr_min,
        total_epochs=args.epochs,
    )


def _policy_from(args) -> SelectionPolicy:
    return SelectionPolicy(
        per_cycle=args.per_cycle,
        window_fraction=args.window_fraction,
        min_peak_ratio=args.min_peak_ratio,
    )


def _add_policy_args(p):
    p.add_argument("--per-cycle", type=int, default=DEFAULT_POLICY.per_cycle)
    p.add_argument(
        "--window-fraction", type=float, default=DEFAULT_POLICY.window_fraction
    )
    p.add_argument(
        "--min-peak-ratio", type=float, default=DEFAULT_POLICY.min_peak_ratio
    )


def cmd_lr_schedule(args):
    cfg = _schedule_from(args)
    lines = ["epoch,cycle,lr"]
    for epoch, cycle, lr in schedule_rows(cfg):
        lines.append(f"{epoch},{cycle},{reports.fmt9(lr)}")
    _emit(lines, args.out)
    return 0


def cmd_select(args):
    trace = TrainingTrace.from_csv(args.trace)
    selection = find_cycle_peaks(trace, _schedule_from(args), _policy_from(args))
    export_selection(selection, args.out)
    return 0


def cmd_fuse(args):
    selection = read_selection(args.manifest)
    inputs = Path(args.inputs)
    members = []
    for cid in selection.checkpoint_ids:
        path = inputs / f"{cid}.uqsg"
        if not path.exists():
            raise ValidationError(f"missing member posterior {path}")
        members.append(read_array(path))
    mean = ensemble_mean(members)
    write_array(args.out, mean.astype(np.float32))
    return 0


def cmd_entropy(args):
    probs = read_array(args.input)
    h = pixel_entropy(probs)
    write_array(args.out, h.astype(np.float32))
    if args.pgm:
        out_dir = Path(args.pgm)
        out_dir.mkdir(parents=True, exist_ok=True)
        gray = entropy_to_gray(h, probs.shape[0])
        stem = Path(args.out).stem
        if gray.ndim == 2:
            write_pgm(out_dir / f"{stem}.pgm", gray)
        else:
            for k in range(gray.shape[0]):
                write_pgm(out_dir / f"{stem}_z{k:03d}.pgm", gray[k])
    return 0


def cmd_score(args):
    probs = read_array(args.input)
    scores = [
        uncertainty_score(probs, k, restrict_to_contour=args.contour_entropy)
        for k in _parse_classes(args.classes)
    ]
    _emit(
        [reports.SCORE_HEADER] + [reports.score_row(s) for s in scores],
        args.out,
    )
    return 0


def cmd_dice(args):
    pred = validate_labels(read_array(args.pred), 256)
    gt = validate_labels(read_array(args.gt), 256)
    results = [dice(pred, gt, k) for k in _parse_classes(args.classes)]
    _emit([reports.DICE_HEADER] + [reports.dice_row(r) for r in results], args.out)
    return 0


def cmd_ece(args):
    probs = validate_probabilities(read_array(args.pred))
    gt = read_array(args.gt)
    report = ece(probs, gt, args.bins, foreground_only=args.foreground_only)
    reports.write_ece_csv(args.out, report)
    return 0


def cmd_report(args):
    rows = reports.read_cases_csv(args.cases)
    table = uncertainty_dice_table([(s, d) for _, _, s, d in rows])
    case_rows = []
    for case_id, class_id, score, dice_value in rows:
        case_rows.append(
            reports.summary_case_row(case_id, class_id, "uncertainty_score", score)
        )
        case_rows.append(reports.summary_case_row(case_id, class_id, "dice", dice_value))
    if table.spearman is None:
        dataset_rows = [reports.summary_dataset_row("spearman_note", table.note)]
    else:
        dataset_rows = [
            reports.summary_dataset_row("spearman_score_dice", table.spearman)
        ]
    reports.write_summary_csv(args.out, case_rows, dataset_rows)
    return 0


def cmd_toy_gen(args):
    cases = generate_dataset(
        args.seed,
        args.cases,
        shape=_parse_shape(args.shape),
        class_count=args.classes,
        noise_std=args.noise,
    )
    out = Path(args.outdir) / "cases"
    out.mkdir(parents=True, exist_ok=True)
    for case in cases:
        write_array(out / f"{case.case_id}_image.uqsg", case.image.astype(np.float32))
        write_array(out / f"{case.case_id}_labels.uqsg", case.labels)
    return 0


def cmd_toy_train(args):
    cfg = _schedule_from(args)
    run_toy_training(
        args.outdir,
        seed=args.seed,
        n_train=args.cases,
        n_test=args.test_cases,
        shape=_parse_shape(args.shape),
        class_count=args.classes,
        cfg=cfg,
        policy=_policy_from(args),
        noise_std=args.noise,
    )
    return 0


def cmd_run(args):
    cfg = PipelineConfig.from_file(args.config)
    result = run_pipeline(cfg)
    sys.stdout.write(f"summary written to {result.summary_path}\n")
    return 0


def cmd_info(args):
    info = {
        "version": __version__,
        "array_format_version": FORMAT_VERSION,
        "defaults": {
            "t0": DEFAULTS.t0,
            "eta": DEFAULTS.eta,
            "lr_max": DEFAULTS.lr_max,
            "lr_min": DEFAULTS.lr_min,
            "total_epochs": DEFAULTS.total_epochs,
            "per_cycle": DEFAULT_POLICY.per_cycle,
            "window_fraction": DEFAULT_POLICY.window_fraction,
            "min_peak_ratio": DEFAULT_POLICY.min_peak_ratio,
            "foreground_threshold": FOREGROUND_THRESHOLD,
            "simplex_tolerance": SIMPLEX_TOLERANCE,
            "ece_bins": 10,
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
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="uqseg",
        description="Checkpoint-ensemble uncertainty quantification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lr-schedule", help="emit the warm-restart schedule as CSV")
    _add_schedule_args(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_lr_schedule)

    p = sub.add_parser("select-checkpoints", help="pick peak checkpoints per cycle")
    p.add_argument("--trace", required=True)
    _add_schedule_args(p)
    _add_policy_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("fuse", help="average member posteriors from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--inputs", required=True, help="dir of <checkpoint_id>.uqsg files")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_fuse)

    p = sub.add_parser("entropy", help="per-pixel entropy map of a posterior")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pgm", "--png", dest="pgm", help="also write 8-bit PGM maps here")
    p.set_defaults(fn=cmd_entropy)

    p = sub.add_parser("score", help="contour-normalized per-class uncertainty scores")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--classes", required=True)
    p.add_argument("--out")
    p.add_argument(
        "--contour-entropy",
        action="store_true",
        help="sum entropy over the contour ring instead of the whole image",
    )
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("dice", help="per-class Dice between two label files")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--classes", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_dice)

    p = sub.add_parser("ece", help="expected calibration error report")
    p.add_argument("--pred", required=True, help="posterior .uqsg file")
    p.add_argument("--gt", required=True, help="label .uqsg file")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--out", required=True)
    p.add_argument("--foreground-only", action="store_true")
    p.set_defaults(fn=cmd_ece)

    p = sub.add_parser("report", help="score/Dice table with rank correlation")
    p.add_argument("--cases", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("toy-gen", help="emit a synthetic dataset")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--cases", type=int, default=20)
    p.add_argument("--shape", default="64x64")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--outdir", required=True)
    p.set_defaults(fn=cmd_toy_gen)

    p = sub.add_parser("toy-train", help="train the toy model and emit artifacts")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--cases", type=int, default=16, help="training cases")
    p.add_argument("--test-cases", type=int, default=4)
    p.add_argument("--shape", default="64x64")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--noise", type=float, default=0.1)
    _add_schedule_args(p)
    _add_policy_args(p)
    p.add_argument("--outdir", required=True)
    p.set_defaults(fn=cmd_toy_train)

    p = sub.add_parser("run", help="run the full analysis pipeline from a config")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("info", help="print version, format, and defaults")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UqsegError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
