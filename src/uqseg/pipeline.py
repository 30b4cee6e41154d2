"""End-to-end analysis driver: select, fuse, entropy, score, metrics, report.

run_pipeline consumes artifacts of a finished training run (a trace CSV,
per-checkpoint posterior files, ground-truth labels) and produces the
manifest, fused posteriors, entropy maps, per-class scores, Dice/ECE
tables, and a single summary CSV. Cases stream through the per-case
stages one at a time, and a case's members stream through the fuse one at
a time, so a case holds one member, the float64 mean and a few planes at
most, whatever the member and class counts. The tree is built in a sibling
staging directory and renamed into ``outdir`` once, at the end, so
``outdir`` holds a whole run or nothing. A failure aborts with the stage
name (and the case) and removes the staging directory. The fuse, entropy
and report stages are ``fuse_members``, ``write_entropy`` and
``write_summary``, which the CLI subcommands call too.
"""

from __future__ import annotations

import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import reports
from .arrayio import entropy_to_gray, read_array, write_array, write_pgm
from .arrays import validate_labels
from .ensemble import argmax_labels, ensemble_mean
from .errors import StageError, ValidationError
from .metrics import DEFAULT_ECE_BINS, CalibrationAccumulator, dice, uncertainty_dice_table
from .scheduler import SgdrConfig
from .selection import SelectionPolicy, TrainingTrace, export_selection, find_cycle_peaks
from .uncertainty import pixel_entropy, uncertainty_score

_SCHEMA = {
    "trace": str,
    "predictions_dir": str,
    "cases_dir": str,
    "outdir": str,
    "t0": int,
    "eta": float,
    "lr_max": float,
    "lr_min": float,
    "total_epochs": int,
    "per_cycle": int,
    "window_fraction": float,
    "min_peak_ratio": float,
    "classes": "classes",
    "bins": int,
    "entropy_region": "region",
    "ece_foreground_only": "bool",
}

_REQUIRED = ("trace", "predictions_dir", "cases_dir", "outdir", "t0", "total_epochs")

DEFAULT_SCHEDULE = SgdrConfig()
DEFAULT_POLICY = SelectionPolicy()


def schedule_of(settings) -> SgdrConfig:
    """The schedule in the same-named fields of a PipelineConfig or CLI arguments."""
    return SgdrConfig(
        t0=settings.t0,
        eta=settings.eta,
        lr_max=settings.lr_max,
        lr_min=settings.lr_min,
        total_epochs=settings.total_epochs,
    )


def policy_of(settings) -> SelectionPolicy:
    """The policy in the same-named fields of a PipelineConfig or CLI arguments."""
    return SelectionPolicy(
        per_cycle=settings.per_cycle,
        window_fraction=settings.window_fraction,
        min_peak_ratio=settings.min_peak_ratio,
    )


@dataclass
class PipelineConfig:
    trace: str
    predictions_dir: str
    cases_dir: str
    outdir: str
    t0: int
    total_epochs: int
    eta: float = DEFAULT_SCHEDULE.eta
    lr_max: float = DEFAULT_SCHEDULE.lr_max
    lr_min: float = DEFAULT_SCHEDULE.lr_min
    per_cycle: int = DEFAULT_POLICY.per_cycle
    window_fraction: float = DEFAULT_POLICY.window_fraction
    min_peak_ratio: float = DEFAULT_POLICY.min_peak_ratio
    classes: tuple = ()  # empty: every foreground class found in the data
    bins: int = DEFAULT_ECE_BINS
    entropy_region: str = "image"  # or "contour"
    ece_foreground_only: bool = False

    def __post_init__(self):
        if self.entropy_region not in ("image", "contour"):
            raise ValidationError(
                f"entropy_region must be 'image' or 'contour', got {self.entropy_region!r}"
            )
        if self.bins < 1:
            raise ValidationError(f"bins must be >= 1, got {self.bins}")
        # construction of these validates the numeric ranges
        schedule_of(self)
        policy_of(self)

    @classmethod
    def from_file(cls, path):
        """Parse a flat key=value config; unknown keys are rejected."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise ValidationError(f"{path}: not a UTF-8 text file") from None
        values = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _SCHEMA:
                raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = _parse(key, value, path, lineno)
        missing = [k for k in _REQUIRED if k not in values]
        if missing:
            raise ValidationError(f"{path}: missing required keys {missing}")
        return cls(**values)


def _parse(key, value, path, lineno):
    kind = _SCHEMA[key]
    try:
        if kind is str:
            return value
        if kind is int:
            return int(value)
        if kind is float:
            return float(value)
        if kind == "bool":
            if value.lower() in ("1", "true", "yes"):
                return True
            if value.lower() in ("0", "false", "no"):
                return False
            raise ValueError(value)
        if kind == "classes":
            return tuple(int(v) for v in value.split(",") if v.strip())
        if kind == "region":
            return value
    except ValueError:
        pass
    raise ValidationError(f"{path}:{lineno}: bad value {value!r} for key {key!r}")


@dataclass
class PipelineResult:
    summary_path: Path
    ece_percent: float
    avg_entropy_bits: float
    spearman: float | None
    case_count: int


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Run every stage into ``cfg.outdir``, which must be absent or empty.

    The tree is built in the sibling ``<outdir>.partial-<pid>`` and one
    ``os.replace`` publishes it once every stage has succeeded. On any
    failure the staging directory is removed and ``outdir`` is left as it
    was; a stage failure raises StageError. Missing parents of ``outdir``
    are created.

    Cases stream through fuse, entropy, score and metrics one at a time.
    Per case, memory holds one member and the float64 mean while fusing,
    then the mean and a few planes: the entropy map, freed after scoring,
    and the argmax and calibration temporaries of the metrics. Each case's
    mean gets one entropy map and one argmax, shared by all its classes.
    """
    out = Path(cfg.outdir).resolve()
    if out.is_dir():
        if any(out.iterdir()):
            raise ValidationError(
                f"outdir {cfg.outdir} is not empty; remove or rename it to run again"
            )
    elif out.exists():
        raise ValidationError(f"outdir {cfg.outdir} exists and is not a directory")
    staging = out.with_name(f"{out.name}.partial-{os.getpid()}")
    staging.mkdir(parents=True)
    try:
        result = _run(cfg, staging)
        os.replace(staging, out)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return result


@contextmanager
def _stage(name, case_id=None):
    """Raise any failure inside the block as a StageError of ``name``."""
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc, case_id) from exc


def fuse_members(checkpoint_ids, inputs, out) -> np.ndarray:
    """Average the posteriors ``<inputs>/<id>.uqsg`` of the checkpoint ids.

    Writes the mean as float32 to ``out`` and returns it as float64. The
    members are read one at a time, in manifest order, and each is added
    into the mean and dropped before the next is read; an invalid member is
    reported by its path.
    """
    paths = [Path(inputs) / f"{cid}.uqsg" for cid in checkpoint_ids]
    members = (_read_member(path, cid) for cid, path in zip(checkpoint_ids, paths))
    mean = ensemble_mean(members, [str(path) for path in paths])
    write_array(out, mean.astype(np.float32))
    return mean


def _read_member(path, checkpoint_id):
    try:
        return read_array(path)
    except FileNotFoundError:
        raise ValidationError(
            f"missing member posterior {path} for checkpoint {checkpoint_id}"
        ) from None


def write_entropy(probs, out, pgm_dir=None) -> np.ndarray:
    """Write the entropy map of ``probs`` to ``out`` as float32 and return it.

    With ``pgm_dir`` (existing) it also writes 8-bit PGM images named after
    ``out``: one per 2D map, or one per axial slice ``<stem>_z<k>.pgm``.
    """
    h = pixel_entropy(probs)
    write_array(out, h.astype(np.float32))
    if pgm_dir is not None:
        pgm_dir = Path(pgm_dir)
        gray = entropy_to_gray(h, probs.shape[0])
        stem = Path(out).stem
        if gray.ndim == 2:
            write_pgm(pgm_dir / f"{stem}.pgm", gray)
        else:
            for k in range(gray.shape[0]):
                write_pgm(pgm_dir / f"{stem}_z{k:03d}.pgm", gray[k])
    return h


def write_summary(path, cases, dataset_rows=()):
    """Write the summary CSV and return the score/Dice table.

    ``cases`` holds (case_id, class_id, score, dice) tuples, each giving two
    case rows. The dataset rows start with the Spearman coefficient, or the
    note on why it was omitted, followed by ``dataset_rows``.
    """
    table = uncertainty_dice_table([(s, d) for _, _, s, d in cases])
    lines = [reports.SUMMARY_HEADER]
    for case_id, class_id, score, dice_value in cases:
        lines.append(reports.summary_case_row(case_id, class_id, "uncertainty_score", score))
        lines.append(reports.summary_case_row(case_id, class_id, "dice", dice_value))
    if table.spearman is None:
        lines.append(reports.summary_dataset_row("spearman_note", table.note))
    else:
        lines.append(reports.summary_dataset_row("spearman_score_dice", table.spearman))
    reports.write_lines(path, lines + list(dataset_rows))
    return table


def _run(cfg, out):
    """Write the whole tree into the existing directory ``out``."""
    with _stage("select-checkpoints"):
        selection = _select(cfg, out)
    with _stage("fuse"):
        pred_root, case_ids = _case_dirs(cfg)
        mean_dir = out / "mean"
        mean_dir.mkdir()
    with _stage("entropy"):
        entropy_dir = out / "entropy"
        entropy_dir.mkdir()

    score_lines = ["case_id," + reports.SCORE_HEADER]
    dice_lines = ["case_id," + reports.DICE_HEADER]
    cases = []  # (case_id, class_id, score, dice) rows of the summary
    acc = CalibrationAccumulator(cfg.bins)
    entropy_sum = 0.0
    entropy_count = 0
    for case_id in case_ids:
        with _stage("fuse", case_id):
            mean = fuse_members(
                selection.checkpoint_ids, pred_root / case_id, mean_dir / f"{case_id}.uqsg"
            )
        with _stage("entropy", case_id):
            h = write_entropy(mean, entropy_dir / f"{case_id}.uqsg", entropy_dir)
        with _stage("score", case_id):
            classes = _classes_for(cfg, mean.shape[0])
            scores = [
                uncertainty_score(
                    mean, k, entropy=h, restrict_to_contour=(cfg.entropy_region == "contour")
                )
                for k in classes
            ]
            score_lines += [reports.score_row(s, case_id=case_id) for s in scores]
            entropy_sum += float(h.sum())
            entropy_count += h.size
        del h  # the metrics stage needs only the mean
        with _stage("metrics", case_id):
            gt = _read_labels(cfg, case_id, mean.shape)
            pred = argmax_labels(mean)
            for s in scores:
                d = dice(pred, gt, s.class_id)
                dice_lines.append(reports.dice_row(d, case_id=case_id))
                cases.append((case_id, s.class_id, s.score, d.dice))
            acc.add(mean, gt, pred=pred, foreground_only=cfg.ece_foreground_only)
        # free this case's arrays before the next case's members are read
        del mean, gt, pred

    with _stage("score"):
        reports.write_lines(out / "scores.csv", score_lines)
    with _stage("metrics"):
        reports.write_lines(out / "dice.csv", dice_lines)
        calibration = acc.report()
        reports.write_ece_csv(out / "ece.csv", calibration)
        avg_entropy = entropy_sum / entropy_count
    with _stage("report"):
        table = write_summary(
            out / "summary.csv",
            cases,
            [
                reports.summary_dataset_row("ece_percent", calibration.ece),
                reports.summary_dataset_row("avg_entropy_bits", avg_entropy),
                reports.summary_dataset_row("h_total_region", cfg.entropy_region),
            ],
        )
    return PipelineResult(
        summary_path=Path(cfg.outdir) / "summary.csv",
        ece_percent=calibration.ece,
        avg_entropy_bits=avg_entropy,
        spearman=table.spearman,
        case_count=len(case_ids),
    )


def _select(cfg, out):
    trace_path = Path(cfg.trace)
    if not trace_path.exists():
        raise ValidationError(f"trace file {trace_path} does not exist")
    trace = TrainingTrace.from_csv(trace_path)
    selection = find_cycle_peaks(trace, schedule_of(cfg), policy_of(cfg))
    export_selection(selection, out / "manifest.csv")
    return selection


def _case_dirs(cfg):
    pred_root = Path(cfg.predictions_dir)
    if not pred_root.is_dir():
        raise ValidationError(f"predictions dir {pred_root} does not exist")
    case_ids = sorted(d.name for d in pred_root.iterdir() if d.is_dir())
    if not case_ids:
        raise ValidationError(f"no case directories under {pred_root}")
    return pred_root, case_ids


def _classes_for(cfg, class_count):
    if cfg.classes:
        bad = [k for k in cfg.classes if not 1 <= k < class_count]
        if bad:
            raise ValidationError(
                f"classes {bad} out of range for {class_count}-class posteriors"
            )
        return list(cfg.classes)
    return list(range(1, class_count))


def _read_labels(cfg, case_id, posterior_shape):
    """The case's ground truth, checked against its posterior's shape and classes."""
    gt_path = Path(cfg.cases_dir) / f"{case_id}_labels.uqsg"
    try:
        gt = read_array(gt_path)
    except FileNotFoundError:
        raise ValidationError(f"missing ground truth {gt_path}") from None
    if gt.shape != posterior_shape[1:]:
        raise ValidationError(
            f"{gt_path}: labels shape {gt.shape} does not match posterior {posterior_shape}"
        )
    return validate_labels(gt, posterior_shape[0], name=gt_path)
