"""End-to-end analysis driver: select, fuse, entropy, score, metrics, report.

run_pipeline consumes artifacts of a finished training run (a trace CSV,
per-checkpoint posterior files, ground-truth labels) and produces the
manifest, fused posteriors, entropy maps, per-class scores, Dice/ECE
tables, and a single summary CSV. Cases stream through the per-case stages
one at a time. The members are fused block by block into the float32 mean
that is written to ``mean/``, and every later stage analyzes that same
array, as the CLI subcommands do. The tree is built in a sibling staging
directory and renamed into ``outdir`` once, at the end, so ``outdir``
holds a whole run or nothing. A failure aborts with the stage name (and
the case) and removes the staging directory. The fuse, entropy and report
stages are ``fuse_members``, ``write_entropy`` and ``write_summary``, and
the metrics stage reads labels with ``read_labels``; the CLI subcommands
call them too.
"""

from __future__ import annotations

import os
import shutil
import stat
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import arrays, reports
from .arrayio import entropy_to_gray, read_array, read_rows, write_array, write_pgm
from .arrays import pixel_blocks, validate_labels, validate_probability_shape
from .ensemble import argmax_labels, ensemble_mean
from .errors import StageError, ValidationError
from .metrics import (
    DEFAULT_ECE_BINS, MAX_ECE_BINS, CalibrationAccumulator, dice, uncertainty_dice_table,
)
from .scheduler import SgdrConfig
from .selection import SelectionPolicy, TrainingTrace, export_selection, find_cycle_peaks
from .uncertainty import pixel_entropy, uncertainty_score


def settings_of(cls, source):
    """The settings dataclass ``cls`` from the same-named attributes of ``source``.

    ``source`` is a PipelineConfig or parsed CLI arguments: both carry each
    field of SgdrConfig and SelectionPolicy under the field's own name.
    """
    return cls(**{f.name: getattr(source, f.name) for f in fields(cls)})


@dataclass
class PipelineConfig:
    trace: str
    predictions_dir: str
    cases_dir: str
    outdir: str
    t0: int
    total_epochs: int
    eta: float = SgdrConfig.eta
    lr_max: float = SgdrConfig.lr_max
    lr_min: float = SgdrConfig.lr_min
    per_cycle: int = SelectionPolicy.per_cycle
    window_fraction: float = SelectionPolicy.window_fraction
    min_peak_ratio: float = SelectionPolicy.min_peak_ratio
    classes: tuple = ()  # empty: every foreground class found in the data
    bins: int = DEFAULT_ECE_BINS
    entropy_region: str = "image"  # or "contour"
    ece_foreground_only: bool = False

    def __post_init__(self):
        for key in ("trace", "predictions_dir", "cases_dir", "outdir"):
            if not getattr(self, key):
                raise ValidationError(f"{key} must name a path, got an empty value")
        if self.entropy_region not in ("image", "contour"):
            raise ValidationError(
                f"entropy_region must be 'image' or 'contour', got {self.entropy_region!r}"
            )
        if not 1 <= self.bins <= MAX_ECE_BINS:
            raise ValidationError(f"bins must be in [1, {MAX_ECE_BINS}], got {self.bins}")
        # construction of these validates the numeric ranges
        settings_of(SgdrConfig, self)
        settings_of(SelectionPolicy, self)

    @classmethod
    def from_file(cls, path):
        """Parse a flat key=value config whose keys are this class's fields.

        Each value is parsed by its field's annotation (``FIELD_PARSERS``); unknown
        and duplicate keys are rejected, and the fields without a default are
        the required keys, reported missing in field order.
        """
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise ValidationError(f"{path}: not a UTF-8 text file") from None
        parsers = {f.name: FIELD_PARSERS[f.type] for f in fields(cls)}
        values = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in parsers:
                raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = parsers[key](value)
            except ValueError:
                raise ValidationError(
                    f"{path}:{lineno}: bad value {value!r} for key {key!r}"
                ) from None
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in values]
        if missing:
            raise ValidationError(f"{path}: missing required keys {missing}")
        return cls(**values)


def _parse_bool(value):
    if value.lower() in ("1", "true", "yes"):
        return True
    if value.lower() in ("0", "false", "no"):
        return False
    raise ValueError(value)


# a setting's parser by the annotation name of its field: the values of the
# run config and the schedule and policy flags of the CLI
FIELD_PARSERS = {
    "str": str, "int": int, "float": float, "bool": _parse_bool,
    "tuple": lambda value: tuple(int(v) for v in value.split(",") if v.strip()),
}


def run_pipeline(cfg: PipelineConfig) -> Path:
    """Run every stage into ``cfg.outdir`` and return the summary CSV's path.

    ``outdir`` must be absent or empty, and must not lie inside
    ``predictions_dir``, whose every directory is read as a case. The tree
    is built in the sibling ``<outdir>.partial-<pid>`` and one
    ``os.replace`` publishes it once every stage has succeeded. On any
    failure the staging directory is removed and ``outdir`` is left as it
    was; a stage failure raises StageError. Missing parents of ``outdir``
    are created. An empty ``outdir`` that exists keeps its permission bits,
    but not its group or ACLs.

    Cases stream through fuse, entropy, score and metrics one at a time.
    Per case, memory holds the float32 mean and block-sized scratch while
    fusing, then the mean and whole planes (the entropy map, freed after
    scoring; the labels, the argmax and the float64 bin-ordered confidences
    of the metrics) plus block-sized scratch: every per-pixel pass runs
    block by block. Each case's mean gets one entropy map and one argmax.
    """
    out = Path(cfg.outdir).resolve()
    if out.is_dir():
        if any(out.iterdir()):
            raise ValidationError(
                f"outdir {cfg.outdir} is not empty; remove or rename it to run again"
            )
    elif out.exists():
        raise ValidationError(f"outdir {cfg.outdir} exists and is not a directory")
    if out.is_relative_to(Path(cfg.predictions_dir).resolve()):
        raise ValidationError(
            f"outdir {cfg.outdir} lies inside predictions_dir {cfg.predictions_dir}, "
            "whose every directory is read as a case"
        )
    staging = out.with_name(f"{out.name}.partial-{os.getpid()}")
    staging.mkdir(parents=True)
    try:
        _run(cfg, staging)
        if out.is_dir():  # set last, so a read-only mode cannot stop the run
            staging.chmod(stat.S_IMODE(out.stat().st_mode))
        os.replace(staging, out)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return Path(cfg.outdir) / "summary.csv"


@contextmanager
def _stage(name, case_id=None):
    """Raise any failure inside the block as a StageError of ``name``."""
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc, case_id) from exc


def fuse_members(checkpoint_ids, inputs, out) -> np.ndarray:
    """Average the posteriors ``<inputs>/<id>.uqsg`` of the checkpoint ids.

    Writes the mean as float32 to ``out`` and returns that array. Each pixel
    block's member rows are read in manifest order and averaged in float64
    by ``ensemble_mean``, with the additions whole members would get, so a
    case holds the float32 mean and block-sized scratch; a one-block case
    reads each member once. A missing member, a bad header or a shape unlike
    the first member's fails on block 0, before anything is written. A value
    error names the first invalid member of the first block that has one,
    with that block's min, max or worst deviation.
    """
    paths = [Path(inputs) / f"{cid}.uqsg" for cid in checkpoint_ids]
    names = [str(path) for path in paths]
    first_shape = None  # set when block 0 reads the first member

    def member_block(cid, path, pixels):
        nonlocal first_shape
        try:
            shape, rows = read_rows(path, pixels)
        except FileNotFoundError:
            raise ValidationError(
                f"missing member posterior {path} for checkpoint {cid}"
            ) from None
        if first_shape is None:
            validate_probability_shape(shape, name=str(path))
            first_shape = shape
        elif shape != first_shape:
            raise ValidationError(f"{path} has shape {shape}, expected {first_shape}")
        return rows.reshape(shape[0], 1, -1)

    def block_mean(pixels):
        # a generator expression keeps no reference to the member it yielded
        members = (member_block(cid, path, pixels) for cid, path in zip(checkpoint_ids, paths))
        return ensemble_mean(members, names)[:, 0]

    # block 0 of any shape; the first member's shape then gives the rest
    first = block_mean(slice(0, arrays.BLOCK_PIXELS))
    mean = np.empty(first_shape, dtype=np.float32)
    flat = mean.reshape(mean.shape[0], -1)
    blocks = pixel_blocks(flat.shape[1])
    flat[:, blocks[0]] = first
    del first
    for pixels in blocks[1:]:
        flat[:, pixels] = block_mean(pixels)
    write_array(out, mean)
    return mean


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


def read_labels(path, class_count, posterior_shape=None):
    """Labels from ``path``, checked against ``class_count`` and the posterior's shape."""
    labels = read_array(path)
    if posterior_shape is not None and labels.shape != posterior_shape[1:]:
        raise ValidationError(
            f"{path}: labels shape {labels.shape} does not match posterior {posterior_shape}"
        )
    return validate_labels(labels, class_count, name=path)


def write_summary(path, cases, dataset_rows=()):
    """Write the summary CSV of the score/Dice table.

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
            scores = [
                uncertainty_score(
                    mean, k, entropy=h, restrict_to_contour=(cfg.entropy_region == "contour")
                )
                for k in cfg.classes or range(1, mean.shape[0])
            ]
            score_lines += [reports.score_row(s, case_id=case_id) for s in scores]
            entropy_sum += float(h.sum())
            entropy_count += h.size
        del h  # the metrics stage needs only the mean
        with _stage("metrics", case_id):
            gt_path = Path(cfg.cases_dir) / f"{case_id}_labels.uqsg"
            if not gt_path.exists():
                raise ValidationError(f"missing ground truth {gt_path}")
            gt = read_labels(gt_path, mean.shape[0], mean.shape)
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
        write_summary(
            out / "summary.csv",
            cases,
            [
                reports.summary_dataset_row("ece_percent", calibration.ece),
                reports.summary_dataset_row("avg_entropy_bits", avg_entropy),
                reports.summary_dataset_row("h_total_region", cfg.entropy_region),
            ],
        )


def _select(cfg, out):
    trace_path = Path(cfg.trace)
    if not trace_path.exists():
        raise ValidationError(f"trace file {trace_path} does not exist")
    trace = TrainingTrace.from_csv(trace_path)
    schedule, policy = settings_of(SgdrConfig, cfg), settings_of(SelectionPolicy, cfg)
    selection = find_cycle_peaks(trace, schedule, policy)
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
