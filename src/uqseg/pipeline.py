"""End-to-end analysis driver: select, fuse, entropy, score, metrics, report.

run_pipeline turns the artifacts of a training run (a trace CSV, member
posteriors, labels) into the manifest, fused means, entropy maps, scores,
Dice/ECE tables and a summary CSV. A case is one pass over the pixel blocks
of its fused float32 mean (``fuse_blocks``); the CLI takes a stored posterior's
validated blocks (``stored_blocks``) through the same steps. Both context
managers open each file once, as an ``ArrayFile``, for the whole pass; one
helper thread creates each case's output files, empty, ahead of the case
loop. The tree is built in a sibling staging directory and renamed into
``outdir`` at the end, so ``outdir`` holds a whole run or nothing; a failure
names the stage and the case.
"""

from __future__ import annotations

import math
import os
import shutil
import stat
import threading
from contextlib import ExitStack, contextmanager
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import arrays, reports
from .arrayio import ArrayFile, entropy_to_gray, read_array, write_pgm
from .arrays import pixel_blocks, validate_labels, validate_probability_shape
from .ensemble import argmax_labels, ensemble_mean
from .errors import StageError, ValidationError
from .metrics import (
    DEFAULT_ECE_BINS, CalibrationAccumulator, dice, uncertainty_dice_table,
)
from .scheduler import SgdrConfig
from .selection import SelectionPolicy, TrainingTrace, check_id, export_selection, find_cycle_peaks
from .uncertainty import FOREGROUND_THRESHOLD, check_classes, class_scores, pixel_entropy


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
        # construction of these validates the numeric ranges
        CalibrationAccumulator(self.bins)
        settings_of(SgdrConfig, self)
        settings_of(SelectionPolicy, self)

    @classmethod
    def from_file(cls, path):
        """Parse a flat key=value config whose keys are this class's fields.

        Each value is parsed by its field's annotation (``FIELD_PARSERS``); unknown
        and duplicate keys are rejected, and the fields without a default are
        the required keys, reported missing in field order.
        """
        text = reports.read_text(path)
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
            except (ValueError, KeyError):  # KeyError: not a word of _BOOLS
                raise ValidationError(
                    f"{path}:{lineno}: bad value {value!r} for key {key!r}"
                ) from None
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in values]
        if missing:
            raise ValidationError(f"{path}: missing required keys {missing}")
        return cls(**values)


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
# a setting's parser by the annotation name of its field: the values of the
# run config and the schedule and policy flags of the CLI
FIELD_PARSERS = {
    "str": str, "int": int, "float": float, "bool": lambda value: _BOOLS[value.lower()],
    "tuple": lambda value: tuple(int(v) for v in value.split(",") if v.strip()),
}


def run_pipeline(cfg: PipelineConfig) -> Path:
    """Run every stage into ``cfg.outdir`` and return the summary CSV's path.

    ``outdir`` must be absent or empty, and must not lie inside
    ``predictions_dir``, whose every directory is read as a case. The tree
    is built in the sibling ``<outdir>.partial-<pid>`` and published by one
    ``os.replace``; on any failure it is removed and ``outdir`` is left as
    it was (a stage failure raises StageError). Missing parents of
    ``outdir`` are created; an empty ``outdir`` keeps its permission bits,
    not its group or ACLs. A case holds its class masks, labels, argmax and
    gray image whole, and everything else block-sized.
    """
    out = check_outdir(cfg.outdir)
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


def check_outdir(outdir):
    """``outdir`` resolved; ValidationError unless it is absent or an empty directory."""
    out = Path(outdir).resolve()
    if out.is_dir() and any(out.iterdir()):
        raise ValidationError(f"outdir {outdir} is not empty; remove or rename it to run again")
    if out.exists() and not out.is_dir():
        raise ValidationError(f"outdir {outdir} exists and is not a directory")
    return out


@contextmanager
def _stage(name, case_id=None):
    """Raise any failure inside the block as a StageError of ``name``."""
    try:
        yield
    except StageError:
        raise  # an inner stage has named it
    except Exception as exc:
        raise StageError(name, exc, case_id) from exc


@contextmanager
def fuse_blocks(checkpoint_ids, inputs):
    """Open every member, checking its header and shape, and yield the mean's shape
    and its ``(pixels, float32 rows)`` per pixel block, in order: each block's member
    rows read in manifest order and averaged in float64 by ``ensemble_mean``."""
    paths = [Path(inputs) / f"{cid}.uqsg" for cid in checkpoint_ids]
    with ExitStack() as stack:
        members = []
        for cid, path in zip(checkpoint_ids, paths):
            if not path.exists():
                raise ValidationError(f"missing member posterior {path} for checkpoint {cid}")
            members.append(stack.enter_context(ArrayFile(path)))
            shape = members[0].shape
            if members[-1].shape != shape:
                raise ValidationError(f"{path} has shape {members[-1].shape}, expected {shape}")
            validate_probability_shape(shape, name=str(path))
        if not members:
            raise ValidationError("ensemble needs at least one member")

        def blocks():
            for pixels in pixel_blocks(members[0].n):
                # a generator expression keeps no reference to the member it yielded
                rows = (m.rows(pixels).reshape(shape[0], 1, -1) for m in members)
                yield pixels, ensemble_mean(rows, paths)[:, 0].astype(np.float32)

        yield shape, blocks()


@contextmanager
def stored_blocks(path):
    """``fuse_blocks`` for the posterior file at ``path``: the open ``ArrayFile``, its
    shape checked with its header, and its ``(pixels, rows)`` per block, validated as read."""
    with ArrayFile(path) as f:
        validate_probability_shape(f.shape, name=str(path))

        def blocks():
            for pixels in pixel_blocks(f.n):  # no name holds the rows of the block before
                yield pixels, arrays.validate_probabilities(
                    f.rows(pixels).reshape(f.shape[0], 1, -1), name=str(path))[:, 0]

        yield f, blocks()


def check_output(out, inputs):
    """ValidationError if the file ``out`` (None: stdout) is one of the files ``inputs``."""
    for path in inputs:
        if out and os.path.exists(out) and os.path.exists(path) and os.path.samefile(out, path):
            raise ValidationError(f"output {out} is the input {path}; name another output")


def fuse_members(checkpoint_ids, inputs, out):
    """Write the members' float32 mean to ``out`` block by block; a failure removes ``out``."""
    with fuse_blocks(checkpoint_ids, inputs) as (shape, blocks):
        check_output(out, [Path(inputs) / f"{cid}.uqsg" for cid in checkpoint_ids])
        with ArrayFile(out, shape, np.float32) as f:
            for pixels, rows in blocks:
                f.write(pixels, rows)
                del rows  # before the next block is read


def write_entropy(path, out, pgm_dir=None):
    """Write the float32 entropy map of the posterior file at ``path`` to ``out`` block by
    block; with ``pgm_dir``, then its 8-bit PGMs, one per 2D map or axial slice."""
    with stored_blocks(path) as (f, blocks):
        check_output(out, [path])
        if pgm_dir is not None:  # before ``out`` is created, so a failure here writes nothing
            Path(pgm_dir).mkdir(parents=True, exist_ok=True)
        gray = np.empty(f.n, dtype=np.uint8)
        with ArrayFile(out, f.shape[1:], np.float32) as e:
            for pixels, rows in blocks:
                _entropy_block(gray, e, pixels, rows)
                del rows  # before the next block is read
    if pgm_dir is not None:
        _write_pgms(pgm_dir, Path(out).stem, gray.reshape(f.shape[1:]))


def score_posterior(path, classes, restrict_to_contour=False):
    """The scores of ``classes`` on the posterior file at ``path``, from one pass as in ``run``."""
    with stored_blocks(path) as (f, blocks):
        classes = check_classes(classes, f.shape[0])
        masks = np.empty((len(classes), f.n), dtype=bool)
        h_total = 0.0
        for pixels, rows in blocks:
            h_total += float(pixel_entropy(rows).sum())
            np.greater(rows[classes], FOREGROUND_THRESHOLD, out=masks[:, pixels])
            del rows  # before the next block is read
        return class_scores(masks.reshape(len(classes), *f.shape[1:]), classes, h_total,
                            f.rows, restrict_to_contour)


def _entropy_block(gray, out, pixels, rows):
    """Write one block's entropy rows to ``out`` and its 8-bit values to ``gray``; its total."""
    h = pixel_entropy(rows)
    out.write(pixels, h.astype(np.float32)[None])
    gray[pixels] = entropy_to_gray(h, len(rows))
    return float(h.sum())


def _output_names(stem, spatial):
    """The file names of the map ``stem`` of shape ``spatial``: its ``.uqsg`` file, then its
    8-bit PGMs, one per 2D map or axial slice. A ``run`` case's mean takes the first."""
    slices = [""] if len(spatial) == 2 else [f"_z{k:03d}" for k in range(spatial[0])]
    return [f"{stem}.uqsg", *(f"{stem}{z}.pgm" for z in slices)]


def _write_pgms(pgm_dir, stem, gray):
    for name, image in zip(_output_names(stem, gray.shape)[1:], gray.reshape(-1, *gray.shape[-2:])):
        write_pgm(Path(pgm_dir) / name, image)


def select_checkpoints(trace_path, settings, out):
    """Select the checkpoints of the trace CSV at ``trace_path`` and write the
    manifest to ``out``; ``settings`` carries the schedule and policy fields."""
    if not Path(trace_path).exists():
        raise ValidationError(f"trace file {Path(trace_path)} does not exist")
    trace = TrainingTrace.from_csv(trace_path)
    schedule, policy = settings_of(SgdrConfig, settings), settings_of(SelectionPolicy, settings)
    selection = find_cycle_peaks(trace, schedule, policy)
    export_selection(selection, out)
    return selection


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
    lines = [reports.SUMMARY_HEADER] + [
        reports.summary_case_row(case_id, class_id, metric, value)
        for case_id, class_id, score, dice_value in cases
        for metric, value in (("uncertainty_score", score), ("dice", dice_value))
    ]
    if table.spearman is None:
        lines.append(reports.summary_dataset_row("spearman_note", table.note))
    else:
        lines.append(reports.summary_dataset_row("spearman_score_dice", table.spearman))
    reports.write_lines(path, lines + list(dataset_rows))


def _run(cfg, out):
    """Write the whole tree into the existing directory ``out``."""
    with _stage("select-checkpoints"):
        selection = select_checkpoints(cfg.trace, cfg, out / "manifest.csv")
    with _stage("fuse"):
        pred_root, case_ids = _case_dirs(cfg)
        (out / "mean").mkdir()
        (out / "entropy").mkdir()
    score_lines = ["case_id," + reports.SCORE_HEADER]
    dice_lines = ["case_id," + reports.DICE_HEADER]
    cases = []  # (case_id, class_id, score, dice) rows of the summary
    acc = CalibrationAccumulator(cfg.bins)
    entropy_sum, entropy_count = 0.0, 0
    stop = threading.Event()
    helper = threading.Thread(target=_create_outputs, args=(
        out, pred_root, case_ids, selection.checkpoint_ids[0], stop))
    helper.start()
    try:
        for case_id in case_ids:
            scores, dices, h_case, n = _run_case(cfg, selection, pred_root / case_id, out, acc)
            score_lines += [reports.score_row(s, case_id=case_id) for s in scores]
            dice_lines += [reports.dice_row(d, case_id=case_id) for d in dices]
            cases += [(case_id, s.class_id, s.score, d.dice) for s, d in zip(scores, dices)]
            entropy_sum, entropy_count = entropy_sum + h_case, entropy_count + n
    finally:  # the helper stops before ``run_pipeline`` publishes or removes ``out``
        stop.set()
        helper.join()
    with _stage("score"):
        reports.write_lines(out / "scores.csv", score_lines)
    with _stage("metrics"):
        reports.write_lines(out / "dice.csv", dice_lines)
        calibration = acc.report()
        reports.write_ece_csv(out / "ece.csv", calibration)
    with _stage("report"):
        write_summary(out / "summary.csv", cases, [
            reports.summary_dataset_row("ece_percent", calibration.ece),
            reports.summary_dataset_row("avg_entropy_bits", entropy_sum / entropy_count),
            reports.summary_dataset_row("h_total_region", cfg.entropy_region),
        ])


def _create_outputs(out, pred_root, case_ids, member, stop):
    """Create, empty, the files that each case of ``case_ids`` writes into ``out``, in loop
    order until ``stop`` is set, so that the loop's own opens find them made. The case's
    ``member`` header names them; a case that fails here is left to the loop to report."""
    for case_id in case_ids:
        if stop.is_set():
            return
        try:
            with ArrayFile(pred_root / case_id / f"{member}.uqsg") as f:
                validate_probability_shape(f.shape)  # bounds the number of slices
            names = _output_names(case_id, f.shape[1:])
            for path in [out / "mean" / names[0], *(out / "entropy" / name for name in names)]:
                # no O_TRUNC: a file the loop wrote keeps its bytes; 0o666 is open()'s mode
                os.close(os.open(path, os.O_CREAT | os.O_WRONLY, 0o666))
        except Exception:  # the loop opens the same file and reports it with stage and case
            continue


def _run_case(cfg, selection, case_dir, out, acc):
    """One pass over a case's pixel blocks: its scores, Dice, entropy total and pixels."""
    case_id = case_dir.name
    with (
        _stage("fuse", case_id),  # and the block loop; the stages inside name theirs
        fuse_blocks(selection.checkpoint_ids, case_dir) as (shape, blocks),
        ArrayFile(out / "mean" / (name := _output_names(case_id, shape[1:])[0]), shape,
                  np.float32) as mean,
        ArrayFile(out / "entropy" / name, shape[1:], np.float32) as entropy,
    ):
        c, n = shape[0], math.prod(shape[1:])
        with _stage("score", case_id):
            classes = check_classes(cfg.classes or range(1, c), c)
        with _stage("metrics", case_id):
            gt_path = Path(cfg.cases_dir) / f"{case_id}_labels.uqsg"
            if not gt_path.exists():
                raise ValidationError(f"missing ground truth {gt_path}")
            gt = read_labels(gt_path, c, shape)
        # the only whole arrays: the class masks, the labels, the argmax and the gray image
        masks = np.empty((len(classes), n), dtype=bool)
        pred = np.empty(n, dtype=np.min_scalar_type(c - 1))
        gray = np.empty(n, dtype=np.uint8)
        h_case = 0.0
        for pixels, rows in blocks:
            mean.write(pixels, rows)
            h_case += _entropy_block(gray, entropy, pixels, rows)
            np.greater(rows[classes], FOREGROUND_THRESHOLD, out=masks[:, pixels])
            pred[pixels] = argmax_labels(rows)
            acc.add(rows, gt.reshape(-1)[pixels], pred[pixels],
                    foreground_only=cfg.ece_foreground_only)
            del rows  # before the next block is fused
        with _stage("entropy", case_id):
            _write_pgms(out / "entropy", case_id, gray.reshape(shape[1:]))
        del gray
        with _stage("score", case_id):
            scores = class_scores(masks.reshape(len(classes), *shape[1:]), classes, h_case,
                                  mean.rows, cfg.entropy_region == "contour")
        del masks
        return scores, [dice(pred.reshape(shape[1:]), gt, k) for k in classes], h_case, n


def _case_dirs(cfg):
    pred_root = Path(cfg.predictions_dir)
    if not pred_root.is_dir():
        raise ValidationError(f"predictions dir {pred_root} does not exist")
    case_ids = sorted(d.name for d in pred_root.iterdir() if d.is_dir())
    if not case_ids:
        raise ValidationError(f"no case directories under {pred_root}")
    for case_id in case_ids:  # a case id is a CSV field and a file name stem
        check_id(case_id, f"case directory under predictions_dir {pred_root}")
    return pred_root, case_ids
