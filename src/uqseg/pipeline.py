"""End-to-end analysis driver: select, fuse, entropy, score, metrics, report.

run_pipeline turns the artifacts of a training run (a trace CSV, member
posteriors, labels) into the manifest, fused means, entropy maps, scores,
Dice/ECE tables and a summary CSV. A case is one pass over the pixel blocks of
its fused float32 mean (``fuse_blocks``), writing each map by block, then one
scoring pass over the stored mean. Only the labels are whole: the benchmark
counts ``run``'s ``read_array`` calls, so they stream once its tracer counts
block reads. A case writes ``mean/<case>.uqsg``, ``entropy/<case>.uqsg`` and
one 8-bit ``entropy/<case>.pgm`` (a 3D map's slices stacked top to bottom),
names known from the case id alone, so one helper thread creates them, empty,
ahead of the case loop. The tree is built in a sibling staging directory and
renamed into ``outdir`` at the end, so ``outdir`` holds a whole run or nothing;
a failure names the stage and the case. The steps that ``run`` shares with the
stage commands of ``cli`` are public.
"""

import os
import shutil
import stat
import threading
from contextlib import ExitStack, contextmanager
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import reports
from .arrayio import ArrayFile, entropy_to_gray, read_array
from .arrays import pixel_blocks, validate_labels, validate_probability_shape
from .ensemble import argmax_labels, ensemble_mean
from .errors import StageError, ValidationError
from .metrics import (DEFAULT_ECE_BINS, CalibrationAccumulator, dice_counts, dice_of_counts,
                      uncertainty_dice_table)
from .scheduler import SgdrConfig
from .selection import SelectionPolicy, TrainingTrace, check_id, export_selection, find_cycle_peaks
from .uncertainty import check_classes, class_scores, pixel_entropy


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
# a setting's parser by the annotated type of its field: the values of the
# run config and the schedule and policy flags of the CLI
FIELD_PARSERS = {
    str: str, int: int, float: float, bool: lambda value: _BOOLS[value.lower()],
    tuple: lambda value: tuple(int(v) for v in value.split(",") if v.strip()),
}


def run_pipeline(cfg: PipelineConfig) -> Path:
    """Run every stage into ``cfg.outdir`` and return the summary CSV's path.

    ``outdir`` must be absent or empty, and must not lie inside
    ``predictions_dir``, whose every directory is read as a case. The tree
    is built in the sibling ``<outdir>.partial``, which must not exist, and
    published by one ``os.replace``; on any failure it is removed and
    ``outdir`` is left as it was (a stage failure raises StageError). Missing
    parents of ``outdir`` are created; an empty ``outdir`` keeps its
    permission bits, not its group or ACLs. A case holds its labels whole and
    everything else block-sized, its scoring pass included.
    """
    out = check_outdir(cfg.outdir)
    if out.is_relative_to(Path(cfg.predictions_dir).resolve()):
        raise ValidationError(
            f"outdir {cfg.outdir} lies inside predictions_dir {cfg.predictions_dir}, "
            "whose every directory is read as a case"
        )
    staging = out.with_name(f"{out.name}.partial")
    try:  # one staging tree per outdir: a run never removes a tree it did not create
        staging.mkdir(parents=True)
    except FileExistsError:
        raise ValidationError(f"staging tree {staging} exists: a run into {cfg.outdir} is "
                              "under way or was killed; remove it to run again") from None
    try:
        _run(cfg, staging)
        if out.is_dir():  # set last, so a read-only mode cannot stop the run
            staging.chmod(stat.S_IMODE(out.stat().st_mode))
        os.replace(staging, out)
    except BaseException:  # never once published: the name may then be another run's
        shutil.rmtree(staging, ignore_errors=True)
        raise
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
def fuse_blocks(paths):
    """Open every member file of ``paths``, checking its header and shape, and yield the
    mean's shape and its ``(pixels, float32 rows)`` per pixel block, in order: each block's
    member rows read in ``paths`` order and averaged in float64 by ``ensemble_mean``."""
    with ExitStack() as stack:
        members = []
        for path in paths:
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


def entropy_block(out, pixels, rows):
    """Write one block's entropy rows to ``out``; its 8-bit values and its total."""
    h = pixel_entropy(rows)
    out.write(pixels, h.astype(np.float32)[None])
    return entropy_to_gray(h, len(rows)), float(h.sum())


def select_checkpoints(trace_path, settings, out):
    """Select the checkpoints of the trace CSV at ``trace_path`` and write the
    manifest to ``out``; ``settings`` carries the schedule and policy fields."""
    selection = find_cycle_peaks(TrainingTrace.from_csv(trace_path),
                                 settings_of(SgdrConfig, settings),
                                 settings_of(SelectionPolicy, settings))
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
    note on why it was omitted, followed by the (metric, value) pairs of
    ``dataset_rows``.
    """
    table = uncertainty_dice_table([(s, d) for _, _, s, d in cases])
    first = ("spearman_note", table.note) if table.spearman is None else (
        "spearman_score_dice", table.spearman)
    reports.write_lines(path, [reports.SUMMARY_HEADER] + [
        reports.csv_line("case", case_id, class_id, metric, value)
        for case_id, class_id, score, dice_value in cases
        for metric, value in (("uncertainty_score", score), ("dice", dice_value))
    ] + [reports.csv_line("dataset", None, None, *row) for row in (first, *dataset_rows)])


def _run(cfg, out):
    """Write the whole tree into the existing directory ``out``."""
    with _stage("select-checkpoints"):
        ids = select_checkpoints(cfg.trace, cfg, out / "manifest.csv").checkpoint_ids
    with _stage("fuse"):
        pred_root, case_ids = _case_dirs(cfg)
        (out / "mean").mkdir()
        (out / "entropy").mkdir()
    score_lines = ["case_id," + reports.SCORE_HEADER]
    dice_lines = ["case_id," + reports.DICE_HEADER]
    acc = CalibrationAccumulator(cfg.bins)
    cases, entropy_sum, entropy_count = [], 0.0, 0  # cases: (case, class, score, dice) rows
    stop = threading.Event()
    helper = threading.Thread(target=_create_outputs, args=(out, case_ids, stop))
    helper.start()
    try:
        for case_id in case_ids:
            scores, dices, h_case, n = _run_case(cfg, ids, pred_root, case_id, out, acc)
            score_lines += [reports.csv_line(case_id, *vars(s).values()) for s in scores]
            dice_lines += [reports.csv_line(case_id, *vars(d).values()) for d in dices]
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
            ("ece_percent", calibration.ece), ("avg_entropy_bits", entropy_sum / entropy_count),
            ("h_total_region", cfg.entropy_region)])


def _create_outputs(out, case_ids, stop):
    """Create, empty, the three files that each case of ``case_ids`` writes into ``out``, in
    loop order until ``stop`` is set, so that the loop's own opens find them made."""
    for case_id in case_ids:
        if stop.is_set():
            return
        try:  # no O_TRUNC: a file the loop wrote keeps its bytes; 0o666 is open()'s mode
            for name in (f"mean/{case_id}.uqsg", f"entropy/{case_id}.uqsg",
                         f"entropy/{case_id}.pgm"):
                os.close(os.open(out / name, os.O_CREAT | os.O_WRONLY, 0o666))
        except OSError:  # the loop opens the same files and reports a failure with its case
            continue


def _run_case(cfg, ids, pred_root, case_id, out, acc):
    """One pass over a case's pixel blocks: its scores, Dice, entropy total and pixels."""
    with (
        _stage("fuse", case_id),  # and the block loop; the stages inside name theirs
        fuse_blocks([pred_root / case_id / f"{cid}.uqsg" for cid in ids]) as (shape, blocks),
        ArrayFile(out / "mean" / f"{case_id}.uqsg", shape, np.float32) as mean,
        ArrayFile(out / "entropy" / f"{case_id}.uqsg", shape[1:], np.float32) as entropy,
        ArrayFile(out / "entropy" / f"{case_id}.pgm", shape[1:], np.uint8, pgm=True) as pgm,
    ):
        with _stage("score", case_id):
            classes = check_classes(cfg.classes or range(1, shape[0]), shape[0])
        with _stage("metrics", case_id):
            gt = read_labels(Path(cfg.cases_dir) / f"{case_id}_labels.uqsg", shape[0], shape)
        counts, h_case = np.zeros((len(classes), 3), dtype=np.int64), 0.0  # dice_counts per class
        for pixels, rows in blocks:
            mean.write(pixels, rows)
            gray, h_block = entropy_block(entropy, pixels, rows)
            pgm.write(pixels, gray[None])
            h_case += h_block
            pred, truth = argmax_labels(rows), gt.reshape(-1)[pixels]
            acc.add(rows, truth, pred, foreground_only=cfg.ece_foreground_only)
            counts += [dice_counts(pred, truth, k) for k in classes]
            del rows  # before the next block is fused
        with _stage("score", case_id):  # one more pass, over the mean just written
            scores = class_scores(shape[1:], classes, h_case, mean.rows,
                                  cfg.entropy_region == "contour")
        return scores, list(map(dice_of_counts, classes, *counts.T.tolist())), h_case, mean.n


def _case_dirs(cfg):
    pred_root = Path(cfg.predictions_dir)
    case_ids = sorted(d.name for d in pred_root.iterdir() if d.is_dir())
    if not case_ids:
        raise ValidationError(f"no case directories under {pred_root}")
    for case_id in case_ids:  # a case id is a CSV field and a file name stem
        check_id(case_id, f"case directory under predictions_dir {pred_root}")
    return pred_root, case_ids
