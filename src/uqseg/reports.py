"""Deterministic CSV writers and the CSV reader shared by the pipeline and CLI.

Every float is rendered with 9 significant digits so outputs are stable
enough for byte-for-byte golden-file comparison.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ValidationError


def fmt9(value) -> str:
    return format(float(value), ".9g")


def write_lines(path, lines):
    Path(path).write_text("\n".join(lines) + "\n")


def read_text(path):
    """The text of the file at ``path``; ValidationError unless it is UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not a UTF-8 text file") from None


def _row(case_id, *fields):
    return ",".join(([] if case_id is None else [case_id]) + [str(f) for f in fields])


def score_row(score, case_id=None):
    return _row(
        case_id, score.class_id, fmt9(score.h_total), score.contour_pixels,
        fmt9(score.score), int(score.empty_contour),
    )


SCORE_HEADER = "class,h_total,contour_pixels,score,empty_contour_flag"


DICE_HEADER = "class,intersection,pred_size,gt_size,dice"


def dice_row(result, case_id=None):
    return _row(
        case_id, result.class_id, result.intersection, result.pred_size, result.gt_size,
        fmt9(result.dice),
    )


def write_ece_csv(path, report):
    lines = ["record,lower,upper,count,mean_confidence,accuracy"]
    n = len(report.counts)
    for b in range(n):
        lines.append(_row(
            f"bin{b}", fmt9(b / n), fmt9((b + 1) / n), int(report.counts[b]),
            fmt9(report.mean_confidence[b]), fmt9(report.accuracy[b]),
        ))
    total = int(report.counts.sum())
    lines.append(f"ece_percent,,,{total},,{fmt9(report.ece)}")
    write_lines(path, lines)


SUMMARY_HEADER = "kind,case_id,class_id,metric,value"


def summary_case_row(case_id, class_id, metric, value):
    return f"case,{case_id},{class_id},{metric},{fmt9(value)}"


def summary_dataset_row(metric, value):
    text = fmt9(value) if isinstance(value, (int, float)) else str(value)
    return f"dataset,,,{metric},{text}"


def read_csv(path, columns):
    """Rows of a CSV whose header is the names of ``columns``, in order.

    ``columns`` maps each column name to a parser of its text, such as
    ``int`` or ``float``, that raises ValueError on a bad field. Blank lines
    are skipped. A wrong header, a wrong field count or a bad field raises
    ValidationError naming the file and the line.
    """
    lines = read_text(path).splitlines()
    header = ",".join(columns)
    if not lines or lines[0] != header:
        raise ValidationError(f"{path}: expected header {header!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(columns):
            raise ValidationError(
                f"{path}:{lineno}: expected {len(columns)} fields, got {len(fields)}"
            )
        row = []
        for (name, parse), text in zip(columns.items(), fields):
            try:
                row.append(parse(text))
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: bad {name} {text!r}") from None
        rows.append(tuple(row))
    return rows
