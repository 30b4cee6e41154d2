"""The CSV cell rule, the writers built on it, and the CSV reader.

``csv_line`` renders every CSV line the package writes; its floats have 9 significant
digits, stable enough for byte-for-byte golden files. A result's row is its dataclass
fields in declaration order, the order of its CSV columns and of its readers.
"""

from pathlib import Path

from .errors import ValidationError


def write_lines(path, lines):
    Path(path).write_text("\n".join(lines) + "\n")


def read_text(path):
    """The text of the file at ``path``; ValidationError unless it is UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not a UTF-8 text file") from None


def csv_line(*cells):
    """One CSV line of ``cells``: a float to 9 significant digits, a bool as 0/1, None as
    an empty cell, anything else (an int, a string) by ``str``."""
    return ",".join("" if c is None else str(int(c)) if isinstance(c, bool) else
                    format(float(c), ".9g") if isinstance(c, float) else str(c) for c in cells)


SCORE_HEADER = "class,h_total,contour_pixels,score,empty_contour_flag"
DICE_HEADER = "class,intersection,pred_size,gt_size,dice"
SUMMARY_HEADER = "kind,case_id,class_id,metric,value"


def write_ece_csv(path, report):
    n = len(report.counts)
    bins = zip(report.counts, report.mean_confidence, report.accuracy)
    write_lines(path, ["record,lower,upper,count,mean_confidence,accuracy"] + [
        csv_line(f"bin{b}", b / n, (b + 1) / n, *row) for b, row in enumerate(bins)] + [
        csv_line("ece_percent", None, None, report.counts.sum(), None, report.ece)])


def read_csv(path, columns):
    """Rows of a CSV whose header is the names of ``columns``, in order.

    ``columns`` maps each column name to a parser of its text, such as
    ``int`` or ``float``, that raises ValueError or ValidationError on a bad
    field. Blank lines are skipped. A wrong header, a wrong field count or a bad
    field raises ValidationError naming the file and the line.
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
            except (ValueError, ValidationError):
                raise ValidationError(f"{path}:{lineno}: bad {name} {text!r}") from None
        rows.append(tuple(row))
    return rows
