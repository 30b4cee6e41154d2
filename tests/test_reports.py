"""The CSV cell rule, and the coupling of each result's fields to its CSV columns."""

from dataclasses import fields

import numpy as np
import pytest

from uqseg.metrics import DiceResult
from uqseg.reports import DICE_HEADER, SCORE_HEADER, csv_line
from uqseg.selection import (
    CheckpointSet, SelectedCheckpoint, TraceRecord, TrainingTrace, export_selection,
)
from uqseg.uncertainty import UncertaintyScore


@pytest.mark.parametrize(
    "cell, text",
    [
        pytest.param(0.1, "0.1", id="float"),
        pytest.param(np.float64(0.1), "0.1", id="float64"),
        pytest.param(1 / 3, "0.333333333", id="float-9-digits"),
        pytest.param(-0.0, "-0", id="float-negative-zero"),
        pytest.param(float("nan"), "nan", id="float-nan"),
        # the confidence and accuracy of an empty ECE bin
        pytest.param(np.float64("nan"), "nan", id="float64-nan"),
        pytest.param(1e-12, "1e-12", id="float-tiny"),
        pytest.param(np.float64(1e-12), "1e-12", id="float64-tiny"),
        pytest.param(np.int64(7), "7", id="int64"),  # an ECE count
        # an int is never rounded to 9 digits
        pytest.param(12345678901234, "12345678901234", id="int-large"),
        pytest.param(True, "1", id="bool-true"),  # empty_contour
        pytest.param(False, "0", id="bool-false"),
        # an empty checkpoint id, the summary's dataset columns
        pytest.param(None, "", id="none"),
        pytest.param("case0001", "case0001", id="str"),
    ],
)
def test_each_cell_type_renders_by_the_one_rule(cell, text):
    assert csv_line(cell) == text


def test_cells_are_joined_in_order():
    assert csv_line() == ""
    assert csv_line("dataset", None, None, "ece_percent", 2.5) == "dataset,,,ece_percent,2.5"
    assert csv_line(*vars(UncertaintyScore(2, 0.5, 10, 0.05, False)).values()) == "2,0.5,10,0.05,0"


def test_an_int_in_a_float_field_renders_as_the_float_would():
    # a library trace may carry lr_max=2; below 1e9 str and 9 digits agree
    for value in (0, 2, 999_999_999):
        assert csv_line(value) == csv_line(float(value))


def test_an_int_is_rendered_whole_whatever_its_size():
    # the cell rule goes by the value's type, not the field's: lr_max=10**10 stays whole
    assert csv_line(10**10, 1e10) == "10000000000,1e+10"


def _trace_header(tmp_path):
    path = tmp_path / "trace.csv"
    TrainingTrace((TraceRecord(0, 0.1, 0.5),)).to_csv(path)
    return path.read_text().splitlines()[0]


def _manifest_header(tmp_path):
    path = tmp_path / "manifest.csv"
    export_selection(CheckpointSet((SelectedCheckpoint(0, 4, "ep00004", 0.5),)), path)
    return path.read_text().splitlines()[0]


@pytest.mark.parametrize(
    "header, result",
    [
        (lambda tmp_path: SCORE_HEADER, UncertaintyScore),
        (lambda tmp_path: DICE_HEADER, DiceResult),
        (_trace_header, TraceRecord),
        (_manifest_header, SelectedCheckpoint),
    ],
    ids=["score", "dice", "trace", "manifest"],
)
def test_every_field_of_a_result_has_a_column(tmp_path, header, result):
    # a result's row is its fields in order: a field without a column fails here
    assert len(header(tmp_path).split(",")) == len(fields(result))


def test_written_trace_and_manifest_rows_read_back_as_their_records(tmp_path):
    records = (TraceRecord(0, 2, 0.25, "ep00000"), TraceRecord(3, 0.1, 0.5))
    TrainingTrace(records).to_csv(tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_text().splitlines()[1:] == [
        "0,2,0.25,ep00000", "3,0.1,0.5,",
    ]
    assert TrainingTrace.from_csv(tmp_path / "trace.csv").records == records
    entries = (SelectedCheckpoint(1, 7, "ep00007", 0.75),)
    export_selection(CheckpointSet(entries), tmp_path / "manifest.csv")
    assert (tmp_path / "manifest.csv").read_text().splitlines()[1:] == ["1,7,ep00007,0.75"]
