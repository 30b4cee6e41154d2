"""CSV and config inputs of the CLI: any file content keeps the exit-code contract.

The trace, the manifest and the report cases go through one reader, so a
bad number or a path-like checkpoint id exits 2 from every command that
reads them, and never escapes as a traceback. The ``run`` config text is
fuzzed the same way.
"""

import contextlib
import io
import os
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqseg.arrayio import write_array
from uqseg.cli import main
from uqseg.pipeline import PipelineConfig
from uqseg.scheduler import SgdrConfig
from uqseg.toy import run_toy_training

HEADERS = {
    "trace": "epoch,lr,val_metric,checkpoint_id",
    "manifest": "cycle,epoch,checkpoint_id,metric",
    "cases": "case_id,class_id,uncertainty_score,dice",
}
MEMBER_IDS = ("a", "b")


def _argv(kind, csv_path, root):
    """Command line that feeds ``csv_path`` to main as a ``kind`` input."""
    if kind == "trace":
        return [
            "select-checkpoints", "--trace", str(csv_path),
            "--t0", "2", "--eta", "1", "--epochs", "8", "--out", str(root / "m.csv"),
        ]
    if kind == "manifest":
        return [
            "fuse", "--manifest", str(csv_path),
            "--inputs", str(root / "members"), "--out", str(root / "mean.uqsg"),
        ]
    if kind == "cases":
        return ["report", "--cases", str(csv_path), "--out", str(root / "summary.csv")]
    # "run": the trace read by the pipeline's select stage; an outdir inside
    # predictions_dir would be refused before it
    config = root / "p.cfg"
    config.write_text(
        f"trace = {csv_path}\n"
        f"predictions_dir = {root / 'predictions'}\n"
        f"cases_dir = {root}\n"
        f"outdir = {root / 'out'}\n"
        "t0 = 2\neta = 1\ntotal_epochs = 8\n"
    )
    return ["run", "--config", str(config)]


def _main(kind, text, root):
    """(exit code, stderr) of main on ``text`` (str or bytes) as the ``kind`` CSV."""
    members = root / "members"
    members.mkdir(exist_ok=True)
    for cid in MEMBER_IDS:
        write_array(members / f"{cid}.uqsg", np.full((2, 3, 3), 0.5, dtype=np.float32))
    csv_path = root / "in.csv"
    # a lone surrogate drawn by hypothesis becomes non-UTF-8 bytes, which the
    # readers must reject like any binary file
    data = text if isinstance(text, bytes) else text.encode("utf-8", "surrogatepass")
    csv_path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(_argv(kind, csv_path, root))
    return code, err.getvalue()


_FIELD = st.sampled_from(
    ["0", "1", "3", "0.5", "0.95", "-1", "nan", "inf", "1e999", "", " 2", "x"]
    + list(MEMBER_IDS)
    + ["../a", "a/b", "ep00001"]
) | st.text(alphabet=st.characters(blacklist_characters=",\r\n"), max_size=6)
_ROW = st.lists(_FIELD, min_size=3, max_size=5).map(",".join)


@st.composite
def _csv_text(draw, header):
    first = draw(st.sampled_from([header, header.upper()]) | st.text(max_size=20))
    body = draw(st.lists(_ROW | st.text(max_size=30), max_size=8))
    return "\n".join([first, *body]) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(HEADERS)), data=st.data())
def test_any_csv_text_keeps_exit_contract(kind, data):
    text = data.draw(_csv_text(HEADERS[kind]), label="csv")
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _main(kind, text, Path(tmp))
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "kind, row",
    [
        ("cases", "c1,1,abc,0.9"),
        ("cases", "c1,one,0.1,0.9"),
        ("trace", "0,0.1,x,ep00000"),
        ("trace", "zero,0.1,0.5,ep00000"),
        ("manifest", "0,1,a,zz"),
        ("run", "0,0.1,x,ep00000"),
    ],
)
def test_malformed_number_exits_validation(kind, row, tmp_path):
    header = HEADERS["trace" if kind == "run" else kind]
    code, err = _main(kind, f"{header}\n{row}\n", tmp_path)
    assert code == 2
    assert "Traceback" not in err
    assert "in.csv:2: bad " in err


@pytest.mark.parametrize("cid", ["../a", "a/b", "/a", "a\\b", "a b"])
@pytest.mark.parametrize("kind", ["trace", "manifest", "run"])
def test_path_like_checkpoint_id_exits_validation(kind, cid, tmp_path):
    # ../a names a valid posterior one level above the members dir
    write_array(tmp_path / "a.uqsg", np.full((2, 3, 3), 0.5, dtype=np.float32))
    if kind == "manifest":
        text = f"{HEADERS['manifest']}\n0,1,{cid},0.9\n"
    else:  # epoch 1 is the selection window of the first cycle
        text = f"{HEADERS['trace']}\n0,0.1,0.5,\n1,0.1,0.9,{cid}\n"
    code, err = _main(kind, text, tmp_path)
    assert code == 2
    assert "bad checkpoint_id" in err
    assert not (tmp_path / "mean.uqsg").exists()


@pytest.mark.parametrize("kind", ["trace", "manifest"])
def test_written_ids_still_pass(kind, tmp_path):
    if kind == "manifest":
        text = f"{HEADERS['manifest']}\n0,1,a,0.9\n0,0,b,0.8\n"
    else:
        text = f"{HEADERS['trace']}\n0,0.1,0.5,ep00000\n1,0.1,0.9,ep00001\n"
    assert _main(kind, text, tmp_path) == (0, "")


@pytest.mark.parametrize("kind", ["trace", "manifest", "cases", "run"])
def test_binary_csv_exits_validation(kind, tmp_path):
    code, err = _main(kind, b"\xff\xfe\x00binary", tmp_path)
    assert code == 2
    assert "not a UTF-8 text file" in err


# the keys of a run config whose values are paths, and what they may name:
# ("in", name) under the prepared inputs, ("work", name) under the example's
# own directory, or the text itself
PATH_VALUES = {
    "trace": [("in", "trace.csv"), ("in", "predictions"), ("in", "absent.csv"), ""],
    "predictions_dir": [("in", "predictions"), ("in", "trace.csv"), ("in", "absent"), ""],
    "cases_dir": [("in", "cases"), ("in", "predictions"), ("in", "absent"), ""],
    "outdir": [
        ("work", "analysis"), ("work", "a/b"), ("work", "file"), ("in", "cases"),
        ("in", "predictions/out"), "",
    ],
}
OTHER_VALUES = ["", "x", "0", "1", "2", "-1", "0.5", "1e999", "nan", "inf", "true", "1,2", "7", ","]
VALUES = {
    "t0": ["4", "8", "100001"], "total_epochs": ["8", "4", "100001"], "eta": ["1", "2"],
    "lr_max": ["0.2"], "lr_min": ["0.0001", "0.3"], "per_cycle": ["3"],
    "window_fraction": ["0.25", "1.5"], "min_peak_ratio": ["0.01", "2"],
    "classes": ["1", "2", "1,2", "0"], "bins": ["10", "10000", "10001"],
    "entropy_region": ["image", "contour", "Image"], "ece_foreground_only": ["yes", "no", "maybe"],
}
# the valid config of the prepared inputs, one key per line
BASE = {
    "trace": ("in", "trace.csv"), "predictions_dir": ("in", "predictions"),
    "cases_dir": ("in", "cases"), "outdir": ("work", "analysis"), "t0": "4", "eta": "1",
    "lr_max": "0.2", "lr_min": "0.0001", "total_epochs": "8",
}
KEYS = [f.name for f in fields(PipelineConfig)]


@pytest.fixture(scope="module")
def run_inputs(tmp_path_factory):
    """A toy-train tree whose one test case a run config can analyze."""
    root = tmp_path_factory.mktemp("run-inputs")
    cfg = SgdrConfig(t0=4, eta=1, lr_max=0.2, lr_min=1e-4, total_epochs=8)
    run_toy_training(
        root, seed=3, n_train=2, n_test=1, shape=(16, 16), class_count=3, cfg=cfg, noise_std=0.1,
    )
    return root


def _config_value(key):
    if key in PATH_VALUES:  # never a drawn path: it could name any place on the disk
        return st.sampled_from(PATH_VALUES[key])
    return st.sampled_from(VALUES.get(key, []) + OTHER_VALUES) | st.text(max_size=6)


def _key_value(keys):
    return st.sampled_from(keys).flatmap(lambda k: st.tuples(st.just(k), _config_value(k)))


@st.composite
def _config_lines(draw):
    """Lines of a run config: the valid ones with drawn values and drops, then junk."""
    values = dict(BASE)
    values.update(draw(st.lists(_key_value(KEYS), max_size=3)))
    lines = [(key, value) for key, value in values.items() if draw(st.integers(0, 7))]
    junk = ["", "   ", "# comment", "t0", "= 4", "t0 = 4 = 5", "\ufeffeta = 1", b"\xff\xfe = \x00"]
    extra = _key_value(["bogus", "T0", "trace dir", "", "# t0", *KEYS]) | st.sampled_from(junk)
    lines += draw(st.lists(extra, max_size=2))
    return draw(st.permutations(lines))


def _render_config(lines, inputs, work):
    out = []
    for line in lines:
        if isinstance(line, tuple):
            key, value = line
            if isinstance(value, tuple):
                value = (inputs if value[0] == "in" else work) / value[1]
            line = f"{key} = {value}"
        out.append(line if isinstance(line, bytes) else line.encode("utf-8", "surrogatepass"))
    return b"\n".join(out) + b"\n"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_run_config_text_keeps_exit_contract(run_inputs, data):
    lines = data.draw(_config_lines(), label="config")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "file").write_text("not a directory\n")
        config = work / "p.cfg"
        config.write_bytes(_render_config(lines, run_inputs, work))
        err = io.StringIO()
        os.chdir(work)  # a relative path in the text lands in the example's directory
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["run", "--config", str(config)])
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
