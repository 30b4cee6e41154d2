"""Any argv of any subcommand, and any damaged array file, keeps the exit-code contract.

Each argv example draws a subcommand and tokens from its flags: small
numbers, shapes and epochs, junk values, and paths from a prepared set of
valid and broken ``.uqsg`` and CSV files. Outputs go to a fresh directory.
The exit code must be 0, 2, 3 or 4 (argparse's own usage errors exit 2) and
no traceback may reach stderr. Each damaged-file example mutates the header
or the length of a valid posterior or label file and feeds it to one of the
commands that read such a file.
"""

import contextlib
import io
import shutil
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqseg.arrayio import write_array
from uqseg.cli import main
from uqseg.scheduler import SgdrConfig
from uqseg.selection import read_selection
from uqseg.toy import run_toy_training

SCHEDULE = ("--t0", "--eta", "--lr-max", "--lr-min", "--epochs")
POLICY = ("--per-cycle", "--window-fraction", "--min-peak-ratio")

# (flags every example passes, flags it may add) per command: the required
# flags, and the sizes of the toy commands, so none trains or draws at full size
FLAGS = {
    "lr-schedule": ((), (*SCHEDULE, "--out")),
    "select-checkpoints": (("--trace", "--out"), (*SCHEDULE, *POLICY)),
    "fuse": (("--manifest", "--inputs", "--out"), ()),
    "entropy": (("--in", "--out"), ("--pgm",)),
    "score": (("--in", "--classes"), ("--out", "--contour-entropy")),
    "dice": (("--pred", "--gt", "--classes"), ("--out",)),
    "ece": (("--pred", "--gt", "--out"), ("--bins", "--foreground-only")),
    "report": (("--cases", "--out"), ()),
    "toy-gen": (("--seed", "--cases", "--shape", "--outdir"), ("--classes", "--noise")),
    "toy-train": (
        ("--seed", "--cases", "--shape", "--t0", "--epochs", "--outdir"),
        ("--classes", "--noise", "--test-cases", "--eta", "--lr-max", "--lr-min", *POLICY),
    ),
    "run": (("--config",), ()),
    "info": ((), ("--json",)),
}
SWITCHES = {"--contour-entropy", "--foreground-only", "--json"}

# mostly values the parsers accept, so most examples reach the command itself
_INT = st.sampled_from(["0", "1", "2", "3", "4", "6", "-1", "-2", "x", "", "1e308"])
_FLOAT = st.sampled_from(["0", "0.01", "0.5", "0.9", "1", "2", "1e-4", "-1", "nan", "inf", "x"])
_SIDE = st.sampled_from([8, 12, 16]) | st.integers(0, 16)
_SHAPE = st.builds("{}x{}".format, _SIDE, _SIDE) | st.sampled_from(["16", "x", "8x8x8", "ax8"])
_EPOCHS = st.integers(-1, 20).map(str)
_CLASSES = st.sampled_from(["1", "2", "1,2", "0", "7", "-1", "", ",", "a"])
_OUT = st.sampled_from(["out.csv", "out.uqsg", "sub/dir/out", "dir", "."])
# a missing value, an unknown flag, a stray positional or --help, now and then
_EXTRA = st.sampled_from([[]] * 6 + [["--bogus"], ["stray"], ["--out"], ["--help"]])


def _value(command, flag, inputs):
    """Strategy of the value that follows ``flag``: a token, None for a switch,
    or ("in" | "out", name) for a path under the inputs or the output root."""
    if flag in SWITCHES:
        return st.none()
    if flag in ("--out", "--outdir", "--pgm"):
        return _OUT.map(lambda name: ("out", name))
    if flag in inputs and (flag != "--cases" or command == "report"):
        return st.sampled_from(inputs[flag]).map(lambda name: ("in", name))
    if flag == "--shape":
        return _SHAPE
    if flag == "--epochs":
        return _EPOCHS
    if flag == "--cases":  # scenes to draw
        return st.integers(-1, 6).map(str)
    if flag == "--seed":
        return _INT | st.just(str(2**64))
    if flag == "--classes":
        return _CLASSES | _INT
    if flag in ("--eta", "--lr-max", "--lr-min", "--window-fraction", "--min-peak-ratio", "--noise"):
        return _FLOAT
    return _INT


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A prepared input tree, and the names the path flags draw from."""
    root = tmp_path_factory.mktemp("fuzz-inputs")
    cfg = SgdrConfig(t0=4, eta=1, lr_max=0.2, lr_min=1e-4, total_epochs=8)
    run_toy_training(
        root / "train", seed=3, n_train=2, n_test=1, shape=(16, 16), class_count=3,
        cfg=cfg, noise_std=0.1,
    )
    train = root / "train"
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(3, 8, 8))
    probs = (np.exp(logits) / np.exp(logits).sum(axis=0)).astype(np.float32)
    write_array(root / "probs.uqsg", probs)
    write_array(root / "off-simplex.uqsg", probs * 0.7)
    write_array(root / "labels.uqsg", rng.integers(0, 3, size=(8, 8)).astype(np.uint8))
    write_array(root / "float-labels.uqsg", np.zeros((8, 8), dtype=np.float32))
    write_array(root / "wide-labels.uqsg", np.full((5, 5), 9, dtype=np.uint8))
    valid = (root / "probs.uqsg").read_bytes()
    (root / "truncated.uqsg").write_bytes(valid[: len(valid) // 2])
    (root / "garbage.uqsg").write_bytes(rng.bytes(64))
    (root / "empty").write_bytes(b"")
    assert main([
        "select-checkpoints", "--trace", str(train / "trace.csv"), "--t0", "4", "--eta", "1",
        "--epochs", "8", "--out", str(root / "manifest.csv"),
    ]) == 0
    case_dir = next((train / "predictions").iterdir())
    (root / "members").symlink_to(case_dir, target_is_directory=True)
    (root / "cases.csv").write_text("case_id,class_id,uncertainty_score,dice\na,1,0.1,0.9\nb,1,0.2,0.8\n")
    (root / "bad.csv").write_text("epoch,lr\n1,x\n")
    paths = f"trace = {train / 'trace.csv'}\npredictions_dir = {train / 'predictions'}\n"
    paths += f"cases_dir = {train / 'cases'}\n"
    schedule = "t0 = 4\neta = 1\nlr_max = 0.2\nlr_min = 0.0001\ntotal_epochs = 8\n"
    (root / "run.cfg").write_text(paths + schedule)  # each example appends an outdir
    (root / "bad.cfg").write_text(paths + schedule + "classes = 7\n")
    (root / "empty-path.cfg").write_text(paths.replace(str(train / "trace.csv"), "") + schedule)
    (root / "binary.cfg").write_bytes(b"\xff\xfe\x00")
    broken = ["truncated.uqsg", "garbage.uqsg", "empty", "absent.uqsg", "members"]
    arrays = [
        "probs.uqsg", "off-simplex.uqsg", "labels.uqsg", "float-labels.uqsg",
        "wide-labels.uqsg", *broken,
    ]
    return root, {
        "--in": arrays, "--pred": arrays, "--gt": arrays,
        "--inputs": ["members", "absent", "probs.uqsg"],
        "--trace": [str(Path("train") / "trace.csv"), "bad.csv", "cases.csv", *broken],
        "--manifest": ["manifest.csv", "bad.csv", "cases.csv", *broken],
        "--cases": ["cases.csv", "bad.csv", "manifest.csv", *broken],
        "--config": ["run.cfg", "bad.cfg", "empty-path.cfg", "binary.cfg", "probs.uqsg", *broken],
    }


@st.composite
def _argv(draw, inputs):
    """(command, [(flag, value or None), ...], extra tokens) for one example."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    required, optional = FLAGS[command]
    flags = list(required)
    if optional:
        flags += draw(st.lists(st.sampled_from(optional), max_size=4, unique=True))
    tokens = [(flag, draw(_value(command, flag, inputs))) for flag in flags]
    return command, tokens, draw(_EXTRA)


def _render(tokens, root, work):
    argv = []
    for flag, value in tokens:
        argv.append(flag)
        if isinstance(value, tuple):
            kind, name = value
            path = (root if kind == "in" else work) / name
            if flag == "--config" and name.endswith(".cfg") and name != "binary.cfg":
                path = work / name  # the prepared keys plus an outdir of its own
                path.write_text((root / name).read_text() + f"outdir = {work / 'analysis'}\n")
            argv.append(str(path))
        elif value is not None:
            argv.append(value)
    return argv


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_argv_keeps_exit_contract(inputs, data):
    root, names = inputs
    command, tokens, extra = data.draw(_argv(names), label="argv")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "dir").mkdir()
        argv = [command, *_render(tokens, root, work), *extra]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors exit 2, --help 0
                code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


# where a command reads a posterior or a label file: its flag, or "member"
# (a checkpoint posterior of the fused case) or "labels" (the case's labels)
READERS = [
    ("entropy", "--in"), ("score", "--in"), ("ece", "--pred"), ("ece", "--gt"),
    ("dice", "--pred"), ("dice", "--gt"), ("fuse", "member"), ("run", "member"),
    ("run", "labels"),
]


@st.composite
def _damaged(draw, valid):
    """(kind, bytes) of a copy of the array file ``valid`` with its header or length damaged."""
    rank = valid[7]
    data = bytearray(valid)
    kind = draw(st.sampled_from(["flip", "truncate", "append", "huge"]))
    if kind == "flip":  # a byte of the magic, version, dtype code, rank or dims
        data[draw(st.integers(0, 8 + 4 * rank - 1))] ^= draw(st.integers(1, 255))
    elif kind == "truncate":
        del data[draw(st.integers(0, len(data) - 1)) :]
    elif kind == "append":
        data += draw(st.binary(min_size=1, max_size=16))
    else:  # one dim declares far more than the file holds
        k = 8 + 4 * draw(st.integers(0, rank - 1))
        data[k : k + 4] = struct.pack("<I", draw(st.integers(2**16, 2**32 - 1)))
    return kind, bytes(data)


def _reader_argv(command, role, root, work):
    """(argv, path of the file to damage) reading a valid copy of each input under ``work``."""
    train = root / "train"
    case_dir = next((train / "predictions").iterdir())
    case = case_dir.name
    shutil.copytree(case_dir, work / "preds" / case)
    (work / "cases").mkdir()
    shutil.copyfile(train / "cases" / f"{case}_labels.uqsg", work / "cases" / f"{case}_labels.uqsg")
    for name in ("probs.uqsg", "labels.uqsg"):
        shutil.copyfile(root / name, work / name)
    first_id = read_selection(root / "manifest.csv").checkpoint_ids[0]
    member = work / "preds" / case / f"{first_id}.uqsg"
    probs, labels = work / "probs.uqsg", work / "labels.uqsg"
    if command == "fuse":
        argv = ["--manifest", str(root / "manifest.csv"), "--inputs", str(member.parent)]
        return ["fuse", *argv, "--out", str(work / "mean.uqsg")], member
    if command == "run":
        config = (root / "run.cfg").read_text()
        config = config.replace(str(train / "predictions"), str(work / "preds"))
        config = config.replace(str(train / "cases"), str(work / "cases"))
        (work / "p.cfg").write_text(config + f"outdir = {work / 'analysis'}\n")
        target = member if role == "member" else work / "cases" / f"{case}_labels.uqsg"
        return ["run", "--config", str(work / "p.cfg")], target
    if command in ("entropy", "score"):
        argv = ["--in", str(probs), "--out", str(work / "out")]
        return [command, *argv, *(["--classes", "1,2"] if command == "score" else [])], probs
    if command == "ece":
        argv = ["--pred", str(probs), "--gt", str(labels), "--out", str(work / "ece.csv")]
        return ["ece", *argv], probs if role == "--pred" else labels
    other = work / "other.uqsg"  # dice: the undamaged side
    shutil.copyfile(labels, other)
    sides = (labels, other) if role == "--pred" else (other, labels)
    return ["dice", "--pred", str(sides[0]), "--gt", str(sides[1]), "--classes", "1,2"], labels


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_array_file_keeps_exit_contract(inputs, data):
    root, _ = inputs
    command, role = data.draw(st.sampled_from(READERS), label="reader")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        argv, target = _reader_argv(command, role, root, work)
        kind, damaged = data.draw(_damaged(target.read_bytes()), label="damage")
        target.write_bytes(damaged)
        out, err = io.StringIO(), io.StringIO()
        if kind == "huge":
            tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert str(target) in err.getvalue(), (argv, err.getvalue())
    if kind == "huge":
        assert code == 3
        assert peak < 2**20
