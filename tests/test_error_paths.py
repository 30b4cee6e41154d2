"""Error paths that no other test runs: each raises its own error with its own message.

One parametrized test per layer: the CLI (exit code and the whole stderr
line) and the library (exception type and message).
"""

import os
import struct

import numpy as np
import pytest

from uqseg.arrayio import ArrayFile, write_array
from uqseg.arrays import validate_binary, zscore_normalize
from uqseg.cli import main
from uqseg.errors import ArrayFormatError, NumericError, ValidationError
from uqseg.scheduler import SgdrConfig
from uqseg.selection import TraceRecord, TrainingTrace
from uqseg.toy import ToyCase, generate_dataset, train
from uqseg.uncertainty import StructuringElement, dilate


def _rank0_posterior(tmp_path):
    path = tmp_path / "p.uqsg"
    path.write_bytes(struct.pack("<4sHBB", b"UQSG", 1, 0, 0))
    return ["score", "--in", str(path), "--classes", "1"], f"{path}: rank 0 is not supported"


def _one_class_posterior(tmp_path):
    path = tmp_path / "p.uqsg"
    write_array(path, np.ones((1, 4, 4), dtype=np.float32))
    return (["entropy", "--in", str(path), "--out", str(tmp_path / "h.uqsg")],
            f"{path}: probability array needs >= 2 classes, got 1")


def _empty_labels(tmp_path):
    path = tmp_path / "l.uqsg"
    write_array(path, np.zeros(0, dtype=np.uint8))
    return (["dice", "--pred", str(path), "--gt", str(path), "--classes", "1"],
            f"{path}: empty label array")


def _empty_predictions_dir(tmp_path):
    TrainingTrace(tuple(TraceRecord(e, 0.1, 0.5) for e in range(4))).to_csv(
        tmp_path / "trace.csv")
    (tmp_path / "predictions").mkdir()
    config = tmp_path / "p.cfg"
    config.write_text(
        f"trace = {tmp_path / 'trace.csv'}\npredictions_dir = {tmp_path / 'predictions'}\n"
        f"cases_dir = {tmp_path}\noutdir = {tmp_path / 'out'}\nt0 = 2\neta = 1\n"
        "total_epochs = 4\n"
    )
    return (["run", "--config", str(config)],
            f"stage 'fuse' failed: no case directories under {tmp_path / 'predictions'}")


def _no_cases(tmp_path):
    return (["toy-gen", "--cases", "0", "--outdir", str(tmp_path / "d")],
            "n_cases must be >= 1, got 0")


def _classes_drawn_over(tmp_path):
    # ten blobs on an 8x8 scene: the later ones cover every pixel of four earlier ones
    return (["toy-gen", "--seed", "0", "--cases", "1", "--shape", "8x8", "--classes", "10",
             "--outdir", str(tmp_path / "d")],
            "generated dataset is missing classes [1, 3, 4, 6]")


@pytest.mark.parametrize(
    "make, code",
    [
        (_rank0_posterior, 3),
        (_one_class_posterior, 2),
        (_empty_labels, 2),
        (_empty_predictions_dir, 2),
        (_no_cases, 2),
        (_classes_drawn_over, 2),
    ],
    ids=["rank-0-header", "one-class-posterior", "empty-labels", "empty-predictions-dir",
         "no-cases", "classes-drawn-over"],
)
def test_cli_error_path(tmp_path, capsys, make, code):
    argv, message = make(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.rglob("*")) == before  # nothing written


def _write_rank0(tmp_path):
    write_array(tmp_path / "a.uqsg", np.float32(1.0))


def _read_truncated(tmp_path):
    path = tmp_path / "a.uqsg"
    write_array(path, np.zeros((2, 65536), dtype=np.float32))  # more than a read buffer
    with ArrayFile(path) as f:
        os.truncate(path, os.path.getsize(path) // 2)
        f.rows(slice(None))


def _diverged_training(tmp_path):
    # a spike scene's features are far larger than a blob scene's: after the first
    # step the training logits overflow while the validation posterior stays finite
    val = generate_dataset(0, 2, shape=(32, 32))[1]
    image = np.zeros((32, 32))
    image[16, 16] = 1.0
    spike = ToyCase("spike", image, val.labels, 3, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        train([spike], [val], SgdrConfig(t0=5, eta=1, lr_max=4e307, lr_min=0, total_epochs=3))


@pytest.mark.parametrize(
    "call, error, message",
    [
        # numpy builds no array of rank > 255, so rank 0 reaches the rank check
        (_write_rank0, ArrayFormatError, "rank 0 outside supported range 1..255"),
        (_read_truncated, ArrayFormatError, "a.uqsg: file shrank while being read"),
        (lambda tmp_path: validate_binary(np.zeros(0)), ValidationError, "empty binary image"),
        (lambda tmp_path: zscore_normalize(np.zeros((0, 4))), ValidationError,
         "empty intensity array"),
        (lambda tmp_path: StructuringElement(ndim=4), ValidationError,
         "element must be 2D or 3D, got ndim=4"),
        (lambda tmp_path: StructuringElement(radius=-1), ValidationError,
         "radius must be >= 0, got -1"),
        (lambda tmp_path: dilate(np.ones((4, 4), dtype=bool), StructuringElement(ndim=3)),
         ValidationError, "3D element incompatible with 2D image"),
        (_diverged_training, NumericError, "training diverged: non-finite loss at epoch 1"),
    ],
    ids=["write-rank-0", "file-shrank", "empty-binary", "empty-intensity", "element-ndim",
         "element-radius", "3d-element-on-2d-image", "diverged-loss"],
)
def test_library_error_path(tmp_path, call, error, message):
    with pytest.raises(error) as raised:
        call(tmp_path)
    assert str(raised.value).endswith(message)
