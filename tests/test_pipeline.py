import argparse
import gc
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

from uqseg.arrayio import ArrayFile, entropy_to_gray, read_array, write_array
from uqseg.arrays import BLOCK_PIXELS, pixel_blocks
from uqseg.cli import build_parser, cmd_fuse, main
from uqseg.ensemble import ensemble_mean
from uqseg.errors import ArrayFormatError, StageError, ValidationError
from uqseg.pipeline import PipelineConfig, run_pipeline, select_checkpoints, settings_of
from uqseg.scheduler import SgdrConfig, lr_at
from uqseg.selection import SelectionPolicy
from uqseg.toy import run_toy_training
from uqseg.uncertainty import pixel_entropy

GOLDEN = Path(__file__).parent / "data" / "golden_summary_seed7.csv"

SMALL_CFG = SgdrConfig(t0=10, eta=2, lr_max=0.2, lr_min=1e-4, total_epochs=20)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    run_toy_training(
        root, seed=3, n_train=4, n_test=2, shape=(24, 24), class_count=3,
        cfg=SMALL_CFG, noise_std=0.1,
    )
    return root


def staged(outdir):
    """Staging siblings ``<outdir>.partial*`` left next to ``outdir``."""
    outdir = Path(outdir)
    return sorted(outdir.parent.glob(f"{outdir.name}.partial*"))


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def small_config(root, outdir="analysis", **overrides):
    values = dict(
        trace=str(root / "trace.csv"),
        predictions_dir=str(root / "predictions"),
        cases_dir=str(root / "cases"),
        outdir=str(root / outdir),
        t0=10,
        eta=2.0,
        lr_max=0.2,
        lr_min=1e-4,
        total_epochs=20,
    )
    values.update(overrides)
    return PipelineConfig(**values)


class TestConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "pipeline.cfg"
        path.write_text(text)
        return path

    def test_parses_full_config(self, tmp_path):
        path = self.write(
            tmp_path,
            "# comment\n"
            "trace = t.csv\n"
            "predictions_dir = preds\n"
            "cases_dir = cases\n"
            "outdir = out\n"
            "t0 = 100\n"
            "total_epochs = 200\n"
            "eta = 2\n"
            "classes = 1,2\n"
            "ece_foreground_only = true\n"
            "entropy_region = contour\n",
        )
        cfg = PipelineConfig.from_file(path)
        assert cfg.t0 == 100
        assert cfg.classes == (1, 2)
        assert cfg.ece_foreground_only is True
        assert cfg.entropy_region == "contour"

    def test_unknown_key_rejected(self, tmp_path):
        path = self.write(tmp_path, "trace = t.csv\nbogus = 1\n")
        with pytest.raises(ValidationError, match="unknown key"):
            PipelineConfig.from_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = self.write(tmp_path, "t0 = 1\nt0 = 2\n")
        with pytest.raises(ValidationError, match="duplicate"):
            PipelineConfig.from_file(path)

    def test_missing_required_keys(self, tmp_path):
        path = self.write(tmp_path, "t0 = 100\n")
        with pytest.raises(ValidationError, match="missing required"):
            PipelineConfig.from_file(path)

    def test_bad_value(self, tmp_path):
        path = self.write(tmp_path, "t0 = ten\n")
        with pytest.raises(ValidationError, match="bad value"):
            PipelineConfig.from_file(path)

    @pytest.mark.parametrize("text, value", [
        ("1", True), ("true", True), ("Yes", True), ("0", False), ("FALSE", False), ("no", False),
        ("maybe", None), ("", None), ("2", None),
    ])
    def test_bool_values(self, tmp_path, text, value):
        path = self.write(tmp_path, "trace = t\npredictions_dir = p\ncases_dir = c\noutdir = o\n"
                          f"t0 = 1\ntotal_epochs = 2\nece_foreground_only = {text}\n")
        if value is None:
            with pytest.raises(ValidationError, match=re.escape(
                f"{path}:7: bad value {text!r} for key 'ece_foreground_only'"
            )):
                PipelineConfig.from_file(path)
        else:
            assert PipelineConfig.from_file(path).ece_foreground_only is value

    def test_bad_region(self):
        with pytest.raises(ValidationError):
            small_config(Path("."), entropy_region="everywhere")

    @pytest.mark.parametrize("overrides", [
        {},
        dict(eta=1.5, per_cycle=2, window_fraction=0.25, min_peak_ratio=0.75,
             classes=(1, 2), bins=7, entropy_region="contour", ece_foreground_only=True),
    ], ids=["defaults", "every-field-set"])
    def test_every_field_round_trips_through_the_text(self, tmp_path, overrides):
        cfg = small_config(tmp_path, **overrides)
        lines = []
        for f in fields(PipelineConfig):
            value = getattr(cfg, f.name)
            text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            lines.append(f"{f.name} = {text}")
        assert PipelineConfig.from_file(self.write(tmp_path, "\n".join(lines))) == cfg

    def test_no_keys_names_every_required_key_in_field_order(self, tmp_path):
        path = self.write(tmp_path, "# no keys\n")
        with pytest.raises(ValidationError) as err:
            PipelineConfig.from_file(path)
        assert str(err.value) == (
            f"{path}: missing required keys "
            "['trace', 'predictions_dir', 'cases_dir', 'outdir', 't0', 'total_epochs']"
        )


class TestRunPipeline:
    def test_produces_all_artifacts(self, small_run):
        summary = run_pipeline(small_config(small_run, outdir="a1"))
        out = small_run / "a1"
        assert summary == out / "summary.csv"
        for name in ("manifest.csv", "scores.csv", "dice.csv", "ece.csv", "summary.csv"):
            assert (out / name).exists()
        assert sorted(p.name for p in (out / "mean").glob("*.uqsg")) == [
            "case0004.uqsg",
            "case0005.uqsg",
        ]
        assert (out / "entropy" / "case0004.uqsg").exists()
        assert (out / "entropy" / "case0004.pgm").exists()
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "kind,case_id,class_id,metric,value"
        assert {ln.split(",")[1] for ln in lines if ln.startswith("case,")} == {
            "case0004", "case0005",
        }
        ece_rows = [ln for ln in lines if ln.startswith("dataset,,,ece_percent,")]
        assert len(ece_rows) == 1
        assert 0.0 <= float(ece_rows[0].split(",")[-1]) <= 100.0

    def test_rerun_is_byte_identical(self, small_run):
        run_pipeline(small_config(small_run, outdir="b1"))
        run_pipeline(small_config(small_run, outdir="b2"))
        for name in ("manifest.csv", "scores.csv", "dice.csv", "ece.csv", "summary.csv"):
            a = (small_run / "b1" / name).read_bytes()
            b = (small_run / "b2" / name).read_bytes()
            assert a == b, name

    def test_fused_mean_matches_library(self, small_run):
        from uqseg.ensemble import ensemble_mean
        from uqseg.selection import read_selection

        run_pipeline(small_config(small_run, outdir="c1"))
        selection = read_selection(small_run / "c1" / "manifest.csv")
        members = [
            read_array(small_run / "predictions" / "case0004" / f"{cid}.uqsg")
            for cid in selection.checkpoint_ids
        ]
        expected = ensemble_mean(members).astype(np.float32)
        stored = read_array(small_run / "c1" / "mean" / "case0004.uqsg")
        np.testing.assert_array_equal(stored, expected)

    def test_missing_trace_names_select_stage(self, small_run, tmp_path):
        cfg = small_config(small_run, outdir="d1", trace=str(tmp_path / "absent.csv"))
        with pytest.raises(StageError, match="select-checkpoints") as err:
            run_pipeline(cfg)
        assert err.value.stage == "select-checkpoints"
        assert not (small_run / "d1").exists()
        assert staged(small_run / "d1") == []

    def test_failed_fuse_removes_partial_outputs(self, small_run, tmp_path):
        # predictions dir with a case folder missing the manifest's members
        broken = tmp_path / "preds"
        (broken / "case0000").mkdir(parents=True)
        cfg = small_config(small_run, outdir="e1", predictions_dir=str(broken))
        with pytest.raises(StageError, match="fuse"):
            run_pipeline(cfg)
        assert not (small_run / "e1").exists()
        assert staged(small_run / "e1") == []

    def test_class_subset(self, small_run):
        run_pipeline(small_config(small_run, outdir="f1", classes=(1,)))
        lines = (small_run / "f1" / "scores.csv").read_text().splitlines()
        assert all(ln.split(",")[1] == "1" for ln in lines[1:])
        assert [ln.split(",")[0] for ln in lines[1:]] == ["case0004", "case0005"]

    def test_class_out_of_range(self, small_run):
        cfg = small_config(small_run, outdir="g1", classes=(7,))
        with pytest.raises(StageError, match="score"):
            run_pipeline(cfg)
        assert not (small_run / "g1").exists()
        assert staged(small_run / "g1") == []


def _first_member(root, tmp_path):
    """The first checkpoint id of the manifest that a ``run`` of ``root`` selects."""
    return select_checkpoints(root / "trace.csv", small_config(root), tmp_path / "m.csv"
                              ).checkpoint_ids[0]


def _write_run_config(root, path, **overrides):
    values = dict(
        trace=root / "trace.csv",
        predictions_dir=root / "predictions",
        cases_dir=root / "cases",
        outdir=root / "out",
        t0=10, eta=2, lr_max=0.2, lr_min=0.0001, total_epochs=20,
    )
    values.update(overrides)
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    return path


class TestCaseErrors:
    """A bad input of one case exits 2, a missing one 3, and names the case and the file."""

    def run_main(self, root, capsys):
        code = main(["run", "--config", str(_write_run_config(root, root / "p.cfg"))])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert not (root / "out").exists()
        assert staged(root / "out") == []
        return code, err

    def copy(self, small_run, tmp_path):
        root = tmp_path / "run"
        root.mkdir()
        for name in ("trace.csv", "predictions", "cases"):
            src = small_run / name
            (shutil.copytree if src.is_dir() else shutil.copyfile)(src, root / name)
        return root

    def test_member_off_the_simplex(self, small_run, tmp_path, capsys):
        root = self.copy(small_run, tmp_path)
        case_dir = root / "predictions" / "case0005"
        for member in case_dir.iterdir():
            write_array(member, (read_array(member) * 0.7).astype(np.float32))
        code, err = self.run_main(root, capsys)
        assert code == 2
        assert "stage 'fuse' failed for case case0005" in err
        named = re.escape(str(case_dir)) + r"/ep\d+\.uqsg: per-pixel class probabilities must sum"
        assert re.search(named, err), err

    def test_labels_shape(self, small_run, tmp_path, capsys):
        root = self.copy(small_run, tmp_path)
        labels = root / "cases" / "case0004_labels.uqsg"
        write_array(labels, np.zeros((24, 23), dtype=np.uint8))
        code, err = self.run_main(root, capsys)
        assert code == 2
        assert "stage 'metrics' failed for case case0004" in err
        assert f"{labels}: labels shape (24, 23) does not match" in err

    def test_label_out_of_range(self, small_run, tmp_path, capsys):
        root = self.copy(small_run, tmp_path)
        labels = root / "cases" / "case0005_labels.uqsg"
        write_array(labels, np.full((24, 24), 3, dtype=np.uint8))
        code, err = self.run_main(root, capsys)
        assert code == 2
        assert "stage 'metrics' failed for case case0005" in err
        assert f"{labels}: label codes must lie in [0, 3)" in err

    def test_missing_member(self, small_run, tmp_path, capsys):
        root = self.copy(small_run, tmp_path)
        case_dir = root / "predictions" / "case0004"
        for member in case_dir.iterdir():
            member.unlink()
        first = _first_member(root, tmp_path)  # the first member the manifest lists
        code, err = self.run_main(root, capsys)
        assert code == 3
        assert err == (
            f"error: stage 'fuse' failed for case case0004: "
            f"[Errno 2] No such file or directory: '{case_dir / first}.uqsg'\n"
        )

    def test_missing_labels(self, small_run, tmp_path, capsys):
        root = self.copy(small_run, tmp_path)
        labels = root / "cases" / "case0005_labels.uqsg"
        labels.unlink()
        code, err = self.run_main(root, capsys)
        assert code == 3
        assert err == (
            f"error: stage 'metrics' failed for case case0005: "
            f"[Errno 2] No such file or directory: '{labels}'\n"
        )

    @pytest.mark.parametrize("key", ["trace", "predictions_dir", "member", "labels"])
    def test_missing_run_input(self, small_run, tmp_path, capsys, key):
        """Each input of a ``run`` config, missing: exit 3, the stage, the case and the OS
        error that names the file, and no tree."""
        root = self.copy(small_run, tmp_path)
        case = root / "predictions" / "case0004"
        where, missing = {
            "trace": ("'select-checkpoints' failed", root / "trace.csv"),
            "predictions_dir": ("'fuse' failed", root / "predictions"),
            "member": ("'fuse' failed for case case0004",
                       case / f"{_first_member(root, tmp_path)}.uqsg"),
            "labels": ("'metrics' failed for case case0004",
                       root / "cases" / "case0004_labels.uqsg"),
        }[key]
        (shutil.rmtree if missing.is_dir() else Path.unlink)(missing)
        assert self.run_main(root, capsys) == (
            3, f"error: stage {where}: [Errno 2] No such file or directory: '{missing}'\n"
        )

    def test_case_directory_that_is_no_case_id(self, small_run, tmp_path, capsys):
        # the name would become a CSV field: "case,9" splits every row it is in
        root = self.copy(small_run, tmp_path)
        (root / "predictions" / "case0004").rename(root / "predictions" / "case,9")
        (root / "cases" / "case0004_labels.uqsg").rename(root / "cases" / "case,9_labels.uqsg")
        code, err = self.run_main(root, capsys)
        assert code == 2
        assert err == (
            f"error: stage 'fuse' failed: case directory under predictions_dir "
            f"{root / 'predictions'} must match [A-Za-z0-9_.-]+, got 'case,9'\n"
        )


class TestOutdir:
    """``run`` publishes a whole tree into an absent or empty outdir, or nothing."""

    def run_main(self, small_run, tmp_path, capsys, **overrides):
        overrides.setdefault("outdir", tmp_path / "out")
        config = _write_run_config(small_run, tmp_path / "p.cfg", **overrides)
        code = main(["run", "--config", str(config)])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert staged(overrides["outdir"]) == []
        return code, captured

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"classes": "7"}, {"predictions_dir": "one-case"}],
        ids=["same-config", "bad-class", "fewer-cases"],
    )
    def test_rerun_into_a_finished_tree_is_refused(self, small_run, tmp_path, capsys, overrides):
        if "predictions_dir" in overrides:
            one_case = tmp_path / "one-case"
            shutil.copytree(small_run / "predictions" / "case0004", one_case / "case0004")
            overrides = {"predictions_dir": one_case}
        assert self.run_main(small_run, tmp_path, capsys)[0] == 0
        before = tree_bytes(tmp_path / "out")
        code, captured = self.run_main(small_run, tmp_path, capsys, **overrides)
        assert code == 2
        assert captured.err == (
            f"error: outdir {tmp_path / 'out'} is not empty; remove or rename it to run again\n"
        )
        assert tree_bytes(tmp_path / "out") == before

    def test_empty_outdir_is_accepted(self, small_run, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        assert self.run_main(small_run, tmp_path, capsys)[0] == 0
        run_pipeline(small_config(small_run, outdir="l1"))
        assert tree_bytes(tmp_path / "out") == tree_bytes(small_run / "l1")

    def test_empty_outdir_keeps_its_permission_bits(self, small_run, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        os.chmod(tmp_path / "out", 0o2770)
        assert self.run_main(small_run, tmp_path, capsys)[0] == 0
        assert stat.S_IMODE((tmp_path / "out").stat().st_mode) == 0o2770
        assert staged(tmp_path / "out") == []

    def test_outdir_that_is_a_file_exits_validation(self, small_run, tmp_path, capsys):
        (tmp_path / "out").write_text("keep me\n")
        code, captured = self.run_main(small_run, tmp_path, capsys)
        assert code == 2
        assert f"outdir {tmp_path / 'out'} exists and is not a directory" in captured.err
        assert (tmp_path / "out").read_text() == "keep me\n"

    def test_missing_parents_are_created(self, small_run, tmp_path, capsys):
        out = tmp_path / "a" / "b" / "out"
        assert self.run_main(small_run, tmp_path, capsys, outdir=out)[0] == 0
        assert sorted(p.name for p in out.parent.iterdir()) == ["out"]

    def test_outdir_filled_during_the_run_exits_io(self, small_run, tmp_path, capsys, monkeypatch):
        import uqseg.pipeline

        real_run = uqseg.pipeline._run

        def run_then_intrude(cfg, staging):
            result = real_run(cfg, staging)
            (tmp_path / "out").mkdir()
            (tmp_path / "out" / "other.txt").write_text("another writer\n")
            return result

        monkeypatch.setattr(uqseg.pipeline, "_run", run_then_intrude)
        assert self.run_main(small_run, tmp_path, capsys)[0] == 3
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["other.txt"]

    @pytest.mark.parametrize("outdir", ["preds/out", "preds/a/b/out", "link/out"])
    def test_outdir_inside_predictions_dir_is_refused(self, small_run, tmp_path, capsys, outdir):
        # its staging directory, or a missing parent, would be read as a case
        shutil.copytree(small_run / "predictions", tmp_path / "preds")
        (tmp_path / "link").symlink_to(tmp_path / "preds", target_is_directory=True)
        before = set(tmp_path.rglob("*"))
        code, captured = self.run_main(
            small_run, tmp_path, capsys, predictions_dir=tmp_path / "preds",
            outdir=tmp_path / outdir,
        )
        assert code == 2
        assert captured.err == (
            f"error: outdir {tmp_path / outdir} lies inside predictions_dir "
            f"{tmp_path / 'preds'}, whose every directory is read as a case\n"
        )
        assert set(tmp_path.rglob("*")) == before | {tmp_path / "p.cfg"}

    def test_interrupt_leaves_nothing(self, small_run, tmp_path, monkeypatch):
        import uqseg.pipeline

        def interrupt(*args):
            raise KeyboardInterrupt

        # the entropy of the first block, once its mean rows are written
        monkeypatch.setattr(uqseg.pipeline, "pixel_entropy", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(small_config(small_run, outdir=str(tmp_path / "out")))
        assert not (tmp_path / "out").exists()
        assert staged(tmp_path / "out") == []

    def test_run_stages_in_outdir_partial(self, small_run, tmp_path, monkeypatch):
        import uqseg.pipeline

        real_run, seen = uqseg.pipeline._run, []
        monkeypatch.setattr(uqseg.pipeline, "_run",
                            lambda cfg, staging: seen.append(staging) or real_run(cfg, staging))
        run_pipeline(small_config(small_run, outdir=str(tmp_path / "out")))
        assert seen == [(tmp_path / "out.partial").resolve()]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_a_published_run_keeps_the_next_runs_staging_tree(self, small_run, tmp_path):
        # once this run's tree is renamed, another run into the same outdir may stage
        staging, replace = tmp_path / "out.partial", os.replace

        def publish_then_next_run_stages(src, dst):
            replace(src, dst)
            (staging / "mean").mkdir(parents=True)

        with patch("uqseg.pipeline.os.replace", publish_then_next_run_stages):
            run_pipeline(small_config(small_run, outdir=str(tmp_path / "out")))
        assert (staging / "mean").is_dir()
        assert (tmp_path / "out" / "summary.csv").is_file()

    def test_leftover_staging_tree_is_refused_and_kept(self, small_run, tmp_path, capsys):
        # a killed run's tree, or one that a running run still writes
        leftover = tmp_path / "out.partial"
        (leftover / "mean").mkdir(parents=True)
        (leftover / "manifest.csv").write_text("cycle\n")
        config = _write_run_config(small_run, tmp_path / "p.cfg", outdir=tmp_path / "out")
        before = sorted(tmp_path.rglob("*")), tree_bytes(tmp_path)
        assert main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"error: staging tree {leftover.resolve()} exists: a run into {tmp_path / 'out'} "
            "is under way or was killed; remove it to run again\n"
        )
        assert (sorted(tmp_path.rglob("*")), tree_bytes(tmp_path)) == before


def _write_members(directory, ids, shape, rng, empty_last=False):
    """Random members; with ``empty_last`` the last class has probability 0 at every pixel."""
    for cid in ids:
        e = rng.random(shape)
        if empty_last:
            e[-1] = 0.0
        write_array(directory / f"{cid}.uqsg", (e / e.sum(axis=0)).astype(np.float32))


def _fuse(ids, inputs, out):
    """``cmd_fuse`` of the members ``ids`` in ``inputs``, from a manifest that lists them in order."""
    manifest = Path(inputs) / "manifest.csv"
    manifest.write_text("cycle,epoch,checkpoint_id,metric\n" + "".join(
        f"1,{len(ids) - k},{cid},0.5\n" for k, cid in enumerate(ids)))
    cmd_fuse(argparse.Namespace(manifest=manifest, inputs=inputs, out=out))


def test_fuse_holds_block_sized_scratch_at_every_write(tmp_path, monkeypatch):
    import uqseg.pipeline

    ids = [f"ep{k}" for k in range(6)]
    shape = (4, 25, 128, 128)  # six pixel blocks and a ragged seventh
    _write_members(tmp_path, ids, shape, np.random.default_rng(5))
    mean = 4 * int(np.prod(shape))  # float32, as is a member
    rows = 4 * shape[0] * BLOCK_PIXELS  # the float32 mean rows of one block
    # one block of the float64 sum, of a float32 member and of the float64
    # simplex sums, and the block's float32 rows
    scratch = (8 * 4 + 4 * 4 + 8) * BLOCK_PIXELS + rows
    # numpy's cast buffer (8,192 float64) and interpreter objects
    slack = 128 * 1024
    assert scratch + slack < mean  # less than a whole member
    at_write = []

    write = ArrayFile.write

    def spy(out, pixels, block):
        at_write.append(tracemalloc.get_traced_memory())
        write(out, pixels, block)

    monkeypatch.setattr(ArrayFile, "write", spy)
    tracemalloc.start()
    try:
        _fuse(ids, tmp_path, tmp_path / "mean.uqsg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(at_write) == 7  # one write per block
    # the mean is never whole: each write holds one block's rows
    assert max(held for held, _ in at_write) < rows + slack
    assert peak < scratch + slack


@pytest.mark.parametrize("shape, block, blocks", [
    ((3, 2, 200, 400), BLOCK_PIXELS, 3),  # two whole pixel blocks and a ragged third
    ((4, 5, 8), 6, 7),  # six blocks of six pixels and a ragged seventh
])
def test_fuse_writes_the_float32_of_the_whole_member_mean(tmp_path, shape, block, blocks):
    import uqseg.arrays

    ids = [f"ep{k}" for k in range(6)]
    _write_members(tmp_path, ids, shape, np.random.default_rng(6))
    with patch.object(uqseg.arrays, "BLOCK_PIXELS", block):
        assert len(pixel_blocks(int(np.prod(shape[1:])))) == blocks
        _fuse(ids, tmp_path, tmp_path / "mean.uqsg")
    write_array(
        tmp_path / "oracle.uqsg",
        ensemble_mean([read_array(tmp_path / f"{cid}.uqsg") for cid in ids]).astype(np.float32),
    )
    assert (tmp_path / "mean.uqsg").read_bytes() == (tmp_path / "oracle.uqsg").read_bytes()


class TestStreamedFuseErrors:
    """Members are read in manifest order, so the first bad one is reported."""

    ids = [f"ep{k}" for k in range(6)]

    def test_first_invalid_member_is_named(self, tmp_path):
        _write_members(tmp_path, self.ids, (3, 4, 5), np.random.default_rng(1))
        for cid in ("ep4", "ep2"):
            write_array(tmp_path / f"{cid}.uqsg", np.full((3, 4, 5), 0.2, dtype=np.float32))
        with pytest.raises(ValidationError) as err:
            _fuse(self.ids, tmp_path, tmp_path / "mean.uqsg")
        assert str(err.value).startswith(f"{tmp_path / 'ep2.uqsg'}: per-pixel class")

    def test_invalid_member_before_a_missing_one(self, tmp_path):
        """Every member is opened and its shape checked before any member's values,
        so a missing member is reported before an earlier member's bad values."""
        _write_members(tmp_path, self.ids, (3, 4, 5), np.random.default_rng(2))
        write_array(tmp_path / "ep1.uqsg", np.full((3, 4, 5), 0.2, dtype=np.float32))
        (tmp_path / "ep3.uqsg").unlink()
        with pytest.raises(FileNotFoundError) as err:
            _fuse(self.ids, tmp_path, tmp_path / "mean.uqsg")
        assert str(err.value) == f"[Errno 2] No such file or directory: '{tmp_path / 'ep3.uqsg'}'"
        assert not (tmp_path / "mean.uqsg").exists()

    def test_missing_member_before_an_invalid_one(self, tmp_path):
        _write_members(tmp_path, self.ids, (3, 4, 5), np.random.default_rng(3))
        (tmp_path / "ep1.uqsg").unlink()
        write_array(tmp_path / "ep3.uqsg", np.full((3, 4, 6), 0.5, dtype=np.float32))
        with pytest.raises(FileNotFoundError) as err:
            _fuse(self.ids, tmp_path, tmp_path / "mean.uqsg")
        assert str(err.value) == f"[Errno 2] No such file or directory: '{tmp_path / 'ep1.uqsg'}'"
        assert not (tmp_path / "mean.uqsg").exists()

    def test_member_of_another_shape_is_named(self, tmp_path):
        _write_members(tmp_path, self.ids, (3, 4, 5), np.random.default_rng(4))
        _write_members(tmp_path, ["ep5"], (3, 4, 6), np.random.default_rng(5))
        with pytest.raises(ValidationError, match=re.escape(
            f"{tmp_path / 'ep5.uqsg'} has shape (3, 4, 6), expected (3, 4, 5)"
        )):
            _fuse(self.ids, tmp_path, tmp_path / "mean.uqsg")


class TestBlockwiseFuse:
    """Members spanning three pixel blocks are fused block by block."""

    ids = [f"ep{k}" for k in range(6)]
    shape = (3, 2, 200, 400)  # two whole blocks and a ragged third

    def test_member_bad_only_in_its_last_block_is_named(self, tmp_path):
        _write_members(tmp_path, self.ids, self.shape, np.random.default_rng(7))
        bad = read_array(tmp_path / "ep3.uqsg")
        bad[:, -1, -1, -5:] *= np.float32(0.5)  # the last pixels of the last block
        write_array(tmp_path / "ep3.uqsg", bad)
        with pytest.raises(ValidationError) as err:
            _fuse(self.ids, tmp_path, tmp_path / "mean.uqsg")
        assert str(err.value).startswith(f"{tmp_path / 'ep3.uqsg'}: per-pixel class")
        assert not (tmp_path / "mean.uqsg").exists()

    def test_missing_member_is_found_before_a_bad_last_block(self, tmp_path):
        _write_members(tmp_path, self.ids, self.shape, np.random.default_rng(8))
        bad = read_array(tmp_path / "ep1.uqsg")
        bad[0, -1, -1, -1] = np.nan
        write_array(tmp_path / "ep1.uqsg", bad)
        (tmp_path / "ep4.uqsg").unlink()
        with pytest.raises(FileNotFoundError) as err:
            _fuse(self.ids, tmp_path, tmp_path / "mean.uqsg")
        assert str(err.value) == f"[Errno 2] No such file or directory: '{tmp_path / 'ep4.uqsg'}'"
        assert not (tmp_path / "mean.uqsg").exists()

    def test_member_of_another_rank_is_named_with_its_whole_shape(self, tmp_path):
        _write_members(tmp_path, self.ids[1:], self.shape, np.random.default_rng(9))
        flat = np.full((3, 2 * 200 * 400), 1 / 3, dtype=np.float32)
        write_array(tmp_path / "ep0.uqsg", flat)
        with pytest.raises(ValidationError, match=re.escape(
            f"{tmp_path / 'ep0.uqsg'}: probability array must be (c,H,W) or (c,D,H,W), "
            f"got shape (3, 160000)"
        )):
            _fuse(self.ids, tmp_path, tmp_path / "mean.uqsg")

    @pytest.mark.parametrize("shape, blocks", [((3, 4, 5), 1), ((3, 2, 200, 400), 3)])
    def test_each_member_is_read_once_per_block(self, tmp_path, monkeypatch, shape, blocks):
        """One open per member and one read per member per block."""
        opens, reads = [], []
        init, rows = ArrayFile.__init__, ArrayFile.rows

        def counted_init(f, path, *args):
            opens.append(Path(path).name)
            init(f, path, *args)

        def counted_rows(f, pixels):
            reads.append(Path(f.path).name)
            return rows(f, pixels)

        monkeypatch.setattr(ArrayFile, "__init__", counted_init)
        monkeypatch.setattr(ArrayFile, "rows", counted_rows)
        _write_members(tmp_path, self.ids, shape, np.random.default_rng(10))
        opens.clear()
        _fuse(self.ids, tmp_path, tmp_path / "mean.uqsg")
        names = [f"{cid}.uqsg" for cid in self.ids]
        assert opens == names + ["mean.uqsg"]
        assert reads == names * blocks


def _stage_argv(tmp_path, command):
    """The argv of ``command``, but for its ``--out``, on valid inputs written to ``tmp_path``."""
    write_array(tmp_path / "p.uqsg", np.full((2, 8, 8), 0.5, dtype=np.float32))
    write_array(tmp_path / "pred.uqsg", np.eye(8, dtype=np.uint8))
    write_array(tmp_path / "gt.uqsg", np.ones((8, 8), dtype=np.uint8))
    (tmp_path / "cases.csv").write_text(
        "case_id,class_id,uncertainty_score,dice\na,1,0.5,0.9\nb,1,0.25,0.8\n"
    )
    (tmp_path / "trace.csv").write_text("epoch,lr,val_metric,checkpoint_id\n" + "".join(
        f"{e},0.01,{0.5 + e / 100},ep{e}\n" for e in range(8)
    ))
    (tmp_path / "manifest.csv").write_text("cycle,epoch,checkpoint_id,metric\n1,1,p,0.5\n")
    argv = [command, *{
        "score": ["--in", "p.uqsg", "--classes", "1"],
        "entropy": ["--in", "p.uqsg"],
        "ece": ["--pred", "p.uqsg", "--gt", "gt.uqsg"],
        "dice": ["--pred", "pred.uqsg", "--gt", "gt.uqsg", "--classes", "1"],
        "report": ["--cases", "cases.csv"],
        "select-checkpoints": ["--trace", "trace.csv", "--t0", "2", "--epochs", "8"],
        "fuse": ["--manifest", "manifest.csv", "--inputs", str(tmp_path)],  # member p.uqsg
    }[command]]
    return [str(tmp_path / a) if a.endswith((".uqsg", ".csv")) else a for a in argv]


@pytest.mark.parametrize("command, flag", [
    ("score", "--in"), ("entropy", "--in"), ("ece", "--pred"), ("ece", "--gt"),
    ("dice", "--pred"), ("dice", "--gt"), ("report", "--cases"),
    ("select-checkpoints", "--trace"), ("fuse", "--manifest"), ("fuse", "--inputs"),
    ("run", "--config"),
])
def test_missing_input_file_exits_io(tmp_path, capsys, command, flag):
    """A file that a flag names, or a ``fuse`` member, that does not exist: exit 3 with
    the OS error that names it, and nothing written. ``run``'s own inputs are in
    ``TestCaseErrors``."""
    if command == "run":
        argv = ["run", "--config", str(tmp_path / "run.cfg")]
    else:
        argv = [*_stage_argv(tmp_path, command), "--out", str(tmp_path / "out")]
    # ``fuse --inputs`` names the directory of the manifest's one member, p.uqsg
    missing = tmp_path / "p.uqsg" if flag == "--inputs" else Path(argv[argv.index(flag) + 1])
    missing.unlink(missing_ok=True)
    files = sorted(tmp_path.iterdir())
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: '{missing}'\n"
    )
    assert sorted(tmp_path.iterdir()) == files


class TestOutputIsNoInput:
    """An ``--out`` that is one of a command's input files is refused before any write."""

    def test_fuse_out_naming_a_member(self, tmp_path, capsys):
        ids = ["ep1", "ep2"]
        (tmp_path / "in").mkdir()
        _write_members(tmp_path / "in", ids, (3, 2, 200, 200), np.random.default_rng(13))
        (tmp_path / "manifest.csv").write_text(
            "cycle,epoch,checkpoint_id,metric\n1,2,ep2,0.6\n1,1,ep1,0.5\n"
        )
        member = tmp_path / "in" / "ep2.uqsg"
        before = member.read_bytes()
        out = tmp_path / "in" / ".." / "in" / "ep2.uqsg"  # the same file by another name
        assert main([
            "fuse", "--manifest", str(tmp_path / "manifest.csv"),
            "--inputs", str(tmp_path / "in"), "--out", str(out),
        ]) == 2
        assert member.read_bytes() == before
        assert capsys.readouterr().err == (
            f"error: output {out} is the input {member}; name another output\n"
        )

    def test_entropy_out_naming_its_input(self, tmp_path, capsys):
        path = tmp_path / "p.uqsg"
        write_array(path, np.full((2, 8, 8), 0.5, dtype=np.float32))
        before = path.read_bytes()
        assert main(["entropy", "--in", str(path), "--out", str(path)]) == 2
        assert path.read_bytes() == before
        assert capsys.readouterr().err == (
            f"error: output {path} is the input {path}; name another output\n"
        )

    @pytest.mark.parametrize("command, flag", [
        ("score", "--in"), ("ece", "--pred"), ("ece", "--gt"), ("dice", "--pred"),
        ("dice", "--gt"), ("report", "--cases"), ("select-checkpoints", "--trace"),
        ("fuse", "--manifest"),
    ])
    def test_out_naming_an_input_file(self, tmp_path, capsys, command, flag):
        argv = _stage_argv(tmp_path, command)
        assert main([*argv, "--out", str(tmp_path / "other")]) == 0  # the inputs are valid
        capsys.readouterr()
        target = Path(argv[argv.index(flag) + 1])
        out = tmp_path / ".." / tmp_path.name / target.name  # the same file by another name
        before = target.read_bytes()
        assert main([*argv, "--out", str(out)]) == 2
        assert target.read_bytes() == before
        assert capsys.readouterr().err == (
            f"error: output {out} is the input {target}; name another output\n"
        )

    def test_entropy_pgm_naming_its_out(self, tmp_path, capsys):
        """A 2D map's PGM is ``<stem of --out>.pgm``: with ``--out`` that very file, the
        PGM would replace the entropy map."""
        path, maps = tmp_path / "p.uqsg", tmp_path / "maps"
        write_array(path, np.full((2, 8, 8), 0.5, dtype=np.float32))
        out = maps / "x.pgm"
        assert main(["entropy", "--in", str(path), "--out", str(out), "--pgm", str(maps)]) == 2
        assert not maps.exists()
        assert capsys.readouterr().err == (
            f"error: PGM {out} would replace --out; name another output\n"
        )

    @pytest.mark.parametrize("spatial, pgm", [((8, 8), "x.pgm"), ((3, 8, 8), "x.pgm")])
    def test_entropy_pgm_naming_its_input(self, tmp_path, capsys, spatial, pgm):
        path = tmp_path / pgm  # a posterior file by the name of its PGM
        write_array(path, np.full((2, *spatial), 0.5, dtype=np.float32))
        before = path.read_bytes()
        (tmp_path / "y").mkdir()
        argv = ["entropy", "--in", str(path), "--out", str(tmp_path / "y" / "x.uqsg"),
                "--pgm", str(tmp_path / "y" / "..")]
        assert main(argv) == 2
        assert path.read_bytes() == before
        assert sorted(tmp_path.rglob("*")) == [path, tmp_path / "y"]
        assert capsys.readouterr().err == (
            f"error: output {tmp_path / 'y' / '..' / pgm} is the input {path}; "
            "name another output\n"
        )


needs_proc_fds = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="lists open files in /proc/self/fd"
)


class TestStreamedPosteriorErrors:
    """A posterior file fails in its last block only after the earlier blocks were analyzed."""

    @pytest.fixture
    def bad_posterior(self, tmp_path):
        import uqseg.arrays

        spatial = (10, 8, 8)
        p = np.random.default_rng(14).random((3, *spatial))
        p = (p / p.sum(axis=0)).astype(np.float32)
        p[1, -1, -1, -1] = np.nan
        write_array(tmp_path / "p.uqsg", p)
        write_array(tmp_path / "gt.uqsg", np.zeros(spatial, dtype=np.uint8))
        with patch.object(uqseg.arrays, "BLOCK_PIXELS", 64):
            assert len(pixel_blocks(int(np.prod(spatial)))) == 10
            yield tmp_path / "p.uqsg"

    def assert_fails_in_the_last_block(self, capsys, argv, path):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: probability array contains NaN or Inf\n"

    def test_entropy_leaves_no_map_and_no_pgm(self, bad_posterior, tmp_path, capsys):
        out, maps = tmp_path / "h.uqsg", tmp_path / "maps"
        argv = ["entropy", "--in", str(bad_posterior), "--out", str(out), "--pgm", str(maps)]
        self.assert_fails_in_the_last_block(capsys, argv, bad_posterior)
        assert not out.exists()
        assert not maps.exists() or not any(maps.iterdir())

    @pytest.mark.parametrize("contour", [False, True])
    def test_score_writes_nothing(self, bad_posterior, tmp_path, capsys, contour):
        out = tmp_path / "s.csv"
        argv = ["score", "--in", str(bad_posterior), "--classes", "1,2", "--out", str(out)]
        self.assert_fails_in_the_last_block(capsys, argv + ["--contour-entropy"] * contour, bad_posterior)
        assert not out.exists()

    def test_ece_writes_nothing(self, bad_posterior, tmp_path, capsys):
        out = tmp_path / "e.csv"
        argv = ["ece", "--pred", str(bad_posterior), "--gt", str(tmp_path / "gt.uqsg"),
                "--out", str(out)]
        self.assert_fails_in_the_last_block(capsys, argv, bad_posterior)
        assert not out.exists()

    @needs_proc_fds
    @pytest.mark.parametrize("command", ["entropy", "score", "ece"])
    def test_every_file_is_closed(self, bad_posterior, tmp_path, capsys, command):
        argv = {
            "entropy": ["entropy", "--in", str(bad_posterior), "--out", str(tmp_path / "h.uqsg")],
            "score": ["score", "--in", str(bad_posterior), "--classes", "1,2", "--contour-entropy"],
            "ece": ["ece", "--pred", str(bad_posterior), "--gt", str(tmp_path / "gt.uqsg"),
                    "--out", str(tmp_path / "e.csv")],
        }[command]
        with closes_every_file():
            self.assert_fails_in_the_last_block(capsys, argv, bad_posterior)


@contextmanager
def closes_every_file():
    """Every file opened inside the block is closed by the code itself: none is left
    open, and the garbage collector finds none to close (a ResourceWarning)."""
    before = sorted(os.listdir("/proc/self/fd"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


@needs_proc_fds
class TestFilesAreClosed:
    """Every file a call opens is closed when it returns or fails."""

    def test_successful_run(self, small_run, tmp_path):
        with closes_every_file():
            run_pipeline(small_config(small_run, outdir=str(tmp_path / "out")))

    def test_run_failing_at_a_missing_ground_truth(self, small_run, tmp_path):
        (tmp_path / "no_cases").mkdir()
        cfg = small_config(small_run, outdir=str(tmp_path / "out"),
                           cases_dir=str(tmp_path / "no_cases"))
        labels = tmp_path / "no_cases" / "case0004_labels.uqsg"
        with closes_every_file(), pytest.raises(StageError, match=re.escape(
            f"stage 'metrics' failed for case case0004: "
            f"[Errno 2] No such file or directory: '{labels}'"
        )):
            run_pipeline(cfg)  # fails once the first case's members are open

    def test_fuse_failing_in_block_3(self, tmp_path):
        import uqseg.arrays

        ids = ["ep0", "ep1", "ep2"]
        _write_members(tmp_path, ids, (3, 10, 8, 8), np.random.default_rng(15))
        bad = read_array(tmp_path / "ep1.uqsg")
        bad[1, 3, 1, 0] = np.nan  # pixel 200: block 3 of ten blocks of 64
        write_array(tmp_path / "ep1.uqsg", bad)
        with patch.object(uqseg.arrays, "BLOCK_PIXELS", 64), closes_every_file():
            with pytest.raises(ValidationError, match="NaN or Inf"):
                _fuse(ids, tmp_path, tmp_path / "mean.uqsg")
        assert not (tmp_path / "mean.uqsg").exists()

    def test_fuse_failing_at_a_truncated_member(self, tmp_path):
        ids = ["ep0", "ep1", "ep2"]
        _write_members(tmp_path, ids, (3, 4, 5), np.random.default_rng(16))
        data = (tmp_path / "ep2.uqsg").read_bytes()
        (tmp_path / "ep2.uqsg").write_bytes(data[:-4])
        with closes_every_file(), pytest.raises(ArrayFormatError, match="payload truncated"):
            _fuse(ids, tmp_path, tmp_path / "mean.uqsg")


def _write_two_cycle_inputs(root, case_ids, shape, rng, empty_last=False):
    """Write a trace of two 10-epoch cycles and, per case, labels and members.

    Members exist only for the checkpoints a run selects: the top three epochs of each cycle.
    With ``empty_last`` the last class is in no label and no member's argmax.
    """
    ids = [f"ep{e:05d}" for e in range(20)]
    lines = ["epoch,lr,val_metric,checkpoint_id"]
    lines += [f"{e},0.1,{0.5 + 0.04 * (e % 10):.2f},{cid}" for e, cid in enumerate(ids)]
    (root / "trace.csv").write_text("\n".join(lines) + "\n")
    (root / "cases").mkdir()
    selected = [cid for e, cid in enumerate(ids) if e % 10 >= 7]
    for case in case_ids:
        (root / "predictions" / case).mkdir(parents=True)
        _write_members(root / "predictions" / case, selected, shape, rng, empty_last)
        labels = rng.integers(0, shape[0] - empty_last, shape[1:]).astype(np.uint8)
        write_array(root / "cases" / f"{case}_labels.uqsg", labels)


def test_3d_run_peaks_below_half_of_one_float32_mean(tmp_path):
    """A whole run holds less than half of one case's float32 mean.

    Whole arrays are one byte per pixel: the labels and the gray image in
    the pass, then one class mask and its two dilation copies at a time,
    against the eight of half a c=4 float32 mean. The volume spans a hundred
    pixel blocks, patched small so that the block scratch stays a small part
    of that budget.
    """
    import uqseg.arrays

    c, spatial = 4, (16, 160, 160)
    _write_two_cycle_inputs(
        tmp_path, ["case0000", "case0001"], (c, *spatial), np.random.default_rng(8)
    )
    cfg = small_config(tmp_path, outdir="out", t0=10, eta=1.0, total_epochs=20)
    mean = 4 * c * int(np.prod(spatial))  # float32, as is a member
    with patch.object(uqseg.arrays, "BLOCK_PIXELS", 4096):
        assert len(pixel_blocks(int(np.prod(spatial)))) == 100
        tracemalloc.start()
        try:
            run_pipeline(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    selected = len((tmp_path / "out" / "manifest.csv").read_text().splitlines()) - 1
    assert selected == 6
    assert peak < mean // 2, peak / mean


@pytest.mark.parametrize("spatial, block, blocks", [
    ((24, 24), BLOCK_PIXELS, 1),
    ((3, 20, 20), 128, 10),  # nine blocks of 128 pixels and a ragged tenth
    ((3, 17, 19), 64, 16),  # fifteen blocks of 64 pixels and a ragged sixteenth
])
def test_contour_scores_are_uncertainty_score_on_the_stored_mean(
    tmp_path, monkeypatch, spatial, block, blocks
):
    """``entropy_region = contour`` recomputes the ring's entropy from the stored mean."""
    import uqseg.arrays
    import uqseg.pipeline
    import uqseg.uncertainty
    from uqseg.uncertainty import uncertainty_score

    _write_two_cycle_inputs(tmp_path, ["case0000"], (3, *spatial), np.random.default_rng(12))
    scored = []

    def spy(*args):
        scores = uqseg.uncertainty.class_scores(*args)
        scored.extend(scores)
        return scores

    monkeypatch.setattr(uqseg.pipeline, "class_scores", spy)
    cfg = small_config(
        tmp_path, outdir="out", t0=10, eta=1.0, total_epochs=20, entropy_region="contour"
    )
    with patch.object(uqseg.arrays, "BLOCK_PIXELS", block):
        assert len(pixel_blocks(int(np.prod(spatial)))) == blocks
        run_pipeline(cfg)
        mean = read_array(tmp_path / "out" / "mean" / "case0000.uqsg")
        same_blocks = [uncertainty_score(mean, k, restrict_to_contour=True) for k in (1, 2)]
    whole = [uncertainty_score(mean, k, restrict_to_contour=True) for k in (1, 2)]
    assert all(s.contour_pixels > 0 for s in scored)
    # the same blocks give the same sums, bit for bit
    assert scored == same_blocks
    # one sum over the whole ring adds in another order
    for got, expected in zip(scored, whole):
        assert got.contour_pixels == expected.contour_pixels
        assert got.h_total == pytest.approx(expected.h_total, rel=1e-12, abs=0)
        assert got.score == pytest.approx(expected.score, rel=1e-12, abs=0)
    if blocks == 1:
        assert scored == whole


@pytest.mark.parametrize("region", ["image", "contour"])
def test_ragged_run_with_an_empty_class_is_the_analysis_of_its_stored_mean(tmp_path, region):
    """A case of sixteen ragged blocks, whose class 3 neither the labels nor the argmax
    hold: ``dice.csv`` is ``dice`` of the whole stored argmax, 1.0 for the empty class,
    and ``scores.csv`` is ``uncertainty_score`` of the stored mean, in either region."""
    import uqseg.arrays
    from uqseg.ensemble import argmax_labels
    from uqseg.metrics import DiceResult, dice
    from uqseg.reports import DICE_HEADER, SCORE_HEADER, csv_line
    from uqseg.uncertainty import uncertainty_score

    spatial = (3, 17, 19)  # 969 pixels
    _write_two_cycle_inputs(
        tmp_path, ["case0000"], (4, *spatial), np.random.default_rng(13), empty_last=True
    )
    cfg = small_config(tmp_path, outdir="out", t0=10, eta=1.0, total_epochs=20,
                       entropy_region=region)
    with patch.object(uqseg.arrays, "BLOCK_PIXELS", 64):
        assert len(pixel_blocks(int(np.prod(spatial)))) == 16
        run_pipeline(cfg)
        mean = read_array(tmp_path / "out" / "mean" / "case0000.uqsg")
        scores = [uncertainty_score(mean, k, restrict_to_contour=region == "contour")
                  for k in (1, 2, 3)]
    gt = read_array(tmp_path / "cases" / "case0000_labels.uqsg")
    dices = [dice(argmax_labels(mean), gt, k) for k in (1, 2, 3)]
    assert dices[2] == DiceResult(3, 0, 0, 0, 1.0)
    assert [s.empty_contour for s in scores] == [False, False, True]
    for name, header, rows in (("dice.csv", DICE_HEADER, dices),
                               ("scores.csv", SCORE_HEADER, scores)):
        lines = [f"case_id,{header}"] + [csv_line("case0000", *vars(r).values()) for r in rows]
        assert (tmp_path / "out" / name).read_text().splitlines() == lines


@pytest.mark.parametrize("foreground_only", [False, True])
@pytest.mark.parametrize("spatial, blocks", [((24, 24), 1), ((2, 200, 200), 2)])
def test_ece_command_on_the_mean_of_a_one_case_run_writes_its_ece_csv(
    tmp_path, spatial, blocks, foreground_only
):
    assert len(pixel_blocks(int(np.prod(spatial)))) == blocks
    _write_two_cycle_inputs(tmp_path, ["case0000"], (3, *spatial), np.random.default_rng(9))
    cfg = _write_run_config(tmp_path, tmp_path / "p.cfg", eta=1, ece_foreground_only=foreground_only)
    assert main(["run", "--config", str(cfg)]) == 0
    argv = [
        "ece", "--pred", str(tmp_path / "out" / "mean" / "case0000.uqsg"),
        "--gt", str(tmp_path / "cases" / "case0000_labels.uqsg"), "--out", str(tmp_path / "ece.csv"),
    ]
    assert main(argv + ["--foreground-only"] * foreground_only) == 0
    assert (tmp_path / "ece.csv").read_bytes() == (tmp_path / "out" / "ece.csv").read_bytes()


def test_each_member_validated_once_and_entropy_computed_once(small_run, monkeypatch):
    import uqseg.ensemble
    import uqseg.pipeline
    import uqseg.uncertainty

    calls = {"validate": 0, "entropy": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        uqseg.ensemble, "validate_probabilities",
        counted("validate", uqseg.ensemble.validate_probabilities),
    )
    for module in (uqseg.pipeline, uqseg.uncertainty):
        monkeypatch.setattr(module, "pixel_entropy", counted("entropy", module.pixel_entropy))
    run_pipeline(small_config(small_run, outdir="k1"))
    members = len((small_run / "k1" / "manifest.csv").read_text().splitlines()) - 1
    assert calls == {"validate": 2 * members, "entropy": 2}  # two cases


def test_golden_summary_byte_for_byte(seed7_run):
    """Seed-7 summary must match the committed golden file exactly."""
    assert GOLDEN.exists(), "golden file missing; regenerate from a verified run"
    produced = seed7_run.summary.read_bytes()
    assert produced == GOLDEN.read_bytes()


# each subcommand with settings flags, with its required arguments
SETTINGS_COMMANDS = {
    "lr-schedule": ([], (SgdrConfig,)),
    "select-checkpoints": (["--trace", "t.csv", "--out", "m.csv"], (SgdrConfig, SelectionPolicy)),
    "toy-train": (["--outdir", "out"], (SgdrConfig, SelectionPolicy)),
}
# the documented flag of each settings field
SETTINGS_FLAGS = {
    "t0": "--t0", "eta": "--eta", "lr_max": "--lr-max", "lr_min": "--lr-min",
    "total_epochs": "--epochs", "per_cycle": "--per-cycle",
    "window_fraction": "--window-fraction", "min_peak_ratio": "--min-peak-ratio",
}


class TestSettingsFlags:
    """The schedule and policy flags are derived from the dataclass fields."""

    def test_every_field_has_its_flag(self):
        names = [f.name for cls in (SgdrConfig, SelectionPolicy) for f in fields(cls)]
        assert names == list(SETTINGS_FLAGS)

    @pytest.mark.parametrize("command", sorted(SETTINGS_COMMANDS))
    def test_defaults_are_the_dataclass_defaults(self, command):
        required, settings = SETTINGS_COMMANDS[command]
        args = build_parser().parse_args([command, *required])
        for f in [f for cls in settings for f in fields(cls)]:
            value = getattr(args, f.name)
            assert type(value) is type(f.default) and value == f.default, f.name

    @pytest.mark.parametrize("command", sorted(SETTINGS_COMMANDS))
    def test_each_flag_sets_its_field(self, command):
        required, settings = SETTINGS_COMMANDS[command]
        for cls in settings:
            for f in fields(cls):
                value = f.default + 1 if isinstance(f.default, int) else f.default / 2
                argv = [command, *required, SETTINGS_FLAGS[f.name], str(value)]
                args = build_parser().parse_args(argv)
                assert type(getattr(args, f.name)) is type(f.default), f.name
                assert settings_of(cls, args) == replace(cls(), **{f.name: value})


# every flag of every subcommand, in --help order, and every run config key:
# a new knob changes this literal
OPTION_SURFACE = {
    "lr-schedule": ("--t0", "--eta", "--lr-max", "--lr-min", "--epochs", "--out"),
    "select-checkpoints": (
        "--trace", "--t0", "--eta", "--lr-max", "--lr-min", "--epochs", "--per-cycle",
        "--window-fraction", "--min-peak-ratio", "--out",
    ),
    "fuse": ("--manifest", "--inputs", "--out"),
    "entropy": ("--in", "--out", "--pgm"),
    "score": ("--in", "--classes", "--out", "--contour-entropy"),
    "dice": ("--pred", "--gt", "--classes", "--out"),
    "ece": ("--pred", "--gt", "--bins", "--out", "--foreground-only"),
    "report": ("--cases", "--out"),
    "toy-gen": ("--seed", "--cases", "--shape", "--classes", "--noise", "--outdir"),
    "toy-train": (
        "--seed", "--cases", "--shape", "--classes", "--noise", "--test-cases", "--t0", "--eta",
        "--lr-max", "--lr-min", "--epochs", "--per-cycle", "--window-fraction",
        "--min-peak-ratio", "--outdir",
    ),
    "run": ("--config",),
    "info": ("--json",),
}
RUN_CONFIG_KEYS = (
    "trace", "predictions_dir", "cases_dir", "outdir", "t0", "total_epochs", "eta", "lr_max",
    "lr_min", "per_cycle", "window_fraction", "min_peak_ratio", "classes", "bins",
    "entropy_region", "ece_foreground_only",
)


def test_option_surface():
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    surface = {
        name: tuple(s for a in p._actions for s in a.option_strings if s not in ("-h", "--help"))
        for name, p in commands.items()
    }
    assert surface == OPTION_SURFACE
    assert sum(map(len, surface.values())) == 60
    assert tuple(f.name for f in fields(PipelineConfig)) == RUN_CONFIG_KEYS
    assert len(RUN_CONFIG_KEYS) == 16


class TestCli:
    def test_info_lists_defaults(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "array format version: 1" in out
        assert "default t0: 100" in out
        assert "default eta: 2.0" in out

    def test_info_json(self, capsys):
        assert main(["info", "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["array_format_version"] == 1
        assert info["defaults"]["t0"] == 100
        assert info["defaults"]["eta"] == 2.0

    def test_lr_schedule_rows(self, capsys):
        assert main(["lr-schedule", "--t0", "4", "--eta", "1", "--epochs", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "epoch,cycle,lr"
        assert len(lines) == 9
        cfg = SgdrConfig(t0=4, eta=1, total_epochs=8)
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[2]) == lr_at(0, cfg)

    def test_validation_error_exit_code(self, tmp_path, capsys):
        probs = np.full((3, 4, 4), 1 / 3, dtype=np.float32)
        path = tmp_path / "p.uqsg"
        write_array(path, probs)
        code = main(["score", "--in", str(path), "--classes", "one,two"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code = main(["entropy", "--in", str(tmp_path / "nope.uqsg"), "--out", str(tmp_path / "h.uqsg")])
        assert code == 3

    def test_entropy_creates_the_pgm_dir(self, tmp_path):
        path = tmp_path / "p.uqsg"
        write_array(path, np.full((2, 3, 4, 4), 0.5, dtype=np.float32))
        pgm_dir = tmp_path / "maps" / "h"
        assert main(["entropy", "--in", str(path), "--out", str(tmp_path / "h.uqsg"),
                     "--pgm", str(pgm_dir)]) == 0
        assert sorted(p.name for p in pgm_dir.iterdir()) == ["h.pgm"]

    def test_numeric_exit_code_reserved_for_numeric_failures(self):
        from uqseg.errors import NumericError

        assert NumericError("x").exit_code == 4

    def test_stage_chain_matches_run(self, small_run, tmp_path, capsys):
        out = tmp_path / "chain"
        (out / "mean").mkdir(parents=True)
        (out / "entropy").mkdir()
        argv = [
            "select-checkpoints", "--trace", str(small_run / "trace.csv"),
            "--t0", "10", "--eta", "2", "--lr-max", "0.2", "--lr-min", "0.0001",
            "--epochs", "20", "--out", str(out / "manifest.csv"),
        ]
        assert main(argv) == 0
        run_pipeline(small_config(small_run, outdir="h1"))
        run_dir = small_run / "h1"
        assert (out / "manifest.csv").read_bytes() == (run_dir / "manifest.csv").read_bytes()
        run_scores = (run_dir / "scores.csv").read_text().splitlines()
        run_dices = (run_dir / "dice.csv").read_text().splitlines()
        cases = ["case_id,class_id,uncertainty_score,dice"]
        for case_id in ("case0004", "case0005"):
            mean = out / "mean" / f"{case_id}.uqsg"
            assert main([
                "fuse", "--manifest", str(out / "manifest.csv"),
                "--inputs", str(small_run / "predictions" / case_id), "--out", str(mean),
            ]) == 0
            assert mean.read_bytes() == (run_dir / "mean" / mean.name).read_bytes()

            entropy = out / "entropy" / f"{case_id}.uqsg"
            assert main([
                "entropy", "--in", str(mean), "--out", str(entropy),
                "--pgm", str(entropy.parent),
            ]) == 0
            pgm = f"{case_id}.pgm"
            assert (out / "entropy" / pgm).read_bytes() == (run_dir / "entropy" / pgm).read_bytes()
            # both map the float32 mean
            assert entropy.read_bytes() == (run_dir / "entropy" / entropy.name).read_bytes()

            scores = out / f"{case_id}_scores.csv"
            assert main([
                "score", "--in", str(mean), "--classes", "1,2", "--out", str(scores),
            ]) == 0
            chain_scores = scores.read_text().splitlines()
            assert chain_scores == [
                row.partition(",")[2]
                for row in run_scores
                if row.startswith(("case_id,", case_id))
            ]

            labels = read_array(mean).argmax(axis=0).astype(np.uint8)
            write_array(out / "pred.uqsg", labels)
            assert main([
                "dice", "--pred", str(out / "pred.uqsg"),
                "--gt", str(small_run / "cases" / f"{case_id}_labels.uqsg"),
                "--classes", "1,2",
            ]) == 0
            chain_dices = capsys.readouterr().out.splitlines()
            assert chain_dices == [
                row.partition(",")[2]
                for row in run_dices
                if row.startswith(("case_id,", case_id))
            ]
            for score_row, dice_row in zip(chain_scores[1:], chain_dices[1:]):
                k, _, _, score, _ = score_row.split(",")
                cases.append(f"{case_id},{k},{score},{dice_row.split(',')[-1]}")

        (out / "cases.csv").write_text("\n".join(cases) + "\n")
        assert main([
            "report", "--cases", str(out / "cases.csv"), "--out", str(out / "summary.csv"),
        ]) == 0
        chain_summary = (out / "summary.csv").read_text().splitlines()
        run_summary = (run_dir / "summary.csv").read_text().splitlines()
        # the pipeline appends ECE, average entropy and the entropy region
        assert chain_summary == run_summary[:-3]
        assert chain_summary[-1].startswith("dataset,,,spearman_")

    def test_dice_and_ece_commands(self, small_run, tmp_path, capsys):
        gt = small_run / "cases" / "case0004_labels.uqsg"
        run_pipeline(small_config(small_run, outdir="i1"))
        mean_path = small_run / "i1" / "mean" / "case0004.uqsg"
        labels = read_array(mean_path).argmax(axis=0).astype(np.uint8)
        pred_path = tmp_path / "pred.uqsg"
        write_array(pred_path, labels)
        assert main(["dice", "--pred", str(pred_path), "--gt", str(gt), "--classes", "1,2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "class,intersection,pred_size,gt_size,dice"
        assert len(out) == 3
        report_path = tmp_path / "ece.csv"
        assert main(["ece", "--pred", str(mean_path), "--gt", str(gt), "--bins", "10", "--out", str(report_path)]) == 0
        lines = report_path.read_text().splitlines()
        assert lines[0] == "record,lower,upper,count,mean_confidence,accuracy"
        assert lines[-1].startswith("ece_percent,")

    def test_report_command(self, tmp_path, capsys):
        cases = tmp_path / "cases.csv"
        cases.write_text(
            "case_id,class_id,uncertainty_score,dice\n"
            "a,1,0.1,0.9\n"
            "b,1,0.2,0.8\n"
            "c,1,0.3,0.7\n"
        )
        out = tmp_path / "summary.csv"
        assert main(["report", "--cases", str(cases), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kind,case_id,class_id,metric,value"
        assert "dataset,,,spearman_score_dice,-1" in lines[-1]

    def test_run_command(self, small_run, tmp_path, capsys):
        cfg_path = tmp_path / "p.cfg"
        cfg_path.write_text(
            f"trace = {small_run / 'trace.csv'}\n"
            f"predictions_dir = {small_run / 'predictions'}\n"
            f"cases_dir = {small_run / 'cases'}\n"
            f"outdir = {small_run / 'j1'}\n"
            "t0 = 10\n"
            "eta = 2\n"
            "lr_max = 0.2\n"
            "lr_min = 0.0001\n"
            "total_epochs = 20\n"
        )
        assert main(["run", "--config", str(cfg_path)]) == 0
        summary = small_run / "j1" / "summary.csv"
        assert capsys.readouterr().out == f"summary written to {summary}\n"
        assert summary.exists()
        assert staged(small_run / "j1") == []

    def test_non_utf8_run_config_exits_validation(self, tmp_path, capsys):
        cfg_path = tmp_path / "p.cfg"
        cfg_path.write_bytes(b"\xff\xfe\x00trace = t.csv\n")
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {cfg_path}: not a UTF-8 text file" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, value", [("--eta", "nan"), ("--eta", "inf"), ("--lr-max", "inf"), ("--lr-min", "nan")]
    )
    def test_non_finite_schedule_exits_validation(self, flag, value, capsys):
        assert main(["lr-schedule", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    @pytest.mark.parametrize("key, value", [("eta", "nan"), ("lr_max", "inf"), ("lr_min", "-inf")])
    def test_non_finite_schedule_in_run_config_exits_validation(self, key, value, tmp_path, capsys):
        cfg_path = _write_run_config(tmp_path, tmp_path / "p.cfg", **{key: value})
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_overflowing_eta_in_run_config_runs(self, small_run, tmp_path, capsys):
        # cycle 1's span t0 * eta is past the float range: it outlasts the run
        cfg_path = _write_run_config(small_run, tmp_path / "p.cfg", eta="1e308", outdir=tmp_path / "out")
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert (tmp_path / "out" / "summary.csv").exists()

    @pytest.mark.parametrize("command", ["entropy", "score", "ece"])
    def test_posterior_off_the_simplex_exits_validation(self, command, tmp_path, capsys):
        probs = tmp_path / "p.uqsg"
        write_array(probs, np.full((2, 4, 4), 0.35, dtype=np.float32))  # sums to 0.7
        write_array(tmp_path / "gt.uqsg", np.zeros((4, 4), dtype=np.uint8))
        argv = {
            "entropy": ["entropy", "--in", str(probs), "--out", str(tmp_path / "h.uqsg")],
            "score": ["score", "--in", str(probs), "--classes", "1"],
            "ece": [
                "ece", "--pred", str(probs), "--gt", str(tmp_path / "gt.uqsg"),
                "--out", str(tmp_path / "ece.csv"),
            ],
        }[command]
        assert main(argv) == 2
        assert f"{probs}: per-pixel class probabilities must sum to 1" in capsys.readouterr().err

    def test_ece_bins_above_the_bound_exit_validation_before_any_output(self, tmp_path, capsys):
        from uqseg.metrics import MAX_ECE_BINS

        write_array(tmp_path / "p.uqsg", np.full((2, 4, 4), 0.5, dtype=np.float32))
        write_array(tmp_path / "gt.uqsg", np.zeros((4, 4), dtype=np.uint8))
        argv = ["ece", "--pred", str(tmp_path / "p.uqsg"), "--gt", str(tmp_path / "gt.uqsg")]
        tracemalloc.start()
        try:
            code = main(argv + ["--out", str(tmp_path / "ece.csv"), "--bins", "100000000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2**20
        assert f"n_bins must be in [1, {MAX_ECE_BINS}], got 100000000000" in capsys.readouterr().err
        assert not (tmp_path / "ece.csv").exists()
        assert main(argv + ["--out", str(tmp_path / "max.csv"), "--bins", str(MAX_ECE_BINS)]) == 0
        assert len((tmp_path / "max.csv").read_text().splitlines()) == MAX_ECE_BINS + 2

    @pytest.mark.parametrize("bins", [0, 10_001])
    def test_run_key_bins_outside_the_bound_exits_validation(self, small_run, tmp_path, bins, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"trace = {small_run / 'trace.csv'}\npredictions_dir = {small_run / 'predictions'}\n"
            f"cases_dir = {small_run / 'cases'}\noutdir = {tmp_path / 'out'}\n"
            f"t0 = 10\neta = 2\nlr_max = 0.2\nlr_min = 0.0001\ntotal_epochs = 20\nbins = {bins}\n"
        )
        assert main(["run", "--config", str(cfg)]) == 2
        assert f"bins must be in [1, 10000], got {bins}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert staged(tmp_path / "out") == []

    def test_ece_bins_default_has_one_source(self, capsys):
        from uqseg.cli import build_parser
        from uqseg.metrics import DEFAULT_ECE_BINS, CalibrationAccumulator

        args = build_parser().parse_args(["ece", "--pred", "p", "--gt", "g", "--out", "o"])
        assert args.bins == DEFAULT_ECE_BINS
        assert CalibrationAccumulator().n_bins == DEFAULT_ECE_BINS
        assert small_config(Path(".")).bins == DEFAULT_ECE_BINS
        assert main(["info", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["defaults"]["ece_bins"] == DEFAULT_ECE_BINS

    def test_run_with_missing_trace_exits_io(self, tmp_path, capsys):
        cfg_path = tmp_path / "p.cfg"
        cfg_path.write_text(
            f"trace = {tmp_path / 'absent.csv'}\n"
            f"predictions_dir = {tmp_path / 'predictions'}\n"
            f"cases_dir = {tmp_path}\n"
            f"outdir = {tmp_path / 'out'}\n"
            "t0 = 10\n"
            "total_epochs = 20\n"
        )
        code = main(["run", "--config", str(cfg_path)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: stage 'select-checkpoints' failed: "
            f"[Errno 2] No such file or directory: '{tmp_path / 'absent.csv'}'\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "select-checkpoints"])
    def test_missing_trace_file_has_one_exit_code_and_message(self, command, tmp_path, capsys):
        trace = tmp_path / "nope.csv"
        if command == "run":
            cfg_path = _write_run_config(tmp_path, tmp_path / "p.cfg", trace=trace)
            argv = ["run", "--config", str(cfg_path)]
        else:
            argv = ["select-checkpoints", "--trace", str(trace), "--t0", "10", "--epochs", "20",
                    "--out", str(tmp_path / "m.csv")]
        assert main(argv) == 3
        assert capsys.readouterr().err == "".join([
            "error: ", "stage 'select-checkpoints' failed: " if command == "run" else "",
            f"[Errno 2] No such file or directory: '{trace}'\n",
        ])
        assert not (tmp_path / "m.csv").exists()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("shape", ["64xab", "64", "8x8x8", "x"])
    def test_bad_shape_exits_validation(self, shape, tmp_path, capsys):
        code = main(["toy-gen", "--shape", shape, "--outdir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad shape")
        assert "Traceback" not in err

    def test_import_does_not_load_scipy(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = (
            "import uqseg.cli, sys; assert not any("
            "m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", probe], env=env)
        assert proc.returncode == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["toy-gen", "--classes", "300", "--cases", "300"],
            ["toy-train", "--classes", "257", "--cases", "300", "--test-cases", "2"],
        ],
    )
    def test_more_than_256_classes_exits_validation(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--shape", "16x16", "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "class_count must be <= 256" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["toy-gen", "toy-train"])
    @pytest.mark.parametrize("noise", ["nan", "-0.1", "inf"])
    def test_bad_noise_exits_validation(self, command, noise, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([command, "--noise", noise, "--shape", "16x16", "--outdir", str(out)]) == 2
        assert "noise_std must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_toy_train_weights_past_float32_exit_numeric(self, tmp_path, capsys):
        out = tmp_path / "t"
        assert main([
            "toy-train", "--lr-max", "1e308", "--lr-min", "1", "--shape", "16x16",
            "--cases", "2", "--test-cases", "1", "--epochs", "4", "--t0", "2", "--eta", "1",
            "--outdir", str(out),
        ]) == 4
        err = capsys.readouterr().err
        assert "weights has values that are not finite in float32" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_toy_gen_image_past_float32_exits_numeric(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert main([
            "toy-gen", "--noise", "1.5e308", "--cases", "3", "--shape", "16x16",
            "--outdir", str(out),
        ]) == 4
        err = capsys.readouterr().err
        assert "image has values that are not finite in float32" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_toy_train_image_past_float32_names_the_case(self, tmp_path, capsys):
        out = tmp_path / "t"
        assert main([
            "toy-train", "--noise", "1.5e308", "--cases", "2", "--test-cases", "1",
            "--shape", "16x16", "--outdir", str(out),
        ]) == 4
        err = capsys.readouterr().err
        assert "error: case case0000 image has values that are not finite in float32" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["toy-gen", "toy-train"])
    @pytest.mark.parametrize("content", ["file", "dir"])
    def test_toy_outdir_must_be_absent_or_empty(self, command, content, tmp_path, capsys):
        # a second run into one outdir would leave the first run's files among its own
        out = tmp_path / "out"
        if content == "file":
            out.write_text("keep me\n")
            message = f"outdir {out} exists and is not a directory"
        else:
            out.mkdir()
            (out / "keep.txt").write_text("keep me\n")
            message = f"outdir {out} is not empty; remove or rename it to run again"
        before = tree_bytes(tmp_path)
        argv = [command, "--cases", "2", "--shape", "16x16", "--outdir", str(out)]
        if command == "toy-train":
            argv += ["--test-cases", "1", "--epochs", "2", "--t0", "2"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert tree_bytes(tmp_path) == before

    @pytest.mark.parametrize("command", ["toy-gen", "toy-train"])
    def test_toy_input_errors_come_before_the_outdir_check(self, command, tmp_path, capsys):
        (tmp_path / "keep.txt").write_text("keep me\n")
        assert main([command, "--noise", "nan", "--outdir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: noise_std must be finite and >= 0, got nan\n"

    def test_toy_gen_with_fewer_cases_than_foreground_classes(self, tmp_path):
        # one scene holds a blob of each of the two foreground classes
        assert main(["toy-gen", "--cases", "1", "--shape", "16x16", "--outdir", str(tmp_path)]) == 0
        assert sorted(p.name for p in (tmp_path / "cases").iterdir()) == [
            "case0000_image.uqsg", "case0000_labels.uqsg",
        ]

    def test_toy_gen_command(self, tmp_path):
        assert main([
            "toy-gen", "--seed", "5", "--cases", "3", "--shape", "24x24",
            "--classes", "3", "--outdir", str(tmp_path),
        ]) == 0
        assert len(list((tmp_path / "cases").glob("*_image.uqsg"))) == 3


class TestInputChecks:
    """Each input is read and checked once; its errors name the file or the key."""

    @pytest.mark.parametrize("key", ["trace", "predictions_dir", "cases_dir", "outdir"])
    def test_empty_path_in_run_config_names_the_key(self, key, small_run, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        config = _write_run_config(small_run, tmp_path / "p.cfg", **{"outdir": tmp_path / "out", key: ""})
        assert main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {key} must name a path, got an empty value\n"
        assert [p.name for p in tmp_path.iterdir()] == ["p.cfg"]

    @pytest.mark.parametrize("side", ["--pred", "--gt"])
    def test_dice_names_a_float_label_file(self, side, tmp_path, capsys):
        paths = {"--pred": tmp_path / "pred.uqsg", "--gt": tmp_path / "gt.uqsg"}
        for flag, path in paths.items():
            write_array(path, np.zeros((4, 4), dtype=np.float32 if flag == side else np.uint8))
        argv = ["dice", "--pred", str(paths["--pred"]), "--gt", str(paths["--gt"]), "--classes", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {paths[side]}: labels must be integer-typed, got float32\n"
        )

    def test_dice_names_both_label_files_of_different_shapes(self, tmp_path, capsys):
        pred, gt = tmp_path / "pred.uqsg", tmp_path / "gt.uqsg"
        write_array(pred, np.zeros((8, 8), dtype=np.uint8))
        write_array(gt, np.zeros((5, 5), dtype=np.uint8))
        assert main(["dice", "--pred", str(pred), "--gt", str(gt), "--classes", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: {pred}: labels shape (8, 8) does not match {gt} shape (5, 5)\n"
        )

    def test_ece_names_a_label_file_of_another_shape(self, tmp_path, capsys):
        probs, labels, out = tmp_path / "p.uqsg", tmp_path / "gt.uqsg", tmp_path / "ece.csv"
        write_array(probs, np.full((2, 4, 4), 0.5, dtype=np.float32))
        write_array(labels, np.zeros((5, 5), dtype=np.uint8))
        assert main(["ece", "--pred", str(probs), "--gt", str(labels), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {labels}: labels shape (5, 5) does not match posterior (2, 4, 4)\n"
        )
        assert not out.exists()

    def test_run_class_out_of_range_says_what_score_says(self, small_run, tmp_path, capsys):
        config = _write_run_config(small_run, tmp_path / "p.cfg", outdir=tmp_path / "out", classes=7)
        assert main(["run", "--config", str(config)]) == 2
        run_err = capsys.readouterr().err
        mean = tmp_path / "mean.uqsg"
        write_array(mean, np.full((3, 4, 4), 1 / 3, dtype=np.float32))
        assert main(["score", "--in", str(mean), "--classes", "7"]) == 2
        message = "class 7 out of range for 3 classes; background (class 0) has no uncertainty score"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert run_err == f"error: stage 'score' failed for case case0004: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["toy-gen", "--cases", "1", "--classes", "2", "--shape", "100000x100000"],
                "shape (100000, 100000) has more than 1048576 pixels",
            ),
            (
                ["toy-train", "--cases", "1", "--classes", "2", "--shape", "1025x1024"],
                "shape (1025, 1024) has more than 1048576 pixels",
            ),
            (["lr-schedule", "--epochs", "100000000000"], "total_epochs must be <= 100000, got 100000000000"),
            (["toy-train", "--epochs", "100001"], "total_epochs must be <= 100000, got 100001"),
            (["toy-gen", "--cases", "2049"], "2049 scenes of (64, 64) exceed 8388608 pixels"),
        ],
    )
    def test_oversized_request_exits_validation_before_allocating(self, argv, message, tmp_path, capsys):
        if argv[0].startswith("toy-"):
            argv = [*argv, "--outdir", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2**20
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["toy-gen", "toy-train"])
    def test_negative_seed_exits_validation(self, command, tmp_path, capsys):
        epochs = ["--epochs", "2"] if command == "toy-train" else []
        argv = [command, "--seed", "-1", "--cases", "2", "--shape", "16x16", *epochs]
        assert main([*argv, "--outdir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_dataset_bound_admits_the_benchmark_datasets(self):
        from uqseg.toy import MAX_DATASET_PIXELS

        # volume3d draws 3 x 48 slices of 192x192, many2d 1,000 scenes of 64x64
        assert MAX_DATASET_PIXELS >= max(3 * 48 * 192 * 192, 1000 * 64 * 64)

    def test_largest_schedule_is_accepted(self):
        from uqseg.scheduler import MAX_EPOCHS

        assert SgdrConfig(total_epochs=MAX_EPOCHS).total_epochs == 100_000

    def test_run_key_naming_a_class_twice_exits_validation(self, small_run, tmp_path, capsys):
        config = _write_run_config(small_run, tmp_path / "p.cfg", outdir=tmp_path / "out",
                                   classes="1,1,2")
        assert main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "error: stage 'score' failed for case case0004: "
            "class list [1, 1, 2] names a class more than once\n"
        )
        assert not (tmp_path / "out").exists()
        assert staged(tmp_path / "out") == []

    def test_score_naming_a_class_twice_exits_validation(self, tmp_path, capsys):
        mean, out = tmp_path / "mean.uqsg", tmp_path / "scores.csv"
        write_array(mean, np.full((3, 4, 4), 1 / 3, dtype=np.float32))
        assert main(["score", "--in", str(mean), "--classes", "1,1,2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: class list [1, 1, 2] names a class more than once\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("classes", ["1,1", "2,1,2", "-1,300", "256", "-1"])
    def test_dice_names_each_label_code_once(self, classes, tmp_path, capsys):
        pred, gt, out = tmp_path / "pred.uqsg", tmp_path / "gt.uqsg", tmp_path / "dice.csv"
        for path in (pred, gt):
            write_array(path, np.zeros((4, 4), dtype=np.uint8))
        argv = ["dice", "--pred", str(pred), "--gt", str(gt), f"--classes={classes}"]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: label codes must be in [0, 256), each once; got {classes!r}\n"
        )
        assert not out.exists()

    def test_dice_takes_the_whole_label_code_range(self, tmp_path, capsys):
        pred, gt = tmp_path / "pred.uqsg", tmp_path / "gt.uqsg"
        for path in (pred, gt):
            write_array(path, np.zeros((4, 4), dtype=np.uint8))
        assert main(["dice", "--pred", str(pred), "--gt", str(gt), "--classes", "0,255"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0", "255"]

    def test_run_config_line_without_a_key_exits_validation(self, tmp_path, capsys):
        config = tmp_path / "p.cfg"
        config.write_text("# settings\ntrace = t.csv\n  just words\n")
        with pytest.raises(ValidationError) as err:
            PipelineConfig.from_file(config)
        message = f"{config}:3: expected key=value, got '  just words'"
        assert str(err.value) == message
        assert main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_one_class_exits_validation(self, tmp_path, capsys):
        from uqseg.toy import generate_dataset

        with pytest.raises(ValidationError, match=r"^class_count must be >= 2, got 1$"):
            generate_dataset(seed=7, n_cases=2, shape=(16, 16), class_count=1)
        out = tmp_path / "out"
        argv = ["toy-gen", "--classes", "1", "--cases", "2", "--shape", "16x16"]
        assert main([*argv, "--outdir", str(out)]) == 2
        assert capsys.readouterr().err == "error: class_count must be >= 2, got 1\n"
        assert not out.exists()


def test_entropy_pgm_dir_that_cannot_be_made_writes_no_map(tmp_path, capsys):
    path, out, pgm_dir = tmp_path / "p.uqsg", tmp_path / "e.uqsg", tmp_path / "notadir"
    write_array(path, np.full((2, 8, 8), 0.5, dtype=np.float32))
    pgm_dir.write_text("")
    assert main(["entropy", "--in", str(path), "--out", str(out), "--pgm", str(pgm_dir)]) == 3
    assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{pgm_dir}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["notadir", "p.uqsg"]


def test_entropy_failing_in_a_block_leaves_no_pgm_dir(tmp_path, capsys):
    path, out, maps = tmp_path / "p.uqsg", tmp_path / "h.uqsg", tmp_path / "maps"
    write_array(path, np.full((2, 8, 8), 0.6, dtype=np.float32))  # off the simplex
    assert main(["entropy", "--in", str(path), "--out", str(out), "--pgm", str(maps)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: per-pixel class probabilities must sum to 1 within 1e-05; "
        "worst deviation 2.000e-01\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.uqsg"]


def test_entropy_pgm_that_cannot_be_written_removes_its_out(tmp_path, capsys):
    path, out, pgm = tmp_path / "p.uqsg", tmp_path / "h.uqsg", tmp_path / "maps" / "h.pgm"
    write_array(path, np.full((2, 8, 8), 0.5, dtype=np.float32))
    pgm.mkdir(parents=True)
    argv = ["entropy", "--in", str(path), "--out", str(out), "--pgm", str(pgm.parent)]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{pgm}'\n"
    assert not out.exists()


def test_entropy_pgm_failing_partway_removes_it_and_its_out(tmp_path, capsys):
    path, out, maps = tmp_path / "p.uqsg", tmp_path / "h.uqsg", tmp_path / "maps"
    write_array(path, np.full((2, 8, 8), 0.5, dtype=np.float32))
    write = ArrayFile.write

    def full_disk_at_the_pgm(self, pixels, rows):
        if str(self.path).endswith(".pgm"):
            raise OSError(28, "No space left on device")
        write(self, pixels, rows)

    with patch.object(ArrayFile, "write", full_disk_at_the_pgm):
        assert main(["entropy", "--in", str(path), "--out", str(out), "--pgm", str(maps)]) == 3
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["maps", "p.uqsg"]
    assert list(maps.iterdir()) == []


def test_entropy_pgm_of_a_3d_map_stacks_its_slices(tmp_path):
    """A (D, H, W) map's PGM is one W x D*H image: the 8-bit map of each slice in order."""
    path, maps = tmp_path / "p.uqsg", tmp_path / "maps"
    e = np.random.default_rng(25).random((3, 4, 5, 6))
    write_array(path, (e / e.sum(axis=0)).astype(np.float32))
    assert main(["entropy", "--in", str(path), "--out", str(tmp_path / "h.uqsg"),
                 "--pgm", str(maps)]) == 0
    probs = read_array(path)
    slices = [entropy_to_gray(pixel_entropy(probs[:, z].reshape(3, -1)), 3) for z in range(4)]
    assert [p.name for p in maps.iterdir()] == ["h.pgm"]
    assert (maps / "h.pgm").read_bytes() == b"P5\n6 20\n255\n" + b"".join(
        s.tobytes() for s in slices)


def test_3d_case_vol_and_2d_case_vol_z000_keep_their_own_pgms(tmp_path):
    """A 3D case ``vol`` and a 2D case ``vol_z000`` both run, each into its own one PGM."""
    root = tmp_path / "run"
    for case, shape in (("vol", (3, 2, 8, 8)), ("vol_z000", (3, 8, 8))):
        (tmp_path / case).mkdir()
        _write_two_cycle_inputs(tmp_path / case, [case], shape, np.random.default_rng(24))
        shutil.copytree(tmp_path / case, root, dirs_exist_ok=True)
    out = Path(run_pipeline(small_config(root, outdir="out", eta=1.0))).parent
    assert sorted(p.name for p in (out / "entropy").iterdir()) == [
        "vol.pgm", "vol.uqsg", "vol_z000.pgm", "vol_z000.uqsg"]
    for case, header in (("vol", b"P5\n8 16\n255\n"), ("vol_z000", b"P5\n8 8\n255\n")):
        h = pixel_entropy(read_array(out / "mean" / f"{case}.uqsg").reshape(3, -1))
        assert (out / "entropy" / f"{case}.pgm").read_bytes() == (
            header + entropy_to_gray(h, 3).tobytes())


def _three_2d_cases(root):
    _write_two_cycle_inputs(
        root, ["case0000", "case0001", "case0002"], (3, 16, 16), np.random.default_rng(21)
    )
    return small_config(root, outdir="out", eta=1.0)


def _no_helper(monkeypatch):
    import uqseg.pipeline

    monkeypatch.setattr(uqseg.pipeline, "_create_outputs", lambda *args: None)


def _modes(root):
    return {p.relative_to(root): p.stat().st_mode for p in sorted(root.rglob("*"))}


class TestOutputCreator:
    """The helper thread that creates each case's output files ahead of the case loop
    changes no byte, mode, name, error or open file of a run; it only saves time."""

    @pytest.fixture(params=["2d", "3d"])
    def inputs(self, request, small_run, tmp_path):
        if request.param == "2d":
            return small_config(small_run, outdir=str(tmp_path / "out"))
        root = tmp_path / "in"
        root.mkdir()
        _write_two_cycle_inputs(
            root, ["case0000", "case0001"], (3, 4, 12, 12), np.random.default_rng(22)
        )
        return small_config(root, outdir="out", eta=1.0)

    def test_helper_changes_nothing_but_time(self, inputs, monkeypatch):
        shipped = Path(run_pipeline(inputs)).parent
        _no_helper(monkeypatch)
        alone = Path(run_pipeline(replace(inputs, outdir=str(shipped.parent / "alone")))).parent
        assert tree_bytes(shipped) == tree_bytes(alone)
        assert _modes(shipped) == _modes(alone)
        case_ids = sorted(p.name for p in Path(inputs.predictions_dir).iterdir())
        assert sorted(p.name for p in (shipped / "mean").iterdir()) == [
            f"{case_id}.uqsg" for case_id in case_ids]
        assert sorted(p.name for p in (shipped / "entropy").iterdir()) == [
            f"{case_id}.{ext}" for case_id in case_ids for ext in ("pgm", "uqsg")]

    def test_helper_racing_the_loop_changes_no_byte(self, tmp_path, monkeypatch):
        """Many one-block cases and a short switch interval interleave the two threads."""
        cases = [f"case{k:04d}" for k in range(40)]
        _write_two_cycle_inputs(tmp_path, cases, (3, 8, 8), np.random.default_rng(23))
        cfg = small_config(tmp_path, outdir="raced", eta=1.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            raced = Path(run_pipeline(cfg)).parent
        finally:
            sys.setswitchinterval(interval)
        _no_helper(monkeypatch)
        alone = Path(run_pipeline(replace(cfg, outdir=str(tmp_path / "alone")))).parent
        assert tree_bytes(raced) == tree_bytes(alone)
        assert _modes(raced) == _modes(alone)

    def test_creates_each_file_empty_and_truncates_none(self, tmp_path):
        import threading

        from uqseg.pipeline import _create_outputs

        out, cases = tmp_path / "out", ["case0004", "case0005", "nocase"]
        (out / "mean").mkdir(parents=True)
        (out / "entropy").mkdir()
        (out / "mean" / "case0004.uqsg").write_bytes(b"written")
        _create_outputs(out, cases, threading.Event())
        assert tree_bytes(out) == {
            **{Path("mean") / f"{case}.uqsg": b"" for case in cases},
            Path("mean/case0004.uqsg"): b"written",
            **{Path("entropy") / f"{case}.{ext}": b"" for case in cases for ext in ("uqsg", "pgm")},
        }
        _create_outputs(tmp_path / "none", cases, threading.Event())  # raises no OSError
        stop = threading.Event()
        stop.set()
        (tmp_path / "stopped" / "mean").mkdir(parents=True)
        _create_outputs(tmp_path / "stopped", cases, stop)
        assert not (tmp_path / "none").exists()
        assert tree_bytes(tmp_path / "stopped") == {}

    def test_helper_opens_no_input(self, tmp_path, monkeypatch):
        """The member files a run reads are opened once each, by ``fuse_blocks``: the helper
        opens no input."""
        from uqseg.selection import read_selection

        cfg = _three_2d_cases(tmp_path)
        opened, init = [], ArrayFile.__init__

        def spy(f, path, *args, **kwargs):
            if not args:  # a file opened for reading
                opened.append(Path(path).relative_to(tmp_path))
            init(f, path, *args, **kwargs)

        monkeypatch.setattr(ArrayFile, "__init__", spy)
        run_pipeline(cfg)
        ids = read_selection(tmp_path / "out" / "manifest.csv").checkpoint_ids
        assert sorted(p for p in opened if p.parts[0] == "predictions") == sorted(
            Path("predictions", f"case000{k}", f"{cid}.uqsg") for k in range(3) for cid in ids)

    @pytest.mark.parametrize("damage", ["missing", "truncated"])
    def test_bad_first_member_of_a_later_case_fails_as_without_the_helper(
        self, tmp_path, damage, monkeypatch, capsys
    ):
        from uqseg.selection import read_selection

        cfg = _three_2d_cases(tmp_path)
        run_pipeline(replace(cfg, outdir=str(tmp_path / "ref")))
        first = read_selection(tmp_path / "ref" / "manifest.csv").checkpoint_ids[0]
        member = tmp_path / "predictions" / "case0002" / f"{first}.uqsg"
        if damage == "missing":
            member.unlink()
            message = f"[Errno 2] No such file or directory: '{member}'"
        else:
            member.write_bytes(member.read_bytes()[:-4])
            message = f"{member}: payload truncated, expected 3072 bytes, got 3068"
        config = _write_run_config(tmp_path, tmp_path / "p.cfg", eta=1)
        results = []
        for helper in (True, False):
            if not helper:
                _no_helper(monkeypatch)
            results.append((main(["run", "--config", str(config)]), capsys.readouterr().err))
            assert not (tmp_path / "out").exists()
            assert staged(tmp_path / "out") == []
        assert results[0] == results[1] == (
            3, f"error: stage 'fuse' failed for case case0002: {message}\n",
        )

    @pytest.mark.parametrize("end", ["success", "stage-error", "interrupt"])
    def test_helper_has_ended_when_the_run_returns_or_raises(self, tmp_path, end, monkeypatch):
        import threading

        import uqseg.pipeline

        cfg = _three_2d_cases(tmp_path)
        if end == "stage-error":
            (tmp_path / "cases" / "case0001_labels.uqsg").unlink()
        if end == "interrupt":
            def interrupt(*args):
                raise KeyboardInterrupt

            monkeypatch.setattr(uqseg.pipeline, "pixel_entropy", interrupt)
        threads = threading.active_count()
        if end == "success":
            run_pipeline(cfg)
        else:
            with pytest.raises(StageError if end == "stage-error" else KeyboardInterrupt):
                run_pipeline(cfg)
            assert not (tmp_path / "out").exists()
        assert threading.active_count() == threads
        assert staged(tmp_path / "out") == []

    @needs_proc_fds
    @pytest.mark.parametrize("missing_labels", [None, "case0001"])
    def test_every_file_of_a_run_of_several_cases_is_closed(self, tmp_path, missing_labels):
        cfg = _three_2d_cases(tmp_path)
        if missing_labels:
            (tmp_path / "cases" / f"{missing_labels}_labels.uqsg").unlink()
        with closes_every_file():
            if missing_labels:
                with pytest.raises(StageError, match=re.escape(
                    f"No such file or directory: '{tmp_path / 'cases' / missing_labels}_labels"
                )):
                    run_pipeline(cfg)
            else:
                run_pipeline(cfg)
