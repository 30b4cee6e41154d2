"""End-to-end golden of a 3D run: toy slices stacked into c=4 volumes.

A short toy training run supplies six checkpoints. Their stored weights
predict fresh toy scenes, five slices of 128x128 stacked per case, so each
class plane spans two pixel blocks and the fuse and every per-pixel pass run
block by block. The summary must equal ``data/golden_summary_3d.csv`` byte
for byte; rebuild it with ``build_3d_run`` after a deliberate change of
meaning.
"""

from pathlib import Path

import numpy as np
import pytest

from uqseg.arrayio import read_array, write_array
from uqseg.arrays import pixel_blocks
from uqseg.pipeline import PipelineConfig, run_pipeline
from uqseg.scheduler import SgdrConfig
from uqseg.selection import SelectionPolicy
from uqseg.toy import case_features, generate_dataset, posterior, run_toy_training

GOLDEN_3D = Path(__file__).parent / "data" / "golden_summary_3d.csv"

CLASSES, DEPTH, SHAPE, CASES = 4, 5, (128, 128), 2
# two 100-epoch cycles whose 3-epoch windows save exactly six checkpoints
SCHEDULE = SgdrConfig(t0=100, eta=1, lr_max=2.0, lr_min=1e-4, total_epochs=200)
POLICY = SelectionPolicy(per_cycle=3, window_fraction=0.03, min_peak_ratio=0.01)


def build_3d_run(root):
    """Train, write the 3D inputs under ``root`` and run the pipeline on them."""
    root = Path(root)
    run_toy_training(
        root / "train", seed=11, n_train=8, n_test=2, shape=(32, 32),
        class_count=CLASSES, cfg=SCHEDULE, policy=POLICY,
    )
    weights = {
        path.stem: read_array(path).astype(np.float64)
        for path in sorted((root / "train" / "checkpoints").glob("*.uqsg"))
    }
    scenes = generate_dataset(12, CASES * DEPTH, shape=SHAPE, class_count=CLASSES)
    (root / "cases").mkdir()
    for i in range(CASES):
        case_id = f"case{i:04d}"
        group = scenes[i * DEPTH : (i + 1) * DEPTH]
        labels = np.stack([s.labels for s in group])
        write_array(root / "cases" / f"{case_id}_labels.uqsg", labels)
        (root / "predictions" / case_id).mkdir(parents=True)
        features = [case_features(s.image) for s in group]
        for cid, w in weights.items():
            member = np.stack([posterior(w, f, SHAPE) for f in features], axis=1)
            write_array(root / "predictions" / case_id / f"{cid}.uqsg", member.astype(np.float32))
    return run_pipeline(PipelineConfig(
        trace=str(root / "train" / "trace.csv"),
        predictions_dir=str(root / "predictions"),
        cases_dir=str(root / "cases"),
        outdir=str(root / "analysis"),
        t0=SCHEDULE.t0, eta=SCHEDULE.eta, lr_max=SCHEDULE.lr_max, lr_min=SCHEDULE.lr_min,
        total_epochs=SCHEDULE.total_epochs, per_cycle=POLICY.per_cycle,
        window_fraction=POLICY.window_fraction, min_peak_ratio=POLICY.min_peak_ratio,
    ))


@pytest.fixture(scope="module")
def run_3d(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden3d")
    return root, build_3d_run(root)


def test_inputs_span_two_pixel_blocks_and_six_members(run_3d):
    root, _ = run_3d
    assert len(pixel_blocks(DEPTH * SHAPE[0] * SHAPE[1])) == 2
    assert sorted(p.name for p in (root / "analysis" / "mean").iterdir()) == [
        f"case{i:04d}.uqsg" for i in range(CASES)
    ]
    manifest = (root / "analysis" / "manifest.csv").read_text().splitlines()
    assert len(manifest) == 1 + 6
    mean = read_array(root / "analysis" / "mean" / "case0000.uqsg")
    assert mean.shape == (CLASSES, DEPTH, *SHAPE) and mean.dtype == np.float32


def test_golden_3d_summary_byte_for_byte(run_3d):
    assert GOLDEN_3D.exists(), "golden file missing; rebuild it with build_3d_run"
    assert run_3d[1].read_bytes() == GOLDEN_3D.read_bytes()
