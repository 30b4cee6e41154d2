from types import SimpleNamespace

import pytest

from uqseg.pipeline import PipelineConfig, run_pipeline
from uqseg.scheduler import SgdrConfig
from uqseg.toy import run_toy_training

# canonical end-to-end configuration: seed 7, two cycles, held-out test split
SEED7_SCHEDULE = SgdrConfig(t0=100, eta=2, lr_max=2.0, lr_min=1e-4, total_epochs=200)
SEED7_DATA = dict(seed=7, n_train=16, n_test=4, shape=(64, 64), class_count=3, noise_std=0.1)


def toy_pipeline_config(root) -> PipelineConfig:
    return PipelineConfig(
        trace=str(root / "trace.csv"),
        predictions_dir=str(root / "predictions"),
        cases_dir=str(root / "cases"),
        outdir=str(root / "analysis"),
        t0=SEED7_SCHEDULE.t0,
        eta=SEED7_SCHEDULE.eta,
        lr_max=SEED7_SCHEDULE.lr_max,
        lr_min=SEED7_SCHEDULE.lr_min,
        total_epochs=SEED7_SCHEDULE.total_epochs,
    )


def run_seed7(root):
    trace, checkpoints, cases = run_toy_training(root, cfg=SEED7_SCHEDULE, **SEED7_DATA)
    config = toy_pipeline_config(root)
    summary = run_pipeline(config)
    return SimpleNamespace(
        root=root,
        trace=trace,
        checkpoints=checkpoints,
        cases=cases,
        config=config,
        summary=summary,
    )


@pytest.fixture(scope="session")
def seed7_run(tmp_path_factory):
    """One full training + analysis run shared by pipeline and acceptance tests."""
    return run_seed7(tmp_path_factory.mktemp("seed7"))
