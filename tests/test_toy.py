import numpy as np
import pytest

from uqseg.arrayio import read_array
from uqseg.errors import ValidationError
from uqseg.scheduler import SgdrConfig, lr_at
from uqseg.selection import SelectionPolicy
from uqseg.toy import (
    boundary_band,
    case_features,
    checkpoint_epochs,
    generate_dataset,
    inject_label_noise,
    posterior,
    run_toy_training,
    train,
)

SMALL_CFG = SgdrConfig(t0=15, eta=2, lr_max=0.2, lr_min=1e-4, total_epochs=30)


def small_dataset(seed=3, n=8):
    return generate_dataset(seed, n, shape=(48, 48), class_count=3, noise_std=0.1)


class TestGenerateDataset:
    def test_deterministic_regeneration(self):
        a = generate_dataset(7, 5, shape=(32, 32))
        b = generate_dataset(7, 5, shape=(32, 32))
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.image, cb.image)
            np.testing.assert_array_equal(ca.labels, cb.labels)
            assert ca.case_id == cb.case_id

    def test_different_seeds_differ(self):
        a = generate_dataset(7, 3, shape=(32, 32))
        b = generate_dataset(8, 3, shape=(32, 32))
        assert any(not np.array_equal(x.image, y.image) for x, y in zip(a, b))

    def test_every_class_appears(self):
        for class_count in (2, 3, 4):
            cases = generate_dataset(11, 10, shape=(48, 48), class_count=class_count)
            present = set()
            for c in cases:
                present.update(int(v) for v in np.unique(c.labels))
            assert present == set(range(class_count))

    def test_zero_noise_constant_away_from_rims(self):
        # blob rims are feathered over ~1 px; off the rim the image is flat
        cases = generate_dataset(5, 2, shape=(32, 32), noise_std=0.0)
        for case in cases:
            rim = boundary_band(case.labels) == 1
            flat = case.image[~rim]
            labs = case.labels[~rim]
            for k in np.unique(labs):
                values = np.unique(flat[labs == k])
                assert len(values) == 1

    def test_shape_too_small(self):
        with pytest.raises(ValidationError):
            generate_dataset(1, 4, shape=(6, 6))

    def test_too_few_cases_for_classes(self):
        with pytest.raises(ValidationError):
            generate_dataset(1, 1, shape=(48, 48), class_count=4)

    def test_graded_noise_increases(self):
        cases = generate_dataset(2, 6, shape=(32, 32), noise_std=0.2)
        levels = [c.noise_std for c in cases]
        assert levels == sorted(levels)
        assert levels[0] == pytest.approx(0.1)
        assert levels[-1] == pytest.approx(0.3)


def predict(weights, case):
    return posterior(weights, case.features, case.image.shape)


class TestPredict:
    def test_deterministic(self):
        cases = small_dataset()
        rng = np.random.default_rng(0)
        w = rng.normal(size=(3, 6))
        np.testing.assert_array_equal(predict(w, cases[0]), predict(w, cases[0]))

    def test_outputs_valid_simplex(self):
        cases = small_dataset()
        rng = np.random.default_rng(1)
        w = rng.normal(size=(3, 6))
        p = predict(w, cases[0])
        assert p.shape == (3, 48, 48)
        np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-12)
        assert p.min() >= 0.0

    def test_zero_weights_give_uniform_posterior(self):
        cases = small_dataset()
        p = predict(np.zeros((3, 6)), cases[0])
        np.testing.assert_allclose(p, 1.0 / 3.0, atol=1e-15)

    def test_bad_weight_shape(self):
        with pytest.raises(ValidationError):
            predict(np.zeros((3, 4)), small_dataset()[0])


class TestTrain:
    def test_bit_reproducible(self):
        cases = small_dataset()
        t1, c1 = train(cases[:6], cases[6:], SMALL_CFG, seed=3)
        t2, c2 = train(cases[:6], cases[6:], SMALL_CFG, seed=3)
        assert t1 == t2
        assert c1.keys() == c2.keys()
        for cid in c1:
            np.testing.assert_array_equal(c1[cid], c2[cid])

    def test_trace_lr_matches_schedule(self):
        cases = small_dataset()
        trace, _ = train(cases[:6], cases[6:], SMALL_CFG, seed=3)
        for r in trace.records:
            assert r.lr == lr_at(r.epoch, SMALL_CFG)

    def test_zero_rate_leaves_weights_unchanged(self):
        cases = small_dataset()
        cfg = SgdrConfig(t0=4, eta=1, lr_max=0.0, lr_min=0.0, total_epochs=8)
        policy = SelectionPolicy(window_fraction=1.0)
        _, ckpts = train(cases[:6], cases[6:], cfg, policy, seed=3)
        weights = list(ckpts.values())
        for w in weights[1:]:
            np.testing.assert_array_equal(w, weights[0])

    def test_metric_improves_across_each_cycle(self):
        cases = small_dataset()
        trace, _ = train(cases[:6], cases[6:], SMALL_CFG, seed=3)
        ms = [r.val_metric for r in trace.records]
        assert ms[14] > ms[0]  # cycle 0 end vs its start
        assert ms[29] > ms[15]  # cycle 1 end vs the restart epoch

    def test_checkpoints_cover_selection_windows(self):
        cases = small_dataset()
        policy = SelectionPolicy()
        trace, ckpts = train(cases[:6], cases[6:], SMALL_CFG, policy, seed=3)
        expected = {f"ep{e:05d}" for e in checkpoint_epochs(SMALL_CFG, policy)}
        assert set(ckpts) == expected
        for r in trace.records:
            assert (r.checkpoint_id is not None) == (r.checkpoint_id in expected)

    def test_requires_both_splits(self):
        cases = small_dataset()
        with pytest.raises(ValidationError):
            train([], cases[6:], SMALL_CFG)
        with pytest.raises(ValidationError):
            train(cases[:6], [], SMALL_CFG)


class TestFeatures:
    def test_feature_matrix_shape(self):
        cases = small_dataset()
        feats = case_features(cases[0].image)
        assert feats.shape == (48 * 48, 6)
        np.testing.assert_array_equal(feats[:, 0], 1.0)

    def test_coordinates_normalized(self):
        feats = case_features(small_dataset()[0].image).reshape(48, 48, 6)
        assert feats[0, 0, 4] == 0.0 and feats[47, 0, 4] == 1.0
        assert feats[0, 0, 5] == 0.0 and feats[0, 47, 5] == 1.0


class TestBoundaryBand:
    def test_band_surrounds_square(self):
        labels = np.zeros((8, 8), dtype=np.uint8)
        labels[3:6, 3:6] = 1
        band = boundary_band(labels)
        assert band[3, 3] == 1 and band[4, 4] == 0  # corner in, center out
        assert band[2, 2] == 1 and band[1, 1] == 0  # outside ring is 1 px deep
        assert band[2, 3] == 1 and band[6, 4] == 1

    def test_uniform_labels_have_no_band(self):
        np.testing.assert_array_equal(boundary_band(np.ones((5, 5), dtype=np.uint8)), 0)


class TestInjectLabelNoise:
    def test_flips_only_band_pixels(self):
        case = small_dataset()[0]
        rng = np.random.default_rng(0)
        noisy = inject_label_noise(case.labels, 3, rng, flip_fraction=0.5)
        changed = noisy != case.labels
        band = boundary_band(case.labels) == 1
        assert changed.sum() > 0
        assert np.all(band[changed])
        assert np.all(noisy < 3)

    def test_zero_fraction_is_identity(self):
        case = small_dataset()[0]
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(
            inject_label_noise(case.labels, 3, rng, 0.0), case.labels
        )

    def test_bad_fraction(self):
        with pytest.raises(ValidationError):
            inject_label_noise(np.zeros((4, 4), dtype=np.uint8), 3, np.random.default_rng(0), 2.0)


def test_run_toy_training_layout(tmp_path):
    cfg = SgdrConfig(t0=5, eta=2, lr_max=0.2, lr_min=1e-4, total_epochs=10)
    trace, ckpts, cases = run_toy_training(
        tmp_path,
        seed=3,
        n_train=4,
        n_test=2,
        shape=(24, 24),
        class_count=3,
        cfg=cfg,
        noise_std=0.1,
    )
    assert (tmp_path / "trace.csv").exists()
    assert len(list((tmp_path / "cases").glob("*_image.uqsg"))) == 6
    assert len(list((tmp_path / "cases").glob("*_labels.uqsg"))) == 6
    assert len(list((tmp_path / "checkpoints").glob("*.uqsg"))) == len(ckpts)
    pred_dirs = sorted(d.name for d in (tmp_path / "predictions").iterdir())
    assert pred_dirs == ["case0004", "case0005"]
    for d in pred_dirs:
        files = list((tmp_path / "predictions" / d).glob("*.uqsg"))
        assert len(files) == len(ckpts)
    # weights and the features-based posteriors are stored as float32
    for cid, w in ckpts.items():
        weights = read_array(tmp_path / "checkpoints" / f"{cid}.uqsg")
        np.testing.assert_array_equal(weights, w.astype(np.float32))
        stored = read_array(tmp_path / "predictions" / "case0005" / f"{cid}.uqsg")
        np.testing.assert_array_equal(stored, predict(w, cases[5]).astype(np.float32))

