from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqseg import toy
from uqseg.arrayio import read_array
from uqseg.errors import ValidationError
from uqseg.metrics import dice
from uqseg.scheduler import SgdrConfig, lr_at
from uqseg.selection import SelectionPolicy, TraceRecord, TrainingTrace
from uqseg.toy import (
    FEATURE_COUNT,
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


# Reference trainer: the straightforward kernels, reducing over the class
# axis with numpy's max/sum(axis=1) on a float one-hot.
def ref_softmax(feats, W):
    logits = feats @ W.T
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    return exp / exp.sum(axis=1, keepdims=True)


def ref_dice_loss_grad(probs, onehot):
    s = toy.DICE_SMOOTHING
    num = 2.0 * (probs * onehot).sum(axis=0) + s
    den = probs.sum(axis=0) + onehot.sum(axis=0) + s
    loss = 1.0 - (num / den).mean()
    grad = -(2.0 * onehot * den - num) / (den**2) / probs.shape[1]
    return loss, grad


def ref_case_gradient(feats, onehot, W):
    probs = ref_softmax(feats, W)
    loss, gp = ref_dice_loss_grad(probs, onehot)
    gz = probs * (gp - (gp * probs).sum(axis=1, keepdims=True))
    return loss, gz.T @ feats


def ref_validation_dice(W, cases):
    per_case = []
    for case in cases:
        probs = ref_softmax(case.features, W).T.reshape(W.shape[0], *case.image.shape)
        pred = probs.argmax(axis=0).astype(np.uint8)
        per_case.append(
            float(np.mean([dice(pred, case.labels, k).dice for k in range(1, case.class_count)]))
        )
    return float(np.mean(per_case))


def ref_train(train_cases, val_cases, cfg, policy, seed):
    c = train_cases[0].class_count
    onehots = [np.eye(c)[case.labels.reshape(-1)] for case in train_cases]
    W = np.random.default_rng(seed).normal(0.0, 0.01, size=(c, FEATURE_COUNT))
    save_at = set(checkpoint_epochs(cfg, policy))
    records, checkpoints = [], {}
    for epoch in range(cfg.total_epochs):
        lr = lr_at(epoch, cfg)
        grad = np.zeros_like(W)
        for case, onehot in zip(train_cases, onehots):
            grad += ref_case_gradient(case.features, onehot, W)[1]
        W = W - lr * (grad / len(train_cases))
        cid = f"ep{epoch:05d}" if epoch in save_at else None
        if cid:
            checkpoints[cid] = W.copy()
        records.append(TraceRecord(epoch, lr, ref_validation_dice(W, val_cases), cid))
    return TrainingTrace(tuple(records)), checkpoints


ORACLE_CFG = SgdrConfig(t0=6, eta=2, lr_max=2.0, lr_min=1e-4, total_epochs=18)


def oracle_cases(class_count, shape=(40, 40)):
    return generate_dataset(5, class_count + 2, shape=shape, class_count=class_count)


class TestTrainerOracle:
    """The class-major kernels against the pixel-major reference trainer."""

    @pytest.mark.parametrize(
        "class_count, shape",
        [pytest.param(c, (40, 40), id=str(c)) for c in (2, 3, 4, 7)]
        + [pytest.param(3, (40, 56), id="3-40x56")],
    )
    def test_train_bit_identical(self, class_count, shape):
        cases = oracle_cases(class_count, shape)
        policy = SelectionPolicy()
        trace, ckpts = train(cases[:-2], cases[-2:], ORACLE_CFG, policy, seed=5)
        ref_trace, ref_ckpts = ref_train(cases[:-2], cases[-2:], ORACLE_CFG, policy, 5)
        assert trace == ref_trace
        assert ckpts.keys() == ref_ckpts.keys()
        for cid in ckpts:
            np.testing.assert_array_equal(ckpts[cid], ref_ckpts[cid])

    def test_eight_classes_agree_to_the_last_bits(self):
        # numpy sums 8 or more classes pairwise, the kernels left to right
        cases = oracle_cases(8)
        policy = SelectionPolicy()
        trace, ckpts = train(cases[:-2], cases[-2:], ORACLE_CFG, policy, seed=5)
        ref_trace, ref_ckpts = ref_train(cases[:-2], cases[-2:], ORACLE_CFG, policy, 5)
        assert [r.epoch for r in trace.records] == [r.epoch for r in ref_trace.records]
        for r, ref in zip(trace.records, ref_trace.records):
            assert r.val_metric == pytest.approx(ref.val_metric, abs=1e-15)
        assert ckpts.keys() == ref_ckpts.keys()
        for cid in ckpts:
            np.testing.assert_allclose(ckpts[cid], ref_ckpts[cid], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("class_count", [2, 3, 4, 7])
    def test_posterior_bit_identical(self, class_count):
        case = oracle_cases(class_count)[0]
        rng = np.random.default_rng(class_count)
        for scale in (0.01, 1.0, 30.0):
            W = rng.normal(0.0, scale, size=(class_count, FEATURE_COUNT))
            expected = ref_softmax(case.features, W).T.reshape(class_count, 40, 40)
            np.testing.assert_array_equal(posterior(W, case.features, (40, 40)), expected)

    def test_posterior_eight_classes_close(self):
        case = oracle_cases(8)[0]
        W = np.random.default_rng(8).normal(size=(8, FEATURE_COUNT))
        expected = ref_softmax(case.features, W).T.reshape(8, 40, 40)
        np.testing.assert_allclose(posterior(W, case.features, (40, 40)), expected, rtol=0, atol=1e-15)

    def test_class_argmax_takes_the_first_maximum(self):
        rng = np.random.default_rng(0)
        cols = rng.integers(0, 3, size=(4, 2000)).astype(np.float64)
        cols[rng.random(cols.shape) < 0.2] = np.nan  # a NaN is the maximum
        np.testing.assert_array_equal(toy._class_argmax(cols), cols.argmax(axis=0))

    @settings(max_examples=100, deadline=None)
    @given(
        pixels=st.integers(1, 5000),
        classes=st.integers(2, 9),
        zero_fraction=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pixel_sum_matches_pixel_major_sum(self, pixels, classes, zero_fraction, seed):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(classes, pixels)) * 10.0 ** rng.uniform(-8, 8, size=(classes, pixels))
        rows[rng.random(rows.shape) < zero_fraction] = 0.0
        expected = np.ascontiguousarray(rows.T).sum(axis=0)
        assert toy._pixel_sum(rows).tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        pixels=st.integers(2, 5000),
        classes=st.integers(2, 17),
        special=st.sampled_from(["none", "zeros", "ties", "nan"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_axis0_class_reductions_take_the_rows_in_class_order(
        self, pixels, classes, special, seed
    ):
        """The softmax and its gradient rely on sum and max over axis 0 of
        C-contiguous (c, P) rows adding and comparing the rows first to last."""
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(classes, pixels)) * 10.0 ** rng.uniform(-8, 8, size=(classes, pixels))
        hit = rng.random(rows.shape) < 0.3
        if special == "zeros":
            rows[hit] = 0.0
        elif special == "ties":
            rows = np.round(rows, 0) % 3.0  # few values, so many equal entries
        elif special == "nan":
            rows[hit] = np.nan
        peak = rows[0].copy()
        for row in rows[1:]:
            np.maximum(peak, row, out=peak)
        assert rows.sum(axis=0).tobytes() == sum(rows[1:], rows[0]).tobytes()
        assert rows.max(axis=0).tobytes() == peak.tobytes()

    def test_dice_gradient_matches_central_differences(self):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(30, FEATURE_COUNT))
        labels = rng.integers(0, 3, size=30)
        mask = labels == np.arange(3)[:, None]
        counts = mask.sum(axis=1).astype(np.float64)
        W = rng.normal(size=(3, FEATURE_COUNT))
        _, grad = toy._case_gradient(feats, mask, counts, W)
        h = 1e-6
        numeric = np.zeros_like(W)
        for idx in np.ndindex(*W.shape):
            step = np.zeros_like(W)
            step[idx] = h
            up = toy._case_gradient(feats, mask, counts, W + step)[0]
            down = toy._case_gradient(feats, mask, counts, W - step)[0]
            numeric[idx] = (up - down) / (2 * h)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)


class TestTrainInputs:
    """train() rejects inconsistent cases by name, before any epoch."""

    def test_validation_case_with_other_class_count(self):
        cases = small_dataset()
        val = [replace(cases[6], class_count=4), cases[7]]
        with pytest.raises(ValidationError, match="case0006.*class_count 4"):
            train(cases[:6], val, SMALL_CFG)

    def test_label_out_of_range(self):
        cases = small_dataset()
        labels = cases[2].labels.copy()
        labels[0, 0] = 3
        bad = replace(cases[2], labels=labels)
        with pytest.raises(ValidationError, match=r"case0002.*\[0, 3\)"):
            train([*cases[:2], bad, *cases[3:6]], cases[6:], SMALL_CFG)

    def test_float_labels_rejected(self):
        cases = small_dataset()
        bad = replace(cases[3], labels=cases[3].labels.astype(np.float32))
        with pytest.raises(ValidationError, match="case0003: labels must be integer-typed, got float32"):
            train([*cases[:3], bad, *cases[4:6]], cases[6:], SMALL_CFG)

    def test_labels_shape_must_match_image(self):
        cases = small_dataset()
        bad = replace(cases[7], labels=cases[7].labels[:-1])
        with pytest.raises(ValidationError, match="case0007.*shape"):
            train(cases[:6], [cases[6], bad], SMALL_CFG)

    def test_mixed_image_shapes_train(self):
        cases = small_dataset()
        other = generate_dataset(4, 3, shape=(32, 40), class_count=3)
        trace, _ = train([*cases[:4], *other[:2]], [cases[6], other[2]], SMALL_CFG, seed=3)
        assert len(trace.records) == SMALL_CFG.total_epochs


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

