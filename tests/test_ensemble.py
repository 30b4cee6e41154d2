import numpy as np
import pytest

from uqseg.ensemble import argmax_labels, class_foreground, ensemble_mean
from uqseg.errors import ValidationError


def random_posterior(rng, shape=(4, 6, 6)):
    logits = rng.normal(size=shape)
    e = np.exp(logits - logits.max(axis=0))
    return e / e.sum(axis=0)


def test_single_member_identity():
    rng = np.random.default_rng(0)
    p = random_posterior(rng)
    np.testing.assert_array_equal(ensemble_mean([p]), p)


def test_two_member_pixel_average():
    a = np.zeros((4, 1, 1))
    b = np.zeros((4, 1, 1))
    a[0] = 1.0
    b[1] = 1.0
    np.testing.assert_array_equal(
        ensemble_mean([a, b])[:, 0, 0], [0.5, 0.5, 0.0, 0.0]
    )


def test_mean_matches_per_pixel_loop_oracle():
    rng = np.random.default_rng(42)
    members = [random_posterior(rng, (3, 4, 5)) for _ in range(5)]
    fused = ensemble_mean(members)
    for k in range(3):
        for y in range(4):
            for x in range(5):
                expected = sum(m[k, y, x] for m in members) / 5
                assert abs(fused[k, y, x] - expected) < 1e-7


def test_permutation_invariance():
    rng = np.random.default_rng(7)
    members = [random_posterior(rng) for _ in range(4)]
    np.testing.assert_allclose(
        ensemble_mean(members), ensemble_mean(members[::-1]), atol=1e-15
    )


def test_mean_stays_on_simplex():
    rng = np.random.default_rng(3)
    members = [random_posterior(rng, (5, 8, 8)).astype(np.float32) for _ in range(6)]
    fused = ensemble_mean(members)
    np.testing.assert_allclose(fused.sum(axis=0), 1.0, atol=1e-6)


def test_duplicating_members_keeps_mean_and_argmax():
    rng = np.random.default_rng(11)
    members = [random_posterior(rng) for _ in range(3)]
    once = ensemble_mean(members)
    twice = ensemble_mean(members + members)
    np.testing.assert_allclose(once, twice, atol=1e-15)
    np.testing.assert_array_equal(argmax_labels(once), argmax_labels(twice))


def test_shape_mismatch_rejected():
    a = np.full((4, 2, 2), 0.25)
    b = np.full((4, 3, 3), 0.25)
    with pytest.raises(ValidationError):
        ensemble_mean([a, b])


def test_empty_member_list_rejected():
    with pytest.raises(ValidationError):
        ensemble_mean([])


class TestArgmax:
    def test_one_hot_pixels(self):
        p = np.zeros((4, 2, 2))
        p[3, 0, 0] = 1.0
        p[1, 0, 1] = 1.0
        p[0, 1, 0] = 1.0
        p[2, 1, 1] = 1.0
        np.testing.assert_array_equal(argmax_labels(p), [[3, 1], [0, 2]])

    def test_uniform_tie_goes_to_class_zero(self):
        p = np.full((4, 3, 3), 0.25)
        np.testing.assert_array_equal(argmax_labels(p), np.zeros((3, 3), dtype=np.uint8))

    def test_matches_per_pixel_scan(self):
        rng = np.random.default_rng(13)
        p = random_posterior(rng, (5, 6, 7))
        labels = argmax_labels(p)
        for y in range(6):
            for x in range(7):
                best = max(range(5), key=lambda k: (p[k, y, x], -k))
                assert labels[y, x] == best

    def test_dtype_is_uint8(self):
        assert argmax_labels(np.full((2, 2, 2), 0.5)).dtype == np.uint8


class TestClassForeground:
    def test_extracts_requested_plane(self):
        rng = np.random.default_rng(5)
        p = random_posterior(rng, (4, 5, 5))
        np.testing.assert_array_equal(class_foreground(p, 2), p[2])

    def test_planes_sum_to_one(self):
        rng = np.random.default_rng(6)
        p = random_posterior(rng, (4, 5, 5))
        total = sum(class_foreground(p, k) for k in range(4))
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_plane_of_mean_is_mean_of_planes(self):
        rng = np.random.default_rng(8)
        members = [random_posterior(rng) for _ in range(4)]
        fused = ensemble_mean(members)
        for k in range(4):
            expected = sum(class_foreground(m, k) for m in members) / 4
            np.testing.assert_allclose(class_foreground(fused, k), expected, atol=1e-12)

    def test_class_out_of_range(self):
        p = np.full((4, 2, 2), 0.25)
        with pytest.raises(ValidationError):
            class_foreground(p, 4)
