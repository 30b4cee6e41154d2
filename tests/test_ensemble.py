import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqseg.arrayio import write_array
from uqseg.arrays import SIMPLEX_TOLERANCE, validate_probabilities
from uqseg.cli import main
from uqseg.ensemble import argmax_labels, ensemble_mean
from uqseg.errors import ValidationError
from uqseg.uncertainty import pixel_entropy, uncertainty_score


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


@st.composite
def _float32_members(draw):
    """1-7 float32 softmax members of one (c,H,W) or (c,D,H,W) shape.

    A large logit scale makes some classes underflow to exactly 0.
    """
    c = draw(st.integers(2, 5))
    spatial = draw(st.lists(st.integers(1, 9), min_size=2, max_size=3))
    n = draw(st.integers(1, 7))
    scale = draw(st.sampled_from([0.5, 3.0, 200.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for _ in range(n):
        logits = scale * rng.normal(size=(c, *spatial))
        e = np.exp(logits - logits.max(axis=0))
        members.append((e / e.sum(axis=0)).astype(np.float32))
    return members


@settings(max_examples=150, deadline=None)
@given(members=_float32_members())
def test_running_sum_equals_stacked_float64_mean_bit_for_bit(members):
    stacked = np.stack([m.astype(np.float64) for m in members]).mean(axis=0)
    fused = ensemble_mean(members)
    assert fused.dtype == np.float64
    assert fused.tobytes() == stacked.tobytes()


@settings(max_examples=100, deadline=None)
@given(members=_float32_members())
def test_mean_of_validated_members_is_a_valid_posterior(members):
    fused = ensemble_mean(members)  # validates every member
    validate_probabilities(fused)
    h = pixel_entropy(fused)
    assert h.shape == fused.shape[1:]
    assert h.min() >= 0.0
    # a class vector summing to 1 + d has entropy at most
    # (1 + d) log2 c - (1 + d) log2(1 + d) < log2 c + |d| (log2 c + 2)
    c = fused.shape[0]
    assert h.max() <= np.log2(c) + SIMPLEX_TOLERANCE * (np.log2(c) + 2)


def test_invalid_member_is_named():
    good = np.full((2, 3, 3), 0.5, dtype=np.float32)
    bad = np.full((2, 3, 3), 0.35, dtype=np.float32)  # sums to 0.7
    with pytest.raises(ValidationError, match="^member 1: per-pixel class"):
        ensemble_mean([good, bad])
    with pytest.raises(ValidationError, match="^b.uqsg: per-pixel class"):
        ensemble_mean([good, bad], ["a.uqsg", "b.uqsg"])


def test_members_are_not_modified():
    rng = np.random.default_rng(21)
    members = [random_posterior(rng) for _ in range(3)]
    copies = [m.copy() for m in members]
    ensemble_mean(members)
    for m, c in zip(members, copies):
        np.testing.assert_array_equal(m, c)


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

    def test_more_than_256_classes_keep_their_label(self):
        p = np.full((300, 1, 2), 0.5 / 299)
        p[0, 0, 0] = p[299, 0, 1] = 0.5
        np.testing.assert_array_equal(argmax_labels(p), [[0, 299]])

    @settings(max_examples=150, deadline=None)
    @given(
        c=st.integers(2, 8),
        spatial=st.lists(st.integers(1, 9), min_size=2, max_size=3),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_class_chain_equals_argmax_with_ties(self, c, spatial, dtype, seed):
        # small integer weights over their sum: exact ties are common
        rng = np.random.default_rng(seed)
        w = rng.integers(0, 4, size=(c, *spatial)).astype(np.float64)
        w[0][w.sum(axis=0) == 0] = 1.0
        p = (w / w.sum(axis=0)).astype(dtype)
        expected = p.argmax(axis=0).astype(np.uint8)
        assert argmax_labels(p).tobytes() == expected.tobytes()


class TestClassForeground:
    """Class planes are plain ``p[k]`` indexing; ``uncertainty_score`` checks the class."""

    def test_planes_sum_to_one(self):
        rng = np.random.default_rng(6)
        p = random_posterior(rng, (4, 5, 5))
        total = sum(p[k] for k in range(4))
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_plane_of_mean_is_mean_of_planes(self):
        rng = np.random.default_rng(8)
        members = [random_posterior(rng) for _ in range(4)]
        fused = ensemble_mean(members)
        for k in range(4):
            expected = sum(m[k] for m in members) / 4
            np.testing.assert_allclose(fused[k], expected, atol=1e-12)

    def test_class_out_of_range(self):
        p = np.full((4, 2, 2), 0.25)
        for class_id in (4, -1):
            with pytest.raises(ValidationError, match=f"class {class_id} out of range"):
                uncertainty_score(p, class_id)

    def test_score_cli_rejects_a_class_beyond_the_mean(self, tmp_path, capsys):
        path = tmp_path / "mean.uqsg"
        write_array(path, np.full((3, 4, 4), 1 / 3, dtype=np.float32))
        assert main(["score", "--in", str(path), "--classes", "9"]) == 2
        assert "class 9 out of range for 3 classes" in capsys.readouterr().err


class TestNames:
    """``names`` label the members one to one; a count mismatch is an error."""

    def test_fewer_names_than_members_rejected(self):
        p = np.full((2, 3, 3), 0.5)
        with pytest.raises(ValidationError, match="more members than the 1 names"):
            ensemble_mean([p, p, p], ["x"])

    def test_unnamed_member_is_not_skipped(self):
        p = np.full((2, 3, 3), 0.5)
        bad = np.full((2, 3, 3), 7.0)
        with pytest.raises(ValidationError):
            ensemble_mean([p, bad], ["a"])

    def test_more_names_than_members_rejected(self):
        p = np.full((2, 3, 3), 0.5)
        with pytest.raises(ValidationError, match="1 members for 2 names"):
            ensemble_mean([p], ["a", "b"])
        with pytest.raises(ValidationError, match="at least one member"):
            ensemble_mean([], ["a"])


@settings(max_examples=100, deadline=None)
@given(members=_float32_members())
def test_generator_of_members_equals_the_list_bit_for_bit(members):
    names = [f"m{i}.uqsg" for i in range(len(members))]
    from_list = ensemble_mean(members, names)
    from_generator = ensemble_mean((m.copy() for m in members), names)
    assert from_generator.tobytes() == from_list.tobytes()


def test_each_member_is_dropped_before_the_next_is_drawn():
    rng = np.random.default_rng(9)
    alive = []

    def members():
        for _ in range(4):
            assert all(ref() is None for ref in alive)
            m = random_posterior(rng).astype(np.float32)
            alive.append(weakref.ref(m))
            yield m
            del m

    ensemble_mean(members())
    assert len(alive) == 4
