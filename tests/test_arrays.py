import numpy as np
import pytest

from uqseg.arrays import (
    validate_binary,
    validate_labels,
    validate_probabilities,
    zscore_normalize,
)
from uqseg.errors import DegenerateInputError, ValidationError


def _zscore_oracle(values):
    """Direct arithmetic: subtract mean, divide by population std."""
    v = np.asarray(values, dtype=np.float64)
    mean = sum(v.ravel()) / v.size
    var = sum((x - mean) ** 2 for x in v.ravel()) / v.size
    return (v - mean) / var**0.5


class TestZscore:
    def test_small_volume_matches_arithmetic_oracle(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        expected = _zscore_oracle(v)
        np.testing.assert_allclose(zscore_normalize(v), expected, atol=1e-12)
        # population-std convention: values are +/-1.3416..., +/-0.4472...
        np.testing.assert_allclose(
            expected,
            [-1.3416407864998738, -0.4472135954999579, 0.4472135954999579, 1.3416407864998738],
        )

    def test_output_is_zero_mean_unit_std(self):
        rng = np.random.default_rng(11)
        v = rng.normal(40.0, 9.0, size=(6, 12, 10))
        out = zscore_normalize(v)
        assert abs(out.mean()) < 1e-6
        assert abs(out.std() - 1.0) < 1e-6

    def test_idempotent_on_normalized_input(self):
        rng = np.random.default_rng(3)
        v = zscore_normalize(rng.normal(size=(5, 8, 8)))
        np.testing.assert_allclose(zscore_normalize(v), v, atol=1e-6)

    def test_constant_volume_rejected(self):
        with pytest.raises(DegenerateInputError, match="zero standard deviation"):
            zscore_normalize(np.full((3, 3), 5.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            zscore_normalize(np.array([1.0, np.nan, 2.0]))


class TestValidators:
    def test_simplex_within_tolerance_accepted(self):
        p = np.full((4, 2, 2), 0.25)
        p[0, 0, 0] += 9e-6  # below the 1e-5 gate
        validate_probabilities(p)

    def test_simplex_violation_rejected(self):
        p = np.full((4, 2, 2), 0.25)
        p[0, 0, 0] += 5e-5
        with pytest.raises(ValidationError, match="sum to 1"):
            validate_probabilities(p)

    def test_out_of_range_probability_rejected(self):
        p = np.zeros((2, 2, 2))
        p[0] = 1.2
        p[1] = -0.2
        with pytest.raises(ValidationError):
            validate_probabilities(p)

    def test_random_softmax_accepted(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(3, 6, 6))
        p = np.exp(logits) / np.exp(logits).sum(axis=0)
        validate_probabilities(p)

    def test_labels_range(self):
        validate_labels(np.array([[0, 1], [2, 3]]), class_count=4)
        with pytest.raises(ValidationError):
            validate_labels(np.array([[0, 4]]), class_count=4)
        with pytest.raises(ValidationError):
            validate_labels(np.array([[0.5]]), class_count=4)

    def test_binary_values(self):
        validate_binary(np.array([[0, 1], [1, 0]]))
        with pytest.raises(ValidationError):
            validate_binary(np.array([[0, 2]]))

