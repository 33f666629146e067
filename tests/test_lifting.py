import numpy as np
import pytest

from entrybounds import (
    BoundStatus,
    LinearSystem,
    functional_bound,
    lift_matrix,
    lift_system,
    lift_vector,
    unlift_solution,
)
from entrybounds.errors import DimensionMismatch


class TestLiftSystem:
    def test_imaginary_unit(self):
        lifted, b_real = lift_system(np.array([[1j]]), np.array([1.0 + 0j]))
        np.testing.assert_allclose(lifted.a_real, [[0.0, -1.0], [1.0, 0.0]])
        np.testing.assert_allclose(b_real, [1.0, 0.0])

    def test_real_matrix_block_diagonal(self):
        lifted, _ = lift_system(np.eye(2, dtype=complex), np.zeros(2, dtype=complex))
        expected = np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]])
        np.testing.assert_allclose(lifted.a_real, expected)

    def test_residual_norm_preserved(self, rng):
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lifted, b_real = lift_system(a, b)
        for _ in range(100):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            complex_res = np.linalg.norm(a @ x - b)
            real_res = np.linalg.norm(lifted.a_real @ lift_vector(x) - b_real)
            assert real_res == pytest.approx(complex_res, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lift_system(np.eye(2, dtype=complex), np.zeros(3, dtype=complex))


class TestUnlift:
    def test_blocked_layout(self):
        lifted, _ = lift_system(np.eye(2, dtype=complex), np.zeros(2, dtype=complex))
        out = unlift_solution(lifted, [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(out, [1 + 3j, 2 + 4j])

    def test_zero(self):
        lifted, _ = lift_system(np.eye(3, dtype=complex), np.zeros(3, dtype=complex))
        np.testing.assert_array_equal(unlift_solution(lifted, np.zeros(6)), np.zeros(3))

    def test_round_trip(self, rng):
        a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        lifted, _ = lift_system(a, np.zeros(4, dtype=complex))
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        np.testing.assert_array_equal(unlift_solution(lifted, lift_vector(x)), x)

    def test_length_check(self):
        lifted, _ = lift_system(np.eye(2, dtype=complex), np.zeros(2, dtype=complex))
        with pytest.raises(DimensionMismatch):
            unlift_solution(lifted, np.zeros(3))


class TestSpectralStructure:
    def test_singular_values_pair_up(self, rng):
        a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        s_complex = np.linalg.svd(a, compute_uv=False)
        s_real = np.linalg.svd(lift_matrix(a), compute_uv=False)
        expected = np.sort(np.repeat(s_complex, 2))[::-1]
        np.testing.assert_allclose(s_real, expected, atol=1e-10)

    def test_bound_through_index_map(self, rng):
        a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = a @ x + 0.05 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        lifted, b_real = lift_system(a, b)
        sys = LinearSystem(a=lifted.a_real, b=b_real, epsilon=0.5)
        i = 1
        w = np.zeros(2 * lifted.n_complex)
        w[i] = 1.0
        via_weight = functional_bound(sys, w)
        from entrybounds import entrywise_bounds

        via_batch = entrywise_bounds(sys)[i]
        assert via_weight.status is BoundStatus.FINITE
        assert via_batch.lower == pytest.approx(via_weight.lower, rel=1e-10)
        assert via_batch.upper == pytest.approx(via_weight.upper, rel=1e-10)
