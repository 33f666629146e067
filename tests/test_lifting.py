"""``lifting.lift_system``, the real form of a complex system that the
SENSE reference builds, and the layout of conftest's ``lift_matrix`` and
``lift_vector``, the reference forms the kernel is checked against."""

import numpy as np
import pytest

from conftest import lift_matrix, lift_vector
from entrybounds import BoundStatus, LinearSystem, functional_bound
from entrybounds.errors import DimensionMismatch
from entrybounds.lifting import lift_system


class TestLiftSystem:
    def test_lift_system_rejects_a_vector(self):
        with pytest.raises(DimensionMismatch, match=r"^expected a 2-D array, got ndim=1$"):
            lift_system([1, 2], [1, 2])

    def test_lift_system_rejects_a_scalar(self):
        """The shape of A is checked before its row count is read."""
        with pytest.raises(DimensionMismatch, match=r"^expected a 2-D array, got ndim=0$"):
            lift_system(5, [1])

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
    """Complex unknown i sits in column i (real part) and N + i (imaginary
    part) of the lifted system, so x = x_real[:N] + 1j * x_real[N:]."""

    def test_blocked_layout(self):
        b = np.array([1 + 3j, 2 + 4j])
        lifted, b_real = lift_system(np.eye(2, dtype=complex), b)
        x_real = LinearSystem(a=lifted.a_real, b=b_real, epsilon=0.0).solution()
        np.testing.assert_allclose(x_real, [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(x_real[:2] + 1j * x_real[2:], b)

    def test_round_trip(self, rng):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x_real = lift_vector(x)
        np.testing.assert_array_equal(x_real[:3] + 1j * x_real[3:], x)


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
        w = np.zeros(lifted.a_real.shape[1])
        w[i] = 1.0
        via_weight = functional_bound(sys, w)
        from entrybounds import entrywise_bounds

        via_batch = entrywise_bounds(sys)[i]
        assert via_weight.status is BoundStatus.FINITE
        assert via_batch.lower == pytest.approx(via_weight.lower, rel=1e-10)
        assert via_batch.upper == pytest.approx(via_weight.upper, rel=1e-10)
