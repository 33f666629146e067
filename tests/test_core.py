import numpy as np
import pytest

from entrybounds import core
from entrybounds.errors import DimensionMismatch, NumericalFailure


def orthonormality_defect(q):
    if q.shape[1] == 0:
        return 0.0
    return np.linalg.norm(q.T @ q - np.eye(q.shape[1]))


class TestSvdTruncated:
    def test_identity(self):
        f = core.svd_truncated(np.eye(3))
        assert f.rank == 3
        np.testing.assert_allclose(f.sigma, [1, 1, 1])
        assert f.v_perp.shape == (3, 0)

    def test_rank_one_diagonal(self):
        f = core.svd_truncated([[1.0, 0.0], [0.0, 0.0]])
        assert f.rank == 1
        np.testing.assert_allclose(f.sigma, [1.0])
        # nullspace is spanned by e2
        np.testing.assert_allclose(np.abs(f.v_perp[:, 0]), [0.0, 1.0], atol=1e-12)

    def test_constructed_truncation(self, rng):
        u0, _ = np.linalg.qr(rng.standard_normal((5, 3)))
        v0, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a = u0 @ np.diag([3.0, 2.0, 1e-14]) @ v0.T
        f = core.svd_truncated(a, rtol=1e-10)
        assert f.rank == 2

    def test_zero_matrix(self):
        f = core.svd_truncated(np.zeros((3, 4)))
        assert f.rank == 0
        assert f.v_perp.shape == (4, 4)
        assert orthonormality_defect(f.v_perp) < 1e-10

    def test_factor_invariants(self, rng):
        for m, n in [(5, 3), (3, 5), (4, 4)]:
            a = rng.standard_normal((m, n))
            f = core.svd_truncated(a)
            assert orthonormality_defect(f.u) < 1e-10
            assert orthonormality_defect(f.v) < 1e-10
            assert orthonormality_defect(f.v_perp) < 1e-10
            if f.v_perp.shape[1]:
                assert np.linalg.norm(f.v.T @ f.v_perp) < 1e-10
            assert np.all(np.diff(f.sigma) <= 1e-12)
            recon = f.u @ np.diag(f.sigma) @ f.v.T
            assert np.linalg.norm(recon - a) <= 1e-8 * np.linalg.norm(a)

    def test_rejects_nonfinite(self):
        with pytest.raises(NumericalFailure):
            core.svd_truncated([[np.nan, 1.0], [0.0, 1.0]])

    def test_rejects_bad_rtol(self):
        with pytest.raises(ValueError):
            core.svd_truncated(np.eye(2), rtol=1.5)


class TestRankZero:
    """At rank 0 the factors are empty, and the general formulas give the
    exact results: +0.0 vectors of the data's dtype, a zero norm, ||b||."""

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("m, n", [(5, 3), (3, 5)], ids=["tall", "wide"])
    def test_exact_results(self, rng, m, n, dtype):
        f = core.svd_truncated(np.zeros((m, n), dtype=dtype))
        assert f.rank == 0 and f.sigma.shape == (0,) and f.v_perp.shape == (n, n)
        b = rng.standard_normal(m).astype(dtype)
        w = rng.standard_normal(n).astype(dtype)
        for out, size in ((core.pinv_apply(f, b), n), (core.pinv_transpose_apply(f, w), m)):
            assert out.dtype == dtype
            np.testing.assert_array_equal(out, np.zeros(size))
            assert not np.signbit(out.real).any()
        assert core.pinv_transpose_norm(f, w) == 0.0
        assert core.residual_projection_norm(f, b) == np.linalg.norm(b)


class TestPinvApply:
    def test_identity(self):
        f = core.svd_truncated(np.eye(2))
        np.testing.assert_allclose(core.pinv_apply(f, [3.0, -1.0]), [3.0, -1.0])

    def test_diagonal(self):
        f = core.svd_truncated(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(core.pinv_apply(f, [2.0, 1.0]), [1.0, 1.0])

    def test_normal_equations_oracle(self, rng):
        a = rng.standard_normal((4, 3))
        m = rng.standard_normal(4)
        f = core.svd_truncated(a)
        expected = np.linalg.solve(a.T @ a, a.T @ m)
        np.testing.assert_allclose(core.pinv_apply(f, m), expected, atol=1e-10)

    def test_dimension_mismatch(self):
        f = core.svd_truncated(np.eye(2))
        with pytest.raises(DimensionMismatch):
            core.pinv_apply(f, [1.0, 2.0, 3.0])

    def test_zero_matrix_gives_zero(self):
        f = core.svd_truncated(np.zeros((2, 3)))
        np.testing.assert_array_equal(core.pinv_apply(f, [1.0, 2.0]), np.zeros(3))


class TestPinvTransposeApply:
    def test_identity(self):
        f = core.svd_truncated(np.eye(2))
        out = core.pinv_transpose_apply(f, [1.0, 0.0])
        np.testing.assert_allclose(out, [1.0, 0.0])
        assert core.pinv_transpose_norm(f, [1.0, 0.0]) == pytest.approx(1.0)

    def test_diagonal(self):
        f = core.svd_truncated(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(core.pinv_transpose_apply(f, [1.0, 0.0]), [0.5, 0.0])
        assert core.pinv_transpose_norm(f, [1.0, 0.0]) == pytest.approx(0.5)

    def test_row_norm_oracle(self, rng):
        a = rng.standard_normal((6, 4))
        f = core.svd_truncated(a)
        pinv = np.linalg.pinv(a)
        w = np.zeros(4)
        w[1] = 1.0
        assert core.pinv_transpose_norm(f, w) == pytest.approx(
            np.linalg.norm(pinv[1]), rel=1e-10
        )
        np.testing.assert_allclose(core.pinv_transpose_apply(f, w), pinv[1], atol=1e-10)


class TestResidualProjection:
    def test_full_row_rank(self, rng):
        f = core.svd_truncated(np.eye(2))
        assert core.residual_projection_norm(f, rng.standard_normal(2)) < 1e-12

    def test_orthogonal_data(self):
        f = core.svd_truncated(np.array([[1.0], [0.0]]))
        assert core.residual_projection_norm(f, [0.0, 3.0]) == pytest.approx(3.0)

    def test_dense_oracle(self, rng):
        a = rng.standard_normal((5, 2))
        b = rng.standard_normal(5)
        f = core.svd_truncated(a)
        expected = np.linalg.norm(b - a @ np.linalg.pinv(a) @ b)
        assert core.residual_projection_norm(f, b) == pytest.approx(expected, rel=1e-10)


class TestNullspaceComponent:
    def test_trivial_nullspace(self):
        f = core.svd_truncated(np.eye(3))
        _, norm = core.nullspace_component(f, [0.0, 1.0, 0.0])
        assert norm == 0.0

    def test_spanning_vector(self):
        f = core.svd_truncated(np.array([[1.0, 0.0]]))
        _, norm = core.nullspace_component(f, [0.0, 1.0])
        assert norm == pytest.approx(1.0)

    def test_projector_oracle(self, rng):
        a = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
        w = rng.standard_normal(4)
        f = core.svd_truncated(a)
        _, norm = core.nullspace_component(f, w)
        expected = np.linalg.norm(w - f.v @ (f.v.T @ w))
        assert norm == pytest.approx(expected, rel=1e-10)

    def test_basis_freedom(self, rng):
        a = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
        w = rng.standard_normal(4)
        f = core.svd_truncated(a)
        _, norm = core.nullspace_component(f, w)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        rotated = core.SvdFactors(u=f.u, sigma=f.sigma, v=f.v, v_perp=f.v_perp @ q)
        _, norm2 = core.nullspace_component(rotated, w)
        assert norm2 == pytest.approx(norm, abs=1e-10)


class TestInvariants:
    def test_pinv_inverts_on_row_space(self, rng):
        a = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 4))
        f = core.svd_truncated(a)
        p = rng.standard_normal(f.rank)
        x = f.v @ p
        recovered = core.pinv_apply(f, a @ x)
        assert np.linalg.norm(recovered - x) <= 1e-8 * np.linalg.norm(x)

    def test_pythagoras_decomposition(self, rng):
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal(5)
        x = rng.standard_normal(3)
        f = core.svd_truncated(a)
        lhs = np.linalg.norm(a @ x - b) ** 2
        zb = a @ core.pinv_apply(f, b)
        rhs = np.linalg.norm(a @ x - zb) ** 2 + core.residual_projection_norm(f, b) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_sensitivity_bounded_by_sigma_min(self, rng):
        a = rng.standard_normal((6, 4))
        f = core.svd_truncated(a)
        for _ in range(10):
            w = rng.standard_normal(4)
            assert core.pinv_transpose_norm(f, w) <= np.linalg.norm(w) / f.sigma[-1] * (
                1 + 1e-12
            )


def complex_gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestComplex:
    def test_rank_keeps_imaginary_part(self):
        f = core.svd_truncated([[1j, 0], [0, 1]])
        assert f.rank == 2
        assert f.is_complex
        np.testing.assert_allclose(f.sigma, [1.0, 1.0])

    @pytest.mark.parametrize("m, n, r", [(5, 3, 3), (3, 5, 3), (4, 4, 2), (3, 3, 0)])
    def test_factors_against_dense_pinv(self, rng, m, n, r):
        a = complex_gaussian(rng, m, r) @ complex_gaussian(rng, r, n)
        b, w = complex_gaussian(rng, m), complex_gaussian(rng, n)
        f = core.svd_truncated(a)
        assert f.rank == r
        assert f.u.dtype == f.v.dtype == f.v_perp.dtype == complex
        recon = f.u @ np.diag(f.sigma) @ f.v.conj().T
        assert np.linalg.norm(recon - a) <= 1e-10 * max(np.linalg.norm(a), 1.0)
        assert np.linalg.norm(f.v.conj().T @ f.v_perp) < 1e-10
        assert np.linalg.norm(a @ f.v_perp) <= 1e-10 * max(np.linalg.norm(a), 1.0)
        pinv = np.linalg.pinv(a)
        np.testing.assert_allclose(core.pinv_apply(f, b), pinv @ b, atol=1e-10)
        np.testing.assert_allclose(core.pinv_transpose_apply(f, w), pinv.conj().T @ w, atol=1e-10)
        assert core.pinv_transpose_norm(f, w) == pytest.approx(
            np.linalg.norm(pinv.conj().T @ w), rel=1e-10, abs=1e-12)
        assert core.residual_projection_norm(f, b) == pytest.approx(
            np.linalg.norm(b - a @ (pinv @ b)), rel=1e-10)
        _, norm = core.nullspace_component(f, w)
        assert norm == pytest.approx(np.linalg.norm(w - pinv @ (a @ w)), rel=1e-10, abs=1e-12)

    def test_real_factors_apply_to_complex_data(self, rng):
        a = rng.standard_normal((5, 3))
        b = complex_gaussian(rng, 5)
        f = core.svd_truncated(a)
        np.testing.assert_allclose(core.pinv_apply(f, b), np.linalg.pinv(a) @ b, atol=1e-12)
