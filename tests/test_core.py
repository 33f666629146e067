"""The rank-truncated SVD of ``core``, and the quantities the interval
kernel takes from a system's factors: A^+ b (``LinearSystem.solution``),
the residual ||b - A A^+ b|| (``LinearSystem.residual``), the sensitivity
||(A^+)^H w|| and the nullspace component of w (``bounds_for``).  Each is
checked against a dense pseudoinverse, the normal equations or scipy's
null_space.  Last, ``core``'s rules for scalar and array arguments, at
every door of the package that takes a count, size, seed, magnitude or
data vector."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import nullspace_overlap
from entrybounds import (
    LandweberConfig,
    LinearOperator,
    LinearSystem,
    Target,
    bounds_for,
    condition_report,
    core,
    entrywise_bounds,
    extremal_solution,
    functional_bound,
    global_bounds,
    landweber_pinv,
    power_iteration_sigma1,
    stochastic_diag,
)
from entrybounds.bounds import _row_products
from entrybounds.errors import (
    ConfigError,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidStep,
    NumericalFailure,
    ShapeMismatch,
    ZeroFunctional,
)
from entrybounds.lifting import lift_system
from entrybounds.matfree import adjoint_mismatch
from entrybounds.sense import SamplingPattern, make_coils, make_phantom, simulate_acquisition

FINITE, UNBOUNDED = 0, 1


def orthonormality_defect(q):
    if q.shape[1] == 0:
        return 0.0
    return np.linalg.norm(q.T @ q - np.eye(q.shape[1]))


def zero_data(a):
    """The system (A, 0, 1): every bounded row is feasible, with lam = 1."""
    a = np.asarray(a)
    return LinearSystem(a=a, b=np.zeros(a.shape[0]), epsilon=1.0)


def row_norms(a, w):
    """(||(A^+)^H w||_2, ||V_perp^H w||_2) from the kernel's products of w,
    which it forms for every row, bounded or not."""
    p = _row_products(zero_data(a), np.reshape(w, (1, -1)))
    return float(np.ldexp(p.sens[0], p.e[0])), float(np.ldexp(p.perp[0], p.e[0]))


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
    exact results: +0.0 vectors of the data's dtype, zero sensitivities,
    ||b||."""

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("m, n", [(5, 3), (3, 5)], ids=["tall", "wide"])
    def test_exact_results(self, rng, m, n, dtype):
        a = np.zeros((m, n), dtype=dtype)
        f = core.svd_truncated(a)
        assert f.rank == 0 and f.sigma.shape == (0,) and f.v_perp.shape == (n, n)
        b = rng.standard_normal(m).astype(dtype)
        sys_ = LinearSystem(a=a, b=b, epsilon=1.0)
        assert sys_.rank == 0
        x = sys_.solution()
        assert x.dtype == dtype
        np.testing.assert_array_equal(x, np.zeros(n))
        assert not np.signbit(x.real).any()
        spectral = condition_report(sys_).spectral_entry
        np.testing.assert_array_equal(spectral, np.zeros(n * (2 if dtype is complex else 1)))
        assert row_norms(a, rng.standard_normal(n).astype(dtype))[0] == 0.0
        assert sys_.residual() == np.linalg.norm(b)


class TestPinvApply:
    """A^+ b, as ``LinearSystem.solution`` forms it."""

    def test_identity(self):
        x = LinearSystem(a=np.eye(2), b=[3.0, -1.0], epsilon=0.0).solution()
        np.testing.assert_allclose(x, [3.0, -1.0])

    def test_diagonal(self):
        x = LinearSystem(a=np.diag([2.0, 1.0]), b=[2.0, 1.0], epsilon=0.0).solution()
        np.testing.assert_allclose(x, [1.0, 1.0])

    def test_normal_equations_oracle(self, rng):
        a = rng.standard_normal((4, 3))
        m = rng.standard_normal(4)
        expected = np.linalg.solve(a.T @ a, a.T @ m)
        np.testing.assert_allclose(LinearSystem(a=a, b=m, epsilon=0.0).solution(), expected,
                                   atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            LinearSystem(a=np.eye(2), b=[1.0, 2.0, 3.0], epsilon=0.0)

    def test_zero_matrix_gives_zero(self):
        x = LinearSystem(a=np.zeros((2, 3)), b=[1.0, 2.0], epsilon=0.0).solution()
        np.testing.assert_array_equal(x, np.zeros(3))


class TestPinvTransposeApply:
    """The sensitivity ||(A^+)^H w||, as ``bounds_for`` gives it."""

    def test_identity(self):
        assert bounds_for(zero_data(np.eye(2)), [[1.0, 0.0]]).sensitivity[0] == pytest.approx(1.0)

    def test_diagonal(self):
        got = bounds_for(zero_data(np.diag([2.0, 1.0])), [[1.0, 0.0]]).sensitivity[0]
        assert got == pytest.approx(0.5)

    def test_row_norm_oracle(self, rng):
        a = rng.standard_normal((6, 4))
        pinv = np.linalg.pinv(a)
        w = np.zeros(4)
        w[1] = 1.0
        assert bounds_for(zero_data(a), w[None, :]).sensitivity[0] == pytest.approx(
            np.linalg.norm(pinv[1]), rel=1e-10
        )


# A^+ v and ||(A^+)^H v|| of A = 1e-300 I, and their values at v = [1e-10, 1]
BEYOND_RANGE = {
    "pinv_apply": (lambda v: LinearSystem(a=1e-300 * np.eye(2), b=v, epsilon=0.0).solution(),
                   [1e290, 1e300]),
    "pinv_transpose_apply": (lambda v: bounds_for(zero_data(1e-300 * np.eye(2)),
                                                  [v]).sensitivity[0],
                             np.hypot(1e290, 1e300)),
}


@pytest.mark.parametrize("quantity", BEYOND_RANGE)
def test_pinv_products_beyond_float_range_raise(quantity):
    # 1e10 / 1e-300 overflows: a typed error, not inf and a RuntimeWarning
    product, want = BEYOND_RANGE[quantity]
    with pytest.raises(NumericalFailure):
        product([1e10, 1.0])
    np.testing.assert_allclose(product([1e-10, 1.0]), want, rtol=1e-15)


class TestResidualProjection:
    """||b - A A^+ b||, as ``LinearSystem.residual`` gives it."""

    def test_full_row_rank(self, rng):
        sys_ = LinearSystem(a=np.eye(2), b=rng.standard_normal(2), epsilon=0.0)
        assert sys_.residual() < 1e-12

    def test_orthogonal_data(self):
        sys_ = LinearSystem(a=np.array([[1.0], [0.0]]), b=[0.0, 3.0], epsilon=0.0)
        assert sys_.residual() == pytest.approx(3.0)

    def test_dense_oracle(self, rng):
        a = rng.standard_normal((5, 2))
        b = rng.standard_normal(5)
        expected = np.linalg.norm(b - a @ np.linalg.pinv(a) @ b)
        assert LinearSystem(a=a, b=b, epsilon=0.0).residual() == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("m, n, rank", [(5, 3, 3), (5, 3, 2), (3, 5, 3), (4, 4, 1),
                                            (4, 4, 0)])
    def test_svd_path_is_the_public_projection(self, rng, dtype, m, n, rank):
        """Below M = 2N the residual is ``residual_projection_norm`` of the
        truncated SVD, bit for bit, at every rank."""
        def draw(*shape):
            z = rng.standard_normal(shape)
            return z + 1j * rng.standard_normal(shape) if dtype is complex else z

        a, b = draw(m, rank) @ draw(rank, n), draw(m)
        sys_ = LinearSystem(a=a, b=b, epsilon=0.0)
        assert sys_.residual() == core.residual_projection_norm(
            core.svd_truncated(sys_.a, sys_.rank_rtol), sys_.b)


class TestNullspaceComponent:
    """The part of w in the nullspace of A, which makes its row unbounded."""

    def test_trivial_nullspace(self):
        res = bounds_for(zero_data(np.eye(3)), [[0.0, 1.0, 0.0]])
        assert res.status[0] == FINITE
        assert row_norms(np.eye(3), [0.0, 1.0, 0.0])[1] == 0.0

    def test_spanning_vector(self):
        a = np.array([[1.0, 0.0]])
        assert bounds_for(zero_data(a), [[0.0, 1.0]]).status[0] == UNBOUNDED
        assert row_norms(a, [0.0, 1.0])[1] == pytest.approx(1.0)

    def test_projector_oracle(self, rng):
        a = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
        w = rng.standard_normal(4)
        assert bounds_for(zero_data(a), w[None, :]).status[0] == UNBOUNDED
        assert row_norms(a, w)[1] == pytest.approx(nullspace_overlap(a, w), rel=1e-10)


class TestInvariants:
    def test_pinv_inverts_on_row_space(self, rng):
        a = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 4))
        f = core.svd_truncated(a)
        p = rng.standard_normal(f.rank)
        x = f.v @ p
        recovered = LinearSystem(a=a, b=a @ x, epsilon=0.0).solution()
        assert np.linalg.norm(recovered - x) <= 1e-8 * np.linalg.norm(x)

    def test_pythagoras_decomposition(self, rng):
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal(5)
        x = rng.standard_normal(3)
        sys_ = LinearSystem(a=a, b=b, epsilon=0.0)
        lhs = np.linalg.norm(a @ x - b) ** 2
        zb = a @ sys_.solution()
        rhs = np.linalg.norm(a @ x - zb) ** 2 + sys_.residual() ** 2
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_sensitivity_bounded_by_sigma_min(self, rng):
        a = rng.standard_normal((6, 4))
        w = rng.standard_normal((10, 4))
        sens = bounds_for(zero_data(a), w).sensitivity
        sigma_min = core.svd_truncated(a).sigma[-1]
        assert np.all(sens <= np.linalg.norm(w, axis=1) / sigma_min * (1 + 1e-12))


def complex_gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestComplex:
    def test_rank_keeps_imaginary_part(self):
        f = core.svd_truncated([[1j, 0], [0, 1]])
        assert f.rank == 2
        assert f.v.dtype == complex
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
        sys_ = LinearSystem(a=a, b=b, epsilon=0.0)
        np.testing.assert_allclose(sys_.solution(), pinv @ b, atol=1e-10)
        sens, perp = row_norms(a, w)
        assert sens == pytest.approx(np.linalg.norm(pinv.conj().T @ w), rel=1e-10, abs=1e-12)
        assert sys_.residual() == pytest.approx(np.linalg.norm(b - a @ (pinv @ b)), rel=1e-10)
        assert perp == pytest.approx(np.linalg.norm(w - pinv @ (a @ w)), rel=1e-10, abs=1e-12)

    def test_real_factors_apply_to_complex_data(self, rng):
        a = rng.standard_normal((5, 3))
        b = complex_gaussian(rng, 5)
        x = LinearSystem(a=a, b=b, epsilon=0.0).solution()
        np.testing.assert_allclose(x, np.linalg.pinv(a) @ b, atol=1e-12)


class TestRarelyTakenPaths:
    """Branches of ``core`` that the rest of the suite does not reach."""

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_matrix_rejected_when_factored(self, shape):
        sys_ = LinearSystem(np.zeros(shape), np.zeros(shape[0]), 0.0)
        with pytest.raises(DimensionMismatch, match=r"matrix must be at least 1x1, got \("):
            sys_.rank

    def test_short_data_vector_rejected(self):
        f = core.svd_truncated(np.eye(3))
        with pytest.raises(DimensionMismatch, match="data vector has length 2, matrix has 3 rows"):
            core.residual_projection_norm(f, [1.0, 2.0])

    def test_svd_failure_is_numerical(self, monkeypatch):
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "svd", fails)
        with pytest.raises(NumericalFailure, match="SVD did not converge: no convergence"):
            core.svd_truncated(np.eye(2))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4, 2)], ids=["wide", "tall", "qr"])
    def test_sigma_1_beyond_float_range_rejected(self, shape):
        """Entries of 0.45 times the largest double fit the float range;
        sigma_1, sqrt(6) times that or more, does not, and no singular value
        would pass the rank rule against an infinite one: the SVD raises
        rather than read the matrix as rank 0.  The 4 x 2 matrix, made full
        rank, factors through a QR whose triangle overflows, and falls back
        to the same SVD."""
        a = np.full(shape, 0.45 * np.finfo(float).max)
        if shape == (4, 2):
            a[1, 1] /= 2
        sys_ = zero_data(a)
        with pytest.raises(NumericalFailure, match="sigma_1 exceeds the float range"):
            sys_.rank

    def test_overflowing_triangle_falls_back_to_the_svd(self):
        """A tall A with sigma_1 in (0.5, 0.99) times the largest double fits
        the float range, but its QR triangle may not: such a system factors
        by the SVD of A and has the intervals of the system with A scaled by
        2**-4, which factors by the triangle, scaled back.  b and epsilon
        near 1e300 keep the intervals normal floats."""
        rng = np.random.default_rng(5)
        big = np.finfo(float).max
        cases = 0
        for _ in range(40):
            a = rng.standard_normal((6, 3))
            a = a / np.linalg.svd(a, compute_uv=False)[0] * (rng.uniform(0.5, 0.99) * big)
            b = 1e300 * rng.standard_normal(6)
            if np.isfinite(np.linalg.qr(np.column_stack([a, b]), mode="r")[:3, :3]).all():
                continue
            cases += 1
            small = LinearSystem(a=np.ldexp(a, -4), b=b, epsilon=0.0)
            eps = 2.0 * small.residual()
            got = bounds_for(LinearSystem(a=a, b=b, epsilon=eps))
            want = bounds_for(dataclasses.replace(small, epsilon=eps))
            assert small._factored().path == "triangle"
            np.testing.assert_array_equal(got.status, FINITE)
            assert got.lam == pytest.approx(want.lam, rel=1e-12)
            for name in ("lower", "upper", "midpoint", "half_width"):
                np.testing.assert_allclose(getattr(got, name), np.ldexp(getattr(want, name), -4),
                                           rtol=1e-12, err_msg=name)
        assert cases >= 5

    def test_residual_beyond_float_range_rejected(self):
        """b = 1.5e308 (1, 1, -1) lies outside the range of A, so its
        residual projection is b itself, whose norm exceeds the float range."""
        a = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        sys_ = LinearSystem(a, [1.5e308, 1.5e308, -1.5e308], 0.5)
        with pytest.raises(NumericalFailure, match="a vector norm exceeds the float range"):
            entrywise_bounds(sys_)


def _operands():
    """What the doors below take besides the scalar under test: the operator
    diag(2, 1), a Landweber config for it, an 8 x 8 acquisition setup, and a
    1 x 2 system, whose functional on x_1 is unbounded."""
    return SimpleNamespace(
        op=LinearOperator.from_matrix(np.diag([2.0, 1.0])), cfg=LandweberConfig(2.0),
        ph=make_phantom("smooth-blobs", 8, 8), coils=make_coils(2, 8, 8),
        pat=SamplingPattern(8, 2, 2), wide=LinearSystem(np.array([[1.0, 0.0]]), [1.0], 0.1))


class TestScalarArguments:
    """Every count, size and seed is a Python or numpy integer, not a bool,
    at least its minimum (``core._check_int``), and every magnitude or
    ratio a Python or numpy number, not a bool or a string
    (``core._is_real``), finite and nonnegative (``core._magnitude``): each
    door raises its own error class before any work."""

    @pytest.mark.parametrize("call, error", [
        (lambda o: stochastic_diag(o.op, 2.5, cfg=o.cfg), ValueError),
        (lambda o: stochastic_diag(o.op, 2, seed=1.5, cfg=o.cfg), ValueError),
        (lambda o: power_iteration_sigma1(o.op, iters=2.5), ValueError),
        # zero trials checked nothing and read 0.0, even for a wrong adjoint
        (lambda o: adjoint_mismatch(o.op, trials=0), ValueError),
        (lambda o: make_phantom("smooth-blobs", 8.5, 8), ConfigError),
        (lambda o: make_coils(2.5, 8, 8), ConfigError),
        (lambda o: simulate_acquisition(o.ph, o.coils, o.pat, noise_sigma=math.nan), ConfigError),
        (lambda o: simulate_acquisition(o.ph, o.coils, o.pat, noise_sigma=math.inf), ConfigError),
        (lambda o: simulate_acquisition(o.ph, o.coils, o.pat, noise_sigma="0.01"), ConfigError),
        (lambda o: LinearSystem(np.eye(2), [1.0, 2.0], "0.5"), ValueError),
        (lambda o: LinearSystem(np.eye(2), [1.0, 2.0], True), ValueError),
        (lambda o: LinearSystem(np.eye(2), [1.0, 2.0], None), ValueError),
        (lambda o: LinearSystem(np.eye(2), [1.0, 2.0], 0.5, rank_rtol="0.1"), ValueError),
        (lambda o: global_bounds(np.eye(2), "1"), ValueError),
        (lambda o: LandweberConfig(1.0, rel_tol="1e-6"), InvalidStep),
        (lambda o: LandweberConfig(1.0, rel_tol=True), InvalidStep),
        (lambda o: LandweberConfig("2"), InvalidStep),
        (lambda o: LandweberConfig(True), InvalidStep),
        (lambda o: LandweberConfig(1.0, tau="0.5"), InvalidStep),
        (lambda o: LandweberConfig(1.0, sigma_min=True), InvalidStep),
        (lambda o: extremal_solution(o.wide, [0.0, 1.0], Target.ARBITRARY, "1"), ValueError),
        (lambda o: extremal_solution(o.wide, [0.0, 1.0], Target.ARBITRARY, True), ValueError),
        (lambda o: make_coils(2, 2.5, 8), ConfigError),
        (lambda o: make_coils(2, 8, -3), ConfigError),
        (lambda o: make_coils(2, 0, 8), ConfigError),
        (lambda o: make_coils(4, 12, 12, phase_fold=True, phantom=o.ph), ShapeMismatch),
    ], ids=["samples-float", "seed-float", "iters-float", "trials-0", "grid-float",
            "channels-float", "noise-nan", "noise-inf", "noise-str", "epsilon-str",
            "epsilon-bool", "epsilon-none", "rtol-str", "noise-norm-str", "rel-tol-str",
            "rel-tol-bool", "sigma1-str", "sigma1-bool", "tau-str", "sigma-min-bool",
            "alpha-str", "alpha-bool", "coils-h-float", "coils-w-negative", "coils-h-0",
            "coils-fold-grid"])
    def test_rejected_before_any_work(self, call, error, monkeypatch):
        operands = _operands()

        def draw(*args):
            raise AssertionError("a random draw before the check")

        monkeypatch.setattr(np.random, "default_rng", draw)
        monkeypatch.setattr(np, "mgrid", None)  # the grids of the phantom and the coils
        with pytest.raises(error):
            call(operands)

    @pytest.mark.parametrize("numpy_ints, python_ints", [
        (lambda o: stochastic_diag(o.op, np.int64(3), seed=np.uint8(1), cfg=o.cfg).values,
         lambda o: stochastic_diag(o.op, 3, seed=1, cfg=o.cfg).values),
        (lambda o: power_iteration_sigma1(o.op, iters=np.int32(3), seed=np.int64(2)),
         lambda o: power_iteration_sigma1(o.op, iters=3, seed=2)),
        (lambda o: adjoint_mismatch(o.op, trials=np.int64(5)),
         lambda o: adjoint_mismatch(o.op, trials=5)),
        (lambda o: landweber_pinv(o.op, [2.0, 1.0], LandweberConfig(2.0, max_iters=np.int64(3))).x,
         lambda o: landweber_pinv(o.op, [2.0, 1.0], LandweberConfig(2.0, max_iters=3)).x),
        (lambda o: make_phantom("smooth-blobs", np.int64(8), np.int32(9), seed=np.int64(1)).grid,
         lambda o: make_phantom("smooth-blobs", 8, 9, seed=1).grid),
        (lambda o: make_coils(np.int64(2), 8, 8, seed=np.int64(1)),
         lambda o: make_coils(2, 8, 8, seed=1)),
    ], ids=["probes", "power-iteration", "adjoint-check", "landweber", "phantom", "coils"])
    def test_numpy_integers_accepted(self, numpy_ints, python_ints):
        operands = _operands()
        np.testing.assert_array_equal(numpy_ints(operands), python_ints(operands))


def _refusing_operator():
    """A 3 x 3 operator whose actions raise: a door that reaches it did work."""
    def act(x):
        raise AssertionError("an operator product before the check")

    return LinearOperator(shape=(3, 3), apply=act, apply_transpose=act)


class TestArrayArguments:
    """Every data vector goes through ``core._as_vector``: a length other
    than the row count raises :class:`DimensionMismatch`, and a NaN or
    infinite entry :class:`NumericalFailure`, before any work."""

    DOORS = {
        "system": lambda b: LinearSystem(np.eye(3), b, 0.1),
        "lift": lambda b: lift_system(np.eye(3), b),
        "landweber": lambda b: landweber_pinv(_refusing_operator(), b, LandweberConfig(1.0)),
        "residual": lambda b: core.residual_projection_norm(core.svd_truncated(np.eye(3)), b),
    }

    @pytest.mark.parametrize("door", DOORS)
    @pytest.mark.parametrize("b, error, message", [
        ([1.0, 2.0], DimensionMismatch, "data vector has length 2, {} has 3 rows"),
        ([1.0, np.nan, 0.0], NumericalFailure, "data vector must be finite"),
        ([np.inf, 1.0, 0.0], NumericalFailure, "data vector must be finite"),
    ], ids=["short", "nan", "inf"])
    def test_rejected_before_any_work(self, door, b, error, message):
        with pytest.raises(error) as exc:
            self.DOORS[door](b)
        assert str(exc.value) == message.format("operator" if door == "landweber" else "matrix")

    @pytest.mark.parametrize("a, b", [(np.eye(2), np.ones(2)),
                                      (np.eye(2, dtype=complex), np.ones(2, complex))],
                             ids=["real", "complex"])
    def test_system_keeps_a_1d_data_vector(self, a, b):
        """So a copy that ``replace`` makes with a new epsilon shares the factors."""
        sys_ = LinearSystem(a, b, 0.1)
        assert sys_.b is b and dataclasses.replace(sys_, epsilon=0.2).b is b

    @pytest.mark.parametrize("fields, error, message", [
        ((np.ones(2), [np.nan], -1.0, 0.0), DimensionMismatch, "expected a 2-D array, got ndim=1"),
        ((np.eye(2), [np.nan], -1.0, 0.0), ValueError, "rank tolerance must be in (0, 1), got 0.0"),
        ((np.eye(2), [np.nan], -1.0, 0.1), DimensionMismatch,
         "data vector has length 1, matrix has 2 rows"),
        ((np.eye(2), [np.nan, 1.0], -1.0, 0.1), NumericalFailure, "data vector must be finite"),
    ], ids=["a", "rank-rtol", "b-length", "b-finite"])
    def test_system_checks_a_then_rank_rtol_then_b_then_epsilon(self, fields, error, message):
        with pytest.raises(error) as exc:
            LinearSystem(*fields)
        assert str(exc.value) == message


class TestKernelArguments:
    """The interval kernel checks its entries, weight rows, target and
    arbitrary target value before it factors the system: with the SVD and
    the QR refusing to run, each door still raises its own error, and the
    system stays unfactored."""

    @pytest.mark.parametrize("call, error", [
        (lambda s: entrywise_bounds(s, [9]), IndexOutOfRange),
        (lambda s: entrywise_bounds(s, [1.5]), IndexOutOfRange),
        (lambda s: bounds_for(s, np.ones((1, 5))), DimensionMismatch),
        (lambda s: bounds_for(s, np.array([[1j, 0.0]])), DimensionMismatch),
        (lambda s: bounds_for(s, np.array([[np.nan, 1.0]])), NumericalFailure),
        (lambda s: functional_bound(s, [0.0, 0.0]), ZeroFunctional),
        (lambda s: extremal_solution(s, [1.0], Target.UPPER), DimensionMismatch),
        (lambda s: extremal_solution(s, [1.0, 0.0], Target.ARBITRARY), ValueError),
        (lambda s: extremal_solution(s, [1.0, 0.0], Target.ARBITRARY, "1"), ValueError),
        (lambda s: extremal_solution(s, [1.0, 0.0], "upper"), ValueError),
        (lambda s: extremal_solution(s, [1.0, 0.0], None), ValueError),
        # row x_2 of the rank-1 system below is unbounded
        (lambda s: extremal_solution(LinearSystem(np.array([[1.0, 0.0]] * 3), [1.0, 1.0, 1.0], 1.0),
                                     [0.0, 1.0], Target.ARBITRARY, math.nan), NumericalFailure),
    ], ids=["entry-outside", "entry-float", "weights-shape", "weights-complex", "weights-nan",
            "zero-row", "extremal-short-row", "alpha-none", "alpha-str", "target-str",
            "target-none", "alpha-nan-unbounded"])
    def test_rejected_before_any_work(self, call, error, monkeypatch):
        sys_ = LinearSystem(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), [1.0, 2.0, 3.0], 1.0)

        def factor(*args, **kwargs):
            raise AssertionError("a factorization before the check")

        monkeypatch.setattr(np.linalg, "svd", factor)
        monkeypatch.setattr(np.linalg, "qr", factor)
        with pytest.raises(error):
            call(sys_)
        assert sys_._cache is None
