import numpy as np
import pytest

from entrybounds import (
    LandweberConfig,
    LinearOperator,
    landweber_pinv,
    power_iteration_sigma1,
    stochastic_diag,
    svd_truncated,
)
from entrybounds.errors import DimensionMismatch, InvalidStep
from entrybounds.matfree import adjoint_mismatch


def op_from(a):
    return LinearOperator.from_matrix(np.asarray(a, dtype=float))


class TestLinearOperator:
    def test_adjoint_consistency(self, rng):
        a = rng.standard_normal((7, 5))
        assert adjoint_mismatch(op_from(a)) < 1e-12

    def test_adjoint_mismatch_detected(self, rng):
        a = rng.standard_normal((4, 4))
        bad = LinearOperator(
            shape=(4, 4), apply=lambda x: a @ x, apply_transpose=lambda y: a @ y
        )
        assert adjoint_mismatch(bad) > 1e-3


class TestPowerIteration:
    def test_identity(self):
        assert power_iteration_sigma1(op_from(np.eye(4))) == pytest.approx(1.0, abs=1e-6)

    def test_known_spectrum(self):
        est = power_iteration_sigma1(op_from(np.diag([3.0, 1.0])), iters=200)
        assert est == pytest.approx(3.0, abs=1e-3)

    def test_dense_oracle(self, rng):
        a = rng.standard_normal((50, 30))
        s1 = np.linalg.svd(a, compute_uv=False)[0]
        est = power_iteration_sigma1(op_from(a), iters=300, seed=3)
        assert est <= s1 * (1 + 1e-12)
        assert est >= 0.999 * s1

    @pytest.mark.parametrize("shape", [(3, 2), (3, 0)], ids=["zero", "no-columns"])
    def test_zero_operator(self, shape):
        assert power_iteration_sigma1(op_from(np.zeros(shape))) == 0.0

    def test_deterministic(self, rng):
        a = rng.standard_normal((10, 6))
        op = op_from(a)
        assert power_iteration_sigma1(op, seed=7) == power_iteration_sigma1(op, seed=7)


class TestLandweber:
    def test_identity_one_step(self):
        cfg = LandweberConfig(sigma1_estimate=1.0, tau=1.0, rel_tol=1e-12)
        res = landweber_pinv(op_from(np.eye(3)), [1.0, 2.0, 3.0], cfg)
        np.testing.assert_allclose(res.x, [1.0, 2.0, 3.0], atol=1e-12)
        assert res.converged

    def test_diagonal_geometric_convergence(self):
        cfg = LandweberConfig(sigma1_estimate=2.0, tau=0.4, max_iters=100, rel_tol=1e-12)
        res = landweber_pinv(op_from(np.diag([2.0, 1.0])), [2.0, 1.0], cfg)
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-8)

    def test_matches_dense_pinv_within_rate_bound(self, rng):
        a = rng.standard_normal((12, 8))
        m = rng.standard_normal(12)
        s = np.linalg.svd(a, compute_uv=False)
        cfg = LandweberConfig(
            sigma1_estimate=float(s[0]),
            sigma_min=float(s[-1]),
            rate_tol=1e-8,
            max_iters=10**7,
            rel_tol=0.0,
        )
        res = landweber_pinv(op_from(a), m, cfg)
        expected = np.linalg.pinv(a) @ m
        assert np.linalg.norm(res.x - expected) <= 1e-6 * np.linalg.norm(expected)
        assert res.iterations <= cfg.iteration_bound()

    def test_invalid_step(self):
        cfg = LandweberConfig(sigma1_estimate=2.0, tau=0.6)
        with pytest.raises(InvalidStep):
            landweber_pinv(op_from(np.diag([2.0, 1.0])), [1.0, 1.0], cfg)

    def test_dimension_mismatch(self):
        cfg = LandweberConfig(sigma1_estimate=1.0)
        with pytest.raises(DimensionMismatch):
            landweber_pinv(op_from(np.eye(3)), [1.0, 2.0], cfg)

    def test_nonconvergence_flagged(self, rng):
        a = rng.standard_normal((6, 4))
        s1 = np.linalg.svd(a, compute_uv=False)[0]
        cfg = LandweberConfig(sigma1_estimate=float(s1), max_iters=2, rel_tol=1e-14)
        res = landweber_pinv(op_from(a), rng.standard_normal(6), cfg)
        assert not res.converged
        assert res.iterations == 2

    def test_iterates_orthogonal_to_nullspace(self, rng):
        a = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 5))
        f = svd_truncated(a)
        s1 = float(f.sigma[0])
        cfg = LandweberConfig(sigma1_estimate=s1, max_iters=500, rel_tol=1e-10)
        res = landweber_pinv(op_from(a), rng.standard_normal(6), cfg)
        perp = np.linalg.norm(f.v_perp.T @ res.x)
        assert perp <= 1e-6 * np.linalg.norm(res.x)

    def test_converges_to_min_norm_solution(self, rng):
        a = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 5))
        x = rng.standard_normal(5)
        f = svd_truncated(a)
        cfg = LandweberConfig(
            sigma1_estimate=float(f.sigma[0]),
            sigma_min=float(f.sigma[-1]),
            rate_tol=1e-9,
            max_iters=10**6,
            rel_tol=0.0,
        )
        res = landweber_pinv(op_from(a), a @ x, cfg)
        projected = f.v @ (f.v.T @ x)  # nullspace-free part of x
        assert np.linalg.norm(res.x - projected) <= 1e-5 * np.linalg.norm(projected)


class TestStochasticDiag:
    def test_identity_expectation(self):
        op = op_from(np.eye(2))
        cfg = LandweberConfig(sigma1_estimate=1.0, tau=1.0)
        est = stochastic_diag(op, samples=4000, seed=5, cfg=cfg)
        np.testing.assert_allclose(est.values, [1.0, 1.0], rtol=0.1)

    def test_diagonal_estimates(self):
        op = op_from(np.diag([2.0, 1.0]))
        cfg = LandweberConfig(sigma1_estimate=2.0, rel_tol=1e-12)
        est = stochastic_diag(op, samples=4000, seed=11, cfg=cfg)
        np.testing.assert_allclose(est.values, [0.25, 1.0], rtol=0.08)

    def test_seed_reproducibility(self):
        op = op_from(np.diag([2.0, 1.0]))
        cfg = LandweberConfig(sigma1_estimate=2.0)
        a = stochastic_diag(op, samples=50, seed=3, cfg=cfg)
        b = stochastic_diag(op, samples=50, seed=3, cfg=cfg)
        np.testing.assert_array_equal(a.values, b.values)

    def test_substreams_are_prefix_stable(self):
        # the first S samples of a longer run equal a shorter run exactly
        op = op_from(np.diag([2.0, 1.0]))
        cfg = LandweberConfig(sigma1_estimate=2.0, rel_tol=1e-12)
        short = stochastic_diag(op, samples=10, seed=3, cfg=cfg)
        long = stochastic_diag(op, samples=20, seed=3, cfg=cfg)
        # means over disjoint prefixes differ, but recomputing the prefix
        # from the same substreams must be bit-identical
        again = stochastic_diag(op, samples=10, seed=3, cfg=cfg)
        np.testing.assert_array_equal(short.values, again.values)
        assert not np.array_equal(short.values, long.values)

    def test_probe_kinds_agree_in_expectation(self, rng):
        a = rng.standard_normal((8, 4))
        op = op_from(a)
        s1 = np.linalg.svd(a, compute_uv=False)[0]
        smin = np.linalg.svd(a, compute_uv=False)[-1]
        cfg = LandweberConfig(sigma1_estimate=float(s1), sigma_min=float(smin), rate_tol=1e-9, rel_tol=0.0)
        g = stochastic_diag(op, samples=1500, probe_kind="gaussian", seed=2, cfg=cfg)
        r = stochastic_diag(op, samples=1500, probe_kind="rademacher", seed=2, cfg=cfg)
        exact = np.linalg.norm(np.linalg.pinv(a), axis=1) ** 2
        np.testing.assert_allclose(g.values, exact, rtol=0.25)
        np.testing.assert_allclose(r.values, exact, rtol=0.25)

    def test_unbiased_across_seeds(self, rng):
        a = rng.standard_normal((8, 4))
        op = op_from(a)
        s1 = np.linalg.svd(a, compute_uv=False)[0]
        smin = np.linalg.svd(a, compute_uv=False)[-1]
        cfg = LandweberConfig(sigma1_estimate=float(s1), sigma_min=float(smin), rate_tol=1e-9, rel_tol=0.0)
        runs = np.array(
            [stochastic_diag(op, samples=100, seed=s, cfg=cfg).values for s in range(50)]
        )
        exact = np.linalg.norm(np.linalg.pinv(a), axis=1) ** 2
        mean = runs.mean(axis=0)
        stderr = runs.std(axis=0, ddof=1) / np.sqrt(runs.shape[0])
        assert np.all(np.abs(mean - exact) <= 3 * stderr)
