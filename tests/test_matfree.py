import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from entrybounds import (
    LandweberConfig,
    LinearOperator,
    landweber_pinv,
    lift_matrix,
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

    @pytest.mark.parametrize(
        "field, value",
        [("rel_tol", math.nan), ("rel_tol", -1.0), ("rel_tol", math.inf), ("max_iters", 0),
         ("rate_tol", 1.0), ("rate_tol", 0.0)],
        ids=["rel-tol-nan", "rel-tol-negative", "rel-tol-inf", "max-iters-0", "rate-tol-1",
             "rate-tol-0"],
    )
    def test_settings_that_cannot_work_are_rejected(self, field, value):
        # rel_tol NaN or < 0 ran every probe to max_iters, inf stopped after
        # one step, and rate_tol 1 with sigma_min set iteration_bound to 1:
        # landweber_pinv then gave [1, 0.25] for diag(2, 1) x = [2, 1],
        # labelled converged
        with pytest.raises(InvalidStep, match=field):
            LandweberConfig(sigma1_estimate=2.0, sigma_min=1.0, **{field: value})

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


class TestComplexOperator:
    """A complex operator works on complex vectors and draws each probe as
    the complex vector whose blocked real form is the lifted operator's
    probe, so it reproduces the lifted operator to rounding."""

    @staticmethod
    def complex_matrix(rng, m, n):
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    def test_keeps_the_imaginary_part(self):
        op = LinearOperator.from_matrix([[1j, 0.0], [0.0, 1.0]])
        assert op.is_complex
        np.testing.assert_array_equal(op.apply([1.0, 0.0]), [1j, 0.0])
        np.testing.assert_array_equal(op.apply_transpose([1.0, 0.0]), [-1j, 0.0])

    def test_matches_lifted_operator(self, rng):
        a = self.complex_matrix(rng, 9, 4)
        op, lifted = LinearOperator.from_matrix(a), LinearOperator.from_matrix(lift_matrix(a))
        s1 = power_iteration_sigma1(op, seed=4)
        assert s1 == pytest.approx(power_iteration_sigma1(lifted, seed=4), rel=1e-13)
        # a budget that some probes miss, so the failure counts are compared too
        cfg = LandweberConfig(sigma1_estimate=s1, max_iters=89, rel_tol=1e-6)
        for kind in ("gaussian", "rademacher"):
            got = stochastic_diag(op, samples=40, probe_kind=kind, seed=6, cfg=cfg)
            want = stochastic_diag(lifted, samples=40, probe_kind=kind, seed=6, cfg=cfg)
            assert 0 < got.failed_samples < 40
            assert got.failed_samples == want.failed_samples
            np.testing.assert_allclose(got.values, want.values, rtol=1e-13)

    def test_landweber_matches_dense_pinv(self, rng):
        a = self.complex_matrix(rng, 12, 5)
        m = self.complex_matrix(rng, 12, 1)[:, 0]
        s = np.linalg.svd(a, compute_uv=False)
        cfg = LandweberConfig(sigma1_estimate=float(s[0]), sigma_min=float(s[-1]),
                              rate_tol=1e-10, max_iters=10**6, rel_tol=0.0)
        res = landweber_pinv(LinearOperator.from_matrix(a), m, cfg)
        expected = np.linalg.pinv(a) @ m
        assert np.linalg.norm(res.x - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_adjoint_without_conjugate_detected(self, rng):
        a = self.complex_matrix(rng, 5, 4)
        good = LinearOperator(shape=(5, 4), apply=lambda x: a @ x,
                              apply_transpose=lambda y: a.conj().T @ y, is_complex=True)
        bad = LinearOperator(shape=(5, 4), apply=lambda x: a @ x,
                             apply_transpose=lambda y: a.T @ y, is_complex=True)
        assert adjoint_mismatch(good) < 1e-12
        assert adjoint_mismatch(bad) > 1e-3

    def test_normal_without_conjugate_detected(self, rng):
        a = self.complex_matrix(rng, 5, 4)
        op = LinearOperator.from_matrix(a)
        index = np.arange(4)
        good = dataclasses.replace(op, normal_blocks=((a.conj().T @ a)[None], index))
        bad = dataclasses.replace(op, normal_blocks=((a.T @ a)[None], index))
        assert adjoint_mismatch(good) < 1e-12
        assert adjoint_mismatch(bad) > 1e-3

    def test_normal_defaults_to_the_composition(self, rng):
        a = self.complex_matrix(rng, 6, 3)
        op = LinearOperator.from_matrix(a)
        assert op.normal_blocks is None
        x = self.complex_matrix(rng, 3, 1)[:, 0]
        np.testing.assert_array_equal(op.normal(x), op.apply_transpose(op.apply(x)))


class _WatchedStack(np.ndarray):
    """A block stack that keeps a copy of every array it multiplies."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.seen.append(np.array(inputs[1]))
        return getattr(ufunc, method)(*(np.asarray(v) for v in inputs), **kwargs)


class TestNormalBlocks:
    """An operator that carries A^H A as ragged Hermitian blocks in a padded
    stack steps in the stack's layout, and matches the flat solves of the
    assembled block diagonal matrix."""

    SIZES = (5, 3, 1)  # padded to 5

    def operators(self, seed, cplx):
        """The dense operator of block_diag(A_0, A_1, A_2) with its columns
        shuffled, and the same operator carrying the blocks A_c^H A_c."""
        rng = np.random.default_rng(seed)

        def draw(*shape):
            z = rng.standard_normal(shape)
            return z + 1j * rng.standard_normal(shape) if cplx else z

        mats = [draw(k + 2, k) for k in self.SIZES]
        n_max = max(self.SIZES)
        slots = np.concatenate([c * n_max + np.arange(k) for c, k in enumerate(self.SIZES)])
        order = rng.permutation(slots.size)
        stack = np.zeros((len(self.SIZES), n_max, n_max), complex if cplx else float)
        for c, (k, a_c) in enumerate(zip(self.SIZES, mats)):
            stack[c, :k, :k] = a_c.conj().T @ a_c
        dense = LinearOperator.from_matrix(scipy.linalg.block_diag(*mats)[:, order])
        stack = stack.view(_WatchedStack)
        stack.seen = []
        return dense, dataclasses.replace(dense, normal_blocks=(stack, slots[order])), draw

    @staticmethod
    def padding_stays_zero(blocks_op):
        stack, index = blocks_op.normal_blocks
        pad = np.ones(stack.shape[0] * stack.shape[1], bool)
        pad[index] = False
        assert stack.seen
        for u in stack.seen:
            assert u.shape == stack.shape[:2] + (1,)
            assert not u.reshape(-1)[pad].any()
        stack.seen.clear()

    # (seed, complex, budget): the budget splits the probes of both kinds,
    # at least 2 iterations away from any probe's count
    CASES = [(3, False, 240), (1, True, 228)]

    @pytest.mark.parametrize("seed, cplx, budget", CASES, ids=["real", "complex"])
    def test_matches_the_block_diagonal_matrix(self, seed, cplx, budget):
        dense, blocks, draw = self.operators(seed, cplx)
        x = draw(dense.shape[1])
        np.testing.assert_allclose(blocks.normal(x), dense.normal(x), rtol=1e-14)
        self.padding_stays_zero(blocks)

        s1 = power_iteration_sigma1(dense, seed=1)
        assert power_iteration_sigma1(blocks, seed=1) == pytest.approx(s1, rel=1e-14)
        self.padding_stays_zero(blocks)

        cfg = LandweberConfig(sigma1_estimate=s1, rel_tol=1e-10)
        m = draw(dense.shape[0])
        got, want = landweber_pinv(blocks, m, cfg), landweber_pinv(dense, m, cfg)
        assert got.converged and want.converged
        assert got.iterations == want.iterations
        assert np.linalg.norm(got.x - want.x) <= 1e-13 * np.linalg.norm(want.x)
        self.padding_stays_zero(blocks)

        cfg = LandweberConfig(sigma1_estimate=s1, max_iters=budget, rel_tol=1e-8)
        for kind in ("gaussian", "rademacher"):
            got = stochastic_diag(blocks, samples=12, probe_kind=kind, seed=3, cfg=cfg)
            want = stochastic_diag(dense, samples=12, probe_kind=kind, seed=3, cfg=cfg)
            assert 0 < got.failed_samples < 12
            assert got.failed_samples == want.failed_samples
            np.testing.assert_array_equal(got.iterations, want.iterations)
            np.testing.assert_allclose(got.values, want.values, rtol=1e-13)
        self.padding_stays_zero(blocks)

    @pytest.mark.parametrize(
        "stack, index",
        [(np.eye(3), np.arange(3)), (np.zeros((1, 3, 2)), np.arange(3)),
         (np.eye(3)[None], np.arange(2))],
        ids=["not-a-stack", "not-square", "index-length"],
    )
    def test_malformed_blocks_rejected(self, stack, index):
        with pytest.raises(DimensionMismatch):
            dataclasses.replace(op_from(np.eye(3)), normal_blocks=(stack, index))
