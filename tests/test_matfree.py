import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from conftest import lift_matrix
from entrybounds import (
    LandweberConfig,
    LinearOperator,
    landweber_pinv,
    power_iteration_sigma1,
    stochastic_diag,
    svd_truncated,
)
from entrybounds import core, matfree
from entrybounds.errors import ConfigError, DimensionMismatch, InvalidStep, NumericalFailure
from entrybounds.matfree import adjoint_mismatch
from entrybounds.sense import SamplingPattern, make_coils, make_phantom, sense_operator


def op_from(a):
    return LinearOperator.from_matrix(np.asarray(a, dtype=float))


def callables_only(op):
    """``op`` without its normal blocks: A^H A by ``apply_transpose(apply(x))``."""
    return LinearOperator(op.shape, op.apply, op.apply_transpose, op.is_complex)


# Reference loops: one probe at a time, each in a layout of its own, with
# np.linalg.norm in the power iteration and v.dot(v) of the real view in
# the Landweber stop test.

def reference_layout(op, dtype):
    """(shape, index, dtype, A^H A) of one probe's layout: (blocks, n_max, 1)
    on an operator's block stack, else the flat vector."""
    if op.normal_blocks is None:
        return ((op.shape[1],), slice(None),
                np.result_type(dtype, complex if op.is_complex else float),
                lambda u: op.apply_transpose(op.apply(u)))
    stack, index = op.normal_blocks
    return stack.shape[:2] + (1,), index, np.result_type(dtype, stack), lambda u: stack @ u


def reference_draw(rng, op, k, kind):
    size = 2 * k if op.is_complex else k
    z = (rng.standard_normal(size) if kind == "gaussian"
         else rng.integers(0, 2, size=size) * 2.0 - 1.0)
    return z[:k] + 1j * z[k:] if op.is_complex else z


def reference_sigma1(op, iters=200, seed=0):
    v = reference_draw(np.random.default_rng(seed), op, op.shape[1], "gaussian")
    v /= np.linalg.norm(v)
    shape, index, dtype, normal = reference_layout(op, v.dtype)
    u = np.zeros(shape, dtype)
    u.reshape(-1)[index] = v
    estimate = 0.0
    for _ in range(iters):
        w = normal(u)
        estimate = math.sqrt(max(np.vdot(u, w).real, 0.0))
        wnorm = np.linalg.norm(w)
        if wnorm == 0.0:
            return 0.0
        u = w / wnorm
    return estimate


def reference_landweber(op, m, cfg):
    """(x, iterations, converged, last update norm) of one probe's solve."""
    tau = cfg.step_size()
    k_bound = cfg.iteration_bound()
    max_iters = cfg.max_iters if k_bound is None else min(cfg.max_iters, k_bound)
    shape, index, dtype, normal = reference_layout(op, m.dtype)
    rhs = np.zeros(shape, dtype)
    rhs.reshape(-1)[index] = op.apply_transpose(m)
    x, step = np.zeros(shape, dtype), np.zeros(shape, dtype)
    xr, stepr = x.reshape(-1).view(float), step.reshape(-1).view(float)
    for k in range(1, max_iters + 1):
        np.subtract(normal(x), rhs, out=step)
        step *= tau
        x -= step
        update_norm = math.sqrt(stepr.dot(stepr))
        if update_norm <= cfg.rel_tol * math.sqrt(xr.dot(xr)):
            return x.reshape(-1)[index], k, True, update_norm
    return x.reshape(-1)[index], k, k_bound is not None and k >= k_bound, update_norm


def reference_diag(op, samples, kind, seed, cfg):
    """(values, iterations, failed samples, max last update norm) of one
    reference_landweber per probe, in sample order."""
    m, n = op.shape
    acc = np.zeros(2 * n if op.is_complex else n)
    iterations = np.zeros(samples, dtype=int)
    last_update, failed = 0.0, 0
    for s in range(samples):
        z = reference_draw(np.random.default_rng([seed, s]), op, m, kind)
        x, iterations[s], converged, update_norm = reference_landweber(op, z, cfg)
        last_update = max(last_update, update_norm)
        if not converged:
            failed += 1
            continue
        acc += (np.concatenate((x.real, x.imag)) if op.is_complex else x) ** 2
    return acc / (samples - failed), iterations, failed, last_update


def lockstep_operator(name):
    """Each kind of operator the solves step on: real and complex matrices,
    which carry A^H A as one block, the same matrices given by their
    actions alone (``-flat``), the ragged block stacks of
    :class:`TestNormalBlocks`, and an 8x8 SENSE operator."""
    rng = np.random.default_rng(8)
    if name.endswith("-flat"):
        return callables_only(lockstep_operator(name.removesuffix("-flat")))
    if name == "real":
        return op_from(rng.standard_normal((9, 6)))
    if name == "complex":
        return LinearOperator.from_matrix(TestComplexOperator.complex_matrix(rng, 9, 5))
    if name.startswith("blocks"):
        _, blocks, _ = TestNormalBlocks().operators(3, name == "blocks-complex")
        stack, index = blocks.normal_blocks
        return dataclasses.replace(blocks, normal_blocks=(np.asarray(stack), index))
    ph = make_phantom("smooth-blobs", 8, 8, seed=2)
    op, _ = sense_operator(ph, make_coils(3, 8, 8, seed=2), SamplingPattern(8, 2, 2))
    return op


LOCKSTEP_OPERATORS = ["real", "complex", "real-flat", "complex-flat", "blocks-real",
                      "blocks-complex", "sense"]


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


class TestFromMatrix:
    @pytest.mark.parametrize(
        "a, error",
        [(np.array([1.0, 2.0]), DimensionMismatch), (np.array([[1.0, np.nan]]), NumericalFailure),
         (np.array([[1.0], [np.inf]]), NumericalFailure),
         (np.array([[1e200]]), NumericalFailure),
         (np.array([[1e160 + 1e160j, 1.0], [1.0, 2.0]]), NumericalFailure)],
        ids=["1-d", "nan", "inf", "gram-overflow", "gram-overflow-complex"],
    )
    def test_rejects_a_matrix_no_operator_can_have(self, a, error):
        """Rejected with a typed error; a Gram that overflows raises no
        RuntimeWarning on the way."""
        with pytest.raises(error):
            LinearOperator.from_matrix(a)

    def test_gram_overflow_names_the_float_range(self):
        with pytest.raises(NumericalFailure) as exc:
            LinearOperator.from_matrix(np.full((2, 2), 1e200))
        assert str(exc.value) == "A^H A of the matrix exceeds the float range"

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_gram_past_the_size_limit_is_never_formed(self, cplx, monkeypatch):
        """An A^H A of more than ``core.MAX_ARRAY_BYTES`` raises
        :class:`ConfigError` naming N and its bytes before any product;
        one of exactly the limit is formed."""
        class NoProducts(np.ndarray):
            def __matmul__(self, other):
                raise AssertionError("A^H A formed")

        a = np.arange(12.0).reshape(3, 4) * (1j if cplx else 1)
        nbytes = 4 * 4 * a.itemsize
        monkeypatch.setattr(matfree, "as_finite_matrix",
                            lambda a: core.as_finite_matrix(a).view(NoProducts))
        monkeypatch.setattr(core, "MAX_ARRAY_BYTES", nbytes)
        with pytest.raises(AssertionError, match="A\\^H A formed"):
            LinearOperator.from_matrix(a)
        monkeypatch.setattr(core, "MAX_ARRAY_BYTES", nbytes - 1)
        with pytest.raises(ConfigError) as exc:
            LinearOperator.from_matrix(a)
        assert str(exc.value) == (f"A^H A of a matrix with N=4 columns would take {nbytes} "
                                  f"bytes, more than the {nbytes - 1} allowed")

    @pytest.mark.parametrize("shape", [(9, 6), (0, 3), (3, 0)], ids=["9x6", "0x3", "3x0"])
    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_carries_its_gram_as_one_block(self, shape, cplx):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(shape)
        if cplx:
            a = a + 1j * rng.standard_normal(shape)
        stack, index = LinearOperator.from_matrix(a).normal_blocks
        assert stack.shape == (1, shape[1], shape[1]) and stack.dtype == a.dtype
        np.testing.assert_array_equal(stack[0], a.conj().T @ a, strict=True)
        np.testing.assert_array_equal(index, np.arange(shape[1]), strict=True)

    @pytest.mark.parametrize("shape", [(3, 3), (20, 10), (300, 120)], ids=["diag", "20x10", "300x120"])
    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_sigma1_is_exact(self, shape, cplx):
        rng = np.random.default_rng(5)
        if shape == (3, 3):
            a = np.diag([1.0, 0.999, 0.5]) * (1j if cplx else 1.0)
        else:
            a = TestComplexOperator.complex_matrix(rng, *shape) if cplx else rng.standard_normal(shape)
        want = np.linalg.svd(a, compute_uv=False)[0]
        assert matfree.sigma1(LinearOperator.from_matrix(a)) == pytest.approx(want, rel=1e-12)


class TestPowerIteration:
    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError, match=r"^iters must be >= 1, got 0$"):
            power_iteration_sigma1(op_from(np.eye(2)), iters=0)

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

    @pytest.mark.parametrize("name", LOCKSTEP_OPERATORS)
    def test_matches_a_loop_with_linalg_norm(self, name):
        op = lockstep_operator(name)
        assert power_iteration_sigma1(op, seed=2) == reference_sigma1(op, seed=2)
        assert power_iteration_sigma1(op, iters=7, seed=5) == reference_sigma1(op, iters=7, seed=5)

    def test_negative_seed_named_before_any_draw(self, monkeypatch):
        """As in ``stochastic_diag``, also in the adjoint check."""
        op = op_from(np.diag([2.0, 1.0]))
        monkeypatch.setattr(np.random, "default_rng", None)
        for run in (power_iteration_sigma1, adjoint_mismatch):
            with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
                run(op, seed=-1)


class TestSigma1:
    """``matfree.sigma1`` is exact from an operator's normal blocks and
    ``power_iteration_sigma1`` otherwise."""

    @pytest.mark.parametrize("name", ["blocks-real", "blocks-complex", "sense"])
    def test_exact_from_the_normal_blocks(self, name):
        op = lockstep_operator(name)
        dense = np.column_stack([op.apply(e) for e in np.eye(op.shape[1])])
        exact = matfree.sigma1(op)
        assert exact == pytest.approx(np.linalg.svd(dense, compute_uv=False)[0], rel=1e-12)
        for seed in range(3):
            assert power_iteration_sigma1(op, seed=seed) <= exact * (1 + 1e-14)

    @pytest.mark.parametrize("name", ["real", "complex"])
    def test_power_iteration_without_blocks(self, name):
        """An operator given by its actions alone gets the power estimate;
        the same matrix through ``from_matrix`` gets its exact sigma1."""
        op = lockstep_operator(name)
        user = callables_only(op)
        for seed in (0, 4):
            assert matfree.sigma1(user, seed=seed) == power_iteration_sigma1(user, seed=seed)
        dense = np.column_stack([op.apply(e) for e in np.eye(op.shape[1])])
        want = np.linalg.svd(dense, compute_uv=False)[0]
        assert matfree.sigma1(op) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("stack, index", [(np.zeros((3, 2, 2), complex), np.arange(5)),
                                              (np.zeros((0, 0, 0)), np.arange(0))],
                             ids=["zero", "no-columns"])
    def test_zero_stack(self, stack, index):
        op = LinearOperator((4, index.size), lambda x: np.zeros(4), lambda y: np.zeros(index.size),
                            normal_blocks=(stack, index))
        assert matfree.sigma1(op) == 0.0


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
        with pytest.raises(InvalidStep):
            cfg = LandweberConfig(sigma1_estimate=2.0, tau=0.6)
            landweber_pinv(op_from(np.diag([2.0, 1.0])), [1.0, 1.0], cfg)

    @pytest.mark.parametrize(
        "field, value",
        [("rel_tol", math.nan), ("rel_tol", -1.0), ("rel_tol", math.inf), ("max_iters", 0),
         ("max_iters", 2.5), ("max_iters", True),
         ("rate_tol", 1.0), ("rate_tol", 0.0),
         ("sigma1_estimate", math.nan), ("sigma1_estimate", 0.0), ("sigma1_estimate", -1.0),
         ("sigma1_estimate", math.inf), ("sigma1_estimate", 1e-170),
         ("tau", math.nan), ("tau", 0.0), ("tau", 0.5), ("tau", math.inf),
         ("sigma_min", math.nan), ("sigma_min", 0.0), ("sigma_min", -1.0),
         ("sigma_min", math.inf), ("sigma_min", 3.0), ("sigma_min", 1e-9)],
        ids=["rel-tol-nan", "rel-tol-negative", "rel-tol-inf", "max-iters-0",
             "max-iters-float", "max-iters-bool", "rate-tol-1",
             "rate-tol-0", "sigma1-nan", "sigma1-0", "sigma1-negative", "sigma1-inf",
             "sigma1-square-underflows", "tau-nan", "tau-0", "tau-at-2-over-sigma1-squared",
             "tau-inf", "sigma-min-nan", "sigma-min-0", "sigma-min-negative", "sigma-min-inf",
             "sigma-min-3", "sigma-min-rate-rounds-to-1"],
    )
    def test_settings_that_cannot_work_are_rejected(self, field, value):
        # rel_tol NaN or < 0 ran every probe to max_iters, inf stopped after
        # one step, and rate_tol 1 with sigma_min set iteration_bound to 1:
        # landweber_pinv then gave [1, 0.25] for diag(2, 1) x = [2, 1],
        # labelled converged.  A sigma1 of 1e-170 has a square of 0, and a
        # sigma_min of 1e-9 a rate 1 - 2.5e-19 that rounds to 1: no bound.
        # A max_iters of 2.5 made landweber_pinv raise an untyped TypeError
        with pytest.raises(InvalidStep, match=field):
            LandweberConfig(**{"sigma1_estimate": 2.0, "sigma_min": 1.0, field: value})

    def test_sigma_min_at_sigma1_takes_one_iteration(self):
        # the default step zeroes the modal factor of sigma1 itself
        assert LandweberConfig(sigma1_estimate=2.0, sigma_min=2.0).iteration_bound() == 1

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
    def test_unknown_probe_kind_rejected(self):
        cfg = LandweberConfig(sigma1_estimate=1.0)
        with pytest.raises(ValueError, match=r"^unknown probe kind: 'uniform'$"):
            stochastic_diag(op_from(np.eye(2)), samples=2, probe_kind="uniform", cfg=cfg)

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

    def test_negative_seed_named(self):
        cfg = LandweberConfig(sigma1_estimate=2.0)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            stochastic_diag(op_from(np.diag([2.0, 1.0])), samples=2, seed=-1, cfg=cfg)

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
        op = callables_only(LinearOperator.from_matrix(a))
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
    assembled block diagonal matrix given by its actions alone."""

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
        dense = callables_only(LinearOperator.from_matrix(scipy.linalg.block_diag(*mats)[:, order]))
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
            assert u.shape[1:] == stack.shape[:2] + (1,)
            assert not u.reshape(len(u), -1)[:, pad].any()
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
         (np.eye(3)[None], np.arange(2)),
         (np.zeros((2, 2, 2)), np.array([0, 1, 7])),
         (np.zeros((2, 2, 2)), np.array([0.0, 1.0, 2.0])),
         (np.zeros((2, 2, 2)), np.array([0, 0, 1])),
         (np.zeros((2, 2, 2)), np.array([-1, 1, 2]))],
        ids=["not-a-stack", "not-square", "index-length", "index-past-the-layout",
             "index-float", "index-repeated", "index-negative"],
    )
    def test_malformed_blocks_rejected(self, stack, index):
        """Rejected when the operator is made, before any solve could index
        the layout with them."""
        with pytest.raises(DimensionMismatch):
            dataclasses.replace(op_from(np.eye(3)), normal_blocks=(stack, index))

    @staticmethod
    def padded(entry, value):
        """A = [[2, 0], [0, 1], [0, 0]] and a (2, 2, 2) stack with its A^H A
        in block 0, whose block 1 holds no unknown, and ``value`` at ``entry``."""
        stack = np.zeros((2, 2, 2))
        stack[0] = np.diag([4.0, 1.0])
        stack[entry] = value
        return op_from([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), stack

    @pytest.mark.parametrize("entry, pos", [((1, 1, 1), 1), ((1, 0, 1), 0), ((1, 1, 0), 0)],
                             ids=["diagonal", "row", "column"])
    def test_nonzero_padding_rejected(self, entry, pos):
        """A nonzero row or column at a position no unknown holds would join
        the spectrum and the solves; the error names its block and position."""
        op, stack = self.padded(entry, 3.0)
        with pytest.raises(DimensionMismatch) as exc:
            dataclasses.replace(op, normal_blocks=(stack, np.arange(2)))
        assert str(exc.value) == (f"normal_blocks block 1 has a nonzero row or column at "
                                  f"position {pos}, which no unknown holds")

    @pytest.mark.parametrize("entry", [(0, 0, 0), (1, 1, 1)], ids=["held", "padding"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_stack_rejected(self, entry, value):
        op, stack = self.padded(entry, value)
        with pytest.raises(NumericalFailure,
                           match="normal_blocks stack contains NaN or Inf entries"):
            dataclasses.replace(op, normal_blocks=(stack, np.arange(2)))


class TestLockstep:
    """``stochastic_diag`` steps ``PROBE_CHUNK`` probes at a time in lockstep;
    its results equal those of one reference solve per probe bit for bit,
    whatever the chunk size."""

    @pytest.mark.parametrize("kind", ["gaussian", "rademacher"])
    @pytest.mark.parametrize("name", LOCKSTEP_OPERATORS)
    def test_matches_one_loop_per_probe(self, name, kind, monkeypatch):
        op = lockstep_operator(name)
        samples = matfree.PROBE_CHUNK + 3
        s1 = power_iteration_sigma1(op, seed=1)
        full = LandweberConfig(sigma1_estimate=s1, max_iters=10**4, rel_tol=1e-8)
        # a budget at the median iteration count fails some probes, not all
        counts = reference_diag(op, samples, kind, 3, full)[1]
        cfg = dataclasses.replace(full, max_iters=int(np.median(counts)))
        values, iterations, failed, last_update = reference_diag(op, samples, kind, 3, cfg)
        assert 0 < failed < samples
        for chunk in (matfree.PROBE_CHUNK, 1, 5):
            monkeypatch.setattr(matfree, "PROBE_CHUNK", chunk)
            got = stochastic_diag(op, samples, probe_kind=kind, seed=3, cfg=cfg)
            np.testing.assert_array_equal(got.values, values)
            np.testing.assert_array_equal(got.iterations, iterations)
            np.testing.assert_array_equal(got.failed_samples, failed)
            assert got.max_last_update_norm == last_update

        m = reference_draw(np.random.default_rng(4), op, op.shape[0], kind)
        res = landweber_pinv(op, m, cfg)
        x, k, converged, update_norm = reference_landweber(op, m, cfg)
        np.testing.assert_array_equal(res.x, x)
        assert (res.iterations, res.converged, res.last_update_norm) == (k, converged, update_norm)

    @pytest.mark.parametrize("probes", [1, 3, 32])
    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_dense_step_is_one_product_per_probe(self, cplx, probes):
        """A ``from_matrix`` operator steps all probes at once with its Gram
        block, with the product of each probe alone."""
        rng = np.random.default_rng(probes)
        draw = TestComplexOperator.complex_matrix if cplx else (
            lambda rng, m, n: rng.standard_normal((m, n)))
        a = draw(rng, 20, 10)
        layout = matfree._Layout(LinearOperator.from_matrix(a), a.dtype, probes)
        ah = a.conj().T
        gram = ah @ a
        u, ms = draw(rng, probes, 10), draw(rng, probes, 20)
        np.testing.assert_array_equal(layout.gather(layout.normal(layout.scatter(u))),
                                      [gram @ v for v in u])
        np.testing.assert_array_equal(layout.gather(layout.adjoint(list(ms))), [ah @ m for m in ms])

    @pytest.mark.parametrize("name", ["real", "complex-flat", "sense"])
    def test_stopped_probes_keep_their_slots(self, name, monkeypatch):
        """Every normal product of a block steps all its probes, until the
        last of them stops: one product per step of its slowest probe."""
        op = lockstep_operator(name)
        cfg = LandweberConfig(sigma1_estimate=power_iteration_sigma1(op, seed=1),
                              max_iters=10**4, rel_tol=1e-8)
        sizes, normal = [], matfree._Layout.normal

        def counted(layout, u):
            sizes.append(len(u))
            return normal(layout, u)

        monkeypatch.setattr(matfree._Layout, "normal", counted)
        samples = matfree.PROBE_CHUNK + 3
        iterations = stochastic_diag(op, samples, seed=3, cfg=cfg).iterations
        blocks = [iterations[s:s + matfree.PROBE_CHUNK]
                  for s in range(0, samples, matfree.PROBE_CHUNK)]
        assert all(np.ptp(block) > 0 for block in blocks)
        assert sizes == [len(block) for block in blocks for _ in range(block.max())]

    @pytest.mark.parametrize("name", ["real", "complex-flat", "blocks-complex"])
    def test_rate_bound_matches_one_loop_per_probe(self, name):
        """With sigma_min set, the probes still live at the iteration bound
        stop there converged."""
        op = lockstep_operator(name)
        s1 = power_iteration_sigma1(op, seed=1)
        samples = matfree.PROBE_CHUNK + 3
        full = LandweberConfig(sigma1_estimate=s1, max_iters=10**4, rel_tol=1e-7)
        counts = reference_diag(op, samples, "gaussian", 2, full)[1]
        # the modal rate of the default step is 1 - 0.3^2 = 0.91: a bound
        # at about the median iteration count
        cfg = dataclasses.replace(full, sigma_min=0.3 * s1, rate_tol=0.91 ** np.median(counts))
        values, iterations, failed, last_update = reference_diag(op, samples, "gaussian", 2, cfg)
        assert failed == 0 and np.any(iterations < cfg.iteration_bound())
        assert np.any(iterations == cfg.iteration_bound())
        got = stochastic_diag(op, samples, seed=2, cfg=cfg)
        np.testing.assert_array_equal(got.values, values)
        np.testing.assert_array_equal(got.iterations, iterations)
        assert got.max_last_update_norm == last_update
