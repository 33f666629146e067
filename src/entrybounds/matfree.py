"""Matrix-free computation path for large systems.

When A is too large to factor, the sensitivity quantities are obtained
through matrix-vector products only: power iteration for the largest
singular value, gradient (Landweber) iteration converging to the
minimum-norm least-squares solution A^+ m, and a stochastic probing
estimator that recovers all squared row norms of A^+ simultaneously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, InvalidStep


@dataclass(frozen=True)
class LinearOperator:
    """Abstract M x N operator given by its forward and transpose actions."""

    shape: tuple[int, int]
    apply: Callable[[np.ndarray], np.ndarray]
    apply_transpose: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def from_matrix(cls, a) -> "LinearOperator":
        a = np.asarray(a, dtype=float)
        return cls(
            shape=(a.shape[0], a.shape[1]),
            apply=lambda x, _a=a: _a @ x,
            apply_transpose=lambda y, _a=a: _a.T @ y,
        )


def adjoint_mismatch(op: LinearOperator, trials: int = 5, seed: int = 0) -> float:
    """Largest relative defect |<Ax, y> - <x, A^T y>| over random probes.

    Useful as a smoke test that ``apply`` and ``apply_transpose`` really
    are adjoint to one another.
    """
    rng = np.random.default_rng(seed)
    m, n = op.shape
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(n)
        y = rng.standard_normal(m)
        lhs = float(op.apply(x) @ y)
        rhs = float(x @ op.apply_transpose(y))
        scale = np.linalg.norm(x) * np.linalg.norm(y)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def power_iteration_sigma1(op: LinearOperator, iters: int = 200, seed: int = 0) -> float:
    """Estimate the largest singular value by power iteration on A^T A.

    The returned Rayleigh estimate never exceeds the true sigma_1 and is
    deterministic for a given seed.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    rng = np.random.default_rng(seed)
    n = op.shape[1]
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(iters):
        av = op.apply(v)
        estimate = float(np.linalg.norm(av))
        w = op.apply_transpose(av)
        wnorm = np.linalg.norm(w)
        if wnorm == 0.0:
            return 0.0
        v = w / wnorm
    return estimate


@dataclass(frozen=True)
class LandweberConfig:
    """Parameters of the gradient iteration.

    ``tau`` must lie in (0, 2 / sigma1^2); when None it defaults to the
    midpoint 1 / sigma1^2 of the stable interval.  ``sigma_min`` is an
    optional smallest positive singular value; when given, an iteration
    count sufficient for ``rate_tol`` accuracy is used as an extra stop.
    """

    sigma1_estimate: float
    tau: Optional[float] = None
    max_iters: int = 10000
    rel_tol: float = 1e-9
    sigma_min: Optional[float] = None
    rate_tol: float = 1e-7

    def step_size(self) -> float:
        s1 = self.sigma1_estimate
        if s1 <= 0:
            raise InvalidStep("sigma1 estimate must be positive")
        tau = self.tau if self.tau is not None else 1.0 / (s1 * s1)
        if not 0.0 < tau < 2.0 / (s1 * s1):
            raise InvalidStep(
                f"step size {tau} outside the stable interval (0, {2.0 / (s1 * s1)})"
            )
        return tau

    def iteration_bound(self) -> Optional[int]:
        """Iterations needed so the worst modal factor max_j |1 - tau s_j^2|^K
        drops below ``rate_tol``; None when sigma_min is not supplied."""
        if self.sigma_min is None:
            return None
        tau = self.step_size()
        rate = max(
            abs(1.0 - tau * self.sigma_min**2),
            abs(1.0 - tau * self.sigma1_estimate**2),
        )
        if rate <= 0.0:
            return 1
        if rate >= 1.0:
            return None
        return max(1, math.ceil(math.log(self.rate_tol) / math.log(rate)))


@dataclass(frozen=True)
class LandweberResult:
    x: np.ndarray
    iterations: int
    converged: bool
    last_update_norm: float


def landweber_pinv(op: LinearOperator, m, cfg: LandweberConfig) -> LandweberResult:
    """Iterate x <- x - tau A^T (A x - m) from zero to approximate A^+ m.

    Zero initialization is mandatory: every update lies in the row space,
    so the limit carries no nullspace component and is exactly the
    minimum-norm least-squares solution.  No early stopping beyond the
    requested tolerance is applied; truncating the iteration early would
    understate the sensitivities computed from the result.
    """
    m = np.asarray(m, dtype=float).reshape(-1)
    if m.shape[0] != op.shape[0]:
        raise DimensionMismatch(
            f"data vector has length {m.shape[0]}, operator has {op.shape[0]} rows"
        )
    tau = cfg.step_size()
    k_bound = cfg.iteration_bound()
    max_iters = cfg.max_iters if k_bound is None else min(cfg.max_iters, k_bound)

    x = np.zeros(op.shape[1])
    update_norm = math.inf
    k = 0
    for k in range(1, max_iters + 1):
        step = tau * op.apply_transpose(op.apply(x) - m)
        x = x - step
        # sqrt(v.dot(v)) is what np.linalg.norm computes for a real vector,
        # minus its per-call overhead, which dominates for small operators
        update_norm = math.sqrt(step.dot(step))
        xnorm = math.sqrt(x.dot(x))
        if update_norm <= cfg.rel_tol * xnorm:
            return LandweberResult(x=x, iterations=k, converged=True, last_update_norm=update_norm)
    converged = k_bound is not None and k >= k_bound
    return LandweberResult(x=x, iterations=k, converged=converged, last_update_norm=update_norm)


@dataclass(frozen=True)
class DiagEstimate:
    """Stochastic estimates of the squared sensitivities ||(A^+)^T e_i||_2^2."""

    values: np.ndarray
    failed_samples: int = 0


def _draw_probe(rng: np.random.Generator, m: int, probe_kind: str) -> np.ndarray:
    if probe_kind == "gaussian":
        return rng.standard_normal(m)
    if probe_kind == "rademacher":
        return rng.integers(0, 2, size=m) * 2.0 - 1.0
    raise ValueError(f"unknown probe kind: {probe_kind!r}")


def stochastic_diag(
    op: LinearOperator,
    samples: int,
    probe_kind: str = "gaussian",
    seed: int = 0,
    *,
    cfg: LandweberConfig,
) -> DiagEstimate:
    """Estimate all squared sensitivities at once by random probing.

    For isotropic unit-covariance probes z, the entrywise mean of
    |A^+ z|^2 over samples is unbiased for ||(A^+)^T e_i||_2^2.  Each
    sample uses an independent RNG substream keyed by (seed, sample), so
    the result is identical under any evaluation order.  Samples whose
    inner iteration fails to converge are counted, not silently included.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    m, n = op.shape
    acc = np.zeros(n)
    failed = 0
    for s in range(samples):
        rng = np.random.default_rng([seed, s])
        z = _draw_probe(rng, m, probe_kind)
        res = landweber_pinv(op, z, cfg)
        if not res.converged:
            failed += 1
            continue
        acc += res.x**2
    if failed == samples:
        raise InvalidStep("no probe solve converged; loosen the iteration budget")
    return DiagEstimate(values=acc / (samples - failed), failed_samples=failed)
