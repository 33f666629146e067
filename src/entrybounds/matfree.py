"""Matrix-free computation path for large systems.

When A is too large to factor, the sensitivity quantities are obtained
through matrix-vector products only: power iteration for the largest
singular value, gradient (Landweber) iteration converging to the
minimum-norm least-squares solution A^+ m, and a stochastic probing
estimator that recovers all squared row norms of A^+ simultaneously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import as_real_or_complex
from .errors import DimensionMismatch, InvalidStep


@dataclass(frozen=True)
class LinearOperator:
    """Abstract M x N operator given by its forward action and its adjoint
    A^H (``apply_transpose``), on complex vectors when ``is_complex``.

    ``apply_normal`` is an optional action x -> A^H A x, for an operator
    whose normal matrix is cheaper to apply than the two actions in turn;
    when unset, :meth:`normal` composes them.
    """

    shape: tuple[int, int]
    apply: Callable[[np.ndarray], np.ndarray]
    apply_transpose: Callable[[np.ndarray], np.ndarray]
    is_complex: bool = False
    apply_normal: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def normal(self, x: np.ndarray) -> np.ndarray:
        """A^H A x."""
        if self.apply_normal is not None:
            return self.apply_normal(x)
        return self.apply_transpose(self.apply(x))

    @classmethod
    def from_matrix(cls, a) -> "LinearOperator":
        a = as_real_or_complex(a)
        return cls(
            shape=(a.shape[0], a.shape[1]),
            apply=lambda x, _a=a: _a @ x,
            apply_transpose=lambda y, _ah=a.conj().T: _ah @ y,
            is_complex=np.iscomplexobj(a),
        )


def _draw(rng: np.random.Generator, op: LinearOperator, k: int, kind="gaussian") -> np.ndarray:
    """A random vector of length k for ``op``: k reals, or for a complex operator
    2k reals z read as z[:k] + 1j * z[k:], whose blocked real form [Re; Im] is z."""
    size = 2 * k if op.is_complex else k
    if kind == "gaussian":
        z = rng.standard_normal(size)
    elif kind == "rademacher":
        z = rng.integers(0, 2, size=size) * 2.0 - 1.0
    else:
        raise ValueError(f"unknown probe kind: {kind!r}")
    return z[:k] + 1j * z[k:] if op.is_complex else z


def adjoint_mismatch(op: LinearOperator, trials: int = 5, seed: int = 0) -> float:
    """Largest relative defect over random probes of the adjoint,
    |<y, Ax> - <A^H y, x>| / ||x|| ||y||, and of the normal action,
    |<x, A^H A x> - ||Ax||^2| / ||A||^2 ||x||^2, with ||A|| estimated by
    power iteration on ``apply_transpose(apply(x))`` alone.

    Useful as a smoke test that ``apply``, ``apply_transpose`` and
    ``normal`` are consistent with one another.
    """
    rng = np.random.default_rng(seed)
    m, n = op.shape
    sigma1 = power_iteration_sigma1(replace(op, apply_normal=None), seed=seed)
    worst = 0.0
    for _ in range(trials):
        x = _draw(rng, op, n)
        y = _draw(rng, op, m)
        ax = op.apply(x)
        lhs = np.vdot(y, ax)
        rhs = np.vdot(op.apply_transpose(y), x)
        xnorm = np.linalg.norm(x)
        worst = max(worst, float(abs(lhs - rhs) / (xnorm * np.linalg.norm(y))))
        if sigma1 > 0.0:
            defect = abs(np.vdot(x, op.normal(x)) - np.vdot(ax, ax).real)
            worst = max(worst, float(defect / (sigma1 * xnorm) ** 2))
    return worst


def power_iteration_sigma1(op: LinearOperator, iters: int = 200, seed: int = 0) -> float:
    """Estimate the largest singular value by power iteration on A^H A.

    The returned Rayleigh estimate sqrt(Re <v, A^H A v>) of the last unit
    iterate v equals ||A v||, so it never exceeds the true sigma_1 (to
    rounding), and is deterministic for a given seed.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    v = _draw(np.random.default_rng(seed), op, op.shape[1])
    v /= np.linalg.norm(v)
    normal = op.normal
    estimate = 0.0
    for _ in range(iters):
        w = normal(v)
        estimate = math.sqrt(max(np.vdot(v, w).real, 0.0))
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
    """Iterate x <- x - tau (A^H A x - A^H m) from zero to approximate A^+ m.

    ``A^H m`` is formed once; each step applies the normal action
    :meth:`LinearOperator.normal`.  Zero initialization is mandatory: every
    update lies in the row space, so the limit carries no nullspace
    component and is exactly the minimum-norm least-squares solution.  No
    early stopping beyond the requested tolerance is applied; truncating the
    iteration early would understate the sensitivities computed from the
    result.
    """
    m = as_real_or_complex(m).reshape(-1)
    if m.shape[0] != op.shape[0]:
        raise DimensionMismatch(
            f"data vector has length {m.shape[0]}, operator has {op.shape[0]} rows"
        )
    tau = cfg.step_size()
    k_bound = cfg.iteration_bound()
    max_iters = cfg.max_iters if k_bound is None else min(cfg.max_iters, k_bound)

    x = np.zeros(op.shape[1], complex if op.is_complex else m.dtype)
    rhs = op.apply_transpose(m)
    normal = op.normal
    # np.linalg.norm's sum of squares without its per-call overhead, which
    # dominates for small operators; v.dot(v) is the faster one for a real v
    sq = (lambda v: np.vdot(v, v).real) if np.iscomplexobj(x) else (lambda v: v.dot(v))
    update_norm = math.inf
    k = 0
    for k in range(1, max_iters + 1):
        step = tau * (normal(x) - rhs)
        x = x - step
        update_norm = math.sqrt(sq(step))
        xnorm = math.sqrt(sq(x))
        if update_norm <= cfg.rel_tol * xnorm:
            return LandweberResult(x=x, iterations=k, converged=True, last_update_norm=update_norm)
    converged = k_bound is not None and k >= k_bound
    return LandweberResult(x=x, iterations=k, converged=converged, last_update_norm=update_norm)


@dataclass(frozen=True)
class DiagEstimate:
    """Stochastic estimates of the squared sensitivities ||(A^+)^H e_i||_2^2; for
    a complex operator 2N of them, Re x_i then Im x_i (the lifted real order).

    ``iterations`` holds the Landweber iteration count of every probe in
    sample order, failed probes included; ``max_last_update_norm`` is the
    largest last update norm over all probes."""

    values: np.ndarray
    failed_samples: int
    iterations: np.ndarray
    max_last_update_norm: float


def stochastic_diag(
    op: LinearOperator,
    samples: int,
    probe_kind: str = "gaussian",
    seed: int = 0,
    *,
    cfg: LandweberConfig,
) -> DiagEstimate:
    """Estimate all squared sensitivities at once by random probing.

    For isotropic unit-covariance probes z, the entrywise mean of |A^+ z|^2
    over samples is unbiased for ||(A^+)^H e_i||_2^2; for a complex probe with
    unit-variance parts, so is each of (Re A^+ z)^2 and (Im A^+ z)^2.  Each
    sample uses an independent RNG substream keyed by (seed, sample), so
    the result is identical under any evaluation order.  Samples whose
    inner iteration fails to converge are counted, not silently included.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    m, n = op.shape
    acc = np.zeros(2 * n if op.is_complex else n)
    iterations = np.zeros(samples, dtype=int)
    last_update = 0.0
    failed = 0
    for s in range(samples):
        z = _draw(np.random.default_rng([seed, s]), op, m, probe_kind)
        res = landweber_pinv(op, z, cfg)
        iterations[s] = res.iterations
        last_update = max(last_update, res.last_update_norm)
        if not res.converged:
            failed += 1
            continue
        acc += (np.concatenate((res.x.real, res.x.imag)) if op.is_complex else res.x) ** 2
    if failed == samples:
        raise InvalidStep("no probe solve converged; loosen the iteration budget")
    return DiagEstimate(values=acc / (samples - failed), failed_samples=failed,
                        iterations=iterations, max_last_update_norm=last_update)
