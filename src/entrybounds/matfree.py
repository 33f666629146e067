"""Matrix-free computation path for large systems.

When A is too large to factor, the sensitivity quantities are obtained
through matrix-vector products only: power iteration for the largest
singular value, gradient (Landweber) iteration converging to the
minimum-norm least-squares solution A^+ m, and a stochastic probing
estimator that recovers all squared row norms of A^+ simultaneously.

Both solves step on A^H A.  For an operator that carries ``normal_blocks``
they keep their iterates in the blocks' own layout, where one step is one
batched product with the stack; otherwise they keep a flat vector and
apply ``apply_transpose(apply(x))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import as_real_or_complex
from .errors import DimensionMismatch, InvalidStep


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """Abstract M x N operator given by its forward action and its adjoint
    A^H (``apply_transpose``), on complex vectors when ``is_complex``.
    Operators compare and hash by identity, as arrays in ``normal_blocks``
    have no equality to compare by.

    ``normal_blocks`` is an optional ``(stack, index)`` giving A^H A as a
    block diagonal matrix: ``stack`` is a (blocks, n_max, n_max) array of
    Hermitian blocks, each zero-padded to n_max, and ``index`` holds each
    unknown's place in the flattened (blocks, n_max) layout.  Every
    position of that layout that no unknown holds must have a zero row and
    column in its block.  When unset, :meth:`normal` composes the two
    actions.
    """

    shape: tuple[int, int]
    apply: Callable[[np.ndarray], np.ndarray]
    apply_transpose: Callable[[np.ndarray], np.ndarray]
    is_complex: bool = False
    normal_blocks: Optional[tuple[np.ndarray, np.ndarray]] = None

    def __post_init__(self):
        if self.normal_blocks is not None:
            stack, index = self.normal_blocks
            if (stack.ndim != 3 or stack.shape[1] != stack.shape[2]
                    or np.shape(index) != (self.shape[1],)):
                raise DimensionMismatch(
                    f"normal_blocks need a (blocks, n, n) stack and {self.shape[1]} indices, "
                    f"got {stack.shape} and {np.shape(index)}"
                )

    def normal(self, x: np.ndarray) -> np.ndarray:
        """A^H A x."""
        if self.normal_blocks is None:
            return self.apply_transpose(self.apply(x))
        layout = _Layout(self, np.asarray(x).dtype)
        return layout.gather(layout.normal(layout.scatter(x)))

    @classmethod
    def from_matrix(cls, a) -> "LinearOperator":
        a = as_real_or_complex(a)
        return cls(
            shape=(a.shape[0], a.shape[1]),
            apply=lambda x, _a=a: _a @ x,
            apply_transpose=lambda y, _ah=a.conj().T: _ah @ y,
            is_complex=np.iscomplexobj(a),
        )


class _Layout:
    """Where the solves keep their iterates: for an operator with
    ``normal_blocks``, the (blocks, n_max, 1) layout of its stack, whose
    padding the block products keep exactly zero; otherwise the flat vector.

    :meth:`normal` writes A^H A u into one buffer that each call reuses, so
    its result is only valid until the next call.
    """

    def __init__(self, op: LinearOperator, dtype):
        if op.normal_blocks is None:
            self.shape, self.index = (op.shape[1],), slice(None)
            self.dtype = np.result_type(dtype, complex if op.is_complex else float)
            self.normal = lambda u: op.apply_transpose(op.apply(u))
        else:
            stack, self.index = op.normal_blocks
            self.shape = stack.shape[:2] + (1,)
            self.dtype = np.result_type(dtype, stack)
            out = np.empty(self.shape, self.dtype)
            self.normal = lambda u: np.matmul(stack, u, out=out)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape, self.dtype)

    def scatter(self, v: np.ndarray) -> np.ndarray:
        u = self.zeros()
        u.reshape(-1)[self.index] = v
        return u

    def gather(self, u: np.ndarray) -> np.ndarray:
        return u.reshape(-1)[self.index]


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
    sigma1 = power_iteration_sigma1(replace(op, normal_blocks=None), seed=seed)
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
    layout = _Layout(op, v.dtype)
    v = layout.scatter(v)
    estimate = 0.0
    for _ in range(iters):
        w = layout.normal(v)
        estimate = math.sqrt(max(np.vdot(v, w).real, 0.0))
        wnorm = np.linalg.norm(w)
        if wnorm == 0.0:
            return 0.0
        np.divide(w, wnorm, out=v)
    return estimate


@dataclass(frozen=True)
class LandweberConfig:
    """Parameters of the gradient iteration.

    ``tau`` must lie in (0, 2 / sigma1^2); when None it defaults to the
    midpoint 1 / sigma1^2 of the stable interval.  ``sigma_min`` is an
    optional smallest positive singular value; when given, an iteration
    count sufficient for ``rate_tol`` accuracy is used as an extra stop.
    Settings under which no solve can stop correctly (no iteration, a
    ``rel_tol`` that is negative, NaN or infinite, a ``rate_tol`` outside
    (0, 1)) raise :class:`InvalidStep`.
    """

    sigma1_estimate: float
    tau: Optional[float] = None
    max_iters: int = 10000
    rel_tol: float = 1e-9
    sigma_min: Optional[float] = None
    rate_tol: float = 1e-7

    def __post_init__(self):
        if not self.max_iters >= 1:
            raise InvalidStep(f"max_iters must be >= 1, got {self.max_iters}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= 0.0):
            raise InvalidStep(f"rel_tol must be finite and >= 0, got {self.rel_tol}")
        if not 0.0 < self.rate_tol < 1.0:
            raise InvalidStep(f"rate_tol must lie in (0, 1), got {self.rate_tol}")

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

    ``A^H m`` is formed once and placed in the layout the iteration steps
    in (see :class:`LinearOperator`); each step applies A^H A there, and
    ``x`` is read back once at the end.  Zero initialization is mandatory:
    every update lies in the row space, so the limit carries no nullspace
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

    layout = _Layout(op, m.dtype)
    rhs = layout.scatter(op.apply_transpose(m))
    x, step = layout.zeros(), layout.zeros()
    # flat real views (real and imaginary parts in turn for a complex
    # layout), whose v.dot(v) is the squared norm without np.linalg.norm's
    # per-call overhead, which dominates for small operators; the layout's
    # padding holds zeros
    xr, stepr = x.reshape(-1).view(float), step.reshape(-1).view(float)
    update_norm = math.inf
    k = 0
    for k in range(1, max_iters + 1):
        np.subtract(layout.normal(x), rhs, out=step)
        step *= tau
        x -= step
        update_norm = math.sqrt(stepr.dot(stepr))
        xnorm = math.sqrt(xr.dot(xr))
        if update_norm <= cfg.rel_tol * xnorm:
            return LandweberResult(x=layout.gather(x), iterations=k, converged=True,
                                   last_update_norm=update_norm)
    converged = k_bound is not None and k >= k_bound
    return LandweberResult(x=layout.gather(x), iterations=k, converged=converged,
                           last_update_norm=update_norm)


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
