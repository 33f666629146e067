"""Matrix-free computation path for large systems.

When A is too large to factor, the sensitivity quantities are obtained
through matrix-vector products only: the largest singular value (exact
from the eigenvalues of ``normal_blocks`` where an operator carries them,
else by power iteration), gradient (Landweber) iteration converging to the
minimum-norm least-squares solution A^+ m, and a stochastic probing
estimator that recovers all squared row norms of A^+ simultaneously.

Both solves step on A^H A.  For an operator that carries ``normal_blocks``,
as the SENSE operator and every ``from_matrix`` operator do, they keep their
iterates in the blocks' own layout, where one step is one batched product
with the stack; otherwise they keep flat vectors, stepped with
``apply_transpose(apply(x))`` one vector at a time.  The probes of the
estimator step in lockstep,
``PROBE_CHUNK`` at a time, through one loop whose results equal those of
one solve per probe bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import (_as_vector, _check_fraction, _check_int, _check_real, _finite, _magnitude,
                   as_finite_matrix)
from .errors import DimensionMismatch, InvalidStep, NumericalFailure

# Probes that stochastic_diag solves in one lockstep block.  Each holds four
# arrays of the layout (iterate, step, right-hand side and product): 42 KB
# at 32x32 and 0.69 MB at 128x128 (accel 4) for the SENSE operator, so a
# full block takes 22 MB there.
PROBE_CHUNK = 32


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """Abstract M x N operator given by its forward action and its adjoint
    A^H (``apply_transpose``), on complex vectors when ``is_complex``.
    Operators compare and hash by identity, as arrays in ``normal_blocks``
    have no equality to compare by.

    ``normal_blocks`` is an optional ``(stack, index)`` giving A^H A as a
    block diagonal matrix: ``stack`` is a (blocks, n_max, n_max) array of
    Hermitian blocks, each zero-padded to n_max, and ``index`` holds each
    unknown's place in the flattened (blocks, n_max) layout: distinct
    integers in [0, blocks * n_max), else :class:`DimensionMismatch`.  Every
    position of that layout that no unknown holds must have a zero row and
    column in its block, else :class:`DimensionMismatch` naming the block,
    and every entry of the stack must be finite, else
    :class:`NumericalFailure`; both are checked when the operator is made.
    When unset, :meth:`normal` composes the two actions.
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
            index, slots = np.asarray(index), stack.shape[0] * stack.shape[1]
            if not (index.dtype.kind in "iu" and np.all((0 <= index) & (index < slots))
                    and np.unique(index).size == index.size):
                raise DimensionMismatch(
                    f"normal_blocks index must hold distinct integers in [0, {slots}), "
                    f"got {index.dtype} entries {index[:8].tolist()}"
                )
            if not np.isfinite(stack).all():
                raise NumericalFailure("normal_blocks stack contains NaN or Inf entries")
            free = np.ones(slots, bool)
            free[index] = False
            free = free.reshape(stack.shape[:2])
            nonzero = stack[free].any(axis=1) | stack.transpose(0, 2, 1)[free].any(axis=1)
            if nonzero.any():
                block, pos = np.argwhere(free)[np.argmax(nonzero)]
                raise DimensionMismatch(
                    f"normal_blocks block {block} has a nonzero row or column at position "
                    f"{pos}, which no unknown holds"
                )

    def normal(self, x: np.ndarray) -> np.ndarray:
        """A^H A x."""
        layout = _Layout(self, np.asarray(x).dtype)
        return layout.gather(layout.normal(layout.scatter([x])))[0]

    @classmethod
    def from_matrix(cls, a) -> "LinearOperator":
        """The operator of a dense matrix, checked by :func:`as_finite_matrix`
        before any product: it must be 2-D with finite entries, and may have
        no rows or no columns.  It carries A^H A as a one-block stack with
        index ``arange(N)``; a matrix whose A^H A exceeds the float range
        raises :class:`NumericalFailure`."""
        a = as_finite_matrix(a)
        ah = a.conj().T
        with np.errstate(over="ignore", invalid="ignore"):
            gram = _finite(ah @ a, "A^H A of the matrix")
        return cls(
            shape=(a.shape[0], a.shape[1]),
            apply=lambda x, _a=a: _a @ x,
            apply_transpose=lambda y, _ah=ah: _ah @ y,
            is_complex=np.iscomplexobj(a),
            normal_blocks=(gram[None], np.arange(a.shape[1])),
        )


class _Layout:
    """Where the solves keep the iterates of up to ``probes`` probes, one per
    leading index: for an operator with ``normal_blocks``, each probe in the
    (blocks, n_max, 1) layout of its stack, whose padding the block products
    keep exactly zero; otherwise each in a flat vector.

    :meth:`adjoint` places A^H m of each vector m of a list in the layout,
    one probe each, and :meth:`normal` applies A^H A to the first ``len(u)``
    probes.  On a stack, a normal product is one batched product, one
    matrix-vector product per (probe, block), written into one buffer that
    each call reuses, so its result is only valid until the next call.  A
    flat operator takes ``apply_transpose(apply(v))`` one vector at a time.
    """

    def __init__(self, op: LinearOperator, dtype, probes: int = 1):
        fwd, adj = op.apply, op.apply_transpose
        self.adjoint = lambda ms: self.scatter([adj(m) for m in ms])
        if op.normal_blocks is None:
            self.shape, self.index = (op.shape[1],), slice(None)
            self.dtype = np.result_type(dtype, complex if op.is_complex else float)
            self.normal = lambda u: np.array([adj(fwd(v)) for v in u])
        else:
            stack, self.index = op.normal_blocks
            self.shape = stack.shape[:2] + (1,)
            self.dtype = np.result_type(dtype, stack)
            out = np.empty((probes,) + self.shape, self.dtype)
            self.normal = lambda u: np.matmul(stack, u, out=out[:len(u)])

    def scatter(self, vs) -> np.ndarray:
        """The layout of the vectors ``vs``, one probe each."""
        u = np.zeros((len(vs),) + self.shape, self.dtype)
        for row, v in zip(u.reshape(len(vs), -1), vs):
            row[self.index] = v
        return u

    def gather(self, u: np.ndarray) -> np.ndarray:
        """The flat vectors of the probes of ``u``, one row each."""
        return u.reshape(len(u), -1)[:, self.index]


def _check_probes(samples: int, seed: int) -> None:
    """``ValueError`` unless ``samples`` >= 1 and ``seed`` >= 0 are integers."""
    _check_int(samples, "samples", 1)
    _check_int(seed, "seed", 0)


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
    _check_int(trials, "trials", 1)
    _check_int(seed, "seed", 0)
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
    _check_int(iters, "iters", 1)
    _check_int(seed, "seed", 0)
    v = _draw(np.random.default_rng(seed), op, op.shape[1])
    v /= np.linalg.norm(v)
    layout = _Layout(op, v.dtype)
    v = layout.scatter([v])
    estimate = 0.0
    for _ in range(iters):
        w = layout.normal(v)
        estimate = math.sqrt(max(np.vdot(v, w).real, 0.0))
        wnorm = np.linalg.norm(w)
        if wnorm == 0.0:
            return 0.0
        np.divide(w, wnorm, out=v)
    return estimate


def sigma1(op: LinearOperator, seed: int = 0) -> float:
    """The largest singular value of ``op``, for the Landweber step.

    With ``normal_blocks`` (every ``from_matrix`` and SENSE operator) it is
    exact to rounding: the square root of the largest eigenvalue of the
    stack, whose zero padding adds only zero eigenvalues, from one batched
    ``eigvalsh``.  Otherwise it is :func:`power_iteration_sigma1`'s
    estimate, a lower bound, bit for bit.
    """
    if op.normal_blocks is None:
        return power_iteration_sigma1(op, seed=seed)
    _check_int(seed, "seed", 0)
    return math.sqrt(float(np.linalg.eigvalsh(op.normal_blocks[0]).max(initial=0.0)))


@dataclass(frozen=True)
class LandweberConfig:
    """Parameters of the gradient iteration, all checked when the config is
    made: a setting under which no solve can stop correctly raises
    :class:`InvalidStep` naming its field.

    ``sigma1_estimate`` must be > 0 with a nonzero, finite square.  ``tau``
    must lie in (0, 2 / sigma1^2); when None it defaults to the midpoint
    1 / sigma1^2 of the stable interval.  ``sigma_min`` is an optional
    smallest positive singular value; when given it must be > 0 with a
    worst modal factor max |1 - tau s^2| over s in {sigma_min, sigma1}
    below 1 as computed (tau sigma_min^2 < 2 in exact arithmetic), and an
    iteration count sufficient for ``rate_tol`` accuracy is used as an
    extra stop.  ``max_iters`` must be an integer >= 1, ``rel_tol`` finite
    and >= 0, and ``rate_tol`` in (0, 1).  Every setting but ``max_iters``
    must be a real number, not a bool, where it is given.
    """

    sigma1_estimate: float
    tau: Optional[float] = None
    max_iters: int = 10000
    rel_tol: float = 1e-9
    sigma_min: Optional[float] = None
    rate_tol: float = 1e-7

    def __post_init__(self):
        s1 = self.sigma1_estimate
        _check_real(s1, "sigma1_estimate", InvalidStep)
        for name in ("tau", "sigma_min"):  # optional
            if getattr(self, name) is not None:
                _check_real(getattr(self, name), name, InvalidStep)
        if not (s1 > 0.0 and 0.0 < s1 * s1 < math.inf):
            raise InvalidStep(f"sigma1_estimate must be > 0 with a nonzero finite square, got {s1}")
        tau, limit = self.step_size(), 2.0 / (s1 * s1)
        if not 0.0 < tau < limit:
            raise InvalidStep(f"tau {tau} outside the stable interval (0, {limit})")
        # the rate as computed, which rounds to 1 for a tiny sigma_min
        smin = self.sigma_min
        if smin is not None and not (smin > 0.0 and self._rate() < 1.0):
            raise InvalidStep(f"sigma_min must be > 0 with a float modal rate below 1, got {smin}")
        _check_int(self.max_iters, "max_iters", 1, InvalidStep)
        _magnitude(self.rel_tol, "rel_tol", InvalidStep)
        _check_fraction(self.rate_tol, "rate_tol", InvalidStep)

    def step_size(self) -> float:
        s1 = self.sigma1_estimate
        return self.tau if self.tau is not None else 1.0 / (s1 * s1)

    def _rate(self) -> float:
        tau = self.step_size()
        return max(abs(1.0 - tau * s**2) for s in (self.sigma_min, self.sigma1_estimate))

    def iteration_bound(self) -> Optional[int]:
        """Iterations needed so the worst modal factor max_j |1 - tau s_j^2|^K
        drops below ``rate_tol``; None when sigma_min is not supplied."""
        if self.sigma_min is None:
            return None
        rate = self._rate()
        if rate <= 0.0:
            return 1
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
    return _landweber(op, [_as_vector(m, op.shape[0], of="operator")], cfg)[0]


def _landweber(op: LinearOperator, ms: list, cfg: LandweberConfig) -> list[LandweberResult]:
    """:func:`landweber_pinv` of each vector of ``ms`` (checked by the caller),
    with all of them stepping in lockstep in one layout.

    A step is one normal product over the live probes and one elementwise
    update, and each probe's norms are dot products of its own contiguous
    real view, so every probe's iterates, stop test and result are those of
    a solve of that probe alone, bit for bit.  A probe that passes the stop
    test is read back at that step and leaves the block.
    """
    tau = cfg.step_size()
    k_bound = cfg.iteration_bound()
    max_iters = cfg.max_iters if k_bound is None else min(cfg.max_iters, k_bound)

    layout = _Layout(op, np.result_type(*ms), len(ms))
    rhs = layout.adjoint(ms)
    # the iterates and their steps in one C-contiguous array, so that one
    # batched product takes every squared norm: as numpy computes a
    # vector-vector product there, each is v.dot(v) of a probe's real view
    # (real and imaginary parts in turn for a complex layout, whose padding
    # holds zeros), the dot product of a solve of its own
    pairs = np.zeros((2,) + rhs.shape, rhs.dtype)

    def views(pairs):
        rows = pairs.reshape(2 * len(pairs[0]), -1).view(float)
        return pairs[0], pairs[1], rows[:, None, :], rows[:, :, None]

    x, step, rows, cols = views(pairs)
    live = np.arange(len(ms))
    results = [None] * len(ms)
    rel_tol = cfg.rel_tol
    for k in range(1, max_iters + 1):  # max_iters >= 1
        np.subtract(layout.normal(x), rhs, out=step)
        step *= tau
        x -= step
        norms = np.sqrt(np.matmul(rows, cols)).reshape(2, -1)
        update_norm = norms[1]
        done = update_norm <= rel_tol * norms[0]
        if np.count_nonzero(done):
            for p, xp, u in zip(live[done], layout.gather(x[done]), update_norm[done]):
                results[p] = LandweberResult(x=xp, iterations=k, converged=True,
                                             last_update_norm=float(u))
            keep = ~done
            if not keep.any():
                return results
            live, update_norm, rhs = live[keep], update_norm[keep], rhs[keep]
            # indexing axis 1 gives a strided copy, whose reshape in views()
            # would copy again and leave the norm rows detached
            pairs = np.ascontiguousarray(pairs[:, keep])
            x, step, rows, cols = views(pairs)
    converged = k_bound is not None and k >= k_bound
    for p, xp, u in zip(live, layout.gather(x), update_norm):
        results[p] = LandweberResult(x=xp, iterations=k, converged=converged,
                                     last_update_norm=float(u))
    return results


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
    the result is identical under any evaluation order.  The probes are
    solved ``PROBE_CHUNK`` at a time in lockstep, with the results of one
    :func:`landweber_pinv` per probe.  Samples whose inner iteration fails
    to converge are counted, not silently included.
    """
    _check_probes(samples, seed)
    m, n = op.shape
    acc = np.zeros(2 * n if op.is_complex else n)
    iterations = np.zeros(samples, dtype=int)
    last_update = 0.0
    failed = 0
    for start in range(0, samples, PROBE_CHUNK):
        chunk = range(start, min(start + PROBE_CHUNK, samples))
        probes = [_draw(np.random.default_rng([seed, s]), op, m, probe_kind) for s in chunk]
        for s, res in zip(chunk, _landweber(op, probes, cfg)):
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
