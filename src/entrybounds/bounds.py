"""Interval bounds on nearly data-consistent solutions.

Given a system matrix A, data b, and a consistency tolerance epsilon, the
set of admissible solutions is the (possibly degenerate) ellipsoid
{x : ||Ax - b||_2 <= epsilon}.  For any weight vector w the value w^T x is
either confined to a closed interval, unbounded (w has a nullspace
component), or undefined (the set is empty).  This module computes those
intervals, the feasible vectors that attain them, entrywise condition
numbers, ellipsoid volume, and the Fisher-information identity check.

A complex system is bounded without lifting it to real form: the real
functional Re(w^H x) has the interval Re(w^H A^+ b) +/- lam *
||Sigma^-1 V^H w|| on the complex factors, the same interval as w's
lifted real weight on the lifted real system.

A rank tolerance other than the default is chosen where the SVD is made:
pass ``svd_truncated(a, rtol)`` factors, or set ``LinearSystem.rank_rtol``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import core
from .core import SvdFactors, svd_truncated
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InfeasibleSystem,
    NotOverdetermined,
    NumericalFailure,
    RankDeficient,
    SamePair,
    StatusMismatch,
    ZeroFunctional,
)

# Relative slack on eps^2 - residual^2 below which lambda is clamped to 0
# rather than declaring infeasibility (floating-point boundary).
LAMBDA_CLAMP_RTOL = 1e-12

# A residual projection below this fraction of ||b|| is indistinguishable
# from exactly consistent data and is treated as zero, so that eps = 0
# remains feasible for noiseless systems.
RESIDUAL_FLOOR_RTOL = 1e-12


class BoundStatus(enum.Enum):
    FINITE = "finite"
    UNBOUNDED = "unbounded"
    INFEASIBLE = "infeasible"


# Status codes of :class:`BoundArrays` index this tuple.
BOUND_STATUSES = tuple(BoundStatus)


class Target(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"
    ARBITRARY = "arbitrary"


@dataclass
class LinearSystem:
    """The triple (A, b, epsilon) defining the near-consistency set.

    ``a`` may be a dense matrix or precomputed :class:`SvdFactors`; the
    factorization and the residual projection are computed once on first
    use and shared.  The system is complex when ``a`` or ``b`` is: then
    ``b`` is stored as complex, and the unknown x is complex.
    """

    a: np.ndarray | SvdFactors
    b: np.ndarray
    epsilon: float
    rank_rtol: float = core.DEFAULT_RANK_RTOL
    _factors: Optional[SvdFactors] = field(default=None, repr=False, compare=False)
    _residual: Optional[float] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        a = self.a.v if isinstance(self.a, SvdFactors) else self.a
        self.b = core.as_real_or_complex(self.b).reshape(-1)
        if np.iscomplexobj(a):
            self.b = self.b.astype(complex, copy=False)
        self.epsilon = float(self.epsilon)
        if not (math.isfinite(self.epsilon) and np.isfinite(self.b).all()):
            raise NumericalFailure(f"data vector and epsilon must be finite (epsilon={self.epsilon})")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if isinstance(self.a, SvdFactors):
            self._factors = self.a
        m = self.shape[0]
        if self.b.shape[0] != m:
            raise DimensionMismatch(
                f"data vector has length {self.b.shape[0]}, matrix has {m} rows"
            )

    @property
    def shape(self) -> tuple[int, int]:
        if isinstance(self.a, SvdFactors):
            return self.a.shape
        return np.asarray(self.a).shape

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.b)

    def factors(self) -> SvdFactors:
        if self._factors is None:
            self._factors = svd_truncated(self.a, self.rank_rtol)
        return self._factors

    def residual(self) -> float:
        """||b - A A^+ b||_2, the part of b outside the range of A."""
        if self._residual is None:
            self._residual = core.residual_projection_norm(self.factors(), self.b)
        return self._residual


@dataclass(frozen=True)
class EntryBound:
    """Interval result for a single weight vector."""

    status: BoundStatus
    lower: Optional[float] = None
    upper: Optional[float] = None
    midpoint: Optional[float] = None
    half_width: Optional[float] = None
    sensitivity: Optional[float] = None
    lam: Optional[float] = None
    index: Optional[int] = None

    def to_record(self) -> dict:
        return {
            "index": self.index,
            "status": self.status.value,
            "lower": self.lower,
            "upper": self.upper,
            "midpoint": self.midpoint,
            "half_width": self.half_width,
            "sensitivity": self.sensitivity,
        }


@dataclass(frozen=True)
class ExtremalSolution:
    """A feasible vector attaining a requested functional value."""

    x: np.ndarray
    achieved_value: float
    residual_norm: float


@dataclass(frozen=True)
class ConditionReport:
    """Global and entrywise conditioning of a matrix."""

    sigma_max: float
    sigma_min_pos: float
    kappa_global: Optional[float]
    kappa_entry: np.ndarray
    spectral_entry: np.ndarray


def _lambda_from(sys: LinearSystem) -> Optional[float]:
    """Effective tolerance sqrt(eps^2 - residual^2), or None if the
    feasible set is empty.  Tiny negative values of the discriminant are
    clamped to zero."""
    eps, residual = sys.epsilon, sys.residual()
    if residual <= RESIDUAL_FLOOR_RTOL * float(np.linalg.norm(sys.b)):
        residual = 0.0
    lam_sq = eps * eps - residual * residual
    if lam_sq < 0.0:
        if lam_sq >= -LAMBDA_CLAMP_RTOL * eps * eps:
            lam_sq = 0.0
        else:
            return None
    return math.sqrt(lam_sq)


@dataclass(frozen=True)
class BoundArrays:
    """Intervals for the k rows of a weight matrix, as a struct of arrays.

    ``status[k]`` indexes ``BOUND_STATUSES``: 0 finite, 1 unbounded,
    2 infeasible.  The float arrays are NaN where the status is not finite.
    ``lam`` is the effective tolerance, None when the set is empty.
    """

    status: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    midpoint: np.ndarray
    half_width: np.ndarray
    sensitivity: np.ndarray
    lam: Optional[float]

    def entry_bounds(self, index: Optional[Sequence] = None) -> list[EntryBound]:
        """One :class:`EntryBound` per row, labelled by ``index`` or the row number."""
        labels = range(self.status.size) if index is None else index
        cols = zip(self.status.tolist(), self.lower.tolist(), self.upper.tolist(),
                   self.midpoint.tolist(), self.half_width.tolist(), self.sensitivity.tolist())
        out = []
        for i, (code, lo, hi, mid, half, sens) in zip(labels, cols):
            status = BOUND_STATUSES[code]
            if status is BoundStatus.FINITE:
                out.append(EntryBound(status, lo, hi, mid, half, sens, self.lam, i))
            else:
                out.append(EntryBound(status, lam=self.lam, index=i))
        return out


def _unit_rows(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U, e) with W[k] = 2**e[k] * U[k] exactly and the largest part of
    U[k] near 1, so that products and norms of U's rows stay in range."""
    peak = np.maximum(np.abs(W.real), np.abs(W.imag)).max(axis=1)
    if not np.all(peak > 0.0):
        raise ZeroFunctional(f"weight row {int(np.argmin(peak))} is identically zero")
    e = np.maximum(np.frexp(peak)[1], -1021)  # 2**-e stays a normal float
    scale = np.ldexp(1.0, -e)[:, None]
    u = W * scale
    if not np.array_equal(u / scale, W):
        raise NumericalFailure("a weight row spans too many magnitudes to be rescaled exactly")
    return u, e


def _unit_sigma(f: SvdFactors) -> tuple[np.ndarray, int]:
    """(s, es) with sigma = 2**es * s exactly and s in (rtol / 2, 1)."""
    es = int(np.frexp(f.sigma.max(initial=0.0))[1])
    return np.ldexp(f.sigma, -es), es


def bounds_for(sys: LinearSystem, W=None) -> BoundArrays:
    """Tight interval for w^T x over all nearly data-consistent x, for
    every row w of the k x N weight matrix ``W`` (None: the N coordinates
    x_i, without forming the identity).

    A row is INFEASIBLE when the residual projection of b exceeds epsilon,
    UNBOUNDED when it has a component in the nullspace of A, and otherwise
    gets the interval w^T A^+ b +/- lam * ||Sigma^-1 V^T w||.  All rows
    share the system's one residual projection; midpoints, sensitivities
    and nullspace components come from the products W A^+ b, W V and
    W V_perp.

    On a complex system a row w (real or complex) bounds Re(w^H x), and
    ``W=None`` gives 2N rows: Re x_i for every i, then Im x_i (the column
    order of the lifted real system).  A complex ``W`` on a real system
    raises :class:`DimensionMismatch`; a NaN or infinite weight, or an
    interval outside the float range, :class:`NumericalFailure`.  The
    products take rows and singular values scaled exactly by powers of two.
    """
    f = sys.factors()
    n = f.shape[1]
    if W is None:
        if sys.is_complex:
            # Im x_i = Re(conj(1j) x_i): the rows of [I; 1j I], conjugated
            rows, k = (lambda x: np.concatenate([x, -1j * x])), 2 * n
        else:
            rows, k = (lambda x: x), n
        wnorm, e = 1.0, 0
    else:
        W = core.as_real_or_complex(W)
        if W.ndim != 2 or W.shape[1] != n:
            raise DimensionMismatch(f"weight matrix has shape {W.shape}, matrix has {n} columns")
        if np.iscomplexobj(W) and not sys.is_complex:
            raise DimensionMismatch("a complex weight matrix needs a complex system")
        if not np.isfinite(W).all():
            raise NumericalFailure("weight matrix must be finite")
        W, e = _unit_rows(W)
        wnorm = np.linalg.norm(W, axis=1)
        rows, k = W.conj().__matmul__, W.shape[0]
    lam = _lambda_from(sys)
    if lam is None:
        return BoundArrays(np.full(k, 2), *(np.full(k, np.nan) for _ in range(5)), None)
    sigma, es = _unit_sigma(f)
    mid = rows(core.pinv_apply(f, sys.b)).real
    sens = np.ldexp(np.linalg.norm(rows(f.v) / sigma, axis=1), -es)
    half = sens * lam
    unbounded = np.linalg.norm(rows(f.v_perp), axis=1) > core.DEFAULT_ORTHO_TOL * wnorm
    # back from the units of the scaled rows: exact unless a value leaves the float range
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.array([mid - half, mid + half, mid, half, sens])
        lower, upper, midpoint, half_width, sensitivity = out = np.ldexp(scaled, e)
        lost = ~unbounded & ~(np.isfinite(out) & (np.ldexp(out, -e) == scaled)).all(axis=0)
    if lost.any():
        raise NumericalFailure(f"weight row {int(np.argmax(lost))}: bounds must be finite")
    for arr in (lower, upper, midpoint, half_width, sensitivity):
        arr[unbounded] = np.nan
    return BoundArrays(unbounded.astype(int), lower, upper, midpoint, half_width,
                       sensitivity, lam)


def functional_bound(sys: LinearSystem, w, index: Optional[int] = None) -> EntryBound:
    """Tight interval for w^T x (Re(w^H x) on a complex system): the
    single-row case of :func:`bounds_for`."""
    w = core.as_real_or_complex(w).reshape(1, -1)
    return bounds_for(sys, w).entry_bounds([index])[0]


def entrywise_bounds(sys: LinearSystem) -> list[EntryBound]:
    """Interval for every coordinate x_i, sharing one SVD."""
    return bounds_for(sys).entry_bounds()


def difference_rows(n: int, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """Weight matrix whose k-th row is e_i - e_j for the k-th pair (i, j)."""
    w = np.zeros((len(pairs), n))
    for k, (i, j) in enumerate(pairs):
        if not (0 <= i < n) or not (0 <= j < n):
            raise IndexOutOfRange(f"pair ({i}, {j}) out of range for N={n}")
        if i == j:
            raise SamePair(f"difference pair has identical indices ({i}, {i})")
        w[k, i], w[k, j] = 1.0, -1.0
    return w


def adjacent_difference_bounds(
    sys: LinearSystem, pairs: Sequence[tuple[int, int]]
) -> list[EntryBound]:
    """Intervals for coordinate differences x_i - x_j over given pairs."""
    return bounds_for(sys, difference_rows(sys.shape[1], pairs)).entry_bounds()


def extremal_solution(
    sys: LinearSystem,
    w,
    target: Target,
    alpha: Optional[float] = None,
) -> ExtremalSolution:
    """Construct a feasible x attaining the lower or upper end of the
    interval for w^T x (Re(w^H x) on a complex system), or (when the
    functional is unbounded) an arbitrary prescribed value ``alpha``."""
    f = sys.factors()
    w = core.as_real_or_complex(w).reshape(-1)
    bound = bounds_for(sys, w[None, :])
    status = BOUND_STATUSES[bound.status[0]]

    if status is BoundStatus.INFEASIBLE:
        raise InfeasibleSystem("no vector is consistent with the data within epsilon")

    z = core.pinv_apply(f, sys.b)
    # w = 2**e * u exactly: the products below take u and stay in range
    (u,), (e,) = _unit_rows(w[None, :])
    with np.errstate(over="ignore", invalid="ignore"):
        if target is Target.ARBITRARY:
            if status is not BoundStatus.UNBOUNDED:
                raise StatusMismatch("arbitrary target requires an unbounded functional")
            if alpha is None:
                raise ValueError("arbitrary target requires a value")
            if not math.isfinite(alpha):
                raise NumericalFailure(f"arbitrary target value must be finite, got {alpha}")
            coeffs, perp_norm = core.nullspace_component(f, u)
            q = (np.ldexp(alpha, -e) - _re_dot(u, z)) * coeffs / (perp_norm**2)
            x = f.v_perp @ q + z
        else:
            if status is not BoundStatus.FINITE:
                raise StatusMismatch(f"target {target.value} requires a finite interval")
            # Unit-norm coefficient vector aligned with Sigma^-1 V^H w; riding
            # the ellipsoid boundary along +/- that direction attains the
            # endpoints.  On a finite row its norm in these units is >= ~|u|.
            p = (f.v.conj().T @ u) / _unit_sigma(f)[0]
            p = p / np.linalg.norm(p)
            step = bound.lam * (f.v @ (p / f.sigma))
            x = z + step if target is Target.UPPER else z - step
        achieved = float(np.ldexp(_re_dot(u, x), e))
    if not (math.isfinite(achieved) and np.isfinite(x).all()):
        raise NumericalFailure(f"target {target.value}: the vector must be finite")
    return ExtremalSolution(x=x, achieved_value=achieved, residual_norm=_residual_norm(sys, x))


def _re_dot(w: np.ndarray, x: np.ndarray) -> float:
    """Re(w^H x); w^T x for real vectors."""
    return float((w.conj() @ x).real)


def _residual_norm(sys: LinearSystem, x: np.ndarray) -> float:
    if isinstance(sys.a, SvdFactors):
        f = sys.a
        ax = f.u @ (f.sigma * (f.v.conj().T @ x))
    else:
        ax = np.asarray(sys.a) @ x
    return float(np.linalg.norm(ax - sys.b))


def condition_report(a) -> ConditionReport:
    """Global and entrywise condition numbers of ``a``.

    The global condition number is only defined for full column rank and
    is omitted (None) otherwise.  Entrywise values are
    kappa_i = ||(A^+)^H e_i||_2 * sigma_1 and never exceed the global one.
    For a complex matrix they come in the order of ``bounds_for`` with
    ``W=None``: the N real parts, then the N imaginary parts, which share
    one value per entry.
    """
    f = a if isinstance(a, SvdFactors) else svd_truncated(a)
    n = f.shape[1]
    reps = 2 if f.is_complex else 1
    sigma_max = float(f.sigma[0]) if f.rank else 0.0
    sigma_min_pos = float(f.sigma[-1]) if f.rank else 0.0
    spectral = np.tile(np.linalg.norm(f.v / f.sigma, axis=1), reps)
    kappa_global = sigma_max / sigma_min_pos if f.rank == n else None
    return ConditionReport(
        sigma_max=sigma_max,
        sigma_min_pos=sigma_min_pos,
        kappa_global=kappa_global,
        kappa_entry=spectral * sigma_max,
        spectral_entry=spectral,
    )


def global_bounds(a, n_norm: float) -> float:
    """Classical spectral-norm error bound sigma_N^-1 * ||n||_2.

    It bounds the error in the 2-norm, and so also every entry, via
    ||.||_inf <= ||.||_2.
    """
    f = a if isinstance(a, SvdFactors) else svd_truncated(a)
    if f.rank < f.shape[1]:
        raise RankDeficient("spectral bound requires full column rank")
    return float(n_norm) / float(f.sigma[-1])


def ellipsoid_volume(a, lam: float) -> float:
    """Volume of the solution ellipsoid {x : ||A(x - z)||_2 <= lam}.

    When A is rank deficient the ellipsoid is degenerate and extends
    infinitely along the nullspace; the volume is reported as +inf.  A
    complex A gives the volume in the 2N real dimensions of x, where each
    singular value counts twice, as in the lifted real matrix.
    """
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    f = a if isinstance(a, SvdFactors) else svd_truncated(a)
    if f.rank < f.shape[1]:
        return math.inf
    if lam == 0.0:
        return 0.0
    reps = 2 if f.is_complex else 1
    n = reps * f.shape[1]
    # sqrt(det((A^T A)^-1)) = prod(1 / sigma_i)
    log_vol = (
        0.5 * n * math.log(math.pi)
        + n * math.log(lam)
        - math.lgamma(0.5 * n + 1.0)
        - reps * float(np.sum(np.log(f.sigma)))
    )
    return math.exp(log_vol)


def crlb_identity_check(a, i: int):
    """Two independent evaluations of e_i^T (A^H A)^+ e_i.

    The left side goes through the pseudoinverse of the Gram matrix, the
    right through the squared sensitivity ||(A^+)^H e_i||_2^2; under white
    unit-variance noise both equal the per-entry variance floor of any
    unbiased estimator.
    """
    a = core.as_real_or_complex(a)
    n = a.shape[1]
    if not 0 <= i < n:
        raise IndexOutOfRange(f"index {i} out of range for N={n}")
    gram_pinv = np.linalg.pinv(a.conj().T @ a)
    lhs = float(gram_pinv[i, i].real)
    f = svd_truncated(a)
    e_i = np.zeros(n)
    e_i[i] = 1.0
    rhs = core.pinv_transpose_norm(f, e_i) ** 2
    return lhs, rhs


def epsilon_heuristic(f: SvdFactors, b) -> float:
    """Consistency tolerance inferred from the data residual.

    Assumes the unmodelled perturbation spreads its energy evenly across
    subspaces, so its full norm is estimated by rescaling the observable
    out-of-range part: eps = sqrt(M / (M - N)) * ||P_perp b||_2.
    Requires a strictly overdetermined full-column-rank system.  For a
    complex system M and N count complex rows and columns; the lifted real
    counts 2M and 2N give the same factor.
    """
    return heuristic_scale(f) * core.residual_projection_norm(f, b)


def heuristic_scale(f: SvdFactors) -> float:
    """The factor sqrt(M / (M - N)) of :func:`epsilon_heuristic`, which
    multiplies a residual projection already at hand."""
    m, n = f.shape
    if m <= n or f.rank < n:
        kind = "complex " if f.is_complex else ""
        raise NotOverdetermined(
            f"heuristic requires M > N with full column rank ({kind}M={m}, N={n}, r={f.rank})"
        )
    return math.sqrt(m / (m - n))
