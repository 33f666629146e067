"""Interval bounds on nearly data-consistent solutions.

Given a system matrix A, data b, and a consistency tolerance epsilon, the
set of admissible solutions is the (possibly degenerate) ellipsoid
{x : ||Ax - b||_2 <= epsilon}.  For any weight vector w the value w^T x is
either confined to a closed interval, unbounded (w has a nullspace
component), or undefined (the set is empty).  This module computes those
intervals, the feasible vectors that attain them, entrywise condition
numbers, ellipsoid volume, and the Fisher-information identity check.
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
    factorization is computed once on first use and shared.
    """

    a: np.ndarray | SvdFactors
    b: np.ndarray
    epsilon: float
    rank_rtol: float = core.DEFAULT_RANK_RTOL
    _factors: Optional[SvdFactors] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float).reshape(-1)
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

    def factors(self) -> SvdFactors:
        if self._factors is None:
            self._factors = svd_truncated(self.a, self.rank_rtol)
        return self._factors


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
    target: Target
    residual_norm: float


@dataclass(frozen=True)
class ConditionReport:
    """Global and entrywise conditioning of a matrix."""

    sigma_max: float
    sigma_min_pos: float
    kappa_global: Optional[float]
    kappa_entry: np.ndarray
    spectral_entry: np.ndarray


def _lambda_from(sys: LinearSystem, residual: float) -> Optional[float]:
    """Effective tolerance sqrt(eps^2 - residual^2), or None if the
    feasible set is empty.  Tiny negative values of the discriminant are
    clamped to zero."""
    eps = sys.epsilon
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


def bounds_for(sys: LinearSystem, W=None) -> BoundArrays:
    """Tight interval for w^T x over all nearly data-consistent x, for
    every row w of the k x N weight matrix ``W`` (None: the N coordinates
    x_i, without forming the identity).

    A row is INFEASIBLE when the residual projection of b exceeds epsilon,
    UNBOUNDED when it has a component in the nullspace of A, and otherwise
    gets the interval w^T A^+ b +/- lam * ||Sigma^-1 V^T w||.  All rows
    share one residual projection; midpoints, sensitivities and nullspace
    components come from the products W A^+ b, W V and W V_perp.
    """
    f = sys.factors()
    n = f.shape[1]
    if W is None:
        rows, wnorm, k = (lambda x: x), 1.0, n
    else:
        W = np.asarray(W, dtype=float)
        if W.ndim != 2 or W.shape[1] != n:
            raise DimensionMismatch(f"weight matrix has shape {W.shape}, matrix has {n} columns")
        wnorm = np.linalg.norm(W, axis=1)
        if not np.all(wnorm > 0.0):
            raise ZeroFunctional(f"weight row {int(np.argmin(wnorm))} is identically zero")
        rows, k = W.__matmul__, W.shape[0]
    lam = _lambda_from(sys, core.residual_projection_norm(f, sys.b))
    if lam is None:
        return BoundArrays(np.full(k, 2), *(np.full(k, np.nan) for _ in range(5)), None)
    midpoint = rows(core.pinv_apply(f, sys.b))
    sensitivity = np.linalg.norm(rows(f.v) / f.sigma, axis=1)
    half_width = sensitivity * lam
    lower, upper = midpoint - half_width, midpoint + half_width
    unbounded = np.linalg.norm(rows(f.v_perp), axis=1) > core.DEFAULT_ORTHO_TOL * wnorm
    for arr in (lower, upper, midpoint, half_width, sensitivity):
        arr[unbounded] = np.nan
    return BoundArrays(unbounded.astype(int), lower, upper, midpoint, half_width,
                       sensitivity, lam)


def functional_bound(sys: LinearSystem, w, index: Optional[int] = None) -> EntryBound:
    """Tight interval for w^T x: the single-row case of :func:`bounds_for`."""
    w = np.asarray(w, dtype=float).reshape(1, -1)
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
    interval for w^T x, or (when the functional is unbounded) an arbitrary
    prescribed value ``alpha``."""
    f = sys.factors()
    w = np.asarray(w, dtype=float).reshape(-1)
    bound = functional_bound(sys, w)

    if bound.status is BoundStatus.INFEASIBLE:
        raise InfeasibleSystem("no vector is consistent with the data within epsilon")

    z = core.pinv_apply(f, sys.b)

    if target is Target.ARBITRARY:
        if bound.status is not BoundStatus.UNBOUNDED:
            raise StatusMismatch("arbitrary target requires an unbounded functional")
        if alpha is None:
            raise ValueError("arbitrary target requires a value")
        if not math.isfinite(alpha):
            raise NumericalFailure(f"arbitrary target value must be finite, got {alpha}")
        coeffs, perp_norm = core.nullspace_component(f, w)
        q = (alpha - float(w @ z)) * coeffs / (perp_norm**2)
        x = f.v_perp @ q + z
        return ExtremalSolution(
            x=x,
            achieved_value=float(w @ x),
            target=target,
            residual_norm=_residual_norm(sys, x),
        )

    if bound.status is not BoundStatus.FINITE:
        raise StatusMismatch(f"target {target.value} requires a finite interval")
    # Unit-norm coefficient vector aligned with Sigma^-1 V^T w; riding the
    # ellipsoid boundary along +/- that direction attains the endpoints.
    p = (f.v.T @ w) / f.sigma
    pnorm = np.linalg.norm(p)
    if pnorm > 0:
        p = p / pnorm
        step = bound.lam * (f.v @ (p / f.sigma))
    else:
        step = np.zeros(f.shape[1])
    x = z + step if target is Target.UPPER else z - step
    return ExtremalSolution(
        x=x,
        achieved_value=float(w @ x),
        target=target,
        residual_norm=_residual_norm(sys, x),
    )


def _residual_norm(sys: LinearSystem, x: np.ndarray) -> float:
    if isinstance(sys.a, SvdFactors):
        f = sys.a
        ax = f.u @ (f.sigma * (f.v.T @ x))
    else:
        ax = np.asarray(sys.a) @ x
    return float(np.linalg.norm(ax - sys.b))


def condition_report(a, rank_rtol: float = core.DEFAULT_RANK_RTOL) -> ConditionReport:
    """Global and entrywise condition numbers of ``a``.

    The global condition number is only defined for full column rank and
    is omitted (None) otherwise.  Entrywise values are
    kappa_i = ||(A^+)^T e_i||_2 * sigma_1 and never exceed the global one.
    """
    f = a if isinstance(a, SvdFactors) else svd_truncated(a, rank_rtol)
    n = f.shape[1]
    if f.rank == 0:
        return ConditionReport(
            sigma_max=0.0,
            sigma_min_pos=0.0,
            kappa_global=None,
            kappa_entry=np.zeros(n),
            spectral_entry=np.zeros(n),
        )
    sigma_max = float(f.sigma[0])
    sigma_min_pos = float(f.sigma[-1])
    spectral = np.linalg.norm(f.v / f.sigma, axis=1)
    kappa_global = sigma_max / sigma_min_pos if f.rank == n else None
    return ConditionReport(
        sigma_max=sigma_max,
        sigma_min_pos=sigma_min_pos,
        kappa_global=kappa_global,
        kappa_entry=spectral * sigma_max,
        spectral_entry=spectral,
    )


def global_bounds(a, n_norm: float, rank_rtol: float = core.DEFAULT_RANK_RTOL) -> float:
    """Classical spectral-norm error bound sigma_N^-1 * ||n||_2.

    It bounds the error in the 2-norm, and so also every entry, via
    ||.||_inf <= ||.||_2.
    """
    f = a if isinstance(a, SvdFactors) else svd_truncated(a, rank_rtol)
    if f.rank < f.shape[1]:
        raise RankDeficient("spectral bound requires full column rank")
    return float(n_norm) / float(f.sigma[-1])


def ellipsoid_volume(a, lam: float, rank_rtol: float = core.DEFAULT_RANK_RTOL) -> float:
    """Volume of the solution ellipsoid {x : ||A(x - z)||_2 <= lam}.

    When A is rank deficient the ellipsoid is degenerate and extends
    infinitely along the nullspace; the volume is reported as +inf.
    """
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    f = a if isinstance(a, SvdFactors) else svd_truncated(a, rank_rtol)
    n = f.shape[1]
    if f.rank < n:
        return math.inf
    if lam == 0.0:
        return 0.0
    # sqrt(det((A^T A)^-1)) = prod(1 / sigma_i)
    log_vol = (
        0.5 * n * math.log(math.pi)
        + n * math.log(lam)
        - math.lgamma(0.5 * n + 1.0)
        - float(np.sum(np.log(f.sigma)))
    )
    return math.exp(log_vol)


def crlb_identity_check(a, i: int, rank_rtol: float = core.DEFAULT_RANK_RTOL):
    """Two independent evaluations of e_i^T (A^T A)^+ e_i.

    The left side goes through the pseudoinverse of the Gram matrix, the
    right through the squared sensitivity ||(A^+)^T e_i||_2^2; under white
    unit-variance noise both equal the per-entry variance floor of any
    unbiased estimator.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[1]
    if not 0 <= i < n:
        raise IndexOutOfRange(f"index {i} out of range for N={n}")
    gram_pinv = np.linalg.pinv(a.T @ a)
    lhs = float(gram_pinv[i, i])
    f = svd_truncated(a, rank_rtol)
    e_i = np.zeros(n)
    e_i[i] = 1.0
    rhs = core.pinv_transpose_norm(f, e_i) ** 2
    return lhs, rhs


def epsilon_heuristic(f: SvdFactors, b) -> float:
    """Consistency tolerance inferred from the data residual.

    Assumes the unmodelled perturbation spreads its energy evenly across
    subspaces, so its full norm is estimated by rescaling the observable
    out-of-range part: eps = sqrt(M / (M - N)) * ||P_perp b||_2.
    Requires a strictly overdetermined full-column-rank system.
    """
    m, n = f.shape
    if m <= n or f.rank < n:
        raise NotOverdetermined(
            f"heuristic requires M > N with full column rank (M={m}, N={n}, r={f.rank})"
        )
    return math.sqrt(m / (m - n)) * core.residual_projection_norm(f, b)
