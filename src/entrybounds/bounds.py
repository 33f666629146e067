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
||(A^+)^H w|| on the complex factors, the same interval as w's
lifted real weight on the lifted real system.

A system sets its rank tolerance with ``LinearSystem.rank_rtol``;
``condition_report``, ``global_bounds``, ``ellipsoid_volume`` and
``crlb_identity_check`` take a system, whose cached factors they use, or
a matrix, which they read as a system with zero data.  The interval of a row
and both its extremal vectors can come from one evaluation of its products.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import core
from .core import svd_truncated
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

# Columns of the largest triangle that np.linalg.inv inverts whole;
# :func:`_triangular_inverse` splits a larger one into 2 x 2 blocks.
TRIANGLE_LEAF = 32


class BoundStatus(enum.Enum):
    FINITE = "finite"
    UNBOUNDED = "unbounded"
    INFEASIBLE = "infeasible"


# Status codes of :class:`BoundArrays` index this tuple.
BOUND_STATUSES = tuple(BoundStatus)
STATUS_FINITE, STATUS_UNBOUNDED, STATUS_INFEASIBLE = range(len(BOUND_STATUSES))


class Target(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"
    ARBITRARY = "arbitrary"


@dataclass(frozen=True, eq=False)
class _Factored:
    """A system factored as A^+ = 2**-es K G^H, where G has orthonormal
    columns and spans the range of A, and its data as b = G g + (a part of
    norm ``residual`` outside that range), with ``b_norm`` = ||b||; ``key``
    holds the arrays it was computed from.  A ``g`` or ``residual`` beyond
    the float range raises :class:`NumericalFailure` when it is made.

    A tall full-rank A = Q R takes K = (R / 2**es)^-1 and G = Q; any other
    A = U diag(sigma) V^H takes K = V diag(2**es / sigma) and G = U.  In
    both, 2**es is the power of two just above sigma_1, so K stays in
    range.  ``path`` names the way K was made.
    """

    key: tuple
    k: np.ndarray  # N x r
    es: int
    sigma: np.ndarray  # the r retained singular values of A
    v_perp: np.ndarray  # N x (N - r), an orthonormal basis of the nullspace
    residual: float
    g: np.ndarray  # b in the basis G
    b_norm: float
    path: str  # "triangle" or "svd"

    def __post_init__(self):
        core._finite(np.append(self.g, self.residual), "b in the factors of A")

    @functools.cached_property
    def solution(self) -> np.ndarray:
        """A^+ b, formed on first use: inf or NaN where it leaves the float range."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.apply(self.g)

    def apply(self, g: np.ndarray) -> np.ndarray:
        """A^+ G g, for coefficients g in the basis G, scaled after the product."""
        return (self.k @ g) * _inv_pow2(self.es)

    def sensitivities(self, wk: np.ndarray) -> np.ndarray:
        """||(A^+)^H w||_2 for every row w^H K of ``wk``: inf beyond the float range."""
        with np.errstate(over="ignore"):
            return np.ldexp(np.linalg.norm(wk, axis=1), -self.es)

    @functools.cached_property
    def entry_sensitivities(self) -> np.ndarray:
        """||(A^+)^H e_i||_2 for every coordinate i, from the rows of K; on a
        complex system Re x_i and Im x_i share it."""
        return self.sensitivities(self.k)


def _inv_pow2(es: int) -> float:
    """2**-es for the exponent of sigma_1; :class:`NumericalFailure` when
    sigma_1 < 2**-1024 puts it beyond the float range."""
    if es < -1023:
        raise NumericalFailure("sigma_1 is below 2**-1024: its reciprocal exceeds the float range")
    return math.ldexp(1.0, -es)


def _triangular_inverse(r: np.ndarray) -> np.ndarray:
    """The inverse of the nonsingular upper triangle ``r``, by 2 x 2 blocks:
    [[A, B], [0, D]]^-1 = [[A^-1, -A^-1 B D^-1], [0, D^-1]], with the
    inverses of A and D taken the same way, down to blocks of at most
    TRIANGLE_LEAF columns, which np.linalg.inv inverts."""
    n = r.shape[0]
    if n <= TRIANGLE_LEAF:
        return np.linalg.inv(r)
    h = n // 2
    a_inv, d_inv = _triangular_inverse(r[:h, :h]), _triangular_inverse(r[h:, h:])
    out = np.zeros_like(r)
    out[:h, :h], out[h:, h:] = a_inv, d_inv
    out[:h, h:] = -(a_inv @ r[:h, h:]) @ d_inv
    return out


def _factor(a: np.ndarray, b: np.ndarray, rtol: float) -> _Factored:
    """Factors of (a, b) truncated at ``rtol``.  A matrix with at least
    twice as many rows as columns is reduced first: one QR of [A | b]
    gives the N x N triangle R, with the singular values of A, and b in
    the basis of Q.  At full rank R itself is inverted; below it, R is
    factored as A is below that shape, where the QR saves nothing.  A
    triangle [R | c] that leaves the float range, in A's columns or in b's,
    falls back to the SVD of A, which LAPACK rescales.  A ``b`` whose norm,
    or whose part in or outside the range, exceeds the float range raises
    :class:`NumericalFailure`."""
    key = (a, b, rtol)
    a = core._as_matrix(a)
    b_norm = core._norm(b)
    m, n = a.shape
    rho = 0.0
    if m >= 2 * n:
        # the reflections may overflow even where A and ||b|| fit; a triangle
        # [R | c] past the float range falls back to the SVD of A
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.linalg.qr(np.column_stack([a, b]), mode="r")
        if np.isfinite(r).all():
            c = r[:, n]
            a, b, rho = r[:n, :n], c[:n], core._norm(c[n:])
            # sigma_n <= min|R_ii| and max|R_ii| <= sigma_1, so a diagonal that fails
            # the rank rule shows R rank-deficient without this values-only SVD
            diag = np.abs(np.diagonal(a))
            sigma = core._svd(a, compute_uv=False) if diag.min() > rtol * diag.max() else None
            if sigma is not None and core._rank(sigma, rtol) == n:
                es = core._unit_sigma(sigma)[1]
                k = _triangular_inverse(a * _inv_pow2(es))
                return _Factored(key, k, es, sigma, np.zeros((n, 0), k.dtype), rho, b, b_norm,
                                 "triangle")
    f = svd_truncated(a, rtol)
    d, es = core._unit_sigma(f.sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        g = f.u.conj().T @ b
        residual = math.hypot(core._norm(b - f.u @ g), rho)
    return _Factored(key, f.v / d, es, f.sigma, f.v_perp, residual, g, b_norm, "svd")


def _system(a) -> LinearSystem:
    """``a`` if it is a system; a matrix is read, and checked, as the system (a, 0, 0)."""
    return a if isinstance(a, LinearSystem) else LinearSystem(a, np.zeros(np.shape(a)[:1]), 0.0)


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """The triple (A, b, epsilon) defining the near-consistency set.

    Systems are frozen, like every other value of the package: assigning a
    field raises ``dataclasses.FrozenInstanceError``, and
    ``dataclasses.replace`` makes a changed system, running every check
    below.  The factorization of ``a``, truncated at ``rank_rtol``, the
    residual projection and ``A^+ b`` are computed once on first use.  A
    copy that ``replace`` makes shares them only when its ``a``, ``b`` and
    ``rank_rtol`` are the objects they were computed from; a change inside
    the arrays is not detected.  Like the caches, two systems are equal
    only if they are the same object.  The system is complex when ``a`` or
    ``b`` is: then both are stored as complex, and the unknown x is
    complex.

    Every field but the entries of ``a`` is checked when the system is
    made, in the order ``a``, ``rank_rtol``, ``b``, ``epsilon``: an ``a``
    that is not 2-D, or a ``b`` whose length is not its row count, raises
    :class:`DimensionMismatch`; a ``rank_rtol`` or ``epsilon`` that is not
    a real number, a ``rank_rtol`` outside (0, 1) or a negative
    ``epsilon``, ``ValueError``; and a non-finite ``b`` or ``epsilon``,
    :class:`NumericalFailure`.  That ``a`` is finite
    and at least 1 x 1 is checked when the factors are made, once per
    matrix object, so the copies that ``replace`` makes with a new
    ``epsilon`` do not scan ``a`` again.
    """

    a: np.ndarray
    b: np.ndarray
    epsilon: float
    rank_rtol: float = core.DEFAULT_RANK_RTOL
    _cache: Optional[_Factored] = field(default=None, repr=False)

    def __post_init__(self):
        a = core._as_2d(self.a)
        core._check_fraction(self.rank_rtol, "rank tolerance")
        b = core._as_vector(self.b, a.shape[0])
        if np.iscomplexobj(a) or np.iscomplexobj(b):
            a, b = a.astype(complex, copy=False), b.astype(complex, copy=False)
        epsilon = core._magnitude(self.epsilon, "epsilon")
        cache = self._cache
        if cache is not None and any(x is not y for x, y in zip((a, b, self.rank_rtol), cache.key)):
            cache = None
        for name, value in (("a", a), ("b", b), ("epsilon", epsilon), ("_cache", cache)):
            object.__setattr__(self, name, value)

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.b)

    def _factored(self) -> _Factored:
        if self._cache is None:
            object.__setattr__(self, "_cache", _factor(self.a, self.b, self.rank_rtol))
        return self._cache

    @property
    def rank(self) -> int:
        """The numerical rank of ``a`` at ``rank_rtol``."""
        return self._factored().sigma.size

    def residual(self) -> float:
        """||b - A A^+ b||_2, the part of b outside the range of A."""
        return self._factored().residual

    def solution(self) -> np.ndarray:
        """A^+ b, the center of the feasible set (a copy of the cached vector);
        :class:`NumericalFailure` if it leaves the float range."""
        return core._finite(self._factored().solution, "A^+ b").copy()


# The value columns of an interval, in the order of EntryBound, BoundArrays and records.
_COLUMNS = ("lower", "upper", "midpoint", "half_width", "sensitivity")


@dataclass(frozen=True)
class EntryBound:
    """Interval result for a single weight vector; its record holds
    ``index``, ``status`` and the value columns ``_COLUMNS``, in that order."""

    status: BoundStatus
    lower: Optional[float] = None
    upper: Optional[float] = None
    midpoint: Optional[float] = None
    half_width: Optional[float] = None
    sensitivity: Optional[float] = None
    lam: Optional[float] = None
    index: Optional[int] = None

    def to_record(self) -> dict:
        return {"index": self.index, "status": self.status.value,
                **{c: getattr(self, c) for c in _COLUMNS}}


@dataclass(frozen=True)
class ExtremalSolution:
    """A feasible vector attaining a requested functional value; ``bound`` is its row's interval."""

    x: np.ndarray
    achieved_value: float
    residual_norm: float
    bound: EntryBound


@dataclass(frozen=True)
class ConditionReport:
    """Global and entrywise conditioning of a matrix."""

    sigma_max: float
    sigma_min_pos: float
    kappa_global: Optional[float]
    spectral_entry: np.ndarray

    @property
    def kappa_entry(self) -> np.ndarray:
        """The entrywise condition numbers ||(A^+)^H e_i||_2 * sigma_1."""
        return self.spectral_entry * self.sigma_max


def _lambda_from(sys: LinearSystem) -> Optional[float]:
    """Effective tolerance sqrt(eps^2 - residual^2), or None if the
    feasible set is empty.  Tiny negative values of the discriminant are
    clamped to zero.  The squares are taken in units of a power of two
    near the larger of eps and the residual, so they stay in range."""
    fc = sys._factored()
    eps, residual = sys.epsilon, fc.residual
    if residual <= RESIDUAL_FLOOR_RTOL * fc.b_norm:
        residual = 0.0
    e = math.frexp(max(eps, residual))[1]
    eps, residual = math.ldexp(eps, -e), math.ldexp(residual, -e)
    lam_sq = eps * eps - residual * residual
    if lam_sq < 0.0:
        if lam_sq >= -LAMBDA_CLAMP_RTOL * eps * eps:
            lam_sq = 0.0
        else:
            return None
    return math.ldexp(math.sqrt(lam_sq), e)


@dataclass(frozen=True)
class BoundArrays:
    """Intervals for the k rows of a weight matrix, as a struct of arrays.

    ``status[k]`` indexes ``BOUND_STATUSES``: 0 finite, 1 unbounded,
    2 infeasible.  The float arrays, the value columns ``_COLUMNS`` in that
    order, are NaN where the status is not finite.  ``lam`` is the
    effective tolerance, None when the set is empty.
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
        rows = zip(self.status.tolist(), *(getattr(self, c).tolist() for c in _COLUMNS))
        out = []
        for i, (code, *values) in zip(labels, rows):
            status = BOUND_STATUSES[code]
            if status is BoundStatus.FINITE:
                out.append(EntryBound(status, *values, self.lam, i))
            else:
                out.append(EntryBound(status, lam=self.lam, index=i))
        return out


class _RowProducts(NamedTuple):
    """Products of the weight rows w_k = 2**e[k] * u_k, in units of 2**e[k],
    with the factors K and V_perp of :class:`_Factored`.  The coordinate and
    the pair rows are their own units: u_k = w_k and e[k] = 0.  ``unbounded``
    is the one status test of every family; intervals and extremals read it."""

    u: Optional[np.ndarray]  # None for the coordinate and the pair rows
    e: np.ndarray
    lam: Optional[float]  # None when the feasible set is empty
    mid: np.ndarray  # Re(u_k^H A^+ b), 2**-es Re(wk g) on the dense and the pair rows
    wk: Optional[np.ndarray]  # u_k^H K; None for the coordinate rows
    sens: np.ndarray  # ||(A^+)^H u_k||
    wv_perp: Optional[np.ndarray]  # u_k^H V_perp; None for the coordinate rows
    perp: np.ndarray  # ||V_perp^H u_k||
    unbounded: np.ndarray  # perp above the nullspace tolerance


def _row_products(sys: LinearSystem, W=None, *, entries=None, pairs=None) -> _RowProducts:
    """The products of one family of rows, validated and scaled as
    :func:`bounds_for` states; all three meet in one return and one nullspace
    test, UNBOUNDED where ||V_perp^H u_k|| > DEFAULT_ORTHO_TOL * ||u_k||:

    - the rows of a dense ``W``, multiplied with the factors, so that no
      midpoint reads A^+ b;
    - with ``W=None``, the coordinate rows of :func:`bounds_for` (on a
      complex system Re x_i, then Im x_i), or those numbered in
      ``entries``: rows of A^+ b and V_perp gathered, and the sensitivities
      the factors keep for every coordinate.  An entry outside [0, rows)
      (rows = 2N on a complex system) raises :class:`IndexOutOfRange`;
    - with ``pairs``, the k x 2 index array that :func:`_pair_index`
      checked, the differences x_i - x_j (their real parts on a complex
      system), the rows e_i - e_j: rows of K and V_perp subtracted.  Each
      product is the dense one, which takes the row in units of 2, times 2
      exactly, so every interval equals the dense one up to the sign of a
      zero.

    The entries and the weight matrix are checked before the system is factored.
    """
    n = sys.shape[1]
    reps = 2 if sys.is_complex else 1
    u = wk = wv_perp = None
    if W is None and entries is not None:
        idx, outside = _index_array(entries, reps * n)
        if outside.any():
            i = int(idx[outside][0])
            raise IndexOutOfRange(f"entry index {i} out of range for {reps * n} rows")
    elif W is not None:
        W = core.as_real_or_complex(W)
        if W.ndim != 2 or W.shape[1] != n:
            raise DimensionMismatch(f"weight matrix has shape {W.shape}, matrix has {n} columns")
        if np.iscomplexobj(W) and not sys.is_complex:
            raise DimensionMismatch("a complex weight matrix needs a complex system")
        if not np.isfinite(W).all():
            raise NumericalFailure("weight matrix must be finite")
        # W[k] = 2**e[k] * u[k] exactly, with the largest part of u[k] near 1,
        # so that products and norms of u's rows stay in range
        peak = np.maximum(np.abs(W.real), np.abs(W.imag)).max(axis=1)
        if not np.all(peak > 0.0):
            raise ZeroFunctional(f"weight row {int(np.argmin(peak))} is identically zero")
        e = np.maximum(np.frexp(peak)[1], -1021)  # 2**-e stays a normal float
        scale = np.ldexp(1.0, -e)[:, None]
        u = W * scale
        if not np.array_equal(u / scale, W):
            raise NumericalFailure("a weight row spans too many magnitudes to be rescaled exactly")
        wnorm = np.linalg.norm(u, axis=1)
    fc = sys._factored()
    if pairs is not None:
        i, j = pairs.T
        wk, wv_perp = fc.k[i] - fc.k[j], fc.v_perp[i] - fc.v_perp[j]
        e, wnorm = np.zeros(i.size, dtype=int), math.sqrt(2.0)
    elif W is None:
        x = fc.solution  # a NaN midpoint raises in _bound_arrays
        mid = np.concatenate([x.real, x.imag]) if reps == 2 else x
        sens = np.tile(fc.entry_sensitivities, reps)
        perp = np.tile(np.linalg.norm(fc.v_perp, axis=1), reps)
        if entries is not None:
            mid, sens, perp = mid[idx], sens[idx], perp[idx]
        e, wnorm = np.zeros(mid.size, dtype=int), 1.0  # a coordinate row is a unit vector
    else:
        wk, wv_perp = u.conj() @ fc.k, u.conj() @ fc.v_perp
    if wk is not None:  # the pair and the dense rows, from their products with the factors
        perp = np.linalg.norm(wv_perp, axis=1)
        # on an unbounded row the product may reach inf - inf; a bounded row's
        # non-finite midpoint raises in _bound_arrays
        with np.errstate(over="ignore", invalid="ignore"):
            mid = (wk @ fc.g).real * _inv_pow2(fc.es)
        sens = fc.sensitivities(wk)
    return _RowProducts(u, e, _lambda_from(sys), mid, wk, sens, wv_perp, perp,
                        perp > core.DEFAULT_ORTHO_TOL * wnorm)  # the one nullspace test


def bounds_for(sys: LinearSystem, W=None) -> BoundArrays:
    """Tight interval for w^T x over all nearly data-consistent x, for
    every row w of the k x N weight matrix ``W`` (None: the N coordinates
    x_i, without forming the identity).

    A row is INFEASIBLE when the residual projection of b exceeds epsilon,
    UNBOUNDED when it has a component in the nullspace of A, and otherwise
    gets the interval w^T A^+ b +/- lam * ||(A^+)^H w||.  All rows
    share the system's one residual projection; midpoints and the rest
    come from the products W K and W V_perp, with the factors
    A^+ = 2**-es K G^H and b = G g + (a residual), never from A^+ b.
    The coordinate rows of ``W=None`` are read from A^+ b and the row
    norms of K instead.

    On a complex system a row w (real or complex) bounds Re(w^H x), and
    ``W=None`` gives 2N rows: Re x_i for every i, then Im x_i (the column
    order of the lifted real system).  A complex ``W`` on a real system
    raises :class:`DimensionMismatch`; a NaN or infinite weight, or an
    interval outside the float range, :class:`NumericalFailure`.  The
    products take rows and singular values scaled exactly by powers of two.
    """
    return _bound_arrays(_row_products(sys, W))


def _bound_arrays(p: _RowProducts) -> BoundArrays:
    """The intervals of :func:`bounds_for` from the products ``p`` of its rows."""
    k = p.e.size
    if p.lam is None:
        return BoundArrays(np.full(k, STATUS_INFEASIBLE), *np.full((len(_COLUMNS), k), np.nan), None)
    with np.errstate(over="ignore", invalid="ignore"):
        half = p.sens * p.lam
        out = np.array([p.mid - half, p.mid + half, p.mid, half, p.sens])  # in _COLUMNS order
        # coordinate and pair rows are never rescaled; skipping the round trip
        # for them keeps every byte and halves this call on the 204 coordinate
        # rows of a SENSE line (15 vs 28 us)
        if p.e.any():
            # back from the units of the scaled rows: exact unless a value leaves the float range
            scaled, out = out, np.ldexp(out, p.e)
            kept = np.isfinite(out) & (np.ldexp(out, -p.e) == scaled)
        else:
            kept = np.isfinite(out)
        lost = ~p.unbounded & ~kept.all(axis=0)
    if lost.any():
        raise NumericalFailure(f"weight row {int(np.argmax(lost))}: bounds must be finite")
    if p.unbounded.any():
        out[:, p.unbounded] = np.nan
    return BoundArrays(p.unbounded.astype(int), *out, p.lam)


def functional_bound(sys: LinearSystem, w, index: Optional[int] = None) -> EntryBound:
    """Tight interval for w^T x (Re(w^H x) on a complex system): the
    single-row case of :func:`bounds_for`."""
    w = core.as_real_or_complex(w).reshape(1, -1)
    return bounds_for(sys, w).entry_bounds([index])[0]


def entrywise_bounds(sys: LinearSystem,
                     entries: Optional[Sequence[int]] = None) -> list[EntryBound]:
    """Interval for every coordinate x_i, sharing one factorization: the
    rows of :func:`bounds_for` with ``W=None``, or only those numbered in
    ``entries``, labelled by their numbers.  A number outside [0, N) (on a
    complex system [0, 2N)), one that is not an integer, or entries that
    are not a 1-D sequence raise :class:`IndexOutOfRange`."""
    return _bound_arrays(_row_products(sys, entries=entries)).entry_bounds(entries)


def _index_array(idx, size: int, shape: tuple = (None,)) -> tuple[np.ndarray, np.ndarray]:
    """``idx`` as an index array of ``shape`` (None: any length), and where
    it lies outside [0, size); an empty sequence is an empty array of that
    shape.  Another shape, or a boolean or non-integer index, raises
    :class:`IndexOutOfRange`.  An index that is not a signed-integer array
    is read entry by entry as given, so a value past the int64 range is
    named as it is; the array is cast to ``intp`` only when all lie inside."""
    want = "(" + " x ".join("k" if s is None else str(s) for s in shape) + ")"
    try:
        p = np.asarray(idx)
    except ValueError:  # a ragged sequence has no shape
        raise IndexOutOfRange(f"expected an index of shape {want}, got a ragged sequence") from None
    if p.shape == (0,):
        p = p.reshape((0,) + shape[1:])
    if p.ndim != len(shape) or any(s not in (None, t) for s, t in zip(shape, p.shape)):
        raise IndexOutOfRange(f"expected an index of shape {want}, got {p.shape}")
    if p.size and p.dtype.kind != "i":  # a bool, float, unsigned, text or object array
        p = np.asarray(idx, dtype=object).reshape(p.shape)
        bad = [v for v in p.flat if not core._is_int(v)]
        if bad:
            raise IndexOutOfRange(f"an index must be an integer, got {bad[0]!r}")
    outside = (p < 0) | (p >= size)
    return (p if outside.any() else p.astype(np.intp)), outside


def _pair_index(n: int, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """``pairs`` as a k x 2 index array.  The first pair with an index out
    of range for ``n`` columns, or with i == j, raises."""
    p, outside = _index_array(pairs, n, (None, 2))
    outside = outside.any(axis=1)
    bad = outside | (p[:, 0] == p[:, 1])
    if bad.any():
        k = int(np.argmax(bad))
        i, j = p[k].tolist()
        if outside[k]:
            raise IndexOutOfRange(f"pair ({i}, {j}) out of range for N={n}")
        raise SamePair(f"difference pair has identical indices ({i}, {i})")
    return p


def adjacent_difference_bounds(
    sys: LinearSystem, pairs: Sequence[tuple[int, int]]
) -> list[EntryBound]:
    """Intervals for coordinate differences x_i - x_j over given pairs:
    those of :func:`bounds_for` on the rows e_i - e_j, from the subtracted
    rows of the factors.  The pairs form a k x 2 integer array; the first
    pair with an index out of range, or with i == j, raises."""
    pairs = _pair_index(sys.shape[1], pairs)
    return _bound_arrays(_row_products(sys, pairs=pairs)).entry_bounds()


def extremal_solution(
    sys: LinearSystem,
    w,
    target: Target,
    alpha: Optional[float] = None,
) -> ExtremalSolution:
    """Construct a feasible x attaining the lower or upper end of the
    interval for w^T x (Re(w^H x) on a complex system), or (when the
    functional is unbounded) an arbitrary prescribed value ``alpha``.
    The step from A^+ b and the result's ``bound``, the interval of
    :func:`functional_bound`, come from one evaluation of w's products,
    whose one status test decides the target: an end needs a finite row,
    ``alpha`` an unbounded one, else :class:`StatusMismatch` is raised.
    An arbitrary target's ``alpha`` is checked first: None or not a real
    number raises ``ValueError``, and not finite :class:`NumericalFailure`;
    a ``target`` that is not a :class:`Target` raises ``ValueError`` before
    that."""
    if not isinstance(target, Target):
        raise ValueError(f"target must be a Target, got {target!r}")
    if target is Target.ARBITRARY:
        if alpha is None:
            raise ValueError("arbitrary target requires a value")
        core._check_real(alpha, "arbitrary target value")
        if not math.isfinite(alpha):
            raise NumericalFailure(f"arbitrary target value must be finite, got {alpha}")
    p = _row_products(sys, np.reshape(w, (1, -1)))
    bound = _bound_arrays(p).entry_bounds([None])[0]
    if p.lam is None:
        raise InfeasibleSystem("no vector is consistent with the data within epsilon")
    fc = sys._factored()
    (u,), (e,) = p.u, p.e
    # the products are in units of 2**e, so they stay in range
    with np.errstate(over="ignore", invalid="ignore"):
        if target is Target.ARBITRARY:
            if not p.unbounded[0]:
                raise StatusMismatch("arbitrary target requires an unbounded functional")
            q = (np.ldexp(alpha, -e) - p.mid[0]) * p.wv_perp[0].conj() / (p.perp[0] ** 2)
            x = fc.v_perp @ q + fc.solution
        else:
            if p.unbounded[0]:
                raise StatusMismatch(f"target {target.value} requires a finite interval")
            upper, lower = _extremal_pair(fc, p.wk[0], p.sens[0], p.lam)
            x = upper if target is Target.UPPER else lower
        achieved = float(np.ldexp((u.conj() @ x).real, e))
    core._finite(np.append(x, achieved), f"target {target.value}: the vector")
    return ExtremalSolution(x=x, achieved_value=achieved,
                            residual_norm=core._norm(sys.a @ x - sys.b), bound=bound)


def _extremal_pair(fc: _Factored, wk: np.ndarray, sens: float,
                   lam: float) -> tuple[np.ndarray, np.ndarray]:
    """A^+ b + step and A^+ b - step, the vectors attaining the upper and
    the lower end of a finite interval: ``wk`` is the row w^H K and ``sens``
    its sensitivity, both in one unit, which cancels.  Either vector may
    leave the float range; the caller checks."""
    # (A^+)^H w over its norm, the kernel's sensitivity, in the basis G:
    # riding the ellipsoid boundary along A^+ of +/- it attains the endpoints
    with np.errstate(over="ignore", invalid="ignore"):
        step = lam * fc.apply(wk.conj() / np.ldexp(sens, fc.es))
        return fc.solution + step, fc.solution - step


def condition_report(a) -> ConditionReport:
    """Global and entrywise condition numbers of ``a``.

    The global condition number is only defined for full column rank and
    is omitted (None) otherwise.  Entrywise values are
    kappa_i = ||(A^+)^H e_i||_2 * sigma_1 and never exceed the global one.
    For a complex matrix they come in the order of ``bounds_for`` with
    ``W=None``: the N real parts, then the N imaginary parts, which share
    one value per entry.  A sensitivity beyond the float range raises
    :class:`NumericalFailure`.
    """
    fc = _system(a)._factored()
    n, rank = fc.k.shape
    reps = 2 if np.iscomplexobj(fc.k) else 1
    sigma_max = float(fc.sigma[0]) if rank else 0.0
    sigma_min_pos = float(fc.sigma[-1]) if rank else 0.0
    spectral = core._finite(np.tile(fc.entry_sensitivities, reps), "an entrywise sensitivity")
    kappa_global = sigma_max / sigma_min_pos if rank == n else None
    return ConditionReport(
        sigma_max=sigma_max,
        sigma_min_pos=sigma_min_pos,
        kappa_global=kappa_global,
        spectral_entry=spectral,
    )


def global_bounds(a, n_norm: float) -> float:
    """Classical spectral-norm error bound sigma_N^-1 * ||n||_2.

    It bounds the error in the 2-norm, and so also every entry, via
    ||.||_inf <= ||.||_2.  A negative norm raises ``ValueError``; a
    non-finite one, or a bound beyond the float range,
    :class:`NumericalFailure`.
    """
    n_norm = core._magnitude(n_norm, "noise norm")
    fc = _system(a)._factored()
    n, rank = fc.k.shape
    if rank < n:
        raise RankDeficient("spectral bound requires full column rank")
    return core._finite(n_norm / float(fc.sigma[-1]), "the spectral bound")


def ellipsoid_volume(a, lam: float) -> float:
    """Volume of the solution ellipsoid {x : ||A(x - z)||_2 <= lam}.

    When A is rank deficient the ellipsoid is degenerate and extends
    infinitely along the nullspace; the volume is reported as +inf.  A
    complex A gives the volume in the 2N real dimensions of x, where each
    singular value counts twice, as in the lifted real matrix.  A negative
    ``lam`` raises ``ValueError``; a non-finite one, or a positive volume
    outside the range of normal floats, :class:`NumericalFailure`.
    """
    lam = core._magnitude(lam, "lambda")
    fc = _system(a)._factored()
    n, rank = fc.k.shape
    if rank < n:
        return math.inf
    if lam == 0.0:
        return 0.0
    reps = 2 if np.iscomplexobj(fc.k) else 1
    n *= reps
    # sqrt(det((A^T A)^-1)) = prod(1 / sigma_i)
    log_vol = (
        0.5 * n * math.log(math.pi)
        + n * math.log(lam)
        - math.lgamma(0.5 * n + 1.0)
        - reps * float(np.sum(np.log(fc.sigma)))
    )
    try:
        vol = math.exp(log_vol)
    except OverflowError:
        raise NumericalFailure("the ellipsoid volume exceeds the float range") from None
    if vol < np.finfo(float).tiny:
        raise NumericalFailure("the ellipsoid volume is below the range of normal floats")
    return vol


def crlb_identity_check(a, i: int):
    """Two independent evaluations of e_i^T (A^H A)^+ e_i.

    The left side goes through the pseudoinverse of the Gram matrix, the
    right through the squared sensitivity ||(A^+)^H e_i||_2^2; under white
    unit-variance noise both equal the per-entry variance floor of any
    unbiased estimator.  ``a`` is a matrix or a system, as for
    :func:`condition_report`; it is factored, and so checked, before the
    Gram matrix is formed.  Both sides are taken in units of 2**-2es, with
    the power of two 2**es just above sigma_1, so neither under- nor
    overflows before it is scaled back: a value beyond the float range
    raises :class:`NumericalFailure`, and one below it reads as 0.0.  An
    ``i`` outside [0, N), or not one integer, raises
    :class:`IndexOutOfRange`.
    """
    sys_ = _system(a)
    n = sys_.shape[1]
    if _index_array(i, n, ())[1]:
        raise IndexOutOfRange(f"index {i} out of range for N={n}")
    fc = sys_._factored()
    unit = sys_.a * _inv_pow2(fc.es)
    sides = (np.linalg.pinv(unit.conj().T @ unit)[i, i].real, np.linalg.norm(fc.k[i]) ** 2)
    try:
        return tuple(math.ldexp(float(v), -2 * fc.es) for v in sides)
    except OverflowError:
        raise NumericalFailure(f"e_{i}^T (A^H A)^+ e_{i} exceeds the float range") from None


def epsilon_heuristic(sys: LinearSystem) -> float:
    """Consistency tolerance inferred from the data residual of ``sys``.

    Assumes the unmodelled perturbation spreads its energy evenly across
    subspaces, so its full norm is estimated by rescaling the observable
    out-of-range part: eps = sqrt(M / (M - N)) * ||P_perp b||_2.
    Requires a strictly overdetermined full-column-rank system.  For a
    complex system M and N count complex rows and columns; the lifted real
    counts 2M and 2N give the same factor.  A tolerance beyond the float
    range raises :class:`NumericalFailure`.
    """
    m, n = sys.shape
    rank = sys.rank
    if m <= n or rank < n:
        kind = "complex " if sys.is_complex else ""
        raise NotOverdetermined(
            f"heuristic requires M > N with full column rank ({kind}M={m}, N={n}, r={rank})"
        )
    return core._finite(math.sqrt(m / (m - n)) * sys.residual(), "the heuristic epsilon")
