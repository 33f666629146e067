"""Synthetic multi-channel MRI forward model and bound-map pipeline.

Acquisition model per channel: b_l = F S_l x + n_l, where S_l is a
diagonal complex sensitivity profile and F a unitary 2-D DFT followed by
subsampling of phase-encode lines (the readout dimension stays fully
sampled).  A unitary inverse DFT along the readout dimension splits the
2-D problem into independent 1-D systems, one per readout position; each
is support-masked and fed to the interval theory as a complex system.  Its
real-lifted form is built only on request, as the reference.

Axis convention: grids are (H, W) with the phase-encode dimension along
axis 0 (H k-space lines, subsampled) and the readout dimension along
axis 1 (W positions, fully sampled).  A decoupled system therefore
reconstructs one image line grid[:, c] of supported voxels.
"""

from __future__ import annotations

import dataclasses
import logging
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import bounds as bnd
from . import lifting
from .bounds import LinearSystem
from .errors import ConfigError, NotOverdetermined, NumericalFailure, ShapeMismatch, UnknownPreset

log = logging.getLogger(__name__)

# Status codes used in the emitted status map; 0-2 are the status codes
# of bounds.bounds_for.
STATUS_FINITE = 0
STATUS_UNBOUNDED = 1
STATUS_INFEASIBLE = 2
STATUS_OFF_SUPPORT = 3
# the voxel's line was skipped: its heuristic epsilon is undefined, or its
# bounds leave the float range
STATUS_UNDETERMINED = 4


@dataclass(frozen=True)
class Phantom:
    """Complex test image with a known support mask."""

    grid: np.ndarray
    support_mask: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.grid.shape


@dataclass(frozen=True)
class SamplingPattern:
    """Strided phase-encode sampling plus fully sampled central lines."""

    num_lines: int
    accel: int
    acs_lines: int

    def __post_init__(self):
        if self.accel < 1 or self.acs_lines < 0 or self.num_lines < 1:
            raise ConfigError(
                f"invalid pattern: lines={self.num_lines} accel={self.accel} acs={self.acs_lines}"
            )

    @property
    def phase_encodes_kept(self) -> np.ndarray:
        strided = np.arange(0, self.num_lines, self.accel)
        center = self.num_lines // 2
        lo = max(0, center - self.acs_lines // 2)
        acs = np.arange(lo, min(self.num_lines, lo + self.acs_lines))
        return np.unique(np.concatenate([strided, acs]))


@dataclass(frozen=True)
class AcquiredData:
    """Sampled multi-channel k-space, with the injected noise kept for
    oracle-mode tolerance selection."""

    samples: np.ndarray  # (L, K, W) complex, K = kept lines
    noise: np.ndarray  # (L, K, W) complex


@dataclass
class RowSystem:
    """One decoupled, support-masked complex reconstruction system."""

    line_index: int
    voxel_rows: np.ndarray  # supported phase-encode positions in this line
    a_complex: np.ndarray  # (L*K, n_sup) complex
    b_complex: np.ndarray  # (L*K,) complex

    @property
    def n_sup(self) -> int:
        return self.voxel_rows.shape[0]

    @cached_property
    def system(self) -> LinearSystem:
        """The real-lifted system, with epsilon 0; built on first read."""
        lifted, b_real = lifting.lift_system(self.a_complex, self.b_complex)
        return LinearSystem(a=lifted.a_real, b=b_real, epsilon=0.0)


def _support_ellipse(h: int, w: int) -> np.ndarray:
    yy, xx = np.mgrid[0:h, 0:w]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    return ((yy - cy) / (0.40 * h)) ** 2 + ((xx - cx) / (0.42 * w)) ** 2 <= 1.0


def make_phantom(preset: str, h: int, w: int, seed: int = 0) -> Phantom:
    """Deterministic synthetic phantom on an elliptical support.

    Presets: ``shepp-like`` (piecewise-constant nested ellipses) and
    ``smooth-blobs`` (sum of smooth bumps).  On-support magnitudes lie in
    (0, 1]; off-support voxels are exactly zero.
    """
    if h < 8 or w < 8:
        raise ConfigError(f"grid must be at least 8x8, got {h}x{w}")
    rng = np.random.default_rng(seed)
    mask = _support_ellipse(h, w)
    yy, xx = np.mgrid[0:h, 0:w]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    u = (yy - cy) / h
    v = (xx - cx) / w

    if preset == "shepp-like":
        mag = np.where(mask, 0.35, 0.0)
        for _ in range(4):
            ey = rng.uniform(-0.15, 0.15)
            ex = rng.uniform(-0.15, 0.15)
            ry = rng.uniform(0.06, 0.18)
            rx = rng.uniform(0.06, 0.18)
            level = rng.uniform(0.2, 1.0)
            inside = ((u - ey) / ry) ** 2 + ((v - ex) / rx) ** 2 <= 1.0
            mag = np.where(inside & mask, level, mag)
    elif preset == "smooth-blobs":
        mag = np.zeros((h, w))
        for _ in range(5):
            by = rng.uniform(-0.2, 0.2)
            bx = rng.uniform(-0.2, 0.2)
            width = rng.uniform(0.08, 0.25)
            amp = rng.uniform(0.3, 1.0)
            mag += amp * np.exp(-(((u - by) ** 2 + (v - bx) ** 2) / (2 * width**2)))
        mag = mag / mag.max()
    else:
        raise UnknownPreset(f"unknown phantom preset {preset!r}")

    mag = np.where(mask, np.clip(mag, 0.05, 1.0), 0.0)
    phase = 0.6 * u + 0.4 * v + 0.5 * u * v  # smooth low-order phase
    grid = mag * np.exp(1j * np.where(mask, phase, 0.0))
    return Phantom(grid=grid, support_mask=mask)


def make_coils(
    l: int,
    h: int,
    w: int,
    phase_fold: bool = False,
    seed: int = 0,
    phantom: Optional[Phantom] = None,
) -> np.ndarray:
    """Smooth complex Gaussian-bump sensitivity profiles, as an (L, H, W) array.

    Channels are centered on a ring around the image; every profile is
    strictly positive in magnitude, so no voxel is blind to all coils.
    With ``phase_fold`` the phantom's phase is absorbed into each profile
    so that the effective unknown image is real-valued.
    """
    if l < 1:
        raise ConfigError(f"need at least one channel, got {l}")
    if phase_fold and phantom is None:
        raise ConfigError("phase folding requires the phantom")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    profiles = np.empty((l, h, w), dtype=complex)
    for k in range(l):
        if l == 1:
            profiles[0] = np.ones((h, w))
            break
        ang = 2 * np.pi * k / l + rng.uniform(-0.1, 0.1)
        by = cy + 0.6 * h * np.sin(ang) / 2.0
        bx = cx + 0.6 * w * np.cos(ang) / 2.0
        width = 0.55 * max(h, w) * rng.uniform(0.9, 1.1)
        mag = 0.15 + np.exp(-(((yy - by) ** 2 + (xx - bx) ** 2) / (2 * width**2)))
        # mild linear phase per channel keeps the profiles genuinely complex
        ph = rng.uniform(-0.5, 0.5) * (yy - cy) / h + rng.uniform(-0.5, 0.5) * (xx - cx) / w
        profiles[k] = mag * np.exp(1j * ph)
    if phase_fold:
        fold = np.exp(1j * np.angle(phantom.grid, deg=False))
        fold[~phantom.support_mask] = 1.0
        profiles = profiles * fold[None, :, :]
    return profiles


def _check_grid(ph: Phantom, coils: np.ndarray, pat: SamplingPattern) -> None:
    """Raise :class:`ShapeMismatch` unless the coil maps and the sampling
    pattern are those of the phantom's grid."""
    h, w = ph.shape
    if coils.shape[1:] != (h, w):
        raise ShapeMismatch(f"coil maps {coils.shape[1:]} do not match grid {(h, w)}")
    if pat.num_lines != h:
        raise ShapeMismatch(
            f"pattern covers {pat.num_lines} lines, grid has {h} phase encodes"
        )


def _forward(profiles: np.ndarray, img: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Sampled k-space F S_l x of every channel, (L, K, W): one unitary
    2-D DFT over the stacked coil images, kept phase encodes only."""
    return np.fft.fft2(profiles * img, axes=(-2, -1), norm="ortho")[:, kept, :]


def _voxel_map(sup_idx: np.ndarray) -> list:
    """Lifted column -> (y, c, 're'|'im') for supported voxels in (y, c)
    order, real block first."""
    return [(int(y), int(c), "re") for y, c in sup_idx] + [
        (int(y), int(c), "im") for y, c in sup_idx
    ]


def simulate_acquisition(
    ph: Phantom,
    coils: np.ndarray,
    pat: SamplingPattern,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> AcquiredData:
    """Sample the multi-channel k-space of the phantom with additive
    circularly-symmetric complex Gaussian noise (std ``noise_sigma`` per
    real/imag component)."""
    _check_grid(ph, coils, pat)
    if noise_sigma < 0:
        raise ConfigError(f"noise sigma must be nonnegative, got {noise_sigma}")
    rng = np.random.default_rng(seed)
    samples = _forward(coils, ph.grid, pat.phase_encodes_kept)
    shape = samples.shape
    noise = noise_sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return AcquiredData(samples=samples + noise, noise=noise)


def _kept_dft(h: int, kept: np.ndarray) -> np.ndarray:
    """Rows of the unitary 1-D DFT of length ``h`` at the kept phase-encode
    lines, (K, H)."""
    return np.exp(-2j * np.pi * np.outer(kept, np.arange(h)) / h) / np.sqrt(h)


def _hybrid(samples: np.ndarray) -> np.ndarray:
    """Unitary inverse DFT along the readout dimension (last axis)."""
    return np.fft.ifft(samples, axis=-1, norm="ortho")


def _line_systems(ph: Phantom, coils: np.ndarray, pat: SamplingPattern,
                  hybrid: Optional[np.ndarray]):
    """Yield the decoupled system of each readout position with supported
    voxels, one at a time, from the hybrid-space data ``hybrid`` (L, K, W),
    or with zero data if it is None.  The generator keeps no reference to a
    line once it is yielded.  The caller checks the grid."""
    h, w = ph.shape
    f_kept = _kept_dft(h, pat.phase_encodes_kept)
    for c in range(w):
        sup = np.flatnonzero(ph.support_mask[:, c])
        if sup.size == 0:
            log.info("readout position %d has no supported voxels; skipped", c)
            continue
        # (L, K, n_sup) flattened channel-major, the row order of b below
        yield RowSystem(
            line_index=c,
            voxel_rows=sup,
            a_complex=(f_kept[None, :, sup] * coils[:, sup, c][:, None, :]).reshape(-1, sup.size),
            b_complex=(hybrid[:, :, c].reshape(-1) if hybrid is not None
                       else np.zeros(coils.shape[0] * f_kept.shape[0], dtype=complex)),
        )


def build_row_systems(
    ph: Phantom,
    coils: np.ndarray,
    pat: SamplingPattern,
    data: Optional[AcquiredData] = None,
) -> list[RowSystem]:
    """Build one decoupled system per readout position with supported
    voxels.  Columns of off-support voxels are removed; positions with an
    empty support are skipped with a log record.  :func:`run_pipeline`
    streams the same systems one at a time instead."""
    _check_grid(ph, coils, pat)
    hybrid = _hybrid(data.samples) if data is not None else None
    return list(_line_systems(ph, coils, pat, hybrid))


def build_monolithic_system(
    ph: Phantom,
    coils: np.ndarray,
    pat: SamplingPattern,
    data: AcquiredData,
) -> tuple[LinearSystem, list]:
    """Dense undecoupled system over all supported voxels (oracle for the
    decoupling-equivalence check; only viable at small grid sizes)."""
    _check_grid(ph, coils, pat)
    h, w = ph.shape
    kept = pat.phase_encodes_kept
    sup_idx = np.argwhere(ph.support_mask)  # (n_sup, 2) as (y, c)
    n_sup = sup_idx.shape[0]
    ky = kept[:, None, None]
    kx = np.arange(w)[None, :, None]
    yv = sup_idx[:, 0][None, None, :]
    cv = sup_idx[:, 1][None, None, :]
    f2d = np.exp(-2j * np.pi * (ky * yv / h + kx * cv / w)) / np.sqrt(h * w)
    blocks = []
    for profile in coils:
        s_vals = profile[sup_idx[:, 0], sup_idx[:, 1]]
        blocks.append((f2d * s_vals[None, None, :]).reshape(kept.size * w, n_sup))
    lifted, b_real = lifting.lift_system(np.vstack(blocks), data.samples.reshape(-1))
    return LinearSystem(a=lifted.a_real, b=b_real, epsilon=0.0), _voxel_map(sup_idx)


def _line_grams(ph: Phantom, coils: np.ndarray, pat: SamplingPattern):
    """The normal matrices of the readout lines with supported voxels, as a
    (lines, n_max, n_max) stack zero-padded to the longest line, with one
    slot per such line in readout order, and the flat index into the
    (lines, n_max) layout of every supported voxel in (y, c) order.

    The readout DFT is unitary and fully sampled, so it cancels in A^H A,
    which is block diagonal over readout positions c with the blocks
    G_c = A_c^H A_c of the line systems of :func:`_line_systems`.
    """
    mask = ph.support_mask
    ys, cs = np.nonzero(mask)
    pos = (np.cumsum(mask, axis=0) - 1)[ys, cs]  # rank of y within its line
    counts = mask.sum(axis=0)
    slot = np.cumsum(counts > 0) - 1  # slot of each line with support
    n_max = int(counts.max())
    gram = np.zeros((int(slot[-1]) + 1, n_max, n_max), dtype=complex)  # zero in the padding
    for rs in _line_systems(ph, coils, pat, None):
        gram[slot[rs.line_index], :rs.n_sup, :rs.n_sup] = rs.a_complex.conj().T @ rs.a_complex
    return gram, slot[cs] * n_max + pos


def sense_operator(ph: Phantom, coils: np.ndarray, pat: SamplingPattern):
    """Matrix-free complex forward operator over all supported voxels.

    Forward/adjoint go through FFTs and pointwise products only; the
    monolithic matrix is never materialized.  The normal matrix A^H A is
    carried as the per-line stack of :func:`_line_grams`, so each step of
    the matrix-free solves is one batched product with it.  Returns the
    operator and the lifted voxel map ((y, c) order, real block first) of
    its diagonal estimates.
    """
    from .matfree import LinearOperator

    _check_grid(ph, coils, pat)
    h, w = ph.shape
    kept = pat.phase_encodes_kept
    l = coils.shape[0]
    sup_idx = np.argwhere(ph.support_mask)
    ys, cs = sup_idx[:, 0], sup_idx[:, 1]

    def apply(x: np.ndarray) -> np.ndarray:
        img = np.zeros((h, w), dtype=complex)
        img[ys, cs] = x
        return _forward(coils, img, kept).reshape(-1)

    def apply_transpose(y: np.ndarray) -> np.ndarray:
        full = np.zeros((l, h, w), dtype=complex)
        full[:, kept, :] = y.reshape(l, kept.size, w)
        coil_imgs = np.fft.ifft2(full, axes=(-2, -1), norm="ortho")
        return (np.conj(coils) * coil_imgs).sum(axis=0)[ys, cs]

    op = LinearOperator(shape=(l * kept.size * w, ys.size), apply=apply,
                        apply_transpose=apply_transpose, is_complex=True,
                        normal_blocks=_line_grams(ph, coils, pat))
    return op, _voxel_map(sup_idx)


@dataclass
class PipelineResult:
    """Everything the bound-map workflow produces, image-aligned."""

    maps: dict  # name -> (H, W) float array, NaN where undefined
    status: np.ndarray  # (H, W) int codes
    line_stats: list  # per decoupled line: dict of scalars
    factor_paths: dict  # bounded lines per factor path: "triangle" and "svd"
    config: dict
    truth: Phantom
    timings: dict


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


# The JSON type a config value must have, by the type of its default.
_KINDS = {
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    int: ("an integer", _is_int),
    # NaN fails the range test; an int is compared without a conversion
    float: ("a finite number", lambda v: (_is_int(v) or isinstance(v, float))
            and abs(v) <= sys.float_info.max),
    type(None): ("an integer or null", lambda v: v is None or _is_int(v)),
}

# Optional config keys without a default, with a value of their type.
_NO_DEFAULT = {"epsilon": {"value": 0.0}}


def _default_cfg(cfg: dict) -> dict:
    """Merge a pipeline config into the defaults.  Unknown keys, values
    whose JSON type differs from their default's, a number that is NaN or
    beyond the float range, and a negative fixed epsilon raise
    :class:`ConfigError`."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {type(cfg).__name__}")
    out = {
        "grid": {"h": 32, "w": 32, "preset": "smooth-blobs", "seed": 0},
        "coils": {"l": 8, "phase_fold": True, "seed": 0},
        "pattern": {"accel": 4, "acs": 6},
        "noise": {"sigma": 0.01, "seed": 0},
        "epsilon": {"mode": "heuristic"},
        "extremal": {"line": None},
    }
    bad = [k for k in cfg if k not in out]
    if bad:
        raise ConfigError(f"unknown config keys: {sorted(bad)}")
    for key, val in cfg.items():
        if not isinstance(val, dict):
            raise ConfigError(f"config section {key!r} must be an object")
        section = dict(out[key])
        defaults = {**section, **_NO_DEFAULT.get(key, {})}
        bad = [k for k in val if k not in defaults]
        if bad:
            raise ConfigError(f"unknown keys in config section {key!r}: {sorted(bad)}")
        for k, v in val.items():
            kind, ok = _KINDS[type(defaults[k])]
            if not ok(v):
                raise ConfigError(f"config value {key}.{k} must be {kind}, got {v!r}")
        section.update(val)
        out[key] = section
    mode = out["epsilon"]["mode"]
    if mode not in ("heuristic", "oracle", "fixed"):
        raise ConfigError(f"epsilon mode must be heuristic|oracle|fixed, got {mode!r}")
    if mode == "fixed" and "value" not in out["epsilon"]:
        raise ConfigError("epsilon mode 'fixed' requires a value")
    if mode != "fixed" and "value" in out["epsilon"]:
        raise ConfigError(f"epsilon.value is only used in mode 'fixed', not {mode!r}")
    value = out["epsilon"].get("value", 0.0)
    if value < 0:
        raise ConfigError(f"epsilon.value must be nonnegative, got {value!r}")
    h, line = out["grid"]["h"], out["extremal"]["line"]
    if line is not None and not 0 <= line < h:
        raise ConfigError(f"extremal.line must lie in [0, {h}), got {line}")
    return out


def build_problem(cfg: dict) -> tuple[Phantom, np.ndarray, SamplingPattern]:
    """Phantom, coils and sampling pattern of a pipeline config.

    The phantom is the unknown the pipeline reconstructs: with
    ``phase_fold`` its phase is absorbed into the coils, so only its
    magnitude remains.
    """
    cfg = _default_cfg(cfg)
    g, c, p = cfg["grid"], cfg["coils"], cfg["pattern"]
    ph = make_phantom(g["preset"], g["h"], g["w"], g["seed"])
    coils = make_coils(c["l"], g["h"], g["w"], phase_fold=c["phase_fold"], seed=c["seed"],
                       phantom=ph)
    if c["phase_fold"]:
        ph = Phantom(grid=np.abs(ph.grid).astype(complex), support_mask=ph.support_mask)
    pat = SamplingPattern(num_lines=g["h"], accel=p["accel"], acs_lines=p["acs"])
    return ph, coils, pat


def _bound_line(rs: RowSystem, epsilon_of, extremal_line: int, stats: dict, maps: dict,
                status: np.ndarray, timings: dict) -> str:
    """Bound one decoupled line: factor its system (timed into
    ``timings["factor_s"]``), report its conditioning, take its epsilon from
    ``epsilon_of(system, line)``, and bound its entries, its neighbor
    differences and its pinned extremal pair.  ``stats`` gets each value
    when its step is done; ``maps`` and ``status`` are written only after the last
    step that can raise, so a line that raises leaves them as they were.
    Returns the factor path."""
    c, sup, n_sup = rs.line_index, rs.voxel_rows, rs.n_sup
    sys_ = LinearSystem(a=rs.a_complex, b=rs.b_complex, epsilon=0.0)
    t_factor = time.perf_counter()
    fc = sys_._factored()
    timings["factor_s"] += time.perf_counter() - t_factor
    stats.update(rank=2 * sys_.rank, residual=sys_.residual())
    report = bnd.condition_report(sys_)
    stats.update(sigma_max=report.sigma_max, sigma_min=report.sigma_min_pos)
    eps = epsilon_of(sys_, c)
    # kappa goes with the epsilon: a line the epsilon rule skips reports neither
    stats.update(kappa=report.kappa_global, epsilon=eps)
    # the copy keeps the factors and the residual projection
    sys_ = dataclasses.replace(sys_, epsilon=eps)
    # row j < n_sup is Re x[sup[j]], row n_sup + j its Im
    eb = bnd.bounds_for(sys_)
    # differences Re x[r] - Re x[r + 1] between neighboring supported voxels
    nb = np.flatnonzero(np.diff(sup) == 1)
    db = bnd._bound_arrays(bnd._row_products(sys_, pairs=np.column_stack([nb, nb + 1])))
    # extremal images pinned at the chosen cross-line voxel, both from one
    # step along the coordinate row of Re x_j: row j of K and its sensitivity
    j = np.flatnonzero(sup == extremal_line)
    pinned = j.size > 0 and eb.status[j[0]] == STATUS_FINITE
    if pinned:
        upper, lower = bnd._extremal_pair(fc, fc.k[j[0]], fc.entry_sensitivities[j[0]], eb.lam)
        if not (np.isfinite(upper).all() and np.isfinite(lower).all()):
            raise NumericalFailure(f"line {c}: an extremal vector exceeds the float range")
    # a rank-0 line has no positive singular value, and so no envelope
    envelope = 1.0 / report.sigma_min_pos if report.sigma_min_pos else np.nan

    status[sup, c] = eb.status[:n_sup]
    maps["lower_re"][sup, c] = eb.lower[:n_sup]
    maps["upper_re"][sup, c] = eb.upper[:n_sup]
    maps["lower_im"][sup, c] = eb.lower[n_sup:]
    maps["upper_im"][sup, c] = eb.upper[n_sup:]
    maps["sensitivity"][sup, c] = eb.sensitivity[:n_sup]
    maps["kappa_entry"][sup, c] = report.kappa_entry[:n_sup]
    maps["global_envelope"][sup, c] = envelope
    if report.kappa_global is not None:
        maps["kappa_line"][sup, c] = report.kappa_global
    maps["diff_lower"][sup[nb], c] = db.lower
    maps["diff_upper"][sup[nb], c] = db.upper
    if pinned:
        maps["extremal_upper"][sup, c] = upper.real
        maps["extremal_lower"][sup, c] = lower.real
    return fc.path


def run_pipeline(cfg: dict) -> PipelineResult:
    """Run the full synthetic workflow: phantom, coils, acquisition,
    decoupled interval bounds, difference bounds, conditioning maps, and
    extremal images for one cross-line of voxels.

    The readout lines are built, bounded and released one at a time, so
    the line stage holds one line's system, never all of them.  A line
    that raises :class:`NotOverdetermined` (its heuristic epsilon is
    undefined: not overdetermined, or rank deficient) or
    :class:`NumericalFailure` (its factorization, its conditioning or its
    bounds leave the float range) at any step is skipped: its voxels get
    ``STATUS_UNDETERMINED`` and NaN maps, and its ``line_stats`` entry
    gives the reason, with None for the values not reached.  If no line is
    bounded and a line failed numerically, the first such failure is
    raised."""
    t0 = time.perf_counter()
    cfg = _default_cfg(cfg)
    h, w = cfg["grid"]["h"], cfg["grid"]["w"]
    truth, coils, pat = build_problem(cfg)
    data = simulate_acquisition(truth, coils, pat, cfg["noise"]["sigma"], cfg["noise"]["seed"])

    eps_cfg = cfg["epsilon"]
    mode = eps_cfg["mode"]
    noise_hybrid = _hybrid(data.noise) if mode == "oracle" else None

    def epsilon_of(sys_: LinearSystem, c: int) -> float:
        if mode == "heuristic":
            return bnd.epsilon_heuristic(sys_)
        if mode == "oracle":
            return float(np.linalg.norm(noise_hybrid[:, :, c]))
        return float(eps_cfg["value"])

    names = ["lower_re", "upper_re", "lower_im", "upper_im", "diff_lower", "diff_upper",
             "sensitivity", "global_envelope", "kappa_entry", "kappa_line",
             "extremal_upper", "extremal_lower"]
    maps = {name: np.full((h, w), np.nan) for name in names}
    status = np.full((h, w), STATUS_OFF_SUPPORT, dtype=int)
    maps["truth_re"] = truth.grid.real.copy()
    maps["truth_im"] = truth.grid.imag.copy()

    line_stats, failure = [], None
    factor_paths = {"triangle": 0, "svd": 0}
    extremal_line = h // 2 if cfg["extremal"]["line"] is None else cfg["extremal"]["line"]

    # build_s: set-up plus the construction of every line; bounds_s: the rest
    # of every line's work, of which factor_s is the factorization
    mark = time.perf_counter()
    timings = {"build_s": mark - t0, "bounds_s": 0.0, "factor_s": 0.0}
    for rs in _line_systems(truth, coils, pat, _hybrid(data.samples)):
        t_line = time.perf_counter()
        timings["build_s"] += t_line - mark
        c, (m, n) = rs.line_index, rs.a_complex.shape
        # sizes in the units of the lifted real system, where every complex
        # row, column and singular value counts twice
        stats = {"line": c, "m": 2 * m, "n": 2 * n, **dict.fromkeys(
            ("rank", "sigma_max", "sigma_min", "residual", "kappa", "epsilon"))}
        line_stats.append(stats)
        try:
            factor_paths[_bound_line(rs, epsilon_of, extremal_line, stats, maps, status,
                                     timings)] += 1
        except (NotOverdetermined, NumericalFailure) as exc:
            log.info("line %d skipped: %s", c, exc)
            if isinstance(exc, NumericalFailure) and failure is None:
                failure = f"line {c}: {exc}"
            status[rs.voxel_rows, c] = STATUS_UNDETERMINED
            stats["skipped"] = str(exc)
        del rs  # release the line before the next is built
        mark = time.perf_counter()
        timings["bounds_s"] += mark - t_line
    if failure is not None and all("skipped" in stats for stats in line_stats):
        raise NumericalFailure(f"no line could be bounded; {failure}")

    t_end = time.perf_counter()
    kept = pat.phase_encodes_kept
    cfg_echo = dict(cfg)
    cfg_echo["achieved"] = {
        "kept_lines": int(kept.size),
        "samples_per_channel": int(kept.size * w),
        "sampling_ratio": float(h * w) / float(kept.size * w),
    }
    return PipelineResult(
        maps=maps,
        status=status,
        line_stats=line_stats,
        factor_paths=factor_paths,
        config=cfg_echo,
        truth=truth,
        timings={**timings, "total_s": t_end - t0},
    )
