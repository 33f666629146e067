"""The benchmark's workloads: generated inputs, the CLI arguments that run
them, and the correctness gates that check their outputs.

Each workload makes its inputs from the seed alone and hands the program
only files: a pipeline config or a CSV system.  Gates compare the outputs
with independent dense oracles (``np.linalg.pinv``, ``scipy.linalg.null_space``
and per-line SVDs) and run outside the timed region.

A workload exposes ``ops`` (operations per repetition, the unit of failure),
``units`` (completed work per repetition, the unit of throughput),
``argv(out)``, ``digest(out)`` (equal digests mean identical outputs) and
``check(out) -> (failed_ops, rel_err)``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg

from entrybounds import sense

# Largest accepted error of a checked interval endpoint, relative to the
# largest endpoint magnitude checked on the same line or system.
INTERVAL_RTOL = 1e-8


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _problem(cfg: dict):
    """Phantom, coils and pattern exactly as the CLI builds them from ``cfg``."""
    g, c, p = cfg["grid"], cfg["coils"], cfg["pattern"]
    ph = sense.make_phantom(g["preset"], g["h"], g["w"], g["seed"])
    coils = sense.make_coils(c["l"], g["h"], g["w"], phase_fold=c["phase_fold"],
                             seed=c["seed"], phantom=ph)
    pat = sense.SamplingPattern(num_lines=g["h"], accel=p["accel"], acs_lines=p["acs"])
    return ph, coils, pat


def _sense_cfg(grid: int, seed: int, accel: int, acs: int) -> dict:
    return {
        "grid": {"h": grid, "w": grid, "preset": "smooth-blobs", "seed": seed},
        "coils": {"l": 8, "phase_fold": True, "seed": seed},
        "pattern": {"accel": accel, "acs": acs},
        "noise": {"sigma": 0.01, "seed": seed},
        "epsilon": {"mode": "heuristic"},
    }


def _interval_errors(got_lo, got_hi, want_lo, want_hi) -> np.ndarray:
    scale = max(float(np.max(np.abs(want_lo))), float(np.max(np.abs(want_hi))), 1e-300)
    return np.maximum(np.abs(got_lo - want_lo), np.abs(got_hi - want_hi)) / scale


class SenseBounds:
    """``sense --pgm`` on the default 8-coil, accel-4, acs-6 problem."""

    sampled_lines = 3

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.seed = seed
        self.cfg = _sense_cfg(16 if smoke else 128, seed, accel=4, acs=6)
        self.cfg_path = work / "sense.json"
        _write_json(self.cfg_path, self.cfg)
        self.systems = None
        ph, _, _ = _problem(self.cfg)
        mask = ph.support_mask
        self.ops = int(np.count_nonzero(mask.any(axis=0)))  # decoupled lines
        self.units = int(np.count_nonzero(mask))  # supported voxels

    def argv(self, out: Path) -> list[str]:
        return ["sense", "--config", str(self.cfg_path), "--out", str(out), "--pgm"]

    def digest(self, out: Path):
        return json.loads((out / "manifest.json").read_text())["outputs"]

    def _line_systems(self):
        """The decoupled line systems of the run, built as the pipeline does."""
        ph, coils, pat = _problem(self.cfg)
        truth = sense.Phantom(grid=np.abs(ph.grid).astype(complex), support_mask=ph.support_mask)
        noise = self.cfg["noise"]
        data = sense.simulate_acquisition(truth, coils, pat, noise["sigma"], noise["seed"])
        return sense.build_row_systems(truth, coils, pat, data)

    def check(self, out: Path):
        """Entry and difference intervals of a few sampled lines against a
        dense pseudoinverse evaluation of the interval formula with the
        heuristic epsilon."""
        if self.systems is None:
            self.systems = self._line_systems()
        maps = {name: np.loadtxt(out / f"{name}.csv", delimiter=",", skiprows=1, ndmin=2)
                for name in ("lower_re", "upper_re", "lower_im", "upper_im",
                             "diff_lower", "diff_upper")}
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(self.systems), size=min(self.sampled_lines, len(self.systems)),
                           replace=False)
        failed, worst = 0, 0.0
        for k in sorted(picks):
            rs = self.systems[k]
            a, b = rs.system.a, rs.system.b
            m, n = a.shape
            pinv = np.linalg.pinv(a)
            z = pinv @ b
            residual = float(np.linalg.norm(b - a @ z))
            lam = residual * math.sqrt(n / (m - n))  # sqrt(eps^2 - r^2), eps = sqrt(m/(m-n)) r
            half = lam * np.linalg.norm(pinv, axis=1)
            rows, c = rs.voxel_rows, rs.line_index
            got_lo = np.concatenate([maps["lower_re"][rows, c], maps["lower_im"][rows, c]])
            got_hi = np.concatenate([maps["upper_re"][rows, c], maps["upper_im"][rows, c]])
            err = _interval_errors(got_lo, got_hi, z - half, z + half)
            # neighbouring voxels along the line: x_re(r) - x_re(r + 1)
            nb = np.flatnonzero(np.diff(rows) == 1)
            if nb.size:
                dz = z[nb] - z[nb + 1]
                dhalf = lam * np.linalg.norm(pinv[nb] - pinv[nb + 1], axis=1)
                err = np.concatenate([err, _interval_errors(
                    maps["diff_lower"][rows[nb], c], maps["diff_upper"][rows[nb], c],
                    dz - dhalf, dz + dhalf)])
            line_err = float(np.max(err)) if np.all(np.isfinite(err)) else math.inf
            worst = max(worst, line_err)
            failed += int(not line_err <= INTERVAL_RTOL)
        return failed, worst


def exact_diag(cfg: dict) -> np.ndarray:
    """Exact squared sensitivities of the SENSE operator, in the order of
    ``sense.sense_operator`` (supported voxels row-major, real parts first).

    The readout DFT is unitary, so the row norms of the monolithic
    pseudoinverse equal those of the per-line complex pseudoinverses; for
    the lifted real system the real and imaginary part of a voxel share one
    value."""
    ph, coils, pat = _problem(cfg)
    dmap = np.zeros(ph.shape)
    for rs in sense.build_row_systems(ph, coils, pat):
        dmap[rs.voxel_rows, rs.line_index] = np.sum(np.abs(np.linalg.pinv(rs.a_complex)) ** 2,
                                                    axis=1)
    ys, cs = np.nonzero(ph.support_mask)
    d = dmap[ys, cs]
    return np.concatenate([d, d])


class DiagSense:
    """``estimate-diag --op sense:cfg`` with Gaussian probes and a fixed
    probe count on the 8-coil, accel-2, acs-4 problem.

    The seed sets the phantom and the probes.  The coil geometry stays
    fixed: it sets the operator's condition number, and with it the
    Landweber iteration count, so a seeded geometry would vary the work per
    run by about 15%."""

    # Accepted relative L2 error as a multiple of sqrt(2 / probes), the
    # expected error of the mean of Gaussian-probe squares.
    stat_factor = 1.5

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.seed = seed
        self.samples = 2 if smoke else 3
        # the toy size samples fully, so that its probes converge quickly
        self.cfg = (_sense_cfg(16, seed, accel=1, acs=0) if smoke
                    else _sense_cfg(32, seed, accel=2, acs=4))
        self.cfg["coils"]["seed"] = 0
        self.cfg_path = work / "diag.json"
        _write_json(self.cfg_path, self.cfg)
        self.exact = None
        self.ops = self.samples  # probes
        self.units = self.samples  # converged probes

    def argv(self, out: Path) -> list[str]:
        return ["estimate-diag", "--op", f"sense:{self.cfg_path}",
                "--samples", str(self.samples), "--probe", "gaussian",
                "--seed", str(self.seed), "--rel-tol", "1e-6",
                "--json", str(out / "diag.json")]

    def digest(self, out: Path):
        return _sha256(out / "diag.json")

    def check(self, out: Path):
        """Relative L2 error of the estimate against the exact values, within
        a statistical bound for the number of converged probes."""
        if self.exact is None:
            self.exact = exact_diag(self.cfg)
        payload = json.loads((out / "diag.json").read_text())
        values = np.asarray(payload["values"])
        ok = self.samples - payload["failed_samples"]
        if values.shape != self.exact.shape or ok < 1:
            return self.ops, math.inf
        rel_err = float(np.linalg.norm(values - self.exact) / np.linalg.norm(self.exact))
        if not rel_err <= self.stat_factor * math.sqrt(2.0 / ok):
            return self.ops, rel_err
        return payload["failed_samples"], rel_err


class BoundsCsv:
    """``bounds --json`` on a tall dense CSV system whose last columns
    duplicate its first ones, so both finite and unbounded entries occur."""

    sigma = 0.05

    def __init__(self, work: Path, seed: int, smoke: bool):
        m, n, dup = (60, 12, 2) if smoke else (3000, 300, 3)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n))
        a[:, n - dup:] = a[:, :dup]
        b = a @ rng.standard_normal(n) + self.sigma * rng.standard_normal(m)
        # The residual norm is about sigma * sqrt(m - rank), so this is feasible.
        self.epsilon = 1.2 * self.sigma * math.sqrt(m)
        self.a, self.b = a, b
        self.a_path, self.b_path = work / "a.csv", work / "b.csv"
        for path, arr in ((self.a_path, a), (self.b_path, b[:, None])):
            with open(path, "w") as fh:
                fh.write(f"{arr.shape[0]},{arr.shape[1]}\n")
                np.savetxt(fh, arr, fmt="%.17g", delimiter=",")
        self.oracle = None
        self.ops = n  # entries
        self.units = n

    def argv(self, out: Path) -> list[str]:
        return ["bounds", "--matrix", str(self.a_path), "--data", str(self.b_path),
                "--epsilon", repr(self.epsilon), "--json", str(out / "bounds.json")]

    def digest(self, out: Path):
        return _sha256(out / "bounds.json")

    def _dense_oracle(self):
        """Statuses from scipy's null_space, intervals from a dense pinv with
        the program's default rank tolerance."""
        a, b = self.a, self.b
        unbounded = np.linalg.norm(scipy.linalg.null_space(a), axis=1) > 1e-8
        pinv = np.linalg.pinv(a, rcond=1e-10)
        z = pinv @ b
        residual = float(np.linalg.norm(b - a @ z))
        half = math.sqrt(self.epsilon**2 - residual**2) * np.linalg.norm(pinv, axis=1)
        return unbounded, z - half, z + half

    def check(self, out: Path):
        if self.oracle is None:
            self.oracle = self._dense_oracle()
        unbounded, want_lo, want_hi = self.oracle
        records = json.loads((out / "bounds.json").read_text())["bounds"]
        if len(records) != self.ops:
            return self.ops, math.inf
        status = np.array([r["status"] for r in records])
        finite = ~unbounded
        bad = status != np.where(unbounded, "unbounded", "finite")
        got_lo = np.array([r["lower"] if f else 0.0 for r, f in zip(records, finite)], dtype=float)
        got_hi = np.array([r["upper"] if f else 0.0 for r, f in zip(records, finite)], dtype=float)
        err = np.zeros(self.ops)
        err[finite] = _interval_errors(got_lo[finite], got_hi[finite],
                                       want_lo[finite], want_hi[finite])
        err[~np.isfinite(err)] = math.inf
        bad |= ~(err <= INTERVAL_RTOL)
        return int(np.count_nonzero(bad)), float(np.max(err))


WORKLOADS = {"sense-128": SenseBounds, "diag-sense-32": DiagSense, "bounds-csv": BoundsCsv}
