"""File formats: CSV matrices/vectors, complex CSV, JSON records, PGM
renders, and run manifests with content hashes.

All floats are written with 17 significant digits and a locale-independent
decimal point, so reruns with identical inputs are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatch

FLOAT_FMT = "%.17g"
_PGM_MAXVAL = 255
_PGM_FLAT_RTOL = 1e-12  # a relative span at or below this is rounding: one gray level


def _write_csv(path, a, fmt) -> None:
    """Write a 2-D array as CSV with a leading ``rows,cols`` line,
    formatting each entry with ``fmt``."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{a.shape[0]},{a.shape[1]}\n")
        for row in a.tolist():
            fh.write(",".join(map(fmt, row)) + "\n")


def _read_csv(path, dtype, parse) -> np.ndarray:
    """Read a CSV written by :func:`_write_csv`, parsing each token with
    ``parse``; errors name the file and the line."""
    with open(path) as fh:
        header = fh.readline().strip()
        try:
            rows, cols = (int(t) for t in header.split(","))
        except ValueError:
            rows = cols = -1
        if rows < 0 or cols < 0:
            raise ConfigError(f"{path}:1: malformed header {header!r}, expected 'rows,cols'")
        out = np.empty((rows, cols), dtype=dtype)
        for r in range(rows):
            line = fh.readline()
            if not line:
                raise ConfigError(f"{path}:{r + 2}: expected {rows} data rows, found {r}")
            vals = line.strip().split(",")
            if len(vals) != cols:
                raise ConfigError(f"{path}:{r + 2}: expected {cols} values, found {len(vals)}")
            try:
                out[r] = [parse(v) for v in vals]
            except ValueError as exc:
                raise ConfigError(f"{path}:{r + 2}: {exc}")
    return out


def write_matrix_csv(path, a) -> None:
    """Write a real matrix as CSV with a leading ``rows,cols`` line."""
    _write_csv(path, np.atleast_2d(np.asarray(a, dtype=float)), FLOAT_FMT.__mod__)


def read_matrix_csv(path) -> np.ndarray:
    """Read a real matrix written by :func:`write_matrix_csv`."""
    return _read_csv(path, float, float)


def write_vector_csv(path, x) -> None:
    """Write a vector as single-column CSV."""
    x = np.asarray(x, dtype=float).reshape(-1)
    write_matrix_csv(path, x[:, None])


def read_vector_csv(path) -> np.ndarray:
    a = read_matrix_csv(path)
    if a.shape[1] != 1:
        raise DimensionMismatch(f"{path}: expected a single-column vector, got {a.shape}")
    return a[:, 0]


def _fmt_complex(z: complex) -> str:
    return f"{FLOAT_FMT % z.real}{'+' if z.imag >= 0 else '-'}{FLOAT_FMT % abs(z.imag)}j"


def write_complex_csv(path, a) -> None:
    """Write a complex matrix as CSV with ``re+imj`` tokens."""
    _write_csv(path, np.atleast_2d(np.asarray(a, dtype=complex)), _fmt_complex)


def read_complex_csv(path) -> np.ndarray:
    return _read_csv(path, complex, complex)


def json_text(obj) -> str:
    """Indented, key-sorted JSON text with a trailing newline.  NaN or
    infinite floats raise ValueError, so no output carries them."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_json(path, obj) -> None:
    """Write :func:`json_text` of ``obj``; it raises before the file is opened."""
    text = json_text(obj)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def write_pgm(path, grid) -> None:
    """Write a min-max normalized grayscale render of a 2-D map.

    NaN cells (undefined statuses) render as black, and so does a flat
    map, whose finite values agree to rounding.  A map whose span exceeds
    the float range still renders in 0.._PGM_MAXVAL.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2:
        raise DimensionMismatch(f"PGM render expects a 2-D grid, got shape {grid.shape}")
    finite = np.isfinite(grid)
    scaled = np.zeros_like(grid)
    if finite.any():
        lo, hi = float(grid[finite].min()), float(grid[finite].max())
        if hi - lo > _PGM_FLAT_RTOL * max(abs(lo), abs(hi)):
            # scale by a power of two only where hi - lo could overflow
            s = math.ldexp(1.0, -max(0, math.frexp(max(abs(lo), abs(hi)))[1] - 1022))
            scaled = np.where(finite, (grid * s - lo * s) / (hi * s - lo * s) * _PGM_MAXVAL, 0.0)
    pix = np.clip(np.rint(scaled), 0, _PGM_MAXVAL).astype(int)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"P2\n{grid.shape[1]} {grid.shape[0]}\n{_PGM_MAXVAL}\n")
        for row in pix.tolist():
            fh.write(" ".join(map(str, row)) + "\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def hash_outputs(paths: Sequence[str]) -> dict[str, str]:
    return {os.path.basename(p): sha256_file(p) for p in sorted(paths)}
