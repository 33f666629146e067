"""File formats: CSV matrices/vectors, complex CSV, JSON records, PGM
renders, and run manifests with content hashes.

All floats are written with 17 significant digits and a locale-independent
decimal point, so reruns with identical inputs are byte-identical.

A real CSV is read in one streamed ``np.loadtxt`` pass over exactly the
header's row count.  Anything that pass does not take as a well-formed
``rows x cols`` file (a bad token, a blank or missing row, a wrong column
count, data past the last row, an empty shape) sends the file through the
token-by-token Python loop instead, which accepts every token ``float()``
accepts and names the file and line of the first fault.  ``loadtxt``
accepts a subset of ``float()``'s grammar (not ``1_0`` or non-ASCII digits)
and gives the same double for every token it accepts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatch

FLOAT_FMT = "%.17g"
_PGM_MAXVAL = 255
_PGM_FLAT_RTOL = 1e-12  # a relative span at or below this is rounding: one gray level


def _write_csv(path, a, row_text) -> None:
    """Write a 2-D array as CSV with a leading ``rows,cols`` line and one
    line ``row_text(row)`` per row (a list of Python scalars)."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{a.shape[0]},{a.shape[1]}\n")
        fh.writelines(map(row_text, a.tolist()))


def _read_header(fh, path) -> tuple[int, int]:
    """Parse the ``rows,cols`` line of a CSV written by :func:`_write_csv`."""
    header = fh.readline().strip()
    try:
        rows, cols = (int(t) for t in header.split(","))
    except ValueError:
        rows = cols = -1
    if rows < 0 or cols < 0:
        raise ConfigError(f"{path}:1: malformed header {header!r}, expected 'rows,cols'")
    return rows, cols


def _read_csv(path, dtype, parse) -> np.ndarray:
    """Read a CSV written by :func:`_write_csv`, parsing each token with
    ``parse``; errors name the file and the line.  Only blank lines may
    follow the header's row count."""
    with open(path) as fh:
        rows, cols = _read_header(fh, path)
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
        for lineno, line in enumerate(fh, rows + 2):
            if line.strip():
                raise ConfigError(f"{path}:{lineno}: expected {rows} data rows, found more")
    return out


def _data_rows(fh, rows):
    """Yield the next ``rows`` lines of ``fh``.  Raise ValueError at a blank
    line, which ``np.loadtxt`` would skip, and at the end of the file, where
    it would warn and return fewer rows."""
    n = 0
    for n, line in enumerate(itertools.islice(fh, rows), 1):
        if not line.strip():
            raise ValueError("blank data row")
        yield line
    if n < rows:
        raise ValueError("fewer data rows than the header")


def _read_real_csv_fast(path) -> np.ndarray | None:
    """One streamed ``np.loadtxt`` pass over a well-formed real CSV; None
    when the file is not one, for :func:`_read_csv` to diagnose."""
    with open(path) as fh:
        rows, cols = _read_header(fh, path)
        if rows == 0 or cols == 0:
            return None
        try:
            out = np.loadtxt(_data_rows(fh, rows), dtype=float, delimiter=",",
                             comments=None, ndmin=2)
        except ValueError:
            return None
        if out.shape != (rows, cols) or any(line.strip() for line in fh):
            return None
    return out


def _real(a, writer: str) -> np.ndarray:
    """``a`` as a float array; complex data raises rather than losing its
    imaginary part."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        raise TypeError(f"{writer} writes real data; write complex data with write_complex_csv")
    return a.astype(float, copy=False)


def write_matrix_csv(path, a) -> None:
    """Write a real matrix as CSV with a leading ``rows,cols`` line."""
    a = np.atleast_2d(_real(a, "write_matrix_csv"))
    line = ",".join([FLOAT_FMT] * a.shape[1]) + "\n"
    _write_csv(path, a, lambda row: line % tuple(row))


def read_matrix_csv(path) -> np.ndarray:
    """Read a real matrix written by :func:`write_matrix_csv`; a malformed
    file raises ConfigError naming the file and line."""
    out = _read_real_csv_fast(path)
    return _read_csv(path, float, float) if out is None else out


def write_vector_csv(path, x) -> None:
    """Write a vector as single-column CSV."""
    x = _real(x, "write_vector_csv").reshape(-1)
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
    _write_csv(path, np.atleast_2d(np.asarray(a, dtype=complex)),
               lambda row: ",".join(map(_fmt_complex, row)) + "\n")


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
    grid = _real(grid, "write_pgm")
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
    line = " ".join(["%d"] * grid.shape[1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(f"P2\n{grid.shape[1]} {grid.shape[0]}\n{_PGM_MAXVAL}\n")
        fh.writelines(line % tuple(row) for row in pix.tolist())


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def hash_outputs(paths: Sequence[str]) -> dict[str, str]:
    return {os.path.basename(p): sha256_file(p) for p in sorted(paths)}
