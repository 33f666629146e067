"""Calibration kernel: a fixed piece of numpy work that measures how fast the
host runs at the moment.

The benchmark runs it between repetitions and divides each repetition's wall
time by the mean of the kernel times before and after it.  On a shared host
the CPU slows by 15-40% in phases that last from seconds to minutes, longer
than one run; the ratio cancels most of that, where a median or minimum of
raw times within a run cannot.

The kernel mixes the kinds of work the workloads do: small FFTs and
pointwise products (the SENSE operator), economy and full SVDs of tall
matrices (the line systems and the CSV system), Python loops over small
vector operations (the bounds) and float parsing (the CSV reader).  It calls
only numpy, never ``entrybounds``, so a change to the program leaves it
unchanged.  Its inputs are fixed; they do not depend on the workload seed.
"""

from __future__ import annotations

import time

import numpy as np


class Calibration:
    """``scale`` shrinks every loop of the kernel; the smoke runs use a tenth."""

    def __init__(self, scale: float = 1.0):
        self.n = lambda count: max(1, round(scale * count))
        rng = np.random.default_rng(0)
        self.coils = rng.standard_normal((8, 32, 32)) + 1j * rng.standard_normal((8, 32, 32))
        self.img = rng.standard_normal((32, 32)).astype(complex)
        self.mid = rng.standard_normal((500, 180))
        self.big = rng.standard_normal((1000, 300))
        self.rows = rng.standard_normal((64, 180))
        self.lines = [",".join(repr(float(v)) for v in row)
                      for row in rng.standard_normal((150, 300))]

    def _fft(self):
        for _ in range(self.n(110)):
            acc = np.zeros((32, 32), dtype=complex)
            for prof in self.coils:
                k = np.fft.fft2(prof * self.img, norm="ortho")
                acc += np.conj(prof) * np.fft.ifft2(k, norm="ortho")

    def _svd(self):
        for _ in range(self.n(10)):
            np.linalg.svd(self.mid, full_matrices=False)
        np.linalg.svd(self.big, full_matrices=True)

    def _small(self):
        for _ in range(self.n(280)):
            for v in self.rows:
                float(np.linalg.norm(v))
                float(v @ v)

    def _parse(self):
        out = np.empty((len(self.lines), 300))
        for _ in range(self.n(4)):
            for r, line in enumerate(self.lines):
                out[r] = [float(t) for t in line.split(",")]

    def seconds(self) -> float:
        """Wall time of one pass of the kernel, about 0.5 s on a quiet
        2-vCPU Xeon host with one BLAS thread."""
        t0 = time.perf_counter()
        self._fft()
        self._svd()
        self._small()
        self._parse()
        return time.perf_counter() - t0
