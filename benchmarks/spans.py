"""Span tracing for the benchmark's traced runs.

The benchmark wraps public functions of ``entrybounds`` at their module
attributes, so the package itself carries no tracing code.  Every call of a
wrapped function records one span: name, start, end, parent span and run id.
Spans are kept in memory and written out when the run ends.

A span's self time is its duration minus the time its child spans cover.
Each span name maps to a layer time metric; a span whose name maps to
``None`` (a helper such as ``bounds.functional_bound``) gives its self time
to the nearest ancestor that has a metric, so ``bounds.diff_s`` holds the
whole cost of the difference bounds, helpers included.

``LAYERS`` lists every per-layer metric together with the end-to-end metrics
it is predicted to move, the workloads where it matters and those where it
should not move.  Later performance changes cite these predictions by name.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager

_ALL = ("sense-128", "diag-sense-32", "bounds-csv")


def _layer(name, unit, better, moves, matters_on, flat_on, what):
    return {
        "name": name,
        "unit": unit,
        "better": better,
        "moves": moves,
        "matters_on": matters_on,
        "flat_on": flat_on,
        "what": what,
    }


_SVD = ("sense-128", "bounds-csv")
_FLAT_SVD = ("diag-sense-32",)
_SENSE = ("sense-128",)
_NOT_SENSE = ("diag-sense-32", "bounds-csv")
_DIAG = ("diag-sense-32",)
_NOT_DIAG = ("sense-128", "bounds-csv")
_WALL = ("wall_rel",)
_WALL_RSS = ("wall_rel", "peak_rss_mb")
_MATFREE = ("wall_rel", "peak_rss_mb", "failed_frac")

LAYERS = [
    _layer("core.svd_s", "s", "lower", _WALL_RSS, _SVD, _FLAT_SVD,
           "self time of core.svd_truncated"),
    _layer("core.svd_calls", "count", "lower", _WALL, _SVD, _FLAT_SVD,
           "calls of core.svd_truncated"),
    _layer("core.svd_elems", "count", "lower", _WALL_RSS, _SVD, _FLAT_SVD,
           "sum of M*N over factored matrices (computed)"),
    _layer("core.residual_proj_calls", "count", "lower", _WALL, _SENSE, _NOT_SENSE,
           "calls of core.residual_projection_norm"),
    _layer("bounds.entrywise_s", "s", "lower", _WALL, _SENSE, _NOT_SENSE,
           "self time of bounds.entrywise_bounds"),
    _layer("bounds.diff_s", "s", "lower", _WALL, _SENSE, _NOT_SENSE,
           "self time of bounds.adjacent_difference_bounds and its helpers"),
    _layer("bounds.extremal_s", "s", "lower", _WALL, _SENSE, _NOT_SENSE,
           "self time of bounds.extremal_solution and its helpers"),
    _layer("bounds.condition_s", "s", "lower", _WALL, _SENSE, _NOT_SENSE,
           "self time of bounds.condition_report"),
    _layer("bounds.functional_calls", "count", "lower", _WALL, _SENSE, _NOT_SENSE,
           "calls of bounds.functional_bound"),
    _layer("sense.pipeline_s", "s", "lower", _WALL, _SENSE, _NOT_SENSE,
           "self time of sense.run_pipeline: problem set-up, epsilon, map scatter"),
    _layer("sense.build_s", "s", "lower", _WALL_RSS, _SENSE, _NOT_SENSE,
           "self time of sense.build_row_systems"),
    _layer("lifting.lift_s", "s", "lower", _WALL_RSS, _SENSE, _NOT_SENSE,
           "self time of lifting.lift_system"),
    _layer("lifting.lift_calls", "count", "lower", _WALL, _SENSE, _NOT_SENSE,
           "calls of lifting.lift_system"),
    _layer("lifting.lifted_bytes", "B", "lower", _WALL_RSS, _SENSE, _NOT_SENSE,
           "bytes of the lifted real matrices (computed)"),
    _layer("matfree.diag_s", "s", "lower", _MATFREE, _DIAG, _NOT_DIAG,
           "self time of matfree.stochastic_diag: probe draws and accumulation"),
    _layer("matfree.power_s", "s", "lower", _MATFREE, _DIAG, _NOT_DIAG,
           "self time of matfree.power_iteration_sigma1"),
    _layer("matfree.landweber_s", "s", "lower", _MATFREE, _DIAG, _NOT_DIAG,
           "self time of matfree.landweber_pinv"),
    _layer("matfree.landweber_calls", "count", "lower", _MATFREE, _DIAG, _NOT_DIAG,
           "calls of matfree.landweber_pinv"),
    _layer("matfree.landweber_iters", "count", "lower", _MATFREE, _DIAG, _NOT_DIAG,
           "Landweber iterations, summed over calls"),
    _layer("matfree.landweber_iters_p50", "count", "lower", _MATFREE, _DIAG, _NOT_DIAG,
           "median Landweber iterations per call"),
    _layer("matfree.probes_failed", "count", "lower", _MATFREE, _DIAG, _NOT_DIAG,
           "Landweber calls that did not converge"),
    _layer("sense.op_apply_s", "s", "lower", _MATFREE, _DIAG, _NOT_DIAG,
           "self time of apply and apply_transpose of the sense.sense_operator operator"),
    _layer("sense.op_apply_calls", "count", "lower", _MATFREE, _DIAG, _NOT_DIAG,
           "calls of apply and apply_transpose of the SENSE operator"),
    _layer("mio.read_s", "s", "lower", _WALL, ("bounds-csv",), _DIAG,
           "self time of mio.read_matrix_csv and mio.read_vector_csv"),
    _layer("mio.read_bytes", "B", "lower", _WALL, ("bounds-csv",), _DIAG,
           "bytes of the CSV files read"),
    _layer("mio.write_s", "s", "lower", _WALL, _SENSE, _DIAG,
           "self time of the mio writers (CSV, JSON, PGM)"),
    _layer("mio.write_bytes", "B", "lower", _WALL, _SENSE, _DIAG,
           "bytes of the files written by the mio writers"),
    _layer("mio.hash_s", "s", "lower", _WALL, _SENSE, _DIAG,
           "self time of mio.hash_outputs and mio.sha256_file"),
    _layer("cli.self_s", "s", "lower", _WALL, _ALL, (),
           "self time of cli.main: argument parsing, glue and untraced helpers"),
    _layer("trace.overhead_frac", "1", "lower", (), _ALL, (),
           "traced median wall time over untraced median wall time, minus one"),
    _layer("rel_err", "1", "lower", (), _ALL, (),
           "error against the workload's oracle: relative L2 error of the diagonal "
           "estimate, or the largest relative interval error"),
]

# Wrapped functions: "module.attribute" -> the time metric their self time
# goes to (None: the nearest ancestor's metric).
SPANS = {
    "cli.main": "cli.self_s",
    "sense.run_pipeline": "sense.pipeline_s",
    "sense.build_row_systems": "sense.build_s",
    "sense.sense_operator": None,
    "lifting.lift_system": "lifting.lift_s",
    "core.svd_truncated": "core.svd_s",
    "core.residual_projection_norm": None,
    "bounds.entrywise_bounds": "bounds.entrywise_s",
    "bounds.adjacent_difference_bounds": "bounds.diff_s",
    "bounds.functional_bound": None,
    "bounds.extremal_solution": "bounds.extremal_s",
    "bounds.condition_report": "bounds.condition_s",
    "matfree.stochastic_diag": "matfree.diag_s",
    "matfree.power_iteration_sigma1": "matfree.power_s",
    "matfree.landweber_pinv": "matfree.landweber_s",
    "mio.read_matrix_csv": "mio.read_s",
    "mio.read_vector_csv": "mio.read_s",
    "mio.write_matrix_csv": "mio.write_s",
    "mio.write_vector_csv": "mio.write_s",
    "mio.write_json": "mio.write_s",
    "mio.write_pgm": "mio.write_s",
    "mio.hash_outputs": "mio.hash_s",
    "mio.sha256_file": "mio.hash_s",
}

# Spans created on the operator that sense.sense_operator returns.
OP_SPANS = {"sense.op_apply": "sense.op_apply_s", "sense.op_apply_transpose": "sense.op_apply_s"}

# Spans counted into a "*_calls" metric.
CALL_COUNTS = {
    "core.svd_truncated": "core.svd_calls",
    "core.residual_projection_norm": "core.residual_proj_calls",
    "bounds.functional_bound": "bounds.functional_calls",
    "lifting.lift_system": "lifting.lift_calls",
    "matfree.landweber_pinv": "matfree.landweber_calls",
    "sense.op_apply": "sense.op_apply_calls",
    "sense.op_apply_transpose": "sense.op_apply_calls",
}


# Computed quantities recorded as span attributes, keyed by the metric they
# add to: name -> f(args, result).  Only the innermost function that touches
# a file records its bytes.
_getsize = os.path.getsize
ATTRS = {
    "core.svd_truncated": lambda args, out: {"core.svd_elems": out.shape[0] * out.shape[1]},
    "lifting.lift_system": lambda args, out: {"lifting.lifted_bytes": out[0].a_real.nbytes},
    "matfree.landweber_pinv": lambda args, out: {
        "matfree.landweber_iters": out.iterations,
        "matfree.probes_failed": int(not out.converged)},
    "mio.read_matrix_csv": lambda args, out: {"mio.read_bytes": _getsize(args[0])},
    "mio.write_matrix_csv": lambda args, out: {"mio.write_bytes": _getsize(args[0])},
    "mio.write_json": lambda args, out: {"mio.write_bytes": _getsize(args[0])},
    "mio.write_pgm": lambda args, out: {"mio.write_bytes": _getsize(args[0])},
}


class Tracer:
    """Records spans of the wrapped functions while :meth:`instrument` is active."""

    def __init__(self):
        # One record per span: [name, start, end, parent index, run id, attrs].
        self.spans = []
        self._stack = []
        self.run_id = 0

    def wrap(self, name, fn):
        spans, stack, attrs_fn = self.spans, self._stack, ATTRS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs_fn is not None:
                rec[5] = attrs_fn(args, out)
            return out

        return traced

    def _wrap_operator_factory(self, fn):
        def factory(*args, **kwargs):
            op, voxel_map = fn(*args, **kwargs)
            op = dataclasses.replace(
                op,
                apply=self.wrap("sense.op_apply", op.apply),
                apply_transpose=self.wrap("sense.op_apply_transpose", op.apply_transpose),
            )
            return op, voxel_map

        return self.wrap("sense.sense_operator", functools.wraps(fn)(factory))

    @contextmanager
    def instrument(self, run_id: int):
        """Wrap every function in ``SPANS`` wherever the package binds it,
        and restore the originals on exit."""
        self.run_id = run_id
        modules = [m for k, m in sys.modules.items()
                   if (k == "entrybounds" or k.startswith("entrybounds.")) and m is not None]
        patches = []
        for qual in SPANS:
            mod_name, attr = qual.split(".")
            original = getattr(sys.modules[f"entrybounds.{mod_name}"], attr)
            if qual == "sense.sense_operator":
                wrapper = self._wrap_operator_factory(original)
            else:
                wrapper = self.wrap(qual, original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        patches.append((mod, key, val))
                        setattr(mod, key, wrapper)
        try:
            yield
        finally:
            for mod, key, val in reversed(patches):
                setattr(mod, key, val)

    def layer_metrics(self, run_id: int) -> dict:
        """Per-layer totals of one traced repetition (no ratios)."""
        buckets = {**SPANS, **OP_SPANS}
        recs = [(i, r) for i, r in enumerate(self.spans) if r[4] == run_id]
        child_time = {}
        for _, r in recs:
            if r[3] >= 0:
                child_time[r[3]] = child_time.get(r[3], 0.0) + (r[2] - r[1])
        out = {m["name"]: 0.0 if m["unit"] == "s" else 0 for m in LAYERS if m["unit"] != "1"}
        iters = []
        for i, r in recs:
            j = i
            while buckets[self.spans[j][0]] is None:
                j = self.spans[j][3]
            out[buckets[self.spans[j][0]]] += (r[2] - r[1]) - child_time.get(i, 0.0)
            if r[0] in CALL_COUNTS:
                out[CALL_COUNTS[r[0]]] += 1
            for key, val in (r[5] or {}).items():
                out[key] += val
            if r[0] == "matfree.landweber_pinv":
                iters.append(r[5]["matfree.landweber_iters"])
        out["matfree.landweber_iters_p50"] = statistics.median(iters) if iters else 0
        return out

    def write(self, path) -> None:
        """Write all spans as JSON lines."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run_id, attrs) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "run": run_id}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")
