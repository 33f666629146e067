"""The public surface of ``entrybounds``: the exact export list, every
package function the benchmark's span tracer wraps or reads by name, the
reference forms that stay in the package only because the benchmark reads
them, and the rule that every dataclass of the package is frozen."""

import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import entrybounds

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"

PUBLIC = [
    "BoundArrays", "BoundStatus", "ConditionReport", "DiagEstimate", "EntryBound",
    "ExtremalSolution", "LandweberConfig", "LandweberResult", "LinearOperator",
    "LinearSystem", "SvdFactors", "Target", "adjacent_difference_bounds", "bounds_for",
    "condition_report", "crlb_identity_check", "ellipsoid_volume", "entrywise_bounds",
    "epsilon_heuristic", "extremal_solution", "functional_bound", "global_bounds",
    "landweber_pinv", "power_iteration_sigma1", "stochastic_diag", "svd_truncated",
]

# Reference forms and helpers that no production path needs: they stay as
# module attributes only while a file under benchmarks/ reads them, and are
# not exported.
BENCHMARK_ONLY = [
    "lifting.lift_system",  # spans.py: SPANS, CALL_COUNTS and ATTRS
    "lifting.LiftedSystem",  # spans.py: ATTRS reads the a_real of lift_system's result
    "core.residual_projection_norm",  # spans.py: SPANS and CALL_COUNTS
    "sense.build_row_systems",  # spans.py: SPANS; workloads.py: SenseBounds and exact_diag
    "sense.RowSystem.system",  # workloads.py: SenseBounds.check
    "sense.build_monolithic_system",  # test_benchmark.py
]


def test_exports_are_pinned():
    assert entrybounds.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(entrybounds, name) is not None, name


@pytest.mark.parametrize("qual", BENCHMARK_ONLY)
def test_benchmark_only_names_resolve_and_are_not_exported(qual):
    mod_name, *attrs = qual.split(".")
    obj = importlib.import_module(f"entrybounds.{mod_name}")
    for attr in attrs:
        obj = getattr(obj, attr)
        assert attr not in entrybounds.__all__, qual


def test_benchmark_spans_resolve():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = set(spans.SPANS) | set(spans.CALL_COUNTS) | set(spans.ATTRS)
    names -= set(spans.OP_SPANS)  # methods of the operator sense_operator returns
    assert names
    for qual in sorted(names):
        mod_name, attr = qual.split(".")
        mod = importlib.import_module(f"entrybounds.{mod_name}")
        assert callable(getattr(mod, attr, None)), qual


def test_every_dataclass_is_frozen():
    """Values are checked once, when they are made: no dataclass of the
    package lets a field be assigned afterwards."""
    found = {}
    for info in pkgutil.iter_modules(entrybounds.__path__):
        mod = importlib.import_module(f"entrybounds.{info.name}")
        found.update((obj.__qualname__, obj) for obj in vars(mod).values()
                     if inspect.isclass(obj) and obj.__module__ == mod.__name__
                     and dataclasses.is_dataclass(obj))
    assert {"LinearSystem", "_Factored", "RowSystem", "PipelineResult"} <= set(found)
    assert [name for name, cls in found.items() if not cls.__dataclass_params__.frozen] == []
