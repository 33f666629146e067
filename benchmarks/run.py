"""Benchmark of the entrybounds command line: three workloads timed end to
end, and a traced run that splits their time by module.

    python3 benchmarks/run.py                      # every workload, end to end
    python3 benchmarks/run.py --trace 1            # every workload, per layer
    python3 benchmarks/run.py --workload sense-128 --seed 3 --seconds 25 --trace 0
    python3 benchmarks/run.py --smoke --seconds 1  # toy sizes, for the tests

Each repetition is one ``entrybounds.cli.main(argv)`` call in this process,
on inputs generated from ``--seed``, with one BLAS thread.  The timed region
holds only that call.  A calibration kernel (``calibrate.py``) runs before
the first repetition and after each one; ``wall_rel`` is the median over
repetitions of wall time divided by the mean of the two kernel times around
it, which cancels most of a shared host's changes of speed.  Repetitions and
kernels run until together they have taken ``--seconds``.  Set-up
time and peak memory come from fresh processes (``child.py``).  Every
repetition's outputs must be identical to those of the fresh-process run,
which are checked against the workload's oracle; a mismatch, a non-zero
exit or a raised error counts the repetition's operations as failed.

With ``--trace 1`` untraced and traced repetitions alternate.  The traced
ones record spans (see ``spans.py``) and give the per-layer metrics; the
gap between the two medians is the tracing overhead.  End-to-end metrics
come only from ``--trace 0``.

The human-readable report comes first; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Inputs, outputs, spans and a result file with the
environment go to ``benchmarks/_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median, median_low

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

# Fresh-process imports measured per run for setup_s.
SETUP_SAMPLES = 9


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return res.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((SRC / "entrybounds").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
        "commit": _commit(),
        "source_sha256": src.hexdigest(),
    }


def _child(mode: str, argv: list[str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    res = subprocess.run([sys.executable, str(CHILD), mode, json.dumps(argv)],
                         capture_output=True, text=True, timeout=170)
    return time.perf_counter() - t0, res.stdout


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 work_root: Path) -> dict:
    from entrybounds import cli
    from calibrate import Calibration
    from spans import LAYERS, Tracer
    from workloads import WORKLOADS

    work = work_root / name
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("child", "out", "warm/out"):
        (work / sub).mkdir(parents=True)
    wl = WORKLOADS[name](work, seed, smoke)

    ref, ref_failed, rel_err = None, 0, 0.0
    attempted = failed = 0
    errors = []

    def score(rc: int, out: Path) -> int:
        """Failed operations of one repetition; the first one is checked
        against the oracle, later ones must reproduce its outputs."""
        nonlocal ref, ref_failed, rel_err, attempted, failed
        bad = wl.ops
        if rc == 0:
            digest = wl.digest(out)
            if ref is None:
                ref = digest
                ref_failed, rel_err = wl.check(out)
            if digest == ref:
                bad = ref_failed
        attempted += wl.ops
        failed += bad
        return bad

    # set-up and memory, each in fresh processes
    setup = [_child("setup", wl.argv(work / "out"))[0]
             for _ in range(2 if smoke else SETUP_SAMPLES)]
    _, stdout = _child("run", wl.argv(work / "child"))
    lines = stdout.strip().splitlines()
    child = json.loads(lines[-1]) if lines else {"rc": -1, "maxrss_kb": 0}
    score(child["rc"], work / "child")
    peak_rss_mb = child["maxrss_kb"] / 1024.0

    # warm-up: let lazy set-up in numpy and the package finish before timing
    warm = WORKLOADS[name](work / "warm", seed, True)
    cli.main(warm.argv(work / "warm" / "out"))

    tracer = Tracer()
    calibration = Calibration(0.1 if smoke else 1.0)
    calibration.seconds()
    cals = [calibration.seconds()]
    walls = {False: [], True: []}
    rel = []
    per_unit = []
    layer_runs = []
    measured = cals[0]
    rep = 0
    while measured < seconds or not walls[False] or (trace and not walls[True]):
        traced = trace and rep % 2 == 1
        out = work / "out"
        shutil.rmtree(out)
        out.mkdir()
        argv = wl.argv(out)
        gc.collect()
        with tracer.instrument(rep) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:
                errors.append(traceback.format_exc())
                rc = -1
            wall = time.perf_counter() - t0
        cals.append(calibration.seconds())
        measured += wall + cals[-1]
        walls[traced].append(wall)
        bad = score(rc, out)
        if traced:
            layer_runs.append(tracer.layer_metrics(rep))
        else:
            rel.append(wall / (0.5 * (cals[-2] + cals[-1])))
            per_unit.append(wl.units * (wl.ops - bad) / wl.ops / wall)
        rep += 1

    units = {m["name"]: m["unit"] for m in LAYERS}
    if trace:
        # counts repeat exactly; median_low keeps them whole numbers
        values = {k: (median if units[k] == "s" else median_low)(
            [r[k] for r in layer_runs]) for k in layer_runs[0]}
        values["trace.overhead_frac"] = median(walls[True]) / median(walls[False]) - 1.0
        values["rel_err"] = rel_err
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        tracer.write(work / "spans.jsonl")
    else:
        metrics = {
            "wall_rel": {"value": median(rel), "unit": "1"},
            "setup_s": {"value": median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "workload": name,
        "trace": int(trace),
        "smoke": smoke,
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": {
            "failed_frac": failed / attempted,
            "rel_err": rel_err,
            "wall_s": median(walls[False]),
            "units_per_s": median(per_unit),
            "calibration_s": median(cals),
            "wall_rel_samples": rel,
            "calibration_samples": cals,
            "wall_samples": walls[False],
            "traced_wall_samples": walls[True],
            "setup_samples": setup,
            "ops_per_rep": wl.ops,
            "units_per_rep": wl.units,
        },
        "errors": errors,
        "env": environment(seed),
    }
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def _print_report(res: dict) -> None:
    rep = res["report"]
    walls = rep["traced_wall_samples"] if res["trace"] else rep["wall_samples"]
    print(f"== {res['workload']}  trace={res['trace']}  correct={res['correct']}  "
          f"attempted={res['attempted']} failed={res['failed']}  reps={len(walls)}")
    print("   env: " + json.dumps(res["env"], sort_keys=True))
    for key, m in res["metrics"].items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"   {key:<30} {value:>16} {m['unit']}")
    print(f"   {'failed_frac':<30} {rep['failed_frac']:>16.6g} 1")
    if not res["trace"]:
        print(f"   {'rel_err':<30} {rep['rel_err']:>16.6g} 1")
        print(f"   {'wall_s (raw, median)':<30} {rep['wall_s']:>16.6g} s")
        print(f"   {'units_per_s (raw, median)':<30} {rep['units_per_s']:>16.6g} 1/s")
        print(f"   {'calibration_s (median)':<30} {rep['calibration_s']:>16.6g} s")
        print(f"   wall_s samples: {' '.join(f'{w:.4f}' for w in rep['wall_samples'])}")
    for err in res["errors"]:
        print(err, file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default=None,
                   help="one of sense-128, diag-sense-32, bounds-csv (default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy problem sizes")
    args = p.parse_args(argv)

    if not (SRC / "entrybounds" / "__init__.py").is_file():
        print(f"error: no entrybounds package under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: the program then runs on one core, as the
    # calibration kernel does, and a busy second core cannot stall it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import entrybounds
    from workloads import WORKLOADS

    if Path(entrybounds.__file__).resolve().parent != SRC / "entrybounds":
        print(f"error: imported entrybounds from {entrybounds.__file__}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work_root = HERE / "_work" / ("smoke" if args.smoke else "full")
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke, work_root)
        _print_report(res)
        results.append(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
