"""Command-line front-end.

Subcommands: ``bounds`` (interval bounds on a user matrix), ``extremal``
(feasible vectors attaining the interval endpoints), ``estimate-diag``
(matrix-free stochastic sensitivity estimation), and ``sense`` (the full
synthetic MRI bound-map pipeline).  Every run can emit a manifest with a
config echo, seeds, timings, and content hashes of the outputs.

Exit codes: 0 success, 1 input/config error, 2 at least one functional
infeasible (or an extremal target incompatible with the bound status).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from typing import Optional

import numpy as np

from . import __version__, bounds as bnd, matfree, mio, sense
from .bounds import BoundStatus, LinearSystem, Target
from .core import DEFAULT_RANK_RTOL
from .errors import EntryBoundsError, StatusMismatch

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_STATUS = 2


def _manifest(command: str, config: dict, outputs: list[str], t0: float) -> dict:
    return {
        "command": command,
        "config": config,
        "version": __version__,
        "outputs": mio.hash_outputs(outputs),
        "wall_clock_s": time.perf_counter() - t0,
    }


def _emit(args, command: str, payload: dict, outputs: list[str], t0: float) -> None:
    """Write ``payload`` to the ``--json`` file, or to stdout, then the
    ``--manifest`` over ``outputs`` and that file."""
    if args.json:
        mio.write_json(args.json, payload)
        outputs.append(args.json)
    else:
        sys.stdout.write(mio.json_text(payload))
    if args.manifest:
        mio.write_json(args.manifest, _manifest(command, vars_config(args), outputs, t0))


def _load_system(args) -> LinearSystem:
    a = mio.read_matrix_csv(args.matrix)
    b = mio.read_vector_csv(args.data)
    return LinearSystem(a=a, b=b, epsilon=args.epsilon, rank_rtol=args.rtol)


def _parse_entries(spec: str) -> Optional[list[int]]:
    """The indices of ``--entries``; None for all of them."""
    if spec == "all":
        return None
    try:
        idx = [int(t) for t in spec.split(",")]
    except ValueError:
        raise EntryBoundsError(f"--entries must be 'all' or a comma list, got {spec!r}")
    return idx


def cmd_bounds(args) -> int:
    t0 = time.perf_counter()
    sys_ = _load_system(args)
    if args.weights is not None:
        w = mio.read_vector_csv(args.weights)
        results = [bnd.functional_bound(sys_, w, index=0)]
    else:
        results = bnd.entrywise_bounds(sys_, _parse_entries(args.entries))
    records = [r.to_record() for r in results]
    payload = {
        "epsilon": sys_.epsilon,
        "rank_rtol": sys_.rank_rtol,
        "bounds": records,
    }
    _emit(args, "bounds", payload, [], t0)
    infeasible = any(r["status"] == BoundStatus.INFEASIBLE.value for r in records)
    return EXIT_STATUS if infeasible else EXIT_OK


def cmd_extremal(args) -> int:
    t0 = time.perf_counter()
    sys_ = _load_system(args)
    n = sys_.shape[1]
    if args.weights is not None:
        w = mio.read_vector_csv(args.weights)
    elif args.weight_index is not None:
        if not 0 <= args.weight_index < n:
            raise EntryBoundsError(f"--weight-index {args.weight_index} out of range for N={n}")
        w = np.zeros(n)
        w[args.weight_index] = 1.0
    else:
        raise EntryBoundsError("extremal requires --weight-index or --weights")

    if args.target in ("lower", "upper"):
        target = Target.LOWER if args.target == "lower" else Target.UPPER
        alpha = None
    elif args.target.startswith("value:"):
        target = Target.ARBITRARY
        alpha = float(args.target.split(":", 1)[1])
    else:
        raise EntryBoundsError(f"--target must be lower|upper|value:<a>, got {args.target!r}")

    sol = bnd.extremal_solution(sys_, w, target, alpha)
    if target is Target.ARBITRARY:
        expected = alpha
    else:
        expected = sol.bound.lower if target is Target.LOWER else sol.bound.upper

    mio.write_vector_csv(args.out, sol.x)
    verification = {
        "target": args.target,
        "residual_norm": sol.residual_norm,
        "epsilon": sys_.epsilon,
        "achieved": sol.achieved_value,
        "expected": expected,
    }
    _emit(args, "extremal", verification, [args.out], t0)
    return EXIT_OK


def cmd_estimate_diag(args) -> int:
    t0 = time.perf_counter()
    dense = None
    if (args.op is None) == (args.matrix is None):
        raise EntryBoundsError("estimate-diag takes exactly one of --matrix and --op")
    # checked before any operator work; 1.0 holds sigma1's place until it is known
    matfree._check_probes(args.samples, args.seed)
    cfg_lw = matfree.LandweberConfig(1.0, max_iters=args.max_iters, rel_tol=args.rel_tol)
    if args.op is not None:
        if not args.op.startswith("sense:"):
            raise EntryBoundsError(f"--op must look like sense:<cfg.json>, got {args.op!r}")
        cfg = mio.read_json(args.op.split(":", 1)[1])
        op, _ = sense.sense_operator(*sense.build_problem(cfg))
    else:
        dense = mio.read_matrix_csv(args.matrix)
        op = matfree.LinearOperator.from_matrix(dense)

    sigma1 = matfree.sigma1(op, seed=args.seed)
    cfg_lw = dataclasses.replace(cfg_lw, sigma1_estimate=sigma1, tau=args.tau)
    est = matfree.stochastic_diag(
        op, args.samples, probe_kind=args.probe, seed=args.seed, cfg=cfg_lw
    )
    payload = {
        "samples": args.samples,
        "seed": args.seed,
        "probe_kind": args.probe,
        "failed_samples": est.failed_samples,
        "sigma1_estimate": sigma1,
        "values": list(est.values),
        "iterations": {
            "min": int(est.iterations.min()),
            "median": float(np.median(est.iterations)),
            "max": int(est.iterations.max()),
        },
        "max_last_update_norm": est.max_last_update_norm,
    }
    if dense is not None:
        exact = bnd.condition_report(dense).spectral_entry ** 2
        payload["exact"] = list(exact)
        payload["relative_error"] = list(
            np.abs(est.values - exact) / np.maximum(exact, 1e-300)
        )
    outputs = []
    if args.csv:
        mio.write_vector_csv(args.csv, est.values)
        outputs.append(args.csv)
    _emit(args, "estimate-diag", payload, outputs, t0)
    return EXIT_OK


def cmd_sense(args) -> int:
    t0 = time.perf_counter()
    cfg = mio.read_json(args.config)
    if args.manifest_only:
        sense.build_problem(cfg)  # every check of a run short of the data
        sys.stdout.write(mio.json_text(sense._default_cfg(cfg)))
        return EXIT_OK
    result = sense.run_pipeline(cfg)
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    outputs = []
    t_write = time.perf_counter()
    for name, grid in result.maps.items():
        path = os.path.join(outdir, f"{name}.csv")
        mio.write_matrix_csv(path, grid)
        outputs.append(path)
        if args.pgm:
            pgm_path = os.path.join(outdir, f"{name}.pgm")
            mio.write_pgm(pgm_path, grid)
            outputs.append(pgm_path)
    status_path = os.path.join(outdir, "status.csv")
    mio.write_matrix_csv(status_path, result.status.astype(float))
    outputs.append(status_path)
    write_s = time.perf_counter() - t_write

    manifest = _manifest("sense", result.config, outputs, t0)
    manifest.update(
        epsilon_mode=result.config["epsilon"]["mode"],
        line_stats=result.line_stats,
        # bounded lines per factor path: the triangle (M >= 2N at full rank) or the SVD
        factor_paths=result.factor_paths,
        lines_skipped=sum("skipped" in stats for stats in result.line_stats),
        # voxels per status code, 0 through STATUS_UNDETERMINED
        status_counts={str(code): int(n) for code, n in enumerate(
            np.bincount(result.status.ravel(), minlength=sense.STATUS_UNDETERMINED + 1))},
        timings={**result.timings, "write_s": write_s},
    )
    mio.write_json(os.path.join(outdir, "manifest.json"), manifest)
    infeasible = bool(np.any(result.status == sense.STATUS_INFEASIBLE))
    return EXIT_STATUS if infeasible else EXIT_OK


def vars_config(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="entrybounds",
        description="Entrywise interval bounds for nearly data-consistent solutions",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    # options shared by the commands that read a (matrix, data, epsilon) system
    system = argparse.ArgumentParser(add_help=False)
    system.add_argument("--matrix", required=True, help="system matrix CSV")
    system.add_argument("--data", required=True, help="data vector CSV (single column)")
    system.add_argument("--epsilon", type=float, required=True)
    system.add_argument("--weights", default=None, help="weight vector CSV")
    system.add_argument("--rtol", type=float, default=DEFAULT_RANK_RTOL,
                        help="numerical-rank tolerance")
    system.add_argument("--json", default=None, help="write results to this JSON file")
    system.add_argument("--manifest", default=None)

    pb = sub.add_parser("bounds", parents=[system],
                        help="entrywise or weighted interval bounds")
    pb.add_argument("--entries", default="all", help="'all' or comma list of indices")
    pb.set_defaults(func=cmd_bounds)

    pe = sub.add_parser("extremal", parents=[system], help="feasible vector attaining a bound")
    pe.add_argument("--target", required=True, help="lower | upper | value:<alpha>")
    pe.add_argument("--weight-index", type=int, default=None)
    pe.add_argument("--out", required=True, help="solution vector CSV")
    pe.set_defaults(func=cmd_extremal)

    pd = sub.add_parser("estimate-diag", help="stochastic sensitivity estimation")
    pd.add_argument("--matrix", default=None, help="dense matrix CSV")
    pd.add_argument("--op", default=None, help="operator spec, e.g. sense:<cfg.json>")
    pd.add_argument("--samples", type=int, required=True)
    pd.add_argument("--probe", choices=["gaussian", "rademacher"], default="gaussian")
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument("--tau", type=float, default=None, help="step size (default 1/sigma1^2)")
    pd.add_argument("--max-iters", type=int, default=matfree.LandweberConfig.max_iters)
    pd.add_argument("--rel-tol", type=float, default=matfree.LandweberConfig.rel_tol)
    pd.add_argument("--json", default=None)
    pd.add_argument("--csv", default=None)
    pd.add_argument("--manifest", default=None)
    pd.set_defaults(func=cmd_estimate_diag)

    ps = sub.add_parser("sense", help="synthetic multi-channel MRI bound maps")
    ps.add_argument("--config", required=True, help="pipeline config JSON")
    ps.add_argument("--out", required=True, help="output directory")
    ps.add_argument("--pgm", action="store_true", help="also write grayscale renders")
    ps.add_argument("--manifest-only", action="store_true",
                    help="echo the resolved config and exit")
    ps.set_defaults(func=cmd_sense)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StatusMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATUS
    except (EntryBoundsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:  # an input too large for this host
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
