"""Command-line front-end.

Subcommands: ``bounds`` (interval bounds on a user matrix), ``extremal``
(feasible vectors attaining the interval endpoints), ``estimate-diag``
(matrix-free stochastic sensitivity estimation), and ``sense`` (the full
synthetic MRI bound-map pipeline).  Every run can emit a manifest with a
config echo, seeds, timings, and content hashes of the outputs.

Exit codes, set only by :func:`main`, which writes each error as one
``error:`` line: 0 success (``--help`` and ``--version`` too); 1 input
error, usage errors included; 2 an infeasible functional or system, or an
extremal target incompatible with the bound status.  Mutually exclusive
flags: ``estimate-diag --matrix|--op`` and ``extremal
--weights|--weight-index`` (exactly one), ``bounds --weights|--entries``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from . import __version__, bounds as bnd, matfree, mio, sense
from .bounds import BoundStatus, LinearSystem, Target
from .core import DEFAULT_RANK_RTOL
from .errors import (ConfigError, EntryBoundsError, IndexOutOfRange, InfeasibleSystem,
                     StatusMismatch)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_STATUS = 2


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a :class:`ConfigError`, an input error."""

    def error(self, message):
        raise ConfigError(message)


class _Flag(str):
    """A flag's text as given, which the manifest echoes, and its ``parsed`` value."""

    def __new__(cls, text: str, parsed):
        flag = super().__new__(cls, text)
        flag.parsed = parsed
        return flag


def _entries(text: str) -> _Flag:
    """``--entries``: ``all`` (parsed as None) or a comma list of indices."""
    try:
        return _Flag(text, None if text == "all" else [int(t) for t in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be 'all' or a comma list, got {text!r}")


def _target(text: str) -> _Flag:
    """``--target``: ``lower``, ``upper`` or ``value:<alpha>``, as (Target, alpha or None)."""
    if text in ("lower", "upper"):
        return _Flag(text, (Target(text), None))
    if text.startswith("value:"):
        try:
            return _Flag(text, (Target.ARBITRARY, float(text[len("value:"):])))
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"must be lower|upper|value:<a>, got {text!r}")


def _operator_spec(text: str) -> _Flag:
    """``--op``: ``sense:<cfg.json>``, parsed as the config path."""
    if not text.startswith("sense:"):
        raise argparse.ArgumentTypeError(f"must look like sense:<cfg.json>, got {text!r}")
    return _Flag(text, text[len("sense:"):])


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
        config = {k: v for k, v in vars(args).items() if k != "func"}
        mio.write_json(args.manifest, _manifest(command, config, outputs, t0))


def _load_system(args) -> LinearSystem:
    a = mio.read_matrix_csv(args.matrix)
    b = mio.read_vector_csv(args.data)
    return LinearSystem(a=a, b=b, epsilon=args.epsilon, rank_rtol=args.rtol)


def cmd_bounds(args) -> bool:
    t0 = time.perf_counter()
    sys_ = _load_system(args)
    if args.weights is not None:
        w = mio.read_vector_csv(args.weights)
        results = [bnd.functional_bound(sys_, w, index=0)]
    else:
        results = bnd.entrywise_bounds(sys_, args.entries.parsed)
    payload = {
        "epsilon": sys_.epsilon,
        "rank_rtol": sys_.rank_rtol,
        "bounds": [r.to_record() for r in results],
    }
    _emit(args, "bounds", payload, [], t0)
    return any(r.status is BoundStatus.INFEASIBLE for r in results)


def cmd_extremal(args) -> bool:
    t0 = time.perf_counter()
    sys_ = _load_system(args)
    n = sys_.shape[1]
    if args.weights is not None:
        w = mio.read_vector_csv(args.weights)
    elif not 0 <= args.weight_index < n:
        raise IndexOutOfRange(f"--weight-index {args.weight_index} out of range for N={n}")
    else:
        w = np.zeros(n)
        w[args.weight_index] = 1.0

    target, alpha = args.target.parsed
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
    return False


def cmd_estimate_diag(args) -> bool:
    t0 = time.perf_counter()
    dense = None
    # checked before any operator work; 1.0 holds sigma1's place until it is known
    matfree._check_probes(args.samples, args.seed)
    cfg_lw = matfree.LandweberConfig(1.0, max_iters=args.max_iters, rel_tol=args.rel_tol)
    if args.op is not None:
        cfg = mio.read_json(args.op.parsed)
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
    return False


def cmd_sense(args) -> bool:
    t0 = time.perf_counter()
    cfg = mio.read_json(args.config)
    if args.manifest_only:
        sense.build_problem(cfg)  # every check of a run short of the data
        sys.stdout.write(mio.json_text(sense._default_cfg(cfg)))
        return False
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
    return bool(np.any(result.status == sense.STATUS_INFEASIBLE))


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="entrybounds",
        description="Entrywise interval bounds for nearly data-consistent solutions",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    # options shared by the commands that write a JSON payload
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", help="write results to this JSON file")
    output.add_argument("--manifest")

    # options shared by the commands that read a (matrix, data, epsilon) system
    system = argparse.ArgumentParser(add_help=False, parents=[output])
    system.add_argument("--matrix", required=True, help="system matrix CSV")
    system.add_argument("--data", required=True, help="data vector CSV (single column)")
    system.add_argument("--epsilon", type=float, required=True)
    system.add_argument("--rtol", type=float, default=DEFAULT_RANK_RTOL,
                        help="numerical-rank tolerance")

    pb = sub.add_parser("bounds", parents=[system],
                        help="entrywise or weighted interval bounds")
    rows = pb.add_mutually_exclusive_group()
    rows.add_argument("--weights", help="weight vector CSV")
    rows.add_argument("--entries", type=_entries, default="all",
                      help="'all' or comma list of indices")
    pb.set_defaults(func=cmd_bounds)

    pe = sub.add_parser("extremal", parents=[system], help="feasible vector attaining a bound")
    pe.add_argument("--target", type=_target, required=True, help="lower | upper | value:<alpha>")
    row = pe.add_mutually_exclusive_group(required=True)
    row.add_argument("--weights", help="weight vector CSV")
    row.add_argument("--weight-index", type=int)
    pe.add_argument("--out", required=True, help="solution vector CSV")
    pe.set_defaults(func=cmd_extremal)

    pd = sub.add_parser("estimate-diag", parents=[output], help="stochastic sensitivity estimation")
    source = pd.add_mutually_exclusive_group(required=True)
    source.add_argument("--matrix", help="dense matrix CSV")
    source.add_argument("--op", type=_operator_spec, help="operator spec, e.g. sense:<cfg.json>")
    pd.add_argument("--samples", type=int, required=True)
    pd.add_argument("--probe", choices=["gaussian", "rademacher"], default="gaussian")
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument("--tau", type=float, default=None, help="step size (default 1/sigma1^2)")
    pd.add_argument("--max-iters", type=int, default=matfree.LandweberConfig.max_iters)
    pd.add_argument("--rel-tol", type=float, default=matfree.LandweberConfig.rel_tol)
    pd.add_argument("--csv", default=None)
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
    """Run ``argv``'s command and map its outcome, whether it met an empty set
    or what it raised, to the exit code; ``--help`` and ``--version`` exit 0."""
    try:
        args = build_parser().parse_args(argv)
        infeasible = args.func(args)
    except (StatusMismatch, InfeasibleSystem) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATUS
    except (EntryBoundsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:  # an input too large for this host
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_STATUS if infeasible else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
