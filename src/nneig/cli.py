"""Command-line interface.

Verbs:
    generate  -- build an operator from family parameters, write JSON
    validate  -- probabilistic-validity report for a grid operator JSON
    solve     -- run one solver on an operator JSON, write a report JSON
    bench     -- run an experiment config, emit the metrics table

Exit codes: 0 success, 1 configuration error, 2 solver failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import ExperimentConfig, aggregate, render_rows, run_experiment
from .markovgrid import (BlockGridSpec, RandomGridSpec, demo_clustered_walk,
                         demo_path_walk, generate_block_grid,
                         generate_random_grid, validate_grid)
from .operators import (HadamardGrowthOperator, MarkovGridOperator,
                        SeparableGrowthOperator, load_operator, save_operator)
from .solvers import (SolverError, krylov_reference, power_reference,
                      psi_solve, rneg_solve)
from .lowrank import nmf, truncated_svd

import numpy as np

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_IO = 3

GENERATE_KINDS = ("block-grid", "random-grid", "hadamard-growth",
                  "separable-growth", "demo-path-walk", "demo-clustered-walk")


class ConfigError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nneig",
                                description="nonnegative low-rank eigenpair "
                                            "solvers and benchmarks")
    sub = p.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("generate", help="generate an operator JSON")
    g.add_argument("--kind", required=True, choices=GENERATE_KINDS)
    g.add_argument("--n", type=int, default=50)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--delta", type=float, default=0.2)
    g.add_argument("--sizes", type=int, nargs="+", default=None,
                   help="block sizes (default: n blocks of size one)")
    g.add_argument("--style", choices=("stochastic", "trap"),
                   default="stochastic")
    g.add_argument("--t", type=int, default=3)
    g.add_argument("--density", type=float, default=0.9)
    g.add_argument("--family", choices=("independent", "shared-pair"),
                   default="independent")
    g.add_argument("--eps", type=float, default=None)
    g.add_argument("--eps-r", type=float, default=None)
    g.add_argument("--r0", type=float, default=None)
    g.add_argument("--verbose", action="store_true")

    v = sub.add_parser("validate", help="validate a grid operator JSON")
    v.add_argument("operator")
    v.add_argument("--verbose", action="store_true")

    s = sub.add_parser("solve", help="solve for the rightmost eigenpair")
    s.add_argument("operator")
    s.add_argument("--method", required=True,
                   choices=("power", "power+svd", "power+nmf", "psi", "rneg"))
    s.add_argument("--rank", type=int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--tol", type=float, default=1e-8)
    s.add_argument("--max-iters", type=int, default=None)
    s.add_argument("--h0", type=float, default=None,
                   help="initial step for rneg, fixed step for psi "
                        "(default: operator family)")
    s.add_argument("--out", default=None, help="report JSON path")
    s.add_argument("--verbose", action="store_true",
                   help="include per-iteration history in the report")

    b = sub.add_parser("bench", help="run a benchmark experiment config")
    b.add_argument("config")
    b.add_argument("--out", default=None, help="table output path (default stdout)")
    b.add_argument("--format", choices=("csv", "text"), default="csv")
    b.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    b.add_argument("--no-timing", action="store_true",
                   help="write zero timings for byte-reproducible output")
    b.add_argument("--verbose", action="store_true")
    return p


def _generate(args) -> int:
    if args.kind == "demo-path-walk":
        op = demo_path_walk()
    elif args.kind == "demo-clustered-walk":
        op = demo_clustered_walk()
    elif args.kind == "block-grid":
        sizes = tuple(args.sizes) if args.sizes else (1,) * args.n
        op = generate_block_grid(BlockGridSpec(sizes=sizes, delta=args.delta,
                                               seed=args.seed,
                                               style=args.style))
    elif args.kind == "random-grid":
        op = generate_random_grid(RandomGridSpec(n=args.n, t=args.t,
                                                 density=args.density,
                                                 seed=args.seed,
                                                 family=args.family))
    else:
        kw = {}
        if args.eps is not None:
            kw["eps"] = args.eps
        if args.eps_r is not None:
            kw["eps_r"] = args.eps_r
        if args.r0 is not None:
            kw["r0"] = args.r0
        cls = (HadamardGrowthOperator if args.kind == "hadamard-growth"
               else SeparableGrowthOperator)
        op = cls.standard(args.n, **kw)
    save_operator(op, args.out)
    if args.verbose:
        print(f"wrote {args.kind} operator of shape {op.shape} to {args.out}")
    return EXIT_OK


def _validate(args) -> int:
    op = load_operator(args.operator)
    if not isinstance(op, MarkovGridOperator):
        raise ConfigError("validation applies to grid operators only")
    report = validate_grid(op)
    if report.ok:
        print("PASS: valid probabilistic grid")
        return EXIT_OK
    print(f"FAIL: {len(report.failures)} problem(s)")
    for f in report.failures:
        print(f"  - {f}")
    return EXIT_CONFIG


def _solve(args) -> int:
    op = load_operator(args.operator)
    iters = args.max_iters
    if args.method == "power":
        rep = power_reference(op, tol=args.tol,
                              max_iters=iters or 500_000,
                              keep_history=args.verbose)
    elif args.method in ("power+svd", "power+nmf"):
        ref = krylov_reference(op, tol=args.tol, max_iters=iters or 500_000)
        if args.method == "power+svd":
            X = truncated_svd(ref.X, args.rank).reconstruct()
        else:
            res = nmf(np.maximum(ref.X, 0.0), args.rank, seed=args.seed)
            X = res.W @ res.H
        nrm = np.linalg.norm(X)
        if nrm == 0:
            raise SolverError("low-rank compression of the reference is zero")
        Xn = X / nrm
        Y = op.apply_full(Xn)
        lam = float(np.sum(Y * Xn))
        rep = ref
        rep.method = args.method
        rep.X = Xn
        rep.eigenvalue = lam
        rep.residual = float(np.linalg.norm(Y - lam * Xn))
        rep.neg_count = int(np.count_nonzero(Xn < 0))
    elif args.method == "psi":
        rep = psi_solve(op, args.rank, h=args.h0, tol=args.tol,
                        max_steps=iters or 500_000, seed=args.seed,
                        keep_history=args.verbose)
    else:
        rep = rneg_solve(op, args.rank, h0=args.h0, tol=args.tol,
                         nmax=iters or 50_000, seed=args.seed,
                         keep_history=args.verbose)
    payload = rep.to_dict(include_matrix=True, include_history=args.verbose)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    print(f"method={rep.method} eigenvalue={rep.eigenvalue!r} "
          f"residual={rep.residual:.3e} iterations={rep.iterations} "
          f"neg_count={rep.neg_count} converged={rep.converged}")
    return EXIT_OK


def _bench(args) -> int:
    with open(args.config) as fh:
        text = fh.read()
    try:
        cfg = ExperimentConfig.from_json(text)
    except json.JSONDecodeError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    if args.seed is not None:
        cfg.seed = args.seed
    per_trial = run_experiment(cfg, verbose=args.verbose)
    rows = aggregate(per_trial)
    out = render_rows(rows, fmt=args.format,
                      include_timing=not args.no_timing)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; report as config errors
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.verb == "generate":
            return _generate(args)
        if args.verb == "validate":
            return _validate(args)
        if args.verb == "solve":
            return _solve(args)
        return _bench(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
