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

from .bench import (KINDS, KNOWN_METHODS, ExperimentConfig, aggregate,
                    build_operator, render_rows, run_experiment, solve)
from .markovgrid import demo_clustered_walk, demo_path_walk, validate_grid
from .operators import MarkovGridOperator, load_operator, save_operator
from .solvers import SolverError, _check_budget

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_IO = 3

DEMO_WALKS = {"demo-path-walk": demo_path_walk,
              "demo-clustered-walk": demo_clustered_walk}


def budget(text: str) -> int:
    """``--max-iters``: an integer every solver accepts as its budget."""
    return _check_budget(int(text), "--max-iters")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nneig",
                                description="nonnegative low-rank eigenpair "
                                            "solvers and benchmarks")
    sub = p.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("generate", help="generate an operator JSON")
    g.add_argument("--kind", required=True, choices=KINDS + tuple(DEMO_WALKS))
    g.add_argument("--n", type=int, default=50)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    # family flags left unset take the generator's or .standard()'s default
    g.add_argument("--delta", type=float)
    g.add_argument("--sizes", type=int, nargs="+",
                   help="block sizes (default: n blocks of size one)")
    g.add_argument("--style", choices=("stochastic", "trap"))
    g.add_argument("--t", type=int)
    g.add_argument("--density", type=float)
    g.add_argument("--family", choices=("independent", "shared-pair"))
    g.add_argument("--eps", type=float)
    g.add_argument("--eps-r", type=float)
    g.add_argument("--r0", type=float)

    v = sub.add_parser("validate", help="validate a grid operator JSON")
    v.add_argument("operator")

    s = sub.add_parser("solve", help="solve for the rightmost eigenpair")
    s.add_argument("operator")
    s.add_argument("--method", required=True, choices=KNOWN_METHODS)
    s.add_argument("--rank", type=int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--tol", type=float,
                   help="stop tolerance (default: the solver's own): "
                        "the reference residual "
                        "||A(X) - lam X||_F for power, power+svd and "
                        "power+nmf; the step motion ||X_k+1 - X_k||_F / h "
                        "for psi; the projected-gradient norm times the "
                        "operator's default step for rneg")
    s.add_argument("--max-iters", type=budget, default=None)
    s.add_argument("--h0", type=float, default=None,
                   help="initial step for rneg, fixed step for psi "
                        "(default: the operator's default step 0.4 / s, "
                        "where s is the 1-norm of the vectorized operator "
                        "on Markov grids, so 0.4 on probabilistic ones, "
                        "and the largest growth rate plus twice the "
                        "largest diffusion diagonal on growth operators)")
    s.add_argument("--out", default=None, help="report JSON path")

    b = sub.add_parser("bench", help="run a benchmark experiment config")
    b.add_argument("config")
    b.add_argument("--out", default=None, help="table output path (default stdout)")
    b.add_argument("--format", choices=("csv", "text"), default="csv")
    b.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    b.add_argument("--no-timing", action="store_true",
                   help="write zero timings for byte-reproducible output")
    return p


def _generate(args) -> int:
    if args.kind in DEMO_WALKS:
        op = DEMO_WALKS[args.kind]()
    else:
        # the bench's factory; rank does not shape it
        cfg = ExperimentConfig(
            kind=args.kind, n=args.n, rank=1, delta=args.delta,
            sizes=args.sizes, block_style=args.style, t=args.t,
            density=args.density, family=args.family, eps=args.eps,
            eps_r=args.eps_r, r0=args.r0)
        op = build_operator(cfg, args.seed)
    save_operator(op, args.out)
    return EXIT_OK


def _validate(args) -> int:
    op = load_operator(args.operator)
    if not isinstance(op, MarkovGridOperator):
        raise ValueError("validation applies to grid operators only")
    failures = validate_grid(op)
    if not failures:
        print("PASS: valid probabilistic grid")
        return EXIT_OK
    print(f"FAIL: {len(failures)} problem(s)")
    for f in failures:
        print(f"  - {f}")
    return EXIT_CONFIG


def _solve(args) -> int:
    # one cold run of the bench's dispatch
    rep = solve(load_operator(args.operator), args.method, args.rank,
                seed=args.seed, tol=args.tol, budget=args.max_iters,
                h=args.h0)
    payload = rep.to_dict()
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
        cfg = ExperimentConfig.from_json(fh.read())
    if args.seed is not None:
        cfg.seed = args.seed
    per_trial = run_experiment(cfg)
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
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
