#!/usr/bin/env python3
"""nneig benchmark: the shipped experiment configs as named workloads.

Run from the repository root:

    python3 perfbench/run.py --workload hadamard-fixed --seed 0 \\
        --seconds 60 --trace 0

A workload is an ``ExperimentConfig`` JSON in ``perfbench/workloads``; the
seed replaces its ``seed`` field, so ``nneig bench
perfbench/workloads/<name>.json --seed <n>`` reruns one pass of it.  A pass
is one call of ``nneig.bench.run_experiment``, the function ``nneig bench``
runs, over all trials of the config (ten grids on block-sparse, three cold
starts on hadamard-fixed).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.  It
runs each trial as a one-trial pass (``trials: 1``, ``seed: seed + i``,
the seed ``run_experiment`` gives trial ``i``), first every trial once and
then round after round for as long as the next trial is expected to end
within ``--seconds``.  Each trial's times are the medians over its
repeats, so a burst of host load that slows a few repeats does not move
them; ``wall_s`` and ``setup_s`` add these medians up over the trials and
the per-method times average them.  Only ``build_operator`` and the three
solvers are wrapped, once per call, to take the set-up time out of
``wall_s`` and to see which solves were warm-started from the reference.
A warm-started ``psi_s`` or ``rneg_s`` includes the reference time, since
the solve cannot start without it.  Before each trial its operator is
built a few times more; ``setup_s`` sums the median build time of each
trial.

``--trace 1`` alternates untraced and traced passes over all trials, in
pairs, for as long as the next pair is expected to end within
``--seconds`` (at least one pair).  The traced ones record spans at every
layer boundary (see ``tracing.py``) and give the ``per_layer`` metrics;
the untraced ones only count the calls at those boundaries.  The
traced-minus-untraced pass time is the tracing overhead.

Every solve is checked against the acceptance gates of its config.  A
solve fails when it raises, returns non-finite metrics or breaks a gate;
failures are counted, never fatal.  ``attempted`` and ``failed`` count
each distinct solve once, from its first pass; the repeats must reproduce
it exactly.  ``correct`` is false when the program is not reproducible
(metric rows, iteration counts or layer call counts differ between passes
on the same seed) or a trace self-check fails.  Details, the environment
and the spans go to ``perfbench/out``; the last line of standard output is
the result object.
"""

import os

# pinned before numpy loads: two BLAS pools on two cores thrash each other
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import itertools
import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

LOWRANK = ("power+svd", "power+nmf", "psi", "rneg")

# acceptance-criteria thresholds (tests/test_acceptance.py), applied to
# every solve: (method charged, gate, predicate on the trial's rows)
GATES = {
    "block-sparse": [
        ("rneg", "no negatives", lambda r: r["rneg"].neg_count == 0),
        ("power+svd", "has negatives",
         lambda r: r["power+svd"].neg_count > 0),
    ] + [
        (m, "RelErr within 2% of the best low-rank RelErr",
         lambda r, m=m: r[m].relerr <= 1.02 * min(r[k].relerr
                                                   for k in LOWRANK))
        for m in LOWRANK
    ],
    "hadamard-fixed": [
        ("rneg", "no negatives", lambda r: r["rneg"].neg_count == 0),
        ("rneg", "lambda error <= 5e-3",
         lambda r: r["rneg"].lambda_err <= 5e-3),
        ("power+svd", "psi or power+svd shows negatives",
         lambda r: r["psi"].neg_count > 0 or r["power+svd"].neg_count > 0),
    ],
}


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_package():
    """Import nneig from this checkout's ``src``, nowhere else."""
    if not (SRC / "nneig" / "__init__.py").is_file():
        fail(f"no nneig sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nneig
    if SRC.resolve() not in Path(nneig.__file__).resolve().parents:
        fail(f"nneig was imported from {nneig.__file__}, not {SRC}")


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(),
    }


def run_pass(cfg, gates, layers: str) -> dict:
    """One ``run_experiment`` call, every solve checked against the gates.

    The per-method times are each method's own, averaged over trials; the
    reference time is charged to warm-started solves later, in ``main``.
    """
    from nneig import bench
    from tracing import POWER, PSI, RNEG, Spans, Tracer, installed, \
        layer_metrics

    tracer = Tracer()
    error = None
    with installed(tracer, layers):
        try:
            per_trial = tracer.wrap("bench.run_experiment",
                                    bench.run_experiment)(cfg)
        except Exception:  # a raising solve fails; the run goes on
            per_trial, error = None, traceback.format_exc(limit=3)
    spans = Spans(tracer)
    wall = spans.total("bench.run_experiment")
    out = {"wall": wall, "solves": len(cfg.methods) * cfg.trials,
           "config": f"seed {cfg.seed}, {cfg.trials} trial(s)",
           "error": error, "breaks": [],
           "counts": {name: [f["iterations"] for f in spans.facts[name]]
                      for name in (POWER, PSI, RNEG)},
           "calls": tracer.call_counts()}
    if per_trial is None:
        out["failed"] = out["solves"]
        out["breaks"].append(error)
        return out
    warm = {"psi": [f["warm"] for f in spans.facts[PSI]],
            "rneg": [f["warm"] for f in spans.facts[RNEG]]}
    failed = set()
    own = {m: [] for m in ("power", "psi", "rneg")}
    for i, rows in enumerate(per_trial):
        r = {row.method: row for row in rows}
        for row in rows:
            if not all(math.isfinite(v) for v in row.values()):
                failed.add((i, row.method))
                out["breaks"].append(f"trial {i} {row.method}: non-finite")
        for method, gate, ok in gates:
            if not ok(r):
                failed.add((i, method))
                out["breaks"].append(f"trial {i} {method}: {gate}")
        for m in own:
            if m in r:
                own[m].append(r[m].time_s)
    out["failed"] = len(failed)
    out["warm"] = [m for m, w in warm.items() if any(w)]
    out["rows"] = [[(row.method,) + row.values()[1:] for row in rows]
                   for rows in per_trial]
    out["e2e"] = {"wall_s": wall - spans.total("bench.build_operator")}
    out["e2e"].update({f"{m}_s": statistics.fmean(t)
                       for m, t in own.items() if t})
    if layers == "time":
        out["layers"], out["breakdown"], out["self_check"] = \
            layer_metrics(spans)
        out["tracer"] = tracer
    return out


def time_builds(cfg, times: list) -> None:
    """Append the times of at least three builds of every trial's
    operator, and of as many more as fit in a twentieth of a second."""
    from nneig import bench

    stop = time.perf_counter() + 0.05
    for k in itertools.count():
        if k >= 3 and time.perf_counter() >= stop:
            return
        t0 = time.perf_counter()
        for i in range(cfg.trials):
            bench.build_operator(cfg, cfg.seed + i)
        times.append(time.perf_counter() - t0)


def repeat(stop: float, step, guess: float) -> list:
    """Call ``step()`` while the time of a call, ``guess`` before the first
    and the mean so far after it, says the call still ends by ``stop``, a
    ``time.perf_counter`` reading."""
    start = time.perf_counter()
    done = []
    while True:
        now = time.perf_counter()
        if now + ((now - start) / len(done) if done else guess) > stop:
            return done
        done.append(step())


def first_passes(passes) -> list:
    """The first pass of each config: the distinct solves of the run."""
    first = {}
    for q in passes:
        first.setdefault(q["config"], q)
    return list(first.values())


def reproducibility(passes) -> list[str]:
    """Passes of one config must agree exactly on every metric row, every
    iteration count and every layer call count; with one BLAS thread
    nothing else can differ."""
    first, bad = {}, []
    for k, q in enumerate(passes, 1):
        if q["error"] is not None:
            continue
        facts = {f"trial {i} {row[0]} row": row
                 for i, rows in enumerate(q["rows"]) for row in rows}
        facts.update({f"{name} iterations": n
                      for name, n in q["counts"].items() if n})
        facts["layer call counts"] = q["calls"]
        for what, v in facts.items():
            j, v0 = first.setdefault((q["config"], what), (k, v))
            if v != v0:
                bad.append(f"pass {k} differs from pass {j} ({q['config']}) "
                           f"in its {what}")
    return bad


def median_of(dicts) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def print_breakdown(breakdown: dict) -> None:
    for solver, parts in breakdown.items():
        span = parts["span"]
        if span == 0.0:
            continue
        shares = ", ".join(f"{name} {t:.3f} s ({100 * t / span:.1f}%)"
                           for name, t in parts.items() if name != "span")
        print(f"  {solver}: span {span:.3f} s = {shares}")


def end_to_end(cfg, gates, stop: float) -> tuple[dict, list]:
    """Trial by trial, repeated until ``stop``: the end-to-end metrics
    from each trial's median times, and every pass made."""
    from nneig.bench import build_operator

    trials = [replace(cfg, trials=1, seed=cfg.seed + i)
              for i in range(cfg.trials)]
    build_operator(trials[0], trials[0].seed)  # pays for lazy imports
    builds = [[] for _ in trials]
    runs = [[] for _ in trials]

    def step(i: int) -> None:
        time_builds(trials[i], builds[i])
        runs[i].append(run_pass(trials[i], gates, layers="off"))

    start = time.perf_counter()
    for i in range(len(trials)):  # every trial once, however long it takes
        step(i)
    order = itertools.cycle(range(len(trials)))
    repeat(stop, lambda: step(next(order)),
           (time.perf_counter() - start) / len(trials))

    timed = [[q["e2e"] for q in r if q["error"] is None] for r in runs]
    timed = [t for t in timed if t]
    if not timed:
        fail("every pass raised; no times to report", 1)
    per_trial = [median_of(t) for t in timed]
    values = {"setup_s": sum(statistics.median(b) for b in builds),
              "wall_s": sum(t["wall_s"] for t in per_trial)}
    for key in per_trial[0]:
        if key != "wall_s":
            values[key] = statistics.fmean(t[key] for t in per_trial)
    return values, [q for r in runs for q in r]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(GATES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    load_package()
    from nneig.bench import ExperimentConfig

    config = HERE / "workloads" / f"{args.workload}.json"
    cfg = replace(ExperimentConfig.from_json(config.read_text()),
                  seed=args.seed)
    gates = GATES[args.workload]
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env))

    problems = []
    stop = time.perf_counter() + args.seconds
    if args.trace == 0:
        values, passes = end_to_end(cfg, gates, stop)
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024)
        wanted = spec["end_to_end"]
    else:
        plain, traced = [], []

        # interleaved, so host drift hits both kinds alike
        def step():
            plain.append(run_pass(cfg, gates, layers="count"))
            traced.append(run_pass(cfg, gates, layers="time"))

        repeat(stop, step, 0.0)  # at least one pair
        passes = plain + traced
        traced = [q for q in traced if q["error"] is None]
        if not traced:
            fail("every traced pass raised; no layers to report", 1)
        values = median_of([q["layers"] for q in traced])
        base = statistics.median(q["wall"] for q in plain)
        extra = statistics.median(q["wall"] for q in traced) - base
        values["trace.overhead_s"] = extra
        values["trace.overhead_pct"] = 100.0 * extra / base
        for q in traced:
            problems += [f"trace self-check: {b}" for b in q["self_check"]]
        wanted = spec["per_layer"]
    problems += reproducibility(passes)
    warm = sorted({m for q in passes for m in q.get("warm", [])})
    if args.trace == 0:
        for m in warm:
            values[f"{m}_s"] += values["power_s"]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"BENCHMARK.json names metrics this run does not make: {missing}",
             1)
    first = first_passes(passes)
    attempted = sum(q["solves"] for q in first)
    failed = sum(q["failed"] for q in first)
    for k, q in enumerate(passes, 1):
        print(f"pass {k} ({q['config']}): {q['wall']:.3f} s, "
              f"{q['solves']} solves, "
              f"{q['failed']} failed" + "".join(f"\n  {b}" for b in q["breaks"]))
    print("warm-started from the reference (charged its time): "
          + (", ".join(warm) or "none"))
    for m in wanted:
        print(f"{m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}")
    if args.trace == 1:
        print("solver spans of the last traced pass:")
        print_breakdown(traced[-1]["breakdown"])
        print(f"tracing overhead: {values['trace.overhead_s']:+.3f} s "
              f"({values['trace.overhead_pct']:+.1f}%) over the untraced pass")
    print(f"passes {len(passes)}  distinct solves {attempted}  "
          f"solves_failed {failed}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}"
    if args.trace == 1:
        traced[-1]["tracer"].save(f"{stem}-spans.npz")
    record = {"args": vars(args), "environment": env, "result": result,
              "problems": problems,
              "passes": [{k: v for k, v in q.items() if k != "tracer"}
                         for q in passes]}
    Path(f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
