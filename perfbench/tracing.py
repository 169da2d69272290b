"""Outside-in span tracer for the nneig benchmark.

Nothing in the package is edited.  While a traced pass runs, the names that
``nneig.bench``, ``nneig.solvers`` and ``nneig.markovgrid`` call through are
swapped for timing wrappers, and every operator that ``build_operator``
returns is wrapped in a delegating proxy that times ``apply_full`` and
``apply_factored``.  The originals are restored when the pass ends.
The same layer boundaries can instead be counted without a clock, which
costs a counter increment per call; the counts of a counted pass and of a
timed pass on the same seed must agree.

Spans are kept in flat arrays (name id, parent index, start, end) and only
turned into per-layer numbers, or written to disk, after the pass.  A
span's self time is its duration minus the durations of its direct
children.  The run is single-threaded and spans are kept on a stack, so a
child always lies inside its parent and children never overlap; this
holds by construction and is not checked.
"""

from __future__ import annotations

import time
import types
from array import array
from contextlib import contextmanager

import numpy as np

from nneig import bench, markovgrid, solvers
from nneig.operators import LinearMatrixOperator

POWER = "solvers.power_reference"
PSI = "solvers.psi_solve"
RNEG = "solvers.rneg_solve"
APPLY_FULL = "operators.apply_full"
APPLY_FACTORED = "operators.apply_factored"
PROJECT = "matcore.project_feasible_direction"
QR = "matcore.thin_qr"


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.solves: dict[int, dict] = {}  # span index -> solver report facts
        self._stack: list[int] = []
        self._counted: dict[str, list[int]] = {}  # name -> [calls], no clock

    def wrap(self, name: str, fn, record=None):
        """Return ``fn`` timed as a span called ``name``.

        ``record(args, kwargs, result)`` may return facts about the call,
        kept under the span's index.
        """
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(self.t0)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.t1.append(0.0)
            stack.append(i)
            self.t0.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.t1[i] = clock()
                stack.pop()
            if record is not None:
                self.solves[i] = record(args, kwargs, out)
            return out

        return traced

    def count(self, name: str, fn):
        """Return ``fn`` with its calls counted under ``name``, untimed."""
        cell = self._counted.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def call_counts(self) -> dict[str, int]:
        """Calls per name, timed and counted alike."""
        n = np.bincount(np.frombuffer(self.name_id, dtype=np.int32),
                        minlength=len(self.names))
        calls = {name: int(k) for name, k in zip(self.names, n)}
        for name, cell in self._counted.items():
            calls[name] = calls.get(name, 0) + cell[0]
        return calls

    def arrays(self):
        """Spans as numpy arrays: name ids, parents, starts, durations, self times."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        t0 = np.frombuffer(self.t0)
        dur = np.frombuffer(self.t1) - t0
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return name_id, parent, t0, dur, dur - child

    def save(self, path) -> None:
        name_id, parent, t0, dur, _ = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, start=t0 - t0[0], duration=dur)


class TracedOperator(LinearMatrixOperator):
    """Delegating operator proxy whose two apply methods go through
    ``wrap`` (``Tracer.wrap`` or ``Tracer.count``)."""

    def __init__(self, op: LinearMatrixOperator, wrap):
        self._op = op
        self.apply_full = wrap(APPLY_FULL, op.apply_full)
        self.apply_factored = wrap(APPLY_FACTORED, op.apply_factored)

    def __getattr__(self, name):
        return getattr(self._op, name)

    def default_step(self) -> float:
        return self._op.default_step()

    def default_shift(self) -> float:
        return self._op.default_shift()


def _solve_facts(args, kwargs, rep) -> dict:
    # nneig.bench passes a warm start as the ``init`` keyword
    return {"iterations": rep.iterations, "converged": bool(rep.converged),
            "warm": kwargs.get("init") is not None}


@contextmanager
def installed(tracer: Tracer, layers: str):
    """Swap wrappers in for the duration of the block.

    ``build_operator`` and the three solvers are always timed; each is
    called once per trial, which costs microseconds in a pass of seconds.
    With ``layers="off"`` nothing else is wrapped; with ``"count"`` every
    other layer boundary is counted, with ``"time"`` it is a span.
    """
    build = bench.build_operator
    wrap = tracer.wrap if layers == "time" else tracer.count

    def build_traced(cfg, trial_seed):
        return TracedOperator(build(cfg, trial_seed), wrap)

    def construct(cls):
        return types.SimpleNamespace(
            standard=wrap("operators.construct", cls.standard))

    swaps = [
        (bench, "build_operator", tracer.wrap(
            "bench.build_operator",
            build if layers == "off" else build_traced)),
        (bench, "power_reference",
         tracer.wrap(POWER, bench.power_reference, _solve_facts)),
        (bench, "psi_solve", tracer.wrap(PSI, bench.psi_solve, _solve_facts)),
        (bench, "rneg_solve", tracer.wrap(RNEG, bench.rneg_solve,
                                          _solve_facts)),
    ]
    if layers != "off":
        swaps += [
            (bench, "generate_block_grid",
             wrap("markovgrid.generate", bench.generate_block_grid)),
            (markovgrid, "MarkovGridOperator",
             wrap("operators.construct", markovgrid.MarkovGridOperator)),
            (bench, "HadamardGrowthOperator",
             construct(bench.HadamardGrowthOperator)),
            (bench, "SeparableGrowthOperator",
             construct(bench.SeparableGrowthOperator)),
            (bench, "nmf", wrap("lowrank.nmf", bench.nmf)),
            (bench, "truncated_svd",
             wrap("lowrank.truncated_svd", bench.truncated_svd)),
            (bench, "evaluate_against_reference",
             wrap("bench.evaluate_against_reference",
                  bench.evaluate_against_reference)),
            (solvers, "project_feasible_direction",
             wrap(PROJECT, solvers.project_feasible_direction)),
            (solvers, "thin_qr", wrap(QR, solvers.thin_qr)),
        ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in swaps]
    try:
        for mod, attr, fn in swaps:
            setattr(mod, attr, fn)
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


class Spans:
    """Read-only queries over one tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.name_id, self.parent, self.t0, self.dur, self.self_t = \
            tracer.arrays()
        self.names = tracer.names
        self._idx = {n: i for i, n in enumerate(tracer.names)}
        has = self.parent >= 0
        self.parent_name = np.where(
            has, self.name_id[np.where(has, self.parent, 0)], -1)
        self.facts = {n: [tracer.solves[i] for i in np.flatnonzero(self.pick(n))]
                      for n in (POWER, PSI, RNEG)}

    def pick(self, name, parent=None):
        """Mask of spans called ``name``, optionally only under ``parent``."""
        sel = self.name_id == self._idx.get(name, -2)
        if parent is not None:
            sel &= self.parent_name == self._idx.get(parent, -2)
        return sel

    def calls(self, name, parent=None) -> int:
        return int(self.pick(name, parent).sum())

    def total(self, name, parent=None) -> float:
        return float(self.dur[self.pick(name, parent)].sum())

    def self_total(self, name) -> float:
        return float(self.self_t[self.pick(name)].sum())

    def count(self, solver, key) -> int:
        return sum(int(f[key]) for f in self.facts[solver])


def _per(num, den, scale=1e6):
    return num / den * scale if den else 0.0


def layer_metrics(sp: Spans) -> tuple[dict, dict, list[str]]:
    """Per-layer numbers, each solver span's breakdown by child, and the
    list of failed self-checks of the trace."""
    power_iters = sp.count(POWER, "iterations")
    psi_steps = sp.count(PSI, "iterations")
    accepted = sp.count(RNEG, "iterations")
    # each rneg solve evaluates its start once, then once per accepted or
    # rejected trial step
    rejected = (sp.calls(APPLY_FACTORED, RNEG) - len(sp.facts[RNEG])
                - accepted)

    m = {
        f"{POWER}.iters": power_iters,
        f"{POWER}.s": sp.total(POWER),
        f"{POWER}.self_s": sp.self_total(POWER),
        f"{POWER}.us_per_iter": _per(sp.total(POWER), power_iters),
        f"{RNEG}.s": sp.total(RNEG),
        f"{RNEG}.self_s": sp.self_total(RNEG),
        f"{RNEG}.us_per_step": _per(sp.total(RNEG), accepted),
        f"{RNEG}.steps_accepted": accepted,
        f"{RNEG}.steps_rejected": rejected,
        f"{RNEG}.accept_ratio": _per(accepted, accepted + rejected, 1.0),
        f"{RNEG}.converged": sp.count(RNEG, "converged"),
        f"{PSI}.s": sp.total(PSI),
        f"{PSI}.self_s": sp.self_total(PSI),
        f"{PSI}.steps": psi_steps,
        f"{PSI}.us_per_step": _per(sp.total(PSI), psi_steps),
        f"{PSI}.converged": sp.count(PSI, "converged"),
    }
    for name in (APPLY_FULL, APPLY_FACTORED):
        m[f"{name}.calls"] = sp.calls(name)
        m[f"{name}.s"] = sp.total(name)
        m[f"{name}.us_per_call"] = _per(sp.total(name), sp.calls(name))
    for name in (PROJECT, QR, "lowrank.nmf"):
        m[f"{name}.calls"] = sp.calls(name)
        m[f"{name}.s"] = sp.total(name)
    for name in ("lowrank.truncated_svd", "operators.construct",
                 "bench.evaluate_against_reference"):
        m[f"{name}.s"] = sp.total(name)
    # self time: the operator construction nested in a generator is
    # counted under operators.construct only
    m["markovgrid.generate.s"] = sp.self_total("markovgrid.generate")

    breakdown = {}
    for solver in (POWER, PSI, RNEG):
        rows = {"span": sp.total(solver), "self": sp.self_total(solver)}
        for child in sp.names:
            if sp.calls(child, solver):
                rows[child] = sp.total(child, solver)
        breakdown[solver] = rows
    bad = []
    # rejected steps are derived from apply_factored calls = 1 + accepted
    # + rejected per solve; fewer calls than that breaks the derivation.
    # This tests the one count the trace derives, not the solver's
    # algorithm, so a solver that changes how often it calls a layer
    # does not fail it.
    if rejected < 0:
        bad.append(f"rneg: {sp.calls(APPLY_FACTORED, RNEG)} factored "
                   f"applications for {len(sp.facts[RNEG])} solves and "
                   f"{sp.count(RNEG, 'iterations')} accepted steps")
    return m, breakdown, bad
