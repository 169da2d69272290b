"""Benchmark harness: experiment configs, metric rows, and table emitters."""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .lowrank import best_scaled_error, nmf, truncated_svd
from .markovgrid import generate_block_grid, generate_random_grid
from .operators import (HadamardGrowthOperator, LinearMatrixOperator,
                        SeparableGrowthOperator)
from .matcore import FactorPair
from .solvers import (EigenReport, PSIState, SolverError, _check_budget,
                      _check_int, _check_rank, _check_step, _check_tol,
                      _report, krylov_reference, psi_solve, rneg_solve)

__all__ = [
    "KNOWN_METHODS",
    "KINDS",
    "CSV_HEADER",
    "ExperimentConfig",
    "MetricsRow",
    "build_operator",
    "solve",
    "evaluate_against_reference",
    "run_experiment",
    "aggregate",
    "emit_csv",
    "emit_text",
]

KNOWN_METHODS = ("power", "power+svd", "power+nmf", "psi", "rneg")
KINDS = ("block-grid", "random-grid", "hadamard-growth", "separable-growth")
CSV_HEADER = "method,time_s,relerr,residual,lambda_err,neg_count,converged"

# the reference behind the power row.  The benchmark tracer
# (perfbench/tracing.py) wraps this name as its reference span, so the
# bench calls the reference through it
power_reference = krylov_reference


@dataclass
class MetricsRow:
    """One method's metrics on one trial (or an aggregate of trials)."""

    method: str
    time_s: float
    relerr: float
    residual: float
    lambda_err: float
    neg_count: float
    converged: float

    def values(self):
        return (self.time_s, self.relerr, self.residual, self.lambda_err,
                self.neg_count, self.converged)


def _as_tuple(value, name: str) -> tuple:
    # a string is iterable too, but its letters are no list
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return tuple(value)


@dataclass
class ExperimentConfig:
    """Declarative description of a benchmark run.

    ``kind`` selects the operator family, one of :data:`KINDS`.  Fields
    that do not apply to the chosen kind are ignored.  A family parameter
    or budget left ``None`` takes the default of the function it goes to:
    the grid generator, the growth family's ``.standard()``, or the
    solver.  The tolerances are required numbers.  Trial ``i`` derives its
    generation and solver seeds from ``seed + i`` (PCG64), so a config
    JSON pins the whole run.  ``rank`` must lie in ``[1, size]`` for the
    operator size: ``sum(sizes)`` on a block grid with ``sizes``, else
    ``n``, which must then be at least 1.

    The ``power`` row is the reference eigenpair from
    :func:`~nneig.solvers.krylov_reference`: ``power_tol`` is its residual
    tolerance and ``power_iters`` its budget of operator applications.
    ``power_damping`` is parsed and has no effect: Krylov spaces do not
    change under ``A -> (1 - d) (A + sigma I) + d I``.  The benchmark
    workloads in ``perfbench/workloads/`` still carry it; the configs in
    ``configs/`` do not.
    """

    kind: str
    n: int
    rank: int
    trials: int = 1
    seed: int = 0
    methods: tuple = KNOWN_METHODS
    # family parameters (None = the generator's or .standard()'s default)
    delta: float | None = None
    sizes: tuple | None = None       # block grid; default: n blocks of size 1
    block_style: str | None = None
    t: int | None = None
    density: float | None = None
    family: str | None = None
    eps: float | None = None
    eps_r: float | None = None
    r0: float | None = None
    # solver knobs (None = the solver's default, or the family's where
    # noted)
    # the reference must out-resolve the tightest method gate, or accurate
    # methods get charged for the reference's own error
    power_tol: float = 1e-11
    power_iters: int | None = None
    power_damping: float = 0.5
    # rneg_h0 is only the initial step of the sign-constrained flow (None
    # = the operator's default step, 0.4 / s for the reach s of its
    # spectrum: 0.4 on probabilistic grids); the step then grows under a
    # ceiling that starts at 0.95 of the stability bound 2 / s and falls with
    # each rejected trial.  rneg_tol is its stationarity tolerance: the
    # run stops once an unclamped step ends at a projected-gradient norm
    # of at most tol / default step, whatever rneg_h0 is, so 1e-8 stops
    # at 2.5e-8 on probabilistic grids.
    rneg_h0: float | None = None
    rneg_tol: float = 1e-8
    rneg_nmax: int | None = None
    psi_h: float | None = None
    # the splitting integrator stops on per-step motion below tol*h, which
    # floors its error about a decade above tol on well-gapped operators;
    # 1e-10 keeps the floor near 1e-9
    psi_tol: float = 1e-10
    # None resolves per family (_psi_budget).  Operators with (near)
    # degenerate leading eigenvalues give the splitting integrator no
    # stationary target, so block grids and Hadamard growth get fixed
    # budgets: a bounded stretch is integrated from the warm start rather
    # than waiting on a stop rule that cannot fire.  On block grids the
    # stretch is a time span of 1.0, ceil(1.0 / h) steps at psi's step h
    # (3 at the default 0.4); Hadamard growth gets 30,000 steps.  Other
    # families run to psi_solve's own budget.
    psi_steps: int | None = None
    # Initialization policy for the two ODE integrators.  "random" starts
    # them cold, "reference" seeds them from factorizations of the computed
    # reference eigenmatrix (SVD for the splitting integrator, a support
    # vertex of the nonnegative factorization for the sign-constrained
    # flow).  "auto" resolves per family and method: block grids warm both
    # (their flat degenerate spectrum leaves cold starts stuck in collapsed
    # configurations); the growth operators warm only the splitting
    # integrator (quasi-degenerate leading directions leave its cold starts
    # parked on junk); random grids run everything cold.
    ode_init: str = "auto"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        self.methods = _as_tuple(self.methods, "methods")
        if not self.methods:
            raise ValueError("methods must name at least one method")
        unknown = set(self.methods) - set(KNOWN_METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if self.ode_init not in ("auto", "random", "reference"):
            raise ValueError(f"unknown ode_init {self.ode_init!r}")
        _check_int(self.n, "n")
        _check_int(self.seed, "seed")
        if self.sizes is not None:
            self.sizes = tuple(_check_budget(s, "sizes")
                               for s in _as_tuple(self.sizes, "sizes"))
        if self.kind == "block-grid" and self.sizes is not None:
            size = sum(self.sizes)
        else:
            size = _check_budget(self.n, "n")
        _check_rank(self.rank, size)
        _check_budget(self.trials, "trials")
        # the solvers' own checks, run before any trial builds an operator
        for name in ("power_tol", "psi_tol", "rneg_tol"):
            _check_tol(getattr(self, name), name)
        for name in ("psi_h", "rneg_h0"):
            if getattr(self, name) is not None:
                _check_step(getattr(self, name), name)
        for name in ("power_iters", "rneg_nmax", "psi_steps"):
            if getattr(self, name) is not None:
                _check_budget(getattr(self, name), name)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("experiment config must be a JSON object")
        fields = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - fields
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        if "kind" not in d or "n" not in d or "rank" not in d:
            raise ValueError("config requires kind, n, and rank")
        return cls(**d)


def _set(**kw) -> dict:
    """The keywords of ``kw`` that are set: a ``None`` leaves the callee
    its own default."""
    return {k: v for k, v in kw.items() if v is not None}


def build_operator(cfg: ExperimentConfig, trial_seed: int) -> LinearMatrixOperator:
    """Instantiate the operator of one trial."""
    if cfg.kind == "block-grid":
        sizes = cfg.sizes if cfg.sizes is not None else (1,) * cfg.n
        return generate_block_grid(sizes, seed=trial_seed, **_set(
            delta=cfg.delta, style=cfg.block_style))
    if cfg.kind == "random-grid":
        return generate_random_grid(cfg.n, seed=trial_seed, **_set(
            t=cfg.t, density=cfg.density, family=cfg.family))
    kw = _set(r0=cfg.r0, eps=cfg.eps, eps_r=cfg.eps_r)
    if cfg.kind == "hadamard-growth":
        return HadamardGrowthOperator.standard(cfg.n, **kw)
    return SeparableGrowthOperator.standard(cfg.n, **kw)


def solve(op: LinearMatrixOperator, method: str, rank: int, *,
          seed: int = 0, tol: float | None = None,
          budget: int | None = None,
          h: float | None = None, init=None) -> EigenReport:
    """One run of ``method`` on ``op``: the record of every solve that
    ``nneig solve`` runs and that a bench row reads.

    ``tol`` and ``budget`` (None: the solver's default) go to the method's
    solver under its own keywords; ``h`` is psi's step and rneg's first
    step.  ``init`` is a warm start: a :class:`~nneig.solvers.PSIState`
    for psi, a :class:`~nneig.matcore.FactorPair` for rneg, and for
    ``power+svd`` and ``power+nmf`` the reference report to compress.
    ``power`` takes none.  ``seed`` seeds cold starts and the HALS fit.
    A compression given ``init`` runs no reference, so ``tol`` and
    ``budget`` do not apply to it, and it is timed from its own start;
    without ``init`` it runs the reference first and is timed from the
    reference's start.  It reports on the normalized product of the
    factorization it made, and ``power+nmf`` adds its fit's ``fit_stop``
    and ``fit_sweeps``; it is converged unless either ran out of budget
    (a ``"fixed_point"`` fit is at the error its sweeps can attain).
    """
    if method not in KNOWN_METHODS:
        raise ValueError(f"unknown method {method!r}")
    key = {"psi": "max_steps", "rneg": "nmax"}.get(method, "max_iters")
    kw = _set(tol=tol, **{key: budget})
    if method == "psi":
        return psi_solve(op, rank, h=h, seed=seed, init=init, **kw)
    if method == "rneg":
        return rneg_solve(op, rank, h0=h, seed=seed, init=init, **kw)
    if method == "power":
        return replace(power_reference(op, **kw), method="power")
    _check_rank(rank, min(op.shape))
    t0 = time.perf_counter()
    ref = power_reference(op, **kw) if init is None else init
    details = dict(ref.details)
    ok = ref.converged
    if method == "power+svd":
        tri = truncated_svd(ref.X, rank)
        X = tri.reconstruct()
        state = {"psi_state": PSIState(tri.U, np.diag(tri.s), tri.Vt.T)}
    else:
        fit = nmf(np.maximum(ref.X, 0.0), rank, seed=seed)
        X = fit.W @ fit.H
        state = {"factors": FactorPair(fit.W, fit.H.T)}
        ok = ok and fit.stop != "budget"
        details.update(fit_stop=fit.stop, fit_sweeps=fit.sweeps)
    nrm = np.linalg.norm(X)
    if nrm == 0:
        raise SolverError("low-rank compression of the reference is zero")
    details["stop"] = "converged" if ok else "budget"
    return _report(method, op, X / nrm, t0, ref.iterations, details["stop"],
                   details, **state)


def evaluate_against_reference(rep: EigenReport, ref: EigenReport,
                               method: str, time_s: float) -> MetricsRow:
    """The bench row of the solve that returned ``rep``.

    The eigenvalue, residual and convergence flag are the report's own.
    Only the columns that need the reference ``ref`` are computed here:
    the scale-minimized relative error against its matrix, the eigenvalue
    error, and the negative-entry count.  Sign-indeterminate methods can
    return the mirror image of the target, so the count is taken after
    aligning the overall sign with the reference: only genuine sign
    mixing shows up in it.
    """
    mirrored = float(np.vdot(rep.X, ref.X)) < 0
    return MetricsRow(
        method=method,
        time_s=time_s,
        relerr=best_scaled_error(rep.X, ref.X),
        residual=rep.residual,
        lambda_err=abs(rep.eigenvalue - ref.eigenvalue),
        neg_count=(int(np.count_nonzero(rep.X > 0)) if mirrored
                   else rep.neg_count),
        converged=float(rep.converged),
    )


def _vertex_init(Xref: np.ndarray, pair: FactorPair) -> FactorPair:
    """Sign-constrained warm start: one support vertex per factor column.

    ``pair``, the ``factors`` ``W H = U V^T`` of ``power+nmf``, a
    nonnegative factorization of the clipped reference ``Xref``, is
    collapsed to its dominant entries, one disjoint (row, col) pair per
    component, scored by the component's outer product weighted with the
    reference mass it sits on.  Equal unit loadings keep the starting slots
    balanced; the constrained flow then only has to polish magnitudes.
    Starting on the support skeleton matters for operators whose leading
    eigenvalues are nearly tied: cold starts there drift into
    configurations carrying a handful of components and stall, while a
    start with the full set of supports already populated stays spread out.
    """
    m, n = Xref.shape
    W, H = pair.U, pair.V.T
    rank = W.shape[1]
    U0 = np.zeros((m, rank))
    V0 = np.zeros((n, rank))
    used_i: set[int] = set()
    used_j: set[int] = set()
    order = np.argsort(-(np.linalg.norm(W, axis=0) * np.linalg.norm(H, axis=1)))
    for k in order:
        score = np.outer(W[:, k], H[k, :]) * Xref
        for idx in np.argsort(-score, axis=None):
            i, j = divmod(int(idx), n)
            if i not in used_i and j not in used_j:
                break
        used_i.add(i)
        used_j.add(j)
        U0[i, k] = 1.0
        V0[j, k] = 1.0
    return FactorPair(U0, V0)


# the time span psi integrates from its warm start on block grids, whose
# flat leading spectrum gives its stop nothing to converge on.  A span,
# not a step count: at twice the step and the same count psi runs twice
# as far and its error against the reference moves
BLOCK_GRID_PSI_SPAN = 1.0


def _psi_budget(op: LinearMatrixOperator, cfg: ExperimentConfig) -> int | None:
    """The ``max_steps`` that the bench gives ``psi`` on one trial.

    An explicit ``cfg.psi_steps`` wins.  Otherwise block grids get the
    steps that cover ``BLOCK_GRID_PSI_SPAN`` at psi's step ``h``
    (``cfg.psi_h``, else the operator's default step), ``ceil(span / h)``,
    Hadamard growth gets 30,000 steps, and the other families get None,
    psi_solve's own budget.
    """
    if cfg.psi_steps is not None:
        return cfg.psi_steps
    if cfg.kind == "block-grid":
        h = op.default_step() if cfg.psi_h is None else cfg.psi_h
        return math.ceil(BLOCK_GRID_PSI_SPAN / h)
    if cfg.kind == "hadamard-growth":
        return 30_000
    return None


def _run_methods(op: LinearMatrixOperator, cfg: ExperimentConfig,
                 trial_seed: int) -> list[MetricsRow]:
    ref = power_reference(op, tol=cfg.power_tol,
                          **_set(max_iters=cfg.power_iters))
    if cfg.ode_init == "auto":
        rneg_init = "reference" if cfg.kind == "block-grid" else "random"
        psi_init = "random" if cfg.kind == "random-grid" else "reference"
    else:
        rneg_init = psi_init = cfg.ode_init
    psi_warm = "psi" in cfg.methods and psi_init == "reference"
    rneg_warm = "rneg" in cfg.methods and rneg_init == "reference"
    # the warm rneg start is made from the power+nmf factorization and the
    # warm psi start is the power+svd one: each compression runs once, and
    # its report serves its row and the warm start, which is charged its
    # time
    comp = {m: solve(op, m, cfg.rank, seed=trial_seed, init=ref)
            for m, warm in (("power+nmf", rneg_warm), ("power+svd", psi_warm))
            if warm or m in cfg.methods}
    rows = []
    for method in cfg.methods:
        if method == "power":
            rep, dt = ref, ref.wall_time_s
        elif method in comp:
            rep = comp[method]
            dt = ref.wall_time_s + rep.wall_time_s
        elif method == "psi":
            svd = comp["power+svd"] if psi_warm else None
            t0 = time.perf_counter()
            rep = solve(op, "psi", cfg.rank, seed=trial_seed,
                        tol=cfg.psi_tol, budget=_psi_budget(op, cfg),
                        h=cfg.psi_h,
                        init=None if svd is None else svd.psi_state)
            dt = time.perf_counter() - t0
            if svd is not None:
                dt += svd.wall_time_s
        else:
            fit = comp["power+nmf"] if rneg_warm else None
            t0 = time.perf_counter()
            pair = (None if fit is None
                    else _vertex_init(np.maximum(ref.X, 0.0), fit.factors))
            rep = solve(op, "rneg", cfg.rank, seed=trial_seed,
                        tol=cfg.rneg_tol, budget=cfg.rneg_nmax,
                        h=cfg.rneg_h0, init=pair)
            dt = time.perf_counter() - t0
            if fit is not None:
                dt += fit.wall_time_s
        rows.append(evaluate_against_reference(rep, ref, method, dt))
    return rows


def run_experiment(cfg: ExperimentConfig):
    """Run all trials sequentially; returns per-trial rows.

    Trial ``i`` uses seed ``cfg.seed + i`` for both the operator generator
    and the iterative solvers, so reruns of the same config reproduce the
    trial stream exactly.
    """
    per_trial: list[list[MetricsRow]] = []
    for i in range(cfg.trials):
        trial_seed = cfg.seed + i
        op = build_operator(cfg, trial_seed)
        per_trial.append(_run_methods(op, cfg, trial_seed))
    return per_trial


def aggregate(per_trial) -> list[MetricsRow]:
    """Mean and sample-std rows per method, in method order of the config.

    The std row of a method carries the suffix ``_std``; with a single
    trial all std entries are zero.
    """
    out = []
    n_methods = len(per_trial[0])
    for j in range(n_methods):
        method = per_trial[0][j].method
        table = np.array([trial[j].values() for trial in per_trial])
        mean = table.mean(axis=0)
        std = (table.std(axis=0, ddof=1) if len(per_trial) > 1
               else np.zeros(table.shape[1]))
        out.append(MetricsRow(method, *mean))
        out.append(MetricsRow(method + "_std", *std))
    return out


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_csv(rows, fh, include_timing: bool = True) -> None:
    """Write metric rows under the fixed header.

    With ``include_timing=False`` the time column is written as 0.0 so two
    runs of the same config produce byte-identical output.
    """
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in rows:
        t = r.time_s if include_timing else 0.0
        writer.writerow([r.method, _fmt(t), _fmt(r.relerr), _fmt(r.residual),
                         _fmt(r.lambda_err), _fmt(r.neg_count),
                         _fmt(r.converged)])


def emit_text(rows, fh, include_timing: bool = True) -> None:
    """Human-readable fixed-width table of the same rows."""
    cols = CSV_HEADER.split(",")
    fh.write(f"{cols[0]:<14}" + "".join(f"{c:>12}" for c in cols[1:]) + "\n")
    for r in rows:
        t = r.time_s if include_timing else 0.0
        vals = (t, r.relerr, r.residual, r.lambda_err, r.neg_count,
                r.converged)
        fh.write(f"{r.method:<14}" + "".join(f"{v:>12.4g}" for v in vals)
                 + "\n")


def render_rows(rows, fmt: str = "csv", include_timing: bool = True) -> str:
    buf = io.StringIO()
    if fmt == "csv":
        emit_csv(rows, buf, include_timing)
    elif fmt == "text":
        emit_text(rows, buf, include_timing)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return buf.getvalue()
