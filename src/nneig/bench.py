"""Benchmark harness: experiment configs, metric rows, and table emitters."""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .lowrank import NMFResult, best_scaled_error, nmf, truncated_svd
from .markovgrid import (BlockGridSpec, RandomGridSpec, generate_block_grid,
                         generate_random_grid)
from .operators import (HadamardGrowthOperator, LinearMatrixOperator,
                        SeparableGrowthOperator)
from .matcore import FactorPair
# power_reference stays importable from here for callers that wrap the
# module's solver names; the benchmark reference is krylov_reference
from .solvers import (EigenReport, PSIState, _check_budget,  # noqa: F401
                      _check_step, _check_tol, krylov_reference,
                      power_reference, psi_solve, rayleigh, rneg_solve)

__all__ = [
    "KNOWN_METHODS",
    "KINDS",
    "CSV_HEADER",
    "ExperimentConfig",
    "MetricsRow",
    "build_operator",
    "compress_reference",
    "evaluate_against_reference",
    "run_experiment",
    "aggregate",
    "emit_csv",
    "emit_text",
]

KNOWN_METHODS = ("power", "power+svd", "power+nmf", "psi", "rneg")
KINDS = ("block-grid", "random-grid", "hadamard-growth", "separable-growth")
CSV_HEADER = "method,time_s,relerr,residual,lambda_err,neg_count,converged"


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


@dataclass
class ExperimentConfig:
    """Declarative description of a benchmark run.

    ``kind`` selects the operator family, one of :data:`KINDS`.  Fields
    that do not apply to the chosen kind are ignored.  ``None`` solver
    knobs resolve to family defaults at run time.  Trial ``i`` derives its
    generation and solver seeds from ``seed + i`` (PCG64), so a config
    JSON pins the whole run.  ``rank`` must lie in ``[1, size]`` for the
    operator size: ``sum(sizes)`` on a block grid with ``sizes``, else
    ``n``.

    The ``power`` row is the reference eigenpair from
    :func:`~nneig.solvers.krylov_reference`: ``power_tol`` is its residual
    tolerance and ``power_iters`` its budget of operator applications.
    ``power_damping`` is still parsed, since shipped configs carry it, but
    has no effect on the reference: Krylov spaces do not change under
    ``A -> (1 - d) (A + sigma I) + d I``.
    """

    kind: str
    n: int
    rank: int
    trials: int = 1
    seed: int = 0
    methods: tuple = KNOWN_METHODS
    # grid parameters
    delta: float = 0.2
    sizes: tuple | None = None       # block grid; default: n blocks of size 1
    block_style: str = "trap"
    t: int = 3
    density: float = 0.9
    family: str = "shared-pair"
    # growth-diffusion parameters (None = family default)
    eps: float | None = None
    eps_r: float | None = None
    r0: float | None = None
    # solver knobs (None = solver/family default)
    # the reference must out-resolve the tightest method gate, or accurate
    # methods get charged for the reference's own error
    power_tol: float = 1e-11
    power_iters: int = 500_000
    power_damping: float = 0.5
    # rneg_h0 is the initial step of the sign-constrained flow (None = the
    # operator's default step, stiffness-derived on the growth families);
    # the step then grows under a ceiling learned from rejected trials.
    # rneg_tol is its stationarity tolerance: the run stops once an
    # unclamped step moves the factors by <= tol * h / h0.
    rneg_h0: float | None = None
    rneg_tol: float = 1e-8
    rneg_nmax: int = 50_000
    psi_h: float | None = None
    # the splitting integrator stops on per-step motion below tol*h, which
    # floors its error about a decade above tol on well-gapped operators;
    # 1e-10 keeps the floor near 1e-9
    psi_tol: float = 1e-10
    # None resolves per family.  Operators with (near) degenerate leading
    # eigenvalues give the splitting integrator no stationary target, so
    # block grids and Hadamard growth get fixed budgets: a bounded stretch
    # is integrated from the warm start rather than waiting on a stop rule
    # that cannot fire.  Other families run to psi_solve's own budget.
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
        self.methods = tuple(self.methods)
        if not self.methods:
            raise ValueError("methods must name at least one method")
        unknown = set(self.methods) - set(KNOWN_METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if self.ode_init not in ("auto", "random", "reference"):
            raise ValueError(f"unknown ode_init {self.ode_init!r}")
        if self.sizes is not None:
            self.sizes = tuple(int(s) for s in self.sizes)
        size = self.n
        if self.kind == "block-grid" and self.sizes is not None:
            size = sum(self.sizes)
        if not 1 <= self.rank <= size:
            raise ValueError(f"rank must lie in [1, {size}], the operator "
                             f"size, got {self.rank}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
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


def build_operator(cfg: ExperimentConfig, trial_seed: int) -> LinearMatrixOperator:
    """Instantiate the operator of one trial."""
    if cfg.kind == "block-grid":
        sizes = cfg.sizes if cfg.sizes is not None else (1,) * cfg.n
        return generate_block_grid(BlockGridSpec(
            sizes=sizes, delta=cfg.delta, seed=trial_seed,
            style=cfg.block_style))
    if cfg.kind == "random-grid":
        return generate_random_grid(RandomGridSpec(
            n=cfg.n, t=cfg.t, density=cfg.density, seed=trial_seed,
            family=cfg.family))
    kw = {k: v for k, v in
          (("r0", cfg.r0), ("eps", cfg.eps), ("eps_r", cfg.eps_r))
          if v is not None}
    if cfg.kind == "hadamard-growth":
        return HadamardGrowthOperator.standard(cfg.n, **kw)
    return SeparableGrowthOperator.standard(cfg.n, **kw)


def compress_reference(ref: EigenReport, method: str, rank: int,
                       fit: NMFResult | None) -> np.ndarray:
    """The rank-``rank`` matrix that ``power+svd`` or ``power+nmf`` makes
    of the reference eigenmatrix: its truncated SVD, or the product of
    ``fit``, a nonnegative factorization of the clipped reference.

    The matrix is returned unnormalized: its consumers normalize it, and
    normalizing it here as well would move the last digits of their
    results.
    """
    if method == "power+svd":
        return truncated_svd(ref.X, rank).reconstruct()
    return fit.W @ fit.H


def evaluate_against_reference(op: LinearMatrixOperator, X,
                               ref: EigenReport, method: str,
                               time_s: float, converged: bool) -> MetricsRow:
    """Uniform metric computation on the unit-normalized approximation.

    The approximation is normalized in Frobenius norm before computing its
    Rayleigh value, residual, scale-minimized relative error against the
    reference matrix, and negative-entry count.  Sign-indeterminate methods
    can return the mirror image of the target; the overall sign is aligned
    with the reference first, since only genuine sign mixing should show up
    in the negative-entry count.
    """
    X = np.asarray(X, dtype=float)
    nrm = float(np.linalg.norm(X))
    if nrm == 0:
        raise ValueError("approximation is identically zero")
    Xn = X / nrm
    if float(np.sum(Xn * ref.X)) < 0:
        Xn = -Xn
    lam, res = rayleigh(op, Xn)
    return MetricsRow(
        method=method,
        time_s=time_s,
        relerr=best_scaled_error(Xn, ref.X),
        residual=res,
        lambda_err=abs(lam - ref.eigenvalue),
        neg_count=int(np.count_nonzero(Xn < 0)),
        converged=float(converged),
    )


def _vertex_init(Xref: np.ndarray, fit: NMFResult) -> FactorPair:
    """Sign-constrained warm start: one support vertex per factor column.

    ``fit``, a nonnegative factorization of the clipped reference ``Xref``,
    is collapsed to its dominant entries, one disjoint (row, col) pair per
    component, scored by the component's outer product weighted with the
    reference mass it sits on.  Equal unit loadings keep the starting slots
    balanced; the constrained flow then only has to polish magnitudes.
    Starting on the support skeleton matters for operators whose leading
    eigenvalues are nearly tied: cold starts there drift into
    configurations carrying a handful of components and stall, while a
    start with the full set of supports already populated stays spread out.
    """
    m, n = Xref.shape
    W, H = fit.W, fit.H
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


def _svd_state(Xref: np.ndarray, rank: int) -> PSIState:
    """Splitting-integrator warm start: truncated SVD of the reference."""
    tri = truncated_svd(Xref, rank)
    return PSIState(tri.U, np.diag(tri.s), tri.Vt.T.copy())


def _run_methods(op: LinearMatrixOperator, cfg: ExperimentConfig,
                 trial_seed: int) -> list[MetricsRow]:
    ref = krylov_reference(op, tol=cfg.power_tol, max_iters=cfg.power_iters)
    if cfg.ode_init == "auto":
        rneg_init = "reference" if cfg.kind == "block-grid" else "random"
        psi_init = "random" if cfg.kind == "random-grid" else "reference"
    else:
        rneg_init = psi_init = cfg.ode_init
    psi_steps = cfg.psi_steps
    if psi_steps is None:
        psi_steps = {"block-grid": 100, "hadamard-growth": 30_000}.get(cfg.kind)
    psi_budget = {} if psi_steps is None else {"max_steps": psi_steps}
    # power+nmf and the warm rneg start factor the same clipped reference;
    # the factorization runs once and its time is charged to both rows
    Xpos = np.maximum(ref.X, 0.0)
    fit, fit_s = None, 0.0
    if "power+nmf" in cfg.methods or ("rneg" in cfg.methods
                                      and rneg_init == "reference"):
        t0 = time.perf_counter()
        fit = nmf(Xpos, cfg.rank, seed=trial_seed)
        fit_s = time.perf_counter() - t0
    rows = []
    for method in cfg.methods:
        if method == "power":
            rows.append(evaluate_against_reference(
                op, ref.X, ref, "power", ref.wall_time_s, ref.converged))
        elif method in ("power+svd", "power+nmf"):
            t0 = time.perf_counter()
            X = compress_reference(ref, method, cfg.rank, fit)
            dt = time.perf_counter() - t0
            if method == "power+nmf":
                dt += fit_s
            rows.append(evaluate_against_reference(
                op, X, ref, method, ref.wall_time_s + dt, ref.converged))
        elif method == "psi":
            t0 = time.perf_counter()
            state = (_svd_state(ref.X, cfg.rank)
                     if psi_init == "reference" else None)
            rep = psi_solve(op, cfg.rank, h=cfg.psi_h, tol=cfg.psi_tol,
                            seed=trial_seed, init=state, **psi_budget)
            dt = time.perf_counter() - t0
            rows.append(evaluate_against_reference(
                op, rep.X, ref, "psi", dt, rep.converged))
        else:
            t0 = time.perf_counter()
            pair = (_vertex_init(Xpos, fit)
                    if rneg_init == "reference" else None)
            rep = rneg_solve(op, cfg.rank, h0=cfg.rneg_h0, tol=cfg.rneg_tol,
                             nmax=cfg.rneg_nmax, seed=trial_seed, init=pair)
            dt = time.perf_counter() - t0
            if pair is not None:
                dt += fit_s
            rows.append(evaluate_against_reference(
                op, rep.X, ref, "rneg", dt, rep.converged))
    return rows


def run_experiment(cfg: ExperimentConfig, verbose: bool = False):
    """Run all trials sequentially; returns per-trial rows.

    Trial ``i`` uses seed ``cfg.seed + i`` for both the operator generator
    and the iterative solvers, so reruns of the same config reproduce the
    trial stream exactly.
    """
    per_trial: list[list[MetricsRow]] = []
    for i in range(cfg.trials):
        trial_seed = cfg.seed + i
        op = build_operator(cfg, trial_seed)
        rows = _run_methods(op, cfg, trial_seed)
        per_trial.append(rows)
        if verbose:
            got = ", ".join(f"{r.method}: relerr={r.relerr:.3e}" for r in rows)
            print(f"trial {i}: {got}")
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
