"""Eigenpair solvers: power and Krylov references, nonnegative low-rank
integrator, and projector-splitting baseline.

All solvers target the rightmost eigenpair ``A(X) = lam X`` of a
:class:`~nneig.operators.LinearMatrixOperator` and report a unit-Frobenius-
norm ``X``.  They share a common report type and are deterministic given
their seeds (PCG64 generators throughout).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .matcore import FactorPair, project_feasible_direction, thin_qr
from .operators import LinearMatrixOperator

__all__ = [
    "SolverError",
    "EigenReport",
    "PSIState",
    "residual",
    "power_reference",
    "krylov_reference",
    "rneg_solve",
    "psi_solve",
]


class SolverError(RuntimeError):
    """A solver produced non-finite values or lost its iterate entirely."""


@dataclass
class EigenReport:
    """Outcome of an eigenpair computation.

    ``X`` always has unit Frobenius norm; ``eigenvalue`` is the Rayleigh
    value of ``X`` under the operator, ``residual`` the Frobenius norm of
    ``A(X) - eigenvalue * X``.  ``iterations`` counts the solver's steps
    (operator applications for the Krylov reference).  ``factors`` is set
    by the sign-constrained solver, ``psi_state`` by the splitting one.

    ``details`` is the record of how the solve ended: ``stop`` is
    ``"converged"``, ``"budget"`` or (``rneg`` only) ``"stalled"``, and
    ``converged == (stop == "converged")``.  The other keys are outcomes
    and resolved defaults of the method: ``shift`` (power), ``basis``,
    ``restarts``, ``breakdown`` (Krylov), ``h`` (psi), and ``h0``,
    ``rejected``, ``h_min``, ``h_max`` (rneg).
    """

    method: str
    eigenvalue: float
    X: np.ndarray
    residual: float
    iterations: int
    converged: bool
    wall_time_s: float
    neg_count: int
    factors: FactorPair | None = None
    psi_state: "PSIState | None" = None
    details: dict = field(default_factory=dict)

    def to_dict(self, include_matrix: bool = True) -> dict:
        d = {
            "method": self.method,
            "eigenvalue": self.eigenvalue,
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "wall_time_s": self.wall_time_s,
            "neg_count": self.neg_count,
            "details": dict(self.details),
        }
        if include_matrix:
            d["X"] = self.X.tolist()
            if self.factors is not None:
                d["U"] = self.factors.U.tolist()
                d["V"] = self.factors.V.tolist()
            if self.psi_state is not None:
                d["U"] = self.psi_state.U.tolist()
                d["S"] = self.psi_state.S.tolist()
                d["V"] = self.psi_state.V.tolist()
        return d


@dataclass
class PSIState:
    """Orthonormal-factor state ``X = U @ S @ V.T`` of the splitting integrator."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray

    def product(self) -> np.ndarray:
        return self.U @ self.S @ self.V.T


def residual(op: LinearMatrixOperator, X: np.ndarray, lam: float) -> float:
    """Frobenius norm of ``A(X) - lam X``."""
    X = np.asarray(X, dtype=float)
    return float(np.linalg.norm(op.apply_full(X) - lam * X))


def _check_finite(lam: float, what: str) -> None:
    if not np.isfinite(lam):
        raise SolverError(f"{what} became non-finite")


# input checks shared by the solvers and the bench config
def _check_tol(tol: float, name: str = "tol") -> None:
    # a NaN or negative tolerance is never met, an infinite one always
    if not 0 <= tol < math.inf:  # NaN fails too
        raise ValueError(f"{name} must be finite and nonnegative, got {tol}")


def _check_step(h: float, name: str) -> float:
    h = float(h)
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"{name} must be positive and finite, got {h}")
    return h


def _check_budget(budget: int, name: str) -> int:
    if budget < 1:
        raise ValueError(f"{name} must be at least 1, got {budget}")
    return budget


def power_reference(op: LinearMatrixOperator, tol: float = 1e-8,
                    max_iters: int = 500_000, shift: float | None = None,
                    damping: float = 0.5,
                    X0: np.ndarray | None = None) -> EigenReport:
    """Damped, shifted power iteration for the rightmost eigenpair.

    Iterates ``X <- (1 - damping) (A(X) + shift X) + damping X`` with
    Frobenius renormalization.  For nonnegativity-preserving operators the
    default ``shift=None`` resolves to the operator's stored shift (zero
    for probabilistic grids), making the iteration map the nonnegative
    orthant to itself; the damping term handles periodic chains.  The
    reported eigenvalue is always that of the *unshifted* operator.

    Convergence is declared when ``||A(X) - rho X||_F <= tol``.  If the
    budget runs out first, the best (last) iterate is returned with
    ``converged=False``; this is the expected behavior when the rightmost
    eigenvalues are nearly degenerate, in which case the Rayleigh value is
    still accurate to about the degeneracy gap.
    """
    t0 = time.perf_counter()
    if not 0 <= damping < 1:
        raise ValueError("damping must lie in [0, 1)")
    _check_tol(tol)
    _check_budget(max_iters, "max_iters")
    sigma = op.default_shift() if shift is None else float(shift)
    m, n = op.shape
    if X0 is None:
        X = np.full((m, n), 1.0 / np.sqrt(m * n))
    else:
        X = np.asarray(X0, dtype=float).copy()
        nrm = np.linalg.norm(X)
        if nrm == 0:
            raise ValueError("starting matrix must be nonzero")
        X /= nrm
    stop = "budget"
    for it in range(1, max_iters + 1):
        Y = op.apply_full(X)
        lam = float(np.sum(Y * X))
        _check_finite(lam, "power iterate")
        res = float(np.linalg.norm(Y - lam * X))
        if res <= tol:
            stop = "converged"
            break
        Z = (1.0 - damping) * (Y + sigma * X) + damping * X
        nrm = float(np.linalg.norm(Z))
        if nrm == 0.0 or not np.isfinite(nrm):
            raise SolverError("power iterate vanished or blew up")
        X = Z / nrm
    return EigenReport(
        method="power",
        eigenvalue=lam,
        X=X,
        residual=res,
        iterations=it,
        converged=stop == "converged",
        wall_time_s=time.perf_counter() - t0,
        neg_count=int(np.count_nonzero(X < 0)),
        details={"stop": stop, "shift": sigma},
    )


# Arnoldi basis size of krylov_reference.  A larger basis cuts the restarts
# but holds more vectors of length m * n in memory.
KRYLOV_BASIS = 10


def krylov_reference(op: LinearMatrixOperator, tol: float = 1e-8,
                     max_iters: int = 500_000) -> EigenReport:
    """Explicitly restarted Arnoldi; the reference rightmost eigenpair.

    Each cycle builds an Arnoldi basis of at most ``KRYLOV_BASIS`` vectors
    of length ``m * n`` on ``op.apply_full``, orthogonalized by two passes
    of classical Gram-Schmidt, and restarts from the real part of the Ritz
    vector of the rightmost Ritz value, scaled to unit Frobenius norm and
    positive sum.  The first cycle starts from the uniform matrix, as
    :func:`power_reference` does, so on a degenerate rightmost eigenvalue
    both converge to the same eigenmatrix: the Krylov space of the start
    holds one direction of each eigenspace.  Krylov spaces do not change
    under ``A -> a A + b I``, so neither a shift nor damping is needed.

    Convergence is declared on the same true residual as the power
    iteration, ``||A(X) - rho X||_F <= tol``, evaluated once per restart;
    that product also starts the next cycle.  ``max_iters`` is a budget of
    operator applications, reported back as ``iterations``.  When it runs
    out first, the last restart matrix is returned with
    ``converged=False``.  A basis vector that vanishes under
    orthogonalization means the Krylov space is invariant; the cycle then
    ends early and its Ritz vector is an exact eigenvector up to roundoff.
    """
    t0 = time.perf_counter()
    _check_tol(tol)
    _check_budget(max_iters, "max_iters")
    m, n = op.shape
    size = m * n
    Q = np.empty((min(KRYLOV_BASIS, size), size))
    H = np.zeros((Q.shape[0], Q.shape[0]))
    X = np.full((m, n), 1.0 / np.sqrt(size))
    Y = op.apply_full(X)
    applies = 1
    restarts = 0
    breakdown = False
    stop = "budget"
    while True:
        lam = float(np.sum(Y * X))
        _check_finite(lam, "Krylov restart")
        res = float(np.linalg.norm(Y - lam * X))
        if res <= tol:
            stop = "converged"
            break
        k = min(Q.shape[0], max_iters - applies)
        if k < 2:
            break
        Q[0] = X.ravel()
        w = Y.ravel()
        j = 0
        while True:
            # two-pass classical Gram-Schmidt against the basis so far
            wnorm = float(np.linalg.norm(w))
            h = Q[:j + 1] @ w
            w = w - h @ Q[:j + 1]
            h2 = Q[:j + 1] @ w
            w -= h2 @ Q[:j + 1]
            H[:j + 1, j] = h + h2
            j += 1
            if j == k:
                break
            beta = float(np.linalg.norm(w))
            if beta <= 1e-14 * wnorm:
                breakdown = True
                break
            H[j, j - 1] = beta
            Q[j] = w / beta
            w = op.apply_full(Q[j].reshape(m, n)).ravel()
            applies += 1
        theta, S = np.linalg.eig(H[:j, :j])
        x = S[:, np.argmax(theta.real)].real @ Q[:j]
        nrm = float(np.linalg.norm(x))
        if nrm == 0.0 or not np.isfinite(nrm):
            raise SolverError("Ritz vector vanished or blew up")
        X = (x / nrm if x.sum() >= 0 else -x / nrm).reshape(m, n)
        Y = op.apply_full(X)
        applies += 1
        restarts += 1
    return EigenReport(
        method="krylov",
        eigenvalue=lam,
        X=X,
        residual=res,
        iterations=applies,
        converged=stop == "converged",
        wall_time_s=time.perf_counter() - t0,
        neg_count=int(np.count_nonzero(X < 0)),
        details={"stop": stop, "basis": Q.shape[0], "restarts": restarts,
                 "breakdown": breakdown},
    )


def _normalize(W: np.ndarray, m: int) -> bool:
    """Scale the stacked factors ``W = [U; V]`` in place so that ``U V^T``
    has unit Frobenius norm; False for a zero product."""
    g = float(((W[:m].T @ W[:m]) * (W[m:].T @ W[m:])).sum())  # ||U V^T||^2
    if g <= 0.0:
        return False
    W /= math.sqrt(math.sqrt(g))
    return True


def _flow_data(op: LinearMatrixOperator, W: np.ndarray, m: int):
    """Constrained flow data at normalized nonnegative factors ``W = [U; V]``.

    Returns the Rayleigh value, the gradients of the flow ``A(X) - rho X``
    pushed onto each factor, stacked like ``W`` and projected onto the
    directions feasible at ``W``, and the joint norm of the projection.
    """
    U, V = W[:m], W[m:]
    FV, FtU = op.apply_projected(U, V)
    lam = float((FtU * V).sum())  # <A(X), UV^T> without forming UV^T
    _check_finite(lam, "factored iterate")
    G = np.empty_like(W)
    np.subtract(FV, lam * (U @ (V.T @ V)), out=G[:m])
    np.subtract(FtU, lam * (V @ (U.T @ U)), out=G[m:])
    P = project_feasible_direction(W, G)
    return lam, P, _norm(P)


def _norm(a: np.ndarray) -> float:
    """Frobenius norm of a C-contiguous array; the value of
    ``np.linalg.norm`` without its dispatch cost."""
    return math.sqrt(np.vdot(a, a))


# step control of rneg_solve; its docstring says what each constant does
BETA_REJ = 0.5
BETA_ACC = 1.1
ACCEPT_SLACK = 1.05
MAX_REJECTS = 40


def rneg_solve(op: LinearMatrixOperator, rank: int, h0: float | None = None,
               tol: float = 1e-8, nmax: int = 50_000, seed: int = 0,
               init: FactorPair | None = None) -> EigenReport:
    """Nonnegative rank-``rank`` eigenpair by explicit integration of the
    sign-constrained eigenvalue flow on the factors (RNeg).

    The iterate is ``X = U @ V.T`` with entrywise-nonnegative factors on
    the unit Frobenius sphere.  Each step pushes both factors along the
    feasible projection of the flow gradients, clips at zero, and
    renormalizes; zero entries of a factor can therefore only re-activate
    through a positive gradient.  The step is capped by the largest
    admissible value that keeps currently-positive entries nonnegative,
    and adapted by backtracking: a trial step is accepted only when the
    joint norm ``hypot(||PU||, ||PV||)`` of the projected gradients does
    not exceed the acceptance baseline, else the step is retaken from the
    same factors with ``h * BETA_REJ``.  The norm is joint, not per
    factor: once one factor has aligned, its gradient sits at roundoff,
    and a per-factor test would reject every step on that noise alone.

    ``h0`` is the initial step, not a cap (``h0=None`` resolves to the
    operator's default step).  On acceptance the step grows by
    ``BETA_ACC`` up to a ceiling learned from rejections: it starts at
    infinity, and every rejected trial of size ``h_use`` lowers it to
    ``h_use / BETA_ACC``.  The ceiling only falls, so the step settles
    below the largest size the operator lets pass the acceptance test,
    not at a family constant.  The backtracking baseline is the norm at
    the previous accepted step, so the first trial step always passes.

    The projected-gradient norms are not monotone along the flow, so a
    norm-decreasing step size need not exist; insisting on one deadlocks
    the search wherever the trajectory climbs.  ``ACCEPT_SLACK`` gives the
    test multiplicative headroom: a trial passes when the joint norm grows
    by no more than that factor over the baseline.  The flow's own
    per-step growth is ``1 + O(h)``, so some step size always passes,
    while the compounding jumps of an unstable explicit step still get
    rejected.  ``MAX_REJECTS`` bounds the halvings per step as a final
    safety; the smallest trial is then taken anyway.

    Termination is step-relative: ``max(dU, dV) <= tol * h_use / h0``,
    where ``dU``, ``dV`` are the Frobenius changes of the normalized
    factors over the last accepted unclamped step of size ``h_use``, i.e.
    the gradient-norm threshold that ``tol`` sets at ``h = h0``, applied at
    any step size.  ``nmax`` accepted steps at most.  A step size that
    underflows ``1e-16`` stops the run with ``converged=False``.
    ``details`` carries ``stop`` (``"converged"``, ``"budget"`` or
    ``"stalled"``), the count of ``rejected`` trials and the range
    ``h_min``/``h_max`` of the accepted step sizes.
    """
    t0 = time.perf_counter()
    m, n = op.shape
    if not 1 <= rank <= min(m, n):
        raise ValueError(f"rank must lie in [1, {min(m, n)}], got {rank}")
    h_init = _check_step(op.default_step() if h0 is None else h0, "h0")
    _check_tol(tol)
    _check_budget(nmax, "nmax")
    rng = np.random.default_rng(seed)
    if init is None:
        U = rng.random((m, rank))
        V = rng.random((n, rank))
    else:
        if init.shape != (m, n) or init.rank_bound != rank:
            raise ValueError("init factors do not match operator/rank")
        U, V = init.U, init.V
    # the factors live stacked, W = [U; V], so every entrywise operation
    # of a step runs once over both
    W = np.concatenate((U, V))
    if not _normalize(W, m):
        raise ValueError("initial factors have zero product")

    lam, P, _ = _flow_data(op, W, m)
    base = np.inf
    h = h_init
    h_ceil = np.inf
    h_floor = 1e-16
    h_min, h_max = np.inf, 0.0
    stop = "budget"
    accepted_steps = 0
    rejected = 0

    while accepted_steps < nmax:
        # per-entry step sizes at which positive entries would cross zero.
        # Only entries pushed downward constrain the step, and those are
        # all positive now: at a zero entry the feasible projection
        # clipped the direction at zero
        ratio = np.full(W.shape, np.inf)
        np.divide(W, -P, out=ratio, where=P < 0)
        h_adm = float(ratio.min())
        # backtracking loop: retake the trial step from the same factors
        # until the joint projected-gradient norm passes the acceptance
        # test, or the rejection budget runs out
        rejects = 0
        while True:
            h_use = min(h, h_adm)
            Wt = P * h_use
            Wt += W
            np.maximum(Wt, 0.0, out=Wt)
            # entries whose crossing time is hit this step land exactly on
            # the boundary; roundoff residues there would otherwise shrink
            # the next admissible step to nothing
            Wt[ratio <= h_use * (1.0 + 1e-12)] = 0.0
            if _normalize(Wt, m):
                lam_t, P_t, g_t = _flow_data(op, Wt, m)
                if g_t <= ACCEPT_SLACK * base or rejects >= MAX_REJECTS:
                    break
            rejected += 1
            rejects += 1
            h_ceil = min(h_ceil, h_use / BETA_ACC)
            h *= BETA_REJ
            if h < h_floor:
                stop = "stalled"
                break
        if stop == "stalled":
            break
        accepted_steps += 1
        h_min = min(h_min, h_use)
        h_max = max(h_max, h_use)
        # a boundary-contact step moves the factors very little however far
        # the iterate is from stationarity; only an unclamped step counts
        # for the termination test.  Both factors must settle: one factor
        # alone can freeze early (its gradient vanishes identically once
        # it aligns, e.g. with a shared Perron direction) while the other
        # is still moving.
        settled = h_use == h and max(
            _norm(Wt[:m] - W[:m]), _norm(Wt[m:] - W[m:])) <= tol * h_use / h_init
        W, lam, P, base = Wt, lam_t, P_t, g_t
        h = min(h * BETA_ACC, h_ceil)
        if settled:
            stop = "converged"
            break

    U, V = W[:m], W[m:]
    X = U @ V.T
    res = residual(op, X, lam)
    return EigenReport(
        method="rneg",
        eigenvalue=lam,
        X=X,
        residual=res,
        iterations=accepted_steps,
        converged=stop == "converged",
        wall_time_s=time.perf_counter() - t0,
        neg_count=int(np.count_nonzero(X < 0)),
        factors=FactorPair(U, V),
        details={
            "stop": stop, "h0": h_init, "rejected": rejected,
            "h_min": h_min if accepted_steps else None,
            "h_max": h_max if accepted_steps else None,
        },
    )


def psi_solve(op: LinearMatrixOperator, rank: int, h: float | None = None,
              tol: float = 1e-8, max_steps: int = 500_000,
              init: PSIState | None = None, seed: int = 0) -> EigenReport:
    """Rank-``rank`` eigenpair by a first-order projector-splitting
    integrator (PSI) applied to the eigenvalue flow.

    The state is ``X = U @ S @ V.T`` with orthonormal ``U``, ``V``.  One
    step of size ``h`` integrates the flow ``G(X) = A(X) - <A(X), X> X``
    through the usual three substeps (the middle one runs backward):

    1. K-step:  ``K = U S + h G(X) V``;         QR gives the new ``U``.
    2. S-step:  ``S <- S - h U^T G(X) V``       (minus sign).
    3. L-step:  ``L = V S^T + h G(X)^T U``;     QR gives the new ``V``.

    After each full step ``S`` is renormalized to unit Frobenius norm,
    which keeps the iterate on the unit sphere without affecting the
    fixed points.  No sign constraint is imposed anywhere, so the limit
    generally carries negative entries.

    Each substep needs the image ``A(X)`` only projected onto the
    factors, which ``op.apply_projected`` supplies; the L-step evaluates at
    the factor pair ``(U, V S^T)``, whose product is ``X`` itself.

    Stops when ``||X_{k+1} - X_k||_F <= tol * h``, or after ``max_steps``
    steps; ``details["stop"]`` says which (``"converged"`` or
    ``"budget"``).
    """
    t0 = time.perf_counter()
    m, n = op.shape
    if not 1 <= rank <= min(m, n):
        raise ValueError(f"rank must lie in [1, {min(m, n)}], got {rank}")
    step = _check_step(op.default_step() if h is None else h, "step size h")
    _check_tol(tol)
    _check_budget(max_steps, "max_steps")
    if init is None:
        rng = np.random.default_rng(seed)
        U, _ = thin_qr(rng.standard_normal((m, rank)))
        V, _ = thin_qr(rng.standard_normal((n, rank)))
        S = np.eye(rank) / np.sqrt(rank)
    else:
        U = init.U.copy()
        S = init.S.copy()
        V = init.V.copy()
        S /= np.linalg.norm(S)

    def projected(U_, V_):
        # A(X) for X = U_ V_^T projected onto both factors, and the
        # Rayleigh value <A(X), X> = <A(X) V_, U_>; X is never formed
        FV, FtU = op.apply_projected(U_, V_)
        rho = float(np.vdot(FV, U_))
        _check_finite(rho, "splitting iterate")
        return FV, FtU, rho

    X_prev = U @ S @ V.T
    stop = "budget"
    for k in range(1, max_steps + 1):
        # K-step
        US = U @ S
        FV, _, rho = projected(US, V)
        U1, S_hat = thin_qr(US + step * (FV - rho * US))
        # S-step (backward)
        US = U1 @ S_hat
        FV, _, rho = projected(US, V)
        S_tilde = S_hat - step * (U1.T @ FV - rho * S_hat)
        # L-step, at X = U1 (V S_tilde^T)^T
        VS = V @ S_tilde.T
        _, FtU, rho = projected(U1, VS)
        V1, S1t = thin_qr(VS + step * (FtU - rho * VS))
        s_nrm = _norm(S1t)
        if s_nrm == 0.0 or not math.isfinite(s_nrm):
            raise SolverError("splitting core vanished or blew up")
        U, S, V = U1, S1t.T / s_nrm, V1
        X = U @ S @ V.T
        delta = _norm(X - X_prev)
        X_prev = X
        if delta <= tol * step:
            stop = "converged"
            break

    # the factored state has a global sign gauge (the flow is odd, so X and
    # -X evolve identically); canonicalize to nonnegative total mass so the
    # negative-entry count reflects genuine sign mixing, not the gauge
    if float(np.sum(X_prev)) < 0:
        S = -S
        X_prev = -X_prev
    F = op.apply_factored(U @ S, V)
    rho = float(np.sum(F * X_prev))
    _check_finite(rho, "splitting iterate")
    res = float(np.linalg.norm(F - rho * X_prev))
    return EigenReport(
        method="psi",
        eigenvalue=rho,
        X=X_prev,
        residual=res,
        iterations=k,
        converged=stop == "converged",
        wall_time_s=time.perf_counter() - t0,
        neg_count=int(np.count_nonzero(X_prev < 0)),
        psi_state=PSIState(U, S, V),
        details={"stop": stop, "h": step},
    )
