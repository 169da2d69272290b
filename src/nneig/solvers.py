"""Eigenpair solvers: power and Krylov references, nonnegative low-rank
integrator, and projector-splitting baseline.

All solvers target the rightmost eigenpair ``A(X) = lam X`` of a
:class:`~nneig.operators.LinearMatrixOperator` and report a unit-Frobenius-
norm ``X``.  They share a common report type and are deterministic given
their seeds (PCG64 generators throughout).

The factored solvers evaluate the image ``F = A(U V^T)`` through the
operator's factor form when it is narrow (:func:`_narrow_form`), else by
assembling ``F`` with one ``apply_factored`` call per evaluation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .matcore import FactorPair, _qr, project_feasible_direction, thin_qr
from .operators import FactorForm, LinearMatrixOperator

__all__ = [
    "SolverError",
    "EigenReport",
    "PSIState",
    "rayleigh",
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

    ``X`` always has unit Frobenius norm, and the fields that describe it
    are read off this ``X`` however the solve ended, a budget stop
    included: ``eigenvalue`` is its Rayleigh value ``<A(X), X>``,
    ``residual`` the Frobenius norm of ``A(X) - eigenvalue * X`` (both from
    :func:`rayleigh`) and ``neg_count`` its number of negative entries.
    ``iterations`` counts the solver's steps (operator applications for
    the Krylov reference).  ``factors`` is set by the sign-constrained
    solver, ``psi_state`` by the splitting one.

    ``details`` is the record of how the solve ended: ``stop`` is
    ``"converged"``, ``"budget"`` or (``rneg`` only) ``"stalled"``, and
    ``converged == (stop == "converged")``.  The other keys are outcomes
    and resolved defaults of the method: ``shift`` (power), ``basis``,
    ``restarts``, ``breakdown`` (Krylov), ``h`` (psi), and ``h0``,
    ``grad`` (the final projected-gradient norm), ``rejected``, ``h_min``,
    ``h_max`` (rneg).
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

    def to_dict(self) -> dict:
        d = {
            "method": self.method,
            "eigenvalue": self.eigenvalue,
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "wall_time_s": self.wall_time_s,
            "neg_count": self.neg_count,
            "details": dict(self.details),
            "X": self.X.tolist(),
        }
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


def rayleigh(op: LinearMatrixOperator, X: np.ndarray,
             Y: np.ndarray | None = None) -> tuple[float, float]:
    """Rayleigh value ``lam = <A(X), X>`` of a unit-Frobenius-norm ``X``
    and its residual ``||A(X) - lam X||_F``.

    Both come from one image ``Y = A(X)``: the one passed by a caller that
    already holds it, else one ``op.apply_full``.
    """
    if Y is None:
        Y = op.apply_full(X)
    lam = float(np.sum(Y * X))
    return lam, float(np.linalg.norm(Y - lam * X))


def _check_finite(lam: float, what: str) -> None:
    if not math.isfinite(lam):
        raise SolverError(f"{what} became non-finite")


def _report(method: str, op: LinearMatrixOperator, X: np.ndarray, t0: float,
            iterations: int, stop: str, details: dict,
            Y: np.ndarray | None = None, **state) -> EigenReport:
    """The report of a solve that returns ``X`` and ended on ``stop``,
    built as :class:`EigenReport` says.  ``Y`` is ``A(X)`` if the solver
    holds it; ``state`` carries its ``factors`` or ``psi_state``."""
    lam, res = rayleigh(op, X, Y)
    _check_finite(lam, f"{method} eigenvalue")
    return EigenReport(
        method=method,
        eigenvalue=lam,
        X=X,
        residual=res,
        iterations=iterations,
        converged=stop == "converged",
        wall_time_s=time.perf_counter() - t0,
        neg_count=int(np.count_nonzero(X < 0)),
        details={"stop": stop, **details},
        **state,
    )


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


def _check_int(value: int, name: str) -> int:
    # a bool is an int to Python, but True is no count
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _check_budget(budget: int, name: str) -> int:
    if _check_int(budget, name) < 1:
        raise ValueError(f"{name} must be at least 1, got {budget}")
    return budget


def _check_rank(rank: int, size: int) -> None:
    if not 1 <= _check_int(rank, "rank") <= size:
        raise ValueError(f"rank must lie in [1, {size}], got {rank}")


def _narrow_form(op: LinearMatrixOperator, rank: int) -> FactorForm | None:
    """``op``'s factor form if its image at rank ``rank`` is narrower than
    the matrices ``op`` acts on, else None.  A wider form costs more than
    the image it avoids: with a full-rank Hadamard growth rate at n=100,
    r=30 (2 cores, one BLAS thread) a psi step through it took 7x and an
    rneg step 17x the time of the assembled image."""
    form = op.factor_form()
    if form is None or form.blocks * rank >= min(op.shape):
        return None
    return form


# weight of the identity in the power_reference step; a positive one keeps
# the iteration from cycling on periodic chains
POWER_DAMPING = 0.5


def power_reference(op: LinearMatrixOperator, tol: float = 1e-8,
                    max_iters: int = 500_000,
                    X0: np.ndarray | None = None) -> EigenReport:
    """Damped, shifted power iteration for the rightmost eigenpair.

    Iterates ``X <- (1 - d) (A(X) + shift X) + d X`` with Frobenius
    renormalization, damping ``d = POWER_DAMPING`` and the operator's
    ``default_shift()`` (zero for probabilistic grids), which makes the
    iteration map the nonnegative orthant to itself; the damping term
    handles periodic chains.  The reported eigenvalue is always that of
    the *unshifted* operator, and ``details["shift"]`` the shift used.

    Convergence is declared when ``||A(X) - rho X||_F <= tol``.  If the
    budget runs out first, the last iterate is returned with
    ``converged=False``; this is the expected behavior when the rightmost
    eigenvalues are nearly degenerate, in which case the Rayleigh value is
    still accurate to about the degeneracy gap.
    """
    t0 = time.perf_counter()
    _check_tol(tol)
    _check_budget(max_iters, "max_iters")
    sigma = op.default_shift()
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
        lam, res = rayleigh(op, X, Y)
        _check_finite(lam, "power iterate")
        if res <= tol:
            stop = "converged"
            break
        Z = (1.0 - POWER_DAMPING) * (Y + sigma * X) + POWER_DAMPING * X
        nrm = float(np.linalg.norm(Z))
        if nrm == 0.0 or not np.isfinite(nrm):
            raise SolverError("power iterate vanished or blew up")
        X = Z / nrm
    return _report("power", op, X, t0, it, stop, {"shift": sigma})


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
        lam, res = rayleigh(op, X, Y)
        _check_finite(lam, "Krylov restart")
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
    return _report("krylov", op, X, t0, applies, stop,
                   {"basis": Q.shape[0], "restarts": restarts,
                    "breakdown": breakdown}, Y=Y)


def _normalize(W: np.ndarray,
               m: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Scale the stacked factors ``W = [U; V]`` in place so that ``U V^T``
    has unit Frobenius norm.  Returns the Grams ``(U^T U, V^T V)`` of the
    scaled factors, or None for a zero product."""
    GU = W[:m].T @ W[:m]
    GV = W[m:].T @ W[m:]
    g = float(np.vdot(GU, GV))  # ||U V^T||^2
    if g <= 0.0:
        return None
    c = math.sqrt(g)  # the square of the scale W is divided by
    W /= math.sqrt(c)
    GU /= c
    GV /= c
    return GU, GV


def _flow_data(projected, W: np.ndarray, m: int, grams):
    """Constrained flow data at normalized nonnegative factors ``W = [U; V]``
    whose Grams ``(U^T U, V^T V)`` are ``grams``.

    Returns the gradients of the flow ``A(X) - rho X`` pushed onto each
    factor, stacked like ``W`` and projected onto the directions feasible
    at ``W``, and the joint norm of the projection.  ``projected(U, V)``
    returns ``(F @ V, F.T @ U)`` for ``F = A(U V^T)``.
    """
    U, V = W[:m], W[m:]
    GU, GV = grams
    FV, FtU = projected(U, V)
    lam = float(np.vdot(FtU, V))  # <A(X), UV^T> without forming UV^T
    _check_finite(lam, "factored iterate")
    G = np.empty_like(W)
    np.subtract(FV, U @ (lam * GV), out=G[:m])
    np.subtract(FtU, V @ (lam * GU), out=G[m:])
    P = project_feasible_direction(W, G)
    return P, _norm(P)


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

    Termination is on stationarity: the run stops at the first accepted
    step not shortened by the crossing cap whose joint projected-gradient
    norm ``g``, the number the acceptance test reads, is at most
    ``tol / op.default_step()``.  That is the norm at which one default
    step moves the factors by about ``tol``; it does not depend on ``h0``,
    which only seeds the step.  ``nmax`` accepted steps at most.  A step
    size that underflows ``1e-16`` stops the run with ``converged=False``.
    ``details`` carries ``stop`` (``"converged"``, ``"budget"`` or
    ``"stalled"``), the resolved ``h0``, the final joint norm ``grad``,
    the count of ``rejected`` trials and the range ``h_min``/``h_max`` of
    the accepted step sizes.
    """
    t0 = time.perf_counter()
    m, n = op.shape
    _check_rank(rank, min(m, n))
    h_default = op.default_step()
    h_init = _check_step(h_default if h0 is None else h0, "h0")
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
    grams = _normalize(W, m)
    if grams is None:
        raise ValueError("initial factors have zero product")

    # the projection through the narrow factor form, else of the
    # assembled image, resolved once
    form = _narrow_form(op, rank)
    if form is None:
        def projected(U, V):
            F = op.apply_factored(U, V)
            return F @ V, F.T @ U
    else:
        projected = form.project
    P, g = _flow_data(projected, W, m, grams)
    # the stop threshold; a division, so a zero operator's infinite
    # default step gives 0, not NaN
    g_stop = tol / h_default
    ratio = np.empty(W.shape)
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
        ratio.fill(np.inf)
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
            np.copyto(Wt, 0.0, where=ratio <= h_use * (1.0 + 1e-12))
            grams = _normalize(Wt, m)
            if grams is not None:
                P_t, g_t = _flow_data(projected, Wt, m, grams)
                if (not accepted_steps or g_t <= ACCEPT_SLACK * g
                        or rejects >= MAX_REJECTS):
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
        # only an unclamped step counts for the termination test
        settled = h_use == h and g_t <= g_stop
        W, P, g = Wt, P_t, g_t
        h = min(h * BETA_ACC, h_ceil)
        if settled:
            stop = "converged"
            break

    U, V = W[:m], W[m:]
    return _report("rneg", op, U @ V.T, t0, accepted_steps, stop, {
        "h0": h_init, "grad": g, "rejected": rejected,
        "h_min": h_min if accepted_steps else None,
        "h_max": h_max if accepted_steps else None,
    }, factors=FactorPair(U, V))


def _last(f):
    """``f`` keeping its last result, which a repeat call on the same
    array object returns without calling ``f`` again."""
    arg = out = None

    def cached(M):
        nonlocal arg, out
        if M is not arg:
            arg, out = M, f(M)
        return out

    return cached


# largest ||Q^T Q - I||_F that psi_solve accepts in a warm start's U and V
ORTHONORMAL_TOL = 1e-8


def _step_distance(US0, S0, V0, US1, V1) -> float:
    """``||X1 - X0||_F`` for ``Xi = Ui Si Vi^T`` with orthonormal ``Ui``,
    ``Vi``, from ``USi = Ui Si``, ``S0``, ``V0`` and ``V1`` in
    ``O((m + n) r^2)``, without forming either product.

    Splitting ``X1 - X0`` along ``span(V1)`` and its complement gives two
    orthogonal parts; with ``B = V0^T V1`` their norms are
    ``||U1 S1 - U0 S0 B||_F`` and ``||(V0 - V1 B^T) S0^T||_F``, the
    latter because ``U0`` is orthonormal.
    """
    B = V0.T @ V1
    inner = US1 - US0 @ B
    outer = (V0 - V1 @ B.T) @ S0.T
    return math.sqrt(np.vdot(inner, inner) + np.vdot(outer, outer))


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

    Each substep needs the image ``F = A(X)`` only projected onto the
    factors.  When the operator has a narrow factor form
    ``A(U S V^T) = L(U) bd(S) R(V)^T``, where ``bd(S)`` applies ``S`` to
    each block, the images ``L(U)`` and ``R(V)`` are cached across substeps
    and steps, so a step lifts only its new ``U`` and its new ``V``:

    * K-step: ``F V = L(U) bd(S) D`` with ``D = R(V)^T V``;
    * S-step: ``U1^T F V = E bd(S) D`` with ``E = U1^T L(U1)``;
    * L-step: ``F^T U1 = R(V) bd(S^T) E^T``.

    Otherwise every substep assembles ``F`` with one ``op.apply_factored``
    call; the L-step evaluates at the factor pair ``(U1, V S^T)``, whose
    product is ``X``.

    Stops when ``||X_{k+1} - X_k||_F <= tol * h``, or after ``max_steps``
    steps; ``details["stop"]`` says which (``"converged"`` or
    ``"budget"``).  The distance comes from the factors of the two states
    in ``O((m + n) r^2)`` (:func:`_step_distance`), so no step forms the
    ``m x n`` iterate; ``X`` is formed once, for the report, which reads it
    through ``op.apply_full`` as every solver's report does.  A step costs
    two lifts (or three assembled images) plus ``O((m + n) r^2)`` dense
    algebra, which includes two QRs.  Those call numpy's LAPACK kernels
    through :func:`~nneig.matcore._qr`, with the factors of
    ``np.linalg.qr`` bit for bit: that wrapper costs two to three times the
    kernels on inputs this small, and through it the two QRs were the
    largest item of a step.
    On Hadamard growth at n=100, rank 3, a step takes 73-86 us, against
    93-103 us through ``np.linalg.qr`` (2 cores, one BLAS thread).  A warm
    start whose core ``S`` is zero or not finite, or whose
    ``U`` or ``V`` is not orthonormal
    (``||Q^T Q - I||_F > ORTHONORMAL_TOL``), is rejected with ValueError.
    """
    t0 = time.perf_counter()
    m, n = op.shape
    _check_rank(rank, min(m, n))
    step = _check_step(op.default_step() if h is None else h, "step size h")
    _check_tol(tol)
    _check_budget(max_steps, "max_steps")
    if init is None:
        rng = np.random.default_rng(seed)
        U, _ = thin_qr(rng.standard_normal((m, rank)))
        V, _ = thin_qr(rng.standard_normal((n, rank)))
        S = np.eye(rank) / np.sqrt(rank)
    else:
        if (init.U.shape != (m, rank) or init.S.shape != (rank, rank)
                or init.V.shape != (n, rank)):
            raise ValueError("init state does not match operator/rank")
        s_nrm = float(np.linalg.norm(init.S))
        if not (s_nrm > 0.0 and math.isfinite(s_nrm)):
            raise ValueError("init core S must be nonzero and finite")
        for name, Q in (("U", init.U), ("V", init.V)):
            if not np.linalg.norm(Q.T @ Q - np.eye(rank)) <= ORTHONORMAL_TOL:
                raise ValueError(f"init factor {name} must have orthonormal "
                                 "columns")
        U = init.U.copy()
        S = init.S / s_nrm
        V = init.V.copy()

    # each substep's image at its iterate X, projected onto the factors,
    # and the Rayleigh value <A(X), X>
    form = _narrow_form(op, rank)
    if form is None:
        def k_image(U, S, V, US):  # F V at X = U S V^T, US = U S
            FV = op.apply_factored(US, V) @ V
            return FV, float(np.vdot(FV, US))

        def s_image(U1, S, V):  # U1^T F V at X = U1 S V^T
            FV, rho = k_image(U1, S, V, U1 @ S)
            return U1.T @ FV, rho

        def l_image(U1, S, V, VS):  # F^T U1 at X = U1 S V^T, VS = V S^T
            F = op.apply_factored(U1, VS)
            return F.T @ U1, float(np.vdot(F @ VS, U1))
    else:
        K = form.blocks
        left, right = _last(form.left), _last(form.right)
        D = _last(lambda V: right(V).T @ V)
        E = _last(lambda U: U.T @ left(U))

        def bd(M, B):  # M applied to each of the K row blocks of B
            return (M @ B.reshape(K, rank, -1)).reshape(B.shape)

        def k_image(U, S, V, US):
            FV = left(U) @ bd(S, D(V))
            return FV, float(np.vdot(FV, US))

        def s_image(U1, S, V):
            UtFV = E(U1) @ bd(S, D(V))
            return UtFV, float(np.vdot(UtFV, S))

        def l_image(U1, S, V, VS):
            FtU = right(V) @ bd(S.T, E(U1).T)
            return FtU, float(np.vdot(FtU, VS))

    # the substeps' QR runs without thin_qr's validation and sign
    # convention: a column sign flip of a Q is exact in floating point and
    # absorbed by the core, so the iterate X is the same bit for bit
    US = U @ S
    stop = "budget"
    for k in range(1, max_steps + 1):
        # K-step
        FV, rho = k_image(U, S, V, US)
        _check_finite(rho, "splitting iterate")
        U1, S_hat = _qr(US + step * (FV - rho * US))
        # S-step (backward)
        UtFV, rho = s_image(U1, S_hat, V)
        _check_finite(rho, "splitting iterate")
        S_tilde = S_hat - step * (UtFV - rho * S_hat)
        # L-step, at X = U1 (V S_tilde^T)^T
        VS = V @ S_tilde.T
        FtU, rho = l_image(U1, S_tilde, V, VS)
        _check_finite(rho, "splitting iterate")
        V1, S1t = _qr(VS + step * (FtU - rho * VS))
        s_nrm = _norm(S1t)
        if s_nrm == 0.0 or not math.isfinite(s_nrm):
            raise SolverError("splitting core vanished or blew up")
        S1 = S1t.T / s_nrm
        US1 = U1 @ S1
        delta = _step_distance(US, S, V, US1, V1)
        U, S, V, US = U1, S1, V1, US1
        if delta <= tol * step:
            stop = "converged"
            break

    # the factored state has a global sign gauge (the flow is odd, so X and
    # -X evolve identically); canonicalize to nonnegative total mass so the
    # negative-entry count reflects genuine sign mixing, not the gauge
    X = US @ V.T
    if float(np.sum(X)) < 0:
        S = -S
        X = -X
    return _report("psi", op, X, t0, k, stop, {"h": step},
                   psi_state=PSIState(U, S, V))
