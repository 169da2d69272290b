"""Eigenpair solvers: the Krylov reference, nonnegative low-rank
integrator, and projector-splitting baseline.

All solvers target the rightmost eigenpair ``A(X) = lam X`` of a
:class:`~nneig.operators.LinearMatrixOperator` and report a unit-Frobenius-
norm ``X``.  They share a common report type and are deterministic given
their seeds (PCG64 generators throughout).

The factored solvers evaluate the image ``F = A(U V^T)`` through the
operator's factor form when it is narrow (:func:`_narrow_form`), else by
assembling ``F`` with one ``apply_factored`` call per evaluation.

The 2-D products inside the per-step loops of ``rneg`` and ``psi`` (and of
``lowrank.nmf`` and ``FactorForm.project``) call ``ndarray.dot``, not
``@``.  Both run the same BLAS kernel on 2-D float operands and give the
same values bit for bit (a zero may differ in sign when the inner dimension
is 1), but the ``matmul`` ufunc's dispatch costs up to about 1 us more per
call: ``(100, 3) @ (3, 3)`` took 2.2 us against 1.4 us for ``dot`` (2
cores, one BLAS thread, numpy 2.4), and a step makes a dozen such
products.  Batched products stay ``@``: on 3-D operands ``dot`` contracts
differently.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .matcore import FactorPair, _qr, project_feasible_direction, thin_qr
from .operators import STEP_FRACTION, FactorForm, LinearMatrixOperator

__all__ = [
    "SolverError",
    "EigenReport",
    "PSIState",
    "rayleigh",
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
    solver and by ``power+nmf`` (``W``, ``H^T`` of its HALS fit),
    ``psi_state`` by the splitting one and by ``power+svd`` (``U``,
    ``diag(s)``, ``V`` of its truncated SVD).  The two compressions store
    their factorization as it was computed, so its product is ``X`` times
    the norm it had before normalization.

    ``details`` is the record of how the solve ended: ``stop`` is
    ``"converged"``, ``"budget"`` or (``rneg`` only) ``"stalled"``, and
    ``converged == (stop == "converged")``.  The other keys are outcomes
    and resolved defaults of the method: ``basis``, ``restarts``,
    ``thick_restarts``, ``explicit_restarts``, ``breakdown`` (Krylov),
    ``h`` (psi), and ``h0``, ``grad`` (the final projected-gradient norm),
    ``rejected``, ``capped``, ``h_min``, ``h_max`` (rneg), and
    ``fit_stop``, ``fit_sweeps`` (the HALS fit of ``nneig solve --method
    power+nmf``: ``fit_stop`` is ``"floor"``, ``"stationary"``,
    ``"fixed_point"`` or ``"budget"``, and the method's ``stop`` reads
    ``"budget"`` also when the fit ran out of sweeps).
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
    if not isinstance(tol, numbers.Real):
        raise ValueError(f"{name} must be a number, got {tol!r}")
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


# Arnoldi basis size of krylov_reference, the number of rightmost Ritz
# vectors a thick restart keeps (KRYLOV_KEEP + 1 < KRYLOV_BASIS leaves room
# for a conjugate pair and a new vector), and the cycles in a row without
# a new lowest residual after which it restarts explicitly.  A larger
# basis cuts the restarts but holds more vectors of length m * n in memory.
KRYLOV_BASIS = 16
KRYLOV_KEEP = 6
KRYLOV_PATIENCE = 4


def _thick_basis(theta: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Orthonormal real basis ``Z`` of the span of the ``KRYLOV_KEEP``
    rightmost Ritz vectors, from the values ``theta`` and vectors ``S``
    that ``np.linalg.eig`` returns.  A conjugate pair that the boundary
    splits is kept whole, which gives ``Z`` one more column."""
    # eig lists a conjugate pair next to each other, positive imaginary
    # part first, and a stable sort keeps it so
    order = np.argsort(-theta.real, kind="stable")
    k = KRYLOV_KEEP + int(theta[order[KRYLOV_KEEP - 1]].imag > 0)
    theta, S = theta[order[:k]], S[:, order[:k]]
    # the pair s, conj(s) spans what Re s, Im s span
    Z, _ = np.linalg.qr(np.hstack((S[:, theta.imag >= 0].real,
                                   S[:, theta.imag > 0].imag)))
    return Z


def krylov_reference(op: LinearMatrixOperator, tol: float = 1e-8,
                     max_iters: int = 500_000,
                     X0: np.ndarray | None = None) -> EigenReport:
    """Thick-restart Arnoldi; the reference rightmost eigenpair.

    Each cycle extends an Arnoldi decomposition on ``op.apply_full`` to
    ``p = KRYLOV_BASIS`` basis vectors of length ``m * n``, orthogonalized
    by two passes of classical Gram-Schmidt, with projected matrix ``H``.
    It ends on the real part of the Ritz vector of the rightmost Ritz
    value, scaled to unit Frobenius norm and positive sum: the restart
    matrix ``X``.  The first cycle starts from ``X0 / ||X0||_F``, by
    default the uniform matrix.  On a degenerate rightmost eigenvalue the
    start picks the eigenmatrix: its Krylov space holds one direction of
    each eigenspace.  Krylov spaces do not change under ``A -> a A + b I``,
    so neither a shift nor damping is needed.

    Convergence is declared on the true residual
    ``||A(X) - rho X||_F <= tol``, evaluated once per cycle on the exact
    image ``Y = A(X)``.  The next cycle restarts in one of two
    ways (Stewart, SIAM J. Matrix Anal. Appl. 23, 2001; Morgan, Math.
    Comp. 65, 1996):

    * thick: the ``KRYLOV_KEEP`` rightmost Ritz vectors, made real and
      orthonormalized to ``Z`` (:func:`_thick_basis`), become the first
      ``k`` basis vectors ``Z^T Q``, with projected block ``Z^T H Z``,
      and the decomposition's residual vector follows them.  The cycle
      costs ``p - k`` new applications besides the one for ``Y``, and
      the eigenvalue cluster it converges on survives the restart;
    * explicit, from ``X`` and ``Y`` alone, as the first cycle does.  It
      follows a cycle that broke down or spanned the whole space, and
      ``KRYLOV_PATIENCE`` cycles in a row whose residual did not fall
      below the lowest so far.  The Ritz residual of a stiff spectrum
      rises and falls from cycle to cycle, so one rise is no stall; but a
      decomposition carried through many thick restarts does stall at its
      own roundoff floor, above the ``tol`` the bench asks for, and the
      exact image ``Y`` starts a fresh one.

    ``max_iters`` is a budget of operator applications, reported back as
    ``iterations``; the last cycle shrinks to fit it.  When it runs out
    first, the last restart matrix is returned with ``converged=False``.
    A basis vector that vanishes under orthogonalization means the Krylov
    space is invariant; the cycle then ends early and its Ritz vector is
    an exact eigenvector up to roundoff.  ``details`` carries ``basis``
    (``p``, capped at ``m * n``), ``restarts`` (the cycles run),
    ``thick_restarts`` and ``explicit_restarts`` (the cycles that started
    each way, the first one explicit, so the two sum to ``restarts``) and
    ``breakdown``.
    """
    t0 = time.perf_counter()
    _check_tol(tol)
    _check_budget(max_iters, "max_iters")
    m, n = op.shape
    size = m * n
    if X0 is not None:
        X0 = np.asarray(X0, dtype=float)
        nrm = float(np.linalg.norm(X0)) if X0.shape == (m, n) else 0.0
        if not (nrm > 0 and math.isfinite(nrm)):
            raise ValueError(f"X0 must be a finite, nonzero {m}x{n} matrix")
    p = min(KRYLOV_BASIS, size)
    Q = np.empty((p + 1, size))
    H = np.zeros((p + 1, p))
    # the start is allocated after the basis: in the other order, the
    # block-sparse workload's operator builds that follow a solve in the
    # same process ran up to 16% slower (5 of 6 runs; cause not traced)
    X = np.full((m, n), 1.0 / np.sqrt(size)) if X0 is None else X0 / nrm
    Y = op.apply_full(X)
    applies = 1
    thick = explicit = 0
    breakdown = False
    # whether the last cycle left a residual vector Q[p] to carry; the
    # lowest residual so far and the checks since it fell
    carry = False
    best, stall = math.inf, 0
    stop = "budget"
    while True:
        lam, res = rayleigh(op, X, Y)
        _check_finite(lam, "Krylov restart")
        if res <= tol:
            stop = "converged"
            break
        left = max_iters - applies
        if left < 2:
            break
        if res < best:
            best, stall = res, 0
        else:
            stall += 1
        if carry and stall < KRYLOV_PATIENCE:
            Z = _thick_basis(theta, S)
            k = Z.shape[1]
            T = Z.T @ H[:p, :p] @ Z
            b = H[p, :p] @ Z
            H.fill(0.0)
            H[:k, :k] = T
            H[k, :k] = b
            Q[:k] = Z.T @ Q[:p]
            Q[k] = Q[p]
            j = k
            w = op.apply_full(Q[k].reshape(m, n)).ravel()
            applies += 1
            end = min(p, k + left - 1)
            thick += 1
        else:
            stall = 0
            H.fill(0.0)
            Q[0] = X.ravel()
            w = Y.ravel()
            j = 0
            end = min(p, left)
            explicit += 1
        carry = False
        while True:
            # two-pass classical Gram-Schmidt against the basis so far
            wnorm = float(np.linalg.norm(w))
            h = Q[:j + 1] @ w
            w = w - h @ Q[:j + 1]
            h2 = Q[:j + 1] @ w
            w -= h2 @ Q[:j + 1]
            H[:j + 1, j] = h + h2
            j += 1
            # a cycle cut short by the budget is the last one and needs
            # no residual vector
            if j == end < p:
                break
            beta = float(np.linalg.norm(w))
            if beta <= 1e-14 * wnorm:
                breakdown = True
                break
            H[j, j - 1] = beta
            Q[j] = w / beta
            if j == p:
                # a basis of the whole space has no residual to carry
                carry = p < size
                break
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
    return _report("krylov", op, X, t0, applies, stop, {
        "basis": p, "restarts": thick + explicit, "thick_restarts": thick,
        "explicit_restarts": explicit, "breakdown": breakdown}, Y=Y)


def _start(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """rneg's stacked start ``[U; V]``, balanced by exact powers of two.

    Each column pair goes to ``(u 2^-d, v 2^d)``, ``d = (eu - ev) // 2``
    for the ``frexp`` exponents of its largest entries: the same product
    bit for bit (short of underflow), and the same pairs from any
    power-of-two gauge of them.  One more power of two, which
    :func:`_normalize` cancels, puts their largest entry in ``[0.5, 1)``;
    a column paired with a zero one goes there on its own.
    """
    mu, mv = U.max(axis=0), V.max(axis=0)
    eu, ev = np.frexp(mu)[1], np.frexp(mv)[1]
    d = (eu - ev) // 2
    live = (mu > 0) & (mv > 0)
    top = np.maximum(np.ldexp(mu, -d), np.ldexp(mv, d))[live]
    e = np.frexp(top.max(initial=0.0))[1]
    return np.concatenate((np.ldexp(U, np.where(live, -d - e, -eu)),
                           np.ldexp(V, np.where(live, d - e, -ev))))


def _normalize(W: np.ndarray,
               m: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Scale the stacked factors ``W = [U; V]`` in place so that ``U V^T``
    has unit Frobenius norm.  Returns the Grams ``(U^T U, V^T V)`` of the
    scaled factors, or None for a zero product.

    The norm comes from the Grams, ``||U V^T||^2 = <U^T U, V^T V>``,
    accurate for rneg's balanced start (:func:`_start`) and for its trial
    steps, which would have to shrink a unit product below ``2^-450``.
    """
    U, V = W[:m], W[m:]
    GU, GV = U.T.dot(U), V.T.dot(V)
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
    np.subtract(FV, U.dot(lam * GV), out=G[:m])
    np.subtract(FtU, V.dot(lam * GU), out=G[m:])
    P = project_feasible_direction(W, G)
    return P, _norm(P)


def _norm(a: np.ndarray) -> float:
    """Frobenius norm of a C-contiguous array; the value of
    ``np.linalg.norm`` without its dispatch cost."""
    return math.sqrt(np.vdot(a, a))


# an entry whose crossing ratio is within this relative distance of the
# step lands exactly on the boundary
CLAMP_SLACK = 1e-12
# the relative margin of the no-crossing certificate; rneg_solve gives its
# rounding argument
CERT_MARGIN = 4e-12
# the certificate's terms are scaled by 2**52, which lifts the smallest
# positive factor entry, 2**-1074, to the smallest normal number, 2**-1022
_CERT_SCALE = 2.0 ** 52
_SMALLEST_NORMAL = np.finfo(float).tiny


def _cannot_cross(W: np.ndarray, P: np.ndarray, h: float) -> bool:
    """Whether no positive entry of ``W >= 0`` crosses zero along the
    feasible direction ``P`` within ``h (1 + CLAMP_SLACK)``, certified by
    ``W + c P >= 0`` at ``c = h (1 + CERT_MARGIN)``, both terms scaled by
    ``_CERT_SCALE``.  False for a step below the smallest normal number."""
    if not h >= _SMALLEST_NORMAL:
        return False
    T = P * (h * (_CERT_SCALE * (1.0 + CERT_MARGIN)))
    T += W * _CERT_SCALE
    # a NaN entry (a NaN input, or inf - inf) makes the minimum NaN, which
    # fails the test
    return bool(np.minimum.reduce(T, axis=None) >= 0.0)


def _crossing_ratios(W: np.ndarray, P: np.ndarray, out: np.ndarray) -> float:
    """Fill ``out`` with the step at which each entry of ``W`` reaches zero
    along ``P`` (infinite where ``P >= 0``) and return the smallest.  Only
    entries pushed downward constrain the step, and for a feasible ``P``
    those are all positive: at a zero entry the feasible projection
    clipped the direction at zero."""
    out.fill(np.inf)
    np.divide(W, -P, out=out, where=P < 0)
    return float(np.minimum.reduce(out, axis=None))


def _trial_step(W: np.ndarray, P: np.ndarray, h: float,
                ratio: np.ndarray | None = None) -> np.ndarray:
    """The trial factors ``max(W + h P, 0)``.  Given the crossing ratios
    of :func:`_crossing_ratios`, the entries whose crossing is within
    ``h (1 + CLAMP_SLACK)`` land exactly on the boundary: roundoff
    residues there would otherwise shrink the next admissible step to
    nothing."""
    Wt = P * h
    Wt += W
    np.maximum(Wt, 0.0, out=Wt)
    if ratio is not None:
        np.copyto(Wt, 0.0, where=ratio <= h * (1.0 + CLAMP_SLACK))
    return Wt


# step control of rneg_solve; its docstring says what each constant does
BETA_REJ = 0.5
BETA_ACC = 1.1
ACCEPT_SLACK = 1.05
MAX_REJECTS = 40
CEIL_FRACTION = 0.95


def rneg_solve(op: LinearMatrixOperator, rank: int, h0: float | None = None,
               tol: float = 1e-8, nmax: int = 50_000, seed: int = 0,
               init: FactorPair | None = None) -> EigenReport:
    """Nonnegative rank-``rank`` eigenpair by explicit integration of the
    sign-constrained eigenvalue flow on the factors (RNeg).

    The iterate is ``X = U @ V.T`` with entrywise-nonnegative factors on
    the unit Frobenius sphere.  The start (``init`` or cold) is balanced
    first by :func:`_start`: the flow keeps the imbalance ``U^T U - V^T V``
    of its factors (Du, Hu & Lee, NeurIPS 2018), and an unbalanced gauge
    ``(U D, V / D)`` of the same ``X`` stalled or ran out its budget.  A
    power-of-two ``D`` gives a bit-identical report; one-hot warm starts,
    and cold ones whose column maxima lie in ``[0.5, 1)``, solve as
    before.  Each step pushes both factors along the
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
    operator's default step ``STEP_FRACTION / s``).  On acceptance the
    step grows by ``BETA_ACC`` up to a ceiling learned from rejections: it
    starts at ``CEIL_FRACTION`` of the explicit stability bound ``2 / s``
    of the operator's reach ``s``, read as
    ``op.default_step() * 2 / STEP_FRACTION`` (so 1.9 on a probabilistic
    grid, infinite for the zero operator), and every rejected trial of
    size ``h_use`` lowers it to ``h_use / BETA_ACC``.  The ceiling only
    falls, so the step settles below the largest size the operator lets
    pass the acceptance test and never reaches the bound: the acceptance
    test alone let an accepted step past the bound lower the eigenvalue
    of a self-adjoint grid.  The ceiling starts strictly inside the bound
    because explicit Euler on the bound, ``|1 - h s| = 1``, does not damp
    a mode at ``-s``: with no trial rejected, a cold separable-growth
    solve (n=100, rank 3, seed 800) parked there and ended its 50,000
    steps at eigenvalue error 1.0e-2, against 1.1e-6 from 0.95 of the
    bound.  The backtracking baseline is the norm at the previous
    accepted step, so the first trial step always passes.

    The projected-gradient norms are not monotone along the flow, so a
    norm-decreasing step size need not exist; insisting on one deadlocks
    the search wherever the trajectory climbs.  ``ACCEPT_SLACK`` gives the
    test multiplicative headroom: a trial passes when the joint norm grows
    by no more than that factor over the baseline.  The flow's own
    per-step growth is ``1 + O(h)``, so some step size always passes,
    while the compounding jumps of an unstable explicit step still get
    rejected.  ``MAX_REJECTS`` bounds the halvings per step as a final
    safety; the smallest trial is then taken anyway.

    The crossing cap is the smallest per-entry crossing ratio ``w / p``,
    over the positive entries ``w`` of ``W = [U; V]`` whose direction
    ``-p`` is negative (:func:`_crossing_ratios`), and entries whose ratio
    is within ``h (1 + CLAMP_SLACK)`` land exactly on zero
    (:func:`_trial_step`).  Most trial steps cannot reach the boundary,
    and for those the ratios change nothing, so each trial first tests
    a certificate (:func:`_cannot_cross`): ``W + c P >= 0`` at
    ``c = h (1 + CERT_MARGIN)``, evaluated in floating point with both
    terms scaled by ``2^52``.  When it holds, the step is
    ``max(W + h P, 0)``, bit for bit what the ratio path gives.  Otherwise
    the ratios are computed, once per accepted step and kept across its
    rejected trials.  The rounding argument, with ``u = 2^-53``:

    * a rounded sum has the sign of the exact sum, so the test passes
      exactly when ``w s >= fl(c p s)`` for every entry, ``s = 2^52``;
    * ``w s`` is exact, and at least ``2^-1022`` for ``w > 0``.  If
      ``c p s`` is normal, ``fl(c p s) >= c p s (1 - u)``, and with the
      rounding of ``c`` itself ``w / p >= h (1 + 4e-12)(1 - u)^3``.  If it
      is subnormal, it is below ``w s``, so ``w > c p`` outright;
    * the step is at least the smallest normal number (smaller steps take
      the ratio path), so ``w / p`` and ``h (1 + 1e-12)`` are normal, the
      rounded ratio is at least ``h (1 + 3.9e-12)`` and the rounded clamp
      bound at most ``h (1 + 1.1e-12)``.  No ratio reaches the bound:
      the cap is not below ``h`` and nothing is clamped.

    Subnormal entries are covered by the scaling.  Without it they are
    not: at ``w = 2^-1074``, ``p = 2^-1073`` and ``h = 0.7``, ``fl(c p)``
    rounds to ``w`` and the unscaled test passes, yet the crossing ratio
    is 0.5.  A NaN (also from ``inf - inf`` on overflow) fails the test
    and takes the ratio path.  In the three cold 5,000-step solves of
    Hadamard growth at n=100, rank 3 (seeds 0-2), 11,233 of 15,001 trial
    steps passed the test; on the shipped grid and separable-growth
    configs every trial step did.

    Termination is on stationarity: the run stops at the first accepted
    step not shortened by the crossing cap whose joint projected-gradient
    norm ``g``, the number the acceptance test reads, is at most
    ``tol / op.default_step()``.  That is the norm at which one default
    step moves the factors by about ``tol``; it does not depend on ``h0``,
    which only seeds the step.  ``nmax`` accepted steps at most.  A step
    size that underflows ``1e-16`` stops the run with ``converged=False``.
    ``details`` carries ``stop`` (``"converged"``, ``"budget"`` or
    ``"stalled"``), the resolved ``h0``, the final joint norm ``grad``,
    the count of ``rejected`` trials, the count of accepted steps that the
    crossing cap shortened, ``capped`` (those where entries landed on the
    boundary), and the range ``h_min``/``h_max`` of the accepted step
    sizes.
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
    W = _start(U, V)
    grams = _normalize(W, m)
    if grams is None:
        raise ValueError("initial factors have zero product")

    # the projection through the narrow factor form, else of the
    # assembled image, resolved once
    form = _narrow_form(op, rank)
    if form is None:
        def projected(U, V):
            F = op.apply_factored(U, V)
            return F.dot(V), F.T.dot(U)
    else:
        projected = form.project
    P, g = _flow_data(projected, W, m, grams)
    # the stop threshold; a division, so a zero operator's infinite
    # default step gives 0, not NaN
    g_stop = tol / h_default
    ratio = np.empty(W.shape)
    h = h_init
    # strictly inside the explicit stability bound 2 / s of the operator's
    # reach s, read through its default step STEP_FRACTION / s
    h_ceil = CEIL_FRACTION * h_default * 2 / STEP_FRACTION
    h_floor = 1e-16
    h_min, h_max = np.inf, 0.0
    stop = "budget"
    accepted_steps = 0
    rejected = capped = 0

    while accepted_steps < nmax:
        # the crossing ratios of these factors, computed at most once, and
        # only for a trial step that may cross
        h_adm = None
        # backtracking loop: retake the trial step from the same factors
        # until the joint projected-gradient norm passes the acceptance
        # test, or the rejection budget runs out
        rejects = 0
        while True:
            if _cannot_cross(W, P, h):
                h_use = h
                Wt = _trial_step(W, P, h)
            else:
                if h_adm is None:
                    h_adm = _crossing_ratios(W, P, ratio)
                h_use = min(h, h_adm)
                Wt = _trial_step(W, P, h_use, ratio)
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
        # only a step the crossing cap did not shorten counts for the
        # termination test
        shortened = h_use < h
        capped += shortened
        settled = not shortened and g_t <= g_stop
        W, P, g = Wt, P_t, g_t
        h = min(h * BETA_ACC, h_ceil)
        if settled:
            stop = "converged"
            break

    U, V = W[:m], W[m:]
    return _report("rneg", op, U @ V.T, t0, accepted_steps, stop, {
        "h0": h_init, "grad": g, "rejected": rejected, "capped": capped,
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


def _step_distance(US0, S0, V0, US1, V1, thr: float = math.inf) -> float:
    """``||X1 - X0||_F`` for ``Xi = Ui Si Vi^T`` with orthonormal ``Ui``,
    ``Vi``, from ``USi = Ui Si``, ``S0``, ``V0`` and ``V1`` in
    ``O((m + n) r^2)``, without forming either product; or infinity once
    it is known to exceed ``thr``.

    Splitting ``X1 - X0`` along ``span(V1)`` and its complement gives two
    orthogonal parts; with ``B = V0^T V1`` their norms are
    ``a = ||U1 S1 - U0 S0 B||_F`` and ``||(V0 - V1 B^T) S0^T||_F``, the
    latter because ``U0`` is orthonormal.  When ``a > thr`` the second
    part is not computed: the distance is ``sqrt(fl(a^2 + b^2))`` and
    ``fl(a^2 + b^2) >= a^2`` for ``b^2 >= 0``, so a test ``distance <=
    thr`` decides the same either way.
    """
    B = V0.T.dot(V1)
    inner = US1 - US0.dot(B)
    a2 = np.vdot(inner, inner)
    if math.sqrt(a2) > thr:
        return math.inf
    outer = (V0 - V1.dot(B.T)).dot(S0.T)
    return math.sqrt(a2 + np.vdot(outer, outer))


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
    through ``op.apply_full`` as every solver's report does.  The stop test
    passes its threshold ``tol * h`` to the distance, which returns as soon
    as the first of its two parts exceeds it; on Hadamard growth that part
    decides every step.  A step costs two lifts (or three assembled images)
    plus ``O((m + n) r^2)`` dense algebra, which includes two QRs.  Those
    call numpy's LAPACK kernels through :func:`~nneig.matcore._qr`, with
    the factors of ``np.linalg.qr`` bit for bit: that wrapper costs two to
    three times the kernels on inputs this small, and through it the two
    QRs were the largest item of a step.  On Hadamard growth at n=100,
    rank 3, warm started from the reference, a step took 93-116 us over
    fifteen 2,000-step solves, against 117-151 us with ``@`` products and
    the whole stop distance every step (2 cores, one BLAS thread).  A warm
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

    # each substep's image at its iterate X, projected onto the factors
    form = _narrow_form(op, rank)
    if form is None:
        def k_image(U, S, V, US):  # F V at X = U S V^T, US = U S
            return op.apply_factored(US, V).dot(V)

        def s_image(U1, S, V):  # U1^T F V at X = U1 S V^T
            return U1.T.dot(k_image(U1, S, V, U1.dot(S)))

        def l_image(U1, S, V, VS):  # F^T U1 at X = U1 S V^T, VS = V S^T
            return op.apply_factored(U1, VS).T.dot(U1)
    else:
        K = form.blocks
        left, right = _last(form.left), _last(form.right)
        D = _last(lambda V: right(V).T.dot(V))
        E = _last(lambda U: U.T.dot(left(U)))

        def bd(M, B):  # M applied to each of the K row blocks of B
            return (M @ B.reshape(K, rank, -1)).reshape(B.shape)

        def k_image(U, S, V, US):
            return left(U).dot(bd(S, D(V)))

        def s_image(U1, S, V):
            return E(U1).dot(bd(S, D(V)))

        def l_image(U1, S, V, VS):
            return right(V).dot(bd(S.T, E(U1).T))

    # the substeps' QR runs without thin_qr's validation and sign
    # convention: a column sign flip of a Q is exact in floating point and
    # absorbed by the core, so the iterate X is the same bit for bit
    US = U.dot(S)
    thr = tol * step
    stop = "budget"
    for k in range(1, max_steps + 1):
        # each substep's Rayleigh value <A(X), X> from its projected image
        # K-step
        FV = k_image(U, S, V, US)
        rho = float(np.vdot(FV, US))
        _check_finite(rho, "splitting iterate")
        U1, S_hat = _qr(US + step * (FV - rho * US))
        # S-step (backward)
        UtFV = s_image(U1, S_hat, V)
        rho = float(np.vdot(UtFV, S_hat))
        _check_finite(rho, "splitting iterate")
        S_tilde = S_hat - step * (UtFV - rho * S_hat)
        # L-step, at X = U1 (V S_tilde^T)^T
        VS = V.dot(S_tilde.T)
        FtU = l_image(U1, S_tilde, V, VS)
        rho = float(np.vdot(FtU, VS))
        _check_finite(rho, "splitting iterate")
        V1, S1t = _qr(VS + step * (FtU - rho * VS))
        s_nrm = _norm(S1t)
        if s_nrm == 0.0 or not math.isfinite(s_nrm):
            raise SolverError("splitting core vanished or blew up")
        S1 = S1t.T / s_nrm
        US1 = U1.dot(S1)
        delta = _step_distance(US, S, V, US1, V1, thr)
        U, S, V, US = U1, S1, V1, US1
        if delta <= thr:
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
