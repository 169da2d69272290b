"""Low-rank approximation baselines: truncated SVD and nonnegative factorization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import as_matrix, frobenius_inner
from .solvers import _check_budget, _check_rank

__all__ = ["SVDTriple", "NMFResult", "truncated_svd", "nmf", "best_scaled_error"]


@dataclass
class SVDTriple:
    """Rank-r factorization ``U @ diag(s) @ Vt`` with orthonormal factors."""

    U: np.ndarray
    s: np.ndarray
    Vt: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.s) @ self.Vt


@dataclass
class NMFResult:
    """Factors of a nonnegative approximation ``W @ H``, the number of full
    sweeps run (discarded ones included), and why the sweeps ended:
    ``stop`` is ``"floor"`` when the error reached the roundoff floor,
    ``"stationary"`` when the stationarity test fired (or the input is
    zero), ``"fixed_point"`` when every later sweep would repeat a
    discarded one and ``"budget"`` when the sweep budget ran out first."""

    W: np.ndarray
    H: np.ndarray
    sweeps: int
    stop: str


def truncated_svd(M, r: int) -> SVDTriple:
    """Best rank-r approximation factors of ``M`` in the Frobenius norm.

    Parameters
    ----------
    M : array_like, shape (m, n)
    r : int
        Target rank, ``1 <= r <= min(m, n)``.

    Returns
    -------
    SVDTriple
        Leading r singular triplets; singular values are nonincreasing and
        nonnegative.
    """
    M = as_matrix(M, "input")
    _check_rank(r, min(M.shape))
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return SVDTriple(U[:, :r].copy(), s[:r].copy(), Vt[:r].copy())


# stationarity tolerance of the HALS stop, relative to the residual
NMF_STATIONARITY_TOL = 1e-4

# the roundoff-floor stop: ||W H - M||_F <= NMF_FLOOR_ULPS eps ||M||_F
NMF_FLOOR_ULPS = 64

# extrapolation of the HALS sweeps (Ang & Gillis 2019): the weight starts
# at NMF_BETA0, grows by NMF_BETA_GROW after an accepted sweep, up to a cap
# that starts at 1 and grows by NMF_CAP_GROW, and shrinks by NMF_BETA_SHRINK
# after a discarded one
NMF_BETA0 = 0.5
NMF_BETA_GROW = 1.01
NMF_CAP_GROW = 1.005
NMF_BETA_SHRINK = 1.5


def _stationary(W: np.ndarray, H: np.ndarray, gW: np.ndarray,
                gH: np.ndarray, err: float) -> bool:
    """``nmf``'s stop test at ``(W, H)`` with gradients ``gW``, ``gH`` and
    residual ``err = ||W H - M||_F``.

    ``err`` is taken from ``W H - M`` itself: the Gram identity loses it
    to cancellation below about 1e-8 ``||M||`` and would stop exact fits
    early.
    """
    pg = 0.0
    for X, G in ((W, gW), (H, gH)):
        # a zero factor entry keeps only the negative part of its gradient
        P = np.where(X > 0.0, G, np.minimum(G, 0.0))
        pg += float(np.vdot(P, P))
    return np.sqrt(pg) <= (NMF_STATIONARITY_TOL * err
                           * (np.linalg.norm(W) + np.linalg.norm(H)))


def _hals_rows(X: np.ndarray, G: np.ndarray, B: np.ndarray) -> None:
    """One HALS pass over the rows of ``X`` in place, for the objective
    ``||A X - M||_F^2`` with Gram ``G = A^T A`` and ``B = A^T M``.

    Row ``j`` moves to ``max(X_j + (B_j - G_j X) / G_jj, 0)``, the clipped
    exact minimizer with the other rows held, and later rows see it.  A
    row whose Gram diagonal underflows is left as it is.
    """
    tiny = np.finfo(float).tiny
    for j, d in enumerate(G.diagonal().tolist()):
        if d > tiny:
            x = X[j]
            x += (B[j] - G[j].dot(X)) / d
            np.maximum(x, 0.0, out=x)


def nmf(M, r: int, n_iters: int = 500, seed: int = 0) -> NMFResult:
    """Nonnegative matrix factorization ``M ~ W @ H`` by extrapolated HALS.

    Hierarchical alternating least squares: each column of ``W`` (and each
    row of ``H``) is updated in closed form to the exact minimizer of the
    quadratic objective with the other entries held fixed, followed by
    clipping at zero.  The sweeps are extrapolated and restarted as in
    Ang & Gillis, "Accelerating nonnegative matrix factorization
    algorithms using extrapolation", Neural Computation 31(2), 2019.
    Each sweep updates the columns of ``W`` from the extrapolated pair
    ``(W^, H^)``, then the rows of ``H`` from ``H^`` against the new
    ``W``.  A sweep whose error ``||W H - M||_F`` is not above the last
    accepted one is accepted, and the next extrapolated pair is
    ``W^ = max(W_new + beta (W_new - W), 0)`` and likewise ``H^``, where
    ``(W, H)`` is the pair it replaces; ``beta`` then grows by
    ``NMF_BETA_GROW`` up to a cap that grows by ``NMF_CAP_GROW``.  A sweep
    whose error rises is discarded: the next one restarts from the
    accepted pair, with ``beta`` divided by ``NMF_BETA_SHRINK``.  ``beta``
    starts at ``NMF_BETA0``.  Only accepted pairs are returned, so the
    error never rises from one sweep to the next.

    Before each sweep that follows an accepted one, two stop tests run on
    the accepted pair.  ``stop`` is ``"floor"`` once the error is at the
    roundoff floor, ``||R||_F <= NMF_FLOOR_ULPS eps ||M||_F`` with
    ``R = W H - M``.  It is ``"stationary"`` once the fit is stationary
    relative to its own residual: the gradients ``R H^T`` and ``W^T R``,
    projected onto the feasible directions (an entry counts in full where
    its factor entry is positive, and only by its negative part where it
    is zero), must satisfy
    ``||P grad||_F <= tau ||R||_F (||W||_F + ||H||_F)`` with
    ``tau = NMF_STATIONARITY_TOL = 1e-4``.  The right side bounds the
    unprojected gradient, so the ratio lies in [0, 1] whatever the scale
    of ``M``.  Scaling by the residual rather than by the initial
    gradient keeps exact fits going: on an exactly factorable ``M`` the
    gradient shrinks with ``R`` and cannot pass the test below its own
    roundoff, which is what the floor test is for, while a fit with a
    nonzero optimal residual stops once its gradient vanishes.  The first
    sweep, and each after a discard, starts from the accepted pair itself;
    discarded too, it would repeat bit for bit, so ``stop`` is then
    ``"fixed_point"``, with the factors of any longer budget.  ``stop``
    is ``"budget"`` when the sweep budget ran out first.

    Parameters
    ----------
    M : array_like, shape (m, n)
        Entrywise-nonnegative matrix to factorize.
    r : int
        Number of factor columns.
    n_iters : int
        Budget of full (W, H) sweeps, at least 1.  Discarded sweeps count.
    seed : int
        Seed for the uniform random initialization.  The initial factors
        are scaled so that ``||W @ H||_F`` matches ``||M||_F``.

    Returns
    -------
    NMFResult
        Factors ``W`` (m x r), ``H`` (r x n), both entrywise nonnegative,
        with the number of sweeps run, discarded ones included, and the
        stop reason.

    Notes
    -----
    ``W`` is held transposed during the sweeps, so its column updates, like
    the row updates of ``H``, write contiguous rows.  A factor column whose
    Gram diagonal underflows is left unchanged by that sweep.  The zero
    matrix factors to zero with error zero.  A run with budget ``k`` is a
    prefix of any longer run with the same seed, so
    ``nmf(M, r, n_iters=res.sweeps)`` ends on ``"budget"`` with the
    factors of ``res``.
    """
    M = as_matrix(M, "input")
    m, n = M.shape
    _check_rank(r, min(m, n))
    _check_budget(n_iters, "n_iters")
    if np.any(M < 0):
        raise ValueError("input must be entrywise nonnegative")
    nrm = float(np.linalg.norm(M))
    if nrm == 0.0:
        return NMFResult(np.zeros((m, r)), np.zeros((r, n)), 0, "stationary")
    rng = np.random.default_rng(seed)
    W = rng.random((m, r))
    H = rng.random((r, n))
    scale = np.sqrt(nrm / np.linalg.norm(W @ H))
    W *= scale
    H *= scale
    # W is held transposed, so both factors update contiguous rows
    W = np.ascontiguousarray(W.T)
    Mt = M.T
    err = float(np.linalg.norm(W.T.dot(H) - M))
    floor = NMF_FLOOR_ULPS * np.finfo(float).eps * nrm
    beta, cap = NMF_BETA0, 1.0
    # the extrapolated pair the next sweep starts from and updates in place
    We, He = W.copy(), H.copy()
    # discarded sweeps in a row, from 1: the first sweep starts from the
    # initial pair as one after a discard does from the accepted pair
    discards = 1
    sweeps, stop = n_iters, "budget"
    for sweep in range(n_iters):
        # the stop tests see the accepted pair, which a discarded sweep
        # leaves as it was tested.  The gradient in H reuses WWt and WM,
        # which the last accepted sweep took at its W
        if not discards:
            if err <= floor:
                sweeps, stop = sweep, "floor"
                break
            if _stationary(W, H, H.dot(H.T).dot(W) - H.dot(Mt),
                           WWt.dot(H) - WM, err):
                sweeps, stop = sweep, "stationary"
                break
        elif discards == 2:
            sweeps, stop = sweep, "fixed_point"
            break
        _hals_rows(We, He.dot(He.T), He.dot(Mt))
        WWt = We.dot(We.T)
        WM = We.dot(M)
        _hals_rows(He, WWt, WM)
        err_new = float(np.linalg.norm(We.T.dot(He) - M))
        if err_new <= err:
            W, We = We, np.maximum(We + beta * (We - W), 0.0)
            H, He = He, np.maximum(He + beta * (He - H), 0.0)
            err = err_new
            beta = min(cap, beta * NMF_BETA_GROW)
            cap *= NMF_CAP_GROW
            discards = 0
        else:
            We, He = W.copy(), H.copy()
            beta /= NMF_BETA_SHRINK
            discards += 1
    return NMFResult(np.ascontiguousarray(W.T), H, sweeps, stop)


def best_scaled_error(X, Xstar) -> float:
    """Scale-minimized relative error ``min_a ||a X - Xstar||_F / ||Xstar||_F``.

    The optimal scale has the closed form ``a* = <X, Xstar> / <X, X>``;
    the error is invariant to nonzero rescaling of ``X``.
    """
    X = as_matrix(X, "X")
    Xstar = as_matrix(Xstar, "Xstar")
    if X.shape != Xstar.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {Xstar.shape}")
    xx = frobenius_inner(X, X)
    if xx == 0.0:
        raise ValueError("X must be nonzero")
    ref = float(np.linalg.norm(Xstar))
    if ref == 0.0:
        raise ValueError("Xstar must be nonzero")
    alpha = frobenius_inner(X, Xstar) / xx
    return float(np.linalg.norm(alpha * X - Xstar)) / ref
