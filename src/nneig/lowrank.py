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
    sweeps that produced them, and why the sweeps ended: ``stop`` is
    ``"stationary"`` when the stop test fired (or the input is zero) and
    ``"budget"`` when the sweep budget ran out first."""

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


def _stationary(M: np.ndarray, W: np.ndarray, H: np.ndarray,
                gW: np.ndarray, gH: np.ndarray) -> bool:
    """``nmf``'s stop test at ``(W, H)`` with gradients ``gW``, ``gH``.

    ``||R||`` is taken from ``W H - M`` itself: the Gram identity loses it
    to cancellation below about 1e-8 ``||M||`` and would stop exact fits
    early.
    """
    pg = 0.0
    for X, G in ((W, gW), (H, gH)):
        # a zero factor entry keeps only the negative part of its gradient
        P = np.where(X > 0.0, G, np.minimum(G, 0.0))
        pg += float(np.vdot(P, P))
    return np.sqrt(pg) <= (NMF_STATIONARITY_TOL
                           * np.linalg.norm(W.dot(H) - M)
                           * (np.linalg.norm(W) + np.linalg.norm(H)))


def nmf(M, r: int, n_iters: int = 500, seed: int = 0) -> NMFResult:
    """Nonnegative matrix factorization ``M ~ W @ H`` by HALS updates.

    Hierarchical alternating least squares: each column of ``W`` (and each
    row of ``H``) is updated in closed form to the exact minimizer of the
    quadratic objective with the other entries held fixed, followed by
    clipping at zero.  Every update solves its subproblem exactly, so the
    relative error is nonincreasing across sweeps.

    The sweeps end at the first full sweep where the fit is stationary
    relative to its own residual.  With ``R = W H - M`` the gradients are
    ``R H^T`` and ``W^T R``; projected onto the feasible directions (an
    entry counts in full where its factor entry is positive, and only by
    its negative part where it is zero) their joint norm must satisfy
    ``||P grad||_F <= tau ||R||_F (||W||_F + ||H||_F)`` with
    ``tau = NMF_STATIONARITY_TOL = 1e-4``.  The right side bounds the
    unprojected gradient, so the ratio lies in [0, 1] whatever the scale
    of ``M``.  Scaling by the residual rather than by the initial
    gradient keeps exact fits going: on an exactly factorable ``M`` the
    gradient shrinks with ``R``, and the stop fires only at the roundoff
    floor, while a fit with a nonzero optimal residual stops once its
    gradient vanishes.

    Parameters
    ----------
    M : array_like, shape (m, n)
        Entrywise-nonnegative matrix to factorize.
    r : int
        Number of factor columns.
    n_iters : int
        Budget of full (W, H) sweeps, at least 1.
    seed : int
        Seed for the uniform random initialization.  The initial factors
        are scaled so that ``||W @ H||_F`` matches ``||M||_F``.

    Returns
    -------
    NMFResult
        Factors ``W`` (m x r), ``H`` (r x n), both entrywise nonnegative,
        with the sweep count and the stop reason.

    Notes
    -----
    A factor column whose Gram diagonal underflows is left unchanged by
    that sweep, which keeps the error monotone in exact arithmetic.  The
    zero matrix factors to zero with error zero.  A run with budget ``k``
    is a prefix of any longer run with the same seed.
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
    tiny = np.finfo(float).tiny
    sweeps, stop = n_iters, "budget"
    for sweep in range(n_iters):
        HHt = H.dot(H.T)
        MHt = M.dot(H.T)
        # the gradients at the current (W, H) reuse this sweep's HHt, MHt
        # and the last sweep's WtW, WtM
        if sweep and _stationary(M, W, H, W.dot(HHt) - MHt,
                                 WtW.dot(H) - WtM):
            sweeps, stop = sweep, "stationary"
            break
        for j in range(r):
            d = HHt[j, j]
            if d > tiny:
                W[:, j] = np.maximum(
                    W[:, j] + (MHt[:, j] - W.dot(HHt[:, j])) / d, 0.0)
        WtW = W.T.dot(W)
        WtM = W.T.dot(M)
        for j in range(r):
            d = WtW[j, j]
            if d > tiny:
                H[j, :] = np.maximum(
                    H[j, :] + (WtM[j, :] - WtW[j, :].dot(H)) / d, 0.0)
    return NMFResult(W, H, sweeps, stop)


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
