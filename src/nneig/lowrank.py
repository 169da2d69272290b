"""Low-rank approximation baselines: truncated SVD and nonnegative factorization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import as_matrix, frobenius_inner

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
    """Factors of a nonnegative approximation ``W @ H``."""

    W: np.ndarray
    H: np.ndarray


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
    if not 1 <= r <= min(M.shape):
        raise ValueError(f"rank must lie in [1, {min(M.shape)}], got {r}")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return SVDTriple(U[:, :r].copy(), s[:r].copy(), Vt[:r].copy())


def nmf(M, r: int, n_iters: int = 500, seed: int = 0) -> NMFResult:
    """Nonnegative matrix factorization ``M ~ W @ H`` by HALS updates.

    Hierarchical alternating least squares: each column of ``W`` (and each
    row of ``H``) is updated in closed form to the exact minimizer of the
    quadratic objective with the other entries held fixed, followed by
    clipping at zero.  Every update solves its subproblem exactly, so the
    relative error is nonincreasing across sweeps.

    Parameters
    ----------
    M : array_like, shape (m, n)
        Entrywise-nonnegative matrix to factorize.
    r : int
        Number of factor columns.
    n_iters : int
        Number of full (W, H) sweeps.
    seed : int
        Seed for the uniform random initialization.  The initial factors
        are scaled so that ``||W @ H||_F`` matches ``||M||_F``.

    Returns
    -------
    NMFResult
        Factors ``W`` (m x r), ``H`` (r x n), both entrywise nonnegative.

    Notes
    -----
    A factor column whose Gram diagonal underflows is left unchanged by
    that sweep, which keeps the error monotone in exact arithmetic.  The
    zero matrix factors to zero with error zero.
    """
    M = as_matrix(M, "input")
    m, n = M.shape
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank must lie in [1, {min(m, n)}], got {r}")
    if np.any(M < 0):
        raise ValueError("input must be entrywise nonnegative")
    nrm = float(np.linalg.norm(M))
    if nrm == 0.0:
        return NMFResult(np.zeros((m, r)), np.zeros((r, n)))
    rng = np.random.default_rng(seed)
    W = rng.random((m, r))
    H = rng.random((r, n))
    scale = np.sqrt(nrm / np.linalg.norm(W @ H))
    W *= scale
    H *= scale
    tiny = np.finfo(float).tiny
    for _ in range(n_iters):
        HHt = H @ H.T
        MHt = M @ H.T
        for j in range(r):
            d = HHt[j, j]
            if d > tiny:
                W[:, j] = np.maximum(W[:, j] + (MHt[:, j] - W @ HHt[:, j]) / d,
                                     0.0)
        WtW = W.T @ W
        WtM = W.T @ M
        for j in range(r):
            d = WtW[j, j]
            if d > tiny:
                H[j, :] = np.maximum(H[j, :] + (WtM[j, :] - WtW[j, :] @ H) / d,
                                     0.0)
    return NMFResult(W, H)


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
