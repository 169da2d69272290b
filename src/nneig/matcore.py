"""Dense-matrix primitives shared by the eigenpair solvers.

Everything here operates on plain float64 numpy arrays.  The feasible
projection encodes the sign constraints of the nonnegative integrator:
entries that are exactly zero in the current iterate may only move in the
nonnegative direction, entries that are strictly positive are
unconstrained.  Zero patterns are therefore always tested with an exact
``== 0`` comparison; the solvers produce exact zeros by clamping, so no
tolerance is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "FactorPair",
    "as_matrix",
    "frobenius_inner",
    "project_feasible_direction",
    "thin_qr",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert ``a`` to a 2-D float64 array.

    Parameters
    ----------
    a : array_like
        Input data, anything ``np.asarray`` accepts.
    name : str
        Label used in error messages.

    Returns
    -------
    numpy.ndarray
        A 2-D float64 array.  A copy is made only when conversion requires
        it.

    Raises
    ------
    ValueError
        If the input is not 2-dimensional or contains NaN/Inf entries.
    """
    M = np.asarray(a, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={M.ndim}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


def frobenius_inner(A: np.ndarray, B: np.ndarray) -> float:
    """Frobenius inner product ``<A, B> = sum_ij A_ij B_ij``.

    Parameters
    ----------
    A, B : numpy.ndarray
        Matrices of identical shape.

    Returns
    -------
    float
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    return float(np.sum(A * B))


def project_feasible_direction(W: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Project a direction ``Z`` onto the directions feasible at ``W >= 0``.

    Entries where ``W`` is strictly positive pass through unchanged; entries
    where ``W`` is exactly zero are clipped to be nonnegative, so that a
    small step along the result never leaves the nonnegative orthant through
    an entry that is already at the boundary.

    Parameters
    ----------
    W : numpy.ndarray
        Nonnegative base point.
    Z : numpy.ndarray
        Direction to project, same shape as ``W``.

    Returns
    -------
    numpy.ndarray
    """
    W = np.asarray(W, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if W.shape != Z.shape:
        raise ValueError(f"shape mismatch: {W.shape} vs {Z.shape}")
    if W.min(initial=0.0) < 0:
        raise ValueError("base point must be entrywise nonnegative")
    return np.where(W > 0, Z, np.maximum(Z, 0.0))


@lru_cache(maxsize=32)
def _upper(k: int) -> np.ndarray:
    """Read-only mask of the upper triangle of a ``k x k`` matrix."""
    mask = np.arange(k)[:, None] <= np.arange(k)
    mask.flags.writeable = False
    return mask


def _qr(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.qr(M)`` for a 2-D float ``M`` with ``m >= k``, bit for
    bit, without its wrapper.

    Calls the two LAPACK kernels ``np.linalg.qr`` calls (``geqrf`` on a copy
    of ``M``, then ``orgqr``) and masks ``R`` out of the factored copy.  The
    wrapper's ``errstate`` context, its ``triu`` and its dtype handling cost
    two to three times the kernels on the small inputs the splitting
    integrator factors every step.  Nothing is validated: non-finite input
    gives non-finite factors, which the caller's own checks see, and the
    caller's error state applies.
    """
    a = np.array(M, dtype=float)  # geqrf overwrites its input
    tau = _umath_linalg.qr_r_raw(a, signature="d->d")
    Q = _umath_linalg.qr_reduced(a, tau, signature="dd->d")
    k = a.shape[1]
    return Q, np.where(_upper(k), a[:k], 0.0)


def thin_qr(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factorization with a nonnegative-diagonal sign convention.

    The Householder factorization of :func:`_qr` (that of
    ``np.linalg.qr``), with column signs flipped so that ``diag(R) >= 0``,
    which makes the factorization unique for full-rank input and
    deterministic in the rank-deficient case.

    Parameters
    ----------
    M : numpy.ndarray
        Matrix of shape ``(m, k)`` with ``m >= k``.

    Returns
    -------
    (Q, R) : tuple of numpy.ndarray
        ``Q`` has orthonormal columns (shape ``(m, k)``), ``R`` is upper
        triangular (shape ``(k, k)``) with nonnegative diagonal, and
        ``Q @ R`` reconstructs ``M``.

    Raises
    ------
    ValueError
        If ``M`` is not 2-D, is wider than tall, or has non-finite entries.
    """
    M = as_matrix(M, "QR input")
    m, k = M.shape
    if m < k:
        raise ValueError(f"thin QR requires m >= k, got shape {M.shape}")
    Q, R = _qr(M)
    d = np.where(R.diagonal() < 0, -1.0, 1.0)
    Q *= d
    R *= d[:, None]
    return Q, R


@dataclass
class FactorPair:
    """Nonnegative low-rank parametrization ``X = U @ V.T``.

    Attributes
    ----------
    U : numpy.ndarray
        Left factor, shape ``(m, r)``, entrywise nonnegative.
    V : numpy.ndarray
        Right factor, shape ``(n, r)``, entrywise nonnegative.
    """

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        self.U = as_matrix(self.U, "U")
        self.V = as_matrix(self.V, "V")
        if self.U.shape[1] != self.V.shape[1]:
            raise ValueError(
                f"factor rank mismatch: U has {self.U.shape[1]} columns, "
                f"V has {self.V.shape[1]}"
            )
        if self.U.shape[1] < 1:
            raise ValueError("factors must have at least one column")
        if np.any(self.U < 0) or np.any(self.V < 0):
            raise ValueError("factors must be entrywise nonnegative")

    @property
    def rank_bound(self) -> int:
        """Number of factor columns (an upper bound on rank(X))."""
        return self.U.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.U.shape[0], self.V.shape[0])
