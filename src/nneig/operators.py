"""Matrix-valued linear operators and their factored evaluations.

Two operator classes are provided:

* :class:`MarkovGridOperator` -- weighted sums of two-sided transition maps
  ``X -> sum_p w_p A_p^T X B_p`` built from row-stochastic (or more generally
  nonnegative) matrix pairs;
* growth-diffusion operators ``X -> eps (A X + X A^T) + g (G o X)``:
  diffusion plus an entrywise growth rate.  Two families parametrize them:
  :class:`HadamardGrowthOperator`, ``eps (A X + X A^T) + eps_r (R o X)``,
  and :class:`SeparableGrowthOperator`,
  ``eps (A X + X A^T) + r0 X + eps_r diag(phi) X diag(psi)``, which is the
  same form at the rank-two rate ``G = r0 + eps_r phi psi^T``.

Each operator evaluates either on a dense matrix (``apply_full``) or directly
on a low-rank factor pair (``apply_factored``), where the input product
``U @ V.T`` is never formed except for the entrywise growth term.  An
operator may also expose a :class:`FactorForm`, column maps with
``A(U V^T) = left(U) @ right(V).T``: a grid whose terms are all dense has
one, ``sum_p (w_p A_p^T U)(B_p^T V)^T``, and so does a growth-diffusion
operator whenever its growth rate ``G`` has low numerical rank, since
``(a b^T) o (U V^T) = (a o U)(b o V)^T`` column by column.  Operators only
compute; whether a solve lifts through the form or assembles the image is
decided in :mod:`nneig.solvers`.
"""

from __future__ import annotations

import json
import math
from typing import Callable, NamedTuple

import numpy as np

from .matcore import as_matrix

__all__ = [
    "FactorForm",
    "LinearMatrixOperator",
    "MarkovGridOperator",
    "HadamardGrowthOperator",
    "SeparableGrowthOperator",
    "neumann_laplacian",
    "grid_points",
    "vectorize_operator",
    "operator_to_dict",
    "operator_from_dict",
    "save_operator",
    "load_operator",
]


class FactorForm(NamedTuple):
    """Column maps of an operator image in low-rank form,
    ``A(U V^T) = left(U) @ right(V).T``.

    Each map returns ``blocks`` blocks of its argument's width side by
    side, and is linear in the columns of its argument:
    ``left(U @ M) = left(U) @ kron(I_blocks, M)``, and likewise ``right``.
    """

    blocks: int
    left: Callable[[np.ndarray], np.ndarray]
    right: Callable[[np.ndarray], np.ndarray]

    def project(self, U: np.ndarray,
                V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(F @ V, F.T @ U)`` for ``F = A(U V^T)``, never forming ``F``."""
        P, Q = self.left(U), self.right(V)
        return P @ (Q.T @ V), Q @ (P.T @ U)


class LinearMatrixOperator:
    """Common interface for the operator families.

    Subclasses set ``shape``, the shape of matrices the operator acts on.
    """

    shape: tuple[int, int]
    kind: str

    def apply_full(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_factored(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def factor_form(self) -> FactorForm | None:
        """The operator's :class:`FactorForm`, built once per operator, or
        None (the default) when its image has none."""
        return None

    def default_step(self) -> float:
        """Default integrator step size for this operator."""
        raise NotImplementedError

    def default_shift(self) -> float:
        """Spectral shift making ``A + shift*I`` nonnegativity-preserving."""
        raise NotImplementedError


class MarkovGridOperator(LinearMatrixOperator):
    """Weighted sum of two-sided transition maps.

    The action on an ``m x n`` matrix is ``sum_p w_p A_p^T X B_p`` with
    ``A_p`` of size ``m x m`` and ``B_p`` of size ``n x n``.  When every
    ``A_p``/``B_p`` is row stochastic and the weights lie on the unit
    simplex, the operator conserves total mass ``sum_ij X_ij`` and its
    rightmost eigenvalue is 1.  The constructor only enforces structural
    validity (shapes, finiteness); probabilistic validity is checked
    separately by :func:`nneig.markovgrid.validate_grid` so that defective
    grids can still be constructed and reported on.

    Parameters
    ----------
    terms : sequence of (weight, A, B) triples
    """

    kind = "markov-grid"

    def __init__(self, terms):
        if not terms:
            raise ValueError("at least one term is required")
        parsed = []
        m = n = None
        for k, (w, A, B) in enumerate(terms):
            A = as_matrix(A, f"term {k}: A")
            B = as_matrix(B, f"term {k}: B")
            if A.shape[0] != A.shape[1] or B.shape[0] != B.shape[1]:
                raise ValueError(f"term {k}: factors must be square")
            if m is None:
                m, n = A.shape[0], B.shape[0]
            elif A.shape[0] != m or B.shape[0] != n:
                raise ValueError(f"term {k}: inconsistent sizes")
            w = float(w)
            if not np.isfinite(w):
                raise ValueError(f"term {k}: non-finite weight")
            parsed.append((w, A, B))
        self.terms = parsed
        self.shape = (m, n)
        self._split_terms()

    def _split_terms(self) -> None:
        # Evaluation plan.  A term with dense factors runs as two GEMMs on
        # the stacked blocks; a term whose pair is sparse enough (block
        # grids carry one near-empty term per block) is folded into the
        # nonzeros of one Kronecker matrix applied to the vectorized input.
        # The cutoff compares the Kronecker nonzero count against the GEMM
        # flop count with a 16x margin, since a gathered and scattered
        # nonzero costs many GEMM flops.
        m, n = self.shape
        dense, sparse_terms = [], []
        for w, A, B in self.terms:
            nnz = np.count_nonzero(A) * np.count_nonzero(B)
            if nnz * 16 <= m * n * (m + n):
                sparse_terms.append((w, A, B))
            else:
                dense.append((w, A, B))
        self._dense_wAt = (np.stack([w * A.T for w, A, _ in dense])
                           if dense else None)
        self._dense_Bt = (np.stack([B.T.copy() for _, _, B in dense])
                          if dense else None)
        self._dense_Bv = (np.concatenate([B for _, _, B in dense], axis=0)
                          if dense else None)
        # only an all-dense grid has a factor form: folded sparse terms act
        # on the assembled product
        self._form = (FactorForm(len(dense), self._lift_left, self._lift_right)
                      if not sparse_terms else None)
        self._fold = None
        if sparse_terms:
            # column-major vec: vec(A^T X B) = (B^T kron A^T) vec(X).  The
            # fold keeps the nonzeros of sum_p w_p (B_p^T kron A_p^T) as
            # (row, col, value) sorted by position, a repeated position
            # summed in term order
            mn = m * n
            keys, vals = [], []
            for w, A, B in sparse_terms:
                At, Bt = A.T, B.T
                ai, aj = np.nonzero(At)
                bi, bj = np.nonzero(Bt)
                keys.append(((bi[:, None] * m + ai) * mn
                             + bj[:, None] * m + aj).ravel())
                vals.append((w * (Bt[bi, bj][:, None] * At[ai, aj])).ravel())
            keys, at = np.unique(np.concatenate(keys), return_inverse=True)
            self._fold = (keys // mn, keys % mn,
                          np.bincount(at, weights=np.concatenate(vals)))

    def _lift_left(self, U: np.ndarray) -> np.ndarray:
        # [w_1 A_1^T U, .., w_K A_K^T U]
        return (self._dense_wAt @ U).transpose(1, 0, 2).reshape(
            self.shape[0], -1)

    def _lift_right(self, V: np.ndarray) -> np.ndarray:
        # [B_1^T V, .., B_K^T V]
        return (self._dense_Bt @ V).transpose(1, 0, 2).reshape(
            self.shape[1], -1)

    def factor_form(self) -> FactorForm | None:
        return self._form

    def _apply_sparse_terms(self, X: np.ndarray) -> np.ndarray:
        m, n = self.shape
        rows, cols, vals = self._fold
        y = np.bincount(rows, weights=vals * X.reshape(-1, order="F")[cols],
                        minlength=m * n)
        return y.reshape((m, n), order="F")

    def apply_full(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = None
        if self._dense_wAt is not None:
            out = self._lift_left(X) @ self._dense_Bv
        if self._fold is not None:
            ys = self._apply_sparse_terms(X)
            out = ys if out is None else out + ys
        return out

    def apply_factored(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        # dense terms evaluate as sum_p (w_p A_p^T U)(B_p^T V)^T with the
        # sum folded into one product of the horizontally stacked blocks;
        # sparse terms act on the assembled rank-r product, whose cost is
        # of the same order as the stacked product itself
        U = np.asarray(U, dtype=float)
        V = np.asarray(V, dtype=float)
        out = None
        if self._dense_wAt is not None:
            out = self._lift_left(U) @ self._lift_right(V).T
        if self._fold is not None:
            ys = self._apply_sparse_terms(U @ V.T)
            out = ys if out is None else out + ys
        return out

    def default_step(self) -> float:
        return 1e-2

    def default_shift(self) -> float:
        return 0.0


def neumann_laplacian(n: int) -> np.ndarray:
    """Second-difference matrix on ``n`` points of [0, 1] with reflecting ends.

    Uses the standard central stencil ``(1, -2, 1) / h^2`` with
    ``h = 1/(n-1)``; the boundary rows eliminate the ghost point by
    mirroring, giving ``(-2, 2) / h^2``.  Row sums vanish, so the constant
    vector is an eigenvector with eigenvalue 0, which is the rightmost
    eigenvalue.  The matrix is Metzler but not symmetric.
    """
    if n < 2:
        raise ValueError("need at least two grid points")
    h2 = (1.0 / (n - 1)) ** 2
    A = np.zeros((n, n))
    idx = np.arange(n)
    A[idx, idx] = -2.0
    A[idx[:-1], idx[:-1] + 1] = 1.0
    A[idx[1:], idx[1:] - 1] = 1.0
    A[0, 1] = 2.0
    A[n - 1, n - 2] = 2.0
    return A / h2


def grid_points(n: int) -> np.ndarray:
    """Uniform grid on [0, 1] with ``n`` points, matching :func:`neumann_laplacian`."""
    return np.linspace(0.0, 1.0, n)


# The growth families' default integrator step, as a fraction of the
# explicit stability bound ``2 / default_shift()`` that their stiff
# diffusion term sets: a 5x margin under the bound.
STEP_FRACTION = 0.4


class _GrowthDiffusionOperator(LinearMatrixOperator):
    """Diffusion plus entrywise growth, ``eps (A X + X A^T) + g (G o X)``,
    with a square Metzler ``A``; each subclass sets the growth scale ``g``
    and rate ``G`` from its own parameters.  The growth rate may change
    sign, so the operator is Metzler but does not map nonnegative matrices
    to nonnegative ones.

    ``apply_factored`` forms the ``m x n`` product for the growth term
    only.  The factor form writes the growth term through the truncated
    SVD ``G = sum_l a_l b_l^T`` of numerical rank ``q`` (the default
    tolerance of ``np.linalg.matrix_rank``), ``q + 2`` blocks with the
    diffusion term.  The SVD runs on the first call of
    :meth:`factor_form`, whose result is cached on the operator.
    """

    g: float
    G: np.ndarray

    def __init__(self, A, eps: float, eps_r: float):
        self.A = as_matrix(A, "diffusion matrix")
        n = self.A.shape[0]
        if self.A.shape[1] != n:
            raise ValueError("diffusion matrix must be square")
        off = self.A - np.diag(np.diag(self.A))
        if np.any(off < 0):
            raise ValueError("diffusion matrix must be Metzler")
        self.eps = float(eps)
        self.eps_r = float(eps_r)
        for name, value in (("eps", self.eps), ("eps_r", self.eps_r)):
            if not 0 <= value < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and nonnegative, "
                                 f"got {value}")
        self.shape = (n, n)
        self._form = None

    def apply_full(self, X: np.ndarray) -> np.ndarray:
        # eps (A X + X A^T) + g (G o X), accumulated in place; the
        # operations and their order are those of that expression, so the
        # bits are too
        X = np.asarray(X, dtype=float)
        Y = self.A @ X
        Y += X @ self.A.T
        Y *= self.eps
        T = self.G * X
        T *= self.g
        Y += T
        return Y

    def apply_factored(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        U = np.asarray(U, dtype=float)
        V = np.asarray(V, dtype=float)
        P = U @ V.T  # needed by the entrywise term only
        return self.eps * ((self.A @ U) @ V.T + U @ (self.A @ V).T) \
            + self.g * (self.G * P)

    def factor_form(self) -> FactorForm:
        # left(U) = [x_0 o U, .., x_q o U, A U] and
        # right(V) = [A V, y_0 o V, .., y_q o V]
        # for x = [eps, g s_1 a_1, ..] and y = [b_1, .., b_q, eps]
        if self._form is None:
            a, s, bt = np.linalg.svd(self.G)
            q = int(np.count_nonzero(
                s > s.max(initial=0.0) * max(self.shape) * np.finfo(float).eps))
            n = self.shape[0]
            A = self.A
            x = np.empty((q + 1, n))
            x[0] = self.eps
            x[1:] = (self.g * s[:q, None]) * a[:, :q].T
            y = np.empty((q + 1, n))
            y[:q] = bt[:q]
            y[q] = self.eps

            # each lift fills a (blocks, r, n) buffer, so the entrywise
            # products run along n, and returns its transposed view
            def left(U):
                P = np.empty((q + 2, U.shape[1], n))
                np.multiply(x[:, None], U.T, out=P[:q + 1])
                np.matmul(A, U, out=P[q + 1].T)
                return P.reshape(-1, n).T

            def right(V):
                Q = np.empty((q + 2, V.shape[1], n))
                np.matmul(A, V, out=Q[0].T)
                np.multiply(y[:, None], V.T, out=Q[1:])
                return Q.reshape(-1, n).T

            self._form = FactorForm(q + 2, left, right)
        return self._form

    def default_shift(self) -> float:
        return (self.g * float(np.abs(self.G).max())
                + 2 * self.eps * float(np.abs(np.diag(self.A)).max()))

    def default_step(self) -> float:
        # the zero operator has no stiffness bound
        shift = self.default_shift()
        return STEP_FRACTION / shift if shift > 0 else math.inf


class HadamardGrowthOperator(_GrowthDiffusionOperator):
    """Diffusion plus entrywise growth: ``eps (A X + X A^T) + eps_r (R o X)``,
    the growth-diffusion form at ``(g, G) = (eps_r, R)``."""

    kind = "hadamard-growth"

    def __init__(self, A, eps: float, eps_r: float, R):
        super().__init__(A, eps, eps_r)
        self.R = as_matrix(R, "growth rate")
        if self.R.shape != self.shape:
            raise ValueError("growth rate must match the diffusion size")
        self.g, self.G = self.eps_r, self.R

    @classmethod
    def standard(cls, n: int, r0: float = 0.1, eps: float = 0.01,
                 eps_r: float = 3 * np.pi) -> "HadamardGrowthOperator":
        """Reflecting diffusion on the unit square with growth rate
        ``r0 + sin(2 pi x) cos(2 pi y)`` sampled on the uniform grid."""
        x = grid_points(n)
        R = r0 + np.outer(np.sin(2 * np.pi * x), np.cos(2 * np.pi * x))
        return cls(neumann_laplacian(n), eps, eps_r, R)


class SeparableGrowthOperator(_GrowthDiffusionOperator):
    """Diffusion plus separable growth:
    ``eps (A X + X A^T) + r0 X + eps_r diag(phi) X diag(psi)``.

    This is the growth-diffusion form at ``g = 1`` and the rank-two rate
    ``G = r0 + eps_r phi psi^T``.
    """

    kind = "separable-growth"

    def __init__(self, A, eps: float, r0: float, eps_r: float, phi, psi):
        super().__init__(A, eps, eps_r)
        n = self.shape[0]
        self.phi = np.asarray(phi, dtype=float).ravel()
        self.psi = np.asarray(psi, dtype=float).ravel()
        if self.phi.shape != (n,) or self.psi.shape != (n,):
            raise ValueError("modulations must be length-n vectors")
        if not (np.all(np.isfinite(self.phi)) and np.all(np.isfinite(self.psi))):
            raise ValueError("modulations contain non-finite entries")
        self.r0 = float(r0)
        if not math.isfinite(self.r0):
            raise ValueError(f"r0 must be finite, got {self.r0}")
        self.g, self.G = 1.0, self.r0 + self.eps_r * np.outer(self.phi, self.psi)

    @classmethod
    def standard(cls, n: int, r0: float = 0.3, eps: float = 0.1,
                 eps_r: float = 0.01) -> "SeparableGrowthOperator":
        """Reflecting diffusion with row modulation ``0.3 sin(3 pi x)`` and
        column modulation ``0.2 cos(pi y)`` on the uniform grid."""
        x = grid_points(n)
        phi = 0.3 * np.sin(3 * np.pi * x)
        psi = 0.2 * np.cos(np.pi * x)
        return cls(neumann_laplacian(n), eps, r0, eps_r, phi, psi)


def vectorize_operator(op: MarkovGridOperator) -> np.ndarray:
    """Kronecker matrix ``P = sum_p w_p B_p (x) A_p`` of a grid operator.

    With columnwise vectorization ``vec``, the operator action satisfies
    ``vec(A(X)) = P.T @ vec(X)``; for a probabilistically valid grid ``P``
    is row stochastic.  Only intended for small sizes, the result is dense
    ``(m*n) x (m*n)``.
    """
    if not isinstance(op, MarkovGridOperator):
        raise TypeError("vectorization is only defined for grid operators")
    m, n = op.shape
    P = np.zeros((m * n, m * n))
    for w, A, B in op.terms:
        P += w * np.kron(B, A)
    return P


# --- JSON serialization ----------------------------------------------------
#
# Plain json round-trips Python floats through repr, which preserves the
# exact binary value, so nothing special is needed for full precision.

def operator_to_dict(op: LinearMatrixOperator) -> dict:
    """JSON-ready description of an operator."""
    if isinstance(op, MarkovGridOperator):
        return {
            "kind": op.kind,
            "m": op.shape[0],
            "n": op.shape[1],
            "terms": [
                {"weight": w, "A": A.tolist(), "B": B.tolist()}
                for w, A, B in op.terms
            ],
        }
    if isinstance(op, _GrowthDiffusionOperator):
        d = {"kind": op.kind, "n": op.shape[0], "eps": op.eps,
             "eps_r": op.eps_r, "diffusion": op.A.tolist()}
        if isinstance(op, HadamardGrowthOperator):
            d["growth"] = op.R.tolist()
        else:
            d.update(r0=op.r0, row_modulation=op.phi.tolist(),
                     col_modulation=op.psi.tolist())
        return d
    raise TypeError(f"cannot serialize operator of type {type(op).__name__}")


def operator_from_dict(d: dict) -> LinearMatrixOperator:
    """Inverse of :func:`operator_to_dict`."""
    try:
        kind = d["kind"]
        if kind == "markov-grid":
            terms = [(t["weight"], t["A"], t["B"]) for t in d["terms"]]
            return MarkovGridOperator(terms)
        if kind == "hadamard-growth":
            return HadamardGrowthOperator(d["diffusion"], d["eps"], d["eps_r"],
                                          d["growth"])
        if kind == "separable-growth":
            return SeparableGrowthOperator(d["diffusion"], d["eps"], d["r0"],
                                           d["eps_r"], d["row_modulation"],
                                           d["col_modulation"])
    except KeyError as exc:
        raise ValueError(f"operator description missing field {exc}") from exc
    raise ValueError(f"unknown operator kind {d.get('kind')!r}")


def save_operator(op: LinearMatrixOperator, path) -> None:
    with open(path, "w") as fh:
        json.dump(operator_to_dict(op), fh)
        fh.write("\n")


def load_operator(path) -> LinearMatrixOperator:
    with open(path) as fh:
        return operator_from_dict(json.load(fh))
