"""Generators and validators for synthetic Markov grid operators.

All randomness flows through ``numpy.random.Generator`` seeded with PCG64;
generation is deterministic given a generator's arguments, its seed among
them.
"""

from __future__ import annotations

import numpy as np

from .operators import MarkovGridOperator

__all__ = [
    "dirichlet_row",
    "dirichlet_stochastic",
    "sparse_random_stochastic",
    "generate_block_grid",
    "generate_random_grid",
    "rank_one_stationary",
    "stationary_vector",
    "validate_grid",
    "demo_path_walk",
    "demo_clustered_walk",
]


def dirichlet_row(rng: np.random.Generator, k: int) -> np.ndarray:
    """One point drawn uniformly from the k-simplex (Dirichlet, all ones)."""
    if k < 1:
        raise ValueError("need at least one category")
    return rng.dirichlet(np.ones(k))


def dirichlet_stochastic(rng: np.random.Generator, n: int) -> np.ndarray:
    """Row-stochastic n x n matrix with independent simplex-uniform rows."""
    return rng.dirichlet(np.ones(n), size=n)


def sparse_random_stochastic(rng: np.random.Generator, n: int,
                             density: float) -> np.ndarray:
    """Sparse-random row-stochastic matrix.

    Entries are kept with probability ``density`` and filled with uniform
    values, then each row is normalized.  A row that comes out empty gets a
    single unit entry at a random column so the result is always a valid
    transition matrix.
    """
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    M = np.where(rng.random((n, n)) < density, rng.random((n, n)), 0.0)
    for i in range(n):
        s = M[i].sum()
        if s == 0.0:
            M[i, rng.integers(n)] = 1.0
        else:
            M[i] /= s
    return M


def generate_block_grid(sizes, *, delta: float = 0.2, seed: int = 0,
                        style: str = "stochastic") -> MarkovGridOperator:
    """Block-structured grid of size ``sum(sizes)``, deterministic given
    its arguments.

    Args:
        sizes: block sizes, positive integers.
        delta: weight of the dense fully-connected term, in (0, 1].
        seed: generator seed (PCG64).
        style: ``"stochastic"`` or ``"trap"``.

    The two styles differ in how the ``t`` block terms are completed and
    weighted.  ``"stochastic"`` places the Dirichlet-random block of term
    ``i`` at block ``i`` and the identity elsewhere, and splits the
    remaining weight ``1 - delta`` across the block terms by a Dirichlet
    draw; every term is then a genuine transition pair and the weights lie
    on the simplex.  ``"trap"`` zeroes each block term outside its own block
    and gives every block term the full weight ``1 - delta``; mass outside a
    block is absorbed, the operator is sub-stochastic, and its stationary
    matrix concentrates near the diagonal, which is the regime where
    truncated low-rank approximations go negative.
    """
    sizes = tuple(int(s) for s in sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("block sizes must be positive integers")
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    if style not in ("stochastic", "trap"):
        raise ValueError(f"unknown style {style!r}")
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    t = len(sizes)
    offsets = np.cumsum((0,) + sizes)
    if style == "stochastic":
        w = (1.0 - delta) * dirichlet_row(rng, t) if delta < 1 \
            else np.zeros(t)
    else:
        w = np.full(t, 1.0 - delta)
    terms = []
    for i in range(t):
        lo, hi = offsets[i], offsets[i + 1]
        if style == "stochastic":
            A, B = np.eye(n), np.eye(n)
        else:
            A, B = np.zeros((n, n)), np.zeros((n, n))
        A[lo:hi, lo:hi] = dirichlet_stochastic(rng, hi - lo)
        B[lo:hi, lo:hi] = dirichlet_stochastic(rng, hi - lo)
        terms.append((w[i], A, B))
    if style == "stochastic":
        dense_A = dirichlet_stochastic(rng, n)
        dense_B = dirichlet_stochastic(rng, n)
    else:
        # trap style pairs the absorbing blocks with a uniform
        # fully-connected escape term, the teleportation completion; the
        # blocks then re-feed at equal rates and the stationary matrix
        # spreads its mass evenly across them
        dense_A = np.full((n, n), 1.0 / n)
        dense_B = np.full((n, n), 1.0 / n)
    terms.append((delta, dense_A, dense_B))
    return MarkovGridOperator(terms)


def generate_random_grid(n: int, *, t: int = 3, density: float = 0.9,
                         seed: int = 0,
                         family: str = "independent") -> MarkovGridOperator:
    """Unstructured random grid of size ``n``, deterministic given its
    arguments.

    Args:
        n: grid size.
        t: number of terms (must be 3 for the shared-pair family).
        density: sparsity of the transition matrices, in (0, 1].
        seed: generator seed (PCG64).
        family: ``"independent"`` draws a fresh transition pair per term;
            ``"shared-pair"`` draws a single pair (A, B) and forms the three
            terms ``A^T X``, ``X B`` and ``A^T X B``, whose unique
            stationary matrix is exactly rank one (the outer product of the
            two stationary vectors).
    """
    if n < 1 or t < 1:
        raise ValueError("n and t must be positive")
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    if family not in ("independent", "shared-pair"):
        raise ValueError(f"unknown family {family!r}")
    if family == "shared-pair" and t != 3:
        raise ValueError("the shared-pair family always has t = 3 terms")
    rng = np.random.default_rng(seed)
    w = dirichlet_row(rng, t)
    if family == "independent":
        terms = [
            (w[p], sparse_random_stochastic(rng, n, density),
             sparse_random_stochastic(rng, n, density))
            for p in range(t)
        ]
    else:
        A = sparse_random_stochastic(rng, n, density)
        B = sparse_random_stochastic(rng, n, density)
        eye = np.eye(n)
        terms = [(w[0], A, eye), (w[1], eye, B), (w[2], A, B)]
    return MarkovGridOperator(terms)


def stationary_vector(A: np.ndarray) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix.

    One exact solve: ``A^T - I`` with its last row replaced by ones,
    against ``e_n``, so the result is ``A^T v = v`` with ``sum(v) = 1``.
    Periodic and slowly mixing chains need no iteration.  A chain with no
    unique stationary distribution makes that matrix singular, which its
    numerical rank tells: elimination alone met an exact zero pivot on
    only 17 of 200 random two-class chains.  It raises ValueError.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    M = A.T - np.eye(n)
    M[-1] = 1.0
    if np.linalg.matrix_rank(M) < n:
        raise ValueError("the chain has no unique stationary distribution")
    return np.linalg.solve(M, np.eye(n)[-1])


def rank_one_stationary(A: np.ndarray, B: np.ndarray):
    """Rank-one stationary matrix of the three-term grid built on (A, B).

    For the grid ``w1 A^T X + w2 X B + w3 A^T X B`` with irreducible
    row-stochastic A and B, the stationary matrix is the outer product of
    the stationary vectors of A and B, independent of the weights.

    Returns
    -------
    (mu, nu, X) : stationary vector of A, stationary vector of B, and their
        outer product with total mass one.
    """
    mu = stationary_vector(A)
    nu = stationary_vector(B)
    return mu, nu, np.outer(mu, nu)


def validate_grid(op: MarkovGridOperator, atol: float = 1e-12) -> list[str]:
    """Check that a grid operator is a convex combination of transition pairs.

    Verifies nonnegative weights summing to one, nonnegative entries, and
    unit row sums for every matrix, all to absolute tolerance ``atol``.
    Returns the violations, each a human-readable string naming the term
    (and row) responsible; an empty list means the grid is valid.
    """
    failures = []
    weights = np.array([w for w, _, _ in op.terms])
    if np.any(weights < -atol):
        bad = int(np.argmin(weights))
        failures.append(f"term {bad}: negative weight {float(weights[bad])}")
    if abs(weights.sum() - 1.0) > atol:
        failures.append(f"weights sum to {float(weights.sum())} (expected 1)")
    for k, (_, A, B) in enumerate(op.terms):
        for label, M in (("A", A), ("B", B)):
            if np.any(M < 0):
                i, j = np.unravel_index(int(np.argmin(M)), M.shape)
                failures.append(f"term {k}: {label}[{i},{j}] = "
                                f"{float(M[i, j])} is negative")
            rows = M.sum(axis=1)
            bad_rows = np.where(np.abs(rows - 1.0) > atol)[0]
            if bad_rows.size:
                i = int(bad_rows[0])
                failures.append(
                    f"term {k}: {label} row {i} sums to {float(rows[i])} "
                    f"(expected 1; {bad_rows.size} rows affected)")
    return failures


def demo_path_walk() -> MarkovGridOperator:
    """Two-sided neighbor walk on a 3 x 3 state lattice.

    The chain moves to a uniformly random neighbor on the path graph
    1 - 2 - 3, and the grid averages the action on rows and columns:
    ``X -> (A^T X + X A) / 2``.
    """
    A = np.array([[0.0, 1.0, 0.0],
                  [0.5, 0.0, 0.5],
                  [0.0, 1.0, 0.0]])
    eye = np.eye(3)
    return MarkovGridOperator([(0.5, A, eye), (0.5, eye, A)])


def demo_clustered_walk() -> MarkovGridOperator:
    """Three-cluster metastable walk whose stationary matrix is nearly
    diagonal, so its best rank-2 approximation picks up negative entries."""
    A1 = np.array([[0.9, 0.05, 0.05],
                   [1.0, 0.0, 0.0],
                   [1.0, 0.0, 0.0]])
    A2 = np.array([[0.0, 1.0, 0.0],
                   [0.1, 0.8, 0.1],
                   [0.0, 1.0, 0.0]])
    A3 = np.array([[0.0, 0.0, 1.0],
                   [0.0, 0.0, 1.0],
                   [0.075, 0.075, 0.85]])
    third = 1.0 / 3.0
    return MarkovGridOperator([(third, A1, A1), (third, A2, A2),
                               (third, A3, A3)])
