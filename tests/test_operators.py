"""Operator types: actions, factored actions, vectorization, serialization.

The lattice-walk vectorization is pinned against a hand-checked 9x9 matrix
whose entries are exact multiples of 1/4, and all operator actions are
cross-checked against that vectorized form.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nneig.markovgrid import (BlockGridSpec, demo_path_walk,
                              generate_block_grid)
from nneig.operators import (
    HadamardGrowthOperator,
    MarkovGridOperator,
    SeparableGrowthOperator,
    grid_points,
    load_operator,
    neumann_laplacian,
    operator_from_dict,
    operator_to_dict,
    save_operator,
    vectorize_operator,
)
from nneig.solvers import _narrow_form, rayleigh

# two-sided symmetric walk on the 3-cycle-with-reflecting-ends chain:
# left/right moves each with probability 1/2
A_CHAIN = np.array([
    [0.0, 1.0, 0.0],
    [0.5, 0.0, 0.5],
    [0.0, 1.0, 0.0],
])

# vectorization of 1/2 A^T X + 1/2 X A, hand-derived entry by entry and
# frozen; every entry is an exact multiple of 1/4
P_CHAIN = 0.25 * np.array([
    [0, 2, 0, 2, 0, 0, 0, 0, 0],
    [1, 0, 1, 0, 2, 0, 0, 0, 0],
    [0, 2, 0, 0, 0, 2, 0, 0, 0],
    [1, 0, 0, 0, 2, 0, 1, 0, 0],
    [0, 1, 0, 1, 0, 1, 0, 1, 0],
    [0, 0, 1, 0, 2, 0, 0, 0, 1],
    [0, 0, 0, 2, 0, 0, 0, 2, 0],
    [0, 0, 0, 0, 2, 0, 1, 0, 1],
    [0, 0, 0, 0, 0, 2, 0, 2, 0],
])


def vec(X):
    # column-major stacking, the convention the Kronecker identities use
    return np.asarray(X).reshape(-1, order="F")


class TestLatticeWalkVectorization:
    def test_matches_frozen_matrix_exactly(self):
        op = demo_path_walk()
        P = vectorize_operator(op)
        # entries are rationals over 4, so equality must be bitwise
        assert np.array_equal(P, P_CHAIN)

    def test_action_on_unit_matrix(self):
        op = demo_path_walk()
        E11 = np.zeros((3, 3))
        E11[0, 0] = 1.0
        Y = op.apply_full(E11)
        expected = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(Y, expected)

    def test_action_consistent_with_vectorization(self):
        op = demo_path_walk()
        P = vectorize_operator(op)
        rng = np.random.default_rng(0)
        for _ in range(20):
            X = rng.standard_normal((3, 3))
            np.testing.assert_allclose(
                vec(op.apply_full(X)), P.T @ vec(X), atol=1e-14
            )

    def test_row_stochastic_vectorization(self):
        # mass conservation: P itself is row stochastic for a Markov grid
        P = vectorize_operator(demo_path_walk())
        np.testing.assert_allclose(P.sum(axis=1), np.ones(9), atol=1e-15)
        assert np.all(P >= 0)


class TestMarkovGridOperator:
    def make_random(self, seed, m=4, n=5, t=3):
        rng = np.random.default_rng(seed)
        terms = []
        w = rng.dirichlet(np.ones(t))
        for p in range(t):
            A = rng.random((m, m))
            A /= A.sum(axis=1, keepdims=True)
            B = rng.random((n, n))
            B /= B.sum(axis=1, keepdims=True)
            terms.append((w[p], A, B))
        return MarkovGridOperator(terms)

    def test_linearity(self):
        op = self.make_random(1)
        rng = np.random.default_rng(2)
        X = rng.standard_normal(op.shape)
        Y = rng.standard_normal(op.shape)
        np.testing.assert_allclose(
            op.apply_full(2.5 * X - Y),
            2.5 * op.apply_full(X) - op.apply_full(Y),
            atol=1e-12,
        )

    def test_factored_equals_full(self):
        op = self.make_random(3)
        rng = np.random.default_rng(4)
        for r in (1, 2, 4):
            U = rng.random((op.shape[0], r))
            V = rng.random((op.shape[1], r))
            np.testing.assert_allclose(
                op.apply_factored(U, V), op.apply_full(U @ V.T), atol=1e-12
            )

    def test_mass_conservation(self):
        op = self.make_random(5)
        rng = np.random.default_rng(6)
        X = rng.random(op.shape)
        assert op.apply_full(X).sum() == pytest.approx(X.sum(), rel=1e-12)

    def test_nonnegativity_preserved(self):
        op = self.make_random(7)
        rng = np.random.default_rng(8)
        X = rng.random(op.shape)
        assert np.all(op.apply_full(X) >= 0)

    def test_rectangular_shapes(self):
        op = self.make_random(9, m=3, n=6)
        assert op.shape == (3, 6)
        U = np.ones((3, 2))
        V = np.ones((6, 2))
        assert op.apply_factored(U, V).shape == (3, 6)

    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError):
            MarkovGridOperator([])

    def test_inconsistent_sizes_rejected(self):
        with pytest.raises(ValueError):
            MarkovGridOperator([
                (0.5, np.eye(2), np.eye(3)),
                (0.5, np.eye(4), np.eye(3)),
            ])

    def test_vectorize_dimensions(self):
        op = self.make_random(10, m=3, n=4)
        P = vectorize_operator(op)
        assert P.shape == (12, 12)
        rng = np.random.default_rng(11)
        X = rng.standard_normal((3, 4))
        np.testing.assert_allclose(
            vec(op.apply_full(X)), P.T @ vec(X), atol=1e-12
        )


class TestSparseFold:
    # ten block terms that are the identity outside their own 3x3 block,
    # plus one dense term
    SPEC = BlockGridSpec(sizes=(3,) * 10, delta=0.3, seed=2,
                         style="stochastic")

    def test_one_entry_per_distinct_position(self):
        op = generate_block_grid(self.SPEC)
        assert op._dense_wAt.shape[0] == 1
        kron = [np.nonzero(np.kron(B.T, A.T)) for _, A, B in op.terms[:-1]]
        assert len(kron) == 10
        # the identity parts of the terms overlap: 12,960 Kronecker entries
        # land on 4,860 distinct positions, and the fold holds each once
        assert sum(len(r) for r, _ in kron) == 12_960
        positions = {p for r, c in kron for p in zip(r.tolist(), c.tolist())}
        assert len(positions) == 4_860
        rows, cols, vals = op._fold
        assert len(rows) == len(cols) == len(vals) == 4_860
        assert set(zip(rows.tolist(), cols.tolist())) == positions

    def test_applies_match_vectorization(self):
        op = generate_block_grid(self.SPEC)
        P = vectorize_operator(op)
        rng = np.random.default_rng(13)
        U, V = rng.random((30, 3)), rng.random((30, 3))
        X = rng.standard_normal((30, 30))
        for got, arg in ((op.apply_full(X), X),
                         (op.apply_factored(U, V), U @ V.T)):
            np.testing.assert_allclose(vec(got), P.T @ vec(arg), rtol=0,
                                       atol=1e-14)


class TestNeumannLaplacian:
    def test_small_matrix(self):
        L = neumann_laplacian(4)
        h = 1.0 / 3.0
        expected = (1.0 / h**2) * np.array([
            [-2.0, 2.0, 0.0, 0.0],
            [1.0, -2.0, 1.0, 0.0],
            [0.0, 1.0, -2.0, 1.0],
            [0.0, 0.0, 2.0, -2.0],
        ])
        np.testing.assert_allclose(L, expected)

    def test_row_sums_vanish(self):
        L = neumann_laplacian(17)
        np.testing.assert_allclose(L.sum(axis=1), 0.0, atol=1e-9)

    def test_constant_in_kernel(self):
        L = neumann_laplacian(30)
        np.testing.assert_allclose(L @ np.ones(30), 0.0, atol=1e-9)

    def test_metzler(self):
        L = neumann_laplacian(10)
        off = L - np.diag(np.diag(L))
        assert np.all(off >= 0)

    def test_grid_points(self):
        x = grid_points(5)
        np.testing.assert_allclose(x, [0.0, 0.25, 0.5, 0.75, 1.0])


class TestGrowthOperators:
    def test_hadamard_action(self):
        n = 12
        op = HadamardGrowthOperator.standard(n)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((n, n))
        A = neumann_laplacian(n)
        x = grid_points(n)
        R = 0.1 + np.outer(np.sin(2 * np.pi * x), np.cos(2 * np.pi * x))
        expected = 0.01 * (A @ X + X @ A.T) + 3 * np.pi * (R * X)
        np.testing.assert_allclose(op.apply_full(X), expected, atol=1e-10)

    def test_hadamard_factored_equals_full(self):
        op = HadamardGrowthOperator.standard(9)
        rng = np.random.default_rng(1)
        U = rng.random((9, 3))
        V = rng.random((9, 3))
        np.testing.assert_allclose(
            op.apply_factored(U, V), op.apply_full(U @ V.T), atol=1e-10
        )

    def test_separable_action(self):
        n = 10
        op = SeparableGrowthOperator.standard(n)
        rng = np.random.default_rng(2)
        X = rng.standard_normal((n, n))
        A = neumann_laplacian(n)
        x = grid_points(n)
        phi = 0.3 * np.sin(3 * np.pi * x)
        psi = 0.2 * np.cos(np.pi * x)
        expected = (0.1 * (A @ X + X @ A.T) + 0.3 * X
                    + 0.01 * (phi[:, None] * X * psi[None, :]))
        np.testing.assert_allclose(op.apply_full(X), expected, atol=1e-10)

    def test_separable_factored_equals_full(self):
        op = SeparableGrowthOperator.standard(8)
        rng = np.random.default_rng(3)
        U = rng.random((8, 2))
        V = rng.random((8, 2))
        np.testing.assert_allclose(
            op.apply_factored(U, V), op.apply_full(U @ V.T), atol=1e-10
        )

    @pytest.mark.parametrize("family", [HadamardGrowthOperator,
                                        SeparableGrowthOperator])
    @pytest.mark.parametrize("n", [2, 9, 100])
    def test_apply_full_bit_identical_to_expression(self, family, n):
        # apply_full accumulates in place; the operations and their order
        # are those of the one-line expression, so are the bits
        op = family.standard(n)
        rng = np.random.default_rng(n)
        for X in (rng.standard_normal((n, n)), rng.random((n, n)).T):
            expected = op.eps * (op.A @ X + X @ op.A.T) + op.g * (op.G * X)
            assert np.array_equal(op.apply_full(X), expected)

    def test_shift_makes_iteration_nonnegative(self):
        # shifted operator X -> A(X) + sigma X maps the positive cone to
        # itself; spot-check on random nonnegative inputs
        for op in (HadamardGrowthOperator.standard(8),
                   SeparableGrowthOperator.standard(8)):
            sigma = op.default_shift()
            rng = np.random.default_rng(4)
            for _ in range(10):
                X = rng.random((8, 8))
                Y = op.apply_full(X) + sigma * X
                assert Y.min() >= -1e-12

    @pytest.mark.parametrize("family", [HadamardGrowthOperator,
                                        SeparableGrowthOperator])
    @pytest.mark.parametrize("n", [9, 100, 400])
    def test_default_step_under_stability_bound(self, family, n):
        # the explicit step is stable up to about 2 / shift, and the
        # diffusion part of the shift grows like n^2
        op = family.standard(n)
        assert op.default_step() * op.default_shift() <= 0.5

    def test_zero_operator_has_no_default_step(self):
        op = HadamardGrowthOperator(neumann_laplacian(4), 0.0, 0.0,
                                    np.ones((4, 4)))
        assert op.default_step() == np.inf

    @pytest.mark.parametrize("field", ["eps", "eps_r", "r0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, field, value):
        # a NaN or infinite rate would only surface as a non-finite solve
        args = dict(eps=0.1, r0=0.3, eps_r=0.01)
        args[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SeparableGrowthOperator(neumann_laplacian(4), phi=np.ones(4),
                                    psi=np.ones(4), **args)
        if field != "r0":
            del args["r0"]
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                HadamardGrowthOperator(neumann_laplacian(4),
                                       R=np.ones((4, 4)), **args)

    def test_vectorize_rejects_growth(self):
        with pytest.raises(TypeError):
            vectorize_operator(HadamardGrowthOperator.standard(4))


class TestFlowField:
    # the normalized eigenvalue flow G = A(X) - <A(X), X> X on the unit
    # sphere, whose norm is the Rayleigh residual
    @staticmethod
    def flow(op, X):
        lam, res = rayleigh(op, X)
        return op.apply_full(X) - lam * X, lam, res

    def test_orthogonality_to_iterate(self):
        # the sphere-projected field is tangent: <G(X), X> = 0
        op = demo_path_walk()
        rng = np.random.default_rng(5)
        for _ in range(25):
            X = rng.standard_normal((3, 3))
            X /= np.linalg.norm(X)
            G, _, res = self.flow(op, X)
            assert abs(np.sum(G * X)) < 1e-12
            assert res == pytest.approx(np.linalg.norm(G))

    def test_vanishes_at_eigenmatrix(self):
        op = demo_path_walk()
        mu = np.array([1.0, 2.0, 1.0])
        X = np.outer(mu, mu)
        X /= np.linalg.norm(X)
        G, rho, _ = self.flow(op, X)
        assert rho == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(G) < 1e-14

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_orthogonality_property(self, seed):
        op = demo_path_walk()
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((3, 3))
        X /= np.linalg.norm(X)
        G, _, _ = self.flow(op, X)
        assert abs(np.sum(G * X)) < 1e-11


class TestSerialization:
    def roundtrip(self, op):
        d = operator_to_dict(op)
        return operator_from_dict(json.loads(json.dumps(d)))

    def test_markov_grid_roundtrip_exact(self):
        rng = np.random.default_rng(6)
        A = rng.random((3, 3))
        A /= A.sum(axis=1, keepdims=True)
        op = MarkovGridOperator([(0.3, A, np.eye(3)), (0.7, np.eye(3), A)])
        back = self.roundtrip(op)
        assert back.kind == "markov-grid"
        for (w1, A1, B1), (w2, A2, B2) in zip(op.terms, back.terms):
            assert w1 == w2
            np.testing.assert_array_equal(A1, A2)
            np.testing.assert_array_equal(B1, B2)

    def test_growth_roundtrips_exact(self):
        for op in (HadamardGrowthOperator.standard(7),
                   SeparableGrowthOperator.standard(7)):
            back = self.roundtrip(op)
            assert back.kind == op.kind
            rng = np.random.default_rng(7)
            X = rng.standard_normal((7, 7))
            np.testing.assert_array_equal(op.apply_full(X),
                                          back.apply_full(X))

    def test_file_roundtrip(self, tmp_path):
        op = demo_path_walk()
        path = tmp_path / "walk.json"
        save_operator(op, path)
        back = load_operator(path)
        rng = np.random.default_rng(8)
        X = rng.standard_normal((3, 3))
        np.testing.assert_array_equal(op.apply_full(X), back.apply_full(X))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            operator_from_dict({"kind": "mystery"})


class TestApplyFactoredScaling:
    @given(arrays(float, (5, 2), elements=st.floats(0, 1)),
           arrays(float, (5, 2), elements=st.floats(0, 1)))
    @settings(max_examples=50, deadline=None)
    def test_factored_equals_full_property(self, U, V):
        op = HadamardGrowthOperator.standard(5)
        np.testing.assert_allclose(
            op.apply_factored(U, V), op.apply_full(U @ V.T), atol=1e-9
        )


def _dense_grid(n=10):
    rng = np.random.default_rng(11)
    terms = []
    for w in (0.3, 0.7):
        A = rng.random((n, n))
        B = rng.random((n, n))
        terms.append((w, A / A.sum(axis=1, keepdims=True),
                      B / B.sum(axis=1, keepdims=True)))
    op = MarkovGridOperator(terms)
    assert op._fold is None
    return op


def _sparse_grid(n=10):
    # shifted permutations: n nonzeros per factor, far below the GEMM cutoff
    eye = np.eye(n)
    op = MarkovGridOperator([(0.5, np.roll(eye, 1, axis=1), eye),
                             (0.5, eye, np.roll(eye, 2, axis=1))])
    assert op._dense_wAt is None
    return op


def _full_rank_hadamard(n=10):
    rng = np.random.default_rng(12)
    base = HadamardGrowthOperator.standard(n)
    return HadamardGrowthOperator(base.A, base.eps, base.eps_r,
                                  rng.standard_normal((n, n)))


class TestFactorForm:
    # every family whose image has a factor form
    FAMILIES = {
        "dense-grid": _dense_grid,
        "hadamard": lambda: HadamardGrowthOperator.standard(10),
        "separable": lambda: SeparableGrowthOperator.standard(10),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @given(arrays(float, (10, 2), elements=st.floats(0, 1, width=16)),
           arrays(float, (10, 2), elements=st.floats(0, 1, width=16)),
           arrays(float, (2, 2), elements=st.floats(-2, 2, width=16)))
    @settings(max_examples=50, deadline=None)
    def test_lifts_property(self, family, U, V, M):
        op = self.FAMILIES[family]()
        form = op.factor_form()
        P, Q = form.left(U), form.right(V)
        assert P.shape == Q.shape == (10, 2 * form.blocks)
        F = op.apply_factored(U, V)
        assert np.abs(P @ Q.T - F).max() <= 1e-12 * max(1.0, np.abs(F).max())
        # the form's projection onto the factors, never forming F
        for got, want in zip(form.project(U, V), (F @ V, F.T @ U)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        # column linearity: lift(U M) = lift(U) kron(I, M)
        I_M = np.kron(np.eye(form.blocks), M)
        for lift, W in ((form.left, U), (form.right, V)):
            want = lift(W) @ I_M
            assert (np.abs(lift(W @ M) - want).max()
                    <= 1e-12 * max(1.0, np.abs(want).max()))

    def test_no_factor_form(self):
        # folded sparse Kronecker terms act on the assembled product
        assert _sparse_grid().factor_form() is None
        mixed = MarkovGridOperator(_sparse_grid().terms + _dense_grid().terms)
        assert mixed.factor_form() is None
        # the solvers do not lift through a form at least as wide as the
        # matrix
        op = _full_rank_hadamard()
        assert op.factor_form().blocks == 12
        assert _narrow_form(op, 1) is None
        hadamard = HadamardGrowthOperator.standard(10)
        assert _narrow_form(hadamard, 2) is hadamard.factor_form()
        assert _narrow_form(hadamard, 3) is None


class TestApplyProjected:
    """The image ``F = A(U V^T)`` projected back onto the factors,
    ``(F @ V, F.T @ U)``, as the factored solvers evaluate it."""

    # (builder, whether a rank-2 solve assembles the image)
    FAMILIES = {
        "dense-grid": (_dense_grid, False),
        "sparse-grid": (_sparse_grid, True),
        "hadamard": (lambda: HadamardGrowthOperator.standard(10), False),
        "hadamard-full-rank-growth": (_full_rank_hadamard, True),
        "separable": (lambda: SeparableGrowthOperator.standard(10), False),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @given(arrays(float, (10, 2), elements=st.floats(0, 1, width=16)),
           arrays(float, (10, 2), elements=st.floats(0, 1, width=16)))
    @settings(max_examples=50, deadline=None)
    def test_matches_assembled_image_property(self, family, U, V):
        # the solvers lift through the form exactly where it is narrow, and
        # its projection matches that of the dense image
        build, assembles = self.FAMILIES[family]
        op = build()
        form = _narrow_form(op, 2)
        assert (form is None) == assembles
        if form is not None:
            F = op.apply_full(U @ V.T)
            for got, want in zip(form.project(U, V), (F @ V, F.T @ U)):
                assert (np.linalg.norm(got - want)
                        <= 1e-12 * np.linalg.norm(want))

    def test_hadamard_growth_rank_from_svd(self):
        # r0 + sin cos^T has numerical rank 2: two diffusion blocks plus
        # two growth blocks
        assert HadamardGrowthOperator.standard(40).factor_form().blocks == 4
        assert _full_rank_hadamard(40).factor_form().blocks == 42
        # the separable rate r0 + eps_r phi psi^T has rank two as well
        assert SeparableGrowthOperator.standard(40).factor_form().blocks == 4

    def test_construction_defers_the_svd(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *a, **k: calls.append(1) or svd(*a, **k))
        hadamard = HadamardGrowthOperator.standard(20)
        HadamardGrowthOperator(hadamard.A, hadamard.eps, hadamard.eps_r,
                               hadamard.R)
        separable = SeparableGrowthOperator.standard(20)
        assert calls == []
        for op in (hadamard, separable):
            op.factor_form()
            op.factor_form()
        assert calls == [1, 1]
