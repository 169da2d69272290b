"""Grid generators, validity checks, and the rank-one stationary oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nneig.markovgrid import (
    demo_clustered_walk,
    demo_path_walk,
    dirichlet_row,
    dirichlet_stochastic,
    generate_block_grid,
    generate_random_grid,
    rank_one_stationary,
    sparse_random_stochastic,
    stationary_vector,
    validate_grid,
)
from nneig.operators import MarkovGridOperator, vectorize_operator


def stationary_oracle(A):
    # left Perron vector by dense eigendecomposition, normalized to mass one
    vals, vecs = np.linalg.eig(A.T)
    k = int(np.argmax(vals.real))
    v = np.abs(vecs[:, k].real)
    return v / v.sum()


class TestPrimitives:
    @given(st.integers(0, 10_000), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_dirichlet_row_simplex(self, seed, k):
        w = dirichlet_row(np.random.default_rng(seed), k)
        assert w.shape == (k,)
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 10_000), st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_dirichlet_stochastic_rows(self, seed, n):
        A = dirichlet_stochastic(np.random.default_rng(seed), n)
        assert A.shape == (n, n)
        assert np.all(A >= 0)
        np.testing.assert_allclose(A.sum(axis=1), 1.0, atol=1e-12)

    @given(st.integers(0, 10_000),
           st.floats(0.05, 1.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_sparse_random_stochastic(self, seed, density):
        A = sparse_random_stochastic(np.random.default_rng(seed), 8, density)
        assert np.all(A >= 0)
        np.testing.assert_allclose(A.sum(axis=1), 1.0, atol=1e-12)

    def test_sparse_density_zero_rejected(self):
        with pytest.raises(ValueError):
            sparse_random_stochastic(np.random.default_rng(0), 5, 0.0)


class TestBlockGrid:
    def test_deterministic(self):
        op1 = generate_block_grid((3, 2, 4), delta=0.3, seed=7)
        op2 = generate_block_grid((3, 2, 4), delta=0.3, seed=7)
        for (w1, A1, B1), (w2, A2, B2) in zip(op1.terms, op2.terms):
            assert w1 == w2
            np.testing.assert_array_equal(A1, A2)
            np.testing.assert_array_equal(B1, B2)

    def test_stochastic_style_is_valid_grid(self):
        op = generate_block_grid((4, 3, 3), delta=0.2, seed=1,
                                 style="stochastic")
        assert op.shape == (10, 10)
        assert len(op.terms) == 4
        failures = validate_grid(op)
        assert failures == [], failures

    def test_unit_blocks_give_one_term_per_state(self):
        op = generate_block_grid((1,) * 50, delta=0.2, seed=0,
                                 style="stochastic")
        assert op.shape == (50, 50)
        assert len(op.terms) == 51
        assert validate_grid(op) == []

    def test_block_sparsity_pattern(self):
        op = generate_block_grid((2, 3), delta=0.5, seed=3, style="trap")
        w0, A0, _ = op.terms[0]
        assert w0 == pytest.approx(0.5)
        # off-block rows are fully absorbed in the trap style
        assert np.all(A0[2:, :] == 0)
        assert np.all(A0[:2, 2:] == 0)
        np.testing.assert_allclose(A0[:2, :2].sum(axis=1), 1.0, atol=1e-12)

    def test_trap_style_substochastic_flagged(self):
        failures = validate_grid(generate_block_grid((2, 2), delta=0.4,
                                                     seed=5, style="trap"))
        assert any("row" in f for f in failures)

    def test_trap_dense_term_uniform(self):
        op = generate_block_grid((1,) * 6, delta=0.25, seed=9, style="trap")
        w, A, B = op.terms[-1]
        assert w == pytest.approx(0.25)
        np.testing.assert_array_equal(A, np.full((6, 6), 1.0 / 6.0))
        np.testing.assert_array_equal(B, np.full((6, 6), 1.0 / 6.0))

    def test_irreducible_aperiodic_small(self):
        # the dense completion connects everything: (P + I)^(mn) > 0
        P = vectorize_operator(generate_block_grid(
            (2, 2), delta=0.3, seed=11, style="stochastic"))
        M = np.linalg.matrix_power(P + np.eye(16), 16)
        assert np.all(M > 0)

    @pytest.mark.parametrize("sizes,kw,message", [
        ((), {}, "block sizes"), ((2, 0), {}, "block sizes"),
        ((2,), {"delta": 0.0}, "delta"), ((2,), {"delta": 1.5}, "delta"),
        ((2,), {"style": "absorbing"}, "unknown style"),
    ])
    def test_bad_input_rejected(self, sizes, kw, message):
        with pytest.raises(ValueError, match=message):
            generate_block_grid(sizes, **kw)


class TestRandomGrid:
    def test_independent_family_valid(self):
        op = generate_random_grid(12, t=4, density=0.8, seed=2,
                                  family="independent")
        assert len(op.terms) == 4
        assert validate_grid(op) == []

    def test_shared_pair_structure(self):
        op = generate_random_grid(9, density=0.9, seed=4,
                                  family="shared-pair")
        assert len(op.terms) == 3
        assert validate_grid(op) == []
        _, A1, B1 = op.terms[0]
        _, A2, B2 = op.terms[1]
        _, A3, B3 = op.terms[2]
        np.testing.assert_array_equal(B1, np.eye(9))
        np.testing.assert_array_equal(A2, np.eye(9))
        np.testing.assert_array_equal(A3, A1)
        np.testing.assert_array_equal(B3, B2)

    @pytest.mark.parametrize("n,kw,message", [
        (0, {}, "n and t"), (4, {"t": 0}, "n and t"),
        (4, {"density": 0.0}, "density"),
        (4, {"family": "coupled"}, "unknown family"),
    ])
    def test_bad_input_rejected(self, n, kw, message):
        with pytest.raises(ValueError, match=message):
            generate_random_grid(n, **kw)

    def test_shared_pair_needs_three_terms(self):
        with pytest.raises(ValueError, match="t = 3"):
            generate_random_grid(5, t=2, family="shared-pair")

    def test_deterministic(self):
        X1 = generate_random_grid(7, seed=13, family="shared-pair") \
            .apply_full(np.eye(7))
        X2 = generate_random_grid(7, seed=13, family="shared-pair") \
            .apply_full(np.eye(7))
        np.testing.assert_array_equal(X1, X2)


class TestStationaryVector:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_eig_oracle(self, seed):
        A = dirichlet_stochastic(np.random.default_rng(seed), 6)
        v = stationary_vector(A)
        np.testing.assert_allclose(v, stationary_oracle(A), atol=1e-10)

    def test_fixed_point(self):
        A = dirichlet_stochastic(np.random.default_rng(1), 10)
        v = stationary_vector(A)
        np.testing.assert_allclose(A.T @ v, v, atol=1e-12)
        assert v.sum() == pytest.approx(1.0, abs=1e-12)

    def test_periodic_chain_damped(self):
        # the two-cycle has no power-iteration limit without damping; the
        # exact solve needs none
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(stationary_vector(A), [0.5, 0.5],
                                   atol=1e-10)

    def test_slowly_mixing_chain(self):
        # a damped power iteration ran out of its million iterations here
        e = 1e-5
        A = np.array([[1 - e, e, 0.0], [0.5, 0.0, 0.5],
                      [0.0, 3 * e, 1 - 3 * e]])
        np.testing.assert_allclose(stationary_vector(A), stationary_oracle(A),
                                   atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_reducible_chain_rejected(self, seed):
        # two closed classes, shuffled: no unique stationary distribution.
        # Elimination on these seeds meets no exact zero pivot
        rng = np.random.default_rng(seed)
        A = np.zeros((7, 7))
        A[:3, :3] = dirichlet_stochastic(rng, 3)
        A[3:, 3:] = dirichlet_stochastic(rng, 4)
        p = rng.permutation(7)
        with pytest.raises(ValueError, match="no unique"):
            stationary_vector(A[p][:, p])


class TestRankOneStationary:
    def test_fixed_point_of_grid(self):
        rng = np.random.default_rng(8)
        A = dirichlet_stochastic(rng, 8)
        B = dirichlet_stochastic(rng, 8)
        mu, nu, X = rank_one_stationary(A, B)
        w = dirichlet_row(np.random.default_rng(9), 3)
        op = MarkovGridOperator([(w[0], A, np.eye(8)),
                                 (w[1], np.eye(8), B),
                                 (w[2], A, B)])
        np.testing.assert_allclose(op.apply_full(X), X, atol=1e-12)
        assert X.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.matrix_rank(X) == 1

    def test_outer_product_form(self):
        rng = np.random.default_rng(10)
        A = dirichlet_stochastic(rng, 5)
        B = dirichlet_stochastic(rng, 5)
        mu, nu, X = rank_one_stationary(A, B)
        np.testing.assert_allclose(X, np.outer(mu, nu), atol=1e-15)
        np.testing.assert_allclose(A.T @ mu, mu, atol=1e-11)
        np.testing.assert_allclose(B.T @ nu, nu, atol=1e-11)


class TestValidateGrid:
    def test_negative_weight_named(self):
        op = MarkovGridOperator([(1.5, np.eye(2), np.eye(2)),
                                 (-0.5, np.eye(2), np.eye(2))])
        failures = validate_grid(op)
        assert any("negative weight" in f for f in failures)

    def test_weight_sum_failure_named(self):
        op = MarkovGridOperator([(0.4, np.eye(3), np.eye(3))])
        failures = validate_grid(op)
        assert any("sum to" in f for f in failures)

    def test_row_sum_failure_names_term_and_row(self):
        A = np.eye(3)
        A[1, 1] = 0.7
        op = MarkovGridOperator([(1.0, A, np.eye(3))])
        failures = validate_grid(op)
        assert any("term 0" in f and "row 1" in f for f in failures)

    def test_negative_entry_named(self):
        A = np.eye(2)
        A[0, 0] = -1.0
        A[0, 1] = 2.0
        failures = validate_grid(MarkovGridOperator([(1.0, A, np.eye(2))]))
        assert any("negative" in f for f in failures)

    def test_failures_print_plain_floats(self):
        # each failure names its number as Python prints a float, not as
        # a numpy scalar repr such as np.float64(0.5)
        A = np.array([[-1.0, 2.0], [0.0, 0.5]])
        op = MarkovGridOperator([(1.5, A, np.eye(2)),
                                 (-0.25, np.eye(2), np.eye(2))])
        failures = validate_grid(op)
        assert not any("np.float64" in f for f in failures)
        for want in ("negative weight -0.25", "sum to 1.25",
                     "A[0,0] = -1.0 is", "A row 1 sums to 0.5 "):
            assert any(want in f for f in failures), want


class TestDemos:
    def test_path_walk_valid(self):
        assert validate_grid(demo_path_walk()) == []

    def test_clustered_walk_valid(self):
        assert validate_grid(demo_clustered_walk()) == []

    def test_clustered_walk_metastable(self):
        # the stationary matrix concentrates on the diagonal, so rank-2
        # truncation must mix signs; checked through the vectorization
        P = vectorize_operator(demo_clustered_walk())
        vals, vecs = np.linalg.eig(P.T)
        k = int(np.argmax(vals.real))
        assert vals[k].real == pytest.approx(1.0, abs=1e-12)
        X = np.abs(vecs[:, k].real).reshape((3, 3), order="F")
        X /= np.linalg.norm(X)
        s = np.linalg.svd(X, compute_uv=False)
        assert s[2] > 0.2 * s[0]
