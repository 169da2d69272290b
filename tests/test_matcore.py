"""Unit and property tests for the dense primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from nneig.matcore import (
    FactorPair,
    as_matrix,
    frobenius_inner,
    project_feasible_direction,
    thin_qr,
)


finite_floats = st.floats(min_value=-10, max_value=10, allow_nan=False,
                          allow_infinity=False)


class TestProjections:
    @given(arrays(float, array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=finite_floats))
    @settings(max_examples=150, deadline=None)
    def test_feasible_projection_properties(self, Z):
        W = np.abs(Z)  # nonnegative base with zeros where Z is zero
        P = project_feasible_direction(W, Z)
        # never negative on the zero pattern
        assert np.all(P[W == 0] >= 0)
        # untouched on the support
        assert np.array_equal(P[W > 0], Z[W > 0])
        # nonnegative alignment with the unprojected direction
        assert frobenius_inner(Z, P) >= -1e-12

    @given(arrays(float, array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=finite_floats))
    @settings(max_examples=150, deadline=None)
    def test_feasible_projection_idempotent(self, Z):
        W = np.abs(Z)
        P = project_feasible_direction(W, Z)
        np.testing.assert_array_equal(project_feasible_direction(W, P), P)

    def test_negative_pattern_rejected(self):
        W = np.array([[-1.0, 0.0]])
        Z = np.zeros((1, 2))
        with pytest.raises(ValueError):
            project_feasible_direction(W, Z)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            project_feasible_direction(np.zeros((2, 2)), np.zeros((2, 3)))


class TestFrobeniusInner:
    @given(arrays(float, (3, 4), elements=finite_floats),
           arrays(float, (3, 4), elements=finite_floats))
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_trace_form(self, A, B):
        ab = frobenius_inner(A, B)
        assert ab == pytest.approx(frobenius_inner(B, A), abs=1e-12)
        assert ab == pytest.approx(float(np.trace(A.T @ B)), abs=1e-9)

    def test_norm_consistency(self):
        A = np.arange(6.0).reshape(2, 3)
        assert frobenius_inner(A, A) == pytest.approx(np.linalg.norm(A) ** 2)


class TestThinQR:
    @given(arrays(float, st.tuples(st.integers(2, 8), st.integers(1, 4))
                  .filter(lambda s: s[0] >= s[1]),
                  elements=finite_floats))
    @settings(max_examples=150, deadline=None)
    def test_factorization_properties(self, M):
        Q, R = thin_qr(M)
        k = M.shape[1]
        np.testing.assert_allclose(Q @ R, M, atol=1e-10)
        np.testing.assert_allclose(Q.T @ Q, np.eye(k), atol=1e-10)
        assert np.all(np.diag(R) >= 0)
        assert np.allclose(R, np.triu(R))

    def test_orthonormal_input_fixed_point(self):
        Q0 = np.eye(5)[:, :3]
        Q, R = thin_qr(Q0)
        np.testing.assert_allclose(Q, Q0, atol=1e-14)
        np.testing.assert_allclose(R, np.eye(3), atol=1e-14)

    def test_sign_convention_deterministic(self):
        M = np.array([[-2.0, 1.0], [0.0, 3.0], [1.0, -1.0]])
        Q1, R1 = thin_qr(M)
        Q2, R2 = thin_qr(M.copy())
        np.testing.assert_array_equal(Q1, Q2)
        np.testing.assert_array_equal(R1, R2)
        assert np.all(np.diag(R1) >= 0)

    def test_rank_deficient_column(self):
        M = np.zeros((4, 2))
        M[:, 0] = [1.0, 2.0, 2.0, 0.0]
        Q, R = thin_qr(M)  # second column identically zero
        np.testing.assert_allclose(Q @ R, M, atol=1e-12)
        assert R[1, 1] == 0

    def test_wide_input_rejected(self):
        with pytest.raises(ValueError):
            thin_qr(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        M = np.ones((4, 2))
        M[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            thin_qr(M)


class TestAsMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.nan]])

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])

    def test_casts_ints(self):
        M = as_matrix([[1, 2], [3, 4]])
        assert M.dtype == np.float64


class TestFactorPair:
    def test_rank_bound_and_shape(self):
        U = np.array([[1.0, 0.0], [0.0, 2.0]])
        V = np.array([[1.0, 1.0], [0.5, 0.0], [0.0, 3.0]])
        fp = FactorPair(U, V)
        assert fp.rank_bound == 2
        assert fp.shape == (2, 3)

    def test_negative_factor_rejected(self):
        with pytest.raises(ValueError):
            FactorPair(np.array([[-1.0]]), np.array([[1.0]]))

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FactorPair(np.ones((2, 2)), np.ones((3, 1)))
