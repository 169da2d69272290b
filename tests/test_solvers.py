"""Tests for the power and Krylov references and the two factored ODE
solvers.

Growth-operator eigenvalues are checked against a dense eigendecomposition
of the explicitly assembled operator matrix, built column by column from
basis matrices without reusing any solver code.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nneig.bench import ExperimentConfig, _vertex_init, build_operator
from nneig.lowrank import best_scaled_error, nmf
from nneig.markovgrid import (
    RandomGridSpec,
    demo_clustered_walk,
    demo_path_walk,
    generate_random_grid,
    rank_one_stationary,
)
from nneig.matcore import FactorPair, thin_qr
from nneig.operators import (
    HadamardGrowthOperator,
    LinearMatrixOperator,
    MarkovGridOperator,
    SeparableGrowthOperator,
    grid_points,
)
from nneig import solvers
from nneig.solvers import (
    ORTHONORMAL_TOL,
    PSIState,
    SolverError,
    _narrow_form,
    _normalize,
    _step_distance,
    krylov_reference,
    power_reference,
    psi_solve,
    rayleigh,
    rneg_solve,
)


def dense_rightmost(op):
    """Oracle: rightmost eigenpair from the vectorized dense operator."""
    m, n = op.shape
    cols = []
    E = np.zeros((m, n))
    for j in range(n):
        for i in range(m):
            E[i, j] = 1.0
            cols.append(op.apply_full(E).reshape(-1, order="F"))
            E[i, j] = 0.0
    P = np.array(cols).T
    w, V = np.linalg.eig(P)
    k = np.argmax(w.real)
    X = V[:, k].real.reshape((m, n), order="F")
    X /= np.linalg.norm(X)
    if X.sum() < 0:
        X = -X
    return w[k].real, X


def path_stationary():
    X = np.outer([1.0, 2.0, 1.0], [1.0, 2.0, 1.0])
    return X / np.linalg.norm(X)


def symmetric_grid():
    # symmetric stochastic factors make the operator self-adjoint
    A = np.array([[0.5, 0.5, 0.0],
                  [0.5, 0.0, 0.5],
                  [0.0, 0.5, 0.5]])
    I = np.eye(3)
    return MarkovGridOperator([(0.5, A, I), (0.5, I, A)])


class TestPowerReference:
    def test_path_walk_eigenvalue(self):
        rep = power_reference(demo_path_walk(), tol=1e-10)
        assert rep.eigenvalue == pytest.approx(1.0, abs=1e-8)
        assert rep.converged

    def test_path_walk_eigenmatrix(self):
        rep = power_reference(demo_path_walk(), tol=1e-10)
        np.testing.assert_allclose(rep.X, path_stationary(), atol=5e-4)

    def test_clustered_walk_eigenvalue(self):
        rep = power_reference(demo_clustered_walk(), tol=1e-10)
        assert rep.eigenvalue == pytest.approx(1.0, abs=1e-8)

    def test_residual_field_consistent(self):
        rep = power_reference(demo_clustered_walk(), tol=1e-10)
        assert rep.residual == pytest.approx(
            rayleigh(demo_clustered_walk(), rep.X)[1], abs=1e-14)
        assert rep.residual <= 1e-10

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_start_independence(self, seed):
        # P4: the limit does not depend on the (nonzero) starting matrix
        op = demo_clustered_walk()
        rng = np.random.default_rng(seed)
        X0 = rng.random((3, 3)) + 0.05
        rep = power_reference(op, tol=1e-11, X0=X0)
        base = power_reference(op, tol=1e-11)
        np.testing.assert_allclose(rep.X, base.X, atol=1e-8)

    def test_growth_operator_matches_dense_eig(self):
        op = SeparableGrowthOperator.standard(12)
        lam, X = dense_rightmost(op)
        rep = power_reference(op, tol=1e-11)
        assert rep.eigenvalue == pytest.approx(lam, abs=1e-9)
        np.testing.assert_allclose(rep.X, X, atol=1e-7)

    def test_unit_norm_and_nonnegative_mass(self):
        rep = power_reference(demo_path_walk(), tol=1e-10)
        assert np.linalg.norm(rep.X) == pytest.approx(1.0, abs=1e-12)
        assert rep.X.sum() > 0

    def test_zero_start_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            power_reference(demo_path_walk(), X0=np.zeros((3, 3)))

    def test_budget_exhaustion_reported(self):
        rep = power_reference(demo_clustered_walk(), tol=1e-12, max_iters=3)
        assert not rep.converged
        assert rep.iterations == 3


class TestKrylovReference:
    @pytest.mark.parametrize("make", [
        demo_path_walk,  # periodic: eigenvalue -1 sits opposite 1, undamped
        demo_clustered_walk,
        lambda: generate_random_grid(RandomGridSpec(n=7, seed=3)),
        lambda: SeparableGrowthOperator.standard(9),
        lambda: HadamardGrowthOperator.standard(9),
    ], ids=["path-walk", "clustered-walk", "random-grid-7", "separable-9",
            "hadamard-9"])
    def test_matches_power_and_dense_eig(self, make):
        op = make()
        rep = krylov_reference(op, tol=1e-11)
        assert rep.converged
        assert rep.residual <= 1e-11
        assert rep.residual == pytest.approx(rayleigh(op, rep.X)[1],
                                             abs=1e-14)
        assert np.linalg.norm(rep.X) == pytest.approx(1.0, abs=1e-12)
        assert rep.X.sum() > 0
        power = power_reference(op, tol=1e-11)
        assert rep.eigenvalue == pytest.approx(power.eigenvalue, abs=1e-10)
        np.testing.assert_allclose(rep.X, power.X, atol=1e-9)
        lam, X = dense_rightmost(op)
        assert rep.eigenvalue == pytest.approx(lam, abs=1e-9)
        np.testing.assert_allclose(rep.X, X, atol=1e-7)

    def test_fewer_applications_than_power(self):
        op = HadamardGrowthOperator.standard(9)
        rep = krylov_reference(op, tol=1e-11)
        assert rep.iterations < power_reference(op, tol=1e-11).iterations

    def test_budget_exhaustion_reported(self):
        op = SeparableGrowthOperator.standard(9)
        rep = krylov_reference(op, tol=1e-14, max_iters=7)
        assert not rep.converged
        assert rep.iterations <= 7
        assert rep.residual == pytest.approx(rayleigh(op, rep.X)[1],
                                             abs=1e-14)

    def test_basis_capped_by_matrix_size(self):
        # m * n = 9 is below KRYLOV_BASIS = 10: the first cycle spans the
        # whole space, so one cycle and one check suffice
        rep = krylov_reference(demo_path_walk(), tol=1e-12)
        assert rep.details["basis"] == 9
        assert rep.converged
        assert rep.details["restarts"] == 1
        np.testing.assert_allclose(rep.X, path_stationary(), atol=1e-12)

    def test_breakdown_on_rank_one_shared_pair_grid(self):
        # rank-one transition matrices confine the Krylov space of the
        # uniform start to span{11^T, mu 1^T, 1 nu^T, mu nu^T}
        rng = np.random.default_rng(2)
        mu = rng.random(6)
        nu = rng.random(6)
        mu /= mu.sum()
        nu /= nu.sum()
        A = np.outer(np.ones(6), mu)
        B = np.outer(np.ones(6), nu)
        eye = np.eye(6)
        op = MarkovGridOperator([(0.2, A, eye), (0.3, eye, B), (0.5, A, B)])
        rep = krylov_reference(op, tol=1e-12)
        assert rep.details["breakdown"]
        assert rep.converged
        assert rep.iterations <= 5
        assert rep.eigenvalue == pytest.approx(1.0, abs=1e-12)
        X = np.outer(mu, nu)
        np.testing.assert_allclose(rep.X, X / np.linalg.norm(X), atol=1e-12)

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="max_iters"):
            krylov_reference(demo_path_walk(), max_iters=0)


class TestRNeg:
    def test_path_walk_rank1(self):
        rep = rneg_solve(demo_path_walk(), rank=1, seed=0)
        assert rep.converged
        assert np.abs(rep.X - path_stationary()).max() <= 1e-4
        assert rep.eigenvalue == pytest.approx(1.0, abs=1e-6)

    def test_factors_exactly_nonnegative(self):
        rep = rneg_solve(demo_clustered_walk(), rank=2, seed=1)
        assert np.all(rep.factors.U >= 0)
        assert np.all(rep.factors.V >= 0)
        assert rep.neg_count == 0
        assert np.all(rep.X >= 0)

    def test_unit_norm_iterate(self):
        rep = rneg_solve(demo_clustered_walk(), rank=2, seed=1)
        assert np.linalg.norm(rep.X) == pytest.approx(1.0, abs=1e-10)

    def test_product_matches_factors(self):
        rep = rneg_solve(demo_clustered_walk(), rank=2, seed=1)
        P = rep.factors.U @ rep.factors.V.T
        np.testing.assert_allclose(rep.X, P / np.linalg.norm(P), atol=1e-12)

    def test_seed_determinism(self):
        a = rneg_solve(demo_clustered_walk(), rank=2, seed=7)
        b = rneg_solve(demo_clustered_walk(), rank=2, seed=7)
        assert np.array_equal(a.X, b.X)
        assert a.eigenvalue == b.eigenvalue

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_clustered_walk_stationary_error(self, seed):
        # frozen: seeds land on a common stationary point at error 0.53415
        ref = power_reference(demo_clustered_walk(), tol=1e-12)
        rep = rneg_solve(demo_clustered_walk(), rank=2, seed=seed)
        err = best_scaled_error(rep.X, ref.X)
        assert err == pytest.approx(0.53415, abs=5e-4)

    def test_eigenvalue_ascends_for_self_adjoint_operator(self):
        # the solve is deterministic, so a budget of k accepted steps stops
        # at the k-th accepted iterate of the full run
        sym = symmetric_grid()
        K = rneg_solve(sym, rank=2, seed=4).iterations
        lams = np.array([rneg_solve(sym, rank=2, seed=4, nmax=k).eigenvalue
                         for k in range(1, K + 1)])
        assert lams.size > 100
        assert np.all(np.diff(lams) >= -1e-12)

    def test_warm_start_at_eigenpair_converges_fast(self):
        y = np.array([1.0, 2.0, 1.0])
        pair = FactorPair(y[:, None].copy(), y[:, None].copy())
        rep = rneg_solve(demo_path_walk(), rank=1, init=pair)
        assert rep.converged
        assert rep.iterations <= 50
        assert np.abs(rep.X - path_stationary()).max() <= 1e-6

    def test_parameter_validation(self):
        op = demo_path_walk()
        with pytest.raises(ValueError, match="rank"):
            rneg_solve(op, rank=0)
        with pytest.raises(ValueError, match="rank"):
            rneg_solve(op, rank=4)
        # counts are integers, as the bench config's are
        with pytest.raises(ValueError, match="rank"):
            rneg_solve(op, rank=1.0)
        with pytest.raises(ValueError, match="nmax"):
            rneg_solve(op, rank=1, nmax=2.5)
        with pytest.raises(ValueError, match="h0"):
            rneg_solve(op, rank=1, h0=-0.1)
        with pytest.raises(ValueError, match="init"):
            rneg_solve(op, rank=1,
                       init=FactorPair(np.ones((3, 2)), np.ones((3, 2))))

    @given(arrays(float, (4, 2), elements=st.floats(0, 5)),
           arrays(float, (3, 2), elements=st.floats(0, 5)))
    @settings(max_examples=100, deadline=None)
    def test_normalize_gram_norm_matches_dense(self, U, V):
        # rneg scales its factors by the norm of U V^T taken through the
        # Gram matrices, without forming U V^T
        W = np.concatenate((U, V))
        gram = 0.0
        grams = _normalize(W, 4)
        if grams is not None:
            gram = (W.max() / max(U.max(), V.max())) ** -2
            # the Grams it returns are those of the scaled factors
            for G, F in zip(grams, (W[:4], W[4:])):
                np.testing.assert_allclose(G, F.T @ F, rtol=1e-14,
                                           atol=1e-14 * np.abs(G).max())
        assert gram == pytest.approx(np.linalg.norm(U @ V.T), abs=1e-9)

    @pytest.mark.parametrize("h0", [np.inf, np.nan])
    def test_non_finite_step_rejected(self, h0):
        with pytest.raises(ValueError, match="h0"):
            rneg_solve(demo_path_walk(), rank=1, h0=h0)

    def test_step_grows_past_h0(self):
        rep = rneg_solve(demo_path_walk(), rank=1, seed=0, h0=0.01)
        assert rep.converged
        assert rep.details["h_min"] == 0.01
        assert rep.details["h_max"] > 1.0

    def test_rejected_count_matches_projected_applies(self):
        # one assembled image at the start and one per trial step, accepted
        # or rejected; perfbench's tracer derives rejections from the same
        # identity
        op = AssembledImage(demo_clustered_walk())
        rep = rneg_solve(op, rank=2, seed=0)
        assert rep.details["stop"] == "converged"
        assert rep.details["rejected"] > 0
        assert op.calls == 1 + rep.iterations + rep.details["rejected"]

    def test_budget_stop_reported(self):
        rep = rneg_solve(demo_clustered_walk(), rank=2, seed=0, nmax=5)
        assert not rep.converged
        assert rep.iterations == 5
        assert rep.details["stop"] == "budget"

    def test_frozen_factor_converges(self):
        # at rank one on this grid the U gradient reaches roundoff long
        # before V settles; a per-factor acceptance test then rejected
        # every trial and shrank the step to nothing
        op = generate_random_grid(RandomGridSpec(n=8, family="shared-pair",
                                                 seed=17))
        _, _, Xstar = rank_one_stationary(op.terms[0][1], op.terms[1][2])
        rep = rneg_solve(op, rank=1, seed=17)
        assert rep.converged
        assert best_scaled_error(rep.X, Xstar) <= 1e-4

    def test_block_grid_warm_start_step_count(self):
        # first trial of the shipped block-grid benchmark config, warm
        # started from the reference as the bench does
        cfg = ExperimentConfig(kind="block-grid", n=50, rank=10, seed=7,
                               delta=0.2)
        op = build_operator(cfg, cfg.seed)
        ref = krylov_reference(op, tol=cfg.power_tol,
                               max_iters=cfg.power_iters)
        Xpos = np.maximum(ref.X, 0.0)
        pair = _vertex_init(Xpos, nmf(Xpos, cfg.rank, seed=cfg.seed))
        rep = rneg_solve(op, cfg.rank, seed=cfg.seed, init=pair)
        assert rep.converged
        assert rep.iterations <= 200

    def test_random_grid_rank3_cold_converges(self):
        cfg = ExperimentConfig(kind="random-grid", n=100, rank=3, seed=0)
        rep = rneg_solve(build_operator(cfg, 0), 3, seed=0)
        assert rep.converged
        assert rep.neg_count == 0

    def test_initial_step_does_not_move_the_answer(self):
        # trial 0 of the shipped random-grid config; the stop reads the
        # projected gradient at a threshold set by the default step, so
        # a 40x larger first step ends the solve about as accurate
        cfg = ExperimentConfig(kind="random-grid", n=100, rank=3, seed=0)
        op = build_operator(cfg, 0)
        ref = krylov_reference(op, tol=cfg.power_tol)
        errs = []
        for h0 in (None, 0.4):
            rep = rneg_solve(op, 3, h0=h0, seed=0)
            assert rep.converged
            errs.append(best_scaled_error(rep.X, ref.X))
        assert max(errs) <= 2 * min(errs)

    def test_grad_reports_the_stop_quantity(self):
        # the projected-gradient norm the stop reads, at its default tol
        walk = demo_clustered_walk()
        done = rneg_solve(walk, rank=2, seed=0)
        assert done.details["stop"] == "converged"
        assert done.details["grad"] <= 1e-8 / walk.default_step()
        growth = HadamardGrowthOperator.standard(20)
        cut = rneg_solve(growth, rank=3, seed=0, nmax=50)
        assert cut.details["stop"] == "budget"
        assert cut.details["grad"] > 1e-8 / growth.default_step()


class TestPSI:
    def test_path_walk_rank1(self):
        rep = psi_solve(demo_path_walk(), rank=1, seed=0, tol=1e-10)
        assert rep.converged
        assert np.abs(rep.X - path_stationary()).max() <= 1e-8
        assert rep.eigenvalue == pytest.approx(1.0, abs=1e-10)

    def test_orthonormal_state_factors(self):
        rep = psi_solve(demo_clustered_walk(), rank=2, seed=0, tol=1e-10)
        st_ = rep.psi_state
        np.testing.assert_allclose(st_.U.T @ st_.U, np.eye(2), atol=1e-9)
        np.testing.assert_allclose(st_.V.T @ st_.V, np.eye(2), atol=1e-9)
        np.testing.assert_allclose(rep.X, st_.U @ st_.S @ st_.V.T,
                                   atol=1e-12)

    def test_clustered_walk_signed_limit(self):
        # the unconstrained rank-2 limit carries negative entries, like the
        # SVD truncation it approximates
        ref = power_reference(demo_clustered_walk(), tol=1e-12)
        rep = psi_solve(demo_clustered_walk(), rank=2, seed=0, tol=1e-10)
        assert rep.neg_count > 0
        assert best_scaled_error(rep.X, ref.X) == pytest.approx(0.534, abs=2e-3)

    def test_growth_operator_high_accuracy(self):
        op = SeparableGrowthOperator.standard(16)
        lam, X = dense_rightmost(op)
        rep = psi_solve(op, rank=3, seed=0, tol=1e-11)
        assert rep.eigenvalue == pytest.approx(lam, abs=1e-8)
        assert best_scaled_error(rep.X, X) <= 1e-6

    def test_seed_determinism(self):
        a = psi_solve(demo_clustered_walk(), rank=2, seed=5)
        b = psi_solve(demo_clustered_walk(), rank=2, seed=5)
        assert np.array_equal(a.X, b.X)

    def test_warm_start_state(self):
        op = demo_path_walk()
        X = path_stationary()
        U, s, Vt = np.linalg.svd(X)
        state = PSIState(U[:, :1].copy(), np.diag(s[:1]), Vt[:1].T.copy())
        rep = psi_solve(op, rank=1, init=state, tol=1e-10)
        assert rep.converged
        assert rep.iterations <= 10

    def test_warm_start_shape_checked(self):
        op = HadamardGrowthOperator.standard(9)
        rng = np.random.default_rng(0)
        U, _ = thin_qr(rng.standard_normal((9, 3)))
        V, _ = thin_qr(rng.standard_normal((9, 3)))
        state = PSIState(U, np.eye(3), V)
        # a rank-3 state would otherwise run as a rank-3 solve
        with pytest.raises(ValueError, match="init"):
            psi_solve(op, rank=1, init=state)
        with pytest.raises(ValueError, match="init"):
            psi_solve(op, rank=3, init=PSIState(U[:8], np.eye(3), V))
        with pytest.raises(ValueError, match="init"):
            psi_solve(op, rank=3, init=PSIState(U, np.eye(3), V[:, :2]))

    @pytest.mark.parametrize("core", [0.0, np.nan, np.inf])
    def test_warm_start_degenerate_core_rejected(self, core):
        # rejected before the first step, without a division warning
        rng = np.random.default_rng(0)
        U, _ = thin_qr(rng.standard_normal((9, 2)))
        V, _ = thin_qr(rng.standard_normal((9, 2)))
        S = np.array([[core, 0.0], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="core"):
                psi_solve(HadamardGrowthOperator.standard(9), rank=2,
                          init=PSIState(U, S, V))

    @pytest.mark.parametrize("side", ["U", "V"])
    def test_warm_start_not_orthonormal_rejected(self, side):
        # the splitting and its stop test assume orthonormal factors; a
        # start off by more than ORTHONORMAL_TOL is rejected before the
        # first image
        rng = np.random.default_rng(0)
        U, _ = thin_qr(rng.standard_normal((9, 2)))
        V, _ = thin_qr(rng.standard_normal((9, 2)))
        S = np.diag([0.8, 0.6])
        for scale, ok in ((1.0 + 1e-2 * ORTHONORMAL_TOL, True),
                          (1.0 + ORTHONORMAL_TOL, False), (2.0, False)):
            F = {"U": U, "V": V}
            F[side] = F[side] * np.array([1.0, scale])
            op = AssembledImage(HadamardGrowthOperator.standard(9))
            state = PSIState(F["U"], S, F["V"])
            if ok:
                psi_solve(op, rank=2, init=state, max_steps=1)
                assert op.calls > 0
            else:
                with pytest.raises(ValueError, match=f"{side} must have "
                                   "orthonormal columns"):
                    psi_solve(op, rank=2, init=state, max_steps=1)
                assert op.calls == 0

    @pytest.mark.parametrize("assembled", [False, True])
    def test_factor_sign_flips_leave_iterate_bit_identical(self, assembled):
        # flipping the signs of some columns of U and the matching rows of
        # S (or of V and the columns of S) leaves U S V^T unchanged, and
        # floating point rounds a negated operand to the negated result,
        # so every later step, QR included, differs only in those signs
        op = TestProjectedImagePath.nonsymmetric_growth()
        if assembled:
            op = AssembledImage(op)
        rng = np.random.default_rng(2)
        U, _ = thin_qr(rng.standard_normal((30, 3)))
        V, _ = thin_qr(rng.standard_normal((30, 3)))
        S = rng.standard_normal((3, 3))
        base = psi_solve(op, rank=3, h=1e-3, max_steps=40,
                         init=PSIState(U, S, V))
        d = np.array([1.0, -1.0, -1.0])
        e = np.array([-1.0, 1.0, -1.0])
        for state in (PSIState(U * d, d[:, None] * S, V),
                      PSIState(U, S * e, V * e),
                      PSIState(U * d, d[:, None] * S * e, V * e)):
            rep = psi_solve(op, rank=3, h=1e-3, max_steps=40, init=state)
            assert np.array_equal(rep.X, base.X)

    def test_unit_norm_iterate(self):
        rep = psi_solve(demo_clustered_walk(), rank=2, seed=0)
        assert np.linalg.norm(rep.X) == pytest.approx(1.0, abs=1e-10)

    def test_parameter_validation(self):
        op = demo_path_walk()
        with pytest.raises(ValueError, match="rank"):
            psi_solve(op, rank=0)
        with pytest.raises(ValueError, match="rank"):
            psi_solve(op, rank=5)
        with pytest.raises(ValueError, match="step"):
            psi_solve(op, rank=1, h=0.0)

    @pytest.mark.parametrize("h", [np.inf, np.nan])
    def test_non_finite_step_rejected(self, h):
        with pytest.raises(ValueError, match="step"):
            psi_solve(demo_path_walk(), rank=1, h=h)

    @pytest.mark.parametrize("h", [1e150, 1e300])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid:RuntimeWarning")
    def test_diverging_solve_is_a_solver_error(self, h):
        # a step far past the stability bound overflows the substeps; the
        # QR passes the non-finite values on and psi's own checks stop it
        with pytest.raises(SolverError, match="non-finite|blew up"):
            psi_solve(HadamardGrowthOperator.standard(20), 2, h=h)

    @pytest.mark.parametrize("assembled", [False, True])
    def test_qr_bit_identical_to_numpy_qr(self, monkeypatch, assembled):
        # the substeps' QR calls numpy's LAPACK kernels without the
        # np.linalg.qr wrapper; with the wrapper patched back in, warm
        # solves on the two paths give the same iterate bit for bit
        if assembled:
            op = build_operator(ExperimentConfig(kind="block-grid", n=50,
                                                 rank=10, seed=7), 7)
            rank, steps = 10, 100
            assert _narrow_form(op, rank) is None
        else:
            op = HadamardGrowthOperator.standard(100)
            rank, steps = 3, 300
            assert _narrow_form(op, rank) is not None
        U, s, Vt = np.linalg.svd(krylov_reference(op, tol=1e-8).X)
        state = PSIState(U[:, :rank], np.diag(s[:rank]), Vt[:rank].T)
        fast = psi_solve(op, rank, max_steps=steps, init=state)
        monkeypatch.setattr(solvers, "_qr", np.linalg.qr)
        ref = psi_solve(op, rank, max_steps=steps, init=state)
        assert fast.iterations == ref.iterations == steps
        assert np.array_equal(fast.X, ref.X)

    def test_default_step_stable_on_hadamard_growth(self):
        # the stiffness-derived default step keeps the explicit splitting
        # stable where the diffusion term is stiffest among the shipped
        # configs; a step at the stability bound ends far from the target
        op = HadamardGrowthOperator.standard(100)
        ref = krylov_reference(op, tol=1e-10)
        rep = psi_solve(op, 3, max_steps=2000)
        assert rep.eigenvalue == pytest.approx(ref.eigenvalue, abs=1e-2)

    def test_stop_reason(self):
        done = psi_solve(demo_path_walk(), rank=1, seed=0, tol=1e-10)
        assert done.converged and done.details["stop"] == "converged"
        cut = psi_solve(demo_path_walk(), rank=1, seed=0, tol=1e-10,
                        max_steps=5)
        assert cut.iterations == 5
        assert not cut.converged and cut.details["stop"] == "budget"


@settings(max_examples=200, deadline=None)
@given(m=st.integers(4, 12), extra=st.integers(1, 6), r=st.integers(1, 4),
       size=st.sampled_from([1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12]),
       seed=st.integers(0, 2**32 - 1), wide=st.booleans())
def test_step_distance_matches_dense(m, extra, r, size, seed, wide):
    # psi's stop distance between two orthonormal-factor states against
    # the Frobenius norm of the difference of the formed products, for
    # steps from O(1) down to 1e-12
    m, n = (m, m + extra) if wide else (m + extra, m)
    rng = np.random.default_rng(seed)
    U0, _ = thin_qr(rng.standard_normal((m, r)))
    V0, _ = thin_qr(rng.standard_normal((n, r)))
    S0 = rng.standard_normal((r, r))
    S0 /= np.linalg.norm(S0)
    U1, _ = thin_qr(U0 + size * rng.standard_normal((m, r)))
    V1, _ = thin_qr(V0 + size * rng.standard_normal((n, r)))
    S1 = S0 + size * rng.standard_normal((r, r))
    S1 /= np.linalg.norm(S1)
    dense = np.linalg.norm(U1 @ S1 @ V1.T - U0 @ S0 @ V0.T)
    got = _step_distance(U0 @ S0, S0, V0, U1 @ S1, V1)
    assert abs(got - dense) <= 1e-13


class AssembledImage(LinearMatrixOperator):
    """Delegates ``apply_full`` and ``apply_factored`` only, so the solvers
    see the default ``factor_form``, None, and assemble the image; counts
    the ``apply_factored`` calls."""

    def __init__(self, op):
        self.op = op
        self.shape = op.shape
        self.calls = 0

    def apply_full(self, X):
        return self.op.apply_full(X)

    def apply_factored(self, U, V):
        self.calls += 1
        return self.op.apply_factored(U, V)

    def default_step(self):
        return self.op.default_step()

    def default_shift(self):
        return self.op.default_shift()


def _counted_form(op, calls):
    """Make ``op``'s factor form count its lifts in ``calls`` and forbid
    every other way of evaluating its image on factors."""
    form = op.factor_form()

    def counted(side, lift):
        def run(M):
            calls[side] += 1
            return lift(M)
        return run

    counted_form = form._replace(left=counted("left", form.left),
                                 right=counted("right", form.right))
    op.factor_form = lambda: counted_form

    def forbidden(*args):
        raise AssertionError("the image was assembled")

    op.apply_factored = forbidden


class TestProjectedImagePath:
    """The factor form of an operator's image drives both factored solvers
    to the same iterates as the assembled image."""

    # families with a narrow factor form besides nonsymmetric_growth
    FAMILIES = {
        "separable": lambda: SeparableGrowthOperator.standard(30),
        "random-grid": lambda: generate_random_grid(
            RandomGridSpec(n=30, seed=5, family="shared-pair")),
    }

    @staticmethod
    def nonsymmetric_growth(n=30):
        # rank-3 growth rate with R != R^T, so evaluating the L-step at the
        # transposed pair would apply the operator to X^T and show up here
        x = grid_points(n)
        R = (0.1 + np.outer(np.sin(2 * np.pi * x), np.cos(3 * np.pi * x))
             + np.outer(x, x ** 2))
        base = HadamardGrowthOperator.standard(n)
        op = HadamardGrowthOperator(base.A, base.eps, base.eps_r, R)
        assert _narrow_form(op, 3).blocks == 5  # the factor form is used
        return op

    def test_psi_matches_assembled_image(self):
        op = self.nonsymmetric_growth()
        a = psi_solve(op, rank=3, h=1e-3, max_steps=200, seed=3)
        b = psi_solve(AssembledImage(op), rank=3, h=1e-3, max_steps=200,
                      seed=3)
        assert a.iterations == b.iterations == 200
        assert np.abs(a.X - b.X).max() <= 1e-9
        assert a.eigenvalue == pytest.approx(b.eigenvalue, abs=1e-9)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_psi_matches_assembled_image_family(self, family):
        op = self.FAMILIES[family]()
        assert _narrow_form(op, 3) is not None
        a = psi_solve(op, rank=3, max_steps=200, seed=3)
        b = psi_solve(AssembledImage(op), rank=3, max_steps=200, seed=3)
        assert a.iterations == b.iterations
        assert np.abs(a.X - b.X).max() <= 1e-9
        assert a.eigenvalue == pytest.approx(b.eigenvalue, abs=1e-9)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_rneg_matches_assembled_image_family(self, family):
        op = self.FAMILIES[family]()
        a = rneg_solve(op, rank=3, nmax=50, seed=3)
        b = rneg_solve(AssembledImage(op), rank=3, nmax=50, seed=3)
        assert a.iterations == b.iterations
        assert a.details["rejected"] == b.details["rejected"]
        assert np.abs(a.X - b.X).max() <= 1e-9
        assert a.eigenvalue == pytest.approx(b.eigenvalue, abs=1e-9)

    @pytest.mark.parametrize("family", ["hadamard", *sorted(FAMILIES)])
    def test_psi_lifts_each_factor_once_per_step(self, family):
        # over k steps psi lifts U_0 .. U_k and V_0 .. V_{k-1} once each
        # and never assembles the image; the report reads X through
        # apply_full
        op = (self.nonsymmetric_growth() if family == "hadamard"
              else self.FAMILIES[family]())
        calls = {"left": 0, "right": 0}
        _counted_form(op, calls)
        k = 7
        rep = psi_solve(op, rank=3, max_steps=k, seed=1)
        assert rep.iterations == k and not rep.converged
        assert calls == {"left": k + 1, "right": k}

    def test_psi_assembles_three_images_per_step(self):
        # without a narrow form each substep assembles its image once, and
        # nothing is assembled after the last step
        op = AssembledImage(self.nonsymmetric_growth())
        k = 7
        rep = psi_solve(op, rank=3, max_steps=k, seed=1)
        assert rep.iterations == k and not rep.converged
        assert op.calls == 3 * k

    def test_psi_step_matches_dense_substeps(self):
        # one step against the three substeps written out on the dense
        # flow G(X) = A(X) - <A(X), X> X
        op = self.nonsymmetric_growth()
        rng = np.random.default_rng(4)
        U, _ = thin_qr(rng.standard_normal((30, 3)))
        V, _ = thin_qr(rng.standard_normal((30, 3)))
        S = np.diag([0.8, 0.5, 0.33])
        S /= np.linalg.norm(S)
        h = 1e-2

        def G(X):
            Y = op.apply_full(X)
            return Y - np.sum(Y * X) * X

        U1, S_hat = thin_qr(U @ S + h * G(U @ S @ V.T) @ V)
        S_tilde = S_hat - h * U1.T @ G(U1 @ S_hat @ V.T) @ V
        V1, S1t = thin_qr(V @ S_tilde.T + h * G(U1 @ S_tilde @ V.T).T @ U1)
        X = U1 @ S1t.T @ V1.T / np.linalg.norm(S1t)
        rep = psi_solve(op, rank=3, h=h, max_steps=1, init=PSIState(U, S, V))
        assert np.abs(rep.X - np.sign(X.sum()) * X).max() <= 1e-12

    def test_rneg_matches_assembled_image(self):
        op = self.nonsymmetric_growth()
        a = rneg_solve(op, rank=3, nmax=50, seed=3)
        b = rneg_solve(AssembledImage(op), rank=3, nmax=50, seed=3)
        assert a.iterations == b.iterations == 50
        assert a.details["rejected"] == b.details["rejected"]
        assert np.abs(a.X - b.X).max() <= 1e-9
        assert a.eigenvalue == pytest.approx(b.eigenvalue, abs=1e-9)


@pytest.mark.parametrize("solve", [
    lambda op, tol: power_reference(op, tol=tol),
    lambda op, tol: krylov_reference(op, tol=tol),
    lambda op, tol: psi_solve(op, 1, tol=tol),
    lambda op, tol: rneg_solve(op, 1, tol=tol),
], ids=["power", "krylov", "psi", "rneg"])
@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
def test_bad_tolerance_rejected(solve, tol):
    # a NaN or negative tolerance can never be met, so the solve would
    # spend its whole budget; an infinite one is met by any iterate
    with pytest.raises(ValueError, match="tol"):
        solve(demo_path_walk(), tol)


@pytest.mark.parametrize("solve", [
    lambda op, n: power_reference(op, max_iters=n),
    lambda op, n: krylov_reference(op, max_iters=n),
    lambda op, n: psi_solve(op, 1, max_steps=n),
    lambda op, n: rneg_solve(op, 1, nmax=n),
], ids=["power", "krylov", "psi", "rneg"])
@pytest.mark.parametrize("budget", [0, -1])
def test_bad_budget_rejected(solve, budget):
    # a solve without a single step would return its start as a result
    with pytest.raises(ValueError, match="at least 1"):
        solve(demo_path_walk(), budget)


@pytest.mark.parametrize("make,solve,key", [
    (demo_path_walk, lambda op, **kw: power_reference(op, tol=1e-10, **kw),
     "max_iters"),
    (lambda: SeparableGrowthOperator.standard(9),
     lambda op, **kw: krylov_reference(op, tol=1e-11, **kw), "max_iters"),
    (demo_path_walk, lambda op, **kw: psi_solve(op, 1, tol=1e-10, **kw),
     "max_steps"),
    (demo_path_walk, lambda op, **kw: rneg_solve(op, 1, **kw), "nmax"),
], ids=["power", "krylov", "psi", "rneg"])
@pytest.mark.parametrize("stop", ["converged", "budget"])
def test_stop_reason(make, solve, key, stop):
    # the report describes the X it returns, also when the budget ran out
    op = make()
    rep = solve(op, **({key: 3} if stop == "budget" else {}))
    assert rep.details["stop"] == stop
    assert rep.converged == (stop == "converged")
    Y = op.apply_full(rep.X)
    lam = np.sum(Y * rep.X)
    assert rep.eigenvalue == pytest.approx(lam, abs=1e-14)
    assert rep.residual == pytest.approx(np.linalg.norm(Y - lam * rep.X),
                                         abs=1e-14)
    assert rep.neg_count == np.count_nonzero(rep.X < 0)


class TestRayleigh:
    def test_matches_manual_norm(self):
        op = demo_path_walk()
        rng = np.random.default_rng(3)
        X = rng.random((3, 3))
        X /= np.linalg.norm(X)
        Y = op.apply_full(X)
        lam = np.sum(Y * X)
        want = (lam, np.linalg.norm(Y - lam * X))
        assert rayleigh(op, X) == pytest.approx(want, rel=1e-14)
        # a caller holding the image passes it instead
        assert rayleigh(op, X, 2 * Y) == pytest.approx(
            (2 * lam, 2 * want[1]), rel=1e-14)
