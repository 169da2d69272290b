"""Tests for the power and Krylov references and the two factored ODE
solvers.

Growth-operator eigenvalues are checked against a dense eigendecomposition
of the explicitly assembled operator matrix, built column by column from
basis matrices without reusing any solver code.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from nneig.solvers import (
    PSIState,
    krylov_reference,
    power_reference,
    psi_solve,
    residual,
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
            residual(demo_clustered_walk(), rep.X, rep.eigenvalue), abs=1e-14)
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

    def test_damping_validation(self):
        with pytest.raises(ValueError, match="damping"):
            power_reference(demo_path_walk(), damping=1.0)

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
        assert rep.residual == pytest.approx(
            residual(op, rep.X, rep.eigenvalue), abs=1e-14)
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
        assert rep.residual == pytest.approx(
            residual(op, rep.X, rep.eigenvalue), abs=1e-14)

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
        with pytest.raises(ValueError, match="h0"):
            rneg_solve(op, rank=1, h0=-0.1)
        with pytest.raises(ValueError, match="init"):
            rneg_solve(op, rank=1,
                       init=FactorPair(np.ones((3, 2)), np.ones((3, 2))))

    @pytest.mark.parametrize("h0", [np.inf, np.nan])
    def test_non_finite_step_rejected(self, h0):
        # the step-relative stop divides by h0
        with pytest.raises(ValueError, match="h0"):
            rneg_solve(demo_path_walk(), rank=1, h0=h0)

    def test_step_grows_past_h0(self):
        rep = rneg_solve(demo_path_walk(), rank=1, seed=0, h0=0.01)
        assert rep.converged
        assert rep.details["h_min"] == 0.01
        assert rep.details["h_max"] > 1.0

    def test_rejected_count_matches_projected_applies(self):
        # one projected apply at the start and one per trial step, accepted
        # or rejected; perfbench's tracer derives rejections from the same
        # identity
        op = CountedProjections(demo_clustered_walk())
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
        np.testing.assert_allclose(rep.X, st_.product(), atol=1e-12)

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


class AssembledImage(LinearMatrixOperator):
    """Delegates ``apply_full`` and ``apply_factored`` only, so the solvers
    see the default ``apply_projected``, which assembles the image."""

    def __init__(self, op):
        self.op = op
        self.shape = op.shape
        self.preserves_nonnegativity = op.preserves_nonnegativity
        self.is_metzler = op.is_metzler

    def apply_full(self, X):
        return self.op.apply_full(X)

    def apply_factored(self, U, V):
        return self.op.apply_factored(U, V)

    def default_step(self):
        return self.op.default_step()

    def default_shift(self):
        return self.op.default_shift()


class CountedProjections(AssembledImage):
    """Delegates ``apply_projected`` as well, counting its calls."""

    def __init__(self, op):
        super().__init__(op)
        self.calls = 0

    def apply_projected(self, U, V):
        self.calls += 1
        return self.op.apply_projected(U, V)


class TestProjectedImagePath:
    """The factored projection of a low-rank growth rate drives both
    factored solvers to the same iterates as the assembled image."""

    @staticmethod
    def nonsymmetric_growth(n=30):
        # rank-3 growth rate with R != R^T, so evaluating the L-step at the
        # transposed pair would apply the operator to X^T and show up here
        x = grid_points(n)
        R = (0.1 + np.outer(np.sin(2 * np.pi * x), np.cos(3 * np.pi * x))
             + np.outer(x, x ** 2))
        base = HadamardGrowthOperator.standard(n)
        op = HadamardGrowthOperator(base.A, base.eps, base.eps_r, R)
        assert op._growth()[0].shape[1] == 4  # the factored path is taken
        return op

    def test_psi_matches_assembled_image(self):
        op = self.nonsymmetric_growth()
        a = psi_solve(op, rank=3, h=1e-3, max_steps=200, seed=3)
        b = psi_solve(AssembledImage(op), rank=3, h=1e-3, max_steps=200,
                      seed=3)
        assert a.iterations == b.iterations == 200
        assert np.abs(a.X - b.X).max() <= 1e-9
        assert a.eigenvalue == pytest.approx(b.eigenvalue, abs=1e-9)

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


@pytest.mark.parametrize("solve,key", [
    (lambda **kw: power_reference(demo_path_walk(), tol=1e-10, **kw),
     "max_iters"),
    (lambda **kw: krylov_reference(SeparableGrowthOperator.standard(9),
                                   tol=1e-11, **kw), "max_iters"),
    (lambda **kw: psi_solve(demo_path_walk(), 1, tol=1e-10, **kw),
     "max_steps"),
    (lambda **kw: rneg_solve(demo_path_walk(), 1, **kw), "nmax"),
], ids=["power", "krylov", "psi", "rneg"])
@pytest.mark.parametrize("stop", ["converged", "budget"])
def test_stop_reason(solve, key, stop):
    rep = solve(**({key: 3} if stop == "budget" else {}))
    assert rep.details["stop"] == stop
    assert rep.converged == (stop == "converged")


class TestResidual:
    def test_matches_manual_norm(self):
        op = demo_path_walk()
        rng = np.random.default_rng(3)
        X = rng.random((3, 3))
        lam = 0.7
        want = np.linalg.norm(op.apply_full(X) - lam * X)
        assert residual(op, X, lam) == pytest.approx(want, rel=1e-14)
