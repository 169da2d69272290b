"""Tests for the Krylov reference and the two factored ODE solvers.

Growth-operator eigenvalues are checked against a dense eigendecomposition
of the explicitly assembled operator matrix, built column by column from
basis matrices without reusing any solver code.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nneig.bench import ExperimentConfig, _vertex_init, build_operator, solve
from nneig.lowrank import best_scaled_error
from nneig.markovgrid import (
    demo_clustered_walk,
    demo_path_walk,
    generate_random_grid,
    rank_one_stationary,
)
from nneig.matcore import FactorPair, thin_qr
from nneig.operators import (
    STEP_FRACTION,
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
    _cannot_cross,
    _crossing_ratios,
    _narrow_form,
    _normalize,
    _start,
    _step_distance,
    _trial_step,
    krylov_reference,
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
    lam, x = w[k].real, V[:, k].real
    # eig's vector can be off by about 1e-9; two inverse-iteration steps
    # polish it to roundoff
    for _ in range(2):
        x = np.linalg.solve(P - lam * np.eye(m * n), x)
        x /= np.linalg.norm(x)
    X = x.reshape((m, n), order="F")
    if X.sum() < 0:
        X = -X
    return lam, X


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


class TestKrylovReference:
    @pytest.mark.parametrize("make", [
        demo_path_walk,  # periodic: eigenvalue -1 sits opposite 1, undamped
        demo_clustered_walk,
        lambda: generate_random_grid(7, seed=3),
        lambda: SeparableGrowthOperator.standard(9),
        lambda: HadamardGrowthOperator.standard(9),
    ], ids=["path-walk", "clustered-walk", "random-grid-7", "separable-9",
            "hadamard-9"])
    def test_matches_dense_eig(self, make):
        op = make()
        rep = krylov_reference(op, tol=1e-11)
        assert rep.converged
        assert rep.residual <= 1e-11
        assert rep.residual == pytest.approx(rayleigh(op, rep.X)[1],
                                             abs=1e-14)
        assert np.linalg.norm(rep.X) == pytest.approx(1.0, abs=1e-12)
        assert rep.X.sum() > 0
        lam, X = dense_rightmost(op)
        assert rep.eigenvalue == pytest.approx(lam, abs=1e-9)
        np.testing.assert_allclose(rep.X, X, atol=1e-9)

    def test_path_walk_eigenmatrix(self):
        rep = krylov_reference(demo_path_walk(), tol=1e-10)
        np.testing.assert_allclose(rep.X, path_stationary(), atol=5e-4)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_start_independence(self, seed):
        # P4: the limit does not depend on the (nonzero) starting matrix
        op = demo_clustered_walk()
        rng = np.random.default_rng(seed)
        X0 = rng.random((3, 3)) + 0.05
        rep = krylov_reference(op, tol=1e-11, X0=X0)
        base = krylov_reference(op, tol=1e-11)
        np.testing.assert_allclose(rep.X, base.X, atol=1e-8)

    @pytest.mark.parametrize("X0", [
        np.zeros((3, 3)), np.ones((3, 2)), np.ones(9),
        np.full((3, 3), np.nan), np.full((3, 3), np.inf),
    ], ids=["zero", "shape", "flat", "nan", "inf"])
    def test_bad_start_rejected(self, X0):
        with pytest.raises(ValueError, match="X0"):
            krylov_reference(demo_path_walk(), X0=X0)

    def test_budget_exhaustion_reported(self):
        op = SeparableGrowthOperator.standard(9)
        rep = krylov_reference(op, tol=1e-14, max_iters=7)
        assert not rep.converged
        assert rep.iterations <= 7
        assert rep.residual == pytest.approx(rayleigh(op, rep.X)[1],
                                             abs=1e-14)

    @pytest.mark.parametrize("make,most", [
        (lambda: HadamardGrowthOperator.standard(100), 250),
        (lambda: SeparableGrowthOperator.standard(100), 1_000),
    ], ids=["hadamard-100", "separable-100"])
    def test_thick_restart_application_counts(self, make, most):
        # the explicitly restarted 10-vector method this replaced needed
        # 511 and 3,831 applications at tol 1e-11
        rep = krylov_reference(make(), tol=1e-11)
        assert rep.converged
        assert rep.residual <= 1e-11
        assert rep.iterations <= most
        d = rep.details
        assert d["thick_restarts"] > 0
        assert d["thick_restarts"] + d["explicit_restarts"] == d["restarts"]

    @pytest.mark.parametrize("pair_at,kept", [(5, 7), (4, 6), (2, 6)])
    def test_thick_basis_keeps_conjugate_pairs_whole(self, pair_at, kept):
        # a real matrix with the eigenvalues 16, 15, .. except for the pair
        # c +- 2i at sorted positions pair_at and pair_at + 1
        p = solvers.KRYLOV_BASIS
        c = p - pair_at - 0.5
        D = np.diag(np.arange(p, 0, -1.0))
        D[pair_at:pair_at + 2, pair_at:pair_at + 2] = [[c, 2.0], [-2.0, c]]
        rng = np.random.default_rng(0)
        P = np.eye(p) + 0.1 * rng.standard_normal((p, p))
        H = P @ D @ np.linalg.inv(P)
        Z = solvers._thick_basis(*np.linalg.eig(H))
        assert Z.shape == (p, kept)
        np.testing.assert_allclose(Z.T @ Z, np.eye(kept), atol=1e-13)
        T = Z.T @ H @ Z
        # the kept span is invariant: it holds whole eigenvectors
        assert np.linalg.norm(H @ Z - Z @ T) <= 1e-12 * np.linalg.norm(H)
        want = np.sort_complex(np.linalg.eigvals(D))[::-1][:kept]
        np.testing.assert_allclose(np.sort_complex(np.linalg.eigvals(T))[::-1],
                                   want, atol=1e-10)

    def test_boundary_pair_in_a_solve(self, monkeypatch):
        # a mostly cyclic chain has complex Ritz values next to the
        # rightmost one; here the first thick restart meets a pair at the
        # boundary and keeps KRYLOV_KEEP + 1 vectors
        rng = np.random.default_rng(0)
        R = rng.random((6, 6)) ** 4
        R /= R.sum(axis=1, keepdims=True)
        C = 0.9 * np.roll(np.eye(6), 1, axis=1) + 0.1 * R
        op = MarkovGridOperator([(1.0, C, C)])
        kept = []
        thick_basis = solvers._thick_basis

        def spy(theta, S):
            Z = thick_basis(theta, S)
            kept.append(Z.shape[1])
            return Z

        monkeypatch.setattr(solvers, "_thick_basis", spy)
        rep = krylov_reference(op, tol=1e-11)
        assert solvers.KRYLOV_KEEP + 1 in kept
        assert rep.converged
        assert rep.details["thick_restarts"] == len(kept)
        lam, X = dense_rightmost(op)
        assert rep.eigenvalue == pytest.approx(lam, abs=1e-10)
        np.testing.assert_allclose(rep.X, X, atol=1e-8)

    def test_explicit_restart_fallback(self, monkeypatch):
        # separable n=100's residual stalls under thick restarts, so it
        # falls back at least once after the first cycle
        op = SeparableGrowthOperator.standard(100)
        rep = krylov_reference(op, tol=1e-11)
        assert rep.converged
        assert rep.details["explicit_restarts"] > 1
        # without patience every cycle restarts explicitly from X and
        # A(X); that method reaches the same eigenpair
        monkeypatch.setattr(solvers, "KRYLOV_PATIENCE", 0)
        cold = krylov_reference(op, tol=1e-11)
        assert cold.converged
        assert cold.details["thick_restarts"] == 0
        assert cold.details["explicit_restarts"] == cold.details["restarts"]
        assert cold.iterations > rep.iterations
        assert cold.eigenvalue == pytest.approx(rep.eigenvalue, abs=1e-11)
        np.testing.assert_allclose(cold.X, rep.X, atol=1e-9)

    def test_budget_ends_inside_thick_cycles(self):
        # the first cycle ends at 17 applications and each thick one takes
        # up to KRYLOV_BASIS - KRYLOV_KEEP + 1; a budget past 18 leaves
        # the two a thick cycle needs at least, and ends inside one
        op = HadamardGrowthOperator.standard(30)
        for budget in range(19, 52, 2):
            rep = krylov_reference(op, tol=1e-11, max_iters=budget)
            assert not rep.converged
            assert budget - 1 <= rep.iterations <= budget
            assert rep.details["thick_restarts"] > 0
            assert rep.residual == pytest.approx(rayleigh(op, rep.X)[1],
                                                 abs=1e-14)

    def test_basis_capped_by_matrix_size(self):
        # m * n = 9 is below KRYLOV_BASIS: the first cycle spans the
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


def block_grid_warm_solve():
    """rneg on the first trial of the shipped block-grid benchmark config,
    warm started from the reference as the bench does."""
    cfg = ExperimentConfig(kind="block-grid", n=50, rank=10, seed=7,
                           delta=0.2, block_style="trap")
    op = build_operator(cfg, cfg.seed)
    ref = krylov_reference(op, tol=cfg.power_tol)
    fit = solve(op, "power+nmf", cfg.rank, seed=cfg.seed, init=ref)
    pair = _vertex_init(np.maximum(ref.X, 0.0), fit.factors)
    return rneg_solve(op, cfg.rank, seed=cfg.seed, init=pair)


# the smallest positive float; entries of a few such units are subnormal
UNIT = 5e-324


@st.composite
def feasible_steps(draw):
    """Factors ``W >= 0`` with exact zeros, a direction ``P`` feasible at
    ``W`` (nonnegative where ``W`` is zero), and a step ``h`` placed just
    around the smallest crossing ratio.  Entries are normal, tiny or
    subnormal."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 12))
    if draw(st.booleans()):
        W = np.floor(rng.random(size) * 8) * UNIT
        P = np.round(rng.standard_normal(size) * 8) * UNIT
    else:
        scale = draw(st.sampled_from([1.0, 1e-150, 1e-300, 1e-310, 1e-320]))
        W = rng.random(size) * scale
        P = rng.standard_normal(size) * scale * draw(
            st.sampled_from([1.0, 1e-5, 1e3]))
    W[rng.random(size) < 0.3] = 0.0
    P[rng.random(size) < 0.2] = 0.0
    P[W == 0] = np.abs(P[W == 0])
    h_adm = _crossing_ratios(W, P, np.empty(size))
    base = h_adm if 0 < h_adm < np.inf else 0.5
    h = base * draw(st.sampled_from([1.0, 1 + 1e-12, 1 - 1e-12, 1 + 4e-12,
                                     1 - 4e-12, 1 + 1e-9, 1 - 1e-9]))
    return W, P, float(h)


class TestTrialStep:
    """The no-crossing certificate against the crossing-ratio path."""

    @given(feasible_steps())
    @settings(max_examples=500, deadline=None)
    # subnormal operands where the certificate, unscaled, would pass at a
    # step above the crossing ratio 0.5
    @example((np.array([UNIT]), np.array([-2 * UNIT]), 0.7))
    def test_certified_step_is_the_ratio_step(self, case):
        W, P, h = case
        ratio = np.empty(W.shape)
        h_adm = _crossing_ratios(W, P, ratio)
        if _cannot_cross(W, P, h):
            assert min(h, h_adm) == h
            full = _trial_step(W, P, h, ratio)
            plain = _trial_step(W, P, h)
            assert np.array_equal(plain, full)
            assert np.array_equal(np.signbit(plain), np.signbit(full))

    @pytest.mark.parametrize("seed", range(20))
    def test_certificate_holds_short_of_the_crossing(self, seed):
        # normal-range operands and a step 1e-9 short of the smallest
        # crossing ratio: no entry reaches the boundary
        rng = np.random.default_rng(seed)
        W = rng.random((30, 3))
        W[rng.random(W.shape) < 0.3] = 0.0
        P = rng.standard_normal(W.shape)
        P[W == 0] = np.abs(P[W == 0])
        h_adm = _crossing_ratios(W, P, np.empty(W.shape))
        assert _cannot_cross(W, P, h_adm * (1 - 1e-9))
        assert not _cannot_cross(W, P, h_adm * (1 + 1e-9))

    def test_step_below_smallest_normal_takes_the_ratio_path(self):
        W = np.array([1.0, 0.0])
        P = np.array([1.0, 0.0])
        assert not _cannot_cross(W, P, 1e-310)
        assert _cannot_cross(W, P, 1e-300)


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
        ref = krylov_reference(demo_clustered_walk(), tol=1e-12)
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

    @pytest.mark.parametrize("make,rank,nmax", [
        (symmetric_grid, 2, 50_000),
        (lambda: HadamardGrowthOperator.standard(100), 3, 500),
    ], ids=["self-adjoint-grid", "hadamard"])
    def test_step_stays_under_stability_bound(self, make, rank, nmax):
        # the learned ceiling starts at the explicit bound 2 / s, read as
        # default_step * 2 / STEP_FRACTION.  Under a ceiling that only
        # rejections lowered, the accepted step reached 11.56 on the
        # self-adjoint grid, whose bound is 2, and 1.6e-2 in the first 500
        # steps on Hadamard, whose bound is 4.97e-3
        op = make()
        rep = rneg_solve(op, rank=rank, seed=4, nmax=nmax)
        assert rep.details["h_max"] <= op.default_step() * 2 / STEP_FRACTION

    def test_unrejected_step_stays_inside_bound(self):
        # with no trial rejected the step climbs to its starting ceiling,
        # which lies strictly inside the bound 2 / s: on the bound an
        # explicit step does not damp the stiffest mode.  h0 is the
        # resolved default step STEP_FRACTION / s
        rep = block_grid_warm_solve()
        assert rep.details["rejected"] == 0
        assert rep.details["h_max"] < rep.details["h0"] * 2 / STEP_FRACTION

    def test_cold_separable_does_not_park_on_bound(self):
        # criterion 8's operator, solved cold from seed 800.  With the
        # ceiling on the bound 2 / s, no trial was rejected and the
        # 50,000-step budget ran out at eigenvalue error 1.0e-2
        op = SeparableGrowthOperator.standard(100)
        rep = rneg_solve(op, rank=3, seed=800)
        ref = krylov_reference(op, tol=1e-11)
        assert abs(rep.eigenvalue - ref.eigenvalue) <= 1e-5

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
    # V's Gram is subnormal here; formed from V itself, the returned Gram
    # was off by 6.5e-12 relative
    @example(np.ones((4, 2)), np.full((3, 2), 2.67e-157))
    # scaled alike, V passes 1e154 and its Gram overflows: whole, and
    # beside finite entries
    @example(np.full((4, 2), 5e-324), np.full((3, 2), 5.0))
    @example(np.full((4, 2), 5e-324), np.array([[5.0, 1e-160]] * 3))
    # one Gram subnormal while the product is normal: scaled alike, the
    # returned Gram of U was off
    @example(np.full((4, 2), 1e-158), np.full((3, 2), 2e23))
    # the largest entry sits in a column paired with a zero one: scaled
    # along with the others, the live pair's Grams underflowed to zero
    @example(np.array([[3.0, 1.0]] + [[1.0, 1.0]] * 3),
             np.array([[5e-324, 0.0]] + [[0.0, 0.0]] * 2))
    def test_normalize_gram_norm_matches_dense(self, U, V):
        # rneg balances its start, then scales its factors by the norm of
        # U V^T taken through the Gram matrices, without forming U V^T
        W = _start(U, V)
        U0, V0 = W[:4].copy(), W[4:].copy()
        P = U0 @ V0.T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grams = _normalize(W, 4)
        if not P.any():
            assert grams is None
            return
        # the Grams it returns are those of the scaled factors
        for G, F in zip(grams, (W[:4], W[4:])):
            D = F.T @ F
            np.testing.assert_allclose(G, D, rtol=1e-14,
                                       atol=1e-14 * np.abs(D).max())
        # and the product is the balanced start's, of unit norm, which is
        # U V^T's wherever that is representable
        np.testing.assert_allclose(W[:4] @ W[4:].T, P / np.linalg.norm(P),
                                   rtol=1e-14, atol=1e-15)
        X = U @ V.T
        if 1e-290 < X.max() < np.inf:
            X /= X.max()  # else a square under 1e-154 loses its bits
            np.testing.assert_allclose(P / np.linalg.norm(P),
                                       X / np.linalg.norm(X),
                                       rtol=1e-14, atol=1e-15)

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
        op = generate_random_grid(8, family="shared-pair", seed=17)
        _, _, Xstar = rank_one_stationary(op.terms[0][1], op.terms[1][2])
        rep = rneg_solve(op, rank=1, seed=17)
        assert rep.converged
        assert best_scaled_error(rep.X, Xstar) <= 1e-4

    def test_block_grid_warm_start_step_count(self):
        rep = block_grid_warm_solve()
        assert rep.converged
        assert rep.iterations <= 200

    def test_capped_counts_steps_the_crossing_cap_shortened(self):
        # a warm block-grid solve never reaches the boundary; a cold
        # Hadamard start crosses it early and often
        assert block_grid_warm_solve().details["capped"] == 0
        cold = rneg_solve(HadamardGrowthOperator.standard(100), 3, seed=0,
                          nmax=300)
        assert 0 < cold.details["capped"] <= cold.iterations

    def test_random_grid_rank3_cold_converges(self):
        cfg = ExperimentConfig(kind="random-grid", n=100, rank=3, seed=0,
                               family="shared-pair")
        rep = rneg_solve(build_operator(cfg, 0), 3, seed=0)
        assert rep.converged
        assert rep.neg_count == 0

    def test_initial_step_does_not_move_the_answer(self):
        # trial 0 of the shipped random-grid config; the stop reads the
        # projected gradient at a threshold set by the default step, so
        # a 40x larger first step ends the solve about as accurate
        cfg = ExperimentConfig(kind="random-grid", n=100, rank=3, seed=0,
                               family="shared-pair")
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


    @pytest.mark.parametrize("rank,D", [
        (1, 2.0 ** 100),
        (2, np.array([2.0 ** 6, 2.0 ** -9])),
    ], ids=["global", "per-column"])
    def test_power_of_two_gauge_gives_the_same_solve(self, rank, D):
        # (U D, V / D) is the same product; balanced at the start, it is
        # the same solve.  Column 0 of U is halved so that its pair starts
        # with exponents one apart the other way
        op = generate_random_grid(8, family="shared-pair", seed=17)
        rng = np.random.default_rng(0)
        U = rng.random((8, rank))
        V = rng.random((8, rank))
        U[:, 0] *= 0.5
        base = rneg_solve(op, rank, init=FactorPair(U, V))
        rep = rneg_solve(op, rank, init=FactorPair(U * D, V / D))
        np.testing.assert_array_equal(rep.X, base.X)
        np.testing.assert_array_equal(rep.factors.U, base.factors.U)
        np.testing.assert_array_equal(rep.factors.V, base.factors.V)
        assert (rep.eigenvalue, rep.iterations) == (base.eigenvalue,
                                                   base.iterations)
        assert rep.details == base.details

    def test_unbalanced_start_converges(self):
        # unbalanced by 1e3, this start ran out its 50,000 steps 0.29 off
        # the eigenvalue of the balanced one
        op = generate_random_grid(8, family="shared-pair", seed=17)
        rng = np.random.default_rng(0)
        U, V = rng.random((8, 1)), rng.random((8, 1))
        base = rneg_solve(op, 1, init=FactorPair(U, V))
        rep = rneg_solve(op, 1, init=FactorPair(U * 1e3, V / 1e3))
        assert base.converged and rep.converged
        assert rep.eigenvalue == pytest.approx(base.eigenvalue, abs=1e-8)


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
        ref = krylov_reference(demo_clustered_walk(), tol=1e-12)
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
            op = build_operator(ExperimentConfig(
                kind="block-grid", n=50, rank=10, seed=7,
                block_style="trap"), 7)
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


@settings(max_examples=200, deadline=None)
@given(m=st.integers(4, 12), extra=st.integers(1, 6), r=st.integers(1, 4),
       size=st.sampled_from([1.0, 1e-4, 1e-8, 1e-12]),
       seed=st.integers(0, 2**32 - 1),
       where=st.sampled_from(["inner", "exact"]),
       factor=st.sampled_from([0.5, 1 - 1e-15, 1.0, 1 + 1e-15, 2.0]),
       move_v=st.booleans())
def test_step_distance_early_exit(m, extra, r, size, seed, where, factor,
                                  move_v):
    # with a threshold, the distance is infinite only when the exact one
    # exceeds it, and exact otherwise, so psi's stop test decides the same.
    # With V fixed the second part is roundoff, and the whole distance
    # can equal the in-span part bit for bit
    rng = np.random.default_rng(seed)
    n = m + extra
    U0, _ = thin_qr(rng.standard_normal((m, r)))
    V0, _ = thin_qr(rng.standard_normal((n, r)))
    S0 = rng.standard_normal((r, r))
    U1, _ = thin_qr(U0 + size * rng.standard_normal((m, r)))
    V1 = V0
    if move_v:
        V1, _ = thin_qr(V0 + size * rng.standard_normal((n, r)))
    S1 = S0 + size * rng.standard_normal((r, r))
    args = (U0 @ S0, S0, V0, U1 @ S1, V1)
    exact = _step_distance(*args)
    # thresholds around the in-span part alone, and around the whole
    inner = np.linalg.norm(U1 @ S1 - U0 @ S0 @ (V0.T @ V1))
    thr = (inner if where == "inner" else exact) * factor
    got = _step_distance(*args, thr)
    assert got == exact or (got == np.inf and exact > thr)
    assert (got <= thr) == (exact <= thr)


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
            30, seed=5, family="shared-pair"),
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
        # a fixed 200 steps at tol 0: near convergence the motion stop
        # compares roundoff-level distances, and the two paths' roundoff
        # can end them a step apart
        op = self.FAMILIES[family]()
        assert _narrow_form(op, 3) is not None
        a = psi_solve(op, rank=3, tol=0.0, max_steps=200, seed=3)
        b = psi_solve(AssembledImage(op), rank=3, tol=0.0, max_steps=200,
                      seed=3)
        assert a.iterations == b.iterations == 200
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
    lambda op, tol: krylov_reference(op, tol=tol),
    lambda op, tol: psi_solve(op, 1, tol=tol),
    lambda op, tol: rneg_solve(op, 1, tol=tol),
], ids=["krylov", "psi", "rneg"])
@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
def test_bad_tolerance_rejected(solve, tol):
    # a NaN or negative tolerance can never be met, so the solve would
    # spend its whole budget; an infinite one is met by any iterate
    with pytest.raises(ValueError, match="tol"):
        solve(demo_path_walk(), tol)


@pytest.mark.parametrize("solve", [
    lambda op, n: krylov_reference(op, max_iters=n),
    lambda op, n: psi_solve(op, 1, max_steps=n),
    lambda op, n: rneg_solve(op, 1, nmax=n),
], ids=["krylov", "psi", "rneg"])
@pytest.mark.parametrize("budget", [0, -1])
def test_bad_budget_rejected(solve, budget):
    # a solve without a single step would return its start as a result
    with pytest.raises(ValueError, match="at least 1"):
        solve(demo_path_walk(), budget)


@pytest.mark.parametrize("make,solve,key", [
    (lambda: SeparableGrowthOperator.standard(9),
     lambda op, **kw: krylov_reference(op, tol=1e-11, **kw), "max_iters"),
    (demo_path_walk, lambda op, **kw: psi_solve(op, 1, tol=1e-10, **kw),
     "max_steps"),
    (demo_path_walk, lambda op, **kw: rneg_solve(op, 1, **kw), "nmax"),
], ids=["krylov", "psi", "rneg"])
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
