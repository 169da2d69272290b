"""Tests for the truncated-SVD and nonnegative-factorization baselines.

The scale-minimized relative error is checked against an independent
golden-section search over the scalar, and the truncation error of the
metastable demo walk is pinned to values recorded from a long power run.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nneig.bench import ExperimentConfig, build_operator
from nneig.lowrank import (
    NMFResult,
    SVDTriple,
    _hals_rows,
    best_scaled_error,
    nmf,
    truncated_svd,
)
from nneig.markovgrid import demo_clustered_walk
from nneig.solvers import krylov_reference

ROOT = Path(__file__).resolve().parents[1]


def golden_scale_error(X, Xstar, iters=200):
    """Oracle: minimize ||a X - Xstar|| over the scalar by golden section.

    The objective is a convex parabola in ``a``, so the bracketed search
    converges to the same minimum the closed form produces.  By
    Cauchy-Schwarz the minimizer lies within ``||Xstar|| / ||X||`` of zero,
    which brackets it for any nonzero ``X``.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    f = lambda a: np.linalg.norm(a * X - Xstar)
    b = np.linalg.norm(Xstar) / np.linalg.norm(X)
    a = -b
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    for _ in range(iters):
        if f(c) < f(d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    return f((a + b) / 2.0) / np.linalg.norm(Xstar)


def clustered_stationary():
    op = demo_clustered_walk()
    ref = krylov_reference(op, tol=1e-12)
    return ref.X / np.linalg.norm(ref.X)


entries = st.floats(min_value=-5, max_value=5, allow_nan=False,
                    allow_infinity=False)


class TestTruncatedSVD:
    def test_clustered_walk_rank2_error(self):
        # frozen from a tol=1e-12 power run of the metastable demo walk
        X = clustered_stationary()
        X2 = truncated_svd(X, 2).reconstruct()
        assert np.linalg.norm(X - X2) == pytest.approx(0.53368, abs=5e-4)

    def test_clustered_walk_rank2_negatives(self):
        X2 = truncated_svd(clustered_stationary(), 2).reconstruct()
        assert int(np.sum(X2 < 0)) == 2

    def test_orthonormal_factors_and_ordering(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((7, 5))
        tri = truncated_svd(M, 3)
        np.testing.assert_allclose(tri.U.T @ tri.U, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(tri.Vt @ tri.Vt.T, np.eye(3), atol=1e-12)
        assert np.all(np.diff(tri.s) <= 0) and np.all(tri.s >= 0)

    def test_exact_on_low_rank_input(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 6))
        np.testing.assert_allclose(truncated_svd(M, 2).reconstruct(), M,
                                   atol=1e-12)

    def test_full_rank_is_identity(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((4, 4))
        np.testing.assert_allclose(truncated_svd(M, 4).reconstruct(), M,
                                   atol=1e-12)

    @given(arrays(float, (5, 4), elements=entries),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_beats_random_rank_r_matrix(self, M, r):
        # Eckart-Young: no rank-r matrix comes closer in Frobenius norm
        tri = truncated_svd(M, r)
        err = np.linalg.norm(M - tri.reconstruct())
        rng = np.random.default_rng(0)
        for _ in range(5):
            Y = rng.standard_normal((5, r)) @ rng.standard_normal((r, 4))
            assert err <= np.linalg.norm(M - Y) + 1e-9

    def test_rank_bounds_rejected(self):
        M = np.eye(3)
        with pytest.raises(ValueError):
            truncated_svd(M, 0)
        with pytest.raises(ValueError):
            truncated_svd(M, 4)


def nmf_errors(M, r, sweeps, seed):
    """Relative error after each of the first ``sweeps`` sweeps.  ``nmf``
    is deterministic given its seed, so a run with a budget of ``k``
    sweeps stops at the k-th sweep of any longer run, or where one of its
    stops fires first."""
    nrm = np.linalg.norm(M)
    errs = []
    for k in range(1, sweeps + 1):
        res = nmf(M, r, n_iters=k, seed=seed)
        errs.append(np.linalg.norm(M - res.W @ res.H) / nrm)
    return np.array(errs)


def hals_without_stop(M, r, sweeps, seed):
    """Oracle: ``sweeps`` extrapolated HALS sweeps from ``nmf``'s start,
    discarded sweeps included, with no stop rule, in the same
    floating-point operations as ``nmf`` (which holds ``W`` transposed).
    Returns the last accepted pair."""
    m, n = M.shape
    rng = np.random.default_rng(seed)
    W = rng.random((m, r))
    H = rng.random((r, n))
    scale = np.sqrt(np.linalg.norm(M) / np.linalg.norm(W @ H))
    W *= scale
    H *= scale
    Wt = np.ascontiguousarray(W.T)
    err = np.linalg.norm(Wt.T @ H - M)
    beta, cap = 0.5, 1.0
    We, He = Wt.copy(), H.copy()
    for _ in range(sweeps):
        for X, A in ((We, He), (He, We)):
            # update the rows of X against the fixed factor A
            G = A @ A.T
            B = A @ (M.T if X is We else M)
            for j in range(r):
                X[j] = np.maximum(X[j] + (B[j] - G[j] @ X) / G[j, j], 0.0)
        e = np.linalg.norm(We.T @ He - M)
        if e > err:
            # discard the sweep and restart from the accepted pair
            We, He = Wt.copy(), H.copy()
            beta /= 1.5
        else:
            # extrapolate from the pair this sweep replaces
            Wt, We = We, np.maximum(We + beta * (We - Wt), 0.0)
            H, He = He, np.maximum(He + beta * (He - H), 0.0)
            err = e
            beta = min(cap, beta * 1.01)
            cap *= 1.005
    return Wt.T, H


class TestNMF:
    def test_error_monotone_on_demo(self):
        errs = nmf_errors(clustered_stationary(), 2, 500, seed=3)
        assert np.all(np.diff(errs) <= 1e-14)

    def test_factors_nonnegative_exactly(self):
        res = nmf(clustered_stationary(), 2, seed=3)
        assert np.all(res.W >= 0) and np.all(res.H >= 0)

    def test_never_beats_svd_at_equal_rank(self):
        X = clustered_stationary()
        svd_err = np.linalg.norm(X - truncated_svd(X, 2).reconstruct())
        res = nmf(X, 2, seed=3)
        assert np.linalg.norm(X - res.W @ res.H) >= svd_err - 1e-12

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_monotone_for_any_seed(self, seed):
        rng = np.random.default_rng(11)
        M = rng.random((6, 5))
        assert np.all(np.diff(nmf_errors(M, 3, 60, seed)) <= 1e-13)
        res = nmf(M, 3, n_iters=60, seed=seed)
        assert np.all(res.W >= 0) and np.all(res.H >= 0)

    def test_recovers_exact_nonnegative_low_rank(self):
        rng = np.random.default_rng(12)
        M = rng.random((8, 3)) @ rng.random((3, 6))
        res = nmf(M, 3, n_iters=2000, seed=1)
        assert np.linalg.norm(M - res.W @ res.H) / np.linalg.norm(M) < 1e-6

    def test_exact_fit_not_stopped_early(self):
        # same matrix as above: neither stop may cut the fit short of
        # where the extrapolated sweeps get with the same budget
        rng = np.random.default_rng(12)
        M = rng.random((8, 3)) @ rng.random((3, 6))
        res = nmf(M, 3, n_iters=2000, seed=1)
        W, H = hals_without_stop(M, 3, 2000, seed=1)
        same = np.array_equal(res.W, W) and np.array_equal(res.H, H)
        rel = [np.linalg.norm(M - A @ B) / np.linalg.norm(M)
               for A, B in ((res.W, res.H), (W, H))]
        assert same or max(rel) < 1e-12

    def test_stops_when_stationary_on_inexact_fit(self):
        # a uniform random 40x40 matrix has no exact rank-5 nonnegative
        # factorization, so its fit becomes stationary at a nonzero residual
        M = np.random.default_rng(13).random((40, 40))
        res = nmf(M, 5, n_iters=500)
        longer = nmf(M, 5, n_iters=5000)
        assert np.array_equal(res.W, longer.W)
        assert np.array_equal(res.H, longer.H)
        W, H = hals_without_stop(M, 5, 500, seed=0)
        assert np.linalg.norm(M - res.W @ res.H) == pytest.approx(
            np.linalg.norm(M - W @ H), rel=1e-4)

    @pytest.mark.parametrize("config, trial, stop", [
        ("random-grid", 5, "stationary"), ("block-grid", 0, "stationary")])
    def test_stop_reason_on_bench_fit(self, config, trial, stop):
        # the bench's power+nmf fit of a config trial: the clipped reference
        # at the trial seed.  Random-grid trial 5 is an exact fit that plain
        # HALS left still improving at its 500-sweep budget; extrapolated,
        # it and the block grids become stationary well before
        cfg = ExperimentConfig.from_json(
            (ROOT / "configs" / f"{config}.json").read_text())
        seed = cfg.seed + trial
        ref = krylov_reference(build_operator(cfg, seed), tol=cfg.power_tol)
        res = nmf(np.maximum(ref.X, 0.0), cfg.rank, seed=seed)
        assert res.stop == stop
        assert 1 <= res.sweeps < 500

    @pytest.mark.parametrize("trial", [4, 6, 7])
    def test_repeating_fit_stops_at_the_repeat(self, trial):
        # these random-grid fits level off above the roundoff floor.  Their
        # last sweep starts from the accepted pair itself and is discarded,
        # so every later sweep would repeat it.  Where that happens moves
        # with the BLAS thread count (trial 4 stops after 111 sweeps on one
        # thread, 107 on two), so the count is not pinned
        cfg = ExperimentConfig.from_json(
            (ROOT / "configs" / "random-grid.json").read_text())
        seed = cfg.seed + trial
        ref = krylov_reference(build_operator(cfg, seed), tol=cfg.power_tol)
        M = np.maximum(ref.X, 0.0)
        res = nmf(M, cfg.rank, seed=seed)
        assert res.stop == "fixed_point" and 1 <= res.sweeps < 500
        again = nmf(M, cfg.rank, n_iters=res.sweeps, seed=seed)
        assert again.stop == "budget"
        assert np.array_equal(res.W, again.W)
        assert np.array_equal(res.H, again.H)
        # one more sweep from the returned pair raises the error again
        Wt, H = np.ascontiguousarray(res.W.T), res.H.copy()
        err = np.linalg.norm(Wt.T.dot(H) - M)
        _hals_rows(Wt, H.dot(H.T), H.dot(M.T))
        _hals_rows(H, Wt.dot(Wt.T), Wt.dot(M))
        assert np.linalg.norm(Wt.T.dot(H) - M) > err

    def test_floor_stop_on_exact_product(self):
        # an exact nonnegative rank-3 product reaches the roundoff floor,
        # where the residual-scaled stationarity test cannot fire
        rng = np.random.default_rng(12)
        M = rng.random((8, 3)) @ rng.random((3, 6))
        res = nmf(M, 3, n_iters=2000, seed=1)
        assert res.stop == "floor" and res.sweeps < 2000
        err = np.linalg.norm(res.W @ res.H - M)
        assert err <= 64 * np.finfo(float).eps * np.linalg.norm(M)
        again = nmf(M, 3, n_iters=res.sweeps, seed=1)
        assert again.stop == "budget"
        assert np.array_equal(res.W, again.W)
        assert np.array_equal(res.H, again.H)

    def test_sweep_count_is_the_budget_of_an_equal_run(self):
        M = np.random.default_rng(13).random((40, 40))
        res = nmf(M, 5)
        again = nmf(M, 5, n_iters=res.sweeps)
        assert (res.stop, again.stop) == ("stationary", "budget")
        assert np.array_equal(res.W, again.W)
        assert np.array_equal(res.H, again.H)

    def test_zero_matrix(self):
        res = nmf(np.zeros((4, 3)), 2)
        assert np.all(res.W == 0) and np.all(res.H == 0)
        assert (res.sweeps, res.stop) == (0, "stationary")

    def test_negative_input_rejected(self):
        M = np.eye(3)
        M[0, 1] = -0.5
        with pytest.raises(ValueError, match="nonnegative"):
            nmf(M, 2)

    def test_rank_bounds_rejected(self):
        with pytest.raises(ValueError):
            nmf(np.ones((3, 3)), 0)

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError, match="n_iters must be at least 1"):
            nmf(np.ones((3, 3)), 1, n_iters=0)


class TestBestScaledError:
    @given(arrays(float, (4, 3), elements=entries),
           arrays(float, (4, 3), elements=entries))
    @settings(max_examples=150, deadline=None)
    def test_matches_golden_section_oracle(self, X, Xstar):
        if np.linalg.norm(X) < 1e-6 or np.linalg.norm(Xstar) < 1e-6:
            return
        got = best_scaled_error(X, Xstar)
        want = golden_scale_error(X, Xstar)
        assert got == pytest.approx(want, abs=1e-6)
        assert got <= want + 1e-12

    @given(arrays(float, (3, 3), elements=entries),
           st.floats(min_value=0.01, max_value=50).flatmap(
               lambda v: st.sampled_from([v, -v])))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariant_in_first_argument(self, X, c):
        if np.linalg.norm(X) < 1e-6:
            return
        Xstar = np.ones((3, 3))
        assert best_scaled_error(c * X, Xstar) == pytest.approx(
            best_scaled_error(X, Xstar), rel=1e-9, abs=1e-12)

    def test_zero_error_for_scaled_copy(self):
        rng = np.random.default_rng(2)
        Xstar = rng.standard_normal((5, 5))
        assert best_scaled_error(-3.7 * Xstar, Xstar) < 1e-12

    def test_orthogonal_directions_give_full_error(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0]])
        Xstar = np.array([[0.0, 0.0], [0.0, 2.0]])
        assert best_scaled_error(X, Xstar) == pytest.approx(1.0)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError, match="nonzero"):
            best_scaled_error(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(ValueError, match="nonzero"):
            best_scaled_error(np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="shape"):
            best_scaled_error(np.eye(2), np.eye(3))
