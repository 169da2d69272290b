"""Acceptance gates for the package, one test per criterion.

Each test prints a single PASS line with the measured quantities once its
assertions hold, so a verbose run reads as a checklist.  Small-case
expected values are frozen from independent hand checks and long oracle
runs recorded in the unit-test modules; benchmark-level gates run the
actual experiment harness at its published configuration.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from nneig.bench import ExperimentConfig, run_experiment
from nneig.lowrank import best_scaled_error, nmf, truncated_svd
from nneig.markovgrid import (
    RandomGridSpec,
    demo_clustered_walk,
    demo_path_walk,
    generate_random_grid,
    rank_one_stationary,
)
from nneig.matcore import project_feasible_direction
from nneig.operators import (
    MarkovGridOperator,
    SeparableGrowthOperator,
    flow_field,
    vectorize_operator,
)
from nneig.solvers import power_reference, rneg_solve


# 3-node path walk, the hand-checkable lattice chain
A_CHAIN = np.array([[0.0, 1.0, 0.0],
                    [0.5, 0.0, 0.5],
                    [0.0, 1.0, 0.0]])

# its 9x9 vectorized transition matrix; every entry is a multiple of 1/4
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

# unit-norm stationary matrix of the metastable three-cluster walk,
# printed to four decimals
X_CLUSTERED = np.array([[0.5936, 0.0277, 0.0253],
                        [0.0277, 0.5585, 0.0310],
                        [0.0253, 0.0310, 0.5753]])


def test_criterion_01_vectorized_chain_bit_for_bit():
    """9x9 vectorization of the path walk, exact rationals, under 1 ms."""
    op = demo_path_walk()
    P = vectorize_operator(op)
    best = min(_timed(vectorize_operator, op) for _ in range(5))
    assert np.array_equal(P, P_CHAIN)
    assert best < 1e-3
    print(f"CRITERION 1 PASS: 9x9 vectorization bit-for-bit, "
          f"{best * 1e6:.0f} us")


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_criterion_02_clustered_walk_eigenpair():
    """Power reference: eigenvalue 1 to 1e-8, matrix to 5e-4, under 1 s."""
    t0 = time.perf_counter()
    rep = power_reference(demo_clustered_walk(), tol=1e-10)
    dt = time.perf_counter() - t0
    assert rep.eigenvalue == pytest.approx(1.0, abs=1e-8)
    dev = np.abs(rep.X - X_CLUSTERED).max()
    assert dev <= 5e-4
    assert dt < 1.0
    print(f"CRITERION 2 PASS: lambda={rep.eigenvalue:.12f}, "
          f"max deviation {dev:.2e}, {dt * 1e3:.1f} ms")


def test_criterion_03_clustered_walk_svd_baseline():
    """Rank-2 truncation error 0.5336 +- 5e-4 with exactly 2 negatives."""
    ref = power_reference(demo_clustered_walk(), tol=1e-12)
    X2 = truncated_svd(ref.X, 2).reconstruct()
    err = float(np.linalg.norm(ref.X - X2))
    negs = int(np.sum(X2 < 0))
    assert err == pytest.approx(0.5336, abs=5e-4)
    assert negs == 2
    print(f"CRITERION 3 PASS: truncation error {err:.5f}, {negs} negatives")


def test_criterion_04_clustered_walk_constrained_rank2():
    """Sign-constrained rank-2 solves: zero negatives, error in
    [0.5336, 0.60] for ten seeds, under 30 s total."""
    op = demo_clustered_walk()
    ref = power_reference(op, tol=1e-12)
    t0 = time.perf_counter()
    errs = []
    for seed in range(10):
        rep = rneg_solve(op, rank=2, seed=seed)
        assert rep.neg_count == 0
        assert np.all(rep.factors.U >= 0) and np.all(rep.factors.V >= 0)
        errs.append(best_scaled_error(rep.X, ref.X))
    dt = time.perf_counter() - t0
    assert min(errs) >= 0.5336
    assert max(errs) <= 0.60
    assert dt < 30.0
    print(f"CRITERION 4 PASS: errors in [{min(errs):.5f}, {max(errs):.5f}], "
          f"no negatives, {dt:.1f} s")


def test_criterion_05_rank_one_family_suite():
    """50 shared-pair grids at n=8: exact rank-one fixed point to 1e-12,
    rank-1 solve recovers it to 1e-4 with no negatives, under 60 s."""
    t0 = time.perf_counter()
    worst_fp = 0.0
    worst_err = 0.0
    for seed in range(50):
        op = generate_random_grid(RandomGridSpec(n=8, family="shared-pair",
                                                 seed=seed))
        A = op.terms[0][1]
        B = op.terms[1][2]
        _, _, Xstar = rank_one_stationary(A, B)
        worst_fp = max(worst_fp,
                       float(np.abs(op.apply_full(Xstar) - Xstar).max()))
        rep = rneg_solve(op, rank=1, seed=seed)
        assert rep.neg_count == 0
        worst_err = max(worst_err, best_scaled_error(rep.X, Xstar))
    dt = time.perf_counter() - t0
    assert worst_fp <= 1e-12
    assert worst_err <= 1e-4
    assert dt < 60.0
    print(f"CRITERION 5 PASS: fixed-point residual {worst_fp:.2e}, "
          f"worst RelErr {worst_err:.2e}, {dt:.1f} s")


def _rows_by_method(trial_rows):
    return {row.method: row for row in trial_rows}


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _shipped_config(kind):
    """The config that ``nneig bench configs/<kind>.json`` runs."""
    return ExperimentConfig.from_json((CONFIGS / f"{kind}.json").read_text())


def test_criterion_06_random_grid_benchmark():
    """Random-grid experiment, n=100, rank 3, 10 trials: constrained-solver
    median RelErr <= 1e-3 with zero negatives everywhere, SVD baseline
    RelErr <= 1e-10, under 10 min."""
    cfg = _shipped_config("random-grid")
    t0 = time.perf_counter()
    per_trial = run_experiment(cfg)
    dt = time.perf_counter() - t0
    rneg_errs = []
    for rows in per_trial:
        r = _rows_by_method(rows)
        rneg_errs.append(r["rneg"].relerr)
        assert r["rneg"].neg_count == 0
        assert r["power+svd"].relerr <= 1e-10
    med = float(np.median(rneg_errs))
    assert med <= 1e-3
    assert dt < 600.0
    print(f"CRITERION 6 PASS: median RelErr {med:.2e}, svd RelErr <= 1e-10, "
          f"no negatives, {dt:.0f} s")


def test_criterion_07_block_grid_benchmark():
    """Block-grid experiment, n=50, rank 10, delta 0.2, 10 trials: low-rank
    RelErr parity within 2%, constrained solver at least ties the SVD
    baseline's eigenvalue error in >= 6 trials, SVD shows negatives and the
    constrained solver none in every trial, under 15 min."""
    cfg = _shipped_config("block-grid")
    t0 = time.perf_counter()
    per_trial = run_experiment(cfg)
    dt = time.perf_counter() - t0
    lam_wins = 0
    worst_spread = 0.0
    for rows in per_trial:
        r = _rows_by_method(rows)
        lowrank = [r[m].relerr for m in ("power+svd", "power+nmf",
                                         "psi", "rneg")]
        worst_spread = max(worst_spread, max(lowrank) / min(lowrank) - 1.0)
        lam_wins += r["rneg"].lambda_err <= r["power+svd"].lambda_err
        assert r["power+svd"].neg_count > 0
        assert r["rneg"].neg_count == 0
    assert worst_spread <= 0.02
    assert lam_wins >= 6
    assert dt < 900.0
    print(f"CRITERION 7 PASS: RelErr spread {100 * worst_spread:.2f}%, "
          f"eigenvalue wins {lam_wins}/10, sign gates clean, {dt:.0f} s")


def test_criterion_08_separable_growth_benchmark():
    """Separable growth-diffusion at n=100, rank 3: constrained solver
    RelErr <= 1e-3 with eigenvalue error <= 1e-6 and no negatives,
    splitting integrator RelErr <= 1e-8, under 10 min."""
    cfg = _shipped_config("separable-growth")
    t0 = time.perf_counter()
    r = _rows_by_method(run_experiment(cfg)[0])
    dt = time.perf_counter() - t0
    assert r["rneg"].relerr <= 1e-3
    assert r["rneg"].lambda_err <= 1e-6
    assert r["rneg"].neg_count == 0
    assert r["psi"].relerr <= 1e-8
    assert dt < 600.0
    print(f"CRITERION 8 PASS: rneg RelErr {r['rneg'].relerr:.2e} "
          f"lambda err {r['rneg'].lambda_err:.2e}, "
          f"psi RelErr {r['psi'].relerr:.2e}, {dt:.0f} s")


def test_criterion_09_hadamard_growth_benchmark():
    """Hadamard growth-diffusion at n=100, rank 3: constrained solver has
    no negatives and eigenvalue error <= 5e-3; an unconstrained low-rank
    baseline shows sign mixing."""
    cfg = _shipped_config("hadamard-growth")
    t0 = time.perf_counter()
    r = _rows_by_method(run_experiment(cfg)[0])
    dt = time.perf_counter() - t0
    assert r["rneg"].neg_count == 0
    assert r["rneg"].lambda_err <= 5e-3
    assert r["psi"].neg_count > 0 or r["power+svd"].neg_count > 0
    print(f"CRITERION 9 PASS: rneg lambda err {r['rneg'].lambda_err:.2e} "
          f"no negatives, signed baselines "
          f"(svd {r['power+svd'].neg_count:.0f}, "
          f"psi {r['psi'].neg_count:.0f} negatives), {dt:.0f} s")


def test_criterion_10_invariant_suite():
    """Always-on invariants, rechecked inline, under 2 min total."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    # tangency: the flow is orthogonal to the iterate on the sphere
    op = demo_clustered_walk()
    for _ in range(20):
        X = rng.random((3, 3)) + 1e-3
        X /= np.linalg.norm(X)
        G, _ = flow_field(op, X)
        assert abs(np.sum(G * X)) <= 1e-10

    # the flow vanishes exactly at eigenmatrices
    Xs = np.outer([1.0, 2.0, 1.0], [1.0, 2.0, 1.0])
    Xs /= np.linalg.norm(Xs)
    Gs, _ = flow_field(demo_path_walk(), Xs)
    assert np.linalg.norm(Gs) <= 1e-12

    # power limit does not depend on the start
    base = power_reference(op, tol=1e-11)
    for seed in range(3):
        r2 = np.random.default_rng(seed)
        rep = power_reference(op, tol=1e-11, X0=r2.random((3, 3)) + 0.05)
        assert np.abs(rep.X - base.X).max() <= 1e-8

    # feasible projection never opposes its input
    for _ in range(50):
        W = np.maximum(rng.standard_normal((4, 3)), 0.0)
        Z = rng.standard_normal((4, 3))
        assert np.sum(Z * project_feasible_direction(W, Z)) >= -1e-14

    # factored apply agrees with the full apply
    ops = [demo_clustered_walk(),
           generate_random_grid(RandomGridSpec(n=7, seed=1)),
           SeparableGrowthOperator.standard(9)]
    for o in ops:
        m, n = o.shape
        for r in (1, 2, 3):
            U = rng.standard_normal((m, r))
            V = rng.standard_normal((n, r))
            full = o.apply_full(U @ V.T)
            assert np.abs(o.apply_factored(U, V) - full).max() <= 1e-12

    # nonnegative factorization cannot beat the unconstrained optimum
    for seed in range(5):
        M = np.random.default_rng(seed).random((7, 6))
        svd_err = np.linalg.norm(M - truncated_svd(M, 2).reconstruct())
        res = nmf(M, 2, n_iters=200, seed=seed)
        assert np.linalg.norm(M - res.W @ res.H) >= svd_err - 1e-12

    # eigenvalue ascends along accepted steps for a self-adjoint operator
    A = np.array([[0.5, 0.5, 0.0],
                  [0.5, 0.0, 0.5],
                  [0.0, 0.5, 0.5]])
    I = np.eye(3)
    sym = MarkovGridOperator([(0.5, A, I), (0.5, I, A)])
    K = rneg_solve(sym, rank=2, seed=4).iterations
    lams = np.array([rneg_solve(sym, rank=2, seed=4, nmax=k).eigenvalue
                     for k in range(1, K + 1)])  # the accepted iterates
    assert np.all(np.diff(lams) >= -1e-12)

    dt = time.perf_counter() - t0
    assert dt < 120.0
    print(f"CRITERION 10 PASS: all invariant families hold, {dt:.0f} s")


def test_criterion_11_factored_apply_scaling():
    """Doubling n multiplies the factored apply cost by <= 5."""
    cases = {}
    for n in (200, 400):
        op = generate_random_grid(RandomGridSpec(n=n, t=3, density=0.9,
                                                 seed=0,
                                                 family="independent"))
        rng = np.random.default_rng(1)
        U = rng.random((n, 5))
        V = rng.random((n, 5))
        op.apply_factored(U, V)
        cases[n] = (op, U, V)
    # the two sizes alternate round by round, so a change in host speed
    # during the measurement hits both alike
    times = dict.fromkeys(cases, np.inf)
    for _ in range(7):
        for n, (op, U, V) in cases.items():
            t0 = time.perf_counter()
            for _ in range(20):
                op.apply_factored(U, V)
            times[n] = min(times[n], (time.perf_counter() - t0) / 20)
    ratio = times[400] / times[200]
    assert ratio <= 5.0
    print(f"CRITERION 11 PASS: {times[200] * 1e6:.0f} us -> "
          f"{times[400] * 1e6:.0f} us, ratio {ratio:.2f}")
