"""Tests for the benchmark harness, metric rows, CSV emission, and CLI.

Aggregation is checked against numpy mean/std computed directly on the
row values; CLI behavior is exercised through subprocesses so the exit
codes are the ones a shell would see.
"""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nneig import bench, cli
from nneig.cli import main
from nneig.bench import (
    CSV_HEADER,
    KNOWN_METHODS,
    ExperimentConfig,
    MetricsRow,
    aggregate,
    build_operator,
    evaluate_against_reference,
    render_rows,
    run_experiment,
)
from nneig.markovgrid import (demo_path_walk, generate_block_grid,
                              generate_random_grid)
from nneig.operators import (HadamardGrowthOperator, load_operator,
                             save_operator)
from nneig.solvers import _report, krylov_reference

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def run_cli(*args, cwd=None, timeout=None):
    # the package under test, whether or not it is installed
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC + os.pathsep + path if path else SRC)
    return subprocess.run([sys.executable, "-m", "nneig", *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=timeout, env=env)


def tiny_config(**over):
    base = dict(kind="random-grid", n=6, rank=1, trials=2, seed=3,
                methods=("power", "power+svd", "rneg"), density=0.9,
                family="shared-pair")
    base.update(over)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_json_round_trip(self):
        cfg = tiny_config()
        back = ExperimentConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ExperimentConfig(kind="banded", n=4, rank=1)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="methods"):
            ExperimentConfig(kind="random-grid", n=4, rank=1,
                             methods=("power", "gradient"))

    def test_unknown_init_policy_rejected(self):
        with pytest.raises(ValueError, match="ode_init"):
            ExperimentConfig(kind="random-grid", n=4, rank=1,
                             ode_init="warmest")

    def test_trials_lower_bound(self):
        with pytest.raises(ValueError, match="trial"):
            ExperimentConfig(kind="random-grid", n=4, rank=1, trials=0)

    def test_from_json_rejects_non_object(self):
        with pytest.raises((ValueError, TypeError)):
            ExperimentConfig.from_json("[1, 2]")

    @pytest.mark.parametrize("name,value", [
        ("power_tol", np.nan), ("psi_tol", -1.0), ("rneg_tol", np.inf),
        ("psi_h", 0.0), ("rneg_h0", np.nan), ("power_iters", 0),
        ("rneg_nmax", 0), ("psi_steps", -1), ("methods", ()),
        ("rank", 0), ("rank", 5),
        # counts that are not integers, and lists given as a string
        ("rneg_nmax", 50.5), ("psi_steps", 10.5), ("power_iters", 1e3),
        ("rank", 2.0), ("rank", True), ("trials", 1.5),
        ("n", 4.0), ("seed", 0.5), ("sizes", "55"), ("sizes", [5.7, 4.2]),
        ("methods", "rneg"),
        # a tolerance is a required number: null is no default for it
        ("power_tol", None), ("psi_tol", None), ("rneg_tol", None),
        ("power_tol", "1e-11"), ("psi_tol", "tight"), ("rneg_tol", "1e-8"),
    ])
    def test_bad_solver_knob_rejected(self, name, value):
        # the field is checked at load, as the solver would check it, and
        # named in the message
        fields = {"kind": "block-grid", "n": 4, "rank": 1, name: value}
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**fields)

    def test_rank_bounded_by_block_sizes(self):
        # a block grid with explicit sizes has sum(sizes) rows, whatever n
        cfg = dict(kind="block-grid", n=2, sizes=(3, 3))
        assert ExperimentConfig(rank=6, **cfg).rank == 6
        with pytest.raises(ValueError, match="rank"):
            ExperimentConfig(rank=7, **cfg)

    @pytest.mark.parametrize("path", sorted(
        (ROOT / "perfbench" / "workloads").glob("*.json")),
        ids=lambda p: p.stem)
    def test_benchmark_workloads_load(self, path):
        assert ExperimentConfig.from_json(path.read_text()).trials >= 1


class TestEvaluateAgainstReference:
    # rows are built from solve reports: the eigenvalue, residual and
    # convergence flag are the report's, the rest is measured against the
    # reference
    def setup_method(self):
        self.op = demo_path_walk()
        self.ref = krylov_reference(self.op, tol=1e-11)

    def report(self, X):
        return _report("m", self.op, X, time.perf_counter(), 0, "budget", {})

    def test_reference_against_itself(self):
        row = evaluate_against_reference(self.ref, self.ref, "power", 0.1)
        assert row.relerr == 0.0
        assert row.lambda_err == 0.0
        assert row.residual == self.ref.residual
        assert row.neg_count == 0
        assert row.converged == 1.0
        assert row.time_s == 0.1

    def test_sign_gauge_alignment(self):
        # a global sign flip is gauge, not sign mixing
        rep = dataclasses.replace(self.ref, X=-self.ref.X)
        row = evaluate_against_reference(rep, self.ref, "m", 0.0)
        assert row.neg_count == 0
        assert row.relerr <= 1e-12

    def test_genuine_negatives_counted(self):
        X = self.ref.X.copy()
        X[0, 1] = -X[0, 1]
        for sign in (1.0, -1.0):
            rep = self.report(sign * X)
            row = evaluate_against_reference(rep, self.ref, "m", 0.0)
            assert row.neg_count == 1
            assert row.converged == 0.0
            assert row.residual == rep.residual
            assert row.lambda_err == abs(rep.eigenvalue - self.ref.eigenvalue)


class TestAggregate:
    def test_mean_and_std_match_numpy(self):
        rows1 = [MetricsRow("a", 1.0, 0.5, 0.1, 0.01, 3, 1.0)]
        rows2 = [MetricsRow("a", 3.0, 0.7, 0.3, 0.03, 5, 0.0)]
        out = aggregate([rows1, rows2])
        assert [r.method for r in out] == ["a", "a_std"]
        table = np.array([[1.0, 0.5, 0.1, 0.01, 3, 1.0],
                          [3.0, 0.7, 0.3, 0.03, 5, 0.0]])
        np.testing.assert_allclose(out[0].values(), table.mean(axis=0))
        np.testing.assert_allclose(out[1].values(), table.std(axis=0, ddof=1))

    def test_single_trial_zero_std(self):
        rows = [[MetricsRow("z", 1.0, 0.5, 0.1, 0.01, 3, 1.0)]]
        out = aggregate(rows)
        assert all(v == 0.0 for v in out[1].values())

    def test_method_order_preserved(self):
        trial = [MetricsRow("m1", 0, 0, 0, 0, 0, 1),
                 MetricsRow("m2", 0, 0, 0, 0, 0, 1)]
        out = aggregate([trial])
        assert [r.method for r in out] == ["m1", "m1_std", "m2", "m2_std"]


class TestRendering:
    def rows(self):
        return [MetricsRow("rneg", 0.25, 1.5e-4, 2e-9, 3e-7, 0, 1.0)]

    def test_csv_header_exact(self):
        text = render_rows(self.rows())
        assert text.splitlines()[0] == CSV_HEADER

    def test_csv_values_round_trip(self):
        text = render_rows(self.rows())
        rec = list(csv.DictReader(io.StringIO(text)))[0]
        assert rec["method"] == "rneg"
        assert float(rec["time_s"]) == 0.25
        assert float(rec["relerr"]) == 1.5e-4
        assert float(rec["residual"]) == 2e-9
        assert float(rec["lambda_err"]) == 3e-7
        assert float(rec["neg_count"]) == 0.0
        assert float(rec["converged"]) == 1.0

    def test_no_timing_zeroes_time_column(self):
        text = render_rows(self.rows(), include_timing=False)
        rec = list(csv.DictReader(io.StringIO(text)))[0]
        assert float(rec["time_s"]) == 0.0

    def test_text_format(self):
        text = render_rows(self.rows(), fmt="text")
        lines = text.splitlines()
        assert lines[0].split() == CSV_HEADER.split(",")
        assert lines[1].startswith("rneg")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            render_rows(self.rows(), fmt="tsv")


class TestRunExperiment:
    def test_deterministic_given_config(self):
        cfg = tiny_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for ra, rb in zip(a, b):
            for x, y in zip(ra, rb):
                assert x.method == y.method
                assert x.relerr == y.relerr
                assert x.lambda_err == y.lambda_err
                assert x.neg_count == y.neg_count

    def test_trials_use_distinct_operators(self):
        cfg = tiny_config()
        op0 = build_operator(cfg, cfg.seed)
        op1 = build_operator(cfg, cfg.seed + 1)
        assert not all(np.array_equal(a[1], b[1])
                       for a, b in zip(op0.terms, op1.terms))

    def test_row_shape(self):
        cfg = tiny_config(trials=1)
        per_trial = run_experiment(cfg)
        assert len(per_trial) == 1
        assert [r.method for r in per_trial[0]] == list(cfg.methods)

    def test_block_grid_psi_covers_a_unit_span(self, monkeypatch):
        # the shipped block-grid config: a span of 1.0 at the default step
        # 0.4 is 3 steps, at psi_h 0.15 it is 7, and explicit psi_steps win
        budgets = []

        def recorded(*args, **kwargs):
            budgets.append(kwargs.get("max_steps"))
            return psi_solve(*args, **kwargs)

        psi_solve = bench.psi_solve
        monkeypatch.setattr(bench, "psi_solve", recorded)
        cfg = ExperimentConfig.from_json(
            (ROOT / "configs" / "block-grid.json").read_text())
        for over in ({}, {"psi_h": 0.15}, {"psi_steps": 100}):
            run_experiment(dataclasses.replace(cfg, trials=1,
                                               methods=("psi",), **over))
        assert budgets == [3, 7, 100]

    def test_hadamard_psi_budget_stays_in_steps(self):
        cfg = ExperimentConfig.from_json(
            (ROOT / "configs" / "hadamard-growth.json").read_text())
        op = build_operator(cfg, cfg.seed)
        assert bench._psi_budget(op, cfg) == 30_000
        cold = ExperimentConfig(kind="random-grid", n=6, rank=1,
                                family="shared-pair")
        assert bench._psi_budget(build_operator(cold, 0), cold) is None

    def test_dispatch_calls_module_names(self, monkeypatch):
        # perfbench/tracing.py swaps these names on nneig.bench to time
        # them, power_reference as its reference span, and tells warm
        # starts by the init keyword; a dispatch that bypasses them would
        # go untraced and charge warm solves nothing for the reference
        calls = {}

        def recorder(name, fn):
            def recorded(*args, **kwargs):
                calls.setdefault(name, []).append(kwargs)
                return fn(*args, **kwargs)
            return recorded

        for name in ("build_operator", "power_reference", "psi_solve",
                     "rneg_solve", "nmf", "truncated_svd",
                     "evaluate_against_reference", "generate_block_grid"):
            monkeypatch.setattr(bench, name,
                                recorder(name, getattr(bench, name)))
        for name in ("HadamardGrowthOperator", "SeparableGrowthOperator"):
            standard = getattr(bench, name).standard
            monkeypatch.setattr(bench, name, SimpleNamespace(
                standard=recorder(name, standard)))
        # block grids warm-start both integrators from the reference
        cfgs = [ExperimentConfig(kind="block-grid", n=6, rank=2, seed=1,
                                 block_style="trap", power_tol=1e-12)]
        cfgs += [ExperimentConfig(kind=kind, n=6, rank=1, methods=("power",),
                                  power_iters=300)
                 for kind in ("hadamard-growth", "separable-growth")]
        for cfg in cfgs:
            run_experiment(cfg)
        assert set(calls) == {
            "build_operator", "power_reference", "psi_solve", "rneg_solve",
            "nmf", "truncated_svd", "evaluate_against_reference",
            "generate_block_grid", "HadamardGrowthOperator",
            "SeparableGrowthOperator"}
        # one reference per trial, with the config's tolerance, and its
        # budget where the config sets one
        assert calls["power_reference"] == [
            {"tol": 1e-12}, {"tol": 1e-11, "max_iters": 300},
            {"tol": 1e-11, "max_iters": 300}]
        assert len(calls["evaluate_against_reference"]) == 7
        for name in ("psi_solve", "rneg_solve"):
            assert [kw.get("init") is not None for kw in calls[name]] == [True]

    def test_reference_factored_once_per_trial(self, monkeypatch):
        # power+svd and the warm psi start share one truncated SVD, and
        # power+nmf and the warm rneg start one HALS fit, per trial
        calls = {"nmf": 0, "truncated_svd": 0}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in calls:
            monkeypatch.setattr(bench, name, counted(name, getattr(bench,
                                                                   name)))
        run_experiment(ExperimentConfig(kind="block-grid", n=6, rank=2,
                                        seed=1, trials=2, block_style="trap"))
        assert calls == {"nmf": 2, "truncated_svd": 2}

    def test_rows_read_the_solve_reports(self, monkeypatch):
        # every row but power's is built from the one report bench.solve
        # returned for it; the power row is the reference's own report
        power_reference, solve = bench.power_reference, bench.solve
        refs, reports = [], []

        def reference(*args, **kwargs):
            refs.append(power_reference(*args, **kwargs))
            return refs[-1]

        def recorded(*args, **kwargs):
            reports.append(solve(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(bench, "power_reference", reference)
        monkeypatch.setattr(bench, "solve", recorded)
        cfg = ExperimentConfig(kind="block-grid", n=6, rank=2, seed=1,
                               trials=2, block_style="trap")
        per_trial = run_experiment(cfg)
        assert len(refs) == cfg.trials
        assert len(reports) == 4 * cfg.trials
        for k, (ref, rows) in enumerate(zip(refs, per_trial)):
            reps = {r.method: r for r in reports[4 * k:4 * k + 4]}
            reps["power"] = ref
            assert [row.method for row in rows] == list(KNOWN_METHODS)
            for row in rows:
                rep = reps[row.method]
                assert row.residual == rep.residual
                assert row.converged == float(rep.converged)
                assert row.lambda_err == abs(rep.eigenvalue - ref.eigenvalue)
            assert rows[0].relerr == rows[0].lambda_err == 0.0

    def test_solve_power_is_the_reference_report(self, monkeypatch):
        # the reference's own report, renamed: no application besides the
        # reference's own
        op = HadamardGrowthOperator.standard(9)
        apply, calls = op.apply_full, []

        def counted(X):
            calls.append(X)
            return apply(X)

        monkeypatch.setattr(op, "apply_full", counted)
        rep = bench.solve(op, "power", 1)
        assert rep.method == "power"
        assert len(calls) == rep.iterations

    @pytest.mark.parametrize("method", ["power+svd", "power+nmf"])
    def test_compression_of_a_given_reference(self, monkeypatch, method):
        # a compression handed the reference runs none, and makes what the
        # cold solve at the same tolerance makes
        op = generate_block_grid((1,) * 6, style="trap", seed=1)
        cold = bench.solve(op, method, 2, seed=3, tol=1e-11)
        ref = krylov_reference(op, tol=1e-11)

        def unreachable(*args, **kwargs):
            raise AssertionError("the reference ran")

        monkeypatch.setattr(bench, "power_reference", unreachable)
        warm = bench.solve(op, method, 2, seed=3, init=ref)
        assert np.array_equal(warm.X, cold.X)
        assert warm.details == cold.details

    def test_power_nmf_not_converged_when_fit_hits_budget(self, monkeypatch):
        # power+nmf converges only if the reference did and the HALS fit
        # stopped on its own; power+svd keeps the reference's flag
        cfg = ExperimentConfig(kind="block-grid", n=6, rank=2, seed=1,
                               block_style="trap",
                               methods=("power", "power+svd", "power+nmf"))

        def flags():
            return {r.method: r.converged for r in run_experiment(cfg)[0]}

        assert flags() == {"power": 1.0, "power+svd": 1.0, "power+nmf": 1.0}
        fit = bench.nmf
        monkeypatch.setattr(bench, "nmf", lambda *args, **kwargs: fit(
            *args, **{**kwargs, "n_iters": 1}))
        assert flags() == {"power": 1.0, "power+svd": 1.0, "power+nmf": 0.0}


class TestCLI:
    def test_generate_and_validate_stochastic(self, tmp_path):
        path = tmp_path / "op.json"
        out = run_cli("generate", "--kind", "demo-path-walk",
                      "--out", str(path))
        assert out.returncode == 0
        out = run_cli("validate", str(path))
        assert out.returncode == 0
        assert "PASS" in out.stdout

    def test_validate_flags_substochastic_grid(self, tmp_path):
        path = tmp_path / "trap.json"
        out = run_cli("generate", "--kind", "block-grid", "--n", "6",
                      "--style", "trap", "--seed", "1", "--out", str(path))
        assert out.returncode == 0
        out = run_cli("validate", str(path))
        assert out.returncode == 1
        assert "FAIL" in out.stdout

    def test_validate_rejects_growth_operator(self, tmp_path):
        path = tmp_path / "op.json"
        run_cli("generate", "--kind", "hadamard-growth", "--n", "6",
                "--out", str(path))
        out = run_cli("validate", str(path))
        assert out.returncode == 1
        assert "grid operators only" in out.stderr

    def test_solve_power(self, tmp_path):
        path = tmp_path / "op.json"
        run_cli("generate", "--kind", "demo-path-walk", "--out", str(path))
        rep = tmp_path / "report.json"
        out = run_cli("solve", str(path), "--method", "power",
                      "--out", str(rep))
        assert out.returncode == 0
        payload = json.loads(rep.read_text())
        assert payload["eigenvalue"] == pytest.approx(1.0, abs=1e-6)
        assert payload["converged"]

    @pytest.mark.parametrize("method,reference", [
        ("power", krylov_reference),
        ("power+svd", krylov_reference),
        ("power+nmf", krylov_reference),
    ])
    def test_solve_reference_solver(self, tmp_path, method, reference):
        # all three run the Krylov reference, as the bench does; the two
        # post-processing baselines then factor it
        path = tmp_path / "op.json"
        run_cli("generate", "--kind", "hadamard-growth", "--n", "9",
                "--out", str(path))
        rep = tmp_path / "report.json"
        out = run_cli("solve", str(path), "--method", method, "--rank", "2",
                      "--out", str(rep))
        assert out.returncode == 0
        payload = json.loads(rep.read_text())
        want = reference(load_operator(path))
        assert payload["method"] == method
        assert payload["iterations"] == want.iterations
        # the report carries the reference's record, restart counts too,
        # and for power+nmf the HALS fit's stop and sweep count
        details = payload["details"]
        if method == "power+nmf":
            assert details.pop("fit_stop") in ("stationary", "floor")
            assert details.pop("fit_sweeps") >= 1
        assert details == want.details
        assert details["thick_restarts"] >= 1
        assert (details["thick_restarts"] + details["explicit_restarts"]
                == details["restarts"])

    @pytest.mark.parametrize("method,keys", [
        ("power+svd", ("U", "S", "V")), ("power+nmf", ("U", "V"))])
    def test_solve_compression_json_carries_its_factors(self, tmp_path,
                                                        method, keys):
        # the factorization as computed: its normalized product is X
        path = tmp_path / "op.json"
        save_operator(HadamardGrowthOperator.standard(9), path)
        rep = tmp_path / "report.json"
        assert main(["solve", str(path), "--method", method, "--rank", "2",
                     "--out", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        assert set(keys) <= set(payload)
        factors = [np.array(payload[k]) for k in keys]
        factors[-1] = factors[-1].T
        product = np.linalg.multi_dot(factors)
        np.testing.assert_allclose(product / np.linalg.norm(product),
                                   np.array(payload["X"]), rtol=0,
                                   atol=1e-12)

    def test_solve_runs_the_bench_dispatch(self, tmp_path, monkeypatch):
        # nneig solve reaches every method through the names the bench
        # calls and perfbench/tracing.py swaps, hands --max-iters to each
        # solver under its own budget keyword, leaves each solver its own
        # tolerance when --tol is unset, and starts psi and rneg cold
        path = tmp_path / "op.json"
        save_operator(HadamardGrowthOperator.standard(9), path)
        calls = {}

        def recorder(name, fn):
            def recorded(*args, **kwargs):
                calls.setdefault(name, []).append(kwargs)
                return fn(*args, **kwargs)
            return recorded

        for name in ("power_reference", "psi_solve", "rneg_solve", "nmf",
                     "truncated_svd"):
            monkeypatch.setattr(bench, name,
                                recorder(name, getattr(bench, name)))
        for method in KNOWN_METHODS:
            assert main(["solve", str(path), "--method", method, "--rank",
                         "2", "--seed", "4", "--max-iters", "40"]) == 0
        assert calls["power_reference"] == [{"max_iters": 40}] * 3
        assert calls["truncated_svd"] == [{}]
        assert calls["nmf"] == [{"seed": 4}]
        assert calls["psi_solve"] == [{"h": None, "seed": 4, "init": None,
                                       "max_steps": 40}]
        assert calls["rneg_solve"] == [{"h0": None, "seed": 4, "init": None,
                                        "nmax": 40}]

    @pytest.mark.parametrize("method", ["power+svd", "power+nmf"])
    def test_solve_compression_rank_checked_before_the_reference(
            self, tmp_path, monkeypatch, capsys, method):
        # a rank the compression cannot have fails before the reference
        # spends its budget
        path = tmp_path / "op.json"
        op = demo_path_walk()
        save_operator(op, path)

        def unreachable(*args, **kwargs):
            raise AssertionError("the reference ran")

        monkeypatch.setattr(type(op), "apply_full", unreachable)
        assert main(["solve", str(path), "--method", method,
                     "--rank", "9"]) == cli.EXIT_CONFIG
        assert "rank must lie in [1, 3]" in capsys.readouterr().err

    @pytest.mark.parametrize("method", KNOWN_METHODS)
    @pytest.mark.parametrize("iters", ["0", "-1"])
    def test_solve_max_iters_below_one_is_config_error(self, tmp_path,
                                                       method, iters):
        path = tmp_path / "op.json"
        run_cli("generate", "--kind", "demo-path-walk", "--out", str(path))
        out = run_cli("solve", str(path), "--method", method,
                      "--max-iters", iters)
        assert out.returncode == 1
        assert "--max-iters" in out.stderr

    @pytest.mark.parametrize("method", KNOWN_METHODS)
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_solve_bad_tolerance_is_config_error(self, tmp_path, method, tol):
        # NaN and negative tolerances are never met, and the solve must not
        # spend its whole budget before saying so; an infinite one would
        # report any start as converged
        path = tmp_path / "op.json"
        run_cli("generate", "--kind", "demo-path-walk", "--out", str(path))
        out = run_cli("solve", str(path), "--method", method, "--tol", tol,
                      timeout=60)
        assert out.returncode == 1
        assert "tol" in out.stderr

    def test_solve_rneg_reports_nonnegative(self, tmp_path):
        path = tmp_path / "op.json"
        run_cli("generate", "--kind", "demo-path-walk", "--out", str(path))
        out = run_cli("solve", str(path), "--method", "rneg",
                      "--rank", "1", "--seed", "2")
        assert out.returncode == 0
        assert "neg_count=0" in out.stdout

    def test_solve_rneg_json_reports_capped_steps(self, tmp_path):
        # the count of accepted steps the crossing cap shortened; a cold
        # Hadamard start reaches the boundary early
        path = tmp_path / "op.json"
        save_operator(HadamardGrowthOperator.standard(100), path)
        rep = tmp_path / "report.json"
        assert main(["solve", str(path), "--method", "rneg", "--rank", "3",
                     "--max-iters", "300", "--out", str(rep)]) == 0
        details = json.loads(rep.read_text())["details"]
        assert 0 < details["capped"] <= 300

    def test_solve_infinite_step_is_config_error(self, tmp_path):
        path = tmp_path / "op.json"
        run_cli("generate", "--kind", "demo-path-walk", "--out", str(path))
        out = run_cli("solve", str(path), "--method", "rneg", "--h0", "inf",
                      timeout=60)
        assert out.returncode == 1
        assert "h0" in out.stderr

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid:RuntimeWarning")
    def test_solve_diverging_psi_is_solver_error(self, tmp_path, capsys):
        # a finite step far past the stability bound is a solver failure,
        # not a config error
        path = tmp_path / "op.json"
        save_operator(HadamardGrowthOperator.standard(20), path)
        assert main(["solve", str(path), "--method", "psi", "--rank", "2",
                     "--h0", "1e150"]) == cli.EXIT_SOLVER
        assert "non-finite" in capsys.readouterr().err

    def test_solve_power_nmf_time_includes_the_fit(self, tmp_path,
                                                   monkeypatch):
        # the compressions are charged the reference, the truncation and
        # the HALS fit, as in the bench
        path = tmp_path / "op.json"
        run_cli("generate", "--kind", "hadamard-growth", "--n", "9",
                "--out", str(path))
        fit = bench.nmf

        def slow_nmf(*args, **kwargs):
            time.sleep(0.5)
            return fit(*args, **kwargs)

        monkeypatch.setattr(bench, "nmf", slow_nmf)
        rep = tmp_path / "report.json"
        assert main(["solve", str(path), "--method", "power+nmf", "--rank",
                     "2", "--out", str(rep)]) == 0
        assert json.loads(rep.read_text())["wall_time_s"] >= 0.5

    def test_solve_power_nmf_fit_on_budget_is_not_converged(self, tmp_path,
                                                           monkeypatch):
        # a HALS fit cut by its sweep budget ends the solve on "budget",
        # though the reference converged
        path = tmp_path / "op.json"
        run_cli("generate", "--kind", "hadamard-growth", "--n", "9",
                "--out", str(path))
        fit = bench.nmf
        monkeypatch.setattr(bench, "nmf", lambda *args, **kwargs: fit(
            *args, **{**kwargs, "n_iters": 1}))
        rep = tmp_path / "report.json"
        assert main(["solve", str(path), "--method", "power+nmf", "--rank",
                     "2", "--out", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        assert payload["converged"] is False
        assert payload["details"]["stop"] == "budget"
        assert (payload["details"]["fit_stop"],
                payload["details"]["fit_sweeps"]) == ("budget", 1)
        want = krylov_reference(load_operator(path), tol=1e-8)
        assert want.converged

    @pytest.mark.parametrize("method", ["power", "rneg"])
    @pytest.mark.parametrize("field", ["eps", "eps_r", "r0"])
    def test_solve_non_finite_growth_parameter_is_config_error(
            self, tmp_path, capsys, method, field):
        path = tmp_path / "op.json"
        run_cli("generate", "--kind", "separable-growth", "--n", "6",
                "--out", str(path))
        d = json.loads(path.read_text())
        d[field] = float("nan")
        path.write_text(json.dumps(d))
        assert main(["solve", str(path), "--method", method]) == 1
        assert f"{field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["eps", "eps_r", "r0"])
    def test_bench_non_finite_growth_parameter_is_config_error(
            self, tmp_path, capsys, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"kind": "separable-growth", "n": 6, "rank": 1,
             field: float("nan")}))
        assert main(["bench", str(cfg_path)]) == 1
        assert f"{field} must be finite" in capsys.readouterr().err

    def test_solve_missing_file_is_io_error(self):
        out = run_cli("solve", "/nonexistent/op.json", "--method", "power")
        assert out.returncode == 3

    def test_solve_bad_rank_is_config_error(self, tmp_path):
        path = tmp_path / "op.json"
        run_cli("generate", "--kind", "demo-path-walk", "--out", str(path))
        out = run_cli("solve", str(path), "--method", "rneg", "--rank", "9")
        assert out.returncode == 1

    def test_bench_csv_reproducible_without_timing(self, tmp_path):
        cfg = tiny_config()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        a = run_cli("bench", str(cfg_path), "--format", "csv", "--no-timing")
        b = run_cli("bench", str(cfg_path), "--format", "csv", "--no-timing")
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout
        header = a.stdout.splitlines()[0]
        assert header == CSV_HEADER

    def test_bench_seed_override_changes_rows(self, tmp_path):
        cfg = tiny_config(trials=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        a = run_cli("bench", str(cfg_path), "--no-timing")
        b = run_cli("bench", str(cfg_path), "--no-timing", "--seed", "99")
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout != b.stdout

    def test_bench_writes_file(self, tmp_path):
        cfg = tiny_config(trials=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        out_path = tmp_path / "table.csv"
        out = run_cli("bench", str(cfg_path), "--out", str(out_path),
                      "--no-timing")
        assert out.returncode == 0
        assert out_path.read_text().splitlines()[0] == CSV_HEADER

    def test_bench_unknown_kind_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "banded", "n": 4, "rank": 1}))
        out = run_cli("bench", str(cfg_path))
        assert out.returncode == 1

    @pytest.mark.parametrize("kind", ["hadamard-growth", "separable-growth",
                                      "block-grid", "random-grid"])
    @pytest.mark.parametrize("n", [0, -3])
    def test_generate_n_below_one_is_config_error(self, tmp_path, capsys,
                                                  kind, n):
        # generate takes no rank, so the error must name n
        path = tmp_path / "op.json"
        assert main(["generate", "--kind", kind, "--n", str(n),
                     "--out", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"n must be at least 1, got {n}" in err
        assert "rank" not in err
        assert not path.exists()

    @pytest.mark.parametrize("kind", ["hadamard-growth", "separable-growth",
                                      "block-grid", "random-grid"])
    def test_bench_n_below_one_is_config_error(self, tmp_path, capsys, kind):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": kind, "n": 0, "rank": 1}))
        assert main(["bench", str(cfg_path)]) == 1
        assert "n must be at least 1, got 0" in capsys.readouterr().err

    def test_block_grid_sizes_ignore_n(self, tmp_path):
        # the sizes shape a block grid, not n
        cfg = ExperimentConfig(kind="block-grid", n=0, rank=5, sizes=[2, 3],
                               block_style="trap")
        assert build_operator(cfg, 0).shape == (5, 5)
        path = tmp_path / "op.json"
        assert main(["generate", "--kind", "block-grid", "--n", "0",
                     "--sizes", "2", "3", "--out", str(path)]) == 0
        assert load_operator(path).shape == (5, 5)

    @pytest.mark.parametrize("knobs", [
        {"rneg_nmax": 0, "psi_steps": -3},
        {"psi_tol": float("nan")},
        {"methods": []},
        {"rank": 0},
        {"rank": 7},
        {"kind": "block-grid", "sizes": "55"},
        {"kind": "block-grid", "sizes": [5.7, 4.2]},
        {"rneg_nmax": 50.5},
        {"psi_steps": 10.5},
        {"rank": 2.0},
        {"rank": True},
        {"methods": "rneg"},
        {"power_tol": None},
        {"psi_tol": None},
        {"rneg_tol": None},
        {"power_tol": "1e-11"},
        {"rneg_tol": "1e-8"},
    ], ids=["budgets", "nan-tol", "no-methods", "rank-0", "rank-above-n",
            "sizes-string", "sizes-float", "nmax-float", "psi-steps-float",
            "rank-float", "rank-bool", "methods-string", "power-tol-null",
            "psi-tol-null", "rneg-tol-null", "power-tol-string",
            "rneg-tol-string"])
    def test_bench_bad_solver_knob_fails_before_any_trial(
            self, tmp_path, monkeypatch, knobs):
        # a knob no solver accepts is a config error before any trial
        # spends time on its operator and reference
        built = []
        monkeypatch.setattr(bench, "build_operator",
                            lambda *args: built.append(args))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"kind": "random-grid", "n": 6, "rank": 1, **knobs}))
        assert main(["bench", str(cfg_path)]) == 1
        assert built == []

    @pytest.mark.parametrize("kind,field", [
        ("block-grid", "delta"), ("block-grid", "block_style"),
        ("random-grid", "t"), ("random-grid", "density"),
        ("random-grid", "family"), ("hadamard-growth", "eps"),
        ("hadamard-growth", "eps_r"), ("separable-growth", "r0"),
        ("block-grid", "power_iters"), ("random-grid", "power_iters"),
        ("block-grid", "rneg_nmax"), ("random-grid", "rneg_nmax"),
    ])
    def test_null_field_runs_the_default(self, tmp_path, kind, field):
        # a null family parameter or budget is the field left out: the
        # same operator, byte for byte, and the same rows
        outputs = []
        for extra in ({}, {field: None}):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(
                {"kind": kind, "n": 6, "rank": 2, **extra}))
            cfg = ExperimentConfig.from_json(cfg_path.read_text())
            op_path, rows_path = tmp_path / "op.json", tmp_path / "rows.csv"
            save_operator(build_operator(cfg, cfg.seed), op_path)
            assert main(["bench", str(cfg_path), "--no-timing",
                         "--out", str(rows_path)]) == 0
            outputs.append((op_path.read_bytes(), rows_path.read_text()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("kind,make", [
        ("block-grid", lambda n, s: generate_block_grid(sizes=(1,) * n,
                                                        seed=s)),
        ("random-grid", lambda n, s: generate_random_grid(n, seed=s)),
    ])
    def test_generate_without_family_flags_runs_the_generator(
            self, tmp_path, kind, make):
        # no flag restates a generator default
        path, want = tmp_path / "op.json", tmp_path / "want.json"
        assert main(["generate", "--kind", kind, "--n", "7", "--seed", "5",
                     "--out", str(path)]) == 0
        save_operator(make(7, 5), want)
        assert path.read_bytes() == want.read_bytes()

    def test_bench_malformed_json_is_io_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        out = run_cli("bench", str(cfg_path))
        assert out.returncode == 3

    def test_usage_error_is_config_error(self):
        out = run_cli("frobnicate")
        assert out.returncode == 1


# every operator family applied every way, and a one-trial block-grid
# bench, in a fresh interpreter that must never load scipy
NUMPY_ONLY = """
import sys
import numpy as np
from nneig.bench import ExperimentConfig, run_experiment
from nneig.markovgrid import generate_block_grid, generate_random_grid
from nneig.operators import HadamardGrowthOperator, SeparableGrowthOperator
block = generate_block_grid((1,) * 6, delta=0.3, style="trap")
assert block.factor_form() is None  # its terms are folded
U = np.ones((6, 2))
for op in (block, generate_random_grid(6),
           HadamardGrowthOperator.standard(6),
           SeparableGrowthOperator.standard(6)):
    op.apply_full(U @ U.T)
    op.apply_factored(U, U)
    if op.factor_form() is not None:
        op.factor_form().project(U, U)
run_experiment(ExperimentConfig(kind="block-grid", n=6, rank=2, trials=1,
                                block_style="trap"))
assert "scipy" not in sys.modules, "scipy was imported"
"""


def test_package_runs_without_scipy():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
    out = subprocess.run([sys.executable, "-c", NUMPY_ONLY],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
