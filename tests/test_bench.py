"""Tests for the benchmark harness, metric rows, CSV emission, and CLI.

Aggregation is checked against numpy mean/std computed directly on the
row values; CLI behavior is exercised through subprocesses so the exit
codes are the ones a shell would see.
"""

import csv
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
from nneig.markovgrid import demo_path_walk
from nneig.operators import (HadamardGrowthOperator, load_operator,
                             save_operator)
from nneig.solvers import krylov_reference, power_reference

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
                methods=("power", "power+svd", "rneg"), density=0.9)
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
    def setup_method(self):
        self.op = demo_path_walk()
        self.ref = power_reference(self.op, tol=1e-11)

    def test_reference_against_itself(self):
        row = evaluate_against_reference(self.op, self.ref.X, self.ref,
                                         "power", 0.1, True)
        assert row.relerr <= 1e-12
        assert row.lambda_err <= 1e-12
        assert row.neg_count == 0
        assert row.converged == 1.0

    def test_scale_invariance(self):
        a = evaluate_against_reference(self.op, self.ref.X, self.ref,
                                       "m", 0.0, True)
        b = evaluate_against_reference(self.op, 7.3 * self.ref.X, self.ref,
                                       "m", 0.0, True)
        assert b.relerr == pytest.approx(a.relerr, abs=1e-12)
        assert b.lambda_err == pytest.approx(a.lambda_err, abs=1e-12)

    def test_sign_gauge_alignment(self):
        # a global sign flip is gauge, not sign mixing
        row = evaluate_against_reference(self.op, -self.ref.X, self.ref,
                                         "m", 0.0, True)
        assert row.neg_count == 0
        assert row.relerr <= 1e-12

    def test_genuine_negatives_counted(self):
        X = self.ref.X.copy()
        X[0, 1] = -X[0, 1]
        row = evaluate_against_reference(self.op, X, self.ref, "m", 0.0, False)
        assert row.neg_count == 1
        assert row.converged == 0.0


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

    def test_dispatch_calls_module_names(self, monkeypatch):
        # perfbench/tracing.py swaps these names on nneig.bench to time
        # them, and tells warm starts by the init keyword; a dispatch that
        # bypasses them would go untraced and charge warm solves nothing
        # for the reference
        calls = {}

        def recorder(name, fn):
            def recorded(*args, **kwargs):
                calls.setdefault(name, []).append(kwargs)
                return fn(*args, **kwargs)
            return recorded

        for name in ("build_operator", "psi_solve", "rneg_solve", "nmf",
                     "truncated_svd", "evaluate_against_reference",
                     "generate_block_grid"):
            monkeypatch.setattr(bench, name,
                                recorder(name, getattr(bench, name)))
        for name in ("HadamardGrowthOperator", "SeparableGrowthOperator"):
            standard = getattr(bench, name).standard
            monkeypatch.setattr(bench, name, SimpleNamespace(
                standard=recorder(name, standard)))
        assert callable(bench.power_reference)
        # block grids warm-start both integrators from the reference
        run_experiment(ExperimentConfig(kind="block-grid", n=6, rank=2,
                                        seed=1))
        for kind in ("hadamard-growth", "separable-growth"):
            run_experiment(ExperimentConfig(kind=kind, n=6, rank=1,
                                            methods=("power",)))
        assert set(calls) == {
            "build_operator", "psi_solve", "rneg_solve", "nmf",
            "truncated_svd", "evaluate_against_reference",
            "generate_block_grid", "HadamardGrowthOperator",
            "SeparableGrowthOperator"}
        assert len(calls["evaluate_against_reference"]) == 7
        for name in ("psi_solve", "rneg_solve"):
            assert [kw.get("init") is not None for kw in calls[name]] == [True]


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
        want = reference(load_operator(path), tol=1e-8)
        assert payload["method"] == method
        assert payload["iterations"] == want.iterations

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
        fit = cli.nmf

        def slow_nmf(*args, **kwargs):
            time.sleep(0.5)
            return fit(*args, **kwargs)

        monkeypatch.setattr(cli, "nmf", slow_nmf)
        rep = tmp_path / "report.json"
        assert main(["solve", str(path), "--method", "power+nmf", "--rank",
                     "2", "--out", str(rep)]) == 0
        assert json.loads(rep.read_text())["wall_time_s"] >= 0.5

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
    ], ids=["budgets", "nan-tol", "no-methods", "rank-0", "rank-above-n",
            "sizes-string", "sizes-float", "nmax-float", "psi-steps-float",
            "rank-float", "rank-bool", "methods-string"])
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
from nneig.markovgrid import (BlockGridSpec, RandomGridSpec,
                              generate_block_grid, generate_random_grid)
from nneig.operators import HadamardGrowthOperator, SeparableGrowthOperator
block = generate_block_grid(BlockGridSpec(sizes=(1,) * 6, delta=0.3,
                                          style="trap"))
assert block.factor_form() is None  # its terms are folded
U = np.ones((6, 2))
for op in (block, generate_random_grid(RandomGridSpec(n=6)),
           HadamardGrowthOperator.standard(6),
           SeparableGrowthOperator.standard(6)):
    op.apply_full(U @ U.T)
    op.apply_factored(U, U)
    if op.factor_form() is not None:
        op.factor_form().project(U, U)
run_experiment(ExperimentConfig(kind="block-grid", n=6, rank=2, trials=1))
assert "scipy" not in sys.modules, "scipy was imported"
"""


def test_package_runs_without_scipy():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
    out = subprocess.run([sys.executable, "-c", NUMPY_ONLY],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
