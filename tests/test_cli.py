import contextlib
import copy
import csv
import inspect
import io
import json
import struct
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import enoc.cli
import enoc.value
from enoc import (ControlSchedule, ControlSignal, DivergenceError, DynamicsSpec,
                  EnsembleState, GridCoverageWarning, ParameterSpace, ProblemSpec,
                  TerminalCostSpec, TimeGrid, ValueGrid, builtin, integrate,
                  load_problem)
from enoc.cli import _dpp_check, main
from enoc.library import _BUILTINS


def run(args):
    return main(args)


@pytest.fixture
def small_verify_cfg(tmp_path):
    cfg = {
        "verify": {
            "trials": 15, "bounds_steps": 60, "dpp_steps": 3, "dpp_phis": 2,
            "epi_steps": 3, "hjb_steps": 20, "hjb_counts": 15,
            "gaps": [0.2, 0.1], "terminal_steps": 4,
            "osc_controls": 2, "osc_steps": 30,
        }
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_solve_smoke_oracle(tmp_path):
    out = tmp_path / "run"
    rc = run(["solve", "--problem", "decoupled-quadratic",
              "--param", "tau=[0.5]", "--method", "oracle",
              "--steps", "4", "--phi", "0.0", "--out", str(out)])
    assert rc == 0
    assert (out / "manifest.json").exists()
    assert (out / "value.csv").exists()
    assert (out / "control_oracle.csv").exists()
    assert (out / "trajectory_oracle.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["problem"] == "decoupled-quadratic"
    assert "oracle" in manifest["values"]


def test_solve_all_methods_cross_check(tmp_path):
    out = tmp_path / "run"
    rc = run(["solve", "--problem", "linear-ensemble",
              "--param", "a=[0.5,-0.3]", "--param", "c=[2.0,1.0]",
              "--method", "all", "--steps", "8", "--phi", "0.3,0.4",
              "--grid=-5:5:41", "--grid=-5:5:41", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    vals = manifest["values"]
    assert set(vals) == {"oracle", "dp", "dp_table", "adjoint"}
    # the dp table is first-order accurate; oracle and adjoint agree much
    # tighter, and dp's rollout realizes a cost no lower than the oracle's
    assert abs(vals["oracle"] - vals["adjoint"]) < 1e-6
    assert abs(vals["oracle"] - vals["dp_table"]) < 5.0 * (1.0 / 8 + 10.0 / 40)
    assert vals["oracle"] <= vals["dp"]
    assert (out / "value_grid.bin").exists()


@pytest.mark.parametrize("case", ["builtin", "expression"])
@pytest.mark.filterwarnings("ignore:axes do not cover")
def test_trajectory_csvs_are_the_integrated_controls(tmp_path, sine_drift_doc, case):
    # each solver returns its control's trajectory, which solve writes as is
    if case == "builtin":
        p = builtin("linear-ensemble", a=[0.5, -0.3], c=[2.0, 1.0])
        problem = ["--problem", "linear-ensemble", "--param", "a=[0.5,-0.3]",
                   "--param", "c=[2.0,1.0]"]
        methods = ["oracle", "dp", "adjoint"]
    else:
        doc = dict(sine_drift_doc, cost={"expression": "(x1 - w1) ** 2",
                                         "lower_bound_a": 0.0, "lower_bound_b": 0.0})
        doc["dynamics"] = {"expressions": ["w1 * x1 * cos(3 * t) + u1"],
                           "growth_c": 1.0, "lipschitz_k": 1.0}
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(doc))
        p, problem = load_problem(str(path)), ["--problem", str(path)]
        methods = ["oracle", "dp"]          # an expression problem has no Jacobians
    phi = EnsembleState(np.array([[0.3], [-0.2]]), p.space)
    for method in methods:
        out = tmp_path / method
        assert run(["solve", *problem, "--method", method, "--steps", "6",
                    "--phi", "0.3,-0.2", "--grid=-3:3:31", "--out", str(out)]) == 0
        with open(out / f"control_{method}.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        sig = ControlSignal(TimeGrid(0.0, p.horizon, 6),
                            [[float(v) for v in row[3:]] for row in rows])
        integrate(p, 0.0, phi, sig).to_csv(tmp_path / "want.csv")
        assert ((out / f"trajectory_{method}.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())


def test_solve_dp_dimension_guard_exits_2(tmp_path):
    rc = run(["solve", "--problem", "linear-ensemble", "--param", "M=6",
              "--method", "dp", "--steps", "4", "--grid=-2:2:5",
              "--out", str(tmp_path / "x")])
    assert rc == 2


def test_solve_unknown_problem_exits_2(tmp_path):
    rc = run(["solve", "--problem", "no-such-problem",
              "--out", str(tmp_path / "x")])
    assert rc == 2


def test_manifest_rerun_bit_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["solve", "--problem", "linear-ensemble",
            "--param", "a=[0.5,-0.3]", "--param", "c=[2.0,1.0]",
            "--method", "all", "--steps", "6", "--phi", "0.3,0.4",
            "--grid=-5:5:21", "--grid=-5:5:21"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(["solve", "--from-manifest", str(out1 / "manifest.json"),
                "--out", str(out2)]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["config"] == m2["config"]
    assert m1["values"] == m2["values"]
    for name in m1["artifacts"]:
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2, f"artifact {name} differs between reruns"


def test_verify_battery_passes(tmp_path, small_verify_cfg):
    out = tmp_path / "v"
    rc = run(["verify", "--problem", "linear-ensemble",
              "--param", "a=[0.5,-0.3]", "--param", "c=[2.0,1.0]",
              "--phi", "0.3,0.4", "--config", small_verify_cfg,
              "--out", str(out)])
    assert rc == 0
    rows = (out / "checks.csv").read_text().strip().splitlines()
    assert rows[0] == "check,tolerance,worst,passed"
    assert len(rows) == 7
    assert all(row.endswith("True") for row in rows[1:])
    assert (out / "summary.txt").read_text().strip().endswith("6/6 checks passed")


def test_verify_impossible_tolerance_fails(tmp_path, small_verify_cfg):
    out = tmp_path / "v"
    rc = run(["verify", "--problem", "linear-ensemble",
              "--param", "a=[0.5,-0.3]", "--param", "c=[2.0,1.0]",
              "--phi", "0.3,0.4", "--config", small_verify_cfg,
              "--tol", "0.0", "--out", str(out)])
    assert rc == 1
    rows = (out / "checks.csv").read_text().strip().splitlines()
    assert any(row.endswith("False") for row in rows[1:])


def test_verify_tolerance_override_keeps_zero_evidence_failing(tmp_path,
                                                              small_verify_cfg):
    cfg = json.loads(Path(small_verify_cfg).read_text())
    cfg["verify"]["hjb_steps"] = 4
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "v"
    rc = run(["verify", "--problem", "linear-ensemble",
              "--param", "a=[0.5,-0.3]", "--param", "c=[2.0,1.0]",
              "--phi", "0.3,0.4", "--grid=-0.5:0.5:5", "--grid=-0.5:0.5:5",
              "--config", str(path), "--tol", "1e6", "--out", str(out)])
    assert rc == 1
    rows = (out / "checks.csv").read_text().strip().splitlines()[1:]
    passed = {row.split(",")[0]: row.split(",")[-1] for row in rows}
    assert passed.pop("hjb_residual") == "False"
    assert set(passed.values()) == {"True"}


@pytest.mark.parametrize("args, flags", [
    (["verify"], {"hjb_extent": 1e308}),
    (["verify", "--grid=-1e308:1e308:5"], {}),
    (["solve", "--method", "dp", "--grid=-1e308:1e308:5"], None),
], ids=["verify-extent", "verify-grid", "solve-grid"])
def test_an_axis_whose_span_is_not_finite_exits_2(tmp_path, small_verify_cfg, capsys,
                                                  args, flags):
    # the span 2e308 overflows to inf: the axis is rejected by its bounds
    # before numpy spaces its nodes or the terminal cost sees them
    cfg = json.loads(Path(small_verify_cfg).read_text())
    cfg["verify"].update(flags or {})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    extra = ["--config", str(path)] if flags is not None else []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run(args + ["--problem", "linear-ensemble", "--phi", "0.3,0.4",
                         "--out", str(tmp_path / "o")] + extra)
    assert rc == 2 and caught == []
    err = capsys.readouterr().err
    assert err == "error: axis [-1e+308, 1e+308] needs finite bounds and spacing\n"


def _verify_fails_only_the_dpp_check(tmp_path, small_verify_cfg, **verify):
    cfg = json.loads(Path(small_verify_cfg).read_text())
    cfg["verify"].update(verify)
    path = tmp_path / "zero-evidence.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "v"
    rc = run(["verify", "--problem", "linear-ensemble",
              "--param", "a=[0.5,-0.3]", "--param", "c=[2.0,1.0]",
              "--phi", "0.3,0.4", "--config", str(path), "--tol", "1e6",
              "--out", str(out)])
    assert rc == 1
    rows = (out / "checks.csv").read_text().strip().splitlines()[1:]
    passed = {row.split(",")[0]: row.split(",")[-1] for row in rows}
    assert passed.pop("dpp_residual") == "False"
    assert set(passed.values()) == {"True"}


def test_verify_dpp_check_fails_without_a_split(tmp_path, small_verify_cfg):
    # a one-interval grid has no interior node to split at: zero evidence
    _verify_fails_only_the_dpp_check(tmp_path, small_verify_cfg, dpp_steps=1)


def test_verify_dpp_check_fails_without_a_start(tmp_path, small_verify_cfg):
    _verify_fails_only_the_dpp_check(tmp_path, small_verify_cfg, dpp_phis=0)


def test_verify_without_a_bound_trial_fails(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verify": {"trials": 0}}))
    rc = run(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")])
    assert rc == 1
    out = capsys.readouterr().out
    assert "[FAIL] trajectory_bounds: worst=0 (tol=1.05)" in out
    assert out.endswith("5/6 checks passed\n")
    rep = _dpp_check(builtin("linear-ensemble"), 0.0, 0, 4, 0, 10 ** 6)
    assert rep.details["evaluated"] == 0 and not rep.passed


@pytest.mark.parametrize("budget", [81, 809])
def test_verify_budget_counts_every_dpp_start(tmp_path, capsys, budget):
    # the default battery's dpp trees hold 10 starts x 81 signals; every
    # other enumeration in it needs 81 signals at most
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verify": {"terminal_steps": 4}}))
    rc = run(["verify", "--budget", str(budget), "--config", str(cfg),
              "--out", str(tmp_path / "v")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: enumeration needs 810 signals, budget is {budget}; shrink the grid\n")


@pytest.mark.parametrize("phis, steps, why", [
    (0, 4, "no start state was drawn (dpp_phis is 0)"),
    (3, 1, "a one-step grid has no split (dpp_steps is 1)"),
], ids=["no-start", "no-split"])
def test_dpp_check_names_why_it_has_no_evidence(phis, steps, why):
    rep = _dpp_check(builtin("linear-ensemble"), 0.0, phis, steps, 0, 10 ** 6)
    assert not rep.passed
    assert rep.details == {"note": f"insufficient evidence: {why}", "evaluated": 0}


def test_dpp_check_fails_on_a_nan_residual():
    # every leaf costs +inf, so each residual is inf - inf = NaN
    space = ParameterSpace(weights=[0.5, 0.5], coords=[[0.0], [1.0]])
    cost = TerminalCostSpec(
        eval_ens=lambda X: np.broadcast_to([0.0, np.inf], np.shape(X)[:-1]),
        lower_bound_a=np.zeros(2), lower_bound_b=0.0)
    dyn = DynamicsSpec(eval_ens=lambda t, X, u: np.zeros_like(X),
                       growth_c=1.0, lipschitz_k=1.0)
    p = ProblemSpec(space=space, n=1, m=1, dynamics=dyn, cost=cost,
                    controls=ControlSchedule.constant([[0.0]]), horizon=1.0)
    rep = _dpp_check(p, 0.0, 2, 3, 0, 10 ** 6)
    assert np.isnan(rep.worst) and not rep.passed
    assert rep.witness == {"sample": 0, "s2": pytest.approx(1.0 / 3.0)}


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_exit_2_naming_the_key(tmp_path, capsys, workers):
    rc = run(["solve", "--problem", "decoupled-quadratic", "--method", "oracle",
              "--steps", "2", "--workers", workers, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config key 'workers'")


TRACED = ["trajectory_bound_suite", "dpp_residual", "epigraph_invariance",
          "hjb_residual", "terminal_limit", "oscillation_diagnostic", "value_dp"]


def test_verify_calls_every_check_through_the_cli_names(tmp_path, small_verify_cfg,
                                                        monkeypatch):
    # the benchmark tracer wraps these names in enoc.cli, so the battery
    # must look them up there when it runs
    calls = dict.fromkeys(TRACED, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in TRACED:
        monkeypatch.setattr(enoc.cli, name, counting(name, getattr(enoc.cli, name)))
    out = tmp_path / "v"
    rc = run(["verify", "--problem", "linear-ensemble",
              "--param", "a=[0.5,-0.3]", "--param", "c=[2.0,1.0]",
              "--phi", "0.3,0.4", "--config", small_verify_cfg,
              "--out", str(out)])
    assert rc == 0
    assert calls["dpp_residual"] == 1       # one stacked call for every start and split
    assert all(calls.values()), calls
    rows = (out / "checks.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [
        "trajectory_bounds", "dpp_residual", "epigraph_invariance",
        "hjb_residual", "terminal_limit", "oscillation"]


def _perfbench(name, monkeypatch):
    """Load perfbench/<name>.py, registered under sys.modules for the test."""
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_names_resolve(monkeypatch):
    # perfbench/spans.py wraps these (owner, attribute) pairs; a dropped
    # import would break every traced benchmark run
    targets = _perfbench("spans", monkeypatch).targets()
    assert targets
    for owner, attr, *_ in targets:
        assert callable(getattr(owner, attr)), (owner, attr)


def test_benchmark_command_lines_parse(tmp_path, monkeypatch):
    # every flag the benchmark passes (--workers 1 included) must stay
    # accepted; the command lines are parsed, not run
    workloads = _perfbench("workloads", monkeypatch)
    parser = enoc.cli.build_parser()
    for name in workloads.WORKLOADS:
        inv = workloads.prepare(name, 0, tmp_path / name)
        args = parser.parse_args(inv.argv)
        assert args.command == inv.argv[0]


def test_verify_without_cost_certificate_exits_2_before_any_check(
        tmp_path, sine_drift_doc, capsys):
    problem = tmp_path / "expr.json"
    problem.write_text(json.dumps(sine_drift_doc))
    out = tmp_path / "v"
    rc = run(["verify", "--problem", str(problem), "--out", str(out)])
    assert rc == 2
    assert not (out / "checks.csv").exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: no cost Lipschitz certificate:" in captured.err


def test_verify_reads_a_problem_files_cost_certificate(tmp_path, capsys, monkeypatch):
    # the solve-expr benchmark problem, G = sum_i w_i (x - w_i)^2 with
    # |grad G| <= 2 (r + 1), given its two optional certificates
    doc = _perfbench("workloads", monkeypatch)._expr_document()
    doc["dynamics"]["omega_modulus"] = "5 * r"
    doc["cost"]["lipschitz"] = "2 + 2 * r"
    problem = tmp_path / "expr.json"
    problem.write_text(json.dumps(doc))
    for seed in (0, 3):
        out = tmp_path / f"v{seed}"
        assert run(["verify", "--problem", str(problem), "--seed", str(seed),
                    "--out", str(out)]) == 0
        assert (out / "summary.txt").read_text().endswith("6/6 checks passed\n")
    del doc["cost"]["lipschitz"]
    problem.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "none"
    assert run(["verify", "--problem", str(problem), "--out", str(out)]) == 2
    assert not (out / "checks.csv").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: no cost Lipschitz certificate") and "'cost.lipschitz'" in err


@pytest.mark.parametrize("cfg, message", [
    ({"stpes": 2}, "unknown config keys: stpes"),
    ({"verify": {"trails": 3}}, "unknown config keys: trails"),
], ids=["top-level", "verify"])
def test_unknown_config_key_exits_2(tmp_path, capsys, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "v"
    rc = run(["verify", "--config", str(path), "--out", str(out)])
    assert rc == 2
    assert not (out / "checks.csv").exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("cfg, key", [
    ({"budget": None}, "'budget'"),
    ({"grid": [[1, 2]]}, "'grid'"),
    ({"grid": [["a", 1, 3]]}, "'grid'"),
    ({"tol": "x"}, "'tol'"),
    ({"verify": {"trials": None}}, "'verify.trials'"),
    ({"verify": {"gaps": 0.1}}, "'verify.gaps'"),
], ids=["budget-null", "grid-pair", "grid-string", "tol-string", "trials-null",
        "gaps-number"])
def test_config_value_of_the_wrong_type_exits_2_naming_the_key(tmp_path, capsys,
                                                                cfg, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "v"
    rc = run(["verify", "--config", str(path), "--out", str(out)])
    assert rc == 2
    assert not (out / "checks.csv").exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key} has the wrong type")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_oracle_minus_infinity_cost_exits_2(tmp_path, capsys, sine_drift_doc):
    sine_drift_doc["dynamics"]["expressions"] = ["u1"]
    sine_drift_doc["cost"]["expression"] = "-exp(exp(exp(x1*3)))"
    problem = tmp_path / "neginf.json"
    problem.write_text(json.dumps(sine_drift_doc))
    out = tmp_path / "x"
    rc = run(["solve", "--problem", str(problem), "--method", "oracle",
              "--phi", "0.9", "--steps", "4", "--out", str(out)])
    assert rc == 2
    assert not (out / "value.csv").exists()
    assert "terminal cost is -inf" in capsys.readouterr().err


@pytest.mark.parametrize("method", [
    ["--method", "oracle"],
    ["--method", "dp", "--grid=-5:5:5", "--grid=-5:5:5"],
], ids=["oracle", "dp"])
def test_overflowing_weighted_terminal_sum_exits_2(tmp_path, capsys, method):
    # each atom's cost is finite, the sum weighted by 1e308 masses is not
    out = tmp_path / "x"
    rc = run(["solve", "--problem", "linear-ensemble", "--param=weights=[1e308,1e308]",
              "--steps", "2", "--out", str(out)] + method)
    assert rc == 2
    assert not (out / "value.csv").exists()
    assert "terminal cost overflows" in capsys.readouterr().err


def test_query_round_trip(tmp_path):
    out = tmp_path / "run"
    assert run(["solve", "--problem", "linear-ensemble",
                "--param", "a=[0.5,-0.3]", "--param", "c=[2.0,1.0]",
                "--method", "dp", "--steps", "6", "--phi", "0.3,0.4",
                "--grid=-5:5:21", "--grid=-5:5:21",
                "--out", str(out)]) == 0
    rc = run(["query", "--grid-file", str(out / "value_grid.bin"),
              "--time", "0.0", "--state", "0.3,0.4"])
    assert rc == 0


@pytest.fixture
def small_grid_file(tmp_path):
    out = tmp_path / "small"
    assert run(["solve", "--problem", "linear-ensemble", "--method", "dp",
                "--steps", "3", "--grid=-4:4:5", "--out", str(out)]) == 0
    return out / "value_grid.bin"


@pytest.mark.parametrize("state", ["0,0,0", "0"])
def test_query_rejects_a_state_of_the_wrong_width(small_grid_file, capsys, state):
    rc = run(["query", "--grid-file", str(small_grid_file), "--time", "0",
              "--state", state])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the grid has 2 axes" in captured.err


def test_query_rejects_truncated_and_padded_grid_files(small_grid_file, tmp_path,
                                                        capsys):
    blob = small_grid_file.read_bytes()
    bad = tmp_path / "bad.bin"
    for data in [blob[:cut] for cut in range(len(blob))] + [blob + b"\0"]:
        bad.write_bytes(data)
        rc = run(["query", "--grid-file", str(bad), "--time", "0",
                  "--state", "0,0"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and str(bad) in captured.err


@pytest.mark.parametrize("time", ["nan", "0.5"])
def test_query_rejects_a_time_that_is_no_grid_node(small_grid_file, capsys, time):
    rc = run(["query", "--grid-file", str(small_grid_file), "--time", time,
              "--state", "0,0"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"t={time} is not a grid node" in captured.err


@pytest.mark.parametrize("state", ["100,100", "inf,0", "0,-4.5", "nan,0"])
def test_query_rejects_a_state_outside_the_grid(small_grid_file, capsys, state):
    # the grid would clamp it to the boundary and answer the corner's value
    rc = run(["query", "--grid-file", str(small_grid_file), "--time", "0",
              f"--state={state}"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"state {state} lies outside the grid's box "
            "[[-4.0, 4.0], [-4.0, 4.0]]") in captured.err


@pytest.mark.parametrize("state", ["4,4", "-4,4", "0,0"])
def test_query_answers_a_state_on_the_grid_box(small_grid_file, capsys, state):
    rc = run(["query", "--grid-file", str(small_grid_file), "--time", "0",
              f"--state={state}"])
    assert rc == 0
    vg = ValueGrid.map(small_grid_file)
    z = np.array([float(v) for v in state.split(",")])
    assert capsys.readouterr().out == "%.17g\n" % vg.value_at(0.0, z)


def test_query_notes_a_boundary_influenced_answer(tmp_path, capsys):
    # at t = 0 on this grid, the middle three columns are untainted
    out = tmp_path / "g"
    assert run(["solve", "--problem", "linear-ensemble", "--method", "dp",
                "--steps", "3", "--grid=-4:4:17", "--out", str(out)]) == 0
    path = out / "value_grid.bin"
    vg = ValueGrid.map(path)
    capsys.readouterr()
    for state, tainted in (("0.3,-0.4", False), ("3.5,3.5", True)):
        z = np.array([float(v) for v in state.split(",")])
        vals, _, touched = vg.evaluate(0, z[None, :])
        assert touched[0] == tainted
        assert run(["query", "--grid-file", str(path), "--time", "0",
                    "--state", state]) == 0
        captured = capsys.readouterr()
        assert captured.out == "%.17g\n" % vals[0]
        assert captured.err == ("note: boundary-influenced: the interpolation reads a "
                                "tainted node, whose value depends on an out-of-grid "
                                "lookup\n" if tainted else "")


def _with_header(blob, edit):
    """The value-grid file ``blob`` with its JSON header replaced by
    ``edit(header)`` (JSON, or bytes as they are), written without padding,
    and the same tables."""
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = edit(json.loads(blob[16:16 + hlen]))
    header = header if isinstance(header, bytes) else json.dumps(header).encode()
    return blob[:8] + struct.pack("<Q", len(header)) + header + blob[16 + hlen:]


def _set(key, value):
    return lambda h: {**h, key: value}


@pytest.mark.parametrize("edit, problem", [
    (lambda h: {**h, "axes": [[-4.0, 4.0], h["axes"][1]]}, "'axes' is malformed"),
    (lambda h: [h], "not a JSON object"),
    (_set("steps", "3"), "'steps' is malformed"),
    (_set("steps", 3.0), "'steps' is malformed"),
    (lambda h: {**h, "axes": [[-4.0, 4.0, 5.0]] * 2}, "'axes' is malformed"),
    (_set("axes", None), "'axes' is malformed"),
    (_set("s", "0"), "'s' is malformed"),
    (lambda h: {k: v for k, v in h.items() if k != "s"}, "'s' is missing"),
    (_set("coverage_ok", 1), "'coverage_ok' is malformed"),
    (_set("meta", []), "'meta' is malformed"),
    (_set("s", 2.0), "need 0 <= s < T"),
    (lambda h: {**h, "axes": [[4.0, -4.0, 5], h["axes"][1]]}, "axis needs lo < hi"),
    (lambda h: {**h, "axes": [[-1e308, 1e308, 5], h["axes"][1]]},
     "axis [-1e+308, 1e+308] needs finite bounds and spacing"),
    (lambda h: b"[" * 10 ** 5 + b"]" * 10 ** 5, "maximum recursion depth"),
    (lambda h: b"{\"s\": 0", "Expecting"),
], ids=["axis-of-two", "list", "steps-string", "steps-float", "count-float", "axes-null",
        "s-string", "s-missing", "coverage-int", "meta-list", "s-after-T", "axis-reversed",
        "axis-span-overflows", "nested-deep", "not-json"])
def test_query_rejects_a_malformed_grid_header(small_grid_file, tmp_path, capsys, edit,
                                               problem):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_with_header(small_grid_file.read_bytes(), edit))
    rc = run(["query", "--grid-file", str(bad), "--time", "0", "--state", "0,0"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {bad}: " in captured.err
    assert problem in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("argmin_dtype", [">i4", "<f8", "|b1", "u1", "<u16", 1, None])
def test_query_rejects_an_argmin_type_it_cannot_read(small_grid_file, tmp_path, capsys,
                                                     argmin_dtype):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_with_header(small_grid_file.read_bytes(),
                                 _set("argmin_dtype", argmin_dtype)))
    rc = run(["query", "--grid-file", str(bad), "--time", "0", "--state", "0,0"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {bad}: header key 'argmin_dtype' is malformed" in captured.err


def test_query_rejects_a_grid_file_of_an_older_enoc(small_grid_file, tmp_path, capsys):
    # the magic is read first, so the rest of an ENOCVG1 file does not matter
    old = tmp_path / "old.bin"
    old.write_bytes(b"ENOCVG1\n" + small_grid_file.read_bytes()[8:])
    rc = run(["query", "--grid-file", str(old), "--time", "0", "--state", "0,0"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert (f"error: {old}: an ENOCVG1 file, written by an older enoc; solve again"
            in captured.err)


def test_query_reads_a_grid_file_with_an_unpadded_header(small_grid_file, tmp_path,
                                                         capsys):
    # the same header without the writer's padding
    blob = small_grid_file.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    assert blob[16:16 + hlen].endswith(b" ")
    old = tmp_path / "old.bin"
    old.write_bytes(_with_header(blob, lambda h: h))
    assert len(old.read_bytes()) < len(blob)
    new, back = ValueGrid.map(small_grid_file), ValueGrid.map(old)
    for name in ("values", "argmin", "tainted"):
        assert getattr(back, name).tobytes() == getattr(new, name).tobytes()
    assert (back.clamp_count, back.meta) == (new.clamp_count, new.meta)
    outs = []
    for path in (small_grid_file, old):
        capsys.readouterr()
        assert run(["query", "--grid-file", str(path), "--time", "0",
                    "--state", "0.3,-0.4"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] != ""


def test_query_reads_one_slice_of_the_grid(tmp_path, capsys):
    # a 201^2 x 100 grid, 40.8 MB on disk; the query interpolates slice 0
    out = tmp_path / "big"
    assert run(["solve", "--problem", "linear-ensemble", "--method", "dp",
                "--steps", "100", "--grid=-4:4:201", "--out", str(out)]) == 0
    path = out / "value_grid.bin"
    assert path.stat().st_size > 40e6
    capsys.readouterr()
    tracemalloc.start()
    try:
        rc = run(["query", "--grid-file", str(path), "--time", "0", "--state", "0.3,-0.4"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and peak < 2 * 2 ** 20
    want = ValueGrid.map(path).value_at(0.0, np.array([0.3, -0.4]))
    assert capsys.readouterr().out == "%.17g\n" % want


def _nan_field_mid_horizon():
    """x' = -x + u, whose velocity is NaN at t = 0.5 only (no warning)."""
    def field(t, X, u):
        mid = (np.asarray(t) >= 0.4) & (np.asarray(t) < 0.6)
        return np.where(mid[..., None, None], np.nan, -X + np.asarray(u)[..., None, :])
    space = ParameterSpace(weights=[0.5, 0.5], coords=[[0.0], [1.0]])
    return ProblemSpec(space=space, n=1, m=1,
                       dynamics=DynamicsSpec(eval_ens=field, growth_c=2.0, lipschitz_k=1.0),
                       cost=TerminalCostSpec(eval_ens=lambda X: X[..., 0] ** 2,
                                             lower_bound_a=np.zeros(2), lower_bound_b=0.0),
                       controls=ControlSchedule.constant([[-1.0], [1.0]]), horizon=1.0)


@pytest.mark.parametrize("failure", ["nan-foot", "terminal-overflow", "mid-sweep",
                                     "rollout"])
@pytest.mark.filterwarnings("ignore:axes do not cover")
def test_failed_dp_solve_leaves_no_value_grid(tmp_path, monkeypatch, capsys, failure):
    argv = ["solve", "--problem", "linear-ensemble", "--method", "dp", "--steps", "4",
            "--grid=-2:2:9"]
    if failure == "nan-foot":
        monkeypatch.setattr(enoc.cli, "_build_problem", lambda cfg: _nan_field_mid_horizon())
        message = "NaN coordinate"
    elif failure == "terminal-overflow":
        argv.append("--param=weights=[1e308,1e308]")
        message = "terminal cost overflows"
    elif failure == "mid-sweep":
        # two operator calls per step: the third step fails after the
        # terminal slice and two steps went to the file
        apply, calls = enoc.value._kron_apply, []

        def failing(*args):
            calls.append(None)
            if len(calls) == 5:
                assert (out / "value_grid.bin.part").is_file()
                raise OSError("no space left on device")
            return apply(*args)
        monkeypatch.setattr(enoc.value, "_kron_apply", failing)
        message = "no space left"
    else:
        # the table is complete, its rollout diverges
        def diverging(p, vg, phi):
            raise DivergenceError(0.25, 1)
        monkeypatch.setattr(enoc.value, "greedy_rollout", diverging)
        message = "atom 1"
    out = tmp_path / "x"
    assert run(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert [f.name for f in out.iterdir()] == []


def test_verify_single_grid_broadcasts_like_solve(tmp_path, small_verify_cfg):
    rows = []
    for grids in (["--grid=-5:5:15"], ["--grid=-5:5:15"] * 2):
        out = tmp_path / str(len(grids))
        assert run(["verify", "--config", small_verify_cfg, "--out", str(out)]
                   + grids) == 0
        rows.append((out / "checks.csv").read_bytes())
    assert rows[0] == rows[1]


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "must hold a JSON object"),
    ('{"verify": [1]}', "config key 'verify' must be a JSON object"),
    ('{"params": 3}', "config key 'params' must be a JSON object"),
    ('{"problem": [1]}', "unknown builtin problem [1]; known: "),
], ids=["list", "verify-list", "params-number", "problem-list"])
def test_config_file_must_hold_objects(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    rc = run(["verify", "--config", str(path), "--out", str(tmp_path / "v")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_unknown_builtin_message_is_plain(tmp_path, capsys):
    rc = run(["solve", "--problem", "nope", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: unknown builtin problem 'nope'; known: bilinear, ")


@pytest.mark.parametrize("edit, key", [
    (lambda d: d.update(n=[1]), "'n'"),
    # 10**12: the counts are checked before any x1..xn / u1..um name is built
    (lambda d: d.update(n=10 ** 12), "'dynamics.expressions'"),
    (lambda d: d.update(m=10 ** 12), "'m'"),
    (lambda d: d.update(horizon=10 ** 400), "'horizon'"),
    (lambda d: [1, 2], "JSON object"),
    (lambda d: d.update(space=[1]), "'space'"),
    (lambda d: d["space"].update(atoms=3), "'atoms'"),
    (lambda d: d["dynamics"].update(expressions=[3]), "'dynamics.expressions'"),
    (lambda d: d["dynamics"].update(growth_c=None), "'dynamics.growth_c'"),
    (lambda d: d["controls"].update(sets=3), "'controls.sets'"),
    (lambda d: {"format": "enoc-problem/1", "builtin": "bilinear",
                "parameters": [1]}, "'parameters'"),
    (lambda d: {"format": "enoc-problem/1", "builtin": "bilinear",
                "parameters": {"zzz": 1}}, "accepted: M, n, a"),
], ids=["n-list", "n-huge", "m-huge", "horizon-huge", "top-level-list", "space-list",
        "atoms-number", "expression-number", "growth-null", "sets-number",
        "builtin-parameters-list", "builtin-unknown-param"])
def test_malformed_problem_file_exits_2_naming_the_key(tmp_path, capsys, sine_drift_doc,
                                                       edit, key):
    doc = edit(sine_drift_doc)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(sine_drift_doc if doc is None else doc))
    rc = run(["solve", "--problem", str(path), "--method", "oracle", "--steps", "2",
              "--phi", "0.1,0.2", "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


def test_unknown_builtin_parameter_flag_exits_2(tmp_path, capsys):
    rc = run(["solve", "--param", "zzz=1", "--method", "oracle", "--steps", "2",
              "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "unknown parameter(s) zzz" in capsys.readouterr().err


@pytest.mark.parametrize("param, key", [
    ("M=[1]", "'M'"), ('rho="x"', "'rho'"), ("M=0", "'M'"),
    (f"rho={10 ** 400}", "'rho'"), ("a=[1e999, 0]", "'a'")])
def test_builtin_parameter_of_the_wrong_type_exits_2(tmp_path, capsys, param, key):
    rc = run(["solve", "--param", param, "--method", "oracle", "--steps", "2",
              "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: builtin parameter " + key)
    assert "Traceback" not in err


def test_float_parameter_given_an_integer_past_int64_solves(tmp_path):
    rc = run(["solve", "--problem", "decoupled-quadratic", f"--param=rho={2 ** 63 + 1}",
              "--method", "oracle", "--steps", "2", "--out", str(tmp_path / "x")])
    assert rc == 0


@pytest.mark.parametrize("name", ["linear-ensemble", "bilinear"])
def test_rho_whose_span_overflows_exits_2(tmp_path, capsys, name):
    # no filterwarnings mark: an overflow on the way would fail the test
    rc = run(["solve", "--problem", name, "--param", "rho=1e308",
              "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "'rho'" in capsys.readouterr().err


@pytest.mark.parametrize("name, params", [
    ("linear-ensemble", ["n=5", "M=1"]),
    ("decoupled-quadratic", ["n=5"]),
    ("bilinear", ["M=1", "a=[3.0]"]),
], ids=["linear-ensemble", "decoupled-quadratic", "bilinear"])
def test_rho_whose_growth_certificate_overflows_exits_2(tmp_path, name, params):
    # 2|rho| is finite, rho * sqrt(5) and rho * 3 are not; a subprocess under
    # -W error sees a warning the CLI's own handler would not
    import os
    import subprocess

    src = os.path.dirname(os.path.dirname(os.path.abspath(enoc.cli.__file__)))
    argv = ["solve", "--problem", name, "--param", "rho=8.98e307", "--method", "oracle",
            "--steps", "1", "--out", str(tmp_path / "x")]
    argv += [arg for param in params for arg in ("--param", param)]
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "enoc.cli",
                           *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "'rho'" in errors[0], proc.stderr


_LONG = json.dumps([1.0] * 1001)


@pytest.mark.parametrize("params, message", [
    ([f"levels={10 ** 9}"], "more than 1000000 entries"),
    ([f"n={10 ** 30}"], "more than 1000000 entries"),
    (["M=1001"], "more than 1000000 entries"),
    ([f"weights={_LONG}", f"coords={_LONG}"], "with 1001 atoms"),
    (["weights=[1, 1]", f"coords={json.dumps([[0.0] * 250001] * 2)}"],
     "more than 1000000 entries"),
    (["coords=5"], "coords must be an (M, d) array"),
])
def test_builtin_sizes_and_shapes_exit_2(tmp_path, capsys, params, message):
    rc = run(["solve", "--method", "oracle", "--steps", "2",
              "--out", str(tmp_path / "x")]
             + [arg for param in params for arg in ("--param", param)])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_cli_import_loads_no_scipy(tmp_path):
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.abspath(enoc.cli.__file__)))
    out = str(tmp_path / "x")
    commands = [["solve", "--method", "all", "--steps", "4",
                 "--grid=-4:4:9", "--grid=-4:4:9", "--out", out],
                ["verify", "--out", out]]
    code = ("import json, sys, enoc.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert enoc.cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    stdout = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                            capture_output=True, text=True, check=True,
                            env=dict(os.environ, PYTHONPATH=src)).stdout
    assert stdout.strip().splitlines()[-1] == "[]"


def test_cli_import_and_every_builtin_load_no_numpy_ma():
    # the first np.unique call in a process imports numpy.ma (10-15 ms)
    import os
    import subprocess

    src = os.path.dirname(os.path.dirname(os.path.abspath(enoc.cli.__file__)))
    code = ("import sys, enoc.cli; from enoc.library import _BUILTINS; "
            "[enoc.builtin(name) for name in _BUILTINS]; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"


def test_config_file_overrides_flags(tmp_path):
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 2}))
    rc = run(["solve", "--problem", "decoupled-quadratic", "--method", "oracle",
              "--steps", "5", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["steps"] == 2


def test_env_var_default_out(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("ENOC_OUT", str(target))
    monkeypatch.chdir(tmp_path)
    rc = run(["solve", "--problem", "decoupled-quadratic", "--method", "oracle",
              "--steps", "3"])
    assert rc == 0
    assert (target / "manifest.json").exists()


_SPACES = [
    {"format": "enoc-space/1",
     "atoms": [{"id": "a", "coords": [0.0]}, {"id": "b", "coords": [1.0]}],
     "weights": [0.5, 0.5]},
    {"format": "enoc-space/1", "atoms": [{"id": "a"}, {"id": "b"}],
     "weights": [0.5, 0.5], "metric": [[0.0, 1.0], [1.0, 0.0]]},
]


def _solve_with_space_file(tmp_path, doc, space_bytes):
    """Exit code and stderr of an oracle solve whose problem names its space
    by a path relative to the problem file."""
    (tmp_path / "space.json").write_bytes(space_bytes)
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(dict(doc, space="space.json")))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = run(["solve", "--problem", str(problem), "--method", "oracle",
                  "--steps", "2", "--out", str(tmp_path / "x")])
    return rc, err.getvalue()


def test_space_file_by_path_solves(tmp_path, sine_drift_doc):
    for space in _SPACES:
        rc, err = _solve_with_space_file(tmp_path, sine_drift_doc,
                                         json.dumps(space).encode())
        assert rc == 0, err
    # a metric entry near the float limit is a metric; coords whose distance
    # overflows are not
    far = dict(_SPACES[1], metric=[[0.0, 1e308], [1e308, 0.0]])
    assert _solve_with_space_file(tmp_path, sine_drift_doc,
                                  json.dumps(far).encode())[0] == 0
    far = dict(_SPACES[0], atoms=[{"id": "a", "coords": [1e308]},
                                  {"id": "b", "coords": [-1e308]}])
    rc, err = _solve_with_space_file(tmp_path, sine_drift_doc, json.dumps(far).encode())
    assert rc == 2
    assert err.startswith("error: problem key 'space': distance of atoms (0,1) overflows")


def test_space_file_atom_without_an_id_exits_2(tmp_path, sine_drift_doc):
    space = dict(_SPACES[0], atoms=[{"id": "a", "coords": [0.0]}, {"coords": [1.0]}])
    rc, err = _solve_with_space_file(tmp_path, sine_drift_doc, json.dumps(space).encode())
    assert rc == 2
    assert err.startswith("error: problem key 'space': space key 'atoms' must be a list "
                          "of objects with an 'id'")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)
_BUILTIN_PARAMS = [(name, key) for name, factory in sorted(_BUILTINS.items())
                   for key in inspect.signature(factory).parameters]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(param=st.sampled_from(_BUILTIN_PARAMS), value=_JSON)
# the modulus gain overflows to +inf, a vacuous but valid modulus
@example(param=("linear-ensemble", "T"), value=800)
@example(param=("bilinear", "T"), value=800)
@example(param=("linear-ensemble", "a"), value=[800, 0])
@example(param=("bilinear", "a"), value=[800, 0])
@example(param=("linear-ensemble", "box_radius"), value=1e308)
@example(param=("bilinear", "box_radius"), value=1e308)
@example(param=("linear-ensemble", "rho"), value=1e308)
def test_any_json_builtin_parameter_exits_0_or_2(tmp_path, param, value):
    name, key = param
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = run(["solve", "--problem", name, f"--param={key}={json.dumps(value)}",
                  "--method", "oracle", "--steps", "2", "--out", str(tmp_path / "x")])
    assert rc in (0, 2)
    assert "Traceback" not in err.getvalue()


@st.composite
def _one_key_replaced(draw, docs):
    """One of the valid documents `docs` with the value at one key or index,
    at any depth, replaced by any JSON value."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    node = doc
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                   else range(len(node))))
        if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
            node = node[key]
            continue
        node[key] = draw(_JSON)
        return doc


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(space=_one_key_replaced(_SPACES))
def test_any_json_in_a_space_file_exits_0_or_2(tmp_path, sine_drift_doc, space):
    rc, err = _solve_with_space_file(tmp_path, sine_drift_doc, json.dumps(space).encode())
    assert rc in (0, 2)
    assert "Traceback" not in err


def test_verify_runs_an_empty_radius_list_as_given(tmp_path, capsys):
    # only null means the default radii; an empty list is no radius: exit 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verify": {"radii": [], "trials": 2, "dpp_phis": 1,
                                          "hjb_steps": 4, "hjb_counts": 5}}))
    rc = run(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")])
    assert rc == 2
    assert "need one or more radii" in capsys.readouterr().err


def _default_radii_by_unique(p):
    """The np.unique form of the default radii, the reference for the set form."""
    dists = np.unique(p.space.metric[p.space.metric > 0])
    if dists.size == 0:
        return [1.0]
    pts = np.concatenate([[dists[0] / 2], (dists[:-1] + dists[1:]) / 2.0,
                          [dists[-1] * 1.5]])
    return [float(r) for r in pts]


@pytest.mark.parametrize("name", sorted(_BUILTINS))
@pytest.mark.parametrize("params", [
    {}, {"M": 1}, {"M": 5}, {"M": 3, "coords": [[0.0], [2.0], [2.0]]},
    {"M": 3, "coords": [[0.0, 1.0], [3.0, -1.0], [0.5, 0.5]]}])
def test_default_radii_are_the_unique_distances_on_every_builtin(name, params):
    p = enoc.builtin(name, **params)
    assert enoc.cli._default_radii(p) == _default_radii_by_unique(p)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(space=_one_key_replaced(_SPACES))
def test_default_radii_are_the_unique_distances_on_any_space_file(sine_drift_doc, space):
    try:
        p = enoc.problem_from_dict(dict(sine_drift_doc, space=space))
    except (ValueError, enoc.EnocError):
        return
    assert enoc.cli._default_radii(p) == _default_radii_by_unique(p)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=st.binary(max_size=64))
def test_any_bytes_as_a_space_file_exit_2(tmp_path, sine_drift_doc, blob):
    rc, err = _solve_with_space_file(tmp_path, sine_drift_doc, blob)
    assert rc == 2
    assert err.startswith("error: problem key 'space'")


def test_adjoint_costate_overflow_exits_2(tmp_path, capsys):
    # the weighted cost is finite, its costate is not; the suite turns any
    # RuntimeWarning into a failure, so this also shows none is emitted
    rc = run(["solve", "--problem", "linear-ensemble",
              "--param", "weights=[1e308,1e308]", "--method", "adjoint",
              "--steps", "2", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: the adjoint costate or gradient is not finite\n")


_MANIFEST = {"config": dict(copy.deepcopy(enoc.cli._DEFAULTS),
                            problem="decoupled-quadratic", params={"tau": [0.5]},
                            method="oracle", steps=2, phi=[0.0])}


def _solve_from_manifest(tmp_path, doc):
    """Exit code and stderr of `solve --from-manifest` on a JSON document."""
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = run(["solve", "--from-manifest", str(path), "--out", str(tmp_path / "x")])
    return rc, err.getvalue()


def test_manifest_config_solves(tmp_path):
    assert _solve_from_manifest(tmp_path, _MANIFEST) == (0, "")


@pytest.mark.parametrize("doc, message", [
    ({"config": []}, "the config of manifest {path} must hold a JSON object"),
    ([], "the config of manifest {path} must hold a JSON object"),
    ({"config": dict(_MANIFEST["config"], grid=5, method="dp")},
     "config key 'grid' has the wrong type: 5"),
], ids=["config-list", "top-level-list", "grid-int"])
def test_malformed_manifest_exits_2(tmp_path, doc, message):
    rc, err = _solve_from_manifest(tmp_path, doc)
    assert rc == 2
    assert err == f"error: {message.format(path=tmp_path / 'manifest.json')}\n"


# (phi - 0.5)^2 overflows at phi = 2^512
_OVERFLOW_PHI = 1.3407807929942597e+154


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_one_key_replaced([_MANIFEST]))
@example(doc={"config": dict(_MANIFEST["config"], phi=_OVERFLOW_PHI)})
def test_any_json_in_a_manifest_exits_0_or_2(tmp_path, doc):
    rc, err = _solve_from_manifest(tmp_path, doc)
    assert rc in (0, 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("method", [
    ["--method", "oracle"],
    ["--method", "dp", "--grid=-2e154:2e154:3"],
    ["--method", "adjoint"],
], ids=["oracle", "dp", "adjoint"])
@pytest.mark.filterwarnings("ignore:axes do not cover")
def test_terminal_cost_overflow_at_a_finite_state_exits_2(tmp_path, capsys, method):
    # the suite turns any RuntimeWarning into a failure, so this also shows
    # that none is emitted
    out = tmp_path / "x"
    rc = run(["solve", "--problem", "decoupled-quadratic", "--param", "tau=[0.5]",
              "--steps", "2", f"--phi={_OVERFLOW_PHI!r}", "--out", str(out)] + method)
    assert rc == 2
    assert not (out / "value.csv").exists()
    assert capsys.readouterr().err == (
        "error: the terminal cost overflows to +inf at a finite state\n")


@pytest.fixture
def blowup_problem(tmp_path, sine_drift_doc):
    """One atom, x' = x^2 + u, cost x^2: from phi = 2 every control blows up
    before t = 1."""
    doc = dict(sine_drift_doc, space={"format": "enoc-space/1",
                                      "atoms": [{"id": "a", "coords": [0.0]}],
                                      "weights": [1.0]})
    doc["dynamics"] = {"expressions": ["x1 * x1 + u1"], "growth_c": 2.0,
                       "lipschitz_k": 1.0}
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(doc))
    return path, doc


@pytest.mark.parametrize("method", ["oracle", "dp", "adjoint"])
@pytest.mark.filterwarnings("ignore:axes do not cover")
def test_blowup_exits_2_with_one_error_line(tmp_path, capsys, blowup_problem, method):
    # oracle: the enumeration budget; dp: the rollout diverges; adjoint: no
    # Jacobians for an expression problem
    rc = run(["solve", "--problem", str(blowup_problem[0]), "--method", method,
              "--steps", "40", "--grid=-4:4:9", "--phi", "2", "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    if method == "dp":
        assert err.startswith("error: non-finite state at t=")


def test_diverging_oracle_tree_exits_2_with_one_error_line(tmp_path, capsys):
    # the field overflows in the tree's first level and e^(a T) in the
    # modulus gain; the suite turns either RuntimeWarning into a failure
    rc = run(["solve", "--problem", "linear-ensemble", "--param", "a=[1e200,0.1]",
              "--param", "c=[0,1]", "--method", "oracle", "--steps", "3", "--phi", "0.5",
              "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err == "error: non-finite state at t=0.333333, atom 0\n"


def test_infinite_coverage_radius_warns_without_overflow(tmp_path, blowup_problem):
    # e^(1000 T) overflows; the suite turns a RuntimeWarning into a failure
    path, doc = blowup_problem
    doc["dynamics"]["growth_c"] = 1000
    path.write_text(json.dumps(doc))
    with pytest.warns(GridCoverageWarning, match="reachability radius inf"):
        rc = run(["solve", "--problem", str(path), "--method", "dp", "--steps", "4",
                  "--grid=-4:4:9", "--phi", "2", "--out", str(tmp_path / "x")])
    assert rc == 0


@pytest.mark.parametrize("method", [
    ["--method", "dp", "--grid=-1:1:5"],
    ["--method", "adjoint"],
], ids=["dp", "adjoint"])
def test_steps_past_physical_memory_exit_2_before_the_grid(tmp_path, capsys, method):
    # 2^40 steps: the time grid alone would need 8 TiB
    rc = run(["solve", "--problem", "decoupled-quadratic", "--steps", str(2 ** 40),
              "--out", str(tmp_path / "x")] + method)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: the {method[1]} method needs ")
    assert err.endswith(" bytes of physical memory; use fewer steps\n")


def test_oracle_steps_above_the_budget_exit_2_before_the_grid(tmp_path, capsys):
    # a time grid of 2^40 steps would need 8 TiB of nodes
    rc = run(["solve", "--problem", "decoupled-quadratic", "--method", "oracle",
              "--steps", str(2 ** 40), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: enumeration needs {2 ** 40} levels, budget is 1000000; "
        "shrink the grid\n")
