import json

import pytest

import enoc.cli
from enoc.cli import main


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
    assert set(vals) == {"oracle", "dp", "adjoint"}
    # dp is first-order accurate; oracle and adjoint agree much tighter
    assert abs(vals["oracle"] - vals["adjoint"]) < 1e-6
    assert abs(vals["oracle"] - vals["dp"]) < 5.0 * (1.0 / 8 + 10.0 / 40)
    assert (out / "value_grid.bin").exists()


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
    cfg = json.loads(open(small_verify_cfg).read())
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


def test_verify_dpp_check_fails_without_a_split(tmp_path, small_verify_cfg):
    # a one-interval grid has no interior node to split at: zero evidence
    cfg = json.loads(open(small_verify_cfg).read())
    cfg["verify"]["dpp_steps"] = 1
    path = tmp_path / "one-step.json"
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
    assert calls["dpp_residual"] == 2 * (3 - 1)        # dpp_phis x (dpp_steps - 1)
    assert all(calls.values()), calls
    rows = (out / "checks.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [
        "trajectory_bounds", "dpp_residual", "epigraph_invariance",
        "hjb_residual", "terminal_limit", "oscillation"]


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


@pytest.mark.parametrize("param, key", [("M=[1]", "'M'"), ('rho="x"', "'rho'")])
def test_builtin_parameter_of_the_wrong_type_exits_2(tmp_path, capsys, param, key):
    rc = run(["solve", "--param", param, "--method", "oracle", "--steps", "2",
              "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: builtin parameter " + key)
    assert "Traceback" not in err


def test_cli_import_loads_no_scipy():
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.abspath(enoc.cli.__file__)))
    code = ("import sys, enoc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
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
