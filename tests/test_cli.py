import json

import pytest

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
