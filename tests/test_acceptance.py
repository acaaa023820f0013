"""Acceptance suite: one test per release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are pinned here and nowhere else.
"""

import json
import time

import numpy as np

from enoc import (Axis, EnsembleState, TimeGrid, builtin, closed_form,
                  dpp_residual, epigraph_invariance,
                  hjb_residual, integrate, trajectory_bound_suite,
                  oscillation_diagnostic, terminal_limit, value_adjoint,
                  value_dp, value_oracle)
from enoc.cli import main as cli_main
from enoc.ensemble import ControlSignal


def _report(num, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert passed, line


def _smooth_pair():
    return builtin("linear-ensemble", M=2, a=[0.5, -0.3], c=[2.0, 1.0])


def test_criterion_1_trajectory_bounds_1000_randomized():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    trials_total = 0
    worst = 0.0
    for k in range(25):
        M = int(rng.integers(1, 9))          # M <= 8
        n = int(rng.integers(1, 3))          # n <= 2
        a = rng.uniform(-2.0, 2.0, M)        # |a| <= 2
        p = builtin("linear-ensemble", M=M, n=n, a=a, T=1.0)
        rep = trajectory_bound_suite(p, trials=40, steps=200, seed=k, slack=1.05)
        trials_total += rep.details["trials"]
        worst = max(worst, max(rep.details["max_ratio"].values()))
        assert rep.passed, rep.details["violations"][:3]
    elapsed = time.perf_counter() - t0
    _report(1, trials_total == 1000 and worst <= 1.05 and elapsed < 60.0,
            f"{trials_total} randomized trials, worst bound ratio "
            f"{worst:.4f} <= 1.05, runtime {elapsed:.1f}s < 60s")


def test_criterion_2_dpp_enumeration_identity():
    p = _smooth_pair()
    grid = TimeGrid(0.0, 1.0, 4)
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    res = dpp_residual(p, 0.0, rng.uniform(-0.5, 0.5, (100, 2, 1)), grid)
    worst = float(np.abs(res).max())
    elapsed = time.perf_counter() - t0
    _report(2, res.shape == (100, 3) and worst <= 1e-10 and elapsed < 10.0,
            f"100 states x 3 splits, worst residual {worst:.2e} <= 1e-10, "
            f"runtime {elapsed:.1f}s < 10s")


def test_criterion_3_cross_method_consistency():
    p = _smooth_pair()
    grid = TimeGrid(0.0, 1.0, 100)
    vg = value_dp(p, [Axis(-5.0, 5.0, 81)] * 2, grid, phi_radius=0.71)
    tol = 5.0 * (grid.dt + vg.axes[0].spacing)
    rng = np.random.default_rng(11)
    cf = closed_form(p)
    oracle_grid = TimeGrid(0.0, 1.0, 8)
    worst_dp = 0.0
    worst_adj = 0.0
    for _ in range(20):
        phi = EnsembleState(rng.uniform(-0.5, 0.5, (2, 1)), p.space)
        direct = value_oracle(p, 0.0, phi, oracle_grid).value
        worst_dp = max(worst_dp, abs(direct - vg.value_at(0.0, phi.values.reshape(-1))))
        adj = value_adjoint(p, 0.0, phi, grid).value
        worst_adj = max(worst_adj, abs(adj - cf.optimal_value(0.0, phi)))
    _report(3, worst_dp <= tol and worst_adj <= 1e-6,
            f"dp vs oracle {worst_dp:.3e} <= {tol:.3e} on 20 states; "
            f"adjoint vs closed form {worst_adj:.2e} <= 1e-6")


def test_criterion_4_closed_form_optimum_zero_gain():
    rng = np.random.default_rng(13)
    worst_val = 0.0
    controls_exact = True
    for c in ([2.0, 1.0], [-2.0, -1.0]):
        p = builtin("linear-ensemble", M=2, a=[0.0, 0.0], c=c)
        w = p.space.weights
        wsum = float(w @ np.asarray(c))
        expect_u = -np.sign(wsum)
        grid = TimeGrid(0.0, 1.0, 4)
        for _ in range(5):
            phi = EnsembleState(rng.uniform(-1.0, 1.0, (2, 1)), p.space)
            res = value_oracle(p, 0.0, phi, grid)
            controls_exact &= bool(np.all(res.best.values == expect_u))
            analytic = (float(w @ (np.asarray(c) * phi.values[:, 0]))
                        - 1.0 * abs(wsum))
            worst_val = max(worst_val, abs(res.value - analytic))
    _report(4, controls_exact and worst_val <= 1e-12,
            f"best control is -rho*sign(weighted cost sum) on every interval "
            f"(exact); value error {worst_val:.2e} <= 1e-12")


def test_criterion_5_hjb_residual_refinement():
    p = _smooth_pair()
    residuals = []
    final_tol = None
    for steps, counts in ((25, 21), (50, 41), (100, 81)):
        vg = value_dp(p, [Axis(-5.0, 5.0, counts)] * 2, TimeGrid(0.0, 1.0, steps))
        rep = hjb_residual(vg, p, kappa=5.0)
        residuals.append(rep.worst)
        final_tol = rep.tolerance
    monotone = residuals[0] > residuals[1] > residuals[2]
    _report(5, monotone and residuals[-1] <= final_tol,
            f"residuals {[f'{r:.4f}' for r in residuals]} decrease "
            f"monotonically; finest {residuals[-1]:.4f} <= {final_tol:.4f}")


def test_criterion_6_epigraph_invariance_full_enumeration():
    p = _smooth_pair()
    phi = EnsembleState([[0.3], [0.4]], p.space)
    rep = epigraph_invariance(p, 0.0, phi, TimeGrid(0.0, 1.0, 4))
    _report(6, rep.passed and rep.details["signals"] == 81,
            f"drift {rep.details['drift']:.2e} <= 1e-8 along the optimal path; "
            f"min margin {rep.details['min_margin']:.2e} >= -1e-10 over all "
            f"{rep.details['signals']} signals")


def test_criterion_7_terminal_limit_linear_decay():
    p = _smooth_pair()
    phi = EnsembleState([[0.3], [0.4]], p.space)
    rep = terminal_limit(p, phi, [0.2, 0.1, 0.05, 0.025])
    _report(7, rep.passed,
            f"empirical slope {rep.details['empirical_slope']:.3f} <= "
            f"2 x derived constant {rep.details['derived_constant']:.3f}; "
            f"differences decay monotonically")


def test_criterion_8_oscillation_diagnostic():
    p = builtin("linear-ensemble", M=4, a=np.linspace(-1.0, 1.0, 4),
                c=[1.0, 1.0, 1.0, 1.0])
    phi = EnsembleState(np.full((4, 1), 0.5), p.space)
    radii = [0.2, 0.5, 0.85, 1.2]
    rep = oscillation_diagnostic(p, 0.0, phi, 5, radii, steps=100, seed=0)
    h_ok = all(v > 0 for v in rep.details["ball_mass"].values())
    pairs = rep.details["modulus"]
    _report(8, rep.passed and h_ok and len(pairs) == 6,
            f"oscillation stays below mass*theta(r)^2 at all {len(radii)} "
            f"radii for 5 sampled controls and the sampled modulus estimate "
            f"below theta(d) for all {len(pairs)} atom pairs; min ball mass "
            f"{min(rep.details['ball_mass'].values()):.3f} > 0")


def test_criterion_9_determinism_and_decoupling(tmp_path):
    # bit-identical re-run from the manifest alone
    out1, out2 = tmp_path / "a", tmp_path / "b"
    base = ["solve", "--problem", "linear-ensemble",
            "--param", "a=[0.5,-0.3]", "--param", "c=[2.0,1.0]",
            "--method", "all", "--steps", "6", "--phi", "0.3,0.4",
            "--grid=-5:5:21", "--grid=-5:5:21"]
    assert cli_main(base + ["--out", str(out1)]) == 0
    assert cli_main(["solve", "--from-manifest", str(out1 / "manifest.json"),
                     "--out", str(out2)]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    bits_ok = m1["config"] == m2["config"] and m1["values"] == m2["values"]
    for name in m1["artifacts"]:
        bits_ok &= (out1 / name).read_bytes() == (out2 / name).read_bytes()

    # per-atom split integration equals whole-ensemble integration exactly
    a = [0.3, -0.2, 0.9, -1.1]
    p = builtin("linear-ensemble", M=4, a=a, c=[1.0] * 4)
    rng = np.random.default_rng(3)
    phi_vals = rng.uniform(-1, 1, (4, 1))
    grid = TimeGrid(0.0, 1.0, 40)
    from enoc import random_signal
    sig = random_signal(p, grid, rng)
    whole = integrate(p, 0.0, EnsembleState(phi_vals, p.space), sig)
    split_ok = True
    for subset in ([0, 1], [2, 3], [1, 2, 3]):
        sub = builtin("linear-ensemble", M=len(subset),
                      a=[a[i] for i in subset], c=[1.0] * len(subset),
                      coords=np.linspace(0, 1, 4)[subset, None],
                      weights=[0.25] * len(subset))
        part = integrate(sub, 0.0, EnsembleState(phi_vals[subset], sub.space),
                         ControlSignal(grid, sig.values))
        split_ok &= np.array_equal(part.states, whole.states[:, subset])
    _report(9, bits_ok and split_ok,
            "manifest re-run reproduces every artifact bit-exactly; "
            "per-atom split integration equals whole-ensemble integration")
