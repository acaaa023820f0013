import numpy as np
import pytest

import enoc.verify
from enoc import (Axis, CapabilityError, ControlSchedule, ControlSignal,
                  DynamicsSpec, EnsembleState, ParameterSpace, ProblemSpec,
                  TerminalCostSpec, TimeGrid, builtin,
                  cost_lipschitz_bound, epigraph_invariance, hjb_residual,
                  integrate, l2_inner, oscillation_diagnostic, problem_from_dict,
                  terminal_limit, terminal_functional, trajectory_bound_suite,
                  value_dp, value_oracle)
from enoc.cli import _dpp_check


def drift_free_smooth():
    space = ParameterSpace(weights=[1.0], coords=[[0.0]])
    dyn = DynamicsSpec(eval_ens=lambda t, X, u: np.zeros_like(X),
                       growth_c=1.0, lipschitz_k=1.0,
                       omega_modulus=lambda r: 0.0)
    cost = TerminalCostSpec(eval_ens=lambda X: np.sin(X[..., 0]),
                            lower_bound_a=np.full(1, -1.0), lower_bound_b=0.0)
    return ProblemSpec(space=space, n=1, m=1, dynamics=dyn, cost=cost,
                       controls=ControlSchedule.constant([[-1.0], [0.0], [1.0]]),
                       horizon=1.0)


# -- finite-difference residual --------------------------------------------------

def test_hjb_drift_free_residual_is_zero():
    p = drift_free_smooth()
    vg = value_dp(p, [Axis(-2.0, 2.0, 21)], TimeGrid(0.0, 1.0, 10))
    rep = hjb_residual(vg, p)
    assert rep.passed
    assert rep.worst == pytest.approx(0.0, abs=1e-14)
    assert rep.details["skipped_kinks"] == 0


def test_hjb_smooth_linear_instance_within_tolerance(lin2):
    vg = value_dp(lin2, [Axis(-5.0, 5.0, 41)] * 2, TimeGrid(0.0, 1.0, 50))
    rep = hjb_residual(vg, lin2)
    assert rep.passed
    assert rep.worst <= rep.tolerance


def test_hjb_zero_evidence_fails(lin2):
    # on this coarse grid every interior node is boundary-influenced
    vg = value_dp(lin2, [Axis(-0.5, 0.5, 5)] * 2, TimeGrid(0.0, 1.0, 4))
    rep = hjb_residual(vg, lin2)
    assert rep.details["evaluated"] == 0
    assert not rep.passed
    assert "insufficient evidence" in rep.details["note"]


def test_hjb_nan_residual_is_the_worst(lin2):
    # a NaN terminal value at one interior node makes that node's residual in
    # the last time slice NaN; it must not hide that slice, nor pass
    vg = value_dp(lin2, [Axis(-5.0, 5.0, 41)] * 2, TimeGrid(0.0, 1.0, 50))
    assert hjb_residual(vg, lin2).passed
    vg.values[-1][20, 20] = np.nan
    rep = hjb_residual(vg, lin2)
    assert np.isnan(rep.worst) and not rep.passed
    assert rep.witness["time_index"] == 49


def test_hjb_matches_pointwise_hamiltonian_operation(lin2):
    # the vectorized sweep's worst residual, re-derived at its witness node
    # by enumerating the costate pairing over the active set
    vg = value_dp(lin2, [Axis(-3.0, 3.0, 25)] * 2, TimeGrid(0.0, 1.0, 20))
    rep = hjb_residual(vg, lin2)
    assert rep.details["evaluated"] > 0
    j = rep.witness["time_index"]
    idx = tuple(int(round((z - ax.lo) / ax.spacing))
                for z, ax in zip(rep.witness["z"], vg.axes))
    assert [ax.nodes[i] for ax, i in zip(vg.axes, idx)] == rep.witness["z"]
    grad = np.empty(2)
    for ax_i, ax in enumerate(vg.axes):
        up, dn = list(idx), list(idx)
        up[ax_i] += 1
        dn[ax_i] -= 1
        grad[ax_i] = ((vg.values[j][tuple(up)] - vg.values[j][tuple(dn)])
                      / (2 * ax.spacing))
    xi_t = (vg.values[j + 1][idx] - vg.values[j - 1][idx]) / (2 * vg.grid.dt)
    phi = EnsembleState(np.array(rep.witness["z"]).reshape(2, 1), lin2.space)
    costate = EnsembleState((grad / lin2.space.weights).reshape(2, 1), lin2.space)
    t = vg.grid.nodes[j]
    h = min(l2_inner(costate, EnsembleState(lin2.dynamics.field(t, phi.values, u),
                                            lin2.space))
            for u in lin2.controls.active_set(t))
    assert rep.worst > 0.0
    assert rep.worst == pytest.approx(abs(xi_t + h), abs=1e-12)


# -- invariance ---------------------------------------------------------------

def test_epigraph_drift_free_exact():
    p = drift_free_smooth()
    phi = EnsembleState([[0.4]], p.space)
    rep = epigraph_invariance(p, 0.0, phi, TimeGrid(0.0, 1.0, 4))
    assert rep.passed
    assert rep.details["drift"] == 0.0
    assert rep.details["min_margin"] >= 0.0


def test_epigraph_linear_family(lin2):
    phi = EnsembleState([[0.3], [0.4]], lin2.space)
    rep = epigraph_invariance(lin2, 0.0, phi, TimeGrid(0.0, 1.0, 4))
    assert rep.passed
    assert rep.details["signals"] == 81
    assert rep.details["drift"] <= 1e-8


def test_epigraph_suboptimal_control_strictly_increases_value(lin2):
    # a deliberately wrong constant control must carry positive margin
    phi = EnsembleState([[0.3], [0.4]], lin2.space)
    grid = TimeGrid(0.0, 1.0, 4)
    sig = ControlSignal.constant(grid, 1.0)  # optimal is -1: worst choice
    traj = integrate(lin2, 0.0, phi, sig)
    vs = []
    for j in range(5):
        state = EnsembleState(traj.states[j], lin2.space)
        if j < 4:
            vs.append(value_oracle(lin2, grid.nodes[j], state, grid.suffix(j)).value)
        else:
            vs.append(terminal_functional(lin2, state))
    gaps = np.diff(vs)
    assert np.all(gaps > 1e-3)


def test_epigraph_reproducible(lin2):
    phi = EnsembleState([[0.1], [-0.2]], lin2.space)
    a = epigraph_invariance(lin2, 0.0, phi, TimeGrid(0.0, 1.0, 3))
    b = epigraph_invariance(lin2, 0.0, phi, TimeGrid(0.0, 1.0, 3))
    assert a.worst == b.worst
    assert a.details["min_margin"] == b.details["min_margin"]


def test_epigraph_fails_on_nan_evidence():
    # every leaf costs +inf, so every drift and margin is inf - inf; the
    # suite turns the subtraction's RuntimeWarning into a failure
    space = ParameterSpace(weights=[0.5, 0.5], coords=[[0.0], [1.0]])
    cost = TerminalCostSpec(eval_ens=lambda X: np.broadcast_to([0.0, np.inf], np.shape(X)[:-1]),
                            lower_bound_a=np.zeros(2), lower_bound_b=0.0)
    dyn = DynamicsSpec(eval_ens=lambda t, X, u: np.zeros_like(X) + np.asarray(u)[..., None, :],
                       growth_c=1.0, lipschitz_k=1.0)
    p = ProblemSpec(space=space, n=1, m=1, dynamics=dyn, cost=cost,
                    controls=ControlSchedule.constant([[0.0], [1.0]]), horizon=1.0)
    rep = epigraph_invariance(p, 0.0, EnsembleState.zeros(space, 1), TimeGrid(0.0, 1.0, 3))
    assert not rep.passed and np.isnan(rep.worst)
    assert np.isnan(rep.details["drift"]) and np.isnan(rep.details["min_margin"])
    assert rep.witness["drift"] == {"time_index": 0, "t": 0.0, "value": np.inf,
                                    "initial_value": np.inf}
    assert rep.witness["margin"] == {"time_index": 0, "prefix": (), "control_index": 0}


# -- terminal limit ---------------------------------------------------------------

def test_terminal_limit_drift_free_zero_differences():
    p = drift_free_smooth()
    phi = EnsembleState([[0.4]], p.space)
    rep = terminal_limit(p, phi, [0.2, 0.1, 0.05], cost_lipschitz=1.0)
    assert rep.passed
    for row in rep.details["table"]:
        assert row["difference"] == pytest.approx(0.0, abs=1e-14)


def test_terminal_limit_linear_family(lin2):
    phi = EnsembleState([[0.3], [0.4]], lin2.space)
    lip = cost_lipschitz_bound(lin2, radius=5.0)
    rep = terminal_limit(lin2, phi, [0.2, 0.1, 0.05, 0.025], cost_lipschitz=lip)
    assert rep.passed
    assert rep.details["empirical_slope"] <= rep.tolerance
    diffs = [row["difference"] for row in rep.details["table"]]
    assert all(a >= b for a, b in zip(diffs, diffs[1:]))


def test_terminal_limit_tol_keeps_monotone_decay(sine_drift_doc):
    # differences 0.036, 0.0045, 0.041, 0.014 over the gaps: a huge slope
    # tolerance must not lift the monotone-decay condition
    p = problem_from_dict(sine_drift_doc)
    phibar = EnsembleState.zeros(p.space, 1)
    rep = terminal_limit(p, phibar, [0.2, 0.1, 0.05, 0.025], steps=4,
                         cost_lipschitz=1.0, tol=1e6)
    assert rep.tolerance == 1e6
    assert rep.worst <= rep.tolerance
    assert rep.details["monotone_decay"] is False
    assert rep.passed is False


def test_terminal_limit_requires_certificate(lin2):
    phi = EnsembleState([[0.0], [0.0]], lin2.space)
    with pytest.raises(ValueError, match="Lipschitz"):
        terminal_limit(lin2, phi, [0.1])


def test_terminal_limit_rejects_bad_gaps(lin2):
    phi = EnsembleState([[0.0], [0.0]], lin2.space)
    with pytest.raises(ValueError):
        terminal_limit(lin2, phi, [1.5], cost_lipschitz=1.0)


# -- oscillation diagnostic ---------------------------------------------------------

def test_oscillation_parameter_free_field_is_zero():
    p = builtin("decoupled-quadratic", M=3, tau=[0.0, 0.1, 0.2])
    phi = EnsembleState.zeros(p.space, 1)
    rep = oscillation_diagnostic(p, 0.0, phi, 3, [0.3, 0.8, 2.0], steps=20)
    assert rep.passed
    for row in rep.details["curves"]:
        assert row["oscillation"] == pytest.approx(0.0, abs=1e-26)


def test_oscillation_single_atom_is_zero():
    p = builtin("decoupled-quadratic", M=1, tau=[0.3])
    phi = EnsembleState.zeros(p.space, 1)
    rep = oscillation_diagnostic(p, 0.0, phi, 2, [0.5, 1.0], steps=20)
    assert rep.passed
    assert all(r["oscillation"] == 0.0 for r in rep.details["curves"])


def test_oscillation_linear_family_below_bound(lin2):
    phi = EnsembleState([[0.5], [0.5]], lin2.space)
    rep = oscillation_diagnostic(lin2, 0.0, phi, 5, [0.4, 0.9, 1.5], steps=50,
                                 seed=3)
    assert rep.passed and rep.tolerance == 1e-12
    assert all(v > 0 for v in rep.details["ball_mass"].values())


def test_oscillation_requires_modulus():
    space = ParameterSpace(weights=[0.5, 0.5], coords=[[0.0], [1.0]])
    dyn = DynamicsSpec(eval_ens=lambda t, X, u: np.zeros_like(X),
                       growth_c=1.0, lipschitz_k=1.0)
    cost = TerminalCostSpec(eval_ens=lambda X: np.zeros(np.shape(X)[:-1]),
                            lower_bound_a=np.zeros(2), lower_bound_b=0.0)
    p = ProblemSpec(space=space, n=1, m=1, dynamics=dyn, cost=cost,
                    controls=ControlSchedule.constant([[0.0]]), horizon=1.0)
    with pytest.raises(CapabilityError):
        oscillation_diagnostic(p, 0.0, EnsembleState.zeros(space, 1), 1, [0.5])


def test_oscillation_reproducible_with_seed(lin2):
    phi = EnsembleState([[0.5], [0.5]], lin2.space)
    a = oscillation_diagnostic(lin2, 0.0, phi, 3, [0.5], steps=30, seed=7)
    b = oscillation_diagnostic(lin2, 0.0, phi, 3, [0.5], steps=30, seed=7)
    assert a.worst == b.worst


def test_oscillation_ball_without_mass_fails_any_tolerance(lin2, monkeypatch):
    real = enoc.verify.ball_mass
    monkeypatch.setattr(enoc.verify, "ball_mass",
                        lambda space, r: 0.0 if r == 0.9 else real(space, r))
    phi = EnsembleState([[0.5], [0.5]], lin2.space)
    rep = oscillation_diagnostic(lin2, 0.0, phi, 3, [0.4, 0.9], steps=30, tol=1e6)
    assert not rep.passed
    assert rep.worst == np.inf and rep.witness["r"] == 0.9


# -- one pass rule --------------------------------------------------------------

def _coarse_hjb():
    # on this coarse grid every interior node is boundary-influenced
    p = builtin("linear-ensemble", M=2, a=[0.5, -0.3], c=[2.0, 1.0])
    return hjb_residual(value_dp(p, [Axis(-0.5, 0.5, 5)] * 2, TimeGrid(0.0, 1.0, 4)), p)


@pytest.mark.parametrize("check", [
    lambda: trajectory_bound_suite(builtin("linear-ensemble"), trials=0),
    lambda: oscillation_diagnostic(
        builtin("linear-ensemble"), 0.0,
        EnsembleState.zeros(builtin("linear-ensemble").space, 1), 2, [], steps=10),
    lambda: _dpp_check(builtin("linear-ensemble"), 0.0, 0, 4, 0, 10 ** 6),
    lambda: _dpp_check(builtin("linear-ensemble"), 0.0, 3, 1, 0, 10 ** 6),
    _coarse_hjb,
], ids=["bounds-no-trial", "oscillation-no-radius", "dpp-no-start", "dpp-no-split",
        "hjb-every-node-skipped"])
def test_sampled_checks_fail_on_zero_evidence(check):
    rep = check()
    assert not rep.passed
    assert rep.details["evaluated"] == 0
    assert rep.worst == 0.0 and rep.witness == {}
    assert rep.details["note"].startswith("insufficient evidence: ")
