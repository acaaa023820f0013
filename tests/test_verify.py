import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import enoc.verify
from enoc import (Axis, CapabilityError, ControlSchedule, ControlSignal,
                  DynamicsSpec, EnsembleState, ParameterSpace, ProblemSpec,
                  TerminalCostSpec, TimeGrid, builtin,
                  epigraph_invariance, hjb_residual,
                  integrate, oscillation_diagnostic, problem_from_dict,
                  random_signal, terminal_limit, terminal_functional,
                  trajectory_bound_suite, value_dp, value_oracle)
from enoc.cli import _VERIFY_DEFAULTS, _default_radii, _dpp_check
from enoc.problem import _sampled_report
from enoc.value import _node_mesh


def drift_free_smooth():
    space = ParameterSpace(weights=[1.0], coords=[[0.0]])
    dyn = DynamicsSpec(eval_ens=lambda t, X, u: np.zeros_like(X),
                       growth_c=1.0, lipschitz_k=1.0,
                       omega_modulus=lambda r: 0.0)
    cost = TerminalCostSpec(eval_ens=lambda X: np.sin(X[..., 0]),
                            lower_bound_a=np.full(1, -1.0), lower_bound_b=0.0,
                            lipschitz=lambda r: 1.0)
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
    # the mass-weighted pairing of the costate with each control's velocity
    h = min(float(np.einsum("i,ij,ij->", lin2.space.weights, costate.values,
                            lin2.dynamics.field(t, phi.values, u)))
            for u in lin2.controls.active_set(t))
    assert rep.worst > 0.0
    assert rep.worst == pytest.approx(abs(xi_t + h), abs=1e-12)


def per_slice_hjb(vg, p, kappa=5.0):
    """hjb_residual one time slice at a time: the Hamiltonian at every
    interior node of the slice, then the masks pick the evaluated ones.
    hjb_residual works in slabs of slices at the evaluated nodes only; on the
    same per-node arithmetic it must give the same report."""
    N, counts, d = vg.grid.steps, vg.shape, len(vg.axes)
    interior = tuple(slice(1, c - 1) for c in counts)
    Z = _node_mesh([ax.nodes[1:-1] for ax in vg.axes])
    Qi = Z.shape[0]
    X = Z.reshape(Qi, p.space.size, p.n)
    dt, dz = vg.grid.dt, max(ax.spacing for ax in vg.axes)

    def shifted(ax_i, lo):
        return tuple(slice(lo, c - 2 + lo) if a == ax_i else slice(1, c - 1)
                     for a, c in enumerate(counts))

    shifts = [(shifted(ax_i, 2), shifted(ax_i, 0)) for ax_i in range(d)]
    slice_worst, slice_node = np.zeros(N - 1), np.zeros(N - 1, dtype=int)
    slice_count = np.zeros(N - 1, dtype=int)
    skipped = skipped_boundary = 0
    for j in range(1, N):
        xi_t = ((vg.values[j + 1] - vg.values[j - 1]) / (2.0 * dt))[interior].reshape(-1)
        grads = np.empty((Qi, d))
        arg = vg.argmin[j]
        kink = np.zeros(tuple(c - 2 for c in counts), dtype=bool)
        taint = (vg.tainted[j - 1][interior] | vg.tainted[j][interior]
                 | vg.tainted[j + 1][interior])
        for ax_i, (up, dn) in enumerate(shifts):
            grads[:, ax_i] = ((vg.values[j][up] - vg.values[j][dn])
                              / (2.0 * vg.axes[ax_i].spacing)).reshape(-1)
            kink |= (arg[up] != arg[interior]) | (arg[dn] != arg[interior])
            taint |= vg.tainted[j][up] | vg.tainted[j][dn]
        kink, taint = kink.reshape(-1), taint.reshape(-1)
        t = vg.grid.nodes[j]
        ham, _ = p.dynamics.min_pairing(t, X, grads.reshape(X.shape),
                                        p.controls.active_set(t))
        res = np.abs(xi_t + ham)
        mask = ~kink & ~taint
        skipped += int(kink.sum())
        skipped_boundary += int((taint & ~kink).sum())
        q = int(np.argmax(np.where(mask, res, -np.inf)))
        slice_worst[j - 1], slice_node[j - 1], slice_count[j - 1] = res[q], q, mask.sum()
    return _sampled_report(
        p, "hjb_residual", kappa * (dt + dz), slice_worst,
        lambda i: {"t": float(vg.grid.nodes[i + 1]), "z": Z[slice_node[i]].tolist(),
                   "time_index": i + 1},
        None, evaluated=slice_count, why_empty="every node was skipped",
        skipped_kinks=skipped, skipped_boundary=skipped_boundary,
        kappa=kappa, dt=dt, dz=dz)


_T_DEPENDENT = {
    "format": "enoc-problem/1",
    "space": {"format": "enoc-space/1",
              "atoms": [{"id": "a", "coords": [0.5]}, {"id": "b", "coords": [1.0]}],
              "weights": [0.5, 0.5]},
    "n": 1, "m": 1, "horizon": 1.0,
    "dynamics": {"expressions": ["w1 * x1 * cos(3 * t) + u1"],
                 "growth_c": 2.0, "lipschitz_k": 1.0},
    "cost": {"expression": "(x1 - w1) ** 2"},
    "controls": {"breakpoints": [0.0], "sets": [[[-1.0], [0.0], [1.0]]]},
}
# three control sets of 3, 2 and 5 points, switched twice inside the horizon
_SWITCHING = dict(_T_DEPENDENT, controls={
    "breakpoints": [0.0, 0.37, 0.71],
    "sets": [[[-1.0], [0.0], [1.0]], [[-0.5], [0.5]],
             [[-1.0], [-0.5], [0.0], [0.5], [1.0]]]})

_HJB_CASES = [
    (lambda: builtin("linear-ensemble"), [Axis(-5.0, 5.0, 41)] * 2, 50),
    (lambda: builtin("bilinear"), [Axis(-2.0, 2.0, 31)] * 2, 20),
    (lambda: builtin("decoupled-quadratic"), [Axis(-2.0, 2.0, 61)], 40),
    (lambda: builtin("linear-ensemble", M=2, n=2, a=[0.5, -0.3], c=[2.0, 1.0]),
     [Axis(-2.0, 2.0, 9)] * 4, 8),
    (lambda: builtin("linear-ensemble", M=4), [Axis(-2.0, 2.0, 7)] * 4, 8),
    (lambda: problem_from_dict(_T_DEPENDENT), [Axis(-2.0, 2.0, 41)] * 2, 30),
    (lambda: problem_from_dict(_SWITCHING), [Axis(-2.0, 2.0, 41)] * 2, 30),
    # 199^2 interior nodes: one slice per slab
    (lambda: builtin("linear-ensemble"), [Axis(-5.0, 5.0, 201)] * 2, 20),
]
_HJB_IDS = ["linear-ensemble", "bilinear", "decoupled-quadratic", "linear-M2-n2",
            "linear-M4", "expr-t-dependent", "expr-switching", "slice-per-slab"]


def assert_same_report(rep, ref):
    assert rep.worst == ref.worst or (np.isnan(rep.worst) and np.isnan(ref.worst))
    assert (rep.witness, rep.details, rep.passed) == (ref.witness, ref.details, ref.passed)


@pytest.mark.parametrize("make, axes, steps", _HJB_CASES, ids=_HJB_IDS)
def test_hjb_is_the_per_slice_loop(make, axes, steps):
    p = make()
    vg = value_dp(p, axes, TimeGrid(0.0, p.horizon, steps))
    rep = hjb_residual(vg, p)
    assert rep.details["evaluated"] > 0
    assert_same_report(rep, per_slice_hjb(vg, p))


@pytest.mark.parametrize("slices", [1, 2, 7])
def test_hjb_slabs_split_runs_of_one_control_set(slices, monkeypatch):
    # slabs of one slice, of two, and of seven, which end inside a run of one
    # active set as often as at a switch; a NaN node must win its slice.  A
    # slab's node works with 4 d + 2 K + 6 = 24 floats (d = 2, K = 5)
    p = problem_from_dict(_SWITCHING)
    vg = value_dp(p, [Axis(-2.0, 2.0, 41)] * 2, TimeGrid(0.0, 1.0, 30))
    monkeypatch.setattr(enoc.verify, "_SLAB", slices * 39 ** 2 * 24)
    assert_same_report(hjb_residual(vg, p), per_slice_hjb(vg, p))
    vg.values[12][20, 21] = np.nan
    rep = hjb_residual(vg, p)
    assert np.isnan(rep.worst) and rep.witness["time_index"] in (11, 12, 13)
    assert_same_report(rep, per_slice_hjb(vg, p))


def test_hjb_memory_is_set_by_the_slab_not_the_slices():
    # a 201^2 x 100-step table holds 32 MB of values; a slab works with at
    # most _SLAB floats, or with one slice when a slice alone needs more:
    # here 199^2 interior nodes x 20 floats (d = 2, K = 3), about 6 MB
    p = builtin("linear-ensemble")
    vg = value_dp(p, [Axis(-5.0, 5.0, 201)] * 2, TimeGrid(0.0, 1.0, 100))
    tracemalloc.start()
    try:
        rep = hjb_residual(vg, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.details["evaluated"] > 0
    slab_bytes = 8 * max(enoc.verify._SLAB, 199 ** 2 * 20)
    assert peak < 1.5 * slab_bytes < vg.values.nbytes / 3


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
    rep = terminal_limit(p, phi, [0.2, 0.1, 0.05])
    assert rep.passed
    for row in rep.details["table"]:
        assert row["difference"] == pytest.approx(0.0, abs=1e-14)


def test_terminal_limit_linear_family(lin2):
    phi = EnsembleState([[0.3], [0.4]], lin2.space)
    rep = terminal_limit(lin2, phi, [0.2, 0.1, 0.05, 0.025])
    assert rep.passed
    assert rep.details["empirical_slope"] <= rep.tolerance
    diffs = [row["difference"] for row in rep.details["table"]]
    assert all(a >= b for a, b in zip(diffs, diffs[1:]))


def test_terminal_limit_tol_keeps_monotone_decay(sine_drift_doc):
    # differences 0.036, 0.0045, 0.041, 0.014 over the gaps: a huge slope
    # tolerance must not lift the monotone-decay condition
    sine_drift_doc["cost"]["lipschitz"] = "2 * r"
    p = problem_from_dict(sine_drift_doc)
    phibar = EnsembleState.zeros(p.space, 1)
    rep = terminal_limit(p, phibar, [0.2, 0.1, 0.05, 0.025], steps=4, tol=1e6)
    assert rep.tolerance == 1e6
    assert rep.worst <= rep.tolerance
    assert rep.details["monotone_decay"] is False
    assert rep.passed is False


def test_terminal_limit_requires_certificate(sine_drift_doc):
    p = problem_from_dict(sine_drift_doc)
    assert p.cost.lipschitz is None
    phi = EnsembleState.zeros(p.space, 1)
    with pytest.raises(CapabilityError,
                       match="^no cost Lipschitz certificate: .*'cost.lipschitz'"):
        terminal_limit(p, phi, [0.1])


def test_terminal_limit_rejects_bad_gaps(lin2):
    phi = EnsembleState([[0.0], [0.0]], lin2.space)
    with pytest.raises(ValueError):
        terminal_limit(lin2, phi, [1.5])


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


def test_oscillation_without_a_radius_raises(lin2):
    # the modulus pairs would still be scored, so no radius is a usage error,
    # as no signal is, not a pass on the pairs alone
    phi = EnsembleState.zeros(lin2.space, 1)
    with pytest.raises(ValueError, match="radii"):
        oscillation_diagnostic(lin2, 0.0, phi, 2, [], steps=10)
    with pytest.raises(ValueError, match="signals"):
        oscillation_diagnostic(lin2, 0.0, phi, [], [0.5], steps=10)


def test_oscillation_signals_are_drawn_as_without_the_modulus(lin2):
    # the modulus states come from their own generator: the signals are the
    # ones default_rng(seed) draws first
    phi = EnsembleState([[0.5], [-0.25]], lin2.space)
    rep = oscillation_diagnostic(lin2, 0.1, phi, 4, [0.5, 1.5], steps=30, seed=9)
    rng = np.random.default_rng(9)
    grid = TimeGrid(0.1, lin2.horizon, 30)
    signals = [random_signal(lin2, grid, rng) for _ in range(4)]
    ref = oscillation_diagnostic(lin2, 0.1, phi, signals, [0.5, 1.5], seed=9)
    assert rep.details["curves"] == ref.details["curves"]
    assert rep.details["modulus"] == ref.details["modulus"]


def _modulus_by_node_and_control(p, seed, x_radius):
    """The modulus estimates one time node and one control at a time, on the
    draws of _modulus_excess: the reference for its batched field calls."""
    M = p.space.size
    rng = np.random.default_rng(seed)
    I, J = np.triu_indices(M, 1)
    if I.size > enoc.verify._MODULUS_PAIRS:
        keep = np.sort(rng.choice(I.size, size=enoc.verify._MODULUS_PAIRS, replace=False))
        I, J = I[keep], J[keep]
    xs = x_radius * rng.uniform(-1.0, 1.0, (32, p.n))
    ts = np.linspace(0.0, p.horizon, 33)
    X = np.broadcast_to(xs[:, None, :], (32, M, p.n))
    vals = np.zeros((I.size, ts.size))
    for q, t in enumerate(ts):
        for u in p.controls.active_set(t):
            V = p.dynamics.field(t, X, u)
            gaps = np.linalg.norm(V[:, I] - V[:, J], axis=-1).max(axis=0)
            vals[:, q] = np.maximum(vals[:, q], gaps)
    return [[int(i), int(j)] for i, j in zip(I, J)], [
        float(np.trapezoid(row, ts)) for row in vals]


def _switching_expression():
    # a t-dependent field, whose atoms differ by a control-scaled gap, on
    # three control sets of different sizes
    return problem_from_dict({
        "format": "enoc-problem/1",
        "space": {"format": "enoc-space/1",
                  "atoms": [{"id": c, "coords": [float(k)]} for k, c in enumerate("abc")],
                  "weights": [0.2, 0.3, 0.5]},
        "n": 1, "m": 1, "horizon": 1.0,
        "dynamics": {"expressions": ["w1 * x1 * u1 * cos(3 * t) + u1"],
                     "growth_c": 4.0, "lipschitz_k": 2.0, "omega_modulus": "10 * r"},
        "cost": {"expression": "x1 ** 2"},
        "controls": {"breakpoints": [0.0, 0.3, 0.7],
                     "sets": [[[-1.0], [1.0]], [[-1.0], [0.0], [0.5], [1.0]], [[0.25]]],
                     "box": [[-1.0, 1.0]]},
    })


@pytest.mark.parametrize("make", [
    lambda: builtin("linear-ensemble", M=3, n=2),
    lambda: builtin("bilinear", M=4, n=2),
    _switching_expression,
    # 78 pairs: 64 of them drawn
    lambda: builtin("linear-ensemble", M=13),
], ids=["linear-ensemble", "bilinear", "switching-expression", "drawn-pairs"])
def test_modulus_batches_equal_the_loop_over_nodes_and_controls(make, monkeypatch):
    p = make()
    # one call per run of nodes, then a slab small enough to split each run
    for slab, seed in ((enoc.verify._SLAB, 0), (2 ** 11, 5)):
        monkeypatch.setattr(enoc.verify, "_SLAB", slab)
        pairs, estimates = _modulus_by_node_and_control(p, seed, 3.0)
        excess, witnesses = enoc.verify._modulus_excess(p, seed, 3.0)
        assert [w["atoms"] for w in witnesses] == pairs
        assert [w["estimate"] for w in witnesses] == estimates
        np.testing.assert_array_equal(
            excess, [w["estimate"] - w["bound"] for w in witnesses])


def test_certificates_on_a_box_past_the_float_range_fail_without_a_warning(lin2):
    # the suite turns a RuntimeWarning into a failure: overflow must not warn
    phi = EnsembleState([[0.5], [0.5]], lin2.space)
    rep = oscillation_diagnostic(lin2, 0.0, phi, 2, [0.5], steps=10, x_radius=1e300)
    assert not rep.passed and rep.worst == np.inf and "atoms" in rep.witness
    # b |x|^2 overflows to inf: the lower bound is vacuous there, and holds
    rep = terminal_limit(lin2, phi, [0.2, 0.1], steps=4, x_radius=1e300)
    assert rep.passed and rep.details["cost_deficit"] == -np.inf


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
    lambda: _dpp_check(builtin("linear-ensemble"), 0.0, 0, 4, 0, 10 ** 6),
    lambda: _dpp_check(builtin("linear-ensemble"), 0.0, 3, 1, 0, 10 ** 6),
    _coarse_hjb,
], ids=["bounds-no-trial", "dpp-no-start", "dpp-no-split", "hjb-every-node-skipped"])
def test_sampled_checks_fail_on_zero_evidence(check):
    rep = check()
    assert not rep.passed
    assert rep.details["evaluated"] == 0
    assert rep.worst == 0.0 and rep.witness == {}
    assert rep.details["note"].startswith("insufficient evidence: ")


# -- planted wrong certificates ----------------------------------------------------

def _scaled_modulus(theta, factor):
    return lambda r: factor * theta(r)


# each declared certificate, made wrong, and the battery check that reads it
_PLANTED = {
    "growth_c": ("trajectory_bounds", lambda p: replace(
        p, dynamics=replace(p.dynamics, growth_c=0.1 * p.dynamics.growth_c))),
    "lipschitz_k": ("trajectory_bounds", lambda p: replace(
        p, dynamics=replace(p.dynamics, lipschitz_k=0.1 * p.dynamics.lipschitz_k))),
    "lower_bound_a": ("terminal_limit", lambda p: replace(
        p, cost=replace(p.cost, lower_bound_a=p.cost.lower_bound_a + 10.0))),
    "omega_modulus": ("oscillation", lambda p: replace(
        p, dynamics=replace(p.dynamics, omega_modulus=_scaled_modulus(
            p.dynamics.omega_modulus, 0.01)))),
    "lipschitz": ("terminal_limit", lambda p: replace(
        p, cost=replace(p.cost, lipschitz=_scaled_modulus(p.cost.lipschitz, 0.1)))),
}


def _battery_check(name, p, seed):
    """The verify battery's check ``name`` at the default configuration."""
    v = _VERIFY_DEFAULTS
    phi = EnsembleState(np.full((p.space.size, p.n), 0.25), p.space)
    if name == "trajectory_bounds":
        return trajectory_bound_suite(p, trials=v["trials"], steps=v["bounds_steps"],
                                      seed=seed)
    if name == "terminal_limit":
        return terminal_limit(
            p, phi, v["gaps"], steps=v["terminal_steps"], seed=seed,
            x_radius=v["hjb_extent"])
    return oscillation_diagnostic(p, 0.0, phi, v["osc_controls"], _default_radii(p),
                                  steps=v["osc_steps"], seed=seed,
                                  x_radius=v["hjb_extent"])


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name, certificate", [
    (name, certificate)
    for name in ("linear-ensemble", "bilinear", "decoupled-quadratic")
    for certificate in _PLANTED
    # decoupled-quadratic's field is u alone: its true Lipschitz constant and
    # parameter modulus are 0, so no declared value of them is too small
    if not (name == "decoupled-quadratic"
            and certificate in ("lipschitz_k", "omega_modulus"))])
def test_a_planted_wrong_certificate_fails_the_check_that_reads_it(name, certificate,
                                                                   seed):
    check, plant = _PLANTED[certificate]
    p = builtin(name)
    assert _battery_check(check, p, seed).passed
    rep = _battery_check(check, plant(p), seed)
    assert rep.name == check and not rep.passed
    if certificate == "lipschitz":
        assert rep.details["lipschitz_ratio"] > 1.0
