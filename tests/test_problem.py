import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enoc import (CapabilityError, CheckReport, ControlSchedule,
                  DimensionMismatchError, DynamicsSpec, EnocError,
                  EnsembleState, ParameterSpace, ProblemSpec, ScheduleError,
                  TerminalCostSpec, builtin, closed_form, load_problem, oscillation_diagnostic, problem_from_dict,
                  terminal_limit, trajectory_bound_suite)
from enoc.cli import _default_radii
from enoc.expr import Expression, ExpressionError
from enoc.library import _BUILTINS
from enoc.problem import _corners_present


def zero_field(t, X, u):
    return np.zeros_like(X)


def zero_cost(X):
    return np.zeros(np.shape(X)[:-1])


def toy_problem(f, growth_c, lipschitz_k, g=zero_cost, a=(0.0, 0.0), b=0.0,
                theta=None, T=1.0):
    """Two atoms, n = m = 1; f and g are ensemble evaluators on (..., 2, 1)."""
    space = ParameterSpace(weights=[0.5, 0.5], coords=[[0.0], [1.0]])
    dyn = DynamicsSpec(eval_ens=f, growth_c=growth_c, lipschitz_k=lipschitz_k,
                       omega_modulus=theta)
    cost = TerminalCostSpec(eval_ens=g, lower_bound_a=np.asarray(a, dtype=float),
                            lower_bound_b=b)
    controls = ControlSchedule.constant(np.array([[-1.0], [0.0], [1.0]]))
    return ProblemSpec(space=space, n=1, m=1, dynamics=dyn, cost=cost,
                       controls=controls, horizon=T)


EXPR_DOC = {
    "format": "enoc-problem/1",
    "space": {
        "format": "enoc-space/1",
        "atoms": [{"id": "a", "coords": [0.0]}, {"id": "b", "coords": [1.0]}],
        "weights": [0.5, 0.5],
    },
    "n": 1, "m": 1, "horizon": 1.0,
    "dynamics": {
        "expressions": ["w1 * x1 + u1"],
        "growth_c": 2.0, "lipschitz_k": 1.0,
        "omega_modulus": "60 * r",
    },
    "cost": {"expression": "(x1 - w1) ** 2", "lower_bound_a": 0.0,
             "lower_bound_b": 0.0, "lipschitz": "2 + 2 * r"},
    "controls": {"breakpoints": [0.0], "sets": [[[-1.0], [0.0], [1.0]]],
                 "box": [[-1.0, 1.0]]},
}


def _expr_doc_replacing(path, value):
    """A copy of EXPR_DOC whose key at ``path`` holds ``value``."""
    doc = json.loads(json.dumps(EXPR_DOC))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# -- the ensemble evaluator contract ------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: builtin("linear-ensemble", M=3, n=2, a=[0.5, -0.2, 1.0]),
    lambda: builtin("decoupled-quadratic", M=2, n=2, tau=[[0.3, 0.1], [-0.4, 0.2]]),
    lambda: builtin("bilinear", M=2, n=2, a=[0.5, 1.0]),
    lambda: problem_from_dict(EXPR_DOC),
    lambda: problem_from_dict(_expr_doc_replacing(
        ("dynamics", "expressions"), ["w1 * x1 * (1 + t * t) - t * u1"])),
], ids=["linear-ensemble", "decoupled-quadratic", "bilinear", "expression",
        "expression-t"])
def test_ensemble_evaluator_contract(make):
    p = make()
    M, n = p.space.size, p.n
    rng = np.random.default_rng(0)
    Xs = rng.uniform(-2.0, 2.0, (5, M, n))
    u = p.controls.active_set(0.3)[-1]
    # batched times and controls: row i equals the call on row i alone
    t_b = rng.uniform(0.0, p.horizon, 5)
    U_b = rng.uniform(-1.0, 1.0, (5, p.m))
    rows = p.dynamics.field(t_b, Xs, U_b)
    assert rows.shape == (5, M, n)
    for i in range(5):
        np.testing.assert_array_equal(rows[i], p.dynamics.field(t_b[i], Xs[i], U_b[i]))
    assert p.dynamics.field(0.3, Xs[0], u).shape == (M, n)
    assert p.cost.values(Xs[0]).shape == (M,)
    batched = p.dynamics.field(0.3, Xs, u)
    assert batched.shape == (5, M, n)
    np.testing.assert_array_equal(
        batched, np.stack([p.dynamics.field(0.3, X, u) for X in Xs]))
    costs = p.cost.values(Xs)
    assert costs.shape == (5, M)
    np.testing.assert_array_equal(costs, np.stack([p.cost.values(X) for X in Xs]))


def test_per_atom_eval_is_rejected():
    with pytest.raises(TypeError):
        DynamicsSpec(eval=lambda t, x, u, i: x, growth_c=1.0, lipschitz_k=1.0)
    with pytest.raises(TypeError):
        TerminalCostSpec(eval=lambda x, i: 0.0, lower_bound_a=np.zeros(1),
                         lower_bound_b=0.0)


# -- the certificates, each in the check that reads it ----------------------------
#
# growth_c and lipschitz_k: the trajectory bound suite's field_growth and
# field_lipschitz entries; the cost lower bound: terminal_limit; the
# parameter modulus: the oscillation diagnostic.

def bounds(p, trials=60, steps=40, seed=0, **kwargs):
    return trajectory_bound_suite(p, trials=trials, steps=steps, seed=seed, **kwargs)


def terminal(p, seed=0, x_radius=5.0):
    phi = EnsembleState(np.full((p.space.size, p.n), 0.25), p.space)
    p = replace(p, cost=replace(p.cost, lipschitz=lambda r: 1e6))
    return terminal_limit(p, phi, [0.2, 0.1, 0.05], steps=4, seed=seed,
                          x_radius=x_radius)


def oscillation(p, seed=0, x_radius=5.0):
    phi = EnsembleState(np.full((p.space.size, p.n), 0.25), p.space)
    return oscillation_diagnostic(p, 0.0, phi, 2, [0.5, 1.5], steps=10, seed=seed,
                                  x_radius=x_radius)


# -- growth -------------------------------------------------------------------

def test_growth_zero_field_passes():
    p = toy_problem(zero_field, growth_c=1.0, lipschitz_k=1.0)
    rep = bounds(p)
    assert rep.passed and rep.details["max_ratio"]["field_growth"] == 0.0


def test_growth_identity_passes_inside_box():
    p = toy_problem(lambda t, X, u: X, growth_c=1.0, lipschitz_k=1.0)
    rep = bounds(p)
    assert rep.passed
    assert 0.0 < rep.details["max_ratio"]["field_growth"] < 1.0


def test_growth_quadratic_violates():
    # a short horizon keeps x' = x^2 from blowing up from |phi| up to about 12
    p = toy_problem(lambda t, X, u: X * X, growth_c=1.0, lipschitz_k=1.0, T=0.05)
    rep = bounds(p, phi_scale=3.0)
    assert not rep.passed
    worst = max((v for v in rep.details["violations"] if v["bound"] == "field_growth"),
                key=lambda v: v["ratio"])
    assert worst["ratio"] == rep.details["max_ratio"]["field_growth"]
    # x^2 = 1 + |x| crosses at the golden ratio; the rhs is 1 + |x|
    assert worst["lhs"] > worst["rhs"] > 1.0 + 1.618


def test_growth_requires_budget():
    p = toy_problem(zero_field, growth_c=1.0, lipschitz_k=1.0)
    rep = bounds(p, trials=0)
    assert not rep.passed and rep.details["evaluated"] == 0


# -- lipschitz ----------------------------------------------------------------

def test_lipschitz_constant_field_passes():
    p = toy_problem(lambda t, X, u: np.full_like(X, 3.0), growth_c=5.0,
                    lipschitz_k=0.5)
    rep = bounds(p)
    assert rep.passed and rep.details["max_ratio"]["field_lipschitz"] == 0.0


def test_lipschitz_steep_slope_violates_with_ratio_two():
    p = toy_problem(lambda t, X, u: 2.0 * X, growth_c=3.0, lipschitz_k=1.0)
    rep = bounds(p)
    assert not rep.passed
    assert rep.details["max_ratio"]["field_lipschitz"] == pytest.approx(2.0, rel=1e-9)


def test_lipschitz_sine_passes():
    p = toy_problem(lambda t, X, u: np.sin(X), growth_c=1.0, lipschitz_k=1.0)
    rep = bounds(p)
    assert rep.passed and rep.details["max_ratio"]["field_lipschitz"] <= 1.0


def test_lipschitz_skips_pairs_closer_than_1e_9():
    # the true constant is 100, so a scored pair reads 100; on a short horizon
    # from data of size 1e-12 every pair stays closer than 1e-9 and none is scored
    p = toy_problem(lambda t, X, u: 100.0 * X, growth_c=200.0, lipschitz_k=1.0,
                    T=0.01)
    assert bounds(p).details["max_ratio"]["field_lipschitz"] > 99.0
    rep = bounds(p, phi_scale=1e-12)
    assert rep.details["max_ratio"]["field_lipschitz"] == 0.0
    assert all(v["bound"] != "field_lipschitz" for v in rep.details["violations"])


# -- cost lower bound ----------------------------------------------------------

def test_cost_bound_zero_cost():
    p = toy_problem(zero_field, growth_c=1.0, lipschitz_k=1.0)
    rep = terminal(p)
    assert rep.passed and rep.details["cost_deficit"] == 0.0


def test_cost_bound_boundary_equality():
    p = toy_problem(zero_field, growth_c=1.0, lipschitz_k=1.0,
                    g=lambda X: -(X * X).sum(axis=-1), b=1.0)
    rep = terminal(p)
    assert rep.passed
    assert rep.details["cost_deficit"] == pytest.approx(0.0, abs=1e-12)


def test_cost_bound_quartic_violates():
    p = toy_problem(zero_field, growth_c=1.0, lipschitz_k=1.0,
                    g=lambda X: -(X * X).sum(axis=-1) ** 2, b=1.0)
    rep = terminal(p, x_radius=2.0)
    # the slope and the decay pass: only the cost bound fails
    assert rep.worst <= rep.tolerance and rep.details["monotone_decay"]
    assert not rep.passed
    x = rep.details["cost_witness"]["x"][0]
    assert 1.0 < abs(x) <= 2.0
    # the deficit a - b|x|^2 - g = x^4 - x^2 > 0
    assert rep.details["cost_deficit"] == pytest.approx(x ** 4 - x ** 2)


# -- parameter modulus ----------------------------------------------------------

def test_modulus_omega_independent_field():
    p = toy_problem(lambda t, X, u: np.broadcast_to(np.asarray(u)[..., None, :], np.shape(X)), growth_c=1.0,
                    lipschitz_k=1.0, theta=lambda r: 0.0)
    rep = oscillation(p)
    assert rep.passed and rep.details["modulus"][0]["estimate"] == 0.0


def test_modulus_linear_gain_analytic_bound():
    # gains 1-Lipschitz in the embedded coordinate; radius matches the box
    R = 5.0
    gains = np.array([[0.0], [1.0]])
    p = toy_problem(lambda t, X, u: gains * X, growth_c=1.0, lipschitz_k=1.0,
                    theta=lambda r: 1.0 * R * r)
    assert oscillation(p, x_radius=R).passed
    # on a larger box the same theta is too small
    assert not oscillation(p, x_radius=2 * R).passed


def test_modulus_estimate_matches_per_pair_reference():
    # theta = 0 fails the check; the atoms' velocities differ by exactly x, so
    # the estimate is T * max |x| over the 32 states drawn from default_rng(seed)
    gains = np.array([[0.0], [1.0]])
    p = toy_problem(lambda t, X, u: gains * X + np.asarray(u)[..., None, :],
                    growth_c=3.0, lipschitz_k=1.0,
                    theta=lambda r: 0.0)
    rep = oscillation(p, seed=4, x_radius=2.0)
    xs = 2.0 * np.random.default_rng(4).uniform(-1.0, 1.0, size=(32, 1))
    assert not rep.passed
    (pair,) = rep.details["modulus"]
    assert pair["atoms"] == [0, 1] and pair["bound"] == 0.0
    assert pair["estimate"] == pytest.approx(np.abs(xs).max(), rel=1e-12)


def test_modulus_single_atom_vacuous():
    space = ParameterSpace(weights=[1.0], coords=[[0.0]])
    dyn = DynamicsSpec(eval_ens=lambda t, X, u: X,
                       growth_c=1.0, lipschitz_k=1.0, omega_modulus=lambda r: 0.0)
    cost = TerminalCostSpec(eval_ens=zero_cost, lower_bound_a=np.zeros(1),
                            lower_bound_b=0.0)
    p = ProblemSpec(space=space, n=1, m=1, dynamics=dyn, cost=cost,
                    controls=ControlSchedule.constant(np.array([[0.0]])),
                    horizon=1.0)
    rep = oscillation(p)
    assert rep.passed and rep.details["modulus"] == []


@pytest.mark.parametrize("name", ["linear-ensemble", "bilinear"])
@pytest.mark.parametrize("params, gain", [
    ({"T": 800}, np.inf), ({"a": [800, 0]}, np.inf), ({"box_radius": 1e308}, np.inf),
    ({"a": [800, 800]}, 0.0),       # a gain equal on every atom moves nothing
], ids=["T", "a", "box_radius", "equal-gains"])
def test_builtin_modulus_gain_overflow_is_vacuous_not_a_warning(name, params, gain):
    # e^(k T) or the gain's product overflows; the suite turns a warning into a failure
    assert builtin(name, **params).dynamics.omega_modulus(0.5) == gain


def test_modulus_missing_is_capability_error():
    p = toy_problem(zero_field, growth_c=1.0, lipschitz_k=1.0)
    with pytest.raises(CapabilityError):
        oscillation(p)


# -- one report for every certificate --------------------------------------------

_GAINS = np.array([[0.0], [1.0]])


@pytest.mark.parametrize("check, holds, good, bad", [
    (bounds, lambda rep: rep.details["max_ratio"]["field_growth"] <= rep.tolerance,
     lambda: toy_problem(lambda t, X, u: 0.5 * X, growth_c=1.0, lipschitz_k=1.0),
     lambda: toy_problem(lambda t, X, u: X * X, growth_c=1.0, lipschitz_k=1.0,
                         T=0.05)),
    (bounds, lambda rep: rep.details["max_ratio"]["field_lipschitz"] <= rep.tolerance,
     lambda: toy_problem(lambda t, X, u: np.sin(X), growth_c=1.0, lipschitz_k=1.0),
     lambda: toy_problem(lambda t, X, u: 2.0 * X, growth_c=3.0, lipschitz_k=1.0)),
    (terminal, lambda rep: rep.details["cost_deficit"] <= 1e-12,
     lambda: toy_problem(zero_field, growth_c=1.0, lipschitz_k=1.0,
                         g=lambda X: (X * X).sum(axis=-1)),
     lambda: toy_problem(zero_field, growth_c=1.0, lipschitz_k=1.0,
                         g=lambda X: -(X * X).sum(axis=-1) ** 2, b=1.0)),
    (oscillation, lambda rep: all(pair["estimate"] - pair["bound"] <= rep.tolerance
                                  for pair in rep.details["modulus"]),
     lambda: toy_problem(lambda t, X, u: np.broadcast_to(np.asarray(u)[..., None, :],
                                                         np.shape(X)),
                         growth_c=1.0, lipschitz_k=1.0, theta=lambda r: 0.0),
     lambda: toy_problem(lambda t, X, u: _GAINS * X, growth_c=1.0,
                         lipschitz_k=1.0, theta=lambda r: 0.0)),
], ids=["growth", "lipschitz", "cost_bound", "modulus"])
def test_validators_report_under_one_rule(check, holds, good, bad):
    # each certificate is scored inside the report of the check that reads it:
    # a wrong one fails that check, and its witness is that check's worst
    for make, expected in ((good, True), (bad, False)):
        rep = check(make(), seed=3)
        assert isinstance(rep, CheckReport)
        assert rep.passed is expected and holds(rep) is expected
        assert rep.witness
        if check is not terminal:       # terminal_limit keeps its own verdict
            assert rep.passed == (rep.details["evaluated"] > 0
                                  and rep.worst <= rep.tolerance)


# -- control schedule -----------------------------------------------------------

def test_schedule_rejects_empty_set():
    with pytest.raises(ValueError):
        ControlSchedule([0.0], [np.zeros((0, 1))])


def test_schedule_rejects_nonfinite_points():
    with pytest.raises(ValueError, match="finite"):
        ControlSchedule([0.0], [np.array([[np.nan], [1.0]])], box=[[-1.0, 1.0]])


def test_schedule_rejects_point_outside_box():
    with pytest.raises(ValueError, match="outside"):
        ControlSchedule([0.0], [np.array([[2.0]])], box=np.array([[-1.0, 1.0]]))


def test_schedule_rejects_unsorted_breakpoints():
    with pytest.raises(ValueError):
        ControlSchedule([0.0, 0.0], [np.array([[0.0]]), np.array([[1.0]])])


def test_schedule_piecewise_lookup():
    sched = ControlSchedule([0.0, 0.5], [np.array([[-1.0]]), np.array([[1.0]])])
    assert sched.active_set(0.25)[0, 0] == -1.0
    assert sched.active_set(0.75)[0, 0] == 1.0
    with pytest.raises(ScheduleError):
        sched.active_index(-0.1)


def test_project_is_the_exact_clip_on_the_builtin_box():
    sched = builtin("linear-ensemble", M=2, n=2).controls
    U = np.random.default_rng(4).uniform(-3.0, 3.0, (2000, 2))
    times = np.linspace(0.0, 1.0, 2000)
    np.testing.assert_array_equal(sched.project(times, U), np.clip(U, -1.0, 1.0))


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_builtin_control_sets_are_box_hulls(levels, m):
    sched = builtin("linear-ensemble", M=1, n=m, levels=levels).controls
    assert sched.is_box.tolist() == [True]
    hi = 1.0 if levels > 1 else -1.0          # levels=1 is the one point -rho
    np.testing.assert_array_equal(sched.hull_lo, [[-1.0] * m])
    np.testing.assert_array_equal(sched.hull_hi, [[hi] * m])


def _corners_present_by_unique(pts, lo, hi):
    """The np.unique form of the corner test, the reference for the set form."""
    d = int(np.count_nonzero(lo < hi))
    if pts.shape[0] < 2 ** d:
        return False
    corners = pts[np.all((pts == lo) | (pts == hi), axis=1)]
    return np.unique(corners, axis=0).shape[0] == 2 ** d


@pytest.mark.parametrize("name", sorted(_BUILTINS))
@pytest.mark.parametrize("params", [{}, {"n": 2}, {"n": 3, "levels": 2}, {"levels": 1},
                                    {"n": 2, "levels": 4, "rho": 0.5}])
def test_corner_test_is_the_unique_row_count_on_every_builtin(name, params):
    sched = builtin(name, **params).controls
    for arr, lo, hi, box in zip(sched.sets, sched.hull_lo, sched.hull_hi, sched.is_box):
        assert box == _corners_present_by_unique(arr, lo, hi)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.lists(
    st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]), min_size=m, max_size=m),
    min_size=1, max_size=12)))
def test_corner_test_is_the_unique_row_count(rows):
    # repeated rows and signed zeros on the hull's faces, as a set file may give
    pts = np.array(rows)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    assert _corners_present(pts, lo, hi) == _corners_present_by_unique(pts, lo, hi)


def test_box_detection_needs_every_corner():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.2]])
    segment = np.array([[0.0, 2.0], [1.0, 2.0]])          # one degenerate axis
    sched = ControlSchedule([0.0, 0.5, 0.7], [tri, square, segment])
    assert sched.is_box.tolist() == [False, True, True]
    with pytest.raises(CapabilityError):
        sched.project([0.1], np.array([[0.9, 0.9]]))
    np.testing.assert_array_equal(
        sched.project([0.6, 0.8], np.array([[2.0, -1.0], [0.5, 5.0]])),
        [[1.0, 0.0], [0.5, 2.0]])


def test_project_rejects_early_times_and_misshapen_controls():
    sched = ControlSchedule([0.5], [np.array([[-1.0], [1.0]])])
    with pytest.raises(ScheduleError):
        sched.project([0.0, 0.6], np.zeros((2, 1)))
    with pytest.raises(DimensionMismatchError):
        sched.project([0.6], np.zeros((3, 1)))


# -- builtin library -------------------------------------------------------------

@pytest.mark.parametrize("name,kwargs", [
    ("linear-ensemble", {"M": 3, "a": [0.5, -0.2, 1.0], "c": [1.0, 2.0, 0.5]}),
    ("decoupled-quadratic", {"M": 2, "tau": [0.3, -0.4]}),
    ("bilinear", {"M": 2, "a": [0.5, 1.0]}),
])
def test_builtins_pass_all_validators(name, kwargs):
    # every declared certificate passes the check that reads it
    p = builtin(name, **kwargs)
    M = p.space.size
    phi = EnsembleState(np.full((M, p.n), 0.25), p.space)
    assert bounds(p, trials=100, seed=1).passed
    assert terminal_limit(p, phi, [0.2, 0.1, 0.05], steps=4, seed=3).passed
    rep = oscillation_diagnostic(p, 0.0, phi, 3, _default_radii(p), steps=20, seed=4)
    assert rep.passed and len(rep.details["modulus"]) == M * (M - 1) // 2


def test_every_builtin_declares_the_certificates_verify_reads():
    # verify exits 2 on a problem without cost.lipschitz or
    # dynamics.omega_modulus; no builtin may lack them
    for name, factory in _BUILTINS.items():
        p = factory()
        assert p.cost.lipschitz is not None, name
        assert p.dynamics.omega_modulus is not None, name


def _reference_cost_lipschitz(p, radius):
    """The cost Lipschitz bounds of the builtins, recomputed from their
    parameters by the arithmetic each builtin's certificate must keep."""
    name, par, w = p.meta["builtin"], p.meta["parameters"], p.space.weights
    if name == "linear-ensemble":
        c = np.asarray(par["c"], dtype=float)
        return float(np.sqrt((w[:, None] * c * c).sum()))
    if name == "decoupled-quadratic":
        tmax = float(np.abs(np.asarray(par["tau"], dtype=float)).max())
        return 2.0 * (radius + tmax) * float(np.sqrt(p.space.mass))
    return 2.0 * radius * float(np.sqrt(p.space.mass))


@pytest.mark.parametrize("name", ["linear-ensemble", "decoupled-quadratic", "bilinear"])
def test_builtin_cost_lipschitz_is_the_reference_bitwise(name):
    rng = np.random.default_rng(12)
    for _ in range(40):
        M = int(rng.integers(1, 6))
        params = {"M": M, "weights": rng.uniform(0.05, 3.0, M).tolist()}
        if name == "linear-ensemble":
            params["c"] = rng.uniform(-4.0, 4.0, M).tolist()
        elif name == "decoupled-quadratic":
            params["tau"] = rng.uniform(-4.0, 4.0, M).tolist()
        p = builtin(name, **params)
        for r in (*rng.uniform(0.0, 20.0, 3), 5.0):
            got, want = p.cost.lipschitz(float(r)), _reference_cost_lipschitz(p, float(r))
            assert got.hex() == want.hex(), (params, r)


def test_decoupled_quadratic_certificate_covers_the_extremal_pair():
    # |grad G| = 2|x - tau| peaks at x = -5 tau / |tau| on the radius-5 ball:
    # 2 (5 + |tau|) = 18.49 for tau = (3, 3), above 2 (5 + max|tau_k|) = 16
    p = builtin("decoupled-quadratic", M=1, n=2, tau=[3.0, 3.0])
    tau = np.array([3.0, 3.0])
    phi = -5.0 * tau / np.linalg.norm(tau)
    psi = (1.0 - 1e-6) * phi
    G = p.cost.values(np.stack([phi, psi])[:, None, :]) @ p.space.weights
    slope = abs(G[0] - G[1]) / np.linalg.norm(phi - psi)
    assert 16.0 < slope <= p.cost.lipschitz(5.0)
    assert p.cost.lipschitz(5.0) == pytest.approx(2.0 * (5.0 + np.sqrt(18.0)), rel=1e-15)


def test_builtin_unknown_name():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin("no-such-problem")


def test_decoupled_quadratic_single_atom_is_classical():
    p = builtin("decoupled-quadratic", M=1, tau=[0.5])
    assert p.space.size == 1 and p.n == 1
    assert p.cost.values(np.array([[0.5]]))[0] == pytest.approx(0.0)


def test_linear_ensemble_zero_gain_constant_optimal_control():
    p = builtin("linear-ensemble", M=2, a=[0.0, 0.0], c=[2.0, 1.0])
    cf = closed_form(p)
    # psi is constant and positive, so the pointwise minimizer -rho * sign(psi)
    # is -1 throughout
    for sig in (0.0, 0.3, 0.9):
        np.testing.assert_allclose(cf.psi(sig), [1.5])
    wsum = float(p.space.weights @ np.asarray([2.0, 1.0]))
    assert np.sign(wsum) == 1.0


def test_linear_ensemble_zero_cost_everything_optimal():
    p = builtin("linear-ensemble", M=2, a=[0.5, -0.5], c=[0.0, 0.0])
    cf = closed_form(p)
    phi = EnsembleState([[0.7], [-0.2]], p.space)
    assert cf.optimal_value(0.0, phi) == pytest.approx(0.0, abs=1e-12)


def test_closed_form_rejects_other_builtins():
    with pytest.raises(ValueError):
        closed_form(builtin("decoupled-quadratic"))


# -- expression problems -----------------------------------------------------------

def test_expression_grammar_rejects_imports_and_names():
    with pytest.raises(ExpressionError):
        Expression("__import__('os')", ["t"])
    with pytest.raises(ExpressionError):
        Expression("y + 1", ["t"])
    with pytest.raises(ExpressionError):
        Expression("t.real", ["t"])



@pytest.mark.parametrize("source", ["1if x1 else 2", "3in x1"])
def test_expression_rejects_warned_sources_silently(source, capsys):
    import warnings

    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ExpressionError):
            Expression(source, ["x1"])
    assert seen == []
    assert capsys.readouterr().err == ""

def test_expression_evaluates_elementwise():
    e = Expression("max(x1, 0) + exp(-t) * min(u1, 1, 2)", ["t", "x1", "u1"])
    out = e(t=0.0, x1=np.array([-1.0, 2.0]), u1=0.5)
    np.testing.assert_allclose(out, [0.5, 2.5])


def test_compiled_expression_is_the_written_out_numpy_bitwise():
    # every grammar node: literals, names, + - * / **, unary - and +, the
    # one-argument functions and min/max folding three or more arguments
    rng = np.random.default_rng(4)
    t, x1, x2, u1 = rng.uniform(-2.0, 2.0, (4, 5, 3))
    env = {"t": t, "x1": x1, "x2": x2, "u1": u1}
    cases = [
        ("min(x1, x2, u1, 0.25) - max(-x1, t ** 2, 3)",
         lambda: np.subtract(np.minimum(np.minimum(np.minimum(x1, x2), u1), 0.25),
                             np.maximum(np.maximum(-x1, np.power(t, 2.0)), 3.0))),
        ("exp(-t) * sin(x1) / (2 + cos(x2)) + abs(u1) ** 0.5",
         lambda: np.add(np.divide(np.multiply(np.exp(-t), np.sin(x1)),
                                  np.add(2.0, np.cos(x2))),
                        np.power(np.abs(u1), 0.5))),
        ("+x1 - -x2 * 1.5e-3 + 7",
         lambda: np.add(np.subtract(+x1, np.multiply(-x2, 1.5e-3)), 7.0)),
        ("w * x1 * cos(3 * t) + u1",
         lambda: np.add(np.multiply(np.multiply(0.5, x1), np.cos(np.multiply(3.0, t))),
                        u1)),
    ]
    for source, written in cases:
        got = Expression(source, ["t", "x1", "x2", "u1", "w"])(w=0.5, **env)
        want = written()
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), source


def test_expression_literals_are_floats():
    assert Expression("2**-1", [])() == 0.5
    assert Expression("3**40", [])() == 3.0 ** 40


@pytest.mark.parametrize("source", [3, None, ["x1"], "1" * 400, "-" * 5000 + "x1",
                                    "-" * 250 + "x1"],
                         ids=["int", "none", "list", "huge-literal", "deep-parse",
                              "deep-check"])
def test_expression_rejects_malformed_source(source):
    with pytest.raises(ExpressionError):
        Expression(source, ["x1"])


def test_expression_nesting_limit_allows_moderate_depth():
    assert Expression("-" * 150 + "x1", ["x1"])(x1=2.0) == 2.0
    assert Expression(" + ".join(["x1"] * 150), ["x1"])(x1=1.0) == 150.0


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40) | st.text(alphabet="x1t0.5e+-*/(), minaxsocp", max_size=40))
def test_arbitrary_text_parses_or_raises_expression_error(source):
    try:
        Expression(source, ["t", "x1"])
    except ExpressionError:
        pass


# integers stay modest so that no example asks for 10**12 variable names even
# on a loader that builds them first; test_cli's malformed-file test pins the
# huge ones
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 4, 10 ** 4) | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)


def _key_paths(doc, prefix=()):
    for key, val in doc.items():
        yield prefix + (key,)
        if isinstance(val, dict):
            yield from _key_paths(val, prefix + (key,))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(_key_paths(EXPR_DOC))), _JSON)
def test_document_with_one_key_replaced_loads_or_raises_typed_error(path, value):
    try:
        problem_from_dict(_expr_doc_replacing(path, value))
    except (ValueError, EnocError):
        pass


def test_problem_file_with_expressions(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(EXPR_DOC))
    p = load_problem(path)
    assert p.space.size == 2
    # dynamics: atom 0 has gain 0, atom 1 has gain 1
    v = p.dynamics.field(0.0, np.full((2, 1), 2.0), np.array([0.5]))
    np.testing.assert_allclose(v, [[0.5], [2.5]])
    assert p.cost.values(np.ones((2, 1)))[1] == pytest.approx(0.0)
    # its declared growth, Lipschitz, modulus and cost certificates hold
    assert bounds(p, phi_scale=0.25).passed
    assert oscillation(p, x_radius=5.0).passed
    assert terminal(p).details["cost_deficit"] <= 1e-12


def _stacked_expression_field(exprs, coords, n, m):
    """The expression field with its environment built per call and its
    components stacked and copied by astype: the evaluator the problem
    loader's field must reproduce bit for bit."""
    def env_for(X):
        X = np.asarray(X, dtype=float)
        env = {f"x{k+1}": X[..., k] for k in range(n)}
        env.update({f"w{k+1}": coords[:, k] for k in range(coords.shape[1])})
        return env

    def f_ens(t, X, u):
        env = env_for(X)
        env["t"] = t if np.ndim(t) == 0 else np.asarray(t)[..., None]
        uu = np.asarray(u, dtype=float)
        env.update({f"u{k+1}": uu[..., k, None] for k in range(m)})
        comps = [np.broadcast_to(e(**env), np.shape(X)[:-1]) for e in exprs]
        return np.stack(comps, axis=-1).astype(float)
    return f_ens


def test_expression_field_is_the_stacked_evaluator_bitwise():
    # three components: t, both states, both controls and the coordinate,
    # one without a control, and a constant that must broadcast
    sources = ["w1 * x2 * cos(3 * t) + u1", "-x1 + u2 * sin(t) - x3 ** 2", "2.5"]
    doc = dict(EXPR_DOC, n=3, m=2, dynamics=dict(EXPR_DOC["dynamics"], expressions=sources),
               cost={"expression": "x1 ** 2"},
               controls={"breakpoints": [0.0], "sets": [[[-1.0, 0.5], [1.0, -0.5]]]})
    p = problem_from_dict(doc)
    names = ["t", "x1", "x2", "x3", "u1", "u2", "w1"]
    ref = _stacked_expression_field([Expression(s, names) for s in sources],
                                    p.space.coords, 3, 2)
    rng = np.random.default_rng(8)
    X = rng.uniform(-2.0, 2.0, (4, 7, 2, 3))
    U = rng.uniform(-1.0, 1.0, (4, 7, 2))
    T = rng.uniform(0.0, 1.0, (4, 7))
    cases = [(0.3, X[0, 0], U[0, 0]),       # one ensemble
             (0.3, X[0], U[0, 0]),          # a batch, one control
             (0.3, X, U),                   # a batch of controls, as value_dp calls
             (T[0], X[0], U[0]),            # per-row times, as the integrator calls
             (T, X, U)]
    for t, states, u in cases:
        got, want = p.dynamics.field(t, states, u), ref(t, states, u)
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_problem_file_naming_builtin(tmp_path):
    doc = {"format": "enoc-problem/1", "builtin": "linear-ensemble",
           "parameters": {"M": 2, "a": [0.0, 0.0], "c": [1.0, 1.0]}}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    p = load_problem(path)
    assert p.meta["builtin"] == "linear-ensemble"


def test_problem_file_bad_format(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"format": "enoc-problem/99", "builtin": "x"}))
    with pytest.raises(ValueError, match="format"):
        load_problem(path)
