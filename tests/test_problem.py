import json

import numpy as np
import pytest

from enoc import (CapabilityError, ControlSchedule, DynamicsSpec, EnsembleState,
                  ParameterSpace, ProblemSpec, ScheduleError, TerminalCostSpec,
                  builtin, closed_form, load_problem, modulus_check,
                  problem_from_dict, validate_cost_bound, validate_growth,
                  validate_lipschitz)
from enoc.expr import Expression, ExpressionError


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
             "lower_bound_b": 0.0},
    "controls": {"breakpoints": [0.0], "sets": [[[-1.0], [0.0], [1.0]]],
                 "box": [[-1.0, 1.0]]},
}


def _expr_doc_with(expressions):
    doc = json.loads(json.dumps(EXPR_DOC))
    doc["dynamics"]["expressions"] = expressions
    return doc


# -- the ensemble evaluator contract ------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: builtin("linear-ensemble", M=3, n=2, a=[0.5, -0.2, 1.0]),
    lambda: builtin("decoupled-quadratic", M=2, n=2, tau=[[0.3, 0.1], [-0.4, 0.2]]),
    lambda: builtin("bilinear", M=2, n=2, a=[0.5, 1.0]),
    lambda: problem_from_dict(EXPR_DOC),
    lambda: problem_from_dict(_expr_doc_with(["w1 * x1 * (1 + t * t) - t * u1"])),
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


# -- growth -------------------------------------------------------------------

def test_growth_zero_field_passes():
    p = toy_problem(zero_field, growth_c=1.0, lipschitz_k=1.0)
    rep = validate_growth(p, samples=100)
    assert rep.passed and rep.worst == 0.0


def test_growth_identity_passes_inside_box():
    p = toy_problem(lambda t, X, u: X, growth_c=1.0, lipschitz_k=1.0)
    rep = validate_growth(p, samples=300)
    assert rep.passed
    assert rep.worst < 1.0


def test_growth_quadratic_violates():
    p = toy_problem(lambda t, X, u: X * X, growth_c=1.0, lipschitz_k=1.0)
    rep = validate_growth(p, samples=300)
    assert not rep.passed
    # x^2 = 1 + x crosses at the golden ratio
    assert abs(rep.witness["x"][0]) > 1.618


def test_growth_requires_budget():
    p = toy_problem(zero_field, growth_c=1.0, lipschitz_k=1.0)
    with pytest.raises(ValueError):
        validate_growth(p, samples=0)


# -- lipschitz ----------------------------------------------------------------

def test_lipschitz_constant_field_passes():
    p = toy_problem(lambda t, X, u: np.full_like(X, 3.0), growth_c=5.0,
                    lipschitz_k=0.5)
    assert validate_lipschitz(p, samples=200).passed


def test_lipschitz_steep_slope_violates_with_ratio_two():
    p = toy_problem(lambda t, X, u: 2.0 * X, growth_c=3.0, lipschitz_k=1.0)
    rep = validate_lipschitz(p, samples=200)
    assert not rep.passed
    assert rep.worst == pytest.approx(2.0, rel=1e-9)


def test_lipschitz_sine_passes():
    p = toy_problem(lambda t, X, u: np.sin(X), growth_c=1.0, lipschitz_k=1.0)
    assert validate_lipschitz(p, samples=500).passed


# -- cost lower bound ----------------------------------------------------------

def test_cost_bound_zero_cost():
    p = toy_problem(zero_field, growth_c=1.0, lipschitz_k=1.0)
    rep = validate_cost_bound(p, samples=100)
    assert rep.passed and rep.worst == pytest.approx(0.0)


def test_cost_bound_boundary_equality():
    p = toy_problem(zero_field, growth_c=1.0, lipschitz_k=1.0,
                    g=lambda X: -(X * X).sum(axis=-1), b=1.0)
    rep = validate_cost_bound(p, samples=200)
    assert rep.passed
    assert rep.worst == pytest.approx(0.0, abs=1e-12)


def test_cost_bound_quartic_violates():
    p = toy_problem(zero_field, growth_c=1.0, lipschitz_k=1.0,
                    g=lambda X: -(X * X).sum(axis=-1) ** 2, b=1.0)
    rep = validate_cost_bound(p, samples=300, x_radius=2.0)
    assert not rep.passed
    assert abs(rep.witness["x"][0]) > 1.0


# -- parameter modulus ----------------------------------------------------------

def test_modulus_omega_independent_field():
    p = toy_problem(lambda t, X, u: np.broadcast_to(u, np.shape(X)), growth_c=1.0,
                    lipschitz_k=1.0, theta=lambda r: 0.0)
    assert modulus_check(p, pairs=1).passed


def test_modulus_linear_gain_analytic_bound():
    # gains 1-Lipschitz in the embedded coordinate; radius matches the box
    R = 5.0
    gains = np.array([[0.0], [1.0]])
    p = toy_problem(lambda t, X, u: gains * X, growth_c=1.0, lipschitz_k=1.0,
                    theta=lambda r: 1.0 * R * r)
    assert modulus_check(p, pairs=1, x_radius=R).passed


def test_modulus_estimate_matches_per_pair_reference():
    # theta = 0 fails the check, so the witness carries the estimate; the atoms'
    # velocities differ by exactly x, so the estimate is T * max |x| over samples
    gains = np.array([[0.0], [1.0]])
    p = toy_problem(lambda t, X, u: gains * X + u, growth_c=3.0, lipschitz_k=1.0,
                    theta=lambda r: 0.0)
    rep = modulus_check(p, pairs=1, seed=4, x_radius=2.0, state_samples=8)
    xs = np.random.default_rng(4).uniform(-2.0, 2.0, size=(8, 1))
    assert not rep.passed
    assert rep.witness["estimate"] == pytest.approx(np.abs(xs).max(), rel=1e-12)


def test_modulus_single_atom_vacuous():
    space = ParameterSpace(weights=[1.0], coords=[[0.0]])
    dyn = DynamicsSpec(eval_ens=lambda t, X, u: X,
                       growth_c=1.0, lipschitz_k=1.0, omega_modulus=lambda r: 0.0)
    cost = TerminalCostSpec(eval_ens=zero_cost, lower_bound_a=np.zeros(1),
                            lower_bound_b=0.0)
    p = ProblemSpec(space=space, n=1, m=1, dynamics=dyn, cost=cost,
                    controls=ControlSchedule.constant(np.array([[0.0]])),
                    horizon=1.0)
    assert modulus_check(p, pairs=3).passed


def test_modulus_missing_is_capability_error():
    p = toy_problem(zero_field, growth_c=1.0, lipschitz_k=1.0)
    with pytest.raises(CapabilityError):
        modulus_check(p, pairs=1)


# -- control schedule -----------------------------------------------------------

def test_schedule_rejects_empty_set():
    with pytest.raises(ValueError):
        ControlSchedule([0.0], [np.zeros((0, 1))])


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


def test_hull_contains_is_exact_for_a_triangle():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    sched = ControlSchedule.constant(tri)
    # inside the bounding box [0, 1]^2, outside the triangle
    assert not sched.hull_contains(0.0, [0.9, 0.9])
    assert not sched.hull_contains(0.0, [0.5, 0.5 + 1e-6])
    for vertex in tri:
        assert sched.hull_contains(0.0, vertex)
    assert sched.hull_contains(0.0, tri.mean(axis=0))
    # tol still applies, per coordinate
    assert sched.hull_contains(0.0, [-5e-10, 0.5])
    assert not sched.hull_contains(0.0, [-5e-10, 0.5], tol=0.0)


# -- builtin library -------------------------------------------------------------

@pytest.mark.parametrize("name,kwargs", [
    ("linear-ensemble", {"M": 3, "a": [0.5, -0.2, 1.0], "c": [1.0, 2.0, 0.5]}),
    ("decoupled-quadratic", {"M": 2, "tau": [0.3, -0.4]}),
    ("bilinear", {"M": 2, "a": [0.5, 1.0]}),
])
def test_builtins_pass_all_validators(name, kwargs):
    p = builtin(name, **kwargs)
    assert validate_growth(p, samples=400, seed=1).passed
    assert validate_lipschitz(p, samples=400, seed=2).passed
    assert validate_cost_bound(p, samples=400, seed=3).passed
    assert modulus_check(p, pairs=5, seed=4).passed


def test_builtin_unknown_name():
    with pytest.raises(KeyError, match="unknown builtin"):
        builtin("no-such-problem")


def test_decoupled_quadratic_single_atom_is_classical():
    p = builtin("decoupled-quadratic", M=1, tau=[0.5])
    assert p.space.size == 1 and p.n == 1
    assert p.cost.values(np.array([[0.5]]))[0] == pytest.approx(0.0)


def test_linear_ensemble_zero_gain_constant_optimal_control():
    p = builtin("linear-ensemble", M=2, a=[0.0, 0.0], c=[2.0, 1.0])
    cf = closed_form(p)
    # psi is constant, so the pointwise minimizer never switches
    for sig in (0.0, 0.3, 0.9):
        np.testing.assert_allclose(cf.optimal_control(sig), [-1.0])
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


def test_expression_evaluates_elementwise():
    e = Expression("max(x1, 0) + exp(-t) * min(u1, 1, 2)", ["t", "x1", "u1"])
    out = e(t=0.0, x1=np.array([-1.0, 2.0]), u1=0.5)
    np.testing.assert_allclose(out, [0.5, 2.5])


def test_expression_literals_are_floats():
    assert Expression("2**-1", [])() == 0.5
    assert Expression("3**40", [])() == 3.0 ** 40


def test_problem_file_with_expressions(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(EXPR_DOC))
    p = load_problem(path)
    assert p.space.size == 2
    # dynamics: atom 0 has gain 0, atom 1 has gain 1
    v = p.dynamics.field(0.0, np.full((2, 1), 2.0), np.array([0.5]))
    np.testing.assert_allclose(v, [[0.5], [2.5]])
    assert p.cost.values(np.ones((2, 1)))[1] == pytest.approx(0.0)
    assert validate_growth(p, samples=200, x_radius=1.0).passed
    assert modulus_check(p, pairs=1, x_radius=5.0).passed


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
