import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enoc import (CapabilityError, CheckReport, ControlSchedule,
                  DimensionMismatchError, DynamicsSpec, EnocError,
                  EnsembleState, ParameterSpace, ProblemSpec, ScheduleError,
                  TerminalCostSpec, builtin, closed_form, load_problem,
                  modulus_check, problem_from_dict, validate_cost_bound,
                  validate_growth, validate_lipschitz)
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
             "lower_bound_b": 0.0},
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


def test_lipschitz_fails_without_evidence():
    # every pair is closer than 1e-9, so nothing is evaluated: no pass
    p = toy_problem(lambda t, X, u: 100.0 * X, growth_c=200.0, lipschitz_k=1.0)
    rep = validate_lipschitz(p, samples=50, x_radius=1e-12)
    assert not rep.passed
    assert rep.details["evaluated"] == 0 and rep.witness == {}
    assert "insufficient evidence" in rep.details["note"]


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
    # worst is the largest deficit a - b|x|^2 - g = x^4 - x^2 > 0
    x = rep.witness["x"][0]
    assert rep.worst == rep.witness["deficit"] == pytest.approx(x ** 4 - x ** 2)


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
        modulus_check(p, pairs=1)


# -- one report for every validator ----------------------------------------------

_GAINS = np.array([[0.0], [1.0]])


@pytest.mark.parametrize("validate, budget, good, bad", [
    (validate_growth, {"samples": 200},
     lambda: toy_problem(lambda t, X, u: 0.5 * X, growth_c=1.0, lipschitz_k=1.0),
     lambda: toy_problem(lambda t, X, u: X * X, growth_c=1.0, lipschitz_k=1.0)),
    (validate_lipschitz, {"samples": 200},
     lambda: toy_problem(lambda t, X, u: np.sin(X), growth_c=1.0, lipschitz_k=1.0),
     lambda: toy_problem(lambda t, X, u: 2.0 * X, growth_c=3.0, lipschitz_k=1.0)),
    (validate_cost_bound, {"samples": 200},
     lambda: toy_problem(zero_field, growth_c=1.0, lipschitz_k=1.0,
                         g=lambda X: (X * X).sum(axis=-1)),
     lambda: toy_problem(zero_field, growth_c=1.0, lipschitz_k=1.0,
                         g=lambda X: -(X * X).sum(axis=-1) ** 2, b=1.0)),
    (modulus_check, {"pairs": 1},
     lambda: toy_problem(lambda t, X, u: np.broadcast_to(u, np.shape(X)),
                         growth_c=1.0, lipschitz_k=1.0, theta=lambda r: 0.0),
     lambda: toy_problem(lambda t, X, u: _GAINS * X, growth_c=1.0,
                         lipschitz_k=1.0, theta=lambda r: 0.0)),
], ids=["growth", "lipschitz", "cost_bound", "modulus"])
def test_validators_report_under_one_rule(validate, budget, good, bad):
    for make, expected in ((good, True), (bad, False)):
        rep = validate(make(), seed=3, **budget)
        assert isinstance(rep, CheckReport)
        assert rep.passed is expected
        assert rep.passed == (rep.details["evaluated"] > 0
                              and rep.worst <= rep.tolerance)
        # the witness is the worst sample, on a pass too
        assert rep.witness
        assert {"samples", "domain"} <= set(rep.details)


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


@pytest.mark.parametrize("n", [1, 2])
def test_box_admissibility_solves_no_linear_program(n, monkeypatch):
    import scipy.optimize

    from enoc import ControlSignal, TimeGrid

    def no_lp(*args, **kwargs):
        raise AssertionError("linprog called on a box hull")

    monkeypatch.setattr(scipy.optimize, "linprog", no_lp)
    p = builtin("linear-ensemble", M=2, n=n, a=[0.5, -0.3])
    grid = TimeGrid(0.0, 1.0, 4)
    assert ControlSignal.constant(grid, [0.5] * n).check_admissible(p)
    with pytest.raises(ValueError, match="hull"):
        ControlSignal.constant(grid, [2.0] * n).check_admissible(p)

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
    with pytest.raises(ValueError, match="unknown builtin"):
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
