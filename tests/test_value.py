import itertools
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from enoc import (Axis, CapabilityError, CapacityError, ControlSchedule,
                  ControlSignal, DimensionMismatchError, DivergenceError,
                  DynamicsSpec, EnsembleState, GridCoverageWarning,
                  ParameterSpace, ProblemSpec, TerminalCostSpec,
                  TerminalValueError, TimeGrid, builtin, build_oracle_tree,
                  closed_form, dpp_residual, greedy_rollout, integrate,
                  problem_from_dict, stack_state, terminal_functional, unstack_state, value_adjoint, value_dp,
                  value_oracle)
import enoc.value
from enoc.ensemble import _rk4_step
from enoc.value import ValueGrid, _interpolate, _node_mesh, _stencil


def drift_free_quadratic(target=0.3):
    space = ParameterSpace(weights=[1.0], coords=[[0.0]])
    dyn = DynamicsSpec(eval_ens=lambda t, X, u: np.zeros_like(X),
                       jac_x_ens=lambda t, X, u: np.zeros((1, 1, 1)),
                       jac_u_ens=lambda t, X, u: np.zeros((1, 1, 1)),
                       growth_c=1.0, lipschitz_k=1.0)
    cost = TerminalCostSpec(eval_ens=lambda X: (X[..., 0] - target) ** 2,
                            grad_ens=lambda X: 2.0 * (X - target),
                            lower_bound_a=np.zeros(1), lower_bound_b=0.0)
    return ProblemSpec(space=space, n=1, m=1, dynamics=dyn, cost=cost,
                       controls=ControlSchedule.constant([[-1.0], [0.0], [1.0]]),
                       horizon=1.0)


# -- terminal functional -------------------------------------------------------

def test_terminal_zero_cost():
    p = builtin("linear-ensemble", M=2, c=[0.0, 0.0])
    phi = EnsembleState([[3.0], [-1.0]], p.space)
    assert terminal_functional(p, phi) == 0.0


def test_terminal_squared_norm():
    p = builtin("decoupled-quadratic", M=1, tau=[0.0])
    phi = EnsembleState([[5.0]], p.space)
    assert terminal_functional(p, phi) == pytest.approx(25.0)


def test_terminal_weighted_linear():
    p = builtin("linear-ensemble", M=2, weights=[0.25, 0.75],
                coords=[[0.0], [1.0]], a=[0.0, 0.0], c=[1.0, 2.0])
    phi = EnsembleState([[2.0], [-1.0]], p.space)
    assert terminal_functional(p, phi) == pytest.approx(-1.0)


def test_terminal_allows_plus_infinity():
    space = ParameterSpace(weights=[0.5, 0.5], coords=[[0.0], [1.0]])
    cost = TerminalCostSpec(eval_ens=lambda X: np.broadcast_to([0.0, np.inf], np.shape(X)[:-1]),
                            lower_bound_a=np.zeros(2), lower_bound_b=0.0)
    dyn = DynamicsSpec(eval_ens=lambda t, X, u: np.zeros_like(X),
                       growth_c=1.0, lipschitz_k=1.0)
    p = ProblemSpec(space=space, n=1, m=1, dynamics=dyn, cost=cost,
                    controls=ControlSchedule.constant([[0.0]]), horizon=1.0)
    assert terminal_functional(p, EnsembleState.zeros(space, 1)) == np.inf
    assert value_oracle(p, 0.0, EnsembleState.zeros(space, 1),
                        TimeGrid(0.0, 1.0, 2)).value == np.inf


def test_terminal_cost_overflowing_to_plus_infinity_raises_typed_error():
    def cost(g):
        return TerminalCostSpec(eval_ens=lambda X: g(X[..., 0]),
                                lower_bound_a=np.zeros(1), lower_bound_b=0.0)

    X = np.full((2, 1, 1), 800.0)
    with pytest.raises(TerminalValueError, match=r"overflows to \+inf"):
        cost(np.exp).values(X)
    # an overflow the cost absorbs stays finite, and one that ends in -inf is
    # left to the callers, which reject it by name
    assert cost(lambda x: 1.0 / (1.0 + np.exp(x))).values(X).tolist() == [[0.0]] * 2
    assert cost(lambda x: -np.exp(x)).values(X).tolist() == [[-np.inf]] * 2


def test_nan_and_minus_infinity_terminal_costs_raise_typed_error():
    space = ParameterSpace(weights=[0.5, 0.5], coords=[[0.0], [1.0]])
    dyn = DynamicsSpec(eval_ens=lambda t, X, u: np.zeros_like(X),
                       growth_c=1.0, lipschitz_k=1.0)
    phi = EnsembleState.zeros(space, 1)
    for bad, word in ((np.nan, "NaN"), (-np.inf, "-inf")):
        cost = TerminalCostSpec(
            eval_ens=lambda X, bad=bad: np.broadcast_to([0.0, bad], np.shape(X)[:-1]),
            lower_bound_a=np.zeros(2), lower_bound_b=0.0)
        p = ProblemSpec(space=space, n=1, m=1, dynamics=dyn, cost=cost,
                        controls=ControlSchedule.constant([[0.0]]), horizon=1.0)
        with pytest.raises(TerminalValueError, match=f"{word} at atom 1"):
            terminal_functional(p, phi)
        with pytest.raises(TerminalValueError, match=f"{word} on an enumerated"):
            build_oracle_tree(p, 0.0, phi, TimeGrid(0.0, 1.0, 2))


def test_overflowing_weighted_terminal_sums_raise_typed_error():
    # every atom's cost is finite, their mass-weighted sum is not
    p = builtin("decoupled-quadratic", M=2, weights=[1e308, 1e308], tau=[0.0, 0.0])
    phi = EnsembleState([[2.0], [2.0]], p.space)
    grid = TimeGrid(0.0, 1.0, 2)
    with pytest.raises(TerminalValueError, match="overflows"):
        terminal_functional(p, phi)
    with pytest.raises(TerminalValueError, match="overflows"):
        build_oracle_tree(p, 0.0, phi, grid)
    with pytest.raises(TerminalValueError, match="overflows"):
        value_dp(p, [Axis(-3.0, 3.0, 5)] * 2, grid)
    with pytest.raises(TerminalValueError, match="overflows"):
        value_adjoint(p, 0.0, phi, grid, iterations=1)
    # the same weights with a representable sum pass
    assert terminal_functional(p, EnsembleState([[0.0], [0.0]], p.space)) == 0.0


def nonfinite_problem(kind):
    """Two atoms, x' = a_i x + u, per-atom cost x^2 plus a constant for atom
    1; one ingredient of each kind is not finite."""
    a = np.array([1e200, 0.1] if kind == "diverging" else [0.0, 0.0])
    extra = np.array([0.0, {"NaN": np.nan, "-inf": -np.inf, "+inf": np.inf}.get(kind, 0.0)])
    space = ParameterSpace(weights=[1e308] * 2 if kind == "overflowing sum" else [0.5] * 2,
                           coords=[[0.0], [1.0]])
    dyn = DynamicsSpec(eval_ens=lambda t, X, u: a[:, None] * X + np.asarray(u)[..., None, :],
                       jac_x_ens=lambda t, X, u: a[:, None, None] * np.ones((2, 1, 1)),
                       jac_u_ens=lambda t, X, u: np.ones((2, 1, 1)),
                       growth_c=1.0, lipschitz_k=1.0)
    cost = TerminalCostSpec(eval_ens=lambda X: X[..., 0] ** 2 + extra,
                            grad_ens=lambda X: 2.0 * X,
                            lower_bound_a=np.zeros(2), lower_bound_b=0.0)
    return ProblemSpec(space=space, n=1, m=1, dynamics=dyn, cost=cost,
                       controls=ControlSchedule([0.0], [np.array([[-1.0], [0.0], [1.0]])],
                                                box=[[-1.0, 1.0]]),
                       horizon=1.0)


_AXES = [Axis(-3.0, 3.0, 5)] * 2
_SOLVERS = {
    "terminal_functional": lambda p, phi, grid: terminal_functional(p, phi),
    "build_oracle_tree": lambda p, phi, grid: build_oracle_tree(p, 0.0, phi, grid).values[0][0],
    "value_dp": lambda p, phi, grid: value_dp(p, _AXES, grid).values[0, 0, 0],
    "value_adjoint": lambda p, phi, grid: value_adjoint(p, 0.0, phi, grid, iterations=2).value,
    "greedy_rollout": lambda p, phi, grid: greedy_rollout(p, value_dp(p, _AXES, grid), phi),
}
_DIVERGES = (DivergenceError, r"non-finite state at t=0\.5, atom 0")
# per problem, what each solver that meets the non-finite value does with it:
# a typed error, or np.inf where +inf is kept
_NONFINITE = {
    "NaN": {"terminal_functional": (TerminalValueError, "NaN at atom 1"),
            "build_oracle_tree": (TerminalValueError, "NaN on an enumerated endpoint"),
            "value_dp": (TerminalValueError, "NaN on grid node 0, atom 1"),
            "value_adjoint": (TerminalValueError, "NaN at atom 1")},
    "-inf": {"terminal_functional": (TerminalValueError, "-inf at atom 1"),
             "build_oracle_tree": (TerminalValueError, "-inf on an enumerated endpoint"),
             "value_dp": (TerminalValueError, "-inf on grid node 0, atom 1"),
             "value_adjoint": (TerminalValueError, "-inf at atom 1")},
    "+inf": {"terminal_functional": np.inf, "build_oracle_tree": np.inf,
             "value_dp": (TerminalValueError, r"\+inf on grid node 0, atom 1"),
             "value_adjoint": np.inf},
    "overflowing sum": {name: (TerminalValueError, "overflows")
                        for name in ("terminal_functional", "build_oracle_tree",
                                     "value_dp", "value_adjoint")},
    # the tree and the integrators raise at the same first non-finite node
    "diverging": {"build_oracle_tree": _DIVERGES, "value_adjoint": _DIVERGES,
                  "greedy_rollout": _DIVERGES},
}


@pytest.mark.parametrize("kind, solver", [(kind, solver) for kind, row in _NONFINITE.items()
                                          for solver in row])
def test_every_solver_applies_one_nonfinite_rule(kind, solver):
    p = nonfinite_problem(kind)
    phi = EnsembleState([[2.0], [2.0]], p.space)
    expected = _NONFINITE[kind][solver]
    # no overflow warning comes before the typed error (the suite makes one fail)
    if expected is np.inf:
        assert _SOLVERS[solver](p, phi, TimeGrid(0.0, 1.0, 2)) == np.inf
    else:
        with pytest.raises(expected[0], match=expected[1]):
            _SOLVERS[solver](p, phi, TimeGrid(0.0, 1.0, 2))


def unrolled_sweep(p, grid, states, U):
    """The adjoint's backward sweep with the RK4 stage points re-derived and
    every transposed-tableau term written out by hand."""
    fld, jx, ju = p.dynamics.field, p.dynamics.jac_x_ens, p.dynamics.jac_u_ens
    lam = p.cost.grad_ens(states[-1]) * p.space.weights[:, None]
    grads = np.empty((grid.steps, p.m))
    for j in range(grid.steps - 1, -1, -1):
        t = grid.nodes[j]
        h = grid.nodes[j + 1] - grid.nodes[j]
        Xj, u = states[j], U[j]
        x2 = Xj + 0.5 * h * fld(t, Xj, u)
        x3 = Xj + 0.5 * h * fld(t + 0.5 * h, x2, u)
        x4 = Xj + h * fld(t + 0.5 * h, x3, u)
        jx1, ju1 = jx(t, Xj, u), ju(t, Xj, u)
        jx2, ju2 = jx(t + 0.5 * h, x2, u), ju(t + 0.5 * h, x2, u)
        jx3, ju3 = jx(t + 0.5 * h, x3, u), ju(t + 0.5 * h, x3, u)
        jx4, ju4 = jx(t + h, x4, u), ju(t + h, x4, u)
        g4 = (h / 6.0) * lam
        g3 = (h / 3.0) * lam + h * np.einsum("mij,mi->mj", jx4, g4)
        g2 = (h / 3.0) * lam + 0.5 * h * np.einsum("mij,mi->mj", jx3, g3)
        g1 = (h / 6.0) * lam + 0.5 * h * np.einsum("mij,mi->mj", jx2, g2)
        grads[j] = (np.einsum("mik,mi->k", ju1, g1) + np.einsum("mik,mi->k", ju2, g2)
                    + np.einsum("mik,mi->k", ju3, g3) + np.einsum("mik,mi->k", ju4, g4))
        lam = (lam + np.einsum("mij,mi->mj", jx1, g1) + np.einsum("mij,mi->mj", jx2, g2)
               + np.einsum("mij,mi->mj", jx3, g3) + np.einsum("mij,mi->mj", jx4, g4))
    return grads


def test_adjoint_forward_pass_is_the_stepping_loop_bitwise():
    # the forward pass the adjoint ran before it stepped through the batched
    # integrator (one scalar-time RK4 step per interval), and the backward
    # sweep it ran before it shared the integrator's tableau
    rng = np.random.default_rng(11)
    for name in ("linear-ensemble", "decoupled-quadratic", "bilinear"):
        p = builtin(name)
        phi = EnsembleState(rng.uniform(-0.5, 0.5, (p.space.size, p.n)), p.space)
        for steps in (3, 20, 100):
            grid = TimeGrid(0.0, p.horizon, steps)
            U = p.controls.sample(grid.nodes[:-1], rng)
            states = np.empty((steps + 1, p.space.size, p.n))
            states[0] = X = phi.values
            for j in range(steps):
                X = _rk4_step(p.dynamics.field, grid.nodes[j],
                              grid.nodes[j + 1] - grid.nodes[j], X, U[j])
                states[j + 1] = X
            J, G, got = enoc.value._objective_and_gradient(p, grid, phi, U)
            assert got.tobytes() == states.tobytes()
            assert J == float(p.cost.values(X) @ p.space.weights)
            assert G.tobytes() == unrolled_sweep(p, grid, states, U).tobytes()


@pytest.mark.parametrize("name, params", [
    ("linear-ensemble", {"M": 2, "n": 2}),
    ("decoupled-quadratic", {"M": 3, "n": 2}),
    ("bilinear", {}),           # Jacobians depend on the state and the control
])
@pytest.mark.parametrize("steps", [3, 20])
def test_adjoint_gradient_matches_central_differences(name, params, steps):
    p = builtin(name, **params)
    rng = np.random.default_rng(steps)
    phi = EnsembleState(rng.uniform(-0.5, 0.5, (p.space.size, p.n)), p.space)
    grid = TimeGrid(0.0, p.horizon, steps)
    U = p.controls.sample(grid.nodes[:-1], rng)
    _, G, _ = enoc.value._objective_and_gradient(p, grid, phi, U)

    def cost(V):
        return enoc.value._objective_and_gradient(p, grid, phi, V, need_grad=False)[0]

    eps = 1e-6
    fd = np.empty_like(U)
    for idx in np.ndindex(*U.shape):
        step = np.zeros_like(U)
        step[idx] = eps
        fd[idx] = (cost(U + step) - cost(U - step)) / (2.0 * eps)
    # observed differences are below 3e-10; a wrong tableau entry moves the
    # gradient by a fraction of h
    np.testing.assert_allclose(G, fd, rtol=1e-6, atol=1e-8)


# -- reduced cost ---------------------------------------------------------------

def test_reduced_cost_drift_free_is_terminal():
    p = drift_free_quadratic(target=0.3)
    phi = EnsembleState([[0.1]], p.space)
    base = terminal_functional(p, phi)
    for u in (-1.0, 0.0, 1.0):
        sig = ControlSignal.constant(TimeGrid(0.0, 1.0, 5), u)
        cost = terminal_functional(p, integrate(p, 0.0, phi, sig).terminal)
        assert cost == pytest.approx(base)


def test_reduced_cost_zero_gain_affine():
    p = builtin("linear-ensemble", M=2, a=[0.0, 0.0], c=[2.0, 1.0])
    phi = EnsembleState([[0.3], [0.4]], p.space)
    s, uhat = 0.25, 1.0
    sig = ControlSignal.constant(TimeGrid(s, 1.0, 6), uhat)
    expect = float(p.space.weights @ (np.array([2.0, 1.0])
                                      * (phi.values[:, 0] + (1.0 - s) * uhat)))
    cost = terminal_functional(p, integrate(p, s, phi, sig).terminal)
    assert cost == pytest.approx(expect, abs=1e-12)


def test_reduced_cost_exact_steering_hits_target():
    p = builtin("decoupled-quadratic", M=1, tau=[0.5])
    phi = EnsembleState([[0.0]], p.space)
    sig = ControlSignal.constant(TimeGrid(0.0, 1.0, 4), 0.5)
    cost = terminal_functional(p, integrate(p, 0.0, phi, sig).terminal)
    assert cost == pytest.approx(0.0, abs=1e-28)


# -- exhaustive oracle ------------------------------------------------------------

def test_oracle_drift_free_picks_first_signal():
    p = drift_free_quadratic()
    phi = EnsembleState([[0.2]], p.space)
    res = value_oracle(p, 0.0, phi, TimeGrid(0.0, 1.0, 3))
    assert res.value == pytest.approx(terminal_functional(p, phi))
    assert res.best_indices == (0, 0, 0)


def test_oracle_zero_gain_matches_closed_form_one_step():
    p = builtin("linear-ensemble", M=2, a=[0.0, 0.0], c=[2.0, 1.0])
    phi = EnsembleState([[0.3], [0.4]], p.space)
    res = value_oracle(p, 0.0, phi, TimeGrid(0.0, 1.0, 1))
    w, c = p.space.weights, np.array([2.0, 1.0])
    expect = float(w @ (c * phi.values[:, 0])) - 1.0 * abs(float(w @ c))
    assert res.value == pytest.approx(expect, abs=1e-12)


def test_oracle_grid_refinement_invariant_for_zero_gain():
    p = builtin("linear-ensemble", M=2, a=[0.0, 0.0], c=[2.0, 1.0])
    phi = EnsembleState([[0.3], [0.4]], p.space)
    v1 = value_oracle(p, 0.0, phi, TimeGrid(0.0, 1.0, 1)).value
    v2 = value_oracle(p, 0.0, phi, TimeGrid(0.0, 1.0, 2)).value
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_oracle_budget_guard(lin2):
    phi = EnsembleState([[0.0], [0.0]], lin2.space)
    with pytest.raises(CapacityError):
        value_oracle(lin2, 0.0, phi, TimeGrid(0.0, 1.0, 30))


def test_oracle_tie_breaks_lexicographically():
    p = builtin("linear-ensemble", M=2, a=[0.5, -0.5], c=[0.0, 0.0])
    phi = EnsembleState([[0.3], [0.4]], p.space)
    res = value_oracle(p, 0.0, phi, TimeGrid(0.0, 1.0, 3))
    assert res.value == 0.0
    assert res.best_indices == (0, 0, 0)


def test_oracle_tree_levels_and_decode(lin2):
    phi = EnsembleState([[0.3], [0.4]], lin2.space)
    tree = build_oracle_tree(lin2, 0.0, phi, TimeGrid(0.0, 1.0, 3))
    # the levels before the leaves are held; the leaves only as their values
    assert [s.shape[0] for s in tree.states] == [1, 3, 9]
    assert [v.size for v in tree.values] == [1, 3, 9, 27]
    assert tree.decode(0) == (0, 0, 0)
    assert tree.decode(26) == (2, 2, 2)
    assert tree.decode(7 * 3 + 2) == (2, 1, 2)
    # backward values dominate their children
    child = tree.values[1].reshape(1, 3)
    assert tree.values[0][0] == pytest.approx(child.min())


def test_batched_tree_starts_match_one_oracle_each(lin2):
    grid = TimeGrid(0.0, 1.0, 3)
    starts = np.random.default_rng(11).uniform(-0.5, 0.5, (5, 2, 1))
    tree = build_oracle_tree(lin2, 0.0, starts, grid)
    assert [s.shape[0] for s in tree.states] == [5, 15, 45]
    assert tree.values[-1].size == 135
    for b in range(5):
        res = value_oracle(lin2, 0.0, EnsembleState(starts[b], lin2.space), grid)
        assert tree.values[0][b] == res.value
    start, best = tree.optimum()
    assert best.value == tree.values[0].min()
    assert start == int(np.argmin(tree.values[0]))
    with pytest.raises(CapacityError, match="135 signals"):
        build_oracle_tree(lin2, 0.0, starts, grid, budget=134)
    with pytest.raises(DimensionMismatchError, match="start states"):
        build_oracle_tree(lin2, 0.0, starts[:, :, 0], grid)


def reference_oracle_tree(p, starts, grid):
    """The row-major loop that build_oracle_tree lays out node-innermost:
    each level is C-order (nodes, M, n), control k of node b at row b*K + k.
    Returns every level's states and values."""
    fld = p.dynamics.field
    states, controls = [np.asarray(starts, dtype=float)], []
    for j in range(grid.steps):
        t, h = grid.nodes[j], grid.nodes[j + 1] - grid.nodes[j]
        pts = p.controls.active_set(t)
        controls.append(pts)
        cur = states[-1]
        nxt = np.empty((cur.shape[0], len(pts)) + cur.shape[1:])
        for k in range(len(pts)):
            nxt[:, k] = _rk4_step(fld, t, h, cur, pts[k])
        states.append(nxt.reshape((-1,) + cur.shape[1:]))
    values = [p.cost.values(states[-1]) @ p.space.weights]
    for pts in reversed(controls):
        values.insert(0, values[0].reshape(-1, len(pts)).min(axis=1))
    return states, values


def _same_bits(got, want):
    return got.shape == want.shape and (np.ascontiguousarray(got).tobytes()
                                        == np.ascontiguousarray(want).tobytes())


@pytest.mark.parametrize("make", [
    lambda: builtin("linear-ensemble", a=[0.5, -0.3], c=[2.0, 1.0]),
    lambda: builtin("linear-ensemble", M=2, n=2, a=[0.5, -0.3], c=[2.0, 1.0]),
    lambda: builtin("bilinear"),
    lambda: builtin("decoupled-quadratic", M=3, tau=[0.3, -0.2, 0.5]),
    lambda: problem_from_dict(_EXPR_T_DEPENDENT),
], ids=["lin2", "linear-M2-n2", "bilinear", "quadratic-M3", "expr-t-dependent"])
def test_tree_is_the_row_major_loop_bitwise(make):
    p = make()
    grid = TimeGrid(0.0, 1.0, 4)
    start = np.random.default_rng(13).uniform(-0.5, 0.5, (1, p.space.size, p.n))
    tree = build_oracle_tree(p, 0.0, start, grid)
    # the suffix tree starts from a strided stack of another tree's states
    mid = tree.states[2]
    assert not mid.flags.c_contiguous
    suffix = build_oracle_tree(p, grid.nodes[2], mid, grid.suffix(2))
    for got, (starts, sub) in ((tree, (start, grid)), (suffix, (mid, grid.suffix(2)))):
        states, values = reference_oracle_tree(p, starts, sub)
        # every level but the leaves is held
        assert len(got.states) == len(states) - 1 and len(got.values) == len(values)
        assert all(_same_bits(a, b) for a, b in zip(got.states, states[:-1]))
        assert all(_same_bits(a, b) for a, b in zip(got.values, values))
        # levels past the starts keep the node axis innermost
        assert all(level.strides[0] == 8 for level in got.states[1:])


@pytest.mark.parametrize("make", [
    lambda: builtin("linear-ensemble", M=2, n=2, a=[0.5, -0.3], c=[2.0, 1.0]),
    lambda: problem_from_dict(_EXPR_T_DEPENDENT),
    lambda: builtin("bilinear"),
], ids=["linear-M2-n2", "expr-t-dependent", "bilinear"])
def test_leaf_costs_in_blocks_are_the_one_call_bitwise(monkeypatch, make):
    p = make()
    grid = TimeGrid(0.0, 1.0, 4)
    start = np.random.default_rng(3).uniform(-0.5, 0.5, (2, p.space.size, p.n))
    states, values = reference_oracle_tree(p, start, grid)
    # 2 starts x K^4 signals, 2 K^3 parent nodes in blocks of max(1, block // K)
    # nodes: for K = 3, 54 nodes in blocks of 1 (one node outgrows the block),
    # of 2 (27 blocks), of 5 (ten and a partial one of 4), of 33 (one and a
    # partial one of 21) or in one; for K = 9, 1458 nodes in blocks of 1, 1, 1,
    # 11 (132 and a partial one of 6) or in one
    for leaf_block in (2, 7, 15, 100, 1 << 16):
        monkeypatch.setattr(enoc.value, "_LEAF_BLOCK", leaf_block)
        tree = build_oracle_tree(p, 0.0, start, grid)
        assert all(_same_bits(a, b) for a, b in zip(tree.states, states[:-1]))
        assert all(_same_bits(a, b) for a, b in zip(tree.values, values))


def late_divergence_problem(until=np.inf):
    """Two atoms, x' = u, but +inf where x_i is past c_i before the time
    ``until``: a signal diverges only after enough +1 controls, so the first
    bad leaves sit late in the lexicographic order."""
    c = np.array([[0.35], [0.7]])

    def field(t, X, u):
        past = (X > c) & (np.asarray(t)[..., None, None] < until)
        return np.where(past, np.inf, np.broadcast_to(np.asarray(u)[..., None, :], X.shape))

    cost = TerminalCostSpec(eval_ens=lambda X: X[..., 0] ** 2, lower_bound_a=np.zeros(2),
                            lower_bound_b=0.0)
    return ProblemSpec(space=ParameterSpace(weights=[0.5, 0.5], coords=[[0.0], [1.0]]),
                       n=1, m=1, dynamics=DynamicsSpec(eval_ens=field, growth_c=1.0,
                                                       lipschitz_k=1.0),
                       cost=cost, controls=ControlSchedule.constant([[-1.0], [0.0], [1.0]]),
                       horizon=1.0)


def first_divergence_by_signal(p, phi, grid):
    """The DivergenceError that integrating every signal in lexicographic
    order hits first, with the signal's index."""
    sets = [p.controls.active_set(t) for t in grid.nodes[:-1]]
    for q, idx in enumerate(itertools.product(*(range(len(s)) for s in sets))):
        sig = ControlSignal(grid, np.stack([s[k] for s, k in zip(sets, idx)]))
        try:
            enoc.integrate(p, grid.s, phi, sig)
        except DivergenceError as exc:
            return q, (exc.t, exc.atom)
    return None, None


@pytest.mark.parametrize("leaf_block", [4, 16, 120, 1 << 16])
@pytest.mark.parametrize("x0, until, t", [
    ([-0.1, -0.3], np.inf, 1.0), ([0.3, -0.3], np.inf, 1.0), ([-0.4, 0.5], np.inf, 1.0),
    ([0.1, -0.3], 0.5, 0.4),        # a held level's node is the first non-finite one
], ids=["leaf-80", "leaf-26", "leaf-53-atom1", "held-level-216"])
def test_divergence_in_a_later_block_is_the_reference_error(monkeypatch, x0, until, t,
                                                            leaf_block):
    monkeypatch.setattr(enoc.value, "_LEAF_BLOCK", leaf_block)
    p = late_divergence_problem(until)
    phi = EnsembleState(np.array(x0)[:, None], p.space)
    grid = TimeGrid(0.0, 1.0, 5)
    q, want = first_divergence_by_signal(p, phi, grid)
    # blocks of 1, 5, 40 or all 81 nodes x 3 controls, each control stepped
    # apart: the first bad leaf is past the first block
    assert q is not None and q >= 3 and want[0] == pytest.approx(t)
    with pytest.raises(DivergenceError) as exc:
        build_oracle_tree(p, 0.0, phi, grid)
    assert (exc.value.t, exc.value.atom) == want


def test_oracle_never_holds_the_leaf_level():
    # 9^6 = 531,441 leaves of (2, 2) states (17 MB), in nine blocks
    p = builtin("linear-ensemble", M=2, n=2, a=[0.5, -0.3], c=[2.0, 1.0])
    grid = TimeGrid(0.0, 1.0, 6)
    start = np.full((1, 2, 2), 0.1)
    leaves = 9 ** 6
    block_bytes = enoc.value._LEAF_BLOCK * 2 * 2 * 8
    tracemalloc.start()
    try:
        tree = build_oracle_tree(p, 0.0, start, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree.values[-1].size == leaves
    per_atom = leaves * 2 * 8
    values = sum(v.nbytes for v in tree.values)
    held = sum(s.nbytes for s in tree.states)
    # a block's children, its RK4 temporaries and the gate's row masks
    assert peak < per_atom + values + held + 4 * block_bytes
    # a held leaf level (17 MB) would not fit in the slack over the arrays kept
    assert leaves * 2 * 2 * 8 > values + 4 * block_bytes


# -- grid recursion ---------------------------------------------------------------

def test_dp_drift_free_slices_equal_terminal_exactly():
    p = drift_free_quadratic(target=0.3)
    vg = value_dp(p, [Axis(-1.0, 1.0, 21)], TimeGrid(0.0, 1.0, 5))
    for j in range(5):
        np.testing.assert_array_equal(vg.values[j], vg.values[5])
    assert vg.clamp_count == 0


def test_dp_reachable_target_value_near_zero():
    p = builtin("decoupled-quadratic", M=1, tau=[0.5])
    vg = value_dp(p, [Axis(-2.0, 2.0, 41)], TimeGrid(0.0, 1.0, 10))
    assert vg.value_at(0.0, np.zeros(1)) == pytest.approx(0.0, abs=5e-2)


def test_dp_matches_oracle_on_linear_family(lin2):
    grid = TimeGrid(0.0, 1.0, 50)
    vg = value_dp(lin2, [Axis(-5.0, 5.0, 41)] * 2, grid, phi_radius=0.5)
    tol = 5.0 * (grid.dt + vg.axes[0].spacing)
    rng = np.random.default_rng(8)
    oracle_grid = TimeGrid(0.0, 1.0, 6)
    for _ in range(5):
        phi = EnsembleState(rng.uniform(-0.5, 0.5, (2, 1)), lin2.space)
        direct = value_oracle(lin2, 0.0, phi, oracle_grid).value
        tabled = vg.value_at(0.0, stack_state(phi))
        assert abs(direct - tabled) <= tol


def test_dp_dimension_guard():
    p = builtin("linear-ensemble", M=6, a=[0.0] * 6, c=[1.0] * 6)
    with pytest.raises(ValueError, match="guard"):
        value_dp(p, [Axis(-1.0, 1.0, 5)] * 6, TimeGrid(0.0, 1.0, 4))


def test_dp_coverage_warning():
    p = builtin("decoupled-quadratic", M=1, tau=[0.0])
    with pytest.warns(GridCoverageWarning):
        value_dp(p, [Axis(-0.5, 0.5, 11)], TimeGrid(0.0, 1.0, 4), phi_radius=0.4)


def test_dp_counts_clamped_lookups():
    p = builtin("decoupled-quadratic", M=1, tau=[0.0])
    vg = value_dp(p, [Axis(-0.1, 0.1, 5)], TimeGrid(0.0, 1.0, 4))
    assert vg.clamp_count > 0


def test_dp_rejects_nonfinite_terminal_cost():
    space = ParameterSpace(weights=[1.0], coords=[[0.0]])
    cost = TerminalCostSpec(eval_ens=lambda X: np.where(X[..., 0] < 0, np.inf, 0.0),
                            lower_bound_a=np.zeros(1), lower_bound_b=0.0)
    dyn = DynamicsSpec(eval_ens=lambda t, X, u: np.zeros_like(X),
                       growth_c=1.0, lipschitz_k=1.0)
    p = ProblemSpec(space=space, n=1, m=1, dynamics=dyn, cost=cost,
                    controls=ControlSchedule.constant([[0.0]]), horizon=1.0)
    with pytest.raises(TerminalValueError):
        value_dp(p, [Axis(-1.0, 1.0, 5)], TimeGrid(0.0, 1.0, 2))


def reference_value_dp(p, axes, grid):
    """The per-node corner-gather recursion that value_dp factors per atom:
    each candidate moves all Q nodes by one Euler step and interpolates the
    whole table at the feet through _interpolate.  Returns values, argmin,
    tainted, clamp count and, per step and node, the gap between the two
    best candidates."""
    M, n = p.space.size, p.n
    shape = tuple(ax.count for ax in axes)
    mesh = np.meshgrid(*[ax.nodes for ax in axes], indexing="ij")
    Z = np.stack([m.reshape(-1) for m in mesh], axis=1)
    Q, d = Z.shape
    X = Z.reshape(Q, M, n)
    N = grid.steps
    values = np.empty((N + 1,) + shape)
    argmin = np.empty((N,) + shape, dtype=np.int32)
    tainted = np.zeros((N + 1,) + shape, dtype=bool)
    gaps = np.full((N,) + shape, np.inf)
    values[N] = (p.cost.values(X) @ p.space.weights).reshape(shape)
    clamp_count = 0
    for j in range(N - 1, -1, -1):
        t, h = grid.nodes[j], grid.nodes[j + 1] - grid.nodes[j]
        pts = p.controls.active_set(t)
        cand = np.empty((len(pts), Q))
        bad = np.zeros(Q, dtype=bool)
        for k, u in enumerate(pts):
            Y = Z + h * p.dynamics.field(t, X, u).reshape(Q, d)
            cand[k], clamped, touched = _interpolate(values[j + 1], tainted[j + 1],
                                                     axes, Y)
            bad |= clamped | touched
            clamp_count += int(clamped.sum())
        values[j] = cand.min(axis=0).reshape(shape)
        argmin[j] = cand.argmin(axis=0).reshape(shape)
        tainted[j] = bad.reshape(shape)
        if len(pts) > 1:
            best_two = np.sort(cand, axis=0)[:2]
            gaps[j] = (best_two[1] - best_two[0]).reshape(shape)
    return values, argmin, tainted, clamp_count, gaps


_EXPR_T_DEPENDENT = {
    "format": "enoc-problem/1",
    "space": {"format": "enoc-space/1",
              "atoms": [{"id": "w0", "coords": [0.5]}, {"id": "w1", "coords": [1.0]}],
              "weights": [0.5, 0.5]},
    "n": 1, "m": 1, "horizon": 1.0,
    "dynamics": {"expressions": ["w1 * x1 * cos(3 * t) + u1"],
                 "growth_c": 1.0, "lipschitz_k": 1.0},
    "cost": {"expression": "(x1 - w1) ** 2", "lower_bound_a": 0.0,
             "lower_bound_b": 0.0},
    "controls": {"breakpoints": [0.0], "sets": [[[-1.0], [0.0], [1.0]]],
                 "box": [[-1.0, 1.0]]},
}


_DP_PROBLEMS = [
    (lambda: builtin("linear-ensemble", M=2, n=2, a=[0.5, -0.3], c=[2.0, 1.0]),
     [Axis(-2.0, 2.0, 7)] * 4, 4),
    (lambda: builtin("decoupled-quadratic", M=3, tau=[0.3, -0.2, 0.5]),
     [Axis(-1.0, 1.0, 9)] * 3, 5),
    (lambda: builtin("bilinear"), [Axis(-2.0, 2.0, 21)] * 2, 8),
    (lambda: problem_from_dict(_EXPR_T_DEPENDENT), [Axis(-2.0, 2.0, 41)] * 2, 20),
    (lambda: builtin("linear-ensemble", M=2, a=[1.0, -0.5], c=[1.0, -2.0]),
     [Axis(-2.0, 2.0, 11), Axis(-1.5, 1.5, 17)], 10),
    # h * u is one spacing, so every foot is a node and most corner weights
    # are zero: the taint must follow the nonzero ones only
    (lambda: builtin("decoupled-quadratic", M=2, tau=[0.3, -0.2]),
     [Axis(-1.0, 1.0, 9), Axis(-1.5, 1.5, 13)], 4),
]
_DP_IDS = ["linear-M2-n2", "quadratic-M3", "bilinear", "expr-t-dependent",
           "unequal-blocks", "feet-on-nodes"]


@pytest.mark.parametrize("make, axes, steps", _DP_PROBLEMS, ids=_DP_IDS)
def test_dp_matches_the_corner_gather_recursion(make, axes, steps):
    p = make()
    grid = TimeGrid(0.0, 1.0, steps)
    vg = value_dp(p, axes, grid)
    values, argmin, tainted, clamp_count, gaps = reference_value_dp(p, axes, grid)
    # the reference must see clamps and a partial taint, or the masks prove nothing
    assert clamp_count > 0 and 0.0 < tainted[:-1].mean() < 1.0
    np.testing.assert_allclose(vg.values, values, rtol=1e-12, atol=1e-12)
    assert np.array_equal(vg.tainted, tainted)
    assert vg.clamp_count == clamp_count
    moved = vg.argmin != argmin
    assert np.all(gaps[moved] <= 1e-12 * np.maximum(1.0, np.abs(values[:-1][moved])))


@pytest.mark.parametrize("p, axes", [
    (builtin("bilinear", M=1, n=2, a=[1.2]), [Axis(-1.0, 1.0, 9), Axis(-1.5, 1.5, 13)]),
    (builtin("linear-ensemble", M=1, a=[0.7], c=[1.5]), [Axis(-2.0, 2.0, 21)]),
], ids=["bilinear-n2", "linear-n1"])
def test_one_atom_dp_is_the_corner_gather_recursion_bitwise(p, axes):
    # with one atom the block operator is the whole operator, summed in the
    # same corner order
    grid = TimeGrid(0.0, 1.0, 8)
    vg = value_dp(p, axes, grid)
    values, argmin, tainted, clamp_count, gaps = reference_value_dp(p, axes, grid)
    assert np.any(gaps == 0.0)              # exact ties, broken to the first
    assert vg.values.tobytes() == values.tobytes()
    assert np.array_equal(vg.argmin, argmin)
    assert np.array_equal(vg.tainted, tainted)
    assert vg.clamp_count == clamp_count


def per_candidate_value_dp(p, axes, grid):
    """The factorized sweep one candidate at a time: a field call and a
    stencil per block for each control, and each mode of the block operator
    gathered along its own axis into a zero-filled sum.  value_dp batches the
    candidates and gathers along the leading axis only; on the same
    arithmetic it must give the same bits."""
    def kron_apply(table, ops, mul=np.multiply, add=np.add):
        src = table
        for i, corners in enumerate(ops):
            dst = np.zeros_like(table)
            for idx, wgt in corners:
                buf = np.take(src, idx, axis=i)
                mul(buf, wgt.reshape((-1,) + (1,) * (table.ndim - 1 - i)), out=buf)
                add(dst, buf, out=dst)
            src = dst
        return src

    M, n = p.space.size, p.n
    shape = tuple(ax.count for ax in axes)
    Q = int(np.prod(shape))
    X = _node_mesh([ax.nodes for ax in axes]).reshape(Q, M, n)
    N = grid.steps
    values = np.empty((N + 1,) + shape)
    argmin = np.empty((N,) + shape, dtype=np.int32)
    tainted = np.zeros((N + 1,) + shape, dtype=bool)
    values[N] = (p.cost.values(X) @ p.space.weights).reshape(shape)
    blk_axes = [axes[i * n:(i + 1) * n] for i in range(M)]
    meshes = [_node_mesh([ax.nodes for ax in blk]) for blk in blk_axes]
    sizes = tuple(mesh.shape[0] for mesh in meshes)
    rows = max(sizes)
    Xb = np.stack([mesh[np.arange(rows) % mesh.shape[0]] for mesh in meshes], axis=1)
    clamp_count = 0
    for j in range(N - 1, -1, -1):
        t, h = grid.nodes[j], grid.nodes[j + 1] - grid.nodes[j]
        vals, arg = values[j].reshape(-1), argmin[j].reshape(-1)
        taint = tainted[j].reshape(-1)
        for k, u in enumerate(p.controls.active_set(t)):
            F = p.dynamics.field(t, Xb, u)
            stencils = [_stencil(blk, Xb[:size, i] + h * F[:size, i])
                        for i, (blk, size) in enumerate(zip(blk_axes, sizes))]
            ops = [corners for corners, _ in stencils]
            cand = kron_apply(values[j + 1].reshape(sizes), ops).reshape(-1)
            mask = kron_apply(tainted[j + 1].reshape(sizes),
                              [[(idx, wgt > 0.0) for idx, wgt in corners]
                               for corners in ops], np.logical_and, np.logical_or)
            inside = 1
            for i, (_, clamped) in enumerate(stencils):
                mask |= clamped.reshape((-1,) + (1,) * (M - 1 - i))
                inside *= clamped.size - int(clamped.sum())
            clamp_count += Q - inside
            mask = mask.reshape(-1)
            if k == 0:
                vals[:], arg[:], taint[:] = cand, 0, mask
                continue
            better = cand < vals
            arg[better] = k
            np.minimum(vals, cand, out=vals)
            taint |= mask
    return values, argmin, tainted, clamp_count


@pytest.mark.parametrize("make, axes, steps", _DP_PROBLEMS, ids=_DP_IDS)
def test_rollout_is_the_batched_integrator_bitwise(make, axes, steps):
    p = make()
    grid = TimeGrid(0.0, 1.0, steps)
    vg = value_dp(p, axes, grid)
    phi = EnsembleState(np.random.default_rng(17).uniform(-0.5, 0.5, (p.space.size, p.n)),
                        p.space)
    sig, traj = greedy_rollout(p, vg, phi)
    assert traj.states.tobytes() == enoc.integrate(p, 0.0, phi, sig).states.tobytes()


def all_plus_one_table():
    """A table whose every argmin is u = +1: on late_divergence_problem it
    drives atom 0, then atom 1, past c."""
    grid, axes = TimeGrid(0.0, 1.0, 5), [Axis(-1.0, 1.0, 3)] * 2
    return ValueGrid(grid=grid, axes=axes, values=np.zeros((6, 3, 3)),
                     argmin=np.full((5, 3, 3), 2, dtype=np.int32),
                     tainted=np.zeros((6, 3, 3), dtype=bool), clamp_count=0,
                     coverage_radius=1.0, coverage_ok=True)


@pytest.mark.parametrize("x0", [[0.1, -0.3], [-0.5, 0.2]])
def test_rollout_divergence_is_the_batched_integrators_error(x0):
    p = late_divergence_problem()
    vg = all_plus_one_table()
    grid = vg.grid
    phi = EnsembleState(np.array(x0)[:, None], p.space)
    with pytest.raises(DivergenceError) as want:
        enoc.integrate(p, 0.0, phi, ControlSignal.constant(grid, [1.0]))
    with pytest.raises(DivergenceError) as got:
        greedy_rollout(p, vg, phi)
    assert (got.value.t, got.value.atom) == (want.value.t, want.value.atom)
    assert want.value.t > grid.nodes[1]


_SWEEP_PROBLEMS = _DP_PROBLEMS + [
    (lambda: builtin("linear-ensemble", M=4, a=[0.5, -0.3, 0.1, 0.9],
                     c=[2.0, 1.0, -1.0, 0.5]),
     [Axis(-1.0, 1.0, 5), Axis(-1.0, 1.0, 6), Axis(-1.0, 1.0, 7), Axis(-1.0, 1.0, 4)], 5),
    (lambda: builtin("bilinear", M=1, n=2, a=[1.2]),
     [Axis(-1.0, 1.0, 9), Axis(-1.5, 1.5, 13)], 8),
]
_SWEEP_IDS = _DP_IDS + ["four-modes", "one-atom"]


# every problem here has K = 3 or 9 controls and fewer than _LEAF_BLOCK / K
# nodes, so by default one batch holds all K candidates; a batch of two
# leaves a partial last batch
@pytest.mark.parametrize("make, axes, steps, width", [
    case + (width,) for width in (None, 1, 2) for case in _SWEEP_PROBLEMS],
    ids=[name + ("" if width is None else f"-batch{width}")
         for width in (None, 1, 2) for name in _SWEEP_IDS])
def test_batched_sweep_is_the_per_candidate_sweep_bitwise(make, axes, steps, width,
                                                          monkeypatch):
    p = make()
    grid = TimeGrid(0.0, 1.0, steps)
    Q = math.prod(ax.count for ax in axes)
    assert len(p.controls.active_set(0.0)) * Q <= enoc.value._LEAF_BLOCK
    if width is not None:
        monkeypatch.setattr(enoc.value, "_LEAF_BLOCK", width * Q)
    vg = value_dp(p, axes, grid)
    values, argmin, tainted, clamp_count = per_candidate_value_dp(p, axes, grid)
    assert vg.values.tobytes() == values.tobytes()
    # the table holds the narrowest unsigned type, the reference int32
    assert vg.argmin.dtype == np.uint8 and np.array_equal(vg.argmin, argmin)
    assert vg.tainted.tobytes() == tainted.tobytes()
    assert vg.clamp_count == clamp_count


@pytest.mark.parametrize("make", [
    lambda: builtin("linear-ensemble", a=[0.5, -0.3], c=[2.0, 1.0]),
    lambda: builtin("linear-ensemble", M=2, n=2, a=[0.5, -0.3], c=[2.0, 1.0]),
    lambda: builtin("decoupled-quadratic", M=3, tau=[0.3, -0.2, 0.5]),
    lambda: builtin("decoupled-quadratic", M=2, n=2),
    lambda: builtin("bilinear"),
    lambda: builtin("bilinear", M=3, n=2),
    lambda: problem_from_dict(_EXPR_T_DEPENDENT),
], ids=["linear", "linear-n2", "quadratic-M3", "quadratic-n2", "bilinear",
        "bilinear-n2", "expr-t-dependent"])
def test_batched_control_field_call_is_the_single_calls_bitwise(make):
    # value_dp makes one field call per step for all K controls, with the
    # states repeated per control and u of shape (K, rows, m)
    p = make()
    rng = np.random.default_rng(5)
    Xb = rng.uniform(-2.0, 2.0, (7, p.space.size, p.n))
    pts = p.controls.active_set(0.3)
    K = pts.shape[0]
    batched = p.dynamics.field(0.3, np.repeat(Xb[None], K, axis=0),
                               np.broadcast_to(pts[:, None, :], (K, 7, p.m)))
    single = np.stack([p.dynamics.field(0.3, Xb, u) for u in pts])
    assert _same_bits(batched, single)


def test_dp_rejects_a_field_that_couples_atoms():
    space = ParameterSpace(weights=[0.5, 0.5], coords=[[0.0], [1.0]])
    # each atom is pulled towards the ensemble mean: atom-wise only in name
    dyn = DynamicsSpec(eval_ens=lambda t, X, u: X.mean(axis=-2, keepdims=True) - X + u,
                       growth_c=2.0, lipschitz_k=2.0)
    cost = TerminalCostSpec(eval_ens=lambda X: X[..., 0] ** 2,
                            lower_bound_a=np.zeros(2), lower_bound_b=0.0)
    p = ProblemSpec(space=space, n=1, m=1, dynamics=dyn, cost=cost,
                    controls=ControlSchedule.constant([[-1.0], [1.0]]), horizon=1.0)
    with pytest.raises(CapabilityError, match="atom-wise"):
        value_dp(p, [Axis(-1.0, 1.0, 5)] * 2, TimeGrid(0.0, 1.0, 2))


def _corner_loop(taint, axes, Y):
    """Per-point reference for the clamp and taint masks of _interpolate."""
    clamped = np.zeros(len(Y), dtype=bool)
    touched = np.zeros(len(Y), dtype=bool)
    for q, y in enumerate(Y):
        lower, fracs = [], []
        for ax, coord in zip(axes, y):
            fi = (coord - ax.lo) / ax.spacing
            clamped[q] |= fi < 0.0 or fi > ax.count - 1.0
            fi = min(max(fi, 0.0), ax.count - 1.0)
            i0 = min(int(np.floor(fi)), ax.count - 2)
            frac = fi - i0
            frac = 0.0 if frac < 1e-12 else 1.0 if frac > 1.0 - 1e-12 else frac
            lower.append(i0)
            fracs.append(frac)
        for corner in itertools.product((0, 1), repeat=len(axes)):
            weight = np.prod([f if b else 1.0 - f for b, f in zip(corner, fracs)])
            node = tuple(i + b for i, b in zip(lower, corner))
            touched[q] |= weight > 0.0 and bool(taint[node])
    return clamped, touched


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_interpolate_matches_scipy_and_a_corner_loop(d):
    from scipy.interpolate import RegularGridInterpolator
    rng = np.random.default_rng(d)
    # node coordinates of these axes land a few ulps off the integer grid
    # index, which the snap must absorb
    axes = [Axis(-0.1, 0.7, 9), Axis(-0.5, 1.1, 9), Axis(-1.0, 2.0, 3),
            Axis(-0.4, 0.9, 8)][:d]
    table = rng.uniform(1.0, 2.0, tuple(ax.count for ax in axes))
    taint = rng.random(table.shape) < 0.15
    taint[(1,) * d] = True
    Y = np.concatenate([
        np.stack([rng.uniform(ax.lo, ax.hi, 60) for ax in axes], axis=1),
        np.stack([rng.uniform(ax.lo - 1.0, ax.hi + 1.0, 60) for ax in axes], axis=1),
        list(itertools.product(*[ax.nodes for ax in axes])),
    ])
    vals, clamped, touched = _interpolate(table, taint, axes, Y)

    lo, hi = [ax.lo for ax in axes], [ax.hi for ax in axes]
    ref = RegularGridInterpolator([ax.nodes for ax in axes], table,
                                  method="linear")(np.clip(Y, lo, hi))
    np.testing.assert_allclose(vals, ref, rtol=1e-12)
    # queries on nodes, the last one included, reproduce node values exactly
    assert np.array_equal(vals[120:], table.reshape(-1))
    ref_clamped, ref_touched = _corner_loop(taint, axes, Y)
    assert np.array_equal(clamped, ref_clamped)
    assert np.array_equal(touched, ref_touched)
    assert clamped.any() and touched.any() and not touched.all()


@pytest.mark.parametrize("lo, hi", [(0.0, np.inf), (-np.inf, 0.0), (-1e308, 1e308)])
def test_axis_rejects_a_span_that_is_not_finite(lo, hi):
    with pytest.raises(ValueError, match=r"needs finite bounds and spacing"):
        Axis(lo, hi, 3)


def test_interpolate_rejects_nan_queries():
    axes = [Axis(-1.0, 1.0, 5)] * 2
    with pytest.raises(ValueError, match="NaN"):
        _interpolate(np.zeros((5, 5)), np.zeros((5, 5), dtype=bool), axes,
                     np.array([[0.0, np.nan]]))


def test_value_grid_evaluate_rejects_wrong_width(lin2):
    vg = value_dp(lin2, [Axis(-1.0, 1.0, 5)] * 2, TimeGrid(0.0, 1.0, 3))
    for z in ([0.0], [0.0, 0.0, 0.0]):
        with pytest.raises(DimensionMismatchError, match="2 axes"):
            vg.evaluate(0, [z])


def test_value_grid_round_trip(tmp_path, lin2):
    vg = value_dp(lin2, [Axis(-2.0, 2.0, 9)] * 2, TimeGrid(0.0, 1.0, 4))
    path = tmp_path / "grid.bin"
    vg.save(path)
    back = ValueGrid.map(path)
    assert np.array_equal(back.values, vg.values)
    assert np.array_equal(back.argmin, vg.argmin)
    assert back.clamp_count == vg.clamp_count
    assert [(ax.lo, ax.hi, ax.count) for ax in back.axes] == \
           [(ax.lo, ax.hi, ax.count) for ax in vg.axes]
    z = np.array([0.21, -0.4])
    assert back.value_at(0.5, z) == vg.value_at(0.5, z)


def test_value_grid_map_reads_exactly_the_saved_bytes(tmp_path, lin2):
    vg = value_dp(lin2, [Axis(-1.0, 1.0, 5)] * 2, TimeGrid(0.0, 1.0, 3))
    path = tmp_path / "grid.bin"
    vg.save(path)
    blob = path.read_bytes()
    bad = tmp_path / "bad.bin"
    for cut in range(len(blob)):
        bad.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match="bad.bin"):
            ValueGrid.map(bad)
    bad.write_bytes(blob + b"\0")
    with pytest.raises(ValueError, match="bad.bin: 1 trailing bytes"):
        ValueGrid.map(bad)


def test_value_grid_save_writes_the_tables_without_copies(tmp_path):
    # a 16 MB value table, a 4 MB int32 (or 1 MB uint8) argmin and a 2 MB
    # taint table; the argmin is written as int32 either way
    rng = np.random.default_rng(2)
    grid, axes = TimeGrid(0.0, 1.0, 1), [Axis(-1.0, 1.0, 1024)] * 2
    blobs = []
    for dtype in (np.int32, np.uint8):
        vg = ValueGrid(grid=grid, axes=axes, values=rng.standard_normal((2, 1024, 1024)),
                       argmin=rng.integers(0, 3, (1, 1024, 1024), dtype=dtype),
                       tainted=rng.random((2, 1024, 1024)) < 0.3, clamp_count=5,
                       coverage_radius=1.0, coverage_ok=True)
        path = tmp_path / "grid.bin"
        tracemalloc.start()
        try:
            vg.save(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vg.values.nbytes >= 16 * 2 ** 20 and peak < 2 ** 20
        tables = (vg.values.astype("<f8").tobytes() + vg.argmin.astype("<i4").tobytes()
                  + vg.tainted.astype("u1").tobytes())
        blob = path.read_bytes()
        assert blob.endswith(tables)
        header = json.loads(blob[16:len(blob) - len(tables)])
        assert blob[:16] == b"ENOCVG1\n" + struct.pack("<Q", len(blob) - 16 - len(tables))
        assert header["axes"] == [[-1.0, 1.0, 1024]] * 2 and header["clamp_count"] == 5
        blobs.append(len(blob))
    assert blobs[0] == blobs[1]


def test_value_grid_save_map_save_is_byte_identical(tmp_path, lin2):
    vg = value_dp(lin2, [Axis(-2.0, 2.0, 9)] * 2, TimeGrid(0.0, 1.0, 4))
    first, second = tmp_path / "first.bin", tmp_path / "second.bin"
    vg.save(first)
    back = ValueGrid.map(first)
    back.save(second)
    # the narrow table in memory, int32 when mapped, one file for both
    assert vg.argmin.dtype == np.uint8 and back.argmin.dtype == np.int32
    assert first.read_bytes() == second.read_bytes()


# -- the value grid streamed into its file ------------------------------------------

# three control sets of 3, 2 and 5 points, switched twice inside the horizon
_EXPR_SWITCHING = dict(_EXPR_T_DEPENDENT, controls={
    "breakpoints": [0.0, 0.37, 0.71],
    "sets": [[[-1.0], [0.0], [1.0]], [[-0.5], [0.5]],
             [[-1.0], [-0.5], [0.0], [0.5], [1.0]]]})

_STREAM_CASES = [
    (lambda: builtin("linear-ensemble", M=2, a=[0.5, -0.3], c=[2.0, 1.0]),
     [Axis(-2.0, 2.0, 21)] * 2, 8, False),
    (lambda: builtin("linear-ensemble", M=2, n=2, a=[0.5, -0.3], c=[2.0, 1.0]),
     [Axis(-2.0, 2.0, 7)] * 4, 4, False),
    # one atom: its block is the whole grid
    (lambda: builtin("linear-ensemble", M=1, n=2, a=[0.5], c=[2.0, 1.0]),
     [Axis(-2.0, 2.0, 15), Axis(-1.5, 1.5, 11)], 6, False),
    (lambda: problem_from_dict(_EXPR_T_DEPENDENT), [Axis(-2.0, 2.0, 41)] * 2, 20, False),
    (lambda: problem_from_dict(_EXPR_SWITCHING), [Axis(-2.0, 2.0, 41)] * 2, 30, False),
    # fast drifts on a small box: most lookups clamp
    (lambda: builtin("linear-ensemble", M=2, a=[3.0, -2.0], c=[2.0, 1.0]),
     [Axis(-0.2, 0.2, 9)] * 2, 6, True),
]
_STREAM_IDS = ["linear-M2-n1", "linear-M2-n2", "linear-M1-n2", "expr-t-dependent",
               "expr-switching", "heavily-clamped"]


@pytest.mark.parametrize("make, axes, steps, clamped", _STREAM_CASES, ids=_STREAM_IDS)
@pytest.mark.filterwarnings("ignore:axes do not cover")
def test_streamed_grid_is_the_saved_table_bytewise(tmp_path, make, axes, steps, clamped):
    p = make()
    grid = TimeGrid(0.0, 1.0, steps)
    held = value_dp(p, axes, grid, phi_radius=0.3)
    held.save(tmp_path / "saved.bin")
    streamed = value_dp(p, axes, grid, phi_radius=0.3, path=tmp_path / "streamed.bin")
    assert ((tmp_path / "streamed.bin").read_bytes()
            == (tmp_path / "saved.bin").read_bytes())
    # the streamed sweep counts the clamps the held one counts
    lookups = sum(len(p.controls.active_set(t)) for t in grid.nodes[:-1]) * math.prod(
        ax.count for ax in axes)
    assert streamed.clamp_count == held.clamp_count > 0
    assert (held.clamp_count > lookups / 2) == clamped
    # the result maps the file: the held tables, the argmin as int32
    assert streamed.values.tobytes() == held.values.tobytes()
    assert streamed.argmin.dtype == np.int32 and np.array_equal(streamed.argmin, held.argmin)
    assert streamed.tainted.tobytes() == held.tainted.tobytes()
    assert sorted(f.name for f in tmp_path.iterdir()) == ["saved.bin", "streamed.bin"]


def test_streamed_sweep_holds_two_slices_not_the_table(tmp_path):
    # solve-expr's size: a 201^2 grid and 100 steps, a 32.6 MB value table
    p = problem_from_dict(_EXPR_T_DEPENDENT)
    axes, grid = [Axis(-4.0, 4.0, 201)] * 2, TimeGrid(0.0, 1.0, 100)
    table = 8 * 101 * 201 ** 2
    tracemalloc.start()
    try:
        vg = value_dp(p, axes, grid, path=tmp_path / "grid.bin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table / 4
    assert vg.values.shape == (101, 201, 201)
    assert (tmp_path / "grid.bin").stat().st_size > table


def test_saving_onto_the_mapped_file_keeps_the_mapping(tmp_path, lin2):
    axes, grid = [Axis(-2.0, 2.0, 9)] * 2, TimeGrid(0.0, 1.0, 4)
    path = tmp_path / "grid.bin"
    held = value_dp(lin2, axes, grid)
    mapped = value_dp(lin2, axes, grid, path=path)
    blob = path.read_bytes()
    # save reads the mapping while it writes the file the mapping was made from
    mapped.save(path)
    assert path.read_bytes() == blob
    assert mapped.values.tobytes() == held.values.tobytes()
    ValueGrid.map(path).save(path)
    assert path.read_bytes() == blob
    assert [f.name for f in tmp_path.iterdir()] == ["grid.bin"]


def test_value_grid_map_reads_what_the_held_grid_holds(tmp_path, lin2):
    held = value_dp(lin2, [Axis(-1.0, 1.0, 5)] * 2, TimeGrid(0.0, 1.0, 3))
    path = tmp_path / "grid.bin"
    held.save(path)
    # a nonzero taint byte other than 1 reads as True
    blob = bytearray(path.read_bytes())
    blob[-1] = 7
    path.write_bytes(bytes(blob))
    held.tainted[-1, -1, -1] = True
    mapped = ValueGrid.map(path)
    assert mapped.values.tobytes() == held.values.tobytes()
    assert mapped.argmin.dtype == np.int32 and np.array_equal(mapped.argmin, held.argmin)
    assert np.array_equal(mapped.tainted, held.tainted) and mapped.tainted[-1, -1, -1]
    assert mapped.tainted.sum() == held.tainted.sum()
    Z = np.random.default_rng(2).uniform(-1.2, 1.2, (50, 2))
    for j in range(4):
        got = _interpolate(mapped.values[j], mapped.tainted[j], mapped.axes, Z)
        want = _interpolate(held.values[j], held.tainted[j], held.axes, Z)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert (mapped.clamp_count, mapped.meta) == (held.clamp_count, held.meta)


# -- the rollout on a mapped grid reads each argmin entry from the file ----------------

class _Unindexable:
    def __getitem__(self, key):
        raise AssertionError("the rollout indexed the mapped argmin view")


def _same_rollout(a, b):
    return (a[0].values.tobytes() == b[0].values.tobytes()
            and a[1].states.tobytes() == b[1].states.tobytes())


@pytest.mark.parametrize("make, axes, steps", _DP_PROBLEMS + [
    (lambda: problem_from_dict(_EXPR_SWITCHING), [Axis(-2.0, 2.0, 41)] * 2, 30)],
    ids=_DP_IDS + ["expr-switching"])
def test_mapped_rollout_is_the_held_rollout_bitwise(tmp_path, make, axes, steps):
    p = make()
    grid = TimeGrid(0.0, 1.0, steps)
    held = value_dp(p, axes, grid)
    mapped = value_dp(p, axes, grid, path=tmp_path / "grid.bin")
    assert held.source is None and mapped.source is not None
    rng = np.random.default_rng(5)
    for _ in range(3):
        phi = EnsembleState(rng.uniform(-1.0, 1.0, (p.space.size, p.n)), p.space)
        assert _same_rollout(greedy_rollout(p, mapped, phi), greedy_rollout(p, held, phi))


@pytest.mark.parametrize("x0", [[0.1, -0.3], [-0.5, 0.2]])
def test_mapped_rollout_divergence_is_the_held_rollouts_error(tmp_path, x0):
    p = late_divergence_problem()
    held = all_plus_one_table()
    held.save(tmp_path / "grid.bin")
    mapped = ValueGrid.map(tmp_path / "grid.bin")
    phi = EnsembleState(np.array(x0)[:, None], p.space)
    with pytest.raises(DivergenceError) as want:
        greedy_rollout(p, held, phi)
    with pytest.raises(DivergenceError) as got:
        greedy_rollout(p, mapped, phi)
    assert (got.value.t, got.value.atom) == (want.value.t, want.value.atom)


def test_mapped_rollout_never_reads_the_mapped_argmin(tmp_path):
    p = problem_from_dict(_EXPR_SWITCHING)
    axes, grid = [Axis(-2.0, 2.0, 41)] * 2, TimeGrid(0.0, 1.0, 30)
    held = value_dp(p, axes, grid)
    mapped = value_dp(p, axes, grid, path=tmp_path / "grid.bin")
    mapped.argmin = _Unindexable()
    phi = EnsembleState(np.array([[0.4], [-0.3]]), p.space)
    assert _same_rollout(greedy_rollout(p, mapped, phi), greedy_rollout(p, held, phi))


def test_mapped_rollout_reads_the_file_that_was_mapped(tmp_path, lin2):
    import dataclasses

    axes, grid = [Axis(-2.0, 2.0, 21)] * 2, TimeGrid(0.0, 1.0, 8)
    path = tmp_path / "grid.bin"
    held = value_dp(lin2, axes, grid)
    mapped = value_dp(lin2, axes, grid, path=path)
    # every entry names another of the three controls
    other = dataclasses.replace(held, argmin=(held.argmin + 1) % 3)
    other.save(path)
    assert ValueGrid.map(path).argmin.tobytes() == other.argmin.astype("<i4").tobytes()
    phi = EnsembleState(np.array([[0.4], [-0.3]]), lin2.space)
    want = greedy_rollout(lin2, held, phi)
    assert _same_rollout(greedy_rollout(lin2, mapped, phi), want)
    assert not _same_rollout(greedy_rollout(lin2, other, phi), want)


def test_streaming_adds_no_field_calls(tmp_path):
    import dataclasses

    p = builtin("linear-ensemble", M=2, a=[0.5, -0.3], c=[2.0, 1.0])
    field, calls = p.dynamics.eval_ens, []

    def counted(t, X, u):
        calls.append(None)
        return field(t, X, u)
    p = dataclasses.replace(p, dynamics=dataclasses.replace(p.dynamics, eval_ens=counted))
    axes, grid = [Axis(-2.0, 2.0, 21)] * 2, TimeGrid(0.0, 1.0, 8)
    value_dp(p, axes, grid)
    held = len(calls)
    value_dp(p, axes, grid, path=tmp_path / "grid.bin")
    assert len(calls) - held == held


# -- adjoint descent ---------------------------------------------------------------

def test_adjoint_zero_gradient_converges_immediately():
    p = drift_free_quadratic(target=0.3)
    phi = EnsembleState([[0.1]], p.space)
    res = value_adjoint(p, 0.0, phi, TimeGrid(0.0, 1.0, 5))
    assert res.iterations == 0
    assert res.value == pytest.approx(terminal_functional(p, phi))


def test_adjoint_recovers_linear_closed_form(lin2):
    phi = EnsembleState([[0.3], [0.4]], lin2.space)
    grid = TimeGrid(0.0, 1.0, 100)
    res = value_adjoint(lin2, 0.0, phi, grid)
    cf = closed_form(lin2)
    assert res.value == pytest.approx(cf.optimal_value(0.0, phi), abs=1e-6)
    # psi stays positive for positive cost weights: the control pins at -rho
    np.testing.assert_allclose(res.control.values, -1.0, atol=1e-9)


def test_adjoint_history_monotone(lin2):
    phi = EnsembleState([[0.5], [-0.2]], lin2.space)
    res = value_adjoint(lin2, 0.0, phi, TimeGrid(0.0, 1.0, 20))
    assert all(a >= b for a, b in zip(res.history, res.history[1:]))


def test_adjoint_upper_bounds_oracle(lin2):
    rng = np.random.default_rng(9)
    grid = TimeGrid(0.0, 1.0, 6)
    for _ in range(5):
        phi = EnsembleState(rng.uniform(-0.6, 0.6, (2, 1)), lin2.space)
        direct = value_oracle(lin2, 0.0, phi, grid).value
        upper = value_adjoint(lin2, 0.0, phi, grid).value
        assert upper >= direct - 1e-9


def test_adjoint_requires_derivative_capability():
    space = ParameterSpace(weights=[1.0], coords=[[0.0]])
    dyn = DynamicsSpec(eval_ens=lambda t, X, u: np.zeros_like(X),
                       growth_c=1.0, lipschitz_k=1.0)
    cost = TerminalCostSpec(eval_ens=lambda X: np.zeros(np.shape(X)[:-1]),
                            lower_bound_a=np.zeros(1), lower_bound_b=0.0)
    p = ProblemSpec(space=space, n=1, m=1, dynamics=dyn, cost=cost,
                    controls=ControlSchedule.constant([[0.0]]), horizon=1.0)
    with pytest.raises(CapabilityError):
        value_adjoint(p, 0.0, EnsembleState.zeros(space, 1), TimeGrid(0.0, 1.0, 2))



def test_adjoint_needs_a_box_control_hull():
    import dataclasses

    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    p = dataclasses.replace(builtin("linear-ensemble", M=2, n=2),
                            controls=ControlSchedule.constant(tri))
    phi = EnsembleState.zeros(p.space, 2)
    with pytest.raises(CapabilityError, match="box"):
        value_adjoint(p, 0.0, phi, TimeGrid(0.0, 1.0, 2))


def test_enumerating_solvers_return_points_of_a_triangle_hull():
    import dataclasses

    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    p = dataclasses.replace(builtin("linear-ensemble", M=2, n=2, a=[0.5, -0.3]),
                            controls=ControlSchedule.constant(tri))
    phi = EnsembleState([[0.3, -0.2], [0.1, 0.4]], p.space)
    grid = TimeGrid(0.0, 1.0, 4)
    oracle = value_oracle(p, 0.0, phi, grid).best
    dp, _ = greedy_rollout(p, value_dp(p, [Axis(-3.0, 3.0, 9)] * 4, grid), phi)
    # the hull is not a box, so an exact row of the set is the invariant
    for sig in (oracle, dp):
        for t, u in zip(grid.nodes, sig.values):
            assert (p.controls.active_set(t) == u).all(axis=1).any()

# -- two-stage identity ---------------------------------------------------------

def test_dpp_drift_free_exact():
    p = drift_free_quadratic()
    phi = EnsembleState([[0.2]], p.space)
    res = dpp_residual(p, 0.0, phi, TimeGrid(0.0, 1.0, 4))
    assert res.shape == (1, 3)
    assert (res == 0.0).all()


def test_dpp_linear_family_all_splits(lin2):
    rng = np.random.default_rng(10)
    starts = rng.uniform(-0.5, 0.5, (5, 2, 1))
    res = dpp_residual(lin2, 0.0, starts, TimeGrid(0.0, 1.0, 4))
    assert res.shape == (5, 3)
    assert np.abs(res).max() <= 1e-10


def _sequential_dpp(p, phi, grid, j):
    """The two-stage residual by a prefix tree and one oracle per mid state."""
    direct = value_oracle(p, grid.s, phi, grid)
    prefix = reference_oracle_tree(p, phi.values[None], grid.prefix(j))[0]
    best = min(value_oracle(p, grid.nodes[j], EnsembleState(mid, p.space),
                            grid.suffix(j)).value
               for mid in prefix[j])
    return direct.value - best


@pytest.mark.parametrize("name, params", [
    ("linear-ensemble", {"a": [0.5, -0.3], "c": [2.0, 1.0]}),
    ("linear-ensemble", {"M": 2, "n": 2}),
    ("bilinear", {}),
    ("decoupled-quadratic", {"M": 3}),
], ids=["lin2", "linear-M2-n2", "bilinear", "quadratic-M3"])
def test_dpp_matches_sequential_reference_bitwise(name, params):
    p = builtin(name, **params)
    grid = TimeGrid(0.0, 1.0, 4)
    rng = np.random.default_rng(12)
    starts = rng.uniform(-0.5, 0.5, (3, p.space.size, p.n))
    res = dpp_residual(p, 0.0, starts, grid)
    assert res.shape == (3, 3)
    for b, phi in enumerate(starts):
        for j in (1, 2, 3):
            want = _sequential_dpp(p, EnsembleState(phi, p.space), grid, j)
            # repr round-trips every float exactly, signed zeros included
            assert repr(float(res[b, j - 1])) == repr(want)


def test_dpp_budget_counts_every_start(lin2):
    starts = np.zeros((3, 2, 1))
    grid = TimeGrid(0.0, 1.0, 2)        # 9 signals per start
    assert dpp_residual(lin2, 0.0, starts, grid, budget=27).shape == (3, 1)
    with pytest.raises(CapacityError, match="27 signals, budget is 26"):
        dpp_residual(lin2, 0.0, starts, grid, budget=26)


def test_dpp_without_starts_or_splits_is_empty(lin2):
    assert dpp_residual(lin2, 0.0, np.zeros((0, 2, 1)),
                        TimeGrid(0.0, 1.0, 3)).shape == (0, 2)
    assert dpp_residual(lin2, 0.0, np.zeros((2, 2, 1)),
                        TimeGrid(0.0, 1.0, 1)).shape == (2, 0)


def test_stack_round_trip(lin2):
    phi = EnsembleState([[0.3], [0.4]], lin2.space)
    z = stack_state(phi)
    back = unstack_state(z, lin2.space, 1)
    assert np.array_equal(back.values, phi.values)


def test_dp_terminal_slice_equals_terminal_functional(lin2):
    vg = value_dp(lin2, [Axis(-2.0, 2.0, 9)] * 2, TimeGrid(0.0, 1.0, 3))
    Z = vg.node_matrix()
    flat = vg.values[-1].reshape(-1)
    for q in range(Z.shape[0]):
        expect = terminal_functional(lin2, unstack_state(Z[q], lin2.space, 1))
        assert flat[q] == expect


def test_dp_converges_to_oracle_first_order(lin2):
    phi = EnsembleState([[0.3], [0.4]], lin2.space)
    direct = value_oracle(lin2, 0.0, phi, TimeGrid(0.0, 1.0, 8)).value
    errs = []
    for steps, counts in ((25, 21), (50, 41), (100, 81)):
        vg = value_dp(lin2, [Axis(-5.0, 5.0, counts)] * 2,
                      TimeGrid(0.0, 1.0, steps))
        errs.append(abs(vg.value_at(0.0, stack_state(phi)) - direct))
    assert errs[0] > errs[1] > errs[2]
    # first-order scheme: halving (dt, dz) roughly halves the error
    assert errs[0] / errs[2] > 2.5


def test_compute_value_dispatch(lin2):
    from enoc import ValueQuery, compute_value
    phi = EnsembleState([[0.3], [0.4]], lin2.space)
    oracle = compute_value(lin2, ValueQuery(s=0.0, phi=phi, method="oracle",
                                            steps=6))
    adjoint = compute_value(lin2, ValueQuery(s=0.0, phi=phi, method="adjoint",
                                             steps=50))
    dp = compute_value(lin2, ValueQuery(s=0.0, phi=phi, method="dp", steps=50,
                                        axes=[Axis(-5.0, 5.0, 41)] * 2))
    assert abs(oracle.value - adjoint.value) < 1e-6
    assert abs(oracle.value - dp.value) < 5.0 * (1.0 / 50 + 0.25)
    assert dp.grid is not None
    # the box hull [-1, 1]: dp rolls out set points, the adjoint clips into it
    lo, hi = lin2.controls.hull_lo[0], lin2.controls.hull_hi[0]
    for res in (oracle, dp, adjoint):
        assert ((lo <= res.control.values) & (res.control.values <= hi)).all()
    with pytest.raises(ValueError, match="unknown method"):
        compute_value(lin2, ValueQuery(s=0.0, phi=phi, method="nope"))
    with pytest.raises(ValueError, match="axes"):
        compute_value(lin2, ValueQuery(s=0.0, phi=phi, method="dp"))


@pytest.mark.filterwarnings("ignore::enoc.errors.GridCoverageWarning")
def test_compute_value_streams_the_dp_table_only(tmp_path, lin2):
    from enoc import ValueQuery, compute_value
    phi = EnsembleState([[0.3], [0.4]], lin2.space)
    query = ValueQuery(s=0.0, phi=phi, method="dp", steps=20, axes=[Axis(-3.0, 3.0, 25)] * 2)
    held = compute_value(lin2, query)
    streamed = compute_value(lin2, query, tmp_path / "grid.bin")
    assert (streamed.value, streamed.table_value) == (held.value, held.table_value)
    assert streamed.control.values.tobytes() == held.control.values.tobytes()
    held.grid.save(tmp_path / "saved.bin")
    assert (tmp_path / "grid.bin").read_bytes() == (tmp_path / "saved.bin").read_bytes()
    with pytest.raises(ValueError, match="oracle method writes no value grid"):
        compute_value(lin2, ValueQuery(s=0.0, phi=phi, method="oracle", steps=4),
                      tmp_path / "oracle.bin")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["grid.bin", "saved.bin"]


@pytest.mark.filterwarnings("ignore::enoc.errors.GridCoverageWarning")
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("make, axes", [
    (lambda: builtin("linear-ensemble", a=[0.5, -0.3], c=[2.0, 1.0]),
     [Axis(-3.0, 3.0, 25)] * 2),
    (lambda: builtin("bilinear"), [Axis(-2.0, 2.0, 21)] * 2),
    (lambda: builtin("decoupled-quadratic", M=3, tau=[0.3, -0.2, 0.5]),
     [Axis(-1.0, 1.0, 9)] * 3),
    (lambda: problem_from_dict(_EXPR_T_DEPENDENT), [Axis(-2.0, 2.0, 41)] * 2),
], ids=["linear", "bilinear", "quadratic-M3", "expr-t-dependent"])
def test_dp_reports_the_cost_its_control_realizes(make, axes, seed):
    from enoc import ValueQuery, compute_value
    p = make()
    phi = EnsembleState(np.random.default_rng(seed).uniform(-0.5, 0.5, (p.space.size, p.n)),
                        p.space)
    oracle = compute_value(p, ValueQuery(s=0.0, phi=phi, method="oracle", steps=4))
    dp = compute_value(p, ValueQuery(s=0.0, phi=phi, method="dp", steps=4, axes=axes))
    assert dp.value == terminal_functional(p, integrate(p, 0.0, phi, dp.control).terminal)
    assert dp.table_value == dp.grid.value_at(0.0, stack_state(phi))
    # on the same time grid the rollout's control is one of the oracle's signals
    assert oracle.value <= dp.value


def test_dp_memory_refusal_counts_the_narrow_argmin(monkeypatch, lin2):
    from enoc import ValueQuery, compute_value
    monkeypatch.setattr(enoc.value, "_physical_memory", lambda: 1000)
    phi = EnsembleState([[0.3], [0.4]], lin2.space)
    # 5 time nodes x 25 grid nodes x (8 value + 1 uint8 argmin + 1 taint) bytes
    with pytest.raises(CapacityError, match="needs 1250 bytes for 4 steps"):
        compute_value(lin2, ValueQuery(s=0.0, phi=phi, method="dp", steps=4,
                                       axes=[Axis(-1.0, 1.0, 5)] * 2))

