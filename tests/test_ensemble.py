import numpy as np
import pytest

from enoc import (ControlSchedule, ControlSignal, DivergenceError, DynamicsSpec,
                  EnsembleState, ParameterSpace, ProblemSpec, TerminalCostSpec,
                  TimeGrid, Trajectory, builtin, integrate, trajectory_bound_suite,
                  random_signal)


def drift_free(M=2):
    space = ParameterSpace(weights=np.full(M, 1.0 / M),
                           coords=np.linspace(0, 1, M)[:, None])
    dyn = DynamicsSpec(eval_ens=lambda t, X, u: np.zeros_like(X),
                       growth_c=1.0, lipschitz_k=1.0)
    cost = TerminalCostSpec(eval_ens=lambda X: np.zeros(np.shape(X)[:-1]),
                            lower_bound_a=np.zeros(M), lower_bound_b=0.0)
    return ProblemSpec(space=space, n=1, m=1, dynamics=dyn, cost=cost,
                       controls=ControlSchedule.constant([[-1.0], [0.0], [1.0]]),
                       horizon=1.0)


def test_grid_invariants():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)
    g = TimeGrid(0.0, 1.0, 4)
    assert g.dt == pytest.approx(0.25)
    np.testing.assert_array_equal(g.suffix(2).nodes, g.nodes[2:])
    np.testing.assert_array_equal(g.prefix(2).nodes, g.nodes[:3])


def test_signal_shape_and_admissibility(lin2):
    grid = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        ControlSignal(grid, np.zeros((3, 1)))
    sig = ControlSignal.constant(grid, 0.5)
    assert sig.check_admissible(lin2)
    bad = ControlSignal.constant(grid, 2.0)
    with pytest.raises(ValueError, match="hull"):
        bad.check_admissible(lin2)


def test_zero_field_keeps_initial_state():
    p = drift_free()
    phi = EnsembleState([[0.3], [-0.7]], p.space)
    sig = ControlSignal.constant(TimeGrid(0.0, 1.0, 10), 1.0)
    traj = integrate(p, 0.0, phi, sig)
    for j in range(11):
        np.testing.assert_array_equal(traj.states[j], phi.values)


def test_exponential_flow_accuracy():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.uniform(-2.0, 2.0, 3)
        p = builtin("linear-ensemble", M=3, a=a, c=[1.0, 1.0, 1.0])
        phi = EnsembleState(rng.uniform(-1, 1, (3, 1)), p.space)
        sig = ControlSignal.constant(TimeGrid(0.0, 1.0, 100), 0.0)
        traj = integrate(p, 0.0, phi, sig)
        exact = np.exp(a)[:, None] * phi.values
        assert np.abs(traj.states[-1] - exact).max() < 1e-8


def test_constant_control_affine_exactness():
    p = builtin("decoupled-quadratic", M=2, tau=[0.0, 0.0])
    phi = EnsembleState([[0.1], [-0.4]], p.space)
    sig = ControlSignal.constant(TimeGrid(0.25, 1.0, 6), 1.0)
    traj = integrate(p, 0.25, phi, sig)
    np.testing.assert_array_equal(traj.states[-1], phi.values + 0.75)


def test_step_halving_shows_fourth_order():
    p = builtin("linear-ensemble", M=2, a=[1.5, -0.8], c=[1.0, 1.0])
    phi = EnsembleState([[0.9], [0.7]], p.space)
    errs = []
    exact = np.exp(np.array([1.5, -0.8]))[:, None] * phi.values
    for steps in (10, 20, 40):
        sig = ControlSignal.constant(TimeGrid(0.0, 1.0, steps), 0.0)
        traj = integrate(p, 0.0, phi, sig)
        errs.append(np.abs(traj.states[-1] - exact).max())
    assert errs[0] / errs[1] > 12.0
    assert errs[1] / errs[2] > 12.0


def test_determinism_bit_identical(lin2):
    phi = EnsembleState([[0.3], [0.4]], lin2.space)
    rng = np.random.default_rng(42)
    sig = random_signal(lin2, TimeGrid(0.0, 1.0, 50), rng)
    a = integrate(lin2, 0.0, phi, sig)
    b = integrate(lin2, 0.0, phi, sig)
    assert np.array_equal(a.states, b.states)


def test_per_atom_decoupling_exact():
    p = builtin("linear-ensemble", M=4, a=[0.3, -0.2, 0.9, -1.1],
                c=[1.0, 1.0, 1.0, 1.0])
    rng = np.random.default_rng(5)
    phi_vals = rng.uniform(-1, 1, (4, 1))
    grid = TimeGrid(0.0, 1.0, 30)
    sig = random_signal(p, grid, rng)
    whole = integrate(p, 0.0, EnsembleState(phi_vals, p.space), sig)
    for subset in ([0], [1, 2], [3], [0, 3]):
        sub = builtin("linear-ensemble", M=len(subset),
                      a=[[0.3, -0.2, 0.9, -1.1][i] for i in subset],
                      c=[1.0] * len(subset),
                      coords=(np.linspace(0, 1, 4)[subset, None]
                              if len(subset) > 1 else [[0.0]]),
                      weights=[1.0 / 4] * len(subset))
        part = integrate(sub, 0.0, EnsembleState(phi_vals[subset], sub.space),
                         ControlSignal(grid, sig.values))
        assert np.array_equal(part.states, whole.states[:, subset])


def test_divergence_error_carries_location():
    space = ParameterSpace(weights=[0.5, 0.5], coords=[[0.0], [1.0]])
    dyn = DynamicsSpec(eval_ens=lambda t, X, u: X ** 3,
                       growth_c=1.0, lipschitz_k=1.0)
    cost = TerminalCostSpec(eval_ens=lambda X: np.zeros(np.shape(X)[:-1]),
                            lower_bound_a=np.zeros(2), lower_bound_b=0.0)
    p = ProblemSpec(space=space, n=1, m=1, dynamics=dyn, cost=cost,
                    controls=ControlSchedule.constant([[0.0]]), horizon=1.0)
    phi = EnsembleState([[0.1], [30.0]], space)
    sig = ControlSignal.constant(TimeGrid(0.0, 1.0, 10), 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            integrate(p, 0.0, phi, sig)
    assert err.value.atom == 1
    assert 0.0 < err.value.t <= 1.0


def test_trajectory_csv_round_trip(tmp_path, lin2):
    phi = EnsembleState([[0.3], [0.4]], lin2.space)
    rng = np.random.default_rng(1)
    sig = random_signal(lin2, TimeGrid(0.0, 1.0, 7), rng)
    traj = integrate(lin2, 0.0, phi, sig)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    back = Trajectory.from_csv(path, lin2.space)
    assert np.array_equal(back.states, traj.states)
    assert np.array_equal(back.control.values, traj.control.values)
    np.testing.assert_array_equal(back.grid.nodes, traj.grid.nodes)


# -- trajectory bound suite -----------------------------------------------------

def test_bounds_hold_on_drift_free_problem():
    rep = trajectory_bound_suite(drift_free(), trials=40, steps=50, seed=3)
    assert rep.passed
    # with no drift the growth and time bounds are far from active
    assert rep.max_ratio["time"] == 0.0


def test_bounds_hold_on_linear_family():
    p = builtin("linear-ensemble", M=4, a=[-1.5, 0.4, 1.1, 2.0],
                c=[1.0, 1.0, 1.0, 1.0])
    rep = trajectory_bound_suite(p, trials=60, steps=100, seed=7)
    assert rep.passed, rep.violations[:3]


def test_stability_bound_zero_gap():
    p = builtin("linear-ensemble", M=2, a=[0.5, -0.5], c=[1.0, 1.0])
    phi = EnsembleState([[0.2], [0.4]], p.space)
    grid = TimeGrid(0.0, 1.0, 50)
    sig = ControlSignal.constant(grid, 1.0)
    a = integrate(p, 0.0, phi, sig)
    b = integrate(p, 0.0, phi, sig)
    assert np.array_equal(a.states, b.states)


def test_stability_bound_is_tight_for_pure_gain():
    # equal gains k: the state gap evolves as e^{k t} exactly, so the bound
    # ratio approaches 1 from below as the grid refines
    k = 1.3
    p = builtin("linear-ensemble", M=2, a=[k, k], c=[1.0, 1.0])
    phi = EnsembleState([[0.2], [0.4]], p.space)
    phibar = EnsembleState([[0.2 + 1e-3], [0.4 - 2e-3]], p.space)
    ratios = []
    for steps in (25, 200):
        grid = TimeGrid(0.0, 1.0, steps)
        sig = ControlSignal.constant(grid, 1.0)
        xa = integrate(p, 0.0, phi, sig).states[-1]
        xb = integrate(p, 0.0, phibar, sig).states[-1]
        lhs = np.sqrt(float(np.einsum("i,ij,ij->", p.space.weights,
                                      xa - xb, xa - xb)))
        rhs = np.exp(k) * np.sqrt(float(np.einsum(
            "i,ij,ij->", p.space.weights,
            phi.values - phibar.values, phi.values - phibar.values)))
        ratios.append(lhs / rhs)
    assert ratios[-1] <= 1.0 + 1e-12
    assert ratios[-1] > 1.0 - 1e-9
    assert abs(1.0 - ratios[1]) <= abs(1.0 - ratios[0])


def test_suite_records_violations_instead_of_raising():
    # deliberately understated Lipschitz certificate: bound 2 must fail
    p = builtin("linear-ensemble", M=2, a=[2.0, 2.0], c=[1.0, 1.0])
    p.dynamics.lipschitz_k = 0.5
    rep = trajectory_bound_suite(p, trials=30, steps=60, seed=11)
    assert not rep.passed
    assert any(v["bound"] == "stability" for v in rep.violations)
