import numpy as np
import pytest

from enoc import (ControlSchedule, ControlSignal, DivergenceError, DynamicsSpec,
                  EnsembleState, ParameterSpace, ProblemSpec, ScheduleError,
                  TerminalCostSpec, TimeGrid, ball_average, builtin,
                  integrate, oscillation_diagnostic, problem_from_dict,
                  random_signal, trajectory_bound_suite)


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


def test_signal_shape_and_admissibility(lin2):
    grid = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        ControlSignal(grid, np.zeros((3, 1)))
    lo, hi = lin2.controls.hull_lo[0], lin2.controls.hull_hi[0]
    assert lin2.controls.is_box[0]
    sig = ControlSignal.constant(grid, 0.5)
    assert ((lo <= sig.values) & (sig.values <= hi)).all()
    bad = ControlSignal.constant(grid, 2.0)
    assert not (bad.values <= hi).all()


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
    # the suite turns a RuntimeWarning into a failure: the error is the only report
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
    # rows (t, atom, x0, u0), atom-minor; the last node repeats the last control
    rows = np.loadtxt(path, delimiter=",", skiprows=1).reshape(8, 2, 4)
    np.testing.assert_array_equal(rows[..., 0], np.repeat(traj.grid.nodes[:, None], 2, 1))
    np.testing.assert_array_equal(rows[..., 1], np.tile([0.0, 1.0], (8, 1)))
    assert np.array_equal(rows[..., 2:3], traj.states)
    controls = np.vstack([traj.control.values, traj.control.values[-1:]])
    assert np.array_equal(rows[..., 3], np.repeat(controls, 2, axis=1))


# -- trajectory bound suite -----------------------------------------------------

def test_bounds_hold_on_drift_free_problem():
    rep = trajectory_bound_suite(drift_free(), trials=40, steps=50, seed=3)
    assert rep.passed
    # with no drift the growth and time bounds are far from active
    assert rep.details["max_ratio"]["time"] == 0.0


def test_bounds_hold_on_linear_family():
    p = builtin("linear-ensemble", M=4, a=[-1.5, 0.4, 1.1, 2.0],
                c=[1.0, 1.0, 1.0, 1.0])
    rep = trajectory_bound_suite(p, trials=60, steps=100, seed=7)
    assert rep.passed, rep.details["violations"][:3]


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
    assert any(v["bound"] == "stability" for v in rep.details["violations"])


def test_suite_report_names_its_worst_ratio():
    rep = trajectory_bound_suite(builtin("linear-ensemble", M=3, n=2), trials=30,
                                 steps=40, seed=0)
    ratios = rep.details["max_ratio"]
    assert rep.name == "trajectory_bounds" and rep.tolerance == 1.05
    assert rep.worst == max(ratios.values()) > 0.0
    assert rep.witness["ratio"] == rep.worst
    assert ratios[rep.witness["bound"]] == rep.worst
    assert 0 <= rep.witness["trial"] < rep.details["trials"]


# -- the batched suite against the trial-by-trial order ----------------------------

def sequential_suite(p, trials, steps, seed, slack=1.05, phi_scale=1.0):
    """The bound suite one trial at a time over public integrate + random_signal."""
    rng = np.random.default_rng(seed)
    c, k = p.dynamics.growth_c, p.dynamics.lipschitz_k
    mu = np.sqrt(p.space.mass)
    max_ratio = {"growth": 0.0, "stability": 0.0, "shift": 0.0, "time": 0.0,
                 "field_growth": 0.0, "field_lipschitz": 0.0}
    violations = []

    def norm(d):
        return np.sqrt(float(np.einsum("i,ij,ij->", p.space.weights, d, d)))

    def track(kind, lhs, rhs, trial):
        ratio = lhs / rhs if rhs > 0.0 else (0.0 if lhs <= 1e-12 else np.inf)
        max_ratio[kind] = max(max_ratio[kind], ratio)
        if not (ratio <= slack if rhs > 0.0 else lhs <= 1e-12):
            violations.append({"bound": kind, "trial": trial,
                               "lhs": lhs, "rhs": rhs, "ratio": ratio})

    for trial in range(trials):
        s = rng.uniform(0.0, 0.5 * p.horizon)
        grid = TimeGrid(s, p.horizon, steps)
        j_tau = int(rng.integers(0, steps))
        j_t = int(rng.integers(j_tau, steps)) + 1
        tau, t = grid.nodes[j_tau], grid.nodes[j_t]
        phi = EnsembleState(phi_scale * rng.standard_normal((p.space.size, p.n)),
                            p.space)
        phibar = EnsembleState(phi_scale * rng.standard_normal((p.space.size, p.n)),
                               p.space)
        sig = random_signal(p, grid, rng)
        x = integrate(p, s, phi, sig).states
        xbar = integrate(p, s, phibar, sig).states
        nphi = norm(phi.values)
        track("growth", norm(x[j_t]),
              np.exp(c * (t - s)) * (nphi + c * (t - s) * mu), trial)
        track("stability", norm(x[j_t] - xbar[j_t]),
              np.exp(k * (t - s)) * norm(phi.values - phibar.values), trial)
        if j_tau > 0:
            x_shift = integrate(p, tau, phi, ControlSignal(
                grid.suffix(j_tau), sig.values[j_tau:])).states
            track("shift", norm(x_shift[j_t - j_tau] - x[j_t]),
                  c * np.exp(k * (t - tau)) * np.exp(c * (tau - s))
                  * (mu + nphi) * (tau - s), trial)
        track("time", norm(x[j_t] - x[j_tau]),
              c * np.exp(c * (t - s)) * (mu + nphi) * (t - tau), trial)
        # the certificates atom by atom at x(t) and xbar(t), with the control
        # of the step that reached t; the first worst atom counts
        u = sig.values[j_t - 1]
        f, fbar = p.dynamics.field(t, x[j_t], u), p.dynamics.field(t, xbar[j_t], u)
        atoms = range(p.space.size)
        growth = [(np.linalg.norm(f[i]), c * (1.0 + np.linalg.norm(x[j_t, i])))
                  for i in atoms]
        track("field_growth", *max(growth, key=lambda lr: lr[0] / lr[1]), trial)
        lipschitz = [(np.linalg.norm(f[i] - fbar[i]),
                      k * np.linalg.norm(x[j_t, i] - xbar[j_t, i])) for i in atoms
                     if np.linalg.norm(x[j_t, i] - xbar[j_t, i]) >= 1e-9]
        if lipschitz:
            track("field_lipschitz", *max(lipschitz, key=lambda lr: lr[0] / lr[1]),
                  trial)
    return max_ratio, violations, not violations


def t_dependent_expression():
    return problem_from_dict({
        "format": "enoc-problem/1",
        "space": {"format": "enoc-space/1",
                  "atoms": [{"id": "a", "coords": [0.5]}, {"id": "b", "coords": [1.0]}],
                  "weights": [0.5, 0.5]},
        "n": 1, "m": 1, "horizon": 1.0,
        "dynamics": {"expressions": ["w1 * x1 * cos(3 * t) + u1"],
                     "growth_c": 2.0, "lipschitz_k": 1.0},
        "cost": {"expression": "(x1 - w1) ** 2"},
        "controls": {"breakpoints": [0.0], "sets": [[[-1.0], [0.0], [1.0]]]},
    })


def understated_lipschitz():
    p = builtin("linear-ensemble", M=2, a=[2.0, 2.0], c=[1.0, 1.0])
    p.dynamics.lipschitz_k = 0.5
    return p


@pytest.mark.parametrize("make,trials,steps", [
    (lambda: builtin("linear-ensemble", M=2, n=2), 30, 40),
    (lambda: builtin("decoupled-quadratic", M=3, n=2,
                     tau=[[0.3, 0.1], [-0.4, 0.2], [0.0, 1.0]]), 30, 40),
    (lambda: builtin("bilinear", M=3, n=2), 30, 40),
    (understated_lipschitz, 30, 40),
    # 64 atoms x 2 states x 101 nodes: 54 trials per batch, so 60 take two
    (lambda: builtin("linear-ensemble", M=64, n=2), 60, 100),
], ids=["linear-ensemble", "decoupled-quadratic", "bilinear", "violations",
        "two-batches"])
@pytest.mark.parametrize("seed", [0, 7])
def test_suite_equals_trial_by_trial_order(make, trials, steps, seed):
    p = make()
    rep = trajectory_bound_suite(p, trials=trials, steps=steps, seed=seed)
    max_ratio, violations, passed = sequential_suite(p, trials, steps, seed)
    assert rep.details["max_ratio"] == max_ratio
    assert rep.details["violations"] == violations
    assert rep.passed == passed


def test_suite_close_to_trial_by_trial_order_for_time_dependent_field():
    p = t_dependent_expression()
    rep = trajectory_bound_suite(p, trials=30, steps=40, seed=3)
    max_ratio, violations, passed = sequential_suite(p, 30, 40, 3)
    for kind, ratio in max_ratio.items():
        assert np.allclose(rep.details["max_ratio"][kind], ratio, rtol=1e-12, atol=0.0)
    assert ([v["trial"] for v in rep.details["violations"]]
            == [v["trial"] for v in violations])
    assert rep.passed == passed


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_suite_divergence_matches_trial_by_trial_order(seed):
    space = ParameterSpace(weights=[0.5, 0.5], coords=[[0.0], [1.0]])
    dyn = DynamicsSpec(eval_ens=lambda t, X, u: X ** 3,
                       growth_c=1.0, lipschitz_k=1.0)
    cost = TerminalCostSpec(eval_ens=lambda X: np.zeros(np.shape(X)[:-1]),
                            lower_bound_a=np.zeros(2), lower_bound_b=0.0)
    p = ProblemSpec(space=space, n=1, m=1, dynamics=dyn, cost=cost,
                    controls=ControlSchedule.constant([[0.0]]), horizon=1.0)
    with pytest.raises(DivergenceError) as expected:
        sequential_suite(p, 20, 50, seed, phi_scale=1.5)
    with pytest.raises(DivergenceError) as err:
        trajectory_bound_suite(p, trials=20, steps=50, seed=seed, phi_scale=1.5)
    assert (err.value.t, err.value.atom) == (expected.value.t, expected.value.atom)


def test_random_signal_draws_match_one_draw_per_interval():
    # three control sets of different sizes, switched twice inside the grid
    sets = [np.linspace(-1.0, 1.0, K)[:, None] for K in (3, 9, 1)]
    space = ParameterSpace(weights=[1.0], coords=[[0.0]])
    p = ProblemSpec(space=space, n=1, m=1,
                    dynamics=DynamicsSpec(eval_ens=lambda t, X, u: np.zeros_like(X),
                                          growth_c=1.0, lipschitz_k=1.0),
                    cost=TerminalCostSpec(eval_ens=lambda X: np.zeros(np.shape(X)[:-1]),
                                          lower_bound_a=np.zeros(1), lower_bound_b=0.0),
                    controls=ControlSchedule([0.0, 0.3, 0.7], sets), horizon=1.0)
    grid = TimeGrid(0.1, 1.0, 37)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    sig = random_signal(p, grid, rng)
    ref = np.array([p.controls.active_set(t)[ref_rng.integers(
        p.controls.active_set(t).shape[0])] for t in grid.nodes[:-1]])
    np.testing.assert_array_equal(sig.values, ref)
    assert rng.integers(2 ** 31) == ref_rng.integers(2 ** 31)
    # the schedule's sampler keeps that stream on unsorted times too
    times = np.random.default_rng(1).uniform(0.0, 1.0, 60)
    times[10:20] = 0.5                                # a longer run of one set
    got = p.controls.sample(times, rng)
    ref = np.array([p.controls.active_set(t)[ref_rng.integers(
        p.controls.active_set(t).shape[0])] for t in times])
    np.testing.assert_array_equal(got, ref)
    assert rng.integers(2 ** 31) == ref_rng.integers(2 ** 31)
    assert p.controls.sample([], rng).shape == (0, 1)
    with pytest.raises(ScheduleError):
        p.controls.sample([0.5, -0.1], rng)


def test_oscillation_batch_matches_per_signal_integration(lin2):
    phi = EnsembleState([[0.5], [-0.25]], lin2.space)
    grid = TimeGrid(0.2, 1.0, 30)
    rng = np.random.default_rng(4)
    signals = [random_signal(lin2, grid, rng) for _ in range(3)]
    rep = oscillation_diagnostic(lin2, 0.2, phi, signals, [1.5])
    w = lin2.space.weights
    for sig, row in zip(signals, rep.details["curves"]):
        # the integrated velocity is the one-signal integration's displacement
        X = integrate(lin2, 0.2, phi, sig).states
        F = X[-1] - X[0]
        dev = F - ball_average(lin2.space, EnsembleState(F, lin2.space), 1.5).values
        assert row["oscillation"] == float(np.einsum("i,ij,ij->", w, dev, dev))
        assert row["oscillation"] > 0.0
    short = TimeGrid(0.2, grid.nodes[10], 10)
    with pytest.raises(ValueError, match="common number of steps"):
        oscillation_diagnostic(lin2, 0.2, phi, signals + [random_signal(lin2, short, rng)],
                               [1.5])
