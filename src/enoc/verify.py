"""Structural certification of the solved value function.

All six checks of the battery (the four here, the trajectory bound suite
and the CLI's two-stage identity check) return a :class:`CheckReport`
carrying the worst residual, the witness achieving it and enough of the
instance description (including the seed) to reproduce the number exactly.
The two-stage check is one ``dpp_residual`` call: one direct tree from all
sampled starts and one suffix tree per split, its witness the (sample,
split time) of the worst residual.
The bound suite and the two-stage, HJB and oscillation checks pass by the
one rule of ``_sampled_report``; ``epigraph_invariance`` (two tolerances)
and ``terminal_limit`` (a slope and monotone decay) keep their own
verdicts.  A ``tol`` replaces only the derived tolerance, never a
tolerance-free condition (evidence, monotone decay, ball mass).  Checks
never raise on a violation; they raise only on misuse (grids too small to
difference, missing capabilities).
"""

from __future__ import annotations

import numpy as np

from .errors import CapabilityError
from .measure import EnsembleState, ball_average, ball_mass, l2_norm
from .problem import CheckReport, ProblemSpec, _instance_tag, _sampled_report
from .ensemble import (TimeGrid, _check_start, _integrate_batch, integrate,
                       random_signal)
from .value import (ValueGrid, _node_mesh, build_oracle_tree,
                    terminal_functional, value_oracle)


# -- finite-difference residual of the terminal-value recursion --------------

def hjb_residual(vg: ValueGrid, p: ProblemSpec, kappa=5.0,
                 tol=None) -> CheckReport:
    """Central-difference residual of the backward equation at interior nodes.

    At every interior (time, state) grid node the time slope and the stacked
    spatial gradient are formed by central differences; the residual is
    |slope + min over controls of <gradient, velocity>|.  Two kinds of nodes
    are skipped and counted, never silently passed: kink-suspect nodes (the
    stored argmin differs from a grid neighbor's) and boundary-influenced
    nodes (the recursion behind the node, or a finite-difference neighbor,
    involved a clamped lookup, so the tabulated value does not witness the
    equation there).  Pass iff at least one smooth node remains and the worst
    residual over them is at most kappa * (dt + max axis spacing), or ``tol``
    when given; with no node evaluated the report fails and says the
    evidence is insufficient, and a NaN residual is the worst there is.
    """
    N = vg.grid.steps
    counts = vg.shape
    d = len(vg.axes)
    if N < 2 or min(counts) < 3:
        raise ValueError("need at least 3 time nodes and 3 nodes per axis")

    interior = tuple(slice(1, c - 1) for c in counts)
    Z = _node_mesh([ax.nodes[1:-1] for ax in vg.axes])
    Qi = Z.shape[0]
    X = Z.reshape(Qi, p.space.size, p.n)
    dt = vg.grid.dt
    dz = max(ax.spacing for ax in vg.axes)
    if tol is None:
        tol = kappa * (dt + dz)

    inner_shape = tuple(c - 2 for c in counts)

    def shifted(ax_i, lo):
        return tuple(slice(lo, c - 2 + lo) if a == ax_i else slice(1, c - 1)
                     for a, c in enumerate(counts))

    # (up, down) neighbors of the interior block along each axis
    shifts = [(shifted(ax_i, 2), shifted(ax_i, 0)) for ax_i in range(d)]

    # per time slice: the worst evaluated node and how many were evaluated
    slice_worst = np.zeros(N - 1)
    slice_node = np.zeros(N - 1, dtype=int)
    slice_count = np.zeros(N - 1, dtype=int)
    skipped = 0
    skipped_boundary = 0
    for j in range(1, N):
        xi_t = ((vg.values[j + 1] - vg.values[j - 1]) / (2.0 * dt))[interior].reshape(-1)
        grads = np.empty((Qi, d))
        arg = vg.argmin[j]
        kink = np.zeros(inner_shape, dtype=bool)
        # boundary influence: the node itself, a time neighbor, or a spatial
        # finite-difference neighbor depends on a clamped lookup
        taint = (vg.tainted[j - 1][interior] | vg.tainted[j][interior]
                 | vg.tainted[j + 1][interior])
        for ax_i, (up, dn) in enumerate(shifts):
            grads[:, ax_i] = ((vg.values[j][up] - vg.values[j][dn])
                              / (2.0 * vg.axes[ax_i].spacing)).reshape(-1)
            # kink suspicion: argmin differs from any axis neighbor
            kink |= (arg[up] != arg[interior]) | (arg[dn] != arg[interior])
            taint |= vg.tainted[j][up] | vg.tainted[j][dn]
        kink = kink.reshape(-1)
        taint = taint.reshape(-1)

        t = vg.grid.nodes[j]
        ham, _ = p.dynamics.min_pairing(t, X, grads.reshape(X.shape),
                                        p.controls.active_set(t))
        res = np.abs(xi_t + ham)

        mask = ~kink & ~taint
        skipped += int(kink.sum())
        skipped_boundary += int((taint & ~kink).sum())
        q = int(np.argmax(np.where(mask, res, -np.inf)))     # a NaN is the maximum
        slice_worst[j - 1], slice_node[j - 1], slice_count[j - 1] = res[q], q, mask.sum()

    return _sampled_report(
        p, "hjb_residual", tol, slice_worst,
        lambda i: {"t": float(vg.grid.nodes[i + 1]), "z": Z[slice_node[i]].tolist(),
                   "time_index": i + 1},
        None, evaluated=slice_count, why_empty="every node was skipped",
        skipped_kinks=skipped, skipped_boundary=skipped_boundary,
        kappa=kappa, dt=dt, dz=dz)


# -- invariance of the value along trajectories -------------------------------

def epigraph_invariance(p: ProblemSpec, s, phi: EnsembleState, grid: TimeGrid,
                        budget=1_000_000, tol=None) -> CheckReport:
    """Constancy along the optimal path and monotonicity along all paths.

    Weak direction: along the enumerated-optimal trajectory the value stays
    within 1e-8 of its initial level.  Strong direction: along every signal
    in the enumeration class the value at successive nodes never decreases
    by more than 1e-10.  ``tol`` replaces both bounds.  One tree gives the
    path and every margin; the values along the path are enumerated afresh
    from its states, by the same RK4 arithmetic.  So, like ``dpp_residual``,
    the check certifies the tree's min-reduction by construction: over three
    builtins x 20 random states x 2-5 steps the drift and the least margin
    were both exactly 0.  A NaN drift or margin (inf - inf, where every
    continuation costs +inf) is the worst there is and fails.
    """
    drift_tol, mono_tol = (1e-8, 1e-10) if tol is None else (tol, tol)
    tree = build_oracle_tree(p, s, phi, grid, budget)
    direct = tree.optimum()[1]
    path = integrate(p, s, phi, direct.best)
    along = [direct.value]
    for j in range(1, grid.steps + 1):
        state_j = EnsembleState(path.states[j], p.space)
        along.append(terminal_functional(p, state_j) if j == grid.steps else
                     value_oracle(p, grid.nodes[j], state_j, grid.suffix(j),
                                  budget).value)
    # inf - inf is a NaN gap or margin: the worst there is, so it fails
    with np.errstate(invalid="ignore"):
        gaps = np.abs(np.array(along) - direct.value)
        lows = []                       # (least margin, node, control) per level
        for j in range(grid.steps):
            parent = tree.values[j]
            margins = tree.values[j + 1].reshape(parent.shape[0], -1) - parent[:, None]
            q = int(np.argmin(margins))                 # a NaN is the minimum
            lows.append((margins.flat[q], *np.unravel_index(q, margins.shape)))
    jd = int(np.argmax(gaps))                           # a NaN is the maximum
    drift = float(gaps[jd])
    drift_witness = {"time_index": 0}
    if not drift <= 0.0:
        drift_witness = {"time_index": jd, "t": float(grid.nodes[jd]),
                         "value": along[jd], "initial_value": direct.value}
    j = int(np.argmin([low for low, _, _ in lows]))
    low, q, k = lows[j]
    min_margin = float(low)
    margin_witness = {"time_index": j, "prefix": tree.decode_level(j, int(q)),
                      "control_index": int(k)}

    passed = drift <= drift_tol and min_margin >= -mono_tol
    worst = (np.nan if np.isnan(drift) or np.isnan(min_margin)
             else max(drift, -min_margin, 0.0))
    return CheckReport(
        name="epigraph_invariance", instance=_instance_tag(p),
        tolerance={"drift": drift_tol, "monotone": mono_tol},
        worst=worst, witness={"drift": drift_witness, "margin": margin_witness},
        passed=passed,
        details={"drift": drift, "min_margin": min_margin,
                 "signals": tree.values[-1].size})


# -- boundary behavior at the terminal time -----------------------------------

def terminal_limit(p: ProblemSpec, phibar: EnsembleState, horizon_gaps,
                   steps=8, budget=1_000_000,
                   cost_lipschitz=None, tol=None) -> CheckReport:
    """Shrinking-horizon convergence of the value to the terminal functional.

    For each gap D in ``horizon_gaps`` the value from (T - D, phibar) is
    compared with the terminal functional at phibar; the difference must
    decay monotonically, with fitted slope at most twice the derived
    constant L = Lg * c * e^{c D_max} (sqrt(mass) + ||phibar||), where Lg is
    the local Lipschitz certificate of the cost (``cost_lipschitz``) and c
    the growth certificate.  ``tol`` replaces 2 L as the slope bound; the
    decay must stay monotone.
    """
    if cost_lipschitz is None:
        raise ValueError("terminal_limit needs a local cost Lipschitz certificate")
    gaps = sorted((float(g) for g in horizon_gaps), reverse=True)
    if not gaps or gaps[0] <= 0 or gaps[0] >= p.horizon:
        raise ValueError("horizon gaps must lie strictly inside (0, T)")
    jcal = terminal_functional(p, phibar)
    c = p.dynamics.growth_c
    L = (cost_lipschitz * c * np.exp(c * gaps[0])
         * (np.sqrt(p.space.mass) + l2_norm(phibar)))
    table = []
    for gap in gaps:
        sk = p.horizon - gap
        res = value_oracle(p, sk, phibar, TimeGrid(sk, p.horizon, steps), budget)
        table.append({"gap": gap, "value": res.value,
                      "difference": abs(res.value - jcal)})
    diffs = np.array([row["difference"] for row in table])
    gaps_arr = np.array(gaps)
    slope = float((diffs * gaps_arr).sum() / (gaps_arr * gaps_arr).sum())
    monotone = bool(np.all(np.diff(diffs) <= 1e-12))
    if tol is None:
        tol = 2.0 * L
    passed = slope <= tol and monotone
    worst_i = int(np.argmax(diffs / gaps_arr))
    return CheckReport(
        name="terminal_limit", instance=_instance_tag(p), tolerance=tol,
        worst=slope, witness=table[worst_i], passed=passed,
        details={"terminal_functional": jcal, "derived_constant": L,
                 "empirical_slope": slope, "monotone_decay": monotone,
                 "table": table})


# -- mean-oscillation compactness diagnostic ----------------------------------

def oscillation_diagnostic(p: ProblemSpec, s, phi: EnsembleState, controls,
                           radii, steps=100, seed=0, tol=None) -> CheckReport:
    """Mean oscillation of the accumulated velocity against the modulus bound.

    For each sampled signal the integral of the velocity along the
    trajectory is the integrator's displacement x(T) - phi, RK4's own
    quadrature of the field on the same path; for each radius r the
    mass-weighted squared deviation from its own ball average must stay
    below mass * theta(r)^2 (up to ``tol``, 1e-12 unless given), and every
    ball must carry positive mass: one without scores +inf.  With no radius
    the report fails for lack of evidence.
    ``controls`` is a count of random signals on one grid or a list of
    signals with a common number of steps; they are integrated as one batch.
    """
    theta = p.dynamics.omega_modulus
    if theta is None:
        raise CapabilityError("oscillation diagnostic needs a parameter modulus")
    radii = np.asarray(list(radii), dtype=float)
    if np.any(radii <= 0):
        raise ValueError("radii must be positive")
    if isinstance(controls, int):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(s, p.horizon, steps)
        signals = [random_signal(p, grid, rng) for _ in range(controls)]
    else:
        signals = list(controls)

    if not signals or len({sig.grid.steps for sig in signals}) > 1:
        raise ValueError("need one or more signals with a common number of steps")
    for sig in signals:
        _check_start(p, s, phi, sig)
    nodes = np.stack([sig.grid.nodes for sig in signals])
    U = np.stack([sig.values for sig in signals])
    states = _integrate_batch(
        p, nodes, np.broadcast_to(phi.values, (len(signals),) + phi.values.shape), U)
    F = states[-1] - states[0]

    h_vals = {r: ball_mass(p.space, r) for r in radii.tolist()}
    curves = []
    excess = np.empty((len(signals), radii.size))
    for sig_i in range(len(signals)):
        F_state = EnsembleState(F[sig_i], p.space)
        for r_i, r in enumerate(radii.tolist()):
            avg = ball_average(p.space, F_state, r)
            dev = F_state.values - avg.values
            osc = float(np.einsum("i,ij,ij->", p.space.weights, dev, dev))
            bound = p.space.mass * float(theta(r)) ** 2
            curves.append({"signal": sig_i, "r": r, "oscillation": osc,
                           "bound": bound, "ball_mass": h_vals[r]})
            # a ball without mass fails under any finite tolerance
            excess[sig_i, r_i] = osc - bound if h_vals[r] > 0 else np.inf
    return _sampled_report(
        p, "oscillation", 1e-12 if tol is None else tol, excess.reshape(-1),
        lambda q: curves[q], seed, curves=curves, ball_mass=h_vals,
        signals=len(signals))
