"""Structural certification of the solved value function.

All six checks of the battery (the four here, the trajectory bound suite
and the CLI's two-stage identity check) return a :class:`CheckReport`
carrying the worst residual, the witness achieving it and enough of the
instance description (including the seed) to reproduce the number exactly.
The two-stage check is one ``dpp_residual`` call: one direct tree from all
sampled starts and one suffix tree per split, its witness the (sample,
split time) of the worst residual.
Each check decides ``passed`` itself; a ``tol`` argument replaces only the
derived tolerance, never a tolerance-free condition (evidence, monotone
decay, ball mass).  Checks never raise on a violation; they raise only on
misuse (grids too small to difference, missing capabilities).
"""

from __future__ import annotations

import numpy as np

from .errors import CapabilityError
from .measure import EnsembleState, ball_average, ball_mass, l2_norm
from .problem import CheckReport, ProblemSpec, _instance_tag
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
    evidence is insufficient.
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
    if tol is None:
        tol = kappa * (dt + max(ax.spacing for ax in vg.axes))

    inner_shape = tuple(c - 2 for c in counts)

    def shifted(ax_i, lo):
        return tuple(slice(lo, c - 2 + lo) if a == ax_i else slice(1, c - 1)
                     for a, c in enumerate(counts))

    # (up, down) neighbors of the interior block along each axis
    shifts = [(shifted(ax_i, 2), shifted(ax_i, 0)) for ax_i in range(d)]

    worst = 0.0
    witness = {}
    skipped = 0
    skipped_boundary = 0
    evaluated = 0
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
        evaluated += int(mask.sum())
        if mask.any():
            masked = np.where(mask, res, -np.inf)
            q = int(np.argmax(masked))
            if res[q] > worst:
                worst = float(res[q])
                witness = {"t": float(t), "z": Z[q].tolist(), "time_index": j}

    details = {"skipped_kinks": skipped, "skipped_boundary": skipped_boundary,
               "evaluated": evaluated, "kappa": kappa, "dt": dt,
               "dz": max(ax.spacing for ax in vg.axes)}
    if not evaluated:
        details["note"] = "insufficient evidence: every node was skipped"
    return CheckReport(
        name="hjb_residual", instance=_instance_tag(p), tolerance=tol,
        worst=worst, witness=witness, passed=bool(evaluated) and worst <= tol,
        details=details)


# -- invariance of the value along trajectories -------------------------------

def epigraph_invariance(p: ProblemSpec, s, phi: EnsembleState, grid: TimeGrid,
                        budget=1_000_000, tol=None) -> CheckReport:
    """Constancy along the optimal path and monotonicity along all paths.

    Weak direction: along the enumerated-optimal trajectory the value stays
    within 1e-8 of its initial level.  Strong direction: along every signal
    in the enumeration class the value at successive nodes never decreases
    by more than 1e-10.  ``tol`` replaces both bounds.  One tree gives the
    path and every margin; the values along the path are enumerated afresh
    from its states, so both directions are checked at full scale.
    """
    drift_tol, mono_tol = (1e-8, 1e-10) if tol is None else (tol, tol)
    tree = build_oracle_tree(p, s, phi, grid, budget)
    direct = tree.optimum()[1]
    path = integrate(p, s, phi, direct.best)
    drift = 0.0
    drift_witness = {"time_index": 0}
    for j in range(grid.steps + 1):
        state_j = EnsembleState(path.states[j], p.space)
        if j == 0:
            vj = direct.value
        elif j == grid.steps:
            vj = terminal_functional(p, state_j)
        else:
            vj = value_oracle(p, grid.nodes[j], state_j, grid.suffix(j),
                              budget).value
        gap = abs(vj - direct.value)
        if gap > drift:
            drift = gap
            drift_witness = {"time_index": j, "t": float(grid.nodes[j]),
                             "value": vj, "initial_value": direct.value}

    min_margin = np.inf
    margin_witness = {}
    for j in range(grid.steps):
        parent = tree.values[j]
        child = tree.values[j + 1].reshape(parent.shape[0], -1)
        margins = child - parent[:, None]
        q, k = np.unravel_index(int(np.argmin(margins)), margins.shape)
        if margins[q, k] < min_margin:
            min_margin = float(margins[q, k])
            margin_witness = {"time_index": j,
                              "prefix": tree.decode_level(j, int(q)),
                              "control_index": int(k)}

    passed = drift <= drift_tol and min_margin >= -mono_tol
    worst = max(drift, -min_margin if min_margin < 0 else 0.0)
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

    For each sampled signal the running integral of the velocity along the
    trajectory is formed by composite trapezoid; for each radius r the
    mass-weighted squared deviation from its own ball average must stay
    below mass * theta(r)^2 (up to ``tol`` when given, float noise
    otherwise), and every ball must carry positive mass.
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
    # running integral of the velocity by composite trapezoid, all signals at once
    fld = p.dynamics.field
    F = np.zeros(states.shape[1:])
    f_lo = fld(nodes[:, 0], states[0], U[:, 0])
    for j in range(U.shape[1]):
        h = (nodes[:, j + 1] - nodes[:, j])[:, None, None]
        f_hi = fld(nodes[:, j + 1], states[j + 1], U[:, j])
        F += 0.5 * h * (f_lo + f_hi)
        if j + 1 < U.shape[1]:
            f_lo = fld(nodes[:, j + 1], states[j + 1], U[:, j + 1])

    mass = p.space.mass
    worst = -np.inf
    witness = {}
    curves = []
    h_vals = {float(r): ball_mass(p.space, float(r)) for r in radii}
    for sig_i in range(len(signals)):
        F_state = EnsembleState(F[sig_i], p.space)
        for r in radii:
            avg = ball_average(p.space, F_state, float(r))
            dev = F_state.values - avg.values
            osc = float(np.einsum("i,ij,ij->", p.space.weights, dev, dev))
            bound = mass * float(theta(float(r))) ** 2
            curves.append({"signal": sig_i, "r": float(r), "oscillation": osc,
                           "bound": bound, "ball_mass": h_vals[float(r)]})
            if osc - bound > worst:
                worst = osc - bound
                witness = curves[-1]

    mass_ok = all(v > 0 for v in h_vals.values())
    passed = worst <= (1e-12 if tol is None else tol) and mass_ok
    return CheckReport(
        name="oscillation", instance=_instance_tag(p),
        tolerance=0.0 if tol is None else tol,
        worst=float(worst), witness=witness, passed=passed, seed=seed,
        details={"curves": curves, "ball_mass": h_vals,
                 "signals": len(signals)})
