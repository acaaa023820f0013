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
and ``terminal_limit`` (a slope, monotone decay and the cost bounds) keep
their own verdicts.  A ``tol`` replaces only the derived tolerance, never a
tolerance-free condition (evidence, monotone decay, ball mass, the cost
bounds).  Each declared certificate is checked in the one check that reads
it: growth and Lipschitz constants in the bound suite, the cost's lower
bound and Lipschitz bound in ``terminal_limit`` and the parameter modulus
in ``oscillation_diagnostic``.  Checks never raise on a violation; they raise
only on misuse (grids too small to difference, missing capabilities).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapabilityError
from .measure import EnsembleState, ball_average, ball_mass, l2_norm
from .problem import CheckReport, ProblemSpec, _instance_tag, _sampled_report
from .ensemble import (TimeGrid, _check_start, _integrate_batch, _weighted_norms,
                       integrate, random_signal)
from .value import (ValueGrid, _node_mesh, build_oracle_tree,
                    terminal_functional, value_oracle)

_SLAB = 2 ** 17        # floats one slab of hjb_residual's slices works with (1 MB)
_COST_SAMPLES = 256    # states (and state pairs) terminal_limit checks the cost at
_MODULUS_STATES = 32   # states the modulus estimate compares two atoms at
_MODULUS_TIMES = 33    # trapezoid nodes of its time integral over [0, T]
_MODULUS_PAIRS = 64    # atom pairs it compares at most (drawn when there are more)


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

    The interior time slices run in slabs of whole slices, whose nodes work
    with at most _SLAB floats together (or one slice, when it alone needs
    more), so no temporary grows with the number of slices.  A slab builds
    its kink and taint masks at once; the slopes, gradients and Hamiltonian
    are formed at its evaluated nodes only, with one ``min_pairing`` call per
    run of slices sharing an active control set (t given per row).  Every
    node's arithmetic is that of one slice at a time.
    """
    N = vg.grid.steps
    counts = vg.shape
    d = len(vg.axes)
    if N < 2 or min(counts) < 3:
        raise ValueError("need at least 3 time nodes and 3 nodes per axis")

    Z = _node_mesh([ax.nodes[1:-1] for ax in vg.axes])
    Qi = Z.shape[0]
    X = Z.reshape(Qi, p.space.size, p.n)
    dt = vg.grid.dt
    dz = max(ax.spacing for ax in vg.axes)
    if tol is None:
        tol = kappa * (dt + dz)

    # the interior block of a stack of slices, and its (up, down) neighbors
    # along each axis
    interior = (slice(None),) + tuple(slice(1, c - 1) for c in counts)

    def shifted(ax_i, lo):
        return (slice(None),) + tuple(slice(lo, c - 2 + lo) if a == ax_i
                                      else slice(1, c - 1) for a, c in enumerate(counts))

    shifts = [(shifted(ax_i, 2), shifted(ax_i, 0)) for ax_i in range(d)]
    # an interior node's flat index in a slice, and one step along each axis
    flat = np.arange(math.prod(counts)).reshape(counts)[interior[1:]].reshape(-1)
    steps = [math.prod(counts[a + 1:]) for a in range(d)]
    V = vg.values.reshape(N + 1, -1)
    nodes = vg.grid.nodes
    active = np.array([p.controls.active_index(t) for t in nodes[:N]])
    K = max(p.controls.sets[a].shape[0] for a in set(active[1:].tolist()))
    # an evaluated node of a slab holds its row, gradient, velocity and their
    # product (d floats each), K pairings twice (listed, then stacked) and
    # six slopes, residuals and indices
    per_slab = max(1, _SLAB // (Qi * (4 * d + 2 * K + 6)))

    # per time slice: the worst evaluated node and how many were evaluated
    slice_worst = np.zeros(N - 1)
    slice_node = np.zeros(N - 1, dtype=int)
    slice_count = np.zeros(N - 1, dtype=int)
    skipped = 0
    skipped_boundary = 0
    for lo in range(1, N, per_slab):
        hi = min(lo + per_slab, N)                      # slices lo .. hi - 1
        arg, tnt = vg.argmin[lo:hi], vg.tainted[lo:hi]
        # boundary influence: the node itself, a time neighbor, or a spatial
        # finite-difference neighbor depends on a clamped lookup
        taint = (vg.tainted[lo - 1:hi - 1][interior] | tnt[interior]
                 | vg.tainted[lo + 1:hi + 1][interior])
        # kink suspicion: argmin differs from any axis neighbor
        kink = np.zeros(taint.shape, dtype=bool)
        for up, dn in shifts:
            kink |= (arg[up] != arg[interior]) | (arg[dn] != arg[interior])
            taint |= tnt[up] | tnt[dn]
        kink, taint = kink.reshape(hi - lo, Qi), taint.reshape(hi - lo, Qi)
        skipped += int(kink.sum())
        skipped_boundary += int((taint & ~kink).sum())
        b, q = np.nonzero(~kink & ~taint)               # slice-major
        j, f = b + lo, flat[q]
        xi_t = (V[j + 1, f] - V[j - 1, f]) / (2.0 * dt)
        grads = np.empty((q.size, d))
        for ax_i, step in enumerate(steps):
            grads[:, ax_i] = ((V[j, f + step] - V[j, f - step])
                              / (2.0 * vg.axes[ax_i].spacing))
        # slice lo + i holds rows starts[i] up to ends[i]
        count = np.bincount(b, minlength=hi - lo)
        ends = np.cumsum(count)
        starts = ends - count
        res = np.empty(q.size)
        runs = [0, *(np.flatnonzero(np.diff(active[lo:hi])) + 1).tolist(), hi - lo]
        for r_lo, r_hi in zip(runs[:-1], runs[1:]):
            rows = slice(starts[r_lo], ends[r_hi - 1])
            if rows.stop > rows.start:
                ham, _ = p.dynamics.min_pairing(
                    nodes[j[rows]], X[q[rows]], grads[rows].reshape(-1, *X.shape[1:]),
                    p.controls.sets[active[lo + r_lo]])
                res[rows] = np.abs(xi_t[rows] + ham)
        for i in np.flatnonzero(count):
            k = starts[i] + int(np.argmax(res[starts[i]:ends[i]]))   # a NaN is the maximum
            slice_worst[lo + i - 1], slice_node[lo + i - 1] = res[k], q[k]
        slice_count[lo - 1:hi - 1] = count

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
                   steps=8, budget=1_000_000, tol=None, seed=0,
                   x_radius=5.0) -> CheckReport:
    """Shrinking-horizon convergence of the value to the terminal functional.

    For each gap D in ``horizon_gaps`` the value from (T - D, phibar) is
    compared with the terminal functional at phibar; the difference must
    decay monotonically, with fitted slope at most twice the derived
    constant L = Lg * c * e^{c D_max} (sqrt(mass) + ||phibar||), where Lg =
    ``p.cost.lipschitz(x_radius)`` (CapabilityError naming ``cost.lipschitz``
    when not declared) and c the growth certificate.  ``tol`` replaces 2 L
    as the slope bound; the decay must stay monotone.

    Both cost certificates are checked too, whatever ``tol``, by draws from
    ``default_rng(seed)``, a NaN the worst: the largest deficit
    a_i - b |x|^2 - g at every atom of _COST_SAMPLES states uniform on the box
    [-x_radius, x_radius]^n must be at most 1e-12 (``cost_deficit`` at
    ``cost_witness``); then the largest |G(phi) - G(psi)| / (Lg ||phi - psi||_w)
    over _COST_SAMPLES pairs whose atoms lie in the ball |x_i| <= x_radius
    (box draws pulled radially onto it), 0/0 scored by the bound suite's
    rule, at most 1 + 1e-12 (``lipschitz_ratio`` at ``lipschitz_witness``).
    """
    if p.cost.lipschitz is None:
        raise CapabilityError("no cost Lipschitz certificate: declare 'cost.lipschitz'")
    lip = float(p.cost.lipschitz(x_radius))
    gaps = sorted((float(g) for g in horizon_gaps), reverse=True)
    if not gaps or gaps[0] <= 0 or gaps[0] >= p.horizon:
        raise ValueError("horizon gaps must lie strictly inside (0, T)")
    jcal = terminal_functional(p, phibar)
    c = p.dynamics.growth_c
    L = lip * c * np.exp(c * gaps[0]) * (np.sqrt(p.space.mass) + l2_norm(phibar))
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

    rng = np.random.default_rng(seed)
    xs = x_radius * rng.uniform(-1.0, 1.0, (_COST_SAMPLES, p.n))
    X = np.broadcast_to(xs[:, None, :], (_COST_SAMPLES, p.space.size, p.n))
    g = p.cost.values(X)
    with np.errstate(over="ignore", invalid="ignore"):     # past 1e154, |x|^2 is inf
        deficit = (p.cost.lower_bound_a
                   - p.cost.lower_bound_b * (xs * xs).sum(axis=1)[:, None] - g)
    q, atom = np.unravel_index(int(np.argmax(deficit)), deficit.shape)  # NaN first
    worst_deficit = float(deficit[q, atom])

    pairs = rng.uniform(-1.0, 1.0, (2, _COST_SAMPLES, p.space.size, p.n))
    pairs *= x_radius / np.maximum(1.0, np.linalg.norm(pairs, axis=-1, keepdims=True))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        G = p.cost.values(pairs) @ p.space.weights
        lhs = np.abs(G[0] - G[1])
        rhs = lip * _weighted_norms(p.space.weights, pairs[0] - pairs[1])
        ratio = np.where(rhs <= 0.0, np.where(lhs <= 1e-12, 0.0, np.inf), lhs / rhs)
    k = int(np.argmax(ratio))                           # a NaN is the maximum
    worst_ratio = float(ratio[k])

    passed = slope <= tol and monotone and worst_deficit <= 1e-12 and worst_ratio <= 1 + 1e-12
    worst_i = int(np.argmax(diffs / gaps_arr))
    return CheckReport(
        name="terminal_limit", instance=_instance_tag(p), tolerance=tol,
        worst=slope, witness=table[worst_i], passed=passed, seed=seed,
        details={"terminal_functional": jcal, "derived_constant": L,
                 "empirical_slope": slope, "monotone_decay": monotone,
                 "table": table, "cost_deficit": worst_deficit,
                 "cost_witness": {"x": xs[q].tolist(), "atom": int(atom)},
                 "lipschitz_ratio": worst_ratio, "lipschitz_witness": pairs[:, k].tolist(),
                 "cost_samples": _COST_SAMPLES, "x_radius": x_radius})


# -- mean-oscillation compactness diagnostic ----------------------------------

def _modulus_excess(p: ProblemSpec, seed, x_radius):
    """The declared parameter modulus against a sampled oscillation estimate.

    For atom pairs (i, j) the integral over [0, T] of the largest
    |f(t, x, u, w_i) - f(t, x, u, w_j)| over the admissible u and
    _MODULUS_STATES states x is estimated by the trapezoid rule on
    _MODULUS_TIMES nodes; returns the excesses estimate - theta(d(w_i, w_j))
    and a witness per pair.  The two atoms are compared at the same state: the
    oscillation the trajectory diagnostic needs, and the one a state-linear
    field keeps finite on a box.  All pairs are compared, or _MODULUS_PAIRS of
    them drawn, and then the states uniformly on [-x_radius, x_radius]^n,
    from ``default_rng(seed)``; one atom has no pair.  One field call takes
    every control and state at a run of time nodes sharing an active set, up
    to about _SLAB floats of velocities.
    """
    M, S = p.space.size, _MODULUS_STATES
    rng = np.random.default_rng(seed)
    I, J = np.triu_indices(M, 1)
    if I.size > _MODULUS_PAIRS:
        keep = np.sort(rng.choice(I.size, size=_MODULUS_PAIRS, replace=False))
        I, J = I[keep], J[keep]
    xs = x_radius * rng.uniform(-1.0, 1.0, (S, p.n))
    ts = np.linspace(0.0, p.horizon, _MODULUS_TIMES)
    active = np.array([p.controls.active_index(t) for t in ts])
    vals = np.empty((I.size, ts.size))
    runs = [0, *(np.flatnonzero(np.diff(active)) + 1).tolist(), ts.size]
    for r_lo, r_hi in zip(runs[:-1], runs[1:]):
        pts = p.controls.sets[active[r_lo]]
        per_call = max(1, _SLAB // (pts.shape[0] * S * (M + 2 * I.size) * p.n))
        for lo in range(r_lo, r_hi, per_call):
            hi = min(lo + per_call, r_hi)
            lead = (hi - lo, pts.shape[0], S)
            V = p.dynamics.field(np.broadcast_to(ts[lo:hi, None, None], lead),
                                 np.broadcast_to(xs[:, None, :], lead + (M, p.n)),
                                 np.broadcast_to(pts[:, None, :], lead + (p.m,)))
            # a gap past the float range reads inf (or NaN) and fails
            with np.errstate(over="ignore", invalid="ignore"):
                vals[:, lo:hi] = np.linalg.norm(V[..., I, :] - V[..., J, :],
                                                axis=-1).max(axis=(1, 2)).T
    with np.errstate(over="ignore", invalid="ignore"):
        est = np.trapezoid(vals, ts, axis=1)
    dist = p.space.metric[I, J]
    bound = np.array([float(p.dynamics.omega_modulus(d)) for d in dist])
    witnesses = [{"atoms": [int(i), int(j)], "estimate": float(e), "bound": float(b),
                  "distance": float(d)} for i, j, e, b, d in zip(I, J, est, bound, dist)]
    return est - bound, witnesses


def oscillation_diagnostic(p: ProblemSpec, s, phi: EnsembleState, controls,
                           radii, steps=100, seed=0, tol=None,
                           x_radius=5.0) -> CheckReport:
    """Mean oscillation of the accumulated velocity against the modulus bound.

    For each sampled signal the integral of the velocity along the
    trajectory is the integrator's displacement x(T) - phi, RK4's own
    quadrature of the field on the same path; for each radius r the
    mass-weighted squared deviation from its own ball average must stay
    below mass * theta(r)^2, and every ball must carry positive mass: one
    without scores +inf.  The same report scores the modulus itself: for
    each atom pair, a sampled estimate of the field's integrated oscillation
    on the state box [-x_radius, x_radius]^n must stay below theta of the
    pair's distance (:func:`_modulus_excess`, drawn from its own
    ``default_rng(seed)``, so the signals' draws are those without it).
    Every excess must be at most ``tol``, 1e-12 unless given.  No radius
    raises ValueError, as no signal does.
    ``controls`` is a count of random signals on one grid or a list of
    signals with a common number of steps; they are integrated as one batch.
    """
    theta = p.dynamics.omega_modulus
    if theta is None:
        raise CapabilityError("oscillation diagnostic needs a parameter modulus")
    radii = np.asarray(list(radii), dtype=float)
    if radii.size == 0:
        raise ValueError("need one or more radii")
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
    modulus, pairs = _modulus_excess(p, seed, x_radius)
    witnesses = curves + pairs
    return _sampled_report(
        p, "oscillation", 1e-12 if tol is None else tol,
        np.concatenate([excess.reshape(-1), modulus]), lambda q: witnesses[q], seed,
        curves=curves, ball_mass=h_vals, signals=len(signals), modulus=pairs,
        x_radius=x_radius)
