"""Trajectory integration for control-driven ensembles, plus the bound suite
and the :class:`CheckReport` that it and every other certification check
return.

For a fixed control the atoms decouple, so one classical 4th-order step
advances the whole (M, n) state block at once.  Fixed-step integration only:
the verification suites need deterministic, analyzable error, and adaptive
stepping would confound their slack factors.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError
from .measure import EnsembleState
from .problem import ProblemSpec

_FLOAT_FMT = "%.17g"


class TimeGrid:
    """Uniform nodes t_0 .. t_N on [s, T].

    ``prefix``/``suffix`` share the parent's node values bitwise, so
    integrating a sub-horizon reproduces the parent's steps exactly.
    """

    def __init__(self, s, T, steps, _nodes=None):
        if not steps >= 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        if not (0.0 <= s < T):
            raise ValueError(f"need 0 <= s < T, got s={s}, T={T}")
        self.s = float(s)
        self.T = float(T)
        self.steps = int(steps)
        if _nodes is None:
            _nodes = np.linspace(self.s, self.T, self.steps + 1)
        self.nodes = _nodes
        self.nodes.setflags(write=False)

    @property
    def dt(self):
        return (self.T - self.s) / self.steps

    def suffix(self, j):
        """Sub-grid over [t_j, T]."""
        if not 0 <= j < self.steps:
            raise ValueError(f"split index {j} out of range")
        return TimeGrid(self.nodes[j], self.T, self.steps - j, _nodes=self.nodes[j:])

    def prefix(self, j):
        """Sub-grid over [s, t_j]."""
        if not 0 < j <= self.steps:
            raise ValueError(f"split index {j} out of range")
        return TimeGrid(self.s, self.nodes[j], j, _nodes=self.nodes[: j + 1])

    def __repr__(self):
        return f"TimeGrid(s={self.s:.6g}, T={self.T:.6g}, steps={self.steps})"


class ControlSignal:
    """One control point per grid interval."""

    def __init__(self, grid: TimeGrid, values):
        vals = np.asarray(values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape[0] != grid.steps:
            raise ValueError(
                f"signal has {vals.shape[0]} values for {grid.steps} intervals"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        self.grid = grid
        self.values = vals

    @classmethod
    def constant(cls, grid, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return cls(grid, np.tile(u, (grid.steps, 1)))

    @property
    def m(self):
        return self.values.shape[1]

    def restrict(self, j):
        """Tail of the signal from node j onward."""
        return ControlSignal(self.grid.suffix(j), self.values[j:])

    def check_admissible(self, p: ProblemSpec, tol=1e-9):
        """Verify each value lies in the convex hull of the set active then.

        Hull containment (not exact set membership) is the invariant: the
        descent solver legitimately returns hull points, while enumeration
        and grid solvers only ever construct exact set members.
        """
        for j in range(self.grid.steps):
            if not p.controls.hull_contains(self.grid.nodes[j], self.values[j], tol):
                raise ValueError(
                    f"control value on interval {j} is outside the admissible hull"
                )
        return True


@dataclass
class Trajectory:
    """Time-indexed ensemble states produced by :func:`integrate`."""

    grid: TimeGrid
    states: np.ndarray  # (steps + 1, M, n)
    control: ControlSignal
    space: object = None

    def state_at(self, j) -> EnsembleState:
        return EnsembleState(self.states[j], self.space)

    @property
    def terminal(self) -> EnsembleState:
        return EnsembleState(self.states[-1], self.space)

    def verify_consistency(self, p) -> bool:
        """Re-evaluate every step and compare bit-for-bit.

        The integrator is deterministic, so a stored trajectory must
        reproduce exactly under re-evaluation; anything else means the
        states array was tampered with or belongs to another problem.
        """
        try:
            redo = _integrate_batch(p, self.grid.nodes[None], self.states[None, 0],
                                    self.control.values[None])
        except DivergenceError:
            return False
        return np.array_equal(redo[:, 0], self.states)

    def to_csv(self, path):
        """Write rows (t, atom, x_0.., u_0..); the control column of the last
        node repeats the final interval's value so rows stay rectangular."""
        N, M, n = self.states.shape
        m = self.control.m
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["t", "atom"] + [f"x{k}" for k in range(n)]
                        + [f"u{k}" for k in range(m)])
            for j in range(N):
                u = self.control.values[min(j, N - 2)]
                for i in range(M):
                    wr.writerow([_FLOAT_FMT % self.grid.nodes[j], i]
                                + [_FLOAT_FMT % v for v in self.states[j, i]]
                                + [_FLOAT_FMT % v for v in u])

    @classmethod
    def from_csv(cls, path, space):
        with open(path, newline="") as fh:
            rd = csv.reader(fh)
            header = next(rd)
            n = sum(1 for h in header if h.startswith("x"))
            m = sum(1 for h in header if h.startswith("u"))
            rows = [(float(r[0]), int(r[1]),
                     [float(v) for v in r[2:2 + n]],
                     [float(v) for v in r[2 + n:2 + n + m]]) for r in rd]
        ts = sorted({r[0] for r in rows})
        M = space.size
        states = np.empty((len(ts), M, n))
        controls = np.empty((len(ts) - 1, m))
        t_index = {t: j for j, t in enumerate(ts)}
        for t, atom, x, u in rows:
            j = t_index[t]
            states[j, atom] = x
            if j < len(ts) - 1:
                controls[j] = u
        grid = TimeGrid(ts[0], ts[-1], len(ts) - 1, _nodes=np.array(ts))
        sig = ControlSignal(grid, controls)
        return cls(grid=grid, states=states, control=sig, space=space)


def _rk4_step(fld, t, h, X, u):
    """One classical 4th-order step; t and h are scalars or of X's lead shape."""
    hx = np.expand_dims(h, (-2, -1)) if np.ndim(h) else h
    k1 = fld(t, X, u)
    k2 = fld(t + 0.5 * h, X + 0.5 * hx * k1, u)
    k3 = fld(t + 0.5 * h, X + 0.5 * hx * k2, u)
    k4 = fld(t + h, X + hx * k3, u)
    return X + (hx / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate_batch(p: ProblemSpec, nodes, X0, U, start=None):
    """Advance B ensembles at once on per-row grids; states (N+1, B, M, n).

    ``nodes`` (B, N+1) are each row's time nodes, ``X0`` (B, M, n) its
    initial state and ``U`` (B, N, m) its control per interval.  Row b holds
    X0[b] until node ``start[b]`` (default 0) and steps from there on.  RK4 is
    elementwise, so with a field whose rows are independent (the evaluator
    contract) every row matches its one-row integration bitwise.  A
    non-finite row raises :class:`DivergenceError`
    at its first non-finite node; with several, the lowest row wins, which is
    the error a row-by-row loop would hit first.
    """
    fld = p.dynamics.field
    N = U.shape[1]
    states = np.empty((N + 1,) + X0.shape)
    states[0] = X0
    X = X0
    for j in range(N):
        t = nodes[:, j]
        X_next = _rk4_step(fld, t, nodes[:, j + 1] - t, X, U[:, j])
        X = X_next if start is None else np.where(
            (j >= start)[:, None, None], X_next, X)
        states[j + 1] = X
    finite = np.isfinite(states[1:]).all(axis=(2, 3))           # (N, B)
    if start is not None:
        finite |= np.arange(1, N + 1)[:, None] <= start
    if not finite.all():
        row = int(np.flatnonzero(~finite.all(axis=0))[0])
        j = int(np.argmin(finite[:, row])) + 1
        atom = int(np.flatnonzero(~np.isfinite(states[j, row]).all(axis=1))[0])
        raise DivergenceError(nodes[row, j], atom)
    return states


def integrate(p: ProblemSpec, s, phi: EnsembleState, u: ControlSignal) -> Trajectory:
    """Integrate the ensemble from (s, phi) under the signal u.

    Classical 4th-order one-step rule with the control frozen per interval;
    deterministic and exact for dynamics polynomial of degree <= 3 in t.
    Raises :class:`DivergenceError` at the first non-finite node.  This is
    the one-row case of the batched integrator.
    """
    _check_start(p, s, phi, u)
    states = _integrate_batch(p, u.grid.nodes[None], phi.values[None],
                              u.values[None])[:, 0]
    return Trajectory(grid=u.grid, states=states, control=u, space=phi.space)


def _check_start(p: ProblemSpec, s, phi: EnsembleState, u: ControlSignal):
    """Reject a signal that does not start at s or ends past the horizon,
    and initial data of the wrong shape."""
    grid = u.grid
    if abs(grid.s - s) > 1e-12:
        raise ValueError(f"signal grid starts at {grid.s}, expected {s}")
    if grid.T > p.horizon + 1e-12:
        raise ValueError(f"signal grid ends at {grid.T} beyond horizon {p.horizon}")
    if phi.values.shape != (p.space.size, p.n):
        raise ValueError(
            f"initial state shape {phi.values.shape} does not match problem "
            f"({p.space.size}, {p.n})"
        )


@dataclass
class CheckReport:
    """One certification outcome; ``worst`` and ``witness`` stay re-evaluable."""

    name: str
    instance: dict
    tolerance: object
    worst: float
    witness: dict
    passed: bool
    details: dict = field(default_factory=dict)
    seed: object = None

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: worst={self.worst:.4g} "
                f"(tol={self.tolerance})")


def _instance_tag(p: ProblemSpec):
    tag = {"M": p.space.size, "n": p.n, "m": p.m, "horizon": p.horizon}
    if "builtin" in p.meta:
        tag["builtin"] = p.meta["builtin"]
    return tag


def random_signal(p: ProblemSpec, grid: TimeGrid, rng) -> ControlSignal:
    """Uniformly random admissible signal on the grid.

    One vector draw per run of intervals that share an active set; the
    Generator yields the same stream as one scalar draw per interval.
    """
    sched = p.controls
    idx = np.searchsorted(sched.breakpoints, grid.nodes[:-1], side="right") - 1
    if idx[0] < 0:
        sched.active_index(grid.nodes[0])        # raises ScheduleError
    vals = np.empty((grid.steps, p.m))
    cuts = np.flatnonzero(np.diff(idx)) + 1
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, grid.steps]):
        pts = sched.sets[idx[lo]]
        vals[lo:hi] = pts[rng.integers(pts.shape[0], size=hi - lo)]
    return ControlSignal(grid, vals)


def _weighted_norm(w, d):
    return np.sqrt(float(np.einsum("i,ij,ij->", w, d, d)))


def trajectory_bound_suite(p: ProblemSpec, trials: int, steps=200, seed=0,
                           slack=1.05, phi_scale=1.0) -> CheckReport:
    """Randomized check of the four a-priori trajectory bounds.

    With c the growth certificate, k the Lipschitz certificate and
    mu = sqrt(total mass), each trial draws s <= tau <= t (grid nodes), data
    phi, phibar and an admissible signal, then verifies:

    1. ||x_{s,phi}(t)||            <= e^{c(t-s)} (||phi|| + c (t-s) mu)
    2. ||x_{s,phi}(t)-x_{s,phibar}(t)|| <= e^{k(t-s)} ||phi - phibar||
    3. ||x_{tau,phi}(t)-x_{s,phi}(t)||  <= c e^{k(t-tau)} e^{c(tau-s)}
                                           (mu + ||phi||) (tau - s)
    4. ||x_{s,phi}(t)-x_{s,phi}(tau)||  <= c e^{c(t-s)} (mu + ||phi||) (t - tau)

    The constants follow from the certificates by the usual comparison
    argument applied to 1 + |x|; each bound is allowed the multiplicative
    discretization slack.  Violations are recorded with witnesses, never
    raised.  The report's ``worst`` is the largest ratio over all four
    bounds, ``witness`` the first trial and bound reaching it, and
    ``details`` holds ``trials``, the per-bound ``max_ratio`` and the
    ``violations``; it passes iff there is no violation.

    The trials run as one batch, or as several when the held states would
    pass 16 MB.  A batch first draws every trial's s, tau, t, phi, phibar and
    signal in the trial-by-trial order of a sequential loop (the draws never
    depend on the integration), then integrates the x, xbar and shifted
    trajectories of all its trials together; the shifted row holds phi until
    its start node tau.  A divergence raises the error the sequential order
    would: first trial, x before xbar before the shift.
    """
    rng = np.random.default_rng(seed)
    M, n = p.space.size, p.n
    c = p.dynamics.growth_c
    k = p.dynamics.lipschitz_k
    mu = np.sqrt(p.space.mass)
    w = p.space.weights
    max_ratio = {"growth": 0.0, "stability": 0.0, "shift": 0.0, "time": 0.0}
    violations = []
    witness = {}

    def track(kind, lhs, rhs, trial):
        if rhs <= 0.0:
            ok = lhs <= 1e-12
            ratio = 0.0 if ok else np.inf
        else:
            ratio = lhs / rhs
            ok = ratio <= slack
        row = {"bound": kind, "trial": trial, "lhs": lhs, "rhs": rhs,
               "ratio": ratio}
        if ratio > max(max_ratio.values()):
            witness.update(row)
        if ratio > max_ratio[kind]:
            max_ratio[kind] = ratio
        if not ok:
            violations.append(row)

    # trials per batch: the held states stay near 2**21 floats (16 MB)
    per_batch = max(1, 2 ** 21 // (3 * (steps + 1) * M * n))
    for first in range(0, trials, per_batch):
        draws, nodes, X0, U, start = [], [], [], [], []
        for trial in range(first, min(first + per_batch, trials)):
            s = rng.uniform(0.0, 0.5 * p.horizon)
            grid = TimeGrid(s, p.horizon, steps)
            j_tau = int(rng.integers(0, steps))
            j_t = int(rng.integers(j_tau, steps)) + 1
            phi = phi_scale * rng.standard_normal((M, n))
            phibar = phi_scale * rng.standard_normal((M, n))
            sig = random_signal(p, grid, rng)
            # rows x, xbar and (when tau > s) the shift, in the sequential order
            draws.append((trial, grid, j_tau, j_t, phi, phibar, len(X0)))
            for x0, j0 in [(phi, 0), (phibar, 0)] + [(phi, j_tau)] * (j_tau > 0):
                nodes.append(grid.nodes)
                X0.append(x0)
                U.append(sig.values)
                start.append(j0)
        states = _integrate_batch(p, np.stack(nodes), np.stack(X0), np.stack(U),
                                  np.array(start))

        for trial, grid, j_tau, j_t, phi, phibar, row in draws:
            s, tau, t = grid.s, grid.nodes[j_tau], grid.nodes[j_t]
            x_t = states[j_t, row]
            norm_phi = _weighted_norm(w, phi)
            track("growth", _weighted_norm(w, x_t),
                  np.exp(c * (t - s)) * (norm_phi + c * (t - s) * mu), trial)
            track("stability", _weighted_norm(w, x_t - states[j_t, row + 1]),
                  np.exp(k * (t - s)) * _weighted_norm(w, phi - phibar), trial)
            if j_tau > 0:
                track("shift", _weighted_norm(w, states[j_t, row + 2] - x_t),
                      c * np.exp(k * (t - tau)) * np.exp(c * (tau - s))
                      * (mu + norm_phi) * (tau - s), trial)
            track("time", _weighted_norm(w, x_t - states[j_tau, row]),
                  c * np.exp(c * (t - s)) * (mu + norm_phi) * (t - tau), trial)

    return CheckReport(
        name="trajectory_bounds", instance=_instance_tag(p), tolerance=slack,
        worst=max(max_ratio.values()), witness=witness, passed=not violations,
        details={"trials": trials, "max_ratio": max_ratio,
                 "violations": violations}, seed=seed)
