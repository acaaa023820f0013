"""Problem specifications: dynamics, terminal cost, control schedule, validators.

The regularity certificates (growth constant, Lipschitz constant, parameter
modulus, cost lower bound) are declared by whoever builds the problem and are
spot-checked by the Monte Carlo validators below — a passing report is
sampled evidence on its stated domain, never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import CapabilityError, DimensionMismatchError, ScheduleError
from .measure import EnsembleState, ParameterSpace


@dataclass
class DynamicsSpec:
    """Velocity field of the ensemble plus its declared regularity certificates.

    ``eval_ens(t, X, u)`` maps a time, stacked ensemble states X of shape
    (..., M, n) and one control (m,) to the velocities (..., M, n); it is the
    only description of the dynamics.  ``jac_x_ens``/``jac_u_ens`` (shapes
    (..., M, n, n) and (..., M, n, m)) enable the adjoint solver.
    Evaluators must be pure; parallel callers rely on that.
    """

    eval_ens: Callable
    growth_c: float
    lipschitz_k: float
    jac_x_ens: Optional[Callable] = None
    jac_u_ens: Optional[Callable] = None
    omega_modulus: Optional[Callable] = None

    def __post_init__(self):
        if not self.growth_c > 0:
            raise ValueError(f"growth certificate must be positive, got {self.growth_c}")
        if not self.lipschitz_k > 0:
            raise ValueError(
                f"Lipschitz certificate must be positive, got {self.lipschitz_k}"
            )

    @property
    def differentiable(self):
        return self.jac_x_ens is not None and self.jac_u_ens is not None

    def field(self, t, X, u):
        """Ensemble velocity for stacked states X of shape (..., M, n)."""
        return np.asarray(self.eval_ens(t, X, u), dtype=float)

    def min_pairing(self, t, X, G, controls):
        """Minimum over the control points of <G, f(t, X, u)>, with its first argmin.

        X and G have shape (..., M, n) and the pairing sums over the last two
        axes, so G carries any weights.  Returns the minima and the lowest
        minimizing row of ``controls`` (K, m), both of shape (...).
        """
        lead = np.shape(X)[:-2] + (-1,)
        vals = np.stack([(G * self.field(t, X, u)).reshape(lead).sum(axis=-1)
                         for u in controls])
        return vals.min(axis=0), vals.argmin(axis=0)


@dataclass
class TerminalCostSpec:
    """Terminal cost of the ensemble with its declared lower-bound certificate.

    ``eval_ens(X)`` maps stacked states of shape (..., M, n) to per-atom costs
    (..., M) and may return +inf (extended-valued costs are allowed);
    ``lower_bound_a`` (per atom) and ``lower_bound_b`` certify
    g(x, i) >= a_i - b |x|^2.  ``grad_ens`` (shape (..., M, n)) enables the
    adjoint solver.
    """

    eval_ens: Callable
    lower_bound_a: np.ndarray
    lower_bound_b: float
    grad_ens: Optional[Callable] = None

    def __post_init__(self):
        self.lower_bound_a = np.asarray(self.lower_bound_a, dtype=float)
        if self.lower_bound_b < 0:
            raise ValueError("quadratic lower-bound coefficient must be >= 0")

    @property
    def differentiable(self):
        return self.grad_ens is not None

    def values(self, X):
        """Per-atom costs for stacked states X of shape (..., M, n) -> (..., M)."""
        return np.asarray(self.eval_ens(X), dtype=float)


class ControlSchedule:
    """Piecewise-constant-in-time family of finite control sets.

    ``breakpoints[j]`` opens interval j; ``sets[j]`` is the (K_j, m) array of
    admissible control points on [breakpoints[j], breakpoints[j+1]) (the last
    interval is unbounded to the right).  All points must lie in the global
    box ``box`` of shape (m, 2).  This stepwise model is the single
    discretization of the admissible control map used everywhere downstream.
    """

    def __init__(self, breakpoints, sets, box=None):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 1:
            raise ValueError("breakpoints must be a nonempty 1-D array")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if len(sets) != bp.size:
            raise ValueError(
                f"got {len(sets)} control sets for {bp.size} intervals"
            )
        parsed = []
        for j, pts in enumerate(sets):
            arr = np.asarray(pts, dtype=float)
            if arr.ndim == 1:
                arr = arr[:, None]
            if arr.ndim != 2 or arr.shape[0] == 0:
                raise ValueError(f"control set {j} must be a nonempty (K, m) array")
            parsed.append(arr)
        m = parsed[0].shape[1]
        for j, arr in enumerate(parsed):
            if arr.shape[1] != m:
                raise ValueError(f"control set {j} has dimension {arr.shape[1]} != {m}")
        if box is None:
            lo = np.min([arr.min(axis=0) for arr in parsed], axis=0)
            hi = np.max([arr.max(axis=0) for arr in parsed], axis=0)
            box = np.stack([lo, hi], axis=1)
        else:
            box = np.asarray(box, dtype=float)
            if box.shape != (m, 2):
                raise ValueError(f"box must be (m, 2) = ({m}, 2), got {box.shape}")
        for j, arr in enumerate(parsed):
            if np.any(arr < box[:, 0] - 1e-12) or np.any(arr > box[:, 1] + 1e-12):
                k = int(
                    np.flatnonzero(
                        (arr < box[:, 0] - 1e-12).any(axis=1)
                        | (arr > box[:, 1] + 1e-12).any(axis=1)
                    )[0]
                )
                raise ValueError(f"control point {k} of set {j} lies outside the box")
        self.breakpoints = bp
        self.sets = parsed
        self.box = box
        self.m = m

    @classmethod
    def constant(cls, points, box=None):
        """One control set active for all time."""
        return cls(np.array([0.0]), [points], box)

    def active_index(self, t):
        j = int(np.searchsorted(self.breakpoints, t, side="right") - 1)
        if j < 0:
            raise ScheduleError(f"no control set active before t={self.breakpoints[0]}")
        return j

    def active_set(self, t):
        return self.sets[self.active_index(t)]

    def hull_contains(self, t, u, tol=1e-9):
        """Whether u lies in the convex hull of the active set.

        Exact for scalar controls; for m >= 2 the bounding box of the set is
        used (hull membership up to box outer-approximation).
        """
        pts = self.active_set(t)
        u = np.asarray(u, dtype=float).reshape(-1)
        if u.size != self.m:
            return False
        if self.m == 1:
            return pts.min() - tol <= u[0] <= pts.max() + tol
        return bool(
            np.all(u >= pts.min(axis=0) - tol) and np.all(u <= pts.max(axis=0) + tol)
        )


@dataclass
class ProblemSpec:
    """A complete ensemble control problem on the horizon [0, T]."""

    space: ParameterSpace
    n: int
    m: int
    dynamics: DynamicsSpec
    cost: TerminalCostSpec
    controls: ControlSchedule
    horizon: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.n < 1 or self.m < 1:
            raise ValueError("state and control dimensions must be >= 1")
        if self.controls.m != self.m:
            raise ValueError(
                f"control schedule dimension {self.controls.m} != m={self.m}"
            )
        if self.cost.lower_bound_a.shape != (self.space.size,):
            raise ValueError(
                "cost lower_bound_a must have one entry per atom "
                f"({self.space.size}), got shape {self.cost.lower_bound_a.shape}"
            )

    @property
    def stacked_dim(self):
        """Dimension of the flattened ensemble state (atoms x state dim)."""
        return self.space.size * self.n


@dataclass
class HamiltonianResult:
    value: float
    minimizer: np.ndarray
    minimizer_index: int


def hamiltonian(p: ProblemSpec, t, phi: EnsembleState,
                costate: EnsembleState) -> HamiltonianResult:
    """Minimize the paired velocity over the control set active at time t.

    The costate acts through the mass-weighted pairing, so the value is
    min over admissible u of sum_i w_i p_i . f(t, phi_i, u, w_i).  The
    minimum over the finite set is exact for the discretized problem; the gap
    to a continuum control set is of the order of the set's dispersion times
    the Lipschitz certificate times the costate norm.  Ties break to the
    lowest control index, which keeps downstream argmin tables deterministic.
    """
    if not (0.0 <= t <= p.horizon + 1e-12):
        raise ValueError(f"time {t} outside the horizon [0, {p.horizon}]")
    if phi.values.shape != (p.space.size, p.n):
        raise DimensionMismatchError(
            f"state shape {phi.values.shape} does not match problem"
        )
    if costate.values.shape != phi.values.shape:
        raise DimensionMismatchError(
            f"costate shape {costate.values.shape} != state shape {phi.values.shape}"
        )
    pts = p.controls.active_set(t)
    if pts.shape[0] == 0:
        raise ScheduleError(f"empty control set at t={t}")
    G = p.space.weights[:, None] * costate.values
    value, k = p.dynamics.min_pairing(t, phi.values, G, pts)
    return HamiltonianResult(value=float(value), minimizer=pts[k].copy(),
                             minimizer_index=int(k))


@dataclass
class ValidationReport:
    """Outcome of a sampled certificate check.

    A pass is Monte Carlo evidence on the stated domain, not a proof; the
    domain box is part of the report so every 'pass' stays qualified.
    """

    name: str
    passed: bool
    worst: float
    samples: int
    domain: dict
    witness: Optional[dict] = None
    note: str = "sampled evidence on the stated domain, not a proof"

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return f"[{status}] {self.name}: worst={self.worst:.6g} over {self.samples} samples"


def _sample_controls(p: ProblemSpec, rng, count):
    """Random admissible control points with their times."""
    ts = rng.uniform(0.0, p.horizon, size=count)
    us = np.empty((count, p.m))
    for q, t in enumerate(ts):
        pts = p.controls.active_set(t)
        us[q] = pts[rng.integers(pts.shape[0])]
    return ts, us


def _atom_rows(p: ProblemSpec, t, x, u):
    """Field at every atom for the ensemble whose atoms all sit at x: (M, n)."""
    return p.dynamics.field(t, np.broadcast_to(x, (p.space.size, p.n)), u)


def validate_growth(p: ProblemSpec, samples: int, seed=0, x_radius=10.0) -> ValidationReport:
    """Check |f(t,x,u,w)| <= c (1 + |x|) on random samples."""
    if samples <= 0:
        raise ValueError("sampler budget must be positive")
    rng = np.random.default_rng(seed)
    ts, us = _sample_controls(p, rng, samples)
    xs = rng.uniform(-x_radius, x_radius, size=(samples, p.n))
    idx = rng.integers(p.space.size, size=samples)
    c = p.dynamics.growth_c
    worst = 0.0
    witness = None
    for q in range(samples):
        v = _atom_rows(p, ts[q], xs[q], us[q])[idx[q]]
        ratio = float(np.linalg.norm(v) / (c * (1.0 + np.linalg.norm(xs[q]))))
        if ratio > worst:
            worst = ratio
            witness = {"t": float(ts[q]), "x": xs[q].tolist(), "u": us[q].tolist(),
                       "atom": int(idx[q]), "ratio": ratio}
    return ValidationReport(
        name="growth",
        passed=worst <= 1.0 + 1e-12,
        worst=worst,
        samples=samples,
        domain={"t": [0.0, p.horizon], "x_radius": x_radius},
        witness=witness if worst > 1.0 + 1e-12 else None,
    )


def validate_lipschitz(p: ProblemSpec, samples: int, seed=0, x_radius=10.0) -> ValidationReport:
    """Check |f(t,x,u,w) - f(t,x',u,w)| <= k |x - x'| on random state pairs."""
    if samples <= 0:
        raise ValueError("sampler budget must be positive")
    rng = np.random.default_rng(seed)
    ts, us = _sample_controls(p, rng, samples)
    xs = rng.uniform(-x_radius, x_radius, size=(samples, p.n))
    ys = rng.uniform(-x_radius, x_radius, size=(samples, p.n))
    idx = rng.integers(p.space.size, size=samples)
    k = p.dynamics.lipschitz_k
    worst = 0.0
    witness = None
    for q in range(samples):
        gap = np.linalg.norm(xs[q] - ys[q])
        if gap < 1e-9:
            continue
        vx = _atom_rows(p, ts[q], xs[q], us[q])[idx[q]]
        vy = _atom_rows(p, ts[q], ys[q], us[q])[idx[q]]
        ratio = float(np.linalg.norm(vx - vy) / (k * gap))
        if ratio > worst:
            worst = ratio
            witness = {"t": float(ts[q]), "x": xs[q].tolist(), "x2": ys[q].tolist(),
                       "u": us[q].tolist(), "atom": int(idx[q]), "ratio": ratio}
    return ValidationReport(
        name="lipschitz",
        passed=worst <= 1.0 + 1e-12,
        worst=worst,
        samples=samples,
        domain={"t": [0.0, p.horizon], "x_radius": x_radius},
        witness=witness if worst > 1.0 + 1e-12 else None,
    )


def validate_cost_bound(p: ProblemSpec, samples: int, seed=0, x_radius=10.0) -> ValidationReport:
    """Check g(x, w_i) >= a_i - b |x|^2 on random samples; worst = most negative slack."""
    if samples <= 0:
        raise ValueError("sampler budget must be positive")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-x_radius, x_radius, size=(samples, p.n))
    idx = rng.integers(p.space.size, size=samples)
    a = p.cost.lower_bound_a
    b = p.cost.lower_bound_b
    X = np.broadcast_to(xs[:, None, :], (samples, p.space.size, p.n))
    g = p.cost.values(X)[np.arange(samples), idx]
    slack = g - (a[idx] - b * (xs * xs).sum(axis=1))
    q = int(np.argmin(slack))
    worst = float(slack[q])
    return ValidationReport(
        name="cost_bound",
        passed=worst >= -1e-12,
        worst=worst,
        samples=samples,
        domain={"x_radius": x_radius},
        witness=({"x": xs[q].tolist(), "atom": int(idx[q]), "slack": worst}
                 if worst < -1e-12 else None),
    )


def modulus_check(p: ProblemSpec, pairs: int, seed=0, x_radius=5.0,
                  state_samples=32, t_nodes=33) -> ValidationReport:
    """Check the declared parameter modulus against a sampled oscillation estimate.

    For sampled atom pairs (i, j) the quantity
    integral over [0,T] of max over sampled (x, u) of |f(t,x,u,w_i) - f(t,x,u,w_j)|
    is estimated by composite trapezoid in t, and must not exceed
    theta(d(w_i, w_j)).  The two dynamics are compared at the same state
    point: that is the oscillation the trajectory-based compactness
    diagnostic needs, and the one a state-linear field keeps finite on a box.
    """
    if p.dynamics.omega_modulus is None:
        raise CapabilityError("dynamics declares no parameter modulus")
    if pairs <= 0:
        raise ValueError("pair budget must be positive")
    M = p.space.size
    if M == 1:
        return ValidationReport(
            name="modulus", passed=True, worst=0.0, samples=0,
            domain={"x_radius": x_radius}, note="single atom: vacuously true",
        )
    rng = np.random.default_rng(seed)
    all_pairs = [(i, j) for i in range(M) for j in range(i + 1, M)]
    if pairs >= len(all_pairs):
        chosen = all_pairs
    else:
        sel = rng.choice(len(all_pairs), size=pairs, replace=False)
        chosen = [all_pairs[s] for s in sorted(sel)]
    ts = np.linspace(0.0, p.horizon, t_nodes)
    xs = rng.uniform(-x_radius, x_radius, size=(state_samples, p.n))
    # every atom of sample ensemble q sits at xs[q]
    X = np.broadcast_to(xs[:, None, :], (state_samples, M, p.n))
    I, J = np.array(chosen).T
    vals = np.zeros((len(chosen), t_nodes))
    for q, t in enumerate(ts):
        for u in p.controls.active_set(t):
            V = p.dynamics.field(t, X, u)
            gaps = np.linalg.norm(V[:, I] - V[:, J], axis=-1).max(axis=0)
            vals[:, q] = np.maximum(vals[:, q], gaps)
    theta = p.dynamics.omega_modulus
    worst = -np.inf
    witness = None
    for (i, j), row in zip(chosen, vals):
        est = float(np.trapezoid(row, ts))
        bound = float(theta(p.space.metric[i, j]))
        excess = est - bound
        if excess > worst:
            worst = excess
            witness = {"atoms": [i, j], "estimate": est, "bound": bound,
                       "distance": float(p.space.metric[i, j])}
    return ValidationReport(
        name="modulus",
        passed=worst <= 1e-12,
        worst=float(worst),
        samples=len(chosen),
        domain={"t": [0.0, p.horizon], "x_radius": x_radius,
                "state_samples": state_samples},
        witness=witness if worst > 1e-12 else None,
    )
