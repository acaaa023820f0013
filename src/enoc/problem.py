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

from .errors import (CapabilityError, DimensionMismatchError, ScheduleError,
                     TerminalValueError)
from .measure import ParameterSpace


@dataclass
class DynamicsSpec:
    """Velocity field of the ensemble plus its declared regularity certificates.

    ``eval_ens(t, X, u)`` maps stacked ensemble states X of shape (..., M, n)
    to the velocities (..., M, n); it is the only description of the
    dynamics.  The time ``t`` is a scalar or an array of X's lead shape (...),
    and the control ``u`` is one point (m,) or one per lead index, (..., m),
    so the batched integrator advances ensembles with their own times and
    controls in one call.  Row i of a batched call must equal the call on
    row i alone.  ``jac_x_ens``/``jac_u_ens`` (shapes (..., M, n, n) and
    (..., M, n, m), for one control (m,)) enable the adjoint solver.
    Evaluators must be pure.

    The field must be atom-wise: atom i's velocity depends on t, u, its own
    parameter and its own state X[..., i, :] alone, as in the paper's
    average problem, where the shared control is the only coupling.  Every
    builtin is, and so is every expression problem, whose grammar binds only
    its own atom's variables.  ``value_dp`` factors its interpolation per
    atom on this contract and raises CapabilityError when a probe finds a
    field that couples atoms.
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
        """Ensemble velocity for stacked states X of shape (..., M, n), with t
        scalar or shaped (...) and u shaped (m,) or (..., m)."""
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
        """Per-atom costs for stacked states X of shape (..., M, n) -> (..., M).

        A cost that overflows to +inf while it is computed raises
        TerminalValueError; +inf returned by construction is kept, and NaN and
        -inf are left to the callers, which reject them by name."""
        overflows = []
        with np.errstate(over="call", call=lambda kind, flag: overflows.append(kind)):
            cost = np.asarray(self.eval_ens(X), dtype=float)
        if overflows and np.isposinf(cost).any():
            raise TerminalValueError("the terminal cost overflows to +inf at a finite state")
        return cost


class ControlSchedule:
    """Piecewise-constant-in-time family of finite control sets.

    ``breakpoints[j]`` opens interval j; ``sets[j]`` is the (K_j, m) array of
    admissible control points on [breakpoints[j], breakpoints[j+1]) (the last
    interval is unbounded to the right).  All points must lie in the global
    box ``box`` of shape (m, 2).  This stepwise model is the single
    discretization of the admissible control map used everywhere downstream,
    and owns its hull geometry: ``hull_lo``/``hull_hi`` (J, m) bound each
    set, and ``is_box[j]`` says every corner of that box is a point of set j.
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
            if arr.ndim != 2 or arr.shape[0] == 0 or not np.isfinite(arr).all():
                raise ValueError(f"control set {j} must be a nonempty, finite (K, m) "
                                 "array")
            parsed.append(arr)
        m = parsed[0].shape[1]
        for j, arr in enumerate(parsed):
            if arr.shape[1] != m:
                raise ValueError(f"control set {j} has dimension {arr.shape[1]} != {m}")
        hull_lo = np.array([arr.min(axis=0) for arr in parsed])
        hull_hi = np.array([arr.max(axis=0) for arr in parsed])
        if box is None:
            box = np.stack([hull_lo.min(axis=0), hull_hi.max(axis=0)], axis=1)
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
        self.hull_lo, self.hull_hi = hull_lo, hull_hi
        self.is_box = np.array([_corners_present(arr, lo, hi) for arr, lo, hi
                                in zip(parsed, hull_lo, hull_hi)])

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

    def project(self, times, U):
        """Exact nearest hull point to each row of U (len(times), m): one clip
        on box hulls; any other hull raises CapabilityError."""
        idx = np.searchsorted(self.breakpoints, times, side="right") - 1
        if np.any(idx < 0):
            raise ScheduleError(f"no control set active before t={self.breakpoints[0]}")
        if np.shape(U) != (idx.size, self.m):
            raise DimensionMismatchError(f"controls {np.shape(U)} for {idx.size} times")
        if not self.is_box[idx].all():
            raise CapabilityError("projection needs box control hulls")
        return np.clip(U, self.hull_lo[idx], self.hull_hi[idx])

    def sample(self, times, rng):
        """One uniformly drawn point of the active set per time, (len(times), m):
        one vector draw per run of consecutive times sharing an active set, the
        same stream as one scalar draw per time in the given (any) order."""
        times = np.asarray(times, dtype=float)
        idx = np.searchsorted(self.breakpoints, times, side="right") - 1
        out = np.empty((times.size, self.m))
        starts = np.flatnonzero(np.diff(idx, prepend=-2))
        for lo, hi in zip(starts, np.r_[starts[1:], times.size]):
            pts = self.active_set(times[lo])     # ScheduleError before the first set
            out[lo:hi] = pts[rng.integers(pts.shape[0], size=hi - lo)]
        return out


def _corners_present(pts, lo, hi):
    """Whether every corner of the box [lo, hi] is a row of pts (K, m); with
    fewer rows than the 2^d corners of its d open axes, no corner is built."""
    d = int(np.count_nonzero(lo < hi))
    if pts.shape[0] < 2 ** d:
        return False
    # a set of rows, not np.unique: its first call imports numpy.ma
    corners = pts[np.all((pts == lo) | (pts == hi), axis=1)]
    return len(set(map(tuple, corners.tolist()))) == 2 ** d


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
class CheckReport:
    """One certification outcome; ``worst`` and ``witness`` stay re-evaluable.
    The four certificate validators below and the six verify checks return it."""

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


# -- certificate validators ---------------------------------------------------
#
# The validators below, the trajectory bound suite and the battery's
# two-stage, HJB and oscillation checks report under one rule: the witness
# is the worst evaluated sample, ``passed = evaluated > 0 and worst <=
# tolerance``, and a NaN score is the worst there is.  ``evaluated`` may
# count the samples a score stands for (one HJB score per time slice).

def _sampled_report(p, name, tolerance, scores, witness_at, seed,
                    evaluated=None, why_empty=None, **details) -> CheckReport:
    """The report on sampled ``scores``; with nothing evaluated, the note says
    why: ``why_empty`` when the caller knows, else whether no sample was
    drawn or every sample was skipped."""
    mask = np.ones(scores.shape, dtype=bool) if evaluated is None else evaluated
    count = int(mask.sum())
    worst, witness = 0.0, {}
    if count:
        q = int(np.argmax(np.where(mask, scores, -np.inf)))
        worst, witness = float(scores[q]), witness_at(q)
    else:
        why_empty = why_empty or ("no sample was drawn" if scores.size == 0
                                  else "every sample was skipped")
        details["note"] = f"insufficient evidence: {why_empty}"
    return CheckReport(name=name, instance=_instance_tag(p), tolerance=tolerance,
                       worst=worst, witness=witness,
                       passed=count > 0 and worst <= tolerance,
                       details=dict(details, evaluated=count), seed=seed)


def _norms(v):
    """Row norms of (S, n), bitwise equal to ``np.linalg.norm`` of each row."""
    return np.sqrt(np.vecdot(v, v))


def _field_samples(p: ProblemSpec, samples, seed, x_radius, states):
    """Draw times, admissible controls, ``states`` state arrays and atoms, in
    that order from one Generator, and return them with the sampled atom's
    velocity at each state array: one batched field call per array, on
    ensembles whose atoms all sit at the sampled state."""
    if samples <= 0:
        raise ValueError("sampler budget must be positive")
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.0, p.horizon, size=samples)
    us = p.controls.sample(ts, rng)
    xs = [rng.uniform(-x_radius, x_radius, size=(samples, p.n)) for _ in range(states)]
    idx = rng.integers(p.space.size, size=samples)
    shape = (samples, p.space.size, p.n)
    vs = [p.dynamics.field(ts, np.broadcast_to(x[:, None, :], shape), us)
          [np.arange(samples), idx] for x in xs]
    return ts, us, xs, idx, vs


def validate_growth(p: ProblemSpec, samples: int, seed=0, x_radius=10.0) -> CheckReport:
    """Check |f(t,x,u,w)| <= c (1 + |x|) on random samples; worst = largest ratio."""
    ts, us, (xs,), idx, (v,) = _field_samples(p, samples, seed, x_radius, 1)
    ratio = _norms(v) / (p.dynamics.growth_c * (1.0 + _norms(xs)))
    return _sampled_report(
        p, "growth", 1.0 + 1e-12, ratio,
        lambda q: {"t": float(ts[q]), "x": xs[q].tolist(), "u": us[q].tolist(),
                   "atom": int(idx[q]), "ratio": float(ratio[q])},
        seed, samples=samples, domain={"t": [0.0, p.horizon], "x_radius": x_radius})


def validate_lipschitz(p: ProblemSpec, samples: int, seed=0, x_radius=10.0) -> CheckReport:
    """Check |f(t,x,u,w) - f(t,x',u,w)| <= k |x - x'| on random state pairs.

    Pairs closer than 1e-9 are skipped; with every pair skipped the check
    fails for lack of evidence.
    """
    ts, us, (xs, ys), idx, (vx, vy) = _field_samples(p, samples, seed, x_radius, 2)
    gap = _norms(xs - ys)
    ratio = _norms(vx - vy) / (p.dynamics.lipschitz_k * np.maximum(gap, 1e-9))
    return _sampled_report(
        p, "lipschitz", 1.0 + 1e-12, ratio,
        lambda q: {"t": float(ts[q]), "x": xs[q].tolist(), "x2": ys[q].tolist(),
                   "u": us[q].tolist(), "atom": int(idx[q]), "ratio": float(ratio[q])},
        seed, evaluated=gap >= 1e-9, samples=samples,
        domain={"t": [0.0, p.horizon], "x_radius": x_radius})


def validate_cost_bound(p: ProblemSpec, samples: int, seed=0, x_radius=10.0) -> CheckReport:
    """Check g(x, w_i) >= a_i - b |x|^2 on random samples; worst = largest
    deficit a_i - b |x|^2 - g(x, w_i)."""
    if samples <= 0:
        raise ValueError("sampler budget must be positive")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-x_radius, x_radius, size=(samples, p.n))
    idx = rng.integers(p.space.size, size=samples)
    X = np.broadcast_to(xs[:, None, :], (samples, p.space.size, p.n))
    g = p.cost.values(X)[np.arange(samples), idx]
    deficit = (p.cost.lower_bound_a[idx]
               - p.cost.lower_bound_b * (xs * xs).sum(axis=1)) - g
    return _sampled_report(
        p, "cost_bound", 1e-12, deficit,
        lambda q: {"x": xs[q].tolist(), "atom": int(idx[q]),
                   "deficit": float(deficit[q])},
        seed, samples=samples, domain={"x_radius": x_radius})


def modulus_check(p: ProblemSpec, pairs: int, seed=0, x_radius=5.0,
                  state_samples=32, t_nodes=33) -> CheckReport:
    """Check the declared parameter modulus against a sampled oscillation estimate.

    For sampled atom pairs (i, j) the quantity
    integral over [0,T] of max over sampled (x, u) of |f(t,x,u,w_i) - f(t,x,u,w_j)|
    is estimated by composite trapezoid in t, and must not exceed
    theta(d(w_i, w_j)); worst = the largest excess.  The two dynamics are
    compared at the same state point: that is the oscillation the
    trajectory-based compactness diagnostic needs, and the one a
    state-linear field keeps finite on a box.  A single atom passes
    vacuously.
    """
    if p.dynamics.omega_modulus is None:
        raise CapabilityError("dynamics declares no parameter modulus")
    if pairs <= 0:
        raise ValueError("pair budget must be positive")
    M = p.space.size
    domain = {"t": [0.0, p.horizon], "x_radius": x_radius,
              "state_samples": state_samples}
    if M == 1:
        return CheckReport(
            name="modulus", instance=_instance_tag(p), tolerance=1e-12, worst=0.0,
            witness={}, passed=True, seed=seed,
            details={"samples": 0, "domain": domain, "evaluated": 0,
                     "note": "single atom: vacuously true"})
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
    est = np.array([float(np.trapezoid(row, ts)) for row in vals])
    dist = p.space.metric[I, J]
    bound = np.array([float(p.dynamics.omega_modulus(d)) for d in dist])
    return _sampled_report(
        p, "modulus", 1e-12, est - bound,
        lambda q: {"atoms": list(chosen[q]), "estimate": float(est[q]),
                   "bound": float(bound[q]), "distance": float(dist[q])},
        seed, samples=len(chosen), domain=domain)
