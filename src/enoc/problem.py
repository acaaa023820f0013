"""Problem specifications: dynamics, terminal cost, control schedule, and the
report the verify checks return.

The regularity certificates (growth and Lipschitz constants, parameter
modulus, the cost's lower and Lipschitz bounds) are declared by whoever builds
the problem.  The verify battery spot-checks each in the one check that reads
it: growth and Lipschitz in the trajectory bound suite, the modulus in the
oscillation diagnostic, both cost bounds in the terminal limit.  A passing
report is sampled evidence on its stated domain, never a proof.
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
    """Terminal cost of the ensemble with its declared certificates.

    ``eval_ens(X)`` maps stacked states of shape (..., M, n) to per-atom costs
    (..., M) and may return +inf (extended-valued costs are allowed);
    ``lower_bound_a`` (per atom) and ``lower_bound_b`` certify
    g(x, i) >= a_i - b |x|^2; optional ``lipschitz(r)`` is a Lipschitz constant
    of G = sum_i w_i g(x_i, i) in the weighted norm on states whose atoms lie
    in the ball |x_i| <= r (+inf is vacuous).  ``grad_ens`` (shape (..., M, n))
    enables the adjoint solver.
    """

    eval_ens: Callable
    lower_bound_a: np.ndarray
    lower_bound_b: float
    grad_ens: Optional[Callable] = None
    lipschitz: Optional[Callable] = None

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
        # the first time of each run (none for no times), in plain ints
        starts = [0, *(np.flatnonzero(idx[1:] != idx[:-1]) + 1).tolist()][:times.size]
        for lo, hi in zip(starts, starts[1:] + [times.size]):
            if idx[lo] < 0:
                raise ScheduleError(f"no control set active before t={self.breakpoints[0]}")
            pts = self.sets[idx[lo]]
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
    The six verify checks return it."""

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


# -- the sampled-report rule ---------------------------------------------------
#
# The trajectory bound suite and the battery's two-stage, HJB and
# oscillation checks report under one rule: the witness is the worst
# evaluated sample, ``passed = evaluated > 0 and worst <= tolerance``, and a
# NaN score is the worst there is.  ``evaluated`` may count the samples a
# score stands for (one HJB score per time slice).

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
