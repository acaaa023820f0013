"""Value function, three ways: exhaustive enumeration, grid recursion, descent.

* :func:`value_oracle` enumerates every piecewise-constant signal on a time
  grid through a prefix tree, so it is exact for the discretized problem and
  cheap enough at verification scale.
* :func:`value_dp` runs the one-step backward recursion on a tensor grid over
  the stacked ensemble coordinates (atom-major flattening of the (M, n)
  state), with one explicit Euler substep and multilinear interpolation.
* :func:`value_adjoint` is a projected-descent upper bound using the exact
  discrete adjoint of the integrator.

Out-of-grid lookups clamp to the boundary and are counted, never silently
extrapolated.
"""

from __future__ import annotations

import json
import os
import struct
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (CapabilityError, CapacityError, DimensionMismatchError,
                     GridCoverageWarning, TerminalValueError)
from .measure import EnsembleState
from .problem import ProblemSpec
from .ensemble import ControlSignal, TimeGrid, _rk4_step, integrate

_MAGIC = b"ENOCVG1\n"


def stack_state(phi: EnsembleState) -> np.ndarray:
    """Flatten (M, n) atom states into one vector, atom-major."""
    return phi.values.reshape(-1)


def unstack_state(z, space, n) -> EnsembleState:
    return EnsembleState(np.asarray(z, dtype=float).reshape(space.size, n), space)


# -- terminal functional and reduced cost -----------------------------------

def terminal_functional(p: ProblemSpec, phi: EnsembleState) -> float:
    """Mass-weighted terminal cost; +inf propagates, NaN and -inf are errors."""
    per_atom = p.cost.values(phi.values)
    if np.any(np.isnan(per_atom)):
        bad = int(np.flatnonzero(np.isnan(per_atom))[0])
        raise TerminalValueError(f"terminal cost is NaN at atom {bad}")
    if np.any(np.isneginf(per_atom)):
        bad = int(np.flatnonzero(np.isneginf(per_atom))[0])
        raise TerminalValueError(f"terminal cost is -inf at atom {bad}")
    if np.any(np.isposinf(per_atom)):
        return np.inf
    return float(p.space.weights @ per_atom)


def reduced_cost(p: ProblemSpec, s, phi: EnsembleState, u: ControlSignal) -> float:
    """Terminal functional at the endpoint of the trajectory driven by u."""
    return terminal_functional(p, integrate(p, s, phi, u).terminal)


# -- exhaustive enumeration --------------------------------------------------

@dataclass
class OracleTree:
    """All states reachable by signals on the grid, level by level.

    ``states[j]`` has shape (prod of set sizes up to j, M, n), ordered so
    that index q at level j+1 corresponds to prefix q // K_j with control
    q % K_j appended: flat order is lexicographic in the control indices.
    ``values[j][q]`` is the exact minimum over all continuations.
    """

    grid: TimeGrid
    set_sizes: list
    states: list
    values: list

    def decode(self, leaf_index):
        """Control indices of the signal that reaches a given leaf."""
        return self.decode_level(len(self.set_sizes), leaf_index)

    def decode_level(self, level, index):
        """Control indices of the prefix that reaches node `index` at `level`."""
        digits = []
        q = int(index)
        for K in reversed(self.set_sizes[:level]):
            digits.append(q % K)
            q //= K
        return tuple(reversed(digits))


def enumeration_count(p: ProblemSpec, grid: TimeGrid) -> int:
    total = 1
    for j in range(grid.steps):
        total *= p.controls.active_set(grid.nodes[j]).shape[0]
    return total


def build_oracle_tree(p: ProblemSpec, s, phi: EnsembleState, grid: TimeGrid,
                      budget=1_000_000) -> OracleTree:
    total = enumeration_count(p, grid)
    if total > budget:
        raise CapacityError(
            f"enumeration needs {total} signals, budget is {budget}; shrink the grid"
        )
    if abs(grid.s - s) > 1e-12:
        raise ValueError(f"grid starts at {grid.s}, expected {s}")
    fld = p.dynamics.field
    set_sizes = []
    states = [phi.values[None, :, :]]
    for j in range(grid.steps):
        t = grid.nodes[j]
        h = grid.nodes[j + 1] - grid.nodes[j]
        pts = p.controls.active_set(t)
        K = pts.shape[0]
        set_sizes.append(K)
        cur = states[-1]
        nxt = np.empty((cur.shape[0], K) + cur.shape[1:])
        for k in range(K):
            nxt[:, k] = _rk4_step(fld, t, h, cur, pts[k])
        states.append(nxt.reshape((-1,) + cur.shape[1:]))
    per_atom = p.cost.values(states[-1])
    if np.any(np.isnan(per_atom)):
        raise TerminalValueError("terminal cost is NaN on an enumerated endpoint")
    leaf = per_atom @ p.space.weights
    values = [None] * (grid.steps + 1)
    values[grid.steps] = leaf
    for j in range(grid.steps - 1, -1, -1):
        values[j] = values[j + 1].reshape(-1, set_sizes[j]).min(axis=1)
    return OracleTree(grid=grid, set_sizes=set_sizes, states=states, values=values)


@dataclass
class OracleResult:
    value: float
    best: ControlSignal
    best_indices: tuple


def value_oracle(p: ProblemSpec, s, phi: EnsembleState, grid: TimeGrid,
                 budget=1_000_000) -> OracleResult:
    """Exact minimum of the reduced cost over all signals on the grid.

    Ties break to the lexicographically first control-index sequence.
    """
    tree = build_oracle_tree(p, s, phi, grid, budget)
    leaf = tree.values[grid.steps]
    best_leaf = int(np.argmin(leaf))
    indices = tree.decode(best_leaf)
    vals = np.stack([
        p.controls.active_set(grid.nodes[j])[indices[j]]
        for j in range(grid.steps)
    ])
    return OracleResult(value=float(leaf[best_leaf]),
                        best=ControlSignal(grid, vals),
                        best_indices=indices)


# -- grid recursion -----------------------------------------------------------

@dataclass(frozen=True)
class Axis:
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"axis needs lo < hi, got [{self.lo}, {self.hi}]")
        if self.count < 2:
            raise ValueError("axis needs at least two nodes")

    @property
    def spacing(self):
        return (self.hi - self.lo) / (self.count - 1)

    @property
    def nodes(self):
        return np.linspace(self.lo, self.hi, self.count)


def _as_axes(axes):
    return [ax if isinstance(ax, Axis) else Axis(*ax) for ax in axes]


def _node_mesh(coords):
    """Cartesian product of per-axis node arrays as rows (Q, d), C order."""
    mesh = np.meshgrid(*coords, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _interpolate(tensor, taint, axes, Y):
    """Multilinear interpolation with boundary clamping.

    Returns the interpolated values at the query rows Y (Q, d), the mask of
    clamped queries and the mask of queries whose stencil touches a node of
    the boolean ``taint`` tensor with nonzero weight.  The stencil (base flat
    index and one weight pair per axis) is formed once; corner c reads both
    tables at base + a constant offset, and bit k of c picks axis k's upper
    node.
    """
    if np.isnan(Y).any():
        raise ValueError("interpolation query has a NaN coordinate")
    d = len(axes)
    strides = [int(np.prod(tensor.shape[k + 1:])) for k in range(d)]
    clamped = np.zeros(Y.shape[0], dtype=bool)
    base = np.zeros(Y.shape[0], dtype=np.intp)
    pairs = []
    for ax, y, stride in zip(axes, Y.T, strides):
        fi = (y - ax.lo) / ax.spacing
        clamped |= (fi < 0.0) | (fi > ax.count - 1.0)
        fi = np.clip(fi, 0.0, ax.count - 1.0)
        i0 = np.minimum(np.floor(fi).astype(np.intp), ax.count - 2)
        frac = fi - i0
        # snap float noise so queries at grid nodes reproduce node values
        frac[frac < 1e-12] = 0.0
        frac[frac > 1.0 - 1e-12] = 1.0
        base += i0 * stride
        pairs.append((1.0 - frac, frac))
    flat, taint_flat = tensor.reshape(-1), taint.reshape(-1)
    out = np.zeros(Y.shape[0])
    touched = np.zeros(Y.shape[0], dtype=bool)
    for corner in range(1 << d):
        bits = [corner >> k & 1 for k in range(d)]
        wgt = pairs[0][bits[0]]
        for k in range(1, d):
            wgt = wgt * pairs[k][bits[k]]
        idx = base + sum(b * stride for b, stride in zip(bits, strides))
        out += wgt * flat[idx]
        touched |= (wgt > 0.0) & taint_flat[idx]
    return out, clamped, touched


@dataclass
class ValueGrid:
    """Tabulated values and argmin control indices over time x state grid.

    ``tainted[j]`` marks nodes whose value depends on at least one clamped
    (out-of-grid) lookup anywhere later in the recursion; residual checks
    treat them as boundary-influenced rather than as evidence about the
    equation.
    """

    grid: TimeGrid
    axes: list
    values: np.ndarray          # (steps + 1, *counts)
    argmin: np.ndarray          # (steps, *counts) int32
    tainted: np.ndarray         # (steps + 1, *counts) bool
    clamp_count: int
    coverage_radius: float
    coverage_ok: bool
    meta: dict = field(default_factory=dict)

    @property
    def shape(self):
        return tuple(ax.count for ax in self.axes)

    def node_matrix(self):
        """All grid nodes as stacked coordinates, shape (Q, d)."""
        return _node_mesh([ax.nodes for ax in self.axes])

    def evaluate(self, j, Z):
        """Interpolate slice j at stacked points Z (Q, d) -> (values, n_clamped)."""
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        if Z.shape[1] != len(self.axes):
            raise DimensionMismatchError(f"state has {Z.shape[1]} coordinates, "
                                         f"the grid has {len(self.axes)} axes")
        vals, clamped, _ = _interpolate(self.values[j], self.tainted[j], self.axes, Z)
        return vals, int(clamped.sum())

    def value_at(self, t, z):
        """Value at a grid time node (matched within 1e-9) and stacked state."""
        j = int(np.argmin(np.abs(self.grid.nodes - t)))
        if abs(self.grid.nodes[j] - t) > 1e-9:
            raise ValueError(f"t={t} is not a grid node of {self.grid}")
        vals, _ = self.evaluate(j, np.asarray(z, dtype=float)[None, :])
        return float(vals[0])

    # -- persistence ----------------------------------------------------

    def save(self, path):
        """Documented binary layout: magic, u64 header length, JSON header
        (grid, axes, counters), then C-order float64 values and int32 argmin."""
        header = {
            "s": self.grid.s, "T": self.grid.T, "steps": self.grid.steps,
            "axes": [[ax.lo, ax.hi, ax.count] for ax in self.axes],
            "clamp_count": self.clamp_count,
            "coverage_radius": self.coverage_radius,
            "coverage_ok": self.coverage_ok,
            "meta": self.meta,
        }
        blob = json.dumps(header, sort_keys=True).encode()
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            fh.write(np.ascontiguousarray(self.values, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(self.argmin, dtype="<i4").tobytes())
            fh.write(np.ascontiguousarray(self.tainted, dtype="u1").tobytes())

    @classmethod
    def load(cls, path):
        """Read exactly the bytes :meth:`save` writes; a short read or a
        trailing byte raises ValueError naming the file."""
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size

            def read(n):
                if fh.tell() + n > size:
                    raise ValueError(f"{path} is truncated at {size} bytes")
                return fh.read(n)

            if fh.read(len(_MAGIC)) != _MAGIC:
                raise ValueError(f"{path} is not a value-grid file")
            (hlen,) = struct.unpack("<Q", read(8))
            header = json.loads(read(hlen).decode())
            axes = [Axis(*trip) for trip in header["axes"]]
            shape = tuple(ax.count for ax in axes)
            nval = (header["steps"] + 1) * int(np.prod(shape))
            narg = header["steps"] * int(np.prod(shape))
            values = np.frombuffer(read(8 * nval), dtype="<f8").reshape(
                (header["steps"] + 1,) + shape).copy()
            argmin = np.frombuffer(read(4 * narg), dtype="<i4").reshape(
                (header["steps"],) + shape).copy()
            tainted = np.frombuffer(read(nval), dtype="u1").reshape(
                (header["steps"] + 1,) + shape).astype(bool)
            if fh.tell() != size:
                raise ValueError(f"{path} has {size - fh.tell()} trailing bytes")
        grid = TimeGrid(header["s"], header["T"], header["steps"])
        return cls(grid=grid, axes=axes, values=values, argmin=argmin,
                   tainted=tainted, clamp_count=header["clamp_count"],
                   coverage_radius=header["coverage_radius"],
                   coverage_ok=header["coverage_ok"], meta=header.get("meta", {}))


def value_dp(p: ProblemSpec, axes, grid: TimeGrid, phi_radius=None,
             workers=1) -> ValueGrid:
    """Backward one-step recursion over the stacked-coordinate tensor grid.

    ``phi_radius``, when given, is the largest per-atom state norm of the
    initial data the table will be queried at; the a-priori growth bound
    turns it into a reachability radius, and a warning is raised if the axes
    do not contain it.  The recursion itself uses one explicit Euler substep
    and multilinear interpolation; out-of-grid lookups clamp and count.
    """
    axes = _as_axes(axes)
    M, n = p.space.size, p.n
    d = M * n
    if len(axes) != d:
        raise ValueError(f"need one axis per stacked coordinate ({d}), got {len(axes)}")
    if d > 4:
        raise ValueError(f"stacked dimension {d} exceeds the feasibility guard (4)")

    coverage_radius = np.nan
    coverage_ok = True
    if phi_radius is not None:
        c = p.dynamics.growth_c
        span = grid.T - grid.s
        coverage_radius = (phi_radius + c * span) * np.exp(c * span)
        for i in range(M):
            blk = axes[i * n:(i + 1) * n]
            if any(ax.lo > -coverage_radius or ax.hi < coverage_radius for ax in blk):
                coverage_ok = False
        if not coverage_ok:
            warnings.warn(
                f"axes do not cover the reachability radius {coverage_radius:.4g} "
                f"from initial norms <= {phi_radius:.4g}", GridCoverageWarning)

    shape = tuple(ax.count for ax in axes)
    Z = _node_mesh([ax.nodes for ax in axes])
    Q = Z.shape[0]
    X = Z.reshape(Q, M, n)

    per_atom = p.cost.values(X)
    if not np.all(np.isfinite(per_atom)):
        q, i = np.argwhere(~np.isfinite(per_atom))[0]
        raise TerminalValueError(
            f"terminal cost is not finite at grid node {int(q)}, atom {int(i)}"
        )
    N = grid.steps
    values = np.empty((N + 1,) + shape)
    argmin = np.empty((N,) + shape, dtype=np.int32)
    tainted = np.zeros((N + 1,) + shape, dtype=bool)
    values[N] = (per_atom @ p.space.weights).reshape(shape)

    clamp_total = 0
    fld = p.dynamics.field

    for j in range(N - 1, -1, -1):
        t = grid.nodes[j]
        h = grid.nodes[j + 1] - grid.nodes[j]
        pts = p.controls.active_set(t)
        K = pts.shape[0]
        cand = np.empty((K, Q))
        bad = np.zeros(Q, dtype=bool)
        nxt = values[j + 1]
        nxt_taint = tainted[j + 1]

        def fill(q0, q1):
            nc = 0
            for k in range(K):
                Y = Z[q0:q1] + h * fld(t, X[q0:q1], pts[k]).reshape(q1 - q0, d)
                vals, clamped, touched = _interpolate(nxt, nxt_taint, axes, Y)
                cand[k, q0:q1] = vals
                # a node is trustworthy only if every candidate branch is
                bad[q0:q1] |= clamped | touched
                nc += int(clamped.sum())
            return nc

        if workers > 1:
            bounds = np.linspace(0, Q, workers + 1).astype(int)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                counts = list(pool.map(lambda b: fill(b[0], b[1]),
                                       zip(bounds[:-1], bounds[1:])))
            clamp_total += sum(counts)
        else:
            clamp_total += fill(0, Q)

        values[j] = cand.min(axis=0).reshape(shape)
        argmin[j] = cand.argmin(axis=0).astype(np.int32).reshape(shape)
        tainted[j] = bad.reshape(shape)

    return ValueGrid(grid=grid, axes=axes, values=values, argmin=argmin,
                     tainted=tainted, clamp_count=clamp_total,
                     coverage_radius=float(coverage_radius),
                     coverage_ok=coverage_ok, meta=dict(p.meta))


# -- adjoint descent ----------------------------------------------------------

@dataclass
class AdjointResult:
    value: float
    control: ControlSignal
    iterations: int
    history: list
    gradient_norm: float


def _objective_and_gradient(p, grid, phi, U, need_grad=True):
    """Discrete cost and its exact gradient via the reverse of each step."""
    fld = p.dynamics.field
    N = grid.steps
    states = np.empty((N + 1, p.space.size, p.n))
    states[0] = phi.values
    X = phi.values
    for j in range(N):
        X = _rk4_step(fld, grid.nodes[j], grid.nodes[j + 1] - grid.nodes[j], X, U[j])
        states[j + 1] = X
    per_atom = p.cost.values(X)
    J = float(p.space.weights @ per_atom)
    if not need_grad:
        return J, None, None
    lam = p.cost.grad_ens(X) * p.space.weights[:, None]
    grads = np.empty((N, p.m))
    jx, ju = p.dynamics.jac_x_ens, p.dynamics.jac_u_ens
    for j in range(N - 1, -1, -1):
        t = grid.nodes[j]
        h = grid.nodes[j + 1] - grid.nodes[j]
        Xj = states[j]
        u = U[j]
        k1 = fld(t, Xj, u)
        x2 = Xj + 0.5 * h * k1
        k2 = fld(t + 0.5 * h, x2, u)
        x3 = Xj + 0.5 * h * k2
        k3 = fld(t + 0.5 * h, x3, u)
        x4 = Xj + h * k3
        jx1, ju1 = jx(t, Xj, u), ju(t, Xj, u)
        jx2, ju2 = jx(t + 0.5 * h, x2, u), ju(t + 0.5 * h, x2, u)
        jx3, ju3 = jx(t + 0.5 * h, x3, u), ju(t + 0.5 * h, x3, u)
        jx4, ju4 = jx(t + h, x4, u), ju(t + h, x4, u)
        g4 = (h / 6.0) * lam
        g3 = (h / 3.0) * lam + h * np.einsum("mij,mi->mj", jx4, g4)
        g2 = (h / 3.0) * lam + 0.5 * h * np.einsum("mij,mi->mj", jx3, g3)
        g1 = (h / 6.0) * lam + 0.5 * h * np.einsum("mij,mi->mj", jx2, g2)
        grads[j] = (np.einsum("mik,mi->k", ju1, g1)
                    + np.einsum("mik,mi->k", ju2, g2)
                    + np.einsum("mik,mi->k", ju3, g3)
                    + np.einsum("mik,mi->k", ju4, g4))
        lam = (lam + np.einsum("mij,mi->mj", jx1, g1)
               + np.einsum("mij,mi->mj", jx2, g2)
               + np.einsum("mij,mi->mj", jx3, g3)
               + np.einsum("mij,mi->mj", jx4, g4))
    return J, grads, states


def value_adjoint(p: ProblemSpec, s, phi: EnsembleState, grid: TimeGrid,
                  iterations=200, step0=1.0, xtol=1e-12,
                  init=None) -> AdjointResult:
    """Projected descent on the discretized control; an upper bound on the value.

    Requires the differentiability capability (ensemble Jacobians and cost
    gradient) and box control hulls, onto which controls are projected
    exactly; accepted iterations are strictly improving, so the recorded
    history is monotone nonincreasing.
    """
    if not (p.dynamics.differentiable and p.cost.differentiable):
        raise CapabilityError(
            "adjoint descent needs dynamics Jacobians and a cost gradient"
        )
    if abs(grid.s - s) > 1e-12:
        raise ValueError(f"grid starts at {grid.s}, expected {s}")
    if init is None:
        U = np.stack([p.controls.active_set(grid.nodes[j]).mean(axis=0)
                      for j in range(grid.steps)])
    else:
        U = np.array(init.values if isinstance(init, ControlSignal) else init,
                     dtype=float)
    U = p.controls.project(grid.nodes[:-1], U)
    J, G, _ = _objective_and_gradient(p, grid, phi, U)
    history = [J]
    alpha = step0
    accepted = 0
    for _ in range(iterations):
        gnorm = float(np.abs(G).max())
        if gnorm == 0.0:
            break
        improved = False
        while alpha >= 1e-14:
            trial = p.controls.project(grid.nodes[:-1], U - alpha * G)
            if np.max(np.abs(trial - U)) <= xtol:
                break
            Jt, _, _ = _objective_and_gradient(p, grid, phi, trial,
                                               need_grad=False)
            if Jt < J:
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break
        U = trial
        J, G, _ = _objective_and_gradient(p, grid, phi, U)
        history.append(J)
        accepted += 1
        alpha *= 2.0
    gnorm = float(np.abs(G).max()) if G is not None else 0.0
    return AdjointResult(value=J, control=ControlSignal(grid, U),
                         iterations=accepted, history=history,
                         gradient_norm=gnorm)


# -- method-agnostic queries ---------------------------------------------------

def greedy_rollout(p: ProblemSpec, vg: ValueGrid, phi: EnsembleState):
    """Roll the stored argmin table forward from phi (nearest-node policy)."""
    from .ensemble import Trajectory
    grid = vg.grid
    z = stack_state(phi)
    vals = np.empty((grid.steps, p.m))
    states = np.empty((grid.steps + 1, p.space.size, p.n))
    states[0] = phi.values
    X = phi.values
    fld = p.dynamics.field
    for j in range(grid.steps):
        node = tuple(
            int(np.clip(round((z[k] - ax.lo) / ax.spacing), 0, ax.count - 1))
            for k, ax in enumerate(vg.axes)
        )
        u = p.controls.active_set(grid.nodes[j])[int(vg.argmin[j][node])]
        vals[j] = u
        X = _rk4_step(fld, grid.nodes[j], grid.nodes[j + 1] - grid.nodes[j], X, u)
        states[j + 1] = X
        z = X.reshape(-1)
    sig = ControlSignal(grid, vals)
    return sig, Trajectory(grid=grid, states=states, control=sig, space=p.space)


@dataclass
class ValueQuery:
    """Where and how to evaluate the value function."""

    s: float
    phi: EnsembleState
    method: str = "oracle"       # oracle | dp | adjoint
    steps: int = 8
    axes: list = None            # required for dp
    budget: int = 1_000_000
    iterations: int = 200
    workers: int = 1


@dataclass
class QueryResult:
    value: float
    control: ControlSignal
    grid: object = None          # ValueGrid for the dp method


def compute_value(p: ProblemSpec, query: ValueQuery) -> QueryResult:
    """Evaluate one query by the selected method.

    The oracle is exact for the discretized problem, dp tabulates and
    interpolates, adjoint descends; all three return an admissible control.
    The oracle's and the adjoint's controls realize their reported values.
    The dp control is the nearest-node greedy rollout of the argmin table and
    need not realize the interpolated table value it is reported with.
    """
    if not (0.0 <= query.s < p.horizon):
        raise ValueError(f"query time {query.s} outside [0, {p.horizon})")
    grid = TimeGrid(query.s, p.horizon, query.steps)
    if query.method == "oracle":
        res = value_oracle(p, query.s, query.phi, grid, budget=query.budget)
        return QueryResult(value=res.value, control=res.best)
    if query.method == "dp":
        if query.axes is None:
            raise ValueError("the dp method needs state axes")
        phi_radius = float(np.linalg.norm(query.phi.values, axis=1).max())
        vg = value_dp(p, query.axes, grid, phi_radius=phi_radius,
                      workers=query.workers)
        sig, _ = greedy_rollout(p, vg, query.phi)
        return QueryResult(value=vg.value_at(query.s, stack_state(query.phi)),
                           control=sig, grid=vg)
    if query.method == "adjoint":
        res = value_adjoint(p, query.s, query.phi, grid,
                            iterations=query.iterations)
        return QueryResult(value=res.value, control=res.control)
    raise ValueError(f"unknown method {query.method!r}")


# -- two-stage identity -------------------------------------------------------

@dataclass
class DppResult:
    residual: float
    value_direct: float
    value_two_stage: float
    one_sided_max: float
    witness_prefix: tuple
    witness_suffix: tuple


def dpp_residual(p: ProblemSpec, s1, s2, phi: EnsembleState, grid: TimeGrid,
                 budget=1_000_000) -> DppResult:
    """Compare the direct value with the two-stage minimization split at s2.

    Both sides enumerate the same class of signals, so the residual is zero
    up to float noise.  ``one_sided_max`` is the largest violation of the
    monotonicity direction (direct value minus the value reached through an
    arbitrary admissible prefix); it should never exceed float noise either.
    """
    if abs(grid.s - s1) > 1e-12:
        raise ValueError(f"grid starts at {grid.s}, expected s1={s1}")
    if abs(s2 - s1) <= 1e-15:
        direct = value_oracle(p, s1, phi, grid, budget)
        return DppResult(residual=0.0, value_direct=direct.value,
                         value_two_stage=direct.value, one_sided_max=0.0,
                         witness_prefix=(), witness_suffix=direct.best_indices)
    offsets = np.abs(grid.nodes - s2)
    j = int(np.argmin(offsets))
    if offsets[j] > 1e-9 or j == 0 or j == grid.steps:
        raise ValueError(f"s2={s2} must be an interior node of {grid}")
    direct = value_oracle(p, s1, phi, grid, budget)
    prefix_tree = build_oracle_tree(p, s1, phi, grid.prefix(j), budget)
    mids = prefix_tree.states[j]
    suffix_grid = grid.suffix(j)
    best_val = np.inf
    best_q = 0
    best_suffix = ()
    worst_gap = -np.inf
    for q in range(mids.shape[0]):
        state = EnsembleState(mids[q], p.space)
        res = value_oracle(p, grid.nodes[j], state, suffix_grid, budget)
        worst_gap = max(worst_gap, direct.value - res.value)
        if res.value < best_val:
            best_val = res.value
            best_q = q
            best_suffix = res.best_indices
    return DppResult(residual=direct.value - best_val,
                     value_direct=direct.value, value_two_stage=float(best_val),
                     one_sided_max=float(worst_gap),
                     witness_prefix=prefix_tree.decode(best_q),
                     witness_suffix=best_suffix)
