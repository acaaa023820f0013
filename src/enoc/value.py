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

import contextlib
import functools
import json
import math
import mmap
import os
import struct
import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import (CapabilityError, CapacityError, DimensionMismatchError,
                     GridCoverageWarning, TerminalValueError)
from .measure import EnsembleState
from .problem import ProblemSpec
from .ensemble import (ControlSignal, TimeGrid, Trajectory, _integrate_batch,
                       _raise_divergence, _rk4_stages, _rk4_step, integrate)

_MAGIC = b"ENOCVG1\n"
_LEAF_BLOCK = 1 << 16          # states per terminal-cost call and oracle leaf block,
                               # argmin entries per chunk that the grid writer widens


def stack_state(phi: EnsembleState) -> np.ndarray:
    """Flatten (M, n) atom states into one vector, atom-major."""
    return phi.values.reshape(-1)


def unstack_state(z, space, n) -> EnsembleState:
    return EnsembleState(np.asarray(z, dtype=float).reshape(space.size, n), space)


# -- terminal functional ---------------------------------------------------

def _terminal_sums(p: ProblemSpec, X, where=None, finite=False):
    """Mass-weighted terminal costs of stacked states X (nodes, M, n) under
    the gate of :func:`_weighted_costs`.  The cost runs on blocks of
    _LEAF_BLOCK nodes, so its temporaries stay small, into one contiguous
    per-atom array (the weighted sum of a strided one rounds differently).
    """
    per_atom = np.empty(X.shape[:2])
    for lo in range(0, X.shape[0], _LEAF_BLOCK):
        per_atom[lo:lo + _LEAF_BLOCK] = p.cost.values(X[lo:lo + _LEAF_BLOCK])
    return _weighted_costs(p, per_atom, where, finite)


def _weighted_costs(p: ProblemSpec, per_atom, where=None, finite=False):
    """Mass-weighted sums of per-atom costs (nodes, M), in one call (a row
    block's sum can round differently): the one terminal-cost gate of every
    solver.  +inf propagates (unless ``finite``); NaN, -inf, and finite costs
    whose weighted sum overflows raise TerminalValueError.  Only the rows whose
    sum is not finite are searched.  ``where`` names a row in the error (None
    for a single state)."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = per_atom @ p.space.weights
    rows = np.flatnonzero(~np.isfinite(total))
    if rows.size:
        bad = per_atom[rows]
        for word, test in (("NaN", np.isnan), ("-inf", np.isneginf),
                           ("+inf", np.isposinf)):
            hit = test(bad)
            if hit.any() and (finite or word != "+inf"):
                r, i = np.argwhere(hit)[0]
                at = f"at atom {i}" if where is None else f"on {where} {rows[r]}, atom {i}"
                raise TerminalValueError(f"terminal cost is {word} {at}")
        if np.isfinite(bad).all(axis=1).any():
            raise TerminalValueError("the mass-weighted terminal cost overflows "
                                     "although every atom's cost is finite")
    return total


def terminal_functional(p: ProblemSpec, phi: EnsembleState) -> float:
    """Mass-weighted terminal cost under the gate of :func:`_weighted_costs`."""
    return float(_terminal_sums(p, phi.values[None])[0])


# -- exhaustive enumeration --------------------------------------------------

@dataclass
class OracleTree:
    """All states reachable by signals on the grid, level by level, and the
    exact minimum over all continuations from each.

    ``states[j]``, for levels j = 0 .. steps - 1, has shape (B starts x prod
    of set sizes up to j, M, n), ordered so that index q at level j+1
    corresponds to node q // K_j with control q % K_j appended: flat order is
    lexicographic in (start, control indices).  The leaf level (j = steps) is
    costed in blocks as it is made and never held: ``values[steps]`` holds the
    leaf costs.  ``values[j][q]`` is the exact minimum over all continuations.
    For j >= 1, ``states[j]`` is a (nodes, M, n) view of an (M, n, nodes)
    array: the node axis is innermost (stride 8 bytes), so the field's and
    RK4's broadcasts loop over it.  ``states[0]`` is the start stack as given.
    """

    grid: TimeGrid
    controls: list              # active set (K_j, m) of each step
    states: list
    values: list

    def decode(self, leaf_index):
        """Control indices of the signal that reaches a given leaf."""
        return self.decode_level(len(self.controls), leaf_index)

    def decode_level(self, level, index):
        """Control indices of the prefix that reaches node `index` at `level`."""
        digits = []
        q = int(index)
        for pts in reversed(self.controls[:level]):
            digits.append(q % len(pts))
            q //= len(pts)
        return tuple(reversed(digits))

    def optimum(self):
        """(start index, OracleResult) of the smallest leaf.

        Ties break to the first start, then to the lexicographically first
        control-index sequence.
        """
        leaf = self.values[-1]
        best = int(np.argmin(leaf))
        indices = self.decode(best)
        vals = np.stack([pts[k] for pts, k in zip(self.controls, indices)])
        return (best // (leaf.size // self.values[0].size),
                OracleResult(value=float(leaf[best]),
                             best=ControlSignal(self.grid, vals),
                             best_indices=indices))


def enumeration_count(p: ProblemSpec, grid: TimeGrid) -> int:
    total = 1
    for j in range(grid.steps):
        total *= p.controls.active_set(grid.nodes[j]).shape[0]
    return total


def _children(fld, t, h, nodes, pts):
    """The children (B x K, M, n) of ``nodes`` (B, M, n) under the controls
    ``pts`` (K, m), lexicographic, as a view of node-innermost (M, n, B, K)
    memory: every broadcast of the step loops over the node axis."""
    M, n = nodes.shape[1:]
    nxt = np.empty((M, n, nodes.shape[0], len(pts)))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, u in enumerate(pts):
            nxt[..., k] = _rk4_step(fld, t, h, nodes, u).transpose(1, 2, 0)
    return nxt.reshape(M, n, -1).transpose(2, 0, 1)


def build_oracle_tree(p: ProblemSpec, s, phi, grid: TimeGrid,
                      budget=1_000_000) -> OracleTree:
    """Enumerate every signal from phi, one EnsembleState or B stacked start
    states (B, M, n); the budget counts B x signals.  The leaf level is made
    in blocks of whole nodes, at most _LEAF_BLOCK leaves each (or one node),
    and each block is costed and dropped, never held.  The first leaf with a
    non-finite state raises DivergenceError as an :func:`_integrate_batch`
    row does.  A NaN or -inf leaf cost, or a weighted sum that overflows,
    raises TerminalValueError; +inf is kept (the gate of :func:`_weighted_costs`)."""
    starts = (phi.values[None] if isinstance(phi, EnsembleState)
              else np.asarray(phi, dtype=float))
    if starts.ndim != 3 or starts.shape[1:] != (p.space.size, p.n):
        raise DimensionMismatchError(f"start states of shape {starts.shape}, "
                                     f"need (B, {p.space.size}, {p.n})")
    total = starts.shape[0] * enumeration_count(p, grid)
    if total > budget:
        raise CapacityError(
            f"enumeration needs {total} signals, budget is {budget}; shrink the grid"
        )
    if abs(grid.s - s) > 1e-12:
        raise ValueError(f"grid starts at {grid.s}, expected {s}")
    fld, nodes = p.dynamics.field, grid.nodes
    controls = [p.controls.active_set(t) for t in nodes[:-1]]
    states = [starts]
    for j in range(grid.steps - 1):
        states.append(_children(fld, nodes[j], nodes[j + 1] - nodes[j], states[-1],
                                controls[j]))
    # the leaf level in blocks of whole nodes, each scanned, costed and
    # dropped; control k's leaves are costed straight into their strided rows
    K, parents = len(controls[-1]), states[-1]
    t, h = nodes[-2], nodes[-1] - nodes[-2]
    per_atom = np.empty((parents.shape[0] * K, p.space.size))
    width = max(1, _LEAF_BLOCK // K)
    for lo in range(0, parents.shape[0], width):
        block, bad = parents[lo:lo + width], []
        for k, u in enumerate(controls[-1]):
            with np.errstate(over="ignore", invalid="ignore"):
                leaves = _rk4_step(fld, t, h, block, u)
            finite = np.isfinite(leaves).all(axis=(1, 2))
            if not finite.all():
                r = int(np.argmin(finite))
                bad.append(((lo + r) * K + k, leaves[r]))
            elif not bad:
                per_atom[lo * K + k:(lo + block.shape[0]) * K:K] = p.cost.values(leaves)
        if bad:
            # a state once non-finite stays so: the first bad leaf's chain
            # holds the first non-finite node
            q, leaf = min(bad, key=lambda pair: pair[0])
            chain = [level[q // math.prod(map(len, controls[j:]))]
                     for j, level in enumerate(states)]
            _raise_divergence(grid.nodes[None], np.stack(chain + [leaf])[:, None])
    values = [None] * (grid.steps + 1)
    values[grid.steps] = _weighted_costs(p, per_atom, "an enumerated endpoint, leaf")
    for j in range(grid.steps - 1, -1, -1):
        values[j] = values[j + 1].reshape(-1, len(controls[j])).min(axis=1)
    return OracleTree(grid=grid, controls=controls, states=states, values=values)


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
    return build_oracle_tree(p, s, phi, grid, budget).optimum()[1]


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
        if not all(map(math.isfinite, (self.lo, self.hi, self.spacing))):
            raise ValueError(f"axis [{self.lo}, {self.hi}] needs finite bounds and spacing")

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


def _stencil(axes, Y):
    """Multilinear stencil of the query rows Y (Q, d) in a C-order table over
    ``axes``, with boundary clamping.

    Returns the 2^d corners as (flat index, weight) pairs, bit k of corner c
    picking axis k's upper node, and the mask of clamped queries.  Fractions
    within 1e-12 of a node snap to it, so queries at grid nodes reproduce
    node values and every per-axis weight is 0 or at least about 1e-12.  A
    NaN coordinate raises ValueError.
    """
    if np.isnan(Y).any():
        raise ValueError("interpolation query has a NaN coordinate")
    d = len(axes)
    strides = [math.prod(ax.count for ax in axes[k + 1:]) for k in range(d)]
    base = np.zeros(Y.shape[0], dtype=np.intp)
    clamped = np.zeros(Y.shape[0], dtype=bool)
    pairs = []
    for ax, y, stride in zip(axes, Y.T, strides):
        fi = (y - ax.lo) / ax.spacing
        clamped |= (fi < 0.0) | (fi > ax.count - 1.0)
        fi = np.clip(fi, 0.0, ax.count - 1.0)
        i0 = np.minimum(np.floor(fi).astype(np.intp), ax.count - 2)
        frac = fi - i0
        frac[frac < 1e-12] = 0.0
        frac[frac > 1.0 - 1e-12] = 1.0
        base += i0 * stride
        pairs.append((1.0 - frac, frac))
    corners = []
    for corner in range(1 << d):
        bits = [corner >> k & 1 for k in range(d)]
        wgt = pairs[0][bits[0]]
        for k in range(1, d):
            wgt = wgt * pairs[k][bits[k]]
        corners.append((base + sum(b * stride for b, stride in zip(bits, strides)),
                        wgt))
    return corners, clamped


def _interpolate(tensor, taint, axes, Y):
    """Multilinear interpolation with boundary clamping.

    Returns the interpolated values at the query rows Y (Q, d), the mask of
    clamped queries and the mask of queries whose stencil touches a node of
    the boolean ``taint`` tensor with nonzero weight.
    """
    corners, clamped = _stencil(axes, Y)
    flat, taint_flat = tensor.reshape(-1), taint.reshape(-1)
    out = np.zeros(Y.shape[0])
    touched = np.zeros(Y.shape[0], dtype=bool)
    for idx, wgt in corners:
        out += wgt * flat[idx]
        touched |= (wgt > 0.0) & taint_flat[idx]
    return out, clamped, touched


def _kron_apply(table, ops, out, scratch, mul=np.multiply, add=np.add):
    """Apply one block operator per mode of ``table`` (N_0, ..., N_{M-1}), for
    a batch of w candidates at once.

    ``ops[i]`` is block i's stencil for the batch, a list of (index, weight)
    corner pairs of shape (w * N_i,) each, candidate after candidate: mode i
    of candidate k's result at r reads its input at ``index[k * N_i + r]``
    along axis i with ``weight[k * N_i + r]``.  Mode 0 reads the shared
    table, so its indices are below N_0; later modes read each candidate's
    own slab of the running result, so their indices are offset by k * N_i.
    The modes apply one after the other, so the whole is the Kronecker
    product of the block operators.  Every gather runs along the leading
    axis, whose rows are contiguous: mode i views its input as (w N_i, rest)
    (the table as (N_0, rest)), gathers and weights whole rows, sums the
    corners (the first one writes the sum, no zero fill) and rotates each
    candidate's sum to (rest, N_i), so that mode i + 1 leads.  After M
    rotations each candidate's result is back in the table's order (the
    shuffle order of Kronecker products), and the batch's is (w, N_0, ...,
    N_{M-1}).  ``mul`` and ``add`` pick the semiring (logical_and and
    logical_or apply the operator's support to a boolean table).  The result
    is written to ``out``; ``scratch`` holds three flat arrays of at least w
    times the table's size, in its dtype, so no call allocates.
    """
    buf, acc, rot = scratch
    size = table.size
    w = out.size // size                    # candidates in the batch
    src = table
    for i, ((idx, wgt), *corners) in enumerate(ops):
        rows = src.reshape(-1, size // table.shape[i])
        total = acc[:w * size].reshape(idx.shape[0], rows.shape[1])
        term = buf[:w * size].reshape(total.shape)
        # indices are in range; mode="raise" would copy through a buffer
        np.take(rows, idx, axis=0, out=total, mode="clip")
        mul(total, wgt[:, None], out=total)
        for idx, wgt in corners:
            np.take(rows, idx, axis=0, out=term, mode="clip")
            mul(term, wgt[:, None], out=term)
            add(total, term, out=total)
        src = out if i == len(ops) - 1 else rot[:w * size]
        lead = total.reshape(w, -1, total.shape[1])
        np.copyto(src.reshape(w, lead.shape[2], lead.shape[1]), lead.transpose(0, 2, 1))
    return out


@dataclass
class ValueGrid:
    """Tabulated values and argmin control indices over time x state grid.

    ``tainted[j]`` marks nodes whose value depends on at least one clamped
    (out-of-grid) lookup anywhere later in the recursion; residual checks
    treat them as boundary-influenced rather than as evidence about the
    equation.  The tables are arrays in memory, or read-only views of a
    mapped value-grid file (:meth:`map`, the file's one reader).
    """

    grid: TimeGrid
    axes: list
    values: np.ndarray          # (steps + 1, *counts)
    argmin: np.ndarray          # (steps, *counts): value_dp's narrowest unsigned
                                # type (_argmin_dtype), the file's int32 when mapped
    tainted: np.ndarray         # (steps + 1, *counts) bool
    clamp_count: int
    coverage_radius: float
    coverage_ok: bool
    meta: dict = field(default_factory=dict)
    source: tuple = field(default=None, repr=False, compare=False)  # map's (pread, _Layout)

    @property
    def shape(self):
        return tuple(ax.count for ax in self.axes)

    def node_matrix(self):
        """All grid nodes as stacked coordinates, shape (Q, d)."""
        return _node_mesh([ax.nodes for ax in self.axes])

    def evaluate(self, j, Z):
        """Interpolate slice j at stacked points Z (Q, d) -> (values, n_clamped,
        touched), ``touched`` marking the points whose stencil reads a tainted node."""
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        if Z.shape[1] != len(self.axes):
            raise DimensionMismatchError(f"state has {Z.shape[1]} coordinates, "
                                         f"the grid has {len(self.axes)} axes")
        vals, clamped, touched = _interpolate(self.values[j], self.tainted[j], self.axes, Z)
        return vals, int(clamped.sum()), touched

    def time_index(self, t):
        """Index of the grid time node t (matched within 1e-9)."""
        j = int(np.argmin(np.abs(self.grid.nodes - t)))
        if not abs(self.grid.nodes[j] - t) <= 1e-9:       # NaN is no node
            raise ValueError(f"t={t} is not a grid node of {self.grid}")
        return j

    def value_at(self, t, z):
        """Value at a grid time node and stacked state."""
        vals, _, _ = self.evaluate(self.time_index(t), np.asarray(z, dtype=float)[None, :])
        return float(vals[0])

    def argmin_at(self, j, node):
        """Argmin entry of slice j at the index tuple ``node``; a mapped grid
        preads it, as indexing the view faults in a page-cache folio (64 KB+)."""
        if self.source is None:
            return int(self.argmin[j][node])
        read, layout = self.source
        at = layout.offset("argmin", j) + 4 * int(np.ravel_multi_index(node, self.shape))
        return int.from_bytes(read(4, at), "little", signed=True)

    # -- persistence ----------------------------------------------------

    def save(self, path):
        """Write the ENOCVG1 file (see :class:`_Layout`) slice by slice
        through :func:`_grid_writer`, which writes the values and the taint
        from their own memory and widens the argmin, of any integer dtype in
        memory, to int32 in chunks, so the file is the same whatever that
        dtype.  The file is made under a temporary name and then replaces
        ``path``, so saving onto the file a grid is mapped from does not
        truncate it under the mapping."""
        with _grid_writer(path, self.grid, self.axes, self.coverage_radius,
                          self.coverage_ok, self.meta) as (write, header):
            header["clamp_count"] = self.clamp_count
            for j in range(self.grid.steps + 1):
                write(j, self.values[j], self.tainted[j],
                      self.argmin[j] if j < self.grid.steps else None)

    @classmethod
    def map(cls, path):
        """Map a file :meth:`save` writes read-only, after the checks of
        :func:`_read_header`: every table is a view of the mapping, so a
        reader touches only the pages it reads.  The argmin is the file's
        int32 and the taint its bytes as bool (numpy's boolean operations
        read any nonzero byte as True).  :meth:`argmin_at` preads the file
        that was mapped, whatever later replaces it at ``path``."""
        with open(path, "rb") as fh:
            header, grid, axes, layout = _read_header(fh, path)
            buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            fd = os.dup(fh.fileno())
        size = math.prod(layout.shape)
        values, argmin, tainted = (
            np.frombuffer(buf, dtype, count * size, at).reshape((count,) + layout.shape)
            for at, dtype, count in layout.tables.values())
        read = functools.partial(os.pread, fd)
        weakref.finalize(read, os.close, fd)
        return cls(grid=grid, axes=axes, values=values, argmin=argmin, tainted=tainted,
                   clamp_count=header["clamp_count"],
                   coverage_radius=header["coverage_radius"],
                   coverage_ok=header["coverage_ok"], meta=header["meta"],
                   source=(read, layout))


class _Layout:
    """The ENOCVG1 file: magic, u64 header length and JSON header, then the
    tables from offset ``start`` on: C-order float64 values (steps + 1
    slices), int32 argmin (steps slices) and one byte (0 or 1) per taint flag
    (steps + 1 slices), each slice of ``shape``.  ``tables`` maps each table
    to (offset, dtype, slices), and every slice sits at a fixed offset, so a
    slice is written or read alone."""

    def __init__(self, start, steps, shape):
        self.shape = tuple(shape)
        self.tables = {}
        for name, dtype, count in (("values", "<f8", steps + 1), ("argmin", "<i4", steps),
                                   ("tainted", "?", steps + 1)):
            self.tables[name] = (start, np.dtype(dtype), count)
            start += count * self.slice_bytes(name)
        self.size = start

    def slice_bytes(self, name):
        return math.prod(self.shape) * self.tables[name][1].itemsize

    def offset(self, name, j):
        return self.tables[name][0] + j * self.slice_bytes(name)


@contextlib.contextmanager
def _grid_writer(path, grid, axes, coverage_radius, coverage_ok, meta):
    """Write the ENOCVG1 file of a value grid slice by slice, its header
    last: yields ``(write, header)``.  ``write(j, values, tainted,
    argmin=None)`` puts slice j of each given table at its offset, in any
    order.  The values and the taint are written from their own memory
    through a byte view (no copy when already contiguous in that dtype); the
    argmin is widened to int32 in chunks of _LEAF_BLOCK entries.  The block
    sets ``header["clamp_count"]``, which a sweep knows only at its end: the
    header's length is reserved for a 20-digit count, and when the block
    ends the header is written there, padded with trailing JSON whitespace.
    The file is made under a temporary name next to ``path`` and replaces it
    when the block ends; if the block raises, it is deleted."""
    header = {"s": grid.s, "T": grid.T, "steps": grid.steps,
              "axes": [[ax.lo, ax.hi, ax.count] for ax in axes], "clamp_count": None,
              "coverage_radius": coverage_radius, "coverage_ok": coverage_ok, "meta": meta}
    hlen = len(json.dumps(dict(header, clamp_count=10 ** 20 - 1), sort_keys=True).encode())
    layout = _Layout(len(_MAGIC) + 8 + hlen, grid.steps, [ax.count for ax in axes])
    tmp = os.fspath(path) + ".part"

    def write(j, values, tainted, argmin=None):
        fh.seek(layout.offset("values", j))
        fh.write(memoryview(np.ascontiguousarray(values, dtype="<f8")).cast("B"))
        if argmin is not None:
            fh.seek(layout.offset("argmin", j))
            arg = np.ravel(argmin)
            for lo in range(0, arg.size, _LEAF_BLOCK):
                fh.write(memoryview(arg[lo:lo + _LEAF_BLOCK].astype("<i4")).cast("B"))
        fh.seek(layout.offset("tainted", j))
        fh.write(memoryview(np.ascontiguousarray(tainted, dtype=bool)
                            .view(np.uint8)).cast("B"))

    try:
        with open(tmp, "wb") as fh:
            # fill the header's room now: left a hole until the end, it made a
            # query on solve-grid's mapped file fault in 256 kB more pages
            fh.write(bytes(layout.offset("values", 0)))
            yield write, header
            blob = json.dumps(header, sort_keys=True).encode()
            if len(blob) > hlen:
                raise ValueError(f"clamp count {header['clamp_count']} exceeds 20 digits")
            fh.seek(0)
            fh.write(_MAGIC + struct.pack("<Q", hlen) + blob.ljust(hlen))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _number(val, integer=False):
    """Whether a JSON value is a number (an integer if ``integer``), not a bool."""
    return (isinstance(val, int if integer else (int, float))
            and not isinstance(val, bool))


def _axis_triples(val):
    """Whether a JSON value is a list of [lo, hi, count] axes."""
    return isinstance(val, list) and all(
        isinstance(ax, list) and len(ax) == 3 and all(map(_number, ax))
        and _number(ax[2], integer=True) for ax in val)


# each key of the value-grid header, and the test its value passes as written
_HEADER = {"s": _number, "T": _number, "steps": lambda v: _number(v, True),
           "clamp_count": lambda v: _number(v, True), "coverage_radius": _number,
           "coverage_ok": lambda v: isinstance(v, bool),
           "meta": lambda v: isinstance(v, dict), "axes": _axis_triples}


def _read_header(fh, path):
    """The header, time grid, axes and :class:`_Layout` of the value-grid
    file open as ``fh``.  The header must be a JSON object with every key the
    writer writes, each of the type it writes, and may end in whitespace (the
    writer's padding, or none in files written before it); the file's size
    must be exactly the layout's.  Any other file raises ValueError naming
    ``path``."""
    size = os.fstat(fh.fileno()).st_size

    def read(count):
        if fh.tell() + count > size:
            raise ValueError(f"truncated at {size} bytes")
        return fh.read(count)

    try:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError("not a value-grid file")
        (hlen,) = struct.unpack("<Q", read(8))
        header = json.loads(read(hlen))
        if not isinstance(header, dict):
            raise ValueError("the header is not a JSON object")
        for key, ok in _HEADER.items():
            if not ok(header.get(key)):
                raise ValueError(f"header key {key!r} is missing" if key not in header else
                                 f"header key {key!r} is malformed: {header[key]!r:.60}")
        axes = [Axis(*trip) for trip in header["axes"]]
        layout = _Layout(fh.tell(), header["steps"], [ax.count for ax in axes])
        if layout.size != size:
            raise ValueError(f"truncated at {size} bytes" if layout.size > size
                             else f"{size - layout.size} trailing bytes")
        grid = TimeGrid(header["s"], header["T"], header["steps"])
    except (ValueError, RecursionError) as exc:       # a deeply nested header
        raise ValueError(f"{path}: {exc}") from None
    return header, grid, axes, layout


def _check_atomwise(fld, t, Xb, u):
    """CapabilityError unless each atom's velocity at the block rows Xb
    (rows, M, n) stays put when the other atoms' rows are rolled."""
    F = fld(t, Xb, u)
    if F.shape != Xb.shape:
        raise DimensionMismatchError(f"field returned shape {F.shape} for states "
                                     f"of shape {Xb.shape}")
    scale = 1e-12 * max(1.0, float(np.abs(F).max()))
    for i in range(Xb.shape[1]):
        rolled = np.roll(Xb, 1, axis=0)
        rolled[:, i] = Xb[:, i]
        if np.abs(fld(t, rolled, u)[:, i] - F[:, i]).max() > scale:
            raise CapabilityError(
                f"value_dp needs an atom-wise field: atom {i}'s velocity at "
                f"t={t:.6g}, u={np.asarray(u).tolist()} depends on other atoms")


def _argmin_dtype(sets):
    """The narrowest unsigned type that holds every control index of ``sets``."""
    return np.min_scalar_type(max(len(pts) for pts in sets) - 1)


def _feet(fld, t, h, Xb, pts, sizes):
    """Feet of one explicit Euler substep from the block nodes Xb (rows, M,
    n) under every control of pts (K, m), in one field call on the nodes
    repeated per control (K, rows, M, n) with u of shape (K, rows, m): block
    i's feet (K * size_i, n), control k owning rows k * size_i up to
    (k + 1) * size_i."""
    K, rows, _, n = (len(pts),) + Xb.shape
    XK = np.repeat(Xb[None], K, axis=0)
    F = fld(t, XK, np.broadcast_to(pts[:, None, :], (K, rows, pts.shape[1])))
    return [(XK[:, :size, i] + h * F[:, :size, i]).reshape(-1, n)
            for i, size in enumerate(sizes)]


def value_dp(p: ProblemSpec, axes, grid: TimeGrid, phi_radius=None,
             path=None) -> ValueGrid:
    """Backward one-step recursion over the stacked-coordinate tensor grid.

    ``phi_radius``, when given, is the largest per-atom state norm of the
    initial data the table will be queried at; the a-priori growth bound
    turns it into a reachability radius, and a warning is raised if the axes
    do not contain it.  The recursion itself uses one explicit Euler substep
    and multilinear interpolation; out-of-grid lookups clamp and count.

    The field must be atom-wise (see :class:`DynamicsSpec`), so the foot map
    of one step is a product of per-atom maps and the interpolation at the
    feet is the Kronecker product of one block operator per atom, built from
    the field on that atom's block of axes alone.  A probe at the last
    step's time and controls raises CapabilityError for a field that couples
    atoms.  The clamp mask is the outer OR of the per-block masks, and the
    taint is the operator's support applied to the taint table over the
    boolean semiring: a corner's weight is a product of per-axis weights that
    are 0 or at least about 1e-12, so it is > 0 exactly when every block's
    factor is.

    Each step makes one field call for all K controls, on the block nodes
    repeated per control (K, rows, M, n) with u of shape (K, rows, m), and
    builds one stencil per block over all K x rows feet; candidate k takes
    its slices.  The candidates are applied in batches of max(1, _LEAF_BLOCK
    // Q), the oracle's leaf-block rule, so a batch's buffers hold at most
    _LEAF_BLOCK nodes or one candidate: on a small grid one batch takes all
    K, on a large one each candidate runs alone and a lone candidate 0
    writes step j's value and taint slices directly.  The candidates of a
    batch then fold in, one after the other, through a running minimum and
    first argmin.  The arithmetic of every node is that of one control at a
    time.  The argmin table holds the narrowest unsigned type for the
    largest control set on the grid (uint8 up to 256 controls).

    The recursion needs only slice j + 1 to make slice j.  With ``path``,
    each finished slice of the values, argmin and taint goes into that
    ENOCVG1 file (see :meth:`ValueGrid.save`) as it is made, so the sweep
    holds two value and taint slices and one argmin slice instead of the
    tables; the file's header, which holds the clamp count, is written when
    the sweep ends.  The result then maps the file read-only
    (:meth:`ValueGrid.map`), and a sweep that raises leaves no file.
    Without it the tables are held in memory.
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
        with np.errstate(over="ignore"):        # an infinite radius is honest
            coverage_radius = (phi_radius + c * span) * np.exp(c * span)
        coverage_ok = not any(ax.lo > -coverage_radius or ax.hi < coverage_radius
                              for ax in axes)
        if not coverage_ok:
            warnings.warn(
                f"axes do not cover the reachability radius {coverage_radius:.4g} "
                f"from initial norms <= {phi_radius:.4g}", GridCoverageWarning)

    shape = tuple(ax.count for ax in axes)
    Z = _node_mesh([ax.nodes for ax in axes])
    Q = Z.shape[0]
    X = Z.reshape(Q, M, n)

    N = grid.steps
    sets = [p.controls.active_set(t) for t in grid.nodes[:-1]]
    # step j writes slot j % slots of the values and the taint and slot
    # j % len(argmin) of the argmin: the whole table in memory, a two-slot
    # ring and one argmin slice when the slices stream into a file
    slots = N + 1 if path is None else 2
    values = np.empty((slots,) + shape)
    argmin = np.empty((N if path is None else 1,) + shape, dtype=_argmin_dtype(sets))
    tainted = np.zeros((slots,) + shape, dtype=bool)
    values[N % slots] = _terminal_sums(p, X, "grid node", finite=True).reshape(shape)

    # block i lists the node mesh of atom i's n axes; shorter blocks repeat
    # their nodes cyclically up to the longest
    blk_axes = [axes[i * n:(i + 1) * n] for i in range(M)]
    meshes = [_node_mesh([ax.nodes for ax in blk]) for blk in blk_axes]
    sizes = tuple(mesh.shape[0] for mesh in meshes)
    rows = max(sizes)
    Xb = np.stack([mesh[np.arange(rows) % mesh.shape[0]] for mesh in meshes], axis=1)
    fld = p.dynamics.field
    for u in sets[N - 1]:
        _check_atomwise(fld, grid.nodes[N - 1], Xb, u)

    # candidates per batch, the oracle's leaf-block rule
    width = min(max(1, _LEAF_BLOCK // Q), max(len(pts) for pts in sets))
    cand, mask = np.empty((width,) + sizes), np.empty((width,) + sizes, dtype=bool)
    better = np.empty(Q, dtype=bool)
    scratch = np.empty((3, width * Q)), np.empty((3, width * Q), dtype=bool)

    clamp_total = 0
    writer = (contextlib.nullcontext((None, {})) if path is None else _grid_writer(
        path, grid, axes, float(coverage_radius), coverage_ok, dict(p.meta)))
    with writer as (write, header):
        if write:
            write(N, values[N % slots], tainted[N % slots])
        for j in range(N - 1, -1, -1):
            K = sets[j].shape[0]
            feet = _feet(fld, grid.nodes[j], grid.nodes[j + 1] - grid.nodes[j], Xb, sets[j],
                         sizes)
            stencils = [_stencil(blk, Y) for blk, Y in zip(blk_axes, feet)]
            # a node's lookup clamps unless every block's foot is inside
            inside = math.prod(size - clamped.reshape(K, size).sum(axis=1)
                               for (_, clamped), size in zip(stencils, sizes))
            clamp_total += int((Q - inside).sum())
            # past mode 0, candidate k reads its own slab of its batch's result
            offsets = [np.repeat(np.arange(K) % width * size, size) if i else 0
                       for i, size in enumerate(sizes)]
            ops = [[(idx + off, wgt) for idx, wgt in corners]
                   for (corners, _), off in zip(stencils, offsets)]
            supports = [[(idx, wgt > 0.0) for idx, wgt in corners] for corners in ops]
            nxt = values[(j + 1) % slots].reshape(sizes)
            nxt_taint = tainted[(j + 1) % slots].reshape(sizes)
            vals, taint = values[j % slots].reshape(sizes), tainted[j % slots].reshape(sizes)
            arg = argmin[j % len(argmin)].reshape(-1)
            for lo in range(0, K, width):
                hi = min(lo + width, K)
                cut = [slice(lo * size, hi * size) for size in sizes]
                # a lone candidate 0 writes step j's slices; the others fold
                # into them through a running min and first argmin, and a
                # node is trustworthy only if every candidate branch is
                v_out, t_out = ((vals[None], taint[None]) if hi == 1
                                else (cand[:hi - lo], mask[:hi - lo]))
                _kron_apply(nxt, [[(idx[c], wgt[c]) for idx, wgt in corners]
                                  for corners, c in zip(ops, cut)],
                            v_out, scratch[0])
                _kron_apply(nxt_taint, [[(idx[c], sup[c]) for idx, sup in corners]
                                        for corners, c in zip(supports, cut)],
                            t_out, scratch[1], np.logical_and, np.logical_or)
                for i, ((_, clamped), c) in enumerate(zip(stencils, cut)):
                    t_out |= clamped[c].reshape((hi - lo,) + (1,) * i + (-1,)
                                                + (1,) * (M - 1 - i))
                for k in range(lo, hi):
                    if k == 0:
                        if hi > 1:
                            vals[...], taint[...] = cand[0], mask[0]
                        arg[:] = 0
                        continue
                    np.less(cand[k - lo], vals, out=better.reshape(sizes))
                    np.copyto(arg, k, where=better)
                    np.minimum(vals, cand[k - lo], out=vals)
                    taint |= mask[k - lo]
            if write:
                write(j, vals, taint, arg)
        header["clamp_count"] = clamp_total

    if path is not None:
        return ValueGrid.map(path)
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
    trajectory: Trajectory      # the accepted control's forward pass


def _objective_and_gradient(p, grid, phi, U, need_grad=True):
    """Discrete cost and its exact gradient via the reverse of each step."""
    fld = p.dynamics.field
    N = grid.steps
    states = _integrate_batch(p, grid.nodes[None], phi.values[None], U[None])[:, 0]
    X = states[-1]
    J = float(_terminal_sums(p, X[None])[0])
    if not need_grad:
        return J, None, None
    # the costate may overflow even where the weighted cost does not
    with np.errstate(over="ignore", invalid="ignore"):
        lam = p.cost.grad_ens(X) * p.space.weights[:, None]
        grads = np.empty((N, p.m))
        jx, ju = p.dynamics.jac_x_ens, p.dynamics.jac_u_ens
        for j in range(N - 1, -1, -1):
            t = grid.nodes[j]
            h = grid.nodes[j + 1] - t
            u = U[j]
            ts, xs, _ = _rk4_stages(fld, t, h, states[j], u)
            jxs = [jx(ts[i], xs[i], u) for i in range(4)]
            # the reversed tableau: g_i = b_i h lam + a_{i+1,i} h J_{i+1}^T g_{i+1}
            g = [None, None, None, (h / 6.0) * lam]
            for i, b, a in ((2, h / 3.0, h), (1, h / 3.0, 0.5 * h), (0, h / 6.0, 0.5 * h)):
                g[i] = b * lam + a * np.einsum("mij,mi->mj", jxs[i + 1], g[i + 1])
            # summed in stage order, the first term first
            gu = [np.einsum("mik,mi->k", ju(ts[i], xs[i], u), g[i]) for i in range(4)]
            grads[j] = sum(gu[1:], gu[0])
            lam = sum((np.einsum("mij,mi->mj", jxs[i], g[i]) for i in range(4)), lam)
    if not (np.isfinite(lam).all() and np.isfinite(grads).all()):
        raise TerminalValueError("the adjoint costate or gradient is not finite")
    return J, grads, states


def value_adjoint(p: ProblemSpec, s, phi: EnsembleState, grid: TimeGrid,
                  iterations=200) -> AdjointResult:
    """Projected descent on the discretized control; an upper bound on the value.

    Requires the differentiability capability (ensemble Jacobians and cost
    gradient) and box control hulls, onto which controls are projected
    exactly; accepted iterations are strictly improving, so the recorded
    history is monotone nonincreasing.  Descent starts at the control-set
    means with step 1 and stops once a step moves no control by more than 1e-12.
    """
    if not (p.dynamics.differentiable and p.cost.differentiable):
        raise CapabilityError(
            "adjoint descent needs dynamics Jacobians and a cost gradient"
        )
    if abs(grid.s - s) > 1e-12:
        raise ValueError(f"grid starts at {grid.s}, expected {s}")
    U = p.controls.project(grid.nodes[:-1], np.stack(
        [p.controls.active_set(grid.nodes[j]).mean(axis=0) for j in range(grid.steps)]))
    J, G, states = _objective_and_gradient(p, grid, phi, U)
    history = [J]
    alpha = 1.0
    accepted = 0
    for _ in range(iterations):
        gnorm = float(np.abs(G).max())
        if gnorm == 0.0:
            break
        improved = False
        while alpha >= 1e-14:
            trial = p.controls.project(grid.nodes[:-1], U - alpha * G)
            if np.max(np.abs(trial - U)) <= 1e-12:
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
        J, G, states = _objective_and_gradient(p, grid, phi, U)
        history.append(J)
        accepted += 1
        alpha *= 2.0
    gnorm = float(np.abs(G).max()) if G is not None else 0.0
    sig = ControlSignal(grid, U)
    return AdjointResult(value=J, control=sig, iterations=accepted, history=history,
                         gradient_norm=gnorm,
                         trajectory=Trajectory(grid=grid, states=states, control=sig,
                                               space=phi.space))


# -- method-agnostic queries ---------------------------------------------------

def greedy_rollout(p: ProblemSpec, vg: ValueGrid, phi: EnsembleState):
    """Roll the stored argmin table forward from phi (nearest-node policy), one
    RK4 step per interval; a non-finite state raises DivergenceError as an
    :func:`_integrate_batch` row does, with bitwise the same states.  It reads
    each entry with :meth:`ValueGrid.argmin_at`, so it maps no table page."""
    grid = vg.grid
    vals = np.empty((grid.steps, p.m))
    states = np.empty((grid.steps + 1, p.space.size, p.n))
    states[0] = phi.values
    # the nearest node in Python floats: numpy scalars cost more per call
    spans = [(float(ax.lo), ax.spacing, ax.count - 1) for ax in vg.axes]
    for j in range(grid.steps):
        node = tuple(min(max(round((z - lo) / dz), 0), top)
                     for z, (lo, dz, top) in zip(states[j].reshape(-1).tolist(), spans))
        u = p.controls.active_set(grid.nodes[j])[vg.argmin_at(j, node)]
        vals[j] = u
        with np.errstate(over="ignore", invalid="ignore"):
            states[j + 1] = _rk4_step(p.dynamics.field, grid.nodes[j],
                                      grid.nodes[j + 1] - grid.nodes[j], states[j], u)
        if not np.isfinite(states[j + 1]).all():
            _raise_divergence(grid.nodes[None], states[:j + 2, None])
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


def _physical_memory():
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


@dataclass
class QueryResult:
    value: float
    control: ControlSignal
    trajectory: Trajectory       # the control's path from (s, phi)
    grid: object = None          # ValueGrid for the dp method
    table_value: float = None    # dp: the interpolated table value at (s, phi)


def compute_value(p: ProblemSpec, query: ValueQuery, path=None) -> QueryResult:
    """Evaluate one query by the selected method.

    The oracle is exact for the discretized problem, dp tabulates and
    interpolates, adjoint descends; all three return an admissible control
    and its trajectory, integrated once, and every reported value is the
    terminal functional its control realizes.  The dp control is the
    nearest-node greedy rollout of the argmin table; the interpolated table
    value at (s, phi) is kept as ``table_value``.

    ``path``, dp only, names the file the table streams into as
    :func:`value_dp` makes it; the result's grid then maps that file, and a
    failure anywhere in the query leaves no file there.  Without it the table
    is held in memory.
    """
    if not (0.0 <= query.s < p.horizon):
        raise ValueError(f"query time {query.s} outside [0, {p.horizon})")
    if path is not None and query.method != "dp":
        raise ValueError(f"the {query.method} method writes no value grid")
    if query.method == "oracle" and query.steps > query.budget:
        # every level holds a node, so this fails before the grid is allocated
        raise CapacityError(f"enumeration needs {query.steps} levels, budget "
                            f"is {query.budget}; shrink the grid")
    if query.method in ("dp", "adjoint"):
        if query.method == "dp" and query.axes is None:
            raise ValueError("the dp method needs state axes")
        # per time node: dp's float64 value, argmin and taint byte per grid
        # node (the schedule's largest set bounds the argmin type); the
        # adjoint's state history and the time grid itself
        per_node = ((8 + _argmin_dtype(p.controls.sets).itemsize + 1)
                    * math.prod(ax.count for ax in _as_axes(query.axes))
                    if query.method == "dp" else 8 * (p.space.size * p.n + 1))
        need, have = (query.steps + 1) * per_node, _physical_memory()
        if have is not None and need > have:
            raise CapacityError(f"the {query.method} method needs {need} bytes for "
                                f"{query.steps} steps, more than the {have} bytes of "
                                f"physical memory; use fewer steps")
    grid = TimeGrid(query.s, p.horizon, query.steps)
    if query.method == "oracle":
        res = value_oracle(p, query.s, query.phi, grid, budget=query.budget)
        return QueryResult(value=res.value, control=res.best,
                           trajectory=integrate(p, query.s, query.phi, res.best))
    if query.method == "dp":
        with np.errstate(over="ignore"):        # a norm past 1.3e154 reads as inf
            phi_radius = float(np.linalg.norm(query.phi.values, axis=1).max())
        vg = value_dp(p, query.axes, grid, phi_radius=phi_radius, path=path)
        try:
            sig, traj = greedy_rollout(p, vg, query.phi)
            return QueryResult(value=terminal_functional(p, traj.terminal), control=sig,
                               trajectory=traj, grid=vg,
                               table_value=vg.value_at(query.s, stack_state(query.phi)))
        except BaseException:
            if path is not None:
                os.unlink(path)
            raise
    if query.method == "adjoint":
        res = value_adjoint(p, query.s, query.phi, grid)
        return QueryResult(value=res.value, control=res.control,
                           trajectory=res.trajectory)
    raise ValueError(f"unknown method {query.method!r}")


# -- two-stage identity -------------------------------------------------------

def dpp_residual(p: ProblemSpec, s, phi, grid: TimeGrid,
                 budget=1_000_000) -> np.ndarray:
    """Direct value minus two-stage value at every interior node of the grid.

    ``phi`` is one EnsembleState or B stacked start states (B, M, n).  One
    direct tree enumerates every signal from all starts; for each interior
    node j, one suffix tree enumerates afresh from every state the direct
    tree reaches at j, and start b's best suffix over its own prefixes gives
    its two-stage value.  Row b, column j - 1 of the (B, steps - 1) result is
    start b's residual at the split j.  Both sides enumerate the same class
    of signals, so every residual is zero up to float noise (NaN when every
    leaf costs +inf).  Each tree counts B x signals against the budget.
    """
    tree = build_oracle_tree(p, s, phi, grid, budget)
    B = tree.states[0].shape[0]
    two_stage = np.empty((B, grid.steps - 1))
    if B == 0:
        return two_stage
    for j in range(1, grid.steps):
        suffix = build_oracle_tree(p, grid.nodes[j], tree.states[j],
                                   grid.suffix(j), budget)
        two_stage[:, j - 1] = suffix.values[0].reshape(B, -1).min(axis=1)
    with np.errstate(invalid="ignore"):     # inf - inf is the NaN residual
        return tree.values[0][:, None] - two_stage
