"""Spans around enoc's public functions, recorded from the benchmark's side.

:class:`Tracer` replaces module attributes by timing wrappers while it is
installed, at exactly the names ``enoc.cli``, ``enoc.value``,
``enoc.ensemble`` and ``enoc.verify`` look up, so the CLI path itself runs
unchanged.  Private helpers are not wrapped.  Spans stay in memory as
(name, start, end, parent, run) and are written once, at the end.

Counters are derived from each call's arguments and result (never from a
clock), so they repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager


def _dp_counts(c, a, vg):
    p, grid = a["p"], a["grid"]
    Q = 1
    for ax in vg.axes:
        Q *= ax.count
    queries = sum(p.controls.active_set(grid.nodes[j]).shape[0]
                  for j in range(grid.steps)) * Q
    c["value.dp_lookups"] += queries * (1 << len(vg.axes))
    c["dp.queries"] += queries
    c["dp.steps"] += grid.steps
    c["dp.nodes"] += grid.steps * Q
    c["dp.clamped"] += vg.clamp_count
    c["dp.tainted"] += int(vg.tainted[:-1].sum())


def _tree_counts(c, a, tree):
    c["value.oracle_nodes"] += sum(level.shape[0] for level in tree.states)


def _integrate_counts(c, a, traj):
    c["ensemble.rk4_steps"] += a["u"].grid.steps


def _adjoint_counts(c, a, res):
    c["value.adjoint_iters"] += res.iterations


def _hjb_counts(c, a, rep):
    c["hjb.evaluated"] += rep.details["evaluated"]
    c["hjb.skipped"] += (rep.details["skipped_kinks"]
                         + rep.details["skipped_boundary"])


def _file_counts(key):
    def count(c, a, _):
        c[key] += os.path.getsize(a["path"])
    return count


def targets():
    """(owner, attribute, span name, counter, keep) for every wrapped name.

    ``keep`` names the slot under which the last call's arguments and result
    are kept for the probes.
    """
    from enoc import cli, ensemble, value, verify

    oracle = ("value.value_oracle", None, None)
    tree = ("value.build_oracle_tree", _tree_counts, None)
    dp = ("value.value_dp", _dp_counts, "dp")
    integ = ("ensemble.integrate", _integrate_counts, None)
    table = [
        (cli, "compute_value", ("value.compute_value", None, None)),
        (value, "value_oracle", oracle),
        (verify, "value_oracle", oracle),
        (value, "build_oracle_tree", tree),
        (verify, "build_oracle_tree", tree),
        (value, "value_dp", dp),
        (cli, "value_dp", dp),
        (value, "greedy_rollout", ("value.greedy_rollout", None, None)),
        (value, "value_adjoint", ("value.value_adjoint", _adjoint_counts, "adjoint")),
        (cli, "dpp_residual", ("value.dpp_residual", None, None)),
        (cli, "integrate", integ),
        (value, "integrate", integ),
        (ensemble, "integrate", integ),
        (verify, "integrate", integ),
        (cli, "trajectory_bound_suite",
         ("ensemble.trajectory_bound_suite", None, None)),
        (cli, "epigraph_invariance", ("verify.epigraph_invariance", None, None)),
        (cli, "hjb_residual", ("verify.hjb_residual", _hjb_counts, None)),
        (cli, "terminal_limit", ("verify.terminal_limit", None, None)),
        (cli, "oscillation_diagnostic",
         ("verify.oscillation_diagnostic", None, None)),
        (value.ValueGrid, "save",
         ("value.ValueGrid.save", _file_counts("bytes.grid"), None)),
        (ensemble.Trajectory, "to_csv",
         ("ensemble.Trajectory.to_csv", _file_counts("bytes.csv"), None)),
    ]
    return [(owner, attr) + spec for owner, attr, spec in table]


class Tracer:
    """In-memory span recorder; :meth:`installed` wraps, then restores."""

    def __init__(self):
        self.spans = []                  # [name, start, end, parent, run]
        self.counters = defaultdict(lambda: defaultdict(int))   # run -> name -> n
        self.kept = {}                   # slot -> (bound arguments, result)
        self.run = -1
        self._stack = []
        self._targets = targets()

    def _wrap(self, orig, name, counter, keep):
        sig = inspect.signature(orig) if (counter or keep) else None
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), None, parent, tracer.run]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span[2] = time.perf_counter()
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if counter:
                    counter(tracer.counters[tracer.run], bound.arguments, result)
                if keep:
                    tracer.kept[keep] = (bound.arguments, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, run):
        """Trace one invocation as `run`, inside a root span ``cli.main``."""
        saved = [(owner, attr, getattr(owner, attr))
                 for owner, attr, *_ in self._targets]
        for (owner, attr, name, counter, keep), (_, _, orig) in zip(self._targets, saved):
            setattr(owner, attr, self._wrap(orig, name, counter, keep))
        self.run = run
        root = ["cli.main", time.perf_counter(), None, -1, run]
        self._stack = [len(self.spans)]
        self.spans.append(root)
        try:
            yield
        finally:
            root[2] = time.perf_counter()
            self._stack = []
            for owner, attr, orig in saved:
                setattr(owner, attr, orig)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def run_profile(spans, run):
    """Per-name total duration and call count, and per-layer self time.

    A span's self time is its duration minus its direct children's; the
    layer is the span name's first component (``cli``, ``value``, ...).
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    child = defaultdict(float)
    mine = [(i, s) for i, s in enumerate(spans) if s[4] == run]
    for i, (name, start, end, parent, _) in mine:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
    layer_self = defaultdict(float)
    for i, (name, start, end, _, _) in mine:
        layer_self[name.split(".")[0]] += (end - start) - child[i]
    return total, calls, layer_self
