"""Command-line front end: solve, verify, query.

Exit codes: 0 success, 1 at least one verification check failed, 2 usage or
configuration error.  All randomness flows from the configured seed, and a
run manifest echoes the full resolved configuration so any artifact can be
reproduced bit-exactly with ``solve --from-manifest``.

A JSON config file (``--config``) overrides command-line flags; flags cover
the common keys, the config file covers everything.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import EnocError
from .measure import EnsembleState
from .problem import CheckReport, ProblemSpec, _sampled_report
from .library import builtin, load_problem
# integrate is bound here for the benchmark tracer, which wraps it by this name
from .ensemble import (ControlSignal, TimeGrid, integrate,  # noqa: F401
                       trajectory_bound_suite)
from .value import (Axis, ValueGrid, ValueQuery, _axis_triples, _number, compute_value,
                    dpp_residual, unstack_state, value_dp)
from .verify import (epigraph_invariance, hjb_residual, oscillation_diagnostic,
                     terminal_limit)

_FMT = "%.17g"

_DEFAULTS = {
    "problem": "linear-ensemble",
    "params": {},
    "method": "all",
    "steps": 8,
    "s": 0.0,
    "phi": 0.25,
    "grid": None,
    "tol": None,
    "seed": 0,
    "workers": 1,
    "budget": 1_000_000,
    "verify": {},
}

_VERIFY_DEFAULTS = {
    "trials": 100,
    "bounds_steps": 200,
    "dpp_steps": 4,
    "dpp_phis": 10,
    "epi_steps": 4,
    "hjb_steps": 50,
    "hjb_counts": 41,
    "hjb_extent": 5.0,
    "kappa": 5.0,
    "gaps": [0.2, 0.1, 0.05, 0.025],
    "terminal_steps": 8,
    "osc_controls": 5,
    "osc_steps": 100,
    "radii": None,
}


def _parse_param(text):
    key, _, raw = text.partition("=")
    if not _:
        raise ValueError(f"--param needs key=value, got {text!r}")
    try:
        val = json.loads(raw)
    except json.JSONDecodeError:
        val = raw
    return key, val


def _parse_axis(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--grid needs lo:hi:count, got {text!r}")
    return [float(parts[0]), float(parts[1]), int(parts[2])]


def _numbers(val):
    return isinstance(val, list) and all(_number(v) for v in val)


def _type_ok(key, val, default):
    """Whether a config value has its default's JSON type: an int default
    takes an integer, a float default any number (``phi`` also a list of
    numbers), a list default a list of numbers.  ``grid`` takes null or
    [lo, hi, count] triples, ``tol`` null or a number, ``radii`` null or a
    list of numbers."""
    if key == "grid":
        return val is None or _axis_triples(val)
    if default is None:
        return val is None or _type_ok(key, val, {"tol": 0.0, "radii": []}[key])
    if isinstance(default, list) or key == "phi" and isinstance(val, list):
        return _numbers(val)
    if isinstance(default, (int, float)):
        return _number(val, integer=isinstance(default, int))
    return isinstance(val, type(default))


def _merge_config(cfg, file_cfg, where):
    """Merge a JSON config object over cfg; unknown keys and non-object
    ``params``/``verify`` raise ValueError naming ``where``."""
    if not isinstance(file_cfg, dict):
        raise ValueError(f"{where} must hold a JSON object")
    for key in ("params", "verify"):
        if not isinstance(file_cfg.get(key, {}), dict):
            raise ValueError(f"config key {key!r} must be a JSON object")
    unknown = ((file_cfg.keys() - _DEFAULTS.keys())
               | (file_cfg.get("verify", {}).keys() - _VERIFY_DEFAULTS.keys()))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, val in file_cfg.items():
        if key in ("params", "verify"):
            cfg[key].update(val)
        else:
            cfg[key] = val


def resolve_config(args) -> dict:
    """defaults <- flags <- config file (the file wins, as documented); with
    ``--from-manifest``, defaults <- the manifest's config instead."""
    cfg = json.loads(json.dumps(_DEFAULTS))
    manifest = getattr(args, "from_manifest", None)
    if manifest:
        with open(manifest) as fh:
            doc = json.load(fh)
        _merge_config(cfg, doc.get("config") if isinstance(doc, dict) else None,
                      f"the config of manifest {manifest}")
    else:
        flag_map = {
            "problem": args.problem, "method": getattr(args, "method", None),
            "steps": args.steps, "s": args.s, "tol": getattr(args, "tol", None),
            "seed": args.seed, "workers": args.workers, "budget": args.budget,
        }
        for key, val in flag_map.items():
            if val is not None:
                cfg[key] = val
        for text in getattr(args, "param", None) or []:
            key, val = _parse_param(text)
            cfg["params"][key] = val
        if getattr(args, "phi", None) is not None:
            cfg["phi"] = [float(v) for v in args.phi.split(",")]
        if getattr(args, "grid", None):
            cfg["grid"] = [_parse_axis(g) for g in args.grid]
        if args.config:
            with open(args.config) as fh:
                _merge_config(cfg, json.load(fh), f"config file {args.config}")
    # the builtin lookup checks `problem`; `params` and `verify` are checked above
    checks = [(key, cfg[key], _DEFAULTS[key]) for key in _DEFAULTS
              if key not in ("problem", "params", "verify")]
    checks += [(key, val, _VERIFY_DEFAULTS[key]) for key, val in cfg["verify"].items()]
    for key, val, default in checks:
        if not _type_ok(key, val, default):
            where = key if key in _DEFAULTS else f"verify.{key}"
            raise ValueError(f"config key {where!r} has the wrong type: {val!r}")
    if cfg["workers"] < 1:
        raise ValueError(f"config key 'workers' must be at least 1, got {cfg['workers']}")
    return cfg


def _build_problem(cfg) -> ProblemSpec:
    ref = cfg["problem"]
    if isinstance(ref, str) and (os.path.sep in ref or ref.endswith(".json")):
        return load_problem(ref)
    return builtin(ref, **cfg["params"])


def _initial_state(cfg, p: ProblemSpec) -> EnsembleState:
    phi = cfg["phi"]
    d = p.stacked_dim
    if np.isscalar(phi):
        vec = np.full(d, float(phi))
    else:
        vec = np.asarray(phi, dtype=float)
        if vec.size == 1:
            vec = np.full(d, vec[0])
        elif vec.size != d:
            raise ValueError(f"phi needs {d} entries (atoms x state dim), got {vec.size}")
    return unstack_state(vec, p.space, p.n)


def _out_dir(args):
    out = args.out or os.environ.get("ENOC_OUT") or "enoc-out"
    os.makedirs(out, exist_ok=True)
    return out


def _write_control_csv(path, sig: ControlSignal):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["interval", "t_start", "t_end"]
                    + [f"u{k}" for k in range(sig.m)])
        for j in range(sig.grid.steps):
            wr.writerow([j, _FMT % sig.grid.nodes[j], _FMT % sig.grid.nodes[j + 1]]
                        + [_FMT % v for v in sig.values[j]])


def _dp_axes(cfg, p: ProblemSpec):
    if cfg["grid"] is None:
        raise ValueError("the dp method needs --grid lo:hi:count per stacked axis")
    axes = [Axis(*trip) for trip in cfg["grid"]]
    if len(axes) == 1 and p.stacked_dim > 1:
        axes = axes * p.stacked_dim
    return axes


def cmd_solve(args) -> int:
    cfg = resolve_config(args)
    out = _out_dir(args)
    p = _build_problem(cfg)
    phi = _initial_state(cfg, p)
    s = float(cfg["s"])
    methods = [cfg["method"]] if cfg["method"] != "all" else ["oracle", "dp", "adjoint"]

    values = {}
    timings = {}
    artifacts = []
    for method in methods:
        t0 = time.perf_counter()
        query = ValueQuery(s=s, phi=phi, method=method, steps=int(cfg["steps"]),
                           axes=_dp_axes(cfg, p) if method == "dp" else None,
                           budget=int(cfg["budget"]))
        # dp streams its table into the value grid file as it makes it
        res = compute_value(p, query, os.path.join(out, "value_grid.bin")
                            if method == "dp" else None)
        values[method] = res.value
        if res.grid is not None:
            # dp's value is the cost its rollout realizes; the table's is kept
            values["dp_table"] = res.table_value
            artifacts.append("value_grid.bin")
        timings[method] = time.perf_counter() - t0
        cname = f"control_{method}.csv"
        _write_control_csv(os.path.join(out, cname), res.control)
        artifacts.append(cname)
        tname = f"trajectory_{method}.csv"
        res.trajectory.to_csv(os.path.join(out, tname))
        artifacts.append(tname)

    with open(os.path.join(out, "value.csv"), "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["method", "value"])
        for method, value in values.items():
            wr.writerow([method, _FMT % value])
    artifacts.append("value.csv")

    manifest = {
        "config": cfg,
        "versions": {"enoc": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
        "timings": timings,
        "values": {k: float(v) for k, v in values.items()},
        "artifacts": sorted(artifacts),
    }
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for method in methods:
        print(f"{method}: value={values[method]:.12g} ({timings[method]:.3f}s)")
    return 0


def _default_radii(p: ProblemSpec):
    """Radii between the distinct pairwise distances (never exactly on one)."""
    # sorted(set(...)), not np.unique: its first call imports numpy.ma
    dists = np.array(sorted(set(p.space.metric[p.space.metric > 0].tolist())))
    if dists.size == 0:
        return [1.0]
    pts = np.concatenate([[dists[0] / 2], (dists[:-1] + dists[1:]) / 2.0,
                          [dists[-1] * 1.5]])
    return [float(r) for r in pts]


def _dpp_check(p: ProblemSpec, s, phis, steps, seed, budget, tol=None) -> CheckReport:
    """Two-stage identity at every interior node of a ``steps``-interval grid,
    from ``phis`` random initial states: the worst |residual| must stay within
    ``tol`` (1e-10 unless given), and at least one split must be evaluated.
    A NaN residual (every leaf +inf) is the worst there is and fails."""
    if tol is None:
        tol = 1e-10
    rng = np.random.default_rng(seed)
    grid = TimeGrid(s, p.horizon, steps)
    starts = rng.uniform(-0.5, 0.5, (phis, p.space.size, p.n))
    gaps = np.abs(dpp_residual(p, s, starts, grid, budget=budget))
    splits = grid.steps - 1
    return _sampled_report(
        p, "dpp_residual", tol, gaps.reshape(-1),
        lambda q: {"sample": q // splits, "s2": float(grid.nodes[q % splits + 1])},
        seed, why_empty=("no start state was drawn (dpp_phis is 0)" if phis == 0 else
                         "a one-step grid has no split (dpp_steps is 1)"
                         if splits == 0 else None))


def cmd_verify(args) -> int:
    cfg = resolve_config(args)
    vcfg = dict(_VERIFY_DEFAULTS)
    vcfg.update(cfg["verify"])
    out = _out_dir(args)
    p = _build_problem(cfg)
    phi = _initial_state(cfg, p)
    s = float(cfg["s"])
    seed = int(cfg["seed"])
    budget = int(cfg["budget"])
    tol = cfg["tol"]
    extent = vcfg["hjb_extent"]     # the state box of the checks that sample states
    axes = (
        _dp_axes(cfg, p) if cfg["grid"] is not None
        else [Axis(-extent, extent, int(vcfg["hjb_counts"]))]
        * p.stacked_dim
    )

    # the checks look their functions up in this module when they run, so a
    # wrapper installed on these names (the benchmark tracer) sees the calls
    checks = [
        lambda: trajectory_bound_suite(
            p, trials=int(vcfg["trials"]), steps=int(vcfg["bounds_steps"]),
            seed=seed, slack=(1.0 + tol) if tol is not None else 1.05),
        lambda: _dpp_check(p, s, int(vcfg["dpp_phis"]), int(vcfg["dpp_steps"]),
                           seed, budget, tol),
        lambda: epigraph_invariance(
            p, s, phi, TimeGrid(s, p.horizon, int(vcfg["epi_steps"])),
            budget=budget, tol=tol),
        lambda: hjb_residual(
            value_dp(p, axes, TimeGrid(s, p.horizon, int(vcfg["hjb_steps"]))),
            p, kappa=float(vcfg["kappa"]), tol=tol),
        lambda: terminal_limit(
            p, phi, vcfg["gaps"], steps=int(vcfg["terminal_steps"]),
            budget=budget, tol=tol, seed=seed, x_radius=extent),
        lambda: oscillation_diagnostic(
            p, s, phi, int(vcfg["osc_controls"]),
            _default_radii(p) if vcfg["radii"] is None else vcfg["radii"],
            steps=int(vcfg["osc_steps"]), seed=seed, tol=tol, x_radius=extent),
    ]
    reports = [check() for check in checks]
    n_pass = sum(rep.passed for rep in reports)
    with open(os.path.join(out, "checks.csv"), "w", newline="") as fh, \
            open(os.path.join(out, "summary.txt"), "w") as summary:
        wr = csv.writer(fh)
        wr.writerow(["check", "tolerance", "worst", "passed"])
        for rep in reports:
            print(rep)
            wr.writerow([rep.name, rep.tolerance, _FMT % rep.worst, rep.passed])
            summary.write(f"{'pass' if rep.passed else 'FAIL'} {rep.name} "
                          f"worst={rep.worst:.6g}\n")
        summary.write(f"{n_pass}/{len(reports)} checks passed\n")
    print(f"{n_pass}/{len(reports)} checks passed")
    return 0 if n_pass == len(reports) else 1


def cmd_query(args) -> int:
    # the mapped grid reads the header and the one slice's stencil pages
    vg = ValueGrid.map(args.grid_file)
    z = np.array([float(v) for v in args.state.split(",")])
    box = [[ax.lo, ax.hi] for ax in vg.axes]
    # evaluate clamps to the boundary; a query answers inside the box only
    if z.size == len(box) and not all(lo <= x <= hi for x, (lo, hi) in zip(z, box)):
        raise ValueError(f"state {args.state} lies outside the grid's box {box}")
    vals, _, touched = vg.evaluate(vg.time_index(float(args.time)), z[None, :])
    print(_FMT % float(vals[0]))
    if touched[0]:
        print("note: boundary-influenced: the interpolation reads a tainted node, "
              "whose value depends on an out-of-grid lookup", file=sys.stderr)
    return 0


def _add_common(sub):
    sub.add_argument("--problem", help="builtin name or problem file path")
    sub.add_argument("--param", action="append",
                     help="builtin parameter key=value (JSON values)")
    sub.add_argument("--steps", type=int, help="time grid intervals")
    sub.add_argument("--s", type=float, help="initial time")
    sub.add_argument("--phi", help="initial stacked state, comma separated")
    sub.add_argument("--grid", action="append",
                     help="state axis lo:hi:count, repeat per axis "
                          "(write --grid=-5:5:81 for negative bounds)")
    sub.add_argument("--tol", type=float, help="override check tolerances")
    sub.add_argument("--seed", type=int, help="random seed")
    sub.add_argument("--out", help="output directory (or $ENOC_OUT)")
    sub.add_argument("--workers", type=int,
                     help="at least 1; accepted for compatibility, runs use one thread")
    sub.add_argument("--budget", type=int, help="enumeration budget")
    sub.add_argument("--config", help="JSON config file; overrides flags")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="enoc",
        description="Ensemble optimal control: solve, certify, query.")
    sp = ap.add_subparsers(dest="command", required=True)
    so = sp.add_parser("solve", help="compute the value by the selected methods")
    _add_common(so)
    so.add_argument("--method", choices=["oracle", "dp", "adjoint", "all"])
    so.add_argument("--from-manifest", help="re-run the configuration of a manifest")
    so.set_defaults(fn=cmd_solve)
    sv = sp.add_parser("verify", help="run the certification battery")
    _add_common(sv)
    sv.set_defaults(fn=cmd_verify)
    sq = sp.add_parser("query", help="query a stored value grid")
    sq.add_argument("--grid-file", required=True)
    sq.add_argument("--time", required=True)
    sq.add_argument("--state", required=True)
    sq.set_defaults(fn=cmd_query)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (EnocError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
