"""The benchmark's workloads: inputs from a seed, references, and the gate.

A workload turns the workload seed into CLI arguments plus the files they
name (a config or problem JSON written during set-up).  The CLI receives only
those generated inputs.  After each invocation, :func:`judge` reads the
artifacts the CLI wrote and decides whether the invocation was correct.

Tolerances on ``value_err`` were pinned from the seed commit: for seeds 0..39
the largest error seen per (workload, method) is quoted next to each
tolerance, which leaves room for float-order changes but not for a wrong
value.
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# the stream a workload draws its inputs from is (seed, workload index)
_STREAM = {"solve-grid": 1, "verify-battery": 2, "solve-expr": 4}


@dataclass
class Invocation:
    """One workload's generated inputs and what a correct run must produce."""

    argv: list                  # arguments for enoc.cli.main
    out: Path                   # the CLI's output directory
    problem: dict               # {"builtin": name, "params": {...}} or {"file": path}
    artifacts: list             # files every invocation must write
    reference: dict = field(default_factory=dict)   # method -> reference value
    tolerance: dict = field(default_factory=dict)   # method -> largest |value - ref|
    verify: bool = False        # judge checks.csv instead of value.csv


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    hot_lead: tuple             # leading shape of the field probe's state array


def _fmt(values):
    return ",".join(repr(float(v)) for v in values)


def _solve_artifacts(methods):
    files = ["value.csv", "manifest.json"]
    for m in methods:
        files += [f"control_{m}.csv", f"trajectory_{m}.csv"]
    if "dp" in methods:
        files.append("value_grid.bin")
    return files


# -- solve-grid ----------------------------------------------------------------

SOLVE_GRID = Workload(
    name="solve-grid",
    why=("solve --method all on a 17^4 grid: dp interpolation dominates, the "
         "oracle builds one 531k-leaf tree, adjoint runs 6 steps, dp writes a "
         "7 MB value grid"),
    hot_lead=(17 ** 4,),
)
_GRID_PARAMS = {"M": 2, "n": 2, "a": [0.5, -0.3], "c": [2.0, 1.0]}


def _prepare_solve_grid(rng, work):
    from enoc.library import builtin, closed_form
    from enoc.measure import EnsembleState

    phi = rng.uniform(-0.5, 0.5, 4)
    out = work / "out"
    argv = ["solve", "--problem", "linear-ensemble"]
    argv += [f"--param={k}={json.dumps(v)}" for k, v in _GRID_PARAMS.items()]
    argv += ["--method", "all", "--steps", "6"] + ["--grid=-5:5:17"] * 4
    argv += [f"--phi={_fmt(phi)}", "--workers", "1", "--out", str(out)]
    p = builtin("linear-ensemble", **_GRID_PARAMS)
    ref = closed_form(p).optimal_value(0.0, EnsembleState(phi.reshape(2, 2), p.space))
    methods = ["oracle", "dp", "adjoint"]
    return Invocation(
        argv=argv, out=out,
        problem={"builtin": "linear-ensemble", "params": _GRID_PARAMS},
        artifacts=_solve_artifacts(methods),
        reference={m: ref for m in methods},
        # seeds 0..39 on the seed commit: oracle 1.15e-6, dp 0.0847, adjoint 1.15e-6
        tolerance={"oracle": 1e-5, "dp": 0.2, "adjoint": 1e-5})


# -- verify-battery ----------------------------------------------------------------

VERIFY_BATTERY = Workload(
    name="verify-battery",
    why=("the default verify battery: the trajectory bound suite's per-step "
         "Python overhead on (2, 1) arrays dominates, dp is about 2%"),
    hot_lead=(),
)


def _prepare_verify_battery(rng, work):
    out = work / "out"
    seed = int(rng.integers(0, 2 ** 31))
    return Invocation(
        argv=["verify", "--seed", str(seed), "--workers", "1", "--out", str(out)],
        out=out, problem={"builtin": "linear-ensemble", "params": {}},
        artifacts=["checks.csv", "summary.txt"], verify=True)


# -- solve-expr ----------------------------------------------------------------

SOLVE_EXPR = Workload(
    name="solve-expr",
    why=("dp on an expression-grammar problem whose field depends on t, 201^2 "
         "grid x 100 steps: runs the expr layer and writes a 53 MB value grid"),
    hot_lead=(201 ** 2,),
)
_EXPR_COORDS = [0.5, 1.0]
_EXPR_WEIGHTS = [0.5, 0.5]


def _expr_document():
    return {
        "format": "enoc-problem/1",
        "space": {"format": "enoc-space/1",
                  "atoms": [{"id": f"w{i}", "coords": [c]}
                            for i, c in enumerate(_EXPR_COORDS)],
                  "weights": _EXPR_WEIGHTS},
        "n": 1, "m": 1, "horizon": 1.0,
        "dynamics": {"expressions": ["w1 * x1 * cos(3 * t) + u1"],
                     "growth_c": 1.0, "lipschitz_k": 1.0},
        "cost": {"expression": "(x1 - w1) ** 2", "lower_bound_a": 0.0,
                 "lower_bound_b": 0.0},
        "controls": {"breakpoints": [0.0], "sets": [[[-1.0], [0.0], [1.0]]],
                     "box": [[-1.0, 1.0]]},
    }


def expr_reference(phi, pieces=4000):
    """Continuous-time optimum of the solve-expr problem from (0, phi).

    With S(t) = sin(3t)/3 each atom ends at e^{w S(1)} (x0 + int e^{-w S} u dt),
    so the cost is a convex quadratic in the control's two moments.  Chattering
    makes the hull [-1, 1] of the finite control set reachable, and a bounded
    least-squares solve over a fine piecewise-constant control gives the value.
    """
    from scipy.optimize import lsq_linear

    w = np.asarray(_EXPR_COORDS)
    omega = np.sqrt(_EXPR_WEIGHTS)
    edges = np.linspace(0.0, 1.0, pieces + 1)
    nodes, gw = np.polynomial.legendre.leggauss(6)
    half = 0.5 * np.diff(edges)
    tq = 0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * nodes
    G = (np.exp(-w[:, None, None] * np.sin(3.0 * tq) / 3.0) @ gw) * half
    E = np.exp(w * np.sin(3.0) / 3.0)
    A = (omega * E)[:, None] * G
    b = omega * (w - E * np.asarray(phi))
    res = lsq_linear(A, b, bounds=(-1.0, 1.0), method="bvls", tol=1e-14)
    r = A @ res.x - b
    return float(r @ r)


def _prepare_solve_expr(rng, work):
    phi = rng.uniform(-0.5, 0.5, 2)
    path = work / "problem.json"
    path.write_text(json.dumps(_expr_document()))
    out = work / "out"
    argv = ["solve", "--problem", str(path), "--method", "dp", "--steps", "100",
            "--grid=-4:4:201", "--grid=-4:4:201", f"--phi={_fmt(phi)}",
            "--workers", "1", "--out", str(out)]
    return Invocation(
        argv=argv, out=out, problem={"file": str(path)},
        artifacts=_solve_artifacts(["dp"]),
        reference={"dp": expr_reference(phi)},
        # seeds 0..39 on the seed commit: dp 0.0219
        tolerance={"dp": 0.05})


# A descent-dominated workload (decoupled-quadratic, 64 atoms x 2 states, 200
# adjoint steps) was tried and left out: the Frank-Wolfe work of its line
# search changes with the last bits of the targets (47k-85k steps over ten
# seeds, even for permutations of one target set), so its runs did not agree
# within any allowed bound.  value_adjoint still runs on solve-grid.
WORKLOADS = {w.name: w for w in (SOLVE_GRID, VERIFY_BATTERY, SOLVE_EXPR)}
_PREPARE = {"solve-grid": _prepare_solve_grid,
            "verify-battery": _prepare_verify_battery,
            "solve-expr": _prepare_solve_expr}


def prepare(name, seed, work: Path) -> Invocation:
    """Write the workload's inputs under `work` and return its invocation."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    rng = np.random.default_rng([seed, _STREAM[name]])
    return _PREPARE[name](rng, work)


def build_problem(problem: dict):
    """Build the problem the CLI builds, through the library's public calls."""
    from enoc.library import builtin, load_problem

    if "file" in problem:
        return load_problem(problem["file"])
    return builtin(problem["builtin"], **problem["params"])


def clear_outputs(inv: Invocation):
    """Remove the previous invocation's artifacts so the gate sees fresh ones."""
    if inv.out.exists():
        shutil.rmtree(inv.out)


def judge(inv: Invocation, code: int) -> dict:
    """The correctness gate for one invocation that returned exit code `code`.

    Returns ``ok``, a reason when not ok, ``value_err`` per method and, on the
    verify workload, ``checks_failed``.
    """
    verdict = {"ok": True, "reason": "", "value_err": {}, "checks_failed": None}

    def fail(reason):
        if verdict["ok"]:
            verdict.update(ok=False, reason=reason)

    if code != 0:
        fail(f"exit code {code}")
    missing = [a for a in inv.artifacts if not (inv.out / a).is_file()]
    if missing:
        fail(f"missing artifacts: {', '.join(missing)}")
        return verdict
    if inv.verify:
        with open(inv.out / "checks.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        failed = sum(1 for r in rows if r["passed"] != "True")
        verdict["checks_failed"] = failed
        if len(rows) != 6 or failed:
            fail(f"{len(rows) - failed}/{len(rows)} checks passed, expected 6/6")
        return verdict
    with open(inv.out / "value.csv", newline="") as fh:
        values = {r["method"]: float(r["value"]) for r in csv.DictReader(fh)}
    for method, ref in inv.reference.items():
        if method not in values:
            fail(f"value.csv has no {method} row")
            continue
        err = abs(values[method] - ref)
        verdict["value_err"][method] = err
        if not err <= inv.tolerance[method]:
            fail(f"value_err.{method}={err:.3g} exceeds {inv.tolerance[method]:.3g}")
    return verdict
