"""Benchmark harness for enoc: three workloads through the real CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-grid --seed 1 --seconds 38 --trace 0

Each run generates its inputs from the seed, then calls ``enoc.cli.main`` in
this process, one invocation after another, for ``--seconds``; between them,
at even times, it times ``setup_s`` in fresh processes.  Every invocation passes through the correctness
gate in ``workloads.judge``.  With ``--trace 1`` untraced and traced
invocations alternate, and the traced ones record spans around enoc's public
functions (see ``spans.py``).  The run prints every metric by name and unit,
and as its last line one JSON object with the metrics ``BENCHMARK.json``
lists for the mode.  It exits 1 if any invocation failed the gate, and 2 if
the checkout has no ``src/enoc`` to benchmark.

The load is one process and one thread; the CLI runs with ``--workers 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, run_profile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 7
MIN_SAMPLES = 3         # untraced invocations per run, even past --seconds
MIN_PAIRS = 2           # untraced/traced pairs per traced run
PROBE_REPEATS = 5

# (name, unit, exact): exact metrics are derived from inputs and results and
# must repeat bit for bit across invocations and runs with the same seed.
#
# value_err.*, checks_failed and error_rate are end-to-end quantities, but they
# are reported with the per-layer metrics: each is defined on only some
# workloads and is 0 when all is well, so no relative regression bound fits
# them.  The gate holds them instead; a violation fails the run.
#
# What each layer should move, and where (a layer that does not run on a
# workload reports 0 there):
# * value dp (dp_*, interp_s, grid_*, rollout_s): wall_s and peak_rss_mb on
#   solve-grid, wall_s on solve-expr (whose field depends on t, so a cache
#   keyed on autonomy must bypass it); no change on verify-battery.
#   dp_lookups = steps * controls * grid nodes * 2^d.
# * value oracle (oracle_* counts trees built, wherever built; dpp_*):
#   wall_s on solve-grid (one big tree) and verify-battery (many small ones).
# * value adjoint (adjoint_*): runs on solve-grid only, a small share.
# * ensemble (integrate_*, rk4_steps counts steps taken through integrate,
#   bound_suite_s): wall_s on verify-battery; no change on solve-grid.
# * problem.field_eval_us (one field call at the hot loop's shape; expression
#   evaluation on solve-expr): wall_s on verify-battery and solve-expr.
# * verify (check spans, hjb_evaluated_frac): wall_s on verify-battery; the
#   evidence ratio has no speed meaning.
# * library (import_s, build_s): setup_s on every workload.
# * cli (write_*, self_s): wall_s on solve-expr and solve-grid.
# * <layer>.self_s: span time minus child spans; trace.overhead_s: none.
END_TO_END = [
    ("setup_s", "s", False),
    ("wall_s", "s", False),
    ("peak_rss_mb", "MB", False),
]
PER_LAYER = [
    ("value.dp_s", "s", False),
    ("value.dp_step_s", "s", False),
    ("value.dp_lookups", "count", True),
    ("value.dp_lookups_per_s", "1/s", False),
    ("value.dp_clamp_frac", "ratio", True),
    ("value.dp_taint_frac", "ratio", True),
    ("value.interp_s", "s", False),
    ("value.grid_save_s", "s", False),
    ("value.grid_mb", "MB", True),
    ("value.rollout_s", "s", False),
    ("value.oracle_s", "s", False),
    ("value.oracle_calls", "count", True),
    ("value.oracle_nodes", "count", True),
    ("value.oracle_nodes_per_s", "1/s", False),
    ("value.dpp_s", "s", False),
    ("value.dpp_calls", "count", True),
    ("value.adjoint_s", "s", False),
    ("value.adjoint_iters", "count", True),
    ("value.adjoint_sweep_s", "s", False),
    ("ensemble.integrate_s", "s", False),
    ("ensemble.integrate_calls", "count", True),
    ("ensemble.rk4_steps", "count", True),
    ("ensemble.rk4_steps_per_s", "1/s", False),
    ("ensemble.bound_suite_s", "s", False),
    ("problem.field_eval_us", "us", False),
    ("verify.epigraph_s", "s", False),
    ("verify.hjb_s", "s", False),
    ("verify.terminal_s", "s", False),
    ("verify.oscillation_s", "s", False),
    ("verify.hjb_evaluated_frac", "ratio", True),
    ("library.import_s", "s", False),
    ("library.build_s", "s", False),
    ("cli.write_s", "s", False),
    ("cli.write_mb", "MB", True),
    ("cli.self_s", "s", False),
    ("value.self_s", "s", False),
    ("ensemble.self_s", "s", False),
    ("verify.self_s", "s", False),
    ("trace.overhead_s", "s", False),
    ("value_err.oracle", "1", True),
    ("value_err.dp", "1", True),
    ("value_err.adjoint", "1", True),
    ("checks_failed", "count", True),
    ("error_rate", "ratio", False),
]
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
EXACT = {name for name, _, exact in PER_LAYER if exact}


def machine():
    """The machine facts a result needs to be compared with another."""
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (0.0, 0.0)
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def setup_sample(inv):
    """Import + build in one fresh process, waited for."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), str(SRC),
         json.dumps(inv.problem)],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def invoke(cli, inv, tracer=None, run=None):
    """One CLI invocation, timed; returns (wall seconds, gate verdict)."""
    from workloads import clear_outputs, judge

    clear_outputs(inv)
    out, err = io.StringIO(), io.StringIO()
    traced = tracer.installed(run) if tracer else contextlib.nullcontext()
    code, crash = None, ""
    t0 = time.perf_counter()
    try:
        with traced, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(inv.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - a crash is one failed invocation
        crash = traceback.format_exc()
    wall = time.perf_counter() - t0
    if crash:
        verdict = {"ok": False, "reason": "raised:\n" + crash, "value_err": {},
                   "checks_failed": None}
    else:
        verdict = judge(inv, code)
    if not verdict["ok"]:
        print(f"invocation failed: {verdict['reason']}\n{err.getvalue()[-2000:]}",
              file=sys.stderr)
    return wall, verdict


def timed_window(seconds, step, minimum, aside):
    """Call step() until the next call would end past `seconds`, at least
    `minimum` times; step returns how long it took.  aside(elapsed) runs
    before each call, so the samples it takes spread over the window."""
    t_start = time.perf_counter()
    calls = 0
    while True:
        aside(time.perf_counter() - t_start)
        last = step()
        calls += 1
        elapsed = time.perf_counter() - t_start
        if calls >= minimum and elapsed + last > seconds:
            return


def layer_metrics(spans, counters, run):
    """Per-layer metrics of one traced invocation."""
    total, calls, layer_self = run_profile(spans, run)
    c = counters[run]

    def per(a, b):
        return a / b if b else 0.0

    dp_s = total["value.value_dp"]
    oracle_s = total["value.build_oracle_tree"]
    integ_s = total["ensemble.integrate"]
    evaluated = c["hjb.evaluated"]
    return {
        "value.dp_s": dp_s,
        "value.dp_step_s": per(dp_s, c["dp.steps"]),
        "value.dp_lookups": c["value.dp_lookups"],
        "value.dp_lookups_per_s": per(c["value.dp_lookups"], dp_s),
        "value.dp_clamp_frac": per(c["dp.clamped"], c["dp.queries"]),
        "value.dp_taint_frac": per(c["dp.tainted"], c["dp.nodes"]),
        "value.grid_save_s": total["value.ValueGrid.save"],
        "value.grid_mb": c["bytes.grid"] / 1e6,
        "value.rollout_s": total["value.greedy_rollout"],
        "value.oracle_s": oracle_s,
        "value.oracle_calls": calls["value.build_oracle_tree"],
        "value.oracle_nodes": c["value.oracle_nodes"],
        "value.oracle_nodes_per_s": per(c["value.oracle_nodes"], oracle_s),
        "value.dpp_s": total["value.dpp_residual"],
        "value.dpp_calls": calls["value.dpp_residual"],
        "value.adjoint_s": total["value.value_adjoint"],
        "value.adjoint_iters": c["value.adjoint_iters"],
        "ensemble.integrate_s": integ_s,
        "ensemble.integrate_calls": calls["ensemble.integrate"],
        "ensemble.rk4_steps": c["ensemble.rk4_steps"],
        "ensemble.rk4_steps_per_s": per(c["ensemble.rk4_steps"], integ_s),
        "ensemble.bound_suite_s": total["ensemble.trajectory_bound_suite"],
        "verify.epigraph_s": total["verify.epigraph_invariance"],
        "verify.hjb_s": total["verify.hjb_residual"],
        "verify.terminal_s": total["verify.terminal_limit"],
        "verify.oscillation_s": total["verify.oscillation_diagnostic"],
        "verify.hjb_evaluated_frac": per(evaluated, evaluated + c["hjb.skipped"]),
        "cli.write_s": total["value.ValueGrid.save"] + total["ensemble.Trajectory.to_csv"],
        "cli.write_mb": (c["bytes.grid"] + c["bytes.csv"]) / 1e6,
        "cli.self_s": layer_self["cli"],
        "value.self_s": layer_self["value"],
        "ensemble.self_s": layer_self["ensemble"],
        "verify.self_s": layer_self["verify"],
    }


def _median_time(fn, repeats=PROBE_REPEATS):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def probes(kept, p, hot_lead):
    """Direct public calls at the workload's own shapes, outside any span."""
    import numpy as np
    from enoc.value import value_adjoint

    out = {"value.interp_s": 0.0, "value.adjoint_sweep_s": 0.0}
    if "dp" in kept:
        args, vg = kept["dp"]
        dp_p, grid = args["p"], args["grid"]
        Z = vg.node_matrix()
        t, h = grid.nodes[0], grid.nodes[1] - grid.nodes[0]
        u = dp_p.controls.active_set(t)[0]
        X = Z.reshape(Z.shape[0], dp_p.space.size, dp_p.n)
        Y = Z + h * dp_p.dynamics.field(t, X, u).reshape(Z.shape)
        out["value.interp_s"] = _median_time(lambda: vg.evaluate(1, Y))
    if "adjoint" in kept:
        a, _ = kept["adjoint"]
        out["value.adjoint_sweep_s"] = _median_time(
            lambda: value_adjoint(a["p"], a["s"], a["phi"], a["grid"], iterations=0))
    # one field call at the shape the workload's hot loop uses
    X = np.random.default_rng(0).uniform(-1.0, 1.0, hot_lead + (p.space.size, p.n))
    u = p.controls.active_set(0.0)[0]
    t0 = time.perf_counter()
    p.dynamics.field(0.3, X, u)
    once = max(time.perf_counter() - t0, 1e-7)
    batch = max(1, int(0.02 / once))

    def calls():
        for _ in range(batch):
            p.dynamics.field(0.3, X, u)

    out["problem.field_eval_us"] = _median_time(calls, repeats=7) / batch * 1e6
    return out


def show(name, value, note=""):
    unit = UNITS.get(name, "")
    text = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:<28} {text:>14} {unit:<6} {note}".rstrip())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # one process, one thread: BLAS pools start no workers (set before numpy
    # loads; the set-up processes inherit it)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    if not (SRC / "enoc" / "__init__.py").is_file():
        print(f"error: no enoc sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import enoc
    import enoc.cli as cli
    if Path(enoc.__file__).resolve().parent != (SRC / "enoc").resolve():
        print(f"error: imported enoc from {enoc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, build_problem, prepare

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    facts = machine()
    work = WORK / wl.name
    inv = prepare(wl.name, args.seed, work)
    p = build_problem(inv.problem)

    # set-up samples are taken at even times across the window: the host's
    # speed drifts over tens of seconds, and a burst at the start would see
    # only one phase of it
    setup = []

    def aside(elapsed):
        if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * args.seconds / SETUP_REPEATS:
            setup.append(setup_sample(inv))

    walls, traced_walls, verdicts = [], [], []
    tracer = None
    if args.trace:
        tracer = Tracer()

        def pair():
            t0 = time.perf_counter()
            n = len(traced_walls)
            # alternate which side of the pair goes first
            for traced in ((False, True) if n % 2 == 0 else (True, False)):
                wall, verdict = invoke(cli, inv, tracer if traced else None, n)
                (traced_walls if traced else walls).append(wall)
                verdicts.append(verdict)
            return time.perf_counter() - t0

        timed_window(args.seconds, pair, MIN_PAIRS, aside)
    else:
        def single():
            wall, verdict = invoke(cli, inv)
            walls.append(wall)
            verdicts.append(verdict)
            return wall

        timed_window(args.seconds, single, MIN_SAMPLES, aside)
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_sample(inv))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(verdicts)
    failed = sum(1 for v in verdicts if not v["ok"])
    setup_s = [s["import_s"] + s["build_s"] for s in setup]
    e2e = {"setup_s": median(setup_s), "wall_s": median(walls),
           "peak_rss_mb": peak_rss_mb}
    first = verdicts[0]
    value_err = {m: first["value_err"].get(m) for m in ("oracle", "dp", "adjoint")}
    quality = {f"value_err.{m}": v for m, v in value_err.items()}
    quality["checks_failed"] = first["checks_failed"]
    quality["error_rate"] = failed / attempted

    # the gate's numbers are functions of the inputs: they repeat exactly
    repeat_ok = all(v["value_err"] == first["value_err"]
                    and v["checks_failed"] == first["checks_failed"]
                    for v in verdicts if v["ok"])

    layers = {}
    if tracer is not None:
        runs = sorted({s[4] for s in tracer.spans})
        per_run = [layer_metrics(tracer.spans, tracer.counters, r) for r in runs]
        for name in per_run[0]:
            if name in EXACT:
                layers[name] = per_run[0][name]
                repeat_ok &= all(m[name] == per_run[0][name] for m in per_run)
            else:
                layers[name] = median([m[name] for m in per_run])
        layers.update(probes(tracer.kept, p, wl.hot_lead))
        layers["library.import_s"] = median([s["import_s"] for s in setup])
        layers["library.build_s"] = median([s["build_s"] for s in setup])
        layers["trace.overhead_s"] = median(traced_walls) - median(walls)
        for name, v in quality.items():
            layers[name] = 0 if v is None else v
        tracer.write(work / "spans.jsonl")
    correct = failed == 0 and repeat_ok

    print(f"# enoc benchmark  workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# why: {wl.why}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"# cli: enoc {' '.join(inv.argv)}")
    print("end to end:")
    q1, q3 = quartiles(setup_s)
    show("setup_s", e2e["setup_s"], f"median of {len(setup_s)}, q1 {q1:.4g} q3 {q3:.4g}")
    q1, q3 = quartiles(walls)
    show("wall_s", e2e["wall_s"], f"median of {len(walls)}, q1 {q1:.4g} q3 {q3:.4g}")
    show("peak_rss_mb", peak_rss_mb)
    for name, v in quality.items():
        note = f"({failed}/{attempted} invocations)" if name == "error_rate" else ""
        show(name, v, note)
    if not repeat_ok:
        print("  computed counts or value errors did not repeat exactly")
    if layers:
        print(f"per layer (medians over {len(traced_walls)} traced invocations):")
        for name, _, _ in PER_LAYER:
            show(name, layers[name])

    result = {"workload": wl.name, "why": wl.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": facts,
              "argv": inv.argv, "walls": walls, "traced_walls": traced_walls,
              "setup": setup, "end_to_end": e2e, "quality": quality,
              "per_layer": layers,
              "failures": [v["reason"] for v in verdicts if not v["ok"]]}
    (work / "result.json").write_text(json.dumps(result, indent=1) + "\n")

    wanted = PER_LAYER if args.trace else END_TO_END
    source = layers if args.trace else e2e
    metrics = {name: {"value": source[name], "unit": unit} for name, unit, _ in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
