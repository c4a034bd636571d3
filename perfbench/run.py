"""Benchmark of the cavising library: one seeded workload per run.

Usage, from the repository root:

    python3 perfbench/run.py --workload phase-column --seed 1 --seconds 20 --trace 0

The run builds its inputs from ``--seed``, sets up (imports, input
generation, one warm-up call), then repeats passes over the whole input set
until the next pass would end after ``--seconds``; at least one pass always
runs.  Outputs are checked after the timed passes.  With ``--trace 0`` the
last stdout line reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a second, traced half of the run.  The lines before it
give the environment, sample counts, tail percentiles and any failed check;
``perfbench/out/`` keeps the same record as JSON, plus the spans of a traced
run.  See ``perfbench/README.md`` for the workloads and the metrics.
"""

import os
import sys
import time

SETUP_START = time.perf_counter()
# BLAS must be pinned before numpy loads it: unpinned OpenBLAS timings of
# one N = 200 SVD swing by a factor of five on a two-core machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 5  # set-ups per run: this process and four fresh interpreters

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "fermion.energy_calls": "count",
    "fermion.energy_self_s": "s",
    "fermion.form_calls": "count",
    "fermion.form_self_s": "s",
    "fermion.full_calls": "count",
    "fermion.full_self_s": "s",
    "model.field_self_s": "s",
    "meanfield.minimize_calls": "count",
    "meanfield.stationary_calls": "count",
    "meanfield.evals_per_minimize": "evals/minimize",
    "meanfield.search_self_s": "s",
    "meanfield.residual_max": "1",
    "correlation.report_calls": "count",
    "correlation.det_calls": "count",
    "correlation.dets_per_report": "dets/report",
    "correlation.det_self_s": "s",
    "correlation.report_self_s": "s",
    "phases.minimize_per_column": "calls/column",
    "phases.stationary_per_column": "calls/column",
    "phases.self_s": "s",
    "trace.overhead_s": "s",
}


def import_library():
    """Import cavising from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import cavising
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import cavising from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(cavising.__file__))) != SRC:
        sys.exit(f"perfbench: cavising was imported from {cavising.__file__}, not {SRC}")


def set_up(args):
    """Imports, input generation and one warm-up call; returns (workload, seconds)."""
    import_library()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    workload.warmup()
    return workload, time.perf_counter() - SETUP_START


def setup_in_fresh_interpreter(args):
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-only",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


class Pass:
    """One timed pass over the input set, with a digest of each op's result."""

    def __init__(self, wall, cpu, op_walls, digests, tracer):
        self.wall, self.cpu, self.op_walls = wall, cpu, op_walls
        self.digests, self.tracer = digests, tracer


class RaisedError:
    def __init__(self, text):
        self.text = text


def digest(op, out):
    if isinstance(out, RaisedError):
        return "raised"
    return hashlib.sha256(repr(op.fingerprint(out)).encode()).hexdigest()


def run_passes(ops, seconds, traced=False):
    """Passes until the next one would end after ``seconds``; at least one.

    Returns the passes and the outputs of the first one.  Later outputs are
    reduced to digests at once, so peak memory does not grow with the
    number of passes.
    """
    from tracer import Tracer

    passes, first = [], None
    start = time.perf_counter()
    while True:
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        outputs, op_walls = [], []
        w0, c0 = time.perf_counter(), time.process_time()
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                outputs.append(op.run())
            except Exception:  # a failed op is counted, not fatal
                outputs.append(RaisedError(traceback.format_exc()))
            op_walls.append(time.perf_counter() - t0)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if tracer:
            tracer.uninstall()
        passes.append(Pass(wall, cpu, op_walls, [digest(*x) for x in zip(ops, outputs)], tracer))
        if first is None:
            first = outputs
        del outputs
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.wall for p in passes) > seconds:
            return passes, first


def check_outputs(workload, outputs, passes):
    """Check ``outputs`` in full and require every pass to repeat them exactly.

    ``outputs`` belong to ``passes[0]``.  Returns (attempted, failed,
    problems); every op of every pass and every reference check is one
    attempt.
    """
    attempted = failed = 0
    problems = []
    for i, op in enumerate(workload.ops):
        if isinstance(outputs[i], RaisedError):
            issues = [f"{op.name} raised:\n{outputs[i].text}"]
        else:
            try:
                issues = list(op.check(outputs[i]))
            except Exception:
                issues = [f"{op.name}: check raised:\n{traceback.format_exc()}"]
        problems += issues
        for p in passes:
            attempted += 1
            if issues:
                failed += 1
            elif p.digests[i] != passes[0].digests[i]:
                failed += 1
                problems.append(f"{op.name}: a later pass gave a different result")
    for name, reference in workload.references:
        attempted += 1
        try:
            issues = list(reference())
        except Exception:
            issues = [f"{name} raised:\n{traceback.format_exc()}"]
        failed += bool(issues)
        problems += issues
    return attempted, failed, problems


def tail(samples):
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    n = len(samples)
    if n <= 20:
        return None
    pct = 100.0 * (n - 10) / n
    return pct, sorted(samples)[math.ceil(pct / 100.0 * n) - 1]


def describe(label, samples):
    line = f"{label}: n={len(samples)} median={statistics.median(samples):.6f}"
    t = tail(samples)
    if t is None:
        return line + " (20 or fewer samples: no tail percentile)"
    return line + f" p{t[0]:.1f}={t[1]:.6f}"


def git_commit():
    """The checked-out commit, read without running git; None outside a clone."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return None


def source_sha256():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "cavising")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def layer_report(traced, untraced):
    """Per-layer metrics of the traced passes, plus the tracing overhead."""
    from tracer import layer_metrics, minimize_sources

    per_pass = [layer_metrics(p.tracer.spans) for p in traced]
    metrics = {}
    for name, value in per_pass[0].items():
        if name.endswith("_s"):
            metrics[name] = statistics.median(m[name] for m in per_pass)
        else:
            metrics[name] = value
    unstable = sorted(
        name for name in per_pass[0]
        if not name.endswith("_s") and any(m[name] != per_pass[0][name] for m in per_pass)
    )
    wall = statistics.median(p.wall for p in traced)
    metrics["trace.overhead_s"] = wall - statistics.median(p.wall for p in untraced)
    lines = [f"traced pass wall {wall:.4f} s; self-time shares:"]
    for name in sorted(metrics):
        if name.endswith("self_s"):
            lines.append(f"  {name:28s} {metrics[name]:10.4f} s  {100 * metrics[name] / wall:5.1f}%")
    sources = minimize_sources(traced[0].tracer.spans)
    if sources:
        lines.append(f"minimize_phi calls by caller, one pass: {sources}")
    if unstable:
        lines.append(f"counts that differ between traced passes: {unstable}")
    absent = traced[0].tracer.absent
    if absent:
        lines.append(f"absent wrap targets: {absent}")
    record = {"sources": sources, "absent": absent, "unstable_counts": unstable}
    return metrics, lines, record


def main(argv=None):
    parser = argparse.ArgumentParser(description="cavising benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["phase-column", "multimode-solve", "correlations", "large-ring"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every input, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload, setup_s = set_up(args)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    setups = [setup_s] + [setup_in_fresh_interpreter(args) for _ in range(SETUP_RUNS - 1)]

    if args.trace:
        untraced, outputs = run_passes(workload.ops, 0.5 * args.seconds)
        traced, _ = run_passes(workload.ops, 0.5 * args.seconds, traced=True)
        passes = untraced + traced
    else:
        passes, outputs = run_passes(workload.ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, problems = check_outputs(workload, outputs, passes)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": environment(),
              "setup_s_samples": setups, "pass_wall_s": [p.wall for p in passes],
              "pass_cpu_s": [p.cpu for p in passes],
              "op_wall_s": [p.op_walls for p in passes], "problems": problems}
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}",
             "environment: " + json.dumps(record["environment"], sort_keys=True)]
    if args.trace:
        metrics, more, record["trace"] = layer_report(traced, untraced)
        metrics["meanfield.residual_max"] = workload.stats["residual_max"]
        units = PER_LAYER_UNITS
        lines += more
        spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json")
        record["spans_file"] = spans_path
    else:
        walls = [p.wall for p in passes]
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(p.cpu for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        lines.append(describe("pass wall_s", walls))
        lines.append(describe("pass cpu_s", [p.cpu for p in passes]))
        for i, op in enumerate(workload.ops):
            lines.append(describe(f"op {op.name} wall_s", [p.op_walls[i] for p in passes]))
        lines.append(describe("setup_s", setups))
    lines.append(f"fail_rate={failed / attempted:.6f} ({failed}/{attempted})")
    lines += [f"FAILED CHECK: {p}" for p in problems]
    record["metrics"] = metrics

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1, default=str)
    if args.trace:
        with open(spans_path, "w") as f:
            json.dump([[list(s) for s in p.tracer.spans] for p in traced], f)

    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
