#!/usr/bin/env python3
"""mhdgevrey benchmark: one closed-loop workload per run, one caller.

    python3 perfbench/run.py --workload sweep-n16 --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up (imports, constants table, transform-plan
warm-up, initial data), then repeats the workload's iteration, each one
starting when the previous one ends, until ``--seconds`` are used.  Every
iteration's outputs are checked.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` every other iteration runs traced, and it holds the per-layer
metrics.  Lines above it give every metric by name and unit.

Other modes: ``--check-pins`` runs the full canonical N=16 sweep and compares
it with tests/data/bound_ratios.json; ``--machine`` prints the machine and
provenance block.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One process, one thread: pin every threading pool before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 3  # this process plus two fresh ones
END_TO_END = {"wall_s": "s", "run_s": "s", "steps_per_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MB"}
# Phase timings printed for the workloads that have the phase.
PHASES = {"run": "run_s", "verify": "verify_s", "compare": "compare_s",
          "constants": "constants_s", "spectrum": "spectrum_s"}


def import_package():
    """Import mhdgevrey from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mhdgevrey" / "__init__.py").is_file():
        raise ImportError("no package sources at %s" % src)
    sys.path.insert(0, str(src))
    import mhdgevrey

    if Path(mhdgevrey.__file__).resolve().parent != (src / "mhdgevrey").resolve():
        raise ImportError("mhdgevrey imported from %s" % mhdgevrey.__file__)
    return mhdgevrey


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return 100.0 * (k + 1) / n, sorted(values)[k]


def describe(name, values, unit):
    line = "%-16s median %-12.6g %-5s n=%d" % (name, statistics.median(values), unit,
                                                len(values))
    t = tail(values)
    if t is not None:
        line += "  p%.0f %.6g" % t
    return line


def measure(workload, seconds, workdir, tracer=None):
    """Closed loop, one caller: each iteration starts when the last one ends.

    With a tracer, odd iterations run traced and even ones untraced, so the
    two sets see the same machine conditions; returns (untraced, traced).
    """
    plain, traced, t0, k = [], [], time.perf_counter(), 0
    while True:
        on = tracer is not None and k % 2 == 1
        if on:
            tracer.iteration = len(traced)
            tracer.install()
        try:
            it = workload.iterate(workdir / ("it%04d" % k), tracer if on else None)
        finally:
            if on:
                tracer.uninstall()
        shutil.rmtree(workdir / ("it%04d" % k), ignore_errors=True)
        (traced if on else plain).append(it)
        k += 1
        # Start another iteration only if it should end within half an
        # iteration of the budget, so runs measure about `seconds` on average.
        spent = time.perf_counter() - t0
        typical = statistics.median(sum(r.phases.values()) for r in plain + traced)
        if spent + typical / 2 >= seconds and (tracer is None or traced):
            return plain, traced


def setup_probe(args):
    """Set-up seconds of a fresh process, from the probe's own clock."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def timings(results):
    """Per-iteration wall, run-phase and step-rate samples, and phase samples."""
    walls = [sum(r.phases.values()) for r in results]
    runs = [r.phases["run"] for r in results]
    rates = [r.steps / r.phases["run"] for r in results]
    phases = {}
    for r in results:
        for op, t in r.phases.items():
            phases.setdefault(PHASES[op], []).append(t)
    return walls, runs, rates, phases


def report_checks(results):
    """Print failures and known defects; returns (attempted, failed) operations."""
    attempted = sum(len(r.ops) for r in results)
    failed = sum(1 for r in results for probs in r.ops.values() if probs)
    known = [k for r in results for k in r.known]
    for r in results:
        for op, problem in r.failed:
            print("FAILED  %s: %s" % (op, problem))
    for op, msg in sorted(set(known)):
        n = sum(1 for k in known if k == (op, msg))
        print("KNOWN   %s: %s (%d of %d iterations)" % (op, msg, n, len(results)))
    for op, msg in sorted({k for r in results for k in r.fixed}):
        print("FIXED?  %s: known defect no longer shows (%s); update the benchmark"
              % (op, msg))
    known_ops = len({(i, op) for i, r in enumerate(results) for op, _ in r.known})
    print("%-16s %.6g  (%d failed of %d operations attempted)"
          % ("fail_frac", failed / attempted, failed, attempted))
    print("%-16s %.6g  (counting %d operations with a known defect)"
          % ("fail_frac_known", (failed + known_ops) / attempted, known_ops))
    return attempted, failed


def machine_block():
    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "processes": 1,
    }
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        models = [ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                  if ln.startswith("model name")]
        info["cpu"] = models[0] if models else None
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(caches.glob("index*")):
        level = (idx / "level").read_text().strip()
        kind = (idx / "type").read_text().strip()
        if kind != "Instruction":
            info["L%s" % level] = (idx / "size").read_text().strip()
    try:
        info["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        info["commit"] = None
    # Complex128 FFT grid of the padded product: M^3 points, M >= 3N+1.
    from scipy.fft import next_fast_len

    info["working_set"] = {
        "N=%d" % N: "M=%d grid, %.1f MiB per batch of 9 half-spectra"
        % (M, 9 * M * M * (M // 2 + 1) * 16 / 2**20)
        for N, M in ((n, next_fast_len(3 * n + 1, real=True)) for n in (8, 16, 32))
    }
    return info


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--check-pins", action="store_true",
                   help="full canonical N=16 sweep against the pinned ratios")
    p.add_argument("--machine", action="store_true",
                   help="print the machine and provenance block")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print("perfbench: cannot import mhdgevrey: %s" % exc, file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.machine:
        print(json.dumps(machine_block(), indent=1))
        return 0
    if args.check_pins:
        args.workload = "sweep-n16"
    if args.workload not in workloads.WORKLOADS:
        print("perfbench: --workload must be one of %s"
              % ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="%s-" % args.workload, dir=WORK))
    try:
        return run(args, workloads, tracing, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workloads, tracing, workdir):
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup(workdir)
    setup_s = [time.perf_counter() - T_START]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s[0]}))
        return 0
    if args.check_pins:
        pins = json.loads((ROOT / "tests" / "data" / "bound_ratios.json").read_text())
        it = wl.check_pins(workdir / "pins", pins)
        for op, problem in it.failed:
            print("FAILED  %s: %s" % (op, problem))
        print("pinned-ratio check: %d of %d operations failed (run %.1f s, verify %.1f s)"
              % (len(it.failed), len(it.ops), it.phases.get("run", 0), it.phases.get("verify", 0)))
        return 0 if not it.failed else 1

    print("workload %s  seed %d  closed loop, 1 caller, %g s%s"
          % (args.workload, args.seed, args.seconds,
             ", every other iteration traced" if args.trace else ""))
    tracer = tracing.Tracer(uuid.uuid4().hex[:12]) if args.trace else None
    results, traced = measure(wl, args.seconds, workdir, tracer)
    walls, runs, rates, phases = timings(results)
    print(describe("wall_s", walls, "s"))
    print(describe("steps_per_s", rates, "1/s"))
    for name, vals in phases.items():
        print(describe(name, vals, "s"))
    if args.trace:
        metrics = traced_metrics(args, tracer, tracing, traced, walls)
    else:
        for _ in range(SETUP_REPEATS - 1):
            setup_s.append(setup_probe(args))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(describe("setup_s", setup_s, "s"))
        print("%-16s %-19.6g MB" % ("peak_rss_mb", rss_mb))
        values = {"wall_s": statistics.median(walls),
                  "run_s": statistics.median(runs),
                  "steps_per_s": statistics.median(rates),
                  "setup_s": statistics.median(setup_s),
                  "peak_rss_mb": rss_mb}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    attempted, failed = report_checks(results + traced)
    ok = failed == 0 and all(math.isfinite(v["value"]) for v in metrics.values())
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_metrics(args, tracer, tracing, traced, untraced_walls):
    walls = [sum(r.phases.values()) for r in traced]
    overhead = statistics.median(walls) - statistics.median(untraced_walls)
    index = tracing.SpanIndex(tracer.spans, len(traced))
    values = tracing.per_layer(index, overhead)
    print("traced iterations %d, %d spans, run id %s"
          % (len(traced), len(tracer.spans), tracer.run_id))
    print(describe("traced wall_s", walls, "s"))
    for name, v in values.items():
        print("%-38s %-12.6g %s" % (name, v, tracing.PER_LAYER[name]))
    print("self time per iteration, top layers:")
    top = sorted(index.self_by_name().items(), key=lambda kv: -kv[1])[:12]
    for name, v in top:
        print("  %-36s %.6g s" % (name, v))
    spans_dir = WORK / "spans"
    spans_dir.mkdir(exist_ok=True)
    out = spans_dir / ("%s-seed%d-%s.jsonl.gz" % (args.workload, args.seed, tracer.run_id))
    tracer.write(out, {"workload": args.workload, "seed": args.seed,
                       "iterations": len(traced)})
    print("spans written to %s" % out.relative_to(ROOT))
    return {k: {"value": v, "unit": tracing.PER_LAYER[k]} for k, v in values.items()}


if __name__ == "__main__":
    sys.exit(main())
