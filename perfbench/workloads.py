"""The four benchmark workloads: seeded inputs, one closed-loop iteration each,
and the checks on what the iteration wrote.

Every input the program receives is built here from the workload seed; the
run configurations are copies owned by the benchmark, so edits to
``scripts/example_run.json`` or ``tests/sweep_runs.py`` cannot move a
workload.  Only the package's public API and ``mhdgevrey.cli.main`` are
called.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import io
import json
import time
import traceback
from pathlib import Path

import numpy as np

import mhdgevrey as m
import mhdgevrey.cli as cli

# Table every workload builds in set-up: the one the test fixtures use.
TABLE_S = (0.5, 0.75, 1.0)

# Copy of scripts/example_run.json.  The seed is replaced by the workload
# seed and t_end is halved (50 steps, 6 samples and 6 checkpoints) so that
# several iterations fit in one run.
EXAMPLE_RUN = {
    "N": 8,
    "nu": 0.1,
    "eta": 0.1,
    "dt": 0.001,
    "t_end": 0.05,
    "output_stride": 10,
    "scheme": "integrating-factor-RK2",
    "initial": {
        "kind": "random-spectrum",
        "params": {"norm_v": 0.3, "norm_b": 0.15},
        "seed": 5,
    },
    "delta": "auto",
    "sigma": "auto",
    "s_grid": [0.0, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0],
    "derivative_s": [0.0, 1.0, -1.0, -3.0],
    "wiener_s": [-1.0, 0.0, 1.0],
    "lq_grid": [[4.0, 1.0]],
    "ft_s": [0.75, 1.0],
    "tilde_s": [0.0, 0.5, 1.0, 1.5],
}

# The example run with the Sigma_3 column on and a sample at every step.
SIGMA3_RUN = dict(EXAMPLE_RUN, t_end=0.002, output_stride=1, sigma3=True)

# Copy of the canonical sweep of tests/sweep_runs.py (N=16, RK2, dt=2e-3,
# samples every 4 steps, checkpoints every 20 steps, sigma=0.05); its initial
# data are the draw_initial family at N=16.
SWEEP = {"N": 16, "nu": 0.1, "eta": 0.1, "dt": 2e-3, "sigma": 0.05,
         "output_stride": 4, "checkpoint_stride": 20, "seed": 11, "t_end": 0.4}
# One benchmark iteration runs 12 of the canonical 200 steps, with a
# checkpoint every 6 steps so the pointwise bounds see 3 states.
SWEEP_ITERATION = {"t_end": 0.024, "checkpoint_stride": 6}

VERIFY_S = ["2.0", "1.0", "0.0", "-1.0", "-3.0"]
COMPARE_N = ["6", "8"]

# Thresholds reused from the test suite.
ENERGY_TOL = 1e-6   # tests/test_acceptance.py::test_energy_identity_long_run
BALANCE_TOL = 1e-6  # tests/test_acceptance.py::TestBalanceResidual
PIN_REL = 1e-6      # tests/test_acceptance.py::TestStandardSweep
PSI0_TOL = 1e-12    # psi(0) of nested data: the difference is identically 0


def sweep_diagnostics(delta, sigma):
    return m.DiagnosticsSpec(
        s_grid=(0.0, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0),
        delta=delta,
        derivative_s=(0.0, 1.0, -1.0, -3.0),
        wiener_s=(-1.0, 0.0, 1.0),
        lq_grid=((4.0, 1.0),),
        ft_sigma=sigma,
        ft_s=(0.75, 1.0),
        tilde_s=(0.0, 0.5, 1.0, 1.5),
    )


def build_table():
    table = m.build_table(s_values=TABLE_S)
    table.ensure_C(0.0)
    return table


def fresh_table(snapshot):
    """An independent copy of the set-up table: every iteration starts from
    the same constants, whatever the previous one estimated or retried."""
    return m.ConstantsTable.from_snapshot(copy.deepcopy(snapshot))


def draw_initial(N, seed):
    """Random-spectrum data (norm_v 0.3, norm_b 0.15, nu = eta = 0.1) at N.

    Evaluating its right-hand side once builds the geometry and transform
    plans at N through the public API.
    """
    st = m.make_initial("random-spectrum", {"norm_v": 0.3, "norm_b": 0.15},
                        N=N, seed=seed, nu=0.1, eta=0.1)
    m.full_rhs(st)
    return st


class Iteration:
    """Timings and check outcomes of one iteration.

    Each operation counts once as attempted.  It fails when it raises, exits
    with a non-zero code or one of its checks fails.  A check marked as a
    known defect is reported (``known``) but does not fail its operation.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.phases = {}
        self.steps = 0
        self.ops = {}       # op name -> list of problems
        self.known = []     # (op, message) of known defects that showed
        self.fixed = []     # known defects that no longer show

    def run(self, op, fn, *args):
        self.ops.setdefault(op, [])
        root = self.tracer.root(op) if self.tracer else contextlib.nullcontext()
        # Collect the garbage of earlier operations first, so that no timed
        # operation pays for a collection of objects it did not make.
        gc.collect()
        t = time.perf_counter()
        try:
            with root, contextlib.redirect_stdout(io.StringIO()) as out:
                result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            self.phases[op] = time.perf_counter() - t
            traceback.print_exc()
            self.ops[op].append("raised %s: %s" % (type(exc).__name__, exc))
            return None, ""
        self.phases[op] = time.perf_counter() - t
        return result, out.getvalue()

    def cli(self, op, argv):
        code, out = self.run(op, cli.main, argv)
        if code is not None and code != 0:
            self.ops[op].append("exit code %d" % code)
        return code == 0, out

    def check(self, op, ok, message, known=False):
        if known:
            (self.fixed if ok else self.known).append((op, message))
        elif not ok:
            self.ops[op].append(message)

    @property
    def failed(self):
        return [(op, p) for op, probs in self.ops.items() for p in probs]


def energy_residual(trace):
    """Discrete energy identity: |E(T) + int D - E(0)| / (E(0) (T - t0))."""
    t = trace.times
    e = trace.col("energy")
    d = trace.col("diss_v") + trace.col("diss_b")
    return abs(e[-1] + np.trapezoid(d, t) - e[0]) / (e[0] * (t[-1] - t[0]))


def balance_residual(tr, delta):
    """Midpoint residual of the weighted-energy balance from series columns.

    Same formula as mhdgevrey.transform.balance_residual, evaluated on the
    archived tv_s1.5, tb_s1.5, tE2, tdiss52, sigma3 and phi columns.
    """
    t = tr.times
    e32 = tr.col("tv_s1.5") ** 2 + tr.col("tb_s1.5") ** 2
    phi = tr.col("phi")
    pref = 0.5 * (1.0 + delta * phi**3 * tr.col("tE2"))
    diss = tr.col("tdiss52")
    sig = tr.col("sigma3")
    res = (0.5 * (pref[1:] + pref[:-1]) * np.diff(e32) / np.diff(t)
           + 0.5 * (diss[1:] + diss[:-1]) - 0.5 * (sig[1:] + sig[:-1]))
    return float(np.max(np.abs(res)))


def _write_json(path, doc):
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


class Workload:
    name = ""
    N = 0

    def __init__(self, seed):
        # The program only ever sees this derived initial-data seed.
        self.data_seed = int(seed) % 2**32

    def setup(self, workdir: Path):
        self.table = build_table()
        self.snapshot = self.table.snapshot()
        self.table_json = workdir / "constants.json"
        self.table.to_json(self.table_json)
        self.initial = draw_initial(self.N, self.data_seed)

    def iterate(self, outdir: Path, tracer=None) -> Iteration:
        raise NotImplementedError


class StepN32(Workload):
    """Bare stepping at N=32: energy and dissipation only, no delta.

    Not listed in BENCHMARK.json: its 400 MB working set makes it the
    workload most exposed to the host's speed drift (run medians spread by
    about 0.2 of their value across seeds).  Run it by hand, in alternating
    parent/change pairs, when a change targets the solver core.
    """

    name = "step-n32"
    N = 32
    STEPS = 2

    def iterate(self, outdir, tracer=None):
        it = Iteration(tracer)
        cfg = m.SolverConfig(N=32, nu=0.1, eta=0.1, dt=1e-3,
                             t_end=self.STEPS * 1e-3, output_stride=1,
                             checkpoint_stride=self.STEPS,
                             scheme="integrating-factor-RK2")
        trace, _ = it.run("run", m.simulate, cfg, self.initial, outdir / "trace",
                          m.DiagnosticsSpec(s_grid=()))
        it.steps = self.STEPS
        if trace is not None:
            res = energy_residual(trace)
            it.check("run", res <= ENERGY_TOL,
                     "energy identity residual %.3g > %g" % (res, ENERGY_TOL))
            n_ck = len(trace.checkpoint_paths())
            it.check("run", n_ck == 2, "%d checkpoints, expected 2" % n_ck)
        return it


class SweepN16(Workload):
    """Research-resolution run + verify: simulate, then standard_sweep."""

    name = "sweep-n16"
    N = 16

    def setup(self, workdir):
        super().setup(workdir)
        self.delta = 0.9 * m.delta_max(self.table, SWEEP["nu"], SWEEP["eta"])

    def config(self, t_end, checkpoint_stride):
        return m.SolverConfig(
            N=SWEEP["N"], nu=SWEEP["nu"], eta=SWEEP["eta"], dt=SWEEP["dt"],
            t_end=t_end, output_stride=SWEEP["output_stride"],
            checkpoint_stride=checkpoint_stride,
            scheme="integrating-factor-RK2")

    def sweep(self, it, cfg, initial, outdir, seed):
        table = fresh_table(self.snapshot)
        extra = {"delta": self.delta, "sigma": SWEEP["sigma"], "seed": seed}
        trace, _ = it.run("run", m.simulate, cfg, initial, outdir / "trace",
                          sweep_diagnostics(self.delta, SWEEP["sigma"]), extra)
        if trace is None:
            return None
        reports, _ = it.run("verify", m.standard_sweep, trace, table)
        if reports is not None:
            bad = ["%s:%s" % (r.id, r.s) for r in reports if r.verdict == "fail"]
            it.check("verify", not bad, "fail verdict: %s" % ", ".join(bad))
            it.check("verify", len(reports) == 21,
                     "%d reports, expected 21" % len(reports))
        return reports

    def iterate(self, outdir, tracer=None):
        it = Iteration(tracer)
        cfg = self.config(**SWEEP_ITERATION)
        self.sweep(it, cfg, self.initial, outdir, self.data_seed)
        it.steps = int(round(cfg.t_end / cfg.dt))
        return it

    def check_pins(self, outdir, pins):
        """Full canonical sweep at the canonical seed against the pinned ratios."""
        it = Iteration()
        initial = draw_initial(SWEEP["N"], SWEEP["seed"])
        cfg = self.config(SWEEP["t_end"], SWEEP["checkpoint_stride"])
        reports = self.sweep(it, cfg, initial, outdir, SWEEP["seed"]) or []
        for r in reports:
            key = "%s:%s" % (r.id, "%g" % r.s if r.s is not None else "-")
            pin = pins.get(key)
            ok = pin is not None and abs(r.ratio - pin["ratio"]) <= PIN_REL * abs(pin["ratio"])
            it.check("verify", ok, "%s ratio %r, pinned %r"
                     % (key, r.ratio, pin and pin["ratio"]))
        it.check("verify", len(reports) == len(pins),
                 "%d reports, %d pins" % (len(reports), len(pins)))
        return it


class CliN8(Workload):
    """The five subcommands of scripts/demo_workflow.py through cli.main."""

    name = "cli-n8"
    N = 8

    def setup(self, workdir):
        super().setup(workdir)
        for n in COMPARE_N:
            draw_initial(int(n), self.data_seed)
        doc = copy.deepcopy(EXAMPLE_RUN)
        doc["initial"]["seed"] = self.data_seed
        self.config = workdir / "run.json"
        _write_json(self.config, doc)
        self.steps = int(round(doc["t_end"] / doc["dt"]))
        self.samples = self.steps // doc["output_stride"] + 1

    def iterate(self, outdir, tracer=None):
        it = Iteration(tracer)
        outdir.mkdir(parents=True)
        table = str(outdir / "constants.json")
        trace = outdir / "trace"
        cmp_dir = outdir / "compare"
        it.cli("constants", ["constants", "--s", "0.5", "0.75", "1.0", "0.0",
                             "--out", table])
        it.cli("run", ["run", str(self.config), "--out", str(trace), "--table", table])
        it.steps = self.steps
        it.cli("verify", ["verify", str(trace), "--table", table, "--s"] + VERIFY_S)
        cks = sorted((trace / "checkpoints").glob("step_*.bin"))
        _, spectrum_out = it.cli("spectrum", ["spectrum", str(cks[-1] if cks else trace)])
        it.cli("compare", ["compare", str(self.config), "--N"] + COMPARE_N
               + ["--out", str(cmp_dir), "--table", table])
        self._checks(it, Path(table), trace, spectrum_out, cmp_dir)
        return it

    def _checks(self, it, table, trace, spectrum_out, cmp_dir):
        if table.exists():
            entries = json.loads(table.read_text())["entries"]
            mismatch = [k for k, e in self.snapshot["entries"].items()
                        if k not in entries or entries[k]["value"] != e["value"]]
            it.check("constants", not mismatch,
                     "constants differ from build_table: %s" % mismatch)
        else:
            it.check("constants", False, "no constants JSON written")
        series = m.TraceArchive.load(trace) if (trace / "manifest.json").exists() else None
        n = len(series.times) if series is not None else 0
        it.check("run", n == self.samples, "%d samples, expected %d" % (n, self.samples))
        report = trace / "report.json"
        if report.exists():
            rows = json.loads(report.read_text())
            bad = ["%s:%s" % (r["id"], r["s"]) for r in rows if r["verdict"] == "fail"]
            it.check("verify", bool(rows) and not bad,
                     "%d rows, fail verdicts: %s" % (len(rows), bad))
        else:
            it.check("verify", False, "no report.json written")
        fits = [ln for ln in spectrum_out.splitlines() if "sigma_fit=" in ln]
        it.check("spectrum", len(fits) == 2, "%d decay fits printed" % len(fits))
        psi = cmp_dir / ("psi_N%03d_N%03d.csv" % tuple(int(n) for n in COMPARE_N))
        if not psi.exists():
            it.check("compare", False, "psi CSV not written")
            return
        rows = [ln.split(",") for ln in psi.read_text().splitlines()[1:]]
        it.check("compare", len(rows) == self.samples,
                 "%d psi rows, expected %d" % (len(rows), self.samples))
        if rows:
            psi0 = float(rows[0][1])
            # ROADMAP open item 5: compare draws independent data at each N.
            it.check("compare", psi0 <= PSI0_TOL,
                     "psi(0) = %.6g on nested runs, expected 0" % psi0, known=True)


class Sigma3N8(Workload):
    """`cli run` at N=8 with the Sigma_3 column sampled at every step."""

    name = "sigma3-n8"
    N = 8

    def setup(self, workdir):
        super().setup(workdir)
        doc = copy.deepcopy(SIGMA3_RUN)
        doc["initial"]["seed"] = self.data_seed
        self.config = workdir / "sigma3.json"
        _write_json(self.config, doc)
        self.steps = int(round(doc["t_end"] / doc["dt"]))

    def iterate(self, outdir, tracer=None):
        it = Iteration(tracer)
        trace = outdir / "trace"
        ok, _ = it.cli("run", ["run", str(self.config), "--out", str(trace),
                               "--table", str(self.table_json)])
        it.steps = self.steps
        if ok:
            tr = m.TraceArchive.load(trace)
            n = len(tr.times)
            it.check("run", n == self.steps + 1,
                     "%d samples, expected %d" % (n, self.steps + 1))
            res = balance_residual(tr, float(tr.manifest["delta"]))
            it.check("run", res <= BALANCE_TOL,
                     "weighted-energy balance residual %.3g > %g" % (res, BALANCE_TOL))
        return it


WORKLOADS = {w.name: w for w in (StepN32, SweepN16, CliN8, Sigma3N8)}
