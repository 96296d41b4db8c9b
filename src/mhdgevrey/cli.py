"""Command-line surface: simulate, verify, inspect and compare runs.

Commands
--------
run        integrate one configured experiment and archive diagnostics
verify     check a priori inequalities along an archived run
constants  estimate/certify embedding and lattice constants, emit JSON
spectrum   fit the spectral decay rate of a stored checkpoint
compare    rerun one initial state at several truncation levels, report psi(t)

Exit codes: 0 success, 1 usage or configuration error, 2 numerical blow-up,
3 at least one verified inequality failed, 4 an iterative solver (the Phi
root) did not converge.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .archive import TraceArchive, atomic_open, checkpoint_load
from .bounds import BOUNDS, _verify_pairs
from .config import load_run_config
from .constants import ConstantsTable, build_table
from .errors import (
    BlowUpError,
    CheckpointError,
    ConfigError,
    ConvergenceError,
    DomainError,
    FieldInvariantError,
    GevreyOverflowError,
    MissingConstantError,
    TraceError,
)
from .radius import decay_fit, two_resolution_psi
from .solver import simulate
from .spectral import embed_field

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BLOWUP = 2
EXIT_BOUND_FAILURE = 3
EXIT_CONVERGENCE = 4


def _load_table(path):
    if path:
        return ConstantsTable.from_json(path)
    return build_table()


def cmd_run(args) -> int:
    cfg = load_run_config(args.config)
    outdir = args.out or cfg.outdir
    if not outdir:
        raise ConfigError("no output directory (config 'outdir' or --out)")
    table = _load_table(args.table)
    delta, sigma, notes = cfg.resolve(table)
    extra = {"seed": cfg.seed, "initial": {"kind": cfg.initial_kind,
                                           "params": cfg.initial_params}}
    if delta is not None:
        extra["delta"] = delta
    if sigma is not None:
        extra["sigma"] = sigma
    extra.update(notes)
    initial = cfg.initial_state()
    diagnostics = cfg.diagnostics(delta, sigma)
    try:
        trace = simulate(cfg.solver_config(), initial, outdir,
                         diagnostics=diagnostics, manifest_extra=extra)
    except BlowUpError as exc:
        print("numerical blow-up at t=%g; partial archive kept in %s"
              % (exc.t, outdir), file=sys.stderr)
        return EXIT_BLOWUP
    if args.verbosity >= 1:
        energy = trace.col("energy")
        for t, e in zip(trace.times, energy):
            print("t=%-12.6g energy=%.12g" % (t, e))
    print("archived %d samples in %s" % (len(trace.times), outdir))
    return EXIT_OK


def cmd_verify(args) -> int:
    trace = TraceArchive.load(args.trace)
    table = _load_table(args.table)
    man = trace.manifest
    values = {"delta": man.get("delta"), "sigma": man.get("sigma"), "p": args.p}
    T = args.T if args.T is not None else float(trace.times[-1])
    ids = args.bounds or list(BOUNDS)
    bad = [b for b in ids if b not in BOUNDS]
    if bad:
        print("unknown bound ids: %s\nvalid ids: %s"
              % (", ".join(bad), ", ".join(BOUNDS)), file=sys.stderr)
        return EXIT_USAGE
    # Every requested pair is checked against the archive before any work
    # and either reported or listed as skipped, with the reason.
    pairs = []
    for id in ids:
        bound = BOUNDS[id]
        for s in [None] if bound.fixed_s is not None else (args.s or [None]):
            reason = bound.inapplicable(s, values, trace, T)
            if reason:
                print("skip %s s=%s: %s" % (id, "-" if s is None else "%.12g" % s, reason))
            else:
                pairs.append((id, s))
    reports = _verify_pairs(pairs, trace, table, T, values)
    if not reports:
        print("no applicable (bound, s) pairs", file=sys.stderr)
        return EXIT_USAGE
    bundle = [r.as_dict() for r in reports]
    out = Path(args.out) if args.out else Path(args.trace) / "report.json"
    with atomic_open(out) as f:
        json.dump(bundle, f, indent=1, sort_keys=True)
    failed = 0
    for r in reports:
        print("%-6s s=%-6s verdict=%-13s ratio=%-12.5g %s"
              % (r.id, "%.12g" % r.s, r.verdict, r.ratio, r.note))
        if r.verdict == "fail":
            failed += 1
    print("report written to %s" % out)
    return EXIT_BOUND_FAILURE if failed else EXIT_OK


def cmd_constants(args) -> int:
    table = build_table(s_values=(), safety=args.safety)
    for s in args.s or []:
        table.ensure_C(s, resolution=args.resolution, trials=args.trials,
                       seed=args.seed)
    for p in args.cp or []:
        table.ensure_cp(p)
    snap = table.snapshot()
    text = json.dumps(snap, indent=1, sort_keys=True)
    if args.out:
        with atomic_open(args.out) as f:
            f.write(text + "\n")
    print(text)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    state = checkpoint_load(args.checkpoint)
    for name, w in (("V", state.V), ("B", state.B)):
        est = decay_fit(w, args.m_lo, args.m_hi)
        print("%s: sigma_fit=%.6g shells=[%d,%d] residual=%.3g"
              % (name, est.sigma_fit, est.fit_range[0], est.fit_range[1],
                 est.residual))
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = load_run_config(args.config)
    table = _load_table(args.table)
    delta, sigma, _ = cfg.resolve(table)
    outdir = Path(args.out or cfg.outdir or "compare-out")
    traces = []
    # One initial state, drawn at the smallest N and zero-padded to the
    # others, so that psi(t) measures truncation and not different data.
    base = replace(cfg, N=min(args.N)).initial_state()

    for N in args.N:
        sub = outdir / ("N%03d" % N)
        cfgN = replace(cfg, N=int(N))
        initial = replace(base, V=embed_field(base.V, N), B=embed_field(base.B, N))
        try:
            tr = simulate(cfgN.solver_config(), initial, sub,
                          diagnostics=cfgN.diagnostics(delta, sigma))
        except BlowUpError as exc:
            print("blow-up at t=%g for N=%d" % (exc.t, N), file=sys.stderr)
            return EXIT_BLOWUP
        traces.append((N, tr))
    for (n1, t1), (n2, t2) in zip(traces, traces[1:]):
        rows = two_resolution_psi(t1, t2)
        path = outdir / ("psi_N%03d_N%03d.csv" % (n1, n2))
        with atomic_open(path) as f:
            f.write("t,psi\n")
            for t, psi in rows:
                f.write("%r,%r\n" % (t, psi))
        print("N=(%d,%d): terminal psi=%.6g -> %s"
              % (n1, n2, rows[-1][1], path))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mhdgevrey",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("run", help="integrate one configured experiment")
    r.add_argument("config")
    r.add_argument("--out", help="override the config's output directory")
    r.add_argument("--table", help="constants table JSON")
    r.add_argument("--verbosity", type=int, default=1)
    r.set_defaults(func=cmd_run)

    v = sub.add_parser("verify", help="check inequalities along a run")
    v.add_argument("trace")
    v.add_argument("--bounds", nargs="*", help="bound ids (default: all)")
    v.add_argument("--s", nargs="*", type=float, help="norm indices")
    v.add_argument("--p", type=float, default=4.0, help="integrability order")
    v.add_argument("--T", type=float, help="right end of the window")
    v.add_argument("--table", help="constants table JSON")
    v.add_argument("--out", help="report path (default: <trace>/report.json)")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("constants", help="estimate/certify constants")
    c.add_argument("--s", nargs="*", type=float)
    c.add_argument("--cp", nargs="*", type=float)
    c.add_argument("--resolution", type=int, default=16)
    c.add_argument("--trials", type=int, default=24)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--safety", type=float, default=2.0)
    c.add_argument("--out")
    c.set_defaults(func=cmd_constants)

    s = sub.add_parser("spectrum", help="fit decay rate of a checkpoint")
    s.add_argument("checkpoint")
    s.add_argument("--m-lo", type=int, dest="m_lo")
    s.add_argument("--m-hi", type=int, dest="m_hi")
    s.set_defaults(func=cmd_spectrum)

    m = sub.add_parser("compare", help="rerun at several truncations")
    m.add_argument("config")
    m.add_argument("--N", nargs="+", type=int, required=True)
    m.add_argument("--out")
    m.add_argument("--table", help="constants table JSON")
    m.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError,
        FileNotFoundError,
        DomainError,
        TraceError,
        CheckpointError,
        MissingConstantError,
        FieldInvariantError,
        GevreyOverflowError,
    ) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
