#!/usr/bin/env python3
"""Regenerate the pinned regression ratios of the standard bound sweep.

Runs the canonical N=16 sweep configuration (tests/sweep_runs.py), verifies
every bound in the standard battery and writes the resulting lhs/rhs ratios
to tests/data/bound_ratios.json.  Before writing, it prints every pin whose
ratio or verdict moved against the file, as old -> new.  Rerun after any
change that legitimately moves the ratios (solver, norms, constant
estimation) and commit the result.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import mhdgevrey as m  # noqa: E402
from mhdgevrey.bounds import standard_sweep  # noqa: E402

from sweep_runs import make_sweep_trace  # noqa: E402


def _pin_text(pin):
    return "(none)" if pin is None else "%r %s" % (pin["ratio"], pin["verdict"])


def main():
    table = m.build_table(s_values=(0.5, 0.75, 1.0))
    table.ensure_C(0.0)
    with tempfile.TemporaryDirectory() as tmp:
        trace = make_sweep_trace(16, Path(tmp) / "sweep16", table)
        reports = standard_sweep(trace, table)
    pins = {}
    for r in reports:
        key = "%s:%s" % (r.id, "%g" % r.s if r.s is not None else "-")
        pins[key] = {"ratio": r.ratio, "verdict": r.verdict}
        print("%-12s ratio=%-12.6g verdict=%s %s" % (key, r.ratio, r.verdict,
                                                     r.note))
    out = ROOT / "tests" / "data" / "bound_ratios.json"
    old = json.loads(out.read_text()) if out.exists() else {}
    for key in sorted(set(old) | set(pins)):
        before, after = old.get(key), pins.get(key)
        if before != after:
            print("moved %-10s %s -> %s" % (key, _pin_text(before), _pin_text(after)))
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
    print("wrote %s" % out)


if __name__ == "__main__":
    main()
