"""Command-line surface: exit codes, reports and config validation."""

import csv
import importlib
import importlib.util
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import mhdgevrey as m
from mhdgevrey.archive import checkpoint_save
from mhdgevrey.bounds import BOUNDS, POINTWISE_IDS, verify_integral, verify_pointwise
from mhdgevrey.cli import (
    EXIT_BLOWUP,
    EXIT_BOUND_FAILURE,
    EXIT_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from mhdgevrey.config import load_run_config, parse_run_config
from mhdgevrey.errors import ConfigError, ConvergenceError, DomainError, TraceError
from mhdgevrey.solver import SCHEMES
from mhdgevrey.spectral import SpectralField, geometry

from conftest import full_diagnostics


BASE_CONFIG = {
    "N": 6,
    "nu": 0.1,
    "eta": 0.1,
    "dt": 1e-3,
    "t_end": 0.02,
    "output_stride": 2,
    "scheme": "integrating-factor-RK2",
    "initial": {"kind": "random-spectrum",
                "params": {"norm_v": 0.3, "norm_b": 0.15}, "seed": 5},
    "delta": "auto",
    "sigma": "auto",
    "s_grid": [0.0, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0],
    "derivative_s": [0.0, 1.0, -1.0, -3.0],
    "wiener_s": [-1.0, 0.0, 1.0],
    "lq_grid": [[4.0, 1.0]],
    "ft_s": [0.75, 1.0],
    "tilde_s": [0.0, 0.5, 1.0, 1.5],
}


def write_config(tmp_path, name="run.json", drop=(), **overrides):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc.update(overrides)
    for key in drop:
        del doc[key]
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory, table_json):
    """One archived run produced through the CLI, reused by verify tests."""
    tmp = tmp_path_factory.mktemp("clirun")
    cfg = write_config(tmp)
    out = str(tmp / "archive")
    code = main(["run", cfg, "--out", out, "--table", table_json,
                 "--verbosity", "0"])
    assert code == EXIT_OK
    return out


class TestConfigParsing:
    def test_unknown_keys_rejected_by_name(self):
        with pytest.raises(ConfigError, match="unknown config fields: bogus"):
            parse_run_config(dict(BASE_CONFIG, bogus=1))

    def test_dealias_is_not_a_config_field(self):
        with pytest.raises(ConfigError, match="unknown config fields: dealias"):
            parse_run_config(dict(BASE_CONFIG, dealias=True))

    def test_missing_required_field(self):
        doc = dict(BASE_CONFIG)
        del doc["nu"]
        with pytest.raises(ConfigError, match="'nu'"):
            parse_run_config(doc)

    def test_bad_s_grid(self):
        with pytest.raises(ConfigError, match="s_grid"):
            parse_run_config(dict(BASE_CONFIG, s_grid="abc"))

    def test_bad_lq_grid(self):
        with pytest.raises(ConfigError, match="lq_grid"):
            parse_run_config(dict(BASE_CONFIG, lq_grid=[[4.0]]))

    def test_json_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"N": 6,\n  "nu": oops}')
        with pytest.raises(ConfigError, match="line 2"):
            load_run_config(path)

    @pytest.mark.parametrize("key,value,field", [
        ("nu", 0.0, "'nu'"), ("eta", -0.1, "'eta'"), ("dt", 0.0, "'dt'"),
        ("dt", -1e-3, "'dt'"), ("t_end", -1.0, "'t_end'"), ("N", 0, "'N'"),
        ("output_stride", 0, "'output_stride'"),
        ("checkpoint_stride", 0, "'checkpoint_stride'"),
    ])
    def test_out_of_range_field_named(self, key, value, field):
        # the ranges are SolverConfig's, checked while the config is parsed
        with pytest.raises(ConfigError, match=field):
            parse_run_config(dict(BASE_CONFIG, **{key: value}))

    def test_unknown_scheme_lists_the_schemes(self):
        with pytest.raises(ConfigError, match="'scheme'") as exc:
            parse_run_config(dict(BASE_CONFIG, scheme="euler"))
        assert all(name in str(exc.value) for name in SCHEMES)

    def test_sections_built_once(self):
        cfg = parse_run_config(dict(BASE_CONFIG, checkpoint_stride=4, shells=True))
        assert cfg.solver == m.SolverConfig(
            N=6, nu=0.1, eta=0.1, dt=1e-3, t_end=0.02, output_stride=2,
            scheme="integrating-factor-RK2", checkpoint_stride=4)
        assert cfg.diagnostics.wiener_s == (-1.0, 0.0, 1.0)
        assert cfg.diagnostics.lq_grid == ((4.0, 1.0),) and cfg.diagnostics.shells
        assert cfg.initial == {"kind": "random-spectrum", "seed": 5,
                               "params": {"norm_v": 0.3, "norm_b": 0.15}}

    def test_auto_scales_resolve(self, table):
        cfg = parse_run_config(dict(BASE_CONFIG))
        spec, notes = cfg.resolve(table)
        assert spec.delta == pytest.approx(0.9 * m.delta_max(table, 0.1, 0.1))
        assert spec.ft_sigma == pytest.approx(0.05)
        assert spec.s_grid == cfg.diagnostics.s_grid
        assert "delta_resolution" in notes and "sigma_resolution" in notes
        # the manifest records sigma even for a run without ft_s columns
        no_ft = parse_run_config(dict(BASE_CONFIG, ft_s=[]))
        assert no_ft.resolve(table)[0].ft_sigma == spec.ft_sigma

    def test_explicit_sigma_validated(self, table):
        cfg = parse_run_config(dict(BASE_CONFIG, sigma=0.5))
        with pytest.raises(ConfigError, match="sigma"):
            cfg.resolve(table)

    @pytest.mark.parametrize("key,value", [("sigma", 0.0), ("delta", 0.0),
                                           ("delta", -1.0)])
    def test_nonpositive_scale_rejected_by_resolve(self, table, key, value):
        cfg = parse_run_config(dict(BASE_CONFIG, **{key: value}))
        with pytest.raises(ConfigError, match="'%s'" % key):
            cfg.resolve(table)

    def test_scale_must_be_a_number(self):
        with pytest.raises(ConfigError, match="'delta'"):
            parse_run_config(dict(BASE_CONFIG, delta="large"))


_PROVENANCE = "constant C[0.5]: provenance must be one of exact, certified-upper, estimated"


class TestRunCommand:
    def test_archive_and_manifest(self, cli_run):
        tr = m.TraceArchive.load(cli_run)
        man = tr.manifest
        assert man["config"]["N"] == 6
        assert man["delta"] > 0 and man["sigma"] == pytest.approx(0.05)
        assert man["delta_resolution"].startswith("auto")
        assert len(tr.times) == 11

    def test_manifest_names_every_solver_setting(self, tmp_path, table_json):
        # checkpoint_stride was missing from the manifest's config
        cfg = write_config(tmp_path, checkpoint_stride=4)
        out = tmp_path / "ck"
        assert main(["run", cfg, "--out", str(out), "--table", table_json,
                     "--verbosity", "0"]) == EXIT_OK
        man = m.TraceArchive.load(out).manifest
        assert m.SolverConfig(**man["config"]) == load_run_config(cfg).solver
        assert man["seed"] == 5
        assert man["initial"] == {"kind": "random-spectrum", "N": 6,
                                  "params": {"norm_v": 0.3, "norm_b": 0.15}}

    def test_zero_duration(self, tmp_path, table_json):
        cfg = write_config(tmp_path, t_end=0.0)
        out = str(tmp_path / "zd")
        assert main(["run", cfg, "--out", out, "--table", table_json,
                     "--verbosity", "0"]) == EXIT_OK
        tr = m.TraceArchive.load(out)
        assert len(tr.times) == 1

    def test_invalid_s_grid_exit_usage(self, tmp_path, table_json, capsys):
        cfg = write_config(tmp_path, s_grid="abc")
        code = main(["run", cfg, "--out", str(tmp_path / "x"),
                     "--table", table_json])
        assert code == EXIT_USAGE
        assert "s_grid" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"lq_grid": [["a", 1]]}, "field 'lq_grid'"),
        ({"lq_grid": [[None, 1]]}, "field 'lq_grid'"),
        ({"lq_grid": [[True, 1]]}, "field 'lq_grid'"),
        ({"lq_grid": [["4", "1"]]}, "field 'lq_grid'"),
        ({"initial": {"kind": "random-spectrum", "params": {"norm_v": "x"}}},
         "initial.params 'norm_v' must be a number"),
        ({"initial": {"kind": "abc-like", "params": {"A": "x"}}},
         "initial.params 'A' must be a number"),
        ({"initial": {"kind": "single-mode", "params": {"amp_v": [1.0, 0.0, 0.0]}}},
         "initial.params 'n_v' must be a list of 3 numbers, got None"),
        ({"lq_grid": [[0, 1]]}, "field 'lq_grid'"),
        ({"lq_grid": [[0.5, 1]]}, "with q >= 1"),
        ({"initial": {"kind": "random-spectrum", "params": {"norm_V": 0.01}}},
         "unknown initial.params for random-spectrum: norm_V"),
        ({"initial": {"kind": "single-mode",
                      "params": {"n_v": [0, 0, 1.5], "amp_v": [1.0, 0.0, 0.0]}}},
         "initial.params 'n_v' must be 3 integers of size at most N = 6"),
        ({"initial": {"kind": "single-mode",
                      "params": {"n_v": [0, 0, 1], "amp_v": [1.0, 0.0, 0.0],
                                 "amp_b": [1.0, 0.0, 0.0]}}},
         "initial.params 'amp_b' needs a wavevector 'n_b'"),
    ], ids=["lq-string", "lq-null", "lq-bool", "lq-strings", "norm_v-string",
            "abc-string", "single-mode-without-n_v", "lq-q0", "lq-q-half",
            "unknown-param", "fractional-wavevector", "amp_b-without-n_b"])
    def test_malformed_value_is_a_usage_error(self, tmp_path, table_json, capsys,
                                              overrides, message):
        # each of these ended in a ValueError, TypeError, KeyError or
        # ZeroDivisionError (q = 0) traceback, or was accepted: a boolean or
        # string lq_grid entry, an unknown param (norm_V gave ||V|| = 1), a
        # fractional wavevector entry (1.5 built the mode 1) and an amp_b
        # with no n_b
        cfg = write_config(tmp_path, **overrides)
        assert main(["run", cfg, "--out", str(tmp_path / "x"),
                     "--table", table_json]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == EXIT_USAGE

    @pytest.mark.parametrize("text,message", [
        ('{"safety": 2.0, "entries": {"C[0.5]": {"val', "line 1 column"),
        ("[1, 2]", "must be an object"),
        ('{"entries": {"C[0.5]": {"value": "2.5", "provenance": "estimated"}}}',
         "constant C[0.5] must be a positive number"),
        ('{"safety": "x", "entries": {}}', "safety must be a positive number"),
        ('{"entries": {"C[0.5]": {"value": 2.5}}}', _PROVENANCE),
        ('{"entries": {"C[0.5]": {"value": 2.5, "provenance": "guessed"}}}', _PROVENANCE),
    ], ids=["truncated", "not_an_object", "string_value", "string_safety",
            "no_provenance", "unknown_provenance"])
    def test_corrupt_table_is_a_usage_error(self, tmp_path, capsys, text, message):
        # a truncated table used to end in a JSONDecodeError traceback, a
        # non-object one in an AttributeError, a string value or safety
        # factor in a TypeError once a constant is read or estimated; an
        # entry without a valid provenance loaded, and verify died with
        # KeyError: 'provenance' on its first row
        bad = tmp_path / "broken.json"
        bad.write_text(text)
        cfg = write_config(tmp_path)
        assert main(["run", cfg, "--out", str(tmp_path / "x"),
                     "--table", str(bad)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: %s: " % bad)
        assert message in err[0]

    def test_missing_constant_estimated_on_first_read(self, tmp_path, cli_run):
        # delta "auto" reads C_{1/2} and C_1; a table without them estimates
        # them at the default parameters, as build_table does for the session
        # table of cli_run, so the two runs get the same delta bit for bit
        empty = tmp_path / "empty.json"
        empty.write_text('{"entries": {}}')
        out = tmp_path / "x"
        assert main(["run", write_config(tmp_path), "--out", str(out),
                     "--table", str(empty), "--verbosity", "0"]) == EXIT_OK
        delta = m.TraceArchive.load(str(out)).manifest["delta"]
        assert delta == m.TraceArchive.load(cli_run).manifest["delta"]

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_blow_up_exit_code(self, tmp_path, table_json, capsys):
        cfg = write_config(
            tmp_path, dt=1.0, t_end=3.0, delta=None, sigma=None,
            ft_s=[], tilde_s=[], derivative_s=[], wiener_s=[], lq_grid=[],
            initial={"kind": "random-spectrum",
                     "params": {"norm_v": 1e160, "norm_b": 1e160}, "seed": 1})
        out = str(tmp_path / "bu")
        code = main(["run", cfg, "--out", out, "--table", table_json,
                     "--verbosity", "0"])
        assert code == EXIT_BLOWUP
        assert "blow-up" in capsys.readouterr().err
        assert "blowup_t" in m.TraceArchive.load(out).manifest

    def test_convergence_error_exit_code(self, tmp_path, table_json, capsys,
                                         monkeypatch):
        def stalled(V, B, delta):
            raise ConvergenceError("Phi bisection stalled")

        monkeypatch.setattr(importlib.import_module("mhdgevrey.transform"),
                            "solve_phi", stalled)
        cfg = write_config(tmp_path)
        code = main(["run", cfg, "--out", str(tmp_path / "cv"),
                     "--table", table_json, "--verbosity", "0"])
        assert code == EXIT_CONVERGENCE
        assert "stalled" in capsys.readouterr().err

    def test_no_outdir_anywhere(self, tmp_path, table_json, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", cfg, "--table", table_json]) == EXIT_USAGE
        assert "output directory" in capsys.readouterr().err


class TestVerifyCommand:
    def test_full_sweep_passes(self, cli_run, table_json, capsys):
        code = main(["verify", cli_run, "--table", table_json,
                     "--s", "2.0", "1.0", "0.0", "-1.0", "-3.0"])
        assert code == EXIT_OK
        report = json.loads((m.TraceArchive.load(cli_run).root
                             / "report.json").read_text())
        assert report
        assert all(r["verdict"] in ("pass", "vacuous", "informational")
                   for r in report)
        ids = {r["id"] for r in report}
        assert "B29" in ids and "B36_1" in ids and "P40" in ids

    def test_negative_q_rows_are_informational(self, cli_run, table_json, tmp_path,
                                               capsys, monkeypatch):
        # sqrt(Q) in the rhs chains is undefined at Q < 0: each row that reads
        # Q is reported, informational, and the command exits normally
        bounds = importlib.import_module("mhdgevrey.bounds")
        monkeypatch.setattr(bounds._Window, "Q", property(lambda self: -1.0))
        ids = ["B32_1", "B32_3", "COR51", "B36_1", "B36_2", "B36_3", "B36_4"]
        code = main(["verify", cli_run, "--table", table_json, "--bounds", *ids,
                     "--s", "2", "1", "0", "-1", "-3", "--out", str(tmp_path / "r.json")])
        assert code == EXIT_OK

        def not_json(token):
            raise ValueError("%s is not JSON" % token)

        # rhs = 0 < lhs: the infinite ratio is written as null, with the reason
        report = json.loads((tmp_path / "r.json").read_text(), parse_constant=not_json)
        assert {r["id"] for r in report} == set(ids)
        for r in report:
            assert r["verdict"] == "informational" and r["rhs"] == 0.0
            assert "Q < 0" in r["note"] and "overflow" not in r["note"]
            assert r["ratio"] is None and "ratio = inf written as null" in r["note"]
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert "ratio=inf" in out  # the printed line keeps the value

    def test_unknown_bound_id_lists_valid(self, cli_run, table_json, capsys):
        code = main(["verify", cli_run, "--table", table_json,
                     "--bounds", "B99", "--s", "1.0"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "unknown bound ids: B99" in err
        assert "B32_1" in err

    def test_no_applicable_pairs(self, cli_run, table_json, capsys):
        code = main(["verify", cli_run, "--table", table_json,
                     "--bounds", "B19"])  # B19 needs an s value
        assert code == EXIT_USAGE
        assert "no applicable" in capsys.readouterr().err

    def test_corrupted_trace_fails_bounds(self, cli_run, tmp_path, table_json,
                                          capsys):
        import shutil

        bad = tmp_path / "corrupt"
        shutil.copytree(cli_run, bad)
        with open(bad / "series.csv", newline="") as f:
            rows = list(csv.reader(f))
        head = rows[0]
        cols = [i for i, c in enumerate(head)
                if c.startswith(("dv_", "db_"))]
        for r in rows[1:]:
            for i in cols:
                r[i] = repr(float(r[i]) * 1e30)
        with open(bad / "series.csv", "w", newline="") as f:
            csv.writer(f).writerows(rows)
        code = main(["verify", str(bad), "--table", table_json,
                     "--bounds", "B36_1", "--s", "0.0"])
        assert code == EXIT_BOUND_FAILURE
        report = json.loads((bad / "report.json").read_text())
        assert any(r["verdict"] == "fail" for r in report)

    def test_archive_without_checkpoints(self, cli_run, tmp_path, table_json):
        import shutil

        bare = tmp_path / "bare"
        shutil.copytree(cli_run, bare)
        shutil.rmtree(bare / "checkpoints")
        code = main(["verify", str(bare), "--table", table_json,
                     "--s", "1", "-1"])
        assert code == EXIT_OK
        ids = {r["id"] for r in json.loads((bare / "report.json").read_text())}
        assert ids and not ids & set(POINTWISE_IDS)

    def test_checkpoints_loaded_once(self, cli_run, tmp_path, table_json,
                                     monkeypatch):
        loads = []
        real = m.TraceArchive.checkpoints
        monkeypatch.setattr(m.TraceArchive, "checkpoints",
                            lambda self: loads.append(1) or real(self))
        code = main(["verify", cli_run, "--table", table_json,
                     "--out", str(tmp_path / "report.json"),
                     "--s", "1.0", "0.0"])
        assert code == EXIT_OK
        assert len(loads) == 1

    def test_each_pair_reported_once(self, cli_run, tmp_path, table_json):
        out = tmp_path / "report.json"
        code = main(["verify", cli_run, "--table", table_json, "--out", str(out),
                     "--s", "2", "1", "0", "-1", "-3"])
        assert code == EXIT_OK
        pairs = [(r["id"], r["s"]) for r in json.loads(out.read_text())]
        assert len(pairs) == len(set(pairs))
        for id in ("B29", "P40", "P51", "LIP47", "RAD"):
            assert [p[0] for p in pairs].count(id) == 1
        assert sorted(s for id, s in pairs if id == "FGT") == [1.0, 2.0]

    def test_one_nonlinear_evaluation_per_checkpoint(self, cli_run, tmp_path,
                                                     table_json, monkeypatch):
        solver = importlib.import_module("mhdgevrey.solver")
        calls = []
        real = solver.nonlinear_rhs_fast
        monkeypatch.setattr(solver, "nonlinear_rhs_fast",
                            lambda state: calls.append(state.t) or real(state))
        code = main(["verify", cli_run, "--table", table_json,
                     "--out", str(tmp_path / "report.json"),
                     "--s", "2", "1", "0", "-1", "-3"])
        assert code == EXIT_OK
        assert calls == [st.t for st in m.TraceArchive.load(cli_run).checkpoints()]

    def test_p51_p52_ratios_match_standard_sweep(self, tmp_path, table_json):
        # Both hold every checkpoint to the P51/P52 constant of the run's
        # initial energy; with per-checkpoint energies verify reported
        # P51 4.777e-5 against 4.617e-5 on this run.
        cfg = write_config(tmp_path, t_end=0.2, output_stride=10,
                           checkpoint_stride=50)
        out = str(tmp_path / "archive")
        assert main(["run", cfg, "--out", out, "--table", table_json,
                     "--verbosity", "0"]) == EXIT_OK
        trace = m.TraceArchive.load(out)
        assert len(trace.checkpoint_paths()) == 5
        assert main(["verify", out, "--bounds", "P51", "P52", "--s", "-4",
                     "--table", table_json]) == EXIT_OK
        got = {r["id"]: r["ratio"]
               for r in json.loads((trace.root / "report.json").read_text())}
        sweep = {r.id: r.ratio for r in m.standard_sweep(
            trace, m.ConstantsTable.from_json(table_json))}
        assert got["P51"] == pytest.approx(sweep["P51"], rel=1e-12)
        assert got["P52"] == pytest.approx(sweep["P52"], rel=1e-12)

    def test_each_requested_pair_reported_or_skipped(self, cli_run, tmp_path,
                                                     table_json, capsys):
        out = tmp_path / "report.json"
        s_values = [2.0, 1.0, 0.0, -1.0, -3.0]
        capsys.readouterr()
        code = main(["verify", cli_run, "--table", table_json, "--out", str(out),
                     "--s"] + [repr(s) for s in s_values])
        assert code == EXIT_OK
        seen = [(r["id"], None if BOUNDS[r["id"]].fixed_s is not None else r["s"])
                for r in json.loads(out.read_text())]
        skips = _skip_lines(capsys.readouterr().out)
        assert all(reason for _, _, reason in skips)
        seen += [(id, None if s == "-" else float(s)) for id, s, _ in skips]
        requested = [(id, s) for id, b in BOUNDS.items()
                     for s in ([None] if b.fixed_s is not None else s_values)]
        assert sorted(seen, key=repr) == sorted(requested, key=repr)

    @pytest.mark.parametrize("id,ends", [
        ("B19", (0.5, 1.0)), ("B32_1", (1.0,)), ("B32_2", (0.0, 1.0)),
        ("B32_3", (-0.5,)), ("COR51", (0.25,)), ("B36_1", (-0.5,)),
        ("B36_2", (-2.5, -0.5)), ("B36_3", (-2.5,)), ("B36_4", (-2.0,)),
        ("P42", (-2.5, -0.5)), ("P44", (-1.0,)), ("P52", (-3.5,)),
        ("FGT", (1.0,)),
    ])
    def test_domain_boundaries(self, cli_run, tmp_path, table_json, capsys,
                               id, ends):
        # s at each endpoint of the bound's domain and 1e-9 on either side:
        # the checks raise DomainError exactly where the registry's domain
        # predicate is false (COR51 at p = 4), and verify skips exactly those
        # pairs, giving the domain as the reason.
        bound = BOUNDS[id]
        grid = [e + d for e in ends for d in (-1e-9, 0.0, 1e-9)]
        outside = [s for s in grid if not bound.domain(s, 4.0)]
        assert 0 < len(outside) < len(grid)
        trace = m.TraceArchive.load(cli_run)
        table = m.ConstantsTable.from_json(table_json)
        state = trace.checkpoints()[0]
        for s in grid:
            try:
                if bound.pointwise:
                    verify_pointwise(id, state, table, delta=trace.manifest["delta"], s=s)
                else:
                    verify_integral(id, trace, s, float(trace.times[-1]), table, p=4.0)
                raised = False
            except DomainError:
                raised = True
            except TraceError:  # in the domain, but no column stored at this s
                raised = False
            assert raised == (s in outside), s
        table.to_json(tmp_path / "table.json")
        capsys.readouterr()
        main(["verify", cli_run, "--table", str(tmp_path / "table.json"),
              "--out", str(tmp_path / "report.json"), "--bounds", id,
              "--s"] + ["%.12f" % s for s in grid])
        skipped = [s for _, s, reason in _skip_lines(capsys.readouterr().out)
                   if reason == bound.domain_msg]
        assert skipped == ["%.12g" % s for s in outside]

    def test_norm_index_keeps_its_digits(self, cli_run, tmp_path, table_json, capsys):
        # s = 2.000000001 has no stored column; it used to read the s = 2 ones
        trace = m.TraceArchive.load(cli_run)
        with pytest.raises(TraceError, match="v_s2.000000001"):
            verify_integral("B32_1", trace, 2.000000001, float(trace.times[-1]),
                            m.ConstantsTable.from_json(table_json))
        capsys.readouterr()
        out = tmp_path / "report.json"
        main(["verify", cli_run, "--table", table_json, "--out", str(out),
              "--bounds", "B32_1", "--s", "2.000000001", "2"])
        assert _skip_lines(capsys.readouterr().out) == [
            ("B32_1", "2.000000001", "trace has no column 'v_s2.000000001'")]
        assert [r["s"] for r in json.loads(out.read_text())] == [2.0]

    def test_b19_on_zero_initial_data(self, tmp_path, table_json):
        # q_s = 0 for zero data; B19 used to divide by it and crash
        zero = {"kind": "single-mode",
                "params": {"n_v": [0, 0, 1], "amp_v": [0.0, 0.0, 0.0], "n_b": None}}
        out = str(tmp_path / "archive")
        assert main(["run", write_config(tmp_path, N=3, initial=zero, ft_s=[1.0]),
                     "--out", out, "--table", table_json,
                     "--verbosity", "0"]) == EXIT_OK
        assert main(["verify", out, "--table", table_json,
                     "--bounds", "B19", "--s", "1"]) == EXIT_OK
        [rep] = json.loads((tmp_path / "archive" / "report.json").read_text())
        assert (rep["id"], rep["verdict"], rep["rhs"]) == ("B19", "vacuous", 0.0)

    def test_archive_without_sigma(self, tmp_path, table_json, capsys):
        # B19 needs the growth rate sigma; verify used to crash on KeyError.
        out = str(tmp_path / "archive")
        assert main(["run", write_config(tmp_path, drop=["sigma"], ft_s=[]),
                     "--out", out, "--table", table_json,
                     "--verbosity", "0"]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", out, "--table", table_json,
                     "--s", "1.0", "0.0"]) == EXIT_OK
        skips = _skip_lines(capsys.readouterr().out)
        assert ("B19", "1", "B19 needs the growth rate sigma") in skips
        ids = {r["id"] for r in json.loads((tmp_path / "archive" / "report.json").read_text())}
        assert "B19" not in ids and {"B29", "P40"} <= ids
        trace = m.TraceArchive.load(out)
        with pytest.raises(DomainError, match="sigma"):
            verify_integral("B19", trace, 1.0, float(trace.times[-1]),
                            m.ConstantsTable.from_json(table_json))

    def test_zero_delta_archive_skips_delta_bounds(self, tmp_path, table_json, capsys):
        # delta = 0 used to reach the rhs chains: B32_1, B36_1 and COR51 died
        # with a ZeroDivisionError traceback, B32_3 and B36_4 with a
        # DomainError from lattice_constant partway through the run
        st = m.make_initial("random-spectrum", {"norm_v": 0.3, "norm_b": 0.15},
                            N=4, seed=1, nu=0.1, eta=0.1)
        cfg = m.SolverConfig(N=4, nu=0.1, eta=0.1, dt=1e-3, t_end=0.004,
                             output_stride=2, scheme="integrating-factor-RK2")
        out = tmp_path / "archive"
        m.simulate(cfg, st, out, diagnostics=full_diagnostics(0.0),
                   manifest_extra={"delta": 0.0})
        capsys.readouterr()
        ids = ["B32_1", "B36_1", "COR51", "B32_3", "B36_4", "B32_2"]
        assert main(["verify", str(out), "--table", table_json,
                     "--bounds"] + ids + ["--s", "2", "1", "0"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and captured.err == ""
        skips = _skip_lines(captured.out)
        assert [(id, s) for id, s, reason in skips if reason == "delta must be positive"] \
            == [(id, s) for id in ids[:-1] for s in ("2", "1", "0")]
        assert [r["id"] for r in json.loads((out / "report.json").read_text())] == ["B32_2"]

    def test_archive_without_delta(self, tmp_path, table_json, capsys):
        # B29 and the Q-based bounds need the weight scale delta; verify used
        # to crash on KeyError.
        out = str(tmp_path / "archive")
        assert main(["run", write_config(tmp_path, drop=["delta"], tilde_s=[]),
                     "--out", out, "--table", table_json,
                     "--verbosity", "0"]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", out, "--table", table_json,
                     "--s", "1.0", "0.0"]) == EXIT_OK
        skips = {(id, s): reason for id, s, reason in _skip_lines(capsys.readouterr().out)}
        for id, s in [("B29", "-"), ("B32_3", "1"), ("B36_1", "0"), ("P40", "-")]:
            assert skips[(id, s)] == "%s needs the weight scale delta" % id
        ids = {r["id"] for r in json.loads((tmp_path / "archive" / "report.json").read_text())}
        assert {"B19", "B32_2", "P44", "P51"} <= ids and "B29" not in ids
        trace = m.TraceArchive.load(out)
        with pytest.raises(DomainError, match="delta"):
            verify_integral("B29", trace, None, float(trace.times[-1]),
                            m.ConstantsTable.from_json(table_json))

    @pytest.mark.parametrize("sigma", [0.5, -0.05])
    def test_sigma_outside_its_domain(self, cli_run, tmp_path, table_json, capsys,
                                      sigma):
        # sigma >= min(nu, eta) = 0.1 used to abort the whole verify with
        # "gamma must be positive" and no rows; sigma < 0 gave B19 a pass.
        import shutil

        bad = tmp_path / "archive"
        shutil.copytree(cli_run, bad)
        man = json.loads((bad / "manifest.json").read_text())
        man["sigma"] = sigma
        (bad / "manifest.json").write_text(json.dumps(man))
        capsys.readouterr()
        assert main(["verify", str(bad), "--table", table_json,
                     "--bounds", "B19", "FGT", "B29", "--s", "1"]) == EXIT_OK
        reason = "sigma must lie in (0, min(nu, eta))"
        assert _skip_lines(capsys.readouterr().out) == [("B19", "1", reason),
                                                        ("FGT", "1", reason)]
        assert [r["id"] for r in json.loads((bad / "report.json").read_text())] == ["B29"]

    def test_T_past_the_archive_skips_integral_bounds(self, cli_run, tmp_path,
                                                      table_json, capsys):
        # the archive ends at t = 0.02; T = 1000 used to be checked as if it
        # were covered, against an rhs grown with T - t0 = 1000
        out = tmp_path / "report.json"
        capsys.readouterr()
        assert main(["verify", cli_run, "--table", table_json, "--out", str(out),
                     "--T", "1000", "--s", "2", "1", "0", "-1", "-3"]) == EXIT_OK
        skips = _skip_lines(capsys.readouterr().out)
        covered = [(id, s) for id, s, reason in skips
                   if reason == "trace does not cover [t0, T]"]
        assert {id for id, _ in covered} == set(BOUNDS) - set(POINTWISE_IDS)
        assert {r["id"] for r in json.loads(out.read_text())} <= set(POINTWISE_IDS)

    def test_T_inside_the_archive_reads_earlier_checkpoints(self, cli_run, tmp_path,
                                                            table_json):
        # every pointwise row comes from a checkpoint at or before T; P44
        # used to be reported from the last checkpoint of the archive
        out = tmp_path / "report.json"
        assert main(["verify", cli_run, "--table", table_json, "--out", str(out),
                     "--T", "0.01", "--s", "0"]) == EXIT_OK
        rows = json.loads(out.read_text())
        assert "P44" in {r["id"] for r in rows}
        assert all(r["T"] <= 0.01 + 1e-12 for r in rows), [(r["id"], r["T"]) for r in rows]
        assert main(["verify", cli_run, "--table", table_json, "--out", str(out),
                     "--T", "-1", "--s", "0"]) == EXIT_USAGE

    def test_missing_trace(self, tmp_path, table_json):
        assert main(["verify", str(tmp_path / "ghost"),
                     "--table", table_json]) == EXIT_USAGE

    @pytest.mark.parametrize("damage", ["row_cut_short", "header_only"])
    def test_damaged_series_is_a_usage_error(self, cli_run, tmp_path, table_json,
                                             capsys, damage):
        # append flushes one row at a time, so a run killed mid-row leaves a
        # short last line: loading it ended in numpy's "inhomogeneous shape"
        # ValueError, and a series with no row in an IndexError at times[-1]
        import shutil

        bad = tmp_path / "damaged"
        shutil.copytree(cli_run, bad)
        lines = (bad / "series.csv").read_text().splitlines()
        if damage == "row_cut_short":
            lines[-1] = ",".join(lines[-1].split(",")[:3])
            message = "series.csv line %d: 3 fields where the header has %d" % (
                len(lines), len(lines[0].split(",")))
        else:
            lines = lines[:1]
            message = "series.csv holds no sample"
        (bad / "series.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", str(bad), "--table", table_json]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert message in err[0]

    @pytest.mark.parametrize("text,message", [
        ('{"config": {"nu": 0.1, "et', "line 1 column"),
        ("[1, 2]", "not an object whose config holds positive numbers nu and eta"),
        ('{"config": {"eta": 0.1}}',
         "not an object whose config holds positive numbers nu and eta"),
    ], ids=["cut", "not_an_object", "no_nu"])
    def test_damaged_manifest_is_a_usage_error(self, cli_run, tmp_path, table_json,
                                               capsys, text, message):
        # verify ended in a JSONDecodeError, AttributeError or KeyError traceback
        import shutil

        bad = tmp_path / "damaged"
        shutil.copytree(cli_run, bad)
        (bad / "manifest.json").write_text(text)
        with pytest.raises(TraceError, match="manifest.json"):
            m.TraceArchive.load(bad)
        capsys.readouterr()
        assert main(["verify", str(bad), "--table", table_json]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

    @pytest.mark.parametrize("flag,value", [("--s", "inf"), ("--s", "nan"),
                                            ("--p", "inf"), ("--T", "nan")])
    def test_non_finite_flag_is_rejected(self, cli_run, tmp_path, table_json, capsys,
                                         flag, value):
        # --s inf ended in a ValueError from the strict report dump
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["verify", cli_run, "--table", table_json, "--out", str(out),
                  "--bounds", "P44", flag, value])
        assert exc.value.code == 2
        assert "argument %s: %r is not a finite number" % (flag, value) \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_index_is_informational(self, cli_run, tmp_path, table_json):
        # 2^(s+1) in C~_s raised OverflowError at s = 1e308, and the square in
        # C_tripleprime did at s = 700; s = 400 was already informational
        out = tmp_path / "report.json"
        assert main(["verify", cli_run, "--table", table_json, "--out", str(out),
                     "--bounds", "P44", "--s", "400", "700", "1e308"]) == EXIT_OK
        rows = json.loads(out.read_text())
        assert [r["s"] for r in rows] == [400.0, 700.0, 1e308]
        for r in rows:
            assert r["verdict"] == "informational" and "rhs not finite" in r["note"]

    def test_table_with_estimation_meta_still_loads(self, cli_run, tmp_path, table,
                                                    table_json, monkeypatch):
        # the format written before each estimated entry recorded its trial
        # count: the estimation parameters sat apart, in meta.estimation
        entries = {k: {"value": e["value"], "provenance": e["provenance"]}
                   for k, e in table.entries.items()}
        meta = {"estimation": {k: {"resolution": 16, "trials": 24, "seed": 0,
                                   "safety": 2.0}
                               for k, e in entries.items()
                               if e["provenance"] == "estimated"}}
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"safety": 2.0, "entries": entries, "meta": meta}))
        t = m.ConstantsTable.from_json(old)
        assert t.entries == entries
        reports = []
        for path in (str(old), table_json):
            out = tmp_path / "report.json"
            assert main(["verify", cli_run, "--table", path, "--bounds", "B19", "B29",
                         "--s", "1", "--out", str(out)]) == EXIT_OK
            reports.append(json.loads(out.read_text()))
        assert reports[0] and reports[0] == reports[1]
        # meta is ignored: a re-estimate doubles the default of 24 trials
        constants = importlib.import_module("mhdgevrey.constants")
        asked = []
        monkeypatch.setattr(constants, "estimate_Cs",
                            lambda s, trials, safety: asked.append(trials) or 1.0)
        t.reestimate("C[0.5]")
        assert asked == [48] and t.entries["C[0.5]"]["trials"] == 48
        assert t.C(0.5) == table.C(0.5)


def _skip_lines(out):
    """(id, s, reason) of every skip line that verify printed."""
    return re.findall(r"^skip (\S+) s=(\S+): (.*)$", out, re.M)


class TestConstantsCommand:
    def test_deterministic(self, tmp_path, capsys):
        args = ["constants", "--s", "0.5", "--cp", "2.0", "--trials", "6"]
        assert main(args + ["--out", str(tmp_path / "a.json")]) == EXIT_OK
        assert main(args + ["--out", str(tmp_path / "b.json")]) == EXIT_OK
        a = (tmp_path / "a.json").read_text()
        assert a == (tmp_path / "b.json").read_text()
        snap = json.loads(a)
        assert snap["entries"]["C[0.5]"]["provenance"] == "estimated"
        assert snap["entries"]["c[2.0]"]["provenance"] == "certified-upper"

    def test_out_of_domain_s(self, capsys):
        assert main(["constants", "--s", "1.5"]) == EXIT_USAGE

    @pytest.mark.parametrize("flag,value", [("--trials", "-1")])
    def test_bad_estimator_arguments(self, tmp_path, capsys, flag, value):
        # rejected before any estimate runs, so no table is written
        out = tmp_path / "t.json"
        assert main(["constants", "--s", "0.5", flag, value,
                     "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "0", "inf", "nan"])
    def test_bad_safety(self, tmp_path, capsys, value):
        # rejected as the arguments are parsed (argparse's exit 2), before
        # any estimate, so no table with a bad factor or value is written
        out = tmp_path / "t.json"
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--s", "0.5", "--safety", value, "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --safety: safety must be a positive number" in capsys.readouterr().err
        assert not out.exists()

    def test_table_near_three_halves_is_strict_json(self, tmp_path, capsys):
        # the estimate near s = 3/2 is finite, so the table has no Infinity token
        def reject(token):
            raise ValueError("not JSON: %s" % token)

        out = tmp_path / "t.json"
        assert main(["constants", "--s", "1.499999999", "--trials", "0",
                     "--out", str(out)]) == EXIT_OK
        snap = json.loads(out.read_text(), parse_constant=reject)
        assert math.isfinite(snap["entries"]["C[1.499999999]"]["value"])


class TestSpectrumCommand:
    def test_constructed_decay_rate(self, tmp_path, capsys):
        N = 32
        g = geometry(N)
        c = np.zeros((2 * N + 1,) * 3 + (3,), dtype=complex)
        for n, a in zip(g.modes, g.absn):
            c[tuple(n + N)] = math.exp(-0.5 * a)
        c = 0.5 * (c + np.conj(c[::-1, ::-1, ::-1]))
        w = m.project_solenoidal(SpectralField(N, c[tuple((g.modes + N).T)]))
        st = m.MhdState(V=w, B=w, nu=0.1, eta=0.1)
        path = tmp_path / "ck.bin"
        checkpoint_save(st, path)
        assert main(["spectrum", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        fits = [float(line.split("sigma_fit=")[1].split()[0])
                for line in out.splitlines() if "sigma_fit=" in line]
        assert len(fits) == 2
        for f in fits:
            assert f == pytest.approx(0.5, abs=0.01)

    def test_missing_checkpoint(self, tmp_path):
        assert main(["spectrum", str(tmp_path / "no.bin")]) == EXIT_USAGE

    @pytest.mark.parametrize("argv, message", [
        ([], "error: insufficient spectral range: the ball of radius 5 has too few shells"),
    ], ids=["default-window"])
    def test_unusable_fit_window(self, tmp_path, capsys, argv, message):
        st = m.make_initial("random-spectrum", {}, N=5, seed=1, nu=0.1, eta=0.1)
        path = tmp_path / "ck.bin"
        checkpoint_save(st, path)
        assert main(["spectrum", str(path)] + argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestCompareCommand:
    def test_identical_resolutions_zero_psi(self, tmp_path, table_json):
        cfg = write_config(tmp_path, t_end=0.01)
        out = tmp_path / "cmp"
        code = main(["compare", cfg, "--N", "5", "5", "--out", str(out),
                     "--table", table_json])
        assert code == EXIT_OK
        path = out / "psi_N005_N005.csv"
        with open(path, newline="") as f:
            rows = list(csv.reader(f))[1:]
        assert rows
        assert all(float(psi) == 0.0 for _, psi in rows)

    def test_nested_resolutions_positive_psi(self, tmp_path, table_json):
        cfg = write_config(tmp_path, t_end=0.01)
        out = tmp_path / "cmp2"
        code = main(["compare", cfg, "--N", "4", "6", "--out", str(out),
                     "--table", table_json])
        assert code == EXIT_OK
        with open(out / "psi_N004_N006.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        assert max(float(psi) for _, psi in rows) > 0.0

    def test_nested_random_runs_start_from_one_state(self, tmp_path,
                                                     table_json):
        # The random initial state is drawn once, at the smallest N, and
        # zero-padded: psi(0) is exactly 0, not the distance between two
        # independent draws.
        cfg = write_config(tmp_path, t_end=0.004)
        out = tmp_path / "cmp3"
        code = main(["compare", cfg, "--N", "4", "6", "--out", str(out),
                     "--table", table_json])
        assert code == EXIT_OK
        with open(out / "psi_N004_N006.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == 0.0

    def test_manifests_name_seed_initial_data_and_notes(self, tmp_path, table_json):
        # a compare archive recorded only config, delta, sigma, t0 and
        # version: not the data it was run from
        cfg = write_config(tmp_path, t_end=0.004)
        out = tmp_path / "cmp4"
        assert main(["compare", cfg, "--N", "4", "6", "--out", str(out),
                     "--table", table_json]) == EXIT_OK
        for N in (4, 6):
            man = m.TraceArchive.load(out / ("N%03d" % N)).manifest
            assert man["config"]["N"] == N
            assert man["seed"] == 5
            # both states are the one drawn at the smallest N
            assert man["initial"] == {"kind": "random-spectrum", "N": 4,
                                      "params": {"norm_v": 0.3, "norm_b": 0.15}}
            assert man["delta_resolution"].startswith("auto")
            assert man["sigma_resolution"].startswith("auto")


class TestDemoWorkflow:
    def test_demo_runs_end_to_end(self, tmp_path, monkeypatch):
        # scripts/demo_workflow.py, the walkthrough the README advertises
        path = Path(__file__).resolve().parents[1] / "scripts" / "demo_workflow.py"
        spec = importlib.util.spec_from_file_location("demo_workflow", path)
        demo = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(demo)
        codes = []

        def recording(argv):
            codes.append((argv[0], main(argv)))
            return codes[-1][1]

        monkeypatch.setattr(demo, "main", recording)
        demo.demo(tmp_path)
        assert codes == [(c, EXIT_OK) for c in
                         ("constants", "run", "verify", "spectrum", "compare")]
        report = json.loads((tmp_path / "trace" / "report.json").read_text())
        assert report and "fail" not in {r["verdict"] for r in report}

    def test_readme_examples_parse(self):
        # every command line of the README's usage block, parsed as the
        # entry point parses it: a flag the README uses and the parser
        # lacks fails here
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command-line usage", 1)[1].split("```sh\n", 1)[1]
        lines = [ln for ln in block.split("```", 1)[0].splitlines()
                 if ln.startswith("mhdgevrey ")]
        parser = build_parser()
        commands = [parser.parse_args(shlex.split(ln)[1:]).command for ln in lines]
        assert commands == ["constants", "run", "verify", "spectrum", "compare"]
