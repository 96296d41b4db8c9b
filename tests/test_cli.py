"""Command-line surface: exit codes, reports and config validation."""

import csv
import importlib
import json
import math

import numpy as np
import pytest

import mhdgevrey as m
from mhdgevrey.archive import checkpoint_save
from mhdgevrey.cli import (
    EXIT_BLOWUP,
    EXIT_BOUND_FAILURE,
    EXIT_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from mhdgevrey.config import load_run_config, parse_run_config
from mhdgevrey.errors import ConfigError, ConvergenceError
from mhdgevrey.spectral import SpectralField, geometry


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


def write_config(tmp_path, name="run.json", **overrides):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc.update(overrides)
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

    def test_auto_scales_resolve(self, table):
        cfg = parse_run_config(dict(BASE_CONFIG))
        delta, sigma, notes = cfg.resolve(table)
        assert delta == pytest.approx(0.9 * m.delta_max(table, 0.1, 0.1))
        assert sigma == pytest.approx(0.05)
        assert "delta_resolution" in notes and "sigma_resolution" in notes

    def test_explicit_sigma_validated(self, table):
        cfg = parse_run_config(dict(BASE_CONFIG, sigma=0.5))
        with pytest.raises(ConfigError, match="sigma"):
            cfg.resolve(table)


class TestRunCommand:
    def test_archive_and_manifest(self, cli_run):
        tr = m.TraceArchive.load(cli_run)
        man = tr.manifest
        assert man["config"]["N"] == 6
        assert man["delta"] > 0 and man["sigma"] == pytest.approx(0.05)
        assert man["delta_resolution"].startswith("auto")
        assert len(tr.times) == 11

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

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == EXIT_USAGE

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

    def test_missing_trace(self, tmp_path, table_json):
        assert main(["verify", str(tmp_path / "ghost"),
                     "--table", table_json]) == EXIT_USAGE


class TestConstantsCommand:
    def test_deterministic_per_seed(self, tmp_path, capsys):
        args = ["constants", "--s", "0.5", "--cp", "2.0", "--seed", "3",
                "--trials", "6"]
        assert main(args + ["--out", str(tmp_path / "a.json")]) == EXIT_OK
        assert main(args + ["--out", str(tmp_path / "b.json")]) == EXIT_OK
        a = (tmp_path / "a.json").read_text()
        assert a == (tmp_path / "b.json").read_text()
        snap = json.loads(a)
        assert snap["entries"]["C[0.5]"]["provenance"] == "estimated"
        assert snap["entries"]["c[2.0]"]["provenance"] == "certified-upper"

    def test_out_of_domain_s(self, capsys):
        assert main(["constants", "--s", "1.5"]) == EXIT_USAGE


class TestSpectrumCommand:
    def test_constructed_decay_rate(self, tmp_path, capsys):
        N = 32
        g = geometry(N)
        c = np.zeros((g.size, g.size, g.size, 3), dtype=complex)
        for n, a in zip(g.modes, g.absn):
            c[tuple(n + N)] = math.exp(-0.5 * a)
        c = 0.5 * (c + np.conj(c[::-1, ::-1, ::-1]))
        w = m.project_solenoidal(SpectralField(N, c))
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
