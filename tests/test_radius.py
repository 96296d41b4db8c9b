"""Decay-rate fitting, regularity interval covers and resolution comparison."""

import math

import numpy as np
import pytest

import mhdgevrey as m
from mhdgevrey.errors import DomainError, TraceError
from mhdgevrey.radius import (
    IntervalCover,
    RadiusEstimate,
    decay_fit,
    default_fit_shells,
    guaranteed_intervals,
    lipschitz_check,
    radius_check,
    two_resolution_psi,
)
from mhdgevrey.spectral import SpectralField, geometry
from mhdgevrey.solver import SolverConfig, make_initial, simulate

from conftest import full_diagnostics, random_field


def constructed_field(N, profile):
    """Solenoidal field whose shell amplitudes follow profile(|n|) exactly."""
    g = geometry(N)
    c = np.zeros((2 * N + 1,) * 3 + (3,), dtype=complex)
    for n, a in zip(g.modes, g.absn):
        c[tuple(n + N)] = profile(a)
    c = 0.5 * (c + np.conj(c[::-1, ::-1, ::-1]))
    return m.project_solenoidal(SpectralField(N, c[tuple((g.modes + N).T)]))


class TestDecayFit:
    def test_pure_exponential_recovered(self):
        w = constructed_field(32, lambda a: math.exp(-0.5 * a))
        est = decay_fit(w)
        assert est.sigma_fit == pytest.approx(0.5, abs=0.01)

    def test_white_spectrum_fits_zero(self):
        w = constructed_field(16, lambda a: 1.0)
        est = decay_fit(w)
        assert est.sigma_fit == pytest.approx(0.0, abs=0.02)

    def test_algebraic_prefactor_tolerated(self):
        # |n|^2 e^{-0.3|n|} on shells 10..30: the log-linear fit absorbs the
        # power as a shallower slope, roughly 0.3 - 2 ln(30/10)/(30-10)
        w = constructed_field(32, lambda a: a**2 * math.exp(-0.3 * a))
        est = decay_fit(w, 10, 30)
        expected = 0.3 - 2.0 * math.log(3.0) / 20.0
        assert est.sigma_fit == pytest.approx(expected, abs=0.03)
        assert est.sigma_fit < 0.3

    def test_default_window(self):
        assert default_fit_shells(32) == (8, 24)
        assert default_fit_shells(8) == (3, 6)

    def test_insufficient_range(self):
        w = m.SpectralField.from_modes(
            16, {(0, 0, 1): 0.5 * np.array([1.0, 0.0, 0.0])},
            add_conjugates=True)
        with pytest.raises(DomainError, match="insufficient spectral range"):
            decay_fit(w)

    def test_bad_window_rejected(self):
        w = random_field(8, 0)
        with pytest.raises(DomainError):
            decay_fit(w, 5, 5)
        with pytest.raises(DomainError):
            decay_fit(w, 3, 12)

    def test_estimate_validation(self):
        with pytest.raises(DomainError):
            RadiusEstimate(sigma_fit=-0.1, fit_range=(3, 6), residual=0.0)
        with pytest.raises(DomainError):
            RadiusEstimate(sigma_fit=0.1, fit_range=(6, 3), residual=0.0)


class TestRadiusCheck:
    def test_margins_nonnegative_on_smooth_run(self, random_trace, delta_std):
        # N = 6 leaves only two default fit shells; widen the window
        rows = radius_check(random_trace, delta_std, m_lo=2, m_hi=6)
        assert len(rows) == len(random_trace.checkpoint_paths())
        for r in rows:
            assert not r["flagged"]
            assert r["margin"] >= 0.0
            assert r["lower_bound"] > 0.0

    def test_empty_spectrum_flagged_not_raised(self, tmp_path, delta_std):
        z = m.SpectralField.zeros(8)
        st = m.MhdState(V=z, B=z, nu=0.1, eta=0.1)
        cfg = SolverConfig(N=8, nu=0.1, eta=0.1, dt=1e-3, t_end=0.002)
        tr = simulate(cfg, st, tmp_path / "flagged",
                      diagnostics=full_diagnostics(delta_std))
        rows = radius_check(tr, delta_std)
        assert rows
        assert all(r["flagged"] for r in rows)
        assert all(math.isnan(r["sigma_fit"]) for r in rows)


class TestGuaranteedIntervals:
    @pytest.fixture(scope="class")
    @staticmethod
    def tiny_trace(tmp_path_factory, delta_std):
        # small data so t_star exceeds the run length and coverage is full
        st = make_initial("random-spectrum",
                          {"norm_v": 0.01, "norm_b": 0.005}, N=6, seed=7,
                          nu=0.1, eta=0.1)
        cfg = SolverConfig(N=6, nu=0.1, eta=0.1, dt=1e-3, t_end=0.02,
                           output_stride=2,
                           scheme="integrating-factor-RK2")
        out = tmp_path_factory.mktemp("tiny")
        return simulate(cfg, st, out, diagnostics=full_diagnostics(delta_std),
                        manifest_extra={"sigma": 0.05})

    def test_full_coverage_for_small_data(self, tiny_trace, table):
        cover = guaranteed_intervals(tiny_trace, 1.0, table)
        assert cover.coverage == pytest.approx(1.0)
        assert all(star > 0 for star in cover.t_star)

    def test_envelope_checked_without_violations(self, tiny_trace, table):
        cover = guaranteed_intervals(tiny_trace, 1.0, table, p=2.0)
        assert cover.envelope_checked > 0
        assert cover.envelope_violations == 0

    def test_domain_checks(self, tiny_trace, table):
        with pytest.raises(DomainError):
            guaranteed_intervals(tiny_trace, 0.4, table)
        with pytest.raises(DomainError):
            guaranteed_intervals(tiny_trace, 1.0, table, sigma=0.5)
        with pytest.raises(DomainError):
            guaranteed_intervals(tiny_trace, 1.0, table, p=0.5)

    def test_larger_data_shrinks_coverage(self, random_trace, tiny_trace,
                                          table):
        big = guaranteed_intervals(random_trace, 1.0, table, sigma=0.05)
        small = guaranteed_intervals(tiny_trace, 1.0, table)
        assert big.coverage <= small.coverage

    def test_cover_validation(self):
        with pytest.raises(DomainError):
            IntervalCover(coverage=1.5)
        with pytest.raises(DomainError):
            IntervalCover(intervals=[(1.0, 0.5)], coverage=0.5)


class TestTwoResolutionPsi:
    def _run(self, N, outdir, t_end=0.02):
        st = make_initial("random-spectrum",
                          {"norm_v": 0.2, "norm_b": 0.1}, N=N, seed=3,
                          nu=0.1, eta=0.1)
        cfg = SolverConfig(N=N, nu=0.1, eta=0.1, dt=2e-3, t_end=t_end,
                           output_stride=2)
        return simulate(cfg, st, outdir)

    def test_identical_runs_give_zero(self, tmp_path):
        a = self._run(5, tmp_path / "a")
        b = self._run(5, tmp_path / "b")
        rows = two_resolution_psi(a, b)
        assert all(psi == 0.0 for _, psi in rows)

    def test_nested_resolutions(self, tmp_path):
        lo = self._run(4, tmp_path / "lo")
        hi = self._run(6, tmp_path / "hi")
        rows = two_resolution_psi(lo, hi)
        assert len(rows) == len(lo.checkpoint_paths())
        assert all(psi >= 0.0 for _, psi in rows)
        # truncation error is small but nonzero for genuinely different N
        assert max(psi for _, psi in rows) > 0.0

    def test_order_insensitive(self, tmp_path):
        lo = self._run(4, tmp_path / "l2")
        hi = self._run(6, tmp_path / "h2")
        assert two_resolution_psi(lo, hi) == two_resolution_psi(hi, lo)

    def test_mismatched_grids_rejected(self, tmp_path):
        a = self._run(4, tmp_path / "ga", t_end=0.02)
        b = self._run(4, tmp_path / "gb", t_end=0.04)
        with pytest.raises(TraceError, match="mismatched sampling grids"):
            two_resolution_psi(a, b)


class TestLipschitz:
    def test_passes_on_archived_run(self, random_trace):
        rep = lipschitz_check(random_trace)
        assert rep.id == "LIP47"
        assert rep.verdict == "pass"
        assert "checkpoint pairs" in rep.note

    def test_vacuous_on_zero_run(self, tmp_path):
        z = m.SpectralField.zeros(3)
        st = m.MhdState(V=z, B=z, nu=0.1, eta=0.1)
        cfg = SolverConfig(N=3, nu=0.1, eta=0.1, dt=1e-3, t_end=0.003)
        tr = simulate(cfg, st, tmp_path / "zero")
        rep = lipschitz_check(tr)
        assert rep.verdict == "vacuous"

    def test_needs_two_checkpoints(self, tmp_path):
        st = make_initial("random-spectrum", {}, N=3, seed=0,
                          nu=0.1, eta=0.1)
        cfg = SolverConfig(N=3, nu=0.1, eta=0.1, dt=1e-3, t_end=0.0)
        tr = simulate(cfg, st, tmp_path / "one")
        with pytest.raises(TraceError):
            lipschitz_check(tr)
