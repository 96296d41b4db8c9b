"""Decay-rate fitting, resolution comparison, and the registry entries RAD
(guaranteed radius against the fitted decay rate), FGT (derivatives inside
the guaranteed-regularity windows) and LIP47."""

import math
import re

import numpy as np
import pytest

import mhdgevrey as m
from mhdgevrey.bounds import BOUNDS, _verify_pairs, verify_integral, verify_pointwise
from mhdgevrey.errors import DomainError, TraceError
from mhdgevrey.radius import (
    RadiusEstimate,
    _fit,
    decay_fit,
    default_fit_shells,
    two_resolution_psi,
)
from mhdgevrey.spectral import SpectralField, _energy, geometry
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
        # |n|^2 e^{-0.3|n|} on the default shells 8..24: the log-linear fit
        # absorbs the power as a shallower slope, roughly 0.3 - 2 ln(24/8)/(24-8)
        w = constructed_field(32, lambda a: a**2 * math.exp(-0.3 * a))
        est = decay_fit(w)
        expected = 0.3 - 2.0 * math.log(3.0) / 16.0
        assert est.sigma_fit == pytest.approx(expected, abs=0.03)
        assert est.sigma_fit < 0.3

    def test_default_window(self):
        assert default_fit_shells(32) == (8, 24)
        assert default_fit_shells(8) == (3, 6)

    def test_insufficient_range(self):
        w = m.SpectralField.from_modes(
            16, {(0, 0, 1): 0.5 * np.array([1.0, 0.0, 0.0])})
        with pytest.raises(DomainError, match="insufficient spectral range"):
            decay_fit(w)

    @pytest.mark.parametrize("N", [3, 5])
    def test_default_window_too_narrow_for_small_ball(self, N):
        with pytest.raises(DomainError, match="insufficient spectral range: the ball of "
                           "radius %d has too few shells" % N):
            decay_fit(random_field(N, 0))

    def test_estimate_validation(self):
        with pytest.raises(DomainError):
            RadiusEstimate(sigma_fit=-0.1, fit_range=(3, 6), residual=0.0)
        with pytest.raises(DomainError):
            RadiusEstimate(sigma_fit=0.1, fit_range=(6, 3), residual=0.0)


class TestRadiusCheck:
    """The guaranteed radius delta*Phi against the fitted decay rate of the
    (V, B) shell spectrum, registry entry RAD."""

    @staticmethod
    def _report(trace, table):
        [rep] = _verify_pairs([("RAD", None)], trace, table, float(trace.times[-1]))
        return rep

    @pytest.fixture(scope="class")
    @staticmethod
    def smooth_trace(tmp_path_factory, delta_std):
        st = make_initial("random-spectrum", {"norm_v": 0.3, "norm_b": 0.15},
                          N=8, seed=5, nu=0.1, eta=0.1)
        cfg = SolverConfig(N=8, nu=0.1, eta=0.1, dt=1e-3, t_end=0.02,
                           output_stride=5, scheme="integrating-factor-RK2")
        return simulate(cfg, st, tmp_path_factory.mktemp("rad8"),
                        diagnostics=full_diagnostics(delta_std))

    def test_margins_nonnegative_on_smooth_run(self, smooth_trace, table):
        rep = self._report(smooth_trace, table)
        assert (rep.id, rep.s, rep.verdict) == ("RAD", 0.0, "pass")
        assert rep.note == "decay fitted over shells [3, 6]"
        # every checkpoint fitted and passing; the report is the worst one
        delta = smooth_trace.manifest["delta"]
        states = smooth_trace.checkpoints()
        singles = [verify_pointwise("RAD", st, table, delta=delta) for st in states]
        assert len(singles) == len(smooth_trace.checkpoint_paths()) > 1
        for st, r in zip(states, singles):
            assert r.verdict == "pass"
            assert r.lhs == delta * m.solve_phi(st.V, st.B, delta) > 0.0
            assert r.rhs == _fit([st.V, st.B], 8).sigma_fit >= r.lhs
        assert rep.as_dict() == max(singles, key=lambda r: r.ratio).as_dict()

    def test_empty_spectrum_flagged_not_raised(self, tmp_path, delta_std, table):
        z = m.SpectralField.zeros(8)
        st = m.MhdState(V=z, B=z, nu=0.1, eta=0.1)
        cfg = SolverConfig(N=8, nu=0.1, eta=0.1, dt=1e-3, t_end=0.002)
        tr = simulate(cfg, st, tmp_path / "flagged",
                      diagnostics=full_diagnostics(delta_std))
        rep = self._report(tr, table)
        assert (rep.verdict, rep.lhs, rep.rhs) == ("informational", 0.0, 0.0)
        assert rep.note == "fewer than 3 populated shells in the fit window [3, 6]"

    @pytest.mark.parametrize("N", [3, 5, 6])
    def test_small_ball_informational(self, N, delta_std, table):
        # the default window [3, 3N/4] holds under 3 shells for N <= 6; at
        # N <= 5 it is empty, where decay_fit raises
        st = make_initial("random-spectrum", {}, N=N, seed=1, nu=0.1, eta=0.1)
        rep = verify_pointwise("RAD", st, table, delta=delta_std)
        assert rep.verdict == "informational"
        assert rep.note == ("fewer than 3 populated shells in the fit window [3, %d]"
                            % (3 * N // 4))


class TestGuaranteedIntervals:
    @pytest.fixture(scope="class")
    @staticmethod
    def tiny_trace(tmp_path_factory, delta_std):
        # small data, so that t_star is long and the windows hold sample pairs
        st = make_initial("random-spectrum",
                          {"norm_v": 0.01, "norm_b": 0.005}, N=6, seed=7,
                          nu=0.1, eta=0.1)
        cfg = SolverConfig(N=6, nu=0.1, eta=0.1, dt=1e-3, t_end=0.02,
                           output_stride=2,
                           scheme="integrating-factor-RK2")
        out = tmp_path_factory.mktemp("tiny")
        return simulate(cfg, st, out, diagnostics=full_diagnostics(delta_std),
                        manifest_extra={"sigma": 0.05})

    def test_envelope_checked_without_violations(self, tiny_trace, table):
        rep = verify_integral("FGT", tiny_trace, 2.0, float(tiny_trace.times[-1]), table)
        assert rep.verdict == "pass"
        n = len(tiny_trace.times)
        pairs = int(re.fullmatch(r"max over (\d+) sample pairs", rep.note).group(1))
        assert 0 < pairs <= n * (n - 1) // 2
        assert 0.0 < rep.ratio < 1.0

    def test_domain_checks(self, tiny_trace, table):
        T = float(tiny_trace.times[-1])
        for s in (0.4, 0.5, 1.0 - 1e-9):
            with pytest.raises(DomainError, match="FGT requires s >= 1"):
                verify_integral("FGT", tiny_trace, s, T, table)
        # the registry's own check of a growth rate outside (0, min(nu, eta))
        for sigma in (0.5, 0.1, 0.0, -0.05):
            error = BOUNDS["FGT"].inapplicable(1.0, {"sigma": sigma}, tiny_trace, T)
            assert isinstance(error, DomainError)
            assert str(error) == "sigma must lie in (0, min(nu, eta))"

    def test_b19_checks_samples_after_t0(self, tiny_trace, table):
        # t_star = 0.0153 at s = 1 holds 7 samples after t0; B19 used to
        # report the t0 identity, ratio exactly 1.0, as its worst sample
        rep = verify_integral("B19", tiny_trace, 1.0, float(tiny_trace.times[-1]), table)
        assert rep.verdict == "pass"
        assert 0.0 < rep.ratio < 1.0
        inside = int(re.match(r"max over (\d+) of \d+ samples after t0", rep.note).group(1))
        assert inside >= 2


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
    """Coefficient equicontinuity, registry entry LIP47."""

    @staticmethod
    def _report(trace, table):
        [rep] = _verify_pairs([("LIP47", None)], trace, table, float(trace.times[-1]))
        return rep

    def test_passes_on_archived_run(self, random_trace, table):
        rep = self._report(random_trace, table)
        assert (rep.id, rep.s, rep.verdict) == ("LIP47", 0.0, "pass")
        # the worst checkpoint, each held to the energy of the first
        states = random_trace.checkpoints()
        e_init = 0.5 * _energy((states[0].V, states[0].B), 0.0)
        singles = [verify_pointwise("LIP47", st, table, e_init=e_init) for st in states]
        assert len(singles) > 1
        assert rep.as_dict() == max(singles, key=lambda r: r.ratio).as_dict()

    def test_vacuous_on_zero_run(self, tmp_path, table):
        z = m.SpectralField.zeros(3)
        st = m.MhdState(V=z, B=z, nu=0.1, eta=0.1)
        cfg = SolverConfig(N=3, nu=0.1, eta=0.1, dt=1e-3, t_end=0.003)
        tr = simulate(cfg, st, tmp_path / "zero")
        assert self._report(tr, table).verdict == "vacuous"

    def test_one_checkpoint_suffices(self, tmp_path, table):
        st = make_initial("random-spectrum", {}, N=3, seed=0,
                          nu=0.1, eta=0.1)
        cfg = SolverConfig(N=3, nu=0.1, eta=0.1, dt=1e-3, t_end=0.0)
        tr = simulate(cfg, st, tmp_path / "one")
        assert len(tr.checkpoint_paths()) == 1
        rep = self._report(tr, table)
        assert (rep.T, rep.verdict) == (0.0, "pass")
