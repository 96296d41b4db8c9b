"""Weighting transforms: Phi root, Phi-weighted quantities, energy inequalities."""

import math

import numpy as np
import pytest

import mhdgevrey as m
from mhdgevrey.errors import DomainError, GevreyOverflowError, TraceError
from mhdgevrey.solver import MhdState, _diagnostic_row, full_rhs, nonlinear_rhs_fast, step
from mhdgevrey.spectral import _energy, _radial_sum, fmt_s
from mhdgevrey.bounds import BOUNDS, verify_integral, verify_pointwise
from mhdgevrey.transform import (
    _growth_envelope,
    _q,
    _trace_q,
    _theta,
    delta_max,
    q_functional,
    solve_phi,
)

from conftest import random_field
from oracles import balance_residual, sigma_p_direct, sigma_p_of, weighted, weighted_state


def _weighted_energy(st, delta, s):
    """||v~||_s^2 + ||b~||_s^2 of the Phi-weighted fields of a state."""
    return _energy((st.V, st.B), s, delta * solve_phi(st.V, st.B, delta))


def _fixed_point_gap(V, B, delta):
    """(Phi, |Phi - (1 + ||v~||_{3/2}^2 + ||b~||_{3/2}^2)^{-1/2}|)."""
    phi = solve_phi(V, B, delta)
    e = m.gevrey_norm(V, delta * phi, 1.5) ** 2 + m.gevrey_norm(B, delta * phi, 1.5) ** 2
    return phi, abs(phi - (1.0 + e) ** -0.5)


def _theta_gevrey(V, B, delta, phi):
    """Theta written with two Gevrey norms over every ball mode (oracle)."""
    return (m.gevrey_norm(V, delta * phi, 1.5) ** 2
            + m.gevrey_norm(B, delta * phi, 1.5) ** 2 + 1.0 - phi ** (-2.0))


def _bisect_oracle(V, B, delta):
    """solve_phi's bisection, run on the Gevrey-norm Theta."""
    theta1 = _theta_gevrey(V, B, delta, 1.0)
    if theta1 <= 1e-12:
        return 1.0
    lo, hi = 0.0, 1.0
    best_phi, best_res = 1.0, theta1
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return best_phi
        r = _theta_gevrey(V, B, delta, mid)
        if abs(r) < abs(best_res):
            best_phi, best_res = mid, r
        if abs(r) <= 1e-12:
            return mid
        lo, hi = (mid, hi) if r < 0 else (lo, mid)


class TestShellTheta:
    @pytest.mark.parametrize("N", [4, 8, 16])
    @pytest.mark.parametrize("which", ["zero", "std", "half"])
    def test_matches_gevrey_norm_theta(self, N, which, delta_std):
        delta = {"zero": 0.0, "std": delta_std, "half": 0.5}[which]
        for seed in range(3):
            V, B = random_field(N, seed), random_field(N, seed + 50)
            for phi in (0.1, 0.5, 1.0):
                terms = (m.gevrey_norm(V, delta * phi, 1.5) ** 2
                         + m.gevrey_norm(B, delta * phi, 1.5) ** 2
                         + 1.0 + phi ** (-2.0))
                diff = _theta(V, B, delta, phi) - _theta_gevrey(V, B, delta, phi)
                assert abs(diff) <= 1e-13 * terms

    @pytest.mark.parametrize("N", [8, 16])
    @pytest.mark.parametrize("norm", [0.3, 1.0, 3000.0, 1e4])
    def test_solve_phi_matches_oracle_bisection(self, N, norm, delta_std):
        st = m.make_initial("random-spectrum",
                            {"norm_v": norm, "norm_b": 0.5 * norm}, N=N,
                            seed=N, nu=0.1, eta=0.1)
        for delta in (0.0, delta_std):
            phi = solve_phi(st.V, st.B, delta)
            assert phi == pytest.approx(_bisect_oracle(st.V, st.B, delta),
                                        rel=1e-12, abs=0.0)

    def test_overflow_guard(self):
        V = random_field(8, 0)
        with pytest.raises(GevreyOverflowError):
            solve_phi(V, random_field(8, 1), 50.0)  # 2 * 50 * 8 > 700

    def test_mismatched_truncations_rejected(self):
        with pytest.raises(DomainError):
            solve_phi(random_field(4, 0), random_field(5, 0), 0.1)


class TestSolvePhi:
    def test_zero_fields_give_one(self):
        z = m.SpectralField.zeros(4)
        assert solve_phi(z, z, 0.3) == 1.0

    def test_hand_computed_single_mode(self):
        # One mode pair of unit energy: Theta(Phi) = 0.5 e^{0.2 Phi} + 1
        # - Phi^{-2} (|n| = 1, s = 3/2 weight |n|^3 = 1), root 0.7940369813.
        V = m.SpectralField.from_modes(
            4, {(0, 0, 1): 0.5 * np.array([1.0, 0.0, 0.0])})
        B = m.SpectralField.zeros(4)
        assert solve_phi(V, B, 0.1) == pytest.approx(0.7940369813, abs=1e-9)

    def test_residual_small_on_random_fields(self):
        for seed in range(5):
            V = random_field(5, seed)
            B = random_field(5, seed + 50)
            phi = solve_phi(V, B, 0.2)
            assert abs(_theta(V, B, 0.2, phi)) <= 1e-9

    def test_fixed_point_identity(self):
        V, B = random_field(5, 1), random_field(5, 2)
        assert _fixed_point_gap(V, B, 0.15)[1] <= 1e-10

    def test_negative_delta_rejected(self):
        z = m.SpectralField.zeros(3)
        with pytest.raises(DomainError):
            solve_phi(z, z, -0.1)

    @pytest.mark.parametrize("which", ["zero", "std"])
    def test_large_legal_input_converges(self, which, delta_std):
        # The norm terms of Theta cancel against Phi^{-2} ~ 6e7 here, so an
        # absolute residual test cannot be met in double precision.
        delta = 0.0 if which == "zero" else delta_std
        st = m.make_initial("random-spectrum",
                            {"norm_v": 3000.0, "norm_b": 3000.0}, N=8, seed=0,
                            nu=0.1, eta=0.1)
        phi, gap = _fixed_point_gap(st.V, st.B, delta)
        assert abs(_theta(st.V, st.B, delta, phi)) * phi**2 <= 1e-9
        # and Phi is the fixed point of the weighted H_{3/2} energy
        assert gap <= 1e-10 * phi

    def test_phi_decreases_with_amplitude(self):
        B = m.SpectralField.zeros(4)
        phis = []
        for a in (0.1, 1.0, 10.0):
            V = m.SpectralField.from_modes(
                4, {(0, 0, 1): 0.5 * a * np.array([1.0, 0.0, 0.0])})
            phis.append(solve_phi(V, B, 0.1))
        assert phis[0] > phis[1] > phis[2]


class TestDeltaMax:
    def test_formula(self, table):
        assert delta_max(table, 0.1, 0.2) == pytest.approx(
            0.1 / (18.0 * math.sqrt(2.0) * table.Cprime(0.5)), rel=1e-14)

    def test_symmetric_in_diffusivities(self, table):
        assert delta_max(table, 0.1, 0.2) == delta_max(table, 0.2, 0.1)


class TestQFunctional:
    def test_quarter_energy_lower_bound(self, delta_std):
        # For admissible delta the functional dominates a quarter of the
        # plain energy on every sample we can construct.
        for seed in range(5):
            st = MhdState(V=random_field(4, seed, 0.2),
                          B=random_field(4, seed + 10, 0.2),
                          nu=0.1, eta=0.1)
            e0 = _weighted_energy(st, delta_std, 0.0)
            assert q_functional(st, delta_std) >= 0.25 * e0 - 1e-12

    def test_state_and_trace_columns_agree(self, random_trace, delta_std):
        # Q of the first checkpoint's weighted fields against the Q that the
        # integral bounds read from the archived columns of that sample.
        first = random_trace.checkpoints()[0]
        from_trace = _trace_q(random_trace, delta_std, slice(0, 1))
        assert q_functional(first, delta_std) == pytest.approx(
            from_trace, rel=1e-12)


class TestSigmaP:
    def test_vanishes_for_single_mode(self, delta_std):
        st = m.make_initial("single-mode",
                            {"n_v": (0, 0, 1), "amp_v": [1.0, 1j, 0.0],
                             "n_b": None}, N=4, nu=0.1, eta=0.1)
        assert abs(sigma_p_of(st, delta_std, 3.0)) <= 1e-12

    def test_p0_is_exactly_antisymmetric(self, delta_std):
        # The unweighted triple sum is the energy flux of the nonlinearity,
        # which cancels identically.
        st = MhdState(V=random_field(4, 7, 0.3), B=random_field(4, 8, 0.3),
                      nu=0.1, eta=0.1)
        scale = (m.sobolev_norm(st.V, 1.0) ** 2 + m.sobolev_norm(st.B, 1.0) ** 2) ** 1.5
        assert abs(sigma_p_of(st, 0.0, 0.0)) <= 1e-11 * max(1.0, scale)

    @pytest.mark.parametrize("N", [4, 6])
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("which", ["zero", "std", "one"])
    def test_matches_direct_sum(self, N, p, which, delta_std):
        delta = {"zero": 0.0, "std": delta_std, "one": 1.0}[which]
        for seed in range(3):
            st = MhdState(V=random_field(N, seed, 0.3),
                          B=random_field(N, seed + 20, 0.3), nu=0.1, eta=0.1)
            scale = _weighted_energy(st, delta, 1.0 + 0.5 * p) ** 1.5
            assert abs(sigma_p_of(st, delta, p) - sigma_p_direct(st, delta, p)) \
                <= 1e-12 * max(1.0, scale)

    @pytest.mark.parametrize("derivative_s", [(), (0.0,)])
    def test_diagnostic_row_shares_the_nonlinearity(self, derivative_s,
                                                    delta_std, monkeypatch):
        import mhdgevrey.solver as solver

        st = MhdState(V=random_field(6, 3, 0.3), B=random_field(6, 23, 0.3),
                      nu=0.1, eta=0.1)
        expected = sigma_p_of(st, delta_std, 3.0)
        calls = []
        real = solver.nonlinear_rhs_fast

        def counting(state, *args, **kwargs):
            calls.append(state.t)
            return real(state, *args, **kwargs)

        monkeypatch.setattr(solver, "nonlinear_rhs_fast", counting)
        spec = m.DiagnosticsSpec(delta=delta_std, derivative_s=derivative_s,
                                 sigma3=True)
        row, _ = _diagnostic_row(st, spec, 0.0)
        assert len(calls) == 1
        scale = _weighted_energy(st, delta_std, 2.5) ** 1.5
        assert abs(row["sigma3"] - expected) <= 1e-12 * max(1.0, scale)


class TestGevreyRoute:
    """Every Phi-weighted quantity, read as a shell sum of the plain fields at
    the Gevrey index delta*Phi, against the same formula evaluated on the
    explicitly weighted coefficients v~ = e^{delta Phi |n|} v."""

    TILDE_S = (0.0, 0.5, 1.0, 1.5)

    @staticmethod
    def _close(a, b):
        assert abs(a - b) <= 1e-13 * max(abs(a), abs(b))

    @pytest.mark.parametrize("N", [4, 6])
    @pytest.mark.parametrize("which", ["zero", "std", "one"])
    def test_row_columns_and_q(self, N, which, delta_std):
        delta = {"zero": 0.0, "std": delta_std, "one": 1.0}[which]
        spec = m.DiagnosticsSpec(s_grid=(), delta=delta, tilde_s=self.TILDE_S, sigma3=True)
        for seed in range(3):
            st = MhdState(V=random_field(N, seed, 0.3),
                          B=random_field(N, seed + 20, 0.3), nu=0.1, eta=0.1)
            row, _ = _diagnostic_row(st, spec, 0.0)
            tv, tb, phi = weighted_state(st, delta)
            assert row["phi"] == phi
            for s in self.TILDE_S:
                self._close(row["tv_s%s" % fmt_s(s)], m.sobolev_norm(tv, s))
                self._close(row["tb_s%s" % fmt_s(s)], m.sobolev_norm(tb, s))
            self._close(row["tE2"], m.sobolev_norm(tv, 2.0) ** 2 + m.sobolev_norm(tb, 2.0) ** 2)
            self._close(row["tdiss52"], st.nu * m.sobolev_norm(tv, 2.5) ** 2
                        + st.eta * m.sobolev_norm(tb, 2.5) ** 2)
            # i Sigma_3 = sum_n |n|^3 e^{delta Phi |n|} Re[conj(v~_n).NL_v(n) + ...]
            nl_v, nl_b = nonlinear_rhs_fast(st)
            pairing = (np.einsum("kc,kc->k", np.conj(tv.coeffs), nl_v.coeffs)
                       + np.einsum("kc,kc->k", np.conj(tb.coeffs), nl_b.coeffs))
            self._close(row["sigma3"], _radial_sum(N, pairing.real, 3.0, delta * phi))
            e = [m.sobolev_norm(tv, s) ** 2 + m.sobolev_norm(tb, s) ** 2 for s in (0.0, 0.5, 1.0)]
            self._close(q_functional(st, delta), _q(delta, phi, *e))

    @pytest.mark.parametrize("N", [4, 6])
    @pytest.mark.parametrize("which", ["std", "one"])  # P40 and P42 need delta > 0
    def test_p40_p42_sides(self, N, which, table, delta_std):
        delta = {"std": delta_std, "one": 1.0}[which]
        for seed in range(3):
            st = MhdState(V=random_field(N, seed, 0.3),
                          B=random_field(N, seed + 20, 0.3), nu=0.1, eta=0.1)
            tv, tb, phi = weighted_state(st, delta)
            xi_v, xi_b = (weighted(f, delta * phi) for f in full_rhs(st))
            nu2, eta2 = st.nu**2, st.eta**2

            rep = verify_pointwise("P40", st, table, delta=delta)
            self._close(rep.lhs, 0.5 * (m.sobolev_norm(xi_v, -0.5) ** 2
                                        + m.sobolev_norm(xi_b, -0.5) ** 2))
            e1 = m.sobolev_norm(tv, 1.0) ** 2 + m.sobolev_norm(tb, 1.0) ** 2
            self._close(rep.rhs, nu2 * m.sobolev_norm(tv, 1.5) ** 2
                        + eta2 * m.sobolev_norm(tb, 1.5) ** 2
                        + 2.0 * table.Cprime(0.5) ** 2 * e1**2)

            for s in (-1.0, -2.0):
                rep = verify_pointwise("P42", st, table, delta=delta, s=s)
                self._close(rep.lhs, m.sobolev_norm(xi_v, s) ** 2 + m.sobolev_norm(xi_b, s) ** 2)
                x, y = (m.sobolev_norm(f, 1.0) ** ((2.0 * s + 5.0) / 2.0)
                        * m.sobolev_norm(f, 0.0) ** ((-2.0 * s - 1.0) / 2.0) for f in (tv, tb))
                self._close(rep.rhs, 2.0 * nu2 * m.sobolev_norm(tv, s + 2.0) ** 2
                            + 2.0 * eta2 * m.sobolev_norm(tb, s + 2.0) ** 2
                            + 4.0 * table.C_tilde_prime(s) ** 2 * (x + y) ** 2)


def _residual_along_trajectory(N, delta):
    st = m.make_initial("random-spectrum",
                        {"norm_v": 0.3, "norm_b": 0.15}, N=N, seed=5,
                        nu=0.1, eta=0.1)
    h = 1e-3
    samples = []
    cur = st
    for _ in range(3):
        samples.append(cur)
        cur = step(cur, h)
    res = balance_residual(samples, delta)
    tv, _, _ = weighted_state(samples[0], delta)
    e32 = m.sobolev_norm(tv, 1.5) ** 2
    return res, e32


class TestBalanceResidual:
    def test_residual_small_along_trajectory(self, delta_std):
        res, e32 = _residual_along_trajectory(6, delta_std)
        assert res <= 1e-4 * max(1.0, e32)

    def test_residual_small_at_n16(self, delta_std):
        res, e32 = _residual_along_trajectory(16, delta_std)
        assert res <= 1e-4 * max(1.0, e32)

    def test_requires_two_samples(self, singlemode_state, delta_std):
        with pytest.raises(DomainError):
            balance_residual([singlemode_state], delta_std)

    def test_requires_increasing_times(self, singlemode_state, delta_std):
        with pytest.raises(DomainError):
            balance_residual([singlemode_state, singlemode_state], delta_std)


class TestVerifyTheorem2:
    """The weighted-energy inequality LHS <= 9Q, registry entry B29."""

    def test_passes_on_singlemode_run(self, singlemode_trace, table):
        rep = verify_integral("B29", singlemode_trace, None,
                              float(singlemode_trace.times[-1]), table)
        assert rep.verdict == "pass"
        assert "delta_max" not in rep.note
        assert "Q <= 0" not in rep.note
        assert 0.0 < rep.ratio < 1.0

    def test_passes_on_random_run(self, random_trace, table):
        rep = verify_integral("B29", random_trace, None,
                              float(random_trace.times[-1]), table)
        assert rep.verdict == "pass"

    def test_inadmissible_delta_is_informational(self, singlemode_state, tmp_path, table):
        # a run whose weighted columns use delta = 10
        cfg = m.SolverConfig(N=8, nu=0.1, eta=0.1, dt=1e-3, t_end=0.01,
                             output_stride=5, scheme="integrating-factor-RK2")
        trace = m.simulate(cfg, singlemode_state, tmp_path, diagnostics=m.DiagnosticsSpec(
            s_grid=(), delta=10.0, tilde_s=(0.0, 0.5, 1.0)))
        rep = verify_integral("B29", trace, None, float(trace.times[-1]), table)
        assert rep.verdict == "informational"
        assert "delta = 10 exceeds delta_max = %.6g" % delta_max(table, 0.1, 0.1) in rep.note

    def test_sparse_trace_rejected(self, singlemode_trace, table):
        class Sparse:
            manifest = singlemode_trace.manifest
            times = singlemode_trace.times[[0, 1, -1]]
            has_col = singlemode_trace.has_col

            def col(self, name):
                return singlemode_trace.col(name)[[0, 1, -1]]

        with pytest.raises(TraceError, match="trace too sparse"):
            verify_integral("B29", Sparse(), None,
                            float(singlemode_trace.times[-1]), table)

    def test_window_not_covered(self, singlemode_trace, table):
        class Tail:
            manifest = dict(singlemode_trace.manifest, t0=1.0)
            times = singlemode_trace.times
            has_col = singlemode_trace.has_col

            def col(self, name):
                return singlemode_trace.col(name)

        with pytest.raises(TraceError, match="cover"):
            verify_integral("B29", Tail(), None, 2.0, table)


class TestFoiasTemam:
    """The growing-weight envelope, checked on archives by registry entry B19."""

    @staticmethod
    def _state(seed=0, scale=0.2):
        return MhdState(V=random_field(4, seed, scale),
                        B=random_field(4, seed + 30, scale), nu=0.1, eta=0.1)

    @staticmethod
    def _run(st, outdir, sigma, s, dt, steps):
        """A run sampled at every step with the weighted column at index s."""
        cfg = m.SolverConfig(N=st.N, nu=0.1, eta=0.1, dt=dt, t_end=steps * dt,
                             output_stride=1, scheme="integrating-factor-RK2")
        return m.simulate(cfg, st, outdir, diagnostics=m.DiagnosticsSpec(
            s_grid=(s,), ft_sigma=sigma, ft_s=(s,)))

    @staticmethod
    def _b19(trace, s, table):
        return verify_integral("B19", trace, s, float(trace.times[-1]), table)

    def test_anchor_at_t0(self, tmp_path, table):
        tr = self._run(self._state(), tmp_path, 0.05, 0.75, 1e-3, 2)
        # at t = t0 the weight is 1 and the envelope equals the data norm
        e0 = tr.col("ft_s0.75")[0]
        assert e0 == pytest.approx(
            tr.col("v_s0.75")[0] ** 2 + tr.col("b_s0.75")[0] ** 2, rel=1e-12)
        t_star, qs = _growth_envelope(table, 0.75, 0.05, 0.1, e0, np.zeros(1))
        assert qs[0] == pytest.approx(e0, rel=1e-10)
        assert t_star > 0

    def test_envelope_holds_along_trajectory(self, tmp_path, table):
        st = self._state(seed=4, scale=0.05)
        sigma = 0.02
        # the guaranteed window is short (safety-factored constants), so
        # resolve it first and step well inside it
        e0 = m.sobolev_norm(st.V, 1.0) ** 2 + m.sobolev_norm(st.B, 1.0) ** 2
        t_star = _growth_envelope(table, 1.0, sigma, 0.1, e0, 0.0)[0]
        rep = self._b19(self._run(st, tmp_path, sigma, 1.0, t_star / 10.0, 5), 1.0, table)
        assert rep.verdict == "pass"
        assert rep.note.startswith("max over 5 of 5 samples after t0")
        assert 0.0 < rep.ratio < 1.0

    def test_outside_window_flagged(self, tmp_path, table):
        rep = self._b19(self._run(self._state(seed=6, scale=5.0), tmp_path, 1e-12, 1.0,
                                  1e-3, 2), 1.0, table)
        assert (rep.lhs, rep.rhs, rep.verdict) == (0.0, 0.0, "informational")
        assert rep.note.startswith("no sample after t0 inside the guaranteed window")

    def test_domain_checks(self, tmp_path, table):
        tr = self._run(self._state(), tmp_path, 0.05, 0.75, 1e-3, 2)
        b19, T = BOUNDS["B19"], float(tr.times[-1])
        assert b19.inapplicable(0.75, {"sigma": 0.05}, tr, T) is None
        # sigma >= min(nu, eta), s out of range, a window ending before t0
        for s, sigma, T_end, error in [(0.75, 0.2, T, DomainError),
                                       (0.4, 0.05, T, DomainError),
                                       (0.75, 0.05, -0.5, TraceError)]:
            assert isinstance(b19.inapplicable(s, {"sigma": sigma}, tr, T_end), error)

    @pytest.mark.parametrize("s", [0.6, 0.75, 0.95, 1.0])
    def test_envelope_is_the_data_at_t0(self, s):
        # q_s(0) = e0 bitwise; the round trip through e0^{-2/(2s-1)} and back
        # used to round below e0 for about half of all e0 > 1
        class Table:
            def Cprime(self, s):
                return 1.7

            def C_second(self, s, gamma):
                return 0.3

        for e0 in np.geomspace(1e-3, 1e3, 401):
            t_star, qs = _growth_envelope(Table(), s, 0.05, 0.1, e0, np.zeros(1))
            assert qs[0] == e0 and t_star > 0
            # the window still closes at t_star
            assert np.isnan(_growth_envelope(Table(), s, 0.05, 0.1, e0, t_star)[1])

    def test_zero_data(self, tmp_path, table):
        z = m.SpectralField.zeros(3)
        rep = self._b19(self._run(MhdState(V=z, B=z, nu=0.1, eta=0.1), tmp_path, 0.05,
                                  1.0, 1e-3, 2), 1.0, table)
        assert (rep.lhs, rep.rhs, rep.verdict) == (0.0, 0.0, "vacuous")
        assert "t_star = inf" in rep.note
