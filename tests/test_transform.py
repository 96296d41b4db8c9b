"""Weighting transforms: Phi root, weighted states, energy inequalities."""

import math

import numpy as np
import pytest

import mhdgevrey as m
from mhdgevrey.errors import DomainError, GevreyOverflowError, TraceError
from mhdgevrey.solver import MhdState, _diagnostic_row, full_rhs, step
from mhdgevrey.transform import (
    PhiState,
    _growth_envelope,
    _sigma_p_direct,
    _theta,
    balance_residual,
    delta_max,
    foias_temam_norms,
    q_functional,
    sigma_p,
    solve_phi,
    transform,
    untransform_field,
    verify_theorem2,
)

from conftest import random_field


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
            4, {(0, 0, 1): 0.5 * np.array([1.0, 0.0, 0.0])}, add_conjugates=True)
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
        ps = transform(MhdState(V=V, B=B, nu=0.1, eta=0.1), 0.15)
        e = m.sobolev_norm(ps.V, 1.5) ** 2 + m.sobolev_norm(ps.B, 1.5) ** 2
        assert ps.phi == pytest.approx((1.0 + e) ** -0.5, abs=1e-10)

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
        ps = transform(st, delta)
        assert abs(_theta(st.V, st.B, delta, ps.phi)) * ps.phi**2 <= 1e-9

    def test_phi_decreases_with_amplitude(self):
        B = m.SpectralField.zeros(4)
        phis = []
        for a in (0.1, 1.0, 10.0):
            V = m.SpectralField.from_modes(
                4, {(0, 0, 1): 0.5 * a * np.array([1.0, 0.0, 0.0])},
                add_conjugates=True)
            phis.append(solve_phi(V, B, 0.1))
        assert phis[0] > phis[1] > phis[2]


class TestPhiState:
    def test_transform_untransform_roundtrip(self):
        st = MhdState(V=random_field(4, 3), B=random_field(4, 4),
                      nu=0.1, eta=0.1)
        ps = transform(st, 0.2)
        back = untransform_field(ps.V, ps.delta, ps.phi)
        assert np.allclose(back.coeffs, st.V.coeffs, rtol=1e-12, atol=1e-16)

    def test_fixed_point_enforced_on_construction(self):
        V, B = random_field(4, 5), random_field(4, 6)
        with pytest.raises(DomainError, match="fixed point"):
            PhiState(delta=0.2, phi=0.123, V=V, B=B)

    def test_phi_range_enforced(self):
        z = m.SpectralField.zeros(3)
        with pytest.raises(DomainError):
            PhiState(delta=0.2, phi=1.5, V=z, B=z)


class TestDeltaMax:
    def test_formula(self, table):
        assert delta_max(table, 0.1, 0.2) == pytest.approx(
            0.1 / (18.0 * math.sqrt(2.0) * table.Cprime_half()), rel=1e-14)

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
            ps = transform(st, delta_std)
            e0 = m.sobolev_norm(ps.V, 0.0) ** 2 + m.sobolev_norm(ps.B, 0.0) ** 2
            assert q_functional(ps) >= 0.25 * e0 - 1e-12

    def test_state_and_trace_columns_agree(self, random_trace, delta_std):
        # Q of the first checkpoint's weighted fields against the Q that the
        # integral bounds read from the archived columns of that sample.
        first = random_trace.checkpoints()[0]
        from_trace = verify_theorem2(random_trace, delta_std,
                                     float(random_trace.times[-1])).Q
        assert q_functional(transform(first, delta_std)) == pytest.approx(
            from_trace, rel=1e-12)


class TestSigmaP:
    def test_vanishes_for_single_mode(self, delta_std):
        st = m.make_initial("single-mode",
                            {"n_v": (0, 0, 1), "amp_v": [1.0, 1j, 0.0],
                             "n_b": None}, N=4, nu=0.1, eta=0.1)
        ps = transform(st, delta_std)
        assert abs(sigma_p(ps, 3.0)) <= 1e-12

    def test_p0_is_exactly_antisymmetric(self, delta_std):
        # The unweighted triple sum is the energy flux of the nonlinearity,
        # which cancels identically.
        st = MhdState(V=random_field(4, 7, 0.3), B=random_field(4, 8, 0.3),
                      nu=0.1, eta=0.1)
        ps = transform(st, 0.0)
        scale = (m.sobolev_norm(ps.V, 1.0) ** 2 + m.sobolev_norm(ps.B, 1.0) ** 2) ** 1.5
        assert abs(sigma_p(ps, 0.0)) <= 1e-11 * max(1.0, scale)

    @pytest.mark.parametrize("N", [4, 6])
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("which", ["zero", "std", "one"])
    def test_matches_direct_sum(self, N, p, which, delta_std):
        delta = {"zero": 0.0, "std": delta_std, "one": 1.0}[which]
        for seed in range(3):
            st = MhdState(V=random_field(N, seed, 0.3),
                          B=random_field(N, seed + 20, 0.3), nu=0.1, eta=0.1)
            ps = transform(st, delta)
            s = 1.0 + 0.5 * p
            scale = (m.sobolev_norm(ps.V, s) ** 2 + m.sobolev_norm(ps.B, s) ** 2) ** 1.5
            assert abs(sigma_p(ps, p) - _sigma_p_direct(ps, p)) <= 1e-12 * max(1.0, scale)

    @pytest.mark.parametrize("derivative_s", [(), (0.0,)])
    def test_diagnostic_row_shares_the_nonlinearity(self, derivative_s,
                                                    delta_std, monkeypatch):
        import mhdgevrey.solver as solver

        st = MhdState(V=random_field(6, 3, 0.3), B=random_field(6, 23, 0.3),
                      nu=0.1, eta=0.1)
        expected = sigma_p(transform(st, delta_std), 3.0)
        calls = []
        real = solver.nonlinear_rhs_fast

        def counting(state, *args, **kwargs):
            calls.append(state.t)
            return real(state, *args, **kwargs)

        monkeypatch.setattr(solver, "nonlinear_rhs_fast", counting)
        spec = m.DiagnosticsSpec(delta=delta_std, derivative_s=derivative_s,
                                 sigma3=True)
        row = _diagnostic_row(st, spec, 0.0)
        assert len(calls) == 1
        ps = transform(st, delta_std)
        scale = (m.sobolev_norm(ps.V, 2.5) ** 2 + m.sobolev_norm(ps.B, 2.5) ** 2) ** 1.5
        assert abs(row["sigma3"] - expected) <= 1e-12 * max(1.0, scale)


def _residual_along_trajectory(N, delta):
    st = m.make_initial("random-spectrum",
                        {"norm_v": 0.3, "norm_b": 0.15}, N=N, seed=5,
                        nu=0.1, eta=0.1)
    h = 1e-3
    samples = []
    cur = st
    for _ in range(3):
        samples.append(transform(cur, delta))
        cur = step(cur, h)
    res = balance_residual(samples)
    e32 = m.sobolev_norm(samples[0].V, 1.5) ** 2
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
            balance_residual([transform(singlemode_state, delta_std)])

    def test_requires_increasing_times(self, singlemode_state, delta_std):
        ps = transform(singlemode_state, delta_std)
        with pytest.raises(DomainError):
            balance_residual([ps, ps])


class TestVerifyTheorem2:
    def test_passes_on_singlemode_run(self, singlemode_trace, delta_std, table):
        rep = verify_theorem2(singlemode_trace, delta_std,
                              float(singlemode_trace.times[-1]), table=table)
        assert rep.verdict == "pass"
        assert rep.delta_admissible
        assert not rep.q_nonpositive
        assert 0.0 < rep.ratio < 1.0

    def test_passes_on_random_run(self, random_trace, delta_std, table):
        rep = verify_theorem2(random_trace, delta_std,
                              float(random_trace.times[-1]), table=table)
        assert rep.verdict == "pass"

    def test_inadmissible_delta_is_informational(self, singlemode_trace, table):
        rep = verify_theorem2(singlemode_trace, 10.0,
                              float(singlemode_trace.times[-1]), table=table)
        assert not rep.delta_admissible
        assert rep.verdict == "informational"

    def test_sparse_trace_rejected(self, singlemode_trace, delta_std):
        class Sparse:
            manifest = singlemode_trace.manifest
            times = singlemode_trace.times[[0, 1, -1]]

            def col(self, name):
                return singlemode_trace.col(name)[[0, 1, -1]]

        with pytest.raises(TraceError, match="trace too sparse"):
            verify_theorem2(Sparse(), delta_std,
                            float(singlemode_trace.times[-1]))

    def test_window_not_covered(self, singlemode_trace, delta_std):
        class Tail:
            manifest = {"t0": 1.0, "config": singlemode_trace.manifest["config"]}
            times = singlemode_trace.times

            def col(self, name):
                return singlemode_trace.col(name)

        with pytest.raises(TraceError, match="cover"):
            verify_theorem2(Tail(), delta_std, 2.0)


class TestFoiasTemam:
    def _state(self, seed=0, scale=0.2, t=0.0):
        return MhdState(V=random_field(4, seed, scale),
                        B=random_field(4, seed + 30, scale),
                        t=t, nu=0.1, eta=0.1)

    def test_anchor_at_t0(self, table):
        st = self._state()
        r = foias_temam_norms(st, 0.0, 0.05, 0.75, table)
        # at t = t0 the weight is 1 and the envelope equals the data norm
        assert r.lhs == pytest.approx(
            m.sobolev_norm(st.V, 0.75) ** 2 + m.sobolev_norm(st.B, 0.75) ** 2,
            rel=1e-12)
        assert r.qs == pytest.approx(r.lhs, rel=1e-10)
        assert r.t_star > 0

    def test_envelope_holds_along_trajectory(self, table):
        st = self._state(seed=4, scale=0.05)
        sigma = 0.02
        # the guaranteed window is short (safety-factored constants), so
        # resolve it first and step well inside it
        t_star = foias_temam_norms(st, 0.0, sigma, 1.0, table).t_star
        cur = st
        for _ in range(5):
            cur = step(cur, t_star / 10.0)
            r = foias_temam_norms(cur, 0.0, sigma, 1.0, table, initial=st)
            assert r.note == ""
            assert r.lhs <= r.qs

    def test_outside_window_flagged(self, table):
        st = self._state(seed=6, scale=5.0)
        later = MhdState(V=st.V, B=st.B, t=1e9, nu=0.1, eta=0.1)
        r = foias_temam_norms(later, 0.0, 1e-12, 1.0, table, initial=st)
        assert r.note == "outside guaranteed window"
        assert math.isinf(r.qs)

    def test_domain_checks(self, table):
        st = self._state()
        with pytest.raises(DomainError):
            foias_temam_norms(st, 0.0, 0.2, 0.75, table)  # sigma >= min(nu,eta)
        with pytest.raises(DomainError):
            foias_temam_norms(st, 0.0, 0.05, 0.4, table)  # s out of range
        with pytest.raises(DomainError):
            foias_temam_norms(st, 0.5, 0.05, 0.75, table)  # sampled before t0

    def test_gamma_override_admissibility(self, table):
        st = self._state()
        mn = 0.1
        sigma = 0.05
        g_max = (mn - sigma) / (table.Cprime(0.75) * (2.5 - 0.75))
        r_pinned = foias_temam_norms(st, 0.0, sigma, 0.75, table)
        r_small = foias_temam_norms(st, 0.0, sigma, 0.75, table,
                                    gamma=0.5 * g_max)
        # smaller gamma inflates the envelope constant, shrinking the window
        assert r_small.t_star < r_pinned.t_star
        with pytest.raises(DomainError):
            foias_temam_norms(st, 0.0, sigma, 0.75, table, gamma=2.0 * g_max)

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

    def test_zero_data(self, table):
        z = m.SpectralField.zeros(3)
        st = MhdState(V=z, B=z, nu=0.1, eta=0.1)
        r = foias_temam_norms(st, 0.0, 0.05, 1.0, table)
        assert r.lhs == 0.0 and r.qs == 0.0 and math.isinf(r.t_star)
