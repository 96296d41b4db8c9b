"""Constant chains and inequality verification on archived trajectories."""

import copy
import math

import numpy as np
import pytest

import mhdgevrey as m
from mhdgevrey.bounds import (
    INTEGRAL_IDS,
    POINTWISE_IDS,
    SWEEP_POINTWISE_CASES,
    alpha_exponent,
    c_second_tilde,
    constants_chain,
    d1_constant,
    d2_constant,
    d2_report,
    d3_constant,
    d4_constant,
    derivative_norm_sq_via_xi,
    gamma_exponent,
    q_double,
    q_prime,
    q_tilde,
    q_tilde_wiener,
    standard_sweep,
    verify_integral,
    verify_pointwise,
    xi_fields,
    xi_fields_chain,
    _quadrature_note,
    _retry_with_better_constants,
)
from mhdgevrey.errors import DomainError, TraceError
from mhdgevrey.solver import MhdState, full_rhs, step
from mhdgevrey.spectral import sobolev_norm

from conftest import random_field


class TestExponents:
    def test_alpha(self):
        assert alpha_exponent(1.5) == 1.0
        assert alpha_exponent(2.0) == pytest.approx(2.0 / 3.0)

    def test_gamma(self):
        assert gamma_exponent(2.0) == 1.0
        assert gamma_exponent(0.5) == 4.0

    def test_d2_exponent_identity(self):
        # (sigma - 1) * 2A = 2 theta r / (1 - theta r) with theta = s+1,
        # r = 1/(2s+3), A = (1-theta) r / (1 - theta r), sigma = (1 + 1/A)/2.
        for s in (-0.75, -0.5, -0.9):
            theta = s + 1.0
            r = 1.0 / (2.0 * s + 3.0)
            A = (1.0 - theta) * r / (1.0 - theta * r)
            sigma = (1.0 + 1.0 / A) / 2.0
            assert (sigma - 1.0) * 2.0 * A == pytest.approx(
                2.0 * theta * r / (1.0 - theta * r), rel=1e-12)


class TestConstantChains:
    def test_zero_q_collapses(self, table):
        assert q_prime(0.0, 0.1, 0.1, 1.0) == 0.0
        assert q_double(0.0, 0.1, 0.1, 1.0, 2.0) == 0.0
        assert q_tilde(0.0, 0.1, 0.1, 1.0, 2.0) == 0.0
        assert d2_constant(0.0, 0.1, 0.1, 0.1, 1.0, -1.0, table) == 0.0

    def test_domains(self, table):
        with pytest.raises(DomainError):
            q_double(1.0, 0.1, 0.1, 1.0, 0.5)
        with pytest.raises(DomainError):
            q_tilde(1.0, 0.1, 0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            q_tilde_wiener(1.0, 0.1, 0.1, 1.0, -0.5)
        with pytest.raises(DomainError):
            d1_constant(1.0, 0.1, 0.1, 0.1, 1.0, -0.6, table)
        with pytest.raises(DomainError):
            d2_constant(1.0, 0.1, 0.1, 0.1, 1.0, -3.0, table)
        with pytest.raises(DomainError):
            d3_constant(1.0, 0.1, 0.1, -2.0, table)
        with pytest.raises(DomainError):
            d4_constant(1.0, 0.1, 0.1, 0.1, 1.0, -2.0, table)

    @pytest.mark.parametrize("s,keys", [
        (2.0, {"Qprime", "Qdouble_s", "Qtilde_s", "QtildeW_s", "D1_s", "D4_s"}),
        (0.0, {"Qprime", "QtildeW_s", "D1_s", "D4_s"}),
        (-1.0, {"Qprime", "D2_s", "D4_s"}),
        (-3.0, {"Qprime", "D3_s"}),
    ])
    def test_chain_branches(self, table, s, keys):
        table.ensure_for_C_tilde_prime(-1.0)
        table.ensure_cp(2.0)
        out = constants_chain(0.3, 0.05, 0.1, 0.1, 1.0, 0.0, s, table)
        assert set(out) == keys
        assert all(v >= 0 for v in out.values())

    def test_chain_domains(self, table):
        with pytest.raises(DomainError):
            constants_chain(-1.0, 0.05, 0.1, 0.1, 1.0, 0.0, 2.0, table)
        with pytest.raises(DomainError):
            constants_chain(1.0, 0.0, 0.1, 0.1, 1.0, 0.0, 2.0, table)
        with pytest.raises(DomainError):
            constants_chain(1.0, 0.05, 0.1, 0.1, 0.0, 0.0, 2.0, table)

    def test_chain_monotone_in_q(self, table):
        lo = constants_chain(0.1, 0.05, 0.1, 0.1, 1.0, 0.0, 2.0, table)
        hi = constants_chain(0.2, 0.05, 0.1, 0.1, 1.0, 0.0, 2.0, table)
        for k in lo:
            assert hi[k] >= lo[k]

    def test_c_second_tilde_branches(self, table):
        # diffusion-dominated vs data-dominated branch
        small = c_second_tilde(1.0, 1.0, 1e-12, table)
        assert small == pytest.approx(2.0)
        big = c_second_tilde(0.01, 0.01, 100.0, table)
        assert big == pytest.approx(
            table.C_tripleprime(-1.0) * math.sqrt(200.0), rel=1e-12)


class TestXiRoutes:
    def test_algebraic_and_chain_routes_agree(self, delta_std):
        st0 = m.make_initial("random-spectrum",
                             {"norm_v": 0.3, "norm_b": 0.15}, N=4, seed=2,
                             nu=0.1, eta=0.1)
        h = 1e-3
        st1 = step(st0, h)
        st2 = step(st1, h)
        xa = xi_fields(st1, delta_std)
        xc = xi_fields_chain(st0, st1, st2, delta_std)
        scale = max(xa.xi_v.max_abs(), xa.xi_b.max_abs())
        assert np.max(np.abs(xa.xi_v.coeffs - xc.xi_v.coeffs)) <= 1e-4 * scale
        assert np.max(np.abs(xa.xi_b.coeffs - xc.xi_b.coeffs)) <= 1e-4 * scale
        assert xa.phi == pytest.approx(xc.phi, abs=1e-10)

    def test_chain_requires_time_order(self, delta_std):
        st = m.make_initial("random-spectrum", {}, N=3, seed=1,
                            nu=0.1, eta=0.1)
        with pytest.raises(DomainError):
            xi_fields_chain(st, st, st, delta_std)

    def test_xi_norm_recovers_derivative_norm(self, delta_std):
        st = MhdState(V=random_field(4, 3, 0.3), B=random_field(4, 13, 0.3),
                      nu=0.1, eta=0.1)
        xi = xi_fields(st, delta_std)
        dV, dB = full_rhs(st)
        for s in (-1.0, 0.0, 1.0):
            direct = sobolev_norm(dV, s) ** 2 + sobolev_norm(dB, s) ** 2
            assert derivative_norm_sq_via_xi(xi, s) == pytest.approx(
                direct, rel=1e-11)


class TestPointwise:
    def test_unknown_id(self, singlemode_state, table):
        with pytest.raises(DomainError):
            verify_pointwise("P99", singlemode_state, table)

    def test_p40_passes(self, singlemode_state, table, delta_std):
        rep = verify_pointwise("P40", singlemode_state, table, delta=delta_std)
        assert rep.verdict == "pass"
        assert rep.s == -0.5
        assert rep.lhs <= rep.rhs

    def test_p40_needs_delta(self, singlemode_state, table):
        with pytest.raises(DomainError):
            verify_pointwise("P40", singlemode_state, table)

    @pytest.mark.parametrize("s", [-0.5, -1.0, -2.0])
    def test_p42_passes(self, singlemode_state, table, delta_std, s):
        rep = verify_pointwise("P42", singlemode_state, table,
                               delta=delta_std, s=s)
        assert rep.verdict == "pass"

    def test_p42_non_finite_rhs_never_passes(self, singlemode_state, table, delta_std):
        # Near s = -5/2 the chain needs C_s at s -> 3/2, whose estimate
        # overflows to inf; an infinite rhs must not make P42 hold.
        fresh = m.ConstantsTable.from_snapshot(copy.deepcopy(table.snapshot()))
        rep = verify_pointwise("P42", singlemode_state, fresh,
                               delta=delta_std, s=-2.5 + 1e-9)
        assert not math.isfinite(rep.rhs)
        assert rep.verdict == "informational"
        assert "rhs not finite (C[1.49999999" in rep.note

    def test_p42_domain(self, singlemode_state, table, delta_std):
        with pytest.raises(DomainError):
            verify_pointwise("P42", singlemode_state, table,
                             delta=delta_std, s=0.0)

    @pytest.mark.parametrize("s", [-1.0, 0.0, 1.0])
    def test_p44_passes(self, singlemode_state, table, s):
        rep = verify_pointwise("P44", singlemode_state, table, s=s)
        assert rep.verdict == "pass"

    def test_p44_domain(self, singlemode_state, table):
        with pytest.raises(DomainError):
            verify_pointwise("P44", singlemode_state, table, s=-1.5)

    def test_p51_passes(self, singlemode_state, table):
        rep = verify_pointwise("P51", singlemode_state, table)
        assert rep.verdict == "pass"
        assert rep.s == -1.0

    def test_p52_passes(self, singlemode_state, table):
        rep = verify_pointwise("P52", singlemode_state, table, s=-4.0)
        assert rep.verdict == "pass"

    def test_p52_domain(self, singlemode_state, table):
        with pytest.raises(DomainError):
            verify_pointwise("P52", singlemode_state, table, s=-3.0)

    def test_vacuous_on_zero_state(self, table):
        z = m.SpectralField.zeros(3)
        st = MhdState(V=z, B=z, nu=0.1, eta=0.1)
        rep = verify_pointwise("P44", st, table, s=0.0)
        assert rep.verdict == "vacuous"

    @pytest.mark.parametrize("id,s", [("P42", 1.0), ("P42", None),
                                      ("P44", -1.5), ("P52", -3.0)])
    def test_domain_checked_before_any_work(self, singlemode_state, table,
                                            delta_std, monkeypatch, id, s):
        import mhdgevrey.solver as solver

        def forbidden(*args, **kwargs):
            raise AssertionError("derivative evaluated outside the domain")

        monkeypatch.setattr(solver, "nonlinear_rhs_fast", forbidden)
        with pytest.raises(DomainError):
            verify_pointwise(id, singlemode_state, table, delta=delta_std, s=s)

    def test_report_serialises(self, singlemode_state, table):
        rep = verify_pointwise("P51", singlemode_state, table)
        d = rep.as_dict()
        assert set(d) == {"id", "s", "T", "lhs", "rhs", "ratio",
                          "constants_used", "verdict", "note"}


class TestCheckpointScan:
    def test_one_nonlinear_evaluation_per_checkpoint(self, random_trace, table,
                                                     delta_std, monkeypatch):
        import mhdgevrey.solver as solver

        calls = []
        real = solver.nonlinear_rhs_fast

        def counting(state, *args, **kwargs):
            calls.append(state.t)
            return real(state, *args, **kwargs)

        monkeypatch.setattr(solver, "nonlinear_rhs_fast", counting)
        reports = standard_sweep(random_trace, table, delta=delta_std, sigma=0.05)
        times = [st.t for st in random_trace.checkpoints()]
        assert calls == times
        assert [r.id for r in reports[-5:]] == list(POINTWISE_IDS)

    def test_worst_matches_single_state_checks(self, random_trace, table,
                                               delta_std):
        states = random_trace.checkpoints()
        e_init = 0.5 * (sobolev_norm(states[0].V, 0.0) ** 2
                        + sobolev_norm(states[0].B, 0.0) ** 2)
        reports = standard_sweep(random_trace, table, delta=delta_std, sigma=0.05)
        for rep, (id, s) in zip(reports[-5:], SWEEP_POINTWISE_CASES):
            singles = [verify_pointwise(id, st, table, delta=delta_std, s=s,
                                        e_init=e_init) for st in states]
            worst = max(singles, key=lambda r: r.ratio)  # earliest of equals
            assert rep.as_dict() == worst.as_dict()


INTEGRAL_CASES = [
    ("B19", 0.75, {}),
    ("B19", 1.0, {}),
    ("B29", 0.0, {}),
    ("B32_1", 2.0, {}),
    ("B32_1", 3.0, {}),
    ("B32_2", 0.5, {}),
    ("B32_2", 1.0, {}),
    ("B32_3", 0.0, {}),
    ("B32_3", 1.0, {}),
    ("COR51", 1.0, {"p": 4.0}),
    ("B36_1", 0.0, {}),
    ("B36_1", 1.0, {}),
    ("B36_2", -1.0, {}),
    ("B36_3", -3.0, {}),
    ("B36_4", -1.0, {}),
    ("B36_4", 0.0, {}),
]


class TestIntegral:
    @pytest.mark.parametrize("id,s,kw", INTEGRAL_CASES)
    def test_passes_on_singlemode_run(self, singlemode_trace, table,
                                      delta_std, id, s, kw):
        T = float(singlemode_trace.times[-1])
        rep = verify_integral(id, singlemode_trace, s, T, table,
                              delta=delta_std, sigma=0.05, **kw)
        assert rep.verdict in ("pass", "vacuous"), rep
        assert rep.ratio <= 1.0 or rep.rhs == 0.0

    @pytest.mark.parametrize("id,s,kw", INTEGRAL_CASES)
    def test_passes_on_random_run(self, random_trace, table, delta_std,
                                  id, s, kw):
        T = float(random_trace.times[-1])
        rep = verify_integral(id, random_trace, s, T, table,
                              delta=delta_std, sigma=0.05, **kw)
        assert rep.verdict in ("pass", "vacuous"), rep

    def test_unknown_id(self, singlemode_trace, table):
        with pytest.raises(DomainError):
            verify_integral("B99", singlemode_trace, 1.0, 0.05, table)

    def test_domain_checks(self, singlemode_trace, table, delta_std):
        T = float(singlemode_trace.times[-1])
        for id, s, kw in [("B19", 0.4, {}), ("B32_1", 1.0, {}),
                          ("B32_2", 1.5, {}), ("B32_3", -1.0, {}),
                          ("COR51", 0.0, {"p": 1.0}), ("B36_1", -1.0, {}),
                          ("B36_2", 0.0, {}), ("B36_3", -1.0, {}),
                          ("B36_4", -3.0, {})]:
            with pytest.raises(DomainError):
                verify_integral(id, singlemode_trace, s, T, table,
                                delta=delta_std, sigma=0.05, **kw)

    def test_missing_columns_raise_trace_error(self, singlemode_trace, table,
                                               delta_std):
        T = float(singlemode_trace.times[-1])
        # s = 1.5 has no stored Wiener column in the fixture diagnostics
        with pytest.raises(TraceError):
            verify_integral("B32_3", singlemode_trace, 1.5, T, table,
                            delta=delta_std)

    def test_window_outside_trace(self, singlemode_trace, table, delta_std):
        with pytest.raises(TraceError):
            verify_integral("B32_1", singlemode_trace, 2.0, -1.0, table,
                            delta=delta_std)

    def test_b36_2_notes_derivation(self, singlemode_trace, table, delta_std):
        T = float(singlemode_trace.times[-1])
        rep = verify_integral("B36_2", singlemode_trace, -1.0, T, table,
                              delta=delta_std)
        assert "derivation-dependent RHS" in rep.note

    def test_b19_window_note(self, random_trace, table):
        T = float(random_trace.times[-1])
        rep = verify_integral("B19", random_trace, 0.75, T, table, sigma=0.05)
        # safety-factored constants keep the guaranteed window short here
        assert rep.verdict == "pass"
        assert "guaranteed window" in rep.note


class TestHarnessInternals:
    def test_quadrature_note_flags_spikes(self):
        x = np.linspace(0.0, 1.0, 9)
        y = np.zeros(9)
        y[3] = 1.0  # vanishes on the half-stride grid
        assert "quadrature" in _quadrature_note(y, x)
        assert _quadrature_note(np.ones(9), x) == ""
        assert _quadrature_note(np.ones(3), x[:3]) == ""

    def test_retry_reestimates_and_recomputes(self):
        t = m.build_table(s_values=(0.5,), trials=4)
        key = t.skey_C(0.5)
        calls = []

        def rhs_fn():
            calls.append(1)
            return 7.0

        rhs, retried = _retry_with_better_constants(t, [key], rhs_fn, 5.0, 1.0)
        assert retried and rhs == 7.0 and len(calls) == 1
        assert t.meta["estimation"][key]["trials"] == 8

    def test_retry_skips_when_passing_or_exact(self, table):
        rhs, retried = _retry_with_better_constants(
            table, ["C[0.5]"], lambda: 99.0, 1.0, 2.0)
        assert rhs == 2.0 and not retried
        t = m.ConstantsTable()
        rhs, retried = _retry_with_better_constants(
            t, [], lambda: 99.0, 5.0, 1.0)
        assert rhs == 1.0 and not retried

    def test_d2_report_checkpoints(self, singlemode_trace, table):
        rep = d2_report(singlemode_trace, -4.0, table)
        assert rep.verdict == "pass"
        assert "max over" in rep.note

    def test_d2_report_domain(self, singlemode_trace, table):
        with pytest.raises(DomainError):
            d2_report(singlemode_trace, -3.0, table)

    def test_id_lists_disjoint(self):
        assert not set(INTEGRAL_IDS) & set(POINTWISE_IDS)
