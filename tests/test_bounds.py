"""Constant chains and inequality verification on archived trajectories."""

import copy
import json
import math
import re

import numpy as np
import pytest

import mhdgevrey as m
from mhdgevrey import bounds
from mhdgevrey.bounds import (
    BOUNDS,
    BoundReport,
    INTEGRAL_IDS,
    POINTWISE_IDS,
    SWEEP_POINTWISE_CASES,
    alpha_exponent,
    c_second_tilde,
    d1_constant,
    d2_constant,
    d3_constant,
    d4_constant,
    q_double,
    q_prime,
    q_tilde,
    q_tilde_wiener,
    standard_sweep,
    verify_integral,
    verify_pointwise,
    _quadrature_note,
    _retry_with_better_constants,
    _verify_pairs,
)
from mhdgevrey.errors import DomainError, TraceError
from mhdgevrey.solver import MhdState, full_rhs, step
from mhdgevrey.spectral import _energy, sobolev_norm
from mhdgevrey.transform import _energy_s

from conftest import random_field
from oracles import weighted, xi_fields_chain


class TestExponents:
    def test_alpha(self):
        assert alpha_exponent(1.5) == 1.0
        assert alpha_exponent(2.0) == pytest.approx(2.0 / 3.0)

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

    @staticmethod
    def _chain(s, table, Q=0.3, delta=0.05, nu=0.1, eta=0.1, dT=1.0):
        """The rhs constants defined at s, by name."""
        mn = min(nu, eta)
        chain = {
            "Qprime": lambda: q_prime(Q, delta, mn, dT),
            "Qdouble_s": lambda: q_double(Q, delta, mn, dT, s),
            "Qtilde_s": lambda: q_tilde(Q, delta, mn, dT, s),
            "QtildeW_s": lambda: q_tilde_wiener(Q, delta, mn, dT, s),
            "D1_s": lambda: d1_constant(Q, delta, nu, eta, dT, s, table),
            "D2_s": lambda: d2_constant(Q, delta, nu, eta, dT, s, table),
            "D3_s": lambda: d3_constant(Q, nu, eta, s, table),
            "D4_s": lambda: d4_constant(Q, delta, nu, eta, dT, s, table),
        }
        out = {}
        for name, value in chain.items():
            try:
                out[name] = value()
            except DomainError:
                pass
        return out

    @pytest.mark.parametrize("s,keys", [
        (2.0, {"Qprime", "Qdouble_s", "Qtilde_s", "QtildeW_s", "D1_s", "D4_s"}),
        (0.0, {"Qprime", "QtildeW_s", "D1_s", "D4_s"}),
        (-1.0, {"Qprime", "D2_s", "D4_s"}),
        (-3.0, {"Qprime", "D3_s"}),
    ])
    def test_chain_branches(self, table, s, keys):
        table.ensure_cp(2.0)
        out = self._chain(s, table)
        assert set(out) == keys
        assert all(v >= 0 for v in out.values())

    def test_chain_monotone_in_q(self, table):
        lo = self._chain(2.0, table, Q=0.1)
        hi = self._chain(2.0, table, Q=0.2)
        assert len(lo) == 6
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
    def test_algebraic_and_chain_routes_agree(self, table, delta_std):
        # The P40 and P42 left-hand sides that verify reports (Gevrey norms
        # of dU/dt at delta*Phi) against the norms of the chain-rule xi.
        st0 = m.make_initial("random-spectrum",
                             {"norm_v": 0.3, "norm_b": 0.15}, N=4, seed=2,
                             nu=0.1, eta=0.1)
        h = 1e-3
        st1 = step(st0, h)
        st2 = step(st1, h)
        xi_v, xi_b, phi = xi_fields_chain(st0, st1, st2, delta_std)
        # coefficient by coefficient against the weighted-copy reference
        ref_v, ref_b = (weighted(f, delta_std * phi) for f in full_rhs(st1))
        scale = max(ref_v.max_abs(), ref_b.max_abs())
        assert np.max(np.abs(ref_v.coeffs - xi_v.coeffs)) <= 1e-4 * scale
        assert np.max(np.abs(ref_b.coeffs - xi_b.coeffs)) <= 1e-4 * scale
        for s in (-0.5, -1.0, -2.0):
            rep = verify_pointwise("P42", st1, table, delta=delta_std, s=s)
            chain = sobolev_norm(xi_v, s) ** 2 + sobolev_norm(xi_b, s) ** 2
            assert rep.lhs == pytest.approx(chain, rel=1e-6)
        rep = verify_pointwise("P40", st1, table, delta=delta_std)
        chain = 0.5 * (sobolev_norm(xi_v, -0.5) ** 2 + sobolev_norm(xi_b, -0.5) ** 2)
        assert rep.lhs == pytest.approx(chain, rel=1e-6)

    def test_chain_requires_time_order(self, delta_std):
        st = m.make_initial("random-spectrum", {}, N=3, seed=1,
                            nu=0.1, eta=0.1)
        with pytest.raises(DomainError):
            xi_fields_chain(st, st, st, delta_std)

    def test_xi_norm_recovers_derivative_norm(self, delta_std):
        # ||xi||_s of xi = e^{dP|n|} dU/dt is the Gevrey norm of dU/dt at dP;
        # at dP = 0 both are the plain derivative norm
        st = MhdState(V=random_field(4, 3, 0.3), B=random_field(4, 13, 0.3),
                      nu=0.1, eta=0.1)
        rhs = full_rhs(st)
        for dp in (0.0, delta_std * m.solve_phi(st.V, st.B, delta_std), 0.5):
            xi_v, xi_b = (weighted(f, dp) for f in rhs)
            for s in (-1.0, 0.0, 1.0):
                via_xi = sobolev_norm(xi_v, s) ** 2 + sobolev_norm(xi_b, s) ** 2
                assert via_xi == pytest.approx(_energy(rhs, s, dp), rel=1e-11)
                if dp == 0.0:
                    direct = sobolev_norm(rhs[0], s) ** 2 + sobolev_norm(rhs[1], s) ** 2
                    assert via_xi == pytest.approx(direct, rel=1e-11)


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
        # Near s = -5/2 the chain needs C_s at s -> 3/2; a table may hold an
        # infinite value there, and an infinite rhs must not make P42 hold.
        s = -2.5 + 1e-9
        snap = copy.deepcopy(table.snapshot())
        snap["entries"][m.ConstantsTable.skey_C(-1.0 - s)] = {
            "value": math.inf, "provenance": "estimated"}
        fresh = m.ConstantsTable.from_snapshot(snap)
        rep = verify_pointwise("P42", singlemode_state, fresh, delta=delta_std, s=s)
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

    def test_p52_names_its_sup_norm_constant(self, singlemode_state, table):
        # the rhs multiplies by c_{-s-2}; the report used to list only C
        rep = verify_pointwise("P52", singlemode_state, table, s=-4.0).as_dict()
        assert "c[2.0]" in [c["name"] for c in rep["constants_used"]]

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

    def test_report_dict_is_strict_json(self):
        # a number that is not finite becomes null; the note keeps its value
        rep = BoundReport("B36_1", 0.0, 1.0, 1.0, 0.0, math.inf, verdict="informational",
                          note="Q < 0", constants_used=[{"name": "C[0.5]", "value": math.inf,
                                                         "provenance": "estimated"}])
        d = json.loads(json.dumps(rep.as_dict(), allow_nan=False))
        assert d["ratio"] is None and d["constants_used"][0]["value"] is None
        assert d["note"] == "Q < 0; ratio = inf, C[0.5] = inf written as null"
        assert rep.ratio == math.inf


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
        reports = standard_sweep(random_trace, table)
        times = [st.t for st in random_trace.checkpoints()]
        assert calls == times
        assert [r.id for r in reports[-5:]] == [id for id, _ in SWEEP_POINTWISE_CASES]

    def test_worst_matches_single_state_checks(self, random_trace, table,
                                               delta_std):
        states = random_trace.checkpoints()
        e_init = 0.5 * (sobolev_norm(states[0].V, 0.0) ** 2
                        + sobolev_norm(states[0].B, 0.0) ** 2)
        reports = standard_sweep(random_trace, table)
        for rep, (id, s) in zip(reports[-5:], SWEEP_POINTWISE_CASES):
            singles = [verify_pointwise(id, st, table, delta=delta_std, s=s,
                                        e_init=e_init) for st in states]
            worst = max(singles, key=lambda r: r.ratio)  # earliest of equals
            assert rep.as_dict() == worst.as_dict()


    def test_scan_stops_at_T(self, random_trace, table, delta_std):
        # only the checkpoints with t <= T are read; the worst P44 state of
        # the whole run lies after T here, and used to be reported
        states = random_trace.checkpoints()
        whole = max((verify_pointwise("P44", st, table, s=0.0) for st in states),
                    key=lambda r: r.ratio)
        T = states[len(states) // 2].t
        assert whole.T > T
        [rep] = _verify_pairs([("P44", 0.0)], random_trace, table, T)
        singles = [verify_pointwise("P44", st, table, s=0.0, e_init=None)
                   for st in states if st.t <= T]
        assert rep.T <= T
        assert rep.as_dict() == max(singles, key=lambda r: r.ratio).as_dict()
        with pytest.raises(TraceError, match="no checkpoint at or before T = -1"):
            _verify_pairs([("P44", 0.0)], random_trace, table, -1.0)


_NO_VALUES = {"delta": None, "sigma": None, "p": None}

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


# Verdicts other than pass/vacuous a bound may give on the N=6 and N=8
# fixtures: B19's window t_star (below 1e-7 on both) ends before the first
# sample after t0, so B19 is informational there.
_FIXTURE_VERDICTS = {"B19": ("informational",)}


class TestIntegral:
    @pytest.mark.parametrize("id,s,kw", INTEGRAL_CASES)
    def test_passes_on_singlemode_run(self, singlemode_trace, table, id, s, kw):
        T = float(singlemode_trace.times[-1])
        rep = verify_integral(id, singlemode_trace, s, T, table, **kw)
        assert rep.verdict in _FIXTURE_VERDICTS.get(id, ("pass", "vacuous")), rep
        assert rep.ratio <= 1.0 or rep.rhs == 0.0

    @pytest.mark.parametrize("id,s,kw", INTEGRAL_CASES)
    def test_passes_on_random_run(self, random_trace, table, id, s, kw):
        T = float(random_trace.times[-1])
        rep = verify_integral(id, random_trace, s, T, table, **kw)
        assert rep.verdict in _FIXTURE_VERDICTS.get(id, ("pass", "vacuous")), rep

    def test_unknown_id(self, singlemode_trace, table):
        with pytest.raises(DomainError):
            verify_integral("B99", singlemode_trace, 1.0, 0.05, table)

    def test_domain_checks(self, singlemode_trace, table):
        T = float(singlemode_trace.times[-1])
        for id, s, kw in [("B19", 0.4, {}), ("B32_1", 1.0, {}),
                          ("B32_2", 1.5, {}), ("B32_3", -1.0, {}),
                          ("COR51", 0.0, {"p": 1.0}), ("B36_1", -1.0, {}),
                          ("B36_2", 0.0, {}), ("B36_3", -1.0, {}),
                          ("B36_4", -3.0, {})]:
            with pytest.raises(DomainError):
                verify_integral(id, singlemode_trace, s, T, table, **kw)

    def test_missing_columns_raise_trace_error(self, singlemode_trace, table):
        T = float(singlemode_trace.times[-1])
        # s = 1.5 has no stored Wiener column in the fixture diagnostics
        with pytest.raises(TraceError):
            verify_integral("B32_3", singlemode_trace, 1.5, T, table)

    def test_window_outside_trace(self, singlemode_trace, table):
        with pytest.raises(TraceError):
            verify_integral("B32_1", singlemode_trace, 2.0, -1.0, table)

    @pytest.mark.parametrize("id,s", [("B32_1", 2.0), ("B36_1", 1.0), ("B29", None)])
    def test_window_past_the_last_sample(self, singlemode_trace, table, id, s):
        # the rhs used T - t0 while the lhs integral stopped at the last
        # sample, so a T far past the archive made every bound easier
        T = float(singlemode_trace.times[-1])
        with pytest.raises(TraceError, match=r"trace does not cover \[t0, T\]"):
            verify_integral(id, singlemode_trace, s, 1000.0, table)
        assert verify_integral(id, singlemode_trace, s, T + 1e-13, table).verdict == "pass"

    def test_b36_2_notes_derivation(self, singlemode_trace, table):
        T = float(singlemode_trace.times[-1])
        rep = verify_integral("B36_2", singlemode_trace, -1.0, T, table)
        assert "derivation-dependent RHS" in rep.note

    def test_b19_window_note(self, random_trace, table):
        T = float(random_trace.times[-1])
        rep = verify_integral("B19", random_trace, 0.75, T, table)
        # safety-factored constants keep the guaranteed window far shorter
        # than one output stride here; the note gives its length
        assert rep.verdict == "informational"
        assert "guaranteed window" in rep.note
        t_star = float(re.search(r"t_star = (\S+)\)", rep.note).group(1))
        assert 0.0 < t_star < random_trace.times[1] - random_trace.times[0]

    @pytest.mark.parametrize("id,s,p", [("B32_1", 2.0, None), ("B32_3", 0.0, None),
                                        ("COR51", 1.0, 4.0), ("B36_1", 0.0, None),
                                        ("B36_4", 0.0, None), ("B29", None, None),
                                        ("P40", None, None), ("RAD", None, None)])
    def test_zero_delta_is_outside_the_domain(self, id, s, p):
        # a delta = 0 archive used to reach the rhs chains: ZeroDivisionError
        # (B32_1, B36_1, COR51) or a DomainError from lattice_constant
        # (B32_3, B36_4) partway through verify
        error = BOUNDS[id].inapplicable(s, {"delta": 0.0, "sigma": None, "p": p})
        assert isinstance(error, DomainError) and str(error) == "delta must be positive"


    @pytest.mark.parametrize("seed", range(4))
    def test_b19_exact_at_t0_on_large_data(self, tmp_path, table_json, seed):
        # E_s > 1 at t0: q_s(0) used to round below the data norm, so the
        # t0 sample failed at ratio 1 + 2^-52 and re-estimated constants
        st = m.make_initial("random-spectrum", {"norm_v": 1.5, "norm_b": 1.0},
                            N=4, seed=seed, nu=0.1, eta=0.1)
        cfg = m.SolverConfig(N=4, nu=0.1, eta=0.1, dt=1e-3, t_end=0.01,
                             output_stride=2, scheme="integrating-factor-RK2")
        trace = m.simulate(cfg, st, tmp_path, diagnostics=m.DiagnosticsSpec(
            s_grid=(0.0,), ft_sigma=0.05, ft_s=(0.95,)))
        table = m.ConstantsTable.from_json(table_json)
        rep = verify_integral("B19", trace, 0.95, float(trace.times[-1]), table)
        assert rep.verdict != "fail"
        assert rep.ratio <= 1.0
        assert "re-estimated" not in rep.note


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
        assert t.entries[key]["trials"] == 8

    def test_retry_skips_when_passing_or_exact(self, table):
        rhs, retried = _retry_with_better_constants(
            table, ["C[0.5]"], lambda: 99.0, 1.0, 2.0)
        assert rhs == 2.0 and not retried
        t = m.ConstantsTable()
        rhs, retried = _retry_with_better_constants(
            t, [], lambda: 99.0, 5.0, 1.0)
        assert rhs == 1.0 and not retried

    @pytest.mark.parametrize("id,s", [
        ("B32_1", 2.0), ("B32_3", 0.0), ("COR51", 1.0), ("B36_1", 0.0),
        ("B36_2", -1.0), ("B36_3", -3.0), ("B36_4", 0.0)])
    def test_negative_q_is_informational_without_reestimation(
            self, singlemode_trace, table, monkeypatch, id, s):
        # Q < 0 sets the verdict in _Window.against_q: the rhs chain, whose
        # sqrt(Q) is undefined there, is not evaluated; the row is
        # informational with rhs 0, and no constant is re-estimated although
        # lhs > rhs.
        monkeypatch.setattr(bounds._Window, "Q", property(lambda self: -1.0))
        t = copy.deepcopy(table)
        reestimated = []
        monkeypatch.setattr(t, "reestimate", reestimated.append)
        rep = verify_integral(id, singlemode_trace, s,
                              float(singlemode_trace.times[-1]), t, p=4.0)
        assert rep.lhs > rep.rhs == 0.0
        assert rep.verdict == "informational"
        assert "Q < 0" in rep.note and "overflow" not in rep.note
        assert reestimated == []

    def test_sweep_names_each_constant_once(self, random_trace, table):
        # a repeated name made a failing row re-estimate that constant twice
        for rep in standard_sweep(random_trace, copy.deepcopy(table)):
            names = [c["name"] for c in rep.constants_used]
            assert len(names) == len(set(names)), rep.id

    def test_failing_row_reestimates_each_constant_once(self, singlemode_trace,
                                                        monkeypatch):
        # B19 at s = 3/4 reads C_{3/4} twice, through C'_{3/4} = C_{3/4}^2;
        # an envelope of 0 makes it fail, and the retry doubles the trials once
        def vanishing(table, s, sigma, mn, e0, tau):
            table.Cprime(s)
            return math.inf, np.zeros_like(tau)

        monkeypatch.setattr(bounds, "_growth_envelope", vanishing)
        t = m.build_table(trials=4)
        rep = verify_integral("B19", singlemode_trace, 0.75,
                              float(singlemode_trace.times[-1]), t)
        assert rep.verdict == "fail" and "re-estimated constants" in rep.note
        assert t.entries["C[0.75]"]["trials"] == 8
        assert [c["name"] for c in rep.constants_used] == ["C[0.75]"]

    def test_d2_report_checkpoints(self, singlemode_trace, table):
        # P52 over the stored checkpoints: the worst single-state report
        [rep] = _verify_pairs([("P52", -4.0)], singlemode_trace, table,
                              float(singlemode_trace.times[-1]), _NO_VALUES)
        assert rep.verdict == "pass"
        states = singlemode_trace.checkpoints()
        e_init = 0.5 * _energy_s(states[0], 0.0)
        singles = [verify_pointwise("P52", st, table, s=-4.0, e_init=e_init)
                   for st in states]
        assert len(singles) > 1
        assert rep.as_dict() == max(singles, key=lambda r: r.ratio).as_dict()

    def test_d2_report_domain(self, singlemode_trace, table):
        with pytest.raises(DomainError):
            _verify_pairs([("P52", -3.0)], singlemode_trace, table,
                          float(singlemode_trace.times[-1]), _NO_VALUES)

    def test_id_lists_disjoint(self):
        assert not set(INTEGRAL_IDS) & set(POINTWISE_IDS)
