"""End-to-end acceptance battery.

Each test here states one headline guarantee of the package at desk scale:
energy conservation of the integrator, oracle equivalence of the fast
convolution, closed-form single-mode behaviour, the Phi root solver, lattice
constants, the elementary inequalities underlying every estimate, the full
bound sweep with pinned regression ratios, time-derivative consistency,
radius tracking and resolution convergence.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import mhdgevrey as m
from mhdgevrey.bounds import (
    verify_integral,
    verify_pointwise,
    xi_fields,
    xi_fields_chain,
)
from mhdgevrey.constants import lattice_constant, lattice_sum
from mhdgevrey.solver import (
    full_rhs,
    nonlinear_rhs_direct,
    nonlinear_rhs_fast,
    second_time_derivative,
    step,
)
from mhdgevrey.spectral import SpectralField, geometry, gevrey_norm, sobolev_norm
from mhdgevrey.transform import _theta, balance_residual, foias_temam_norms, solve_phi

from sweep_runs import SWEEP_SIGMA, make_sweep_trace

DATA = Path(__file__).parent / "data" / "bound_ratios.json"


def pin_key(report):
    return "%s:%s" % (report.id,
                      "%g" % report.s if report.s is not None else "-")


# -- 1. energy identity on a long run -----------------------------------------


@pytest.mark.slow
def test_energy_identity_long_run(monkeypatch, record_property):
    """Half the squared L2 norm plus the accumulated dissipation integral
    stays constant to 1e-6 per unit time over T=2 at N=16.

    The run stays at desk scale only on the padded-transform path: a step
    that fell back to the O(N^6) direct sum would cost about 100 s per
    nonlinear evaluation here, so the direct sum is made to raise for the
    whole loop.  Wall time is recorded, not asserted; per-step cost is
    measured by perfbench/run.py.
    """
    st = m.make_initial("random-spectrum", {"norm_v": 0.3, "norm_b": 0.15},
                        N=16, seed=3, nu=0.1, eta=0.1)
    dt, T = 1e-3, 2.0
    nsteps = round(T / dt)

    def energy(s):
        return 0.5 * (sobolev_norm(s.V, 0.0) ** 2 + sobolev_norm(s.B, 0.0) ** 2)

    def dissipation(s):
        return (s.nu * sobolev_norm(s.V, 1.0) ** 2
                + s.eta * sobolev_norm(s.B, 1.0) ** 2)

    def direct_sum_forbidden(state):
        raise AssertionError(
            "step left the transform path: O(N^6) direct sum called at N=%d"
            % state.N)

    t_wall = time.monotonic()
    e0 = energy(st)
    diss = [dissipation(st)]
    with monkeypatch.context() as mp:
        mp.setattr("mhdgevrey.solver.nonlinear_rhs_direct", direct_sum_forbidden)
        for _ in range(nsteps):
            st = step(st, dt, scheme="integrating-factor-RK2")
            diss.append(dissipation(st))
    elapsed = time.monotonic() - t_wall
    record_property("elapsed_s", round(elapsed, 1))
    residual = abs(energy(st) + np.trapezoid(diss, dx=dt) - e0) / (e0 * T)
    assert residual <= 1e-6, (
        "energy identity residual %.3e per unit time (e0=%.6e, T=%g)"
        % (residual, e0, T))


# -- 2. convolution oracle equivalence -----------------------------------------


def test_fast_convolution_matches_direct_sum_50_seeds():
    worst = 0.0
    for seed in range(50):
        st = m.make_initial("random-spectrum",
                            {"norm_v": 0.7, "norm_b": 0.4},
                            N=6, seed=seed, nu=0.1, eta=0.1)
        fv, fb = nonlinear_rhs_fast(st)
        dv, db = nonlinear_rhs_direct(st)
        ref = max(np.max(np.abs(dv.coeffs)), np.max(np.abs(db.coeffs)))
        err = max(np.max(np.abs(fv.coeffs - dv.coeffs)),
                  np.max(np.abs(fb.coeffs - db.coeffs)))
        worst = max(worst, err / ref)
    assert worst <= 1e-12


# -- 3. single-mode fixture suite ----------------------------------------------


SM_PARAMS = {"n_v": (0, 0, 1), "amp_v": [1.0, 1j, 0.0],
             "n_b": (0, 0, 1), "amp_b": [0.5, 0.5j, 0.0]}
SM_NU, SM_ETA = 0.1, 0.2


@pytest.fixture(scope="module")
def singlemode_acceptance_trace(tmp_path_factory, table, delta_std):
    initial = m.make_initial("single-mode", SM_PARAMS, N=8,
                             nu=SM_NU, eta=SM_ETA)
    cfg = m.SolverConfig(N=8, nu=SM_NU, eta=SM_ETA, dt=1e-3, t_end=0.05,
                         output_stride=5, checkpoint_stride=10,
                         scheme="integrating-factor-RK2")
    diag = m.DiagnosticsSpec(
        s_grid=(0.0, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0), delta=delta_std,
        derivative_s=(0.0, 1.0, -1.0, -3.0), wiener_s=(-1.0, 0.0, 1.0),
        lq_grid=((4.0, 1.0),), ft_sigma=0.05, ft_s=(0.75, 1.0),
        tilde_s=(0.0, 0.5, 1.0, 1.5))
    out = tmp_path_factory.mktemp("sm_accept")
    return m.simulate(cfg, initial, out / "trace", diagnostics=diag,
                      manifest_extra={"delta": delta_std, "sigma": 0.05})


class TestSingleModeSuite:
    def test_terminal_coefficients_exact_decay(self,
                                               singlemode_acceptance_trace):
        tr = singlemode_acceptance_trace
        initial, final = tr.checkpoints()[0], tr.checkpoints()[-1]
        T = tr.times[-1]
        n = SM_PARAMS["n_v"]
        err_v = np.max(np.abs(final.V.coeff(n)
                              - initial.V.coeff(n) * math.exp(-SM_NU * T)))
        err_b = np.max(np.abs(final.B.coeff(n)
                              - initial.B.coeff(n) * math.exp(-SM_ETA * T)))
        assert err_v <= 1e-10
        assert err_b <= 1e-10

    def test_growing_weight_envelope_on_closed_form(self, table):
        """Weighted energy stays strictly below its envelope along the exact
        exponential trajectory, sampled inside the guaranteed window."""
        st0 = m.make_initial("single-mode", SM_PARAMS, N=8,
                             nu=SM_NU, eta=SM_ETA)
        for s in (0.75, 1.0):
            t_star = foias_temam_norms(st0, 0.0, 0.05, s, table).t_star
            assert t_star > 0
            for k in range(1, 10):
                t = k * t_star / 10.0
                st = m.MhdState(
                    V=SpectralField(8, st0.V.coeffs * math.exp(-SM_NU * t)),
                    B=SpectralField(8, st0.B.coeffs * math.exp(-SM_ETA * t)),
                    nu=SM_NU, eta=SM_ETA, t=t)
                res = foias_temam_norms(st, 0.0, 0.05, s, table, initial=st0)
                assert math.isfinite(res.qs)
                assert res.lhs / res.qs < 1.0

    @pytest.mark.parametrize("bid,s", [("B29", None), ("B32_1", 2.0),
                                       ("B32_2", 1.0), ("B36_1", 0.0)])
    def test_integral_bounds_strict(self, singlemode_acceptance_trace, table,
                                    delta_std, bid, s):
        tr = singlemode_acceptance_trace
        rep = verify_integral(bid, tr, s, tr.times[-1], table,
                              delta=delta_std, sigma=0.05)
        assert rep.verdict == "pass"
        assert rep.ratio < 1.0


# -- 4. Phi root ----------------------------------------------------------------


class TestPhiRoot:
    def test_residual_on_100_random_fields(self):
        worst = 0.0
        for seed in range(100):
            st = m.make_initial("random-spectrum",
                                {"norm_v": 1.0, "norm_b": 0.5},
                                N=4, seed=seed, nu=0.1, eta=0.1)
            phi = solve_phi(st.V, st.B, 0.2)
            worst = max(worst, abs(_theta(st.V, st.B, 0.2, phi)))
        assert worst <= 1e-12

    def test_hand_derived_single_mode_root(self):
        # Theta(Phi) = 0.5 e^{0.2 Phi} + 1 - Phi^{-2} has its root at
        # Phi = 0.79404 (one unit-energy mode pair at |n| = 1).
        V = SpectralField.from_modes(
            4, {(0, 0, 1): 0.5 * np.array([1.0, 0.0, 0.0])},
            add_conjugates=True)
        B = SpectralField.zeros(4)
        assert solve_phi(V, B, 0.1) == pytest.approx(0.7940, abs=5e-4)


# -- 5. lattice sums against the closed-form constant ---------------------------


def test_lattice_sums_bounded_by_closed_form():
    for p in (-1.0, 0.0, 1.0, 2.0):
        for a in (0.5, 1.0, 2.0):
            cpa = lattice_constant(p, a)
            for phi in (0.1, 0.5, 1.0):
                direct = lattice_sum(
                    lambda r: np.exp(-a * phi * r) * r ** p, radius=300)
                assert direct <= cpa ** 2 * phi ** (-(p + 3.0))


# -- 6. elementary inequality property suite (10^4 cases each) -------------------


CASES = 10_000


def small_random_fields(count, N=2, seed=0):
    rng = np.random.default_rng(seed)
    g = geometry(N)
    size = 2 * N + 1
    at = tuple((g.modes + N).T)  # the ball inside the drawn cube
    for _ in range(count):
        c = rng.standard_normal((size, size, size, 3)) \
            + 1j * rng.standard_normal((size, size, size, 3))
        yield SpectralField(N, c[at])


class TestElementaryInequalities:
    def test_exponential_weight_peak(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0.1, 5.0, CASES)
        b = rng.uniform(0.05, 3.0, CASES)
        x = rng.uniform(1e-3, 100.0, CASES)
        lhs = x ** a * np.exp(-b * x)
        rhs = (a / (math.e * b)) ** a
        assert np.all(lhs <= rhs * (1 + 1e-12))

    def test_index_shift_between_weighted_norms(self):
        """Trading analyticity width for polynomial order:
        ||w||_{sigma', p} <= ||w||_{sigma, s} ((p-s)/(e(sigma-sigma')))^{p-s}."""
        rng = np.random.default_rng(12)
        for w in small_random_fields(CASES, seed=13):
            s = rng.uniform(0.25, 1.0)
            p = s + rng.uniform(0.25, 2.0)
            sigma = rng.uniform(0.1, 1.0)
            sigma_p = sigma * rng.uniform(0.0, 0.9)
            lhs = gevrey_norm(w, sigma_p, p)
            rhs = gevrey_norm(w, sigma, s) * (
                (p - s) / (math.e * (sigma - sigma_p))) ** (p - s)
            assert lhs <= rhs * (1 + 1e-12)

    def test_wavevector_triangle_split(self):
        rng = np.random.default_rng(14)
        draw = int(CASES * 1.5)
        n = rng.integers(-20, 21, size=(draw, 3))
        k = rng.integers(-20, 21, size=(draw, 3))
        an = np.linalg.norm(n, axis=1)
        ak = np.linalg.norm(k, axis=1)
        ad = np.linalg.norm(n - k, axis=1)
        ok = (an > 0) & (ak > 0) & (ad > 0)
        an, ak, ad = an[ok][:CASES], ak[ok][:CASES], ad[ok][:CASES]
        assert len(an) == CASES
        s = rng.uniform(0.0, 3.0, CASES)
        lhs = an ** s
        rhs = np.maximum(1.0, 2.0 ** (s - 1.0)) * (ak ** s + ad ** s)
        assert np.all(lhs <= rhs * (1 + 1e-12))

    def test_concave_power_subadditive(self):
        rng = np.random.default_rng(15)
        a = rng.uniform(0.0, 100.0, CASES)
        b = rng.uniform(0.0, 100.0, CASES)
        c = rng.uniform(0.0, 1.0, CASES)
        assert np.all((a + b) ** c <= (a ** c + b ** c) * (1 + 1e-12) + 1e-300)

    def test_sobolev_interpolation(self):
        for w in small_random_fields(CASES, seed=16):
            mid = sobolev_norm(w, 1.5) ** 2
            assert mid <= sobolev_norm(w, 1.0) * sobolev_norm(w, 2.0) \
                * (1 + 1e-12)

    def test_quarter_energy_coercivity(self):
        rng = np.random.default_rng(17)
        e0 = 10.0 ** rng.uniform(-6, 3, CASES)
        e1 = 10.0 ** rng.uniform(-6, 3, CASES)
        eh = rng.uniform(0.0, 1.0, CASES) * np.sqrt(e0 * e1)
        al = rng.uniform(0.0, 100.0, CASES)
        quad = 0.5 * e0 - al * eh + al ** 2 * e1
        tol = 1e-12 * (0.5 * e0 + al * eh + al ** 2 * e1)
        assert np.all(quad >= 0.25 * e0 - tol)


# -- 7. full bound sweep with pinned regression ratios ---------------------------


@pytest.fixture(scope="module")
def sweep16(tmp_path_factory, table):
    out = tmp_path_factory.mktemp("sweep16")
    return make_sweep_trace(16, out / "trace", table)


class TestStandardSweep:
    def test_all_bounds_pass_and_match_pins(self, sweep16, table):
        pins = json.loads(DATA.read_text())
        reports = m.standard_sweep(sweep16, table)
        assert {pin_key(r) for r in reports} == set(pins)
        for r in reports:
            pin = pins[pin_key(r)]
            assert r.verdict == pin["verdict"] == "pass", pin_key(r)
            assert r.ratio == pytest.approx(pin["ratio"], rel=1e-6), pin_key(r)

    @pytest.mark.slow
    def test_ratios_stable_under_refinement(self, tmp_path_factory, table):
        """The same configuration rerun at N=32 reproduces every pinned ratio
        to within 20 percent and still passes every bound."""
        pins = json.loads(DATA.read_text())
        out = tmp_path_factory.mktemp("sweep32")
        trace = make_sweep_trace(32, out / "trace", table)
        for r in m.standard_sweep(trace, table):
            pin = pins[pin_key(r)]["ratio"]
            assert r.verdict == "pass", pin_key(r)
            assert abs(r.ratio - pin) <= 0.2 * pin, \
                "%s: %g vs pinned %g" % (pin_key(r), r.ratio, pin)


# -- 8. xi consistency: algebraic vs chain-rule route ----------------------------


def test_xi_algebraic_and_chain_routes_agree(delta_std):
    st0 = m.make_initial("random-spectrum", {"norm_v": 0.3, "norm_b": 0.15},
                         N=4, seed=2, nu=0.1, eta=0.1)
    h = 1e-3
    st1 = step(st0, h)
    st2 = step(st1, h)
    xa = xi_fields(st1, delta_std)
    xc = xi_fields_chain(st0, st1, st2, delta_std)
    num = math.sqrt(np.sum(np.abs(xa.xi_v.coeffs - xc.xi_v.coeffs) ** 2)
                    + np.sum(np.abs(xa.xi_b.coeffs - xc.xi_b.coeffs) ** 2))
    den = math.sqrt(np.sum(np.abs(xa.xi_v.coeffs) ** 2)
                    + np.sum(np.abs(xa.xi_b.coeffs) ** 2))
    assert num / den <= 1e-6


# -- 9. second time derivative --------------------------------------------------


class TestSecondDerivative:
    def test_matches_finite_difference_of_rhs(self):
        st = m.make_initial("random-spectrum", {"norm_v": 0.3, "norm_b": 0.15},
                            N=4, seed=9, nu=0.1, eta=0.1)
        h = 1e-4
        st1 = step(st, h)
        st2 = step(st1, h)
        d2v, d2b = second_time_derivative(st1)
        f0v, f0b = full_rhs(st)
        f2v, f2b = full_rhs(st2)
        fdv = (f2v.coeffs - f0v.coeffs) / (2 * h)
        fdb = (f2b.coeffs - f0b.coeffs) / (2 * h)
        num = math.sqrt(np.sum(np.abs(d2v.coeffs - fdv) ** 2)
                        + np.sum(np.abs(d2b.coeffs - fdb) ** 2))
        den = math.sqrt(np.sum(np.abs(d2v.coeffs) ** 2)
                        + np.sum(np.abs(d2b.coeffs) ** 2))
        assert num / den <= 1e-6

    def test_second_derivative_bound_on_100_random_states(self, table):
        for seed in range(100):
            st = m.make_initial("random-spectrum",
                                {"norm_v": 0.5, "norm_b": 0.3},
                                N=4, seed=seed, nu=0.1, eta=0.1)
            rep = verify_pointwise("P52", st, table, s=-4.0)
            assert rep.verdict == "pass", "seed %d: ratio %g" % (seed,
                                                                 rep.ratio)


# -- 10. balance residual of the transformed system ------------------------------


class TestBalanceResidual:
    @staticmethod
    def residual_at(h, delta, n=3):
        st = m.make_initial("single-mode", SM_PARAMS, N=6,
                            nu=SM_NU, eta=SM_ETA)
        samples = []
        for _ in range(n):
            samples.append(m.transform(st, delta))
            st = step(st, h)
        return balance_residual(samples)

    def test_small_on_single_mode(self, delta_std):
        assert self.residual_at(1e-3, delta_std) <= 1e-6

    def test_second_order_in_step_size(self, delta_std):
        r_coarse = self.residual_at(0.04, delta_std)
        r_fine = self.residual_at(0.02, delta_std)
        order = math.log2(r_coarse / r_fine)
        assert order == pytest.approx(2.0, abs=0.3)


# -- 11. radius tracking at N=32 --------------------------------------------------


@pytest.mark.slow
def test_fitted_decay_dominates_guaranteed_radius(tmp_path, table, delta_std):
    initial = m.make_initial("random-spectrum", {"norm_v": 0.3, "norm_b": 0.15},
                             N=32, seed=7, nu=0.1, eta=0.1)
    cfg = m.SolverConfig(N=32, nu=0.1, eta=0.1, dt=1e-3, t_end=0.02,
                         output_stride=4, checkpoint_stride=4,
                         scheme="integrating-factor-RK2")
    diag = m.DiagnosticsSpec(s_grid=(0.0, 1.0), delta=delta_std,
                             derivative_s=(), wiener_s=(), lq_grid=(),
                             ft_sigma=None, ft_s=(), tilde_s=())
    tr = m.simulate(cfg, initial, tmp_path / "r32", diagnostics=diag,
                    manifest_extra={"delta": delta_std})
    rows = m.radius_check(tr, delta_std)
    eligible = [r for r in rows if math.isfinite(r["sigma_fit"])]
    assert len(eligible) >= 5
    good = [r for r in eligible
            if r["sigma_fit"] >= 0.9 * r["lower_bound"] and not r["flagged"]]
    assert len(good) >= 0.95 * len(eligible)


# -- 12. resolution convergence ---------------------------------------------------


@pytest.mark.slow
def test_refinement_gap_shrinks_with_resolution(tmp_path):
    def run(N, seed):
        initial = m.make_initial("random-spectrum",
                                 {"norm_v": 0.3, "norm_b": 0.15},
                                 N=N, seed=seed, nu=0.1, eta=0.1)
        cfg = m.SolverConfig(N=N, nu=0.1, eta=0.1, dt=2e-3, t_end=0.02,
                             output_stride=5, checkpoint_stride=5,
                             scheme="integrating-factor-RK2")
        diag = m.DiagnosticsSpec(s_grid=(0.0,), delta=None, derivative_s=(),
                                 wiener_s=(), lq_grid=(), ft_sigma=None,
                                 ft_s=(), tilde_s=())
        return m.simulate(cfg, initial, tmp_path / ("n%d_s%d" % (N, seed)),
                          diagnostics=diag)

    for seed in range(5):
        tr8, tr16, tr32 = run(8, seed), run(16, seed), run(32, seed)
        psi_lo = m.two_resolution_psi(tr8, tr16)[-1][1]
        psi_hi = m.two_resolution_psi(tr16, tr32)[-1][1]
        assert psi_lo > psi_hi, "seed %d: %g vs %g" % (seed, psi_lo, psi_hi)
