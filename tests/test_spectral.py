"""Field invariants, norms and weights of the spectral representation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mhdgevrey as m
from mhdgevrey.errors import DomainError, FieldInvariantError, GevreyOverflowError
from mhdgevrey.spectral import (
    SpectralField,
    fmt_s,
    geometry,
    lq_norm,
    sobolev_inner,
)

from conftest import random_field


def single_mode(N=4, n=(0, 0, 1), amp=(1.0, 1j, 0.0)):
    return SpectralField.from_modes(N, {tuple(n): 0.5 * np.asarray(amp, dtype=complex)})


class TestInvariants:
    def test_zero_field_valid(self):
        SpectralField.zeros(4).validate()

    def test_reality_violation_detected(self):
        w = single_mode()
        c = w.coeffs.copy()
        c[geometry(4).rows((0, 0, 1))] *= 1.0 + 1e-6  # break the conjugate pairing
        with pytest.raises(FieldInvariantError, match="reality violation at n="):
            SpectralField(4, c).validate()

    def test_solenoidality_violation_detected(self):
        w = single_mode()
        c = w.coeffs.copy()
        c[geometry(4).rows((0, 0, 1)), 2] += 1e-6
        c[geometry(4).rows((0, 0, -1)), 2] += 1e-6
        with pytest.raises(FieldInvariantError, match="solenoidality violation"):
            SpectralField(4, c).validate()

    def test_mean_mode_must_vanish(self):
        # the ball has no row for n = 0: an array with a row beyond its K
        # rows is rejected
        c = np.zeros((len(geometry(3).modes) + 1, 3), dtype=complex)
        c[-1] = [1.0, 0.0, 0.0]
        with pytest.raises(FieldInvariantError):
            SpectralField(3, c).validate()

    def test_leray_projection_kills_divergence(self):
        # every wavevector in [-5, 5]^3 lies in the ball of radius 9
        rng = np.random.default_rng(0)
        g = geometry(9)
        for _ in range(2):
            c = (rng.standard_normal((len(g.modes), 3))
                 + 1j * rng.standard_normal((len(g.modes), 3)))
            p = m.project_solenoidal(SpectralField(9, c)).coeffs
            dots = np.abs(np.einsum("kc,kc->k", p, g.modes.astype(float)))
            assert np.all(dots < 1e-12 * np.maximum(1.0, np.abs(c).max(axis=1)))

    def test_leray_projection_idempotent(self):
        w = SpectralField.from_modes(4, {(1, 2, -2): np.array([1.0 + 2j, -0.5, 3j])})
        p1 = m.project_solenoidal(w)
        p2 = m.project_solenoidal(p1)
        assert np.allclose(p1.coeffs, p2.coeffs, atol=1e-15)

    def test_project_solenoidal_roundtrip(self):
        w = random_field(5, seed=2)
        w2 = m.project_solenoidal(w)
        assert np.allclose(w.coeffs, w2.coeffs, atol=1e-13)


class TestNorms:
    def test_single_mode_sobolev_closed_form(self):
        # |n| = sqrt(5): two conjugate coefficients of squared magnitude 1/2.
        w = single_mode(6, n=(0, 1, 2), amp=(1.0, -2.0, 1.0))
        e = 0.25 * (1 + 4 + 1) * 2  # |c|^2 summed over the pair
        for s in (-1.0, 0.0, 0.7, 2.0):
            assert m.sobolev_norm(w, s) == pytest.approx(
                math.sqrt(e * 5.0**s), rel=1e-13
            )

    def test_gevrey_weight_closed_form(self):
        w = single_mode(4)
        s0 = m.sobolev_norm(w, 1.2)
        assert m.gevrey_norm(w, 0.3, 1.2) == pytest.approx(
            s0 * math.exp(0.3), rel=1e-13
        )

    def test_wiener_single_mode(self):
        w = single_mode(4, amp=(1.0, 1j, 0.0))
        # Euclidean magnitude of each coefficient is 0.5*sqrt(2), two modes.
        assert m.wiener_norm(w, 0.0) == pytest.approx(math.sqrt(2.0), rel=1e-13)

    def test_gevrey_overflow_guard(self):
        w = single_mode(4)
        with pytest.raises(GevreyOverflowError, match="gevrey weight overflow"):
            m.gevrey_norm(w, 1e6, 0.0)

    def test_norm_deterministic_across_orderings(self):
        w = random_field(8, seed=9)
        vals = {m.sobolev_norm(w, 1.5) for _ in range(5)}
        assert len(vals) == 1

    def test_inner_product_matches_norm(self):
        w = random_field(5, seed=4)
        assert sobolev_inner(w, w, 0.8) == pytest.approx(
            m.sobolev_norm(w, 0.8) ** 2, rel=1e-12
        )

    def test_shell_spectrum_constructed_decay(self):
        N = 10
        g = geometry(N)
        c = np.zeros((2 * N + 1,) * 3 + (3,), dtype=complex)
        # e^{-0.5|n|} per mode, solenoidal by construction afterwards
        for n, a in zip(g.modes, g.absn):
            c[tuple(n + N)] = math.exp(-0.5 * a)
        c = 0.5 * (c + np.conj(c[::-1, ::-1, ::-1]))
        w = m.project_solenoidal(SpectralField(N, c[tuple((g.modes + N).T)]))
        shells = dict(m.shell_spectrum(w))
        assert set(shells) == set(range(1, N + 1))

    def test_lq_norm_p2_equals_sobolev(self):
        w = random_field(5, seed=7)
        assert lq_norm(w, 2.0, 0.0) == pytest.approx(m.sobolev_norm(w, 0.0), rel=1e-9)

    @pytest.mark.parametrize("q", [0.0, 0.5, -2.0, math.nan])
    def test_lq_norm_needs_q_at_least_one(self, q):
        # q = 0 raised ZeroDivisionError
        with pytest.raises(DomainError, match="q >= 1"):
            lq_norm(random_field(3, seed=7), q)

    def test_fmt_s(self):
        assert fmt_s(1.0) == "1"
        assert fmt_s(0.5) == "0.5"
        assert fmt_s(-1.5) == "m1.5"
        assert fmt_s(1.000000001) != fmt_s(1.0)
        for s, text in [(0, "0"), (0.5, "0.5"), (0.75, "0.75"), (1, "1"), (1.5, "1.5"),
                        (2, "2"), (3, "3"), (-1, "m1"), (-3, "m3")]:
            assert fmt_s(s) == text


ORACLE_S = (-4.0, -1.0, -0.5, 0.0, 0.5, 1.5, 3.0)


def _per_mode_sum(values):
    return math.fsum(np.asarray(values, dtype=float))


class TestShellSumNorms:
    """Every norm against the per-mode formula it is summed from."""

    @pytest.mark.parametrize("N", [3, 5, 8, 16])
    def test_norms_match_per_mode_sums(self, N):
        g = geometry(N)
        st = m.make_initial("random-spectrum", {"a": 1.0, "b": 0.2}, N=N, seed=N)
        u, w = st.V, st.B
        sq = np.sum(np.abs(w.coeffs) ** 2, axis=1)
        dots = np.einsum("kc,kc->k", u.coeffs, np.conj(w.coeffs)).real
        for s in ORACLE_S:
            weight = g.absn ** (2.0 * s)
            assert m.sobolev_norm(w, s) == pytest.approx(
                math.sqrt(_per_mode_sum(sq * weight)), rel=1e-13)
            assert m.gevrey_norm(w, 0.3, s) == pytest.approx(
                math.sqrt(_per_mode_sum(sq * weight * np.exp(0.6 * g.absn))), rel=1e-13)
            assert m.wiener_norm(w, s) == pytest.approx(
                _per_mode_sum(np.sqrt(sq) * g.absn**s), rel=1e-13)
            assert sobolev_inner(u, w, s) == pytest.approx(
                _per_mode_sum(dots * weight), rel=1e-13)
        rounded = np.rint(g.absn)
        for mm, amp in m.shell_spectrum(w):
            on = rounded == mm
            assert amp == pytest.approx(
                math.sqrt(_per_mode_sum(sq[on]) / np.count_nonzero(on)), rel=1e-13)

    def test_one_aggregation_per_field_in_a_sample_row(self, monkeypatch, delta_std):
        import mhdgevrey.spectral as spectral
        from mhdgevrey.solver import MhdState, _diagnostic_row
        from sweep_runs import sweep_diagnostics

        st = m.make_initial("random-spectrum", {"norm_v": 0.3, "norm_b": 0.15},
                            N=16, seed=11, nu=0.1, eta=0.1)
        st = MhdState(V=SpectralField(16, st.V.coeffs), B=SpectralField(16, st.B.coeffs),
                      nu=0.1, eta=0.1)
        seen = []
        real = spectral._shell_sums

        def counted(w):
            seen.append(w)  # held, so no two fields share an id
            return real(w)

        monkeypatch.setattr(spectral, "_shell_sums", counted)
        _diagnostic_row(st, sweep_diagnostics(delta_std), 0.0)
        ids = [id(w) for w in seen]
        assert len(set(ids)) == len(ids)
        # V, B and their time derivatives; the Phi-weighted norms are read
        # from the shell sums of V and B
        assert len(ids) == 4 and {id(st.V), id(st.B)} <= set(ids)


class TestGevreyScale:
    def test_weight_shift_reduces_decay_fit(self):
        # Weighting by e^{-sigma |n|} shifts the fitted decay rate by sigma.
        from mhdgevrey.radius import decay_fit

        w = random_field(16, seed=6)
        base = decay_fit(w).sigma_fit
        damped = w.coeffs * np.exp(-0.3 * geometry(16).absn)[:, None]
        shifted = decay_fit(SpectralField(16, damped)).sigma_fit
        # Shell rms mixes exact |n| values within a rounded shell, so the
        # shift is reproduced to fit tolerance, not machine precision.
        assert shifted == pytest.approx(base + 0.3, abs=1e-3)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), s=st.floats(-2.0, 2.0),
       sp=st.floats(0.01, 1.0))
def test_sobolev_monotone_in_s_for_superunit_shift(seed, s, sp):
    """||w||_{s} <= ||w||_{s+a} can fail below |n|=1; only |n|>=1 modes exist,
    so monotonicity in s holds for every truncated field."""
    w = random_field(4, seed=seed)
    assert m.sobolev_norm(w, s) <= m.sobolev_norm(w, s + sp) * (1 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), sigma=st.floats(0.0, 1.0))
def test_gevrey_dominates_sobolev(seed, sigma):
    w = random_field(4, seed=seed)
    assert m.gevrey_norm(w, sigma, 1.0) >= m.sobolev_norm(w, 1.0) * (1 - 1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_wiener_dominates_max(seed):
    """Sum of coefficient magnitudes bounds the physical-space maximum."""
    from mhdgevrey.spectral import collocation_values

    w = random_field(3, seed=seed)
    vals = collocation_values(w, grid=16)
    assert np.max(np.abs(vals)) <= m.wiener_norm(w, 0.0) * (1 + 1e-9)
