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
    gevrey_scale,
    lq_norm,
    sobolev_inner,
)

from conftest import random_field


def single_mode(N=4, n=(0, 0, 1), amp=(1.0, 1j, 0.0)):
    return SpectralField.from_modes(
        N, {tuple(n): 0.5 * np.asarray(amp, dtype=complex)}, add_conjugates=True
    )


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
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(-5, 6, size=3)
            if not n.any():
                continue
            f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            p = m.leray_project(f, n)
            assert abs(p @ n) < 1e-12 * max(1.0, np.abs(f).max())

    def test_leray_projection_idempotent(self):
        f = np.array([1.0 + 2j, -0.5, 3j])
        n = (1, 2, -2)
        p1 = m.leray_project(f, n)
        p2 = m.leray_project(p1, n)
        assert np.allclose(p1, p2, atol=1e-15)

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

    def test_fmt_s(self):
        assert fmt_s(1.0) == "1"
        assert fmt_s(0.5) == "0.5"
        assert fmt_s(-1.5) == "m1.5"
        assert fmt_s(1.000000001) != fmt_s(1.0)
        for s, text in [(0, "0"), (0.5, "0.5"), (0.75, "0.75"), (1, "1"), (1.5, "1.5"),
                        (2, "2"), (3, "3"), (-1, "m1"), (-3, "m3")]:
            assert fmt_s(s) == text


class TestGevreyScale:
    def test_scale_then_unscale(self):
        w = random_field(5, seed=3)
        back = gevrey_scale(gevrey_scale(w, 0.2), -0.2)
        assert np.allclose(back.coeffs, w.coeffs, rtol=1e-13, atol=1e-16)

    def test_weight_shift_reduces_decay_fit(self):
        # Weighting by e^{-sigma |n|} shifts the fitted decay rate by sigma.
        from mhdgevrey.radius import decay_fit

        w = random_field(16, seed=6)
        base = decay_fit(w, 4, 12).sigma_fit
        shifted = decay_fit(gevrey_scale(w, -0.3), 4, 12).sigma_fit
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
