"""Analyticity transforms: exponential weighting in time and the Phi weight.

Two reweightings of the coefficient fields are provided.  The first applies
the weight e^{sigma (t-t0)|n|} and compares the weighted energy against the
closed-form envelope q_s(t) valid up to a guaranteed time t_star.  The
second multiplies coefficients by e^{delta Phi |n|} where Phi in (0, 1] is
the root of

    Theta(Phi) = ||v~||_{delta Phi, 3/2}^2 + ||b~||_{delta Phi, 3/2}^2
                 + 1 - Phi^{-2} = 0,

so that Phi = (1 + ||v~||_{3/2}^2 + ||b~||_{3/2}^2)^{-1/2} holds as a fixed
point.  The weighted fields obey an energy inequality with a computable
right-hand side Q built from the initial data; ``verify_theorem2`` checks it
along an archived trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, GevreyOverflowError, TraceError
from .spectral import (
    _SAFE_EXP,
    SpectralField,
    _sq_magnitudes,
    geometry,
    gevrey_norm,
    gevrey_scale,
    sobolev_norm,
)

PHI_RESIDUAL_TOL = 1e-12
PHI_FIXED_POINT_TOL = 1e-10
_MAX_BISECTIONS = 200


# -- exponentially growing weight (first transform) ---------------------------


def _energy_s(state, s: float) -> float:
    return sobolev_norm(state.V, s) ** 2 + sobolev_norm(state.B, s) ** 2


class FoiasTemamResult(NamedTuple):
    lhs: float
    qs: float
    t_star: float
    note: str


def _growth_envelope(table, s: float, sigma: float, mn: float, e0: float, tau,
                     gamma: float | None = None):
    """(t_star, q_s(tau)) of the growing-weight envelope of data with E_s = e0.

    gamma is pinned to its largest admissible value (mn - sigma)/(C'_s (5/2 - s))
    unless given; with C'' = C_second(s, gamma), t_star = e0^{-2/(2s-1)}/C''
    and q_s(tau) = (e0^{-2/(2s-1)} - C'' tau)^{-(s-1/2)}, nan from t_star on.
    Zero data give t_star = inf and q_s = 0.
    """
    cps = table.Cprime(s)
    if gamma is None:
        gamma = (mn - sigma) / (cps * (2.5 - s))
    elif cps * (2.5 - s) * gamma > (mn - sigma) * (1 + 1e-12):
        raise DomainError("gamma violates the admissibility inequality")
    c2 = table.C_second(s, gamma)
    if e0 == 0.0:
        return math.inf, np.zeros_like(tau, dtype=float)
    a = e0 ** (-2.0 / (2.0 * s - 1.0))
    base = a - c2 * tau
    return a / c2, np.where(base > 0, base, np.nan) ** (-(s - 0.5))


def foias_temam_norms(state, t0: float, sigma: float, s: float, table,
                      initial=None, gamma: float | None = None) -> FoiasTemamResult:
    """Weighted energy at time t against its closed-form envelope.

    Returns (lhs, qs, t_star): lhs is the e^{sigma(t-t0)|n|}-weighted squared
    energy of the state, qs the envelope value at t, and t_star the length of
    the window on which the envelope is finite.  The envelope constant uses
    gamma pinned to the largest admissible value unless overridden.
    """
    mn = min(state.nu, state.eta)
    if not (0.0 < sigma < mn):
        raise DomainError("sigma must lie in (0, min(nu, eta))")
    if not (0.5 < s <= 1.0):
        raise DomainError("s must lie in (1/2, 1]")
    t = state.t
    if t < t0:
        raise DomainError("state sampled before t0")
    lhs = (
        gevrey_norm(state.V, sigma * (t - t0), s) ** 2
        + gevrey_norm(state.B, sigma * (t - t0), s) ** 2
    )
    if initial is None:
        if abs(t - t0) > 1e-12:
            raise DomainError("initial sample required when state.t != t0")
        e0 = lhs
    else:
        e0 = _energy_s(initial, s)
    t_star, qs = _growth_envelope(table, s, sigma, mn, e0, t - t0, gamma)
    if t - t0 >= t_star:
        return FoiasTemamResult(lhs, math.inf, t_star, "outside guaranteed window")
    return FoiasTemamResult(lhs, float(qs), t_star, "")


# -- the Phi weight ------------------------------------------------------------


def delta_max(table, nu: float, eta: float) -> float:
    """Largest admissible weight scale: min(nu, eta)/(18 sqrt(2) C'_{1/2})."""
    return min(nu, eta) / (18.0 * math.sqrt(2.0) * table.Cprime_half())


def _theta_of(V: SpectralField, B: SpectralField, delta: float):
    """Theta as a function of Phi, for fixed fields and delta.

    Theta depends on the fields only through the shell weights
    w_m = r_m^3 sum_{|n| = r_m} (|V_n|^2 + |B_n|^2): one pass over the ball
    forms them, and each evaluation sums w_m e^{2 delta Phi r_m} over the
    shells, largest first, in extended precision.
    """
    if V.N != B.N:
        raise DomainError("mismatched truncation radii")
    g = geometry(V.N)
    energy = np.bincount(g.shell, weights=_sq_magnitudes(V) + _sq_magnitudes(B),
                         minlength=len(g.shell_r))
    weights = g.shell_r**3 * energy

    def theta(phi):
        sigma = delta * phi
        if 2.0 * sigma * V.N > _SAFE_EXP:
            raise GevreyOverflowError("gevrey weight overflow")
        contrib = weights * np.exp(2.0 * sigma * g.shell_r)
        return float(np.sum(contrib.astype(np.longdouble))) + 1.0 - phi ** (-2.0)

    return theta


def _theta(V, B, delta, phi):
    return _theta_of(V, B, delta)(phi)


def solve_phi(V: SpectralField, B: SpectralField, delta: float) -> float:
    """Unique root of Theta on (0, 1] by bisection (Theta is increasing).

    Bisection stops at an absolute residual of PHI_RESIDUAL_TOL.  Near the
    root the norm terms of Theta cancel against Phi^{-2}, so for large fields
    that residual lies below the roundoff of Theta; once the bracket is one
    ulp wide, the best point is accepted if its residual is within 1e-9
    relative to Phi^{-2}.  Cost: one pass over the ball per call, then one
    sum over the at most N^2 shells per Theta evaluation.
    """
    if delta < 0:
        raise DomainError("delta must be nonnegative")
    theta = _theta_of(V, B, delta)
    theta1 = theta(1.0)
    if theta1 <= PHI_RESIDUAL_TOL:
        # Zero fields: Theta(1) = 0 exactly.
        return 1.0
    lo, hi = 0.0, 1.0  # Theta -> -inf as Phi -> 0+, Theta(1) > 0
    best_phi, best_res = 1.0, theta1
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        r = theta(mid)
        if abs(r) < abs(best_res):
            best_phi, best_res = mid, r
        if abs(r) <= PHI_RESIDUAL_TOL:
            return mid
        if r < 0:
            lo = mid
        else:
            hi = mid
    if abs(best_res) * best_phi**2 <= 1e-9:
        return best_phi
    raise ConvergenceError(
        "Phi bisection stalled with residual %r at Phi = %r" % (best_res, best_phi)
    )


@dataclass(frozen=True)
class PhiState:
    """Weighted fields v~, b~ together with the weight data."""

    delta: float
    phi: float
    V: SpectralField
    B: SpectralField
    t: float = 0.0
    nu: float = 1.0
    eta: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.phi <= 1.0):
            raise DomainError("phi must lie in (0, 1]")
        e = _energy_s(self, 1.5)
        if abs(self.phi - (1.0 + e) ** -0.5) > PHI_FIXED_POINT_TOL * self.phi:
            raise DomainError("phi is not the fixed point of the weighted fields")


def transform(state, delta: float) -> PhiState:
    """Weight the coefficients of the state by e^{delta Phi |n|}."""
    phi = solve_phi(state.V, state.B, delta)
    return PhiState(
        delta=delta,
        phi=phi,
        V=gevrey_scale(state.V, delta * phi),
        B=gevrey_scale(state.B, delta * phi),
        t=state.t,
        nu=state.nu,
        eta=state.eta,
    )


def untransform_field(w: SpectralField, delta: float, phi: float) -> SpectralField:
    """Inverse weighting e^{-delta Phi |n|}."""
    return gevrey_scale(w, -delta * phi)


# -- triple-interaction sums ---------------------------------------------------


def sigma_p(phi_state: PhiState, p: float) -> float:
    """The real value i*Sigma_p of the weighted triple-interaction sum.

    With dP = delta*Phi, the sum over mode pairs carries the weight
    |n|^p e^{dP(|n| - |k| - |n-k|)}.  The weight factorises, so for the
    un-weighted fields v = e^{-dP|n|} v~, b = e^{-dP|n|} b~ the inner sum over
    k is the Galerkin nonlinearity (NL_v, NL_b) of (v, b), and

        i Sigma_p = sum_n |n|^p e^{dP|n|}
                    Re[conj(v~_n).NL_v(n) + conj(b~_n).NL_b(n)].

    The Leray projection in NL_v drops out because v~_n is orthogonal to n,
    and the padded grid of ``nonlinear_rhs_fast`` makes the truncated
    convolution exact, so one padded evaluation gives the sum for every p.
    ``_sigma_p_direct`` is the literal double sum, kept as the test oracle.
    """
    from .solver import MhdState, nonlinear_rhs_fast

    dp = phi_state.delta * phi_state.phi
    raw = MhdState(V=gevrey_scale(phi_state.V, -dp), B=gevrey_scale(phi_state.B, -dp))
    return _sigma_pairing(phi_state, nonlinear_rhs_fast(raw), p)


def _sigma_pairing(phi_state: PhiState, nl, p: float) -> float:
    """i*Sigma_p from the nonlinearity (NL_v, NL_b) of the un-weighted fields."""
    nl_v, nl_b = nl
    dp = phi_state.delta * phi_state.phi
    pairing = (
        np.einsum("kc,kc->k", np.conj(phi_state.V.coeffs), nl_v.coeffs)
        + np.einsum("kc,kc->k", np.conj(phi_state.B.coeffs), nl_b.coeffs)
    )
    g = geometry(phi_state.V.N)
    return float(np.sum(g.absn**p * np.exp(dp * g.absn) * pairing.real))


def _sigma_p_direct(phi_state: PhiState, p: float) -> float:
    """Reference i*Sigma_p by literal double summation over coefficient pairs.

    O(N^6); keep N <= 8.  The p = 0 case uses the index-swapped symmetrized
    kernel, which removes a cancellation between large exponentials.
    """
    N = phi_state.V.N
    g = geometry(N)
    size = 2 * N + 1
    dp = phi_state.delta * phi_state.phi
    at = tuple((g.modes + N).T)  # the ball rows inside a local (2N+1)^3 cube
    vc = np.zeros((size, size, size, 3), dtype=np.complex128)
    bc = np.zeros_like(vc)
    vc[at], bc[at] = phi_state.V.coeffs, phi_state.B.coeffs

    r = np.arange(-N, N + 1)
    nsq = r[:, None, None] ** 2 + r[None, :, None] ** 2 + r[None, None, :] ** 2
    absn_cube = np.sqrt(nsq.astype(float))
    # v~_{-n} = conj(v~_n) by reality of the source field.
    vmn = np.conj(vc)
    bmn = np.conj(bc)
    if p == 0.0:
        wp = None
    else:
        safe = np.where(nsq == 0, 1.0, absn_cube)
        wp = np.where(nsq == 0, 0.0, safe**p)

    total = np.zeros((), dtype=np.complex128)
    for k, vk, bk in zip(g.modes, phi_state.V.coeffs, phi_state.B.coeffs):
        dst = tuple(slice(max(0, kd), size + min(0, kd)) for kd in k)
        src = tuple(slice(max(0, -kd), size + min(0, -kd)) for kd in k)
        VS = np.zeros_like(vc)
        BS = np.zeros_like(bc)
        ANS = np.zeros_like(absn_cube)
        VS[dst] = vc[src]
        BS[dst] = bc[src]
        ANS[dst] = absn_cube[src]
        kf = k.astype(float)
        absk = float(np.sqrt(kf @ kf))
        bracket = -np.einsum("...c,c->...", VS, kf) * (
            np.einsum("...c,c->...", vmn, vk) + np.einsum("...c,c->...", bmn, bk)
        ) + np.einsum("...c,c->...", BS, kf) * (
            np.einsum("...c,c->...", vmn, bk) + np.einsum("...c,c->...", bmn, vk)
        )
        if p == 0.0:
            w = 0.5 * (
                np.exp(dp * (absn_cube - absk - ANS))
                - np.exp(dp * (absk - absn_cube - ANS))
            )
        else:
            w = wp * np.exp(dp * (absn_cube - absk - ANS))
        total = total + np.sum((w * bracket)[at])
    return float((1j * total).real)


# -- balance residual of the weighted system -----------------------------------


def _balance_terms(ps):
    """E~_2 = ||v~||_2^2 + ||b~||_2^2 and the weighted dissipation
    nu ||v~||_{5/2}^2 + eta ||b~||_{5/2}^2 of the weighted-energy balance."""
    return (_energy_s(ps, 2.0),
            ps.nu * sobolev_norm(ps.V, 2.5) ** 2 + ps.eta * sobolev_norm(ps.B, 2.5) ** 2)


def balance_residual(samples) -> float:
    """Midpoint residual of the weighted-energy balance along samples.

    Each consecutive pair contributes |(1/2)(1 + delta Phi^3 E_2) dE_{3/2}/dt
    + nu ||v~||_{5/2}^2 + eta ||b~||_{5/2}^2 - i Sigma_3| with every factor
    evaluated as the midpoint average; returns the maximum over pairs.
    """
    samples = list(samples)
    if len(samples) < 2:
        raise DomainError("need at least two consecutive samples")
    vals = []
    for ps in samples:
        e32 = _energy_s(ps, 1.5)
        e2, diss = _balance_terms(ps)
        pref = 0.5 * (1.0 + ps.delta * ps.phi**3 * e2)
        vals.append((ps.t, e32, pref, diss, sigma_p(ps, 3.0)))
    worst = 0.0
    for (t1, e1, p1, d1, s1), (t2, e2_, p2, d2, s2) in zip(vals, vals[1:]):
        h = t2 - t1
        if not h > 0:
            raise DomainError("sample times must increase")
        de = (e2_ - e1) / h
        res = 0.5 * (p1 + p2) * de + 0.5 * (d1 + d2) - 0.5 * (s1 + s2)
        worst = max(worst, abs(res))
    return worst


# -- weighted-energy a priori verification --------------------------------------


@dataclass(frozen=True)
class Theorem2Report:
    Q: float
    lhs_terminal: float
    lhs_integral: float
    rhs: float
    ratio: float
    delta_admissible: bool
    q_nonpositive: bool

    @property
    def verdict(self) -> str:
        if not self.delta_admissible:
            return "informational"
        return _verdict(self.lhs_terminal + self.lhs_integral, self.rhs)


def _verdict(lhs: float, rhs: float) -> str:
    if lhs == 0.0 and rhs == 0.0:
        return "vacuous"
    return "pass" if lhs <= rhs else "fail"


def _q(delta, phi, e0, eh, e1):
    """The initial-data functional Q from Phi and the E_0, E_{1/2}, E_1 energies
    of the weighted fields."""
    return (
        0.5 * e0
        - delta * phi * eh
        + delta**2 * phi**2 * e1
        + (2.0 * delta**3 / 3.0) * (phi**3 - 3.0 * phi + 2.0)
    )


def q_functional(phi_state: PhiState) -> float:
    """The initial-data functional Q of the weighted-energy inequality."""
    return _q(phi_state.delta, phi_state.phi, _energy_s(phi_state, 0.0),
              _energy_s(phi_state, 0.5), _energy_s(phi_state, 1.0))


def _trace_q(trace, delta, sel):
    """Q from the archived columns of the first sample selected by ``sel``."""
    e = [trace.col("tv_s%s" % k)[sel][0] ** 2 + trace.col("tb_s%s" % k)[sel][0] ** 2
         for k in ("0", "0.5", "1")]
    return _q(delta, trace.col("phi")[sel][0], *e)


def _window(trace, T, uniform=False):
    """(times, mask, t0, error) of the samples in [t0, T].

    ``error`` says why the window cannot be checked ("" if it can): it holds
    no sample, or, with ``uniform``, fewer than two when T > t0 or a gap
    wider than twice the smallest.
    """
    t = trace.times
    t0 = float(trace.manifest.get("t0", t[0]))
    sel = (t >= t0 - 1e-12) & (t <= T + 1e-12)
    ts = t[sel]
    gaps = np.diff(ts)
    error = ""
    if len(ts) < 1 or (uniform and len(ts) < 2 and T > t0):
        error = "trace does not cover [t0, T]"
    elif uniform and len(gaps) and np.max(gaps) > 2.0 * np.min(gaps) * (1 + 1e-9):
        error = "trace too sparse"
    return ts, sel, t0, error


def _trapz(y, x):
    return float(np.trapezoid(y, x)) if len(x) > 1 else 0.0


def verify_theorem2(trace, delta: float, T: float, table=None) -> Theorem2Report:
    """Check the weighted-energy inequality LHS <= 9Q over [t0, T]."""
    ts, sel, t0, error = _window(trace, T, uniform=True)
    if error:
        raise TraceError(error)
    e0 = trace.col("tv_s0")[sel] ** 2 + trace.col("tb_s0")[sel] ** 2
    Q = _trace_q(trace, delta, sel)
    lhs_term = 2.25 * e0[-1]
    lhs_int = _trapz(trace.col("lhs29_integrand")[sel], ts)
    rhs = 9.0 * Q
    lhs = lhs_term + lhs_int
    ratio = lhs / rhs if rhs != 0.0 else (0.0 if lhs == 0.0 else math.inf)
    admissible = True
    if table is not None:
        man = trace.manifest
        nu = float(man["config"]["nu"])
        eta = float(man["config"]["eta"])
        admissible = delta <= delta_max(table, nu, eta) * (1 + 1e-12)
    return Theorem2Report(
        Q=float(Q),
        lhs_terminal=float(lhs_term),
        lhs_integral=float(lhs_int),
        rhs=float(rhs),
        ratio=float(ratio),
        delta_admissible=bool(admissible),
        q_nonpositive=bool(Q <= 0.0),
    )
