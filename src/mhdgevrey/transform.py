"""Analyticity transforms: exponential weighting in time and the Phi weight.

Two reweightings of the coefficient fields are provided.  The first applies
the weight e^{sigma (t-t0)|n|}; the weighted energy stays below the
closed-form envelope q_s(t) up to a guaranteed time t_star, which the
registry entries B19 and FGT of ``bounds.BOUNDS`` check.  The second weights
coefficients by e^{delta Phi |n|} where Phi in (0, 1] is the root of

    Theta(Phi) = ||v~||_{3/2}^2 + ||b~||_{3/2}^2 + 1 - Phi^{-2} = 0,
    v~ = e^{delta Phi |n|} v,  b~ = e^{delta Phi |n|} b,

so that Phi = (1 + ||v~||_{3/2}^2 + ||b~||_{3/2}^2)^{-1/2} holds as a fixed
point.  The weighted fields are never formed: a Sobolev norm of v~ is the
Gevrey norm of v at index dP = delta*Phi, so every weighted quantity here is
a shell sum of the plain fields at that index.  The weighted fields obey an
energy inequality with a computable right-hand side Q built from the initial
data; the registry entry B29 of ``bounds.BOUNDS`` checks it along an
archived trajectory.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError
from .spectral import SpectralField, _energy, _radial_sum

PHI_RESIDUAL_TOL = 1e-12
_MAX_BISECTIONS = 200


# -- exponentially growing weight (first transform) ---------------------------


def _growth_envelope(table, s: float, sigma: float, mn: float, e0: float, tau):
    """(t_star, q_s(tau)) of the growing-weight envelope of data with E_s = e0.

    gamma is pinned to its largest admissible value (mn - sigma)/(C'_s (5/2 - s));
    with C'' = C_second(s, gamma), t_star = e0^{-2/(2s-1)}/C'' and
    q_s(tau) = e0 (1 - C'' tau e0^{2/(2s-1)})^{-(s-1/2)}
    = e0 (1 - tau/t_star)^{-(s-1/2)}, which is e0 exactly at tau = 0 and nan
    from t_star on.  Zero data give t_star = inf and q_s = 0.
    """
    c2 = table.C_second(s, (mn - sigma) / (table.Cprime(s) * (2.5 - s)))
    if e0 == 0.0:
        return math.inf, np.zeros_like(tau, dtype=float)
    t_star = e0 ** (-2.0 / (2.0 * s - 1.0)) / c2
    if t_star == 0.0:  # e0^{2/(2s-1)} beyond the float range: no window
        return 0.0, np.full(np.shape(tau), np.nan)
    base = 1.0 - np.asarray(tau, dtype=float) / t_star
    return t_star, e0 * np.where(base > 0, base, np.nan) ** (-(s - 0.5))


# -- the Phi weight ------------------------------------------------------------


def delta_max(table, nu: float, eta: float) -> float:
    """Largest admissible weight scale: min(nu, eta)/(18 sqrt(2) C'_{1/2})."""
    return min(nu, eta) / (18.0 * math.sqrt(2.0) * table.Cprime(0.5))


def _theta(V: SpectralField, B: SpectralField, delta: float, phi: float) -> float:
    """Theta at Phi: one sum over the at most N^2 shells of the fields'
    per-shell energies, weighted by |n|^3 e^{2 delta Phi |n|}."""
    if V.N != B.N:
        raise DomainError("mismatched truncation radii")
    return _energy((V, B), 1.5, delta * phi) + 1.0 - phi ** (-2.0)


def solve_phi(V: SpectralField, B: SpectralField, delta: float) -> float:
    """Unique root of Theta on (0, 1] by bisection (Theta is increasing).

    Bisection stops at an absolute residual of PHI_RESIDUAL_TOL.  Near the
    root the norm terms of Theta cancel against Phi^{-2}, so for large fields
    that residual lies below the roundoff of Theta; once the bracket is one
    ulp wide, the best point is accepted if its residual is within 1e-9
    relative to Phi^{-2}.  Cost: the per-shell sums of each field, formed
    once per field, then one sum over the at most N^2 shells per Theta
    evaluation.
    """
    if delta < 0:
        raise DomainError("delta must be nonnegative")
    theta1 = _theta(V, B, delta, 1.0)
    if theta1 <= PHI_RESIDUAL_TOL:
        # Zero fields: Theta(1) = 0 exactly.
        return 1.0
    lo, hi = 0.0, 1.0  # Theta -> -inf as Phi -> 0+, Theta(1) > 0
    best_phi, best_res = 1.0, theta1
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        r = _theta(V, B, delta, mid)
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


# -- triple-interaction sums ---------------------------------------------------


def sigma_p(state, delta: float, p: float) -> float:
    """The real value i*Sigma_p of the triple-interaction sum of the
    Phi-weighted fields of the state.

    With dP = delta*Phi, the sum over mode pairs of the weighted fields
    carries the weight |n|^p e^{dP(|n| - |k| - |n-k|)}.  The weight
    factorises, so the inner sum over k is the Galerkin nonlinearity
    (NL_v, NL_b) of the plain fields (v, b), and

        i Sigma_p = sum_n |n|^p e^{2 dP|n|} Re[conj(v_n).NL_v(n) + conj(b_n).NL_b(n)].

    The Leray projection in NL_v drops out because v_n is orthogonal to n,
    and the padded grid of ``nonlinear_rhs_fast`` makes the truncated
    convolution exact, so one padded evaluation gives the sum for every p.
    """
    from .solver import nonlinear_rhs_fast

    dp = delta * solve_phi(state.V, state.B, delta)
    return _sigma_pairing(state, nonlinear_rhs_fast(state), dp, p)


def _sigma_pairing(state, nl, dp: float, p: float) -> float:
    """i*Sigma_p at weight index dP from the nonlinearity (NL_v, NL_b) of the state."""
    nl_v, nl_b = nl
    pairing = (np.einsum("kc,kc->k", np.conj(state.V.coeffs), nl_v.coeffs)
               + np.einsum("kc,kc->k", np.conj(state.B.coeffs), nl_b.coeffs))
    return _radial_sum(state.N, pairing.real, p, 2.0 * dp)


# -- the weighted-energy balance -----------------------------------------------


def _balance_terms(state, dp: float):
    """E~_2 = ||v~||_2^2 + ||b~||_2^2 and the weighted dissipation
    nu ||v~||_{5/2}^2 + eta ||b~||_{5/2}^2 of the weighted-energy balance,
    at weight index dP."""
    return (_energy((state.V, state.B), 2.0, dp),
            state.nu * _energy([state.V], 2.5, dp) + state.eta * _energy([state.B], 2.5, dp))


# -- the initial-data functional and the time window ----------------------------


def _q(delta, phi, e0, eh, e1):
    """The initial-data functional Q from Phi and the E_0, E_{1/2}, E_1 energies
    of the weighted fields."""
    return (
        0.5 * e0
        - delta * phi * eh
        + delta**2 * phi**2 * e1
        + (2.0 * delta**3 / 3.0) * (phi**3 - 3.0 * phi + 2.0)
    )


def q_functional(state, delta: float) -> float:
    """The initial-data functional Q of the weighted-energy inequality."""
    phi = solve_phi(state.V, state.B, delta)
    return _q(delta, phi, *(_energy((state.V, state.B), s, delta * phi)
                            for s in (0.0, 0.5, 1.0)))


def _trace_q(trace, delta, sel):
    """Q from the archived columns of the first sample selected by ``sel``."""
    e = [trace.col("tv_s%s" % k)[sel][0] ** 2 + trace.col("tb_s%s" % k)[sel][0] ** 2
         for k in ("0", "0.5", "1")]
    return _q(delta, trace.col("phi")[sel][0], *e)


def _window(trace, T, uniform=False):
    """(times, mask, t0, error) of the samples in [t0, T].

    ``error`` says why the window cannot be checked ("" if it can): it holds
    no sample, T lies past the last sample, or, with ``uniform``, it holds
    fewer than two samples when T > t0 or a gap wider than twice the
    smallest.
    """
    t = trace.times
    t0 = float(trace.manifest.get("t0", t[0]))
    sel = (t >= t0 - 1e-12) & (t <= T + 1e-12)
    ts = t[sel]
    gaps = np.diff(ts)
    error = ""
    if len(ts) < 1 or T > t[-1] + 1e-12 or (uniform and len(ts) < 2 and T > t0):
        error = "trace does not cover [t0, T]"
    elif uniform and len(gaps) and np.max(gaps) > 2.0 * np.min(gaps) * (1 + 1e-9):
        error = "trace too sparse"
    return ts, sel, t0, error


def _trapz(y, x):
    return float(np.trapezoid(y, x)) if len(x) > 1 else 0.0
