"""Analyticity-radius tracking from spectrum decay and regularity intervals.

The fields resolved on a finite ball are entire, so the fitted exponential
decay rate of the shell spectrum is a proxy for the analyticity radius.  The
checks here are one-sided: the fitted rate is compared against the guaranteed
lower bound delta * Phi(t), per-sample regularity intervals are assembled from
the H_s norms, and runs at two resolutions are compared on their common modes.
No singular-set detection is attempted; truncated fields have no singular
times, so only interval coverage and margins are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundReport
from .errors import DomainError, TraceError
from .spectral import SpectralField, fmt_s, geometry, shell_spectrum, sobolev_norm
from .transform import _energy_s, _growth_envelope

DEFAULT_FIT_FLOOR = 1e-300


@dataclass(frozen=True)
class RadiusEstimate:
    """Exponential decay rate of the shell spectrum over a shell window."""

    sigma_fit: float
    fit_range: tuple
    residual: float

    def __post_init__(self):
        if not self.fit_range[0] < self.fit_range[1]:
            raise DomainError("fit range must be increasing")
        if self.sigma_fit < 0:
            raise DomainError("sigma_fit must be nonnegative")


def default_fit_shells(N: int) -> tuple:
    """Shell window [max(3, N/4), 3N/4]: skips algebraic prefactor shells at
    the bottom and truncation-corrupted shells at the top."""
    return max(3, N // 4), (3 * N) // 4


def _fit_loglinear(ms, amps):
    """Least-squares slope/intercept of log(amp) vs shell index."""
    ms = np.asarray(ms, dtype=float)
    logs = np.log(np.asarray(amps, dtype=float))
    slope, intercept = np.polyfit(ms, logs, 1)
    resid = logs - (slope * ms + intercept)
    return float(slope), float(np.sqrt(np.mean(resid**2)))


def _shell_amplitudes(fields, m_lo, m_hi):
    """Combined rms shell amplitudes of one or more fields on [m_lo, m_hi]."""
    total = {}
    for w in fields:
        for m, amp in shell_spectrum(w):
            if m_lo <= m <= m_hi:
                total[m] = total.get(m, 0.0) + amp**2
    ms = sorted(m for m, a in total.items() if a > DEFAULT_FIT_FLOOR)
    return ms, [math.sqrt(total[m]) for m in ms]


def decay_fit(w: SpectralField, m_lo: int | None = None,
              m_hi: int | None = None) -> RadiusEstimate:
    """Fit log(shell amplitude) vs shell index; sigma_fit = -slope, floored at 0."""
    lo, hi = default_fit_shells(w.N)
    m_lo = lo if m_lo is None else int(m_lo)
    m_hi = hi if m_hi is None else int(m_hi)
    if not (m_lo < m_hi <= w.N):
        raise DomainError("fit shells must satisfy m_lo < m_hi <= N")
    ms, amps = _shell_amplitudes([w], m_lo, m_hi)
    if len(ms) < 3:
        raise DomainError("insufficient spectral range")
    slope, resid = _fit_loglinear(ms, amps)
    return RadiusEstimate(
        sigma_fit=max(0.0, -slope),
        fit_range=(m_lo, m_hi),
        residual=resid,
    )


def radius_check(trace, delta: float, m_lo: int | None = None,
                 m_hi: int | None = None):
    """Per-checkpoint (t, sigma_fit, delta*phi, margin, flagged) series.

    The fitted decay rate of the combined V/B shell spectrum is compared to
    the guaranteed lower bound delta * Phi(t).  Samples where the fit is
    impossible (fewer than 3 populated shells in the window) are skipped and
    flagged instead of raising.
    """
    states = trace.checkpoints()
    if not states:
        raise TraceError("no checkpoints stored")
    ts = trace.times
    phis = trace.col("phi")
    rows = []
    for st in states:
        phi = float(np.interp(st.t, ts, phis))
        lower = delta * phi
        lo, hi = default_fit_shells(st.N)
        lo = lo if m_lo is None else int(m_lo)
        hi = hi if m_hi is None else int(m_hi)
        ms, amps = _shell_amplitudes([st.V, st.B], lo, hi)
        if len(ms) < 3:
            rows.append({"t": st.t, "sigma_fit": float("nan"),
                         "lower_bound": lower, "margin": float("nan"),
                         "flagged": True})
            continue
        slope, _ = _fit_loglinear(ms, amps)
        sig = max(0.0, -slope)
        rows.append({"t": st.t, "sigma_fit": sig, "lower_bound": lower,
                     "margin": sig - lower, "flagged": False})
    return rows


@dataclass
class IntervalCover:
    """Union of per-sample guaranteed-regularity intervals over [t0, T]."""

    intervals: list = field(default_factory=list)
    coverage: float = 0.0
    t_star: list = field(default_factory=list)
    envelope_checked: int = 0
    envelope_violations: int = 0

    def __post_init__(self):
        if not 0.0 <= self.coverage <= 1.0:
            raise DomainError("coverage must lie in [0, 1]")
        for l, r in self.intervals:
            if not r > l:
                raise DomainError("intervals must have positive length")


def _union_measure(intervals, t0, T):
    """Length of the union of the intervals clipped to [t0, T]."""
    clipped = sorted(
        (max(l, t0), min(r, T)) for l, r in intervals if min(r, T) > max(l, t0)
    )
    total = 0.0
    cur_l = cur_r = None
    merged = []
    for l, r in clipped:
        if cur_r is None or l > cur_r:
            if cur_r is not None:
                total += cur_r - cur_l
                merged.append((cur_l, cur_r))
            cur_l, cur_r = l, r
        else:
            cur_r = max(cur_r, r)
    if cur_r is not None:
        total += cur_r - cur_l
        merged.append((cur_l, cur_r))
    return total, merged


def guaranteed_intervals(trace, s: float, table, p: float | None = None,
                         sigma: float | None = None) -> IntervalCover:
    """Guaranteed-regularity interval cover from the archived H_s norms.

    Every sample time t_k opens the interval (t_k, t_k + t_star(t_k)) with
    t_star = (||V(t_k)||_s^2 + ||B(t_k)||_s^2)^{-2/(2s-1)} / C''_s; zero data
    gives t_star = +inf by convention.  If p is given, the growth envelope
    E_p(t) <= q_s(t - t_k) ((p-s)/(e sigma (t-t_k)))^{2(p-s)} is evaluated at
    the sample times inside each interval and violations are counted.
    """
    if not 0.5 < s <= 1.0:
        raise DomainError("guaranteed intervals require 1/2 < s <= 1")
    man = trace.manifest
    nu = float(man["config"]["nu"])
    eta = float(man["config"]["eta"])
    mn = min(nu, eta)
    if sigma is None:
        sigma = float(man.get("sigma", 0.5 * mn))
    if not 0.0 < sigma < mn:
        raise DomainError("sigma must lie in (0, min(nu, eta))")
    table.ensure_C(s)
    table.ensure_C(1.5 - s)

    ts = trace.times
    es = trace.col("v_s%s" % fmt_s(s)) ** 2 + trace.col("b_s%s" % fmt_s(s)) ** 2
    ep = None
    if p is not None:
        if p < s:
            raise DomainError("envelope order p must satisfy p >= s")
        ep = trace.col("v_s%s" % fmt_s(p)) ** 2 + trace.col("b_s%s" % fmt_s(p)) ** 2

    t0, T = float(ts[0]), float(ts[-1])
    stars = []
    intervals = []
    checked = violations = 0
    for k, tk in enumerate(ts):
        e = es[k]
        star, qs = _growth_envelope(table, s, sigma, mn, e, ts - tk)
        stars.append(star)
        right = tk + star
        if right > tk:
            intervals.append((float(tk), float(right)))
        if ep is None:
            continue
        inside = (ts > tk) & (ts < right)
        for j in np.nonzero(inside)[0]:
            tau = float(ts[j] - tk)
            if e == 0.0:
                envelope = math.inf if p > s else 0.0
            else:
                envelope = qs[j]
                if p > s:
                    envelope *= ((p - s) / (math.e * sigma * tau)) ** (2.0 * (p - s))
            checked += 1
            if ep[j] > envelope:
                violations += 1

    if T > t0:
        measure, merged = _union_measure(intervals, t0, T)
        coverage = measure / (T - t0)
    else:
        merged = [(l, r) for l, r in intervals]
        coverage = 1.0
    # Guard against round-off pushing the fraction marginally above 1.
    coverage = min(1.0, coverage)
    return IntervalCover(
        intervals=merged,
        coverage=coverage,
        t_star=stars,
        envelope_checked=checked,
        envelope_violations=violations,
    )


def _restrict(w: SpectralField, N: int) -> np.ndarray:
    """Coefficients of w at the modes of the ball |n| <= N, in its row order."""
    if w.N < N:
        raise DomainError("cannot restrict to a larger ball")
    return w.coeffs[geometry(w.N).rows(geometry(N).modes)]


def two_resolution_psi(trace_lo, trace_hi):
    """psi(t) = ||u^<||_1^2 + ||a^<||_1^2 on the common (lower) mode ball.

    u^< and a^< collect the modes |n| <= N of the velocity and magnetic
    differences between the higher-resolution and lower-resolution runs.
    Requires identical checkpoint time grids.
    """
    lo = trace_lo.checkpoints()
    hi = trace_hi.checkpoints()
    if not lo or len(lo) != len(hi):
        raise TraceError("mismatched sampling grids")
    rows = []
    for sl, sh in zip(lo, hi):
        if abs(sl.t - sh.t) > 1e-10:
            raise TraceError("mismatched sampling grids")
        if sh.N < sl.N:
            sl, sh = sh, sl
        N = sl.N
        du = SpectralField(N, _restrict(sh.V, N) - sl.V.coeffs)
        da = SpectralField(N, _restrict(sh.B, N) - sl.B.coeffs)
        psi = sobolev_norm(du, 1.0) ** 2 + sobolev_norm(da, 1.0) ** 2
        rows.append((float(sl.t), float(psi)))
    return rows


def lipschitz_check(trace) -> BoundReport:
    """Coefficient equicontinuity along the archived checkpoints.

    For every checkpoint pair and every wavevector the coefficient increments
    are compared with |t1 - t2| (nu |n|^2 sqrt(2E) + 2E |n|) for the velocity
    and |t1 - t2| (eta |n|^2 sqrt(2E) + E |n|) for the magnetic field, with E
    the energy of the first stored sample.
    """
    states = trace.checkpoints()
    if len(states) < 2:
        raise TraceError("need at least two checkpoints")
    first = states[0]
    absn = geometry(first.N).absn
    nsq = absn**2
    E = 0.5 * _energy_s(first, 0.0)
    if E == 0.0:
        return BoundReport("LIP47", 0.0, states[-1].t, 0.0, 0.0, 0.0, [],
                           "vacuous", "zero initial data")
    sq2e = math.sqrt(2.0 * E)
    rv = first.nu * nsq * sq2e + 2.0 * E * absn
    rb = first.eta * nsq * sq2e + E * absn
    worst = 0.0
    lhs = rhs = 0.0
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            dt = abs(states[j].t - states[i].t)
            dv = np.linalg.norm(states[j].V.coeffs - states[i].V.coeffs, axis=-1)
            db = np.linalg.norm(states[j].B.coeffs - states[i].B.coeffs, axis=-1)
            for d, r in ((dv, rv), (db, rb)):
                ratios = d / (dt * r)
                k = int(np.argmax(ratios))
                if ratios[k] > worst:
                    worst = float(ratios[k])
                    lhs, rhs = float(d[k]), float(dt * r[k])
    verdict = "pass" if lhs <= rhs else "fail"
    if lhs == 0.0 and rhs == 0.0:
        verdict = "vacuous"
    return BoundReport("LIP47", 0.0, states[-1].t, lhs, rhs, worst, [],
                       verdict, "max over %d checkpoint pairs" %
                       (len(states) * (len(states) - 1) // 2))
