"""Analyticity-radius tracking from spectrum decay and resolution comparison.

The fields resolved on a finite ball are entire, so the fitted exponential
decay rate of the shell spectrum is a proxy for the analyticity radius.  The
registry entry RAD of ``bounds.BOUNDS`` compares that rate, fitted here,
against the guaranteed lower bound delta * Phi(t); runs at two resolutions
are compared here on their common modes.  No singular-set detection is
attempted; truncated fields have no singular times, so only margins are
reported.  The guaranteed-regularity windows and the derivative estimates
inside them are the bound FGT of ``bounds.BOUNDS``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TraceError
from .spectral import SpectralField, _energy, _mean_squares, geometry

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


def _fit(fields, N):
    """Least-squares fit of log(combined shell amplitude) vs shell index over
    ``default_fit_shells(N)``; None when fewer than 3 of its shells are populated."""
    lo, hi = default_fit_shells(N)
    if not lo < hi:
        raise DomainError("insufficient spectral range: the ball of radius %d has too "
                          "few shells for a decay fit" % N)
    # squared combined rms amplitude of the fields on each shell of the window
    ms = np.arange(lo, hi + 1)
    amp2 = _mean_squares(fields)[ms - 1]
    kept = amp2 > DEFAULT_FIT_FLOOR
    if np.count_nonzero(kept) < 3:
        return None
    ms = ms[kept].astype(float)
    logs = 0.5 * np.log(amp2[kept])
    slope, intercept = np.polyfit(ms, logs, 1)
    resid = logs - (slope * ms + intercept)
    return RadiusEstimate(sigma_fit=max(0.0, -float(slope)), fit_range=(lo, hi),
                          residual=float(np.sqrt(np.mean(resid**2))))


def decay_fit(w: SpectralField) -> RadiusEstimate:
    """sigma_fit = -slope of log(shell amplitude) over ``default_fit_shells``, floored at 0."""
    est = _fit([w], w.N)
    if est is None:
        raise DomainError("insufficient spectral range")
    return est


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
        rows.append((float(sl.t), _energy((du, da), 1.0)))
    return rows
