"""Constant chains and a priori inequality verification along trajectories.

Bound identifiers
-----------------
Integral (time-quadrature) bounds over an archived trace:
  B19    weighted-energy envelope of the growing-weight transform
  B29    weighted-energy inequality of the Phi transform (LHS <= 9Q)
  B32_1  integral of E_s^{alpha_s/2}, s > 1, against Qtilde_s
  B32_2  integral of E_s^{1/s}, 0 < s <= 1, against the energy route
  B32_3  integral of the Wiener-majorised maximum, s > -1/2
  COR51  L^p version via the embedding of H_{3/2-3/p}
  B36_1  time-derivative norms, s >= -1/2
  B36_2  time-derivative norms, -5/2 < s <= -1/2 (derivation-dependent RHS)
  B36_3  pointwise-in-time derivative norms, s < -5/2
  B36_4  Wiener-majorised derivative maxima, s > -2
Pointwise (per-state) inequalities:
  P40    weighted derivative coefficients at index -1/2
  P42    weighted derivative coefficients, -5/2 < s <= -1/2
  P44    plain derivative norms for s >= -1
  P51    the s = -1 corollary of P44 with data-dependent constant
  P52    second-derivative norms plus the derivative-energy drift, s < -7/2

Here E_s denotes ||V||_s^2 + ||B||_s^2 and tilde quantities refer to the
Phi-weighted fields.  Each bound is one entry of the registry ``BOUNDS``
(see ``Bound``): its s domain, the run values and trace columns it reads,
and its check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .constants import lattice_constant
from .errors import DomainError, TraceError
from .solver import full_rhs, second_time_derivative
from .spectral import (
    SpectralField,
    fmt_s,
    geometry,
    gevrey_scale,
    sobolev_inner,
    sobolev_norm,
)
from .transform import (
    _balance_terms,
    _energy_s,
    _growth_envelope,
    _trace_q,
    _trapz,
    _verdict,
    _window,
    sigma_p,
    solve_phi,
    transform,
    verify_theorem2,
)


def alpha_exponent(s: float) -> float:
    """alpha_s = 2/(2s - 1)."""
    return 2.0 / (2.0 * s - 1.0)


def gamma_exponent(s: float) -> float:
    """gamma_s = 2/s."""
    return 2.0 / s


@dataclass
class BoundReport:
    id: str
    s: float
    T: float
    lhs: float
    rhs: float
    ratio: float
    constants_used: list = field(default_factory=list)
    verdict: str = "pass"
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "s": self.s,
            "T": self.T,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "constants_used": self.constants_used,
            "verdict": self.verdict,
            "note": self.note,
        }


# -- constant chains -----------------------------------------------------------


def q_prime(Q: float, delta: float, mn: float, dT: float) -> float:
    """Integral bound for the square root of the tilde H_{3/2} energy."""
    if Q == 0.0:
        return 0.0
    return max(9.0 * Q / (math.sqrt(2.0) * mn), math.sqrt(9.0 * Q * dT / (2.0 * mn))) / delta


def q_double(Q: float, delta: float, mn: float, dT: float, s: float) -> float:
    """Bound for the integral of E1~^{alpha_s/2} Phi^{-(s-1) alpha_s}, s >= 1."""
    if s < 1.0:
        raise DomainError("q_double requires s >= 1")
    if Q == 0.0:
        return 0.0
    a = alpha_exponent(s)
    qp = q_prime(Q, delta, mn, dT)
    return (9.0 * Q / mn) ** (a / 2.0) * (dT ** (1.0 - a / 2.0) + qp ** (1.0 - a / 2.0))


def q_tilde(Q: float, delta: float, mn: float, dT: float, s: float) -> float:
    """RHS of the E_s^{alpha_s/2} integral bound for s > 1."""
    if s <= 1.0:
        raise DomainError("q_tilde is defined for s > 1 only")
    a = alpha_exponent(s)
    return ((s - 1.0) / (math.e * delta)) ** ((s - 1.0) * a) * q_double(Q, delta, mn, dT, s)


def q_tilde_wiener(Q: float, delta: float, mn: float, dT: float, s: float) -> float:
    """RHS of the Wiener-majorised maximum bound for s > -1/2."""
    if s <= -0.5:
        raise DomainError("q_tilde_wiener is defined for s > -1/2 only")
    a = alpha_exponent(s + 1.5)
    return (math.sqrt(2.0) * lattice_constant(2.0 * s - 2.0, 2.0 * delta)) ** a * q_double(
        Q, delta, mn, dT, s + 1.5
    )


def d1_constant(Q, delta, nu, eta, dT, s, table):
    """RHS of the derivative-norm integral bound for s >= -1/2."""
    if s < -0.5:
        raise DomainError("d1 requires s >= -1/2")
    mn = min(nu, eta)
    a = alpha_exponent(s + 2.0)  # = 2/(2s+3)
    d11 = (
        2.0 * max(nu**2, eta**2) * ((2.0 * s + 1.0) / (2.0 * math.e * delta)) ** (2.0 * s + 1.0)
    ) ** (1.0 / (2.0 * s + 3.0))
    d12 = (2.0 * table.Cprime_half()) ** (2.0 / (2.0 * s + 3.0)) * (
        (2.0 * s + 1.0) / (2.0 * math.e * delta)
    ) ** ((2.0 * s + 1.0) / (2.0 * s + 3.0))
    qp = q_prime(Q, delta, mn, dT)
    return d11 * (qp ** (a / 2.0) * dT ** (1.0 - a / 2.0) + qp) + d12 * q_double(
        Q, delta, mn, dT, s / 2.0 + 1.25
    )


def d2_constant(Q, delta, nu, eta, dT, s, table):
    """RHS for the derivative-norm integral at exponent q = 2/(2s+5).

    Not printed in closed form anywhere; assembled here from the pointwise
    inequality P42 and the weighted-energy integrals.  Writing q = 2/(2s+5),
    E0~ <= 4Q (terminal term of the weighted-energy inequality), I1 =
    integral of E1~ <= 9Q/min(nu,eta) and I2 = integral of Phi^2 E2~ <=
    9Q/(4 delta^2 min(nu,eta)):

    * nonlinear term: (4 Ctilde'_s^2)^q 2^{max(2q-1,0)} (4Q)^{(-2s-1)/(2s+5)} I1,
      since the P42 product raised to 2q has the H1 factor at power exactly 2
      and the H0 factor bounded by 4Q;
    * diffusion, -5/2 < s <= -2: E_{s+2}~ <= E0~ <= 4Q pointwise, so the
      integral is (4Q)^q (T - t0);
    * diffusion, -2 < s <= -1: interpolation E_{s+2}~ <= E1~^{s+2} E0~^{-(s+1)}
      makes the integrand integrable at power r = 1/(s+2) >= q; Hoelder in
      time then gives ((4Q)^{-(s+1)/(s+2)} I1)^{q(s+2)} (T-t0)^{1-q(s+2)};
    * diffusion, -1 < s <= -1/2: with theta = s+1 and r = 1/(2s+3),
      interpolation between H1 and H2 plus Hoelder against I2 leaves a
      Phi-power integral that matches q_double at the index
      sigma = (1 + 1/A)/2 where A = (1-theta)r/(1-theta r); the exponent
      identity (sigma-1)*2A = 2*theta*r/(1-theta r) makes the match exact
      (verified numerically in the test suite); Hoelder in time brings the
      power from r down to q.
    The three pieces are combined with the subadditivity prefactor
    3^{max(q-1,0)} and the two diffusivities via max(nu^2, eta^2).
    """
    if not (-2.5 < s <= -0.5):
        raise DomainError("d2 requires -5/2 < s <= -1/2")
    if Q == 0.0:
        return 0.0
    mn = min(nu, eta)
    q = 2.0 / (2.0 * s + 5.0)
    i1 = 9.0 * Q / mn
    e0max = 4.0 * Q

    if s <= -2.0:
        diff_int = e0max**q * dT
    elif s <= -1.0:
        r = 1.0 / (s + 2.0)
        base = e0max ** (-(s + 1.0) / (s + 2.0)) * i1
        diff_int = base ** (q / r) * dT ** (1.0 - q / r)
    else:
        theta = s + 1.0
        r = 1.0 / (2.0 * s + 3.0)
        i2 = 9.0 * Q / (4.0 * delta**2 * mn)
        A = (1.0 - theta) * r / (1.0 - theta * r)
        sigma = (1.0 + 1.0 / A) / 2.0
        inner = i2 ** (theta * r) * q_double(Q, delta, mn, dT, sigma) ** (1.0 - theta * r)
        diff_int = inner ** (q / r) * dT ** (1.0 - q / r)

    ct = table.C_tilde_prime(s)
    nonlinear = (
        (4.0 * ct**2) ** q
        * 2.0 ** max(2.0 * q - 1.0, 0.0)
        * e0max ** ((-2.0 * s - 1.0) / (2.0 * s + 5.0))
        * i1
    )
    diffusion = (
        2.0 ** max(1.0 - q, 0.0) * (2.0 * max(nu**2, eta**2)) ** q * diff_int
    )
    return 3.0 ** max(q - 1.0, 0.0) * (diffusion + nonlinear)


def d3_constant(Q, nu, eta, s, table):
    """Uniform-in-time RHS for derivative norms at s < -5/2 (E0~ <= 4Q)."""
    if s >= -2.5:
        raise DomainError("d3 requires s < -5/2")
    cp = table.cp(-s - 1.0)
    e0max = 4.0 * Q
    return 2.0 * (max(nu**2, eta**2) * e0max + cp**2 * e0max**2)


def d4_constant(Q, delta, nu, eta, dT, s, table):
    """RHS of the Wiener-majorised derivative-maximum bound, s > -2."""
    if s <= -2.0:
        raise DomainError("d4 requires s > -2")
    mn = min(nu, eta)
    a = 1.0 / (s + 3.0)  # the printed exponent alpha at index s + 7/2
    cpa = lattice_constant(2.0 * s + 1.0, 2.0 * delta)
    d41 = (2.0 * cpa * max(nu, eta)) ** a
    d42 = (math.sqrt(8.0) * cpa * table.Cprime_half()) ** a
    qp = q_prime(Q, delta, mn, dT)
    return d41 * (qp**a * dT ** ((s + 2.0) / (s + 3.0)) + qp) + d42 * q_double(
        Q, delta, mn, dT, s / 2.0 + 2.0
    )


def constants_chain(Q, delta, nu, eta, T, t0, s, table) -> dict:
    """Evaluate the chained constants for one norm index s."""
    if Q < 0:
        raise DomainError("Q must be nonnegative")
    if not delta > 0:
        raise DomainError("delta must be positive")
    if not T > t0:
        raise DomainError("T must exceed t0")
    mn = min(nu, eta)
    dT = T - t0
    out = {"Qprime": q_prime(Q, delta, mn, dT)}
    if s >= 1.0:
        out["Qdouble_s"] = q_double(Q, delta, mn, dT, s)
    if s > 1.0:
        out["Qtilde_s"] = q_tilde(Q, delta, mn, dT, s)
    if s > -0.5:
        out["QtildeW_s"] = q_tilde_wiener(Q, delta, mn, dT, s)
    if s >= -0.5:
        out["D1_s"] = d1_constant(Q, delta, nu, eta, dT, s, table)
    if -2.5 < s <= -0.5:
        out["D2_s"] = d2_constant(Q, delta, nu, eta, dT, s, table)
    if s < -2.5:
        out["D3_s"] = d3_constant(Q, nu, eta, s, table)
    if s > -2.0:
        out["D4_s"] = d4_constant(Q, delta, nu, eta, dT, s, table)
    return out


# -- xi fields -----------------------------------------------------------------


@dataclass(frozen=True)
class XiFields:
    xi_v: SpectralField
    xi_b: SpectralField
    phi: float
    delta: float


def _xi_from(rhs, phi: float, delta: float) -> XiFields:
    dV, dB = rhs
    return XiFields(
        xi_v=gevrey_scale(dV, delta * phi),
        xi_b=gevrey_scale(dB, delta * phi),
        phi=phi,
        delta=delta,
    )


def xi_fields(state, delta: float) -> XiFields:
    """Weighted derivative coefficients xi_n = e^{delta Phi |n|} dU_n/dt."""
    return _xi_from(full_rhs(state), solve_phi(state.V, state.B, delta), delta)


def xi_fields_chain(state_prev, state, state_next, delta: float) -> XiFields:
    """xi via the product rule: d(v~)/dt - delta |n| v~ dPhi/dt.

    The tilde-field derivative is a central difference of the transformed
    trajectory; dPhi/dt comes from the weighted-energy balance, so this is
    an independent consistency route, accurate to O(h^2).
    """
    ps_prev = transform(state_prev, delta)
    ps = transform(state, delta)
    ps_next = transform(state_next, delta)
    h1 = state.t - state_prev.t
    h2 = state_next.t - state.t
    if not (h1 > 0 and h2 > 0):
        raise DomainError("states must be time-ordered")

    # dPhi/dt = -(Phi^3/2) dE_{3/2}/dt with dE_{3/2}/dt from the balance.
    e2, diss = _balance_terms(ps)
    de32 = 2.0 * (sigma_p(ps, 3.0) - diss) / (1.0 + delta * ps.phi**3 * e2)
    dphi = -(ps.phi**3 / 2.0) * de32

    absn = geometry(state.N).absn[:, None]
    dvt = (ps_next.V.coeffs - ps_prev.V.coeffs) / (h1 + h2)
    dbt = (ps_next.B.coeffs - ps_prev.B.coeffs) / (h1 + h2)
    xv = dvt - delta * dphi * absn * ps.V.coeffs
    xb = dbt - delta * dphi * absn * ps.B.coeffs
    return XiFields(
        xi_v=SpectralField(state.N, xv),
        xi_b=SpectralField(state.N, xb),
        phi=ps.phi,
        delta=delta,
    )


def derivative_norm_sq_via_xi(xi: XiFields, s: float) -> float:
    """||dU/dt||_s^2 from the xi route: sum |n|^{2s} e^{-2 delta Phi |n|}|xi|^2."""
    w = -xi.delta * xi.phi
    return (
        sobolev_norm(gevrey_scale(xi.xi_v, w), s) ** 2
        + sobolev_norm(gevrey_scale(xi.xi_b, w), s) ** 2
    )


# -- the bound registry ------------------------------------------------------------

_Q_COLUMNS = ("phi", "tv_s0", "tb_s0", "tv_s0.5", "tb_s0.5", "tv_s1", "tb_s1")
_VALUE_NAMES = {"delta": "the weight scale delta", "sigma": "the growth rate sigma",
                "p": "the integrability order p"}


def _pair(v, b):
    """The columns of one diagnostic of V and of B at index s."""
    return lambda s, p: ("%s_s%s" % (v, fmt_s(s)), "%s_s%s" % (b, fmt_s(s)))


@dataclass(frozen=True)
class Bound:
    """One inequality: where it applies, what it reads and how it is checked.

    ``domain(s, p)`` tells whether s is in the bound's domain, ``domain_msg``
    says what that domain is; a bound with ``fixed_s`` does not depend on s
    and is reported at that index.  ``needs`` names the run values it reads
    (delta, sigma, p).  An integral bound reads the trace columns
    ``columns(s, p)``, and the columns of Q if it needs delta; ``uniform``
    asks for evenly spaced samples.  ``check(window, s, *series)`` (integral)
    or ``check(derivatives, s)`` (pointwise) returns the names of the
    constants used and ``compute()``, which evaluates lhs and the rhs chain.
    """

    id: str
    pointwise: bool
    check: Callable
    domain: Callable | None = None
    domain_msg: str = ""
    fixed_s: float | None = None
    needs: tuple = ()
    columns: Callable = lambda s, p: ()
    uniform: bool = False

    def inapplicable(self, s, values, trace=None, T=None):
        """Why the bound cannot be checked at s, found before any work.

        Returns the DomainError or TraceError that checking would raise, or
        None.  ``values`` maps delta, sigma and p to their values (None if
        absent).  Given a trace, its columns or checkpoints and the window
        [t0, T] are checked too.
        """
        if s is None and self.fixed_s is None:
            return DomainError("%s needs a norm index s" % self.id)
        for name in self.needs:
            if values.get(name) is None:
                return DomainError("%s needs %s" % (self.id, _VALUE_NAMES[name]))
        if "delta" in self.needs and values["delta"] < 0:
            return DomainError("delta must be nonnegative")
        if self.fixed_s is None and not self.domain(s, values.get("p")):
            return DomainError(self.domain_msg)
        if trace is None:
            return None
        if self.pointwise:
            return None if trace.checkpoint_paths() else TraceError(
                "archive holds no checkpoints")
        q_columns = _Q_COLUMNS if "delta" in self.needs else ()
        for name in self.columns(s, values.get("p")) + q_columns:
            if not trace.has_col(name):
                return TraceError("trace has no column %r" % name)
        error = _window(trace, T, self.uniform)[3]
        return TraceError(error) if error else None


class _Eval(NamedTuple):
    """Both sides of one evaluation.  A check that sets the verdict itself
    is not re-evaluated with re-estimated constants."""

    lhs: float
    rhs: float
    note: str = ""
    verdict: str | None = None


def _join(*notes):
    return "; ".join(n for n in notes if n)


def _retry_with_better_constants(table, names, compute_rhs, lhs, rhs):
    """Re-estimate estimated constants at doubled trials if the bound fails."""
    if lhs <= rhs:
        return rhs, False
    est = [n for n in names if table.provenance(n) == "estimated"]
    if not est:
        return rhs, False
    for name in est:
        table.reestimate(name)
    return compute_rhs(), True


def _evaluate(bound, s, T, table, names, compute) -> BoundReport:
    """Report one check; if it fails, once more with re-estimated constants."""
    ev = compute()
    if ev.verdict is None:
        again, retried = _retry_with_better_constants(table, names, compute, ev.lhs, ev.rhs)
        if retried:
            ev = again._replace(note=_join(again.note, "re-estimated constants"))
    lhs, rhs = ev.lhs, ev.rhs
    ratio = lhs / rhs if rhs != 0.0 else (0.0 if lhs == 0.0 else math.inf)
    verdict = ev.verdict or (
        "informational" if "informational" in ev.note else _verdict(lhs, rhs))
    constants = table.describe(names)
    if not math.isfinite(rhs):
        # an overflowed constant must not make the bound hold trivially
        bad = ["%s = %r" % (c["name"], c["value"]) for c in constants
               if c["value"] is not None and not math.isfinite(c["value"])]
        ev = ev._replace(note=_join(ev.note, "rhs not finite (%s); informational"
                                    % (", ".join(bad) or "overflow in the rhs")))
        verdict = "informational"
    return BoundReport(bound.id, s if bound.fixed_s is None else bound.fixed_s, T,
                       float(lhs), float(rhs), float(ratio), constants,
                       verdict, ev.note)


def _ensure_C(table, *indices):
    """Estimate (or recall) C_s at each index; returns their names."""
    for x in indices:
        table.ensure_C(x)
    return [table.skey_C(x) for x in indices]


# -- integral bounds --------------------------------------------------------------


class _Window:
    """The samples of a trace in [t0, T] and the run values a check reads."""

    def __init__(self, trace, T, table, values):
        man = trace.manifest
        self.trace, self.T, self.table = trace, T, table
        self.nu = float(man["config"]["nu"])
        self.eta = float(man["config"]["eta"])
        self.mn = min(self.nu, self.eta)
        self.delta, self.sigma, self.p = (
            None if values[k] is None else float(values[k]) for k in ("delta", "sigma", "p"))
        self.ts, self.sel, self.t0, _ = _window(trace, T)
        self.dT = T - self.t0

    def col(self, name):
        return self.trace.col(name)[self.sel]

    @cached_property
    def Q(self):
        return _trace_q(self.trace, self.delta, self.sel)

    def against_q(self, lhs, rhs_fn, note=""):
        """``compute`` of a bound whose rhs grows from Q: Q < 0 makes it
        informational."""
        q_note = "Q <= 0; informational" if self.Q < 0 else ""
        return lambda: _Eval(lhs, rhs_fn(), _join(q_note, note))


def _quadrature_note(y, x):
    """Richardson-style check: the half-sampled quadrature must agree to 1%."""
    if len(x) < 5:
        return ""
    idx = np.unique(np.r_[np.arange(0, len(x), 2), len(x) - 1])
    full = _trapz(y, x)
    half = _trapz(y[idx], x[idx])
    scale = max(abs(full), 1e-300)
    if abs(full - half) / scale > 0.01:
        return "quadrature unresolved: refine the output stride"
    return ""


def _b19(w, s, lhs_series):
    # At t = t0 the exponential weight is 1, so the first stored value of
    # the weighted column is the plain squared H_s norm of the data.
    e0 = lhs_series[0]
    tau = w.ts - w.t0

    def compute():
        if e0 == 0.0:
            # zero data: the envelope is 0, so any weighted energy fails it
            lhs = float(np.max(lhs_series))
            return _Eval(lhs, 0.0, "zero initial data", _verdict(lhs, 0.0))
        t_star, qs = _growth_envelope(w.table, s, w.sigma, w.mn, e0, tau)
        inwin = tau < t_star
        if not np.any(inwin):
            return _Eval(0.0, 0.0, "outside guaranteed window", "informational")
        ratios = lhs_series[inwin] / np.where(qs[inwin] > 0, qs[inwin], np.nan)
        k = int(np.nanargmax(ratios))
        return _Eval(float(lhs_series[inwin][k]), float(qs[inwin][k]),
                     "" if np.all(inwin) else "verified inside guaranteed window only")

    return _ensure_C(w.table, s, 1.5 - s), compute


def _b29(w, s, integrand):
    rep = verify_theorem2(w.trace, w.delta, w.T, table=w.table)
    ev = _Eval(rep.lhs_terminal + rep.lhs_integral, rep.rhs,
               "Q <= 0" if rep.q_nonpositive else "", rep.verdict)
    return ["C[0.5]", "C[1.0]"], lambda: ev


def _b32_1(w, s, v, b):
    y = (v**2 + b**2) ** (alpha_exponent(s) / 2.0)
    return [], w.against_q(_trapz(y, w.ts),
                           lambda: q_tilde(w.Q, w.delta, w.mn, w.dT, s),
                           _quadrature_note(y, w.ts))


def _b32_2(w, s, v, b):
    lhs = _trapz((v**2 + b**2) ** (1.0 / s), w.ts)
    e0_init = w.col("v_s0")[0] ** 2 + w.col("b_s0")[0] ** 2 \
        if w.trace.has_col("v_s0") else 2.0 * w.col("energy")[0]
    return [], lambda: _Eval(lhs, (2.0 * w.mn) ** -1.0 * e0_init ** (1.0 / s))


def _b32_3(w, s, wv, wb):
    y = (wv + wb) ** alpha_exponent(s + 1.5)
    return [], w.against_q(_trapz(y, w.ts),
                           lambda: q_tilde_wiener(w.Q, w.delta, w.mn, w.dT, s))


def _cor51(w, s, lv, lb):
    idx = s + 1.5 - 3.0 / w.p
    a = alpha_exponent(idx)
    names = _ensure_C(w.table, 1.5 - 3.0 / w.p)
    return names, w.against_q(
        _trapz((lv + lb) ** a, w.ts),
        lambda: w.table.C(1.5 - 3.0 / w.p) ** a
        * 2.0 ** (a / 2.0)
        * q_tilde(w.Q, w.delta, w.mn, w.dT, idx),
    )


def _b36_1(w, s, dv, db):
    y = (dv**2 + db**2) ** (alpha_exponent(s + 2.0) / 2.0)
    return _ensure_C(w.table, 0.5, 1.0), w.against_q(
        _trapz(y, w.ts), lambda: d1_constant(w.Q, w.delta, w.nu, w.eta, w.dT, s, w.table))


def _b36_2(w, s, dv, db):
    y = (dv**2 + db**2) ** (2.0 / (2.0 * s + 5.0))
    return w.table.ensure_for_C_tilde_prime(s), w.against_q(
        _trapz(y, w.ts), lambda: d2_constant(w.Q, w.delta, w.nu, w.eta, w.dT, s, w.table),
        "derivation-dependent RHS")


def _b36_3(w, s, dv, db):
    w.table.ensure_cp(-s - 1.0)
    return [w.table.skey_cp(-s - 1.0)], w.against_q(
        float(np.max(dv**2 + db**2)), lambda: d3_constant(w.Q, w.nu, w.eta, s, w.table))


def _b36_4(w, s, dwv, dwb):
    y = (dwv + dwb) ** alpha_exponent(s + 3.5)
    return _ensure_C(w.table, 0.5, 1.0), w.against_q(
        _trapz(y, w.ts), lambda: d4_constant(w.Q, w.delta, w.nu, w.eta, w.dT, s, w.table))


# -- pointwise inequalities ------------------------------------------------------


class _Derivatives:
    """The time derivatives of one state, each computed on first use and
    then shared by every pointwise check of that state."""

    def __init__(self, state, delta, table, e_init):
        self.state, self.delta, self.table, self.e_init = state, delta, table, e_init

    @cached_property
    def rhs(self):
        return full_rhs(self.state)

    @cached_property
    def d2(self):
        return second_time_derivative(self.state, rhs=self.rhs)

    @cached_property
    def ps(self):
        return transform(self.state, self.delta)

    @cached_property
    def xi(self):
        return _xi_from(self.rhs, self.ps.phi, self.delta)


def _p40(d, s):
    ps, xi, table, nu, eta = d.ps, d.xi, d.table, d.state.nu, d.state.eta
    lhs = 0.5 * (sobolev_norm(xi.xi_v, -0.5) ** 2 + sobolev_norm(xi.xi_b, -0.5) ** 2)
    names = _ensure_C(table, 0.5, 1.0)
    e1 = _energy_s(ps, 1.0)
    return names, lambda: _Eval(lhs, (
        nu**2 * sobolev_norm(ps.V, 1.5) ** 2
        + eta**2 * sobolev_norm(ps.B, 1.5) ** 2
        + 2.0 * table.Cprime_half() ** 2 * e1**2
    ))


def _p42(d, s):
    ps, xi, table, nu, eta = d.ps, d.xi, d.table, d.state.nu, d.state.eta
    lhs = sobolev_norm(xi.xi_v, s) ** 2 + sobolev_norm(xi.xi_b, s) ** 2
    names = table.ensure_for_C_tilde_prime(s)
    x, y = (sobolev_norm(f, 1.0) ** ((2.0 * s + 5.0) / 2.0)
            * sobolev_norm(f, 0.0) ** ((-2.0 * s - 1.0) / 2.0) for f in (ps.V, ps.B))
    return names, lambda: _Eval(lhs, (
        2.0 * nu**2 * sobolev_norm(ps.V, s + 2.0) ** 2
        + 2.0 * eta**2 * sobolev_norm(ps.B, s + 2.0) ** 2
        + 4.0 * table.C_tilde_prime(s) ** 2 * (x + y) ** 2
    ))


def _p44(d, s):
    state, table = d.state, d.table
    dV, dB = d.rhs
    lhs = sobolev_norm(dV, s) ** 2 + sobolev_norm(dB, s) ** 2
    names = _ensure_C(table, 0.5, 1.0)
    e1 = _energy_s(state, 1.0)
    e_mid = _energy_s(state, s + 1.5)
    return names, lambda: _Eval(lhs, (
        2.0 * state.nu**2 * sobolev_norm(state.V, s + 2.0) ** 2
        + 2.0 * state.eta**2 * sobolev_norm(state.B, s + 2.0) ** 2
        + table.C_tripleprime(s) * e_mid * e1
    ))


def _p51(d, s):
    state, table = d.state, d.table
    dV, dB = d.rhs
    lhs = sobolev_norm(dV, -1.0) ** 2 + sobolev_norm(dB, -1.0) ** 2
    names = _ensure_C(table, 0.5, 1.0)
    e1 = _energy_s(state, 1.0)
    return names, lambda: _Eval(
        lhs, c_second_tilde(state.nu, state.eta, d.e_init, table) * (e1 + e1**1.5))


def _p52(d, s):
    state, table = d.state, d.table
    dV, dB = d.rhs
    d2V, d2B = d.d2
    drift = (2.0 * state.nu * sobolev_inner(dV, d2V, s + 1.0)
             + 2.0 * state.eta * sobolev_inner(dB, d2B, s + 1.0))
    lhs = sobolev_norm(d2V, s) ** 2 + sobolev_norm(d2B, s) ** 2 + drift
    names = _ensure_C(table, 0.5, 1.0)
    table.ensure_cp(-s - 2.0)
    e1 = _energy_s(state, 1.0)
    return names, lambda: _Eval(lhs, (
        20.0
        * table.cp(-s - 2.0) ** 2
        * c_second_tilde(state.nu, state.eta, d.e_init, table)
        * (e1**2 + e1**2.5)
    ))


def c_second_tilde(nu: float, eta: float, e_init: float, table) -> float:
    """Data-dependent constant of the s = -1 derivative bound.

    From P44 at s = -1: diffusion contributes 2 max(nu^2, eta^2) E1 and the
    nonlinearity C'''_{-1} E_{1/2} E1 <= C'''_{-1} sqrt(2 E) E1^{3/2}, so
    max(2 max(nu^2, eta^2), C'''_{-1} sqrt(2 E)) works for the printed form.
    """
    return max(
        2.0 * max(nu**2, eta**2),
        table.C_tripleprime(-1.0) * math.sqrt(2.0 * e_init),
    )


# -- the registry and its callers ------------------------------------------------


BOUNDS = {b.id: b for b in (
    Bound("B19", False, _b19, lambda s, p: 0.5 < s <= 1.0, "B19 requires 1/2 < s < 1 or s = 1",
          needs=("sigma",), columns=lambda s, p: ("ft_s%s" % fmt_s(s),)),
    Bound("B29", False, _b29, fixed_s=0.0, needs=("delta",),
          columns=lambda s, p: ("lhs29_integrand",), uniform=True),
    Bound("B32_1", False, _b32_1, lambda s, p: s > 1.0, "B32_1 requires s > 1",
          needs=("delta",), columns=_pair("v", "b")),
    Bound("B32_2", False, _b32_2, lambda s, p: 0.0 < s <= 1.0, "B32_2 requires 0 < s <= 1",
          columns=_pair("v", "b")),
    Bound("B32_3", False, _b32_3, lambda s, p: s > -0.5, "B32_3 requires s > -1/2",
          needs=("delta",), columns=_pair("wv", "wb")),
    Bound("COR51", False, _cor51,
          lambda s, p: p >= 2.0 and s >= 3.0 / p - 0.5 and s + 1.5 - 3.0 / p > 1.0,
          "COR51 requires p >= 2 and s > 3/p - 1/2", needs=("delta", "p"),
          columns=lambda s, p: tuple("%s_q%s_s%s" % (f, fmt_s(p), fmt_s(s))
                                     for f in ("lv", "lb"))),
    Bound("B36_1", False, _b36_1, lambda s, p: s >= -0.5, "B36_1 requires s >= -1/2",
          needs=("delta",), columns=_pair("dv", "db")),
    Bound("B36_2", False, _b36_2, lambda s, p: -2.5 < s <= -0.5,
          "B36_2 requires -5/2 < s <= -1/2", needs=("delta",), columns=_pair("dv", "db")),
    Bound("B36_3", False, _b36_3, lambda s, p: s < -2.5, "B36_3 requires s < -5/2",
          needs=("delta",), columns=_pair("dv", "db")),
    Bound("B36_4", False, _b36_4, lambda s, p: s > -2.0, "B36_4 requires s > -2",
          needs=("delta",), columns=_pair("dwv", "dwb")),
    Bound("P40", True, _p40, fixed_s=-0.5, needs=("delta",)),
    Bound("P42", True, _p42, lambda s, p: -2.5 < s <= -0.5, "P42 requires -5/2 < s <= -1/2",
          needs=("delta",)),
    Bound("P44", True, _p44, lambda s, p: s >= -1.0, "P44 requires s >= -1"),
    Bound("P51", True, _p51, fixed_s=-1.0),
    Bound("P52", True, _p52, lambda s, p: s < -3.5, "P52 requires s < -7/2"),
)}
INTEGRAL_IDS = tuple(id for id, b in BOUNDS.items() if not b.pointwise)
POINTWISE_IDS = tuple(id for id, b in BOUNDS.items() if b.pointwise)


def _bound(id, pointwise: bool) -> Bound:
    bound = BOUNDS.get(id)
    if bound is None or bound.pointwise != pointwise:
        raise DomainError("unknown %s bound id %r"
                          % ("pointwise" if pointwise else "integral", id))
    return bound


def verify_integral(id: str, trace, s: float, T: float, table,
                    delta: float | None = None, p: float | None = None,
                    sigma: float | None = None) -> BoundReport:
    """Verify one integral inequality over the archived trace up to time T.

    delta and sigma default to the values in the trace's manifest.
    """
    bound = _bound(id, pointwise=False)
    man = trace.manifest
    values = {"delta": man.get("delta") if delta is None else delta,
              "sigma": man.get("sigma") if sigma is None else sigma, "p": p}
    error = bound.inapplicable(s, values, trace, T)
    if error:
        raise error
    w = _Window(trace, T, table, values)
    names, compute = bound.check(w, s, *(w.col(c) for c in bound.columns(s, p)))
    return _evaluate(bound, s, T, table, names, compute)


def _worst_over_checkpoints(pairs, states, table, delta: float | None = None,
                            e_init: float | None = None) -> dict:
    """Worst report of each pointwise (id, s) pair over the states.

    Every pair is checked against its domain before any work.  The states
    are then scanned once: each state's derivatives are computed once and
    shared by all pairs (one ``full_rhs``; one ``transform`` if P40 or P42 is
    asked for; one ``second_time_derivative`` if P52 is), and dropped before
    the next state.  Ties keep the earliest state.  ``e_init`` is the
    energy in the P51/P52 constant; None uses the energy of the first state,
    so every checkpoint of a run is held to the same constant.
    Returns {(id, s): BoundReport} in the order of ``pairs``.
    """
    for id, s in pairs:
        error = _bound(id, pointwise=True).inapplicable(s, {"delta": delta})
        if error:
            raise error
    if e_init is None and states:
        e_init = 0.5 * _energy_s(states[0], 0.0)
    worst = dict.fromkeys(pairs)
    for state in states:
        derivs = _Derivatives(state, delta, table, e_init)
        for id, s in worst:
            bound = BOUNDS[id]
            rep = _evaluate(bound, s, state.t, table, *bound.check(derivs, s))
            if worst[(id, s)] is None or rep.ratio > worst[(id, s)].ratio:
                worst[(id, s)] = rep
    return worst


def verify_pointwise(id: str, state, table, delta: float | None = None,
                     s: float | None = None, e_init: float | None = None) -> BoundReport:
    """Evaluate one pointwise inequality on a single state."""
    return _worst_over_checkpoints([(id, s)], [state], table, delta, e_init)[(id, s)]


def _verify_pairs(pairs, trace, table, T, values) -> list:
    """Reports of the (id, s) pairs, in order.

    Integral pairs read the trace up to T with the run values (delta,
    sigma, p); one scan of the stored checkpoints serves all pointwise
    pairs.
    """
    reports = {(id, s): verify_integral(id, trace, s, T, table, **values)
               for id, s in pairs if not BOUNDS[id].pointwise}
    pointwise = [pair for pair in pairs if pair not in reports]
    if pointwise:
        states = trace.checkpoints()
        if not states:
            raise TraceError("archive holds no checkpoints")
        reports.update(_worst_over_checkpoints(pointwise, states, table, values["delta"]))
    return [reports[pair] for pair in pairs]


# The canonical battery; COR51 is checked at p = 4.
SWEEP_INTEGRAL_CASES = (
    ("B19", 0.75),
    ("B19", 1.0),
    ("B29", None),
    ("B32_1", 2.0),
    ("B32_1", 3.0),
    ("B32_2", 0.5),
    ("B32_2", 1.0),
    ("B32_3", 0.0),
    ("B32_3", 1.0),
    ("COR51", 1.0),
    ("B36_1", 0.0),
    ("B36_1", 1.0),
    ("B36_2", -1.0),
    ("B36_3", -3.0),
    ("B36_4", -1.0),
    ("B36_4", 0.0),
)
SWEEP_POINTWISE_CASES = (
    ("P40", None),
    ("P42", -1.0),
    ("P44", 0.0),
    ("P51", None),
    ("P52", -4.0),
)


def standard_sweep(trace, table, delta: float | None = None,
                   sigma: float | None = None, T: float | None = None) -> list:
    """Run the canonical battery of integral and pointwise checks on a trace.

    Integral bounds use the full stored series; pointwise inequalities are
    evaluated on every stored checkpoint and the worst ratio is reported per
    bound.  Returns a list of BoundReport.
    """
    man = trace.manifest
    if delta is None:
        delta = float(man["delta"])
    if sigma is None:
        sigma = float(man.get("sigma", 0.5 * min(
            float(man["config"]["nu"]), float(man["config"]["eta"]))))
    if T is None:
        T = float(trace.times[-1])
    return _verify_pairs(SWEEP_INTEGRAL_CASES + SWEEP_POINTWISE_CASES, trace, table, T,
                         {"delta": delta, "sigma": sigma, "p": 4.0})


def d2_report(trace, s: float, table, delta: float | None = None) -> BoundReport:
    """Second-derivative inequality along the stored checkpoints, s < -7/2."""
    error = BOUNDS["P52"].inapplicable(s, {"delta": delta}, trace)
    if error:
        raise error
    states = trace.checkpoints()
    worst = _worst_over_checkpoints([("P52", s)], states, table, delta)[("P52", s)]
    worst.note = _join(worst.note, "max over %d checkpoints" % len(states))
    return worst
