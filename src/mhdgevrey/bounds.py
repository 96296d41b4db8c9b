"""Constant chains and a priori inequality verification along trajectories.

Bound identifiers
-----------------
Integral (time-quadrature) bounds over an archived trace:
  B19    weighted-energy envelope of the growing-weight transform
  FGT    derivatives of order p = s >= 1 against the growing-weight envelope
         opened at each earlier sample (Foias-Guillope-Temam type estimate)
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
  LIP47  coefficient time derivatives against nu|n|^2 sqrt(2E) + 2E|n|
         (velocity) and eta|n|^2 sqrt(2E) + E|n| (magnetic field)
  RAD    the guaranteed analyticity radius delta*Phi against the fitted
         exponential decay rate of the (V, B) shell spectrum

Here E_s denotes ||V||_s^2 + ||B||_s^2 and tilde quantities refer to the
Phi-weighted fields.  Each bound is one entry of the registry ``BOUNDS``
(see ``Bound``): its s domain, the run values and trace columns it reads,
and its check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .constants import lattice_constant
from .errors import DomainError, TraceError
from .radius import _fit, default_fit_shells
from .solver import full_rhs, second_time_derivative
from .spectral import _energy, fmt_s, geometry, gevrey_norm, sobolev_inner
from .transform import (
    _growth_envelope,
    _trace_q,
    _trapz,
    _window,
    delta_max,
    solve_phi,
)


def alpha_exponent(s: float) -> float:
    """alpha_s = 2/(2s - 1)."""
    return 2.0 / (2.0 * s - 1.0)


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
        """The report as strict JSON values: a number that is not finite (the
        infinite ratio of rhs = 0 < lhs, say) is None, and the note says
        what it was."""
        nulled = []

        def finite(name, v):
            if v is None or math.isfinite(v):
                return v
            nulled.append("%s = %r" % (name, v))
            return None

        d = {"id": self.id, "s": self.s, "T": self.T, "lhs": finite("lhs", self.lhs),
             "rhs": finite("rhs", self.rhs), "ratio": finite("ratio", self.ratio),
             "constants_used": [dict(c, value=finite(c["name"], c["value"]))
                                for c in self.constants_used],
             "verdict": self.verdict}
        d["note"] = _join(self.note, nulled and "%s written as null" % ", ".join(nulled))
        return d


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
    d12 = (2.0 * table.Cprime(0.5)) ** (2.0 / (2.0 * s + 3.0)) * (
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
    cp = table.ensure_cp(-s - 1.0)
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
    d42 = (math.sqrt(8.0) * cpa * table.Cprime(0.5)) ** a
    qp = q_prime(Q, delta, mn, dT)
    return d41 * (qp**a * dT ** ((s + 2.0) / (s + 3.0)) + qp) + d42 * q_double(
        Q, delta, mn, dT, s / 2.0 + 2.0
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
    or ``check(derivatives, s)`` (pointwise) returns the ``_Eval`` of both
    sides; the constants its report names are those it reads from the table.
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
        absent).  Given a trace, sigma is checked against min(nu, eta) of
        its run, and its columns or checkpoints and the window [t0, T] are
        checked too.
        """
        if s is None and self.fixed_s is None:
            return DomainError("%s needs a norm index s" % self.id)
        for name in self.needs:
            if values.get(name) is None:
                return DomainError("%s needs %s" % (self.id, _VALUE_NAMES[name]))
        if "delta" in self.needs and not values["delta"] > 0:
            return DomainError("delta must be positive")
        if self.fixed_s is None and not self.domain(s, values.get("p")):
            return DomainError(self.domain_msg)
        if trace is None:
            return None
        if "sigma" in self.needs:
            cfg = trace.manifest["config"]
            if not 0.0 < values["sigma"] < min(float(cfg["nu"]), float(cfg["eta"])):
                return DomainError("sigma must lie in (0, min(nu, eta))")
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
    """Both sides of one check, with a note.  A check that sets the verdict
    itself is not re-evaluated with re-estimated constants."""

    lhs: float
    rhs: float
    note: str = ""
    verdict: str | None = None


def _join(*notes):
    return "; ".join(n for n in notes if n)


def _verdict(lhs: float, rhs: float) -> str:
    if lhs == 0.0 and rhs == 0.0:
        return "vacuous"
    return "pass" if lhs <= rhs else "fail"


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


def _evaluate(bound, s, T, table, check) -> BoundReport:
    """Report ``check()`` with the constants it reads; if it fails, once more
    with those re-estimated."""
    with table.reads() as names:
        ev = check()
        if ev.verdict is None:
            again, retried = _retry_with_better_constants(table, names, check,
                                                          ev.lhs, ev.rhs)
            if retried:
                ev = again._replace(note=_join(again.note, "re-estimated constants"))
    lhs, rhs = ev.lhs, ev.rhs
    ratio = lhs / rhs if rhs != 0.0 else (0.0 if lhs == 0.0 else math.inf)
    verdict = ev.verdict or _verdict(lhs, rhs)
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
        """Both sides of a bound whose rhs grows from Q.  Q < 0 leaves that
        rhs undefined (it takes sqrt(Q)): rhs_fn is not called, the rhs is
        reported as 0 and the row as informational."""
        if self.Q < 0:
            return _Eval(lhs, 0.0, _join("Q < 0", note), "informational")
        return _Eval(lhs, rhs_fn(), note)


def _worst_pair(lhs, rhs):
    """(lhs, rhs) at the largest ratio lhs/rhs, the first of equals; x/0
    counts as inf for x > 0 and as 0 for x = 0."""
    ratios = np.divide(lhs, rhs, out=np.where(lhs > 0, np.inf, 0.0), where=rhs > 0)
    k = int(np.argmax(ratios))
    return float(lhs[k]), float(rhs[k])


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


def _in_window(tau, t_star):
    """The samples inside a guaranteed window: 0 < tau < t_star."""
    return (tau > 0.0) & (tau < t_star)


def _b19(w, s, lhs_series):
    # The window opens at t0, where the weight is 1: the first stored value
    # of the weighted column is the plain squared H_s norm of the data, and
    # the envelope equals it there by construction.
    tau = w.ts - w.t0
    t_star, qs = _growth_envelope(w.table, s, w.sigma, w.mn, lhs_series[0], tau)
    inside = _in_window(tau, t_star)
    if not np.any(inside):
        return _Eval(0.0, 0.0, "no sample after t0 inside the guaranteed window "
                     "(t_star = %.6g)" % t_star, "informational")
    return _Eval(*_worst_pair(lhs_series[inside], qs[inside]),
                 "max over %d of %d samples after t0 (t_star = %.6g)"
                 % (np.sum(inside), len(tau) - 1, t_star))


def _fgt(w, p, v1, b1, vp, bp):
    # Every sample t_k opens the window (t_k, t_k + t_star) of the envelope
    # q_1 of its H_1 energy, inside which the derivatives of order p obey
    # E_p(t_j) <= q_1(tau) ((p-1)/(e sigma tau))^{2(p-1)}, tau = t_j - t_k.
    e1, ep = v1**2 + b1**2, vp**2 + bp**2
    lhs, rhs = [], []
    for tk, ek in zip(w.ts, e1):
        tau = w.ts - tk
        t_star, q1 = _growth_envelope(w.table, 1.0, w.sigma, w.mn, ek, tau)
        inside = _in_window(tau, t_star)
        lhs.append(ep[inside])
        rhs.append(q1[inside] * ((p - 1.0) / (math.e * w.sigma * tau[inside]))
                   ** (2.0 * (p - 1.0)))
    lhs, rhs = np.concatenate(lhs), np.concatenate(rhs)
    if not len(lhs):
        return _Eval(0.0, 0.0, "no sample pair inside a guaranteed window",
                     "informational")
    return _Eval(*_worst_pair(lhs, rhs), "max over %d sample pairs" % len(lhs))


def _b29(w, s, integrand):
    # (9/4) E~_0(T) plus the integral of the archived integrand, against 9Q;
    # the inequality is claimed for delta <= delta_max only.
    e0 = w.col("tv_s0") ** 2 + w.col("tb_s0") ** 2
    lhs = float(2.25 * e0[-1]) + _trapz(integrand, w.ts)
    rhs = float(9.0 * w.Q)
    dmax = delta_max(w.table, w.nu, w.eta)
    q_note = "Q <= 0" if w.Q <= 0.0 else ""
    if w.delta > dmax * (1 + 1e-12):
        return _Eval(lhs, rhs, _join(q_note, "delta = %.6g exceeds delta_max = %.6g; "
                                     "informational" % (w.delta, dmax)), "informational")
    return _Eval(lhs, rhs, q_note, _verdict(lhs, rhs))


def _b32_1(w, s, v, b):
    y = (v**2 + b**2) ** (alpha_exponent(s) / 2.0)
    return w.against_q(_trapz(y, w.ts), lambda: q_tilde(w.Q, w.delta, w.mn, w.dT, s),
                       _quadrature_note(y, w.ts))


def _b32_2(w, s, v, b):
    lhs = _trapz((v**2 + b**2) ** (1.0 / s), w.ts)
    e0 = 2.0 * w.col("energy")[0]
    return _Eval(lhs, (2.0 * w.mn) ** -1.0 * e0 ** (1.0 / s))


def _b32_3(w, s, wv, wb):
    y = (wv + wb) ** alpha_exponent(s + 1.5)
    return w.against_q(_trapz(y, w.ts),
                       lambda: q_tilde_wiener(w.Q, w.delta, w.mn, w.dT, s))


def _cor51(w, s, lv, lb):
    idx = s + 1.5 - 3.0 / w.p
    a = alpha_exponent(idx)
    return w.against_q(
        _trapz((lv + lb) ** a, w.ts),
        lambda: w.table.C(1.5 - 3.0 / w.p) ** a
        * 2.0 ** (a / 2.0)
        * q_tilde(w.Q, w.delta, w.mn, w.dT, idx),
    )


def _b36_1(w, s, dv, db):
    y = (dv**2 + db**2) ** (alpha_exponent(s + 2.0) / 2.0)
    return w.against_q(
        _trapz(y, w.ts), lambda: d1_constant(w.Q, w.delta, w.nu, w.eta, w.dT, s, w.table))


def _b36_2(w, s, dv, db):
    y = (dv**2 + db**2) ** (2.0 / (2.0 * s + 5.0))
    return w.against_q(
        _trapz(y, w.ts), lambda: d2_constant(w.Q, w.delta, w.nu, w.eta, w.dT, s, w.table),
        "derivation-dependent RHS")


def _b36_3(w, s, dv, db):
    return w.against_q(
        float(np.max(dv**2 + db**2)), lambda: d3_constant(w.Q, w.nu, w.eta, s, w.table))


def _b36_4(w, s, dwv, dwb):
    y = (dwv + dwb) ** alpha_exponent(s + 3.5)
    return w.against_q(
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
    def dp(self):
        """The weight index delta*Phi of the state: a norm of a Phi-weighted
        field is the Gevrey norm of the plain field at this index."""
        return self.delta * solve_phi(self.state.V, self.state.B, self.delta)


def _p40(d, s):
    V, B, dp, table, nu, eta = d.state.V, d.state.B, d.dp, d.table, d.state.nu, d.state.eta
    lhs = 0.5 * _energy(d.rhs, -0.5, dp)
    e1 = _energy((V, B), 1.0, dp)
    return _Eval(lhs, nu**2 * _energy([V], 1.5, dp) + eta**2 * _energy([B], 1.5, dp)
                 + 2.0 * table.Cprime(0.5) ** 2 * e1**2)


def _p42(d, s):
    V, B, dp, table, nu, eta = d.state.V, d.state.B, d.dp, d.table, d.state.nu, d.state.eta
    lhs = _energy(d.rhs, s, dp)
    x, y = (gevrey_norm(f, dp, 1.0) ** ((2.0 * s + 5.0) / 2.0)
            * gevrey_norm(f, dp, 0.0) ** ((-2.0 * s - 1.0) / 2.0) for f in (V, B))
    return _Eval(lhs, 2.0 * nu**2 * _energy([V], s + 2.0, dp)
                 + 2.0 * eta**2 * _energy([B], s + 2.0, dp)
                 + 4.0 * table.C_tilde_prime(s) ** 2 * (x + y) ** 2)


def _p44(d, s):
    state, table = d.state, d.table
    lhs = _energy(d.rhs, s)
    e1 = _energy((state.V, state.B), 1.0)
    e_mid = _energy((state.V, state.B), s + 1.5)
    return _Eval(lhs, 2.0 * state.nu**2 * _energy([state.V], s + 2.0)
                 + 2.0 * state.eta**2 * _energy([state.B], s + 2.0)
                 + table.C_tripleprime(s) * e_mid * e1)


def _p51(d, s):
    state, table = d.state, d.table
    lhs = _energy(d.rhs, -1.0)
    e1 = _energy((state.V, state.B), 1.0)
    return _Eval(lhs, c_second_tilde(state.nu, state.eta, d.e_init, table)
                 * (e1 + e1**1.5))


def _p52(d, s):
    state, table = d.state, d.table
    drift = sum(2.0 * kappa * sobolev_inner(f, f2, s + 1.0)
                for kappa, f, f2 in zip((state.nu, state.eta), d.rhs, d.d2))
    lhs = _energy(d.d2, s) + drift
    e1 = _energy((state.V, state.B), 1.0)
    # C_{1/2} and C_1 are read before c_{-s-2}, the order the report lists
    c_tilde = c_second_tilde(state.nu, state.eta, d.e_init, table)
    return _Eval(lhs, 20.0 * table.ensure_cp(-s - 2.0) ** 2 * c_tilde * (e1**2 + e1**2.5))


def _lip47(d, s):
    # The coefficient increments between two times are integrals of these
    # derivatives, so the bound makes the coefficients equicontinuous in time.
    state, e = d.state, d.e_init
    absn = geometry(state.N).absn
    root = math.sqrt(2.0 * e)
    lhs = np.concatenate([np.linalg.norm(f.coeffs, axis=-1) for f in d.rhs])
    rhs = np.concatenate([state.nu * absn**2 * root + 2.0 * e * absn,
                          state.eta * absn**2 * root + e * absn])
    return _Eval(*_worst_pair(lhs, rhs))


def _rad(d, s):
    # The decay rate of the shell spectrum is the observed analyticity
    # radius (Sulem, Sulem & Frisch 1983); delta*Phi bounds it from below.
    N = d.state.N
    lo, hi = default_fit_shells(N)
    est = _fit([d.state.V, d.state.B], N) if hi - lo >= 2 else None
    if est is None:
        return _Eval(0.0, 0.0, "fewer than 3 populated shells in the fit "
                     "window [%d, %d]" % (lo, hi), "informational")
    return _Eval(d.dp, est.sigma_fit, "decay fitted over shells [%d, %d]" % (lo, hi))


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
    Bound("FGT", False, _fgt, lambda s, p: s >= 1.0, "FGT requires s >= 1",
          needs=("sigma",), columns=lambda s, p: ("v_s1", "b_s1") + _pair("v", "b")(s, p)),
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
    Bound("LIP47", True, _lip47, fixed_s=0.0),
    Bound("RAD", True, _rad, fixed_s=0.0, needs=("delta",)),
)}
INTEGRAL_IDS = tuple(id for id, b in BOUNDS.items() if not b.pointwise)
POINTWISE_IDS = tuple(id for id, b in BOUNDS.items() if b.pointwise)


def _bound(id, pointwise: bool) -> Bound:
    bound = BOUNDS.get(id)
    if bound is None or bound.pointwise != pointwise:
        raise DomainError("unknown %s bound id %r"
                          % ("pointwise" if pointwise else "integral", id))
    return bound


def _run_values(trace, p: float | None = None) -> dict:
    """The run values the checks read: delta and sigma from the trace's
    manifest, which records those its weighted columns were computed with,
    and the integrability order p."""
    man = trace.manifest
    return {"delta": man.get("delta"), "sigma": man.get("sigma"), "p": p}


def verify_integral(id: str, trace, s: float, T: float, table,
                    p: float | None = None) -> BoundReport:
    """Verify one integral inequality over the archived trace up to time T,
    with the delta and sigma its manifest records."""
    bound = _bound(id, pointwise=False)
    values = _run_values(trace, p)
    error = bound.inapplicable(s, values, trace, T)
    if error:
        raise error
    w = _Window(trace, T, table, values)
    return _evaluate(bound, s, T, table,
                     partial(bound.check, w, s, *(w.col(c) for c in bound.columns(s, p))))


def _worst_over_checkpoints(pairs, states, table, delta: float | None = None,
                            e_init: float | None = None) -> dict:
    """Worst report of each pointwise (id, s) pair over the states.

    Every pair is checked against its domain before any work.  The states
    are then scanned once: each state's derivatives are computed once and
    shared by all pairs (one ``full_rhs``; one ``solve_phi`` if P40, P42 or
    RAD is asked for; one ``second_time_derivative`` if P52 is), and dropped
    before the next state.  Ties keep the earliest state.  ``e_init`` is the
    energy in the P51/P52 constant; None uses the energy of the first state,
    so every checkpoint of a run is held to the same constant.
    Returns {(id, s): BoundReport} in the order of ``pairs``.
    """
    for id, s in pairs:
        error = _bound(id, pointwise=True).inapplicable(s, {"delta": delta})
        if error:
            raise error
    if e_init is None and states:
        e_init = 0.5 * _energy((states[0].V, states[0].B), 0.0)
    worst = dict.fromkeys(pairs)
    for state in states:
        derivs = _Derivatives(state, delta, table, e_init)
        for id, s in worst:
            bound = BOUNDS[id]
            rep = _evaluate(bound, s, state.t, table, partial(bound.check, derivs, s))
            if worst[(id, s)] is None or rep.ratio > worst[(id, s)].ratio:
                worst[(id, s)] = rep
    return worst


def verify_pointwise(id: str, state, table, delta: float | None = None,
                     s: float | None = None, e_init: float | None = None) -> BoundReport:
    """Evaluate one pointwise inequality on a single state."""
    return _worst_over_checkpoints([(id, s)], [state], table, delta, e_init)[(id, s)]


def _verify_pairs(pairs, trace, table, T, p=None) -> list:
    """Reports of the (id, s) pairs, in order.

    Integral pairs read the trace up to T with the run values of
    ``_run_values``; one scan of the checkpoints stored up to T serves all
    pointwise pairs.
    """
    reports = {(id, s): verify_integral(id, trace, s, T, table, p)
               for id, s in pairs if not BOUNDS[id].pointwise}
    pointwise = [pair for pair in pairs if pair not in reports]
    if pointwise:
        states = [st for st in trace.checkpoints() if st.t <= T + 1e-12]
        if not states:
            raise TraceError("archive holds no checkpoint at or before T = %.12g" % T)
        reports.update(_worst_over_checkpoints(pointwise, states, table,
                                               _run_values(trace)["delta"]))
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


def standard_sweep(trace, table) -> list:
    """Run the canonical battery of integral and pointwise checks on a trace.

    Integral bounds use the full stored series; pointwise inequalities are
    evaluated on every stored checkpoint and the worst ratio is reported per
    bound.  Returns a list of BoundReport.
    """
    return _verify_pairs(SWEEP_INTEGRAL_CASES + SWEEP_POINTWISE_CASES, trace, table,
                         float(trace.times[-1]), 4.0)
