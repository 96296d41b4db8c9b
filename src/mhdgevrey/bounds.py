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
Phi-weighted fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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
    wiener_norm,
)
from .transform import transform, sigma_p, solve_phi, verify_theorem2

INTEGRAL_IDS = (
    "B19",
    "B29",
    "B32_1",
    "B32_2",
    "B32_3",
    "COR51",
    "B36_1",
    "B36_2",
    "B36_3",
    "B36_4",
)
POINTWISE_IDS = ("P40", "P42", "P44", "P51", "P52")
# Bounds that do not depend on the norm index s: one report each.
S_FREE_IDS = ("B29", "P40", "P51")


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


def _verdict(lhs: float, rhs: float) -> str:
    if lhs == 0.0 and rhs == 0.0:
        return "vacuous"
    return "pass" if lhs <= rhs else "fail"


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
    e2 = sobolev_norm(ps.V, 2.0) ** 2 + sobolev_norm(ps.B, 2.0) ** 2
    diss = state.nu * sobolev_norm(ps.V, 2.5) ** 2 + state.eta * sobolev_norm(ps.B, 2.5) ** 2
    de32 = 2.0 * (sigma_p(ps, 3.0) - diss) / (1.0 + delta * ps.phi**3 * e2)
    dphi = -(ps.phi**3 / 2.0) * de32

    g = geometry(state.N)
    dvt = (ps_next.V.coeffs - ps_prev.V.coeffs) / (h1 + h2)
    dbt = (ps_next.B.coeffs - ps_prev.B.coeffs) / (h1 + h2)
    absn = np.zeros_like(g.nsq, dtype=float)
    absn[g.ball_idx] = g.absn
    xv = dvt - delta * dphi * absn[..., None] * ps.V.coeffs
    xb = dbt - delta * dphi * absn[..., None] * ps.B.coeffs
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


# -- pointwise inequalities ------------------------------------------------------


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


def _pointwise_domain_error(id: str, s: float | None, delta: float | None) -> str:
    """Why (id, s, delta) is not a legal pointwise check; "" if it is."""
    if id not in POINTWISE_IDS:
        return "unknown pointwise bound id %r" % id
    if id in ("P40", "P42") and delta is None:
        return "%s needs the weight scale delta" % id
    if id in ("P40", "P42") and delta < 0:
        return "delta must be nonnegative"
    if id == "P42" and (s is None or not (-2.5 < s <= -0.5)):
        return "P42 requires -5/2 < s <= -1/2"
    if id == "P44" and (s is None or s < -1.0):
        return "P44 requires s >= -1"
    if id == "P52" and (s is None or not s < -3.5):
        return "P52 requires s < -7/2"
    return ""


class _Derivatives:
    """The time derivatives of one state, each computed on first use and
    then shared by every pointwise check of that state."""

    def __init__(self, state, delta):
        self.state, self.delta = state, delta

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
        error = _pointwise_domain_error(id, s, delta)
        if error:
            raise DomainError(error)
    if e_init is None and states:
        e_init = _energy(states[0])
    worst = dict.fromkeys(pairs)
    for state in states:
        derivs = _Derivatives(state, delta)
        for id, s in worst:
            rep = _pointwise_report(id, derivs, table, s, e_init)
            if worst[(id, s)] is None or rep.ratio > worst[(id, s)].ratio:
                worst[(id, s)] = rep
    return worst


def verify_pointwise(id: str, state, table, delta: float | None = None,
                     s: float | None = None, e_init: float | None = None) -> BoundReport:
    """Evaluate one pointwise inequality on a single state."""
    return _worst_over_checkpoints([(id, s)], [state], table, delta, e_init)[(id, s)]


def _pointwise_report(id, derivs, table, s, e_init) -> BoundReport:
    state = derivs.state
    nu, eta = state.nu, state.eta

    if id == "P40":
        ps, xi = derivs.ps, derivs.xi
        s_eff = -0.5
        lhs = 0.5 * (
            sobolev_norm(xi.xi_v, -0.5) ** 2 + sobolev_norm(xi.xi_b, -0.5) ** 2
        )
        table.ensure_C(0.5)
        table.ensure_C(1.0)
        names = ["C[0.5]", "C[1.0]"]
        e1 = sobolev_norm(ps.V, 1.0) ** 2 + sobolev_norm(ps.B, 1.0) ** 2

        def rhs_fn():
            return (
                nu**2 * sobolev_norm(ps.V, 1.5) ** 2
                + eta**2 * sobolev_norm(ps.B, 1.5) ** 2
                + 2.0 * table.Cprime_half() ** 2 * e1**2
            )

    elif id == "P42":
        ps, xi = derivs.ps, derivs.xi
        s_eff = s
        lhs = sobolev_norm(xi.xi_v, s) ** 2 + sobolev_norm(xi.xi_b, s) ** 2
        names = table.ensure_for_C_tilde_prime(s)
        x = sobolev_norm(ps.V, 1.0) ** ((2.0 * s + 5.0) / 2.0) * sobolev_norm(
            ps.V, 0.0
        ) ** ((-2.0 * s - 1.0) / 2.0)
        y = sobolev_norm(ps.B, 1.0) ** ((2.0 * s + 5.0) / 2.0) * sobolev_norm(
            ps.B, 0.0
        ) ** ((-2.0 * s - 1.0) / 2.0)

        def rhs_fn():
            return (
                2.0 * nu**2 * sobolev_norm(ps.V, s + 2.0) ** 2
                + 2.0 * eta**2 * sobolev_norm(ps.B, s + 2.0) ** 2
                + 4.0 * table.C_tilde_prime(s) ** 2 * (x + y) ** 2
            )

    elif id == "P44":
        s_eff = s
        dV, dB = derivs.rhs
        lhs = sobolev_norm(dV, s) ** 2 + sobolev_norm(dB, s) ** 2
        table.ensure_C(0.5)
        table.ensure_C(1.0)
        names = ["C[0.5]", "C[1.0]"]
        e1 = sobolev_norm(state.V, 1.0) ** 2 + sobolev_norm(state.B, 1.0) ** 2
        e_mid = (
            sobolev_norm(state.V, s + 1.5) ** 2 + sobolev_norm(state.B, s + 1.5) ** 2
        )

        def rhs_fn():
            return (
                2.0 * nu**2 * sobolev_norm(state.V, s + 2.0) ** 2
                + 2.0 * eta**2 * sobolev_norm(state.B, s + 2.0) ** 2
                + table.C_tripleprime(s) * e_mid * e1
            )

    elif id == "P51":
        s_eff = -1.0
        dV, dB = derivs.rhs
        lhs = sobolev_norm(dV, -1.0) ** 2 + sobolev_norm(dB, -1.0) ** 2
        table.ensure_C(0.5)
        table.ensure_C(1.0)
        names = ["C[0.5]", "C[1.0]"]
        e1 = sobolev_norm(state.V, 1.0) ** 2 + sobolev_norm(state.B, 1.0) ** 2

        def rhs_fn():
            return c_second_tilde(state.nu, state.eta, e_init, table) * (e1 + e1**1.5)

    else:  # P52
        s_eff = s
        dV, dB = derivs.rhs
        d2V, d2B = derivs.d2
        drift = 2.0 * nu * sobolev_inner(dV, d2V, s + 1.0) + 2.0 * eta * sobolev_inner(
            dB, d2B, s + 1.0
        )
        lhs = (
            sobolev_norm(d2V, s) ** 2 + sobolev_norm(d2B, s) ** 2 + drift
        )
        table.ensure_C(0.5)
        table.ensure_C(1.0)
        table.ensure_cp(-s - 2.0)
        names = ["C[0.5]", "C[1.0]"]
        e1 = sobolev_norm(state.V, 1.0) ** 2 + sobolev_norm(state.B, 1.0) ** 2

        def rhs_fn():
            return (
                20.0
                * table.cp(-s - 2.0) ** 2
                * c_second_tilde(state.nu, state.eta, e_init, table)
                * (e1**2 + e1**2.5)
            )

    rhs = rhs_fn()
    rhs, retried = _retry_with_better_constants(table, names, rhs_fn, lhs, rhs)
    ratio = lhs / rhs if rhs != 0.0 else (0.0 if lhs == 0.0 else math.inf)
    return BoundReport(
        id=id,
        s=s_eff,
        T=state.t,
        lhs=float(lhs),
        rhs=float(rhs),
        ratio=float(ratio),
        constants_used=table.describe(names),
        verdict=_verdict(lhs, rhs),
        note="re-estimated constants" if retried else "",
    )


def _energy(state) -> float:
    """E = (||V||^2 + ||B||^2)/2, the e_init of the P51 and P52 constants."""
    return 0.5 * (sobolev_norm(state.V, 0.0) ** 2 + sobolev_norm(state.B, 0.0) ** 2)


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


# -- integral bounds --------------------------------------------------------------


def _window(trace, T):
    t = trace.times
    t0 = float(trace.manifest.get("t0", t[0]))
    sel = (t >= t0 - 1e-12) & (t <= T + 1e-12)
    if sel.sum() < 1:
        raise TraceError("trace does not cover [t0, T]")
    return t[sel], sel, t0


def _trapz(y, x):
    return float(np.trapezoid(y, x)) if len(x) > 1 else 0.0


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


def _trace_q(trace, delta, sel0):
    """Q of the weighted-energy inequality from the first selected sample."""
    phi0 = trace.col("phi")[sel0][0]
    e0 = trace.col("tv_s0")[sel0][0] ** 2 + trace.col("tb_s0")[sel0][0] ** 2
    eh = trace.col("tv_s0.5")[sel0][0] ** 2 + trace.col("tb_s0.5")[sel0][0] ** 2
    e1 = trace.col("tv_s1")[sel0][0] ** 2 + trace.col("tb_s1")[sel0][0] ** 2
    return (
        0.5 * e0
        - delta * phi0 * eh
        + delta**2 * phi0**2 * e1
        + (2.0 * delta**3 / 3.0) * (phi0**3 - 3.0 * phi0 + 2.0)
    )


def verify_integral(id: str, trace, s: float, T: float, table,
                    delta: float | None = None, p: float | None = None,
                    sigma: float | None = None) -> BoundReport:
    """Verify one integral inequality over the archived trace up to time T."""
    if id not in INTEGRAL_IDS:
        raise DomainError("unknown integral bound id %r" % id)
    if s is None and id != "B29":
        raise DomainError("%s needs a norm index s" % id)
    man = trace.manifest
    nu = float(man["config"]["nu"])
    eta = float(man["config"]["eta"])
    mn = min(nu, eta)
    ts, sel, t0 = _window(trace, T)
    dT = T - t0
    names = []
    note = ""

    if id == "B19":
        if sigma is None:
            sigma = float(man["sigma"])
        if not (0.5 < s <= 1.0):
            raise DomainError("B19 requires 1/2 < s < 1 or s = 1")
        key = "ft_s%s" % fmt_s(s)
        lhs_series = trace.col(key)[sel]
        # At t = t0 the exponential weight is 1, so the first stored value of
        # the weighted column is the plain squared H_s norm of the data.
        e0 = lhs_series[0]
        table.ensure_C(s)
        table.ensure_C(1.5 - s)
        names = [table.skey_C(s), table.skey_C(1.5 - s)]

        def rhs_fn():
            gamma = (mn - sigma) / (table.Cprime(s) * (2.5 - s))
            c2 = table.C_second(s, gamma)
            if e0 == 0.0:
                return np.full_like(lhs_series, 0.0), math.inf
            t_star = e0 ** (-2.0 / (2.0 * s - 1.0)) / c2
            base = e0 ** (-2.0 / (2.0 * s - 1.0)) - c2 * (ts - t0)
            qs = np.where(base > 0, base, np.nan) ** (-(s - 0.5))
            return qs, t_star

        qs, t_star = rhs_fn()
        inwin = (ts - t0) < t_star
        if not np.any(inwin):
            return BoundReport(id, s, T, 0.0, 0.0, 0.0, table.describe(names),
                               "informational", "outside guaranteed window")
        ratios = lhs_series[inwin] / np.where(qs[inwin] > 0, qs[inwin], np.nan)
        k = int(np.nanargmax(ratios))
        lhs = float(lhs_series[inwin][k])
        rhs = float(qs[inwin][k])
        if lhs > rhs:
            est = [n for n in names if table.provenance(n) == "estimated"]
            if est:
                for n in est:
                    table.reestimate(n)
                qs, t_star = rhs_fn()
                inwin = (ts - t0) < t_star
                ratios = lhs_series[inwin] / qs[inwin]
                k = int(np.nanargmax(ratios))
                lhs, rhs = float(lhs_series[inwin][k]), float(qs[inwin][k])
                note = "re-estimated constants"
        if not np.all(inwin):
            note = (note + "; " if note else "") + "verified inside guaranteed window only"
        ratio = lhs / rhs if rhs else 0.0
        return BoundReport(id, s, T, lhs, rhs, ratio, table.describe(names),
                           _verdict(lhs, rhs), note)

    if id == "B29":
        if delta is None:
            delta = float(man["delta"])
        rep = verify_theorem2(trace, delta, T, table=table)
        lhs = rep.lhs_terminal + rep.lhs_integral
        verdict = rep.verdict
        note = "Q <= 0" if rep.q_nonpositive else ""
        return BoundReport(id, 0.0, T, float(lhs), rep.rhs, rep.ratio,
                           table.describe(["C[0.5]", "C[1.0]"]), verdict, note)

    if delta is None:
        delta = float(man.get("delta", 0.0)) or None

    # All remaining bounds need Q from the weighted transform at t0.
    if id != "B32_2":
        if delta is None:
            raise DomainError("%s needs the weight scale delta" % id)
        Q = _trace_q(trace, delta, sel)
        if Q < 0:
            note = "Q <= 0; informational"

    def _report(lhs, rhs_fn, names, s_eff=s):
        rhs = rhs_fn()
        rhs, retried = _retry_with_better_constants(table, names, rhs_fn, lhs, rhs)
        extra = "re-estimated constants" if retried else ""
        full_note = "; ".join(x for x in (note, extra) if x)
        ratio = lhs / rhs if rhs != 0.0 else (0.0 if lhs == 0.0 else math.inf)
        verdict = _verdict(lhs, rhs)
        if "informational" in full_note:
            verdict = "informational"
        return BoundReport(id, s_eff, T, float(lhs), float(rhs), float(ratio),
                           table.describe(names), verdict, full_note)

    def _col_pair(prefix, ss):
        key = fmt_s(ss)
        return trace.col("%s_s%s" % (prefix[0], key))[sel], trace.col(
            "%s_s%s" % (prefix[1], key)
        )[sel]

    if id == "B32_1":
        if s <= 1.0:
            raise DomainError("B32_1 requires s > 1")
        v, b = _col_pair(("v", "b"), s)
        a = alpha_exponent(s)
        y = (v**2 + b**2) ** (a / 2.0)
        lhs = _trapz(y, ts)
        qn = _quadrature_note(y, ts)
        if qn:
            note = (note + "; " if note else "") + qn
        return _report(lhs, lambda: q_tilde(Q, delta, mn, dT, s), [])

    if id == "B32_2":
        if not (0.0 < s <= 1.0):
            raise DomainError("B32_2 requires 0 < s <= 1")
        v, b = _col_pair(("v", "b"), s)
        y = (v**2 + b**2) ** (1.0 / s)
        lhs = _trapz(y, ts)
        e0_init = trace.col("v_s0")[sel][0] ** 2 + trace.col("b_s0")[sel][0] ** 2 \
            if trace.has_col("v_s0") else 2.0 * trace.col("energy")[sel][0]
        return _report(lhs, lambda: (2.0 * mn) ** -1.0 * e0_init ** (1.0 / s), [])

    if id == "B32_3":
        if s <= -0.5:
            raise DomainError("B32_3 requires s > -1/2")
        wv, wb = _col_pair(("wv", "wb"), s)
        a = alpha_exponent(s + 1.5)
        y = (wv + wb) ** a
        lhs = _trapz(y, ts)
        return _report(lhs, lambda: q_tilde_wiener(Q, delta, mn, dT, s), [])

    if id == "COR51":
        if p is None:
            raise DomainError("COR51 needs the integrability order p")
        if p < 2.0 or s < 3.0 / p - 0.5:
            raise DomainError("COR51 requires p >= 2 and s >= 3/p - 1/2")
        idx = s + 1.5 - 3.0 / p
        if idx <= 1.0:
            raise DomainError("COR51 implemented for s + 3/2 - 3/p > 1")
        a = alpha_exponent(idx)
        key = fmt_s(p)
        skey = fmt_s(s)
        lv = trace.col("lv_q%s_s%s" % (key, skey))[sel]
        lb = trace.col("lb_q%s_s%s" % (key, skey))[sel]
        y = (lv + lb) ** a
        lhs = _trapz(y, ts)
        table.ensure_C(1.5 - 3.0 / p)
        names = [table.skey_C(1.5 - 3.0 / p)]
        return _report(
            lhs,
            lambda: table.C(1.5 - 3.0 / p) ** a
            * 2.0 ** (a / 2.0)
            * q_tilde(Q, delta, mn, dT, idx),
            names,
        )

    if id == "B36_1":
        if s < -0.5:
            raise DomainError("B36_1 requires s >= -1/2")
        dv, db = _col_pair(("dv", "db"), s)
        a = alpha_exponent(s + 2.0)
        y = (dv**2 + db**2) ** (a / 2.0)
        lhs = _trapz(y, ts)
        table.ensure_C(0.5)
        table.ensure_C(1.0)
        names = ["C[0.5]", "C[1.0]"]
        return _report(lhs, lambda: d1_constant(Q, delta, nu, eta, dT, s, table), names)

    if id == "B36_2":
        if not (-2.5 < s <= -0.5):
            raise DomainError("B36_2 requires -5/2 < s <= -1/2")
        dv, db = _col_pair(("dv", "db"), s)
        q = 2.0 / (2.0 * s + 5.0)
        y = (dv**2 + db**2) ** q
        lhs = _trapz(y, ts)
        names = table.ensure_for_C_tilde_prime(s)
        note = (note + "; " if note else "") + "derivation-dependent RHS"
        return _report(lhs, lambda: d2_constant(Q, delta, nu, eta, dT, s, table), names)

    if id == "B36_3":
        if s >= -2.5:
            raise DomainError("B36_3 requires s < -5/2")
        dv, db = _col_pair(("dv", "db"), s)
        lhs = float(np.max(dv**2 + db**2))
        table.ensure_cp(-s - 1.0)
        names = [table.skey_cp(-s - 1.0)]
        return _report(lhs, lambda: d3_constant(Q, nu, eta, s, table), names)

    if id == "B36_4":
        if s <= -2.0:
            raise DomainError("B36_4 requires s > -2")
        dwv, dwb = _col_pair(("dwv", "dwb"), s)
        a = alpha_exponent(s + 3.5)
        y = (dwv + dwb) ** a
        lhs = _trapz(y, ts)
        table.ensure_C(0.5)
        table.ensure_C(1.0)
        names = ["C[0.5]", "C[1.0]"]
        return _report(lhs, lambda: d4_constant(Q, delta, nu, eta, dT, s, table), names)

    raise DomainError("unhandled bound id %r" % id)


SWEEP_INTEGRAL_CASES = (
    ("B19", 0.75, {}),
    ("B19", 1.0, {}),
    ("B29", None, {}),
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
)
SWEEP_POINTWISE_CASES = (
    ("P40", None),
    ("P42", -1.0),
    ("P44", 0.0),
    ("P51", None),
    ("P52", -4.0),
)


def standard_sweep(trace, table, delta: float | None = None,
                   sigma: float | None = None, T: float | None = None,
                   checkpoint_step: int = 1) -> list:
    """Run the canonical battery of integral and pointwise checks on a trace.

    Integral bounds use the full stored series; pointwise inequalities are
    evaluated on every ``checkpoint_step``-th stored checkpoint and the worst
    ratio is reported per bound.  Returns a list of BoundReport.
    """
    man = trace.manifest
    if delta is None:
        delta = float(man["delta"])
    if sigma is None:
        sigma = float(man.get("sigma", 0.5 * min(
            float(man["config"]["nu"]), float(man["config"]["eta"]))))
    if T is None:
        T = float(trace.times[-1])
    reports = []
    for id, s, kw in SWEEP_INTEGRAL_CASES:
        reports.append(verify_integral(id, trace, s, T, table,
                                       delta=delta, sigma=sigma, **kw))
    states = trace.checkpoints()[::checkpoint_step]
    if not states:
        raise TraceError("archive holds no checkpoints")
    worst = _worst_over_checkpoints(SWEEP_POINTWISE_CASES, states, table, delta)
    return reports + list(worst.values())


def d2_report(trace, s: float, table, delta: float | None = None) -> BoundReport:
    """Second-derivative inequality along the stored checkpoints, s < -7/2."""
    if not s < -3.5:
        raise DomainError("d2_report requires s < -7/2")
    states = trace.checkpoints()
    if not states:
        raise TraceError("archive holds no checkpoints")
    worst = _worst_over_checkpoints([("P52", s)], states, table, delta)[("P52", s)]
    worst.note = (worst.note + "; " if worst.note else "") + (
        "max over %d checkpoints" % len(states)
    )
    return worst
