"""Reference computations that the package computes another way.

Each function here is an independent route to a quantity the package
evaluates by a faster or different path; the tests compare the two.  None of
them is called by the package itself:

  nonlinear_rhs_direct   the Galerkin nonlinearity by literal double summation
                         (``solver.nonlinear_rhs_fast``)
  sigma_p_direct         the weighted triple-interaction sum by literal double
                         summation (``transform.sigma_p``)
  xi_fields_chain        xi by the product rule along a trajectory
                         (``bounds.xi_fields``)
  balance_residual       the midpoint residual of the weighted-energy balance
                         along transformed states
"""

import numpy as np

from mhdgevrey.bounds import XiFields
from mhdgevrey.errors import DomainError
from mhdgevrey.solver import MhdState
from mhdgevrey.spectral import SpectralField, geometry
from mhdgevrey.transform import PhiState, _balance_terms, _energy_s, sigma_p, transform


def nonlinear_rhs_direct(state: MhdState):
    """Reference nonlinear terms by literal double summation over mode pairs.

    Velocity part: -i sum_k P_n[(V_{n-k}.k) V_k - (B_{n-k}.k) B_k];
    magnetic part: i n x sum_k (V_{n-k} x B_k).  O(N^6); keep N <= 10.
    """
    N = state.N
    g = geometry(N)
    size = 2 * N + 1
    at = tuple((g.modes + N).T)  # the ball rows inside a local (2N+1)^3 cube
    Vc = np.zeros((size, size, size, 3), dtype=np.complex128)
    Bc = np.zeros_like(Vc)
    Vc[at], Bc[at] = state.V.coeffs, state.B.coeffs
    accV = np.zeros_like(Vc)
    accW = np.zeros_like(Vc)  # sum over k of V_{n-k} x B_k

    for k, Bk, Vk in zip(g.modes, state.B.coeffs, state.V.coeffs):
        dst = tuple(
            slice(max(0, kd), size + min(0, kd)) for kd in k
        )
        src = tuple(
            slice(max(0, -kd), size + min(0, -kd)) for kd in k
        )
        VS = np.zeros_like(Vc)
        BS = np.zeros_like(Bc)
        VS[dst] = Vc[src]
        BS[dst] = Bc[src]
        kf = k.astype(float)
        accV += -1j * (
            np.einsum("...c,c->...", VS, kf)[..., None] * Vk
            - np.einsum("...c,c->...", BS, kf)[..., None] * Bk
        )
        accW += np.cross(VS, Bk[None, None, None, :])

    nf = g.modes.astype(float)
    vvals = accV[at]
    vvals = vvals - (np.einsum("kc,kc->k", vvals, nf) / g.absn**2)[:, None] * nf
    return SpectralField(N, vvals), SpectralField(N, 1j * np.cross(nf, accW[at]))


def sigma_p_direct(phi_state: PhiState, p: float) -> float:
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
