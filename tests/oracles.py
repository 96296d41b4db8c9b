"""Reference computations that the package computes another way.

Each function here is an independent route to a quantity the package
evaluates by a faster or different path; the tests compare the two.  None of
them is called by the package itself.  The package never forms the
Phi-weighted fields v~ = e^{delta Phi |n|} v, b~ = e^{delta Phi |n|} b: it
reads each weighted quantity as a shell sum of the plain fields at the Gevrey
index delta*Phi.  The weighted-copy route survives only here, as the
reference:

  nonlinear_rhs_direct   the Galerkin nonlinearity by literal double summation
                         (``solver.nonlinear_rhs_fast``)
  weighted               a field with every coefficient multiplied by e^{a|n|}
  weighted_state         (v~, b~, Phi) of a state, as explicit coefficients
  sigma_p_direct         the weighted triple-interaction sum by literal double
                         summation over explicitly weighted coefficients
                         (``transform.sigma_p``)
  xi_fields_chain        xi = e^{delta Phi |n|} dU/dt by the product rule along
                         a trajectory (the P40/P42 left-hand sides)
  balance_residual       the midpoint residual of the weighted-energy balance
                         along a trajectory

``sigma_p_of`` is the package's own route, not a reference: i*Sigma_p of a
state at weight scale delta, with the arguments the sample row passes.
"""

import numpy as np

from mhdgevrey.errors import DomainError
from mhdgevrey.solver import MhdState, nonlinear_rhs_fast
from mhdgevrey.spectral import SpectralField, _energy, geometry
from mhdgevrey.transform import _balance_terms, sigma_p, solve_phi


def sigma_p_of(state, delta: float, p: float) -> float:
    """``transform.sigma_p`` of the state's nonlinearity at dP = delta*Phi."""
    dp = delta * solve_phi(state.V, state.B, delta)
    return sigma_p(state, nonlinear_rhs_fast(state), dp, p)


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


def weighted(w: SpectralField, a: float) -> SpectralField:
    """w with every coefficient multiplied by e^{a|n|}."""
    return SpectralField(w.N, w.coeffs * np.exp(a * geometry(w.N).absn)[:, None])


def weighted_state(state, delta: float):
    """(v~, b~, Phi): the fields of the state weighted by e^{delta Phi |n|}."""
    phi = solve_phi(state.V, state.B, delta)
    return weighted(state.V, delta * phi), weighted(state.B, delta * phi), phi


def sigma_p_direct(state, delta: float, p: float) -> float:
    """Reference i*Sigma_p by literal double summation over the coefficient
    pairs of the explicitly weighted fields.

    O(N^6); keep N <= 8.  The p = 0 case uses the index-swapped symmetrized
    kernel, which removes a cancellation between large exponentials.
    """
    tv, tb, phi = weighted_state(state, delta)
    N = state.N
    g = geometry(N)
    size = 2 * N + 1
    dp = delta * phi
    at = tuple((g.modes + N).T)  # the ball rows inside a local (2N+1)^3 cube
    vc = np.zeros((size, size, size, 3), dtype=np.complex128)
    bc = np.zeros_like(vc)
    vc[at], bc[at] = tv.coeffs, tb.coeffs

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
    for k, vk, bk in zip(g.modes, tv.coeffs, tb.coeffs):
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


def xi_fields_chain(state_prev, state, state_next, delta: float):
    """(xi_v, xi_b, Phi) via the product rule: d(v~)/dt - delta |n| v~ dPhi/dt.

    The tilde-field derivative is a central difference of the explicitly
    weighted trajectory; dPhi/dt comes from the weighted-energy balance, so
    this is an independent consistency route, accurate to O(h^2).
    """
    v_prev, b_prev, _ = weighted_state(state_prev, delta)
    tv, tb, phi = weighted_state(state, delta)
    v_next, b_next, _ = weighted_state(state_next, delta)
    h1 = state.t - state_prev.t
    h2 = state_next.t - state.t
    if not (h1 > 0 and h2 > 0):
        raise DomainError("states must be time-ordered")

    # dPhi/dt = -(Phi^3/2) dE_{3/2}/dt with dE_{3/2}/dt from the balance.
    e2, diss = _balance_terms(state, delta * phi)
    de32 = 2.0 * (sigma_p_of(state, delta, 3.0) - diss) / (1.0 + delta * phi**3 * e2)
    dphi = -(phi**3 / 2.0) * de32

    absn = geometry(state.N).absn[:, None]
    xv = (v_next.coeffs - v_prev.coeffs) / (h1 + h2) - delta * dphi * absn * tv.coeffs
    xb = (b_next.coeffs - b_prev.coeffs) / (h1 + h2) - delta * dphi * absn * tb.coeffs
    return SpectralField(state.N, xv), SpectralField(state.N, xb), phi


def balance_residual(states, delta: float) -> float:
    """Midpoint residual of the weighted-energy balance along states.

    Each consecutive pair contributes |(1/2)(1 + delta Phi^3 E~_2) dE~_{3/2}/dt
    + nu ||v~||_{5/2}^2 + eta ||b~||_{5/2}^2 - i Sigma_3| with every factor
    evaluated as the midpoint average; returns the maximum over pairs.
    """
    states = list(states)
    if len(states) < 2:
        raise DomainError("need at least two consecutive samples")
    vals = []
    for st in states:
        phi = solve_phi(st.V, st.B, delta)
        e32 = _energy((st.V, st.B), 1.5, delta * phi)
        e2, diss = _balance_terms(st, delta * phi)
        pref = 0.5 * (1.0 + delta * phi**3 * e2)
        vals.append((st.t, e32, pref, diss, sigma_p_of(st, delta, 3.0)))
    worst = 0.0
    for (t1, e1, p1, d1, s1), (t2, e2_, p2, d2, s2) in zip(vals, vals[1:]):
        h = t2 - t1
        if not h > 0:
            raise DomainError("sample times must increase")
        de = (e2_ - e1) / h
        res = 0.5 * (p1 + p2) * de + 0.5 * (d1 + d2) - 0.5 * (s1 + s2)
        worst = max(worst, abs(res))
    return worst
