"""Fourier-Galerkin dynamics for incompressible diffusive MHD on the torus.

The state is the pair of coefficient balls (V, B).  The right-hand side of
the Galerkin ODE system is evaluated either by literal double summation
(reference path, O(N^6)) or through padded FFT products on a grid large
enough that the truncated convolution is exact, not merely alias-free.
Time stepping uses integrating-factor Runge-Kutta: the diagonal diffusion
is integrated exactly and only the nonlinearity is treated explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn

from .archive import TraceArchive, checkpoint_load, checkpoint_save
from .errors import BlowUpError, ConfigError, DomainError
from .spectral import (
    SpectralField,
    fmt_s,
    geometry,
    gevrey_norm,
    leray_project,
    lq_norm,
    project_solenoidal,
    sobolev_norm,
    wiener_norm,
)

SCHEMES = ("integrating-factor-RK2", "integrating-factor-RK4")


@dataclass(frozen=True)
class MhdState:
    """Velocity and magnetic coefficient fields at one instant."""

    V: SpectralField
    B: SpectralField
    t: float = 0.0
    nu: float = 1.0
    eta: float = 1.0

    def __post_init__(self):
        if self.V.N != self.B.N:
            raise DomainError("velocity and magnetic truncations differ")
        if not (self.nu > 0 and self.eta > 0):
            raise DomainError("diffusivities must be positive")

    @property
    def N(self) -> int:
        return self.V.N

    def validate(self) -> "MhdState":
        self.V.validate()
        self.B.validate()
        return self


@dataclass(frozen=True)
class SolverConfig:
    N: int
    nu: float
    eta: float
    dt: float
    t_end: float
    dealias: bool = True
    output_stride: int = 1
    scheme: str = "integrating-factor-RK4"
    checkpoint_stride: int | None = None

    def __post_init__(self):
        if self.N < 1:
            raise ConfigError("N must be >= 1")
        if not (self.dt > 0):
            raise ConfigError("dt must be positive")
        if self.t_end < 0:
            raise ConfigError("t_end must be nonnegative")
        if not (self.nu > 0 and self.eta > 0):
            raise ConfigError("diffusivities must be positive")
        if self.output_stride < 1:
            raise ConfigError("output_stride must be >= 1")
        if self.scheme not in SCHEMES:
            raise ConfigError("unknown scheme %r" % self.scheme)


# -- FFT plan ----------------------------------------------------------------


@lru_cache(maxsize=8)
def _plan(N: int):
    """Index plan for exact convolution of two radius-N balls on an rfft grid.

    The product of two fields supported in |n| <= N has modes up to 2N per
    component; a grid of M >= 3N+1 points per dimension keeps every retained
    mode alias-free, so the truncated convolution computed through physical
    space is exact to roundoff.
    """
    g = geometry(N)
    M = next_fast_len(3 * N + 1, real=True)

    class _Plan:
        pass

    p = _Plan()
    p.N, p.M, p.g = N, M, g

    keep = g.modes[:, 2] >= 0
    hm = g.modes[keep]
    p.half_modes = hm
    p.half_n = hm.astype(float)
    p.half_nsq = np.einsum("kc,kc->k", p.half_n, p.half_n)
    p.scatter = (hm[:, 0] % M, hm[:, 1] % M, hm[:, 2])

    # Map every ball mode to its representative in the half list so full
    # conjugate-symmetric cubes can be rebuilt from half-grid values.
    lookup = {tuple(m): j for j, m in enumerate(hm)}
    jmap = np.empty(len(g.modes), dtype=np.intp)
    conj = np.empty(len(g.modes), dtype=bool)
    for k, m in enumerate(g.modes):
        key = tuple(m)
        if key in lookup:
            jmap[k], conj[k] = lookup[key], False
        else:
            jmap[k], conj[k] = lookup[tuple(-m)], True
    p.jmap, p.conj = jmap, conj
    return p


def _to_phys(fields, plan):
    """Inverse-transform a list of half-grid coefficient arrays, batched."""
    M = plan.M
    half = np.zeros((len(fields), M, M, M // 2 + 1), dtype=np.complex128)
    for i, vals in enumerate(fields):
        half[i][plan.scatter] = vals
    return irfftn(half, s=(M, M, M), axes=(1, 2, 3), workers=1) * (M**3)


def _to_spec(phys, plan):
    """Forward-transform physical arrays and gather the half-mode values."""
    M = plan.M
    spec = rfftn(phys, axes=(-3, -2, -1), workers=1) / (M**3)
    return spec[(Ellipsis,) + plan.scatter]


def _half_values(w: SpectralField, plan):
    g = plan.g
    vals = w.coeffs[g.ball_idx]
    keep = g.modes[:, 2] >= 0
    return vals[keep]


def _cube_from_half(half_vals, plan):
    """Rebuild the conjugate-symmetric coefficient cube from half-grid data."""
    g = plan.g
    full = half_vals[plan.jmap]
    full = np.where(plan.conj[:, None], np.conj(full), full)
    # Symmetrize away the roundoff asymmetry of the forward transforms.
    c = np.zeros((g.size, g.size, g.size, half_vals.shape[-1]), dtype=np.complex128)
    c[g.ball_idx] = full
    return 0.5 * (c + np.conj(c[::-1, ::-1, ::-1]))


def _project_half(vals, plan):
    n = plan.half_n
    dots = np.einsum("kc,kc->k", vals, n)
    return vals - (dots / plan.half_nsq)[:, None] * n


# -- right-hand sides --------------------------------------------------------


def nonlinear_rhs_direct(state: MhdState):
    """Reference nonlinear terms by literal double summation over mode pairs.

    Velocity part: -i sum_k P_n[(V_{n-k}.k) V_k - (B_{n-k}.k) B_k];
    magnetic part: i n x sum_k (V_{n-k} x B_k).  O(N^6); keep N <= 10.
    """
    N = state.N
    g = geometry(N)
    size = g.size
    Vc, Bc = state.V.coeffs, state.B.coeffs
    accV = np.zeros_like(Vc)
    accW = np.zeros_like(Vc)  # sum over k of V_{n-k} x B_k

    for k, Bk, Vk in zip(g.modes, state.B.ball(), state.V.ball()):
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

    accV[~g.ball] = 0.0
    accW[~g.ball] = 0.0
    nf = g.modes.astype(float)
    vvals = accV[g.ball_idx]
    vvals = vvals - (np.einsum("kc,kc->k", vvals, nf) / g.absn**2)[:, None] * nf
    accV[g.ball_idx] = vvals
    indc = np.zeros_like(Bc)
    indc[g.ball_idx] = 1j * np.cross(nf, accW[g.ball_idx])
    return SpectralField(N, accV), SpectralField(N, indc)


def nonlinear_rhs_fast(state: MhdState, grid: int | None = None):
    """Nonlinear terms via padded transforms; exact convolution on the ball.

    Momentum in divergence form, -i P_n (n_j T_ij) with T = V V - B B, and
    induction as i n x (V x B)^hat: 6 inverse and 9 forward transforms.
    """
    N = state.N
    plan = _plan(N)
    if grid is not None:
        if grid < 3 * N + 1:
            raise ConfigError("convolution grid must have at least 3N+1 points")
        plan = _custom_plan(N, grid)
    vh = _half_values(state.V, plan)
    bh = _half_values(state.B, plan)
    phys = _to_phys([vh[:, 0], vh[:, 1], vh[:, 2], bh[:, 0], bh[:, 1], bh[:, 2]], plan)
    v, b = phys[:3], phys[3:]

    prods = np.empty((9,) + v.shape[1:])
    # T_ij = V_i V_j - B_i B_j, upper triangle (6 products)
    pos = 0
    pairs = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    for i, j in pairs:
        prods[pos] = v[i] * v[j] - b[i] * b[j]
        pos += 1
    # w = V x B (3 products)
    prods[6] = v[1] * b[2] - v[2] * b[1]
    prods[7] = v[2] * b[0] - v[0] * b[2]
    prods[8] = v[0] * b[1] - v[1] * b[0]

    spec = _to_spec(prods, plan)
    T = {pairs[i]: spec[i] for i in range(6)}
    for i, j in pairs:
        T[(j, i)] = T[(i, j)]
    n = plan.half_n
    adv = np.stack(
        [-1j * sum(n[:, j] * T[(i, j)] for j in range(3)) for i in range(3)], axis=-1
    )
    adv = _project_half(adv, plan)
    w = np.moveaxis(spec[6:], 0, -1)
    ind = 1j * np.cross(n, w)
    return (
        SpectralField(N, _cube_from_half(adv, plan)),
        SpectralField(N, _cube_from_half(ind, plan)),
    )


@lru_cache(maxsize=4)
def _custom_plan(N: int, M: int):
    base = _plan(N)

    class _Plan:
        pass

    p = _Plan()
    p.N, p.M, p.g = N, M, base.g
    hm = base.half_modes
    p.half_modes, p.half_n, p.half_nsq = hm, base.half_n, base.half_nsq
    p.scatter = (hm[:, 0] % M, hm[:, 1] % M, hm[:, 2])
    p.jmap, p.conj = base.jmap, base.conj
    return p


def _diffusion(state: MhdState, dV: SpectralField, dB: SpectralField):
    g = geometry(state.N)
    nsq = g.nsq.astype(float)[..., None]
    vc = dV.coeffs - state.nu * nsq * state.V.coeffs
    bc = dB.coeffs - state.eta * nsq * state.B.coeffs
    return SpectralField(state.N, vc), SpectralField(state.N, bc)


def full_rhs(state: MhdState, fast: bool = True):
    """Exact time derivative (dV/dt, dB/dt) of the Galerkin system."""
    nl = nonlinear_rhs_fast(state) if fast else nonlinear_rhs_direct(state)
    return _diffusion(state, *nl)


# -- bilinear kernels and the second time derivative -------------------------


def advection_bilinear(X: SpectralField, Y: SpectralField):
    """-i P_n sum_k (X_{n-k}.k) Y_k for solenoidal X, via exact transforms."""
    if X.N != Y.N:
        raise DomainError("mismatched truncation radii")
    plan = _plan(X.N)
    xh, yh = _half_values(X, plan), _half_values(Y, plan)
    phys = _to_phys([xh[:, i] for i in range(3)] + [yh[:, i] for i in range(3)], plan)
    x, y = phys[:3], phys[3:]
    prods = np.stack([x[j] * y[i] for i in range(3) for j in range(3)])
    spec = _to_spec(prods, plan)
    n = plan.half_n
    out = np.stack(
        [-1j * sum(n[:, j] * spec[3 * i + j] for j in range(3)) for i in range(3)],
        axis=-1,
    )
    out = _project_half(out, plan)
    return SpectralField(X.N, _cube_from_half(out, plan))


def induction_bilinear(X: SpectralField, Y: SpectralField):
    """i n x sum_k (X_{n-k} x Y_k) via exact transforms."""
    if X.N != Y.N:
        raise DomainError("mismatched truncation radii")
    plan = _plan(X.N)
    xh, yh = _half_values(X, plan), _half_values(Y, plan)
    phys = _to_phys([xh[:, i] for i in range(3)] + [yh[:, i] for i in range(3)], plan)
    x, y = phys[:3], phys[3:]
    w = np.stack(
        [
            x[1] * y[2] - x[2] * y[1],
            x[2] * y[0] - x[0] * y[2],
            x[0] * y[1] - x[1] * y[0],
        ]
    )
    spec = np.moveaxis(_to_spec(w, plan), 0, -1)
    out = 1j * np.cross(plan.half_n, spec)
    return SpectralField(X.N, _cube_from_half(out, plan))


def second_time_derivative(state: MhdState):
    """Algebraic (d^2 V/dt^2, d^2 B/dt^2): diffusion of the first derivative
    plus the bilinear terms with one slot replaced by that derivative."""
    dV, dB = full_rhs(state)
    g = geometry(state.N)
    nsq = g.nsq.astype(float)[..., None]
    d2v = (
        -state.nu * nsq * dV.coeffs
        + advection_bilinear(dV, state.V).coeffs
        + advection_bilinear(state.V, dV).coeffs
        - advection_bilinear(dB, state.B).coeffs
        - advection_bilinear(state.B, dB).coeffs
    )
    d2b = (
        -state.eta * nsq * dB.coeffs
        + induction_bilinear(dV, state.B).coeffs
        + induction_bilinear(state.V, dB).coeffs
    )
    return SpectralField(state.N, d2v), SpectralField(state.N, d2b)


# -- time stepping -----------------------------------------------------------


@lru_cache(maxsize=32)
def _decay_factors(N: int, nu: float, eta: float, dt: float):
    g = geometry(N)
    nsq = g.nsq.astype(float)[..., None]
    return (
        np.exp(-nu * nsq * dt),
        np.exp(-eta * nsq * dt),
        np.exp(-nu * nsq * (dt / 2)),
        np.exp(-eta * nsq * (dt / 2)),
    )


def _nl_pair(vc, bc, N, fast):
    st = MhdState(SpectralField(N, vc), SpectralField(N, bc))
    f = nonlinear_rhs_fast(st) if fast else nonlinear_rhs_direct(st)
    return f[0].coeffs, f[1].coeffs


def step(state: MhdState, dt: float, scheme: str = "integrating-factor-RK4",
         fast: bool = True) -> MhdState:
    """One integrating-factor Runge-Kutta step of size dt."""
    if not dt > 0:
        raise DomainError("dt must be positive")
    if scheme not in SCHEMES:
        raise ConfigError("unknown scheme %r" % scheme)
    N = state.N
    ev, eb, ev2, eb2 = _decay_factors(N, state.nu, state.eta, dt)
    v0, b0 = state.V.coeffs, state.B.coeffs

    # Overflow is how blow-up manifests; detect it below instead of warning.
    with np.errstate(over="ignore", invalid="ignore"):
        return _step_stages(state, dt, scheme, fast, ev, eb, ev2, eb2, v0, b0)


def _step_stages(state, dt, scheme, fast, ev, eb, ev2, eb2, v0, b0):
    N = state.N
    if scheme == "integrating-factor-RK2":
        k1v, k1b = _nl_pair(v0, b0, N, fast)
        vp = ev * (v0 + dt * k1v)
        bp = eb * (b0 + dt * k1b)
        k2v, k2b = _nl_pair(vp, bp, N, fast)
        vn = ev * v0 + 0.5 * dt * (ev * k1v + k2v)
        bn = eb * b0 + 0.5 * dt * (eb * k1b + k2b)
    else:
        k1v, k1b = _nl_pair(v0, b0, N, fast)
        k2v, k2b = _nl_pair(ev2 * (v0 + 0.5 * dt * k1v), eb2 * (b0 + 0.5 * dt * k1b), N, fast)
        k3v, k3b = _nl_pair(ev2 * v0 + 0.5 * dt * k2v, eb2 * b0 + 0.5 * dt * k2b, N, fast)
        k4v, k4b = _nl_pair(ev * v0 + dt * ev2 * k3v, eb * b0 + dt * eb2 * k3b, N, fast)
        vn = ev * v0 + (dt / 6.0) * (ev * k1v + 2.0 * ev2 * (k2v + k3v) + k4v)
        bn = eb * b0 + (dt / 6.0) * (eb * k1b + 2.0 * eb2 * (k2b + k3b) + k4b)

    t_new = state.t + dt
    if not (np.all(np.isfinite(vn.view(np.float64))) and np.all(np.isfinite(bn.view(np.float64)))):
        raise BlowUpError(t_new, state)
    Vn = project_solenoidal(SpectralField(N, vn))
    return replace(state, V=Vn, B=SpectralField(N, bn), t=t_new)


# -- initial conditions ------------------------------------------------------


def make_initial(kind: str, params: dict, N: int, seed: int = 0,
                 nu: float = 1.0, eta: float = 1.0, t: float = 0.0) -> MhdState:
    """Construct a valid initial state of the requested family."""
    if kind == "single-mode":
        V = _single_mode_field(N, params["n_v"], params["amp_v"])
        if params.get("n_b") is not None:
            B = _single_mode_field(N, params["n_b"], params["amp_b"])
        else:
            B = SpectralField.zeros(N)
    elif kind == "abc-like":
        A, Bc, C = params.get("A", 1.0), params.get("B", 1.0), params.get("C", 1.0)
        scale_b = params.get("b_factor", 0.5)
        V = _abc_field(N, A, Bc, C)
        B = _abc_field(N, scale_b * C, scale_b * A, scale_b * Bc)
    elif kind == "random-spectrum":
        rng = np.random.default_rng(seed)
        V = _random_field(N, rng, params.get("a", 2.0), params.get("b", 0.5))
        B = _random_field(N, rng, params.get("a", 2.0), params.get("b", 0.5))
        tv = params.get("norm_v", 1.0)
        tb = params.get("norm_b", 1.0)
        V = _rescale(V, tv)
        B = _rescale(B, tb)
    else:
        raise ConfigError("unknown initial kind %r" % kind)
    return MhdState(V=V.validate(), B=B.validate(), t=t, nu=nu, eta=eta)


def _single_mode_field(N, n, amp):
    n = tuple(int(x) for x in n)
    amp = np.asarray(amp, dtype=np.complex128)
    if abs(complex(amp @ np.asarray(n, float))) > 1e-14 * max(1.0, float(np.max(np.abs(amp)))):
        raise ConfigError("single-mode amplitude not orthogonal to its wavevector")
    return SpectralField.from_modes(N, {n: 0.5 * amp}, add_conjugates=True)


def _abc_field(N, A, B, C):
    # Three helical |n|=1 pairs: A(0,sin x1,cos x1) + B(cos x2,0,sin x2)
    # + C(sin x3,cos x3,0), written out in coefficients.
    e = {}
    e[(1, 0, 0)] = 0.5 * np.array([0.0, -1j * A, A], dtype=np.complex128)
    e[(0, 1, 0)] = 0.5 * np.array([B, 0.0, -1j * B], dtype=np.complex128)
    e[(0, 0, 1)] = 0.5 * np.array([-1j * C, C, 0.0], dtype=np.complex128)
    return SpectralField.from_modes(N, e, add_conjugates=True)


def _random_field(N, rng, a, b):
    g = geometry(N)
    keep = g.modes[:, 2] > 0
    keep |= (g.modes[:, 2] == 0) & (
        (g.modes[:, 1] > 0) | ((g.modes[:, 1] == 0) & (g.modes[:, 0] > 0))
    )
    hm = g.modes[keep]
    absn = g.absn[keep]
    mag = absn ** (-a) * np.exp(-b * absn)
    vec = rng.standard_normal((len(hm), 3)) + 1j * rng.standard_normal((len(hm), 3))
    vec *= (mag / np.maximum(np.linalg.norm(vec, axis=1), 1e-300))[:, None]
    c = np.zeros((g.size, g.size, g.size, 3), dtype=np.complex128)
    c[hm[:, 0] + N, hm[:, 1] + N, hm[:, 2] + N] = vec
    c += np.conj(c[::-1, ::-1, ::-1].copy())
    return project_solenoidal(SpectralField(N, c))


def _rescale(w, target):
    cur = sobolev_norm(w, 0.0)
    if cur == 0.0:
        raise ConfigError("cannot rescale a zero field")
    g = geometry(w.N)
    c = w.coeffs * (target / cur)
    return SpectralField(w.N, c)


# -- simulation with inline diagnostics --------------------------------------


@dataclass(frozen=True)
class DiagnosticsSpec:
    """Which derived columns simulate() computes at each output sample."""

    s_grid: tuple = (0.5, 1.0, 1.5, 2.0)
    delta: float | None = None
    derivative_s: tuple = ()
    wiener_s: tuple = ()
    lq_grid: tuple = ()  # pairs (q, s)
    ft_sigma: float | None = None
    ft_s: tuple = ()
    tilde_s: tuple = ()
    sigma3: bool = False
    shells: bool = False



def _diagnostic_row(state: MhdState, spec: DiagnosticsSpec, t0: float,
                    dstate=None):
    from .transform import solve_phi, transform

    row = {"t": state.t}
    row["energy"] = 0.5 * (sobolev_norm(state.V, 0.0) ** 2 + sobolev_norm(state.B, 0.0) ** 2)
    row["diss_v"] = state.nu * sobolev_norm(state.V, 1.0) ** 2
    row["diss_b"] = state.eta * sobolev_norm(state.B, 1.0) ** 2
    for s in spec.s_grid:
        row["v_s%s" % fmt_s(s)] = sobolev_norm(state.V, s)
        row["b_s%s" % fmt_s(s)] = sobolev_norm(state.B, s)
    if spec.derivative_s or spec.wiener_s:
        if dstate is None:
            dstate = full_rhs(state)
        dV, dB = dstate
        for s in spec.derivative_s:
            row["dv_s%s" % fmt_s(s)] = sobolev_norm(dV, s)
            row["db_s%s" % fmt_s(s)] = sobolev_norm(dB, s)
        for s in spec.wiener_s:
            row["wv_s%s" % fmt_s(s)] = wiener_norm(state.V, s)
            row["wb_s%s" % fmt_s(s)] = wiener_norm(state.B, s)
            row["dwv_s%s" % fmt_s(s)] = wiener_norm(dV, s)
            row["dwb_s%s" % fmt_s(s)] = wiener_norm(dB, s)
    for q, s in spec.lq_grid:
        row["lv_q%s_s%s" % (fmt_s(q), fmt_s(s))] = lq_norm(state.V, q, s)
        row["lb_q%s_s%s" % (fmt_s(q), fmt_s(s))] = lq_norm(state.B, q, s)
    if spec.ft_sigma is not None:
        w = spec.ft_sigma * (state.t - t0)
        for s in spec.ft_s:
            row["ft_s%s" % fmt_s(s)] = (
                gevrey_norm(state.V, w, s) ** 2 + gevrey_norm(state.B, w, s) ** 2
            )
    if spec.delta is not None:
        ps = transform(state, spec.delta)
        row["phi"] = ps.phi
        for s in spec.tilde_s:
            row["tv_s%s" % fmt_s(s)] = sobolev_norm(ps.V, s)
            row["tb_s%s" % fmt_s(s)] = sobolev_norm(ps.B, s)
        tv1 = sobolev_norm(ps.V, 1.0)
        tb1 = sobolev_norm(ps.B, 1.0)
        tv2 = sobolev_norm(ps.V, 2.0)
        tb2 = sobolev_norm(ps.B, 2.0)
        dp2 = (spec.delta * ps.phi) ** 2
        row["lhs29_integrand"] = state.nu * (tv1**2 + 4 * dp2 * tv2**2) + state.eta * (
            tb1**2 + 4 * dp2 * tb2**2
        )
        if spec.sigma3:
            from .transform import sigma_p

            row["sigma3"] = sigma_p(ps, 3.0)
            row["tE2"] = tv2**2 + tb2**2
            row["tdiss52"] = state.nu * sobolev_norm(ps.V, 2.5) ** 2 + state.eta * sobolev_norm(
                ps.B, 2.5
            ) ** 2
    if spec.shells:
        from .spectral import shell_spectrum

        for m, amp in shell_spectrum(state.V):
            row["shv_%02d" % m] = amp
        for m, amp in shell_spectrum(state.B):
            row["shb_%02d" % m] = amp
    return row


def simulate(config: SolverConfig, initial: MhdState, outdir,
             diagnostics: DiagnosticsSpec | None = None,
             manifest_extra: dict | None = None) -> TraceArchive:
    """Integrate to t_end, writing samples every output_stride steps."""
    initial.validate()
    if initial.N != config.N:
        raise ConfigError("initial state truncation differs from config")
    if diagnostics is None:
        diagnostics = DiagnosticsSpec()
    manifest = {
        "config": {
            "N": config.N,
            "nu": config.nu,
            "eta": config.eta,
            "dt": config.dt,
            "t_end": config.t_end,
            "dealias": config.dealias,
            "output_stride": config.output_stride,
            "scheme": config.scheme,
        },
        "t0": initial.t,
        "version": 1,
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    arch = TraceArchive.create(outdir, manifest)
    ck_stride = config.checkpoint_stride or config.output_stride
    t0 = initial.t

    state = initial
    arch.append(_diagnostic_row(state, diagnostics, t0))
    arch.save_checkpoint(state, 0)

    n_steps = int(round(config.t_end / config.dt))
    if abs(n_steps * config.dt - config.t_end) > 1e-9 * max(1.0, config.t_end):
        n_steps = int(np.ceil(config.t_end / config.dt - 1e-12))
    try:
        for i in range(1, n_steps + 1):
            dt = config.dt
            if i == n_steps:
                dt = t0 + config.t_end - state.t
                if dt <= 0:
                    break
            state = step(state, dt, scheme=config.scheme, fast=config.dealias)
            if i % config.output_stride == 0 or i == n_steps:
                arch.append(_diagnostic_row(state, diagnostics, t0))
            if i % ck_stride == 0 or i == n_steps:
                arch.save_checkpoint(state, i)
    except BlowUpError as exc:
        arch.update_manifest({"blowup_t": exc.t})
        arch.finalize()
        raise
    arch.finalize()
    return TraceArchive.load(outdir)
