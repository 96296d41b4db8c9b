"""Fourier-Galerkin dynamics for incompressible diffusive MHD on the torus.

The state is the pair of coefficient balls (V, B).  The right-hand side of
the Galerkin ODE system is evaluated either by literal double summation
(reference path, O(N^6)) or through padded FFT products on a grid large
enough that the truncated convolution is exact, not merely alias-free.
Time stepping uses integrating-factor Runge-Kutta: the diagonal diffusion
is integrated exactly and only the nonlinearity is treated explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
from scipy.fft import fft, ifft, irfft, next_fast_len, rfft

from .archive import TraceArchive
from .errors import BlowUpError, ConfigError, DomainError
from .spectral import (
    SpectralField,
    fmt_s,
    geometry,
    gevrey_norm,
    lq_norm,
    project_solenoidal,
    shell_spectrum,
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
        if self.checkpoint_stride is not None and self.checkpoint_stride < 1:
            raise ConfigError("checkpoint_stride must be >= 1")
        if self.scheme not in SCHEMES:
            raise ConfigError("unknown scheme %r" % self.scheme)


# -- pruned padded transforms ------------------------------------------------


@lru_cache(maxsize=8)
def _plan(N: int):
    """Gather indices for the exact convolution of two radius-N balls.

    The product of two fields supported in |n| <= N has modes up to 2N per
    component; a grid of M >= 3N+1 points per dimension (the smallest fast
    size) keeps every retained mode alias-free, so the truncated
    convolution computed through physical space is exact to roundoff.  Only
    the pencils that hold the ball are transformed: the spectral box has
    shape (2N+1, M, N+1) over (n1, n2 mod M, n3).  Inputs are read at the
    ball rows with n3 >= 0; outputs are gathered on the canonical half ball
    and expanded by conjugation.
    """
    M = next_fast_len(3 * N + 1, real=True)
    g = geometry(N)
    mo = g.modes
    box = ((mo[:, 0] + N) * M + mo[:, 1] % M) * (N + 1) + mo[:, 2]
    up, half = mo[:, 2] >= 0, np.nonzero(g.canonical)[0]
    return SimpleNamespace(
        N=N, M=M,
        rows=np.arange(-N, N + 1) % M,  # grid rows of the n1 pencils
        src=up, box_in=box[up],
        box_out=box[half], dst=half,
        mirror=len(mo) - 1 - half,  # the row of -n
        n=mo[half].astype(float), nsq=g.nsq[half].astype(float),
    )


def _to_phys(fields, plan):
    """Physical values of the three components of each field, shape
    (3 len(fields), M, M, M).  One component at a time: the work arrays stay
    small enough to be reused rather than faulted in afresh on every call."""
    N, M = plan.N, plan.M
    box = np.zeros((2 * N + 1, M, N + 1), dtype=np.complex128)
    grid = np.zeros((M, M, N + 1), dtype=np.complex128)
    phys = np.empty((3 * len(fields), M, M, M))
    vals = np.concatenate([w.coeffs[plan.src].T for w in fields])
    for f, v in enumerate(vals):
        box.reshape(-1)[plan.box_in] = v
        grid[plan.rows] = ifft(box, axis=1, norm="forward", workers=1)
        grid_x = ifft(grid, axis=0, norm="forward", workers=1)
        phys[f] = irfft(grid_x, n=M, axis=2, norm="forward", workers=1)
    return phys


def _to_spec(prods, plan):
    """Forward-transform the physical arrays of the iterable ``prods`` one
    at a time; one row of canonical half-ball values per array."""
    out = []
    for p in prods:
        spec = rfft(p, axis=2, norm="forward", workers=1)[:, :, :plan.N + 1]
        spec = fft(spec, axis=0, norm="forward", workers=1)[plan.rows]
        spec = fft(spec, axis=1, norm="forward", workers=1, overwrite_x=True)
        out.append(spec.reshape(-1)[plan.box_out])
    return np.stack(out)


def _ball(vals, plan):
    """Conjugate-symmetric ball field from canonical half-ball values."""
    c = np.empty((2 * len(vals), 3), dtype=np.complex128)  # dst and mirror cover it
    c[plan.dst] = vals
    c[plan.mirror] = vals.conj()
    return SpectralField(plan.N, c)


def _project_half(vals, plan):
    dots = np.einsum("kc,kc->k", vals, plan.n)
    return vals - (dots / plan.nsq)[:, None] * plan.n


# -- right-hand sides --------------------------------------------------------


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


# Upper triangle (i <= j) of the symmetric momentum-flux tensor.
_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _cross(x, y):
    return (
        x[1] * y[2] - x[2] * y[1],
        x[2] * y[0] - x[0] * y[2],
        x[0] * y[1] - x[1] * y[0],
    )


def nonlinear_rhs_fast(state: MhdState):
    """Nonlinear terms via pruned padded transforms; exact convolution on the
    ball.

    Momentum in divergence form, -i P_n (n_j T_ij) with T = V V - B B, and
    induction as i n x (V x B)^hat: 6 inverse and 9 forward transforms on
    the smallest fast grid of at least 3N+1 points per dimension.
    """
    plan = _plan(state.N)
    phys = _to_phys([state.V, state.B], plan)
    return _rhs_from_products(_products(phys[:3], phys[3:]), plan)


def _products(v, b):
    """The physical products of the nonlinearity, formed one at a time:
    T_ij = V_i V_j - B_i B_j (upper triangle, 6), then w = V x B (3)."""
    for i, j in _PAIRS:
        yield v[i] * v[j] - b[i] * b[j]
    yield from _cross(v, b)


def _rhs_from_products(prods, plan):
    """(-i P_n n_j T_ij, i n x w) from the physical products: the 6 entries
    of T in ``_PAIRS`` order, then the 3 components of w."""
    spec = _to_spec(prods, plan)
    T = {pair: spec[k] for k, pair in enumerate(_PAIRS)}
    for i, j in _PAIRS:
        T[(j, i)] = T[(i, j)]
    n = plan.n
    adv = np.stack(
        [-1j * sum(n[:, j] * T[(i, j)] for j in range(3)) for i in range(3)], axis=-1
    )
    adv = _project_half(adv, plan)
    ind = 1j * np.cross(n, spec[6:].T)
    return _ball(adv, plan), _ball(ind, plan)


def _diffusion(state: MhdState, dV: SpectralField, dB: SpectralField):
    nsq = geometry(state.N).nsq.astype(float)[:, None]
    vc = dV.coeffs - state.nu * nsq * state.V.coeffs
    bc = dB.coeffs - state.eta * nsq * state.B.coeffs
    return SpectralField(state.N, vc), SpectralField(state.N, bc)


def full_rhs(state: MhdState):
    """Exact time derivative (dV/dt, dB/dt) of the Galerkin system."""
    return _diffusion(state, *nonlinear_rhs_fast(state))


# -- the second time derivative ---------------------------------------------


def _linearised_products(v, b, dv, db):
    """Products of the nonlinearity linearised at (V, B) in the direction
    (dV, dB), formed one at a time in the order of ``_products``."""
    # dT_ij = dV_i V_j + V_i dV_j - dB_i B_j - B_i dB_j, symmetric in (i, j)
    for i, j in _PAIRS:
        yield dv[i] * v[j] + v[i] * dv[j] - db[i] * b[j] - b[i] * db[j]
    # dw = dV x B + V x dB
    for x, y in zip(_cross(dv, b), _cross(v, db)):
        yield x + y


def second_time_derivative(state: MhdState, rhs=None):
    """Algebraic (d^2 V/dt^2, d^2 B/dt^2) of the Galerkin system.

    With dU = (dV, dB) the first derivative (``rhs``, from ``full_rhs`` if not
    given), d^2U is the diffusion of dU plus the nonlinearity linearised at U
    in the direction dU, -i P_n n_j dT_ij and i n x dw.  One padded pass
    evaluates it: 12 inverse and 9 forward transforms.
    """
    dV, dB = full_rhs(state) if rhs is None else rhs
    plan = _plan(state.N)
    phys = _to_phys([state.V, state.B, dV, dB], plan)
    prods = _linearised_products(phys[0:3], phys[3:6], phys[6:9], phys[9:12])
    return _diffusion(replace(state, V=dV, B=dB), *_rhs_from_products(prods, plan))


# -- time stepping -----------------------------------------------------------


@lru_cache(maxsize=32)
def _decay_factors(N: int, nu: float, eta: float, dt: float):
    """The integrating factors of the stacked pair (V, B) over dt and dt/2,
    each of shape (2, K, 1)."""
    nsq = geometry(N).nsq.astype(float)[:, None]
    return tuple(np.stack([np.exp(-nu * nsq * h), np.exp(-eta * nsq * h)])
                 for h in (dt, dt / 2))


def step(state: MhdState, dt: float, scheme: str = "integrating-factor-RK4",
         fast: bool = True, *, _nl=None) -> MhdState:
    """One integrating-factor Runge-Kutta step of size dt.

    V and B advance together as one (2, K, 3) array u, with integrating
    factors e = e^{-kappa |n|^2 dt} and e2 = e^{-kappa |n|^2 dt/2} (kappa is
    nu for V and eta for B).  ``_nl`` is private: ``simulate`` hands over the
    ``nonlinear_rhs_fast`` value of ``state`` that its sample row already
    computed, so the first stage does not evaluate it again.
    """
    if not dt > 0:
        raise DomainError("dt must be positive")
    if scheme not in SCHEMES:
        raise ConfigError("unknown scheme %r" % scheme)
    N = state.N
    e, e2 = _decay_factors(N, state.nu, state.eta, dt)

    def stacked(pair):
        return np.stack([w.coeffs for w in pair])

    def nl(u):
        # looked up per call, so a patched or traced module function is used
        rhs = nonlinear_rhs_fast if fast else nonlinear_rhs_direct
        return stacked(rhs(MhdState(SpectralField(N, u[0]), SpectralField(N, u[1]))))

    u0 = stacked((state.V, state.B))
    # Overflow is how blow-up manifests; detect it below instead of warning.
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = nl(u0) if _nl is None else stacked(_nl)
        if scheme == "integrating-factor-RK2":
            k2 = nl(e * (u0 + dt * k1))
            un = e * u0 + 0.5 * dt * (e * k1 + k2)
        else:
            k2 = nl(e2 * (u0 + 0.5 * dt * k1))
            k3 = nl(e2 * u0 + 0.5 * dt * k2)
            k4 = nl(e * u0 + dt * e2 * k3)
            un = e * u0 + (dt / 6.0) * (e * k1 + 2.0 * e2 * (k2 + k3) + k4)
        t_new = state.t + dt
        if not np.all(np.isfinite(un.view(np.float64))):
            raise BlowUpError(t_new, state)
        Vn = project_solenoidal(SpectralField(N, un[0]))
    return replace(state, V=Vn, B=SpectralField(N, un[1]), t=t_new)


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
    absn = g.absn[g.canonical]
    mag = absn ** (-a) * np.exp(-b * absn)
    vec = rng.standard_normal((len(absn), 3)) + 1j * rng.standard_normal((len(absn), 3))
    vec *= (mag / np.maximum(np.linalg.norm(vec, axis=1), 1e-300))[:, None]
    c = np.zeros((len(g.modes), 3), dtype=np.complex128)
    c[g.canonical] = vec
    c += np.conj(c[::-1])
    return project_solenoidal(SpectralField(N, c))


def _rescale(w, target):
    cur = sobolev_norm(w, 0.0)
    if cur == 0.0:
        raise ConfigError("cannot rescale a zero field")
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


def _row_uses_nl(spec: DiagnosticsSpec) -> bool:
    """Whether a sample row needs the nonlinearity of its state."""
    return bool(spec.derivative_s or spec.wiener_s
                or (spec.sigma3 and spec.delta is not None))


def _diagnostic_row(state: MhdState, spec: DiagnosticsSpec, t0: float,
                    nl=None):
    """One sample row.  ``nl`` is ``nonlinear_rhs_fast(state)`` if the caller
    has it; otherwise it is evaluated here when a column needs it."""
    from .transform import _balance_terms, _energy_s, _sigma_pairing, solve_phi, transform

    if nl is None and _row_uses_nl(spec):
        nl = nonlinear_rhs_fast(state)

    row = {"t": state.t}
    row["energy"] = 0.5 * _energy_s(state, 0.0)
    row["diss_v"] = state.nu * sobolev_norm(state.V, 1.0) ** 2
    row["diss_b"] = state.eta * sobolev_norm(state.B, 1.0) ** 2
    for s in spec.s_grid:
        row["v_s%s" % fmt_s(s)] = sobolev_norm(state.V, s)
        row["b_s%s" % fmt_s(s)] = sobolev_norm(state.B, s)
    if spec.derivative_s or spec.wiener_s:
        dV, dB = _diffusion(state, *nl)
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
        # A Phi-weighted norm is the Gevrey norm of the state at index
        # delta*Phi; the weighted fields are built only for the Sigma_3 pairing.
        ps = transform(state, spec.delta) if spec.sigma3 else None
        phi = ps.phi if ps else solve_phi(state.V, state.B, spec.delta)
        dp = spec.delta * phi
        row["phi"] = phi
        for s in spec.tilde_s:
            row["tv_s%s" % fmt_s(s)] = gevrey_norm(state.V, dp, s)
            row["tb_s%s" % fmt_s(s)] = gevrey_norm(state.B, dp, s)
        tv1 = gevrey_norm(state.V, dp, 1.0)
        tb1 = gevrey_norm(state.B, dp, 1.0)
        tv2 = gevrey_norm(state.V, dp, 2.0)
        tb2 = gevrey_norm(state.B, dp, 2.0)
        row["lhs29_integrand"] = state.nu * (tv1**2 + 4 * dp**2 * tv2**2) + state.eta * (
            tb1**2 + 4 * dp**2 * tb2**2
        )
        if spec.sigma3:
            row["sigma3"] = _sigma_pairing(ps, nl, 3.0)
            row["tE2"], row["tdiss52"] = _balance_terms(ps)
    if spec.shells:
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

    def sample(state):
        # The row's nonlinearity is the first RK stage of the next step.
        nl = nonlinear_rhs_fast(state) if _row_uses_nl(diagnostics) else None
        arch.append(_diagnostic_row(state, diagnostics, t0, nl))
        return nl

    state = initial
    nl = sample(state)
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
            state = step(state, dt, scheme=config.scheme, _nl=nl)
            nl = None
            if i % config.output_stride == 0 or i == n_steps:
                nl = sample(state)
            if i % ck_stride == 0 or i == n_steps:
                arch.save_checkpoint(state, i)
    except BlowUpError as exc:
        arch.update_manifest({"blowup_t": exc.t})
        arch.finalize()
        raise
    arch.finalize()
    return TraceArchive.load(outdir)
