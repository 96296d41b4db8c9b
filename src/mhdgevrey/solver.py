"""Fourier-Galerkin dynamics for incompressible diffusive MHD on the torus.

The state is the pair of coefficient balls (V, B).  The right-hand side of
the Galerkin ODE system is evaluated through padded FFT products on a grid
large enough that the truncated convolution is exact, not merely
alias-free.  Time stepping uses integrating-factor Runge-Kutta: the diagonal
diffusion is integrated exactly and only the nonlinearity is treated
explicitly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
from scipy.fft import fft, ifft, next_fast_len

from .archive import TraceArchive
from .errors import BlowUpError, ConfigError, DomainError
from .spectral import (
    MhdState,
    SpectralField,
    _energy,
    _leray,
    fmt_s,
    geometry,
    gevrey_norm,
    lq_norm,
    project_solenoidal,
    shell_spectrum,
    sobolev_norm,
    wiener_norm,
)
from .transform import _balance_terms, sigma_p, solve_phi

SCHEMES = ("integrating-factor-RK2", "integrating-factor-RK4")


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
        for name in ("nu", "eta", "dt"):
            if not getattr(self, name) > 0:
                raise ConfigError("field %r must be positive" % name)
        if not self.t_end >= 0:
            raise ConfigError("field 't_end' must be nonnegative")
        for name in ("N", "output_stride", "checkpoint_stride"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ConfigError("field %r must be >= 1" % name)
        if self.scheme not in SCHEMES:
            raise ConfigError("field 'scheme' is %r; it must be one of %s"
                              % (self.scheme, ", ".join(SCHEMES)))


# -- pruned padded transforms ------------------------------------------------


class _Plan:
    """Gather indices and work arrays for the exact convolution of two
    radius-N balls.

    The product of two fields supported in |n| <= N has modes up to 2N per
    component; a grid of M >= 3N+1 points per dimension (the smallest fast
    size) keeps every retained mode alias-free, so the truncated
    convolution computed through physical space is exact to roundoff.  Only
    the n1 rows that hold the ball (n1 mod M for |n1| <= N, the two
    ``slabs``) are transformed along n2.  Inputs are read at the ball rows
    with n3 >= 0; outputs are gathered on the canonical half ball and
    expanded by conjugation.

    The work arrays are made on first use and reused by every call, so a
    warm call allocates nothing of grid size: ``half`` (M, M, M//2+1) for
    the forward passes, ``spec`` with one row of half-ball values per
    product, and ``reals(count)``, the physical fields and products,
    enlarged to the largest count asked for.  Two more arrays share the
    memory of ``half``, whose contents no call needs between its passes:
    ``grid`` (M, M, N+1) for the inverse passes, all done before the first
    forward pass, and ``scratch``, one real M^3 array for a product's
    partial terms, consumed before that product's forward pass.
    """

    def __init__(self, N: int):
        M = next_fast_len(3 * N + 1, real=True)
        g = geometry(N)
        mo = g.modes
        up, half = np.nonzero(mo[:, 2] >= 0)[0], np.nonzero(g.canonical)[0]
        at = (mo[:, 0] % M) * M + mo[:, 1] % M  # (n1, n2) position in an M x M plane
        self.N, self.M = N, M
        self.src, self.grid_in = up, (at * (N + 1) + mo[:, 2])[up]
        self.half_out = (at * (M // 2 + 1) + mo[:, 2])[half]
        self.dst, self.mirror = half, len(mo) - 1 - half  # the row of -n
        self.n, self.nsq = g.modes_f[half], g.nsq_f[half]
        self._reals = np.empty((0, M, M, M))

    @cached_property
    def half(self):
        return np.empty((self.M, self.M, self.M // 2 + 1), dtype=np.complex128)

    @cached_property
    def grid(self):
        M = self.M
        return self.half.reshape(-1)[:M * M * (self.N + 1)].reshape(M, M, self.N + 1)

    @cached_property
    def scratch(self):
        M = self.M
        return self.half.reshape(-1).view(np.float64)[:M ** 3].reshape(M, M, M)

    @cached_property
    def spec(self):
        return np.empty((9, len(self.dst)), dtype=np.complex128)

    def reals(self, count: int) -> np.ndarray:
        if len(self._reals) < count:
            self._reals = np.empty((count,) + self._reals.shape[1:])
        return self._reals[:count]

    def slabs(self, a):
        """The n1 rows of ``a`` that hold the ball, as two views."""
        return a[:self.N + 1], a[self.M - self.N:]


@lru_cache(maxsize=8)
def _plan(N: int) -> _Plan:
    return _Plan(N)


def _to_phys(plan, fields, phys):
    """Write the physical values of the three components of each field into
    ``phys[0 : 3 len(fields)]``, one component at a time through the plan's
    grid, every pass in place."""
    M, grid = plan.M, plan.grid
    flat, slabs = grid.reshape(-1), plan.slabs(grid)
    comps = (w.coeffs[:, i] for w in fields for i in range(3))
    for f, comp in enumerate(comps):
        grid.fill(0)
        flat[plan.grid_in] = comp.take(plan.src)
        for slab in slabs:
            ifft(slab, axis=1, norm="forward", workers=1, overwrite_x=True)
        ifft(grid, axis=0, norm="forward", workers=1, overwrite_x=True)
        np.fft.irfft(grid, n=M, axis=2, norm="forward", out=phys[f])


def _to_spec(plan, prods):
    """Forward-transform the physical arrays of the iterable ``prods`` one at
    a time through the plan's half grid; row k of the returned ``plan.spec``
    holds the canonical half-ball values of the k-th."""
    half, spec = plan.half, plan.spec
    low = half[:, :, :plan.N + 1]  # the n3 columns of the ball
    flat, slabs = half.reshape(-1), plan.slabs(low)
    for k, p in enumerate(prods):
        np.fft.rfft(p, axis=2, norm="forward", out=half)
        fft(low, axis=0, norm="forward", workers=1, overwrite_x=True)
        for slab in slabs:
            fft(slab, axis=1, norm="forward", workers=1, overwrite_x=True)
        np.take(flat, plan.half_out, out=spec[k])
    return spec


def _put_half(plan, u, vals):
    """Write the canonical half-ball rows ``vals`` (consumed) and their
    conjugate partners into the ball array ``u``."""
    u[plan.dst] = vals
    u[plan.mirror] = np.conjugate(vals, out=vals)


def _pair(V: SpectralField, B: SpectralField) -> np.ndarray:
    """V and B as one (2, K, 3) array: without a copy when they already are
    its two halves, as the nonlinear term and a stepped state are."""
    u = V.coeffs.base
    if (u is not None and u is B.coeffs.base and len(u) == 2
            and V.coeffs.__array_interface__ == u[0].__array_interface__
            and B.coeffs.__array_interface__ == u[1].__array_interface__):
        return u
    return np.stack([V.coeffs, B.coeffs])


def _fields(N: int, u: np.ndarray):
    """The fields (V, B) held by the two halves of a (2, K, 3) array."""
    return SpectralField(N, u[0]), SpectralField(N, u[1])


# -- right-hand sides --------------------------------------------------------


# Upper triangle (i <= j) of the symmetric momentum-flux tensor.
_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _cross(x, y, c, out, tmp):
    """Component c of x cross y, formed in ``out`` with ``tmp`` as scratch."""
    a, b = (c + 1) % 3, (c + 2) % 3
    np.multiply(x[a], y[b], out=out)
    np.multiply(x[b], y[a], out=tmp)
    return np.subtract(out, tmp, out=out)


def nonlinear_rhs_fast(state: MhdState):
    """Nonlinear terms via pruned padded transforms; exact convolution on the
    ball.

    Momentum in divergence form, -i P_n (n_j T_ij) with T = V V - B B, and
    induction as i n x (V x B)^hat: 6 inverse and 9 forward transforms on
    the smallest fast grid of at least 3N+1 points per dimension.
    """
    plan = _plan(state.N)
    work = plan.reals(7)
    _to_phys(plan, [state.V, state.B], work)
    prods = _products(work[:3], work[3:6], work[6], plan.scratch)
    return _fields(state.N, _rhs_from_products(plan, prods))


def _products(v, b, out, tmp):
    """The physical products of the nonlinearity, formed one at a time in
    ``out`` with ``tmp`` as scratch: T_ij = V_i V_j - B_i B_j (upper
    triangle, 6), then w = V x B (3)."""
    for i, j in _PAIRS:
        np.multiply(v[i], v[j], out=out)
        np.multiply(b[i], b[j], out=tmp)
        yield np.subtract(out, tmp, out=out)
    for c in range(3):
        yield _cross(v, b, c, out, tmp)


def _rhs_from_products(plan, prods):
    """(-i P_n n_j T_ij, i n x w) from the physical products (the 6 entries
    of T in ``_PAIRS`` order, then the 3 components of w), as the two halves
    of one new (2, K, 3) array."""
    spec = _to_spec(plan, prods)
    T = {pair: spec[k] for k, pair in enumerate(_PAIRS)}
    for i, j in _PAIRS:
        T[(j, i)] = T[(i, j)]
    n = plan.n
    u = np.empty((2, 2 * len(n), 3), dtype=np.complex128)  # dst and mirror cover it
    adv, tmp = np.zeros((len(n), 3), dtype=np.complex128), np.empty(len(n), dtype=np.complex128)
    for i in range(3):
        for j in range(3):  # adv_i = -i sum_j n_j T_ij, summed from zero in j order
            adv[:, i] += np.multiply(n[:, j], T[(i, j)], out=tmp)
    adv *= -1j
    _put_half(plan, u[0], _leray(adv, n, plan.nsq))
    ind = adv
    for c in range(3):
        _cross(n.T, spec[6:], c, ind[:, c], tmp)
    ind *= 1j
    _put_half(plan, u[1], ind)
    return u


def _add_diffusion(state: MhdState, u: np.ndarray):
    """The fields (dV, dB) of the nonlinear terms ``u`` (a (2, K, 3) array,
    updated in place) plus the diffusion of ``state``."""
    nsq = geometry(state.N).nsq_f
    for half, w, kappa in ((u[0], state.V, state.nu), (u[1], state.B, state.eta)):
        k = kappa * nsq
        for i in range(3):  # a column at a time, to keep the temporaries small
            half[:, i] -= k * w.coeffs[:, i]
    return _fields(state.N, u)


def full_rhs(state: MhdState):
    """Exact time derivative (dV/dt, dB/dt) of the Galerkin system."""
    # the nonlinear terms are fresh, so the diffusion is added in place
    return _add_diffusion(state, _pair(*nonlinear_rhs_fast(state)))


# -- the second time derivative ---------------------------------------------


def second_time_derivative(state: MhdState, rhs=None):
    """Algebraic (d^2 V/dt^2, d^2 B/dt^2) of the Galerkin system.

    With dU = (dV, dB) the first derivative (``rhs``, from ``full_rhs`` if not
    given), d^2U is the diffusion of dU plus the nonlinearity NL linearised at
    U along dU, which is [NL(U + dU) - NL(U - dU)] / 2 as NL is quadratic: the
    ``_products`` of U + dU and of U - dU.  12 inverse and 9 forward transforms.
    """
    dV, dB = full_rhs(state) if rhs is None else rhs
    plan = _plan(state.N)
    work = plan.reals(14)
    _to_phys(plan, [state.V, state.B, dV, dB], work)
    up, um = work[0:6], work[6:12]
    up += um  # U + dU
    um *= -2.0
    um += up  # U - dU
    # zip pulls the two generators in turn, so they can share one scratch
    pairs = zip(_products(up[:3], up[3:], work[12], plan.scratch),
                _products(um[:3], um[3:], work[13], plan.scratch))
    prods = (np.multiply(np.subtract(a, b, out=a), 0.5, out=a) for a, b in pairs)
    return _add_diffusion(replace(state, V=dV, B=dB), _rhs_from_products(plan, prods))


# -- time stepping -----------------------------------------------------------


@lru_cache(maxsize=32)
def _decay_factors(N: int, nu: float, eta: float, dt: float):
    """The integrating factors of the stacked pair (V, B) over dt and dt/2,
    each of shape (2, K, 1)."""
    nsq = geometry(N).nsq_f[:, None]
    return tuple(np.stack([np.exp(-nu * nsq * h), np.exp(-eta * nsq * h)])
                 for h in (dt, dt / 2))


def step(state: MhdState, dt: float, scheme: str = "integrating-factor-RK4",
         *, _nl=None) -> MhdState:
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

    def nl(u):
        # looked up per call, so a patched or traced module function is used
        return _pair(*nonlinear_rhs_fast(MhdState(SpectralField(N, u[0]),
                                                  SpectralField(N, u[1]))))

    u0 = _pair(state.V, state.B)
    # One work array a holds every stage input and then the new state; each
    # formula's operations run in the order written, so the rounding is that
    # of the formula.  k1 may be the caller's and is never written; the
    # later stages are this step's own and serve as scratch once read.
    a = np.empty_like(u0)
    # Overflow is how blow-up manifests; detect it below instead of warning.
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = nl(u0) if _nl is None else _pair(*_nl)
        if scheme == "integrating-factor-RK2":
            # k2 = nl(e (u0 + dt k1))
            np.multiply(dt, k1, out=a)
            a += u0
            a *= e
            k2 = nl(a)
            # un = e u0 + dt/2 (e k1 + k2)
            np.multiply(e, k1, out=a)
            a += k2
            a *= 0.5 * dt
            a += np.multiply(e, u0, out=k2)
        else:
            # k2 = nl(e2 (u0 + dt/2 k1))
            np.multiply(0.5 * dt, k1, out=a)
            a += u0
            a *= e2
            k2 = nl(a)
            # k3 = nl(e2 u0 + dt/2 k2)
            np.multiply(0.5 * dt, k2, out=a)
            a += e2 * u0
            k3 = nl(a)
            # k4 = nl(e u0 + dt e2 k3)
            np.multiply(dt * e2, k3, out=a)
            a += e * u0
            k4 = nl(a)
            # un = e u0 + dt/6 (e k1 + 2 e2 (k2 + k3) + k4)
            np.multiply(e, k1, out=a)
            k3 += k2
            k3 *= 2.0 * e2
            a += k3
            a += k4
            a *= dt / 6.0
            a += np.multiply(e, u0, out=k4)
        un = a
        t_new = state.t + dt
        if not np.all(np.isfinite(un.view(np.float64))):
            raise BlowUpError(t_new, state)
        # the new state's V and B stay the two halves of un for the next step
        g = geometry(N)
        _leray(un[0], g.modes_f, g.nsq_f)
    return replace(state, V=SpectralField(N, un[0]), B=SpectralField(N, un[1]), t=t_new)


# -- initial conditions ------------------------------------------------------


def _param(params: dict, key: str, default=None, size: int = 0):
    """``params[key]``, or a non-None ``default``: a number, or ``size`` of them in a list."""
    v = params.get(key, default)
    vals = v if size and isinstance(v, (list, tuple, np.ndarray)) else [v]
    if len(vals) != max(size, 1) or not all(
            isinstance(x, (int, float, complex, np.number)) and not isinstance(x, bool)
            for x in vals):
        raise ConfigError("initial.params %r must be %s, got %r" % (
            key, "a list of %d numbers" % size if size else "a number", v))
    return v


_FAMILY_PARAMS = {"single-mode": "n_v amp_v n_b amp_b", "abc-like": "A B C b_factor",
                  "random-spectrum": "a b norm_v norm_b"}


def make_initial(kind: str, params: dict, N: int, seed: int = 0,
                 nu: float = 1.0, eta: float = 1.0) -> MhdState:
    """Construct a valid initial state of the requested family; a param the
    family does not read is a ConfigError naming it."""
    if kind not in _FAMILY_PARAMS:
        raise ConfigError("unknown initial kind %r" % kind)
    unknown = [str(k) for k in params if k not in _FAMILY_PARAMS[kind].split()]
    if unknown:
        raise ConfigError("unknown initial.params for %s: %s" % (kind, ", ".join(unknown)))
    if kind == "single-mode":
        if params.get("n_b") is None and "amp_b" in params:
            raise ConfigError("initial.params 'amp_b' needs a wavevector 'n_b'")
        V = _single_mode_field(N, params, "v")
        B = (SpectralField.zeros(N) if params.get("n_b") is None
             else _single_mode_field(N, params, "b"))
    elif kind == "abc-like":
        A, Bc, C = (_param(params, k, 1.0) for k in "ABC")
        scale_b = _param(params, "b_factor", 0.5)
        V = _abc_field(N, A, Bc, C)
        B = _abc_field(N, scale_b * C, scale_b * A, scale_b * Bc)
    else:
        rng = np.random.default_rng(seed)
        a, b = _param(params, "a", 2.0), _param(params, "b", 0.5)
        V = _rescale(_random_field(N, rng, a, b), _param(params, "norm_v", 1.0))
        B = _rescale(_random_field(N, rng, a, b), _param(params, "norm_b", 1.0))
    return MhdState(V=V.validate(), B=B.validate(), nu=nu, eta=eta)


def _single_mode_field(N, params, f):
    """The mode n_<f> with amplitude amp_<f> of ``params``, and its conjugate."""
    n = _param(params, "n_" + f, size=3)
    if not all(np.isrealobj(x) and abs(x) <= N and float(x).is_integer() for x in n):
        raise ConfigError("initial.params 'n_%s' must be 3 integers of size at most N = %d, "
                          "got %r" % (f, N, n))
    amp = np.asarray(_param(params, "amp_" + f, size=3), dtype=np.complex128)
    if abs(complex(amp @ np.asarray(n, float))) > 1e-14 * max(1.0, float(np.max(np.abs(amp)))):
        raise ConfigError("single-mode amplitude not orthogonal to its wavevector")
    return SpectralField.from_modes(N, {tuple(int(x) for x in n): 0.5 * amp})


def _abc_field(N, A, B, C):
    # Three helical |n|=1 pairs: A(0,sin x1,cos x1) + B(cos x2,0,sin x2)
    # + C(sin x3,cos x3,0), written out in coefficients.
    e = {}
    e[(1, 0, 0)] = 0.5 * np.array([0.0, -1j * A, A], dtype=np.complex128)
    e[(0, 1, 0)] = 0.5 * np.array([B, 0.0, -1j * B], dtype=np.complex128)
    e[(0, 0, 1)] = 0.5 * np.array([-1j * C, C, 0.0], dtype=np.complex128)
    return SpectralField.from_modes(N, e)


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


def _diagnostic_row(state: MhdState, spec: DiagnosticsSpec, t0: float):
    """One sample row, and ``nonlinear_rhs_fast(state)`` if a column needed
    it (else None)."""
    nl = (nonlinear_rhs_fast(state) if spec.derivative_s or spec.wiener_s or spec.sigma3
          else None)
    row = {"t": state.t}
    row["energy"] = 0.5 * _energy((state.V, state.B), 0.0)
    row["diss_v"] = state.nu * _energy([state.V], 1.0)
    row["diss_b"] = state.eta * _energy([state.B], 1.0)
    for s in spec.s_grid:
        row["v_s%s" % fmt_s(s)] = sobolev_norm(state.V, s)
        row["b_s%s" % fmt_s(s)] = sobolev_norm(state.B, s)
    if spec.derivative_s or spec.wiener_s:
        dV, dB = _add_diffusion(state, np.stack([w.coeffs for w in nl]))
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
    for s in spec.ft_s:
        w = spec.ft_sigma * (state.t - t0)
        row["ft_s%s" % fmt_s(s)] = _energy((state.V, state.B), s, w)
    if spec.delta is not None:
        # A Phi-weighted norm is the Gevrey norm of the state at index
        # delta*Phi.
        phi = solve_phi(state.V, state.B, spec.delta)
        dp = spec.delta * phi
        row["phi"] = phi
        for s in spec.tilde_s:
            row["tv_s%s" % fmt_s(s)] = gevrey_norm(state.V, dp, s)
            row["tb_s%s" % fmt_s(s)] = gevrey_norm(state.B, dp, s)
        row["lhs29_integrand"] = sum(
            kappa * (_energy([f], 1.0, dp) + 4 * dp**2 * _energy([f], 2.0, dp))
            for kappa, f in ((state.nu, state.V), (state.eta, state.B)))
        if spec.sigma3:
            row["sigma3"] = sigma_p(state, nl, dp, 3.0)
            row["tE2"], row["tdiss52"] = _balance_terms(state, dp)
    if spec.shells:
        for m, amp in shell_spectrum(state.V):
            row["shv_%02d" % m] = amp
        for m, amp in shell_spectrum(state.B):
            row["shb_%02d" % m] = amp
    return row, nl


def simulate(config: SolverConfig, initial: MhdState, outdir,
             diagnostics: DiagnosticsSpec = DiagnosticsSpec(),
             manifest_extra: dict | None = None) -> TraceArchive:
    """Integrate to t_end, writing samples every output_stride steps.

    The manifest records every field of ``config`` under ``config`` and the
    diagnostics' ``delta`` and ``ft_sigma`` as ``delta`` and ``sigma``; a
    ``manifest_extra`` value for either that differs is a ConfigError, and
    so are columns whose scale is unset: ``sigma3`` or ``tilde_s`` without
    ``delta``, ``ft_s`` without ``ft_sigma``.
    """
    initial.validate()
    if initial.N != config.N:
        raise ConfigError("initial state truncation differs from config")
    if diagnostics.delta is None and (diagnostics.sigma3 or diagnostics.tilde_s):
        raise ConfigError("the sigma3 and tilde_s columns need a weight scale delta")
    if diagnostics.ft_sigma is None and diagnostics.ft_s:
        raise ConfigError("the ft_s columns need a growth rate sigma")
    manifest = {
        "config": asdict(config),
        "t0": initial.t,
        "version": 1,
        # The weight scales of the weighted columns: the integral checks
        # read them from here and from nowhere else.
        "delta": diagnostics.delta,
        "sigma": diagnostics.ft_sigma,
    }
    extra = manifest_extra or {}
    for key in ("delta", "sigma"):
        if key in extra and extra[key] != manifest[key]:
            raise ConfigError("manifest_extra %s = %r differs from the %r the columns use"
                              % (key, extra[key], manifest[key]))
    manifest.update(extra)
    ck_stride = config.checkpoint_stride or config.output_stride
    t0 = initial.t
    n_steps = int(round(config.t_end / config.dt))
    if abs(n_steps * config.dt - config.t_end) > 1e-9 * max(1.0, config.t_end):
        n_steps = int(np.ceil(config.t_end / config.dt - 1e-12))

    def sample(state):
        # The row's nonlinearity is the first RK stage of the next step.
        row, nl = _diagnostic_row(state, diagnostics, t0)
        arch.append(row)
        return nl

    arch = TraceArchive.create(outdir, manifest)
    try:
        state = initial
        nl = sample(state)
        arch.save_checkpoint(state, 0)
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
        raise
    finally:
        arch.finalize()
    return TraceArchive.load(outdir)
