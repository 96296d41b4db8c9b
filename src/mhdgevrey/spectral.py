"""Fourier-space representation of periodic solenoidal vector fields and norms.

Fields on the torus [0, 2pi)^3 are stored as truncated Fourier coefficient
cubes: ``coeffs[n1+N, n2+N, n3+N]`` is the complex 3-vector coefficient of
``exp(i n.x)`` for wavevectors in the ball 0 < |n| <= N.  Coefficients of a
real field come in conjugate pairs, the mean (n = 0) vanishes, and every
coefficient is orthogonal to its wavevector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, FieldInvariantError, GevreyOverflowError

TOL_DIV = 1e-12
TOL_REALITY = 1e-12

# Largest exponent fed to exp() in Gevrey weights before we refuse to proceed.
_SAFE_EXP = 700.0


@lru_cache(maxsize=None)
def geometry(N: int):
    """Cached lattice geometry for truncation radius N.

    Returns an object with the index cube, the ball mask, flattened mode
    lists and a deterministic descending-|n| summation order.  The shells
    of the ball (distinct |n|) are listed largest first in ``shell_r``;
    ``shell`` gives the shell index of each ball mode.  ``canonical`` marks
    one mode of each conjugate pair: n3 > 0, or n3 = 0 and (n2, n1)
    lexicographically positive.
    """
    if N < 1:
        raise DomainError("truncation radius must be >= 1")
    r = np.arange(-N, N + 1)
    n1, n2, n3 = np.meshgrid(r, r, r, indexing="ij")
    nsq = n1 * n1 + n2 * n2 + n3 * n3
    ball = (nsq > 0) & (nsq <= N * N)
    modes = np.stack([n1[ball], n2[ball], n3[ball]], axis=1)
    absn = np.sqrt(nsq[ball].astype(float))
    # Stable descending sort makes every norm reduction run in one fixed order.
    order = np.argsort(-absn, kind="stable")

    class _Geo:
        pass

    g = _Geo()
    g.N = N
    g.size = 2 * N + 1
    g.nsq = nsq
    g.ball = ball
    g.modes = modes
    g.absn = absn
    g.order = order
    g.ball_idx = np.nonzero(ball)
    neg_nsq, shell = np.unique(-nsq[ball], return_inverse=True)
    g.shell = shell.ravel()
    g.shell_r = np.sqrt(-neg_nsq.astype(float))
    k1, k2, k3 = modes.T
    g.canonical = (k3 > 0) | ((k3 == 0) & ((k2 > 0) | ((k2 == 0) & (k1 > 0))))
    return g


def _accumulate(contrib: np.ndarray, order: np.ndarray) -> float:
    """Deterministic extended-precision sum of nonnegative contributions."""
    return float(np.sum(contrib[order].astype(np.longdouble)))


def leray_project(f, n):
    """Project a coefficient onto the plane orthogonal to its wavevector."""
    n = np.asarray(n, dtype=float)
    nsq = float(n @ n)
    if nsq == 0.0:
        raise DomainError("projection undefined at n=0")
    f = np.asarray(f)
    return f - (f @ n) / nsq * n


@dataclass(frozen=True)
class SpectralField:
    """Truncated Fourier coefficients of a real zero-mean solenoidal field."""

    N: int
    coeffs: np.ndarray  # complex, shape (2N+1, 2N+1, 2N+1, 3)

    def __post_init__(self):
        g = geometry(self.N)
        c = self.coeffs
        if c.shape != (g.size, g.size, g.size, 3):
            raise FieldInvariantError(
                "coefficient cube has shape %r, expected %r"
                % (c.shape, (g.size, g.size, g.size, 3))
            )
        if c.dtype != np.complex128:
            raise FieldInvariantError("coefficients must be complex128")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, N: int) -> "SpectralField":
        g = geometry(N)
        return cls(N, np.zeros((g.size, g.size, g.size, 3), dtype=np.complex128))

    @classmethod
    def from_modes(cls, N: int, entries, add_conjugates: bool = False) -> "SpectralField":
        """Build a field from a {(n1,n2,n3): 3-vector} mapping."""
        g = geometry(N)
        c = np.zeros((g.size, g.size, g.size, 3), dtype=np.complex128)
        for n, vec in entries.items():
            n = tuple(int(x) for x in n)
            vec = np.asarray(vec, dtype=np.complex128)
            c[n[0] + N, n[1] + N, n[2] + N] += vec
            if add_conjugates:
                c[-n[0] + N, -n[1] + N, -n[2] + N] += np.conj(vec)
        return cls(N, c)

    # -- accessors ---------------------------------------------------------

    def ball(self) -> np.ndarray:
        """Coefficients at the ball modes, shape (K, 3)."""
        g = geometry(self.N)
        return self.coeffs[g.ball_idx]

    def coeff(self, n) -> np.ndarray:
        N = self.N
        return self.coeffs[n[0] + N, n[1] + N, n[2] + N]

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.ball()))) if self.N >= 1 else 0.0

    # -- invariants --------------------------------------------------------

    def validate(self, tol_div: float = TOL_DIV) -> "SpectralField":
        g = geometry(self.N)
        c = self.coeffs
        if not np.all(np.isfinite(c.view(np.float64))):
            raise FieldInvariantError("non-finite coefficient")
        outside = ~g.ball
        if np.any(c[outside] != 0):
            bad = np.argwhere(np.any(c[outside] != 0, axis=-1))
            raise FieldInvariantError(
                "nonzero coefficient outside the ball 0<|n|<=N (%d entries)" % len(bad)
            )
        mirrored = np.conj(c[::-1, ::-1, ::-1])
        scale = max(1.0, float(np.max(np.abs(c))))
        err = np.abs(c - mirrored)
        if np.max(err) > TOL_REALITY * scale:
            i = np.unravel_index(np.argmax(err), err.shape)
            n = (i[0] - self.N, i[1] - self.N, i[2] - self.N)
            raise FieldInvariantError("reality violation at n=%r" % (n,))
        vals = c[g.ball_idx]
        dots = np.abs(np.einsum("kc,kc->k", vals, g.modes.astype(float)))
        # floor at the field scale: a mode annihilated by projection carries
        # only roundoff and must not fail a purely relative check
        lim = tol_div * np.maximum(np.linalg.norm(vals, axis=1) * g.absn, scale)
        if np.any(dots > np.maximum(lim, 0.0)):
            k = int(np.argmax(dots - lim))
            raise FieldInvariantError(
                "solenoidality violation at n=%r" % (tuple(g.modes[k]),)
            )
        return self


def project_solenoidal(w: SpectralField) -> SpectralField:
    """Apply the orthogonal-to-wavevector projection to every coefficient."""
    g = geometry(w.N)
    c = w.coeffs.copy()
    vals = c[g.ball_idx]
    nf = g.modes.astype(float)
    vals = vals - (np.einsum("kc,kc->k", vals, nf) / (g.absn**2))[:, None] * nf
    c[g.ball_idx] = vals
    return SpectralField(w.N, c)


# -- norms -----------------------------------------------------------------


def _sq_magnitudes(w: SpectralField) -> np.ndarray:
    vals = w.ball()
    return np.einsum("kc,kc->k", vals.real, vals.real) + np.einsum(
        "kc,kc->k", vals.imag, vals.imag
    )


def sobolev_norm(w: SpectralField, s: float) -> float:
    g = geometry(w.N)
    contrib = _sq_magnitudes(w) * g.absn ** (2.0 * s)
    return float(np.sqrt(_accumulate(contrib, g.order)))


def gevrey_norm(w: SpectralField, sigma: float, s: float) -> float:
    if sigma < 0:
        raise DomainError("gevrey index sigma must be >= 0")
    if 2.0 * sigma * w.N > _SAFE_EXP:
        raise GevreyOverflowError("gevrey weight overflow")
    g = geometry(w.N)
    contrib = _sq_magnitudes(w) * np.exp(2.0 * sigma * g.absn) * g.absn ** (2.0 * s)
    return float(np.sqrt(_accumulate(contrib, g.order)))


def wiener_norm(w: SpectralField, s: float) -> float:
    g = geometry(w.N)
    contrib = np.sqrt(_sq_magnitudes(w)) * g.absn**s
    return float(_accumulate(contrib, g.order))


def sobolev_inner(u: SpectralField, w: SpectralField, s: float) -> float:
    """Real part of the H_s pairing sum |n|^{2s} u_n . conj(w_n)."""
    if u.N != w.N:
        raise DomainError("mismatched truncation radii")
    g = geometry(u.N)
    uv, wv = u.ball(), w.ball()
    contrib = np.einsum("kc,kc->k", uv, np.conj(wv)).real * g.absn ** (2.0 * s)
    return float(np.sum(contrib[g.order].astype(np.longdouble)))


def fmt_s(s: float) -> str:
    """Format a regularity index for use inside column names ("m" = minus)."""
    return ("%g" % float(s)).replace("-", "m")


def shell_spectrum(w: SpectralField):
    """Root-mean-square amplitude per integer shell m = round(|n|), m in [1, N]."""
    g = geometry(w.N)
    m = np.rint(g.absn).astype(int)
    acc = np.zeros(w.N + 2)
    cnt = np.zeros(w.N + 2)
    np.add.at(acc, m, _sq_magnitudes(w))
    np.add.at(cnt, m, 1.0)
    return [
        (mm, float(np.sqrt(acc[mm] / cnt[mm])) if cnt[mm] else 0.0)
        for mm in range(1, w.N + 1)
    ]


def gevrey_scale(w: SpectralField, sigma: float) -> SpectralField:
    """Multiply every coefficient by exp(sigma |n|) (negative sigma allowed)."""
    if abs(sigma) * w.N > _SAFE_EXP:
        raise GevreyOverflowError("gevrey weight overflow")
    g = geometry(w.N)
    c = w.coeffs.copy()
    c[g.ball_idx] = c[g.ball_idx] * np.exp(sigma * g.absn)[:, None]
    return SpectralField(w.N, c)


def embed_field(w: SpectralField, N: int) -> SpectralField:
    """Zero-pad a field into the larger Galerkin ball of radius N."""
    if N == w.N:
        return w
    if N < w.N:
        raise DomainError("cannot embed into a smaller ball")
    size = 2 * N + 1
    c = np.zeros((size, size, size, 3), dtype=np.complex128)
    lo, hi = N - w.N, N + w.N + 1
    c[lo:hi, lo:hi, lo:hi] = w.coeffs
    return SpectralField(N, c)


def collocation_values(w: SpectralField, s: float = 0.0, grid: int | None = None):
    """Physical-space samples of (-laplacian)^{s/2} w on a uniform grid.

    Returns a real array of shape (grid, grid, grid, 3).  Used for L^q
    quadrature; the grid defaults to the smallest alias-free size.
    """
    from scipy.fft import irfftn, next_fast_len

    g = geometry(w.N)
    M = grid if grid is not None else next_fast_len(2 * w.N + 1, real=True)
    if M < 2 * w.N + 1:
        raise DomainError("collocation grid too small for the mode ball")
    half = np.zeros((3, M, M, M // 2 + 1), dtype=np.complex128)
    keep = g.modes[:, 2] >= 0
    mo = g.modes[keep]
    vals = w.coeffs[g.ball_idx][keep] * (g.absn[keep] ** s)[:, None]
    half[:, mo[:, 0] % M, mo[:, 1] % M, mo[:, 2]] = vals.T
    phys = irfftn(half, s=(M, M, M), axes=(1, 2, 3), norm="forward")
    return np.moveaxis(phys, 0, -1)


def lq_norm(w: SpectralField, q: float, s: float = 0.0, grid: int | None = None) -> float:
    """Collocation-grid L^q norm of |(-laplacian)^{s/2} w| with (2pi)^-3 measure."""
    vals = collocation_values(w, s=s, grid=grid)
    mag = np.sqrt(np.einsum("...c,...c->...", vals, vals))
    if np.isinf(q):
        return float(np.max(mag))
    return float(np.mean(mag**q) ** (1.0 / q))
