"""Fourier-space representation of periodic solenoidal vector fields and norms.

Fields on the torus [0, 2pi)^3 are stored on the Galerkin ball 0 < |n| <= N:
``coeffs[i]`` is the complex 3-vector coefficient of ``exp(i n.x)`` for
n = ``geometry(N).modes[i]``, with the K modes in lexicographic (n1, n2, n3)
order.  Coefficients of a real field come in conjugate pairs, and since the
ball is symmetric under n -> -n, row K-1-i holds the partner of row i, so
``coeffs[::-1]`` is the mirror.  Every coefficient is orthogonal to its
wavevector; the mean (n = 0) is not stored.  An ``MhdState`` is the
velocity and magnetic fields of one instant, with t and the diffusivities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.fft import irfftn, next_fast_len

from .errors import DomainError, FieldInvariantError, GevreyOverflowError

TOL_DIV = 1e-12
TOL_REALITY = 1e-12

# Largest exponent fed to exp() in Gevrey weights before we refuse to proceed.
_SAFE_EXP = 700.0


class _Geometry:
    """Lattice data of the Galerkin ball 0 < |n| <= N; see ``geometry``."""

    def __init__(self, N: int):
        r = np.arange(-N, N + 1)
        lattice = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
        nsq = np.einsum("ki,ki->k", lattice, lattice)
        ball = (nsq > 0) & (nsq <= N * N)
        self.N = N
        self.modes = lattice[ball]
        self.nsq = nsq[ball]
        self.modes_f = self.modes.astype(float)
        self.nsq_f = self.nsq.astype(float)
        self.absn = np.sqrt(self.nsq_f)
        neg_nsq, shell, count = np.unique(-self.nsq, return_inverse=True, return_counts=True)
        self.shell = shell.ravel()
        self.shell_r = np.sqrt(-neg_nsq.astype(float))
        self.shell_count = count
        k1, k2, k3 = self.modes.T
        self.canonical = (k3 > 0) | ((k3 == 0) & ((k2 > 0) | ((k2 == 0) & (k1 > 0))))
        self._keys = self._key(self.modes)

    def _key(self, n):
        N, b = self.N, 2 * self.N + 1
        return ((n[..., 0] + N) * b + n[..., 1] + N) * b + n[..., 2] + N

    def rows(self, n) -> np.ndarray:
        """Row of each wavevector of ``n`` (shape (..., 3)) in ``modes``; -1
        where it is not a mode of the ball."""
        n = np.asarray(n, dtype=np.int64)
        inside = np.all(np.abs(n) <= self.N, axis=-1)
        key = self._key(np.where(inside[..., None], n, 0))
        pos = np.minimum(np.searchsorted(self._keys, key), len(self._keys) - 1)
        return np.where(inside & (self._keys[pos] == key), pos, -1)


@lru_cache(maxsize=None)
def geometry(N: int) -> _Geometry:
    """Cached lattice geometry for truncation radius N.

    ``modes`` lists the K wavevectors of the ball 0 < |n| <= N in
    lexicographic (n1, n2, n3) order; the ball is symmetric under n -> -n,
    so row K-1-i holds -modes[i]; ``modes_f`` holds them as floats.  ``nsq``
    (``nsq_f`` as floats) and ``absn`` give |n|^2 and |n| per row and
    ``rows(n)`` the row of each wavevector.  The shells of the
    ball (distinct |n|) are listed largest first in ``shell_r``, with their
    mode counts in ``shell_count``; ``shell`` gives the shell index of each
    row.  ``canonical`` marks one mode of each
    conjugate pair: n3 > 0, or n3 = 0 and (n2, n1) lexicographically
    positive.
    """
    if N < 1:
        raise DomainError("truncation radius must be >= 1")
    return _Geometry(N)


@dataclass(frozen=True)
class SpectralField:
    """Truncated Fourier coefficients of a real zero-mean solenoidal field."""

    N: int
    coeffs: np.ndarray  # complex, shape (K, 3), rows in geometry(N).modes order

    def __post_init__(self):
        shape = (len(geometry(self.N).modes), 3)
        if self.coeffs.shape != shape:
            raise FieldInvariantError(
                "coefficient array has shape %r, expected %r" % (self.coeffs.shape, shape)
            )
        if self.coeffs.dtype != np.complex128:
            raise FieldInvariantError("coefficients must be complex128")

    @cached_property
    def _shells(self):
        # formed on first use; no code writes to coeffs after construction
        return _shell_sums(self)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, N: int) -> "SpectralField":
        return cls(N, np.zeros((len(geometry(N).modes), 3), dtype=np.complex128))

    @classmethod
    def from_modes(cls, N: int, entries) -> "SpectralField":
        """The real field with each {(n1,n2,n3): 3-vector} at n and its conjugate at -n."""
        g = geometry(N)
        c = cls.zeros(N).coeffs
        for n, vec in entries.items():
            i = int(g.rows(n))
            if i < 0:
                raise FieldInvariantError("n=%r is not in the ball 0<|n|<=N" % (tuple(n),))
            vec = np.asarray(vec, dtype=np.complex128)
            c[i] += vec
            c[len(c) - 1 - i] += np.conj(vec)
        return cls(N, c)

    # -- accessors ---------------------------------------------------------

    def coeff(self, n) -> np.ndarray:
        i = int(geometry(self.N).rows(n))
        if i < 0:
            raise DomainError("n=%r is not in the ball 0<|n|<=N" % (tuple(n),))
        return self.coeffs[i]

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    # -- invariants --------------------------------------------------------

    def validate(self) -> "SpectralField":
        g = geometry(self.N)
        c = self.coeffs
        if not np.all(np.isfinite(c.view(np.float64))):
            raise FieldInvariantError("non-finite coefficient")
        # row K-1-i holds the coefficient of -n
        scale = max(1.0, float(np.max(np.abs(c))))
        err = np.abs(c - np.conj(c[::-1]))
        if np.max(err) > TOL_REALITY * scale:
            k = int(np.argmax(err)) // 3
            raise FieldInvariantError("reality violation at n=%r" % (tuple(g.modes[k]),))
        dots = np.abs(np.einsum("kc,kc->k", c, g.modes_f))
        # floor at the field scale: a mode annihilated by projection carries
        # only roundoff and must not fail a purely relative check
        lim = TOL_DIV * np.maximum(np.linalg.norm(c, axis=1) * g.absn, scale)
        if np.any(dots > np.maximum(lim, 0.0)):
            k = int(np.argmax(dots - lim))
            raise FieldInvariantError(
                "solenoidality violation at n=%r" % (tuple(g.modes[k]),)
            )
        return self


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


def _leray(c: np.ndarray, n: np.ndarray, nsq: np.ndarray) -> np.ndarray:
    """Subtract from the rows c, in place, their components along the
    wavevectors n (floats, with the exact |n|^2 in nsq): the Leray
    projection, row by row.  Returns c."""
    w = np.einsum("kc,kc->k", c, n) / nsq
    for i in range(3):  # a column at a time, to keep the temporaries small
        c[:, i] -= w * n[:, i]
    return c


def project_solenoidal(w: SpectralField) -> SpectralField:
    """Apply the orthogonal-to-wavevector projection to every coefficient."""
    g = geometry(w.N)
    return SpectralField(w.N, _leray(w.coeffs.copy(), g.modes_f, g.nsq_f))


# -- norms -----------------------------------------------------------------
# A norm weights |c_n| by a function of |n| alone, so it reads a field only
# through its per-shell sums (``SpectralField._shells``, formed once per
# field) and costs one sum over the at most N^2 shells.


def _per_shell(N: int, values: np.ndarray) -> np.ndarray:
    """Sums of per-mode values over each shell, largest shell first."""
    g = geometry(N)
    return np.bincount(g.shell, weights=values, minlength=len(g.shell_r))


def _shell_sums(w: SpectralField):
    """Per-shell sums of |c_n|^2 and of |c_n| over the ball of w."""
    c = w.coeffs.view(np.float64)
    sq = np.einsum("kc,kc->k", c, c)
    return _per_shell(w.N, sq), _per_shell(w.N, np.sqrt(sq))


def _shell_total(N: int, vals: np.ndarray, p: float, a: float = 0.0) -> float:
    """Extended-precision sum over the shells, largest first, of
    vals * |n|^p * e^{a|n|}."""
    if a * N > _SAFE_EXP:
        raise GevreyOverflowError("gevrey weight overflow")
    r = geometry(N).shell_r
    return float(np.sum(vals.astype(np.longdouble) * (r**p * np.exp(a * r))))


def _radial_sum(N: int, values: np.ndarray, p: float, a: float = 0.0) -> float:
    """Sum over the ball of per-mode values times |n|^p e^{a|n|}."""
    return _shell_total(N, _per_shell(N, values), p, a)


def _energy(fields, s: float, sigma: float = 0.0) -> float:
    """Sum over the fields of ||w||^2 with the weight |n|^{2s} e^{2 sigma |n|}."""
    return _shell_total(fields[0].N, sum(w._shells[0] for w in fields), 2.0 * s,
                        2.0 * sigma)


def sobolev_norm(w: SpectralField, s: float) -> float:
    return math.sqrt(_energy([w], s))


def gevrey_norm(w: SpectralField, sigma: float, s: float) -> float:
    if sigma < 0:
        raise DomainError("gevrey index sigma must be >= 0")
    return math.sqrt(_energy([w], s, sigma))


def wiener_norm(w: SpectralField, s: float) -> float:
    return _shell_total(w.N, w._shells[1], s)


def sobolev_inner(u: SpectralField, w: SpectralField, s: float) -> float:
    """Real part of the H_s pairing sum |n|^{2s} u_n . conj(w_n)."""
    if u.N != w.N:
        raise DomainError("mismatched truncation radii")
    dots = np.einsum("kc,kc->k", u.coeffs.view(np.float64), w.coeffs.view(np.float64))
    return _radial_sum(u.N, dots, 2.0 * s)


def fmt_s(s: float) -> str:
    """Format a regularity index for use inside column names ("m" = minus)."""
    return ("%.12g" % float(s)).replace("-", "m")


def _mean_squares(fields) -> np.ndarray:
    """Mean over the modes of each integer shell m = round(|n|), m in [1, N],
    of |c_n|^2 summed over the fields."""
    N = fields[0].N
    g = geometry(N)
    m = np.rint(g.shell_r).astype(int)
    return (np.bincount(m, weights=sum(w._shells[0] for w in fields), minlength=N + 1)[1:]
            / np.bincount(m, weights=g.shell_count, minlength=N + 1)[1:])


def shell_spectrum(w: SpectralField):
    """Root-mean-square amplitude per integer shell m = round(|n|), m in [1, N]."""
    return [(m, float(v)) for m, v in enumerate(np.sqrt(_mean_squares([w])), start=1)]


def embed_field(w: SpectralField, N: int) -> SpectralField:
    """Zero-pad a field into the larger Galerkin ball of radius N."""
    if N == w.N:
        return w
    if N < w.N:
        raise DomainError("cannot embed into a smaller ball")
    c = SpectralField.zeros(N).coeffs
    c[geometry(N).rows(geometry(w.N).modes)] = w.coeffs
    return SpectralField(N, c)


def collocation_values(w: SpectralField, s: float = 0.0, grid: int | None = None):
    """Physical-space samples of (-laplacian)^{s/2} w on a uniform grid.

    Returns a real array of shape (grid, grid, grid, 3).  Used for L^q
    quadrature; the grid defaults to the smallest alias-free size.
    """
    g = geometry(w.N)
    M = grid if grid is not None else next_fast_len(2 * w.N + 1, real=True)
    if M < 2 * w.N + 1:
        raise DomainError("collocation grid too small for the mode ball")
    half = np.zeros((3, M, M, M // 2 + 1), dtype=np.complex128)
    keep = g.modes[:, 2] >= 0
    mo = g.modes[keep]
    vals = w.coeffs[keep] * (g.absn[keep] ** s)[:, None]
    half[:, mo[:, 0] % M, mo[:, 1] % M, mo[:, 2]] = vals.T
    phys = irfftn(half, s=(M, M, M), axes=(1, 2, 3), norm="forward")
    return np.moveaxis(phys, 0, -1)


def lq_norm(w: SpectralField, q: float, s: float = 0.0) -> float:
    """Collocation-grid L^q norm, q >= 1, of |(-laplacian)^{s/2} w| with (2pi)^-3 measure."""
    if not q >= 1:
        raise DomainError("lq_norm requires q >= 1, got %r" % (q,))
    vals = collocation_values(w, s=s)
    mag = np.sqrt(np.einsum("...c,...c->...", vals, vals))
    if np.isinf(q):
        return float(np.max(mag))
    return float(np.mean(mag**q) ** (1.0 / q))
