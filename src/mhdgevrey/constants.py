"""Embedding constants: exact closed forms, certified lattice bounds, estimates.

Three provenance classes are tracked:

* ``exact``           -- closed-form values (lattice weight constants, the
                         piecewise factors, the s=0 embedding which is Parseval).
* ``certified-upper`` -- rigorous upper bounds (sup-norm embedding constants
                         c_p via a Cauchy-Schwarz lattice sum with an integral
                         tail overestimate).
* ``estimated``       -- Monte-Carlo + fixed-point ascent estimates of the
                         L^{6/(3-2s)} embedding constants C_s, multiplied by a
                         safety factor (default 2; finite and > 0).

The estimator's trial fields live on the cube |n|_inf <= K0 and are taken to
an M^3 grid and back by pruned dense DFTs: three small matrix products each
way, one per axis (n2, n1, then the real half axis n3 >= 0 going to the grid;
the reverse coming back), with the DFT matrices cached alongside the trial
lattice.  Only the 2K0+1 nonzero rows and K0+1 nonzero half planes are
transformed, where a zero-padded 3-d FFT would transform all M.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import gamma as _gamma

from .archive import atomic_open, read_json
from .errors import ConfigError, DomainError

SQRT3 = math.sqrt(3.0)
PROVENANCES = ("exact", "certified-upper", "estimated")


def lattice_constant(p: float, a: float) -> float:
    """Closed-form constant C_{p,a} of the exponential lattice-sum bound.

    Guarantees sum_{n!=0} exp(-a*Phi*|n|) |n|^p <= C_{p,a}^2 Phi^{-(p+3)}
    for all 0 < Phi <= 1.
    """
    if p <= -3:
        raise DomainError("lattice_constant requires p > -3")
    if a <= 0:
        raise DomainError("lattice_constant requires a > 0")
    csq = 4.0 * math.pi * math.exp(a * SQRT3 / 2.0) * 2.0 ** abs(p) * a ** (-(p + 3.0)) * float(
        _gamma(p + 3.0)
    )
    return math.sqrt(csq)


def _disk_counts(radius: int) -> np.ndarray:
    """r2[k] = number of integer points (n1, n2) with n1^2 + n2^2 = k, for
    k <= radius^2, as int32: one pass over the rows n1 >= 0."""
    msq = radius * radius
    r2 = np.zeros(msq + 1, dtype=np.int32)
    b = np.arange(radius + 1)
    mult = np.where(b > 0, 2, 1).astype(np.int32)  # +-b
    for a in range(radius + 1):
        k = math.isqrt(msq - a * a) + 1
        r2[a * a + b[:k] * b[:k]] += mult[a] * mult[:k]
    return r2


# Shells |n|^2 per block of lattice_sum: the block's counts and weights stay
# a few hundred kB whatever the radius.
_BLOCK = 1 << 16


def lattice_sum(weight, radius: int) -> float:
    """sum over 0 < |n| <= radius of weight(|n|), grouped by |n|^2 shells.

    The exact shell counts are summed block by block: the count of |n|^2 = m
    is r2[m] + 2 sum_{n3 >= 1} r2[m - n3^2] with r2 the disk counts, added
    as int32 slices, and each block's counts are dotted with its weights.
    """
    msq = radius * radius
    r2 = _disk_counts(radius)
    acc = np.empty(_BLOCK, dtype=np.int32)
    total = 0.0
    for m0 in range(1, msq + 1, _BLOCK):
        m1 = min(m0 + _BLOCK, msq + 1)
        counts = acc[: m1 - m0]
        counts[:] = 0
        for n3 in range(1, math.isqrt(m1 - 1) + 1):
            lo = max(m0, n3 * n3)
            counts[lo - m0:] += r2[lo - n3 * n3: m1 - n3 * n3]
        counts *= 2
        counts += r2[m0:m1]
        total += float(np.sum(counts * weight(np.sqrt(np.arange(m0, m1, dtype=float)))))
    return total


@lru_cache(maxsize=16)
def certified_cp(p: float, radius: int = 1000) -> float:
    """Certified upper bound for the sup-norm embedding constant c_p.

    max|f| <= sum|f_n| <= (sum_{n!=0} |n|^{-2p})^{1/2} ||f||_p; the lattice sum
    is evaluated exactly up to |n| <= radius and the tail is overestimated by
    comparing each unit cell against the integral of (|x|-sqrt(3)/2)^{-2p}.
    Cached: the bound depends on (p, radius) alone.
    """
    if p <= 1.5:
        raise DomainError("certified_cp requires p > 3/2 (sum diverges)")
    s = lattice_sum(lambda r: r ** (-2.0 * p), radius=radius)
    # Every unit cube around a lattice point with |n| > radius sits inside
    # |x| >= radius - sqrt(3)/2 and satisfies |n| >= |x| - sqrt(3)/2 there.
    u0 = radius - SQRT3
    tail = (
        4.0
        * math.pi
        * (
            u0 ** (3.0 - 2.0 * p) / (2.0 * p - 3.0)
            + SQRT3 * u0 ** (2.0 - 2.0 * p) / (2.0 * p - 2.0)
            + 0.75 * u0 ** (1.0 - 2.0 * p) / (2.0 * p - 1.0)
        )
    )
    return math.sqrt(s + tail)


# -- empirical embedding constants C_s ---------------------------------------


class _Lattice(NamedTuple):
    nsq: np.ndarray       # |n|^2 per row
    cube: np.ndarray      # flat (n3, n1, n2) position of n, or of -n where n3 < 0
    mirrored: np.ndarray  # the rows with n3 < 0, read from -n by conjugation
    E: np.ndarray         # (2K0+1, M): e^{2 pi i k x / M}
    G: np.ndarray         # (M, 2K0+1): conj(E).T / M
    R: np.ndarray         # (M, 2(K0+1)): the c2r rows [w cos, -w sin], w = 1 at n3 = 0, else 2
    F: np.ndarray         # (2(K0+1), M): the r2c rows [cos; -sin] / M


@lru_cache(maxsize=8)
def _trial_lattice(K0: int, M: int) -> _Lattice:
    """The cube |n|_inf <= K0 as flat rows in lexicographic order, so row
    L-1-i holds -n as in ``spectral.geometry``, with the dense DFT matrices
    between its half cube n3 >= 0, axes (n3, n1, n2), and an M^3 grid."""
    r = np.arange(-K0, K0 + 1)
    n = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
    mirrored = n[:, 2] < 0
    h = np.where(mirrored[:, None], -n, n) + [K0, K0, 0]
    L = 2 * K0 + 1
    cube = (h[:, 2] * L + h[:, 0]) * L + h[:, 1]
    x = np.arange(M)
    # phases from k x mod M, so every entry is exact to rounding
    E = np.exp(2j * np.pi * (np.outer(r, x) % M) / M)
    c = E[K0:]  # n3 = 0 .. K0
    w = np.where(np.arange(K0 + 1) == 0, 1.0, 2.0)[:, None]
    lat = _Lattice(np.einsum("ki,ki->k", n, n).astype(float), cube, mirrored, E,
                   np.ascontiguousarray(E.conj().T) / M,
                   np.concatenate([w * c.real, -w * c.imag]).T.copy(),
                   np.concatenate([c.real, -c.imag]) / M)
    for a in lat:  # shared by every caller through the cache
        a.flags.writeable = False
    return lat


def _to_grid(spec: np.ndarray, lat: _Lattice) -> np.ndarray:
    """Real values, axes (x3, x1, x2), of a hermitian lattice spectrum on
    the M^3 grid: sum_n c_n e^{2 pi i n.x / M} as three matrix products."""
    L, M = lat.E.shape
    K3 = L // 2 + 1
    own = ~lat.mirrored
    X = np.zeros(K3 * L * L, dtype=np.complex128)
    X[lat.cube[own]] = spec[own]
    Y = X.reshape(K3 * L, L) @ lat.E       # n2 -> x2
    Y = (lat.E.T @ Y.reshape(K3, L, M)).reshape(K3, M * M)  # n1 -> x1
    return (lat.R @ np.concatenate([Y.real, Y.imag])).reshape(M, M, M)  # n3 -> x3


def _from_grid(f: np.ndarray, lat: _Lattice) -> np.ndarray:
    """Lattice spectrum of real grid values with axes (x3, x1, x2):
    M^-3 sum_x f(x) e^{-2 pi i n.x / M} on every row, as three products."""
    L, M = lat.E.shape
    K3 = L // 2 + 1
    P = lat.F @ f.reshape(M, M * M)        # x3 -> n3 >= 0, as [Re; Im]
    Z = np.empty((K3, M * M), dtype=np.complex128)
    Z.real, Z.imag = P[:K3], P[K3:]
    Z = Z.reshape(K3 * M, M) @ lat.G           # x2 -> n2
    Z = lat.G.T @ Z.reshape(K3, M, L)          # x1 -> n1
    vals = Z.reshape(-1)[lat.cube]
    vals[lat.mirrored] = np.conj(vals[lat.mirrored])
    return vals


def _random_scalar_spectrum(rng, lat: _Lattice, decay: float) -> np.ndarray:
    """Random zero-mean hermitian spectrum on the rows of a trial lattice."""
    L = len(lat.nsq)
    c = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    c *= np.exp(-decay * np.sqrt(lat.nsq))
    c[L // 2] = 0.0
    return 0.5 * (c + np.conj(c[::-1]))


# Fixed-point ascent steps per trial field of estimate_Cs.
ASCENT_STEPS = 12


def check_safety(safety) -> float:
    """The one rule for a safety factor: a finite number > 0.  Returns it;
    DomainError otherwise."""
    if not (isinstance(safety, (int, float)) and math.isfinite(safety) and safety > 0):
        raise DomainError("safety must be a positive number and finite, not %r" % (safety,))
    return safety


def estimate_Cs(s: float, trials: int = 24, safety: float = 2.0) -> float:
    """Empirical estimate of the L^{6/(3-2s)} embedding constant C_s.

    Maximises |f|_q / ||f||_s over random scalar trial fields on the cube
    |n|_inf <= 8, evaluated on the 36^3 grid, followed by fixed-point ascent,
    then multiplies by the safety factor.  Trial i is drawn from the stream
    default_rng((0, i)), so the estimate depends on s, trials and safety
    alone; a running maximum, so more trials never decrease it.
    The maximiser satisfies |f|^{q-2} f proportional to (-lap)^s f, so each
    ascent step maps f to the trial-lattice part of |f|^{q-2} f divided by
    |n|^{2s}, normalised to maximum modulus 1.
    """
    if not (0.0 < s < 1.5):
        raise DomainError("estimate_Cs requires 0 < s < 3/2")
    if trials < 0:
        raise DomainError("estimate_Cs requires trials >= 0")
    check_safety(safety)
    M = 36
    lat = _trial_lattice(8, M)
    q = 6.0 / (3.0 - 2.0 * s)
    up = lat.nsq**s  # |n|^{2s}; down is |n|^{-2s}; both are 0 at n = 0
    down = np.zeros_like(up)
    np.power(lat.nsq, -s, out=down, where=lat.nsq > 0)
    # The single-mode field cos(x3) is always admissible and anchors the max.
    single = np.zeros(len(lat.nsq), dtype=np.complex128)
    single[len(single) // 2 + np.array([-1, 1])] = 0.5
    candidates = [single]
    # One child stream per trial keeps the candidate list prefix-stable, so
    # raising `trials` only appends candidates and the max never decreases.
    for i in range(trials):
        tr = np.random.default_rng((0, i))
        candidates.append(_random_scalar_spectrum(tr, lat, float(tr.uniform(0.2, 1.5))))
    best = 0.0
    a = np.empty((M, M, M))
    t = np.empty_like(a)
    for spec in candidates:
        for step in range(ASCENT_STEPS + 1):
            f = _to_grid(spec, lat)
            # with a = |f| / max|f| <= 1 the one power a^{q-2} cannot overflow
            np.abs(f, out=a)
            amax = float(a.max())
            a /= amax
            g = a ** (q - 2.0)
            np.multiply(g, a, out=t)
            t *= a
            lq = amax * float(np.mean(t)) ** (1.0 / q)
            best = max(best, lq / math.sqrt(float(np.sum(np.abs(spec) ** 2 * up))))
            if step == ASCENT_STEPS:
                break
            vals = _from_grid(np.multiply(g, f, out=t), lat)
            vals *= down
            spec = vals / np.max(np.abs(vals))
    return best * safety


# -- the table ---------------------------------------------------------------


def _skey(s: float) -> str:
    return repr(float(s))


def _c_tilde_prime_indices(s: float):
    """(a, b, k) with C~'_s = C_a C_b^k, for -5/2 < s <= -1/2."""
    if -1.0 < s <= -0.5:
        return (1.0 - 2.0 * s) / 4.0, (2.0 * s + 5.0) / 4.0, 1
    if -2.5 < s <= -1.0:
        return -1.0 - s, (2.0 * s + 5.0) / 4.0, 2
    raise DomainError("C_tilde_prime defined for -5/2 < s <= -1/2")


@dataclass
class ConstantsTable:
    """Named constants with provenance flags and the estimation safety factor.
    Each constant is read through ``ensure_C`` or ``ensure_cp``."""

    safety: float = 2.0
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        check_safety(self.safety)
        self._read = None

    @contextmanager
    def reads(self):
        """Yield a list that fills with the name of each constant read
        inside the block, in first-read order, once each."""
        self._read = []
        try:
            yield self._read
        finally:
            self._read = None

    def _record(self, key: str) -> str:
        """Record ``key`` as read inside ``reads()``; returns it."""
        if self._read is not None and key not in self._read:
            self._read.append(key)
        return key

    def _put(self, name: str, value: float, provenance: str, **params):
        if not value > 0:
            raise DomainError("constant %s must be positive" % name)
        self.entries[name] = {"value": float(value), "provenance": provenance, **params}

    @staticmethod
    def skey_C(s: float) -> str:
        return "C[%s]" % _skey(s)

    @staticmethod
    def skey_cp(p: float) -> str:
        return "c[%s]" % _skey(p)

    def provenance(self, name: str) -> str:
        if name not in self.entries:
            return "exact-closed-form"
        return self.entries[name]["provenance"]

    def reestimate(self, name: str):
        """Redo an estimated entry at twice its trials, at least one (a
        running max, never lower)."""
        if self.provenance(name) != "estimated":
            return self.entries.get(name, {}).get("value")
        trials = self.entries[name].get("trials", 24)
        return self._estimate_C(float(name[2:-1]), max(2 * trials, 1))

    def _estimate_C(self, s: float, trials: int) -> float:
        """Estimate C_s, keep the larger of it and any earlier estimate, and
        record it with its trial count and safety factor."""
        key = self.skey_C(s)
        val = max(self.entries.get(key, {}).get("value", 0.0),
                  estimate_Cs(s, trials=trials, safety=self.safety))
        self._put(key, val, "estimated", trials=trials, safety=self.safety)
        return val

    def describe(self, names):
        return [{"name": nm, "value": self.entries.get(nm, {}).get("value"),
                 "provenance": self.provenance(nm)} for nm in names]

    # -- base entries -------------------------------------------------------

    def ensure_C(self, s: float, trials: int = 24):
        """Estimate (or recall) the embedding constant C_s."""
        s = float(s)
        key = self._record(self.skey_C(s))
        if key in self.entries:
            return self.entries[key]["value"]
        if s == 0.0:
            # |f|_2 = ||f||_0 with the (2pi)^-3 normalised measure (Parseval).
            self._put(key, 1.0, "exact")
            return 1.0
        return self._estimate_C(s, trials)

    C = ensure_C  # a missing C_s is estimated at the default trial count

    def ensure_cp(self, p: float):
        """Certify (or recall) the sup-norm embedding constant c_p."""
        key = self._record(self.skey_cp(p))
        if key in self.entries:
            return self.entries[key]["value"]
        val = certified_cp(p)
        self._put(key, val, "certified-upper")
        return val

    # -- derived products ----------------------------------------------------

    def Cprime(self, s: float) -> float:
        return self.C(s) * self.C(1.5 - s)

    @staticmethod
    def C_tilde(s: float) -> float:
        if s < -1:
            raise DomainError("C_tilde defined for s >= -1")
        return 1.0 if s <= 0 else 2.0 ** (s + 1.0) if s < 1023 else math.inf  # 2^1024 overflows

    def C_tripleprime(self, s: float) -> float:
        c = 2.0 * self.Cprime(0.5) * self.C_tilde(s)
        return c * c  # inf past the float range, where c ** 2 raises OverflowError

    def C_tilde_prime(self, s: float) -> float:
        """Constant of the transformed-derivative nonlinearity bound."""
        a, b, k = _c_tilde_prime_indices(s)
        return self.C(a) * self.C(b) ** k

    def C_second(self, s: float, gamma: float) -> float:
        """The weighted-norm decay constant from the admissibility choice."""
        if gamma <= 0:
            raise DomainError("gamma must be positive")
        return self.Cprime(s) * gamma ** (-(5.0 - 2.0 * s) / (2.0 * s - 1.0))

    # -- persistence ---------------------------------------------------------

    def snapshot(self) -> dict:
        """The table as plain data; its entries are copies."""
        return {"safety": self.safety, "entries": {k: dict(e) for k, e in self.entries.items()}}

    def to_json(self, path):
        with atomic_open(path) as f:
            json.dump(self.snapshot(), f, indent=1, sort_keys=True)

    @classmethod
    def from_snapshot(cls, snap: dict) -> "ConstantsTable":
        """The table of a ``snapshot()``; ConfigError if ``snap`` is not one.
        Any other top-level key is ignored, so a table written when the
        estimation parameters were kept apart from the entries still loads."""
        if not (isinstance(snap, dict) and isinstance(snap.get("entries", {}), dict)):
            raise ConfigError("a constants table must be an object whose entries "
                              "are an object")
        try:
            t = cls(safety=snap.get("safety", 2.0))
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        for name, e in snap.get("entries", {}).items():
            e = e if isinstance(e, dict) else {}
            # the rule of _put: an infinite value is kept (its bounds report
            # as informational), a nan or nonpositive one is not
            v = e.get("value")
            if not (isinstance(v, (int, float)) and v > 0):
                raise ConfigError("constant %s must be a positive number" % name)
            if e.get("provenance") not in PROVENANCES:
                raise ConfigError("constant %s: provenance must be one of %s"
                                  % (name, ", ".join(PROVENANCES)))
            n = e.get("trials", 0)
            if isinstance(n, bool) or not (isinstance(n, int) and n >= 0):
                raise ConfigError("constant %s: trials must be an integer >= 0" % name)
        t.entries = {k: dict(e) for k, e in snap.get("entries", {}).items()}
        return t

    @classmethod
    def from_json(cls, path) -> "ConstantsTable":
        snap = read_json(path)
        try:
            return cls.from_snapshot(snap)
        except ConfigError as exc:
            raise ConfigError("%s: %s" % (path, exc)) from exc


def build_table(s_values=(0.5, 0.75, 1.0), trials: int = 24) -> ConstantsTable:
    """Build a table with the embedding constants the verifiers need."""
    t = ConstantsTable()
    for s in s_values:
        t.ensure_C(s, trials=trials)
    return t
