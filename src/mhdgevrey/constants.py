"""Embedding constants: exact closed forms, certified lattice bounds, estimates.

Three provenance classes are tracked:

* ``exact``           -- closed-form values (lattice weight constants, the
                         piecewise factors, the s=0 embedding which is Parseval).
* ``certified-upper`` -- rigorous upper bounds (sup-norm embedding constants
                         c_p via a Cauchy-Schwarz lattice sum with an integral
                         tail overestimate).
* ``estimated``       -- Monte-Carlo + fixed-point ascent estimates of the
                         L^{6/(3-2s)} embedding constants C_s, multiplied by a
                         safety factor (default 2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfft, irfft, rfftn
from scipy.special import gamma as _gamma

from .archive import atomic_open, read_json
from .errors import ConfigError, DomainError, MissingConstantError

SQRT3 = math.sqrt(3.0)


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


@lru_cache(maxsize=8)
def _shell_counts(radius: int) -> np.ndarray:
    """counts[m] = number of integer lattice points with |n|^2 = m <= radius^2.

    Computed exactly by convolving the 1-d histogram of squares with itself
    three times via FFT; FFT roundoff is far below 0.5 so rounding recovers
    the integer counts.
    """
    msq = radius * radius
    h = np.zeros(msq + 1)
    a = np.arange(0, radius + 1)
    h[a * a] = 2.0
    h[0] = 1.0
    n = next_fast_len(3 * msq + 1, real=True)
    fh = rfft(h, n=n)
    conv = irfft(fh * fh * fh, n=n)
    counts = np.rint(conv[: msq + 1]).astype(np.int64)
    return counts


def lattice_sum(weight, radius: int = 200) -> float:
    """sum over 0 < |n| <= radius of weight(|n|), grouped by |n|^2 shells."""
    counts = _shell_counts(radius)
    m = np.arange(1, radius * radius + 1)
    nz = counts[1:] > 0
    r = np.sqrt(m[nz].astype(float))
    return float(np.sum(counts[1:][nz] * weight(r)))


def certified_cp(p: float, radius: int = 1000) -> float:
    """Certified upper bound for the sup-norm embedding constant c_p.

    max|f| <= sum|f_n| <= (sum_{n!=0} |n|^{-2p})^{1/2} ||f||_p; the lattice sum
    is evaluated exactly up to |n| <= radius and the tail is overestimated by
    comparing each unit cell against the integral of (|x|-sqrt(3)/2)^{-2p}.
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


def _random_scalar_spectrum(rng, K0: int, decay: float) -> np.ndarray:
    """Random zero-mean hermitian spectrum cube for modes |n|_inf <= K0."""
    size = 2 * K0 + 1
    c = rng.standard_normal((size, size, size)) + 1j * rng.standard_normal((size, size, size))
    r = np.arange(-K0, K0 + 1)
    n1, n2, n3 = np.meshgrid(r, r, r, indexing="ij")
    absn = np.sqrt((n1 * n1 + n2 * n2 + n3 * n3).astype(float))
    with np.errstate(divide="ignore"):
        prof = np.exp(-decay * absn)
    c *= prof
    c[K0, K0, K0] = 0.0
    c = 0.5 * (c + np.conj(c[::-1, ::-1, ::-1]))
    return c


def _scalar_ratio(spec: np.ndarray, K0: int, s: float, M: int) -> tuple[float, np.ndarray]:
    """Ratio |f|_q / ||f||_s for the scalar field with spectrum cube `spec`.

    Also returns the physical samples so the caller can run ascent steps.
    """
    q = 6.0 / (3.0 - 2.0 * s)
    r = np.arange(-K0, K0 + 1)
    n1, n2, n3 = np.meshgrid(r, r, r, indexing="ij")
    nsq = (n1 * n1 + n2 * n2 + n3 * n3).astype(float)
    half = np.zeros((M, M, M // 2 + 1), dtype=np.complex128)
    keep = n3 >= 0
    half[n1[keep] % M, n2[keep] % M, n3[keep]] = spec[keep]
    phys = irfftn(half, s=(M, M, M)) * (M**3)
    lq = float(np.mean(np.abs(phys) ** q) ** (1.0 / q))
    with np.errstate(divide="ignore"):
        wsq = nsq**s
    wsq[K0, K0, K0] = 0.0
    hs = math.sqrt(float(np.sum(np.abs(spec) ** 2 * wsq)))
    return (lq / hs if hs > 0 else 0.0), phys


def _ascent_step(phys: np.ndarray, K0: int, s: float, M: int) -> np.ndarray:
    """One fixed-point step for the L^q/H_s Rayleigh quotient.

    The maximiser satisfies |f|^{q-2} f proportional to (-lap)^s f, so we
    push the current iterate through |f|^{q-2} f, divide the spectrum by
    |n|^{2s}, and truncate back to the trial ball.
    """
    q = 6.0 / (3.0 - 2.0 * s)
    g = np.abs(phys) ** (q - 2.0) * phys
    spec_half = rfftn(g) / (M**3)
    r = np.arange(-K0, K0 + 1)
    n1, n2, n3 = np.meshgrid(r, r, r, indexing="ij")
    nsq = (n1 * n1 + n2 * n2 + n3 * n3).astype(float)
    keep = n3 >= 0
    vals = np.zeros((2 * K0 + 1,) * 3, dtype=np.complex128)
    vals[keep] = spec_half[n1[keep] % M, n2[keep] % M, n3[keep]]
    vals = np.where(n3 < 0, np.conj(vals[::-1, ::-1, ::-1]), vals)
    with np.errstate(divide="ignore"):
        w = nsq ** (-s)
    w[K0, K0, K0] = 0.0
    vals = vals * w
    vals[K0, K0, K0] = 0.0
    nrm = float(np.max(np.abs(vals)))
    return vals / nrm if nrm > 0 else vals


# Fixed-point ascent steps per trial field of estimate_Cs.
ASCENT_STEPS = 12


def estimate_Cs(
    s: float,
    resolution: int = 16,
    trials: int = 24,
    seed: int = 0,
    safety: float = 2.0,
) -> float:
    """Empirical estimate of the L^{6/(3-2s)} embedding constant C_s.

    Maximises |f|_q / ||f||_s over seeded random scalar trial fields followed
    by fixed-point ascent, then multiplies by the safety factor.  Deterministic
    for a fixed seed; a running maximum, so more trials never decrease it.
    """
    if not (0.0 < s < 1.5):
        raise DomainError("estimate_Cs requires 0 < s < 3/2")
    K0 = max(2, resolution // 2)
    M = next_fast_len(2 * resolution + 1, real=True)
    best = 0.0
    # The single-mode field cos(x3) is always admissible and anchors the max.
    single = np.zeros((2 * K0 + 1,) * 3, dtype=np.complex128)
    single[K0, K0, K0 + 1] = 0.5
    single[K0, K0, K0 - 1] = 0.5
    candidates = [single]
    # One child stream per trial keeps the candidate list prefix-stable, so
    # raising `trials` only appends candidates and the max never decreases.
    for i in range(trials):
        tr = np.random.default_rng((seed, i))
        d = tr.uniform(0.2, 1.5)
        candidates.append(_random_scalar_spectrum(tr, K0, float(d)))
    for spec in candidates:
        cur = spec
        for _ in range(ASCENT_STEPS):
            ratio, phys = _scalar_ratio(cur, K0, s, M)
            if ratio > best:
                best = ratio
            cur = _ascent_step(phys, K0, s, M)
        ratio, _ = _scalar_ratio(cur, K0, s, M)
        if ratio > best:
            best = ratio
    return best * safety


# -- the table ---------------------------------------------------------------


def _skey(s: float) -> str:
    return repr(float(s))


@dataclass
class ConstantsTable:
    """Named constants with provenance flags and the estimation safety factor."""

    safety: float = 2.0
    entries: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def _put(self, name: str, value: float, provenance: str):
        if not value > 0:
            raise DomainError("constant %s must be positive" % name)
        self.entries[name] = {"value": float(value), "provenance": provenance}

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
        """Redo an estimated entry at doubled trials (running max, never lower)."""
        if self.provenance(name) != "estimated":
            return self.entries.get(name, {}).get("value")
        params = self.meta.get("estimation", {}).get(name, {})
        res = params.get("resolution", 16)
        trials = 2 * params.get("trials", 24)
        seed = params.get("seed", 0)
        s = float(name[2:-1])
        val = max(
            self.entries[name]["value"],
            estimate_Cs(s, resolution=res, trials=trials, seed=seed, safety=self.safety),
        )
        self._put(name, val, "estimated")
        self.meta.setdefault("estimation", {})[name] = {
            "resolution": res,
            "trials": trials,
            "seed": seed,
            "safety": self.safety,
        }
        return val

    def ensure_for_C_tilde_prime(self, s: float):
        """Estimate the base constants the derivative nonlinearity bound needs."""
        if -1.0 < s <= -0.5:
            needed = [(1.0 - 2.0 * s) / 4.0, (2.0 * s + 5.0) / 4.0]
        elif -2.5 < s <= -1.0:
            needed = [-1.0 - s, (2.0 * s + 5.0) / 4.0]
        else:
            raise DomainError("C_tilde_prime defined for -5/2 < s <= -1/2")
        names = []
        for ss in needed:
            self.ensure_C(ss)
            names.append(self.skey_C(ss))
        return names

    def describe(self, names):
        out = []
        for nm in names:
            if nm in self.entries:
                e = self.entries[nm]
                out.append({"name": nm, "value": e["value"], "provenance": e["provenance"]})
            else:
                out.append({"name": nm, "value": None, "provenance": "exact-closed-form"})
        return out

    # -- base entries -------------------------------------------------------

    def ensure_C(self, s: float, resolution: int = 16, trials: int = 24, seed: int = 0):
        """Estimate (or recall) the embedding constant C_s."""
        s = float(s)
        key = "C[%s]" % _skey(s)
        if key in self.entries:
            return self.entries[key]["value"]
        if s == 0.0:
            # |f|_2 = ||f||_0 with the (2pi)^-3 normalised measure (Parseval).
            self._put(key, 1.0, "exact")
            return 1.0
        val = estimate_Cs(s, resolution=resolution, trials=trials, seed=seed, safety=self.safety)
        self._put(key, val, "estimated")
        self.meta.setdefault("estimation", {})[key] = {
            "resolution": resolution,
            "trials": trials,
            "seed": seed,
            "safety": self.safety,
        }
        return val

    def C(self, s: float) -> float:
        s = float(s)
        key = "C[%s]" % _skey(s)
        if key not in self.entries:
            if s == 0.0:
                return self.ensure_C(0.0)
            raise MissingConstantError("constant C_s missing for s=%r" % s)
        return self.entries[key]["value"]

    def ensure_cp(self, p: float, radius: int = 1000):
        p = float(p)
        key = "c[%s]" % _skey(p)
        if key in self.entries:
            return self.entries[key]["value"]
        val = certified_cp(p, radius=radius)
        self._put(key, val, "certified-upper")
        return val

    def cp(self, p: float) -> float:
        return self.ensure_cp(p)

    # -- derived products ----------------------------------------------------

    def Cprime(self, s: float) -> float:
        return self.C(s) * self.C(1.5 - s)

    def Cprime_half(self) -> float:
        return self.C(0.5) * self.C(1.0)

    @staticmethod
    def C_tilde(s: float) -> float:
        if s < -1:
            raise DomainError("C_tilde defined for s >= -1")
        return 1.0 if s <= 0 else 2.0 ** (s + 1.0)

    def C_tripleprime(self, s: float) -> float:
        return (2.0 * self.Cprime_half() * self.C_tilde(s)) ** 2

    def C_tilde_prime(self, s: float) -> float:
        """Constant of the transformed-derivative nonlinearity bound."""
        if -1.0 < s <= -0.5:
            return self.C((1.0 - 2.0 * s) / 4.0) * self.C((2.0 * s + 5.0) / 4.0)
        if -2.5 < s <= -1.0:
            return self.C(-1.0 - s) * self.C((2.0 * s + 5.0) / 4.0) ** 2
        raise DomainError("C_tilde_prime defined for -5/2 < s <= -1/2")

    def C_second(self, s: float, gamma: float) -> float:
        """The weighted-norm decay constant from the admissibility choice."""
        if gamma <= 0:
            raise DomainError("gamma must be positive")
        return self.Cprime(s) * gamma ** (-(5.0 - 2.0 * s) / (2.0 * s - 1.0))

    # -- persistence ---------------------------------------------------------

    def snapshot(self) -> dict:
        return {"safety": self.safety, "entries": self.entries, "meta": self.meta}

    def to_json(self, path):
        with atomic_open(path) as f:
            json.dump(self.snapshot(), f, indent=1, sort_keys=True)

    @classmethod
    def from_snapshot(cls, snap: dict) -> "ConstantsTable":
        """The table of a ``snapshot()``; ConfigError if ``snap`` is not one."""
        if not (isinstance(snap, dict) and isinstance(snap.get("entries", {}), dict)
                and isinstance(snap.get("meta", {}), dict)):
            raise ConfigError("a constants table must be an object whose entries "
                              "and meta are objects")
        # the rule of _put: an estimate that overflowed to inf is kept (its
        # bounds report as informational), a nan or nonpositive value is not
        values = {"safety": snap.get("safety", 2.0)}
        for name, e in snap.get("entries", {}).items():
            values["constant " + name] = e.get("value") if isinstance(e, dict) else None
        for name, v in values.items():
            if not (isinstance(v, (int, float)) and v > 0):
                raise ConfigError("%s must be a positive number" % name)
        t = cls(safety=snap.get("safety", 2.0))
        t.entries = dict(snap.get("entries", {}))
        t.meta = dict(snap.get("meta", {}))
        return t

    @classmethod
    def from_json(cls, path) -> "ConstantsTable":
        snap = read_json(path)
        try:
            return cls.from_snapshot(snap)
        except ConfigError as exc:
            raise ConfigError("%s: %s" % (path, exc)) from exc


def build_table(
    s_values=(0.5, 0.75, 1.0),
    resolution: int = 16,
    trials: int = 24,
    seed: int = 0,
    safety: float = 2.0,
) -> ConstantsTable:
    """Build a table with the embedding constants the verifiers need."""
    t = ConstantsTable(safety=safety)
    for s in s_values:
        t.ensure_C(s, resolution=resolution, trials=trials, seed=seed)
    return t
