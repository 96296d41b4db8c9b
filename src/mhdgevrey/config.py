"""Run configuration: one JSON document describing a complete experiment.

The manifest written next to each run records the fully resolved values
(including "auto" choices), so every archive is re-derivable from its
manifest alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .archive import read_json
from .errors import ConfigError
from .solver import SCHEMES, DiagnosticsSpec, SolverConfig, make_initial

_TOP_KEYS = {
    "N", "nu", "eta", "dt", "t_end", "output_stride",
    "checkpoint_stride", "scheme", "initial", "delta", "sigma",
    "s_grid", "derivative_s", "wiener_s", "lq_grid", "ft_s", "tilde_s",
    "sigma3", "shells", "outdir",
}
_INITIAL_KEYS = {"kind", "params", "seed"}


def _number(doc, key, required=True, default=None):
    if key not in doc:
        if required:
            raise ConfigError("missing field %r" % key)
        return default
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError("field %r must be a number, got %r" % (key, v))
    return float(v)


def _slist(doc, key, default=()):
    v = doc.get(key, list(default))
    if not isinstance(v, list) or any(
        isinstance(x, bool) or not isinstance(x, (int, float)) for x in v
    ):
        raise ConfigError("field %r must be a list of numbers, got %r" % (key, v))
    return tuple(float(x) for x in v)


@dataclass(frozen=True)
class RunConfig:
    """Parsed experiment description (see parse_run_config)."""

    N: int
    nu: float
    eta: float
    dt: float
    t_end: float
    output_stride: int
    checkpoint_stride: int | None
    scheme: str
    initial_kind: str
    initial_params: dict
    seed: int
    delta: object  # float or "auto"
    sigma: object  # float or "auto"
    s_grid: tuple
    derivative_s: tuple
    wiener_s: tuple
    lq_grid: tuple
    ft_s: tuple
    tilde_s: tuple
    sigma3: bool
    shells: bool
    outdir: str

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            N=self.N,
            nu=self.nu,
            eta=self.eta,
            dt=self.dt,
            t_end=self.t_end,
            output_stride=self.output_stride,
            scheme=self.scheme,
            checkpoint_stride=self.checkpoint_stride,
        )

    def initial_state(self):
        return make_initial(
            self.initial_kind, self.initial_params, self.N,
            seed=self.seed, nu=self.nu, eta=self.eta,
        )

    def resolve(self, table):
        """Resolve the "auto" weight scales; returns (delta, sigma, notes).

        "auto" delta is 0.9 of the admissible maximum (safety against the
        uncertainty of estimated constants); "auto" sigma is min(nu, eta)/2.
        """
        from .transform import delta_max

        notes = {}
        mn = min(self.nu, self.eta)
        sigma = self.sigma
        if sigma == "auto":
            sigma = 0.5 * mn
            notes["sigma_resolution"] = "auto: min(nu, eta)/2"
        delta = self.delta
        if delta == "auto":
            delta = 0.9 * delta_max(table, self.nu, self.eta)
            notes["delta_resolution"] = "auto: 0.9 * delta_max"
        if delta is not None and not delta > 0:
            raise ConfigError("field 'delta' must be positive or \"auto\"")
        if sigma is not None and not 0 < sigma < mn:
            raise ConfigError(
                "field 'sigma' must lie in (0, min(nu, eta)) or be \"auto\""
            )
        return delta, sigma, notes

    def diagnostics(self, delta, sigma) -> DiagnosticsSpec:
        return DiagnosticsSpec(
            s_grid=self.s_grid,
            delta=delta,
            derivative_s=self.derivative_s,
            wiener_s=self.wiener_s,
            lq_grid=self.lq_grid,
            ft_sigma=sigma if self.ft_s else None,
            ft_s=self.ft_s,
            tilde_s=self.tilde_s,
            sigma3=self.sigma3,
            shells=self.shells,
        )


def parse_run_config(doc: dict) -> RunConfig:
    """Validate one JSON document; unknown keys are rejected by name."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(doc) - _TOP_KEYS)
    if unknown:
        raise ConfigError("unknown config fields: %s" % ", ".join(unknown))

    N = doc.get("N")
    if isinstance(N, bool) or not isinstance(N, int) or N < 1:
        raise ConfigError("field 'N' must be a positive integer, got %r" % N)
    nu = _number(doc, "nu")
    eta = _number(doc, "eta")
    if nu <= 0 or eta <= 0:
        raise ConfigError("fields 'nu' and 'eta' must be positive")
    dt = _number(doc, "dt")
    t_end = _number(doc, "t_end")
    if t_end < 0:
        raise ConfigError("field 't_end' must be nonnegative")

    stride = doc.get("output_stride", 1)
    if isinstance(stride, bool) or not isinstance(stride, int) or stride < 1:
        raise ConfigError("field 'output_stride' must be a positive integer")
    ck = doc.get("checkpoint_stride")
    if ck is not None and (isinstance(ck, bool) or not isinstance(ck, int) or ck < 1):
        raise ConfigError("field 'checkpoint_stride' must be a positive integer")
    scheme = doc.get("scheme", "integrating-factor-RK4")
    if scheme not in SCHEMES:
        raise ConfigError("field 'scheme' must be one of %s" % (SCHEMES,))

    init = doc.get("initial")
    if not isinstance(init, dict):
        raise ConfigError("field 'initial' must be an object")
    bad = sorted(set(init) - _INITIAL_KEYS)
    if bad:
        raise ConfigError("unknown fields in 'initial': %s" % ", ".join(bad))
    kind = init.get("kind")
    if not isinstance(kind, str):
        raise ConfigError("field 'initial.kind' must be a string")
    params = init.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("field 'initial.params' must be an object")
    seed = init.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("field 'initial.seed' must be an integer")

    def _scale(key):
        v = doc.get(key)
        if v is None or v == "auto":
            return v
        if isinstance(v, bool) or not isinstance(v, (int, float)) or v <= 0:
            raise ConfigError(
                "field %r must be a positive number or \"auto\", got %r" % (key, v)
            )
        return float(v)

    lq = doc.get("lq_grid", [])
    if not isinstance(lq, list) or any(
        not isinstance(x, list) or len(x) != 2 for x in lq
    ):
        raise ConfigError("field 'lq_grid' must be a list of [q, s] pairs")
    lq_grid = tuple((float(q), float(s)) for q, s in lq)

    for key in ("sigma3", "shells"):
        if key in doc and not isinstance(doc[key], bool):
            raise ConfigError("field %r must be a boolean" % key)

    outdir = doc.get("outdir")
    if outdir is not None and not isinstance(outdir, str):
        raise ConfigError("field 'outdir' must be a string")

    return RunConfig(
        N=N,
        nu=nu,
        eta=eta,
        dt=dt,
        t_end=t_end,
        output_stride=stride,
        checkpoint_stride=ck,
        scheme=scheme,
        initial_kind=kind,
        initial_params=params,
        seed=seed,
        delta=_scale("delta"),
        sigma=_scale("sigma"),
        s_grid=_slist(doc, "s_grid", (0.5, 1.0, 1.5, 2.0)),
        derivative_s=_slist(doc, "derivative_s"),
        wiener_s=_slist(doc, "wiener_s"),
        lq_grid=lq_grid,
        ft_s=_slist(doc, "ft_s"),
        tilde_s=_slist(doc, "tilde_s"),
        sigma3=bool(doc.get("sigma3", False)),
        shells=bool(doc.get("shells", False)),
        outdir=outdir,
    )


def load_run_config(path) -> RunConfig:
    """Parse a config file, reporting JSON syntax errors with line numbers."""
    return parse_run_config(read_json(path))
