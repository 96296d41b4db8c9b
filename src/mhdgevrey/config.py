"""Run configuration: one JSON document describing a complete experiment.

A parsed document is a ``RunConfig``: the run's ``SolverConfig`` and
``DiagnosticsSpec``, the initial-data family and the requested weight
scales.  Each run's manifest records every ``SolverConfig`` field, the
resolved scales with a note for each "auto" choice, the seed and the initial
family with the N its state was drawn at: every archive is re-derivable from
its manifest alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .archive import _is_number, read_json
from .errors import ConfigError
from .solver import DiagnosticsSpec, SolverConfig, make_initial
from .transform import delta_max

# The specs' fields ("sigma" requests "ft_sigma"; see resolve), the initial family, outdir.
_TOP_KEYS = ({f.name for spec in (SolverConfig, DiagnosticsSpec) for f in fields(spec)}
             - {"ft_sigma"}) | {"initial", "sigma", "outdir"}
_INITIAL_KEYS = {"kind", "params", "seed"}
_REQUIRED = object()


def _number(doc, key, default=_REQUIRED, integer=False):
    """``doc[key]`` checked to be a JSON number (an integer if ``integer``),
    or ``default`` when absent; an explicit null stands for a None default.
    Ranges are checked by the spec the value goes into."""
    if key not in doc or (doc[key] is None and default is None):
        if default is _REQUIRED:
            raise ConfigError("missing field %r" % key)
        return default
    v = doc[key]
    if not _is_number(v) or (integer and not isinstance(v, int)):
        raise ConfigError("field %r must be %s, got %r"
                          % (key, "an integer" if integer else "a number", v))
    return v if integer else float(v)


def _slist(doc, key, default=()):
    v = doc.get(key, list(default))
    if not isinstance(v, list) or not all(_is_number(x) for x in v):
        raise ConfigError("field %r must be a list of numbers, got %r" % (key, v))
    return tuple(float(x) for x in v)


@dataclass(frozen=True)
class RunConfig:
    """Parsed experiment description (see parse_run_config).

    ``diagnostics`` leaves ``delta`` and ``ft_sigma`` unset: the requested
    scales ``delta`` and ``sigma`` (a number, "auto" or None) become those
    two fields in ``resolve``.  ``initial`` holds the family's ``kind``,
    ``params`` and ``seed``.
    """

    solver: SolverConfig
    diagnostics: DiagnosticsSpec
    initial: dict
    delta: object
    sigma: object
    outdir: str | None

    def initial_state(self, N=None):
        """The initial state, drawn at N (default: the solver's)."""
        return make_initial(
            self.initial["kind"], self.initial["params"], N or self.solver.N,
            seed=self.initial["seed"], nu=self.solver.nu, eta=self.solver.eta,
        )

    def resolve(self, table):
        """Resolve the "auto" weight scales; returns the DiagnosticsSpec that
        carries them and the notes naming each "auto" resolution.

        "auto" delta is 0.9 of the admissible maximum (safety against the
        uncertainty of estimated constants); "auto" sigma is min(nu, eta)/2.
        """
        notes = {}
        nu, eta = self.solver.nu, self.solver.eta
        mn = min(nu, eta)
        sigma = self.sigma
        if sigma == "auto":
            sigma = 0.5 * mn
            notes["sigma_resolution"] = "auto: min(nu, eta)/2"
        delta = self.delta
        if delta == "auto":
            delta = 0.9 * delta_max(table, nu, eta)
            notes["delta_resolution"] = "auto: 0.9 * delta_max"
        if delta is not None and not delta > 0:
            raise ConfigError("field 'delta' must be positive or \"auto\"")
        if sigma is not None and not 0 < sigma < mn:
            raise ConfigError(
                "field 'sigma' must lie in (0, min(nu, eta)) or be \"auto\""
            )
        return replace(self.diagnostics, delta=delta, ft_sigma=sigma), notes


def parse_run_config(doc: dict) -> RunConfig:
    """Validate one JSON document; unknown keys are rejected by name.  The
    JSON types are checked here, the ranges by SolverConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(doc) - _TOP_KEYS)
    if unknown:
        raise ConfigError("unknown config fields: %s" % ", ".join(unknown))

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

    def _scale(key):  # its range is checked in resolve
        return "auto" if doc.get(key) == "auto" else _number(doc, key, None)

    lq = doc.get("lq_grid", [])
    if not isinstance(lq, list) or not all(
        isinstance(x, list) and len(x) == 2 and all(map(_is_number, x)) and x[0] >= 1
        for x in lq
    ):
        raise ConfigError("field 'lq_grid' must be a list of [q, s] pairs of numbers "
                          "with q >= 1, got %r" % (lq,))

    for key in ("sigma3", "shells"):
        if key in doc and not isinstance(doc[key], bool):
            raise ConfigError("field %r must be a boolean" % key)

    outdir = doc.get("outdir")
    if outdir is not None and not isinstance(outdir, str):
        raise ConfigError("field 'outdir' must be a string")

    return RunConfig(
        solver=SolverConfig(
            N=_number(doc, "N", integer=True),
            nu=_number(doc, "nu"),
            eta=_number(doc, "eta"),
            dt=_number(doc, "dt"),
            t_end=_number(doc, "t_end"),
            output_stride=_number(doc, "output_stride", 1, integer=True),
            scheme=doc.get("scheme", SolverConfig.scheme),
            checkpoint_stride=_number(doc, "checkpoint_stride", None, integer=True),
        ),
        diagnostics=DiagnosticsSpec(
            s_grid=_slist(doc, "s_grid", DiagnosticsSpec.s_grid),
            derivative_s=_slist(doc, "derivative_s"),
            wiener_s=_slist(doc, "wiener_s"),
            lq_grid=tuple((float(q), float(s)) for q, s in lq),
            ft_s=_slist(doc, "ft_s"),
            tilde_s=_slist(doc, "tilde_s"),
            sigma3=doc.get("sigma3", False),
            shells=doc.get("shells", False),
        ),
        initial={"kind": kind, "params": params, "seed": seed},
        delta=_scale("delta"),
        sigma=_scale("sigma"),
        outdir=outdir,
    )


def load_run_config(path) -> RunConfig:
    """Parse a config file, reporting JSON syntax errors with line numbers."""
    return parse_run_config(read_json(path))
