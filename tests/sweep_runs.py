"""Canonical bound-sweep run used by the acceptance tests and the pin script.

The parameters here define the regression fixture: changing any of them
invalidates tests/data/bound_ratios.json, which must then be regenerated with
scripts/pin_bound_ratios.py.
"""

import mhdgevrey as m
from mhdgevrey.spectral import embed_field

SWEEP_SEED = 11
SWEEP_BASE_N = 16
SWEEP_SIGMA = 0.05
SWEEP_NU = 0.1
SWEEP_ETA = 0.1


def sweep_diagnostics(delta):
    return m.DiagnosticsSpec(
        s_grid=(0.0, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0),
        delta=delta,
        derivative_s=(0.0, 1.0, -1.0, -3.0),
        wiener_s=(-1.0, 0.0, 1.0),
        lq_grid=((4.0, 1.0),),
        ft_sigma=SWEEP_SIGMA,
        ft_s=(0.75, 1.0),
        tilde_s=(0.0, 0.5, 1.0, 1.5),
    )


def make_sweep_trace(N, outdir, table):
    """MHD run with every diagnostic column the standard sweep verifies.

    Initial data is always drawn at SWEEP_BASE_N and zero-padded, so runs at
    N >= SWEEP_BASE_N are true refinements of the same configuration.
    """
    delta = 0.9 * m.delta_max(table, SWEEP_NU, SWEEP_ETA)
    base = m.make_initial(
        "random-spectrum", {"norm_v": 0.3, "norm_b": 0.15},
        N=SWEEP_BASE_N, seed=SWEEP_SEED, nu=SWEEP_NU, eta=SWEEP_ETA,
    )
    initial = m.MhdState(V=embed_field(base.V, N), B=embed_field(base.B, N),
                         nu=SWEEP_NU, eta=SWEEP_ETA)
    cfg = m.SolverConfig(
        N=N, nu=SWEEP_NU, eta=SWEEP_ETA, dt=2e-3, t_end=0.4,
        output_stride=4, checkpoint_stride=20,
        scheme="integrating-factor-RK2",
    )
    return m.simulate(
        cfg, initial, outdir, diagnostics=sweep_diagnostics(delta),
        manifest_extra={"delta": delta, "sigma": SWEEP_SIGMA,
                        "seed": SWEEP_SEED},
    )
