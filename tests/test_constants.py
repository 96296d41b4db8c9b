"""Embedding/lattice constants: closed forms, certified bounds, estimation."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mhdgevrey.constants import (
    ConstantsTable,
    build_table,
    certified_cp,
    estimate_Cs,
    lattice_constant,
    lattice_sum,
)
from mhdgevrey.errors import DomainError, MissingConstantError


class TestLatticeConstant:
    def test_closed_form_value(self):
        # sqrt(4 pi e^{a sqrt3/2} 2^|p| a^{-(p+3)} Gamma(p+3)) at p=0, a=2
        assert lattice_constant(0.0, 2.0) == pytest.approx(4.213907425029452, rel=1e-12)

    def test_matches_explicit_formula(self):
        for p, a in ((-1.0, 0.5), (1.0, 1.0), (2.0, 2.0)):
            csq = (4.0 * math.pi * math.exp(a * math.sqrt(3) / 2.0)
                   * 2.0 ** abs(p) * a ** (-(p + 3.0)) * math.gamma(p + 3.0))
            assert lattice_constant(p, a) == pytest.approx(math.sqrt(csq), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            lattice_constant(-3.0, 1.0)
        with pytest.raises(DomainError):
            lattice_constant(0.0, 0.0)

    @pytest.mark.parametrize("p", [-1.0, 0.0, 1.0, 2.0])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("phi", [0.1, 0.5, 1.0])
    def test_bounds_direct_lattice_sum(self, p, a, phi):
        """sum_{n!=0} e^{-a phi |n|} |n|^p <= C_{p,a}^2 phi^{-(p+3)}."""
        direct = lattice_sum(lambda r: np.exp(-a * phi * r) * r**p, radius=300)
        assert direct <= lattice_constant(p, a) ** 2 * phi ** (-(p + 3.0))


class TestCertifiedCp:
    def test_frozen_oracle_value(self):
        # Pinned from the shell-count + integral-tail evaluation at radius 1000.
        assert certified_cp(2.0) == pytest.approx(4.065999099618791, rel=1e-12)

    def test_radius_refinement_decreases_bound(self):
        assert certified_cp(2.0, radius=2000) <= certified_cp(2.0, radius=500)

    def test_upper_bounds_partial_sums(self):
        for p in (1.6, 2.0, 3.0):
            partial = lattice_sum(lambda r: r ** (-2.0 * p), radius=200)
            assert certified_cp(p) ** 2 >= partial

    def test_domain(self):
        with pytest.raises(DomainError):
            certified_cp(1.5)

    def test_sup_embedding_holds(self):
        """max|f| <= c_p ||f||_p on random fields."""
        from conftest import random_field
        from mhdgevrey.spectral import collocation_values, sobolev_norm

        cp = certified_cp(2.0)
        for seed in range(5):
            w = random_field(4, seed=seed)
            mx = np.max(np.linalg.norm(collocation_values(w, grid=24), axis=-1))
            assert mx <= cp * sobolev_norm(w, 2.0) * (1 + 1e-9)


class TestEstimateCs:
    def test_deterministic(self):
        assert estimate_Cs(0.5) == estimate_Cs(0.5)
        assert estimate_Cs(0.5) == pytest.approx(2.968848183931069, rel=1e-9)

    def test_more_trials_never_decrease(self):
        lo = estimate_Cs(0.75, trials=8)
        hi = estimate_Cs(0.75, trials=16)
        assert hi >= lo

    def test_safety_scales_linearly(self):
        assert estimate_Cs(0.5, safety=4.0) == pytest.approx(
            2.0 * estimate_Cs(0.5, safety=2.0), rel=1e-12
        )

    def test_embedding_holds_on_random_fields(self):
        """|f|_{6/(3-2s)} <= C_s ||f||_s for scalar test fields (s = 1/2)."""
        from conftest import random_field
        from mhdgevrey.spectral import lq_norm, sobolev_norm

        c = estimate_Cs(0.5)
        q = 6.0 / (3.0 - 1.0)
        for seed in range(5):
            w = random_field(4, seed=seed + 100)
            assert lq_norm(w, q) <= c * sobolev_norm(w, 0.5) * (1 + 1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            estimate_Cs(1.5)
        with pytest.raises(DomainError):
            estimate_Cs(0.0)

    @pytest.mark.parametrize("kwargs", [{"resolution": 1}, {"trials": -1}],
                             ids=["resolution", "trials"])
    def test_bad_arguments(self, kwargs):
        with pytest.raises(DomainError):
            estimate_Cs(0.5, **kwargs)

    def test_finite_near_three_halves(self):
        # q = 3e9 here; a power of |f| / max|f| <= 1 cannot overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            c = estimate_Cs(1.499999999, trials=0)
        assert math.isfinite(c) and c > 0


class TestConstantsTable:
    def test_c0_exact(self, table):
        assert table.C(0.0) == 1.0
        assert table.provenance(table.skey_C(0.0)) == "exact"

    def test_missing_constant_raises(self):
        t = ConstantsTable()
        with pytest.raises(MissingConstantError):
            t.C(0.75)

    def test_cprime_product(self, table):
        assert table.Cprime(0.5) == pytest.approx(table.C(0.5) * table.C(1.0), rel=1e-15)
        assert table.Cprime_half() == table.Cprime(0.5)

    def test_c_tilde_piecewise(self):
        assert ConstantsTable.C_tilde(-0.5) == 1.0
        assert ConstantsTable.C_tilde(0.0) == 1.0
        assert ConstantsTable.C_tilde(1.0) == 4.0
        with pytest.raises(DomainError):
            ConstantsTable.C_tilde(-1.5)

    def test_c_tilde_prime_branches(self, table):
        table.ensure_for_C_tilde_prime(-0.75)
        table.ensure_for_C_tilde_prime(-1.5)
        assert table.C_tilde_prime(-0.75) > 0
        assert table.C_tilde_prime(-1.5) > 0
        with pytest.raises(DomainError):
            table.C_tilde_prime(-3.0)

    def test_c_second_monotone_in_gamma(self, table):
        # Exponent -(5-2s)/(2s-1) < 0 for 1/2 < s <= 1: smaller gamma, larger C''.
        assert table.C_second(0.75, 0.01) > table.C_second(0.75, 0.02)

    def test_json_roundtrip(self, table, tmp_path):
        path = tmp_path / "table.json"
        table.to_json(path)
        t2 = ConstantsTable.from_json(path)
        assert t2.snapshot() == table.snapshot()

    def test_failed_write_leaves_no_file(self, table, tmp_path, monkeypatch):
        import mhdgevrey.constants as constants

        def dump_then_fail(obj, f, **kwargs):
            f.write('{"entries": {')
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(constants.json, "dump", dump_then_fail)
        with pytest.raises(OSError):
            table.to_json(tmp_path / "table.json")
        assert list(tmp_path.iterdir()) == []

    def test_reestimate_doubles_trials_and_keeps_max(self):
        t = build_table(s_values=(0.5,), trials=8)
        key = t.skey_C(0.5)
        before = t.C(0.5)
        t.reestimate(key)
        assert t.C(0.5) >= before
        assert t.meta["estimation"][key]["trials"] == 16

    def test_reestimate_noop_for_exact(self, table):
        table.reestimate(table.skey_C(0.0))
        assert table.C(0.0) == 1.0

    def test_describe_lists_provenance(self, table):
        d = table.describe([table.skey_C(0.5), table.skey_cp(2.0)])
        assert d[0]["provenance"] == "estimated"

    def test_cp_certified_flag(self, table):
        table.ensure_cp(2.0)
        assert table.provenance(table.skey_cp(2.0)) == "certified-upper"


@settings(max_examples=30, deadline=None)
@given(p=st.floats(-2.0, 3.0), a=st.floats(0.1, 3.0), phi=st.floats(0.01, 1.0))
def test_lattice_bound_property(p, a, phi):
    direct = lattice_sum(lambda r: np.exp(-a * phi * r) * r**p, radius=60)
    assert direct <= lattice_constant(p, a) ** 2 * phi ** (-(p + 3.0)) * (1 + 1e-12)
