"""Embedding/lattice constants: closed forms, certified bounds, estimation."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import irfftn, rfftn

from mhdgevrey.constants import (
    ConstantsTable,
    _from_grid,
    _random_scalar_spectrum,
    _to_grid,
    _trial_lattice,
    build_table,
    certified_cp,
    estimate_Cs,
    lattice_constant,
    lattice_sum,
)
from mhdgevrey.errors import ConfigError, DomainError

BAD_SAFETY = [-1.0, 0.0, math.inf, math.nan]


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


class TestShellCounts:
    """lattice_sum counts each shell |n|^2 exactly: against brute force."""

    @pytest.mark.parametrize("radius", [1, 2, 5, 17, 40])
    def test_equal_to_brute_force_count(self, radius):
        r = np.arange(-radius, radius + 1)
        n = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
        m = np.einsum("ki,ki->k", n, n)
        absn = np.sqrt(m[(m > 0) & (m <= radius * radius)].astype(float))
        # the point count and the sum of |n|^2 are integers, exact in any order
        assert lattice_sum(np.ones_like, radius) == len(absn)
        assert lattice_sum(lambda x: np.rint(x * x), radius) == np.sum(np.rint(absn**2))
        assert lattice_sum(lambda x: x**-4.0, radius) == pytest.approx(
            np.sum(absn**-4.0), rel=1e-14)


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

    def test_memory_stays_small(self):
        # summed block by block, the 10^6 shell counts at radius 1000 trace
        # about 5 MB; two 2*10^6-point FFT convolutions traced about 62 MB
        certified_cp.cache_clear()
        tracemalloc.start()
        try:
            certified_cp(2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_certified_once_per_process(self):
        # a fresh table (as each cli command loads) recalls c_2, not recounts it
        ConstantsTable().ensure_cp(2.0)
        before = certified_cp.cache_info()
        ConstantsTable().ensure_cp(2.0)
        after = certified_cp.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def _box_reference(K0, M):
    """Reference transforms by scipy: the spectrum placed in a zero-padded
    rfftn box (M, M, M//2+1) over (n1, n2, n3) mod M."""
    lat = _trial_lattice(K0, M)
    r = np.arange(-K0, K0 + 1)
    n = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
    up = n[:, 2] >= 0
    at = tuple((np.where(up[:, None], n, -n) % M).T)

    def to_grid(spec):
        half = np.zeros((M, M, M // 2 + 1), dtype=np.complex128)
        half[tuple(a[up] for a in at)] = spec[up]
        return irfftn(half, s=(M, M, M), norm="forward")

    def from_grid(f):
        vals = rfftn(f, norm="forward")[at]
        return np.where(up, vals, np.conj(vals))

    return lat, to_grid, from_grid


class TestTrialTransforms:
    """The dense-DFT transforms of the C_s estimator; their grids have axes
    (x3, x1, x2), the reference grids (x1, x2, x3)."""

    @pytest.mark.parametrize("K0,M", [(2, 5), (4, 9), (8, 36)])
    def test_match_scipy_on_the_padded_box(self, K0, M):
        lat, to_grid, from_grid = _box_reference(K0, M)
        for seed in range(3):
            spec = _random_scalar_spectrum(np.random.default_rng(seed), lat, 0.3)
            ref = to_grid(spec)
            f = _to_grid(spec, lat)
            assert f.shape == (M, M, M) and f.dtype == np.float64
            f = f.transpose(1, 2, 0)
            assert np.max(np.abs(f - ref)) <= 1e-13 * np.max(np.abs(ref))
            g = np.random.default_rng(seed + 10).standard_normal((M, M, M))
            want = from_grid(g)
            got = _from_grid(np.ascontiguousarray(g.transpose(2, 0, 1)), lat)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("K0,M", [(2, 5), (4, 9), (8, 36)])
    def test_round_trip(self, K0, M):
        lat = _trial_lattice(K0, M)
        for seed in range(3):
            spec = _random_scalar_spectrum(np.random.default_rng(seed), lat, 0.3)
            back = _from_grid(_to_grid(spec, lat), lat)
            assert np.max(np.abs(back - spec)) <= 1e-13 * np.max(np.abs(spec))


class TestEstimateCs:
    def test_deterministic(self):
        assert estimate_Cs(0.5) == estimate_Cs(0.5)
        assert estimate_Cs(0.5) == pytest.approx(2.968848183931069, rel=1e-9)

    @pytest.mark.parametrize("s,value", [(0.75, 3.734304236339718), (1.0, 4.887033912208424)])
    def test_pinned_values(self, s, value):
        # pinned from the zero-padded 3-d FFT form of the estimator
        assert estimate_Cs(s) == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("safety", BAD_SAFETY)
    def test_bad_safety(self, safety):
        with pytest.raises(DomainError, match="safety"):
            estimate_Cs(0.5, safety=safety)

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

    @pytest.mark.parametrize("kwargs", [{"trials": -1}], ids=["trials"])
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

    @pytest.mark.parametrize("safety", BAD_SAFETY)
    def test_bad_safety_rejected_on_construction(self, safety):
        with pytest.raises(DomainError, match="safety"):
            ConstantsTable(safety=safety)

    @pytest.mark.parametrize("safety", BAD_SAFETY)
    def test_bad_safety_rejected_on_load(self, safety):
        with pytest.raises(ConfigError, match="safety"):
            ConstantsTable.from_snapshot({"safety": safety, "entries": {}})

    def test_missing_constant_estimated_on_first_read(self, table):
        # at the default trial count, that of the session table's build_table
        t = ConstantsTable()
        assert t.C(0.75) == table.C(0.75)
        key = t.skey_C(0.75)
        assert t.provenance(key) == "estimated"
        assert t.entries[key] == table.entries[key]

    def test_cprime_product(self, table):
        assert table.Cprime(0.5) == pytest.approx(table.C(0.5) * table.C(1.0), rel=1e-15)

    def test_c_tilde_piecewise(self):
        assert ConstantsTable.C_tilde(-0.5) == 1.0
        assert ConstantsTable.C_tilde(0.0) == 1.0
        assert ConstantsTable.C_tilde(1.0) == 4.0
        with pytest.raises(DomainError):
            ConstantsTable.C_tilde(-1.5)

    def test_c_tilde_prime_branches(self, table):
        assert table.C_tilde_prime(-0.75) > 0
        assert table.C_tilde_prime(-1.5) > 0
        with pytest.raises(DomainError):
            table.C_tilde_prime(-3.0)

    @pytest.mark.parametrize("s", [-0.5, -0.75, -1.0, -1.5, -2.25])
    def test_c_tilde_prime_reads_one_index_table(self, table, s):
        # the two branches written out: the indices read, once each in the
        # order read, and the value bit for bit
        with table.reads() as names:
            ct = table.C_tilde_prime(s)
        if -1.0 < s <= -0.5:
            a, b = (1.0 - 2.0 * s) / 4.0, (2.0 * s + 5.0) / 4.0
            value = table.C(a) * table.C(b)
        else:
            a, b = -1.0 - s, (2.0 * s + 5.0) / 4.0
            value = table.C(a) * table.C(b) ** 2
        assert names == list(dict.fromkeys([table.skey_C(a), table.skey_C(b)]))
        assert ct == value

    def test_c_second_monotone_in_gamma(self, table):
        # Exponent -(5-2s)/(2s-1) < 0 for 1/2 < s <= 1: smaller gamma, larger C''.
        assert table.C_second(0.75, 0.01) > table.C_second(0.75, 0.02)

    def test_json_roundtrip(self, table, tmp_path):
        path = tmp_path / "table.json"
        table.to_json(path)
        t2 = ConstantsTable.from_json(path)
        assert t2.snapshot() == table.snapshot()

    def test_estimated_entry_is_the_whole_record(self, table):
        assert table.entries[table.skey_C(0.5)] == {
            "value": table.C(0.5), "provenance": "estimated", "trials": 24, "safety": 2.0}
        assert set(table.snapshot()) == {"safety", "entries"}

    @pytest.mark.parametrize("trials", ["8", -1, 1.5, True, None])
    def test_trials_must_be_a_count(self, trials):
        # reestimate doubles the recorded count
        entry = {"value": 2.5, "provenance": "estimated", "trials": trials}
        with pytest.raises(ConfigError, match=r"C\[0.5\]: trials must be an integer >= 0"):
            ConstantsTable.from_snapshot({"entries": {"C[0.5]": entry}})

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
        assert t.entries[key]["trials"] == 16

    def test_reestimate_asks_for_at_least_one_trial(self, monkeypatch):
        # a table written with --trials 0: doubling 0 redid the same estimate
        import mhdgevrey.constants as constants

        asked = []
        monkeypatch.setattr(constants, "estimate_Cs",
                            lambda s, trials, safety: asked.append(trials) or 1.0 + trials)
        t = ConstantsTable()
        t.ensure_C(0.5, trials=0)
        t.reestimate("C[0.5]")
        assert asked == [0, 1]
        assert t.entries["C[0.5]"]["trials"] == 1 and t.C(0.5) == 2.0

    ENTRY = {"value": 2.5, "provenance": "estimated", "trials": 3, "safety": 2.0}

    def test_snapshot_is_a_copy(self):
        t = ConstantsTable(entries={"C[0.5]": dict(self.ENTRY)})
        snap = t.snapshot()
        snap["entries"]["C[0.5]"]["value"] = -1.0
        snap["entries"]["C[0.75]"] = dict(self.ENTRY)
        assert t.entries == {"C[0.5]": self.ENTRY}

    def test_from_snapshot_copies_its_input(self):
        snap = {"entries": {"C[0.5]": dict(self.ENTRY)}}
        t = ConstantsTable.from_snapshot(snap)
        snap["entries"]["C[0.5]"]["value"] = -5.0
        snap["entries"]["C[0.75]"] = dict(self.ENTRY)
        assert t.entries == {"C[0.5]": self.ENTRY}

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
