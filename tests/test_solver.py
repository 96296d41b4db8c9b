"""Galerkin dynamics: convolution oracle, stepping, archiving, initial data."""

import struct
import tracemalloc

import numpy as np
import pytest

import mhdgevrey as m
from mhdgevrey import archive
from mhdgevrey.archive import TraceArchive, checkpoint_load, checkpoint_save
from mhdgevrey.errors import (
    BlowUpError,
    CheckpointError,
    ConfigError,
    DomainError,
    TraceError,
)
from mhdgevrey.solver import (
    MhdState,
    SolverConfig,
    _plan,
    full_rhs,
    nonlinear_rhs_fast,
    second_time_derivative,
    step,
)
from mhdgevrey.spectral import geometry

from conftest import energy, random_field
from oracles import nonlinear_rhs_direct


def random_state(N=6, seed=0, scale=0.5, nu=0.1, eta=0.1):
    V = random_field(N, seed)
    B = random_field(N, seed + 1000)
    # scale the coefficient arrays directly so huge amplitudes (used to force
    # a blow-up) never overflow inside the norm-targeting constructor
    return MhdState(V=m.SpectralField(N, V.coeffs * scale),
                    B=m.SpectralField(N, B.coeffs * scale),
                    nu=nu, eta=eta)


class TestConvolutionOracle:
    def test_fast_matches_direct_summation(self):
        st = random_state(N=6, seed=1)
        fv, fb = nonlinear_rhs_fast(st)
        dv, db = nonlinear_rhs_direct(st)
        scale = max(st.V.max_abs(), st.B.max_abs()) ** 2
        assert np.max(np.abs(fv.coeffs - dv.coeffs)) <= 1e-12 * scale
        assert np.max(np.abs(fb.coeffs - db.coeffs)) <= 1e-12 * scale

    def test_rhs_preserves_invariants(self):
        st = random_state(N=5, seed=2)
        fv, fb = full_rhs(st)
        fv.validate()
        fb.validate()


def assert_conjugate_symmetric(w):
    c = w.coeffs
    assert np.array_equal(c, np.conj(c[::-1]))


class TestPrunedTransforms:
    """The pruned padded transforms against the direct sum, on odd and even
    grids (M = 10, 15, 16, 25 for N = 3, 4, 5, 8)."""

    @pytest.mark.parametrize("N", [3, 4, 5, 8])
    def test_matches_direct_summation(self, N):
        st = random_state(N=N, seed=40 + N)
        fv, fb = nonlinear_rhs_fast(st)
        dv, db = nonlinear_rhs_direct(st)
        scale = max(st.V.max_abs(), st.B.max_abs()) ** 2
        assert np.max(np.abs(fv.coeffs - dv.coeffs)) <= 1e-12 * scale
        assert np.max(np.abs(fb.coeffs - db.coeffs)) <= 1e-12 * scale

    def test_outputs_exactly_conjugate_symmetric(self):
        st = random_state(N=5, seed=50)
        assert_conjugate_symmetric(st.V)
        for w in (*nonlinear_rhs_fast(st), *second_time_derivative(st)):
            assert_conjugate_symmetric(w)
        for scheme in ("integrating-factor-RK2", "integrating-factor-RK4"):
            nxt = step(st, 1e-2, scheme=scheme)
            assert_conjugate_symmetric(nxt.V)
            assert_conjugate_symmetric(nxt.B)

    def test_work_arrays_do_not_leak_between_calls(self):
        # Every call reuses the plan's work arrays: a result must not alias
        # them, and enlarging them for the 12 fields of the second derivative
        # must not change the nonlinear term.
        a, b = random_state(N=5, seed=51), random_state(N=5, seed=52)
        kept = nonlinear_rhs_fast(a)
        first = [w.coeffs.copy() for w in kept]
        second_time_derivative(b)
        full_rhs(b)
        for w, ref in zip(kept, first):
            assert np.array_equal(w.coeffs, ref)
        for w, ref in zip(nonlinear_rhs_fast(a), first):
            assert np.array_equal(w.coeffs, ref)

    @pytest.mark.parametrize("which", ["nonlinear_rhs_fast", "second_time_derivative"])
    def test_warm_call_allocates_less_than_one_grid(self, which):
        # Beyond the result it returns, a warm call's traced memory stays
        # below one M^3 float64 array (the product temporaries, the scattered
        # boxes and the physical fields are the plan's work arrays).
        N = 12
        st = random_state(N=N, seed=53)
        rhs = full_rhs(st)
        call = {"nonlinear_rhs_fast": lambda: nonlinear_rhs_fast(st),
                "second_time_derivative": lambda: second_time_derivative(st, rhs)}[which]
        call()
        tracemalloc.start()
        try:
            out = call()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out) == 2
        assert peak - held < _plan(N).M ** 3 * 8


class TestStepping:
    def test_single_mode_exact_decay(self):
        # A lone helical mode has vanishing nonlinearity: V(t) = e^{-nu t} V0.
        st = m.make_initial("single-mode",
                            {"n_v": (0, 0, 1), "amp_v": [1.0, 1j, 0.0],
                             "n_b": None}, N=4, nu=0.3, eta=0.2)
        cur = st
        for _ in range(10):
            cur = step(cur, 0.05, scheme="integrating-factor-RK4")
        exact = st.V.coeffs * np.exp(-0.3 * cur.t)
        assert np.allclose(cur.V.coeffs, exact, atol=1e-14)
        assert cur.B.max_abs() == 0.0

    def test_rk4_convergence_order(self):
        st = random_state(N=4, seed=7, scale=0.4)
        def err(dt, n):
            cur = st
            for _ in range(n):
                cur = step(cur, dt)
            return cur
        fine = err(0.0025, 16)
        e1 = np.max(np.abs(err(0.02, 2).V.coeffs - fine.V.coeffs))
        e2 = np.max(np.abs(err(0.01, 4).V.coeffs - fine.V.coeffs))
        assert e1 / e2 > 10.0  # fourth order: ideal ratio 16

    def test_rk2_convergence_order(self):
        st = random_state(N=4, seed=8, scale=0.4)
        def run(dt, n):
            cur = st
            for _ in range(n):
                cur = step(cur, dt, scheme="integrating-factor-RK2")
            return cur
        fine = run(0.000625, 64)
        e1 = np.max(np.abs(run(0.02, 2).V.coeffs - fine.V.coeffs))
        e2 = np.max(np.abs(run(0.01, 4).V.coeffs - fine.V.coeffs))
        assert 3.0 < e1 / e2 < 6.0  # second order: ideal ratio 4

    @pytest.mark.parametrize("scheme", ["integrating-factor-RK2",
                                        "integrating-factor-RK4"])
    def test_transform_step_matches_direct_sum_step(self, scheme, monkeypatch):
        # The transform path against the direct-sum oracle, through the
        # stepper rather than a single nonlinear evaluation: step looks the
        # nonlinear term up on every call, so the oracle can be patched in.
        fast = slow = random_state(N=6, seed=5)
        for _ in range(2):
            fast = step(fast, 0.01, scheme=scheme)
        monkeypatch.setattr("mhdgevrey.solver.nonlinear_rhs_fast", nonlinear_rhs_direct)
        for _ in range(2):
            slow = step(slow, 0.01, scheme=scheme)
        fast.validate()
        slow.validate()
        for a, b in ((fast.V, slow.V), (fast.B, slow.B)):
            assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12 * b.max_abs()

    def test_step_rejects_bad_arguments(self):
        st = random_state(N=3)
        with pytest.raises(DomainError):
            step(st, 0.0)
        with pytest.raises(ConfigError):
            step(st, 0.01, scheme="euler")

    def test_blow_up_detected(self):
        st = random_state(N=3, seed=9, scale=1e160)
        with pytest.raises(BlowUpError) as exc:
            step(st, 1.0, scheme="integrating-factor-RK2")
        assert exc.value.t == pytest.approx(1.0)
        assert exc.value.last_state is st


class TestEnergyIdentity:
    def test_short_run_energy_balance(self, singlemode_trace):
        t = np.asarray(singlemode_trace.times)
        e = np.asarray(singlemode_trace.col("energy"))
        diss = np.asarray(singlemode_trace.col("diss_v")) + np.asarray(
            singlemode_trace.col("diss_b"))
        drift = abs(e[-1] - e[0] + np.trapezoid(diss, t))
        assert drift <= 1e-8 * e[0]

    def test_energy_monotone_decreasing(self, random_trace):
        e = np.asarray(random_trace.col("energy"))
        assert np.all(np.diff(e) < 0)


class TestInitialConditions:
    def test_single_mode_requires_orthogonality(self):
        with pytest.raises(ConfigError, match="orthogonal"):
            m.make_initial("single-mode",
                           {"n_v": (0, 0, 1), "amp_v": [0.0, 0.0, 1.0],
                            "n_b": None}, N=4)

    def test_abc_like_valid_and_unit_shell(self):
        st = m.make_initial("abc-like", {"A": 1.0, "B": 0.5, "C": 0.25}, N=5)
        st.validate()
        shells = dict(m.shell_spectrum(st.V))
        assert shells[1] > 0 and all(shells[k] == 0 for k in range(2, 6))

    def test_random_spectrum_hits_target_norms(self):
        st = m.make_initial("random-spectrum",
                            {"norm_v": 0.7, "norm_b": 0.2}, N=5, seed=3)
        assert m.sobolev_norm(st.V, 0.0) == pytest.approx(0.7, rel=1e-12)
        assert m.sobolev_norm(st.B, 0.0) == pytest.approx(0.2, rel=1e-12)

    def test_random_spectrum_deterministic(self):
        a = m.make_initial("random-spectrum", {}, N=4, seed=11)
        b = m.make_initial("random-spectrum", {}, N=4, seed=11)
        assert np.array_equal(a.V.coeffs, b.V.coeffs)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            m.make_initial("taylor-green", {}, N=4)

    def test_state_truncations_must_match(self):
        with pytest.raises(DomainError):
            MhdState(V=random_field(4, 0), B=random_field(5, 0))


class TestArchive:
    def test_checkpoint_roundtrip(self, tmp_path):
        st = random_state(N=5, seed=12)
        path = tmp_path / "ck.bin"
        checkpoint_save(st, path)
        back = checkpoint_load(path)
        assert back.t == st.t and back.nu == st.nu and back.eta == st.eta
        assert np.array_equal(back.V.coeffs, st.V.coeffs)
        assert np.array_equal(back.B.coeffs, st.B.coeffs)

    def test_corrupted_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"MHDX" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            checkpoint_load(path)

    def test_checkpoint_bytes(self, tmp_path):
        # The on-disk format, written out independently: the header, then one
        # record of 3 i4 and 12 f8 per ball mode in lexicographic order.
        st = random_state(N=2, seed=14)
        st = MhdState(V=st.V, B=st.B, t=0.25, nu=0.1, eta=0.2)
        modes = [(a, b, c) for a in range(-2, 3) for b in range(-2, 3)
                 for c in range(-2, 3) if 0 < a * a + b * b + c * c <= 4]
        expected = struct.pack("<4sIIdddQ", b"MHDG", 1, 2, 0.1, 0.2, 0.25, len(modes))
        for n in modes:
            vals = np.concatenate([st.V.coeff(n), st.B.coeff(n)])
            parts = [x for z in vals for x in (z.real, z.imag)]
            expected += struct.pack("<3i12d", *n, *parts)
        path = tmp_path / "ck.bin"
        checkpoint_save(st, path)
        assert path.read_bytes() == expected

    @staticmethod
    def _rewrite(path, edit):
        """Rewrite the records of a checkpoint through ``edit`` and fix the
        stored count."""
        raw = path.read_bytes()
        head = archive._HEADER.unpack(raw[:archive._HEADER.size])
        rec = edit(np.frombuffer(raw[archive._HEADER.size:],
                                 dtype=archive._REC_DTYPE).copy())
        path.write_bytes(archive._HEADER.pack(*head[:-1], len(rec)) + rec.tobytes())

    @staticmethod
    def _drop_pair(rec):
        # the first and last records are the modes -n and n; without them
        # the field is still valid, but the file no longer holds the ball
        return rec[1:-1]

    @staticmethod
    def _duplicate(rec):
        return np.concatenate([rec[:5], rec[4:]])

    @staticmethod
    def _outside(rec):
        rec["n"][0] = (2, 2, 2)  # |n|^2 = 12 > N^2
        return rec

    @pytest.mark.parametrize("edit", ["_drop_pair", "_duplicate", "_outside"])
    def test_records_must_be_the_ball(self, tmp_path, edit):
        path = tmp_path / "ck.bin"
        checkpoint_save(random_state(N=2, seed=15), path)
        self._rewrite(path, getattr(self, edit))
        with pytest.raises(CheckpointError):
            checkpoint_load(path)

    @pytest.mark.parametrize("field, value", [(2, 80), (6, 2**50)], ids=["N", "count"])
    def test_damaged_header_rejected_before_allocation(self, tmp_path, field, value):
        # header fields: magic, version, N, nu, eta, t, count.  A count of
        # 2^50 asked to read 108 * 2^50 bytes (MemoryError); N = 80 built and
        # cached the geometry of a ball of 2.1e6 modes before the records
        # were compared with it
        path = tmp_path / "ck.bin"
        checkpoint_save(random_state(N=4, seed=16), path)
        raw = path.read_bytes()
        head = list(archive._HEADER.unpack_from(raw))
        head[field] = value
        path.write_bytes(archive._HEADER.pack(*head) + raw[archive._HEADER.size:])
        cached = geometry.cache_info().currsize
        with pytest.raises(CheckpointError):
            checkpoint_load(path)
        assert geometry.cache_info().currsize == cached

    def test_trace_reload_matches(self, singlemode_trace):
        back = TraceArchive.load(singlemode_trace.root)
        assert back.columns == singlemode_trace.columns
        assert np.array_equal(back.col("energy"),
                              singlemode_trace.col("energy"))
        assert back.manifest["config"]["N"] == 8

    def test_missing_column(self, singlemode_trace):
        assert not singlemode_trace.has_col("no_such_col")
        with pytest.raises(TraceError):
            singlemode_trace.col("no_such_col")

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(TraceError):
            TraceArchive.load(tmp_path / "absent")

    def test_checkpoints_iterate_in_time_order(self, singlemode_trace):
        ts = [st.t for st in singlemode_trace.checkpoints()]
        assert ts == sorted(ts)
        assert len(ts) == len(singlemode_trace.checkpoint_paths())

    def test_failed_checkpoint_write_leaves_nothing(self, tmp_path,
                                                    monkeypatch):
        arch = TraceArchive.create(tmp_path / "a", {"version": 1})
        real_open = open

        class DiskFull:
            """A file whose second write fails, as on a full disk."""

            def __init__(self, f):
                self.f, self.writes = f, 0

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError(28, "No space left on device")
                return self.f.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        monkeypatch.setattr(archive, "open",
                            lambda *a, **kw: DiskFull(real_open(*a, **kw)),
                            raising=False)
        with pytest.raises(OSError):
            arch.save_checkpoint(random_state(N=3), 7)
        monkeypatch.undo()
        assert list((arch.root / "checkpoints").iterdir()) == []
        arch.finalize()

    def test_manifest_read_once_and_copied(self, tmp_path):
        arch = TraceArchive.create(tmp_path / "a", {"config": {"N": 3}})
        arch.append({"t": 0.0})
        arch.finalize()
        tr = TraceArchive.load(arch.root)
        man = tr.manifest
        man["config"]["N"] = 99
        (tr.root / "manifest.json").unlink()
        assert tr.manifest == {"config": {"N": 3}}
        tr.update_manifest({"blowup_t": 0.5})
        assert tr.manifest == {"config": {"N": 3}, "blowup_t": 0.5}
        assert TraceArchive.load(tr.root).manifest == tr.manifest


class TestSimulate:
    def test_zero_duration_single_sample(self, tmp_path):
        st = random_state(N=3, seed=1)
        cfg = SolverConfig(N=3, nu=0.1, eta=0.1, dt=0.01, t_end=0.0)
        tr = m.simulate(cfg, st, tmp_path / "zd")
        assert len(tr.times) == 1 and tr.times[0] == st.t

    def test_duration_measured_from_t0(self, tmp_path):
        st = random_state(N=3, seed=2)
        st = MhdState(V=st.V, B=st.B, t=2.0, nu=0.1, eta=0.1)
        cfg = SolverConfig(N=3, nu=0.1, eta=0.1, dt=0.01, t_end=0.05)
        tr = m.simulate(cfg, st, tmp_path / "t0")
        assert tr.times[0] == pytest.approx(2.0)
        assert tr.times[-1] == pytest.approx(2.05)

    def test_truncation_mismatch_rejected(self, tmp_path):
        st = random_state(N=3)
        cfg = SolverConfig(N=4, nu=0.1, eta=0.1, dt=0.01, t_end=0.01)
        with pytest.raises(ConfigError):
            m.simulate(cfg, st, tmp_path / "mm")

    def test_manifest_records_the_weight_scales(self, tmp_path):
        # the integral checks read delta and sigma only from the manifest, so
        # it holds the values the weighted columns were computed with
        st = random_state(N=3, seed=1)
        cfg = SolverConfig(N=3, nu=0.1, eta=0.1, dt=0.01, t_end=0.01)
        spec = m.DiagnosticsSpec(s_grid=(), delta=0.02, ft_sigma=0.05, ft_s=(1.0,))
        man = m.simulate(cfg, st, tmp_path / "a", diagnostics=spec,
                         manifest_extra={"delta": 0.02, "sigma": 0.05, "seed": 1}).manifest
        assert (man["delta"], man["sigma"], man["seed"]) == (0.02, 0.05, 1)
        man = m.simulate(cfg, st, tmp_path / "b").manifest
        assert man["delta"] is None and man["sigma"] is None
        for extra in ({"delta": 0.03}, {"sigma": 0.04}, {"sigma": None}):
            with pytest.raises(ConfigError, match="differs from"):
                m.simulate(cfg, st, tmp_path / "c", diagnostics=spec, manifest_extra=extra)
        assert not (tmp_path / "c").exists()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_blow_up_keeps_partial_archive(self, tmp_path):
        st = random_state(N=3, seed=9, scale=1e160)
        cfg = SolverConfig(N=3, nu=0.1, eta=0.1, dt=1.0, t_end=3.0,
                           scheme="integrating-factor-RK2")
        with pytest.raises(BlowUpError):
            m.simulate(cfg, st, tmp_path / "bu")
        tr = TraceArchive.load(tmp_path / "bu")
        assert "blowup_t" in tr.manifest
        assert len(tr.times) >= 1

    @pytest.mark.parametrize("scheme,stages", [("integrating-factor-RK2", 2),
                                               ("integrating-factor-RK4", 4)])
    def test_row_nonlinearity_starts_the_next_step(self, tmp_path, monkeypatch,
                                                   scheme, stages):
        import mhdgevrey.solver as solver

        st = random_state(N=5, seed=4, scale=0.3)
        steps, stride = 6, 2
        cfg = SolverConfig(N=5, nu=0.1, eta=0.1, dt=1e-3, t_end=steps * 1e-3,
                           output_stride=stride, checkpoint_stride=1, scheme=scheme)
        calls = []
        real = solver.nonlinear_rhs_fast

        def counting(state, *args, **kwargs):
            calls.append(1)
            return real(state, *args, **kwargs)

        monkeypatch.setattr(solver, "nonlinear_rhs_fast", counting)
        tr = m.simulate(cfg, st, tmp_path / "tr",
                        diagnostics=m.DiagnosticsSpec(s_grid=(), derivative_s=(0.0,)))
        rows = len(tr.times)
        assert rows == steps // stride + 1
        # every row evaluates the nonlinearity; all but the last hand it over
        assert len(calls) == stages * steps + rows - (rows - 1)

        monkeypatch.setattr(solver, "nonlinear_rhs_fast", real)
        expected = [st]
        for i in range(steps):
            dt = cfg.dt if i < steps - 1 else cfg.t_end - expected[-1].t
            expected.append(step(expected[-1], dt, scheme=scheme))
        got = tr.checkpoints()
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a.t == b.t
            assert np.array_equal(a.V.coeffs, b.V.coeffs)
            assert np.array_equal(a.B.coeffs, b.B.coeffs)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SolverConfig(N=0, nu=0.1, eta=0.1, dt=0.01, t_end=1.0)
        with pytest.raises(ConfigError):
            SolverConfig(N=4, nu=0.1, eta=0.1, dt=-0.01, t_end=1.0)
        with pytest.raises(ConfigError):
            SolverConfig(N=4, nu=0.1, eta=0.1, dt=0.01, t_end=1.0,
                         scheme="nope")
        with pytest.raises(ConfigError):
            SolverConfig(N=4, nu=-0.1, eta=0.1, dt=0.01, t_end=1.0)
        for stride in (0, -1):
            with pytest.raises(ConfigError, match="checkpoint_stride"):
                SolverConfig(N=4, nu=0.1, eta=0.1, dt=0.01, t_end=1.0,
                             checkpoint_stride=stride)


class TestSecondDerivative:
    def test_matches_central_difference_of_rhs(self):
        st = random_state(N=4, seed=21, scale=0.3)
        d2v, d2b = second_time_derivative(st)
        h = 1e-3
        s1 = step(st, h, scheme="integrating-factor-RK4")
        s2 = step(s1, h, scheme="integrating-factor-RK4")
        f0 = full_rhs(st)
        f1 = full_rhs(s1)
        f2 = full_rhs(s2)
        # one-sided second-order difference of the first derivative
        approx_v = (-3 * f0[0].coeffs + 4 * f1[0].coeffs - f2[0].coeffs) / (2 * h)
        approx_b = (-3 * f0[1].coeffs + 4 * f1[1].coeffs - f2[1].coeffs) / (2 * h)
        scale = max(np.max(np.abs(d2v.coeffs)), np.max(np.abs(d2b.coeffs)))
        assert np.max(np.abs(d2v.coeffs - approx_v)) <= 1e-4 * scale
        assert np.max(np.abs(d2b.coeffs - approx_b)) <= 1e-4 * scale

    @pytest.mark.parametrize("N", [4, 6, 8])
    def test_fused_pass_matches_polarised_direct_sum(self, N):
        """The one-pass linearisation against the direct sum: the nonlinearity
        is quadratic, so its linearisation at U in the direction dU is
        [NL(U + dU) - NL(U - dU)] / 2."""
        nsq = geometry(N).nsq.astype(float)[..., None]
        for seed in range(3):
            st = random_state(N=N, seed=30 + seed, scale=0.4)
            dV, dB = full_rhs(st)
            plus = nonlinear_rhs_direct(MhdState(
                m.SpectralField(N, st.V.coeffs + dV.coeffs),
                m.SpectralField(N, st.B.coeffs + dB.coeffs)))
            minus = nonlinear_rhs_direct(MhdState(
                m.SpectralField(N, st.V.coeffs - dV.coeffs),
                m.SpectralField(N, st.B.coeffs - dB.coeffs)))
            oracle_v = -st.nu * nsq * dV.coeffs + 0.5 * (plus[0].coeffs - minus[0].coeffs)
            oracle_b = -st.eta * nsq * dB.coeffs + 0.5 * (plus[1].coeffs - minus[1].coeffs)
            d2v, d2b = second_time_derivative(st)
            scale = max(np.max(np.abs(d2v.coeffs)), np.max(np.abs(d2b.coeffs)))
            assert np.max(np.abs(d2v.coeffs - oracle_v)) <= 1e-12 * scale
            assert np.max(np.abs(d2b.coeffs - oracle_b)) <= 1e-12 * scale
            # a first derivative handed in gives the same fields
            given = second_time_derivative(st, rhs=(dV, dB))
            assert np.array_equal(given[0].coeffs, d2v.coeffs)
            assert np.array_equal(given[1].coeffs, d2b.coeffs)
