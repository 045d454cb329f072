import dataclasses
import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from nopolock import (EstimationError, ParameterDomainError, PhaseHistogram,
                      SimConfig, drift_field, ensemble_moments, mean_photon_below,
                      moment_label, parse_moment_spec, sample_ensemble, steady_state)
from nopolock.fluctuations import above_matrices
from nopolock.entanglement import moments_below
from nopolock import montecarlo
from nopolock.montecarlo import _chunk_rng, _integrate

from conftest import at_ratio, make_system
from _fock import FockSteadyState
from _reference import adiabatic_pump, noise_increment


class TestDrift:
    def test_zero_state(self, standard):
        params, scales = standard
        assert np.all(drift_field(np.zeros(4, complex), params, scales) == 0)

    def test_hand_value(self):
        params, scales = make_system(delta=0.0, chi=0.5, eps=1.0, lam=1.0)
        state = np.full(4, 0.1, dtype=complex)
        d = drift_field(state, params, scales)
        assert d[0] == pytest.approx(-0.001 - 0.05j, abs=1e-15)

    def test_conjugate_symmetry(self, standard):
        params, scales, _ = at_ratio(*standard, 0.7)
        rng = np.random.default_rng(7)
        alpha = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        state = np.concatenate([alpha, alpha.conj()])
        d = drift_field(state, params, scales)
        np.testing.assert_allclose(d[2:], d[:2].conj(), atol=1e-14)


class TestNoiseIncrement:
    def test_silent_when_correlator_vanishes(self):
        # eps == lam and alpha1 = alpha2 = 1 make the alpha-pair correlator
        # exactly zero in floating point
        params, scales = make_system(delta=3.0, chi=0.5, lam=1.0, eps=1.0)
        assert scales.eps == 1.0 and scales.lam == 1.0
        state = np.array([1.0, 1.0, 0.0, 0.0], complex)
        inc = noise_increment(state, params, scales, 1e-3,
                              np.random.default_rng(0))
        assert np.abs(inc[:2]).max() == 0.0
        assert np.abs(inc[2:]).max() > 0.0

    @pytest.mark.parametrize("dt", [0.0, -1e-3])
    def test_step_must_be_positive(self, standard, dt):
        with pytest.raises(ParameterDomainError, match="dt must be positive"):
            noise_increment(np.zeros(4, complex), *standard, dt, np.random.default_rng(0))

    def test_sample_statistics(self, standard):
        params, scales, _ = at_ratio(*standard, 0.6)
        n, dt = 1_000_000, 1e-3
        base = np.array([0.4 + 0.1j, -0.2 + 0.3j, 0.1 - 0.2j, 0.25 + 0j])
        state = np.repeat(base[:, None], n, axis=1)
        inc = noise_increment(state, params, scales, dt,
                              np.random.default_rng(42))
        c = scales.eps - scales.lam * base[0] * base[1]
        cb = scales.eps - scales.lam * base[2] * base[3]

        def within_3se(samples, expected):
            se = samples.std() / math.sqrt(n)
            return abs(samples.mean() - expected) < 3 * se

        prod = inc[0] * inc[1]
        assert within_3se(prod.real, (c * dt).real)
        assert within_3se(prod.imag, (c * dt).imag)
        prodb = inc[2] * inc[3]
        assert within_3se(prodb.real, (cb * dt).real)
        assert within_3se(prodb.imag, (cb * dt).imag)
        for bad in (inc[0] ** 2, inc[1] ** 2, inc[0] * inc[2], inc[0] * inc[3]):
            assert within_3se(bad.real, 0.0)
            assert within_3se(bad.imag, 0.0)


class TestIntegrateTrajectory:
    def test_zero_pump_decay(self):
        # eps = chi = 0 and alpha2 = beta2 = 0 make c = eps - lam*a1*a2 exactly
        # zero, so the full stochastic step adds exactly zero noise
        params, scales = make_system(delta=2.0, chi=0.0, eps=0.0)
        config = SimConfig(dt=1e-3, t_max=1.0, n_traj=2, burn_in=0.0,
                           sample_every=100)
        x0 = np.array([[0.3], [0.0], [0.3], [0.0]], complex)
        record_at, states = range(100, config.n_steps + 1, config.sample_every), []
        alive = _integrate(params, scales, config, x0, [(_chunk_rng(config.seed, 0), slice(0, 1))],
                           set(record_at), lambda x, _: states.append(x[:, 0].copy()))
        assert alive.all() and len(states) == len(record_at) == 10
        for k, state in zip(record_at, states):
            assert abs(state[0]) == pytest.approx(0.3 * math.exp(-k * config.dt), rel=2e-3)
        assert np.abs(np.array(states)[:, 1]).max() == 0.0

    def test_divergence_is_data(self, standard):
        params, scales, _ = at_ratio(*standard, 0.5)
        config = SimConfig(dt=1e-3, t_max=0.5, n_traj=2, burn_in=0.0,
                           divergence_bound=1e-8)
        alive = _integrate(params, scales, config, np.zeros((4, 1), complex),
                           [(_chunk_rng(config.seed, 0), slice(0, 1))], set(), None)
        assert not alive[0]

    def test_step_halving_self_convergence(self):
        params, scales = make_system(delta=3.0, chi=0.5, lam=0.05)
        _, _, eps = at_ratio(params, scales, 0.5)
        params, scales = make_system(delta=3.0, chi=0.5, lam=0.05, eps=eps)
        means = {}
        for dt in (2e-3, 1e-3):
            config = SimConfig(dt=dt, t_max=16.0, n_traj=384, burn_in=8.0,
                               seed=5, sample_every=5)
            (est,) = ensemble_moments(params, scales, config, ["n1"])
            means[dt] = est
        combined = math.hypot(means[2e-3].std_error, means[1e-3].std_error)
        assert abs(means[2e-3].mean - means[1e-3].mean) < combined


class TestDeterminism:
    def test_worker_count_invariance(self, standard):
        params, scales, eps = at_ratio(*standard, 0.4)
        from nopolock.steady import replace_pump
        params, scales = replace_pump(params, scales, eps)
        config = SimConfig(dt=2e-3, t_max=6.0, n_traj=600, burn_in=2.0,
                           seed=99, chunk_size=256)
        runs = [ensemble_moments(params, scales, config, ["n1", "a1a2"],
                                 n_workers=w) for w in (1, 2, 3)]
        for other in runs[1:]:
            for a, b in zip(runs[0], other):
                assert a.mean == b.mean
                assert a.std_error == b.std_error
                assert a.n_effective == b.n_effective

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(ratio=hst.sampled_from([0.6, 1.5]), n_traj=hst.integers(2, 40),
           chunk_size=hst.integers(1, 16), sample_every=hst.integers(1, 5),
           n_steps=hst.integers(20, 60), seed=hst.integers(0, 2**32))
    def test_worker_count_invariance_property(self, ratio, n_traj, chunk_size,
                                              sample_every, n_steps, seed):
        params, scales, _ = at_ratio(*make_system(delta=3.0, chi=0.5, lam=0.05), ratio)
        config = SimConfig(dt=2e-3, t_max=n_steps * 2e-3, n_traj=n_traj,
                           burn_in=n_steps * 1e-3, seed=seed, chunk_size=chunk_size,
                           sample_every=sample_every)
        runs = [sample_ensemble(params, scales, config, ["n1", "a1a2", "b1a2", (2, 0, 1, 1)],
                                n_workers=w, phases=True) for w in (1, 2, 3)]
        for estimates, hist in runs[1:]:
            assert estimates == runs[0][0]
            for field in dataclasses.fields(PhaseHistogram):
                np.testing.assert_array_equal(getattr(hist, field.name),
                                              getattr(runs[0][1], field.name))

    def test_rerun_identical(self, standard):
        params, scales, eps = at_ratio(*standard, 0.4)
        from nopolock.steady import replace_pump
        params, scales = replace_pump(params, scales, eps)
        config = SimConfig(dt=2e-3, t_max=6.0, n_traj=128, burn_in=2.0, seed=7)
        (a,) = ensemble_moments(params, scales, config, ["n1"])
        (b,) = ensemble_moments(params, scales, config, ["n1"])
        assert a == b

    def test_chunk_streams_differ(self):
        r0 = _chunk_rng(123, 0).standard_normal(4)
        r1 = _chunk_rng(123, 1).standard_normal(4)
        r0_again = _chunk_rng(123, 0).standard_normal(4)
        assert not np.allclose(r0, r1)
        np.testing.assert_array_equal(r0, r0_again)


def reference_step(state, alive, params, scales, config, rng):
    """One Euler step from the reference drift and noise; diverged lanes stay frozen."""
    inc = (drift_field(state, params, scales) * config.dt
           + noise_increment(state, params, scales, config.dt, rng))
    new = state + inc * alive
    alive = alive & (np.abs(new).max(axis=0) <= config.divergence_bound)
    return np.where(alive, new, state), alive


class TestEngine:
    """The fused, lane-batched step against the reference functions."""

    @pytest.mark.parametrize("ratio", [0.5, 1.5])
    def test_steps_match_reference_functions(self, ratio):
        params, scales, _ = at_ratio(*make_system(delta=3.0, chi=0.5, lam=0.05), ratio)
        rng = np.random.default_rng(12)
        # independent alpha and beta: a non-classical point of phase space
        state = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        # lane 0 sits where c = eps + lam*900 makes it grow by ~1.3 per step
        state[:, 0] = [30, -30, -30, 30]
        config = SimConfig(dt=1e-3, t_max=2e-3, n_traj=6, burn_in=0.0,
                           sample_every=1, divergence_bound=30.5)
        seen = []
        _integrate(params, scales, config, state.copy(), [(_chunk_rng(5, 0), slice(0, 6))],
                   {1, 2}, lambda st, alive: seen.append((st.copy(), alive.copy())))
        ref, ref_alive, ref_rng = state, np.ones(6, dtype=bool), _chunk_rng(5, 0)
        for got, alive in seen:
            ref, ref_alive = reference_step(ref, ref_alive, params, scales, config, ref_rng)
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)
            np.testing.assert_array_equal(alive, ref_alive)
            np.testing.assert_array_equal(alive, [False] + [True] * 5)
            np.testing.assert_array_equal(got[:, 0], state[:, 0])  # frozen, bitwise

    def test_lane_batching_bitwise_across_workers(self):
        # six chunks of 37 lanes, the last one ragged (15), not a SIMD multiple
        params, scales, _ = at_ratio(*make_system(delta=3.0, chi=0.5, lam=0.05), 0.6)
        config = SimConfig(dt=2e-3, t_max=1.0, n_traj=200, burn_in=0.5, seed=4,
                           chunk_size=37)
        runs = [ensemble_moments(params, scales, config, ["n1", "a1a2", (2, 0, 1, 1)],
                                 n_workers=w) for w in (1, 2, 3)]
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_frozen_lanes_bitwise_across_workers(self):
        # a tight bound kills trajectories at scattered times
        params, scales, _ = at_ratio(*make_system(delta=3.0, chi=0.5, lam=0.05), 0.6)
        config = SimConfig(dt=2e-3, t_max=1.0, n_traj=200, burn_in=0.2, seed=4,
                           chunk_size=37, divergence_bound=1.5)
        runs = [sample_ensemble(params, scales, config, [], n_workers=w, phases=True)[1]
                for w in (1, 2, 3)]
        assert 0 < runs[0].discard_fraction < 1
        for other in runs[1:]:
            for field in dataclasses.fields(PhaseHistogram):
                np.testing.assert_array_equal(getattr(other, field.name),
                                              getattr(runs[0], field.name))

    def test_moments_with_frozen_lanes(self):
        # a bound of 3 at the mc-below point freezes 3 of 600 lanes mid-run (0.5%)
        params, scales, _ = at_ratio(*make_system(delta=3.0, chi=0.5, lam=0.05), 0.6)
        config = SimConfig(dt=2e-3, t_max=2.0, n_traj=600, burn_in=0.5, seed=4,
                           chunk_size=100, divergence_bound=3.0)
        specs = ["n1", "a1a2", (2, 0, 1, 1)]
        runs = [ensemble_moments(params, scales, config, specs, n_workers=w) for w in (1, 2, 3)]
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert 0 < runs[0][0].discard_fraction <= montecarlo.MAX_DISCARD_FRACTION

        # by hand: per-lane time averages over the sample times after burn-in
        # (steps 260, 270, ..., 1000), then their mean over never-diverged lanes
        sample_at = set(range(260, 1001, 10))
        sums = np.zeros((len(specs), config.n_traj), dtype=complex)

        def visit(x, alive):
            for total, spec in zip(sums, map(parse_moment_spec, specs)):
                total += np.prod([x[row] ** p for row, p in enumerate(spec)], axis=0)

        streams = [(_chunk_rng(config.seed, j), slice(100 * j, 100 * (j + 1))) for j in range(6)]
        alive = _integrate(params, scales, config, np.zeros((4, config.n_traj), dtype=complex),
                           streams, sample_at, visit)
        assert alive.sum() == config.n_traj - 3
        for est, m in zip(runs[0], sums[:, alive] / len(sample_at)):
            assert est.n_effective == alive.sum()
            assert est.mean == pytest.approx(m.mean(), rel=1e-12, abs=1e-15)
            assert est.std_error == pytest.approx(
                math.sqrt(m.real.var(ddof=1) + m.imag.var(ddof=1)) / math.sqrt(alive.sum()),
                rel=1e-12)

    def test_one_pass_equals_separate_calls(self):
        params, scales, _ = at_ratio(*make_system(delta=3.0, chi=0.5, lam=0.01), 1.5)
        config = SimConfig(dt=1e-3, t_max=1.0, n_traj=96, burn_in=0.5, seed=6,
                           chunk_size=32)
        specs = ["n1", "a1a2"]
        estimates, hist = sample_ensemble(params, scales, config, specs, n_workers=2,
                                          phases=True)
        assert estimates == ensemble_moments(params, scales, config, specs, n_workers=2)
        separate = sample_ensemble(params, scales, config, [], n_workers=2, phases=True)[1]
        for field in dataclasses.fields(PhaseHistogram):
            np.testing.assert_array_equal(getattr(hist, field.name),
                                          getattr(separate, field.name))

    def test_job_width_and_noise_block_are_bounded(self, monkeypatch):
        # 25 chunks of 8 lanes in one worker: four jobs of 7, 6, 6 and 6 chunks
        params, scales, _ = at_ratio(*make_system(delta=3.0, chi=0.5, lam=0.05), 0.6)
        config = SimConfig(dt=2e-3, t_max=0.4, n_traj=200, burn_in=0.2, seed=4,
                           chunk_size=8, sample_every=50)
        expected = ensemble_moments(params, scales, config, ["n1", "a1a2"], n_workers=2)
        widths, blocks = [], []

        class RecordingStream:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, shape):
                blocks.append(shape[0])
                return self.rng.standard_normal(shape)

        def recording_integrate(params, scales, config, state, streams, *args):
            widths.append(state.shape[1])
            streams = [(RecordingStream(rng), lanes) for rng, lanes in streams]
            return _integrate(params, scales, config, state, streams, *args)

        monkeypatch.setattr(montecarlo, "_integrate", recording_integrate)
        got = ensemble_moments(params, scales, config, ["n1", "a1a2"], n_workers=1)
        assert got == expected
        assert widths == [56, 48, 48, 48]
        assert max(widths) <= montecarlo.MAX_CHUNKS_PER_JOB * config.chunk_size
        assert max(blocks) == montecarlo.NOISE_BLOCK_STEPS < config.sample_every
        # the block does not follow a shorter sampling interval either
        blocks.clear()
        config = dataclasses.replace(config, sample_every=2)
        ensemble_moments(params, scales, config, ["n1"], n_workers=1)
        assert max(blocks) == montecarlo.NOISE_BLOCK_STEPS > config.sample_every

    @pytest.mark.parametrize("methods, expected", [
        (["fork", "spawn", "forkserver"], "fork"), (["spawn", "forkserver"], "forkserver"),
        (["spawn"], "spawn")])
    def test_pool_start_method_fallback(self, monkeypatch, methods, expected):
        import multiprocessing
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
        assert montecarlo._pool_context().get_start_method() == expected

    def test_spawned_workers_bitwise_equal_one_worker(self, monkeypatch):
        # where fork is missing, workers re-import the package and unpickle their jobs
        import multiprocessing
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        used, pool_context = [], montecarlo._pool_context

        def recording_context():
            used.append(pool_context())
            return used[-1]

        monkeypatch.setattr(montecarlo, "_pool_context", recording_context)
        self.test_lane_batching_bitwise_across_workers()
        self.test_frozen_lanes_bitwise_across_workers()
        assert len(used) == 4
        assert {ctx.get_start_method() for ctx in used} == {"spawn"}

    @pytest.mark.parametrize("workers", [0, -3, 1.5])
    def test_worker_count_must_be_positive_integer(self, standard, workers):
        params, scales = standard
        config = SimConfig(dt=1e-3, t_max=0.1, n_traj=4, burn_in=0.0)
        with pytest.raises(ParameterDomainError, match="n_workers"):
            ensemble_moments(params, scales, config, ["n1"], n_workers=workers)
        with pytest.raises(ParameterDomainError, match="n_workers"):
            sample_ensemble(params, scales, config, [], n_workers=workers, phases=True)

    def test_empty_request_refused_before_integrating(self, standard, monkeypatch):
        params, scales = standard
        config = SimConfig(dt=1e-3, t_max=0.1, n_traj=4, burn_in=0.0)
        monkeypatch.setattr(montecarlo, "_integrate", None)  # integrating would fail
        for request in (sample_ensemble, ensemble_moments):
            with pytest.raises(ParameterDomainError, match="nothing to estimate"):
                request(params, scales, config, [])


class RecordingStream:
    """A chunk stream that records which thread draws, and can fail on a given call."""

    def __init__(self, rng, threads, fail_at=None):
        self.rng, self.threads, self.fail_at = rng, threads, fail_at

    def standard_normal(self, shape):
        self.threads.append(threading.current_thread())
        if len(self.threads) == self.fail_at:
            raise RuntimeError("draw failed")
        return self.rng.standard_normal(shape)


class FakePoolContext:
    """A ``_pool_context()`` stand-in whose pool maps in this process."""

    class Pool:
        def __init__(self, processes):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [fn(job) for job in jobs]


class TestDrawAhead:
    """The helper thread that draws the next noise block changes no bit."""

    # three streams (the last one ragged) at a bound that freezes lanes at
    # scattered times; 127 steps end in a partial noise block of 7
    CONFIG = SimConfig(dt=2e-3, t_max=0.254, n_traj=90, burn_in=0.0, seed=4,
                       chunk_size=37, divergence_bound=1.5)

    def run(self, draw_ahead, seen=None, fail_at=None, visit_error_at=None):
        params, scales, _ = at_ratio(*make_system(delta=3.0, chi=0.5, lam=0.05), 0.6)
        config, threads, seen = self.CONFIG, [], [] if seen is None else seen
        streams = [(RecordingStream(_chunk_rng(config.seed, j), threads, fail_at),
                    slice(37 * j, min(37 * (j + 1), 90))) for j in range(3)]

        def visit(x, alive):
            seen.append((x.copy(), alive.copy()))
            if len(seen) == visit_error_at:
                raise KeyError("visit failed")

        state = np.zeros((4, config.n_traj), dtype=complex)
        state[:, :30] = 1.2  # near the bound: 29 lanes leave it, at scattered steps
        alive = _integrate(params, scales, config, state, streams,
                           set(range(1, config.n_steps + 1, 3)) | {config.n_steps}, visit,
                           draw_ahead)
        return state, alive, seen, threads

    def assert_same_run(self):
        before = threading.active_count()
        off, on = self.run(False), self.run(True)
        assert threading.active_count() == before
        assert self.CONFIG.n_steps % montecarlo.NOISE_BLOCK_STEPS == 7
        assert 0 < on[1].sum() < self.CONFIG.n_traj  # some lanes diverged
        np.testing.assert_array_equal(on[0], off[0])
        np.testing.assert_array_equal(on[1], off[1])
        assert len(on[2]) == len(off[2]) == 43
        for (x_on, a_on), (x_off, a_off) in zip(on[2], off[2]):
            np.testing.assert_array_equal(x_on, x_off)
            np.testing.assert_array_equal(a_on, a_off)
        assert len(on[3]) == len(off[3]) == 3 * 13
        assert set(off[3]) == {threading.main_thread()}
        assert threading.main_thread() not in set(on[3]) and len(set(on[3])) == 1

    def test_bitwise_equal_to_inline(self):
        self.assert_same_run()

    def test_bitwise_equal_under_fast_thread_switching(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self.assert_same_run()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("draw_ahead", [False, True])
    def test_draw_error_reaches_caller_after_the_same_steps(self, draw_ahead):
        before, seen = threading.active_count(), []
        with pytest.raises(RuntimeError, match="draw failed"):
            self.run(draw_ahead, seen, fail_at=3 * 5 + 2)  # block 6, second stream
        assert threading.active_count() == before
        assert len(seen) == 17  # blocks 1-5 ran in full: visits at steps 1, 4, ..., 49

    @pytest.mark.parametrize("draw_ahead", [False, True])
    def test_visit_error_stops_the_helper(self, draw_ahead):
        before = threading.active_count()
        with pytest.raises(KeyError, match="visit failed"):
            self.run(draw_ahead, visit_error_at=5)
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus, n_workers, n_traj, expected", [
        (1, 1, 512, [(512, False)]), (1, 2, 512, [(256, False)] * 2),
        (2, 1, 512, [(512, True)]), (2, 2, 512, [(256, False)] * 2),
        (2, 2, 256, [(256, True)]),  # one job: the pool is not started
        (4, 1, 512, [(512, True)]), (4, 2, 512, [(256, True)] * 2),
        (4, 1, 16, [(16, False)])])  # narrower than DRAW_AHEAD_MIN_WIDTH
    def test_selection_rule(self, monkeypatch, cpus, n_workers, n_traj, expected):
        params, scales, _ = at_ratio(*make_system(delta=3.0, chi=0.5, lam=0.05), 0.6)
        config = SimConfig(dt=2e-3, t_max=0.02, n_traj=n_traj, burn_in=0.0, seed=4,
                           chunk_size=min(n_traj, 256))
        assert montecarlo.DRAW_AHEAD_MIN_WIDTH == 256
        calls = []

        def recording_integrate(params, scales, config, state, streams, visit_at, visit,
                                draw_ahead):
            calls.append((state.shape[1], draw_ahead))
            return _integrate(params, scales, config, state, streams, visit_at, visit,
                              draw_ahead)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(montecarlo, "_pool_context", FakePoolContext)
        monkeypatch.setattr(montecarlo, "_integrate", recording_integrate)
        sample_ensemble(params, scales, config, ["n1"], n_workers=n_workers)
        assert calls == expected

    def test_cpu_count_without_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert montecarlo._cpu_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert montecarlo._cpu_count() == 1

    def test_no_thread_outlives_sample_ensemble(self, monkeypatch):
        # 256 lanes with a spare CPU: the helper runs; bound 2 loses more than 1%
        params, scales, _ = at_ratio(*make_system(delta=3.0, chi=0.5, lam=0.05), 0.6)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        used, inner = [], _integrate

        def recording_integrate(*args):
            used.append(args[-1])
            return inner(*args)

        monkeypatch.setattr(montecarlo, "_integrate", recording_integrate)
        before = threading.active_count()
        config = SimConfig(dt=2e-3, t_max=1.0, burn_in=0.5, n_traj=256, chunk_size=256, seed=4)
        sample_ensemble(params, scales, config, ["n1"], phases=True)
        assert threading.active_count() == before
        with pytest.raises(EstimationError, match="discard fraction"):
            sample_ensemble(params, scales, dataclasses.replace(config, divergence_bound=2.0),
                            ["n1"])
        assert threading.active_count() == before
        assert used == [True, True]


class TestSimConfigDomain:
    @pytest.mark.parametrize("t_max", [0.0, -1.0])
    def test_horizon_must_be_positive(self, t_max):
        with pytest.raises(ParameterDomainError, match="t_max"):
            SimConfig(t_max=t_max, burn_in=0.0)

    def test_burn_in_must_be_non_negative(self):
        with pytest.raises(ParameterDomainError, match="burn_in"):
            SimConfig(t_max=-1.0, burn_in=-5.0)
        with pytest.raises(ParameterDomainError, match="burn_in"):
            SimConfig(t_max=1.0, burn_in=-0.5)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["dt", "t_max", "burn_in"])
    def test_steps_and_horizon_must_be_finite(self, field, value):
        with pytest.raises(ParameterDomainError, match=field):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("n_traj", 20.5), ("chunk_size", 4.5), ("sample_every", 2.5), ("seed", 1.5)])
    def test_counts_and_seed_must_be_integers(self, field, value):
        with pytest.raises(ParameterDomainError, match=f"{field} must be an integer"):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("n_traj", 1, "n_traj must be at least 2"),
        ("divergence_bound", 0.0, "divergence_bound must be positive"),
        ("sample_every", 0, "sample_every and chunk_size must be >= 1"),
        ("chunk_size", 0, "sample_every and chunk_size must be >= 1"),
        ("seed", -1, r"seed must be in \[0, 2\*\*64\), got -1"),
        ("seed", 2**64, r"seed must be in \[0, 2\*\*64\), got 18446744073709551616")])
    def test_settings_out_of_range_refused(self, field, value, message):
        with pytest.raises(ParameterDomainError, match=message):
            SimConfig(**{field: value})

    def test_seed_range_ends_are_accepted(self):
        # a Philox key word holds [0, 2**64): no seed outside it aliases one inside
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
            assert SimConfig(seed=seed).seed == seed

    def test_scheme_is_not_a_setting(self):
        # Euler-Ito is the only integrator: a second scheme brings its own field
        assert "scheme" not in {f.name for f in dataclasses.fields(SimConfig)}
        with pytest.raises(TypeError, match="scheme"):
            SimConfig(scheme="euler-ito")

    def test_horizon_must_be_whole_number_of_steps(self):
        with pytest.raises(ParameterDomainError, match="whole number of steps"):
            SimConfig(dt=0.3, t_max=1.0)
        # 0.3 / 0.1 is 2.9999999999999996 in floating point: still 3 steps
        assert SimConfig(dt=0.1, t_max=0.3, burn_in=0.0).n_steps == 3


def run_moments(params, scales, eps, specs, *, n_traj=320, dt=1e-3, t_max=20.0,
                burn_in=8.0, seed=11, workers=2, sample_every=10):
    from nopolock.steady import replace_pump
    p, s = replace_pump(params, scales, eps)
    config = SimConfig(dt=dt, t_max=t_max, n_traj=n_traj, burn_in=burn_in,
                       seed=seed, sample_every=sample_every)
    return ensemble_moments(p, s, config, specs, n_workers=workers)


class TestBelowThresholdConsistency:
    """Stochastic moments against the linearized analytics, weak nonlinearity."""

    RATIOS = (0.25, 0.4, 0.55, 0.7, 0.85)

    @pytest.mark.parametrize("ratio", RATIOS)
    def test_mean_photon_within_3se(self, ratio):
        params, scales = make_system(delta=3.0, chi=0.5, lam=0.05)
        eps = ratio * scales.eps_th
        (est,) = run_moments(params, scales, eps, ["n1"])
        expected = mean_photon_below(params, scales, eps)
        assert est.discard_fraction == 0.0
        assert abs(est.mean.real - expected) < 3 * est.std_error
        assert abs(est.mean.imag) < 3 * est.std_error

    def test_pair_square_and_cross_moments(self):
        params, scales = make_system(delta=3.0, chi=0.5, lam=0.05)
        eps = 0.6 * scales.eps_th
        ests = run_moments(params, scales, eps, ["a1a2", "a1sq", "b1a2"],
                           n_traj=1024, seed=3)
        expected = moments_below(params, scales, eps)
        for est, target in zip(ests, (expected.m_aa, expected.m_a1sq,
                                      expected.m_cross)):
            assert abs(est.mean.real - target.real) < 3 * est.std_error, est.label
            assert abs(est.mean.imag - target.imag) < 3 * est.std_error, est.label

    def test_odd_moments_vanish(self):
        params, scales = make_system(delta=3.0, chi=0.5, lam=0.05)
        eps = 0.6 * scales.eps_th
        for est in run_moments(params, scales, eps, ["a1", "a2", (1, 1, 1, 0)]):
            assert abs(est.mean) < 3 * est.std_error, est.label

    def test_cross_moment_needs_mixing(self):
        mixed, mixed_scales = make_system(delta=3.0, chi=0.5, lam=0.05)
        eps = 0.6 * mixed_scales.eps_th
        (est,) = run_moments(mixed, mixed_scales, eps, ["b1a2"], n_traj=1024, seed=3)
        assert abs(est.mean) > 3 * est.std_error

        plain, plain_scales = make_system(delta=3.0, chi=0.0, lam=0.05)
        (est,) = run_moments(plain, plain_scales, 0.6 * plain_scales.eps_th,
                             ["b1a2"], n_traj=1024, seed=3)
        assert abs(est.mean) < 3 * est.std_error

    def test_against_exact_master_equation(self):
        # cutoff-exact Liouvillian steady state, independent of everything
        # in the package
        params, scales = make_system(delta=3.0, chi=0.5, lam=0.1)
        eps = 0.5 * scales.eps_th
        exact = FockSteadyState(eps=eps, chi=0.5, delta=3.0, lam=0.1, n_max=10)
        assert exact.truncation_error < 1e-8
        ests = run_moments(params, scales, eps, ["n1", "a1a2"], n_traj=1024, seed=17)
        assert abs(ests[0].mean.real - exact.mean_photon) < 3 * ests[0].std_error
        pair = exact.pair_moment
        assert abs(ests[1].mean.real - pair.real) < 3 * ests[1].std_error
        assert abs(ests[1].mean.imag - pair.imag) < 3 * ests[1].std_error

    def test_divergence_rare_below_threshold(self):
        params, scales = make_system(delta=3.0, chi=0.5, lam=0.05)
        eps = 0.5 * scales.eps_th
        (est,) = run_moments(params, scales, eps, ["n1"], n_traj=1024, seed=23)
        assert est.discard_fraction < 1e-3


class TestAboveThresholdConsistency:
    def test_mean_field_dominates_photon_number(self):
        # the stochastic mean includes beyond-linear O(1/n0) shifts, so the
        # comparison against the semiclassical value is at the percent level
        params, scales = make_system(delta=3.0, chi=0.5, lam=0.01)
        eps = 1.5 * scales.eps_th
        (est,) = run_moments(params, scales, eps, ["n1"], n_traj=448,
                             dt=5e-4, t_max=18.0, burn_in=8.0, seed=31)
        n0 = steady_state(params, scales, eps, "+").n10
        assert abs(est.mean.real - n0) / n0 < 0.02
        assert abs(est.mean.imag) < 5 * est.std_error

    @pytest.mark.parametrize("ratio,seed", [(1.3, 41), (1.5, 43), (2.0, 47)])
    def test_number_pair_variances_at_locked_points(self, ratio, seed):
        # <(dn+)^2> and the negative <(dn-)^2> against the closed-form
        # covariance entries; conservative error bound sums the component
        # standard errors
        params, scales = make_system(delta=3.0, chi=0.5, lam=0.01)
        eps = ratio * scales.eps_th
        ests = run_moments(params, scales, eps,
                           ["n1", "n2", (2, 0, 2, 0), (1, 1, 1, 1), (0, 2, 0, 2)],
                           n_traj=768, dt=5e-4, t_max=24.0, burn_in=10.0, seed=seed)
        n1, n2, n1sq, n1n2, n2sq = (e.mean for e in ests)
        se_sq = ests[2].std_error + 2 * ests[3].std_error + ests[4].std_error
        mats = above_matrices(params, scales, eps)

        var_plus = (n1sq + 2 * n1n2 + n2sq) - (n1 + n2) ** 2
        se_plus = se_sq + 2 * abs(n1 + n2) * (ests[0].std_error + ests[1].std_error)
        assert abs(var_plus.real - mats.C_plus[0, 0]) < 3 * se_plus

        var_minus = (n1sq - 2 * n1n2 + n2sq) - (n2 - n1) ** 2
        se_minus = se_sq + 2 * abs(n2 - n1) * (ests[0].std_error + ests[1].std_error)
        assert mats.C_minus[0, 0] < 0  # anti-correlation beyond shot noise
        assert abs(var_minus.real - mats.C_minus[0, 0]) < 3 * se_minus

    def test_pump_depletion_clamp(self):
        params, scales = make_system(delta=3.0, chi=0.5, lam=0.01)
        _, _, eps = at_ratio(params, scales, 10.0)
        state = steady_state(params, scales, eps, "+").state_vector()
        from nopolock.steady import replace_pump
        p, s = replace_pump(params, scales, eps)
        k_alpha3 = p.k * adiabatic_pump(state, p, s)
        assert abs(k_alpha3) < 0.15 * eps
        assert abs(k_alpha3) == pytest.approx(scales.eps_th, rel=0.01)


class TestAdiabaticPump:
    def test_no_signal(self):
        params, scales = make_system(eps=1.0, lam=1.0)
        value = adiabatic_pump(np.zeros(4, complex), params, scales)
        assert value == pytest.approx(params.E / params.gamma3)

    def test_no_drive(self):
        params, scales = make_system(eps=0.0, lam=1.0)
        state = np.array([0.3 + 0.1j, 0.2, 0.0, 0.0], complex)
        value = adiabatic_pump(state, params, scales)
        assert value == pytest.approx(-params.k * state[0] * state[1] / params.gamma3)


class TestPhaseHistogram:
    @pytest.mark.parametrize("delta", [3.0, -3.0])
    def test_locking_above_threshold(self, delta):
        params, scales = make_system(delta=delta, chi=0.5, lam=0.01)
        _, _, eps = at_ratio(params, scales, 1.5)
        from nopolock.steady import replace_pump
        p, s = replace_pump(params, scales, eps)
        config = SimConfig(dt=1e-3, t_max=18.0, n_traj=256, burn_in=10.0, seed=13)
        hist = sample_ensemble(p, s, config, [], n_workers=2, phases=True)[1]
        assert hist.note == ""
        assert hist.locked_fraction() > 0.9

    def test_two_fold_symmetry_of_locked_phases(self):
        # trajectories split between the pi-shifted twins: the absolute
        # mode-1 phase populates two clusters exactly pi apart while the
        # (twin-invariant) phase sum concentrates at one value
        params, scales = make_system(delta=3.0, chi=0.5, lam=0.01)
        _, _, eps = at_ratio(params, scales, 1.5)
        from nopolock.steady import replace_pump
        p, s = replace_pump(params, scales, eps)
        config = SimConfig(dt=1e-3, t_max=30.0, n_traj=256, burn_in=10.0, seed=29)
        hist = sample_ensemble(p, s, config, [], n_workers=2, phases=True)[1]
        centers = 0.5 * (hist.edges[:-1] + hist.edges[1:])
        locked = steady_state(p, s, eps, "+")
        width = 0.45

        def mass_near(counts, x):
            d = np.angle(np.exp(1j * (centers - x)))
            return counts[np.abs(d) < width].sum() / counts.sum()

        assert mass_near(hist.counts_sum, locked.phase_sum) > 0.9
        m_rep = mass_near(hist.counts_mode1, locked.phi10)
        m_twin = mass_near(hist.counts_mode1, locked.phi10 + math.pi)
        assert m_rep + m_twin > 0.9
        assert m_rep > 0.1 and m_twin > 0.1

    def test_locked_fraction_is_the_locked_share(self):
        empty = np.zeros(181, dtype=np.int64)
        hist = PhaseHistogram(edges=montecarlo._PHASE_EDGES, counts_diff=empty,
                              counts_sum=empty, counts_mode1=empty, n_samples=8, n_locked=6,
                              discard_fraction=0.0)
        assert hist.locked_fraction() == 0.75
        assert math.isnan(dataclasses.replace(hist, n_samples=0, n_locked=0).locked_fraction())

    def test_below_threshold_note(self, standard):
        params, scales, eps = at_ratio(*standard, 0.5)
        from nopolock.steady import replace_pump
        p, s = replace_pump(params, scales, eps)
        config = SimConfig(dt=1e-3, t_max=3.0, n_traj=64, burn_in=1.0, seed=2)
        hist = sample_ensemble(p, s, config, [], phases=True)[1]
        assert "undefined" in hist.note
        assert hist.n_samples > 0


class TestEstimationFailure:
    def test_all_diverged(self, standard):
        params, scales, eps = at_ratio(*standard, 0.5)
        from nopolock.steady import replace_pump
        p, s = replace_pump(params, scales, eps)
        config = SimConfig(dt=1e-3, t_max=2.0, n_traj=16, burn_in=0.5,
                           divergence_bound=1e-9)
        with pytest.raises(EstimationError):
            ensemble_moments(p, s, config, ["n1"])

    def test_no_samples(self, standard):
        params, scales = standard
        config = SimConfig(dt=1e-3, t_max=1.0, n_traj=4, burn_in=5.0)
        with pytest.raises(EstimationError, match="sample"):
            ensemble_moments(params, scales, config, ["n1"])

    def test_discard_over_limit_aborts_moments_only(self):
        # 30 of the 200 trajectories leave this bound: 15% discarded
        params, scales, _ = at_ratio(*make_system(delta=3.0, chi=0.5, lam=0.05), 0.6)
        config = SimConfig(dt=2e-3, t_max=1.0, burn_in=0.5, n_traj=200, chunk_size=100,
                           seed=4, divergence_bound=2.0)
        with pytest.raises(EstimationError, match=r"discard fraction 0\.1500 exceeds"):
            sample_ensemble(params, scales, config, ["n1"])
        # phase histograms alone have no discard limit
        _, hist = sample_ensemble(params, scales, config, [], phases=True)
        assert hist.discard_fraction == pytest.approx(0.15)


class TestSpecs:
    def test_aliases_and_labels(self):
        assert parse_moment_spec("n1") == (1, 0, 1, 0)
        assert parse_moment_spec((0, 1, 1, 0)) == (0, 1, 1, 0)
        assert parse_moment_spec((2.0, 0, 1, np.int64(1))) == (2, 0, 1, 1)  # integer values
        assert moment_label((1, 0, 1, 0)) == "a1*b1"
        assert moment_label((2, 0, 0, 1)) == "a1^2*b2"
        with pytest.raises(Exception):
            parse_moment_spec("bogus")
        with pytest.raises(ParameterDomainError):
            parse_moment_spec("b1a1")  # duplicate of n1, removed

    @pytest.mark.parametrize("spec", [(1.5, 0, 0.9, 0), (1, 0, 0, 0.5), (math.nan, 0, 0, 0),
                                      (math.inf, 0, 0, 0), ("1", 0, 0, 0), np.array([0.5] * 4)])
    def test_non_integer_exponents_refused(self, spec):
        with pytest.raises(ParameterDomainError, match="integer"):
            parse_moment_spec(spec)
