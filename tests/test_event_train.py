"""Equivalence and unit tests for the event-accelerated training engine.

The contract under test (see :mod:`repro.engine.event_train`):
**spike-trajectory equivalence** — training with ``engine="event"`` must
produce the same per-image spike counts as the reference loop and the
fused kernel under identical :class:`~repro.engine.rng.RngStreams` seeds,
with conductances within :data:`CONDUCTANCE_ATOL`, across storage formats,
rounding modes, learning rules, LTD modes, encoders, synapse models and
adaptive-threshold settings.  (Bit-identity of membranes is explicitly
*not* promised — the closed-form jumps rearrange floating point — which is
why the assertions below compare spikes exactly but conductances and
thetas within tolerance.)
"""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.config.parameters import RoundingMode, STDPKind
from repro.config.presets import get_preset
from repro.encoding.events import sparsify
from repro.engine.event_train import EventPresentation
from repro.engine.registry import CONDUCTANCE_ATOL
from repro.errors import ConfigurationError, SimulationError
from repro.learning.stochastic import LTDMode
from repro.network.wta import WTANetwork
from repro.pipeline.trainer import UnsupervisedTrainer


def _train(config, images, engine, **net_kwargs):
    net = WTANetwork(config, n_pixels=images[0].size, **net_kwargs)
    log = UnsupervisedTrainer(net).train(images, engine=engine)
    return net, log


def _assert_spike_equivalent(config, images, **net_kwargs):
    net_ref, log_ref = _train(config, images, engine="reference", **net_kwargs)
    net_evt, log_evt = _train(config, images, engine="event", **net_kwargs)
    assert log_ref.spikes_per_image == log_evt.spikes_per_image
    assert log_ref.total_steps == log_evt.total_steps
    g_dev = np.max(np.abs(net_ref.conductances - net_evt.conductances))
    assert g_dev <= CONDUCTANCE_ATOL
    np.testing.assert_allclose(
        net_ref.neurons.theta, net_evt.neurons.theta, rtol=1e-9, atol=1e-9
    )
    # Exported timer state must match what per-step decrements left behind
    # (exact on the integer ms grid these configs use).
    np.testing.assert_allclose(
        net_ref.neurons._refractory_left, net_evt.neurons._refractory_left, atol=1e-9
    )
    np.testing.assert_allclose(
        net_ref.neurons._inhibited_left, net_evt.neurons._inhibited_left, atol=1e-9
    )
    # The comparison must mean something.
    assert sum(log_ref.spikes_per_image) > 0


class TestSpikeTrajectoryEquivalence:
    def test_float32_stochastic(self, tiny_config, small_images):
        _assert_spike_equivalent(tiny_config, small_images)

    def test_q17_stochastic_rounding(self, tiny_config, small_images):
        """Q1.7 + stochastic rounding exercises the full-matrix rule fallback."""
        cfg = get_preset("8bit", n_neurons=8, seed=0)
        cfg = replace(cfg, simulation=tiny_config.simulation)
        _assert_spike_equivalent(cfg, small_images)

    def test_q17_nearest_rounding(self, tiny_config, small_images):
        """Q1.7 + nearest rounding exercises the column-restricted rule path."""
        cfg = get_preset("8bit", rounding=RoundingMode.NEAREST, n_neurons=8, seed=0)
        cfg = replace(cfg, simulation=tiny_config.simulation)
        _assert_spike_equivalent(cfg, small_images)

    def test_deterministic_stdp(self, tiny_config, small_images):
        cfg = get_preset("float32", stdp_kind=STDPKind.DETERMINISTIC, n_neurons=8, seed=0)
        cfg = replace(cfg, simulation=tiny_config.simulation)
        _assert_spike_equivalent(cfg, small_images)

    @pytest.mark.parametrize("ltd_mode", [LTDMode.PAIR, LTDMode.BOTH])
    def test_pair_ltd_modes(self, tiny_config, small_images, ltd_mode):
        """PAIR/BOTH consume learning RNG at pre-event steps — the engine
        must invoke the fallback rule at every input event, not just at
        output spikes."""
        _assert_spike_equivalent(tiny_config, small_images, ltd_mode=ltd_mode)

    def test_fast_adaptive_threshold(self, tiny_config, small_images):
        """A strongly adaptive threshold (fast decay, large increment)
        stresses the predictor's theta-floor bound."""
        cfg = replace(
            tiny_config,
            wta=replace(
                tiny_config.wta,
                adaptive_threshold=replace(
                    tiny_config.wta.adaptive_threshold, theta_plus=0.5, tau_ms=50.0
                ),
            ),
        )
        _assert_spike_equivalent(cfg, small_images)

    def test_high_frequency_preset(self, tiny_config, small_images):
        """The Table I high-frequency row — the acceptance workload's rates."""
        cfg = get_preset("high_frequency", n_neurons=8, seed=0)
        cfg = replace(cfg, simulation=replace(cfg.simulation, t_learn_ms=50.0, t_rest_ms=5.0))
        _assert_spike_equivalent(cfg, small_images)

    def test_periodic_encoder(self, tiny_config, small_images):
        cfg = replace(tiny_config, encoding=replace(tiny_config.encoding, kind="periodic"))
        _assert_spike_equivalent(cfg, small_images)

    def test_conductance_synapse_model(self, tiny_config, small_images):
        cfg = replace(tiny_config, wta=replace(tiny_config.wta, synapse_model="conductance"))
        _assert_spike_equivalent(cfg, small_images)

    def test_hard_inhibition(self, tiny_config, small_images):
        cfg = replace(tiny_config, wta=replace(tiny_config.wta, inhibition_strength=0.0))
        _assert_spike_equivalent(cfg, small_images)

    def test_matches_fused_exactly_in_practice(self, tiny_config, small_images):
        """Weight updates read timers and the learning stream, never the
        analytically-advanced membranes, so when the spike trains match the
        conductances come out *exactly* equal (the tolerance is headroom,
        not slack that is actually consumed)."""
        net_fus, log_fus = _train(tiny_config, small_images, engine="fused")
        net_evt, log_evt = _train(tiny_config, small_images, engine="event")
        assert log_fus.spikes_per_image == log_evt.spikes_per_image
        assert np.array_equal(net_fus.conductances, net_evt.conductances)


class TestJumping:
    def test_sparse_input_gets_jumped(self, tiny_config, tiny_dataset):
        """With a zero-rate background most steps are input-quiescent and
        the engine must absorb a substantial share of them analytically."""
        cfg = replace(
            tiny_config, encoding=replace(tiny_config.encoding, f_min_hz=0.0, f_max_hz=10.0)
        )
        images = tiny_dataset.train_images[:6]
        net, log = _train(cfg, images, engine="event")
        assert log.steps_skipped > 0
        assert log.steps_skipped >= 0.2 * log.total_steps
        # ...and still be equivalent while doing so.
        net_ref, log_ref = _train(cfg, images, engine="reference")
        assert log_ref.spikes_per_image == log.spikes_per_image
        assert np.max(np.abs(net_ref.conductances - net.conductances)) <= CONDUCTANCE_ATOL

    def test_silent_presentation_is_one_jump(self, tiny_config):
        """An all-black image emits no events at f_min=0: the whole
        presentation collapses into jumps, no explicit steps at all."""
        cfg = replace(
            tiny_config, encoding=replace(tiny_config.encoding, f_min_hz=0.0, f_max_hz=10.0)
        )
        net = WTANetwork(cfg, n_pixels=64)
        kernel = EventPresentation(net)
        spikes, t_end = kernel.run(np.zeros((8, 8)), 0.0, 50, 1.0)
        assert spikes == 0
        assert t_end == 50.0
        assert kernel.stats.steps_skipped == 50
        assert kernel.stats.steps_stepped == 0

    def test_stats_accumulate_across_runs(self, tiny_config, small_images):
        net = WTANetwork(tiny_config, n_pixels=small_images[0].size)
        kernel = EventPresentation(net)
        kernel.run(small_images[0], 0.0, 50, 1.0)
        first_total = kernel.stats.steps_total
        kernel.run(small_images[1], 55.0, 50, 1.0)
        assert kernel.stats.steps_total == first_total + 50
        assert (
            kernel.stats.steps_skipped + kernel.stats.steps_stepped
            == kernel.stats.steps_total
        )
        assert 0.0 < kernel.stats.raster_cell_occupancy < 1.0


class TestTrainingLogCounters:
    def test_event_engine_populates_counters(self, tiny_config, small_images):
        _, log = _train(tiny_config, small_images, engine="event")
        assert log.raster_cells == log.total_steps * small_images[0].size
        assert 0 < log.raster_active_cells < log.raster_cells
        assert 0.0 < log.raster_occupancy < 1.0
        assert 0.0 <= log.skipped_fraction <= 1.0

    @pytest.mark.parametrize("engine", ["reference", "fused"])
    def test_dense_engines_report_zero(self, tiny_config, small_images, engine):
        _, log = _train(tiny_config, small_images, engine=engine)
        assert log.steps_skipped == 0
        assert log.raster_cells == 0
        assert log.raster_occupancy == 0.0
        assert log.skipped_fraction == 0.0

    def test_unknown_engine_rejected(self, tiny_config, small_images):
        net = WTANetwork(tiny_config, n_pixels=small_images[0].size)
        with pytest.raises(ConfigurationError):
            UnsupervisedTrainer(net).train(small_images, engine="warp")



class TestSparsify:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        raster = rng.random((40, 16)) < 0.1
        sparse = sparsify(raster)
        rebuilt = np.zeros_like(raster)
        for j in range(40):
            rebuilt[j, sparse.rows(j)] = True
        assert np.array_equal(raster, rebuilt)
        assert sparse.n_events == int(raster.sum())
        assert sparse.cell_occupancy == pytest.approx(raster.mean())
        assert sparse.step_occupancy == pytest.approx(raster.any(axis=1).mean())
        assert np.array_equal(sparse.event_steps, np.flatnonzero(raster.any(axis=1)))

    def test_host_raster_loads_no_extra_modules(self):
        """Every sequential kernel sparsifies each presentation, so a host
        raster must not pull in the guard backend or ``numpy.ma`` (which
        ``np.unique`` imports): both stay resident and raise peak RSS."""
        import subprocess
        import sys

        probe = (
            "import sys, numpy as np\n"
            "from repro.encoding.events import sparsify\n"
            "sparsify(np.eye(4, dtype=bool))\n"
            "print([m for m in ('repro.backend.guard', 'numpy.ma') if m in sys.modules])\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            timeout=60,
        )
        assert out.stdout.strip() == "[]"

    def test_empty_raster(self):
        sparse = sparsify(np.zeros((10, 4), dtype=bool))
        assert sparse.n_events == 0
        assert sparse.step_occupancy == 0.0
        assert sparse.event_steps.size == 0

    def test_rejects_bad_shape(self):
        with pytest.raises(SimulationError):
            sparsify(np.zeros(10, dtype=bool))


class TestKernelGuards:
    def test_runs_on_guard_backend_bit_identically(self, tiny_config, small_images):
        """The event kernel is backend-generic: the guard backend must
        reproduce the numpy trajectory bit for bit, with zero device-
        discipline violations."""
        import repro.backend as backend
        from repro.backend import guard

        host_net = WTANetwork(tiny_config, n_pixels=64)
        host_kernel = EventPresentation(host_net)
        t = 0.0
        for image in small_images[:2]:
            _, t = host_kernel.run(image, t, 40, 1.0)

        dev_net = WTANetwork(tiny_config, n_pixels=64)
        guard.reset_counters()
        try:
            backend.set_backend("guard")
            dev_kernel = EventPresentation(dev_net)
            t = 0.0
            for image in small_images[:2]:
                _, t = dev_kernel.run(image, t, 40, 1.0)
        finally:
            backend.set_backend(None)
        assert guard.transfer_stats().violations == 0
        assert np.array_equal(host_net.synapses.g, dev_net.synapses.g)
        assert np.array_equal(host_net.neurons.theta, dev_net.neurons.theta)
        assert np.array_equal(host_net.neurons.v, dev_net.neurons.v)
        assert np.array_equal(
            host_net.neurons._inhibited_left, dev_net.neurons._inhibited_left
        )

    def test_rejects_non_leaky_membrane(self, tiny_config):
        # ExperimentConfig validation already forbids b >= 0, so smuggle the
        # value past it to prove the kernel's own defence-in-depth guard.
        net = WTANetwork(copy.deepcopy(tiny_config), n_pixels=64)
        object.__setattr__(net.config.lif, "b", 0.0)
        with pytest.raises(ConfigurationError):
            EventPresentation(net)

    def test_rejects_negative_steps(self, tiny_config, small_images):
        net = WTANetwork(tiny_config, n_pixels=64)
        kernel = EventPresentation(net)
        with pytest.raises(SimulationError):
            kernel.run(small_images[0], 0.0, -1, 1.0)

    def test_rejects_unstable_step(self, tiny_config, small_images):
        net = WTANetwork(tiny_config, n_pixels=64)
        kernel = EventPresentation(net)
        unstable_dt = 2.0 / abs(tiny_config.lif.b) + 1.0
        with pytest.raises(SimulationError):
            kernel.run(small_images[0], 0.0, 10, unstable_dt)
