"""Equivalence and unit tests for the fused training fast path.

The contract under test (see :mod:`repro.engine.fused`): training with
``engine="fused"`` must produce **bit-identical** learned state — conductances,
adaptive thresholds and per-image spike counts — to the reference step loop
under identical :class:`~repro.engine.rng.RngStreams` seeds, across storage
formats, rounding modes, learning rules, encoders and synapse models.  Both
paths compute the eq.-3 drive with :func:`~repro.encoding.events.gather_drive`,
whose summation order is pinned here too.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.storage as storage_module
from repro.config.parameters import RoundingMode, STDPKind
from repro.config.presets import get_preset
from repro.datasets import load_dataset
from repro.encoding.events import gather_drive
from repro.encoding.periodic import PeriodicEncoder
from repro.encoding.poisson import PoissonEncoder
from repro.engine.event_train import EventPresentation
from repro.engine.fused import FusedPresentation
from repro.engine.registry import create_training_engine
from repro.errors import SimulationError
from repro.network.wta import WTANetwork
from repro.pipeline.trainer import UnsupervisedTrainer
from repro.quantization.qformat import parse_qformat
from repro.quantization.quantizer import Quantizer
from repro.synapses.conductance import ConductanceMatrix


def _train(config, images, engine):
    net = WTANetwork(config, n_pixels=images[0].size)
    log = UnsupervisedTrainer(net).train(images, engine=engine)
    return net, log


def _assert_bit_identical(config, images):
    net_ref, log_ref = _train(config, images, engine="reference")
    net_fus, log_fus = _train(config, images, engine="fused")
    assert np.array_equal(net_ref.conductances, net_fus.conductances)
    assert np.array_equal(net_ref.neurons.theta, net_fus.neurons.theta)
    assert log_ref.spikes_per_image == log_fus.spikes_per_image
    assert log_ref.total_steps == log_fus.total_steps
    # The presentations must have produced activity for the comparison to
    # mean anything.
    assert sum(log_ref.spikes_per_image) > 0


class TestBitIdentity:
    def test_float32_stochastic(self, tiny_config, small_images):
        _assert_bit_identical(tiny_config, small_images)

    def test_q17_stochastic_rounding(self, tiny_config, small_images):
        """Q1.7 + stochastic rounding exercises the full-matrix rule fallback."""
        cfg = get_preset("8bit", n_neurons=8, seed=0)
        cfg = replace(cfg, simulation=tiny_config.simulation)
        _assert_bit_identical(cfg, small_images)

    def test_q17_nearest_rounding(self, tiny_config, small_images):
        """Q1.7 + nearest rounding exercises the column-restricted rule path."""
        cfg = get_preset("8bit", rounding=RoundingMode.NEAREST, n_neurons=8, seed=0)
        cfg = replace(cfg, simulation=tiny_config.simulation)
        _assert_bit_identical(cfg, small_images)

    def test_deterministic_stdp(self, tiny_config, small_images):
        cfg = get_preset("float32", stdp_kind=STDPKind.DETERMINISTIC, n_neurons=8, seed=0)
        cfg = replace(cfg, simulation=tiny_config.simulation)
        _assert_bit_identical(cfg, small_images)

    def test_periodic_encoder(self, tiny_config, small_images):
        cfg = replace(tiny_config, encoding=replace(tiny_config.encoding, kind="periodic"))
        _assert_bit_identical(cfg, small_images)

    def test_conductance_synapse_model(self, tiny_config, small_images):
        cfg = replace(tiny_config, wta=replace(tiny_config.wta, synapse_model="conductance"))
        _assert_bit_identical(cfg, small_images)

    def test_reference_and_fused_interleave(self, tiny_config, small_images):
        """The kernel mutates live network state, so paths can alternate."""
        net_ref, _ = _train(tiny_config, small_images, engine="reference")

        net_mix = WTANetwork(tiny_config, n_pixels=small_images[0].size)
        trainer = UnsupervisedTrainer(net_mix)
        # rest() wipes timers and fast state between images, and the tiny
        # config's times are exact integers, so per-image calls with
        # alternating paths reproduce the single reference run exactly.
        for i, image in enumerate(small_images):
            trainer.train(image[None], engine="fused" if i % 2 else "reference")
        assert np.array_equal(net_ref.conductances, net_mix.conductances)
        assert np.array_equal(net_ref.neurons.theta, net_mix.neurons.theta)


def _ordered_loop_drive(g, rows, amplitude):
    """Eq. 3 spelled out: ascending rows, left-to-right float64 sum, one multiply."""
    acc = 0.0
    for r in sorted(rows):
        acc = acc + g[r]
    return acc * amplitude * np.ones(g.shape[1])


class TestDriveOrder:
    """The drive is an ordered row gather, independent of BLAS."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_explicit_ordered_loop(self, data):
        n_pre = data.draw(st.integers(1, 80), label="n_pre")
        n_post = data.draw(st.integers(1, 12), label="n_post")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        # Magnitudes spread over many binades make the rounding of a sum
        # depend on its order, so a reordered accumulation would show.
        g = rng.random((n_pre, n_post)) * 2.0 ** rng.integers(-40, 40, (n_pre, n_post))
        rows = np.array(
            sorted(data.draw(
                st.lists(st.integers(0, n_pre - 1), unique=True, max_size=min(60, n_pre)),
                label="rows",
            )),
            dtype=np.intp,
        )
        amplitude = data.draw(st.floats(0.0, 100.0), label="amplitude")
        out = np.empty(n_post)
        got = gather_drive(g, rows, amplitude, out)
        assert got is out
        expected = _ordered_loop_drive(g, rows, amplitude)
        assert got.tobytes() == expected.tobytes()
        assert gather_drive(g, rows, amplitude).tobytes() == expected.tobytes()

    def test_empty_and_single_row(self):
        g = np.random.default_rng(0).random((5, 3))
        assert gather_drive(g, np.array([], dtype=np.intp), 2.5).tobytes() == (
            np.zeros(3).tobytes()
        )
        assert gather_drive(g, np.array([3]), 2.5).tobytes() == (g[3] * 2.5).tobytes()

    @pytest.mark.parametrize("n_post", [1, 2])
    def test_order_is_ascending_not_pairwise(self, n_post):
        """``1 + 2^-53`` rounds back to 1 on every add of the ascending sum;
        a pairwise or reversed reduction would first add the tiny rows to
        each other and end above 1.  The single-column case is the one
        numpy's own ``sum`` would reduce pairwise."""
        column = np.array([1.0] + [2.0**-53] * 8)
        g = np.repeat(column[:, None], n_post, axis=1)
        rows = np.arange(9)
        assert np.all(gather_drive(g, rows, 1.0) == 1.0)
        assert column[::-1].cumsum()[-1] > 1.0 and column.sum() > 1.0


def _presentation_state(net):
    return {
        "v": net.neurons.v.copy(),
        "current": net._current.copy(),
        "theta": net.neurons.theta.copy(),
        "g": net.conductances.copy(),
    }


class TestPaperWidthBitIdentity:
    """784 inputs at the high-frequency rates: most event steps gather
    several rows, the regime where summation order decides the last bits."""

    def test_fused_matches_reference_per_presentation(self, monkeypatch):
        cfg = get_preset("high_frequency", n_neurons=40, seed=3)
        images = load_dataset("mnist", n_train=3, n_test=1, size=28, seed=5).train_images
        widths = []

        def recording(g, rows, amplitude, out=None):
            widths.append(rows.size)
            return gather_drive(g, rows, amplitude, out)

        monkeypatch.setattr(storage_module, "gather_drive", recording)
        nets = {}
        kernels = {}
        for name in ("reference", "fused"):
            nets[name] = WTANetwork(cfg, n_pixels=images[0].size)
            kernels[name] = create_training_engine(name, nets[name])
        dt = cfg.simulation.dt_ms
        n_steps = int(round(cfg.simulation.t_learn_ms / dt))
        clocks = {"reference": 0.0, "fused": 0.0}
        total = 0
        for image in images:
            counts = {}
            for name in ("reference", "fused"):
                counts[name] = np.zeros(cfg.wta.n_neurons, dtype=np.int64)
                _, clocks[name] = kernels[name].run(
                    image, clocks[name], n_steps, dt, out_counts=counts[name]
                )
            state_ref = _presentation_state(nets["reference"])
            state_fus = _presentation_state(nets["fused"])
            for key, value in state_ref.items():
                assert value.tobytes() == state_fus[key].tobytes(), key
            assert np.array_equal(counts["reference"], counts["fused"])
            total += int(counts["fused"].sum())
            for net in nets.values():
                net.rest()
        assert total > 0
        assert max(widths) >= 8, "no multi-row gathers: the test would be vacuous"
        assert np.mean(np.array(widths) > 1) > 0.5

    def test_event_injects_the_fused_drive(self, monkeypatch):
        """Frozen conductances make the drive a function of the step's rows
        alone, so both kernels must gather the same rows to the same bits
        at every input-event step."""
        cfg = get_preset("high_frequency", n_neurons=40, seed=3)
        image = load_dataset("mnist", n_train=1, n_test=1, size=28, seed=5).train_images[0]
        drives = {}
        for kernel_cls in (FusedPresentation, EventPresentation):
            record = drives.setdefault(kernel_cls.__name__, [])

            def recording(g, rows, amplitude, out=None, record=record):
                result = gather_drive(g, rows, amplitude, out)
                record.append((np.asarray(rows).tobytes(), result.tobytes()))
                return result

            monkeypatch.setattr(storage_module, "gather_drive", recording)
            net = WTANetwork(cfg, n_pixels=image.size)
            net.freeze()
            kernel_cls(net).run(image, 0.0, 100, cfg.simulation.dt_ms)
        assert len(drives["FusedPresentation"]) > 10
        assert drives["EventPresentation"] == drives["FusedPresentation"]


class TestStatisticalEquivalence:
    def test_aggregate_activity_across_seeds(self, tiny_config, tiny_dataset):
        """Different seeds (hence different draw orders) stay in one ballpark."""
        images = tiny_dataset.train_images[:10]
        totals = []
        for seed, engine in ((3, "reference"), (4, "fused"), (5, "fused")):
            cfg = replace(tiny_config, simulation=replace(tiny_config.simulation, seed=seed))
            _, log = _train(cfg, images, engine)
            totals.append(sum(log.spikes_per_image))
        assert min(totals) > 0
        assert max(totals) <= 2.0 * min(totals)


class TestGenerateTrain:
    def test_poisson_matches_sequential_steps(self):
        params = get_preset("float32").encoding
        image = np.linspace(0.0, 1.0, 64).reshape(8, 8)

        enc_a = PoissonEncoder(64, params)
        enc_a.set_image(image)
        rng_a = np.random.default_rng(99)
        seq = np.stack([enc_a.step(1.0, rng_a) for _ in range(40)])

        enc_b = PoissonEncoder(64, params)
        enc_b.set_image(image)
        rng_b = np.random.default_rng(99)
        vec = enc_b.generate_train(40, 1.0, rng_b)

        assert np.array_equal(seq, vec)
        # The stream must be left in the same state.
        assert rng_a.random() == rng_b.random()

    def test_periodic_matches_sequential_steps(self):
        params = get_preset("float32").encoding
        image = np.linspace(0.0, 1.0, 64).reshape(8, 8)

        enc_a = PeriodicEncoder(64, params)
        enc_a.set_image(image, np.random.default_rng(5))
        seq = np.stack([enc_a.step(1.0) for _ in range(40)])

        enc_b = PeriodicEncoder(64, params)
        enc_b.set_image(image, np.random.default_rng(5))
        vec = enc_b.generate_train(40, 1.0)

        assert np.array_equal(seq, vec)
        # Phase state must match so step() and generate_train() interleave.
        assert np.array_equal(enc_a._phase, enc_b._phase)
        assert np.array_equal(enc_a.step(1.0), enc_b.step(1.0))

    def test_no_image_yields_silence(self):
        params = get_preset("float32").encoding
        enc = PoissonEncoder(16, params)
        train = enc.generate_train(10, 1.0, np.random.default_rng(0))
        assert train.shape == (10, 16)
        assert not train.any()

    def test_invalid_arguments_rejected(self):
        params = get_preset("float32").encoding
        for enc in (PoissonEncoder(4, params), PeriodicEncoder(4, params)):
            with pytest.raises(SimulationError):
                enc.generate_train(-1, 1.0, np.random.default_rng(0))
            with pytest.raises(SimulationError):
                enc.generate_train(5, 0.0, np.random.default_rng(0))


class TestConductanceDeltaPaths:
    @pytest.mark.parametrize("quantizer", [None, Quantizer(parse_qformat("Q1.7"), RoundingMode.NEAREST)])
    def test_apply_delta_preserves_buffer_identity(self, quantizer):
        mat = ConductanceMatrix(12, 6, quantizer=quantizer, rng=np.random.default_rng(1))
        buffer = mat.g
        delta = np.random.default_rng(2).normal(0.0, 0.05, size=(12, 6))
        mat.apply_delta(delta)
        assert mat.g is buffer  # in-place update, views stay live

    @pytest.mark.parametrize("quantizer", [None, Quantizer(parse_qformat("Q1.7"), RoundingMode.NEAREST)])
    def test_apply_delta_columns_matches_full_matrix(self, quantizer):
        rng_delta = np.random.default_rng(3)
        mat_full = ConductanceMatrix(12, 6, quantizer=quantizer, rng=np.random.default_rng(1))
        mat_cols = ConductanceMatrix(12, 6, quantizer=quantizer, rng=np.random.default_rng(1))
        cols = np.array([1, 4])
        delta_cols = rng_delta.normal(0.0, 0.05, size=(12, cols.size))

        delta = np.zeros((12, 6))
        delta[:, cols] = delta_cols
        mat_full.apply_delta(delta)
        mat_cols.apply_delta_columns(cols, delta_cols)
        assert np.array_equal(mat_full.g, mat_cols.g)

    def test_apply_delta_columns_respects_connectivity_mask(self):
        mask = np.random.default_rng(0).random((12, 6)) < 0.5
        mat = ConductanceMatrix(
            12, 6, rng=np.random.default_rng(1), connectivity=mask
        )
        mat.apply_delta_columns(np.array([0, 3]), np.full((12, 2), 0.2))
        assert (mat.g[~mask] == 0.0).all()


class TestKernelGuards:
    def test_runs_on_guard_backend_bit_identically(self, tiny_config, small_images):
        """The kernel is backend-generic now: the guard backend (device
        semantics, mixing enforced) must reproduce the numpy backend's
        trajectory bit for bit with zero discipline violations."""
        import repro.backend as backend
        from repro.backend import guard

        host_net = WTANetwork(tiny_config, n_pixels=64)
        host_kernel = FusedPresentation(host_net)
        t = 0.0
        for image in small_images[:2]:
            _, t = host_kernel.run(image, t, 40, 1.0)

        dev_net = WTANetwork(tiny_config, n_pixels=64)
        guard.reset_counters()
        try:
            backend.set_backend("guard")
            dev_kernel = FusedPresentation(dev_net)
            t = 0.0
            for image in small_images[:2]:
                _, t = dev_kernel.run(image, t, 40, 1.0)
        finally:
            backend.set_backend(None)
        assert guard.transfer_stats().violations == 0
        assert np.array_equal(host_net.synapses.g, dev_net.synapses.g)
        assert np.array_equal(host_net.neurons.theta, dev_net.neurons.theta)
        assert np.array_equal(host_net.neurons.v, dev_net.neurons.v)

    def test_rejects_negative_steps(self, tiny_config, small_images):
        net = WTANetwork(tiny_config, n_pixels=64)
        kernel = FusedPresentation(net)
        with pytest.raises(SimulationError):
            kernel.run(small_images[0], 0.0, -1, 1.0)
