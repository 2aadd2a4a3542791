"""The integer-native ``qfused`` training tier and its equivalence contract.

The tiers pinned here (mirrored by the ``bench_training --check`` gate):

- **truncate/nearest rounding** — training is bit-identical to the fused
  float-simulated path: deterministic rounding consumes no RNG, so both
  paths compute the very same arithmetic on the same draws;
- **stochastic rounding** — the RNG accounting intentionally differs from
  the float path (one draw per changed synapse from the dedicated
  ``qrounding`` stream instead of a full-matrix draw per update), so the
  oracle is the float *shadow twin*: the same kernel with
  ``CodeStorage(net, dtype=np.float64)``.  Codes, conductances and spikes
  match it bit for bit;
- **evaluation** — plasticity frozen, no rounding at all: bit-identical
  response matrices vs the fused engine;
- **resumability** — kill-and-resume through v2 checkpoints (which store
  the uint8/uint16 codes directly) reproduces the uninterrupted run.

The twin oracle runs over Q0.8/Q1.7 (uint8) and Q8.8 (uint16) under every
rounding mode.  Float and code storage share one loop, so its kernel
branches (synapse model, subtractive/hard inhibition, current filter,
single winner) are pinned for all three contracts over their full grid,
and so is ``qbatched == batched`` for the lock-step inference loop that
repeats those branches.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.backend import asnumpy

from repro.config.parameters import (
    QuantizationConfig,
    RoundingMode,
    STDPKind,
)
from repro.engine.fused import FusedPresentation
from repro.engine.registry import check_equivalence, create_engine, get_engine_spec
from repro.engine.storage import CodeStorage
from repro.errors import ConfigurationError, SimulationError
from repro.learning.stochastic import LTDMode
from repro.network.wta import WTANetwork
from repro.pipeline.evaluator import Evaluator
from repro.pipeline.trainer import UnsupervisedTrainer
from repro.resilience import AutosavePolicy
from repro.resilience.faults import CrashFault, SimulatedCrash


def _quantized(config, fmt="Q1.7", rounding=RoundingMode.STOCHASTIC):
    return replace(config, quantization=QuantizationConfig(fmt=fmt, rounding=rounding))


def _train(config, images, engine):
    net = WTANetwork(config, images[0].size)
    log = UnsupervisedTrainer(net).train(images, engine=engine)
    return net, log


def _train_twin(config, images):
    net = WTANetwork(config, images[0].size)
    log = UnsupervisedTrainer(net).train(
        images, engine=FusedPresentation(net, CodeStorage(net, dtype=np.float64))
    )
    return net, log


def _artefacts(net, log):
    return {
        "conductances": net.conductances,
        "thetas": net.neurons.theta,
        "spikes_per_image": log.spikes_per_image,
    }


def _stream_states(net):
    return (
        net.rngs.qrounding.bit_generator.state,
        net.rngs.learning.bit_generator.state,
    )


class TestDeterministicRoundingBitExact:
    @pytest.mark.parametrize("rounding", [RoundingMode.NEAREST, RoundingMode.TRUNCATE])
    def test_q17_matches_fused_bit_for_bit(
        self, tiny_config, small_images, rounding
    ):
        config = _quantized(tiny_config, rounding=rounding)
        fused_net, fused_log = _train(config, small_images, "fused")
        q_net, q_log = _train(config, small_images, "qfused")
        assert np.array_equal(q_net.conductances, fused_net.conductances)
        assert np.array_equal(q_net.neurons.theta, fused_net.neurons.theta)
        assert q_log.spikes_per_image == fused_log.spikes_per_image

    def test_q115_uint16_path_matches_fused(self, tiny_config, small_images):
        """16-bit formats leave the fixed-LSB regime: delta rounding and the
        per-image weight normaliser both run, still bit-identical."""
        config = _quantized(tiny_config, fmt="Q1.15", rounding=RoundingMode.NEAREST)
        fused_net, fused_log = _train(config, small_images, "fused")
        q_net, q_log = _train(config, small_images, "qfused")
        assert np.array_equal(q_net.conductances, fused_net.conductances)
        assert q_log.spikes_per_image == fused_log.spikes_per_image

    def test_deterministic_stdp_rule_matches_fused(self, tiny_config, small_images):
        config = _quantized(
            replace(tiny_config, stdp_kind=STDPKind.DETERMINISTIC),
            rounding=RoundingMode.NEAREST,
        )
        fused_net, fused_log = _train(config, small_images, "fused")
        q_net, q_log = _train(config, small_images, "qfused")
        assert sum(q_log.spikes_per_image) > 0
        assert np.array_equal(q_net.conductances, fused_net.conductances)
        assert q_log.spikes_per_image == fused_log.spikes_per_image


class TestStochasticShadowTwin:
    @pytest.mark.parametrize("fmt", ["Q1.7", "Q1.15"])
    def test_integer_storage_matches_float_twin(
        self, tiny_config, small_images, fmt
    ):
        config = _quantized(tiny_config, fmt=fmt)

        int_net, int_log = _train(config, small_images, "qfused")
        twin_net, twin_log = _train_twin(config, small_images)

        assert np.array_equal(int_net.conductances, twin_net.conductances)
        assert np.array_equal(int_net.neurons.theta, twin_net.neurons.theta)
        assert int_log.spikes_per_image == twin_log.spikes_per_image

    @pytest.mark.parametrize("fmt", ["Q0.8", "Q1.7", "Q8.8"])
    @pytest.mark.parametrize(
        "rounding",
        [RoundingMode.TRUNCATE, RoundingMode.NEAREST, RoundingMode.STOCHASTIC],
    )
    def test_codes_and_draw_counts_match_float_twin(
        self, tiny_config, small_images, fmt, rounding
    ):
        """Codes, thetas and spikes are bit-identical to the twin, and both
        storages end with the ``qrounding`` and ``learning`` generators in the
        very same state (one eq.-8 draw per changed synapse)."""
        config = _quantized(tiny_config, fmt=fmt, rounding=rounding)
        int_net, int_log = _train(config, small_images, "qfused")
        twin_net, twin_log = _train_twin(config, small_images)

        assert sum(int_log.spikes_per_image) > 0
        assert int_log.spikes_per_image == twin_log.spikes_per_image
        assert np.array_equal(int_net.conductances, twin_net.conductances)
        assert np.array_equal(int_net.neurons.theta, twin_net.neurons.theta)
        assert _stream_states(int_net) == _stream_states(twin_net)
        fresh = WTANetwork(config, small_images[0].size)
        rounding_drawn = (
            int_net.rngs.qrounding.bit_generator.state
            != fresh.rngs.qrounding.bit_generator.state
        )
        # Eq.-8 draws happen only under stochastic rounding, and only where
        # deltas are finer than one code step: the 8-bit formats step whole
        # LSBs, so their parity would be vacuous without the Q8.8 cases.
        expect_draws = rounding is RoundingMode.STOCHASTIC and fmt == "Q8.8"
        assert rounding_drawn == expect_draws

    def test_learning_and_rounding_streams_are_separate(
        self, tiny_config, small_images
    ):
        """The eq.-8 draws come from ``qrounding``, not the learning stream:
        training must advance both."""
        config = _quantized(tiny_config, fmt="Q1.15")
        net = WTANetwork(config, small_images[0].size)
        before = net.rngs.qrounding.bit_generator.state
        UnsupervisedTrainer(net).train(small_images, engine="qfused")
        assert net.rngs.qrounding.bit_generator.state != before


def _branch_grid(test):
    """Parametrize *test* over the loop's kernel branches: synapse model x
    subtractive/hard inhibition x current filter on/off x single winner."""
    test = pytest.mark.parametrize("single_winner", [True, False])(test)
    test = pytest.mark.parametrize("current_tau_ms", [0.0, 20.0])(test)
    test = pytest.mark.parametrize("inhibition_strength", [0.0, 8.0])(test)
    return pytest.mark.parametrize("synapse_model", ["current", "conductance"])(test)


def _branch_config(
    config, synapse_model, inhibition_strength, current_tau_ms, single_winner
):
    wta = config.wta
    # Unfiltered, the current carries one step of input instead of
    # ~tau/dt steps: scale the per-spike drive by the default filter's
    # gain so the tiny network still fires.
    gain = 1.0 if current_tau_ms else wta.current_tau_ms
    return replace(config, wta=replace(
        wta,
        synapse_model=synapse_model,
        inhibition_strength=inhibition_strength,
        current_tau_ms=current_tau_ms,
        single_winner=single_winner,
        input_spike_amplitude=wta.input_spike_amplitude * gain,
    ))


class TestKernelBranchGrid:
    @_branch_grid
    def test_storages_keep_every_contract(
        self, tiny_config, small_images, synapse_model, inhibition_strength,
        current_tau_ms, single_winner,
    ):
        """fused == reference (float), qfused == fused (Q1.7 nearest) and
        qfused == its float twin at zero tolerance (Q1.7 stochastic)."""
        config = _branch_config(
            tiny_config, synapse_model, inhibition_strength, current_tau_ms,
            single_winner,
        )
        fused_spec = get_engine_spec("fused")
        ref = _artefacts(*_train(config, small_images, "reference"))
        fused = _artefacts(*_train(config, small_images, "fused"))
        assert sum(fused["spikes_per_image"]) > 0
        assert check_equivalence(fused_spec, ref, fused) == []

        nearest = _quantized(config, rounding=RoundingMode.NEAREST)
        q_nearest = _artefacts(*_train(nearest, small_images, "qfused"))
        fused_nearest = _artefacts(*_train(nearest, small_images, "fused"))
        assert check_equivalence(fused_spec, fused_nearest, q_nearest) == []

        stochastic = _quantized(config)
        q_stochastic = _artefacts(*_train(stochastic, small_images, "qfused"))
        twin = _artefacts(*_train_twin(stochastic, small_images))
        assert sum(q_stochastic["spikes_per_image"]) > 0
        assert check_equivalence(
            get_engine_spec("qfused"), twin, q_stochastic, conductance_atol=0.0
        ) == []

    @_branch_grid
    def test_batched_storages_agree(
        self, tiny_config, small_images, tiny_dataset, synapse_model,
        inhibition_strength, current_tau_ms, single_winner,
    ):
        """The lock-step loop has the same branches: qbatched == batched
        bit for bit at every grid point, with output spikes to compare."""
        config = _quantized(_branch_config(
            tiny_config, synapse_model, inhibition_strength, current_tau_ms,
            single_winner,
        ))
        net, _ = _train(config, small_images, "qfused")
        net.freeze()
        images = tiny_dataset.test_images[:8]
        responses = {
            engine: create_engine(engine, net).collect_responses(images, 50.0)
            for engine in ("batched", "qbatched")
        }
        assert responses["batched"].sum() > 0
        assert np.array_equal(responses["batched"], responses["qbatched"])


class TestCodesStorage:
    def test_code_matrix_dtype_and_width(self, tiny_config, small_images):
        for fmt, dtype in (("Q1.7", np.uint8), ("Q1.15", np.uint16)):
            net = WTANetwork(_quantized(tiny_config, fmt=fmt), small_images[0].size)
            storage = CodeStorage(net)
            assert storage.codes.dtype == np.dtype(dtype)
            assert storage.codes.dtype.itemsize * 8 <= 16
            assert storage.codes.shape == net.synapses.g.shape

    def test_float_view_stays_on_grid_after_training(
        self, tiny_config, small_images
    ):
        config = _quantized(tiny_config)
        net, _ = _train(config, small_images, "qfused")
        fmt = net.synapses.quantizer.fmt
        assert bool(np.all(fmt.is_representable(net.conductances)))

    def test_decoded_codes_equal_the_float_view(self, tiny_config, small_images):
        config = _quantized(tiny_config)
        net = WTANetwork(config, small_images[0].size)
        storage = CodeStorage(net)
        UnsupervisedTrainer(net).train(
            small_images, engine=FusedPresentation(net, storage)
        )
        decoded = storage.codec.decode(asnumpy(storage.codes))
        assert np.array_equal(decoded, net.conductances)


class TestEvaluation:
    def test_frozen_responses_bit_identical_to_fused(
        self, tiny_config, small_images, tiny_dataset
    ):
        config = _quantized(tiny_config)
        net, _ = _train(config, small_images, "qfused")
        net.freeze()
        responses = {}
        for engine in ("fused", "qfused"):
            net.rngs.reseed(123)
            evaluator = Evaluator(net, t_present_ms=50.0, engine=engine)
            responses[engine] = evaluator.collect_responses(tiny_dataset.test_images[:4])
        assert np.array_equal(responses["fused"], responses["qfused"])


class TestResume:
    @pytest.mark.parametrize("crash_at", [1, 3])
    def test_kill_and_resume_bit_identical(
        self, tmp_path, tiny_config, tiny_dataset, crash_at
    ):
        """v2 checkpoints store the uint8 codes; resuming from one under the
        qfused engine reproduces the uninterrupted run exactly."""
        config = _quantized(tiny_config)
        images = tiny_dataset.train_images[:5]
        baseline, base_log = _train(config, images, "qfused")

        path = tmp_path / "auto.npz"
        net = WTANetwork(config, images[0].size)
        with pytest.raises(SimulatedCrash):
            UnsupervisedTrainer(net).train(
                images, engine="qfused",
                autosave=AutosavePolicy(path, every_images=1),
                on_image_end=CrashFault(at_presentation=crash_at),
            )

        resumed = WTANetwork(config, images[0].size)
        log = UnsupervisedTrainer(resumed).train(
            images, engine="qfused", resume_from=str(path)
        )
        assert np.array_equal(resumed.conductances, baseline.conductances)
        assert np.array_equal(resumed.neurons.theta, baseline.neurons.theta)
        assert log.spikes_per_image == base_log.spikes_per_image


class TestValidation:
    def test_floating_point_config_rejected(self, tiny_config, small_images):
        net = WTANetwork(tiny_config, small_images[0].size)  # fmt=None
        with pytest.raises(ConfigurationError, match="Q-format"):
            CodeStorage(net)

    def test_format_wider_than_sixteen_bits_rejected(
        self, tiny_config, small_images
    ):
        config = _quantized(tiny_config, fmt="Q2.16", rounding=RoundingMode.NEAREST)
        net = WTANetwork(config, small_images[0].size)
        with pytest.raises(ConfigurationError, match="16 bits or fewer"):
            CodeStorage(net)

    def test_pair_ltd_rejected(self, tiny_config, small_images):
        config = _quantized(tiny_config)
        net = WTANetwork(config, small_images[0].size, ltd_mode=LTDMode.PAIR)
        with pytest.raises(ConfigurationError, match="pair-LTD"):
            CodeStorage(net)

    def test_unknown_storage_mode_rejected(self, tiny_config, small_images):
        config = _quantized(tiny_config)
        net = WTANetwork(config, small_images[0].size)
        with pytest.raises(ConfigurationError, match="storage"):
            CodeStorage(net, dtype=np.float32)

    def test_rejects_negative_steps(self, tiny_config, small_images):
        net = WTANetwork(_quantized(tiny_config), small_images[0].size)
        with pytest.raises(SimulationError, match="n_steps"):
            FusedPresentation(net, CodeStorage(net)).run(small_images[0], 0.0, -1, 1.0)

    def test_config_requires_fixed_point_for_qfused_engine(self, tiny_config):
        with pytest.raises(ConfigurationError, match="fixed-point"):
            replace(tiny_config, engine=replace(tiny_config.engine, train="qfused"))

    def test_config_rejects_format_wider_than_engine_dtypes(self, tiny_config):
        config = _quantized(tiny_config, fmt="Q2.16", rounding=RoundingMode.NEAREST)
        with pytest.raises(ConfigurationError, match="18"):
            replace(config, engine=replace(config.engine, train="qfused"))
