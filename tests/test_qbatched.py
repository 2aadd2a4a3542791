"""The code-native batched inference tier ``qbatched``.

The contract (mirrored by the ``bench_training --check`` gate): with the
conductances frozen on a Q-format grid, driving the lock-step batch with
integer code accumulation (:meth:`QCodec.batched_drive`) is **bit-identical**
to the float batched matmul — every partial sum of on-grid dyadic values is
exact in float64, and both paths perform one rounding of the same real
product — so response matrices and the predicted labels match exactly, not
just statistically.  Both engines draw from the restarted, salted
``batched_eval`` stream, which makes the pairing automatic under the same
network seeds.

The speed side of the contract is pinned by the hot-loop shape: codes are
encoded once per call into integer-valued float64, and each step's drive is
one float BLAS GEMM over the code rows whose input spikes — exact because
every partial sum is an integer far below ``2^53``, whatever rows are left
out and however BLAS orders the sum.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config.parameters import QuantizationConfig, RoundingMode
from repro.engine.batched import BatchedInference
from repro.errors import ConfigurationError
from repro.network.wta import WTANetwork
from repro.pipeline.evaluator import Evaluator
from repro.pipeline.trainer import UnsupervisedTrainer
from repro.quantization import QCodec
from repro.quantization.qformat import parse_qformat
from repro.quantization.quantizer import Quantizer

#: Formats with an integer storage tier: uint8 (Q0.2 .. Q1.7) and uint16.
CODE_FORMATS = ("Q0.2", "Q0.4", "Q0.8", "Q1.7", "Q8.8", "Q1.15")
UINT16_FORMATS = ("Q8.8", "Q1.15")


def _codec(fmt):
    return QCodec.from_quantizer(Quantizer(parse_qformat(fmt), RoundingMode.NEAREST))


def _quantized(config, fmt="Q1.7", rounding=RoundingMode.STOCHASTIC):
    return replace(config, quantization=QuantizationConfig(fmt=fmt, rounding=rounding))


@pytest.fixture
def trained_quantized(tiny_config, tiny_dataset):
    config = _quantized(tiny_config)
    net = WTANetwork(config, 64)
    UnsupervisedTrainer(net).train(tiny_dataset.train_images[:10], engine="qfused")
    net.freeze()
    return net


class TestBitIdenticalToFloatBatched:
    @pytest.mark.parametrize("fmt", ["Q0.8", "Q1.7", "Q8.8", "Q1.15"])
    def test_responses_match_bit_for_bit(self, tiny_config, tiny_dataset, fmt):
        config = _quantized(tiny_config, fmt=fmt, rounding=RoundingMode.NEAREST)
        net = WTANetwork(config, 64)
        UnsupervisedTrainer(net).train(tiny_dataset.train_images[:6], engine="qfused")
        net.freeze()
        images = tiny_dataset.test_images[:8]
        rng = np.random.default_rng(11)
        float_counts = BatchedInference(net).collect_responses(
            images, rng=np.random.default_rng(11)
        )
        int_counts = BatchedInference(net, storage="int").collect_responses(
            images, rng=rng
        )
        assert np.array_equal(float_counts, int_counts)
        assert float_counts.sum() > 0  # the comparison must mean something

    def test_engine_pairing_via_the_batched_eval_stream(
        self, trained_quantized, tiny_dataset
    ):
        """Through the registry engines no explicit rng is passed: both draw
        from the restarted salted ``batched_eval`` stream, so the responses
        — and hence the argmax labels — are bit-identical automatically."""
        images = tiny_dataset.test_images[:8]
        responses = {}
        for engine in ("batched", "qbatched"):
            evaluator = Evaluator(trained_quantized, t_present_ms=50.0, engine=engine)
            responses[engine] = evaluator.collect_responses(images)
        assert np.array_equal(responses["batched"], responses["qbatched"])
        assert np.array_equal(
            responses["batched"].argmax(axis=1),
            responses["qbatched"].argmax(axis=1),
        )

    def test_code_path_reads_fresh_weights(self, trained_quantized, tiny_dataset):
        """The codes are re-encoded per call: scaling the conductances
        between calls must change the integer path's output too."""
        engine = BatchedInference(trained_quantized, storage="int")
        images = tiny_dataset.test_images[:4]
        before = engine.collect_responses(images, rng=np.random.default_rng(5))
        assert before.sum() > 0
        trained_quantized.synapses.g.fill(0.0)  # still on the Q-format grid
        after = engine.collect_responses(images, rng=np.random.default_rng(5))
        assert after.sum() < before.sum()


def _exact_reference(spikes, codes, scale):
    """The int64 accumulation the float GEMM must reproduce bit for bit."""
    return (spikes.astype(np.int64) @ codes.astype(np.int64)) * scale


class TestBatchedDriveExactness:
    @settings(max_examples=60, deadline=None)
    @given(
        fmt=st.sampled_from(CODE_FORMATS),
        n_images=st.integers(1, 8),
        n_pre=st.integers(1, 784),
        n_neurons=st.integers(1, 24),
        density=st.floats(0.0, 1.0),
        amplitude=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_float_gemm_equals_int64_accumulation(
        self, fmt, n_images, n_pre, n_neurons, density, amplitude, seed
    ):
        codec = _codec(fmt)
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, codec.max_code, size=(n_pre, n_neurons), endpoint=True)
        spikes = rng.random((n_images, n_pre)) < density
        scale = codec.resolution * amplitude
        drive = codec.batched_drive(spikes, codes.astype(np.float64), scale)
        assert drive.dtype == np.float64
        assert np.array_equal(drive, _exact_reference(spikes, codes, scale))
        # ... and the float batched path on the decoded conductances.
        g = codec.decode(codes.astype(codec.dtype))
        assert np.array_equal(drive, (spikes @ g) * amplitude)

    @pytest.mark.parametrize("fmt", UINT16_FORMATS)
    @pytest.mark.parametrize("below_max", [0, 1])
    def test_worst_case_paper_geometry_is_exact(self, fmt, below_max):
        """All 784 inputs spiking into a constant 784x1000 code matrix: the
        largest partial sums the paper geometry produces.  ``max_code`` is
        a power of two; ``max_code - 1`` has a full mantissa, so with one
        input silent (an odd total above 2^24 for Q1.15) the sum overflows
        a float32 significand and only a float64 accumulation stays exact."""
        codec = _codec(fmt)
        code = codec.max_code - below_max
        codes = np.full((784, 1000), code, dtype=codec.dtype)
        spikes = np.ones((2, 784), dtype=bool)
        spikes[1, -1] = False
        scale = codec.resolution * 0.37
        float_codes = codec.encode(codec.decode(codes), dtype=np.float64)
        drive = codec.batched_drive(spikes, float_codes, scale)
        expected = _exact_reference(spikes, codes, scale)
        assert np.array_equal(drive, expected)
        assert expected[0, 0] == float(784 * code) * scale
        assert expected[1, 0] == float(783 * code) * scale


class TestHotLoopShape:
    def test_one_encode_and_one_float64_gemm_per_step(
        self, trained_quantized, tiny_dataset, monkeypatch
    ):
        """Re-encoding or decoding per step would silently give back the
        BLAS speedup: one call encodes once and drives once per step."""
        calls = {"encode": 0, "drive_dtypes": []}
        encode, drive = QCodec.encode, QCodec.batched_drive

        def counting_encode(self, *args, **kwargs):
            calls["encode"] += 1
            return encode(self, *args, **kwargs)

        def counting_drive(self, spikes, codes, scale):
            calls["drive_dtypes"].append(codes.dtype)
            return drive(self, spikes, codes, scale)

        def forbidden_decode(self, *args, **kwargs):
            raise AssertionError("qbatched must not decode in the hot loop")

        monkeypatch.setattr(QCodec, "encode", counting_encode)
        monkeypatch.setattr(QCodec, "batched_drive", counting_drive)
        monkeypatch.setattr(QCodec, "decode", forbidden_decode)
        monkeypatch.setattr(QCodec, "decode_into", forbidden_decode)

        t_present_ms = 30.0
        n_steps = int(round(t_present_ms / trained_quantized.config.simulation.dt_ms))
        counts = BatchedInference(trained_quantized, storage="int").collect_responses(
            tiny_dataset.test_images[:4],
            t_present_ms=t_present_ms,
            rng=np.random.default_rng(3),
        )
        assert counts.shape == (4, 8)
        assert calls["encode"] == 1
        assert len(calls["drive_dtypes"]) == n_steps
        assert all(dtype == np.float64 for dtype in calls["drive_dtypes"])


class TestValidation:
    def test_floating_point_config_rejected(self, tiny_config):
        net = WTANetwork(tiny_config, 64)  # fmt=None
        with pytest.raises(ConfigurationError, match="Q-format"):
            BatchedInference(net, storage="int")

    def test_format_wider_than_sixteen_bits_rejected(self, tiny_config):
        config = _quantized(tiny_config, fmt="Q2.16", rounding=RoundingMode.NEAREST)
        net = WTANetwork(config, 64)
        with pytest.raises(ConfigurationError, match="16 bits or fewer"):
            BatchedInference(net, storage="int")

    def test_unknown_storage_mode_rejected(self, tiny_config):
        net = WTANetwork(tiny_config, 64)
        with pytest.raises(ConfigurationError, match="storage"):
            BatchedInference(net, storage="fp8")

    def test_float_storage_needs_no_quantizer(self, tiny_config, tiny_dataset):
        net = WTANetwork(tiny_config, 64)
        counts = BatchedInference(net).collect_responses(
            tiny_dataset.test_images[:2], rng=np.random.default_rng(0)
        )
        assert counts.shape == (2, 8)

    def test_config_requires_fixed_point_for_qbatched_engine(self, tiny_config):
        with pytest.raises(ConfigurationError, match="fixed-point"):
            replace(tiny_config, engine=replace(tiny_config.engine, eval="qbatched"))
