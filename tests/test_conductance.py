"""Tests for the plastic conductance matrix, including grid invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config.parameters import RoundingMode
from repro.errors import TopologyError
from repro.quantization.qformat import parse_qformat
from repro.quantization.quantizer import FloatQuantizer, Quantizer
from repro.synapses.conductance import ConductanceMatrix


class TestInitialisation:
    def test_init_within_band(self, rng):
        m = ConductanceMatrix(10, 5, g_init_low=0.2, g_init_high=0.6, rng=rng)
        assert (m.g >= 0.2 - 1e-9).all() and (m.g <= 0.6 + 1e-9).all()

    def test_init_randomised(self, rng):
        m = ConductanceMatrix(20, 20, rng=rng)
        assert m.g.std() > 0.01

    def test_quantized_init_on_grid(self, rng):
        q = Quantizer(parse_qformat("Q0.2"), RoundingMode.NEAREST)
        m = ConductanceMatrix(10, 5, quantizer=q, rng=rng)
        assert q.fmt.is_representable(m.g).all()

    def test_bad_band_rejected(self, rng):
        with pytest.raises(TopologyError):
            ConductanceMatrix(4, 4, g_init_low=-0.5, g_init_high=0.2, rng=rng)

    def test_bad_shape_rejected(self, rng):
        with pytest.raises(TopologyError):
            ConductanceMatrix(0, 4, rng=rng)


class TestApplyDelta:
    def test_float_delta_accumulates(self, rng):
        m = ConductanceMatrix(2, 2, g_init_low=0.5, g_init_high=0.5, rng=rng)
        m.apply_delta(np.full((2, 2), 0.1))
        assert np.allclose(m.g, 0.6)

    def test_clamped_at_bounds(self, rng):
        m = ConductanceMatrix(2, 2, g_init_low=0.9, g_init_high=0.9, rng=rng)
        m.apply_delta(np.full((2, 2), 10.0))
        assert np.allclose(m.g, 1.0)
        m.apply_delta(np.full((2, 2), -10.0))
        assert np.allclose(m.g, 0.0)

    def test_zero_delta_is_identity_even_with_fixed_lsb(self, rng):
        q = Quantizer(parse_qformat("Q0.4"), RoundingMode.NEAREST)
        m = ConductanceMatrix(3, 3, quantizer=q, rng=rng)
        before = m.g.copy()
        m.apply_delta(np.zeros((3, 3)), rng)
        assert np.array_equal(m.g, before)

    def test_fixed_lsb_moves_exactly_one_step(self, rng):
        q = Quantizer(parse_qformat("Q0.4"), RoundingMode.NEAREST)
        m = ConductanceMatrix(2, 2, quantizer=q, g_init_low=0.5, g_init_high=0.5, rng=rng)
        before = m.g.copy()
        delta = np.array([[0.0001, -0.3], [0.0, 0.0]])
        m.apply_delta(delta, rng)
        assert m.g[0, 0] == pytest.approx(before[0, 0] + 1 / 16)
        assert m.g[0, 1] == pytest.approx(before[0, 1] - 1 / 16)
        assert m.g[1, 0] == before[1, 0]

    def test_broadcast_delta(self, rng):
        m = ConductanceMatrix(3, 2, g_init_low=0.4, g_init_high=0.4, rng=rng)
        m.apply_delta(np.array([0.1, -0.1]))  # per-column broadcast
        assert np.allclose(m.g[:, 0], 0.5)
        assert np.allclose(m.g[:, 1], 0.3)

    def test_incompatible_delta_rejected(self, rng):
        m = ConductanceMatrix(3, 2, rng=rng)
        with pytest.raises(TopologyError):
            m.apply_delta(np.zeros((2, 3)))


class TestUtilities:
    def test_propagate_computes_weighted_sum(self, rng):
        m = ConductanceMatrix(3, 2, g_init_low=0.5, g_init_high=0.5, rng=rng)
        current = m.propagate(np.array([True, False, True]), amplitude=2.0)
        assert np.allclose(current, 2.0)

    def test_per_neuron_maps_shape(self, rng):
        m = ConductanceMatrix(16, 3, rng=rng)
        maps = m.per_neuron_maps()
        assert maps.shape == (3, 4, 4)
        assert np.array_equal(maps[1], m.g[:, 1].reshape(4, 4))

    def test_per_neuron_maps_non_square_rejected(self, rng):
        m = ConductanceMatrix(10, 2, rng=rng)
        with pytest.raises(TopologyError):
            m.per_neuron_maps()

    def test_normalize_columns(self, rng):
        m = ConductanceMatrix(10, 4, rng=rng)
        m.normalize_columns(3.0)
        assert np.allclose(m.g.sum(axis=0), 3.0, atol=1e-9)

    @pytest.mark.parametrize(
        "quantizer",
        [
            None,
            Quantizer(parse_qformat("Q1.7"), RoundingMode.NEAREST),
            Quantizer(parse_qformat("Q1.7"), RoundingMode.STOCHASTIC),
        ],
        ids=["float", "q17-nearest", "q17-stochastic"],
    )
    @pytest.mark.parametrize("target_sum", [3.0, 40.0])  # 40 pushes entries past g_max
    def test_normalize_in_place_matches_out_of_place_expression(self, quantizer, target_sum):
        m = ConductanceMatrix(
            30, 5, quantizer=quantizer, rng=np.random.default_rng(1),
            connectivity=np.random.default_rng(2).random((30, 5)) < 0.8,
        )
        m.g[:, 2] = 0.0  # a silent column stays untouched
        g = m.g.copy()
        sums = g.sum(axis=0)
        scale = np.where(sums > 0.0, target_sum / np.maximum(sums, 1e-12), 1.0)
        rng_old, rng_new = np.random.default_rng(9), np.random.default_rng(9)
        expected = m.quantizer.quantize(g * scale, rng_old)
        expected[~m.connectivity] = 0.0
        buffer = m.g
        m.normalize_columns(target_sum, rng_new)
        assert m.g is buffer
        assert m.g.tobytes() == expected.tobytes()
        assert rng_old.random() == rng_new.random()  # the same draws were consumed

    def test_normalize_invalid_target(self, rng):
        m = ConductanceMatrix(4, 4, rng=rng)
        with pytest.raises(TopologyError):
            m.normalize_columns(0.0)

    def test_set_conductances_validates_shape(self, rng):
        m = ConductanceMatrix(4, 4, rng=rng)
        with pytest.raises(TopologyError):
            m.set_conductances(np.zeros((4, 3)))


@settings(max_examples=25)
@given(
    frac_bits=st.integers(min_value=2, max_value=7),
    deltas=st.lists(
        st.floats(min_value=-0.3, max_value=0.3, allow_nan=False), min_size=1, max_size=8
    ),
)
def test_invariant_storage_always_on_grid(frac_bits, deltas):
    """After any sequence of updates, fixed-point storage stays on-grid."""
    q = Quantizer(parse_qformat(f"Q0.{frac_bits}"), RoundingMode.STOCHASTIC)
    rng = np.random.default_rng(0)
    m = ConductanceMatrix(4, 4, quantizer=q, rng=rng)
    for d in deltas:
        m.apply_delta(np.full((4, 4), d), rng)
        assert q.fmt.is_representable(m.g).all()
        assert (m.g >= q.g_min).all() and (m.g <= q.g_max + 1e-12).all()


@settings(max_examples=25)
@given(
    deltas=st.lists(
        st.floats(min_value=-0.5, max_value=0.5, allow_nan=False), min_size=1, max_size=10
    )
)
def test_invariant_float_storage_always_in_range(deltas):
    rng = np.random.default_rng(0)
    m = ConductanceMatrix(3, 3, quantizer=FloatQuantizer(), rng=rng)
    for d in deltas:
        m.apply_delta(np.full((3, 3), d), rng)
        assert (m.g >= 0.0).all() and (m.g <= 1.0).all()
