"""Integer-native training fast path: conductances live as Q-format codes.

The fused kernel (:mod:`repro.engine.fused`) already removed the per-step
Python overhead, but on a fixed-point config it still *simulates* the
Q-format on float64 arrays: every conductance write runs a
quantize→dequantize round trip through :mod:`repro.quantization.quantizer`,
and under stochastic rounding each update burns a full-matrix uniform draw
inside ``Quantizer.quantize`` — full-precision memory traffic and RNG work
for nominally 8-bit state.  That is the regime L-SPINE's integer SIMD
engine targets; :class:`QFusedPresentation` is this repo's equivalent tier.

For the whole presentation, synapse conductances are held as uint8/uint16
**codes** (``k`` such that ``G = k * 2^-n``, via
:class:`~repro.quantization.codec.QCodec`):

- the synaptic drive accumulates codes with an int64 row-gather sum and
  applies one precomputed scale factor ``resolution * amplitude`` — exactly
  the float path's ordered gather (:func:`~repro.encoding.events.gather_drive`):
  on-grid sums below 2^53 are exact in float64 in any order, and the scale
  factor is a power-of-two multiple of the amplitude, so both are one
  rounding of the same real product;
- STDP lands through the code-domain column helpers in
  :mod:`repro.engine.plasticity`: eq.-8 stochastic rounding is fused into
  the scatter as an integer compare-against-random, drawing one uniform per
  changed synapse from the dedicated ``qrounding`` stream instead of a
  full-matrix draw, and the ≤8-bit fixed-LSB regime updates by ±1 code with
  no draws at all;
- at the :meth:`run` boundaries the codes are re-encoded from / decoded
  back into ``network.synapses.g``, so everything outside a presentation
  (weight normalisation, checkpoints, monitors, the health sentinel) keeps
  seeing ordinary float conductances.

Equivalence contract (enforced by ``tests/test_qfused.py`` and the
``bench_training --check`` gate):

- with truncate/nearest rounding — and in evaluation mode always — results
  are **bit-identical** to the fused/reference path under pinned seeds;
- with stochastic rounding the RNG accounting intentionally differs from
  the float-simulated path (that is the point), so the oracle is the
  *shadow twin*: the same kernel with ``storage="float"``, which runs the
  identical algorithm with the codes held in float64.  Spike counts and
  decoded conductances match the twin bit for bit at matched draws,
  verifying the integer arithmetic itself is exact.

Like the fused tier, the kernel is backend-generic: it binds an
:class:`~repro.backend.ops.Ops` handle at construction and keeps the code
matrix, neuron state mirrors and work buffers resident on that backend.
The spike raster and its event lists stay on the host (the drive gathers
through one device copy of the event list per presentation), all RNG
draws are host-ordered (the ``qrounding`` stream arrives as a
:class:`~repro.engine.rng.DeviceRng` on device backends), and at
:meth:`run` exit the codes are decoded back into the live host
``synapses.g`` — so results are bit-identical across
backends and every boundary consumer keeps seeing host floats.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.backend import backend_ops
from repro.encoding.events import sparsify
from repro.engine.plasticity import (
    quantized_deterministic_columns,
    quantized_stochastic_columns,
    resolve_quantized_rule,
)
from repro.errors import ConfigurationError, SimulationError
from repro.network.wta import WTANetwork
from repro.quantization.codec import require_codec

if TYPE_CHECKING:
    from repro.engine.profiler import StepProfiler

#: Storage modes: ``"int"`` is the real tier; ``"float"`` is the shadow
#: twin used as the stochastic-rounding equivalence oracle.
STORAGE_MODES = ("int", "float")


class QFusedPresentation:
    """The fused presentation kernel with integer Q-format conductance codes.

    Construct once per training run and call :meth:`run` once per image.
    Between presentations ``network.synapses.g`` stays authoritative (codes
    are re-encoded at entry and decoded back at exit); during a
    presentation the code array is the live learned state.
    """

    def __init__(self, network: WTANetwork, storage: str = "int") -> None:
        self._ops = backend_ops()
        xp = self._ops.xp
        if storage not in STORAGE_MODES:
            raise ConfigurationError(
                f"qfused storage must be one of {STORAGE_MODES}, got {storage!r}"
            )
        self._stochastic_rule = resolve_quantized_rule(network) == "stochastic"

        self.net = network
        self.storage = storage
        self.codec = require_codec(network.synapses.quantizer, "qfused")
        cfg = network.config
        self._wta = cfg.wta
        self._lif = cfg.lif
        n = cfg.wta.n_neurons

        # Loop-invariant constants.  `resolution * amplitude` is exact: the
        # resolution is a power of two, so the product only shifts the
        # amplitude's exponent.
        self._amplitude = network.amplitude
        self._inj_scale = self.codec.resolution * network.amplitude
        self._conductance_model = cfg.wta.synapse_model == "conductance"
        self._scale_denom = cfg.wta.e_excitatory - cfg.lif.v_reset
        self._subtractive = network.neurons.inhibition_strength > 0.0

        # The live code matrix (uint8/uint16, or float64 for the twin),
        # resident on the kernel's backend for the whole run.
        g_shape = network.synapses.g.shape
        code_dtype = self.codec.dtype if storage == "int" else np.dtype(np.float64)
        self._codes = xp.zeros(g_shape, dtype=code_dtype)
        self._acc_dtype = np.dtype(np.int64) if storage == "int" else np.dtype(np.float64)

        # Preallocated per-step work buffers, resident on the backend the
        # kernel steps on (device allocations happen once, here).
        self._injected = xp.empty(g_shape[1], dtype=np.float64)
        self._scale = xp.empty(n, dtype=np.float64)
        self._eff = xp.empty(n, dtype=np.float64)
        self._dv = xp.empty(n, dtype=np.float64)
        self._tmp = xp.empty(n, dtype=np.float64)
        self._thr = xp.empty(n, dtype=np.float64)
        self._blocked = xp.empty(n, dtype=bool)
        self._inhibited = xp.empty(n, dtype=bool)
        self._not_blocked = xp.empty(n, dtype=bool)
        self._spikes = xp.empty(n, dtype=bool)
        self._losers = xp.empty(n, dtype=bool)

    @property
    def codes(self) -> np.ndarray:
        """The Q-format code matrix (live during a presentation).

        Resident on the kernel's backend; download with
        :func:`repro.backend.asnumpy` before host-side use.
        """
        return self._codes

    # ------------------------------------------------------------------
    # kernel
    # ------------------------------------------------------------------

    def run(
        self,
        image: np.ndarray,
        t_ms: float,
        n_steps: int,
        dt_ms: float,
        profiler: Optional[StepProfiler] = None,
        out_counts: Optional[np.ndarray] = None,
    ) -> Tuple[int, float]:
        """Present *image* for *n_steps* steps of *dt_ms*, starting at *t_ms*.

        Returns ``(total_output_spikes, t_ms_after)``; same contract as
        :meth:`repro.engine.fused.FusedPresentation.run`.  Conductance codes
        are refreshed from ``synapses.g`` on entry (the normaliser or a
        checkpoint restore may have touched it between presentations) and
        decoded back on exit, so the float view is always current at image
        boundaries.
        """
        if n_steps < 0:
            raise SimulationError(f"n_steps must be >= 0, got {n_steps}")
        net = self.net
        clock = time.perf_counter
        neurons = net.neurons
        timers = net.timers
        rule = net.rule
        rng_learning = net.rngs.learning
        lif = self._lif
        wta = self._wta
        codec = self.codec
        codes = self._codes
        conn_mask = net.synapses.connectivity
        ops = self._ops
        on_host = ops.is_host
        # Eq.-8 rounding draws stay host-ordered on every backend; on a
        # device backend the stream arrives wrapped so draws upload.
        rng_rounding = net.rngs.device_stream("qrounding", ops)

        # Boundary sync in: the float matrix is authoritative between
        # presentations; its live values are on the storage grid, so the
        # encode is an exact rescaling (routed through the backend's own
        # conversion so the encoded codes land device-side).
        g = net.synapses.g
        np.copyto(codes, codec.encode(g, dtype=codes.dtype, xp=ops.xp))

        if profiler is not None:
            _t0 = clock()
        net.present_image(image)
        raster = net.encoder.generate_train(n_steps, dt_ms, net.rngs.encoding)
        events = sparsify(raster)
        channels, offsets = events.channels, events.offsets.tolist()
        channels_dev = ops.to_device(channels)
        if profiler is not None:
            profiler.add("encode", clock() - _t0)

        has_decay = wta.current_tau_ms > 0.0
        decay = net.current_decay(dt_ms) if has_decay else 0.0
        theta_decay = neurons.theta_decay(dt_ms)
        adapting = neurons.adaptation.enabled
        theta_plus = neurons.adaptation.theta_plus
        learning = net.learning_enabled
        inh_strength = neurons.inhibition_strength
        t_inh = wta.t_inh_ms
        single_winner = wta.single_winner
        stochastic_rule = self._stochastic_rule
        acc_dtype = self._acc_dtype

        # State arrays: live host arrays on the numpy backend, mirrors on a
        # device backend (uploaded here, downloaded back at exit — same
        # discipline as the fused kernel).
        current = ops.to_device(net._current)
        v = ops.to_device(neurons._v)
        theta = ops.to_device(neurons._theta)
        refractory = ops.to_device(neurons._refractory_left)
        inhibited_left = ops.to_device(neurons._inhibited_left)

        injected = self._injected
        scale = self._scale
        eff = self._eff
        dv = self._dv
        tmp = self._tmp
        thr = self._thr
        blocked = self._blocked
        inhibited = self._inhibited
        not_blocked = self._not_blocked
        spikes = self._spikes
        losers = self._losers

        total_spikes = 0
        for i in range(n_steps):
            if profiler is not None:
                _t0 = clock()
            lo, hi = offsets[i], offsets[i + 1]
            if hi > lo:
                timers._last_pre[channels[lo:hi]] = t_ms
                # --- synaptic drive (eq. 3), integer accumulation --------
                # Row-gather + int64 column sum over the codes, scaled once
                # by `resolution * amplitude`: the float drive's one rounding.
                codec.gather_drive(codes, channels_dev[lo:hi], self._inj_scale, injected, acc_dtype)
                if self._conductance_model:
                    np.subtract(wta.e_excitatory, v, out=scale)
                    scale /= self._scale_denom
                    np.maximum(scale, 0.0, out=scale)
                    injected *= scale
                if has_decay:
                    current *= decay
                    current += injected
                else:
                    np.copyto(current, injected)
            elif has_decay:
                current *= decay
            else:
                current.fill(0.0)

            # --- membrane update (same inlined LIF step as the fused tier)
            np.greater(inhibited_left, 0.0, out=inhibited)
            np.greater(refractory, 0.0, out=blocked)
            if not self._subtractive:
                np.logical_or(blocked, inhibited, out=blocked)
            np.copyto(eff, current)
            eff[blocked] = 0.0
            if self._subtractive:
                eff[inhibited] -= inh_strength

            np.multiply(v, lif.b, out=dv)
            dv += lif.a
            np.multiply(eff, lif.c, out=tmp)
            dv += tmp
            dv *= dt_ms
            v += dv
            v[blocked] = lif.v_reset
            np.maximum(v, lif.v_reset, out=v)

            np.add(theta, lif.v_threshold, out=thr)
            np.greater_equal(v, thr, out=spikes)
            np.logical_not(blocked, out=not_blocked)
            np.logical_and(spikes, not_blocked, out=spikes)
            n_fired = int(np.count_nonzero(spikes))
            if n_fired:
                v[spikes] = lif.v_reset
                refractory[spikes] = lif.refractory_ms

            if adapting:
                theta *= theta_decay
                if n_fired:
                    theta[spikes] += theta_plus

            refractory -= dt_ms
            np.maximum(refractory, 0.0, out=refractory)
            inhibited_left -= dt_ms
            np.maximum(inhibited_left, 0.0, out=inhibited_left)
            if profiler is not None:
                _t1 = clock()
                profiler.add("integrate", _t1 - _t0)

            # --- winner-take-all arbitration -----------------------------
            if single_winner and n_fired > 1:
                contenders = np.flatnonzero(spikes)
                winner = contenders[np.argmax(current[contenders])]
                spikes.fill(False)
                spikes[winner] = True
                n_fired = 1
            if profiler is not None:
                _t2 = clock()
                profiler.add("wta", _t2 - _t1, calls=0)

            # --- plasticity on codes, timers -----------------------------
            # Timers and the Bernoulli draws are host subsystems, so the
            # spike mask is downloaded at fired steps; the code-domain
            # helpers upload the host-computed masks through the explicit
            # ops seam before they meet the device codes.
            spikes_h = spikes if on_host else None
            if n_fired and not on_host:
                spikes_h = ops.to_host(spikes)
            if learning and n_fired:
                if stochastic_rule:
                    quantized_stochastic_columns(
                        rule, codes, codec, timers, spikes_h, t_ms,
                        rng_learning, rng_rounding, conn_mask, ops=ops,
                    )
                else:
                    quantized_deterministic_columns(
                        rule, codes, codec, timers, spikes_h, t_ms,
                        rng_rounding, conn_mask, ops=ops,
                    )
            if n_fired:
                timers._last_post[spikes_h] = t_ms
                if out_counts is not None:
                    out_counts[spikes_h] += 1
            if profiler is not None:
                _t3 = clock()
                profiler.add("stdp", _t3 - _t2)

            if n_fired and t_inh > 0.0:
                np.logical_not(spikes, out=losers)
                if on_host:
                    neurons.inhibit(losers, t_inh)
                else:
                    # Device image of AdaptiveLIFPopulation.inhibit: extend,
                    # never shorten (the host array syncs at exit).
                    np.maximum(
                        inhibited_left,
                        np.where(losers, t_inh, 0.0),
                        out=inhibited_left,
                    )
            if profiler is not None:
                profiler.add("wta", clock() - _t3)

            total_spikes += n_fired
            t_ms += dt_ms

        # Boundary sync out: the decoded float view becomes authoritative
        # again for everything that runs between presentations.  On a device
        # backend the neuron-state mirrors download into the live host
        # arrays too.
        if on_host:
            codec.decode_into(codes, g)
        else:
            codec.decode_into(ops.to_host(codes), g)
            np.copyto(net._current, ops.to_host(current))
            np.copyto(neurons._v, ops.to_host(v))
            np.copyto(neurons._theta, ops.to_host(theta))
            np.copyto(neurons._refractory_left, ops.to_host(refractory))
            np.copyto(neurons._inhibited_left, ops.to_host(inhibited_left))
        return total_spikes, t_ms
