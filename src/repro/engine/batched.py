"""Image-parallel batched inference (the GPU batch-mode substitute).

The sequential :class:`~repro.pipeline.evaluator.Evaluator` presents test
images one at a time, exactly like the training loop.  For *inference*
nothing persists between images (plasticity and threshold adaptation are
frozen, and the rest phase clears all fast state), so every presentation is
independent — which means a whole batch of images can advance in lock-step
through the same time grid, turning the per-step work into one large
matrix product.  This is precisely the second axis of parallelism a GPU
implementation exploits, and it accelerates the evaluation phase by an
order of magnitude on the benches.

The dynamics replicate :class:`~repro.network.wta.WTANetwork.advance` in
evaluation mode operation-for-operation (current filtering, subtractive or
hard inhibition, membrane pinning, threshold offsets, single-winner
arbitration, WTA inhibition of the losers).  Spike-train randomness is
drawn from a batch-shaped stream, so results are statistically equivalent
to — though not bit-identical with — the sequential evaluator; the test
suite pins the agreement.

Array operations route through the :class:`~repro.backend.ops.Ops` layer,
so selecting the CuPy backend moves the whole lock-step batch onto the GPU
without code changes; results always come back as host numpy arrays.
Randomness is **host-drawn**: the uniforms for a block of steps come from
one ``Generator.random`` call, are compared with the spike probabilities on
the host, and the boolean raster goes up in one upload per block, so the
response matrices are bit-identical across backends for the same seed.
The lock-step state lives in buffers allocated once per call and updated
in place, so a step allocates and uploads nothing.

The learned state (conductances and thresholds) is re-read from the network
at :meth:`BatchedInference.collect_responses` time.  An earlier revision
captured the arrays at construction, which silently served *stale* weights
whenever further training or normalisation replaced the network's buffers —
an inference engine built once and reused across training checkpoints must
always see the current weights.

With ``storage="int"`` (the ``qbatched`` engine tier) the frozen
conductances are encoded once per call into their on-grid Q-format codes
(:class:`~repro.quantization.codec.QCodec`), held as integer-valued
float64, and each step's drive is a BLAS GEMM over only the code rows whose
input spikes in at least one image, scaled once by
``resolution * amplitude`` (:meth:`QCodec.batched_drive`).  Code sums are
integers far below ``2^53``, exact in any order, so leaving out the silent
rows changes no bit; the scale factor is a power-of-two multiple of the
amplitude, so the response matrices — and hence the predicted labels — are
**bit-identical** to the float path under the same draws.  The integer
path requires a fixed-point quantization config.

The float path keeps the full ``spikes @ g`` GEMM: float sums of
non-integer conductances depend on their order, and compressing the rows
changes how BLAS blocks the reduction, which moves the last bit of the
drive.  For the same reason ``np.add.reduceat`` must not stand in for a
float drive — it does not sum left to right.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

import numpy as np

from repro.backend import asnumpy, backend_ops
from repro.backend.ops import Ops
from repro.config.parameters import ExperimentConfig
from repro.encoding.rate import intensity_to_frequency
from repro.errors import ConfigurationError, SimulationError
from repro.network.wta import WTANetwork
from repro.quantization.codec import QCodec, require_codec

#: Conductance storage modes: ``"float"`` is the original float64 matmul
#: path; ``"int"`` drives the matmul with Q-format codes (``qbatched``).
STORAGE_MODES = ("float", "int")

#: Host bytes of float64 uniforms drawn per block of lock-step steps.  One
#: block is one ``Generator.random`` call and one boolean upload; the cap
#: keeps the draw buffer small however many images a call carries.
_DRAW_BLOCK_BYTES = 1 << 21


class BatchedInference:
    """Frozen-network inference over many images simultaneously."""

    def __init__(self, network: WTANetwork, storage: str = "float") -> None:
        if storage not in STORAGE_MODES:
            raise ConfigurationError(
                f"batched storage must be one of {STORAGE_MODES}, got {storage!r}"
            )
        self.codec: Optional[QCodec] = None
        if storage == "int":
            self.codec = require_codec(network.synapses.quantizer, "qbatched")
        self.network = network
        self.storage = storage
        self.config: ExperimentConfig = network.config
        self.n_pixels = network.n_pixels
        self.amplitude = network.amplitude

    def collect_responses(
        self,
        images: np.ndarray,
        t_present_ms: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Per-image output spike counts, shape ``(n_images, n_neurons)``."""
        batch = np.asarray(images, dtype=np.float64)  # host API input  # lint-ok: R6
        if batch.ndim == 2:
            batch = batch[None]
        if batch.ndim != 3:
            raise SimulationError(f"images must be 2-D or 3-D, got shape {batch.shape}")
        # Explicit width: ``-1`` cannot be inferred for an empty batch.
        flat = batch.reshape(batch.shape[0], batch.shape[1] * batch.shape[2])
        if flat.shape[1] != self.n_pixels:
            raise SimulationError(
                f"images have {flat.shape[1]} pixels, network expects {self.n_pixels}"
            )

        cfg = self.config
        ops = backend_ops()
        xp = ops.xp
        # Default stream: the salted batched-evaluation stream, decorrelated
        # from the sequential streams and restarted per call (see
        # RngStreams.batched_eval) — never an ad-hoc generator.  Draws are
        # host-side on every backend and uploaded through the explicit seam,
        # so responses are bit-identical across backends.
        rng = rng if rng is not None else self.network.rngs.batched_eval()

        dt = cfg.simulation.dt_ms
        duration = t_present_ms if t_present_ms is not None else cfg.simulation.t_learn_ms
        n_steps = int(round(duration / dt))

        n_images = flat.shape[0]
        n_neurons = cfg.wta.n_neurons
        lif = cfg.lif
        wta = cfg.wta

        # Learned state, read fresh from the network for every call.  The
        # integer path re-encodes the frozen float view into codes once per
        # call (exact: live conductances sit on the storage grid), held as
        # float64 so the per-step matmul stays on BLAS.
        codec = self.codec
        if codec is not None:
            g_codes = codec.encode(self.network.conductances, dtype=np.float64, xp=xp)
            inj_scale = codec.resolution * self.amplitude
        else:
            g = xp.asarray(self.network.conductances, dtype=xp.float64)
            drive = xp.empty((n_images, n_neurons), dtype=xp.float64)
        theta = xp.asarray(self.network.neurons.theta, dtype=xp.float64)

        # Host-side: the Bernoulli compare runs where the draws are made.
        spike_prob = intensity_to_frequency(flat, cfg.encoding) * (dt / 1000.0)

        # Lock-step state and per-step scratch, allocated once per call and
        # updated in place: every step performs the same IEEE operations in
        # the same order as the rebinding formulation, without temporaries.
        shape = (n_images, n_neurons)
        v = xp.full(shape, lif.v_init, dtype=xp.float64)
        current = xp.zeros(shape, dtype=xp.float64)
        refractory = xp.zeros(shape, dtype=xp.float64)
        inhibited_left = xp.zeros(shape, dtype=xp.float64)
        counts = xp.zeros(shape, dtype=xp.int64)
        work = xp.empty(shape, dtype=xp.float64)
        effective = xp.empty(shape, dtype=xp.float64)
        inhibited = xp.empty(shape, dtype=bool)
        blocked = xp.empty(shape, dtype=bool)
        crossers = xp.empty(shape, dtype=bool)
        if wta.single_winner:
            masked = xp.empty(shape, dtype=xp.float64)
            winner_idx = xp.empty(n_images, dtype=xp.intp)
            any_cross = xp.empty(n_images, dtype=bool)
            winners = xp.empty(shape, dtype=bool)
            row_index = xp.arange(n_images)
        else:
            winners = crossers
        if wta.t_inh_ms > 0.0:
            fired_rows = xp.empty(n_images, dtype=bool)
            losers = xp.empty(shape, dtype=bool)
        threshold = lif.v_threshold + theta[None, :]
        decay = float(np.exp(-dt / wta.current_tau_ms)) if wta.current_tau_ms > 0 else 0.0
        reversal_span = wta.e_excitatory - lif.v_reset

        for input_spikes in _input_spike_steps(rng, spike_prob, n_steps, ops):
            if codec is not None:
                injected = codec.batched_drive(input_spikes, g_codes, inj_scale)
            else:
                injected = xp.matmul(input_spikes, g, out=drive)
                xp.multiply(injected, self.amplitude, out=injected)
            if wta.synapse_model == "conductance":
                xp.subtract(wta.e_excitatory, v, out=work)
                xp.divide(work, reversal_span, out=work)
                xp.maximum(work, 0.0, out=work)
                xp.multiply(injected, work, out=injected)
            if wta.current_tau_ms > 0:
                xp.multiply(current, decay, out=current)
                xp.add(current, injected, out=current)
            else:
                xp.copyto(current, injected)

            xp.greater(inhibited_left, 0.0, out=inhibited)
            xp.greater(refractory, 0.0, out=blocked)
            if wta.inhibition_strength <= 0.0:
                xp.logical_or(blocked, inhibited, out=blocked)
            xp.copyto(effective, current)
            xp.copyto(effective, 0.0, where=blocked)
            if wta.inhibition_strength > 0.0:
                # x - 0.0 == x for every float, so subtracting only where
                # inhibited equals subtracting where(inhibited, s, 0.0).
                xp.subtract(
                    effective, wta.inhibition_strength, out=effective, where=inhibited
                )

            # v += (a + b * v + c * effective) * dt
            xp.multiply(v, lif.b, out=work)
            xp.add(work, lif.a, out=work)
            xp.multiply(effective, lif.c, out=effective)
            xp.add(work, effective, out=work)
            xp.multiply(work, dt, out=work)
            xp.add(v, work, out=v)
            xp.copyto(v, lif.v_reset, where=blocked)
            xp.maximum(v, lif.v_reset, out=v)

            xp.greater_equal(v, threshold, out=crossers)
            xp.copyto(crossers, False, where=blocked)
            xp.copyto(v, lif.v_reset, where=crossers)
            xp.copyto(refractory, lif.refractory_ms, where=crossers)

            if wta.single_winner:
                masked.fill(-np.inf)
                xp.copyto(masked, current, where=crossers)
                xp.argmax(masked, axis=1, out=winner_idx)
                xp.any(crossers, axis=1, out=any_cross)
                winners.fill(False)
                winners[row_index, winner_idx] = True
                winners &= any_cross[:, None]

            counts += winners

            if wta.t_inh_ms > 0.0:
                # inhibited_left is never below +0.0, so max(x, 0.0) == x
                # off the losers: raising it only where losing is the same.
                xp.any(winners, axis=1, out=fired_rows)
                xp.logical_not(winners, out=losers)
                xp.logical_and(losers, fired_rows[:, None], out=losers)
                xp.maximum(inhibited_left, wta.t_inh_ms, out=inhibited_left, where=losers)

            xp.subtract(refractory, dt, out=refractory)
            xp.maximum(refractory, 0.0, out=refractory)
            xp.subtract(inhibited_left, dt, out=inhibited_left)
            xp.maximum(inhibited_left, 0.0, out=inhibited_left)

        return asnumpy(counts)


def _input_spike_steps(
    rng: np.random.Generator, spike_prob: np.ndarray, n_steps: int, ops: Ops
) -> Iterator[Any]:
    """The *n_steps* per-step boolean input rasters, as device arrays.

    Each block of steps is one host ``rng.random`` call, compared with the
    host *spike_prob* and uploaded as one boolean array.
    ``Generator.random`` fills in C order, so row ``i`` of a block holds
    exactly the values a per-step draw would have produced.  The block
    covers as many steps as fit in :data:`_DRAW_BLOCK_BYTES` of float64
    draws, and at least one.
    """
    step_bytes = spike_prob.size * np.dtype(np.float64).itemsize
    block_steps = max(1, min(n_steps, _DRAW_BLOCK_BYTES // max(step_bytes, 1)))
    raster = np.empty((block_steps, *spike_prob.shape), dtype=bool)  # host raster  # lint-ok: R6
    for start in range(0, n_steps, block_steps):
        block = raster[: min(block_steps, n_steps - start)]
        np.less(rng.random(block.shape), spike_prob, out=block)
        device_block = ops.to_device(block)
        for step in range(block.shape[0]):
            yield device_block[step]
