"""Fused training fast path: one image presentation as a single kernel.

The reference training loop (``UnsupervisedTrainer.train`` →
``WTANetwork.advance``) is semantically clean but allocation-heavy: every
step draws input spikes with its own RNG call, casts them to float, and
builds ~15 temporary arrays across the encoder, synapse, neuron and timer
sub-objects.  At the paper's network sizes the arrays are small, so Python
call overhead and allocator traffic — not arithmetic — dominate the step
cost, which is exactly the observation behind ParallelSpikeSim's fused GPU
kernels (one launch per step instead of one per neuron/synapse).

:class:`FusedPresentation` is the CPU analogue of that fusion.  For one
whole image presentation it:

- pre-generates the full input spike raster in **one** vectorised RNG draw
  (``generate_train`` on the encoders), consuming the ``encoding`` stream in
  the same order as per-step draws, and keeps it as per-step event lists;
- gathers the eq.-3 drive from the spiking rows only, through its
  conductance storage;
- caches every loop-invariant constant (current/theta decay factors, the
  conductance-model driving-force denominator, adaptation increment);
- advances membranes, currents, refractory/inhibition timers and thresholds
  with **in-place** array operations against preallocated buffers, mutating
  the network's own state arrays so the fused and reference paths are
  freely interchangeable mid-run;
- reuses the network's learning rule and spike timers unchanged, so STDP
  consumes the ``learning`` stream identically.

How conductances are *stored* is the one thing that differs between
precisions, and it lives behind the storage seams of
:mod:`repro.engine.storage`: :class:`~repro.engine.storage.FloatStorage`
(engine ``fused``) keeps the live float64 ``synapses.g`` and applies STDP
through :meth:`~repro.synapses.conductance.ConductanceMatrix.apply_delta_columns`;
:class:`~repro.engine.storage.CodeStorage` (engine ``qfused``) holds
uint8/uint16 Q-format codes with an integer drive and code-domain STDP.

With float storage the result is **bit-identical** to the reference loop
under identical :class:`~repro.engine.rng.RngStreams` seeds (the
equivalence tests pin conductances, thetas and spike counts for float and
Q1.7 storage), at a multiple of its throughput — the factor
``scripts/bench_training.py`` records in ``BENCH_train.json``.  Code
storage's contract is in :mod:`repro.engine.storage`.

The kernel is backend-generic: it binds an :class:`~repro.backend.ops.Ops`
handle at construction and expresses all per-step math against its array
module ``xp``.  On the ``numpy`` backend the transfers are identity
functions and the kernel binds the network's live state arrays directly —
bit-identical to the pre-backend kernel by construction.  On a device
backend (``guard``, ``cupy``) the state is mirrored: uploaded once at
:meth:`run` entry, stepped on device, downloaded back into the live host
arrays at exit — so every host-facing seam (checkpointing, sentinel,
normaliser, ``TrainingLog``) keeps seeing plain host float arrays; the
event list is uploaded once and sliced on the device per step.  Spike
timers and the Bernoulli draws stay host subsystems: the spike mask is
downloaded at the steps that learn.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.encoding.events import sparsify
from repro.engine.storage import ConductanceStorage, FloatStorage
from repro.errors import SimulationError
from repro.network.wta import WTANetwork

if TYPE_CHECKING:
    from repro.engine.profiler import StepProfiler


class FusedPresentation:
    """Runs whole image presentations against preallocated, reused buffers.

    Construct once per training run and call :meth:`run` once per image;
    the kernel reads and mutates the live state of *network* (conductances,
    thetas, membranes, timers), so everything the reference loop would have
    produced — learned state, spike counts, RNG stream positions — is
    produced here too, bit for bit.
    """

    def __init__(
        self, network: WTANetwork, storage: Optional[ConductanceStorage] = None
    ) -> None:
        #: Conductance storage (float unless the engine picks codes).
        self.storage = FloatStorage(network) if storage is None else storage
        self._ops = self.storage.ops
        xp = self._ops.xp
        self.net = network
        cfg = network.config
        self._wta = cfg.wta
        self._lif = cfg.lif
        n = cfg.wta.n_neurons

        # Loop-invariant constants.
        self._conductance_model = cfg.wta.synapse_model == "conductance"
        self._scale_denom = cfg.wta.e_excitatory - cfg.lif.v_reset
        self._subtractive = network.neurons.inhibition_strength > 0.0

        # Preallocated per-step work buffers, resident on the backend the
        # kernel steps on (device allocations happen once, here).
        self._injected = xp.empty(n, dtype=np.float64)
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

        Returns ``(total_output_spikes, t_ms_after)``.  ``t_ms`` advances by
        repeated addition of ``dt_ms`` — the same floating-point
        accumulation the reference trainer performs — so the spike times fed
        to the STDP timers match exactly.

        *profiler* (a :class:`~repro.engine.profiler.StepProfiler`) splits
        the presentation into encode / integrate / stdp / wta sections for
        the Fig. 4 breakdown; instrumentation adds a few percent overhead
        and changes no results.

        *out_counts* (int64, length ``n_neurons``) accumulates each
        neuron's post-arbitration spike count — the per-image response
        vector the evaluation protocol needs; counting is gated on spikes,
        so passing it costs nothing on silent steps.
        """
        if n_steps < 0:
            raise SimulationError(f"n_steps must be >= 0, got {n_steps}")
        net = self.net
        clock = time.perf_counter
        neurons = net.neurons
        timers = net.timers
        storage = self.storage
        rng_learning = net.rngs.learning
        lif = self._lif
        wta = self._wta

        ops = self._ops
        on_host = ops.is_host
        if profiler is not None:
            _t0 = clock()
        net.present_image(image)
        # One vectorised draw for the whole presentation (same stream order
        # as per-step draws).  The raster and event lists stay on the host
        # for the STDP timers; the drive gathers through a device copy.
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

        # State arrays.  On the host backend these are the network's live
        # arrays, mutated in place (never rebound) so the network object
        # stays authoritative throughout.  On a device backend they are
        # mirrors uploaded here and downloaded back at exit.  Conductances
        # sync through the storage's boundary seams.
        current = ops.to_device(net._current)
        v = ops.to_device(neurons._v)
        theta = ops.to_device(neurons._theta)
        refractory = ops.to_device(neurons._refractory_left)
        inhibited_left = ops.to_device(neurons._inhibited_left)
        storage.begin()
        drive = storage.drive
        full_matrix = storage.full_matrix

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
            # Steps with no input spikes inject exactly 0.0 (conductances
            # and the drive amplitude are non-negative): skip the gather.
            if hi > lo:
                timers._last_pre[channels[lo:hi]] = t_ms
                # --- synaptic drive (eq. 3): sparse row gather ----------
                drive(channels_dev[lo:hi], injected)
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
                # `current` is non-negative, so decaying in place matches
                # `current * decay + 0.0` bit for bit.
                current *= decay
            else:
                current.fill(0.0)

            # --- membrane update (inlined AdaptiveLIFPopulation.step) ----
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
            # Masked writes with an all-False mask are value no-ops, so they
            # are gated on the spike count (computed once, reused below).
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

            # --- plasticity and timers -----------------------------------
            # The column-restricted rule paths reproduce the reference
            # rules' values and RNG draws exactly; configs they cannot
            # serve (float storage only) call the reference rule object at
            # every step.  Timers and the Bernoulli draws are host
            # subsystems, so a device backend downloads the spike mask.
            spikes_h = spikes if on_host else None
            if learning and (n_fired or full_matrix):
                if spikes_h is None:
                    spikes_h = ops.to_host(spikes)
                storage.learn(raster[i], spikes_h, t_ms, rng_learning)
            if n_fired:
                if spikes_h is None:
                    spikes_h = ops.to_host(spikes)
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

        storage.end()
        if not on_host:
            # Download the stepped state into the live host arrays so every
            # boundary consumer (checkpoint, sentinel, normaliser, logs)
            # keeps seeing plain host floats.
            np.copyto(net._current, ops.to_host(current))
            np.copyto(neurons._v, ops.to_host(v))
            np.copyto(neurons._theta, ops.to_host(theta))
            np.copyto(neurons._refractory_left, ops.to_host(refractory))
            np.copyto(neurons._inhibited_left, ops.to_host(inhibited_left))

        return total_spikes, t_ms
