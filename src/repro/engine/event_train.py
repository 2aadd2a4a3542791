"""Event-accelerated training: analytic jumps across quiescent spans.

The fused kernel (:mod:`repro.engine.fused`) removed allocation overhead
and injects input through a sparse row gather, but stays clock-driven:
every step pays the membrane update and timer arithmetic over all neurons,
whether or not anything happens.  This module exploits the temporal
sparsity of rate-coded input — the direction of the lazy/event-driven
plasticity work surveyed in PAPERS.md — in four ways:

**Sparse input events.**  The pre-generated raster (same ``generate_train``
draw as the fused path, so the ``encoding`` RNG stream is consumed
identically) is converted to per-step event column lists
(:func:`repro.encoding.events.sparsify`); an event step injects the fused
kernel's ordered row gather (:func:`repro.encoding.events.gather_drive`).

**Closed-form jumps.**  Between input events nothing external changes, so
the forward-Euler recurrence is affine with a geometrically decaying drive
and has a closed form.  With ``β = 1 + b·dt`` (membrane decay per step) and
``γ = exp(-dt/τ_I)`` (current decay per step), advancing ``m`` quiet steps
at once:

    ``v  ←  β^m v + a·dt·S + c·dt·(γ·I)·G  [- c·dt·I_inh·S on inhibited]``
    ``I  ←  γ^m I``        ``θ  ←  θ_d^m θ``
    ``S = (1 - β^m)/(1 - β)``      ``G = (β^m - γ^m)/(β - γ)``

(the per-neuron generalisation of the single-neuron analytic oracle in
:mod:`repro.engine.event_driven`).  The per-step reset clamp commutes with
the jump because the drive decays monotonically: once a membrane clamps it
stays clamped for the rest of the span, so one clamp at the end is exact.

**Jump bounding.**  A jump may not skip over an output spike.  Before each
jump a conservative threshold-crossing predictor bounds every membrane over
the span by ``max(v, v̂)`` with ``v̂ = (a + c·γ·I)/(-b)`` (the fixed point
of the first quiet step's drive, an upper bound because the drive only
decays) and compares against the lowest reachable threshold ``v_th +
min(θ)·θ_d^(m-1)`` minus a safety margin.  If any non-blocked neuron could
cross, the span is stepped densely (with exact per-step spike detection)
instead of jumped — no spike can be missed, at worst a jump is forgone.

**Lazy plasticity and timer state.**  ``last_pre`` is written only at event
steps (a sparse scatter over the few spiking channels, not a masked write
over all 784); refractory and WTA-inhibition timers are kept as integer
expiry *steps* (no per-step float decrement over the population — regime
masks are refreshed only when a timer is set or expires); ``θ`` decays in
one ``θ_d^m`` scalar power per jump.  Float timer state is synchronised
back into the network at the end of each presentation, so the engines stay
interchangeable between images.

Contract — **spike-trajectory equivalence**, not bit-identity: under pinned
seeds the engine must produce the same spike trains (hence identical
``learning``-stream consumption) and conductances within a documented
tolerance (:data:`repro.engine.registry.CONDUCTANCE_ATOL`); the fused
kernel remains the bit-exact oracle.  The closed forms evaluate the same
real-number recurrence the dense loop iterates, so membrane deviations are
at the floating-point rearrangement level (``~1e-12`` relative); weight updates
depend only on spike times, timers and the ``learning`` stream, so in
practice conductances come out exactly equal whenever the spike trains
match.  ``tests/test_event_train.py`` pins both, and
``scripts/bench_training.py --check`` re-verifies equivalence in-harness.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.encoding.events import sparsify
from repro.engine.storage import FloatStorage
from repro.errors import ConfigurationError, SimulationError
from repro.learning.stochastic import LTDMode, StochasticSTDP
from repro.network.wta import WTANetwork

if TYPE_CHECKING:
    from repro.engine.profiler import StepProfiler

#: Safety margin (mV) subtracted from the lowest reachable threshold in the
#: jump predictor.  Closed-form membranes deviate from dense stepping at the
#: ~1e-12 relative level (~1e-10 mV at the paper's operating point); any
#: membrane within the margin of threshold forces dense stepping, so the
#: margin trades a few forgone jumps for immunity to rearrangement error.
CROSSING_MARGIN = 1e-6


@dataclass
class EventTrainStats:
    """Occupancy and skipping counters accumulated across ``run`` calls."""

    steps_total: int = 0
    #: Steps advanced inside closed-form jumps (no per-step work at all).
    steps_skipped: int = 0
    #: Steps advanced explicitly (input events or predictor-flagged spans).
    steps_stepped: int = 0
    #: Number of closed-form jumps taken.
    jumps: int = 0
    #: Steps carrying at least one input event.
    input_event_steps: int = 0
    #: Steps on which at least one output spike fired.
    spike_steps: int = 0
    #: Raster cells = presentations * steps * channels; active = spiking.
    raster_cells: int = 0
    raster_active_cells: int = 0

    @property
    def skipped_fraction(self) -> float:
        """Fraction of all steps absorbed by closed-form jumps."""
        return self.steps_skipped / self.steps_total if self.steps_total else 0.0

    @property
    def raster_cell_occupancy(self) -> float:
        return self.raster_active_cells / self.raster_cells if self.raster_cells else 0.0


def _expiry_steps(duration_ms: float, dt_ms: float) -> int:
    """How many steps a timer of *duration_ms* keeps its neuron flagged.

    Mirrors the dense loop's ``left > 0`` test against per-step ``dt``
    decrements: a timer set to ``d`` stays positive for ``ceil(d/dt)``
    decrements (exact when ``d`` is a multiple of ``dt``, which the paper's
    1 ms grid always is; the epsilon guards against ``d/dt`` landing a ulp
    above an integer).
    """
    if duration_ms <= 0.0:
        return 0
    return int(math.ceil(duration_ms / dt_ms - 1e-12))


class EventPresentation:
    """Event-accelerated drop-in for :class:`~repro.engine.fused.FusedPresentation`.

    Construct once per training run and call :meth:`run` once per image.
    The kernel reads and mutates the live network state and consumes the
    ``encoding`` and ``learning`` RNG streams in the same order as the
    dense engines, so presentations can interleave with the reference and
    fused paths; see the module docstring for the equivalence contract.
    """

    def __init__(self, network: WTANetwork) -> None:
        #: Float conductance storage, shared with the fused kernel.
        self.storage = FloatStorage(network)
        self._ops = self.storage.ops
        xp = self._ops.xp
        if network.config.lif.b >= 0.0:
            raise ConfigurationError(
                "event-accelerated stepping requires a leaky membrane (b < 0): "
                "the closed forms and the crossing predictor rely on a stable "
                f"fixed point, got b={network.config.lif.b}"
            )
        self.net = network
        cfg = network.config
        self._wta = cfg.wta
        self._lif = cfg.lif
        n = cfg.wta.n_neurons

        self._conductance_model = cfg.wta.synapse_model == "conductance"
        self._scale_denom = cfg.wta.e_excitatory - cfg.lif.v_reset
        self._subtractive = network.neurons.inhibition_strength > 0.0

        # PAIR/BOTH-mode LTD consumes the learning stream at *pre*-spike
        # steps too, so the fallback rule must run at every input-event step.
        rule = network.rule
        self._pair_ltd = isinstance(rule, StochasticSTDP) and rule.ltd_mode in (
            LTDMode.PAIR,
            LTDMode.BOTH,
        )

        self.stats = EventTrainStats()

        # Preallocated work buffers on the kernel's backend.  ``_pre_mask``
        # stays host-resident: it is consumed only by the fallback reference
        # rule, a host subsystem.
        self._inj = xp.empty(n, dtype=np.float64)
        self._scale = xp.empty(n, dtype=np.float64)
        self._eff = xp.empty(n, dtype=np.float64)
        self._dv = xp.empty(n, dtype=np.float64)
        self._tmp = xp.empty(n, dtype=np.float64)
        self._thr = xp.empty(n, dtype=np.float64)
        self._blocked = xp.empty(n, dtype=bool)
        self._inh_mask = xp.empty(n, dtype=bool)
        self._spikes = xp.empty(n, dtype=bool)
        self._danger = xp.empty(n, dtype=bool)
        self._losers = xp.empty(n, dtype=bool)
        # Host-side: consumed by the host STDP scatter.
        self._pre_mask = np.empty(network.n_pixels, dtype=bool)  # lint-ok: R6
        self._ref_end = xp.zeros(n, dtype=np.int64)
        self._inh_end = xp.zeros(n, dtype=np.int64)
        self._inh_scratch = xp.empty(n, dtype=np.int64)

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

        Returns ``(total_output_spikes, t_ms_after)`` — the same protocol as
        :meth:`FusedPresentation.run`.  Spike times handed to the STDP
        timers come from the same repeated ``+ dt_ms`` float accumulation
        the dense loops perform, so timer contents match exactly.

        *profiler* (a :class:`~repro.engine.profiler.StepProfiler`) splits
        the presentation into encode / integrate / stdp / wta sections.

        *out_counts* (int64, length ``n_neurons``) accumulates each
        neuron's post-arbitration spike count; jumps cannot skip an output
        spike, so counting only at explicit steps is exhaustive.
        """
        if n_steps < 0:
            raise SimulationError(f"n_steps must be >= 0, got {n_steps}")
        net = self.net
        lif = self._lif
        wta = self._wta
        clock = time.perf_counter

        beta = 1.0 + lif.b * dt_ms
        if not 0.0 < beta < 1.0:
            raise SimulationError(
                f"event-accelerated stepping needs a stable Euler step "
                f"(0 < 1 + b*dt < 1), got 1 + ({lif.b})*({dt_ms}) = {beta}"
            )

        if profiler is not None:
            _t0 = clock()
        net.present_image(image)
        raster = net.encoder.generate_train(n_steps, dt_ms, net.rngs.encoding)
        sparse = sparsify(raster)
        # The spike-time grid: the same float accumulation as the dense
        # loops, precomputed so jumps can land mid-presentation exactly.
        t_grid = np.empty(n_steps + 1, dtype=np.float64)  # host clock  # lint-ok: R6
        t_acc = t_ms
        for i in range(n_steps + 1):
            t_grid[i] = t_acc
            t_acc += dt_ms
        if profiler is not None:
            profiler.add("encode", clock() - _t0)

        neurons = net.neurons
        timers = net.timers
        has_decay = wta.current_tau_ms > 0.0
        gamma = net.current_decay(dt_ms) if has_decay else 0.0
        theta_decay = neurons.theta_decay(dt_ms)
        adapting = neurons.adaptation.enabled
        theta_plus = neurons.adaptation.theta_plus
        learning = net.learning_enabled
        inh_strength = neurons.inhibition_strength
        t_inh = wta.t_inh_ms
        single_winner = wta.single_winner
        ref_steps = _expiry_steps(lif.refractory_ms, dt_ms)
        # Inhibition is applied after the dense loop's timer decrement, so
        # it survives one step longer than its raw duration (see tests).
        inh_steps = _expiry_steps(t_inh, dt_ms) + 1
        a, b, c = lif.a, lif.b, lif.c
        v_reset, v_threshold = lif.v_reset, lif.v_threshold
        neg_b_inv = 1.0 / (-b)

        # State arrays: the network's live arrays on the host backend
        # (identity transfers), uploaded mirrors on a device backend with a
        # download at the end of the presentation.  The host conductance
        # matrix stays authoritative (STDP is a host subsystem); the
        # storage's device copy is read-only between column resyncs.
        ops = self._ops
        on_host = ops.is_host
        current = ops.to_device(net._current)
        v = ops.to_device(neurons._v)
        theta = ops.to_device(neurons._theta)
        storage = self.storage
        storage.begin()
        rng_learning = net.rngs.learning
        full_matrix = storage.full_matrix

        inj = self._inj
        scale = self._scale
        eff = self._eff
        dv = self._dv
        tmp = self._tmp
        thr = self._thr
        blocked = self._blocked
        inh_mask = self._inh_mask
        spikes = self._spikes
        danger = self._danger
        losers = self._losers
        ref_end = self._ref_end
        inh_end = self._inh_end

        # Import the float timers into integer expiry steps (step indices
        # relative to this presentation; ``end > j``  <=>  flagged at j).
        if on_host:
            np.ceil(neurons._refractory_left / dt_ms - 1e-12, out=tmp)
            np.maximum(tmp, 0.0, out=tmp)
            ref_end[:] = tmp.astype(np.int64)
            np.ceil(neurons._inhibited_left / dt_ms - 1e-12, out=tmp)
            np.maximum(tmp, 0.0, out=tmp)
            inh_end[:] = tmp.astype(np.int64)
        else:
            # The float timers are host state: convert on the host (same
            # arithmetic) and upload the integer result once.
            imported = np.ceil(neurons._refractory_left / dt_ms - 1e-12)
            np.maximum(imported, 0.0, out=imported)
            ref_end[:] = ops.to_device(imported.astype(np.int64))
            imported = np.ceil(neurons._inhibited_left / dt_ms - 1e-12)
            np.maximum(imported, 0.0, out=imported)
            inh_end[:] = ops.to_device(imported.astype(np.int64))

        big = n_steps + 1  # sentinel expiry beyond the presentation
        subtractive = self._subtractive
        conductance_model = self._conductance_model

        stats = self.stats
        stats.steps_total += n_steps
        stats.input_event_steps += int(sparse.event_steps.size)
        stats.raster_cells += n_steps * sparse.n_channels
        stats.raster_active_cells += sparse.n_events

        event_steps = sparse.event_steps
        n_events = event_steps.size
        offsets = sparse.offsets.tolist()
        channels = sparse.channels
        channels_dev = ops.to_device(channels)  # sliced on device per step

        total_spikes = 0
        evt_ptr = 0
        j = 0
        regimes_dirty = True
        next_expiry = 0
        blocked_any = False
        inh_any = False
        # Once the predictor flags a span, step it densely without
        # re-predicting every step; an output spike resets the flag (the
        # spiker is then refractory and thresholds moved, so a jump may
        # become safe again).
        no_jump_until = 0
        while j < n_steps:
            if regimes_dirty or j >= next_expiry:
                # Refresh regime masks; they stay valid until the earliest
                # pending expiry (or the next output spike sets new timers).
                np.greater(ref_end, j, out=blocked)
                np.greater(inh_end, j, out=inh_mask)
                if not subtractive:
                    np.logical_or(blocked, inh_mask, out=blocked)
                blocked_any = bool(blocked.any())
                inh_any = bool(inh_mask.any())
                nr = int(np.min(np.where(ref_end > j, ref_end, big)))
                ni = int(np.min(np.where(inh_end > j, inh_end, big)))
                next_expiry = min(nr, ni)
                regimes_dirty = False

            while evt_ptr < n_events and event_steps[evt_ptr] < j:
                evt_ptr += 1
            next_event = int(event_steps[evt_ptr]) if evt_ptr < n_events else n_steps

            if next_event > j and j >= no_jump_until:
                # --- quiescent span [j, seg_end): jump or step densely ---
                seg_end = min(next_event, next_expiry)
                m = seg_end - j
                if profiler is not None:
                    _t0 = clock()
                beta_m = beta**m
                # Conservative crossing predictor: bound every membrane over
                # the span by max(v, fixed point of the strongest drive) and
                # compare against the lowest reachable threshold.
                theta_floor = float(theta.min()) * (
                    theta_decay ** (m - 1) if adapting else 1.0
                )
                thr_floor = v_threshold + theta_floor - CROSSING_MARGIN
                np.multiply(current, c * gamma, out=tmp)
                tmp += a
                tmp *= neg_b_inv
                np.maximum(tmp, v, out=tmp)
                np.greater_equal(tmp, thr_floor, out=danger)
                if blocked_any:
                    danger[blocked] = False
                if not danger.any():
                    # --- closed-form jump over m steps --------------------
                    s_sum = (1.0 - beta_m) / (1.0 - beta)
                    v *= beta_m
                    v += a * dt_ms * s_sum
                    if has_decay:
                        gamma_m = gamma**m
                        if abs(beta - gamma) > 1e-12:
                            geom = (beta_m - gamma_m) / (beta - gamma)
                        else:
                            geom = m * beta ** (m - 1)
                        np.multiply(current, (c * dt_ms * gamma) * geom, out=tmp)
                        v += tmp
                        current *= gamma_m
                    else:
                        current.fill(0.0)
                    if subtractive and inh_any:
                        v[inh_mask] -= (inh_strength * c * dt_ms) * s_sum
                    if blocked_any:
                        v[blocked] = v_reset
                    np.maximum(v, v_reset, out=v)
                    if adapting:
                        theta *= theta_decay**m
                    stats.steps_skipped += m
                    stats.jumps += 1
                    j = seg_end
                    if profiler is not None:
                        profiler.add("integrate", clock() - _t0)
                    continue
                if profiler is not None:
                    profiler.add("integrate", clock() - _t0, calls=0)
                # A crossing is possible: fall through and step this span
                # densely, one step at a time, with exact spike detection.
                no_jump_until = seg_end

            # --- one explicit step (input event or dangerous span) -------
            if profiler is not None:
                _t0 = clock()
            t_now = t_grid[j]
            lo, hi = (offsets[j], offsets[j + 1]) if next_event == j else (0, 0)
            if hi > lo:
                timers._last_pre[channels[lo:hi]] = t_now
                storage.drive(channels_dev[lo:hi], inj)
                if conductance_model:
                    np.subtract(wta.e_excitatory, v, out=scale)
                    scale /= self._scale_denom
                    np.maximum(scale, 0.0, out=scale)
                    inj *= scale
                if has_decay:
                    current *= gamma
                    current += inj
                else:
                    np.copyto(current, inj)
            elif has_decay:
                current *= gamma
            else:
                current.fill(0.0)

            np.copyto(eff, current)
            if blocked_any:
                eff[blocked] = 0.0
            if subtractive and inh_any:
                eff[inh_mask] -= inh_strength

            np.multiply(v, b, out=dv)
            dv += a
            np.multiply(eff, c, out=tmp)
            dv += tmp
            dv *= dt_ms
            v += dv
            if blocked_any:
                v[blocked] = v_reset
            np.maximum(v, v_reset, out=v)

            np.add(theta, v_threshold, out=thr)
            np.greater_equal(v, thr, out=spikes)
            if blocked_any:
                spikes[blocked] = False
            n_fired = int(np.count_nonzero(spikes))
            if n_fired:
                v[spikes] = v_reset
                ref_end[spikes] = j + ref_steps

            if adapting:
                theta *= theta_decay
                if n_fired:
                    theta[spikes] += theta_plus
            if profiler is not None:
                _t1 = clock()
                profiler.add("integrate", _t1 - _t0, calls=0)

            if single_winner and n_fired > 1:
                contenders = np.flatnonzero(spikes)
                winner = contenders[np.argmax(current[contenders])]
                spikes.fill(False)
                spikes[winner] = True
                n_fired = 1
            if profiler is not None:
                _t2 = clock()
                profiler.add("wta", _t2 - _t1, calls=0)

            # STDP runs on the host (rules/quantisers are host subsystems):
            # on a device backend the spike mask is downloaded at the steps
            # that learn.  The reference rule of the fallback configs
            # (stochastic rounding, pair-LTD) only touches state / draws RNG
            # at post spikes (plus pre events in the pair modes), so calling
            # it exactly then keeps the learning stream identical.
            spikes_h = spikes if on_host else None
            if learning and (n_fired or (self._pair_ltd and hi > lo)):
                pre_mask = None
                if full_matrix:
                    pre_mask = self._pre_mask
                    pre_mask.fill(False)
                    pre_mask[channels[lo:hi]] = True
                if spikes_h is None:
                    spikes_h = ops.to_host(spikes)
                storage.learn(pre_mask, spikes_h, t_now, rng_learning)
            if n_fired:
                if spikes_h is None:
                    spikes_h = ops.to_host(spikes)
                timers._last_post[spikes_h] = t_now
                if out_counts is not None:
                    out_counts[spikes_h] += 1
            if profiler is not None:
                _t3 = clock()
                profiler.add("stdp", _t3 - _t2)

            if n_fired:
                if t_inh > 0.0:
                    np.logical_not(spikes, out=losers)
                    scratch = self._inh_scratch
                    np.multiply(losers, j + inh_steps, out=scratch)
                    np.maximum(inh_end, scratch, out=inh_end)
                regimes_dirty = True
                no_jump_until = 0
                stats.spike_steps += 1
            if profiler is not None:
                profiler.add("wta", clock() - _t3)

            total_spikes += n_fired
            stats.steps_stepped += 1
            j += 1

        # Export the integer timers back into the float state so the dense
        # engines (and `rest()`) see exactly what per-step decrements would
        # have left behind.  The float timers are host state, so a device
        # backend downloads the expiry steps first (same arithmetic after).
        ref_export = ref_end if on_host else ops.to_host(ref_end)
        inh_export = inh_end if on_host else ops.to_host(inh_end)
        np.subtract(ref_export, n_steps, out=ref_export)
        np.maximum(ref_export, 0, out=ref_export)
        np.multiply(ref_export, dt_ms, out=neurons._refractory_left, casting="unsafe")
        np.subtract(inh_export, n_steps, out=inh_export)
        np.maximum(inh_export, 0, out=inh_export)
        np.multiply(inh_export, dt_ms, out=neurons._inhibited_left, casting="unsafe")

        if not on_host:
            # Download the stepped state into the live host arrays so every
            # boundary consumer keeps seeing plain host floats.
            np.copyto(net._current, ops.to_host(current))
            np.copyto(neurons._v, ops.to_host(v))
            np.copyto(neurons._theta, ops.to_host(theta))

        return total_spikes, t_grid[n_steps]
