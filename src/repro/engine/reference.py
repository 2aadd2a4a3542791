"""Per-neuron scalar reference engine (the Fig. 4 comparison role).

The paper validates ParallelSpikeSim by showing its spiking activity matches
CARLsim on a 10^3-neuron / 10^4-synapse LIF network, then compares
simulation performance.  Our stand-in is an *independent* second
implementation of the identical LIF semantics, written as explicit
per-neuron Python loops (the way a naive single-threaded simulator iterates
neurons one at a time):

- :class:`ReferenceLIFNeuron` — one neuron, scalar state, the same update
  order as :class:`repro.neurons.LIFPopulation.step` (blocked-current
  handling, Euler step, refractory pinning, threshold/reset, timer decay);
- :class:`ReferenceLIFSimulator` — a population of reference neurons plus a
  dense input weight matrix, driven by a precomputed input spike raster.

Given the same raster, weights and parameters, the reference simulator and
the vectorised engine must produce *bit-identical* spike trains — the
cross-validation test asserts exactly that — and their wall-clock ratio is
the Fig. 4 performance comparison.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.config.parameters import LIFParameters
from repro.encoding.events import gather_drive
from repro.errors import SimulationError


class ReferenceLIFNeuron:
    """A single LIF neuron with scalar state (loop-based reference)."""

    def __init__(self, params: LIFParameters, inhibition_strength: float = 0.0) -> None:
        self.params = params
        self.inhibition_strength = float(inhibition_strength)
        self.v = params.v_init
        self.refractory_left = 0.0
        self.inhibited_left = 0.0

    def step(self, current: float, dt_ms: float) -> bool:
        """One Euler step; mirrors LIFPopulation.step exactly."""
        p = self.params
        inhibited = self.inhibited_left > 0.0
        if self.inhibition_strength > 0.0:
            blocked = self.refractory_left > 0.0
            effective_current = 0.0 if blocked else current
            if inhibited:
                effective_current -= self.inhibition_strength
        else:
            blocked = self.refractory_left > 0.0 or inhibited
            effective_current = 0.0 if blocked else current

        self.v += (p.a + p.b * self.v + p.c * effective_current) * dt_ms
        if blocked:
            self.v = p.v_reset
        self.v = max(self.v, p.v_reset)

        spiked = self.v >= p.v_threshold and not blocked
        if spiked:
            self.v = p.v_reset
            self.refractory_left = p.refractory_ms

        self.refractory_left = max(self.refractory_left - dt_ms, 0.0)
        self.inhibited_left = max(self.inhibited_left - dt_ms, 0.0)
        return spiked

    def reset_state(self) -> None:
        self.v = self.params.v_init
        self.refractory_left = 0.0
        self.inhibited_left = 0.0


class ReferenceLIFSimulator:
    """Loop-based simulator: N reference neurons behind a weight matrix."""

    def __init__(
        self,
        weights: np.ndarray,
        params: LIFParameters = LIFParameters(),
        input_spike_amplitude: float = 1.0,
    ) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise SimulationError(f"weights must be 2-D (n_pre, n_post), got {weights.shape}")
        self.weights = weights
        self.n_pre, self.n_post = weights.shape
        self.amplitude = float(input_spike_amplitude)
        self.neurons: List[ReferenceLIFNeuron] = [
            ReferenceLIFNeuron(params) for _ in range(self.n_post)
        ]

    def run(self, input_raster: np.ndarray, dt_ms: float = 1.0) -> np.ndarray:
        """Simulate over a boolean raster ``(n_steps, n_pre)``.

        Returns the output spike raster ``(n_steps, n_post)``.  All inner
        arithmetic is per-neuron scalar Python — intentionally slow; this is
        the baseline the vectorised engine is benchmarked against.
        """
        raster = np.asarray(input_raster, dtype=bool)
        if raster.ndim != 2 or raster.shape[1] != self.n_pre:
            raise SimulationError(
                f"raster must have shape (steps, {self.n_pre}), got {raster.shape}"
            )
        n_steps = raster.shape[0]
        out = np.zeros((n_steps, self.n_post), dtype=bool)
        for step_idx in range(n_steps):
            active = np.flatnonzero(raster[step_idx])
            for j, neuron in enumerate(self.neurons):
                current = 0.0
                for i in active:
                    current += self.weights[i, j]
                current *= self.amplitude
                out[step_idx, j] = neuron.step(current, dt_ms)
        return out

    def reset_state(self) -> None:
        for neuron in self.neurons:
            neuron.reset_state()


def vectorized_lif_run(
    weights: np.ndarray,
    input_raster: np.ndarray,
    params: LIFParameters = LIFParameters(),
    input_spike_amplitude: float = 1.0,
    dt_ms: float = 1.0,
) -> np.ndarray:
    """Run the same experiment on the vectorised population.

    Companion helper for the Fig. 4 cross-validation: identical inputs in,
    output raster out, but using :class:`repro.neurons.LIFPopulation` and
    one row gather per step (the scalar loop's own ascending-order sum).
    """
    from repro.neurons.lif import LIFPopulation

    weights = np.asarray(weights, dtype=np.float64)
    raster = np.asarray(input_raster, dtype=bool)
    if raster.ndim != 2 or raster.shape[1] != weights.shape[0]:
        raise SimulationError(
            f"raster shape {raster.shape} incompatible with weights {weights.shape}"
        )
    population = LIFPopulation(weights.shape[1], params)
    out = np.zeros((raster.shape[0], weights.shape[1]), dtype=bool)
    for step_idx in range(raster.shape[0]):
        current = gather_drive(weights, np.flatnonzero(raster[step_idx]), input_spike_amplitude)
        out[step_idx] = population.step(current, dt_ms)
    return out
