"""Shared interface for synapse groups.

A synapse group connects ``n_pre`` sources to ``n_post`` targets and can
propagate a boolean pre-spike vector into a per-target current contribution
(eq. 3): ``I = W^T s * amplitude``.  Both the plastic
:class:`~repro.synapses.conductance.ConductanceMatrix` and the fixed
:class:`~repro.synapses.static.StaticSynapses` implement this interface so
engines and network builders can treat them uniformly.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.encoding.events import gather_drive
from repro.errors import TopologyError


class SynapseGroup(abc.ABC):
    """Abstract dense connection from ``n_pre`` sources to ``n_post`` targets."""

    def __init__(self, n_pre: int, n_post: int) -> None:
        if n_pre < 1 or n_post < 1:
            raise TopologyError(f"synapse group needs n_pre, n_post >= 1, got ({n_pre}, {n_post})")
        self._n_pre = int(n_pre)
        self._n_post = int(n_post)

    @property
    def n_pre(self) -> int:
        return self._n_pre

    @property
    def n_post(self) -> int:
        return self._n_post

    @property
    @abc.abstractmethod
    def weights(self) -> np.ndarray:
        """Weight/conductance matrix of shape ``(n_pre, n_post)``."""

    def propagate(self, pre_spikes: np.ndarray, amplitude: float = 1.0) -> np.ndarray:
        """Per-target current from a boolean pre-spike vector (eq. 3)."""
        pre = np.asarray(pre_spikes)
        if pre.shape != (self._n_pre,):
            raise TopologyError(
                f"pre_spikes must have shape ({self._n_pre},), got {pre.shape}"
            )
        return gather_drive(self.weights, np.flatnonzero(pre), amplitude)
