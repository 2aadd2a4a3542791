"""Column-restricted STDP shared by the fast training kernels.

The fused clock-driven kernel (:mod:`repro.engine.fused`) and the
event-accelerated kernel (:mod:`repro.engine.event_train`) exploit the same
observation: at a post-synaptic spike the STDP rules only change the
*spiking columns* of the conductance matrix, so the full-matrix
delta/quantise round trip in ``ConductanceMatrix.apply_delta`` can be
replaced by an update of those columns alone.

Each rule body is written once, against the conductance storage of
:mod:`repro.engine.storage`: it reads the spiking columns as float
conductances (``storage.columns``), stages host-computed masks where the
storage lives (``storage.upload``) and hands the float delta back
(``storage.apply_columns``).  Float storage applies it through
:meth:`~repro.synapses.conductance.ConductanceMatrix.apply_delta_columns`;
code storage rounds it straight to signed code increments, fusing eq.-8
stochastic rounding into the scatter with draws from the dedicated
``qrounding`` stream.

The learned values are identical to the full-matrix path; on float storage
the restriction is only valid when the quantiser draws no RNG inside
``quantize()``/``quantize_delta()`` (otherwise the skipped columns would
have consumed draws in the full-matrix path and the ``learning`` stream
would diverge).  Stochastic *rounding* and the pair-LTD modes therefore
resolve to ``None`` in :func:`resolve_fast_rule` and the kernels fall back
to the reference rule object.  The Bernoulli draw shapes in the stochastic
rule are ``(n_pre, k)`` in the reference implementation already, so
consuming the ``learning`` stream identically is free; bit-identity of
both the conductances and the RNG stream position is part of the fused
kernel's contract and covered by ``tests/test_fused.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.config.parameters import RoundingMode
from repro.errors import ConfigurationError
from repro.learning.base import STDPRule
from repro.learning.deterministic import DeterministicSTDP
from repro.learning.stochastic import LTDMode, StochasticSTDP
from repro.learning.updates import (
    depression_magnitude,
    depression_probability,
    potentiation_magnitude,
    potentiation_probability,
)
from repro.quantization.quantizer import FloatQuantizer

if TYPE_CHECKING:
    from repro.engine.storage import ConductanceStorage
    from repro.network.wta import WTANetwork
    from repro.synapses.traces import SpikeTimers

#: A column-restricted rule body: ``(rule, storage, timers, post, t_ms, rng)``.
RuleColumns = Callable[..., None]


def stochastic_rule_columns(
    rule: StochasticSTDP,
    storage: ConductanceStorage,
    timers: SpikeTimers,
    post: np.ndarray,
    t_ms: float,
    rng: np.random.Generator,
) -> None:
    """``StochasticSTDP._post_spike_updates`` on the spiking columns only."""
    elapsed = timers.elapsed_pre(t_ms)
    p_pot = potentiation_probability(elapsed, rule.params)
    cols = np.flatnonzero(post)
    draws = rng.random(size=(elapsed.shape[0], cols.size))
    pot_mask = draws < p_pot[:, None]

    p_dep = depression_probability(elapsed, rule.params)
    dep_draws = rng.random(size=pot_mask.shape)
    dep_mask = ~pot_mask & (dep_draws < p_dep[:, None])
    if not pot_mask.any() and not dep_mask.any():
        return

    g_cols = storage.columns(cols)
    dg_pot = potentiation_magnitude(g_cols, rule.magnitudes)
    dg_dep = depression_magnitude(g_cols, rule.magnitudes)
    delta_cols = np.where(storage.upload(pot_mask), dg_pot, 0.0) - np.where(
        storage.upload(dep_mask), dg_dep, 0.0
    )
    storage.apply_columns(cols, delta_cols)


def deterministic_rule_columns(
    rule: DeterministicSTDP,
    storage: ConductanceStorage,
    timers: SpikeTimers,
    post: np.ndarray,
    t_ms: float,
    rng: np.random.Generator,
) -> None:
    """``DeterministicSTDP.step`` on the spiking columns only (no draws)."""
    elapsed = timers.elapsed_pre(t_ms)
    recent = elapsed <= rule.params.window_ms
    cols = np.flatnonzero(post)
    g_cols = storage.columns(cols)
    dg_pot = potentiation_magnitude(g_cols, rule.params)
    dg_dep = depression_magnitude(g_cols, rule.params)
    delta_cols = np.where(storage.upload(recent[:, None]), dg_pot, -dg_dep)
    storage.apply_columns(cols, delta_cols)


def _rule_columns(rule: STDPRule) -> Optional[RuleColumns]:
    """The column-restricted body serving *rule*, or ``None``.

    Plain deterministic STDP, or stochastic STDP with post-event LTD; the
    pair-LTD modes touch the learning stream at pre-spike steps too.
    """
    if isinstance(rule, DeterministicSTDP):
        return deterministic_rule_columns
    if isinstance(rule, StochasticSTDP) and rule.ltd_mode is LTDMode.POST_EVENT:
        return stochastic_rule_columns
    return None


def resolve_fast_rule(network: WTANetwork) -> Optional[RuleColumns]:
    """The rule body float storage may run column-restricted, or ``None``.

    ``None`` when the rule/quantiser combination does not admit the column
    restriction (kernels then call the reference ``rule.step`` full-matrix
    path, which remains bit-identical by construction).
    """
    quantizer = network.synapses.quantizer
    if not isinstance(quantizer, FloatQuantizer) and (
        quantizer.rounding is RoundingMode.STOCHASTIC
    ):
        return None
    return _rule_columns(network.rule)


def resolve_quantized_rule(network: WTANetwork) -> RuleColumns:
    """The rule body code storage runs, or raise.

    Code storage serves exactly the column-restricted rules.  The pair-LTD
    modes have no code-domain equivalent, so — unlike
    :func:`resolve_fast_rule`'s ``None``-means-fallback contract — an
    unsupported rule is a configuration error here.
    """
    body = _rule_columns(network.rule)
    if body is None:
        raise ConfigurationError(
            "the integer-native engines serve the column-restricted STDP rules "
            "only (stdp.kind='deterministic', or 'stochastic' with "
            "ltd_mode='post_event'); pair-LTD modes need the full-matrix "
            "reference path of the 'fused' engine"
        )
    return body
