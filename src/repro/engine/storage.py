"""Conductance storage for the fused training loop: float array or Q-format codes.

The fused presentation kernel (:mod:`repro.engine.fused`) is one loop for
every precision.  How the synapse conductances are *stored* during a
presentation — the paper's low-precision module — is this module's job,
behind four seams the loop calls:

- :meth:`begin` — boundary sync in: bind the matrix the presentation
  reads from ``network.synapses.g``, which is authoritative between
  presentations (the normaliser or a checkpoint restore may have touched
  it);
- :meth:`drive` — the eq.-3 drive of one step's spiking input rows;
- :meth:`learn` — STDP at one step, on the spiking columns only where the
  rule admits it (:mod:`repro.engine.plasticity`);
- :meth:`end` — boundary sync out, so everything outside a presentation
  (weight normalisation, checkpoints, monitors, the health sentinel) keeps
  seeing ordinary float conductances.

:class:`FloatStorage` (engine ``fused``, and the ``event`` kernel) keeps
the live float64 ``synapses.g`` and never touches a
:class:`~repro.quantization.codec.QCodec`.  :class:`CodeStorage` (engine
``qfused``) holds uint8/uint16 codes ``k`` with ``G = k * 2^-n``:

- the drive accumulates codes with an int64 row-gather sum and applies one
  precomputed scale factor ``resolution * amplitude`` — exactly the float
  path's ordered gather (:func:`~repro.encoding.events.gather_drive`):
  on-grid sums below 2^53 are exact in float64 in any order, and the scale
  factor is a power-of-two multiple of the amplitude, so both are one
  rounding of the same real product;
- STDP rounds each delta straight to signed code increments: eq.-8
  stochastic rounding is an integer compare-against-random, drawing one
  uniform per changed synapse from the dedicated ``qrounding`` stream
  instead of a full-matrix draw, and the ≤8-bit fixed-LSB regime updates by
  ±1 code with no draws at all.

Equivalence contract of code storage (enforced by ``tests/test_qfused.py``
and the ``bench_training --check`` gate):

- with truncate/nearest rounding — and in evaluation mode always — results
  are **bit-identical** to float storage under pinned seeds;
- with stochastic rounding the RNG accounting intentionally differs from
  the float-simulated path (that is the point), so the oracle is the
  *shadow twin*: ``CodeStorage(network, dtype=np.float64)``, the identical
  algorithm with the codes held in float64.  Spike counts and decoded
  conductances match the twin bit for bit at matched draws, verifying the
  integer arithmetic itself is exact.

Both storages are backend-generic.  Float storage keeps the host matrix
authoritative (STDP is a host subsystem): the device copy is uploaded at
:meth:`begin` and the updated columns re-uploaded after each update.  Code
storage keeps the codes device-resident for the whole run; timer state and
the Bernoulli draws stay on the host, so their masks are uploaded through
the explicit ``ops.to_device`` seam, the ``qrounding`` stream arrives as a
:class:`~repro.engine.rng.DeviceRng`, and :meth:`end` downloads the codes
once — results are bit-identical across backends.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Union

import numpy as np

from repro.backend import backend_ops
from repro.encoding.events import gather_drive
from repro.engine.plasticity import resolve_fast_rule, resolve_quantized_rule
from repro.errors import ConfigurationError
from repro.quantization.codec import require_codec

if TYPE_CHECKING:
    from repro.network.wta import WTANetwork


class FloatStorage:
    """Live float64 conductances: the network's own ``synapses.g``."""

    def __init__(self, network: WTANetwork) -> None:
        self.ops = backend_ops()
        self.net = network
        self._amplitude = network.amplitude
        # Column-restricted rule body, or None: configs the restriction
        # cannot serve (stochastic rounding, pair-LTD) call the reference
        # rule object on the whole matrix at every learning step.
        self._rule_columns = resolve_fast_rule(network)
        self.full_matrix = self._rule_columns is None
        self._g: Any = None

    def begin(self) -> None:
        """Bind the drive operand: the live matrix, or its device copy."""
        self._g = self.ops.to_device(self.net.synapses.g)

    def drive(self, rows: Any, out: Any) -> None:
        """Eq. 3 into *out*: the ordered row gather of the reference loop."""
        gather_drive(self._g, rows, self._amplitude, out)

    def learn(
        self, pre: Any, post: np.ndarray, t_ms: float, rng: np.random.Generator
    ) -> None:
        """One step of STDP on the host matrix (*pre* feeds the fallback)."""
        net = self.net
        ops = self.ops
        if self._rule_columns is None:
            net.rule.step(net.synapses, net.timers, pre, post, t_ms, rng)
            if not ops.is_host:
                # The reference path may touch the whole matrix.
                self._g = ops.to_device(net.synapses.g)
            return
        self._rule_columns(net.rule, self, net.timers, post, t_ms, rng)
        if not ops.is_host:
            cols = np.flatnonzero(post)
            self._g[:, cols] = ops.to_device(net.synapses.g[:, cols])

    def columns(self, cols: np.ndarray) -> np.ndarray:
        """The *cols* columns as float conductances (rule-body read)."""
        return self.net.synapses.g[:, cols]

    def upload(self, mask: np.ndarray) -> np.ndarray:
        """A host mask, placed where :meth:`columns` lives: the host."""
        return mask

    def apply_columns(self, cols: np.ndarray, delta_cols: np.ndarray) -> None:
        """Quantise, apply and clamp a float delta on the *cols* columns."""
        # Column-restricted configs have an RNG-free quantiser: no stream.
        self.net.synapses.apply_delta_columns(cols, delta_cols)

    def end(self) -> None:
        """Nothing to sync: the host matrix was updated in place."""


class CodeStorage:
    """Q-format codes (uint8/uint16), live for the whole presentation.

    *dtype* ``np.float64`` selects the shadow twin, the stochastic-rounding
    equivalence oracle; the default is the codec's unsigned storage dtype.
    """

    def __init__(self, network: WTANetwork, dtype: Optional[Any] = None) -> None:
        self.ops = backend_ops()
        self.net = network
        self._rule_columns = resolve_quantized_rule(network)
        self.full_matrix = False
        self.codec = codec = require_codec(network.synapses.quantizer, "qfused")
        dtype = codec.dtype if dtype is None else np.dtype(dtype)
        if dtype not in (codec.dtype, np.dtype(np.float64)):
            raise ConfigurationError(
                f"qfused code storage must be {codec.dtype} or float64 (the "
                f"shadow twin), got {dtype}"
            )
        # `resolution * amplitude` is exact: the resolution is a power of
        # two, so the product only shifts the amplitude's exponent.
        self._scale = codec.resolution * network.amplitude
        self._acc_dtype = np.dtype(np.int64 if dtype.kind == "u" else np.float64)
        self.codes = self.ops.xp.zeros(network.synapses.g.shape, dtype=dtype)
        self._rounding: Any = None

    def begin(self) -> None:
        """Encode the float matrix (on the storage grid, so exactly)."""
        ops = self.ops
        # Eq.-8 rounding draws stay host-ordered on every backend; on a
        # device backend the stream arrives wrapped so draws upload.
        self._rounding = self.net.rngs.device_stream("qrounding", ops)
        codes = self.codes
        np.copyto(codes, self.codec.encode(self.net.synapses.g, dtype=codes.dtype, xp=ops.xp))

    def drive(self, rows: Any, out: Any) -> None:
        """Eq. 3 into *out*: an exact code sum, scaled once."""
        self.codec.gather_drive(self.codes, rows, self._scale, out, self._acc_dtype)

    def learn(
        self, pre: Any, post: np.ndarray, t_ms: float, rng: np.random.Generator
    ) -> None:
        """One step of column-restricted STDP on the codes."""
        self._rule_columns(self.net.rule, self, self.net.timers, post, t_ms, rng)

    def columns(self, cols: np.ndarray) -> Any:
        return self.codec.decode(self.codes[:, cols])

    def upload(self, mask: np.ndarray) -> Any:
        return self.ops.to_device(mask)

    def apply_columns(self, cols: np.ndarray, delta_cols: Any) -> None:
        codec = self.codec
        delta_codes = np.where(
            delta_cols != 0.0,
            codec.delta_codes(delta_cols, self._rounding, xp=self.ops.xp),
            0.0,
        )
        mask = self.net.synapses.connectivity
        mask_cols = None if mask is None else self.upload(mask[:, cols])
        codec.apply_delta_codes(self.codes, cols, delta_codes, mask_cols)

    def end(self) -> None:
        """Decode the codes back into ``synapses.g``."""
        codes = self.codes if self.ops.is_host else self.ops.to_host(self.codes)
        self.codec.decode_into(codes, self.net.synapses.g)


#: Either storage, as the fused loop and the STDP rule bodies see it.
ConductanceStorage = Union[FloatStorage, CodeStorage]
