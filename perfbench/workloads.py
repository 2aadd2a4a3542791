"""The benchmark's workloads and the layer -> end-to-end metric map.

Every workload is one single-process batch run of the paper's pipeline
(dataset -> network -> train -> label -> infer) through the public API that
``python -m repro run`` uses.  The shapes are chosen so each workload stresses
a different layer (see README.md in this directory for the rationale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class Workload:
    """One pipeline shape.  The benchmark seed feeds the dataset and config."""

    name: str
    preset: str
    n_neurons: int
    size: int
    n_train: int
    epochs: int
    n_test: int
    n_labeling: int
    train_engine: str
    eval_engine: str
    #: Images between autosaves; ``None`` runs without a checkpoint policy.
    autosave_every: Optional[int] = None
    #: Whether the run must beat the chance-derived accuracy floor.  Only
    #: workloads that train long enough to learn can be held to it.
    expect_learning: bool = False

    @property
    def train_presentations(self) -> int:
        return self.n_train * self.epochs

    @property
    def presentations(self) -> int:
        """Presentations one pipeline attempts: training plus label + infer."""
        return self.train_presentations + self.n_test


WORKLOADS: Dict[str, Workload] = {
    # Exactly the `repro run` defaults: float32 preset, stochastic STDP,
    # 25 neurons on 16x16, 200 images x 2 epochs, 100 test (40 label).  The
    # 256x25 matrix is tiny, so per-step fixed cost dominates.
    "cli-small": Workload(
        name="cli-small", preset="float32", n_neurons=25, size=16,
        n_train=200, epochs=2, n_test=100, n_labeling=40,
        train_engine="fused", eval_engine="fused", expect_learning=True,
    ),
    # Paper width and geometry in the 5-78 Hz / 100 ms mode: the 784x1000
    # float64 matrix (6.3 MB) overflows L2, so integrate + STDP arithmetic
    # dominates; the only workload that writes checkpoints (CLI cadence).
    "paper-hf-float": Workload(
        name="paper-hf-float", preset="high_frequency", n_neurons=1000, size=28,
        n_train=100, epochs=1, n_test=40, n_labeling=20,
        train_engine="fused", eval_engine="fused", autosave_every=50,
    ),
    # Table II 8-bit option (Q1.7, stochastic rounding) at paper geometry:
    # integer-code training (qfused) and integer-code inference (qbatched),
    # the only workload that touches repro.quantization.  Inference dominates.
    "paper-q8": Workload(
        name="paper-q8", preset="8bit", n_neurons=1000, size=28,
        n_train=50, epochs=1, n_test=12, n_labeling=6,
        train_engine="qfused", eval_engine="qbatched",
    ),
}


#: End-to-end metrics (measured with tracing off) and their units.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "e2e_s": "s",
    "train_img_per_s": "img/s",
    "eval_img_per_s": "img/s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Layer:
    """One per-layer metric: what is timed and what it should move where."""

    unit: str
    timed_call: str
    moves: str
    most_work_on: str
    zero_on: str = "-"


_KERNEL = "training kernel run"
_TRAIN = "train_img_per_s"
_EVAL = "eval_img_per_s"
_GUARD = "guard-backend pass, per presentation"
_NONE_ON_CPU = "none on CPU (exact counts a GPU run would make)"
_FLOATS = "cli-small,paper-hf-float"
_NOT_HF = "cli-small,paper-q8"

#: Per-layer metric (reported by the traced run) -> :class:`Layer`.
LAYER_MAP: Dict[str, Layer] = {
    "datasets.load_s": Layer("s", "load_dataset", "setup_s", "paper-*"),
    "network.build_s": Layer("s", "build_network", "setup_s", "all"),
    "pipeline.train_self_s": Layer(
        "s", "UnsupervisedTrainer.train minus its child spans", _TRAIN, "cli-small", "paper-*"
    ),
    "engine.train_s": Layer("s", _KERNEL, _TRAIN + ",e2e_s", "all"),
    "engine.present_ms.p50": Layer("ms", _KERNEL, _TRAIN + ",e2e_s", "all"),
    "engine.present_ms.p95": Layer("ms", _KERNEL, _TRAIN + ",e2e_s", "all"),
    "engine.presentations": Layer("count", _KERNEL, _TRAIN + ",e2e_s", "all"),
    "engine.steps": Layer("count", _KERNEL, _TRAIN + ",e2e_s", "all"),
    "engine.out_spikes": Layer("count", _KERNEL, _TRAIN + ",e2e_s", "all"),
    "encoding.encode_s": Layer("s", "StepProfiler encode", _TRAIN, "cli-small"),
    "engine.wta_s": Layer("s", "StepProfiler wta", _TRAIN, "cli-small"),
    "engine.integrate_s": Layer(
        "s", "StepProfiler integrate", _TRAIN, "paper-hf-float,paper-q8", "cli-small"
    ),
    "engine.stdp_s": Layer(
        "s", "StepProfiler stdp", _TRAIN, "paper-hf-float,paper-q8", "cli-small"
    ),
    "learning.normalize_s": Layer("s", "WeightNormalizer.after_image", _TRAIN, "all"),
    "learning.normalizations": Layer("count", "WeightNormalizer.after_image", _TRAIN, "all"),
    "quantization.codec_s": Layer(
        "s", "QCodec public methods during training", _TRAIN, "paper-q8", _FLOATS
    ),
    "quantization.codec_calls": Layer(
        "count", "QCodec public methods during training", _TRAIN, "paper-q8", _FLOATS
    ),
    "engine.eval_s": Layer(
        "s", "Evaluator.collect_responses", _EVAL, "paper-q8", "paper-hf-float"
    ),
    "engine.eval_images": Layer(
        "count", "Evaluator.collect_responses", _EVAL, "paper-q8", "paper-hf-float"
    ),
    "quantization.batched_drive_s": Layer(
        "s", "QCodec.batched_drive", _EVAL, "paper-q8", _FLOATS
    ),
    "quantization.batched_drive_calls": Layer(
        "count", "QCodec.batched_drive", _EVAL, "paper-q8", _FLOATS
    ),
    "network.classify_s": Layer("s", "classify_batch", _EVAL, "small everywhere"),
    "io.autosave_s": Layer(
        "s", "AutosavePolicy.maybe_save", _TRAIN, "paper-hf-float", _NOT_HF
    ),
    "io.saves": Layer("count", "AutosavePolicy.maybe_save", _TRAIN, "paper-hf-float", _NOT_HF),
    "io.checkpoint_bytes": Layer(
        "bytes", "AutosavePolicy.maybe_save", _TRAIN, "paper-hf-float", _NOT_HF
    ),
    "backend.h2d": Layer("count", _GUARD, _NONE_ON_CPU, "all"),
    "backend.d2h": Layer("count", _GUARD, _NONE_ON_CPU, "all"),
    "backend.allocs": Layer("count", _GUARD, _NONE_ON_CPU, "all"),
    "trace.overhead_frac": Layer("fraction", "traced minus untraced e2e_s", "-", "-"),
    "accuracy": Layer("fraction", "Evaluator.evaluate (label then infer)", "-", "cli-small"),
}


def predicted_zero(metric: str, workload: str) -> bool:
    """Whether *metric* is predicted to read exactly 0 on *workload*.

    Only the quantization and io counters are exact-zero predictions; the
    other ``zero_on`` entries mean "small", not "absent".
    """
    if not metric.startswith(("quantization.", "io.")):
        return False
    return workload in LAYER_MAP[metric].zero_on.split(",")
