"""Set up, run and check the train -> label -> infer pipeline; time it end to end.

:func:`set_up` builds one :class:`Pipeline`, paying everything a user pays
before the first presentation (``load_dataset``, ``get_preset``,
``build_network``, trainer/evaluator/autosave/sentinel construction and a
first BLAS call), and :meth:`Pipeline.run` trains, labels and infers.  The
benchmark is a closed loop with one client: the next pipeline starts only
after the previous one has finished.

Every pipeline's outputs are checked (:func:`check_outputs`) and
fingerprinted (:func:`fingerprint`); repeats within a run must produce the
same fingerprint.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.config.presets import get_preset
from repro.datasets.dataset import load_dataset
from repro.engine.registry import create_training_engine
from repro.network.wta import WTANetwork
from repro.pipeline.evaluator import EvaluationResult, Evaluator
from repro.pipeline.experiment import build_network
from repro.pipeline.progress import NullProgress
from repro.pipeline.trainer import TrainingLog, UnsupervisedTrainer
from repro.quantization.codec import codec_for
from repro.resilience.autosave import AutosavePolicy
from repro.resilience.sentinel import RANGE_ATOL, NumericHealthSentinel

from tracing import Tracer, TracedEngine, instrument, no_span
from workloads import END_TO_END_UNITS, LAYER_MAP, Workload

#: Pipelines per run at least: the second one is the determinism repeat.
MIN_PIPELINES = 2
#: Set-ups per run at least (each pipeline sets up once; extra set-ups are
#: timed and discarded), so ``setup_s`` is a median of several.
MIN_SETUPS = 5

#: Presentations per throughput sample: the cadence at which ``repro run``
#: prints progress and writes autosaves, so every chunk carries its save.
CHUNK = 50

clock = time.perf_counter


class ChunkTimer(NullProgress):
    """Progress sink that records presentations per second of every chunk.

    It takes the callbacks the trainer and evaluator already make, so a
    phase yields many throughput samples instead of one.  Engines that
    present all images at once (``batched``) report no chunks.
    """

    def __init__(self) -> None:
        self.rates: List[float] = []
        self._done = 0
        self._since = 0
        self._t = 0.0

    def start(self, total: int, label: str) -> None:
        self._done = self._since = 0
        self._t = clock()

    def update(self, done: int, note: str = "") -> None:
        self._done = done
        if done - self._since >= CHUNK:
            self._close()

    def finish(self) -> None:
        if self._done > self._since:
            self._close()

    def _close(self) -> None:
        now = clock()
        self.rates.append((self._done - self._since) / (now - self._t))
        self._since, self._t = self._done, now


@dataclass
class Pipeline:
    """Everything built before the first presentation."""

    workload: Workload
    network: WTANetwork
    trainer: UnsupervisedTrainer
    evaluator: Evaluator
    train_images: np.ndarray
    splits: tuple
    autosave: Optional[AutosavePolicy]
    sentinel: NumericHealthSentinel
    train_timer: ChunkTimer
    eval_timer: ChunkTimer
    setup_s: float
    tracer: Optional[Tracer] = None

    def run(self) -> "PipelineRun":
        span = self.tracer.span if self.tracer is not None else no_span
        t0 = clock()
        with span("pipeline.train"):
            log = self.trainer.train(
                self.train_images,
                epochs=self.workload.epochs,
                autosave=self.autosave,
                sentinel=self.sentinel,
            )
        t1 = clock()
        with span("pipeline.evaluate"):
            evaluation = self.evaluator.evaluate(*self.splits)
        t2 = clock()
        # Image-parallel engines present the whole phase at once: one sample.
        eval_rates = self.eval_timer.rates or [self.workload.n_test / (t2 - t1)]
        return PipelineRun(
            setup_s=self.setup_s,
            train_s=t1 - t0,
            eval_s=t2 - t1,
            train_rates=self.train_timer.rates,
            eval_rates=eval_rates,
            log=log,
            evaluation=evaluation,
            problems=check_outputs(self.workload, self.network, log, evaluation),
            fingerprint=fingerprint(self.network, log, evaluation),
        )


@dataclass
class PipelineRun:
    """Timings, outputs and verdict of one pipeline."""

    setup_s: float
    train_s: float
    eval_s: float
    #: Presentations per second of each 50-presentation chunk.
    train_rates: List[float]
    eval_rates: List[float]
    log: TrainingLog
    evaluation: EvaluationResult
    problems: List[str]
    fingerprint: str

    @property
    def e2e_s(self) -> float:
        return self.train_s + self.eval_s


def set_up(
    workload: Workload, seed: int, workdir: Path, tracer: Optional[Tracer] = None
) -> Pipeline:
    """Build one pipeline from *seed*, which feeds both dataset and config."""
    w = workload
    span = tracer.span if tracer is not None else no_span
    start = clock()
    with span("datasets.load"):
        dataset = load_dataset(
            "mnist", n_train=w.n_train, n_test=w.n_test, size=w.size, seed=seed
        )
    config = get_preset(w.preset, n_neurons=w.n_neurons, seed=seed)
    with span("network.build"):
        network = build_network(config, dataset.n_pixels)
    engine = w.train_engine
    if tracer is not None:
        engine = TracedEngine(create_training_engine(w.train_engine, network), engine, tracer)
    train_timer, eval_timer = ChunkTimer(), ChunkTimer()
    trainer = UnsupervisedTrainer(network, progress=train_timer, engine=engine)
    evaluator = Evaluator(
        network, n_classes=dataset.n_classes, progress=eval_timer, engine=w.eval_engine
    )
    autosave = None
    if w.autosave_every is not None:
        autosave = AutosavePolicy(workdir / "autosave.npz", every_images=w.autosave_every)
    splits = dataset.labeling_split(w.n_labeling)
    # First-call BLAS/allocator warm-up is charged here, to set-up, never to
    # a phase throughput.
    np.ones(dataset.n_pixels) @ network.conductances
    return Pipeline(
        workload=w,
        network=network,
        trainer=trainer,
        evaluator=evaluator,
        train_images=dataset.train_images,
        splits=splits,
        autosave=autosave,
        sentinel=NumericHealthSentinel(),
        train_timer=train_timer,
        eval_timer=eval_timer,
        setup_s=clock() - start,
        tracer=tracer,
    )


def accuracy_floor(n_infer: int, n_classes: int = 10) -> float:
    """Chance accuracy plus three binomial standard deviations."""
    chance = 1.0 / n_classes
    return chance + 3.0 * math.sqrt(chance * (1.0 - chance) / n_infer)


def check_outputs(
    workload: Workload,
    network: WTANetwork,
    log: TrainingLog,
    evaluation: EvaluationResult,
) -> List[str]:
    """Problems with one pipeline's outputs; empty when they are correct."""
    problems = []
    g = network.conductances
    syn = network.synapses
    if not np.isfinite(g).all():
        problems.append("non-finite conductances")
    elif g.min() < syn.g_min - RANGE_ATOL or g.max() > syn.g_max + RANGE_ATOL:
        problems.append(
            f"conductances [{g.min()}, {g.max()}] outside [{syn.g_min}, {syn.g_max}]"
        )
    codec = codec_for(syn.quantizer)
    if codec is not None:
        codes = codec.encode(g)
        if codec.code_bits > 8 or not np.array_equal(codec.decode(codes), g):
            problems.append(
                f"conductances are not exact {codec.code_bits}-bit codes of at most 8 bits"
            )
    if log.images_seen != workload.train_presentations:
        problems.append(f"trained {log.images_seen} of {workload.train_presentations} images")
    if sum(log.spikes_per_image) == 0:
        problems.append("no output spikes during training")
    if evaluation.labeled_fraction <= 0.0:
        problems.append("no neuron was labeled")
    if workload.expect_learning:
        floor = accuracy_floor(len(evaluation.true_labels))
        if evaluation.accuracy <= floor:
            problems.append(f"accuracy {evaluation.accuracy:.3f} not above floor {floor:.3f}")
    return problems


def fingerprint(network: WTANetwork, log: TrainingLog, evaluation: EvaluationResult) -> str:
    """Digest of spikes per image, predictions, accuracy and final conductances."""
    h = hashlib.sha256()
    h.update(np.asarray(log.spikes_per_image, dtype=np.int64).tobytes())
    h.update(np.asarray(evaluation.predictions, dtype=np.int64).tobytes())
    h.update(float(evaluation.accuracy).hex().encode())
    h.update(np.ascontiguousarray(network.conductances).tobytes())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What a run attempted, whether it was correct, and its metrics."""

    attempted: int
    problems: List[str]
    metrics: Dict[str, float]
    units: Dict[str, str]
    report: Dict[str, object]

    def result(self) -> Dict[str, object]:
        """The final JSON line.  A failed check fails every presentation."""
        correct = not self.problems
        return {
            "correct": correct,
            "attempted": self.attempted,
            "failed": 0 if correct else self.attempted,
            "metrics": {
                name: {"value": value, "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        }


def run_checked(runs: List[PipelineRun], problems: List[str], step) -> Optional[PipelineRun]:
    """Run ``step()`` (one pipeline); record its problems or its exception.

    Returns the :class:`PipelineRun`, or ``None`` when it raised.  Any
    problem makes the caller stop and fail the whole run.
    """
    try:
        run = step()
    except Exception as exc:  # the run must report the failure, not die
        traceback.print_exc(file=sys.stderr)
        problems.append(f"pipeline raised {type(exc).__name__}: {exc}")
        return None
    problems.extend(run.problems)
    if runs and run.fingerprint != runs[0].fingerprint:
        problems.append(
            f"fingerprint {run.fingerprint} differs from {runs[0].fingerprint} "
            f"for the same code and seed"
        )
    runs.append(run)
    return run


def measure(workload: Workload, seed: int, seconds: float, workdir: Path) -> Outcome:
    """Untraced run: repeat the pipeline for *seconds* (at least twice)."""
    runs: List[PipelineRun] = []
    problems: List[str] = []
    attempted = 0
    setups = [set_up(workload, seed, workdir).setup_s for _ in range(MIN_SETUPS - MIN_PIPELINES)]
    start = clock()
    while not problems:
        if len(runs) >= MIN_PIPELINES:
            typical = statistics.median(r.setup_s + r.e2e_s for r in runs)
            if clock() - start + typical > seconds:
                break
        attempted += workload.presentations
        run_checked(runs, problems, lambda: set_up(workload, seed, workdir).run())
    setups += [r.setup_s for r in runs]
    metrics: Dict[str, float] = {}
    if runs:
        metrics = {
            "setup_s": statistics.median(setups),
            "e2e_s": statistics.median(r.e2e_s for r in runs),
            "train_img_per_s": statistics.median(x for r in runs for x in r.train_rates),
            "eval_img_per_s": statistics.median(x for r in runs for x in r.eval_rates),
            "peak_rss_mb": peak_rss_mb(),
        }
    report = {
        "pipelines": [
            {
                "setup_s": r.setup_s,
                "train_s": r.train_s,
                "eval_s": r.eval_s,
                "train_rates": r.train_rates,
                "eval_rates": r.eval_rates,
                "accuracy": r.evaluation.accuracy,
                "fingerprint": r.fingerprint,
            }
            for r in runs
        ],
        "setups_s": setups,
        "problems": problems,
    }
    return Outcome(attempted, problems, metrics, END_TO_END_UNITS, report)


def guard_workload(workload: Workload) -> Workload:
    """The workload cut to two training and two evaluation presentations."""
    return replace(workload, n_train=2, epochs=1, n_test=2, n_labeling=1, autosave_every=None)


def guard_transfers(workload: Workload, seed: int, workdir: Path) -> Dict[str, float]:
    """Host<->device transfers per presentation, counted by the guard backend.

    A short pass (two training and two evaluation presentations) of the
    workload's own engines under ``use_backend("guard")``.  The counts are
    exact and machine-independent: they are what a GPU run would transfer.
    """
    from repro.backend import use_backend
    from repro.backend.guard import reset_counters, transfer_stats

    w = guard_workload(workload)
    pipeline = set_up(w, seed, workdir)
    with use_backend("guard"):
        reset_counters()
        pipeline.trainer.train(pipeline.train_images)
        pipeline.evaluator.collect_responses(pipeline.splits[0])
        pipeline.evaluator.collect_responses(pipeline.splits[2])
        stats = transfer_stats()
    if stats.violations:
        raise RuntimeError(f"guard backend saw {stats.violations} implicit transfers")
    n = w.presentations
    return {
        "backend.h2d": stats.h2d / n,
        "backend.d2h": stats.d2h / n,
        "backend.allocs": stats.allocations / n,
    }


def layer_metrics(tracer: Tracer, pipeline: Pipeline, run: PipelineRun) -> Dict[str, float]:
    """Per-layer figures of one traced pipeline."""
    engine: TracedEngine = pipeline.trainer.engine
    present_ms = [s.seconds * 1e3 for s in tracer.select("engine.run")]
    cut = statistics.quantiles(present_ms, n=20, method="inclusive")
    sections = engine.profiler.totals
    codec_s, codec_calls = tracer.total("quantization.codec", root="pipeline.train")
    drive_s, drive_calls = tracer.total("quantization.batched_drive")
    eval_spans = tracer.select("engine.eval")
    autosave = pipeline.autosave
    checkpoint = autosave.path if autosave is not None else None
    return {
        "datasets.load_s": tracer.total("datasets.load")[0],
        "network.build_s": tracer.total("network.build")[0],
        "pipeline.train_self_s": tracer.self_seconds("pipeline.train"),
        "engine.train_s": tracer.total("engine.run")[0],
        "engine.present_ms.p50": statistics.median(present_ms),
        "engine.present_ms.p95": cut[18],
        "engine.presentations": len(present_ms),
        "engine.steps": engine.steps,
        "engine.out_spikes": engine.out_spikes,
        "encoding.encode_s": sections.get("encode", 0.0),
        "engine.wta_s": sections.get("wta", 0.0),
        "engine.integrate_s": sections.get("integrate", 0.0),
        "engine.stdp_s": sections.get("stdp", 0.0),
        "learning.normalize_s": tracer.total("learning.normalize")[0],
        "learning.normalizations": run.log.normalizations,
        "quantization.codec_s": codec_s,
        "quantization.codec_calls": codec_calls,
        "engine.eval_s": sum(s.seconds for s in eval_spans),
        "engine.eval_images": sum(s.items for s in eval_spans),
        "quantization.batched_drive_s": drive_s,
        "quantization.batched_drive_calls": drive_calls,
        "network.classify_s": tracer.total("network.classify")[0],
        "io.autosave_s": autosave.seconds_spent if autosave is not None else 0.0,
        "io.saves": autosave.saves_written if autosave is not None else 0,
        "io.checkpoint_bytes": (
            checkpoint.stat().st_size if checkpoint is not None and checkpoint.exists() else 0
        ),
        "accuracy": run.evaluation.accuracy,
    }


def measure_traced(workload: Workload, seed: int, workdir: Path) -> Outcome:
    """Traced run: untraced, traced, untraced pipelines, plus the guard pass.

    The untraced pipelines are the baseline for ``trace.overhead_frac``, and
    the traced one must reproduce their fingerprint: tracing changes no
    result.
    """
    runs: List[PipelineRun] = []
    problems: List[str] = []
    tracer = Tracer()
    pipelines: List[Pipeline] = []

    def traced() -> PipelineRun:
        with instrument(tracer):
            pipelines.append(set_up(workload, seed, workdir, tracer))
            return pipelines[-1].run()

    attempted = 0
    metrics: Dict[str, float] = {}
    # Untraced pipelines before and after the traced one, so the overhead
    # is not confounded with first-pipeline warm-up or drift.
    for step in (lambda: set_up(workload, seed, workdir).run(), traced,
                 lambda: set_up(workload, seed, workdir).run()):
        attempted += workload.presentations
        run_checked(runs, problems, step)
        if problems:
            break
    if len(runs) == 3:
        plain_e2e = (runs[0].e2e_s + runs[2].e2e_s) / 2.0
        metrics = layer_metrics(tracer, pipelines[-1], runs[1])
        metrics["trace.overhead_frac"] = (runs[1].e2e_s - plain_e2e) / plain_e2e
        attempted += guard_workload(workload).presentations
        try:
            metrics.update(guard_transfers(workload, seed, workdir))
        except Exception as exc:  # reported as a failed run, not a crash
            traceback.print_exc(file=sys.stderr)
            problems.append(f"guard pass raised {type(exc).__name__}: {exc}")
    report = {
        "layer_map": {name: asdict(layer) for name, layer in LAYER_MAP.items()},
        "fingerprints": [r.fingerprint for r in runs],
        "problems": problems,
    }
    units = {name: layer.unit for name, layer in LAYER_MAP.items()}
    return Outcome(attempted, problems, metrics, units, report)
