"""Spans recorded from the benchmark's side of each layer boundary.

The traced run wraps the public calls into each module of the program
(``load_dataset``, ``build_network``, the training kernel's ``run``,
``WeightNormalizer.after_image``, ``QCodec`` methods,
``Evaluator.collect_responses``, ``classify_batch``,
``AutosavePolicy.maybe_save``) and keeps the spans in memory.  Nothing in
``src/`` is changed; the wrappers are installed for the traced run only and
removed afterwards.
"""

from __future__ import annotations

import time
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional, Tuple

import repro.pipeline.evaluator as evaluator_module
from repro.engine.profiler import StepProfiler
from repro.learning.homeostasis import WeightNormalizer
from repro.pipeline.evaluator import Evaluator
from repro.quantization.codec import QCodec
from repro.resilience.autosave import AutosavePolicy

clock = time.perf_counter

#: QCodec's public kernels; each call during training is one codec span.
CODEC_METHODS = (
    "encode",
    "decode",
    "decode_into",
    "gather_drive",
    "delta_codes",
    "apply_delta_codes",
)


def no_span(name: str) -> "nullcontext[None]":
    """The untraced stand-in for :meth:`Tracer.span`."""
    return nullcontext()


@dataclass
class Span:
    name: str
    parent: Optional[int]
    #: Name of the outermost enclosing span (the pipeline phase).
    root: str
    start: float
    end: float = 0.0
    #: Work items the call handled (images for ``engine.eval``).
    items: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """In-memory span recorder; spans nest by call order (one thread)."""

    spans: List[Span] = field(default_factory=list)
    _stack: List[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, items: int = 0) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        root = self.spans[self._stack[0]].name if self._stack else name
        record = Span(name, parent, root, clock(), items=items)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = clock()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, items: Optional[Callable] = None) -> Callable:
        """*fn* with every call recorded as a span called *name*."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, items(args) if items is not None else 0):
                return fn(*args, **kwargs)

        return traced

    def select(self, name: str, root: Optional[str] = None) -> List[Span]:
        return [
            s for s in self.spans if s.name == name and (root is None or s.root == root)
        ]

    def total(self, name: str, root: Optional[str] = None) -> Tuple[float, int]:
        """(seconds, calls) of the spans called *name*."""
        spans = self.select(name, root)
        return sum(s.seconds for s in spans), len(spans)

    def self_seconds(self, name: str) -> float:
        """Duration of the *name* spans minus the time their children cover."""
        ids = {i for i, s in enumerate(self.spans) if s.name == name}
        own = sum(self.spans[i].seconds for i in ids)
        children = sum(s.seconds for s in self.spans if s.parent in ids)
        return own - children


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install span wrappers on the program's public calls; undo on exit."""
    patches: List[Tuple[object, str, str, Optional[Callable]]] = [
        (WeightNormalizer, "after_image", "learning.normalize", None),
        (Evaluator, "collect_responses", "engine.eval", lambda args: len(args[1])),
        (evaluator_module, "classify_batch", "network.classify", None),
        (AutosavePolicy, "maybe_save", "io.maybe_save", None),
        (QCodec, "batched_drive", "quantization.batched_drive", None),
    ]
    patches += [(QCodec, m, "quantization.codec", None) for m in CODEC_METHODS]
    with ExitStack() as stack:
        for owner, attr, name, items in patches:
            original = vars(owner)[attr]
            setattr(owner, attr, tracer.wrap(name, original, items))
            stack.callback(setattr, owner, attr, original)
        yield tracer


class TracedEngine:
    """Training-kernel wrapper: one span and one profile per presentation.

    ``UnsupervisedTrainer.train(engine=...)`` accepts any object with the
    ``run(image, t_ms, n_steps, dt_ms)`` protocol; this one forwards
    ``name`` and ``stats`` and hands the kernel a :class:`StepProfiler`.
    """

    def __init__(self, kernel: Any, name: str, tracer: Tracer) -> None:
        self.kernel = kernel
        self.name = name
        self.stats = getattr(kernel, "stats", None)
        self.tracer = tracer
        self.profiler = StepProfiler()
        self.steps = 0
        self.out_spikes = 0

    def run(self, image: Any, t_ms: float, n_steps: int, dt_ms: float) -> Tuple[int, float]:
        with self.tracer.span("engine.run"):
            spikes, t_after = self.kernel.run(
                image, t_ms, n_steps, dt_ms, profiler=self.profiler
            )
        self.steps += n_steps
        self.out_spikes += spikes
        return spikes, t_after
