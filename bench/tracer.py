"""Outside-in span tracing of the dpfewshot layers.

Each layer is a list of functions named by their defining module.  Installing
the tracer replaces every reference to such a function that a dpfewshot
module holds (the name the importing module looks up at call time), or the
class attribute for a method, by a wrapper that records a span.  Nothing
inside the package changes, and uninstalling restores the originals.

A function that no longer exists is skipped; a layer none of whose
functions exist is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Layer:
    """A traced layer: span name, wrapped functions, and reported metric names.

    targets are "module:attribute" or "module:Class.method".  calls_metric
    counts spans in the first traced command; self_metric is the span self
    time per command (its duration minus the part covered by child spans).
    """

    span: str
    targets: tuple[str, ...]
    calls_metric: str | None
    self_metric: str


LAYERS = (
    Layer("pipeline.resolve", ("dpfewshot.pipeline:resolve_run",), None, "pipeline.resolve.self_s"),
    Layer("data.load", ("dpfewshot.data:load_dataset",), None, "data.load_s"),
    Layer("pipeline.generate", ("dpfewshot.pipeline:generate_shots",), None, "pipeline.generate.self_s"),
    Layer("pipeline.step", ("dpfewshot.pipeline:generate_demo",), None, "pipeline.step.self_s"),
    Layer("pipeline.write", ("dpfewshot.pipeline:write_outputs",), None, "pipeline.write.self_s"),
    Layer("providers.batch", ("dpfewshot.providers:next_token_generation",),
          "providers.batch.calls", "providers.batch.self_s"),
    Layer("data.draw", ("dpfewshot.data:partition_subsets",), "data.draw.calls", "data.draw.self_s"),
    Layer("data.render", ("dpfewshot.data:PromptTemplate.render",),
          "data.render.calls", "data.render.self_s"),
    Layer("providers.call", ("dpfewshot.providers:SyntheticProvider.next_token_distribution",
                             "dpfewshot.providers:HttpProvider.next_token_distribution"),
          "providers.call.count", "providers.call.self_s"),
    Layer("providers.topk", ("dpfewshot.providers:restrict_topk",),
          "providers.topk.calls", "providers.topk.self_s"),
    Layer("rng.substream", ("dpfewshot.rng:substream",), "rng.substream.calls", "rng.substream.self_s"),
    Layer("radius.search", ("dpfewshot.radius:good_radius",), "radius.search.calls", "radius.search.self_s"),
    Layer("simplex.coverage", ("dpfewshot.simplex:coverage_count",),
          "simplex.coverage.calls", "simplex.coverage.self_s"),
    Layer("simplex.project", ("dpfewshot.simplex:project_to_ball",),
          "simplex.project.calls", "simplex.project.self_s"),
    Layer("aggregate.adaptive", ("dpfewshot.aggregate:adaptive_aggregate",),
          "aggregate.adaptive.calls", "aggregate.loop.self_s"),
    Layer("aggregate.baseline", ("dpfewshot.aggregate:baseline_aggregate",),
          "aggregate.baseline.calls", "aggregate.baseline.self_s"),
    Layer("accountant.calibrate", ("dpfewshot.accountant:calibrate_sigma1",),
          "accountant.calibrate.calls", "accountant.calibrate.self_s"),
    Layer("accountant.amplify", ("dpfewshot.accountant:subsample_amplify",),
          "accountant.amplify.calls", "accountant.amplify.self_s"),
    Layer("accountant.report", ("dpfewshot.pipeline:report_privacy",),
          "accountant.report.calls", "accountant.report.self_s"),
)

#: Span of one whole command, opened by the benchmark itself.
COMMAND_SPAN = "bench.command"

#: Spans that keep their function's return value (aggregation traces).
KEEP_RESULTS = frozenset({"aggregate.adaptive"})


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id", "child_s", "result")

    def __init__(self, name, start, parent, run_id):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run_id = run_id
        self.child_s = 0.0
        self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Collects spans (name, start, end, parent, run id) in memory.

    Spans nest per thread.
    """

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list[Span] = []
        self.run_id = 0
        self.absent: list[Layer] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, perf_counter(), stack[-1] if stack else None, self.run_id)
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_s += span.duration

    def wrap(self, name: str, fn):
        keep = name in KEEP_RESULTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if keep:
                span.result = result
            return result

        return traced

    def install(self) -> None:
        """Wrap every present layer; record the absent ones."""
        self.absent = []
        for layer in self.layers:
            found = [t for t in layer.targets if self._install_target(layer.span, t)]
            if not found:
                self.absent.append(layer)

    def _install_target(self, name: str, target: str) -> bool:
        module_name, _, attr_path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *owner_path, attr = attr_path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        original = getattr(owner, attr, None)
        if not callable(original):
            return False
        wrapper = self.wrap(name, original)
        if owner_path:  # a method: the class attribute is the only lookup site
            self._patch(owner, attr, wrapper)
            return True
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] != "dpfewshot":
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)
        return True

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def summarize(spans, commands: int) -> dict[str, dict]:
    """Per span name: calls in run 0, self seconds per command, all durations."""
    out: dict[str, dict] = {}
    for span in spans:
        entry = out.setdefault(span.name, {"calls0": 0, "self_s": 0.0, "durations": []})
        if span.run_id == 0:
            entry["calls0"] += 1
        entry["self_s"] += span.self_s
        entry["durations"].append(span.duration)
    for entry in out.values():
        entry["self_s"] /= max(commands, 1)
    return out
