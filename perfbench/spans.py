"""Benchmark-side tracing: spans around the layer entry points of slotnoise.

Wrappers are installed on the names that ``slotnoise.harness`` (and
``slotnoise.client`` for the calls inside ``cached_complete``) look up at
call time, so the program itself is unchanged. Each span records name,
start, end, thread and parent; worker-thread spans with no open span of
their own are parented to the open ``harness.run`` span. A hook whose target
no longer exists is reported as missing, never raised.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: int | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn, count=None, root: bool = False):
        """A traced version of fn; count(tracer, args, result) adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
                parent = stack[-1] if stack else self._root
                if root:
                    self._root = span_id
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(
                        Span(span_id, name, start, end, threading.get_ident(), parent)
                    )
                    if root:
                        self._root = None
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def hook(self, module_name: str, attr: str, name: str, count=None, root: bool = False):
        """Replace module.attr (or module.Class.method) with a traced wrapper."""
        try:
            target = importlib.import_module(module_name)
        except ImportError:
            target = None
        *owner_path, leaf = attr.split(".")
        for part in owner_path:
            target = getattr(target, part, None)
        fn = getattr(target, leaf, None) if target is not None else None
        if not callable(fn):
            self.missing.append(f"{module_name}.{attr}")
            return
        setattr(target, leaf, self.wrap(name, fn, count, root))


def _count_pool(tracer, args, pool):
    tracer.add("pools.candidates", len(pool.mixed))


def _count_prompt(tracer, args, prompt):
    tracer.add("prompts.chars", len(prompt))


def _count_parse(tracer, args, prediction):
    tracer.add("parser.pairs", len(prediction.pairs))
    tracer.add("parser.empty", 0 if prediction.pairs else 1)
    tracer.add("parser.dropped_unknown_labels", prediction.dropped_unknown_labels)


def _count_cache_get(tracer, args, hit):
    tracer.add("client.cache_hits" if hit is not None else "client.cache_misses", 1)


def _count_ranked(tracer, args, ranked):
    tracer.add("demos.candidates_scored", len(args[1]))


# (module, attribute, span name, counter)
HOOKS = (
    ("slotnoise.harness", "run_experiment", "harness.run", None),
    ("slotnoise.harness", "load_dataset", "corpus.load", None),
    ("slotnoise.harness", "save_dataset", "corpus.save", None),
    ("slotnoise.harness", "build_pool", "pools.build", _count_pool),
    ("slotnoise.harness", "build_instance_demos", "demos.select", None),
    ("slotnoise.harness", "build_entity_demos", "demos.select", None),
    ("slotnoise.harness", "render_prompt", "prompts.render", _count_prompt),
    ("slotnoise.harness", "cached_complete", "client.cached_complete", None),
    ("slotnoise.harness", "parse_predictions", "parser.parse", _count_parse),
    ("slotnoise.harness", "score_example", "scorer.score", None),
    ("slotnoise.harness", "aggregate", "scorer.score", None),
    ("slotnoise.harness", "render_report", "harness.report", None),
    ("slotnoise.client", "complete", "client.complete", None),
    ("slotnoise.client", "ResponseCache.get", "client.cache_get", _count_cache_get),
    ("slotnoise.client", "ResponseCache.put", "client.cache_put", None),
    ("slotnoise.demos", "rank_by_similarity", "demos.rank", _count_ranked),
)


def install(tracer: Tracer) -> None:
    for module_name, attr, name, count in HOOKS:
        tracer.hook(module_name, attr, name, count, root=(name == "harness.run"))


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals from one traced run, plus the raw request times."""
    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def busy(name: str) -> float:
        return sum(s.end - s.start for s in by_name.get(name, ()))

    runs = by_name.get("harness.run", [])
    run_s = sum(s.end - s.start for s in runs)
    self_s = 0.0
    for run in runs:
        children = [(s.start, s.end) for s in tracer.spans if s.parent == run.id]
        self_s += (run.end - run.start) - _covered(children)
    completes = by_name.get("client.cached_complete", [])
    stage_s = (
        max(s.end for s in completes) - min(s.start for s in completes) if completes else 0.0
    )
    requests_ms = [(s.end - s.start) * 1000 for s in by_name.get("client.complete", ())]
    counts = tracer.counts
    return {
        "metrics": {
            "demos.select_s": busy("demos.select"),
            "demos.calls": len(by_name.get("demos.select", ())),
            "demos.candidates_scored": counts.get("demos.candidates_scored", 0),
            "client.cache_put_s": busy("client.cache_put"),
            "client.cache_get_s": busy("client.cache_get"),
            "client.cache_hits": counts.get("client.cache_hits", 0),
            "client.cache_misses": counts.get("client.cache_misses", 0),
            "client.backend_calls": len(requests_ms),
            "client.concurrency": sum(requests_ms) / 1000 / stage_s if stage_s else 0.0,
            "pools.build_s": busy("pools.build"),
            "pools.candidates": counts.get("pools.candidates", 0),
            "corpus.load_s": busy("corpus.load"),
            "corpus.save_s": busy("corpus.save"),
            "prompts.render_s": busy("prompts.render"),
            "prompts.chars": counts.get("prompts.chars", 0),
            "parser.parse_s": busy("parser.parse"),
            "parser.pairs": counts.get("parser.pairs", 0),
            "parser.empty": counts.get("parser.empty", 0),
            "parser.dropped_unknown_labels": counts.get("parser.dropped_unknown_labels", 0),
            "scorer.score_s": busy("scorer.score"),
            "harness.report_s": busy("harness.report"),
            "harness.self_s": self_s,
            "harness.run_s": run_s,
            "trace.spans": len(tracer.spans),
            "trace.missing_hooks": len(tracer.missing),
        },
        "request_ms": requests_ms,
        "missing": tracer.missing,
    }
