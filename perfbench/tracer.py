"""In-memory span recorder that wraps lpplfit's layer functions from outside the package.

Every layer boundary below is a module attribute that its caller looks up at
call time (``linear.interleave_fit`` calls ``lm_fit`` through the
``lpplfit.linear`` namespace, for example). Replacing that attribute with a
timing wrapper records one span per call without changing any file of the
package; ``Tracer.installed`` puts the originals back on exit.

Each thread keeps its own span stack, because ``fit_command(jobs=2)`` runs
tasks in pool threads. A span opened on a thread whose stack is empty takes
as parent the innermost open span of the thread that opened the current
trace, which is the ``fit_command`` span waiting on the pool. Spans stay in
memory until ``write`` is called at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# (module, attribute, span name). The span name is the layer that owns the
# function; the module is where its caller looks it up. The last three
# targets cover the benchmark's own direct calls into lpplfit.driver and lpplfit.cli.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("lpplfit.solver", "evaluate_batch", "model.evaluate_batch"),
    ("lpplfit.linear", "evaluate_batch", "model.evaluate_batch"),
    ("lpplfit.driver", "evaluate_batch", "model.evaluate_batch"),
    ("lpplfit.linear", "lm_fit", "solver.lm_fit"),
    ("lpplfit.driver", "lm_fit", "solver.lm_fit"),
    ("lpplfit.linear", "solve_linear_subsystem", "linear.solve_linear_subsystem"),
    ("lpplfit.driver", "interleave_fit", "linear.interleave_fit"),
    ("lpplfit.driver", "build_seed_set", "driver.build_seed_set"),
    ("lpplfit.driver", "propose_triples", "seeds.propose_triples"),
    ("lpplfit.driver", "triple_to_seed", "seeds.triple_to_seed"),
    ("lpplfit.driver", "exponential_prefit", "seeds.exponential_prefit"),
    ("lpplfit.driver", "build_weights", "weights.build_weights"),
    ("lpplfit.cli", "fit_command", "driver.fit_command"),
    ("lpplfit.cli", "load_csv", "ingest.load_csv"),
    ("lpplfit.cli", "report_to_json", "driver.report_to_json"),
    ("lpplfit.cli", "write_plot_csv", "driver.write_plot_csv"),
    ("lpplfit.driver", "fit_command", "driver.fit_command"),
    ("lpplfit.driver", "report_to_json", "driver.report_to_json"),
    ("lpplfit.cli", "main", "cli.main"),
)


def _describe_lm(result) -> dict:
    # lm_fit's error history holds the start error plus one entry per accepted step.
    return {"iterations": result.iterations, "restarts": result.restarts,
            "accepted": len(result.error_history) - 1}


# Result fields kept on a span, for the counters that only the result holds.
DESCRIBE: Dict[str, Callable[[object], dict]] = {
    "solver.lm_fit": _describe_lm,
    "linear.interleave_fit": lambda r: {"termination": r.termination},
    "linear.solve_linear_subsystem": lambda r: {"status": r.status},
}


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    trace: Optional[int]
    thread: int
    start: float
    end: float = 0.0
    error: Optional[str] = None
    info: Optional[dict] = None


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.trace_id: Optional[int] = None
        self._ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._local = threading.local()
        self._anchor: Optional[List[Span]] = None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = None
        if stack:
            parent = stack[-1].id
        elif self._anchor:
            with contextlib.suppress(IndexError):  # the anchor thread may pop meanwhile
                parent = self._anchor[-1].id
        span = Span(next(self._ids), name, parent, self.trace_id,
                    threading.get_ident(), time.perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span, error: Optional[str] = None,
              info: Optional[dict] = None) -> None:
        span.end = time.perf_counter()
        span.error = error
        span.info = info
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        except BaseException as exc:
            self.close(span, error=type(exc).__name__)
            raise
        self.close(span)

    @contextlib.contextmanager
    def trace(self, name: str):
        """Root span of one trace fit; every span until it closes shares its trace id."""
        self.trace_id = next(self._trace_ids)
        self._anchor = self._stack()
        try:
            with self.span(name) as span:
                yield span
        finally:
            self._anchor = None
            self.trace_id = None

    def wrap(self, fn: Callable, name: str,
             describe: Optional[Callable[[object], dict]] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span, error=type(exc).__name__)
                raise
            tracer.close(span, info=describe(result) if describe else None)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets: Sequence[Tuple[str, str, str]] = TARGETS):
        """Replace each target attribute with a wrapper; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, span_name in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, span_name, DESCRIBE.get(span_name)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.name, s.parent, s.trace, s.thread,
                                     s.start, s.end, s.error, s.info]) + "\n")


def covered(lo: float, hi: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _children(spans: Sequence[Span]) -> Dict[int, List[Tuple[float, float]]]:
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return children


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children = _children(spans)
    return {s.id: (s.end - s.start) - covered(s.start, s.end, children.get(s.id, ()))
            for s in spans}


def overlap_seconds(spans: Sequence[Span]) -> float:
    """Time during which two or more children of one span ran at once, summed.

    Self times add up to the root spans' durations plus this figure. It is 0
    when one thread does the work; with `jobs=2` it is the time that two fit
    tasks ran side by side under one ``fit_command`` span.
    """
    children = _children(spans)
    by_id = {s.id: s for s in spans}
    return sum(sum(b - a for a, b in iv) - covered(by_id[pid].start, by_id[pid].end, iv)
               for pid, iv in children.items() if pid in by_id)
