"""Spans around calls into cardyfrob, recorded from outside the package.

The traced run rebinds public names only: the functions in
``cardyfrob.__all__``, at every module binding the pipeline calls them
through, and three public methods of ``EquippedFrobeniusAlgebra``.  Module
functions get one span per call (name, start, end, parent, ``ru_maxrss``
before and after).  ``multiply`` runs hundreds of thousands of times in a
run, so the methods are aggregated into a call count and an inclusive time
instead of one span each.  Everything stays in memory until
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import inspect
import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from typing import Callable, Iterator

from workloads import shape_of


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _algebra_side(alg) -> str:
    # A is labelled a0, a1, ... and B b0, b1, ... (see cardyfrob.actions).
    return "A" if alg.basis[0].startswith("a") else "B"


# Span names that depend on the arguments, so one public function can feed
# several per-layer metrics.
_NAMERS: dict[str, Callable[..., str]] = {
    "verify_equipped": lambda alg, *_: f"frobenius.verify_equipped_{_algebra_side(alg)}",
    "evaluate": lambda h, spec, *_: f"hurwitz.evaluate.{shape_of(spec)}",
}

AGGREGATED_METHODS = ("multiply", "form_inverse", "casimir_sandwich")


class Tracer:
    """In-memory span recorder; :meth:`install` patches, :meth:`uninstall` restores."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index, rss_kb start, rss_kb end].
        self.spans: list[list] = []
        self.aggregates: dict[str, list] = {}  # name -> [calls, inclusive seconds]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        record = [
            name,
            time.perf_counter(),
            None,
            self._stack[-1] if self._stack else -1,
            _rss_kb(),
            None,
        ]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        record[5] = _rss_kb()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a call the benchmark makes itself (e.g. ``cli.run``)."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _span_wrapper(self, func: Callable, layer: str) -> Callable:
        namer = _NAMERS.get(func.__name__)
        fixed = f"{layer}.{func.__name__}"
        tracer = self

        def wrapper(*args, **kwargs):
            record = tracer._open(namer(*args, **kwargs) if namer else fixed)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(record)

        wrapper.__wrapped__ = func
        return wrapper

    def _aggregate_wrapper(self, func: Callable, name: str) -> Callable:
        slot = self.aggregates.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                slot[0] += 1
                slot[1] += clock() - start

        wrapper.__wrapped__ = func
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, package) -> None:
        modules = [package] + [
            module
            for name, module in sorted(sys.modules.items())
            if name.startswith(package.__name__ + ".") and module is not None
        ]
        for public in package.__all__:
            func = getattr(package, public)
            if not inspect.isfunction(func):
                continue
            layer = func.__module__.rsplit(".", 1)[-1]
            wrapper = self._span_wrapper(func, layer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        self._restore.append((module, attr, func))
                        setattr(module, attr, wrapper)
        cls = package.EquippedFrobeniusAlgebra
        for method in AGGREGATED_METHODS:
            func = cls.__dict__[method]
            self._restore.append((cls, method, func))
            setattr(cls, method, self._aggregate_wrapper(func, f"frobenius.{method}"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- derived numbers ---------------------------------------------------

    def _closed_spans(self) -> list[list]:
        return [span for span in self.spans if span[2] is not None]

    def total(self, name: str) -> float:
        """Inclusive seconds in spans called ``name``, outermost calls only."""
        spans = self.spans
        total = 0.0
        for span in self._closed_spans():
            if span[0] != name:
                continue
            parent = span[3]
            nested = False
            while parent >= 0:
                if spans[parent][0] == name:
                    nested = True
                    break
                parent = spans[parent][3]
            if not nested:
                total += span[2] - span[1]
        return total

    def self_time(self, name: str) -> float:
        """Seconds in spans called ``name`` minus the time their child spans cover."""
        child_time = [0.0] * len(self.spans)
        for span in self._closed_spans():
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        return sum(
            span[2] - span[1] - child_time[index]
            for index, span in enumerate(self.spans)
            if span[0] == name and span[2] is not None
        )

    def rss_delta_mb(self, name: str) -> float:
        """Rise of the peak resident set across spans called ``name``."""
        return sum(
            span[5] - span[4] for span in self._closed_spans() if span[0] == name
        ) / 1024.0

    def median_ms(self, name: str) -> float:
        durations = [
            1000.0 * (span[2] - span[1])
            for span in self._closed_spans()
            if span[0] == name
        ]
        return median(durations) if durations else 0.0

    def calls(self, name: str) -> int:
        return self.aggregates.get(name, [0, 0.0])[0]

    def aggregate_seconds(self, name: str) -> float:
        return self.aggregates.get(name, [0, 0.0])[1]

    def dump(self, path: Path) -> None:
        """Write spans and aggregates as JSON, times relative to tracer creation."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "maxrss_kb_start", "maxrss_kb_end"],
            "spans": [
                [name, start - self.origin, end - self.origin, parent, rss0, rss1]
                for name, start, end, parent, rss0, rss1 in self._closed_spans()
            ],
            "aggregates": {
                name: {"calls": calls, "seconds": seconds}
                for name, (calls, seconds) in sorted(self.aggregates.items())
            },
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
