"""In-memory spans and counts around gsm_degroot layer functions.

A Tracer replaces every binding of a wrapped function in the package's
module namespaces (``fitting.simulate``, ``analysis.simulate`` and
``dynamics.simulate`` all point at one wrapper), so calls made inside the
package are seen without touching its source. Spans record (name, start,
end, parent). Per-tick kernels are wrapped as leaves: they add to their
name's totals and to their parent's child time but keep no span of their
own, which would cost millions of records per fit.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, modules):
        self.modules = list(modules)
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.calls: Counter = Counter()
        self.failed: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[list] = []  # [start, child seconds, span index] per open span
        self._patches: list[tuple] = []  # (owner, attribute, original, wrapper)
        self.origin = time.perf_counter()

    def wrap(self, fn, name: str, leaf: bool = False, on_result=None, owners=None) -> None:
        """Wrap fn under name in every namespace that binds it.

        owners defaults to the package modules; pass a class to wrap a method.
        on_result(tracer, result, args) records counts from a finished call.
        """
        if leaf and on_result is not None:
            raise ValueError("leaves take no on_result hook")
        tracer = self
        clock = time.perf_counter
        stack = self._stack

        def leaf_wrapper(*args, **kwargs):
            # called once or twice per simulated tick, so it does the least
            # work: no span, no frame, and its self time is its total time
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.failed[name] += 1
                raise
            finally:
                duration = clock() - start
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                if stack:
                    stack[-1][1] += duration

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, result, args)
            return result

        for owner in owners or self.modules:
            for attr, value in list(vars(owner).items()):
                if value is fn:
                    self._patches.append((owner, attr, fn, leaf_wrapper if leaf else wrapper))

    @contextmanager
    def span(self, name: str):
        """Span around a wrapped call or a block of benchmark code."""
        start = time.perf_counter()
        frame = [start, 0.0, len(self.spans)]
        parent = self._stack[-1][2] if self._stack else -1
        self.spans.append([name, start - self.origin, None, parent])
        self._stack.append(frame)
        try:
            yield
        except BaseException:
            self.failed[name] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            self.spans[frame[2]][2] = end - self.origin

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def note_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def durations(self, name: str, since: int = 0) -> list[float]:
        """Durations of the finished spans of name, from span index since on."""
        return [end - start for span_name, start, end, _ in self.spans[since:]
                if span_name == name and end is not None]

    def self_time(self, name: str) -> float:
        """A layer's time minus its wrapped children's; a leaf's is its total."""
        return self.self_s.get(name, self.total_s.get(name, 0.0))

    def snapshot(self) -> dict:
        """Copy of the aggregate tables, to subtract one phase from another."""
        return {
            "calls": Counter(self.calls),
            "failed": Counter(self.failed),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": Counter(self.counts),
        }

    def to_json(self) -> dict:
        names = sorted(set(self.calls) | set(self.failed))
        return {
            "layers": {
                name: {
                    "calls": self.calls[name],
                    "failed": self.failed[name],
                    "total_s": self.total_s[name],
                    "self_s": self.self_time(name),
                }
                for name in names
            },
            "counts": dict(self.counts),
            "maxima": self.maxima,
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "spans": self.spans,
        }
