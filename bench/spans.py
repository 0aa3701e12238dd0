"""In-memory span tracer that wraps the public functions of the layer modules.

Every function named in a layer module's ``__all__`` (or, for a module
without one, every public function it defines) is replaced by a timing
wrapper at every module namespace that binds the same function object, so
``experiments.gnp_sample`` and ``graphs.gnp_sample`` are both traced and a
public function added later is picked up with no change here.  Spans are
kept in memory as tuples and written out once, after the run; ``close``
puts every original object back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from typing import Callable

LAYERS = ("graphs", "logic", "fastsolve", "games", "experiments", "cli")

# Span tuple fields.
ID, NAME, START, END, PARENT, CASE, SIZE = range(7)


def public_functions(module) -> dict[str, Callable]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n, obj in vars(module).items()
                 if not n.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__]
    return {n: getattr(module, n) for n in names if inspect.isfunction(getattr(module, n, None))}


class Tracer:
    """Context manager: wraps on enter, restores on exit, keeps every span.

    ``classify`` maps a qualified name ("games.build_arena") to a callable
    ``(args, kwargs, result) -> (case, size)`` run after the span closes, so
    its cost is outside the span.  Bench code opens its own spans with
    ``span(name)`` around the calls it makes into the layers.
    """

    def __init__(self, classify: dict | None = None):
        self.classify = classify or {}
        self.spans: list[tuple] = []
        self._stack: list[int] = [0]
        self._next = 1
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------
    def __enter__(self) -> "Tracer":
        targets: dict[int, tuple[object, str]] = {}
        for layer in LAYERS:
            module = sys.modules[f"pursuitlab.{layer}"]
            for name, fn in public_functions(module).items():
                targets.setdefault(id(fn), (fn, f"{layer}.{name}"))
        wrappers = {key: self._wrap(fn, qual) for key, (fn, qual) in targets.items()}
        try:
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for attr, obj in list(namespace.items()):
                    w = wrappers.get(id(obj))
                    if w is not None and targets[id(obj)][0] is obj:
                        self._patched.append((module, attr, obj))
                        setattr(module, attr, w)
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, fn: Callable, qual: str) -> Callable:
        stack = self._stack
        spans = self.spans
        classify = self.classify.get(qual)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                case, size = classify(args, kwargs, result) if classify else (None, None)
                spans.append((sid, qual, start, end, parent, case, size))

        traced.__bench_traced__ = True
        return traced

    # -- bench-level spans ---------------------------------------------------
    def span(self, name: str):
        return _BenchSpan(self, name)

    # -- output ---------------------------------------------------------------
    def write(self, path) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "case", "size"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class _BenchSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.sid = t._next
        t._next += 1
        self.parent = t._stack[-1]
        t._stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        t.spans.append((self.sid, self.name, self.start, end, self.parent, None, None))


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children."""
    own = {s[ID]: s[END] - s[START] for s in spans}
    for s in spans:
        if s[PARENT] in own:
            own[s[PARENT]] -= s[END] - s[START]
    return own
