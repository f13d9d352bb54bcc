"""In-memory spans around the library's public calls, and their self times.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (or -1). Names are ``<layer>.<function>``; a layer's self time
is the sum of its spans' self times, where a span's self time is its
duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    """Records spans and counters for one item; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_result=None):
        """Return fn wrapped in a span; on_result(tracer, args, result) may count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def patch(self, modules, attr: str, name: str, on_result=None):
        """Wrap ``attr`` in every module that holds the same object under that name.

        Callers inside the library look their collaborators up as module
        globals at call time, so replacing the global traces those calls.
        """
        original = getattr(modules[0], attr)
        traced = self.wrap(name, original, on_result)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, traced)
        return original

    def patch_method(self, cls, attr: str, name: str, on_result=None):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, on_result))

    def restore(self):
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    def count(self, name: str, amount: float = 1):
        self.counters[name] += amount


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo = max(spans[c][1], cursor)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, float]:
    """Per-function ``.calls`` and ``.self_s`` plus per-layer ``<layer>.self_s``."""
    out: dict[str, float] = defaultdict(float)
    for (name, *_), own in zip(spans, self_times(spans)):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own
        out[f"{name.split('.', 1)[0]}.self_s"] += own
    return dict(out)
