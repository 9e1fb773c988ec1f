"""Spans around ifsim's public functions, recorded from outside the package.

A Tracer wraps a function so that every call records one span: wall time,
the time covered by the spans it directly encloses (its children), and, for
pair kernels, the number of value pairs in the result.  Spans are aggregated
per name as they close, so a layer's self time is its span time minus the
time of its child spans.

Functions are wrapped by rebinding the names that hold them: every
`ifsim` module attribute bound to the original object is replaced for the
duration of a `with tracer.patched(...)` block and restored afterwards.
Nothing under `src/` changes, and untraced runs never see a wrapper.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    pairs: int = 0
    elems: int = 0

    @property
    def total_s(self) -> float:
        return self.total_ns / 1e9

    @property
    def self_s(self) -> float:
        return self.self_ns / 1e9


class Tracer:
    """Aggregated spans keyed by name; one caller, one thread."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self._child_ns: list[int] = []

    def get(self, name: str) -> SpanStats:
        return self.stats.setdefault(name, SpanStats())

    def wrap(self, name: str, fn, count_pairs: bool = False, count_elems: bool = False):
        """Return fn wrapped in a span.  count_pairs adds the size of the
        returned array; count_elems adds len() of the returned object."""
        stats = self.get(name)
        child_ns = self._child_ns

        def traced(*args, **kwargs):
            child_ns.append(0)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                inner = child_ns.pop()
                if child_ns:
                    child_ns[-1] += dt
                stats.calls += 1
                stats.total_ns += dt
                stats.self_ns += dt - inner
            if count_pairs:
                stats.pairs += int(getattr(out, "size", 1))
            if count_elems:
                stats.elems += len(out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        stats = self.get(name)
        self._child_ns.append(0)
        t0 = time.perf_counter_ns()
        try:
            yield stats
        finally:
            dt = time.perf_counter_ns() - t0
            inner = self._child_ns.pop()
            if self._child_ns:
                self._child_ns[-1] += dt
            stats.calls += 1
            stats.total_ns += dt
            stats.self_ns += dt - inner

    @contextmanager
    def patched(self, targets):
        """Rebind each (module, attribute, span name, options) target in every
        ifsim module that holds the same object; restore on exit."""
        undo = []
        try:
            for module, attr, name, opts in targets:
                if isinstance(module, type):  # a classmethod on a class
                    raw = module.__dict__[attr]
                    undo.append((module, attr, raw))
                    setattr(module, attr, classmethod(self.wrap(name, raw.__func__, **opts)))
                    continue
                original = getattr(module, attr)
                wrapped = self.wrap(name, original, **opts)
                for mod in _ifsim_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapped)
            yield self
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)


def _ifsim_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "ifsim" or n.startswith("ifsim."))]
