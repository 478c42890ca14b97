"""Span tracing at cptower's layer boundaries, installed from outside the
package.

A boundary is a module or class attribute through which one layer calls
another.  cptower imports functions by value (``cli`` holds its own
``_cached_search``, ``sweep_distinctness`` and ``presentation``; ``catalog``
holds its own ``search``, ``verify`` and ``presentation``), so one function
is reached through several bindings.  ``Tracer.installed`` replaces every
binding in :func:`layer_bindings` with a timing wrapper and restores the
originals on exit.  ``Tracer.fired`` records which bindings were called, so
a run can check that no layer was silently dropped.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


class Tracer:
    """Per-span-name call counts, total and self time, kept in memory.

    A span's self time is its duration minus the durations of the spans it
    directly caused.
    """

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.fired: set[str] = set()
        self.counters: Counter = Counter()
        self._stack: list = []  # open spans: [child seconds, child names]

    def span(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()

    def wrap(self, label: str, name: str, fn, on_exit=None):
        stack = self._stack
        stats = self.stats
        fired = self.fired
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, set()]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                st = stats.get(name)
                if st is None:
                    st = stats[name] = SpanStats()
                st.calls += 1
                st.total_s += elapsed
                st.self_s += elapsed - frame[0]
                st.durations.append(elapsed)
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1].add(name)
                fired.add(label)
            if on_exit is not None:
                on_exit(counters, args, result, frame[1])
            return result

        return traced

    @contextmanager
    def installed(self, bindings):
        saved = []
        try:
            for owner, attr, name, on_exit in bindings:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                label = f"{owner.__name__}.{attr}"
                setattr(owner, attr, self.wrap(label, name, original, on_exit))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _count_cache_outcome(counters, args, result, children):
    # _cached_search(pres_a, pres_b, bound, cache_dir): without a cache dir
    # it is a plain search, neither hit nor miss.
    if args[3] is None:
        return
    if "isosearch.search" in children:
        counters["catalog.cache.misses"] += 1
    else:
        counters["catalog.cache.hits"] += 1


def _count_found(counters, args, result, children):
    if result.found:
        counters["isosearch.search.found"] += 1


def layer_bindings(cli, catalog, isosearch, towers, polyring) -> list:
    """(owner, attribute, span name, on_exit hook) for every binding on the
    ``cpt sweep`` and ``cpt iso`` paths.  ``chern`` is on neither path."""
    return [
        (cli, "main", "cli.main", None),
        (cli, "_cached_search", "catalog.cached_search", _count_cache_outcome),
        (cli, "sweep_distinctness", "catalog.sweep_distinctness", None),
        (cli, "presentation", "towers.presentation", None),
        (catalog, "_cached_search", "catalog.cached_search",
         _count_cache_outcome),
        (catalog, "search", "isosearch.search", _count_found),
        (catalog, "verify", "isosearch.verify", None),
        (catalog, "presentation", "towers.presentation", None),
        (isosearch, "verify", "isosearch.verify", None),
        (towers.RingPresentation, "normal_form", "towers.normal_form", None),
        (polyring.Poly, "substitute", "polyring.substitute", None),
    ]
