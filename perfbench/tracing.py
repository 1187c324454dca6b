"""Span tracing around the public calls into each layer of ``repro``.

The benchmark never edits the program: a :class:`Tracer` replaces the
public functions and methods it times with wrappers for the duration of
one traced iteration, and puts the originals back afterwards. Each name
is patched where its caller looks it up (``design_time`` imports
``prune_model`` directly, so ``repro.core.design_time.prune_model`` is
the name that gets wrapped). Spans stay in memory; the caller writes
them out when the run ends.

Per-layer metrics are derived from the spans alone: total time of a
layer is the summed duration of its outermost spans (a span nested in
another span of the same layer is not counted twice), and self time is
a span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from statistics import median

#: Percentiles tried, highest first, for the tail of per-call durations,
#: in per mille so that the sample-count test is exact integer math.
TAIL_PER_MILLE = (999, 990, 900)


@dataclass
class Span:
    """One timed call: ``parent`` is the index of the enclosing span."""

    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from wrappers it installs around library calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list = []

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` wrapped to record a span named ``name``.

        ``attrs(args, kwargs, result)``, when given, returns the counts
        stored on the span; it runs after ``fn`` and outside the span.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, time.perf_counter(), 0.0,
                        stack[-1] if stack else None)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`."""
        self.replace(owner, attr,
                     self.wrap(name, owner.__dict__[attr], attrs))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> list:
    """Per span: its duration minus the part its children cover.

    Children are clipped to their parent's interval, so a child that
    outlives its parent (impossible for nested calls, but cheap to
    guard) never drives self time negative.
    """
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        kids = [(max(c.start, span.start), min(c.end, span.end))
                for c in children.get(i, ())]
        kids = [(s, e) for s, e in kids if e > s]
        out.append(span.duration - covered(kids))
    return out


def outermost(spans: list, names) -> list:
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    names = set(names)
    keep = []
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent is None:
            keep.append(span)
    return keep


def layer_seconds(spans: list, *names) -> float:
    """Time spent in a layer: summed outermost spans of ``names``."""
    return sum(s.duration for s in outermost(spans, names))


def tail_stats(durations) -> dict:
    """Median and the highest percentile with >= 10 samples beyond it."""
    values = sorted(durations)
    n = len(values)
    out = {"n": n, "p50_s": median(values) if values else None}
    for q in TAIL_PER_MILLE:
        if n * (1000 - q) >= 10 * 1000:
            out[f"p{q / 10:g}_s"] = values[round(q * (n - 1) / 1000)]
            break
    return out


def per_call_stats(spans: list) -> dict:
    """:func:`tail_stats` of the span durations, by span name."""
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span.duration)
    return {name: tail_stats(d) for name, d in sorted(by_name.items())}
