"""In-memory span recorder plus the self-time and derived-difference arithmetic.

A span is one timed call at a layer boundary: name, start, end, the span that
enclosed it, the op it belongs to, and optionally the item (grid point) of
that op it worked on.  The enclosing span comes from a ``contextvars`` stack,
so nested ``with recorder.span(...)`` blocks build the tree without passing
parents around.  A disabled recorder hands out one shared null context, so
untraced code pays one method call and no clock reads.
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from dataclasses import dataclass

_NULL = contextlib.nullcontext()


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    item: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; nothing is written until ``dump``."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "span_stack", default=None
        )

    def span(self, name: str, op: int | None = None, item: int | None = None):
        """Context manager timing its body as a child of the enclosing span.

        ``op`` and ``item`` default to the enclosing span's values.
        """
        if not self.enabled:
            return _NULL
        return self._open(name, op, item)

    @contextlib.contextmanager
    def _open(self, name, op, item):
        parent = self._stack.get()
        if parent is not None:
            op = parent.op if op is None else op
            item = parent.item if item is None else item
        span = Span(len(self.spans), name, 0.0, 0.0, None if parent is None else parent.id, op, item)
        self.spans.append(span)
        token = self._stack.set(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.reset(token)

    def dump(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "op": s.op, "item": s.item}
            for s in self.spans
        ]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its interval
    covered by its children (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def totals(spans: list[Span], key) -> dict:
    """Summed duration per ``(key(span), span.name)``."""
    out: dict = {}
    for s in spans:
        k = (key(s), s.name)
        out[k] = out.get(k, 0.0) + s.duration
    return out


def derived(spans: list[Span], name: str, minus: tuple[str, ...], key) -> dict:
    """``name`` minus the ``minus`` spans, per group of ``key(span)``, over the
    groups in which ``name`` and every subtrahend ran.  Returns the
    differences summed per op."""
    tot = totals(spans, key)
    op_of = {key(s): s.op for s in spans}
    out: dict = {}
    for g in {k for (k, n) in tot if n == name}:
        if all((g, m) in tot for m in minus):
            diff = tot[(g, name)] - sum(tot[(g, m)] for m in minus)
            out[op_of[g]] = out.get(op_of[g], 0.0) + diff
    return out


def by_op(s: Span):
    return s.op


def by_item(s: Span):
    return (s.op, s.item)
