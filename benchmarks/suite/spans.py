"""In-memory spans recorded around a program's public entry points.

The suite measures each layer from outside the library: a
:class:`Tracer` swaps an attribute (a module function, a class method)
for a timing wrapper, records one span per call, and puts the original
back when the run ends.  A span holds its name, start and end
(``time.perf_counter``, which is CLOCK_MONOTONIC on Linux and therefore
comparable across the benchmark and its server subprocess), the span that
was open when it started, and the request it serves.

Parenthood follows a per-thread stack.  A call fanned out to worker
threads (the sharded scatter) starts on an empty stack; it takes the
innermost span marked ``fanout=True`` as its parent instead.

Finished spans are kept as plain tuples of numbers and strings, which
the garbage collector stops tracking — a list of span objects would be
rescanned by every full collection and slow the traced run down.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
from collections import defaultdict
from itertools import count

__all__ = ["Span", "Tracer", "self_times", "covered", "write_jsonl",
           "read_jsonl"]

_FIELDS = ("id", "name", "start", "end", "parent", "request", "proc")


class Span:
    """A finished span, for analysis (``Tracer.spans`` holds tuples)."""

    __slots__ = _FIELDS + ("attrs",)

    def __init__(self, row: tuple):
        (self.id, self.name, self.start, self.end, self.parent,
         self.request, self.proc, attrs) = row
        self.attrs = dict(attrs)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    __slots__ = ("id", "name", "start", "parent", "request")


class Tracer:
    """Collects spans; installs and removes the timing wrappers."""

    def __init__(self, proc: str = "bench"):
        self.proc = proc
        self.spans: list[tuple] = []
        #: request id stamped on spans opened with an empty stack
        self.request = None
        self._ids = count(1)
        self._local = threading.local()
        self._fanout: list[_Open] = []
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> _Open:
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._fanout[-1] if self._fanout else None)
        span = _Open()
        span.id = next(self._ids)
        span.name = name
        span.parent = parent.id if parent is not None else None
        span.request = parent.request if parent is not None else self.request
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def finish(self, span: _Open, attrs=()) -> tuple:
        end = time.perf_counter()
        self._stack().pop()
        row = (span.id, span.name, span.start, end, span.parent,
               span.request, self.proc, attrs)
        self.spans.append(row)
        return row

    def record(self, name: str, start: float, end: float, parent=None,
               request=None) -> tuple:
        """Add a span whose times were taken elsewhere (the asyncio load
        generator, where many requests are open on one thread at once).
        ``parent`` is a span row or None."""
        row = (next(self._ids), name, start, end,
               parent[0] if parent is not None else None, request,
               self.proc, ())
        self.spans.append(row)
        return row

    def finished(self) -> list[Span]:
        return [Span(row) for row in self.spans]

    # -- wrappers ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, observe=None,
             fanout: bool = False) -> None:
        """Replace ``owner.attr`` with a wrapper recording a ``name`` span.

        ``observe(args, kwargs, result)`` runs after the call and returns
        the counts to keep on the span as ``((key, value), ...)``.  With
        ``fanout=True`` spans that start on other threads during the
        call take this one as their parent.
        """
        original = getattr(owner, attr)
        had_own = attr in vars(owner)
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            if fanout:
                tracer._fanout.append(span)
            attrs = ()
            try:
                result = original(*args, **kwargs)
                if observe is not None:
                    attrs = observe(args, kwargs, result)
            finally:
                if fanout:
                    tracer._fanout.pop()
                tracer.finish(span, attrs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, had_own))

    def uninstall(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


# -- analysis ------------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """``{(proc, span id): self time}``: each span's duration minus the
    part of it that its child spans cover (children on parallel threads
    are counted once)."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[(span.proc, span.parent)].append((span.start, span.end))
    return {
        (span.proc, span.id): span.duration - covered(
            children.get((span.proc, span.id), ()), span.start, span.end
        )
        for span in spans
    }


def write_jsonl(rows, path) -> None:
    with gzip.open(path, "wt") as handle:
        for row in rows:
            record = dict(zip(_FIELDS, row))
            record.update(row[7])
            handle.write(json.dumps(record) + "\n")


def read_jsonl(path) -> list[tuple]:
    rows = []
    with gzip.open(path, "rt") as handle:
        for line in handle:
            record = json.loads(line)
            head = tuple(record.pop(key) for key in _FIELDS)
            rows.append(head + (tuple(record.items()),))
    return rows
