"""In-memory spans for the traced benchmark run.

Each wrapped qal function records one span per call: its name, start and
end (perf_counter seconds), the index of the enclosing span (-1 at the top)
and the operation id. Spans stay in memory; the run writes them out when it
ends. Wrappers replace module attributes, so they catch calls made through
the name the caller looks up, and `patched` restores the originals.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    op: int


def covered_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover.

    Grandchildren lie inside their parent, so they are not subtracted twice.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = covered_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(i, ())
            if c.end > span.start and c.start < span.end
        )
        out.append(span.end - span.start - covered)
    return out


Observer = Callable[[tuple, dict, object], None]


class Recorder:
    """Collects spans and counts from wrapped calls.

    A call of a span named in `op_names` starts a new operation id; so does
    `op()`, which also records a root span around one harness step.
    """

    def __init__(self, op_names: Iterable[str] = ()):
        self._raw: list[list] = []
        self._stack: list[int] = []
        self._op_names = frozenset(op_names)
        self.op_id = -1
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = {}

    def wrap(self, fn: Callable, name: str, observe: Observer | None = None) -> Callable:
        raw, stack, clock = self._raw, self._stack, time.perf_counter
        starts_op = name in self._op_names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_op:
                self.op_id += 1
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(raw))
            raw.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def op(self, name: str = "op"):
        self.op_id += 1
        stack = self._stack
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op_id]
        stack.append(len(self._raw))
        self._raw.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def add_key(self, kind: str, key) -> None:
        self.keys.setdefault(kind, set()).add(key)

    @property
    def spans(self) -> list[Span]:
        return [Span(*r) for r in self._raw]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


@contextmanager
def patched(recorder: Recorder, targets):
    """Wrap each (module, attribute, span name, observer) target; restore on exit."""
    saved = []
    try:
        for module, attr, name, observe in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(original, name, observe))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
