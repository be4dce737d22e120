"""In-memory spans for the traced benchmark run.

A span records a name, start and end (``perf_counter`` seconds), the span
that was open in the same thread when it began (its parent), the request
id the thread was serving, and optional attributes.  Spans are appended
to a list while the run executes and written out as JSON lines when it
ends.

Spans are recorded from the benchmark's own files by wrapping public
functions of the program (:class:`Patcher`); nothing in the program is
edited.  A wrapper records only while ``Tracer.on`` is set, so the same
process can measure an untraced phase and a traced phase back to back;
a workload sets it (:func:`recording`) only around the traffic it
measures, never around its own warm-up or reference checks.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: object
    attrs: dict | None


class Tracer:
    """Spans plus the counts and samples taken at the same boundaries."""

    def __init__(self):
        self.on = False
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(float(value))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, rid) -> None:
        """Tag spans opened by this thread with request id ``rid``."""
        self._local.rid = rid

    def call(self, name: str, fn, *args, attrs: dict | None = None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent,
                                   getattr(self._local, "rid", None), attrs))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict(), default=str) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval covered by its
    children (overlapping children count once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end - s.start) - covered
    return out


class Patcher:
    """Replace attributes with wrappers and put the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr: str, make_wrapper) -> None:
        """``make_wrapper(original) -> wrapper`` for a function defined on
        ``cls`` itself."""
        orig = cls.__dict__[attr]
        self.set(cls, attr, functools.wraps(orig)(make_wrapper(orig)))

    def wrap_function(self, orig, make_wrapper) -> None:
        """Wrap a module-level function in every loaded ``repro`` module
        that binds it, so callers that imported it by name see the wrapper
        too.  Modules imported later bind whatever their source module
        holds at that time."""
        wrapper = functools.wraps(orig)(make_wrapper(orig))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self.set(module, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()


@contextlib.contextmanager
def recording(tracer: Tracer | None):
    """Record spans inside the block; a no-op when ``tracer`` is None."""
    if tracer is None:
        yield
        return
    tracer.on = True
    try:
        yield
    finally:
        tracer.on = False


def spanned(tracer: Tracer, name: str, orig):
    """A wrapper that records one span per call while tracing is on."""

    def wrapper(*args, **kwargs):
        if not tracer.on:
            return orig(*args, **kwargs)
        return tracer.call(name, orig, *args, **kwargs)

    return wrapper
