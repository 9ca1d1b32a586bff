"""In-memory spans around the library's public calls.

The ledger never turns the library's own telemetry on.  In a traced run it
wraps the public functions each layer exposes — at the attribute the
library looks them up through — and records one span per call: name,
start, end, the span that caused it (per thread) and a few attributes.
Everything is restored when the traced window closes; the spans stay in
memory and become per-layer metrics when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("name", "sid", "parent", "start", "end", "attrs", "child_ns")

    def __init__(self, name: str, sid: int, parent: Optional["Span"],
                 attrs: dict) -> None:
        self.name = name
        self.sid = sid
        self.parent = parent
        self.attrs = attrs
        self.child_ns = 0
        self.start = time.perf_counter_ns()
        self.end = self.start

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        """Duration minus the time covered by child spans (children of one
        span run on its thread, one after another)."""
        return self.ns - self.child_ns


class Tracer:
    """Collects spans; :meth:`wrap` and :meth:`patch` put them around calls."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        sp = Span(name, next(self._ids), parent, attrs)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter_ns()
            stack.pop()
            if parent is not None:
                parent.child_ns += sp.ns
            self.spans.append(sp)

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable[..., dict]] = None,
             on_return: Optional[Callable[[Span, object], None]] = None,
             ) -> Callable:
        """``fn`` with every call recorded as span ``name``; ``attrs`` maps
        the call's arguments to span attributes and ``on_return`` may
        annotate the span from the return value."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(
                name, **(attrs(*args, **kwargs) if attrs else {})
            ) as sp:
                out = fn(*args, **kwargs)
            if on_return is not None:
                on_return(sp, out)
            return out

        return traced

    @contextlib.contextmanager
    def patch(self, owner, attr: str, name: str,
              attrs: Optional[Callable[..., dict]] = None,
              on_return: Optional[Callable[[Span, object], None]] = None,
              ) -> Iterator[None]:
        """Trace ``owner.attr`` (a module function or a class method) while
        the context is open."""
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, original, attrs, on_return))
        try:
            yield
        finally:
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def backends(self, names) -> Iterator[None]:
        """Trace the run callable of each named registered backend as span
        ``backend.<name>``, re-registering the originals afterwards."""
        from repro import backends

        originals = [backends.get(n) for n in names]
        for b in originals:
            field = "run_component" if b.run_component else "run_matrix"
            traced = self.wrap(f"backend.{b.name}", getattr(b, field))
            backends.register(
                dataclasses.replace(b, **{field: traced}), replace=True
            )
        try:
            yield
        finally:
            for b in originals:
                backends.register(b, replace=True)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total_ns(self, name: str) -> int:
        return sum(s.ns for s in self.spans if s.name == name)

    def children(self) -> Dict[int, List[Span]]:
        """Direct children of every span, keyed by the parent's id."""
        out: Dict[int, List[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                out[s.parent.sid].append(s)
        return out
