"""In-memory span tracer used by the benchmark's traced runs.

Spans are recorded from the benchmark's own files: :meth:`Tracer.wrap`
patches a public entry point of a layer for the length of a run and
:meth:`Tracer.restore` puts the original back.  Each span records its
name, start, end and parent; the parent is the innermost open span on the
same thread unless one is passed explicitly (an HTTP handler thread names
the client request it serves).  Nothing is written until :meth:`dump`.

A span's *self time* is its duration minus the part of it that its
children cover, each span first clipped to its parent's interval.  When
siblings do not overlap, the self times of a tree add up to its root's
duration; :meth:`Tracer.accounting` checks exactly that.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_MISSING = object()

#: (id, parent id or 0, name, start s, end s)
Span = Tuple[int, int, str, float, float]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        """Id of the innermost open span on this thread (0 if none)."""
        stack = self._stack()
        return stack[-1] if stack else 0

    def new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def record(
        self, name: str, start: float, end: float, parent: int = 0, span_id: int = 0
    ) -> int:
        """Add a span whose interval is already known."""
        span_id = span_id or self.new_id()
        with self._lock:
            self.spans.append((span_id, parent, name, start, end))
        return span_id

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None, span_id: int = 0):
        stack = self._stack()
        parent_id = stack[-1] if parent is None and stack else (parent or 0)
        span_id = span_id or self.new_id()
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, parent_id, name, start, end))

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr`` until restore.

        ``after`` receives each call's return value (used to read counters
        the program publishes after a call, such as phase timings).
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        self.patch(owner, attr, traced)

    def patch(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every :meth:`wrap` and :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    # -- analysis -------------------------------------------------------

    def _clipped(self) -> Dict[int, Tuple[float, float]]:
        """Span id -> its interval clipped to its ancestors' intervals.

        A child can outlive its parent across threads (an HTTP handler
        finishes its bookkeeping after the client has its response); that
        tail is not part of the parent's time.
        """
        by_id = {s[0]: s for s in self.spans}
        clipped: Dict[int, Tuple[float, float]] = {}

        def resolve(span_id: int) -> None:
            chain = []
            while span_id in by_id and span_id not in clipped:
                chain.append(span_id)
                span_id = by_id[span_id][1]
            lo, hi = clipped.get(span_id, (float("-inf"), float("inf")))
            for sid in reversed(chain):
                start, end = by_id[sid][3], by_id[sid][4]
                lo = max(start, lo)
                hi = max(min(end, hi), lo)
                clipped[sid] = (lo, hi)

        for span in self.spans:
            resolve(span[0])
        return clipped

    def self_times(self) -> Dict[int, float]:
        """Span id -> clipped duration minus the union of its children's."""
        clipped = self._clipped()
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            children[span[1]].append(clipped[span[0]])
        out: Dict[int, float] = {}
        for span_id, (start, end) in clipped.items():
            covered = 0.0
            cursor = start
            for lo, hi in sorted(children.get(span_id, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span_id] = (end - start) - covered
        return out

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, busy ms (sum of durations), self ms."""
        selfs = self.self_times()
        table: Dict[str, Dict[str, float]] = {}
        for span_id, _, name, start, end in self.spans:
            row = table.setdefault(name, {"count": 0, "busy_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["busy_ms"] += (end - start) * 1e3
            row["self_ms"] += selfs[span_id] * 1e3
        return table

    def durations_ms(self, name: str) -> List[float]:
        return [(s[4] - s[3]) * 1e3 for s in self.spans if s[2] == name]

    def accounting(self, root_names: Iterable[str]) -> Dict[str, float]:
        """Split the roots' time into layer self times and the remainder.

        ``wall_ms`` is the summed duration of the root spans (one root for
        a sequential run, one per request for the service).  The roots'
        own self time is the part no layer span covers: ``unattributed_ms``.
        ``residual_ms`` is what is left after subtracting every self time
        in the roots' trees from the wall time; it is zero up to float
        rounding unless spans overlap or leak out of their parents.
        """
        roots = set(root_names)
        selfs = self.self_times()
        parent_of = {s[0]: s[1] for s in self.spans}
        name_of = {s[0]: s[2] for s in self.spans}

        def root_of(span_id: int) -> int:
            while parent_of.get(span_id, 0) and name_of.get(span_id) not in roots:
                span_id = parent_of[span_id]
            return span_id if name_of.get(span_id) in roots else 0

        wall = sum(s[4] - s[3] for s in self.spans if s[2] in roots)
        unattributed = sum(selfs[s[0]] for s in self.spans if s[2] in roots)
        layer_self = sum(
            selfs[s[0]]
            for s in self.spans
            if s[2] not in roots and root_of(s[0])
        )
        return {
            "wall_ms": wall * 1e3,
            "unattributed_ms": unattributed * 1e3,
            "layer_self_ms": layer_self * 1e3,
            "residual_ms": (wall - unattributed - layer_self) * 1e3,
        }

    def dump(self, path) -> None:
        """Write every span as JSON (relative times, ms)."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        rows = [
            {
                "id": span_id,
                "parent": parent,
                "name": name,
                "start_ms": round((start - t0) * 1e3, 4),
                "end_ms": round((end - t0) * 1e3, 4),
            }
            for span_id, parent, name, start, end in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n")
