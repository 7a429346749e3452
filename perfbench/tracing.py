"""In-memory spans for the benchmark's traced runs.

A span is (name, start_ns, end_ns, id, parent, run). Spans are kept in
memory and written out once, when the run ends. A disabled tracer
records nothing, so untraced runs pay only a no-op context manager.
"""

import contextlib
import itertools
import threading
import time


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.run = 0

    def new_run(self):
        """Start a new run id: spans of one pass share it."""
        self.run += 1
        return self.run

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.monotonic_ns()
        try:
            yield
        finally:
            end = time.monotonic_ns()
            stack.pop()
            with self._lock:
                self.spans.append((name, start, end, span_id, parent,
                                   self.run))
