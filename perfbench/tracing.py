"""In-memory spans recorded around calls into the program's layers.

The benchmark never edits the program: a :class:`Tracer` replaces a
module function or class attribute with a wrapper that records one span
per call (name, start, end, parent span, run id) and restores the
original on :meth:`Tracer.restore`.  Spans stay in a list until the
caller aggregates or writes them.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time


class Tracer:
    """Records spans for patched callables; parents follow the calling
    thread's stack of open spans."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, run_id]`` per call.
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, *, before=None, after=None):
        """``fn`` recording a ``name`` span per call.

        ``before(args, kwargs)`` and ``after(args, kwargs, result)`` may
        supply the span's run id (the last non-``None`` value wins).
        """
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            run_id = before(args, kwargs) if before is not None else None
            record = [name, 0.0, 0.0, stack[-1] if stack else None, run_id]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                value = after(args, kwargs, result)
                if value is not None:
                    record[4] = value
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` (a module function, method or
        classmethod) with a span-recording wrapper."""
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, classmethod):
            inner = self.wrap(name, getattr(owner, attr), **hooks)
            replacement = classmethod(
                lambda cls, *args, **kwargs: inner(*args, **kwargs))
        else:
            replacement = self.wrap(name, static, **hooks)
        self._patched.append((owner, attr, static))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        with self._lock:
            self.spans = []


def durations(spans: list[list], name: str) -> list[float]:
    return [end - start for n, start, end, _, _ in spans if n == name]


def self_times(spans: list[list], name: str) -> list[float]:
    """Each ``name`` span's duration minus its direct children's."""
    own = {i: s[2] - s[1] for i, s in enumerate(spans) if s[0] == name}
    for _, start, end, parent, _ in spans:
        if parent in own:
            own[parent] -= end - start
    return list(own.values())


def run_ids(spans: list[list], name: str) -> list:
    return [s[4] for s in spans if s[0] == name]
