"""Span tracing for the traced benchmark run.

The tracer wraps public functions of the checker from the outside (the
program itself is not edited): each call records one span with its
name, start, end, parent span, the id of the operation it belongs to,
and whether it raised.  Spans stay in memory until the run ends.

Forked workers (the batch pool) inherit the wrappers.  A worker cannot
hand its in-memory spans back, and pool workers exit without running
``atexit`` hooks, so in a child process each finished operation (a root
span) is appended to a per-PID file in the spill directory, which the
parent reads back at the end.

Self time is a span's duration minus the part of it that child spans
cover; children in other processes may overlap each other, so the
covered part is the union of their intervals.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: spans the benchmark opens around one operation of its own; they group
#: a program's or request's spans but cover no code of the program
BENCH_PREFIX = "bench."

# (span id, parent id, operation id, name, start ns, end ns, raised)
Span = Tuple[int, int, int, str, int, int, bool]


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.spans: List[Span] = []
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        #: the parent-process span a forked child's root spans hang under
        self._fork_parent: Optional[Tuple[int, int]] = None
        self._spill = None
        self.active = False
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------------
    # process and thread state
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _after_fork(self) -> None:
        if not self.active:
            return
        stack = self._stack()
        self._fork_parent = (stack[-1][0], stack[-1][2]) if stack else None
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.spans = []
        self._spill = None

    def _new_id(self) -> int:
        return (self._pid << 32) | next(self._ids)

    def _flush_spill(self) -> None:
        if self._spill is None:
            self._spill = open(self.spill_dir / f"spans-{self._pid}.jsonl", "a")
        for span in self.spans:
            self._spill.write(json.dumps(span) + "\n")
        self._spill.flush()
        self.spans = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _begin(self, name: str) -> Tuple[int, int, int, int]:
        stack = self._stack()
        span_id = self._new_id()
        if stack:
            parent, op = stack[-1][0], stack[-1][2]
        elif self._fork_parent is not None:
            parent, op = self._fork_parent
        else:
            parent, op = 0, span_id
        stack.append((span_id, name, op))
        return span_id, parent, op, perf_counter_ns()

    def _end(self, name: str, opened, raised: bool) -> None:
        end = perf_counter_ns()
        span_id, parent, op, start = opened
        stack = self._stack()
        stack.pop()
        self.spans.append((span_id, parent, op, name, start, end, raised))
        if not stack and self._fork_parent is not None:
            self._flush_spill()

    def _record(self, name: str, fn: Callable, args, kwargs):
        opened = self._begin(name)
        raised = False
        try:
            return fn(*args, **kwargs)
        except BaseException:
            raised = True
            raise
        finally:
            self._end(name, opened, raised)

    @contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        if not self.active:
            yield
            return
        opened = self._begin(name)
        raised = False
        try:
            yield
        except BaseException:
            raised = True
            raise
        finally:
            self._end(name, opened, raised)

    def traced(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to record a span named ``name`` while active.

        A call made directly inside a span of the same name (recursion,
        or one wrapped method calling another under the same name) is
        passed straight through: the outer span already covers it.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            return tracer._record(name, fn, args, kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # installing wrappers
    # ------------------------------------------------------------------
    def wrap_method(self, cls: type, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.traced(name, original))

    def wrap_function(self, module, attr: str, name: str) -> None:
        """Wrap a module-level function and every module alias of it.

        ``from x import f`` copies the binding, so the wrapper is also
        installed in each loaded module that holds the same object.
        """
        original = getattr(module, attr)
        wrapper = self.traced(name, original)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((loaded, key, original))
                    setattr(loaded, key, wrapper)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # ------------------------------------------------------------------
    # reading back
    # ------------------------------------------------------------------
    def all_spans(self) -> List[Span]:
        """Spans of this process plus every spilled child span."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path) as handle:
                for line in handle:
                    span_id, parent, op, name, start, end, raised = json.loads(line)
                    spans.append((span_id, parent, op, name, start, end, raised))
        return spans

    def summary(self, window: Tuple[int, int]) -> "SpanSummary":
        return SpanSummary(self.all_spans(), window)


def _union_length(intervals: Iterable[Tuple[int, int]]) -> int:
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


class SpanSummary:
    """Per-name call counts, raised counts and self time of a span set."""

    def __init__(self, spans: List[Span], window: Tuple[int, int]) -> None:
        children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for span_id, parent, _op, _name, start, end, _raised in spans:
            if parent:
                children[parent].append((start, end))
        self.calls: Dict[str, int] = defaultdict(int)
        self.raised: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        for span_id, _parent, _op, name, start, end, raised in spans:
            covered = _union_length(
                (max(s, start), min(e, end))
                for s, e in children.get(span_id, ())
                if min(e, end) > max(s, start)
            )
            self.calls[name] += 1
            self.raised[name] += int(raised)
            self.total_ns[name] += end - start
            self.self_ns[name] += (end - start) - covered
        lo, hi = window
        covered = _union_length(
            (max(start, lo), min(end, hi))
            for _i, _p, _o, name, start, end, _r in spans
            if min(end, hi) > max(start, lo) and not name.startswith(BENCH_PREFIX)
        )
        #: share of the traced window that no span of the program covers
        self.uncovered_frac = 1.0 - covered / (hi - lo) if hi > lo else 0.0

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def total_s(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e9
