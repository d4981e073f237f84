"""Outside-in layer tracing for the benchmark's traced run.

The tracer never edits the program: it replaces public functions with
timing wrappers by module or class attribute, and puts every original
back on :meth:`LayerTracer.uninstall`.  Three properties matter:

- **per-thread span stacks.**  Plan resolutions run on the serving
  layer's resolver thread while the event loop and two client threads
  run beside it.  Each thread keeps its own stack and its own
  aggregates, so a span's self time only ever subtracts children from
  its own thread.
- **self and inclusive time.**  Self time is a span's duration minus its
  children's.  Inclusive time counts only the outermost span of a name
  on a thread, so a layer that re-enters itself (an artifact producer
  calling ``get_or_create`` again) is not counted twice.
- **fork workers.**  The scenario scheduler forks one worker per tile
  and the workers inherit these wrappers.  At the fork boundary (the
  sweep entry point every tile runs) a worker drops the parent's copied
  state, records its own spans, and writes its aggregates to a spool
  file as the tile ends; the parent merges the files.  Worker layer
  time is therefore summed over workers (CPU-parallel time, which can
  exceed wall time), while coverage (``unattributed``) is computed on
  the parent's threads only, where the scheduler's ``sched.map`` span
  covers the wait for the workers.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path

__all__ = ["LayerTracer", "merge_intervals"]


class _ThreadState:
    """One thread's span stack, aggregates and coverage intervals."""

    def __init__(self):
        self.stack = []  # open frames: [start, child_seconds]
        self.depth = {}  # span name -> open spans of that name
        self.agg = {}  # span name -> [self_s, incl_s, calls, work]
        self.intervals = []  # (start, end) of outermost spans
        self.opened = 0.0


def merge_intervals(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    end = None
    start = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            if end is not None:
                total += end - start
            start, end = lo, hi
        else:
            end = max(end, hi)
    if end is not None:
        total += end - start
    return total


class LayerTracer:
    """Timing wrappers with thread-local stacks and a fork spool.

    Parameters
    ----------
    spool:
        Directory forked workers write their aggregates to.
    """

    def __init__(self, spool):
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.parent_pid = os.getpid()
        self._owner_pid = self.parent_pid
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._patches = []  # (owner, attribute, original)

    # ------------------------------------------------------------ recording

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def wrap(self, name, fn, work=None, counted=True):
        """``fn`` timed as span ``name``.

        ``work(result, args, kwargs)`` returns an amount of work done by
        the call (bytes computed, verify cycles) summed per span name.
        ``counted=False`` adds time but no call: for a function that does
        part of a layer's work inside that layer's counted entry point.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            start = time.perf_counter()
            frame = [start, 0.0]
            if not state.stack:
                state.opened = start
            state.stack.append(frame)
            depth = state.depth.get(name, 0)
            state.depth[name] = depth + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                state.stack.pop()
                state.depth[name] = depth
                elapsed = end - start
                record = state.agg.get(name)
                if record is None:
                    record = state.agg[name] = [0.0, 0.0, 0, 0]
                record[0] += elapsed - frame[1]
                if depth == 0:
                    record[1] += elapsed
                record[2] += counted
                if state.stack:
                    state.stack[-1][1] += elapsed
                else:
                    state.intervals.append((state.opened, end))
            if work is not None:
                record[3] += work(result, args, kwargs)
            return result

        return traced

    def fork_boundary(self, fn):
        """Wrap the entry point a forked worker runs for each task."""
        tracer = self

        @functools.wraps(fn)
        def boundary(*args, **kwargs):
            pid = os.getpid()
            if pid == tracer.parent_pid:
                return fn(*args, **kwargs)
            if tracer._owner_pid != pid:
                # A fresh fork: forget the parent's copied stack and sums
                # (and its lock, which another thread may have held).
                tracer._owner_pid = pid
                tracer._local = threading.local()
                tracer._threads = []
                tracer._lock = threading.Lock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._write_spool(pid)

        return boundary

    def _write_spool(self, pid):
        path = self.spool / f"{pid}.json"
        tmp = self.spool / f"{pid}.json.tmp"
        tmp.write_text(json.dumps(self._sum(self._threads)), encoding="utf-8")
        os.replace(tmp, path)

    # ------------------------------------------------------------- patching

    def patch(self, owner, attribute, name, work=None, counted=True):
        """Replace ``owner.attribute`` with its traced wrapper."""
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, work, counted))

    def patch_boundary(self, owner, attribute):
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.fork_boundary(original))

    def uninstall(self):
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------ reporting

    @staticmethod
    def _sum(states):
        totals = {}
        for state in states:
            for name, record in state.agg.items():
                into = totals.setdefault(name, [0.0, 0.0, 0, 0])
                for i in range(4):
                    into[i] += record[i]
        return totals

    def totals(self):
        """``name -> {"self_s", "incl_s", "calls", "work"}``, workers merged."""
        with self._lock:
            states = list(self._threads)
        merged = self._sum(states)
        for path in sorted(self.spool.glob("*.json")):
            for name, record in json.loads(path.read_text("utf-8")).items():
                into = merged.setdefault(name, [0.0, 0.0, 0, 0])
                for i in range(4):
                    into[i] += record[i]
        return {
            name: {"self_s": r[0], "incl_s": r[1], "calls": r[2], "work": r[3]}
            for name, r in merged.items()
        }

    def covered_seconds(self, start, end):
        """Parent-process time in ``[start, end]`` inside any span."""
        with self._lock:
            states = list(self._threads)
        clipped = [
            (max(lo, start), min(hi, end))
            for state in states
            for lo, hi in state.intervals
            if hi > start and lo < end
        ]
        return merge_intervals(clipped)

    def calibrate(self, n=20000):
        """Seconds one wrapped call adds over a bare call (median of 5)."""
        def bare():
            return None

        traced = LayerTracer(self.spool).wrap("calibrate", bare)
        costs = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(n):
                bare()
            t1 = time.perf_counter()
            for _ in range(n):
                traced()
            t2 = time.perf_counter()
            costs.append(max(0.0, ((t2 - t1) - (t1 - t0)) / n))
        return sorted(costs)[len(costs) // 2]
