"""Span tracer for the benchmark's traced run.

Spans are recorded around calls into each layer's entry points by
wrapping those callables from the benchmark's side (``install`` swaps a
class or module attribute for a timing wrapper, ``uninstall`` puts the
original back); nothing in the program itself is edited.  Each span has a
name, start, end, parent span and the cell/job id ("unit") it ran for.

Self time is accounted online: every open span keeps the summed duration
of its children on the same thread, so ``self = duration - children`` is
exact for every span without storing them all.  The full span log (name,
unit, parent, start, end) is kept in memory only while ``logging`` is on
(the benchmark turns it on for the first traced round) and is written out
when the run ends.
"""

from __future__ import annotations

import json
import os
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

_now_ns = time.perf_counter_ns


class _ThreadLog:
    """One thread's open-span stack and span log (no cross-thread locking)."""

    __slots__ = ("name", "stack", "unit", "names", "units", "parents",
                 "starts", "ends", "agg")

    def __init__(self, name: str) -> None:
        self.name = name
        #: Open spans: [name_id, start_ns, child_ns, log_index].
        self.stack: List[list] = []
        self.unit = -1
        self.names = array("H")
        self.units = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        #: name_id -> [count, total_ns, self_ns, root_ns]; ``root_ns`` sums
        #: the spans opened with no parent on their thread.
        self.agg: Dict[int, List[int]] = {}


class Tracer:
    """In-memory span recorder shared by every thread of the process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.units: List[str] = []
        self._unit_ids: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: List[_ThreadLog] = []
        self._patches: List[Tuple[object, str, object]] = []
        #: Record span rows (not just aggregates) while True.
        self.logging = False
        self.origin_ns = _now_ns()

    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            return nid

    def unit_id(self, label: str) -> int:
        with self._lock:
            uid = self._unit_ids.get(label)
            if uid is None:
                uid = self._unit_ids[label] = len(self.units)
                self.units.append(label)
            return uid

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.current_thread().name)
            self._local.log = log
            with self._lock:
                self._threads.append(log)
        return log

    def set_unit(self, label: Optional[str]) -> None:
        """Attribute spans opened by this thread from now on to ``label``."""
        self._log().unit = -1 if label is None else self.unit_id(label)

    # ------------------------------------------------------------------
    def _open(self, log: _ThreadLog, nid: int) -> list:
        stack = log.stack
        index = -1
        if self.logging:
            index = len(log.starts)
            log.names.append(nid)
            log.units.append(log.unit)
            log.parents.append(stack[-1][3] if stack else -1)
            log.starts.append(0)
            log.ends.append(0)
        frame = [nid, 0, 0, index]
        stack.append(frame)
        frame[1] = _now_ns()
        return frame

    def _close(self, log: _ThreadLog, frame: list) -> None:
        end = _now_ns()
        stack = log.stack
        stack.pop()
        duration = end - frame[1]
        agg = log.agg.get(frame[0])
        if agg is None:
            agg = log.agg[frame[0]] = [0, 0, 0, 0]
        if stack:
            stack[-1][2] += duration
        else:
            agg[3] += duration
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame[2]
        index = frame[3]
        if index >= 0:
            log.starts[index] = frame[1] - self.origin_ns
            log.ends[index] = end - self.origin_ns

    def span(self, name: str) -> "_Span":
        """Context manager recording one span on the calling thread."""
        return _Span(self, self.name_id(name))

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_return: Optional[Callable[[tuple, object], None]] = None,
        unit_of: Optional[Callable[[tuple], Optional[str]]] = None,
    ) -> Callable:
        """Timing wrapper around ``fn``.

        ``on_return(args, result)`` runs after the span is
        closed (outside it); ``unit_of(args)`` attributes the call, and
        every span it opens, to a cell/job label.
        """
        nid = self.name_id(name)
        open_, close, get_log = self._open, self._close, self._log

        def wrapper(*args, **kwargs):
            log = get_log()
            previous_unit = log.unit
            if unit_of is not None:
                label = unit_of(args)
                if label is not None:
                    log.unit = self.unit_id(label)
            frame = open_(log, nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(log, frame)
                log.unit = previous_unit
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Swap ``owner.attr`` for ``replacement`` until :meth:`uninstall`."""
        if attr not in vars(owner):
            raise AttributeError(
                f"trace hook target {getattr(owner, '__name__', owner)}.{attr} "
                "is gone; update perfbench/layers.py"
            )
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, List[int]]:
        """``name -> [count, total_ns, self_ns, root_ns]`` over all threads."""
        merged: Dict[str, List[int]] = {}
        with self._lock:
            logs = list(self._threads)
        for log in logs:
            for nid, values in list(log.agg.items()):
                acc = merged.setdefault(self.names[nid], [0, 0, 0, 0])
                for i, value in enumerate(values):
                    acc[i] += value
        return merged

    def write(self, path: str, extra: Dict[str, object]) -> None:
        """Write every logged span plus ``extra`` as one JSON document.

        Rows are ``[name, unit, thread, parent_row, start_ns, end_ns]``
        with times relative to the tracer's creation; ``parent_row`` is a
        row index in the same document, or -1 for a root span.
        """
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            # Streamed row by row: a traced service round logs ~1M spans.
            handle.write('{"summary":%s,"spans":[' % json.dumps(extra))
            base = 0
            separator = ""
            for log in self._threads:
                for i in range(len(log.starts)):
                    parent = log.parents[i]
                    unit = log.units[i]
                    row = [
                        self.names[log.names[i]],
                        self.units[unit] if unit >= 0 else "",
                        log.name,
                        base + parent if parent >= 0 else -1,
                        log.starts[i],
                        log.ends[i],
                    ]
                    handle.write(separator + json.dumps(row, separators=(",", ":")))
                    separator = ","
                base += len(log.starts)
            handle.write("]}")


class _Span:
    __slots__ = ("_tracer", "_nid", "_log", "_frame")

    def __init__(self, tracer: Tracer, nid: int) -> None:
        self._tracer = tracer
        self._nid = nid

    def __enter__(self) -> "_Span":
        self._log = self._tracer._log()
        self._frame = self._tracer._open(self._log, self._nid)
        return self

    def __exit__(self, *exc: object) -> None:
        self._tracer._close(self._log, self._frame)
