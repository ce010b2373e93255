"""Thread-safe span recorder that times calls into ``thermistor`` from outside.

A span wrapper replaces a function at every name that binds it in a
``thermistor`` module: ``from .linear import solve_linear`` gives
``thermistor.solver`` a second binding, and calls made through it would
otherwise go untimed.  Each call becomes a span (id, name, start, end,
parent id, operation id) kept in memory until the run ends.

High-frequency leaf calls (``Expr.__call__`` and
``GridFunction.__post_init__``) are not spans.  They are aggregated into
per-thread counters of calls and seconds, to keep the cost per call low:
the traced oracle run makes about three million scalar expression calls
of about 2 us each.  Their time is still excluded from the self time of
the span they ran under.

Every thread keeps its own stack, span list and counters, so the hot path
takes no lock.  A span opened on a thread with an empty stack (a sweep
worker) takes its parent from the top of the main thread's stack, which
is where the pool was started.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

perf = time.perf_counter


class _Frame:
    __slots__ = ("sid", "excluded")

    def __init__(self, sid: int) -> None:
        self.sid = sid
        # seconds of aggregated leaf calls and of recorder hooks that ran
        # directly under this span on its own thread
        self.excluded = 0.0


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        # (id, name, start, end, parent, op, excluded)
        self.spans: list[tuple] = []
        # name -> [count, seconds]
        self.counters: dict[str, list] = defaultdict(lambda: [0, 0.0])


# hook(counters, args, kwargs, result) runs after a span closes; its time
# is excluded from the parent's self time
Hook = Callable[[dict, tuple, dict, object], None]


class Recorder:
    """Installs wrappers, records spans and counters, and summarises them."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        # itertools.count.__next__ is a single C call, atomic under the GIL
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self.op: int | None = None
        self.t0 = perf()
        self._main = self._state()

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
            return st

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn: Callable, hook: Hook | None) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = rec._state()
            stack = st.stack or rec._main.stack
            try:
                parent = stack[-1].sid
            except IndexError:
                parent = None
            frame = _Frame(next(rec._ids))
            st.stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                st.stack.pop()
                st.spans.append((frame.sid, name, t0, t1, parent, rec.op, frame.excluded))
            if hook is not None:
                hook(st.counters, args, kwargs, out)
                if st.stack:
                    st.stack[-1].excluded += perf() - t1
            return out

        return wrapper

    def _leaf(self, name: str, float_name: str, fn: Callable) -> Callable:
        # the hot path of the traced oracle run: three million calls, so
        # no keyword packing and no method call on it
        local = self._local
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = perf()
            out = fn(*args)
            dt = perf() - t0
            try:
                st = local.state
            except AttributeError:
                st = state()
            c = st.counters[float_name if out.__class__ is float else name]
            c[0] += 1
            c[1] += dt
            stack = st.stack
            if stack:
                stack[-1].excluded += dt
            return out

        return wrapper

    # -- installation -----------------------------------------------------

    def wrap_function(self, name: str, module, attr: str, hook: Hook | None = None) -> None:
        """Wrap ``module.attr`` at every name bound to it in a loaded thermistor module."""
        fn = getattr(module, attr, None)
        if fn is None:
            return
        wrapper = self._span(name, fn, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "thermistor" or mod_name.startswith("thermistor.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, key, fn))
                    setattr(mod, key, wrapper)

    def wrap_method(self, name: str, cls: type, attr: str, hook: Hook | None = None) -> None:
        fn = cls.__dict__.get(attr)
        if fn is None:
            return
        self._patches.append((cls, attr, fn))
        setattr(cls, attr, self._span(name, fn, hook))

    def wrap_leaf(self, name: str, cls: type, attr: str, float_name: str | None = None) -> None:
        """Count calls and seconds of ``cls.attr`` under ``name``, or ``float_name`` when it returns a float."""
        fn = cls.__dict__.get(attr)
        if fn is None:
            return
        self._patches.append((cls, attr, fn))
        setattr(cls, attr, self._leaf(name, float_name or name, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def spans(self) -> list[tuple]:
        with self._lock:
            states = list(self._states)
        out = [span for st in states for span in st.spans]
        out.sort(key=lambda s: s[2])
        return out

    def counters(self) -> dict[str, list]:
        with self._lock:
            states = list(self._states)
        total: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for st in states:
            for key, (n, s) in list(st.counters.items()):
                total[key][0] += n
                total[key][1] += s
        return total

    def self_times(self, spans: list[tuple]) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals and excluded time."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for sid, _name, start, end, parent, _op, _exc in spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _name, start, end, _parent, _op, excluded in spans:
            covered = 0.0
            lo_open = hi_open = None
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, start), min(hi, end)
                if hi <= lo:
                    continue
                if hi_open is None or lo > hi_open:
                    if hi_open is not None:
                        covered += hi_open - lo_open
                    lo_open, hi_open = lo, hi
                else:
                    hi_open = max(hi_open, hi)
            if hi_open is not None:
                covered += hi_open - lo_open
            out[sid] = max(0.0, (end - start) - covered - excluded)
        return out

    def write(self, path: Path, spans: list[tuple], self_s: dict[int, float]) -> None:
        """Write one JSON object per span, times in seconds from recorder creation."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op, _exc in spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start - self.t0,
                            "end": end - self.t0,
                            "parent": parent,
                            "op": op,
                            "self": self_s[sid],
                        }
                    )
                    + "\n"
                )
