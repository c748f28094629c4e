"""In-memory spans around the calls into each layer of the simulator.

Nothing under ``src/`` knows about this module.  The benchmark wraps the
public functions of each ``repro`` package from the outside
(:class:`Instrumentation` swaps class and module attributes and restores
them afterwards), and it attributes engine-dispatched callbacks through
the engine's public profiler slot (``fabric.hooks.attach(profiler=...)``)
with :class:`DispatchProfiler`.

A span has a name, a start, an end, a parent and a cell id.  Every span
is folded into per-name totals (count, total time, self time); the first
:data:`RAW_PER_CELL` spans of each cell are also kept whole for the dump.
A span's self time is its duration minus the time its child spans cover.
The wrapper's own bookkeeping is charged to a separate ``bookkeeping``
total instead of to the parent, so that the layer shares of a traced run
are not inflated by the tracing itself: the layer self times, the
bookkeeping and the time outside any span add up to the traced run time
exactly.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

clock = time.perf_counter_ns

#: The ``repro`` packages the benchmark reports as layers, in report order.
LAYERS = (
    "sim",
    "net",
    "transport",
    "lb",
    "core",
    "detect",
    "faults",
    "workload",
    "metrics",
    "experiments",
    "other",
)


#: Spans of each cell kept whole for the dump.
RAW_PER_CELL = 500
#: Calls per calibration round, and rounds (the median round is used).
CALIBRATE_CALLS = 20000
CALIBRATE_REPEATS = 5


def layer_of(module: Optional[str]) -> str:
    """``repro.net.port`` -> ``net``; anything outside the layers -> ``other``."""
    parts = (module or "").split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


class SpanRecorder:
    """Span stack, per-name totals and the raw span sample of one run."""

    def __init__(self) -> None:
        #: Open spans, innermost last: ``[start_ns, child_ns, span_id]``.
        self.stack: List[list] = []
        #: name -> ``[layer, count, total_ns, self_ns]``.
        self.totals: Dict[str, list] = {}
        #: Time spent in the wrappers' own bookkeeping.
        self.bookkeeping_ns = 0
        #: Total duration of the outermost spans.
        self.root_ns = 0
        #: Calibrated cost of the part of a wrapped call no clock read
        #: covers (argument passing into and out of the wrapper).
        self.uncovered_ns = 0
        #: Calibrated cost of the wrapper's own work inside a span's
        #: interval; deducted from every span's self time.
        self.inner_ns = 0
        #: ``(span_id, name, start_ns, end_ns, parent_id, cell)`` tuples.
        self.raw: List[Tuple[str, ...]] = []
        self.cell = -1
        self._raw_left = 0
        self._next_id = 0

    def start_cell(self, cell: int) -> None:
        self.cell = cell
        self._raw_left = RAW_PER_CELL

    def slot(self, name: str, layer: str) -> list:
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [layer, 0, 0, 0]
        return entry

    def wrap(self, fn: Callable, name: str, layer: str,
             event: Any = None) -> Callable:
        """``fn`` with a span around every call.  With ``event``, the
        wrapper first puts ``fn`` back as ``event.fn`` (see
        :class:`DispatchProfiler`)."""
        entry = self.slot(name, layer)
        stack = self.stack
        rec = self

        def spanned(*args, **kwargs):
            if event is not None:
                event.fn = fn
            t0 = clock()
            span_id = rec._next_id
            rec._next_id = span_id + 1
            frame = [t0, 0, span_id]
            parent = stack[-1] if stack else None
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                entry[1] += 1
                entry[2] += duration
                entry[3] += duration - frame[1] - rec.inner_ns
                if rec._raw_left > 0:
                    rec._raw_left -= 1
                    rec.raw.append((
                        span_id, name, t0, t1,
                        parent[2] if parent is not None else -1, rec.cell,
                    ))
                t2 = clock()
                rec.bookkeeping_ns += t2 - t1 + rec.uncovered_ns + rec.inner_ns
                if parent is not None:
                    parent[1] += t2 - t0 + rec.uncovered_ns
                else:
                    rec.root_ns += t2 - t0 + rec.uncovered_ns

        spanned.perfbench_span = name
        return spanned

    def span_total(self, name: str) -> Tuple[int, int]:
        """(count, total_ns) of spans named ``name`` so far."""
        entry = self.totals.get(name)
        return (entry[1], entry[2]) if entry else (0, 0)

    def layer_self_ns(self) -> Dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for layer, _count, _total, self_ns in self.totals.values():
            out[layer] += self_ns
        return out

    def calibrate(self) -> None:
        """Measure :attr:`uncovered_ns` and :attr:`inner_ns` on a wrapped
        no-op: the parent's extra self time per call, and the no-op span's
        own self time beyond a bare call of the no-op."""

        def noop():
            return None

        entry = self.slot("perfbench.calibrate", "other")
        calls = CALIBRATE_CALLS
        outside, inside = [], []
        for _ in range(CALIBRATE_REPEATS):
            t0 = clock()
            for _ in range(calls):
                pass
            empty_loop = clock() - t0
            t0 = clock()
            for _ in range(calls):
                noop()
            bare_call = (clock() - t0 - empty_loop) / calls
            wrapped = self.wrap(noop, "perfbench.calibrate", "other")
            entry[3] = 0
            frame = [clock(), 0, -1]
            self.stack.append(frame)
            for _ in range(calls):
                wrapped()
            self.stack.pop()
            parent_self = clock() - frame[0] - frame[1]
            outside.append((parent_self - empty_loop) / calls)
            inside.append(entry[3] / calls - bare_call)
        outside.sort()
        inside.sort()
        self.uncovered_ns = max(0, int(outside[CALIBRATE_REPEATS // 2]))
        self.inner_ns = max(0, int(inside[CALIBRATE_REPEATS // 2]))
        # Calibration spans are not part of any run.
        del self.totals["perfbench.calibrate"]
        self.bookkeeping_ns = 0
        self.root_ns = 0
        self.raw.clear()
        self._next_id = 0


def _callback_target(fn: Callable) -> Callable:
    """The user callback behind ``fn``: unwraps bound methods and the
    engine's periodic-timer shim (a closure over the user's ``fn``)."""
    target = getattr(fn, "__func__", fn)
    code = getattr(target, "__code__", None)
    closure = getattr(target, "__closure__", None)
    if (
        code is not None
        and closure
        and layer_of(getattr(target, "__module__", None)) == "sim"
        and "fn" in code.co_freevars
    ):
        try:
            inner = closure[code.co_freevars.index("fn")].cell_contents
        except ValueError:  # empty cell
            return target
        return getattr(inner, "__func__", inner)
    return target


class DispatchProfiler:
    """Engine profiler (``fabric.hooks.attach(profiler=...)``) that gives
    every dispatched callback a span and samples the queue depth.

    The engine calls :meth:`on_event` just before ``event.fn(*args)``;
    the profiler swaps ``event.fn`` for a spanned wrapper that puts the
    original back before calling it, so a callback that re-arms its own
    event re-arms the original function.
    """

    def __init__(self, rec: SpanRecorder, sim) -> None:
        self.rec = rec
        self.sim = sim
        self.max_pending = 0
        self._names: Dict[Any, Tuple[str, str]] = {}

    def _describe(self, fn: Callable) -> Tuple[str, str]:
        """(span name, layer) of a dispatched callback."""
        target = _callback_target(fn)
        key = getattr(target, "__code__", target)
        known = self._names.get(key)
        if known is None:
            qualname = getattr(target, "__qualname__", type(target).__name__)
            known = self._names[key] = (
                f"event:{qualname}",
                layer_of(getattr(target, "__module__", None)),
            )
        return known

    def on_event(self, event) -> None:
        t_a = clock()
        rec = self.rec
        stack = rec.stack
        pending = self.sim.pending
        if pending > self.max_pending:
            self.max_pending = pending
        fn = event.fn
        if not hasattr(getattr(fn, "__func__", fn), "perfbench_span"):
            name, layer = self._describe(fn)
            event.fn = rec.wrap(fn, name, layer, event=event)
        t_b = clock()
        cost = t_b - t_a + rec.uncovered_ns
        rec.bookkeeping_ns += cost
        if stack:
            stack[-1][1] += cost


class Instrumentation:
    """Swaps attributes for spanned wrappers; :meth:`restore` undoes it.

    Targets that do not exist are listed in :attr:`missing`.  The
    benchmark fails a run that has any: a renamed layer function would
    otherwise read as a layer doing no work, an apparent gain.
    """

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self.missing: List[str] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def attr(self, owner: Any, attr: str, name: str, layer: str,
             around: Optional[Callable[[Callable], Callable]] = None) -> None:
        """Wrap ``owner.attr`` (a module function or a class method);
        ``around(fn)``, when given, decorates ``fn`` inside the span."""
        raw = getattr(owner, "__dict__", {}).get(attr)
        if raw is None:
            self.missing.append(name)
            return
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if around is not None:
            fn = around(fn)
        wrapped: Any = self.rec.wrap(fn, name, layer)
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrapped)
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def methods(self, root: type, attrs: Tuple[str, ...]) -> None:
        """Wrap every class in ``root``'s subclass tree that defines one
        of ``attrs`` itself; the layer is the defining class's package.
        An attribute no class in the tree defines is missing."""
        found = set()
        seen = set()
        todo = [root]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            for attr in attrs:
                if attr in cls.__dict__:
                    found.add(attr)
                    self.attr(cls, attr, f"{cls.__name__}.{attr}",
                              layer_of(cls.__module__))
        self.missing.extend(f"{root.__name__}.{attr}" for attr in attrs
                            if attr not in found)

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
