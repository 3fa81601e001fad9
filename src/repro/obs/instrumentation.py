"""The instrumentation hub: one observer, any number of sinks.

:class:`Instrumentation` implements the engine's observer protocol
(``on_phase`` / ``on_local`` / ``on_fault`` / ``on_cache``) and adds the
span API the planner, router, exchange executor and replay layer emit
through.  It multiplexes everything to registered *sinks* — a
:class:`~repro.machine.trace.TraceRecorder`, a
:class:`~repro.obs.export.ChromeTraceSink`, a
:class:`~repro.obs.export.JsonlSink`, or anything implementing a subset
of the hook methods — and aggregates labelled metrics into a
:class:`~repro.obs.metrics.MetricsRegistry`.

The hub maintains a *model-time clock*: every observed phase or local
charge advances it by the charged duration, so spans and events land on
the same timeline the engine's :class:`~repro.machine.metrics.TransferStats`
accumulates, without the engine knowing about spans at all.  Passing an
injectable ``wall_clock`` callable arms a second, independent
**wall-clock axis**: every span then also records ``wall_start`` /
``wall_end`` real seconds, which is how queue wait, lock contention and
compile latency — invisible to the cost model — become observable.

A hub may also carry a stack of
:class:`~repro.obs.trace.TraceContext` objects (see :meth:`in_trace`);
spans and events opened inside inherit the innermost ``trace_id``, so a
request's telemetry is attributable across subsystems.

The zero-observer fast path stays allocation-free: code that may or may
not be instrumented asks :func:`instrumentation_of` for the hub and gets
the shared :data:`NULL_INSTRUMENTATION` when none is attached, whose
``span()`` returns one shared no-op context manager.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Event, Span

__all__ = [
    "Instrumentation",
    "NULL_INSTRUMENTATION",
    "NullInstrumentation",
    "instrumentation_of",
]

_SINK_HOOKS = (
    "on_phase",
    "on_local",
    "on_fault",
    "on_cache",
    "on_recovery",
    "on_span",
    "on_event",
)


class _NullSpan:
    """Shared, inert span: accepts annotations and discards them."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def annotate(self, **attrs):
        pass

    def count(self, key, amount=1):
        pass


_NULL_SPAN = _NullSpan()


class _NullTraceScope:
    """Shared, inert trace scope."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_TRACE_SCOPE = _NullTraceScope()


class NullInstrumentation:
    """The no-op hub: every call is free and allocation-free."""

    __slots__ = ()

    enabled = False
    traced = False

    def span(self, name, category="span", *, wall_start=None, **attrs):
        return _NULL_SPAN

    def leaf(self, name, category="span", **kwargs):
        return _NULL_SPAN

    def in_trace(self, context):
        return _NULL_TRACE_SCOPE

    def event(self, name, category="event", **attrs):
        pass

    def recovery(self, action, **attrs):
        pass

    def current_span(self):
        return None


NULL_INSTRUMENTATION = NullInstrumentation()


def instrumentation_of(network) -> "Instrumentation | NullInstrumentation":
    """The hub attached as ``network.observer``, or the shared null hub.

    This is how emission points inside algorithms stay free when nobody
    is watching: attaching any other observer (e.g. a bare
    :class:`~repro.machine.trace.TraceRecorder`) keeps phase events
    flowing to it while span emission no-ops.
    """
    observer = getattr(network, "observer", None)
    if isinstance(observer, Instrumentation):
        return observer
    return NULL_INSTRUMENTATION


class _TraceScope:
    """Context manager pushing one trace context onto its hub's stack.

    A ``None`` context is a no-op scope, so call sites don't branch on
    whether tracing is armed.
    """

    __slots__ = ("_hub", "context")

    def __init__(self, hub: "Instrumentation", context) -> None:
        self._hub = hub
        self.context = context

    def __enter__(self):
        if self.context is not None:
            self._hub._traces.append(self.context)
        return self.context

    def __exit__(self, *exc) -> bool:
        if self.context is not None:
            popped = self._hub._traces.pop()
            if popped is not self.context:
                raise RuntimeError("trace contexts exited out of order")
        return False


class _SpanContext:
    """Context manager pairing one open span with its hub."""

    __slots__ = ("_hub", "span")

    def __init__(self, hub: "Instrumentation", span: Span) -> None:
        self._hub = hub
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.span.attrs.setdefault("error", exc_type.__name__)
        self._hub._close(self.span)
        return False


class Instrumentation:
    """Span/metric/event hub; set as ``network.observer``.

    ``phase_spans=True`` (the default) synthesizes a leaf span per
    observed communication phase and local charge, giving Chrome traces
    the full run → algorithm → phase nesting; flip it off for long runs
    where per-phase spans would dominate the trace.
    """

    enabled = True

    def __init__(
        self,
        *sinks,
        registry: MetricsRegistry | None = None,
        phase_spans: bool = True,
        wall_clock=None,
    ) -> None:
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.phase_spans = phase_spans
        #: Model-time cursor: total observed duration so far.
        self.clock = 0.0
        #: Injectable wall clock (seconds); ``None`` disables the axis.
        self.wall_clock = wall_clock
        self.spans: list[Span] = []  # closed spans, in close order
        self.events: list[Event] = []
        self._stack: list[Span] = []
        self._traces: list = []  # TraceContext stack (innermost last)
        self._next_id = 0
        self._hooks: dict[str, list] = {hook: [] for hook in _SINK_HOOKS}
        self.sinks: list = []
        for sink in sinks:
            self.add_sink(sink)

    # -- sink management ----------------------------------------------------

    def add_sink(self, sink) -> None:
        """Register a sink; only the hooks it defines are dispatched to."""
        self.sinks.append(sink)
        for hook in _SINK_HOOKS:
            fn = getattr(sink, hook, None)
            if fn is not None:
                self._hooks[hook].append(fn)

    def attach(self, network) -> "Instrumentation":
        """Install this hub as the network's observer (returns self)."""
        network.observer = self
        return self

    # -- span API ------------------------------------------------------------

    def _wall(self) -> float | None:
        return None if self.wall_clock is None else self.wall_clock()

    def _trace_id(self) -> str | None:
        return self._traces[-1].trace_id if self._traces else None

    @property
    def traced(self) -> bool:
        """True inside a request's trace scope (see :meth:`in_trace`)."""
        return bool(self._traces)

    def in_trace(self, context) -> "_TraceScope":
        """Scope every span/event opened inside to ``context``.

        ``context`` is a :class:`~repro.obs.trace.TraceContext` (or
        ``None``, making the scope a no-op); use as a context manager.
        Scopes nest — the innermost context wins.
        """
        return _TraceScope(self, context)

    def span(
        self,
        name: str,
        category: str = "span",
        *,
        wall_start: float | None = None,
        **attrs,
    ) -> _SpanContext:
        """Open a child span of the current one; use as a context manager.

        ``wall_start`` backdates the span's wall-clock interval — the
        serving layer uses this to open a request's root span at its
        *submission* time, so the synthesized queue-wait leaf stays
        contained in its parent on the wall axis.
        """
        parent = self._stack[-1].span_id if self._stack else None
        if wall_start is None:
            wall_start = self._wall()
        span = Span(
            span_id=self._next_id,
            parent_id=parent,
            name=name,
            category=category,
            start=self.clock,
            attrs=attrs,
            wall_start=wall_start,
            trace_id=self._trace_id(),
        )
        self._next_id += 1
        self._stack.append(span)
        return _SpanContext(self, span)

    def leaf(
        self,
        name: str,
        category: str = "span",
        *,
        start: float | None = None,
        end: float | None = None,
        wall_start: float | None = None,
        wall_end: float | None = None,
        **attrs,
    ) -> Span:
        """Record a pre-closed child span with explicit intervals.

        Defaults put the leaf at the current cursor on both axes
        (zero-width); the serving layer passes explicit wall intervals
        for stages it reconstructs after the fact (admission wait,
        queue wait).  The leaf parents under the currently open span.
        """
        now_wall = self._wall()
        span = Span(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            category=category,
            start=self.clock if start is None else start,
            end=self.clock if end is None else end,
            attrs=attrs,
            wall_start=now_wall if wall_start is None else wall_start,
            wall_end=now_wall if wall_end is None else wall_end,
            trace_id=self._trace_id(),
        )
        self._next_id += 1
        self.spans.append(span)
        self.metrics.counter("spans", category=span.category).inc()
        for fn in self._hooks["on_span"]:
            fn(span)
        return span

    def current_span(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def current_algorithm(self) -> str | None:
        """Name of the innermost enclosing ``algorithm`` span, if any."""
        for span in reversed(self._stack):
            if span.category == "algorithm":
                return span.name
        return None

    def _close(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of order; open stack: "
                f"{[s.name for s in self._stack]}"
            )
        self._stack.pop()
        span.end = self.clock
        if span.wall_start is not None and span.wall_end is None:
            span.wall_end = self._wall()
        self.spans.append(span)
        self.metrics.counter("spans", category=span.category).inc()
        for fn in self._hooks["on_span"]:
            fn(span)

    def _leaf(self, name: str, category: str, start: float, attrs: dict) -> None:
        """A pre-closed leaf span (synthesized around an observed charge).

        On the wall axis an observed charge is an instant — the model
        clock advanced, the wall clock barely did — so both wall bounds
        read the current wall time.
        """
        parent = self._stack[-1].span_id if self._stack else None
        wall = self._wall()
        span = Span(
            span_id=self._next_id,
            parent_id=parent,
            name=name,
            category=category,
            start=start,
            end=self.clock,
            attrs=attrs,
            wall_start=wall,
            wall_end=wall,
            trace_id=self._trace_id(),
        )
        self._next_id += 1
        self.spans.append(span)
        for fn in self._hooks["on_span"]:
            fn(span)

    def event(self, name: str, category: str = "event", **attrs) -> None:
        """Record an instant event at the current model time."""
        parent = self._stack[-1].span_id if self._stack else None
        evt = Event(
            name=name,
            category=category,
            time=self.clock,
            span_id=parent,
            attrs=attrs,
            wall_time=self._wall(),
            trace_id=self._trace_id(),
        )
        self.events.append(evt)
        for fn in self._hooks["on_event"]:
            fn(evt)

    # -- observer protocol (called by the engine and the plan cache) ---------

    def on_phase(self, transfers: list, duration: float) -> None:
        start = self.clock
        self.clock += duration
        algorithm = self.current_algorithm() or "-"
        elements = sum(t[2] for t in transfers)
        self.metrics.counter("phases", algorithm=algorithm).inc()
        self.metrics.histogram(
            "phase_duration", algorithm=algorithm
        ).observe(duration)
        if elements:
            self.metrics.counter(
                "elements_moved", algorithm=algorithm
            ).inc(elements)
        if self._stack:
            self._stack[-1].count("phases")
        if self.phase_spans and transfers:
            self._leaf(
                "phase",
                "phase",
                start,
                {"messages": len(transfers), "elements": elements},
            )
        for fn in self._hooks["on_phase"]:
            fn(transfers, duration)

    def on_local(self, elements: int, duration: float) -> None:
        start = self.clock
        self.clock += duration
        algorithm = self.current_algorithm() or "-"
        self.metrics.counter("local_charges", algorithm=algorithm).inc()
        self.metrics.histogram(
            "local_duration", algorithm=algorithm
        ).observe(duration)
        if self.phase_spans:
            self._leaf("local", "local", start, {"elements": elements})
        for fn in self._hooks["on_local"]:
            fn(elements, duration)

    def on_fault(self, src: int, dst: int, phase: int, kind: str) -> None:
        self.metrics.counter("fault_encounters", kind=kind).inc()
        for span in self._stack:
            span.count("faults")
        self.event(
            "fault", "fault", src=src, dst=dst, phase=phase, kind=kind
        )
        for fn in self._hooks["on_fault"]:
            fn(src, dst, phase, kind)

    def recovery(self, action: str, **attrs) -> None:
        """Record one recovery action (backoff / surgery / ladder).

        Increments ``recovery_actions{action=...}``, stamps a
        ``recoveries`` count on every open span, lands an instant
        ``recovery`` event on the model timeline (visible in Chrome
        traces), and dispatches to sinks defining ``on_recovery``.
        """
        self.metrics.counter("recovery_actions", action=action).inc()
        for span in self._stack:
            span.count("recoveries")
        self.event("recovery", "recovery", action=action, **attrs)
        for fn in self._hooks["on_recovery"]:
            fn(action, attrs)

    def on_cache(self, key: str, event: str) -> None:
        self.metrics.counter("plan_cache_events", event=event).inc()
        for span in self._stack:
            span.count(f"cache_{event}_events")
        self.event("plan-cache", "cache", key=key[:16], event=event)
        for fn in self._hooks["on_cache"]:
            fn(key, event)

    # -- introspection -------------------------------------------------------

    def span_tree(self) -> dict[int | None, list[Span]]:
        """Closed spans grouped by parent id (children in close order)."""
        tree: dict[int | None, list[Span]] = {}
        for span in self.spans:
            tree.setdefault(span.parent_id, []).append(span)
        return tree

    def roots(self) -> Iterable[Span]:
        return [s for s in self.spans if s.parent_id is None]
