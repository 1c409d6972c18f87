"""Zero-dependency observability: hierarchical spans + metrics registry.

The rest of the system calls four module-level functions —
:func:`span`, :func:`add`, :func:`gauge`, :func:`observe` — at its
instrumentation sites.  **Off by default**: with no active session each
call is one global load, one ``None`` check, and an immediate return
(:data:`~repro.obs.trace.NULL_SPAN` for spans), which is what keeps the
disabled overhead under the 2% budget asserted in
``tests/obs/test_overhead.py``.

Turning it on is scoped, not global::

    from repro import obs

    with obs.session() as active:
        report = ICBEOptimizer(options).optimize(icfg)
    active.write_jsonl("out.jsonl")          # spans + metrics snapshot
    print(active.render_profile())           # pstats-style aggregate

or, from the command line, ``icbe optimize prog.mc --trace out.jsonl``.

Sessions do not stack: entering a session while one is active raises
(the optimizer and supervisor assume one unambiguous event sink), and
worker subprocesses install their own fresh session whose spans the
supervisor later :meth:`~repro.obs.trace.Tracer.adopt`\\ s.

See docs/OBSERVABILITY.md for the span taxonomy and metric catalog.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional, Union

from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               Number)
from repro.obs.trace import NULL_SPAN, Span, Tracer, _NullSpan

__all__ = ["ObsSession", "session", "suspended", "current", "enabled",
           "span", "add", "gauge", "observe", "record_worker_span",
           "Tracer", "Span",
           "MetricsRegistry", "Counter", "Gauge", "Histogram", "NULL_SPAN"]


class ObsSession:
    """One observability scope: a tracer plus a metrics registry."""

    def __init__(self, tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # -- export sugar ------------------------------------------------------

    def export_spans(self) -> list:
        """Finished spans as JSON records, in start order."""
        return self.tracer.export()

    def write_jsonl(self, path: str, meta: Optional[dict] = None) -> None:
        """Write the session's trace + metrics snapshot to ``path``."""
        from repro.obs.export import write_jsonl
        write_jsonl(path, self.tracer.export(),
                    metrics=self.metrics.snapshot(), meta=meta)

    def render_profile(self, limit: int = 0) -> str:
        """The pstats-style per-span-name aggregate table."""
        from repro.obs.export import render_profile
        return render_profile(self.tracer.export(), limit=limit)


#: The active session, or None (disabled — the fast path).
_ACTIVE: Optional[ObsSession] = None


def current() -> Optional[ObsSession]:
    """The active session, or None when observability is off."""
    return _ACTIVE


def enabled() -> bool:
    """True while a session is active."""
    return _ACTIVE is not None


@contextmanager
def session(tracer: Optional[Tracer] = None,
            metrics: Optional[MetricsRegistry] = None,
            ) -> Iterator[ObsSession]:
    """Activate an observability session for the ``with`` body."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("an observability session is already active; "
                           "sessions do not nest")
    _ACTIVE = ObsSession(tracer=tracer, metrics=metrics)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = None


def reset() -> None:
    """Forcibly drop any active session (subprocess hygiene: a forked
    worker must not keep appending to its parent's session)."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def suspended() -> Iterator[None]:
    """Temporarily deactivate the active session (if any) for the
    ``with`` body, restoring it afterwards — so a component can run a
    private session of its own (e.g. the harness self-profile) even
    when the surrounding CLI invocation is being traced."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    try:
        yield
    finally:
        _ACTIVE = previous


# -- instrumentation-site fast paths ----------------------------------------


def span(name: str, **attrs: Any) -> Union[Span, _NullSpan]:
    """Open a span on the active session (or return the null span)."""
    active = _ACTIVE
    if active is None:
        return NULL_SPAN
    return active.tracer.span(name, **attrs)


def add(name: str, amount: Number = 1) -> None:
    """Increment counter ``name`` on the active session (or no-op)."""
    active = _ACTIVE
    if active is None:
        return
    active.metrics.add(name, amount)


def gauge(name: str, value: Number) -> None:
    """Set gauge ``name`` on the active session (or no-op)."""
    active = _ACTIVE
    if active is None:
        return
    active.metrics.set(name, value)


def observe(name: str, value: Number) -> None:
    """Record into histogram ``name`` on the active session (or no-op)."""
    active = _ACTIVE
    if active is None:
        return
    active.metrics.observe(name, value)


def record_worker_span(name: str, wall_s: float, spans=None, metrics=None,
                       origin: str = "", **attrs: Any) -> None:
    """Place a worker attempt that just ended, ``wall_s`` long, into the
    active session as span ``name`` under the open span, and adopt the
    worker's own exported ``spans`` (id-remapped, re-parented under it,
    clock-rebased) and ``metrics``.  A no-op with no active session."""
    active = _ACTIVE
    if active is None:
        return
    tracer = active.tracer
    end_s = tracer.now()
    start_s = end_s - max(0.0, wall_s)
    parent = tracer.current.span_id if tracer.current is not None else 0
    span = tracer.record(name, start_s, end_s, parent_id=parent, **attrs)
    if spans:
        offset = start_s - min(r["start_s"] for r in spans)
        tracer.adopt(spans, parent_id=span.span_id, clock_offset_s=offset,
                     origin=origin)
    if metrics:
        active.metrics.merge(metrics)
