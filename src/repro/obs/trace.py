"""Deterministic request tracing: contextvar spans, JSON-lines sink.

A *span* is one named, timed step of a request (admission, prepare,
release, LP solve …); spans nest through a :mod:`contextvars` context,
which asyncio propagates per task and :mod:`repro.parallel.pool` ships
across the ``session.submit`` worker boundary.  Design constraints:

* **ids derive from seed material** — a request's trace id is a SHA-256
  digest of the same ``(entropy, user, granted index)`` triple that
  seeds its noise (:func:`seed_trace_id`), and child span ids hash the
  parent id, span name, and birth order.  No wall clock, no RNG: tracing
  on vs off cannot shift a single released byte, and the same request
  replayed gets the same ids;
* **timing is interval-only** — ``time.perf_counter`` start/duration
  pairs, fine for latency and ordering inside one process, never
  compared across processes;
* **sinks are synchronous and pre-opened** — the JSON-lines file is
  opened at CLI startup (never inside a coroutine, per the
  ``async-blocking`` lint contract) and each record is one
  ``json.dumps`` line under a lock.  Forked pool workers switch to
  *buffer mode* (:meth:`Tracer.worker_mode`): spans collect in memory
  and ride the result envelope back to the parent's sink.

The slow-query log is the same machinery gated differently: when a
*root* span's duration crosses ``slow_ms`` (CLI ``--slow-query-ms``),
one human-readable line goes to the slow stream (stderr by default).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterable, List, Optional

__all__ = [
    "Tracer",
    "JsonLinesSink",
    "tracer",
    "configure",
    "deterministic_trace_id",
    "seed_trace_id",
    "validate_span_records",
]


def deterministic_trace_id(*parts) -> str:
    """A 128-bit hex id hashed from explicit material (never the clock)."""
    material = "/".join(str(part) for part in parts)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:32]


def seed_trace_id(seed, user: Optional[str] = None) -> Optional[str]:
    """The trace id of a request seeded by ``seed``.

    Accepts the request's ``SeedSequence`` (entropy + spawn key — the
    exact material :func:`repro.service.protocol.request_seed` builds
    from the tenant's granted index) or a plain int seed.  Returns
    ``None`` for unseedable inputs, letting callers fall back to a
    process-local root id.
    """
    if seed is None:
        return None
    entropy = getattr(seed, "entropy", None)
    if entropy is not None:
        spawn_key = tuple(int(k) for k in getattr(seed, "spawn_key", ()))
        return deterministic_trace_id("seed", entropy, spawn_key, user or "")
    if isinstance(seed, int) and not isinstance(seed, bool):
        return deterministic_trace_id("seed", seed, user or "")
    return None


class _SpanContext:
    """The active span: ids plus a deterministic child-birth counter."""

    __slots__ = ("trace_id", "span_id", "children")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.children = 0

    def child_id(self, name: str) -> str:
        ordinal = self.children
        self.children += 1
        return deterministic_trace_id(
            "span", self.trace_id, self.span_id, name, ordinal
        )[:16]


_CURRENT: ContextVar[Optional[_SpanContext]] = ContextVar(
    "repro_obs_span", default=None
)


class JsonLinesSink:
    """Write one JSON object per line to a pre-opened text stream."""

    def __init__(self, stream) -> None:
        self._stream = stream
        self._lock = threading.Lock()

    def __call__(self, record: Dict) -> None:
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()

    def close(self) -> None:
        """Close the underlying stream (best-effort)."""
        with self._lock:
            try:
                self._stream.close()
            except OSError:  # pragma: no cover - best-effort shutdown
                pass


class Tracer:
    """Span factory + sink; disabled by default (near-zero overhead)."""

    def __init__(self) -> None:
        self.enabled = False
        self._sink = None
        self._buffer: Optional[List[Dict]] = None
        self._slow_ms: Optional[float] = None
        self._slow_stream = None
        #: fallback root ids for spans with no seed material (graph
        #: updates): a process-local ordinal, not a clock.
        self._root_ids = itertools.count(1)

    # -- configuration --------------------------------------------------------
    def configure(
        self,
        *,
        sink=None,
        slow_ms: Optional[float] = None,
        slow_stream=None,
        enabled: Optional[bool] = None,
    ) -> None:
        """Update sink / slow-query threshold / enablement (None = keep)."""
        if sink is not None:
            self._sink = sink
        if slow_ms is not None:
            self._slow_ms = float(slow_ms)
        if slow_stream is not None:
            self._slow_stream = slow_stream
        if enabled is not None:
            self.enabled = bool(enabled)

    def worker_mode(self) -> None:
        """Switch to in-memory buffering (forked pool workers).

        The parent's sink stream must not be shared across processes;
        spans buffer here and :meth:`drain_buffered` ships them through
        the pool's result envelope instead.
        """
        self._sink = None
        self._slow_ms = None
        if self.enabled and self._buffer is None:
            self._buffer = []

    def drain_buffered(self) -> List[Dict]:
        """Buffered span records since the last drain (worker side)."""
        if not self._buffer:
            return []
        drained, self._buffer = self._buffer, []
        return drained

    def absorb(self, records: Iterable[Dict]) -> None:
        """Emit records buffered by a worker through this tracer's sink."""
        for record in records:
            self._emit(record, slow_check=False)

    # -- span context ---------------------------------------------------------
    def current_context(self) -> Optional[Dict[str, str]]:
        """The active ``{"trace", "span"}`` ids (picklable), or ``None``.

        Captured at ``pool.submit()`` time so worker-side spans attach
        to the submitting request's trace.
        """
        state = _CURRENT.get()
        if state is None:
            return None
        return {"trace": state.trace_id, "span": state.span_id}

    def activate(self, context: Optional[Dict[str, str]]):
        """Install a shipped context as the current span (worker side)."""
        if context is None:
            return None
        return _CURRENT.set(_SpanContext(context["trace"], context["span"]))

    def deactivate(self, token) -> None:
        """Undo a matching :meth:`activate` (worker task teardown)."""
        if token is not None:
            _CURRENT.reset(token)

    @contextmanager
    def span(self, name: str, *, trace_id: Optional[str] = None, **attrs):
        """Time one step; emits a record on exit (when enabled).

        An active parent context always wins: the span nests under it
        and ``trace_id`` is ignored.  At a request boundary (no active
        context) the span roots a new trace — under ``trace_id`` when
        given (pass :func:`seed_trace_id` output), else under a
        process-local ordinal id.
        """
        if not self.enabled:
            yield None
            return
        parent = _CURRENT.get()
        if parent is None:
            tid = trace_id or deterministic_trace_id("root", name, next(self._root_ids))
            state = _SpanContext(tid, tid[:16])
            parent_id = None
        else:
            state = _SpanContext(parent.trace_id, parent.child_id(name))
            parent_id = parent.span_id
        token = _CURRENT.set(state)
        start = time.perf_counter()
        try:
            yield state
        finally:
            duration_ms = (time.perf_counter() - start) * 1000.0
            _CURRENT.reset(token)
            record = {
                "trace": state.trace_id,
                "span": state.span_id,
                "parent": parent_id,
                "name": name,
                "start": start,
                "duration_ms": duration_ms,
            }
            if attrs:
                record["attrs"] = attrs
            self._emit(record)

    # -- emission -------------------------------------------------------------
    def _emit(self, record: Dict, slow_check: bool = True) -> None:
        if self._buffer is not None:
            self._buffer.append(record)
        elif self._sink is not None:
            self._sink(record)
        if (
            slow_check
            and self._slow_ms is not None
            and record.get("parent") is None
            and record["duration_ms"] >= self._slow_ms
        ):
            stream = self._slow_stream if self._slow_stream is not None else sys.stderr
            attrs = record.get("attrs") or {}
            detail = " ".join(f"{key}={attrs[key]!r}" for key in sorted(attrs))
            print(
                f"[slow-query] {record['duration_ms']:.1f} ms "
                f"name={record['name']} trace={record['trace']} {detail}".rstrip(),
                file=stream,
                flush=True,
            )


#: The process-wide tracer (one per process, like the metrics registry).
_TRACER = Tracer()


def tracer() -> Tracer:
    """The process-wide :class:`Tracer`."""
    return _TRACER


def configure(
    *,
    trace_log: Optional[str] = None,
    slow_query_ms: Optional[float] = None,
    slow_stream=None,
) -> None:
    """CLI-facing setup: open the span sink and/or arm the slow log.

    Opens ``trace_log`` synchronously *now* — before any event loop
    exists — so no coroutine ever performs file I/O for tracing.
    """
    active = _TRACER
    if trace_log is not None:
        stream = open(trace_log, "w", encoding="utf-8")
        active.configure(sink=JsonLinesSink(stream), enabled=True)
    if slow_query_ms is not None:
        active.configure(
            slow_ms=float(slow_query_ms), slow_stream=slow_stream, enabled=True
        )


def validate_span_records(records: Iterable[Dict]) -> Dict[str, List[Dict]]:
    """Check a span set is a well-formed forest; group it by trace.

    Every record must carry ``trace``/``span``/``name``/``duration_ms``,
    span ids must be unique within their trace, and every non-null
    ``parent`` must name another span of the same trace.  Raises
    :class:`ValueError` on the first violation; returns
    ``{trace_id: [records]}`` otherwise.  (The CI ``obs-smoke`` job runs
    this over the ``--trace-log`` output.)
    """
    by_trace: Dict[str, Dict[str, Dict]] = {}
    for record in records:
        missing = [
            key
            for key in ("trace", "span", "name", "duration_ms")
            if key not in record
        ]
        if missing:
            raise ValueError(f"span record missing {missing}: {record!r}")
        spans = by_trace.setdefault(record["trace"], {})
        if record["span"] in spans:
            raise ValueError(
                f"duplicate span id {record['span']!r} in trace "
                f"{record['trace']!r}"
            )
        spans[record["span"]] = record
    for trace_id in sorted(by_trace):
        spans = by_trace[trace_id]
        for span_id in sorted(spans):
            parent = spans[span_id].get("parent")
            if parent is not None and parent not in spans:
                raise ValueError(
                    f"span {span_id!r} in trace {trace_id!r} names a "
                    f"parent {parent!r} that is not in the trace"
                )
    return {trace_id: list(spans.values()) for trace_id, spans in by_trace.items()}
