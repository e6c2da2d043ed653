"""Outside-in span recorder: times calls into each layer's public entry points.

The recorder patches functions and methods of the ``repro`` package from
the outside (nothing under ``src/`` knows it exists) and puts every
original back on :meth:`SpanRecorder.restore`.  Each span records its
name, start, end, parent and trace id; spans are kept in memory and
written out once the run ends.  The trace id is the index of the op the
benchmark loop is running (:meth:`SpanRecorder.op`).

Parents come from a per-thread stack topped by the op span of the
client thread that opened it.  A span opened on a thread with neither —
the service's event-loop thread answering the client's request — is
parented to the most recently opened op span, which is sound because the
served workloads keep one request in flight.

Two modes share the same patches:

* **count** (``trace=False``): only the :data:`COUNTED` entry points are
  wrapped, and a wrapper does nothing but bump a counter.  Untraced runs
  use it for the exact-work record (the metrics registry does not count
  Δ-search probes, nor LP calls by kind).
* **trace** (``trace=True``): every entry point in :data:`ENTRY_POINTS`
  is wrapped and records a span while :attr:`SpanRecorder.active`.
"""

import collections
import contextlib
import functools
import importlib
import json
import threading
import time

#: ``"module:Owner.attribute"`` (or ``"module:function"``) → span name.  A
#: module-level function is patched in every module that imported it.
ENTRY_POINTS = {
    "repro.session.session:PrivateSession.query": "session.query",
    "repro.session.session:PrivateSession.submit": "session.submit",
    "repro.session.session:PrivateSession.apply_update": "session.apply_update",
    "repro.session.accountant:BudgetAccountant.reserve": "session.reserve",
    "repro.session.accountant:Reservation.commit": "session.commit",
    "repro.mechanisms.base:Mechanism.prepare": "mechanisms.prepare",
    "repro.mechanisms.base:PreparedQuery.release": "mechanisms.release",
    "repro.subgraphs.annotate:occurrences_for_pattern": "subgraphs.enumerate",
    "repro.dynamic.incremental:occurrences_for_pattern": "subgraphs.enumerate",
    "repro.relax.encode:EncodedRelation.__init__": "relax.encode",
    "repro.relax.encode:EncodedRelation.from_conjunctions": "relax.encode",
    "repro.relax.encode:EncodedRelation.solve_x_relaxation": "relax.x",
    "repro.lp.compiled:CompiledProgram.__init__": "lp.compile",
    "repro.lp.compiled:CompiledProgram.solve_g_decide": "lp.g_decide",
    "repro.lp.compiled:CompiledProgram.solve_x": "lp.x",
    "repro.lp.compiled:CompiledProgram.solve_h": "lp.h",
    "repro.lp.compiled:CompiledProgram.solve_many": "lp.many",
    "repro.core.framework:RecursiveMechanismBase.compute_delta": "core.delta_search",
    "repro.core.framework:RecursiveMechanismBase.g_entry_leq": "core.g_probe",
    "repro.core.framework:RecursiveMechanismBase.h_entries": "core.h_entries",
    "repro.dynamic.incremental:IncrementalOccurrences.apply": "dynamic.apply",
    "repro.dynamic.versioned:VersionedGraph.relation_for": "store.relation",
    "repro.parallel.pool:WorkerPool.submit": "parallel.dispatch",
}

#: Spans that also record ``len()`` of the return value.
SIZED = ("subgraphs.enumerate",)

#: Spans whose calls the count mode tallies.
COUNTED = ("core.g_probe", "lp.g_decide", "lp.h", "lp.many", "lp.x")


def _resolve(target):
    """``(owner, attribute)`` for one :data:`ENTRY_POINTS` key."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *owners, attribute = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attribute


class SpanRecorder:
    """Wraps the layers' entry points; records spans or counts calls."""

    def __init__(self, trace: bool):
        self.trace = trace
        #: ``[name, start, end, parent index, trace id, size]`` per span.
        self.spans = []
        self.counts = collections.Counter()
        self.active = False
        self._root = None
        self._local = threading.local()
        self._patches = []

    # -- patching -------------------------------------------------------------
    def install(self) -> "SpanRecorder":
        for target, name in ENTRY_POINTS.items():
            if not self.trace and name not in COUNTED:
                continue
            owner, attribute = _resolve(target)
            raw = vars(owner)[attribute]
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(raw.__func__, name))
            else:
                wrapper = self._wrap(raw, name)
            setattr(owner, attribute, wrapper)
            self._patches.append((owner, attribute, raw))
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    def _wrap(self, func, name):
        recorder = self
        sized = name in SIZED

        if not self.trace:

            @functools.wraps(func)
            def counting(*args, **kwargs):
                if recorder.active:
                    recorder.counts[name] += 1
                return func(*args, **kwargs)

            return counting

        @functools.wraps(func)
        def tracing(*args, **kwargs):
            if not recorder.active:
                return func(*args, **kwargs)
            stack = recorder._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = getattr(recorder._local, "root", None)
                if parent is None:
                    parent = recorder._root
            trace_id = recorder.spans[parent][4] if parent is not None else None
            span = [name, time.perf_counter(), None, parent, trace_id, None]
            recorder.spans.append(span)
            stack.append(len(recorder.spans) - 1)
            try:
                result = func(*args, **kwargs)
                if sized:
                    span[5] = len(result)
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return tracing

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- benchmark-loop hooks ---------------------------------------------------
    @contextlib.contextmanager
    def op(self, name: str, index: int):
        """The root span of one op; its trace id is the op index."""
        if not (self.trace and self.active):
            yield
            return
        span = [name, time.perf_counter(), None, None, index, None]
        self.spans.append(span)
        self._root = self._local.root = len(self.spans) - 1
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._local.root = None

    def write(self, path) -> None:
        """Dump the spans as JSON lines, one span per line."""
        keys = ("name", "start", "end", "parent", "trace", "size")
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = {"id": index, **dict(zip(keys, span))}
                handle.write(json.dumps(record) + "\n")

    # -- analysis ---------------------------------------------------------------
    def aggregate(self):
        """Per span name: ``count``, total ``seconds``, ``self`` seconds
        (duration minus the direct children's) and summed ``size``."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table = collections.defaultdict(
            lambda: {"count": 0, "seconds": 0.0, "self": 0.0, "size": 0}
        )
        for index, (name, start, end, _, _, size) in enumerate(self.spans):
            row = table[name]
            row["count"] += 1
            row["seconds"] += end - start
            row["self"] += max(0.0, end - start - child_time[index])
            row["size"] += size or 0
        return table

    def nested_seconds(self, name: str, inside: str) -> float:
        """Total duration of ``name`` spans whose direct parent is an
        ``inside`` span (to avoid counting nested entry points twice)."""
        return sum(
            end - start
            for span_name, start, end, parent, _, _ in self.spans
            if span_name == name
            and parent is not None
            and self.spans[parent][0] == inside
        )

    def per_trace(self, name: str):
        """``{trace id: summed duration of the trace's name spans}``."""
        totals = collections.defaultdict(float)
        for span_name, start, end, _, trace_id, _ in self.spans:
            if span_name == name and trace_id is not None:
                totals[trace_id] += end - start
        return totals
