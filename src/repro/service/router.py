"""The multi-dataset front listener: protocol-v2 routing over lanes.

:class:`ServiceRouter` is one asyncio listener serving *many* sensitive
datasets: each mounted dataset gets a :class:`DatasetLane` — its own
:class:`~repro.session.PrivateSession` (budget accountant, compiled
cache namespace, worker pool), its own admission/seed state, and its own
writer authorization — and every request frame is routed to the lane its
``dataset`` field names.  Frames without a ``dataset`` (every protocol-v1
client) route to the configurable *default* lane, so a single-dataset
server is just a router with one mounted lane.

Per-lane isolation is the point of the design:

* **admission and seeds** — each lane keeps its own granted-request
  counters, so one tenant's answer stream on dataset A is byte-identical
  whether or not dataset B is mounted (and to a single-dataset server at
  the same seed);
* **backpressure** — ``max_pending`` bounds each lane's in-flight
  queries separately: a hot dataset saturating its bound cannot starve
  another dataset's admissions;
* **updates** — the drain barrier serializing ``update`` ops with
  queries is per lane, so a mutation of one dataset never stalls reads
  of another; the v1 ``--update-token`` gate generalizes to a *writer
  token per dataset*;
* **consistency floors** — a v2 request carrying ``min_version`` waits
  (bounded) until its lane's graph version reaches the floor, the
  replica-lag contract used by :mod:`repro.service.replication`;
* **historical reads** — a v2 ``query`` carrying ``at_version`` answers
  against that graph version through the session's versioned-checkout
  path, with the version echoed in the result frame.

The ``snapshot``/``log`` ops ship a dynamic lane's base graph and
:class:`~repro.dynamic.GraphDelta` log to read replicas; ``stats``
reports per-lane counters (including the per-dataset compiled-cache
view counters of :meth:`repro.session.cache.SharedCompiledCache
.namespaced`).
"""

from __future__ import annotations

import asyncio
import collections
import hmac
import itertools
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ProtocolError, ReproError
from ..mechanisms import available as available_mechanisms
from ..obs import OBS_SCHEMA, json_payload, prometheus_text, seed_trace_id
from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer
from ..session import BudgetExhausted, HierarchicalAccountant, PrivateSession
from ..validation import validate_service_request
from . import protocol
from .protocol import (
    ERR_BAD_REQUEST,
    ERR_BUDGET_EXHAUSTED,
    ERR_FAILED,
    ERR_FORBIDDEN,
    ERR_OVERLOADED,
    ERR_UNKNOWN_DATASET,
    ERR_UNSUPPORTED_VERSION,
    ERR_VERSION_BEHIND,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    ResultFrame,
    encode_frame,
    error_frame,
    event_frame,
    request_seed,
    result_frame,
    seed_from_wire,
    seed_to_wire,
)

__all__ = ["DatasetLane", "ServiceRouter"]

#: Capability vocabulary advertised by the v2 ``hello``.
CAPABILITIES = (
    "datasets", "min_version", "at_version", "snapshot", "log", "stats",
    "result_frame", "metrics",
)

#: Process-unique lane ordinals for registry labels.  Two routers in one
#: process may mount the *same* dataset name; labelling lane metrics by
#: ``(dataset, lane)`` keeps their registry series apart.  The registry is
#: only written: the seed streams and in-flight counts live on the lane.
_LANE_IDS = itertools.count(1)


class DatasetLane:
    """One dataset's serving state behind the router.

    Owns the session plus everything v1's single-dataset service kept as
    service-level state: the per-tenant granted-request counters feeding
    :func:`~repro.service.protocol.request_seed`, the in-flight count,
    the update drain barrier, and the writer token.  The counters are
    plain lane state that the metrics registry only mirrors.  All
    coroutine-side state is touched from the event-loop thread only.
    """

    def __init__(
        self,
        name: str,
        session: PrivateSession,
        *,
        updates: bool = False,
        writer_token: Optional[str] = None,
        entropy: Optional[int] = None,
    ):
        if not isinstance(name, str) or not name:
            raise ValueError(f"dataset name must be a non-empty string, got {name!r}")
        if not isinstance(session, PrivateSession):
            raise TypeError(
                f"dataset {name!r} needs a PrivateSession, got "
                f"{type(session).__name__}"
            )
        if updates and not session.dynamic:
            raise ValueError(
                f"dataset {name!r}: updates=True needs a dynamic session "
                "(wrap the graph in repro.dynamic.VersionedGraph)"
            )
        if writer_token is not None and not isinstance(writer_token, str):
            raise ValueError(
                f"dataset {name!r}: writer token must be a string, got "
                f"{writer_token!r}"
            )
        self.name = name
        self.session = session
        self.updates_enabled = bool(updates)
        self.writer_token = writer_token
        self.entropy = (
            # repro: allow(rng-determinism) — entropy=None is the documented
            # fresh-entropy lane; seeded lanes are pinned by
            # tests/test_router.py::test_per_dataset_seed_streams_are_independent
            np.random.SeedSequence().entropy if entropy is None else int(entropy)
        )
        #: ``granted`` is each tenant's seed-stream index, ``inflight`` the
        #: lane's in-flight count.  Both are plain lane state, mirrored
        #: into the metrics registry but never read back from it, so a
        #: merged metrics payload cannot shift a seed or refuse a query.
        self.granted: Dict[Optional[str], int] = collections.defaultdict(int)
        self.inflight = 0
        self._obs_labels = {"dataset": name, "lane": str(next(_LANE_IDS))}
        self._inflight_gauge = obs_metrics().gauge(
            "repro_lane_inflight", **self._obs_labels
        )
        #: Pending-update barrier: while an update waits to apply, new
        #: queries/audits on this lane queue here instead of admitting.
        self.update_barrier: Optional[asyncio.Future] = None
        #: Drain signal: set when this lane's in-flight count hits zero.
        self.drained: Optional[asyncio.Future] = None
        #: min_version waiters, resolved whenever the version advances.
        self.version_waiters: List[asyncio.Future] = []

    # -- admission-order primitives ---------------------------------------------
    async def admission_turn(self) -> None:
        """Wait for any pending update before admitting new work."""
        while self.update_barrier is not None:
            await self.update_barrier

    def grant(self, user: Optional[str]) -> None:
        """Advance ``user``'s seed-stream index (one more granted query)."""
        self.granted[user] += 1
        obs_metrics().counter(
            "repro_lane_granted_total",
            user="" if user is None else str(user),
            **self._obs_labels,
        ).inc()

    def enter_flight(self) -> None:
        """Count a query into the lane's in-flight count."""
        self.inflight += 1
        self._inflight_gauge.inc()

    def exit_flight(self) -> None:
        """Count a query out; resolves the drain barrier at zero."""
        self.inflight -= 1
        self._inflight_gauge.dec()
        if (
            self.inflight == 0 and self.drained is not None and not self.drained.done()
        ):
            self.drained.set_result(None)

    # -- consistency floors -----------------------------------------------------
    def current_version(self) -> int:
        """The lane's graph version (static datasets count as 0)."""
        version = self.session.graph_version
        return 0 if version is None else version

    def notify_version(self) -> None:
        """Wake every ``min_version`` waiter (the version advanced)."""
        waiters, self.version_waiters = self.version_waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    async def wait_for_version(self, floor: int, timeout: float) -> bool:
        """Block until the lane's version reaches ``floor`` (or time out)."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while self.current_version() < floor:
            remaining = deadline - loop.time()
            if remaining <= 0:
                return False
            waiter = loop.create_future()
            self.version_waiters.append(waiter)
            try:
                await asyncio.wait_for(waiter, remaining)
            except asyncio.TimeoutError:
                return False
            finally:
                if waiter in self.version_waiters:
                    self.version_waiters.remove(waiter)
        return True

    # -- summaries --------------------------------------------------------------
    def budget_summary(self) -> Dict:
        """The lane accountant's budget/spent/reserved/remaining row."""
        accountant = self.session.accountant
        return {
            "budget": accountant.budget,
            "spent": accountant.spent,
            "reserved": accountant.reserved,
            "remaining": accountant.remaining,
        }

    def describe(self) -> Dict:
        """The lane's row in ``hello``/``stats`` responses."""
        info = self.session.cache_info()
        row = {
            "updates": self.updates_enabled,
            "dynamic": self.session.dynamic,
            "graph_version": self.session.graph_version,
            "lp_backend": self.session.lp_backend,
            "multi_tenant": isinstance(self.session.accountant, HierarchicalAccountant),
            "inflight": self.inflight,
            "granted": sum(self.granted.values()),
            "budget": self.budget_summary(),
            "cache": {
                "hits": info.hits,
                "misses": info.misses,
                "size": info.size,
                "evictions": info.evictions,
                "invalidations": info.invalidations,
            },
        }
        maintenance = self.session.maintenance_info()
        if maintenance is not None:
            # per-pattern occurrence-maintenance counters (dynamic lanes):
            # rebuilds, deltas applied, ball sizes, store stats
            row["maintenance"] = maintenance
        return row


class ServiceRouter:
    """Serve private queries from many datasets over one wire listener.

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`address` after :meth:`start`).
    max_pending:
        Per-lane backpressure bound: queries in flight on one dataset
        beyond this are refused with ``overloaded`` before any budget is
        reserved.  ``0`` refuses every query (drain mode).
    seed:
        Default entropy for server-assigned request seeds on lanes that
        do not pin their own (``add_dataset(seed=...)`` overrides per
        dataset).  A seeded router + seeded sessions is end-to-end
        reproducible; ``None`` draws fresh entropy.
    name:
        Label reported by the ``hello`` op.
    min_version_wait:
        Longest a request carrying ``min_version`` blocks for the lane
        to catch up before being refused ``version_behind``.

    Datasets are mounted with :meth:`add_dataset` (the first becomes the
    default unless ``default=`` says otherwise).
    """

    #: Reported by ``hello``; :class:`~repro.service.replication
    #: .ReplicaService` overrides with ``"replica"``.
    role = "primary"

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = 64,
        seed: Optional[int] = None,
        name: str = "repro-service",
        min_version_wait: float = 30.0,
    ):
        if not isinstance(max_pending, int) or isinstance(max_pending, bool) \
                or max_pending < 0:
            raise ValueError(
                f"max_pending must be an integer >= 0, got {max_pending!r}"
            )
        self._host = host
        self._port = port
        self._max_pending = max_pending
        self._entropy = (
            # repro: allow(rng-determinism) — seed=None is the documented
            # fresh-entropy server; seeded servers answer byte-identically,
            # pinned by
            # tests/test_service.py::test_answers_byte_identical_to_in_process_session
            np.random.SeedSequence().entropy if seed is None else int(seed)
        )
        self.name = name
        self._min_version_wait = float(min_version_wait)
        self._lanes: Dict[str, DatasetLane] = {}
        self._default: Optional[str] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._started = time.perf_counter()

    # -- dataset mounting -------------------------------------------------------
    def add_dataset(
        self,
        name: str,
        session: PrivateSession,
        *,
        updates: bool = False,
        writer_token: Optional[str] = None,
        seed: Optional[int] = None,
        default: bool = False,
    ) -> DatasetLane:
        """Mount one dataset; returns its lane.

        ``writer_token`` is the per-dataset writer secret the ``update``
        op must present; ``seed`` pins the lane's request-seed entropy
        (defaults to the router's).  The first mounted dataset becomes
        the default route for frames without a ``dataset`` field.
        """
        if name in self._lanes:
            raise ValueError(f"dataset {name!r} is already mounted")
        lane = DatasetLane(
            name,
            session,
            updates=updates,
            writer_token=writer_token,
            entropy=self._entropy if seed is None else seed,
        )
        self._lanes[name] = lane
        if default or self._default is None:
            self._default = name
        return lane

    @property
    def datasets(self) -> Tuple[str, ...]:
        """The mounted dataset names (default first)."""
        names = sorted(self._lanes)
        if self._default in names:
            names.remove(self._default)
            names.insert(0, self._default)
        return tuple(names)

    @property
    def default_dataset(self) -> Optional[str]:
        """Where frames without a ``dataset`` field route."""
        return self._default

    def lane(self, name: Optional[str] = None) -> DatasetLane:
        """The lane for ``name`` (``None`` = the default lane)."""
        if name is None:
            if self._default is None:
                raise KeyError("no datasets are mounted")
            name = self._default
        return self._lanes[name]

    # -- lifecycle --------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("service is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting connections; returns the address."""
        if self._server is not None:
            raise RuntimeError("service is already started")
        if not self._lanes:
            raise RuntimeError("mount at least one dataset before start()")
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port,
            # StreamReader's default limit (64 KiB) would kill valid
            # frames under the protocol bound before decode_frame ever
            # saw them.
            limit=MAX_FRAME_BYTES + 2,
        )
        return self.address

    async def serve_forever(self) -> None:
        """Run until cancelled (:meth:`start` first if not yet bound)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections and close the listening socket."""
        if self._server is not None:
            server, self._server = self._server, None
            server.close()
            await server.wait_closed()

    # -- connection handling ----------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client: one request per line, responses in order."""
        try:
            while True:
                try:
                    line = await reader.readline()
                except ConnectionError:
                    break
                except (ValueError, asyncio.LimitOverrunError):
                    # Over-limit line: the stream is desynchronized —
                    # refuse loudly, then drop the connection.
                    writer.write(
                        encode_frame(
                            error_frame(
                                None,
                                ERR_BAD_REQUEST,
                                f"frame exceeds {MAX_FRAME_BYTES} bytes",
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break  # EOF: client hung up
                await self._serve_frame(line, writer)
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                # Cancellation mid-shutdown (or a peer that vanished):
                # the transport is closed either way.
                pass

    async def _serve_frame(self, line: bytes, writer: asyncio.StreamWriter) -> None:
        """Decode, validate, route, dispatch one request; write response(s)."""
        request_id = None
        v = PROTOCOL_VERSION
        try:
            request = protocol.decode_frame(line)
            request_id = request.get("id")
            validate_service_request(request)
            if request.get("v") not in SUPPORTED_VERSIONS:
                versions = "/".join(f"v{n}" for n in SUPPORTED_VERSIONS)
                writer.write(
                    encode_frame(
                        error_frame(
                            request_id,
                            ERR_UNSUPPORTED_VERSION,
                            f"this server speaks protocol {versions}, "
                            f"got v={request.get('v')!r}",
                        )
                    )
                )
                return
            v = request["v"]
            op = request["op"]
            if op == "hello":
                writer.write(
                    encode_frame(result_frame(request_id, self._op_hello(request), v=v))
                )
                return
            if op == "ping":
                writer.write(
                    encode_frame(result_frame(request_id, self._op_ping(request), v=v))
                )
                return
            if op == "stats":
                writer.write(
                    encode_frame(result_frame(request_id, self._op_stats(request), v=v))
                )
                return
            if op == "metrics":
                writer.write(
                    encode_frame(
                        result_frame(request_id, self._op_metrics(request), v=v)
                    )
                )
                return
            # Every other op reads (or writes) one dataset: route it.
            dataset = request.get("dataset")
            if dataset is None:
                dataset = self._default
            lane = self._lanes.get(dataset)
            if lane is None:
                writer.write(
                    encode_frame(
                        error_frame(
                            request_id,
                            ERR_UNKNOWN_DATASET,
                            f"unknown dataset {dataset!r} "
                            f"(served: {', '.join(self.datasets) or 'none'})",
                            v=v,
                        )
                    )
                )
                return
            floor = request.get("min_version")
            if floor is not None and not await lane.wait_for_version(
                floor, self._min_version_wait
            ):
                writer.write(
                    encode_frame(
                        error_frame(
                            request_id,
                            ERR_VERSION_BEHIND,
                            f"dataset {lane.name!r} is at graph version "
                            f"{lane.current_version()}, below the requested "
                            f"min_version={floor} (waited {self._min_version_wait:g}s)",
                            v=v,
                        )
                    )
                )
                return
            if op == "query":
                writer.write(encode_frame(await self._op_query(lane, request)))
            elif op == "update":
                writer.write(encode_frame(await self._op_update(lane, request)))
            elif op == "audit":
                await self._op_audit(lane, request, writer)
            elif op == "snapshot":
                writer.write(encode_frame(self._op_snapshot(lane, request)))
            elif op == "log":
                await self._op_log(lane, request, writer)
            else:  # budget
                writer.write(
                    encode_frame(
                        result_frame(request_id, self._op_budget(lane, request), v=v)
                    )
                )
        except (ProtocolError, ValueError) as error:
            writer.write(
                encode_frame(error_frame(request_id, ERR_BAD_REQUEST, str(error), v=v))
            )

    # -- simple ops -------------------------------------------------------------
    def _op_hello(self, request) -> Dict:
        default = self.lane()
        return {
            "protocol": PROTOCOL_VERSION,
            "protocols": list(SUPPORTED_VERSIONS),
            "capabilities": list(CAPABILITIES),
            "role": self.role,
            "name": self.name,
            "mechanisms": list(available_mechanisms()),
            "max_pending": self._max_pending,
            # Additive observability fields (older clients ignore them —
            # ResultFrame.from_payload tolerance is pinned in tests):
            "uptime_seconds": time.perf_counter() - self._started,
            "obs_schema": OBS_SCHEMA,
            # v1-compat keys, describing the default dataset (v1 clients
            # only ever see that lane):
            "multi_tenant": isinstance(
                default.session.accountant, HierarchicalAccountant
            ),
            "budget": default.budget_summary(),
            "updates": default.updates_enabled,
            "graph_version": default.session.graph_version,
            # the LP solver behind this server's answers (always
            # "highs"; kept so v1/v2 clients and saved audits parse)
            "lp_backend": default.session.lp_backend,
            # the v2 routing table:
            "default_dataset": self._default,
            "datasets": {
                name: {
                    "updates": lane.updates_enabled,
                    "dynamic": lane.session.dynamic,
                    "graph_version": lane.session.graph_version,
                    "lp_backend": lane.session.lp_backend,
                    "multi_tenant": isinstance(
                        lane.session.accountant, HierarchicalAccountant
                    ),
                }
                for name, lane in self._lanes.items()
            },
        }

    def _op_ping(self, request) -> Dict:
        return {
            "pong": True,
            "inflight": sum(lane.inflight for lane in self._lanes.values()),
        }

    def _op_stats(self, request) -> Dict:
        return {
            "role": self.role,
            "default_dataset": self._default,
            "uptime_seconds": time.perf_counter() - self._started,
            "obs_schema": OBS_SCHEMA,
            "datasets": {name: lane.describe() for name, lane in self._lanes.items()},
        }

    def _op_metrics(self, request) -> Dict:
        """One registry snapshot, rendered both ways: Prometheus ``text``
        for scrapers plus JSON rows (with p50/p95/p99) for clients."""
        snapshot = obs_metrics().snapshot()
        payload = json_payload(snapshot)
        payload["text"] = prometheus_text(snapshot)
        payload["role"] = self.role
        payload["uptime_seconds"] = time.perf_counter() - self._started
        return payload

    def _op_budget(self, lane: DatasetLane, request) -> Dict:
        accountant = lane.session.accountant
        summary = lane.budget_summary()
        summary["dataset"] = lane.name
        user = request.get("user")
        if user is not None:
            summary["user"] = {
                "name": user,
                "budget": accountant.user_budget(user),
                "spent": accountant.user_spent(user),
                "remaining": accountant.user_remaining(user),
            }
        else:
            summary["users"] = {
                name: {
                    "budget": accountant.user_budget(name),
                    "spent": accountant.user_spent(name),
                    "remaining": accountant.user_remaining(name),
                }
                for name in accountant.users()
            }
        return summary

    # -- the query pipeline -----------------------------------------------------
    async def _op_query(self, lane: DatasetLane, request) -> Dict:
        """Admit, budget, dispatch, and answer one private query.

        A thin timing wrapper: end-to-end latency (admission wait
        included) lands in ``repro_query_seconds{dataset=...}`` whatever
        frame :meth:`_dispatch_query` answers with.
        """
        start = time.perf_counter()
        try:
            return await self._dispatch_query(lane, request)
        finally:
            obs_metrics().histogram(
                "repro_query_seconds", dataset=lane.name
            ).observe(time.perf_counter() - start)

    async def _dispatch_query(self, lane: DatasetLane, request) -> Dict:
        request_id = request.get("id")
        v = request["v"]
        user = request.get("user")
        admitted = time.perf_counter()
        await lane.admission_turn()
        obs_metrics().histogram(
            "repro_admission_wait_seconds", dataset=lane.name
        ).observe(time.perf_counter() - admitted)
        if lane.inflight >= self._max_pending:
            return error_frame(
                request_id,
                ERR_OVERLOADED,
                f"{lane.inflight} queries already in flight on dataset "
                f"{lane.name!r} (max_pending={self._max_pending}); "
                f"retry later",
                v=v,
            )
        explicit_seed = seed_from_wire(request.get("seed"))
        seed = (
            explicit_seed if explicit_seed is not None else request_seed(
                lane.entropy, user, lane.granted[user]
            )
        )
        # The request's *root* span: its trace id hashes the same seed
        # material that will noise the answer, so the trace is stable
        # across replays and tracing can never perturb released bytes.
        span = obs_tracer().span(
            "router.query",
            trace_id=seed_trace_id(seed, user),
            dataset=lane.name,
            user=user,
            label=request.get("label"),
        )
        with span:
            return await self._answer_query(
                lane, request, seed, explicit_seed, user, request_id, v
            )

    async def _answer_query(
        self, lane, request, seed, explicit_seed, user, request_id, v
    ) -> Dict:
        try:
            future = lane.session.submit(
                request["query"],
                epsilon=request["epsilon"],
                privacy=request.get("privacy"),
                mechanism=request.get("mechanism", "recursive"),
                rng=seed,
                user=user,
                label=request.get("label"),
                at_version=request.get("at_version"),
                **request.get("options", {}),
            )
        except BudgetExhausted as error:
            # error.user is None when the shared global cap (not this
            # tenant's sub-budget) was the binding constraint — preserve
            # that distinction over the wire.
            return error_frame(
                request_id, ERR_BUDGET_EXHAUSTED, str(error), user=error.user, v=v
            )
        except (ReproError, ValueError, TypeError) as error:
            return error_frame(request_id, ERR_BAD_REQUEST, str(error), v=v)
        if explicit_seed is None:
            # Only *granted* requests advance the tenant's seed stream, so
            # refusals never shift later answers.
            lane.grant(user)
        entry = future.entry
        lane.enter_flight()
        try:
            if future.done():
                # repro: allow(async-blocking) — guarded by future.done():
                # a completed future returns without waiting; loop liveness
                # under load is pinned by
                # tests/test_service.py::test_hammering_ledger_exact_and_deterministic
                result = future.result()
            else:
                result = await asyncio.get_running_loop().run_in_executor(
                    None, future.result
                )
        except Exception as error:
            # Admission already spent the budget (side-channel safety);
            # report the failure with the ledger index it occupies.
            return error_frame(
                request_id,
                ERR_FAILED,
                f"query {entry.label!r} failed after admission "
                f"(eps={entry.epsilon:g} spent): {error}",
                user=user,
                v=v,
            )
        finally:
            lane.exit_flight()
        payload = ResultFrame(
            answer=float(result.answer),
            label=entry.label,
            epsilon=entry.epsilon,
            user=entry.user,
            mechanism=entry.mechanism,
            query=entry.query,
            status=entry.status,
            index=entry.index,
            cache_hit=entry.cache_hit,
            seed=seed_to_wire(entry.seed),
            # The one graph version this query saw (None: static data).
            version=entry.extra.get("version"),
            lp_backend=entry.extra.get("lp_backend"),
            dataset=lane.name,
        ).to_payload()
        return result_frame(request_id, payload, v=v)

    # -- live updates -----------------------------------------------------------
    async def apply_actions(
        self, lane: DatasetLane, actions, label: Optional[str] = None
    ):
        """Apply update actions behind the lane's drain barrier.

        The update waits for every in-flight request on the lane to drain
        (new arrivals queue behind it on the barrier), then applies on
        the event-loop thread — atomic with respect to admissions, so
        each query sees exactly one version.  Shared by the wire
        ``update`` op and the replica log-replay loop.  Exceptions from
        :meth:`~repro.session.PrivateSession.apply_update` propagate
        after the barrier drops.
        """
        await lane.admission_turn()
        loop = asyncio.get_running_loop()
        barrier = loop.create_future()
        lane.update_barrier = barrier
        try:
            while lane.inflight > 0:
                lane.drained = loop.create_future()
                await lane.drained
            lane.drained = None
            return lane.session.apply_update(actions, label=label)
        finally:
            lane.update_barrier = None
            barrier.set_result(None)
            lane.notify_version()

    async def _op_update(self, lane: DatasetLane, request) -> Dict:
        """Apply a graph update: writer-gated, a barrier in admission order.

        Updates spend no privacy budget; they are ledgered with their
        deltas for audit.
        """
        request_id = request.get("id")
        v = request["v"]
        refused = self._update_gate(lane, request)
        if refused is not None:
            return error_frame(request_id, ERR_FORBIDDEN, refused, v=v)
        version_before = lane.session.graph_version
        try:
            outcome = await self.apply_actions(
                lane, request["actions"], label=request.get("label")
            )
        except (ReproError, ValueError, TypeError) as error:
            # Application is sequential, not transactional: tell the
            # remote caller exactly how far it got — "bad_request"
            # alone would read as "rejected, no effect".
            version_after = lane.session.graph_version
            message = str(error)
            if version_after != version_before:
                message += (
                    f" (earlier actions in this update WERE applied: "
                    f"the graph moved v{version_before}->"
                    f"v{version_after}; see the audit log)"
                )
            return error_frame(request_id, ERR_BAD_REQUEST, message, v=v)
        return result_frame(
            request_id,
            {
                "dataset": lane.name,
                "version": outcome.version,
                "applied": outcome.applied,
                "deltas": [delta.to_dict() for delta in outcome.deltas],
                "num_nodes": lane.session.data.num_nodes,
                "num_edges": lane.session.data.num_edges,
            },
            v=v,
        )

    def _update_gate(self, lane: DatasetLane, request) -> Optional[str]:
        """The refusal message for an ``update``, or ``None`` to admit."""
        if not lane.updates_enabled:
            return (
                f"live updates are disabled on dataset {lane.name!r} "
                "(start it with updates enabled, e.g. `repro serve "
                "--updates`)"
            )
        if lane.writer_token is not None:
            token = request.get("token")
            if not isinstance(token, str) or not hmac.compare_digest(
                token, lane.writer_token
            ):
                return (
                    f"update refused: missing or invalid writer token "
                    f"for dataset {lane.name!r}"
                )
        return None

    # -- replication feed (snapshot + delta log) --------------------------------
    def _op_snapshot(self, lane: DatasetLane, request) -> Dict:
        """The lane's base graph (version 0) — a replica's bootstrap."""
        request_id = request.get("id")
        v = request["v"]
        if not lane.session.dynamic:
            return error_frame(
                request_id,
                ERR_BAD_REQUEST,
                f"dataset {lane.name!r} is static (no versioned log to " "replicate)",
                v=v,
            )
        base = lane.session.data.at_version(0)
        return result_frame(
            request_id,
            {
                "dataset": lane.name,
                "version": lane.session.data.version,
                "base_version": 0,
                "nodes": base.nodes(),
                "edges": [[u, w] for u, w in base.edges()],
            },
            v=v,
        )

    async def _op_log(
        self, lane: DatasetLane, request, writer: asyncio.StreamWriter
    ) -> None:
        """Stream the lane's delta log from ``since`` (exclusive).

        One ``delta`` event per committed :class:`~repro.dynamic
        .GraphDelta` — delta ``i`` (1-based) moved the graph to version
        ``i`` — closed by an ``end`` event carrying the lane's current
        version, so a tailing replica knows how far it has caught up.
        """
        request_id = request.get("id")
        v = request["v"]
        if not lane.session.dynamic:
            writer.write(
                encode_frame(
                    error_frame(
                        request_id,
                        ERR_BAD_REQUEST,
                        f"dataset {lane.name!r} is static (no versioned log to "
                        "replicate)",
                        v=v,
                    )
                )
            )
            return
        since = request.get("since", 0)
        log = lane.session.data.log
        if since > len(log):
            writer.write(
                encode_frame(
                    error_frame(
                        request_id,
                        ERR_BAD_REQUEST,
                        f"since={since} is ahead of dataset {lane.name!r} "
                        f"(version {len(log)})",
                        v=v,
                    )
                )
            )
            return
        streamed = 0
        for index in range(since, len(log)):
            writer.write(
                encode_frame(
                    event_frame(
                        request_id,
                        "delta",
                        v=v,
                        version=index + 1,
                        delta=log[index].to_dict(),
                    )
                )
            )
            streamed += 1
            if streamed % 64 == 0:
                await writer.drain()
        writer.write(
            encode_frame(
                event_frame(
                    request_id,
                    "end",
                    v=v,
                    version=len(log),
                    base_version=0,
                    count=streamed,
                    dataset=lane.name,
                )
            )
        )

    # -- streaming audit --------------------------------------------------------
    async def _op_audit(
        self, lane: DatasetLane, request, writer: asyncio.StreamWriter
    ) -> None:
        """Stream the lane's ledger (optionally re-executing it).

        Replay runs on the event-loop thread on purpose: it re-executes
        releases through the compiled-relation cache and the persistent
        LP overlays, and serializing it with admissions keeps that state
        single-writer.  Because that makes a replay as expensive as
        re-answering the ledger, it is admitted against the same
        ``max_pending`` bound as queries — a tenant cannot stall the
        service by replaying in a loop.  Frames are drained periodically
        so a long log streams instead of buffering whole.
        """
        request_id = request.get("id")
        v = request["v"]
        user = request.get("user")
        replay = bool(request.get("replay", False))
        accountant = lane.session.accountant
        await lane.admission_turn()
        if replay:
            if lane.inflight >= self._max_pending:
                writer.write(
                    encode_frame(
                        error_frame(
                            request_id,
                            ERR_OVERLOADED,
                            f"{lane.inflight} requests already in flight on "
                            f"dataset {lane.name!r} "
                            f"(max_pending={self._max_pending}); retry later",
                            v=v,
                        )
                    )
                )
                return
            lane.enter_flight()
            try:
                records = lane.session.replay()
            finally:
                lane.exit_flight()
            matched = 0
            streamed = 0
            for record in records:
                if user is not None and record.entry.user != user:
                    continue
                frame = event_frame(
                    request_id,
                    "entry",
                    v=v,
                    entry=record.entry.to_dict(),
                    replayed_answer=record.replayed_answer,
                    matches=record.matches,
                )
                writer.write(encode_frame(frame))
                streamed += 1
                if streamed % 64 == 0:
                    await writer.drain()
                if record.matches:
                    matched += 1
            writer.write(
                encode_frame(
                    event_frame(
                        request_id,
                        "end",
                        v=v,
                        count=streamed,
                        matched=matched,
                        **lane.budget_summary(),
                    )
                )
            )
            return
        streamed = 0
        for entry in accountant.ledger:
            if user is not None and entry.user != user:
                continue
            writer.write(
                encode_frame(
                    event_frame(request_id, "entry", v=v, entry=entry.to_dict())
                )
            )
            streamed += 1
            if streamed % 64 == 0:
                await writer.drain()
        writer.write(
            encode_frame(
                event_frame(
                    request_id, "end", v=v, count=streamed, **lane.budget_summary()
                )
            )
        )
