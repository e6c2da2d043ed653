"""Primary/replica serving: the GraphDelta log shipped over the wire.

PR 5 gave one process a versioned store — an append-only
:class:`~repro.dynamic.GraphDelta` log over a base graph, with
``at_version`` replay.  This module ships that primitive over the wire
protocol, the Berkholz–Keppeler–Schweikardt shape of answer maintenance
under updates: **one writer, many readers, one log.**

* The *primary* is any dynamic :class:`~repro.service.router
  .ServiceRouter` lane: it admits writer-authorized ``update`` ops and
  answers ``snapshot`` (the base graph, version 0) and ``log`` (the
  deltas after a version) — the replication feed.
* A :class:`ReplicaService` bootstraps by fetching the snapshot and
  replaying the full log into its own
  :class:`~repro.dynamic.VersionedGraph` (so its version numbers —
  and therefore its compiled-relation cache keys and answer streams —
  line up with the primary's), then *tails* the log: every poll fetches
  the deltas after its local version and applies them behind the same
  drain barrier a local update would use.
* Replicas refuse ``update`` (writes go to the primary) but serve
  everything else, echoing the graph version each answer saw.  A client
  that just wrote version ``n`` reads its writes by sending
  ``min_version: n`` — the replica holds the request until the tail
  catches up (bounded by the router's ``min_version_wait``), the
  replica-lag contract.

Replica answers are *byte-identical* to a fresh session over the
primary's graph at the echoed version and seed: the log replay
reconstructs the same graph, the canonical occurrence order makes the
compiled LP identical, and the seed fixes the noise.  The replica
consistency tests pin exactly that.

``python -m repro replica --primary HOST:PORT --dataset NAME`` runs one
from the command line.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..dynamic import VersionedGraph
from ..errors import ProtocolError, RemoteServiceError, ReproError
from ..graphs.graph import Graph
from ..obs import metrics as obs_metrics
from ..session import PrivateSession
from .client import parse_address
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
)
from .router import DatasetLane, ServiceRouter

__all__ = ["PrimaryLink", "ReplicaService", "graph_from_snapshot"]


class PrimaryLink:
    """An async client for one dataset's replication feed on a primary.

    One short-lived connection per call — a tailing replica polls at
    human timescales, so connection reuse buys nothing and reconnecting
    makes primary restarts a non-event.
    """

    def __init__(
        self,
        primary: Union[str, Tuple[str, int]],
        dataset: str,
        *,
        timeout: float = 30.0,
    ):
        self.address = parse_address(primary)
        self.dataset = dataset
        self._timeout = timeout
        self._ids = itertools.count(1)

    async def _call(self, op: str, **fields) -> List[Dict[str, Any]]:
        """One request; returns every response frame for its id."""
        request = {
            "v": PROTOCOL_VERSION,
            "id": next(self._ids),
            "op": op,
            "dataset": self.dataset,
        }
        request.update((k, v) for k, v in fields.items() if v is not None)
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(*self.address, limit=MAX_FRAME_BYTES + 2),
            self._timeout,
        )
        try:
            writer.write(encode_frame(request))
            await writer.drain()
            frames: List[Dict[str, Any]] = []
            while True:
                line = await asyncio.wait_for(reader.readline(), self._timeout)
                if not line:
                    raise ProtocolError("primary closed the connection mid-response")
                frame = decode_frame(line)
                if frame.get("id") != request["id"]:
                    raise ProtocolError("interleaved response on the replication link")
                if not frame.get("ok"):
                    error = frame.get("error") or {}
                    raise RemoteServiceError(
                        f"[{error.get('code')}] "
                        f"{error.get('message', 'unknown primary error')}"
                    )
                frames.append(frame)
                if "event" not in frame or frame["event"] == "end":
                    return frames
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def snapshot(self) -> Dict[str, Any]:
        """The dataset's base graph: ``{version, nodes, edges, ...}``."""
        frames = await self._call("snapshot")
        return frames[0]["result"]

    async def log(self, since: int = 0) -> Dict[str, Any]:
        """Deltas after version ``since``: ``{deltas, version}``."""
        frames = await self._call("log", since=since or None)
        deltas = [
            {"version": f["version"], "delta": f["delta"]}
            for f in frames
            if f.get("event") == "delta"
        ]
        end = frames[-1]
        return {
            "deltas": deltas,
            "version": end.get("version"),
            "base_version": end.get("base_version", 0),
        }


def graph_from_snapshot(snapshot: Dict[str, Any]) -> VersionedGraph:
    """Rebuild a :class:`~repro.dynamic.VersionedGraph` base from a wire
    ``snapshot`` payload (version 0, empty log)."""
    base = Graph(
        nodes=snapshot.get("nodes", ()),
        edges=[(u, v) for u, v in snapshot.get("edges", ())],
    )
    return VersionedGraph(base)


class ReplicaService(ServiceRouter):
    """A read replica of one dataset on a primary router.

    Parameters
    ----------
    primary:
        The primary's address (``"host:port"`` / ``(host, port)``).
    dataset:
        The dataset to replicate (must be dynamic on the primary); the
        replica mounts it under the same name, as its default.
    session_factory:
        Called once with the reconstructed
        :class:`~repro.dynamic.VersionedGraph` to build the replica's
        :class:`~repro.session.PrivateSession` — the deployment decides
        the accountant, cache and workers.  Privacy budgets
        are **per replica instance**: each replica accounts its own
        releases (centralized accounting across replicas is future
        work — see the README's replica-lag notes).
    poll_interval:
        Seconds between log polls while tailing.
    Remaining keyword arguments go to :class:`ServiceRouter`.
    """

    role = "replica"

    def __init__(
        self,
        primary: Union[str, Tuple[str, int]],
        dataset: str,
        session_factory: Callable[[VersionedGraph], PrivateSession],
        *,
        poll_interval: float = 0.2,
        link_timeout: float = 30.0,
        **kwargs,
    ):
        kwargs.setdefault("name", f"repro-replica[{dataset}]")
        super().__init__(**kwargs)
        self._link = PrimaryLink(primary, dataset, timeout=link_timeout)
        self._dataset_name = dataset
        self._session_factory = session_factory
        self._poll_interval = float(poll_interval)
        self._follow_task: Optional[asyncio.Task] = None
        self._follow_error: Optional[BaseException] = None

    @property
    def primary_address(self) -> Tuple[str, int]:
        """Where this replica tails from."""
        return self._link.address

    @property
    def follow_error(self) -> Optional[BaseException]:
        """A fatal tail-loop error (``None`` while healthy)."""
        return self._follow_error

    # -- lifecycle --------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bootstrap from the primary, bind, and start tailing the log."""
        if not self._lanes:
            snapshot = await self._link.snapshot()
            graph = graph_from_snapshot(snapshot)
            shipped = await self._link.log(since=0)
            for item in shipped["deltas"]:
                graph.apply(item["delta"])
            session = self._session_factory(graph)
            self.add_dataset(self._dataset_name, session, updates=False, default=True)
        address = await super().start()
        self._follow_task = asyncio.get_running_loop().create_task(self._follow())
        return address

    async def stop(self) -> None:
        if self._follow_task is not None:
            task, self._follow_task = self._follow_task, None
            # Re-cancel until the task ends: before Python 3.12, a cancel
            # that lands just as an ``asyncio.wait_for`` call in the tail
            # loop completes is swallowed, and the loop would poll on.
            while not task.done():
                task.cancel()
                await asyncio.wait([task], timeout=self._poll_interval)
            if not task.cancelled():
                task.exception()  # a fatal error is kept in follow_error
        await super().stop()

    # -- the tail loop ----------------------------------------------------------
    async def _follow(self) -> None:
        """Poll the primary's log and replay new deltas into the lane.

        Connection problems are retried on the next poll (a replica
        outliving a primary restart is the point of the design); a delta
        that fails to *apply* is fatal — it means this replica's state
        diverged, so it stops advancing and surfaces the error instead
        of serving answers from a wrong graph.
        """
        lane = self.lane()
        registry = obs_metrics()
        age_gauge = registry.gauge("repro_replica_version_age", dataset=lane.name)
        while True:
            await asyncio.sleep(self._poll_interval)
            since = lane.current_version()
            try:
                shipped = await self._link.log(since=since)
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    ProtocolError, RemoteServiceError):
                continue  # primary briefly unreachable — retry next poll
            primary_version = shipped.get("version")
            if primary_version is not None:
                # How many versions the lane trails the primary *before*
                # this batch is replayed (0 on an idle, caught-up tail).
                age_gauge.set(max(0, int(primary_version) - since))
            actions = [item["delta"] for item in shipped["deltas"]]
            if not actions:
                continue
            tick = time.perf_counter()
            try:
                await self._apply_replicated(lane, actions)
            except asyncio.CancelledError:
                raise
            except (ReproError, ValueError, TypeError) as error:
                self._follow_error = error
                raise
            registry.histogram(
                "repro_replica_catchup_seconds", dataset=lane.name
            ).observe(time.perf_counter() - tick)
            registry.counter(
                "repro_replica_deltas_total", dataset=lane.name
            ).inc(len(actions))
            age_gauge.set(max(0, int(primary_version or 0) - lane.current_version()))

    async def _apply_replicated(
        self, lane: DatasetLane, actions: List[Dict[str, Any]]
    ) -> None:
        """Apply shipped deltas behind the lane's drain barrier."""
        await self.apply_actions(lane, actions, label="replicated")
