"""Blocking client for the wire protocol: :class:`ServiceClient`.

A deliberately small, dependency-free client: one TCP connection, one
request per call, wire errors mapped back onto the library's exception
types — a ``budget_exhausted`` refusal raises the same
:class:`~repro.session.BudgetExhausted` (tenant attached) a local
:class:`~repro.session.PrivateSession` would, so code can move between
in-process and remote serving without changing its ``except`` clauses.

>>> # client = ServiceClient(("127.0.0.1", 8732), user="alice")  # doctest: +SKIP
... # client.query("triangle", epsilon=0.5, privacy="node")["answer"]
"""

from __future__ import annotations

import itertools
import json
import socket
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import (
    ProtocolError,
    RemoteServiceError,
    ServiceError,
    ServiceForbidden,
    ServiceOverloaded,
)
from ..session import BudgetExhausted
from .protocol import (
    ERR_BAD_REQUEST,
    ERR_BUDGET_EXHAUSTED,
    ERR_FORBIDDEN,
    ERR_OVERLOADED,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    encode_frame,
)

__all__ = ["ServiceClient", "parse_address"]


def parse_address(address: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """``"host:port"`` / ``"tcp://host:port"`` / ``(host, port)`` → tuple.

    A bracketed IPv6 host (``"[::1]:8732"``) loses its brackets; the port
    must lie in 1–65535.
    """
    host, port = "", 0
    if isinstance(address, tuple) and len(address) == 2:
        host, port = str(address[0]), int(address[1])
    elif isinstance(address, str):
        text = address
        if text.startswith("tcp://"):
            text = text[len("tcp://"):]
        head, sep, tail = text.rpartition(":")
        if sep and tail.isdigit():
            host, port = head, int(tail)
            if host.startswith("[") and host.endswith("]"):
                host = host[1:-1]
    if host and 1 <= port <= 65535:
        return host, port
    raise ServiceError(
        f"cannot parse service address {address!r}; expected "
        "'host:port', 'tcp://host:port', or a (host, port) tuple with a "
        "port in 1-65535"
    )


class ServiceClient:
    """A blocking wire-protocol client for one :mod:`repro.service` server.

    Parameters
    ----------
    address:
        ``(host, port)``, ``"host:port"``, or ``"tcp://host:port"``.
    dataset:
        Default dataset every request routes to (protocol v2).  ``None``
        leaves routing to the server's default dataset — exactly what a
        v1 client gets.
    user:
        Default tenant name attached to every request that does not name
        its own.
    timeout:
        Per-response socket timeout in seconds.
    """

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        *,
        dataset: Optional[str] = None,
        user: Optional[str] = None,
        timeout: float = 60.0,
    ):
        self._address = parse_address(address)
        self._dataset = dataset
        self._user = user
        self._timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._ids = itertools.count(1)

    # -- plumbing ---------------------------------------------------------------
    def _connection(self):
        if self._sock is None:
            self._sock = socket.create_connection(self._address, timeout=self._timeout)
            self._file = self._sock.makefile("rb")
        return self._sock, self._file

    def connect(self) -> "ServiceClient":
        """Open the connection eagerly; returns ``self``.

        Usable as a context manager::

            with ServiceClient("127.0.0.1:8732").connect() as client:
                client.ping()

        (Without it the socket opens lazily on the first call; this
        surfaces connection errors at a predictable point instead.)
        """
        self._connection()
        return self

    def close(self) -> None:
        """Close the connection (reopened lazily on the next call)."""
        if self._sock is not None:
            try:
                self._file.close()
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
            self._sock = None
            self._file = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _read_frame(self) -> Dict[str, Any]:
        _, file = self._connection()
        line = file.readline(MAX_FRAME_BYTES + 1)
        if not line:
            self.close()
            raise ServiceError("server closed the connection")
        try:
            frame = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(f"malformed response frame: {error}") from None
        if not isinstance(frame, dict):
            raise ProtocolError("response frame is not a JSON object")
        return frame

    def _send(self, request: Dict[str, Any]) -> Any:
        sock, _ = self._connection()
        sock.sendall(encode_frame(request))
        return request["id"]

    @staticmethod
    def _raise_error(frame: Dict[str, Any]) -> None:
        error = frame.get("error") or {}
        code = error.get("code")
        message = error.get("message", "unknown server error")
        if code == ERR_BUDGET_EXHAUSTED:
            raise BudgetExhausted(message, user=error.get("user"))
        if code == ERR_OVERLOADED:
            raise ServiceOverloaded(message)
        if code == ERR_FORBIDDEN:
            raise ServiceForbidden(message)
        if code == ERR_BAD_REQUEST:
            raise ValueError(message)
        raise RemoteServiceError(f"[{code}] {message}")

    def _roundtrip(self, request: Dict[str, Any]) -> Dict[str, Any]:
        request_id = self._send(request)
        frame = self._read_frame()
        if frame.get("id") != request_id:
            raise ProtocolError(
                f"response id {frame.get('id')!r} does not match request "
                f"id {request_id!r}"
            )
        if not frame.get("ok"):
            self._raise_error(frame)
        return frame

    def _request(
        self, op: str, *, dataset: Optional[str] = None, **fields
    ) -> Dict[str, Any]:
        request = {"v": PROTOCOL_VERSION, "id": next(self._ids), "op": op}
        dataset = dataset if dataset is not None else self._dataset
        if dataset is not None:
            request["dataset"] = dataset
        request.update(
            (key, value) for key, value in fields.items() if value is not None
        )
        return request

    # -- the API ----------------------------------------------------------------
    def hello(self) -> Dict[str, Any]:
        """Server info: protocol/capabilities, datasets, budget summary."""
        return self._roundtrip(self._request("hello"))["result"]

    def ping(self) -> Dict[str, Any]:
        """Liveness probe (also reports the server's in-flight count)."""
        return self._roundtrip(self._request("ping"))["result"]

    def stats(self) -> Dict[str, Any]:
        """Per-dataset router stats: versions, in-flight, cache counters."""
        return self._roundtrip(self._request("stats"))["result"]

    def metrics(self) -> Dict[str, Any]:
        """The server's metrics snapshot: Prometheus ``text`` plus JSON
        rows with p50/p95/p99 quantiles (``repro obs`` renders this)."""
        return self._roundtrip(self._request("metrics"))["result"]

    def budget(
        self, user: Optional[str] = None, *, dataset: Optional[str] = None
    ) -> Dict[str, Any]:
        """Budget accounting snapshot: global + all tenants by default,
        one tenant's detail when ``user`` is named."""
        return self._roundtrip(self._request(
            "budget", dataset=dataset, user=user
        ))["result"]

    def query(
        self,
        query: str,
        *,
        epsilon: float,
        privacy: Optional[str] = None,
        mechanism: Optional[str] = None,
        user: Optional[str] = None,
        label: Optional[str] = None,
        seed=None,
        options: Optional[Dict[str, Any]] = None,
        dataset: Optional[str] = None,
        at_version: Optional[int] = None,
        min_version: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Answer one private query; returns the result payload.

        ``dataset`` routes to one of a v2 router's datasets (default:
        the client's ``dataset=``, else the server's default dataset).
        ``at_version`` answers against a historical graph version;
        ``min_version`` refuses (``version_behind``) unless the serving
        lane has caught up to that version — the replica-lag contract.

        Raises :class:`~repro.session.BudgetExhausted` (tenant attached)
        on refusal, :class:`~repro.errors.ServiceOverloaded` under
        backpressure, and :class:`ValueError` for invalid requests —
        mirroring the in-process session API.
        """
        return self._roundtrip(self._request(
            "query", dataset=dataset, query=query, epsilon=epsilon,
            privacy=privacy, mechanism=mechanism, label=label, seed=seed,
            options=options, at_version=at_version, min_version=min_version,
            user=user if user is not None else self._user,
        ))["result"]

    def update(
        self,
        actions: List[Dict[str, Any]],
        *,
        token: Optional[str] = None,
        label: Optional[str] = None,
        dataset: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Apply a live graph update (dynamic servers only).

        ``actions`` is a list of update-action objects
        (``{"action": "add_edge", "u": 1, "v": 2}``, ``{"action":
        "remove_node", "node": 7}`` ...), applied in order as one
        admission-serialized step.  Returns ``{version, applied, deltas,
        num_nodes, num_edges}``.  Raises
        :class:`~repro.errors.ServiceForbidden` when the server has
        updates disabled or the dataset's writer ``token`` does not
        match, and :class:`ValueError` for invalid actions.
        """
        return self._roundtrip(self._request(
            "update", dataset=dataset, actions=list(actions), token=token,
            label=label,
        ))["result"]

    def snapshot(self, *, dataset: Optional[str] = None) -> Dict[str, Any]:
        """A dynamic dataset's base graph: ``{version, nodes, edges, ...}``.

        The replica bootstrap: replaying the :meth:`log` onto this base
        reconstructs every historical version.
        """
        return self._roundtrip(self._request("snapshot", dataset=dataset))["result"]

    def log(self, *, since: int = 0, dataset: Optional[str] = None) -> Dict[str, Any]:
        """The dataset's delta log after version ``since``.

        Returns ``{"deltas": [{"version": v, "delta": {...}}, ...],
        "version": current}`` — delta ``v`` moved the graph to version
        ``v``.
        """
        request = self._request("log", dataset=dataset)
        if since:
            request["since"] = since
        request_id = self._send(request)
        deltas: List[Dict[str, Any]] = []
        while True:
            frame = self._read_frame()
            if frame.get("id") != request_id:
                raise ProtocolError("interleaved response during log stream")
            if not frame.get("ok"):
                self._raise_error(frame)
            event = frame.get("event")
            if event == "delta":
                deltas.append(
                    {"version": frame.get("version"), "delta": frame.get("delta")}
                )
            elif event == "end":
                return {
                    "deltas": deltas,
                    "version": frame.get("version"),
                    "base_version": frame.get("base_version", 0),
                }
            else:
                raise ProtocolError(f"unexpected log stream frame: {frame!r}")

    def audit(
        self,
        *,
        replay: bool = False,
        user: Optional[str] = None,
        dataset: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Stream the server's audit log; returns ``{entries, ...totals}``.

        With ``replay=True`` the server re-executes every replayable
        ledger entry and each streamed entry carries ``replayed_answer``
        and ``matches``.
        """
        request = self._request("audit", dataset=dataset, user=user)
        if replay:
            request["replay"] = True
        request_id = self._send(request)
        entries: List[Dict[str, Any]] = []
        while True:
            frame = self._read_frame()
            if frame.get("id") != request_id:
                raise ProtocolError("interleaved response during audit stream")
            if not frame.get("ok"):
                self._raise_error(frame)
            event = frame.get("event")
            if event == "entry":
                entries.append(
                    {
                        key: value
                        for key, value in frame.items()
                        if key not in ("v", "id", "ok", "event")
                    }
                )
            elif event == "end":
                summary = {
                    key: value
                    for key, value in frame.items()
                    if key not in ("v", "id", "ok", "event")
                }
                summary["entries"] = entries
                return summary
            else:
                raise ProtocolError(f"unexpected audit stream frame: {frame!r}")
