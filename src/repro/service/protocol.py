"""The versioned wire protocol: newline-delimited JSON frames over TCP.

Stdlib-only by design (the serving layer adds **no** dependencies): one
request or response per line, each line one JSON object, UTF-8 encoded,
``\\n``-terminated.  Requests carry the protocol version ``v``, an
optional correlation ``id`` (echoed verbatim in every response frame),
and an ``op``; responses carry ``ok`` plus either a ``result`` payload or
an ``error`` object ``{code, message, user?}``.  Streaming operations
(the audit log) emit a sequence of ``event: "entry"`` frames closed by an
``event: "end"`` frame, all sharing the request's ``id``.

Request shapes (see :func:`repro.validation.validate_service_request` for
the field-by-field contract)::

    {"v": 2, "id": "q1", "op": "query", "user": "alice",
     "dataset": "prod", "query": "triangle", "privacy": "node",
     "epsilon": 0.5, "mechanism": "recursive", "options": {...},
     "seed": 7, "min_version": 3, "at_version": 2}
    {"v": 2, "id": "a1", "op": "audit", "dataset": "prod", "replay": true}
    {"v": 2, "op": "budget", "user": "alice", "dataset": "prod"}
    {"v": 2, "op": "hello"}   {"v": 2, "op": "ping"}
    {"v": 2, "op": "stats"}
    {"v": 2, "id": "u1", "op": "update", "dataset": "prod",
     "token": "...",
     "actions": [{"action": "add_edge", "u": 1, "v": 2},
                 {"action": "remove_node", "node": 7}]}

Protocol **v2** adds horizontal serving on top of the v1 single-dataset
contract: every request may carry a ``dataset`` (the router maps it to a
per-dataset session; frames without one — every v1 client — route to the
server's configurable default dataset), a ``min_version`` consistency
floor (the request waits until the dataset's graph version reaches it,
or is refused ``version_behind`` — read-your-writes after an
``update``), and queries may pin ``at_version`` to answer against a
historical graph version.  ``stats`` reports per-dataset router
counters.  v1 frames remain fully supported — responses echo the
request's ``v``.

The ``update`` op mutates the served graph (dynamic deployments only,
``repro serve --updates``): it is admin-gated per dataset (``forbidden``
unless enabled for that dataset, and unless ``token`` matches that
dataset's writer token when one is set).

Updates are serialized with admissions on the event loop — an update
admits only after in-flight queries on its dataset drain, and queries
arriving behind it wait until it applied, so every query
deterministically sees exactly one graph version (reported back in its
result frame).

Determinism over the wire: a request may pin its noise seed explicitly —
an ``int``, or ``{"entropy": E, "spawn_key": [k...]}`` naming a
``numpy.random.SeedSequence`` — and otherwise the service derives one
from its own seed root via :func:`request_seed`, a pure function of
``(service entropy, tenant, that tenant's granted-request index)``.
Either way the released answer is byte-identical to an in-process
:class:`~repro.session.PrivateSession` release at the same seed, and the
ledger records the seed for audit replay.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Union

import numpy as np

from ..errors import ProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "MAX_FRAME_BYTES",
    "ERR_BAD_REQUEST",
    "ERR_UNSUPPORTED_VERSION",
    "ERR_BUDGET_EXHAUSTED",
    "ERR_OVERLOADED",
    "ERR_FAILED",
    "ERR_FORBIDDEN",
    "ERR_VERSION_BEHIND",
    "ERR_UNKNOWN_DATASET",
    "encode_frame",
    "decode_frame",
    "result_frame",
    "error_frame",
    "event_frame",
    "ResultFrame",
    "seed_to_wire",
    "seed_from_wire",
    "request_seed",
]

#: Current wire-protocol version (v2: multi-dataset routing, consistency
#: floors, historical reads).
PROTOCOL_VERSION = 2

#: Versions the server accepts.  v1 frames (single implicit dataset) are
#: routed to the configured default dataset; anything else is refused
#: with ``unsupported_version`` (never silently reinterpreted).
SUPPORTED_VERSIONS = (1, 2)

#: Hard bound on one frame's size — a peer streaming an unterminated
#: line must not balloon server memory.
MAX_FRAME_BYTES = 1 << 20

# Error codes (the wire's stable vocabulary; clients map these back to
# the library's exception types).
ERR_BAD_REQUEST = "bad_request"
ERR_UNSUPPORTED_VERSION = "unsupported_version"
ERR_BUDGET_EXHAUSTED = "budget_exhausted"
ERR_OVERLOADED = "overloaded"  # backpressure: bounded queue is full (429)
ERR_FAILED = "failed"  # mechanism failed after admission (budget spent)
ERR_FORBIDDEN = "forbidden"  # admin-gated op refused (updates disabled/bad token)
ERR_VERSION_BEHIND = "version_behind"  # min_version not reached within the wait
ERR_UNKNOWN_DATASET = "unknown_dataset"  # dataset not mounted on this server


def encode_frame(obj: Dict[str, Any]) -> bytes:
    """One JSON object → one UTF-8 ``\\n``-terminated wire line."""
    return (json.dumps(obj, separators=(",", ":"), allow_nan=False)
            + "\n").encode("utf-8")


def decode_frame(line: bytes) -> Dict[str, Any]:
    """One wire line → the JSON object, or :class:`ProtocolError`."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"malformed frame: {error}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(obj).__name__}")
    return obj


def result_frame(
    request_id, result: Dict[str, Any], v: int = PROTOCOL_VERSION
) -> Dict[str, Any]:
    """A successful response frame (``v`` echoes the request's version)."""
    return {"v": v, "id": request_id, "ok": True, "result": result}


def error_frame(
    request_id,
    code: str,
    message: str,
    user: Optional[str] = None,
    v: int = PROTOCOL_VERSION,
) -> Dict[str, Any]:
    """A refusal/failure response frame (``user`` = the binding tenant)."""
    error: Dict[str, Any] = {"code": code, "message": message}
    if user is not None:
        error["user"] = user
    return {"v": v, "id": request_id, "ok": False, "error": error}


def event_frame(
    request_id, event: str, v: int = PROTOCOL_VERSION, **payload
) -> Dict[str, Any]:
    """One frame of a streamed response (``entry`` ... then ``end``)."""
    return {"v": v, "id": request_id, "ok": True, "event": event, **payload}


@dataclass(frozen=True)
class ResultFrame:
    """The typed ``query`` result payload.

    v1 grew these fields ad hoc (``version`` with PR 5, ``lp_backend``
    with PR 6, ``user`` with PR 4); v2 fixes them as one declared shape
    so the router and the client agree on every key.  All keys are
    always present on the wire — absent values are ``null`` — which
    keeps v1 clients (who index into the dict) working unchanged.
    """

    answer: float
    label: Optional[str]
    epsilon: float
    user: Optional[str]
    mechanism: str
    query: Optional[str]
    status: str
    index: int
    cache_hit: Optional[bool]
    seed: Optional[WireSeed]
    version: Optional[int]
    lp_backend: Optional[str]
    dataset: Optional[str]

    def to_payload(self) -> Dict[str, Any]:
        """The wire dict (every field present, JSON-able)."""
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ResultFrame":
        """Parse a wire dict (unknown keys ignored, missing → ``None``)."""
        names = cls.__dataclass_fields__  # type: ignore[attr-defined]
        return cls(**{name: payload.get(name) for name in names})


# ---------------------------------------------------------------------------
# Deterministic seeds over the wire
# ---------------------------------------------------------------------------

WireSeed = Union[int, Dict[str, Any]]


def seed_to_wire(seed) -> Optional[WireSeed]:
    """A ledger seed token (int / ``SeedSequence``) → its JSON form."""
    if seed is None:
        return None
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    if isinstance(seed, np.random.SeedSequence):
        return {"entropy": seed.entropy, "spawn_key": [int(k) for k in seed.spawn_key]}
    raise ProtocolError(f"cannot encode seed {seed!r} for the wire")


def seed_from_wire(wire: Optional[WireSeed]):
    """The JSON form → an ``int`` seed or ``numpy.random.SeedSequence``."""
    if wire is None:
        return None
    if isinstance(wire, (int, np.integer)):
        return int(wire)
    if isinstance(wire, dict):
        try:
            return np.random.SeedSequence(
                entropy=wire["entropy"],
                spawn_key=tuple(int(k) for k in wire.get("spawn_key", ())),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(f"malformed wire seed: {error}") from None
    raise ProtocolError(f"cannot decode wire seed {wire!r}")


def _user_key(user: Optional[str]) -> int:
    """A stable 64-bit spawn-key component for one tenant name."""
    digest = hashlib.sha256((user if user is not None else "").encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def request_seed(
    entropy: int, user: Optional[str], index: int
) -> np.random.SeedSequence:
    """The service-side seed for a tenant's ``index``-th granted request.

    A pure function of the service's seed entropy, the tenant name, and
    that tenant's own granted-request counter — so per-tenant answer
    streams are byte-identical across runs and independent of how other
    tenants' requests interleave.
    """
    return np.random.SeedSequence(
        entropy=entropy, spawn_key=(_user_key(user), int(index))
    )
