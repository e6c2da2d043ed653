"""Network serving layer: the async multi-tenant private-query service.

The deployable shape of the serving stack, horizontally since PR 7: a
:class:`~repro.service.router.ServiceRouter` fronts *many* per-dataset
:class:`~repro.session.PrivateSession` lanes behind one versioned
newline-delimited JSON wire protocol (stdlib ``asyncio`` only), with
per-user sub-budgets (:class:`~repro.session.HierarchicalAccountant`),
per-dataset compiled-relation cache namespaces
(:meth:`~repro.session.SharedCompiledCache.namespaced`), per-dataset
writer authorization, bounded-queue backpressure, streaming audit, and a
replication feed (``snapshot`` + ``log``) that
:class:`~repro.service.replication.ReplicaService` read replicas tail.
A single-dataset server is a router with one lane.  ``python -m repro
serve`` / ``repro replica`` start them from the command line;
:class:`BackgroundService` runs one in-process on a thread, and
:class:`ServiceClient` is the blocking client (``python -m repro batch
--remote`` rides on it).
"""

from .client import ServiceClient, parse_address
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    ResultFrame,
    request_seed,
    seed_from_wire,
    seed_to_wire,
)
from .replication import PrimaryLink, ReplicaService
from .router import DatasetLane, ServiceRouter
from .service import DEFAULT_DATASET, BackgroundService

__all__ = [
    "ServiceRouter",
    "DatasetLane",
    "BackgroundService",
    "ReplicaService",
    "PrimaryLink",
    "ServiceClient",
    "parse_address",
    "DEFAULT_DATASET",
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "ResultFrame",
    "MAX_FRAME_BYTES",
    "request_seed",
    "seed_to_wire",
    "seed_from_wire",
]
