"""In-process serving: :class:`BackgroundService` runs a router on a thread.

The wire contract (admission order, per-user budgets, backpressure,
deterministic seeds, live updates) is
:class:`~repro.service.router.ServiceRouter`'s; ``python -m repro
serve`` builds one from a ``--datasets`` config or the single-graph
flags (mounted as :data:`DEFAULT_DATASET`).
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional, Tuple

from .router import ServiceRouter

__all__ = ["BackgroundService", "DEFAULT_DATASET"]

#: The dataset name ``repro serve`` mounts its single-graph flags under
#: (and therefore what v1 clients of such a server implicitly query).
DEFAULT_DATASET = "default"


class BackgroundService:
    """Run a :class:`ServiceRouter` on a daemon thread.

    The in-process deployment used by tests, examples, and the service
    benchmark: the asyncio event loop runs on its own thread, the caller
    talks to it through a blocking
    :class:`~repro.service.client.ServiceClient`.  Any assembled
    :class:`~repro.service.router.ServiceRouter` (or
    :class:`~repro.service.replication.ReplicaService`) runs this way.

    >>> # router = ServiceRouter(seed=7)                 # doctest: +SKIP
    ... # router.add_dataset("default", session)
    ... # with BackgroundService(router) as bg:
    ... #     client = ServiceClient(bg.address)
    """

    def __init__(self, router: ServiceRouter):
        if not isinstance(router, ServiceRouter):
            raise TypeError(
                f"BackgroundService runs a ServiceRouter, got {type(router).__name__}"
            )
        self._service = router
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def service(self) -> ServiceRouter:
        return self._service

    @property
    def address(self) -> Tuple[str, int]:
        return self._service.address

    def start(self) -> Tuple[str, int]:
        """Start the loop thread; returns the bound address."""
        if self._thread is not None:
            raise RuntimeError("BackgroundService is already running")
        self._loop = asyncio.new_event_loop()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self._service.start())
            except BaseException as error:  # bind failure et al.
                self._startup_error = error
                self._ready.set()
                return
            self._ready.set()
            try:
                self._loop.run_forever()
            finally:
                self._loop.run_until_complete(self._service.stop())
                # Open connections outlive serve socket closure: cancel
                # their handler tasks and let them close their writers
                # before the loop goes away.
                pending = asyncio.all_tasks(self._loop)
                for task in pending:
                    task.cancel()
                if pending:
                    self._loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                self._loop.close()

        self._thread = threading.Thread(target=run, name="repro-service", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise self._startup_error
        return self.address

    def stop(self) -> None:
        """Stop the loop and join the thread."""
        if self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "BackgroundService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
