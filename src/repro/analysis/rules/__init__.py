"""Registered lint rules — importing this package populates the registry.

Each module contributes one invariant checker:

* :mod:`.rng` — ``rng-determinism``: entropy and clocks must be seeded;
* :mod:`.iteration` — ``iter-order``: sets feeding ordered output must
  be sorted;
* :mod:`.forksafe` — ``fork-safety``: native solver handles must enroll
  in the fork-reset registry;
* :mod:`.accounting` — ``budget-two-phase``: every ``reserve()`` must
  reach ``commit()``/``rollback()``;
* :mod:`.eventloop` — ``async-blocking``: no blocking calls on the
  service event loop;
* :mod:`.pragmas` — ``pragma``: suppressions must name a real rule, a
  reason, and an actual finding.
"""

from . import (
    accounting,
    eventloop,
    forksafe,
    iteration,
    pragmas,
    rng,
)

__all__ = [
    "accounting",
    "eventloop",
    "forksafe",
    "iteration",
    "pragmas",
    "rng",
]
