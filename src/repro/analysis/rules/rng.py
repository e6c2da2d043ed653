"""Rule: every random draw and timestamp must be seed-derived.

Released answers are pinned byte-for-byte at a fixed seed (audit replay,
cross-backend and cross-worker tests), so any entropy that does not flow
from the session's ``SeedSequence`` spawning (:mod:`repro.rng`) silently
breaks reproducibility.  The stdlib ``random`` module, numpy's *global*
RNG, unseeded ``default_rng()`` / ``RandomState()`` / ``SeedSequence()``
constructions, and wall-clock reads (``time.time``, ``datetime.now``)
are all such leaks.  ``time.perf_counter`` / ``monotonic`` stay legal:
they feed the ``seconds`` bookkeeping, never a released value.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..core import Finding, Rule, SourceModule, register

__all__ = ["RngDeterminismRule"]

#: numpy.random module-level functions that draw from (or reseed) the
#: process-global legacy RNG.
_NUMPY_GLOBAL_DRAWS = {
    "seed",
    "random",
    "rand",
    "randn",
    "randint",
    "random_sample",
    "choice",
    "shuffle",
    "permutation",
    "normal",
    "uniform",
    "laplace",
    "exponential",
    "poisson",
    "binomial",
    "bytes",
}

#: Zero-argument construction of these numpy.random types pulls OS
#: entropy instead of a caller-provided seed.
_NUMPY_SEEDED_TYPES = {"default_rng", "RandomState", "Generator", "SeedSequence"}

#: Wall-clock reads (perf_counter/monotonic are fine: interval-only).
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


def _first_arg_is_seed(call: ast.Call) -> bool:
    """True when the call passes an explicit, non-``None`` seed.

    ``SeedSequence`` spells its seed parameter ``entropy``; the others
    use ``seed`` (or the first positional argument).
    """
    for keyword in call.keywords:
        if keyword.arg in ("seed", "entropy"):
            return not (
                isinstance(keyword.value, ast.Constant) and keyword.value.value is None
            )
    if not call.args:
        return False
    first = call.args[0]
    return not (isinstance(first, ast.Constant) and first.value is None)


@register
class RngDeterminismRule(Rule):
    """Flag entropy sources not derived from the session seed."""

    id = "rng-determinism"
    title = "randomness and timestamps must derive from the session seed"
    rationale = (
        "Released answers are byte-identical at a fixed seed — the audit "
        "log replays them, and the cross-backend/worker/wire tests pin "
        "them.  Entropy from the stdlib `random` module, numpy's global "
        "RNG, an unseeded default_rng()/RandomState()/SeedSequence(), or "
        "a wall-clock read (time.time, datetime.now) bypasses the "
        "SeedSequence spawning in repro/rng.py and breaks that guarantee. "
        "Thread a Generator (or seed) down from the session instead; "
        "time.perf_counter is fine for duration bookkeeping."
    )

    def check(self, module: SourceModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.call_name(node)
            if not name:
                continue
            if name == "random" or name.startswith("random."):
                yield module.finding(
                    self.id,
                    node,
                    f"stdlib `{name}` draws from untracked global state; "
                    "use a numpy Generator threaded from the session seed",
                )
            elif name.startswith("numpy.random."):
                attr = name[len("numpy.random."):]
                if attr in _NUMPY_GLOBAL_DRAWS:
                    yield module.finding(
                        self.id,
                        node,
                        f"`numpy.random.{attr}` uses the process-global "
                        "RNG; draw from an explicitly seeded Generator",
                    )
                elif attr in _NUMPY_SEEDED_TYPES and not _first_arg_is_seed(node):
                    yield module.finding(
                        self.id,
                        node,
                        f"unseeded `numpy.random.{attr}()` pulls OS "
                        "entropy; pass a seed derived from repro.rng",
                    )
            elif name in _WALL_CLOCK:
                yield module.finding(
                    self.id,
                    node,
                    f"wall-clock read `{name}()` is nondeterministic; "
                    "use time.perf_counter for durations, or pass "
                    "timestamps in explicitly",
                )
