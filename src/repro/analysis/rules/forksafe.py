"""Rule: native solver state must never cross a fork unreset.

A forked child inherits the parent's native solver environments and HiGHS
model pointers by COW page, and touching them corrupts both processes.
The repo's contract (:mod:`repro.parallel.pool`) is:

* any class that acquires a persistent native model (a
  ``backend.build_persistent(...)`` call) must define a ``fork_reset()``
  hook **and** enroll instances via ``register_fork_reset(...)`` so the
  pool's fork hook clears them in the child;
* no module-level (import-time) solver handles — they would predate any
  registration and leak into every fork;
* forks themselves happen only through :mod:`repro.parallel` — direct
  ``os.fork`` / ``multiprocessing`` use elsewhere bypasses
  ``run_fork_resets()`` entirely.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..core import Finding, Rule, SourceModule, register

__all__ = ["ForkSafetyRule"]

#: Call targets that create a forked (or forkable) process directly.
_FORK_CALLS = {
    "os.fork",
    "multiprocessing.Pool",
    "multiprocessing.Process",
    "multiprocessing.get_context",
    "concurrent.futures.ProcessPoolExecutor",
}

#: Files allowed to fork: the parallel execution layer owns the
#: fork-reset hook, so forks made there run it.
_FORK_LAYER = "repro/parallel/"


def _calls_in(node: ast.AST, module: SourceModule):
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            yield child


def _is_build_persistent(call: ast.Call) -> bool:
    return (
        isinstance(call.func, ast.Attribute) and call.func.attr == "build_persistent"
    )


def _registers_fork_reset(call: ast.Call, module: SourceModule) -> bool:
    name = module.call_name(call)
    return name.endswith("register_fork_reset")


@register
class ForkSafetyRule(Rule):
    """Flag native solver handles created outside the fork-reset registry."""

    id = "fork-safety"
    title = "native solver handles must enroll in the fork-reset registry"
    rationale = (
        "Forked workers inherit the parent's native solver state (solver "
        "environments, HiGHS models) as copy-on-write memory; using it in "
        "the child corrupts both sides.  repro/parallel/pool.py runs "
        "fork_reset() on every registered holder in each forked child, so "
        "a class that calls backend.build_persistent(...) must define "
        "fork_reset() and call register_fork_reset(self); module-level "
        "solver handles and forks made outside repro/parallel/ bypass the "
        "registry entirely."
    )

    def check(self, module: SourceModule) -> Iterable[Finding]:
        # 1. Classes acquiring persistent models must carry the contract.
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            builds = [
                call for call in _calls_in(node, module) if _is_build_persistent(call)
            ]
            if not builds:
                continue
            has_hook = any(
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "fork_reset"
                for item in node.body
            )
            registers = any(
                _registers_fork_reset(call, module) for call in _calls_in(node, module)
            )
            if not has_hook:
                yield module.finding(
                    self.id,
                    builds[0],
                    f"class {node.name} builds a persistent solver model "
                    "but defines no fork_reset() hook",
                )
            if not registers:
                yield module.finding(
                    self.id,
                    builds[0],
                    f"class {node.name} builds a persistent solver model "
                    "but never calls register_fork_reset(...)",
                )
        # 2. No import-time solver handles.
        tree = module.tree
        if isinstance(tree, ast.Module):
            for stmt in tree.body:
                if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                for call in _calls_in(stmt, module):
                    if _is_build_persistent(call):
                        yield module.finding(
                            self.id,
                            call,
                            "module-level persistent solver model: built "
                            "at import time, it predates any fork-reset "
                            "registration and leaks into every fork",
                        )
        # 3. Forks only through the parallel layer.
        if _FORK_LAYER not in module.path:
            for call in _calls_in(module.tree, module):
                name = module.call_name(call)
                if name in _FORK_CALLS:
                    yield module.finding(
                        self.id,
                        call,
                        f"`{name}(...)` forks outside repro/parallel/ — "
                        "the child skips run_fork_resets(); go through "
                        "repro.parallel.pool instead",
                    )
