"""Tests for named shared-memory compiled blocks (:mod:`repro.parallel.shm`).

The acceptance pins:

* a :class:`~repro.lp.compiled.CompiledProgram` attached from another
  program's exported segments answers every solve **byte-identical** to
  the exporter (same physical pages, rebuilt derived state);
* attached views are read-only — many readers, no writer;
* segment lifecycle is leak-free: refcounted release unlinks owned
  segments, and a process that exits without releasing is cleaned up by
  the registry's ``atexit`` hook (no stray ``/dev/shm`` entries);
* ``spawn``-started pools (``$REPRO_START_METHOD=spawn``) produce the
  same results as the serial path — the fork-ordering constraint is gone.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.boolexpr.expr import And, Or, Var
from repro.lp import backends as lp_backends
from repro.parallel import shm
from repro.parallel.pool import (
    START_METHOD_ENV,
    resolve_start_method,
    spawn_available,
)
from repro.relax.encode import EncodedRelation


def _compiled_program(backend):
    """A small compiled program over a fixed annotated relation."""
    names = ["p0", "p1", "p2", "p3"]
    annotated = [
        (And([Var("p0"), Var("p1")]), 1.5),
        (Or([Var("p1"), And([Var("p2"), Var("p3")])]), 2.0),
        (Var("p2"), 0.75),
    ]
    return EncodedRelation(names, annotated, backend)._compiled


class TestArrayExportAttach:
    def test_round_trip_and_read_only(self):
        array = np.linspace(0.0, 7.5, 16).reshape(4, 4)
        spec = shm.export_array(array)
        assert set(spec) == {"segment", "shape", "dtype"}
        view = shm.attach_array(spec)
        np.testing.assert_array_equal(view, array)
        assert view.flags.writeable is False
        with pytest.raises((ValueError, RuntimeError)):
            view[0, 0] = 99.0
        del view
        shm.release_spec(spec)  # attach reference
        shm.release_spec(spec)  # owner reference -> unlink
        with pytest.raises(FileNotFoundError):
            shm.registry().attach(spec["segment"])

    def test_refcounts_shared_within_process(self):
        registry = shm.registry()
        spec = shm.export_array(np.arange(8, dtype=np.float64))
        name = spec["segment"]
        assert registry.refcount(name) == 1
        assert name in registry.owned()
        first = registry.attach(name)
        second = registry.attach(name)
        assert first is second  # one mapping per process
        assert registry.refcount(name) == 3
        registry.release(name)
        registry.release(name)
        assert registry.refcount(name) == 1  # owner's reference survives
        registry.release(name)
        assert registry.refcount(name) == 0
        with pytest.raises(FileNotFoundError):
            registry.attach(name)  # owned segment was unlinked at zero

    def test_release_spec_walks_nested_specs(self):
        registry = shm.registry()
        specs = [shm.export_array(np.arange(4.0)) for _ in range(3)]
        nested = {
            "objective": specs[0],
            "g": {"data": specs[1], "extra": [specs[2], None]},
            "scalar": 7,
        }
        names = [spec["segment"] for spec in specs]
        assert all(registry.refcount(name) == 1 for name in names)
        shm.release_spec(nested)
        assert all(registry.refcount(name) == 0 for name in names)

    def test_attach_unknown_segment_raises(self):
        with pytest.raises(FileNotFoundError):
            shm.registry().attach("psm_repro_no_such_segment")


class TestCompiledProgramSharing:
    def test_attach_solves_byte_identical(self, lp_backend):
        program = _compiled_program(lp_backend)
        spec = program.export_shared()
        assert spec["backend"] == lp_backend.name
        assert program.export_shared() is spec  # memoized
        attached = type(program).attach_shared(spec)
        assert attached._c.flags.writeable is False
        points = [0.0, 0.5, 1.0, 2.0, 3.5, float(program.num_variables)]
        for i in points:
            # assert_equal, not ==: an infeasible mass must be infeasible
            # on both sides, and nan != nan under plain comparison
            np.testing.assert_equal(
                attached.solve_h(i).objective, program.solve_h(i).objective
            )
            np.testing.assert_equal(
                attached.solve_g(i).objective, program.solve_g(i).objective
            )
        for delta in (0.0, 0.1, 1.0):
            np.testing.assert_equal(
                attached.solve_x(delta).objective, program.solve_x(delta).objective
            )
        for i, bound in ((1.0, 0.5), (2.0, 10.0)):
            assert attached.solve_g_decide(i, bound) == program.solve_g_decide(i, bound)
        shm.release_spec(spec)  # the attach references
        program.release_shared()
        with pytest.raises(FileNotFoundError):
            shm.registry().attach(spec["objective"]["segment"])

    def test_export_requires_registry_named_backend(self):
        from repro.errors import LPError

        program = _compiled_program(lp_backends.default_backend())
        program.backend = object()  # no usable .name
        with pytest.raises(LPError, match="registry-named"):
            program.export_shared()

    @pytest.mark.skipif(not spawn_available(), reason="spawn not available")
    def test_spawn_pool_matches_serial(self, monkeypatch):
        """solve_many under a spawn pool == the serial in-process path."""
        program = _compiled_program(lp_backends.default_backend())
        tasks = [("h", 1.0), ("h", 2.5), ("g", 1.0), ("g", 3.0), ("x", 0.2)]
        serial = [s.objective for s in program.solve_many(tasks, workers=1)]
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        assert resolve_start_method() == "spawn"
        fanned = [s.objective for s in program.solve_many(tasks, workers=2)]
        assert fanned == serial
        program.release_shared()

    def test_resolve_start_method_env_validation(self, monkeypatch):
        monkeypatch.setenv(START_METHOD_ENV, "threads")
        with pytest.raises(ValueError, match="fork.*spawn"):
            resolve_start_method()
        monkeypatch.delenv(START_METHOD_ENV)
        assert resolve_start_method() in ("fork", "spawn")


class TestAtexitCleanup:
    def test_exiting_owner_unlinks_segments(self, tmp_path):
        """A process that exports and exits without releasing leaks nothing."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        script = (
            "import numpy as np\n"
            "from repro.parallel import shm\n"
            "spec = shm.export_array(np.arange(32, dtype=np.float64))\n"
            "print(spec['segment'])\n"
            # exit WITHOUT release_spec: the registry's atexit hook must
            # unlink the owned segment.
        )
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        name = result.stdout.strip()
        assert name
        with pytest.raises(FileNotFoundError):
            shm.registry().attach(name)
        if sys.platform.startswith("linux") and os.path.isdir("/dev/shm"):
            assert not os.path.exists(os.path.join("/dev/shm", name))
