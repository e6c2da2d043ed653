"""The benchmark's four workloads.

Each workload turns ``(seed, seconds)`` into a fixed op list
(:meth:`Workload.make_inputs`), builds the system over it
(:meth:`Workload.setup`, timed as ``setup_s``), runs the op list as a
closed loop (:meth:`Workload.run`), and checks the outputs against
independent computations (:meth:`Workload.verify`).

The datasets are fixed: their generator seeds are constants of this file.
The ``--seed`` draws the traffic — op order, tenants, per-request noise
seeds and the update stream — so runs with different seeds do the same
kind and amount of work and their spread is the machine's, not the
inputs'.  (A prototype that drew the cold-release graphs from the seed
spread 290-440 ms in p90 over five seeds, on identical code.)
"""

import math
import threading
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro import PrivateSession, VersionedGraph, random_graph_with_avg_degree
from repro.service import BackgroundService, ServiceClient, ServiceRouter
from repro.session import HierarchicalAccountant, SharedCompiledCache
from repro.subgraphs.counting import count_k_stars, count_k_triangles, count_triangles

EPSILON = 1.0
TENANTS = ("t0", "t1", "t2", "t3")
WRITER_TOKEN = "perfbench"

#: The paper's query set: (query, privacy) pairs.
QUERY_SET = (
    ("triangle", "node"),
    ("triangle", "edge"),
    ("2-star", "node"),
    ("2-star", "edge"),
    ("2-triangle", "node"),
    ("2-triangle", "edge"),
)
#: The warm mixes: three quarters cheap, one quarter heavy, so p50 falls
#: inside the cheap class and p90 inside the heavy one.
CHEAP_SPECS = (
    ("triangle", "node"),
    ("triangle", "edge"),
    ("2-triangle", "node"),
    ("2-triangle", "edge"),
)
HEAVY_SPEC = ("2-star", "edge")
WARM_SPECS = CHEAP_SPECS + (HEAVY_SPEC,)
#: Seed of the warm mixes' (spec, noise seed) pool.
MIX_POOL_SEED = 8000


def exact_count(graph, query: str) -> int:
    """The independent occurrence count a prepared query must match."""
    if query == "triangle":
        return count_triangles(graph)
    if query == "2-star":
        return count_k_stars(graph, 2)
    if query == "2-triangle":
        return count_k_triangles(graph, 2)
    raise ValueError(f"no independent count for {query!r}")


@dataclass
class OpResult:
    """One timed op: client-observed seconds, the released answer (or the
    update's version), and why it failed (``None`` when it did not)."""

    kind: str
    seconds: float
    answer: Optional[float]
    failure: Optional[str] = None


def _release_result(seconds, answer, cache_hit, version, op) -> OpResult:
    """A release's result, failed unless it matches the op list."""
    failure = None
    answer = None if answer is None else float(answer)
    if answer is None or not math.isfinite(answer):
        failure = f"answer {answer!r} is not finite"
    elif cache_hit != op["hit"]:
        failure = f"cache_hit {cache_hit!r}, op list predicts {op['hit']!r}"
    elif version != op["version"]:
        failure = f"version {version!r}, op list predicts {op['version']!r}"
    return OpResult("release", seconds, answer, failure)


def _seeds(rng, count):
    return [int(value) for value in rng.integers(0, 2**31 - 1, size=count)]


def _mixed_ops(rng, count):
    """``count`` warm releases: exactly a quarter heavy, the rest cycling
    through the cheap specs, in an order and with tenants drawn from
    ``rng``.

    The (spec, noise seed) pairs come from a fixed pool, so every seed
    releases the same multiset and only the order and tenants change.  A
    warm release pays for the H entries its noise lands on that no
    earlier release needed, so noise seeds drawn per run changed the LP
    work of a run (13 vs 18 H batches in 741 releases).
    """
    heavy = count // 4
    specs = [HEAVY_SPEC] * heavy + [
        CHEAP_SPECS[i % len(CHEAP_SPECS)] for i in range(count - heavy)
    ]
    seeds = _seeds(np.random.default_rng(MIX_POOL_SEED), count)
    order = rng.permutation(count).tolist()
    tenants = rng.integers(0, len(TENANTS), size=count).tolist()
    return [
        {
            "kind": "release",
            "query": specs[j][0],
            "privacy": specs[j][1],
            "user": TENANTS[t],
            "seed": seeds[j],
            "hit": True,
            "version": None,
        }
        for j, t in zip(order, tenants)
    ]


def _count_problems(session, specs, graph) -> List[str]:
    """Each spec's prepared count against the independent count."""
    problems = []
    for query, privacy in specs:
        true = session.prepared(query, privacy=privacy).true_answer
        expected = exact_count(graph, query)
        if true != expected:
            problems.append(
                f"{query}/{privacy}: prepared count {true}, "
                f"independent count {expected}"
            )
    return problems


def _warm_problems(state, results) -> List[str]:
    """The warm mixes' post-run checks: counts and the ledger."""
    session = state["session"]
    granted = sum(result.answer is not None for result in results)
    problems = _count_problems(session, WARM_SPECS, session.data)
    return problems + _ledger_problems(session, granted + state["warmups"])


def _ledger_problems(session, granted: int) -> List[str]:
    """The ledger's ε total must equal the ε the granted releases spent."""
    expected = math.fsum([EPSILON] * granted)
    spent = math.fsum(e.epsilon for e in session.ledger if e.status == "released")
    if spent == expected and session.spent == expected:
        return []
    return [f"ledger spent {spent!r} (session {session.spent!r}), granted {expected!r}"]


def _cache_work(session) -> dict:
    info = session.cache_info()
    return {
        "cache_hits": info.hits,
        "cache_misses": info.misses,
        "cache_entries": info.size,
    }


def _unlimited_session(graph, workers, cache=None) -> PrivateSession:
    return PrivateSession(
        graph,
        workers=workers,
        accountant=HierarchicalAccountant(None, default_user_budget=None),
        cache=cache,
    )


class Workload:
    """Interface every workload implements."""

    name = ""
    #: Whether pool workers add to ``peak_rss_mb``.
    has_children = False

    def make_inputs(self, seed: int, seconds: float) -> dict:
        """The datasets and the op list (``"ops"``); not timed."""
        raise NotImplementedError

    def setup(self, inputs, seed: int) -> dict:
        raise NotImplementedError

    def run(self, state, ops, recorder, first: int) -> List[OpResult]:
        """Run ``ops`` (the op list's slice from index ``first``) in order."""
        raise NotImplementedError

    def verify(self, state, ops, results) -> List[str]:
        raise NotImplementedError

    def work(self, state) -> dict:
        """Exact-work counts only this workload's state can report."""
        return _cache_work(state["session"])

    def service_metrics(self, state):
        """The server's metrics payload (``None`` without a service)."""
        return None

    def teardown(self, state) -> None:
        state["session"].close()


# -- cold-release ----------------------------------------------------------------
class ColdRelease(Workload):
    """Every release compiles: enumerate → encode → compile → Δ search → X."""

    name = "cold-release"
    #: (nodes, average degree) of the corpus graphs, cycled.  A narrow
    #: range keeps the 2-star class dense around p90: with 40-60 nodes its
    #: top third was a handful of releases on the largest graphs.
    SIZES = ((40, 5.0), (42, 5.5), (44, 6.0), (46, 5.0), (48, 5.5), (50, 6.0))
    CORPUS_SEED = 7000
    #: Measured mean wall seconds per corpus graph (six releases).
    SECONDS_PER_GRAPH = 0.5

    def make_inputs(self, seed, seconds):
        count = max(17, round(seconds / self.SECONDS_PER_GRAPH))
        graphs = [
            random_graph_with_avg_degree(
                *self.SIZES[i % len(self.SIZES)], rng=self.CORPUS_SEED + i
            )
            for i in range(count)
        ]
        rng = np.random.default_rng(seed)
        pairs = [(g, spec) for g in range(count) for spec in QUERY_SET]
        seeds = _seeds(rng, len(pairs))
        ops = [
            {
                "kind": "release",
                "graph": pairs[j][0],
                "query": pairs[j][1][0],
                "privacy": pairs[j][1][1],
                "seed": s,
                "hit": False,
                "version": None,
            }
            for j, s in zip(rng.permutation(len(pairs)).tolist(), seeds)
        ]
        return {"graphs": graphs, "ops": ops}

    def setup(self, inputs, seed):
        # Warm the interpreter, NumPy/SciPy and HiGHS on a throwaway graph.
        with PrivateSession(random_graph_with_avg_degree(30, 5.0, rng=1)) as warm:
            for query, privacy in QUERY_SET:
                warm.query(query, privacy=privacy, epsilon=EPSILON, rng=1)
        sessions = [PrivateSession(graph, workers=1) for graph in inputs["graphs"]]
        return {"sessions": sessions, "true": {}}

    def run(self, state, ops, recorder, first):
        results = []
        for index, op in enumerate(ops, start=first):
            session = state["sessions"][op["graph"]]
            try:
                with recorder.op("release", index):
                    start = time.perf_counter()
                    result = session.query(
                        op["query"],
                        privacy=op["privacy"],
                        epsilon=EPSILON,
                        rng=op["seed"],
                    )
                    seconds = time.perf_counter() - start
            except Exception as error:  # an op that raised is a failed op
                results.append(OpResult("release", 0.0, None, repr(error)))
                continue
            key = (op["graph"], op["query"], op["privacy"])
            state["true"][key] = result.true_answer
            hit = session.ledger[-1].cache_hit
            results.append(_release_result(seconds, result.answer, hit, None, op))
        return results

    def verify(self, state, ops, results):
        problems = []
        for (g, query, privacy), true in sorted(state["true"].items()):
            expected = exact_count(state["sessions"][g].data, query)
            if true != expected:
                problems.append(
                    f"graph {g} {query}/{privacy}: prepared count {true}, "
                    f"independent count {expected}"
                )
        granted = [0] * len(state["sessions"])
        for op, result in zip(ops, results):
            if result.answer is not None:
                granted[op["graph"]] += 1
        for session, count in zip(state["sessions"], granted):
            problems.extend(_ledger_problems(session, count))
        return problems

    def work(self, state):
        rows = [_cache_work(session) for session in state["sessions"]]
        return {key: sum(row[key] for row in rows) for key in rows[0]}

    def teardown(self, state):
        for session in state["sessions"]:
            session.close()


# -- warm-wire -------------------------------------------------------------------
class _Served(Workload):
    """Shared plumbing: one session behind a ServiceRouter on its loop thread."""

    def _serve(self, session, seed, updates=False) -> dict:
        router = ServiceRouter(seed=seed, name="perfbench")
        router.add_dataset(
            "bench",
            session,
            updates=updates,
            writer_token=WRITER_TOKEN if updates else None,
        )
        service = BackgroundService(router)
        service.start()
        client = ServiceClient(service.address, dataset="bench").connect()
        return {"session": session, "service": service, "client": client}

    def _release(self, client, op, index, recorder) -> OpResult:
        try:
            with recorder.op("release", index):
                start = time.perf_counter()
                frame = client.query(
                    op["query"],
                    epsilon=EPSILON,
                    privacy=op["privacy"],
                    user=op["user"],
                    seed=op["seed"],
                )
                seconds = time.perf_counter() - start
        except Exception as error:  # an op that raised is a failed op
            return OpResult("release", 0.0, None, repr(error))
        return _release_result(
            seconds, frame["answer"], frame["cache_hit"], frame["version"], op
        )

    def service_metrics(self, state):
        return state["client"].metrics()

    def teardown(self, state):
        state["client"].close()
        state["service"].stop()
        state["session"].close()


class WarmWire(_Served):
    """Warm releases over the wire: cache hits, no Δ search, one X LP each."""

    name = "warm-wire"
    #: (nodes, average degree, generator seed) of the served graph.
    GRAPH = (200, 6.0, 1)
    #: Measured mean wall seconds per release of the mix.
    SECONDS_PER_OP = 0.0135

    def make_inputs(self, seed, seconds):
        n, degree, graph_seed = self.GRAPH
        count = max(100, round(seconds / self.SECONDS_PER_OP))
        return {
            "graph": random_graph_with_avg_degree(n, degree, rng=graph_seed),
            "ops": _mixed_ops(np.random.default_rng(seed), count),
        }

    def setup(self, inputs, seed):
        session = _unlimited_session(inputs["graph"], 1, SharedCompiledCache())
        state = self._serve(session, seed)
        # Warm every spec: Δ search, first H entries and the X model are
        # built here, never in the timed phase.
        for round_index in range(2):
            for query, privacy in WARM_SPECS:
                state["client"].query(
                    query,
                    epsilon=EPSILON,
                    privacy=privacy,
                    user="warmup",
                    seed=round_index,
                )
        state["warmups"] = 2 * len(WARM_SPECS)
        return state

    def run(self, state, ops, recorder, first):
        client = state["client"]
        return [
            self._release(client, op, index, recorder)
            for index, op in enumerate(ops, start=first)
        ]

    def verify(self, state, ops, results):
        return _warm_problems(state, results)


# -- live-updates ----------------------------------------------------------------
class LiveUpdates(_Served):
    """Wire updates beside reads at each new version."""

    name = "live-updates"
    #: (nodes, average degree, generator seed) of the base graph.
    GRAPH = (2000, 8.0, 3)
    TOGGLES = 4
    UPDATES_PER_ROUND = 2
    #: Per round after its updates: two misses at the new version, then a
    #: re-read that hits — three equal classes, so p50 sits mid-class.
    READS = (("node", False), ("edge", False), ("edge", True))
    #: Measured mean wall seconds per round.
    SECONDS_PER_ROUND = 0.157
    #: Setup toggles one edge off and on again: version 2, same graph.
    WARM_VERSION = 2

    def make_inputs(self, seed, seconds):
        n, degree, graph_seed = self.GRAPH
        graph = random_graph_with_avg_degree(n, degree, rng=graph_seed)
        rounds = max(50, round(seconds / self.SECONDS_PER_ROUND))
        rng = np.random.default_rng(seed)
        # The live edge set, as a list plus positions for O(1) removal.
        edges = [tuple(sorted(edge)) for edge in graph.edges()]
        where = {edge: i for i, edge in enumerate(edges)}

        def toggle():
            if rng.random() < 0.5:
                edge = edges[int(rng.integers(len(edges)))]
                last = edges.pop()
                if last != edge:
                    edges[where[edge]] = last
                    where[last] = where[edge]
                del where[edge]
                return {"action": "remove_edge", "u": edge[0], "v": edge[1]}
            while True:
                u, v = sorted(int(x) for x in rng.integers(n, size=2))
                if u != v and (u, v) not in where:
                    break
            where[(u, v)] = len(edges)
            edges.append((u, v))
            return {"action": "add_edge", "u": u, "v": v}

        ops = []
        version = self.WARM_VERSION
        for _ in range(rounds):
            for _ in range(self.UPDATES_PER_ROUND):
                actions = [toggle() for _ in range(self.TOGGLES)]
                version += self.TOGGLES
                ops.append({"kind": "update", "actions": actions, "version": version})
            for privacy, hit in self.READS:
                ops.append(
                    {
                        "kind": "release",
                        "query": "triangle",
                        "privacy": privacy,
                        "user": TENANTS[int(rng.integers(len(TENANTS)))],
                        "seed": int(rng.integers(0, 2**31 - 1)),
                        "hit": hit,
                        "version": version,
                    }
                )
        return {"graph": graph, "ops": ops}

    def setup(self, inputs, seed):
        graph = VersionedGraph(inputs["graph"])
        session = _unlimited_session(graph, 1, SharedCompiledCache())
        state = self._serve(session, seed, updates=True)
        client = state["client"]
        # Warm the read path at version 0 and the update path with a
        # toggle that leaves the graph as it was.
        u, v = min(tuple(sorted(edge)) for edge in inputs["graph"].edges())
        for round_index, action in enumerate(("remove_edge", "add_edge")):
            for privacy in ("node", "edge"):
                client.query(
                    "triangle",
                    epsilon=EPSILON,
                    privacy=privacy,
                    user="warmup",
                    seed=round_index,
                )
            client.update([{"action": action, "u": u, "v": v}], token=WRITER_TOKEN)
        state.update(warmups=4, true={}, probes=0)
        return state

    def run(self, state, ops, recorder, first):
        client = state["client"]
        session = state["session"]
        results = []
        for index, op in enumerate(ops, start=first):
            if op["kind"] == "release":
                results.append(self._release(client, op, index, recorder))
                if op["hit"]:
                    # Between rounds, with the server idle: keep this
                    # version's prepared counts for the post-run check
                    # (cache hits, subtracted in work()).
                    for privacy in ("node", "edge"):
                        prepared = session.prepared("triangle", privacy=privacy)
                        state["true"][(op["version"], privacy)] = prepared.true_answer
                        state["probes"] += 1
                continue
            try:
                with recorder.op("update", index):
                    start = time.perf_counter()
                    frame = client.update(op["actions"], token=WRITER_TOKEN)
                    seconds = time.perf_counter() - start
            except Exception as error:  # an op that raised is a failed op
                results.append(OpResult("update", 0.0, None, repr(error)))
                continue
            failure = None
            if frame["version"] != op["version"]:
                failure = (
                    f"update reached version {frame['version']!r}, "
                    f"op list predicts {op['version']!r}"
                )
            results.append(OpResult("update", seconds, frame["version"], failure))
        return results

    def verify(self, state, ops, results):
        session = state["session"]
        graph = session.data
        problems = []
        if not graph.maintainer.verify():
            problems.append("maintained occurrences differ from a fresh enumeration")
        wanted = {version for version, _ in state["true"]}
        replay = graph.at_version(0)
        counts = {}
        for version, delta in enumerate(graph.log, start=1):
            delta.apply_to(replay)
            if version in wanted:
                counts[version] = count_triangles(replay)
        for (version, privacy), true in sorted(state["true"].items()):
            if true != counts[version]:
                problems.append(
                    f"v{version} triangle/{privacy}: prepared count {true}, "
                    f"independent count {counts[version]}"
                )
        granted = sum(r.kind == "release" and r.answer is not None for r in results)
        problems.extend(_ledger_problems(session, granted + state["warmups"]))
        return problems

    def work(self, state):
        (row,) = state["session"].maintenance_info()
        work = _cache_work(state["session"])
        work["cache_hits"] -= state["probes"]
        work.update(
            maintenance_deltas=row["deltas_applied"],
            maintenance_rebuilds=row["rebuilds"],
            ball_last=row["ball_last"],
            ball_max=row["ball_max"],
            store_index_rebuilds=row["store_index_rebuilds"],
            store_tombstones=row["store_rows"] - row["store_alive"],
        )
        return work


# -- pool-fanout -----------------------------------------------------------------
class PoolFanout(Workload):
    """The warm-wire mix through ``PrivateSession.submit`` on a fork pool."""

    name = "pool-fanout"
    has_children = True
    GRAPH = WarmWire.GRAPH
    IN_FLIGHT = 2
    #: Measured mean wall seconds per release of the mix.
    SECONDS_PER_OP = 0.0056
    make_inputs = WarmWire.make_inputs

    def setup(self, inputs, seed):
        session = _unlimited_session(inputs["graph"], 2)
        # Warm every spec in the parent before the pool forks, so workers
        # inherit the finished Δ search; then let the workers build their
        # own solver models.
        for query, privacy in WARM_SPECS:
            session.query(query, privacy=privacy, epsilon=EPSILON, user="warmup", rng=0)
        for round_index in range(2):
            for query, privacy in WARM_SPECS:
                futures = [
                    session.submit(
                        query,
                        privacy=privacy,
                        epsilon=EPSILON,
                        user="warmup",
                        rng=round_index * self.IN_FLIGHT + k,
                    )
                    for k in range(self.IN_FLIGHT)
                ]
                for future in futures:
                    future.result(timeout=120)
        warmups = len(WARM_SPECS) * (1 + 2 * self.IN_FLIGHT)
        return {"session": session, "warmups": warmups}

    def run(self, state, ops, recorder, first):
        """``IN_FLIGHT`` client threads, each a closed loop over the next op."""
        session = state["session"]
        results: List[Optional[OpResult]] = [None] * len(ops)
        lock = threading.Lock()
        cursor = iter(range(len(ops)))

        def client():
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                op = ops[index]
                try:
                    with recorder.op("release", first + index):
                        start = time.perf_counter()
                        with lock:
                            future = session.submit(
                                op["query"],
                                privacy=op["privacy"],
                                epsilon=EPSILON,
                                user=op["user"],
                                rng=op["seed"],
                            )
                        answer = future.result(timeout=120).answer
                        seconds = time.perf_counter() - start
                except Exception as error:  # an op that raised is a failed op
                    results[index] = OpResult("release", 0.0, None, repr(error))
                    continue
                hit = future.entry.cache_hit
                results[index] = _release_result(seconds, answer, hit, None, op)

        threads = [threading.Thread(target=client) for _ in range(self.IN_FLIGHT)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results

    def verify(self, state, ops, results):
        return _warm_problems(state, results)


WORKLOADS = {
    workload.name: workload
    for workload in (ColdRelease(), WarmWire(), LiveUpdates(), PoolFanout())
}
