"""Per-layer metrics of a traced run, derived from its spans.

Times are mean milliseconds per release (per update for the update
metrics); counts are totals over the timed phase.  A layer that is not on
a workload's path reports 0.
"""

from measure import mean, percentile, registry_delta

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER = (
    ("service.wire_ms", "ms"),
    ("service.server_ms", "ms"),
    ("service.admission_wait_ms", "ms"),
    ("service.update_ms", "ms"),
    ("service.update_rtt_p50_ms", "ms"),
    ("service.update_rtt_p90_ms", "ms"),
    ("session.overhead_ms", "ms"),
    ("session.budget_ms", "ms"),
    ("session.cache_hit_ratio", "ratio"),
    ("session.cache_entries", "count"),
    ("mechanisms.prepare_ms", "ms"),
    ("mechanisms.release_ms", "ms"),
    ("subgraphs.enumerate_ms", "ms"),
    ("subgraphs.occurrences", "count"),
    ("relax.encode_ms", "ms"),
    ("relax.x_ms", "ms"),
    ("lp.compile_ms", "ms"),
    ("lp.g_decide_calls", "count"),
    ("lp.g_decide_ms", "ms"),
    ("lp.x_calls", "count"),
    ("lp.x_ms", "ms"),
    ("lp.h_calls", "count"),
    ("lp.h_ms", "ms"),
    ("lp.iterations", "count"),
    ("core.delta_search_ms", "ms"),
    ("core.g_probes", "count"),
    ("core.g_probe_lp_ratio", "ratio"),
    ("core.x_step_ms", "ms"),
    ("dynamic.apply_ms", "ms"),
    ("dynamic.ball_nodes", "count"),
    ("dynamic.rebuilds", "count"),
    ("store.relation_ms", "ms"),
    ("store.index_rebuilds", "count"),
    ("store.tombstones", "count"),
    ("parallel.dispatch_ms", "ms"),
    ("parallel.tasks", "count"),
    ("parallel.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("machine.calib_ms", "ms"),
)


def layer_metrics(recorder, traced, untraced, calib_ms):
    """Every :data:`PER_LAYER` value from the traced phase's spans, its
    registry and service deltas, and the untraced phase of the same run."""
    table = recorder.aggregate()

    def total(name):
        return table[name]["seconds"] if name in table else 0.0

    def self_time(name):
        return table[name]["self"] if name in table else 0.0

    def calls(name):
        return table[name]["count"] if name in table else 0

    ok = traced.ok_ops()
    releases = [r.seconds for _, r in ok if r.kind == "release"]
    n_releases = len(releases) or 1
    n_updates = sum(r.kind == "update" for _, r in ok) or 1

    def per_release(seconds):
        return 1e3 * seconds / n_releases

    def registry(name, **labels):
        return registry_delta(
            traced.registry_before, traced.registry_after, name, **labels
        )

    def server_mean_ms(name):
        count, seconds = registry_delta(
            traced.service_before, traced.service_after, name
        )
        return 1e3 * seconds / count if count else 0.0

    metrics = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)

    # service: client latency minus the server-side submit span, per request
    if traced.service_before is not None:
        submit = recorder.per_trace("session.submit")
        wire = [
            r.seconds - submit[i]
            for i, r in ok
            if r.kind == "release" and i in submit
        ]
        metrics["service.wire_ms"] = 1e3 * mean(wire)
        metrics["service.server_ms"] = server_mean_ms("repro_query_seconds")
        metrics["service.admission_wait_ms"] = server_mean_ms(
            "repro_admission_wait_seconds"
        )
    if calls("session.apply_update"):
        metrics["service.update_ms"] = 1e3 * total("session.apply_update") / n_updates
    updates = [r.seconds for _, r in untraced.ok_ops() if r.kind == "update"]
    if updates:
        metrics["service.update_rtt_p50_ms"] = 1e3 * percentile(updates, 0.5)
        metrics["service.update_rtt_p90_ms"] = 1e3 * percentile(updates, 0.9)

    # session
    metrics["session.overhead_ms"] = per_release(
        self_time("session.query") + self_time("session.submit")
    )
    metrics["session.budget_ms"] = per_release(
        total("session.reserve") + total("session.commit")
    )
    hits = traced.work_delta.get("cache_hits", 0)
    looked_up = hits + traced.work_delta.get("cache_misses", 0)
    metrics["session.cache_hit_ratio"] = hits / looked_up if looked_up else 0.0
    metrics["session.cache_entries"] = traced.work.get("cache_entries", 0)

    # mechanisms, subgraphs, relax
    metrics["mechanisms.prepare_ms"] = per_release(total("mechanisms.prepare"))
    metrics["mechanisms.release_ms"] = per_release(total("mechanisms.release"))
    metrics["subgraphs.enumerate_ms"] = per_release(total("subgraphs.enumerate"))
    if "subgraphs.enumerate" in table:
        metrics["subgraphs.occurrences"] = table["subgraphs.enumerate"]["size"]
    metrics["relax.encode_ms"] = per_release(self_time("relax.encode"))
    metrics["relax.x_ms"] = per_release(total("relax.x"))

    # lp
    metrics["lp.compile_ms"] = per_release(total("lp.compile"))
    metrics["lp.g_decide_calls"] = calls("lp.g_decide")
    metrics["lp.g_decide_ms"] = per_release(total("lp.g_decide"))
    metrics["lp.x_calls"] = calls("lp.x")
    metrics["lp.x_ms"] = per_release(total("lp.x"))
    metrics["lp.h_calls"] = calls("lp.h") + calls("lp.many")
    metrics["lp.h_ms"] = per_release(
        total("lp.h") - recorder.nested_seconds("lp.h", "lp.many") + total("lp.many")
    )
    metrics["lp.iterations"] = registry("repro_lp_iterations")[1]

    # core
    metrics["core.delta_search_ms"] = per_release(total("core.delta_search"))
    metrics["core.g_probes"] = calls("core.g_probe")
    if calls("core.g_probe"):
        metrics["core.g_probe_lp_ratio"] = calls("lp.g_decide") / calls("core.g_probe")
    metrics["core.x_step_ms"] = per_release(total("core.h_entries") + total("relax.x"))

    # dynamic, store
    if calls("dynamic.apply"):
        metrics["dynamic.apply_ms"] = 1e3 * total("dynamic.apply") / n_updates
    metrics["dynamic.ball_nodes"] = traced.work.get("ball_max", 0)
    metrics["dynamic.rebuilds"] = traced.work_delta.get("maintenance_rebuilds", 0)
    metrics["store.relation_ms"] = per_release(total("store.relation"))
    metrics["store.index_rebuilds"] = traced.work_delta.get("store_index_rebuilds", 0)
    metrics["store.tombstones"] = traced.work.get("store_tombstones", 0)

    # parallel: releases run in the workers, whose release and LP metrics
    # reach the parent merged into its registry
    tasks = registry("repro_pool_tasks_total")[0]
    if tasks:
        metrics["parallel.tasks"] = tasks
        metrics["parallel.dispatch_ms"] = per_release(total("parallel.dispatch"))
        count, seconds = registry("repro_release_seconds")
        worker_release = seconds / count if count else 0.0
        metrics["mechanisms.release_ms"] = 1e3 * worker_release
        metrics["parallel.overhead_ms"] = 1e3 * (mean(releases) - worker_release)
        for kind in ("x", "h"):
            count, seconds = registry("repro_lp_solve_seconds", overlay=kind)
            metrics[f"lp.{kind}_calls"] = count
            metrics[f"lp.{kind}_ms"] = per_release(seconds)

    untraced_rate = untraced.releases_per_s()
    if untraced_rate:
        slowdown = untraced_rate - traced.releases_per_s()
        metrics["trace.overhead_pct"] = 100.0 * slowdown / untraced_rate
    metrics["machine.calib_ms"] = calib_ms
    return metrics
