"""Per-layer metrics of a traced run, derived from the span dumps, the
server's counters and the generator's samples.

Layer = module.  Times are medians over the measured window unless the
name says otherwise; ``*_share`` is a layer's self time as a share of
the window's wall time (repository self time includes waiting for the
engine lock, so under two busy connections the shares can sum past 1;
``trace.untraced_share`` is what is left: event loop, socket, decode,
idle).  Metrics with no meaning on a workload are reported as 0.
"""

from __future__ import annotations

import math
import statistics
from typing import Any

from config import READ_MIX
from tracing import VIEWS, SpanTable, percentile


def per_layer_metrics(
    *,
    window: Any,
    stream: Any,
    boundary: int,
    serving: dict[str, Any],
    recovery: dict[str, Any],
    build_phases: list[dict[str, float]],
    recover_phases: dict[str, float],
    edges: int,
    log_bytes: int,
    final: dict[str, Any],
    fsync_us: float,
    shardexec: dict[str, float],
) -> dict[str, tuple[float, str]]:
    spans = SpanTable(serving, window.before["now"], window.after["now"])
    whole = SpanTable(serving, -math.inf, math.inf)
    before, after = window.before, window.after
    batches = max(1, window.batches)
    updates = max(1, window.updates)
    metrics: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = (float(value), unit)

    def p50(name: str) -> float:
        return percentile(spans.durations_ms(name), 0.50)

    self_seconds = spans.layer_self_seconds()

    def share(layer: str) -> float:
        return self_seconds.get(layer, 0.0) / spans.wall

    def build_median(key: str) -> float:
        return statistics.median(phases.get(key, 0.0) for phases in build_phases)

    # -- serving.frontend ------------------------------------------------
    # the k-th Repository.read span is the k-th read the generator sent
    # (one closed-loop reader); the set-up's verification reads lead
    read_spans = sorted(whole.by_name["Repository.read"], key=lambda row: row[2])
    offset = len(READ_MIX) + window.reads_before
    matched = read_spans[offset : offset + len(window.reads)]
    overhead = [
        sample[1] * 1e3 - whole.duration(row) * 1e3
        for sample, row in zip(window.reads, matched)
    ]
    encode_p50 = p50("frontend.jsonable")
    overhead_p50 = percentile(overhead, 0.50)
    put("frontend.encode_ms_p50", encode_p50, "ms")
    put("frontend.overhead_ms_p50", overhead_p50, "ms")
    put("frontend.decode_ms_p50", overhead_p50 - encode_p50, "ms")
    put(
        "frontend.bytes_out_per_read",
        statistics.fmean(row[4] for row in window.reads) if window.reads else 0.0,
        "bytes",
    )
    put("frontend.self_share", share("frontend"), "share")
    put("frontend.shed_count", after["shed"] - before["shed"], "count")

    # -- serving.repository ----------------------------------------------
    cache = window.cache
    put(
        "repository.cache_hit_rate",
        cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "share",
    )
    hits: list[float] = []
    misses: list[float] = []
    for row in spans.by_name["Repository.read"]:
        computed = any(
            child[1].startswith("query.") for child in spans.children[row[0]]
        )
        (misses if computed else hits).append(spans.duration(row) * 1e3)
    put("repository.read_hit_ms_p50", percentile(hits, 0.50), "ms")
    put("repository.read_miss_ms_p50", percentile(misses, 0.50), "ms")
    freeze: list[float] = []
    stalls: list[float] = []
    for row in spans.by_name["Repository.apply"]:
        inner = spans.child(row, "Engine.apply")
        if inner is not None:
            freeze.append((spans.duration(row) - spans.duration(inner)) * 1e3)
        if spans.has_descendant(row, "SnapshotStore.save"):
            stalls.append(spans.duration(row) * 1e3)
    put("repository.freeze_ms_p50", percentile(freeze, 0.50), "ms")
    put("repository.invalidations_per_batch", cache["invalidations"] / batches, "count")
    put("repository.admit_ms_p50", p50("Repository.session"), "ms")
    put("repository.self_share", share("repository"), "share")

    # -- engine.session / engine.scheduler -------------------------------
    put("engine.apply_ms_p50", p50("Engine.apply"), "ms")
    put("engine.self_share", share("engine"), "share")
    put("scheduler.partition_ms_p50", p50("FanOutScheduler.partition"), "ms")
    put("scheduler.dispatch_ms_p50", p50("FanOutScheduler.dispatch"), "ms")
    routed, skipped, delivered = window.routing
    put("scheduler.skipped_batch_share", skipped / max(1, routed + skipped), "share")
    put(
        "scheduler.delivered_per_update",
        delivered / updates,
        "count",
    )

    # -- the views -------------------------------------------------------
    for view in VIEWS:
        absorb = f"view.{view}.absorb"
        put(f"view.{view}.absorb_ms_p50", p50(absorb), "ms")
        put(
            f"view.{view}.absorb_share",
            sum(spans.self_time(row) for row in spans.by_name[absorb]) / spans.wall,
            "share",
        )
        put(
            f"view.{view}.work_per_update",
            (after["view_work"][view] - before["view_work"][view]) / updates,
            "count",
        )
        queries = [
            duration
            for name in spans.by_name
            if name.startswith(f"query.{view}.")
            for duration in spans.durations_ms(name)
        ]
        put(f"view.{view}.query_ms_p50", percentile(queries, 0.50), "ms")
        put(f"view.{view}.build_s", build_median(f"view.{view}.build_s"), "s")

    # -- graph.sharding --------------------------------------------------
    put("sharding.route_ms_p50", p50("route_updates"), "ms")
    sent = [update for batch in stream.batches[: final["batches"]] for update in batch]
    by_shard = [0, 0]
    crossing = 0
    for _, source, target in sent:
        by_shard[source >= boundary] += 1
        crossing += (source >= boundary) != (target >= boundary)
    put("sharding.cross_shard_edge_share", crossing / max(1, len(sent)), "share")
    put("sharding.shard_skew", max(by_shard) / max(1.0, len(sent) / 2), "ratio")

    # -- persist.deltalog ------------------------------------------------
    appends = spans.durations_ms("SegmentedDeltaLog.append")
    put("deltalog.append_ms_p50", percentile(appends, 0.50), "ms")
    put("deltalog.append_ms_p95", percentile(appends, 0.95), "ms")
    # over the server's whole life, not the window: a window edge can
    # fall between an append and its fsync
    append_ids = {row[0] for row in whole.by_name["SegmentedDeltaLog.append"]}
    put(
        "deltalog.fsyncs_per_batch",
        sum(1 for row in whole.by_name["os.fsync"] if row[4] in append_ids)
        / max(1, len(append_ids)),
        "count",
    )
    put("deltalog.bytes_per_update", log_bytes / max(1, final["updates"]), "bytes")
    put(
        "deltalog.compact_s",
        sum(spans.durations_ms("SegmentedDeltaLog.compact")) / 1e3,
        "s",
    )
    put("deltalog.replay_s", recover_phases["replay_s"], "s")
    put("deltalog.share", share("deltalog"), "share")

    # -- persist.snapshot / persist.format -------------------------------
    put("snapshot.full_save_s", build_median("save_s"), "s")
    put("snapshot.incr_save_ms_p50", p50("SnapshotStore.save"), "ms")
    put("snapshot.write_stall_ms_p95", percentile(stalls, 0.95), "ms")
    put("snapshot.bytes_per_edge", build_median("snapshot_bytes") / edges, "bytes")
    put("snapshot.load_s", recover_phases["restore_s"], "s")
    loaded = SpanTable(recovery, -math.inf, math.inf)
    load_seconds = sum(loaded.durations_ms("SnapshotStore.load")) / 1e3
    parse_seconds = sum(
        loaded.self_time(row)
        for name in ("split_snapshot_sections", "expand_packed_lines")
        for row in loaded.by_name[name]
    )
    put("snapshot.parse_share", parse_seconds / max(load_seconds, 1e-9), "share")
    put("snapshot.share", share("snapshot"), "share")

    # -- shardexec (counts-only extra pass; see README) -------------------
    put("shardexec.fsyncs_per_batch", shardexec.get("fsyncs_per_batch", 0.0), "count")
    put("shardexec.seal_ms_p50", shardexec.get("seal_ms_p50", 0.0), "ms")

    # -- the interpreter ---------------------------------------------------
    full = spans.durations_ms("gc.gen2")
    put("runtime.gc_gen2_per_s", len(full) / spans.wall, "1/s")
    put("runtime.gc_gen2_pause_ms_p50", percentile(full, 0.50), "ms")
    put(
        "runtime.gc_pause_share",
        sum(
            sum(spans.durations_ms(f"gc.gen{generation}")) for generation in range(3)
        )
        / 1e3
        / spans.wall,
        "share",
    )

    # -- generator / trace ------------------------------------------------
    put("client.read_p95_ms", percentile(window.read_ms, 0.95), "ms")
    put("client.read_p99_ms", percentile(window.read_ms, 0.99), "ms")
    put("client.write_mean_ms", statistics.fmean(window.write_ms), "ms")
    put("client.write_p95_ms", percentile(window.write_ms, 0.95), "ms")
    put("client.write_p99_ms", percentile(window.write_ms, 0.99), "ms")
    for view, query, _ in READ_MIX:
        put(
            f"client.read_ms_p50.{view}.{query}",
            percentile(
                [row[1] * 1e3 for row in window.reads if row[2:4] == (view, query)],
                0.50,
            ),
            "ms",
        )
    put("client.open_ms_p50", percentile([row[1] * 1e3 for row in window.opens], 0.5), "ms")
    put(
        "client.generator_lag_ms_p95",
        percentile([row[2] * 1e3 for row in window.writes], 0.95),
        "ms",
    )
    put("client.backlog_max", window.backlog_max, "count")
    put(
        "trace.span_cost_share",
        len(spans.rows) * spans.per_span_us / 1e6 / spans.wall,
        "share",
    )
    put(
        "trace.untraced_share",
        1.0 - sum(self_seconds.values()) / spans.wall,
        "share",
    )
    put("probe.fsync_us", fsync_us, "us")
    return metrics
