//! The metrics the benchmark reports, mirrored in `BENCHMARK.json`.

/// An end-to-end metric: what a user of `fro` waits for or pays. Times
/// and rates are scaled to the reference host speed
/// ([`crate::util::speed_factors`]).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str) -> EndToEnd {
    EndToEnd { name, unit }
}

pub const END_TO_END: &[EndToEnd] = &[
    // A read from call to last row (for text_remote, to the `Done`
    // frame; for star_htap, prepare plus run).
    e2e("query_p50_ms", "ms"),
    e2e("query_p90_ms", "ms"),
    // Reads per second of time spent inside calls (the benchmark's own
    // output checks are excluded).
    e2e("queries_per_s", "1/s"),
    // Generate and load the data, register views, start the server,
    // one warm pass; median of several set-ups.
    e2e("setup_s", "s"),
    // VmHWM at the end of the run.
    e2e("peak_rss_mb", "MB"),
];

/// A per-layer metric from the traced run, with the end-to-end metrics
/// and workloads it should move. Times are per-call medians of self
/// time; counts are means per operation unless noted. A layer that a
/// workload bypasses reports 0 there.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit, moves }
}

const TEXT_READS: &str =
    "query_p50_ms, queries_per_s on text_local and text_remote; no change on star_htap";
const OPT: &str =
    "query_p50_ms on star_htap (every prepare misses); no change on text_* (every lookup hits)";
const EXEC: &str = "query_p50_ms on all three workloads, most on star_htap";
const STORAGE: &str =
    "append/delete/fresh latency, queries_per_s and peak_rss_mb on star_htap; no change on text_*";
const STANDING: &str = "fresh latency and queries_per_s on star_htap; no change on text_*";
const WIRE: &str = "query_* and queries_per_s on text_remote only";

pub const PER_LAYER: &[PerLayer] = &[
    layer("lang.parse_ms", "ms", TEXT_READS),
    layer("lang.translate_ms", "ms", TEXT_READS),
    // Rows in `TranslatedBlock.database`, per query.
    layer("lang.ground_rows", "count", TEXT_READS),
    layer("session.query_ms", "ms", TEXT_READS),
    // `Session::query` minus the replayed parse, translate and optimize.
    layer("session.sync_ms", "ms", TEXT_READS),
    layer("optimizer.optimize_ms", "ms", OPT),
    // Plan-cache hits over lookups, over the whole traced phase.
    layer("optimizer.cache_hit_ratio", "ratio", OPT),
    layer("optimizer.cache_stale", "count", OPT),
    layer("optimizer.pairs_examined", "count", OPT),
    // Semijoin wraps applied per plan.
    layer("optimizer.reduce_applied", "count", OPT),
    layer("exec.run_ms", "ms", EXEC),
    layer("exec.tuples_retrieved", "count", EXEC),
    layer("exec.comparisons", "count", EXEC),
    layer("exec.hash_build_rows", "count", EXEC),
    layer("exec.rows_materialized", "count", EXEC),
    layer("exec.rows_pipelined", "count", EXEC),
    layer("exec.rows_reduced", "count", EXEC),
    layer("exec.rows_output", "count", EXEC),
    layer("exec.morsels_skipped", "count", EXEC),
    // `Session::append_rows`, including the standing view's delta fold.
    layer("storage.append_ms", "ms", STORAGE),
    layer("storage.delete_ms", "ms", STORAGE),
    // Rows in every stored table at the end of the run.
    layer("storage.rows_stored", "count", STORAGE),
    // RSS growth during load divided by stored rows.
    layer("storage.bytes_per_row", "B", STORAGE),
    layer("standing.poll_ms", "ms", STANDING),
    // View cardinality at the end of the run.
    layer("standing.view_rows", "count", STANDING),
    // Maintenance work per step (appends, deletes and polls).
    layer("standing.delta_rows_in", "count", STANDING),
    layer("standing.delta_rows_out", "count", STANDING),
    layer("standing.views_refreshed", "count", STANDING),
    // `encode_response` / `decode_response` over a result's frames.
    layer("wire.encode_ms", "ms", WIRE),
    layer("wire.decode_ms", "ms", WIRE),
    layer("wire.bytes_per_row", "B", WIRE),
    layer("wire.frames", "count", WIRE),
    // Remote round trip minus local query-plus-run of the same source.
    layer("server.overhead_ms", "ms", WIRE),
    // Traced query_p50_ms minus untraced query_p50_ms, same run.
    layer(
        "trace.overhead_ms",
        "ms",
        "nothing: the cost of the traced run itself",
    ),
];

/// The unit of a metric, by name.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}
