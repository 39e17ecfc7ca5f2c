"""What the benchmark measures: workloads, metric names and units, the
query mix, and sizes. ``BENCHMARK.json`` lists the same names."""

from __future__ import annotations

WORKLOADS = ("flagship", "queries")

# Ray logical CPUs. At 1, ``concept_adwin_events`` deadlocks: its
# concurrency=1 actor holds the only slot and its read never schedules.
NUM_CPUS = 2
OBJECT_STORE_BYTES = 256 * 1024 * 1024
SETUP_REPEATS = 3          # setup_s is the median of this many set-ups
OP_TIMEOUT_S = 60.0        # one operation past this counts as failed
RUN_DEADLINE_S = 110.0     # no new pass starts after this many seconds
HARD_DEADLINE_S = 165.0    # every op is cut by then, so a run ends in 180 s

# flagship windows: rows per window and rows per shard (= partition)
WINDOW_ROWS = 1024
ROWS_PER_SHARD = 256
PROD_VIOLATION_RATE = 0.02
REPLAY_SHARDS = 2          # shards per window replayed in-process when traced

# query workload scale factors: the timed size, and the second size the
# traced run uses to split each query's fixed cost from its per-row cost
QUERY_SF = 0.01
QUERY_SF_BIG = 0.03

# fixed-order mix; value = the table whose row count is the query's input
# size for the fixed/per-row fit
QUERY_MIX = {
    "q1_pricing_summary": "lineitem",
    "events_by_type": "events",
    "distinct_users_per_type": "events",
    "profile_lineitem": "lineitem",
    "psi_events_value": "events",
    "ks_events_value": "events",
    "chi2_events_type": "events",
    "minhash_dedup_docs": "documents",
    "doc_token_stats": "documents",
    "ann_topk_embeddings": "embeddings",
    "concept_adwin_events": "events",
    "exact_dup_docs": "documents",
    "tpch_q5_region_revenue": "lineitem",
    "monthly_customer_retention": "orders",
    "quote_ratio_docs": "documents",
    "kupiec_var_backtest": "events",
    "image_pixel_fidelity_audit": "documents",
    "kll_quantile_audit": "events",
}

# (name, unit, better, bound). A "unit" of a workload is one flagship
# pass or one pass of the query mix; an "op" is one call it makes.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("rows_per_s", "rows/s", "higher", 0.25),
    ("op_geomean_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_ops_ratio", "ratio", "higher", 0.02),
)

# (name, unit, better); a layer a workload does not run reads 0
PER_LAYER = (
    ("stages.validate.decode_us_per_row", "us", "lower"),
    ("stages.validate.scalar_us_per_row", "us", "lower"),
    ("stages.validate.cert_hit_ratio", "ratio", "higher"),
    ("synth.rerender_calls", "count", "lower"),
    ("synth.rerender_s", "s", "lower"),
    ("codecs.decode_s", "s", "lower"),
    ("codecs.phash_s", "s", "lower"),
    ("sources.reader.us_per_row", "us", "lower"),
    ("pipelines.flagship.writer_us_per_row", "us", "lower"),
    ("pipelines.flagship.run_validation_s", "s", "lower"),
    ("pipelines.flagship.wait_s", "s", "lower"),
    ("pipelines.flagship.partition_wall_p50_s", "s", "lower"),
    ("pipelines.flagship.partition_wall_p99_s", "s", "lower"),
    ("state.checkpoint.files_written", "count", "lower"),
    ("state.checkpoint.bytes_per_row", "B", "lower"),
    ("state.checkpoint.load_profiles_s", "s", "lower"),
    ("stages.dedup.shuffle_checks_s", "s", "lower"),
    ("stages.dedup.uniqueness_s", "s", "lower"),
    ("stages.dedup.near_dup_s", "s", "lower"),
    ("stages.dedup.near_dup_ids", "count", "higher"),
    ("stages.profile.hist_pass_s", "s", "lower"),
    ("stages.drift.score_s", "s", "lower"),
    ("functions.report.html_s", "s", "lower"),
    ("ray_data.executions", "count", "lower"),
    ("ray_data.exec_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
) + tuple(
    (f"queries.{q}.{m}", u, "lower")
    for q in QUERY_MIX
    for m, u in (("fixed_s", "s"), ("per_row_ns", "ns"), ("ray_jobs", "count"))
)
