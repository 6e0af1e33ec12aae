#!/usr/bin/env python
"""Benchmark harness (driver contract).

Plain run: executes the headline pipeline (flagship extraction over the
replicated synthetic pages corpus) plus a panel of representative operator
queries over ``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1) with
``ray.init(address="local", num_cpus=$RAY_GRAFT_CPUS)`` (default: the cores
this process may run on, ``len(os.sched_getaffinity(0))``), and prints ONE
JSON line::

    {"metric": "...", "value": <headline sec>, "unit": "sec", "docs": ...,
     "docs_per_sec": ..., "sf": ..., "num_cpus": N, "panel_count": ...,
     "queries": {<12-entry digest>}}

The line is kept deliberately short (headline keys first, 12-query digest)
because the driver tail-captures stdout and a full-panel line gets its head
truncated (r3 lost its headline to parsed:null that way). The complete
per-query panel is written to ``BENCH_PANEL.json`` beside this script.

``--scaling``: runs the headline pipeline twice in FRESH processes at
num_cpus=8 and num_cpus=32 on the same input and reports both throughputs
plus scaling efficiency = (t_8 / t_32) / (32/8) — the sandbox stand-in for
the north rule's N vs 4N cluster-size criterion (see BASELINE.md).

This script OWNS its Ray session (unlike __ray_entry__ / library code).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0))))
# 192 × sf0.1 = 960k docs: large enough that fixed startup (session spin-up,
# graph compile, first-block latency) amortizes out of docs/sec — the r2
# driver bench at 48× measured 81k docs/s for the same pipeline that
# sustains 136–149k at 192× (VERDICT r2 "corpus-size-amortization gap")
REPLICATE = int(os.environ.get("GRAFT_BENCH_REPLICATE", "192"))
# fixed block count so both scaling runs split work identically
NUM_BLOCKS = int(os.environ.get("GRAFT_BENCH_BLOCKS", "128"))


def _init_ray(num_cpus: int) -> None:
    import ray

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    # Reservation ratio swept in r3 (NOTES.md): fully OFF raises absolute
    # throughput most (~115k→136k docs/s at 32 CPUs) but doubles the 8-CPU
    # leg too and the 8→32 efficiency ratio collapses to ~0.5; the default
    # 0.5 leaves the extract stage at ~48% CPU utilization. 0.3 is the
    # measured sweet spot: 32-CPU headline −15–50% wall (and far tighter
    # run-to-run variance), 8-CPU leg unchanged (±5%), efficiency ratio
    # preserved or improved.
    ctx.op_resource_reservation_ratio = 0.3

    from pdf_extractor_ray.ioutil import silence_benign_empty_schema_warnings

    silence_benign_empty_schema_warnings()

    # untimed warm-up: spawn the worker pool + touch the input files once so
    # timed sections measure compute + shuffle, not process forks / cold reads
    import ray.data as rd

    rd.range(num_cpus * 4, override_num_blocks=num_cpus * 4).map_batches(
        lambda b: b
    ).materialize()
    import pyarrow.parquet as pq

    for t in ("documents", "lineitem", "events", "orders", "embeddings", "customer"):
        pq.read_table(f"{SF_DIR}/{t}.parquet")


def headline(num_cpus: int) -> dict:
    """Flagship extraction: pages (replicated corpus) → extract → grouped
    quality stats (consumes the full stream; tiny result)."""
    from pdf_extractor_ray import corpus
    from pdf_extractor_ray.pipelines.extract import extract_pages, quality_by_host

    # warm the page cache / catalog with one untimed metadata read
    import pyarrow.parquet as pq

    n_docs = pq.read_metadata(f"{SF_DIR}/documents.parquet").num_rows * REPLICATE

    # min-of-3: this shared single node shows multi-second wall-clock noise
    # (r3 measured the same job spanning 7.0–14.7 s across runs); the min is
    # the capacity number, the same convention --scaling already uses
    attempts = int(os.environ.get("GRAFT_BENCH_ATTEMPTS", "3"))
    sec = float("inf")
    for _ in range(attempts):
        t0 = time.time()
        pages = corpus.read_pages(SF_DIR, replicate=REPLICATE, fanout_blocks=NUM_BLOCKS)
        ext = extract_pages(pages)  # stateless tasks, block-driven batching
        stats = quality_by_host(ext).to_pandas()
        sec = min(sec, time.time() - t0)
        assert int(stats["n_pages"].sum()) == n_docs

    # extraction-only throughput: pages pre-materialized so the synthetic
    # corpus rendering is excluded (the number comparable to a real crawl
    # where pages come straight off parquet)
    mat = corpus.read_pages(SF_DIR, replicate=REPLICATE, fanout_blocks=NUM_BLOCKS).materialize()
    extract_sec = float("inf")
    for _ in range(attempts):
        t1 = time.time()
        quality_by_host(extract_pages(mat)).to_pandas()
        extract_sec = min(extract_sec, time.time() - t1)
    return {
        "sec": sec,
        "docs": n_docs,
        "docs_per_sec": n_docs / sec,
        "extract_only_sec": extract_sec,
        "extract_only_docs_per_sec": n_docs / extract_sec,
    }


QUERY_PANEL = [
    "pricing_summary",
    "dedup_exact",
    "tumbling_window_agg",
    "sliding_window_agg",
    "session_windows",
    "token_stats_by_lang",
    "sort_topk",
    "ann_topk",
    "minhash_near_dup",
    "embedding_dup_exact",
    "asof_join_last_signup",
    "semi_join_keys",
    "extract_pages_text",
    "dedup_replicated_corpus",
    # round-2 additions
    "fuzzy_edit_join",
    "range_join_campaigns",
    "pivot_event_counts",
    "lag_event_delta",
    "percentile_by_group",
    "rolling_avg_per_user",
    "mode_by_group",
    "corpus_near_dup_pipeline",
    # round-3 additions
    "heavy_hitter_tokens",
    "token_budget_shards",
    "sample_orders_per_customer",
    "split_assign",
    "unigram_logprob_score",
    "approx_quantile_hist",
    "tfidf_top_terms",
    "bm25_search",
    "inverted_index",
    "kmeans_clusters",
    "semdedup",
    "dup_ngram_spans",
    "dsir_weights",
    "repetition_signals",
    "exact_quantile",
    "funnel_conversion",
    "retention_cohorts",
    "event_time_join",
    "moment_stats_by_group",
    "copurchase_pairs",
    "triangle_count",
    "resample_ffill_hourly",
    "event_transition_matrix",
    "incremental_ingest_dedup",
    "snapshot_diff",
    "shuffle_join_detail",
    "interval_islands",
    "global_row_number",
    "source_mixture_sample",
    "bpe_train_merges",
    "star_join_revenue",
    "dense_rank_in_group",
    "unpivot_measures",
    "paragraph_dedup",
    "boilerplate_line_removal",
    "lead_event_delta",
    "scd2_history",
    "temperature_mixture_allocation",
    "pq_ann_topk",
    "throttle_events_cooldown",
    "countmin_token_counts",
    "kmv_user_overlap",
    "capped_session_windows",
    "rfm_quartile_segments",
    "grouping_sets_counts",
    "chi2_cell_residuals",
    "cume_dist_by_supplier",
    "lineitems_above_avg_qty",
    "histogram_orders_cents",
    "iqr_outliers_by_priority",
    "url_canonical_dedup",
    "stratified_sample_by_decile",
    "logreg_quality_train",
    "extract_outlinks",
    "late_event_filter",
    "tumbling_distinct_users",
    "first_last_value_in_group",
    "percentile_cont_by_group",
    "training_export_audit",
    "running_distinct_types",
    "windowed_topk_types",
    "dup_span_coverage",
    "host_reputation_filter",
    "table_checksum",
    "bfs_hops",
    "export_roundtrip_manifest",
    "weighted_avg_by_group",
    "benford_first_digit",
    "winsorized_mean_by_group",
    "chi2_independence",
    "time_weighted_avg_per_user",
    "merge_upsert",
    "classifier_auc",
    "skyline_orders",
    "sliding_distinct_users",
    # round-3 continued: division / decay / token stats / graph / RAG prep
    "relational_division",
    "decayed_count_by_type",
    "exact_distinct_tokens_by_source",
    "kcore_nodes",
    "compression_ratio_signal",
    "ccnet_perplexity_buckets",
    "rolling_extremes_per_user",
    "chunk_passages",
    "inlink_counts",
    # round-3 continued (second batch): rules / decontamination / windows /
    # multimodal headers / weighted stats
    "association_rules_topk",
    "ngram_contamination_filter",
    "rolling_count_range_window",
    "span_corruption_stats",
    "campaign_exposure_seconds",
    "image_header_features",
    "weighted_quantile_doc_len",
    "last_nonnull_carry",
    "padding_waste_by_length_tile",
    "revenue_share_by_priority",
    "burst_detection_windows",
    "top_tokens_per_doc",
    "topk_with_ties_per_group",
    "weekly_revenue_wow",
    "user_journey_signatures",
    "events_since_purchase",
    # r5 families
    "clv_by_segment",
    "type_token_ratio",
    "interevent_gap_histogram",
    "vocab_oov_rate",
    "median_gap_by_type",
    "revenue_pareto_share",
    "weekday_seasonality",
    "null_profile",
    "hapax_ratio_by_source",
    "unshipped_backlog_by_priority",
    "customer_order_distribution",
    "promo_revenue_by_type",
    "dau_engagement_by_month",
    "gini_revenue_index",
    "activity_streaks",
    "market_share_by_year",
    "syllable_stats_by_source",
]


def run_panel() -> dict[str, float]:
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", os.path.join(os.path.dirname(os.path.abspath(__file__)), "__ray_entry__.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    qs = mod.queries()
    import pandas as pd

    attempts = int(os.environ.get("GRAFT_PANEL_ATTEMPTS", "3"))
    out = {}
    for name in QUERY_PANEL:
        best = float("inf")
        for _ in range(attempts):  # min-of-N (default 3): same node-noise rationale
            t0 = time.time()
            res = qs[name](SF_DIR)
            if not isinstance(res, pd.DataFrame):  # Datasets are lazy — consume
                res.to_pandas()
            best = min(best, time.time() - t0)
        out[name] = round(best, 3)
    return out


# The stdout line must stay COMPACT: the r3 driver tail-captured the output
# and the 105-entry panel pushed the line past the capture window, so the
# head (with "metric"/"value") was cut off and BENCH_r03.json recorded
# parsed:null (VERDICT r3 wrong #5). The line therefore carries the headline
# numbers first plus a small representative query digest; the FULL panel is
# written to BENCH_PANEL.json next to this script.
PANEL_DIGEST = [
    "extract_pages_text",
    "dedup_replicated_corpus",
    "corpus_near_dup_pipeline",
    "minhash_near_dup",
    "pricing_summary",
    "tumbling_window_agg",
    "ann_topk",
    "bfs_hops",
    "triangle_count",
    "ccnet_perplexity_buckets",
    "association_rules_topk",
    "classifier_auc",
]


def main() -> None:
    import ray

    _init_ray(NUM_CPUS)
    h = headline(NUM_CPUS)
    panel = run_panel()
    sidecar = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "BENCH_PANEL.json"
    )
    with open(sidecar, "w") as f:
        json.dump(
            {
                "sf": SF_DIR,
                "num_cpus": NUM_CPUS,
                "docs": h["docs"],
                "headline_sec": round(h["sec"], 3),
                "docs_per_sec": round(h["docs_per_sec"], 1),
                "extract_only_docs_per_sec": round(
                    h["extract_only_docs_per_sec"], 1
                ),
                "queries": panel,
            },
            f,
            indent=1,
        )
    # headline-first key order so even a tail-truncated capture parses the
    # metric; queries = fixed 12-entry digest, full panel in the sidecar
    result = {
        "metric": "extraction_headline_sec",
        "value": round(h["sec"], 3),
        "unit": "sec",
        "docs": h["docs"],
        "docs_per_sec": round(h["docs_per_sec"], 1),
        "extract_only_docs_per_sec": round(h["extract_only_docs_per_sec"], 1),
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "panel_count": len(panel),
        "panel_file": "BENCH_PANEL.json",
        "queries": {k: panel[k] for k in PANEL_DIGEST if k in panel},
    }
    ray.shutdown()
    print(json.dumps(result))


def scaling() -> None:
    """Same headline job at 8 and 32 CPUs in fresh processes. Each level is
    measured three times (fresh process each time) and the fastest run kept —
    single-node wall time has multi-second OS noise that otherwise swamps
    the efficiency ratio. The ~1M-doc corpus amortizes fixed per-run
    overhead out of the ratio; the short 32-CPU leg is the noise-sensitive
    one."""

    def run_once(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_BENCH_HEADLINE_ONLY="1",
            GRAFT_BENCH_ATTEMPTS="1",  # min-of-3 comes from the fresh processes
            # same 960k-doc corpus as the plain run (the default REPLICATE
            # is already the amortized size since r3)
            GRAFT_BENCH_REPLICATE=os.environ.get(
                "GRAFT_BENCH_REPLICATE", str(REPLICATE)
            ),
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    def run(ncpu: int) -> dict:
        runs = [run_once(ncpu) for _ in range(3)]
        return min(runs, key=lambda r: r["value"])

    lo, hi = 8, 32
    r_lo, r_hi = run(lo), run(hi)
    eff = (r_lo["value"] / r_hi["value"]) / (hi / lo)
    print(
        json.dumps(
            {
                "metric": "scaling_efficiency",
                "sec_8": r_lo["value"],
                "sec_32": r_hi["value"],
                "docs_per_sec_8": r_lo["docs_per_sec"],
                "docs_per_sec_32": r_hi["docs_per_sec"],
                "scaling_efficiency": round(eff, 3),
                "docs": r_lo["docs"],
                "sf": SF_DIR,
            }
        )
    )


def main_headline_only() -> None:
    import ray

    _init_ray(NUM_CPUS)
    h = headline(NUM_CPUS)
    ray.shutdown()
    print(
        json.dumps(
            {
                "metric": "extraction_headline_sec",
                "value": round(h["sec"], 3),
                "unit": "sec",
                "queries": {},
                "sf": SF_DIR,
                "num_cpus": NUM_CPUS,
                "docs": h["docs"],
                "docs_per_sec": round(h["docs_per_sec"], 1),
                "extract_only_docs_per_sec": round(h["extract_only_docs_per_sec"], 1),
            }
        )
    )


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    elif os.environ.get("GRAFT_BENCH_HEADLINE_ONLY"):
        main_headline_only()
    else:
        main()
