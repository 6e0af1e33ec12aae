"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at sf=0.01
and compares it against the matching ``oracle_sql()[name]`` via DuckDB
(row-count + schema + order-insensitive value-hash).

Conventions (enforced in tests/test_oracle_parity.py):
- output column NAMES match between the Ray pipeline and the SQL,
- float aggregates are rounded to 4 (sums) / 6 (cosines) decimals on BOTH
  sides so accumulation-order differences cannot flip the hash,
- integer aggregates are CAST(... AS BIGINT) in SQL (DuckDB SUM yields
  HUGEINT otherwise) to match Arrow int64.

Ray is initialised by the driver BEFORE this module is imported: nothing
here (nor in the library) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: synthesize the
    Common-Crawl-style pages table from the documents table (deterministic,
    BASELINE.json input_hint shape) and run the main-content extraction
    pipeline (HTML density classifier + PDF XY-cut actor pool)."""
    from pdf_extractor_ray import corpus
    from pdf_extractor_ray.pipelines.extract import extract_pages

    pages = corpus.read_pages("/root/testdata/sf0.001")
    return extract_pages(pages)


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2 plus the
    large-scale training-data ops. Each callable takes ``sf_dir``.

    ORDERING CONTRACT (VERDICT r2 #4): the driver grades a fixed-size prefix
    of this dict (CORRECTNESS_r01/r02 each contain exactly the first 50
    entries of the then-current order). Entries are therefore ordered to
    ROTATE driver-grade coverage: every oracle-paired entry that has never
    appeared in a CORRECTNESS file first, then a re-grade sample of entries
    whose implementations were touched this round; previously-graded
    remainders and rows-only entries follow after position 50. ALL entries
    remain present and all oracle-paired entries are verified hash-exact at
    sf0.001 AND sf0.01 by tests/test_oracle_parity.py regardless of
    position (the authoritative local gate)."""
    from pdf_extractor_ray.pipelines import (
        dedup,
        enrich,
        graph,
        incremental,
        normalize,
        relational,
        search,
        similarity,
        textops,
        training,
    )

    return {
        # --- GRADED PREFIX (first 50): FOURTH rotation (VERDICT r4 #1) —
        # positions 1-28 are every oracle-paired entry that has never
        # appeared in any CORRECTNESS_r* file (r1-r4 graded 144 distinct
        # entries; with these, every oracle-paired query will have been
        # driver-graded at least once across r1-r5). Positions 29-50 are a
        # re-grade sample chosen from the entries this round's changes
        # touch: the per-key window family (its bucket count is
        # now scale-derived, VERDICT r4 #2) and the flagship extraction
        # block (schema-clean reads, VERDICT r4 #4).
        "lead_event_delta": relational.lead_event_delta,
        "cume_dist_by_supplier": relational.cume_dist_by_supplier,
        "lineitems_above_avg_qty": relational.lineitems_above_avg_qty,
        "histogram_orders_cents": relational.histogram_orders_cents,
        "iqr_outliers_by_priority": relational.iqr_outliers_by_priority,
        "grouping_sets_counts": relational.grouping_sets_counts,
        "chi2_cell_residuals": relational.chi2_cell_residuals,
        "scd2_history": relational.scd2_history,
        "temperature_mixture_allocation": training.temperature_mixture_allocation,
        "boilerplate_line_removal": textops.boilerplate_line_removal,
        "exact_quantile": relational.exact_quantile,
        "funnel_conversion": relational.funnel_conversion,
        "retention_cohorts": relational.retention_cohorts,
        "event_time_join": relational.event_time_join,
        "rfm_quartile_segments": relational.rfm_quartile_segments,
        "word_len_stats_by_source": relational.word_len_stats_by_source,
        "exact_distinct_tokens_by_source": relational.exact_distinct_tokens_by_source,
        "rolling_extremes_per_user": relational.rolling_extremes_per_user,
        "inlink_counts": textops.inlink_counts,
        "revenue_share_by_priority": relational.revenue_share_by_priority,
        "padding_waste_by_length_tile": training.padding_waste_by_length_tile,
        "span_corruption_stats": training.span_corruption_stats,
        "campaign_exposure_seconds": relational.campaign_exposure_seconds,
        "weighted_quantile_doc_len": training.weighted_quantile_doc_len,
        "top_tokens_per_doc": textops.top_tokens_per_doc,
        "topk_with_ties_per_group": relational.topk_with_ties_per_group,
        "weekly_revenue_wow": relational.weekly_revenue_wow,
        "user_journey_signatures": relational.user_journey_signatures,
        # --- re-grade sample (window family + flagship; all previously graded)
        "events_since_purchase": relational.events_since_purchase,
        "last_nonnull_carry": relational.last_nonnull_carry,
        "rolling_avg_per_user": relational.rolling_avg_per_user,
        "sliding_distinct_users": relational.sliding_distinct_users,
        # --- NEW r5 oracle families take graded slots so they get a
        # driver pass in the round they were written (the displaced
        # re-grades — dense_rank/percent_rank/tumbling/sliding/
        # session_windows/tumbling_distinct_users/lag_event_delta/
        # late_event_filter/rolling_count_range_window/rank_in_group/
        # windowed_topk_types/time_weighted_avg_per_user/running_total —
        # were all driver-graded in r1-r4 and move past the cut)
        "hapax_ratio_by_source": relational.hapax_ratio_by_source,
        "unshipped_backlog_by_priority": relational.unshipped_backlog_by_priority,
        "customer_order_distribution": relational.customer_order_distribution,
        "promo_revenue_by_type": relational.promo_revenue_by_type,
        "dau_engagement_by_month": relational.dau_engagement_by_month,
        "gini_revenue_index": relational.gini_revenue_index,
        "activity_streaks": relational.activity_streaks,
        "market_share_by_year": relational.market_share_by_year,
        "syllable_stats_by_source": relational.syllable_stats_by_source,
        "clv_by_segment": relational.clv_by_segment,
        "type_token_ratio": relational.type_token_ratio,
        "interevent_gap_histogram": relational.interevent_gap_histogram,
        "vocab_oov_rate": relational.vocab_oov_rate,
        "median_gap_by_type": relational.median_gap_by_type,
        "revenue_pareto_share": relational.revenue_pareto_share,
        "weekday_seasonality": relational.weekday_seasonality,
        "null_profile": relational.null_profile,
        "extract_pages_text": textops.extract_pages_text,
        "quality_by_host_stats": textops.quality_by_host_stats,
        # --- past the graded cut: previously-graded (r1-r4) entries and
        # rows-only entries - ALL verified hash-exact at sf0.001 AND sf0.01
        # by tests/test_oracle_parity.py regardless of position.
        "session_windows": relational.session_windows,
        "tumbling_distinct_users": relational.tumbling_distinct_users,
        "running_distinct_types": relational.running_distinct_types,
        "windowed_topk_types": relational.windowed_topk_types,
        "time_weighted_avg_per_user": relational.time_weighted_avg_per_user,
        "running_total": relational.running_total,
        "lag_event_delta": relational.lag_event_delta,
        "late_event_filter": relational.late_event_filter,
        "rolling_count_range_window": relational.rolling_count_range_window,
        "rank_in_group": relational.rank_in_group,
        "resample_ffill_hourly": relational.resample_ffill_hourly,
        "interval_islands": relational.interval_islands,
        "dense_rank_in_group": relational.dense_rank_in_group,
        "percent_rank_in_group": relational.percent_rank_in_group,
        "tumbling_window_agg": relational.tumbling_window_agg,
        "sliding_window_agg": relational.sliding_window_agg,
        "association_rules_topk": relational.association_rules_topk,
        "table_checksum": relational.table_checksum,
        "export_roundtrip_manifest": textops.export_roundtrip_manifest,
        "merge_upsert": relational.merge_upsert,
        "skyline_orders": relational.skyline_orders,
        "chi2_independence": relational.chi2_independence,
        "benford_first_digit": relational.benford_first_digit,
        "mode_by_group": relational.mode_by_group,
        "distinct_pairs": relational.distinct_pairs,
        "median_by_group": relational.median_by_group,
        "left_join_null_fill": relational.left_join_null_fill,
        "except_custkeys": relational.except_custkeys,
        "mad_by_group": relational.mad_by_group,
        "unpivot_measures": relational.unpivot_measures,
        "first_last_value_in_group": relational.first_last_value_in_group,
        "percentile_cont_by_group": relational.percentile_cont_by_group,
        "weighted_avg_by_group": relational.weighted_avg_by_group,
        "winsorized_mean_by_group": relational.winsorized_mean_by_group,
        "source_mixture_sample": training.source_mixture_sample,
        "year_splice": relational.year_splice,
        "regex_tokenize_bpeish": relational.regex_tokenize_bpeish,
        "skew_salt_plan": relational.skew_salt_plan,
        "ann_topk": similarity.ann_topk,
        "embedding_dup_exact": similarity.embedding_dup_exact,
        "media_features": textops.media_features,
        "heavy_hitter_tokens": relational.heavy_hitter_tokens,
        "tfidf_top_terms": search.tfidf_top_terms,
        "bm25_search": search.bm25_search,
        "inverted_index": search.inverted_index,
        "dup_ngram_spans": search.dup_ngram_spans,
        "ntile_by_group": relational.ntile_by_group,
        "rollup_counts": relational.rollup_counts,
        "zscore_by_group": relational.zscore_by_group,
        "token_budget_shards": training.token_budget_shards,
        "split_assign": training.split_assign,
        "sample_orders_per_customer": training.sample_orders_per_customer,
        "unigram_logprob_score": textops.unigram_logprob_score,
        "split_contamination": training.split_contamination,
        "repetition_signals": textops.repetition_signals,
        "pack_sequences": training.pack_sequences,
        "problem_rows": textops.problem_rows,
        "extraction_diagnostics": textops.extraction_diagnostics,
        "dedup_replicated_corpus": textops.dedup_replicated_corpus,
        "cc_pipeline_audit": textops.cc_pipeline_audit,
        "range_join_campaigns": relational.range_join_campaigns,
        "pivot_event_counts": relational.pivot_event_counts,
        "percentile_by_group": relational.percentile_by_group,
        "ccnet_perplexity_buckets": textops.ccnet_perplexity_buckets,
        "relational_division": relational.relational_division,
        "topk_per_group": relational.topk_per_group,
        "decayed_count_by_type": relational.decayed_count_by_type,
        "distinct_count_by_group": relational.distinct_count_by_group,
        "mean_std_agg": relational.mean_std_agg,
        "chunk_passages": textops.chunk_passages,
        "string_agg_by_source": relational.string_agg_by_source,
        "ngram_contamination_filter": training.ngram_contamination_filter,
        "corr_by_group": relational.corr_by_group,
        "moment_stats_by_group": relational.moment_stats_by_group,
        "entropy_by_group": relational.entropy_by_group,
        "copurchase_pairs": relational.copurchase_pairs,
        "degree_distribution": graph.degree_distribution,
        "triangle_count": graph.triangle_count,
        "incremental_ingest_dedup": incremental.incremental_ingest_dedup,
        "event_transition_matrix": relational.event_transition_matrix,
        "burst_detection_windows": relational.burst_detection_windows,
        "cube_counts": relational.cube_counts,
        "bigram_pmi_topk": relational.bigram_pmi_topk,
        "snapshot_diff": relational.snapshot_diff,
        "shuffle_join_detail": relational.shuffle_join_detail,
        "global_row_number": relational.global_row_number,
        "intersect_custkeys": relational.intersect_custkeys,
        "star_join_revenue": relational.star_join_revenue,
        "paragraph_dedup": textops.paragraph_dedup,
        "url_canonical_dedup": textops.url_canonical_dedup,
        "stratified_sample_by_decile": training.stratified_sample_by_decile,
        "extract_outlinks": textops.extract_outlinks,
        "training_export_audit": textops.training_export_audit,
        "image_header_features": textops.image_header_features,
        "dup_span_coverage": search.dup_span_coverage,
        "bfs_hops": graph.bfs_hops,
        "host_reputation_filter": textops.host_reputation_filter,
        "pricing_summary": relational.pricing_summary,
        "counts_by_source": relational.counts_by_source,
        "supplier_enrich": relational.supplier_enrich,
        "pii_scrub": relational.pii_scrub,
        "amount_threshold_filter": relational.amount_threshold_filter,
        "keyword_include_filter": relational.keyword_include_filter,
        "validity_split_problems": relational.validity_split_problems,
        "projection_map": relational.projection_map,
        "sign_normalize": relational.sign_normalize,
        "date_parse_cascade": relational.date_parse_cascade,
        "amount_from_split_cols": relational.amount_from_split_cols,
        "row_hash": relational.row_hash,
        "union_all_sources": relational.union_all_sources,
        "sort_topk": relational.sort_topk,
        "dedup_exact": relational.dedup_exact,
        "broadcast_join_enrich": relational.broadcast_join_enrich,
        "semi_join_keys": relational.semi_join_keys,
        "anti_join_keys": relational.anti_join_keys,
        "fuzzy_topic_join": enrich.fuzzy_topic_join,
        "fuzzy_edit_join": enrich.fuzzy_edit_join,
        "asof_join_last_signup": enrich.asof_join_last_signup,
        "classify_three_pass": enrich.classify_three_pass,
        "part_brand_stats": relational.part_brand_stats,
        "json_parse_tolerant": relational.json_parse_tolerant,
        "hash_bucket_counts": relational.hash_bucket_counts,
        "keyword_exclude_filter": relational.keyword_exclude_filter,
        "year_filter": relational.year_filter,
        "desc_clean": relational.desc_clean,
        "date_normalize_iso": relational.date_normalize_iso,
        "classification_standardize": relational.classification_standardize,
        "json_field_extract": relational.json_field_extract,
        "semi_join_bloom": relational.semi_join_bloom,
        "classify_escalate": enrich.classify_escalate,
        "normalize_union": normalize.normalize_union,
        "normalize_problems": normalize.normalize_problems,
        "host_counts_salted": relational.host_counts_salted,
        "explode_tokens": relational.explode_tokens,
        "explode_struct_items": relational.explode_struct_items,
        "token_stats_by_lang": relational.token_stats_by_lang,
        "quality_score": relational.quality_score,
        "quality_filter_rules": relational.quality_filter_rules,
        "approx_quantile_hist": relational.approx_quantile_hist,
        "throttle_events_cooldown": relational.throttle_events_cooldown,
        "kmv_user_overlap": relational.kmv_user_overlap,
        "capped_session_windows": relational.capped_session_windows,
        "countmin_token_counts": relational.countmin_token_counts,
        "approx_distinct_tokens": relational.approx_distinct_tokens,
        "approx_distinct_tokens_by_source": relational.approx_distinct_tokens_by_source,
        "ann_topk_ivf": similarity.ann_topk_ivf,
        "pq_ann_topk": similarity.pq_ann_topk,
        "embedding_near_dup": similarity.embedding_near_dup,
        "kmeans_clusters": similarity.kmeans_clusters,
        "semdedup": similarity.semdedup,
        "cluster_balanced_sample": similarity.cluster_balanced_sample,
        "dsir_weights": training.dsir_weights,
        "bpe_train_merges": training.bpe_train_merges,
        "logreg_quality_train": training.logreg_quality_train,
        "classifier_auc": training.classifier_auc,
        "source_minhash_similarity": dedup.source_minhash_similarity,
        "pca_project": similarity.pca_project,
        "pagerank": graph.pagerank,
        "minhash_near_dup": dedup.minhash_near_dup,
        "dup_components": dedup.dup_components,
        "simhash_fingerprints": dedup.simhash_fingerprints,
        "simhash_dup_groups": dedup.simhash_dup_groups,
        "simhash_near_dup": dedup.simhash_near_dup,
        "ngram_jaccard_pairs": dedup.ngram_jaccard_pairs,
        "corpus_near_dup_pipeline": textops.corpus_near_dup_pipeline,
        "langid_predict": textops.langid_predict,
        "fingerprint_rolling": textops.fingerprint_rolling,
        "compression_ratio_signal": textops.compression_ratio_signal,
        "kcore_nodes": graph.kcore_nodes,
    }


def _host_case_sql(var: str = "doc_id") -> str:
    """SQL reproduction of corpus.host_for_doc (pure arithmetic) over any
    integer expression ``var``."""
    from pdf_extractor_ray.corpus import HOST_CUTS, HOSTS

    whens = " ".join(
        f"WHEN (({var}) * 37) % 100 < {cut} THEN '{host}'"
        for host, cut in zip(HOSTS, HOST_CUTS)
    )
    return f"CASE {whens} END"


def oracle_sql() -> dict[str, str]:
    """DuckDB-runnable ANSI SQL oracles, keyed like ``queries()``. Entries
    omitted for genuinely non-SQL-expressible ops (heuristic models,
    sketches, approximate search) — the driver records rows-only checks."""
    host = _host_case_sql()
    # extraction status rules mirror corpus routing arithmetic (corpus.py)
    status_case = (
        "CASE WHEN doc_id % 50 = 17 AND doc_id % 8 = 5 THEN 'error' "
        "WHEN doc_id % 50 = 17 THEN 'empty' "
        "WHEN coalesce(length(text), 0) = 0 THEN 'empty' ELSE 'ok' END"
    )
    return {
        "extract_pages_text": (
            "SELECT doc_id, text AS extracted_text FROM documents "
            "WHERE doc_id % 50 <> 17 AND length(text) > 0"
        ),
        "quality_by_host_stats": f"""
            WITH st AS (
              SELECT doc_id, {status_case} AS status, {host} AS host,
                     length(text) AS len
              FROM documents)
            SELECT host,
              CAST(COUNT(*) AS BIGINT) AS n_pages,
              CAST(SUM(CASE WHEN status = 'ok' THEN 1 ELSE 0 END) AS BIGINT) AS n_ok,
              CAST(SUM(CASE WHEN status = 'error' THEN 1 ELSE 0 END) AS BIGINT) AS n_error,
              CAST(SUM(CASE WHEN status = 'empty' THEN 1 ELSE 0 END) AS BIGINT) AS n_empty,
              CAST(SUM(CASE WHEN status = 'ok' THEN len ELSE 0 END) AS BIGINT) AS sum_chars
            FROM st GROUP BY host
        """,
        "problem_rows": """
            SELECT doc_id,
              CASE WHEN doc_id % 50 = 17 AND doc_id % 8 = 5 THEN 'error'
                   ELSE 'empty' END AS status,
              CASE WHEN doc_id % 50 = 17 AND doc_id % 8 = 5 THEN 'missing_eof'
                   WHEN doc_id % 50 = 17 THEN 'no_content_blocks'
                   WHEN doc_id % 8 = 5 THEN 'no_content_tokens'
                   ELSE 'no_content_blocks' END AS error
            FROM documents WHERE doc_id % 50 = 17 OR coalesce(length(text), 0) = 0
        """,
        "cc_pipeline_audit": """
            WITH f AS (
              SELECT text,
                len(string_split(text, ' ')) AS n_tokens,
                len(list_filter(string_split(text, ' '),
                    x -> list_contains(['the', 'a', 'and', 'row', 'data'], x)))
                  AS n_stop,
                CASE WHEN doc_id % 50 <> 17 AND length(text) > 0 THEN 1 ELSE 0 END
                  AS ok
              FROM documents),
            k AS (SELECT text FROM f WHERE ok = 1
                  AND n_tokens BETWEEN 10 AND 200 AND n_stop * 10 >= n_tokens)
            SELECT CAST((SELECT 2 * COUNT(*) FROM f) AS BIGINT) AS n_pages,
              CAST((SELECT 2 * SUM(ok) FROM f) AS BIGINT) AS n_ok,
              CAST((SELECT 2 * COUNT(*) FROM k) AS BIGINT) AS n_quality_kept,
              CAST((SELECT COUNT(DISTINCT text) FROM k) AS BIGINT) AS n_unique
        """,
        "dedup_replicated_corpus": """
            WITH w AS (SELECT text FROM documents
                       WHERE doc_id % 50 <> 17 AND length(text) > 0),
                 g AS (SELECT COUNT(*) AS c FROM w GROUP BY text)
            SELECT CAST((SELECT 2 * COUNT(*) FROM w) AS BIGINT) AS n_rows,
              CAST((SELECT COUNT(*) FROM g) AS BIGINT) AS n_groups,
              CAST((SELECT 2 * MAX(c) FROM g) AS BIGINT) AS max_group
        """,
        "extraction_diagnostics": """
            WITH s AS (
              SELECT CASE WHEN doc_id % 50 = 17 OR coalesce(length(text), 0) = 0 THEN 0 ELSE 1 END AS ok,
                CASE WHEN doc_id % 50 = 17 AND doc_id % 8 = 5 THEN 1
                     WHEN doc_id % 50 = 17 THEN 0
                     WHEN length(text) = 0 THEN 0 ELSE 0 END AS err,
                doc_id % 8 = 5 AS is_pdf,
                len(string_split(text, ' ')) AS nw, length(text) AS len
              FROM documents)
            SELECT CAST(COUNT(*) AS BIGINT) AS n_pages,
              CAST(SUM(ok) AS BIGINT) AS n_ok,
              CAST(SUM(err) AS BIGINT) AS n_error,
              CAST(SUM(CASE WHEN ok = 0 AND err = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_empty,
              CAST(SUM(CASE WHEN ok = 1 AND is_pdf THEN CEIL(nw / 100.0)
                            WHEN ok = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_content_blocks,
              CAST(SUM(CASE WHEN ok = 1 THEN len ELSE 0 END) AS BIGINT) AS sum_extracted_chars
            FROM s
        """,
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
              ROUND(SUM(l_quantity), 4) AS sum_qty,
              ROUND(SUM(l_extendedprice), 4) AS sum_base,
              ROUND(SUM(l_extendedprice * (1 - l_discount)), 4) AS sum_disc_price,
              CAST(COUNT(*) AS BIGINT) AS n_rows
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "counts_by_source": """
            SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
              CAST(SUM(n_chars) AS BIGINT) AS sum_chars,
              CAST(MIN(n_chars) AS BIGINT) AS min_chars,
              CAST(MAX(n_chars) AS BIGINT) AS max_chars
            FROM documents GROUP BY source
        """,
        "part_brand_stats": """
            SELECT p_brand, CAST(COUNT(*) AS BIGINT) AS n_parts,
              ROUND(SUM(p_retailprice), 4) AS sum_price,
              CAST(SUM(p_size) AS BIGINT) AS sum_size
            FROM part GROUP BY p_brand
        """,
        "supplier_enrich": """
            SELECT s_suppkey, n_name AS nation,
              CASE WHEN s_acctbal < 0 THEN 'negative' ELSE 'ok' END AS balance_flag
            FROM supplier JOIN nation ON s_nationkey = n_nationkey
        """,
        "json_parse_tolerant": (
            "SELECT event_id, CAST(regexp_extract(props, '\"k\": (\\d+)', 1) AS BIGINT)"
            " AS k_val FROM events"
        ),
        "pii_scrub": """
            SELECT doc_id,
              regexp_replace(regexp_replace(regexp_replace(text,
                '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', '[REDACTED]', 'g'),
                '\\d{3}[-.]\\d{3}[-.]\\d{4}', '[REDACTED]', 'g'),
                '\\d{13,16}', '[REDACTED]', 'g') AS cleaned,
              CAST(len(regexp_extract_all(text,
                     '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}'))
                + len(regexp_extract_all(text, '\\d{3}[-.]\\d{3}[-.]\\d{4}'))
                + len(regexp_extract_all(text, '\\d{13,16}')) AS BIGINT) AS n_pii
            FROM documents
        """,
        "hash_bucket_counts": """
            SELECT CAST((o_orderkey * 2654435761) % 64 AS INTEGER) AS bucket,
              CAST(COUNT(*) AS BIGINT) AS n_rows
            FROM orders GROUP BY 1
        """,
        "amount_threshold_filter": (
            "SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice >= 100000"
        ),
        "keyword_exclude_filter": (
            "SELECT doc_id, source FROM documents "
            "WHERE NOT (text LIKE '%slow%' OR text LIKE '%error%')"
        ),
        "keyword_include_filter": (
            "SELECT doc_id, source FROM documents "
            "WHERE text LIKE '%merge%' OR text LIKE '%join%'"
        ),
        "year_filter": (
            "SELECT o_orderkey, o_orderpriority FROM orders "
            "WHERE EXTRACT(year FROM o_orderdate) = 1995"
        ),
        "validity_split_problems": """
            WITH r AS (
              SELECT CASE WHEN value < 5.0 THEN 'low_value'
                          WHEN CAST(regexp_extract(props, '"k": (\\d+)', 1) AS BIGINT) > 90
                               THEN 'k_out_of_range' END AS reason
              FROM events)
            SELECT reason, CAST(COUNT(*) AS BIGINT) AS n_rows
            FROM r WHERE reason IS NOT NULL GROUP BY reason
        """,
        "projection_map": """
            SELECT c_custkey AS id,
              lower(regexp_replace(c_name, '\\W+', '_', 'g')) AS name_std,
              lower(c_mktsegment) AS segment,
              CASE WHEN c_acctbal < 0 THEN 'negative' ELSE 'ok' END AS balance_flag
            FROM customer
        """,
        "desc_clean": (
            "SELECT doc_id, trim(regexp_replace(regexp_replace(text, '\\bdup\\b', '', 'g'),"
            " ' +', ' ', 'g')) AS cleaned FROM documents"
        ),
        "sign_normalize": """
            SELECT event_id,
              CASE WHEN event_type IN ('click', 'view') THEN -value ELSE value END AS amount
            FROM events
        """,
        "date_normalize_iso": """
            SELECT event_id, strftime(ts, '%Y-%m-%d') AS iso_date,
              CAST(EXTRACT(year FROM ts) AS BIGINT) AS year,
              CAST(EXTRACT(month FROM ts) AS BIGINT) AS month
            FROM events
        """,
        "row_hash": """
            SELECT o_orderkey,
              sha256(CAST(o_orderkey AS VARCHAR) || '|' || o_orderstatus || '|' ||
                     o_orderpriority) AS txn_hash
            FROM orders
        """,
        "json_field_extract": (
            "SELECT event_id, CAST(regexp_extract(props, '\"k\": (\\d+)', 1) AS BIGINT)"
            " AS k_val FROM events"
        ),
        "date_parse_cascade": (
            "SELECT event_id, strftime(ts, '%Y-%m-%d') AS iso_date FROM events"
        ),
        "classification_standardize": """
            SELECT event_id,
              CASE WHEN event_type IN ('click', 'view') THEN 'engagement'
                   WHEN event_type = 'purchase' THEN 'revenue'
                   WHEN event_type = 'signup' THEN 'growth'
                   ELSE 'ops' END AS category_std
            FROM events
        """,
        "amount_from_split_cols": """
            SELECT l_orderkey, l_linenumber,
              l_extendedprice - l_extendedprice * l_discount AS amount
            FROM lineitem
        """,
        "fuzzy_topic_join": """
            WITH s AS (
              SELECT doc_id,
                len(list_intersect(list_distinct(string_split(text, ' ')),
                    ['join', 'merge', 'hash'])) AS o0,
                len(list_intersect(list_distinct(string_split(text, ' ')),
                    ['stream', 'window', 'watermark'])) AS o1,
                len(list_intersect(list_distinct(string_split(text, ' ')),
                    ['sort', 'order', 'key'])) AS o2,
                len(list_intersect(list_distinct(string_split(text, ' ')),
                    ['filter', 'scan', 'row'])) AS o3
              FROM documents)
            SELECT doc_id,
              CASE WHEN o0 = 0 AND o1 = 0 AND o2 = 0 AND o3 = 0 THEN NULL
                   WHEN o0 >= o1 AND o0 >= o2 AND o0 >= o3 THEN 'join merge hash'
                   WHEN o1 >= o2 AND o1 >= o3 THEN 'stream window watermark'
                   WHEN o2 >= o3 THEN 'sort order key'
                   ELSE 'filter scan row' END AS topic
            FROM s
        """,
        "percentile_by_group": """
            SELECT o_orderpriority, quantile_disc(o_totalprice, 0.9) AS p90_price
            FROM orders GROUP BY o_orderpriority
        """,
        "rolling_avg_per_user": """
            SELECT event_id,
              ROUND(AVG(value) OVER (PARTITION BY user_id
                    ORDER BY ts, event_id
                    ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 4) AS rolling_avg
            FROM events
        """,
        "mode_by_group": """
            SELECT user_id, event_type AS mode_type FROM (
              SELECT user_id, event_type,
                ROW_NUMBER() OVER (PARTITION BY user_id
                                   ORDER BY COUNT(*) DESC, event_type ASC) AS rn
              FROM events GROUP BY user_id, event_type
            ) WHERE rn = 1
        """,
        "lag_event_delta": """
            SELECT event_id,
              CAST(epoch_us(ts) - LAG(epoch_us(ts)) OVER (
                    PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT) AS delta_us
            FROM events
        """,
        "lead_event_delta": """
            SELECT event_id,
              CAST(LEAD(epoch_us(ts)) OVER (
                    PARTITION BY user_id ORDER BY ts, event_id)
                   - epoch_us(ts) AS BIGINT) AS delta_us
            FROM events
        """,
        "cume_dist_by_supplier": """
            SELECT l_orderkey, l_linenumber,
              CUME_DIST() OVER (PARTITION BY l_suppkey ORDER BY l_quantity)
                AS cume
            FROM lineitem
        """,
        "range_join_campaigns": """
            WITH campaigns AS (
              SELECT r_regionkey AS campaign_id,
                     TIMESTAMP '2024-01-01' + r_regionkey * INTERVAL 5 DAY AS c_start,
                     TIMESTAMP '2024-01-01' + (r_regionkey * 5 + 8) * INTERVAL 1 DAY AS c_end
              FROM region)
            SELECT e.event_id, c.campaign_id
            FROM events e
            JOIN campaigns c ON e.ts >= c.c_start AND e.ts < c.c_end
        """,
        "pivot_event_counts": """
            SELECT user_id,
              CAST(SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT) AS n_click,
              CAST(SUM(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT) AS n_error,
              CAST(SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase,
              CAST(SUM(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS BIGINT) AS n_signup,
              CAST(SUM(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT) AS n_view
            FROM events GROUP BY user_id
        """,
        "fuzzy_edit_join": """
            WITH lookup AS (
              SELECT p_partkey AS topic_id,
                     array_to_string(list_sort(string_split(
                       array_to_string(list_reverse(string_split(p_name, ' ')), ' '),
                       ' ')), ' ') AS topic_sorted
              FROM part WHERE p_partkey < 50
            ), probes AS (
              SELECT p_partkey,
                     array_to_string(list_sort(string_split(p_name, ' ')), ' ') AS name_sorted
              FROM part WHERE p_partkey < 200
            ), scored AS (
              SELECT pr.p_partkey, lk.topic_id,
                     ROUND(1.0 - levenshtein(pr.name_sorted, lk.topic_sorted)::DOUBLE
                           / GREATEST(length(pr.name_sorted), length(lk.topic_sorted), 1),
                           6) AS sim
              FROM probes pr CROSS JOIN lookup lk
            ), best AS (
              SELECT p_partkey, topic_id, sim,
                     ROW_NUMBER() OVER (PARTITION BY p_partkey
                                        ORDER BY sim DESC, topic_id ASC) AS rn
              FROM scored WHERE sim >= 0.8
            )
            SELECT pr.p_partkey, b.topic_id, b.sim
            FROM probes pr
            LEFT JOIN best b ON b.p_partkey = pr.p_partkey AND b.rn = 1
        """,
        "asof_join_last_signup": """
            SELECT f.event_id,
              strftime(d.ts, '%Y-%m-%d %H:%M:%S') AS last_signup
            FROM (SELECT * FROM events WHERE event_type = 'purchase') f
            ASOF LEFT JOIN (SELECT * FROM events WHERE event_type = 'signup') d
              ON f.user_id = d.user_id AND f.ts >= d.ts
        """,
        "classify_three_pass": """
            SELECT doc_id,
              CASE WHEN substr(source, length(source), 1) IN ('0','1','2','3','4')
                     THEN 'alpha'
                   WHEN lang IN ('en', 'de') THEN 'beta'
                   ELSE 'general' END AS category,
              CASE WHEN substr(source, length(source), 1) IN ('0','1','2','3','4')
                     THEN 'pass1'
                   WHEN lang IN ('en', 'de') THEN 'pass2'
                   ELSE 'pass3' END AS classified_by
            FROM documents
        """,
        "host_counts_salted": f"""
            SELECT {host} AS host, CAST(COUNT(*) AS BIGINT) AS n_pages
            FROM documents GROUP BY 1
        """,
        "union_all_sources": """
            SELECT o_orderkey, 'high_value' AS origin FROM orders WHERE o_totalprice >= 150000
            UNION ALL
            SELECT o_orderkey, 'urgent' AS origin FROM orders WHERE o_orderpriority = '1-URGENT'
        """,
        "sort_topk": (
            "SELECT o_orderkey, o_totalprice FROM orders "
            "ORDER BY o_totalprice DESC, o_orderkey LIMIT 10"
        ),
        "dedup_exact": (
            "SELECT sha256(text) AS text_sha, MIN(doc_id) AS doc_id "
            "FROM documents GROUP BY sha256(text)"
        ),
        "broadcast_join_enrich": """
            SELECT c_custkey, n_name AS nation, r_name AS region
            FROM customer
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
        """,
        "semi_join_keys": (
            "SELECT o_orderkey FROM orders WHERE o_custkey IN "
            "(SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING')"
        ),
        "semi_join_bloom": (
            "SELECT o_orderkey FROM orders WHERE o_custkey IN "
            "(SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING')"
        ),
        "anti_join_keys": (
            "SELECT o_orderkey FROM orders WHERE o_custkey NOT IN "
            "(SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING')"
        ),
        "explode_tokens": (
            "SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents"
        ),
        # training-data export family (r3): all-integer arithmetic, and the
        # Knuth hash ((k % 2^31)*2654435761 % 2^31) keeps every intermediate
        # < 2^63 so BIGINT and numpy int64 agree exactly
        "token_budget_shards": """
            WITH t AS (
              SELECT doc_id, len(string_split(text, ' ')) AS n_tokens FROM documents
            )
            SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
                   CAST(SUM(n_tokens) OVER (ORDER BY doc_id) AS BIGINT) AS cum_tokens,
                   CAST((SUM(n_tokens) OVER (ORDER BY doc_id) - n_tokens) // 5000
                        AS BIGINT) AS shard_id
            FROM t
        """,
        "split_assign": """
            SELECT doc_id,
              CASE WHEN ((doc_id % 2147483648) * 2654435761) % 2147483648 % 100 < 80
                     THEN 'train'
                   WHEN ((doc_id % 2147483648) * 2654435761) % 2147483648 % 100 < 90
                     THEN 'val'
                   ELSE 'test' END AS split
            FROM documents
        """,
        "sample_orders_per_customer": """
            SELECT o_custkey, o_orderkey FROM orders
            QUALIFY ROW_NUMBER() OVER (
              PARTITION BY o_custkey
              ORDER BY ((o_orderkey % 2147483648) * 2654435761) % 2147483648,
                       o_orderkey) <= 3
        """,
        # cross-split exact-content leakage audit (composes split_assign's
        # hash arithmetic with dedup_exact's sha; n_contaminated > 0 path is
        # pinned with constructed duplicates in tests/test_training.py
        "split_contamination": """
            WITH s AS (
              SELECT doc_id, text,
                CASE WHEN ((doc_id % 2147483648) * 2654435761) % 2147483648 % 100 < 80
                       THEN 'train'
                     WHEN ((doc_id % 2147483648) * 2654435761) % 2147483648 % 100 < 90
                       THEN 'val'
                     ELSE 'test' END AS split
              FROM documents
            ),
            tr AS (SELECT DISTINCT sha256(text) AS sha FROM s WHERE split = 'train')
            SELECT split, CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(CASE WHEN sha256(text) IN (SELECT sha FROM tr)
                                 THEN 1 ELSE 0 END) AS BIGINT) AS n_contaminated
            FROM s WHERE split <> 'train' GROUP BY split
        """,
        # stream-stream temporal self-join; integer-us deltas both sides
        "event_time_join": """
            SELECT v.user_id,
                   v.event_id AS view_id,
                   p.event_id AS purchase_id,
                   CAST((epoch_us(p.ts) - epoch_us(v.ts)) // 1000000 AS BIGINT)
                     AS delta_s
            FROM (SELECT * FROM events WHERE event_type = 'view') v
            JOIN (SELECT * FROM events WHERE event_type = 'purchase') p
              ON p.user_id = v.user_id
             AND epoch_us(p.ts) - epoch_us(v.ts) > 0
             AND epoch_us(p.ts) - epoch_us(v.ts) <= 86400000000
        """,
        # ordered funnel: earliest-qualifying-event chain, strict >
        "funnel_conversion": """
            WITH v AS (SELECT user_id, MIN(ts) AS t1 FROM events
                       WHERE event_type = 'view' GROUP BY user_id),
            c AS (SELECT e.user_id, MIN(e.ts) AS t2 FROM events e
                  JOIN v ON e.user_id = v.user_id AND e.ts > v.t1
                  WHERE e.event_type = 'click' GROUP BY e.user_id),
            p AS (SELECT e.user_id, MIN(e.ts) AS t3 FROM events e
                  JOIN c ON e.user_id = c.user_id AND e.ts > c.t2
                  WHERE e.event_type = 'purchase' GROUP BY e.user_id)
            SELECT 'view' AS step,
                   CAST((SELECT COUNT(*) FROM v) AS BIGINT) AS n_users
            UNION ALL SELECT 'view>click',
                   CAST((SELECT COUNT(*) FROM c) AS BIGINT)
            UNION ALL SELECT 'view>click>purchase',
                   CAST((SELECT COUNT(*) FROM p) AS BIGINT)
        """,
        # integer epoch-weeks on both sides (the tumbling-window convention)
        "retention_cohorts": """
            WITH uw AS (
              SELECT DISTINCT user_id, epoch_us(ts) // 604800000000 AS week
              FROM events
            ),
            f AS (SELECT user_id, MIN(week) AS cohort FROM uw GROUP BY user_id)
            SELECT CAST(f.cohort AS BIGINT) AS cohort_week,
                   CAST(uw.week - f.cohort AS BIGINT) AS week_offset,
                   CAST(COUNT(*) AS BIGINT) AS n_users
            FROM uw JOIN f USING (user_id)
            GROUP BY 1, 2
        """,
        # exact distributed selection (histogram narrowing) ==
        # quantile_disc: rank = max(ceil(q*n), 1), element of the column
        "exact_quantile": """
            SELECT CAST(0.5 AS DOUBLE) AS q,
                   quantile_disc(l_extendedprice, 0.5) AS val FROM lineitem
            UNION ALL
            SELECT CAST(0.9 AS DOUBLE),
                   quantile_disc(l_extendedprice, 0.9) FROM lineitem
            UNION ALL
            SELECT CAST(0.99 AS DOUBLE),
                   quantile_disc(l_extendedprice, 0.99) FROM lineitem
        """,
        # concat-and-chunk sequence packing: all-integer window cumsum +
        # lateral generate_series explode (mirrors pack_sequences exactly)
        "pack_sequences": """
            WITH t AS (
              SELECT doc_id, len(string_split(text, ' ')) AS n FROM documents
            ), c AS (
              SELECT doc_id, n,
                     CAST(SUM(n) OVER (ORDER BY doc_id) - n AS BIGINT) AS strt
              FROM t
            )
            SELECT doc_id, CAST(s AS BIGINT) AS seq_id,
                   CAST(GREATEST(s * 256, strt) - strt AS BIGINT) AS frag_start,
                   CAST(LEAST((s + 1) * 256, strt + n)
                        - GREATEST(s * 256, strt) AS BIGINT) AS frag_len
            FROM c, UNNEST(generate_series(strt // 256, (strt + n - 1) // 256)) AS u(s)
        """,
        # Gopher repetition signals: top-2-gram and duplicated-3-gram char
        # fractions; both sides round half-away (the tie case is real here —
        # see repetition_signals docstring)
        "repetition_signals": """
            WITH toks AS (
              SELECT doc_id, string_split(text, ' ') AS ts, length(text) AS nch
              FROM documents
            ),
            g2 AS (
              SELECT doc_id, unnest(list_transform(generate_series(1, len(ts) - 1),
                     i -> ts[i] || ' ' || ts[i+1])) AS g
              FROM toks
            ),
            c2 AS (
              SELECT doc_id, MAX(cnt * gl) AS topchars FROM (
                SELECT doc_id, g, COUNT(*) AS cnt, LENGTH(g) AS gl
                FROM g2 GROUP BY doc_id, g
              ) GROUP BY doc_id
            ),
            g3 AS (
              SELECT doc_id, unnest(list_transform(generate_series(1, len(ts) - 2),
                     i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2])) AS g
              FROM toks
            ),
            c3 AS (
              SELECT doc_id, SUM(cnt * gl) AS dupchars FROM (
                SELECT doc_id, g, COUNT(*) AS cnt, LENGTH(g) AS gl
                FROM g3 GROUP BY doc_id, g
              ) WHERE cnt > 1 GROUP BY doc_id
            )
            SELECT t.doc_id,
                   ROUND(COALESCE(c2.topchars, 0) / GREATEST(t.nch, 1), 6) AS top_gram_frac,
                   ROUND(COALESCE(c3.dupchars, 0) / GREATEST(t.nch, 1), 6) AS dup_gram_frac
            FROM toks t LEFT JOIN c2 USING (doc_id) LEFT JOIN c3 USING (doc_id)
        """,
        # the verify pass makes the MG-sketched result exact; DOUBLE cast so
        # both sides compare count > φ·N in identical float64 arithmetic
        "heavy_hitter_tokens": """
            WITH toks AS (
              SELECT unnest(string_split(text, ' ')) AS token FROM documents
            ), tot AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM toks)
            SELECT token, CAST(COUNT(*) AS BIGINT) AS n_occurrences
            FROM toks, tot
            GROUP BY token, tot.n
            HAVING COUNT(*) > 0.002 * tot.n
        """,
        # IR / search family (r3): tokenization = string_split(text, ' ')
        # matching pc.split_pattern; scores ROUND(·, 6) BEFORE ranking on
        # both sides so ordering ties resolve identically
        "tfidf_top_terms": """
            WITH tok AS (
              SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents
            ),
            tf AS (SELECT doc_id, token, CAST(COUNT(*) AS BIGINT) AS tf
                   FROM tok GROUP BY doc_id, token),
            df AS (SELECT token, COUNT(*) AS df FROM tf GROUP BY token),
            n AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM documents),
            s AS (SELECT tf.doc_id, tf.token,
                         ROUND(tf.tf * LN(n.n / df.df), 6) AS tfidf
                  FROM tf JOIN df ON tf.token = df.token CROSS JOIN n)
            SELECT doc_id, token, tfidf FROM (
              SELECT s.*, ROW_NUMBER() OVER (
                PARTITION BY doc_id ORDER BY tfidf DESC, token) AS rn FROM s
            ) t WHERE rn <= 5
        """,
        "bm25_search": """
            WITH d AS (SELECT doc_id, text FROM documents WHERE text IS NOT NULL),
            dl AS (SELECT doc_id, CAST(len(string_split(text, ' ')) AS DOUBLE) AS dl FROM d),
            st AS (SELECT AVG(dl) AS avgdl, CAST(COUNT(*) AS DOUBLE) AS n FROM dl),
            tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM d),
            tf AS (SELECT doc_id, token, CAST(COUNT(*) AS DOUBLE) AS tf FROM tok
                   WHERE token IN ('spark', 'window', 'join') GROUP BY 1, 2),
            df AS (SELECT token, CAST(COUNT(*) AS DOUBLE) AS df FROM tf GROUP BY 1),
            sc AS (SELECT tf.doc_id,
                     SUM( LN((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)) ) AS s
                   FROM tf JOIN df ON tf.token = df.token
                        JOIN dl ON tf.doc_id = dl.doc_id CROSS JOIN st
                   GROUP BY 1)
            SELECT doc_id, ROUND(s, 6) AS score FROM sc
            ORDER BY score DESC, doc_id LIMIT 10
        """,
        "inverted_index": """
            WITH tok AS (
              SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents
            ), dt AS (SELECT DISTINCT doc_id, token FROM tok)
            SELECT token, CAST(COUNT(*) AS BIGINT) AS df,
                   string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings
            FROM dt GROUP BY token HAVING COUNT(*) >= 2
        """,
        "dup_ngram_spans": """
            WITH tok AS (
              SELECT doc_id, unnest(string_split(text, ' ')) AS token,
                     generate_subscripts(string_split(text, ' '), 1) AS pos
              FROM documents
            ),
            sp AS (
              SELECT doc_id,
                     token || ' ' || LEAD(token, 1) OVER w || ' '
                           || LEAD(token, 2) OVER w || ' '
                           || LEAD(token, 3) OVER w AS span,
                     LEAD(token, 3) OVER w IS NOT NULL AS whole
              FROM tok WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
            )
            SELECT span, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS n_docs
            FROM sp WHERE whole GROUP BY span
            HAVING COUNT(DISTINCT doc_id) > 1
        """,
        "ntile_by_group": """
            SELECT o_orderkey, CAST(NTILE(4) OVER (
              PARTITION BY o_custkey ORDER BY o_totalprice, o_orderkey
            ) AS BIGINT) AS tile FROM orders
        """,
        "rollup_counts": """
            SELECT o_orderstatus, o_orderpriority,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   ROUND(SUM(o_totalprice), 2) AS sum_price
            FROM orders GROUP BY ROLLUP(o_orderstatus, o_orderpriority)
        """,
        "zscore_by_group": """
            WITH s AS (
              SELECT l_returnflag, AVG(l_extendedprice) AS mu,
                     STDDEV_SAMP(l_extendedprice) AS sd
              FROM lineitem GROUP BY l_returnflag
            )
            SELECT l_orderkey, l_linenumber,
                   ROUND((l_extendedprice - mu) / sd, 4) AS z
            FROM lineitem JOIN s USING (l_returnflag)
        """,
        "explode_struct_items": (
            "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem"
        ),
        "token_stats_by_lang": """
            SELECT lang, CAST(SUM(len(string_split(text, ' '))) AS BIGINT) AS sum_tokens,
              CAST(COUNT(*) AS BIGINT) AS n_docs
            FROM documents GROUP BY lang
        """,
        "quality_score": """
            SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars_q,
              CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens,
              CAST(len(list_filter(string_split(text, ' '),
                   x -> list_contains(['the', 'a', 'and', 'row', 'data'], x))) AS BIGINT)
                AS n_stop
            FROM documents
        """,
        "quality_filter_rules": """
            WITH f AS (
              SELECT doc_id,
                CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens,
                CAST(len(list_filter(string_split(text, ' '),
                     x -> list_contains(['the', 'a', 'and', 'row', 'data'], x)))
                     AS BIGINT) AS n_stop
              FROM documents)
            SELECT doc_id, n_tokens, n_stop FROM f
            WHERE n_tokens BETWEEN 10 AND 200 AND n_stop * 10 >= n_tokens
        """,
        "clv_by_segment": """
            WITH percust AS (
              SELECT o_custkey,
                     CAST(COUNT(*) AS BIGINT) AS n_orders,
                     SUM(CAST(FLOOR(o_totalprice * 100.0 + 0.5) AS BIGINT)) AS cents,
                     CAST(date_diff('day', MIN(o_orderdate), MAX(o_orderdate)) AS BIGINT)
                       AS tenure_days
              FROM orders GROUP BY o_custkey)
            SELECT c_mktsegment,
                   CAST(COUNT(*) AS BIGINT) AS n_customers,
                   ROUND(CAST(SUM(n_orders) AS DOUBLE) / COUNT(*), 4) AS avg_orders,
                   ROUND(CAST(SUM(cents) AS DOUBLE) / COUNT(*) / 100.0, 4)
                     AS avg_lifetime_value,
                   ROUND(CAST(SUM(tenure_days) AS DOUBLE) / COUNT(*), 4)
                     AS avg_tenure_days
            FROM customer JOIN percust ON c_custkey = o_custkey
            GROUP BY c_mktsegment
        """,
        "type_token_ratio": """
            SELECT doc_id,
                   CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens,
                   CAST(len(list_distinct(string_split(text, ' '))) AS BIGINT)
                     AS n_distinct,
                   ROUND(CAST(len(list_distinct(string_split(text, ' '))) AS DOUBLE)
                         / len(string_split(text, ' ')), 6) AS ttr
            FROM documents
        """,
        "interevent_gap_histogram": """
            WITH gaps AS (
              SELECT event_type,
                     date_diff('second', LAG(ts) OVER
                       (PARTITION BY user_id ORDER BY ts, event_id), ts) AS gap_s
              FROM events)
            SELECT event_type,
                   CAST(length(CAST(gap_s AS VARCHAR)) AS BIGINT) AS gap_digits,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM gaps WHERE gap_s IS NOT NULL
            GROUP BY event_type, gap_digits
        """,
        "median_gap_by_type": """
            WITH gaps AS (
              SELECT event_type,
                     date_diff('second', LAG(ts) OVER
                       (PARTITION BY user_id ORDER BY ts, event_id), ts) AS gap_s
              FROM events)
            SELECT event_type,
                   median(gap_s) AS median_gap_s,
                   CAST(COUNT(*) AS BIGINT) AS n_gaps
            FROM gaps WHERE gap_s IS NOT NULL
            GROUP BY event_type
        """,
        "revenue_pareto_share": """
            WITH percust AS (
              SELECT o_custkey,
                     SUM(CAST(FLOOR(o_totalprice * 100.0 + 0.5) AS BIGINT)) AS cents
              FROM orders GROUP BY o_custkey),
            t AS (SELECT quantile_disc(cents, 0.75) AS t75 FROM percust)
            SELECT CAST(COUNT(*) AS BIGINT) AS n_customers,
                   CAST(SUM(CASE WHEN cents > t75 THEN 1 ELSE 0 END) AS BIGINT)
                     AS n_top,
                   t75 / 100.0 AS threshold,
                   ROUND(CAST(SUM(CASE WHEN cents > t75 THEN cents ELSE 0 END)
                        AS DOUBLE) / SUM(cents), 6) AS top_revenue_share
            FROM percust, t GROUP BY t75
        """,
        "weekday_seasonality": """
            SELECT CAST(dayofweek(o_orderdate) AS BIGINT) AS weekday,
                   o_orderpriority,
                   CAST(COUNT(*) AS BIGINT) AS n_orders,
                   SUM(CAST(FLOOR(o_totalprice * 100.0 + 0.5) AS BIGINT)) / 100.0
                     AS revenue
            FROM orders GROUP BY weekday, o_orderpriority
        """,
        "hapax_ratio_by_source": """
            WITH tok AS (
              SELECT source, unnest(string_split(text, ' ')) AS w FROM documents),
            tc AS (SELECT source, w, COUNT(*) AS c FROM tok GROUP BY source, w)
            SELECT source, CAST(COUNT(*) AS BIGINT) AS n_vocab,
                   CAST(SUM(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_hapax,
                   ROUND(CAST(SUM(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS DOUBLE)
                         / COUNT(*), 6) AS hapax_ratio
            FROM tc GROUP BY source
        """,
        "unshipped_backlog_by_priority": """
            WITH li AS (
              SELECT l_orderkey,
                     CAST(FLOOR(l_extendedprice * 100.0 + 0.5) AS BIGINT)
                       * (10000 - CAST(FLOOR(l_discount * 10000.0 + 0.5) AS BIGINT))
                       AS rev_e6
              FROM lineitem WHERE l_shipdate > TIMESTAMP '1998-07-01')
            SELECT o_orderpriority,
                   CAST(COUNT(DISTINCT l_orderkey) AS BIGINT) AS n_orders,
                   CAST(COUNT(*) AS BIGINT) AS n_items,
                   CAST(SUM(rev_e6) AS BIGINT) AS revenue_e6
            FROM li JOIN orders ON l_orderkey = o_orderkey
            WHERE o_orderdate <= TIMESTAMP '1998-07-01'
            GROUP BY o_orderpriority
        """,
        "customer_order_distribution": """
            WITH percust AS (
              SELECT c_custkey, CAST(COUNT(o_orderkey) AS BIGINT) AS c_count
              FROM customer LEFT JOIN orders ON c_custkey = o_custkey
              GROUP BY c_custkey)
            SELECT c_count, CAST(COUNT(*) AS BIGINT) AS n_customers
            FROM percust GROUP BY c_count
        """,
        "promo_revenue_by_type": """
            WITH li AS (
              SELECT p_type,
                     CAST(FLOOR(l_extendedprice * 100.0 + 0.5) AS BIGINT)
                       * (10000 - CAST(FLOOR(l_discount * 10000.0 + 0.5) AS BIGINT))
                       AS rev_e6
              FROM lineitem JOIN part ON l_partkey = p_partkey)
            SELECT p_type, CAST(SUM(rev_e6) AS BIGINT) AS revenue_e6,
                   CAST(COUNT(*) AS BIGINT) AS n_items,
                   ROUND(CAST(SUM(rev_e6) AS DOUBLE)
                         / (SELECT CAST(SUM(rev_e6) AS DOUBLE) FROM li), 6)
                     AS revenue_share
            FROM li GROUP BY p_type
        """,
        "dau_engagement_by_month": """
            WITH ud AS (
              SELECT DISTINCT user_id,
                     CAST(year(ts) * 100 + month(ts) AS BIGINT) AS ym,
                     CAST(ts AS DATE) AS d
              FROM events)
            SELECT ym, CAST(COUNT(*) AS BIGINT) AS n_user_days,
                   CAST(COUNT(DISTINCT user_id) AS BIGINT) AS mau,
                   ROUND(CAST(COUNT(*) AS DOUBLE) / COUNT(DISTINCT user_id), 6)
                     AS avg_active_days
            FROM ud GROUP BY ym
        """,
        "gini_revenue_index": """
            WITH percust AS (
              SELECT o_custkey,
                     SUM(CAST(FLOOR(o_totalprice * 100.0 + 0.5) AS BIGINT)) AS cents
              FROM orders GROUP BY o_custkey),
            r AS (SELECT cents, ROW_NUMBER() OVER (ORDER BY cents) AS rn FROM percust)
            SELECT CAST(COUNT(*) AS BIGINT) AS n_customers,
                   SUM(cents) / 100.0 AS total_revenue,
                   ROUND(CAST(2 * SUM(rn * cents) - (COUNT(*) + 1) * SUM(cents)
                              AS DOUBLE) / (COUNT(*) * SUM(cents)), 6) AS gini
            FROM r
        """,
        "activity_streaks": """
            WITH d AS (
              SELECT DISTINCT user_id,
                     CAST(date_diff('day', DATE '1970-01-01', CAST(ts AS DATE))
                          AS BIGINT) AS day
              FROM events),
            r AS (SELECT user_id, day,
                         day - ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY day)
                           AS grp
                  FROM d),
            s AS (SELECT user_id, grp, CAST(COUNT(*) AS BIGINT) AS len
                  FROM r GROUP BY user_id, grp)
            SELECT user_id, CAST(SUM(len) AS BIGINT) AS n_active_days,
                   CAST(MAX(len) AS BIGINT) AS longest_streak,
                   CAST(COUNT(*) AS BIGINT) AS n_streaks
            FROM s GROUP BY user_id
        """,
        "market_share_by_year": """
            WITH tn AS (
              SELECT s_suppkey FROM supplier JOIN nation ON s_nationkey = n_nationkey
              WHERE n_name = 'NATION_3'),
            li AS (
              SELECT l_orderkey,
                     CAST(FLOOR(l_extendedprice * 100.0 + 0.5) AS BIGINT)
                       * (10000 - CAST(FLOOR(l_discount * 10000.0 + 0.5) AS BIGINT))
                       AS rev_e6,
                     CASE WHEN l_suppkey IN (SELECT s_suppkey FROM tn)
                          THEN 1 ELSE 0 END AS tgt
              FROM lineitem)
            SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
                   CAST(SUM(rev_e6) AS BIGINT) AS revenue_e6,
                   CAST(SUM(rev_e6 * tgt) AS BIGINT) AS target_revenue_e6,
                   ROUND(CAST(SUM(rev_e6 * tgt) AS DOUBLE) / SUM(rev_e6), 6)
                     AS market_share
            FROM li JOIN orders ON l_orderkey = o_orderkey
            GROUP BY o_year
        """,
        "syllable_stats_by_source": """
            WITH tok AS (
              SELECT source, unnest(string_split(text, ' ')) AS w FROM documents),
            agg AS (
              SELECT source, CAST(COUNT(*) AS BIGINT) AS n_words,
                     CAST(SUM(len(regexp_extract_all(w, '[aeiouAEIOU]+')))
                          AS BIGINT) AS n_syllables,
                     CAST(SUM(CASE WHEN len(regexp_extract_all(w, '[aeiouAEIOU]+')) = 1
                                   THEN 1 ELSE 0 END) AS BIGINT) AS n_mono
              FROM tok GROUP BY source),
            d AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs
                  FROM documents GROUP BY source)
            SELECT d.source, n_docs, n_words, n_syllables, n_mono,
                   20.0 - 15.0 * (CAST(n_mono AS DOUBLE) / n_words) AS forcast_grade
            FROM d JOIN agg ON d.source = agg.source
        """,
        "null_profile": """
            SELECT 'doc_id' AS column, CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(COUNT(*) - COUNT(doc_id) AS BIGINT) AS n_null,
                   CAST(0 AS BIGINT) AS n_blank FROM documents
            UNION ALL
            SELECT 'text', CAST(COUNT(*) AS BIGINT),
                   CAST(COUNT(*) - COUNT(text) AS BIGINT),
                   CAST(SUM(CASE WHEN text = '' THEN 1 ELSE 0 END) AS BIGINT)
            FROM documents
            UNION ALL
            SELECT 'lang', CAST(COUNT(*) AS BIGINT),
                   CAST(COUNT(*) - COUNT(lang) AS BIGINT),
                   CAST(SUM(CASE WHEN lang = '' THEN 1 ELSE 0 END) AS BIGINT)
            FROM documents
            UNION ALL
            SELECT 'source', CAST(COUNT(*) AS BIGINT),
                   CAST(COUNT(*) - COUNT(source) AS BIGINT),
                   CAST(SUM(CASE WHEN source = '' THEN 1 ELSE 0 END) AS BIGINT)
            FROM documents
            UNION ALL
            SELECT 'n_chars', CAST(COUNT(*) AS BIGINT),
                   CAST(COUNT(*) - COUNT(n_chars) AS BIGINT),
                   CAST(0 AS BIGINT) FROM documents
        """,
        "vocab_oov_rate": """
            WITH tok AS (
              SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents),
            vocab AS (
              SELECT t FROM tok GROUP BY t
              ORDER BY COUNT(*) DESC, t ASC LIMIT 20)
            SELECT doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_tokens,
                   CAST(SUM(CASE WHEN t IN (SELECT t FROM vocab) THEN 0 ELSE 1 END)
                        AS BIGINT) AS n_oov,
                   ROUND(CAST(SUM(CASE WHEN t IN (SELECT t FROM vocab) THEN 0 ELSE 1
                        END) AS DOUBLE) / COUNT(*), 6) AS oov_rate
            FROM tok GROUP BY doc_id
        """,
        "tumbling_window_agg": """
            SELECT user_id, strftime(date_trunc('hour', ts), '%Y-%m-%d %H:%M:%S')
                     AS window_start,
              ROUND(SUM(value), 4) AS sum_value, CAST(COUNT(*) AS BIGINT) AS n_events
            FROM events GROUP BY user_id, date_trunc('hour', ts)
        """,
        "sliding_window_agg": """
            WITH w AS (
              SELECT user_id, value,
                date_trunc('hour', ts) - to_hours(k) AS window_start
              FROM events, (SELECT unnest([0, 1]) AS k))
            SELECT user_id, strftime(window_start, '%Y-%m-%d %H:%M:%S') AS window_start,
              ROUND(SUM(value), 4) AS sum_value, CAST(COUNT(*) AS BIGINT) AS n_events
            FROM w GROUP BY user_id, window_start
        """,
        "topk_per_group": """
            SELECT o_orderpriority, o_orderkey, o_totalprice FROM orders
            QUALIFY ROW_NUMBER() OVER (PARTITION BY o_orderpriority
              ORDER BY o_totalprice DESC, o_orderkey) <= 2
        """,
        "distinct_pairs": (
            "SELECT DISTINCT l_returnflag, l_linestatus FROM lineitem"
        ),
        "distinct_count_by_group": """
            SELECT source, CAST(COUNT(DISTINCT n_chars) AS BIGINT) AS n_distinct_chars
            FROM documents GROUP BY source
        """,
        "mean_std_agg": """
            SELECT l_returnflag, ROUND(AVG(l_quantity), 4) AS avg_qty,
              ROUND(STDDEV_SAMP(l_quantity), 4) AS std_qty,
              CAST(COUNT(*) AS BIGINT) AS n_rows
            FROM lineitem GROUP BY l_returnflag
        """,
        "median_by_group": """
            SELECT l_returnflag, CAST(median(l_quantity) AS DOUBLE) AS median_qty
            FROM lineitem GROUP BY l_returnflag
        """,
        "string_agg_by_source": """
            SELECT source,
              string_agg(CAST(doc_id AS VARCHAR), '|' ORDER BY doc_id) AS doc_ids
            FROM documents GROUP BY source
        """,
        "rank_in_group": """
            SELECT o_orderkey, o_orderpriority,
              CAST(ROW_NUMBER() OVER (PARTITION BY o_orderpriority
                ORDER BY o_totalprice DESC, o_orderkey) AS BIGINT) AS rank_in_prio
            FROM orders
        """,
        "corr_by_group": """
            WITH m AS (
              SELECT l_returnflag, CAST(COUNT(*) AS DOUBLE) AS n,
                SUM(l_quantity) AS sx, SUM(l_extendedprice) AS sy,
                SUM(l_quantity * l_extendedprice) AS sxy,
                SUM(l_quantity * l_quantity) AS sxx,
                SUM(l_extendedprice * l_extendedprice) AS syy
              FROM lineitem GROUP BY l_returnflag)
            SELECT l_returnflag,
              ROUND((n * sxy - sx * sy) /
                    sqrt((n * sxx - sx * sx) * (n * syy - sy * sy)), 4) AS corr_r
            FROM m
        """,
        "moment_stats_by_group": """
            SELECT l_returnflag,
              ROUND(skewness(l_quantity), 4) AS skew_qty,
              ROUND(kurtosis(l_quantity), 4) AS kurt_qty,
              ROUND(covar_samp(l_quantity, l_discount), 6) AS covar_qty_disc,
              ROUND(regr_slope(l_extendedprice, l_quantity), 4) AS slope_price_qty
            FROM lineitem GROUP BY l_returnflag
        """,
        "entropy_by_group": """
            SELECT source, ROUND(entropy(lang), 4) AS lang_entropy
            FROM documents GROUP BY source
        """,
        "copurchase_pairs": """
            WITH pairs AS (
              SELECT DISTINCT a.l_orderkey, a.l_partkey AS pa, b.l_partkey AS pb
              FROM lineitem a JOIN lineitem b
                ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey)
            SELECT pa AS part_a, pb AS part_b,
              CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM pairs GROUP BY pa, pb
            ORDER BY n_orders DESC, part_a, part_b LIMIT 20
        """,
        "degree_distribution": """
            WITH e AS (
              SELECT DISTINCT a.l_partkey AS pa, b.l_partkey AS pb
              FROM lineitem a JOIN lineitem b
                ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
            d AS (
              SELECT node, COUNT(*) AS degree FROM (
                SELECT pa AS node FROM e UNION ALL SELECT pb AS node FROM e)
              GROUP BY node)
            SELECT CAST(degree AS BIGINT) AS degree,
              CAST(COUNT(*) AS BIGINT) AS n_nodes
            FROM d GROUP BY degree ORDER BY degree
        """,
        "triangle_count": """
            WITH e AS (
              SELECT DISTINCT a.l_partkey AS pa, b.l_partkey AS pb
              FROM lineitem a JOIN lineitem b
                ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
            n AS (
              SELECT COUNT(DISTINCT node) AS c FROM (
                SELECT pa AS node FROM e UNION ALL SELECT pb AS node FROM e)),
            t AS (
              SELECT COUNT(*) AS c
              FROM e e1 JOIN e e2 ON e2.pa = e1.pb
                        JOIN e e3 ON e3.pa = e1.pa AND e3.pb = e2.pb)
            SELECT CAST(n.c AS BIGINT) AS n_nodes,
              CAST((SELECT COUNT(*) FROM e) AS BIGINT) AS n_edges,
              CAST(t.c AS BIGINT) AS n_triangles
            FROM n, t
        """,
        "resample_ffill_hourly": """
            WITH ev AS (
              SELECT user_id,
                CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS hr,
                event_id, value
              FROM events),
            ph AS (
              SELECT user_id, hr, arg_max(value, event_id) AS v
              FROM ev GROUP BY user_id, hr),
            b AS (SELECT user_id, MIN(hr) AS mn, MAX(hr) AS mx FROM ev GROUP BY user_id),
            grid AS (SELECT user_id, unnest(generate_series(mn, mx)) AS hr FROM b)
            SELECT g.user_id, g.hr AS hour_id,
              last_value(ph.v IGNORE NULLS)
                OVER (PARTITION BY g.user_id ORDER BY g.hr) AS value_ff
            FROM grid g LEFT JOIN ph ON ph.user_id = g.user_id AND ph.hr = g.hr
        """,
        "cube_counts": """
            SELECT o_orderstatus, o_orderpriority,
              CAST(COUNT(*) AS BIGINT) AS n,
              ROUND(SUM(o_totalprice), 2) AS sum_price
            FROM orders GROUP BY CUBE(o_orderstatus, o_orderpriority)
        """,
        "chi2_cell_residuals": """
            WITH c AS (
              SELECT o_orderstatus, o_orderpriority,
                     CAST(COUNT(*) AS BIGINT) AS observed
              FROM orders GROUP BY o_orderstatus, o_orderpriority),
            m AS (
              SELECT c.*,
                SUM(observed) OVER (PARTITION BY o_orderstatus) AS row_n,
                SUM(observed) OVER (PARTITION BY o_orderpriority) AS col_n,
                SUM(observed) OVER () AS n
              FROM c)
            SELECT o_orderstatus, o_orderpriority, observed,
              ROUND(CAST(row_n * col_n AS DOUBLE) / CAST(n AS DOUBLE), 6)
                AS expected_r,
              ROUND((CAST(observed AS DOUBLE)
                     - CAST(row_n * col_n AS DOUBLE) / CAST(n AS DOUBLE))
                    / SQRT(CAST(row_n * col_n AS DOUBLE) / CAST(n AS DOUBLE)), 6)
                AS residual_r
            FROM m
        """,
        "grouping_sets_counts": """
            SELECT o_orderstatus, o_orderpriority,
              CAST(GROUPING(o_orderstatus) * 2
                   + GROUPING(o_orderpriority) AS BIGINT) AS gid,
              CAST(COUNT(*) AS BIGINT) AS n,
              ROUND(SUM(o_totalprice), 2) AS sum_price
            FROM orders
            GROUP BY GROUPING SETS ((o_orderstatus), (o_orderpriority), ())
        """,
        "bigram_pmi_topk": """
            WITH toks AS (
              SELECT doc_id,
                unnest(string_split(text, ' ')) AS tok,
                unnest(generate_series(1, len(string_split(text, ' ')))) AS pos
              FROM documents),
            bg AS (
              SELECT doc_id, tok AS w2,
                LAG(tok) OVER (PARTITION BY doc_id ORDER BY pos) AS w1
              FROM toks),
            bc AS (
              SELECT w1, w2, COUNT(*) AS c FROM bg
              WHERE w1 IS NOT NULL GROUP BY w1, w2),
            uc AS (SELECT tok, COUNT(*) AS c FROM toks GROUP BY tok),
            tot AS (
              SELECT CAST((SELECT COUNT(*) FROM toks) AS DOUBLE) AS n,
                     CAST((SELECT SUM(c) FROM bc) AS DOUBLE) AS m)
            SELECT b.w1, b.w2, CAST(b.c AS BIGINT) AS n_pair,
              ROUND(log2((CAST(b.c AS DOUBLE) / m) /
                ((CAST(u1.c AS DOUBLE) / n) * (CAST(u2.c AS DOUBLE) / n))), 4) AS pmi
            FROM bc b, tot, uc u1, uc u2
            WHERE u1.tok = b.w1 AND u2.tok = b.w2 AND b.c >= 5
            ORDER BY pmi DESC, w1, w2 LIMIT 30
        """,
        "shuffle_join_detail": """
            SELECT l.l_orderkey, CAST(l.l_linenumber AS BIGINT) AS l_linenumber,
              l.l_extendedprice, o.o_custkey, o.o_orderpriority
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
        """,
        "interval_islands": """
            WITH e AS (
              SELECT user_id, event_id, ts AS s,
                     ts + INTERVAL 300 SECOND AS en
              FROM events),
            o AS (
              SELECT user_id, event_id, s, en,
                MAX(en) OVER (PARTITION BY user_id ORDER BY s, event_id
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS prev_max
              FROM e),
            g AS (
              SELECT user_id, s, en,
                SUM(CASE WHEN prev_max IS NULL OR s > prev_max THEN 1 ELSE 0 END)
                  OVER (PARTITION BY user_id ORDER BY s, event_id) AS isl
              FROM o),
            i AS (
              SELECT user_id, isl, MIN(s) AS s0, MAX(en) AS e1
              FROM g GROUP BY user_id, isl)
            SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_islands,
              CAST(SUM(date_diff('second', s0, e1)) AS BIGINT) AS covered_s
            FROM i GROUP BY user_id
        """,
        "global_row_number": """
            SELECT o_orderkey,
              CAST(ROW_NUMBER() OVER (ORDER BY o_totalprice DESC, o_orderkey) AS BIGINT) AS rn
            FROM orders
        """,
        "paragraph_dedup": """
            WITH d AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),
            ex AS (SELECT doc_id, w,
              unnest(range(0, CAST(ceil(len(w) / 20.0) AS BIGINT))) AS ci FROM d),
            ch AS (SELECT doc_id, ci,
              CASE WHEN doc_id % 5 = 0 AND ci = 0
                   THEN 'subscribe to our newsletter for daily updates'
                   ELSE array_to_string(list_slice(w, ci * 20 + 1, ci * 20 + 20), ' ')
              END AS para
              FROM ex),
            rk AS (SELECT doc_id, ci, para,
              ROW_NUMBER() OVER (PARTITION BY para ORDER BY doc_id, ci) AS rn
              FROM ch)
            SELECT doc_id, string_agg(para, ' ' ORDER BY ci) AS text_dedup
            FROM rk WHERE rn = 1 GROUP BY doc_id
        """,
        "boilerplate_line_removal": f"""
            WITH d AS (SELECT doc_id, {host} AS host,
                              string_split(text, ' ') AS w FROM documents),
            ex AS (SELECT doc_id, host, w,
              unnest(range(0, CAST(ceil(len(w) / 20.0) AS BIGINT))) AS ci FROM d),
            ch AS (SELECT doc_id, host, ci,
              CASE WHEN doc_id % 3 = 0 AND ci = 0
                   THEN 'copyright ' || host || ' all rights reserved'
                   WHEN doc_id % 100 = 7 AND ci = 1
                   THEN 'limited time offer act now'
                   ELSE array_to_string(list_slice(w, ci * 20 + 1, ci * 20 + 20), ' ')
              END AS para
              FROM ex),
            cnt AS (SELECT host, para, COUNT(DISTINCT doc_id) AS nd
                    FROM ch GROUP BY host, para)
            SELECT ch.doc_id, string_agg(ch.para, ' ' ORDER BY ch.ci) AS text_clean
            FROM ch JOIN cnt ON ch.host = cnt.host AND ch.para = cnt.para
            WHERE cnt.nd < 5
            GROUP BY ch.doc_id
        """,
        "url_canonical_dedup": f"""
            WITH g AS (
              SELECT doc_id, doc_id - doc_id % 3 AS gid FROM documents),
            h AS (
              SELECT doc_id, gid, {_host_case_sql('gid')} AS host FROM g),
            b AS (
              SELECT doc_id,
                'https://' || host || '/doc/' ||
                  lpad(CAST(gid AS VARCHAR), 8, '0') AS base,
                'https://' || upper(host) || '/doc/' ||
                  lpad(CAST(gid AS VARCHAR), 8, '0') AS base_uc
              FROM h),
            m AS (
              SELECT doc_id, CASE doc_id % 4
                WHEN 0 THEN base
                WHEN 1 THEN base || '?utm_source=feed&utm_medium=rss'
                WHEN 2 THEN base_uc
                ELSE base || '/#top' END AS u FROM b),
            s AS (
              SELECT doc_id, split_part(split_part(u, '#', 1), '?', 1) AS u2 FROM m),
            c AS (
              SELECT doc_id, 'https://' || lower(split_part(u2, '/', 3)) ||
                rtrim(substr(u2, 9 + length(split_part(u2, '/', 3))), '/')
                AS canonical_url
              FROM s)
            SELECT canonical_url, CAST(COUNT(*) AS BIGINT) AS n_variants,
              MIN(doc_id) AS first_doc
            FROM c GROUP BY canonical_url
        """,
        "extract_outlinks": f"""
            WITH d AS (
              SELECT doc_id, {host} AS host FROM documents
              WHERE doc_id % 50 <> 17 AND doc_id % 8 <> 5),
            nav AS (
              SELECT doc_id, host,
                '/sec' || CAST(unnest(range(0, 3 + doc_id % 4)) AS VARCHAR) AS path
              FROM d),
            fixed AS (
              SELECT doc_id, host,
                unnest(['/subscribe','/signin','/privacy','/terms']) AS path FROM d),
            rel AS (
              SELECT doc_id, host, unnest(['/rel/1','/rel/2','/rel/3']) AS path
              FROM d WHERE doc_id % 3 <> 0)
            SELECT doc_id, 'https://' || host || path AS link_url
            FROM (SELECT doc_id, host, path FROM nav
                  UNION ALL SELECT doc_id, host, path FROM fixed
                  UNION ALL SELECT doc_id, host, path FROM rel)
        """,
        "training_export_audit": """
            WITH ok AS (
              SELECT doc_id, text FROM documents
              WHERE doc_id % 50 <> 17 AND length(text) > 0),
            f AS (
              SELECT doc_id, text,
                CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens,
                CAST(len(list_filter(string_split(text, ' '),
                     x -> list_contains(['the', 'a', 'and', 'row', 'data'], x)))
                     AS BIGINT) AS n_stop
              FROM ok),
            k AS (
              SELECT doc_id, text, n_tokens FROM f
              WHERE n_tokens BETWEEN 10 AND 200 AND n_stop * 10 >= n_tokens),
            w AS (
              SELECT MIN(doc_id) AS doc_id, MIN(n_tokens) AS n_tokens
              FROM k GROUP BY text),
            s AS (
              SELECT n_tokens,
                CASE WHEN ((doc_id % 2147483648) * 2654435761) % 2147483648 % 100 < 80
                       THEN 0
                     WHEN ((doc_id % 2147483648) * 2654435761) % 2147483648 % 100 < 90
                       THEN 1
                     ELSE 2 END AS split
              FROM w)
            SELECT CAST(COUNT(*) AS BIGINT) AS n_unique,
              CAST(SUM(CASE WHEN split = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_train,
              CAST(SUM(CASE WHEN split = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_val,
              CAST(SUM(CASE WHEN split = 2 THEN 1 ELSE 0 END) AS BIGINT) AS n_test,
              CAST(SUM(CASE WHEN split = 0 THEN n_tokens ELSE 0 END) AS BIGINT) AS tok_train,
              CAST(SUM(CASE WHEN split = 1 THEN n_tokens ELSE 0 END) AS BIGINT) AS tok_val,
              CAST(SUM(CASE WHEN split = 2 THEN n_tokens ELSE 0 END) AS BIGINT) AS tok_test
            FROM s
        """,
        "first_last_value_in_group": """
            SELECT o_custkey,
              FIRST(o_totalprice ORDER BY o_orderdate, o_orderkey) AS first_price,
              LAST(o_totalprice ORDER BY o_orderdate, o_orderkey) AS last_price
            FROM orders GROUP BY o_custkey
        """,
        "percentile_cont_by_group": """
            SELECT o_orderpriority,
              ROUND(quantile_cont(o_totalprice, 0.9), 4) AS p90_cont
            FROM orders GROUP BY o_orderpriority
        """,
        "late_event_filter": """
            WITH p AS (
              SELECT event_id, user_id,
                epoch_us(ts) - (event_id % 7) * 3600000000 AS e
              FROM events),
            w AS (
              SELECT event_id, user_id, e,
                MAX(e) OVER (PARTITION BY user_id ORDER BY event_id
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm
              FROM p)
            SELECT event_id, user_id, CAST(wm - e AS BIGINT) AS late_by_us
            FROM w WHERE wm - e > 300000000
        """,
        "tumbling_distinct_users": """
            SELECT strftime(date_trunc('hour', ts), '%Y-%m-%d %H:%M:%S') AS window_start,
              CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events GROUP BY 1
        """,
        "sliding_distinct_users": """
            WITH e AS (
              SELECT user_id,
                (epoch_us(ts) // 1000000 // 1800) * 1800 AS w1
              FROM events),
            w AS (
              SELECT user_id, w1 AS ws FROM e
              UNION ALL SELECT user_id, w1 - 1800 AS ws FROM e)
            SELECT strftime(make_timestamp(ws * 1000000), '%Y-%m-%d %H:%M:%S')
                AS window_start,
              CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
            FROM w GROUP BY ws
        """,
        "running_distinct_types": """
            WITH o AS (
              SELECT event_id, user_id, ts,
                ROW_NUMBER() OVER (
                  PARTITION BY user_id, event_type ORDER BY ts, event_id) AS occ
              FROM events)
            SELECT event_id,
              CAST(SUM(CASE WHEN occ = 1 THEN 1 ELSE 0 END) OVER (
                PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT)
                AS n_distinct_types
            FROM o
        """,
        "bfs_hops": """
            WITH RECURSIVE e0 AS (
              SELECT DISTINCT o_custkey AS cust, l_suppkey + 4294967296 AS supp
              FROM orders JOIN lineitem ON l_orderkey = o_orderkey
              WHERE l_quantity >= 48),
            edges AS (
              SELECT cust AS src, supp AS dst FROM e0
              UNION ALL SELECT supp AS src, cust AS dst FROM e0),
            bfs(node, hops) AS (
              SELECT CAST(1 AS BIGINT) AS node, 0 AS hops
              UNION
              SELECT e.dst AS node, b.hops + 1 AS hops
              FROM bfs b JOIN edges e ON e.src = b.node WHERE b.hops < 4)
            SELECT node, CAST(MIN(hops) AS BIGINT) AS hops FROM bfs GROUP BY node
        """,
        "dup_span_coverage": """
            WITH tok AS (
              SELECT doc_id, unnest(string_split(text, ' ')) AS token,
                     generate_subscripts(string_split(text, ' '), 1) AS pos
              FROM documents),
            sp AS (
              SELECT doc_id, pos,
                     token || ' ' || LEAD(token, 1) OVER w || ' '
                           || LEAD(token, 2) OVER w || ' '
                           || LEAD(token, 3) OVER w AS span,
                     LEAD(token, 3) OVER w IS NOT NULL AS whole
              FROM tok WINDOW w AS (PARTITION BY doc_id ORDER BY pos)),
            q AS (
              SELECT span FROM sp WHERE whole
              GROUP BY span HAVING COUNT(DISTINCT doc_id) > 1),
            h AS (
              SELECT s.doc_id, s.pos FROM sp s JOIN q USING (span) WHERE s.whole),
            o AS (
              SELECT doc_id, pos,
                MAX(pos + 4) OVER (PARTITION BY doc_id ORDER BY pos
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS prev_end
              FROM h),
            g AS (
              SELECT doc_id, pos,
                SUM(CASE WHEN prev_end IS NULL OR pos > prev_end THEN 1 ELSE 0 END)
                  OVER (PARTITION BY doc_id ORDER BY pos) AS isl
              FROM o),
            i AS (
              SELECT doc_id, isl, MIN(pos) AS s0, MAX(pos + 4) AS e1
              FROM g GROUP BY doc_id, isl)
            SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_spans,
              CAST(SUM(e1 - s0) AS BIGINT) AS covered_tokens
            FROM i GROUP BY doc_id
        """,
        "host_reputation_filter": f"""
            WITH ok AS (
              SELECT doc_id, {host} AS host,
                CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens
              FROM documents WHERE doc_id % 50 <> 17 AND length(text) > 0),
            h AS (
              SELECT host FROM ok GROUP BY host
              HAVING SUM(n_tokens) * 100 >= 5000 * COUNT(*)),
            k AS (
              SELECT host FROM h
              WHERE host NOT IN ('forum.example.dev', 'tiny-c.example.xyz'))
            SELECT o.doc_id, o.host FROM ok o JOIN k USING (host)
        """,
        "table_checksum": """
            SELECT CAST(SUM(CAST(('0x' || substr(sha256(
                     CAST(doc_id AS VARCHAR) || '|' || text), 1, 15)) AS BIGINT))
                   % 9223372036854775783 AS BIGINT) AS checksum,
              CAST(COUNT(*) AS BIGINT) AS n_rows
            FROM documents
        """,
        "weighted_avg_by_group": """
            SELECT l_returnflag,
              ROUND(SUM(l_discount * l_extendedprice) / SUM(l_extendedprice), 4)
                AS w_avg_discount
            FROM lineitem GROUP BY l_returnflag
        """,
        "benford_first_digit": """
            WITH d AS (
              SELECT CAST(FLOOR(o_totalprice) AS BIGINT) AS v
              FROM orders WHERE o_totalprice >= 1),
            f AS (
              SELECT CAST(substr(CAST(v AS VARCHAR), 1, 1) AS BIGINT) AS digit
              FROM d)
            SELECT digit, CAST(COUNT(*) AS BIGINT) AS n FROM f GROUP BY digit
        """,
        "skyline_orders": """
            SELECT o1.o_orderkey, o1.o_totalprice,
              strftime(o1.o_orderdate, '%Y-%m-%d') AS o_orderdate
            FROM orders o1
            WHERE NOT EXISTS (
              SELECT 1 FROM orders o2
              WHERE o2.o_totalprice >= o1.o_totalprice
                AND o2.o_orderdate <= o1.o_orderdate
                AND (o2.o_totalprice > o1.o_totalprice
                     OR o2.o_orderdate < o1.o_orderdate))
        """,
        "merge_upsert": """
            WITH upd AS (
              SELECT doc_id, n_chars + 1 AS n_chars FROM documents
              WHERE doc_id % 5 = 0
              UNION ALL
              SELECT doc_id + 10000000 AS doc_id, n_chars FROM documents
              WHERE doc_id % 11 = 0)
            SELECT CAST(COALESCE(u.doc_id, b.doc_id) AS BIGINT) AS doc_id,
              CAST(COALESCE(u.n_chars, b.n_chars) AS BIGINT) AS n_chars
            FROM documents b FULL OUTER JOIN upd u ON b.doc_id = u.doc_id
        """,
        "time_weighted_avg_per_user": """
            WITH o AS (
              SELECT user_id, value, epoch_us(ts) AS t,
                LEAD(epoch_us(ts)) OVER (
                  PARTITION BY user_id ORDER BY ts, event_id) AS tn
              FROM events)
            SELECT user_id,
              ROUND(SUM(value * (tn - t)) / SUM(tn - t), 4) AS twap
            FROM o WHERE tn IS NOT NULL GROUP BY user_id
        """,
        "winsorized_mean_by_group": """
            WITH q AS (
              SELECT o_orderpriority,
                quantile_disc(o_totalprice, 0.1) AS qlo,
                quantile_disc(o_totalprice, 0.9) AS qhi
              FROM orders GROUP BY o_orderpriority)
            SELECT o.o_orderpriority,
              ROUND(AVG(LEAST(GREATEST(o.o_totalprice, q.qlo), q.qhi)), 4) AS w_mean
            FROM orders o JOIN q USING (o_orderpriority)
            GROUP BY o.o_orderpriority
        """,
        "chi2_independence": """
            WITH c AS (
              SELECT event_type, CAST(user_id % 4 AS BIGINT) AS cohort,
                CAST(COUNT(*) AS DOUBLE) AS o
              FROM events GROUP BY 1, 2),
            r AS (SELECT event_type, SUM(o) AS rt FROM c GROUP BY 1),
            k AS (SELECT cohort, SUM(o) AS ct FROM c GROUP BY 1),
            n AS (SELECT SUM(o) AS tot FROM c)
            SELECT ROUND(SUM(
                (c.o - r.rt * k.ct / tot) * (c.o - r.rt * k.ct / tot)
                / (r.rt * k.ct / tot)), 4) AS chi2,
              CAST(COUNT(*) AS BIGINT) AS n_cells
            FROM c, r, k, n
            WHERE c.event_type = r.event_type AND c.cohort = k.cohort
        """,
        "export_roundtrip_manifest": """
            SELECT CAST(doc_id % 16 AS BIGINT) AS part_id,
              CAST(COUNT(*) AS BIGINT) AS n_rows,
              CAST(SUM(CAST(('0x' || substr(sha256(
                     CAST(doc_id AS VARCHAR) || '|' || text), 1, 15)) AS BIGINT))
                   % 9223372036854775783 AS BIGINT) AS checksum
            FROM documents GROUP BY 1
        """,
        "windowed_topk_types": """
            WITH c AS (
              SELECT strftime(date_trunc('hour', ts), '%Y-%m-%d %H:%M:%S') AS window_start,
                event_type, COUNT(*) AS n
              FROM events GROUP BY 1, 2),
            r AS (
              SELECT window_start, event_type, n,
                ROW_NUMBER() OVER (
                  PARTITION BY window_start ORDER BY n DESC, event_type) AS rk
              FROM c)
            SELECT window_start, event_type, CAST(n AS BIGINT) AS n
            FROM r WHERE rk <= 2
        """,
        "stratified_sample_by_decile": """
            WITH t AS (
              SELECT doc_id, n_chars,
                NTILE(10) OVER (ORDER BY n_chars, doc_id) AS tile,
                ((doc_id % 2147483648) * 2654435761) % 2147483648 AS hh
              FROM documents),
            r AS (
              SELECT tile, doc_id,
                ROW_NUMBER() OVER (PARTITION BY tile ORDER BY hh, doc_id) AS rk
              FROM t)
            SELECT CAST(tile AS BIGINT) AS tile, doc_id FROM r WHERE rk <= 20
        """,
        "intersect_custkeys": """
            SELECT CAST(o_custkey AS BIGINT) AS custkey FROM orders
            INTERSECT
            SELECT c_custkey FROM customer WHERE c_acctbal > 5000
        """,
        "except_custkeys": """
            SELECT CAST(o_custkey AS BIGINT) AS custkey FROM orders
            EXCEPT
            SELECT c_custkey FROM customer WHERE c_acctbal > 5000
        """,
        "dense_rank_in_group": """
            SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber,
              l_suppkey,
              CAST(DENSE_RANK() OVER (
                PARTITION BY l_suppkey ORDER BY l_quantity) AS BIGINT) AS drank
            FROM lineitem
        """,
        "star_join_revenue": """
            SELECT l_orderkey, strftime(o_orderdate, '%Y-%m-%d') AS o_orderdate,
              ROUND(SUM(l_extendedprice * (1 - l_discount)), 4) AS revenue
            FROM customer, orders, lineitem
            WHERE c_mktsegment = 'BUILDING'
              AND c_custkey = o_custkey AND l_orderkey = o_orderkey
              AND o_orderdate < TIMESTAMP '1998-06-01'
              AND l_shipdate > TIMESTAMP '1998-06-01'
            GROUP BY l_orderkey, o_orderdate
            ORDER BY revenue DESC, l_orderkey LIMIT 10
        """,
        "mad_by_group": """
            SELECT l_returnflag, mad(l_extendedprice) AS mad_price
            FROM lineitem GROUP BY l_returnflag
        """,
        "unpivot_measures": """
            SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber,
              'l_quantity' AS measure, CAST(l_quantity AS DOUBLE) AS value
            FROM lineitem
            UNION ALL
            SELECT l_orderkey, CAST(l_linenumber AS BIGINT),
              'l_discount', CAST(l_discount AS DOUBLE) FROM lineitem
            UNION ALL
            SELECT l_orderkey, CAST(l_linenumber AS BIGINT),
              'l_tax', CAST(l_tax AS DOUBLE) FROM lineitem
        """,
        "temperature_mixture_allocation": """
            WITH c AS (
              SELECT source, CAST(SUM(n_chars) AS BIGINT) AS size_chars
              FROM documents GROUP BY source),
            w AS (
              SELECT source, size_chars,
                CAST(FLOOR(SQRT(size_chars * 1000000000000.0)) AS BIGINT)
                  AS weight_grid
              FROM c),
            t AS (SELECT SUM(weight_grid) AS wsum FROM w),
            q AS (
              SELECT w.*, (100000 * weight_grid) // t.wsum AS base,
                     (100000 * weight_grid) % t.wsum AS rem
              FROM w, t),
            d AS (SELECT 100000 - SUM(base) AS deficit FROM q),
            r AS (
              SELECT q.*, ROW_NUMBER() OVER (ORDER BY rem DESC, source) AS rk
              FROM q)
            SELECT source, size_chars, weight_grid,
              CAST(base + CASE WHEN rk <= d.deficit THEN 1 ELSE 0 END
                   AS BIGINT) AS alloc
            FROM r, d
        """,
        "source_mixture_sample": """
            WITH h AS (
              SELECT doc_id, source,
                ((doc_id % 2147483648) * 2654435761) % 2147483648 AS hh
              FROM documents),
            r AS (
              SELECT doc_id, source,
                ROW_NUMBER() OVER (PARTITION BY source ORDER BY hh, doc_id) AS rk,
                COUNT(*) OVER (PARTITION BY source) AS n
              FROM h)
            SELECT doc_id, source FROM r
            WHERE rk <= LEAST(n, CAST(FLOOR(4 * SQRT(CAST(n AS DOUBLE))) AS BIGINT))
        """,
        "snapshot_diff": """
            WITH a AS (SELECT doc_id, n_chars FROM documents),
            b AS (
              SELECT doc_id,
                CASE WHEN doc_id % 5 = 0 THEN n_chars + 1 ELSE n_chars END AS n_chars
              FROM documents WHERE doc_id % 7 <> 0
              UNION ALL
              SELECT doc_id + 10000000 AS doc_id, n_chars
              FROM documents WHERE doc_id % 11 = 0
            )
            SELECT CAST(COALESCE(a.doc_id, b.doc_id) AS BIGINT) AS doc_id,
              CASE WHEN a.doc_id IS NULL THEN 'added'
                   WHEN b.doc_id IS NULL THEN 'removed'
                   ELSE 'changed' END AS change
            FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id
            WHERE a.doc_id IS NULL OR b.doc_id IS NULL OR a.n_chars <> b.n_chars
        """,
        "rfm_quartile_segments": """
            WITH m AS (
              SELECT o_custkey,
                MAX(epoch_us(o_orderdate)) AS last_us,
                CAST(COUNT(*) AS BIGINT) AS f_orders,
                CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT))
                     AS BIGINT) AS m_cents
              FROM orders GROUP BY o_custkey),
            g AS (SELECT MAX(last_us) AS gmax FROM m),
            r AS (
              SELECT o_custkey AS c_custkey,
                CAST((g.gmax - last_us) // 86400000000 AS BIGINT) AS r_days,
                f_orders, m_cents
              FROM m, g),
            t AS (
              SELECT
                quantile_disc(r_days, 0.25) AS r1, quantile_disc(r_days, 0.5) AS r2,
                quantile_disc(r_days, 0.75) AS r3,
                quantile_disc(f_orders, 0.25) AS f1, quantile_disc(f_orders, 0.5) AS f2,
                quantile_disc(f_orders, 0.75) AS f3,
                quantile_disc(m_cents, 0.25) AS m1, quantile_disc(m_cents, 0.5) AS m2,
                quantile_disc(m_cents, 0.75) AS m3
              FROM r)
            SELECT c_custkey, r_days, f_orders, m_cents,
              CAST(1 + CASE WHEN r_days > t.r1 THEN 1 ELSE 0 END
                     + CASE WHEN r_days > t.r2 THEN 1 ELSE 0 END
                     + CASE WHEN r_days > t.r3 THEN 1 ELSE 0 END AS BIGINT) AS r_score,
              CAST(1 + CASE WHEN f_orders > t.f1 THEN 1 ELSE 0 END
                     + CASE WHEN f_orders > t.f2 THEN 1 ELSE 0 END
                     + CASE WHEN f_orders > t.f3 THEN 1 ELSE 0 END AS BIGINT) AS f_score,
              CAST(1 + CASE WHEN m_cents > t.m1 THEN 1 ELSE 0 END
                     + CASE WHEN m_cents > t.m2 THEN 1 ELSE 0 END
                     + CASE WHEN m_cents > t.m3 THEN 1 ELSE 0 END AS BIGINT) AS m_score
            FROM r, t
        """,
        "scd2_history": """
            WITH a AS (SELECT doc_id, n_chars FROM documents),
            b AS (
              SELECT doc_id,
                CASE WHEN doc_id % 5 = 0 THEN n_chars + 1 ELSE n_chars END AS n_chars
              FROM documents WHERE doc_id % 7 <> 0
              UNION ALL
              SELECT doc_id + 10000000 AS doc_id, n_chars
              FROM documents WHERE doc_id % 11 = 0
            ),
            j AS (
              SELECT COALESCE(a.doc_id, b.doc_id) AS doc_id,
                     a.n_chars AS na, b.n_chars AS nb
              FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id)
            SELECT CAST(doc_id AS BIGINT) AS doc_id, CAST(na AS BIGINT) AS n_chars,
                   CAST(1 AS BIGINT) AS valid_from, CAST(2 AS BIGINT) AS valid_to
            FROM j WHERE na IS NOT NULL AND (nb IS NULL OR na <> nb)
            UNION ALL
            SELECT CAST(doc_id AS BIGINT), CAST(na AS BIGINT),
                   CAST(1 AS BIGINT), CAST(NULL AS BIGINT)
            FROM j WHERE na IS NOT NULL AND nb = na
            UNION ALL
            SELECT CAST(doc_id AS BIGINT), CAST(nb AS BIGINT),
                   CAST(2 AS BIGINT), CAST(NULL AS BIGINT)
            FROM j WHERE nb IS NOT NULL AND (na IS NULL OR na <> nb)
        """,
        "left_join_null_fill": """
            SELECT c.c_custkey, c.c_mktsegment,
              CAST(COALESCE(o.n, 0) AS BIGINT) AS n_orders
            FROM customer c LEFT JOIN (
              SELECT o_custkey, COUNT(*) AS n FROM orders GROUP BY o_custkey) o
            ON o.o_custkey = c.c_custkey
        """,
        "percent_rank_in_group": """
            SELECT o_orderkey, o_orderpriority,
              PERCENT_RANK() OVER (PARTITION BY o_orderpriority
                ORDER BY o_totalprice, o_orderkey) AS pct_rank
            FROM orders
        """,
        "event_transition_matrix": """
            WITH o AS (
              SELECT user_id, event_type,
                LAG(event_type) OVER (
                  PARTITION BY user_id ORDER BY ts, event_id) AS prev_type
              FROM events)
            SELECT prev_type AS from_type, event_type AS to_type,
              CAST(COUNT(*) AS BIGINT) AS n
            FROM o WHERE prev_type IS NOT NULL
            GROUP BY prev_type, event_type
        """,
        "incremental_ingest_dedup": """
            WITH day2 AS (
              SELECT * FROM documents WHERE doc_id % 3 = 0),
            w AS (
              SELECT text, MIN(doc_id) AS doc_id FROM day2
              WHERE text NOT IN (
                SELECT text FROM documents WHERE doc_id % 3 <> 0)
              GROUP BY text)
            SELECT d.doc_id, d.source, d.n_chars
            FROM day2 d JOIN w ON d.doc_id = w.doc_id
        """,
        "year_splice": """
            SELECT event_id, CAST(EXTRACT(month FROM ts) AS BIGINT) AS month,
              CAST(CASE WHEN EXTRACT(month FROM ts) = 12 THEN 2024 ELSE 2025 END
                   AS BIGINT) AS spliced_year
            FROM events
        """,
        "regex_tokenize_bpeish": """
            SELECT event_id,
              CAST(len(regexp_extract_all(props, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\\s]'))
                   AS BIGINT) AS n_tokens_bpe
            FROM events
        """,
        "skew_salt_plan": f"""
            SELECT {host} AS host, CAST(COUNT(*) AS BIGINT) AS n_pages,
              CAST(CEIL(COUNT(*) / 100.0) AS BIGINT) AS salt_k
            FROM documents GROUP BY 1
        """,
        "session_windows": """
            WITH d AS (
              SELECT user_id, ts,
                lag(ts) OVER (PARTITION BY user_id ORDER BY ts) AS prev
              FROM events)
            SELECT user_id,
              CAST(1 + SUM(CASE WHEN prev IS NOT NULL AND ts - prev > INTERVAL 30 MINUTE
                                THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions
            FROM d GROUP BY user_id
        """,
        "ann_topk": """
            WITH s AS (
              SELECT vec_id,
                ROUND(list_cosine_similarity(CAST(embedding AS DOUBLE[]),
                  (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings WHERE vec_id = 0)),
                  6) AS cos_r
              FROM embeddings WHERE vec_id <> 0)
            SELECT vec_id,
              CAST(ROW_NUMBER() OVER (ORDER BY cos_r DESC, vec_id) AS BIGINT) AS rank
            FROM s QUALIFY rank <= 10
        """,
        "classify_escalate": """
            SELECT doc_id,
              CASE WHEN ((doc_id * 7919) % 100) / 100.0 >= 0.8
                   THEN CASE WHEN n_chars % 2 = 0 THEN 'catA' ELSE 'catB' END
                   ELSE 'precise-' || lang END AS category,
              CASE WHEN ((doc_id * 7919) % 100) / 100.0 >= 0.8
                   THEN 'fast' ELSE 'precise' END AS model_used
            FROM documents
        """,
        "normalize_union": """
            WITH u AS (
              SELECT strftime(o_orderdate, '%Y-%m-%d') AS transaction_date,
                'order ' || CAST(o_orderkey AS VARCHAR) || ' ' || o_orderpriority
                  AS description,
                -o_totalprice AS amount, 'orders' AS source
              FROM orders
              UNION ALL
              SELECT strftime(ts, '%Y-%m-%d') AS transaction_date,
                'event ' || event_type AS description,
                CASE WHEN event_type IN ('click', 'view') THEN -value ELSE value END
                  AS amount,
                'events' AS source
              FROM events)
            SELECT transaction_date, description, amount, source FROM u
            WHERE transaction_date IS NOT NULL
              AND regexp_matches(transaction_date, '^\\d{4}-\\d{2}-\\d{2}$')
              AND trim(coalesce(description, '')) <> ''
              AND amount IS NOT NULL AND amount <> 0 AND abs(amount) >= 0.05
        """,
        "normalize_problems": """
            WITH u AS (
              SELECT -o_totalprice AS amount, 'orders' AS source FROM orders
              UNION ALL
              SELECT CASE WHEN event_type IN ('click', 'view') THEN -value
                          ELSE value END AS amount, 'events' AS source
              FROM events)
            SELECT source,
              CASE WHEN amount IS NULL OR amount = 0 THEN 'zero_amount'
                   WHEN abs(amount) < 0.05 THEN 'below_minimum' END AS problem_reason,
              CAST(COUNT(*) AS BIGINT) AS n_rows
            FROM u
            WHERE amount IS NULL OR amount = 0 OR abs(amount) < 0.05
            GROUP BY 1, 2
        """,
        "embedding_dup_exact": """
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
              ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                    CAST(b.embedding AS DOUBLE[])), 6) AS cos_r
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                  CAST(b.embedding AS DOUBLE[])), 6) >= 0.4
        """,
        "running_total": """
            SELECT event_id,
              ROUND(SUM(value) OVER (PARTITION BY user_id ORDER BY ts, event_id), 4)
                AS running_total
            FROM events
        """,
        "media_features": """
            SELECT doc_id, CAST(octet_length(CAST(text AS BLOB)) AS BIGINT) AS n_bytes,
              sha256(text) AS payload_sha
            FROM documents
        """,
        # rows-only (non-SQL-expressible): ann_topk_ivf (approximate probe),
        # embedding_near_dup / minhash_near_dup / ngram_jaccard_pairs (LSH),
        # simhash_fingerprints / simhash_dup_groups / fingerprint_rolling
        # (bit-level sketches), langid_predict (heuristic model),
        # approx_quantile_hist (bounded-error histogram quantile — accuracy
        # pinned vs exact np.quantile in tests/test_functions.py).
        "unigram_logprob_score": """
            WITH toks AS (
              SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents
            ),
            tot AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM toks),
            vocab AS (
              SELECT token, CAST(COUNT(*) AS DOUBLE) AS c FROM toks, tot
              GROUP BY token, tot.n HAVING COUNT(*) > 0.001 * tot.n
            )
            SELECT t.doc_id,
                   ROUND(AVG(COALESCE(ln(v.c / (SELECT n FROM tot)), ln(0.001))), 4)
                     AS lm_score
            FROM toks t LEFT JOIN vocab v USING (token)
            GROUP BY t.doc_id
        """,
        "lineitems_above_avg_qty": """
            WITH s AS (
              SELECT l_partkey,
                     CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sq,
                     COUNT(*) AS n
              FROM lineitem GROUP BY l_partkey)
            SELECT l.l_partkey,
              CAST(SUM(CASE WHEN CAST(l.l_quantity AS BIGINT) * s.n > s.sq
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_above
            FROM lineitem l JOIN s ON l.l_partkey = s.l_partkey
            GROUP BY l.l_partkey
        """,
        "histogram_orders_cents": """
            WITH c AS (
              SELECT CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)
                     // 1000000 AS bin
              FROM orders)
            SELECT bin, bin * 1000000 AS lo_cents,
                   CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM c GROUP BY bin
        """,
        "iqr_outliers_by_priority": """
            WITH c AS (
              SELECT o_orderpriority,
                     CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
              FROM orders),
            q AS (
              SELECT o_orderpriority,
                     CAST(quantile_disc(cents, 0.25) AS BIGINT) AS q1_cents,
                     CAST(quantile_disc(cents, 0.75) AS BIGINT) AS q3_cents
              FROM c GROUP BY o_orderpriority)
            SELECT c.o_orderpriority, q.q1_cents, q.q3_cents,
              CAST(SUM(CASE WHEN 2 * c.cents < 3 * q.q1_cents - q.q3_cents
                              OR 2 * c.cents > 3 * q.q3_cents - q.q1_cents
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_outliers
            FROM c JOIN q ON c.o_orderpriority = q.o_orderpriority
            GROUP BY c.o_orderpriority, q.q1_cents, q.q3_cents
        """,
        "relational_division": """
            WITH pr AS (
              SELECT COUNT(DISTINCT o_orderpriority) AS np FROM orders)
            SELECT o_custkey FROM orders GROUP BY o_custkey
            HAVING COUNT(DISTINCT o_orderpriority) = (SELECT np FROM pr)
        """,
        # decayed weights are dyadic rationals on a bounded grid, so the
        # float SUM is exact on both engines (see pipeline docstring)
        "decayed_count_by_type": """
            WITH w AS (
              SELECT event_type,
                1.0 / (CAST(1 AS BIGINT) << CAST(LEAST(GREATEST(
                  (1706745600000000 - epoch_us(ts)) // 86400000000,
                  0), 31) AS BIGINT)) AS wt
              FROM events)
            SELECT event_type, SUM(wt) AS decayed_count,
              CAST(COUNT(*) AS BIGINT) AS n
            FROM w GROUP BY event_type
        """,
        "word_len_stats_by_source": """
            WITH s AS (
              SELECT source, strlen(text) AS nb,
                strlen(text) - strlen(replace(text, ' ', '')) AS nsp
              FROM documents)
            SELECT source, CAST(SUM(nsp + 1) AS BIGINT) AS n_words,
              ROUND(CAST(SUM(nb - nsp) AS DOUBLE) / SUM(nsp + 1), 4)
                AS avg_word_len
            FROM s GROUP BY source
        """,
        "exact_distinct_tokens_by_source": """
            SELECT source,
              CAST(COUNT(DISTINCT token) AS BIGINT) AS n_distinct_tokens
            FROM (
              SELECT source, unnest(string_split(text, ' ')) AS token
              FROM documents)
            GROUP BY source
        """,
        "rolling_extremes_per_user": """
            SELECT event_id,
              MIN(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS roll_min,
              MAX(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS roll_max
            FROM events
        """,
        "ccnet_perplexity_buckets": """
            WITH toks AS (
              SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents
            ),
            tot AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM toks),
            vocab AS (
              SELECT token, CAST(COUNT(*) AS DOUBLE) AS c FROM toks, tot
              GROUP BY token, tot.n HAVING COUNT(*) > 0.001 * tot.n
            ),
            sc AS (
              SELECT t.doc_id,
                ROUND(AVG(COALESCE(ln(v.c / (SELECT n FROM tot)), ln(0.001))), 4)
                  AS lm_score
              FROM toks t LEFT JOIN vocab v USING (token)
              GROUP BY t.doc_id
            ),
            q AS (
              SELECT quantile_disc(lm_score, CAST(1 AS DOUBLE) / 3) AS t1,
                     quantile_disc(lm_score, CAST(2 AS DOUBLE) / 3) AS t2
              FROM sc)
            SELECT sc.doc_id, sc.lm_score,
              CASE WHEN sc.lm_score >= q.t2 THEN 'head'
                   WHEN sc.lm_score >= q.t1 THEN 'middle'
                   ELSE 'tail' END AS bucket
            FROM sc, q
        """,
        "chunk_passages": """
            WITH d AS (
              SELECT doc_id, text, ((strlen(text) - 1) // 80) + 1 AS nc
              FROM documents WHERE strlen(text) > 0),
            e AS (SELECT doc_id, text, unnest(range(0, nc)) AS k FROM d)
            SELECT doc_id, CAST(k AS BIGINT) AS chunk_id,
              substr(text, CAST(k * 80 + 1 AS BIGINT), 120) AS chunk_text
            FROM e
        """,
        "inlink_counts": f"""
            WITH d AS (
              SELECT doc_id, {host} AS host FROM documents
              WHERE doc_id % 50 <> 17 AND doc_id % 8 <> 5),
            nav AS (
              SELECT doc_id, host,
                '/sec' || CAST(unnest(range(0, 3 + doc_id % 4)) AS VARCHAR) AS path
              FROM d),
            fixed AS (
              SELECT doc_id, host,
                unnest(['/subscribe','/signin','/privacy','/terms']) AS path FROM d),
            rel AS (
              SELECT doc_id, host, unnest(['/rel/1','/rel/2','/rel/3']) AS path
              FROM d WHERE doc_id % 3 <> 0),
            links AS (
              SELECT doc_id, 'https://' || host || path AS link_url
              FROM (SELECT doc_id, host, path FROM nav
                    UNION ALL SELECT doc_id, host, path FROM fixed
                    UNION ALL SELECT doc_id, host, path FROM rel))
            SELECT link_url, CAST(COUNT(*) AS BIGINT) AS n_inlinks,
              CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS n_src_docs
            FROM links GROUP BY link_url
        """,
        "revenue_share_by_priority": """
            WITH c AS (
              SELECT o_orderpriority,
                CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
                  AS revenue_cents
              FROM orders GROUP BY o_orderpriority)
            SELECT o_orderpriority, revenue_cents,
              ROUND(CAST(revenue_cents AS DOUBLE)
                    / (SELECT CAST(SUM(revenue_cents) AS DOUBLE) FROM c), 6)
                AS share
            FROM c
        """,
        # threshold uses only /,*,+,sqrt (IEEE-correctly-rounded) over exact
        # integer sums, parenthesized identically to the numpy side
        "burst_detection_windows": """
            WITH w AS (
              SELECT event_type, epoch_us(ts) // 60000000 AS wm,
                CAST(COUNT(*) AS BIGINT) AS n
              FROM events GROUP BY 1, 2),
            s AS (
              SELECT event_type, CAST(SUM(n) AS BIGINT) AS sc,
                CAST(SUM(n * n) AS BIGINT) AS sc2,
                CAST(COUNT(*) AS BIGINT) AS nw
              FROM w GROUP BY 1)
            SELECT w.event_type,
              strftime(CAST(to_timestamp(w.wm * 60) AS TIMESTAMP),
                       '%Y-%m-%d %H:%M:%S') AS window_start,
              w.n AS n_events
            FROM w JOIN s USING (event_type)
            WHERE CAST(w.n AS DOUBLE) >
              CAST(s.sc AS DOUBLE) / s.nw
              + 3 * sqrt(GREATEST(
                  CAST(s.sc2 AS DOUBLE) / s.nw
                  - (CAST(s.sc AS DOUBLE) / s.nw)
                    * (CAST(s.sc AS DOUBLE) / s.nw), 0))
        """,
        "padding_waste_by_length_tile": """
            WITH r AS (
              SELECT doc_id, n_chars,
                NTILE(10) OVER (ORDER BY n_chars, doc_id) AS tile
              FROM documents)
            SELECT CAST(tile AS BIGINT) AS tile,
              CAST(COUNT(*) AS BIGINT) AS n_docs,
              CAST(MAX(n_chars) AS BIGINT) AS max_len,
              CAST(COUNT(*) * MAX(n_chars) - SUM(n_chars) AS BIGINT)
                AS padding_waste
            FROM r GROUP BY tile
        """,
        "span_corruption_stats": """
            WITH d AS (
              SELECT doc_id,
                CAST(len(string_split(text, ' ')) AS BIGINT) AS nt
              FROM documents),
            i AS (SELECT doc_id, nt, unnest(range(0, nt)) AS k FROM d),
            m AS (
              SELECT doc_id, nt, k,
                ((doc_id * 131071 + k) % 2147483648) * 2654435761
                  % 2147483648 % 100 < 15 AS is_m
              FROM i),
            s AS (
              SELECT doc_id, nt, is_m,
                LAG(is_m, 1, FALSE) OVER (PARTITION BY doc_id ORDER BY k)
                  AS prev
              FROM m)
            SELECT doc_id, CAST(nt AS BIGINT) AS n_tokens,
              CAST(SUM(CASE WHEN is_m THEN 1 ELSE 0 END) AS BIGINT)
                AS n_masked,
              CAST(SUM(CASE WHEN is_m AND NOT prev THEN 1 ELSE 0 END)
                AS BIGINT) AS n_spans
            FROM s GROUP BY doc_id, nt
        """,
        "association_rules_topk": """
            WITH base AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
            nn AS (SELECT CAST(COUNT(DISTINCT l_orderkey) AS BIGINT) AS n FROM base),
            item AS (
              SELECT l_partkey, CAST(COUNT(*) AS BIGINT) AS c
              FROM base GROUP BY l_partkey),
            pairs AS (
              SELECT a.l_partkey AS pa, b.l_partkey AS pb,
                CAST(COUNT(*) AS BIGINT) AS cab
              FROM base a JOIN base b
                ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
              GROUP BY 1, 2 HAVING COUNT(*) >= 2),
            dir AS (
              SELECT pa AS ante, pb AS cons, cab FROM pairs
              UNION ALL SELECT pb, pa, cab FROM pairs)
            SELECT d.ante, d.cons, d.cab AS n_orders,
              ROUND(CAST(d.cab AS DOUBLE) / ia.c, 6) AS confidence,
              ROUND(CAST(nn.n AS DOUBLE) * d.cab / (ia.c * ic.c), 6) AS lift
            FROM dir d, nn
            JOIN item ia ON ia.l_partkey = d.ante
            JOIN item ic ON ic.l_partkey = d.cons
            ORDER BY lift DESC, ante, cons LIMIT 20
        """,
        "ngram_contamination_filter": """
            WITH sp AS (
              SELECT doc_id, string_split(text, ' ') AS tk,
                ((doc_id % 2147483648) * 2654435761) % 2147483648 % 100 AS pct
              FROM documents),
            g AS (
              SELECT doc_id, pct,
                array_to_string(tk[k + 1 : k + 5], ' ') AS gram
              FROM (SELECT doc_id, pct, tk,
                      unnest(range(0, len(tk) - 4)) AS k
                    FROM sp WHERE len(tk) >= 5)),
            ev AS (SELECT DISTINCT gram FROM g WHERE pct >= 90)
            SELECT g.doc_id, CAST(COUNT(*) AS BIGINT) AS n_hits
            FROM g JOIN ev USING (gram)
            WHERE g.pct < 80
            GROUP BY g.doc_id
        """,
        "rolling_count_range_window": """
            SELECT event_id,
              CAST(COUNT(*) OVER (PARTITION BY user_id ORDER BY ts
                RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
                AS BIGINT) AS n_last_hour
            FROM events
        """,
        # parse-vs-arithmetic parity: the Ray side parses REAL PNG/GIF
        # header bytes; the oracle re-derives the same metadata from the
        # payload-synthesis arithmetic
        "image_header_features": """
            SELECT doc_id,
              CASE WHEN doc_id % 3 = 0 THEN 'image/png'
                   WHEN doc_id % 3 = 1 THEN 'image/gif' END AS img_format,
              CASE WHEN doc_id % 3 <= 1 THEN CAST(1 + doc_id % 7 AS BIGINT)
                END AS width,
              CASE WHEN doc_id % 3 <= 1 THEN CAST(1 + doc_id % 5 AS BIGINT)
                END AS height
            FROM documents
        """,
        "last_nonnull_carry": """
            SELECT event_id,
              LAST_VALUE(CASE WHEN event_id % 5 <> 0 THEN value END
                         IGNORE NULLS)
                OVER (PARTITION BY user_id ORDER BY ts, event_id
                      ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                AS carried
            FROM events
        """,
        "campaign_exposure_seconds": """
            WITH e AS (
              SELECT user_id, event_id, epoch_us(ts) AS s,
                     epoch_us(ts) + 300000000 AS en
              FROM events),
            o AS (
              SELECT user_id, event_id, s, en,
                MAX(en) OVER (PARTITION BY user_id ORDER BY s, event_id
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS prev_max
              FROM e),
            g AS (
              SELECT user_id, s, en,
                SUM(CASE WHEN prev_max IS NULL OR s > prev_max THEN 1 ELSE 0 END)
                  OVER (PARTITION BY user_id ORDER BY s, event_id) AS isl
              FROM o),
            i AS (
              SELECT user_id, isl, MIN(s) AS s0, MAX(en) AS e1
              FROM g GROUP BY user_id, isl),
            c AS (
              SELECT r_regionkey AS campaign_id,
                1704067200000000 + r_regionkey * 5 * 86400000000 AS cs,
                1704067200000000 + (r_regionkey * 5 + 8) * 86400000000 AS ce
              FROM region),
            ov AS (
              SELECT c.campaign_id,
                GREATEST(0, LEAST(i.e1, c.ce) - GREATEST(i.s0, c.cs)) AS ov_us
              FROM i, c)
            SELECT campaign_id,
              CAST(SUM(ov_us) AS BIGINT) AS exposure_us,
              CAST(SUM(CASE WHEN ov_us > 0 THEN 1 ELSE 0 END) AS BIGINT)
                AS n_islands
            FROM ov GROUP BY campaign_id
        """,
        "weighted_quantile_doc_len": """
            WITH d AS (
              SELECT strlen(text) AS len,
                CAST(len(string_split(text, ' ')) AS BIGINT) AS w
              FROM documents),
            g AS (SELECT len, CAST(SUM(w) AS BIGINT) AS w FROM d GROUP BY len),
            o AS (
              SELECT len, SUM(w) OVER (ORDER BY len) AS cum,
                (SELECT SUM(w) FROM g) AS tot
              FROM g)
            SELECT 'p50' AS q, CAST(MIN(len) AS BIGINT) AS weighted_len
            FROM o WHERE cum * 2 >= tot
            UNION ALL
            SELECT 'p90', CAST(MIN(len) AS BIGINT)
            FROM o WHERE cum * 10 >= tot * 9
        """,
        "top_tokens_per_doc": """
            WITH t AS (
              SELECT doc_id, unnest(string_split(text, ' ')) AS tok
              FROM documents),
            c AS (
              SELECT doc_id, tok, CAST(COUNT(*) AS BIGINT) AS n
              FROM t GROUP BY doc_id, tok),
            r AS (
              SELECT doc_id, tok, n,
                ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY n DESC, tok)
                  AS rn
              FROM c)
            SELECT doc_id, tok AS token, n FROM r WHERE rn <= 2
        """,
        "topk_with_ties_per_group": """
            SELECT l_suppkey, l_orderkey, l_linenumber, l_quantity
            FROM (
              SELECT l_suppkey, l_orderkey, l_linenumber, l_quantity,
                RANK() OVER (PARTITION BY l_suppkey ORDER BY l_quantity DESC)
                  AS rk
              FROM lineitem)
            WHERE rk <= 2
        """,
        "weekly_revenue_wow": """
            WITH w AS (
              SELECT date_trunc('week', o_orderdate) AS ws,
                CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
                  AS revenue_cents
              FROM orders GROUP BY 1)
            SELECT strftime(ws, '%Y-%m-%d') AS week_start, revenue_cents,
              CAST(CASE WHEN date_diff('day', LAG(ws) OVER (ORDER BY ws), ws) = 7
                   THEN revenue_cents - LAG(revenue_cents) OVER (ORDER BY ws)
                   ELSE 0 END AS BIGINT) AS wow_delta_cents
            FROM w
        """,
        "user_journey_signatures": """
            WITH r AS (
              SELECT user_id, event_type,
                ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id)
                  AS rn
              FROM events),
            s AS (
              SELECT user_id, string_agg(event_type, '>' ORDER BY rn) AS sig
              FROM r WHERE rn <= 5 GROUP BY user_id)
            SELECT sig AS signature, CAST(COUNT(*) AS BIGINT) AS n_users
            FROM s GROUP BY sig
            ORDER BY n_users DESC, signature LIMIT 20
        """,
        "events_since_purchase": """
            WITH o AS (
              SELECT user_id, event_id, ts,
                SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
                  OVER (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                  AS seg
              FROM events)
            SELECT event_id,
              CASE WHEN seg = 0 THEN NULL
                   ELSE CAST(ROW_NUMBER() OVER (
                          PARTITION BY user_id, seg ORDER BY ts, event_id)
                        - 1 AS BIGINT) END AS n_since_purchase
            FROM o
        """,
    }
