"""Scale-derived bucket counts and the contracts of ``buckets.cogroup``,
``combine`` and ``ranges``.

``cogroup`` never partitions every input into a fixed 64 buckets: the
count derives from the input's metadata row count so one bucket's pandas
frame is memory-bounded by design. These tests pin

1. the derivation itself (floor at small inputs, ceil(rows/target) when
   forced, execution-free estimates through transform chains);
2. bucket-count INVARIANCE: forcing a tiny ``ROWS_PER_BUCKET`` (many
   buckets) leaves every co-group shape bit-identical — windows, joins,
   snapshot co-groups, set ops and text co-groups — because bucketing is
   pure partitioning, never semantics; the same forcing sends every
   ``combine`` to its co-group merge, which must match the driver merge;
3. the primitives' contracts: per-side frames keep int64 exact past 2^53,
   an empty side is a typed zero-row frame, the stage carries the
   callback's name; ``combine`` is block-order independent, exact past
   2^53, counts rows, handles multi-column keys and typed empty inputs,
   and ``combine_frame`` returns rows sorted by key on both merge paths;
4. ``ranges``: a hot sort value is split by its tie-break, and an empty
   input ranks to a typed empty result; the range sites and the merges
   moved onto ``combine`` give typed empty results on zero-row tables;
5. static guards: hand-rolled ``groupby("_bucket")`` shuffles,
   per-key partial merges outside ``combine`` (Ray grouped aggregates,
   driver groupbys over collected partials, ``map_groups`` stages and
   ``cogroup`` callbacks that merge partials) and hand-written DISTINCT
   or COUNT(DISTINCT) callbacks stay gone.
"""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from pdf_extractor_ray.pipelines import buckets
from pdf_extractor_ray.pipelines.buckets import (
    N_KEY_BUCKETS,
    _source_row_estimate,
    cogroup,
    combine,
    combine_frame,
    derive_n_buckets,
)

PIPELINES = pathlib.Path(__file__).resolve().parent.parent / "pdf_extractor_ray" / "pipelines"


def _queries() -> dict:
    import importlib.util

    spec = importlib.util.spec_from_file_location("__ray_entry__", PIPELINES.parent.parent / "__ray_entry__.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.queries()


QUERIES = _queries()


def _canon(res) -> pd.DataFrame:
    df = res.to_pandas() if not isinstance(res, pd.DataFrame) else res
    df = df[sorted(df.columns)]
    return df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)


def test_source_row_estimate_fresh_read(sf_dir):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id"])
    assert _source_row_estimate(ds) == 1000


def test_source_row_estimate_through_transforms(sf_dir):
    """The estimate must not require execution: a map_batches chain still
    reports the source read's metadata rows (1:1-transform proxy)."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id"]).map_batches(
        lambda t: t, batch_format="pyarrow"
    )
    assert _source_row_estimate(ds) == 1000


def test_source_row_estimate_unknown_input():
    import ray.data as rd

    ds = rd.from_items([{"k": 1}, {"k": 2}])
    # from_items has no parquet metadata -> None is acceptable, or the exact
    # count if Ray knows it; derive_n_buckets must fall back to the floor.
    assert derive_n_buckets(ds) == N_KEY_BUCKETS


def test_derive_floor_and_scaling(sf_dir, monkeypatch):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id"])
    # 1000 rows / 2M target -> floor
    assert derive_n_buckets(ds) == N_KEY_BUCKETS
    # forced tiny target -> ceil(1000/7) = 143 buckets
    monkeypatch.setattr(buckets, "ROWS_PER_BUCKET", 7)
    assert derive_n_buckets(ds) == 143
    # est_rows override wins over metadata
    assert derive_n_buckets(ds, est_rows=7000) == 1000


@pytest.mark.parametrize(
    "qname",
    [
        "running_total",
        "events_since_purchase",
        "last_nonnull_carry",
        "windowed_topk_types",
        "rank_in_group",
        "shuffle_join_detail",
        "market_share_by_year",
        "snapshot_diff",
        "scd2_history",
        "merge_upsert",
        "intersect_custkeys",
        "boilerplate_line_removal",
        "paragraph_dedup",
        "cc_pipeline_audit",
        "quality_by_host_stats",
        "pricing_summary",
        "tumbling_window_agg",
        "benford_first_digit",
        "exact_distinct_tokens_by_source",
        "degree_distribution",
        "minhash_near_dup",
        "weekly_revenue_wow",
        "token_stats_by_lang",
        "part_brand_stats",
        "sliding_window_agg",
        "rollup_counts",
        "global_row_number",
        "gini_revenue_index",
        "token_budget_shards",
        "pack_sequences",
        "stratified_sample_by_decile",
        "padding_waste_by_length_tile",
        "classifier_auc",
        "pagerank",
        "triangle_count",
        "kcore_nodes",
        "bfs_hops",
        "copurchase_pairs",
        "association_rules_topk",
        "bigram_pmi_topk",
        "countmin_token_counts",
        "rfm_quartile_segments",
        "heavy_hitter_tokens",
        "weighted_avg_by_group",
        "winsorized_mean_by_group",
        "source_minhash_similarity",
        "dsir_weights",
        "exact_quantile",
        "url_canonical_dedup",
        "dedup_replicated_corpus",
        "distinct_count_by_group",
        "approx_distinct_tokens",
        "tumbling_distinct_users",
        "sliding_distinct_users",
        "relational_division",
        "dau_engagement_by_month",
        "hapax_ratio_by_source",
        "dup_ngram_spans",
        "inlink_counts",
        "corpus_near_dup_pipeline",
    ],
)
def test_bucket_count_invariance(sf_dir, qname, monkeypatch):
    """Forcing many tiny buckets must leave results bit-identical: the
    bucket is partitioning only (every row of a key still lands in exactly
    one bucket on every side), so per-key results cannot depend on the
    count. The forced size also sends every ``combine`` (quality_by_host,
    pricing_summary, windows, benford, distinct tokens, node degrees,
    ``_dedup_verified``, weekly revenue, token stats, brand stats, rollup,
    pair counts, bigram and count-min cells, RFM metrics, heavy hitters,
    weighted and winsorized means, MinHash slots, DSIR features, quantile
    bins, canonical URLs, content hashes, and every DISTINCT and
    COUNT(DISTINCT): tokens, user windows, user-days, spans, inlinks,
    graph edges and nodes, components) to its co-group merge, and every
    ``ranges`` site (ranks, Gini, token prefix sums, NTILE strata) to many
    small ranges."""
    fn = QUERIES[qname]

    base = _canon(fn(sf_dir))
    monkeypatch.setattr(buckets, "ROWS_PER_BUCKET", 3)  # ceil(1000/3) = 334 buckets
    many = _canon(fn(sf_dir))
    pd.testing.assert_frame_equal(base, many, check_exact=True)


def test_forced_tiny_buckets_make_more_than_64_groups(tmp_path, monkeypatch):
    """On a planted 1,000-row parquet input, ROWS_PER_BUCKET=3 must
    reach the primitive: one output row per group, more than 64 groups."""
    import pyarrow.parquet as pq
    import ray.data as rd

    path = tmp_path / "planted.parquet"
    pq.write_table(pa.table({"k": np.arange(1000, dtype=np.int64)}), path)
    monkeypatch.setattr(buckets, "ROWS_PER_BUCKET", 3)
    out = cogroup(rd.read_parquet(str(path)), "k", lambda g: pd.DataFrame({"n": [len(g)]}))
    n = out.to_pandas()["n"]
    assert len(n) > 64
    assert int(n.sum()) == 1000


def test_two_sided_cogroup_is_int64_exact_and_types_empty_sides():
    """Both sides carry int64 keys and values >= 2^53+1; one bucket holds
    only side-a rows and another only side-b rows. fn must see int64
    columns equal to the inputs, and a side with no rows in a bucket must
    arrive as a zero-row frame with its own int64 dtypes."""
    import ray.data as rd

    big = 2**53 + 1  # big % 64 == 1
    a_keys = [big, big + 64, big + 1]  # buckets 1, 1, 2
    b_keys = [big, big + 2]  # buckets 1, 3
    a = rd.from_arrow(pa.table({"k": pa.array(a_keys, pa.int64()), "va": pa.array([k + 2 for k in a_keys], pa.int64())}))
    b = rd.from_arrow(pa.table({"k": pa.array(b_keys, pa.int64()), "vb": pa.array([k + 4 for k in b_keys], pa.int64())}))

    def probe(fa: pd.DataFrame, fb: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "a_dtypes": [",".join(f"{c}:{t}" for c, t in fa.dtypes.items())],
                "b_dtypes": [",".join(f"{c}:{t}" for c, t in fb.dtypes.items())],
                "a_rows": [[int(x) for x in fa["va"].to_numpy()]],
                "b_rows": [[int(x) for x in fb["vb"].to_numpy()]],
            }
        )

    got = cogroup([a, b], "k", probe).to_pandas()
    assert len(got) == 3  # buckets no side has rows in contribute nothing
    assert set(got["a_dtypes"]) == {"k:int64,va:int64"}
    assert set(got["b_dtypes"]) == {"k:int64,vb:int64"}
    assert sorted(x for r in got["a_rows"] for x in r) == sorted(k + 2 for k in a_keys)
    assert sorted(x for r in got["b_rows"] for x in r) == sorted(k + 4 for k in b_keys)
    # the only-a and only-b buckets really had an empty other side
    assert sorted(len(r) for r in got["b_rows"]) == [0, 1, 1]
    assert sorted(len(r) for r in got["a_rows"]) == [0, 1, 2]


def test_side_empty_everywhere_arrives_typed():
    """A side with no rows in ANY bucket, ending in a UDF so Ray cannot
    tell its schema from the plan, still reaches fn as a zero-row frame
    with its own int64 columns: as a map_batches output and as a lazy
    co-group output."""
    import ray.data as rd

    a = rd.from_arrow(pa.table({"k": pa.array([1, 2, 3], pa.int64())}))
    by_udf = a.map_batches(
        lambda t: t.append_column("v", t.column("k")).slice(0, 0), batch_format="pyarrow"
    )
    by_cogroup = cogroup(a, "k", lambda g: g.assign(v=g["k"]).iloc[:0])

    def probe(fa: pd.DataFrame, fb: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [len(fa)], "b": [",".join(f"{c}:{t}" for c, t in fb.dtypes.items())]})

    for side in (by_udf, by_cogroup):
        assert side.schema(fetch_if_missing=False) is None
        got = cogroup([a, side], "k", probe).to_pandas()
        assert got["n"].sum() == 3
        assert set(got["b"]) == {"k:int64,v:int64"}


def test_set_op_with_no_high_balance_customer(tmp_path):
    """EXCEPT against a side that is empty everywhere keeps every distinct
    order custkey; INTERSECT keeps none."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.relational import except_custkeys, intersect_custkeys

    pq.write_table(pa.table({"o_custkey": pa.array([5, 3, 5, 9], pa.int64())}), tmp_path / "orders.parquet")
    pq.write_table(
        pa.table({"c_custkey": pa.array([3, 5, 9], pa.int64()), "c_acctbal": pa.array([10.0, 4999.0, 5000.0])}),
        tmp_path / "customer.parquet",
    )
    got = _canon(except_custkeys(str(tmp_path)))
    assert got["custkey"].tolist() == [3, 5, 9]
    assert str(got["custkey"].dtype) == "int64"
    assert len(intersect_custkeys(str(tmp_path)).to_pandas()) == 0


def test_stage_is_named_after_the_callback(sf_dir):
    from pdf_extractor_ray.pipelines.relational import running_total

    stats = running_total(sf_dir).materialize().stats()
    assert "MapBatches(cumsum_b)" in stats
    assert "MapBatches(run)" not in stats


_AGGS = {"n": (None, "count"), "lo": ("v", "min"), "hi": ("v", "max"), "total": ("v", "sum")}


def _keyed_table(n: int = 500) -> pa.Table:
    """A string + int key over int64 values at and past 2^53."""
    i = np.arange(n, dtype=np.int64)
    return pa.table(
        {
            "s": pa.array([f"h{k % 7}" for k in i], pa.string()),
            "k": pa.array(i % 3, pa.int64()),
            "v": pa.array(2**53 + i * 3, pa.int64()),
        }
    )


def _expected(t: pa.Table) -> pd.DataFrame:
    """The per-(s, k) aggregates in exact Python integers."""
    rows = {}
    for s_, k, v in zip(t.column("s").to_pylist(), t.column("k").to_pylist(), t.column("v").to_pylist()):
        rows.setdefault((s_, k), []).append(v)
    return pd.DataFrame(
        [
            {"s": s_, "k": k, "n": len(vs), "lo": min(vs), "hi": max(vs), "total": sum(vs)}
            for (s_, k), vs in rows.items()
        ]
    ).astype({"k": "int64", "n": "int64", "lo": "int64", "hi": "int64", "total": "int64"})


def test_combine_driver_and_cogroup_merges_agree(monkeypatch):
    """The driver merge and the forced co-group merge (ROWS_PER_BUCKET=1)
    give the same rows and dtypes; the driver merge returns them sorted,
    and ``combine_frame`` returns them sorted on both paths."""
    import ray.data as rd

    t = _keyed_table()
    ds = rd.from_arrow([t.slice(i, 50) for i in range(0, 500, 50)])
    driver = combine(ds, ["s", "k"], _AGGS).to_pandas()
    assert list(driver.columns) == ["s", "k", "n", "lo", "hi", "total"]
    assert driver.equals(driver.sort_values(["s", "k"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(combine_frame(ds, ["s", "k"], _AGGS), driver, check_exact=True)
    monkeypatch.setattr(buckets, "ROWS_PER_BUCKET", 1)
    forced = combine(ds, ["s", "k"], _AGGS).materialize()
    assert "MapBatches(merge)" in forced.stats()
    pd.testing.assert_frame_equal(_canon(driver), _canon(forced), check_exact=True)
    pd.testing.assert_frame_equal(_canon(driver), _canon(_expected(t)), check_exact=True)
    pd.testing.assert_frame_equal(combine_frame(ds, ["s", "k"], _AGGS), driver, check_exact=True)


def test_combine_splits_the_driver_merge_on_key_runs():
    """The driver merge comes back as one block per CPU (4 in the test
    session), and every ``keys[0]`` value lies in exactly one block."""
    import ray
    import ray.data as rd

    blocks = ray.get(combine(rd.from_arrow(_keyed_table()), ["s", "k"], _AGGS).to_arrow_refs())
    assert 1 < len(blocks) <= 4
    seen = [set(b.column("s").to_pylist()) for b in blocks]
    assert sum(map(len, seen)) == len(set().union(*seen)) == 7


def test_combine_count_counts_rows_not_values():
    """``(None, "count")`` is COUNT(*): a row whose other columns are null
    still counts, on both merge paths."""
    import ray.data as rd

    t = pa.table({"k": pa.array([1, 1, 2, 2, 2], pa.int64()), "v": pa.array([None, 4, None, None, 5], pa.int64())})
    ds = rd.from_arrow([t.slice(0, 2), t.slice(2)])
    want = pd.DataFrame({"k": [1, 2], "n": [2, 3], "total": [4, 5]})
    aggs = {"n": (None, "count"), "total": ("v", "sum")}
    pd.testing.assert_frame_equal(combine_frame(ds, "k", aggs), want, check_exact=True)


def test_token_stats_by_lang_counts_documents_with_null_text(tmp_path):
    """``n_docs`` is COUNT(*) per language, as in its oracle: documents
    whose text is null still count."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.relational import token_stats_by_lang

    docs = pa.table(
        {
            "lang": pa.array(["en", "en", "de", "en", "de"]),
            "text": pa.array(["a b c", None, None, "d e", "f"]),
        }
    )
    pq.write_table(docs, tmp_path / "documents.parquet")
    got = _canon(token_stats_by_lang(str(tmp_path)))
    assert got[["lang", "n_docs"]].values.tolist() == [["de", 2], ["en", 3]]


def test_weekly_revenue_wow_keeps_week_order_on_the_cogroup_path(sf_dir, monkeypatch):
    """The week-over-week LAG reads neighbouring rows, so the merged weeks
    must arrive in week order on the co-group path too: rows compared as
    returned, without sorting."""
    from pdf_extractor_ray.pipelines.relational import weekly_revenue_wow

    base = weekly_revenue_wow(sf_dir)
    monkeypatch.setattr(buckets, "ROWS_PER_BUCKET", 3)
    pd.testing.assert_frame_equal(weekly_revenue_wow(sf_dir), base, check_exact=True)


def test_combine_is_block_order_independent():
    """1 block, 7 blocks and the 7 blocks reversed give the same output."""
    import ray.data as rd

    t = _keyed_table(700)
    blocks = [t.slice(i, 100) for i in range(0, 700, 100)]
    outs = [
        combine(rd.from_arrow(b), ["s", "k"], _AGGS).to_pandas()
        for b in (t, blocks, blocks[::-1])
    ]
    for out in outs[1:]:
        pd.testing.assert_frame_equal(outs[0], out, check_exact=True)


def test_combine_int64_sums_stay_exact_past_2_53(monkeypatch):
    """Sums of values past 2^53, across blocks, equal the exact Python sum
    on both merge paths (a float64 accumulator would round them)."""
    import ray.data as rd

    vals = [2**53 + 1, 2**53 + 3, 2**60 + 7, 5]
    ds = rd.from_arrow([pa.table({"k": pa.array([1], pa.int64()), "v": pa.array([v], pa.int64())}) for v in vals])
    for rpb in (buckets.ROWS_PER_BUCKET, 1):
        monkeypatch.setattr(buckets, "ROWS_PER_BUCKET", rpb)
        got = combine(ds, "k", {"total": ("v", "sum")}).to_pandas()
        assert str(got["total"].dtype) == "int64"
        assert int(got["total"].iloc[0]) == sum(vals)


def test_combine_two_column_key_min_max_count_and_distinct():
    """A (string, int) key works with min/max/count and as a distinct."""
    import ray.data as rd

    t = _keyed_table(210)
    ds = rd.from_arrow([t.slice(0, 100), t.slice(100)])
    got = combine(ds, ["s", "k"], {"n": (None, "count"), "lo": ("v", "min"), "hi": ("v", "max")}).to_pandas()
    want = _expected(t).drop(columns=["total"])
    pd.testing.assert_frame_equal(_canon(got), _canon(want), check_exact=True)
    distinct = combine(ds, ["s", "k"], {}).to_pandas()
    assert list(distinct.columns) == ["s", "k"]
    assert len(distinct) == 21 and not distinct.duplicated().any()


def test_combine_of_empty_input(tmp_path):
    """No input rows: zero output rows, no error. A read reports its
    schema, so the output is typed with the key and aggregate columns."""
    import pyarrow.parquet as pq
    import ray.data as rd

    empty = _keyed_table(0)
    pq.write_table(empty, tmp_path / "empty.parquet")
    got = combine(rd.read_parquet(str(tmp_path / "empty.parquet")), ["s", "k"], _AGGS)
    assert got.count() == 0
    schema = got.schema()
    assert dict(zip(schema.names, map(str, schema.types))) == {
        "s": "string", "k": "int64", "n": "int64", "lo": "int64", "hi": "int64", "total": "int64",
    }
    assert list(combine_frame(rd.read_parquet(str(tmp_path / "empty.parquet")), ["s", "k"], _AGGS).dtypes.astype(str)) == [
        "object"
    ] + ["int64"] * 5
    lazy = rd.from_arrow(_keyed_table()).filter(expr="k > 5").map_batches(lambda b: b, batch_format="pyarrow")
    assert len(combine(lazy, "s", {"n": (None, "count")}).to_pandas()) == 0


@pytest.fixture(scope="module")
def zero_row_sf(sf_dir, tmp_path_factory):
    """Every table of the test scale factor with its schema and no rows."""
    import pyarrow.parquet as pq

    out = tmp_path_factory.mktemp("sf_zero_rows")
    for path in pathlib.Path(sf_dir).glob("*.parquet"):
        pq.write_table(pq.read_table(path).slice(0, 0), out / path.name)
    return str(out)


def _result_dtypes(res):
    """``column:dtype,…`` of a query result, or None for a Dataset whose
    schema Ray cannot tell (its last UDF never ran)."""
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        base = getattr(res.schema(), "base_schema", None)
        if not isinstance(base, pa.Schema):
            return None
        res = base.empty_table()
    if isinstance(res, pa.Table):
        res = res.to_pandas()
    return ",".join(f"{c}:{t}" for c, t in res.dtypes.astype(str).items())


_ZERO_ROW_CASES = [
    ("token_budget_shards", 0, "doc_id:int64,n_tokens:int64,cum_tokens:int64,shard_id:int64"),
    ("padding_waste_by_length_tile", 0, "tile:int64,n_docs:int64,max_len:int64,padding_waste:int64"),
    ("gini_revenue_index", 1, "n_customers:int64,total_revenue:float64,gini:float64"),
    ("iqr_outliers_by_priority", 0, "o_orderpriority:object,q1_cents:int64,q3_cents:int64,n_outliers:int64"),
    ("triangle_count", 1, "n_nodes:int64,n_edges:int64,n_triangles:int64"),
    ("association_rules_topk", 0, "ante:int64,cons:int64,n_orders:int64,confidence:float64,lift:float64"),
    ("heavy_hitter_tokens", 0, "token:object,n_occurrences:int64"),
    ("countmin_token_counts", 0, "token:object,n_exact:int64,n_est:int64"),
    (
        "source_minhash_similarity",
        0,
        "source_a:object,source_b:object,est_jaccard:float64,exact_jaccard:float64,abs_err:float64",
    ),
    ("exact_quantile", 0, "q:float64,val:float64"),
    ("weighted_avg_by_group", 0, "l_returnflag:object,w_avg_discount:float64"),
    ("winsorized_mean_by_group", 0, "o_orderpriority:object,w_mean:float64"),
    ("approx_distinct_tokens", 1, "approx_distinct:int64,exact_distinct:int64,rel_err:float64"),
    ("vocab_oov_rate", 0, "doc_id:int64,n_tokens:int64,n_oov:int64,oov_rate:float64"),
    ("median_gap_by_type", 0, "event_type:object,median_gap_s:float64,n_gaps:int64"),
    ("bpe_train_merges", 0, "rank:int64,left:object,right:object,pair_count:int64"),
    ("pack_sequences", 0, "doc_id:int64,seq_id:int64,frag_start:int64,frag_len:int64"),
]

#: Dataset results whose last stage is a UDF: Ray runs no UDF on a
#: zero-row block, so on tables with no rows they come back with no
#: schema (CHANGES.md, FOUND "a Dataset result whose last stage is a UDF
#: has no schema"); the dtypes are those of their non-empty results
_ZERO_ROW_UDF_CASES = [
    (
        "rfm_quartile_segments",
        "c_custkey:int64,r_days:int64,r_score:int64,f_orders:int64,f_score:int64,m_cents:int64,m_score:int64",
    ),
    ("bigram_pmi_topk", "w1:object,w2:object,n_pair:int64,pmi:float64"),
    ("dsir_weights", "doc_id:int64,log_weight:float64"),
]


def _row_count(res) -> int:
    import ray.data as rd

    return res.count() if isinstance(res, rd.Dataset) else len(res)


@pytest.mark.parametrize(
    "qname, rows, dtypes",
    _ZERO_ROW_CASES + [(q, 0, None) for q, _ in _ZERO_ROW_UDF_CASES],
    ids=[c[0] for c in _ZERO_ROW_CASES + _ZERO_ROW_UDF_CASES],
)
def test_zero_row_inputs_give_empty_results(zero_row_sf, qname, rows, dtypes):
    """On tables with no rows, the range sites, the iqr fences and every
    merge moved onto ``combine`` whose caller reads it on the driver give
    an empty result typed like a non-empty one (a scalar summary gives its
    one row), not a KeyError from a frame without columns. The schema of a
    Dataset result whose last UDF never ran is checked by
    ``test_zero_row_udf_results_are_typed``."""
    res = QUERIES[qname](zero_row_sf)
    assert _row_count(res) == rows
    if dtypes is not None:
        assert _result_dtypes(res) == dtypes


@pytest.mark.xfail(strict=True, reason="Ray runs no UDF on a zero-row block, so the result has no schema")
@pytest.mark.parametrize("qname, dtypes", _ZERO_ROW_UDF_CASES, ids=[c[0] for c in _ZERO_ROW_UDF_CASES])
def test_zero_row_udf_results_are_typed(zero_row_sf, qname, dtypes):
    """The typed empty result these queries should give on tables with no
    rows; a fix for the missing schema turns these into passes."""
    assert _result_dtypes(QUERIES[qname](zero_row_sf)) == dtypes


def _orders(path, key, price):
    import pyarrow.parquet as pq

    pq.write_table(
        pa.table({"o_orderkey": pa.array(key, pa.int64()), "o_totalprice": pa.array(price, pa.float64())}),
        path / "orders.parquet",
    )


def test_ranges_splits_a_hot_sort_value(tmp_path, monkeypatch):
    """90% of 100,000 orders share one price. Forced to 100 ranges, the
    orderkey tie-break spreads that price over many of them: the ranks
    equal a pandas sort, and no range holds more than twice rows / ranges
    (read from the per-range counts ``ranges`` computes for its offsets)."""
    from pdf_extractor_ray.pipelines.relational import global_row_number

    n = 100_000
    rng = np.random.default_rng(7)
    price = np.where(rng.random(n) < 0.9, 500.0, np.round(rng.random(n) * 1000, 2))
    key = rng.permutation(n) + 1
    _orders(tmp_path, key, price)
    seen = []

    def counting(*args, **kwargs):
        seen.append(combine_frame(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(buckets, "combine_frame", counting)
    monkeypatch.setattr(buckets, "ROWS_PER_BUCKET", 1_000)
    got = global_row_number(str(tmp_path)).to_pandas().sort_values("rn")
    want = pd.DataFrame({"k": key, "p": price}).sort_values(["p", "k"], ascending=[False, True])
    assert got["o_orderkey"].tolist() == want["k"].tolist()
    assert got["rn"].tolist() == list(range(1, n + 1))
    (counts,) = seen
    assert len(counts) > 50
    assert counts["rows"].max() <= 2 * n / derive_n_buckets(None, n)


def test_global_row_number_of_no_orders_is_typed_and_empty(tmp_path):
    """A zero-row orders table ranks to zero rows typed like the result,
    not a KeyError from a sample frame without columns."""
    from pdf_extractor_ray.pipelines.relational import global_row_number

    _orders(tmp_path, [], [])
    got = global_row_number(str(tmp_path))
    assert got.count() == 0
    schema = got.schema()
    assert dict(zip(schema.names, map(str, schema.types))) == {"o_orderkey": "int64", "rn": "int64"}


def _bucket_groupbys(tree: ast.AST):
    """(enclosing function names, line) of every groupby("_b…") call and
    every groupby("bucket") whose result feeds map_groups."""
    found = []

    def visit(node, funcs):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            funcs = funcs + [node.name]
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            inner = node.func.value
            if (
                node.func.attr == "groupby"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
                and node.args[0].value.startswith("_b")
            ):
                found.append((funcs, node.lineno))
            if (
                node.func.attr == "map_groups"
                and isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr == "groupby"
                and inner.args
                and isinstance(inner.args[0], ast.Constant)
                and inner.args[0].value == "bucket"
            ):
                found.append((funcs, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, funcs)

    visit(tree, [])
    return found


def test_no_hand_rolled_bucket_shuffles_outside_the_primitive():
    """Hash co-groups go through buckets.cogroup and range partitions
    through buckets.ranges: nothing outside buckets.py groups on _bucket."""
    offenders = []
    for path in sorted(PIPELINES.glob("*.py")):
        if path.name == "buckets.py":
            continue
        for funcs, line in _bucket_groupbys(ast.parse(path.read_text())):
            offenders.append(f"{path.name}:{line} in {'.'.join(funcs) or '<module>'}")
    assert offenders == []


#: functions that keep a partial-key merge, or a grouped step the guard's
#: patterns match, outside ``buckets.combine``, each with its reason (the
#: list in the buckets.py docstring, entry for entry)
MERGE_ALLOWLIST = {
    "graph.py": {
        # BFS frontier: the per-node min hop rides in the edge co-group
        "bfs_hops",
    },
    "relational.py": {
        # Mean/Std: Ray's own float accumulation, which the oracles are
        # rounded against
        "mean_std_agg",
        "zscore_by_group",
        # float moment sums of off-grid products, whose summation order
        # combine would change
        "corr_by_group",
        "moment_stats_by_group",
        # top-K of the merged counts per bucket
        "vocab_oov_rate",
        # merge then a per-key finish in the same co-group: argmax, the
        # per-part average, the windowed top-k, the dimension joins
        "mode_by_group",
        "lineitems_above_avg_qty",
        "windowed_topk_types",
        "left_join_null_fill",
        "clv_by_segment",
        # per-key min/agg over raw rows inside the co-group (funnel steps,
        # hourly forward-fill, day streaks), not merges of partials
        "funnel_conversion",
        "resample_ffill_hourly",
        "activity_streaks",
    },
    "search.py": {
        # posting lists and span islands over raw rows, not merges
        "inverted_index",
        "dup_span_coverage",
    },
    # float centroid sums merged in partial_id order (a fixed float
    # reduction order)
    "similarity.py": {"_lloyd_round"},
    "textops.py": {
        # a checksum summed modulo 2^k
        "export_roundtrip_manifest",
        # per-document text reassembly over raw paragraph/line rows
        "paragraph_dedup",
        "boilerplate_line_removal",
    },
    "training.py": {
        # train/eval semi-join per content hash, not a merge
        "split_contamination",
    },
}

_RAY_GROUPED_OPS = {"aggregate", "sum", "count", "min", "max"}


def _is_ray_groupby(call) -> bool:
    """A Dataset.groupby: no pandas keyword (sort=, as_index=, dropna=),
    keys given as a string or a list, and not called on a pandas
    constructor."""
    recv = call.func.value
    if call.keywords or len(call.args) != 1:
        return False
    if not isinstance(call.args[0], (ast.Constant, ast.List)) or (
        isinstance(call.args[0], ast.Constant) and not isinstance(call.args[0].value, str)
    ):
        return False
    while isinstance(recv, (ast.Call, ast.Attribute, ast.Subscript)):
        recv = recv.func if isinstance(recv, ast.Call) else recv.value
    return not (isinstance(recv, ast.Name) and recv.id == "pd")


def _chain_calls(node):
    """Method names called along an expression's receiver chain."""
    names = []
    while isinstance(node, (ast.Call, ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Call):
            f = node.func
            names.append(f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", ""))
            node = f.value if isinstance(f, ast.Attribute) else None
        else:
            node = node.value
    return names


_REDUCERS = {"sum", "min", "max", "agg"}


def _reduces(fn: ast.AST) -> bool:
    """Whether a callback reduces rows: a pandas ``groupby(...)``
    ``.sum()``/``.min()``/``.max()``/``.agg(...)``, or a sum/min/max over
    rows stacked with ``stack``/``vstack`` (``x.min(axis=0)`` or
    ``np.min(x, axis=0)``)."""

    def over_grouped_rows(expr) -> bool:
        return bool({"groupby", "stack", "vstack"} & set(_chain_calls(expr)))

    return any(
        isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr in _REDUCERS
        and (over_grouped_rows(n.func.value) or (n.args and over_grouped_rows(n.args[0])))
        for n in ast.walk(fn)
    )


def _partial_merges(tree: ast.AST):
    """(enclosing function names, line) of every per-key merge of partials
    outside ``combine``:

    - a Ray groupby chained into aggregate/sum/count/min/max;
    - a groupby on the driver-side pandas frame of a map_batches/cogroup
      output (``X.to_pandas().groupby`` or a name bound to one);
    - a Ray ``groupby(k).map_groups(f)`` over a map_batches/cogroup output
      or a name bound to one, and a ``cogroup`` over such an output, whose
      callback reduces (``_reduces``); a callback the guard cannot resolve
      to a def or lambda in the file counts as reducing."""
    found = []
    ray_calls = {"map_batches", "cogroup"}

    def root_name(expr):
        while isinstance(expr, (ast.Call, ast.Attribute, ast.Subscript)):
            expr = expr.func if isinstance(expr, ast.Call) else expr.value
        return expr.id if isinstance(expr, ast.Name) else None

    def is_ray(expr, names) -> bool:
        calls = _chain_calls(expr)
        return "to_pandas" not in calls and (bool(ray_calls & set(calls)) or (calls and root_name(expr) in names))

    def driver_frame(expr, names) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in names["frames"]
        calls = _chain_calls(expr)
        return (
            bool(calls)
            and calls[0] == "to_pandas"
            and (bool(ray_calls & set(calls[1:])) or root_name(expr) in names["ray"])
        )

    def over_ray(expr, names) -> bool:
        """A map_batches/cogroup output, a name bound to one, or a list
        holding one."""
        if isinstance(expr, ast.List):
            return any(over_ray(e, names) for e in expr.elts)
        if isinstance(expr, ast.Name):
            return expr.id in names["ray"]
        return is_ray(expr, names["ray"])

    def reducing_callback(expr, scopes) -> bool:
        """Whether a callback reduces: a lambda, or the def its name (or,
        for a call, its factory's name) refers to, innermost scope first,
        checked by ``_reduces``."""
        if isinstance(expr, ast.Lambda):
            return _reduces(expr)
        if isinstance(expr, ast.Call):
            expr = expr.func
        if isinstance(expr, ast.Name):
            for scope in reversed(scopes):
                for n in ast.walk(scope):
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name == expr.id:
                        return _reduces(n)
        return True

    def bind(node, names):
        target = node.targets[0].id
        frame = driver_frame(node.value, names) and not isinstance(node.value, ast.Name)
        ray_ds = not frame and is_ray(node.value, names["ray"])
        names["frames"].discard(target)
        names["ray"].discard(target)
        if frame:
            names["frames"].add(target)
        elif ray_ds:
            names["ray"].add(target)

    def visit(node, funcs, scopes, names):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            funcs, scopes, names = funcs + [node.name], scopes + [node], {"frames": set(), "ray": set()}
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            inner = node.func.value
            ray_groupby = (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr == "groupby"
                and _is_ray_groupby(inner)
            )
            if node.func.attr in _RAY_GROUPED_OPS and ray_groupby:
                found.append((funcs, node.lineno))
            elif (
                node.func.attr == "map_groups"
                and ray_groupby
                and over_ray(inner.func.value, names)
                and reducing_callback(node.args[0] if node.args else None, scopes)
            ):
                found.append((funcs, node.lineno))
            elif node.func.attr == "groupby" and driver_frame(inner, names):
                found.append((funcs, node.lineno))
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "cogroup"
            and len(node.args) >= 3
            and over_ray(node.args[0], names)
        ):
            if reducing_callback(node.args[2], scopes):
                found.append((funcs, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, funcs, scopes, names)
        # bound after the value is visited: the value reads the old binding
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            bind(node, names)

    visit(tree, [], [tree], {"frames": set(), "ray": set()})
    return found


def test_partial_key_merges_go_through_combine():
    """Per-key sum/min/max/count/distinct merges go through
    buckets.combine: no Ray groupby aggregate and no driver-side pandas
    groupby over collected partials, outside the named exceptions; and
    every named exception still holds a site the guard flags."""
    offenders, unused = [], []
    for path in sorted(PIPELINES.glob("*.py")):
        if path.name == "buckets.py":
            continue
        allowed = MERGE_ALLOWLIST.get(path.name, set())
        flagged = _partial_merges(ast.parse(path.read_text()))
        for funcs, line in flagged:
            if not allowed.intersection(funcs):
                offenders.append(f"{path.name}:{line} in {'.'.join(funcs) or '<module>'}")
        hit = {f for funcs, _ in flagged for f in funcs}
        unused += [f"{path.name}:{name}" for name in sorted(allowed - hit)]
    assert offenders == []
    assert unused == []


def test_merge_allowlist_is_the_buckets_docstring_list():
    """The buckets.py list of merges that keep another mechanism names
    exactly the ``MERGE_ALLOWLIST`` entries, as ``module.function``."""
    import re

    doc = buckets.__doc__
    listed = doc[doc.index("Merges that keep another mechanism") : doc.index("Two merges of partials")]
    named = set(re.findall(r"``(\w+\.\w+)``", listed))
    want = {f"{f[:-3]}.{name}" for f, names in MERGE_ALLOWLIST.items() for name in names}
    assert named == want


#: functions whose co-group or grouped callback keeps a hand-written
#: DISTINCT or COUNT(DISTINCT), each with its reason; every other one is
#: ``combine`` (the idiom in the buckets.py docstring)
DISTINCT_ALLOWLIST = {
    "dedup.py": {
        # a band's members made distinct before its pairs are enumerated
        # in the same co-group: the output is pairs, not a distinct set
        "simhash_near_dup_ds",
        # distinct (source, shingle) rows feed the per-bucket incidence
        # product M.T @ M in the same co-group
        "source_minhash_similarity",
    },
    "graph.py": {
        # an order's distinct parts before its co-occurrence pairs are
        # enumerated in the same co-group
        "_part_cooccurrence_edges",
    },
    "relational.py": {
        # distinct (user, week) rows feed each user's cohort (first week)
        # in the same co-group
        "retention_cohorts",
        # the customer side's key made unique before the dimension join
        "clv_by_segment",
        # COUNT(DISTINCT) of the co-group key itself, inside the join: a
        # key lives in one bucket
        "unshipped_backlog_by_priority",
    },
    "search.py": {
        # span incidences kept by their distinct-doc count: the rows, not
        # the counts, leave the co-group
        "dup_span_coverage",
    },
    "textops.py": {
        # COUNT(DISTINCT) of the co-group key itself, beside the counters
        "cc_pipeline_audit",
        # the first row per content hash after a doc_id sort: a row pick
        "training_export_audit",
        # per-document text reassembly over raw paragraph/line rows (first
        # occurrences, per-line doc counts); both run on the benchmark path
        "paragraph_dedup",
        "boilerplate_line_removal",
    },
}


def _hand_distinct(fn: ast.AST) -> bool:
    """Whether a callback writes a DISTINCT or COUNT(DISTINCT) by hand: a
    ``.drop_duplicates(...)`` without ``keep=``, or pandas ``nunique``
    (called, or named in ``agg``/``transform``)."""
    return any(
        (isinstance(n, ast.Constant) and n.value == "nunique")
        or (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and (
                n.func.attr == "nunique"
                or (n.func.attr == "drop_duplicates" and not any(k.arg == "keep" for k in n.keywords))
            )
        )
        for n in ast.walk(fn)
    )


def _distinct_sites(tree: ast.AST):
    """(enclosing function names, line) of every ``cogroup(..., fn)`` and
    ``map_groups(fn)`` whose callback writes a DISTINCT by hand
    (``_hand_distinct``), and of every call of a helper that passes such a
    callback on to one; a callback the guard cannot resolve to a def or
    lambda in the file counts as one."""

    def callback(call):
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        if name == "cogroup" and len(call.args) >= 3:
            return call.args[2]
        if name == "map_groups" and call.args:
            return call.args[0]
        return None

    # helpers that hand one of their parameters to cogroup/map_groups:
    # name -> (position, parameter name)
    helpers = {}
    for fdef in ast.walk(tree):
        if isinstance(fdef, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = [a.arg for a in fdef.args.args]
            for n in ast.walk(fdef):
                cb = callback(n) if isinstance(n, ast.Call) else None
                if isinstance(cb, ast.Name) and cb.id in params:
                    helpers[fdef.name] = (params.index(cb.id), cb.id)

    found = []

    def writes_distinct(expr, scopes) -> bool:
        if isinstance(expr, ast.Lambda):
            return _hand_distinct(expr)
        if isinstance(expr, ast.Call):
            expr = expr.func
        if isinstance(expr, ast.Name):
            for scope in reversed(scopes):
                if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)) and expr.id in helpers.get(
                    scope.name, (None, None)
                ):
                    return False  # checked where the helper is called
                for n in ast.walk(scope):
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name == expr.id:
                        return _hand_distinct(n)
        return True

    def visit(node, funcs, scopes):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            funcs, scopes = funcs + [node.name], scopes + [node]
        if isinstance(node, ast.Call):
            cb = callback(node)
            name = getattr(node.func, "id", None)
            if cb is None and name in helpers:
                pos, param = helpers[name]
                given = [k.value for k in node.keywords if k.arg == param]
                cb = node.args[pos] if len(node.args) > pos else (given[0] if given else None)
            if cb is not None and writes_distinct(cb, scopes):
                found.append((funcs, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, funcs, scopes)

    visit(tree, [], [tree])
    return found


def test_distinct_goes_through_combine():
    """DISTINCT and COUNT(DISTINCT) go through buckets.combine: no
    co-group or grouped callback drops duplicates or counts distinct
    values by hand (and no helper wraps such a callback), outside the
    named exceptions; and every named exception still holds a site the
    guard flags."""
    offenders, unused = [], []
    for path in sorted(PIPELINES.glob("*.py")):
        if path.name == "buckets.py":
            continue
        allowed = DISTINCT_ALLOWLIST.get(path.name, set())
        flagged = _distinct_sites(ast.parse(path.read_text()))
        for funcs, line in flagged:
            if not allowed.intersection(funcs):
                offenders.append(f"{path.name}:{line} in {'.'.join(funcs) or '<module>'}")
        hit = {f for funcs, _ in flagged for f in funcs}
        unused += [f"{path.name}:{name}" for name in sorted(allowed - hit)]
    assert offenders == []
    assert unused == []


def test_distinct_guard_flags_the_hand_written_shapes():
    """The guard's patterns: a drop-duplicates callback, a nunique
    aggregate, and a helper that wraps cogroup around a callback it is
    given; a row pick (``keep=``) and a combine are not flagged."""
    src = """
def a(ds):
    def distinct(g):
        return g.drop_duplicates(["k", "v"])
    return cogroup(ds, "k", distinct)

def b(ds):
    return ds.groupby("k").map_groups(lambda g: g.groupby("k").agg(n=("v", "nunique")))

def wrap(ds, fn):
    return cogroup(ds, "k", fn)

def c(ds):
    def count(g):
        return g["v"].nunique()
    return wrap(ds, count)

def d(ds):
    def last(g):
        return g.drop_duplicates("k", keep="last")
    return cogroup(ds, "k", last), combine(ds, ["v", "k"], {})
"""
    flagged = [funcs[-1] for funcs, _ in _distinct_sites(ast.parse(src))]
    assert flagged == ["a", "b", "c"]
