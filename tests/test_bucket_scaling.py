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
   input ranks to a typed empty result;
5. static guards: hand-rolled ``groupby("_bucket")`` shuffles and
   per-key partial merges outside ``combine`` stay gone.
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
    ],
)
def test_bucket_count_invariance(sf_dir, qname, monkeypatch):
    """Forcing many tiny buckets must leave results bit-identical: the
    bucket is partitioning only (every row of a key still lands in exactly
    one bucket on every side), so per-key results cannot depend on the
    count. The forced size also sends every ``combine`` (quality_by_host,
    pricing_summary, windows, benford, distinct tokens, degree histogram,
    ``_dedup_verified``, weekly revenue, token stats, brand stats, rollup)
    to its co-group merge, and every ``ranges`` site (ranks, Gini, token
    prefix sums, NTILE strata) to many small ranges."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("__ray_entry__", PIPELINES.parent.parent / "__ray_entry__.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    fn = mod.queries()[qname]

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


#: functions that keep a partial-key merge outside ``buckets.combine``,
#: each with the reason its merge is not sum/min/max/count/distinct (the
#: list in the buckets.py docstring)
MERGE_ALLOWLIST = {
    # Mean/Std (mean_std_agg, zscore_by_group); per-range bin vectors
    # summed elementwise (_exact_int_quantiles_multi); float moment sums of
    # off-grid products, whose summation order combine would change
    # (corr_by_group, moment_stats_by_group)
    "relational.py": {
        "mean_std_agg",
        "zscore_by_group",
        "_exact_int_quantiles_multi",
        "corr_by_group",
        "moment_stats_by_group",
    },
    # a checksum summed modulo 2^k
    "textops.py": {"export_roundtrip_manifest"},
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


def _partial_merges(tree: ast.AST):
    """(enclosing function names, line) of every Ray groupby chained into
    aggregate/sum/count/min/max, and every groupby on the driver-side pandas
    frame of a map_batches/cogroup output (``X.to_pandas().groupby`` or a
    name bound to one)."""
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

    def visit(node, funcs, names):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            funcs, names = funcs + [node.name], {"frames": set(), "ray": set()}
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            inner = node.func.value
            if (
                node.func.attr in _RAY_GROUPED_OPS
                and isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr == "groupby"
                and _is_ray_groupby(inner)
            ):
                found.append((funcs, node.lineno))
            elif node.func.attr == "groupby" and driver_frame(inner, names):
                found.append((funcs, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, funcs, names)
        # bound after the value is visited: the value reads the old binding
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            bind(node, names)

    visit(tree, [], {"frames": set(), "ray": set()})
    return found


def test_partial_key_merges_go_through_combine():
    """Per-key sum/min/max/count/distinct merges go through
    buckets.combine: no Ray groupby aggregate and no driver-side pandas
    groupby over collected partials, outside the named exceptions."""
    offenders = []
    for path in sorted(PIPELINES.glob("*.py")):
        if path.name == "buckets.py":
            continue
        allowed = MERGE_ALLOWLIST.get(path.name, set())
        for funcs, line in _partial_merges(ast.parse(path.read_text())):
            if not allowed.intersection(funcs):
                offenders.append(f"{path.name}:{line} in {'.'.join(funcs) or '<module>'}")
    assert offenders == []
