"""Scale-derived bucket counts and the ``buckets.cogroup`` contract.

``cogroup`` never partitions every input into a fixed 64 buckets: the
count derives from the input's metadata row count so one bucket's pandas
frame is memory-bounded by design. These tests pin

1. the derivation itself (floor at small inputs, ceil(rows/target) when
   forced, execution-free estimates through transform chains);
2. bucket-count INVARIANCE: forcing a tiny GRAFT_ROWS_PER_BUCKET (many
   buckets) leaves every co-group shape bit-identical — windows, joins,
   snapshot co-groups, set ops and text co-groups — because bucketing is
   pure partitioning, never semantics;
3. the primitive's contract: per-side frames keep int64 exact past 2^53,
   an empty side is a typed zero-row frame, the stage carries the
   callback's name;
4. a static guard: hand-rolled ``groupby("_bucket")`` shuffles stay gone.
"""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from pdf_extractor_ray.pipelines.buckets import (
    N_KEY_BUCKETS,
    _source_row_estimate,
    cogroup,
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
    monkeypatch.setenv("GRAFT_ROWS_PER_BUCKET", "7")
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
    ],
)
def test_bucket_count_invariance(sf_dir, qname, monkeypatch):
    """Forcing many tiny buckets must leave results bit-identical: the
    bucket is partitioning only (every row of a key still lands in exactly
    one bucket on every side), so per-key results cannot depend on the
    count."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", "/root/repo/__ray_entry__.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    fn = mod.queries()[qname]

    monkeypatch.delenv("GRAFT_ROWS_PER_BUCKET", raising=False)
    base = _canon(fn(sf_dir))
    monkeypatch.setenv("GRAFT_ROWS_PER_BUCKET", "3")  # ceil(1000/3) = 334 buckets
    many = _canon(fn(sf_dir))
    pd.testing.assert_frame_equal(base, many, check_exact=True)


def test_forced_tiny_buckets_make_more_than_64_groups(tmp_path, monkeypatch):
    """On a planted 1,000-row parquet input, GRAFT_ROWS_PER_BUCKET=3 must
    reach the primitive: one output row per group, more than 64 groups."""
    import pyarrow.parquet as pq
    import ray.data as rd

    path = tmp_path / "planted.parquet"
    pq.write_table(pa.table({"k": np.arange(1000, dtype=np.int64)}), path)
    monkeypatch.setenv("GRAFT_ROWS_PER_BUCKET", "3")
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


#: functions whose bucket id carries meaning and so keep their own
#: groupby("_bucket") (the list in the buckets.py docstring)
RANGE_PARTITION_SITES = {
    "relational.py": {"global_row_number", "gini_revenue_index"},
    "training.py": {
        "token_budget_shards",
        "pack_sequences",
        "stratified_sample_by_decile",
        "classifier_auc",
        "padding_waste_by_length_tile",
    },
    "graph.py": {"_pagerank_round", "_pagerank_finish"},
}


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
    """Hash co-groups go through buckets.cogroup; only the range-partition
    sites (bucket id = offset/tile/dangling route) may group on _bucket."""
    offenders = []
    for path in sorted(PIPELINES.glob("*.py")):
        if path.name == "buckets.py":
            continue
        allowed = RANGE_PARTITION_SITES.get(path.name, set())
        for funcs, line in _bucket_groupbys(ast.parse(path.read_text())):
            if not allowed.intersection(funcs):
                offenders.append(f"{path.name}:{line} in {'.'.join(funcs) or '<module>'}")
    assert offenders == []
