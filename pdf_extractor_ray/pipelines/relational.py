"""Relational operator catalog over the driver testdata tables.

Each function re-expresses one operator family from the reference inventory
(SURVEY.md §2) as an idiomatic Ray Data pipeline and is paired with an ANSI
SQL oracle in ``__ray_entry__.oracle_sql`` (same output column NAMES — the
driver sorts columns by name and value-hashes).

Scale conventions used throughout (these are the patterns that must hold at
100 TB):
- column pruning at the read (`read_parquet(columns=[...])`),
- vectorized pyarrow.compute bodies inside `map_batches` (no row loops in
  hot paths; per-row digests are flagged where inherent),
- per-batch partial aggregation (combiner) before every `groupby` shuffle,
- small sides broadcast via `ray.put` once, read per actor/task — never a
  shuffle join against a dimension table.

Float discipline: aggregate outputs are rounded to 4 decimals on BOTH sides
(here and in the oracle SQL) so double-summation order differences cannot
flip the driver's value hash.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import hash_bucket, row_sha256, sha256_hex
from ..functions.quality import quality_features
from ..functions.text import clean_description, keyword_filter_batch, standardize_column
from ..functions.tokens import explode_tokens as explode_tokens_batch
from ..functions.tokens import token_counts
from .buckets import cogroup, combine, combine_frame, ranges

EXCLUDE_KEYWORDS = ["slow", "error"]  # PERSONAL_EXPENSES-style exclusion vocab
INCLUDE_KEYWORDS = ["merge", "join"]
CHARGE_EVENT_TYPES = frozenset({"click", "view"})
BUILDING = "BUILDING"


def _read(sf_dir: str, table: str, columns: list[str] | None = None):
    from ..ioutil import read_table

    return read_table(sf_dir, table, columns)


def _round4(tbl: pa.Table, cols) -> pa.Table:
    # np.round (scale→rint→unscale) lands on the same double as DuckDB's
    # ROUND-to-DECIMAL; pyarrow's pc.round does not (it can return the
    # unrounded double for values like 109.53999999999999). A dict maps
    # each column to the scale of the exact integer sum it holds (cents:
    # 100), divided out first.
    for c, scale in (cols if isinstance(cols, dict) else dict.fromkeys(cols, 1)).items():
        v = tbl.column(c).to_numpy(zero_copy_only=False) / scale
        tbl = tbl.set_column(tbl.column_names.index(c), c, pa.array(np.round(v, 4)))
    return tbl


def _cents(col) -> np.ndarray:
    """int64 hundredths of a 2-decimal column (prices, discounts): exact on
    its grid, so sums of it are exact in any order."""
    return np.floor(col.to_numpy(zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)


# ---------------------------------------------------------------------------
# aggregates (§2.5) — per-row columns inside map_batches, merged by combine
# ---------------------------------------------------------------------------

def pricing_summary(sf_dir: str):
    """TPC-H-Q1-shaped rollup (per-source counts / amount rollups analog).

    ``combine``'s per-batch partial emits ≤|groups| rows per block, so only
    partials reach the merge, never the fact table. Money sums are exact
    integers (cents, and cents·(100 − discount %) for the discounted
    price), so no summation order can move a rounded digit; quantities
    are whole numbers, exact as doubles."""
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def disc(batch: pa.Table) -> pa.Table:
        cents = _cents(batch.column("l_extendedprice"))
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "l_quantity": batch.column("l_quantity"),
                "base_c": pa.array(cents),
                "disc_e4": pa.array(cents * (100 - _cents(batch.column("l_discount")))),
            }
        )

    agg = combine(
        ds.map_batches(disc, batch_format="pyarrow", zero_copy_batch=True),
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": ("l_quantity", "sum"),
            "sum_base": ("base_c", "sum"),
            "sum_disc_price": ("disc_e4", "sum"),
            "n_rows": (None, "count"),
        },
    )
    return agg.map_batches(
        lambda t: _round4(t, {"sum_qty": 1, "sum_base": 100, "sum_disc_price": 10_000}),
        batch_format="pyarrow",
    )


def counts_by_source(sf_dir: str):
    """documents value_counts + length stats (transaction_normalizer.py:351-352)."""
    ds = _read(sf_dir, "documents", ["source", "n_chars"])
    return combine(
        ds,
        "source",
        {
            "n_docs": (None, "count"),
            "sum_chars": ("n_chars", "sum"),
            "min_chars": ("n_chars", "min"),
            "max_chars": ("n_chars", "max"),
        },
    )


def hash_bucket_counts(sf_dir: str):
    """Explicit hash-partitioning key distribution (the url-hash repartition
    analog, SQL-reproducible Knuth multiplicative hash)."""
    ds = _read(sf_dir, "orders", ["o_orderkey"])
    buckets = ds.map_batches(
        lambda t: pa.table({"bucket": pc.cast(hash_bucket(t.column("o_orderkey"), 64), pa.int64())}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return combine(buckets, "bucket", {"n_rows": (None, "count")})


# ---------------------------------------------------------------------------
# filters (§2.2) — vectorized masks inside map_batches
# ---------------------------------------------------------------------------

def amount_threshold_filter(sf_dir: str):
    """EXPENSE_THRESHOLD analog (utils/utils.py:73-81)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    return ds.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("o_totalprice"), 100000.0)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def keyword_exclude_filter(sf_dir: str):
    """Drop rows whose text contains any exclusion keyword (utils.py:53-70)."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    return ds.map_batches(
        lambda t: keyword_filter_batch(t, "text", EXCLUDE_KEYWORDS, "exclude").select(
            ["doc_id", "source"]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def keyword_include_filter(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    return ds.map_batches(
        lambda t: keyword_filter_batch(t, "text", INCLUDE_KEYWORDS, "include").select(
            ["doc_id", "source"]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def year_filter(sf_dir: str):
    """Keep rows of one calendar year (scripts/grok.py:502-503)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_orderdate"])
    return ds.map_batches(
        lambda t: t.filter(pc.equal(pc.year(t.column("o_orderdate")), 1995)).select(
            ["o_orderkey", "o_orderpriority"]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


# ---------------------------------------------------------------------------
# projections / normalizers (§2.2)
# ---------------------------------------------------------------------------

def projection_map(sf_dir: str):
    """Declarative TRANSFORMATION_MAPS analog (utils/config.py:302-417):
    rename + computed columns, fully vectorized."""
    ds = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment", "c_acctbal"])

    def project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id": t.column("c_custkey"),
                "name_std": standardize_column(t.column("c_name")),
                "segment": pc.utf8_lower(t.column("c_mktsegment")),
                "balance_flag": pc.if_else(
                    pc.less(t.column("c_acctbal"), 0.0),
                    pa.scalar("negative"),
                    pa.scalar("ok"),
                ),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def desc_clean(sf_dir: str):
    """Description cleaner (transaction_normalizer.py:381-407)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda t: pa.table(
            {"doc_id": t.column("doc_id"), "cleaned": clean_description(t.column("text"))}
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def sign_normalize(sf_dir: str):
    """Keyword-driven sign convention (utils/data_transformation.py:31-83):
    'charge'-class event types become negative amounts."""
    from ..functions.amounts import normalize_sign

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    return ds.map_batches(
        lambda t: pa.table(
            {
                "event_id": t.column("event_id"),
                "amount": normalize_sign(
                    t.column("value"), t.column("event_type"), CHARGE_EVENT_TYPES
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def date_normalize_iso(sf_dir: str):
    """ISO date normalization + component extraction (§2.2 date normalizer)."""
    ds = _read(sf_dir, "events", ["event_id", "ts"])

    def norm(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "iso_date": pc.strftime(t.column("ts"), format="%Y-%m-%d"),
                "year": pc.cast(pc.year(t.column("ts")), pa.int64()),
                "month": pc.cast(pc.month(t.column("ts")), pa.int64()),
            }
        )

    return ds.map_batches(norm, batch_format="pyarrow", zero_copy_batch=True)


def row_hash(sf_dir: str):
    """transaction_hash analog: sha256 over joined fields (normalize_api.py:
    21-33). The digest is per-row by nature; the join is vectorized."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderstatus", "o_orderpriority"])
    return ds.map_batches(
        lambda t: pa.table(
            {
                "o_orderkey": t.column("o_orderkey"),
                "txn_hash": row_sha256(t, ["o_orderkey", "o_orderstatus", "o_orderpriority"]),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def json_field_extract(sf_dir: str):
    """Tolerant JSON field extraction (amazon_parser.py:293-302 analog),
    vectorized as a regex pull instead of per-row json.loads."""
    ds = _read(sf_dir, "events", ["event_id", "props"])

    def ext(t: pa.Table) -> pa.Table:
        g = pc.struct_field(
            pc.extract_regex(t.column("props"), pattern=r'"k": (?P<g>\d+)'), "g"
        )
        return pa.table(
            {"event_id": t.column("event_id"), "k_val": pc.cast(g, pa.int64())}
        )

    return ds.map_batches(ext, batch_format="pyarrow", zero_copy_batch=True)


def validity_split_problems(sf_dir: str):
    """Validity filter with problem-row diversion (transaction_normalizer.py:
    41-65, 354-368): rows failing a predicate become (reason, count) — the
    problems side-table rollup. Valid predicate: value >= 5.0 and k <= 90;
    reason precedence: low_value first (CASE order in the oracle)."""
    ds = _read(sf_dir, "events", ["event_id", "value", "props"])

    def reasons(t: pa.Table) -> pa.Table:
        k = pc.cast(
            pc.struct_field(pc.extract_regex(t.column("props"), pattern=r'"k": (?P<g>\d+)'), "g"),
            pa.int64(),
        )
        low_value = pc.less(t.column("value"), 5.0)
        bad_k = pc.greater(k, 90)
        reason = pc.if_else(
            low_value,
            pa.scalar("low_value"),
            pc.if_else(bad_k, pa.scalar("k_out_of_range"), pa.scalar(None, pa.string())),
        )
        return pa.table({"reason": reason}).filter(pc.is_valid(reason))

    return combine(
        ds.map_batches(reasons, batch_format="pyarrow", zero_copy_batch=True),
        "reason",
        {"n_rows": (None, "count")},
    )


# ---------------------------------------------------------------------------
# set ops / dedup (§2.7), sorts (§2.6)
# ---------------------------------------------------------------------------

def union_all_sources(sf_dir: str):
    """pd.concat-of-sources analog (transaction_normalizer.py:306): two
    filtered branches tagged with an origin column, unioned."""
    def tagged(t: pa.Table, mask, origin: str) -> pa.Table:
        f = t.filter(mask)
        return pa.table(
            {
                "o_orderkey": f.column("o_orderkey"),
                "origin": pa.array([origin] * f.num_rows, type=pa.string()),
            }
        )

    high = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"]).map_batches(
        lambda t: tagged(t, pc.greater_equal(t.column("o_totalprice"), 150000.0), "high_value"),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    urgent = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]).map_batches(
        lambda t: tagged(t, pc.equal(t.column("o_orderpriority"), "1-URGENT"), "urgent"),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return high.union(urgent)


def sort_topk(sf_dir: str):
    """Global sort + limit (grok.py:427-450 final sort; export-only sort)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(10)


def dedup_exact(sf_dir: str):
    """Exact dedup: content-hash grouping, deterministic representative
    (min doc_id) — normalize_api.py:21-33 semantics done relationally.
    Shape (r3): min doc per sha by ``combine``. The previous native
    ``groupby(text_sha).aggregate(Min)`` had one Ray group per UNIQUE
    document — the per-group aggregate tax on a corpus-sized key space."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def add_hash(t: pa.Table) -> pa.Table:
        shas = [sha256_hex(v) for v in t.column("text").to_pylist()]
        return pa.table({"doc_id": t.column("doc_id"), "text_sha": pa.array(shas, type=pa.string())})

    hashed = ds.map_batches(add_hash, batch_format="pyarrow", zero_copy_batch=True)
    return combine(hashed, "text_sha", {"doc_id": ("doc_id", "min")})


# ---------------------------------------------------------------------------
# joins as broadcast lookups (§2.4)
# ---------------------------------------------------------------------------

def broadcast_join_enrich(sf_dir: str):
    """customer ⋈ nation ⋈ region via broadcast dimension dicts: the small
    sides are ray.put ONCE and read inside the batch fn — no shuffle join."""
    import pyarrow.parquet as pq
    import ray

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    n2name = dict(zip(nation.column("n_nationkey").to_pylist(), nation.column("n_name").to_pylist()))
    n2region = dict(zip(nation.column("n_nationkey").to_pylist(), nation.column("n_regionkey").to_pylist()))
    r2name = dict(zip(region.column("r_regionkey").to_pylist(), region.column("r_name").to_pylist()))
    lookup_ref = ray.put((n2name, {k: r2name[v] for k, v in n2region.items()}))

    def enrich(t: pa.Table) -> pa.Table:
        n2n, n2r = ray.get(lookup_ref)
        keys = t.column("c_nationkey").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "c_custkey": t.column("c_custkey"),
                "nation": pa.array([n2n[k] for k in keys], type=pa.string()),
                "region": pa.array([n2r[k] for k in keys], type=pa.string()),
            }
        )

    ds = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    return ds.map_batches(enrich, batch_format="pyarrow", zero_copy_batch=True)


def _building_custkeys(sf_dir: str) -> set[int]:
    import pyarrow.parquet as pq

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"])
    m = pc.equal(cust.column("c_mktsegment"), BUILDING)
    return cust.filter(m).column("c_custkey").to_pylist()


def semi_join_keys(sf_dir: str):
    """Semi join = broadcast key set + vectorized is_in (ray_guide pattern;
    reference: cache-key semi-join, transaction_classifier.py:82-118)."""
    import ray

    keys_ref = ray.put(_building_custkeys(sf_dir))
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def semi(t: pa.Table) -> pa.Table:
        keys = ray.get(keys_ref)
        mask = pc.is_in(t.column("o_custkey"), value_set=pa.array(keys))
        return t.filter(mask).select(["o_orderkey"])

    return ds.map_batches(semi, batch_format="pyarrow", zero_copy_batch=True)


def semi_join_bloom(sf_dir: str):
    """Semi join with a Bloom pre-filter (ray_guide joins): the constant-size
    Bloom eliminates most non-members per batch before the exact membership
    check — at scale the Bloom is what gets broadcast when the key set
    doesn't fit, and the exact check runs only on the surviving minority.
    Result is exact (same oracle as semi_join_keys)."""
    import ray

    from ..functions.bloom import BloomFilter

    keys = _building_custkeys(sf_dir)
    bloom = BloomFilter(capacity=len(keys), fp_rate=0.01)
    bloom.add_many(keys)
    state_ref = ray.put((bloom, np.asarray(sorted(keys), dtype=np.int64)))

    def semi(t: pa.Table) -> pa.Table:
        bf, exact = ray.get(state_ref)
        ck = t.column("o_custkey").to_numpy(zero_copy_only=False)
        maybe = np.asarray(bf.contains_many(ck), dtype=bool)  # no false negatives
        # exact check runs ONLY on the Bloom survivors (the docstring's
        # point) and vectorized — no per-row Python loop
        confirmed = maybe.copy()
        if confirmed.any():
            confirmed[maybe] = np.isin(ck[maybe], exact)
        return t.filter(pa.array(confirmed)).select(["o_orderkey"])

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    return ds.map_batches(semi, batch_format="pyarrow", zero_copy_batch=True)


def anti_join_keys(sf_dir: str):
    """Anti join — the problem-row diversion shape (normalize_api.py:36-56)."""
    import ray

    keys_ref = ray.put(_building_custkeys(sf_dir))
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def anti(t: pa.Table) -> pa.Table:
        keys = ray.get(keys_ref)
        mask = pc.invert(pc.is_in(t.column("o_custkey"), value_set=pa.array(keys)))
        return t.filter(mask).select(["o_orderkey"])

    return ds.map_batches(anti, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# explode / token ops (§2.2 amazon explode, §2.8)
# ---------------------------------------------------------------------------

def explode_tokens(sf_dir: str):
    """1 document row → N token rows (amazon_parser.py:305-338 explode)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda t: explode_tokens_batch(t, "doc_id", "text"),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def explode_struct_items(sf_dir: str):
    """The amazon items shape end-to-end (amazon_parser.py:305-338): collect
    line items into a ``list<struct>`` column per order (the nested payload a
    parser emits for one document), then explode back to flat records — all
    in Arrow (nested columns never round-trip through pandas, ray_guide
    pitfalls). The round-trip must reproduce the flat table exactly."""
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity"])

    def nest(g: pd.DataFrame) -> pa.Table:
        # batch-level nesting over sorted RUN BOUNDARIES (VERDICT r1 #4):
        # one vectorized pass builds every order's list in this batch —
        # no per-order-key map_groups (~1 ms/group, fatal at billions of
        # orders). Keys are co-located by the upstream key-hash co-group
        # (VERDICT r2 minor: a range sort paid a wasted sampling pass for
        # co-location the hash shuffle gives directly); the within-bucket
        # sort_by below provides the run boundaries.
        t = pa.Table.from_pandas(g, preserve_index=False)
        t = t.sort_by([("l_orderkey", "ascending"), ("l_linenumber", "ascending")])
        keys = t.column("l_orderkey").to_numpy(zero_copy_only=False)
        bounds = np.flatnonzero(np.diff(keys)) + 1
        offsets = np.concatenate([[0], bounds, [len(keys)]]).astype(np.int32)
        struct = pa.StructArray.from_arrays(
            [
                t.column("l_linenumber").combine_chunks(),
                t.column("l_quantity").combine_chunks(),
            ],
            names=["l_linenumber", "l_quantity"],
        )
        items = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), struct)
        return pa.table(
            {"l_orderkey": pa.array(keys[offsets[:-1]]), "items": items}
        )

    nested = cogroup(ds, "l_orderkey", nest)

    def explode(t: pa.Table) -> pa.Table:
        items = t.column("items")
        if isinstance(items, pa.ChunkedArray):
            items = items.combine_chunks()
        lengths = pc.list_value_length(items).to_numpy(zero_copy_only=False)
        keys = np.repeat(
            t.column("l_orderkey").to_numpy(zero_copy_only=False), lengths
        )
        flat = items.flatten()
        return pa.table(
            {
                "l_orderkey": pa.array(keys),
                "l_linenumber": flat.field("l_linenumber"),
                "l_quantity": flat.field("l_quantity"),
            }
        )

    return nested.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)


def token_stats_by_lang(sf_dir: str):
    ds = _read(sf_dir, "documents", ["lang", "text"])

    def n_tokens(t: pa.Table) -> pa.Table:
        return pa.table(
            {"lang": t.column("lang"), "n_tokens": pc.cast(token_counts(t.column("text")), pa.int64())}
        )

    return combine(
        ds.map_batches(n_tokens, batch_format="pyarrow", zero_copy_batch=True),
        "lang",
        {"sum_tokens": ("n_tokens", "sum"), "n_docs": (None, "count")},
    )


def quality_score(sf_dir: str):
    """Quality features per document (integer-valued → hash-exact oracle)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda t: quality_features(t).select(["doc_id", "n_chars_q", "n_tokens", "n_stop"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


# ---------------------------------------------------------------------------
# windowed aggregates over the events log (ray_guide streaming-shaped section)
# ---------------------------------------------------------------------------

def tumbling_window_agg(sf_dir: str):
    """Tumbling 1-hour windows per user merged by ``combine``, values summed
    in exact integer cents; window label as ISO string (hash-stable)."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def window(t: pa.Table) -> pa.Table:
        # int64 epoch key through the merge; ISO string rendered after
        # (same measured win as sliding_window_agg)
        ws = pc.cast(
            pc.cast(pc.floor_temporal(t.column("ts"), unit="hour"), pa.timestamp("s")),
            pa.int64(),
        )
        return pa.table({"user_id": t.column("user_id"), "ws_epoch": ws, "value": pa.array(_cents(t.column("value")))})

    def render(t: pa.Table) -> pa.Table:
        out = pa.table(
            {
                "user_id": t.column("user_id"),
                "window_start": pc.strftime(
                    pc.cast(t.column("ws_epoch"), pa.timestamp("s")),
                    format="%Y-%m-%d %H:%M:%S",
                ),
                "sum_value": t.column("sum_value"),
                "n_events": t.column("n_events"),
            }
        )
        return _round4(out, {"sum_value": 100})

    rows = ds.map_batches(window, batch_format="pyarrow", zero_copy_batch=True)
    return combine(rows, ["user_id", "ws_epoch"], _WINDOW_AGGS).map_batches(render, batch_format="pyarrow")


#: per (user, window): summed value, in exact integer cents, and event count
_WINDOW_AGGS = {"sum_value": ("value", "sum"), "n_events": (None, "count")}


def date_parse_cascade(sf_dir: str):
    """Multi-format date parse cascade (§2.2 date normalizer): the query
    first RENDERS each event's date in one of four formats (chosen by
    event_id % 4 — deterministic mixed-format input, like a pile of bank
    statements), then recovers the ISO date via the cascade. The oracle only
    has to know the expected answer (strftime of ts)."""
    from ..functions.dates import parse_date_cascade, to_iso_date

    ds = _read(sf_dir, "events", ["event_id", "ts"])
    fmts = ["%Y-%m-%d", "%m/%d/%Y", "%B %d, %Y", "%d.%m.%Y"]

    def roundtrip(t: pa.Table) -> pa.Table:
        ts = t.column("ts")
        rendered_all = [
            pc.strftime(ts, format=f).to_numpy(zero_copy_only=False) for f in fmts
        ]
        idx = np.mod(t.column("event_id").to_numpy(zero_copy_only=False), 4)
        rendered = pa.array(
            np.select([idx == k for k in range(4)], rendered_all), type=pa.string()
        )
        parsed = parse_date_cascade(rendered)
        return pa.table(
            {"event_id": t.column("event_id"), "iso_date": to_iso_date(parsed)}
        )

    return ds.map_batches(roundtrip, batch_format="pyarrow", zero_copy_batch=True)


def classification_standardize(sf_dir: str):
    """Free-text class → canonical vocabulary via keyword rules
    (utils/utils.py:99-120), vectorized as a dictionary CASE map."""
    ds = _read(sf_dir, "events", ["event_id", "event_type"])

    def std(t: pa.Table) -> pa.Table:
        et = t.column("event_type")
        cat = pc.if_else(
            pc.is_in(et, value_set=pa.array(["click", "view"])),
            pa.scalar("engagement"),
            pc.if_else(
                pc.equal(et, "purchase"),
                pa.scalar("revenue"),
                pc.if_else(pc.equal(et, "signup"), pa.scalar("growth"), pa.scalar("ops")),
            ),
        )
        return pa.table({"event_id": t.column("event_id"), "category_std": cat})

    return ds.map_batches(std, batch_format="pyarrow", zero_copy_batch=True)


def amount_from_split_cols(sf_dir: str):
    """credits/charges split columns → one signed amount
    (wellsfargo_bank_parser.py:404-416; mastercard :581-600): here credits =
    extended price, charges = the discount give-back — identical float ops on
    both sides, so values hash-match without rounding."""
    from ..functions.amounts import amount_from_split

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount"])

    def amt(t: pa.Table) -> pa.Table:
        charges = pc.multiply(t.column("l_extendedprice"), t.column("l_discount"))
        return pa.table(
            {
                "l_orderkey": t.column("l_orderkey"),
                "l_linenumber": t.column("l_linenumber"),
                "amount": amount_from_split(t.column("l_extendedprice"), charges),
            }
        )

    return ds.map_batches(amt, batch_format="pyarrow", zero_copy_batch=True)


def host_counts_salted(sf_dir: str, salt_buckets: int = 8):
    """Skew-aware grouped count (SURVEY.md §7.2.7): the corpus' head host owns
    ~40% of pages, so a naive groupby(host) sends 40% of rows to one reducer.
    Salting splits hot keys into (host, hash(doc) % k) sub-groups — phase 1
    reduces per salted key, phase 2 merges the k partials per host. With the
    per-batch combiner this is belt-and-braces; it is the required shape when
    the aggregate can't pre-combine (e.g. exact distinct sets)."""
    from .. import corpus as corpus_mod

    docs = _read(sf_dir, "documents", ["doc_id"])

    def salted(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        hosts = corpus_mod.hosts_for_docs(ids)  # vectorized searchsorted bin
        return pa.table(
            {
                "host": pa.array(hosts, type=pa.string()),
                "salt": pa.array((ids % salt_buckets).astype(np.int32)),
            }
        )

    phase1 = combine(
        docs.map_batches(salted, batch_format="pyarrow", zero_copy_batch=True),
        ["host", "salt"],
        {"n": (None, "count")},
    )
    return combine(phase1, "host", {"n_pages": ("n", "sum")})


def sliding_window_agg(sf_dir: str):
    """Sliding 2-hour windows advancing by 1 hour: each event is expanded to
    the two windows covering it inside map_batches (flat-map semantics), then
    ``combine``. No event-time machinery needed — the expansion is a pure
    batch transform."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def expand(t: pa.Table) -> pa.Table:
        # merge on the INT key (epoch seconds), not the ISO string —
        # sort-based aggregation over int64 keys measured ~1.5× faster than
        # string keys at sf0.1; the string renders once post-aggregate
        floored = pc.cast(
            pc.cast(pc.floor_temporal(t.column("ts"), unit="hour"), pa.timestamp("s")),
            pa.int64(),
        )
        parts = []
        for k in (0, 1):
            parts.append(
                pa.table(
                    {
                        "user_id": t.column("user_id"),
                        "ws_epoch": pc.subtract(floored, pa.scalar(k * 3600, pa.int64())),
                        "value": pa.array(_cents(t.column("value"))),
                    }
                )
            )
        return pa.concat_tables(parts)

    def render(t: pa.Table) -> pa.Table:
        ws = pc.strftime(
            pc.cast(t.column("ws_epoch"), pa.timestamp("s")), format="%Y-%m-%d %H:%M:%S"
        )
        out = pa.table(
            {
                "user_id": t.column("user_id"),
                "window_start": ws,
                "sum_value": t.column("sum_value"),
                "n_events": t.column("n_events"),
            }
        )
        return _round4(out, {"sum_value": 100})

    rows = ds.map_batches(expand, batch_format="pyarrow", zero_copy_batch=True)
    return combine(rows, ["user_id", "ws_epoch"], _WINDOW_AGGS).map_batches(render, batch_format="pyarrow")


def topk_per_group(sf_dir: str, k: int = 2):
    """Top-k rows per group (window-function analog): sort-within-group +
    head(k) inside map_groups; deterministic tiebreak on the key."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"])

    def top(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True]
        ).head(k)[["o_orderpriority", "o_orderkey", "o_totalprice"]]

    return ds.groupby("o_orderpriority").map_groups(top, batch_format="pandas")


def distinct_pairs(sf_dir: str):
    """ds.unique analog over a column pair (§2.7): distinct via ``combine``."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus"])
    return combine(ds, ["l_returnflag", "l_linestatus"], {})


def distinct_count_by_group(sf_dir: str):
    """Exact COUNT(DISTINCT n_chars) per source: the distinct (n_chars,
    source) pairs, then a count per source, both by ``combine``."""
    ds = _read(sf_dir, "documents", ["source", "n_chars"])
    return combine(combine(ds, ["n_chars", "source"], {}), "source", {"n_distinct_chars": (None, "count")})


def mean_std_agg(sf_dir: str):
    """Mean/stddev rollup (§2.5/§2.8 'min of confidences' family)."""
    from ray.data.aggregate import Count, Mean, Std

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])
    agg = ds.groupby("l_returnflag").aggregate(
        Mean("l_quantity", alias_name="avg_qty"),
        Std("l_quantity", alias_name="std_qty", ddof=1),
        Count(alias_name="n_rows"),
    )
    return agg.map_batches(lambda t: _round4(t, ["avg_qty", "std_qty"]), batch_format="pyarrow")


def year_splice(sf_dir: str):
    """Year-boundary inference (§2.2, wellsfargo_visa_parser.py:196-234):
    records carry only MM/DD; the 'statement' context here is January 2025,
    so December records belong to 2024."""
    from ..functions.dates import splice_year

    ds = _read(sf_dir, "events", ["event_id", "ts"])

    def splice(t: pa.Table) -> pa.Table:
        month = pc.month(t.column("ts"))
        day = pc.day(t.column("ts"))
        n = t.num_rows
        doc_year = pa.array(np.full(n, 2025, dtype=np.int32))
        doc_month = pa.array(np.ones(n, dtype=np.int32))
        year = splice_year(month, doc_year, doc_month)
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "month": pc.cast(month, pa.int64()),
                "spliced_year": pc.cast(year, pa.int64()),
            }
        )

    return ds.map_batches(splice, batch_format="pyarrow", zero_copy_batch=True)


def regex_tokenize_bpeish(sf_dir: str):
    """BPE-ish regex token counting (§2.8 token counting over noisy text —
    here the JSON props string: word runs / digit runs / punctuation)."""
    from ..functions.tokens import BPEISH_PATTERN

    ds = _read(sf_dir, "events", ["event_id", "props"])
    return ds.map_batches(
        lambda t: pa.table(
            {
                "event_id": t.column("event_id"),
                "n_tokens_bpe": pc.cast(
                    pc.count_substring_regex(t.column("props"), pattern=BPEISH_PATTERN),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def skew_salt_plan(sf_dir: str, rows_per_reducer: int = 100):
    """The skew pre-pass (§7.2.7): a cheap groupby(host).count chooses the
    per-host salt factor k = ceil(n / rows_per_reducer) BEFORE the heavy
    shuffle — oversized hosts get split across k reducers, the long tail
    stays unsalted (k=1)."""
    counts = host_counts_salted(sf_dir)  # host, n_pages (itself salted)

    def plan(t: pa.Table) -> pa.Table:
        n = t.column("n_pages").to_numpy(zero_copy_only=False)
        k = np.ceil(n / rows_per_reducer).astype(np.int64)
        return pa.table(
            {
                "host": t.column("host"),
                "n_pages": t.column("n_pages"),
                "salt_k": pa.array(k),
            }
        )

    return counts.map_batches(plan, batch_format="pyarrow")


def quality_filter_rules(sf_dir: str):
    """Gopher/C4-style rule filter over the quality features: keep documents
    with 10–200 tokens AND stopword evidence (n_stop·10 ≥ n_tokens, i.e. a
    ≥10% stopword ratio expressed in integer math so the oracle hashes
    exactly). Returns the surviving (doc_id, n_tokens, n_stop)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def rules(t: pa.Table) -> pa.Table:
        feats = quality_features(t)
        keep = pc.and_(
            pc.and_(
                pc.greater_equal(feats.column("n_tokens"), 10),
                pc.less_equal(feats.column("n_tokens"), 200),
            ),
            pc.greater_equal(
                pc.multiply(feats.column("n_stop"), 10), feats.column("n_tokens")
            ),
        )
        return feats.filter(keep).select(["doc_id", "n_tokens", "n_stop"])

    return ds.map_batches(rules, batch_format="pyarrow", zero_copy_batch=True)


def part_brand_stats(sf_dir: str):
    """Catalog rollup over the part table (per-source stats family); the
    price sum is exact integer cents."""
    ds = _read(sf_dir, "part", ["p_brand", "p_retailprice", "p_size"])

    def cents(t: pa.Table) -> pa.Table:
        i = t.column_names.index("p_retailprice")
        return t.set_column(i, "p_retailprice", pa.array(_cents(t.column("p_retailprice"))))

    agg = combine(
        ds.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True),
        "p_brand",
        {"n_parts": (None, "count"), "sum_price": ("p_retailprice", "sum"), "sum_size": ("p_size", "sum")},
    )
    return agg.map_batches(lambda t: _round4(t, {"sum_price": 100}), batch_format="pyarrow")


def supplier_enrich(sf_dir: str):
    """Supplier dimension enrichment: balance flag + broadcast nation name
    (the customer-enrichment pattern over the remaining dimension table)."""
    import pyarrow.parquet as pq
    import ray

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    n2name = dict(
        zip(nation.column("n_nationkey").to_pylist(), nation.column("n_name").to_pylist())
    )
    ref = ray.put(n2name)

    def enrich(t: pa.Table) -> pa.Table:
        m = ray.get(ref)
        keys = t.column("s_nationkey").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "s_suppkey": t.column("s_suppkey"),
                "nation": pa.array([m[k] for k in keys], type=pa.string()),
                "balance_flag": pc.if_else(
                    pc.less(t.column("s_acctbal"), 0.0),
                    pa.scalar("negative"),
                    pa.scalar("ok"),
                ),
            }
        )

    ds = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey", "s_acctbal"])
    return ds.map_batches(enrich, batch_format="pyarrow", zero_copy_batch=True)


def pii_scrub(sf_dir: str):
    """PII hygiene pass (training-data standard): redact email/phone/card
    patterns and count hits per document — a no-op on this clean corpus by
    construction (n_pii = 0), which the oracle verifies; the kernel's
    behavior on dirty text is pinned in unit tests."""
    from ..functions.text import count_pii, scrub_pii

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t.column("doc_id"),
                "cleaned": scrub_pii(t.column("text")),
                "n_pii": count_pii(t.column("text")),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def json_parse_tolerant(sf_dir: str):
    """Tolerant JSON parse (amazon_parser.py:293-302 json.loads/literal_eval
    fallback semantics): real json.loads per row — the per-row cost is
    inherent to tolerant parsing; the regex fast path (json_field_extract)
    is the vectorized alternative. Malformed props → null, never a failure."""
    import json

    ds = _read(sf_dir, "events", ["event_id", "props"])

    def parse(t: pa.Table) -> pa.Table:
        out = []
        for s in t.column("props").to_pylist():
            try:
                v = json.loads(s)
                out.append(int(v["k"]) if isinstance(v, dict) and "k" in v else None)
            except (json.JSONDecodeError, TypeError, ValueError):
                out.append(None)
        return pa.table(
            {"event_id": t.column("event_id"), "k_val": pa.array(out, type=pa.int64())}
        )

    return ds.map_batches(parse, batch_format="pyarrow", zero_copy_batch=True)


def string_agg_by_source(sf_dir: str):
    """Ordered string aggregation per group (consolidated-output analog):
    '|'-joined doc ids in doc_id order — deterministic, so hash-exact."""
    ds = _read(sf_dir, "documents", ["source", "doc_id"])

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        ids = "|".join(str(i) for i in sorted(g["doc_id"]))
        return pd.DataFrame({"source": [g["source"].iloc[0]], "doc_ids": [ids]})

    return ds.groupby("source").map_groups(agg, batch_format="pandas")


def rank_in_group(sf_dir: str):
    """ROW_NUMBER per group (window-function family): rank orders within
    their priority by (totalprice desc, orderkey) — deterministic tiebreak."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"])

    def rank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True])
        return pd.DataFrame(
            {
                "o_orderkey": g["o_orderkey"].to_numpy(),
                "o_orderpriority": g["o_orderpriority"].to_numpy(),
                "rank_in_prio": np.arange(1, len(g) + 1, dtype=np.int64),
            }
        )

    return ds.groupby("o_orderpriority").map_groups(rank, batch_format="pandas")


def corr_by_group(sf_dir: str):
    """Pearson correlation per group via MERGEABLE MOMENTS: each batch emits
    partial (n, Σx, Σy, Σxy, Σx², Σy²) per key; one small groupby merges and
    the closed form finishes — the pattern for any algebraic statistic at
    scale (no per-group row collection)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"])

    def moments(t: pa.Table) -> pa.Table:
        x = t.column("l_quantity")
        y = t.column("l_extendedprice")
        tt = pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "n": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                "sx": x,
                "sy": y,
                "sxy": pc.multiply(x, y),
                "sxx": pc.multiply(x, x),
                "syy": pc.multiply(y, y),
            }
        )
        return (
            tt.group_by("l_returnflag")
            .aggregate([(c, "sum") for c in ("n", "sx", "sy", "sxy", "sxx", "syy")])
            .rename_columns(["l_returnflag", "n", "sx", "sy", "sxy", "sxx", "syy"])
        )

    agg = (
        ds.map_batches(moments, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_returnflag")
        .aggregate(*[Sum(c, alias_name=c) for c in ("n", "sx", "sy", "sxy", "sxx", "syy")])
    )

    def finish(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        sx = t.column("sx").to_numpy(zero_copy_only=False)
        sy = t.column("sy").to_numpy(zero_copy_only=False)
        sxy = t.column("sxy").to_numpy(zero_copy_only=False)
        sxx = t.column("sxx").to_numpy(zero_copy_only=False)
        syy = t.column("syy").to_numpy(zero_copy_only=False)
        corr = (n * sxy - sx * sy) / np.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
        return pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "corr_r": pa.array(np.round(corr, 4)),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def approx_distinct_tokens(sf_dir: str, p: int = 12):
    """Approximate distinct-token count via mergeable HLL sketches: one
    sketch ROW per batch crosses the exchange (constant bytes per block,
    regardless of cardinality), merged by elementwise register max. The
    estimate is partitioning-independent; accuracy ±~1.6% at p=12
    (asserted against the exact count in tests). Rows-only for the driver
    (SQL has no matching approximate algorithm)."""
    import pandas as pd

    from ..functions.sketches import HyperLogLog

    ds = _read(sf_dir, "documents", ["text"])

    def sketch(t: pa.Table) -> pa.Table:
        h = HyperLogLog(p)
        texts = t.column("text").to_pylist()
        if texts:
            # joining with the split separator preserves the token multiset
            # (and HLL only sees the set) — one vectorized add per batch
            # instead of a per-token Python loop (r3)
            h.add_batch(" ".join(texts).split(" "))
        return pa.table({"sketch": pa.array([h.to_bytes()], type=pa.binary())})

    merged = HyperLogLog(p)
    for row in ds.map_batches(sketch, batch_format="pyarrow", zero_copy_batch=True).iter_rows():
        merged.merge(HyperLogLog.from_bytes(row["sketch"], p))
    approx = int(round(merged.estimate()))

    # exact audit computed in the same run (VERDICT r4 #6): the distinct
    # tokens by ``combine``, counted
    def tok_rows(t: pa.Table) -> pa.Table:
        toks = t.column("text").to_pandas().str.split(" ")
        return pa.table({"token": pa.array(np.concatenate(toks.to_numpy()), pa.string())})

    exact = combine(ds.map_batches(tok_rows, batch_format="pyarrow", zero_copy_batch=True), "token", {}).count()
    rel_err = round(abs(approx - exact) / max(exact, 1), 6)
    return pd.DataFrame(
        {"approx_distinct": [approx], "exact_distinct": [exact], "rel_err": [rel_err]}
    )


def heavy_hitter_tokens(sf_dir: str, phi: float = 0.002):
    """Public surface of :func:`_heavy_hitters_and_total` (result only)."""
    return _heavy_hitters_and_total(sf_dir, phi)[0]


def _heavy_hitters_and_total(sf_dir: str, phi: float = 0.002):
    """EXACT φ-heavy-hitter tokens (count > φ·N) without ever shuffling the
    full token key space — the shape that finds hot vocabulary / hot hosts
    at 100 TB where ``groupby(token)`` means one exchange row (and one Ray
    group) per DISTINCT token:

    1. per-batch Misra-Gries-style summary: exact in-batch value_counts
       truncated to k = ⌈2/φ⌉ counters, subtracting the (k+1)-th largest
       count (the per-batch decrement); only these bounded summaries plus
       a sentinel (batch token total, decrement) cross the exchange;
    2. candidate superset by ``combine``: per-key undercount is
       ≤ Σ decrements ≤ N/(k+1) < φN/2, so every true heavy hitter has
       merged count > φN − Σdec — at most ~2/φ candidates survive; the
       sentinels' null-token row is dropped;
    3. exact verify pass: broadcast the candidate set, ``combine`` counts
       ONLY candidate tokens, keep count > φN (strict; an integer count
       exceeds φN exactly when it exceeds floor(φN), so the filters
       compare integers).

    The verify pass makes the answer exact (oracle-paired), not sketchy;
    the sketch only bounds what moves. Two passes over the text are the
    price of exactness with bounded state.

    Returns ``(result, n_total)`` — the MG pass already counts the corpus
    token total via its sentinel rows, so consumers that need N
    (unigram_logprob_score) fold away their own counting scan (NOTES r4
    materialize/fold rule)."""
    import math

    import ray

    ds = _read(sf_dir, "documents", ["text"])
    k = int(np.ceil(2.0 / phi))

    def mg_partial(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        # joining with the split separator preserves the token multiset of
        # per-doc text.split(" ") (matches the oracle's string_split)
        toks = " ".join(texts).split(" ") if texts else []
        vc = pd.Series(toks, dtype="object").value_counts()
        dec = 0
        if len(vc) > k:
            dec = int(vc.iloc[k])
            vc = vc.iloc[:k] - dec
            vc = vc[vc > 0]
        tok_arr = vc.index.to_numpy(dtype=object)
        return pa.table(
            {
                "token": pa.array(list(tok_arr) + [None], pa.string()),
                "n": pa.array(np.append(vc.to_numpy(dtype=np.int64), 0)),
                "n_total": pa.array([0] * len(tok_arr) + [len(toks)], pa.int64()),
                "err": pa.array([0] * len(tok_arr) + [dec], pa.int64()),
            }
        )

    # bounded: ≤ k+1 rows per batch; materialized for its two consumers
    # (scalar totals, candidate merge)
    summ = ds.map_batches(
        mg_partial, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    tot = summ.sum(["n_total", "err"]) or {}  # None on no rows
    n_total = int(tot.get("sum(n_total)") or 0)
    total_err = int(tot.get("sum(err)") or 0)
    thr = math.floor(phi * float(n_total))

    merged = combine(summ, "token", {"n": ("n", "sum")})
    cands = [r["token"] for r in merged.filter(expr=f"is_valid(token) and n > {thr - total_err}").take_all()]
    if len(cands) == 0:
        return (
            pd.DataFrame(
                {
                    "token": pd.Series([], dtype="object"),
                    "n_occurrences": pd.Series([], dtype="int64"),
                }
            ),
            n_total,
        )
    cand_ref = ray.put(pa.array(cands, pa.string()))

    def cand_tokens(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        toks = pa.array(" ".join(texts).split(" ") if texts else [], pa.string())
        return pa.table({"token": toks.filter(pc.is_in(toks, value_set=ray.get(cand_ref)))})

    toks = ds.map_batches(cand_tokens, batch_format="pyarrow", zero_copy_batch=True)
    counts = combine(toks, "token", {"n_occurrences": (None, "count")})
    return counts.filter(expr=f"n_occurrences > {thr}"), n_total


def median_by_group(sf_dir: str):
    """Exact per-group median via sort-within-group (§2.5 family; Ray has no
    built-in quantile aggregate — the group fits a reducer by definition of
    the partitioning key). Median of doubles is an exact element (or the
    mean of two), so it hash-matches SQL's median()."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])

    def med(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_returnflag": [g["l_returnflag"].iloc[0]],
                "median_qty": [float(g["l_quantity"].median())],
            }
        )

    return ds.groupby("l_returnflag").map_groups(med, batch_format="pandas")


def running_total(sf_dir: str):
    """Ordered per-key running aggregate (the streaming-state shape,
    ray_guide 'Streaming-shaped workloads'): bucket by user-hash, sort the
    bucket by (user, ts, event_id), segment-wise cumulative-sum
    (``cogroup``). The sequential accumulation order matches SQL's
    window frame, so doubles are bit-identical."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def cumsum_b(g: pd.DataFrame) -> pd.DataFrame:
        rt = g.groupby("user_id", sort=False)["value"].cumsum()  # aligned to g
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "running_total": np.round(rt.to_numpy(), 4),
            }
        )

    return cogroup(ds, "user_id", cumsum_b, sort_by=["user_id", "ts", "event_id"])


def percentile_by_group(sf_dir: str, q_num: int = 9, q_den: int = 10):
    """Exact discrete quantile per group (p90 of order totals per priority).
    DuckDB ``quantile_disc`` semantics: sorted element at ``ceil(q·n) − 1``
    with EXACT fraction arithmetic (float q·n drifts above integers — e.g.
    0.9·10 = 9.000000000000002 — and flips the index)."""
    from fractions import Fraction
    from math import ceil

    q = Fraction(q_num, q_den)
    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g["o_totalprice"].to_numpy())
        idx = ceil(q * len(v)) - 1
        return pd.DataFrame(
            {"o_orderpriority": [g["o_orderpriority"].iloc[0]], "p90_price": [v[idx]]}
        )

    # 5 priority groups — far below the tiny-group trap threshold
    return ds.groupby("o_orderpriority").map_groups(pick, batch_format="pandas")


def rolling_avg_per_user(sf_dir: str, window: int = 3):
    """Frame-based rolling aggregate (ROWS BETWEEN 2 PRECEDING AND CURRENT
    ROW): per user ordered by (ts, event_id), mean of the trailing window.
    Bucketed sort + segment-wise groupby-rolling (``cogroup``) — the
    ordered-state shape shared with running_total; rounded 4dp on both
    sides."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def roll_b(g: pd.DataFrame) -> pd.DataFrame:
        # groupby-rolling is the C windowed kernel; group-major output order
        # equals row order because the bucket is key-sorted (helper invariant)
        avg = g.groupby("user_id", sort=False)["value"].rolling(window, min_periods=1).mean()
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "rolling_avg": np.round(avg.to_numpy(), 4),
            }
        )

    return cogroup(ds, "user_id", roll_b, sort_by=["user_id", "ts", "event_id"])


def mode_by_group(sf_dir: str):
    """Most frequent event_type per user with a DETERMINISTIC tiebreak
    (count DESC, value ASC) — DuckDB's bare mode() breaks ties by scan
    order, which no distributed implementation should depend on, so BOTH
    sides use the explicit count+rank formulation.

    Shape (r3): per-batch combiner → ONE bucket-level grouped stage that
    both merges the partial counts AND takes the argmax (vectorized pandas
    inside the bucket). The previous ``groupby(user, type).aggregate(Sum)``
    was one Ray group per (user, type) pair — the ~0.4 ms/group native-
    aggregate tax (NOTES) on exactly the high-cardinality path."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        tt = t.append_column("one", pa.array(np.ones(t.num_rows, dtype=np.int64)))
        return (
            tt.group_by(["user_id", "event_type"])
            .aggregate([("one", "sum")])
            .rename_columns(["user_id", "event_type", "n"])
        )

    def merge_argmax_b(g: pd.DataFrame) -> pd.DataFrame:
        s = (
            g.groupby(["user_id", "event_type"], sort=False)["n"].sum().reset_index()
        )
        s = s.sort_values(["user_id", "n", "event_type"], ascending=[True, False, True])
        top = s.drop_duplicates(subset="user_id", keep="first")
        return pd.DataFrame(
            {
                "user_id": top["user_id"].to_numpy(dtype=np.int64),
                "mode_type": top["event_type"].to_numpy(),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return cogroup(parts, "user_id", merge_argmax_b)


def lag_event_delta(sf_dir: str):
    """LAG window function (previous-row delta per key): bucket by
    user-hash, sort the bucket by (user, ts, event_id), segment-wise
    microsecond delta via groupby-diff; each key's first row → null
    (``cogroup`` — same bucket shape as running_total)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def lag_b(g: pd.DataFrame) -> pd.DataFrame:
        # force microseconds explicitly — pandas may carry ns or us units
        us = pd.Series(
            g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64), index=g.index
        )
        delta = us.groupby(g["user_id"].to_numpy()).diff()  # aligned to g
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "delta_us": delta.to_numpy(),  # NaN on each first row → null
            }
        )

    out = cogroup(ds, "user_id", lag_b, sort_by=["user_id", "ts", "event_id"])
    return out.map_batches(
        lambda t: pa.table(
            {
                "event_id": t.column("event_id"),
                "delta_us": pc.cast(t.column("delta_us"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def range_join_campaigns(sf_dir: str):
    """Interval-containment RANGE JOIN (the custom-operator family Ray Data
    lacks natively; task-brief example): events join a tiny campaigns table
    on ``c_start <= ts < c_end`` with OVERLAPPING ranges (one event can land
    in several campaigns → flat-map output).

    Shape: the range side is broadcast once (``ray.put``); each batch tests
    every range with a vectorized int64 comparison — no shuffle at all.
    Partitioning assumption: the range side is small (true for
    campaign/calendar dims); a large range side needs interval binning
    (assign each range and each row to coarse time buckets, co-group)."""
    import ray

    # campaigns derived deterministically from region: 5 overlapping 8-day
    # windows starting every 5 days from 2024-01-01
    base_us = pd.Timestamp("2024-01-01").value // 1000
    day_us = 86_400_000_000
    ranges = [
        (k, base_us + k * 5 * day_us, base_us + (k * 5 + 8) * day_us) for k in range(5)
    ]
    ranges_ref = ray.put(ranges)

    def join(t: pa.Table) -> pa.Table:
        rs = ray.get(ranges_ref)
        ts = pc.cast(t.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        ev = t.column("event_id").to_numpy(zero_copy_only=False)
        out_ev, out_c = [], []
        for cid, s, e in rs:  # 5 vectorized passes, not a row loop
            m = (ts >= s) & (ts < e)
            out_ev.append(ev[m])
            out_c.append(np.full(int(m.sum()), cid, dtype=np.int64))
        return pa.table(
            {
                "event_id": pa.array(np.concatenate(out_ev)),
                "campaign_id": pa.array(np.concatenate(out_c)),
            }
        )

    ds = _read(sf_dir, "events", ["event_id", "ts"])
    return ds.map_batches(join, batch_format="pyarrow", zero_copy_batch=True)


def pivot_event_counts(sf_dir: str):
    """PIVOT (long → wide counts): per user, one column per event type.
    Conditional casts per row, summed per user by ``combine`` (r3: the
    previous native ``groupby(user).aggregate(5×Sum)`` paid the
    per-user-group aggregate tax). A hot user contributes one partial row
    per block."""
    types = ["click", "error", "purchase", "signup", "view"]
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def indicators(t: pa.Table) -> pa.Table:
        cols = {"user_id": t.column("user_id")}
        for ty in types:
            cols[f"n_{ty}"] = pc.cast(pc.equal(t.column("event_type"), ty), pa.int64())
        return pa.table(cols)

    rows = ds.map_batches(indicators, batch_format="pyarrow", zero_copy_batch=True)
    return combine(rows, "user_id", {f"n_{ty}": (f"n_{ty}", "sum") for ty in types})


def session_windows(sf_dir: str, gap_minutes: int = 30):
    """Sessionization per user (30-min inactivity gap): bucket by user-hash,
    sort the bucket by (user, ts), segment-wise gap count via groupby-diff
    (``cogroup`` — no per-user Ray groups)."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])
    gap = pd.Timedelta(minutes=gap_minutes)

    def sessions_b(g: pd.DataFrame) -> pd.DataFrame:
        users = g["user_id"].to_numpy()
        gaps = g.groupby("user_id", sort=False)["ts"].diff() > gap
        n = gaps.groupby(users).sum() + 1
        return pd.DataFrame(
            {
                "user_id": n.index.to_numpy(dtype=np.int64),
                "n_sessions": n.to_numpy(dtype=np.int64),
            }
        )

    return cogroup(ds, "user_id", sessions_b, sort_by=["user_id", "ts"])


def approx_quantile_hist(sf_dir: str, qs=(0.5, 0.9, 0.99), n_bins: int = 4096):
    """Approximate quantiles by fixed-grid histogram — the deterministic,
    mergeable alternative to an exact global sort when "p99 within a known
    error bound" is enough (the common case for corpus length/score
    distributions at 100 TB). Two passes, no all-to-all:

    1. min/max pre-pass fixes a shared bin grid;
    2. per-batch ``np.histogram`` partials emit only NONZERO (bin_id, count)
       rows (≤ n_bins per batch); a 64-bucket vectorized merge reduces them
       to ≤ n_bins total rows — the full value column never shuffles.

    The reported value is the upper edge of the first bin whose CDF reaches
    ``ceil(q·n)`` (quantile_disc's target rank), so
    |approx − exact quantile_disc| ≤ bin width = (max−min)/n_bins, which is
    returned alongside each estimate. Deterministic (no RNG, no sketch
    merge-order sensitivity — counts are commutative). Rows-only entry:
    accuracy is pinned against exact np.quantile in tests/test_functions.py."""
    col = "l_extendedprice"
    ds = _read(sf_dir, "lineitem", [col])

    from ray.data.aggregate import Max, Min

    agg = ds.aggregate(Min(col), Max(col))
    lo, hi = float(agg[f"min({col})"]), float(agg[f"max({col})"])
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, n_bins + 1)
    width = (hi - lo) / n_bins

    def hist_partial(t: pa.Table) -> pa.Table:
        v = t.column(col).to_numpy(zero_copy_only=False)
        counts, _ = np.histogram(v, bins=edges)
        nz = np.flatnonzero(counts)
        return pa.table(
            {
                "bin_id": pa.array(nz.astype(np.int64)),
                "n": pa.array(counts[nz].astype(np.int64)),
            }
        )

    # ≤ n_bins scalars — the only thing the driver sees
    bins = ds.map_batches(hist_partial, batch_format="pyarrow", zero_copy_batch=True)
    hist = combine_frame(bins, "bin_id", {"n": ("n", "sum")})
    cdf = np.cumsum(hist["n"].to_numpy())
    total = int(cdf[-1])
    rows = []
    for q in qs:
        rank = int(np.ceil(q * total))
        i = int(np.searchsorted(cdf, rank))
        rows.append(
            {
                "q": q,
                "approx_value": float(edges[int(hist["bin_id"].iloc[i]) + 1]),
                "max_abs_error": width,
            }
        )
    out = pd.DataFrame(rows)
    # self-audit in the same run (VERDICT r4 #6): the exact distributed
    # selection (exact_quantile, same column and qs) bounds-checks every
    # estimate — the driver sees the error-bound CONTRACT hold, not just
    # three unauditable floats.
    ex = exact_quantile(sf_dir, qs=qs).to_pandas().rename(columns={"val": "exact_value"})
    out = out.merge(ex, on="q", how="left")
    out["within_bound"] = (out["approx_value"] - out["exact_value"]).abs() <= out[
        "max_abs_error"
    ]
    return out


def ntile_by_group(sf_dir: str, n: int = 4):
    """NTILE(n) per partition (SQL window): tile ids over orders partitioned
    by customer, ordered by (totalprice, orderkey). Exact SQL semantics —
    the first ``s mod n`` tiles get the extra row.

    Scale shape: ``cogroup`` (customers never become Ray groups);
    within the bucket rank r and size s come from two vectorized pandas
    transforms and the tile id is one closed-form numpy expression — no
    per-key Python."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def tiles(g: pd.DataFrame) -> pd.DataFrame:
        grp = g.groupby("o_custkey", sort=False)
        r = grp.cumcount().to_numpy(dtype=np.int64)
        s = grp["o_custkey"].transform("size").to_numpy(dtype=np.int64)
        q, rem = s // n, s % n
        cut = (q + 1) * rem  # rows covered by the (q+1)-sized leading tiles
        tile = np.where(
            r < cut,
            r // np.maximum(q + 1, 1),
            rem + (r - cut) // np.maximum(q, 1),
        ) + 1
        return pd.DataFrame(
            {"o_orderkey": g["o_orderkey"].to_numpy(), "tile": tile.astype(np.int64)}
        )

    return cogroup(
        ds, "o_custkey", tiles, sort_by=["o_custkey", "o_totalprice", "o_orderkey"]
    )


def rollup_counts(sf_dir: str):
    """GROUP BY ROLLUP(status, priority): all three granularities — (s, p),
    (s, NULL), (NULL, NULL) — from ONE pass. The finest aggregate is the
    only thing computed from data (``_status_priority_fine``); the coarser
    levels are derived from the finest sums driver-side (15 rows), summed
    as exact integer cents; every level divides and rounds once at the
    end."""
    fine = _status_priority_fine(sf_dir)
    lvl2 = pd.DataFrame(
        {
            "o_orderstatus": fine["o_orderstatus"],
            "o_orderpriority": fine["o_orderpriority"],
            "n": fine["pn"],
            "_sum": fine["psum"],
        }
    )
    by_s = fine.groupby("o_orderstatus", sort=True).agg(
        pn=("pn", "sum"), psum=("psum", "sum")
    )
    lvl1 = pd.DataFrame(
        {
            "o_orderstatus": by_s.index.to_numpy(),
            "o_orderpriority": None,
            "n": by_s["pn"].to_numpy(),
            "_sum": by_s["psum"].to_numpy(),
        }
    )
    lvl0 = pd.DataFrame(
        {
            "o_orderstatus": [None],
            "o_orderpriority": [None],
            "n": [int(fine["pn"].sum())],
            "_sum": [int(by_s["psum"].sum())],
        }
    )
    out = pd.concat([lvl2, lvl1, lvl0], ignore_index=True)
    out["n"] = out["n"].astype(np.int64)
    out["sum_price"] = np.round(out.pop("_sum").to_numpy(dtype=np.float64) / 100.0, 2)
    return out


def zscore_by_group(sf_dir: str):
    """Per-group z-score normalization (feature standardization for training
    data): (x − μ_g)/σ_g with the small per-group stats computed ONCE and
    broadcast into a stateless scoring pass — no corpus shuffle at all (the
    small-side-broadcast join shape)."""
    from ray.data.aggregate import Mean, Std

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_returnflag", "l_extendedprice"])
    stats = ds.groupby("l_returnflag").aggregate(
        Mean("l_extendedprice", alias_name="mu"),
        Std("l_extendedprice", alias_name="sd", ddof=1),
    ).to_pandas()  # |flags| rows — driver scalars, UNROUNDED for the z calc
    mu = dict(zip(stats["l_returnflag"], stats["mu"]))
    sd = dict(zip(stats["l_returnflag"], stats["sd"]))

    def score(t: pa.Table) -> pa.Table:
        f = t.column("l_returnflag").to_pandas()
        x = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        z = (x - f.map(mu).to_numpy(dtype=np.float64)) / f.map(sd).to_numpy(
            dtype=np.float64
        )
        return pa.table(
            {
                "l_orderkey": t.column("l_orderkey"),
                "l_linenumber": t.column("l_linenumber"),
                "z": pa.array(np.round(z, 4)),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


def exact_quantile(sf_dir: str, qs=(0.5, 0.9, 0.99), n_bins: int = 1024):
    """EXACT global quantiles (quantile_disc semantics: 1-indexed rank
    ``max(ceil(q·n), 1)``) via distributed selection — iterative histogram
    narrowing instead of a global sort: each pass scans the column once,
    bincounts values of each still-active [lo, hi] range into ``n_bins``
    buckets (integer partials → order-free driver merge of B ints per
    range), and descends into the bucket containing the target rank. Range
    shrinks ×n_bins per pass ⇒ ceil(log_B(range)) + 1 scans total (~3 for
    prices) — the 100 TB answer when approx_quantile_hist's error bound
    isn't acceptable and a full sort is too expensive.

    Exactness: prices are 2-decimal currency — converted to integer cents
    (round-trip exact in float64 below 10^13), so bucket arithmetic and
    the final cents/100 reconstruction are exact. All qs share each scan.
    Returns (q, val) float64, matching ``quantile_disc``."""
    ds = _read(sf_dir, "lineitem", ["l_extendedprice"])

    def to_cents_t(t: pa.Table) -> pa.Table:
        v = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        return pa.table({"cents": pa.array(np.round(v * 100.0).astype(np.int64))})

    cds = ds.map_batches(to_cents_t, batch_format="pyarrow", zero_copy_batch=True).materialize()
    vals = _exact_int_quantiles(cds, "cents", qs, n_bins=n_bins)
    if vals is None:
        return pa.table({"q": pa.array([], pa.float64()), "val": pa.array([], pa.float64())})
    return pa.table(
        {
            "q": pa.array([float(q) for q in vals], pa.float64()),
            "val": pa.array([v / 100.0 for v in vals.values()], pa.float64()),
        }
    )


def _exact_int_quantiles(ds, col: str, qs, n_bins: int = 1024):
    """Single-column wrapper over :func:`_exact_int_quantiles_multi`.
    Returns {q: int} in ``qs`` order, or None on an empty column."""
    out = _exact_int_quantiles_multi(ds, {col: qs}, n_bins=n_bins)
    return out.get(col)


def _exact_int_quantiles_multi(ds, cols_qs: dict, n_bins: int = 1024):
    """EXACT quantile_disc over MULTIPLE int64 Dataset columns by shared
    distributed selection (the iterative histogram narrowing documented in
    ``exact_quantile``, generalized in r4): every column's still-active
    [lo, hi] ranges are histogrammed in the SAME scan, so k columns × m
    quantiles cost the max narrowing depth, not the sum (RFM's three
    metrics pay ~3 scans total instead of 3×3). ``ds`` should be
    materialized when its lineage is expensive. Returns
    {col: {q: int}}; a column with no rows is absent from the result."""
    import math

    from ray.data.aggregate import Count, Max, Min

    aggs = []
    for col in cols_qs:
        aggs += [
            Count(col, alias_name=f"n_{col}"),
            Min(col, alias_name=f"mn_{col}"),
            Max(col, alias_name=f"mx_{col}"),
        ]
    agg = ds.aggregate(*aggs)

    # state per (col, q): (lo, hi, rank-within-[lo,hi])
    state: dict = {}
    for col, qs in cols_qs.items():
        n = int(agg[f"n_{col}"])
        if n == 0:
            continue
        glo, ghi = int(agg[f"mn_{col}"]), int(agg[f"mx_{col}"])
        for q in qs:
            state[(col, float(q))] = [glo, ghi, max(math.ceil(float(q) * n), 1)]

    while any(lo != hi for lo, hi, _ in state.values()):
        ranges = sorted(
            {(col, lo, hi) for (col, _), (lo, hi, _) in state.items() if lo != hi}
        )

        def hist(t: pa.Table, ranges=ranges) -> pa.Table:
            """Nonzero (bin, range_id, n) cells of each range's histogram."""
            cells = []
            for rid, (col, lo, hi) in enumerate(ranges):
                c = t.column(col).to_numpy(zero_copy_only=False)
                sel = c[(c >= lo) & (c <= hi)]
                cells.append(rid * n_bins + (sel - lo) * n_bins // (hi - lo + 1))
            counts = np.bincount(np.concatenate(cells).astype(np.int64), minlength=len(ranges) * n_bins)
            nz = np.flatnonzero(counts)
            return pa.table({"bin": pa.array(nz % n_bins), "range_id": pa.array(nz // n_bins), "n": pa.array(counts[nz])})

        cells = ds.map_batches(hist, batch_format="pyarrow", zero_copy_batch=True)
        f = combine_frame(cells, ["bin", "range_id"], {"n": ("n", "sum")})
        totals = np.zeros((len(ranges), n_bins), dtype=np.int64)
        totals[f["range_id"].to_numpy(np.int64), f["bin"].to_numpy(np.int64)] = f["n"].to_numpy(np.int64)
        for (col, q), (lo, hi, rank) in state.items():
            if lo == hi:
                continue
            rid = ranges.index((col, lo, hi))
            width = hi - lo + 1
            cum = np.cumsum(totals[rid])
            b = int(np.searchsorted(cum, rank))
            below = int(cum[b - 1]) if b else 0
            state[(col, q)] = [
                lo + (b * width + n_bins - 1) // n_bins,
                lo + ((b + 1) * width - 1) // n_bins,
                rank - below,
            ]
            if int(totals[rid][b]) == 0:
                raise AssertionError("rank fell in an empty bucket — narrowing bug")

    out: dict = {}
    for (col, q), (lo, _, _) in state.items():
        out.setdefault(col, {})[q] = lo
    return out


def funnel_conversion(sf_dir: str, steps=("view", "click", "purchase")):
    """Ordered funnel analysis (the product-analytics staple): how many
    users performed step 1, then step 2 STRICTLY AFTER their first step 1,
    then step 3 strictly after that — earliest-qualifying-event semantics
    at every step. Returns (step, n_users) with cumulative step labels.

    Scale shape: non-funnel events are pruned BEFORE the shuffle (row
    filter in the map — at web scale most events are neither view, click
    nor purchase); one user-hash bucket shuffle co-locates each user's
    funnel events (``cogroup``); inside the bucket the step chain
    is |steps| vectorized merge+groupby-min rounds over ALL users at once;
    each bucket emits |steps| count partials and ``combine`` sums them."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    step_set = pa.array(list(steps))

    def prune(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t.column("event_type"), value_set=step_set))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        reached = []
        cur = None  # Series: user_id -> ts of reaching the previous step
        for i, s in enumerate(steps):
            sel = g[g["event_type"] == s]
            if i == 0:
                cur = sel.groupby("user_id")["ts"].min()
            else:
                m = sel.merge(cur.rename("prev").reset_index(), on="user_id")
                m = m[m["ts"] > m["prev"]]
                cur = m.groupby("user_id")["ts"].min()
            reached.append(len(cur))
        return pd.DataFrame(
            {"step_idx": np.arange(len(steps), dtype=np.int64),
             "n": np.asarray(reached, dtype=np.int64)}
        )

    partials = cogroup(
        ds.map_batches(prune, batch_format="pyarrow", zero_copy_batch=True),
        "user_id",
        per_bucket,
        sort_by=["user_id", "ts"],
    )
    totals = combine(partials, "step_idx", {"n_users": ("n", "sum")})

    labels = [">".join(steps[: i + 1]) for i in range(len(steps))]

    def render(t: pa.Table) -> pa.Table:
        idx = t.column("step_idx").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"step": pa.array([labels[i] for i in idx], pa.string()), "n_users": t.column("n_users")}
        )

    return totals.map_batches(render, batch_format="pyarrow", zero_copy_batch=True)


WEEK_US = 7 * 86400 * 1_000_000


def retention_cohorts(sf_dir: str):
    """Cohort retention matrix: users grouped by the epoch-week of their
    FIRST event; for every later week in which they were active, one
    (cohort_week, week_offset, n_users) cell — the standard growth-
    analytics rollup. Weeks are integer epoch_us // WEEK_US on both sides
    (the proven int64-epoch tumbling-window convention — no calendar/week-
    start ambiguity vs the oracle).

    Scale shape: per batch the events reduce to DISTINCT (user, week)
    BEFORE the shuffle (per-user activity is heavily repeated within a
    week); one user-hash bucket shuffle co-locates a user's distinct weeks;
    within the bucket cohort = transform('min') and the cell partials are a
    vectorized groupby count; ``combine`` sums them over the tiny
    (cohort × offset) key space."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def distinct_weeks(t: pa.Table) -> pa.Table:
        u = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        w = (
            t.column("ts").cast(pa.timestamp("us")).to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").view(np.int64) // WEEK_US
        )
        d = pd.DataFrame({"user_id": u, "week": w}).drop_duplicates()
        return pa.table(
            {
                "user_id": pa.array(d["user_id"].to_numpy(dtype=np.int64)),
                "week": pa.array(d["week"].to_numpy(dtype=np.int64)),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "week"])  # across-batch dups
        cohort = g.groupby("user_id")["week"].transform("min")
        cells = (
            pd.DataFrame(
                {
                    "cohort_week": cohort.to_numpy(),
                    "week_offset": g["week"].to_numpy() - cohort.to_numpy(),
                }
            )
            .groupby(["cohort_week", "week_offset"], sort=False)
            .size()
            .reset_index(name="n")
        )
        cells["n"] = cells["n"].astype(np.int64)
        return cells

    partials = cogroup(
        ds.map_batches(distinct_weeks, batch_format="pyarrow", zero_copy_batch=True),
        "user_id",
        per_bucket,
    )
    return combine(partials, ["cohort_week", "week_offset"], {"n_users": ("n", "sum")})


def event_time_join(sf_dir: str, window_s: int = 86400):
    """Stream-stream temporal self-join — the windowed-join primitive
    (events×events): every (view, purchase) pair of the SAME user with
    0 < ts_purchase − ts_view ≤ window. Returns (user_id, view_id,
    purchase_id, delta_s) — the attribution join a clickstream pipeline
    runs continuously.

    Scale shape: both sides are row-filtered to their event type BEFORE the
    one user-hash bucket shuffle; within the bucket the pair space is a
    per-user merge of the two typed subsets filtered to the window —
    vectorized, and output is bounded by the window span per user rather
    than the full per-user cross product. delta is integer microseconds
    both sides (the int64-epoch convention)."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    W_US = int(window_s) * 1_000_000

    def prune(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t.column("event_type"), value_set=pa.array(["view", "purchase"]))
        t = t.filter(keep)
        us = (
            t.column("ts").cast(pa.timestamp("us")).to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").view(np.int64)
        )
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "t_us": pa.array(us),
                "is_view": pc.equal(t.column("event_type"), "view"),
            }
        )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        v = g[g["is_view"]][["user_id", "event_id", "t_us"]]
        p = g[~g["is_view"]][["user_id", "event_id", "t_us"]]
        m = v.merge(p, on="user_id", suffixes=("_v", "_p"))
        d = m["t_us_p"].to_numpy() - m["t_us_v"].to_numpy()
        m = m[(d > 0) & (d <= W_US)]
        return pd.DataFrame(
            {
                "user_id": m["user_id"].to_numpy(dtype=np.int64),
                "view_id": m["event_id_v"].to_numpy(dtype=np.int64),
                "purchase_id": m["event_id_p"].to_numpy(dtype=np.int64),
                "delta_s": (
                    (m["t_us_p"].to_numpy() - m["t_us_v"].to_numpy()) // 1_000_000
                ).astype(np.int64),
            }
        )

    return cogroup(
        ds.map_batches(prune, batch_format="pyarrow", zero_copy_batch=True),
        "user_id",
        pairs,
    )


def moment_stats_by_group(sf_dir: str):
    """Higher-moment statistics per group — skewness, excess kurtosis,
    sample covariance and regression slope — via MERGEABLE RAW POWER SUMS:
    each batch emits one partial row per key (n, Σx..Σx⁴, Σd, Σxd, Σp, Σxp),
    a small groupby merges, and the closed forms finish driver-side-free.
    Same algebraic-statistic shape as ``corr_by_group``; the whole value
    column never shuffles. Formulas match DuckDB's bias-corrected
    ``skewness``/``kurtosis`` (adjusted Fisher–Pearson G1; sample excess G2)
    and ``covar_samp``/``regr_slope`` — verified numerically, and the
    4-decimal rounding on both sides absorbs summation-order noise.

    Precision note: x = l_quantity ∈ [1, 50] so Σx⁴ stays exactly
    representable in doubles at any realistic group size; never feed raw
    power sums a column with 1e5-magnitude values (center first instead).
    """
    from ray.data.aggregate import Sum

    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_quantity", "l_discount", "l_extendedprice"],
    )
    SUMS = ("n", "sx", "sx2", "sx3", "sx4", "sd", "sxd", "sp", "sxp")

    def partial(t: pa.Table) -> pa.Table:
        x = t.column("l_quantity")
        d = t.column("l_discount")
        p = t.column("l_extendedprice")
        x2 = pc.multiply(x, x)
        tt = pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "n": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                "sx": x,
                "sx2": x2,
                "sx3": pc.multiply(x2, x),
                "sx4": pc.multiply(x2, x2),
                "sd": d,
                "sxd": pc.multiply(x, d),
                "sp": p,
                "sxp": pc.multiply(x, p),
            }
        )
        return (
            tt.group_by("l_returnflag")
            .aggregate([(c, "sum") for c in SUMS])
            .rename_columns(["l_returnflag", *SUMS])
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_returnflag")
        .aggregate(*[Sum(c, alias_name=c) for c in SUMS])
    )

    def finish(t: pa.Table) -> pa.Table:
        col = lambda c: t.column(c).to_numpy(zero_copy_only=False).astype(np.float64)
        n = col("n")
        mu = col("sx") / n
        m2 = col("sx2") / n - mu**2
        m3 = col("sx3") / n - 3 * mu * col("sx2") / n + 2 * mu**3
        m4 = (
            col("sx4") / n
            - 4 * mu * col("sx3") / n
            + 6 * mu**2 * col("sx2") / n
            - 3 * mu**4
        )
        g1 = m3 / m2**1.5
        skew = g1 * np.sqrt(n * (n - 1)) / (n - 2)
        g2 = m4 / m2**2 - 3.0
        kurt = ((n + 1) * g2 + 6.0) * (n - 1) / ((n - 2) * (n - 3))
        covar_qd = (col("sxd") - col("sx") * col("sd") / n) / (n - 1)
        slope = (n * col("sxp") - col("sx") * col("sp")) / (n * col("sx2") - col("sx") ** 2)
        return pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "skew_qty": pa.array(np.round(skew, 4)),
                "kurt_qty": pa.array(np.round(kurt, 4)),
                "covar_qty_disc": pa.array(np.round(covar_qd, 6)),
                "slope_price_qty": pa.array(np.round(slope, 4)),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def entropy_by_group(sf_dir: str):
    """Shannon entropy (log2, over value counts — DuckDB ``entropy``
    semantics) of the language distribution per source. Scale shape: the
    corpus reduces to (source, lang) COUNT partials inside each batch, the
    merged count table is #sources × #langs (dimension-sized), and the
    entropy finish runs vectorized on that tiny table in one final batch —
    the full text/lang column never shuffles."""
    ds = _read(sf_dir, "documents", ["source", "lang"])
    counts = combine(ds, ["source", "lang"], {"n": (None, "count")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        # dimension-sized table (sources × langs): single-batch vectorized
        tot = df.groupby("source")["n"].transform("sum").to_numpy(dtype=np.float64)
        p = df["n"].to_numpy(dtype=np.float64) / tot
        df = df.assign(_h=-p * np.log2(p))
        out = df.groupby("source", as_index=False)["_h"].sum()
        return pd.DataFrame(
            {
                "source": out["source"],
                "lang_entropy": np.round(out["_h"].to_numpy(), 4),
            }
        )

    return counts.repartition(1).map_batches(finish, batch_format="pandas", batch_size=None)


def _distinct_ok_pk_packed(sf_dir: str):
    """Per-batch DISTINCT (orderkey<<32 | partkey) as ONE int64 column
    ``packed`` next to its co-group key ``ok`` (the orderkey) — the
    basket-mining exchange (r4): np.unique gives batch-level dedup for
    free, and sorting the packed value IS the (orderkey, partkey) sort the
    lag kernel needs.
    Shared by the pair miner, the distinct-order count and the item
    supports (one materialization, three consumers)."""
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def pack(t: pa.Table) -> pa.Table:
        ok = t.column("l_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        pk = t.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        packed = np.unique((ok << 32) | pk)
        return pa.table(
            {
                "ok": pa.array(packed >> 32),
                "packed": pa.array(packed),
            }
        )

    return ds.map_batches(pack, batch_format="pyarrow", zero_copy_batch=True)


def _packed_pair_counts(sf_dir: str, min_count: int = 1, packed_src=None):
    """Shared market-basket pair-count core (copurchase_pairs /
    association_rules_topk): aggregated (pair, n_orders) over distinct
    per-order part pairs, pair packed a<<32|b (a<b). See copurchase_pairs
    for the shifted-lag kernel shape. The per-bucket pair counts merge in
    ``combine``; ``min_count`` is the min-support filter (VERDICT r3
    wrong #2), run right after ``combine``'s merge, so below-support pairs
    — the quadratic bulk of the distinct-pair table — never reach a
    caller. They do reach the merge: while the per-bucket partials fit in
    ``ROWS_PER_BUCKET`` rows, ``combine`` merges them all on the driver
    before the filter runs. ``packed_src`` lets association_rules reuse
    one materialized packed projection."""
    src = packed_src if packed_src is not None else _distinct_ok_pk_packed(sf_dir)

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # np.unique = cross-batch dedup + the (orderkey, partkey) sort in
        # one C pass over a single int64 array
        v = np.unique(g["packed"].to_numpy())
        ok = v >> 32
        pk = v & 0xFFFFFFFF
        packed = []
        max_lag = 0
        if len(ok):
            seg = np.bincount(np.unique(ok, return_inverse=True)[1])
            max_lag = int(seg.max())
        for d in range(1, max_lag):
            same = ok[:-d] == ok[d:]
            a, b = pk[:-d][same], pk[d:][same]
            packed.append((a << 32) | b)
        if not packed:
            return pd.DataFrame({"pair": np.empty(0, dtype=np.int64), "n_orders": np.empty(0, dtype=np.int64)})
        allp = np.concatenate(packed)
        u, c = np.unique(allp, return_counts=True)
        return pd.DataFrame({"pair": u, "n_orders": c.astype(np.int64)})

    counts = combine(cogroup(src, "ok", pairs_in_bucket), "pair", {"n_orders": ("n_orders", "sum")})
    return counts.filter(expr=f"n_orders >= {int(min_count)}") if min_count > 1 else counts


def copurchase_pairs(sf_dir: str, k: int = 20):
    """Market-basket co-occurrence mining: top-k part pairs appearing in the
    most orders. Scale shape: (orderkey, partkey) rows take ONE orderkey-hash
    bucket shuffle; inside each bucket the per-order pair explode is the
    shifted-lag kernel (sort by (order, part), then for lag d=1..max
    basket-1 emit (part[i], part[i+d]) where order[i]==order[i+d]) —
    vectorized, no per-order Python. Pairs are packed into one int64
    (a<<32 | b, a<b by construction) so the count shuffle moves a single
    integer key; the final top-k sorts only the AGGREGATED pair table."""
    agg = _packed_pair_counts(sf_dir)

    def unpack(t: pa.Table) -> pa.Table:
        pk = t.column("pair").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "part_a": pa.array(pk >> 32),
                "part_b": pa.array(pk & 0xFFFFFFFF),
                "n_orders": t.column("n_orders"),
            }
        )

    # tie-break (n_orders desc, pair asc) on the AGGREGATED table only
    return (
        agg.sort(["n_orders", "pair"], descending=[True, False])
        .limit(k)
        .map_batches(unpack, batch_format="pyarrow")
    )


def association_rules_topk(sf_dir: str, k: int = 20, min_count: int = 2):
    """Association rules with confidence and LIFT (the recommender /
    "customers also bought" finish over the market-basket counts): every
    qualified pair becomes two directed rules a→b and b→a; confidence =
    c_ab/c_a, lift = n·c_ab/(c_a·c_b); top-k by (lift DESC, ante, cons).

    Scale shape: pair counts from the shared ``_packed_pair_counts``
    shuffles; item supports are a part-cardinality-sized bucket merge of
    per-batch DISTINCT (order, part) partials; n (distinct orders) comes
    from per-batch unique partials + one ok-hash bucket distinct count.
    Only pairs with c_ab ≥ min_count reach the driver finish (rule-sized
    by construction): the min-support filter runs right after
    ``combine``'s pair merge, which itself may run on the driver. Both divisions round half-away 6dp (integer ratios
    can land exact decimal ties — CLAUDE.md rounding rule); the top-k
    orders by the ROUNDED lift so tie ordering matches the oracle."""
    # ONE materialized packed projection feeds all three passes (pair
    # miner, distinct-order count, item supports) — one parquet decode,
    # one-int64-column shuffles throughout (r4 rework)
    dp = _distinct_ok_pk_packed(sf_dir).materialize()

    def order_uniques(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"n": [int(np.unique(g["packed"].to_numpy() >> 32).size)]}
        )

    n_orders = int(cogroup(dp, "ok", order_uniques).sum("n") or 0)  # None on no rows
    if n_orders == 0:  # no orders, no rules: the result's columns and types
        ids = np.empty(0, np.int64)
        return pd.DataFrame({"ante": ids, "cons": ids, "n_orders": ids, "confidence": np.empty(0), "lift": np.empty(0)})

    # min-support filter right after combine's pair merge, so the collect
    # here is the FILTERED rule table only (VERDICT r3 wrong #2); while the
    # partials fit in ROWS_PER_BUCKET rows, below-support pairs still reach
    # combine's driver merge before the filter drops them
    pairs = _packed_pair_counts(sf_dir, min_count=min_count, packed_src=dp).to_pandas()
    pa_ = (pairs["pair"].to_numpy(dtype=np.int64) >> 32).astype(np.int64)
    pb_ = (pairs["pair"].to_numpy(dtype=np.int64) & 0xFFFFFFFF).astype(np.int64)

    # semi-join item supports to the surviving antecedents/consequents
    # INSIDE the bucket merge (broadcast the rule-sized survivor set via
    # ray.put) — the driver never sees the full per-part support table
    import ray

    surv_ref = ray.put(np.unique(np.concatenate([pa_, pb_])))

    def add_pk(t: pa.Table) -> pa.Table:
        v = t.column("packed").to_numpy(zero_copy_only=False)
        return pa.table({"pk": pa.array(v & 0xFFFFFFFF), "packed": pa.array(v)})

    def item_counts(g: pd.DataFrame) -> pd.DataFrame:
        v = np.unique(g["packed"].to_numpy())  # cross-batch (ok, pk) dedup
        uniq, cnt = np.unique(v & 0xFFFFFFFF, return_counts=True)
        m = np.isin(uniq, ray.get(surv_ref))
        return pd.DataFrame({"pk": uniq[m], "c": cnt[m].astype(np.int64)})

    item = cogroup(
        dp.map_batches(add_pk, batch_format="pyarrow", zero_copy_batch=True), "pk", item_counts
    ).to_pandas()
    item = item.set_index("pk")["c"]  # each pk lives in exactly one bucket
    cab = pairs["n_orders"].to_numpy(dtype=np.int64)
    ante = np.concatenate([pa_, pb_])
    cons = np.concatenate([pb_, pa_])
    cab2 = np.concatenate([cab, cab])
    ca = item.reindex(ante).to_numpy(dtype=np.int64)
    cb = item.reindex(cons).to_numpy(dtype=np.int64)
    conf = np.floor(cab2 / ca * 1e6 + 0.5) / 1e6
    lift = np.floor(
        (float(n_orders) * cab2.astype(np.float64)) / (ca * cb).astype(np.float64) * 1e6
        + 0.5
    ) / 1e6
    out = pd.DataFrame(
        {
            "ante": ante,
            "cons": cons,
            "n_orders": cab2,
            "confidence": conf,
            "lift": lift,
        }
    )
    out = out.sort_values(
        ["lift", "ante", "cons"], ascending=[False, True, True], kind="mergesort"
    ).head(k)
    return out.reset_index(drop=True)


def resample_ffill_hourly(sf_dir: str):
    """Time-series regularization — resample each user's event stream onto
    an hourly grid (that user's first..last active hour) and forward-fill
    the last observed value into silent hours. The per-hour representative
    is the event with MAX event_id in that hour (a total order, so ties in
    ts cannot make the answer depend on arrival order).

    Scale shape: each batch pre-reduces to per-(user, hour) argmax partials
    BEFORE the one user-hash bucket shuffle (shuffle volume is active
    user-hours, not events); inside the bucket the grid explode is a
    vectorized repeat/arange and the fill is pandas groupby-ffill (C
    kernel). Output is bounded by span-hours × users. Hour ids stay int64
    epoch-hours end to end (the int64-key convention; render timestamps
    downstream if needed)."""
    HOUR_US = 3_600_000_000

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        us = (
            t.column("ts").cast(pa.timestamp("us")).to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").view(np.int64)
        )
        df = pd.DataFrame(
            {
                "user_id": t.column("user_id").to_numpy(zero_copy_only=False),
                "hr": us // HOUR_US,
                "event_id": t.column("event_id").to_numpy(zero_copy_only=False),
                "value": t.column("value").to_numpy(zero_copy_only=False),
            }
        )
        df = df.sort_values(["user_id", "hr", "event_id"]).drop_duplicates(
            ["user_id", "hr"], keep="last"
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    def fill(g: pd.DataFrame) -> pd.DataFrame:
        # merge cross-batch partials: max event_id per (user, hour) wins
        ph = g.drop_duplicates(["user_id", "hr"], keep="last")
        bounds = ph.groupby("user_id", sort=True)["hr"].agg(["min", "max"])
        counts = (bounds["max"] - bounds["min"] + 1).to_numpy(dtype=np.int64)
        total = int(counts.sum())
        starts = np.zeros(len(counts), dtype=np.int64)
        starts[1:] = np.cumsum(counts)[:-1]
        hrs = (
            np.arange(total, dtype=np.int64)
            - np.repeat(starts, counts)
            + np.repeat(bounds["min"].to_numpy(dtype=np.int64), counts)
        )
        grid = pd.DataFrame(
            {
                "user_id": np.repeat(bounds.index.to_numpy(dtype=np.int64), counts),
                "hr": hrs,
            }
        )
        m = grid.merge(ph[["user_id", "hr", "value"]], on=["user_id", "hr"], how="left")
        m["value"] = m.groupby("user_id", sort=False)["value"].ffill()
        return pd.DataFrame(
            {
                "user_id": m["user_id"].to_numpy(dtype=np.int64),
                "hour_id": m["hr"].to_numpy(dtype=np.int64),
                "value_ff": m["value"].to_numpy(),  # exact copies — no rounding needed
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return cogroup(parts, "user_id", fill, sort_by=["user_id", "hr", "event_id"])


def event_transition_matrix(sf_dir: str):
    """First-order Markov transition counts over each user's ordered event
    stream: for every consecutive (prev → next) event-type pair (ordered by
    (ts, event_id) within the user — the deterministic LAG convention),
    count occurrences globally. Scale shape: one user-hash bucket shuffle;
    inside the bucket the lag pairing is a vectorized shift masked on user
    boundaries, reduced to per-bucket (from, to) partials; ``combine``
    merges them over the |types|² transition key — fixed cardinality."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        us = (
            t.column("ts").cast(pa.timestamp("us")).to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").view(np.int64)
        )
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "t_us": pa.array(us),
                "event_id": t.column("event_id"),
                "event_type": t.column("event_type"),
            }
        )

    def transitions(g: pd.DataFrame) -> pd.DataFrame:
        et = g["event_type"].to_numpy()
        uid = g["user_id"].to_numpy()
        if len(et) < 2:
            return pd.DataFrame({"from_type": [], "to_type": [], "n": []}).astype(
                {"from_type": str, "to_type": str, "n": np.int64}
            )
        same = uid[:-1] == uid[1:]
        pairs = pd.DataFrame({"from_type": et[:-1][same], "to_type": et[1:][same]})
        s = pairs.groupby(["from_type", "to_type"], sort=False).size().reset_index(name="n")
        s["n"] = s["n"].astype(np.int64)
        return s

    parts = cogroup(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        "user_id",
        transitions,
        sort_by=["user_id", "t_us", "event_id"],
    )
    return combine(parts, ["from_type", "to_type"], {"n": ("n", "sum")})


def approx_distinct_tokens_by_source(sf_dir: str, p: int = 12):
    """PER-GROUP approximate distinct counting — mergeable HLL sketches keyed
    by group: each batch emits one (source, registers) row per group it saw
    (constant bytes per block per group); sketches merge by elementwise
    register max inside source-hash buckets via ``np.maximum.reduceat`` over
    key-sorted register matrices — vectorized, no per-group Python in the
    merge. Rows-only for the driver (no SQL approximate counterpart);
    accuracy vs exact COUNT(DISTINCT) is asserted in tests (±~1.6% at
    p=12)."""
    from ..functions.sketches import HyperLogLog, fnv1a64_batch

    ds = _read(sf_dir, "documents", ["source", "text"])
    m = 1 << p

    def sketch(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {"source": t.column("source").to_pylist(), "text": t.column("text").to_pylist()}
        )
        rows_src, rows_reg = [], []
        for src, g in df.groupby("source", sort=False):
            h = HyperLogLog(p)
            h.add_batch(" ".join(g["text"]).split(" "))
            rows_src.append(src)
            rows_reg.append(h.to_bytes())
        return pa.table(
            {
                "source": pa.array(rows_src, type=pa.string()),
                "registers": pa.array(rows_reg, type=pa.binary()),
            }
        )

    parts = ds.map_batches(sketch, batch_format="pyarrow", zero_copy_batch=True)

    def add_key(t: pa.Table) -> pa.Table:
        kh = fnv1a64_batch([s.encode() for s in t.column("source").to_pylist()])
        return t.append_column("_khash", pa.array(kh.astype(np.int64)))

    def merge_estimate(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("source", kind="mergesort")
        regs = np.frombuffer(b"".join(g["registers"]), dtype=np.uint8).reshape(-1, m)
        src = g["source"].to_numpy()
        starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
        merged = np.maximum.reduceat(regs, starts, axis=0)
        out_src = src[starts]
        ests = []
        for i in range(len(starts)):
            h = HyperLogLog(p)
            h.registers = merged[i]
            ests.append(int(round(h.estimate())))
        return pd.DataFrame({"source": out_src, "approx_distinct": np.array(ests, dtype=np.int64)})

    approx = cogroup(
        parts.map_batches(add_key, batch_format="pyarrow", zero_copy_batch=True),
        "_khash",
        merge_estimate,
    ).to_pandas()
    # exact audit in the same run (VERDICT r4 #6): join the ground-truth
    # twin (exact_distinct_tokens_by_source) so the
    # driver sees estimate, exact and relative error per source.
    exact = exact_distinct_tokens_by_source(sf_dir).rename(
        columns={"n_distinct_tokens": "exact_distinct"}
    )
    out = approx.merge(exact, on="source", how="left")
    out["rel_err"] = np.round(
        np.abs(out["approx_distinct"] - out["exact_distinct"])
        / np.maximum(out["exact_distinct"], 1),
        6,
    )
    return out


def left_join_null_fill(sf_dir: str):
    """Dimension-driven LEFT OUTER join: every customer with its order
    count, zero-filled for customers that never ordered — the outer-join
    completeness primitive (broadcast/semi/anti/as-of joins cover the other
    shapes). Scale shape: the fact side pre-reduces to per-batch (custkey,
    n) partials; both sides then co-group in custkey-hash buckets
    (``cogroup``) and the in-bucket merge is one vectorized pandas
    left-merge with fillna(0)."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = _read(sf_dir, "orders", ["o_custkey"])

    def order_partials(t: pa.Table) -> pa.Table:
        u, c = np.unique(t.column("o_custkey").to_numpy(zero_copy_only=False), return_counts=True)
        return pa.table({"c_custkey": pa.array(u), "n": pa.array(c.astype(np.int64))})

    def merge(fact: pd.DataFrame, dim: pd.DataFrame) -> pd.DataFrame:
        n = fact.groupby("c_custkey", sort=False)["n"].sum()
        return pd.DataFrame(
            {
                "c_custkey": dim["c_custkey"].to_numpy(dtype=np.int64),
                "c_mktsegment": dim["c_mktsegment"].to_numpy(),
                "n_orders": dim["c_custkey"].map(n).fillna(0).to_numpy(dtype=np.int64),
            }
        )

    partials = orders.map_batches(order_partials, batch_format="pyarrow", zero_copy_batch=True)
    return cogroup([partials, cust], "c_custkey", merge)


def percent_rank_in_group(sf_dir: str):
    """PERCENT_RANK per partition — (rank-1)/(n-1) over orders partitioned
    by priority, ordered by (totalprice, orderkey) so there are no rank
    ties and the ratio is computed identically (one double division) on
    both sides — no rounding needed. Partition cardinality is the PRIORITY
    vocabulary (bounded), so per-partition groups are safe here; for
    high-cardinality partitions use the bucketed-window helper instead
    (``ntile_by_group`` is the worked example)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"])

    def pr(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_totalprice", "o_orderkey"], kind="mergesort")
        n = len(g)
        ranks = np.arange(n, dtype=np.float64)
        pct = ranks / (n - 1) if n > 1 else np.zeros(n)
        return pd.DataFrame(
            {
                "o_orderkey": g["o_orderkey"].to_numpy(dtype=np.int64),
                "o_orderpriority": g["o_orderpriority"].to_numpy(),
                "pct_rank": pct,
            }
        )

    return ds.groupby("o_orderpriority").map_groups(pr, batch_format="pandas")


def _status_priority_fine(sf_dir: str) -> "pd.DataFrame":
    """Shared finest-level (status, priority) partial-sum pass for the
    CUBE / GROUPING SETS family: per-batch partials → tiny |s|×|p| merge,
    returned sorted so driver-side level derivation is order-stable.
    ``psum`` is exact integer cents; callers divide once, after the levels
    are summed."""
    ds = _read(sf_dir, "orders", ["o_orderstatus", "o_orderpriority", "o_totalprice"])

    def cents(t: pa.Table) -> pa.Table:
        i = t.column_names.index("o_totalprice")
        return t.set_column(i, "o_totalprice", pa.array(_cents(t.column("o_totalprice"))))

    return combine_frame(
        ds.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True),
        ["o_orderstatus", "o_orderpriority"],
        {"psum": ("o_totalprice", "sum"), "pn": (None, "count")},
    )


def cube_counts(sf_dir: str):
    """GROUP BY CUBE(status, priority) — all four grouping sets from the
    same ONE finest-level pass as ``rollup_counts`` (per-batch partials →
    tiny |s|×|p| merge); the (NULL, p), (s, NULL) and (NULL, NULL) levels
    are derived driver-side from the finest sums in exact integer cents,
    and every level divides and rounds once at the end."""
    fine = _status_priority_fine(sf_dir)

    def level(df, s_col, p_col):
        return pd.DataFrame(
            {
                "o_orderstatus": s_col,
                "o_orderpriority": p_col,
                "n": df["pn"].to_numpy(),
                "_sum": df["psum"].to_numpy(),
            }
        )

    by_s = (
        fine.groupby("o_orderstatus", sort=True)
        .agg(pn=("pn", "sum"), psum=("psum", "sum"))
        .reset_index()
    )
    by_p = (
        fine.groupby("o_orderpriority", sort=True)
        .agg(pn=("pn", "sum"), psum=("psum", "sum"))
        .reset_index()
    )
    lvl_sp = level(fine, fine["o_orderstatus"].to_numpy(), fine["o_orderpriority"].to_numpy())
    lvl_s = level(by_s, by_s["o_orderstatus"].to_numpy(), None)
    lvl_p = level(by_p, None, by_p["o_orderpriority"].to_numpy())
    lvl_0 = pd.DataFrame(
        {
            "o_orderstatus": [None],
            "o_orderpriority": [None],
            "n": [int(fine["pn"].sum())],
            "_sum": [int(by_s["psum"].sum())],
        }
    )
    out = pd.concat([lvl_sp, lvl_s, lvl_p, lvl_0], ignore_index=True)
    out["n"] = out["n"].astype(np.int64)
    out["sum_price"] = np.round(out.pop("_sum").to_numpy(dtype=np.float64) / 100.0, 2)
    return out


def bigram_pmi_topk(sf_dir: str, min_count: int = 5, k: int = 30):
    """Collocation mining — top-k adjacent-token bigrams by pointwise mutual
    information, the classic corpus-curation statistic (phrase detection,
    tokenizer-merge candidates). PMI = log2((C(ab)/M) / ((C(a)/N)(C(b)/N)))
    over bigrams with C(ab) ≥ min_count.

    Scale shape: each batch emits one (w1, w2) row per bigram instance
    and one (w1, null) row per token; ``combine`` counts both per key
    (its per-batch partial means token instances never shuffle), and a
    null ``w2`` is a group of its own, the unigram count. The unigram
    table is VOCABULARY-sized and broadcast once into the PMI finish (the
    ``unigram_logprob_score`` convention — at open-web scale, restrict to
    the heavy-hitter vocab first). The final top-k sorts only the filtered
    bigram table."""
    import ray

    ds = _read(sf_dir, "documents", ["text"])

    def instances(t: pa.Table) -> pa.Table:
        w1, w2 = [], []
        for text in t.column("text").to_pylist():
            toks = text.split(" ")
            w1 += toks[:-1] + toks
            w2 += toks[1:] + [None] * len(toks)
        return pa.table({"w1": pa.array(w1, pa.string()), "w2": pa.array(w2, pa.string())})

    rows = ds.map_batches(instances, batch_format="pyarrow", zero_copy_batch=True)
    counts = combine(rows, ["w1", "w2"], {"n": (None, "count")}).materialize()

    # vocabulary-sized unigram side: to driver once, broadcast into the finish
    uni_df = counts.filter(expr="is_null(w2)").to_pandas()
    uni = dict(zip(uni_df["w1"], uni_df["n"])) if len(uni_df) else {}
    n_tok = float(sum(uni.values()))
    uni_ref = ray.put((uni, n_tok))

    # total bigram instances: one scalar (None on no rows)
    m_big = float(counts.filter(expr="is_valid(w2)").sum("n") or 0)

    def pmi_finish(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column("w2")))
        t = t.filter(pc.greater_equal(t.column("n"), min_count))
        if t.num_rows == 0:
            return pa.table(
                {
                    "w1": pa.array([], type=pa.string()),
                    "w2": pa.array([], type=pa.string()),
                    "n_pair": pa.array([], type=pa.int64()),
                    "pmi": pa.array([], type=pa.float64()),
                }
            )
        uni, n_t = ray.get(uni_ref)
        c = t.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        ca = np.array([uni[w] for w in t.column("w1").to_pylist()], dtype=np.float64)
        cb = np.array([uni[w] for w in t.column("w2").to_pylist()], dtype=np.float64)
        pmi = np.log2((c / m_big) / ((ca / n_t) * (cb / n_t)))
        return pa.table(
            {
                "w1": t.column("w1"),
                "w2": t.column("w2"),
                "n_pair": t.column("n"),
                "pmi": pa.array(np.round(pmi, 4)),
            }
        )

    return (
        counts.map_batches(pmi_finish, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["pmi", "w1", "w2"], descending=[True, False, False])
        .limit(k)
    )


def _snapshot_pair(sf_dir: str):
    """The two DERIVED corpus snapshots as a pair of Datasets (rules in the
    snapshot_diff docstring: %7 deletes, %5 content-changes, %11 re-adds
    at +10M) — shared by snapshot_diff (change list) and scd2_history
    (versioned dimension build), which co-group them on doc_id."""
    ADD_OFF = 10_000_000
    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def side_b(t: pa.Table) -> pa.Table:
        k = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        n = t.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        keep = k % 7 != 0  # deletions
        k2, n2 = k[keep], n[keep].copy()
        n2[k2 % 5 == 0] += 1  # content changes
        adds = k[k % 11 == 0] + ADD_OFF  # new docs
        kb = np.concatenate([k2, adds])
        nb = np.concatenate([n2, n[k % 11 == 0]])
        return pa.table({"doc_id": pa.array(kb), "n_chars": pa.array(nb)})

    return [docs, docs.map_batches(side_b, batch_format="pyarrow", zero_copy_batch=True)]


def scd2_history(sf_dir: str):
    """Slowly-Changing-Dimension TYPE 2 build over the same derived
    snapshot pair as ``snapshot_diff`` — but instead of a change LIST it
    emits the versioned dimension table a warehouse keeps: one row per
    (key, version) with [valid_from, valid_to) epochs. Unchanged keys stay
    open (valid_to NULL); a changed key closes its T1 row at epoch 2 and
    opens a T2 row; deletes close; adds open at 2. ``valid_to`` is
    int64-with-nulls (the ADVICE BIGINT dtype rule).

    Scale shape: the same snapshot pair in ONE doc-hash ``cogroup``; the
    in-bucket build is one vectorized outer merge emitting every version
    row — output is ≤ 2 rows per key by construction."""

    def build(a: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
        m = a.merge(b, on="doc_id", how="outer", suffixes=("_a", "_b"))
        na = m["n_chars_a"].to_numpy(dtype=np.float64, na_value=np.nan)
        nb = m["n_chars_b"].to_numpy(dtype=np.float64, na_value=np.nan)
        ids = m["doc_id"].to_numpy(dtype=np.int64)
        in_a, in_b = ~np.isnan(na), ~np.isnan(nb)
        closed_a = in_a & (~in_b | (na != nb))  # changed or deleted: close T1 row
        open_a = in_a & in_b & (na == nb)  # unchanged: T1 row stays open
        open_b = in_b & (~in_a | (na != nb))  # changed or added: open T2 row
        return pd.DataFrame(
            {
                "doc_id": np.concatenate([ids[closed_a], ids[open_a], ids[open_b]]),
                "n_chars": np.concatenate(
                    [na[closed_a], na[open_a], nb[open_b]]
                ).astype(np.int64),
                "valid_from": np.concatenate(
                    [
                        np.ones(int(closed_a.sum()), dtype=np.int64),
                        np.ones(int(open_a.sum()), dtype=np.int64),
                        np.full(int(open_b.sum()), 2, dtype=np.int64),
                    ]
                ),
                "valid_to": np.concatenate(
                    [
                        np.full(int(closed_a.sum()), 2.0),
                        np.full(int(open_a.sum()), np.nan),
                        np.full(int(open_b.sum()), np.nan),
                    ]
                ),
            }
        )

    res = cogroup(_snapshot_pair(sf_dir), "doc_id", build)
    return res.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_chars": t.column("n_chars"),
                "valid_from": t.column("valid_from"),
                "valid_to": pc.cast(t.column("valid_to"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def snapshot_diff(sf_dir: str):
    """Change-data-capture between two corpus snapshots: emit (doc_id,
    change) for every row added, removed, or content-changed from snapshot
    A to snapshot B — the incremental-crawl diff primitive. Snapshot B is
    DERIVED deterministically from A (doc_id % 7 == 0 rows deleted;
    doc_id % 5 == 0 rows get n_chars+1, i.e. changed; doc_id % 11 == 0
    rows re-appear as new ids +10_000_000, i.e. added) so both sides build
    the identical pair of snapshots.

    Scale shape: a FULL OUTER join as ONE doc_id-hash ``cogroup`` of the
    two snapshots; the in-bucket classify is one vectorized pandas
    outer-merge. Unchanged rows are dropped inside the bucket, so output
    is change-volume-sized."""

    def classify(a: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
        m = a.merge(b, on="doc_id", how="outer", suffixes=("_a", "_b"))
        na = m["n_chars_a"].to_numpy(dtype=np.float64, na_value=np.nan)
        nb = m["n_chars_b"].to_numpy(dtype=np.float64, na_value=np.nan)
        change = np.where(
            np.isnan(na), "added", np.where(np.isnan(nb), "removed", "changed")
        )
        keep = np.isnan(na) | np.isnan(nb) | (na != nb)
        return pd.DataFrame(
            {
                "doc_id": m["doc_id"].to_numpy(dtype=np.int64)[keep],
                "change": change[keep],
            }
        )

    return cogroup(_snapshot_pair(sf_dir), "doc_id", classify)


def shuffle_join_detail(sf_dir: str):
    """Row-level large×large inner equi-join (lineitem ⋈ orders on
    orderkey) — the general shuffle-hash join the broadcast / semi / anti /
    as-of / range shapes don't cover: BOTH sides are too big to broadcast
    and the output is row-level (not an aggregate), so each side is tagged,
    bucketed by key-hash, and co-grouped once; the in-bucket probe is one
    vectorized pandas inner-merge. Output is fact-sized — it streams out of
    the bucket stage without ever materializing on the driver.

    Scale shape: ONE all-to-all (``cogroup`` on the order key); dim-side
    rows carry their payload through the same shuffle, so no second pass.
    Skewed keys salt-split as in ``skew_salt_plan``."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_extendedprice"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderpriority"])
    orders = orders.rename_columns({"o_orderkey": "l_orderkey"})

    def probe(fact: pd.DataFrame, dim: pd.DataFrame) -> pd.DataFrame:
        m = fact.merge(dim, on="l_orderkey", how="inner")
        return pd.DataFrame(
            {
                "l_orderkey": m["l_orderkey"].to_numpy(dtype=np.int64),
                "l_linenumber": m["l_linenumber"].to_numpy(dtype=np.int64),
                "l_extendedprice": m["l_extendedprice"].to_numpy(),
                "o_custkey": m["o_custkey"].to_numpy(dtype=np.int64),
                "o_orderpriority": m["o_orderpriority"].to_numpy(),
            }
        )

    return cogroup([li, orders], "l_orderkey", probe)


def interval_islands(sf_dir: str, gap_s: int = 300):
    """Gaps-and-islands: merge each user's overlapping activity intervals
    ([ts, ts+gap_s] per event) into maximal islands and report per-user
    island count + covered seconds — the interval-union primitive behind
    session stitching and coverage audits. Touching intervals
    (s == prev_max_end) merge; a strictly later start opens a new island.

    Scale shape: ``cogroup`` (user-hash buckets, one in-bucket sort
    by (user, ts, event_id)); islands form via a segment-wise grouped
    cummax + shift — all pandas C kernels — and the per-user rollup
    finishes inside the bucket, so output is user-count-sized and no
    second shuffle is needed. Arithmetic is integer microseconds end to
    end, so both sides divide exactly."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    gap_us = gap_s * 1_000_000

    def islands(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy(dtype=np.int64)
        s = g["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        en = s + gap_us
        d = pd.DataFrame({"u": u, "s": s, "e": en})
        prev_max = d.groupby("u", sort=False)["e"].cummax().shift(1).to_numpy()
        first = np.empty(len(d), dtype=bool)
        first[0] = True
        first[1:] = u[1:] != u[:-1]
        isl = np.cumsum(first | (s > prev_max))
        spans = (
            d.assign(isl=isl)
            .groupby("isl", sort=False)
            .agg(u=("u", "first"), s0=("s", "min"), e1=("e", "max"))
        )
        # date_diff('second', ...) counts SECOND-BOUNDARY crossings, not the
        # floored duration: floor(e1_s) - floor(s0_s), per island.
        out = (
            spans.assign(dur=spans["e1"] // 1_000_000 - spans["s0"] // 1_000_000)
            .groupby("u", sort=False)["dur"]
            .agg(n_islands="size", covered_s="sum")
            .reset_index()
        )
        return pd.DataFrame(
            {
                "user_id": out["u"].to_numpy(dtype=np.int64),
                "n_islands": out["n_islands"].to_numpy(dtype=np.int64),
                "covered_s": out["covered_s"].to_numpy(dtype=np.int64),
            }
        )

    return cogroup(ds, "user_id", islands, sort_by=["user_id", "ts", "event_id"])


def global_row_number(sf_dir: str):
    """Global ROW_NUMBER over the whole table (orders by totalprice DESC,
    orderkey ASC) — distributed ranking WITHOUT materializing a global
    sort: ``buckets.ranges`` cuts the rows into (price, orderkey) ranges
    and hands each range, sorted, to ``rank`` with the row count of the
    ranges before it; rank = that count + local position. The orderkey
    tie-break makes the order total, so rows of one hot price spread over
    several ranges.

    Scale shape: one column-pruned scan, a value-hash sample, one
    per-range count and one all-to-all on the ranges; the per-range sorts
    are the only O(n log n) work and run fully parallel."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def rank(g: pd.DataFrame, before: dict) -> pd.DataFrame:
        rn = before["rows"] + np.arange(1, len(g) + 1, dtype=np.int64)
        return pd.DataFrame({"o_orderkey": g["o_orderkey"].to_numpy(dtype=np.int64), "rn": rn})

    return ranges(ds, ["o_totalprice", "o_orderkey"], rank, descending=[True, False])


def dense_rank_in_group(sf_dir: str):
    """DENSE_RANK per partition (ties share a rank AND consume one slot —
    the gap-free cousin of ``rank_in_group``): lineitem ranked by quantity
    within supplier, where integer quantities make ties the common case.

    Scale shape: ``cogroup`` — suppliers never become Ray groups;
    the in-bucket rank is pandas' C ``rank(method="dense")`` applied
    segment-wise. Rank depends only on VALUES (not tie order), so no
    tiebreak column is needed for hash parity."""
    ds = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_suppkey", "l_quantity"]
    )

    def drank(g: pd.DataFrame) -> pd.DataFrame:
        r = g.groupby("l_suppkey", sort=False)["l_quantity"].rank(method="dense")
        return pd.DataFrame(
            {
                "l_orderkey": g["l_orderkey"].to_numpy(dtype=np.int64),
                "l_linenumber": g["l_linenumber"].to_numpy(dtype=np.int64),
                "l_suppkey": g["l_suppkey"].to_numpy(dtype=np.int64),
                "drank": r.to_numpy().astype(np.int64),
            }
        )

    return cogroup(ds, "l_suppkey", drank, sort_by=["l_suppkey", "l_quantity"])


def _distinct_set_op(sf_dir: str, op: str):
    """Shared body for INTERSECT / EXCEPT (distinct set semantics): active
    order custkeys vs high-balance customer keys. Each side deduplicates
    per batch (np.unique partial — the combiner), then the two sides
    co-group in key-hash buckets (``cogroup``) and the set op finishes
    vectorized inside the bucket. ONE all-to-all; only distinct-per-batch
    int64 keys shuffle."""
    orders = _read(sf_dir, "orders", ["o_custkey"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def left_rows(t: pa.Table) -> pa.Table:
        return pa.table({"key": np.unique(t.column("o_custkey").to_numpy(zero_copy_only=False))})

    def right_rows(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy(zero_copy_only=False)
        bal = t.column("c_acctbal").to_numpy(zero_copy_only=False)
        return pa.table({"key": np.unique(k[bal > 5000.0])})

    def finish(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        lk = np.unique(left["key"].to_numpy(dtype=np.int64))
        rk = right["key"].to_numpy(dtype=np.int64)  # distinct per batch; isin handles dups
        keep = np.isin(lk, rk) if op == "intersect" else ~np.isin(lk, rk)
        return pd.DataFrame({"custkey": lk[keep]})

    sides = [
        orders.map_batches(left_rows, batch_format="pyarrow", zero_copy_batch=True),
        cust.map_batches(right_rows, batch_format="pyarrow", zero_copy_batch=True),
    ]
    return cogroup(sides, "key", finish)


def intersect_custkeys(sf_dir: str):
    """INTERSECT (distinct): custkeys that both placed an order and hold a
    high-balance account (§2.5 set-op family). See ``_distinct_set_op``."""
    return _distinct_set_op(sf_dir, "intersect")


def except_custkeys(sf_dir: str):
    """EXCEPT (distinct): custkeys with orders but NO high-balance account.
    See ``_distinct_set_op``."""
    return _distinct_set_op(sf_dir, "except")


def star_join_revenue(sf_dir: str, cutoff: str = "1998-06-01", k: int = 10):
    """TPC-H Q3-shape 3-way star join: customer (segment filter, broadcast
    semi) ⋈ orders (date filter) ⋈ lineitem (date filter), revenue per
    order, global top-k — the canonical composed join+agg+rank pipeline.

    Scale shape: the segment key set broadcasts once (``semi_join_keys``
    layout — the only dimension that crosses stages); orders and lineitem
    are date-PRUNED inside their first map_batches, then co-grouped ONCE in
    orderkey-hash buckets (``shuffle_join_detail`` layout). Each orderkey is
    complete inside its bucket, so revenue aggregates AND the per-bucket
    top-k finish in-bucket; only n·k candidate rows (n buckets) reach the final tiny
    sort-limit. Dates shuffle as int64 epoch-µs and render ISO at the end
    (NOTES.md int64-key rule)."""
    import ray

    cut_us = np.datetime64(cutoff, "us").astype(np.int64)
    keys_ref = ray.put(_building_custkeys(sf_dir))
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])

    def dim_rows(t: pa.Table) -> pa.Table:
        keys = ray.get(keys_ref)
        d = t.column("o_orderdate").to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        ck = pc.is_in(t.column("o_custkey"), value_set=pa.array(keys)).to_numpy(zero_copy_only=False)
        m = ck & (d < cut_us)
        k_ = t.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)[m]
        return pa.table({"key": pa.array(k_), "odate": pa.array(d[m])})

    def fact_rows(t: pa.Table) -> pa.Table:
        d = t.column("l_shipdate").to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        m = d > cut_us
        k_ = t.column("l_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)[m]
        ep = t.column("l_extendedprice").to_numpy(zero_copy_only=False)[m]
        dc = t.column("l_discount").to_numpy(zero_copy_only=False)[m]
        return pa.table({"key": pa.array(k_), "rev": pa.array(ep * (1.0 - dc))})

    def topk_bucket(dim: pd.DataFrame, fact: pd.DataFrame) -> pd.DataFrame:
        m = fact.merge(dim, on="key", how="inner")
        if m.empty:
            return pd.DataFrame(
                {"l_orderkey": pd.Series(dtype=np.int64),
                 "o_orderdate": pd.Series(dtype=object),
                 "revenue": pd.Series(dtype=np.float64)}
            )
        agg = m.groupby(["key", "odate"], sort=False)["rev"].sum().reset_index()
        agg["rev"] = np.round(agg["rev"].to_numpy(), 4)
        agg = agg.sort_values(["rev", "key"], ascending=[False, True]).head(k)
        iso = agg["odate"].to_numpy(dtype=np.int64).astype("datetime64[us]")
        return pd.DataFrame(
            {
                "l_orderkey": agg["key"].to_numpy(dtype=np.int64),
                "o_orderdate": np.datetime_as_string(iso, unit="D"),
                "revenue": agg["rev"].to_numpy(),
            }
        )

    sides = [
        orders.map_batches(dim_rows, batch_format="pyarrow", zero_copy_batch=True),
        li.map_batches(fact_rows, batch_format="pyarrow", zero_copy_batch=True),
    ]
    cand = cogroup(sides, "key", topk_bucket)
    # n·k candidate rows — a driver-side finish, not another all-to-all
    df = cand.to_pandas()
    return (
        df.sort_values(["revenue", "l_orderkey"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )


def mad_by_group(sf_dir: str):
    """Median absolute deviation per group (robust spread; §2.5 family):
    MAD = median(|x − median(x)|). Both medians are exact elements or exact
    midpoints, and subtraction/abs are correctly rounded, so the doubles
    hash-match DuckDB's ``mad()`` with no rounding step. Three returnflag
    groups — the small-cardinality grouped shape (``median_by_group``); for
    global/huge groups the scale path is the ``exact_quantile`` histogram
    narrowing, twice."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])

    def mad(g: pd.DataFrame) -> pd.DataFrame:
        v = g["l_extendedprice"].to_numpy()
        med = np.median(v)
        return pd.DataFrame(
            {
                "l_returnflag": [g["l_returnflag"].iloc[0]],
                "mad_price": [float(np.median(np.abs(v - med)))],
            }
        )

    return ds.groupby("l_returnflag").map_groups(mad, batch_format="pandas")


def unpivot_measures(sf_dir: str):
    """UNPIVOT / melt (wide→long, the inverse of ``pivot_event_counts``):
    each lineitem row becomes one (measure, value) row per measure column.
    Stateless per-batch Arrow concat — zero shuffle, output streams at 3×
    input row count; the schema-fixed measure names never leave the
    closure."""
    measures = ["l_quantity", "l_discount", "l_tax"]
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", *measures])

    def melt(t: pa.Table) -> pa.Table:
        n = t.num_rows
        ok = t.column("l_orderkey").cast(pa.int64())
        ln = t.column("l_linenumber").cast(pa.int64())
        parts = [
            pa.table(
                {
                    "l_orderkey": ok,
                    "l_linenumber": ln,
                    "measure": pa.array([m] * n, type=pa.string()),
                    "value": t.column(m).cast(pa.float64()),
                }
            )
            for m in measures
        ]
        return pa.concat_tables(parts)

    return ds.map_batches(melt, batch_format="pyarrow", zero_copy_batch=True)


def late_event_filter(sf_dir: str, watermark_s: int = 300, jitter_s: int = 3600):
    """Late-arrival detection under a streaming WATERMARK (the out-of-order
    audit every event-time pipeline needs before windowing): arrival order
    is event_id; the watermark per user is the running max EVENT time over
    previously-arrived events minus ``watermark_s``; an event whose event
    time falls below it is late. The synthetic events table is perfectly
    ordered, so event time is DERIVED with deterministic jitter
    (ts − (event_id % 7)·jitter, sized to the corpus's ~7.5 h median per-user
    cadence — both oracle sides apply it), which plants realistic
    out-of-orderness at every scale.

    Scale shape: ``cogroup`` (user-hash buckets, one in-bucket sort
    by (user, event_id)); the watermark is a segment-wise grouped
    cummax+shift — the interval_islands kernel. Integer-µs arithmetic end
    to end, so lateness is hash-exact."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    w_us = watermark_s * 1_000_000
    j_us = jitter_s * 1_000_000

    def late(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy(dtype=np.int64)
        eid = g["event_id"].to_numpy(dtype=np.int64)
        e = g["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64) - (eid % 7) * j_us
        d = pd.DataFrame({"u": u, "e": e})
        wm = d.groupby("u", sort=False)["e"].cummax().shift(1).to_numpy()
        first = np.empty(len(d), dtype=bool)
        first[0] = True
        first[1:] = u[1:] != u[:-1]
        late_by = wm - e
        keep = ~first & (late_by > w_us)
        return pd.DataFrame(
            {
                "event_id": eid[keep],
                "user_id": u[keep],
                "late_by_us": late_by[keep].astype(np.int64),
            }
        )

    return cogroup(ds, "user_id", late, sort_by=["user_id", "event_id"])


def tumbling_distinct_users(sf_dir: str):
    """EXACT COUNT(DISTINCT user) per tumbling hour — the windowed-distinct
    companion to ``approx_distinct_tokens``'s HLL (exact when the distinct
    set must be right, sketch when it must be cheap): the distinct (user,
    window) pairs, then a count per window, both by ``combine``. Window keys
    shuffle as int64 epochs and render ISO post-aggregate (NOTES int64-key
    rule)."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def pairs(t: pa.Table) -> pa.Table:
        ws = pc.cast(pc.cast(pc.floor_temporal(t.column("ts"), unit="hour"), pa.timestamp("s")), pa.int64())
        return pa.table({"user_id": pc.cast(t.column("user_id"), pa.int64()), "ws_epoch": ws})

    return _distinct_users(ds.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True))


def _distinct_users(pairs):
    """(window_start, n_users) of (user_id, ws_epoch) rows: COUNT(DISTINCT
    user_id) per window by two ``combine`` calls, the window rendered as
    ISO text afterwards."""

    def render(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "window_start": pc.strftime(
                    pc.cast(t.column("ws_epoch"), pa.timestamp("s")),
                    format="%Y-%m-%d %H:%M:%S",
                ),
                "n_users": t.column("n_users"),
            }
        )

    n = combine(combine(pairs, ["user_id", "ws_epoch"], {}), "ws_epoch", {"n_users": (None, "count")})
    return n.map_batches(render, batch_format="pyarrow")


def first_last_value_in_group(sf_dir: str):
    """Ordered FIRST/LAST aggregate per partition (first and latest order
    value per customer, ordered by (o_orderdate, o_orderkey)) — the
    ordered-aggregate family member rank/top-k don't cover. Scale shape:
    ``cogroup`` + segment-wise pandas first/last (C kernels); each
    customer contributes one output row from its bucket."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"])

    def fl(g: pd.DataFrame) -> pd.DataFrame:
        a = g.groupby("o_custkey", sort=False)["o_totalprice"].agg(["first", "last"]).reset_index()
        return pd.DataFrame(
            {
                "o_custkey": a["o_custkey"].to_numpy(dtype=np.int64),
                "first_price": a["first"].to_numpy(),
                "last_price": a["last"].to_numpy(),
            }
        )

    return cogroup(
        ds, "o_custkey", fl, sort_by=["o_custkey", "o_orderdate", "o_orderkey"]
    )


def percentile_cont_by_group(sf_dir: str, q: float = 0.9):
    """Interpolated (continuous) quantile per group — the companion to
    ``percentile_by_group``'s quantile_disc: value = v[⌊h⌋] +
    (v[⌈h⌉] − v[⌊h⌋])·frac at h = q·(n−1), the textbook linear-interp
    formula DuckDB's quantile_cont implements; rounded 4dp on both sides
    because the interpolation multiply can differ in the last ulp across
    expression forms. Five priority groups — the small-cardinality grouped
    shape; ``exact_quantile``'s histogram narrowing is the huge-group path."""
    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g["o_totalprice"].to_numpy())
        h = q * (len(v) - 1)
        lo = int(np.floor(h))
        hi = min(lo + 1, len(v) - 1)
        val = v[lo] + (v[hi] - v[lo]) * (h - lo)
        return pd.DataFrame(
            {
                "o_orderpriority": [g["o_orderpriority"].iloc[0]],
                "p90_cont": [float(np.round(val, 4))],
            }
        )

    return ds.groupby("o_orderpriority").map_groups(pick, batch_format="pandas")


def running_distinct_types(sf_dir: str):
    """Cumulative COUNT(DISTINCT event_type) per user over event-time order
    — the bounded-distinct STATE a streaming engine keeps per key (SQL
    can't say COUNT(DISTINCT) OVER directly; both sides use the
    first-occurrence-flag + running-sum formulation). Scale shape:
    ``cogroup``; first occurrences via a vectorized duplicated()
    scan, running sum segment-wise — the per-key state never leaves its
    bucket. The type string is fnv-hashed to int64 BEFORE the shuffle
    (measured 3.4× on this op: 3.5 s → 1.0 s at sf0.1 — the NOTES int64-shuffle-key rule applies
    to payload columns too; distinctness is preserved, 64-bit collisions
    are ignorable at any real type vocabulary)."""
    from ..functions.hashing import token_hashes

    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])

    def encode(t: pa.Table) -> pa.Table:
        enc = pc.dictionary_encode(t.column("event_type"))
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        vocab_h = token_hashes(enc.dictionary.to_pylist()).astype(np.int64)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "ts": t.column("ts"),
                "type_h": pa.array(vocab_h[codes]),
            }
        )

    def rdist(g: pd.DataFrame) -> pd.DataFrame:
        first = (~g.duplicated(["user_id", "type_h"])).astype(np.int64)
        run = first.groupby(g["user_id"].to_numpy(), sort=False).cumsum()
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(dtype=np.int64),
                "n_distinct_types": run.to_numpy(),
            }
        )

    enc_ds = ds.map_batches(encode, batch_format="pyarrow", zero_copy_batch=True)
    return cogroup(enc_ds, "user_id", rdist, sort_by=["user_id", "ts", "event_id"])


def windowed_topk_types(sf_dir: str, k: int = 2):
    """Top-k event types per tumbling hour (count DESC, type ASC tiebreak)
    — the trending-now window rollup. Per-batch partial (window, type)
    counts combine BEFORE the single window-hash shuffle; the in-bucket
    finish merges partials and takes the per-window top-k vectorized."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        ws = pc.cast(
            pc.cast(pc.floor_temporal(t.column("ts"), unit="hour"), pa.timestamp("s")),
            pa.int64(),
        )
        tt = pa.table(
            {
                "ws_epoch": ws,
                "event_type": t.column("event_type"),
                "n": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            }
        )
        return (
            tt.group_by(["ws_epoch", "event_type"])
            .aggregate([("n", "sum")])
            .rename_columns(["ws_epoch", "event_type", "n"])
        )

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        m = (
            g.groupby(["ws_epoch", "event_type"], sort=False)["n"].sum().reset_index()
        )
        m = m.sort_values(["ws_epoch", "n", "event_type"], ascending=[True, False, True], kind="mergesort")
        return m.groupby("ws_epoch", sort=False).head(k)

    def render(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "window_start": pc.strftime(
                    pc.cast(t.column("ws_epoch"), pa.timestamp("s")),
                    format="%Y-%m-%d %H:%M:%S",
                ),
                "event_type": t.column("event_type"),
                "n": pc.cast(t.column("n"), pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = cogroup(parts, "ws_epoch", finish)
    return agg.map_batches(render, batch_format="pyarrow")


def table_checksum(sf_dir: str):
    """Order-insensitive integrity checksum of a whole table (the export /
    replication audit primitive: compare source and sink without moving
    either): per-row sha256 over the key columns → 60-bit int → modular
    SUM. Per-batch partials reduce each block to ONE int64; the driver
    folds B partials — commutative, so block order and parallelism never
    change the answer. Oracle-paired via DuckDB's sha256()."""
    MOD = 9_223_372_036_854_775_783  # largest prime < 2^63
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        sh = row_sha256(t, ["doc_id", "text"]).to_pylist()
        s = 0
        for h in sh:
            s = (s + int(h[:15], 16)) % MOD
        return pa.table(
            {"part": pa.array([s], pa.int64()), "n": pa.array([t.num_rows], pa.int64())}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    total = 0
    for v in parts["part"]:
        total = (total + int(v)) % MOD
    return pd.DataFrame(
        [{"checksum": np.int64(total), "n_rows": np.int64(parts["n"].sum())}]
    )


def weighted_avg_by_group(sf_dir: str):
    """Revenue-weighted average discount per returnflag — the weighted-mean
    aggregate (plain AVG answers a different question when row importance
    varies). Σwx and Σw are exact integer sums (discount and price in
    cents, so wx is in hundredths of a cent) merged by ``combine``; one
    division at the end; rounded 4dp both sides."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_discount", "l_extendedprice"])

    def cents(t: pa.Table) -> pa.Table:
        w = _cents(t.column("l_extendedprice"))
        wx = _cents(t.column("l_discount")) * w
        return pa.table({"l_returnflag": t.column("l_returnflag"), "wx": pa.array(wx), "w": pa.array(w)})

    rows = ds.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True)
    f = combine_frame(rows, "l_returnflag", {"wx": ("wx", "sum"), "w": ("w", "sum")})
    avg = f["wx"].to_numpy(dtype=np.float64) / (f["w"].to_numpy(dtype=np.float64) * 100.0)
    return pd.DataFrame({"l_returnflag": f["l_returnflag"], "w_avg_discount": np.round(avg, 4)})


def benford_first_digit(sf_dir: str):
    """First-significant-digit distribution of order totals (the Benford
    data-quality audit — fabricated or truncated financial data skews it).
    Digit extraction is INTEGER arithmetic (floor → repeated div-10): log10/
    pow would be off the oracle-safe list (NOTES float rules). Counted by
    ``combine``; nine rows at most."""
    ds = _read(sf_dir, "orders", ["o_totalprice"])

    def first_digit(t: pa.Table) -> pa.Table:
        v = np.floor(t.column("o_totalprice").to_numpy(zero_copy_only=False)).astype(np.int64)
        v = v[v > 0]
        while (v >= 10).any():
            v = np.where(v >= 10, v // 10, v)
        return pa.table({"digit": pa.array(v, pa.int64())})

    digits = ds.map_batches(first_digit, batch_format="pyarrow", zero_copy_batch=True)
    return combine_frame(digits, "digit", {"n": (None, "count")})


def winsorized_mean_by_group(sf_dir: str, q_lo=(1, 10), q_hi=(9, 10)):
    """Winsorized (outlier-clipped) mean per group: clip each order total to
    its group's [p10, p90] (quantile_disc exact elements, the
    ``percentile_by_group`` index arithmetic) then average — the robust
    location estimate curation uses where a plain mean chases outliers.

    Scale shape: pass 1 yields one (qlo, qhi) row per group (5 groups →
    driver-sized, broadcast); pass 2 clips vectorized and ``combine`` sums
    the clipped totals in integer cents (exact: the fences are prices) and
    counts them per group — the mean never shuffles raw values."""
    from fractions import Fraction
    from math import ceil

    import ray

    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
    flo, fhi = Fraction(*q_lo), Fraction(*q_hi)

    def qpair(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g["o_totalprice"].to_numpy())
        return pd.DataFrame(
            {
                "o_orderpriority": [g["o_orderpriority"].iloc[0]],
                "qlo": [v[ceil(flo * len(v)) - 1]],
                "qhi": [v[ceil(fhi * len(v)) - 1]],
            }
        )

    # 5 priority groups — the small-cardinality grouped shape; huge groups
    # take the exact_quantile histogram-narrowing path instead
    qs = (
        ds.groupby("o_orderpriority").map_groups(qpair, batch_format="pandas").to_pandas()
    )
    q_ref = ray.put(
        {r.o_orderpriority: (r.qlo, r.qhi) for r in qs.itertuples(index=False)}
    )

    def clip_cents(t: pa.Table) -> pa.Table:
        qmap = ray.get(q_ref)
        lo, hi = np.array([qmap[k] for k in t.column("o_orderpriority").to_pylist()]).reshape(-1, 2).T
        v = np.clip(t.column("o_totalprice").to_numpy(zero_copy_only=False), lo, hi)
        return pa.table({"o_orderpriority": t.column("o_orderpriority"), "cents": pa.array(_cents(pa.array(v)))})

    rows = ds.map_batches(clip_cents, batch_format="pyarrow", zero_copy_batch=True)
    f = combine_frame(rows, "o_orderpriority", {"s": ("cents", "sum"), "n": (None, "count")})
    mean = f["s"].to_numpy(dtype=np.float64) / (f["n"].to_numpy(dtype=np.float64) * 100.0)
    return pd.DataFrame({"o_orderpriority": f["o_orderpriority"], "w_mean": np.round(mean, 4)})


def chi2_independence(sf_dir: str):
    """Chi-square independence audit between event type and a user cohort
    (the data-quality test for "is this categorical pair actually
    independent" — drift/leak detection in event streams). Exact integer
    contingency counts via ``combine``; the χ² statistic is computed
    from the driver-sized contingency table (cells = |types|·|cohorts|) and
    rounded 4dp on both sides (cross-row float sum order differs between
    engines)."""
    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def cohort(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "cohort": pa.array(
                    t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64) % 4
                ),
            }
        )

    c = combine_frame(
        ds.map_batches(cohort, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "cohort"],
        {"o": (None, "count")},
    )
    o = c["o"].to_numpy(dtype=np.float64)
    rt = c.groupby("event_type")["o"].transform("sum").to_numpy(dtype=np.float64)
    ct = c.groupby("cohort")["o"].transform("sum").to_numpy(dtype=np.float64)
    tot = o.sum()
    e = rt * ct / tot
    chi2 = float(np.round(((o - e) ** 2 / e).sum(), 4))
    return pd.DataFrame([{"chi2": chi2, "n_cells": np.int64(len(c))}])


def time_weighted_avg_per_user(sf_dir: str):
    """Time-weighted average value per user (the TWAP / sensor-mean shape:
    each reading holds until the next one, so long-held values weigh more
    than bursts). Weight = the integer-µs interval to the NEXT event; the
    user's last event opens no interval. Users with a single event have no
    coverage and drop on both sides.

    Scale shape: ``cogroup`` (one in-bucket sort), segment-wise
    shift for the next-timestamp, per-user (Σv·Δt, ΣΔt) sums finish inside
    the bucket; rounded 4dp both sides (cross-row float sum order)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def twap(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy(dtype=np.int64)
        t = g["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        v = g["value"].to_numpy(dtype=np.float64)
        tn = np.empty(len(t), dtype=np.int64)
        tn[:-1] = t[1:]
        tn[-1] = -1
        last = np.empty(len(t), dtype=bool)
        last[-1] = True
        last[:-1] = u[1:] != u[:-1]
        dt = (tn - t).astype(np.float64)
        keep = ~last
        d = pd.DataFrame({"u": u[keep], "wx": v[keep] * dt[keep], "w": dt[keep]})
        a = d.groupby("u", sort=False)[["wx", "w"]].sum().reset_index()
        return pd.DataFrame(
            {
                "user_id": a["u"].to_numpy(dtype=np.int64),
                "twap": np.round(a["wx"].to_numpy() / a["w"].to_numpy(), 4),
            }
        )

    return cogroup(ds, "user_id", twap, sort_by=["user_id", "ts", "event_id"])


def merge_upsert(sf_dir: str):
    """MERGE INTO / upsert: apply a change batch to a base table — matched
    keys take the update's value, unmatched updates insert, untouched base
    rows pass through (the data-lake compaction primitive; ``snapshot_diff``
    is its diff-producing sibling and shares the derived change batch
    arithmetic). ONE doc_id-hash ``cogroup`` of base and updates; the
    in-bucket apply is a vectorized update-wins merge."""
    ADD_OFF = 10_000_000
    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def update_rows(t: pa.Table) -> pa.Table:
        k = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        n = t.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        um = k % 5 == 0
        am = k % 11 == 0
        ku = np.concatenate([k[um], k[am] + ADD_OFF])
        nu = np.concatenate([n[um] + 1, n[am]])
        return pa.table({"doc_id": pa.array(ku), "n_chars": pa.array(nu)})

    def apply(base: pd.DataFrame, upd: pd.DataFrame) -> pd.DataFrame:
        # update-wins: sort so update rows come last per key, keep the last
        g = pd.concat([base.assign(is_upd=0), upd.assign(is_upd=1)])
        g = g.sort_values(["doc_id", "is_upd"], kind="mergesort")
        out = g.drop_duplicates("doc_id", keep="last")
        return pd.DataFrame(
            {
                "doc_id": out["doc_id"].to_numpy(dtype=np.int64),
                "n_chars": out["n_chars"].to_numpy(dtype=np.int64),
            }
        )

    updates = docs.map_batches(update_rows, batch_format="pyarrow", zero_copy_batch=True)
    return cogroup([docs, updates], "doc_id", apply)


def skyline_orders(sf_dir: str):
    """2-D SKYLINE / Pareto frontier: orders not dominated on
    (maximize o_totalprice, minimize o_orderdate) — the multi-criteria
    shortlist operator (dominates = ≥ on both axes, > on at least one).

    Scale shape: the skyline operator distributes because dominance is
    transitive — skyline(A ∪ B) = skyline(skyline(A) ∪ skyline(B)). Each
    batch emits a SUPERSET partial via the sort-sweep prune (sort price
    desc / date asc, keep while date ≤ running min — never drops a true
    skyline point), then the frontier-sized candidate set takes one exact
    vectorized dominance check. Only candidates leave their batch."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderdate"])

    def partial(t: pa.Table) -> pa.Table:
        p = t.column("o_totalprice").to_numpy(zero_copy_only=False)
        d = t.column("o_orderdate").to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        k = t.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((d, -p))  # price desc, date asc
        p, d, k = p[order], d[order], k[order]
        run = np.minimum.accumulate(d)
        keep = np.empty(len(d), dtype=bool)
        keep[0] = True
        keep[1:] = d[1:] <= run[:-1]  # superset rule: ties survive to the exact check
        return pa.table(
            {
                "o_orderkey": pa.array(k[keep]),
                "p": pa.array(p[keep]),
                "d": pa.array(d[keep]),
            }
        )

    cand = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    p = cand["p"].to_numpy()
    d = cand["d"].to_numpy()
    # exact dominance: frontier-sized k × k, vectorized
    dom = (
        (p[:, None] >= p[None, :])
        & (d[:, None] <= d[None, :])
        & ((p[:, None] > p[None, :]) | (d[:, None] < d[None, :]))
    )
    keep = ~dom.any(axis=0)
    out = cand[keep]
    return pd.DataFrame(
        {
            "o_orderkey": out["o_orderkey"].to_numpy(dtype=np.int64),
            "o_totalprice": out["p"].to_numpy(),
            "o_orderdate": np.datetime_as_string(
                out["d"].to_numpy(dtype=np.int64).astype("datetime64[us]"), unit="D"
            ),
        }
    ).reset_index(drop=True)


def sliding_distinct_users(sf_dir: str):
    """EXACT COUNT(DISTINCT user) per SLIDING 1-hour window stepping 30
    minutes — the overlapping-window companion to ``tumbling_distinct_users``:
    each event belongs to the two windows covering it, so it becomes one
    (user, window) row per covering window before the same distinct count."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])
    STEP = 1_800  # seconds; WIN = 2*STEP, so each event is in exactly two windows

    def pairs(t: pa.Table) -> pa.Table:
        # numpy epoch floor (a pyarrow us→s cast REFUSES to truncate)
        ts = (
            t.column("ts").to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
            // 1_000_000
        )
        u = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        # window starts covering ts: the two step-aligned starts in
        # (ts - WIN, ts] (WIN = 2·STEP, so both always cover)
        w1 = (ts // STEP) * STEP
        return pa.table({"user_id": np.concatenate([u, u]), "ws_epoch": np.concatenate([w1 - STEP, w1])})

    return _distinct_users(ds.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True))


def relational_division(sf_dir: str):
    """Relational DIVISION — customers whose orders cover ALL distinct
    order priorities (the "bought every item in the set" query; division is
    the one classic relational operator the repo lacked). Reference analog:
    the organizer "clients present in every statement period" completeness
    audit (app/utils.py cross-period checks).

    Scale shape: the distinct (custkey, priority-digit) pairs by
    ``combine``, materialized once; the divisor is their distinct digits,
    and a customer qualifies when its pair count equals it."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def pair_rows(t: pa.Table) -> pa.Table:
        # '1-URGENT'..'5-LOW' → leading digit, vectorized (1-byte slice)
        d = pc.cast(pc.utf8_slice_codeunits(t.column("o_orderpriority"), 0, 1), pa.int64())
        return pa.table({"o_custkey": pc.cast(t.column("o_custkey"), pa.int64()), "d": d})

    pairs = combine(ds.map_batches(pair_rows, batch_format="pyarrow", zero_copy_batch=True), ["o_custkey", "d"], {})
    pairs = pairs.materialize()
    divisor = len(combine_frame(pairs, "d", {}))
    n = combine(pairs, "o_custkey", {"n": (None, "count")})
    return n.filter(expr=f"n == {divisor}").select_columns(["o_custkey"])


def decayed_count_by_type(sf_dir: str):
    """Exponentially time-decayed event count per type (half-life 1 day,
    reference time 2024-02-01) — the recency-weighted popularity score
    streaming systems keep per key. The novelty is the ORACLE-EXACT float
    path: each weight is the dyadic rational 2^-age_days (age clamped to
    [0, 31]), so every partial sum is a multiple of 2^-31 bounded well
    under 2^22 — exactly representable in a double at every step, hence
    order-independent and bit-equal between numpy and DuckDB despite being
    a cross-row float SUM (NOTES float rules: the generic float SUM is off
    the oracle path; a bounded dyadic grid is the exception that isn't).

    Scale shape: ``combine``'s (type, Σw, n) partials — 5 rows per block —
    and a driver-sized exact merge."""
    REF_US = 1_706_745_600_000_000  # 2024-02-01 00:00:00 UTC
    DAY_US = 86_400_000_000
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def weight(t: pa.Table) -> pa.Table:
        ts = t.column("ts").cast(pa.timestamp("us")).to_numpy(zero_copy_only=False)
        age = np.clip((REF_US - ts.astype(np.int64)) // DAY_US, 0, 31)
        w = np.ldexp(1.0, -age)  # exact dyadic weights
        return pa.table({"event_type": t.column("event_type"), "w": pa.array(w)})

    return combine_frame(
        ds.map_batches(weight, batch_format="pyarrow", zero_copy_batch=True),
        "event_type",
        {"decayed_count": ("w", "sum"), "n": (None, "count")},
    )


def word_len_stats_by_source(sf_dir: str):
    """Mean word length per source — the Gopher quality-rule axis (docs
    whose mean word length leaves [3, 10] are filtered as non-prose).
    Words = single-space-separated runs, counted with integer byte
    arithmetic (count_substring(' ') + 1 per doc; corpus tokens are ASCII,
    so byte==char count). BIGINT partials sum exactly; ONE division +
    half-away 4dp round at the end (integer/integer ratios can land on
    exact decimal ties, so np.round's banker's mode is off the table —
    CLAUDE.md rounding rule)."""
    ds = _read(sf_dir, "documents", ["source", "text"])

    def word_bytes(t: pa.Table) -> pa.Table:
        txt = t.column("text")
        nsp = pc.count_substring(txt, " ").to_numpy(zero_copy_only=False).astype(np.int64)
        nb = pc.binary_length(txt).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "source": t.column("source"),
                "nw": pa.array(nsp + 1),
                "nc": pa.array(nb - nsp),  # word bytes = total − separators
            }
        )

    a = combine_frame(
        ds.map_batches(word_bytes, batch_format="pyarrow", zero_copy_batch=True),
        "source",
        {"nw": ("nw", "sum"), "nc": ("nc", "sum")},
    )
    ratio = a["nc"].to_numpy(dtype=np.float64) / a["nw"].to_numpy(dtype=np.float64)
    return pd.DataFrame(
        {
            "source": a["source"],
            "n_words": a["nw"],
            "avg_word_len": np.floor(ratio * 1e4 + 0.5) / 1e4,
        }
    )


def exact_distinct_tokens_by_source(sf_dir: str):
    """EXACT distinct-token count per source — the ground-truth twin of
    ``approx_distinct_tokens_by_source`` (HLL): same question, sketch-free
    answer, so the pair demonstrates the exact-vs-approximate trade the
    engine offers at scale: the distinct (token, source) pairs, then a
    count per source, both by ``combine``; the token goes first, so no
    worker holds a source's whole vocabulary."""
    ds = _read(sf_dir, "documents", ["source", "text"])
    rows = ds.map_batches(_token_rows, batch_format="pyarrow", zero_copy_batch=True)
    return combine_frame(combine(rows, ["token", "source"], {}), "source", {"n_distinct_tokens": (None, "count")})


def _token_rows(t: pa.Table) -> pa.Table:
    """One (token, source) row per space-separated token of ``text``."""
    toks = t.column("text").to_pandas().str.split(" ")
    src = t.column("source").to_pandas().repeat(toks.str.len().to_numpy())
    tok = np.concatenate(toks.to_numpy()) if len(toks) else np.empty(0, object)
    return pa.table({"token": pa.array(tok, pa.string()), "source": pa.array(src.to_numpy(), pa.string())})


def rolling_extremes_per_user(sf_dir: str, window: int = 3):
    """Frame-based rolling MIN/MAX (ROWS BETWEEN 2 PRECEDING AND CURRENT
    ROW) per user ordered by (ts, event_id) — the alert/threshold window
    (``rolling_avg_per_user``'s selection-only sibling: extremes are pure
    element picks, so no rounding is needed and parity is bit-exact by
    construction). Same bucketed-sort + segment-wise C-kernel shape."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def roll_b(g: pd.DataFrame) -> pd.DataFrame:
        gb = g.groupby("user_id", sort=False)["value"]
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "roll_min": gb.rolling(window, min_periods=1).min().to_numpy(),
                "roll_max": gb.rolling(window, min_periods=1).max().to_numpy(),
            }
        )

    return cogroup(ds, "user_id", roll_b, sort_by=["user_id", "ts", "event_id"])


def revenue_share_by_priority(sf_dir: str):
    """Percent-of-total contribution analysis (each priority's share of
    total revenue — the BI "contribution" rollup). Prices are 2-decimal
    currency → integer CENTS partials (exact BIGINT sums; a float SUM
    would be off the oracle path), one grand-total division per group at
    the end, half-away 6dp round (integer/integer ratios can land exact
    decimal ties — CLAUDE.md rounding rule)."""
    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def cents(t: pa.Table) -> pa.Table:
        c = np.round(t.column("o_totalprice").to_numpy(zero_copy_only=False) * 100.0).astype(np.int64)
        return pa.table({"o_orderpriority": t.column("o_orderpriority"), "c": pa.array(c)})

    a = combine_frame(
        ds.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True),
        "o_orderpriority",
        {"c": ("c", "sum")},
    )
    total = float(a["c"].sum())
    share = a["c"].to_numpy(dtype=np.float64) / total
    return pd.DataFrame(
        {
            "o_orderpriority": a["o_orderpriority"],
            "revenue_cents": a["c"],
            "share": np.floor(share * 1e6 + 0.5) / 1e6,
        }
    )


def burst_detection_windows(sf_dir: str):
    """Burst/anomaly detection over the event stream: minute-tumbling
    counts per type, flag windows whose count exceeds mean + 3σ of that
    type's per-window counts — the ops-monitoring "traffic spike" query.
    ORACLE-EXACT float boundary: window counts are integers, so Σc and Σc²
    are exact BIGINTs, and the threshold uses only /, *, +, sqrt — all
    IEEE-correctly-rounded (NOTES float rules), with the identical
    parenthesization on both engines; var clamps at 0 on both sides so a
    rounding-negative variance can't diverge through sqrt.

    Scale shape: (type, minute) counts by ``combine`` (windows table,
    minute-cardinality-sized, materialized); per-type (Σc, Σc², n) integer
    sums by a second ``combine`` (|types| rows); thresholds broadcast into
    a vectorized filter."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])
    MIN_US = 60_000_000

    def minute(t: pa.Table) -> pa.Table:
        ts = t.column("ts").cast(pa.timestamp("us")).to_numpy(zero_copy_only=False)
        return pa.table({"event_type": t.column("event_type"), "wm": pa.array(ts.astype(np.int64) // MIN_US)})

    rows = ds.map_batches(minute, batch_format="pyarrow", zero_copy_batch=True)
    windows = combine(rows, ["event_type", "wm"], {"n": (None, "count")}).materialize()

    def square(t: pa.Table) -> pa.Table:
        return t.append_column("n2", pc.multiply(t.column("n"), t.column("n")))

    st = combine_frame(
        windows.map_batches(square, batch_format="pyarrow", zero_copy_batch=True),
        "event_type",
        {"sc": ("n", "sum"), "sc2": ("n2", "sum"), "nw": (None, "count")},
    )
    thr = {}
    for et, sc, sc2, nw in st.itertuples(index=False):
        mean = float(sc) / float(nw)
        var = max(float(sc2) / float(nw) - mean * mean, 0.0)
        thr[et] = mean + 3.0 * np.sqrt(var)

    def flag(t: pa.Table) -> pa.Table:
        c = t.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        th = np.array([thr[e] for e in t.column("event_type").to_pylist()])
        keep = c > th
        sub = t.filter(pa.array(keep))
        return pa.table(
            {
                "event_type": sub.column("event_type"),
                "window_start": pc.strftime(
                    pc.cast(
                        pc.multiply(sub.column("wm"), 60), pa.timestamp("s")
                    ),
                    format="%Y-%m-%d %H:%M:%S",
                ),
                "n_events": pc.cast(sub.column("n"), pa.int64()),
            }
        )

    # bursts are anomaly-sized by construction (3σ tail) — finish as a
    # typed DataFrame so a zero-burst corpus keeps its schema
    out = windows.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    if out.empty:
        out = pd.DataFrame(
            {
                "event_type": pd.Series([], dtype=str),
                "window_start": pd.Series([], dtype=str),
                "n_events": pd.Series([], dtype=np.int64),
            }
        )
    return out


def rolling_count_range_window(sf_dir: str, window_s: int = 3600):
    """RANGE-frame window: events in the trailing HOUR per user at each
    event (rate-limiting / frequency-capping semantics — a TIME-based
    frame, unlike the ROWS frames of rolling_avg/extremes: two events at
    the same timestamp see each other regardless of row order). COUNT
    keeps the frame integer-exact, so parity is bit-free of float concerns.

    In-bucket kernel: per user segment, count = i − searchsorted(ts,
    ts[i] − window) + tie-fix — implemented vectorized as one searchsorted
    of (ts − window) against ts plus one of ts itself (RANGE includes ALL
    rows with equal ts, even those after this row in row order), both over
    the user-sorted bucket with np.repeat'd segment offsets."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    W_US = window_s * 1_000_000

    def count_b(g: pd.DataFrame) -> pd.DataFrame:
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        uid = g["user_id"].to_numpy(dtype=np.int64)
        if len(ts) == 0:
            return pd.DataFrame(
                {
                    "event_id": np.empty(0, dtype=np.int64),
                    "n_last_hour": np.empty(0, dtype=np.int64),
                }
            )
        # ONE searchsorted over the whole (user, ts)-sorted bucket — no
        # per-user loop: each user's rows get a disjoint key range
        # key = rank(uid)·OFF + (ts − tmin), with OFF wide enough that
        # key − W can never cross into the previous user's range
        t0 = ts - ts.min()
        off = np.int64(t0.max()) + W_US + 1
        urank = np.cumsum(np.concatenate(([0], (uid[1:] != uid[:-1]).astype(np.int64))))
        key = urank * off + t0
        lo = np.searchsorted(key, key - W_US, side="left")
        hi = np.searchsorted(key, key, side="right")  # equal-ts peers count
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(dtype=np.int64),
                "n_last_hour": (hi - lo).astype(np.int64),
            }
        )

    return cogroup(ds, "user_id", count_b, sort_by=["user_id", "ts", "event_id"])


def last_nonnull_carry(sf_dir: str):
    """LAST_VALUE(... IGNORE NULLS) — the sensor/LOCF window function
    (carry the most recent reading forward across missing values). Nulls
    are derived deterministically (event_id % 5 == 0 → missing) so the
    oracle replicates the gap pattern exactly; the carried value is a pure
    element pick, so parity is bit-exact with no rounding. In-bucket
    kernel: mask → pandas groupby(user).ffill (C kernel, positionally
    aligned by the helper invariant); rows before a user's first reading
    stay NULL on both sides."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def carry_b(g: pd.DataFrame) -> pd.DataFrame:
        v = g["value"].to_numpy(dtype=np.float64).copy()
        v[g["event_id"].to_numpy(dtype=np.int64) % 5 == 0] = np.nan
        carried = (
            pd.Series(v, index=g.index).groupby(g["user_id"], sort=False).ffill()
        )
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(dtype=np.int64),
                "carried": carried.to_numpy(),
            }
        )

    return cogroup(ds, "user_id", carry_b, sort_by=["user_id", "ts", "event_id"])


def campaign_exposure_seconds(sf_dir: str, gap_s: int = 300):
    """Interval-OVERLAP join with duration (ad-exposure attribution): how
    many microseconds of user ACTIVITY (the gaps-and-islands intervals)
    fall inside each campaign window — containment (`range_join_campaigns`)
    tells you IF, this tells you HOW MUCH. Overlap = max(0, min(ends) −
    max(starts)) per (island, campaign), all integer µs → hash-exact.

    Scale shape: islands form in user-hash buckets (the interval_islands
    kernel) and are immediately reduced against the 5 broadcast campaign
    windows INSIDE the bucket — per-bucket output is |campaigns| partial
    rows, so the driver merges B·5 integers and island rows never leave
    their bucket."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    gap_us = gap_s * 1_000_000
    BASE_US = 1_704_067_200_000_000  # 2024-01-01 UTC
    DAY_US = 86_400_000_000
    wins = [(k, BASE_US + k * 5 * DAY_US, BASE_US + (k * 5 + 8) * DAY_US) for k in range(5)]

    def exposure_b(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy(dtype=np.int64)
        s = g["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        en = s + gap_us
        d = pd.DataFrame({"u": u, "s": s, "e": en})
        prev_max = d.groupby("u", sort=False)["e"].cummax().shift(1).to_numpy()
        first = np.empty(len(d), dtype=bool)
        if len(d):
            first[0] = True
            first[1:] = u[1:] != u[:-1]
        isl = np.cumsum(first | (s > prev_max)) if len(d) else np.array([], dtype=np.int64)
        spans = (
            d.assign(isl=isl).groupby("isl", sort=False).agg(s0=("s", "min"), e1=("e", "max"))
        )
        s0, e1 = spans["s0"].to_numpy(), spans["e1"].to_numpy()
        rows = []
        for cid, cs, ce in wins:  # 5 vectorized passes over bucket islands
            ov = np.maximum(0, np.minimum(e1, ce) - np.maximum(s0, cs))
            rows.append((cid, int(ov.sum()), int((ov > 0).sum())))
        return pd.DataFrame(rows, columns=["campaign_id", "exposure_us", "n_islands"])

    parts = cogroup(ds, "user_id", exposure_b, sort_by=["user_id", "ts", "event_id"])
    sums = {"exposure_us": ("exposure_us", "sum"), "n_islands": ("n_islands", "sum")}
    return combine_frame(parts, "campaign_id", sums)


def topk_with_ties_per_group(sf_dir: str, k: int = 2):
    """Top-k per group WITH TIES (SQL's FETCH FIRST k WITH TIES / QUALIFY
    RANK() ≤ k): every row tying the k-th value survives, so group output
    size is data-dependent — the semantics ``topk_per_group``'s head(k)
    deliberately truncates. RANK (with gaps) over (quantity DESC) inside
    supplier-hash buckets; value-only comparison, no tiebreak needed, no
    rounding (element picks)."""
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_suppkey", "l_quantity"])

    def ranked(g: pd.DataFrame) -> pd.DataFrame:
        r = g.groupby("l_suppkey", sort=False)["l_quantity"].rank(
            method="min", ascending=False
        )
        keep = g[r <= k]
        return pd.DataFrame(
            {
                "l_suppkey": keep["l_suppkey"].to_numpy(dtype=np.int64),
                "l_orderkey": keep["l_orderkey"].to_numpy(dtype=np.int64),
                "l_linenumber": keep["l_linenumber"].to_numpy(dtype=np.int64),
                "l_quantity": keep["l_quantity"].to_numpy(),
            }
        )

    return cogroup(ds, "l_suppkey", ranked, sort_by=["l_suppkey", "l_orderkey", "l_linenumber"])


def weekly_revenue_wow(sf_dir: str):
    """Period-over-period BI delta: revenue per ISO week (exact integer
    cents) with the week-over-week difference — the trend/regression
    readout every ops dashboard leads with. (week, cents) sums by
    ``combine``; the aggregated table is weeks-sized, so the LAG finishes on
    the driver in epoch-week order (a Ray sort on dozens of rows costs
    seconds — NOTES driver-finish rule). All integer: epoch_us // 7-day
    weeks anchored to the Unix epoch's Thursday→Monday offset exactly as
    the oracle computes it."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
    WEEK_US = 7 * 86_400_000_000
    # Unix epoch (1970-01-01) is a THURSDAY; shift +3 days so week buckets
    # start on Monday, matching date_trunc('week') in the oracle
    SHIFT_US = 3 * 86_400_000_000

    def week_cents(t: pa.Table) -> pa.Table:
        ts = t.column("o_orderdate").cast(pa.timestamp("us")).to_numpy(zero_copy_only=False)
        wk = (ts.astype(np.int64) + SHIFT_US) // WEEK_US
        cents = np.round(
            t.column("o_totalprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({"wk": pa.array(wk), "c": pa.array(cents)})

    agg = combine_frame(
        ds.map_batches(week_cents, batch_format="pyarrow", zero_copy_batch=True), "wk", {"c": ("c", "sum")}
    )
    weeks = agg["wk"].to_numpy(dtype=np.int64)
    cents = agg["c"].to_numpy(dtype=np.int64)
    prev = np.concatenate(([0], cents[:-1]))
    has_prev = np.concatenate(([False], (weeks[1:] - weeks[:-1]) == 1))
    wow = np.where(has_prev, cents - prev, 0)
    start_us = weeks * WEEK_US - SHIFT_US
    return pd.DataFrame(
        {
            "week_start": pd.to_datetime(start_us, unit="us").strftime("%Y-%m-%d"),
            "revenue_cents": cents,
            "wow_delta_cents": np.where(has_prev, wow, np.int64(0)).astype(np.int64),
        }
    )


def user_journey_signatures(sf_dir: str, k: int = 5, top_n: int = 20):
    """User-journey mining: each user's first k event types (ordered by
    ts, event_id) joined into a path signature ('view>click>…'), then the
    top-N most common journeys — the product-analytics "how do sessions
    actually start" question funnel_conversion (fixed pattern) can't
    answer. Per-user head(k) + ordered join inside user-hash buckets
    (string_agg_by_source precedent: the per-group join is inherent to
    ordered string aggregation); per-bucket (signature, n_users) partials
    make the final merge signature-cardinality-sized (≤ |types|^k)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def sigs(g: pd.DataFrame) -> pd.DataFrame:
        head = g.groupby("user_id", sort=False).head(k)
        s = head.groupby("user_id", sort=False)["event_type"].agg(">".join)
        a = s.value_counts()
        return pd.DataFrame(
            {"signature": a.index.to_numpy(), "n_users": a.to_numpy(dtype=np.int64)}
        )

    parts = cogroup(ds, "user_id", sigs, sort_by=["user_id", "ts", "event_id"])
    agg = combine_frame(parts, "signature", {"n_users": ("n_users", "sum")})
    return (
        agg.sort_values(["n_users", "signature"], ascending=[False, True], kind="mergesort")
        .head(top_n)
        .reset_index(drop=True)
    )


def events_since_purchase(sf_dir: str):
    """Reset-on-event counter: for every event, how many events since the
    user's most recent PURCHASE (purchase rows reset to 0; rows before a
    user's first purchase are NULL) — the recency state recommender
    feature pipelines keep per key, and a window shape none of the
    existing frames cover (the frame boundary is DATA-dependent, not a
    row/time offset). In-bucket: grouped cumsum of the purchase flag
    segments each user's history; cumcount within (user, segment) is the
    counter — both pandas C kernels, integer-exact."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def counter_b(g: pd.DataFrame) -> pd.DataFrame:
        p = (g["event_type"] == "purchase").astype(np.int64)
        seg = p.groupby(g["user_id"], sort=False).cumsum()  # aligned to g
        n = g.groupby([g["user_id"], seg], sort=False).cumcount()
        out = n.to_numpy(dtype=np.float64)
        out[seg.to_numpy() == 0] = np.nan  # before the first purchase
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(dtype=np.int64),
                "n_since_purchase": out,
            }
        )

    res = cogroup(ds, "user_id", counter_b, sort_by=["user_id", "ts", "event_id"])
    # NaN→null happens in the pandas→Arrow block conversion; cast to
    # int64-with-nulls so the dtype matches the oracle's BIGINT exactly
    # (ADVICE r3: float64+NaN vs BIGINT+NULL could fail a strict driver
    # dtype check — lag_event_delta's driver-graded shape)
    return res.map_batches(
        lambda t: pa.table(
            {
                "event_id": t.column("event_id"),
                "n_since_purchase": pc.cast(t.column("n_since_purchase"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def lineitems_above_avg_qty(sf_dir: str):
    """Correlated-subquery decorrelation: per part, how many lineitems
    order MORE than that part's OWN average quantity (`WHERE l_quantity >
    (SELECT AVG(...) ... WHERE l_partkey = outer.l_partkey)` — the classic
    correlated aggregate every SQL engine decorrelates into a
    group-stats + re-join plan). Distributed shape: quantities are small
    integers (1..50), so per-batch partials are (partkey, qty, n) count
    rows — a ≤50-row-per-partkey-per-batch histogram, never raw rows —
    merged in ONE partkey-hash bucket co-group where the comparison runs
    in EXACT integer arithmetic: qty·n_total > sum_qty avoids the float
    division entirely (the avg is never materialized, so there is no
    rounding boundary to disagree on).

    Scale: the shuffle carries count partials bounded by
    |distinct qty| × partkeys, not lineitem rows; no broadcast; one
    grouped stage over 64 buckets."""
    ds = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        pk = t.column("l_partkey")
        q = pc.cast(t.column("l_quantity"), pa.int64())  # integer-valued by data contract
        tt = pa.table(
            {
                "l_partkey": pk,
                "qty": q,
                "one": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            }
        )
        return (
            tt.group_by(["l_partkey", "qty"])
            .aggregate([("one", "sum")])
            .rename_columns(["l_partkey", "qty", "n"])
        )

    def merge_b(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby(["l_partkey", "qty"], sort=False)["n"].sum().reset_index()
        grp = s.groupby("l_partkey", sort=False)
        tot = grp["n"].transform("sum").to_numpy()
        sq = (
            (s["qty"] * s["n"]).groupby(s["l_partkey"], sort=False).transform("sum")
        ).to_numpy()
        above = np.where(s["qty"].to_numpy() * tot > sq, s["n"].to_numpy(), 0)
        res = (
            s.assign(_a=above).groupby("l_partkey", sort=False)["_a"].sum().reset_index()
        )
        return pd.DataFrame(
            {
                "l_partkey": res["l_partkey"].to_numpy(dtype=np.int64),
                "n_above": res["_a"].to_numpy(dtype=np.int64),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return cogroup(parts, "l_partkey", merge_b)


def histogram_orders_cents(sf_dir: str, bin_cents: int = 1_000_000):
    """Equi-width histogram of order totals (the profiling / data-quality
    primitive behind WIDTH_BUCKET): bin = integer-cents // bin_cents —
    all-integer arithmetic, so the bin boundary can never disagree with
    the oracle the way float width division can. Bins counted by
    ``combine`` — order rows never shuffle."""
    ds = _read(sf_dir, "orders", ["o_totalprice"])

    def to_bin(t: pa.Table) -> pa.Table:
        return pa.table({"bin": pa.array(_cents(t.column("o_totalprice")) // bin_cents)})

    out = combine(
        ds.map_batches(to_bin, batch_format="pyarrow", zero_copy_batch=True), "bin", {"n_orders": (None, "count")}
    )
    return out.map_batches(
        lambda t: pa.table(
            {
                "bin": t.column("bin"),
                "lo_cents": pc.multiply(t.column("bin"), pa.scalar(bin_cents, pa.int64())),
                "n_orders": t.column("n_orders"),
            }
        ),
        batch_format="pyarrow",
    )


def iqr_outliers_by_priority(sf_dir: str):
    """Tukey-fence outlier audit per group (the data-quality primitive
    behind box plots): per order priority, Q1/Q3 of the order total and
    the count of orders outside [Q1 − k·IQR, Q3 + k·IQR]. k = 0.5 here
    (Tukey's 1.5 flags nothing on this light-tailed synthetic corpus —
    both fence branches must actually fire for the parity check to mean
    anything). Everything runs on the exact integer-cents grid, and k
    never becomes a float: fences are compared in DOUBLED cents
    (2·cents < 3·Q1 − Q3), so the half-cent boundary is integer-exact
    on both engines.
    quantile_disc parity: q = 1/4 and 3/4 are dyadic — exactly
    representable doubles, so DuckDB's float rank arithmetic cannot
    diverge from the Fraction ceil-rank rule (NOTES: safe-q analysis).

    Scale shape: pass 1 = the 5-group quantile pick (groups far below the
    tiny-group trap); pass 2 = stateless per-batch outlier-count partials
    against the 5-entry fence table captured in the closure (constant-
    size, not corpus-size) + a 5-row driver finish."""
    from fractions import Fraction
    from math import ceil

    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def to_cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {"o_orderpriority": t.column("o_orderpriority"), "cents": pa.array(_cents(t.column("o_totalprice")))}
        )

    # two consumers (quantile pick, outlier count) — materialize the cents
    # projection so the second pass reads object-store blocks, not parquet
    # (NOTES r4 materialize-then-rescan rule)
    cds = ds.map_batches(
        to_cents, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g["cents"].to_numpy())
        n = len(v)
        q1 = int(v[ceil(Fraction(1, 4) * n) - 1])
        q3 = int(v[ceil(Fraction(3, 4) * n) - 1])
        return pd.DataFrame(
            {"o_orderpriority": [g["o_orderpriority"].iloc[0]], "q1": [q1], "q3": [q3]}
        )

    # five rows; read as records so that no rows still give the columns
    fences = pd.DataFrame(
        cds.groupby("o_orderpriority").map_groups(pick, batch_format="pandas").take_all(),
        columns=["o_orderpriority", "q1", "q3"],
    )
    fmap = {
        r.o_orderpriority: (int(r.q1), int(r.q3)) for r in fences.itertuples(index=False)
    }

    def count_part(t: pa.Table) -> pa.Table:
        pr = t.column("o_orderpriority").to_pandas()
        cents = t.column("cents").to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(pr)
        q1a = np.array([fmap[u][0] for u in uniq], dtype=np.int64)
        q3a = np.array([fmap[u][1] for u in uniq], dtype=np.int64)
        lo2 = (3 * q1a - q3a)[codes]
        hi2 = (3 * q3a - q1a)[codes]
        out = (2 * cents < lo2) | (2 * cents > hi2)
        n_out = np.bincount(codes, weights=out).astype(np.int64)
        return pa.table(
            {"o_orderpriority": pa.array(list(uniq)), "n": pa.array(n_out)}
        )

    parts = cds.map_batches(count_part, batch_format="pyarrow", zero_copy_batch=True)
    tot = combine_frame(parts, "o_orderpriority", {"n": ("n", "sum")}).set_index("o_orderpriority")["n"]
    return pd.DataFrame(
        {
            "o_orderpriority": fences["o_orderpriority"].to_numpy(),
            "q1_cents": fences["q1"].to_numpy(dtype=np.int64),
            "q3_cents": fences["q3"].to_numpy(dtype=np.int64),
            "n_outliers": tot.reindex(fences["o_orderpriority"]).to_numpy(dtype=np.int64),
        }
    )


def throttle_events_cooldown(sf_dir: str, cooldown_s: int = 3600):
    """Streaming cooldown suppression (rate-limiter / notification dedup):
    per user, ordered by (ts, event_id), an event is EMITTED only if its
    ts >= last EMITTED ts + cooldown; the first event always emits. Each
    decision depends on the previous EMISSION, not the previous row — a
    data-dependent recurrence no SQL window frame expresses (rows-only
    check + brute-force pin, the fingerprint_rolling category; a
    recursive CTE could state it but not over this scale). In-bucket
    cost: one searchsorted jump per EMITTED event — O(emitted · log n)
    per user, not O(rows) Python; burst-heavy corpora (the ones that
    need throttling) have emitted ≪ rows by construction."""
    cd_us = cooldown_s * 1_000_000
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def throttle_b(g: pd.DataFrame) -> pd.DataFrame:
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        uid = g["user_id"].to_numpy()
        n = len(g)
        keep = np.zeros(n, dtype=bool)
        if n:
            starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
            ends = np.r_[starts[1:], n]
            for s, e in zip(starts, ends):
                i = s
                while i < e:
                    keep[i] = True
                    i = s + int(np.searchsorted(ts[s:e], ts[i] + cd_us, side="left"))
        # self-audit (VERDICT r4 #6): seconds since the previous EMITTED
        # event of the same user (-1 for a user's first emission) — the
        # cooldown invariant (gap == -1 or gap >= cooldown_s) is visible in
        # every output row, not just in the brute-force test pin.
        kts = ts[keep]
        kuid = uid[keep]
        gap = np.full(len(kts), -1, dtype=np.int64)
        if len(kts):
            same = np.r_[False, kuid[1:] == kuid[:-1]]
            diffs = np.r_[np.int64(0), (kts[1:] - kts[:-1]) // 1_000_000]
            gap = np.where(same, diffs, np.int64(-1))
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy()[keep],
                "user_id": kuid.astype(np.int64),
                "gap_prev_kept_s": gap,
            }
        )

    return cogroup(
        ds, "user_id", throttle_b, sort_by=["user_id", "ts", "event_id"]
    )


def countmin_token_counts(sf_dir: str, width: int = 8192, depth: int = 4):
    """Count-min sketch token counts audited against the exact pass: the
    second mergeable frequency sketch next to Misra-Gries
    (heavy_hitter_tokens) — CM answers point queries for ANY key after
    one pass, MG only tracks the top set. Per-batch partials are the
    sketch's nonzero cells over a bounded depth×width grid (token keys
    never shuffle; the ≤32k-cell grid does), summed per cell by
    ``combine``, and the merged sketch — constant-size by design — is the
    only thing the driver ever holds. Estimates are queried for exactly
    the tokens heavy_hitter_tokens proves exact, so the one-sided bound
    (est ≥ true; est ≤ true + N/width w.h.p. per row, min over rows) is
    checkable row by row."""
    from ..functions.sketches import fnv1a64_batch, splitmix64_vec

    seeds = np.array(
        [
            0x9E3779B97F4A7C15,
            0xBF58476D1CE4E5B9,
            0x94D049BB133111EB,
            0xD6E8FEB86659FD93,
        ],
        dtype=np.uint64,
    )[:depth]

    ds = _read(sf_dir, "documents", ["text"])

    def cm_rows(tok_arr: np.ndarray) -> np.ndarray:
        """(depth, n_tokens) flat cell indices for a token array."""
        h = fnv1a64_batch([s.encode() for s in tok_arr])
        return np.stack(
            [
                (splitmix64_vec(h ^ seeds[r]) % np.uint64(width)).astype(np.int64)
                + r * width
                for r in range(len(seeds))
            ]
        )

    def cm_partial(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        toks = " ".join(texts).split(" ") if texts else []
        vc = pd.Series(toks, dtype="object").value_counts()
        flat = np.zeros(len(seeds) * width, dtype=np.int64)
        if len(vc):
            idx = cm_rows(vc.index.to_numpy(dtype=object))
            cnt = vc.to_numpy(dtype=np.int64)
            for r in range(len(seeds)):
                np.add.at(flat, idx[r], cnt)
        nz = np.nonzero(flat)[0]
        return pa.table({"idx": pa.array(nz), "n": pa.array(flat[nz])})

    parts = ds.map_batches(cm_partial, batch_format="pyarrow", zero_copy_batch=True)
    cells = combine_frame(parts, "idx", {"n": ("n", "sum")})
    flat = np.zeros(len(seeds) * width, dtype=np.int64)
    flat[cells["idx"].to_numpy(dtype=np.int64)] = cells["n"].to_numpy(dtype=np.int64)

    exact = heavy_hitter_tokens(sf_dir)
    exact = exact if isinstance(exact, pd.DataFrame) else exact.to_pandas()
    if len(exact) == 0:
        return pd.DataFrame(
            {
                "token": pd.Series([], dtype="object"),
                "n_exact": pd.Series([], dtype="int64"),
                "n_est": pd.Series([], dtype="int64"),
            }
        )
    idx = cm_rows(exact["token"].to_numpy(dtype=object))
    est = flat[idx].min(axis=0)
    out = pd.DataFrame(
        {
            "token": exact["token"].to_numpy(),
            "n_exact": exact["n_occurrences"].to_numpy(dtype=np.int64),
            "n_est": est.astype(np.int64),
        }
    )
    return out.sort_values(["n_exact", "token"], ascending=[False, True]).reset_index(
        drop=True
    )


def lead_event_delta(sf_dir: str):
    """LEAD window function (time until the NEXT event per key — the
    forward-looking twin of ``lag_event_delta``, with the null on each
    key's LAST row instead of its first; churn/inactivity features read
    this direction). Same bucket shape; the segment-wise kernel is a
    groupby-shift(-1) subtraction."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def lead_b(g: pd.DataFrame) -> pd.DataFrame:
        us = pd.Series(
            g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64), index=g.index
        )
        nxt = us.groupby(g["user_id"].to_numpy()).shift(-1)  # aligned to g
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "delta_us": (nxt - us).to_numpy(),  # NaN on each last row → null
            }
        )

    out = cogroup(ds, "user_id", lead_b, sort_by=["user_id", "ts", "event_id"])
    return out.map_batches(
        lambda t: pa.table(
            {
                "event_id": t.column("event_id"),
                "delta_us": pc.cast(t.column("delta_us"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def cume_dist_by_supplier(sf_dir: str):
    """CUME_DIST window (fraction of the partition with a value ≤ the
    current row's — ties count each other, unlike PERCENT_RANK's
    rank−1/n−1): lineitem quantity within supplier. The in-bucket kernel
    is pandas ``rank(method="max")`` segment-wise (count of ≤ = max rank
    over the tie group) divided by the segment size — one int/int IEEE
    division on both engines, so the float is bit-identical without any
    rounding step."""
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_suppkey", "l_quantity"])

    def cume_b(g: pd.DataFrame) -> pd.DataFrame:
        grp = g.groupby("l_suppkey", sort=False)
        rmax = grp["l_quantity"].rank(method="max").to_numpy()
        n = grp["l_quantity"].transform("size").to_numpy()
        return pd.DataFrame(
            {
                "l_orderkey": g["l_orderkey"].to_numpy(dtype=np.int64),
                "l_linenumber": g["l_linenumber"].to_numpy(dtype=np.int64),
                "cume": rmax / n,
            }
        )

    return cogroup(ds, "l_suppkey", cume_b)


def kmv_user_overlap(sf_dir: str, k: int = 256):
    """KMV / theta-style distinct sketch with SET OPERATIONS — the fourth
    sketch modality (HLL counts one set, Misra-Gries tops, count-min point
    frequencies; KMV is the one that answers UNION and INTERSECTION
    questions, the Druid/DataSketches workhorse): per event type keep the
    k minimum splitmix64(user_id) values; for every type pair estimate
    distinct users of each side, of the union (KMV of the merged sample)
    and of the intersection (union estimate × the fraction of the union
    sample present in BOTH sides).

    Mergeability is the scale story: a batch contributes one bounded
    (type, k×8-byte sample) row; merge = k smallest of the concatenation
    (np.unique — associative, order-free); the pair arithmetic runs on
    the driver over |types|² bounded sketches. Deterministic (hash-based,
    no RNG). Rows-only entry; error vs exact set algebra pinned in tests
    (KMV s.e. ≈ 1/√(k−2) per estimate)."""
    from ..functions.sketches import splitmix64_vec

    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def sketch(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.uint64)
        et = t.column("event_type").to_pandas()
        h = splitmix64_vec(uid)
        codes, uniq = pd.factorize(et)
        types, samples = [], []
        for c, name in enumerate(uniq):
            s = np.unique(h[codes == c])[:k]
            types.append(name)
            samples.append(s.tobytes())
        return pa.table(
            {
                "event_type": pa.array(types, pa.string()),
                "sample": pa.array(samples, pa.binary()),
            }
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        allv = np.unique(
            np.frombuffer(b"".join(g["sample"]), dtype=np.uint64)
        )[:k]
        return pd.DataFrame(
            {"event_type": [g["event_type"].iloc[0]], "sample": [allv.tobytes()]}
        )

    parts = ds.map_batches(sketch, batch_format="pyarrow", zero_copy_batch=True)
    final = parts.groupby("event_type").map_groups(merge, batch_format="pandas").to_pandas()

    kmv = {
        r.event_type: np.frombuffer(r.sample, dtype=np.uint64)
        for r in final.itertuples(index=False)
    }

    def est(v: np.ndarray) -> float:
        if len(v) < k:
            return float(len(v))  # sample is exhaustive
        return (k - 1) / (float(v[k - 1]) / 2.0**64)

    # EXACT set-algebra audit computed in the same run (VERDICT r4 #6):
    # per-user type BITMASK (|types| bits, bounded) — batch partials are
    # distinct (user, 1<<bit) rows summed per user (distinct powers of two
    # sum to the OR), OR-merged per user inside user-hash buckets with
    # np.bitwise_or.reduceat, and only <=2^|types| combo-count rows per
    # bucket reach the driver. Exact |A|, |A∪B|, |A∩B| then come from combo
    # algebra over that tiny table — the shuffle never carries a user's
    # full event list and the driver never sees per-user rows.
    types = sorted(kmv)
    tmap = {t: i for i, t in enumerate(types)}

    def mask_partial(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        bits = t.column("event_type").to_pandas().map(tmap).to_numpy(dtype=np.int64)
        df = pd.DataFrame({"user_id": uid, "m": np.int64(1) << bits}).drop_duplicates()
        part = df.groupby("user_id", sort=False)["m"].sum().reset_index()
        return pa.Table.from_pandas(part, preserve_index=False)

    def combo_counts(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("user_id", kind="mergesort")
        u = g["user_id"].to_numpy()
        m = g["m"].to_numpy(dtype=np.int64)
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        masks = np.bitwise_or.reduceat(m, starts)
        vals, counts = np.unique(masks, return_counts=True)
        return pd.DataFrame({"mask": vals, "n_users": counts.astype(np.int64)})

    per_bucket = cogroup(
        ds.map_batches(mask_partial, batch_format="pyarrow", zero_copy_batch=True), "user_id", combo_counts
    )
    combos = combine_frame(per_bucket, "mask", {"n_users": ("n_users", "sum")})
    cm = combos["mask"].to_numpy(dtype=np.int64)
    cn = combos["n_users"].to_numpy(dtype=np.int64)

    def exact_with(bits_any: int) -> int:
        return int(cn[(cm & bits_any) != 0].sum())

    def exact_both(ba: int, bb: int) -> int:
        return int(cn[((cm & ba) != 0) & ((cm & bb) != 0)].sum())

    rows = []
    for i, a in enumerate(types):
        for b in types[i + 1 :]:
            va, vb = kmv[a], kmv[b]
            u = np.unique(np.concatenate([va, vb]))[:k]
            union_est = est(u)
            sa, sb = set(va.tolist()), set(vb.tolist())
            both = sum(1 for x in u.tolist() if x in sa and x in sb)
            inter_est = union_est * both / max(len(u), 1)
            ba, bb = 1 << tmap[a], 1 << tmap[b]
            rows.append(
                (a, b, round(est(va), 2), round(est(vb), 2),
                 round(union_est, 2), round(inter_est, 2),
                 exact_with(ba), exact_with(bb),
                 exact_with(ba | bb), exact_both(ba, bb))
            )
    return pd.DataFrame(
        rows,
        columns=[
            "type_a", "type_b", "est_a", "est_b", "est_union", "est_inter",
            "exact_a", "exact_b", "exact_union", "exact_inter",
        ],
    )


def capped_session_windows(sf_dir: str, gap_s: int = 1800, cap_s: int = 14400):
    """Dual-condition sessionization: a session ends on an idle gap
    (> gap_s between consecutive events) OR when it reaches a maximum
    duration (cap_s since the SESSION START — the analytics-grade rule;
    a steady drip of sub-gap events never splits under gap-only
    ``session_windows``, so one 'session' can span days). The cap makes
    the split a data-dependent recurrence (each boundary depends on the
    previous boundary), the throttle/fingerprint category — rows-only,
    brute-force-pinned. In-bucket cost: one searchsorted + one gap-index
    lookup per SESSION, not per row.

    Returns (event_id, session_seq) with session_seq numbering each
    user's sessions from 0 in time order."""
    gap_us = gap_s * 1_000_000
    cap_us = cap_s * 1_000_000
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def sessionize_b(g: pd.DataFrame) -> pd.DataFrame:
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        uid = g["user_id"].to_numpy()
        n = len(g)
        seq = np.zeros(n, dtype=np.int64)
        since = np.zeros(n, dtype=np.int64)
        if n:
            starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
            ends = np.r_[starts[1:], n]
            gap_break = np.flatnonzero(np.r_[False, np.diff(ts) > gap_us])
            for s, e in zip(starts, ends):
                gb = gap_break[(gap_break > s) & (gap_break < e)]
                i, sid, gpos = s, 0, 0
                while i < e:
                    cap_end = s + int(
                        np.searchsorted(ts[s:e], ts[i] + cap_us, side="right")
                    )
                    while gpos < len(gb) and gb[gpos] <= i:
                        gpos += 1
                    gap_end = int(gb[gpos]) if gpos < len(gb) else e
                    nxt = min(cap_end, gap_end, e)
                    seq[i:nxt] = sid
                    since[i:nxt] = ts[i:nxt] - ts[i]
                    i, sid = nxt, sid + 1
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(dtype=np.int64),
                "session_seq": seq,
                # self-audit (VERDICT r4 #6): seconds into the session —
                # the cap invariant (since_start_s <= cap_s) rides in
                # every row the driver sees
                "since_start_s": since // 1_000_000,
            }
        )

    return cogroup(
        ds, "user_id", sessionize_b, sort_by=["user_id", "ts", "event_id"]
    )


def rfm_quartile_segments(sf_dir: str):
    """RFM customer segmentation (the classic CRM scoring): per customer
    Recency (days since their last order, vs the corpus max order date),
    Frequency (order count) and Monetary (lifetime cents), each scored
    1–4 by EXACT quartile thresholds over the customer population.
    Quartiles are the parity-safe q (dyadic — NOTES quantile_disc rule);
    scores are 1 + Σ(v > t_q) so ties sit below the boundary identically
    on both engines; all metrics integer (µs → floor-div days, cents).

    Scale shape: one ``combine`` of the per-order rows per customer (max
    date, count, cents sum; customers never become Ray groups); global
    max date is a scalar reduce; the three quartile thresholds
    come from the r4 generalized distributed selection
    (``_exact_int_quantiles`` — ~3 histogram scans of the CUSTOMER-sized
    metric table, no sort); scoring is a stateless broadcast-threshold
    pass."""
    DAY_US = 86_400_000_000
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"])

    def per_order(t: pa.Table) -> pa.Table:
        us = t.column("o_orderdate").to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        return pa.table(
            {
                "o_custkey": pc.cast(t.column("o_custkey"), pa.int64()),
                "us": pa.array(us),
                "cents": pa.array(_cents(t.column("o_totalprice"))),
            }
        )

    rows = ds.map_batches(per_order, batch_format="pyarrow", zero_copy_batch=True)
    aggs = {"last_us": ("us", "max"), "f_orders": (None, "count"), "m_cents": ("cents", "sum")}
    merged = combine(rows, "o_custkey", aggs).materialize()
    gmax = int(merged.max("last_us") or 0)  # None on no rows

    def add_days(t: pa.Table) -> pa.Table:
        last = t.column("last_us").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "c_custkey": t.column("o_custkey"),
                "r_days": pa.array((gmax - last) // DAY_US),
                "f_orders": t.column("f_orders"),
                "m_cents": t.column("m_cents"),
            }
        )

    metrics = merged.map_batches(
        add_days, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    QS = (0.25, 0.5, 0.75)
    multi = _exact_int_quantiles_multi(
        metrics, {c: QS for c in ("r_days", "f_orders", "m_cents")}
    )
    thr = {col: list(multi.get(col, {}).values()) for col in ("r_days", "f_orders", "m_cents")}

    def score(t: pa.Table) -> pa.Table:
        cols = {"c_custkey": t.column("c_custkey")}
        for col in ("r_days", "f_orders", "m_cents"):
            v = t.column(col).to_numpy(zero_copy_only=False)
            cols[col] = t.column(col)
            s = np.ones(len(v), dtype=np.int64)
            for tq in thr[col]:
                s += (v > tq).astype(np.int64)
            cols[col.split("_")[0][0] + "_score"] = pa.array(s)
        return pa.table(cols)

    return metrics.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


def grouping_sets_counts(sf_dir: str):
    """GROUP BY GROUPING SETS ((status), (priority), ()) WITH a
    GROUPING()-derived id column — the piece ROLLUP/CUBE don't show: an
    ARBITRARY set list, and the grouping id that lets consumers tell a
    rolled-up NULL from a data NULL (gid = GROUPING(status)·2 +
    GROUPING(priority): 1 for the status rows, 2 for priority, 3 for the
    grand total). Same one finest-pass machinery as cube_counts
    (`_status_priority_fine`); levels derive driver-side from exact
    integer-cent sums, one division and ROUND at the end."""
    fine = _status_priority_fine(sf_dir)

    by_s = (
        fine.groupby("o_orderstatus", sort=True)
        .agg(pn=("pn", "sum"), psum=("psum", "sum"))
        .reset_index()
    )
    by_p = (
        fine.groupby("o_orderpriority", sort=True)
        .agg(pn=("pn", "sum"), psum=("psum", "sum"))
        .reset_index()
    )

    def level(status, priority, gid, pn, psum):
        return pd.DataFrame(
            {
                "o_orderstatus": status,
                "o_orderpriority": priority,
                "gid": np.full(len(pn), gid, dtype=np.int64),
                "n": np.asarray(pn, dtype=np.int64),
                "_sum": np.asarray(psum, dtype=np.float64),
            }
        )

    out = pd.concat(
        [
            level(by_s["o_orderstatus"].to_numpy(), None, 1, by_s["pn"], by_s["psum"]),
            level(None, by_p["o_orderpriority"].to_numpy(), 2, by_p["pn"], by_p["psum"]),
            level([None], [None], 3, [int(fine["pn"].sum())], [int(by_s["psum"].sum())]),
        ],
        ignore_index=True,
    )
    out["sum_price"] = np.round(out.pop("_sum").to_numpy(dtype=np.float64) / 100.0, 2)
    return out


def chi2_cell_residuals(sf_dir: str):
    """Chi-square POST-HOC cell analysis (the step after
    ``chi2_independence`` says "dependent": WHICH cells drive it):
    per (status, priority) cell the observed count, expected count under
    independence and the Pearson standardized residual (o − e)/√e.
    Everything is IEEE-bit-identical across engines with no rounding
    tricks needed until the final 6dp: counts are ints, e = (row·col)/n
    is one exact-int product (< 2⁵³) and one double division, √ is
    correctly rounded — the same-expression rule.

    Scale shape: the shared cube-family finest pass
    (`_status_priority_fine`) — one partial-agg scan; the |s|×|p| cell
    table finishes driver-side."""
    fine = _status_priority_fine(sf_dir)
    o = fine["pn"].to_numpy(dtype=np.int64)
    s = fine["o_orderstatus"].to_numpy()
    p = fine["o_orderpriority"].to_numpy()
    row = fine.groupby("o_orderstatus")["pn"].transform("sum").to_numpy(dtype=np.int64)
    col = fine.groupby("o_orderpriority")["pn"].transform("sum").to_numpy(dtype=np.int64)
    n = int(o.sum())
    e = (row * col).astype(np.float64) / float(n)
    resid = (o.astype(np.float64) - e) / np.sqrt(e)
    return pd.DataFrame(
        {
            "o_orderstatus": s,
            "o_orderpriority": p,
            "observed": o,
            # expected is a ratio of integers — can land an exact 6dp .5
            # tie, so round half-away (CLAUDE.md rule); the residual has a
            # √ factor, so ties are unrealizable and np.round is safe
            "expected_r": np.floor(e * 1e6 + 0.5) / 1e6,
            "residual_r": np.round(resid, 6),
        }
    )


def clv_by_segment(sf_dir: str):
    """Customer-lifetime-value rollup per market segment — the CRM view on
    top of the RFM per-customer metric build (NOTES r4: share that build
    with a lifetime family): per customer, order count / lifetime cents /
    tenure days from ONE orders scan of per-batch partials; the customer
    dim co-groups on the SAME custkey bucket (``cogroup``, the
    left_join_null_fill layout), and a tiny per-segment rollup finishes.

    Oracle safety: every per-customer metric stays INTEGER (cents via
    half-away floor, tenure via epoch-µs floor-div — orderdates are
    midnight-aligned so DuckDB date_diff('day') agrees); the three
    averages are one int-sum / int-count division each, identical
    operation order to the SQL (IEEE division is correctly rounded, so
    the doubles are bit-equal).

    Scale shape: customers never become Ray groups (bucket merge); only
    |segments| partial rows per bucket reach the driver."""
    DAY_US = 86_400_000_000
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def fact_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "key": t.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64),
                "us": t.column("o_orderdate")
                .to_numpy(zero_copy_only=False)
                .astype("datetime64[us]")
                .astype(np.int64),
                "cents": _cents(t.column("o_totalprice")),
            }
        )
        g = df.groupby("key", sort=False).agg(
            first_us=("us", "min"),
            last_us=("us", "max"),
            n_orders=("key", "size"),
            cents=("cents", "sum"),
        )
        return pa.table(
            {
                "key": pa.array(g.index.to_numpy(dtype=np.int64)),
                "first_us": pa.array(g["first_us"].to_numpy(dtype=np.int64)),
                "last_us": pa.array(g["last_us"].to_numpy(dtype=np.int64)),
                "n_orders": pa.array(g["n_orders"].to_numpy(dtype=np.int64)),
                "cents": pa.array(g["cents"].to_numpy(dtype=np.int64)),
            }
        )

    def seg_partial(facts: pd.DataFrame, cust: pd.DataFrame) -> pd.DataFrame:
        m = facts.groupby("key", sort=False).agg(
            first_us=("first_us", "min"),
            last_us=("last_us", "max"),
            n_orders=("n_orders", "sum"),
            cents=("cents", "sum"),
        )
        dim = cust.rename(columns={"c_mktsegment": "seg"}).drop_duplicates("key").set_index("key")
        j = dim.join(m, how="inner")  # customers WITH orders, like the SQL join
        if j.empty:
            return pd.DataFrame(
                {
                    "seg": pd.Series([], dtype=object),
                    "n_customers": pd.Series([], dtype="int64"),
                    "sum_orders": pd.Series([], dtype="int64"),
                    "sum_cents": pd.Series([], dtype="int64"),
                    "sum_tenure": pd.Series([], dtype="int64"),
                }
            )
        j["tenure_days"] = (j["last_us"] - j["first_us"]) // DAY_US
        s = j.groupby("seg", sort=False).agg(
            n_customers=("seg", "size"),
            sum_orders=("n_orders", "sum"),
            sum_cents=("cents", "sum"),
            sum_tenure=("tenure_days", "sum"),
        )
        return s.reset_index()

    facts = orders.map_batches(fact_partial, batch_format="pyarrow", zero_copy_batch=True)
    parts = cogroup([facts, cust.rename_columns({"c_custkey": "key"})], "key", seg_partial)
    sums = {c: (c, "sum") for c in ("n_customers", "sum_orders", "sum_cents", "sum_tenure")}
    s = combine_frame(parts, "seg", sums)
    # integer/integer ratios can land on binary-exact .5e-4 ties where
    # np.round (banker's) diverges from DuckDB ROUND (half-away) — the
    # repetition_signals rule (NOTES r3): round half-away explicitly.
    def r4away(x):
        return np.floor(x * 1e4 + 0.5) / 1e4

    out = pd.DataFrame(
        {
            "c_mktsegment": s["seg"],
            "n_customers": s["n_customers"],
            "avg_orders": r4away(s["sum_orders"] / s["n_customers"]),
            "avg_lifetime_value": r4away(s["sum_cents"] / s["n_customers"] / 100.0),
            "avg_tenure_days": r4away(s["sum_tenure"] / s["n_customers"]),
        }
    ).sort_values("c_mktsegment")
    return out.reset_index(drop=True)


def type_token_ratio(sf_dir: str):
    """Per-document type-token ratio (lexical diversity — the quality
    signal next to repetition/compression ratios in the curation stack):
    distinct tokens / total tokens per document. Integer/integer ratio ⇒
    rounded HALF-AWAY (``np.floor(x·1e6+0.5)/1e6``) to match DuckDB ROUND
    on binary-exact ties (NOTES r3 banker's-rounding rule). Pure stateless
    batch transform — no shuffle at all; the distinct count per doc is
    bounded by doc length (batch-local work, the extraction-stage class)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def ttr(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        toks = t.column("text").to_pandas().str.split(" ")
        n_tok = toks.str.len().to_numpy(dtype=np.int64)
        n_dis = np.fromiter((len(set(x)) for x in toks), np.int64, len(toks))
        r = np.floor(n_dis / n_tok * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "n_tokens": pa.array(n_tok),
                "n_distinct": pa.array(n_dis),
                "ttr": pa.array(r),
            }
        )

    return ds.map_batches(ttr, batch_format="pyarrow", zero_copy_batch=True)


def interevent_gap_histogram(sf_dir: str):
    """Heavy-tail diagnostic for event streams: per event TYPE, a
    log-scale histogram of the gap (seconds) since the same user's
    previous event, bucketed by the gap's DECIMAL DIGIT COUNT. Integer-
    exact log binning: LOG/LN are only faithfully rounded and banned from
    the oracle path (NOTES float rule) — digit count is a pure integer
    compare (searchsorted over powers of ten) on the Ray side and
    ``length(CAST(gap AS VARCHAR))`` in SQL. Gap seconds use DuckDB
    ``date_diff('second')`` semantics: BOUNDARY CROSSINGS,
    ``floor(epoch(b)) − floor(epoch(a))`` (the interval_islands trap —
    events carry µs fractions).

    Scale shape: the per-user LAG runs in the bucketed-window family
    (``cogroup``); per-bucket (type, digits) pre-counts shrink
    ``combine``'s merge to ≤ |types|·19 rows per bucket."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    pow10 = 10 ** np.arange(1, 19, dtype=np.int64)

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        ts_s = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64) // 1_000_000
        uid = g["user_id"].to_numpy()
        same = np.r_[False, uid[1:] == uid[:-1]]
        gap_s = np.r_[np.int64(0), ts_s[1:] - ts_s[:-1]][same]
        et = g["event_type"].to_numpy()[same]
        digits = np.searchsorted(pow10, gap_s, side="right") + 1
        d = pd.DataFrame({"event_type": et, "gap_digits": digits})
        return (
            d.groupby(["event_type", "gap_digits"], sort=False)
            .size()
            .reset_index(name="n")
        )

    parts = cogroup(ds, "user_id", gaps, sort_by=["user_id", "ts", "event_id"])
    return combine_frame(parts, ["event_type", "gap_digits"], {"n": ("n", "sum")})


def vocab_oov_rate(sf_dir: str, k_vocab: int = 20):
    """Per-document out-of-vocabulary rate against the corpus's own top-K
    token vocabulary — the tokenizer-coverage signal a training pipeline
    checks before committing to a vocab. Two passes:

    1. exact global token counts WITHOUT shuffling token instances:
       per-batch value_counts partials → token-hash bucket merge → each
       bucket emits only its local top-K (a token lives in one bucket, so
       the global top-K is a subset of the union of bucket top-Ks) →
       driver picks the global K by (count DESC, token ASC) — ties at the
       boundary resolve identically in SQL;
    2. broadcast the K-token set (``ray.put``) and compute each doc's OOV
       fraction in a stateless pass. Integer ratio ⇒ half-away rounding
       (NOTES r3 rule)."""
    import ray
    import ray.data as rd

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def count_partial(t: pa.Table) -> pa.Table:
        toks = t.column("text").to_pandas().str.split(" ")
        if len(toks):
            vc = pd.Series(np.concatenate(toks.to_numpy())).value_counts()
            tok = vc.index.to_numpy(dtype=object)
            n = vc.to_numpy(dtype=np.int64)
        else:
            tok = np.array([], dtype=object)
            n = np.array([], dtype=np.int64)
        return pa.table(
            {
                "token": pa.array(tok, pa.string()),
                "n": pa.array(n),
            }
        )

    def bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("token", sort=False)["n"].sum().reset_index()
        m = m.sort_values(["n", "token"], ascending=[False, True], kind="mergesort")
        return m.head(k_vocab)

    cand = (
        cogroup(ds.map_batches(count_partial, batch_format="pyarrow", zero_copy_batch=True), "token", bucket_topk)
        .to_pandas()
        .reindex(columns=["token", "n"])  # a result with no rows converts without columns
        .sort_values(["n", "token"], ascending=[False, True], kind="mergesort")
        .head(k_vocab)
    )
    vocab_ref = ray.put(frozenset(cand["token"].tolist()))

    def oov(t: pa.Table) -> pa.Table:
        vocab = ray.get(vocab_ref)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        toks = t.column("text").to_pandas().str.split(" ")
        n_tok = toks.str.len().to_numpy(dtype=np.int64)
        n_oov = np.fromiter(
            (sum(1 for w in x if w not in vocab) for x in toks), np.int64, len(toks)
        )
        r = np.floor(n_oov / n_tok * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "n_tokens": pa.array(n_tok),
                "n_oov": pa.array(n_oov),
                "oov_rate": pa.array(r),
            }
        )

    if cand.empty:  # no documents, so ``oov`` would never run: type the empty result here
        return rd.from_arrow(oov(pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})))
    return ds.map_batches(oov, batch_format="pyarrow", zero_copy_batch=True)


def median_gap_by_type(sf_dir: str):
    """Exact median inter-event gap (seconds) per event type — the latency/
    cadence summary on top of the LAG family. The huge-group trap is
    avoided by aggregating COUNTS PER DISTINCT INTEGER GAP VALUE instead
    of shipping gap rows into one group per type: the grid is bounded by
    the VALUE RANGE (seconds inside the retention window), never the
    corpus size (the histogram_orders_cents pattern), so the driver
    receives |types| × |distinct gaps| count rows and closes the median
    from cumulative counts. Median semantics = DuckDB ``median`` /
    quantile_cont(0.5): even count averages the two middle values — gaps
    are integers, so the midpoint is .0/.5 dyadic-exact."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def gap_counts(g: pd.DataFrame) -> pd.DataFrame:
        ts_s = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64) // 1_000_000
        uid = g["user_id"].to_numpy()
        same = np.r_[False, uid[1:] == uid[:-1]]
        gap_s = np.r_[np.int64(0), ts_s[1:] - ts_s[:-1]][same]
        et = g["event_type"].to_numpy()[same]
        d = pd.DataFrame({"event_type": et, "gap_s": gap_s})
        return (
            d.groupby(["event_type", "gap_s"], sort=False)
            .size()
            .reset_index(name="n")
        )

    parts = cogroup(ds, "user_id", gap_counts, sort_by=["user_id", "ts", "event_id"])
    merged = combine_frame(parts, ["event_type", "gap_s"], {"n": ("n", "sum")})
    rows = []
    for et, g in merged.groupby("event_type", sort=True):
        g = g.sort_values("gap_s")
        vals = g["gap_s"].to_numpy(dtype=np.int64)
        cnt = g["n"].to_numpy(dtype=np.int64)
        cum = np.cumsum(cnt)
        n = int(cum[-1])
        if n % 2:
            med = float(vals[int(np.searchsorted(cum, (n + 1) // 2))])
        else:
            a = vals[int(np.searchsorted(cum, n // 2))]
            b = vals[int(np.searchsorted(cum, n // 2 + 1))]
            med = (float(a) + float(b)) / 2.0
        rows.append({"event_type": et, "median_gap_s": med, "n_gaps": n})
    out = pd.DataFrame(rows, columns=["event_type", "median_gap_s", "n_gaps"])
    return out.astype({"median_gap_s": np.float64, "n_gaps": np.int64})


def _cents_per_customer(sf_dir: str):
    """(ck, cents): each customer's lifetime order total in integer cents
    (exact BIGINT sums), summed by ``combine`` and materialized."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {"ck": pc.cast(t.column("o_custkey"), pa.int64()), "cents": pa.array(_cents(t.column("o_totalprice")))}
        )

    rows = orders.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True)
    return combine(rows, "ck", {"cents": ("cents", "sum")}).materialize()


def revenue_pareto_share(sf_dir: str):
    """Pareto concentration of revenue: what fraction of total order
    revenue comes from the TOP QUARTILE customers (per-customer lifetime
    cents strictly above the exact quantile_disc(0.75) threshold —
    strict-above makes ties resolve identically in SQL). q = 0.75 is
    dyadic, so ``ceil(q·n)`` cannot drift between the float and exact
    rationals (the NOTES quantile-literal rule; 0.8's nearest double sits
    ABOVE the exact value and is NOT oracle-safe).

    Scale shape: one orders scan summed per customer by ``combine``
    (materialized: reused by the threshold selection AND the final
    rollup); the threshold is the r4 distributed selection
    (~3 histogram scans); the rollup is per-batch integer partials summed
    on the driver. Integer cents end-to-end; the one share division is a
    single int/int ratio rounded half-away."""
    percust = _cents_per_customer(sf_dir)
    thr = _exact_int_quantiles(percust, "cents", (0.75,))
    t75 = int(thr[0.75])

    def rollup(t: pa.Table) -> pa.Table:
        c = t.column("cents").to_numpy(zero_copy_only=False)
        top = c > t75
        return pa.table(
            {
                "n_customers": pa.array([len(c)], pa.int64()),
                "n_top": pa.array([int(top.sum())], pa.int64()),
                "cents_all": pa.array([int(c.sum())], pa.int64()),
                "cents_top": pa.array([int(c[top].sum())], pa.int64()),
            }
        )

    s = (
        percust.map_batches(rollup, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .sum()
    )
    share = np.floor(int(s["cents_top"]) / int(s["cents_all"]) * 1e6 + 0.5) / 1e6
    return pd.DataFrame(
        {
            "n_customers": [np.int64(s["n_customers"])],
            "n_top": [np.int64(s["n_top"])],
            "threshold": [float(t75) / 100.0],
            "top_revenue_share": [share],
        }
    )


def weekday_seasonality(sf_dir: str):
    """Order seasonality: count and revenue per (weekday, order priority) —
    the demand-curve rollup every ops dashboard starts from. Weekday is
    computed INTEGER-exact on both sides (DuckDB ``dayofweek``: Sunday=0;
    numpy: ``(epoch_days + 4) % 7`` — 1970-01-01 was a Thursday=4), never
    via locale-dependent strftime names. Bounded-grid aggregate (7 ×
    |priorities| cells) merged by ``combine``."""
    DAY_US = 86_400_000_000
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_orderpriority", "o_totalprice"])

    def weekday_cents(t: pa.Table) -> pa.Table:
        us = (
            t.column("o_orderdate")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        wd = (us // DAY_US + 4) % 7
        cents = _cents(t.column("o_totalprice"))
        return pa.table(
            {"weekday": pa.array(wd), "o_orderpriority": t.column("o_orderpriority"), "cents": pa.array(cents)}
        )

    parts = combine_frame(
        ds.map_batches(weekday_cents, batch_format="pyarrow", zero_copy_batch=True),
        ["weekday", "o_orderpriority"],
        {"n_orders": (None, "count"), "cents": ("cents", "sum")},
    )
    out = pd.DataFrame(
        {
            "weekday": parts["weekday"],
            "o_orderpriority": parts["o_orderpriority"],
            "n_orders": parts["n_orders"],
            "revenue": parts["cents"].to_numpy() / 100.0,
        }
    ).sort_values(["weekday", "o_orderpriority"])
    return out.reset_index(drop=True)


def null_profile(sf_dir: str):
    """Data-quality profile of the documents table: per column, row count,
    null count and (for strings) empty-string count — the first pass any
    ingestion pipeline runs on a new drop. One scan, per-batch integer
    partials over a |columns|-bounded grid summed by ``combine``. Exact by
    construction (pure integer counts)."""
    cols = ["doc_id", "text", "lang", "source", "n_chars"]
    ds = _read(sf_dir, "documents", cols)

    def partial(t: pa.Table) -> pa.Table:
        names, n_null, n_blank = [], [], []
        for c in cols:
            col = t.column(c)
            names.append(c)
            n_null.append(col.null_count)
            if pa.types.is_string(col.type):
                n_blank.append(
                    int(pc.sum(pc.equal(col, "")).as_py() or 0)
                )
            else:
                n_blank.append(0)
        return pa.table(
            {
                "column": pa.array(names, pa.string()),
                "n_rows": pa.array([t.num_rows] * len(cols), pa.int64()),
                "n_null": pa.array(np.asarray(n_null, dtype=np.int64)),
                "n_blank": pa.array(np.asarray(n_blank, dtype=np.int64)),
            }
        )

    return combine_frame(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "column",
        {c: (c, "sum") for c in ("n_rows", "n_null", "n_blank")},
    )


def gini_revenue_index(sf_dir: str):
    """Gini concentration index of per-customer lifetime revenue — the
    inequality scalar next to the Pareto share in any corpus/market
    concentration audit. Needs the GLOBAL rank of every customer's revenue
    (``G = (2·Σ i·x_(i) − (n+1)·Σx) / (n·Σx)``, x ascending), computed
    WITHOUT a global sort via ``buckets.ranges`` on (cents, custkey):
    each range reduces to THREE integer scalars (Σ local_rank·x, Σx, n)
    plus the row count of the ranges before it — ranks never materialize
    per row and the final reduce is one row per range on the driver.

    Tie-safe by construction: whatever the tie-break, Σ rank·x over
    a tie block is invariant to intra-block order. Integer cents end to
    end; the single int/int ratio rounds half-away (CLAUDE.md rule).
    Reference shape: dataextractai's category-concentration rollups
    (grading parity target is the SQL window oracle)."""
    percust = _cents_per_customer(sf_dir)

    def ranksum(g: pd.DataFrame, before: dict) -> pd.DataFrame:
        x = g["cents"].to_numpy(dtype=np.int64)
        local = np.arange(1, len(x) + 1, dtype=np.int64)
        return pd.DataFrame(
            {
                "off": [np.int64(before["rows"])],
                "s1_local": [np.int64((local * x).sum())],
                "sx": [np.int64(x.sum())],
                "m": [np.int64(len(x))],
            }
        )

    red = ranges(percust, ["cents", "ck"], ranksum).to_pandas()
    n = int(red["m"].sum())
    s0 = int(red["sx"].sum())
    # global Σ rank·x = Σ_b (offset_b·Σx_b + Σ local·x) — exact Python ints
    # over one driver row per range (numpy int64 would silently wrap first
    # at scale)
    s1 = sum(int(s1l) + int(off) * int(sx) for off, s1l, sx in zip(red["off"], red["s1_local"], red["sx"]))
    num = 2 * s1 - (n + 1) * s0
    den = n * s0
    # no customers: SQL's SUM and the ratio are NULL
    gini = np.floor(float(num) / float(den) * 1e6 + 0.5) / 1e6 if den else np.nan
    return pd.DataFrame(
        {
            "n_customers": [np.int64(n)],
            "total_revenue": [float(s0) / 100.0 if n else np.nan],
            "gini": [gini],
        }
    )


def activity_streaks(sf_dir: str):
    """Longest consecutive-DAY activity streak per user (plus active-day and
    streak counts) — the retention "streak" metric, i.e. gaps-and-islands
    over DISTINCT calendar days rather than interval_islands' µs interval
    union. Day = UTC epoch-day (int µs // 86400e6 ≡ DuckDB
    ``date_diff('day', DATE '1970-01-01', CAST(ts AS DATE))`` for
    non-negative timestamps).

    Scale shape: per-batch distinct (user, day) on a PACKED int64
    (user·2²⁰ + day — shrinks the shuffle to unique rows before it happens,
    NOTES int64-key rule), then the bucketed-window family: user-hash
    buckets, in-bucket re-dedup + vectorized run detection (rank-delta
    trick: consecutive days share ``day − cumcount``), per-user rollup
    finishes in-bucket so output is user-sized with no second shuffle."""
    DAY_US = 86_400_000_000
    PACK = np.int64(1) << np.int64(20)  # day < 2^20 until year ~4840
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def day_partial(t: pa.Table) -> pa.Table:
        u = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        d = (
            t.column("ts").to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
            // DAY_US
        )
        pk = np.unique(u * PACK + d)
        return pa.table({"user_id": pa.array(pk // PACK), "day": pa.array(pk % PACK)})

    dd = ds.map_batches(day_partial, batch_format="pyarrow", zero_copy_batch=True)

    def streaks_b(g: pd.DataFrame) -> pd.DataFrame:
        pk = np.unique(
            g["user_id"].to_numpy(dtype=np.int64) * PACK + g["day"].to_numpy(dtype=np.int64)
        )
        u, d = pk // PACK, pk % PACK
        m = len(u)
        if m == 0:
            return pd.DataFrame(
                {
                    "user_id": np.empty(0, np.int64),
                    "n_active_days": np.empty(0, np.int64),
                    "longest_streak": np.empty(0, np.int64),
                    "n_streaks": np.empty(0, np.int64),
                }
            )
        new_user = np.r_[True, u[1:] != u[:-1]]
        new_streak = new_user | np.r_[True, (d[1:] - d[:-1]) != 1]
        sid = np.cumsum(new_streak) - 1
        slen = np.bincount(sid)  # streak lengths, in streak order
        s_user = u[new_streak]  # owning user per streak
        df = pd.DataFrame({"u": s_user, "len": slen})
        out = df.groupby("u", sort=False)["len"].agg(
            n_active_days="sum", longest_streak="max", n_streaks="size"
        )
        return pd.DataFrame(
            {
                "user_id": out.index.to_numpy(dtype=np.int64),
                "n_active_days": out["n_active_days"].to_numpy(dtype=np.int64),
                "longest_streak": out["longest_streak"].to_numpy(dtype=np.int64),
                "n_streaks": out["n_streaks"].to_numpy(dtype=np.int64),
            }
        )

    return cogroup(dd, "user_id", streaks_b, sort_by=["user_id", "day"])


def market_share_by_year(sf_dir: str, nation: str = "NATION_3"):
    """TPC-H Q8-shape market share: the target nation's suppliers' share of
    total lineitem revenue per ORDER year. Revenue is INTEGER-exact —
    ``rev_e6 = cents(extendedprice) · (10000 − bp(discount))`` (price·1e6
    units) — so the all-nation and target sums are exact BIGINTs on both
    engines and the one share division per year rounds half-away
    (CLAUDE.md int-ratio rule); a float ``ep·(1−disc)`` SUM would be
    summation-order-dependent and off the oracle path.

    Scale shape: supplier⋈nation collapses DRIVER-side to a suppkey key
    set (dimension tables; broadcast once via ``ray.put``, the
    semi_join_keys layout). The big join lineitem⋈orders is ONE
    orderkey-hash bucket co-group (shuffle_join_detail layout) and each
    bucket emits ≤ |years| integer partial rows, so ``combine``'s merge is
    grid-sized. Order year is integer epoch arithmetic on both sides."""
    import ray

    import pyarrow.parquet as pq

    sup = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    nk = nat.filter(pc.equal(nat.column("n_name"), nation)).column("n_nationkey")
    tgt = sup.filter(pc.is_in(sup.column("s_nationkey"), value_set=nk)).column("s_suppkey")
    tgt_ref = ray.put(tgt.to_numpy(zero_copy_only=False).astype(np.int64))

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])

    def order_rows(t: pa.Table) -> pa.Table:
        k = t.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        yr = (
            t.column("o_orderdate")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[Y]")
            .astype(np.int64)
            + 1970
        )
        return pa.table({"key": pa.array(k), "o_year": pa.array(yr)})

    def li_rows(t: pa.Table) -> pa.Table:
        keys = ray.get(tgt_ref)
        k = t.column("l_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        cents = _cents(t.column("l_extendedprice"))
        bp = np.floor(
            t.column("l_discount").to_numpy(zero_copy_only=False) * 10000.0 + 0.5
        ).astype(np.int64)
        rev = cents * (10000 - bp)
        is_t = np.isin(
            t.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64), keys
        ).astype(np.int64)
        return pa.table({"key": pa.array(k), "rev_e6": pa.array(rev), "tgt": pa.array(is_t)})

    def join_bucket(o: pd.DataFrame, f: pd.DataFrame) -> pd.DataFrame:
        j = f.merge(o, on="key", how="inner")
        if not len(j):
            return pd.DataFrame(
                {
                    "o_year": np.empty(0, np.int64),
                    "rev_all": np.empty(0, np.int64),
                    "rev_tgt": np.empty(0, np.int64),
                }
            )
        j["rev_tgt_e6"] = j["rev_e6"] * j["tgt"]
        a = j.groupby("o_year", sort=False).agg(
            rev_all=("rev_e6", "sum"), rev_tgt=("rev_tgt_e6", "sum")
        )
        return pd.DataFrame(
            {
                "o_year": a.index.to_numpy(dtype=np.int64),
                "rev_all": a["rev_all"].to_numpy(dtype=np.int64),
                "rev_tgt": a["rev_tgt"].to_numpy(dtype=np.int64),
            }
        )

    sides = [
        orders.map_batches(order_rows, batch_format="pyarrow", zero_copy_batch=True),
        li.map_batches(li_rows, batch_format="pyarrow", zero_copy_batch=True),
    ]
    parts = cogroup(sides, "key", join_bucket)
    a = combine_frame(parts, "o_year", {"rev_all": ("rev_all", "sum"), "rev_tgt": ("rev_tgt", "sum")})
    share = np.floor(
        a["rev_tgt"].to_numpy(dtype=np.float64) / a["rev_all"].to_numpy(dtype=np.float64) * 1e6
        + 0.5
    ) / 1e6
    return pd.DataFrame(
        {
            "o_year": a["o_year"],
            "revenue_e6": a["rev_all"],
            "target_revenue_e6": a["rev_tgt"],
            "market_share": share,
        }
    )


def syllable_stats_by_source(sf_dir: str):
    """Readability signals per corpus source: word, vowel-group-"syllable"
    and MONOSYLLABIC-word counts plus the FORCAST readability grade
    (``20 − 15·mono/words`` — the one classic formula needing no sentence
    segmentation, which this corpus lacks). Counts are pure integers; the
    grade is the identical three-op float expression on both engines from
    identical BIGINT sums (same-expression IEEE parity, the chi2-residuals
    rule) so no rounding is needed.

    Scale shape: one documents scan; per-batch kernel is numpy byte-view
    arithmetic over the Arrow data buffer (word boundaries = row starts ∪
    space positions; vowel-group starts = vowel ∧ ¬previous-vowel with row
    starts forced; groups-per-word via two searchsorteds — zero per-row
    Python, the word_chunk_arrays discipline; byte-level counting is
    UTF-8-safe because ASCII bytes never occur inside multibyte
    sequences). Per-document counts summed per source by ``combine``."""
    from ..functions.hashing import _string_buffer_view

    ds = _read(sf_dir, "documents", ["source", "text"])
    VOWELS = np.frombuffer(b"aeiouAEIOU", dtype=np.uint8)

    def counts(t: pa.Table) -> pa.Table:
        flat, starts, lens = _string_buffer_view(t.column("text"))
        n = len(starts)
        ends = starts + lens
        sp = np.flatnonzero(flat == 0x20).astype(np.int64)
        sp_lo = np.searchsorted(sp, starts)
        sp_hi = np.searchsorted(sp, ends)
        n_words = (sp_hi - sp_lo) + 1  # string_split(' ') semantics: spaces+1
        v = np.isin(flat, VOWELS)
        if len(v):
            prev = np.empty_like(v)
            prev[0] = False
            prev[1:] = v[:-1]
            prev[starts[starts < len(prev)]] = False  # groups never span rows
            gpos = np.flatnonzero(v & ~prev).astype(np.int64)
        else:
            gpos = np.empty(0, np.int64)
        n_syll = np.searchsorted(gpos, ends) - np.searchsorted(gpos, starts)
        # word boundaries: starts ∪ (space+1) begin words; spaces ∪ ends end
        # them — both sorted merges align elementwise (equal counts per row)
        wstart = np.sort(np.concatenate([starts, sp + 1]))
        wend = np.sort(np.concatenate([sp, ends]))
        gpw = np.searchsorted(gpos, wend) - np.searchsorted(gpos, wstart)
        row_of_word = np.repeat(np.arange(n, dtype=np.int64), n_words)
        n_mono = np.bincount(row_of_word[gpw == 1], minlength=n).astype(np.int64)
        return pa.table(
            {
                "source": t.column("source"),
                "n_words": pa.array(n_words.astype(np.int64)),
                "n_syllables": pa.array(n_syll.astype(np.int64)),
                "n_mono": pa.array(n_mono),
            }
        )

    parts = combine_frame(
        ds.map_batches(counts, batch_format="pyarrow", zero_copy_batch=True),
        "source",
        {"n_docs": (None, "count"), **{c: (c, "sum") for c in ("n_words", "n_syllables", "n_mono")}},
    )
    parts["forcast_grade"] = 20.0 - 15.0 * (
        parts["n_mono"].to_numpy(dtype=np.float64) / parts["n_words"].to_numpy(dtype=np.float64)
    )
    return parts.reset_index(drop=True)


def customer_order_distribution(sf_dir: str):
    """TPC-H Q13-shape customer distribution: how many customers placed
    exactly k orders, INCLUDING the zero-order customers the left join
    exists for. The classic "engagement histogram" every CRM rollup needs.

    Scale shape: the orders fact never joins customer row-for-row — one
    ``combine`` counts orders per custkey and a second counts customers
    per COUNT VALUE (a grid bounded by max orders/customer, ~25 here,
    never corpus size). The zero bucket is pure arithmetic:
    ``count(customer) − |distinct custkeys in orders|`` — two distributed
    scalars, so the customer dimension is scanned for a count only and no
    anti-join materializes. All integers end to end."""
    orders = _read(sf_dir, "orders", ["o_custkey"])
    n_customers = _read(sf_dir, "customer", ["c_custkey"]).count()
    percust = combine(orders, "o_custkey", {"c_count": (None, "count")})
    parts = combine_frame(percust, "c_count", {"n_customers": (None, "count")})
    n_with_orders = int(parts["n_customers"].sum())
    zero = n_customers - n_with_orders
    if zero > 0:
        parts = pd.concat(
            [pd.DataFrame({"c_count": [0], "n_customers": [zero]}), parts], ignore_index=True
        )
    for c in ("c_count", "n_customers"):
        parts[c] = parts[c].astype(np.int64)
    return parts.reset_index(drop=True)


def promo_revenue_by_type(sf_dir: str):
    """TPC-H Q14 generalized: discounted revenue and share of total per part
    TYPE (the PROMO row is Q14's numerator). Revenue is the integer-exact
    ``rev_e6 = cents(extendedprice)·(10000 − bp(discount))`` algebra so both
    engines sum BIGINTs; one int/int division per type rounds half-away.

    Scale shape: part is a DIMENSION — its (partkey → type-code) map is
    built driver-side and broadcast ONCE via ``ray.put`` (sorted-key
    searchsorted lookup, no per-batch reshipping); the lineitem fact is one
    scan emitting |types|-grid integer partials per batch (``np.add.at``
    into an int64 grid — bincount's float weights would lose exactness past
    2^53), so nothing corpus-sized ever shuffles. ``combine`` merges
    |types| rows per batch."""
    import ray

    import pyarrow.parquet as pq

    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"])
    pk = part.column("p_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
    types = part.column("p_type").to_pandas()
    cat = pd.Categorical(types)
    order = np.argsort(pk, kind="stable")
    lut_ref = ray.put((pk[order], cat.codes.astype(np.int64)[order]))
    names = list(cat.categories)
    K = len(names)

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])

    def grid_partial(t: pa.Table) -> pa.Table:
        keys, codes = ray.get(lut_ref)
        k = t.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        cents = _cents(t.column("l_extendedprice"))
        bp = np.floor(
            t.column("l_discount").to_numpy(zero_copy_only=False) * 10000.0 + 0.5
        ).astype(np.int64)
        rev = cents * (10000 - bp)
        code = codes[np.searchsorted(keys, k)]
        g = np.zeros(K, dtype=np.int64)
        np.add.at(g, code, rev)
        n = np.bincount(code, minlength=K).astype(np.int64)
        return pa.table(
            {
                "_code": pa.array(np.arange(K, dtype=np.int64)),
                "revenue_e6": pa.array(g),
                "n_items": pa.array(n),
            }
        )

    parts = combine_frame(
        li.map_batches(grid_partial, batch_format="pyarrow", zero_copy_batch=True),
        "_code",
        {"revenue_e6": ("revenue_e6", "sum"), "n_items": ("n_items", "sum")},
    )
    total = int(parts["revenue_e6"].sum())
    share = np.floor(
        parts["revenue_e6"].to_numpy(dtype=np.float64) / float(total) * 1e6 + 0.5
    ) / 1e6
    out = pd.DataFrame(
        {
            "p_type": [names[int(c)] for c in parts["_code"]],
            "revenue_e6": parts["revenue_e6"],
            "n_items": parts["n_items"],
            "revenue_share": share,
        }
    )
    return out.sort_values("p_type").reset_index(drop=True)


def dau_engagement_by_month(sf_dir: str):
    """Monthly engagement: distinct user-days (Σ DAU over the month), MAU,
    and average active days per user — the DAU/MAU "stickiness" family with
    the ratio expressed oracle-safely (user_days/mau is one int/int
    division, rounded half-away; a per-day AVG would re-order float sums).

    Scale shape: three ``combine`` calls — the distinct (user, day) pairs
    (each carries its month), the active days per (user, month), then the
    user-days sum and the user count per month. Month index is integer
    epoch arithmetic (datetime64[M]) matching ``year(ts)·100 +
    month(ts)``."""
    DAY_US = 86_400_000_000
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def day_rows(t: pa.Table) -> pa.Table:
        d = t.column("ts").to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64) // DAY_US
        m = d.astype("datetime64[D]").astype("datetime64[M]").astype(np.int64)
        ym = (1970 + m // 12) * 100 + (m % 12 + 1)
        return pa.table({"user_id": pc.cast(t.column("user_id"), pa.int64()), "day": d, "ym": ym})

    rows = ds.map_batches(day_rows, batch_format="pyarrow", zero_copy_batch=True)
    days = combine(rows, ["user_id", "day", "ym"], {})
    per_user = combine(days, ["user_id", "ym"], {"days": (None, "count")})
    out = combine_frame(per_user, "ym", {"n_user_days": ("days", "sum"), "mau": (None, "count")})
    out["avg_active_days"] = np.floor(
        out["n_user_days"].to_numpy(dtype=np.float64)
        / out["mau"].to_numpy(dtype=np.float64)
        * 1e6
        + 0.5
    ) / 1e6
    return out


def unshipped_backlog_by_priority(sf_dir: str):
    """TPC-H Q4-flavored backlog snapshot: orders placed by the cutoff whose
    lineitems are still unshipped after it — open-order count, pending item
    count and pending discounted revenue per order priority. The COUNT
    DISTINCT rides the join: the distinct column is the co-group key, and
    an orderkey lives in exactly ONE hash bucket, so per-bucket
    distinct-order counts SUM exactly across buckets.

    Scale shape: both fact scans filter per batch on integer epoch-µs
    BEFORE anything shuffles (predicate-first discipline), then one
    orderkey-hash ``cogroup`` (``market_share_by_year`` layout) emits ≤|priorities| integer grid rows per bucket. Revenue is
    the integer-exact rev_e6 algebra; everything BIGINT so ``combine``'s
    merge is pure integer sums."""
    CUTOFF_US = np.datetime64("1998-07-01", "us").astype(np.int64)
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"])

    def order_rows(t: pa.Table) -> pa.Table:
        d = (
            t.column("o_orderdate")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        m = d <= CUTOFF_US
        k = t.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)[m]
        prio = t.column("o_orderpriority").to_pandas().to_numpy()[m]
        return pa.table({"key": pa.array(k), "prio": pa.array(prio.astype(object), pa.string())})

    def li_rows(t: pa.Table) -> pa.Table:
        d = (
            t.column("l_shipdate")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        m = d > CUTOFF_US
        k = t.column("l_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)[m]
        cents = np.floor(
            t.column("l_extendedprice").to_numpy(zero_copy_only=False)[m] * 100.0 + 0.5
        ).astype(np.int64)
        bp = np.floor(
            t.column("l_discount").to_numpy(zero_copy_only=False)[m] * 10000.0 + 0.5
        ).astype(np.int64)
        return pa.table({"key": pa.array(k), "rev_e6": pa.array(cents * (10000 - bp))})

    def join_bucket(o: pd.DataFrame, f: pd.DataFrame) -> pd.DataFrame:
        j = f.merge(o, on="key", how="inner")
        if not len(j):
            return pd.DataFrame(
                {
                    "o_orderpriority": pd.Series([], dtype=object),
                    "n_orders": np.empty(0, np.int64),
                    "n_items": np.empty(0, np.int64),
                    "revenue_e6": np.empty(0, np.int64),
                }
            )
        a = j.groupby("prio", sort=False).agg(
            n_orders=("key", "nunique"), n_items=("key", "size"), revenue_e6=("rev_e6", "sum")
        )
        return pd.DataFrame(
            {
                "o_orderpriority": a.index.to_numpy(),
                "n_orders": a["n_orders"].to_numpy(dtype=np.int64),
                "n_items": a["n_items"].to_numpy(dtype=np.int64),
                "revenue_e6": a["revenue_e6"].to_numpy(dtype=np.int64),
            }
        )

    sides = [
        orders.map_batches(order_rows, batch_format="pyarrow", zero_copy_batch=True),
        li.map_batches(li_rows, batch_format="pyarrow", zero_copy_batch=True),
    ]
    sums = {c: (c, "sum") for c in ("n_orders", "n_items", "revenue_e6")}
    return combine_frame(cogroup(sides, "key", join_bucket), "o_orderpriority", sums)


def hapax_ratio_by_source(sf_dir: str):
    """Hapax-legomena ratio per source — the fraction of each source's
    vocabulary appearing EXACTLY once, the classic Zipf-tail /
    corpus-freshness signal next to ``exact_distinct_tokens_by_source``
    (hapaxhood needs per-(token, source) COUNTS, not distincts): one
    ``combine`` counts each pair, a second counts pairs and sums their
    ``n == 1`` flags per source. One int/int ratio rounds half-away
    (CLAUDE.md rule)."""
    ds = _read(sf_dir, "documents", ["source", "text"])
    rows = ds.map_batches(_token_rows, batch_format="pyarrow", zero_copy_batch=True)
    counts = combine(rows, ["token", "source"], {"n": (None, "count")})

    def hapax(t: pa.Table) -> pa.Table:
        return t.append_column("hapax", pc.cast(pc.equal(t.column("n"), 1), pa.int64()))

    out = combine_frame(
        counts.map_batches(hapax, batch_format="pyarrow", zero_copy_batch=True),
        "source",
        {"n_vocab": (None, "count"), "n_hapax": ("hapax", "sum")},
    )
    out["hapax_ratio"] = np.floor(
        out["n_hapax"].to_numpy(dtype=np.float64) / out["n_vocab"].to_numpy(dtype=np.float64) * 1e6
        + 0.5
    ) / 1e6
    return out
