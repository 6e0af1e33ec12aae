"""One bucketed co-group primitive for every hash-partitioned reduce step,
one merge for per-key partial aggregates built on it, and one range
partition for global ranks.

``cogroup(sides, key, fn)`` is the tagged reduce-side join ("Binary
Theta-Joins using MapReduce", EDBT 2014) as one operator. Every row of
every side is hashed on ``key`` into one of ``n`` buckets, the sides are
unioned, ONE sort-based ``groupby("_bucket").map_groups`` runs, and ``fn``
gets one pandas frame per side for each bucket. High-cardinality keys never
become Ray groups: the ~1 ms/group grouped-stage tax is paid once per
bucket, and ``fn`` works segment-wise with vectorized pandas inside it.

Contract for ``fn``:

- one call per bucket that holds a row of any side; one frame per side,
  in ``sides`` order, holding only that side's own columns with that
  side's dtypes. There are no ``_bucket``/``_side``
  columns and no null padding, so an int64 column stays int64 (values
  past 2^53 stay exact). A side with no rows in the bucket, or in any
  bucket, arrives as a zero-row frame typed from the schema Ray reports
  for that side, resolved on the driver before the co-group runs. With
  several sides, a side whose schema Ray cannot tell without executing it
  (one ending in a UDF) is materialized first, so a chained
  ``cogroup([cogroup(...), ...])`` runs its inner co-group once. Only a
  side whose last UDF never ran (its input had no rows) has no schema
  anywhere; it arrives as a frame without columns. A materialized side
  with more than O(CPUs) blocks is coalesced before it is tagged, so
  callers need not tune their block counts to the co-group.
- each frame is sorted by ``sort_by`` when given (pandas ``sort_values``).
  Alignment invariant carried over from the per-key window family: after
  that sort, pandas ``groupby(key, sort=False)`` group-major output order
  equals row order, so grouped window results align positionally with the
  sorted frame.
- every row of a key lands in the same bucket for any ``n``, so results
  cannot depend on the bucket count (``tests/test_bucket_scaling.py``).

Bucket of a row: an integer key buckets as ``key % n``; a string key as
``fnv1a64_arrow(key) % n``. ``n`` always comes from
``derive_n_buckets``: ``N_KEY_BUCKETS`` at small inputs, growing with the
input's metadata row count so one bucket's frame stays memory-bounded at
any size. The stage is named after ``fn`` in Ray Data stats.

``ranges(ds, by, fn, *, descending=None, totals=())`` is every global
rank, prefix sum and NTILE cut without a global sort: a range partition
on the lexicographic order of the numeric columns ``by`` (``descending``:
one flag, or one per column). The contract:

- the last column of ``by`` makes the order total (a unique id), so the
  rows of one hot value spread over several ranges by their tie-break,
  and no range holds one value's every row;
- boundaries: ``ds`` is materialized once and its row count read; about
  64 rows per range are drawn by a hash of the tie-break value, so the
  sample depends on row values only, never on blocks or their order; the
  range count comes from ``derive_n_buckets`` and the boundaries are the
  sample's quantiles, so a range holds about rows / ranges rows;
- one ``combine`` counts the rows of each range and sums its ``totals``
  columns; ``fn(frame, before)`` runs once per range that has rows, on the
  range's rows sorted by ``by`` without any added column, with ``before``
  the dict of the row count (``"rows"``) and ``totals`` sums of all
  earlier ranges, so a global rank is ``before["rows"]`` + local position;
- results cannot depend on the range count or the sample: a rank is a
  count of rows before it (``tests/test_bucket_scaling.py`` forces many
  tiny ranges and a hot value);
- empty input: ``fn`` runs once on a zero-row frame typed from the
  schema Ray reports for ``ds``; when it reports none (a plan ending in a
  UDF that never ran), the frame holds only the ``by`` and ``totals``
  columns, as int64. Its result is the typed empty output;
- every execution it starts is consumed (a materialize, one task per
  block for the sample, the ``combine``); it starts no actor. The stage
  is named after ``fn``.

Callers: ``relational.global_row_number`` and
``relational.gini_revenue_index``; ``training.token_budget_shards`` and
``training.pack_sequences`` (``totals=("n_tokens",)``);
``training.stratified_sample_by_decile`` and
``training.padding_waste_by_length_tile``. ``training.classifier_auc``
needs no ranks: its tie groups are integer micro-probabilities, so one
``combine`` of positive and negative counts per group gives the average
ranks on the driver. PageRank is a hash co-group on the node
(``cogroup([skeleton, edges, partials], "node", ...)``).

``combine(ds, keys, aggs)`` is every per-key ``sum``/``min``/``max``/
``count`` and every distinct-key (``aggs = {}``) merge. ``aggs`` maps each
output column to ``(input column, op)``; ``(None, "count")`` counts rows,
like SQL ``COUNT(*)``. ``combine_frame`` is the same merge read into one
pandas frame, for callers that finish on the driver. A vector state
(histogram bins, signature slots, feature counts) is emitted as long
rows, one per (key, position), so one of the four ops merges it. A
filter on the merged value (a support or heavy-hitter threshold) is a
``.filter`` on the result. DISTINCT and COUNT(DISTINCT) are ``combine``
too:

- ``DISTINCT a, b`` is ``combine(ds, [a, b], {})``, the high-cardinality
  column first;
- ``COUNT(DISTINCT x) ... GROUP BY g`` is
  ``combine(combine(ds, [x, g], {}), g, {"n": (None, "count")})``: the
  distinct column ``x`` goes first, because ``keys[0]`` is the co-group
  key, so no bucket holds a group's every distinct value;
- a count of counts chains the same way (``n == 1`` flags summed per
  group count the keys seen once), and a threshold (``HAVING``) is a
  ``.filter`` on the result.

The contract:

- ``keys[0]`` is the co-group key of the co-group merge, so it must be
  the high-cardinality column: a bin index before a range id, a feature
  before a corpus flag, a first word before a second;
- a per-batch ``pa.Table.group_by`` partial runs as one ``map_batches``
  that Ray fuses into the caller's last map stage, and the partials are
  materialized;
- path choice: when they number at most ``ROWS_PER_BUCKET`` rows (the
  one-frame memory bound of a co-group bucket), the driver merges them
  with one ``group_by`` (``count`` partials add up); past that, the same
  merge runs per bucket of ``cogroup(partials, keys[0], ...)``. There is
  no other shuffle code and no other size knob;
- blocks: ``combine`` returns the driver merge through
  ``ray.data.from_arrow`` cut into at most one block per cluster CPU, never
  splitting a run of equal ``keys[0]`` values, so a downstream stage runs
  in parallel and sees each ``keys[0]`` value in one block, as it does
  after the co-group; ``combine_frame`` converts the driver merge
  directly, with no Ray Data execution;
- row order: ``combine_frame`` returns rows sorted by ``keys`` on both
  paths. ``combine`` returns them sorted on the driver path and in bucket
  order on the co-group path, so its callers that need an order sort;
- types: Arrow's own ``sum``/``min``/``max``/``count`` kernels on both
  levels, so int64 sums stay exact past 2^53 and an int32 column sums to
  int64. Float sums are not compensated and their order depends on the
  path and the blocks, so a float ``sum`` goes through ``combine`` only
  when every partial sum is exact: whole numbers, dyadic weights, or
  money held as integer cents (``relational._cents``);
- empty input: zero rows of the key and aggregate columns, typed when
  Ray reports the input's schema without running it (a read, a
  materialized Dataset) and of Arrow's null type otherwise;
- every execution it starts is consumed (a materialize and one
  ``ray.get`` of its blocks); it starts no actor.

Merges that keep another mechanism, and why (``MERGE_ALLOWLIST`` in
``tests/test_bucket_scaling.py``, entry for entry; its guard flags every
Ray grouped aggregate, every driver groupby over collected partials, and
every ``groupby(k).map_groups`` or ``cogroup`` over a
``map_batches``/``cogroup`` output whose callback reduces with a pandas
``groupby`` sum/min/max/agg or a sum/min/max over stacked rows):

- Ray ``Mean``/``Std`` (``relational.mean_std_agg``,
  ``relational.zscore_by_group``): Ray's own float accumulation, which
  their oracles are rounded against;
- float moment sums of off-grid products (``relational.corr_by_group``,
  ``relational.moment_stats_by_group``: Σxy, Σy², Σxd, …): no integer
  grid holds them, so they keep Ray's ``Sum`` and its summation order;
- ``similarity._lloyd_round``: float centroid sums merged in
  ``partial_id`` order, a fixed float reduction order;
- ``textops.export_roundtrip_manifest``: a checksum summed modulo 2^k;
- ``relational.vocab_oov_rate``: top-K of each bucket's merged counts;
- merge then a per-key finish in the same co-group:
  ``relational.mode_by_group`` (argmax), ``relational.lineitems_above_avg_qty``
  (the per-part average), ``relational.windowed_topk_types`` (windowed
  top-k), ``relational.left_join_null_fill`` and
  ``relational.clv_by_segment`` (dimension joins);
- co-groups over raw rows whose callback reduces but merges no partials:
  BFS label propagation, where the per-node min hop rides in the edge
  co-group (``graph.bfs_hops``), per-key sequences
  (``relational.funnel_conversion``, ``relational.resample_ffill_hourly``,
  ``relational.activity_streaks``), posting lists and span islands
  (``search.inverted_index``, ``search.dup_span_coverage``), per-document
  text reassembly (``textops.paragraph_dedup``,
  ``textops.boilerplate_line_removal``) and a train/eval semi-join
  (``training.split_contamination``).

Two merges of partials keep ``groupby(k).map_groups`` because their state
is none of the four ops, so the guard does not flag them:
``relational.kmv_user_overlap`` (a k-min-values union) and
``training.stratified_sample_by_decile``'s ``final_topk`` (top-k per tile).

Global scalar ``ds.aggregate(...)``/``ds.sum(...)`` calls have no key to
merge on and are not merges in this sense.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from ..ioutil import cluster_cpus

#: FLOOR bucket count: the grouped shuffle sees at least this many groups,
#: never one per key; the actual count scales with input size
#: (``derive_n_buckets``).
N_KEY_BUCKETS = 64

#: target rows handed to ONE bucket worker as a single pandas frame —
#: a few-hundred-MB frame for narrow event rows. Also the most partial rows
#: ``combine`` merges on the driver (NOTES "One partial-aggregate merge"
#: times both paths). Tests patch it to force many tiny
#: buckets and the co-group merge, and pin that results do not change.
ROWS_PER_BUCKET = 2_000_000

#: sampled rows per ``ranges`` bucket: a bucket's size then spreads by about
#: 1/sqrt(64) = 12% around rows / buckets
_SAMPLES_PER_BUCKET = 64


def _source_row_estimate(ds):
    """Execution-free row estimate for a Dataset (pure metadata). Exact when
    the plan is a bare parquet read (``_meta_count``); otherwise the summed
    parquet-fragment ``num_rows`` of every Read op in the logical plan —
    exact for 1:1 transform chains, and off only by the stage's own
    explode/filter factor otherwise. Returns None when no metadata exists
    (e.g. ``from_items`` test inputs)."""
    try:
        mc = ds._meta_count()
        if mc:
            return int(mc)
    except Exception:
        pass
    try:
        from ray.data._internal.logical.operators.read_operator import Read

        total, found = 0, False
        stack = [ds._logical_plan.dag]
        while stack:
            op = stack.pop()
            if isinstance(op, Read):
                for frag in getattr(op._datasource, "_metadata", None) or []:
                    total += int(getattr(frag, "num_rows", 0) or 0)
                    found = True
            stack.extend(op.input_dependencies)
        return total if found else None
    except Exception:
        return None


def derive_n_buckets(ds, est_rows=None) -> int:
    """Bucket count derived from input size so memory per bucket worker is
    bounded BY DESIGN: ``ceil(rows / ROWS_PER_BUCKET)`` with
    ``N_KEY_BUCKETS`` as the minimum. Results are invariant to the bucket
    count (bucketing is pure partitioning); tests pin that by forcing a
    tiny ``ROWS_PER_BUCKET``."""
    if est_rows is None:
        est_rows = _source_row_estimate(ds)
    if not est_rows:
        return N_KEY_BUCKETS
    return max(N_KEY_BUCKETS, -(-int(est_rows) // max(ROWS_PER_BUCKET, 1)))


def _bucket_of(col, n: int) -> pa.Array:
    """int64 bucket ids of one key column: ``key % n`` for integers,
    ``fnv1a64_arrow(key) % n`` for strings."""
    t = col.type
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        from ..functions.hashing import fnv1a64_arrow

        return pa.array((fnv1a64_arrow(col) % np.uint64(n)).astype(np.int64))
    if pa.types.is_integer(t):
        return pa.array((col.to_numpy(zero_copy_only=False) % n).astype(np.int64))
    raise TypeError(f"cogroup key must be an integer or string column, got {t}")


@functools.lru_cache(maxsize=64)
def _ipc_schema(raw: bytes) -> pa.Schema:
    return pa.ipc.read_schema(pa.py_buffer(raw))


def _empty_frame(ds):
    """Zero-row pandas frame with the columns and dtypes of the schema Ray
    reports for ``ds`` (no columns when it reports none)."""
    import pandas as pd

    base = getattr(ds.schema(), "base_schema", None)
    if isinstance(base, pa.Schema):
        return _to_pandas(base.empty_table(), None)
    if base is None:
        return pd.DataFrame()
    return pd.DataFrame({c: pd.Series(dtype=t) for c, t in zip(base.names, base.types)})


def _coalesced(ds):
    """``ds`` cut to O(CPUs) blocks when it is materialized with more. The
    co-group's sort splits every input block into one piece per input
    block, so its cost grows with the square of the block count (the NOTES
    block-count rule). Blocks still stay within Ray's target block size."""
    from ray.data import DataContext
    from ray.data.dataset import MaterializedDataset

    if not isinstance(ds, MaterializedDataset):
        return ds
    k = max(cluster_cpus(), -(-ds.size_bytes() // DataContext.get_current().target_max_block_size))
    return ds.repartition(k) if ds.num_blocks() > k else ds


def _to_pandas(t: pa.Table, sort_by):
    from ray.data.block import BlockAccessor

    df = BlockAccessor.for_block(t).to_pandas()
    return df if sort_by is None else df.sort_values(sort_by)


def cogroup(sides, key: str, fn, *, sort_by=None):
    """Hash co-group of one Dataset or a list of Datasets on ``key`` (a
    column every side carries); ``fn(*frames)`` runs once per bucket with
    one pandas frame per side and returns a frame (module docstring)."""
    import ray.data as rd

    if isinstance(sides, rd.Dataset):
        sides = [sides]
    est_rows = sum(e for e in map(_source_row_estimate, sides) if e) or None
    n = derive_n_buckets(sides[0], est_rows)

    if len(sides) == 1:

        def tag(t: pa.Table) -> pa.Table:
            return t.append_column("_bucket", _bucket_of(t.column(key), n))

        @functools.wraps(fn)
        def run(t: pa.Table):
            return fn(_to_pandas(t.drop_columns(["_bucket"]), sort_by))

        tagged = sides[0].map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    else:
        # Blocks of different sides must share one schema before the union,
        # so each batch of side i travels as one row per bucket it has rows
        # in: (_bucket, _side = i, _schema, _payload), _payload the Arrow
        # IPC record batch of those rows and _schema the batch's IPC schema.
        # A side with no rows in a bucket gets a zero-row frame typed on the
        # driver. A side whose schema Ray cannot tell from its plan (one
        # ending in a UDF) is materialized first: that runs it once, and its
        # blocks then carry the schema even when it has no rows at all.
        sides = [s if s.schema(fetch_if_missing=False) is not None else s.materialize() for s in sides]
        empty = [_empty_frame(s) for s in sides]

        def tagger(i: int):
            def tag(t: pa.Table) -> pa.Table:
                b = _bucket_of(t.column(key), n).to_numpy()
                order = np.argsort(b, kind="stable")
                ids, starts = np.unique(b[order], return_index=True)
                ends = np.append(starts[1:], len(b))
                rb = t.take(order).combine_chunks().to_batches()[0]
                sink, offsets = pa.BufferOutputStream(), [0]
                for start, end in zip(starts, ends):
                    sink.write(rb.slice(start, end - start).serialize())
                    offsets.append(sink.tell())
                payload = pa.LargeBinaryArray.from_buffers(
                    pa.large_binary(), len(ids), [None, pa.py_buffer(np.array(offsets, np.int64)), sink.getvalue()]
                )
                return pa.table(
                    {
                        "_bucket": pa.array(ids.astype(np.int64)),
                        "_side": pa.array(np.full(len(ids), i, dtype=np.int64)),
                        "_schema": pa.array([t.schema.serialize().to_pybytes()] * len(ids), pa.binary()),
                        "_payload": payload,
                    }
                )

            return tag

        @functools.wraps(fn)
        def run(t: pa.Table):
            side = t.column("_side").to_numpy()
            frames = []
            for i, zero in enumerate(empty):
                rows = t.filter(pa.array(side == i))
                if rows.num_rows == 0:
                    frames.append(zero.copy())
                    continue
                tables = [
                    pa.Table.from_batches([pa.ipc.read_record_batch(p.as_buffer(), _ipc_schema(sc.as_py()))])
                    for sc, p in zip(rows.column("_schema"), rows.column("_payload"))
                ]
                frames.append(_to_pandas(pa.concat_tables(tables, promote_options="permissive"), sort_by))
            return fn(*frames)

        parts = [
            _coalesced(s).map_batches(tagger(i), batch_format="pyarrow", zero_copy_batch=True)
            for i, s in enumerate(sides)
        ]
        tagged = parts[0].union(*parts[1:])
    return tagged.groupby("_bucket").map_groups(run, batch_format="pyarrow")


#: how ``combine`` merges the partials of each op
_MERGE_OP = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def _merged(ds, keys: list, aggs: dict):
    """``combine``'s merge: an Arrow table sorted by ``keys`` when the
    partials fit in ``ROWS_PER_BUCKET`` rows, else the co-group Dataset."""
    import ray
    from ray.data.dataset import MaterializedDataset

    def grouped(t: pa.Table, specs) -> pa.Table:
        return t.group_by(keys, use_threads=False).aggregate(specs).rename_columns(keys + list(aggs))

    def partial_agg(t: pa.Table) -> pa.Table:
        return grouped(t, [([], "count_all") if op == "count" else (col, op) for col, op in aggs.values()])

    def merge(t: pa.Table) -> pa.Table:
        return grouped(t, [(out, _MERGE_OP[op]) for out, (_, op) in aggs.items()])

    parts = ds.map_batches(partial_agg, batch_format="pyarrow", zero_copy_batch=True, batch_size=None).materialize()
    if parts.count() > ROWS_PER_BUCKET:
        schema = getattr(parts.schema(), "base_schema", None)
        schema = schema if isinstance(schema, pa.Schema) else None

        @functools.wraps(merge)
        def merge_bucket(df):
            return merge(pa.Table.from_pandas(df, schema=schema, preserve_index=False))

        return cogroup(parts, keys[0], merge_bucket)
    # Ray runs no UDF on a zero-row block: it passes on as an input block,
    # possibly a pandas one, so only blocks with rows are partials
    tables = [t for t in ray.get(parts.to_arrow_refs()) if len(t)]
    if not tables:  # a materialized Dataset tells its schema without running
        schema = getattr(ds.schema(fetch_if_missing=isinstance(ds, MaterializedDataset)), "base_schema", None)
        if not isinstance(schema, pa.Schema):  # named columns, no types to give them
            return pa.table({c: pa.nulls(0) for c in keys + list(aggs)})
        tables = [partial_agg(schema.empty_table())]
    merged = merge(pa.concat_tables(tables, promote_options="permissive"))
    return merged.sort_by([(k, "ascending") for k in keys])


def _slices(t: pa.Table, key: str, n: int) -> list:
    """``t``, sorted on ``key``, cut into at most ``n`` slices of about equal
    rows, each cut moved to the next change of ``key``."""
    if n <= 1 or t.num_rows < 2:
        return [t]
    k = t.column(key).to_numpy(zero_copy_only=False)
    changes = np.flatnonzero(k[1:] != k[:-1]) + 1  # first row of each new key
    if len(changes) == 0:
        return [t]
    at = np.minimum(np.searchsorted(changes, np.arange(1, n) * t.num_rows // n), len(changes) - 1)
    bounds = [0, *np.unique(changes[at]), t.num_rows]
    return [t.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]


def combine(ds, keys, aggs: dict):
    """Per-key ``sum``/``min``/``max``/``count`` of ``ds``: ``aggs`` maps
    each output column to ``(input column, op)``, ``(None, "count")`` for a
    row count; ``{}`` gives the distinct keys, so COUNT(DISTINCT x) per g
    is ``combine(combine(ds, [x, g], {}), g, {"n": (None, "count")})``.
    ``keys[0]`` is the co-group key when the partials outgrow the driver
    merge, so it must be the high-cardinality column: the distinct column
    before the group. Returns a Dataset of the key columns, then ``aggs``
    in order (module docstring)."""
    import ray.data as rd

    keys = [keys] if isinstance(keys, str) else list(keys)
    merged = _merged(ds, keys, aggs)
    if not isinstance(merged, pa.Table):
        return merged
    return rd.from_arrow(_slices(merged, keys[0], cluster_cpus()))


def combine_frame(ds, keys, aggs: dict):
    """``combine`` read into one pandas frame sorted by ``keys``, for
    callers that finish on the driver. The driver merge's table converts
    directly, without a Ray Data execution."""
    import ray

    keys = [keys] if isinstance(keys, str) else list(keys)
    merged = _merged(ds, keys, aggs)
    if not isinstance(merged, pa.Table):
        tables = ray.get(merged.to_arrow_refs())
        merged = pa.concat_tables(tables, promote_options="permissive").sort_by([(k, "ascending") for k in keys])
    return merged.to_pandas()


def _order_keys(t: pa.Table, by: list, desc: list) -> list:
    """One numpy array per column of ``by`` whose ascending order is the
    requested order: a descending integer column is bit-inverted
    (``~x = -x - 1``, no overflow), a descending float column negated."""
    keys = []
    for c, d in zip(by, desc):
        v = t.column(c).to_numpy(zero_copy_only=False)
        if np.issubdtype(v.dtype, np.integer):
            v = v.astype(np.int64, copy=False)
            keys.append(~v if d else v)
        elif np.issubdtype(v.dtype, np.floating):
            v = v.astype(np.float64, copy=False)
            keys.append(-v if d else v)
        else:
            raise TypeError(f"ranges column {c} must be numeric, got {v.dtype}")
    return keys


def _bucket_ids(keys: list, bounds: list) -> np.ndarray:
    """Per row of ``keys``, the number of boundary rows at or before it in
    lexicographic order: one ``lexsort`` of boundaries and rows together,
    a boundary sorting before an equal row."""
    m, n = len(bounds[0]), len(keys[0])
    flag = np.concatenate([np.zeros(m, np.int8), np.ones(n, np.int8)])
    order = np.lexsort([flag, *(np.concatenate([b, k]) for b, k in zip(bounds[::-1], keys[::-1]))])
    is_bound = order < m
    ids = np.empty(n, np.int64)
    ids[order[~is_bound] - m] = np.cumsum(is_bound)[~is_bound]
    return ids


def ranges(ds, by, fn, *, descending=None, totals=()):
    """Range partition of ``ds`` on the lexicographic order of the numeric
    columns ``by``, the last of which makes the order total;
    ``fn(frame, before)`` runs once per bucket on its rows sorted by ``by``
    and returns a frame (module docstring)."""
    import ray
    import ray.data as rd

    by = [by] if isinstance(by, str) else list(by)
    desc = list(descending) if isinstance(descending, (list, tuple)) else [bool(descending)] * len(by)
    ascending = [not d for d in desc]
    src, ds = ds, ds.materialize()
    rows = ds.count()
    if rows == 0:  # a materialized empty read has lost its schema; the read has it
        frame = _empty_frame(src)
        frame = frame.assign(**{c: np.empty(0, np.int64) for c in [*by, *totals] if c not in frame})
        out = fn(frame.sort_values(by, ascending=ascending), dict.fromkeys(["rows", *totals], 0))
        return rd.from_arrow(pa.Table.from_pandas(out, preserve_index=False))

    # boundaries: a sample chosen by a hash of the tie-break column, so it
    # depends on row values only, never on blocks or their order
    n = derive_n_buckets(ds, rows)
    cut = np.uint64(min(1.0, _SAMPLES_PER_BUCKET * n / rows) * 2.0**53)

    def sample(t: pa.Table) -> pa.Table | None:
        if not t.num_rows:  # a zero-row block may have no columns
            return None
        v = t.column(by[-1]).to_numpy(zero_copy_only=False)
        bits = np.ascontiguousarray(v, np.int64 if np.issubdtype(v.dtype, np.integer) else np.float64).view(np.uint64)
        return t.select(by).filter(pa.array((bits * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(11) < cut))

    # plain tasks on the materialized blocks: a Ray Data execution would
    # cost more than the sampling itself
    drawn = [t for t in ray.get([ray.remote(sample).remote(r) for r in ds.to_arrow_refs()]) if t is not None]
    keys = _order_keys(pa.concat_tables(drawn), by, desc)
    order = np.lexsort(keys[::-1])
    at = np.unique(np.arange(1, n) * len(order) // n)[: len(order)]  # none when nothing was drawn
    bounds = [k[order[at]] for k in keys]

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column("_range", pa.array(_bucket_ids(_order_keys(t, by, desc), bounds)))

    # tagging is cheap next to a Ray Data execution, so the counts and the
    # partition each tag the materialized input rather than share a
    # materialized tagged copy
    bucketed = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    counts = combine_frame(bucketed, "_range", {"rows": (None, "count"), **{c: (c, "sum") for c in totals}})
    counts = counts.set_index("_range").reindex(range(len(at) + 1), fill_value=0)
    before = (counts.cumsum() - counts).to_dict("records")

    @functools.wraps(fn)
    def run(t: pa.Table):
        b = t.column("_range")[0].as_py()
        return fn(_to_pandas(t.drop_columns(["_range"]), None).sort_values(by, ascending=ascending), before[b])

    return bucketed.groupby("_range").map_groups(run, batch_format="pyarrow")
