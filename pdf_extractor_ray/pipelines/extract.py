"""Flagship extraction pipeline: pages → extracted (+ quality-by-host stats).

Ray-Data-first shape (SURVEY.md §7.1): ``read_parquet`` (or the synthetic
pages stage) → one ``map_batches`` extraction stage → streaming
consumers (``write_parquet`` partitioned by url-hash, or per-host quality
stats merged by ``buckets.combine``).
"""

from __future__ import annotations

from functools import lru_cache

import pyarrow as pa
import pyarrow.compute as pc

from ..schemas import DEFAULT_NUM_PARTITIONS
from ..stages.extract import ExtractDocuments


@lru_cache(maxsize=None)
def _worker_extractor(num_partitions: int) -> ExtractDocuments:
    """One ExtractDocuments per WORKER PROCESS (lru_cache is per-process), so
    compiled patterns are reused across tasks without paying actor-pool
    scheduling overhead."""
    return ExtractDocuments(num_partitions=num_partitions)


def extract_pages(pages_ds, *, num_partitions: int = DEFAULT_NUM_PARTITIONS):
    """pages Dataset → extracted Dataset (EXTRACTED_SCHEMA rows).

    Runs as STATELESS TASKS: the extractor's state (compiled regexes,
    geometry config) is cheap and is built once per worker process via
    ``_worker_extractor``; an actor pool measured 3× slower for this stage
    on a single node.

    ``batch_size=None`` keeps block-driven batching: Ray otherwise bundles
    upstream blocks up to batch_size INPUT rows, which collapses parallelism
    when input rows are few but heavy (the wide-binary-payload case,
    SURVEY.md §4.2).
    """
    return pages_ds.map_batches(
        lambda b: _worker_extractor(num_partitions)(b),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )


def dedup_extracted_by_url(extracted_ds):
    """Exact dedup on the url key (§2.7, normalize_api.py:21-33 semantics):
    hash co-group on url (``cogroup``), keep the deterministic representative
    (first by (status, doc_id) — prefers an ok row over an error row for the
    same url, then the lowest doc_id). Used on re-crawled corpora where the
    unique-url input invariant does not hold."""
    import numpy as np
    import pandas as pd

    from .buckets import cogroup

    def add_rank_key(t: pa.Table) -> pa.Table:
        status = t.column("status")
        rank = pc.if_else(
            pc.equal(status, "ok"),
            pa.scalar(0, pa.int64()),
            pc.if_else(pc.equal(status, "empty"), pa.scalar(1, pa.int64()), pa.scalar(2, pa.int64())),
        ).to_numpy(zero_copy_only=False)
        doc = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        # one sortable key: status rank in the high bits, doc_id below.
        # ADVICE r2: a doc_id ≥ 2^52 would silently corrupt the packed
        # ordering — fail loudly instead (switch to a two-column idxmin if
        # ids ever outgrow this)
        if doc.size and int(doc.max()) >= (1 << 52):
            raise ValueError("dedup_extracted_by_url: doc_id >= 2^52 breaks the packed rank key")
        key = rank * np.int64(1 << 52) + doc
        return t.append_column("_rank_key", pa.array(key))

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        # one group per url-hash BUCKET, not per url (NOTES: ~1 ms/group for
        # tiny groups); the per-url argmin is vectorized pandas inside
        idx = g.groupby("url")["_rank_key"].idxmin()
        return g.loc[idx].drop(columns=["_rank_key"])

    ranked = extracted_ds.map_batches(add_rank_key, batch_format="pyarrow", zero_copy_batch=True)
    return cogroup(ranked, "url", pick)


def _quality_partials(batch: pa.Table) -> pa.Table:
    """Per-page quality columns, reduced per host inside the same map stage
    by ``combine``'s per-batch partial: each block contributes one row per
    host, so a 40%-of-corpus host adds one partial row per block regardless
    of its row share."""
    status = batch.column("status")
    return pa.table(
        {
            "host": batch.column("host"),
            "is_ok": pc.cast(pc.equal(status, "ok"), pa.int64()),
            "is_error": pc.cast(pc.equal(status, "error"), pa.int64()),
            "is_empty": pc.cast(pc.equal(status, "empty"), pa.int64()),
            # utf8_length takes large_string directly — the cast-to-string it
            # replaced copied every extracted byte per batch (and would hit
            # the 2 GiB int32-offset ceiling on huge blocks)
            "n_chars": pc.cast(pc.utf8_length(batch.column("extracted_text")), pa.int64()),
            "n_blocks": pc.cast(batch.column("n_blocks"), pa.int64()),
        }
    )


def quality_by_host(extracted_ds):
    """Extraction-quality stats per host through ``combine`` (reference
    analog: per-parser success/fail rollup, SURVEY.md §2.5)."""
    from .buckets import combine

    rows = extracted_ds.map_batches(_quality_partials, batch_format="pyarrow", zero_copy_batch=True)
    return combine(
        rows,
        "host",
        {
            "n_pages": (None, "count"),
            "n_ok": ("is_ok", "sum"),
            "n_error": ("is_error", "sum"),
            "n_empty": ("is_empty", "sum"),
            "sum_chars": ("n_chars", "sum"),
            "sum_blocks": ("n_blocks", "sum"),
        },
    )
