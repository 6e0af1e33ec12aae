"""IR / keyword-search family over the documents table (engine additions
for the training-data ops — the reference's keyword matching is a flat
include/exclude filter (see ``relational.keyword_include_filter``); these
are the ranked/search counterparts a corpus-curation engine needs: TF-IDF
term weighting, BM25 ranked retrieval, and an inverted index build).

All three share one scale shape: the per-(doc, token) term-frequency table
is computed COMPLETE per input batch (a document's tokens never span
batches, so ``group_by(doc, token)`` inside ``map_batches`` is a full
pre-aggregation — the corpus's token INSTANCES never cross a shuffle, only
the much smaller distinct-pair table does), then shuffled at most twice:
once by token-hash bucket (df / postings / scoring) and once by doc-hash
bucket (per-doc top-n), each a ``buckets.cogroup``. Bucket counts follow
input size, never key-cardinality — the NOTES.md ~1 ms/group trap.

Oracle parity: tokenization is ``pc.split_pattern(' ')`` ↔ DuckDB
``string_split(text, ' ')``; scores use float64 with ``np.round(·, 6)``
↔ ``ROUND(·, 6)`` BEFORE ranking on both sides, ties broken on token /
doc_id, so the SQL oracle hash-matches exactly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.tokens import explode_tokens as explode_tokens_batch
from ..functions.tokens import split_ws
from .buckets import cogroup, combine, combine_frame


def _read(sf_dir: str, table: str, columns=None):
    from ..ioutil import read_table

    return read_table(sf_dir, table, columns)


def _n_docs(sf_dir: str) -> int:
    """Row count from parquet footer metadata — no data scan."""
    import pyarrow.dataset as pads

    return pads.dataset(f"{sf_dir}/documents.parquet").count_rows()


def _tf_batch(t: pa.Table) -> pa.Table:
    """Complete per-(doc, token) term frequencies for this batch's docs —
    Arrow-native group_by (C++ hash aggregate)."""
    ex = explode_tokens_batch(t, "doc_id", "text")
    g = ex.group_by(["doc_id", "token"]).aggregate([([], "count_all")])
    return pa.table(
        {
            "doc_id": g.column("doc_id"),
            "token": g.column("token"),
            "tf": pc.cast(g.column("count_all"), pa.int64()),
        }
    )


def tfidf_top_terms(sf_dir: str, top_n: int = 5):
    """Top-n TF-IDF terms per document: tfidf = tf × ln(N / df), rounded to
    6 dp BEFORE ranking, ties on token ASC.

    Scale shape: tf is batch-complete (module docstring); df needs no
    second corpus pass — each tf row IS one (doc, token) incidence, so
    within a token-hash bucket ``transform('size')`` per token is the exact
    document frequency. N comes from parquet footer metadata. Two shuffles
    of the distinct-pair table total (token buckets → doc buckets)."""
    n = float(_n_docs(sf_dir))
    tf = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        _tf_batch, batch_format="pyarrow", zero_copy_batch=True
    )

    def score(g: pd.DataFrame) -> pd.DataFrame:
        df = g.groupby("token", sort=False)["doc_id"].transform("size")
        tfidf = np.round(
            g["tf"].to_numpy().astype(np.float64) * np.log(n / df.to_numpy()), 6
        )
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "token": g["token"].to_numpy(),
                "tfidf": tfidf,
            }
        )

    def topn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["doc_id", "tfidf", "token"], ascending=[True, False, True], kind="stable"
        )
        out = g.groupby("doc_id", sort=False).head(top_n)
        return out[["doc_id", "token", "tfidf"]]

    return cogroup(cogroup(tf, "token", score), "doc_id", topn)


def bm25_search(
    sf_dir: str,
    terms: tuple[str, ...] = ("spark", "window", "join"),
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
):
    """BM25 ranked retrieval for a fixed multi-term query (Lucene idf:
    ln((N − df + ½)/(df + ½) + 1)); returns the top-k (doc_id, score).

    Scale shape: ONE corpus scan emits only the hit rows (docs containing a
    query term — (doc_id, term, tf, dl)) plus one stats partial per batch
    (Σdl, #docs); that small table is materialized once. df per term is a
    native m-group count; N/avgdl/df are driver scalars (m + 2 numbers)
    broadcast into a scoring pass whose per-doc sum is batch-complete (a
    doc's hit rows are emitted together, in fixed term order — float
    reduction order is deterministic). Per-block local top-k, then a tiny
    global sort of k×blocks rows — the ``ann_topk`` pattern; the corpus
    never shuffles at all."""
    terms = tuple(terms)
    tset = pa.array(list(terms))

    def hits(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column("text")))
        lists = split_ws(t.column("text"))
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        dl = (
            pc.list_value_length(lists)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        flat = lists.flatten()
        offsets = lists.offsets.to_numpy(zero_copy_only=False)
        offsets = offsets - offsets[0]
        out_ids, out_terms, out_tf, out_dl = [], [], [], []
        for term in terms:  # m terms — vectorized segment-count per term
            hit = pc.cast(pc.equal(flat, term), pa.int64()).to_numpy(
                zero_copy_only=False
            )
            cum = np.concatenate([[0], np.cumsum(hit)])
            tf = cum[offsets[1:]] - cum[offsets[:-1]]
            nz = tf > 0
            out_ids.append(ids[nz])
            out_terms.append(np.full(int(nz.sum()), term, dtype=object))
            out_tf.append(tf[nz])
            out_dl.append(dl[nz])
        # one stats partial per batch: term='' carries (Σdl, #docs)
        out_ids.append(np.array([-1], dtype=np.int64))
        out_terms.append(np.array([""], dtype=object))
        out_tf.append(np.array([len(ids)], dtype=np.int64))
        out_dl.append(np.array([int(dl.sum())], dtype=np.int64))
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(out_ids)),
                "term": pa.array(np.concatenate(out_terms), pa.string()),
                "tf": pa.array(np.concatenate(out_tf).astype(np.int64)),
                "dl": pa.array(np.concatenate(out_dl).astype(np.int64)),
            }
        )

    hit_ds = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(hits, batch_format="pyarrow", zero_copy_batch=True)
        .materialize()
    )
    stats = hit_ds.filter(expr="term == ''").to_pandas()
    n = float(stats["tf"].sum())
    avgdl = float(stats["dl"].sum()) / n
    docs = hit_ds.filter(expr="term != ''")
    df_rows = combine_frame(docs, "term", {"n": (None, "count")})
    dfs = dict(zip(df_rows["term"], df_rows["n"].astype(np.float64)))
    idf = {
        t: float(np.log((n - dfs.get(t, 0.0) + 0.5) / (dfs.get(t, 0.0) + 0.5) + 1.0))
        for t in terms
    }

    def score_block(t: pa.Table) -> pa.Table:
        d = t.to_pandas()
        w = d["term"].map(idf).to_numpy(dtype=np.float64)
        tf = d["tf"].to_numpy(dtype=np.float64)
        dl = d["dl"].to_numpy(dtype=np.float64)
        s = w * tf / (tf + k1 * (1.0 - b + b * dl / avgdl))
        per_doc = (
            pd.DataFrame({"doc_id": d["doc_id"], "s": s})
            .groupby("doc_id", sort=False)["s"]
            .sum()  # batch-complete per doc (fixed term order)
        )
        top = (
            pd.DataFrame(
                {
                    "doc_id": per_doc.index.to_numpy(dtype=np.int64),
                    "score": np.round(per_doc.to_numpy(), 6),
                }
            )
            .sort_values(["score", "doc_id"], ascending=[False, True], kind="stable")
            .head(k)
        )
        return pa.Table.from_pandas(top, preserve_index=False)

    cand = docs.map_batches(score_block, batch_format="pyarrow").to_pandas()
    return (
        cand.sort_values(["score", "doc_id"], ascending=[False, True], kind="stable")
        .head(k)
        .reset_index(drop=True)
    )


def inverted_index(sf_dir: str, min_df: int = 2):
    """Inverted index build: (token, df, postings) where postings is the
    comma-joined ascending doc_id list — the string form so the DuckDB
    oracle (``string_agg(... ORDER BY doc_id)``) hash-matches a flat
    column. Tokens below ``min_df`` docs are dropped.

    Scale shape: batch-complete tf (distinct pairs only) → ONE token-hash
    bucket shuffle → vectorized per-token postings join within the bucket.
    Caveat (documented, inherent): a stop-word's postings row is df-long —
    at corpus scale pair ``min_df`` with a max-df cut or store block-split
    postings; the bucket layout already isolates the heavy tokens."""
    tf = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        _tf_batch, batch_format="pyarrow", zero_copy_batch=True
    )

    def build(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["token", "doc_id"], kind="stable")
        agg = g.groupby("token", sort=False)["doc_id"].agg(
            df="size", postings=lambda s: ",".join(s.astype(str))
        )
        agg = agg[agg["df"] >= min_df]
        return pd.DataFrame(
            {
                "token": agg.index.to_numpy(),
                "df": agg["df"].to_numpy(dtype=np.int64),
                "postings": agg["postings"].to_numpy(),
            }
        )

    return cogroup(tf, "token", build)


def dup_ngram_spans(sf_dir: str, n: int = 4):
    """Cross-document duplicate n-token spans — the fixed-length primitive of
    exact-substring dedup (Lee et al. 2022 "Deduplicating Training Data
    Makes Language Models Better" builds the suffix array for ALL lengths;
    fixed n makes the op a shuffle-count, no suffix array needed). Returns
    (span, n_docs) for every n-token span appearing in more than one
    distinct document.

    Scale shape: spans are built batch-complete (a doc's token positions
    never span batches — one vectorized object-concat over the flat token
    buffer, doc-boundary positions masked via the list offsets); the
    distinct (span, doc) incidences, then a count per span, both by
    ``combine``, and a filter on the count. At corpus scale, shuffle the
    64-bit span HASH instead of the text (collision-checked), as minhash
    does — the string form here keeps the DuckDB oracle hash-exact."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def spans(t: pa.Table) -> pa.Table:
        lists = split_ws(t.column("text"))
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        flat = lists.flatten().to_numpy(zero_copy_only=False)  # object array
        offsets = lists.offsets.to_numpy(zero_copy_only=False)
        offsets = offsets - offsets[0]
        lens = np.diff(offsets)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        if len(flat) < n:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "span": pa.array([], pa.string()),
                }
            )
        joined = flat[: len(flat) - n + 1]
        for j in range(1, n):
            joined = joined + " " + flat[j : len(flat) - n + 1 + j]
        # valid span starts: position within its doc ≤ len − n
        starts = np.repeat(offsets[:-1], np.maximum(lens - n + 1, 0))
        pos = (
            np.arange(len(starts))
            - np.repeat(
                np.concatenate([[0], np.cumsum(np.maximum(lens - n + 1, 0))[:-1]]),
                np.maximum(lens - n + 1, 0),
            )
        )
        valid_idx = (starts + pos).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, np.maximum(lens - n + 1, 0)).astype(np.int64)),
                "span": pa.array(joined[valid_idx], pa.string()),
            }
        )

    pairs = combine(docs.map_batches(spans, batch_format="pyarrow", zero_copy_batch=True), ["span", "doc_id"], {})
    return combine(pairs, "span", {"n_docs": (None, "count")}).filter(expr="n_docs > 1")


def dup_span_coverage(sf_dir: str, n: int = 4):
    """ExactSubstr-style duplicated-SPAN coverage per document (the audit
    behind Lee et al. 2022's substring removal): every position whose
    n-token span also appears in another document is a duplicated hit;
    overlapping/adjacent hits merge into maximal spans (gaps-and-islands
    over token positions), and each doc reports its merged span count and
    covered token total — i.e. how much of the doc substring-dedup would
    cut.

    Scale shape: span incidences (WITH positions — unlike
    ``dup_ngram_spans`` every occurrence matters) take ONE span-hash bucket
    shuffle to find cross-doc spans; surviving (doc_id, pos) int pairs take
    one doc-hash bucket shuffle where the island merge + per-doc rollup
    finish vectorized (the ``interval_islands`` kernel on token
    positions)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def incidences(t: pa.Table) -> pa.Table:
        lists = split_ws(t.column("text"))
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        flat = lists.flatten().to_numpy(zero_copy_only=False)
        offsets = lists.offsets.to_numpy(zero_copy_only=False)
        offsets = offsets - offsets[0]
        lens = np.diff(offsets)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "pos": pa.array([], pa.int64()),
                "span": pa.array([], pa.string()),
            }
        )
        if len(flat) < n:
            return empty
        joined = flat[: len(flat) - n + 1]
        for j in range(1, n):
            joined = joined + " " + flat[j : len(flat) - n + 1 + j]
        n_sp = np.maximum(lens - n + 1, 0)
        starts = np.repeat(offsets[:-1], n_sp)
        pos = np.arange(len(starts)) - np.repeat(
            np.concatenate([[0], np.cumsum(n_sp)[:-1]]), n_sp
        )
        if not len(starts):
            return empty
        valid_idx = (starts + pos).astype(np.int64)
        d = pd.DataFrame(
            {
                "doc_id": np.repeat(ids, n_sp),
                "pos": pos.astype(np.int64),
                "span": joined[valid_idx],
            }
        )
        return pa.table(
            {
                "doc_id": pa.array(d["doc_id"].to_numpy(dtype=np.int64)),
                "pos": pa.array(d["pos"].to_numpy(dtype=np.int64)),
                "span": pa.array(d["span"].to_numpy(), pa.string()),
            }
        )

    def qualify(g: pd.DataFrame) -> pd.DataFrame:
        nd = g.groupby("span", sort=False)["doc_id"].transform("nunique")
        keep = g[nd > 1]
        return pd.DataFrame(
            {
                "doc_id": keep["doc_id"].to_numpy(dtype=np.int64),
                "pos": keep["pos"].to_numpy(dtype=np.int64),
            }
        )

    def islands(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "pos"], kind="mergesort")
        d = g["doc_id"].to_numpy(dtype=np.int64)
        s = g["pos"].to_numpy(dtype=np.int64)
        en = s + n
        f = pd.DataFrame({"d": d, "s": s, "e": en})
        prev_max = f.groupby("d", sort=False)["e"].cummax().shift(1).to_numpy()
        first = np.empty(len(f), dtype=bool)
        first[0] = True
        first[1:] = d[1:] != d[:-1]
        isl = np.cumsum(first | (s > prev_max))
        spans = (
            f.assign(isl=isl)
            .groupby("isl", sort=False)
            .agg(d=("d", "first"), s0=("s", "min"), e1=("e", "max"))
        )
        out = (
            spans.assign(cov=spans["e1"] - spans["s0"])
            .groupby("d", sort=False)["cov"]
            .agg(n_spans="size", covered_tokens="sum")
            .reset_index()
        )
        return pd.DataFrame(
            {
                "doc_id": out["d"].to_numpy(dtype=np.int64),
                "n_spans": out["n_spans"].to_numpy(dtype=np.int64),
                "covered_tokens": out["covered_tokens"].to_numpy(dtype=np.int64),
            }
        )

    spans = docs.map_batches(incidences, batch_format="pyarrow", zero_copy_batch=True)
    return cogroup(cogroup(spans, "span", qualify), "doc_id", islands)
