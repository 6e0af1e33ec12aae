"""Training-data export operators (engine additions, r3).

The reference stops at "normalized rows on disk"; a 100 TB training
pipeline additionally needs deterministic corpus *packaging*: token-budget
shard assignment (a global ordered prefix sum), deterministic train/val/test
splits, and per-key deterministic samples. None of these exist in the
reference (closest analog: the batch/export loops in
/root/reference/scripts/grok.py:393-424, which walk rows sequentially on one
process) — these are their distributed re-expressions.

Every operator here is oracle-paired (see ``__ray_entry__.oracle_sql``) and
uses only integer arithmetic through the shuffle, so the hash-exact gate
applies.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .buckets import cogroup, combine, combine_frame, ranges
from .relational import _read

#: Knuth multiplicative hash modulus/multiplier, chosen so the product
#: (key % 2^31) * 2654435761 < 2^63 is exact in BOTH numpy int64 and
#: DuckDB BIGINT — the whole point is a hash the oracle can replicate
#: verbatim in SQL. NOT a quality hash at full 64-bit key widths; for
#: engine-internal hashing use fnv1a64 (functions/sketches.py).
KNUTH_MULT = 2654435761
KNUTH_MOD = 2147483648  # 2^31


def knuth_hash(keys: np.ndarray) -> np.ndarray:
    """SQL-replicable deterministic pseudo-random order key (int64 in, int64
    out, all intermediates < 2^63 so BIGINT arithmetic never overflows)."""
    k = keys.astype(np.int64)
    return ((k % KNUTH_MOD) * KNUTH_MULT) % KNUTH_MOD


def _n_tokens(t: pa.Table, col: str = "text") -> np.ndarray:
    """Whitespace token count matching DuckDB len(string_split(text, ' '))
    exactly: separator occurrences + 1 (empty string → ['']  → 1). One
    pyarrow kernel pass, no Python per row."""
    cnt = pc.count_substring(t.column(col), pattern=" ")
    return cnt.to_numpy(zero_copy_only=False).astype(np.int64) + 1


def token_budget_shards(sf_dir: str, budget: int = 5_000):
    """Global ordered prefix sum → token-budget shard assignment: the
    "pack the corpus into ~budget-token training shards in a canonical
    order" step of a dataset export. Each doc is assigned to the shard its
    FIRST token falls in (docs are never split), i.e.
    ``shard_id = exclusive_prefix_sum(n_tokens ordered by doc_id) // budget``.

    Distributed two-phase prefix sum — the textbook shape that avoids both
    a global sort-then-scan and any driver-side row loop: one vectorized
    pass computes the narrow (doc_id, n_tokens) table, ``buckets.ranges``
    cuts it into doc_id ranges and counts each range's tokens, and each
    range, sorted by doc_id, adds its in-range cumulative sum to the token
    total of the ranges before it. Only one scalar per range reaches the
    driver. Oracle: SUM(...) OVER (ORDER BY doc_id).
    """

    def finish(g: pd.DataFrame, before: dict) -> pd.DataFrame:
        n = g["n_tokens"].to_numpy()
        cum = before["n_tokens"] + np.cumsum(n)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "n_tokens": n,
                "cum_tokens": cum,
                "shard_id": (cum - n) // budget,
            }
        )

    return ranges(_doc_tokens(sf_dir), "doc_id", finish, totals=("n_tokens",))


def _doc_tokens(sf_dir: str):
    """The narrow (doc_id int64, n_tokens) table of the documents."""

    def narrow(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": pc.cast(t.column("doc_id"), pa.int64()), "n_tokens": pa.array(_n_tokens(t))})

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        narrow, batch_format="pyarrow", zero_copy_batch=True
    )


def split_assign(sf_dir: str, train_pct: int = 80, val_pct: int = 10):
    """Deterministic train/val/test assignment by content-independent key
    hash — the split that stays stable under corpus growth (a doc's split
    never changes when other docs are added) and is replicable in SQL. Pure
    stateless map_batches: no shuffle at all, the cheapest possible shape.
    """
    ds = _read(sf_dir, "documents", ["doc_id"])
    lo, hi = train_pct, train_pct + val_pct

    def assign(t: pa.Table) -> pa.Table:
        did = t.column("doc_id").to_numpy(zero_copy_only=False)
        pct = knuth_hash(did) % 100
        split = np.where(pct < lo, "train", np.where(pct < hi, "val", "test"))
        return pa.table(
            {"doc_id": pa.array(did.astype(np.int64)), "split": pa.array(split)}
        )

    return ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def sample_orders_per_customer(sf_dir: str, k: int = 3):
    """Deterministic uniform-by-hash sample of ≤k orders per customer —
    "give me k random-but-reproducible examples per key" at corpus scale.
    The order key is the Knuth hash (SQL-replicable), the tiebreak the
    order key itself, so both engines pick identical rows.

    Scale shape: the per-key top-k runs inside hash(key)-buckets
    (``cogroup`` — B groups through the shuffle, never one per
    customer), with the within-bucket selection a single vectorized
    sort + groupby(key).head(k)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def add_h(t: pa.Table) -> pa.Table:
        ok = t.column("o_orderkey").to_numpy(zero_copy_only=False)
        return t.append_column("_h", pa.array(knuth_hash(ok)))

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        top = g.groupby("o_custkey", sort=False).head(k)
        return pd.DataFrame(
            {
                "o_custkey": top["o_custkey"].to_numpy(),
                "o_orderkey": top["o_orderkey"].to_numpy(),
            }
        )

    withh = ds.map_batches(add_h, batch_format="pyarrow", zero_copy_batch=True)
    return cogroup(
        withh, "o_custkey", pick, sort_by=["o_custkey", "_h", "o_orderkey"]
    )


def split_contamination(sf_dir: str, train_pct: int = 80, val_pct: int = 10):
    """Cross-split leakage audit: how many val/test documents share exact
    content (sha256) with ANY train document — the check every training
    corpus needs after splitting, since hash-splits are by doc_id while
    duplicates share text across ids.

    Scale shape: the train-side sha set is ~80% of the corpus, so it is
    NEVER broadcast. Instead both sides co-locate by sha-hash bucket
    (one ``cogroup`` shuffle); inside each bucket a vectorized ``isin``
    marks eval docs whose sha appears among the bucket's train shas, and
    only ≤ 2 partial count rows per bucket leave the shuffle. Composes
    ``split_assign``'s hash arithmetic with ``dedup_exact``'s sha
    bucketing."""
    from ..functions.hashing import sha256_hex

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    lo, hi = train_pct, train_pct + val_pct

    def narrow(t: pa.Table) -> pa.Table:
        did = t.column("doc_id").to_numpy(zero_copy_only=False)
        pct = knuth_hash(did) % 100
        split = np.where(pct < lo, "train", np.where(pct < hi, "val", "test"))
        sha = [sha256_hex(v) for v in t.column("text").to_pylist()]
        return pa.table(
            {
                "sha": pa.array(sha, pa.string()),
                "split": pa.array(split),
            }
        )

    def audit_bucket(g: pd.DataFrame) -> pd.DataFrame:
        ev = g[g["split"] != "train"]
        if ev.empty:
            return pd.DataFrame(
                {
                    "split": pd.Series([], dtype=object),
                    "n_docs": pd.Series([], dtype="int64"),
                    "n_contaminated": pd.Series([], dtype="int64"),
                }
            )
        hit = ev["sha"].isin(set(g.loc[g["split"] == "train", "sha"])).to_numpy()
        return (
            pd.DataFrame({"split": ev["split"].to_numpy(), "hit": hit})
            .groupby("split", sort=False)
            .agg(n_docs=("hit", "size"), n_contaminated=("hit", "sum"))
            .reset_index()
        )

    parts = cogroup(
        ds.map_batches(narrow, batch_format="pyarrow", zero_copy_batch=True), "sha", audit_bucket
    )  # ≤ 2 tiny partial rows per bucket
    sums = {"n_docs": ("n_docs", "sum"), "n_contaminated": ("n_contaminated", "sum")}
    return combine_frame(parts, "split", sums)


def _hashed_feats(t: pa.Table, n_feat: int):
    """Hashed unigram+bigram bag-of-features per doc (DSIR's feature space):
    returns (uni_ids, uni_offsets, bi_ids, bi_offsets) — two flat
    feature-bucket arrays with per-doc segment offsets, fully vectorized
    (fnv1a64 hashing — stable, no PYTHONHASHSEED dependence; scores are
    additive so the segments never need interleaving)."""
    from ..functions.sketches import fnv1a64_batch
    from ..functions.tokens import split_ws

    lists = split_ws(t.column("text"))
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    flat = lists.flatten().to_numpy(zero_copy_only=False)
    offsets = lists.offsets.to_numpy(zero_copy_only=False)
    offsets = (offsets - offsets[0]).astype(np.int64)
    lens = np.diff(offsets)
    uni = fnv1a64_batch([s.encode("utf-8") for s in flat]) % np.uint64(n_feat)
    # bigrams: adjacent pairs inside each doc (dup_ngram_spans n=2 shape)
    n_bi = np.maximum(lens - 1, 0)
    bi_off = np.concatenate([[0], np.cumsum(n_bi)]).astype(np.int64)
    if len(flat) >= 2 and bi_off[-1] > 0:
        joined = flat[:-1] + " " + flat[1:]
        starts = np.repeat(offsets[:-1], n_bi)
        pos = np.arange(int(n_bi.sum())) - np.repeat(bi_off[:-1], n_bi)
        bi = fnv1a64_batch(
            [s.encode("utf-8") for s in joined[(starts + pos).astype(np.int64)]]
        ) % np.uint64(n_feat)
    else:
        bi = np.empty(0, dtype=np.uint64)
    return uni, offsets, bi, bi_off


def dsir_weights(sf_dir: str, n_feat: int = 8192, target_lang: str = "en"):
    """DSIR data-selection importance weights (Xie et al. 2023,
    arXiv:2302.03169): hashed-n-gram bag-of-features importance sampling —
    log w(x) = Σ_b c_b(x) · log(p̂_tgt[b] / p̂_raw[b]), add-1 smoothing,
    with the target distribution estimated from the ``target_lang`` slice
    and the raw distribution from the rest. Returns (doc_id, log_weight)
    rounded to 6 dp.

    Scale shape: pass 1 emits one (feat, is_tgt, n) row per nonzero
    feature count of a batch and ``combine`` sums them — integer sums, so
    the merge is order-exact; the two n_feat-length count vectors are the
    only driver traffic, and the smoothed log-ratio table (n_feat floats)
    broadcasts into a stateless scoring pass. Per-doc scores are an O(features) cumsum-segment sum — the
    corpus never shuffles."""
    import ray

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def feature_counts(t: pa.Table) -> pa.Table:
        uni, uo, bi, bo = _hashed_feats(t, n_feat)
        is_tgt = pc.equal(t.column("lang"), target_lang).to_numpy(zero_copy_only=False).astype(np.int64)
        tgt = np.concatenate([np.repeat(is_tgt, np.diff(uo)), np.repeat(is_tgt, np.diff(bo))])
        cells = np.bincount(np.concatenate([uni, bi]).astype(np.int64) * 2 + tgt, minlength=2 * n_feat)
        nz = np.flatnonzero(cells)
        return pa.table({"feat": pa.array(nz // 2), "is_tgt": pa.array(nz % 2), "n": pa.array(cells[nz])})

    rows = ds.map_batches(feature_counts, batch_format="pyarrow", zero_copy_batch=True)
    f = combine_frame(rows, ["feat", "is_tgt"], {"n": ("n", "sum")})
    counts = np.zeros((n_feat, 2), dtype=np.float64)
    counts[f["feat"].to_numpy(np.int64), f["is_tgt"].to_numpy(np.int64)] = f["n"].to_numpy(np.int64)
    raw, tgt = counts.T
    log_ratio = np.log((tgt + 1.0) / (tgt.sum() + n_feat)) - np.log(
        (raw + 1.0) / (raw.sum() + n_feat)
    )
    lr_ref = ray.put(log_ratio)

    def score(t: pa.Table) -> pa.Table:
        lr = ray.get(lr_ref)
        uni, uo, bi, bo = _hashed_feats(t, n_feat)

        def seg_sum(ids, offs):
            cum = np.concatenate([[0.0], np.cumsum(lr[ids.astype(np.int64)])])
            return cum[offs[1:]] - cum[offs[:-1]]  # safe for empty segments

        w = seg_sum(uni, uo) + seg_sum(bi, bo)
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "log_weight": pa.array(np.round(w, 6)),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


def pack_sequences(sf_dir: str, seq_len: int = 256):
    """Concat-and-chunk sequence packing — the canonical LM-pretraining
    export step: documents are concatenated in doc_id order and sliced into
    fixed ``seq_len``-token training sequences; a document that straddles a
    boundary is split into fragments. Returns one row per (doc, sequence)
    fragment: (doc_id, seq_id, frag_start, frag_len), where frag_start is
    the token offset INSIDE the doc.

    Scale shape: the same distributed two-phase prefix sum as
    ``token_budget_shards`` (``buckets.ranges`` on doc_id with the token
    total of the ranges before each one); fragment explosion is a
    vectorized repeat/arange inside each range. Oracle: window cumsum +
    generate_series unnest."""
    L = int(seq_len)

    def explode(g: pd.DataFrame, before: dict) -> pd.DataFrame:
        n = g["n_tokens"].to_numpy(dtype=np.int64)
        did = g["doc_id"].to_numpy(dtype=np.int64)
        start = before["n_tokens"] + np.cumsum(n) - n
        first_seq = start // L
        last_seq = (start + n - 1) // L  # n ≥ 1 always (whitespace count + 1)
        n_frag = last_seq - first_seq + 1
        seq = np.repeat(first_seq, n_frag) + (
            np.arange(int(n_frag.sum())) - np.repeat(np.cumsum(n_frag) - n_frag, n_frag)
        )
        d_start = np.repeat(start, n_frag)
        d_n = np.repeat(n, n_frag)
        lo = np.maximum(seq * L, d_start)
        hi = np.minimum((seq + 1) * L, d_start + d_n)
        return pd.DataFrame(
            {
                "doc_id": np.repeat(did, n_frag),
                "seq_id": seq,
                "frag_start": lo - d_start,
                "frag_len": hi - lo,
            }
        )

    return ranges(_doc_tokens(sf_dir), "doc_id", explode, totals=("n_tokens",))


def source_mixture_sample(sf_dir: str, mult: int = 4):
    """Temperature-based source mixing (the multilingual/multi-source
    pretraining rebalance, T5/XLM-R style α=0.5): per source keep
    q_s = min(n_s, ⌊mult·√n_s⌋) documents — sub-linear in source size, so
    dominant sources are downweighted — chosen deterministically as the
    q_s smallest (knuth_hash(doc_id), doc_id) within the source.

    Float-safety for the hash-exact gate: √ is IEEE correctly-rounded in
    BOTH numpy and DuckDB and there is NO cross-source float sum (per-source
    quota only), so the ⌊·⌋ boundary is computed on bit-identical doubles.
    A normalized mixture (q_s ∝ n_s^α / Σ n_t^α) would put a non-associative
    float SUM on the oracle path — the per-source form carries the same
    temperature semantics without it.

    Scale shape: one pass; all rows of a source land in one source-hash
    bucket, so counts, ranks and the quota cut all finish in-bucket —
    no separate count pass and no second shuffle."""
    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def keyed(t: pa.Table) -> pa.Table:
        did = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"doc_id": pa.array(did), "source": t.column("source"), "_h": pa.array(knuth_hash(did))})

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["source", "_h", "doc_id"], kind="mergesort")
        n = g.groupby("source", sort=False)["doc_id"].transform("size").to_numpy()
        rk = g.groupby("source", sort=False).cumcount().to_numpy()
        q = np.minimum(n, np.floor(mult * np.sqrt(n.astype(np.float64))).astype(np.int64))
        keep = rk < q
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(dtype=np.int64)[keep],
                "source": g["source"].to_numpy()[keep],
            }
        )

    return cogroup(ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True), "source", pick)


def _word_counts_topv(ds, top_v: int):
    """Distributed exact word counts truncated to the top_v most frequent
    words (count desc, word asc): per-batch value_counts partials summed
    by ``combine`` (one row per distinct-word-per-batch crosses, never
    token instances) → a vocab-sized sort-limit."""

    def partial(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        toks = " ".join(texts).split(" ") if texts else []
        vc = pd.Series(toks, dtype="object").value_counts()
        words = vc.index.to_numpy(dtype=object)
        return pa.table(
            {
                "word": pa.array(list(words), pa.string()),
                "n": pa.array(vc.to_numpy(dtype=np.int64)),
            }
        )

    return (
        combine(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True), "word", {"n": ("n", "sum")})
        .sort(["n", "word"], descending=[True, False])
        .limit(top_v)
        .to_pandas()
        .reindex(columns=["word", "n"])  # a result with no rows converts without columns
    )


def bpe_merges_from_vocab(vocab: "pd.DataFrame", n_merges: int) -> "pd.DataFrame":
    """Classic frequency-weighted BPE merge induction over a (word, n)
    vocabulary (Sennrich et al. 2016, arXiv:1508.07909): words start as
    character sequences; each round counts adjacent symbol pairs weighted
    by word frequency, merges the (count desc, pair asc) argmax everywhere,
    and records it. Deterministic: ties break lexicographically.

    Driver-side BY DESIGN: like k-means centroids, the merge loop's state
    is the truncated VOCABULARY (bounded, data-size-independent), not the
    corpus — the distributed work is the word-count pass that builds it."""
    words: list[list[str]] = [list(w) for w in vocab["word"]]
    freqs = vocab["n"].to_numpy(dtype=np.int64)
    merges = []
    for rank in range(n_merges):
        pairs: dict[tuple[str, str], int] = {}
        for syms, f in zip(words, freqs):
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                pairs[p] = pairs.get(p, 0) + int(f)
        if not pairs:
            break
        top_n = max(pairs.values())
        best_pair = min(p for p, c in pairs.items() if c == top_n)
        merged = best_pair[0] + best_pair[1]
        for syms in words:
            i = 0
            while i < len(syms) - 1:
                if syms[i] == best_pair[0] and syms[i + 1] == best_pair[1]:
                    syms[i : i + 2] = [merged]
                else:
                    i += 1
        merges.append((rank, best_pair[0], best_pair[1], top_n))
    out = pd.DataFrame(merges, columns=["rank", "left", "right", "pair_count"])
    return out.astype({"rank": np.int64, "pair_count": np.int64})


def bpe_train_merges(sf_dir: str, n_merges: int = 20, top_v: int = 5_000):
    """Train BPE tokenizer merges on the corpus: distributed word-count
    pass (see ``_word_counts_topv``) feeding the driver-side merge loop
    over the bounded vocabulary (``bpe_merges_from_vocab``). Rows-only —
    the merge loop is iterative with evolving state, not SQL-expressible;
    pinned by a constructed known-answer test
    (tests/test_training.py::test_bpe_known_answer)."""
    ds = _read(sf_dir, "documents", ["text"])
    vocab = _word_counts_topv(ds, top_v)
    return bpe_merges_from_vocab(vocab, n_merges)


def _ntile(n_total: int, tiles: int):
    """DuckDB's NTILE(tiles) id of each 1-based global rank among
    ``n_total`` rows: the first ``n_total % tiles`` tiles get one extra
    row."""
    q, rem = divmod(n_total, tiles)

    def tile_of(rn: np.ndarray) -> np.ndarray:
        r0 = rn - 1
        head = r0 < rem * (q + 1)
        t_ = np.where(head, r0 // (q + 1), rem + (r0 - rem * (q + 1)) // max(q, 1))
        return (t_ + 1).astype(np.int64)

    return tile_of


def stratified_sample_by_decile(sf_dir: str, tiles: int = 10, k: int = 20):
    """Quantile-stratified deterministic sampling: rank every document by
    (n_chars, doc_id), cut into NTILE(tiles) strata, and keep the k
    hash-smallest docs per stratum — the curriculum/eval-set builder that
    samples uniformly across the quality distribution instead of from its
    head.

    Scale shape: ``buckets.ranges`` on (n_chars, doc_id) gives each range
    its rows in order and the row count before it, so the global rank is
    that count + local position; the NTILE id is CLOSED-FORM from the
    global rank (first N%tiles strata get one extra row — DuckDB
    semantics), and per-stratum selection is a per-range partial top-k
    (each range emits ≤k rows per stratum it intersects), so the final
    merge sees ≤ranges·k·tiles rows, never the table."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    tile_of = _ntile(ds.count(), tiles)

    def rank_tile_topk(g: pd.DataFrame, before: dict) -> pd.DataFrame:
        rn = before["rows"] + np.arange(1, len(g) + 1, dtype=np.int64)
        d = g["doc_id"].to_numpy(dtype=np.int64)
        hh = ((d % 2_147_483_648) * KNUTH_MULT) % 2_147_483_648
        cand = pd.DataFrame({"tile": tile_of(rn), "doc_id": d, "hh": hh})
        # per-stratum partial top-k INSIDE the range — the final merge
        # never sees more than k rows per (range, stratum)
        cand = cand.sort_values(["tile", "hh", "doc_id"], kind="mergesort")
        return cand.groupby("tile", sort=False).head(k)

    cand = ranges(ds, ["n_chars", "doc_id"], rank_tile_topk)

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["hh", "doc_id"], kind="mergesort").head(k)
        return pd.DataFrame(
            {"tile": g["tile"].to_numpy(dtype=np.int64), "doc_id": g["doc_id"].to_numpy(dtype=np.int64)}
        )

    return cand.groupby("tile").map_groups(final_topk, batch_format="pandas")


# ---------------------------------------------------------------------------
# distributed quality-classifier training (full-batch gradient descent)
# ---------------------------------------------------------------------------

LOGREG_DIM = 5

#: planted linear quality rule the classifier must recover (the logistic
#: analog of the k-means planted-structure test): label = 1 iff
#: X @ LOGREG_PLANTED_W > 0. The synthetic corpus has no text↔lang
#: correlation, so a "real" label (e.g. lang=='en') is pure noise — the
#: planted rule makes convergence of the TRAINING machinery measurable.
LOGREG_PLANTED_W = np.array([0.05, 1.0, 2.0, -1.5, 0.5])


def _logreg_features(t: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(doc_id, X[n,5], y) from a documents batch: bias, then length /
    stopword-ratio / punctuation-density / chars-per-token signals
    STANDARDIZED with fixed corpus-independent constants (a deployment
    would compute μ/σ in one extra streamed pass; fixed constants keep the
    pipeline one-pass and deterministic — gradient descent on raw
    ~0.05-std features needs 5× the iterations, measured). Label = the
    planted linear rule over the scaled features (~53% positive)."""
    from ..functions.quality import quality_features

    f = quality_features(t)
    n_tok = np.maximum(f.column("n_tokens").to_numpy(zero_copy_only=False), 1)
    n_chars = np.maximum(f.column("n_chars_q").to_numpy(zero_copy_only=False), 1)
    n_stop = f.column("n_stop").to_numpy(zero_copy_only=False)
    n_punct = f.column("n_punct").to_numpy(zero_copy_only=False)
    X = np.column_stack(
        [
            np.ones(len(n_tok)),
            (np.log1p(n_tok) / 10.0 - 0.39) * 17.0,
            (n_stop / n_tok - 0.13) * 20.0,
            n_punct / n_chars,
            (n_chars / (n_tok * 10.0) - 0.547) * 50.0,
        ]
    )
    y = (X @ LOGREG_PLANTED_W > 0).astype(np.float64)
    d = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    return d, X, y


def logreg_quality_train(sf_dir: str, iters: int = 25, lr: float = 2.5):
    """Distributed quality-classifier TRAINING (fastText-style pipeline
    stage, linear model): full-batch logistic regression by gradient
    descent. One streaming pass builds the tiny (doc_id, X, y) feature
    table (9 doubles/doc — this is what iterations re-scan, never the
    text); each GD step is a map_batches pass emitting ONE partial-gradient
    row per batch, summed on the driver in doc_id-sorted order so the step
    is deterministic regardless of task completion order. Model state is d
    floats — broadcast per step, like k-means centroids.

    Returns per-doc (doc_id, label, prob, pred) from a final scoring pass.
    Rows-only (iterative model fitting is not SQL-expressible); pinned by
    accuracy + determinism + local-reimplementation tests."""
    import ray

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def feats(t: pa.Table) -> pa.Table:
        d, X, y = _logreg_features(t)
        cols = {"doc_id": pa.array(d)}
        for j in range(LOGREG_DIM):
            cols[f"x{j}"] = pa.array(X[:, j])
        cols["y"] = pa.array(y)
        return pa.table(cols)

    # NOTES iterative-coalescing rule: the feature table is re-scanned every
    # GD step — 128 splinter blocks × iters = thousands of task launches
    # (measured 22.6 s vs 7.5 s at sf0.1). Blocks sized to the data, not
    # the reader's splinters.
    fds = (
        ds.map_batches(feats, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(8)
        .materialize()
    )
    n_total = fds.count()
    w = np.zeros(LOGREG_DIM)

    xcols = [f"x{j}" for j in range(LOGREG_DIM)]

    for _ in range(iters):
        w_ref = ray.put(w)

        def grad_partial(t: pa.Table) -> pa.Table:
            wv = ray.get(w_ref)
            X = np.column_stack([t.column(c).to_numpy(zero_copy_only=False) for c in xcols])
            y = t.column("y").to_numpy(zero_copy_only=False)
            p = 1.0 / (1.0 + np.exp(-(X @ wv)))
            g = X.T @ (p - y)
            row = {"_key": pa.array([int(t.column("doc_id").to_numpy(zero_copy_only=False).min())])}
            for j in range(LOGREG_DIM):
                row[f"g{j}"] = pa.array([g[j]])
            return pa.table(row)

        parts = fds.map_batches(grad_partial, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
        parts = parts.sort_values("_key", kind="mergesort")
        g = parts[[f"g{j}" for j in range(LOGREG_DIM)]].to_numpy().sum(axis=0)
        w = w - lr * g / n_total

    w_ref = ray.put(w)

    def score(t: pa.Table) -> pa.Table:
        wv = ray.get(w_ref)
        X = np.column_stack([t.column(c).to_numpy(zero_copy_only=False) for c in xcols])
        p = 1.0 / (1.0 + np.exp(-(X @ wv)))
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "label": pc.cast(pc.equal(t.column("y"), 1.0), pa.int64()),
                "prob": pa.array(np.round(p, 6)),
                "pred": pa.array((p >= 0.5).astype(np.int64)),
            }
        )

    return fds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


def classifier_auc(sf_dir: str):
    """Distributed ROC-AUC of the trained quality classifier — the model-
    evaluation metric a training pipeline gates on. Mann-Whitney rank form
    with AVERAGE ranks for ties: AUC = (Σ r̄_pos − P(P+1)/2) / (P·N).

    Scale shape: no ranks at all. Scores are rounded to 6 dp, so the
    integer micro-probability ``round(prob·1e6)`` names each tie group
    exactly; ``combine`` counts positives and negatives per tie group, and
    on the driver a group of c rows after ``before`` rows has average rank
    before + (c+1)/2. 2·Σ r̄_pos is then an exact integer sum, so the
    result is BIT-equal to a single-process computation (pinned in
    tests)."""

    def micro(t: pa.Table) -> pa.Table:
        y = pc.cast(t.column("label"), pa.int64())
        q = np.round(t.column("prob").to_numpy(zero_copy_only=False) * 1e6).astype(np.int64)
        return pa.table({"q": pa.array(q), "pos": y, "neg": pc.subtract(1, y)})

    scored = logreg_quality_train(sf_dir).map_batches(micro, batch_format="pyarrow", zero_copy_batch=True)
    f = combine_frame(scored, "q", {"n_pos": ("pos", "sum"), "n_neg": ("neg", "sum")})
    pos, c = f["n_pos"].to_numpy(), (f["n_pos"] + f["n_neg"]).to_numpy()
    before = np.cumsum(c) - c
    r_pos2 = int((pos * (2 * before + c + 1)).sum())  # 2·Σ r̄_pos
    P, N = int(pos.sum()), int(f["n_neg"].sum())
    auc = (r_pos2 / 2.0 - P * (P + 1) / 2.0) / (P * N)
    return pd.DataFrame([{"auc": float(np.round(auc, 6)), "n_pos": np.int64(P), "n_neg": np.int64(N)}])


def padding_waste_by_length_tile(sf_dir: str, tiles: int = 10):
    """Batch-padding efficiency audit: cut the corpus into NTILE(tiles)
    length strata (rank by (n_chars, doc_id) — total order, DuckDB tile
    semantics) and report per-tile padded waste if each stratum were
    batch-padded to its max — the "how much compute does naive padding
    burn" question length-bucketed batching answers.

    One corpus pass after the rank plumbing: waste = n·max − Σlen is
    CLOSED-FORM from per-tile (n, Σlen, max) integer partials, so the
    driver merges tiles × ranges tiny rows — no second pass, no value shuffle.
    Rank machinery = ``buckets.ranges`` on (n_chars, doc_id), as in
    ``stratified_sample_by_decile``."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    tile_of = _ntile(ds.count(), tiles)

    def tile_partials(g: pd.DataFrame, before: dict) -> pd.DataFrame:
        rn = before["rows"] + np.arange(1, len(g) + 1, dtype=np.int64)
        d = pd.DataFrame({"tile": tile_of(rn), "len": g["n_chars"].to_numpy(dtype=np.int64)})
        return d.groupby("tile", sort=False)["len"].agg(n="size", s="sum", mx="max").reset_index()

    tiles_ds = ranges(ds, ["n_chars", "doc_id"], tile_partials)
    f = combine_frame(tiles_ds, "tile", {"n_docs": ("n", "sum"), "s": ("s", "sum"), "max_len": ("mx", "max")})
    return pd.DataFrame(
        {
            "tile": f["tile"],
            "n_docs": f["n_docs"],
            "max_len": f["max_len"],
            "padding_waste": f["n_docs"] * f["max_len"] - f["s"],
        }
    )


def span_corruption_stats(sf_dir: str, mask_pct: int = 15):
    """T5-style span-corruption preview: deterministically mask ~15% of
    each doc's tokens with the SQL-replicable Knuth hash rule
    ``((doc_id·131071 + i) % 2³¹)·2654435761 % 2³¹ % 100 < mask_pct`` and
    report per-doc mask count and SPAN count (runs of consecutive masked
    tokens — the sentinel count the seq2seq objective needs). The point is
    the determinism contract: augmentation decisions derivable from
    (doc_id, position) alone are reproducible anywhere, including in the
    SQL oracle.

    Entirely batch-local (ZERO shuffle): token indices via repeat/arange,
    run starts via a shifted mask with doc-boundary reset, per-doc sums
    via np.add.reduceat."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    KNUTH = 2_654_435_761
    M31 = 2_147_483_648

    def stats(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        lens = (
            pc.count_substring(t.column("text"), " ")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
            + 1
        )
        did = np.repeat(ids, lens)
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        k = np.arange(lens.sum(), dtype=np.int64) - np.repeat(starts, lens)
        masked = ((did * 131071 + k) % M31) * KNUTH % M31 % 100 < mask_pct
        prev = np.concatenate(([False], masked[:-1]))
        prev[starts] = False  # runs never cross a doc boundary
        span_start = masked & ~prev
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "n_tokens": pa.array(lens),
                "n_masked": pa.array(np.add.reduceat(masked.astype(np.int64), starts)),
                "n_spans": pa.array(np.add.reduceat(span_start.astype(np.int64), starts)),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True)


def ngram_contamination_filter(sf_dir: str, n: int = 5):
    """GPT-3-style n-gram decontamination: flag TRAIN documents containing
    any n-gram that also appears in the TEST split (the step beyond
    ``split_contamination``'s exact-duplicate check — overlap at the
    n-gram level catches partial copies and quoted passages). Splits come
    from the same SQL-replicable Knuth hash as ``split_assign``.

    Scale shape: the eval side is the SMALL side by construction (held-out
    benchmarks are fixed-size while train grows unboundedly), so its
    distinct n-grams broadcast via ``ray.put`` into a stateless train-side
    scan — no shuffle anywhere. Per-doc window assembly is inherent string
    work (extraction class); membership tests are one set lookup per
    window. Output: (doc_id, n_hits) for contaminated train docs, n_hits =
    count of window POSITIONS whose gram is in the eval set."""
    import ray

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def grams_of(text: str) -> list[str]:
        tk = text.split(" ")
        return [" ".join(tk[i : i + n]) for i in range(len(tk) - n + 1)]

    def eval_grams(t: pa.Table) -> pa.Table:
        did = t.column("doc_id").to_numpy(zero_copy_only=False)
        is_test = knuth_hash(did) % 100 >= 90
        out: set[str] = set()
        for txt in t.filter(pa.array(is_test)).column("text").to_pylist():
            out.update(grams_of(txt))
        return pa.table({"gram": pa.array(sorted(out), pa.string())})

    ev = set(
        ds.map_batches(eval_grams, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()["gram"]
        .tolist()
    )
    ev_ref = ray.put(ev)

    def scan_train(t: pa.Table) -> pa.Table:
        evs = ray.get(ev_ref)
        did = t.column("doc_id").to_numpy(zero_copy_only=False)
        is_train = knuth_hash(did) % 100 < 80
        sub = t.filter(pa.array(is_train))
        ids, hits = [], []
        for d, txt in zip(
            sub.column("doc_id").to_numpy(zero_copy_only=False),
            sub.column("text").to_pylist(),
        ):
            h = sum(1 for g in grams_of(txt) if g in evs)
            if h:
                ids.append(int(d))
                hits.append(h)
        return pa.table(
            {
                "doc_id": pa.array(np.asarray(ids, dtype=np.int64)),
                "n_hits": pa.array(np.asarray(hits, dtype=np.int64)),
            }
        )

    return ds.map_batches(scan_train, batch_format="pyarrow", zero_copy_batch=True)


def weighted_quantile_doc_len(sf_dir: str):
    """WEIGHTED quantiles (median and p90) of document length where each
    doc counts by its TOKEN MASS, not once — the "how long is the doc the
    median training token lives in" question (per-doc quantiles mislead
    when long docs dominate the token budget). Exact integer rank rule on
    distinct lengths: the q-quantile is the smallest length L with
    den·cumw(L) ≥ num·W (cumw = token mass at length ≤ L) — all-integer
    comparisons, no float rank anywhere.

    Scale shape: the length GRID is bounded by max doc length (a format
    constant, not corpus size), so ONE weighted-bincount pass per batch +
    a driver cumsum of grid-sized integer partials answers every q —
    the ccnet-tertile shape with weights (np.bincount's float64 weight
    accumulator is exact below 2^53; cast back after)."""
    ds = _read(sf_dir, "documents", ["text"])

    def partial(t: pa.Table) -> pa.Table:
        ln = (
            pc.binary_length(t.column("text"))
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        w = _n_tokens(t)
        mx = int(ln.max()) if len(ln) else 0
        c = np.bincount(ln, weights=w, minlength=mx + 1)
        nz = np.flatnonzero(c)
        return pa.table(
            {
                "len": pa.array(nz.astype(np.int64)),
                "w": pa.array(c[nz].astype(np.int64)),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    grid = combine_frame(parts, "len", {"w": ("w", "sum")})
    cum = grid["w"].cumsum().to_numpy()
    lens = grid["len"].to_numpy()
    total = int(cum[-1]) if len(cum) else 0
    out = []
    for q_name, num, den in (("p50", 1, 2), ("p90", 9, 10)):
        idx = int(np.searchsorted(cum * den, num * total))
        out.append((q_name, int(lens[idx])))
    return pd.DataFrame(out, columns=["q", "weighted_len"])


def temperature_mixture_allocation(sf_dir: str, budget: int = 100_000):
    """Temperature-scaled training-mix allocation (the T5 / Pile mixing
    rule with temperature 2, i.e. weights ∝ size^(1/2)): given per-source
    corpus sizes (chars here; tokens in production), allocate an integer
    document budget so small sources are up-weighted relative to raw
    proportions, with the largest-remainder method making the allocation
    sum EXACTLY to the budget.

    Every step is cross-engine exact: weights live on an integer grid via
    w = ⌊√(size·10¹²)⌋ (IEEE sqrt is correctly rounded on both engines and
    size·10¹² stays under 2⁵³), and base/remainder are pure int64 division
    against W = Σw — no float share ever compared. Deficit seats go to the
    largest remainders (source name tiebreak).

    Scale shape: one ``combine`` pass (per-source char sums, sources-sized
    merge); the allocation itself is a sources-sized driver computation,
    like skew_salt_plan's plan table."""
    ds = _read(sf_dir, "documents", ["source", "n_chars"])
    sizes = combine_frame(ds, "source", {"size_chars": ("n_chars", "sum")})
    sz = sizes["size_chars"].to_numpy(dtype=np.int64)
    w = np.floor(np.sqrt(sz.astype(np.float64) * 1e12)).astype(np.int64)
    W = int(w.sum())
    base = budget * w // W
    rem = budget * w % W
    deficit = budget - int(base.sum())
    # largest remainder, source-name tiebreak — deterministic seats
    order = np.lexsort((sizes["source"].to_numpy(), -rem))
    alloc = base.copy()
    alloc[order[:deficit]] += 1
    return pd.DataFrame(
        {
            "source": sizes["source"].to_numpy(),
            "size_chars": sz,
            "weight_grid": w,
            "alloc": alloc.astype(np.int64),
        }
    )
