"""Deduplication family over the documents table (training-data ops).

Ray-Data shapes (ray_guide "Aggregation at scale"):
- exact: content-hash → groupby(hash) → deterministic representative
  (in relational.dedup_exact),
- MinHash+LSH: per-batch shingle→minhash→band rows (explode) →
  groupby(band_id, band_hash) → candidate pairs → verify exact Jaccard,
- SimHash: 64-bit fingerprint per doc; near-dup = same fingerprint bucket
  (or small Hamming distance within buckets),
- n-gram Jaccard: char-trigram sets, LSH-free small-scale verify within
  hash-prefix buckets.

All sketches are deterministic (functions/sketches.py) — identical across
workers, runs, and cluster sizes.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.sketches import MinHasher, char_ngrams, jaccard, shingles, simhash64
from ..ioutil import read_table
from .buckets import cogroup, combine, combine_frame

NUM_PERM = 64
NUM_BANDS = 16  # 16 bands × 4 rows → catches J≳0.6 with high prob


def _read_docs(sf_dir: str, columns=("doc_id", "text"), share: float | None = None):
    return read_table(sf_dir, "documents", list(columns), share=share)


class MinHashBander:
    """Batch callable holding the hash family, built once per worker
    process by ``_cached_bander``. ``mode="word"`` sketches word k-shingles;
    ``mode="char"`` sketches char trigrams (the n-gram-Jaccard blocking
    key)."""

    def __init__(
        self,
        num_perm: int = NUM_PERM,
        num_bands: int = NUM_BANDS,
        shingle_k: int = 3,
        mode: str = "word",
    ):
        self.mh = MinHasher(num_perm=num_perm, shingle_k=shingle_k)
        self.num_bands = num_bands
        self.mode = mode

    def _element_hashes(self, text: str) -> np.ndarray:
        if self.mode == "char":
            from ..functions.hashing import fnv1a64 as _f

            grams = char_ngrams(text)
            if not grams:
                return np.empty(0, dtype=np.uint64)
            return np.unique(
                np.fromiter((_f(g.encode()) for g in grams), dtype=np.uint64, count=len(grams))
            )
        return shingles(text, self.mh.shingle_k)

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Whole-batch vectorized sketch (r2): ragged batch FNV over all
        grams → reduceat signatures → vectorized band hashes. Bit-identical
        to the per-doc path (pinned by test_batch_kernels_match_scalar)."""
        from ..functions.sketches import char_ngram_hashes_batch, doc_shingle_hashes_batch

        texts = batch.column("text").to_pylist()
        if self.mode == "char":
            concat, offsets = char_ngram_hashes_batch(texts)
        else:
            concat, offsets = doc_shingle_hashes_batch(texts, self.mh.shingle_k)
        sigs = self.mh.signatures_from_concat(concat, offsets)
        bands = self.mh.band_hashes_batch(sigs, self.num_bands)  # (n, num_bands)
        n = len(texts)
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(doc_ids, self.num_bands), type=pa.int64()),
                "band_id": pa.array(
                    np.tile(np.arange(self.num_bands, dtype=np.int32), n), type=pa.int32()
                ),
                # h - 2^63 (mod 2^64) == flip the top bit — the uint64→signed
                # shift the scalar path does with python ints
                "band_hash": pa.array(
                    (bands.reshape(-1) ^ np.uint64(1 << 63)).view(np.int64),
                    type=pa.int64(),
                ),
            }
        )


from functools import lru_cache


@lru_cache(maxsize=8)
def _cached_bander(num_perm: int, num_bands: int, shingle_k: int, mode: str) -> MinHashBander:
    return MinHashBander(num_perm=num_perm, num_bands=num_bands, shingle_k=shingle_k, mode=mode)


def _band_batch(t: pa.Table, *, mode: str) -> pa.Table:
    """Stateless-task form of the bander: hash family cached once per worker
    PROCESS (NOTES: cheap-state stages run ~3× faster as tasks + lru_cache
    than as an autoscaling actor pool — no ramp-up, full task parallelism)."""
    return _cached_bander(NUM_PERM, NUM_BANDS, 3, mode)(t)


def minhash_candidates(sf_dir: str, mode: str = "word"):
    """documents table → candidate pairs (see minhash_candidates_ds)."""
    return minhash_candidates_ds(_read_docs(sf_dir, share=1.0), mode=mode)


def minhash_candidates_ds(docs_ds, mode: str = "word"):
    """(doc_id, text) Dataset → (band_id, band_hash) buckets → unique
    candidate pairs. Dataset-level entry so composed pipelines (e.g.
    extraction output) can feed near-dup directly.

    Two-phase bucket join: (1) a NATIVE count aggregate finds buckets with
    ≥2 members — near-dup buckets are rare, so this hot set is small and is
    broadcast; (2) pair generation runs only on rows in hot buckets. This
    avoids `map_groups` over millions of singleton groups (measured 3×+
    faster) and is the scale path: phase-1 shuffle moves (key, count)
    partials, phase-2 touches only the near-dup fraction of the data."""
    import ray

    from functools import partial

    # sketch once, reuse twice (count pass + pair pass): the band table is
    # 3 int columns — tiny next to the documents — so pinning it is safe
    bands = docs_ds.map_batches(
        partial(_band_batch, mode=mode), batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).materialize()

    # hot-bucket detection on the PACKED key (r3): per-batch partial counts
    # + bucket-level pandas merge — the previous native two-key Count had
    # one Ray group per band bucket (≈ corpus × bands groups, the ~0.4 ms/
    # group aggregate tax). A packed-key collision only promotes a singleton
    # to "hot", which the exact (band_id, band_hash) pair stage ignores.
    hot = _hot_packed_keys(bands)
    if hot is None:
        return None
    hot_ref = ray.put(pa.array(hot, type=pa.int64()))

    def in_hot(t: pa.Table) -> pa.Table:
        packed = _pack_band_key(
            t.column("band_id").to_numpy(zero_copy_only=False),
            t.column("band_hash").to_numpy(zero_copy_only=False),
        )
        return t.filter(
            pa.compute.is_in(pa.array(packed, type=pa.int64()), value_set=ray.get(hot_ref))
        )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.sort(g["doc_id"].unique())
        if len(ids) < 2:
            return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64), "doc_b": pd.Series([], dtype=np.int64)})
        ia, ib = np.triu_indices(len(ids), k=1)
        return pd.DataFrame({"doc_a": ids[ia], "doc_b": ids[ib]})

    hot_rows = bands.map_batches(in_hot, batch_format="pyarrow")
    return hot_rows.groupby(["band_id", "band_hash"]).map_groups(pairs, batch_format="pandas")


def _hot_int_keys(ds, key_fn) -> np.ndarray | None:
    """Int64 keys with ≥2 members in ``ds``, counted by ``combine`` — no
    per-key Ray groups (the native Count aggregate had one group per
    DISTINCT key ≈ corpus × bands). ``key_fn(batch) -> np.ndarray[int64]``.
    None when nothing is hot."""

    def keys(t: pa.Table) -> pa.Table:
        return pa.table({"k": pa.array(key_fn(t), type=pa.int64())})

    counts = combine(ds.map_batches(keys, batch_format="pyarrow"), "k", {"n": (None, "count")})
    hot = counts.filter(expr="n >= 2").to_pandas()
    if len(hot) == 0:
        return None
    return hot["k"].to_numpy(dtype=np.int64)


def _hot_packed_keys(bands) -> np.ndarray | None:
    """Hot (≥2-member) PACKED minhash band keys (see ``_pack_band_key``)."""
    return _hot_int_keys(
        bands,
        lambda t: _pack_band_key(
            t.column("band_id").to_numpy(zero_copy_only=False),
            t.column("band_hash").to_numpy(zero_copy_only=False),
        ),
    )


def _pack_band_key(band_id: np.ndarray, band_hash: np.ndarray) -> np.ndarray:
    """Fold (band_id, band_hash) into ONE int64 so the hot-bucket filter is
    a single vectorized ``pc.is_in`` (VERDICT r2 #1 — the tuple-set per-row
    loop it replaces hashed Python tuples over the full banded table). Band
    id in the high bits, same layout as similarity.bucketize. A cross-band
    collision only admits a row that the later (band_id, band_hash) groupby
    isolates as a singleton — no pair is ever produced from it — so packing
    cannot change candidates (goldens unchanged)."""
    return ((band_id.astype(np.int64) + 1) << 58) ^ band_hash.astype(np.int64)


def _dedup_verified(verified_ds, col_a: str, col_b: str, val_col: str):
    """Collapse duplicate verified pairs (a pair colliding in several bands
    is verified once per collision) AFTER the similarity filter, where rows
    are few by construction. Deduping the CANDIDATE set instead was measured
    at ~0.4 ms/group in Ray's grouped aggregate — 32 s for 80k candidate
    groups at sf0.001 — while the verified set is orders of magnitude
    smaller; duplicate verify work is a vectorized no-op by comparison."""
    return combine(verified_ds, [col_a, col_b], {val_col: (val_col, "min")})


def _broadcast_candidate_ids(pairs_ds):
    """Collect the DISTINCT candidate doc ids and ``ray.put`` them once.

    The only thing that crosses to the driver is the id set — near-dup
    candidates are a vanishing fraction of the corpus, so this is the
    broadcast-small-side pattern, never the texts."""
    import ray

    def batch_ids(t: pa.Table) -> pa.Table:
        ids = np.unique(
            np.concatenate(
                [
                    t.column("doc_a").to_numpy(zero_copy_only=False),
                    t.column("doc_b").to_numpy(zero_copy_only=False),
                ]
            )
        )
        return pa.table({"doc_id": pa.array(ids, type=pa.int64())})

    ids_df = pairs_ds.map_batches(batch_ids, batch_format="pyarrow").to_pandas()
    uniq = np.unique(ids_df["doc_id"].to_numpy())
    return ray.put(pa.array(uniq, type=pa.int64()))


def _candidate_texts(docs_ds, ids_ref):
    """Semi-join filter of the docs Dataset against the broadcast id set:
    a distributed `pc.is_in` scan — each read task keeps only candidate rows;
    the full corpus never leaves the workers. NOT materialized here: the
    broadcast verify consumes it exactly once; the co-grouped verify (two
    consumers) materializes at its call site."""
    import pyarrow.compute as pc
    import ray

    def keep(t: pa.Table) -> pa.Table:
        return t.select(["doc_id", "text"]).filter(
            pc.is_in(t.column("doc_id"), value_set=ray.get(ids_ref))
        )

    return docs_ds.map_batches(
        keep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def _jaccard_word_shingles(x: str, y: str) -> float:
    return jaccard(set(shingles(x).tolist()), set(shingles(y).tolist()))


def _jaccard_char_ngrams(x: str, y: str) -> float:
    return jaccard(char_ngrams(x), char_ngrams(y))


def _verify_pairs_cogrouped(pairs_ds, texts_ds, sim_fn, threshold: float):
    """Exact-similarity verify with NO driver-side text map: co-group
    candidate pairs with candidate texts by hash bucket and join + verify
    inside the bucket (VERDICT r1 #1).

    Two ``cogroup`` stages (attach text_a, then attach text_b + verify);
    each shuffles only candidate-fraction rows, so no per-key tiny-group
    stage (NOTES: ~1 ms/group trap) and no full-corpus read anywhere off
    the workers. The doc ids stay int64 end to end (``cogroup`` pads no
    side with nulls), so ids ≥ 2^53 are never rounded through float64."""

    def attach_a(pairs: pd.DataFrame, texts: pd.DataFrame) -> pd.DataFrame:
        tmap = dict(zip(texts["doc_a"], texts["text"]))
        return pd.DataFrame(
            {
                "doc_a": pairs["doc_a"].to_numpy(dtype=np.int64),
                "doc_b": pairs["doc_b"].to_numpy(dtype=np.int64),
                "text_a": pairs["doc_a"].map(tmap).to_numpy(),
            }
        )

    def attach_b_verify(pairs: pd.DataFrame, texts: pd.DataFrame) -> pd.DataFrame:
        tmap = dict(zip(texts["doc_b"], texts["text"]))
        doc_a = pairs["doc_a"].to_numpy(dtype=np.int64)
        doc_b = pairs["doc_b"].to_numpy(dtype=np.int64)
        jac = np.round(
            [sim_fn(ta, tmap[b]) for ta, b in zip(pairs["text_a"], doc_b)], 6
        )
        m = jac >= threshold
        return pd.DataFrame(
            {"doc_a": doc_a[m], "doc_b": doc_b[m], "jaccard_r": jac[m]}
        )

    def texts_keyed_by(col: str):
        return texts_ds.map_batches(
            lambda t: pa.table({col: t.column("doc_id"), "text": t.column("text")}), batch_format="pyarrow"
        )

    with_a = cogroup([pairs_ds.select_columns(["doc_a", "doc_b"]), texts_keyed_by("doc_a")], "doc_a", attach_a)
    return cogroup([with_a, texts_keyed_by("doc_b")], "doc_b", attach_b_verify)


_EMPTY_PAIRS = {
    "doc_a": pd.Series([], dtype=np.int64),
    "doc_b": pd.Series([], dtype=np.int64),
    "jaccard_r": pd.Series([], dtype=np.float64),
}

#: below this many candidate pairs the two bucket shuffles of the co-grouped
#: verify cost more than shipping the (semi-joined) candidate texts once —
#: same smallness-crossover reasoning as connected_components' driver_threshold
BROADCAST_PAIRS_THRESHOLD = 100_000


def _verify_pairs_broadcast(pairs_ds, texts_ds, sim_fn, threshold: float):
    """Small-candidate crossover verify: the candidate texts — already
    semi-join-filtered on the WORKERS, never a corpus read — are collected
    once and broadcast; verify is a single map_batches over the pairs.
    Identical output to ``_verify_pairs_cogrouped`` (golden-pinned)."""
    import ray

    tdf = texts_ds.to_pandas()
    texts_ref = ray.put(dict(zip(tdf.doc_id, tdf.text)))

    def verify(t: pa.Table) -> pa.Table:
        m = ray.get(texts_ref)
        a = t.column("doc_a").to_numpy(zero_copy_only=False)
        b = t.column("doc_b").to_numpy(zero_copy_only=False)
        jac = np.round([sim_fn(m[x], m[y]) for x, y in zip(a, b)], 6)
        keep = jac >= threshold
        return pa.table(
            {
                "doc_a": pa.array(a[keep], type=pa.int64()),
                "doc_b": pa.array(b[keep], type=pa.int64()),
                "jaccard_r": pa.array(jac[keep], type=pa.float64()),
            }
        )

    return pairs_ds.map_batches(verify, batch_format="pyarrow")


def _verify_candidates(docs_ds, pairs, n_cand: int, sim_fn, threshold: float):
    """Shared verify tail: broadcast-texts below the crossover, bucketed
    co-group above it. Both paths read texts via the distributed semi-join."""
    ids_ref = _broadcast_candidate_ids(pairs)
    texts = _candidate_texts(docs_ds, ids_ref)
    if n_cand <= BROADCAST_PAIRS_THRESHOLD:
        return _verify_pairs_broadcast(pairs, texts, sim_fn, threshold)
    # both co-group stages consume texts — pin once (candidate-fraction sized)
    return _verify_pairs_cogrouped(pairs, texts.materialize(), sim_fn, threshold)


def minhash_near_dup(sf_dir: str, threshold: float = 0.6):
    """documents table → verified near-dup pairs (see minhash_near_dup_ds)."""
    return minhash_near_dup_ds(_read_docs(sf_dir, share=1.0), threshold=threshold)


def minhash_near_dup_ds(docs_ds, threshold: float = 0.6):
    """Candidate pairs (deduped across bands, distributed) verified by exact
    shingle Jaccard, over any (doc_id, text) Dataset. Only the candidate ID
    SET (and, below the smallness crossover, the semi-joined candidate
    texts) touches the driver — the full corpus never does; above the
    crossover texts flow worker-to-worker via the bucket shuffle
    (``_verify_pairs_cogrouped``). ``docs_ds`` is consumed twice (banding +
    text semi-join) — pass a materialized Dataset if its lineage is
    expensive."""
    cand_ds = minhash_candidates_ds(docs_ds)
    if cand_ds is None:
        return pd.DataFrame(_EMPTY_PAIRS)
    # candidates stay band-duplicated here: deduping them costs ~0.4 ms per
    # candidate GROUP in Ray's aggregate; instead verify every row (cheap,
    # vectorized) and collapse the (small) verified output
    pairs = cand_ds.materialize()  # 2 int cols, consumed twice
    n_cand = pairs.count()
    if n_cand == 0:
        return pd.DataFrame(_EMPTY_PAIRS)
    verified = _verify_candidates(docs_ds, pairs, n_cand, _jaccard_word_shingles, threshold)
    return _dedup_verified(verified, "doc_a", "doc_b", "jaccard_r")


def connected_components(
    pairs_ds,
    col_a: str = "doc_a",
    col_b: str = "doc_b",
    driver_threshold: int = 100_000,
):
    """Connected components over near-dup pairs. Returns (node, component)
    where component = min node id in the component.

    Below ``driver_threshold`` edges the candidate set is provably small
    (near-dup pairs are a vanishing fraction of the corpus) and a
    driver-side union-find runs — the ray_guide's stated crossover. Above
    it the edges never touch the driver: ``connected_components_star``
    needs O(log n) rounds whatever the component diameter, and raises
    rather than return unconverged labels. Tests reach that path with
    ``driver_threshold=0``.
    """
    import ray.data as rd

    # smallness decision WITHOUT pulling a Dataset to the driver: count first
    # (pairs are 2 int columns — materialize is cheap and reused below)
    if isinstance(pairs_ds, pd.DataFrame):
        n_pairs = len(pairs_ds)
    else:
        pairs_ds = pairs_ds.materialize()
        n_pairs = pairs_ds.count()
    if n_pairs <= driver_threshold:
        pairs = pairs_ds.to_pandas() if not isinstance(pairs_ds, pd.DataFrame) else pairs_ds
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a_, b_ in zip(pairs[col_a], pairs[col_b]):
            ra, rb = find(int(a_)), find(int(b_))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        rows = sorted((n, find(n)) for n in parent)
        return rd.from_pandas(
            pd.DataFrame(rows, columns=["node", "component"]).astype(np.int64)
        )
    # distributed path: edges never touch the driver
    return connected_components_star(pairs_ds, col_a, col_b)


def connected_components_star(pairs_ds, col_a: str = "doc_a", col_b: str = "doc_b", max_rounds: int = 30):
    """Connected components by alternating large-star / small-star rounds
    (Kiveris et al., "Connected Components in MapReduce and Beyond") —
    converges in O(log n) rounds regardless of component diameter; the
    distributed path of ``connected_components``.

    large-star(u): for every neighbour v > u, re-attach v to
    m = min(Γ(u) ∪ {u}).  small-star(u): over edges oriented to the larger
    endpoint, re-attach all smaller neighbours (and u) to the minimum.
    Fixpoint = a star forest: every edge (child, root). Each phase is one
    ``cogroup`` on u over the symmetric edge list, and its output edges
    are made distinct by ``combine``. Raises ``RuntimeError`` when
    ``max_rounds`` pass without reaching the fixpoint.
    """
    import ray.data as rd

    if isinstance(pairs_ds, pd.DataFrame):
        pairs_ds = rd.from_pandas(pairs_ds)

    def sym(t: pa.Table) -> pa.Table:
        a = t.column(col_a).to_numpy(zero_copy_only=False).astype(np.int64)
        b = t.column(col_b).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"u": pa.array(np.concatenate([a, b])), "v": pa.array(np.concatenate([b, a]))}
        )

    # distinct symmetric edges, never on the driver; also the node universe
    # for the final labelling (every node appears on the u side of the
    # symmetric list)
    edges = combine(pairs_ds.map_batches(sym, batch_format="pyarrow"), ["u", "v"], {}).materialize()
    nodes_ds = (
        combine(edges.select_columns(["u"]), "u", {})
        .map_batches(
            lambda t: pa.table({"node": t.column("u"), "component": t.column("u")}),
            batch_format="pyarrow",
        )
        .materialize()
    )

    # star phases run per BUCKET of u (VERDICT r2 #2 — one group per node
    # was the ~1 ms/group trap): the per-u min neighbour is a vectorized
    # pandas groupby-min inside the bucket, re-attachment a vectorized mask.
    def large_star(g: pd.DataFrame) -> pd.DataFrame:
        u = g["u"].to_numpy(dtype=np.int64)
        v = g["v"].to_numpy(dtype=np.int64)
        mins = pd.Series(v).groupby(u).min()  # min neighbour per u
        m = pd.Series(
            np.minimum(mins.to_numpy(dtype=np.int64), mins.index.to_numpy(dtype=np.int64)),
            index=mins.index,
        )  # min(Γ(u) ∪ {u})
        mask = v > u
        return pd.DataFrame(
            {
                "u": v[mask],
                "v": pd.Series(u[mask]).map(m).to_numpy(dtype=np.int64),
            }
        )

    def small_star(g: pd.DataFrame) -> pd.DataFrame:
        # input oriented u=max, v=min (may contain duplicate rows — the
        # phase's distinct absorbs emitted duplicates)
        u = g["u"].to_numpy(dtype=np.int64)
        v = g["v"].to_numpy(dtype=np.int64)
        mins = pd.Series(v).groupby(u).min()  # m = min(Γ(u)), all Γ(u) < u
        vm = pd.Series(u).map(mins).to_numpy(dtype=np.int64)
        mask = v != vm
        return pd.DataFrame(
            {
                # every neighbour ≠ m re-attaches to m, and u itself does too
                "u": np.concatenate([v[mask], mins.index.to_numpy(dtype=np.int64)]),
                "v": np.concatenate([vm[mask], mins.to_numpy(dtype=np.int64)]),
            }
        )

    def _edge_signature(ds) -> tuple[int, int, int]:
        """Order-independent distributed fingerprint of the edge SET:
        (count, XOR of a per-edge mix hash, SUM of the hashes mod 2^64 —
        two independent folds, ADVICE r2: a single-fold collision between
        consecutive rounds' distinct edge sets would terminate early). One
        partial row per block reaches the driver — never the edges."""
        from ..functions.sketches import splitmix64_vec

        def partial(t: pa.Table) -> pa.Table:
            u = t.column("u").to_numpy(zero_copy_only=False).astype(np.uint64)
            v = t.column("v").to_numpy(zero_copy_only=False).astype(np.uint64)
            with np.errstate(over="ignore"):
                mix = np.bitwise_xor(
                    u * np.uint64(0x9E3779B97F4A7C15), v + np.uint64(0x6A09E667F3BCC909)
                )
                # vectorized finalize + fold — a Python per-edge loop here
                # would dominate rounds on exactly the graphs this path is for
                h = splitmix64_vec(mix)
                x = np.bitwise_xor.reduce(h) if len(h) else np.uint64(0)
                s = np.add.reduce(h) if len(h) else np.uint64(0)  # wraps mod 2^64
            return pa.table(
                {
                    "n": pa.array([t.num_rows], pa.int64()),
                    "x": pa.array([int(x) - (1 << 63)], pa.int64()),
                    "s": pa.array([int(s) - (1 << 63)], pa.int64()),
                }
            )

        parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
        x, s = 0, 0
        for xv, sv in zip(parts["x"].to_numpy(), parts["s"].to_numpy()):
            x ^= int(xv) + (1 << 63)
            s = (s + int(sv) + (1 << 63)) % (1 << 64)
        return int(parts["n"].sum()), x, s

    def bucketed_phase(ds, phase_fn):
        """One star phase in bucket-level groups of u, its edges distinct."""
        return combine(cogroup(ds, "u", phase_fn), ["u", "v"], {})

    prev_sig = None
    for _ in range(max_rounds):
        # large-star over the symmetric view
        sym_view = edges.map_batches(
            lambda t: pa.concat_tables(
                [t, pa.table({"u": t.column("v"), "v": t.column("u")})]
            ),
            batch_format="pyarrow",
        )
        edges = bucketed_phase(sym_view, large_star)
        # small-star over edges oriented toward the larger endpoint
        oriented = edges.map_batches(
            lambda t: pa.table(
                {
                    "u": pa.compute.max_element_wise(t.column("u"), t.column("v")),
                    "v": pa.compute.min_element_wise(t.column("u"), t.column("v")),
                }
            ),
            batch_format="pyarrow",
        )
        # materialize per round: edges stay a Dataset (no driver round-trip)
        # and the next round's lineage starts from pinned blocks
        edges = bucketed_phase(oriented, small_star).materialize()
        sig = _edge_signature(edges)
        if sig == prev_sig:
            break
        prev_sig = sig
    else:
        # ADVICE r2: never return unconverged labels
        raise RuntimeError(f"connected_components_star: no fixpoint after max_rounds={max_rounds} rounds")

    # final assembly, distributed: at the fixpoint edges form a star forest
    # (child u → root v). union(self-labels, child→root rows) + bucket-level
    # per-node min labels every node: children take v (< u always), roots
    # keep themselves.
    child_labels = edges.map_batches(
        lambda t: pa.table({"node": t.column("u"), "component": t.column("v")}),
        batch_format="pyarrow",
    )
    return combine(nodes_ds.union(child_labels), "node", {"component": ("component", "min")})


def dup_components(sf_dir: str, threshold: float = 0.4, n_bands: int = 24, planes_per_band: int = 4):
    """Near-dup clusters over embedding pairs: banded sign-LSH pair
    generation → ``connected_components``. Rows-only (recursive
    closure is not single-query SQL).

    Round 2 (VERDICT r1 #2): pairs come from ``embedding_near_dup`` — the
    bucketed LSH path — so no O(n²) broadcast-matrix stage is anywhere in
    this lineage. ``embedding_dup_exact`` stays as the recall yardstick in
    tests only. Default band config is 24 × 4 — measured recall 1.0 at
    cos 0.4 on the yardstick (16 bands measured 0.955: cheaper, but a
    missed pair silently splits a cluster)."""
    from .similarity import embedding_near_dup

    pairs = embedding_near_dup(
        sf_dir, threshold=threshold, n_bands=n_bands, planes_per_band=planes_per_band
    )
    # Dataset passed straight through: connected_components decides the
    # driver/distributed crossover from a count, not a to_pandas
    return connected_components(pairs, col_a="vec_a", col_b="vec_b")


def simhash_fingerprints(sf_dir: str):
    """64-bit SimHash per document (as hex string — int64-overflow-safe)."""
    ds = _read_docs(sf_dir)

    def fp(batch: pa.Table) -> pa.Table:
        from ..functions.sketches import simhash64_batch

        hs = simhash64_batch(batch.column("text").to_pylist())  # vectorized (r2)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "simhash": pa.array([f"{h:016x}" for h in hs], type=pa.string()),
            }
        )

    return ds.map_batches(fp, batch_format="pyarrow", zero_copy_batch=True)


def simhash_dup_groups(sf_dir: str):
    """Exact-SimHash duplicate buckets: fingerprint → grouped count/min-rep
    → groups with >1 member (near-dup at Hamming distance 0; Hamming ≤3 is
    simhash_near_dup's banded path).

    Shape (r3): (simhash, n, min_doc) merged by ``combine`` — the native
    per-fingerprint Count/Min paid the per-group aggregate tax on a
    corpus-sized key space, and the >1 filter was a per-row Python
    lambda; it is now one filter expression over the merged rows."""
    groups = combine(
        simhash_fingerprints(sf_dir), "simhash", {"n_docs": (None, "count"), "rep_doc": ("doc_id", "min")}
    )
    return groups.filter(expr="n_docs > 1")


#: 64-bit fingerprint split into four disjoint 16-bit chunks: two
#: fingerprints within Hamming distance 3 share AT LEAST one chunk
#: unchanged (pigeonhole), so chunk-bucket collision is a complete
#: candidate generator for max_hamming ≤ 3
SIMHASH_BANDS = 4

#: widened-banding escape hatch (VERDICT r3 #8): 6 chunks of widths
#: 11/11/11/11/10/10 and one band per 3-chunk combination (C(6,3) = 20
#: bands of ~32-bit keys — Manku/Jain/Sarma WWW'07's block-permutation
#: shape). For Hamming ≤ 3 at most 3 chunks change, so ≥ 3 survive and
#: some 3-combination is fully unchanged — completeness holds while the
#: bucket key space grows 2^16 → ~2^32, collapsing the per-bucket k² pair
#: blow-up (expected occupancy n/2^32 instead of n/2^16 per band).
SIMHASH_WIDE_CHUNKS = [(0, 11), (11, 11), (22, 11), (33, 11), (44, 10), (54, 10)]
SIMHASH_WIDE_COMBOS = [
    (i, j, k)
    for i in range(6)
    for j in range(i + 1, 6)
    for k in range(j + 1, 6)
]  # 20 bands
#: docs above which the wide banding kicks in: at the threshold the narrow
#: 16-bit buckets hold ~2e6/6.5e4 ≈ 30 docs/band-bucket — the point where
#: per-bucket pair generation starts to dominate the verify stage
SIMHASH_WIDEN_DOCS = 2_000_000


def simhash_near_dup_ds(fp_ds, max_hamming: int = 3, widen_docs: int | None = None):
    """(doc_id, fp:int64) Dataset → near-dup pairs at Hamming ≤ max_hamming
    (VERDICT r2 #5 — completes the near-dup family's third modality as a
    bucketed scale path; Hamming-0 exact buckets remain simhash_dup_groups).

    Shape mirrors minhash_candidates_ds: band rows (4 per doc, 3 int
    columns) → native count finds hot buckets → broadcast hot set →
    ``pc.is_in`` filter → per-bucket pair generation. The fingerprint rides
    the band row (8 bytes), so the popcount verify runs INSIDE the pair
    group — no second text/fingerprint join stage at all. Duplicate pairs
    from multi-band collisions collapse after verify (``_dedup_verified``).

    Partitioning: a 16-bit chunk bucket holds ~n/2^16 docs per band, so
    above ``widen_docs`` documents (default ``SIMHASH_WIDEN_DOCS``) the
    band keys switch to the WIDENED scheme (``SIMHASH_WIDE_CHUNKS`` /
    ``SIMHASH_WIDE_COMBOS``: 20 bands of 3-of-6-chunk ~32-bit keys) —
    completeness for Hamming ≤ 3 is preserved by the same pigeonhole
    argument while expected bucket occupancy drops to n/2^32. Both
    schemes produce identical verified pairs (pinned by tests with
    ``widen_docs=0``)."""
    import ray

    from ..functions.sketches import popcount64_vec

    if max_hamming > 3:
        raise ValueError(
            "simhash banding (narrow and wide) is complete only for "
            f"max_hamming <= 3, got {max_hamming}"
        )
    if widen_docs is None:
        widen_docs = SIMHASH_WIDEN_DOCS

    fp_ds = fp_ds.materialize()  # 2 int columns; counted for the gate, re-read for bands
    wide = fp_ds.count() > widen_docs

    def band_rows(t: pa.Table) -> pa.Table:
        fp = t.column("fp").to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64)
        doc = t.column("doc_id").to_numpy(zero_copy_only=False)
        if wide:
            chunks = [
                ((fp >> np.uint64(off)) & np.uint64((1 << w) - 1)).astype(np.int64)
                for off, w in SIMHASH_WIDE_CHUNKS
            ]
            buckets = [
                (np.int64(b) << 34) | (chunks[i] << 22) | (chunks[j] << 11) | chunks[k]
                for b, (i, j, k) in enumerate(SIMHASH_WIDE_COMBOS)
            ]
        else:
            buckets = [
                (((fp >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64)
                 | np.int64((b + 1) << 16))
                for b in range(SIMHASH_BANDS)
            ]
        n_bands = len(buckets)
        return pa.table(
            {
                "bucket": pa.array(np.concatenate(buckets), type=pa.int64()),
                "doc_id": pa.array(np.tile(doc, n_bands), type=pa.int64()),
                "fp": pa.array(np.tile(fp.view(np.int64), n_bands), type=pa.int64()),
            }
        )

    bands = fp_ds.map_batches(
        band_rows, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).materialize()  # 3 int columns; reused by count + pair passes

    empty = pd.DataFrame(
        {
            "doc_a": pd.Series([], dtype=np.int64),
            "doc_b": pd.Series([], dtype=np.int64),
            "hamming": pd.Series([], dtype=np.int64),
        }
    )
    hot = _hot_int_keys(
        bands, lambda t: t.column("bucket").to_numpy(zero_copy_only=False)
    )
    if hot is None:
        return empty
    hot_ref = ray.put(pa.array(hot, type=pa.int64()))

    def in_hot(t: pa.Table) -> pa.Table:
        return t.filter(pa.compute.is_in(t.column("bucket"), value_set=ray.get(hot_ref)))

    def pairs_verify(g: pd.DataFrame) -> pd.DataFrame:
        # every close pair within each band bucket of this hash bucket
        out = [empty]
        for _, band in g.groupby("bucket", sort=False):
            band = band.drop_duplicates("doc_id").sort_values("doc_id")
            ids = band["doc_id"].to_numpy(dtype=np.int64)
            fps = band["fp"].to_numpy(dtype=np.int64).view(np.uint64)
            ia, ib = np.triu_indices(len(ids), k=1)
            ham = popcount64_vec(fps[ia] ^ fps[ib])
            m = ham <= max_hamming
            out.append(pd.DataFrame({"doc_a": ids[ia][m], "doc_b": ids[ib][m], "hamming": ham[m]}))
        return pd.concat(out, ignore_index=True)

    verified = cogroup(bands.map_batches(in_hot, batch_format="pyarrow"), "bucket", pairs_verify)
    return _dedup_verified(verified, "doc_a", "doc_b", "hamming")


def simhash_near_dup(sf_dir: str, max_hamming: int = 3):
    """documents table → SimHash near-dup pairs (see simhash_near_dup_ds).
    Rows-only (bit-level fingerprint banding has no SQL equivalent)."""
    from ..functions.sketches import simhash64_batch

    def fp(batch: pa.Table) -> pa.Table:
        hs = simhash64_batch(batch.column("text").to_pylist())
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "fp": pa.array(np.asarray(hs, dtype=np.uint64).view(np.int64), type=pa.int64()),
            }
        )

    fp_ds = _read_docs(sf_dir, share=1.0).map_batches(
        fp, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return simhash_near_dup_ds(fp_ds, max_hamming=max_hamming)


def ngram_jaccard_pairs(sf_dir: str, threshold: float = 0.9, max_candidates: int = 500_000):
    """Char-trigram Jaccard near-dup: banded MinHash over trigram hashes as
    the blocking key (a single min-gram bucket degenerates on small
    vocabularies — most documents share the minimum trigram — measured
    O(n²) in one bucket), then exact trigram-set Jaccard on the candidate
    pairs. Returns (doc_a, doc_b, jaccard_r).

    NOTE on this synthetic corpus: the ~31-word vocabulary makes trigram
    sets uniformly similar across unrelated documents, so LSH cannot
    separate candidates the way it does on natural text. Candidate volume
    is therefore bounded by ``max_candidates`` (deterministic: lowest
    (doc_a, doc_b) first) and the drop is LOGGED, never silent.

    ``max_candidates`` semantics (changed in r2, per ADVICE): the limit
    truncates candidate ROWS — band-duplicated, since candidates are
    deduped only after verify — not distinct pairs; under truncation fewer
    distinct pairs are verified than a distinct-first limit would allow.
    Band duplicates sort adjacent under (doc_a, doc_b), so the kept prefix
    is still a deterministic set of whole pairs (at most the boundary pair
    loses duplicate rows, which verify absorbs)."""
    import logging

    cand_ds = minhash_candidates(sf_dir, mode="char")
    if cand_ds is None:
        return pd.DataFrame(_EMPTY_PAIRS)
    # band-duplicated candidates; dedup happens AFTER verify (see
    # minhash_near_dup_ds — candidate-group aggregates cost ~0.4 ms/group)
    pairs = cand_ds.materialize()  # 2 int cols, reused below
    n_cand = pairs.count()
    if n_cand == 0:
        return pd.DataFrame(_EMPTY_PAIRS)
    if n_cand > max_candidates:
        logging.getLogger(__name__).warning(
            "ngram_jaccard_pairs: %d candidate rows exceed max_candidates=%d; "
            "verifying the first %d by (doc_a, doc_b) — results are a bounded "
            "subset on this corpus",
            n_cand, max_candidates, max_candidates,
        )
        # distributed sort + limit: the deterministic lowest-(a,b) prefix
        # (band duplicates sort adjacent, so the prefix stays deterministic)
        pairs = pairs.sort(["doc_a", "doc_b"]).limit(max_candidates).materialize()
        n_cand = max_candidates
    verified = _verify_candidates(_read_docs(sf_dir, share=1.0), pairs, n_cand, _jaccard_char_ngrams, threshold)
    return _dedup_verified(verified, "doc_a", "doc_b", "jaccard_r")


def source_minhash_similarity(sf_dir: str, num_perm: int = 128, shingle_k: int = 3):
    """Pairwise corpus-slice similarity via MERGEABLE MinHash sketches: one
    signature per `source`, built as the elementwise MIN of its documents'
    signatures (min-merge == signature of the shingle-set UNION), then
    estimated Jaccard = fraction of agreeing slots for every source pair.
    The corpus-overlap audit you run before mixing data sources.

    Scale shape: per batch one (source, slot, sig) row per document and
    signature slot, and ``combine`` takes the ``min`` per (source, slot)
    (its per-batch partial keeps one row per source and slot, so the
    corpus never shuffles); |sources|·num_perm merged rows reach the
    driver for the closed-form pair table.
    Estimator s.e. ≈ 1/√num_perm. Returns (source_a, source_b, est_jaccard)
    with source_a < source_b."""
    from ..functions.sketches import MinHasher, doc_shingle_hashes_batch

    ds = _read_docs(sf_dir, ("source", "text"))
    mh = MinHasher(num_perm=num_perm, shingle_k=shingle_k)

    def slots(t: pa.Table) -> pa.Table:
        concat, offsets = doc_shingle_hashes_batch(t.column("text").to_pylist(), shingle_k)
        sigs = mh.signatures_from_concat(concat, offsets)  # (n, num_perm), < 2^31
        return pa.table(
            {
                "source": t.column("source").take(np.repeat(np.arange(t.num_rows), num_perm)),
                "slot": pa.array(np.tile(np.arange(num_perm, dtype=np.int64), t.num_rows)),
                "sig": pa.array(sigs.ravel().astype(np.int64)),
            }
        )

    rows = ds.map_batches(slots, batch_format="pyarrow", zero_copy_batch=True)
    final = combine_frame(rows, ["source", "slot"], {"sig": ("sig", "min")})  # sorted by (source, slot)
    names = final["source"].to_numpy()[::num_perm]
    mat = final["sig"].to_numpy(np.int64).reshape(len(names), num_perm)
    ia, ib = np.triu_indices(len(names), k=1)
    est = (mat[ia] == mat[ib]).mean(axis=1)

    # EXACT-Jaccard audit over the SAME hashed shingle universe, computed
    # in the same run (VERDICT r4 #6): per batch, distinct (source,
    # shingle-hash) pairs; ONE shingle-hash bucket co-group builds the
    # per-bucket source×shingle incidence and emits the S×S intersection
    # partial (M.T @ M) plus per-source distinct counts — a shingle lives
    # in exactly one bucket, so partials ADD; the driver sums one S²-int
    # row per bucket and closes the algebra (union = |A|+|B|−inter). Ground truth
    # for the MinHash estimator, which samples this exact universe.
    sidx = {s: i for i, s in enumerate(names)}
    S = len(names)

    def sh_pairs(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        concat, offsets = doc_shingle_hashes_batch(texts, shingle_k)
        lens = np.diff(offsets)
        src = t.column("source").to_pylist()
        si = np.repeat(
            np.fromiter((sidx[s] for s in src), np.int64, len(src)), lens
        )
        df = pd.DataFrame({"si": si, "h": concat.astype(np.int64)}).drop_duplicates()
        return pa.table(
            {
                "si": pa.array(df["si"].to_numpy()),
                "h": pa.array(df["h"].to_numpy()),
            }
        )

    def bucket_inter(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["si", "h"])
        codes, uniq = pd.factorize(g["h"], sort=False)
        m = np.zeros((len(uniq), S), dtype=np.int64)
        m[codes, g["si"].to_numpy()] = 1
        inter = m.T @ m  # S×S; diagonal = per-source distinct counts
        return pd.DataFrame({"flat": [inter.ravel().tolist()]})

    parts = cogroup(
        ds.map_batches(sh_pairs, batch_format="pyarrow", zero_copy_batch=True), "h", bucket_inter
    ).take_all()  # one row per bucket
    inter = sum((np.asarray(r["flat"], dtype=np.int64) for r in parts), np.zeros(S * S, np.int64)).reshape(S, S)
    sizes = np.diag(inter)
    inter_ab = inter[ia, ib]
    union_ab = sizes[ia] + sizes[ib] - inter_ab
    exact = inter_ab / np.maximum(union_ab, 1)

    return pa.table(
        {
            "source_a": pa.array(names[ia], pa.string()),
            "source_b": pa.array(names[ib], pa.string()),
            "est_jaccard": pa.array(np.round(est, 6)),
            "exact_jaccard": pa.array(np.round(exact, 6)),
            "abs_err": pa.array(np.round(np.abs(est - exact), 6)),
        }
    )
