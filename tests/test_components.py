"""Distributed connected components vs a driver-side union-find reference."""

from __future__ import annotations

import pandas as pd

from pdf_extractor_ray.pipelines.dedup import connected_components, dup_components


def _union_find(pairs):
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    # canonical: min node per component
    return {n: find(n) for n in list(parent)}


def _check(pairs, **kw):
    df = pd.DataFrame(pairs, columns=["doc_a", "doc_b"])
    got = connected_components(df, **kw).to_pandas()
    want = _union_find(pairs)
    got_map = dict(zip(got.node, got.component))
    assert got_map == want


def test_components_chain_and_clique_and_singletons():
    # chain 1-2-3-4, clique {10,11,12}, separate pair {20,21}
    _check([(1, 2), (2, 3), (3, 4), (10, 11), (11, 12), (10, 12), (20, 21)])


def test_components_distributed_rounds_match_union_find():
    # driver_threshold=0 forces the distributed star-contraction path;
    # diameter-6 chain + clique exercises multi-round convergence
    _check(
        [(i, i + 1) for i in range(6)] + [(10, 11), (11, 12), (10, 12)],
        driver_threshold=0,
    )


def test_components_long_chain_on_the_distributed_path_is_one_component():
    """A 41-node chain is one component on the distributed path too: the
    star rounds need O(log n) of them whatever the diameter. Min-label
    propagation stopped after 15 rounds and split this chain into 26
    components without a warning."""
    pairs = pd.DataFrame([(i, i + 1) for i in range(40)], columns=["doc_a", "doc_b"])
    got = connected_components(pairs, driver_threshold=0).to_pandas()
    assert dict(zip(got.node, got.component)) == dict.fromkeys(range(41), 0)


def test_star_components_raise_when_rounds_run_out():
    """Unconverged labels are never returned: one round cannot reach the
    fixpoint of a chain, so the star path raises."""
    import pytest

    from pdf_extractor_ray.pipelines.dedup import connected_components_star

    chain = pd.DataFrame([(i, i + 1) for i in range(8)], columns=["doc_a", "doc_b"])
    with pytest.raises(RuntimeError, match="max_rounds=1"):
        connected_components_star(chain, max_rounds=1)


def test_components_star_and_cross_links():
    _check([(5, 50), (5, 51), (5, 52), (52, 99), (99, 100), (7, 8)])


def test_components_dataset_input_distributed_path():
    # a Dataset input must flow through WITHOUT a driver to_pandas on the
    # distributed path (r2: crossover decided from a count)
    import ray.data as rd

    pairs = [(i, i + 1) for i in range(6)] + [(10, 11), (11, 12), (10, 12)]
    ds = rd.from_pandas(pd.DataFrame(pairs, columns=["doc_a", "doc_b"]))
    got = connected_components(ds, driver_threshold=0).to_pandas()
    assert dict(zip(got.node, got.component)) == _union_find(pairs)

    from pdf_extractor_ray.pipelines.dedup import connected_components_star

    got2 = connected_components_star(
        rd.from_pandas(pd.DataFrame(pairs, columns=["doc_a", "doc_b"]))
    ).to_pandas()
    assert dict(zip(got2.node, got2.component)) == _union_find(pairs)


def test_dup_components_over_embeddings(sf_dir):
    out = dup_components(sf_dir).to_pandas()
    # every node labelled, component is the min member
    assert (out.component <= out.node).all()
    assert len(out) > 0
    # components are consistent: a node used as a component id labels itself
    roots = set(out.component)
    mapped = dict(zip(out.node, out.component))
    for r in roots:
        assert mapped.get(r, r) == r


def test_embedding_lsh_recall_against_exact(sf_dir):
    """embedding_dup_exact is the O(n²) recall yardstick (tests only);
    dup_components' LSH generator must find ≥90% of its pairs with perfect
    precision (verify stage is exact)."""
    from pdf_extractor_ray.pipelines.similarity import (
        embedding_dup_exact,
        embedding_near_dup,
    )

    ex = embedding_dup_exact(sf_dir, threshold=0.4).to_pandas()
    ls = embedding_near_dup(sf_dir, threshold=0.4, n_bands=16, planes_per_band=4).to_pandas()
    ex_set = set(zip(ex.vec_a, ex.vec_b))
    ls_set = set(zip(ls.vec_a.astype(int), ls.vec_b.astype(int)))
    assert ls_set <= ex_set  # exact verify ⇒ precision 1.0
    assert len(ex_set & ls_set) / len(ex_set) >= 0.9


def test_ivf_recall_against_exact_topk(sf_dir):
    """Trained IVF codebook: probe results overlap the exact top-k well and
    the codebook is deterministic across calls."""
    import numpy as np

    from pdf_extractor_ray.pipelines.similarity import (
        ann_topk,
        ann_topk_ivf,
        deterministic_kmeans,
    )

    exact = set(ann_topk(sf_dir).vec_id)
    probed = set(ann_topk_ivf(sf_dir).vec_id)
    assert len(exact & probed) >= 5  # ≥50% recall at n_probe=3/8

    rng_free = np.arange(400, dtype=np.float64).reshape(20, 20)
    assert np.array_equal(
        deterministic_kmeans(rng_free, 4), deterministic_kmeans(rng_free.copy(), 4)
    )


def test_star_components_match_union_find():
    from pdf_extractor_ray.pipelines.dedup import connected_components_star

    cases = [
        # chain, clique, pair, star
        [(1, 2), (2, 3), (3, 4), (10, 11), (11, 12), (10, 12), (20, 21)],
        [(i, i + 1) for i in range(15)],  # long chain: O(log n) rounds
        [(5, 50), (5, 51), (5, 52), (52, 99), (99, 100), (7, 8)],
    ]
    for pairs in cases:
        df = pd.DataFrame(pairs, columns=["doc_a", "doc_b"])
        got = connected_components_star(df).to_pandas()
        want = _union_find(pairs)
        assert dict(zip(got.node, got.component)) == want, pairs


def test_kmeans_clusters_recovers_planted_structure(ray_session, tmp_path):
    """Distributed Lloyd over the full table: on WELL-SEPARATED planted
    clusters (the sf embeddings are near-isotropic — measured within-label
    cos 0.02) the final assignment must recover the planted partition
    exactly, be deterministic across runs, and be self-consistent (every
    vector in its nearest final-centroid cluster)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.similarity import kmeans_clusters

    k, per, d = 5, 200, 16
    # deterministic separated directions: blocks of an identity-ish basis
    base = np.zeros((k, d))
    for i in range(k):
        base[i, i * 3 : i * 3 + 3] = 1.0
    rng = np.random.default_rng(7)  # test-local corpus synthesis only
    pts = np.repeat(base, per, axis=0) + rng.normal(0, 0.05, (k * per, d))
    planted = np.repeat(np.arange(k), per)
    # interleave so the first k seed vectors land in k DIFFERENT clusters
    order = np.argsort(np.tile(np.arange(per), k), kind="stable")
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(np.arange(k * per, dtype=np.int64)),
                "embedding": pa.array(
                    [list(v) for v in pts[order].astype(np.float32)],
                    pa.list_(pa.float32()),
                ),
                "label": pa.array(planted[order].astype(np.int32)),
            }
        ),
        tmp_path / "embeddings.parquet",
    )

    df = kmeans_clusters(str(tmp_path), k=k, n_iters=5).to_pandas()
    lab = pd.read_parquet(tmp_path / "embeddings.parquet", columns=["vec_id", "label"])
    m = df.merge(lab, on="vec_id")
    maj = m.groupby("cluster").label.agg(lambda s: s.mode()[0])
    assert (m.label == m.cluster.map(maj)).mean() == 1.0
    assert m.cluster.nunique() == k

    df2 = kmeans_clusters(str(tmp_path), k=k, n_iters=5).to_pandas()
    assert df.sort_values("vec_id").reset_index(drop=True).equals(
        df2.sort_values("vec_id").reset_index(drop=True)
    )


def test_semdedup_prunes_planted_duplicates(ray_session, tmp_path):
    """SemDeDup on a corpus with planted near-duplicate groups: every planted
    group loses all but ONE member, singletons all survive, the kept member is
    the lowest-centroid-cosine one per the paper's rule, and the output is
    deterministic across runs."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.similarity import semdedup

    k, d = 4, 16
    rng = np.random.default_rng(11)  # test-local corpus synthesis only
    base = np.zeros((k, d))
    for i in range(k):
        base[i, i * 4 : i * 4 + 4] = 1.0
    rows, group_of = [], []
    gid = 0
    for ci in range(k):
        # 10 singletons (well-spread noise) + 3 duplicate groups of size 3
        for _ in range(10):
            rows.append(base[ci] + rng.normal(0, 0.25, d))
            group_of.append(gid)
            gid += 1
        for _ in range(3):
            proto = base[ci] + rng.normal(0, 0.25, d)
            for _ in range(3):
                rows.append(proto + rng.normal(0, 0.001, d))
                group_of.append(gid)
            gid += 1
    pts = np.asarray(rows)
    n = len(pts)
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(np.arange(n, dtype=np.int64)),
                "embedding": pa.array(
                    [list(v) for v in pts.astype(np.float32)], pa.list_(pa.float32())
                ),
            }
        ),
        tmp_path / "embeddings.parquet",
    )

    df = semdedup(str(tmp_path), k=k, n_iters=4, eps=0.02).to_pandas()
    assert len(df) == n
    df["group"] = df.vec_id.map(dict(enumerate(group_of)))
    kept = df[~df.is_dup]
    # exactly one survivor per planted duplicate group, all singletons kept
    assert (kept.groupby("group").size() == 1).all()
    assert kept.group.nunique() == df.group.nunique()

    df2 = semdedup(str(tmp_path), k=k, n_iters=4, eps=0.02).to_pandas()
    assert df.drop(columns="group").sort_values("vec_id").reset_index(drop=True).equals(
        df2.sort_values("vec_id").reset_index(drop=True)
    )


def test_semdedup_chunked_matches_unchunked(ray_session, tmp_path):
    """The chunked upper-triangular matmul must be decision-identical to a
    single full matmul (chunk larger than any cluster)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.similarity import semdedup

    rng = np.random.default_rng(3)  # test-local corpus synthesis only
    pts = rng.normal(0, 1, (120, 8))
    pts[40:44] = pts[39] + rng.normal(0, 1e-4, (4, 8))  # one dup clump
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(np.arange(len(pts), dtype=np.int64)),
                "embedding": pa.array(
                    [list(v) for v in pts.astype(np.float32)], pa.list_(pa.float32())
                ),
            }
        ),
        tmp_path / "embeddings.parquet",
    )
    a = semdedup(str(tmp_path), k=3, n_iters=2, eps=0.05, chunk=7).to_pandas()
    b = semdedup(str(tmp_path), k=3, n_iters=2, eps=0.05, chunk=10_000).to_pandas()
    assert a.sort_values("vec_id").reset_index(drop=True).equals(
        b.sort_values("vec_id").reset_index(drop=True)
    )


def test_cluster_balanced_sample_bounds_and_determinism(ray_session, tmp_path):
    """Planted 3-cluster corpus with skewed sizes (60/30/6): the sample must
    take exactly per_cluster from big clusters, EVERYTHING from the small
    one, agree with the kmeans assignment, and repeat bit-identically."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.similarity import (
        cluster_balanced_sample,
        kmeans_clusters,
    )

    rng = np.random.default_rng(11)  # test-local corpus synthesis only
    centers = np.eye(3, 8) * 50
    sizes = [60, 30, 6]
    pts = np.concatenate(
        [c + rng.normal(0, 0.1, (n, 8)) for c, n in zip(centers, sizes)]
    )
    order = rng.permutation(len(pts))
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(np.arange(len(pts), dtype=np.int64)),
                "embedding": pa.array(
                    [list(v) for v in pts[order].astype(np.float32)],
                    pa.list_(pa.float32()),
                ),
            }
        ),
        tmp_path / "embeddings.parquet",
    )
    k, per = 3, 10
    df = cluster_balanced_sample(str(tmp_path), k=k, n_iters=5, per_cluster=per).to_pandas()
    assigns = kmeans_clusters(str(tmp_path), k=k, n_iters=5).to_pandas()
    csize = assigns.groupby("cluster").size()
    got = df.groupby("cluster").size()
    assert (got == csize.clip(upper=per)).all()
    # sampled (vec_id, cluster) pairs are a subset of the assignment
    merged = df.merge(assigns, on="vec_id", suffixes=("", "_full"))
    assert (merged.cluster == merged.cluster_full).all()
    # bit-identical on rerun (splitmix64 order, no RNG)
    df2 = cluster_balanced_sample(str(tmp_path), k=k, n_iters=5, per_cluster=per).to_pandas()
    key = ["cluster", "vec_id"]
    assert df.sort_values(key).reset_index(drop=True).equals(
        df2.sort_values(key).reset_index(drop=True)
    )


def test_source_minhash_similarity_vs_bruteforce(ray_session, tmp_path):
    """Planted-overlap corpus: est_jaccard must track the TRUE shingle-set
    Jaccard within MinHash error (s.e. ≈ 1/√128 ≈ 0.09), order the pairs
    correctly, and be bit-identical across runs (merge = elementwise min —
    order-free)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.functions.sketches import shingles
    from pdf_extractor_ray.pipelines.dedup import source_minhash_similarity

    rng = np.random.default_rng(7)  # test-local corpus synthesis only
    vocab1 = [f"tok{i}" for i in range(60)]
    vocab2 = [f"alt{i}" for i in range(60)]

    def doc(vocab):
        return " ".join(rng.choice(vocab, size=30))

    rows = []
    shared = [doc(vocab1) for _ in range(40)]
    for t in shared:
        rows.append({"doc_id": len(rows), "text": t, "source": "A"})
    for t in shared:
        rows.append({"doc_id": len(rows), "text": t, "source": "B"})
    for _ in range(10):
        rows.append({"doc_id": len(rows), "text": doc(vocab1), "source": "B"})
    for _ in range(50):
        rows.append({"doc_id": len(rows), "text": doc(vocab2), "source": "C"})
    pq.write_table(pa.Table.from_pylist(rows), tmp_path / "documents.parquet")

    df = source_minhash_similarity(str(tmp_path), num_perm=128).to_pandas()
    df = df.set_index(["source_a", "source_b"])["est_jaccard"]

    # brute-force true Jaccard over unioned 3-shingle sets
    sets = {}
    for r in rows:
        sets.setdefault(r["source"], set()).update(shingles(r["text"], 3).tolist())
    for a, b in [("A", "B"), ("A", "C"), ("B", "C")]:
        true = len(sets[a] & sets[b]) / len(sets[a] | sets[b])
        assert abs(df[(a, b)] - true) < 0.15, (a, b, df[(a, b)], true)
    assert df[("A", "B")] > 0.5 > df[("A", "C")]
    assert df[("A", "C")] < 0.1 and df[("B", "C")] < 0.1

    df2 = source_minhash_similarity(str(tmp_path), num_perm=128).to_pandas()
    # r5: output gained exact_jaccard/abs_err audit columns — determinism
    # check compares the estimate columns
    assert df.reset_index().equals(df2[["source_a", "source_b", "est_jaccard"]])
    # audit columns: exact == brute-force truth on this constructed corpus
    for r in df2.itertuples(index=False):
        true = len(sets[r.source_a] & sets[r.source_b]) / len(
            sets[r.source_a] | sets[r.source_b]
        )
        assert abs(r.exact_jaccard - true) < 1e-6


def test_pca_project_matches_local_and_captures_structure(ray_session, tmp_path):
    """Planted 2-dominant-direction data: the distributed moment-partial PCA
    must match a local numpy PCA on the same data (same covariance up to
    summation order), capture the planted variance in the first two
    coordinates, and be deterministic across runs."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.similarity import pca_project

    rng = np.random.default_rng(3)  # test-local corpus synthesis only
    n, d = 400, 16
    base = rng.normal(0, 0.05, (n, d))
    dir1 = np.zeros(d); dir1[0] = 1.0
    dir2 = np.zeros(d); dir2[3] = 1.0
    pts = base + np.outer(rng.normal(0, 5, n), dir1) + np.outer(rng.normal(0, 2, n), dir2)
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(np.arange(n, dtype=np.int64)),
                "embedding": pa.array([list(v) for v in pts.astype(np.float32)], pa.list_(pa.float32())),
            }
        ),
        tmp_path / "embeddings.parquet",
    )
    got = pca_project(str(tmp_path), d_out=2).to_pandas().sort_values("vec_id")
    proj = np.stack([np.asarray(v) for v in got["proj"]])

    # local reference on the float32-roundtripped data
    m = pts.astype(np.float32).astype(np.float64)
    cov = (m.T @ m) / n - np.outer(m.mean(axis=0), m.mean(axis=0))
    w, v = np.linalg.eigh(cov)
    comps = v[:, ::-1][:, :2]
    flip = np.sign(comps[np.argmax(np.abs(comps), axis=0), np.arange(2)])
    ref = np.round((m - m.mean(axis=0)) @ (comps * flip), 6)
    assert np.allclose(proj, ref, atol=1e-4)

    # the two planted directions dominate: projected variance ≈ total planted
    var_kept = proj.var(axis=0).sum()
    var_total = m.var(axis=0).sum()
    assert var_kept / var_total > 0.98

    again = pca_project(str(tmp_path), d_out=2).to_pandas().sort_values("vec_id")
    assert got.reset_index(drop=True).equals(again.reset_index(drop=True))


def test_exact_quantile_edge_cases(ray_session, tmp_path):
    """Constructed distributions the sf tables can't exercise: heavy
    duplicates, a two-value column, extreme q, and a range smaller than
    n_bins — each must match quantile_disc rank semantics exactly
    (rank = max(ceil(q*n), 1), result is an element of the column)."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.relational import exact_quantile

    rng = np.random.default_rng(5)  # test-local corpus synthesis only
    cases = [
        np.round(rng.uniform(1, 100000, 5000), 2),          # wide range (3 passes)
        np.repeat([10.00, 20.00], [4999, 1]),               # extreme skew
        np.full(1000, 42.42),                               # single value
        np.round(rng.choice([1.01, 1.02, 1.03], 777), 2),   # range << n_bins
    ]
    qs = (0.001, 0.5, 0.9, 0.99, 1.0)
    con = duckdb.connect()
    for i, vals in enumerate(cases):
        p = tmp_path / f"c{i}"
        p.mkdir()
        pq.write_table(pa.table({"l_extendedprice": pa.array(vals, pa.float64())}), p / "lineitem.parquet")
        got = exact_quantile(str(p), qs=qs).to_pandas().set_index("q")["val"]
        for q in qs:
            want = con.sql(
                f"SELECT quantile_disc(l_extendedprice, {q}) FROM read_parquet('{p}/lineitem.parquet')"
            ).fetchone()[0]
            assert got[q] == want, (i, q, got[q], want)


def test_funnel_conversion_ordering_semantics(ray_session, tmp_path):
    """Constructed event orderings the sf corpus can't pin: a click BEFORE
    the first view must not count, equal timestamps must not count
    (strict >), and a later qualifying event must rescue the user."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.relational import funnel_conversion

    T = pd.Timestamp("2024-01-01")
    s = pd.Timedelta(seconds=1)
    rows = []

    def ev(u, t, typ):
        rows.append({"user_id": u, "ts": t, "event_type": typ})

    # u1: perfect funnel
    ev(1, T, "view"); ev(1, T + s, "click"); ev(1, T + 2 * s, "purchase")
    # u2: click before view only -> stops at view
    ev(2, T + s, "view"); ev(2, T, "click")
    # u3: click at SAME ts as first view (strict >) -> stops at view
    ev(3, T, "view"); ev(3, T, "click")
    # u4: early click ignored, later click counts; purchase between view and
    # click (before click) must NOT count
    ev(4, T, "click"); ev(4, T + s, "view"); ev(4, T + 2 * s, "purchase"); ev(4, T + 3 * s, "click")
    # u5: no funnel events at all
    ev(5, T, "error")
    pq.write_table(
        pa.Table.from_pylist(rows).set_column(
            1, "ts", pa.Table.from_pylist(rows).column("ts").cast(pa.timestamp("us"))
        ),
        tmp_path / "events.parquet",
    )
    df = funnel_conversion(str(tmp_path)).to_pandas().set_index("step")["n_users"]
    assert df["view"] == 4           # u1-u4
    assert df["view>click"] == 2     # u1, u4
    assert df["view>click>purchase"] == 1  # u1 only


def test_kmeans_resumable_crash_and_bit_identity(ray_session, tmp_path):
    """Kill the Lloyd loop between iteration checkpoints, resume, and
    require the final assignments to be BIT-identical to an uninterrupted
    kmeans_clusters; a third run must skip every iteration (no recompute),
    and a different sf_dir fingerprint must invalidate the snapshots."""
    import pytest

    from pdf_extractor_ray.pipelines.similarity import (
        kmeans_clusters,
        kmeans_clusters_resumable,
    )

    SF_EMB = "/root/testdata/sf0.001"
    out = str(tmp_path / "ck")
    with pytest.raises(RuntimeError, match="simulated crash"):
        kmeans_clusters_resumable(SF_EMB, out, k=4, n_iters=6, fail_after_iters=3)

    res = kmeans_clusters_resumable(SF_EMB, out, k=4, n_iters=6)
    assert res["iters_skipped"] == 3 and res["iters_run"] == 3
    got = res["assignments"].to_pandas().sort_values("vec_id").reset_index(drop=True)
    ref = (
        kmeans_clusters(SF_EMB, k=4, n_iters=6)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    assert got.equals(ref)

    res2 = kmeans_clusters_resumable(SF_EMB, out, k=4, n_iters=6)
    assert res2["iters_run"] == 0 and res2["iters_skipped"] == 6

    # fingerprint invalidation: same out_dir, different n_iters → no reuse
    res3 = kmeans_clusters_resumable(SF_EMB, out, k=4, n_iters=7)
    assert res3["iters_skipped"] == 0 and res3["iters_run"] == 7


def test_pq_adc_rerank_recall_against_exact(sf_dir):
    """Product-quantization ANN: the ADC code scan builds a shortlist and
    the exact re-rank finishes — recall@10 vs brute-force cosine must
    clear 0.7 at the defaults (m=8 subspaces × 4-bit codes packed in one
    int64, R=100 shortlist); every returned id must also be IN the ADC
    shortlist by construction (rank column dense 1..k)."""
    from pdf_extractor_ray.pipelines.similarity import ann_topk, pq_ann_topk

    pq = pq_ann_topk(sf_dir)
    brute = ann_topk(sf_dir)
    assert list(pq["rank"]) == list(range(1, len(pq) + 1))
    recall = len(set(pq.vec_id) & set(brute.vec_id)) / len(brute)
    assert recall >= 0.7, f"PQ recall@10 {recall} below pin"
