"""End-to-end Ray Data pipeline tests for the flagship extraction."""

from __future__ import annotations

import pyarrow as pa

from pdf_extractor_ray import corpus
from pdf_extractor_ray.pipelines.extract import extract_pages, quality_by_host


def _extract(sf_dir):
    pages = corpus.read_pages(sf_dir)
    return extract_pages(pages)


def test_pipeline_byte_identity_vs_documents(sf_dir, documents_table):
    """The distributed pipeline recovers the embedded text byte-identically,
    keyed by doc_id (order-insensitive — parallel execution reorders rows)."""
    out = _extract(sf_dir).to_pandas()
    want = {
        d: t
        for d, t in zip(
            documents_table.column("doc_id").to_pylist(),
            documents_table.column("text").to_pylist(),
        )
    }
    assert len(out) == len(want)
    ok = out[out.status == "ok"]
    for d, txt in zip(ok.doc_id, ok.extracted_text):
        assert txt == want[d], f"doc {d} not byte-identical"
    # malformed rows diverted, never dropped silently
    bad = out[out.status != "ok"]
    expect_bad = {d for d, t in want.items() if corpus.is_malformed_doc(d) or len(t) == 0}
    assert set(bad.doc_id) == expect_bad
    assert (bad.error.notna()).all()


def test_pipeline_schema_and_lineage_columns(sf_dir):
    ds = _extract(sf_dir)
    schema = ds.schema()
    names = schema.names
    for col in (
        "doc_id url status extracted_text spans n_blocks doc_kind "
        "extractor extractor_version error lang host part_id".split()
    ):
        assert col in names
    t = pa.Table.from_pandas(ds.limit(5).to_pandas())
    assert t.num_rows == 5


def test_quality_by_host_matches_driver_side_rollup(sf_dir, documents_table):
    ext = _extract(sf_dir)
    q = quality_by_host(ext).to_pandas().set_index("host")
    # driver-side oracle from the same deterministic corpus
    import collections

    want_pages = collections.Counter(
        corpus.host_for_doc(d) for d in documents_table.column("doc_id").to_pylist()
    )
    assert q["n_pages"].sum() == documents_table.num_rows
    for host, n in want_pages.items():
        assert q.loc[host, "n_pages"] == n
    assert (q["n_ok"] + q["n_error"] + q["n_empty"] == q["n_pages"]).all()


def test_part_id_is_stable_partitioning_key(sf_dir):
    out = _extract(sf_dir).to_pandas()
    assert out.part_id.between(0, 15).all()
    # same url always lands in the same partition (resume invariant)
    again = _extract(sf_dir).to_pandas()
    m1 = dict(zip(out.url, out.part_id))
    m2 = dict(zip(again.url, again.part_id))
    assert m1 == m2


def test_extraction_is_independent_of_batch_split_and_order(documents_table):
    """Aim-3 invariant: the sf0.001 pages extracted as one batch, in 64-row
    slices and in reversed row order give identical rows keyed by doc_id,
    and each call keeps its input's row order."""
    from pdf_extractor_ray.stages.extract import ExtractDocuments

    pages = corpus.pages_batch_from_documents(documents_table)
    ex = ExtractDocuments()

    def keyed(tables):
        rows = [r for t in tables for r in t.to_pylist()]
        return {r["doc_id"]: r for r in rows}

    whole = ex(pages)
    assert whole.column("doc_id").equals(pages.column("doc_id"))
    sliced = [ex(pages.slice(i, 64)) for i in range(0, pages.num_rows, 64)]
    reversed_pages = pages.take(list(range(pages.num_rows - 1, -1, -1)))
    backwards = ex(reversed_pages)
    assert backwards.column("doc_id").equals(reversed_pages.column("doc_id"))

    want = keyed([whole])
    assert len(want) == documents_table.num_rows
    assert keyed(sliced) == want
    assert keyed([backwards]) == want


def test_extraction_plan_has_no_all_to_all(ray_session):
    """Scale guard: the flagship extraction path must stay a pure streaming
    map chain — NO shuffle stage (Sort/Aggregate/AllToAll) may creep into
    read → synthesize → extract → filter. A shuffle here would turn the
    100 TB linear pass into an all-to-all exchange."""
    from pdf_extractor_ray.pipelines.textops import extract_pages_text

    ds = extract_pages_text("/root/testdata/sf0.001")
    ds = ds.materialize()
    stats = ds.stats()
    for marker in ("Sort", "AllToAll", "Aggregate", "Shuffle"):
        assert marker not in stats, f"extraction plan gained a {marker} stage:\n{stats[:600]}"
