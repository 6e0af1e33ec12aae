"""FIXTURES.md §4 edge cases: oversized docs, duplicate urls, empty docs."""

from __future__ import annotations

import pyarrow as pa

from pdf_extractor_ray import corpus
from pdf_extractor_ray.pipelines.extract import dedup_extracted_by_url, extract_pages
from pdf_extractor_ray.stages.extract import ExtractDocuments
from pdf_extractor_ray.stages.html_extract import extract_html
from pdf_extractor_ray.stages.pdf_extract import PdfLayoutExtractor


def test_oversized_single_document_html_and_pdf():
    """One wide binary row (FIXTURES §4): a 200k-word document round-trips
    through both payload kinds without truncation."""
    text = " ".join(f"w{i}" for i in range(200_000))
    r = extract_html(corpus.render_html(1, text, "big.example.com"))
    assert r["status"] == "ok" and r["extracted_text"] == text
    r = PdfLayoutExtractor().extract(corpus.render_pdf(1, text))
    assert r["status"] == "ok" and r["extracted_text"] == text
    # 200k words / (2 cols × 20 lines × 5 words) = 1000 pages
    assert len(r["spans"]) == 1000


def test_zero_transaction_document_is_valid_empty():
    """Empty documents are valid with zero output (reference:
    wellsfargo_mastercard_parser.py:90-92 returns an empty list)."""
    r = PdfLayoutExtractor().extract(corpus.render_pdf(3, ""))
    assert r["status"] == "empty"
    assert r["error"] == "no_content_tokens"


def test_duplicate_url_rows_dedup_prefers_ok_then_lowest_doc_id():
    text = "duplicate page body with enough characters to classify as content " * 3
    batch = pa.table(
        {
            "doc_id": [11, 7, 5],
            "url": ["https://x.example/doc/1"] * 3,
            "html": [
                corpus.render_html(11, text.strip(), "x.example"),
                corpus.render_html(7, text.strip(), "x.example"),
                corpus.render_html(7, text.strip(), "x.example")[:25],  # error/empty dup
            ],
            "lang": ["en"] * 3,
        }
    )
    import ray.data as rd

    ext = rd.from_arrow(batch).map_batches(
        lambda b: ExtractDocuments()(b), batch_format="pyarrow"
    )
    out = dedup_extracted_by_url(ext).to_pandas()
    assert len(out) == 1
    assert out.iloc[0].doc_id == 7  # ok row with the lowest doc_id wins
    assert out.iloc[0].status == "ok"


def test_extract_pages_on_replicated_corpus_keeps_urls_unique(sf_dir):
    pages = corpus.read_pages(sf_dir, replicate=2, fanout_blocks=8)
    out = extract_pages(pages).to_pandas()
    assert len(out) == 1000
    assert out.url.is_unique  # replicas get distinct doc_ids → distinct urls


def test_context_helpers_set_block_size():
    from ray.data import DataContext

    from pdf_extractor_ray.context import MiB, quiet, tune_for_wide_binary

    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    try:
        tune_for_wide_binary(ctx, max_payload_bytes=2 * MiB, target_rows_per_block=32)
        assert ctx.target_max_block_size == 64 * MiB
        assert ctx.execution_options.preserve_order is False
        quiet(ctx)
        assert ctx.enable_progress_bars is False
    finally:
        ctx.target_max_block_size = old


def test_extracted_contract_validation(sf_dir):
    import pytest as _pytest
    import pyarrow as pa
    import ray.data as rd

    from pdf_extractor_ray.stages.validate import invariant_violations, validate_extracted

    ext = extract_pages(corpus.read_pages(sf_dir, fanout_blocks=8))
    # the real pipeline satisfies the contract in strict mode
    assert validate_extracted(ext, strict=True).count() == 500

    # a corrupted row is caught — corrupt in ARROW (nested spans don't
    # round-trip through pandas, ray_guide pitfall)
    batches = list(
        extract_pages(corpus.read_pages(sf_dir, fanout_blocks=8))
        .limit(4)
        .iter_batches(batch_format="pyarrow", batch_size=4)
    )
    tbl = pa.concat_tables(batches)  # iter_batches(pyarrow) yields Tables
    n = tbl.num_rows
    tbl = tbl.set_column(
        tbl.column_names.index("status"), "status",
        pa.array(["ok"] * n, pa.string()),
    )
    tbl = tbl.set_column(
        tbl.column_names.index("extracted_text"), "extracted_text",
        pa.array([""] + tbl.column("extracted_text").to_pylist()[1:], pa.large_string()),
    )
    tbl = tbl.set_column(
        tbl.column_names.index("error"), "error",
        pa.array([None] * n, pa.string()),
    )
    reasons = invariant_violations(tbl)
    assert "ok_without_text" in set(reasons.to_pylist())
    bad_ds = rd.from_arrow(tbl)
    with _pytest.raises(Exception, match="contract violation"):
        validate_extracted(bad_ds, strict=True).count()
    diverted = validate_extracted(bad_ds, strict=False).to_pandas()
    assert diverted.contract_violation.notna().sum() == 1


def test_heavy_hitter_tokens_truncation_path(tmp_path):
    """Force per-batch Misra-Gries truncation (batch vocabulary ≫ k) and
    check the verify pass still returns the EXACT heavy-hitter set with
    exact counts — the sketch bounds what crosses the exchange, never the
    answer. Includes a just-under-threshold family that truncation would
    wrongly admit or drop if the error accounting were off."""
    from collections import Counter

    import pandas as pd
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.relational import heavy_hitter_tokens

    phi = 0.05  # k = 40 counters; the tail gives ~2000 distinct per batch
    texts = [f"hot common{i % 7} tail{i}" for i in range(2000)]
    pq.write_table(
        pa.Table.from_pylist([{"doc_id": i, "text": t} for i, t in enumerate(texts)]),
        tmp_path / "documents.parquet",
    )

    counts = Counter(tok for t in texts for tok in t.split(" "))
    n = sum(counts.values())
    want = sorted((t, c) for t, c in counts.items() if c > phi * n)
    assert want == [("hot", 2000)]  # common* sit just under the threshold

    out = heavy_hitter_tokens(str(tmp_path), phi=phi)
    df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    got = sorted(zip(df.token, df.n_occurrences))
    assert [(t, int(c)) for t, c in got] == want


def test_null_text_documents_extract_as_empty_pages(sf_dir, tmp_path):
    """Planted: every document with doc_id % 7 == 5, HTML- and PDF-routed,
    gets a null text. Each
    renders as an empty page and extracts to ``empty``, like an empty
    text, instead of failing the job; the problem rows and the per-host
    stats then match their DuckDB oracles on the planted table."""
    import importlib.util
    import pathlib

    import duckdb
    import pandas as pd
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    docs = pq.read_table(f"{sf_dir}/documents.parquet")
    ids = docs.column("doc_id").to_pylist()
    null = pa.array([d % 7 == 5 for d in ids])
    planted = docs.set_column(
        docs.column_names.index("text"), "text", pc.if_else(null, pa.scalar(None, pa.string()), docs.column("text"))
    )
    assert {corpus.is_pdf_doc(d) for d, n in zip(ids, null.to_pylist()) if n} == {True, False}
    pq.write_table(planted, tmp_path / "documents.parquet")

    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", pathlib.Path(__file__).resolve().parent.parent / "__ray_entry__.py"
    )
    entry = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(entry)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path / 'documents.parquet'}')")

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    queries, oracles = entry.queries(), entry.oracle_sql()
    for name in ("problem_rows", "quality_by_host_stats"):
        got = canon(queries[name](str(tmp_path)).to_pandas())
        want = canon(con.sql(oracles[name]).df())
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
    problems = canon(queries["problem_rows"](str(tmp_path)).to_pandas())
    assert set(problems["doc_id"]) >= {d for d, n in zip(ids, null.to_pylist()) if n}
