"""Unit tests for the pure extraction core (no Ray needed).

Modelled on the reference's per-parser contract tests
(/root/reference/tests/test_parser_contracts.py:19-187): shape, invariants,
and the edge cases FIXTURES.md §4 requires.
"""

from __future__ import annotations

from pdf_extractor_ray import corpus
from pdf_extractor_ray.stages.extract import detect_kind, url_host, url_part_id
from pdf_extractor_ray.stages.html_extract import classify_block, extract_html
from pdf_extractor_ray.stages.pdf_extract import PdfLayoutExtractor


def test_html_roundtrip_byte_identity(documents_table):
    """Extracted text is byte-identical to the embedded document text."""
    ids = documents_table.column("doc_id").to_pylist()
    texts = documents_table.column("text").to_pylist()
    for d, t in zip(ids, texts):
        if corpus.is_pdf_doc(d) or corpus.is_malformed_doc(d):
            continue
        r = extract_html(corpus.render_payload(d, t))
        assert r["status"] == "ok", (d, r["error"])
        assert r["extracted_text"] == t
        assert r["error"] is None
        assert r["n_blocks"] >= 1


def test_pdf_roundtrip_byte_identity(documents_table):
    ids = documents_table.column("doc_id").to_pylist()
    texts = documents_table.column("text").to_pylist()
    x = PdfLayoutExtractor()
    seen = 0
    for d, t in zip(ids, texts):
        if not corpus.is_pdf_doc(d) or corpus.is_malformed_doc(d):
            continue
        r = x.extract(corpus.render_payload(d, t))
        assert r["status"] == "ok", (d, r["error"])
        assert r["extracted_text"] == t
        seen += 1
    assert seen > 20  # the corpus routes ~12.5% of docs through the pdf branch


def test_malformed_payloads_become_error_or_empty_rows(documents_table):
    """Reference semantics: a bad document never fails the job
    (registry.py:33-35) — it becomes a diverted problem row."""
    ids = documents_table.column("doc_id").to_pylist()
    texts = documents_table.column("text").to_pylist()
    x = PdfLayoutExtractor()
    seen = 0
    for d, t in zip(ids, texts):
        if not corpus.is_malformed_doc(d):
            continue
        payload = corpus.render_payload(d, t)
        r = x.extract(payload) if detect_kind(payload) == "pdf" else extract_html(payload)
        assert r["status"] in ("error", "empty")
        assert r["error"] is not None
        assert r["extracted_text"] == ""
        seen += 1
    assert seen >= 1


def test_html_boilerplate_blocks_are_classified_not_emitted():
    payload = corpus.render_payload(1, "alpha beta gamma " * 10)
    r = extract_html(payload)
    kinds = {s["kind"] for s in r["spans"]}
    assert "boilerplate" in kinds and "content" in kinds
    assert "rights reserved" not in r["extracted_text"]
    assert "navigation link" not in r["extracted_text"]


def test_html_spans_point_into_document():
    text = "span check words " * 5
    payload = corpus.render_payload(2, text.strip())
    doc = payload.decode("utf-8")
    r = extract_html(payload)
    content_spans = [s for s in r["spans"] if s["kind"] == "content"]
    assert content_spans
    for s in content_spans:
        assert 0 <= s["start"] < s["end"] <= len(doc)
    # the content span really covers the embedded text
    s = content_spans[0]
    assert doc[s["start"] : s["end"]].strip() == text.strip()


def test_html_multiblock_and_entities():
    html = (
        b"<html><body><nav><a href='/'>home link nav</a></nav>"
        b"<article><p>first paragraph with enough characters to be content</p>"
        b"<p>second paragraph &amp; also long enough to be kept as content</p></article>"
        b"<footer>All rights reserved</footer></body></html>"
    )
    r = extract_html(html)
    assert r["status"] == "ok"
    assert r["n_blocks"] == 2
    assert r["extracted_text"] == (
        "first paragraph with enough characters to be content\n"
        "second paragraph & also long enough to be kept as content"
    )


def test_classify_block_link_density():
    assert classify_block("a" * 100, link_chars=0)
    assert not classify_block("a" * 100, link_chars=90)  # link-dense
    assert not classify_block("short", link_chars=0)  # too short


def test_pdf_xycut_two_columns_reading_order():
    # col A (x≈72) holds "one two", col B (x≈330) holds "three four";
    # stream order is scrambled — geometry must win.
    body = b"\n".join(
        [
            b"%PDF-1.4",
            b"T 0 330 720 three",
            b"T 0 112 720 two",
            b"T 0 72 770 running-header",
            b"T 0 330 708 four",
            b"T 0 72 720 one",
            b"T 0 72 30 page-footer",
            b"%%EOF",
        ]
    )
    r = PdfLayoutExtractor().extract(body)
    assert r["status"] == "ok"
    assert r["extracted_text"] == "one two three four"
    assert r["n_blocks"] == 2  # two column blocks


def test_pdf_missing_eof_is_error():
    r = PdfLayoutExtractor().extract(b"%PDF-1.4\nT 0 72 720 word\n")
    assert r["status"] == "error"
    assert r["error"] == "missing_eof"


def test_pdf_spans_cover_extracted_text(documents_table):
    ids = documents_table.column("doc_id").to_pylist()
    texts = documents_table.column("text").to_pylist()
    x = PdfLayoutExtractor()
    for d, t in zip(ids, texts):
        if corpus.is_pdf_doc(d) and not corpus.is_malformed_doc(d) and len(t) > 0:
            r = x.extract(corpus.render_payload(d, t))
            for s in r["spans"]:
                assert r["extracted_text"][s["start"] : s["end"]].strip() != ""
            assert r["spans"][-1]["end"] == len(r["extracted_text"])
            break


def test_detect_kind_and_url_helpers():
    assert detect_kind(b"%PDF-1.4\n...") == "pdf"
    assert detect_kind(b"  <!DOCTYPE html><html>") == "html"
    assert detect_kind(b"\x00\x01garbage") == "unknown"
    assert url_host("https://news.example.org/doc/00000001") == "news.example.org"
    p = url_part_id("https://news.example.org/doc/00000001", 16)
    assert 0 <= p < 16
    assert p == url_part_id("https://news.example.org/doc/00000001", 16)  # stable


def test_corpus_is_deterministic(documents_table):
    d = documents_table.column("doc_id")[3].as_py()
    t = documents_table.column("text")[3].as_py()
    assert corpus.render_payload(d, t) == corpus.render_payload(d, t)
    assert corpus.url_for_doc(d) == corpus.url_for_doc(d)


def test_corpus_host_skew():
    hosts = [corpus.host_for_doc(i) for i in range(1000)]
    top = max(set(hosts), key=hosts.count)
    assert top == corpus.HOSTS[0]
    assert hosts.count(top) / len(hosts) > 0.3  # skewed head host


def test_html_short_page_boundary_is_25_chars():
    """Pins today's rule for short HTML pages: a page whose whole text is 24
    characters has no block of ``MIN_CONTENT_CHARS`` and comes back
    ``empty``/``no_content_blocks``; at 25 it is ``ok``. The
    ``extract_pages_text`` and ``quality_by_host_stats`` oracles expect
    ``ok`` for both, and no testdata doc is this short, so this is the only
    test that crosses the boundary. Runs the pipeline's own per-batch path:
    documents row → rendered page → ``ExtractDocuments``."""
    import pyarrow as pa

    from pdf_extractor_ray.stages.extract import ExtractDocuments
    from pdf_extractor_ray.stages.html_extract import MIN_CONTENT_CHARS

    assert MIN_CONTENT_CHARS == 25
    texts = ["short page text of 24 ch", "short page text of 25 chr"]
    assert [len(t) for t in texts] == [24, 25]
    doc_ids = [1, 2]  # HTML, well-formed
    assert not any(corpus.is_pdf_doc(d) or corpus.is_malformed_doc(d) for d in doc_ids)
    docs = pa.table({"doc_id": pa.array(doc_ids, pa.int64()), "text": texts, "lang": ["en", "en"]})
    out = ExtractDocuments()(corpus.pages_batch_from_documents(docs)).to_pylist()
    assert [(r["status"], r["error"]) for r in out] == [("empty", "no_content_blocks"), ("ok", None)]
    assert out[1]["extracted_text"] == texts[1]
    assert out[0]["doc_kind"] == out[1]["doc_kind"] == "html"
