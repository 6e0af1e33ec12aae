"""Extractor robustness: messy-but-valid structures a crawl actually contains,
plus a frozen table of edge payloads whose (status, extracted_text, error)
is pinned for both extractors and for the routing stage."""

from __future__ import annotations

import ast
import pathlib

import pyarrow as pa

from pdf_extractor_ray.schemas import EXTRACTED_SCHEMA
from pdf_extractor_ray.stages.extract import ExtractDocuments
from pdf_extractor_ray.stages.html_extract import extract_html
from pdf_extractor_ray.stages.pdf_extract import PdfLayoutExtractor

LONG = "this sentence is long enough to be classified as main content by the density rule"
L = LONG
NO_CONTENT = ("empty", "", "no_content_blocks")

# (payload, status, extracted_text, error) as extract_html returns them
HTML_EDGE_CASES = [
    (b"", *NO_CONTENT),
    (b"no tags at all just text " + L.encode(), "ok", f"no tags at all just text {L}", None),
    (f"<p>{L}</p>".encode(), "ok", L, None),
    (f"<P>{L}</P>".encode(), "ok", L, None),  # uppercase names
    (f"<div><p>{L}<p>again {L}".encode(), "ok", f"{L}\nagain {L}", None),  # unclosed
    (f"<p>{L}<br>{L}</p>".encode(), "ok", f"{L} {L}", None),
    (f"<p>{L}</br>{L}</p>".encode(), "ok", f"{L} {L}", None),  # closing br quirk
    (f'<p title="&amp; quoted &lt;attr&gt;">{L}</p>'.encode(), "ok", L, None),
    (f"<p>&amp; entities &lt;kept&gt; {L}</p>".encode(), "ok", f"& entities <kept> {L}", None),
    (f"<!DOCTYPE html><html><body><p>{L}</p></body></html>".encode(), "ok", L, None),
    (f"<script>var x = '</p>';</script><p>{L}</p>".encode(), "ok", L, None),
    (f"<script/><p>{L}</p>".encode(), "ok", L, None),  # self-closing skip tag
    (f"<SCRIPT>hidden</SCRIPT><p>{L}</p>".encode(), "ok", L, None),
    (f"<script>never closed {L}".encode(), *NO_CONTENT),  # raw mode to EOF
    (f"<script><!-- </script> --></script><p>{L}</p>".encode(), "ok", L, None),  # close in comment
    (f"<script></scriptx>{L}</script><p>{L} two</p>".encode(), "ok", f"{L} two", None),  # longer name
    (f"<script>x<\u00a0/script><p>{L}</p>".encode(), "ok", L, None),  # Unicode space closes
    (f"<style>x</\u017ftyle><p>{L}</p>".encode(), *NO_CONTENT),  # long s is not 's'
    (f"<style>.a {{color: red}}</style><p>{L}</p>".encode(), "ok", L, None),
    (f"<a href='/x'>{L}</a>".encode(), *NO_CONTENT),  # fully linked block
    (f"<a href='/x'><div>{L}</div></a><p>{L} real</p>".encode(), "ok", f"{L} real", None),
    (
        f"<div><a href='/x'>broken<p>{L}</p><p>{L} two</p></div>".encode(),
        "ok", f"{L}\n{L} two", None,
    ),
    (f"<a href='/x'><a-icon/><div>{L}</div></a><p>{L} keep</p>".encode(), "ok", f"{L} keep", None),
    (f"<a/>self closing anchor quirk<p>{L}</p>".encode(), "ok", L, None),
    (f"<table><tr><td>{L}</td><td>{L}</td></tr></table>".encode(), "ok", f"{L}\n{L}", None),
    (f"<p>x > y and z>w {L}</p>".encode(), "ok", f"x > y and z>w {L}", None),  # '>' in text
    (f"<123><p>{L}</p>".encode(), "ok", L, None),  # non-alpha tag = noop
    (f"</><p>{L}</p>".encode(), "ok", L, None),  # empty close = noop
    (f"<custom-elem>{L}</custom-elem>".encode(), "ok", L, None),  # unknown tag
    (f"<figcaption>{L}</figcaption>".encode(), "ok", L, None),  # long known name
    (f"<blockquote>{L}</blockquote>".encode(), "ok", L, None),
    (f"<p>{L}".encode(), "ok", L, None),  # unterminated trailing tag
    (f"<p>{L}</p><a".encode(), "ok", L, None),  # bare trailing '<a'
    (f"<p>{L}<".encode(), "ok", L, None),  # bare trailing '<'
    (f"<!-- comment with > inside --><p>{L}</p>".encode(), "ok", L, None),
    (f"<div><a href='/x'>t<!-- </a> --></div><p>{L} after</p>".encode(), "ok", f"{L} after", None),
    (f"< p >{L}</p>".encode(), "ok", L, None),  # whitespace after '<'
    (f"</ div><p>{L}</p>".encode(), "ok", L, None),  # whitespace after '</'
    (f"<a <b>{L}</p>".encode(), *NO_CONTENT),  # '<' swallowed inside a tag token
    (f"<p>naïve café {L}</p>".encode(), "ok", f"naïve café {L}", None),  # non-ASCII
    ("<p>日本語のテキスト</p>".encode(), *NO_CONTENT),  # one short block
    (b"\xff\xfe broken bytes", "error", "", "decode_error: invalid start byte"),
]

# (payload, status, extracted_text, error) as PdfLayoutExtractor returns them
PDF_EDGE_CASES = [
    (b"%PDF-1.4\nT 0 72 720 hello\nT 0 112 720 world\n%%EOF\n", "ok", "hello world", None),
    (b"%PDF-1.4\nT 0 72 720 one\nT 0 330 720 two\n%%EOF\n", "ok", "one two", None),  # columns
    (b"%PDF-1.4\nT 1 72 720 later\nT 0 72 720 first\n%%EOF\n", "ok", "first later", None),
    (
        b"%PDF-1.4\nT 0 72 770 header\nT 0 72 30 footer\nT 0 72 720 body\n%%EOF\n",
        "ok", "body", None,
    ),
    (
        b"%PDF-1.4\nT 0 72 720 1203\nT 0 112 720 45.00\nT 0 152 720 1,250\n%%EOF\n",
        "ok", "1203 45.00 1,250", None,
    ),
    (
        b"%PDF-1.4\nT 0 72 720 12.3.4\nT 0 112 720 .5\nT 0 152 720 5.\n%%EOF\n",
        "ok", "12.3.4 .5 5.", None,
    ),
    (b"%PDF-1.4\n%%EOF\n", "empty", "", "no_content_tokens"),
    (b"%PDF-1.4\n% a comment line\nT 0 72 720 ok\n%%EOF\n", "ok", "ok", None),
    (b"%PDF-1.4\nT 0 72 720 body", "error", "", "missing_eof"),
    (b"not a pdf at all", "error", "", "bad_magic"),
    (b"", "error", "", "bad_magic"),
    (b"%PDF-1.4\nT abc def\n%%EOF\n", "error", "", "bad_token_line: 'T abc def'"),
    (
        b"%PDF-1.4\nT 0 72 720 two words\n%%EOF\n",  # space inside a word
        "error", "", "bad_token_line: 'T 0 72 720 two words'",
    ),
    (b"%PDF-1.4\nTx 0 72 720 w\n%%EOF\n", "error", "", "bad_token_line: 'Tx 0 72 720 w'"),
    (b"%PDF-1.4\nT 0 72 720 caf\xc3\xa9\n%%EOF\n", "ok", "café", None),  # non-ASCII
    (b"%PDF-1.4\nT 0 72 720 w\njunk line\n%%EOF\n", "error", "", "bad_token_line: 'junk line'"),
    (b"%PDF-1.4\nT 00 072 0720 zeros\n%%EOF\n", "ok", "zeros", None),  # leading zeros
    (b"%PDF-1.4\nT 0 72 720 a\n\n\nT 0 112 720 b\n%%EOF\n", "ok", "a b", None),  # blank lines
    (
        b"%PDF-1.4\nT 0 72 720 one\nT 0 150 720 two\nT 0 520 720 three\n%%EOF\n",
        "ok", "one two three", None,
    ),
]

# payloads whose head sniffs as neither HTML nor PDF: the routing stage
# never hands them to an extractor
UNROUTED = {b"", b"no tags at all just text " + L.encode(), b"\xff\xfe broken bytes", b"not a pdf at all"}


def _result(r: dict) -> tuple:
    return r["status"], r["extracted_text"], r["error"]


def test_html_edge_payloads_are_pinned():
    for payload, *want in HTML_EDGE_CASES:
        assert _result(extract_html(payload)) == tuple(want), payload[:60]


def test_pdf_edge_payloads_are_pinned():
    ex = PdfLayoutExtractor()
    for payload, *want in PDF_EDGE_CASES:
        assert _result(ex.extract(payload)) == tuple(want), payload[:60]


def test_extract_documents_over_all_edge_payloads():
    """One routing-stage call over every edge payload: one EXTRACTED_SCHEMA
    row per payload, in input order, each with its extractor's pinned
    result (or the routing error when no extractor claims the head)."""
    cases = [(c, "html_density_v1") for c in HTML_EDGE_CASES]
    cases += [(c, "pdf_xycut_v1") for c in PDF_EDGE_CASES]
    payloads = [c[0] for c, _ in cases]
    n = len(payloads)
    assert n == 61
    batch = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "url": [f"https://edge.example/{i}" for i in range(n)],
            "html": pa.array(payloads, pa.binary()),
            "lang": ["en"] * n,
        }
    )
    out = ExtractDocuments()(batch)
    assert out.schema == EXTRACTED_SCHEMA
    assert out.column("doc_id").to_pylist() == list(range(n))
    n_unrouted = 0
    for ((payload, *want), name), row in zip(cases, out.to_pylist()):
        if payload in UNROUTED:
            n_unrouted += 1
            want, name = ["error", "", "unknown_payload_kind"], "none"
        assert _result(row) == tuple(want), payload[:60]
        assert row["extractor"] == name
    assert n_unrouted == 5


def test_html_comments_and_script_content_are_ignored():
    html = (
        f"<html><body><!-- hidden comment text -->"
        f"<script>var x = 'not content at all';</script>"
        f"<style>.a {{ color: red }}</style>"
        f"<p>{LONG}</p></body></html>"
    ).encode()
    r = extract_html(html)
    assert r["status"] == "ok"
    assert r["extracted_text"] == LONG


def test_html_nested_blocks_and_inline_tags():
    html = (
        f"<div><div><section><p>first {LONG}</p></section>"
        f"<p>second with <b>bold</b> and <i>italic</i> inline {LONG}</p></div></div>"
    ).encode()
    r = extract_html(html)
    assert r["n_blocks"] == 2
    assert r["extracted_text"] == (
        f"first {LONG}\nsecond with bold and italic inline {LONG}"
    )


def test_html_attributes_with_entities_do_not_leak():
    html = (
        f'<p title="&amp; quoted &lt;attr&gt;">{LONG}</p>'.encode()
    )
    r = extract_html(html)
    assert r["extracted_text"] == LONG


def test_html_unclosed_tags_are_tolerated():
    html = f"<div><p>{LONG}<p>again {LONG}".encode()
    r = extract_html(html)
    assert r["status"] == "ok"
    assert r["extracted_text"] == f"{LONG}\nagain {LONG}"


def test_html_table_cells_become_blocks():
    cell = "a table cell with plenty of text to count as content here"
    html = f"<table><tr><td>{cell}</td><td>{cell}</td></tr></table>".encode()
    r = extract_html(html)
    assert r["n_blocks"] == 2


def test_html_br_separates_words():
    html = f"<p>{LONG}<br>{LONG}</p>".encode()
    r = extract_html(html)
    assert r["extracted_text"] == f"{LONG} {LONG}"


def test_pdf_three_columns_recursive_cut():
    lines = [b"%PDF-1.4"]
    # three columns at x = 72, 300, 528 — requires the recursive second cut
    for i, (x, w) in enumerate([(72, b"one"), (72, b"two"), (300, b"three"),
                                (300, b"four"), (528, b"five"), (528, b"six")]):
        y = 720 - (i % 2) * 12
        lines.append(b"T 0 %d %d %s" % (x, y, w))
    lines.append(b"%%EOF")
    r = PdfLayoutExtractor().extract(b"\n".join(lines))
    assert r["status"] == "ok"
    assert r["extracted_text"] == "one two three four five six"
    assert r["n_blocks"] == 3


def test_pdf_multi_page_order():
    body = b"\n".join(
        [
            b"%PDF-1.4",
            b"T 1 72 720 third",
            b"T 0 72 708 second",
            b"T 0 72 720 first",
            b"T 1 72 708 fourth",
            b"%%EOF",
        ]
    )
    r = PdfLayoutExtractor().extract(body)
    assert r["extracted_text"] == "first second third fourth"
    assert [s["kind"] for s in r["spans"]] == ["page", "page"]


def test_pdf_garbage_token_line_is_error_not_crash():
    r = PdfLayoutExtractor().extract(b"%PDF-1.4\nT abc def\n%%EOF\n")
    assert r["status"] == "error"
    assert r["error"].startswith("bad_token_line")


def test_pdf_table_row_detection_spans():
    # a table row: date-ish + two amounts; a prose line below
    body = b"\n".join(
        [
            b"%PDF-1.4",
            b"T 0 72 720 1203",
            b"T 0 112 720 45.00",
            b"T 0 152 720 1250.75",
            b"T 0 72 708 plain",
            b"T 0 112 708 prose",
            b"T 0 152 708 words",
            b"%%EOF",
        ]
    )
    r = PdfLayoutExtractor().extract(body)
    assert r["status"] == "ok"
    assert r["extracted_text"] == "1203 45.00 1250.75 plain prose words"
    table = [s for s in r["spans"] if s["kind"] == "table_row"]
    assert len(table) == 1
    s = table[0]
    assert r["extracted_text"][s["start"] : s["end"]] == "1203 45.00 1250.75"
    # detection is additive: text identical with it disabled
    r2 = PdfLayoutExtractor(detect_tables=False).extract(body)
    assert r2["extracted_text"] == r["extracted_text"]
    assert not [s for s in r2["spans"] if s["kind"] == "table_row"]


def test_realistic_article_page():
    """A realistic news-article shape: deep nesting, inline markup, figure
    captions, comment widgets, share bars — main prose survives, chrome dies."""
    para1 = (
        "The city council voted on Tuesday to approve the new transit plan, "
        "a decision that follows months of public hearings and debate."
    )
    para2 = (
        "Supporters argue the plan will cut commute times by a third, while "
        "critics point to the projected cost overruns in neighboring districts."
    )
    caption = "Commuters wait at the central station."
    html = f"""<!DOCTYPE html>
<html><head><title>Transit plan approved</title>
<script type="application/ld+json">{{"@type":"NewsArticle"}}</script></head>
<body>
<header><a href="/">Daily Example</a><nav>
<a href="/news">News</a><a href="/sport">Sport</a><a href="/weather">Weather</a>
</nav></header>
<main><article>
  <h1>Transit plan approved after marathon session</h1>
  <div class="byline">By A Reporter | 3 May 2024</div>
  <p>{para1}</p>
  <figure><img src="x.jpg"><figcaption>{caption}</figcaption></figure>
  <p>{para2} It passed <em>seven to two</em>.</p>
</article>
<div class="share"><a href="#t">Tweet</a><a href="#f">Share</a></div>
<section class="comments"><h3>Comments</h3>
<div><a href="/u/1">user1</a> First!</div></section>
</main>
<footer>&copy; 2024 Daily Example. All rights reserved.
<a href="/privacy">Privacy Policy</a></footer>
</body></html>"""
    r = extract_html(html.encode())
    assert r["status"] == "ok"
    text = r["extracted_text"]
    assert para1 in text and para2 in text
    assert "It passed seven to two." in text  # inline markup flattened
    assert "Transit plan approved after marathon session" in text  # headline
    assert caption in text  # figcaption is real content
    assert "Tweet" not in text and "First!" not in text
    assert "rights reserved" not in text
    assert "Daily Example" not in text.replace("© 2024 Daily Example", "")


def test_pdf_three_columns_largest_gap_not_first():
    # columns at x=72, 150, 520: the LARGEST gap (150→520) is the second
    # one, so the first cut isolates the right column and the left side
    # must be recursed to separate 72 from 150 (gap 78 ≥ 60)
    body = b"\n".join(
        [
            b"%PDF-1.4",
            b"T 0 72 720 one",
            b"T 0 72 708 two",
            b"T 0 150 720 three",
            b"T 0 150 708 four",
            b"T 0 520 720 five",
            b"T 0 520 708 six",
            b"%%EOF",
        ]
    )
    r = PdfLayoutExtractor().extract(body)
    assert r["status"] == "ok"
    assert r["n_blocks"] == 3
    assert r["extracted_text"] == "one two three four five six"


def test_unclosed_anchor_does_not_poison_following_blocks():
    html = (
        f"<div><a href='/x'>broken link never closed"
        f"<p>{LONG}</p><p>{LONG} again here</p></div>"
    ).encode()
    r = extract_html(html)
    assert r["status"] == "ok"
    assert LONG in r["extracted_text"]
    assert r["n_blocks"] == 2


def test_card_link_blocks_are_boilerplate():
    """r2: a PAIRED anchor fully wrapping block elements (card link) keeps
    its scope across the block boundary — the wrapped text is link-dense
    boilerplate — while the unclosed-anchor protection above still holds."""
    card = f"<a href='/x'><div>{LONG}</div></a><p>{LONG} real content</p>".encode()
    r = extract_html(card)
    assert r["extracted_text"] == f"{LONG} real content"
    assert r["n_blocks"] == 1

    # anchor spanning SEVERAL blocks: scope survives each boundary until </a>
    multi = (
        f"<a href='/x'><div>{LONG}</div><div>{LONG} two</div></a>"
        f"<p>{LONG} three</p>"
    ).encode()
    r2 = extract_html(multi)
    assert r2["extracted_text"] == f"{LONG} three"

    # a close the scanner never sees (inside a comment) pairs with NOTHING —
    # the pre-pass tokenizes like the scanner, so the unclosed anchor still
    # dies at the block boundary and later blocks stay content
    weird = (
        f"<div><a href='/x'>text<!-- </a> --></div><p>{LONG} after</p>"
    ).encode()
    r3 = extract_html(weird)
    assert f"{LONG} after" in r3["extracted_text"]

    # custom elements <a-...> / closes inside <script> are NOT anchors; the
    # real card-link pairing must still fire around them
    tricky = (
        f"<a href='/x'><a-icon/><div>{LONG}</div></a>"
        f"<script>var s = '</a>';</script><p>{LONG} keep</p>"
    ).encode()
    r4 = extract_html(tricky)
    assert r4["extracted_text"] == f"{LONG} keep"


def test_extraction_path_reads_no_environment():
    """Extraction output and path are a function of the input alone: no
    module of the package may read an environment variable, so no
    user-set switch can change which code extracts a page or how a
    merge is partitioned."""
    pkg = pathlib.Path(__file__).resolve().parent.parent / "pdf_extractor_ray"
    files = sorted(pkg.rglob("*.py"))
    assert len(files) > 30
    hits = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                hits.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                hits += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                         if a.name in ("environ", "getenv")]
    assert not hits, hits
