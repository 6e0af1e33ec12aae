"""Deterministic synthetic ``pages`` corpus (Common-Crawl-style).

Synthesizes the BASELINE.json input table ``(url, warc_ts, html, text, lang)``
as a *pure function* of the driver-provided ``documents`` table
(``/root/testdata/sf*/documents.parquet``): every page embeds one document's
text either inside an HTML template with known boilerplate (nav / header /
aside / footer blocks of high link-density wrapping a high-text-density
``<article>``) or inside a synthetic positioned-token "PDF-like" payload laid
out in two columns with header/footer bands — plus ~2% deliberately truncated
payloads to exercise the ok/error row policy (reference behavior: never fail
the job on one bad document, /root/reference/dataextractai/parsers_core/
registry.py:33-35).

Everything here is deterministic (no RNG, no wall clock) so that:
- the extraction pipeline's output can be checked **byte-identically** against
  frozen goldens regardless of batch order / parallelism, and
- the routing rules are arithmetic on ``doc_id`` and therefore expressible in
  the DuckDB oracle SQL (e.g. ``doc_id % 50 <> 17`` for well-formed rows).

Routing rules (keep in sync with ``__ray_entry__.oracle_sql``):
- ``doc_id % 8 == 5``  → PDF-like payload (else HTML)
- ``doc_id % 50 == 17`` → malformed payload (truncated to 25 bytes)
- host bucket: ``h = (doc_id * 37) % 100`` mapped through ``HOST_CUTS`` —
  a Zipf-ish skew where the first host takes ~40% of pages (exercises
  skew-aware grouping, SURVEY.md §7.4).
"""

from __future__ import annotations

import html as _html

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# --- host pool: skewed like real crawls (few giant hosts + long tail) -------
HOSTS = [
    "big-portal.example.com",
    "news.example.org",
    "shop.example.net",
    "blog.example.io",
    "wiki.example.edu",
    "forum.example.dev",
    "docs.example.app",
    "mail.example.co",
    "photos.example.me",
    "tiny-a.example.xyz",
    "tiny-b.example.xyz",
    "tiny-c.example.xyz",
]
# cumulative upper bounds over h = (doc_id*37) % 100 → ~40/20/12/8/6/4/3/2/2/1/1/1
HOST_CUTS = [40, 60, 72, 80, 86, 90, 93, 95, 97, 98, 99, 100]

WARC_TS_BASE_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z in microseconds
WARC_TS_STEP_US = 137_000_000  # per-doc spacing (137 s) — ONE constant, two call sites

PDF_MAGIC = b"%PDF-1.4"  # used by render_pdf; PdfLayoutExtractor checks the "%PDF" prefix

# PDF-like layout geometry (points, letter-size page)
PAGE_WIDTH = 612
COL_X = (72, 330)  # two columns
COL_WORDS_PER_LINE = 5
COL_LINES = 20  # lines per column
Y_TOP = 720
Y_STEP = 12
HEADER_Y = 770  # tokens at y > 760 are running headers (boilerplate)
FOOTER_Y = 30  # tokens at y < 40 are page footers (boilerplate)


def host_for_doc(doc_id: int) -> str:
    h = (doc_id * 37) % 100
    for host, cut in zip(HOSTS, HOST_CUTS):
        if h < cut:
            return host
    return HOSTS[-1]


def hosts_for_docs(doc_ids) -> "np.ndarray":
    """Vectorized ``host_for_doc`` over an int64 array (same arithmetic:
    ``h = (id*37) % 100`` binned by HOST_CUTS via searchsorted)."""
    import numpy as np

    h = (np.asarray(doc_ids, dtype=np.int64) * 37) % 100
    idx = np.searchsorted(np.asarray(HOST_CUTS), h, side="right")
    return np.asarray(HOSTS, dtype=object)[idx]


def is_pdf_doc(doc_id: int) -> bool:
    return doc_id % 8 == 5


def is_malformed_doc(doc_id: int) -> bool:
    return doc_id % 50 == 17


def url_for_doc(doc_id: int) -> str:
    return f"https://{host_for_doc(doc_id)}/doc/{doc_id:08d}"


def warc_ts_us_for_doc(doc_id: int) -> int:
    return WARC_TS_BASE_US + doc_id * WARC_TS_STEP_US  # still within 2024


# ---------------------------------------------------------------------------
# HTML payload
# ---------------------------------------------------------------------------

def render_html(doc_id: int, text: str, host: str, paragraphs: int = 1) -> bytes:
    """Boilerplate-wrapped page. The <article> holds the content (one <p> by
    default; ``paragraphs=N`` splits the text into N word-balanced <p> blocks
    — the multi-block corpus variant, whose extracted text is the paragraphs
    joined with "\\n"); everything else is link-dense or blacklist-phrase
    boilerplate (the First-Republic footer-blacklist analog,
    /root/reference/dataextractai/parsers/first_republic_bank_parser.py:
    393-424). A null ``text`` renders as an empty article, like ``""``."""
    text = text or ""
    nav_n = 3 + doc_id % 4
    nav_links = " ".join(
        f'<a href="/sec{i}">section {i} navigation link</a>' for i in range(nav_n)
    )
    aside = ""
    if doc_id % 3 != 0:
        aside = (
            "<aside><ul>"
            '<li><a href="/rel/1">related article one recommended</a></li>'
            '<li><a href="/rel/2">related article two trending now</a></li>'
            '<li><a href="/rel/3">sponsored content click here</a></li>'
            "</ul></aside>"
        )
    if paragraphs <= 1:
        body = f"<p>{_html.escape(text)}</p>"
    else:
        words = text.split(" ")
        per = max(1, (len(words) + paragraphs - 1) // paragraphs)
        chunks = [" ".join(words[i : i + per]) for i in range(0, len(words), per)]
        body = "".join(f"<p>{_html.escape(c)}</p>" for c in chunks)
    page = (
        "<!DOCTYPE html><html><head>"
        f"<title>doc {doc_id}</title>"
        '<meta charset="utf-8"><style>body{margin:0}</style>'
        '<script>var t=1;</script>'
        "</head><body>"
        f"<nav>{nav_links}</nav>"
        '<div class="masthead"><a href="/subscribe">Subscribe</a> '
        '<a href="/signin">Sign in</a></div>'
        f"<article>{body}</article>"
        f"{aside}"
        f"<footer>&copy; 2024 {host}. All rights reserved. "
        '<a href="/privacy">Privacy Policy</a> '
        '<a href="/terms">Terms of Service</a></footer>'
        "</body></html>"
    )
    return page.encode("utf-8")


# ---------------------------------------------------------------------------
# PDF-like payload — positioned tokens, two columns, scrambled write order
# ---------------------------------------------------------------------------

def render_pdf(doc_id: int, text: str) -> bytes:
    """Synthetic layout stream: one token line ``T <page> <x> <y> <word>`` per
    word, positioned into a two-column layout with per-page header/footer
    noise tokens. Token lines are written in a deterministic *scrambled*
    order, so a correct reader must reconstruct reading order geometrically
    (XY-cut), not rely on stream order."""
    words = text.split(" ") if text else []
    tokens: list[tuple[int, int, int, str]] = []  # (page, x, y, word)
    per_page = 2 * COL_LINES * COL_WORDS_PER_LINE
    for i, w in enumerate(words):
        page = i // per_page
        k = i % per_page
        col = k // (COL_LINES * COL_WORDS_PER_LINE)
        r = k % (COL_LINES * COL_WORDS_PER_LINE)
        line = r // COL_WORDS_PER_LINE
        pos = r % COL_WORDS_PER_LINE
        tokens.append((page, COL_X[col] + pos * 40, Y_TOP - line * Y_STEP, w))
    n_pages = (len(words) + per_page - 1) // per_page if words else 1
    for p in range(n_pages):
        tokens.append((p, 72, HEADER_Y, "synthetic-crawl-header"))
        tokens.append((p, 72, FOOTER_Y, "page"))
        tokens.append((p, 130, FOOTER_Y, str(p + 1)))
    # deterministic scramble (Knuth-style multiplicative key; stable tiebreak)
    order = sorted(
        range(len(tokens)),
        key=lambda i: ((i * 2654435761 + doc_id * 97) % 4294967296, i),
    )
    lines = [f"T {tokens[i][0]} {tokens[i][1]} {tokens[i][2]} {tokens[i][3]}" for i in order]
    return PDF_MAGIC + b"\n" + "\n".join(lines).encode("utf-8") + b"\n%%EOF\n"


def render_payload(doc_id: int, text: str, paragraphs: int = 1) -> bytes:
    host = host_for_doc(doc_id)
    payload = (
        render_pdf(doc_id, text)
        if is_pdf_doc(doc_id)
        else render_html(doc_id, text, host, paragraphs=paragraphs)
    )
    if is_malformed_doc(doc_id):
        payload = payload[:25]
    return payload


# ---------------------------------------------------------------------------
# Batch transform: documents batch -> pages batch (pure, vectorizable shell)
# ---------------------------------------------------------------------------

def pages_batch_from_documents(batch: pa.Table, paragraphs: int = 1) -> pa.Table:
    """``map_batches`` body: one documents row → one pages row. The per-row
    template rendering is inherently per-document string work (same shape as
    the reference's per-file parse fns); everything around it is Arrow."""
    doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    texts = batch.column("text").to_pylist()
    langs = batch.column("lang")
    urls = [url_for_doc(int(d)) for d in doc_ids]
    payloads = [render_payload(int(d), t, paragraphs) for d, t in zip(doc_ids, texts)]
    ts = pa.array(
        (WARC_TS_BASE_US + doc_ids * WARC_TS_STEP_US).astype(np.int64),
        type=pa.timestamp("us"),
    )
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": ts,
            "html": pa.array(payloads, type=pa.binary()),
            "text": batch.column("text"),
            "lang": langs,
        }
    )


def pages_from_documents(docs_ds, paragraphs: int = 1):
    """documents Dataset → pages Dataset (stateless map_batches, zero-copy in;
    batch_size=None keeps block-driven batching — no cross-block bundling)."""
    return docs_ds.map_batches(
        lambda t: pages_batch_from_documents(t, paragraphs),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )


REPLICA_STRIDE = 100_000_000  # doc_id offset between corpus replicas


def replicate_documents(batch: pa.Table, replicate: int) -> pa.Table:
    """Deterministic corpus expansion for benchmarking: replica k gets
    doc_id + k·stride (routing arithmetic stays deterministic per new id)."""
    if replicate <= 1:
        return batch
    parts = []
    ids = batch.column("doc_id")
    for k in range(replicate):
        t = batch.set_column(
            batch.column_names.index("doc_id"),
            "doc_id",
            pc.add(ids, pa.scalar(k * REPLICA_STRIDE, pa.int64())),
        )
        parts.append(t)
    return pa.concat_tables(parts)


def read_pages(sf_dir: str, replicate: int = 1, fanout_blocks: int | None = None, paragraphs: int = 1):
    """Read the documents table (only needed columns) and synthesize pages.

    ``fanout_blocks``: the testdata table is ONE small parquet file, so the
    read is a single task and Ray fuses the whole downstream chain into it
    (serializing everything). A cheap ``repartition`` right after the read
    breaks that fusion and fans the chain out. This is a small-input shim
    ONLY — a real 100 TB corpus has thousands of files and natural read
    parallelism, and an all-to-all repartition there would be wrong."""
    from .ioutil import read_table

    docs = read_table(sf_dir, "documents", ["doc_id", "text", "lang"])
    if fanout_blocks:
        docs = docs.repartition(fanout_blocks)
    if replicate > 1:
        docs = docs.map_batches(
            lambda t: replicate_documents(t, replicate),
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=None,
        )
    return pages_from_documents(docs, paragraphs=paragraphs)
