"""HTML main-content extraction: text-density / link-density block classifier.

The engine's flagship stateless transform (north star: Readability /
trafilatura-style boilerplate stripping). Reimagines the reference's
line-geometry classifier (`analyze_line_elements`, /root/reference/
dataextractai/parsers/wellsfargo_bank_parser.py:81-126 — classify lines by
whitespace-run widths) and its footer/boilerplate phrase blacklist
(/root/reference/dataextractai/parsers/first_republic_bank_parser.py:393-424)
as an HTML block classifier:

1. segment the document into block-level text runs (single-pass regex
   scanner, entity-aware, with exact char-offset spans into the decoded
   document — replaced stdlib html.parser, which was 83% of extraction CPU),
2. score each block: total chars, chars inside ``<a>`` (link density),
3. keep blocks that are long enough, link-sparse, and not boilerplate-phrased;
   everything else is labelled boilerplate (kept in ``spans`` for lineage).

Pure per-document function — no cross-doc state, no wall clock, no locale —
so extraction is byte-identical under any batch order / parallelism
(SURVEY.md §7.4 byte-identity requirement).
"""

from __future__ import annotations

import re
from html import unescape

EXTRACTOR_NAME = "html_density_v1"

MIN_CONTENT_CHARS = 25
MAX_LINK_DENSITY = 0.35
# phrase blacklist applies to short blocks only (a long article that merely
# mentions a phrase is not boilerplate) — reference analog: the First Republic
# footer blacklist trims continuation lines AND drops junk records.
BLACKLIST_MAX_CHARS = 160
BOILERPLATE_PHRASES = (
    "all rights reserved",
    "privacy policy",
    "terms of service",
    "cookie policy",
    "sign in",
    "subscribe",
    "click here",
    "sponsored content",
    "related article",
    "trending now",
    "navigation link",
    "member fdic",  # reference blacklist carry-over
)

_BLOCK_TAGS = frozenset(
    "p div article section main li ul ol dl dd dt h1 h2 h3 h4 h5 h6 "
    "td th tr table thead tbody blockquote pre figure figcaption "
    "nav aside footer header form fieldset hr".split()
)
_SKIP_TAGS = frozenset("script style noscript template svg head title".split())
_WS_RE = re.compile(r"\s+")

# fast scanner: one pass over the document — comments, markup declarations,
# named tags (slash + name CAPTURED so the scanner never runs a second
# regex or slices a head per token — r4 profile: the secondary
# _TAG_NAME_RE.match was ~1.2M extra match calls + match-object/head-slice
# allocations per 20k docs), other '<…>' garbage, text runs, and a trailing
# unterminated '<' fragment (truncated docs). The named-tag alternative's
# `(?:>|$)` keeps truncated named tags (`<a hre` at EOF) classified as tags,
# exactly as the old two-pass scanner did via _TAG_NAME_RE on the fragment.
_TOKEN_RE = re.compile(
    r"<!--.*?(?:-->|$)"
    r"|<![^>]*>"
    r"|<\s*(/?)\s*([a-zA-Z][a-zA-Z0-9:-]*)[^>]*(?:>|$)"
    r"|<[^>]*>"
    r"|[^<]+"
    r"|<[^>]*$",
    re.DOTALL,
)
def _anchor_close_positions(doc: str) -> dict[int, int]:
    """open-tag position → matching close-tag position for every PAIRED
    ``<a>`` in the document (stack pairing). Used lazily by the scanner to
    let a properly-closed anchor's scope survive block boundaries (card
    links) while an unclosed anchor still dies at the boundary.

    Tokenizes with the SAME regexes and skip-tag elision as ``_scan_blocks``
    so pre-pass pairing can never disagree with scanner state — an ``</a>``
    inside a comment or a ``<script>`` body does not pair, and ``<a-card>``
    / ``<a:ns>`` custom elements are not anchors."""
    pairs: dict[int, int] = {}
    stack: list[int] = []
    skip_tag: str | None = None
    for m in _TOKEN_RE.finditer(doc):
        name = m.group(2)
        if name is None:  # text / comment / declaration / '<' garbage
            continue
        closing = m.group(1) == "/"
        name = name.lower()
        if skip_tag is not None:
            if closing and name == skip_tag:
                skip_tag = None
            continue
        if not closing and name in _SKIP_TAGS and not doc.startswith("/>", m.end() - 2):
            skip_tag = name
        elif name == "a":
            if closing:
                if stack:
                    pairs[stack.pop()] = m.start()
            else:
                stack.append(m.start())
    return pairs


def _scan_blocks(doc: str) -> list[dict]:
    """Segment decoded HTML into text blocks with char-offset spans.

    A hand-rolled single-regex scanner (~4× faster than stdlib html.parser,
    which dominated the extraction profile) with the same semantics the test
    suite pins: skip-tag subtree elision with raw-content skip for
    script/style, block-tag flush boundaries, <a>-depth link-char counting,
    entity decoding, <br> → space, tolerant of truncated/unclosed markup.
    """
    blocks: list[dict] = []
    pieces: list[str] = []
    link_chars = 0
    b_start = -1
    b_end = -1
    anchor_stack: list[int] = []  # open positions of <a> tags in scope
    anchor_pairs: dict[int, int] | None = None  # lazy (see flush)
    skip_tag: str | None = None  # raw-content mode for script/style/title…

    def flush(pos: int):
        nonlocal pieces, link_chars, b_start, b_end, anchor_stack, anchor_pairs
        if pieces:
            blocks.append(
                {
                    "text": "".join(pieces),
                    "link_chars": link_chars,
                    "start": b_start,
                    "end": b_end,
                }
            )
        pieces = []
        link_chars = 0
        b_start = -1
        b_end = -1
        # anchor scope at a block boundary: a PAIRED <a> whose close lies
        # ahead keeps its scope (fully link-wrapped card links stay
        # link-dense); anything else — unclosed, or whose close was missed
        # (e.g. inside a comment) — dies here, so a broken anchor can never
        # poison link-density for the rest of the document. The pairing
        # pre-pass runs lazily, only for documents that actually hit this.
        if anchor_stack:
            if anchor_pairs is None:
                anchor_pairs = _anchor_close_positions(doc)
            anchor_stack = [p for p in anchor_stack if anchor_pairs.get(p, -1) > pos]

    def add(piece: str, start: int, end: int):
        nonlocal link_chars, b_start, b_end
        if not piece:
            return
        pieces.append(piece)
        if anchor_stack:
            link_chars += len(piece.strip())
        if b_start < 0:
            b_start = start
        b_end = end

    for m in _TOKEN_RE.finditer(doc):
        # allocation discipline: the tag slash+name come straight out of the
        # token match (no head slice, no second regex); only text runs ever
        # materialize as Python strings (long href attributes never do)
        name = m.group(2)
        if name is None:
            start = m.start()
            if doc[start] != "<":  # text run
                if skip_tag is not None:
                    continue
                tok = m.group()
                add(unescape(tok) if "&" in tok else tok, start, m.end())
            # else: comment / declaration / '<' garbage — skipped
            continue
        closing = m.group(1) == "/"
        name = name.lower()
        if skip_tag is not None:
            # raw-content mode: ignore everything until the matching close tag
            if closing and name == skip_tag:
                skip_tag = None
            continue
        if not closing and name in _SKIP_TAGS and not doc.startswith("/>", m.end() - 2):
            skip_tag = name
        elif name in _BLOCK_TAGS:
            flush(m.start())
        elif name == "a":
            if closing:
                if anchor_stack:
                    anchor_stack.pop()
            else:
                anchor_stack.append(m.start())
        elif name == "br":
            start = m.start()
            add(" ", start, start)
    flush(len(doc))
    return blocks


def _stripped_len(norm_text: str) -> int:
    """len with every whitespace char removed — C-speed ``str.count`` for
    ASCII (where ``\\s`` is exactly these six chars), regex otherwise.
    Bit-equal to ``len(_WS_RE.sub("", s))`` (r3 profile: the sub was the
    single largest regex cost in extraction)."""
    if norm_text.isascii():
        n = len(norm_text) - norm_text.count(" ")
        for ch in ("\t", "\n", "\r", "\f", "\v"):
            if ch in norm_text:
                n -= norm_text.count(ch)
        return n
    return len(_WS_RE.sub("", norm_text))


def classify_block(norm_text: str, link_chars: int) -> bool:
    """True iff the block is main content (density heuristic + blacklist)."""
    n = len(norm_text)
    if n < MIN_CONTENT_CHARS:
        return False
    stripped_len = _stripped_len(norm_text)
    link_density = link_chars / stripped_len if stripped_len else 1.0
    if link_density > MAX_LINK_DENSITY:
        return False
    if n <= BLACKLIST_MAX_CHARS:
        low = norm_text.lower()
        for phrase in BOILERPLATE_PHRASES:
            if phrase in low:
                return False
    return True


def extract_html(payload: bytes) -> dict:
    """payload bytes → {status, extracted_text, spans, n_blocks, error}.

    ``spans`` are char offsets into the utf-8-decoded document; content
    blocks are joined with ``"\\n"``.
    """
    try:
        doc = payload.decode("utf-8")
    except UnicodeDecodeError as e:
        return {
            "status": "error",
            "extracted_text": "",
            "spans": [],
            "n_blocks": 0,
            "error": f"decode_error: {e.reason}",
        }
    try:
        raw_blocks = _scan_blocks(doc)
    except Exception as e:  # the scanner is permissive; belt and braces
        return {
            "status": "error",
            "extracted_text": "",
            "spans": [],
            "n_blocks": 0,
            "error": f"parse_error: {type(e).__name__}: {e}",
        }
    spans = []
    content = []
    for b in raw_blocks:
        t = b["text"]
        # fast path: most blocks have no whitespace runs to collapse
        if "  " in t or "\n" in t or "\t" in t or "\r" in t:
            norm = _WS_RE.sub(" ", t).strip()
        else:
            norm = t.strip()
        if not norm:
            continue
        is_content = classify_block(norm, b["link_chars"])
        spans.append(
            {
                "start": b["start"],
                "end": b["end"],
                "kind": "content" if is_content else "boilerplate",
            }
        )
        if is_content:
            content.append(norm)
    text = "\n".join(content)
    if not text:
        return {
            "status": "empty",
            "extracted_text": "",
            "spans": spans,
            "n_blocks": 0,
            "error": "no_content_blocks",
        }
    return {
        "status": "ok",
        "extracted_text": text,
        "spans": spans,
        "n_blocks": len(content),
        "error": None,
    }
