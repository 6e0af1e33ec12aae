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
   document — replaced stdlib html.parser, which was 83% of extraction CPU).
   The scan matches tags only: a text run is the gap between two tags, and
   a ``<script>``/``<style>``/… body is passed over in one regex match,
   so the Python loop runs once per tag and its kind is one dict lookup,
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

# Tag-only tokenizer. Every '<' starts exactly one token, tried in this
# order: a comment, a markup declaration, a named tag (slash and name
# CAPTURED, so no second regex runs per tag), other '<…>' garbage, and a
# trailing unterminated '<' fragment (truncated docs). The named tag's
# `(?:>|$)` keeps a truncated tag (`<a hre` at EOF) a tag. A text run is
# the gap between two tokens (it never holds '<'), so the scan's Python
# loop runs once per tag, not once per tag and once per text run.
_NAMED_TAIL = r"[^>]*(?:>|$)"
_TAG_RE = re.compile(
    r"<!--.*?(?:-->|$)"
    r"|<![^>]*>"
    r"|<\s*(/?)\s*([a-zA-Z][a-zA-Z0-9:-]*)" + _NAMED_TAIL
    + r"|<[^>]*>"
    r"|<[^>]*$",
    re.DOTALL,
)


# A token inside a skip body, with the extent the scan would give it: a
# comment, else anything from '<' to the first '>' (or the end) — a named
# tag, a declaration and garbage all end there — else a text run. No
# capturing groups: CPython 3.11 mis-tracks groups inside possessive repeats.
_BODY_TOKEN = r"<!--.*?(?:-->|$)|<[^>]*(?:>|$)|[^<]+"


def _skip_body_re(name: str) -> re.Pattern:
    """Matches the body of an opened skip tag up to and including its close
    tag, in one call. It steps over whole tokens atomically, the tokens the
    scan itself would cut, so a close tag inside a comment does not end the
    body. The close tag's name matches ASCII-case-insensitively and in full
    (``</scriptx>`` does not close ``<script>``); only the name is
    ASCII-scoped, so ``\\s`` keeps matching Unicode whitespace as in
    ``_TAG_RE`` (``<\\u00a0/script>`` closes the body there too)."""
    close = rf"<\s*/\s*(?ai:{name})(?![a-zA-Z0-9:-])" + _NAMED_TAIL
    return re.compile(rf"(?:(?!{close})(?>{_BODY_TOKEN}))*+{close}", re.DOTALL)


# tag name → what the scan does with it: one dict lookup per tag (the
# lower-cased name is looked up only on a miss). A skip tag maps to its
# body regex.
_BLOCK, _ANCHOR, _BR = "block", "a", "br"
_KIND: dict = {
    **dict.fromkeys(_BLOCK_TAGS, _BLOCK),
    "a": _ANCHOR,
    "br": _BR,
    **{t: _skip_body_re(t) for t in _SKIP_TAGS},
}


def _anchor_close_positions(doc: str) -> dict[int, int]:
    """open-tag position → matching close-tag position for every PAIRED
    ``<a>`` in the document (stack pairing). Used lazily by the scanner to
    let a properly-closed anchor's scope survive block boundaries (card
    links) while an unclosed anchor still dies at the boundary.

    Tokenizes with the SAME regexes and skip-body elision as ``_scan_blocks``
    so pre-pass pairing can never disagree with scanner state — an ``</a>``
    inside a comment or a ``<script>`` body does not pair, and ``<a-card>``
    / ``<a:ns>`` custom elements are not anchors."""
    pairs: dict[int, int] = {}
    stack: list[int] = []
    pos = 0
    while True:
        for m in _TAG_RE.finditer(doc, pos):
            name = m.group(2)
            if name is None:
                continue
            kind = _KIND.get(name) or _KIND.get(name.lower())
            if kind is None or kind is _BLOCK or kind is _BR:
                continue
            closing = m.group(1)
            if kind is _ANCHOR:
                if not closing:
                    stack.append(m.start())
                elif stack:
                    pairs[stack.pop()] = m.start()
            elif not closing and not doc.startswith("/>", m.end() - 2):
                body = kind.match(doc, m.end())
                pos = body.end() if body else len(doc)
                break
        else:
            return pairs


def _scan_blocks(doc: str) -> list[tuple[str, int, int, int]]:
    """Segment decoded HTML into text blocks ``(text, link_chars, start,
    end)`` with char-offset spans.

    A single-pass scanner over tags only (~4× faster than stdlib html.parser,
    which dominated the extraction profile), with the semantics the test
    suite pins: skip-tag subtree elision with raw-content skip for
    script/style (one regex match per body), block-tag flush boundaries,
    <a>-depth link-char counting, entity decoding, <br> → space, tolerant of
    truncated/unclosed markup. Each text run between two tokens is added on
    its own: entity decoding and link-char counting are per run.
    """
    blocks: list[tuple[str, int, int, int]] = []
    pieces: list[str] = []
    link_chars = 0
    b_start = -1
    b_end = -1
    anchor_stack: list[int] = []  # open positions of <a> tags in scope
    anchor_pairs: dict[int, int] | None = None  # lazy (see flush)

    def flush(pos: int):
        nonlocal pieces, link_chars, b_start, b_end, anchor_stack, anchor_pairs
        if pieces:
            blocks.append(("".join(pieces), link_chars, b_start, b_end))
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

    prev = 0  # end of the last token (or skipped body): text resumes here
    pos = 0
    while True:
        for m in _TAG_RE.finditer(doc, pos):
            start, end = m.span()
            if start > prev:  # the text run before this tag
                text = doc[prev:start]
                add(unescape(text) if "&" in text else text, prev, start)
            prev = end
            slash, name = m.groups()
            if name is None:  # comment / declaration / '<' garbage
                continue
            kind = _KIND.get(name) or _KIND.get(name.lower())
            if kind is None:
                continue
            if kind is _BLOCK:
                if pieces or anchor_stack:
                    flush(start)
            elif kind is _ANCHOR:
                if not slash:
                    anchor_stack.append(start)
                elif anchor_stack:
                    anchor_stack.pop()
            elif kind is _BR:
                add(" ", start, start)
            elif not slash and not doc.startswith("/>", end - 2):
                # raw content: everything up to the matching close tag (the
                # rest of the document when it has none) is skipped
                body = kind.match(doc, end)
                prev = pos = body.end() if body else len(doc)
                break
        else:
            break
    if prev < len(doc):
        text = doc[prev:]
        add(unescape(text) if "&" in text else text, prev, len(doc))
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
    for t, link_chars, b_start, b_end in raw_blocks:
        # fast path: most blocks have no whitespace runs to collapse
        if "  " in t or "\n" in t or "\t" in t or "\r" in t:
            norm = _WS_RE.sub(" ", t).strip()
        else:
            norm = t.strip()
        if not norm:
            continue
        is_content = classify_block(norm, link_chars)
        spans.append(
            {
                "start": b_start,
                "end": b_end,
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
