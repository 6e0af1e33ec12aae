"""Byte-identity of the HTML scanner on a seeded fuzz corpus.

``fuzz_corpus()`` builds ~5k small documents from the fragment kinds a
tokenizer can get wrong: block / inline / anchor / ``<br>`` tags in mixed
case, skip-tag bodies holding close tags inside comments, declarations,
look-alike names and Unicode whitespace, self-closing skip tags, comments,
markup declarations, ``<`` garbage, entities (including char refs that
decode to nothing), non-ASCII text and truncated markup. The golden holds
``extract_html``'s output for every document as the scanner gave it when the
golden was frozen, so any rewrite of the scanner must reproduce it exactly.

Regenerate (only with a scanner known to be right) from the checkout root:
``python tests/test_html_scan_fuzz.py --write``.
"""

from __future__ import annotations

import hashlib
import pathlib
import random
import sys

GOLDEN = pathlib.Path(__file__).resolve().parent / "goldens" / "html_scan_fuzz.parquet"
SEED = 20240611
N_DOCS = 5000

LONG = "this sentence is long enough to count as main content"
WORDS = (
    "alpha beta gamma delta news story report the a of and to in "
    "h\u00e9llo na\u00efve \u65e5\u672c\u8a9e \u03a9mega \u017fome \u212aelvin"
).split()
PHRASES = ("all rights reserved", "privacy policy", "sign in", "click here", "subscribe")
SPACES = (" ", " ", " ", "  ", "\n", "\t", "\r\n", "\u00a0", "\u2003", "")
ENTITIES = (
    "&amp;", "&lt;", "&gt;", "&#60;", "&#x3C;", "&nbsp;", "&copy;",
    "&bogus;", "&", "&amp", "&#1;", "&#0;", "&#x110000;", "&lt;/script&gt;",
)
BLOCKS = "p div li h1 td section article nav footer hr ul table tr".split()
INLINE = "span b em i strong abbr".split()
SKIPS = "script style noscript template svg head title".split()
DECLS = ("<!DOCTYPE html>", "<![CDATA[ x ]]>", "<!x>", "<!>", "<!-->")
# look-alikes that lower-case or case-fold to ASCII letters
LONG_S, DOTTED_I = "\u017f", "\u0130"
GARBAGE = (
    "< p>", "< / p >", "<>", "<3", " a < b ", "<1abc>", "</ >", "<\u2003p>",
    "<p\u00a0class=x>", "<p/>", "</p/>", "<a title=\"x>y\">", "<-->", "<\u00a0/div>",
)


def _case(rng: random.Random, name: str) -> str:
    r = rng.random()
    if r < 0.7:
        return name
    if r < 0.85:
        return name.upper()
    return "".join(c.upper() if rng.random() < 0.5 else c for c in name)


def _text(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randint(1, 8)):
        r = rng.random()
        if r < 0.15:
            parts.append(LONG)
        elif r < 0.22:
            parts.append(rng.choice(PHRASES))
        elif r < 0.32:
            parts.append(rng.choice(ENTITIES))
        else:
            parts.append(rng.choice(WORDS))
        parts.append(rng.choice(SPACES))
    return "".join(parts)


def _attrs(rng: random.Random) -> str:
    return rng.choice(("", "", ' class="x"', " id=y", ' href="/z"', " data-a='1 > 0'", "\n", " "))


def _tag(rng: random.Random, name: str) -> str:
    r = rng.random()
    if r < 0.55:
        return f"<{_case(rng, name)}{_attrs(rng)}>"
    if r < 0.85:
        return f"</{_case(rng, name)}>"
    return rng.choice((f"<{name}/>", f"< {name}>", f"</ {name} >", f"<{name}\t>", f"< /{name}>"))


def _skip_close(rng: random.Random, name: str) -> str:
    """A string that closes (or looks like it closes) a skip-tag body."""
    return rng.choice((
        f"</{name}>", f"</{name}>", f"</{_case(rng, name)}>", f"</{name} >",
        f"< / {name}>", f"<\u00a0/{name}>", f"</{name}\u00a0>", f"</{name}x>",
        f"</{name}-x>", f"</{name}:x>", f"</{name.replace('s', LONG_S)}>",
        f"</{name.replace('i', DOTTED_I)}>", f"</{name}",
    ))


def _skip_body(rng: random.Random, name: str) -> str:
    inner = []
    for _ in range(rng.randint(0, 4)):
        inner.append(rng.choice((
            _text(rng), f"<!-- </{name}> -->", f"<![CDATA[</{name}>]]>", "</div>",
            "<p>", f"<{name}>", "<a href=x>", "</a>", f"'</' + '{name}>'",
            _skip_close(rng, name), "<!-- unclosed ", "<", "<br>",
        )))
    closer = _skip_close(rng, name) if rng.random() < 0.9 else ""
    return f"<{_case(rng, name)}{_attrs(rng)}>" + "".join(inner) + closer


def _fragment(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.28:
        return _text(rng)
    if r < 0.45:
        return _tag(rng, rng.choice(BLOCKS))
    if r < 0.52:
        return _tag(rng, rng.choice(INLINE))
    if r < 0.64:
        return rng.choice((
            '<a href="/x">', "</a>", "<A HREF='/y'>", "</A>", "<a>", "<a-card>",
            "</a-card>", "<a:ns>", "</a:ns>", "< a href=z>", "</a >", "<a/>",
        ))
    if r < 0.68:
        return rng.choice(("<br>", "<br/>", "<BR />", "</br>", "<br\n>"))
    if r < 0.78:
        return _skip_body(rng, rng.choice(SKIPS))
    if r < 0.81:
        name = rng.choice(SKIPS)
        return rng.choice((f"<{name}/>", f"<{_case(rng, name)} />", f"</{name}>"))
    if r < 0.89:
        return rng.choice((
            "<!-- x -->", "<!-- </p> -->", "<!-- </script> -->", "<!---->",
            "<!-- <a href=x> -->", "<!-- </a> -->", "<!--\n-->", "<!-- <p>",
        ))
    if r < 0.93:
        return rng.choice(DECLS)
    return rng.choice(GARBAGE)


def fuzz_corpus(seed: int = SEED, n: int = N_DOCS) -> list[bytes]:
    """``n`` seeded documents as utf-8 payloads (a few are cut mid-markup,
    end in a newline, or are not valid utf-8)."""
    rng = random.Random(seed)
    docs = []
    for _ in range(n):
        doc = "".join(_fragment(rng) for _ in range(rng.randint(1, 24)))
        r = rng.random()
        if r < 0.15 and doc:
            doc = doc[: rng.randrange(len(doc))]
        elif r < 0.2:
            doc += "\n"
        payload = doc.encode("utf-8")
        if rng.random() < 0.01:
            payload += b"\xff"
        docs.append(payload)
    return docs


def _digest(docs: list[bytes]) -> str:
    h = hashlib.sha256()
    for d in docs:
        h.update(len(d).to_bytes(8, "little"))
        h.update(d)
    return h.hexdigest()


def _outputs(docs: list[bytes]):
    import pyarrow as pa

    from pdf_extractor_ray.stages.html_extract import extract_html

    rows = [extract_html(d) for d in docs]
    return pa.table(
        {
            "status": [r["status"] for r in rows],
            "extracted_text": [r["extracted_text"] for r in rows],
            "spans": [r["spans"] for r in rows],
            "n_blocks": [r["n_blocks"] for r in rows],
            "error": [r["error"] for r in rows],
        }
    )


def test_scanner_matches_frozen_outputs():
    import pyarrow.parquet as pq

    docs = fuzz_corpus()
    golden = pq.read_table(GOLDEN)
    assert golden.schema.metadata[b"corpus_sha256"].decode() == _digest(docs), (
        "the fuzz generator changed; the golden no longer describes this corpus"
    )
    got = _outputs(docs)
    assert got.num_rows == golden.num_rows == N_DOCS
    for col in golden.column_names:
        want, have = golden.column(col).to_pylist(), got.column(col).to_pylist()
        bad = [i for i in range(N_DOCS) if want[i] != have[i]]
        assert not bad, (col, len(bad), docs[bad[0]], want[bad[0]], have[bad[0]])


def test_fuzz_corpus_reaches_every_outcome():
    """The corpus is only worth pinning if it reaches every output class and
    both span kinds."""
    import pyarrow.parquet as pq

    golden = pq.read_table(GOLDEN).to_pandas()
    assert set(golden["status"]) == {"ok", "empty", "error"}
    kinds = {s["kind"] for spans in golden["spans"] for s in spans}
    assert kinds == {"content", "boilerplate"}
    assert (golden["status"] == "ok").mean() > 0.3


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import pyarrow.parquet as pq

    corpus = fuzz_corpus()
    table = _outputs(corpus)
    table = table.replace_schema_metadata({"corpus_sha256": _digest(corpus)})
    pq.write_table(table, GOLDEN, compression="zstd")
    print(f"wrote {GOLDEN} ({table.num_rows} rows)")
