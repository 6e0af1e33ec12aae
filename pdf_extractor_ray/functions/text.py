"""String kernels over Arrow columns (SURVEY.md §2.8).

Vectorized (pyarrow.compute) re-expressions of the reference's string
operators: description cleaning (/root/reference/dataextractai/agents/
transaction_normalizer.py:381-407), keyword include/exclude filtering
(utils/utils.py:53-70 with the PERSONAL_EXPENSES list, utils/config.py:
618-730), and column-name standardization (utils/utils.py:18-26).
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc



def clean_description(col: pa.ChunkedArray | pa.Array, noise_pattern: str = r"\bdup\b") -> pa.Array:
    """Remove noise tokens, collapse space runs, trim (vectorized).

    Reference removes POS/ACH/REF/card-number noise then collapses whitespace
    (transaction_normalizer.py:381-407); the kernel is parameterized on the
    noise regex so per-source noise vocabularies plug in declaratively.
    """
    out = pc.replace_substring_regex(col, pattern=noise_pattern, replacement="")
    out = pc.replace_substring_regex(out, pattern=" +", replacement=" ")
    return pc.utf8_trim_whitespace(out)


def contains_any(col, keywords: list[str]) -> pa.Array:
    """Boolean mask: value contains ANY keyword (substring semantics, like the
    reference's `any(kw in desc for kw in keywords)`, utils/utils.py:64-66)."""
    mask = pc.match_substring(col, keywords[0])
    for kw in keywords[1:]:
        mask = pc.or_(mask, pc.match_substring(col, kw))
    return mask


def keyword_filter_batch(batch: pa.Table, column: str, keywords: list[str], mode: str) -> pa.Table:
    """mode="exclude": drop rows containing any keyword; mode="include": keep them."""
    mask = contains_any(batch.column(column), keywords)
    if mode == "exclude":
        mask = pc.invert(mask)
    return batch.filter(mask)


def standardize_name(value: str) -> str:
    """`\\W+` → `_`, lowercase (utils/utils.py:18-26) — used for both column
    names and value standardization."""
    return re.sub(r"\W+", "_", value).lower()


def standardize_column(col) -> pa.Array:
    out = pc.utf8_lower(col)
    return pc.replace_substring_regex(out, pattern=r"\W+", replacement="_")


# PII patterns (RE2-compatible — no lookarounds — so the DuckDB oracle can
# mirror them exactly); order matters: email before phone before card-run
PII_PATTERNS = (
    r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",  # email
    r"\d{3}[-.]\d{3}[-.]\d{4}",  # phone-like
    r"\d{13,16}",  # card-number-like digit run
)
PII_REPLACEMENT = "[REDACTED]"


def count_pii(col) -> pa.Array:
    """Per-row count of PII-looking matches (emails + phones + digit runs)."""
    total = pc.count_substring_regex(col, pattern=PII_PATTERNS[0])
    for p in PII_PATTERNS[1:]:
        total = pc.add(total, pc.count_substring_regex(col, pattern=p))
    return pc.cast(total, pa.int64())


def scrub_pii(col) -> pa.Array:
    """Redact PII-looking substrings (standard training-data hygiene op):
    vectorized regex replacement chain, deterministic placeholder token."""
    out = col
    for p in PII_PATTERNS:
        out = pc.replace_substring_regex(out, pattern=p, replacement=PII_REPLACEMENT)
    return out


def normalize_nfkd_ascii(value: str) -> str:
    """Unicode NFKD + ASCII fold (utils/utils.py:205's aggressive normalize
    used by the statement-date extractor before regex matching)."""
    import unicodedata

    return (
        unicodedata.normalize("NFKD", value).encode("ascii", "ignore").decode("ascii")
    )
