"""Date kernels: multi-format parse cascade, ISO output, year splice.

Re-expresses the reference's date normalizer (multi-format strptime cascade →
ISO string, /root/reference/dataextractai/parsers/wellsfargo_visa_parser.py:
401-412 and agents/transaction_normalizer.py:67-113) and year-boundary
inference (MM/DD dates take the statement year; December txn on a
January-dated statement → year−1, wellsfargo_mastercard_parser.py:482-524).

All kernels are pure (no wall clock — the reference's `datetime.now()` year
inference is a known nondeterminism bug the engine must not reproduce,
SURVEY.md §7.4); document context arrives as a column (`warc_ts` analog).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# Cascade order matters: first format that parses wins (reference semantics).
# Known hazard carried over from the reference: %m/%d/%Y will claim a 2-digit
# year ("01/15/24" → year 0024) before %m/%d/%y sees it — callers feeding
# 2-digit-year data should pass an explicit format list.
DATE_FORMATS = ("%Y-%m-%d", "%m/%d/%Y", "%m/%d/%y", "%B %d, %Y", "%d.%m.%Y")


def parse_date_cascade(col) -> pa.Array:
    """String column → timestamp[us], trying each format; unparseable → null
    (reference returns None/NaT, never raises)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    result = pa.nulls(len(col), pa.timestamp("us"))
    for fmt in DATE_FORMATS:
        parsed = pc.strptime(col, format=fmt, unit="us", error_is_null=True)
        result = pc.coalesce(result, parsed)
    return result


def to_iso_date(ts_col) -> pa.Array:
    return pc.strftime(ts_col, format="%Y-%m-%d")


def splice_year(month_col, doc_year_col, doc_month_col) -> pa.Array:
    """Year-boundary inference: record month + document year; if the
    document is dated January and the record month is December, use year−1.
    (Only the MONTH participates — the day never affects the inference.)"""
    doc_year = pc.cast(doc_year_col, pa.int32())
    rollback = pc.and_(pc.equal(doc_month_col, 1), pc.equal(month_col, 12))
    year = pc.if_else(rollback, pc.subtract(doc_year, 1), doc_year)
    return year
