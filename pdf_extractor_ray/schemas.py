"""Arrow schemas and shared constants for the engine.

The input table (``pages``, built by ``corpus.pages_batch_from_documents``)
follows BASELINE.json's ``input_hint``: ``url:string, warc_ts:timestamp[us],
html:binary, text:string, lang:string``, after a ``doc_id:int64`` key.

The extracted-output schema mirrors FIXTURES.md §1 and plays the role the
reference's ``TransactionRecord``/``ParserOutput`` contract plays
(/root/reference/dataextractai/parsers_core/models.py:5-95): a fixed,
boundary-enforced schema with lineage columns (extractor name/version, error,
status) — re-expressed as a ``pyarrow.Schema`` instead of Pydantic models.
"""

from __future__ import annotations

import pyarrow as pa

SPAN_TYPE = pa.struct(
    [
        pa.field("start", pa.int32()),
        pa.field("end", pa.int32()),
        pa.field("kind", pa.string()),
    ]
)

# extracted — one row per input page (FIXTURES.md §1 expected output schema)
EXTRACTED_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.int64()),
        pa.field("url", pa.string()),
        pa.field("status", pa.string()),  # ok | error | empty
        pa.field("extracted_text", pa.large_string()),
        pa.field("spans", pa.list_(SPAN_TYPE)),
        pa.field("n_blocks", pa.int32()),
        pa.field("doc_kind", pa.string()),  # html | pdf | unknown
        pa.field("extractor", pa.string()),
        pa.field("extractor_version", pa.string()),
        pa.field("error", pa.string()),  # null iff status == ok
        pa.field("lang", pa.string()),
        pa.field("host", pa.string()),
        pa.field("part_id", pa.int32()),
    ]
)

# lineage ledger — one row per committed output partition (SURVEY.md §4.2)
LINEAGE_SCHEMA = pa.schema(
    [
        pa.field("part_id", pa.int32()),
        pa.field("run_id", pa.string()),
        pa.field("n_rows", pa.int64()),
        pa.field("n_ok", pa.int64()),
        pa.field("n_error", pa.int64()),
        pa.field("n_empty", pa.int64()),
        pa.field("status", pa.string()),  # committed
    ]
)

EXTRACTOR_VERSION = "0.1.0"

# Default partition count for url-hash partitioning. At 100 TB this would be
# sized so one partition ≈ a few GB (e.g. 16k–64k partitions); for the sandbox
# corpus 16 keeps per-partition files non-trivial.
DEFAULT_NUM_PARTITIONS = 16
