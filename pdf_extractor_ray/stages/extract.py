"""Unified extraction stage: detect payload kind → route → extract → emit.

The reference routes each file through ``detect_parser_for_file`` (first
``can_parse`` winner, /root/reference/dataextractai/parsers_core/
registry.py:23-36) and *never fails the job on one bad document* (per-row
try/except → log + skip, registry.py:33-35). Here detection is a magic-bytes
sniff per row and extraction errors become ``status="error"`` rows — the
ok/error column convention that every downstream stage preserves
(SURVEY.md §7.4 "error semantics").

Implemented as ONE ``map_batches`` stage that routes per row inside the
batch instead of two ``ds.filter`` branch datasets: Ray datasets re-execute
upstream lineage per consumer, so branching at this point would scan (and
re-render) every page twice. Rows are extracted one at a time, in row
order, so a row's result depends on its payload and url alone — never on
how rows are split into batches. The stateful ``PdfLayoutExtractor`` is
built once per worker process (``pipelines/extract.py``); the HTML path is
a pure function. The wide ``html`` binary column is dropped on output so
downstream blocks shrink (SURVEY.md §4.2 "wide binary rows").
"""

from __future__ import annotations

import zlib

import pyarrow as pa

from ..schemas import DEFAULT_NUM_PARTITIONS, EXTRACTED_SCHEMA, EXTRACTOR_VERSION, SPAN_TYPE
from .registry import ExtractorRegistry, default_registry


def detect_kind(payload: bytes, _head: bytes | None = None) -> str:
    """Content sniffing on the payload head (``can_parse`` analog).
    ``_head`` lets a caller that already sliced the head avoid re-slicing."""
    head = (_head if _head is not None else payload[:64]).lstrip()
    if head.startswith(b"%PDF"):
        return "pdf"
    if head.startswith(b"<"):
        return "html"
    return "unknown"


def url_host(url: str) -> str:
    rest = url.split("://", 1)[-1]
    return rest.split("/", 1)[0]


def url_part_id(url: str, num_partitions: int = DEFAULT_NUM_PARTITIONS) -> int:
    """Deterministic url-hash partition id (the explicit partitioning key the
    north rule asks for; crc32 is stable across processes/platforms)."""
    return zlib.crc32(url.encode("utf-8")) % num_partitions


class ExtractDocuments:
    """Callable class for ``map_batches``; ``pipelines/extract.py`` caches
    one instance per worker process.

    Stateful setup (the extractor registry with its layout-parser geometry
    and compiled token regexes) happens once in ``__init__``; each
    ``__call__`` processes one Arrow batch, routing every row through the
    first registered extractor whose content sniff matches (§2.10 registry
    contract). Custom extractors plug in via ``registry=``.
    """

    def __init__(
        self,
        num_partitions: int = DEFAULT_NUM_PARTITIONS,
        registry: ExtractorRegistry | None = None,
    ):
        self.num_partitions = num_partitions
        self.registry = registry or default_registry()

    @staticmethod
    def _extract_row(ex, payload: bytes) -> dict:
        try:
            return ex.extract(payload)
        except Exception as e:
            # the reference's per-row guard (registry.py:33-35): one
            # pathological document becomes an error ROW — it must
            # never fail the task/job (this module's stated contract)
            return {
                "status": "error",
                "extracted_text": "",
                "spans": [],
                "n_blocks": 0,
                "error": f"extractor_exception: {type(e).__name__}: {e}"[:200],
            }

    @staticmethod
    def _set_result(out: dict, i: int, r: dict) -> None:
        out["status"][i] = r["status"]
        out["extracted_text"][i] = r["extracted_text"]
        out["spans"][i] = r["spans"]
        out["n_blocks"][i] = r["n_blocks"]
        out["error"][i] = r["error"]

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist() if "doc_id" in batch.column_names else [None] * batch.num_rows
        urls = batch.column("url").to_pylist()
        payloads = batch.column("html").to_pylist()
        langs = batch.column("lang").to_pylist() if "lang" in batch.column_names else [None] * batch.num_rows

        n = batch.num_rows
        out: dict[str, list] = {k: [None] * n for k in (
            "status", "extracted_text", "spans", "n_blocks", "doc_kind",
            "extractor", "error", "host", "part_id",
        )}
        for i, (url, payload) in enumerate(zip(urls, payloads)):
            payload = payload or b""
            head = payload[:64]  # sniffed ONCE, shared by kind + routing
            out["doc_kind"][i] = detect_kind(payload, _head=head)
            out["host"][i] = url_host(url)
            out["part_id"][i] = url_part_id(url, self.num_partitions)
            ex = self.registry.detect_from_head(head)
            if ex is None:
                out["extractor"][i] = "none"
                self._set_result(out, i, {
                    "status": "error", "extracted_text": "", "spans": [],
                    "n_blocks": 0, "error": "unknown_payload_kind",
                })
                continue
            out["extractor"][i] = ex.name
            self._set_result(out, i, self._extract_row(ex, payload))

        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "url": pa.array(urls, type=pa.string()),
                "status": pa.array(out["status"], type=pa.string()),
                "extracted_text": pa.array(out["extracted_text"], type=pa.large_string()),
                "spans": pa.array(out["spans"], type=pa.list_(SPAN_TYPE)),
                "n_blocks": pa.array(out["n_blocks"], type=pa.int32()),
                "doc_kind": pa.array(out["doc_kind"], type=pa.string()),
                "extractor": pa.array(out["extractor"], type=pa.string()),
                "extractor_version": pa.array([EXTRACTOR_VERSION] * batch.num_rows, type=pa.string()),
                "error": pa.array(out["error"], type=pa.string()),
                "lang": pa.array(langs, type=pa.string()),
                "host": pa.array(out["host"], type=pa.string()),
                "part_id": pa.array(out["part_id"], type=pa.int32()),
            },
            schema=EXTRACTED_SCHEMA,
        )
