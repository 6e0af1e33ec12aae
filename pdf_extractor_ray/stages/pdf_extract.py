"""PDF-style layout extraction: XY-cut region segmentation + reading order.

The engine's stateful extractor (north star: pdfminer-style layout
parsing; reference analogs: the whitespace-geometry line classifier of
/root/reference/dataextractai/parsers/wellsfargo_bank_parser.py:41-126 and
the organizer's page→region→field cascade, organizer_extractor.py:775-1200).

Payload format (synthetic, see corpus.render_pdf): ``%PDF-1.4`` magic, one
``T <page> <x> <y> <word>`` token per word in arbitrary stream order, a
``%%EOF`` trailer. A correct reader must reconstruct reading order
*geometrically*:

1. drop running-header / page-footer bands (y outside [40, 760]),
2. per page, find the dominant vertical whitespace gap in the x-projection
   (one-level XY-cut) to split columns,
3. read columns left→right, lines top→bottom (descending y), words by x.

``PdfLayoutExtractor`` is a class so its state (compiled patterns + geometry
config) is built once per worker process (``pipelines/extract.py``), matching
the reference's load-once parser objects (SURVEY.md §2.3).
"""

from __future__ import annotations

import re

EXTRACTOR_NAME = "pdf_xycut_v1"

BAND_Y_MIN = 40  # tokens below → page footer
BAND_Y_MAX = 760  # tokens above → running header
COLUMN_GAP_MIN = 60  # x-projection gap that constitutes a column cut


class PdfLayoutExtractor:
    """Stateful layout parser: construct once per actor, call per payload."""

    def __init__(
        self,
        band_y_min: int = BAND_Y_MIN,
        band_y_max: int = BAND_Y_MAX,
        column_gap_min: int = COLUMN_GAP_MIN,
        detect_tables: bool = True,
    ):
        self.band_y_min = band_y_min
        self.band_y_max = band_y_max
        self.column_gap_min = column_gap_min
        self.detect_tables = detect_tables
        self._token_re = re.compile(r"^T (\d+) (\d+) (\d+) (\S+)$")
        self._numeric_re = re.compile(r"^\d+([.,]\d+)?$")

    # -- geometry -----------------------------------------------------------
    def _split_columns(self, tokens: list[tuple[int, int, str]]) -> list[list[tuple[int, int, str]]]:
        """One-level vertical cut at the largest x-gap ≥ column_gap_min."""
        xs = sorted({t[0] for t in tokens})
        best_gap, cut = 0, None
        for a, b in zip(xs, xs[1:]):
            if b - a > best_gap:
                best_gap, cut = b - a, (a + b) // 2
        if cut is None or best_gap < self.column_gap_min:
            return [tokens]
        left = [t for t in tokens if t[0] < cut]
        right = [t for t in tokens if t[0] >= cut]
        # recurse BOTH sides: the largest gap may not be the leftmost one,
        # so either side can still contain multiple columns
        return self._split_columns(left) + self._split_columns(right)

    def _read_column_lines(self, tokens: list[tuple[int, int, str]]) -> list[list[str]]:
        """Column → lines (top→bottom = y descending; within a line x asc)."""
        lines: dict[int, list[tuple[int, str]]] = {}
        for x, y, w in tokens:
            lines.setdefault(y, []).append((x, w))
        return [
            [w for _, w in sorted(ws)]
            for _, ws in sorted(lines.items(), key=lambda kv: -kv[0])
        ]

    def _is_table_row(self, line_words: list[str]) -> bool:
        """Line/table detection (north star: 'table/line detection echoing the
        repo's bank-statement field normalizer'): a line of ≥3 tokens where
        ≥60% are numeric is a table row — the engine analog of the reference's
        amount-column line parsing (wellsfargo_bank_parser.py:41-126)."""
        if len(line_words) < 3:
            return False
        numeric = sum(1 for w in line_words if self._numeric_re.match(w))
        return numeric * 10 >= len(line_words) * 6

    # -- parsing ------------------------------------------------------------
    def extract(self, payload: bytes) -> dict:
        try:
            doc = payload.decode("utf-8")
        except UnicodeDecodeError as e:
            return self._err(f"decode_error: {e.reason}")
        lines = doc.split("\n")
        if not lines or not lines[0].startswith("%PDF"):
            return self._err("bad_magic")
        if "%%EOF" not in lines:
            return self._err("missing_eof")
        pages: dict[int, list[tuple[int, int, str]]] = {}
        n_header_footer = 0
        for ln in lines[1:]:
            if not ln or ln == "%%EOF" or ln.startswith("%"):
                continue
            m = self._token_re.match(ln)
            if m is None:
                return self._err(f"bad_token_line: {ln[:40]!r}")
            page, x, y, word = int(m[1]), int(m[2]), int(m[3]), m[4]
            if y < self.band_y_min or y > self.band_y_max:
                n_header_footer += 1
                continue
            pages.setdefault(page, []).append((x, y, word))
        words: list[str] = []
        spans = []  # page spans in reading order, then table_row spans
        table_spans = []
        n_blocks = 0
        offset = 0  # char offset into the final " "-joined text
        for page in sorted(pages):
            page_span_start = None
            cols = sorted(self._split_columns(pages[page]), key=lambda c: min(t[0] for t in c))
            for col in cols:
                n_blocks += 1
                for line_words in self._read_column_lines(col):
                    line_start = offset + (1 if words else 0)
                    line_len = sum(len(w) for w in line_words) + len(line_words) - 1
                    if page_span_start is None:
                        page_span_start = line_start
                    if self.detect_tables and self._is_table_row(line_words):
                        table_spans.append(
                            {"start": line_start, "end": line_start + line_len, "kind": "table_row"}
                        )
                    offset = line_start + line_len
                    words.extend(line_words)
            if page_span_start is not None:
                spans.append({"start": page_span_start, "end": offset, "kind": "page"})
        spans.extend(table_spans)
        text = " ".join(words)
        if not text:
            return {
                "status": "empty",
                "extracted_text": "",
                "spans": spans,
                "n_blocks": 0,
                "error": "no_content_tokens",
            }
        return {
            "status": "ok",
            "extracted_text": text,
            "spans": spans,
            "n_blocks": n_blocks,
            "error": None,
        }

    @staticmethod
    def _err(msg: str) -> dict:
        return {
            "status": "error",
            "extracted_text": "",
            "spans": [],
            "n_blocks": 0,
            "error": msg,
        }
