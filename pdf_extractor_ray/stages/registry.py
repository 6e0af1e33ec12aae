"""Extractor protocol + registry — the user-extension surface (§2.10).

Re-expresses the reference's ``BaseParser`` ABC + ``ParserRegistry``
(/root/reference/dataextractai/parsers_core/base.py:6-26,
registry.py:6-43): an extractor declares ``can_extract`` (content sniff on
the payload head — the ``can_parse`` contract) and ``extract`` (payload →
result dict); the registry routes each document to the FIRST extractor whose
sniff matches (first-match-wins, like ``detect_parser_for_file``,
registry.py:23-36). Unlike the reference there is no import-side-effect
autodiscovery — registration is explicit and the registry is a plain picklable
object that ships to workers inside the batch fn.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable


@runtime_checkable
class Extractor(Protocol):
    name: str
    version: str

    def can_extract(self, payload_head: bytes) -> bool:  # pragma: no cover
        ...

    def extract(self, payload: bytes) -> dict:  # pragma: no cover
        """→ {status, extracted_text, spans, n_blocks, error}."""
        ...


class HtmlExtractor:
    """Adapter over the flagship density classifier."""

    name = "html_density_v1"
    version = "0.1.0"

    def can_extract(self, head: bytes) -> bool:
        return head.lstrip().startswith(b"<")

    def extract(self, payload: bytes) -> dict:
        from .html_extract import extract_html

        return extract_html(payload)


class PdfExtractor:
    """Adapter over the XY-cut layout parser (state built once per instance)."""

    name = "pdf_xycut_v1"
    version = "0.1.0"

    def __init__(self):
        from .pdf_extract import PdfLayoutExtractor

        self._impl = PdfLayoutExtractor()

    def can_extract(self, head: bytes) -> bool:
        return head.lstrip().startswith(b"%PDF")

    def extract(self, payload: bytes) -> dict:
        return self._impl.extract(payload)


class ExtractorRegistry:
    def __init__(self):
        self._extractors: list[Extractor] = []

    def register(self, extractor: Extractor) -> None:
        if not isinstance(extractor, Extractor):
            raise TypeError(f"{extractor!r} does not satisfy the Extractor protocol")
        self._extractors.append(extractor)

    def list_extractors(self) -> list[str]:
        return [e.name for e in self._extractors]

    def detect(self, payload: bytes, head_bytes: int = 64) -> Extractor | None:
        """First extractor whose content sniff matches the payload head."""
        return self.detect_from_head(payload[:head_bytes])

    def detect_from_head(self, head: bytes) -> Extractor | None:
        """Routing against an already-sliced head (hot path: slice once)."""
        for e in self._extractors:
            if e.can_extract(head):
                return e
        return None


def default_registry() -> ExtractorRegistry:
    """Default chain. When a real PDF library is importable (pdfplumber /
    pypdf / PyPDF2 / fitz — the reference's cascade, utils.py:142-262) the
    real-PDF adapter is registered FIRST: its sniff claims real ``%PDF``
    object-stream payloads while the synthetic positioned-token format still
    routes to the XY-cut reader. In this container no backend imports, so
    the chain is unchanged and real PDFs surface as honest error rows."""
    from .pdf_real import RealPdfExtractor, available_backends

    reg = ExtractorRegistry()
    if available_backends():  # pragma: no cover — no PDF lib in container
        reg.register(RealPdfExtractor())
    reg.register(PdfExtractor())
    reg.register(HtmlExtractor())
    return reg
