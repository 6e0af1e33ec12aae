"""CLI — the engine's pipeline lifecycle entry point (SURVEY.md §3).

Mirrors the reference's staged CLIs (scripts/grok.py run-parsers → process →
merge; dataextractai/cli.py parse → normalize → classify) as Ray-Data
subcommands over one resumable pipeline:

    python -m pdf_extractor_ray.cli extract  --sf-dir D --out O [--units N]
    python -m pdf_extractor_ray.cli quality  --sf-dir D
    python -m pdf_extractor_ray.cli status   --out O

The CLI owns its Ray session (guarded init, shutdown on exit) — the only
places allowed to besides bench.py and the test fixture.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_session(num_cpus: int | None):
    """Returns (ray, owns_session): only shut down what this CLI started —
    embedding callers (tests, notebooks) keep their session."""
    import ray

    owns = not ray.is_initialized()
    if owns:
        kwargs = {"address": "local", "include_dashboard": False, "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from .context import quiet

    quiet()
    return ray, owns


def cmd_extract(args) -> dict:
    """Resumable flagship run: pages → extract → partitioned parquet +
    lineage commits (grok.py `process` + state.json analog, partition-keyed)."""
    from .state.lineage import LineageLedger, extract_with_resume

    r = extract_with_resume(args.sf_dir, args.out, units=args.units)
    led = LineageLedger(args.out)
    m = led.manifest().to_pandas()
    return {
        "command": "extract",
        "units_run": r["units_run"],
        "skipped_parts": r["skipped_parts"],
        "committed_parts": sorted(led.committed_parts()),
        "n_rows": int(m.n_rows.sum()),
        "n_ok": int(m.n_ok.sum()),
        "n_error": int(m.n_error.sum()),
        "n_empty": int(m.n_empty.sum()),
    }


def cmd_quality(args) -> dict:
    """groupby(host) extraction-quality stats to stdout (upload-to-sheet
    analog — the external sink is replaced by JSON/parquet output)."""
    from . import corpus
    from .pipelines.extract import extract_pages, quality_by_host

    pages = corpus.read_pages(args.sf_dir)
    df = quality_by_host(extract_pages(pages)).to_pandas().sort_values("host")
    return {"command": "quality", "hosts": df.to_dict(orient="records")}


def cmd_status(args) -> dict:
    """Resume-state inspection (state.json `show-state` analog)."""
    from .state.lineage import LineageLedger

    led = LineageLedger(args.out)
    m = led.manifest().to_pandas()
    return {
        "command": "status",
        "committed_parts": sorted(led.committed_parts()),
        "n_rows": int(m.n_rows.sum()) if len(m) else 0,
        "runs": sorted(m.run_id.unique().tolist()) if len(m) else [],
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="pdf_extractor_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("extract", help="resumable extraction run")
    pe.add_argument("--sf-dir", required=True)
    pe.add_argument("--out", required=True)
    pe.add_argument("--units", type=int, default=4)
    pe.set_defaults(fn=cmd_extract)

    pq_ = sub.add_parser("quality", help="groupby(host) quality stats")
    pq_.add_argument("--sf-dir", required=True)
    pq_.set_defaults(fn=cmd_quality)

    ps = sub.add_parser("status", help="inspect resume ledger")
    ps.add_argument("--out", required=True)
    ps.set_defaults(fn=cmd_status)

    args = p.parse_args(argv)
    needs_ray = args.command in ("extract", "quality")
    ray, owns = _ray_session(args.num_cpus) if needs_ray else (None, False)
    try:
        print(json.dumps(args.fn(args)))
    finally:
        if ray is not None and owns:
            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
