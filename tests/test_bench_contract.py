"""bench.py driver-contract smoke: fresh process, ONE JSON line on stdout."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_panel_names_exist_in_queries():
    import importlib.util

    for mod_name, path in (("bench", ROOT / "bench.py"), ("__ray_entry__", ROOT / "__ray_entry__.py")):
        spec = importlib.util.spec_from_file_location(mod_name, path)
        m = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(m)
        if mod_name == "bench":
            panel = set(m.QUERY_PANEL)
        else:
            qnames = set(m.queries())
    assert panel <= qnames, panel - qnames


def test_bench_headline_only_prints_one_json_line():
    env = dict(
        os.environ,
        GRAFT_SF_DIR="/root/testdata/sf0.001",
        RAY_GRAFT_CPUS="4",
        GRAFT_BENCH_REPLICATE="2",
        GRAFT_BENCH_BLOCKS="8",
        GRAFT_BENCH_HEADLINE_ONLY="1",
    )
    out = subprocess.run(
        [sys.executable, "bench.py"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=240,
        cwd=ROOT,
    ).stdout
    lines = [l for l in out.strip().splitlines() if l.strip()]
    assert len(lines) == 1, f"stdout must be ONE JSON line, got: {lines}"
    r = json.loads(lines[0])
    assert r["metric"] == "extraction_headline_sec"
    assert r["unit"] == "sec"
    assert r["value"] > 0
    assert r["docs"] == 1000
    assert r["num_cpus"] == 4
    assert r["docs_per_sec"] > 0
    assert r["extract_only_docs_per_sec"] > 0
