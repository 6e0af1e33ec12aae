"""Checkpoint/resume semantics (FIXTURES.md §4, SURVEY.md §5d):
kill after partial commit, re-run, assert no duplicates, no recompute of
committed partitions, and an identical final table."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pdf_extractor_ray.schemas import DEFAULT_NUM_PARTITIONS
from pdf_extractor_ray.state.lineage import LineageLedger, doc_part_ids, extract_with_resume


def _read_all(out_dir):
    return pq.read_table(os.path.join(out_dir, "data")).to_pandas()


def test_full_run_commits_all_partitions(sf_dir, tmp_path):
    out = str(tmp_path / "run")
    r = extract_with_resume(sf_dir, out, units=4)
    assert r["units_run"] == 4
    ledger = LineageLedger(out)
    assert ledger.committed_parts() == set(range(16))
    df = _read_all(out)
    assert len(df) == 500
    assert df.doc_id.is_unique
    m = ledger.manifest().to_pandas()
    assert m.n_rows.sum() == 500
    assert (m.n_ok + m.n_error + m.n_empty == m.n_rows).all()


def test_crash_and_resume_recomputes_nothing_committed(sf_dir, tmp_path):
    out = str(tmp_path / "run")
    # run 1: crash after 2 of 4 units committed
    with pytest.raises(RuntimeError, match="injected_failure"):
        extract_with_resume(sf_dir, out, units=4, fail_after_units=2)
    ledger = LineageLedger(out)
    done_before = ledger.committed_parts()
    assert 0 < len(done_before) < 16
    # record the committed partitions' file mtimes
    mtimes = {}
    for p in done_before:
        pdir = os.path.join(out, "data", f"part_id={p}")
        for f in os.listdir(pdir):
            mtimes[f"{p}/{f}"] = os.path.getmtime(os.path.join(pdir, f))

    # run 2: resume to completion
    r = extract_with_resume(sf_dir, out, units=4)
    assert r["skipped_parts"] == sorted(done_before)
    assert r["units_run"] == 2  # only the uncommitted waves ran
    assert ledger.committed_parts() == set(range(16))

    # committed partitions were not rewritten
    for key, mt in mtimes.items():
        p, f = key.split("/", 1)
        path = os.path.join(out, "data", f"part_id={p}", f)
        assert os.path.getmtime(path) == mt, f"partition {p} was recomputed"

    # final table identical to a clean one-shot run
    df = _read_all(out).sort_values("doc_id").reset_index(drop=True)
    assert len(df) == 500
    assert df.doc_id.is_unique
    clean = str(tmp_path / "clean")
    extract_with_resume(sf_dir, clean, units=4)
    cdf = _read_all(clean).sort_values("doc_id").reset_index(drop=True)
    pd_cols = ["doc_id", "url", "status", "extracted_text", "host", "part_id"]
    assert df[pd_cols].equals(cdf[pd_cols])


def test_resume_on_complete_run_is_noop(sf_dir, tmp_path):
    out = str(tmp_path / "run")
    extract_with_resume(sf_dir, out, units=2)
    r = extract_with_resume(sf_dir, out, units=2)
    assert r["units_run"] == 0
    assert r["skipped_parts"] == list(range(16))


def test_mid_write_crash_partial_files_are_cleared_on_resume(sf_dir, tmp_path):
    """A crash MID-WRITE leaves parquet files in a partition dir with no
    manifest row; resume must treat them as garbage (manifest-after-data
    ordering), not append next to them."""
    import pyarrow as pa
    import pyarrow.parquet as pq2

    out = str(tmp_path / "run")
    with pytest.raises(RuntimeError):
        extract_with_resume(sf_dir, out, units=4, fail_after_units=2)
    done = LineageLedger(out).committed_parts()
    victim = next(p for p in range(16) if p not in done)
    pdir = os.path.join(out, "data", f"part_id={victim}")
    os.makedirs(pdir, exist_ok=True)
    # fake partial output from the dead run
    pq2.write_table(
        pa.table({"doc_id": [999999], "url": ["https://junk/x"], "status": ["ok"]}),
        os.path.join(pdir, "partial-000.parquet"),
    )
    extract_with_resume(sf_dir, out, units=4)
    df = _read_all(out)
    assert len(df) == 500
    assert df.doc_id.is_unique
    assert 999999 not in set(df.doc_id)


# --- prune before render -----------------------------------------------------


def _canon(tbl):
    """Extracted columns in EXTRACTED_SCHEMA types (the partition column
    reads back from the hive path as a dictionary), sorted by doc_id."""
    from pdf_extractor_ray.schemas import EXTRACTED_SCHEMA

    return tbl.select(EXTRACTED_SCHEMA.names).cast(EXTRACTED_SCHEMA).sort_by("doc_id").combine_chunks()


def _read_data(out_dir):
    return _canon(pq.read_table(os.path.join(out_dir, "data")))


@pytest.fixture(scope="module")
def one_shot(sf_dir):
    """The extractor's output over the whole input in one pipeline."""
    from pdf_extractor_ray import corpus
    from pdf_extractor_ray.pipelines.extract import extract_pages

    ds = extract_pages(corpus.read_pages(sf_dir, fanout_blocks=16))
    return _canon(pa.concat_tables(ds.iter_batches(batch_format="pyarrow", batch_size=None)))


def _part_of(doc_id: int) -> int:
    from pdf_extractor_ray import corpus
    from pdf_extractor_ray.stages.extract import url_part_id

    return url_part_id(corpus.url_for_doc(doc_id), DEFAULT_NUM_PARTITIONS)


def test_unit_renders_only_its_own_pages(sf_dir, tmp_path):
    """Planted: ``text`` becomes a list column. Every doc of units 1-3
    holds a one-element list, which neither page template can render (a
    list has no ``replace`` or ``split``), so a unit that renders one of
    them fails the job; unit 0's docs hold a null, which renders as an
    empty page. The partition filter before the render reads only
    ``doc_id``. Unit 0 must commit exactly the pages of its own docs; the
    planted failure then stops the run before unit 1."""
    import pyarrow.compute as pc

    from pdf_extractor_ray import corpus
    from pdf_extractor_ray.pipelines.extract import extract_pages

    docs = pq.read_table(os.path.join(sf_dir, "documents.parquet"))
    ids = docs.column("doc_id").to_pylist()
    poison = [_part_of(d) % 4 != 0 for d in ids]
    assert sum(poison) > 300
    texts = pa.array(
        [[t] if p else None for t, p in zip(docs.column("text").to_pylist(), poison)], pa.list_(pa.string())
    )
    planted = docs.set_column(docs.column_names.index("text"), "text", texts)
    src = tmp_path / "planted"
    src.mkdir()
    pq.write_table(planted, str(src / "documents.parquet"))

    out = str(tmp_path / "run")
    with pytest.raises(RuntimeError, match="injected_failure"):
        extract_with_resume(str(src), out, units=4, fail_after_units=1)
    unit0 = {p for p in range(DEFAULT_NUM_PARTITIONS) if p % 4 == 0}
    assert LineageLedger(out).committed_parts() == unit0

    own = tmp_path / "unit0"
    own.mkdir()
    pq.write_table(planted.filter(pa.array([not p for p in poison])), str(own / "documents.parquet"))
    want = _canon(pa.concat_tables(
        extract_pages(corpus.read_pages(str(own), fanout_blocks=4)).iter_batches(batch_format="pyarrow", batch_size=None)
    ))
    got = _read_data(out)
    assert got.num_rows == len(poison) - sum(poison)
    assert set(pc.unique(got.column("part_id")).to_pylist()) <= unit0
    assert got.equals(want)


@pytest.mark.parametrize("sf_name", ["sf0.001", "sf0.01"])
def test_doc_side_part_id_matches_rendered_url(sf_dir, sf_name):
    """The documents-side partition id decides which unit renders a page; it
    must equal the extractor's ``part_id`` (crc32 of the rendered url), or a
    row would land under another unit's — possibly committed — partition dir
    where the ledger never sees it. Covers replica ids (+REPLICA_STRIDE)."""
    from pdf_extractor_ray import corpus
    from pdf_extractor_ray.stages.extract import url_part_id

    docs = pq.read_table(os.path.join(os.path.dirname(sf_dir), sf_name, "documents.parquet"))
    docs = docs.select(["doc_id", "text", "lang"])
    pages = corpus.pages_batch_from_documents(corpus.replicate_documents(docs, 2))
    assert pages.num_rows == 2 * docs.num_rows
    want = [url_part_id(u, DEFAULT_NUM_PARTITIONS) for u in pages.column("url").to_pylist()]
    assert doc_part_ids(pages.column("doc_id"), DEFAULT_NUM_PARTITIONS).to_pylist() == want
    assert len(set(want)) == DEFAULT_NUM_PARTITIONS


def test_final_table_is_invariant_to_unit_count(sf_dir, tmp_path, one_shot):
    """units=3 splits 16 partitions 6/5/5; every unit count must give the
    one-shot extraction, and each unit writes at most fan-out × partitions
    files (``ioutil.read_table``'s read fan-out gives ceil(16·k/P) blocks on
    the 4-CPU test session)."""
    import math

    for units in (1, 3, 4, 16):
        out = str(tmp_path / f"units{units}")
        extract_with_resume(sf_dir, out, units=units)
        assert _read_data(out).equals(one_shot), units
        sizes = [len(range(u, DEFAULT_NUM_PARTITIONS, units)) for u in range(units)]
        bound = sum(math.ceil(16 * k / DEFAULT_NUM_PARTITIONS) * k for k in sizes)
        n_files = sum(len(fs) for _, _, fs in os.walk(os.path.join(out, "data")))
        assert n_files <= bound, (units, n_files, bound)


@pytest.mark.parametrize("cpus", [1, 16])
def test_fan_out_follows_the_cpu_count(sf_dir, tmp_path, monkeypatch, cpus):
    """Planted CPU counts: ``ioutil.read_table`` sizes the read fan-out of
    ``corpus.read_pages`` and of every resume unit by the CPUs it reads, and
    no result may depend on them. At 1 and at 16 CPUs the extraction equals
    the ``fanout_blocks=32`` one row for row, and a 4-unit crash+resume
    equals it too. At 1 CPU each unit is one block, so the run writes at
    most the 16 partitions' data files plus one ledger file per unit (a
    count fixed at 16 blocks for the whole input wrote 68)."""
    from pdf_extractor_ray import corpus, ioutil
    from pdf_extractor_ray.pipelines.extract import extract_pages

    def rows(ds):
        return _canon(pa.concat_tables(ds.iter_batches(batch_format="pyarrow", batch_size=None)))

    pinned = rows(extract_pages(corpus.read_pages(sf_dir, fanout_blocks=32)))
    monkeypatch.setattr(ioutil, "cluster_cpus", lambda: cpus)
    assert rows(extract_pages(corpus.read_pages(sf_dir))).equals(pinned)

    out = str(tmp_path / "run")
    with pytest.raises(RuntimeError, match="injected_failure"):
        extract_with_resume(sf_dir, out, units=4, fail_after_units=2)
    extract_with_resume(sf_dir, out, units=4)
    assert _read_data(out).equals(pinned)
    n_files = sum(len(fs) for _, _, fs in os.walk(out))
    if cpus == 1:
        assert n_files <= DEFAULT_NUM_PARTITIONS + 4, n_files
    else:
        assert n_files > DEFAULT_NUM_PARTITIONS + 4, n_files


def test_read_pages_fans_out_inside_the_read(sf_dir):
    """The pinned fan-out splits the one read task's output into blocks
    (``ReadParquet->SplitBlocks``); no all-to-all repartition runs before
    the render."""
    from pdf_extractor_ray import corpus

    pages = corpus.read_pages(sf_dir, fanout_blocks=16).materialize()
    assert pages.num_blocks() == 16
    stats = pages.stats()
    assert "ReadParquet->SplitBlocks(16)" in stats
    assert "Repartition" not in stats


def test_resume_unit_is_one_task_at_one_cpu(sf_dir, tmp_path, monkeypatch):
    """At a planted 1 CPU a 4-partition unit's read fan-out is one block, so
    Ray fuses its read, partition filter, render, extraction and write into
    one operator that runs one task; every unit of a 4-unit run does."""
    from pdf_extractor_ray import ioutil
    from pdf_extractor_ray.pipelines import extract

    written = []
    extract_pages = extract.extract_pages

    def spy(*args, **kwargs):
        written.append(extract_pages(*args, **kwargs))
        return written[-1]

    monkeypatch.setattr(ioutil, "cluster_cpus", lambda: 1)
    monkeypatch.setattr(extract, "extract_pages", spy)
    extract_with_resume(sf_dir, str(tmp_path / "run"), units=4)
    assert len(written) == 4
    for ds in written:
        ops = [line for line in ds.stats().splitlines() if line.startswith("Operator ")]
        assert len(ops) == 1, ops
        assert "ReadParquet->" in ops[0] and "->Write:" in ops[0], ops
        assert ": 1 tasks executed" in ops[0], ops
