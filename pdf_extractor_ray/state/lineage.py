"""Per-partition lineage ledger + checkpoint/resume.

The engine's replacement for the reference's ``state.json`` row cursor +
batch-CSV snapshots (/root/reference/scripts/grok.py:335-374, 427-450) and
LLM-cache idempotency layer — keyed by PARTITION (url-hash range), not row
index, so resume is deterministic under parallel execution (SURVEY.md §4.2
"Checkpoint/resume").

Layout under ``out_dir``::

    data/part_id=<k>/*.parquet      extracted rows for partition k
    _lineage/manifest-<run_id>-<unit>.parquet   committed-partition records

A partition is committed iff a manifest row exists for it; manifests are
written AFTER the partition's data (tmp file + atomic rename), so a crash at
any point leaves either nothing or a fully-committed partition. Resume reads
the ledger and filters already-committed url-hash partitions OUT of the input
BEFORE the render and the extraction stage.

Unit mapping: partitions are processed in ``units`` waves (unit u owns
partitions {p : p % units == u}); each wave is one streaming pipeline run and
one commit. A wave computes each document's url-hash partition from its
``doc_id`` (the page url is a function of it) right after the read and drops
every other wave's documents before the fan-out and the render, so each page
is rendered and extracted once across all waves and a wave's work is its own
share of the input. On a real sharded corpus a unit maps to a set of input
FILES and the wave reads only its own shards; the single-file testdata is
read whole by every wave, which costs a column scan, not a render.
"""

from __future__ import annotations

import math
import os
import shutil
import uuid

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..schemas import DEFAULT_NUM_PARTITIONS, LINEAGE_SCHEMA


class LineageLedger:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.lineage_dir = os.path.join(out_dir, "_lineage")
        self.data_dir = os.path.join(out_dir, "data")
        os.makedirs(self.lineage_dir, exist_ok=True)
        os.makedirs(self.data_dir, exist_ok=True)

    def manifest(self) -> pa.Table:
        files = [
            os.path.join(self.lineage_dir, f)
            for f in sorted(os.listdir(self.lineage_dir))
            if f.endswith(".parquet")
        ]
        if not files:
            return LINEAGE_SCHEMA.empty_table()
        return pa.concat_tables([pq.read_table(f) for f in files])

    def committed_parts(self) -> set[int]:
        m = self.manifest()
        return set(
            m.filter(pc.equal(m.column("status"), "committed"))
            .column("part_id")
            .to_pylist()
        )

    def commit(self, rows: list[dict], run_id: str, unit: int) -> None:
        """Atomic: write tmp then rename — the commit point of a unit."""
        tbl = pa.Table.from_pylist(rows, schema=LINEAGE_SCHEMA)
        final = os.path.join(self.lineage_dir, f"manifest-{run_id}-{unit}.parquet")
        tmp = final + f".tmp-{uuid.uuid4().hex[:8]}"
        pq.write_table(tbl, tmp)
        os.replace(tmp, final)


class PassCheckpointer:
    """Per-PASS checkpoints for multi-pass enrichment — the engine's form of
    the reference's ``resume_from_pass`` + per-pass CSV snapshots
    (/root/reference/dataextractai/agents/transaction_classifier.py:193-208,
    245-248). Pass-keyed where ``LineageLedger`` is partition-keyed: a pass
    is committed iff its marker file exists; markers are written tmp+rename
    AFTER the pass's parquet snapshot, so a crash leaves either nothing or a
    fully-committed pass, and resume skips committed passes entirely.

    Layout under ``out_dir``::

        pass-<name>/data/*.parquet    the pass's full output snapshot
        pass-<name>/_done-<run_id>    commit marker (content = fingerprint)

    ``fingerprint`` (ADVICE r2): an input/logic identity string (e.g.
    "sf_dir|pass names|logic version") stored INSIDE the marker at commit.
    ``done`` requires marker presence AND fingerprint equality, so rerunning
    with a different input dir or changed pass logic invalidates the stale
    snapshot instead of silently reusing it. Pre-fingerprint markers (empty
    files) match only the default empty fingerprint.
    """

    def __init__(self, out_dir: str, fingerprint: str | None = None):
        self.out_dir = out_dir
        self.fingerprint = fingerprint or ""
        os.makedirs(out_dir, exist_ok=True)

    def _pass_dir(self, name: str) -> str:
        return os.path.join(self.out_dir, f"pass-{name}")

    def data_dir(self, name: str) -> str:
        return os.path.join(self._pass_dir(name), "data")

    def done(self, name: str) -> bool:
        # ANY marker with a matching fingerprint counts (ADVICE r3: checking
        # only the first sorted marker could disagree with committed_run_id
        # if stale markers ever coexist; commit also clears old markers now)
        return self.committed_run_id(name) is not None

    def committed_run_id(self, name: str) -> str | None:
        """run_id of the marker whose fingerprint MATCHES, else None — the
        same match rule done() uses, so the two can never disagree about
        which commit is authoritative."""
        d = self._pass_dir(name)
        if not os.path.isdir(d):
            return None
        for f in sorted(os.listdir(d)):
            if f.startswith("_done-"):
                with open(os.path.join(d, f)) as fh:
                    if fh.read() == self.fingerprint:
                        return f[len("_done-"):]
        return None

    def write_pass(self, name: str, ds, run_id: str) -> None:
        """Snapshot ``ds`` (a Dataset) then commit. An uncommitted (or
        fingerprint-mismatched) pass dir is garbage from a mid-write crash
        or a different input/logic — cleared whole (data AND stale markers)
        before the rewrite."""
        d = self._pass_dir(name)
        if os.path.isdir(d) and not self.done(name):
            shutil.rmtree(d)
        data = self.data_dir(name)
        os.makedirs(data, exist_ok=True)
        ds.write_parquet(data)
        # a re-commit over an already-done pass must not leave two markers
        # (done()/committed_run_id could then disagree — ADVICE r3)
        for f in os.listdir(self._pass_dir(name)):
            if f.startswith("_done-"):
                os.remove(os.path.join(self._pass_dir(name), f))
        marker = os.path.join(self._pass_dir(name), f"_done-{run_id}")
        # tmp name must NOT share the `_done-` prefix: a crash between create
        # and rename would otherwise read as a committed pass (and garbage
        # the run-id audit)
        tmp = os.path.join(self._pass_dir(name), f".tmp-{uuid.uuid4().hex[:8]}")
        with open(tmp, "w") as fh:
            fh.write(self.fingerprint)
        os.replace(tmp, marker)


# Fan-out of a whole-input run over the single-file input
# (``corpus.read_pages(fanout_blocks=16)``); a unit with k of P partitions
# to compute gets ceil(FANOUT_BLOCKS·k/P) blocks, so its rows per block
# match a whole-input run.
FANOUT_BLOCKS = 16


def doc_part_ids(doc_ids: pa.Array, num_partitions: int) -> pa.Array:
    """url-hash partition id on the DOCUMENTS side: the same crc32 of
    ``corpus.url_for_doc(doc_id)`` the extractor writes into ``part_id``, so
    a wave can drop other waves' documents before rendering their pages."""
    from ..corpus import url_for_doc
    from ..stages.extract import url_part_id

    return pa.array(
        [url_part_id(url_for_doc(d), num_partitions) for d in doc_ids.to_pylist()],
        type=pa.int32(),
    )


def extract_with_resume(
    sf_dir: str,
    out_dir: str,
    *,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
    units: int = 4,
    fail_after_units: int | None = None,
    run_id: str | None = None,
) -> dict:
    """Resumable flagship run: per-unit pipeline → partitioned parquet +
    lineage commit. Re-running after a crash recomputes ONLY uncommitted
    partitions. Returns {"units_run": n, "skipped_parts": [...]}.

    Each unit prunes before it renders: documents whose url-hash partition
    (``doc_part_ids``) is not among the unit's uncommitted partitions are
    dropped right after the read, so a page is rendered and extracted by
    exactly one unit. The unit's fan-out is sized to its share: with k of
    ``num_partitions`` (P) partitions still to compute it repartitions into
    ceil(16·k/P) blocks, so ``units=1`` keeps 16 and a partly committed unit
    on the resume leg gets fewer. On a sharded corpus a unit maps to a set
    of input files instead, and reads only those.

    ``fail_after_units`` simulates a worker/driver loss between commits
    (used by the resume test).
    """
    from .. import corpus
    from ..ioutil import read_table
    from ..pipelines.extract import extract_pages

    ledger = LineageLedger(out_dir)
    done = ledger.committed_parts()
    run_id = run_id or uuid.uuid4().hex[:12]
    units_run = 0

    for unit in range(units):
        unit_parts = [p for p in range(num_partitions) if p % units == unit]
        todo = sorted(set(unit_parts) - done)
        if not todo:
            continue
        if fail_after_units is not None and units_run >= fail_after_units:
            raise RuntimeError("injected_failure")

        # crash hygiene: an uncommitted partition dir can hold partial files
        # from a run that died MID-WRITE (the manifest is written after the
        # data, so no manifest ⇒ the data is garbage). Clear it before the
        # append-mode rewrite or the partition would double-count.
        for p in todo:
            pdir = os.path.join(out_dir, "data", f"part_id={p}")
            if os.path.isdir(pdir):
                shutil.rmtree(pdir)

        todo_arr = pa.array(todo, type=pa.int32())
        docs = read_table(sf_dir, "documents", ["doc_id", "text", "lang"])
        docs = docs.map_batches(
            lambda t: t.filter(
                pc.is_in(doc_part_ids(t.column("doc_id"), num_partitions), value_set=todo_arr)
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=None,
        )
        docs = docs.repartition(math.ceil(FANOUT_BLOCKS * len(todo) / num_partitions))
        pages = corpus.pages_from_documents(docs)
        ext = extract_pages(pages, num_partitions=num_partitions)
        ext.write_parquet(
            os.path.join(out_dir, "data"), partition_cols=["part_id"], mode="append"
        )
        # counters for the manifest (small: reads back only this unit's dirs)
        rows = []
        for p in todo:
            pdir = os.path.join(out_dir, "data", f"part_id={p}")
            if os.path.isdir(pdir):
                t = pq.read_table(pdir, columns=["status"])
                st = t.column("status").to_pylist()
            else:  # partition can be empty (no urls hashed into it)
                st = []
            rows.append(
                {
                    "part_id": p,
                    "run_id": run_id,
                    "n_rows": len(st),
                    "n_ok": sum(1 for s in st if s == "ok"),
                    "n_error": sum(1 for s in st if s == "error"),
                    "n_empty": sum(1 for s in st if s == "empty"),
                    "status": "committed",
                }
            )
        ledger.commit(rows, run_id, unit)
        units_run += 1

    return {"units_run": units_run, "skipped_parts": sorted(done)}
