"""The three workloads: the timed job each one repeats, its oracle check, a
small warm-up, and the stage-isolated layer calls of the traced run.

Every call goes through the program's public functions; the benchmark adds
no pipeline logic of its own. Why these three: ``crawl_extract`` is the
paper's headline (the extract UDF does most of the CPU work and the shuffle
moves one partial row per host per block); ``boilerplate_dedup`` runs no
extraction, so the explode, the two bucketed co-groups and the 40% host's
hot copyright line do all the work; ``crash_resume`` adds partitioned
writes, atomic ledger commits and the resume skip path on top of the same
render and extract layers.
"""

from __future__ import annotations

import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from check import DocCheck, Oracle, check_resume_output
from spans import Tracer

# The pages stage's fan-out (``corpus.read_pages(fanout_blocks=...)``), the
# value ``state.lineage`` uses for the same single-file input.
FANOUT_BLOCKS = 16
# crash_resume: four units, the planted failure after two of them.
UNITS = 4
FAIL_AFTER_UNITS = 2


def _render(sf_dir: str):
    from pdf_extractor_ray import corpus

    return corpus.read_pages(sf_dir, fanout_blocks=FANOUT_BLOCKS)


# --- timed jobs ------------------------------------------------------------
# Each returns ({timing name: seconds}, output). "wall_s" runs from the
# pipeline call to the complete, consumed result.


def crawl_job(sf_dir: str, job_dir: str, tr: Tracer):
    from pdf_extractor_ray.pipelines.extract import extract_pages, quality_by_host

    t0 = time.perf_counter()
    with tr.span("job.crawl_extract"):
        with tr.span("corpus.read_pages"):
            pages = _render(sf_dir)
        with tr.span("stages.extract_pages"):
            ext = extract_pages(pages)
        with tr.span("pipelines.extract.quality_by_host"):
            q = quality_by_host(ext)
        with tr.span("consume.to_pandas"):
            out = q.to_pandas()
    return {"wall_s": time.perf_counter() - t0}, out


def boilerplate_job(sf_dir: str, job_dir: str, tr: Tracer):
    from pdf_extractor_ray.pipelines import textops

    t0 = time.perf_counter()
    with tr.span("job.boilerplate_dedup"):
        with tr.span("pipelines.textops.boilerplate_line_removal"):
            ds = textops.boilerplate_line_removal(sf_dir)
        with tr.span("consume.to_pandas"):
            out = ds.to_pandas()
    return {"wall_s": time.perf_counter() - t0}, out


def crash_resume_job(sf_dir: str, job_dir: str, tr: Tracer):
    """Crash leg (planted failure after ``FAIL_AFTER_UNITS`` units), a ledger
    read, then the resume leg. ``wall_s`` is crash leg plus resume leg; the
    ledger read between them is timed on its own."""
    from pdf_extractor_ray.state.lineage import LineageLedger, extract_with_resume

    with tr.span("job.crash_resume"):
        t0 = time.perf_counter()
        with tr.span("state.lineage.extract_with_resume.crash"):
            try:
                extract_with_resume(
                    sf_dir, job_dir, units=UNITS, fail_after_units=FAIL_AFTER_UNITS, run_id="crash"
                )
            except RuntimeError as e:
                if str(e) != "injected_failure":
                    raise
            else:
                raise RuntimeError("crash leg finished without the planted failure")
        t1 = time.perf_counter()
        with tr.span("state.lineage.committed_parts"):
            after_crash = LineageLedger(job_dir).committed_parts()
        t2 = time.perf_counter()
        with tr.span("state.lineage.extract_with_resume.resume"):
            res = extract_with_resume(sf_dir, job_dir, units=UNITS, run_id="resume")
        t3 = time.perf_counter()
    timings = {
        "wall_s": (t1 - t0) + (t3 - t2),
        "resume_s": t3 - t2,
        "crash_leg_s": t1 - t0,
        "committed_parts_s": t2 - t1,
    }
    return timings, {"out_dir": job_dir, "result": res, "after_crash": after_crash}


# --- warm-up: the workload's own calls on a tiny input ---------------------


def warm(workload: str, warm_dir: str, job_dir: str) -> None:
    off = Tracer(False, "")
    if workload == "crash_resume":
        from pdf_extractor_ray.state.lineage import extract_with_resume

        extract_with_resume(warm_dir, job_dir, units=1, run_id="warm")
        shutil.rmtree(job_dir, ignore_errors=True)
    else:
        JOBS[workload](warm_dir, job_dir, off)


JOBS = {
    "crawl_extract": crawl_job,
    "boilerplate_dedup": boilerplate_job,
    "crash_resume": crash_resume_job,
}


# --- oracle checks per workload --------------------------------------------


def extracted_rows(sf_dir: str):
    """Untimed per-document run of the crawl pipeline's first two layers, for
    the per-document oracle check."""
    from pdf_extractor_ray.pipelines.extract import extract_pages

    return (
        extract_pages(_render(sf_dir))
        .select_columns(["doc_id", "status", "error", "extracted_text"])
        .to_pandas()
    )


class Checker:
    """Checks each job's output; built once per run, outside the timed
    region. ``base`` holds per-document failures shared by every job of the
    run (for ``crawl_extract``: the per-document check of the extracted rows
    whose host aggregate each job returns)."""

    def __init__(self, workload: str, oracle: Oracle, sf_dir: str):
        self.workload = workload
        self.oracle = oracle
        self.base = DocCheck()
        self.sample = None  # an output the self-test plants a wrong row into
        if workload == "crawl_extract":
            self.sample = extracted_rows(sf_dir)
            self.base = oracle.check_extracted(self.sample)
            self.expected_hosts = oracle.expected_hosts(self.base.known)

    def check(self, output) -> DocCheck:
        o = self.oracle
        if self.workload == "crawl_extract":
            return self.base.merge(o.check_hosts(output, self.expected_hosts))
        if self.workload == "boilerplate_dedup":
            self.sample = output
            return o.check_boilerplate(output)
        chk, facts = check_resume_output(o, output["out_dir"], _num_partitions())
        self.sample = facts.pop("rows")
        parts = set(range(_num_partitions()))
        crash = set(facts["by_run"].get("crash", []))
        resume = set(facts["by_run"].get("resume", []))
        skipped = set(output["result"]["skipped_parts"])
        split_ok = (
            skipped == output["after_crash"] == crash
            and resume == parts - crash
            and 0 < len(crash) < len(parts)
        )
        if not (split_ok and facts["committed_once"] and facts["ledger_counts_match"]):
            chk.unexplained |= set(o.docs["doc_id"].tolist())
            chk.notes.append(
                f"resume split or ledger wrong: skipped={sorted(skipped)} "
                f"crash={sorted(crash)} resume={sorted(resume)}"
            )
        return chk

    def self_test(self, output) -> bool:
        """Plant one wrong row into a real output and require the checker
        to count it as an unexplained failure."""
        o = self.oracle
        if self.workload == "boilerplate_dedup":
            bad = self.sample.copy()
            bad.iloc[0, bad.columns.get_loc("text_clean")] += " planted"
            caught = o.check_boilerplate(bad).unexplained
            return int(bad.iloc[0]["doc_id"]) in caught
        rows = self.sample
        i = int((rows["status"] == "ok").to_numpy().argmax())
        bad = rows.copy()
        bad.iloc[i, bad.columns.get_loc("extracted_text")] += " planted"
        ok = int(bad.iloc[i]["doc_id"]) in o.check_extracted(bad).unexplained
        if self.workload == "crawl_extract":
            hosts = output.copy()
            hosts.iloc[0, hosts.columns.get_loc("n_ok")] += 1
            ok = ok and bool(o.check_hosts(hosts, self.expected_hosts).unexplained)
        return ok


def _num_partitions() -> int:
    from pdf_extractor_ray.schemas import DEFAULT_NUM_PARTITIONS

    return DEFAULT_NUM_PARTITIONS


# --- traced run: stage-isolated layer calls --------------------------------


def _op(span: dict, fragment: str) -> dict | None:
    """Last operator whose name holds ``fragment`` in the span's executions."""
    hits = [op for parsed in span["stats"] for op in parsed["ops"] if fragment in op["name"]]
    return hits[-1] if hits else None


def isolated_layers(sf_dir: str, work_dir: str, tr: Tracer, num_cpus: int) -> dict:
    """Each layer called on its own with its input materialized first, on this
    workload's input. Materializing between layers breaks pipelining, so the
    sum of these walls is not the streamed ``wall_s``."""
    from pdf_extractor_ray.pipelines import textops
    from pdf_extractor_ray.pipelines.extract import extract_pages, quality_by_host
    from pdf_extractor_ray.state.lineage import LineageLedger

    m: dict = {}
    with tr.span("layer.corpus.render") as s:
        t = time.perf_counter()
        pages = _render(sf_dir).materialize()
        m["corpus.render_s"] = time.perf_counter() - t
    rows = html_bytes = 0
    for b in pages.iter_batches(batch_format="pyarrow", batch_size=None):
        rows += b.num_rows
        html_bytes += pc.sum(pc.binary_length(b.column("html"))).as_py() or 0
    m["corpus.rows_out"] = rows
    m["corpus.html_bytes_out"] = html_bytes

    with tr.span("layer.stages.extract") as s:
        t = time.perf_counter()
        ext = extract_pages(pages).materialize()
        m["stages.extract_s"] = time.perf_counter() - t
    # a metric whose operator is missing from the stats is left out, so the
    # run reports it as not measured
    op = _op(s, "MapBatches")
    if op and op["wall_s"]:
        m["stages.utilisation"] = op["cpu_s"] / (op["wall_s"] * num_cpus)
    status = ext.select_columns(["status"]).to_pandas()["status"].value_counts()
    for k in ("ok", "empty", "error"):
        m[f"stages.rows.{k}"] = int(status.get(k, 0))

    with tr.span("layer.pipelines.extract.aggregate") as s:
        t = time.perf_counter()
        quality_by_host(ext).to_pandas()
        m["pipelines.extract.aggregate_s"] = time.perf_counter() - t
    op = _op(s, "_quality_partials")
    if op and op["rows_per_block"]:
        m["pipelines.extract.partial_rows_ratio"] = op["rows_per_block"][3] / rows
    del pages, ext

    with tr.span("layer.pipelines.textops.boilerplate") as s:
        textops.boilerplate_line_removal(sf_dir).to_pandas()
    m.update(_textops_metrics(s))

    job_dir = os.path.join(work_dir, "isolated-resume")
    timings, out = crash_resume_job(sf_dir, job_dir, tr)
    m["state.lineage.crash_leg_s"] = timings["crash_leg_s"]
    m["state.lineage.committed_parts_s"] = timings["committed_parts_s"]
    m["state.lineage.resume_s"] = timings["resume_s"]
    ledger = LineageLedger(job_dir).manifest().to_pandas()
    m["state.lineage.parts_skipped"] = len(out["result"]["skipped_parts"])
    m["state.lineage.parts_recomputed"] = int((ledger["run_id"] == "resume").sum())
    files = [os.path.join(d, f) for d, _, fs in os.walk(job_dir) for f in fs]
    m["state.lineage.files_written"] = len(files)
    m["state.lineage.bytes_written_per_doc"] = sum(os.path.getsize(f) for f in files) / rows
    shutil.rmtree(job_dir, ignore_errors=True)
    return m


def _textops_metrics(span) -> dict:
    """From the one execution of ``boilerplate_line_removal``: busy time
    (summed task wall) per operator group, the explode's output rows (the
    first co-group's input), block skew after each shuffle and peak heap.
    Ray prints the second ``Sort`` as ``[execution cached]`` with no
    numbers, so the doc co-group's time is its reassemble map alone and
    its skew is read from the reassemble output blocks. A metric whose
    operators are missing from the stats is left out."""
    ops = [op for parsed in span["stats"] for op in parsed["ops"]]

    def named(fragment):
        return [o for o in ops if fragment in o["name"]]

    explode = named("explode")
    sorts = named("Sort")
    line = named("drop_frequent")
    doc = named("reassemble")
    m: dict = {}

    def busy(name, group):
        if group:
            m[name] = sum(o["remote_wall_s"] for o in group)

    busy("pipelines.textops.explode_s", explode)
    busy("pipelines.textops.cogroup_line_s", sorts[:1] + line)
    busy("pipelines.textops.cogroup_doc_s", [o for o in sorts[1:] if not o["cached"]] + doc)
    if explode and explode[0]["rows_per_block"]:
        m["pipelines.textops.shuffled_rows"] = int(explode[0]["rows_per_block"][3])
    skews = [rpb[1] / rpb[2] for rpb in (o["rows_per_block"] for o in sorts[:1] + doc[:1]) if rpb and rpb[2]]
    if len(skews) == 2:
        m["pipelines.textops.max_block_rows_ratio"] = max(skews)
    if ops:
        m["pipelines.textops.peak_heap_mb"] = max(o["peak_heap_mb"] for o in ops)
    return m


def single_thread_rates(sf_dir: str, max_docs: int = 3000) -> dict:
    """Docs per CPU-second of the render and extract batch functions on this
    workload's documents, in the benchmark's own thread with no Ray
    (``time.thread_time``, so Ray's background threads are not counted).
    Malformed pages are left out of the per-kind extract rates."""
    from pdf_extractor_ray import corpus
    from pdf_extractor_ray.stages.extract import ExtractDocuments

    docs = pq.read_table(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text", "lang"])
    docs = docs.slice(0, max_docs)
    n_batches = FANOUT_BLOCKS
    size = -(-docs.num_rows // n_batches)
    batches = [docs.slice(i, size) for i in range(0, docs.num_rows, size)]

    t = time.thread_time()
    pages = [corpus.pages_batch_from_documents(b) for b in batches]
    render_cpu = time.thread_time() - t

    ex = ExtractDocuments()
    t = time.thread_time()
    for p in pages:
        ex(p)
    extract_cpu = time.thread_time() - t

    def rate(want_pdf: bool) -> float:
        sel = []
        for p in pages:
            ids = p.column("doc_id").to_numpy()
            sel.append(p.filter(pa.array((corpus.is_pdf_doc(ids) == want_pdf) & ~corpus.is_malformed_doc(ids))))
        t0 = time.thread_time()
        for s in sel:
            if s.num_rows:
                ex(s)
        dt = time.thread_time() - t0
        return sum(s.num_rows for s in sel) / dt if dt > 0 else 0.0

    n = docs.num_rows
    return {
        "corpus.render_docs_per_cpu_s": n / render_cpu,
        "stages.extract_docs_per_cpu_s.html": rate(False),
        "stages.extract_docs_per_cpu_s.pdf": rate(True),
        "render_extract_docs_per_cpu_s": n / (render_cpu + extract_cpu),
    }
