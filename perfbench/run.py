#!/usr/bin/env python3
"""Benchmark of the extraction engine: one workload per run.

    python3 perfbench/run.py --workload crawl_extract --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The run generates its input from the seed
and sets up a Ray session sized by ``nproc`` three times (the median is
``setup_s``). Each session runs the workload's job in a closed loop (one job
at a time, the next only after the previous finished) for a third of
``--seconds``; ``wall_s`` is the median over all three sessions' jobs. Every
job's output is checked against the program's DuckDB oracles afterwards.
With ``--trace 1`` the run also times each layer on its own, parses Ray
Data's execution stats and records spans.

The second-to-last stdout line is a JSON report (host facts, input
properties, sample counts, failure details); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``, where attempted and failed
count jobs and every metric has its value and unit. See README.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".pbw")  # short: Ray's socket paths live under it

WORKLOADS = ("crawl_extract", "boilerplate_dedup", "crash_resume")
N_SETUPS = 3
MIN_JOBS = 3  # per half of a traced run
WARM_DOCS = 64
JOB_TIMEOUT_S = 60.0
# The object store of each Ray session: the inputs are a few tens of MiB, so
# this bounds shared memory without limiting the jobs.
OBJECT_STORE_BYTES = 512 * 1024 * 1024
# The whole run, from process start: --seconds of timed loops plus this
# margin for imports, set-ups, isolated layers and checks.
RUN_MARGIN_S = 160.0


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name → unit, as ``BENCHMARK.json`` declares them (``kind`` is
    ``end_to_end`` or ``per_layer``)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class JobTimeout(Exception):
    pass


class JobFailed(Exception):
    """A timed job raised or timed out (the cause is chained)."""


def _process_age_s() -> float:
    """Seconds since this process started, from ``/proc``. A value outside
    [0, 60) means the two clocks disagree (a virtualised ``/proc/uptime``);
    then 0, so the run counts from the first line of this file."""
    try:
        with open("/proc/self/stat") as fh:
            stat = fh.read()
        start_ticks = int(stat[stat.rindex(")") + 2 :].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    age = uptime - start_ticks / os.sysconf("SC_CLK_TCK")
    return age if 0.0 <= age < 60.0 else 0.0


def summary(values: list[float]) -> dict:
    """Median plus the highest of p90/p99 that has at least ten samples
    beyond it; with fewer samples, the maximum. Always with the count."""
    out = {"n": len(values), "median": statistics.median(values) if values else None}
    hi = [(q, p) for q, p in ((0.99, "p99"), (0.9, "p90")) if len(values) * (1 - q) >= 10]
    if hi:
        q, name = hi[0]
        out[name] = sorted(values)[int(q * len(values))]
    elif values:
        out["max"] = max(values)
    return out


def ray_temp_dir() -> str:
    """Ray's session directory, ``.pbw/ray`` in the checkout, named through
    ``/proc/<pid>/cwd`` so that Ray's socket paths stay under the 107-byte
    AF_UNIX limit however deep the checkout lies. ``main`` makes the checkout
    root the working directory and never leaves it."""
    os.makedirs(os.path.join(WORK, "ray"), exist_ok=True)
    return f"/proc/{os.getpid()}/cwd/{os.path.relpath(WORK, ROOT)}/ray"


def start_ray(num_cpus: int, temp_dir: str) -> None:
    import ray

    from ray._private.utils import get_shared_memory_bytes

    # Ray puts the object store in the system temp dir when /dev/shm is too
    # small; keep it in the checkout instead.
    plasma = None if get_shared_memory_bytes() >= OBJECT_STORE_BYTES else os.path.join(WORK, "plasma")
    if plasma:
        os.makedirs(plasma, exist_ok=True)
    ray.init(
        address="local",
        num_cpus=num_cpus,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        _temp_dir=temp_dir,
        _plasma_directory=plasma,
    )
    from pdf_extractor_ray import context
    from pdf_extractor_ray.ioutil import silence_benign_empty_schema_warnings

    context.quiet()
    silence_benign_empty_schema_warnings()


def run_job(job, sf_dir: str, job_dir: str, tr, deadline: float):
    """One job under a time limit: SIGALRM raises JobTimeout in this (the
    main) thread, which Ray Data's consumer loop reaches between waits."""
    limit = min(JOB_TIMEOUT_S, deadline - time.perf_counter())
    if limit <= 0:
        raise JobTimeout("no time left in the run")

    def on_alarm(signum, frame):
        raise JobTimeout(f"job exceeded {limit:.0f}s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return job(sf_dir, job_dir, tr)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "__ray_entry__.py"))
            and os.path.isdir(os.path.join(ROOT, "pdf_extractor_ray"))):
        print(f"perfbench: the program is missing from {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # Ray's temp dir is named relative to it (ray_temp_dir)
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # Ray settings a run does not take from the caller: no usage report over
    # the network, no progress bars, and no memory monitor that kills the
    # run's workers when other processes fill the host's memory.
    os.environ.update({
        "RAY_USAGE_STATS_ENABLED": "0",
        "RAY_DATA_DISABLE_PROGRESS_BARS": "1",
        "RAY_memory_monitor_refresh_ms": "0",
    })

    # --- imports: part of setup ---------------------------------------------
    age0 = _process_age_s() - (time.perf_counter() - _T0)
    import ray  # noqa: F401
    import ray.data  # noqa: F401

    import pdf_extractor_ray.pipelines.extract  # noqa: F401
    import pdf_extractor_ray.pipelines.textops  # noqa: F401
    import pdf_extractor_ray.state.lineage  # noqa: F401
    import_s = age0 + (time.perf_counter() - _T0)

    import check
    import gen
    import hostfacts
    import workloads
    from spans import Tracer

    run_limit = args.seconds + RUN_MARGIN_S
    deadline = _T0 - age0 + run_limit

    def on_deadline():
        print(f"perfbench: run exceeded {run_limit:.0f}s; stopping", file=sys.stderr)
        for p in hostfacts.descendants():
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
        hostfacts.reap_descendants(5.0)
        os._exit(3)

    watchdog = threading.Timer(max(1.0, deadline - time.perf_counter()), on_deadline)
    watchdog.daemon = True
    watchdog.start()

    phases = {"imports": import_s}
    mark = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phases[name] = now - mark
        mark = now

    # --- inputs and oracle: excluded from every metric ----------------------
    wl = args.workload
    sf_dir = gen.ensure_input(os.path.join(WORK, "inputs"), wl, args.seed)
    warm_dir = gen.ensure_input(os.path.join(WORK, "inputs"), wl, args.seed, n_docs=WARM_DOCS)
    props = gen.input_properties(sf_dir)
    oracle = check.Oracle(ROOT, sf_dir)
    n_docs = oracle.n_docs
    num_cpus = hostfacts.nproc()
    phase("inputs_and_oracle")

    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    ray_tmp = ray_temp_dir()
    tracer = Tracer(False, f"{wl}-s{args.seed}")
    report: dict = {"workload": wl, "trace": args.trace, "host": hostfacts.host_facts(num_cpus, args.seed),
                    "input": props, "notes": []}
    job = workloads.JOBS[wl]
    jobs: list[dict] = []  # {"timings", "output", "traced"} per finished job
    job_errors: list[str] = []
    layer: dict = {}
    correct = True
    try:
        setups: list[float] = []
        rss: list[float] = []
        ticks = [0, 0]  # busy and steal ticks over the timed loops

        def setup() -> None:
            t = time.perf_counter()
            start_ray(num_cpus, ray_tmp)
            workloads.warm(wl, warm_dir, os.path.join(run_dir, "warm"))
            setups.append(import_s + time.perf_counter() - t)

        def loop(seconds: float, traced: bool, min_jobs: int) -> None:
            tr = tracer if traced else Tracer(False, "")
            t0 = hostfacts.cpu_ticks()
            end = time.perf_counter() + seconds
            n = 0
            try:
                # a job starts whenever the window is still open, so a run
                # times at least --seconds of jobs even when one job takes
                # most of a session's window
                while n < min_jobs or time.perf_counter() < end:
                    job_dir = os.path.join(run_dir, f"job-{len(jobs)}")
                    span_id = len(tr.spans)
                    try:
                        timings, output = run_job(job, sf_dir, job_dir, tr, deadline - 25.0)
                    except Exception as e:  # the job fails; the run reports it
                        traceback.print_exc(file=sys.stderr)
                        job_errors.append(f"{type(e).__name__}: {e}"[:300])
                        raise JobFailed from e
                    jobs.append({"timings": timings, "output": output, "traced": traced,
                                 "span": span_id if traced else None})
                    n += 1
            finally:
                t1 = hostfacts.cpu_ticks()
                ticks[0] += t1[0] - t0[0]
                ticks[1] += t1[1] - t0[1]

        try:
            if args.trace == 0:
                # one third of the loop in each session, so the timed jobs
                # spread over the whole run instead of one window of it
                for i in range(N_SETUPS):
                    if i:
                        ray.shutdown()
                    setup()
                    loop(args.seconds / N_SETUPS, traced=False, min_jobs=1)
                    rss.append(hostfacts.peak_worker_rss_mb())
            else:
                setup()
                loop(args.seconds / 2, traced=False, min_jobs=MIN_JOBS)
                tracer.enabled = True
                tracer.capture_stats()
                loop(args.seconds / 2, traced=True, min_jobs=MIN_JOBS)
                rss.append(hostfacts.peak_worker_rss_mb())
        except JobFailed:
            pass  # recorded in job_errors
        report["setup_s"] = {**summary(setups), "samples": setups, "imports_s": import_s}
        report["steal_pct_busy"] = hostfacts.steal_pct_busy((0, 0), tuple(ticks))
        report["peak_worker_rss_mb"] = max(rss) if rss else 0.0
        phase("setups_and_jobs")

        if job_errors:
            raise RuntimeError("a job failed; its session is not reused for checks")
        checker = workloads.Checker(wl, oracle, sf_dir)
        if args.trace == 1:
            layer.update(workloads.isolated_layers(sf_dir, run_dir, tracer, num_cpus))
            layer.update(workloads.single_thread_rates(sf_dir))
            tracer.stop()
            if tracer.stats_failures:
                report["notes"] += sorted(set(tracer.stats_failures))
                correct = False
            phase("isolated_layers")

        # --- oracle checks: every finished job ------------------------------
        failed_docs = known_docs = unexplained_docs = 0
        failed_jobs = len(job_errors)
        for j in jobs:
            chk = checker.check(j["output"])
            failed_docs += len(chk.failed)
            known_docs += len(chk.known)
            unexplained_docs += len(chk.unexplained)
            if chk.unexplained:
                failed_jobs += 1
                report["notes"] += chk.notes
            if wl == "crash_resume":
                shutil.rmtree(j["output"]["out_dir"], ignore_errors=True)
        self_test = bool(jobs) and checker.self_test(jobs[-1]["output"])
        attempted_docs = n_docs * (len(jobs) + len(job_errors))
        failed_docs += n_docs * len(job_errors)
        correct = correct and not job_errors and unexplained_docs == 0 and self_test and bool(jobs)
        report.update({
            "jobs": len(jobs), "job_errors": job_errors, "self_test_caught_planted_row": self_test,
            "docs_attempted": attempted_docs, "docs_failed": failed_docs,
            "docs_failed_known_short_page": known_docs, "docs_failed_unexplained": unexplained_docs,
            "fail_share": failed_docs / attempted_docs if attempted_docs else 1.0,
        })
        phase("checks")
    except Exception as e:
        traceback.print_exc(file=sys.stderr)
        report["notes"].append(f"run aborted: {type(e).__name__}: {e}"[:300])
        correct = False
        failed_jobs = max(1, len(job_errors))
        setups = report.get("setup_s", {}).get("samples", [])
    finally:
        tracer.stop()
        try:
            ray.shutdown()
        finally:
            killed = hostfacts.reap_descendants()
            if killed:
                report["notes"].append(f"killed {len(killed)} processes left after shutdown")
            shutil.rmtree(run_dir, ignore_errors=True)
            shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)
            shutil.rmtree(os.path.join(WORK, "plasma"), ignore_errors=True)
            watchdog.cancel()
            phase("shutdown")
            report["phases_s"] = phases

    untraced = [j["timings"]["wall_s"] for j in jobs if not j["traced"]]
    if not untraced or not setups:
        print(json.dumps(report, default=str))
        print("perfbench: no job finished; no result", file=sys.stderr)
        return 1
    wall = statistics.median(untraced)
    report["wall_s"] = {**summary(untraced), "samples": untraced}
    report["docs_per_s"] = n_docs / wall
    if wl == "crash_resume":
        report["resume_s"] = summary([j["timings"]["resume_s"] for j in jobs if not j["traced"]])

    if args.trace == 0:
        values = {
            "wall_s": wall,
            "docs_per_s": report["docs_per_s"],
            "setup_s": statistics.median(setups),
            "peak_worker_rss_mb": report["peak_worker_rss_mb"],
            "ok_share": 1.0 - report.get("fail_share", 1.0),
        }
        units = declared_metrics("end_to_end")
    else:
        values = dict(layer)
        if layer:
            values.update(trace_metrics(jobs, tracer, layer, wl, n_docs, num_cpus, wall))
        units = declared_metrics("per_layer")
        missing = sorted(set(units) - set(values))
        if missing:
            report["notes"].append(f"per-layer metrics not measured: {missing}")
            correct = False
        trace_path = os.path.join(WORK, "traces", f"{wl}-s{args.seed}.json")
        tracer.write(trace_path)
        report["trace_file"] = os.path.relpath(trace_path, ROOT)
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items() if k in values}
    print(json.dumps(report, default=str))
    print(json.dumps({"correct": bool(correct), "attempted": len(jobs) + len(job_errors),
                      "failed": int(failed_jobs), "metrics": metrics}))
    return 0


def trace_metrics(jobs, tracer, layer, wl, n_docs, num_cpus, untraced_wall) -> dict:
    """Executor-level metrics from the traced jobs' Ray Data stats, tracing
    overhead, and the stage-isolated layer sum next to the streamed wall."""
    traced = [j for j in jobs if j["traced"]]
    util, tasks, spilled = [], [], []
    for j in traced:
        span = tracer.spans[j["span"]]
        ops = [op for parsed in span["stats"] for op in parsed["ops"]]
        if not ops:
            continue
        util.append(sum(op["cpu_s"] for op in ops) / (j["timings"]["wall_s"] * num_cpus))
        tasks.append(sum(op["tasks"] for op in ops))
        spilled.append(max(p["spilled_bytes"] for p in span["stats"]))
    traced_wall = statistics.median(j["timings"]["wall_s"] for j in traced)
    single = layer["render_extract_docs_per_cpu_s"]
    layer_sum = {
        "crawl_extract": ("corpus.render_s", "stages.extract_s", "pipelines.extract.aggregate_s"),
        "boilerplate_dedup": ("pipelines.textops.explode_s", "pipelines.textops.cogroup_line_s",
                              "pipelines.textops.cogroup_doc_s"),
        "crash_resume": ("state.lineage.crash_leg_s", "state.lineage.committed_parts_s",
                         "state.lineage.resume_s"),
    }[wl]
    # the executor metrics are left out (reported as not measured) unless
    # every traced job's stats were captured
    executor = {}
    if traced and len(util) == len(traced):
        executor = {
            "ray_data.utilisation": statistics.median(util),
            "ray_data.tasks": statistics.median(tasks),
            "ray_data.spilled_bytes": max(spilled),
        }
    return {
        **executor,
        "ray_data.parallel_efficiency": (n_docs / untraced_wall) / (num_cpus * single),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        # left out when a layer wall is missing, like the layer itself
        **({"trace.layer_sum_s": sum(layer[k] for k in layer_sum)} if all(k in layer for k in layer_sum) else {}),
    }


if __name__ == "__main__":
    sys.exit(main())
