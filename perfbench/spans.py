"""In-memory spans around the benchmark's calls into each layer, and a parser
for the text ``Dataset.stats()`` prints.

Spans are recorded only by the benchmark's own files; nothing inside the
program is instrumented. A tracer that is off records nothing and adds one
attribute check per call.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import re
import sys
import time

# Ray Data's streaming executor logs each finished execution's ``stats()``
# text to this logger when ``DataContext.enable_auto_log_stats`` is set;
# ``materialize()`` logs a second copy through the plan logger.
STATS_LOGGER = "ray.data._internal.execution.streaming_executor"
PLAN_LOGGER = "ray.data._internal.plan"


def _not_stats(record: logging.LogRecord) -> bool:
    return not record.getMessage().startswith("Operator ")


class _StatsCapture(logging.Handler):
    def __init__(self, sink: list, failures: list):
        super().__init__(logging.INFO)
        self.sink = sink
        self.failures = failures

    def emit(self, record: logging.LogRecord) -> None:
        if not record.getMessage().startswith("Operator "):
            return
        # The logged text covers only the execution's last operator. The
        # executor logging it holds the frozen stats of the whole chain, so
        # read those; without them the stats would be partial, which is
        # recorded as a failure rather than kept.
        f = sys._getframe()
        while f is not None:
            stats = getattr(f.f_locals.get("self"), "_final_stats", None)
            if stats is not None:
                try:
                    self.sink.append(stats.to_summary().to_string())
                except Exception as e:
                    self.failures.append(f"executor stats summary failed: {type(e).__name__}: {e}"[:300])
                return
            f = f.f_back
        self.failures.append("executor with the whole chain's stats not found")


class Tracer:
    """Spans with name, start, end and parent. While a tracer is enabled it
    also collects the ``stats()`` text of every Ray Data execution and hands
    each span the parsed stats of the executions that finished inside it."""

    def __init__(self, enabled: bool, trace_id: str):
        self.enabled = enabled
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._stats: list[str] = []
        self.stats_failures: list[str] = []
        self._handler = None

    def capture_stats(self) -> None:
        """Start collecting execution stats (traced runs only; the caller
        owns the Ray session)."""
        from ray.data import DataContext

        DataContext.get_current().enable_auto_log_stats = True
        log = logging.getLogger(STATS_LOGGER)
        self._handler = _StatsCapture(self._stats, self.stats_failures)
        log.addHandler(self._handler)
        log.setLevel(logging.INFO)
        log.propagate = False  # keep the stats text off stderr
        logging.getLogger(PLAN_LOGGER).addFilter(_not_stats)

    def stop(self) -> None:
        if self._handler is not None:
            log = logging.getLogger(STATS_LOGGER)
            log.removeHandler(self._handler)
            log.propagate = True
            logging.getLogger(PLAN_LOGGER).removeFilter(_not_stats)
            self._handler = None

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around one call. ``root`` is the id of the outermost open
        span, shared by every span of one job."""
        if not self.enabled:
            yield None
            return
        rec = {
            "id": len(self.spans),
            "root": self._stack[0] if self._stack else len(self.spans),
            "trace_id": self.trace_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        first_stats = len(self._stats)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            rec["stats"] = [parse_stats(t) for t in self._stats[first_stats:]]

    def self_time(self, span_id: int) -> float:
        """Span duration minus the part of it its child spans cover (children
        of one span never overlap: calls here are sequential)."""
        s = self.spans[span_id]
        child = sum(c["end"] - c["start"] for c in self.spans if c["parent"] == span_id)
        return (s["end"] - s["start"]) - child

    def write(self, path: str) -> None:
        """Write every span, with its self time, once at the end of a run."""
        if not self.enabled:
            return
        for s in self.spans:
            s["self_s"] = self.self_time(s["id"])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"trace_id": self.trace_id, "spans": self.spans}, fh)


_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_OP_RE = re.compile(r"^Operator \d+ (.+?): (.*)$")
_SUB_RE = re.compile(r"^\s+Suboperator \d+ (.+?): (.*)$")
_TOTAL_TIME_RE = re.compile(r"([\d.]+)(us|ms|s) total")


def _seconds(line: str) -> float:
    m = _TOTAL_TIME_RE.search(line)
    return float(m.group(1)) * _UNIT[m.group(2)] if m else 0.0


def _blank(name: str, rest: str) -> dict:
    tasks = re.search(r"(\d+) tasks executed", rest)
    wall = re.search(r"in ([\d.]+)s", rest)
    return {
        "name": name,
        "tasks": int(tasks.group(1)) if tasks else 0,
        "wall_s": float(wall.group(1)) if wall else 0.0,
        "cached": "[execution cached]" in rest,
        "remote_wall_s": 0.0,
        "cpu_s": 0.0,
        "peak_heap_mb": 0.0,
        "rows_per_block": None,  # (min, max, mean, total)
        "subops": [],
    }


def parse_stats(text: str) -> dict:
    """``{"ops": [...], "spilled_bytes": int}`` from ``Dataset.stats()``.

    Each op carries its tasks, wall, summed task wall and CPU, peak heap and
    output rows per block; an all-to-all op (Sort, Repartition, Aggregate)
    holds its map and reduce halves in ``subops`` and its own task, time and
    heap fields are their sums/maxima. Ray prints a repeated all-to-all
    operator of the same name as ``[execution cached]``, with no numbers."""
    ops: list[dict] = []
    cur = None
    spilled_mb = 0.0
    for line in text.splitlines():
        m = _OP_RE.match(line)
        if m:
            cur = _blank(m.group(1), m.group(2))
            ops.append(cur)
            continue
        m = _SUB_RE.match(line)
        if m and ops:
            cur = _blank(m.group(1), m.group(2))
            ops[-1]["subops"].append(cur)
            continue
        s = line.strip()
        if s.startswith("* Spilled to disk:"):
            spilled_mb = max(spilled_mb, float(re.search(r"([\d.]+)MB", s).group(1)))
        if cur is None:
            continue
        if s.startswith("* Remote wall time:"):
            cur["remote_wall_s"] = _seconds(s)
        elif s.startswith("* Remote cpu time:"):
            cur["cpu_s"] = _seconds(s)
        elif s.startswith("* Peak heap memory usage (MiB):"):
            cur["peak_heap_mb"] = float(re.search(r"([\d.]+) max", s).group(1))
        elif s.startswith("* Output num rows per block:"):
            cur["rows_per_block"] = tuple(float(x) for x in re.findall(r"([\d.]+) (?:min|max|mean|total)", s))
    for op in ops:
        for sub in op["subops"]:
            op["tasks"] += sub["tasks"]
            op["remote_wall_s"] += sub["remote_wall_s"]
            op["cpu_s"] += sub["cpu_s"]
            op["peak_heap_mb"] = max(op["peak_heap_mb"], sub["peak_heap_mb"])
            op["cached"] = op["cached"] or sub["cached"]
        if op["subops"] and op["rows_per_block"] is None:
            op["rows_per_block"] = op["subops"][-1]["rows_per_block"]
    return {"ops": ops, "spilled_bytes": int(spilled_mb * 1e6)}
