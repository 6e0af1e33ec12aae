"""Host facts and process accounting read from ``/proc``, with no sampler
thread: CPU count as ``nproc`` reports it, CPU steal over a run, the peak
resident set of the Ray worker processes, and the process tree a run
started (so it can wait for every child to end)."""

from __future__ import annotations

import os
import signal
import subprocess
import time


def nproc() -> int:
    """The CPU count ``nproc`` reports. It honours ``OMP_NUM_THREADS`` and
    the affinity mask, so the Ray session is sized like the host's other
    tools; ``os.cpu_count()`` and the affinity size are recorded beside it.
    Without an ``nproc`` binary, the affinity size."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, check=True)
    except FileNotFoundError:
        return len(os.sched_getaffinity(0))
    return int(out.stdout.strip())


def host_facts(num_cpus: int, seed: int) -> dict:
    import ray

    return {
        "num_cpus": num_cpus,
        "os_cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ray_version": ray.__version__,
        "seed": seed,
    }


def cpu_ticks() -> tuple[int, int]:
    """(busy ticks, steal ticks) summed over all CPUs from ``/proc/stat``.
    Busy counts user, nice, system, irq, softirq and steal."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return user + nice + system + irq + softirq + steal, steal


def steal_pct_busy(start: tuple[int, int], end: tuple[int, int]) -> float:
    busy = end[0] - start[0]
    return 100.0 * (end[1] - start[1]) / busy if busy > 0 else 0.0


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may hold spaces or parentheses: fields resume
        # after the last ')'
        ppid = int(stat[stat.rindex(")") + 2 :].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(pid: int | None = None) -> list[int]:
    kids = _children()
    out, todo = [], [pid or os.getpid()]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _read(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8", "replace")
    except OSError:
        return ""


def peak_worker_rss_mb() -> float:
    """Largest ``VmHWM`` (peak resident set) among this process's Ray worker
    descendants, in MiB. Workers rename themselves ``ray::<task>``."""
    peak_kb = 0
    for pid in descendants():
        if not _read(f"/proc/{pid}/cmdline").startswith("ray::"):
            continue
        for line in _read(f"/proc/{pid}/status").splitlines():
            if line.startswith("VmHWM:"):
                peak_kb = max(peak_kb, int(line.split()[1]))
    return peak_kb / 1024.0


def reap_descendants(timeout_s: float = 20.0) -> list[int]:
    """Wait until every process this one started has ended; after
    ``timeout_s`` kill the ones left. Returns the pids that had to be killed."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        left = [p for p in descendants() if not _is_zombie(p)]
        if not left:
            return []
        time.sleep(0.2)
    killed = [p for p in descendants() if not _is_zombie(p)]
    for p in killed:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for _ in range(50):
        if not [p for p in descendants() if not _is_zombie(p)]:
            break
        time.sleep(0.1)
    return killed


def _is_zombie(pid: int) -> bool:
    stat = _read(f"/proc/{pid}/stat")
    return not stat or stat[stat.rindex(")") + 2] == "Z"
