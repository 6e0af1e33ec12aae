"""DataContext tuning helpers (memory-aware execution, SURVEY.md §4.2).

Library code never mutates the global ``DataContext`` implicitly — sessions
are owned by the driver / bench / tests. These helpers are for the session
owner to call once after ``ray.init``.
"""

from __future__ import annotations

MiB = 1024 * 1024


def quiet(ctx=None):
    """Disable progress bars / verbose execution logs (test & bench default)."""
    from ray.data import DataContext

    ctx = ctx or DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    return ctx


def tune_for_wide_binary(
    ctx=None,
    *,
    max_payload_bytes: int = 4 * MiB,
    target_rows_per_block: int = 64,
    preserve_order: bool = False,
):
    """Size blocks so a batch × worker concurrency fits the heap when rows
    carry wide binary payloads (html/media columns).

    The governing arithmetic: a block of ``target_rows_per_block`` rows at
    ``max_payload_bytes`` each must stay under ``target_max_block_size`` or
    Ray re-splits blocks mid-stream; conversely a too-large cap lets one
    block × num_cpus exceed worker heap. With the defaults (64 × 4 MiB =
    256 MiB) one in-flight block per CPU on a 128 GiB / 32-CPU node uses
    ~6% of RAM, leaving the object store room to buffer between stages and
    spill instead of OOMing workers."""
    from ray.data import DataContext

    ctx = ctx or DataContext.get_current()
    ctx.target_max_block_size = max_payload_bytes * target_rows_per_block
    ctx.execution_options.preserve_order = preserve_order
    return ctx
