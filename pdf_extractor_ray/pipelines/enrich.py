"""Enrichment pipelines: three-pass classifier, fuzzy join, as-of join.

Re-expresses the reference's stateful enrichment stages (SURVEY.md §2.3/§2.4)
with deterministic rule "models" standing in for the LLM calls — the Ray
patterns (per-actor cache, distinct-key pre-aggregation, chained passes,
broadcast small-side similarity join, sorted-group merge_asof) are the real
subject; the rules are SQL-expressible so the driver can value-check them.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .buckets import combine


def _read(sf_dir: str, table: str, columns=None):
    from ..ioutil import read_table

    return read_table(sf_dir, table, columns)


# ---------------------------------------------------------------------------
# three-pass classifier (§2.3 TransactionClassifier, 646 LoC in the reference)
# ---------------------------------------------------------------------------

class RuleClassifier:
    """Actor-poolable classifier with a per-actor result cache keyed by the
    classification key — the reference's disk-backed LLM cache
    (/root/reference/dataextractai/agents/transaction_classifier.py:62-118)
    re-expressed as per-actor memory + relational distinct-key pre-pass.

    Pass semantics (deterministic stand-ins for the three LLM passes,
    transaction_classifier.py:153-370):
      pass1 (cheap):   source ending in 0–4        → 'alpha'
      pass2 (precise): else lang in (en, de)       → 'beta'
      pass3 (force):   everything else             → 'general'
    """

    def __init__(self):
        self.cache: dict[tuple[str, str], tuple[str, str]] = {}

    def classify_key(self, source: str, lang: str) -> tuple[str, str]:
        key = (source, lang)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        if source and source[-1] in "01234":
            result = ("alpha", "pass1")
        elif lang in ("en", "de"):
            result = ("beta", "pass2")
        else:
            result = ("general", "pass3")
        self.cache[key] = result
        return result

    def __call__(self, batch: pa.Table) -> pa.Table:
        pairs = zip(batch.column("source").to_pylist(), batch.column("lang").to_pylist())
        cats, passes = zip(*(self.classify_key(s, l) for s, l in pairs)) if batch.num_rows else ((), ())
        return pa.table(
            {
                "source": batch.column("source"),
                "lang": batch.column("lang"),
                "category": pa.array(list(cats), type=pa.string()),
                "classified_by": pa.array(list(passes), type=pa.string()),
            }
        )


def classify_three_pass(sf_dir: str):
    """Distinct-key pre-aggregation before the expensive stage: the classifier
    runs once per DISTINCT (source, lang) — the relational form of the
    reference's description cache — and results broadcast-join back onto the
    full table. At 10^12 rows this is the difference between |distinct keys|
    and |rows| model calls."""
    import ray

    docs = _read(sf_dir, "documents", ["doc_id", "source", "lang"])
    distinct = combine(docs, ["source", "lang"], {})
    classified = distinct.map_batches(
        RuleClassifier, batch_format="pyarrow", concurrency=(1, 2), batch_size=None
    ).to_pandas()  # |distinct (source, lang)| rows — tiny
    lut = {
        (r.source, r.lang): (r.category, r.classified_by)
        for r in classified.itertuples()
    }
    lut_ref = ray.put(lut)

    def join_back(t: pa.Table) -> pa.Table:
        m = ray.get(lut_ref)
        got = [
            m[(s, l)]
            for s, l in zip(t.column("source").to_pylist(), t.column("lang").to_pylist())
        ]
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "category": pa.array([g[0] for g in got], type=pa.string()),
                "classified_by": pa.array([g[1] for g in got], type=pa.string()),
            }
        )

    return docs.map_batches(join_back, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# fast/precise escalation pair (§2.3 transaction_agents.py:42-164:
# cheap model for all rows, precise model only for low-confidence rows)
# ---------------------------------------------------------------------------

CONFIDENCE_AUTO = 0.8  # reference's auto-accept threshold (agents:38-39)


class FastClassifier:
    """Pass 1: cheap model over every row, emits (category, confidence)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        conf = ((ids * 7919) % 100) / 100.0  # deterministic model confidence
        even = (batch.column("n_chars").to_numpy(zero_copy_only=False) % 2) == 0
        cat = np.where(even, "catA", "catB")
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang": batch.column("lang"),
                "category": pa.array(cat.astype(object), type=pa.string()),
                "confidence": pa.array(conf),
                "model_used": pa.array(["fast"] * batch.num_rows, type=pa.string()),
            }
        )


class PreciseClassifier:
    """Pass 2: recomputes ONLY low-confidence rows in place; high-confidence
    rows pass through untouched. Chaining pass-through stages avoids the
    split-and-union re-execution problem (each Ray Dataset branch re-runs
    its upstream) — pass N consumes pass N−1's columns (SURVEY.md §2.3)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        conf = batch.column("confidence").to_numpy(zero_copy_only=False)
        low = conf < CONFIDENCE_AUTO
        cat = np.asarray(batch.column("category").to_pylist(), dtype=object)
        used = np.asarray(batch.column("model_used").to_pylist(), dtype=object)
        langs = np.asarray(batch.column("lang").to_pylist(), dtype=object)
        cat[low] = np.char.add("precise-", langs[low].astype(str))
        used[low] = "precise"
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "category": pa.array(cat, type=pa.string()),
                "model_used": pa.array(used, type=pa.string()),
            }
        )


def classify_escalate(sf_dir: str):
    """Judge-pair escalation: fast pool over everything, precise pool only
    where confidence < 0.8 — as two chained actor-pool map_batches stages."""
    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    fast = docs.map_batches(
        FastClassifier, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None, concurrency=(1, 4),
    )
    return fast.map_batches(
        PreciseClassifier, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None, concurrency=(1, 2),
    )


#: bump when any resumable pass's LOGIC changes — folded into the checkpoint
#: fingerprint so stale snapshots from older logic are invalidated (ADVICE r2)
PASS_LOGIC_VERSION = 1


def _run_checkpointed_passes(
    out_dir: str,
    passes: list[tuple[str, "callable"]],
    *,
    fail_after_passes: int | None = None,
    run_id: str | None = None,
    fingerprint: str | None = None,
) -> dict:
    """Generic multi-pass runner with per-pass checkpoints — the engine form
    of the reference's ``resume_from_pass`` (transaction_classifier.py:
    193-208: per-pass snapshots, resume skips completed passes). Each pass
    fn receives the PREVIOUS pass's snapshot Dataset (None for the first)
    and returns a Dataset; its full output is snapshotted to parquet and a
    marker committed (tmp+rename, marker after data). A re-run after a
    crash recomputes ONLY uncommitted passes, reading the prior snapshot
    instead of re-executing its lineage.

    ``fail_after_passes`` injects a crash between passes (resume tests).
    Returns {"passes_run": n, "result": Dataset over the final snapshot}.
    """
    import uuid

    import ray.data as rd

    from ..state.lineage import PassCheckpointer

    ck = PassCheckpointer(
        out_dir,
        fingerprint=fingerprint
        or f"{'>'.join(n for n, _ in passes)}|v{PASS_LOGIC_VERSION}",
    )
    run_id = run_id or uuid.uuid4().hex[:12]
    passes_run = 0
    prev_name = None
    for name, fn in passes:
        if not ck.done(name):
            if fail_after_passes is not None and passes_run >= fail_after_passes:
                raise RuntimeError("injected_failure")
            prev = rd.read_parquet(ck.data_dir(prev_name)) if prev_name else None
            ck.write_pass(name, fn(prev), run_id)
            passes_run += 1
        prev_name = name
    return {"passes_run": passes_run, "result": rd.read_parquet(ck.data_dir(prev_name))}


def classify_escalate_resumable(
    sf_dir: str,
    out_dir: str,
    *,
    fail_after_passes: int | None = None,
    run_id: str | None = None,
) -> dict:
    """The escalation pair with a checkpoint BETWEEN passes (see
    ``_run_checkpointed_passes``)."""

    def p_fast(_):
        docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
        return docs.map_batches(
            FastClassifier, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None, concurrency=(1, 4),
        )

    def p_precise(prev):
        return prev.map_batches(
            PreciseClassifier, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None, concurrency=(1, 2),
        )

    return _run_checkpointed_passes(
        out_dir,
        [("fast", p_fast), ("precise", p_precise)],
        fail_after_passes=fail_after_passes,
        run_id=run_id,
        fingerprint=f"{sf_dir}|fast>precise|v{PASS_LOGIC_VERSION}",
    )


def classify_three_pass_resumable(
    sf_dir: str,
    out_dir: str,
    *,
    fail_after_passes: int | None = None,
    run_id: str | None = None,
) -> dict:
    """``classify_three_pass`` with checkpoints between its two physical
    stages (the reference's three LLM passes collapse into one distinct-key
    classify stage here): (1) classify the DISTINCT (source, lang) keys —
    the expensive 'model' stage, exactly what the reference's resume
    protects — then (2) broadcast-join the snapshot back onto the full
    table. A crash after stage 1 resumes without re-running the model."""

    def p_classify_distinct(_):
        distinct = combine(_read(sf_dir, "documents", ["source", "lang"]), ["source", "lang"], {})
        return distinct.map_batches(
            RuleClassifier, batch_format="pyarrow", concurrency=(1, 2), batch_size=None
        )

    def p_join_back(prev):
        import ray

        lut_df = prev.to_pandas()  # |distinct keys| rows — tiny by design
        lut = {
            (r.source, r.lang): (r.category, r.classified_by)
            for r in lut_df.itertuples()
        }
        lut_ref = ray.put(lut)

        def join_back(t: pa.Table) -> pa.Table:
            m = ray.get(lut_ref)
            got = [
                m[(s, l)]
                for s, l in zip(t.column("source").to_pylist(), t.column("lang").to_pylist())
            ]
            return pa.table(
                {
                    "doc_id": t.column("doc_id"),
                    "category": pa.array([g[0] for g in got], type=pa.string()),
                    "classified_by": pa.array([g[1] for g in got], type=pa.string()),
                }
            )

        docs = _read(sf_dir, "documents", ["doc_id", "source", "lang"])
        return docs.map_batches(join_back, batch_format="pyarrow", zero_copy_batch=True)

    return _run_checkpointed_passes(
        out_dir,
        [("classify_distinct", p_classify_distinct), ("join_back", p_join_back)],
        fail_after_passes=fail_after_passes,
        run_id=run_id,
        fingerprint=f"{sf_dir}|classify_distinct>join_back|v{PASS_LOGIC_VERSION}",
    )


# ---------------------------------------------------------------------------
# fuzzy broadcast similarity join (§2.4 rapidfuzz topic↔TOC merge)
# ---------------------------------------------------------------------------

TOPICS = [
    "join merge hash",
    "stream window watermark",
    "sort order key",
    "filter scan row",
]


def fuzzy_topic_join(sf_dir: str):
    """Broadcast-small-side similarity join (organizer_extractor.py:603-658:
    best-match fuzzy merge, threshold semantics): each document matches the
    topic with the largest distinct-token overlap; zero overlap → null.
    Ties break toward the first topic (the reference keeps the first best)."""
    import ray

    topic_sets = [set(t.split()) for t in TOPICS]
    topics_ref = ray.put(topic_sets)

    def match(t: pa.Table) -> pa.Table:
        tsets = ray.get(topics_ref)
        out = []
        for text in t.column("text").to_pylist():
            toks = set(text.split(" "))
            sims = [len(toks & ts) for ts in tsets]
            best = int(np.argmax(sims))  # first index wins ties
            out.append(TOPICS[best] if sims[best] > 0 else None)
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "topic": pa.array(out, type=pa.string()),
            }
        )

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return docs.map_batches(match, batch_format="pyarrow", zero_copy_batch=True)


def fuzzy_edit_join(sf_dir: str, threshold: float = 0.8, n_lookup: int = 50, n_probe: int = 200):
    """Reference-fidelity fuzzy best-match merge
    (organizer_extractor.py:603-658: token_sort_ratio ≥ 80, keep the best,
    else unmatched): probes = part names (p_partkey < n_probe), lookup = the
    first n_lookup part names with WORD ORDER REVERSED — token-sorting must
    see through the reversal. Similarity is token-sort Levenshtein
    (functions/fuzzy.py), oracle-exact vs DuckDB ``levenshtein()``.

    Shape: broadcast the (small) lookup once via ``ray.put``; each batch
    scores its rows against all lookup entries with the per-worker-cached
    edit-distance kernel — a broadcast nested-loop similarity join, the
    100 TB pattern for a bounded lookup side. Ties keep the smallest
    topic_id; below threshold → null (the reference's unmatched branch)."""
    import ray

    from ..functions.fuzzy import levenshtein, token_sort_key

    lk = (
        _read(sf_dir, "part", ["p_partkey", "p_name"])
        .map_batches(
            lambda t: t.filter(pc.less(t.column("p_partkey"), n_lookup)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .to_pandas()
        .sort_values("p_partkey")
    )
    # token-sort keys computed ONCE for the lookup side (not per comparison)
    lookup = [
        (int(k), token_sort_key(" ".join(reversed(name.split(" ")))))
        for k, name in zip(lk.p_partkey, lk.p_name)
    ]
    lookup_ref = ray.put(lookup)

    def match(t: pa.Table) -> pa.Table:
        pairs = ray.get(lookup_ref)
        ids, sims = [], []
        for name in t.column("p_name").to_pylist():
            sk = token_sort_key(name)  # once per probe row, not per lookup entry
            best_id, best_sim = None, None
            for tid, lkey in pairs:
                s = float(np.round(1.0 - levenshtein(sk, lkey) / max(len(sk), len(lkey), 1), 6))
                if s >= threshold and (best_sim is None or s > best_sim):
                    best_id, best_sim = tid, s  # ties keep first (smallest id)
            ids.append(best_id)
            sims.append(best_sim)
        return pa.table(
            {
                "p_partkey": t.column("p_partkey"),
                "topic_id": pa.array(ids, type=pa.int64()),
                "sim": pa.array(sims, type=pa.float64()),
            }
        )

    probes = _read(sf_dir, "part", ["p_partkey", "p_name"]).map_batches(
        lambda t: t.filter(pc.less(t.column("p_partkey"), n_probe)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return probes.map_batches(match, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# as-of join (ray_guide joins section: sorted groups + merge_asof)
# ---------------------------------------------------------------------------

def asof_join_last_signup(sf_dir: str):
    """For every purchase event, the most recent signup ts of the same user
    (backward as-of join). Bucket by user-hash (``cogroup`` — never
    one Ray group per user), sort the bucket by (user, ts, kind, event_id)
    with signups BEFORE purchases at equal ts (allow_exact_matches
    semantics), then the as-of lookup is a segment-wise groupby-ffill of the
    signup timestamps — the documented pattern for as-of/range joins Ray
    Data lacks natively."""
    from .buckets import cogroup

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    both = ev.map_batches(
        lambda t: t.filter(
            pc.is_in(t.column("event_type"), value_set=pa.array(["purchase", "signup"]))
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def asof_b(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(_kind=(g["event_type"] == "purchase").astype(np.int8)).sort_values(
            ["user_id", "ts", "_kind", "event_id"]
        )
        sig = g["ts"].where(g["_kind"] == 0)  # NaT on purchase rows
        last = sig.groupby(g["user_id"].to_numpy()).ffill()  # aligned to g
        p = g["_kind"] == 1
        out = pd.DataFrame(
            {
                "event_id": g.loc[p, "event_id"].to_numpy(dtype=np.int64),
                "last_signup": last[p].dt.strftime("%Y-%m-%d %H:%M:%S"),
            }
        )
        out["last_signup"] = out["last_signup"].where(out["last_signup"].notna(), None)
        return out

    return cogroup(both, "user_id", asof_b)
