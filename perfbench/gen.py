"""Seeded input generator: one ``documents.parquet`` per (workload, seed).

The table has the schema of the repo's testdata ``(doc_id, text, lang, source,
n_chars)``, so the program's own routing (``corpus.is_pdf_doc``,
``corpus.is_malformed_doc`` and ``corpus.hosts_for_docs`` with its 40% head
host) decides every page property.
The seed picks the doc ids, the word counts and the words; nothing here
filters pages by what the program does with them.

Word counts are lognormal with a long right tail, clipped to
``[1, max_words]``. The low tail keeps HTML pages whose text is shorter than
the extractor's minimum block length, as real crawls have them. The median,
sigma and cap in ``SPECS`` are chosen, not fitted to a measured crawl: no
page-length measurement backs them, so the short-page share (and with it
``ok_share``) is a property of this choice. Each result reports the input's
length quantiles and that share. The counts
are drawn stratified (one draw per 1/n quantile slice of each route, then
shuffled) and the doc ids are a contiguous run at a seeded offset, so the length distribution
and the routing shares of every seed match the workload's definition and the
seed changes which page gets which length, words and route.
"""

from __future__ import annotations

import os
import statistics
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from pdf_extractor_ray import corpus

# Bump when the generated bytes for a (workload, seed) change, so cached
# inputs from an older generator are not reused.
GENERATOR_VERSION = 2

# The vocabulary of the repo's testdata (30 words), so the generated text
# is in the program's intended input domain.
VOCAB = (
    "the a data row column table join filter group sort merge hash scan key "
    "value line part order query window vector batch stream spark agg big "
    "small fast slow customer"
).split()
LANGS = ("en", "fr", "es", "zh", "de")

# Per-workload input shape. ``median_words``/``sigma`` parameterise the
# lognormal word count. They are unsourced choices (see the module
# docstring): short pages for the two extraction workloads, ~400-word
# multi-line documents for boilerplate removal. ``crash_resume`` has the size
# of ``crawl_extract``: at half that, fixed per-unit costs took most of a job
# and its wall spread wider from run to run.
SPECS = {
    "crawl_extract": {"n_docs": 6000, "median_words": 45, "sigma": 1.1, "max_words": 3000},
    "boilerplate_dedup": {"n_docs": 2500, "median_words": 380, "sigma": 0.45, "max_words": 3000},
    "crash_resume": {"n_docs": 6000, "median_words": 45, "sigma": 1.1, "max_words": 3000},
}
ID_SPACE = 50_000_000
SALT = {"crawl_extract": 11, "boilerplate_dedup": 23, "crash_resume": 37}


def documents_table(workload: str, seed: int, n_docs: int | None = None) -> pa.Table:
    spec = SPECS[workload]
    n = n_docs or spec["n_docs"]
    rng = np.random.default_rng([SALT[workload], seed, n])
    doc_ids = int(rng.integers(0, ID_SPACE)) + np.arange(n, dtype=np.int64)
    # stratified per route (PDF-like vs HTML), so each route's total text is
    # the same for every seed
    n_words = np.empty(n, dtype=np.int64)
    pdf = corpus.is_pdf_doc(doc_ids)
    for route in (pdf, ~pdf):
        k = int(route.sum())
        u = (np.arange(k) + rng.random(k)) / k
        z = np.array([statistics.NormalDist().inv_cdf(x) for x in u])
        counts = np.rint(np.exp(np.log(spec["median_words"]) + spec["sigma"] * z))
        n_words[route] = rng.permutation(np.clip(counts, 1, spec["max_words"]).astype(np.int64))
    words = np.asarray(VOCAB, dtype=object)[rng.integers(0, len(VOCAB), int(n_words.sum()))]
    ends = np.cumsum(n_words)
    starts = ends - n_words
    texts = [" ".join(words[s:e]) for s, e in zip(starts.tolist(), ends.tolist())]
    langs = np.asarray(LANGS, dtype=object)[rng.integers(0, len(LANGS), n)]
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
            "lang": pa.array(langs, type=pa.string()),
            "source": pa.array([f"src{i % 10}" for i in doc_ids.tolist()], type=pa.string()),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )


def ensure_input(cache_root: str, workload: str, seed: int, n_docs: int | None = None) -> str:
    """Directory holding ``documents.parquet`` for (workload, seed, size);
    generated on first use and reused afterwards. Written tmp-then-rename,
    so a run killed mid-write never leaves a half file a later run reuses."""
    n = n_docs or SPECS[workload]["n_docs"]
    d = os.path.join(cache_root, f"{workload}-s{seed}-n{n}-v{GENERATOR_VERSION}")
    path = os.path.join(d, "documents.parquet")
    if not os.path.exists(path):
        os.makedirs(d, exist_ok=True)
        tmp = os.path.join(d, f".tmp-{uuid.uuid4().hex[:8]}")
        pq.write_table(documents_table(workload, seed, n), tmp)
        os.replace(tmp, path)
    return d


def input_properties(sf_dir: str) -> dict:
    """Properties of one generated input, derived with the program's own
    routing rules so they describe what the pipeline will see.
    ``short_html_share`` is the share of well-formed HTML pages whose text is
    shorter than the known short-page threshold: the documents the known
    divergence can fail."""
    from check import KNOWN_SHORT_PAGE_CHARS

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "n_chars"])
    ids = t.column("doc_id").to_numpy()
    chars = t.column("n_chars").to_numpy()
    pdf = corpus.is_pdf_doc(ids)
    malformed = corpus.is_malformed_doc(ids)
    hosts = corpus.hosts_for_docs(ids)
    _, host_counts = np.unique(hosts.astype(str), return_counts=True)
    q = np.quantile(chars, [0.01, 0.1, 0.5, 0.9, 0.99])
    return {
        "docs": int(len(ids)),
        "text_chars_q": {k: float(v) for k, v in zip(("p1", "p10", "p50", "p90", "p99"), q)},
        "text_chars_max": int(chars.max()),
        "html_share": float(np.mean(~pdf)),
        "pdf_share": float(np.mean(pdf)),
        "malformed_share": float(np.mean(malformed)),
        "short_html_share": float(np.mean(~pdf & ~malformed & (chars > 0) & (chars < KNOWN_SHORT_PAGE_CHARS))),
        "largest_host_share": float(host_counts.max() / len(ids)),
    }
