"""Constructed edge cases for the r3 relational additions: gaps-and-islands
boundary semantics, the general shuffle-hash join's inner semantics, and
global ranking's degenerate value range."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from pdf_extractor_ray.pipelines.relational import (
    global_row_number,
    interval_islands,
    shuffle_join_detail,
)


def _df(res) -> pd.DataFrame:
    return res if isinstance(res, pd.DataFrame) else res.to_pandas()


def _write_events(tmp_path, rows: list[tuple[int, int, int]]):
    """rows = (event_id, user_id, ts_us)."""
    eid, uid, ts = zip(*rows)
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(eid, pa.int64()),
                "user_id": pa.array(uid, pa.int64()),
                "ts": pa.array(list(ts), pa.timestamp("us")),
            }
        ),
        tmp_path / "events.parquet",
    )
    return str(tmp_path)


def test_islands_touching_intervals_merge(ray_session, tmp_path):
    """End == next start merges (s > prev_max opens, s == prev_max doesn't):
    events at t and t+300s form ONE island covering 600 s."""
    t0 = 1_000_000_000_000_000
    sf = _write_events(tmp_path, [(1, 7, t0), (2, 7, t0 + 300_000_000)])
    got = _df(interval_islands(sf))
    assert got.to_dict("records") == [{"user_id": 7, "n_islands": 1, "covered_s": 600}]


def test_islands_strictly_later_start_splits(ray_session, tmp_path):
    t0 = 1_000_000_000_000_000
    sf = _write_events(tmp_path, [(1, 7, t0), (2, 7, t0 + 300_000_001)])
    got = _df(interval_islands(sf))
    assert got.to_dict("records") == [{"user_id": 7, "n_islands": 2, "covered_s": 600}]


def test_islands_boundary_crossing_seconds(ray_session, tmp_path):
    """covered_s counts second-BOUNDARY crossings (DuckDB date_diff), not the
    floored duration: island [1.9 s, 400.2 s] covers 399, not 398."""
    sf = _write_events(tmp_path, [(1, 7, 1_900_000), (2, 7, 100_200_000)])
    got = _df(interval_islands(sf))
    assert got.to_dict("records") == [{"user_id": 7, "n_islands": 1, "covered_s": 399}]


def test_shuffle_join_inner_drops_both_dangles(ray_session, tmp_path):
    """Inner semantics: lineitem rows without an order AND orders without
    lineitems both vanish; a 2-line order yields 2 joined rows."""
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array([1, 1, 99], pa.int64()),
                "l_linenumber": pa.array([1, 2, 1], pa.int64()),
                "l_extendedprice": pa.array([10.0, 20.0, 5.0]),
            }
        ),
        tmp_path / "lineitem.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([1, 2], pa.int64()),
                "o_custkey": pa.array([77, 88], pa.int64()),
                "o_orderpriority": pa.array(["1-URGENT", "5-LOW"]),
            }
        ),
        tmp_path / "orders.parquet",
    )
    got = _df(shuffle_join_detail(str(tmp_path))).sort_values("l_linenumber")
    assert len(got) == 2
    assert set(got["l_orderkey"]) == {1} and set(got["o_custkey"]) == {77}


def test_global_row_number_degenerate_equal_prices(ray_session, tmp_path):
    """All-equal prices: the orderkey tie-break alone orders the rows, so
    ranks are a permutation-free 1..n by orderkey."""
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([5, 3, 9, 1], pa.int64()),
                "o_totalprice": pa.array([42.0] * 4),
            }
        ),
        tmp_path / "orders.parquet",
    )
    got = _df(global_row_number(str(tmp_path))).sort_values("rn")
    assert list(got["o_orderkey"]) == [1, 3, 5, 9]
    assert list(got["rn"]) == [1, 2, 3, 4]
    assert got["rn"].dtype == np.int64


def test_dense_rank_ties_share_rank_no_gaps(ray_session, tmp_path):
    """Ties share a rank and the next distinct value takes rank+1 (no gap —
    the DENSE_RANK vs RANK distinction)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from pdf_extractor_ray.pipelines.relational import dense_rank_in_group

    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array([1, 2, 3, 4], pa.int64()),
                "l_linenumber": pa.array([1, 1, 1, 1], pa.int64()),
                "l_suppkey": pa.array([9, 9, 9, 9], pa.int64()),
                "l_quantity": pa.array([5.0, 5.0, 7.0, 7.0]),
            }
        ),
        tmp_path / "lineitem.parquet",
    )
    got = _df(dense_rank_in_group(str(tmp_path))).sort_values("l_orderkey")
    assert got["drank"].tolist() == [1, 1, 2, 2]


def test_set_ops_distinct_semantics(ray_session, tmp_path):
    """INTERSECT/EXCEPT emit DISTINCT keys: duplicate order custkeys collapse,
    and the balance filter gates the right side."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from pdf_extractor_ray.pipelines.relational import except_custkeys, intersect_custkeys

    pq.write_table(
        pa.table({"o_orderkey": pa.array([1, 2, 3, 4], pa.int64()),
                  "o_custkey": pa.array([1, 1, 2, 3], pa.int64())}),
        tmp_path / "orders.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "c_custkey": pa.array([1, 2, 4], pa.int64()),
                "c_acctbal": pa.array([6000.0, 100.0, 9000.0]),
            }
        ),
        tmp_path / "customer.parquet",
    )
    assert sorted(_df(intersect_custkeys(str(tmp_path)))["custkey"]) == [1]
    assert sorted(_df(except_custkeys(str(tmp_path)))["custkey"]) == [2, 3]


def test_mad_even_and_odd_counts(ray_session, tmp_path):
    """MAD midpoint semantics: even count averages the two middle deviations;
    odd count picks the exact element."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from pdf_extractor_ray.pipelines.relational import mad_by_group

    pq.write_table(
        pa.table(
            {
                "l_returnflag": pa.array(["A", "A", "B", "B", "B"]),
                "l_extendedprice": pa.array([1.0, 3.0, 1.0, 2.0, 10.0]),
            }
        ),
        tmp_path / "lineitem.parquet",
    )
    got = _df(mad_by_group(str(tmp_path))).set_index("l_returnflag")["mad_price"]
    assert got["A"] == 1.0  # med 2, devs [1, 1] -> 1
    assert got["B"] == 1.0  # med 2, devs [1, 0, 8] -> 1


def test_paragraph_dedup_first_occurrence_wins(ray_session, tmp_path):
    """Cross-doc duplicate paragraphs survive only at their globally first
    (doc_id, position); boilerplate injection dedups across docs 0 and 5;
    reassembly preserves original chunk order."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from pdf_extractor_ray.pipelines.textops import BOILERPLATE_PARA, paragraph_dedup

    w = lambda s, n: " ".join([s] * n)  # noqa: E731 — n distinct-word chunk filler
    # doc 0: boilerplate (injected, ci=0) + unique tail chunk
    # doc 1: chunkA + chunkB
    # doc 5: boilerplate (injected, loses it) + chunkA duplicate (loses it) + unique
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 5], pa.int64()),
                "text": pa.array(
                    [
                        w("zero", 20) + " " + w("tail", 20),
                        w("alpha", 20) + " " + w("beta", 20),
                        w("five", 20) + " " + w("alpha", 20) + " " + w("gamma", 20),
                    ]
                ),
            }
        ),
        tmp_path / "documents.parquet",
    )
    got = _df(paragraph_dedup(str(tmp_path))).set_index("doc_id")["text_dedup"]
    assert got[0] == BOILERPLATE_PARA + " " + w("tail", 20)
    assert got[1] == w("alpha", 20) + " " + w("beta", 20)
    assert got[5] == w("gamma", 20)  # boilerplate AND alpha chunk deduped away


def test_canonicalize_urls_kernel():
    import pyarrow as pa

    from pdf_extractor_ray.pipelines.textops import canonicalize_urls

    got = canonicalize_urls(
        pa.array(
            [
                "https://Host.Example.COM/a/b?utm_source=x&q=1#frag",
                "HTTPS://host.example.com/a/b/",
                "https://host.example.com/a/b",
            ]
        )
    ).to_pylist()
    assert got == ["https://host.example.com/a/b"] * 3


def test_late_event_filter_boundary_and_first(ray_session, tmp_path):
    """Strict > watermark (exactly-at-boundary is NOT late) and a user's
    first arrival is never late. jitter = (event_id % 7) * J."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from pdf_extractor_ray.pipelines.relational import late_event_filter

    t0 = 1_700_000_000_000_000
    J = 1_000_000  # 1 s jitter unit
    W = 300
    # user 7: event 0 at t0 (jitter 0) -> e=t0; event 1 at t0+1s (jitter 1s)
    #   -> e=t0, wm-e = 0, not late; event 2 at t0+2s (jitter 2s) -> e=t0,
    #   not late; event 6 arrives with jitter 6s: e = ts-6s. Pick ts so
    #   wm-e == W exactly (not late) and one more so wm-e == W+1us (late).
    rows = [
        (0, 7, t0),
        (1, 7, t0 + 1_000_000),
        (6, 7, t0 + 6_000_000 - W * 1_000_000),        # e = t0 - W  -> wm-e = W, boundary, NOT late
        (13, 7, t0 + 6_000_000 - W * 1_000_000 - 1),   # 13%7=6: e = t0 - W - 1us -> late by W+1us? wm still t0
    ]
    eid, uid, ts = zip(*rows)
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(eid, pa.int64()),
                "user_id": pa.array(uid, pa.int64()),
                "ts": pa.array(list(ts), pa.timestamp("us")),
            }
        ),
        tmp_path / "events.parquet",
    )
    got = _df(late_event_filter(str(tmp_path), watermark_s=W, jitter_s=1))
    assert got.to_dict("records") == [
        {"event_id": 13, "user_id": 7, "late_by_us": W * 1_000_000 + 1}
    ]


def test_tumbling_distinct_users_counts_once(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    from pdf_extractor_ray.pipelines.relational import tumbling_distinct_users

    h = 1_700_000_400_000_000  # mid-hour
    pq.write_table(
        pa.table(
            {
                "user_id": pa.array([1, 1, 1, 2], pa.int64()),
                "ts": pa.array([h, h + 1, h + 2, h + 3], pa.timestamp("us")),
            }
        ),
        tmp_path / "events.parquet",
    )
    got = _df(tumbling_distinct_users(str(tmp_path)))
    assert got["n_users"].tolist() == [2]


def test_extract_outlinks_payload_rules(ray_session, tmp_path):
    """PDF and malformed payloads yield zero anchors; an HTML doc's links
    resolve against its own host."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from pdf_extractor_ray import corpus
    from pdf_extractor_ray.pipelines.textops import extract_outlinks

    # doc 17: malformed (17%50==17); doc 5: PDF (5%8==5); doc 1: normal HTML
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 5, 17], pa.int64()),
                "text": pa.array(["alpha beta"] * 3),
                "lang": pa.array(["en"] * 3),
            }
        ),
        tmp_path / "documents.parquet",
    )
    got = _df(extract_outlinks(str(tmp_path)))
    assert set(got["doc_id"]) == {1}
    host = corpus.host_for_doc(1)
    # nav 3 + 1%4 = 4 links, masthead 2, aside 3 (1%3!=0), footer 2
    assert len(got) == 11
    assert got["link_url"].str.startswith(f"https://{host}/").all()
    assert f"https://{host}/rel/3" in set(got["link_url"])


def test_running_distinct_types_repeats_do_not_increment(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    from pdf_extractor_ray.pipelines.relational import running_distinct_types

    t0 = 1_700_000_000_000_000
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([1, 2, 3, 4], pa.int64()),
                "user_id": pa.array([7, 7, 7, 7], pa.int64()),
                "event_type": pa.array(["view", "view", "click", "view"]),
                "ts": pa.array([t0, t0 + 1, t0 + 2, t0 + 3], pa.timestamp("us")),
            }
        ),
        tmp_path / "events.parquet",
    )
    got = _df(running_distinct_types(str(tmp_path))).sort_values("event_id")
    assert got["n_distinct_types"].tolist() == [1, 1, 2, 2]


def test_windowed_topk_tiebreak_is_type_asc(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    from pdf_extractor_ray.pipelines.relational import windowed_topk_types

    h = 1_700_000_400_000_000
    # three types with counts 2, 2, 1 -> top-2 must be the two count-2 types
    # in ASC type order under the tie
    types = ["zeta", "zeta", "alpha", "alpha", "mid"]
    pq.write_table(
        pa.table(
            {
                "event_type": pa.array(types),
                "ts": pa.array([h + i for i in range(len(types))], pa.timestamp("us")),
            }
        ),
        tmp_path / "events.parquet",
    )
    got = _df(windowed_topk_types(str(tmp_path)))
    assert got["event_type"].tolist() == ["alpha", "zeta"]
    assert got["n"].tolist() == [2, 2]


def test_dup_span_coverage_overlaps_merge(ray_session, tmp_path):
    """Two docs share a 5-token run -> two overlapping 4-gram hits merge to
    ONE maximal span covering 5 tokens in each doc; unique tails contribute
    nothing."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from pdf_extractor_ray.pipelines.search import dup_span_coverage

    shared = "alpha beta gamma delta epsilon"
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(
                    [shared + " uniqueone tailword xray", shared + " uniquetwo othertail yankee"]
                ),
            }
        ),
        tmp_path / "documents.parquet",
    )
    got = _df(dup_span_coverage(str(tmp_path))).sort_values("doc_id")
    assert got.to_dict("records") == [
        {"doc_id": 1, "n_spans": 1, "covered_tokens": 5},
        {"doc_id": 2, "n_spans": 1, "covered_tokens": 5},
    ]


def test_canonicalize_urls_idempotent_property():
    """Property: canonicalization is idempotent and invariant to the messy
    decorations it strips (hypothesis over host case / query / fragment /
    trailing slashes)."""
    import pyarrow as pa
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from pdf_extractor_ray.pipelines.textops import canonicalize_urls

    host = st.text(alphabet="abcdefghijklmnopqrstuvwxyz.-", min_size=3, max_size=20).map(
        lambda s: "h" + s.strip(".-") + ".com"
    )
    path = st.lists(
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8),
        min_size=1,
        max_size=4,
    ).map(lambda ps: "/".join(ps))

    @given(
        host=host,
        path=path,
        upper=st.booleans(),
        query=st.sampled_from(["", "?utm_source=x", "?a=1&b=2"]),
        frag=st.sampled_from(["", "#top", "#a/b"]),
        slashes=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=60, deadline=None)
    def check(host, path, upper, query, frag, slashes):
        h = host.upper() if upper else host
        messy = f"https://{h}/{path}" + "/" * slashes + query + frag
        once = canonicalize_urls(pa.array([messy])).to_pylist()[0]
        twice = canonicalize_urls(pa.array([once])).to_pylist()[0]
        assert once == twice  # idempotent
        assert once == f"https://{host.lower()}/{path}"  # decoration-invariant

    check()


def test_table_checksum_block_structure_invariant(ray_session, tmp_path):
    """The modular-sum checksum must not depend on how rows are split into
    blocks (commutativity is the whole point of the design)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.relational import table_checksum

    t = pa.table(
        {
            "doc_id": pa.array(list(range(100)), pa.int64()),
            "text": pa.array([f"doc number {i} text" for i in range(100)]),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    a = table_checksum(str(tmp_path))
    # same rows, different file split -> different block structure
    import shutil

    d2 = tmp_path / "split"
    d2.mkdir()
    pq.write_table(t.slice(0, 37), d2 / "documents.parquet")
    b = table_checksum(str(tmp_path))  # identical input, second run
    assert a.equals(b)
    # permuted row order, same content
    perm = t.take(pa.array(list(reversed(range(100)))))
    pq.write_table(perm, tmp_path / "documents.parquet")
    c = table_checksum(str(tmp_path))
    assert int(a["checksum"][0]) == int(c["checksum"][0])
    assert int(a["n_rows"][0]) == int(c["n_rows"][0])


def test_twap_holds_values_by_interval(ray_session, tmp_path):
    """TWAP weighs each value by how long it held: value 10 held 9 s then
    value 100 held 1 s -> 19.0; the final event opens no interval; a
    single-event user drops."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from pdf_extractor_ray.pipelines.relational import time_weighted_avg_per_user

    t0 = 1_700_000_000_000_000
    rows = [
        (1, 7, t0, 10.0),
        (2, 7, t0 + 9_000_000, 100.0),
        (3, 7, t0 + 10_000_000, 55.0),  # last: no interval
        (4, 8, t0, 42.0),  # single event: no coverage, dropped
    ]
    eid, uid, ts, val = zip(*rows)
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(eid, pa.int64()),
                "user_id": pa.array(uid, pa.int64()),
                "ts": pa.array(list(ts), pa.timestamp("us")),
                "value": pa.array(val, pa.float64()),
            }
        ),
        tmp_path / "events.parquet",
    )
    got = _df(time_weighted_avg_per_user(str(tmp_path)))
    assert got.to_dict("records") == [{"user_id": 7, "twap": 19.0}]


def test_skyline_ties_and_dominance(ray_session, tmp_path):
    """Identical (price, date) pairs do NOT dominate each other (both
    survive); strict dominance on either axis removes; incomparable points
    coexist on the frontier."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from pdf_extractor_ray.pipelines.relational import skyline_orders

    day = 86_400_000_000
    t0 = 1_500_000_000_000_000
    rows = [
        (1, 100.0, t0),            # frontier (earliest at price 100)
        (2, 100.0, t0),            # identical twin -> also survives
        (3, 100.0, t0 + day),      # dominated by 1 (same price, later)
        (4, 200.0, t0 + 2 * day),  # frontier (highest price)
        (5, 150.0, t0 + day),      # frontier (incomparable with 1 and 4)
        (6, 140.0, t0 + day),      # dominated by 5 (same date, lower price)
    ]
    ok, p, d = zip(*rows)
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array(ok, pa.int64()),
                "o_totalprice": pa.array(p, pa.float64()),
                "o_orderdate": pa.array(list(d), pa.timestamp("us")),
            }
        ),
        tmp_path / "orders.parquet",
    )
    got = _df(skyline_orders(str(tmp_path)))
    assert sorted(got["o_orderkey"]) == [1, 2, 4, 5]


# --- r3 late additions: division / decayed counts / token stats ------------


def test_relational_division_requires_full_coverage(ray_session, tmp_path):
    """Only the customer seen with EVERY distinct priority divides; 4/5
    coverage does not, and the divisor set is data-driven (3 here)."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.relational import relational_division

    ck = [1, 1, 1, 2, 2, 3]
    pr = ["1-URGENT", "2-HIGH", "5-LOW", "1-URGENT", "2-HIGH", "5-LOW"]
    pq.write_table(
        pa.table(
            {
                "o_custkey": pa.array(ck, pa.int64()),
                "o_orderpriority": pa.array(pr, pa.string()),
            }
        ),
        tmp_path / "orders.parquet",
    )
    got = _df(relational_division(str(tmp_path)))
    assert sorted(got["o_custkey"].tolist()) == [1]


def test_decayed_count_exact_dyadic_weights(ray_session, tmp_path):
    """Weights are exactly 2^-age_days (clamped at 31): constructed ages
    0, 1, 5 and 4000 days give bit-exact 1 + 0.5 + 2^-5 + 2^-31."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.relational import decayed_count_by_type

    REF_US = 1_706_745_600_000_000
    DAY = 86_400_000_000
    ts = [REF_US, REF_US - DAY, REF_US - 5 * DAY, REF_US - 4000 * DAY]
    pq.write_table(
        pa.table(
            {
                "event_type": pa.array(["view"] * 4, pa.string()),
                "ts": pa.array(ts, pa.timestamp("us")),
            }
        ),
        tmp_path / "events.parquet",
    )
    got = _df(decayed_count_by_type(str(tmp_path)))
    expect = 1.0 + 0.5 + 2.0**-5 + 2.0**-31
    assert got.to_dict("records") == [
        {"event_type": "view", "decayed_count": expect, "n": 4}
    ]


def test_exact_distinct_tokens_dedups_across_blocks(ray_session, tmp_path):
    """The same token repeated within and across docs counts once per
    source; a token shared by two sources counts in each."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.relational import (
        exact_distinct_tokens_by_source,
        word_len_stats_by_source,
    )

    docs = pa.table(
        {
            "source": pa.array(["a", "a", "b"], pa.string()),
            "text": pa.array(["x y x", "y z", "x q"], pa.string()),
        }
    )
    pq.write_table(docs, tmp_path / "documents.parquet")
    got = _df(exact_distinct_tokens_by_source(str(tmp_path)))
    assert got.to_dict("records") == [
        {"source": "a", "n_distinct_tokens": 3},
        {"source": "b", "n_distinct_tokens": 2},
    ]
    # word stats: a has 5 words / 5 chars, b has 2 words / 2 chars
    wl = _df(word_len_stats_by_source(str(tmp_path)))
    assert wl.to_dict("records") == [
        {"source": "a", "n_words": 5, "avg_word_len": 1.0},
        {"source": "b", "n_words": 2, "avg_word_len": 1.0},
    ]


def test_rolling_extremes_short_frames_and_order(ray_session, tmp_path):
    """First rows of a partition use the shorter frame; min/max are element
    picks over the trailing 3 ordered by (ts, event_id)."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.relational import rolling_extremes_per_user

    t0 = 1_000_000_000_000_000
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([1, 2, 3, 4], pa.int64()),
                "user_id": pa.array([7, 7, 7, 7], pa.int64()),
                "ts": pa.array([t0, t0 + 1, t0 + 2, t0 + 3], pa.timestamp("us")),
                "value": pa.array([5.0, 1.0, 3.0, 9.0], pa.float64()),
            }
        ),
        tmp_path / "events.parquet",
    )
    got = (
        _df(rolling_extremes_per_user(str(tmp_path)))
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert got["roll_min"].tolist() == [5.0, 1.0, 1.0, 1.0]
    assert got["roll_max"].tolist() == [5.0, 5.0, 5.0, 9.0]


def test_ccnet_buckets_are_ordered_partition(ray_session):
    """head/middle/tail partition the corpus and are score-ordered: every
    head score ≥ every middle score ≥ every tail score."""
    from pdf_extractor_ray.pipelines.textops import ccnet_perplexity_buckets

    got = _df(ccnet_perplexity_buckets("/root/testdata/sf0.001"))
    assert set(got["bucket"].unique()) <= {"head", "middle", "tail"}
    by = got.groupby("bucket")["lm_score"]
    assert by.min().get("head", np.inf) >= by.max().get("middle", -np.inf)
    assert by.min().get("middle", np.inf) >= by.max().get("tail", -np.inf)
    assert len(got) == 500


def test_chunk_passages_overlap_and_tail(ray_session, tmp_path):
    """Chunks start every stride chars and overlap by size−stride; the tail
    chunk is short; an exactly-stride-length doc yields ONE chunk."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.textops import chunk_passages

    text = "".join(chr(97 + i % 26) for i in range(200))
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array([text, text[:80]], pa.string()),
            }
        ),
        tmp_path / "documents.parquet",
    )
    got = (
        _df(chunk_passages(str(tmp_path)))
        .sort_values(["doc_id", "chunk_id"])
        .reset_index(drop=True)
    )
    d1 = got[got["doc_id"] == 1]
    assert d1["chunk_text"].tolist() == [text[0:120], text[80:200], text[160:200]]
    # consecutive chunks overlap by 40
    assert d1["chunk_text"].iloc[0][-40:] == d1["chunk_text"].iloc[1][:40]
    d2 = got[got["doc_id"] == 2]
    assert d2["chunk_text"].tolist() == [text[:80]]


def test_burst_detection_flags_only_the_spike(ray_session, tmp_path):
    """Constructed stream: 9 quiet minutes of 1 event + one minute of 20 —
    only the spike window crosses mean+3σ; a constant-rate type yields no
    bursts (σ=0 ⇒ threshold=mean, strict > never fires)."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.relational import burst_detection_windows

    MIN = 60_000_000
    t0 = 1_700_000_000_000_000 - (1_700_000_000_000_000 % MIN)
    types, ts = [], []
    for m in range(9):
        types.append("spiky")
        ts.append(t0 + m * MIN)
    for i in range(20):
        types.append("spiky")
        ts.append(t0 + 9 * MIN + i * 1000)
    for m in range(10):
        types.append("flat")
        ts.append(t0 + m * MIN)
    pq.write_table(
        pa.table(
            {
                "event_type": pa.array(types, pa.string()),
                "ts": pa.array(ts, pa.timestamp("us")),
            }
        ),
        tmp_path / "events.parquet",
    )
    got = _df(burst_detection_windows(str(tmp_path)))
    assert got["event_type"].tolist() == ["spiky"]
    assert got["n_events"].tolist() == [20]


def test_revenue_share_sums_to_one(ray_session):
    from pdf_extractor_ray.pipelines.relational import revenue_share_by_priority

    got = _df(revenue_share_by_priority("/root/testdata/sf0.001"))
    assert len(got) == 5
    assert abs(got["share"].sum() - 1.0) < 5e-6


def test_rolling_count_range_boundaries(ray_session, tmp_path):
    """RANGE frame: the ts−1h lower bound is INCLUSIVE, equal-ts peers count
    each other regardless of row order, and users never see each other."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.relational import rolling_count_range_window

    H = 3_600_000_000
    t0 = 1_000_000_000_000_000
    rows = [
        (1, 7, t0),             # alone → 1
        (2, 7, t0 + H),         # frame [t0, t0+H]: e1 (inclusive bound) + equal-ts e3 → 3
        (3, 7, t0 + H),         # same frame as e2 → 3
        (4, 7, t0 + 2 * H + 1), # >1h after t0+H → only itself → 1
        (5, 8, t0 + H),         # other user → 1
    ]
    eid, uid, ts = zip(*rows)
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(eid, pa.int64()),
                "user_id": pa.array(uid, pa.int64()),
                "ts": pa.array(list(ts), pa.timestamp("us")),
            }
        ),
        tmp_path / "events.parquet",
    )
    got = (
        _df(rolling_count_range_window(str(tmp_path)))
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert got["n_last_hour"].tolist() == [1, 3, 3, 1, 1]


def test_campaign_exposure_partial_overlap(ray_session, tmp_path):
    """An island straddling a campaign edge earns exactly the inside part;
    disjoint islands earn zero."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.relational import campaign_exposure_seconds

    BASE = 1_704_067_200_000_000  # campaign 0 = [BASE, BASE+8d)
    DAY = 86_400_000_000
    # one event 100s before campaign 0 starts → island [-100s, +200s):
    # overlap with campaign 0 = 200s exactly
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([1, 2], pa.int64()),
                "user_id": pa.array([7, 8], pa.int64()),
                "ts": pa.array(
                    [BASE - 100_000_000, BASE + 40 * DAY], pa.timestamp("us")
                ),
            }
        ),
        tmp_path / "events.parquet",
    )
    got = _df(campaign_exposure_seconds(str(tmp_path))).set_index("campaign_id")
    assert got.loc[0, "exposure_us"] == 200_000_000
    assert got.loc[0, "n_islands"] == 1
    # user 8's island is far past every window → all other campaigns see
    # only what campaign 0 saw or nothing
    assert (got.loc[1:, "exposure_us"] == 0).all()


def test_topk_with_ties_keeps_boundary_ties(ray_session, tmp_path):
    """Three rows tie the 2nd-highest quantity: all survive (RANK ≤ 2 → 4
    rows), where head(2) would keep only 2."""
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "l_linenumber": pa.array([1] * 5, pa.int64()),
                "l_suppkey": pa.array([9] * 5, pa.int64()),
                "l_quantity": pa.array([10.0, 7.0, 7.0, 7.0, 1.0]),
            }
        ),
        tmp_path / "lineitem.parquet",
    )
    from pdf_extractor_ray.pipelines.relational import topk_with_ties_per_group

    got = _df(topk_with_ties_per_group(str(tmp_path)))
    assert sorted(got["l_orderkey"]) == [1, 2, 3, 4]


def test_weekly_wow_gap_yields_zero_delta(ray_session, tmp_path):
    """A missing week breaks the WoW chain: the week after a gap reports 0,
    consecutive weeks report the exact cents difference."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.relational import weekly_revenue_wow

    # Mondays: 2024-01-01, 2024-01-08, (skip 01-15), 2024-01-22
    days = ["2024-01-01", "2024-01-08", "2024-01-22"]
    prices = [100.0, 150.5, 80.25]
    pq.write_table(
        pa.table(
            {
                "o_orderdate": pa.array(pd.to_datetime(days), pa.timestamp("us")),
                "o_totalprice": pa.array(prices),
            }
        ),
        tmp_path / "orders.parquet",
    )
    got = _df(weekly_revenue_wow(str(tmp_path)))
    assert got["week_start"].tolist() == days
    assert got["revenue_cents"].tolist() == [10000, 15050, 8025]
    assert got["wow_delta_cents"].tolist() == [0, 5050, 0]


def test_journey_signature_orders_within_user(ray_session, tmp_path):
    """Signatures respect per-user event-time order and cap at the first 5."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.relational import user_journey_signatures

    t0 = 1_000_000_000_000_000
    types = ["view", "click", "purchase", "view", "view", "error"]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(list(range(6)), pa.int64()),
                "user_id": pa.array([7] * 6, pa.int64()),
                "ts": pa.array([t0 + i for i in range(6)], pa.timestamp("us")),
                "event_type": pa.array(types, pa.string()),
            }
        ),
        tmp_path / "events.parquet",
    )
    got = _df(user_journey_signatures(str(tmp_path)))
    assert got.to_dict("records") == [
        {"signature": "view>click>purchase>view>view", "n_users": 1}
    ]


def test_events_since_purchase_reset_and_prefix_null(ray_session, tmp_path):
    """Counter resets to 0 AT each purchase, counts 1,2,… after it, and is
    NULL for every event before the user's first purchase."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.relational import events_since_purchase

    t0 = 1_000_000_000_000_000
    types = ["view", "click", "purchase", "view", "view", "purchase", "view"]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(list(range(7)), pa.int64()),
                "user_id": pa.array([7] * 7, pa.int64()),
                "ts": pa.array([t0 + i for i in range(7)], pa.timestamp("us")),
                "event_type": pa.array(types, pa.string()),
            }
        ),
        tmp_path / "events.parquet",
    )
    got = (
        _df(events_since_purchase(str(tmp_path)))
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    vals = got["n_since_purchase"].tolist()
    assert pd.isna(vals[0]) and pd.isna(vals[1])
    assert vals[2:] == [0.0, 1.0, 2.0, 0.0, 1.0]


def test_boilerplate_line_removal_all_occurrences_die(ray_session, tmp_path):
    """Host-scoped frequency rule: a line in >= min_docs distinct docs of
    the SAME host is removed EVERYWHERE (including its first occurrence —
    the policy distinction vs paragraph_dedup), while the identical line
    on a host below threshold survives; the rare-promo injection survives
    at count 1."""
    from pdf_extractor_ray.pipelines.textops import (
        RARE_PROMO_LINE,
        boilerplate_line_removal,
    )

    w = lambda s, n: " ".join([s] * n)  # noqa: E731
    # ids 0,3,6,9,30 -> big-portal, %3==0: chunk0 becomes the host copyright
    # line (5 distinct docs >= threshold -> removed); unique tail survives.
    # ids 1,11,14,17,19 -> big-portal, %3!=0: SAME natural chunk0 in 5 docs
    # -> all five occurrences removed (no first-occurrence survivor).
    # id 27 -> tiny-c, %3==0: its copyright line has 1 doc -> survives.
    # id 7 -> %100==7: promo injected at ci=1, count 1 -> survives.
    ids, texts = [], []
    for i in (0, 3, 6, 9, 30):
        ids.append(i)
        texts.append(w(f"u{i}", 20) + " " + w(f"tail{i}", 20))
    for i in (1, 11, 14, 17, 19):
        ids.append(i)
        texts.append(w("common", 20) + " " + w(f"solo{i}", 20))
    ids.append(27)
    texts.append(w("onlychunk", 20))
    ids.append(7)
    texts.append(w("seven", 20) + " " + w("eight", 20))
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)}),
        tmp_path / "documents.parquet",
    )
    got = _df(boilerplate_line_removal(str(tmp_path))).set_index("doc_id")["text_clean"]
    for i in (0, 3, 6, 9, 30):
        assert got[i] == w(f"tail{i}", 20)  # copyright chunk gone
    for i in (1, 11, 14, 17, 19):
        assert got[i] == w(f"solo{i}", 20)  # frequent natural chunk gone in ALL docs
    assert got[27] == "copyright tiny-c.example.xyz all rights reserved"
    assert got[7] == w("seven", 20) + " " + RARE_PROMO_LINE


def test_lineitems_above_avg_qty_constructed(ray_session, tmp_path):
    """part 1: qty [1,2,3] -> avg 2, one strictly above; part 2: all equal
    -> zero above (strict > excludes the average itself)."""
    from pdf_extractor_ray.pipelines.relational import lineitems_above_avg_qty

    pq.write_table(
        pa.table(
            {
                "l_partkey": pa.array([1, 1, 1, 2, 2], pa.int64()),
                "l_quantity": pa.array([1.0, 2.0, 3.0, 5.0, 5.0]),
            }
        ),
        tmp_path / "lineitem.parquet",
    )
    got = _df(lineitems_above_avg_qty(str(tmp_path))).set_index("l_partkey")["n_above"]
    assert got[1] == 1
    assert got[2] == 0


def test_histogram_orders_cents_boundaries(ray_session, tmp_path):
    """Half-cent rounding boundary: 9999.995 rounds UP to exactly the bin
    edge (bin 1); 9999.994 stays in bin 0; counts sum to the row count."""
    from pdf_extractor_ray.pipelines.relational import histogram_orders_cents

    pq.write_table(
        pa.table({"o_totalprice": pa.array([9999.994, 9999.995, 0.01, 25000.0])}),
        tmp_path / "orders.parquet",
    )
    got = _df(histogram_orders_cents(str(tmp_path))).set_index("bin")
    assert got.loc[0, "n_orders"] == 2  # 9999.994 and 0.01
    assert got.loc[1, "n_orders"] == 1  # 9999.995 -> cents 1_000_000
    assert got.loc[2, "n_orders"] == 1  # 25000.00
    assert got["n_orders"].sum() == 4
    assert (got["lo_cents"] == got.index * 1_000_000).all()


def test_iqr_outliers_constructed(ray_session, tmp_path):
    """n=5 cents [100,200,300,400,10000]: Q1=200, Q3=400 (ceil-rank picks),
    k=0.5 fences [100, 500] — the boundary value 100 is NOT an outlier
    (strict <), 10000 is."""
    from pdf_extractor_ray.pipelines.relational import iqr_outliers_by_priority

    pq.write_table(
        pa.table(
            {
                "o_orderpriority": pa.array(["P"] * 5),
                "o_totalprice": pa.array([1.0, 2.0, 3.0, 4.0, 100.0]),
            }
        ),
        tmp_path / "orders.parquet",
    )
    got = _df(iqr_outliers_by_priority(str(tmp_path)))
    assert len(got) == 1
    r = got.iloc[0]
    assert (r["q1_cents"], r["q3_cents"], r["n_outliers"]) == (200, 400, 1)


def test_throttle_cooldown_semantics(ray_session, tmp_path):
    """Greedy emission recurrence: boundary ts == last_emitted + cooldown
    EMITS (>=); equal-ts burst keeps only the first; suppression chains
    from EMITTED events, not from suppressed ones."""
    from pdf_extractor_ray.pipelines.relational import throttle_events_cooldown

    S = 1_000_000  # 1s in us
    # user 1: 0s (emit), 30s (suppressed), 45s (suppressed — 45 < 0+60),
    #         60s (emit: boundary >=), 119s (suppressed), 121s (emit)
    # user 2: three equal-ts events -> only lowest event_id... NOTE: equal
    #         ts, sort by (ts, event_id) -> first emits, rest suppressed
    rows = [
        (10, 1, 0), (11, 1, 30 * S), (12, 1, 45 * S),
        (13, 1, 60 * S), (14, 1, 119 * S), (15, 1, 121 * S),
        (20, 2, 5 * S), (21, 2, 5 * S), (22, 2, 5 * S),
    ]
    _write_events(tmp_path, rows)
    got = _df(throttle_events_cooldown(str(tmp_path), cooldown_s=60))
    assert sorted(got["event_id"].tolist()) == [10, 13, 15, 20]


def test_throttle_matches_bruteforce_sf0001(ray_session):
    """Distributed throttle == single-process greedy scan over the real
    sf0.001 events table."""
    import pyarrow.parquet as pq_mod

    from pdf_extractor_ray.pipelines.relational import throttle_events_cooldown

    sf = "/root/testdata/sf0.001"
    t = pq_mod.read_table(sf + "/events.parquet", columns=["event_id", "user_id", "ts"])
    df = t.to_pandas().sort_values(["user_id", "ts", "event_id"])
    C = 3600 * 1_000_000
    want = []
    for _, g in df.groupby("user_id", sort=False):
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        last = None
        for eid, tt in zip(g["event_id"].to_numpy(), ts):
            if last is None or tt >= last + C:
                want.append(int(eid))
                last = tt
    got = sorted(_df(throttle_events_cooldown(sf))["event_id"].tolist())
    assert got == sorted(want)


def test_countmin_bound_holds(ray_session):
    """CM one-sided error: est >= exact for every audited heavy hitter,
    and the min-over-rows estimate stays within a loose eN/width band."""
    import pyarrow.parquet as pq_mod

    from pdf_extractor_ray.pipelines.relational import countmin_token_counts

    sf = "/root/testdata/sf0.001"
    out = countmin_token_counts(sf)
    assert len(out) > 0
    assert (out["n_est"].to_numpy() >= out["n_exact"].to_numpy()).all()
    t = pq_mod.read_table(sf + "/documents.parquet", columns=["text"])
    n_tokens = sum(len(s.split(" ")) for s in t.column("text").to_pylist())
    slack = 3.0 * n_tokens / 8192  # e/width bound with generous constant
    assert ((out["n_est"] - out["n_exact"]).to_numpy() <= slack).all()


def test_scd2_history_constructed(ray_session, tmp_path):
    """All four SCD2 row kinds from a tiny snapshot pair (derivation rules:
    %7 delete, %5 change, %11 re-add at +10M): unchanged stays open,
    changed closes T1 + opens T2, delete closes, add opens at 2."""
    from pdf_extractor_ray.pipelines.relational import scd2_history

    # ids: 1 unchanged; 5 changed (%5); 7 deleted (%7); 11 changed (%11
    # keeps original AND re-adds at 10000011); 3 unchanged
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 3, 5, 7, 11], pa.int64()),
                "n_chars": pa.array([100, 300, 500, 700, 1100], pa.int64()),
            }
        ),
        tmp_path / "documents.parquet",
    )
    got = _df(scd2_history(str(tmp_path)))
    rows = {
        (r.doc_id, r.n_chars, r.valid_from): r.valid_to for r in got.itertuples()
    }
    assert pd.isna(rows[(1, 100, 1)])  # unchanged, open
    assert pd.isna(rows[(3, 300, 1)])
    assert rows[(5, 500, 1)] == 2  # changed: T1 closed
    assert pd.isna(rows[(5, 501, 2)])  # changed: T2 open
    assert rows[(7, 700, 1)] == 2  # deleted: closed, no successor
    assert not any(k[0] == 7 and k[2] == 2 for k in rows)
    assert pd.isna(rows[(11, 1100, 1)])  # original 11 unchanged
    assert pd.isna(rows[(10000011, 1100, 2)])  # re-add opens at 2
    assert len(got) == 7


def test_capped_sessions_split_steady_drip(ray_session, tmp_path):
    """The cap catches what gap-only sessionization cannot: a steady
    sub-gap drip splits at the duration cap; boundary semantics — an
    event AT start+cap stays in the session (strict >), an event at
    exactly gap stays joined (strict >); gap splits reset the cap
    clock."""
    from pdf_extractor_ray.pipelines.relational import capped_session_windows

    S = 1_000_000
    # user 1: events every 600s (< gap 1800s) for 5 hours -> gap rule never
    # splits; cap 14400s splits at t > 14400: events at 0..18000 step 600.
    rows = [(i, 1, i * 600 * S) for i in range(31)]  # t = 0 .. 18000s
    # user 2: two gap-split sessions, each short of the cap
    rows += [(100, 2, 0), (101, 2, 100 * S), (102, 2, 5000 * S), (103, 2, 5100 * S)]
    _write_events(tmp_path, rows)
    got = _df(capped_session_windows(str(tmp_path))).set_index("event_id")["session_seq"]
    # user 1: t=14400 (event 24) is AT start+cap -> stays in session 0;
    # t=15000 (event 25) exceeds -> session 1
    assert got[24] == 0 and got[25] == 1
    assert got[0] == 0 and got[30] == 1
    # user 2: gap split at event 102
    assert got[100] == 0 and got[101] == 0 and got[102] == 1 and got[103] == 1


def test_capped_sessions_match_bruteforce_sf0001(ray_session):
    """Distributed capped sessionization == single-process greedy scan."""
    import pyarrow.parquet as pq_mod

    from pdf_extractor_ray.pipelines.relational import capped_session_windows

    sf = "/root/testdata/sf0.001"
    t = pq_mod.read_table(sf + "/events.parquet", columns=["event_id", "user_id", "ts"])
    df = t.to_pandas().sort_values(["user_id", "ts", "event_id"])
    GAP, CAP = 1800 * 1_000_000, 14400 * 1_000_000
    want = {}
    for _, g in df.groupby("user_id", sort=False):
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        eid = g["event_id"].to_numpy()
        sid, start, prev = 0, None, None
        for e, tt in zip(eid, ts):
            if start is None:
                start = tt
            elif tt - prev > GAP or tt - start > CAP:
                sid += 1
                start = tt
            want[int(e)] = sid
            prev = tt
    got = _df(capped_session_windows(sf)).set_index("event_id")["session_seq"].to_dict()
    assert got == want


def test_rfm_quartile_scores_constructed(ray_session, tmp_path):
    """4 customers with strictly ordered R/F/M metrics score exactly
    1..4 in each dimension; the boundary customer AT a threshold scores
    below it (strict >)."""
    from pdf_extractor_ray.pipelines.relational import rfm_quartile_segments

    BASE = 1_704_067_200_000_000  # 2024-01-01 in us
    DAY = 86_400_000_000
    rows = []
    # cust k (1..4): k orders, last order (4-k) days before the corpus max,
    # each order 100*k dollars -> R,F,M all strictly ordered
    okey = 0
    for k in (1, 2, 3, 4):
        for j in range(k):
            rows.append((okey, k, BASE + (4 - k) * -DAY + j * 0, 100.0 * k))
            okey += 1
    import numpy as np

    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([r[0] for r in rows], pa.int64()),
                "o_custkey": pa.array([r[1] for r in rows], pa.int64()),
                "o_orderdate": pa.array(
                    np.array([r[2] for r in rows], dtype="datetime64[us]")
                ),
                "o_totalprice": pa.array([r[3] for r in rows]),
            }
        ),
        tmp_path / "orders.parquet",
    )
    got = _df(rfm_quartile_segments(str(tmp_path))).set_index("c_custkey")
    # cust 4 is most recent (r_days 0), most frequent, highest monetary
    assert got.loc[4, "r_days"] == 0 and got.loc[1, "r_days"] == 3
    assert list(got.sort_index()["f_score"]) == [1, 2, 3, 4]
    assert list(got.sort_index()["m_score"]) == [1, 2, 3, 4]
    # r_days: cust1=3d..cust4=0d -> staler = higher r_score
    assert got.loc[1, "r_score"] == 4 and got.loc[4, "r_score"] == 1


def test_chi2_residuals_zero_under_independence(ray_session, tmp_path):
    """A perfectly independent contingency table has residual 0 in every
    cell (observed == expected exactly); a planted excess cell goes
    positive and its row/column partners negative."""
    from pdf_extractor_ray.pipelines.relational import chi2_cell_residuals

    def write(rows):
        s, p = zip(*rows)
        pq.write_table(
            pa.table(
                {
                    "o_orderstatus": pa.array(list(s)),
                    "o_orderpriority": pa.array(list(p)),
                    "o_totalprice": pa.array([1.0] * len(rows)),
                }
            ),
            tmp_path / "orders.parquet",
        )

    write([("A", "X")] * 2 + [("A", "Y")] * 2 + [("B", "X")] * 2 + [("B", "Y")] * 2)
    got = _df(chi2_cell_residuals(str(tmp_path)))
    assert (got["residual_r"] == 0.0).all()
    assert (got["expected_r"] == 2.0).all()

    write([("A", "X")] * 6 + [("A", "Y")] * 2 + [("B", "X")] * 2 + [("B", "Y")] * 2)
    got = _df(chi2_cell_residuals(str(tmp_path))).set_index(
        ["o_orderstatus", "o_orderpriority"]
    )
    assert got.loc[("A", "X"), "residual_r"] > 0
    assert got.loc[("B", "X"), "residual_r"] < 0
    assert got.loc[("A", "Y"), "residual_r"] < 0
