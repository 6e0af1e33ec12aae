"""Driver-gate mirror: every query with an oracle must match DuckDB exactly.

Replicates the driver's CORRECTNESS check locally at sf0.001: run the Ray
pipeline and the oracle SQL, canonicalize (sort columns by name, sort rows by
all columns), and require EXACT equality — the driver value-hashes, so
"close" is not enough.
"""

from __future__ import annotations

import importlib.util
import pathlib

import duckdb
import pandas as pd
import pytest

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def _load_entry():
    spec = importlib.util.spec_from_file_location("__ray_entry__", pathlib.Path(__file__).resolve().parent.parent / "__ray_entry__.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


ENTRY = _load_entry()
QUERIES = ENTRY.queries()
ORACLES = ENTRY.oracle_sql()


def _canon(obj) -> pd.DataFrame:
    if hasattr(obj, "to_pandas") and not isinstance(obj, pd.DataFrame):
        df = obj.to_pandas()
    else:
        df = obj
    df = df[sorted(df.columns)]
    if len(df):
        df = df.sort_values(by=list(df.columns), kind="mergesort")
    return df.reset_index(drop=True)


# The driver grades hash-exact at sf0.01; local CI must cover BOTH the fast
# iteration scale and the graded scale so data-dependent divergences
# (rounding ties, regex edge cases) cannot pass locally and fail grading.
SF_DIRS = ["/root/testdata/sf0.001", "/root/testdata/sf0.01"]


@pytest.fixture(scope="module", params=SF_DIRS, ids=["sf0.001", "sf0.01"])
def parity_sf(request):
    return request.param


@pytest.fixture(scope="module")
def con(parity_sf):
    c = duckdb.connect()
    for t in TABLES:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{parity_sf}/{t}.parquet')")
    return c


def test_oracle_keys_subset_of_queries():
    assert set(ORACLES) <= set(QUERIES)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_query_matches_oracle(name, parity_sf, con):
    got = _canon(QUERIES[name](parity_sf))
    want = _canon(con.sql(ORACLES[name]).df())
    assert list(got.columns) == list(want.columns), (
        f"{name}: columns {list(got.columns)} != {list(want.columns)}"
    )
    assert len(got) == len(want), f"{name}: {len(got)} rows != {len(want)}"
    pd.testing.assert_frame_equal(got, want, check_exact=True, check_dtype=False)


@pytest.mark.parametrize("name", sorted(set(QUERIES) - set(ORACLES)))
def test_rows_only_queries_run(name, sf_dir):
    res = QUERIES[name](sf_dir)
    df = res.to_pandas() if not isinstance(res, pd.DataFrame) else res
    assert df is not None
    assert len(df) >= 0
