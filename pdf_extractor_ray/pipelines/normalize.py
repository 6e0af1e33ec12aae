"""Declarative multi-source normalization — the reference's flagship stage.

Re-expresses ``TransactionNormalizer.normalize_transactions`` (/root/
reference/dataextractai/agents/transaction_normalizer.py:115-379) and the
``TRANSFORMATION_MAPS`` projection system (utils/config.py:302-417,
data_transformation.py:16-28) Ray-Data-first:

- each SOURCE declares a transformation map: target column → source column
  name or a vectorized Arrow expression (the reference uses row lambdas;
  here the map values are batch-level callables, so projection stays
  vectorized),
- per-source normalization (sign convention, ISO dates) happens inside one
  ``map_batches`` per source,
- a strict validity predicate diverts failing rows to a PROBLEMS dataset
  with machine-readable reasons (never silently dropped —
  transaction_normalizer.py:33-39, 354-368),
- valid streams union into one canonical table.

Canonical schema (the reference's core output contract, config.py:278-285):
``transaction_date:string(ISO), description:string, amount:float64,
source:string``.
"""

from __future__ import annotations

from collections.abc import Callable

import pyarrow as pa
import pyarrow.compute as pc

CANONICAL_COLUMNS = ["transaction_date", "description", "amount", "source"]

# A transformation map: target column → batch-level expression
TransformMap = dict[str, Callable[[pa.Table], pa.Array]]


def orders_map() -> TransformMap:
    """'Source A' — statement-style: date column + positive totals that are
    charges by convention (sign flip, data_transformation.py:31-83)."""
    return {
        "transaction_date": lambda t: pc.strftime(t.column("o_orderdate"), format="%Y-%m-%d"),
        "description": lambda t: pc.binary_join_element_wise(
            pa.scalar("order"), pc.cast(t.column("o_orderkey"), pa.string()),
            pc.cast(t.column("o_orderpriority"), pa.string()), " ",
        ),
        "amount": lambda t: pc.negate(t.column("o_totalprice")),  # charges < 0
        "source": lambda t: pa.array(["orders"] * t.num_rows, type=pa.string()),
    }


def events_map() -> TransformMap:
    """'Source B' — ledger-style: timestamps + type-keyed sign convention."""
    from ..functions.amounts import normalize_sign

    return {
        "transaction_date": lambda t: pc.strftime(t.column("ts"), format="%Y-%m-%d"),
        "description": lambda t: pc.binary_join_element_wise(
            pa.scalar("event"), t.column("event_type"), " "
        ),
        "amount": lambda t: normalize_sign(
            t.column("value"), t.column("event_type"), {"click", "view"}
        ),
        "source": lambda t: pa.array(["events"] * t.num_rows, type=pa.string()),
    }


def apply_transform_map(batch: pa.Table, tmap: TransformMap) -> pa.Table:
    return pa.table({target: expr(batch) for target, expr in tmap.items()})


def _validity_reason(t: pa.Table) -> pa.Array:
    """Strict validity (transaction_normalizer.py:41-65): non-null parseable
    date, non-empty description, non-null nonzero amount."""
    bad_date = pc.or_(
        pc.is_null(t.column("transaction_date")),
        pc.invert(
            pc.match_substring_regex(
                pc.fill_null(t.column("transaction_date"), ""), r"^\d{4}-\d{2}-\d{2}$"
            )
        ),
    )
    bad_desc = pc.or_(
        pc.is_null(t.column("description")),
        pc.equal(pc.utf8_trim_whitespace(pc.fill_null(t.column("description"), "")), ""),
    )
    # fill_null BEFORE equal: pc.or_ is non-Kleene, so or_(True, null) is
    # null and a null-amount row would slip through validation as valid
    bad_amount = pc.or_(
        pc.is_null(t.column("amount")),
        pc.equal(pc.fill_null(t.column("amount"), 0.0), 0.0),
    )
    below_min = pc.less(pc.abs(pc.fill_null(t.column("amount"), 1.0)), 0.05)
    return pc.if_else(
        bad_date,
        pa.scalar("invalid_date"),
        pc.if_else(
            bad_desc,
            pa.scalar("empty_description"),
            pc.if_else(
                bad_amount,
                pa.scalar("zero_amount"),
                pc.if_else(
                    below_min, pa.scalar("below_minimum"), pa.scalar(None, pa.string())
                ),
            ),
        ),
    )


def _split(batch: pa.Table) -> pa.Table:
    reason = _validity_reason(batch)
    return batch.append_column("problem_reason", reason)


def _normalize_source(sf_dir: str, table: str, columns: list[str], tmap: TransformMap):
    from ..ioutil import read_table

    ds = read_table(sf_dir, table, columns)
    return ds.map_batches(
        lambda t: _split(apply_transform_map(t, tmap)),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )


def _all_sources(sf_dir: str):
    a = _normalize_source(
        sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority", "o_totalprice"],
        orders_map(),
    )
    b = _normalize_source(
        sf_dir, "events", ["ts", "event_type", "value"], events_map()
    )
    return a.union(b)


def normalize_union(sf_dir: str):
    """Valid rows only, canonical schema — the `consolidated_core_output`
    analog (one logical Dataset instead of one CSV per source + merge)."""
    return _all_sources(sf_dir).map_batches(
        lambda t: t.filter(pc.is_null(t.column("problem_reason"))).select(CANONICAL_COLUMNS),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )


def normalize_problems(sf_dir: str):
    """Diverted problem rows rolled up by (source, reason) — the diagnostics
    audit the reference prints in --diagnostics mode (cli.py:115-172)."""
    from .buckets import combine

    bad = _all_sources(sf_dir).map_batches(
        lambda t: t.filter(pc.is_valid(t.column("problem_reason"))).select(["source", "problem_reason"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return combine(bad, ["source", "problem_reason"], {"n_rows": (None, "count")})
