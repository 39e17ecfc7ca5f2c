"""Seeded generator for the ten driver tables the query workload reads.

The tables follow the column names, types, value domains and
distributions of the reference tables of ``TESTDATA.md`` (a TPC-H-like
star schema plus ``events``, ``documents`` and ``embeddings``): row
counts per scale factor, key and user cardinalities, uniform extended
prices, exponential event values, 10-99 token documents of which 5% are
near-duplicates (another document plus the token ``dup``) and none
quoted, and unclustered unit embeddings with random labels.
``perfbench/METRICS.md`` records the comparison. The same ``(seed, sf)``
always writes the same bytes.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

TABLES = ("region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings")

REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
PART_TYPES = ("ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD")
PART_WORDS = (("blue", "cold", "hot", "large", "new", "old", "red", "small"),
              ("anvil", "bolt", "gear", "gizmo", "plate", "ring", "rod", "widget"))
PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
EVENT_TYPES = ("click", "error", "purchase", "signup", "view")
VOCAB = ("a", "agg", "batch", "big", "column", "customer", "data", "fast",
         "filter", "group", "hash", "join", "key", "line", "merge", "order",
         "part", "query", "row", "scan", "slow", "small", "sort", "spark",
         "stream", "table", "the", "value", "vector", "window")
LANGS = ("en", "zh", "es", "fr", "de")
LANG_P = (0.4, 0.15, 0.15, 0.15, 0.15)
EMB_DIM = 64

_US_PER_DAY = 86_400_000_000
_EPOCH_1995 = np.datetime64("1995-01-01", "us").astype(np.int64)
_EPOCH_2024 = np.datetime64("2024-01-01", "us").astype(np.int64)


def row_counts(sf: float) -> dict[str, int]:
    """Rows per table at scale factor ``sf``."""
    return {
        "region": 5,
        "nation": 25,
        "customer": int(150_000 * sf),
        "supplier": int(10_000 * sf),
        "part": int(200_000 * sf),
        "orders": int(1_500_000 * sf),
        "lineitem": int(6_000_000 * sf),
        "events": int(1_000_000 * sf),
        "documents": max(500, int(50_000 * sf)),
        "embeddings": max(500, int(20_000 * sf)),
    }


def _money(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, n), 2)


def _dates(rng: np.random.Generator, n: int, lo: int, hi: int) -> pa.Array:
    """Dates on days ``[lo, hi]`` after 1995-01-01."""
    us = _EPOCH_1995 + rng.integers(lo, hi + 1, n) * _US_PER_DAY
    return pa.array(us.astype("datetime64[us]"), pa.timestamp("us"))


def _choice(rng: np.random.Generator, values: tuple[str, ...], n: int) -> pa.Array:
    return pa.array(np.asarray(values, dtype=object)[rng.integers(0, len(values), n)],
                    pa.string())


def _documents(rng: np.random.Generator, n: int) -> pa.Table:
    """Token soup over a small vocabulary. One document in 20 is then
    replaced by another one with the token ``dup`` appended, so the
    dedup queries have near-duplicate pairs to find (and, where two
    replacements copy the same document, exact duplicates)."""
    vocab = np.asarray(VOCAB, dtype=object)
    base = [" ".join(vocab[rng.integers(0, len(vocab), int(rng.integers(10, 100)))])
            for _ in range(n)]
    text = list(base)
    for i in rng.choice(n, n // 20, replace=False):
        src = (int(i) + int(rng.integers(1, n))) % n
        text[i] = base[src] + " dup"
    return pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "text": pa.array(text, pa.string()),
        "lang": pa.array(np.asarray(LANGS, dtype=object)[rng.choice(len(LANGS), n, p=LANG_P)],
                         pa.string()),
        "source": pa.array([f"src{i % 20}" for i in range(n)], pa.string()),
        "n_chars": pa.array([len(t) for t in text], pa.int64()),
    })


def _embeddings(rng: np.random.Generator, n: int) -> pa.Table:
    vecs = rng.normal(0.0, 1.0, (n, EMB_DIM))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    flat = pa.array(vecs.astype(np.float32).ravel(), pa.float32())
    offsets = pa.array(np.arange(0, n * EMB_DIM + 1, EMB_DIM, dtype=np.int32))
    return pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.ListArray.from_arrays(offsets, flat),
        "label": pa.array(rng.integers(0, 10, n).astype(np.int32), pa.int32()),
    })


def make_tables(seed: int, sf: float) -> dict[str, pa.Table]:
    """All ten tables for ``(seed, sf)``; each table draws from its own
    child stream, so table sizes do not shift one another's contents."""
    n = row_counts(sf)
    rngs = dict(zip(TABLES, np.random.default_rng(seed).spawn(len(TABLES))))
    out: dict[str, pa.Table] = {}
    out["region"] = pa.table({
        "r_regionkey": pa.array(np.arange(5, dtype=np.int32)),
        "r_name": pa.array(REGIONS, pa.string()),
    })
    out["nation"] = pa.table({
        "n_nationkey": pa.array(np.arange(25, dtype=np.int32)),
        "n_name": pa.array([f"NATION_{i}" for i in range(25)], pa.string()),
        "n_regionkey": pa.array(np.arange(25, dtype=np.int32) % 5),
    })
    r, k = rngs["customer"], n["customer"]
    out["customer"] = pa.table({
        "c_custkey": pa.array(np.arange(k), pa.int64()),
        "c_name": pa.array([f"Customer#{i:09d}" for i in range(k)], pa.string()),
        "c_nationkey": pa.array(r.integers(0, 25, k).astype(np.int32)),
        "c_acctbal": pa.array(_money(r, -999.99, 9999.99, k)),
        "c_mktsegment": _choice(r, SEGMENTS, k),
    })
    r, k = rngs["supplier"], n["supplier"]
    out["supplier"] = pa.table({
        "s_suppkey": pa.array(np.arange(k), pa.int64()),
        "s_name": pa.array([f"Supplier#{i:09d}" for i in range(k)], pa.string()),
        "s_nationkey": pa.array(r.integers(0, 25, k).astype(np.int32)),
        "s_acctbal": pa.array(_money(r, -999.99, 9999.99, k)),
    })
    r, k = rngs["part"], n["part"]
    adj, noun = PART_WORDS
    out["part"] = pa.table({
        "p_partkey": pa.array(np.arange(k), pa.int64()),
        "p_name": pa.array([f"{adj[a]} {noun[b]}" for a, b in
                            zip(r.integers(0, 8, k), r.integers(0, 8, k))], pa.string()),
        "p_brand": pa.array([f"Brand#{b}" for b in r.integers(1, 26, k)], pa.string()),
        "p_type": _choice(r, PART_TYPES, k),
        "p_size": pa.array(r.integers(1, 51, k).astype(np.int32)),
        "p_retailprice": pa.array(900.0 + (np.arange(k) % 1000) / 10.0),
    })
    r, k = rngs["orders"], n["orders"]
    out["orders"] = pa.table({
        "o_orderkey": pa.array(np.arange(k), pa.int64()),
        "o_custkey": pa.array(r.integers(0, n["customer"], k), pa.int64()),
        "o_orderstatus": _choice(r, ("F", "O", "P"), k),
        "o_totalprice": pa.array(_money(r, 1000.0, 500_000.0, k)),
        "o_orderdate": _dates(r, k, 0, 2404),
        "o_orderpriority": _choice(r, PRIORITIES, k),
    })
    r, k = rngs["lineitem"], n["lineitem"]
    out["lineitem"] = pa.table({
        "l_orderkey": pa.array(r.integers(0, n["orders"], k), pa.int64()),
        "l_partkey": pa.array(r.integers(0, n["part"], k), pa.int64()),
        "l_suppkey": pa.array(r.integers(0, n["supplier"], k), pa.int64()),
        "l_linenumber": pa.array(r.integers(1, 8, k).astype(np.int32)),
        "l_quantity": pa.array(r.integers(1, 51, k).astype(np.float64)),
        "l_extendedprice": pa.array(_money(r, 900.0, 105_000.0, k)),
        "l_discount": pa.array(r.integers(0, 11, k) / 100.0),
        "l_tax": pa.array(r.integers(0, 9, k) / 100.0),
        "l_returnflag": _choice(r, ("A", "N", "R"), k),
        "l_linestatus": _choice(r, ("F", "O"), k),
        "l_shipdate": _dates(r, k, 1, 2499),
    })
    r, k = rngs["events"], n["events"]
    ts = np.sort(_EPOCH_2024 + r.integers(0, 30 * _US_PER_DAY, k))
    out["events"] = pa.table({
        "event_id": pa.array(np.arange(k), pa.int64()),
        "ts": pa.array(ts.astype("datetime64[us]"), pa.timestamp("us")),
        "user_id": pa.array(r.integers(0, int(15_000 * sf), k), pa.int64()),
        "event_type": _choice(r, EVENT_TYPES, k),
        "value": pa.array(np.maximum(np.round(r.exponential(50.0, k), 2), 0.01)),
        "props": pa.array([f'{{"k": {v}}}' for v in r.integers(0, 100, k)], pa.string()),
    })
    out["documents"] = _documents(rngs["documents"], n["documents"])
    out["embeddings"] = _embeddings(rngs["embeddings"], n["embeddings"])
    return out


def write_tables(out_dir: str, seed: int, sf: float) -> dict[str, int]:
    """Write one parquet file per table into ``out_dir``; returns the
    row count of each table. Like the reference files, each carries the
    pandas schema metadata, which the engine's reader has to strip."""
    os.makedirs(out_dir, exist_ok=True)
    counts = {}
    for name, tbl in make_tables(seed, sf).items():
        meta = pa.Table.from_pandas(tbl.to_pandas(), preserve_index=False).schema.metadata
        pq.write_table(tbl.replace_schema_metadata(meta),
                       os.path.join(out_dir, f"{name}.parquet"))
        counts[name] = tbl.num_rows
    return counts
