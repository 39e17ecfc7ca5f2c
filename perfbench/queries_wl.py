"""Query-mix workload: the driver queries of ``spec.QUERY_MIX`` in a
fixed order over tables generated from the run seed.

Each query is one operation. Its result is compared with its
``oracle_sql()`` run in DuckDB (computed once, not timed), after the
canonicalisation of ``tools/check_oracle.py``. The two queries without
an oracle are compared with a digest pinned from the unchanged engine
(``pinned_digests.json``) when the seed has one, and otherwise checked
against invariants of the generated input.

The engine caches some results by table path, so every pass reads the
tables through a path of its own: each pass is as cold as a fresh
process.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from typing import Any, Callable

import duckdb
import pandas as pd
import pyarrow.parquet as pq

from ray.data._internal.plan import ExecutionPlan

import __ray_entry__ as entry
from tools.check_oracle import canon, to_pandas

import spec
import tables
from common import Bench, expect, log

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(HERE, "pinned_digests.json")
ROWS_ONLY = ("minhash_dedup_docs", "concept_adwin_events")


def digest(df: pd.DataFrame) -> str:
    c = canon(df)
    return hashlib.sha256((",".join(c.columns) + "\n" + c.to_csv(index=False))
                          .encode()).hexdigest()


def load_pinned() -> dict[str, str]:
    """``"<sf>/<seed>/<query>" -> digest``."""
    with open(PINNED_PATH) as f:
        return json.load(f)


class Inputs:
    """One generated table set and everything the checks need for it."""

    def __init__(self, path: str, seed: int, sf: float) -> None:
        t = time.perf_counter()
        self.path, self.seed, self.sf = path, seed, sf
        self.counts = tables.write_tables(path, seed, sf)
        con = duckdb.connect()
        for name in tables.TABLES:
            con.execute(f"CREATE VIEW {name} AS SELECT * FROM "
                        f"read_parquet('{os.path.join(path, name)}.parquet')")
        sqls = entry.oracle_sql()
        self.oracles = {q: canon(con.execute(sqls[q]).fetchdf())
                        for q in spec.QUERY_MIX if q in sqls}
        con.close()
        docs = pq.read_table(os.path.join(path, "documents.parquet")).to_pandas()
        first: dict[str, int] = {}
        self.dup_pairs = set()
        for i, text in zip(docs.doc_id, docs.text):
            if text in first:
                self.dup_pairs.add((first[text], int(i)))
            else:
                first[text] = int(i)
        log(f"query inputs sf={sf}: {self.counts['lineitem']} lineitem rows, "
            f"oracles in {time.perf_counter() - t:.2f}s (not timed)")

    def check(self, query: str, pinned: dict[str, str]) -> Callable[[pd.DataFrame], None]:
        if query in self.oracles:
            want = self.oracles[query]

            def check_oracle(df: pd.DataFrame) -> None:
                got = canon(df)
                expect(list(got.columns) == list(want.columns),
                       f"columns {list(got.columns)} != {list(want.columns)}")
                expect(len(got) == len(want), f"{len(got)} rows != {len(want)}")
                expect(got.equals(want), "values differ from the DuckDB oracle")
            return check_oracle
        key = f"{self.sf}/{self.seed}/{query}"
        if key in pinned:
            def check_digest(df: pd.DataFrame) -> None:
                expect(digest(df) == pinned[key], "digest differs from the pinned one")
            return check_digest
        if query == "minhash_dedup_docs":
            return self._check_minhash
        return self._check_adwin

    def _check_minhash(self, df: pd.DataFrame) -> None:
        expect(set(df.columns) == {"id_a", "id_b", "jaccard"}, f"columns {list(df.columns)}")
        expect(bool((df.id_a < df.id_b).all()), "pair ids not ordered")
        expect(bool(df.jaccard.between(0.5, 1.0).all()), "jaccard out of [0.5, 1]")
        found = {(int(a), int(b)) for a, b, j in zip(df.id_a, df.id_b, df.jaccard) if j == 1.0}
        missing = self.dup_pairs - found
        expect(not missing, f"exact duplicate pairs not found: {sorted(missing)[:5]}")

    def _check_adwin(self, df: pd.DataFrame) -> None:
        expect(list(df.columns) == ["detector", "seq"], f"columns {list(df.columns)}")
        expect(bool((df.detector == "adwin").all()), "detector name")
        seq = df.seq.to_numpy()
        expect(bool((seq[1:] > seq[:-1]).all()), "detections not in stream order")
        expect(len(seq) == 0 or (0 <= seq[0] and seq[-1] < self.counts["events"]),
               "detection outside the stream")


def _drop_last_row(df: pd.DataFrame) -> pd.DataFrame:
    return df.iloc[:-1]


def one_pass(bench: Bench, inputs: Inputs, k: int,
             pinned: dict[str, str]) -> dict[str, Any]:
    """Run the mix once, in order, reading through a fresh path."""
    path = os.path.join(bench.work, f"pass{k}")
    os.symlink(inputs.path, path)
    qs = entry.queries()
    start = time.perf_counter()
    times: dict[str, tuple[float, float, float]] = {}
    done = True
    for q in spec.QUERY_MIX:
        lo = time.perf_counter()
        _, dt, completed = bench.op(q, lambda q=q: to_pandas(qs[q](path)),
                               inputs.check(q, pinned), _drop_last_row)
        times[q] = (dt, lo, time.perf_counter())
        done = done and completed
        if bench.past_deadline():
            done = False
            break
    wall = sum(t[0] for t in times.values())
    rows = sum(inputs.counts[spec.QUERY_MIX[q]] for q in times)
    return {"done": done, "wall": wall, "rows_per_s": rows / wall, "times": times,
            "start": start, "end": time.perf_counter()}


def run(bench: Bench) -> dict[str, float]:
    pinned = load_pinned()
    base = Inputs(os.path.join(bench.work, "tables"), bench.seed, spec.QUERY_SF)
    t0 = time.perf_counter()
    passes = [one_pass(bench, base, 0, pinned)]
    # passes start until --seconds have gone by
    while (not bench.traced and not bench.past_deadline()
           and time.perf_counter() - t0 < bench.seconds):
        passes.append(one_pass(bench, base, len(passes), pinned))
    if bench.traced:
        # the first pass in a process pays cold-start costs: the overhead
        # compares the traced pass with a second, warm untraced one
        return traced_layers(bench, base, one_pass(bench, base, 1, pinned), pinned)
    good = [p for p in passes if p["done"]]
    if not good:
        raise RuntimeError("no query pass completed")
    walls = [p["wall"] for p in good]
    log(f"query passes: {len(passes)}, walls {['%.3f' % x for x in walls]}")
    return {
        "wall_s": statistics.median(walls),
        "rows_per_s": statistics.median(p["rows_per_s"] for p in good),
        "op_geomean_s": bench.op_geomean(),
    }


def traced_layers(bench: Bench, base: Inputs, untraced: dict[str, Any],
                  pinned: dict[str, str]) -> dict[str, float]:
    """Traced passes at the timed size and at ``spec.QUERY_SF_BIG``; per
    query, the line through the two (rows, seconds) points gives the
    fixed cost and the cost per input row."""
    t = bench.tracer
    t.enabled = True
    t.wrap_exclusive(ExecutionPlan, "execute", "ray_data.execute")
    t.wrap_iterator_method(ExecutionPlan, "execute_to_iterator", "ray_data.execute")
    small = one_pass(bench, base, 2, pinned)
    big_in = Inputs(os.path.join(bench.work, "tables_big"), bench.seed, spec.QUERY_SF_BIG)
    big = one_pass(bench, big_in, 3, pinned)
    execs = [s for s in t.spans if s["name"] == "ray_data.execute"]

    def in_window(lo: float, hi: float) -> list[dict[str, Any]]:
        return [s for s in execs if lo <= s["start"] <= hi]

    out: dict[str, float] = {}
    for q, table in spec.QUERY_MIX.items():
        if q not in big["times"] or q not in small["times"]:
            continue
        t_small, lo, hi = small["times"][q]
        t_big = big["times"][q][0]
        r_small, r_big = base.counts[table], big_in.counts[table]
        per_row = (t_big - t_small) / (r_big - r_small)
        out[f"queries.{q}.per_row_ns"] = per_row * 1e9
        out[f"queries.{q}.fixed_s"] = t_small - per_row * r_small
        out[f"queries.{q}.ray_jobs"] = float(len(in_window(lo, hi)))
    small_execs = in_window(small["start"], small["end"])
    out["ray_data.executions"] = float(len(small_execs))
    out["ray_data.exec_s"] = sum(s["end"] - s["start"] for s in small_execs)
    out["trace.overhead_s"] = small["wall"] - untraced["wall"]
    out["trace.spans"] = float(len(t.spans))
    return out
