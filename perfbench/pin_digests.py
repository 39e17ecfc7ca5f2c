"""Pin the result digests of the query mix's rows-only queries.

    python3 perfbench/pin_digests.py FIRST_SEED LAST_SEED

Run from the repository root, on the engine version whose answers are
the reference. For every seed in the range it generates the query
tables at ``spec.QUERY_SF``, runs the queries that have no SQL oracle
and writes their digests into ``perfbench/pinned_digests.json``
(existing entries are kept).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from common import ROOT, log

sys.path.insert(0, ROOT)
os.environ["PYTHONPATH"] = ROOT


def main(first: int, last: int) -> None:
    import ray

    import queries_wl as q
    import spec
    import tables
    from run import ray_init
    from tools.check_oracle import to_pandas

    pinned = q.load_pinned()
    ray_init()
    try:
        fns = q.entry.queries()
        for seed in range(first, last + 1):
            with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_work")) as d:
                tables.write_tables(d, seed, spec.QUERY_SF)
                for name in q.ROWS_ONLY:
                    pinned[f"{spec.QUERY_SF}/{seed}/{name}"] = q.digest(to_pandas(fns[name](d)))
            log(f"pinned seed {seed}")
    finally:
        ray.shutdown()
    with open(q.PINNED_PATH, "w") as f:
        json.dump(dict(sorted(pinned.items())), f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
