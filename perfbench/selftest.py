"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root (about four minutes). It
checks that ``BENCHMARK.json`` names the metrics ``spec.py`` reports,
then runs the flagship workload five times:

* a delay planted in ``drift.score_features`` (called once per pass)
  must raise that layer's median self time and its per-layer metric
  ``stages.drift.score_s`` by most of the delay, and the end-to-end
  ``wall_s`` by at least half of it (run-to-run noise on a shared VM
  is a few tenths of a second);
* a wrong output planted in the ``drift`` operation must fail more
  operations than the clean run and lower ``ok_ops_ratio``.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import spec
from common import ROOT, WORK
from tracing import self_times

LAYER = "drift.score_features"
DELAY_S = 1.0
SECONDS = "8"


def bench(*extra: str, trace: int = 0) -> tuple[dict, str | None]:
    """One benchmark run; returns its result and its new trace file."""
    traces = os.path.join(WORK, "traces")
    before = set(os.listdir(traces)) if os.path.isdir(traces) else set()
    p = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "flagship", "--seed", "3", "--seconds", SECONDS,
         "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    new = set(os.listdir(traces)) - before if trace else set()
    return result, (os.path.join(traces, new.pop()) if new else None)


def layer_self_s(trace_path: str) -> float:
    with open(trace_path) as f:
        spans = [json.loads(line) for line in f]
    own = self_times(spans)
    return statistics.median(own[s["id"]] for s in spans if s["name"] == LAYER)


def value(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


def main() -> int:
    failures = []

    def check(cond: bool, msg: str) -> None:
        print(("ok   " if cond else "FAIL ") + msg, flush=True)
        if not cond:
            failures.append(msg)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    check([m["name"] for m in declared["end_to_end"]] == [m[0] for m in spec.END_TO_END]
          and [m["name"] for m in declared["per_layer"]] == [m[0] for m in spec.PER_LAYER]
          and [w["name"] for w in declared["workloads"]] == list(spec.WORKLOADS),
          "BENCHMARK.json lists the workloads and metrics spec.py reports")

    plant = ("--plant-delay", f"{LAYER}={DELAY_S}")
    base, _ = bench()
    slow, _ = bench(*plant)
    base_t, base_trace = bench(trace=1)
    slow_t, slow_trace = bench(*plant, trace=1)
    wrong, _ = bench("--plant-wrong", "drift")

    d_wall = value(slow, "wall_s") - value(base, "wall_s")
    check(d_wall > 0.5 * DELAY_S, f"planted delay shows in wall_s (+{d_wall:.3f}s)")
    d_layer = value(slow_t, "stages.drift.score_s") - value(base_t, "stages.drift.score_s")
    check(d_layer > 0.8 * DELAY_S,
          f"planted delay shows in stages.drift.score_s (+{d_layer:.3f}s)")
    d_self = layer_self_s(slow_trace) - layer_self_s(base_trace)
    check(d_self > 0.8 * DELAY_S, f"planted delay shows in {LAYER} self time (+{d_self:.3f}s)")
    check(not wrong["correct"] and wrong["failed"] > base["failed"]
          and value(wrong, "ok_ops_ratio") < value(base, "ok_ops_ratio"),
          f"planted wrong output fails ops ({wrong['failed']}/{wrong['attempted']} failed, "
          f"{base['failed']}/{base['attempted']} in the clean run)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
