"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. One run starts a local Ray with
``spec.NUM_CPUS`` logical CPUs, makes its inputs from ``--seed``,
issues operations one at a time from one thread (a closed loop with one
client) for ``--seconds``, checks every output, and prints one JSON
object as the last line of standard output: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` records spans, writes them under
``.bench_work/traces/`` and reports the per-layer metrics.

``--plant-delay NAME=S`` sleeps S seconds inside the wrapped layer NAME
and ``--plant-wrong OP`` corrupts the output of operations named OP;
``perfbench/selftest.py`` uses both to show that the benchmark sees a
slow layer and a wrong answer.
"""

from __future__ import annotations

import argparse
import importlib
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import time
from typing import Any

import spec
from common import WORK, ROOT, Bench, RssSampler, log


def ray_init() -> None:
    import ray
    from ray.data import DataContext

    kwargs: dict[str, Any] = {}
    tmp = os.path.join(WORK, "ray")
    # Ray puts AF_UNIX sockets under the session dir; their paths must stay
    # below 108 bytes, else Ray keeps its default temp dir
    if len(tmp + "/session_2026-01-01_00-00-00_000000_9999999/sockets/plasma_store") < 108:
        os.makedirs(tmp, exist_ok=True)
        kwargs["_temp_dir"] = tmp
    ray.init(address="local", num_cpus=spec.NUM_CPUS, include_dashboard=False,
             object_store_memory=spec.OBJECT_STORE_BYTES, log_to_driver=False,
             logging_level="ERROR", **kwargs)
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def _warm(batch: Any) -> Any:
    # workers import the engine once; later tasks reuse them
    import aumos_drift_detector_ray.pipelines.flagship  # noqa: F401
    return batch


def setup(workload_module: str) -> tuple[float, Any]:
    """Set up ``spec.SETUP_REPEATS`` times: Ray start plus one task per
    worker that imports the engine. Returns the median and the imported
    workload module; Ray stays up after the last set-up. The import time
    of this process (engine and workload module) is added once."""
    t0 = time.perf_counter()
    import ray
    import ray.data
    wl = importlib.import_module(workload_module)
    import_s = time.perf_counter() - t0
    cycles = []
    for i in range(spec.SETUP_REPEATS):
        t = time.perf_counter()
        ray_init()
        (ray.data.range(spec.NUM_CPUS * 2, override_num_blocks=spec.NUM_CPUS)
         .map_batches(_warm).materialize())
        cycles.append(time.perf_counter() - t)
        if i < spec.SETUP_REPEATS - 1:
            ray.shutdown()
    log(f"setup: import {import_s:.3f}s, ray+warm-up {['%.3f' % c for c in cycles]}")
    return import_s + statistics.median(cycles), wl


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--plant-delay", action="append", default=[],
                   type=lambda s: (s.split("=")[0], float(s.split("=")[1])),
                   metavar="NAME=SECONDS")
    p.add_argument("--plant-wrong", action="append", default=[], metavar="OP")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # a terminated run still stops the Ray processes it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    # fail fast, before any process starts, when the engine is absent
    import aumos_drift_detector_ray  # noqa: F401

    bench = Bench(args)
    os.makedirs(bench.work, exist_ok=True)
    sampler = RssSampler()
    sampler.start()
    import ray
    try:
        setup_s, wl = setup("queries_wl" if args.workload == "queries"
                            else "flagship_wl")
        metrics = wl.run(bench)
    finally:
        bench.tracer.unwrap_all()
        peak_mb = sampler.stop()
        ray.shutdown()
        if bench.traced:
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            bench.tracer.write(os.path.join(WORK, "traces", bench.run_id + ".jsonl"))
        shutil.rmtree(bench.work, ignore_errors=True)

    attempted = len(bench.ops)
    failed = sum(1 for o in bench.ops if not o["ok"])
    if bench.traced:
        values = {name: 0.0 for name, _, _ in spec.PER_LAYER}
        values.update(metrics)
        units = {name: unit for name, unit, _ in spec.PER_LAYER}
    else:
        values = dict(metrics, setup_s=setup_s, peak_rss_mb=peak_mb,
                      ok_ops_ratio=(attempted - failed) / max(1, attempted))
        units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
    out = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
