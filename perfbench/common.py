"""Pieces shared by the benchmark's workloads: the run state, the
operation runner with its timeout and output check, and small
statistics helpers."""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
import threading
import time
import traceback
from typing import Any, Callable

import spec
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")


class CheckError(Exception):
    """An operation's output is wrong."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (q in [0, 1])."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


class RssSampler:
    """Peak summed resident memory of this process and its descendants
    (the Ray head processes and workers), sampled from /proc."""

    def __init__(self, interval_s: float = 0.25) -> None:
        self.interval_s = interval_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @staticmethod
    def _tree_rss_kb(root: int) -> int:
        children: dict[int, list[int]] = {}
        rss: dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
                with open(f"/proc/{entry}/status") as f:
                    kb = next((int(line.split()[1]) for line in f
                               if line.startswith("VmRSS:")), 0)
            except (OSError, ValueError, IndexError):
                continue
            pid = int(entry)
            children.setdefault(ppid, []).append(pid)
            rss[pid] = kb
        total, todo = 0, [root]
        while todo:
            pid = todo.pop()
            total += rss.get(pid, 0)
            todo.extend(children.get(pid, []))
        return total

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.peak_kb = max(self.peak_kb, self._tree_rss_kb(os.getpid()))

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> float:
        self._stop.set()
        self._thread.join(timeout=5)
        return self.peak_kb / 1024.0


class Bench:
    """State of one benchmark run: operations issued, their outcomes,
    the tracer, and the planted faults."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.run_id = f"{args.workload}-s{args.seed}-p{os.getpid()}"
        self.work = os.path.join(WORK, self.run_id)
        self.tracer = Tracer(self.run_id, enabled=self.traced)
        self.tracer.delays = dict(args.plant_delay)
        self.ops: list[dict[str, Any]] = []
        self.started = time.perf_counter()

    def past_deadline(self) -> bool:
        return time.perf_counter() - self.started > spec.RUN_DEADLINE_S

    def op(self, name: str, fn: Callable[[], Any],
           check: Callable[[Any], None] | None = None,
           corrupt: Callable[[Any], Any] | None = None) -> tuple[Any, float, bool]:
        """Run one operation in a worker thread with a timeout, then
        check its output. A timeout, an exception or a failed check
        counts the operation as failed; the run goes on. Returns the
        output, the seconds taken and whether the operation completed
        (returned an output, right or wrong): only completed operations
        are timed."""
        box: dict[str, Any] = {}

        def target() -> None:
            try:
                with self.tracer.op(name) as sp:
                    box["value"] = fn()
                box["seconds"] = sp.seconds
            except Exception as exc:  # the op's failure is recorded
                box["error"] = exc
                box["tb"] = traceback.format_exc()

        # the run must end in time even if every remaining op hangs
        timeout = min(spec.OP_TIMEOUT_S,
                      spec.HARD_DEADLINE_S - (time.perf_counter() - self.started))
        th = threading.Thread(target=target, name=f"op-{name}", daemon=True)
        if timeout > 0:
            th.start()
            th.join(timeout)
        rec: dict[str, Any] = {"name": name, "ok": False, "done": False,
                               "seconds": box.get("seconds", timeout)}
        value = box.get("value")
        if th.is_alive() or timeout <= 0:
            rec["error"] = f"timeout after {max(0.0, timeout):.0f}s"
        elif "error" in box:
            rec["error"] = repr(box["error"])
            log(box["tb"])
        else:
            rec["done"] = True
            if corrupt is not None and name in self.args.plant_wrong:
                value = corrupt(value)
            try:
                if check is not None:
                    check(value)
                rec["ok"] = True
            except Exception as exc:  # a wrong output may have any shape
                rec["error"] = f"check failed: {exc!r}"
        if not rec["ok"]:
            log(f"op {name} FAILED: {rec['error']}")
        self.ops.append(rec)
        return value, rec["seconds"], rec["done"]

    def op_geomean(self) -> float:
        """Geometric mean over operation names of each name's median
        latency (completed operations only)."""
        secs: dict[str, list[float]] = {}
        for o in self.ops:
            if o["done"]:
                secs.setdefault(o["name"], []).append(o["seconds"])
        medians = {name: statistics.median(v) for name, v in secs.items()}
        log("op medians: " + ", ".join(f"{k} {v:.3f}s x{len(secs[k])}"
                                       for k, v in medians.items()))
        return geomean(list(medians.values()))
