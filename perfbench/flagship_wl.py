"""Image-window workload: the flagship pipeline, with the production
window validated both with and without the decode certificate.

A flagship pass is five serial calls, each one operation:
``run_validation`` (reference window, certificate on),
``run_validation`` (production window, certificate on),
``run_validation`` (production window, certificate off),
``run_shuffle_checks`` and ``run_drift`` (both on the certified
outputs). Every pass writes to fresh output directories, so nothing
resumes.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import time
from dataclasses import dataclass
from typing import Any

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ray.data._internal.plan import ExecutionPlan

from aumos_drift_detector_ray import codecs, synth
from aumos_drift_detector_ray.functions import report
from aumos_drift_detector_ray.pipelines import flagship as F
from aumos_drift_detector_ray.stages import dedup as dedup_mod
from aumos_drift_detector_ray.stages import drift as drift_mod
from aumos_drift_detector_ray.stages import profile as prof_mod
from aumos_drift_detector_ray.stages import validate as val_mod
from aumos_drift_detector_ray.state import checkpoint as ckpt

import spec
from common import Bench, expect, log, quantile

N = spec.WINDOW_ROWS
N_SHARDS = -(-N // spec.ROWS_PER_SHARD)
MATRIX_COLS = ["partition_id", "check", "violations", "rows", "passed"]

# wrapped driver-side layers: span name -> (module, attribute)
LAYERS = {
    "flagship.run_validation": (F, "run_validation"),
    "flagship.run_shuffle_checks": (F, "run_shuffle_checks"),
    "flagship.run_drift": (F, "run_drift"),
    "dedup.uniqueness_violations": (dedup_mod, "uniqueness_violations"),
    "dedup.near_dup_pairs_hamming": (dedup_mod, "near_dup_pairs_hamming"),
    "checkpoint.load_merged_profiles": (ckpt, "load_merged_profiles"),
    "checkpoint.load_partition_profiles": (ckpt, "load_partition_profiles"),
    "profile.profile_dataset": (prof_mod, "profile_dataset"),
    "drift.score_features": (drift_mod, "score_features"),
    "drift.score_partition_profiles": (drift_mod, "score_partition_profiles"),
    "report.generate_html_report": (report, "generate_html_report"),
}
# per-layer metric -> the span names it sums per pass
SPAN_METRICS = {
    "pipelines.flagship.run_validation_s": ("flagship.run_validation",),
    "stages.dedup.shuffle_checks_s": ("flagship.run_shuffle_checks",),
    "stages.dedup.uniqueness_s": ("dedup.uniqueness_violations",),
    "stages.dedup.near_dup_s": ("dedup.near_dup_pairs_hamming",),
    "state.checkpoint.load_profiles_s": ("checkpoint.load_merged_profiles",
                                         "checkpoint.load_partition_profiles"),
    "stages.profile.hist_pass_s": ("profile.profile_dataset",),
    "stages.drift.score_s": ("drift.score_features",
                             "drift.score_partition_profiles"),
    "functions.report.html_s": ("report.generate_html_report",),
    "ray_data.exec_s": ("ray_data.execute",),
}


def _materialize(ds: Any) -> Any:
    # the wrapped stage returns a lazy Dataset: execute it inside the
    # stage's span so the span covers the work
    return ds.materialize()


def install_wrappers(bench: Bench) -> None:
    """Wrap every layer in LAYERS (and Ray Data plan execution). Delays
    planted with --plant-delay act through these wrappers, so they are
    installed in untraced runs too when a delay is planted; while the
    tracer is disabled they record nothing."""
    t = bench.tracer
    for name, (mod, attr) in LAYERS.items():
        finish = _materialize if name.startswith("dedup.") else None
        t.wrap(mod, attr, name, finish=finish)
    t.wrap_exclusive(ExecutionPlan, "execute", "ray_data.execute")
    t.wrap_iterator_method(ExecutionPlan, "execute_to_iterator", "ray_data.execute")


# ---------------------------------------------------------------------------
# inputs and output checks
# ---------------------------------------------------------------------------

@dataclass
class Windows:
    ref_in: str
    prod_in: str
    ref_cfg: F.FlagshipConfig
    prod_cfg: F.FlagshipConfig      # certificate on
    prod_nc_cfg: F.FlagshipConfig   # certificate off
    truth: list[str]


def make_windows(bench: Bench) -> Windows:
    """Synthesize the clean reference and the drifted production window
    (2% violations) from the run seed."""
    ref = synth.SynthConfig(seed=2 * bench.seed, run="ref")
    prod = synth.SynthConfig(seed=2 * bench.seed + 1, run="prod",
                             violation_rate=spec.PROD_VIOLATION_RATE, drift=True)

    def cfg(synth_cfg: synth.SynthConfig, cert: bool) -> F.FlagshipConfig:
        return F.FlagshipConfig(rows=N, rows_per_shard=spec.ROWS_PER_SHARD,
                                synth_cfg=synth_cfg, use_ref_truth=cert)

    w = Windows(
        ref_in=os.path.join(bench.work, "in_ref"),
        prod_in=os.path.join(bench.work, "in_prod"),
        ref_cfg=cfg(ref, True), prod_cfg=cfg(prod, True), prod_nc_cfg=cfg(prod, False),
        truth=[synth.expected_violation(prod.seed, i, prod) for i in range(N)],
    )
    t = time.perf_counter()
    F.synthesize_dataset(w.ref_in, N, spec.ROWS_PER_SHARD, ref)
    F.synthesize_dataset(w.prod_in, N, spec.ROWS_PER_SHARD, prod)
    log(f"inputs: 2 windows x {N} rows in {time.perf_counter() - t:.2f}s (not timed)")
    return w


def check_ref_matrix(m: pd.DataFrame) -> None:
    expect(set(m.partition_id) == set(range(N_SHARDS)), "ref matrix partitions")
    expect(bool(m.passed.all()), f"ref window failed checks: {m[~m.passed].to_dict('records')}")


def sorted_matrix(m: pd.DataFrame) -> pd.DataFrame:
    return m[MATRIX_COLS].sort_values(["partition_id", "check"]).reset_index(drop=True)


def prod_matrix_check(w: Windows, cert_matrix: pd.DataFrame | None = None):
    """Scalar check counts per partition equal the generator's violation
    oracle; for the no-cert validation, the matrix also equals
    ``cert_matrix``, the one the certified validation of the same pass
    returned (when it returned one)."""
    def check(m: pd.DataFrame) -> None:
        expect(set(m.partition_id) == set(range(N_SHARDS)), "prod matrix partitions")
        for name, code in (("not_null_caption", synth.V_NULL),
                           ("fmt_domain", synth.V_FMT),
                           ("referential", synth.V_REF)):
            for pid in range(N_SHARDS):
                lo = pid * spec.ROWS_PER_SHARD
                want = sum(1 for v in w.truth[lo:lo + spec.ROWS_PER_SHARD] if v == code)
                got = m[(m.partition_id == pid) & (m.check == name)].violations
                expect(len(got) == 1 and int(got.iloc[0]) == want,
                       f"{name} partition {pid}: {list(got)} != {want}")
        if cert_matrix is not None:
            expect(sorted_matrix(m).equals(sorted_matrix(cert_matrix)),
                   "cert and no-cert matrices differ")
    return check


def shuffle_check(w: Windows):
    n_dup = sum(1 for v in w.truth if v == synth.V_DUP)
    n_near = sum(1 for v in w.truth if v == synth.V_NEARDUP)

    def check(s: dict[str, int]) -> None:
        expect(s["duplicate_rows"] >= n_dup, f"dups {s} < {n_dup}")
        expect(s["near_dup_ids"] >= n_near, f"near dups {s} < {n_near}")
    return check


def check_drift(out: dict[str, Any]) -> None:
    s = {(x["feature"], x["test"]): float(x["score"]) for x in out["scores"]}
    expect(s[("w", "psi")] >= 0.2, f"psi(w) {s[('w', 'psi')]}")
    expect(s[("caption_len", "psi")] >= 0.2, f"psi(caption_len) {s[('caption_len', 'psi')]}")
    expect(s[("fmt", "chi2")] < 0.05, f"chi2(fmt) p {s[('fmt', 'chi2')]}")
    kinds = {e["event_type"] for e in out["events"]}
    expect(bool(out["alerts"]) and "drift.alert_raised" in kinds, "no drift alert raised")


def corrupt_matrix(m: pd.DataFrame) -> pd.DataFrame:
    m = m.copy()
    m.loc[m.index[0], "violations"] += 1
    m.loc[m.index[0], "passed"] = False
    return m


def corrupt_shuffle(s: dict[str, int]) -> dict[str, int]:
    return {k: 0 for k in s}


def corrupt_drift(out: dict[str, Any]) -> dict[str, Any]:
    scores = [dict(s, score=0.0) if s["test"] == "psi" else s for s in out["scores"]]
    return dict(out, scores=scores)


# ---------------------------------------------------------------------------
# flagship passes
# ---------------------------------------------------------------------------

def one_pass(bench: Bench, w: Windows, k: int, check_shuffle: Any) -> dict[str, Any]:
    ref_out = os.path.join(bench.work, f"pass{k}", "out_ref")
    prod_out = os.path.join(bench.work, f"pass{k}", "out_prod")
    prod_nc_out = os.path.join(bench.work, f"pass{k}", "out_prod_nocert")
    t0 = time.perf_counter()
    _, t_ref, done1 = bench.op(
        "validate_ref", lambda: F.run_validation(w.ref_in, ref_out, w.ref_cfg, resume=False),
        check_ref_matrix, corrupt_matrix)
    m_prod, t_prod, done2 = bench.op(
        "validate_prod", lambda: F.run_validation(w.prod_in, prod_out, w.prod_cfg, resume=False),
        prod_matrix_check(w), corrupt_matrix)
    _, t_nc, done_nc = bench.op(
        "validate_prod_nocert",
        lambda: F.run_validation(w.prod_in, prod_nc_out, w.prod_nc_cfg, resume=False),
        prod_matrix_check(w, m_prod if done2 else None), corrupt_matrix)
    shuf, t_shuf, done3 = bench.op(
        "shuffle_checks", lambda: F.run_shuffle_checks(prod_out),
        check_shuffle, corrupt_shuffle)
    _, t_drift, done4 = bench.op(
        "drift", lambda: F.run_drift(ref_out, prod_out, run_id=bench.run_id),
        check_drift, corrupt_drift)
    return {
        "done": done1 and done2 and done_nc and done3 and done4,
        "start": t0, "end": time.perf_counter(),
        "wall": t_ref + t_prod + t_nc + t_shuf + t_drift,
        "rows_per_s": 3 * N / (t_ref + t_prod + t_nc + t_shuf),
        "dirs": (ref_out, prod_out, prod_nc_out),
        "near_dup_ids": shuf["near_dup_ids"] if done3 else 0,
    }


def run(bench: Bench) -> dict[str, float]:
    w = make_windows(bench)
    check_shuffle = shuffle_check(w)
    if bench.traced or bench.tracer.delays:
        install_wrappers(bench)
    passes: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    untraced_until = bench.seconds / 2 if bench.traced else bench.seconds
    t0 = time.perf_counter()
    bench.tracer.enabled = False
    while not passes or time.perf_counter() - t0 < untraced_until:
        passes.append(one_pass(bench, w, len(passes), check_shuffle))
        if bench.past_deadline():
            break
    if bench.traced:
        bench.tracer.enabled = True
        t1 = time.perf_counter()
        while not traced or time.perf_counter() - t1 < bench.seconds / 2:
            p = one_pass(bench, w, len(passes) + len(traced), check_shuffle)
            p["stats"] = output_stats(p["dirs"])
            traced.append(p)
            if bench.past_deadline():
                break
        return flagship_layers(bench, w, passes, traced)
    good = [p for p in passes if p["done"]]
    if not good:
        raise RuntimeError("no flagship pass completed")
    walls = [p["wall"] for p in good]
    log(f"flagship passes: {len(passes)}, walls {['%.3f' % x for x in walls]}")
    return {
        "wall_s": statistics.median(walls),
        "rows_per_s": statistics.median(p["rows_per_s"] for p in good),
        "op_geomean_s": bench.op_geomean(),
    }


def output_stats(dirs: tuple[str, ...]) -> dict[str, Any]:
    """Files and bytes a pass wrote, and its partitions' wall times from
    the lineage records."""
    files, size, walls = 0, 0, []
    for d in dirs:
        for root, _, names in os.walk(d):
            for n in names:
                files += 1
                size += os.path.getsize(os.path.join(root, n))
        for path in glob.glob(os.path.join(d, "lineage", "shard=*.json")):
            with open(path) as f:
                walls.append(float(json.load(f)["wall_time_s"]))
    return {"files": files, "bytes": size, "partition_walls": walls}


def layer_sums(spans: list[dict[str, Any]], passes: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer busy seconds (and Ray Data execution count) of each
    pass, from the spans that started inside it; median over passes."""
    rows = []
    for p in passes:
        inside = [s for s in spans if p["start"] <= s["start"] <= p["end"]]
        row = {metric: sum(s["end"] - s["start"] for s in inside if s["name"] in names)
               for metric, names in SPAN_METRICS.items()}
        row["ray_data.executions"] = float(sum(1 for s in inside
                                               if s["name"] == "ray_data.execute"))
        rows.append(row)
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def flagship_layers(bench: Bench, w: Windows, untraced: list[dict[str, Any]],
                    traced: list[dict[str, Any]]) -> dict[str, float]:
    out = layer_sums(bench.tracer.spans, traced)
    replay = replay_shards(bench, w)
    # the validation spans minus each validation's rows at its replayed
    # cost, spread over the task slots that run shards in parallel
    kernel_s = N * sum(replay.pop("kernel_s_per_row")) / spec.NUM_CPUS
    out.update(replay)
    out["pipelines.flagship.wait_s"] = out["pipelines.flagship.run_validation_s"] - kernel_s
    walls = [x for p in traced for x in p["stats"]["partition_walls"]]
    out["pipelines.flagship.partition_wall_p50_s"] = quantile(walls, 0.5)
    out["pipelines.flagship.partition_wall_p99_s"] = quantile(walls, 0.99)
    out["state.checkpoint.files_written"] = statistics.median(
        p["stats"]["files"] for p in traced)
    out["state.checkpoint.bytes_per_row"] = statistics.median(
        p["stats"]["bytes"] for p in traced) / (3 * N)
    out["stages.dedup.near_dup_ids"] = statistics.median(p["near_dup_ids"] for p in traced)
    out["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                               - statistics.median(p["wall"] for p in untraced))
    out["trace.spans"] = float(len(bench.tracer.spans))
    return out


# replay span name -> the per-row metric it feeds
REPLAY_STAGES = {
    "replay.read": "sources.reader.us_per_row",
    "replay.scalar": "stages.validate.scalar_us_per_row",
    "replay.decode": "stages.validate.decode_us_per_row",
    "replay.caption_len": "pipelines.flagship.writer_us_per_row",
    "replay.writer": "pipelines.flagship.writer_us_per_row",
}


def replay_shards(bench: Bench, w: Windows) -> dict[str, Any]:
    """Replay the engine's fused per-shard function in this process,
    without Ray, over the first shards of each of the three validations
    a pass makes (clean reference rows cost less to check than drifted
    production ones, and certified rows less than re-rendered ones),
    so the per-row figures are per row a pass validates. The function
    is the program's own (``flagship._fused_shard_validator``), built
    after its stages are wrapped: the shard read, the scalar validator,
    the decode/fidelity validator, the caption length and the shard
    writer each get a span, and the codec and the ground-truth re-render
    are counted and timed. ``kernel_s_per_row`` holds one whole-call
    cost per row for each validation; the certificate hit ratio counts
    the re-renders of the two certified validations only."""
    t = bench.tracer
    keep = len(t._patches)
    t.wrap(F.pq, "read_table", "replay.read")
    t.wrap_factory(val_mod, "make_scalar_validator", "replay.scalar")
    t.wrap(val_mod.DecodeValidator, "__call__", "replay.decode")
    t.wrap(F, "add_caption_len", "replay.caption_len")
    t.wrap_factory(F, "_shard_writer", "replay.writer")
    t.wrap(codecs, "decode", "codecs.decode")
    t.wrap(codecs, "phash64", "codecs.phash64")
    t.wrap(synth, "ground_truth_pixels", "synth.ground_truth_pixels")

    def shard_fn(cfg: F.FlagshipConfig, name: str) -> Any:
        vcfg = val_mod.ValidationConfig(synth_cfg=cfg.synth_cfg, phash_tol=cfg.phash_tol)
        return F._fused_shard_validator(
            os.path.join(bench.work, "replay_out", name), vcfg,
            val_mod.build_allowlist_bloom(cfg.rows, cfg.synth_cfg.run),
            (cfg.rows, cfg.rows_per_shard), use_ref_truth=cfg.use_ref_truth)

    def path(in_dir: str, pid: int) -> str:
        return os.path.join(in_dir, f"shard={pid}", "part.parquet")

    windows = [(shard_fn(w.ref_cfg, "ref"), w.ref_in),
               (shard_fn(w.prod_cfg, "prod"), w.prod_in),
               (shard_fn(w.prod_nc_cfg, "prod_nocert"), w.prod_in)]
    first = len(t.spans)
    rows, per_row, cert_rows, cert_spans = 0, [], 0, []
    try:
        with t.op("replay"):
            # one untimed shard first, so first-call costs in this process
            # (lazily built codec tables, imports) stay out of the figures
            t.enabled = False
            windows[2][0](pa.table({"path": [path(w.prod_in, N_SHARDS - 1)]}))
            t.enabled = True
            for (fn, in_dir), cfg in zip(windows, (w.ref_cfg, w.prod_cfg, w.prod_nc_cfg)):
                w_rows, w_s, w_first = 0, 0.0, len(t.spans)
                for pid in range(min(spec.REPLAY_SHARDS, N_SHARDS)):
                    with t.span("replay.shard") as sp:
                        fn(pa.table({"path": [path(in_dir, pid)]}))
                    w_rows += pq.read_metadata(path(in_dir, pid)).num_rows
                    w_s += sp.seconds
                per_row.append(w_s / w_rows)
                rows += w_rows
                if cfg.use_ref_truth:
                    cert_rows += w_rows
                    cert_spans += t.spans[w_first:]
    finally:
        t.enabled = True
        t.unwrap_all(keep)
    spans = t.spans[first:]
    shard_ids = {s["id"] for s in spans if s["name"] == "replay.shard"}

    def total(name: str, direct: bool = False) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name
                   and (not direct or s["parent"] in shard_ids))

    out: dict[str, Any] = dict.fromkeys(REPLAY_STAGES.values(), 0.0)
    for name, metric in REPLAY_STAGES.items():
        # the shard's own read, not reads made inside a stage
        out[metric] += total(name, direct=True) / rows * 1e6
    def rerenders(spans: list[dict[str, Any]]) -> int:
        return sum(1 for s in spans if s["name"] == "synth.ground_truth_pixels")

    out.update({
        "kernel_s_per_row": per_row,
        "synth.rerender_calls": float(rerenders(spans)),
        "synth.rerender_s": total("synth.ground_truth_pixels"),
        "codecs.decode_s": total("codecs.decode"),
        "codecs.phash_s": total("codecs.phash64"),
        "stages.validate.cert_hit_ratio": 1.0 - rerenders(cert_spans) / cert_rows,
    })
    return out

