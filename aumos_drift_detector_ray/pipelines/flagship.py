"""Flagship pipeline: synthesize → validate → profile → dedup → drift →
partition-addressed outputs with lineage.

End-to-end shape (the distributed analogue of the reference's
run-monitor data path, api/router.py:248-290 → record_detection,
core/services.py:265-370, with the north rule's validation added):

1. ``synthesize_dataset`` — Ray tasks write the input table as one
   parquet file per shard (``shard=<k>/part.parquet``), seeded per row
   (shard-independent, resumable: existing shards are skipped).
2. ``run_validation`` — ONE Dataset job over the pending shard PATHS:
   each task reads one shard file → scalar checks → decode/fidelity
   (drops ``bytes``) → writer that emits the shard's violations +
   pass/fail matrix rows + a pickled profile partial + the lineage
   record (atomic, idempotent). No shuffle: one task is one partition.
3. ``run_drift`` — merges profile partials of the reference and
   production windows (associative sketch merge, no data reread),
   derives edges, runs ONE more histogram pass per window, scores
   PSI/KS/chi2/JS/Hellinger/W1 per feature, and writes
   detections/alerts/events tables with reference severity semantics.
4. Uniqueness + pHash near-dup run as scalar shuffles over the flags
   table (stages/dedup.py) and append to the violations output.
"""

from __future__ import annotations

import glob
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from .. import synth
from ..functions import stats
from ..sources.reader import read_table
from ..stages import dedup as dedup_mod
from ..stages import drift as drift_mod
from ..stages import profile as prof_mod
from ..stages import validate as val_mod
from ..state import checkpoint as ckpt

# derived scalar features profiled for drift (image bytes never reach the
# profiling shuffle — these are produced by the decode stage)
NUMERIC_FEATURES = ("w", "h", "byte_len", "caption_len", "mean_pixel")
CATEGORICAL_FEATURES = ("fmt",)


@dataclass(frozen=True)
class FlagshipConfig:
    rows: int = 2_000
    rows_per_shard: int = 500
    synth_cfg: synth.SynthConfig = field(default_factory=synth.SynthConfig)
    phash_tol: int = 9
    # False drops the synthetic source-certified ref-truth columns at
    # the shard read, forcing the decode stage's full ground-truth
    # re-render — the honest real-world decode rate (the certificate is
    # a synthetic-data-only speedup; bench.py reports BOTH numbers)
    use_ref_truth: bool = True


# ---------------------------------------------------------------------------
# 1. synthesis (resumable)
# ---------------------------------------------------------------------------

def synthesize_dataset(
    out_dir: str,
    rows: int,
    rows_per_shard: int,
    cfg: synth.SynthConfig,
    max_concurrency: int = 0,
) -> list[str]:
    """Write the input table shard-by-shard with Ray tasks; shards that
    already exist are skipped (generation is deterministic per row, so a
    partial previous run is simply continued)."""

    @ray.remote
    def _one(shard: int, start: int, count: int) -> str:
        path = os.path.join(out_dir, f"shard={shard}", "part.parquet")
        if os.path.exists(path):
            return path
        # ref-truth columns ride in the same parquet (columnar: pruned by
        # every reader except the decode stage, which uses them instead
        # of the per-row seeded re-render)
        tbl = synth.make_batch(start, count, cfg, with_ref_truth=True)
        # 512-row row groups bound the memory of row-group-wise scans
        # (the validator itself reads each shard file whole)
        ckpt.atomic_write_table(path, tbl, row_group_size=512)
        return path

    tasks = []
    for shard, start in enumerate(range(0, rows, rows_per_shard)):
        tasks.append(_one.remote(shard, start, min(rows_per_shard, rows - start)))
    return ray.get(tasks)


# ---------------------------------------------------------------------------
# 2. validation job (resumable, partition-addressed outputs)
# ---------------------------------------------------------------------------

def add_caption_len(batch: pa.Table) -> pa.Table:
    """Vectorized word count = ``len(c.split())`` for ANY whitespace
    (count of non-space runs; '' → 0, repeated/leading/trailing
    whitespace adds nothing), null → 0."""
    import pyarrow.compute as pc

    n = pc.count_substring_regex(batch["caption"], r"\S+")
    return batch.append_column(
        "caption_len", pc.fill_null(n, 0).cast(pa.int64())
    )


_MATRIX_COLS = ["partition_id", "check", "violations", "rows", "passed"]


def _shard_of(path: str) -> int:
    """Partition id from an input path's ``shard=<k>`` component."""
    return int(path.split("shard=")[1].split("/")[0])


def _shard_writer(out_dir: str, feature_cols: tuple[str, ...],
                  cat_cols: tuple[str, ...], expected_rows: tuple[int, int]):
    """Per-partition finalizer: writes one shard's violations + matrix
    rows + profile partial, then the lineage record. Returns the matrix
    rows so the driver gets the global pass/fail matrix without
    re-reading files.

    ``expected_rows=(total, per_shard)`` is the completeness guard: the
    shard must hold exactly its expected row count, so an empty shard
    file or a ``rows_per_shard`` that does not match the input layout
    raises instead of silently writing (or skipping) partial outputs."""

    def fn(g: pd.DataFrame, pid: int) -> pd.DataFrame:
        t0 = time.time()
        total, per_shard = expected_rows
        want = min(per_shard, total - pid * per_shard)
        if want <= 0 or len(g) != want:
            raise ValueError(
                f"partition {pid}: shard holds {len(g)} rows, but rows={total} "
                f"with rows_per_shard={per_shard} expects {max(want, 0)}")
        ok_cols = [c for c in g.columns if c.startswith("ok_")]

        # violation rows (vectorized unpivot shared with
        # validate.violations_from_flags)
        viol = val_mod.unpivot_violations(
            pa.Table.from_pandas(
                g[["partition_id", "image_id", *ok_cols]], preserve_index=False
            )
        )
        ckpt.atomic_write_table(
            os.path.join(out_dir, "violations", f"shard={pid}.parquet"), viol
        )

        # flags table for downstream shuffle checks (scalars only)
        keep = [c for c in g.columns if c != "caption"]
        ckpt.atomic_write_table(
            os.path.join(out_dir, "flags", f"shard={pid}.parquet"),
            pa.Table.from_pandas(g[keep], preserve_index=False),
        )

        # profile partial over derived features
        profiles: dict[str, Any] = {"num": {}, "cat": {}}
        for col in feature_cols:
            prof = prof_mod.ColumnProfile()
            prof.update(g[col].to_numpy(dtype=float, na_value=np.nan))
            profiles["num"][col] = prof
        for col in cat_cols:
            cp = prof_mod.CategoricalProfile()
            cp.update(pa.array(g[col].astype(str)))
            profiles["cat"][col] = cp
        ckpt.save_profile_partial(out_dir, pid, profiles)

        # matrix rows
        rows = []
        for c in ok_cols:
            nbad = int((~g[c].fillna(False).astype(bool)).sum())
            rows.append(
                {
                    "partition_id": pid,
                    "check": c[3:],
                    "violations": nbad,
                    "rows": len(g),
                    "passed": nbad == 0,
                }
            )
        matrix = pd.DataFrame(rows)
        ckpt.atomic_write_table(
            os.path.join(out_dir, "matrix", f"shard={pid}.parquet"),
            pa.Table.from_pandas(matrix, preserve_index=False),
        )

        # lineage LAST — marks the partition complete
        ckpt.write_lineage(
            out_dir,
            pid,
            {
                "rows": len(g),
                "violations": int(sum(r["violations"] for r in rows)),
                "wall_time_s": time.time() - t0,
            },
        )
        return matrix

    return fn


#: source-certified columns synth.make_batch(with_ref_truth=True) emits
REF_TRUTH_COLS = ("ref_row", "ref_dec_crc", "ref_psnr", "ref_caption")


def _fused_shard_validator(out_dir: str, vcfg: "val_mod.ValidationConfig",
                           bloom_ref: Any, expected_rows: tuple[int, int],
                           use_ref_truth: bool = True):
    """Whole-shard task: read one shard file → scalar checks → decode/
    fidelity → caption_len → per-partition writer, all inside ONE task.

    The input Dataset carries only file PATHS, so payload bytes never
    enter the object store and the whole job is a single fused operator:
    every CPU slot runs end-to-end shard work with no read-vs-map
    resource split, no inter-operator queueing, and trivially
    partition-aligned blocks (one task == one shard file). This is the
    per-shard whole-file map suggested by the r2 review for dropping the
    writer exchange, extended to the read side. At cluster scale,
    parallelism = #shard files >> cores and the scheduler pulls paths,
    so the shape is unchanged at 100 TB (paths are metadata; payloads
    stream disk → worker heap → scalar outputs only)."""
    scalar = val_mod.make_scalar_validator(vcfg, bloom_ref)
    decode = val_mod.DecodeValidator(vcfg)  # cheap state; ships pickled
    writer = _shard_writer(out_dir, NUMERIC_FEATURES, CATEGORICAL_FEATURES,
                           expected_rows=expected_rows)

    def fn(batch: pa.Table) -> pd.DataFrame:
        outs = []
        for path in batch["path"].to_pylist():
            tbl = pq.read_table(path)
            if not use_ref_truth:
                tbl = tbl.drop_columns(
                    [c for c in REF_TRUTH_COLS if c in tbl.column_names])
            pid = _shard_of(path)
            tbl = tbl.append_column(
                "partition_id", pa.array(np.full(len(tbl), pid, dtype=np.int64)))
            tbl = add_caption_len(decode(scalar(tbl)))
            outs.append(writer(tbl.to_pandas(), pid))
        return pd.concat(outs, ignore_index=True) if outs else pd.DataFrame(
            columns=_MATRIX_COLS)

    return fn


def _read_matrix(out_dir: str) -> pd.DataFrame:
    """All per-shard pass/fail matrix rows under ``out_dir``, in file
    order."""
    files = sorted(glob.glob(os.path.join(out_dir, "matrix", "shard=*.parquet")))
    if not files:
        return pd.DataFrame(columns=_MATRIX_COLS)
    return pa.concat_tables([pq.read_table(f) for f in files]).to_pandas()


def run_validation(
    input_dir: str,
    out_dir: str,
    cfg: FlagshipConfig,
    resume: bool = True,
) -> pd.DataFrame:
    """Validate all pending shards with the whole-shard task (see
    ``_fused_shard_validator``); returns the global pass/fail matrix
    (completed shards' matrix rows are read from their outputs)."""
    shard_files = sorted(glob.glob(os.path.join(input_dir, "shard=*", "part.parquet")))
    done = ckpt.completed_partitions(out_dir) if resume else {}
    pending = [p for p in shard_files if _shard_of(p) not in done]

    if pending:
        vcfg = val_mod.ValidationConfig(
            synth_cfg=cfg.synth_cfg, phash_tol=cfg.phash_tol
        )
        bloom_ref = val_mod.build_allowlist_bloom(cfg.rows, cfg.synth_cfg.run)
        fn = _fused_shard_validator(out_dir, vcfg, bloom_ref,
                                    (cfg.rows, cfg.rows_per_shard),
                                    use_ref_truth=cfg.use_ref_truth)
        (ray.data.from_items([{"path": p} for p in pending],
                             override_num_blocks=len(pending))
         .map_batches(fn, batch_format="pyarrow", batch_size=None)
         .materialize())

    return (
        _read_matrix(out_dir)
        .sort_values(["partition_id", "check"])
        .reset_index(drop=True)
    )


# ---------------------------------------------------------------------------
# 3. shuffle checks (uniqueness, near-dup) over the flags output
# ---------------------------------------------------------------------------

def run_shuffle_checks(out_dir: str, phash_tol: int = 4) -> dict[str, int]:
    """Exact image_id uniqueness + pHash banded near-dup over the
    scalars-only flags table; appends violation rows."""
    # materialize once: the flags table is scalar-only (~100 B/row) and is
    # consumed by three downstream ops (dup count, dup filter, near-dup) —
    # pinning it avoids re-reading the shard files per consumer
    flags = read_table(os.path.join(out_dir, "flags")).materialize()
    # prune to the two consumed columns BEFORE the dup scan: the keep
    # filter then streams 2-column blocks only (and every bundle shares
    # one schema — mixing pruned and full blocks in one execution logs
    # "RefBundle with a different schema")
    dup_rows = dedup_mod.uniqueness_violations(
        flags.select_columns(["partition_id", "image_id"]), "image_id")
    dup_pdf = dup_rows.to_pandas()
    if "image_id" not in dup_pdf.columns:
        # a fully-clean window: the empty Dataset's to_pandas() loses
        # its columns — keep the violation-row schema stable regardless
        dup_pdf = pd.DataFrame({"partition_id": pd.Series([], dtype="int64"),
                                "image_id": pd.Series([], dtype="object")})
    dup_pdf["check"] = "uniqueness"
    dup_pdf["detail"] = ""

    pairs = dedup_mod.near_dup_pairs_hamming(
        flags, hash_col="phash", id_col="image_id", tol=phash_tol
    ).to_pandas()
    near_ids = sorted(set(pairs.id_a) | set(pairs.id_b)) if len(pairs) else []
    near_pdf = pd.DataFrame(
        {
            "partition_id": [-1] * len(near_ids),
            "image_id": near_ids,
            "check": ["near_dup"] * len(near_ids),
            "detail": [""] * len(near_ids),
        }
    )
    extra = pd.concat([dup_pdf, near_pdf], ignore_index=True)
    ckpt.atomic_write_table(
        os.path.join(out_dir, "violations", "shuffle_checks.parquet"),
        pa.Table.from_pandas(extra, preserve_index=False),
    )
    return {"duplicate_rows": len(dup_pdf), "near_dup_ids": len(near_ids)}


# ---------------------------------------------------------------------------
# 4. drift scoring between two validated runs
# ---------------------------------------------------------------------------

def run_drift(
    ref_out_dir: str,
    prod_out_dir: str,
    run_id: str,
    cfg: drift_mod.DriftConfig | None = None,
) -> dict[str, Any]:
    """Score production-window drift against the reference window using
    the persisted per-partition profile partials (no input re-read except
    the fixed-edge histogram pass over the scalar flags tables)."""
    cfg = cfg or drift_mod.DriftConfig()
    ref_p = ckpt.load_merged_profiles(ref_out_dir)
    prod_p = ckpt.load_merged_profiles(prod_out_dir)
    edges = drift_mod.drift_edges(ref_p, prod_p, cfg)
    ref_h: dict[str, Any] = {}
    prod_h: dict[str, Any] = {}
    if edges:
        from concurrent.futures import ThreadPoolExecutor

        cols = list(edges.keys())
        ref_flags = read_table(os.path.join(ref_out_dir, "flags"))
        prod_flags = read_table(os.path.join(prod_out_dir, "flags"))
        # the two histogram passes are independent given the shared
        # edges — run them as two CONCURRENT Dataset jobs (each is a
        # short scan that can't saturate the cluster alone; measured
        # ~8% off t_drift at 16 cpus / 240k rows, growing with window
        # size as the scans come to dominate the driver-side scoring)
        with ThreadPoolExecutor(max_workers=2) as pool:
            f_ref = pool.submit(prof_mod.profile_dataset, ref_flags, cols,
                                [], hist_edges=edges)
            f_prod = pool.submit(prof_mod.profile_dataset, prod_flags, cols,
                                 [], hist_edges=edges)
            ref_h = f_ref.result()["num"]
            prod_h = f_prod.result()["num"]
    scores = drift_mod.score_features(ref_p, prod_p, ref_h, prod_h, cfg)
    det, alerts, events = drift_mod.detections_alerts_events(scores, run_id)
    # per-(partition, feature, test) scores from each shard's saved
    # profile partial vs the merged reference (SURVEY §3a contract)
    part_scores = drift_mod.score_partition_profiles(
        ref_p, ckpt.load_partition_profiles(prod_out_dir), cfg
    )
    part_det = []
    for s_ in part_scores:
        d_, a_, e_ = drift_mod.detections_alerts_events(
            [s_], run_id, partition_id=s_["partition_id"],
        )
        part_det.extend(d_)
        alerts.extend(a_)
        events.extend(e_)
    if part_det:
        ckpt.atomic_write_table(
            os.path.join(prod_out_dir, "detections", "per_partition.parquet"),
            pa.Table.from_pandas(pd.DataFrame(part_det), preserve_index=False),
        )
    for name, rows in (("detections", det), ("alerts", alerts), ("events", events)):
        if rows:
            ckpt.atomic_write_table(
                os.path.join(prod_out_dir, name, "part.parquet"),
                pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False),
            )
    baseline = prof_mod.baseline_version(ref_p)
    ckpt.atomic_write_bytes(
        os.path.join(prod_out_dir, "baseline.json"),
        json.dumps(baseline, sort_keys=True, default=str).encode(),
    )
    # self-contained HTML report + dashboard counts alongside the outputs
    from ..functions.report import generate_html_report, trend_summaries

    matrix_rows = _read_matrix(prod_out_dir).to_dict("records")
    trends = trend_summaries(part_scores)
    ckpt.atomic_write_bytes(
        os.path.join(prod_out_dir, "report.html"),
        generate_html_report(run_id, det, matrix_rows, trends=trends).encode(),
    )
    ckpt.atomic_write_bytes(
        os.path.join(prod_out_dir, "dashboard.json"),
        json.dumps(prof_mod.dashboard_summary(pd.DataFrame(det))
                   if det else {}, sort_keys=True).encode(),
    )
    return {"scores": scores, "detections": det, "alerts": alerts, "events": events}


def run_windows_pipelined(
    ref_in: str,
    ref_out: str,
    ref_cfg: FlagshipConfig,
    prod_jobs: "list[tuple[str, str, FlagshipConfig]]",
    resume: bool = True,
) -> "dict[str, dict[str, Any]]":
    """Streaming multi-window monitoring: validate the reference window
    once, then pipeline the production windows so window k's DRIFT
    SCORING overlaps window k+1's VALIDATION (two concurrent Ray jobs —
    scoring is a short scan over the just-written flags/profiles, so it
    rides the validation job's spare capacity instead of serializing
    after it; measured 2-prod-window wall at 16 cpus / 360k rows:
    19.6–23.0 s serial → ~16.8 s pipelined, −17–27%). Outputs are
    identical to the serial
    validate-then-score loop (pytest TestPipelinedWindows); keyed by
    each window's run name."""
    from concurrent.futures import ThreadPoolExecutor

    run_validation(ref_in, ref_out, ref_cfg, resume=resume)
    results: "dict[str, dict[str, Any]]" = {}
    with ThreadPoolExecutor(max_workers=1) as drift_pool:
        pending: "list[tuple[str, Any]]" = []
        for pin, pout, pcfg in prod_jobs:
            run_validation(pin, pout, pcfg, resume=resume)
            # score THIS window in the background; the loop moves on to
            # validate the next window immediately
            pending.append((pcfg.synth_cfg.run, drift_pool.submit(
                run_drift, ref_out, pout, run_id=pcfg.synth_cfg.run)))
        for run, fut in pending:
            results[run] = fut.result()
    return results


# ---------------------------------------------------------------------------
# end-to-end driver
# ---------------------------------------------------------------------------

def run_flagship(
    work_dir: str,
    rows: int = 2_000,
    rows_per_shard: int = 500,
    violation_rate: float = 0.05,
    seed: int = 42,
    resume: bool = True,
) -> dict[str, Any]:
    """Full demo run: clean reference window + drifted production window
    with injected violations; validates both, scores drift, returns a
    summary."""
    ref_scfg = synth.SynthConfig(seed=seed, run="ref")
    prod_scfg = synth.SynthConfig(
        seed=seed + 1, run="prod", violation_rate=violation_rate, drift=True
    )
    ref_in = os.path.join(work_dir, "input_ref")
    prod_in = os.path.join(work_dir, "input_prod")
    ref_out = os.path.join(work_dir, "out_ref")
    prod_out = os.path.join(work_dir, "out_prod")

    synthesize_dataset(ref_in, rows, rows_per_shard, ref_scfg)
    synthesize_dataset(prod_in, rows, rows_per_shard, prod_scfg)

    ref_cfg = FlagshipConfig(rows=rows, rows_per_shard=rows_per_shard, synth_cfg=ref_scfg)
    prod_cfg = FlagshipConfig(rows=rows, rows_per_shard=rows_per_shard, synth_cfg=prod_scfg)

    ref_matrix = run_validation(ref_in, ref_out, ref_cfg, resume=resume)
    prod_matrix = run_validation(prod_in, prod_out, prod_cfg, resume=resume)
    shuffle_summary = run_shuffle_checks(prod_out)
    drift_out = run_drift(ref_out, prod_out, run_id=f"flagship-{seed}")
    return {
        "ref_matrix": ref_matrix,
        "prod_matrix": prod_matrix,
        "shuffle_checks": shuffle_summary,
        "drift": drift_out,
        "out_dirs": {"ref": ref_out, "prod": prod_out},
    }
