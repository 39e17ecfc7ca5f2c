"""End-to-end flagship pipeline + checkpoint/resume tests (FIXTURES F1/F6)."""

from __future__ import annotations

import glob
import json
import os
import shutil

import pandas as pd
import pytest

from aumos_drift_detector_ray import synth


@pytest.fixture(scope="module")
def flagship_run(ray_session, tmp_path_factory):
    from aumos_drift_detector_ray.pipelines import flagship as F

    work = str(tmp_path_factory.mktemp("flagship"))
    out = F.run_flagship(work, rows=400, rows_per_shard=100, violation_rate=0.08)
    return work, out


class TestFlagshipEndToEnd:
    def test_matrix_covers_all_partitions_and_checks(self, flagship_run):
        _, out = flagship_run
        m = out["prod_matrix"]
        assert set(m.partition_id) == {0, 1, 2, 3}
        assert "pixel_fidelity" in set(m.check)
        assert "referential" in set(m.check)
        assert (m.rows.groupby(m.partition_id).first() > 0).all()

    def test_clean_reference_window_all_pass(self, flagship_run):
        _, out = flagship_run
        m = out["ref_matrix"]
        assert bool(m.passed.all()), m[~m.passed]

    def test_prod_matrix_matches_violation_oracle(self, flagship_run):
        _, out = flagship_run
        m = out["prod_matrix"]
        scfg = synth.SynthConfig(seed=43, run="prod", violation_rate=0.08, drift=True)
        truth = [synth.expected_violation(43, i, scfg) for i in range(400)]
        # deterministic scalar checks must match the oracle exactly
        for check, code in (
            ("not_null_caption", synth.V_NULL),
            ("fmt_domain", synth.V_FMT),
            ("referential", synth.V_REF),
        ):
            for pid in range(4):
                expected = sum(
                    1 for i in range(pid * 100, (pid + 1) * 100) if truth[i] == code
                )
                got = int(
                    m[(m.partition_id == pid) & (m.check == check)].violations.iloc[0]
                )
                assert got == expected, (check, pid, got, expected)

    def test_violations_and_lineage_files_exist(self, flagship_run):
        work, out = flagship_run
        prod_out = out["out_dirs"]["prod"]
        assert len(glob.glob(os.path.join(prod_out, "violations", "shard=*.parquet"))) == 4
        assert len(glob.glob(os.path.join(prod_out, "lineage", "shard=*.json"))) == 4
        rec = json.load(open(glob.glob(os.path.join(prod_out, "lineage", "*.json"))[0]))
        assert {"partition_id", "rows", "violations", "wall_time_s", "completed_at"} <= set(rec)

    def test_drift_detected_on_shifted_window(self, flagship_run):
        _, out = flagship_run
        scores = {(s["feature"], s["test"]): s for s in out["drift"]["scores"]}
        # the drift preset shifts dims, fmt mix, caption lengths
        assert scores[("w", "psi")]["score"] >= 0.2
        assert scores[("caption_len", "psi")]["score"] >= 0.2
        assert scores[("fmt", "chi2")]["score"] < 0.05
        # alerts raised with reference severity semantics
        assert out["drift"]["alerts"]
        kinds = {e["event_type"] for e in out["drift"]["events"]}
        assert "drift.alert_raised" in kinds and "drift.retraining_required" in kinds

    def test_detections_written(self, flagship_run):
        _, out = flagship_run
        prod_out = out["out_dirs"]["prod"]
        det = pd.read_parquet(os.path.join(prod_out, "detections", "part.parquet"))
        assert {"run_id", "feature", "test_name", "score", "threshold", "is_drifted",
                "severity"} <= set(det.columns)
        assert len(det) == len(out["drift"]["scores"])
        base = json.load(open(os.path.join(prod_out, "baseline.json")))
        assert "fingerprint" in base and len(base["fingerprint"]) == 64

    def test_shuffle_checks_found_injected_dups(self, flagship_run):
        _, out = flagship_run
        scfg = synth.SynthConfig(seed=43, run="prod", violation_rate=0.08, drift=True)
        truth = [synth.expected_violation(43, i, scfg) for i in range(400)]
        n_dup = sum(1 for v in truth if v == synth.V_DUP)
        n_near = sum(1 for v in truth if v == synth.V_NEARDUP)
        assert out["shuffle_checks"]["duplicate_rows"] >= 2 * n_dup if n_dup else True
        if n_near:
            assert out["shuffle_checks"]["near_dup_ids"] >= n_near


class TestResume:
    def test_resume_reproduces_byte_identical_outputs(self, ray_session, tmp_path_factory):
        from aumos_drift_detector_ray.pipelines import flagship as F

        work = str(tmp_path_factory.mktemp("resume"))
        scfg = synth.SynthConfig(seed=7, run="r", violation_rate=0.1)
        inp = os.path.join(work, "input")
        out1 = os.path.join(work, "out1")
        F.synthesize_dataset(inp, 300, 100, scfg)
        cfg = F.FlagshipConfig(rows=300, rows_per_shard=100, synth_cfg=scfg)
        m1 = F.run_validation(inp, out1, cfg)

        # simulate a crash: copy outputs, drop shard 1's outputs + lineage
        out2 = os.path.join(work, "out2")
        shutil.copytree(out1, out2)
        os.unlink(os.path.join(out2, "lineage", "shard=1.json"))
        os.unlink(os.path.join(out2, "violations", "shard=1.parquet"))
        m2 = F.run_validation(inp, out2, cfg, resume=True)

        assert m1.equals(m2)
        for shard in (0, 1, 2):
            a = open(os.path.join(out1, "violations", f"shard={shard}.parquet"), "rb").read()
            b = open(os.path.join(out2, "violations", f"shard={shard}.parquet"), "rb").read()
            assert a == b, f"shard {shard} differs after resume"

    def test_completed_shards_not_rerun(self, ray_session, tmp_path_factory):
        from aumos_drift_detector_ray.pipelines import flagship as F
        from aumos_drift_detector_ray.state import checkpoint as ckpt

        work = str(tmp_path_factory.mktemp("skip"))
        scfg = synth.SynthConfig(seed=9, run="s")
        inp = os.path.join(work, "input")
        out = os.path.join(work, "out")
        F.synthesize_dataset(inp, 200, 100, scfg)
        cfg = F.FlagshipConfig(rows=200, rows_per_shard=100, synth_cfg=scfg)
        F.run_validation(inp, out, cfg)
        done = ckpt.completed_partitions(out)
        stamps = {p: done[p]["completed_at"] for p in done}
        F.run_validation(inp, out, cfg, resume=True)  # everything complete
        done2 = ckpt.completed_partitions(out)
        assert {p: done2[p]["completed_at"] for p in done2} == stamps


class TestShardGuard:
    """A shard whose row count does not match ``rows``/``rows_per_shard``
    (an empty file, or a config that does not match the input layout)
    fails the run loudly and writes no lineage for that shard."""

    @pytest.fixture
    def shards(self, ray_session, tmp_path):
        from aumos_drift_detector_ray.pipelines import flagship as F

        scfg = synth.SynthConfig(seed=5, run="g")
        inp = str(tmp_path / "input")
        F.synthesize_dataset(inp, 300, 100, scfg)
        return inp, str(tmp_path / "out"), scfg

    def test_empty_shard_raises(self, shards):
        import pyarrow.parquet as pq
        from aumos_drift_detector_ray.pipelines import flagship as F

        inp, out, scfg = shards
        path = os.path.join(inp, "shard=1", "part.parquet")
        pq.write_table(pq.read_table(path).slice(0, 0), path)
        cfg = F.FlagshipConfig(rows=300, rows_per_shard=100, synth_cfg=scfg)
        with pytest.raises(Exception, match="partition 1: shard holds 0 rows"):
            F.run_validation(inp, out, cfg, resume=False)
        assert not os.path.exists(os.path.join(out, "lineage", "shard=1.json"))

    def test_mismatched_rows_per_shard_raises(self, shards):
        from aumos_drift_detector_ray.pipelines import flagship as F

        inp, out, scfg = shards
        cfg = F.FlagshipConfig(rows=300, rows_per_shard=150, synth_cfg=scfg)
        with pytest.raises(Exception, match="rows_per_shard=150"):
            F.run_validation(inp, out, cfg, resume=False)
        # every shard holds 100 rows; none is what the config expects
        assert glob.glob(os.path.join(out, "lineage", "*.json")) == []


class TestPerPartitionDrift:
    def test_per_partition_detections_written(self, flagship_run):
        _, out = flagship_run
        prod_out = out["out_dirs"]["prod"]
        path = os.path.join(prod_out, "detections", "per_partition.parquet")
        assert os.path.exists(path)
        det = pd.read_parquet(path)
        # every production partition scored for the numeric features
        assert set(det.partition_id) == {0, 1, 2, 3}
        assert {"psi", "ks", "chi2", "wasserstein"} <= set(det.test_name)
        # the drifted window: every partition flags the width shift
        w_psi = det[(det.feature == "w") & (det.test_name == "psi")]
        assert len(w_psi) == 4
        assert w_psi.is_drifted.all()
        assert (w_psi.score >= 0.2).all()


class TestCleanWindowShuffleChecks:
    def test_clean_window_keeps_violation_schema(self, ray_session, tmp_path):
        """A window with NO duplicates and NO near-dups must still write
        shuffle_checks.parquet with the full stable violation-row schema
        (empty Datasets lose their columns in to_pandas — the writer
        compensates)."""
        import pyarrow.parquet as pq
        from aumos_drift_detector_ray import synth
        from aumos_drift_detector_ray.pipelines import flagship as F

        scfg = synth.SynthConfig(seed=7, run="ref")
        work = str(tmp_path / "clean")
        F.synthesize_dataset(work + "/in", 400, 100, scfg)
        cfg = F.FlagshipConfig(rows=400, rows_per_shard=100, synth_cfg=scfg)
        F.run_validation(work + "/in", work + "/out", cfg, resume=False)
        summary = F.run_shuffle_checks(work + "/out")
        assert summary == {"duplicate_rows": 0, "near_dup_ids": 0}
        t = pq.read_table(work + "/out/violations/shuffle_checks.parquet")
        assert t.schema.names == ["partition_id", "image_id", "check",
                                  "detail"]
        assert len(t) == 0


class TestNoCertificatePath:
    def test_matrix_identical_without_ref_truth(self, ray_session,
                                                tmp_path_factory):
        """use_ref_truth=False drops the source-certified columns at the
        read (full ground-truth re-render — the honest real-world
        decode rate bench.py reports): the pass/fail matrix and the
        violation files must be byte-identical either way."""
        from aumos_drift_detector_ray.pipelines import flagship as F

        work = str(tmp_path_factory.mktemp("nocert"))
        scfg = synth.SynthConfig(seed=11, run="nc", violation_rate=0.1)
        inp = os.path.join(work, "input")
        F.synthesize_dataset(inp, 300, 100, scfg)
        base = F.FlagshipConfig(rows=300, rows_per_shard=100, synth_cfg=scfg)
        nocert = F.FlagshipConfig(rows=300, rows_per_shard=100,
                                  synth_cfg=scfg, use_ref_truth=False)
        m1 = F.run_validation(inp, os.path.join(work, "a"), base)
        m2 = F.run_validation(inp, os.path.join(work, "b"), nocert)
        assert m1.equals(m2)
        for shard in (0, 1, 2):
            a = open(os.path.join(work, "a", "violations",
                                  f"shard={shard}.parquet"), "rb").read()
            b = open(os.path.join(work, "b", "violations",
                                  f"shard={shard}.parquet"), "rb").read()
            assert a == b, f"shard {shard} differs without certificates"


class TestPipelinedWindows:
    def test_pipelined_matches_serial_loop(self, ray_session,
                                           tmp_path_factory):
        """run_windows_pipelined (drift of window k overlapping
        validation of window k+1) must produce exactly the serial
        validate-then-score loop's outputs for every window."""
        from aumos_drift_detector_ray.pipelines import flagship as F

        work = str(tmp_path_factory.mktemp("pipew"))
        ref_cfg = F.FlagshipConfig(
            rows=300, rows_per_shard=100,
            synth_cfg=synth.SynthConfig(seed=5, run="ref"))
        jobs = []
        for i, run in enumerate(("w1", "w2")):
            scfg = synth.SynthConfig(seed=6 + i, run=run,
                                     violation_rate=0.1, drift=True)
            inp = os.path.join(work, f"in_{run}")
            F.synthesize_dataset(inp, 300, 100, scfg)
            jobs.append((inp, scfg))
        F.synthesize_dataset(os.path.join(work, "in_ref"), 300, 100,
                             ref_cfg.synth_cfg)

        def cfg_of(scfg):
            return F.FlagshipConfig(rows=300, rows_per_shard=100,
                                    synth_cfg=scfg)

        # serial reference
        F.run_validation(os.path.join(work, "in_ref"),
                         os.path.join(work, "s_ref"), ref_cfg)
        serial = {}
        for inp, scfg in jobs:
            out = os.path.join(work, f"s_{scfg.run}")
            F.run_validation(inp, out, cfg_of(scfg))
            serial[scfg.run] = F.run_drift(os.path.join(work, "s_ref"),
                                           out, run_id=scfg.run)

        piped = F.run_windows_pipelined(
            os.path.join(work, "in_ref"), os.path.join(work, "p_ref"),
            ref_cfg,
            [(inp, os.path.join(work, f"p_{scfg.run}"), cfg_of(scfg))
             for inp, scfg in jobs])

        assert sorted(piped) == sorted(serial)
        for run in serial:
            assert piped[run]["scores"] == serial[run]["scores"]
            assert piped[run]["detections"] == serial[run]["detections"]
