"""Constraint-validation stage tests: per-partition pass/fail matrix
against the generator's violation oracle (FIXTURES.md F1)."""

from __future__ import annotations

import numpy as np
import pytest

from aumos_drift_detector_ray import synth

ROWS = 600
SHARD = 200
CFG = synth.SynthConfig(seed=42, run="v", violation_rate=0.12)


@pytest.fixture(scope="module")
def flags_ds(ray_session):
    """Validated flags table over a 600-row injected table."""
    import ray
    import ray.data as rd
    from aumos_drift_detector_ray.stages import validate as V

    tbl = synth.make_batch(0, ROWS, CFG)
    ds = rd.from_arrow(tbl).repartition(6)
    ds = V.attach_partition_id(ds, SHARD)
    vcfg = V.ValidationConfig(synth_cfg=CFG)
    bloom_ref = V.build_allowlist_bloom(ROWS, "v")
    flags = (
        ds.map_batches(V.make_scalar_validator(vcfg, bloom_ref), batch_format="pyarrow")
        .map_batches(V.DecodeValidator(vcfg), batch_format="pyarrow")
    )
    return flags.materialize()


@pytest.fixture(scope="module")
def truth():
    return [synth.expected_violation(42, i, CFG) for i in range(ROWS)]


# which named checks each injected code must fail
EXPECT_FAIL = {
    synth.V_NULL: {"not_null_caption", "caption_match"},
    synth.V_RANGE: {"dims_match"},
    synth.V_FMT: {"fmt_domain", "decodable"},
    synth.V_CORRUPT: {"decodable"},
    synth.V_PSNR: {"pixel_fidelity"},
    synth.V_REF: {"referential"},
    synth.V_CAP: {"caption_match"},
}


class TestRowValidation:
    def test_schema_check_passes(self, ray_session):
        import ray.data as rd
        from aumos_drift_detector_ray.stages import validate as V

        ds = rd.from_arrow(synth.make_batch(0, 10, CFG))
        assert V.check_schema(ds) == []

    def test_schema_check_flags_missing(self, ray_session):
        import ray.data as rd
        from aumos_drift_detector_ray.stages import validate as V

        ds = rd.from_arrow(synth.make_batch(0, 10, CFG).drop_columns(["phash"]))
        problems = V.check_schema(ds)
        assert any("phash" in p for p in problems)

    def test_clean_rows_pass_everything(self, flags_ds, truth):
        rows = flags_ds.take_all()
        by_id: dict[str, list[dict]] = {}
        for r in rows:
            by_id.setdefault(r["image_id"], []).append(r)
        clean = [i for i, v in enumerate(truth) if v == synth.V_NONE]
        assert clean
        ok_cols = [k for k in rows[0] if k.startswith("ok_")]
        checked = 0
        for i in clean[:150]:
            cands = by_id[synth.image_id_for("v", i)]
            if len(cands) > 1:
                continue  # a V-DUP echo claims this id; skip the ambiguity
            bad = [c for c in ok_cols if not cands[0][c]]
            assert not bad, f"row {i} unexpectedly failed {bad}"
            checked += 1
        assert checked > 50

    def test_each_violation_fails_expected_checks(self, flags_ds, truth):
        rows = flags_ds.take_all()
        # V-DUP rows keep a *foreign* id; index them by parsed row position
        # is ambiguous, so map via per-code row lists instead.
        id_to_rows: dict[str, list[dict]] = {}
        for r in rows:
            id_to_rows.setdefault(r["image_id"], []).append(r)
        for i, code in enumerate(truth):
            if code not in EXPECT_FAIL:
                continue
            if code == synth.V_REF:
                rid = f"ghost-v-{i:012d}"
            else:
                rid = synth.image_id_for("v", i)
            candidates = id_to_rows.get(rid, [])
            assert candidates, f"row {i} ({code}) not found"
            r = candidates[0]
            for check in EXPECT_FAIL[code]:
                assert not r[f"ok_{check}"], f"row {i} ({code}) should fail {check}"

    def test_bytes_column_dropped(self, flags_ds):
        assert "bytes" not in flags_ds.schema().names

    def test_passfail_matrix_matches_oracle(self, flags_ds, truth):
        from aumos_drift_detector_ray.stages import validate as V

        matrix = V.passfail_matrix(flags_ds).to_pandas()
        # oracle: expected per-(partition, check) violation counts for the
        # deterministic scalar checks
        for check in ("not_null_caption", "fmt_domain", "referential"):
            for pid in range(ROWS // SHARD):
                row = matrix[(matrix.partition_id == pid) & (matrix.check == check)]
                assert len(row) == 1
                code_for = {
                    "not_null_caption": synth.V_NULL,
                    "fmt_domain": synth.V_FMT,
                    "referential": synth.V_REF,
                }[check]
                expected = sum(
                    1 for i in range(pid * SHARD, (pid + 1) * SHARD)
                    if truth[i] == code_for
                )
                assert int(row.violations.iloc[0]) == expected, (check, pid)
                assert bool(row.passed.iloc[0]) == (expected == 0)

    def test_violation_rows_emitted(self, flags_ds, truth):
        from aumos_drift_detector_ray.stages import validate as V

        viol = V.violations_from_flags(flags_ds).to_pandas()
        n_null = sum(1 for v in truth if v == synth.V_NULL)
        assert (viol.check == "not_null_caption").sum() == n_null
        assert set(viol.columns) == {"partition_id", "image_id", "check", "detail"}


class TestShuffleChecks:
    def test_uniqueness_violations(self, flags_ds, truth, ray_session):
        from aumos_drift_detector_ray.stages import dedup as D

        dup_rows = D.uniqueness_violations(flags_ds, "image_id").to_pandas()
        n_dups = sum(1 for v in truth if v == synth.V_DUP)
        assert n_dups > 0
        # every dup group contributes all members (echo + keeper)
        assert len(dup_rows) == 2 * n_dups or len(dup_rows) >= 2 * n_dups

    def test_near_dup_pairs_found(self, flags_ds, truth, ray_session):
        from aumos_drift_detector_ray.stages import dedup as D

        pairs = D.near_dup_pairs_hamming(
            flags_ds, hash_col="phash", id_col="image_id", tol=6
        ).to_pandas()
        near = [i for i, v in enumerate(truth) if v == synth.V_NEARDUP]
        assert near
        found_ids = set(pairs.id_a) | set(pairs.id_b)
        for i in near:
            assert synth.image_id_for("v", i) in found_ids, f"near-dup row {i} missed"


class TestRefTruthColumns:
    def test_ref_truth_path_matches_rederive_bitexact(self):
        """The co-located reference-truth columns (synth with_ref_truth)
        must produce EXACTLY the same flags and derived features as the
        seeded re-render fallback — same batch, both paths, compared
        column by column (incl. psnr float equality)."""
        import pyarrow as pa
        from aumos_drift_detector_ray import synth
        from aumos_drift_detector_ray.stages.validate import (
            DecodeValidator, ValidationConfig)

        scfg = synth.SynthConfig(violation_rate=0.25, run="rt")
        cfg = ValidationConfig(synth_cfg=scfg)
        with_ref = synth.make_batch(0, 300, scfg, with_ref_truth=True)
        plain = with_ref.drop_columns(
            ["ref_row", "ref_dec_crc", "ref_psnr", "ref_caption"])
        out_ref = DecodeValidator(cfg)(with_ref)
        out_plain = DecodeValidator(cfg)(plain)
        assert out_ref.schema.names == out_plain.schema.names
        import numpy as np
        for name in out_ref.schema.names:
            a, b = out_ref[name], out_plain[name]
            if pa.types.is_floating(a.type):  # NaN-aware float compare
                av = a.to_numpy(zero_copy_only=False)
                bv = b.to_numpy(zero_copy_only=False)
                same = (av == bv) | (np.isnan(av) & np.isnan(bv))
                assert same.all(), f"column {name} differs between paths"
            else:
                assert a.equals(b), f"column {name} differs between paths"

    def test_ref_certificates_match_own_truth(self):
        """The certified columns always describe the row's OWN ground
        truth vs its canonical payload, even for violated rows."""
        import zlib
        import numpy as np
        from aumos_drift_detector_ray import codecs, synth

        scfg = synth.SynthConfig(violation_rate=0.5, run="rt2")
        t = synth.make_batch(0, 40, scfg, with_ref_truth=True)
        for i in range(40):
            truth = synth.ground_truth_pixels(scfg.seed, i, scfg)
            blob = t["bytes"][i].as_py()
            fmt = t["fmt"][i].as_py()
            crc, p = t["ref_dec_crc"][i].as_py(), t["ref_psnr"][i].as_py()
            try:
                dec = (codecs.decode(blob, fmt)
                       if blob is not None and fmt in codecs.FORMATS else None)
            except codecs.CodecError:
                dec = None
            if dec is None:
                assert crc == -1 and np.isnan(p)
            else:
                assert crc == zlib.crc32(dec.tobytes())
                if truth.shape == dec.shape:
                    assert p == codecs.psnr(truth, dec)
                else:
                    assert np.isnan(p)
            assert t["ref_row"][i].as_py() == i
            assert t["ref_caption"][i].as_py() == \
                synth.ground_truth_caption(scfg.seed, i, scfg)


class TestRangePartitionedBloom:
    """The 10^12-scale referential path: hash-range-sharded allowlist
    blooms, one object-store entry per shard, probes fetch only the
    shards a batch touches (validate.build_allowlist_bloom n_ranges)."""

    def test_same_verdicts_as_single_bloom_on_allowlist(self, ray_session):
        import ray as _ray
        from aumos_drift_detector_ray.stages import validate as V
        from aumos_drift_detector_ray import synth

        n = 500
        single = _ray.get(V.build_allowlist_bloom(n, "rb"))
        sharded = _ray.get(V.build_allowlist_bloom(n, "rb", n_ranges=4))
        ids = [synth.image_id_for("rb", i) for i in range(n)]
        # membership is exact for true members in BOTH variants
        assert single.contains(ids).all()
        assert sharded.contains(ids).all()
        # negatives are exact in expectation ~99%+; forged ids must be
        # overwhelmingly rejected by both
        forged = [f"forged-{i}" for i in range(1000)]
        assert (~sharded.contains(forged)).mean() > 0.95
        assert (~single.contains(forged)).mean() > 0.95

    def test_probe_fetches_only_touched_shards(self, ray_session):
        import ray as _ray
        import numpy as np
        from aumos_drift_detector_ray.sketches import (RangePartitionedBloom,
                                                       hash_any_array)
        from aumos_drift_detector_ray.stages import validate as V
        from aumos_drift_detector_ray import synth

        n, n_ranges = 400, 8
        handle = _ray.get(V.build_allowlist_bloom(n, "rb2", n_ranges=n_ranges))
        assert handle.n_ranges == n_ranges and not handle._cache
        ids = [synth.image_id_for("rb2", i) for i in range(50)]
        touched = set(np.unique(RangePartitionedBloom.range_of(
            hash_any_array(ids), n_ranges)).tolist())
        assert handle.contains(ids).all()
        # lazy: exactly the touched shards were fetched, not all 8
        assert set(handle._cache) == touched
        assert len(touched) < n_ranges or len(ids) > 6 * n_ranges

    def test_scalar_validator_accepts_sharded_handle(self, ray_session):
        """make_scalar_validator's referential check is agnostic to the
        bloom variant (same contains contract)."""
        import pyarrow as pa
        from aumos_drift_detector_ray.stages import validate as V
        from aumos_drift_detector_ray import synth

        n = 200
        ref = V.build_allowlist_bloom(n, "rb3", n_ranges=4)
        cfg = V.ValidationConfig()
        fn = V.make_scalar_validator(cfg, ref)
        good = [synth.image_id_for("rb3", i) for i in range(5)]
        batch = pa.table({
            "image_id": good + ["forged-zzz"],
            "bytes": [b"x"] * 6,
            "caption": ["c"] * 6,
            "w": [4] * 6, "h": [4] * 6,
            "fmt": ["raw"] * 6,
        })
        out = fn(batch)
        flags = out["ok_referential"].to_pylist()
        assert flags[:5] == [True] * 5
        assert flags[5] is False
