"""The benchmark harness: smoke grid, verification, and JSON schema."""

import json

import numpy as np
import pytest

from repro.bench import (
    BenchCase,
    default_grid,
    results_payload,
    run_case,
    run_grid,
    smoke_grid,
    write_results,
)
from repro.bench.harness import (
    BACKEND_SELECT,
    BACKEND_SELECT_BACKENDS,
    INGEST,
    INGEST_MODES,
    PIR_ROUNDTRIP,
    REFERENCE,
    SCHEMA_VERSION,
    SERVING,
    _reference_blocks,
)
from repro.gpu import available_strategies


class TestGrids:
    def test_smoke_grid_covers_every_strategy(self):
        strategies = {case.strategy for case in smoke_grid()}
        assert set(available_strategies()) <= strategies
        assert REFERENCE in strategies

    def test_smoke_grid_is_small(self):
        for case in smoke_grid():
            assert case.log_domain <= 8
            assert case.repeats == 1 and case.warmup == 0

    def test_default_grid_prunes_branch_parallel_blowup(self):
        for case in default_grid(log_domains=(10, 16)):
            if case.strategy == "branch_parallel":
                assert case.log_domain <= 12

    def test_default_grid_includes_headline_case(self):
        cases = default_grid()
        assert any(
            c.prf == "aes128" and c.strategy == REFERENCE and c.log_domain == 16
            for c in cases
        )

    def test_default_grid_covers_every_ingest_mode(self):
        cases = default_grid()
        modes = {c.ingest for c in cases}
        assert set(INGEST_MODES) <= modes
        # Ingestion micro-cases exist at batch >= 64 in both paths.
        assert any(
            c.strategy == INGEST and c.batch >= 64 and c.ingest == "wire"
            for c in cases
        )
        assert any(
            c.strategy == INGEST and c.batch >= 64 and c.ingest == "objects"
            for c in cases
        )
        # Every arena case has a same-shape objects twin to compare to.
        # (Serving sessions are exempt: the aggregation loop speaks the
        # framed wire protocol only, so no objects twin exists.)
        base = {
            (c.prf, c.strategy, c.batch, c.log_domain)
            for c in cases
            if c.ingest == "objects"
        }
        for case in cases:
            if case.ingest != "objects" and case.strategy != SERVING:
                assert (case.prf, case.strategy, case.batch, case.log_domain) in base

    def test_default_grid_honors_axis_restrictions(self):
        cases = default_grid(prfs=["chacha20"], strategies=["memory_bounded"])
        assert cases
        assert all(c.prf == "chacha20" for c in cases)
        assert all(c.strategy == "memory_bounded" for c in cases)
        ingest_only = default_grid(prfs=["aes128"], strategies=[INGEST])
        assert ingest_only
        assert all(c.strategy == INGEST for c in ingest_only)
        # An explicit ingest request without aes128 runs on the
        # requested PRF rather than silently producing no cases.
        chacha_ingest = default_grid(prfs=["chacha20"], strategies=[INGEST])
        assert chacha_ingest
        assert all(c.prf == "chacha20" for c in chacha_ingest)

    def test_smoke_grid_covers_ingest_modes(self):
        cases = smoke_grid()
        assert any(c.ingest == "wire" and c.strategy != INGEST for c in cases)
        assert any(c.ingest == "arena" for c in cases)
        assert any(c.strategy == INGEST for c in cases)


class TestPirRoundtripFamily:
    def test_smoke_grid_covers_every_pir_serving_path(self):
        modes = {c.ingest for c in smoke_grid() if c.strategy == PIR_ROUNDTRIP}
        assert modes == set(INGEST_MODES)

    def test_default_grid_includes_the_family(self):
        cases = [c for c in default_grid() if c.strategy == PIR_ROUNDTRIP]
        assert {c.ingest for c in cases} == set(INGEST_MODES)
        # Both the small and the large table size are covered.
        assert len({c.log_domain for c in cases}) == 2

    def test_family_honors_strategy_restriction(self):
        assert not any(
            c.strategy == PIR_ROUNDTRIP
            for c in default_grid(strategies=["memory_bounded"])
        )
        only_pir = default_grid(prfs=["chacha20"], strategies=[PIR_ROUNDTRIP])
        assert only_pir
        assert all(c.strategy == PIR_ROUNDTRIP for c in only_pir)
        assert all(c.prf == "chacha20" for c in only_pir)

    @pytest.mark.parametrize("mode", INGEST_MODES)
    def test_pir_case_measures_and_verifies(self, mode):
        case = BenchCase(
            "siphash", PIR_ROUNDTRIP, 2, 5, ingest=mode, repeats=1, warmup=0
        )
        result = run_case(case)
        assert result.strategy == PIR_ROUNDTRIP
        assert result.qps > 0 and result.seconds > 0
        assert result.verified
        assert result.prf_blocks == 0 and result.peak_mem_bytes == 0

    def test_pir_case_unknown_ingest_rejected(self):
        with pytest.raises(ValueError, match="unknown ingest mode"):
            run_case(
                BenchCase("siphash", PIR_ROUNDTRIP, 1, 4, ingest="bogus", repeats=1)
            )


class TestServingFamily:
    def test_smoke_grid_includes_a_serving_session(self):
        serving = [c for c in smoke_grid() if c.strategy == SERVING]
        assert serving
        assert all(c.slo_ms > 0 for c in serving)

    def test_default_grid_sweeps_load_and_slo(self):
        serving = [c for c in default_grid() if c.strategy == SERVING]
        assert {(c.offered_qps, c.slo_ms) for c in serving} == {
            (0.0, 1.0),
            (0.0, 8.0),
            (512.0, 1.0),
            (512.0, 8.0),
        }

    def test_family_honors_strategy_restriction(self):
        assert not any(
            c.strategy == SERVING for c in default_grid(strategies=["memory_bounded"])
        )
        only_serving = default_grid(prfs=["chacha20"], strategies=[SERVING])
        assert only_serving
        assert all(c.strategy == SERVING for c in only_serving)

    def test_serving_case_measures_verifies_and_reports_percentiles(self):
        case = BenchCase(
            "siphash", SERVING, 6, 5, ingest="wire", repeats=1, warmup=0, slo_ms=2.0
        )
        result = run_case(case)
        assert result.verified
        assert result.qps > 0 and result.seconds > 0
        assert result.p99_ms >= result.p50_ms > 0
        assert result.slo_ms == 2.0 and result.offered_qps == 0.0
        assert result.prf_blocks == 0 and result.peak_mem_bytes == 0

    def test_serving_case_requires_a_deadline(self):
        with pytest.raises(ValueError, match="slo_ms"):
            run_case(BenchCase("siphash", SERVING, 2, 4, repeats=1))

    def test_describe_carries_load_and_slo(self):
        burst = BenchCase("aes128", SERVING, 8, 10, slo_ms=1.0)
        paced = BenchCase("aes128", SERVING, 8, 10, offered_qps=512.0, slo_ms=8.0)
        assert "load=burst" in burst.describe() and "slo=1ms" in burst.describe()
        assert "load=512" in paced.describe() and "slo=8ms" in paced.describe()


class TestSchema8Axes:
    """The plan_cache / procs serving axes added by schema 8."""

    def test_describe_carries_cache_and_procs(self):
        warm = BenchCase(
            "aes128", SERVING, 8, 10, slo_ms=8.0, shards=2, plan_cache=True, procs=2
        )
        assert "cache=on" in warm.describe()
        assert "procs=2" in warm.describe()
        cold = BenchCase("aes128", SERVING, 8, 10, slo_ms=8.0)
        assert "cache=on" not in cold.describe()
        assert "procs" not in cold.describe()

    def test_default_grid_interleaves_plan_cache_twins(self):
        import dataclasses

        serving = [c for c in default_grid() if c.strategy == SERVING]
        warm = [c for c in serving if c.plan_cache]
        assert warm, "default grid lost its warm plan-cache rows"
        for index, case in enumerate(serving):
            if case.plan_cache:
                # Each warm row sits right after its identical cold twin
                # so the pair runs back to back in the same session.
                assert dataclasses.replace(serving[index - 1], plan_cache=True) == case

    def test_default_grid_backs_a_sharded_row_with_worker_pools(self):
        serving = [c for c in default_grid() if c.strategy == SERVING]
        pooled = [c for c in serving if c.procs]
        assert pooled
        assert all(c.shards > 0 for c in pooled)

    def test_smoke_grid_covers_both_new_axes(self):
        serving = [c for c in smoke_grid() if c.strategy == SERVING]
        assert any(c.plan_cache for c in serving)
        assert any(c.procs for c in serving)

    def test_procs_without_shards_rejected(self):
        case = BenchCase(
            "siphash", SERVING, 4, 4, slo_ms=2.0, procs=2, repeats=1, warmup=0
        )
        with pytest.raises(ValueError, match="shard"):
            run_case(case)

    def test_negative_procs_rejected(self):
        case = BenchCase(
            "siphash", SERVING, 4, 4, slo_ms=2.0, shards=2, procs=-1, repeats=1,
            warmup=0,
        )
        with pytest.raises(ValueError, match="procs"):
            run_case(case)

    def test_plan_cache_serving_case_reports_live_counters(self):
        warm = run_case(
            BenchCase(
                "siphash", SERVING, 6, 5, ingest="wire", repeats=1, warmup=0,
                slo_ms=2.0, plan_cache=True,
            )
        )
        assert warm.verified
        assert warm.plan_cache
        assert warm.plan_cache_hits + warm.plan_cache_misses > 0
        cold = run_case(
            BenchCase(
                "siphash", SERVING, 6, 5, ingest="wire", repeats=1, warmup=0,
                slo_ms=2.0,
            )
        )
        assert not cold.plan_cache
        assert cold.plan_cache_hits == 0
        assert cold.plan_cache_misses == 0
        assert cold.overlap_flushes == 0


class TestBackendSelectFamily:
    """The schema-9 Figure 10 family: modeled pricing, verified answers."""

    def test_smoke_grid_runs_every_backend(self):
        rows = [c for c in smoke_grid() if c.strategy == BACKEND_SELECT]
        assert {c.backend for c in rows} == set(BACKEND_SELECT_BACKENDS)
        # Two batch sizes, so routing sees both sides of the axis.
        assert len({c.batch for c in rows}) == 2

    def test_default_grid_interleaves_backend_triples(self):
        rows = [c for c in default_grid() if c.strategy == BACKEND_SELECT]
        assert rows, "default grid lost the backend_select family"
        assert {c.prf for c in rows} == {"aes128", "chacha20"}
        assert {c.batch for c in rows} == {1, 16, 256}
        # cpu / gpu / hybrid run back to back at every shape, so
        # host-load drift across the grid cannot skew the comparison.
        for i in range(0, len(rows), 3):
            triple = rows[i : i + 3]
            assert [c.backend for c in triple] == list(BACKEND_SELECT_BACKENDS)
            assert len({(c.prf, c.batch, c.log_domain) for c in triple}) == 1

    def test_family_honors_strategy_restriction(self):
        assert not any(
            c.strategy == BACKEND_SELECT
            for c in default_grid(strategies=["memory_bounded"])
        )
        only = default_grid(prfs=["siphash"], strategies=[BACKEND_SELECT])
        assert only
        assert all(c.strategy == BACKEND_SELECT for c in only)
        assert all(c.prf == "siphash" for c in only)

    @pytest.mark.parametrize("backend", BACKEND_SELECT_BACKENDS)
    def test_case_verifies_then_prices(self, backend):
        case = BenchCase(
            "aes128", BACKEND_SELECT, 4, 6, backend=backend, repeats=1, warmup=0
        )
        result = run_case(case)
        assert result.backend == backend
        assert result.verified
        assert result.qps > 0 and result.seconds > 0
        assert result.prf_blocks > 0 and result.peak_mem_bytes > 0

    def test_hybrid_row_matches_the_better_twin(self):
        """The acceptance criterion at one shape: hybrid QPS is the max
        of its cpu/gpu twins (it routes to whichever model is cheaper)."""
        by_backend = {}
        for backend in BACKEND_SELECT_BACKENDS:
            case = BenchCase(
                "aes128", BACKEND_SELECT, 2, 8, backend=backend, repeats=1, warmup=0
            )
            by_backend[backend] = run_case(case).qps
        assert by_backend["hybrid"] == pytest.approx(
            max(by_backend["cpu"], by_backend["gpu"])
        )

    def test_unknown_backend_rejected(self):
        case = BenchCase(
            "aes128", BACKEND_SELECT, 2, 6, backend="tpu", repeats=1, warmup=0
        )
        with pytest.raises(ValueError, match="unknown backend"):
            run_case(case)

    def test_describe_carries_the_backend_axis(self):
        case = BenchCase("aes128", BACKEND_SELECT, 2, 8, backend="hybrid")
        assert "backend=hybrid" in case.describe()

    def test_result_echoes_the_backend_axis(self):
        eval_row = run_case(
            BenchCase("siphash", "memory_bounded", 1, 4, repeats=1, warmup=0)
        )
        assert eval_row.backend == ""


class TestDescribe:
    def test_describe_carries_every_axis(self):
        case = BenchCase("aes128", PIR_ROUNDTRIP, 4, 10, ingest="wire")
        text = case.describe()
        for token in ("aes128", "pir_roundtrip", "wire", "B=4", "L=2^10"):
            assert token in text

    def test_run_grid_progress_uses_describe(self):
        lines = []
        run_grid(
            [BenchCase("siphash", REFERENCE, 1, 3, repeats=1, warmup=0)],
            progress=lines.append,
        )
        assert lines == [BenchCase("siphash", REFERENCE, 1, 3, repeats=1, warmup=0).describe()]


class TestRunCase:
    def test_strategy_case_measures_and_verifies(self):
        case = BenchCase("chacha20", "memory_bounded", 2, 6, repeats=1, warmup=0)
        result = run_case(case)
        assert result.qps > 0
        assert result.seconds > 0
        assert result.verified
        assert result.peak_mem_bytes > 0
        assert result.domain_size == 64
        assert result.prf_blocks > 0
        assert result.ns_per_prf_block == pytest.approx(
            result.seconds * 1e9 / result.prf_blocks
        )

    @pytest.mark.parametrize("mode", ("wire", "arena"))
    def test_ingest_mode_eval_cases_measure_and_verify(self, mode):
        case = BenchCase(
            "chacha20", "memory_bounded", 2, 6, ingest=mode, repeats=1, warmup=0
        )
        result = run_case(case)
        assert result.ingest == mode
        assert result.qps > 0 and result.verified
        # The peak is metered on the actual ingest path, not a proxy.
        objects = run_case(
            BenchCase("chacha20", "memory_bounded", 2, 6, repeats=1, warmup=0)
        )
        assert result.peak_mem_bytes == objects.peak_mem_bytes > 0

    def test_ingest_micro_case(self):
        case = BenchCase("siphash", INGEST, 8, 6, ingest="wire", repeats=1, warmup=0)
        result = run_case(case)
        assert result.strategy == INGEST
        assert result.prf_blocks == 0 and result.ns_per_prf_block == 0.0
        assert result.qps > 0 and result.verified
        objects = run_case(
            BenchCase("siphash", INGEST, 8, 6, ingest="objects", repeats=1, warmup=0)
        )
        assert objects.qps > 0

    def test_ingest_micro_rejects_arena_mode(self):
        with pytest.raises(ValueError, match="'wire' or 'objects'"):
            run_case(BenchCase("siphash", INGEST, 2, 4, ingest="arena", repeats=1))

    def test_reference_rejects_arena_modes(self):
        with pytest.raises(ValueError, match="no arena ingestion"):
            run_case(BenchCase("siphash", REFERENCE, 1, 4, ingest="wire", repeats=1))

    def test_unknown_ingest_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown ingest mode"):
            run_case(
                BenchCase("siphash", "memory_bounded", 1, 4, ingest="bogus", repeats=1)
            )

    def test_reference_case(self):
        case = BenchCase("siphash", REFERENCE, 1, 5, repeats=1, warmup=0)
        result = run_case(case)
        # Two blocks per inner node of the 2^4-leaf word-packed tree.
        assert result.prf_blocks == _reference_blocks(1, 5) == 2 * (2**4 - 1)
        assert not result.verified  # nothing to verify against itself

    def test_verification_catches_divergence(self, monkeypatch):
        from repro.gpu.strategies import LevelByLevel, Strategy

        def broken_eval_batch(self, *args, **kwargs):
            return Strategy.eval_batch(self, *args, **kwargs) + np.uint64(1)

        monkeypatch.setattr(LevelByLevel, "eval_batch", broken_eval_batch)
        case = BenchCase("siphash", "level_by_level", 1, 4, repeats=1, warmup=0)
        with pytest.raises(ValueError, match="diverged"):
            run_case(case)


class TestJsonOutput:
    def test_payload_schema_and_roundtrip(self, tmp_path):
        results = run_grid(
            [BenchCase("siphash", "memory_bounded", 1, 4, repeats=1, warmup=0)]
        )
        payload = results_payload(results)
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["host"]["numpy"]
        path = tmp_path / "bench.json"
        write_results(results, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["results"][0]["strategy"] == "memory_bounded"
        assert loaded["results"][0]["qps"] > 0

    def test_progress_callback_fires(self):
        lines = []
        run_grid(
            [BenchCase("siphash", REFERENCE, 1, 3, repeats=1, warmup=0)],
            progress=lines.append,
        )
        assert len(lines) == 1 and "siphash" in lines[0]
