"""Tests for the content-addressed plan cache (LRU + disk tier)."""

import pytest

from repro.layout import partition as pt
from repro.machine.metrics import TransferStats
from repro.machine.presets import connection_machine, intel_ipsc
from repro.machine.trace import TraceRecorder
from repro.plans import (
    PlanCache,
    capture_transpose,
    plan_key,
    synthetic_matrix,
)
from repro.transpose.exchange import BufferPolicy

LAYOUT = pt.two_dim_cyclic(4, 4, 2, 2)


def _plan(params=None, layout=LAYOUT, algorithm="auto"):
    params = params or intel_ipsc(4)
    _, plan = capture_transpose(
        params, synthetic_matrix(layout), algorithm=algorithm
    )
    return plan


class TestPlanKey:
    def test_deterministic_across_calls(self):
        a = plan_key(intel_ipsc(4), LAYOUT, None, "spt")
        b = plan_key(intel_ipsc(4), LAYOUT, None, "spt")
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_known_value_pins_cross_session_stability(self):
        # Golden hash: if this changes, cached plans from earlier
        # sessions silently stop resolving — bump PLAN_FORMAT_VERSION
        # and the expectation together.
        assert (
            plan_key(intel_ipsc(4), LAYOUT, None, "spt")
            == "9da2d89e671ba031f83817652b8b7105"
            "2982550413fd11af2c0c7d21db0cc321"
        )

    def test_sensitive_to_every_input(self):
        base = plan_key(intel_ipsc(4), LAYOUT, None, "spt")
        assert plan_key(connection_machine(4), LAYOUT, None, "spt") != base
        assert plan_key(intel_ipsc(4), LAYOUT, None, "dpt") != base
        assert (
            plan_key(intel_ipsc(4), pt.two_dim_consecutive(4, 4, 2, 2), None, "spt")
            != base
        )
        assert plan_key(intel_ipsc(4), LAYOUT, None, "spt", packet_size=4) != base
        assert (
            plan_key(intel_ipsc(4), LAYOUT, None, "spt", dtype="float32") != base
        )
        assert (
            plan_key(
                intel_ipsc(4),
                LAYOUT,
                None,
                "spt",
                policy=BufferPolicy(mode="buffered"),
            )
            != base
        )

    def test_display_names_do_not_affect_key(self):
        params = intel_ipsc(4)
        renamed = type(params)(
            n=params.n,
            tau=params.tau,
            t_c=params.t_c,
            packet_capacity=params.packet_capacity,
            t_copy=params.t_copy,
            port_model=params.port_model,
            pipelined=params.pipelined,
            name="totally different",
        )
        assert plan_key(params, LAYOUT, None, "spt") == plan_key(
            renamed, LAYOUT, None, "spt"
        )


class TestLru:
    def test_hit_after_put(self):
        cache = PlanCache(capacity=4)
        plan = _plan()
        cache.put("k1", plan)
        assert cache.get("k1") is plan
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_counted(self):
        cache = PlanCache(capacity=4)
        assert cache.get("absent") is None
        assert cache.misses == 1

    def test_eviction_drops_least_recently_used(self):
        cache = PlanCache(capacity=2)
        plan = _plan()
        cache.put("a", plan)
        cache.put("b", plan)
        assert cache.get("a") is plan  # refresh "a"; "b" is now LRU
        cache.put("c", plan)
        assert cache.evictions == 1
        assert cache.get("b") is None  # evicted
        assert cache.get("a") is plan
        assert cache.get("c") is plan

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            PlanCache(capacity=0)


class TestDiskTier:
    def test_persists_across_instances(self, tmp_path):
        plan = _plan()
        PlanCache(path=tmp_path).put("deadbeef", plan)
        assert (tmp_path / "deadbeef.json").is_file()
        again = PlanCache(path=tmp_path)
        loaded = again.get("deadbeef")
        assert loaded == plan
        assert again.disk_hits == 1
        assert again.hits == 1

    def test_corrupt_file_is_a_miss(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        cache = PlanCache(path=tmp_path)
        assert cache.get("bad") is None
        assert cache.misses == 1

    @pytest.mark.parametrize("topology", ["torus:bogus", "torus:4x4x4"])
    def test_plan_with_invalid_topology_is_a_miss(self, tmp_path, topology):
        import json

        doc = _plan().to_json_dict()  # compiled for a 4-cube
        doc["machine"]["topology"] = topology
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        cache = PlanCache(path=tmp_path)
        assert cache.get("bad") is None
        assert cache.misses == 1

    def test_memory_tier_serves_before_disk(self, tmp_path):
        plan = _plan()
        cache = PlanCache(path=tmp_path)
        cache.put("k", plan)
        assert cache.get("k") is plan  # identity: memory hit, not a reload
        assert cache.disk_hits == 0


class TestInstrumentation:
    def test_counters_flow_into_transfer_stats(self):
        stats = TransferStats()
        cache = PlanCache(capacity=1, stats=stats)
        plan = _plan()
        cache.get("x")
        cache.put("a", plan)
        cache.put("b", plan)  # evicts "a"
        cache.get("b")
        assert stats.plan_misses == 1
        assert stats.plan_evictions == 1
        assert stats.plan_hits == 1
        assert "plan_hits=1" in stats.summary()

    def test_events_flow_into_trace_recorder(self):
        trace = TraceRecorder()
        cache = PlanCache(capacity=1, observer=trace)
        plan = _plan()
        cache.get("0123456789abcdef")
        cache.put("0123456789abcdef", plan)
        cache.get("0123456789abcdef")
        kinds = [e.detail for e in trace.cache_events]
        assert kinds == ["miss:0123456789ab", "hit:0123456789ab"]

    def test_get_or_compile_compiles_once(self):
        cache = PlanCache()
        plan = _plan()
        calls = []

        def compile_fn():
            calls.append(1)
            return plan

        first, hit1 = cache.get_or_compile("k", compile_fn)
        second, hit2 = cache.get_or_compile("k", compile_fn)
        assert (hit1, hit2) == (False, True)
        assert first is plan and second is plan
        assert len(calls) == 1
