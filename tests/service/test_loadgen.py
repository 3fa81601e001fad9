"""Load generator: seeded determinism, soak behaviour, invariants."""

import pytest

from repro.service import (
    LoadSpec,
    ServerConfig,
    build_workload,
    deterministic_counters,
    run_loadgen,
)


class TestLoadSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            LoadSpec(mode="sideways")
        with pytest.raises(ValueError, match="fault_rate"):
            LoadSpec(fault_rate=1.5)
        with pytest.raises(ValueError, match="unknown loadgen"):
            LoadSpec.from_dict({"sead": 7})

    def test_dict_round_trip(self):
        spec = LoadSpec(seed=3, tenants=2, requests=10, fault_rate=0.5)
        assert LoadSpec.from_dict(spec.as_dict()) == spec

    def test_workload_without_a_shape_is_rejected(self):
        # Pipeline requests carry no element count, so a spec with no
        # @RxC would fail every one of them inside a client thread.
        with pytest.raises(ValueError, match="no @RxC shape"):
            LoadSpec(n=6, requests=40, tenants=2, workload="fft",
                     workload_every=5)


class TestWorkload:
    def test_workload_is_a_pure_function_of_the_spec(self):
        spec = LoadSpec(seed=5, tenants=3, requests=30, fault_rate=0.3)
        assert build_workload(spec) == build_workload(spec)
        other = build_workload(LoadSpec(seed=6, tenants=3, requests=30))
        assert build_workload(spec) != other

    def test_tenants_round_robin_and_shape_pool_bounded(self):
        spec = LoadSpec(seed=5, tenants=4, requests=40, shapes=3)
        requests = build_workload(spec)
        assert {r.tenant for r in requests} == {
            "tenant-0", "tenant-1", "tenant-2", "tenant-3"
        }
        shapes = {
            (r.problem.elements, r.problem.layout) for r in requests
        }
        assert len(shapes) <= 3


class TestRunLoadgen:
    def test_closed_loop_serves_everything_with_high_hit_rate(self):
        spec = LoadSpec(seed=7, tenants=4, requests=32, shapes=2,
                        verify_sample=4)
        report = run_loadgen(spec, ServerConfig(workers=2))
        slo = report.server.slo()
        assert slo["served"] == 32
        assert slo["rejected"] == 0
        # Compile-once/serve-many: 2 shapes -> at most 2+workers misses
        # (the benign double-compile race), everything else hits.
        assert report.server.cache["misses"] <= 2 + 2
        assert slo["cache_hit_rate"] >= (32 - 4) / 32
        assert report.ok and report.verified == 4
        assert "invariants" in report.summary()

    def test_open_loop_under_pressure_sheds_but_stays_sound(self):
        spec = LoadSpec(seed=9, tenants=3, requests=40, shapes=2,
                        mode="open", rate=5000.0, verify_sample=3)
        config = ServerConfig(
            workers=1, queue_capacity=4, tenant_pending=None
        )
        report = run_loadgen(spec, config)
        slo = report.server.slo()
        assert slo["rejected"] > 0, "open loop at 5000 rps must shed"
        assert slo["served"] + slo["rejected"] + slo["failed"] == 40
        assert slo["failed"] == 0
        assert report.invariant_violations == 0

    def test_unexpected_submit_error_fails_the_report(self, monkeypatch):
        from repro.service.server import TransposeServer

        submit = TransposeServer.submit

        def flaky(self, request, now=None):
            if request.request_id == 3:
                raise RuntimeError("lost in transit")
            return submit(self, request, now)

        monkeypatch.setattr(TransposeServer, "submit", flaky)
        report = run_loadgen(
            LoadSpec(seed=7, tenants=2, requests=8, verify_sample=0)
        )
        assert report.client_errors == 1
        assert not report.ok
        assert report.as_dict()["verification"]["client_errors"] == 1
        assert "1 client submit error(s)" in report.summary()

    def test_report_as_dict_shape(self):
        spec = LoadSpec(seed=1, tenants=1, requests=4, shapes=1,
                        verify_sample=2)
        doc = run_loadgen(spec, ServerConfig(workers=1)).as_dict()
        assert set(doc) == {"spec", "server", "verification", "ok"}
        assert doc["verification"]["violations"] == 0


class TestDeterministicCounters:
    def test_reproducible_and_conserved(self):
        spec = LoadSpec(seed=11, tenants=2, requests=20, shapes=2,
                        fault_rate=0.25)
        config = ServerConfig(queue_capacity=12, tenant_pending=5)
        a = deterministic_counters(spec, config)
        assert a == deterministic_counters(spec, config)
        assert a["admitted"] + a["rejected"] == a["requests"]
        assert a["served"] + a["failed"] == a["admitted"]
        assert a["cache_hits"] + a["cache_misses"] == a["served"]
        assert a["failed"] == 0

    def test_fault_storm_recovers_in_place(self):
        spec = LoadSpec(seed=11, tenants=2, requests=24, shapes=2,
                        fault_rate=0.5)
        counters = deterministic_counters(
            spec, ServerConfig(queue_capacity=64, tenant_pending=None)
        )
        assert counters["rejected"] == 0
        assert counters["recovered"] > 0
        assert counters["failed"] == 0


class TestPayloadSpotChecks:
    def test_sampled_requests_get_payload_byte_checks(self):
        spec = LoadSpec(seed=7, tenants=2, requests=12, shapes=2,
                        verify_sample=3)
        report = run_loadgen(spec, ServerConfig(workers=1))
        assert report.ok
        assert report.payload_checked == report.verified == 3
        doc = report.as_dict()
        assert doc["verification"]["payload_checked"] == 3
        assert "payload-byte" in report.summary()

    def test_solo_payload_check_is_bit_exact(self):
        from repro.service.loadgen import build_workload, solo_payload_check

        spec = LoadSpec(seed=7, tenants=1, requests=1, shapes=1)
        (request,) = build_workload(spec)
        verdict = solo_payload_check(request)
        assert verdict["ok"] is True
        assert verdict["served_crc"] == verdict["expected_crc"]
