"""Serving compiled pipelines: cache, recovery, batch, and the server."""

import pytest

from repro.machine.presets import connection_machine
from repro.plans.batch import BatchRequest, resolve_request, run_batch
from repro.plans.cache import PlanCache
from repro.plans.serve import serve
from repro.workloads import build_pipeline


def pipeline_request(workload, n, faults=None):
    return resolve_request(
        BatchRequest(n=n, machine="cm", workload=workload, faults=faults)
    )


class TestServeWorkload:
    def test_second_serve_hits_the_cache(self):
        resolved = pipeline_request("fft@64x64", 6)
        cache = PlanCache()
        first = serve(resolved, cache=cache)
        second = serve(resolved, cache=cache)
        assert not first.cache_hit and second.cache_hit
        assert first.resolved == second.resolved == "clean"
        assert first.stats.as_dict() == second.stats.as_dict()

    def test_faulted_serve_recovers_and_verifies(self):
        resolved = pipeline_request(
            "pipeline:bitrev+transpose@13x11", 4, "links=0-1,seed=3"
        )
        served = serve(resolved, cache=PlanCache())
        assert served.resolved.startswith("surgery")
        assert served.verified is True
        assert served.recovery is not None

    def test_transient_faults_resume(self):
        resolved = pipeline_request("fft@16x16", 4, "tlinks=0-1@1-3")
        served = serve(resolved, cache=PlanCache())
        assert served.resolved in ("resume", "clean")
        assert served.verified is True


class TestBatchIntegration:
    def test_workload_requests_share_the_cache(self):
        requests = [
            BatchRequest(n=6, machine="cm", workload="fft@64x64"),
            BatchRequest(n=6, machine="cm", workload="fft@64x64"),
        ]
        report = run_batch(requests)
        assert report.misses == 1 and report.hits == 1
        assert report.outcomes[0].key == report.outcomes[1].key
        assert report.outcomes[0].elements == 64 * 64

    def test_mixed_transpose_and_workload_batch(self):
        requests = [
            BatchRequest(elements=256, n=4, machine="cm"),
            BatchRequest(n=4, machine="cm",
                         workload="bitrev+transpose@13x11"),
        ]
        report = run_batch(requests)
        assert len(report.outcomes) == 2
        assert report.outcomes[1].algorithm.startswith("pipeline:")

    def test_faulted_workload_request_recovers(self):
        report = run_batch([
            BatchRequest(n=4, machine="cm", workload="fft@16x16",
                         faults="links=0-1,seed=3"),
        ])
        outcome = report.outcomes[0]
        assert outcome.resolved.startswith("surgery")
        assert outcome.recovery is not None and outcome.recovery["recovered"]

    def test_workload_requires_cube_topology(self):
        with pytest.raises(ValueError, match="cube topology"):
            run_batch([
                BatchRequest(n=6, machine="cm", workload="fft@64x64",
                             topology="torus:4x4x4"),
            ])

    def test_bad_spec_surfaces_typed_error(self):
        from repro.workloads import WorkloadSpecError

        with pytest.raises(WorkloadSpecError, match="unknown stage"):
            run_batch([BatchRequest(n=4, workload="pipeline:frob")])


class TestServerIntegration:
    def test_served_pipeline_end_to_end(self):
        """Cache hit on the second request, trace validates, faulted
        request recovers — the ISSUE's acceptance path."""
        from repro.obs import spans_from_chrome_document, validate_trace
        from repro.service import (
            ServerConfig,
            TransposeRequest,
            TransposeServer,
        )

        config = ServerConfig(workers=2, trace=True)
        with TransposeServer(config) as server:
            clean = {"tenant": "t0", "workload": "fft@64x64",
                     "n": 6, "machine": "cm"}
            faulted = {
                "tenant": "t1", "n": 4, "machine": "cm",
                "workload": "pipeline:bitrev+transpose@13x11",
                "faults": "links=0-1,seed=3",
            }
            pendings = [
                server.submit(TransposeRequest.from_dict(d))
                for d in (clean, clean, faulted)
            ]
            outcomes = [p.result(60.0) for p in pendings]
        first, second, recovered = outcomes
        assert [o.status for o in outcomes] == ["served"] * 3
        assert not first.cache_hit and second.cache_hit
        assert first.fingerprint == second.fingerprint
        assert recovered.resolved.startswith("surgery")
        assert recovered.recovery["recovered"]
        doc = server.trace_document()
        assert doc["traceEvents"]
        assert validate_trace(spans_from_chrome_document(doc)) == []

    def test_admission_rejects_bad_specs_synchronously(self):
        from repro.service import (
            ServerConfig,
            TransposeRequest,
            TransposeServer,
        )

        with TransposeServer(ServerConfig(workers=1)) as server:
            with pytest.raises(ValueError, match="unknown stage"):
                server.submit(TransposeRequest.from_dict(
                    {"tenant": "t", "n": 4, "workload": "pipeline:frob"}
                ))
            with pytest.raises(ValueError, match="cube topology"):
                server.submit(TransposeRequest.from_dict({
                    "tenant": "t", "n": 6, "workload": "fft@64x64",
                    "topology": "torus:4x4x4",
                }))

    def test_resolver_keys_match_pipeline_keys(self):
        from repro.service import TransposeRequest
        from repro.service.scheduler import resolve_request

        request = TransposeRequest.from_dict(
            {"tenant": "t", "n": 6, "machine": "cm", "workload": "fft@64x64"}
        )
        resolved = resolve_request(request)
        pipeline = build_pipeline("fft@64x64", 6)
        assert resolved.key == pipeline.key(connection_machine(6))
        assert resolved.workload == pipeline.spec
        assert resolved.algorithm == pipeline.algorithm


class TestLoadgenIntegration:
    def test_workload_mix_verifies_bit_identically(self):
        from repro.service import LoadSpec
        from repro.service.loadgen import run_loadgen

        spec = LoadSpec(
            seed=7, tenants=2, requests=12, n=4, machine="cm",
            workload="pipeline:bitrev+transpose@13x11",
            workload_every=3, verify_sample=4,
        )
        report = run_loadgen(spec)
        assert report.ok
        assert report.verified > 0

    def test_workload_requires_positive_cadence(self):
        from repro.service import LoadSpec

        with pytest.raises(ValueError, match="workload_every"):
            LoadSpec(workload="fft@64x64", workload_every=0)

    def test_bad_workload_spec_rejected_at_construction(self):
        from repro.service import LoadSpec
        from repro.workloads import WorkloadSpecError

        with pytest.raises(WorkloadSpecError):
            LoadSpec(workload="pipeline:frob", workload_every=4)
