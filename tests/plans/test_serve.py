"""The one request path: every entry point agrees on every request."""

import pytest

from repro.obs.baseline import BaselineScenario, _scenario_run, run_scenario
from repro.plans import BatchRequest, PlanCache, resolve_request, run_batch
from repro.plans.serve import escalation, serve
from repro.recovery import RecoveryFailedError, RecoveryPolicy
from repro.service import ServerConfig, TransposeRequest, TransposeServer
from repro.service.request import stats_fingerprint

POLICY = "every=4"

#: (case id, request fields, the one resolved label all paths must give)
CASES = [
    ("cube-mpt-transient",
     dict(elements=256, algorithm="mpt", faults="tlinks=0-1@1-3"),
     "resume"),
    ("cube-mpt-permanent",
     dict(elements=256, algorithm="mpt", faults="links=0-1"),
     "surgery-detour"),
    ("torus-mpt",
     dict(elements=256, algorithm="mpt", topology="torus:4x4",
          faults="links=0-1,seed=3"),
     "clean"),
    ("torus-auto",
     dict(elements=256, topology="torus:4x4", faults="links=0-1,seed=3"),
     "clean"),
    ("pipeline-13x11",
     dict(elements=13 * 11, workload="pipeline:bitrev+transpose@13x11",
          faults="links=0-1,seed=3"),
     "surgery-detour"),
]


def problem(fields) -> BatchRequest:
    return BatchRequest(n=4, machine="cm", **fields)


@pytest.mark.parametrize(
    "fields,label", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_batch_server_and_baseline_agree(fields, label):
    batch = run_batch(
        [problem(fields)], recovery=RecoveryPolicy.from_spec(POLICY)
    ).outcomes[0]
    with TransposeServer(ServerConfig(workers=1, recovery=POLICY)) as server:
        served = server.submit(
            TransposeRequest(tenant="t", problem=problem(fields))
        ).result(timeout=60.0)
    assert served.status == "served"
    scenario = BaselineScenario(
        "table", "cm", 4, fields["elements"],
        algorithm=fields.get("algorithm", "auto"), faults=fields["faults"],
        cached=True, recovery=POLICY,
        topology=fields.get("topology", "cube"),
        workload=fields.get("workload"),
    )
    stats, algorithm, outcome = _scenario_run(scenario)
    counters = run_scenario(scenario)

    assert batch.algorithm == served.algorithm == algorithm
    assert counters["algorithm_tier"] == algorithm
    assert batch.resolved == served.resolved == outcome.resolved == label
    assert counters.get("resolved", label) == label
    assert batch.fingerprint == served.fingerprint == stats_fingerprint(stats)


def test_escalation_stages_follow_the_request():
    policy = RecoveryPolicy()
    clean = resolve_request(problem(dict(elements=256)))
    cube = resolve_request(problem(dict(elements=256, faults="links=0-1")))
    torus = resolve_request(problem(dict(
        elements=256, topology="torus:4x4", faults="links=0-1"
    )))
    pipeline = resolve_request(problem(dict(
        workload="fft@16x16", faults="links=0-1"
    )))
    assert escalation(clean, policy) == ("replay",)
    assert escalation(cube, policy) == ("recover", "ladder")
    assert escalation(cube) == ("degrade", "replay", "ladder")
    assert escalation(torus, policy) == ("degrade", "replay", "ladder")
    assert escalation(pipeline) == escalation(pipeline, policy) == (
        "recover",
    )


class TestUnverifiedRecovery:
    """A recovered run that fails self-verification is not served."""

    @pytest.fixture(autouse=True)
    def unverified(self, monkeypatch):
        monkeypatch.setattr(
            "repro.recovery.executor._verify_final_state",
            lambda *args: False,
        )

    PIPELINE = dict(workload="fft@16x16", faults="links=0-1,seed=3")

    def test_pipeline_has_no_next_stage_so_serve_raises(self):
        with pytest.raises(RecoveryFailedError, match="verification"):
            serve(resolve_request(problem(self.PIPELINE)), cache=PlanCache())

    def test_batch_raises(self):
        with pytest.raises(RecoveryFailedError):
            run_batch([problem(self.PIPELINE)])

    def test_server_reports_failed(self):
        with TransposeServer(ServerConfig(workers=1, retries=0)) as server:
            outcome = server.submit(
                TransposeRequest(tenant="t", problem=problem(self.PIPELINE))
            ).result(timeout=60.0)
        assert outcome.status == "failed"
        assert "verification" in outcome.error

    def test_transpose_moves_on_to_the_ladder(self):
        served = serve(
            resolve_request(problem(dict(elements=256, faults="links=0-1"))),
            recovery=RecoveryPolicy(),
        )
        assert served.resolved == "ladder"
        assert served.recovery.resolved == "ladder"
        assert served.skipped == (served.requested,)
