"""Fault-ladder integration: replay a cached tier instead of re-planning."""

import pytest

from repro.machine.faults import DisconnectedCubeError, FaultPlan
from repro.plans import BatchRequest, PlanCache, resolve_request, serve
from repro.transpose.planner import degrade_strategy, schedule_links

N = 4


def serve_faulted(machine, faults, cache, **problem):
    """Serve a 4x4 2-D transpose on the 4-cube without a recovery
    policy: the degrade, replay, ladder stages."""
    problem.setdefault("elements", 16)
    problem.setdefault("n", N)
    return serve(
        resolve_request(
            BatchRequest(machine=machine, faults=faults, **problem)
        ),
        cache=cache,
    )


def _dpt_only_link():
    """A directed link DPT schedules but SPT does not (forces the ladder
    down to SPT when faulted)."""
    extra = sorted(schedule_links("dpt", N) - schedule_links("spt", N))
    assert extra, "DPT must schedule links SPT does not"
    return extra[0]


class TestDegradeStrategy:
    def test_clean_plan_passes_through(self):
        assert degrade_strategy("mpt", N, None) == ("mpt", ())
        assert degrade_strategy("mpt", N, FaultPlan.from_spec(N, "seed=1")) == (
            "mpt",
            (),
        )

    def test_non_ladder_names_pass_through(self):
        faults = FaultPlan.from_spec(N, "links=0-1")
        assert degrade_strategy("exchange", N, faults) == ("exchange", ())
        assert degrade_strategy("router", N, faults) == ("router", ())

    def test_faulted_tier_is_skipped(self):
        src, dst = _dpt_only_link()
        faults = FaultPlan.from_spec(N, f"links={src}-{dst}")
        tier, skipped = degrade_strategy("mpt", N, faults)
        assert tier == "spt"
        assert skipped == ("mpt", "dpt")


class TestReplayDegraded:
    def test_clean_machine_replays_requested_tier(self):
        cache = PlanCache()
        outcome = serve_faulted("ipsc", "seed=7", cache)
        assert outcome.algorithm == "spt"
        assert outcome.resolved != "degraded"
        assert outcome.resolved != "ladder"
        assert not outcome.cache_hit
        assert cache.misses == 1

    def test_faulted_ladder_replays_surviving_tier(self):
        src, dst = _dpt_only_link()
        outcome = serve_faulted("cm", f"links={src}-{dst}", PlanCache())
        # auto on an n-port machine requests MPT; the faulted link rules
        # out MPT and DPT, so the cached SPT plan replays.
        assert outcome.requested == "mpt"
        assert outcome.algorithm == "spt"
        assert outcome.skipped == ("mpt", "dpt")
        assert outcome.resolved == "degraded"
        assert outcome.stats.time > 0

    def test_second_call_hits_the_cache(self):
        src, dst = _dpt_only_link()
        cache = PlanCache()
        first = serve_faulted("cm", f"links={src}-{dst}", cache)
        second = serve_faulted("cm", f"links={src}-{dst}", cache)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.stats == first.stats
        assert cache.hits == 1 and cache.misses == 1

    def test_different_faults_same_tier_share_a_plan(self):
        extra = sorted(schedule_links("dpt", N) - schedule_links("spt", N))
        cache = PlanCache()
        first = serve_faulted(
            "cm", f"links={extra[0][0]}-{extra[0][1]}", cache
        )
        second = serve_faulted(
            "cm", f"links={extra[1][0]}-{extra[1][1]}", cache
        )
        # Two distinct fault scenarios degrade to the same tier and are
        # served by the same cached plan — the point of keying on the
        # resolved tier rather than the fault plan.
        assert first.algorithm == second.algorithm == "spt"
        assert second.cache_hit

    def test_disconnected_cube_raises(self):
        with pytest.raises(DisconnectedCubeError):
            serve_faulted(
                "ipsc",
                "links=0-1+1-0+0-2+2-0",
                PlanCache(),
                elements=64,
                n=2,
                layout="1d-rows",
            )

    def test_transient_fault_falls_back_to_direct_run(self):
        # A transient node fault defeats the proactive link check (it
        # rules out every exclusive tier), so the ladder lands on the
        # router; the router replay may then hit the transient window
        # and fall back to a direct fault-tolerant run.  Either way the
        # outcome must report a completed transpose.
        outcome = serve_faulted(
            "ipsc", "seed=3,transient_rate=0.05,window=4", PlanCache()
        )
        assert outcome.stats.time > 0
        assert outcome.algorithm in ("spt", "dpt", "mpt", "router")
