"""The issue's acceptance scenario, end to end.

One faulted, plan-cached MPT request is served twice through
:func:`repro.plans.serve.serve` under a single instrumentation hub and exported
as Chrome trace JSON.  The trace must show the full nesting — serve
(run) -> replay (algorithm) -> phase leaves — and the spans must carry
the fault-ladder, cache and fault-counter annotations.
"""

import json

from repro.obs import ChromeTraceSink, Instrumentation
from repro.plans import BatchRequest, PlanCache, resolve_request, serve
from repro.transpose.planner import schedule_links

N = 4


def _dpt_only_link():
    """A link only DPT schedules: faulting it degrades MPT -> DPT."""
    extra = sorted(schedule_links("mpt", N) - schedule_links("dpt", N))
    if extra:  # fault an MPT-only link instead: MPT -> DPT directly
        return extra[0], ("mpt",)
    extra = sorted(schedule_links("dpt", N) - schedule_links("spt", N))
    return extra[0], ("mpt", "dpt")


def test_faulted_cached_mpt_run_exports_annotated_chrome_trace(tmp_path):
    (src, dst), expected_skips = _dpt_only_link()
    resolved = resolve_request(BatchRequest(
        elements=16, n=N, machine="cm", algorithm="mpt",
        faults=f"links={src}-{dst}",
    ))
    cache = PlanCache()
    sink = ChromeTraceSink()
    hub = Instrumentation(sink)

    first = serve(resolved, cache=cache, observer=hub)
    second = serve(resolved, cache=cache, observer=hub)

    # -- degradation and caching behaved --------------------------------
    assert first.requested == "mpt"
    assert first.algorithm != "mpt"
    assert tuple(first.skipped) == expected_skips
    assert not first.cache_hit and second.cache_hit
    assert first.resolved == second.resolved == "degraded"
    assert second.stats.time == first.stats.time

    # -- span tree: serve (run) -> replay (algorithm) -> phase leaves ----
    serves = [s for s in hub.spans if s.name == "serve"]
    assert len(serves) == 2
    for span in serves:
        assert span.category == "run"
        assert span.attrs["requested"] == "mpt"
        assert span.attrs["tier"] == first.algorithm
        assert span.attrs["skipped"] == list(expected_skips)
        assert "link fault" in span.attrs["fault_spec"]
    assert serves[0].attrs["cache_hit"] is False
    assert serves[1].attrs["cache_hit"] is True
    # Cache events annotated onto the enclosing serve span.
    assert serves[0].attrs["cache_miss_events"] == 1
    assert serves[1].attrs["cache_hit_events"] == 1

    tree = hub.span_tree()
    for span in serves:
        replays = [
            s for s in tree[span.span_id] if s.category == "algorithm"
        ]
        assert [r.name for r in replays] == ["replay"]
        assert replays[0].attrs["algorithm"] == first.algorithm
        assert replays[0].attrs["fingerprint"]
        phases = [
            s
            for s in tree.get(replays[0].span_id, [])
            if s.category == "phase"
        ]
        assert phases, "replay must contain synthesized phase leaves"

    # -- metrics registry agrees with the observed run -------------------
    assert (
        hub.metrics.counter("plan_cache_events", event="miss").value == 1
    )
    assert hub.metrics.counter("plan_cache_events", event="hit").value == 1

    # -- the Chrome trace round-trips and preserves the nesting ----------
    path = tmp_path / "serve.trace.json"
    sink.write(path)
    doc = json.loads(path.read_text())
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    by_id = {e["args"]["span_id"]: e for e in xs}
    serve_events = [e for e in xs if e["name"] == "serve"]
    assert len(serve_events) == 2
    replay_events = [e for e in xs if e["name"] == "replay"]
    assert {e["args"]["parent_id"] for e in replay_events} == {
        e["args"]["span_id"] for e in serve_events
    }
    for e in replay_events:
        parent = by_id[e["args"]["parent_id"]]
        assert parent["ts"] <= e["ts"]
        assert e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + 1e-9
    cache_markers = [
        e
        for e in doc["traceEvents"]
        if e["ph"] == "i" and e["name"] == "plan-cache"
    ]
    assert [m["args"]["event"] for m in cache_markers] == ["miss", "hit"]
