"""Tests for the compiled-schedule IR: serialization, hashing, relabeling."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout import partition as pt
from repro.machine.presets import connection_machine, intel_ipsc
from repro.plans import (
    PLAN_FORMAT_VERSION,
    CollectOp,
    CompiledPlan,
    CopyOp,
    IdleOp,
    LayoutSpec,
    LocalOp,
    MachineSpec,
    PhaseOp,
    PlaceOp,
    PlanError,
    PlanMessage,
    RemapOp,
    canonical_key,
    capture_transpose,
    synthetic_matrix,
)

# -- strategies for random-but-valid plans --------------------------------------

keys = st.recursive(
    st.one_of(
        st.integers(-100, 100),
        st.text(max_size=6),
        st.booleans(),
        st.none(),
    ),
    lambda inner: st.tuples(inner, inner),
    max_leaves=4,
)

messages = st.builds(
    PlanMessage,
    src=st.integers(0, 15),
    dst=st.integers(0, 15),
    elements=st.integers(0, 1 << 12),
    keys=st.tuples(keys),
)

ops = st.one_of(
    st.builds(PhaseOp, messages=st.tuples(messages), exclusive=st.booleans()),
    st.builds(
        PlaceOp, node=st.integers(0, 15), size=st.integers(0, 100), key=keys
    ),
    st.builds(CollectOp, node=st.integers(0, 15), key=keys),
    st.builds(
        CopyOp,
        per_node=st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 100)), max_size=3
        ).map(tuple),
    ),
    st.builds(
        LocalOp,
        costs=st.one_of(
            st.floats(0, 10, allow_nan=False),
            st.lists(
                st.tuples(st.integers(0, 15), st.floats(0, 10)), max_size=3
            ).map(tuple),
        ),
        elements=st.one_of(st.none(), st.integers(0, 100)),
    ),
    st.builds(IdleOp),
    st.builds(RemapOp, mask=st.integers(0, 15)),
)

plans = st.builds(
    CompiledPlan,
    algorithm=st.sampled_from(["spt", "dpt", "mpt", "exchange"]),
    machine=st.just(MachineSpec.from_params(intel_ipsc(4))),
    before=st.just(LayoutSpec.from_layout(pt.two_dim_cyclic(4, 4, 2, 2))),
    after=st.just(LayoutSpec.from_layout(pt.two_dim_cyclic(4, 4, 2, 2))),
    ops=st.lists(ops, max_size=8).map(tuple),
    dtype=st.sampled_from(["float64", "float32"]),
)


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(plan=plans)
    def test_loads_dumps_identity(self, plan):
        assert CompiledPlan.loads(plan.dumps()) == plan

    @settings(max_examples=100, deadline=None)
    @given(plan=plans)
    def test_fingerprint_stable_under_round_trip(self, plan):
        assert CompiledPlan.loads(plan.dumps()).fingerprint == plan.fingerprint

    def test_real_capture_round_trips(self):
        _, plan = capture_transpose(
            intel_ipsc(4), synthetic_matrix(pt.two_dim_cyclic(4, 4, 2, 2))
        )
        again = CompiledPlan.loads(plan.dumps())
        assert again == plan
        assert again.fingerprint == plan.fingerprint

    def test_dumps_is_canonical_json(self):
        _, plan = capture_transpose(
            intel_ipsc(4), synthetic_matrix(pt.two_dim_cyclic(4, 4, 2, 2))
        )
        doc = json.loads(plan.dumps())
        assert list(doc) == sorted(doc)
        assert doc["format_version"] == PLAN_FORMAT_VERSION
        assert doc["dtype"] == "float64"
        assert doc["code_version"] != "unknown"


class TestValidation:
    def test_wrong_format_version_refused(self):
        _, plan = capture_transpose(
            intel_ipsc(2), synthetic_matrix(pt.row_consecutive(3, 3, 2))
        )
        doc = plan.to_json_dict()
        doc["format_version"] = PLAN_FORMAT_VERSION + 1
        with pytest.raises(PlanError, match="format version"):
            CompiledPlan.from_json_dict(doc)

    def test_not_json_refused(self):
        with pytest.raises(PlanError, match="not valid JSON"):
            CompiledPlan.loads("{truncated")

    def test_non_object_refused(self):
        with pytest.raises(PlanError, match="JSON object"):
            CompiledPlan.loads("[1, 2]")

    @pytest.mark.parametrize(
        "topology, match",
        [("torus:bogus", "bad plan topology"), ("torus:4x4x4", "64 nodes")],
    )
    def test_invalid_topology_refused(self, topology, match):
        _, plan = capture_transpose(
            intel_ipsc(4), synthetic_matrix(pt.two_dim_cyclic(4, 4, 2, 2))
        )
        doc = plan.to_json_dict()
        doc["machine"]["topology"] = topology
        with pytest.raises(PlanError, match=match):
            CompiledPlan.from_json_dict(doc)

    def test_canonical_key_numpy_ints_become_ints(self):
        key = canonical_key(("pp", np.int64(3), np.int32(1)))
        assert key == ("pp", 3, 1)
        assert all(not isinstance(k, np.integer) for k in key)

    def test_canonical_key_rejects_unserializable(self):
        with pytest.raises(PlanError, match="not"):
            canonical_key(object())


class TestRelabeling:
    def test_relabeled_zero_is_identity(self):
        _, plan = capture_transpose(
            intel_ipsc(4), synthetic_matrix(pt.two_dim_cyclic(4, 4, 2, 2))
        )
        assert plan.relabeled(0) is plan

    def test_relabeled_prepends_remap(self):
        _, plan = capture_transpose(
            intel_ipsc(4), synthetic_matrix(pt.two_dim_cyclic(4, 4, 2, 2))
        )
        shifted = plan.relabeled(5)
        assert shifted.ops[0] == RemapOp(5)
        assert shifted.ops[1:] == plan.ops

    def test_relabeled_mask_outside_cube_rejected(self):
        _, plan = capture_transpose(
            intel_ipsc(4), synthetic_matrix(pt.two_dim_cyclic(4, 4, 2, 2))
        )
        with pytest.raises(PlanError, match="mask"):
            plan.relabeled(1 << 4)


class TestSpecs:
    def test_machine_spec_round_trips_params(self):
        params = connection_machine(6)
        spec = MachineSpec.from_params(params)
        assert spec.to_params() == params
        assert spec.compatible_with(params)
        assert MachineSpec.from_dict(spec.as_dict()) == spec

    def test_machine_spec_compatibility_ignores_name(self):
        params = intel_ipsc(4)
        renamed = MachineSpec.from_params(params)
        renamed = MachineSpec(**{**renamed.as_dict(), "name": "other"})
        assert renamed.compatible_with(params)

    def test_layout_spec_round_trips_layout(self):
        layout = pt.two_dim_mixed(
            4, 4, 2, 2, rows="cyclic", cols="cyclic", col_gray=True
        )
        spec = LayoutSpec.from_layout(layout)
        assert spec.to_layout() == layout
        assert LayoutSpec.from_dict(spec.as_dict()) == spec
