"""The protocol model itself: state encoding, guards, enumeration."""

import pytest

from repro.check.model import (
    ABSENT,
    CLEAN,
    COMPLETE,
    DIRTY,
    TRANSITION_TABLE,
    UNISSUED,
    ModelOp,
    ProtocolModel,
    enumerate_programs,
    is_disciplined,
)


def ld(index, cluster, sb):
    return ModelOp(index, cluster, "load", sb)


def st(index, cluster, sb):
    return ModelOp(index, cluster, "store", sb)


class TestEnumeration:
    def test_program_count_is_shapes_to_the_length(self):
        # (clusters x kinds x subblocks) ** length
        programs = list(enumerate_programs(2, 2, 3))
        assert len(programs) == (2 * 2 * 2) ** 3
        assert all(len(p) == 3 for p in programs)
        assert all(
            op.index == i for p in programs for i, op in enumerate(p)
        )

    def test_single_op_programs(self):
        programs = list(enumerate_programs(2, 1, 1))
        assert len(programs) == 4  # 2 clusters x {load, store} x 1 sb

    def test_disciplined_requires_colocated_aliasing_pairs(self):
        assert is_disciplined([st(0, 0, 0), ld(1, 0, 0)])
        assert not is_disciplined([st(0, 0, 0), ld(1, 1, 0)])
        # Load-load pairs and distinct subblocks never constrain.
        assert is_disciplined([ld(0, 0, 0), ld(1, 1, 0)])
        assert is_disciplined([st(0, 0, 0), st(1, 1, 1)])


class TestModelBasics:
    def test_home_is_interleaved_by_subblock(self):
        model = ProtocolModel(2, 4, (ld(0, 0, 0),))
        assert model.homes == (0, 1, 0, 1)
        assert model.is_local(ld(0, 0, 0))
        assert not model.is_local(ld(0, 0, 1))

    def test_expected_versions_follow_program_order(self):
        model = ProtocolModel(
            2, 2, (ld(0, 0, 0), st(1, 0, 0), ld(2, 0, 0), ld(3, 0, 1))
        )
        assert model.expected_version(0) == 0  # before any store
        assert model.expected_version(2) == 2  # st op1 writes version 2
        assert model.expected_version(3) == 0  # other subblock untouched

    def test_initial_state_is_cold_and_unissued(self):
        model = ProtocolModel(2, 2, (ld(0, 0, 0), st(1, 1, 1)))
        state = model.initial_state()
        assert state.cache == (ABSENT, ABSENT)
        assert state.versions == (0, 0)
        assert all(status == UNISSUED for status, _ in state.ops)

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError, match="unknown mutation"):
            ProtocolModel(2, 2, (ld(0, 0, 0),), mutation="nonesuch")

    def test_mutation_only_transitions_gated(self):
        program = (ld(0, 0, 0),)
        faithful = ProtocolModel(2, 2, program)
        mutated = ProtocolModel(2, 2, program, mutation="stale_combining")
        names = {e.name for e in TRANSITION_TABLE}
        core = set(faithful.core_transitions())
        assert core < names
        assert "issue_remote_combine" in names
        assert "issue_remote_combine" not in core
        # The guard machinery never offers a gated transition.
        for model in (faithful, mutated):
            state = model.initial_state()
            enabled = {t.name for t in model.enabled(state)}
            assert enabled <= (
                core
                | ({"issue_remote_combine", "deliver_request_premature"}
                   if model.mutation else set())
            )


class TestExecution:
    def run_to_completion(self, model, pick=0):
        """Apply transitions (always the ``pick``-th enabled one) until
        quiescence; returns the final state and the trail of names."""
        state = model.initial_state()
        names = []
        for _ in range(100):
            enabled = model.enabled(state)
            if not enabled:
                return state, names
            t = enabled[min(pick, len(enabled) - 1)]
            names.append(t.name)
            state, _events = model.apply(state, t)
        raise AssertionError("model did not quiesce in 100 steps")

    def test_local_store_walks_miss_fill_dirty(self):
        model = ProtocolModel(2, 2, (st(0, 0, 0),))
        state, names = self.run_to_completion(model)
        assert names == ["issue_local_miss", "fill_complete"]
        assert state.cache[0] == DIRTY
        assert state.versions[0] == 1
        assert state.ops[0][0] == COMPLETE

    def test_remote_load_walks_request_response(self):
        model = ProtocolModel(2, 2, (ld(0, 1, 0),))  # home(0)=0, issuer c1
        state, names = self.run_to_completion(model)
        assert names == [
            "issue_remote", "deliver_request_miss", "fill_complete",
            "deliver_response",
        ]
        assert state.cache[0] == CLEAN
        assert state.ops[0] == (COMPLETE, 0)  # observed initial contents

    def test_apply_is_deterministic(self):
        model = ProtocolModel(2, 2, (st(0, 0, 0), ld(1, 1, 0)))
        state = model.initial_state()
        t = model.enabled(state)[0]
        once = model.apply(state, t)
        again = model.apply(state, t)
        assert once == again
        assert state == model.initial_state()  # states are immutable

    def test_describers_render_strings(self):
        model = ProtocolModel(2, 2, (st(0, 0, 0), ld(1, 1, 0)))
        state = model.initial_state()
        assert "sb0@c0=absent" in model.describe_state(state)
        for t in model.enabled(state):
            assert isinstance(model.describe_transition(t), str)

    def test_issue_respects_per_chain_program_order(self):
        # Two same-cluster, same-subblock ops: op1 must wait for op0.
        model = ProtocolModel(2, 2, (st(0, 0, 0), ld(1, 0, 0)))
        state = model.initial_state()
        first = {t for t in model.enabled(state) if t.name.startswith("issue")}
        assert all(t.args == (0,) for t in first)
