"""Mutation testing of the model checker: every seeded protocol bug must
be caught with a minimal counterexample under every memory model, and
the faithful protocol must be violation-free over the same exhaustive
sweep."""

import pytest

from repro.check import MUTATIONS, ProtocolModel, check_protocol
from repro.sim.models import model_names


class TestFaithfulProtocol:
    @pytest.fixture(scope="class")
    def clean_report(self):
        # The acceptance-criteria configuration: every 3-op program on
        # 2 clusters x 2 subblocks, full interleaving.
        return check_protocol(num_clusters=2, num_subblocks=2, op_count=3)

    def test_no_violations(self, clean_report):
        assert clean_report.ok
        assert clean_report.counterexamples == []

    def test_meets_state_budget(self, clean_report):
        # ISSUE acceptance: >= 10k states explored, within the minute.
        assert clean_report.states >= 10_000
        assert not clean_report.truncated
        assert clean_report.elapsed_seconds < 60

    def test_every_core_transition_reached(self, clean_report):
        for name in ProtocolModel(2, 2, ()).core_transitions():
            assert clean_report.transition_coverage.get(name, 0) > 0, name

    def test_free_races_exist_but_are_not_violations(self, clean_report):
        # Undisciplined programs race by design (the optimistic
        # baseline); the checker counts them separately.
        assert clean_report.races > 0
        assert clean_report.disciplined_programs < clean_report.programs


class TestMutations:
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @pytest.mark.parametrize("model", model_names())
    def test_each_mutation_yields_counterexample(self, model, mutation):
        report = check_protocol(
            num_clusters=2, num_subblocks=2, op_count=3,
            mutation=mutation, disciplined_only=True, model=model,
        )
        assert not report.ok, f"{mutation} was not caught under {model}"
        ce = report.counterexamples[0]
        assert ce.mutation == mutation
        assert ce.invariant in {"no_stale_read", "no_future_read"}
        # BFS finds a shortest trace; every seeded bug here fires within
        # a handful of steps on the 2x2 configuration.
        assert 1 <= len(ce.trace) <= 8
        rendered = ce.format()
        assert "invariant violated" in rendered
        assert mutation in rendered
        assert "trace" in rendered

    def test_mutation_catalog_documented(self):
        assert len(MUTATIONS) == 4
        for name, description in MUTATIONS.items():
            assert isinstance(description, str) and description, name

    def test_max_states_truncates(self):
        report = check_protocol(
            num_clusters=2, num_subblocks=2, op_count=3, max_states=500
        )
        assert report.truncated
        assert report.states <= 500 + 200  # one program may overshoot
