"""Per-model protocol checking (:mod:`repro.check.variants`).

Each registered memory model carries its own check model: the explorer
must prove all of them safe on disciplined programs, the conformance
bridge must replay the reference memory system under each model through
its matching transition table without disagreement (and reject it with
a seeded bug), and the model registry and the check registry must agree
on names.
"""

import pytest

from repro.check import CHECK_MODELS, check_protocol, named_check_model
from repro.check.conformance import run_conformance
from repro.check.model import ProtocolModel
from repro.check.variants import DirectoryProtocolModel, DLSProtocolModel
from repro.errors import CheckError, ConfigError
from repro.sim.memory import MemorySystem
from repro.sim.models import model_names

ALL_MODELS = tuple(sorted(CHECK_MODELS))


class _LifoFill(MemorySystem):
    """Seeded bug: a fill replays its MSHR actions last-arrived first."""

    def _handle_fill(self, cluster, block, cycle):
        self._mshr[cluster][block].reverse()
        super()._handle_fill(cluster, block, cycle)


class _HomeServesUnowned(MemorySystem):
    """Seeded bug: a directory home serves a request for a block it does
    not own instead of forwarding it to the owner."""

    def _receive(self, cluster, requester, key, action, arrival, hop):
        super()._receive(cluster, requester, (key[0], cluster), action,
                         arrival, hop)


class TestRegistry:
    def test_one_check_model_per_memory_model(self):
        assert tuple(sorted(CHECK_MODELS)) == model_names()

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="no check model"):
            named_check_model("mesi")

    def test_tables_cover_core_transitions(self):
        for cls in CHECK_MODELS.values():
            assert cls.core_transitions()
            assert set(cls.core_transitions()) <= set(cls.table_by_name())


class TestExplorer:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_disciplined_programs_are_safe(self, model):
        report = check_protocol(op_count=2, model=model)
        assert report.ok, report.summary()
        assert report.model == model

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_every_core_transition_reachable(self, model):
        """Mutation-only transitions fire only under a seeded bug; every
        *core* transition must be reachable from clean programs."""
        report = check_protocol(op_count=3, model=model)
        assert report.ok, report.summary()
        fired = {name for name, count
                 in report.transition_coverage.items() if count}
        assert fired == set(named_check_model(model).core_transitions())

    def test_dls_still_catches_seeded_bugs(self):
        """The placement change must not blind the checker: every
        snooping mutation stays detectable under the DLS table."""
        from repro.check.mutations import MUTATIONS

        for mutation in MUTATIONS:
            report = check_protocol(op_count=3, model="dls",
                                    mutation=mutation,
                                    disciplined_only=True)
            assert report.counterexamples, (
                f"mutation {mutation!r} escaped the DLS checker"
            )

    def test_directory_rejects_mutations(self):
        with pytest.raises(ConfigError, match="snooping-flow"):
            check_protocol(op_count=2, model="directory",
                           mutation="stale_read")


class TestModels:
    def test_dls_overrides_placement_only(self):
        assert DLSProtocolModel.TRANSITION_TABLE is (
            ProtocolModel.TRANSITION_TABLE
        )

    def test_directory_decouples_home_and_owner(self):
        model = DirectoryProtocolModel(2, 4, ())
        homes = [model.home(sb) for sb in range(4)]
        owners = [model.data_home(sb) for sb in range(4)]
        assert homes == [0, 1, 0, 1]
        assert owners == [0, 0, 1, 1]
        # sb2: the home is not the owner -> the forwarded hop exists.
        assert homes[2] != owners[2]

    def test_directory_table_has_forward_family(self):
        names = set(DirectoryProtocolModel.table_by_name())
        assert {"issue_forward", "deliver_request_forward",
                "deliver_forward_hit", "deliver_forward_miss",
                "deliver_forward_combine"} <= names


class TestConformance:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_simulator_conforms(self, model):
        report = run_conformance(op_counts=(2,), model=model)
        assert report.ok, report.summary()
        assert report.model == model
        assert report.missing_transitions() == []

    @pytest.mark.parametrize(
        "model, memory, problem",
        [pytest.param(model, _LifoFill, "payload mismatch at fill_complete",
                      id=f"{model}-lifo-fill")
         for model in ALL_MODELS]
        + [pytest.param(
            "directory", _HomeServesUnowned,
            r"deliver_request_miss\(.*\) is not enabled in the model",
            id="directory-home-serves-unowned")],
    )
    def test_seeded_simulator_bugs_are_caught(self, model, memory, problem):
        """The bridge is evidence only if it fails on a wrong simulator:
        a ``MemorySystem`` subclass with a seeded bug, driven through
        ``memory_factory``, must raise."""
        with pytest.raises(CheckError, match=problem):
            run_conformance(op_counts=(2,), model=model,
                            memory_factory=memory)
