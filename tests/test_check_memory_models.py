"""Protocol checking under every registered memory model.

One :class:`~repro.check.model.ProtocolModel` serves every model, routed
by the model's ``placement``: its homes and owners must be the
simulator's, the explorer must prove every model safe on disciplined
programs, and the conformance bridge must replay the reference memory
system under each model without disagreement (and reject it with a
seeded bug).
"""

import pytest

from repro.check import check_protocol
from repro.check.conformance import run_conformance
from repro.check.model import ProtocolModel
from repro.errors import CheckError, ConfigError
from repro.sim.memory import MemorySystem
from repro.sim.models import model_names
from repro.sim.models.directory import directory_home, directory_owner
from repro.sim.models.dls import dls_home

ALL_MODELS = model_names()

FORWARD_FAMILY = {
    "issue_forward", "deliver_request_forward", "deliver_forward_hit",
    "deliver_forward_miss", "deliver_forward_combine",
}


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
    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown memory model"):
            ProtocolModel(2, 2, (), model="mesi")
        # The entry points reject it before (and without) any program.
        with pytest.raises(ConfigError, match="unknown memory model"):
            check_protocol(model="mesi", programs=[])
        with pytest.raises(ConfigError, match="unknown memory model"):
            run_conformance(model="mesi", programs=[])


class TestPlacement:
    @pytest.mark.parametrize("n", (1, 2, 4, 8))
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_homes_and_owners_are_the_simulators(self, model, n):
        """The check model routes each subblock by the memory model's
        ``placement``; on the check machines that is the per-model map,
        and only a home away from its owner brings in the forward
        family."""
        check = ProtocolModel(n, 16, (), model=model)
        sbs = range(16)
        expected = {
            "snooping": ([sb % n for sb in sbs], [sb % n for sb in sbs]),
            "dls": ([dls_home(sb, n) for sb in sbs],
                    [dls_home(sb, n) for sb in sbs]),
            "directory": ([directory_home(sb, n) for sb in sbs],
                          [directory_owner(sb, n) for sb in sbs]),
        }[model]
        assert (list(check.homes), list(check.owners)) == expected
        core = set(check.core_transitions())
        if model == "directory" and n >= 2:
            assert FORWARD_FAMILY <= core
        else:
            assert not FORWARD_FAMILY & core


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
        core = ProtocolModel(2, 2, (), model=model).core_transitions()
        assert fired == set(core)


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
