"""The model/simulator conformance bridge: every simulator trace must
replay through the protocol model transition-by-transition."""

import pytest

from repro.check.conformance import (
    conformance_machine,
    issue_schedules,
    run_conformance,
    run_program,
)
from repro.check.model import ModelOp, ProtocolModel
from repro.errors import CheckError, ReproError
from repro.sim.models import named_model


def ld(index, cluster, sb):
    return ModelOp(index, cluster, "load", sb)


def st(index, cluster, sb):
    return ModelOp(index, cluster, "store", sb)


class TestAddressScheme:
    def test_addresses_map_to_distinct_blocks_and_right_homes(self):
        machine = conformance_machine(2)
        address = named_model("snooping").conformance_address
        for sb in range(4):
            addr = address(machine, sb)
            assert addr // machine.cache.block_bytes == sb
            assert machine.home_cluster(addr) == sb % 2

    def test_indivisible_interleave_rejected(self):
        # 3 clusters x 4-byte interleave does not divide the 32-byte
        # block; either the config or the bridge must refuse.
        with pytest.raises(ReproError):
            conformance_machine(3)


class TestRunProgram:
    def test_single_remote_load_agrees(self):
        bridge = run_program((ld(0, 1, 0),), (0,))
        assert bridge.transitions >= 3  # issue, request, fill, response
        assert bridge.coverage.get("issue_remote")
        assert bridge.coverage.get("deliver_response")

    def test_store_load_chain_agrees(self):
        bridge = run_program(
            (st(0, 0, 0), ld(1, 0, 0)), (0, 1)
        )
        assert bridge.coverage.get("issue_local_miss")

    def test_schedule_length_mismatch_raises(self):
        with pytest.raises(CheckError, match="lengths differ"):
            run_program((ld(0, 0, 0),), (0, 1))

    def test_issue_schedules_cover_the_timings(self):
        schedules = issue_schedules(3)
        assert (0, 0, 0) in schedules  # back-to-back
        assert (0, 25, 50) in schedules  # fully drained between ops
        assert all(len(s) == 3 for s in schedules)


class TestBattery:
    def test_full_battery_agrees_and_covers_every_transition(self):
        report = run_conformance(op_counts=(2,))
        assert report.ok, report.summary()
        assert report.missing_transitions() == []
        assert report.programs == 8 ** 2
        assert report.runs == report.programs * len(issue_schedules(2))
        assert report.transitions > 0
        for name in ProtocolModel(2, 2, ()).core_transitions():
            assert report.coverage.get(name, 0) > 0, name

    def test_summary_renders(self):
        report = run_conformance(
            programs=[(ld(0, 1, 0),)], schedules=[(0,)]
        )
        text = report.summary()
        assert "transitions agreed" in text
        assert "verdict" in text
