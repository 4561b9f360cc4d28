"""The schedule lint: clean on real compiler output, and each rule
fires on a targeted corruption of that output — from the check stage of
a plain ``compile_loop`` call when a back-end stage is patched to
corrupt what it returns, and from :func:`lint_compilation` on an edited
result."""

import re
from dataclasses import replace

import pytest

import repro.sched.stages as stages
from repro.arch import BASELINE_CONFIG
from repro.errors import CheckError
from repro.ir.edges import DepKind, MEMORY_DEP_KINDS
from repro.sched import CoherenceMode, Heuristic, compile_loop
from repro.sched.lint import LintFinding, lint_compilation, lint_schedule
from repro.workloads import trace_factory


def compile_variant(ddg, coherence, heuristic=Heuristic.MINCOMS, **kw):
    return compile_loop(
        ddg,
        BASELINE_CONFIG,
        coherence=coherence,
        heuristic=heuristic,
        trace_factory=trace_factory(64, seed=3),
        **kw,
    )


def compile_figure3(figure3, coherence, heuristic=Heuristic.PREFCLUS):
    source, _ = figure3
    return compile_variant(source, coherence, heuristic=heuristic,
                           unroll_factor=1, add_mem_deps=False)


def rules(findings):
    return {f.rule for f in findings}


def corrupt(monkeypatch, stage, edit):
    """Patch back-end stage ``stage`` of :mod:`repro.sched.stages` to
    pass its output through ``edit(output, *stage_args)``."""
    original = getattr(stages, stage)

    def corrupted(*args):
        return edit(original(*args), *args)

    monkeypatch.setattr(stages, stage, corrupted)


class TestCleanOutput:
    @pytest.mark.parametrize("coherence", list(CoherenceMode))
    def test_compiler_output_lints_clean(self, stream_loop, coherence):
        result = compile_variant(stream_loop, coherence)
        assert lint_compilation(result) == []

    @pytest.mark.parametrize("coherence", list(CoherenceMode))
    def test_check_stage_lints_every_compile(
        self, stream_loop, coherence, monkeypatch
    ):
        linted = []

        def lint(result):
            linted.append(result)
            return lint_compilation(result)

        monkeypatch.setattr(stages, "lint_compilation", lint)
        result = compile_variant(stream_loop, coherence)
        assert linted == [result]

    def test_check_stage_raises_on_findings(self, stream_loop, monkeypatch):
        monkeypatch.setattr(
            stages, "lint_compilation",
            lambda result: [LintFinding("resource", "boom")],
        )
        with pytest.raises(CheckError) as info:
            compile_variant(stream_loop, CoherenceMode.NONE)
        header, *lines = str(info.value).splitlines()
        assert re.fullmatch(r"schedule of 'stream@x\d+' at II=\d+ failed "
                            r"the check with 1 finding\(s\):", header)
        assert lines == ["  [resource] boom"]


class TestSeededCorruptions:
    """A back-end stage patched to corrupt its output makes a plain
    ``compile_loop`` call raise :class:`CheckError` naming the rule:
    one corruption per rule of the retired ``Schedule.validate`` (an
    unscheduled op, a violated pin, a violated dependence, a unit and a
    register-bus overcommit), then copies and MDC/DDGT memory order."""

    def test_unscheduled_op(self, monkeypatch, stream_loop):
        def drop_op(schedule, work, machine, assignment):
            del schedule.ops[next(iter(schedule.ops))]
            return schedule

        corrupt(monkeypatch, "run_schedule", drop_op)
        with pytest.raises(CheckError,
                           match=r"\[completeness\] .* was never scheduled"):
            compile_variant(stream_loop, CoherenceMode.NONE)

    def test_violated_cluster_pin(self, monkeypatch, figure3):
        # Move a DDGT replica off its pinned cluster; the assignment
        # follows, so only the pin disagrees.
        def move_pinned(schedule, work, machine, assignment):
            instr = next(i for i in work if i.required_cluster is not None)
            other = (instr.required_cluster + 1) % machine.num_clusters
            schedule.ops[instr.iid] = replace(schedule.ops[instr.iid],
                                              cluster=other)
            assignment.cluster_of[instr.iid] = other
            return schedule

        corrupt(monkeypatch, "run_schedule", move_pinned)
        with pytest.raises(CheckError,
                           match=r"\[completeness\] .* pinned to cluster"):
            compile_figure3(figure3, CoherenceMode.DDGT)

    def test_violated_dependence(self, monkeypatch, stream_loop):
        def hoist_consumer(schedule, work, machine, assignment):
            edge = next(e for e in work.edges()
                        if e.distance == 0 and e.src != e.dst)
            schedule.ops[edge.dst] = replace(
                schedule.ops[edge.dst],
                time=schedule.ops[edge.src].time - 100)
            return schedule

        corrupt(monkeypatch, "run_schedule", hoist_consumer)
        with pytest.raises(CheckError,
                           match=r"\[latency\] dependence .* unsatisfied"):
            compile_variant(stream_loop, CoherenceMode.NONE)

    def test_functional_unit_overcommit(self, monkeypatch, stream_loop):
        # Every memory op into one slot of cluster 0, which has one
        # memory unit.
        def pile_up(schedule, work, machine, assignment):
            for iid in list(schedule.ops):
                if work.node(iid).is_memory:
                    schedule.ops[iid] = replace(schedule.ops[iid],
                                                cluster=0, time=0)
                    assignment.cluster_of[iid] = 0
            return schedule

        corrupt(monkeypatch, "run_schedule", pile_up)
        with pytest.raises(CheckError,
                           match=r"\[resource\] \d+ mem ops share slot 0 "
                                 r"of cluster 0 but it has 1 mem unit"):
            compile_variant(stream_loop, CoherenceMode.NONE,
                            heuristic=Heuristic.PREFCLUS)

    def test_register_bus_overcommit(self, monkeypatch, stream_loop):
        # Every copy issued in one slot: more copies than buses.
        def bunch_copies(schedule, work, machine, assignment):
            copies = [iid for iid in schedule.ops if work.node(iid).is_copy]
            assert len(copies) > machine.register_buses.count
            time = schedule.ops[copies[0]].time
            for iid in copies:
                schedule.ops[iid] = replace(schedule.ops[iid], time=time)
            return schedule

        corrupt(monkeypatch, "run_schedule", bunch_copies)
        with pytest.raises(CheckError,
                           match=r"\[resource\] \d+ copies occupy modulo "
                                 r"slot \d+ but only 4 register buses"):
            compile_variant(stream_loop, CoherenceMode.NONE)

    def test_missing_copies(self, monkeypatch, stream_loop):
        # PrefClus spreads the stream's loads; with no copy inserted
        # their values cross clusters on no bus.
        monkeypatch.setattr(stages, "run_copies",
                            lambda work, machine, assignment: [])
        with pytest.raises(CheckError,
                           match=r"\[copies\] register flow .* without "
                                 r"a copy"):
            compile_variant(stream_loop, CoherenceMode.NONE,
                            heuristic=Heuristic.PREFCLUS)

    def test_copy_with_two_producers(self, monkeypatch, stream_loop):
        # A second, loop-carried register flow into the first copy.
        def second_producer(copies, work, machine, assignment):
            (first,) = [e.src for e in work.preds(copies[0])]
            other = next(i.iid for i in work
                         if not i.is_copy and i.iid != first)
            work.add_edge(other, copies[0], DepKind.RF, 1)
            return copies

        corrupt(monkeypatch, "run_copies", second_producer)
        with pytest.raises(CheckError,
                           match=r"\[copies\] copy .* has 2 producers"):
            compile_variant(stream_loop, CoherenceMode.NONE)

    def test_split_mdc_chain(self, monkeypatch, figure3):
        def split_chain(assignment, work, machine, heuristic, profiles,
                        mdc):
            edge = next(e for e in work.edges()
                        if e.kind in MEMORY_DEP_KINDS and e.src != e.dst)
            assignment.cluster_of[edge.dst] = (
                assignment[edge.src] + 1) % machine.num_clusters
            return assignment

        corrupt(monkeypatch, "run_assign", split_chain)
        with pytest.raises(CheckError,
                           match=r"\[memory_order\] MDC: memory-dependent "
                                 r".* split across clusters"):
            compile_figure3(figure3, CoherenceMode.MDC)

    def test_unrewritten_ddgt_anti_dependence(self, monkeypatch, figure3):
        # Put one of the source's MA edges back into DDGT's graph.
        def keep_anti_edge(out, work, machine, coherence, profiles):
            anti = next(e for e in work.edges() if e.kind is DepKind.MA)
            out[0].add_edge(anti.src, anti.dst, DepKind.MA, anti.distance)
            return out

        corrupt(monkeypatch, "run_coherence", keep_anti_edge)
        with pytest.raises(CheckError,
                           match=r"\[memory_order\] DDGT: anti dependence "
                                 r".* was not rewritten"):
            compile_figure3(figure3, CoherenceMode.DDGT)


class TestCorruptions:
    """Each corruption edits the finished schedule behind the verifier's
    back; the matching rule must fire."""

    @pytest.fixture
    def result(self, stream_loop):
        return compile_variant(stream_loop, CoherenceMode.NONE)

    def test_missing_op_is_incomplete(self, result):
        schedule = result.schedule
        victim = next(iter(schedule.ops))
        del schedule.ops[victim]
        findings = lint_compilation(result)
        assert rules(findings) == {"completeness"}  # cascade stops here
        assert any(f.iid == victim for f in findings)

    def test_unknown_iid_is_incomplete(self, result):
        schedule = result.schedule
        any_op = next(iter(schedule.ops.values()))
        schedule.ops[9999] = replace(any_op, iid=9999)
        findings = lint_compilation(result)
        assert "completeness" in rules(findings)

    def test_assignment_disagreement_is_incomplete(self, result):
        schedule = result.schedule
        victim = next(iter(schedule.ops))
        placed = schedule.ops[victim]
        schedule.ops[victim] = replace(
            placed,
            cluster=(placed.cluster + 1) % result.machine.num_clusters,
        )
        findings = lint_compilation(result)
        assert "completeness" in rules(findings)

    def test_violated_latency_is_found(self, result):
        schedule = result.schedule
        edge = next(
            e for e in result.ddg.edges()
            if e.distance == 0 and e.src != e.dst
        )
        placed = schedule.ops[edge.dst]
        schedule.ops[edge.dst] = replace(
            placed, time=schedule.ops[edge.src].time - 100
        )
        findings = lint_schedule(
            result.ddg, result.machine, result.assignment, schedule
        )
        assert "latency" in rules(findings)

    def test_uncovered_cross_cluster_flow_is_found(self, result):
        # Move an RF producer-consumer pair apart, updating the
        # assignment consistently so completeness stays quiet.
        ddg = result.ddg
        schedule = result.schedule
        edge = next(
            e for e in ddg.edges()
            if e.kind is DepKind.RF
            and not ddg.node(e.src).is_copy and not ddg.node(e.dst).is_copy
        )
        placed = schedule.ops[edge.dst]
        other = (placed.cluster + 1) % result.machine.num_clusters
        schedule.ops[edge.dst] = replace(placed, cluster=other)
        result.assignment.cluster_of[edge.dst] = other
        findings = lint_compilation(result)
        assert "copies" in rules(findings)

    def test_resource_overcommit_is_found(self, result):
        # Pile every non-copy op of one FU kind onto one (cluster, slot).
        ddg = result.ddg
        schedule = result.schedule
        from collections import Counter

        kinds = Counter(
            ddg.node(iid).fu_kind
            for iid in schedule.ops if not ddg.node(iid).is_copy
        )
        kind = kinds.most_common(1)[0][0]
        for iid, placed in list(schedule.ops.items()):
            if ddg.node(iid).is_copy or ddg.node(iid).fu_kind is not kind:
                continue
            schedule.ops[iid] = replace(placed, cluster=0, time=0)
            result.assignment.cluster_of[iid] = 0
        findings = lint_compilation(result)
        assert "resource" in rules(findings)

    def test_split_mdc_chain_is_found(self, figure3):
        result = compile_figure3(figure3, CoherenceMode.MDC)
        ddg = result.ddg
        schedule = result.schedule
        edge = next(
            e for e in ddg.edges()
            if e.kind in MEMORY_DEP_KINDS and e.src != e.dst
        )
        placed = schedule.ops[edge.dst]
        other = (placed.cluster + 1) % result.machine.num_clusters
        schedule.ops[edge.dst] = replace(placed, cluster=other)
        result.assignment.cluster_of[edge.dst] = other
        findings = lint_compilation(result)
        assert "memory_order" in rules(findings)

    def test_findings_render_with_rule_tag(self, result):
        del result.schedule.ops[next(iter(result.schedule.ops))]
        finding = lint_compilation(result)[0]
        assert str(finding).startswith("[completeness]")
