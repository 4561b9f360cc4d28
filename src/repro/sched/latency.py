"""Latency assignment for memory instructions (section 2.2).

"Memory instructions will be scheduled with the largest possible latency
that does not have an impact on compute time."  Scheduling a load with a
larger assumed latency separates it further from its consumers, trading
compute time (more in-flight stages) for stall time (fewer stall-on-use
cycles).  The policy implemented here tries the memory-latency ladder from
most to least pessimistic and accepts the first level that keeps the II of
the optimistic (local-hit) schedule, with bounded growth of the flat
schedule length:

* same II  ->  compute time per iteration is unchanged;
* bounded length growth ->  the deeper software pipeline costs only a few
  extra fill/drain stages, negligible against the loop trip count.

Since a level is only accepted at the base II, each pessimistic level's
modulo search is capped there (``max_ii``): it tries that one II at most,
and none when the level's RecMII already exceeds it (the call raises
:class:`~repro.errors.RecurrenceError` before any placement).  The ladder
builds the graph's :class:`~repro.sched.mii.LoopBounds` once (edge
weights, the edges that carry a load's latency, ResMII, cyclic
components) and shares it with every ``modulo_schedule`` call.
``sched.ladder_levels`` counts each pessimistic level's outcome:
``recmii`` (RecMII above the base II), ``no_fit`` (no placement at the
base II), ``too_long`` (schedules, but longer than the slack allows) or
``accepted``.
"""

from __future__ import annotations

from typing import Dict

from repro.arch.config import MachineConfig
from repro.errors import RecurrenceError, SchedulingError
from repro.ir.ddg import Ddg
from repro.obs import metrics
from repro.sched.cluster import ClusterAssignment
from repro.sched.mii import LoopBounds, assignment_res_mii
from repro.sched.modulo import modulo_schedule
from repro.sched.schedule import Schedule

#: Extra flat-schedule length tolerated when raising assumed latencies,
#: in multiples of the II.  One stage: deepening the software pipeline by
#: a single stage is the compromise the paper's policy accepts ("the
#: largest possible latency that does not have an impact on compute
#: time"); more would hide every remote access behind compute and also
#: blow up register pressure, which this model does not charge for.
LENGTH_SLACK_STAGES = 1


def schedule_with_latency_policy(
    ddg: Ddg,
    machine: MachineConfig,
    assignment: ClusterAssignment,
) -> Schedule:
    """Schedule with the paper's compute/stall latency compromise."""
    ladder = machine.memory_latencies().ladder()
    loads = [instr.iid for instr in ddg.loads()]
    floor = assignment_res_mii(ddg, machine, assignment)
    bounds = LoopBounds(ddg, machine)

    def uniform(level: int) -> Dict[int, int]:
        return {iid: level for iid in loads}

    base = modulo_schedule(ddg, machine, assignment, uniform(ladder[0]),
                           min_ii=floor, bounds=bounds)
    if not loads:
        return base

    limit = base.length + LENGTH_SLACK_STAGES * base.ii
    for level in sorted(set(ladder[1:]), reverse=True):
        try:
            candidate = modulo_schedule(
                ddg, machine, assignment, uniform(level),
                min_ii=base.ii, max_ii=base.ii, bounds=bounds,
            )
        except RecurrenceError:
            metrics.inc("sched.ladder_levels", outcome="recmii")
            continue
        except SchedulingError:
            metrics.inc("sched.ladder_levels", outcome="no_fit")
            continue
        if candidate.length <= limit:
            metrics.inc("sched.ladder_levels", outcome="accepted")
            return candidate
        metrics.inc("sched.ladder_levels", outcome="too_long")
    return base
