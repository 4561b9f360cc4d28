"""Chain statistics: the CMR and CAR ratios of Table 3.

* **CMR** — biggest Chain over Memory instructions Ratio: dynamic memory
  instructions in the biggest memory dependent chain of each loop, over
  all dynamic memory instructions;
* **CAR** — biggest Chain over All instructions Ratio: same numerator,
  over all dynamic instructions.

Dynamic counts are static per-iteration counts times the loop trip count.
Both ratios are invariant under unrolling (numerator and denominators
scale together), so they are computed on the un-unrolled kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.alias.disambiguation import add_memory_dependences
from repro.ir.ddg import Ddg
from repro.sched.mdc import memory_dependent_chains


@dataclass(frozen=True)
class ChainStats:
    """Per-loop static counts feeding the CMR/CAR computation."""

    biggest_chain: int  # memory instructions in the biggest chain
    memory_ops: int
    total_ops: int


def chain_stats(ddg: Ddg, with_mem_deps: bool = False) -> ChainStats:
    """Measure one loop's chain statistics.

    Unless ``with_mem_deps`` says the graph already carries memory edges,
    conservative disambiguation runs on a scratch clone first.
    """
    work = ddg if with_mem_deps else ddg.clone()
    if not with_mem_deps:
        add_memory_dependences(work)
    chains = memory_dependent_chains(work)
    biggest = max((len(c) for c in chains), default=0)
    return ChainStats(
        biggest_chain=biggest,
        memory_ops=len(work.memory_instructions()),
        total_ops=len(work),
    )


def cmr_car(
    loops: Sequence[Tuple[ChainStats, int]]
) -> Tuple[float, float]:
    """Aggregate (CMR, CAR) over weighted loops.

    ``loops`` pairs each loop's :class:`ChainStats` with its trip count.
    """
    chain_dyn = sum(stats.biggest_chain * trips for stats, trips in loops)
    mem_dyn = sum(stats.memory_ops * trips for stats, trips in loops)
    all_dyn = sum(stats.total_ops * trips for stats, trips in loops)
    cmr = chain_dyn / mem_dyn if mem_dyn else 0.0
    car = chain_dyn / all_dyn if all_dyn else 0.0
    return cmr, car
