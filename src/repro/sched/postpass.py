"""MinComs post-pass: virtual -> physical cluster mapping (section 2.2).

MinComs places instructions ignoring memory locality; because the clusters
are homogeneous, the resulting clusters are *virtual* and any one-to-one
mapping onto physical clusters yields an equivalent schedule.  The
post-pass picks the permutation that maximizes expected local accesses,
scoring each candidate by the profiled access counts each memory
instruction would satisfy in its mapped cluster.

Replicated store instances are pinned one-per-cluster; permutations
preserve that property, and their accesses are local by construction, so
they contribute no score.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, Optional

from repro.alias.profiles import ClusterProfile
from repro.arch.config import MachineConfig
from repro.ir.ddg import Ddg
from repro.sched.cluster import ClusterAssignment

#: Exhaustive search bound; beyond this cluster count a greedy matching is
#: used instead (not exercised by the paper's 4-cluster machine).
_EXHAUSTIVE_LIMIT = 6


def best_cluster_permutation(
    ddg: Ddg,
    machine: MachineConfig,
    assignment: ClusterAssignment,
    profiles: Optional[Dict[int, ClusterProfile]],
) -> Dict[int, int]:
    """virtual cluster -> physical cluster map maximizing local accesses."""
    n = machine.num_clusters
    identity = {c: c for c in range(n)}
    if not profiles:
        return identity

    # gain[v][p]: profiled accesses that become local if virtual cluster v
    # is mapped to physical cluster p.
    gain = [[0] * n for _ in range(n)]
    for instr in ddg.memory_instructions():
        if instr.required_cluster is not None:
            continue  # pinned: not remappable on its own
        profile = profiles.get(instr.iid)
        if profile is None or instr.iid not in assignment:
            continue
        v = assignment[instr.iid]
        for p in range(n):
            gain[v][p] += profile.counts[p]

    if all(all(g == 0 for g in row) for row in gain):
        return identity

    if n <= _EXHAUSTIVE_LIMIT:
        best, best_score = identity, -1
        for perm in permutations(range(n)):
            score = sum(gain[v][perm[v]] for v in range(n))
            if score > best_score:
                best_score = score
                best = {v: perm[v] for v in range(n)}
        return best

    # Greedy fallback for very wide machines.
    remaining = set(range(n))
    mapping: Dict[int, int] = {}
    for v in sorted(range(n), key=lambda v: -max(gain[v])):
        p = max(remaining, key=lambda p: gain[v][p])
        mapping[v] = p
        remaining.remove(p)
    return mapping
