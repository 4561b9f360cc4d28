"""Memory Dependent Chains — the MDC solution (paper section 3.2).

Two memory instructions that may alias must reach the memory system in
program order.  MDC guarantees this by *scheduling every set of (transitively)
memory-dependent instructions in the same cluster*: within a cluster,
memory operations issue in program order (the dependence edges are
scheduling constraints and there is a single memory unit per cluster), and
same-source requests reach their home cluster in issue order.

A *chain* is a connected component of the undirected graph induced by the
MF/MA/MO edges over the memory instructions.  Self-dependences (a store
output-dependent on itself across iterations) do not bind an instruction to
anything else, so singleton components impose no constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.alias.profiles import ClusterProfile
from repro.ir.ddg import Ddg
from repro.ir.edges import MEMORY_DEP_KINDS


@dataclass
class MdcResult:
    """Outcome of chain construction.

    Attributes
    ----------
    chains:
        Every memory-dependent chain with two or more members, as sets of
        iids (singletons are unconstrained and omitted).
    group_of:
        iid -> chain index, for members of multi-instruction chains.
    preferred_cluster:
        chain index -> the chain's *average preferred cluster* (argmax of
        the combined profile), when profiles were supplied.  Used by the
        PrefClus heuristic; MinComs decides placement when it schedules the
        first instruction of the chain instead.
    """

    chains: List[Set[int]] = field(default_factory=list)
    group_of: Dict[int, int] = field(default_factory=dict)
    preferred_cluster: Dict[int, int] = field(default_factory=dict)

    def biggest_chain(self) -> Set[int]:
        if not self.chains:
            return set()
        return max(self.chains, key=len)


def memory_dependent_chains(ddg: Ddg) -> List[Set[int]]:
    """Connected components (size >= 2) of the memory-dependence subgraph.

    Components are returned in a deterministic order (by smallest member
    iid) so downstream heuristics are reproducible.
    """
    parent: Dict[int, int] = {v.iid: v.iid for v in ddg.memory_instructions()}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for edge in ddg.edges():
        if edge.kind in MEMORY_DEP_KINDS and edge.src != edge.dst:
            union(edge.src, edge.dst)

    groups: Dict[int, Set[int]] = {}
    for iid in parent:
        groups.setdefault(find(iid), set()).add(iid)
    chains = [members for members in groups.values() if len(members) >= 2]
    chains.sort(key=min)
    return chains


def apply_mdc(
    ddg: Ddg,
    profiles: Optional[Dict[int, ClusterProfile]] = None,
) -> MdcResult:
    """Build chains and (with profiles) their average preferred clusters.

    The graph itself is not modified: MDC is purely a cluster-assignment
    constraint, enforced by :func:`repro.sched.cluster.assign_clusters`
    through the returned grouping.
    """
    result = MdcResult()
    result.chains = memory_dependent_chains(ddg)
    for index, members in enumerate(result.chains):
        for iid in members:
            result.group_of[iid] = index
        if profiles:
            member_profiles = [
                profiles[iid] for iid in sorted(members) if iid in profiles
            ]
            if member_profiles:
                combined = ClusterProfile.combine(member_profiles)
                result.preferred_cluster[index] = combined.preferred
    return result
