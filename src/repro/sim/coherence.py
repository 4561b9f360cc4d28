"""Coherence violation detection.

The simulation is trace-driven, so — like the paper's (section 4.1,
footnote) — values are always "correct"; what we detect is every event
where real hardware would *not* have been: a load observing a memory
version different from the one sequential program order prescribes, or a
store application inverting program order at its home module.

Versions are ``(iteration, seq)`` pairs stamped by stores; for any single
address they are totally ordered by program order.  Before simulation
:func:`expected_versions` walks the whole access stream in sequential
order and records, for every load instance, the version of the last
store instance that wrote its address — the *expected* version.  The
walk depends on the graph and the trace only, never on the memory
model, so a loop simulated under several models can walk once.  At run
time the memory system reports what each load actually observed.

Observation points are *untimed*: the memory system reports each load at
its serialization point and each write inversion at store application,
as side effects of access flows and event deliveries.  Where that
serialization point sits depends on the memory model
(:mod:`repro.sim.models`) — a local/attracted probe, a home-slice
response or a fill replay under snooping and DLS, the owner slice's
service of a possibly-forwarded request under the distributed
directory — but the checker itself is model-agnostic: it compares
versions, not routes.  The flat fast path only skips cycles on which
no flow advances, so the sequence of observations — and
hence every violation count — is identical under both simulation
engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.alias.profiles import TraceLike
from repro.ir.ddg import Ddg
from repro.workloads.traces import address_table

Version = Tuple[int, int]
#: load iid -> per iteration, the version that load instance must observe
ExpectedVersions = Dict[int, List[Optional[Version]]]


def classify_observation(
    expected: Optional[Version], observed: Optional[Version]
) -> Optional[str]:
    """Classify one load observation against its oracle.

    Returns ``None`` when the load saw exactly the prescribed version,
    ``"stale"`` when it saw an older one (a missed store — the hazard of
    the paper's Figure 2) and ``"future"`` when it saw a younger one (a
    broken memory-anti dependence).  ``None`` versions mean the initial
    memory contents, older than every store.  Pure and total — shared by
    :class:`CoherenceChecker` and the conformance bridge
    (:mod:`repro.check.conformance`).
    """
    if observed == expected:
        return None
    if expected is None or (observed is not None and observed > expected):
        return "future"
    return "stale"


@dataclass
class ViolationCounts:
    stale_reads: int = 0      # load observed an older version than expected
    future_reads: int = 0     # load observed a younger version (MA broken)
    write_inversions: int = 0  # stores applied out of program order

    @property
    def total(self) -> int:
        return self.stale_reads + self.future_reads + self.write_inversions


def expected_versions(
    ddg: Ddg, trace: TraceLike, iterations: int
) -> ExpectedVersions:
    """Sequential walk of all memory instances in program order.

    Replicated store instances stand for a single logical store; only
    the original (``iid == replica_group``) participates in the walk.
    """
    ops = [
        v
        for v in ddg.memory_instructions()
        if v.replica_group is None or v.replica_group == v.iid
    ]
    ops.sort(key=lambda v: (v.seq, v.iid))
    expected: ExpectedVersions = {
        op.iid: [None] * iterations for op in ops if not op.is_store
    }
    walk = [
        (op.is_store, op.seq, address_table(trace, op.iid, iterations),
         expected.get(op.iid))
        for op in ops
    ]
    last_writer: Dict[int, Version] = {}
    for iteration in range(iterations):
        for is_store, seq, table, per_load in walk:
            if is_store:
                last_writer[table[iteration]] = (iteration, seq)
            else:
                per_load[iteration] = last_writer.get(table[iteration])
    return expected


class CoherenceChecker:
    """Oracle for sequential memory semantics over one simulated loop.

    ``expected`` takes the loop's precomputed :func:`expected_versions`
    over the same graph, trace and iterations (a caller simulating one
    trace under several memory models builds it once); by default the
    checker walks the trace itself.  The checker only reads the map, so
    one map can serve several checkers.

    Granularity note: versions are tracked per exact access address; the
    workload catalog only aliases accesses of identical address and width,
    mirroring the aligned media kernels of the paper's benchmarks.
    """

    def __init__(
        self,
        ddg: Ddg,
        trace: TraceLike,
        iterations: int,
        expected: Optional[ExpectedVersions] = None,
    ) -> None:
        self.counts = ViolationCounts()
        if expected is None:
            expected = expected_versions(ddg, trace, iterations)
        self._expected = expected

    # ------------------------------------------------------------------
    @property
    def oracle(self) -> Mapping[int, List[Optional[Version]]]:
        """The expected versions themselves, read-only: per load, one
        list indexed by iteration.  A hot loop can compare each
        observation against ``oracle[iid][iteration]`` inline and call
        :meth:`observe_load` only on a mismatch."""
        return self._expected

    def expected(self, load_iid: int, iteration: int) -> Optional[Version]:
        """The version a load instance must observe; ``None`` (initial
        memory) outside the walked iterations."""
        per_load = self._expected.get(load_iid)
        if per_load is None or not 0 <= iteration < len(per_load):
            return None
        return per_load[iteration]

    def observe_load(
        self, load_iid: int, iteration: int, observed: Optional[Version]
    ) -> bool:
        """Report what a load actually saw; returns True on violation.

        For replicated graphs callers pass the *original* iid (loads are
        never replicated, so this is only a documentation point).
        """
        verdict = classify_observation(
            self.expected(load_iid, iteration), observed
        )
        if verdict is None:
            return False
        if verdict == "future":
            self.counts.future_reads += 1
        else:
            self.counts.stale_reads += 1
        return True

    def observe_write_inversion(self) -> None:
        """The memory system saw a store apply under a younger version."""
        self.counts.write_inversions += 1
