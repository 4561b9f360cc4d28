"""Deterministic address traces.

An :class:`AddressTrace` evaluates the symbolic :class:`MemRef` of every
memory instruction in a graph against a per-space base-address map, making
it usable both by the profiler and the cycle-level simulator.  The same
graph with different ``seed``/``base`` parameters models the paper's
distinct *profile* and *execution* data sets (Table 1): affine references
keep their structure but shift origin, indirect references draw a
different pseudo-random stream.

Traces are deterministic functions of (seed, space, salt, iteration) —
repeated runs and replicated store instances (which share their MemRef)
see identical addresses.

:meth:`AddressTrace.address` is the scalar definition of a stream.
Everything that walks whole streams — the profiler, the coherence
checker's oracle and the flat simulator — reads one memoized table per
reference instead (:meth:`AddressTrace.addresses`, through
:func:`address_table`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.alias.memref import AccessPattern, MemRef
from repro.errors import WorkloadError
from repro.ir.ddg import Ddg

if TYPE_CHECKING:
    from repro.alias.profiles import TraceLike

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """SplitMix64 step — a fast, well-distributed integer hash.

    The single bit-mixing primitive behind every determinism contract in
    the package: trace address streams here, and the scenario generator's
    draw streams (:mod:`repro.scenarios.rng`).
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _mix(seed: int, space_hash: int, salt: int, iteration: int) -> int:
    return splitmix64(
        seed ^ splitmix64(space_hash ^ splitmix64(salt ^ iteration))
    )


#: Gap between consecutive space base addresses; large enough that spaces
#: never overlap for any workload footprint.
SPACE_GAP = 1 << 22
#: Base addresses are aligned to block_bytes * max clusters so that the
#: home cluster of offset 0 is cluster 0 — the paper's "padding" that keeps
#: preferred-cluster information consistent across data sets.
BASE_ALIGN = 256
#: Per-space stagger (whole cache blocks) so different spaces start in
#: different cache sets — SPACE_GAP is a multiple of every module's set
#: span, so without the stagger all streams would collide in set 0.
SET_STAGGER = 256


class AddressTrace:
    """Concrete per-(instruction, iteration) addresses for one graph."""

    def __init__(
        self,
        ddg: Ddg,
        num_iterations: int,
        seed: int = 0,
        base_of: Optional[Dict[str, int]] = None,
    ) -> None:
        if num_iterations < 0:
            raise WorkloadError("negative iteration count")
        self._ddg = ddg
        self.num_iterations = num_iterations
        self.seed = seed
        self._bases: Dict[str, int] = {}

        spaces = sorted(
            {v.mem.space for v in ddg.memory_instructions() if v.mem is not None}
        )
        for index, space in enumerate(spaces):
            if base_of and space in base_of:
                base = base_of[space]
            else:
                base = BASE_ALIGN + index * (SPACE_GAP + SET_STAGGER)
            self._bases[space] = base
        self._space_hash = {
            space: splitmix64(sum(ord(c) << (8 * (i % 8)) for i, c in enumerate(space)))
            for space in spaces
        }
        #: MemRef -> its address stream, as long as the longest request
        self._tables: Dict[MemRef, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    def base(self, space: str) -> int:
        try:
            return self._bases[space]
        except KeyError:
            raise WorkloadError(f"unknown space {space!r}") from None

    def address(self, iid: int, iteration: int) -> int:
        mem = self._ddg.node(iid).mem
        if mem is None:
            raise WorkloadError(f"instruction {iid} is not a memory op")
        base = self.base(mem.space)
        if mem.pattern is AccessPattern.AFFINE:
            return base + mem.offset + mem.stride * iteration
        slots = max(1, mem.spread // mem.width)
        pick = _mix(
            self.seed, self._space_hash[mem.space], mem.salt, iteration
        ) % slots
        return base + mem.offset + pick * mem.width

    def addresses(self, iid: int, n: int) -> Tuple[int, ...]:
        """``tuple(self.address(iid, i) for i in range(n))``, memoized.

        The table is kept per :class:`~repro.alias.memref.MemRef`, so
        ops with equal references (the replicas of a store) share one,
        and a shorter request is a prefix of a longer one.  Every caller
        gets the same tuple; the tables go when the trace goes.
        """
        mem = self._ddg.node(iid).mem
        if mem is None:
            raise WorkloadError(f"instruction {iid} is not a memory op")
        table = self._tables.get(mem)
        if table is None or len(table) < n:
            table = self._tables[mem] = self._stream(mem, n)
        return table if len(table) == n else table[:n]

    def _stream(self, mem: MemRef, n: int) -> Tuple[int, ...]:
        start = self.base(mem.space) + mem.offset
        if mem.pattern is AccessPattern.AFFINE:
            if mem.stride == 0:
                return (start,) * n
            return tuple(range(start, start + mem.stride * n, mem.stride))
        slots = max(1, mem.spread // mem.width)
        seed = self.seed
        space_hash = self._space_hash[mem.space]
        salt = mem.salt
        width = mem.width
        # _mix(seed, space_hash, salt, it) with its three SplitMix64
        # steps inlined: a table covers every instance of its op, so the
        # four-deep call chain is worth flattening.
        mask = _MASK64
        out = []
        append = out.append
        for it in range(n):
            x = ((salt ^ it) + 0x9E3779B97F4A7C15) & mask
            x ^= x >> 30
            x = (x * 0xBF58476D1CE4E5B9) & mask
            x ^= x >> 27
            x = (x * 0x94D049BB133111EB) & mask
            x ^= x >> 31
            x = ((space_hash ^ x) + 0x9E3779B97F4A7C15) & mask
            x ^= x >> 30
            x = (x * 0xBF58476D1CE4E5B9) & mask
            x ^= x >> 27
            x = (x * 0x94D049BB133111EB) & mask
            x ^= x >> 31
            x = ((seed ^ x) + 0x9E3779B97F4A7C15) & mask
            x ^= x >> 30
            x = (x * 0xBF58476D1CE4E5B9) & mask
            x ^= x >> 27
            x = (x * 0x94D049BB133111EB) & mask
            x ^= x >> 31
            append(start + (x % slots) * width)
        return tuple(out)


def address_table(trace: TraceLike, iid: int, n: int) -> Sequence[int]:
    """Addresses of memory op ``iid`` for iterations ``[0, n)``.

    The memoized table of an :class:`AddressTrace`; any other
    ``TraceLike`` (a test double, or a subclass that overrides
    ``address``) goes through its own ``address`` method, so doubles
    keep their exact streams.
    """
    if type(trace) is AddressTrace:
        return trace.addresses(iid, n)
    return [trace.address(iid, it) for it in range(n)]


@dataclass(frozen=True)
class TraceSpec:
    """A declarative, *keyed* trace factory: called on a (possibly
    unrolled) graph, it builds that graph's :class:`AddressTrace`.

    Frozen and content-addressable: :attr:`key` names the trace's
    content and enters :func:`repro.sched.stages.frontend_artifact_key`,
    so the staged pipeline can store a loop's whole front end —
    profiles included — as one artifact.  Its traces are padded, like
    every :class:`AddressTrace`: space bases are aligned (``BASE_ALIGN``)
    and the same for every seed.
    """

    num_iterations: int
    seed: int = 0

    @property
    def key(self) -> str:
        """Canonical content key of the address streams this spec yields.
        ``-padded1`` names the padding; it enters every stored front-end
        artifact's key."""
        return f"iters{self.num_iterations}-seed{self.seed}-padded1"

    def __call__(self, ddg: Ddg) -> AddressTrace:
        return AddressTrace(
            ddg, num_iterations=self.num_iterations, seed=self.seed,
        )


def trace_factory(num_iterations: int, seed: int = 0) -> TraceSpec:
    """The :class:`TraceSpec` of ``num_iterations`` iterations under
    ``seed``: a factory for :func:`repro.sched.stages.compile_loop`'s
    ``trace_factory`` argument and for building execution traces.

    Specs are values: equal arguments give equal specs with equal keys.
    """
    return TraceSpec(num_iterations, seed)
