"""Inter-cluster memory-bus fabric.

The memory buses carry remote requests and responses between clusters.
Their occupancy depends on run-time traffic, which is why the compiler
cannot rely on their latency (section 2.3, footnote 2) — the root cause of
the coherence problem.

Model:

* ``count`` identical buses; a transfer occupies one bus for ``latency``
  consecutive cycles and is delivered when it completes;
* per-source FIFO queues with at most one injection per source per cycle,
  and round-robin arbitration across sources for free buses.

Those two properties make same-source messages arrive in injection order
(equal transit times, staggered starts), which is the hardware property
the MDC solution relies on: requests issued by one cluster reach any home
cluster in issue order.  Nothing orders messages from *different* sources
— exactly the paper's Figure 2 hazard.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.arch.config import BusConfig


@dataclass
class BusMessage:
    """One transfer.  ``on_deliver(cycle)`` runs when it reaches ``dst``.

    ``tag`` is optional opaque metadata for observers (the conformance
    trace of :mod:`repro.check.conformance`); the fabric never reads it.
    ``kind`` labels the message for per-hop traffic accounting
    (``req_load``/``req_store``/``fwd_load``/``fwd_store``/``resp``) —
    it feeds :attr:`BusFabric.transfers_by_kind` and never affects
    routing or timing.
    """

    src: int
    dst: int
    on_deliver: Callable[[int], None]
    tag: Optional[tuple] = None
    kind: str = "data"


class BusFabric:
    """The shared memory buses."""

    def __init__(self, config: BusConfig, num_clusters: int) -> None:
        self.config = config
        self.num_clusters = num_clusters
        self._queues: List[Deque[BusMessage]] = [
            deque() for _ in range(num_clusters)
        ]
        self._bus_free_at: List[int] = [0] * config.count
        #: delivery cycle -> messages landing then
        self._in_flight: Dict[int, List[BusMessage]] = {}
        self._queued = 0  # messages currently waiting in source queues
        self._rr_start = 0
        self.transfers = 0
        #: per-message-kind transfer counts; always sums to ``transfers``
        #: (diagnostic; the serialized scalar stays the sum)
        self.transfers_by_kind: Dict[str, int] = {}
        self.queued_cycles = 0  # total cycles messages spent waiting
        #: cycles each physical bus spent occupied by a transfer —
        #: per-bus occupancy for the observability layer (diagnostic;
        #: never serialized into run records)
        self.busy_cycles: List[int] = [0] * config.count

    # ------------------------------------------------------------------
    def send(self, message: BusMessage) -> None:
        """Enqueue a transfer at its source cluster."""
        self._queues[message.src].append(message)
        self._queued += 1

    def pending(self) -> int:
        return self._queued + sum(len(v) for v in self._in_flight.values())

    # ------------------------------------------------------------------
    def deliver(self, cycle: int) -> None:
        """Hand over every message whose transfer completes this cycle."""
        if not self._in_flight:
            return
        for message in self._in_flight.pop(cycle, ()):
            message.on_deliver(cycle)

    def inject(self, cycle: int) -> None:
        """Assign queued messages to free buses (round-robin over sources,
        at most one injection per source per cycle)."""
        if not self._queued:
            # Nothing to move: arbitration still rotates whenever a bus
            # is free (the state later injections depend on).
            for t in self._bus_free_at:
                if t <= cycle:
                    self._rr_start = (self._rr_start + 1) % self.num_clusters
                    return
            return
        free = [b for b, t in enumerate(self._bus_free_at) if t <= cycle]
        if not free:
            self.queued_cycles += self._queued
            return
        order = [
            (self._rr_start + k) % self.num_clusters
            for k in range(self.num_clusters)
        ]
        self._rr_start = (self._rr_start + 1) % self.num_clusters
        for src in order:
            if not free:
                break
            queue = self._queues[src]
            if not queue:
                continue
            message = queue.popleft()
            self._queued -= 1
            bus = free.pop()
            self._bus_free_at[bus] = cycle + self.config.latency
            self.busy_cycles[bus] += self.config.latency
            arrival = cycle + self.config.latency
            self._in_flight.setdefault(arrival, []).append(message)
            self.transfers += 1
            kinds = self.transfers_by_kind
            kinds[message.kind] = kinds.get(message.kind, 0) + 1
        self.queued_cycles += self._queued
