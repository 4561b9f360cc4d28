"""The distributed memory system: the per-cycle reference for every model.

Glues together the per-cluster cache modules, the memory-bus fabric, the
next memory level and (optionally) the Attraction Buffers, and implements
the four access flows of section 2.1 — local hit, remote hit, local miss,
remote miss — plus combined accesses (merged into a pending subblock
request) and the store-replication / Attraction-Buffer semantics of
sections 3.3 and 5.

One class serves every registered memory model
(:mod:`repro.sim.models`): it routes each address by the model's
``placement`` into a *home* (where a request travels first) and an
*owner* (the cluster holding the data, where accesses serialize), and
writes each flow once for all of them.

Values are modeled as store *versions* (see :mod:`repro.sim.coherence`):
each owner keeps, per subblock, the map address -> last applied version.
That is enough to detect every ordering violation while staying
trace-driven.

Timing recipe (matching :meth:`MachineConfig.memory_latencies`):

* local hit:    complete at ``issue + hit``;
* local miss:   next-level request at ``issue + hit``, fill +``latency``;
* remote —      request bus transfer (plus a forward hop when the home
  does not own the block), probe at the owner (+``hit``), optional
  next-level round trip, response bus transfer.

Per cycle the executor calls :meth:`tick_begin` (deliver bus messages and
next-level fills), lets the core issue, then :meth:`tick_end` (inject
queued transfers).  A request issued at cycle ``c`` therefore first
contends for a bus at ``c``.

This object protocol is the reference: ``engine="cycles"`` drives it one
tick pair per cycle, the conformance bridge
(:mod:`repro.check.conformance`) replays its event trace against the
protocol model, and the flat fast path (:mod:`repro.sim.flatmem`) must
match it stat for stat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch.config import MachineConfig
from repro.errors import SimulationError
from repro.sim.attraction import AttractionBuffer
from repro.sim.bus import BusFabric, BusMessage
from repro.sim.cache import CacheModule
from repro.sim.coherence import CoherenceChecker
from repro.sim.models import DEFAULT_MODEL, named_model
from repro.sim.nextlevel import NextLevel, NextLevelRequest
from repro.sim.stats import AccessType, SimStats

Version = Tuple[int, int]
#: ``(block, owner)``: one cluster's subblock of a cache block
SubblockKey = Tuple[int, int]
LoadCallback = Callable[[int], None]  # completion cycle
#: Structured protocol events (see the class docstring of
#: :class:`MemorySystem` for the vocabulary); consumed by the
#: conformance bridge in :mod:`repro.check.conformance`.
TraceCallback = Callable[[tuple], None]
#: What an access does at its owner once the subblock is present, on a
#: probe hit or when the fill replays the MSHR (see
#: :meth:`MemorySystem._perform`)::
#:
#:     ("store", addr, version)              apply a write
#:     ("load", _PendingLoad)                complete the owner's own load
#:     ("respond", requester, _PendingLoad)  answer a read request
_Action = tuple


@dataclass
class _PendingLoad:
    """A load waiting for a subblock (local fill or remote response)."""

    iid: int
    iteration: int
    addr: int
    on_complete: LoadCallback


def _label(action: _Action) -> Tuple[str, object]:
    """``(kind, ref)`` naming an access in trace events: a load by its
    iid, a store by its version."""
    if action[0] == "store":
        return "store", action[2]
    return "load", action[-1].iid


class MemorySystem:
    """All clusters' cache modules plus the interconnect.

    ``model`` names the registered memory model whose placement routes
    every access.  ``trace``, when given, receives one tuple per
    protocol step — pure observation, no behavioural effect.  The
    vocabulary (``block`` is the cache-block id, ``ref`` a load's iid or
    a store's version)::

        ("local", cluster, block, kind, ref, disposition)
        ("remote_issue", cluster, home, block, kind, ref)
        ("forward_issue", cluster, block, kind, ref)
        ("home_request", home, src, block, kind, ref, disposition)
        ("forward", home, owner, src, block, kind, ref)
        ("owner_request", owner, src, block, kind, ref, disposition)
        ("send_response", owner, block, iids, deferred)
        ("deliver_response", requester, block, iids)
        ("fill", cluster, block)
        ("observe", iid, iteration, observed_version)
        ("apply", block, owner, addr, version, inverted)

    with ``kind`` in ``load``/``store`` and ``disposition`` in
    ``hit``/``miss``/``combine``.  The conformance bridge
    (:mod:`repro.check.conformance`) replays these through the protocol
    model transition by transition.
    """

    def __init__(
        self,
        machine: MachineConfig,
        stats: SimStats,
        checker: Optional[CoherenceChecker] = None,
        trace: Optional[TraceCallback] = None,
        model: str = DEFAULT_MODEL,
    ) -> None:
        model_impl = named_model(model)
        model_impl.validate_machine(machine)
        self.machine = machine
        self.stats = stats
        self.checker = checker
        self._trace = trace
        self._placement = model_impl.placement
        self.modules = [
            CacheModule(machine.cache) for _ in machine.clusters
        ]
        self.abs: Optional[List[AttractionBuffer]] = None
        if machine.attraction_buffer is not None:
            self.abs = [
                AttractionBuffer(machine.attraction_buffer)
                for _ in machine.clusters
            ]
        self.fabric = BusFabric(machine.memory_buses, machine.num_clusters)
        self.next_level = NextLevel(machine.next_level)
        #: ground truth: (block, owner) -> {addr: version}
        self._versions: Dict[SubblockKey, Dict[int, Version]] = {}
        #: owner-side MSHRs: per cluster, block -> actions in arrival order
        self._mshr: List[Dict[int, List[_Action]]] = [
            {} for _ in machine.clusters
        ]
        #: responses waiting for their earliest send cycle
        self._deferred_sends: Dict[int, List[BusMessage]] = {}
        self._outstanding = 0  # accesses not yet fully resolved

    # ------------------------------------------------------------------
    # Cycle driving
    # ------------------------------------------------------------------
    def tick_begin(self, cycle: int) -> None:
        if self._deferred_sends:
            for message in self._deferred_sends.pop(cycle, ()):
                if self._trace is not None and message.tag is not None:
                    self._trace(("send_response",) + message.tag + (True,))
                self.fabric.send(message)
        self.next_level.tick(cycle)
        self.fabric.deliver(cycle)

    def tick_end(self, cycle: int) -> None:
        self.fabric.inject(cycle)
        self.sync_stats()

    def sync_stats(self) -> None:
        """Mirror fabric/next-level counters into :class:`SimStats`
        (absolute copies of monotonic counters)."""
        self.stats.bus_transfers = self.fabric.transfers
        self.stats.bus_queued_cycles = self.fabric.queued_cycles
        self.stats.next_level_requests = self.next_level.requests
        # The fabric mutates its per-kind dict in place and each run owns
        # its own fabric, so sharing the reference is safe and keeps this
        # per-tick call allocation-free.
        self.stats.bus_transfer_kinds = self.fabric.transfers_by_kind

    def quiescent(self) -> bool:
        return (
            self._outstanding == 0
            and self.fabric.pending() == 0
            and self.next_level.pending() == 0
            and not self._deferred_sends
        )

    def pending_work(self) -> int:
        """How much in-flight work remains (accesses, messages, fills).

        The post-issue drain watchdog tracks this as a low-water mark: a
        healthy drain shrinks it within any watchdog-sized window (every
        message completes within a bus/next-level latency), while a
        memory bug that perpetually reschedules itself does not — so the
        watchdog bounds *progress-free* windows, never the total drain
        length of a legitimately large backlog.
        """
        return (
            self._outstanding
            + self.fabric.pending()
            + self.next_level.pending()
            + sum(len(v) for v in self._deferred_sends.values())
        )

    # ------------------------------------------------------------------
    # Version bookkeeping
    # ------------------------------------------------------------------
    def _bucket(self, key: SubblockKey) -> Dict[int, Version]:
        return self._versions.setdefault(key, {})

    def _apply_store(self, key: SubblockKey, addr: int, version: Version) -> None:
        bucket = self._bucket(key)
        current = bucket.get(addr)
        inverted = current is not None and current > version
        if self._trace is not None:
            self._trace(("apply", key[0], key[1], addr, version, inverted))
        if inverted:
            # A younger store already applied: program order inverted.
            if self.checker is not None:
                self.checker.observe_write_inversion()
            self.stats.coherence_violations += 1
            return  # keep the younger (trace-correct) version
        bucket[addr] = version

    def _observe(self, load: _PendingLoad, observed: Optional[Version]) -> None:
        if self._trace is not None:
            self._trace(("observe", load.iid, load.iteration, observed))
        if self.checker is not None:
            if self.checker.observe_load(load.iid, load.iteration, observed):
                self.stats.coherence_violations += 1

    # ------------------------------------------------------------------
    # Public access API
    # ------------------------------------------------------------------
    def _route(self, addr: int) -> Tuple[int, SubblockKey]:
        """``(home, (block, owner))`` of ``addr`` under the run's model:
        the cluster a request travels to first, and the subblock that
        holds the data and serializes accesses to it.  The flat fast
        path routes by the same ``placement``."""
        homes, owners = self._placement(self.machine, (addr,))
        return homes[0], (addr // self.machine.cache.block_bytes, owners[0])

    def load(
        self,
        cluster: int,
        addr: int,
        width: int,
        iid: int,
        iteration: int,
        on_complete: LoadCallback,
        cycle: int,
    ) -> None:
        self._check_alignment(addr, width)
        home, key = self._route(addr)
        pending = _PendingLoad(iid, iteration, addr, on_complete)

        if home == cluster and key[1] == cluster:
            self._serve(cluster, key, ("load", pending), cycle,
                        ("local", cluster))
            return

        # Attraction Buffer (snooping only, where every access reaching
        # here is remote): a cached copy of the remote subblock makes the
        # access local (section 5.1).
        if self.abs is not None:
            entry = self.abs[cluster].lookup(key)
            if entry is not None:
                self.stats.record_access(AccessType.LOCAL_HIT)
                self.stats.ab_hits = sum(ab.hits for ab in self.abs)
                self._observe(pending, entry.versions.get(addr))
                on_complete(cycle + self.machine.cache.hit_latency)
                return

        self._request(cluster, home, key, ("respond", cluster, pending))

    def store(
        self,
        cluster: int,
        addr: int,
        width: int,
        iid: int,
        iteration: int,
        version: Version,
        replica: bool,
        cycle: int,
    ) -> None:
        self._check_alignment(addr, width)
        home, key = self._route(addr)
        action = ("store", addr, version)

        if home == cluster and key[1] == cluster:
            self._serve(cluster, key, action, cycle, ("local", cluster))
            return

        if home != cluster:
            if replica:
                # Nullified instance (section 3.3): only the home's
                # executes.  It still refreshes an Attraction Buffer copy
                # if one exists (section 5.3).
                self.stats.nullified_stores += 1
                if self.abs is not None:
                    self.abs[cluster].update(key, addr, version)
                return
            # Remote store with a locally attracted copy: update it in
            # place; the dirty data goes home at the loop-boundary flush
            # (section 5.2).
            if (self.abs is not None
                    and self.abs[cluster].update(key, addr, version)):
                self.stats.record_access(AccessType.LOCAL_HIT)
                return

        self._request(cluster, home, key, action)

    # ------------------------------------------------------------------
    # Routing: requests and forwards
    # ------------------------------------------------------------------
    def _request(
        self, cluster: int, home: int, key: SubblockKey, action: _Action
    ) -> None:
        """Send an access its own cluster cannot serve: a ``req_*``
        message to its home, or, from a home that does not own the block,
        a ``fwd_*`` hop straight to the owner (the directory lookup is
        local).  The access stays outstanding until a load's response
        arrives or a store is served at the owner.

        Every remote load travels as its own request.  There is
        deliberately no requester-side combining onto an in-flight
        request for the same subblock: a merged load would be served at
        the *older* request's serialization point, where it can miss a
        store that program order placed before it (stale read) or observe
        one placed after it (broken MA).  The per-source FIFO buses
        deliver same-cluster messages in issue order, so serving each
        load where its own request reaches the owner — the point of
        coherence — preserves exactly the ordering the MDC/DDGT solutions
        rely on.  (Requests that find a next-level fill in progress still
        merge into the owner's MSHR, which replays in arrival order.)
        """
        self._outstanding += 1
        if home == cluster:
            if self._trace is not None:
                self._trace(("forward_issue", cluster, key[0])
                            + _label(action))
            self._hop(cluster, key[1], "fwd", cluster, key, action)
        else:
            if self._trace is not None:
                self._trace(("remote_issue", cluster, home, key[0])
                            + _label(action))
            self._hop(cluster, home, "req", cluster, key, action)

    def _hop(
        self, src: int, dst: int, hop: str, requester: int,
        key: SubblockKey, action: _Action,
    ) -> None:
        """Carry an access from ``src`` to ``dst`` as one ``req`` or
        ``fwd`` bus message."""

        def deliver(arrival: int) -> None:
            self._receive(dst, requester, key, action, arrival, hop)

        self.fabric.send(BusMessage(
            src=src, dst=dst, on_deliver=deliver,
            kind=f"{hop}_{_label(action)[0]}",
        ))

    def _receive(
        self, cluster: int, requester: int, key: SubblockKey,
        action: _Action, arrival: int, hop: str,
    ) -> None:
        """A request or forward arrives: the owner serves it, a home that
        does not own the block forwards it (still outstanding)."""
        owner = key[1]
        if owner != cluster:
            if self._trace is not None:
                self._trace(("forward", cluster, owner, requester, key[0])
                            + _label(action))
            self._hop(cluster, owner, "fwd", requester, key, action)
            return
        tag = "owner_request" if hop == "fwd" else "home_request"
        self._serve(cluster, key, action, arrival, (tag, cluster, requester))
        if action[0] == "store":
            self._outstanding -= 1

    # ------------------------------------------------------------------
    # The owner's flows
    # ------------------------------------------------------------------
    def _serve(
        self, cluster: int, key: SubblockKey, action: _Action, cycle: int,
        tag: tuple,
    ) -> None:
        """The probe/combine/miss flow of one access at its owner, for
        the owner's own accesses (``tag == ("local", cluster)``) and for
        the requests it receives (``tag == (trace kind, cluster,
        requester)``).  A hit performs the action now; a miss opens an
        MSHR entry and fetches the subblock; an access finding that fill
        in flight joins the entry."""
        block = key[0]
        local = tag[0] == "local"
        mshr = self._mshr[cluster]
        if self.modules[cluster].probe(block):
            access = AccessType.LOCAL_HIT if local else AccessType.REMOTE_HIT
            disposition = "hit"
        elif block in mshr:
            access, disposition = AccessType.COMBINED, "combine"
        else:
            access = AccessType.LOCAL_MISS if local else AccessType.REMOTE_MISS
            disposition = "miss"
        self.stats.record_access(access)
        if self._trace is not None:
            self._trace(tag + (block,) + _label(action) + (disposition,))
        if disposition == "hit":
            self._perform(cluster, key, action,
                          cycle + self.machine.cache.hit_latency, cycle)
            return
        if disposition == "miss":
            mshr[block] = []
            self._fetch(cluster, block)
        mshr[block].append(action)
        self._outstanding += 1

    def _perform(
        self, cluster: int, key: SubblockKey, action: _Action,
        ready_at: int, now: int,
    ) -> None:
        """Carry out an access at the owner holding its subblock: on a
        probe hit (the data is ready a hit latency after ``now``) or in a
        fill's MSHR replay (ready now)."""
        if action[0] == "store":
            self._apply_store(key, action[1], action[2])
            self.modules[cluster].mark_dirty(key[0])
        elif action[0] == "load":
            pending = action[1]
            self._observe(pending, self._bucket(key).get(pending.addr))
            pending.on_complete(ready_at)
        else:
            self._send_response(cluster, action[1], key, action[2],
                                send_at=ready_at, now=now)

    def _fetch(self, cluster: int, block: int) -> None:
        """Issue the next-level fill for a missing subblock.

        The next level accepts requests at the tick following enqueue, so
        the probe latency is naturally folded into the acceptance delay:
        a miss detected at cycle ``c`` fills at ``c + 1 + latency``, which
        matches the local-miss rung of the latency ladder.
        """

        def on_fill(fill_cycle: int) -> None:
            self._handle_fill(cluster, block, fill_cycle)

        self.next_level.request(NextLevelRequest(on_fill=on_fill))

    def _handle_fill(self, cluster: int, block: int, cycle: int) -> None:
        """Install the subblock and replay its MSHR actions *in arrival
        order*: a load that reached the module before a later store must
        not observe that store's value (they merged into one MSHR entry,
        but the module still serializes them as they arrived)."""
        if self._trace is not None:
            self._trace(("fill", cluster, block))
        victim = self.modules[cluster].install(block, dirty=False)
        if victim is not None and victim.dirty:
            # Write-back of the victim consumes a next-level port.
            self.next_level.request(NextLevelRequest(on_fill=lambda c: None))
        actions = self._mshr[cluster].pop(block, None)
        if actions is None:
            raise SimulationError(f"fill for block {block} without waiter")
        for action in actions:
            self._perform(cluster, (block, cluster), action, cycle, cycle)
            self._outstanding -= 1

    def _send_response(
        self, owner: int, requester: int, key: SubblockKey,
        pending: _PendingLoad, send_at: int, now: int,
    ) -> None:
        """Serve one read request and queue its response.

        The load observes the subblock *here*, at its serialization point
        at the owner; the response only models the transfer back.
        ``send_at`` is the cycle the response data is ready at the owner
        (probe latency after the request's arrival, or the fill cycle
        itself); messages ready now enter the bus queue directly so they
        contend for a bus this very cycle.
        """
        snapshot = dict(self._bucket(key))
        self._observe(pending, snapshot.get(pending.addr))

        def at_requester(arrival: int) -> None:
            if self._trace is not None:
                self._trace(("deliver_response", requester, key[0],
                             (pending.iid,)))
            pending.on_complete(arrival)
            self._outstanding -= 1
            if self.abs is not None:
                self._ab_fill(requester, key, snapshot)

        message = BusMessage(
            src=owner, dst=requester, on_deliver=at_requester,
            tag=(owner, key[0], (pending.iid,)), kind="resp",
        )
        if send_at <= now:
            if self._trace is not None:
                self._trace(("send_response", owner, key[0], (pending.iid,),
                             False))
            self.fabric.send(message)
        else:
            self._deferred_sends.setdefault(send_at, []).append(message)

    # ------------------------------------------------------------------
    # Attraction Buffers
    # ------------------------------------------------------------------
    def _ab_fill(
        self, cluster: int, key: SubblockKey, snapshot: Dict[int, Version]
    ) -> None:
        assert self.abs is not None
        victim = self.abs[cluster].fill(key, snapshot)
        if victim is not None and victim.dirty:
            self._write_back_ab_entry(victim)
        self.stats.ab_fills = sum(ab.fills for ab in self.abs)
        self.stats.ab_overflows = sum(ab.overflows for ab in self.abs)

    def _write_back_ab_entry(self, entry) -> None:
        for addr, version in entry.versions.items():
            self._apply_store(entry.key, addr, version)

    def flush_attraction_buffers(self) -> None:
        """Loop-boundary flush (sections 5.2/5.3): every dirty attracted
        copy is written back to its home cluster and all entries drop."""
        if self.abs is None:
            return
        for ab in self.abs:
            for entry in ab.flush():
                self._write_back_ab_entry(entry)
                self.stats.ab_flushed_dirty += 1

    # ------------------------------------------------------------------
    def _check_alignment(self, addr: int, width: int) -> None:
        """Accesses wider than the interleave unit (e.g. mpeg2dec's 8-byte
        data over a 4-byte interleave, Table 1) are modeled as touching the
        *leading* unit's home cluster; versions are tracked at the exact
        access address, so coherence checking is unaffected."""
        if width < 1:
            raise SimulationError(f"access width must be positive, got {width}")
