"""The flat fast path: the default simulation engine, for every model.

:func:`run_flat` runs one compiled loop to completion as a single plain
function call.  It executes the same cycle-level model as the per-cycle
reference (``engine="cycles"``: ``MemorySystem`` + ``BusFabric`` +
``NextLevel`` + ``AttractionBuffer`` driven one tick pair per cycle) and
must agree with it on every ``SimStats`` counter, traffic kind and
coherence verdict.  Two things make it fast.

*Flat state.*  The whole machine lives in plain containers local to the
call instead of dataclass messages, delivery closures and method chains:

* bus messages are tuples dispatched on an integer kind, in per-source
  deques;
* cache modules and Attraction Buffers are lists of insertion-ordered
  dicts (pop + reinsert = LRU touch), presence mapped to a dirty bit;
* next-level requests are ``(cluster, block)`` tuples (``None`` for
  victim write-backs), keyed by completion cycle;
* load completion callbacks collapse to ``per_load[iteration] = cycle``;
* per-op address streams come from the trace's memoized tables
  (:meth:`~repro.workloads.traces.AddressTrace.addresses`) and their
  placements are precomputed into flat lists, so the cycle loop never
  calls ``AddressTrace.address``;
* stats accumulate in local integers and flush to
  :class:`~repro.sim.stats.SimStats` once, in the ``finally`` block.

*Skipped cycles.*  A cycle needs processing only when the core issues
or the memory system does work.  The timed event sources are in-flight
bus transfers, deferred owner responses, next-level fills and, while
messages are queued behind busy buses, the first cycle a bus frees; a
non-empty next-level accept queue or an injectable queued message makes
every cycle an event.  Three windows jump in one step: a stall (to the
earlier of the next event and the blocking loads' known completion), the
post-issue drain (event to event), and a run of memory-free kernel
indexes entered with the memory system quiescent.  Skipped cycles only
move bus arbitration, which ``skip_window`` replays in bulk.  The stall
and drain watchdogs charge and raise exactly what the reference would.

*Placement.*  Each :class:`~repro.sim.models.MemoryModel` supplies, per
address, the *home* a request travels to first and the *owner* that
holds the data and serializes accesses to it.  Owner equals home for
``snooping`` and ``dls``.  Under ``directory`` a request reaching a home
that does not own its block is forwarded to the owner as a
``fwd_load``/``fwd_store`` hop, and a home accessing a block it does not
own sends that hop directly.

The orderings that matter are called out inline: tick order (deferred
sends -> next-level fills -> next-level acceptance -> bus deliveries),
bus arbitration (round-robin over sources, highest-numbered free bus
first), MSHR action replay in arrival order, and owner-side load
serialization.  Per-module cache hit/miss counters and the next level's
``queued_cycles`` are not mirrored: neither reaches ``SimStats`` or the
metrics registry.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

from repro.errors import SimulationError
from repro.sim import executor as _executor
from repro.sim.executor import _all_ready, _due_ops
from repro.sim.stats import AccessType
from repro.workloads.traces import address_table

# Bus-message kinds (tuple position 0), indexing _KIND_NAMES.
_REQ_LOAD = 0
_REQ_STORE = 1
_RESPONSE = 2
_FWD_LOAD = 3
_FWD_STORE = 4
_KIND_NAMES = ("req_load", "req_store", "resp", "fwd_load", "fwd_store")

# MSHR action kinds (tuple position 0); replayed in arrival order.
_ACT_STORE = 0
_ACT_LOAD = 1
_ACT_RESPOND = 2


def _fastpath_tables(ops_by_slot, ii: int, n_iter: int, total_indexes: int):
    """Precomputed tables for the bulk (memory-free run) fast path.

    A modulo slot is *clean* when none of its ops touch memory or consume
    a load value; a run of clean slots entered with the memory system
    quiescent retires without per-cycle processing.  ``run_len[s]`` is the
    clean-run length starting at slot ``s`` (wrapping, capped at II);
    ``count_prefix`` gives O(1) issued-op counts over any wrapped slot
    window.  The run bounds [steady_lo, steady_hi) are the indexes where
    every matching op instance is live (past the prologue ramp, before
    the epilogue ramp), so due-op sets equal whole slot buckets.
    """
    clean = [
        all(
            not (op.is_load or op.is_store or op.load_preds)
            for op in bucket
        )
        for bucket in ops_by_slot
    ]
    counts = [len(bucket) for bucket in ops_by_slot]
    doubled = counts + counts
    count_prefix = [0]
    for count in doubled:
        count_prefix.append(count_prefix[-1] + count)
    ops_per_ii = sum(counts)

    all_clean = all(clean)
    run_len = [0] * ii
    if not all_clean:
        doubled_clean = clean + clean
        lens = [0] * (2 * ii)
        run = 0
        for i in range(2 * ii - 1, -1, -1):
            run = run + 1 if doubled_clean[i] else 0
            lens[i] = run
        run_len = [lens[s] if lens[s] < ii else ii for s in range(ii)]

    times = [op.time for bucket in ops_by_slot for op in bucket]
    if times:
        steady_lo = max(times)
        steady_hi = min(times) + n_iter * ii
    else:
        steady_lo = 0
        steady_hi = total_indexes
    if steady_hi > total_indexes:
        steady_hi = total_indexes
    return run_len, all_clean, count_prefix, ops_per_ii, steady_lo, steady_hi


def _next_prune_after(index: int, interval: int) -> int:
    """The next prune threshold at or above ``index`` — robust to the
    bulk fast path jumping over several interval multiples at once."""
    return index - index % interval + interval


def run_flat(
    machine, model, schedule, n_iter, total_indexes, ops_by_slot,
    completions, trc, stats, checker,
) -> List[int]:
    """Run one compiled loop to completion under memory ``model``.

    Accumulates into ``stats`` and ``completions`` exactly like the
    per-cycle reference; returns the per-bus busy cycles.
    """
    ii = schedule.ii
    length = schedule.length
    watchdog = _executor.STALL_WATCHDOG
    prune_interval = _executor._PRUNE_INTERVAL
    prune = _executor._prune

    # ------------------------------------------------------------------
    # Machine parameters
    # ------------------------------------------------------------------
    num_clusters = machine.num_clusters
    block_bytes = machine.cache.block_bytes
    hit_latency = machine.cache.hit_latency
    nsets = machine.cache.num_sets
    assoc = machine.cache.associativity
    num_buses = machine.memory_buses.count
    bus_latency = machine.memory_buses.latency
    nl_latency = machine.next_level.latency
    nl_ports = machine.next_level.ports
    ab_config = machine.attraction_buffer
    use_abs = ab_config is not None
    if use_abs:
        ab_nsets = ab_config.num_sets
        ab_assoc = ab_config.associativity
        ab_sets: List[List[dict]] = [
            [dict() for _ in range(ab_nsets)] for _ in range(num_clusters)
        ]

    # ------------------------------------------------------------------
    # Machine state (mirrors MemorySystem/BusFabric/NextLevel/CacheModule)
    # ------------------------------------------------------------------
    # Cache modules: per cluster, per set, insertion-ordered dict
    # block -> dirty (last = most recently used, first = LRU victim).
    cache_sets: List[List[dict]] = [
        [dict() for _ in range(nsets)] for _ in range(num_clusters)
    ]
    # Ground-truth versions: (block, owner) -> {addr: (iteration, seq)}.
    versions: Dict[tuple, dict] = {}
    # Owner-side MSHRs: per cluster, block -> action list (arrival order).
    mshr: List[Dict[int, list]] = [{} for _ in range(num_clusters)]
    # Bus fabric.
    queues = [deque() for _ in range(num_clusters)]
    bus_free = [0] * num_buses
    busy_cycles = [0] * num_buses
    bus_min = 0  # cached min(bus_free); updated by inject
    in_flight: Dict[int, list] = {}
    queued = 0
    rr_start = 0
    transfers = 0
    # Per-message-kind transfer counts, indexed by message kind (mutable
    # list: no nonlocal needed at the injection sites).
    transfers_by_kind = [0] * len(_KIND_NAMES)
    bus_queued_cycles = 0
    # Next level: queue of (cluster, block) fetches / None write-backs.
    nl_queue = deque()
    nl_compl: Dict[int, list] = {}
    nl_requests = 0
    # Deferred owner responses: send cycle -> messages.
    deferred: Dict[int, list] = {}
    outstanding = 0
    # The three timed dicts above are only ever inserted at the current
    # cycle plus a nonnegative constant latency, and only ever popped at
    # the current cycle, so their keys stay sorted: next(iter(d)) is
    # min(d) everywhere below.

    # ------------------------------------------------------------------
    # Stat accumulators (flushed once, in the finally block)
    # ------------------------------------------------------------------
    acc_local_hit = 0
    acc_remote_hit = 0
    acc_local_miss = 0
    acc_remote_miss = 0
    acc_combined = 0
    viol_acc = 0
    nullified_acc = 0
    ab_hits_total = 0
    ab_fills_total = 0
    ab_overflows_total = 0
    ab_flushed_acc = 0
    compute_acc = 0
    stall_acc = 0
    issued_acc = 0
    ff_acc = 0
    fr_acc = 0

    observe_load = checker.observe_load if checker is not None else None

    # ------------------------------------------------------------------
    # Protocol helpers (closures over the flat state)
    # ------------------------------------------------------------------
    def apply_store(key, addr, version):
        nonlocal viol_acc
        bucket = versions.get(key)
        if bucket is None:
            bucket = versions[key] = {}
        current = bucket.get(addr)
        if current is not None and current > version:
            # A younger store already applied: program order inverted;
            # keep the younger (trace-correct) version.
            if checker is not None:
                checker.observe_write_inversion()
            viol_acc += 1
            return
        bucket[addr] = version

    def send_response(owner, requester, block, addr, iid, it, per_load,
                      send_at, now):
        # The load observes the subblock *here*, at its serialization
        # point at the owner; the response only models the transfer
        # back.  (The version snapshot is only materialized when
        # Attraction Buffers will consume it at the requester.)
        nonlocal viol_acc, queued
        bucket = versions.get((block, owner))
        if use_abs:
            snapshot = dict(bucket) if bucket else {}
            observed = snapshot.get(addr)
        else:
            snapshot = None
            observed = bucket.get(addr) if bucket else None
        if observe_load is not None and observe_load(iid, it, observed):
            viol_acc += 1
        message = (_RESPONSE, owner, requester, block, it, per_load,
                   snapshot)
        if send_at <= now:
            queues[owner].append(message)
            queued += 1
        else:
            bucket_d = deferred.get(send_at)
            if bucket_d is None:
                deferred[send_at] = [message]
            else:
                bucket_d.append(message)

    def ab_fill(cluster, block, home, snapshot):
        nonlocal ab_fills_total, ab_overflows_total
        key = (block, home)
        abset = ab_sets[cluster][block % ab_nsets]
        entry = abset.get(key)
        if entry is not None:
            # Re-fill of a resident copy: merge + LRU touch, no fill
            # counted (AttractionBuffer.fill's early return).
            entry[0].update(snapshot)
            abset[key] = abset.pop(key)
            return
        if len(abset) >= ab_assoc:
            victim_key = next(iter(abset))
            victim = abset.pop(victim_key)
            ab_overflows_total += 1
            if victim[1]:
                for a, v in victim[0].items():
                    apply_store(victim_key, a, v)
        abset[key] = [dict(snapshot), False]
        ab_fills_total += 1

    def handle_fill(cluster, block, cycle):
        # Install clean (merging dirtiness and refreshing LRU when the
        # block is somehow already present), write back a dirty victim
        # through a next-level port, then replay the MSHR actions in
        # arrival order.
        nonlocal outstanding, viol_acc, nl_requests
        cset = cache_sets[cluster][block % nsets]
        if block in cset:
            cset[block] = cset.pop(block)
        else:
            if len(cset) >= assoc:
                victim_dirty = cset.pop(next(iter(cset)))
                if victim_dirty:
                    nl_queue.append(None)
                    nl_requests += 1
            cset[block] = False
        actions = mshr[cluster].pop(block, None)
        if actions is None:
            raise SimulationError(f"fill for block {block} without waiter")
        key = (block, cluster)
        for action in actions:
            kind = action[0]
            if kind == _ACT_STORE:
                apply_store(key, action[1], action[2])
                cset[block] = True
            elif kind == _ACT_LOAD:
                _k, addr, iid, it, per_load = action
                bucket = versions.get(key)
                observed = bucket.get(addr) if bucket else None
                if observe_load is not None and observe_load(
                        iid, it, observed):
                    viol_acc += 1
                per_load[it] = cycle
            else:  # _ACT_RESPOND
                _k, requester, addr, iid, it, per_load = action
                send_response(cluster, requester, block, addr, iid, it,
                              per_load, send_at=cycle, now=cycle)
            outstanding -= 1

    def deliver(arrivals, cycle):
        # Bus messages arrive at their destinations (fabric.deliver).  A
        # request reaching a cluster that does not own its block is at a
        # directory home: it continues to the owner as a forward, and
        # the access stays outstanding across the hop.
        nonlocal outstanding, queued, acc_remote_hit, acc_remote_miss
        nonlocal acc_combined, nl_requests
        for message in arrivals:
            kind = message[0]
            if kind == _RESPONSE:
                # (kind, owner, requester, block, it, per_load, snapshot)
                message[5][message[4]] = cycle
                outstanding -= 1
                if use_abs:
                    ab_fill(message[2], message[3], message[1],
                            message[6])
            elif kind == _REQ_LOAD or kind == _FWD_LOAD:
                (_k, requester, dst, block, addr, iid, it, per_load,
                 owner) = message
                if dst != owner:
                    queues[dst].append((_FWD_LOAD, requester, owner, block,
                                        addr, iid, it, per_load, owner))
                    queued += 1
                    continue
                cset = cache_sets[dst][block % nsets]
                if block in cset:
                    acc_remote_hit += 1
                    cset[block] = cset.pop(block)
                    send_response(dst, requester, block, addr, iid, it,
                                  per_load, send_at=cycle + hit_latency,
                                  now=cycle)
                    continue
                action = (_ACT_RESPOND, requester, addr, iid, it, per_load)
                waiter = mshr[dst].get(block)
                if waiter is not None:
                    acc_combined += 1
                    waiter.append(action)
                else:
                    acc_remote_miss += 1
                    mshr[dst][block] = [action]
                    nl_queue.append((dst, block))
                    nl_requests += 1
                outstanding += 1
            else:  # _REQ_STORE / _FWD_STORE
                _k, dst, block, addr, version, owner = message
                if dst != owner:
                    queues[dst].append((_FWD_STORE, owner, block, addr,
                                        version, owner))
                    queued += 1
                    continue
                cset = cache_sets[dst][block % nsets]
                if block in cset:
                    acc_remote_hit += 1
                    cset.pop(block)
                    cset[block] = True
                    apply_store((block, dst), addr, version)
                else:
                    waiter = mshr[dst].get(block)
                    if waiter is not None:
                        acc_combined += 1
                        waiter.append((_ACT_STORE, addr, version))
                    else:
                        acc_remote_miss += 1
                        mshr[dst][block] = [(_ACT_STORE, addr, version)]
                        nl_queue.append((dst, block))
                        nl_requests += 1
                    outstanding += 1
                outstanding -= 1

    def flat_load(cluster, addr, home, owner, iid, it, per_load, cycle):
        nonlocal outstanding, queued, viol_acc, nl_requests
        nonlocal acc_local_hit, acc_local_miss, acc_combined
        nonlocal ab_hits_total
        block = addr // block_bytes
        if home == cluster:
            if owner != cluster:
                # A directory home's own access: the lookup is local, the
                # data one forward hop away.
                outstanding += 1
                queues[cluster].append((_FWD_LOAD, cluster, owner, block,
                                        addr, iid, it, per_load, owner))
                queued += 1
                return
            cset = cache_sets[cluster][block % nsets]
            if block in cset:
                acc_local_hit += 1
                cset[block] = cset.pop(block)
                bucket = versions.get((block, cluster))
                observed = bucket.get(addr) if bucket else None
                if observe_load is not None and observe_load(
                        iid, it, observed):
                    viol_acc += 1
                per_load[it] = cycle + hit_latency
                return
            waiter = mshr[cluster].get(block)
            if waiter is not None:
                acc_combined += 1
                waiter.append((_ACT_LOAD, addr, iid, it, per_load))
                outstanding += 1
                return
            acc_local_miss += 1
            mshr[cluster][block] = [(_ACT_LOAD, addr, iid, it, per_load)]
            outstanding += 1
            nl_queue.append((cluster, block))
            nl_requests += 1
            return
        if use_abs:
            # A cached copy of the remote subblock makes the access
            # local (section 5.1).
            key = (block, home)
            abset = ab_sets[cluster][block % ab_nsets]
            entry = abset.get(key)
            if entry is not None:
                abset[key] = abset.pop(key)
                ab_hits_total += 1
                acc_local_hit += 1
                observed = entry[0].get(addr)
                if observe_load is not None and observe_load(
                        iid, it, observed):
                    viol_acc += 1
                per_load[it] = cycle + hit_latency
                return
        # Every remote load travels to its home as its own request (no
        # requester-side combining — owner-side serialization is the
        # point of coherence).
        outstanding += 1
        queues[cluster].append(
            (_REQ_LOAD, cluster, home, block, addr, iid, it, per_load,
             owner))
        queued += 1

    def flat_store(cluster, addr, home, owner, it, seq, replica, cycle):
        nonlocal outstanding, queued, nullified_acc, nl_requests
        nonlocal acc_local_hit, acc_local_miss, acc_combined
        version = (it, seq)
        block = addr // block_bytes
        if replica and home != cluster:
            # Nullified instance (section 3.3) — still refreshes an
            # Attraction-Buffer copy if one exists (section 5.3).
            nullified_acc += 1
            if use_abs:
                entry = ab_sets[cluster][block % ab_nsets].get(
                    (block, home))
                if entry is not None:
                    entry[0][addr] = version
                    entry[1] = True
            return
        if home == cluster:
            if owner != cluster:
                outstanding += 1
                queues[cluster].append((_FWD_STORE, owner, block, addr,
                                        version, owner))
                queued += 1
                return
            cset = cache_sets[cluster][block % nsets]
            if block in cset:
                acc_local_hit += 1
                cset.pop(block)
                cset[block] = True
                apply_store((block, cluster), addr, version)
                return
            waiter = mshr[cluster].get(block)
            if waiter is not None:
                acc_combined += 1
                waiter.append((_ACT_STORE, addr, version))
                outstanding += 1
                return
            acc_local_miss += 1
            mshr[cluster][block] = [(_ACT_STORE, addr, version)]
            outstanding += 1
            nl_queue.append((cluster, block))
            nl_requests += 1
            return
        if use_abs:
            # Remote store with a locally attracted copy: update it in
            # place; dirty data goes home at the loop-boundary flush.
            entry = ab_sets[cluster][block % ab_nsets].get((block, home))
            if entry is not None:
                entry[0][addr] = version
                entry[1] = True
                acc_local_hit += 1
                return
        outstanding += 1
        queues[cluster].append(
            (_REQ_STORE, home, block, addr, version, owner))
        queued += 1

    def inject(cycle):
        # BusFabric.inject for the queued case: round-robin arbitration
        # over sources for the free buses (highest-numbered free bus
        # assigned first), at most one injection per source per cycle.
        nonlocal queued, rr_start, transfers, bus_queued_cycles, bus_min
        if bus_min > cycle:  # no bus free: account waiters, O(1)
            bus_queued_cycles += queued
            return
        base = rr_start
        rr_start = (base + 1) % num_clusters
        arrival = cycle + bus_latency
        # Scanning buses top-down skipping busy ones visits exactly the
        # free buses in descending index order — the order the original
        # free-list pop() assigns them.
        b = num_buses - 1
        for k in range(num_clusters):
            queue = queues[(base + k) % num_clusters]
            if not queue:
                continue
            while b >= 0 and bus_free[b] > cycle:
                b -= 1
            if b < 0:
                break
            message = queue.popleft()
            queued -= 1
            bus_free[b] = arrival
            busy_cycles[b] += bus_latency
            b -= 1
            bucket = in_flight.get(arrival)
            if bucket is None:
                in_flight[arrival] = [message]
            else:
                bucket.append(message)
            transfers += 1
            transfers_by_kind[message[0]] += 1
        bus_queued_cycles += queued
        # A still-free bus keeps bus_min <= cycle; its exact value is
        # only ever *compared* against cycles >= this one, so the stale
        # cached value stays predicate-equivalent.  Only when every bus
        # went busy does the cache need the real minimum.
        while b >= 0:
            if bus_free[b] <= cycle:
                return
            b -= 1
        bus_min = min(bus_free)

    def nl_accept(cycle):
        # NextLevel.tick's acceptance half (fills are handled inline at
        # the call sites *before* this, so a victim write-back those
        # fills enqueue is accepted this very cycle, like the original).
        done = cycle + nl_latency
        bucket = nl_compl.get(done)
        if bucket is None:
            bucket = nl_compl[done] = []
        accepted = 0
        while nl_queue and accepted < nl_ports:
            bucket.append(nl_queue.popleft())
            accepted += 1

    def skip_window(start, stop):
        # Replay cycles [start, stop) on which inject() provably moves
        # nothing: while messages are queued every bus stays busy, so
        # only wait cycles accrue; otherwise the round-robin pointer
        # rotates on each cycle with a free bus.
        nonlocal bus_queued_cycles, rr_start
        if queued:
            bus_queued_cycles += queued * (stop - start)
            return
        begin = start if start > bus_min else bus_min
        if stop > begin:
            rr_start = (rr_start + (stop - begin)) % num_clusters

    # ------------------------------------------------------------------
    # Steady-state dispatch tables, with per-op precomputed address and
    # placement lists replacing trace.address calls and routing.
    # ------------------------------------------------------------------
    (
        run_len, all_clean, count_prefix, ops_per_ii, steady_lo, steady_hi,
    ) = _fastpath_tables(ops_by_slot, ii, n_iter, total_indexes)

    # iid -> (addresses, homes, owners), each indexed by iteration
    tables: Dict[int, tuple] = {}
    flat_slots: List[tuple] = []
    pred_slots: List[tuple] = []
    for bucket in ops_by_slot:
        flat = []
        preds = []
        for info in bucket:
            kq = info.time // ii
            if info.is_load or info.is_store:
                addrs = address_table(trc, info.iid, n_iter)
                homes, owners = model.placement(machine, addrs)
                tables[info.iid] = (addrs, homes, owners)
                flat.append((
                    info.is_load, info.iid, completions.get(info.iid),
                    info.cluster, addrs, homes, owners, info.seq,
                    info.replica, kq,
                ))
            for load_iid, distance in info.load_preds:
                preds.append((completions[load_iid], kq + distance))
        flat_slots.append(tuple(flat))
        pred_slots.append(tuple(preds))
    slot_counts = [len(bucket) for bucket in ops_by_slot]

    index = 0
    cycle = 0
    stall_streak = 0
    drain_low_water = float("inf")
    drain_anchor = 0
    next_prune = prune_interval

    def stall(waits, cycle, stall_streak, index):
        """Event-to-event stall loop over frozen waits, shared by both
        issue paths; returns the cycle issue resumes on."""
        nonlocal stall_acc, ff_acc, next_prune, queued, rr_start
        while True:
            stall_acc += 1
            stall_streak += 1
            if stall_streak > watchdog:
                raise SimulationError(
                    f"machine stalled for {stall_streak} cycles at "
                    f"kernel index {index}"
                )
            # tick_end
            if queued:
                inject(cycle)
            elif bus_min <= cycle:
                rr_start = (rr_start + 1) % num_clusters
            cycle += 1

            # next event cycle
            if nl_queue or (queued and bus_min <= cycle):
                event = cycle
            else:
                event = bus_min if queued else None
                if in_flight:
                    c = next(iter(in_flight))
                    if event is None or c < event:
                        event = c
                if nl_compl:
                    c = next(iter(nl_compl))
                    if event is None or c < event:
                        event = c
                if deferred:
                    c = next(iter(deferred))
                    if event is None or c < event:
                        event = c
                if event is not None and event < cycle:
                    event = cycle
            if event is None or event > cycle:
                # No event this very cycle: jump to the earlier of the
                # next event and the cycle the blocking loads are known
                # to complete (unknown while one is still in flight).
                wake = 0
                for per_load, j in waits:
                    done = per_load.get(j, 0)
                    if done is None:
                        wake = None
                        break
                    if done > wake:
                        wake = done
                if wake is None and event is None:
                    # A blocking load is in flight but nothing is
                    # scheduled: the reference spins up to the watchdog.
                    # Charge that window and raise its error.
                    stall_acc += watchdog + 1 - stall_streak
                    raise SimulationError(
                        f"machine stalled for {watchdog + 1} cycles at "
                        f"kernel index {index}"
                    )
                if wake is None:
                    target = event
                elif event is None:
                    target = wake
                else:
                    target = event if event < wake else wake
                if target > cycle:
                    skipped = target - cycle
                    if stall_streak + skipped > watchdog:
                        stall_acc += watchdog + 1 - stall_streak
                        raise SimulationError(
                            f"machine stalled for {watchdog + 1} cycles "
                            f"at kernel index {index}"
                        )
                    stall_acc += skipped
                    ff_acc += skipped
                    stall_streak += skipped
                    skip_window(cycle, target)
                    cycle = target
                    if skipped >= prune_interval:
                        # A skipped stall as long as a prune interval:
                        # drop stale completions now, not after it.
                        prune(completions, index, ii, length)
                        if index >= next_prune:
                            next_prune = _next_prune_after(
                                index, prune_interval)
            # tick_begin
            if deferred:
                msgs = deferred.pop(cycle, None)
                if msgs:
                    for message in msgs:
                        queues[message[1]].append(message)
                    queued += len(msgs)
            if nl_compl:
                fills = nl_compl.pop(cycle, None)
                if fills:
                    for fill in fills:
                        if fill is not None:
                            handle_fill(fill[0], fill[1], cycle)
            if nl_queue and nl_ports:
                nl_accept(cycle)
            if in_flight:
                arrivals = in_flight.pop(cycle, None)
                if arrivals:
                    deliver(arrivals, cycle)
            for per_load, j in waits:
                done = per_load.get(j, 0)
                if done is None or done > cycle:
                    break
            else:
                return cycle, stall_streak

    try:
        while True:
            if index >= total_indexes:
                if not (outstanding or queued or in_flight or nl_queue
                        or nl_compl or deferred):
                    break
                # ---- post-issue drain --------------------------------
                # The watchdog bounds windows in which the low-water
                # mark of pending work stops falling; it is sampled after
                # tick_begin like the reference, so both declare a hung
                # drain on the same cycle.
                # tick_begin
                if deferred:
                    msgs = deferred.pop(cycle, None)
                    if msgs:
                        for message in msgs:
                            queues[message[1]].append(message)
                        queued += len(msgs)
                if nl_compl:
                    fills = nl_compl.pop(cycle, None)
                    if fills:
                        for fill in fills:
                            if fill is not None:
                                handle_fill(fill[0], fill[1], cycle)
                if nl_queue and nl_ports:
                    nl_accept(cycle)
                if in_flight:
                    arrivals = in_flight.pop(cycle, None)
                    if arrivals:
                        deliver(arrivals, cycle)
                pending = (
                    outstanding + queued
                    + sum(len(v) for v in in_flight.values())
                    + len(nl_queue)
                    + sum(len(v) for v in nl_compl.values())
                    + sum(len(v) for v in deferred.values())
                )
                if pending < drain_low_water:
                    drain_low_water = pending
                    drain_anchor = cycle
                # tick_end
                if queued:
                    inject(cycle)
                elif bus_min <= cycle:
                    rr_start = (rr_start + 1) % num_clusters
                cycle += 1
                if cycle - drain_anchor > watchdog:
                    raise SimulationError(
                        f"memory system failed to drain: no progress "
                        f"for {watchdog} cycles after the last issue"
                    )
                if not (outstanding or queued or in_flight or nl_queue
                        or nl_compl or deferred):
                    continue
                # next event cycle
                if nl_queue or (queued and bus_min <= cycle):
                    event = cycle
                else:
                    event = bus_min if queued else None
                    if in_flight:
                        c = next(iter(in_flight))
                        if event is None or c < event:
                            event = c
                    if nl_compl:
                        c = next(iter(nl_compl))
                        if event is None or c < event:
                            event = c
                    if deferred:
                        c = next(iter(deferred))
                        if event is None or c < event:
                            event = c
                    if event is not None and event < cycle:
                        event = cycle
                if event is None:
                    raise SimulationError(
                        f"memory system cannot drain: in-flight work "
                        f"remains but no event is pending at cycle {cycle}"
                    )
                # Never jump past the cycle on which the reference would
                # declare the drain hung.
                limit = drain_anchor + watchdog
                if event > limit:
                    event = limit
                if event > cycle:
                    ff_acc += event - cycle
                    skip_window(cycle, event)
                    cycle = event
                continue

            if steady_lo <= index < steady_hi:
                q_round, slot = divmod(index, ii)
                # ---- bulk fast path: memory-free kernel-index runs ---
                if all_clean:
                    k = steady_hi - index
                else:
                    k = run_len[slot]
                    if k:
                        bound = steady_hi - index
                        if k > bound:
                            k = bound
                if k and not (outstanding or queued or in_flight
                              or nl_queue or nl_compl or deferred):
                    if all_clean:
                        whole, rem = divmod(k, ii)
                        issued_acc += whole * ops_per_ii + (
                            count_prefix[slot + rem] - count_prefix[slot]
                        )
                    else:
                        issued_acc += (
                            count_prefix[slot + k] - count_prefix[slot]
                        )
                    compute_acc += k
                    fr_acc += k
                    skip_window(cycle, cycle + k)
                    index += k
                    cycle += k
                    stall_streak = 0
                    if index >= next_prune:
                        prune(completions, index, ii, length)
                        next_prune = _next_prune_after(
                            index, prune_interval)
                    continue

                # ---- one steady-state kernel index -------------------
                # tick_begin
                if deferred:
                    msgs = deferred.pop(cycle, None)
                    if msgs:
                        for message in msgs:
                            queues[message[1]].append(message)
                        queued += len(msgs)
                if nl_compl:
                    fills = nl_compl.pop(cycle, None)
                    if fills:
                        for fill in fills:
                            if fill is not None:
                                handle_fill(fill[0], fill[1], cycle)
                if nl_queue and nl_ports:
                    nl_accept(cycle)
                if in_flight:
                    arrivals = in_flight.pop(cycle, None)
                    if arrivals:
                        deliver(arrivals, cycle)

                preds = pred_slots[slot]
                for per_load, kqd in preds:
                    j = q_round - kqd
                    if j >= 0:
                        done = per_load.get(j, 0)
                        if done is None or done > cycle:
                            waits = [
                                (pl, q_round - kq)
                                for pl, kq in preds
                                if q_round - kq >= 0
                            ]
                            cycle, stall_streak = stall(
                                waits, cycle, stall_streak, index
                            )
                            break

                for (is_load, iid, per_load, cluster, addrs, homes, owners,
                     seq, replica, kq) in flat_slots[slot]:
                    it = q_round - kq
                    if is_load:
                        per_load[it] = None
                        flat_load(cluster, addrs[it], homes[it], owners[it],
                                  iid, it, per_load, cycle)
                    else:
                        flat_store(cluster, addrs[it], homes[it],
                                   owners[it], it, seq, replica, cycle)
                issued_acc += slot_counts[slot]
            else:
                # ---- prologue/epilogue ramp index (generic path) -----
                # tick_begin
                if deferred:
                    msgs = deferred.pop(cycle, None)
                    if msgs:
                        for message in msgs:
                            queues[message[1]].append(message)
                        queued += len(msgs)
                if nl_compl:
                    fills = nl_compl.pop(cycle, None)
                    if fills:
                        for fill in fills:
                            if fill is not None:
                                handle_fill(fill[0], fill[1], cycle)
                if nl_queue and nl_ports:
                    nl_accept(cycle)
                if in_flight:
                    arrivals = in_flight.pop(cycle, None)
                    if arrivals:
                        deliver(arrivals, cycle)

                due = _due_ops(ops_by_slot, index, ii, n_iter)
                if not _all_ready(due, completions, cycle):
                    waits = [
                        (completions[load_iid], iteration - distance)
                        for info, iteration in due
                        for load_iid, distance in info.load_preds
                        if iteration - distance >= 0
                    ]
                    cycle, stall_streak = stall(
                        waits, cycle, stall_streak, index
                    )
                for info, it in due:
                    issued_acc += 1
                    if info.is_load:
                        addrs, homes, owners = tables[info.iid]
                        per_load = completions[info.iid]
                        per_load[it] = None
                        flat_load(info.cluster, addrs[it], homes[it],
                                  owners[it], info.iid, it, per_load, cycle)
                    elif info.is_store:
                        addrs, homes, owners = tables[info.iid]
                        flat_store(info.cluster, addrs[it], homes[it],
                                   owners[it], it, info.seq, info.replica,
                                   cycle)

            index += 1
            compute_acc += 1
            stall_streak = 0
            # tick_end
            if queued:
                inject(cycle)
            elif bus_min <= cycle:
                rr_start = (rr_start + 1) % num_clusters
            cycle += 1
            if index >= next_prune:
                prune(completions, index, ii, length)
                next_prune = _next_prune_after(index, prune_interval)

        # ---- loop-boundary Attraction-Buffer flush (sections 5.2/5.3):
        # every dirty attracted copy is written back to its home cluster
        # and all entries drop.
        if use_abs:
            for cluster_sets in ab_sets:
                for abset in cluster_sets:
                    for key, entry in abset.items():
                        if entry[1]:
                            for a, v in entry[0].items():
                                apply_store(key, a, v)
                            ab_flushed_acc += 1
                    abset.clear()
    finally:
        stats.compute_cycles += compute_acc
        stats.stall_cycles += stall_acc
        stats.issued_ops += issued_acc
        stats.fast_forwarded_cycles += ff_acc
        stats.fast_retired_indexes += fr_acc
        accesses = stats.accesses
        accesses[AccessType.LOCAL_HIT] += acc_local_hit
        accesses[AccessType.REMOTE_HIT] += acc_remote_hit
        accesses[AccessType.LOCAL_MISS] += acc_local_miss
        accesses[AccessType.REMOTE_MISS] += acc_remote_miss
        accesses[AccessType.COMBINED] += acc_combined
        stats.coherence_violations += viol_acc
        stats.nullified_stores += nullified_acc
        stats.ab_hits = ab_hits_total
        stats.ab_fills = ab_fills_total
        stats.ab_overflows = ab_overflows_total
        stats.ab_flushed_dirty += ab_flushed_acc
        stats.bus_transfers = transfers
        stats.bus_transfer_kinds = {
            name: count
            for name, count in zip(_KIND_NAMES, transfers_by_kind)
            if count
        }
        stats.bus_queued_cycles = bus_queued_cycles
        stats.next_level_requests = nl_requests
    return busy_cycles
