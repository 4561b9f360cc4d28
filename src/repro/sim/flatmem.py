"""The flat fast path: the default simulation engine, for every model.

:func:`run_flat` runs one compiled loop to completion as a single plain
function call.  It executes the same cycle-level model as the per-cycle
reference (``engine="cycles"``: ``MemorySystem`` + ``BusFabric`` +
``NextLevel`` + ``AttractionBuffer`` driven one tick pair per cycle) and
must agree with it on every ``SimStats`` counter, traffic kind,
coherence verdict and per-bus busy count.

*One cycle loop.*  Each pass of the loop processes one machine cycle,
with every phase written once, in the reference's order:

1. the jump to the next event (below), which replays the skipped
   cycles' bus arbitration in bulk;
2. ``tick_begin``: deferred owner responses enter their bus queues,
   next-level fills install and replay their MSHR actions in arrival
   order, the next level accepts up to its port count, and bus
   transfers completing this cycle are delivered;
3. the core: a kernel index issues, or stalls on its blocking loads
   (kept as loop state until they complete), or, after the last issue,
   the drain samples its low-water mark of pending work;
4. ``tick_end``: round-robin injection of queued messages onto free
   buses (highest-numbered free bus first, one per source per cycle).

*Flat state.*  The machine lives in plain containers local to the call;
there are no closures, so the loop reads every variable as a local:

* bus messages are tuples dispatched on an integer kind, in per-source
  deques visited in round-robin orders built once per start source;
  one landing list per injection cycle is stored under its arrival
  cycle, and each bus counts its transfers (busy cycles are count x
  latency);
* cache modules and Attraction Buffers are lists of insertion-ordered
  dicts (pop + reinsert = LRU touch), presence mapped to a dirty bit;
* ground-truth versions are keyed by address (an address has exactly
  one block and owner); per-subblock copies are kept only while
  Attraction Buffers need their snapshots;
* next-level requests are ``(cluster, block)`` tuples (``None`` for
  victim write-backs), keyed by completion cycle;
* each load's completions are one list indexed by iteration (``0``
  before issue, ``None`` in flight, then the completion cycle), so a
  completion callback collapses to ``per_load[iteration] = cycle``;
  each observation is compared inline with the checker's per-load
  :attr:`~repro.sim.coherence.CoherenceChecker.oracle` lists, reporting
  only mismatches;
* per-op address streams come from the trace's memoized tables
  (:meth:`~repro.workloads.traces.AddressTrace.addresses`) and their
  placements are precomputed into flat lists, so the cycle loop never
  calls ``AddressTrace.address``;
* store application with its inversion check, and Attraction Buffer
  fill and flush, are module-level helpers returning counts;
* stats accumulate in local integers and flush to
  :class:`~repro.sim.stats.SimStats` once, in the ``finally`` block,
  which also counts the issued ops from the retired kernel index.

*Skipped cycles.*  A cycle needs processing only when the core issues
or the memory system does work.  The timed event sources are in-flight
bus transfers, deferred owner responses, next-level fills and, while
messages are queued behind busy buses, the first cycle a bus frees; a
non-empty next-level accept queue or an injectable queued message makes
every cycle an event.  Three windows jump in one step: a stall (to the
earlier of the next event and the blocking loads' known completion), the
post-issue drain (event to event), and a run of memory-free kernel
indexes entered with the memory system quiescent.  Skipped cycles only
move bus arbitration.  The stall and drain watchdogs charge and raise
exactly what the reference would.

*Placement.*  Each :class:`~repro.sim.models.MemoryModel` supplies, per
address, the *home* a request travels to first and the *owner* that
holds the data and serializes accesses to it.  Owner equals home for
``snooping`` and ``dls``.  Under ``directory`` a request reaching a home
that does not own its block is forwarded to the owner as a
``fwd_load``/``fwd_store`` hop, and a home accessing a block it does not
own sends that hop directly.

The orderings that matter are called out inline: tick order, bus
arbitration, MSHR action replay in arrival order, and owner-side load
serialization.
"""

from __future__ import annotations

from collections import deque
from typing import List

from repro.errors import SimulationError
from repro.sim import executor as _executor
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

#: The cycle of an event that never comes: later than any real cycle.
_NEVER = 2**63 - 1


def _fastpath_tables(ops_by_slot, ii: int, n_iter: int, total_indexes: int):
    """Precomputed tables for the bulk (memory-free run) fast path.

    A modulo slot is *clean* when none of its ops touch memory or consume
    a load value; a run of clean slots entered with the memory system
    quiescent retires without per-cycle processing.  ``run_len[s]`` is the
    clean-run length starting at slot ``s`` (wrapping, capped at II).
    The steady bounds [steady_lo, steady_hi) are the indexes where every
    matching op instance is live (past the prologue ramp, before the
    epilogue ramp), so due-op sets equal whole slot buckets.
    """
    clean = [
        all(
            not (op.is_load or op.is_store or op.load_preds)
            for op in bucket
        )
        for bucket in ops_by_slot
    ]
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
    return run_len, all_clean, steady_lo, steady_hi


def _empty_sets(num_clusters: int, num_sets: int) -> List[List[dict]]:
    """Per cluster, per set: an empty insertion-ordered dict."""
    return [[{} for _ in range(num_sets)] for _ in range(num_clusters)]


def _apply_store(versions, buckets, block, owner, addr, version,
                 checker) -> int:
    """Apply one store at its owner; returns 1 on a program-order
    inversion, else 0.

    When a younger version already applied, the younger (trace-correct)
    version stays.  ``buckets`` mirrors ``versions`` per ``(block,
    owner)`` subblock while Attraction Buffers need snapshots of it;
    otherwise it is ``None``.
    """
    current = versions.get(addr)
    if current is not None and current > version:
        if checker is not None:
            checker.observe_write_inversion()
        return 1
    versions[addr] = version
    if buckets is not None:
        bucket = buckets.get((block, owner))
        if bucket is None:
            buckets[(block, owner)] = {addr: version}
        else:
            bucket[addr] = version
    return 0


def _ab_fill(abset, key, snapshot, assoc, versions, buckets, checker):
    """Attract a delivered response's subblock ``snapshot`` into one
    Attraction-Buffer set; returns ``(fills, overflows, inversions)``.

    A resident copy merges the snapshot and is LRU-touched without
    counting a fill (``AttractionBuffer.fill``'s early return).  A full
    set evicts its LRU entry, and a dirty victim is written back to its
    owner.  The entry takes ownership of ``snapshot``.
    """
    entry = abset.get(key)
    if entry is not None:
        entry[0].update(snapshot)
        abset[key] = abset.pop(key)
        return 0, 0, 0
    overflows = inversions = 0
    if len(abset) >= assoc:
        victim_key = next(iter(abset))
        victim = abset.pop(victim_key)
        overflows = 1
        if victim[1]:
            for addr, version in victim[0].items():
                inversions += _apply_store(versions, buckets, *victim_key,
                                           addr, version, checker)
    abset[key] = [snapshot, False]
    return 1, overflows, inversions


def _ab_flush(ab_sets, versions, buckets, checker):
    """The loop-boundary flush (sections 5.2/5.3): every dirty attracted
    copy is written back to its owner and all entries drop.  Returns
    ``(flushed dirty entries, inversions)``."""
    flushed = inversions = 0
    for cluster_sets in ab_sets:
        for abset in cluster_sets:
            for key, (snapshot, dirty) in abset.items():
                if dirty:
                    for addr, version in snapshot.items():
                        inversions += _apply_store(versions, buckets, *key,
                                                   addr, version, checker)
                    flushed += 1
            abset.clear()
    return flushed, inversions


def run_flat(
    machine, model, schedule, n_iter, total_indexes, ops_by_slot,
    trc, stats, checker,
) -> List[int]:
    """Run one compiled loop to completion under memory ``model``.

    Accumulates into ``stats`` exactly like the per-cycle reference;
    returns the per-bus busy cycles.
    """
    ii = schedule.ii
    watchdog = _executor.STALL_WATCHDOG

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
    ab_sets = buckets = None
    if use_abs:
        ab_nsets = ab_config.num_sets
        ab_assoc = ab_config.associativity
        # Per cluster, per set: (block, home) -> [snapshot, dirty].
        ab_sets = _empty_sets(num_clusters, ab_nsets)
        # The owners' versions again, per (block, owner) subblock: the
        # snapshot a response carries to the requester's buffer.
        buckets = {}

    # ------------------------------------------------------------------
    # Machine state (mirrors MemorySystem/BusFabric/NextLevel/CacheModule)
    # ------------------------------------------------------------------
    # Cache modules: per cluster, per set, insertion-ordered dict
    # block -> dirty (last = most recently used, first = LRU victim).
    cache_sets = _empty_sets(num_clusters, nsets)
    # Ground-truth versions, addr -> (iteration, seq): an address has
    # exactly one (block, owner), so one map serves every owner.
    versions = {}
    # Owner-side MSHRs: per cluster, block -> action list (arrival order).
    mshr = [{} for _ in range(num_clusters)]
    # Bus fabric: per-source queues, visited in round-robin order from
    # each start source; per-bus free cycle and transfer count.
    queues = [deque() for _ in range(num_clusters)]
    rr_orders = []
    for base in range(num_clusters):
        rr_orders.append(tuple(queues[base:] + queues[:base]))
    rr_start = 0
    bus_free = [0] * num_buses
    bus_counts = [0] * num_buses
    bus_min = 0  # cached min(bus_free); updated on injection
    in_flight = {}  # arrival cycle -> messages landing then
    queued = 0
    transfers_by_kind = [0] * len(_KIND_NAMES)
    bus_queued_cycles = 0
    # Next level: queue of (cluster, block) fetches / None write-backs.
    nl_queue = deque()
    nl_compl = {}
    nl_requests = 0
    # Deferred owner responses: send cycle -> messages.
    deferred = {}
    outstanding = 0
    # The three timed dicts above are only ever inserted at the current
    # cycle plus a positive constant latency, and only ever popped at
    # the current cycle, so their keys stay sorted: next(iter(d)) is
    # min(d), and no key is ever below the cycle being processed.

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
    ab_hits_acc = 0
    ab_fills_acc = 0
    ab_overflows_acc = 0
    ab_flushed_acc = 0
    stall_acc = 0
    ff_acc = 0
    fr_acc = 0

    # Each observation is compared inline; the checker hears only of
    # mismatches (each one a violation).
    expected = checker.oracle if checker is not None else None

    # ------------------------------------------------------------------
    # Per-slot dispatch tables: memory ops with their precomputed
    # address and placement lists, and the load operands of every op.
    # An op of round offset kq is due at kernel index q * II + slot for
    # kq <= q < kq + n_iter, always so in [steady_lo, steady_hi).
    # ------------------------------------------------------------------
    run_len, all_clean, steady_lo, steady_hi = _fastpath_tables(
        ops_by_slot, ii, n_iter, total_indexes)
    if all_clean:
        run_len = [total_indexes] * ii  # every run ends at steady_hi

    # Per load, its completions by iteration: 0 before issue, None in
    # flight, then the completion cycle.  A zero tail as long as the
    # longest consumer distance serves a steady-state consumer's reads
    # of iterations below 0 (negative indexes), which never block.
    infos = [info for bucket in ops_by_slot for info in bucket]
    op_times = [info.time for info in infos]
    pad = max([distance for info in infos
               for _, distance in info.load_preds], default=0)
    completions = {info.iid: [0] * (n_iter + pad)
                   for info in infos if info.is_load}
    flat_slots: List[tuple] = []
    pred_slots: List[tuple] = []  # (per_load, kq + distance, kq + n_iter)
    steady_preds: List[tuple] = []  # (per_load, kq + distance)
    for bucket in ops_by_slot:
        flat = []
        preds = []
        for info in bucket:
            kq = info.time // ii
            if info.is_load or info.is_store:
                addrs = address_table(trc, info.iid, n_iter)
                homes, owners = model.placement(machine, addrs)
                flat.append((
                    info.is_load, info.iid, completions.get(info.iid),
                    info.cluster, addrs, homes, owners, info.seq,
                    info.replica, kq,
                ))
            for load_iid, distance in info.load_preds:
                preds.append((completions[load_iid], kq + distance,
                              kq + n_iter))
        flat_slots.append(tuple(flat))
        pred_slots.append(tuple(preds))
        steady_preds.append(tuple(pred[:2] for pred in preds))

    index = 0
    q_round = slot = 0  # divmod(index, ii)
    cycle = 0
    stall_streak = 0
    # A stalled index's blocking (per_load, iteration) pairs.
    waits = None
    drain_low_water = float("inf")
    drain_anchor = None  # set on the first drain cycle

    try:
        while True:
            # ---- the jump to the next event ------------------------------
            target = cycle
            if waits is None and drain_anchor is None:
                if (run_len[slot] and steady_lo <= index < steady_hi
                        and not (outstanding or queued or in_flight
                                 or nl_queue or nl_compl or deferred)):
                    # A run of memory-free kernel indexes entered with the
                    # memory system quiescent retires in one step.
                    k = run_len[slot]
                    if k > steady_hi - index:
                        k = steady_hi - index
                    fr_acc += k
                    index += k
                    q_round, slot = divmod(index, ii)
                    target = cycle + k
                if index >= total_indexes and not (
                        outstanding or queued or in_flight or nl_queue
                        or nl_compl or deferred):
                    break
            else:
                # Stalled, or draining after the first drain cycle: hop
                # to the next event cycle.
                if drain_anchor is not None:
                    if cycle - drain_anchor > watchdog:
                        raise SimulationError(
                            f"memory system failed to drain: no progress "
                            f"for {watchdog} cycles after the last issue"
                        )
                    if not (outstanding or queued or in_flight or nl_queue
                            or nl_compl or deferred):
                        break
                if nl_queue or (queued and bus_min <= cycle):
                    event = cycle
                else:
                    event = bus_min if queued else _NEVER
                    if in_flight:
                        c = next(iter(in_flight))
                        if c < event:
                            event = c
                    if nl_compl:
                        c = next(iter(nl_compl))
                        if c < event:
                            event = c
                    if deferred:
                        c = next(iter(deferred))
                        if c < event:
                            event = c
                if waits is None:
                    if event == _NEVER:
                        raise SimulationError(
                            f"memory system cannot drain: in-flight work "
                            f"remains but no event is pending at cycle "
                            f"{cycle}"
                        )
                    # Never jump past the cycle on which the reference
                    # would declare the drain hung.
                    limit = drain_anchor + watchdog
                    target = event if event < limit else limit
                    ff_acc += target - cycle
                elif event > cycle:
                    # Issue resumes at the earlier of the next event and
                    # the cycle the blocking loads are known to complete
                    # (never, while one is in flight with no event
                    # pending: the reference then spins to the watchdog).
                    wake = 0
                    for per_load, j in waits:
                        done = per_load[j]
                        if done is None:
                            wake = _NEVER
                            break
                        if done > wake:
                            wake = done
                    target = event if event < wake else wake
                    if target > cycle:
                        skipped = target - cycle
                        if stall_streak + skipped > watchdog:
                            # Charge the window up to the reference's
                            # watchdog cycle and raise its error.
                            stall_acc += watchdog + 1 - stall_streak
                            raise SimulationError(
                                f"machine stalled for {watchdog + 1} cycles "
                                f"at kernel index {index}"
                            )
                        stall_acc += skipped
                        ff_acc += skipped
                        stall_streak += skipped
            if target > cycle:
                # Skipped cycles only move bus arbitration.  While
                # messages are queued every bus stays busy, so only wait
                # cycles accrue; otherwise the round-robin pointer rotates
                # on each cycle with a free bus.
                if queued:
                    bus_queued_cycles += queued * (target - cycle)
                elif target > bus_min:
                    rr_start = (rr_start + target
                                - (cycle if cycle > bus_min else bus_min)
                                ) % num_clusters
                cycle = target

            # ---- tick_begin: deferred sends, next-level fills with MSHR
            # replay, next-level acceptance, bus deliveries --------------
            if deferred:
                sends = deferred.pop(cycle, None)
                if sends:
                    for message in sends:
                        queues[message[1]].append(message)
                    queued += len(sends)
            if nl_compl:
                fills = nl_compl.pop(cycle, None)
                if fills:
                    for fill in fills:
                        if fill is None:  # a victim write-back completed
                            continue
                        # Install clean (refreshing LRU if somehow
                        # present), write a dirty victim back through a
                        # next-level port, then replay the MSHR actions
                        # in arrival order.
                        cluster, block = fill
                        cset = cache_sets[cluster][block % nsets]
                        if block in cset:
                            cset[block] = cset.pop(block)
                        else:
                            if len(cset) >= assoc and cset.pop(
                                    next(iter(cset))):
                                nl_queue.append(None)
                                nl_requests += 1
                            cset[block] = False
                        actions = mshr[cluster].pop(block, None)
                        if actions is None:
                            raise SimulationError(
                                f"fill for block {block} without waiter")
                        outstanding -= len(actions)
                        for action in actions:
                            kind = action[0]
                            if kind == _ACT_STORE:
                                viol_acc += _apply_store(
                                    versions, buckets, block, cluster,
                                    action[1], action[2], checker)
                                cset[block] = True
                                continue
                            observed = versions.get(action[1])
                            if kind == _ACT_LOAD:
                                _k, addr, iid, it, per_load = action
                                if (expected is not None
                                        and observed != expected[iid][it]):
                                    checker.observe_load(iid, it, observed)
                                    viol_acc += 1
                                per_load[it] = cycle
                                continue
                            # _ACT_RESPOND: the load observes here, at
                            # its serialization point; the response is
                            # sent this very cycle.
                            _k, addr, iid, it, per_load, requester = action
                            if (expected is not None
                                    and observed != expected[iid][it]):
                                checker.observe_load(iid, it, observed)
                                viol_acc += 1
                            queues[cluster].append((
                                _RESPONSE, cluster, requester, block, it,
                                per_load,
                                dict(buckets.get((block, cluster), ()))
                                if use_abs else None,
                            ))
                            queued += 1
            if nl_queue:
                # Accepted after this cycle's fills, so a victim
                # write-back they enqueue is accepted this very cycle.
                accepted = nl_compl[cycle + nl_latency] = []
                while nl_queue and len(accepted) < nl_ports:
                    accepted.append(nl_queue.popleft())
            if in_flight:
                arrivals = in_flight.pop(cycle, None)
                if arrivals:
                    # A request reaching a cluster that does not own its
                    # block is at a directory home: it continues to the
                    # owner as a forward, outstanding across the hop.
                    sends = []
                    for message in arrivals:
                        kind = message[0]
                        if kind == _RESPONSE:
                            # (kind, owner, requester, block, it,
                            #  per_load, snapshot)
                            message[5][message[4]] = cycle
                            outstanding -= 1
                            if use_abs:
                                block = message[3]
                                filled, overflowed, inverted = _ab_fill(
                                    ab_sets[message[2]][block % ab_nsets],
                                    (block, message[1]), message[6],
                                    ab_assoc, versions, buckets, checker)
                                ab_fills_acc += filled
                                ab_overflows_acc += overflowed
                                viol_acc += inverted
                        elif kind == _REQ_LOAD or kind == _FWD_LOAD:
                            (_k, requester, dst, block, addr, iid, it,
                             per_load, owner) = message
                            if dst != owner:
                                queues[dst].append((
                                    _FWD_LOAD, requester, owner, block, addr,
                                    iid, it, per_load, owner))
                                queued += 1
                                continue
                            cset = cache_sets[dst][block % nsets]
                            if block in cset:
                                # Observed at the owner now; the data is
                                # ready to send hit_latency later.
                                acc_remote_hit += 1
                                cset[block] = cset.pop(block)
                                observed = versions.get(addr)
                                if (expected is not None
                                        and observed != expected[iid][it]):
                                    checker.observe_load(iid, it, observed)
                                    viol_acc += 1
                                sends.append((
                                    _RESPONSE, dst, requester, block, it,
                                    per_load,
                                    dict(buckets.get((block, dst), ()))
                                    if use_abs else None,
                                ))
                                continue
                            action = (_ACT_RESPOND, addr, iid, it, per_load,
                                      requester)
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
                                queues[dst].append((
                                    _FWD_STORE, owner, block, addr, version,
                                    owner))
                                queued += 1
                                continue
                            cset = cache_sets[dst][block % nsets]
                            if block in cset:
                                acc_remote_hit += 1
                                cset.pop(block)
                                cset[block] = True
                                viol_acc += _apply_store(
                                    versions, buckets, block, dst, addr,
                                    version, checker)
                                outstanding -= 1
                                continue
                            # The access stays outstanding until the
                            # fill replays it.
                            waiter = mshr[dst].get(block)
                            if waiter is not None:
                                acc_combined += 1
                                waiter.append((_ACT_STORE, addr, version))
                            else:
                                acc_remote_miss += 1
                                mshr[dst][block] = [
                                    (_ACT_STORE, addr, version)]
                                nl_queue.append((dst, block))
                                nl_requests += 1
                    if sends:
                        deferred[cycle + hit_latency] = sends

            # ---- issue, stall or drain -----------------------------------
            if index < total_indexes:
                if waits is None:
                    if steady_lo <= index < steady_hi:
                        # Every consumer instance is live: read its
                        # producer's list directly.
                        for per_load, kqd in steady_preds[slot]:
                            done = per_load[q_round - kqd]
                            if done is None or done > cycle:
                                if waits is None:
                                    waits = [(per_load, q_round - kqd)]
                                else:
                                    waits.append((per_load, q_round - kqd))
                    else:
                        for per_load, kqd, end in pred_slots[slot]:
                            j = q_round - kqd
                            if j >= 0 and q_round < end:
                                done = per_load[j]
                                if done is None or done > cycle:
                                    if waits is None:
                                        waits = [(per_load, j)]
                                    else:
                                        waits.append((per_load, j))
                else:
                    for per_load, j in waits:
                        done = per_load[j]
                        if done is None or done > cycle:
                            break
                    else:
                        waits = None
                        stall_streak = 0
                if waits is not None:
                    stall_acc += 1
                    stall_streak += 1
                    if stall_streak > watchdog:
                        raise SimulationError(
                            f"machine stalled for {stall_streak} cycles at "
                            f"kernel index {index}"
                        )
                else:
                    ramp = index < steady_lo or index >= steady_hi
                    for (is_load, iid, per_load, cluster, addrs, homes,
                         owners, seq, replica, kq) in flat_slots[slot]:
                        it = q_round - kq
                        if ramp and not 0 <= it < n_iter:
                            continue
                        addr = addrs[it]
                        home = homes[it]
                        owner = owners[it]
                        block = addr // block_bytes
                        if is_load:
                            per_load[it] = None
                            if home == cluster:
                                if owner != cluster:
                                    # A directory home's own access: the
                                    # lookup is local, the data one
                                    # forward hop away.
                                    outstanding += 1
                                    queues[cluster].append((
                                        _FWD_LOAD, cluster, owner, block,
                                        addr, iid, it, per_load, owner))
                                    queued += 1
                                    continue
                                cset = cache_sets[cluster][block % nsets]
                                if block in cset:
                                    acc_local_hit += 1
                                    cset[block] = cset.pop(block)
                                    observed = versions.get(addr)
                                    if (expected is not None and observed
                                            != expected[iid][it]):
                                        checker.observe_load(iid, it,
                                                             observed)
                                        viol_acc += 1
                                    per_load[it] = cycle + hit_latency
                                    continue
                                action = (_ACT_LOAD, addr, iid, it, per_load)
                                waiter = mshr[cluster].get(block)
                                if waiter is not None:
                                    acc_combined += 1
                                    waiter.append(action)
                                else:
                                    acc_local_miss += 1
                                    mshr[cluster][block] = [action]
                                    nl_queue.append((cluster, block))
                                    nl_requests += 1
                                outstanding += 1
                                continue
                            if use_abs:
                                # A cached copy of the remote subblock
                                # makes the access local (section 5.1).
                                key = (block, home)
                                abset = ab_sets[cluster][block % ab_nsets]
                                entry = abset.get(key)
                                if entry is not None:
                                    abset[key] = abset.pop(key)
                                    ab_hits_acc += 1
                                    acc_local_hit += 1
                                    observed = entry[0].get(addr)
                                    if (expected is not None and observed
                                            != expected[iid][it]):
                                        checker.observe_load(iid, it,
                                                             observed)
                                        viol_acc += 1
                                    per_load[it] = cycle + hit_latency
                                    continue
                            # Every remote load travels to its home as
                            # its own request (no requester-side
                            # combining: owner-side serialization is the
                            # point of coherence).
                            outstanding += 1
                            queues[cluster].append((
                                _REQ_LOAD, cluster, home, block, addr, iid,
                                it, per_load, owner))
                            queued += 1
                            continue
                        version = (it, seq)
                        if home != cluster:
                            entry = None
                            if use_abs:
                                # An attracted copy is updated in place;
                                # dirty data goes home at the flush
                                # (sections 5.2/5.3).
                                entry = ab_sets[cluster][
                                    block % ab_nsets].get((block, home))
                                if entry is not None:
                                    entry[0][addr] = version
                                    entry[1] = True
                            if replica:
                                # A nullified instance (section 3.3).
                                nullified_acc += 1
                            elif entry is not None:
                                acc_local_hit += 1
                            else:
                                outstanding += 1
                                queues[cluster].append((
                                    _REQ_STORE, home, block, addr, version,
                                    owner))
                                queued += 1
                            continue
                        if owner != cluster:
                            outstanding += 1
                            queues[cluster].append((
                                _FWD_STORE, owner, block, addr, version,
                                owner))
                            queued += 1
                            continue
                        cset = cache_sets[cluster][block % nsets]
                        if block in cset:
                            acc_local_hit += 1
                            cset.pop(block)
                            cset[block] = True
                            viol_acc += _apply_store(
                                versions, buckets, block, cluster, addr,
                                version, checker)
                            continue
                        action = (_ACT_STORE, addr, version)
                        waiter = mshr[cluster].get(block)
                        if waiter is not None:
                            acc_combined += 1
                            waiter.append(action)
                        else:
                            acc_local_miss += 1
                            mshr[cluster][block] = [action]
                            nl_queue.append((cluster, block))
                            nl_requests += 1
                        outstanding += 1
                    index += 1
                    slot += 1
                    if slot == ii:
                        slot = 0
                        q_round += 1
            else:
                # The drain watchdog bounds windows in which the low-water
                # mark of pending work stops falling; it is sampled after
                # tick_begin like the reference, so both declare a hung
                # drain on the same cycle.
                pending = (
                    outstanding + queued + len(nl_queue)
                    + sum(map(len, in_flight.values()))
                    + sum(map(len, nl_compl.values()))
                    + sum(map(len, deferred.values()))
                )
                if pending < drain_low_water:
                    drain_low_water = pending
                    drain_anchor = cycle

            # ---- tick_end: round-robin injection ---------------------------
            if queued:
                if bus_min > cycle:  # no bus free: account waiters, O(1)
                    bus_queued_cycles += queued
                else:
                    # Free buses go to sources in round-robin order,
                    # highest-numbered free bus first, at most one
                    # injection per source per cycle.
                    base = rr_start
                    rr_start = (base + 1) % num_clusters
                    arrival = cycle + bus_latency
                    landing = []
                    b = num_buses - 1
                    for queue in rr_orders[base]:
                        if not queue:
                            continue
                        while b >= 0 and bus_free[b] > cycle:
                            b -= 1
                        if b < 0:
                            break
                        message = queue.popleft()
                        landing.append(message)
                        transfers_by_kind[message[0]] += 1
                        bus_free[b] = arrival
                        bus_counts[b] += 1
                        b -= 1
                    in_flight[arrival] = landing
                    queued -= len(landing)
                    bus_queued_cycles += queued
                    # A still-free bus keeps bus_min <= cycle; its exact
                    # value is only ever compared against later cycles,
                    # so only when every bus went busy does the cache
                    # need the real minimum.
                    while b >= 0 and bus_free[b] > cycle:
                        b -= 1
                    if b < 0:
                        bus_min = min(bus_free)
            elif bus_min <= cycle:
                rr_start = (rr_start + 1) % num_clusters
            cycle += 1

        if use_abs:
            ab_flushed_acc, inverted = _ab_flush(ab_sets, versions, buckets,
                                                 checker)
            viol_acc += inverted
    finally:
        # One compute cycle per retired kernel index; an op issued at
        # time t has issued its instances at t, t + II, ... below it.
        stats.compute_cycles += index
        stats.stall_cycles += stall_acc
        for t in op_times:
            if index > t:
                count = (index - t + ii - 1) // ii
                stats.issued_ops += count if count < n_iter else n_iter
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
        stats.ab_hits = ab_hits_acc
        stats.ab_fills = ab_fills_acc
        stats.ab_overflows = ab_overflows_acc
        stats.ab_flushed_dirty += ab_flushed_acc
        stats.bus_transfers = sum(transfers_by_kind)
        stats.bus_transfer_kinds = {
            name: count
            for name, count in zip(_KIND_NAMES, transfers_by_kind)
            if count
        }
        stats.bus_queued_cycles = bus_queued_cycles
        stats.next_level_requests = nl_requests
    busy_cycles = []
    for count in bus_counts:
        busy_cycles.append(count * bus_latency)
    return busy_cycles
