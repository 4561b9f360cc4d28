"""Guarded-action model of the coherence protocol.

This is the protocol of :mod:`repro.sim.memory` re-stated as a small,
declarative transition system in the style of guarded action languages:
a state is an immutable tuple, and every behaviour is one entry of
:data:`TRANSITION_TABLE` — a *guard* over the state plus an *action*
producing the successor.  Nothing here executes cycles; the model is
**untimed**.  Time is replaced by non-determinism: any enabled transition
may fire next.  The per-source FIFO queues are the only ordering the
model keeps, because in-order same-source delivery is the one hardware
property the MDC/DDGT coherence solutions rely on (section 3.2 of the
paper; :mod:`repro.sim.bus`).  Every cycle-accurate simulator run is one
interleaving of this system, so a property proved over all interleavings
holds for the simulator — the conformance bridge
(:mod:`repro.check.conformance`) pins the correspondence.

One model serves every registered memory model (:mod:`repro.sim.models`).
Subblock ``sb`` stands for the block at the memory model's
``conformance_address`` on :func:`conformance_machine`; its *home* (where
requests go) and *owner* (the cluster holding it, its serialization
point) are that address's ``placement``, the lists both simulator
engines route by.  The abstraction, flow by flow (mirroring
``MemorySystem``):

* a subblock holds a *version* — 0 initially, ``i + 1`` after store
  ``op_i`` applied (versions replace data values, exactly as in the
  simulator);
* **local hit**: an access at the home of a subblock the home also owns
  completes against the module immediately;
* **local miss**: an MSHR entry opens and a next-level fill is pending;
  further local accesses *combine* into the entry;
* **remote access**: an access away from the home sends a request
  message into the requester's FIFO queue; at delivery a home that owns
  the subblock serves it (hit), opens an MSHR entry (miss) or combines
  into one;
* **forward**: a home that does not own the subblock re-emits a
  delivered request as a forward into its own FIFO, bound for the owner,
  and an access *at* such a home sends the forward itself; the owner
  serves forwards with the request dispositions.  Only ``directory``
  places homes away from owners, so only it fires this family;
* **responses**: a served read observes the subblock *at the owner* and
  the response travels back through the owner's FIFO queue; probe-hit
  responses first wait in a per-owner "ready" buffer (the simulator's
  deferred sends) before entering the queue;
* **fill**: the MSHR entry replays its deferred actions in arrival
  order, exactly like ``MemorySystem._handle_fill``.

A *program* is a tuple of :class:`ModelOp`; the model enforces that each
cluster issues ops touching the same subblock in program order (what an
in-order memory unit plus the scheduler's dependence edges guarantee),
while everything else interleaves freely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.arch.config import MachineConfig
from repro.sim.models import DEFAULT_MODEL, named_model

# Cache-line (subblock) states at the owner's module.
ABSENT, CLEAN, DIRTY = 0, 1, 2

# Operation status.
UNISSUED, INFLIGHT, COMPLETE = 0, 1, 2

#: observed-version placeholder for "nothing observed (yet)".
NO_VERSION = -1

#: Message kinds a requester sends to a home, and a home (or an access
#: at the home) sends on to an owner elsewhere.
_REQUEST_KINDS = ("req_ld", "req_st")
_FORWARD_KINDS = ("fwd_ld", "fwd_st")

#: Model events emitted by actions, compared against simulator events by
#: the conformance bridge:
#:   ("observe", op_index, observed_version, expected_version)
#:   ("apply", subblock, version, previous_version, inverted)
Event = Tuple


def conformance_machine(num_clusters: int = 2) -> MachineConfig:
    """The machine the model routes on and the bridge drives: baseline
    geometry, ``num_clusters`` clusters.  Its 32-byte blocks of 4-byte
    interleave units admit 1, 2, 4 or 8 clusters; ``MachineConfig``
    rejects any other count.  The cache (32-set modules) never evicts for
    the handful of blocks a model program touches, matching the model's
    no-eviction abstraction."""
    return MachineConfig(
        name=f"conformance-{num_clusters}c", num_clusters=num_clusters
    )


@dataclass(frozen=True)
class ModelOp:
    """One memory access of the modelled program."""

    index: int
    cluster: int
    kind: str  # "load" | "store"
    subblock: int

    @property
    def is_load(self) -> bool:
        return self.kind == "load"

    @property
    def label(self) -> str:
        k = "ld" if self.kind == "load" else "st"
        return f"op{self.index}:{k} c{self.cluster} sb{self.subblock}"


class State(NamedTuple):
    """One protocol state.  Every field is a tuple, so states hash and
    compare by value — the explorer's visited set depends on that."""

    #: per subblock: ABSENT / CLEAN / DIRTY at its owner's module
    cache: Tuple[int, ...]
    #: per subblock: last applied store version (0 = initial contents)
    versions: Tuple[int, ...]
    #: per subblock: deferred MSHR actions, in arrival order; non-empty
    #: iff a next-level fill is in flight for the subblock.  Actions:
    #:   ("store", op) | ("load", op) | ("respond", requester, op)
    mshr: Tuple[Tuple[tuple, ...], ...]
    #: per *source* cluster: FIFO of in-flight messages.  Messages:
    #:   ("req_ld", sb, (ops...)) | ("req_st", sb, op)
    #:   | ("fwd_ld", sb, (ops...), requester) | ("fwd_st", sb, op)
    #:   | ("resp", sb, (ops...), version)
    queues: Tuple[Tuple[tuple, ...], ...]
    #: per *owner* cluster: probe-hit responses ready to enter the queue
    #: (the simulator's deferred sends), in ready order
    pending: Tuple[Tuple[tuple, ...], ...]
    #: per op: (status, observed version or NO_VERSION)
    ops: Tuple[Tuple[int, int], ...]


class Transition(NamedTuple):
    """One enabled transition instance: a table entry plus its arguments."""

    name: str
    args: Tuple


# ----------------------------------------------------------------------
# Tuple-of-tuples update helpers
# ----------------------------------------------------------------------
def _set(t: tuple, i: int, v) -> tuple:
    return t[:i] + (v,) + t[i + 1:]


def _append(t: tuple, i: int, v) -> tuple:
    return _set(t, i, t[i] + (v,))


def _pop(t: tuple, i: int, pos: int = 0) -> tuple:
    inner = t[i]
    return _set(t, i, inner[:pos] + inner[pos + 1:])


# ----------------------------------------------------------------------
# The model
# ----------------------------------------------------------------------
class ProtocolModel:
    """The guarded-action system for one program on one small machine.

    ``model`` names the registered memory model whose ``placement``
    routes the subblocks (see the module docstring); ``mutation``
    selects a seeded protocol bug from :mod:`repro.check.mutations`
    (``None`` = the faithful protocol).  Both apply to every model.
    """

    def __init__(
        self,
        num_clusters: int,
        num_subblocks: int,
        program: Tuple[ModelOp, ...],
        mutation: Optional[str] = None,
        model: str = DEFAULT_MODEL,
    ) -> None:
        from repro.check.mutations import MUTATIONS

        if mutation is not None and mutation not in MUTATIONS:
            raise ValueError(
                f"unknown mutation {mutation!r}; expected one of "
                f"{sorted(MUTATIONS)}"
            )
        self.memory_model = named_model(model)
        machine = conformance_machine(num_clusters)
        homes, owners = self.memory_model.placement(machine, [
            self.memory_model.conformance_address(machine, sb)
            for sb in range(num_subblocks)
        ])
        self.num_clusters = num_clusters
        self.num_subblocks = num_subblocks
        self.program = tuple(program)
        self.mutation = mutation
        #: per subblock: the cluster its requests go to, and the cluster
        #: holding it (the serialization point)
        self.homes = tuple(homes)
        self.owners = tuple(owners)
        #: whether some home does not own its subblock
        self.forwards = self.homes != self.owners
        #: the entries this instance fires: the faithful protocol, the
        #: mutation's own rules, and the forward family where it can fire
        self.table = tuple(
            entry for entry in TRANSITION_TABLE
            if entry.mutation_only in (None, mutation)
            and (self.forwards or not entry.forward_only)
        )
        #: expected observation of each load: the version written by the
        #: last program-order store to the same subblock before it.
        self._expected = {}
        last_store = {}
        for op in self.program:
            if op.is_load:
                self._expected[op.index] = last_store.get(op.subblock, 0)
            else:
                last_store[op.subblock] = op.index + 1

    def core_transitions(self) -> Tuple[str, ...]:
        """Transition names of the faithful (unmutated) protocol on this
        placement."""
        return tuple(
            e.name for e in self.table if e.mutation_only is None
        )

    # ------------------------------------------------------------------
    def is_local(self, op: ModelOp) -> bool:
        """Whether ``op`` issues at the home of a subblock it owns."""
        sb = op.subblock
        return op.cluster == self.homes[sb] == self.owners[sb]

    def expected_version(self, op_index: int) -> int:
        return self._expected[op_index]

    def initial_state(self) -> State:
        sbs = self.num_subblocks
        clusters = self.num_clusters
        return State(
            cache=(ABSENT,) * sbs,
            versions=(0,) * sbs,
            mshr=((),) * sbs,
            queues=((),) * clusters,
            pending=((),) * clusters,
            ops=((UNISSUED, NO_VERSION),) * len(self.program),
        )

    # ------------------------------------------------------------------
    def enabled(self, state: State) -> List[Transition]:
        """Every transition instance whose guard holds in ``state``."""
        out: List[Transition] = []
        for entry in self.table:
            for args in entry.instances(self, state):
                out.append(Transition(entry.name, args))
        return out

    def apply(
        self, state: State, transition: Transition
    ) -> Tuple[State, List[Event]]:
        """Fire ``transition``; returns the successor and its events."""
        entry = _BY_NAME[transition.name]
        return entry.apply(self, state, transition.args)

    # ------------------------------------------------------------------
    # Rendering (counterexample traces)
    # ------------------------------------------------------------------
    def describe_transition(self, t: Transition) -> str:
        return _BY_NAME[t.name].describe(self, t.args)

    def describe_state(self, state: State) -> str:
        parts = []
        names = {ABSENT: "absent", CLEAN: "clean", DIRTY: "dirty"}
        for sb in range(self.num_subblocks):
            bits = f"sb{sb}@c{self.owners[sb]}={names[state.cache[sb]]}" \
                   f" v{state.versions[sb]}"
            if state.mshr[sb]:
                bits += " mshr=" + ",".join(
                    _action_label(a) for a in state.mshr[sb]
                )
            parts.append(bits)
        for c in range(self.num_clusters):
            if state.queues[c]:
                parts.append(
                    f"queue c{c}=[" + " ".join(
                        _message_label(m) for m in state.queues[c]
                    ) + "]"
                )
            if state.pending[c]:
                parts.append(
                    f"ready c{c}=[" + " ".join(
                        _message_label(m) for m in state.pending[c]
                    ) + "]"
                )
        status = {UNISSUED: "-", INFLIGHT: "*", COMPLETE: "✓"}
        parts.append("ops=" + " ".join(
            f"{op.label}{status[state.ops[op.index][0]]}"
            for op in self.program
        ))
        return "; ".join(parts)


def _action_label(action: tuple) -> str:
    if action[0] == "respond":
        return f"respond(c{action[1]},op{action[2]})"
    return f"{action[0]}(op{action[1]})"


def _message_label(message: tuple) -> str:
    if message[0] in ("req_ld", "fwd_ld"):
        return "%s(sb%d,%s)" % (
            message[0], message[1], "+".join(f"op{o}" for o in message[2])
        )
    if message[0] in ("req_st", "fwd_st"):
        return f"{message[0]}(sb{message[1]},op{message[2]})"
    return "resp(sb%d,%s,v%d)" % (
        message[1], "+".join(f"op{o}" for o in message[2]), message[3]
    )


# ----------------------------------------------------------------------
# Shared action fragments
# ----------------------------------------------------------------------
def _issuable(model: ProtocolModel, state: State, op: ModelOp) -> bool:
    """Issue guard: unissued, and every earlier same-cluster op touching
    the same subblock has issued (in-order issue per aliasing chain)."""
    if state.ops[op.index][0] != UNISSUED:
        return False
    for earlier in model.program[: op.index]:
        if (
            earlier.cluster == op.cluster
            and earlier.subblock == op.subblock
            and state.ops[earlier.index][0] == UNISSUED
        ):
            return False
    return True


def _observe(
    model: ProtocolModel, state: State, op_index: int, status: int,
    events: List[Event],
) -> State:
    """Record a load's observation at its serialization point."""
    observed = state.versions[model.program[op_index].subblock]
    events.append(
        ("observe", op_index, observed, model.expected_version(op_index))
    )
    return state._replace(ops=_set(state.ops, op_index, (status, observed)))


def _apply_store(
    model: ProtocolModel, state: State, sb: int, op_index: int,
    events: List[Event], present: bool,
) -> State:
    """Apply store ``op_index`` to ``sb``; keeps the younger version on a
    write inversion, mirroring ``MemorySystem._apply_store``."""
    version = op_index + 1
    current = state.versions[sb]
    inverted = current > version
    events.append(("apply", sb, version, current, inverted))
    new_versions = (
        state.versions if inverted else _set(state.versions, sb, version)
    )
    new_cache = _set(state.cache, sb, DIRTY) if present else state.cache
    return state._replace(
        versions=new_versions,
        cache=new_cache,
        ops=_set(state.ops, op_index, (COMPLETE, NO_VERSION)),
    )


def _request_actions(src: int, message: tuple):
    """MSHR actions a delivered request or forward defers, in order; a
    forward names its requester, a request's is its source."""
    if message[0] in ("req_st", "fwd_st"):
        return [("store", message[2])]
    requester = message[3] if message[0] == "fwd_ld" else src
    return [("respond", requester, op) for op in message[2]]


# ----------------------------------------------------------------------
# Transition table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GuardedAction:
    """One protocol rule: parameterized guard + action."""

    name: str
    doc: str
    instances: Callable[[ProtocolModel, State], Iterable[Tuple]]
    apply: Callable[[ProtocolModel, State, Tuple], Tuple[State, List[Event]]]
    describe: Callable[[ProtocolModel, Tuple], str]
    #: non-None restricts the rule to one seeded mutation
    mutation_only: Optional[str] = None
    #: True for the forward family, which fires only where some home
    #: does not own its subblock
    forward_only: bool = False


def _op_describer(model: ProtocolModel, args: Tuple) -> str:
    return model.program[args[0]].label


def _server(model: ProtocolModel) -> str:
    """What to call the cluster that serves responses: the owner, which
    is also the home unless the placement forwards."""
    return "owner" if model.forwards else "home"


# -- issue: local hit ---------------------------------------------------
def _i_local_hit(model: ProtocolModel, state: State) -> Iterator[Tuple]:
    for op in model.program:
        if (
            model.is_local(op)
            and state.cache[op.subblock] != ABSENT
            and _issuable(model, state, op)
        ):
            yield (op.index,)


def _a_local_hit(model, state, args):
    op = model.program[args[0]]
    events: List[Event] = []
    if op.is_load:
        state = _observe(model, state, op.index, COMPLETE, events)
    else:
        state = _apply_store(
            model, state, op.subblock, op.index, events, present=True
        )
    return state, events


# -- issue: local miss --------------------------------------------------
def _i_local_miss(model: ProtocolModel, state: State) -> Iterator[Tuple]:
    for op in model.program:
        if (
            model.is_local(op)
            and state.cache[op.subblock] == ABSENT
            and not state.mshr[op.subblock]
            and _issuable(model, state, op)
        ):
            yield (op.index,)


def _a_local_miss(model, state, args):
    op = model.program[args[0]]
    action = ("load", op.index) if op.is_load else ("store", op.index)
    state = state._replace(
        mshr=_append(state.mshr, op.subblock, action),
        ops=_set(state.ops, op.index, (INFLIGHT, NO_VERSION)),
    )
    return state, []


# -- issue: local combine ----------------------------------------------
def _i_local_combine(model: ProtocolModel, state: State) -> Iterator[Tuple]:
    for op in model.program:
        if (
            model.is_local(op)
            and state.mshr[op.subblock]
            and _issuable(model, state, op)
        ):
            yield (op.index,)


_a_local_combine = _a_local_miss  # same action: append to the open entry


# -- issue: at the home of a subblock owned elsewhere --------------------
def _i_issue_forward(model: ProtocolModel, state: State) -> Iterator[Tuple]:
    for op in model.program:
        sb = op.subblock
        if (
            op.cluster == model.homes[sb] != model.owners[sb]
            and _issuable(model, state, op)
        ):
            yield (op.index,)


def _a_issue_forward(model, state, args):
    """The directory lookup is local and free: the access goes straight
    to the owner as a forward in the issuer's FIFO."""
    op = model.program[args[0]]
    message = (
        ("fwd_ld", op.subblock, (op.index,), op.cluster)
        if op.is_load
        else ("fwd_st", op.subblock, op.index)
    )
    state = state._replace(
        queues=_append(state.queues, op.cluster, message),
        ops=_set(state.ops, op.index, (INFLIGHT, NO_VERSION)),
    )
    return state, []


# -- issue: remote ------------------------------------------------------
def _is_remote(model: ProtocolModel, op: ModelOp) -> bool:
    """Whether ``op`` issues away from its subblock's home."""
    return op.cluster != model.homes[op.subblock]


def _combinable_position(state: State, op: ModelOp) -> Optional[int]:
    """Queue position of an in-flight same-cluster load request for the
    same subblock (the target the stale-combining bug merged onto)."""
    for pos, message in enumerate(state.queues[op.cluster]):
        if message[0] == "req_ld" and message[1] == op.subblock:
            return pos
    return None


def _i_remote(model: ProtocolModel, state: State) -> Iterator[Tuple]:
    for op in model.program:
        if not _is_remote(model, op) or not _issuable(model, state, op):
            continue
        if (
            model.mutation == "stale_combining"
            and op.is_load
            and _combinable_position(state, op) is not None
        ):
            continue  # the buggy protocol combines instead (see below)
        yield (op.index,)


def _a_remote(model, state, args):
    op = model.program[args[0]]
    message = (
        ("req_ld", op.subblock, (op.index,))
        if op.is_load
        else ("req_st", op.subblock, op.index)
    )
    state = state._replace(
        queues=_append(state.queues, op.cluster, message),
        ops=_set(state.ops, op.index, (INFLIGHT, NO_VERSION)),
    )
    return state, []


# -- issue: remote combine (stale_combining mutation only) --------------
def _i_remote_combine(model: ProtocolModel, state: State) -> Iterator[Tuple]:
    for op in model.program:
        if (
            _is_remote(model, op)
            and op.is_load
            and _issuable(model, state, op)
            and _combinable_position(state, op) is not None
        ):
            yield (op.index,)


def _a_remote_combine(model, state, args):
    op = model.program[args[0]]
    pos = _combinable_position(state, op)
    queue = state.queues[op.cluster]
    message = queue[pos]
    merged = (message[0], message[1], message[2] + (op.index,))
    state = state._replace(
        queues=_set(
            state.queues, op.cluster,
            queue[:pos] + (merged,) + queue[pos + 1:],
        ),
        ops=_set(state.ops, op.index, (INFLIGHT, NO_VERSION)),
    )
    return state, []


# -- deliver a request at its home, a forward at its owner --------------
def _deliverable(
    model: ProtocolModel, state: State, kinds: Tuple[str, ...]
) -> Iterator[Tuple[int, int, tuple]]:
    """(src, position, message) triples of the given kinds a delivery
    may consume.  The faithful fabric delivers per-source FIFO heads
    only; the reordered-arrival mutation may deliver any queued one."""
    for src in range(model.num_clusters):
        queue = state.queues[src]
        if not queue:
            continue
        positions = (
            range(len(queue))
            if model.mutation == "reordered_home_arrival"
            else (0,)
        )
        for pos in positions:
            message = queue[pos]
            if message[0] in kinds:
                yield src, pos, message


def _served_requests(
    model: ProtocolModel, state: State
) -> Iterator[Tuple[int, int, tuple]]:
    """Deliverable requests whose home owns the subblock and serves
    them."""
    for src, pos, message in _deliverable(model, state, _REQUEST_KINDS):
        sb = message[1]
        if model.homes[sb] == model.owners[sb]:
            yield src, pos, message


def _i_request_hit(model: ProtocolModel, state: State) -> Iterator[Tuple]:
    for src, pos, message in _served_requests(model, state):
        if state.cache[message[1]] != ABSENT:
            yield (src, pos)


def _serve(model, state, args, present):
    """Serve the delivered request or forward at ``args`` against the
    owner's current contents.  A read observes at the serialization
    point and its response waits in the owner's ready buffer for its bus
    slot; a store applies (``present`` marks the subblock dirty)."""
    src, pos = args
    message = state.queues[src][pos]
    sb = message[1]
    state = state._replace(queues=_pop(state.queues, src, pos))
    events: List[Event] = []
    if message[0] in ("req_ld", "fwd_ld"):
        for op_index in message[2]:
            state = _observe(model, state, op_index, INFLIGHT, events)
        version = state.ops[message[2][0]][1]
        state = state._replace(
            pending=_append(
                state.pending, model.owners[sb],
                ("resp", sb, message[2], version),
            )
        )
    else:
        state = _apply_store(
            model, state, sb, message[2], events, present=present
        )
    return state, events


def _a_request_hit(model, state, args):
    return _serve(model, state, args, present=True)


def _i_request_miss(model: ProtocolModel, state: State) -> Iterator[Tuple]:
    for src, pos, message in _served_requests(model, state):
        if state.cache[message[1]] == ABSENT and not state.mshr[message[1]]:
            yield (src, pos)


def _a_request_miss(model, state, args):
    src, pos = args
    message = state.queues[src][pos]
    sb = message[1]
    state = state._replace(queues=_pop(state.queues, src, pos))
    for action in _request_actions(src, message):
        state = state._replace(mshr=_append(state.mshr, sb, action))
    return state, []


def _i_request_combine(model: ProtocolModel, state: State) -> Iterator[Tuple]:
    if model.mutation == "premature_combine":
        return  # the buggy protocol serves immediately (see below)
    for src, pos, message in _served_requests(model, state):
        if state.cache[message[1]] == ABSENT and state.mshr[message[1]]:
            yield (src, pos)


_a_request_combine = _a_request_miss  # same action: defer into the entry


# -- deliver a request prematurely (premature_combine mutation) ---------
def _i_request_premature(model: ProtocolModel, state: State) -> Iterator[Tuple]:
    for src, pos, message in _served_requests(model, state):
        if state.cache[message[1]] == ABSENT and state.mshr[message[1]]:
            yield (src, pos)


def _a_request_premature(model, state, args):
    """The bug: a request that finds an open MSHR entry is served against
    the *current* subblock contents instead of waiting its turn in the
    entry — it jumps the serialization order of the pending fill."""
    return _serve(model, state, args, present=False)


# -- forward a request from a home that does not own its subblock -------
def _i_request_forward(model: ProtocolModel, state: State) -> Iterator[Tuple]:
    for src, pos, message in _deliverable(model, state, _REQUEST_KINDS):
        sb = message[1]
        if model.homes[sb] != model.owners[sb]:
            yield (src, pos)


def _a_request_forward(model, state, args):
    """The home's directory lookup: the request leaves its source FIFO
    and re-enters the fabric as a forward in the *home's* FIFO, bound
    for the owner."""
    src, pos = args
    message = state.queues[src][pos]
    sb = message[1]
    forward = (
        ("fwd_ld", sb, message[2], src)
        if message[0] == "req_ld"
        else ("fwd_st", sb, message[2])
    )
    state = state._replace(queues=_pop(state.queues, src, pos))
    state = state._replace(
        queues=_append(state.queues, model.homes[sb], forward)
    )
    return state, []


# -- deliver a forward at the owner --------------------------------------
def _i_forward_hit(model: ProtocolModel, state: State) -> Iterator[Tuple]:
    for src, pos, message in _deliverable(model, state, _FORWARD_KINDS):
        if state.cache[message[1]] != ABSENT:
            yield (src, pos)


def _i_forward_miss(model: ProtocolModel, state: State) -> Iterator[Tuple]:
    for src, pos, message in _deliverable(model, state, _FORWARD_KINDS):
        if state.cache[message[1]] == ABSENT and not state.mshr[message[1]]:
            yield (src, pos)


def _i_forward_combine(model: ProtocolModel, state: State) -> Iterator[Tuple]:
    for src, pos, message in _deliverable(model, state, _FORWARD_KINDS):
        if state.cache[message[1]] == ABSENT and state.mshr[message[1]]:
            yield (src, pos)


# -- move a ready response onto the bus ---------------------------------
def _i_send_response(model: ProtocolModel, state: State) -> Iterator[Tuple]:
    for owner in range(model.num_clusters):
        if state.pending[owner]:
            yield (owner,)


def _a_send_response(model, state, args):
    owner = args[0]
    message = state.pending[owner][0]
    state = state._replace(
        pending=_pop(state.pending, owner),
        queues=_append(state.queues, owner, message),
    )
    return state, []


# -- deliver a response at its requester --------------------------------
def _i_deliver_response(model: ProtocolModel, state: State) -> Iterator[Tuple]:
    for src in range(model.num_clusters):
        queue = state.queues[src]
        if queue and queue[0][0] == "resp":
            yield (src,)


def _a_deliver_response(model, state, args):
    src = args[0]
    message = state.queues[src][0]
    state = state._replace(queues=_pop(state.queues, src))
    for op_index in message[2]:
        observed = state.ops[op_index][1]
        state = state._replace(
            ops=_set(state.ops, op_index, (COMPLETE, observed))
        )
    return state, []


# -- next-level fill completes ------------------------------------------
def _i_fill(model: ProtocolModel, state: State) -> Iterator[Tuple]:
    for sb in range(model.num_subblocks):
        if state.mshr[sb]:
            yield (sb,)


def _a_fill(model, state, args):
    """Install the subblock and replay the MSHR actions in arrival
    order against the evolving contents (``_handle_fill``).  Responses
    produced here enter the owner's bus queue directly: the simulator
    sends fill-time responses in the fill cycle itself."""
    sb = args[0]
    owner = model.owners[sb]
    actions = state.mshr[sb]
    state = state._replace(
        cache=_set(state.cache, sb, CLEAN),
        mshr=_set(state.mshr, sb, ()),
    )
    events: List[Event] = []
    for action in actions:
        if action[0] == "store":
            if model.mutation == "dropped_invalidation":
                # The bug: the deferred store's effect on the freshly
                # installed subblock is dropped on the floor.
                state = state._replace(
                    ops=_set(state.ops, action[1], (COMPLETE, NO_VERSION))
                )
                continue
            state = _apply_store(model, state, sb, action[1], events,
                                 present=True)
        elif action[0] == "load":
            state = _observe(model, state, action[1], COMPLETE, events)
        else:  # respond
            _tag, requester, op_index = action
            state = _observe(model, state, op_index, INFLIGHT, events)
            version = state.ops[op_index][1]
            state = state._replace(
                queues=_append(
                    state.queues, owner,
                    ("resp", sb, (op_index,), version),
                )
            )
    return state, events


def _describe_delivery(model: ProtocolModel, args: Tuple) -> str:
    src = args[0]
    return f"from c{src}" + (f" pos {args[1]}" if args[1] else "")


TRANSITION_TABLE: Tuple[GuardedAction, ...] = (
    GuardedAction(
        "issue_local_hit",
        "a local access (cluster = home = owner) finds its subblock",
        _i_local_hit, _a_local_hit, _op_describer,
    ),
    GuardedAction(
        "issue_local_miss",
        "a local access opens an MSHR entry and a next-level fill",
        _i_local_miss, _a_local_miss, _op_describer,
    ),
    GuardedAction(
        "issue_local_combine",
        "a local access merges into the open MSHR entry",
        _i_local_combine, _a_local_combine, _op_describer,
    ),
    GuardedAction(
        "issue_forward",
        "an access at the home of a subblock owned elsewhere goes "
        "straight to the owner (the directory lookup is local and free)",
        _i_issue_forward, _a_issue_forward, _op_describer,
        forward_only=True,
    ),
    GuardedAction(
        "issue_remote",
        "an access away from the home sends its own request there",
        _i_remote, _a_remote, _op_describer,
    ),
    GuardedAction(
        "issue_remote_combine",
        "BUG: a remote load merges onto an in-flight same-subblock "
        "request instead of sending its own",
        _i_remote_combine, _a_remote_combine, _op_describer,
        mutation_only="stale_combining",
    ),
    GuardedAction(
        "deliver_request_hit",
        "a request reaches a home that owns and holds the subblock and "
        "is served",
        _i_request_hit, _a_request_hit, _describe_delivery,
    ),
    GuardedAction(
        "deliver_request_miss",
        "a request reaches an owning home without the subblock: "
        "MSHR + fill",
        _i_request_miss, _a_request_miss, _describe_delivery,
    ),
    GuardedAction(
        "deliver_request_combine",
        "a request reaches an owning home mid-fill and joins the MSHR "
        "entry",
        _i_request_combine, _a_request_combine, _describe_delivery,
    ),
    GuardedAction(
        "deliver_request_premature",
        "BUG: a request arriving mid-fill is served against the current "
        "contents, jumping the MSHR serialization order",
        _i_request_premature, _a_request_premature, _describe_delivery,
        mutation_only="premature_combine",
    ),
    GuardedAction(
        "deliver_request_forward",
        "a request reaches a home that does not own the subblock and is "
        "forwarded to the owner",
        _i_request_forward, _a_request_forward, _describe_delivery,
        forward_only=True,
    ),
    GuardedAction(
        "deliver_forward_hit",
        "a forward reaches the owner holding the subblock and is served",
        _i_forward_hit, _a_request_hit, _describe_delivery,
        forward_only=True,
    ),
    GuardedAction(
        "deliver_forward_miss",
        "a forward reaches the owner without the subblock: MSHR + fill",
        _i_forward_miss, _a_request_miss, _describe_delivery,
        forward_only=True,
    ),
    GuardedAction(
        "deliver_forward_combine",
        "a forward reaches the owner mid-fill and joins the MSHR entry",
        _i_forward_combine, _a_request_combine, _describe_delivery,
        forward_only=True,
    ),
    GuardedAction(
        "send_response",
        "a ready probe-hit response enters the owner's bus queue",
        _i_send_response, _a_send_response,
        lambda model, args: f"{_server(model)} c{args[0]}",
    ),
    GuardedAction(
        "deliver_response",
        "a response reaches its requester; the load completes",
        _i_deliver_response, _a_deliver_response,
        lambda model, args: f"from {_server(model)} c{args[0]}",
    ),
    GuardedAction(
        "fill_complete",
        "the next-level fill lands; MSHR actions replay in arrival order",
        _i_fill, _a_fill,
        lambda model, args: f"sb{args[0]}",
    ),
)

_BY_NAME = {entry.name: entry for entry in TRANSITION_TABLE}


# ----------------------------------------------------------------------
# Program enumeration
# ----------------------------------------------------------------------
def is_disciplined(program: Iterable[ModelOp]) -> bool:
    """Whether every aliasing pair (same subblock, at least one store)
    is placed on one cluster — the property MDC chains and DDGT store
    replication establish.  The no-stale-read invariant is asserted for
    disciplined programs only; free scheduling may (and does) race."""
    ops = list(program)
    for a, b in itertools.combinations(ops, 2):
        if a.subblock != b.subblock:
            continue
        if a.kind == "load" and b.kind == "load":
            continue
        if a.cluster != b.cluster:
            return False
    return True


def enumerate_programs(
    num_clusters: int, num_subblocks: int, length: int
) -> Iterator[Tuple[ModelOp, ...]]:
    """All programs of ``length`` ops over the configuration: each op is
    any (cluster, kind, subblock) combination."""
    shapes = list(
        itertools.product(
            range(num_clusters), ("load", "store"), range(num_subblocks)
        )
    )
    for combo in itertools.product(shapes, repeat=length):
        yield tuple(
            ModelOp(index, cluster, kind, sb)
            for index, (cluster, kind, sb) in enumerate(combo)
        )
