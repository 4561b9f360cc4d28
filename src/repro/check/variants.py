"""Check models for the non-default memory models.

One :class:`~repro.check.model.ProtocolModel` subclass per registered
memory model (:mod:`repro.sim.models`), sharing the state shape, the
invariants (:mod:`repro.check.invariants`) and the explorer:

* :class:`DLSProtocolModel` — the directoryless-shared-LLC model is the
  snooping protocol skeleton over a different placement map, so the
  subclass overrides exactly one hook (:meth:`home`), mirroring how the
  simulator's ``dls`` model defines nothing but its ``placement``.
  Every seeded mutation applies unchanged.

* :class:`DirectoryProtocolModel` — the distributed-directory model
  decouples the *directory home* (``sb % N``, where requests go) from
  the *owner* (``(sb // N) % N``, where the data lives).  Its own
  transition table adds the forwarded hop: a request reaching a home
  that does not own the data becomes a ``fwd_ld``/``fwd_st`` message in
  the home's FIFO (``deliver_request_forward``), and an access issued
  *at* the home of data owned elsewhere skips the request hop entirely
  (``issue_forward``).  Forwarded messages are served at the owner by
  the ``deliver_forward_*`` family — the same hit/miss/combine
  dispositions as requests, at the model's :meth:`data_home`.  Seeded
  mutations are snooping-flow bugs and are rejected.

The explorer proves, per model, that disciplined programs (every
aliasing pair on one cluster) never observe stale versions.  For the
directory model the informal argument is the one the table encodes:
aliasing accesses from one cluster take the *same* (cluster, home,
owner) path, and every hop — issue queue, request FIFO, forward FIFO,
MSHR replay — preserves arrival order, so the extra hop cannot reorder
a chain.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

from repro.errors import ConfigError

from repro.check.model import (
    ABSENT,
    INFLIGHT,
    NO_VERSION,
    GuardedAction,
    ModelOp,
    ProtocolModel,
    State,
    _a_deliver_response,
    _a_fill,
    _a_local_hit,
    _a_local_miss,
    _a_remote,
    _a_request_combine,
    _a_request_hit,
    _a_request_miss,
    _a_send_response,
    _append,
    _apply_store,
    _deliverable_requests,
    _describe_delivery,
    _i_deliver_response,
    _i_fill,
    _i_local_combine,
    _i_local_hit,
    _i_local_miss,
    _i_send_response,
    _issuable,
    _observe,
    _op_describer,
    _pop,
    _set,
)
from repro.sim.models.dls import dls_home


class DLSProtocolModel(ProtocolModel):
    """Snooping transitions over the hashed single-slice placement."""

    def home(self, sb: int) -> int:
        return dls_home(sb, self.num_clusters)


# ----------------------------------------------------------------------
# Directory: guards and actions for the forwarded hop
# ----------------------------------------------------------------------
def _i_issue_forward(model: ProtocolModel, state: State):
    for op in model.program:
        sb = op.subblock
        if (
            op.cluster == model.home(sb)
            and op.cluster != model.data_home(sb)
            and _issuable(model, state, op)
        ):
            yield (op.index,)


def _a_issue_forward(model, state, args):
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


def _i_remote_directory(model: ProtocolModel, state: State):
    # Unlike the snooping guard (not is_local), an access from the data
    # home itself forwards (above) rather than sending a request.
    for op in model.program:
        if op.cluster != model.home(op.subblock) and _issuable(
            model, state, op
        ):
            yield (op.index,)


def _owned_requests(model: ProtocolModel, state: State):
    """Deliverable requests whose home also owns the data."""
    for src, pos, message in _deliverable_requests(model, state):
        sb = message[1]
        if model.data_home(sb) == model.home(sb):
            yield src, pos, message


def _i_request_hit_owned(model, state):
    for src, pos, message in _owned_requests(model, state):
        if state.cache[message[1]] != ABSENT:
            yield (src, pos)


def _i_request_miss_owned(model, state):
    for src, pos, message in _owned_requests(model, state):
        if state.cache[message[1]] == ABSENT and not state.mshr[message[1]]:
            yield (src, pos)


def _i_request_combine_owned(model, state):
    for src, pos, message in _owned_requests(model, state):
        if state.cache[message[1]] == ABSENT and state.mshr[message[1]]:
            yield (src, pos)


def _i_request_forward(model, state):
    for src, pos, message in _deliverable_requests(model, state):
        sb = message[1]
        if model.data_home(sb) != model.home(sb):
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
        queues=_append(state.queues, model.home(sb), forward)
    )
    return state, []


def _deliverable_forwards(model: ProtocolModel, state: State):
    """Per-source FIFO heads that are forwarded messages."""
    for src in range(model.num_clusters):
        queue = state.queues[src]
        if queue and queue[0][0] in ("fwd_ld", "fwd_st"):
            yield src, 0, queue[0]


def _i_forward_hit(model, state):
    for src, pos, message in _deliverable_forwards(model, state):
        if state.cache[message[1]] != ABSENT:
            yield (src, pos)


def _a_forward_hit(model, state, args):
    src, pos = args
    message = state.queues[src][pos]
    sb = message[1]
    owner = model.data_home(sb)
    state = state._replace(queues=_pop(state.queues, src, pos))
    events = []
    if message[0] == "fwd_ld":
        for op_index in message[2]:
            state = _observe(model, state, op_index, INFLIGHT, events)
        version = state.ops[message[2][0]][1]
        state = state._replace(
            pending=_append(
                state.pending, owner, ("resp", sb, message[2], version)
            )
        )
    else:
        state = _apply_store(
            model, state, sb, message[2], events, present=True
        )
    return state, events


def _i_forward_miss(model, state):
    for src, pos, message in _deliverable_forwards(model, state):
        if state.cache[message[1]] == ABSENT and not state.mshr[message[1]]:
            yield (src, pos)


def _a_forward_miss(model, state, args):
    src, pos = args
    message = state.queues[src][pos]
    sb = message[1]
    state = state._replace(queues=_pop(state.queues, src, pos))
    if message[0] == "fwd_ld":
        actions = [("respond", message[3], op) for op in message[2]]
    else:
        actions = [("store", message[2])]
    for action in actions:
        state = state._replace(mshr=_append(state.mshr, sb, action))
    return state, []


def _i_forward_combine(model, state):
    for src, pos, message in _deliverable_forwards(model, state):
        if state.cache[message[1]] == ABSENT and state.mshr[message[1]]:
            yield (src, pos)


class DirectoryProtocolModel(ProtocolModel):
    """Request -> home -> owner -> requester as guarded actions."""

    def __init__(
        self,
        num_clusters: int,
        num_subblocks: int,
        program: Tuple[ModelOp, ...],
        mutation: Optional[str] = None,
    ) -> None:
        if mutation is not None:
            raise ConfigError(
                "seeded mutations model snooping-flow bugs and are not "
                "defined for the directory model"
            )
        super().__init__(num_clusters, num_subblocks, program)

    def owner(self, sb: int) -> int:
        return (sb // self.num_clusters) % self.num_clusters

    def data_home(self, sb: int) -> int:
        return self.owner(sb)

    def is_local(self, op: ModelOp) -> bool:
        sb = op.subblock
        return op.cluster == self.home(sb) == self.data_home(sb)


DirectoryProtocolModel.TRANSITION_TABLE = (
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
        _i_local_combine, _a_local_miss, _op_describer,
    ),
    GuardedAction(
        "issue_forward",
        "an access at the directory home of data owned elsewhere goes "
        "straight to the owner (the lookup is local and free)",
        _i_issue_forward, _a_issue_forward, _op_describer,
    ),
    GuardedAction(
        "issue_remote",
        "a remote access sends its request to the directory home",
        _i_remote_directory, _a_remote, _op_describer,
    ),
    GuardedAction(
        "deliver_request_hit",
        "a request reaches a home that owns and holds the subblock",
        _i_request_hit_owned, _a_request_hit, _describe_delivery,
    ),
    GuardedAction(
        "deliver_request_miss",
        "a request reaches an owning home without the subblock: "
        "MSHR + fill",
        _i_request_miss_owned, _a_request_miss, _describe_delivery,
    ),
    GuardedAction(
        "deliver_request_combine",
        "a request reaches an owning home mid-fill and joins the entry",
        _i_request_combine_owned, _a_request_combine, _describe_delivery,
    ),
    GuardedAction(
        "deliver_request_forward",
        "a request reaches a home that does not own the data and is "
        "forwarded to the owner",
        _i_request_forward, _a_request_forward, _describe_delivery,
    ),
    GuardedAction(
        "deliver_forward_hit",
        "a forward reaches the owner holding the subblock and is served",
        _i_forward_hit, _a_forward_hit, _describe_delivery,
    ),
    GuardedAction(
        "deliver_forward_miss",
        "a forward reaches the owner without the subblock: MSHR + fill",
        _i_forward_miss, _a_forward_miss, _describe_delivery,
    ),
    GuardedAction(
        "deliver_forward_combine",
        "a forward reaches the owner mid-fill and joins the MSHR entry",
        _i_forward_combine, _a_forward_miss, _describe_delivery,
    ),
    GuardedAction(
        "send_response",
        "a ready probe-hit response enters the owner's bus queue",
        _i_send_response, _a_send_response,
        lambda model, args: f"owner c{args[0]}",
    ),
    GuardedAction(
        "deliver_response",
        "a response reaches its requester; the load completes",
        _i_deliver_response, _a_deliver_response,
        lambda model, args: f"from owner c{args[0]}",
    ),
    GuardedAction(
        "fill_complete",
        "the next-level fill lands; MSHR actions replay in arrival order",
        _i_fill, _a_fill,
        lambda model, args: f"sb{args[0]}",
    ),
)


#: memory-model name -> check model class (the bridge and the explorer
#: select by the same names the sim registry uses).
CHECK_MODELS: Dict[str, Type[ProtocolModel]] = {
    "snooping": ProtocolModel,
    "dls": DLSProtocolModel,
    "directory": DirectoryProtocolModel,
}


def named_check_model(name: str) -> Type[ProtocolModel]:
    """The check-model class for a registered memory model name."""
    try:
        return CHECK_MODELS[name]
    except KeyError:
        raise ConfigError(
            f"no check model for memory model {name!r}; expected one of "
            f"{sorted(CHECK_MODELS)}"
        ) from None
