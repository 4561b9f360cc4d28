"""Seeded protocol mutations — the "does the checker pay for itself" set.

Each mutation is a deliberate bug wired into the guarded-action model
(:mod:`repro.check.model` branches on ``ProtocolModel.mutation``), and
applies under every memory model.  The regression harness
(``tests/test_check_mutations.py``) asserts that the exhaustive explorer
produces a counterexample for every one of them under every model; if
a future edit to the model or the invariants makes any mutation pass,
the checker has lost the power to catch that class of bug.

``stale_combining`` is a re-injection of the real stale-read bug found
by fuzzing in an early revision of the simulator: remote loads combined
onto an in-flight same-subblock request and were served at the *older*
request's serialization point, missing stores that program order placed
between the two loads (see the ``MemorySystem._request`` docstring in
:mod:`repro.sim.memory`, which documents why the fixed protocol never
combines at the requester side).
"""

from __future__ import annotations

from typing import Dict

#: mutation name -> what the seeded bug does
MUTATIONS: Dict[str, str] = {
    "stale_combining": (
        "remote loads merge onto an in-flight same-subblock request and "
        "are served at its serialization point (the original fuzzed "
        "stale-read bug)"
    ),
    "dropped_invalidation": (
        "a store deferred in a home MSHR entry is dropped at fill time: "
        "the freshly installed subblock never learns about the write"
    ),
    "reordered_home_arrival": (
        "the fabric may deliver any queued request, not the per-source "
        "FIFO head — breaking the in-order arrival property MDC relies on"
    ),
    "premature_combine": (
        "a request that reaches a home mid-fill is served against the "
        "current contents instead of joining the MSHR entry, jumping "
        "the fill's serialization order"
    ),
}
