"""Cycle-level simulator of the word-interleaved cache clustered VLIW.

The executor (:func:`repro.sim.executor.simulate`) runs a compiled modulo
schedule the way the hardware would: operation instances issue at
``t(op) + i * II`` in lockstep across clusters, the whole machine stalls on
use of a load value that has not arrived, and the distributed memory system
(cache modules, memory buses, next level, optional Attraction Buffers)
advances every cycle, including stalled ones.

Two engines drive that model and agree stat for stat.  The default flat
fast path (:mod:`repro.sim.flatmem`) runs every registered memory model
over plain containers, jumping stalled windows and the post-issue drain
to the next memory event and bulk-retiring memory-free kernel-index
runs; ``engine="cycles"`` is the one-Python-iteration-per-cycle
reference over the object :class:`~repro.sim.memory.MemorySystem`, one
class for every model.  Both route each address by the model's
``placement`` (:mod:`repro.sim.models`).  See the "Simulation" section
of ``docs/architecture.md``.

A :class:`~repro.sim.coherence.CoherenceChecker` tracks, per access, the
store version each load *should* observe under sequential semantics and
counts the violations an unconstrained schedule would have turned into
data corruption (the simulation itself stays trace-driven and correct,
like the paper's — footnote in section 4.1).
"""

from repro.sim.stats import AccessType, SimStats
from repro.sim.coherence import CoherenceChecker
from repro.sim.memory import MemorySystem
from repro.sim.executor import ENGINES, SimulationResult, simulate

__all__ = [
    "AccessType",
    "SimStats",
    "CoherenceChecker",
    "MemorySystem",
    "ENGINES",
    "SimulationResult",
    "simulate",
]
