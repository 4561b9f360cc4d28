"""Code specialization (paper section 6).

The paper hand-applies dynamic memory disambiguation [3] to the chainiest
benchmarks: the loop is duplicated into a *restrictive* version (assumes
the ambiguous dependences hold) and an *aggressive* version (assumes they
don't), guarded by a run-time overlap check.  The aggressive version —
taken whenever the pointers don't actually collide — drops exactly the
edges the ambiguity forced, so the memory dependent chains shrink to the
true dependences (Table 5's OLD -> NEW movement).

At the graph level the aggressive version is obtained by clearing the
``ambiguous`` flag on every reference and re-running disambiguation; the
restrictive version is the original graph.
"""

from __future__ import annotations

from dataclasses import replace

from repro.alias.disambiguation import (
    add_memory_dependences,
    remove_memory_dependences,
)
from repro.ir.ddg import Ddg


def specialize_ambiguous(ddg: Ddg) -> Ddg:
    """The aggressive loop version: ambiguity dropped, true deps kept.

    Works whether or not the input graph already carries memory edges —
    any existing MF/MA/MO edges are stripped and re-derived from the
    now-unambiguous references.
    """
    aggressive = ddg.clone(f"{ddg.name}+spec")
    for instr in list(aggressive):
        if instr.mem is not None and instr.mem.ambiguous:
            aggressive.replace_instruction(
                replace(instr, mem=replace(instr.mem, ambiguous=False))
            )
    remove_memory_dependences(aggressive)
    add_memory_dependences(aggressive)
    return aggressive
