"""Pluggable memory-system models.

The paper's memory system — word-interleaved homes on a snooping bus
with remote-request buffers — is one point in a space of protocols.
This package makes the protocol a first-class axis: a
:class:`MemoryModel` names one placement scheme and supplies, per
address, the *home* a request travels to first and the *owner* that
holds the data.  Both simulation engines route by that one
``placement``: the per-cycle reference
:class:`~repro.sim.memory.MemorySystem` (what the conformance bridge
drives) and the flat fast path (:mod:`repro.sim.flatmem`).  Each model
also names its conformance address scheme: the protocol model
(:mod:`repro.check.model`) routes by the ``placement`` of those
addresses, so the model checker routes exactly as the simulator does.
Registered models:

``snooping``
    The paper's protocol, unchanged (the default; byte-identical to the
    pre-registry simulator — the goldens pin this).
``dls``
    Directoryless shared last-level cache: every block lives in exactly
    one address-hashed home slice; no per-cluster copies, hence no
    invalidation broadcast and no Attraction Buffers.
``directory``
    Distributed directory: a per-block *home* answers where the block
    lives and forwards the request to the *owner* slice, with every hop
    (request -> home -> owner -> requester) accounted as its own bus
    message kind.

``named_model()`` resolves a registry name; the name rides in
:class:`~repro.api.spec.RunSpec`, so content hashes distinguish models.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.arch.config import MachineConfig
from repro.errors import ConfigError

#: The model every entry point defaults to; its behaviour is pinned by
#: the goldens.
DEFAULT_MODEL = "snooping"


class MemoryModel:
    """One memory-system model: its placement and conformance mapping.

    Subclasses define the class attributes and override
    :meth:`placement` (and, for a non-interleaved placement,
    :meth:`conformance_address`).
    """

    #: registry key; also the ``--model`` spelling
    name: str = ""
    #: one-line human description for ``repro list``
    description: str = ""
    #: True when the model keeps per-cluster copies that Attraction
    #: Buffers can extend (only the snooping protocol does)
    supports_attraction: bool = True

    def placement(
        self, machine: MachineConfig, addrs: Sequence[int]
    ) -> Tuple[List[int], List[int]]:
        """``(homes, owners)`` of ``addrs``: how both engines route.

        ``homes[i]`` is the cluster a request for ``addrs[i]`` travels to
        first; ``owners[i]`` the cluster that holds the data and
        serializes accesses to it.  Single-hop models return the same
        list twice; where the two differ, a request reaching the home is
        forwarded to the owner.  The flat path calls this once per
        address table, the reference once per access.
        """
        raise NotImplementedError

    def validate_machine(self, machine: MachineConfig) -> None:
        """Reject machine features this model cannot simulate."""
        if (machine.attraction_buffer is not None
                and not self.supports_attraction):
            raise ConfigError(
                f"memory model {self.name!r} keeps no per-cluster copies; "
                f"Attraction Buffers are not supported"
            )

    def conformance_address(self, machine: MachineConfig, sb: int) -> int:
        """An address whose block id is ``sb``; the protocol model routes
        subblock ``sb`` by this address's :meth:`placement` under
        ``machine``."""
        return sb * machine.cache.block_bytes


#: name -> registered model instance
MODELS: Dict[str, MemoryModel] = {}


def register_model(model: MemoryModel) -> MemoryModel:
    if not model.name:
        raise ConfigError("memory model needs a non-empty name")
    if model.name in MODELS:
        raise ConfigError(f"memory model {model.name!r} already registered")
    MODELS[model.name] = model
    return model


def model_names() -> Tuple[str, ...]:
    return tuple(sorted(MODELS))


def named_model(name: str) -> MemoryModel:
    try:
        return MODELS[name]
    except KeyError:
        raise ConfigError(
            f"unknown memory model {name!r}; registered: "
            + ", ".join(model_names())
        ) from None


# Registration happens at import time; the submodules call
# register_model() themselves.
from repro.sim.models import snooping as _snooping  # noqa: E402,F401
from repro.sim.models import dls as _dls  # noqa: E402,F401
from repro.sim.models import directory as _directory  # noqa: E402,F401

__all__ = [
    "DEFAULT_MODEL",
    "MODELS",
    "MemoryModel",
    "model_names",
    "named_model",
    "register_model",
]
