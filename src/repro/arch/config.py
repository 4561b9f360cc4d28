"""Static machine description (paper Table 2 and section 4.2 variants).

The machine is a clustered VLIW processor whose L1 data cache is
word-interleaved across clusters.  Each cluster holds a register file, one
integer unit, one floating-point unit and one memory unit, plus a local
cache module.  Clusters exchange register values over register-to-register
buses and memory traffic over memory buses; both bus kinds run at half the
core frequency in the balanced configuration, which we model as a 2-cycle
occupancy/latency per transfer.

Three named configurations are provided:

* ``BASELINE_CONFIG`` — Table 2: 4 clusters, 4 memory buses and 4 register
  buses at 1/2 core frequency (2-cycle latency), 8KB total cache in four
  2KB modules, 32-byte blocks, 2-way associative, 10-cycle always-hit next
  level with 4 ports.
* ``NOBAL_MEM_CONFIG`` — section 4.2: four 2-cycle memory buses but only
  two 4-cycle register buses.
* ``NOBAL_REG_CONFIG`` — section 4.2: two 4-cycle memory buses and four
  2-cycle register buses.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from repro.errors import ConfigError

BYTES_PER_WORD = 4
"""Architectural word size in bytes (the interleaving unit is a word)."""


class FuKind(enum.Enum):
    """Functional-unit classes available in each cluster (Table 2)."""

    INT = "int"
    FP = "fp"
    MEM = "mem"


@dataclass(frozen=True)
class BusConfig:
    """A set of identical inter-cluster buses.

    ``latency`` is the end-to-end transfer latency in core cycles and also
    the number of consecutive cycles a transfer occupies the bus (the buses
    run slower than the core, so a transfer holds the bus for the whole
    latency window).
    """

    count: int
    latency: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigError(f"bus count must be >= 1, got {self.count}")
        if self.latency < 1:
            raise ConfigError(f"bus latency must be >= 1, got {self.latency}")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one per-cluster cache module."""

    module_bytes: int = 2 * 1024
    block_bytes: int = 32
    associativity: int = 2
    hit_latency: int = 1

    def __post_init__(self) -> None:
        if self.module_bytes % (self.block_bytes * self.associativity):
            raise ConfigError(
                "cache module size must be a multiple of block_bytes * ways"
            )
        if self.block_bytes % BYTES_PER_WORD:
            raise ConfigError("cache block size must be a whole number of words")
        if self.hit_latency < 1:
            raise ConfigError(
                f"cache hit_latency must be >= 1, got {self.hit_latency}"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets in one cache module.

        The module stores *subblocks* (the slice of each block mapped to its
        cluster), but the number of sets is determined by how many blocks
        the module can name, which is what the paper's "2KB module, 32-byte
        blocks, 2-way" geometry describes.
        """
        return self.module_bytes // (self.block_bytes * self.associativity)


@dataclass(frozen=True)
class NextLevelConfig:
    """The next memory level: always hits, fixed total latency, N ports."""

    ports: int = 4
    latency: int = 10

    def __post_init__(self) -> None:
        if self.ports < 1:
            raise ConfigError("next level needs at least one port")
        if self.latency < 1:
            raise ConfigError("next-level latency must be >= 1")


@dataclass(frozen=True)
class AttractionBufferConfig:
    """Per-cluster Attraction Buffer (section 5): small 2-way buffer of
    remote subblocks, flushed at loop boundaries."""

    entries: int = 16
    associativity: int = 2

    def __post_init__(self) -> None:
        if self.entries < 1 or self.entries % self.associativity:
            raise ConfigError("AB entries must be a positive multiple of ways")

    @property
    def num_sets(self) -> int:
        return self.entries // self.associativity


@dataclass(frozen=True)
class MemoryLatencies:
    """The four access latencies a memory instruction can be scheduled with.

    These are the *assumed* latencies the scheduler may pick from (paper
    section 2.2: memory ops are scheduled with the largest latency that does
    not hurt compute time).  They are derived from the machine parameters:

    * local hit   = cache hit latency
    * remote hit  = request bus + remote hit + response bus
    * local miss  = cache probe + next-level round trip
    * remote miss = request bus + remote probe + next level + response bus
    """

    local_hit: int
    remote_hit: int
    local_miss: int
    remote_miss: int

    def ladder(self) -> Tuple[int, int, int, int]:
        """Latencies in increasing order of pessimism."""
        return (self.local_hit, self.remote_hit, self.local_miss, self.remote_miss)


#: Fixed latencies of non-memory operations, in core cycles.
OP_LATENCIES: Dict[str, int] = {
    "ialu": 1,
    "imul": 2,
    "falu": 2,
    "fmul": 4,
    "fdiv": 8,
    "store": 1,
}


@dataclass(frozen=True)
class MachineConfig:
    """Complete description of one machine configuration."""

    name: str = "baseline"
    num_clusters: int = 4
    interleave_bytes: int = BYTES_PER_WORD
    fu_per_cluster: Dict[FuKind, int] = field(
        default_factory=lambda: {FuKind.INT: 1, FuKind.FP: 1, FuKind.MEM: 1}
    )
    cache: CacheConfig = field(default_factory=CacheConfig)
    memory_buses: BusConfig = field(default_factory=lambda: BusConfig(4, 2))
    register_buses: BusConfig = field(default_factory=lambda: BusConfig(4, 2))
    next_level: NextLevelConfig = field(default_factory=NextLevelConfig)
    attraction_buffer: AttractionBufferConfig | None = None

    def __post_init__(self) -> None:
        if self.num_clusters < 1:
            raise ConfigError("need at least one cluster")
        if self.interleave_bytes < 1:
            raise ConfigError("interleave factor must be positive")
        if self.cache.block_bytes % (self.interleave_bytes * self.num_clusters):
            raise ConfigError(
                "cache block must hold a whole number of interleave units "
                "per cluster (block_bytes %% (interleave * clusters) == 0)"
            )
        for kind in FuKind:
            if self.fu_per_cluster.get(kind, 0) < 0:
                raise ConfigError(f"negative FU count for {kind}")

    def fingerprint(self) -> str:
        """Stable content hash of every field of this configuration.

        Distinguishes configurations that share a ``name`` but differ
        structurally; the building block of spec cache keys
        (:mod:`repro.api.spec`) and the front-end artifact key
        (:mod:`repro.sched.stages`).

        The config is frozen, so the digest is computed on the first
        call and kept on the instance (outside the dataclass fields, so
        it never enters equality, ``repr`` or the digest itself); copies
        made with :func:`dataclasses.replace` compute their own.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            from repro.hashing import digest

            cached = digest(self)
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def subblock_bytes(self) -> int:
        """Bytes of each cache block held by one cluster (the *subblock*)."""
        return self.cache.block_bytes // self.num_clusters

    @property
    def clusters(self) -> range:
        return range(self.num_clusters)

    def with_interleave(self, interleave_bytes: int) -> "MachineConfig":
        """A copy of this config with a different interleaving factor.

        The paper uses a 4-byte factor for word-dominated benchmarks and a
        2-byte factor for halfword-dominated ones (Table 1 discussion);
        changing the factor only changes the cache indexing function.
        """
        return replace(self, interleave_bytes=interleave_bytes)

    def with_attraction_buffers(
        self, entries: int = 16, associativity: int = 2
    ) -> "MachineConfig":
        """A copy of this config with Attraction Buffers enabled (section 5)."""
        return replace(
            self,
            name=f"{self.name}+ab",
            attraction_buffer=AttractionBufferConfig(entries, associativity),
        )

    # ------------------------------------------------------------------
    # Latencies
    # ------------------------------------------------------------------
    def memory_latencies(self) -> MemoryLatencies:
        """The four-step latency ladder implied by the bus/cache/next-level
        parameters (see :class:`MemoryLatencies`)."""
        hit = self.cache.hit_latency
        bus = self.memory_buses.latency
        nl = self.next_level.latency
        return MemoryLatencies(
            local_hit=hit,
            remote_hit=bus + hit + bus,
            local_miss=hit + nl,
            remote_miss=bus + hit + nl + bus,
        )

    def op_latency(self, mnemonic: str) -> int:
        """Fixed issue-to-result latency of a non-load operation."""
        try:
            return OP_LATENCIES[mnemonic]
        except KeyError:
            raise ConfigError(f"unknown operation mnemonic: {mnemonic!r}") from None

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def home_cluster(self, address: int) -> int:
        """The cluster whose cache module owns ``address``.

        Word-interleaved mapping: consecutive ``interleave_bytes`` units go
        to consecutive clusters (paper section 2.1).
        """
        return (address // self.interleave_bytes) % self.num_clusters

    def describe(self) -> str:
        """Human-readable one-block summary (used by the Table 2 bench)."""
        ab = (
            f"{self.attraction_buffer.entries}-entry "
            f"{self.attraction_buffer.associativity}-way"
            if self.attraction_buffer
            else "disabled"
        )
        lat = self.memory_latencies()
        lines = [
            f"configuration          : {self.name}",
            f"clusters               : {self.num_clusters}",
            "functional units       : "
            + " + ".join(
                f"{count} {kind.value}/cluster"
                for kind, count in sorted(
                    self.fu_per_cluster.items(), key=lambda kv: kv[0].value
                )
            ),
            f"cache                  : {self.num_clusters} x "
            f"{self.cache.module_bytes // 1024}KB modules, "
            f"{self.cache.block_bytes}B blocks, "
            f"{self.cache.associativity}-way, "
            f"{self.cache.hit_latency}-cycle hit",
            f"interleave factor      : {self.interleave_bytes} bytes",
            f"memory buses           : {self.memory_buses.count} x "
            f"{self.memory_buses.latency}-cycle",
            f"register buses         : {self.register_buses.count} x "
            f"{self.register_buses.latency}-cycle",
            f"next level             : {self.next_level.ports} ports, "
            f"{self.next_level.latency}-cycle, always hit",
            f"attraction buffers     : {ab}",
            f"latency ladder         : local hit {lat.local_hit} / remote hit "
            f"{lat.remote_hit} / local miss {lat.local_miss} / remote miss "
            f"{lat.remote_miss}",
        ]
        return "\n".join(lines)


BASELINE_CONFIG = MachineConfig(name="baseline")

NOBAL_MEM_CONFIG = MachineConfig(
    name="nobal+mem",
    memory_buses=BusConfig(4, 2),
    register_buses=BusConfig(2, 4),
)

NOBAL_REG_CONFIG = MachineConfig(
    name="nobal+reg",
    memory_buses=BusConfig(2, 4),
    register_buses=BusConfig(4, 2),
)

_NAMED = {
    "baseline": BASELINE_CONFIG,
    "nobal+mem": NOBAL_MEM_CONFIG,
    "nobal+reg": NOBAL_REG_CONFIG,
}

#: Prefix of self-describing generated configuration names (see
#: :func:`encode_config_name`).  ``named_config`` decodes such names on the
#: fly, so machine-space sweeps can ship configurations across process
#: boundaries (RunSpec fields, cache keys, CLI arguments) as plain strings.
GENERATED_PREFIX = "gen-"

_GENERATED_NAME_RE = re.compile(
    r"^gen-c(?P<clusters>\d+)"
    r"-mb(?P<mb_count>\d+)x(?P<mb_lat>\d+)"
    r"-rb(?P<rb_count>\d+)x(?P<rb_lat>\d+)"
    r"-cm(?P<module>\d+)b(?P<block>\d+)a(?P<ways>\d+)"
    r"-nl(?P<nl_lat>\d+)p(?P<nl_ports>\d+)$"
)


def encode_config_name(config: MachineConfig) -> str:
    """The self-describing ``gen-...`` name of a machine configuration.

    The name captures every swept dimension (clusters, both bus sets, the
    cache-module geometry, the next level) and round-trips through
    :func:`parse_config_name`.  Two kinds of field are deliberately not
    encoded: the interleave factor (benchmarks impose their own via
    :meth:`~repro.workloads.catalog.Benchmark.machine`) and per-run
    toggles with their own spec surface (Attraction Buffers travel as
    ``RunSpec.attraction``).  Configurations whose *other* unencoded
    fields (functional-unit mix, cache hit latency) differ from the
    defaults have no faithful name, so encoding them raises
    :class:`~repro.errors.ConfigError` rather than silently producing a
    name that decodes into a different machine.
    """
    defaults = MachineConfig()
    unencodable = []
    if config.fu_per_cluster != defaults.fu_per_cluster:
        unencodable.append("fu_per_cluster")
    if config.cache.hit_latency != defaults.cache.hit_latency:
        unencodable.append("cache.hit_latency")
    if config.attraction_buffer is not None:
        unencodable.append(
            "attraction_buffer (use RunSpec.attraction instead)"
        )
    if unencodable:
        raise ConfigError(
            f"configuration {config.name!r} cannot be encoded as a gen- "
            f"name: non-default {', '.join(unencodable)} would be lost "
            f"in the round trip"
        )
    cache = config.cache
    return (
        f"gen-c{config.num_clusters}"
        f"-mb{config.memory_buses.count}x{config.memory_buses.latency}"
        f"-rb{config.register_buses.count}x{config.register_buses.latency}"
        f"-cm{cache.module_bytes}b{cache.block_bytes}a{cache.associativity}"
        f"-nl{config.next_level.latency}p{config.next_level.ports}"
    )


def parse_config_name(name: str) -> MachineConfig:
    """Decode a ``gen-...`` name into a full :class:`MachineConfig`.

    Raises :class:`~repro.errors.ConfigError` when the name does not match
    the grammar or describes an invalid geometry.
    """
    match = _GENERATED_NAME_RE.match(name)
    if match is None:
        raise ConfigError(
            f"malformed generated configuration name {name!r}; expected "
            f"e.g. {encode_config_name(BASELINE_CONFIG)!r}"
        )
    g = {key: int(value) for key, value in match.groupdict().items()}
    return MachineConfig(
        name=name,
        num_clusters=g["clusters"],
        cache=CacheConfig(
            module_bytes=g["module"],
            block_bytes=g["block"],
            associativity=g["ways"],
        ),
        memory_buses=BusConfig(g["mb_count"], g["mb_lat"]),
        register_buses=BusConfig(g["rb_count"], g["rb_lat"]),
        next_level=NextLevelConfig(ports=g["nl_ports"], latency=g["nl_lat"]),
    )


def named_config(name: str) -> MachineConfig:
    """Look up one of the paper's machine configurations by name, or decode
    a generated ``gen-...`` name (see :func:`encode_config_name`)."""
    try:
        return _NAMED[name]
    except KeyError:
        pass
    if name.startswith(GENERATED_PREFIX):
        return parse_config_name(name)
    raise ConfigError(
        f"unknown configuration {name!r}; expected one of {sorted(_NAMED)} "
        f"or a generated '{GENERATED_PREFIX}...' name"
    )
