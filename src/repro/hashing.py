"""Canonical content hashing.

The single digest discipline behind every content-addressed key in the
package: spec cache keys (:mod:`repro.api.spec`), machine fingerprints
(:meth:`repro.arch.config.MachineConfig.fingerprint`) and the
front-end artifact key (:mod:`repro.sched.stages`).  Payloads are reduced to
canonical JSON (dataclasses to field dicts, enums to values, dict keys
sorted) and hashed with SHA-256, so two processes — or two interpreter
versions — always agree on the key for the same work.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

#: Hex digits kept from the SHA-256 digest; 64 bits of key space is ample
#: for cache keys while keeping file names and logs readable.
DIGEST_LENGTH = 16


def jsonable(obj):
    """Convert nested dataclasses/enums/dicts to canonical JSON values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {
            str(jsonable(k)): jsonable(v)
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def digest(payload) -> str:
    """Stable short hex digest of an arbitrary JSON-able payload."""
    canonical = json.dumps(jsonable(payload), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:DIGEST_LENGTH]
