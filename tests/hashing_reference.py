"""The straightforward canonical digest: the oracle for the fast one.

A test-only copy of :mod:`repro.hashing` as it stood before ``jsonable``
returned plain scalars ahead of its dataclass and enum checks, kept so
``tests/test_hashing.py`` can show the optimized module computes the same
digest for every payload.  Every value walks the whole chain of checks:
dataclass, enum, dict, list/tuple, then pass-through.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

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
