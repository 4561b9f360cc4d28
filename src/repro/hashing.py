"""Canonical content hashing.

The single digest discipline behind every content-addressed key in the
package: spec cache keys (:mod:`repro.api.spec`), machine fingerprints
(:meth:`repro.arch.config.MachineConfig.fingerprint`) and the
front-end artifact key (:mod:`repro.sched.stages`).  Payloads are reduced to
canonical JSON (dataclasses to field dicts, enums to values, dict keys
sorted) and hashed with SHA-256, so two processes — or two interpreter
versions — always agree on the key for the same work.

:func:`digest` accepts any payload and reduces it with :func:`jsonable`
first.  Callers whose payload is plain JSON already (str/int/float/bool/
``None`` leaves in dicts with ``str`` keys, lists and tuples) use
:func:`plain_digest`, which skips that walk and hashes the same text;
:func:`canonical_json` is that text.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

#: Hex digits kept from the SHA-256 digest; 64 bits of key space is ample
#: for cache keys while keeping file names and logs readable.
DIGEST_LENGTH = 16

#: Types that are canonical JSON values already.  Matched by exact type:
#: an ``IntEnum`` member is an ``int`` and a ``(str, Enum)`` member a
#: ``str``, and both must still reduce to their ``value``.
_PLAIN_TYPES = frozenset((str, int, float, bool, type(None)))


def jsonable(obj):
    """Convert nested dataclasses/enums/dicts to canonical JSON values."""
    if type(obj) in _PLAIN_TYPES:
        return obj
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


def canonical_json(payload) -> str:
    """The canonical JSON text of a plain-JSON payload: keys sorted, no
    whitespace.  Tuples encode as lists, as :func:`jsonable` makes them."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def plain_digest(payload) -> str:
    """:func:`digest` of a payload that is plain JSON already, without
    the :func:`jsonable` walk: equal to ``digest(payload)`` for every
    such payload."""
    text = canonical_json(payload)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:DIGEST_LENGTH]


def digest(payload) -> str:
    """Stable short hex digest of an arbitrary JSON-able payload."""
    return plain_digest(jsonable(payload))
