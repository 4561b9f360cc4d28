"""``repro.hashing`` against its oracle, ``tests/hashing_reference.py``.

``jsonable`` returns plain scalars before its dataclass and enum checks;
the reference walks every check for every value.  Every content key in
the package (spec keys, machine fingerprints, front-end artifact keys)
is a ``digest``, so the two must agree on every payload shape a key can
hold: str and int dict keys, enum members whose type is also ``int`` or
``str``, nested frozen dataclasses, tuples, floats, bools and ``None``.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

import hashing_reference as reference
from repro.arch.config import BASELINE_CONFIG, named_config
from repro.hashing import digest, jsonable


class Width(enum.IntEnum):
    HALF = 2
    WORD = 4
    LINE = 32


class Mode(enum.Enum):
    FREE = "none"
    MDC = "mdc"


class Tag(str, enum.Enum):
    HOT = "hot"
    COLD = "cold"


@dataclass(frozen=True)
class Leaf:
    name: str
    weight: float
    mode: Mode
    width: Width


@dataclass(frozen=True)
class Node:
    leaf: Leaf
    children: Tuple[object, ...]
    table: Dict[object, object]
    tag: Tag
    note: Optional[int] = None


ENUMS = st.sampled_from([*Width, *Mode, *Tag])
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=6), ENUMS,
)
KEYS = st.one_of(st.text(max_size=4), st.integers(-12, 12), ENUMS)
LEAVES = st.builds(
    Leaf, name=st.text(max_size=6), weight=st.floats(),
    mode=st.sampled_from(Mode), width=st.sampled_from(Width),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
        st.builds(
            Node, leaf=LEAVES,
            children=st.lists(children, max_size=3).map(tuple),
            table=st.dictionaries(KEYS, children, max_size=3),
            tag=st.sampled_from(Tag),
            note=st.none() | st.integers(),
        ),
    )


PAYLOADS = st.recursive(SCALARS | LEAVES, _containers, max_leaves=24)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(PAYLOADS)
def test_digest_matches_the_reference(payload):
    assert digest(payload) == reference.digest(payload)


def test_int_keys_sort_by_their_string_form():
    payload = {10: "ten", 2: "two", "1": "one"}
    text = json.dumps(jsonable(payload), sort_keys=True,
                      separators=(",", ":"))
    assert text == '{"1":"one","10":"ten","2":"two"}'
    assert digest(payload) == reference.digest(payload)


def test_enum_members_reduce_to_their_values():
    """``IntEnum`` and ``(str, Enum)`` members are ``int``/``str``
    instances, but not of exactly that type: they still go through the
    enum branch, as values and as dict keys."""
    payload = {Width.WORD: [Width.HALF, Tag.HOT], Tag.COLD: Mode.MDC}
    assert jsonable(payload) == reference.jsonable(payload)
    assert jsonable([Width.LINE, Tag.HOT, Mode.FREE]) == [32, "hot", "none"]
    assert digest(payload) == reference.digest(payload)


def test_machine_configs_digest_as_before():
    """Machine fingerprints are digests of frozen dataclasses holding
    nested dataclasses and an enum-keyed dict."""
    for config in (BASELINE_CONFIG,
                   named_config("gen-c2-mb2x4-rb4x2-cm1024b32a2-nl20p2"),
                   BASELINE_CONFIG.with_attraction_buffers()):
        assert digest(config) == reference.digest(config)
        assert config.fingerprint() == reference.digest(config)
