"""The coherence solutions a compile can apply (section 3 of the paper)."""

from __future__ import annotations

import enum


class CoherenceMode(enum.Enum):
    """How memory coherence is guaranteed (or, for NONE, assumed away)."""

    #: optimistic baseline: memory edges constrain timing but not placement
    NONE = "none"
    MDC = "mdc"
    DDGT = "ddgt"
