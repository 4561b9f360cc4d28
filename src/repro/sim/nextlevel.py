"""The next memory level: 4 ports, fixed total latency, always hits
(paper Table 2).

Requests are accepted FIFO, at most ``ports`` per cycle; an accepted
request completes ``latency`` cycles later, invoking its callback.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List

from repro.arch.config import NextLevelConfig


@dataclass
class NextLevelRequest:
    on_fill: Callable[[int], None]


class NextLevel:
    """Always-hit backing store behind every cache module."""

    def __init__(self, config: NextLevelConfig) -> None:
        self.config = config
        self._queue: Deque[NextLevelRequest] = deque()
        self._completions: Dict[int, List[NextLevelRequest]] = {}
        self.requests = 0

    def request(self, req: NextLevelRequest) -> None:
        self._queue.append(req)
        self.requests += 1

    def pending(self) -> int:
        return len(self._queue) + sum(len(v) for v in self._completions.values())

    def tick(self, cycle: int) -> None:
        """Complete due fills, then accept up to ``ports`` new requests."""
        if self._completions:
            for req in self._completions.pop(cycle, ()):
                req.on_fill(cycle)
        if self._queue:
            accepted = 0
            while self._queue and accepted < self.config.ports:
                req = self._queue.popleft()
                done = cycle + self.config.latency
                self._completions.setdefault(done, []).append(req)
                accepted += 1
