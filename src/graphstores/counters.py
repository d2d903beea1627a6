"""Operation-cost counters attached to every store.

Hash-backed stores report cost as slot *probes*; list-backed stores report
node *traversals*. Each operation class (add / contains / enumerate) gets
its own channel so reports can separate insertion cost from query cost.
A successful insert counts the cell or slot it writes, so the cheapest
possible add costs 1 in either unit.

The stores' scalar calls update a channel's fields inline rather than
calling ``record_probes`` / ``record_traversals``, to save a Python call
per operation; the ``record_*`` methods stay the public way to record.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class Channel:
    """Monotone counters for one operation class; reset() starts a new phase."""

    ops: int = 0
    probes: int = 0
    traversals: int = 0
    max_probes: int = 0
    max_traversals: int = 0

    def record_probes(self, count: int) -> None:
        self.ops += 1
        self.probes += count
        if count > self.max_probes:
            self.max_probes = count

    def record_probe_batch(self, ops: int, probes: int, peak: int) -> None:
        """Record ``ops`` operations at once: ``probes`` in all, the longest ``peak``."""
        self.ops += ops
        self.probes += probes
        if peak > self.max_probes:
            self.max_probes = peak

    def record_traversals(self, count: int) -> None:
        self.ops += 1
        self.traversals += count
        if count > self.max_traversals:
            self.max_traversals = count

    @property
    def total(self) -> int:
        return self.probes + self.traversals

    @property
    def mean(self) -> float:
        return self.total / self.ops if self.ops else 0.0

    @property
    def peak(self) -> int:
        return self.max_probes if self.max_probes > self.max_traversals else self.max_traversals

    def reset(self) -> None:
        self.ops = 0
        self.probes = 0
        self.traversals = 0
        self.max_probes = 0
        self.max_traversals = 0


OP_CLASSES = ("add", "contains", "enumerate")


@dataclass(slots=True)
class OpCounters:
    add: Channel = field(default_factory=Channel)
    contains: Channel = field(default_factory=Channel)
    enumerate: Channel = field(default_factory=Channel)

    def channel(self, name: str) -> Channel:
        if name not in OP_CLASSES:
            raise KeyError(name)
        return getattr(self, name)

    def reset(self) -> None:
        self.add.reset()
        self.contains.reset()
        self.enumerate.reset()
