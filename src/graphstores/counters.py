"""Operation-cost counters attached to every store.

Each operation class (add / contains / enumerate) gets its own channel so
reports can separate insertion cost from query cost. A channel holds one
cost/peak pair: ``total`` sums the cost of its operations and ``peak`` is
the largest single cost. Hash-backed lookups cost slot *probes* and list
walks cost node *traversals*; a channel only ever records one of the two,
so its unit is that of the store and operation class. A successful insert
counts the cell or slot it writes, so the cheapest possible add costs 1.

The stores' scalar calls update a channel's fields inline rather than
calling ``record``, to save a Python call per operation; ``record`` and
``record_batch`` stay the public way to record.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class Channel:
    """Monotone counters for one operation class; reset() starts a new phase."""

    ops: int = 0
    total: int = 0
    peak: int = 0

    def record(self, count: int) -> None:
        """Record one operation of cost ``count``."""
        self.ops += 1
        self.total += count
        if count > self.peak:
            self.peak = count

    def record_batch(self, ops: int, total: int, peak: int) -> None:
        """Record ``ops`` operations at once: ``total`` cost in all, the largest ``peak``."""
        self.ops += ops
        self.total += total
        if peak > self.peak:
            self.peak = peak

    # Names kept for callers that record by unit; both are ``record``.
    record_probes = record
    record_traversals = record

    @property
    def mean(self) -> float:
        return self.total / self.ops if self.ops else 0.0

    def reset(self) -> None:
        self.ops = 0
        self.total = 0
        self.peak = 0


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
