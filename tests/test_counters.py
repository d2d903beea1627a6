"""Channel and OpCounters on their own, apart from any store."""

from __future__ import annotations

import pytest

from graphstores import Channel, OpCounters


def test_record_sums_cost_and_keeps_peak():
    ch = Channel()
    for cost in (3, 1, 7, 2):
        ch.record(cost)
    assert (ch.ops, ch.total, ch.peak) == (4, 13, 7)
    assert ch.mean == 13 / 4


def test_record_batch_adds_to_record():
    ch = Channel()
    ch.record(5)
    ch.record_batch(3, 6, 4)
    assert (ch.ops, ch.total, ch.peak) == (4, 11, 5)
    ch.record_batch(2, 9, 8)
    assert (ch.ops, ch.total, ch.peak) == (6, 20, 8)


def test_empty_batch_changes_nothing():
    ch = Channel()
    ch.record(2)
    ch.record_batch(0, 0, 0)
    assert (ch.ops, ch.total, ch.peak) == (1, 2, 2)


def test_mean_is_zero_without_ops():
    assert Channel().mean == 0.0


def test_reset_clears_every_field():
    ch = Channel()
    ch.record(9)
    ch.record_batch(2, 3, 2)
    ch.reset()
    assert (ch.ops, ch.total, ch.peak) == (0, 0, 0)
    ch.record(1)
    assert (ch.ops, ch.total, ch.peak) == (1, 1, 1)


@pytest.mark.parametrize("name", ["record_probes", "record_traversals"])
def test_unit_names_record_as_record(name):
    costs = [0, 4, 2, 11, 11, 1]
    by_name, plain = Channel(), Channel()
    for cost in costs:
        getattr(by_name, name)(cost)
        plain.record(cost)
    assert (by_name.ops, by_name.total, by_name.peak) == (plain.ops, plain.total, plain.peak)
    assert (plain.ops, plain.total, plain.peak) == (6, 29, 11)


def test_op_counters_channels_and_reset():
    c = OpCounters()
    c.channel("add").record(2)
    c.channel("contains").record(3)
    c.channel("enumerate").record(5)
    assert [(ch.ops, ch.total, ch.peak) for ch in (c.add, c.contains, c.enumerate)] == [
        (1, 2, 2), (1, 3, 3), (1, 5, 5)]
    with pytest.raises(KeyError):
        c.channel("probes")
    c.reset()
    assert all(ch.ops == ch.total == ch.peak == 0 for ch in (c.add, c.contains, c.enumerate))
