from __future__ import annotations

import random
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from graphstores import (
    ConfigError,
    MIN_CAPACITY,
    StoreConfig,
    ceil_pow2,
    compat_hash,
    mixer_hash,
    pack_edge,
)
from graphstores.core import compat_finalize_array, mixer_finalize_array

from _reference import (
    pack_by_arithmetic,
    pow2_at_least,
    reference_compat_hash,
    unpack_by_arithmetic,
)

U32_MAX = 2**32 - 1


class TestPacking:
    def test_all_zero(self):
        assert pack_edge(0, 0) == 0
        assert unpack_by_arithmetic(0) == (0, 0)

    def test_frozen_values(self):
        # expected values computed with the arbitrary-precision oracle
        assert pack_by_arithmetic(1, 2) == 4294967298
        assert pack_edge(1, 2) == 4294967298
        assert pack_by_arithmetic(5, 7) == 21474836487
        assert pack_edge(5, 7) == 21474836487
        assert unpack_by_arithmetic(4294967298) == (1, 2)

    def test_boundary_values(self):
        for x in (0, 1, U32_MAX):
            for y in (0, 1, U32_MAX):
                code = pack_edge(x, y)
                assert code == pack_by_arithmetic(x, y)
                assert unpack_by_arithmetic(code) == (x, y)

    def test_round_trip_random(self):
        rnd = random.Random(20_240_101)
        for _ in range(1000):
            x, y = rnd.randrange(2**32), rnd.randrange(2**32)
            code = pack_edge(x, y)
            assert unpack_by_arithmetic(code) == (x, y)

    @given(st.integers(0, U32_MAX), st.integers(0, U32_MAX))
    def test_round_trip_property(self, x, y):
        assert unpack_by_arithmetic(pack_edge(x, y)) == (x, y)

    @given(st.integers(0, U32_MAX), st.integers(0, U32_MAX),
           st.integers(0, U32_MAX), st.integers(0, U32_MAX))
    def test_injective(self, x, y, x2, y2):
        if pack_edge(x, y) == pack_edge(x2, y2):
            assert (x, y) == (x2, y2)


class TestCompatHash:
    def test_frozen_values(self):
        # zero-product case plus the two values frozen from the reference oracle
        for (x, y), expected in [((0, 333333), 0), ((1, 2), 74072), ((3, 4), 518506)]:
            assert reference_compat_hash(x, y, 1_000_000) == expected
            assert compat_hash(x, y, 1_000_000) == expected

    def test_pure_function(self):
        assert all(compat_hash(12, 34, 997) == compat_hash(12, 34, 997) for _ in range(10))

    def test_matches_reference_on_random_pairs(self):
        rnd = random.Random(7)
        for _ in range(10_000):
            x, y = rnd.randrange(2**32), rnd.randrange(2**32)
            size = rnd.randrange(1, 2**22)
            got = compat_hash(x, y, size)
            assert got == reference_compat_hash(x, y, size)
            assert 0 <= got < size

    def test_wraparound_region(self):
        # products beyond 2**63 must wrap exactly like signed 64-bit arithmetic
        x = y = U32_MAX
        assert compat_hash(x, y, 1_000_000) == reference_compat_hash(x, y, 1_000_000)

    def test_collides_along_offset_lines(self):
        # y = 333333 zeroes the product for every x: the reason mixer is the default
        assert {compat_hash(x, 333333, 1024) for x in range(50)} == {0}


def compat_keys(pairs) -> list[int]:
    """compat_finalize_array over packed pairs, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return compat_finalize_array([pack_edge(x, y) for x, y in pairs]).tolist()


class TestCompatKey:
    """Masked by a power-of-two size, the array key is compat_hash, bit for bit."""

    @given(st.lists(st.tuples(st.integers(0, U32_MAX), st.integers(0, U32_MAX)), min_size=1))
    def test_masks_to_compat_hash(self, pairs):
        for (x, y), key in zip(pairs, compat_keys(pairs)):
            for bits in range(64):
                assert key & ((1 << bits) - 1) == compat_hash(x, y, 1 << bits)

    def test_most_negative_product(self):
        # (2**32) * (2**31) wraps to -2**63: its absolute value reads as 2**63
        x, y = 2**32 - 111111, 2**31 + 333333
        assert compat_keys([(x, y)]) == [2**63]
        for bits in range(64):
            assert compat_hash(x, y, 1 << bits) == 0

    def test_zero_product(self):
        pairs = [(x, 333333) for x in (0, 1, 2**31, U32_MAX)]
        assert compat_keys(pairs) == [0] * 4
        assert {compat_hash(x, y, 1 << 63) for x, y in pairs} == {0}


class TestMixerHash:
    def test_range_tiny(self):
        assert 0 <= mixer_hash(0, 16) < 16

    def test_range_bulk(self):
        rnd = np.random.default_rng(3)
        codes = rnd.integers(0, 2**64, size=100_000, dtype=np.uint64)
        out = mixer_finalize_array(codes) & np.uint64((1 << 17) - 1)
        assert out.min() >= 0 and out.max() < (1 << 17)

    def test_vectorized_matches_scalar(self):
        rnd = random.Random(11)
        codes = [rnd.randrange(2**64) for _ in range(2000)]
        vec = mixer_finalize_array(np.array(codes, dtype=np.uint64)) & np.uint64(4096 - 1)
        assert [mixer_hash(c, 4096) for c in codes] == vec.tolist()

    def test_deterministic(self):
        assert mixer_hash(123456789, 1024) == mixer_hash(123456789, 1024)

    def test_chi_squared_uniformity(self):
        # 1e6 sequential codes over 2^10 buckets; deterministic, so this
        # either always passes or never does
        h = mixer_finalize_array(np.arange(1_000_000, dtype=np.uint64)) & np.uint64(1024 - 1)
        counts = np.bincount(h.astype(np.int64), minlength=1024)
        assert stats.chisquare(counts).pvalue > 0.001


class TestCeilPow2:
    @pytest.mark.parametrize("value", list(range(1, 300)) + [511, 512, 513, 4095, 4096, 4097])
    def test_matches_doubling_oracle(self, value):
        assert ceil_pow2(value) == pow2_at_least(value)


class TestStoreConfig:
    def test_capacity_examples(self):
        assert StoreConfig(vertex_count=10, expected_edges=100).initial_capacity == 256
        assert StoreConfig(vertex_count=10, expected_edges=1).initial_capacity == MIN_CAPACITY
        assert StoreConfig(vertex_count=5, expected_edges=8).initial_capacity == 16

    def test_capacity_rule_random(self):
        rnd = random.Random(5)
        for _ in range(200):
            edges = rnd.randrange(1, 100_000)
            cfg = StoreConfig(vertex_count=10, expected_edges=edges)
            needed = -(-edges * 2 // 1)  # ceil(edges / (1/2))
            assert cfg.initial_capacity == max(MIN_CAPACITY, pow2_at_least(needed))
            assert cfg.initial_capacity >= 2 * edges

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(vertex_count=0, expected_edges=1),
            dict(vertex_count=1, expected_edges=0),
            dict(vertex_count=(1 << 32) + 1, expected_edges=1),
            dict(vertex_count=1, expected_edges=-1),
            dict(vertex_count=-5, expected_edges=1),
            dict(vertex_count=1, expected_edges=1, hash_mode="md5"),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            StoreConfig(**kwargs)

    def test_growth_limit(self):
        cfg = StoreConfig(vertex_count=4, expected_edges=4)
        assert cfg.growth_limit(16) == 11  # floor(0.7 * 16)
        assert cfg.growth_limit(1024) == 716
