"""Unit tests for repro.common.bits."""

from hypothesis import given
from hypothesis import strategies as st

from repro.common.bits import (
    INSTR_BYTES,
    align_down,
    block_addr,
    block_offset,
    fold,
    line_addr,
    mix64,
    target_hash,
)


class TestMix64:
    def test_deterministic(self):
        assert mix64(12345) == mix64(12345)

    def test_distinct_inputs_differ(self):
        assert mix64(1) != mix64(2)

    def test_fits_64_bits(self):
        assert 0 <= mix64(2**200) < 2**64

    @given(st.integers(min_value=0, max_value=2**256))
    def test_range_property(self, x):
        assert 0 <= mix64(x) < 2**64

    def test_zero(self):
        assert mix64(0) == 0


class TestFold:
    def test_zero_bits(self):
        assert fold(12345, 0) == 0

    def test_within_range(self):
        for bits in (1, 5, 10, 16):
            assert 0 <= fold(2**300 - 1, bits) < 2**bits

    def test_deterministic(self):
        assert fold(999, 10) == fold(999, 10)

    @given(st.integers(min_value=0, max_value=2**400), st.integers(min_value=1, max_value=32))
    def test_range(self, value, bits):
        assert 0 <= fold(value, bits) < 2**bits

    def test_long_values_spread(self):
        # Folding consecutive long histories should not collapse to a
        # single bucket.
        outs = {fold((1 << 200) + i, 10) for i in range(64)}
        assert len(outs) > 16

    @given(st.integers(min_value=2**256, max_value=2**600), st.integers(min_value=1, max_value=64))
    def test_equals_mix64_of_xor_fold(self, value, bits):
        # fold writes the SplitMix64 finalizer out inline; it must stay
        # mix64 of the value XOR-folded to 64 bits.
        v = value
        while v >= 2**64:
            v = (v % 2**64) ^ (v >> 64)
        assert fold(value, bits) == mix64(v) >> (64 - bits)


class TestAlignment:
    def test_align_down(self):
        assert align_down(0x1234, 16) == 0x1230
        assert align_down(0x1230, 16) == 0x1230

    def test_block_addr_default_32(self):
        assert block_addr(0x103C) == 0x1020

    def test_block_offset(self):
        assert block_offset(0x1020) == 0
        assert block_offset(0x1024) == 1
        assert block_offset(0x103C) == 7

    def test_line_addr(self):
        assert line_addr(0x10FF) == 0x10C0

    @given(st.integers(min_value=0, max_value=2**48))
    def test_block_contains_addr(self, addr):
        addr &= ~3
        base = block_addr(addr)
        assert base <= addr < base + 32
        assert block_offset(addr) == (addr - base) // INSTR_BYTES


class TestTargetHash:
    def test_matches_paper_equation(self):
        pc, target = 0x4000, 0x5008
        assert target_hash(pc, target) == (pc >> 2) ^ (target >> 3)

    def test_differs_by_target(self):
        assert target_hash(0x4000, 0x5000) != target_hash(0x4000, 0x6000)
