"""Unit tests for repro.common.bits."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.branch.ittage import ITTAGE
from repro.branch.tage import TAGE, TageConfig
from repro.common.bits import (
    INSTR_BYTES,
    align_down,
    block_addr,
    block_offset,
    fold,
    fold_limbs,
    fold_pair_rows,
    line_addr,
    mask_limbs,
    mix64,
    target_hash,
    to_limbs,
    triple_limbs,
)

# Every history length a built-in predictor masks to: TAGE at each Fig 12
# budget under both history widths (260-bit THR, 280-bit direction), and
# ITTAGE at both widths.
PREDICTOR_LENGTHS = sorted(
    {
        length
        for bits in (260, 280)
        for kib in (9, 18, 36)
        for length in TAGE(TageConfig.for_budget_kib(kib, bits)).lengths
    }
    | {length for bits in (260, 280) for length in ITTAGE(max_history=bits).lengths}
)
LIMB_EDGES = [2**64 - 1, 2**64, 2**64 + 1, 2**128 - 1, 2**128, 2**128 + 1]
# 3v where a limb sums to all ones and takes a carry from the limb below,
# so the carry ripples on (random values almost never do this).
_FIVES = 0x5555555555555555
CARRY_RIPPLES = [(_FIVES << 64) | 0x6 << 60, (_FIVES << 128) | (_FIVES << 64) | 0x6 << 60]


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


def _limbs_of(values, width):
    return to_limbs(values, max(1, -(-width // 64)))


class TestBulkFold:
    """The bulk fold equals :func:`fold`, row for row."""

    @given(
        st.integers(min_value=0, max_value=600).flatmap(
            lambda width: st.tuples(
                st.just(width),
                st.lists(
                    st.integers(min_value=0, max_value=2**width - 1)
                    | st.sampled_from([v for v in LIMB_EDGES if v < 2**width] or [0]),
                    min_size=1,
                    max_size=6,
                ),
            )
        ),
        st.integers(min_value=0, max_value=640) | st.sampled_from(PREDICTOR_LENGTHS),
        st.integers(min_value=0, max_value=16),
    )
    @example((65, [2**64 - 1, 2**64]), 65, 16)
    @example((129, [2**128, 2**128 - 1]), 129, 11)
    @example((600, [2**600 - 1]), 600, 0)
    def test_masked_and_tripled_equal_scalar(self, width_values, length, out_bits):
        width, values = width_values
        mask = (1 << length) - 1
        masked = mask_limbs(_limbs_of(values, width), length)
        assert fold_limbs(masked, out_bits).tolist() == [fold(v & mask, out_bits) for v in values]
        assert fold_limbs(triple_limbs(masked), out_bits).tolist() == [
            fold((v & mask) * 3, out_bits) for v in values
        ]

    @pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 127, 128, 129, 256, 260])
    def test_limb_boundaries(self, length):
        values = LIMB_EDGES + CARRY_RIPPLES + [0, 2**192 - 1, 2**260 - 1]
        masked = mask_limbs(_limbs_of(values, 260), length)
        mask = (1 << length) - 1
        for out_bits in (0, 1, 9, 16, 64):
            assert fold_limbs(masked, out_bits).tolist() == [fold(v & mask, out_bits) for v in values]
            assert fold_limbs(triple_limbs(masked), out_bits).tolist() == [
                fold((v & mask) * 3, out_bits) for v in values
            ]

    @pytest.mark.parametrize(
        "predictor",
        [TAGE(TageConfig.for_budget_kib(kib, bits)) for kib in (9, 18, 36) for bits in (260, 280)]
        + [ITTAGE(entries, bits) for entries in (512, 2048) for bits in (260, 280)],
        ids=lambda p: f"{type(p).__name__}{getattr(p, 'lengths', '')}",
    )
    def test_pair_rows_match_predictor_geometry(self, predictor):
        import random

        rng = random.Random(5)
        values = [rng.getrandbits(280) for _ in range(64)] + LIMB_EDGES
        idx_bits = predictor._idx_bits
        tag_bits = predictor._tag_bits
        rows = fold_pair_rows(_limbs_of(values, 280), predictor.lengths, idx_bits, tag_bits)
        for v, row in zip(values, rows.tolist()):
            assert row == [
                f
                for mask in predictor._hist_masks
                for f in (fold(v & mask, idx_bits), fold((v & mask) * 3, tag_bits))
            ]

    def test_wider_than_64_bits_is_an_error(self):
        with pytest.raises(ValueError):
            fold_limbs(to_limbs([1], 1), 65)

    def test_empty_input(self):
        assert fold_limbs(to_limbs([], 3), 10).shape == (0,)
        assert fold_pair_rows(to_limbs([], 5), [4, 260], 10, 11).shape == (0, 4)


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
