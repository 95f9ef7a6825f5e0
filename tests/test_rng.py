"""Unit tests for repro.common.rng."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.rng import SplitMix64

U64 = st.integers(min_value=0, max_value=2**64 - 1)


def per_step_shuffle(rng: SplitMix64, seq: list) -> None:
    """Fisher-Yates with one ``next_u64`` call per swap: the reference
    model the vectorised :meth:`SplitMix64.shuffle` must reproduce."""
    for i in range(len(seq) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        seq[i], seq[j] = seq[j], seq[i]


class TestSplitMix64:
    def test_deterministic_stream(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]

    def test_different_seeds_differ(self):
        assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()

    def test_randint_bounds(self):
        rng = SplitMix64(7)
        values = [rng.randint(3, 9) for _ in range(500)]
        assert min(values) >= 3 and max(values) <= 9
        assert set(values) == set(range(3, 10))

    def test_randint_single_point(self):
        assert SplitMix64(1).randint(5, 5) == 5

    def test_randint_empty_range_raises(self):
        with pytest.raises(ValueError):
            SplitMix64(1).randint(5, 4)

    def test_random_unit_interval(self):
        rng = SplitMix64(3)
        for _ in range(200):
            assert 0.0 <= rng.random() < 1.0

    def test_chance_extremes(self):
        rng = SplitMix64(3)
        assert not any(rng.chance(0.0) for _ in range(50))
        assert all(rng.chance(1.0) for _ in range(50))

    def test_choice(self):
        rng = SplitMix64(5)
        seq = ["a", "b", "c"]
        assert {rng.choice(seq) for _ in range(100)} == set(seq)

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            SplitMix64(1).choice([])

    def test_shuffle_is_permutation(self):
        rng = SplitMix64(9)
        seq = list(range(30))
        shuffled = list(seq)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == seq
        assert shuffled != seq  # astronomically unlikely to be identity

    def test_fork_independence(self):
        parent = SplitMix64(11)
        child_a = parent.fork(1)
        # Drawing from child_a must not change what a fresh fork yields
        # from an identically advanced parent.
        parent2 = SplitMix64(11)
        _ = parent2.fork(1)
        for _ in range(100):
            child_a.next_u64()
        assert parent.next_u64() == parent2.next_u64()

    def test_fork_tags_differ(self):
        parent = SplitMix64(13)
        a = parent.fork(1)
        parent2 = SplitMix64(13)
        b = parent2.fork(2)
        assert a.next_u64() != b.next_u64()

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_next_u64_range(self, seed):
        assert 0 <= SplitMix64(seed).next_u64() < 2**64

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=-1000, max_value=1000),
        st.integers(min_value=0, max_value=1000),
    )
    def test_randint_property(self, seed, lo, span):
        value = SplitMix64(seed).randint(lo, lo + span)
        assert lo <= value <= lo + span

    @given(st.integers(min_value=0, max_value=2000), U64)
    def test_shuffle_matches_per_step_model(self, n, seed):
        fast, model = SplitMix64(seed), SplitMix64(seed)
        got, want = list(range(n)), list(range(n))
        fast.shuffle(got)
        per_step_shuffle(model, want)
        assert got == want
        assert fast._state == model._state
        assert fast.next_u64() == model.next_u64()
