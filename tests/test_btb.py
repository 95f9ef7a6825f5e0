"""Tests for the Branch Target Buffer (repro.branch.btb)."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.branch.btb import BTB, BTBEntry
from repro.branch.btb2l import TwoLevelBTB
from repro.isa.instructions import BranchKind


class TestGeometry:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            BTB(100, 3)
        with pytest.raises(ValueError):
            BTB(0, 1)

    def test_set_count(self):
        assert BTB(1024, 4).n_sets == 256


class TestLookupInsert:
    def test_miss_then_hit(self):
        btb = BTB(64, 4)
        assert btb.scan_block(0x4000, 0x4000) == []
        btb.insert(0x4000, BranchKind.UNCOND_DIRECT, 0x5000)
        [entry] = btb.scan_block(0x4000, 0x4000)
        assert entry.target == 0x5000

    def test_update_in_place(self):
        btb = BTB(64, 4)
        btb.insert(0x4000, BranchKind.INDIRECT, 0x5000)
        btb.insert(0x4000, BranchKind.INDIRECT, 0x6000)
        [entry] = btb.scan_block(0x4000, 0x4000)
        assert entry.target == 0x6000
        assert btb.occupancy == 1

    def test_rejects_non_branch(self):
        with pytest.raises(ValueError):
            BTB(64, 4).insert(0x4000, BranchKind.NONE, 0)

    def test_contains_is_silent(self):
        btb = BTB(8, 2)  # 4 sets
        span = btb.n_sets * 16
        btb.insert(0x4000, BranchKind.RETURN, 0)
        btb.insert(0x4000 + span, BranchKind.RETURN, 0)
        order = [e.addr for e in btb._sets[btb._set_index(0x4000)]]
        assert btb.contains(0x4000)
        assert not btb.contains(0x4004)
        assert [e.addr for e in btb._sets[btb._set_index(0x4000)]] == order


class TestSetMapping:
    def test_same_16b_chunk_same_set(self):
        btb = BTB(64, 4)
        # Branches at 0x4000 and 0x400C share the 16B chunk -> same set.
        assert btb._set_index(0x4000) == btb._set_index(0x400C)
        assert btb._set_index(0x4000) != btb._set_index(0x4010)

    def test_lru_eviction_within_set(self):
        btb = BTB(8, 2)  # 4 sets
        span = btb.n_sets * 16
        a, b, c = 0x4000, 0x4000 + span, 0x4000 + 2 * span
        btb.insert(a, BranchKind.UNCOND_DIRECT, 0x100)
        btb.insert(b, BranchKind.UNCOND_DIRECT, 0x100)
        btb.scan_block(a, a)  # a MRU
        btb.insert(c, BranchKind.UNCOND_DIRECT, 0x100)  # evicts b
        assert btb.contains(a) and btb.contains(c)
        assert not btb.contains(b)


class TestScanBlock:
    def test_finds_branches_in_range_sorted(self):
        btb = BTB(256, 4)
        btb.insert(0x4008, BranchKind.COND_DIRECT, 0x100)
        btb.insert(0x4010, BranchKind.RETURN, 0)
        btb.insert(0x4030, BranchKind.CALL_DIRECT, 0x200)  # outside 32B block
        found = btb.scan_block(0x4000, 0x401C)
        assert [e.addr for e in found] == [0x4008, 0x4010]

    def test_respects_start_offset(self):
        btb = BTB(256, 4)
        btb.insert(0x4004, BranchKind.COND_DIRECT, 0x100)
        found = btb.scan_block(0x4008, 0x401C)
        assert found == []

    def test_scan_promotes_mru(self):
        btb = BTB(8, 2)
        span = btb.n_sets * 16
        a, b = 0x4000, 0x4000 + span
        btb.insert(a, BranchKind.UNCOND_DIRECT, 0x100)
        btb.insert(b, BranchKind.UNCOND_DIRECT, 0x100)
        btb.scan_block(a, a + 12)  # touches a
        btb.insert(0x4000 + 2 * span, BranchKind.UNCOND_DIRECT, 0x100)
        assert btb.contains(a)

    def test_empty_scan(self):
        assert BTB(64, 4).scan_block(0x4000, 0x401C) == []


class TestInvalidate:
    def test_invalidate(self):
        btb = BTB(64, 4)
        btb.insert(0x4000, BranchKind.RETURN, 0)
        assert btb.invalidate(0x4000)
        assert not btb.contains(0x4000)
        assert not btb.invalidate(0x4000)


class TestValidate:
    def _filled(self):
        btb = BTB(16, 4)  # 4 sets; chunk 0x400 holds three entries
        for addr in (0x4000, 0x4004, 0x400C, 0x4010, 0x4040):
            btb.insert(addr, BranchKind.UNCOND_DIRECT, 0x100)
        return btb

    def test_clean(self):
        assert self._filled().validate() == []

    def test_index_missing_an_entry(self):
        btb = self._filled()
        del btb._chunk_index[0x4010 >> 4]
        assert any("chunk index holds" in p for p in btb.validate())

    def test_index_out_of_order(self):
        btb = self._filled()
        btb._chunk_index[0x4000 >> 4].reverse()
        assert any("not strictly address-sorted" in p for p in btb.validate())

    def test_index_holds_stale_copy(self):
        btb = self._filled()
        held = btb._chunk_index[0x4040 >> 4]
        held[0] = BTBEntry(held[0].addr, held[0].kind, held[0].target)
        assert any("that no set holds" in p for p in btb.validate())

    def test_index_keeps_empty_chunk(self):
        btb = self._filled()
        btb._chunk_index[0x9990 >> 4] = []
        assert any("empty chunk" in p for p in btb.validate())

    def test_overfull_set_and_duplicate(self):
        btb = self._filled()
        ways = btb._sets[btb._set_index(0x4000)]
        ways.append(ways[0])
        problems = btb.validate()
        assert any("associativity 4" in p for p in problems)
        assert any("twice" in p for p in problems)

    def test_two_level_names_the_level(self):
        btb = TwoLevelBTB(8, 2, 64, 4)
        btb.insert(0x4000, BranchKind.UNCOND_DIRECT, 0x100)
        assert btb.validate() == []
        btb.l2._chunk_index.clear()
        assert btb.validate() and all(p.startswith("L2 BTB") for p in btb.validate())


# ----------------------------------------------------------------------
# Differential test against the set-walking BTB the chunk index replaced
# ----------------------------------------------------------------------
class SetWalkBTB:
    """Reference model: the BTB as it was before the chunk index.

    Same geometry and replacement; ``scan_block`` walks
    every set the block's chunks map to (each once), filters by
    address and sorts, and ``contains`` walks the set.  Set indexing is
    always the ``%`` form.
    """

    def __init__(self, n_entries, assoc):
        self.n_entries = n_entries
        self.assoc = assoc
        self.n_sets = n_entries // assoc
        self._sets = [[] for _ in range(self.n_sets)]

    def _set_index(self, addr):
        return (addr // 16) % self.n_sets

    def scan_block(self, start, end):
        found = []
        chunk = start & ~15
        seen_sets = []
        while chunk <= end:
            set_idx = self._set_index(chunk)
            if set_idx not in seen_sets:
                seen_sets.append(set_idx)
                found += [e for e in self._sets[set_idx] if start <= e.addr <= end]
            chunk += 16
        if found:
            found.sort(key=lambda e: e.addr)
            for entry in found:
                ways = self._sets[self._set_index(entry.addr)]
                if ways[0] is not entry:
                    ways.remove(entry)
                    ways.insert(0, entry)
        return found

    def contains(self, addr):
        return any(e.addr == addr for e in self._sets[self._set_index(addr)])

    def was_l2_sourced(self, addr):
        return False

    def insert(self, addr, kind, target):
        ways = self._sets[self._set_index(addr)]
        for i, entry in enumerate(ways):
            if entry.addr == addr:
                entry.kind = kind
                entry.target = target
                if i:
                    ways.remove(entry)
                    ways.insert(0, entry)
                return
        if len(ways) >= self.assoc:
            ways.pop()
        ways.insert(0, BTBEntry(addr, kind, target))

    def invalidate(self, addr):
        ways = self._sets[self._set_index(addr)]
        for entry in ways:
            if entry.addr == addr:
                ways.remove(entry)
                return True
        return False

    @property
    def occupancy(self):
        return sum(len(ways) for ways in self._sets)


def reference_two_level(l1_entries, l1_assoc, l2_entries, l2_assoc):
    ref = TwoLevelBTB(l1_entries, l1_assoc, l2_entries, l2_assoc)
    ref.l1 = SetWalkBTB(l1_entries, l1_assoc)
    ref.l2 = SetWalkBTB(l2_entries, l2_assoc)
    return ref


SET_COUNTS = (1, 2, 3, 4, 96, 2048)
KINDS = [kind for kind in BranchKind if kind is not BranchKind.NONE]


@st.composite
def op_sequences(draw, n_sets):
    """Ops over a small pool of addresses in a few chunks, each chunk
    one of a few neighbours aliased ``n_sets`` chunks apart, so chunks
    hold several branches and sets fill, evict and share."""
    base = draw(st.integers(0, 64)) + 0x400
    chunk = st.builds(lambda c, k: base + c + n_sets * k, st.integers(0, 3), st.integers(0, 9))
    chunks = draw(st.lists(chunk, min_size=1, max_size=10, unique=True))
    slot_addr = st.builds(
        lambda ch, slot: (ch << 4) + 4 * slot, st.sampled_from(chunks), st.integers(0, 3)
    )
    pool = draw(st.lists(slot_addr, min_size=1, max_size=24, unique=True))
    addr = st.sampled_from(pool)
    op = st.one_of(
        st.tuples(st.just("insert"), addr, st.sampled_from(KINDS), st.integers(0, 2**20)),
        st.tuples(st.just("scan"), addr, st.sampled_from((16, 32, 64))),
        st.tuples(st.just("contains"), addr),
        st.tuples(st.just("invalidate"), addr),
    )
    return draw(st.lists(op, min_size=1, max_size=80))


def _apply(btb, op):
    name = op[0]
    if name == "insert":
        btb.insert(op[1], op[2], op[3])
        return None
    if name == "scan":
        start, block = op[1], op[2]
        end = (start & ~(block - 1)) + block - 4
        return [(e.addr, e.kind, e.target) for e in btb.scan_block(start, end)]
    if name == "contains":
        return btb.contains(op[1])
    return btb.invalidate(op[1])


def _state(btb):
    return ([[e.addr for e in ways] for ways in btb._sets], btb.occupancy)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_matches_set_walking_reference(data):
    n_sets = data.draw(st.sampled_from(SET_COUNTS), label="n_sets")
    assoc = data.draw(st.integers(1, 8), label="assoc")
    btb, ref = BTB(n_sets * assoc, assoc), SetWalkBTB(n_sets * assoc, assoc)
    for op in data.draw(op_sequences(n_sets), label="ops"):
        assert _apply(btb, op) == _apply(ref, op), op
        if n_sets < 2048:
            assert _state(btb) == _state(ref), op
    assert _state(btb) == _state(ref)
    assert btb.validate() == []


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_two_level_matches_set_walking_reference(data):
    l1_sets = data.draw(st.sampled_from((1, 2, 3, 4)), label="l1_sets")
    l1_assoc = data.draw(st.integers(1, 4), label="l1_assoc")
    l2_sets = data.draw(st.sampled_from((4, 96, 2048)), label="l2_sets")
    l2_assoc = data.draw(st.integers(1, 8), label="l2_assoc")
    assume(l1_sets * l1_assoc < l2_sets * l2_assoc)
    geometry = (l1_sets * l1_assoc, l1_assoc, l2_sets * l2_assoc, l2_assoc)
    btb, ref = TwoLevelBTB(*geometry), reference_two_level(*geometry)
    for op in data.draw(op_sequences(l1_sets), label="ops"):
        assert _apply(btb, op) == _apply(ref, op), op
        assert btb._l2_sourced == ref._l2_sourced, op
        assert _state(btb.l1) == _state(ref.l1), op
    assert _state(btb.l2) == _state(ref.l2)
    assert btb.validate() == []
