"""Tests for the MSHR file (repro.memory.mshr)."""

import pytest

from repro.memory.mshr import NO_FILL, MSHRFile


class TestAllocate:
    def test_basic_allocation(self):
        m = MSHRFile(2)
        entry = m.allocate(0x1000, issue_cycle=1, ready_cycle=10, is_prefetch=False)
        assert entry is not None
        assert len(m) == 1
        assert m.allocations == 1

    def test_merge_same_line(self):
        m = MSHRFile(2)
        first = m.allocate(0x1000, 1, 10, False)
        second = m.allocate(0x1000, 2, 99, False, waiter="w")
        assert second is first
        assert len(m) == 1
        assert m.merges == 1
        assert second.ready_cycle == 10  # original timing preserved
        assert "w" in second.waiters

    def test_demand_merge_promotes_prefetch(self):
        m = MSHRFile(2)
        m.allocate(0x1000, 1, 10, is_prefetch=True)
        entry = m.allocate(0x1000, 2, 10, is_prefetch=False)
        assert not entry.is_prefetch

    def test_prefetch_merge_does_not_demote(self):
        m = MSHRFile(2)
        m.allocate(0x1000, 1, 10, is_prefetch=False)
        entry = m.allocate(0x1000, 2, 10, is_prefetch=True)
        assert not entry.is_prefetch

    def test_full_rejection(self):
        m = MSHRFile(1)
        m.allocate(0x1000, 1, 10, False)
        assert m.full
        assert m.allocate(0x2000, 1, 10, False) is None
        assert m.rejections == 1

    def test_full_still_merges(self):
        m = MSHRFile(1)
        m.allocate(0x1000, 1, 10, False)
        assert m.allocate(0x1000, 2, 10, False) is not None

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            MSHRFile(0)


class TestPopReady:
    def test_pops_due_entries_in_order(self):
        m = MSHRFile(4)
        m.allocate(0xA000, 0, 20, False)
        m.allocate(0xB000, 0, 10, False)
        m.allocate(0xC000, 0, 30, False)
        ready = m.pop_ready(25)
        assert [e.line for e in ready] == [0xB000, 0xA000]
        assert len(m) == 1

    def test_nothing_due(self):
        m = MSHRFile(2)
        m.allocate(0xA000, 0, 20, False)
        assert m.pop_ready(5) == []

    def test_lookup(self):
        m = MSHRFile(2)
        m.allocate(0xA000, 0, 20, False)
        assert m.lookup(0xA000) is not None
        assert m.lookup(0xB000) is None


class TestFlush:
    def test_flush_waiters_keeps_fills(self):
        m = MSHRFile(2)
        m.allocate(0xA000, 0, 20, False, waiter="x")
        m.flush_waiters()
        entry = m.lookup(0xA000)
        assert entry is not None and entry.waiters == []

    def test_reset_stats(self):
        m = MSHRFile(2)
        m.allocate(0xA000, 0, 20, False)
        m.allocate(0xA000, 0, 20, False)
        m.reset_stats()
        assert m.allocations == 0 and m.merges == 0


class TestNextReady:
    """``next_ready``: the earliest ready cycle of the outstanding fills."""

    def test_empty_file_has_no_fill(self):
        m = MSHRFile(2)
        assert m.next_ready == NO_FILL
        assert m.pop_ready(10**9) == []
        assert m.validate() == []

    def test_allocate_keeps_the_earliest(self):
        m = MSHRFile(4)
        m.allocate(0xA000, 0, 20, False)
        assert m.next_ready == 20
        m.allocate(0xB000, 1, 30, True)
        assert m.next_ready == 20
        m.allocate(0xC000, 2, 12, False)
        assert m.next_ready == 12
        assert m.validate() == []

    def test_merge_and_reject_leave_it(self):
        m = MSHRFile(1)
        m.allocate(0xA000, 0, 20, True)
        # A merge keeps the outstanding fill's timing ...
        m.allocate(0xA000, 5, 8, False, waiter="w")
        assert m.next_ready == 20
        # ... and a rejected request allocates nothing.
        assert m.allocate(0xB000, 5, 9, False) is None
        assert m.next_ready == 20
        assert m.validate() == []

    def test_pop_ready_moves_it_to_the_next_fill(self):
        m = MSHRFile(4)
        m.allocate(0xA000, 0, 20, False)
        m.allocate(0xB000, 0, 10, False)
        m.allocate(0xC000, 0, 30, False)
        assert m.pop_ready(9) == []
        assert m.next_ready == 10
        assert [e.line for e in m.pop_ready(20)] == [0xB000, 0xA000]
        assert m.next_ready == 30
        assert [e.line for e in m.pop_ready(30)] == [0xC000]
        assert m.next_ready == NO_FILL
        assert m.validate() == []

    def test_flush_waiters_leaves_it(self):
        m = MSHRFile(2)
        m.allocate(0xA000, 0, 20, False, waiter="x")
        m.flush_waiters()
        assert m.next_ready == 20
        assert [e.line for e in m.pop_ready(20)] == [0xA000]

    def test_validate_reports_a_stale_value(self):
        m = MSHRFile(2)
        m.allocate(0xA000, 0, 20, False)
        m.next_ready = 25  # later than the fill: the fill stage would miss it
        assert any("next_ready 25" in p and "due at 20" in p for p in m.validate())
        m.next_ready = 15  # earlier: a fill stage that finds nothing due
        assert any("next_ready 15" in p for p in m.validate())
        m.pop_ready(20)
        m.next_ready = 20  # stale once the file is empty
        assert m.validate()
