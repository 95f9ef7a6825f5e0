"""ITTAGE-style indirect target predictor (Seznec, CBP-3).

Predicts the target of register-indirect branches and calls: a base
table keyed by PC holding the last target, plus tagged tables indexed
with increasing history lengths that capture correlated target
sequences (e.g. round-robin dispatch).  The BTB supplies a fallback
target when ITTAGE has nothing.

Each lookup fetches the folds of the history once for all tagged
tables (:meth:`ITTAGE._folds`) and ``update`` reuses them for its
re-prediction, provider walk and allocation.  Like TAGE, ITTAGE reads
the folds of the stream's committed-path histories from bulk rows
(:meth:`ITTAGE.use_arch_histories`), and every other history's from
the stream's fold store for its geometry
(:meth:`ITTAGE.use_fold_store`), which folds each of them once per
trace and keeps the row.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass

from repro.branch.tage import FOLD_STORE_MAX
from repro.common.bits import fold, mix64, row_typecode

_CONF_MAX = 3


@dataclass(slots=True)
class _Entry:
    tag: int
    target: int
    confidence: int
    useful: int


class ITTAGE:
    """Indirect target predictor with a base table + 3 tagged tables."""

    N_TAGGED = 3
    TAG_BITS = 11

    def __init__(self, n_entries: int = 2048, max_history: int = 260) -> None:
        if n_entries <= 0 or n_entries & (n_entries - 1):
            raise ValueError("n_entries must be a positive power of two")
        self.n_entries = n_entries
        per_table = max(n_entries // (self.N_TAGGED + 1), 1)
        self._table_size = per_table
        self._idx_bits = max(per_table.bit_length() - 1, 1)
        self._base: dict[int, int] = {}
        self._base_capacity = per_table
        self._tables: list[dict[int, _Entry]] = [dict() for _ in range(self.N_TAGGED)]
        self.lengths = [max_history // 16, max_history // 4, max_history]
        self._hist_masks = [(1 << length) - 1 for length in self.lengths]
        self._tag_bits = self.TAG_BITS
        self._tag_mask = (1 << self.TAG_BITS) - 1
        self._arch_index: dict[int, int] = {}
        self._arch_rows = None
        self._fold_store: dict[int, array] = {}
        self._fold_code = row_typecode(self._idx_bits, self._tag_bits)
        self.predictions = 0
        self.updates = 0

    def use_arch_histories(self, arch) -> None:
        """Serve the folds of ``arch``'s histories from its bulk rows
        (see :meth:`repro.branch.tage.TAGE.use_arch_histories`)."""
        self._arch_index = arch.index
        self._arch_rows = arch.fold_rows(self.lengths, self._idx_bits, self._tag_bits)

    def use_fold_store(self, meta) -> None:
        """Keep software folds in the stream's fold store for this
        geometry (see :meth:`repro.branch.tage.TAGE.use_fold_store`)."""
        self._fold_store = meta.fold_store(self.lengths, self._idx_bits, self._tag_bits)

    def _folds(self, hist: int) -> Sequence[int]:
        """Per-table ``(index_fold, tag_fold)`` of the masked history,
        flattened and looked up as in :meth:`repro.branch.tage.TAGE._folds`."""
        row = self._arch_index.get(hist)
        if row is not None:
            return self._arch_rows[row].tolist()
        store = self._fold_store
        folds = store.get(hist)
        if folds is None:
            if len(store) >= FOLD_STORE_MAX:
                store.clear()
            folds = store[hist] = array(self._fold_code, self._scalar_folds(hist))
        return folds

    def _scalar_folds(self, hist: int) -> list[int]:
        """:meth:`_folds` by :func:`~repro.common.bits.fold`, table by table."""
        idx_bits = self._idx_bits
        tag_bits = self._tag_bits
        folds: list[int] = []
        for mask in self._hist_masks:
            masked = hist & mask
            folds += (fold(masked, idx_bits), fold(masked * 3, tag_bits))
        return folds

    def _index_and_tag(self, table: int, pc: int, folds) -> tuple[int, int]:
        pc_mix = mix64(pc >> 2) ^ (table * 0x85EBCA6B)
        idx = (folds[2 * table] ^ pc_mix) & (self._table_size - 1)
        tag = (folds[2 * table + 1] ^ (pc_mix >> 17)) & self._tag_mask
        return idx, tag

    def predict(self, pc: int, hist: int) -> int | None:
        """Return the predicted target, or None if nothing is known."""
        self.predictions += 1
        return self._lookup(pc, self._folds(hist))

    def _lookup(self, pc: int, folds) -> int | None:
        for table in range(self.N_TAGGED - 1, -1, -1):
            idx, tag = self._index_and_tag(table, pc, folds)
            entry = self._tables[table].get(idx)
            if entry is not None and entry.tag == tag:
                return entry.target
        return self._base.get(pc)

    def update(self, pc: int, hist: int, target: int) -> None:
        """Train with the resolved indirect target."""
        self.updates += 1
        folds = self._folds(hist)
        predicted = self._lookup(pc, folds)
        # Base table: always track the last target (bounded FIFO-ish).
        if pc not in self._base and len(self._base) >= self._base_capacity:
            self._base.pop(next(iter(self._base)))
        self._base[pc] = target

        # Find the provider and strengthen/correct it.
        provider_table = -1
        for table in range(self.N_TAGGED - 1, -1, -1):
            idx, tag = self._index_and_tag(table, pc, folds)
            entry = self._tables[table].get(idx)
            if entry is not None and entry.tag == tag:
                provider_table = table
                if entry.target == target:
                    entry.confidence = min(_CONF_MAX, entry.confidence + 1)
                    entry.useful = min(_CONF_MAX, entry.useful + 1)
                else:
                    if entry.confidence > 0:
                        entry.confidence -= 1
                    else:
                        entry.target = target
                        entry.confidence = 1
                break

        if predicted != target and provider_table < self.N_TAGGED - 1:
            self._allocate(pc, folds, target, provider_table + 1)

    def _allocate(self, pc: int, folds, target: int, start_table: int) -> None:
        for table in range(start_table, self.N_TAGGED):
            idx, tag = self._index_and_tag(table, pc, folds)
            entry = self._tables[table].get(idx)
            if entry is None or entry.useful == 0:
                self._tables[table][idx] = _Entry(tag=tag, target=target, confidence=1, useful=0)
                return
            entry.useful -= 1

    def storage_bits(self) -> int:
        """Approximate budget: 48b target + tag + 4b state per entry."""
        per_entry = 48 + self.TAG_BITS + 4
        return (self._base_capacity + self.N_TAGGED * self._table_size) * per_entry
