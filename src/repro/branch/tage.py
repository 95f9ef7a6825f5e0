"""TAGE conditional direction predictor (Seznec, CBP).

A bimodal base table plus ``n_tables`` partially-tagged tables indexed
with geometrically increasing history lengths.  The paper's baseline is
an 18KB TAGE with 260-bit taken-only target history; Fig 12 sweeps
9/18/36KB.

Simulation notes:

* History is the :mod:`repro.branch.history` int; per-table indices and
  tags are hashes of (pc, masked history).  The folds of a history are
  one flat row, table ``t``'s ``(index, tag)`` pair at ``[2t]`` and
  ``[2t + 1]``.
* :meth:`TAGE._folds` reads a history's row from the fold rows of the
  stream's committed-path histories first
  (:class:`repro.trace.fbmeta.ArchHistories`, attached by
  :meth:`TAGE.use_arch_histories`), folded in bulk once per trace.
  Under THR and Ideal they hold every history commit training passes
  in and every correct-path history the frontend predicts with.
* Every other history (a wrong-path history, or any direction history
  of GHR0-3) is folded in software once per trace and geometry: the
  stream's fold store (:meth:`repro.trace.fbmeta.StreamMeta.fold_store`,
  attached by :meth:`TAGE.use_fold_store`) keeps its row, and every
  TAGE of the geometry on the stream reads it from there.  A fold
  depends on the history and the geometry alone, so sharing rows
  cannot change a result, and the same wrong paths recur on every
  simulation of a trace.  A stored row is an ``array`` of the folds:
  compact, and invisible to the cyclic GC.  At most
  :data:`FOLD_STORE_MAX` rows are kept per store.
* For the software folds, each table whose history fits in
  :data:`_MEMO_MAX_BITS` bits also memoises its ``(index, tag)`` fold
  pair by masked history.  A short table sees few distinct masked
  histories (at most ``2**length``, so the memo is bounded by
  construction) and its memo mostly hits: 99.8%, 98% and 65% of
  lookups for the 4-, 7- and 13-bit tables of the paper's geometry
  on ``srv_web``.  The long tables' masked histories rarely repeat,
  so they fold directly and hold no memo.
* ``predict`` is pure; ``update`` recomputes the provider from the
  history captured at prediction time (the caller passes the same
  history value), which keeps speculative prediction and commit-time
  training decoupled, as in the simulated machine.
* Each call fetches its folds once and walks the tables once
  (:meth:`TAGE._lookup`); ``update`` hands the same folds to
  allocation.  The update rules live in :meth:`TAGE._train` alone.
* Under THR and Ideal the training depends on the trace alone, so it
  runs once per (stream, policy, geometry): a :class:`TageRecord`
  keeps the writes of every update, and what the walk before each
  update predicted and which earlier update it depends on.  A TAGE
  bound to it (:meth:`TAGE.bind_record`) trains by applying those
  writes, and the typed kernel answers on-path lookups from it; wrong
  paths, PFC hints, the GHR policies and the reference kernel walk the
  tables as above.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass

from repro.common.bits import fold, mix64, row_typecode
from repro.isa.instructions import BranchKind

_CTR_MAX = 3  # 3-bit signed counter in [-4, 3]
_CTR_MIN = -4
_U_MAX = 3
_MEMO_MAX_BITS = 16
"""Longest table history whose fold pairs are memoised per table."""
FOLD_STORE_MAX = 8192
"""Most rows one fold store keeps; a full store starts over empty."""
NEVER = 2**31 - 1
"""``TageRecord.last_writer`` of a branch the record does not serve."""


@dataclass(frozen=True)
class TageConfig:
    """Geometry of a TAGE instance."""

    n_tables: int
    table_entries: int
    bimodal_entries: int
    tag_bits: int
    min_history: int
    max_history: int
    u_reset_period: int = 512 * 1024

    def __post_init__(self) -> None:
        if self.n_tables < 1:
            raise ValueError("need at least one tagged table")
        for n in (self.table_entries, self.bimodal_entries):
            if n <= 0 or n & (n - 1):
                raise ValueError("table sizes must be powers of two")
        if not 1 <= self.min_history < self.max_history:
            raise ValueError("history lengths must satisfy 1 <= min < max")

    def history_lengths(self) -> list[int]:
        """Geometric series from min_history to max_history."""
        if self.n_tables == 1:
            return [self.max_history]
        ratio = (self.max_history / self.min_history) ** (1.0 / (self.n_tables - 1))
        lengths = []
        for i in range(self.n_tables):
            length = int(round(self.min_history * ratio**i))
            if lengths and length <= lengths[-1]:
                length = lengths[-1] + 1
            lengths.append(length)
        lengths[-1] = self.max_history
        return lengths

    def storage_bits(self) -> int:
        """Approximate storage: ctr(3)+u(2)+tag per tagged entry, 2b bimodal."""
        tagged = self.n_tables * self.table_entries * (3 + 2 + self.tag_bits)
        return tagged + 2 * self.bimodal_entries

    @classmethod
    def for_budget_kib(cls, kib: int, max_history: int = 260) -> "TageConfig":
        """Standard sizings used in the evaluation (Fig 12)."""
        if kib <= 9:
            return cls(8, 512, 4096, 10, 4, max_history)
        if kib <= 18:
            return cls(8, 1024, 8192, 10, 4, max_history)
        return cls(8, 2048, 16384, 11, 4, max_history)


class TAGE:
    """The predictor proper."""

    __slots__ = (
        "config",
        "lengths",
        "_hist_masks",
        "_idx_bits",
        "_idx_mask",
        "_tag_bits",
        "_tag_mask",
        "_ctr",
        "_tag",
        "_u",
        "_bimodal",
        "_bimodal_mask",
        "_use_alt_on_na",
        "_tick",
        "_fold_store",
        "_fold_code",
        "_fold_plan",
        "_arch_index",
        "_arch_rows",
        "_pc_mix_cache",
        "_table_salts",
        "_replay",
        "record",
        "predictions",
        "updates",
        "allocations",
    )

    def __init__(self, config: TageConfig) -> None:
        self.config = config
        self.lengths = config.history_lengths()
        self._hist_masks = [(1 << length) - 1 for length in self.lengths]
        self._idx_bits = config.table_entries.bit_length() - 1
        self._idx_mask = config.table_entries - 1
        self._tag_bits = config.tag_bits
        self._tag_mask = (1 << config.tag_bits) - 1
        n = config.n_tables
        size = config.table_entries
        self._ctr = [[0] * size for _ in range(n)]
        self._tag = [[-1] * size for _ in range(n)]
        self._u = [[0] * size for _ in range(n)]
        # Weakly not-taken start: an unseen branch predicts not-taken,
        # matching the sequential-fetch default of a real frontend.
        self._bimodal = [-1] * config.bimodal_entries
        self._bimodal_mask = config.bimodal_entries - 1
        self._use_alt_on_na = 0  # in [-8, 7]
        self._tick = 0
        self._fold_store: dict[int, array] = {}
        self._fold_code = row_typecode(self._idx_bits, self._tag_bits)
        # Per table: (history mask, fold-pair memo, or None to fold directly).
        self._fold_plan: list[tuple[int, dict[int, tuple[int, int]] | None]] = [
            (mask, {} if length <= _MEMO_MAX_BITS else None)
            for mask, length in zip(self._hist_masks, self.lengths)
        ]
        self._arch_index: dict[int, int] = {}
        self._arch_rows = None
        self._pc_mix_cache: dict[int, tuple[int, ...]] = {}
        self._table_salts = [(t * 0x9E3779B1) for t in range(n)]
        self._replay = None
        self.record: TageRecord | None = None
        """The :class:`TageRecord` this TAGE trains from, if bound."""
        self.predictions = 0
        self.updates = 0
        self.allocations = 0

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def use_arch_histories(self, arch) -> None:
        """Serve the folds of ``arch``'s histories from its bulk rows.

        ``arch`` is the stream's
        :class:`~repro.trace.fbmeta.ArchHistories`; the rows for this
        geometry are folded on first use and shared by every TAGE of
        the same geometry on the stream.
        """
        self._arch_index = arch.index
        self._arch_rows = arch.fold_rows(self.lengths, self._idx_bits, self._tag_bits)

    def use_fold_store(self, meta) -> None:
        """Keep software folds in the fold store of ``meta`` (the
        stream's :class:`~repro.trace.fbmeta.StreamMeta`) for this
        geometry, shared by every TAGE of the geometry on the stream.
        Unattached, a TAGE keeps them in a store of its own."""
        self._fold_store = meta.fold_store(self.lengths, self._idx_bits, self._tag_bits)

    def bind_record(self, record: TageRecord) -> None:
        """Train from ``record`` from now on (see :meth:`update`).

        Only an untrained TAGE of the record's geometry can bind: its
        tables must start where the record's build started.
        """
        if record.config != self.config:
            raise ValueError(f"record of {record.config} cannot train a TAGE of {self.config}")
        if self.updates:
            raise ValueError("a record can only train a TAGE that has not trained yet")
        self.record = record
        self._replay = (
            record.write_end,
            record.slots,
            record.values,
            record.use_alt,
            record.allocated,
            [*self._ctr, *self._tag, *self._u, self._bimodal],
            record.index_bits,
            (1 << record.index_bits) - 1,
        )

    def _folds(self, hist: int) -> Sequence[int]:
        """Per-table ``(index_fold, tag_fold)`` of the masked history,
        flattened: table ``t``'s pair is at ``[2t]`` and ``[2t + 1]``.

        Read from the bulk rows, else from the fold store, else folded
        by :meth:`_scalar_folds` and kept in the store.
        """
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
        for mask, memo in self._fold_plan:
            masked = hist & mask
            if memo is None:
                folds += (fold(masked, idx_bits), fold(masked * 3, tag_bits))
                continue
            pair = memo.get(masked)
            if pair is None:
                pair = memo[masked] = (fold(masked, idx_bits), fold(masked * 3, tag_bits))
            folds += pair
        return folds

    def _pc_mixes(self, pc: int) -> tuple[int, ...]:
        """Per-table PC hashes, flattened like the folds: table ``t``'s
        index mix at ``[2t]`` and tag mix at ``[2t + 1]``.

        Table ``t`` hashes ``mix = mix64(pc >> 2) ^ salt_t`` into
        ``(fold ^ mix) & idx_mask`` and ``(fold ^ (mix >> 13)) &
        tag_mask``.  A fold is already narrower than its mask, so the
        mixes are stored masked and a hash is one XOR of small ints.
        The branch PC working set is small, so one dict lookup replaces
        ``n_tables`` mix64 evaluations.
        """
        mixes = self._pc_mix_cache.get(pc)
        if mixes is None:
            base = mix64(pc >> 2)
            flat: list[int] = []
            for salt in self._table_salts:
                mix = base ^ salt
                flat += (mix & self._idx_mask, (mix >> 13) & self._tag_mask)
            mixes = tuple(flat)
            if len(self._pc_mix_cache) >= 65536:
                self._pc_mix_cache.clear()
            self._pc_mix_cache[pc] = mixes
        return mixes

    def _index_and_tag(self, table: int, pc: int, folds) -> tuple[int, int]:
        mixes = self._pc_mixes(pc)
        return folds[2 * table] ^ mixes[2 * table], folds[2 * table + 1] ^ mixes[2 * table + 1]

    def _bimodal_index(self, pc: int) -> int:
        return (pc >> 2) & self._bimodal_mask

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, pc: int, hist: int) -> bool:
        """Return the predicted direction for ``pc`` under ``hist``."""
        self.predictions += 1
        return self._lookup(pc, self._folds(hist))[0]

    def _lookup(self, pc: int, folds) -> tuple[bool, int, int, bool, int]:
        """The table walk shared by :meth:`predict` and :meth:`update`.

        Returns ``(prediction, provider, provider_idx, alt_taken, alt)``:
        the provider is the longest-history tag hit (``-1`` for the
        bimodal table, whose prediction ``alt_taken`` then is), ``alt``
        the next-longest hit (``-1`` for none), and ``alt_taken`` what
        ``alt``, or else the bimodal table, predicts.  The walk reads
        the tags from the longest table down to ``alt`` (all of them
        without one), the bimodal entry and the hits' counters; for a
        weak provider it also reads ``use_alt_on_na``, and when that is
        not negative, the provider's useful bit.
        """
        mixes = self._pc_mix_cache.get(pc)
        if mixes is None:
            mixes = self._pc_mixes(pc)
        tags = self._tag
        provider = -1
        provider_idx = -1
        alt = -1
        alt_idx = -1
        for table in range(len(tags) - 1, -1, -1):
            j = 2 * table
            idx = folds[j] ^ mixes[j]
            if tags[table][idx] == folds[j + 1] ^ mixes[j + 1]:
                if provider < 0:
                    provider, provider_idx = table, idx
                else:
                    alt, alt_idx = table, idx
                    break
        bimodal_taken = self._bimodal[(pc >> 2) & self._bimodal_mask] >= 0
        if provider < 0:
            return bimodal_taken, -1, -1, bimodal_taken, -1
        ctr = self._ctr[provider][provider_idx]
        alt_taken = self._ctr[alt][alt_idx] >= 0 if alt >= 0 else bimodal_taken
        if (
            (ctr == -1 or ctr == 0)
            and self._use_alt_on_na >= 0
            and self._u[provider][provider_idx] == 0
        ):
            return alt_taken, provider, provider_idx, alt_taken, alt
        return ctr >= 0, provider, provider_idx, alt_taken, alt

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def update(self, pc: int, hist: int, taken: bool) -> None:
        """Train with the resolved outcome; ``hist`` must be the history
        that prediction used (the architectural history before this
        branch).

        A TAGE bound to a :class:`TageRecord` (:meth:`bind_record`)
        ignores the arguments: the calls arrive in the record's commit
        order, so update ``k`` applies the writes the record's build made
        at its update ``k``, with no folds and no table walk.
        """
        k = self.updates
        self.updates = k + 1
        replay = self._replay
        if replay is not None:
            write_end, slots, values, use_alt, allocated, columns, index_bits, index_mask = replay
            for w in range(write_end[k], write_end[k + 1]):
                slot = slots[w]
                columns[slot >> index_bits][slot & index_mask] = values[w]
            self._use_alt_on_na = use_alt[k]
            self.allocations += allocated[k]
            return
        folds = self._folds(hist)
        self._train(pc, folds, self._lookup(pc, folds), taken, None)

    def _train(self, pc: int, folds, lookup, taken: bool, rec) -> None:
        """The update rules: train what ``lookup`` (:meth:`_lookup` of
        ``pc`` under ``folds``) found with the resolved outcome.

        ``rec`` is ``None``, or the record builder's write recorder: it
        is called as ``rec(column, index, value)`` before each table
        write, with ``column`` ``None`` for ``use_alt_on_na``.
        """
        predicted, provider, provider_idx, alt_taken, _ = lookup
        if provider >= 0:
            ctrs = self._ctr[provider]
            useful = self._u[provider]
            ctr = ctrs[provider_idx]
            provider_taken = ctr >= 0
            # Track whether the alternate would have done better on
            # newly-allocated (weak, u=0) entries.
            if ctr in (-1, 0) and useful[provider_idx] == 0 and provider_taken != alt_taken:
                if alt_taken == taken:
                    use_alt = min(7, self._use_alt_on_na + 1)
                else:
                    use_alt = max(-8, self._use_alt_on_na - 1)
                if rec is not None:
                    rec(None, 0, use_alt)
                self._use_alt_on_na = use_alt
            # Useful bit: provider was right where the alternate was wrong.
            u = useful[provider_idx]
            if provider_taken == taken and alt_taken != taken:
                u = min(_U_MAX, u + 1)
            elif provider_taken != taken and alt_taken == taken:
                u = max(0, u - 1)
            if rec is not None:
                rec(useful, provider_idx, u)
            useful[provider_idx] = u
            ctr = self._saturate(ctr, taken)
            if rec is not None:
                rec(ctrs, provider_idx, ctr)
            ctrs[provider_idx] = ctr
        else:
            idx = self._bimodal_index(pc)
            ctr = self._saturate(self._bimodal[idx], taken)
            if rec is not None:
                rec(self._bimodal, idx, ctr)
            self._bimodal[idx] = ctr

        if predicted != taken and provider < self.config.n_tables - 1:
            self._allocate(pc, folds, taken, provider, rec)

        self._tick += 1
        if self._tick >= self.config.u_reset_period:
            self._tick = 0
            for u_col in self._u:
                for i in range(len(u_col)):
                    if rec is not None:
                        rec(u_col, i, u_col[i] >> 1)
                    u_col[i] >>= 1

    def _saturate(self, ctr: int, taken: bool) -> int:
        if taken:
            return min(_CTR_MAX, ctr + 1)
        return max(_CTR_MIN, ctr - 1)

    def _allocate(self, pc: int, folds, taken: bool, provider: int, rec) -> None:
        """Allocate up to one entry in a longer-history table."""
        start = provider + 1
        for table in range(start, self.config.n_tables):
            idx, tag = self._index_and_tag(table, pc, folds)
            if self._u[table][idx] == 0:
                ctr = 0 if taken else -1
                if rec is not None:
                    rec(self._tag[table], idx, tag)
                    rec(self._ctr[table], idx, ctr)
                self._tag[table][idx] = tag
                self._ctr[table][idx] = ctr
                self.allocations += 1
                return
        # No free entry: age the candidates so future allocations succeed.
        for table in range(start, self.config.n_tables):
            idx, _ = self._index_and_tag(table, pc, folds)
            u = max(0, self._u[table][idx] - 1)
            if rec is not None:
                rec(self._u[table], idx, u)
            self._u[table][idx] = u

    # ------------------------------------------------------------------
    def storage_bits(self) -> int:
        return self.config.storage_bits()


class TageRecord:
    """One trace's TAGE training, run once and kept for replay.

    Under THR and Ideal the history a committed conditional branch
    trains with depends on the trace alone, and TAGE's tables change
    only at commit, so the table states a simulation trains through
    depend only on the trace and the geometry.  The record runs a
    private TAGE through them once, in commit order, with
    :meth:`TAGE._train`'s write recorder on, and keeps flat arrays:

    * per update ``k`` (the stream's ``k``-th conditional branch): the
      writes that changed an entry, ``slots[w]`` (column ``slot >>
      index_bits``, entry ``slot & (2**index_bits - 1)``; the columns
      are the counter, tag and useful tables, then the bimodal table)
      and ``values[w]`` for ``w`` in ``write_end[k]:write_end[k + 1]``;
      ``use_alt[k]``, the ``use_alt_on_na`` the update left, and
      ``allocated[k]``, the entries it allocated (0 or 1);
    * per committed branch ``i`` (the stream's flat branch index):
      ``taken[i]``, what :meth:`TAGE._lookup` gave just before ``i``'s
      update, and ``last_writer[i]``, the latest earlier update that
      changed an entry that lookup read (``-1`` for none, :data:`NEVER`
      for a branch that is not conditional).  ``history[i]`` is the
      history ``i`` trains with (:attr:`ArchHistories.before`).

    A TAGE trained from the stream's start that has applied more than
    ``last_writer[i]`` updates holds, in every entry that lookup reads,
    what the record's TAGE held, so its walk for ``i`` under
    ``history[i]`` returns ``taken[i]``: the typed kernel serves
    on-path predictions from here.
    """

    __slots__ = (
        "config",
        "history",
        "taken",
        "last_writer",
        "write_end",
        "slots",
        "values",
        "use_alt",
        "allocated",
        "index_bits",
    )

    def __init__(self, config: TageConfig, arch, addrs, kinds, takens) -> None:
        """Record ``config``'s training over one stream's committed
        branches (the flat ``addrs``/``kinds``/``takens`` of
        :class:`~repro.trace.fbmeta.StreamMeta`) under the histories of
        ``arch``, an :class:`~repro.trace.fbmeta.ArchHistories`."""
        tage = TAGE(config)
        n = config.n_tables
        columns = [*tage._ctr, *tage._tag, *tage._u, tage._bimodal]
        number = {id(column): c for c, column in enumerate(columns)}
        shift = max(config.table_entries, config.bimodal_entries).bit_length() - 1
        # Per table entry, the update that last changed it (-1: none).
        last = [[-1] * len(column) for column in columns]
        ctr_last, tag_last, u_last = last[:n], last[n : 2 * n], last[2 * n : 3 * n]
        bimodal_last = last[3 * n]
        bimodal_mask = config.bimodal_entries - 1
        slots = array("i")
        values = array("i")
        k = 0
        alt_last = -1

        def rec(column, idx: int, value: int) -> None:
            nonlocal alt_last
            if column is None:
                if value != tage._use_alt_on_na:
                    alt_last = k
            elif column[idx] != value:
                c = number[id(column)]
                last[c][idx] = k
                slots.append(c << shift | idx)
                values.append(value)

        n_br = len(addrs)
        taken = bytearray(n_br)
        last_writer = array("i", [NEVER]) * n_br
        write_end = array("i", [0])
        use_alt = array("b")
        allocated = array("b")
        hists = arch.before
        index = arch.index
        rows = arch.fold_rows(tage.lengths, tage._idx_bits, tage._tag_bits)
        mix_cache = tage._pc_mix_cache
        cond = BranchKind.COND_DIRECT
        prev = None
        folds: tuple[int, ...] = ()
        for i in [i for i, kind in enumerate(kinds) if kind is cond]:
            hist = hists[i]
            if hist is not prev:
                folds = tuple(rows[index[hist]].tolist())
                prev = hist
            pc = addrs[i]
            lookup = tage._lookup(pc, folds)
            predicted, provider, provider_idx, _, alt = lookup
            # The latest update that changed an entry the walk read
            # (the walk has just cached the PC's mixes).
            mixes = mix_cache[pc]
            writer = bimodal_last[(pc >> 2) & bimodal_mask]
            for t in range(n - 1, (alt if alt > 0 else 0) - 1, -1):
                w = tag_last[t][folds[2 * t] ^ mixes[2 * t]]
                if w > writer:
                    writer = w
            if provider >= 0:
                w = ctr_last[provider][provider_idx]
                if w > writer:
                    writer = w
                if alt >= 0:
                    w = ctr_last[alt][folds[2 * alt] ^ mixes[2 * alt]]
                    if w > writer:
                        writer = w
                ctr = tage._ctr[provider][provider_idx]
                if ctr == -1 or ctr == 0:
                    if alt_last > writer:
                        writer = alt_last
                    if tage._use_alt_on_na >= 0:
                        w = u_last[provider][provider_idx]
                        if w > writer:
                            writer = w
            last_writer[i] = writer
            taken[i] = predicted
            allocations = tage.allocations
            tage._train(pc, folds, lookup, takens[i], rec)
            write_end.append(len(slots))
            use_alt.append(tage._use_alt_on_na)
            allocated.append(tage.allocations - allocations)
            k += 1

        self.config = config
        self.history: tuple[int, ...] = hists
        self.taken = bytes(taken)
        self.last_writer = last_writer
        self.write_end = write_end
        self.slots = slots
        self.values = values
        self.use_alt = use_alt
        self.allocated = allocated
        self.index_bits = shift

    def __len__(self) -> int:
        """Updates recorded: the stream's committed conditional branches."""
        return len(self.use_alt)

    def nbytes(self) -> int:
        """Bytes held by the arrays (``history`` is the stream's)."""
        return len(self.taken) + sum(
            a.itemsize * len(a)
            for a in (
                self.last_writer,
                self.write_end,
                self.slots,
                self.values,
                self.use_alt,
                self.allocated,
            )
        )
