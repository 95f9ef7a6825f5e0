"""Precompiled fetch-block and oracle-stream metadata (structure of arrays).

The per-cycle BPU candidate scan (perfect-BTB mode) and the fetch
stage's PFC pre-decoder both walk a fetch block 4 bytes at a time,
asking the program image "is there a branch here, and what shape is
it?" on every visit.  The static image never changes, so this module
compiles it once per :class:`~repro.trace.cfg.Program` into immutable
flat parallel tuples sorted by address (``addrs``/``kinds``/``targets``/
``pd_class``/``triples``); consumers replace the per-slot walk with one
``bisect`` per block and a contiguous slice/range over the tuples.
CPython indexes a small tuple slice faster than a numpy array element,
and ``bisect`` works on tuples directly.

:class:`StreamMeta` applies the same treatment to one *dynamic* oracle
stream: every committed branch flattened into commit order with its
global commit index, per-segment branch offsets, and segment address
bounds as arrays.  The commit trainer's per-segment dict/list walk and
the functional-warmup replay both become flat pointer sweeps over it.
The records carry exactly what the hot paths read, so the rewrites are
bit-identical to the structure walks by construction
(``tests/test_warmup.py`` pins the equivalence, and the parallel
determinism test pins whole-run bit-identity).

The same arrays also feed the predictors.  Under THR and Ideal the
history before each committed branch depends on the trace alone, so
:meth:`StreamMeta.arch_histories` replays it once per (stream, policy)
into :class:`ArchHistories`, whose per-geometry fold rows TAGE and
ITTAGE read instead of re-folding each of those histories in software.
TAGE's training then depends on the trace alone too:
:meth:`StreamMeta.tage_record` runs it once per geometry into a
:class:`~repro.branch.tage.TageRecord`, which every simulator's TAGE
replays.  Every other history a predictor meets (wrong-path histories
under every policy, and all histories of GHR0-3) is folded in software
once per stream and geometry: :meth:`StreamMeta.fold_store` keeps the
rows, and every TAGE and ITTAGE built on the stream reads and fills
the store of its geometry.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence

import numpy as np

from repro.branch.tage import TageConfig, TageRecord
from repro.common.bits import fold_pair_rows, to_limbs
from repro.isa.instructions import BranchKind

# Predecode classification of a branch, as PFC's pre-decoder sees it
# (Fig 5): how (whether) the branch target is recoverable from the
# fetched bytes plus the RAS.
PD_COND = 0
"""PC-relative conditional: PFC case 2 candidate (target in encoding)."""
PD_PCREL_UNCOND = 1
"""PC-relative unconditional: PFC case 1, target in the encoding."""
PD_RETURN = 2
"""Return: PFC case 1, target from the RAS top."""
PD_INDIRECT = 3
"""Register-indirect: unconditional but uncorrectable at pre-decode."""


class FetchBlockMeta:
    """Flat, address-sorted branch metadata of one static program image.

    All tuples are parallel and indexed by the same branch ordinal;
    ``addrs`` is sorted ascending, so ``bisect`` over it selects the
    branches inside any address window in O(log n).
    """

    __slots__ = (
        "addrs",
        "kinds",
        "targets",
        "pd_class",
        "triples",
    )

    def __init__(self, program) -> None:
        branches = sorted(program.branches.values(), key=lambda i: i.addr)
        self.addrs: tuple[int, ...] = tuple(i.addr for i in branches)
        self.kinds: tuple[BranchKind, ...] = tuple(i.kind for i in branches)
        self.targets: tuple[int, ...] = tuple(i.target for i in branches)
        self.pd_class: tuple[int, ...] = tuple(
            _classify(i.kind) for i in branches
        )
        self.triples: tuple[tuple[int, BranchKind, int], ...] = tuple(
            (i.addr, i.kind, i.target) for i in branches
        )
        """(addr, kind, pc-relative target) per branch -- the exact shape
        the BPU's perfect-BTB candidate scan yields."""

    def __len__(self) -> int:
        return len(self.addrs)


def _classify(kind: BranchKind) -> int:
    if kind is BranchKind.COND_DIRECT:
        return PD_COND
    if kind.is_pc_relative:  # UNCOND_DIRECT / CALL_DIRECT
        return PD_PCREL_UNCOND
    if kind.is_return:
        return PD_RETURN
    return PD_INDIRECT


class ArchHistories:
    """The distinct committed-path histories of one (stream, policy).

    ``index`` maps each history value to its row; ``limbs`` holds the
    values as 64-bit limbs in row order; ``before[i]`` is the history
    committed branch ``i`` trains with.  :meth:`fold_rows` folds them
    for one predictor geometry in bulk, once, and keeps the result;
    ``records`` keeps one :class:`~repro.branch.tage.TageRecord` per
    TAGE geometry (:meth:`StreamMeta.tage_record`).  All of it lives on
    the stream's :class:`StreamMeta`, so it is shared by every
    simulator built on the stream and dropped with it.
    """

    __slots__ = ("index", "limbs", "before", "records", "_rows")

    def __init__(self, histories: dict[int, int], bits: int, before: tuple[int, ...]) -> None:
        self.index = histories
        """History value -> row, in first-seen order."""
        self.limbs = to_limbs(histories, -(-bits // 64))
        self.before = before
        """Per committed branch, in commit order: the history before it,
        as the very object that keys ``index``."""
        self.records: dict[TageConfig, TageRecord] = {}
        self._rows: dict[tuple, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.index)

    def fold_rows(self, lengths: Sequence[int], idx_bits: int, tag_bits: int) -> np.ndarray:
        """Read-only :func:`~repro.common.bits.fold_pair_rows` of every
        history for one geometry; computed on first use per geometry."""
        key = (tuple(lengths), idx_bits, tag_bits)
        rows = self._rows.get(key)
        if rows is None:
            rows = fold_pair_rows(self.limbs, lengths, idx_bits, tag_bits)
            rows.setflags(write=False)
            self._rows[key] = rows
        return rows

    def nbytes(self) -> int:
        """Bytes held: the index (its ints included), limbs, ``before``,
        rows and TAGE records."""
        index = self.index
        held = sys.getsizeof(index) + self.limbs.nbytes + sys.getsizeof(self.before)
        held += sum(sys.getsizeof(h) + sys.getsizeof(r) for h, r in index.items())
        held += sum(rows.nbytes for rows in self._rows.values())
        return held + sum(record.nbytes() for record in self.records.values())


class StreamMeta:
    """Flat commit-order branch + segment metadata of one oracle stream.

    Where :class:`FetchBlockMeta` flattens the *static* image,
    ``StreamMeta`` flattens the *dynamic* committed stream: every
    branch instance of every segment, concatenated in commit order.
    ``br_commit[i]`` is the global committed-instruction index of
    branch ``i`` (``cumulative[seg] + (addr - seg.start) // 4``), which
    is strictly increasing, so the commit trainer replaces its
    per-segment list walk with a single flat pointer compared against
    the committed-instruction count.
    """

    __slots__ = (
        "br_addr",
        "br_kind",
        "br_taken",
        "br_target",
        "br_commit",
        "seg_first_br",
        "np_seg_start",
        "np_seg_limit",
        "_footprints",
        "_arch",
        "_fold_stores",
    )

    def __init__(self, stream) -> None:
        addrs: list[int] = []
        kinds: list[BranchKind] = []
        takens: list[bool] = []
        targets: list[int] = []
        commits: list[int] = []
        first: list[int] = []
        cumulative = stream.cumulative
        for seg_idx, seg in enumerate(stream.segments):
            first.append(len(addrs))
            base = cumulative[seg_idx]
            start = seg.start
            for addr, kind, taken, target in seg.branches:
                addrs.append(addr)
                kinds.append(kind)
                takens.append(taken)
                targets.append(target)
                commits.append(base + ((addr - start) >> 2))
        first.append(len(addrs))

        self.br_addr: tuple[int, ...] = tuple(addrs)
        self.br_kind: tuple[BranchKind, ...] = tuple(kinds)
        self.br_taken: tuple[bool, ...] = tuple(takens)
        self.br_target: tuple[int, ...] = tuple(targets)
        self.br_commit: tuple[int, ...] = tuple(commits)
        self.seg_first_br: tuple[int, ...] = tuple(first)
        """``seg_first_br[i]`` = flat index of segment ``i``'s first
        branch; one trailing sentinel equal to the total branch count."""
        self.np_seg_start = np.asarray(
            [seg.start for seg in stream.segments], dtype=np.int64
        )
        self.np_seg_limit = np.asarray(
            [seg.limit for seg in stream.segments], dtype=np.int64
        )
        self.np_seg_start.setflags(write=False)
        self.np_seg_limit.setflags(write=False)
        self._footprints: dict[tuple[int, int, int], tuple[list[int], list[int]]] = {}
        self._arch: dict[tuple, ArchHistories] = {}
        self._fold_stores: dict[tuple, dict[int, array]] = {}

    def __len__(self) -> int:
        return len(self.br_addr)

    def fold_store(self, lengths: Sequence[int], idx_bits: int, tag_bits: int) -> dict[int, array]:
        """The software fold rows of one predictor geometry on this stream.

        Maps a history value to its flat ``(index, tag)`` fold row, in
        the layout of :meth:`ArchHistories.fold_rows`.  TAGE and ITTAGE
        fill it on their first software fold of a history (``_folds``),
        whatever the history policy, and every simulator on the stream
        reads what earlier ones folded: a fold depends on the history
        and the geometry alone.  Kept per (``lengths``, ``idx_bits``,
        ``tag_bits``); dropped with the stream, and from its pickles.
        """
        return self._fold_stores.setdefault((tuple(lengths), idx_bits, tag_bits), {})

    def arch_histories(self, mgr) -> ArchHistories | None:
        """The histories the commit trainer trains under, for ``mgr``'s policy.

        Replays ``mgr.commit_push`` over every branch of the stream from
        the trainer's initial history (0) and collects the value the
        history holds before each branch.  Returns ``None`` when the
        policy's commit history depends on BTB detection (GHR0-3),
        which the trace alone cannot tell.  On the correct path the
        frontend's speculative history equals this one, so prediction
        lookups find it too.  Memoised per (policy, width).
        """
        if not mgr.ignores_detection:
            return None
        key = (mgr.policy, mgr.bits)
        arch = self._arch.get(key)
        if arch is None:
            push = mgr.commit_push
            hist = 0
            index: dict[int, int] = {}
            seen: list[int] = []
            before: list[int] = []
            for addr, taken, target in zip(self.br_addr, self.br_taken, self.br_target):
                row = index.get(hist)
                if row is None:
                    row = index[hist] = len(seen)
                    seen.append(hist)
                before.append(seen[row])
                hist = push(hist, addr, taken, target, True)[0]
            arch = self._arch[key] = ArchHistories(index, mgr.bits, tuple(before))
        return arch

    def tage_record(self, mgr, config: TageConfig) -> TageRecord | None:
        """The TAGE training of ``config`` over this stream, under
        ``mgr``'s policy, recorded once (:class:`~repro.branch.tage.TageRecord`).

        ``None`` when :meth:`arch_histories` is: under GHR0-3 the
        histories, and so the training, depend on BTB detection.
        Memoised per (policy, width, geometry) on the
        :class:`ArchHistories`.
        """
        arch = self.arch_histories(mgr)
        if arch is None:
            return None
        record = arch.records.get(config)
        if record is None:
            record = arch.records[config] = TageRecord(
                config, arch, self.br_addr, self.br_kind, self.br_taken
            )
        return record

    def warm_footprint(
        self, last_seg: int, line_bytes: int, page_bytes: int
    ) -> tuple[list[int], list[int]]:
        """Cache-line and I-TLB-page footprint of segments ``0..last_seg``.

        Returns ``(lines, pages)``: for each segment in stream order,
        every line (then every page) overlapping ``[start, limit)``,
        stepping by ``line_bytes`` (``page_bytes``) from the aligned
        segment start.  Per-segment order is preserved, so replaying
        ``lines`` into the L1I and ``pages`` into the I-TLB leaves both
        structures (LRU state included) exactly as the per-segment
        interleaved walk does -- the two structures never interact.
        Memoised per (last_seg, line_bytes, page_bytes); the lists hold
        plain Python ints, ready for the scalar ``fill``/``translate``
        loops.
        """
        key = (last_seg, line_bytes, page_bytes)
        cached = self._footprints.get(key)
        if cached is None:
            starts = self.np_seg_start[: last_seg + 1]
            limits = self.np_seg_limit[: last_seg + 1]
            cached = (
                _strided_footprint(starts, limits, line_bytes),
                _strided_footprint(starts, limits, page_bytes),
            )
            self._footprints[key] = cached
        return cached


def _strided_footprint(starts, limits, stride: int) -> list[int]:
    """Concatenated ``range(start & ~(stride-1), limit, stride)`` per row.

    Vectorised equivalent of the per-segment Python ``range`` walk the
    functional warmup used to run: one address per covered
    ``stride``-aligned chunk, segments concatenated in order.
    """
    aligned = starts & ~np.int64(stride - 1)
    counts = (limits - aligned + (stride - 1)) // stride
    np.maximum(counts, 0, out=counts)
    total = int(counts.sum())
    if total == 0:
        return []
    # Per-element offset within its own segment: a global arange minus
    # each segment's first global index, repeated per element.
    firsts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(firsts, counts)
    return (np.repeat(aligned, counts) + within * stride).tolist()


def stream_meta(stream) -> StreamMeta:
    """The (memoised) :class:`StreamMeta` of ``stream``.

    Compiled on first use and stashed on the stream object, so every
    consumer of one oracle stream -- the commit trainer, functional
    warmup, every simulator built on the trace -- shares one compilation.
    """
    meta = getattr(stream, "_stream_meta", None)
    if meta is None:
        meta = StreamMeta(stream)
        stream._stream_meta = meta
    return meta
