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
"""

from __future__ import annotations

import numpy as np

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

    def __len__(self) -> int:
        return len(self.br_addr)

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
    warmup, batched runs sharing a trace -- shares one compilation.
    """
    meta = getattr(stream, "_stream_meta", None)
    if meta is None:
        meta = StreamMeta(stream)
        stream._stream_meta = meta
    return meta
