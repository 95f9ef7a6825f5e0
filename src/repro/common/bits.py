"""Bit-manipulation helpers used throughout the simulator.

All addresses are byte addresses held in plain Python ints.  The ISA is
fixed-length 32-bit (4-byte) instructions, as assumed by the paper
(Section IV), so instruction indices and byte addresses convert by a
shift of 2.

:func:`fold` has a bulk twin for whole history sets: :func:`to_limbs`
splits the values into 64-bit limbs, :func:`mask_limbs` and
:func:`triple_limbs` form the masked value and the masked value times 3
on those limbs, and :func:`fold_limbs` folds every row at once.
:func:`fold_pair_rows` chains them into the per-table (index, tag) fold
pairs that TAGE and ITTAGE index with, one flat row per history.  Row for row the results equal
:func:`fold` (``tests/test_bits.py`` pins it).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

INSTR_BYTES = 4
"""Fixed instruction length in bytes (the paper assumes 32-bit instructions)."""

_MASK64 = (1 << 64) - 1

# SplitMix64 finalizer constants; used as a cheap, well-distributed mixer.
_MIX_K1 = 0xBF58476D1CE4E5B9
_MIX_K2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """Return a 64-bit avalanche mix of ``x`` (SplitMix64 finalizer).

    Used wherever the hardware would employ an index hash.  The exact
    polynomial is irrelevant to the studied behaviour; what matters is
    that distinct inputs spread uniformly over the index space.
    """
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX_K1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX_K2) & _MASK64
    x ^= x >> 31
    return x


def fold(value: int, out_bits: int) -> int:
    """Fold an arbitrarily long non-negative int into ``out_bits`` bits.

    The value is first reduced to 64 bits by XOR-folding 64-bit chunks,
    then mixed and truncated.  This stands in for the hardware's
    folded-history registers: a deterministic many-to-one hash whose
    aliasing behaviour is what branch-predictor indexing relies on.

    Equal to ``mix64(v) >> (64 - out_bits)`` of the XOR-folded ``v``;
    the finalizer is written out here because TAGE and ITTAGE index
    hashing call this for every table.  Histories the committed path
    produces are folded in bulk instead (:func:`fold_pair_rows`); this
    scalar form folds the rest (wrong-path histories, and the
    direction histories of GHR0-3) once per trace, into the stream's
    fold stores, and is the reference both are tested against.
    """
    if out_bits <= 0:
        return 0
    v = value
    while v > _MASK64:
        v = (v & _MASK64) ^ (v >> 64)
    v &= _MASK64
    v ^= v >> 30
    v = (v * _MIX_K1) & _MASK64
    v ^= v >> 27
    v = (v * _MIX_K2) & _MASK64
    v ^= v >> 31
    return v >> (64 - out_bits)


_U64_MIX_K1 = np.uint64(_MIX_K1)
_U64_MIX_K2 = np.uint64(_MIX_K2)


def to_limbs(values: Iterable[int], n_limbs: int) -> np.ndarray:
    """Little-endian 64-bit limbs of non-negative ints, one row per value.

    Returns a ``(len(values), n_limbs)`` ``uint64`` array; every value
    must be below ``2 ** (64 * n_limbs)``.
    """
    width = 8 * n_limbs
    buf = b"".join(v.to_bytes(width, "little") for v in values)
    return np.frombuffer(buf, dtype="<u8").reshape(-1, n_limbs).astype(np.uint64)


def mask_limbs(limbs: np.ndarray, length: int) -> np.ndarray:
    """Limbs of each row's value ``& ((1 << length) - 1)``.

    The result has exactly ``ceil(length / 64)`` limbs: limbs above the
    mask are dropped, and zero limbs are appended when the mask is wider
    than the input.
    """
    n_rows, have = limbs.shape
    need = -(-length // 64)
    out = np.zeros((n_rows, need), dtype=np.uint64)
    keep = min(have, need)
    out[:, :keep] = limbs[:, :keep]
    partial = length % 64
    if partial and need <= have:
        out[:, need - 1] &= np.uint64((1 << partial) - 1)
    return out


def triple_limbs(limbs: np.ndarray) -> np.ndarray:
    """Limbs of each row's value times 3, with one extra limb for the carry.

    ``3v = v + (v << 1)``, added limb by limb with the carry propagated;
    ``uint64`` array arithmetic wraps modulo ``2**64``, which is what
    the per-limb sum needs.
    """
    n_rows, n = limbs.shape
    out = np.empty((n_rows, n + 1), dtype=np.uint64)
    carry = np.zeros(n_rows, dtype=np.uint64)
    spill = np.zeros(n_rows, dtype=np.uint64)  # top bit of the limb below, for v << 1
    one, top = np.uint64(1), np.uint64(63)
    for i in range(n):
        low = limbs[:, i]
        doubled = (low << one) | spill
        spill = low >> top
        partial = low + doubled
        total = partial + carry
        out[:, i] = total
        carry = ((partial < low) | (total < partial)).astype(np.uint64)
    out[:, n] = spill + carry
    return out


def fold_limbs(limbs: np.ndarray, out_bits: int) -> np.ndarray:
    """:func:`fold` of every row's value, as a ``uint64`` array.

    The row's limbs are XOR-folded to 64 bits (which is what the scalar
    loop's repeated ``(v & mask) ^ (v >> 64)`` amounts to), then mixed
    by the SplitMix64 finalizer and truncated to ``out_bits``.
    """
    if out_bits > 64:
        raise ValueError(f"cannot fold to {out_bits} bits (at most 64)")
    n_rows = limbs.shape[0]
    if out_bits <= 0:
        # fold() returns 0 here; a uint64 shift by 64 would not.
        return np.zeros(n_rows, dtype=np.uint64)
    v = np.bitwise_xor.reduce(limbs, axis=1, dtype=np.uint64)
    v ^= v >> np.uint64(30)
    v *= _U64_MIX_K1
    v ^= v >> np.uint64(27)
    v *= _U64_MIX_K2
    v ^= v >> np.uint64(31)
    return v >> np.uint64(64 - out_bits)


def fold_pair_rows(
    limbs: np.ndarray, lengths: Sequence[int], idx_bits: int, tag_bits: int
) -> np.ndarray:
    """Per-table ``(index, tag)`` fold pairs of every row's history.

    Row ``r`` of the ``(rows, 2 * len(lengths))`` result holds, at
    columns ``2t`` and ``2t + 1``, ``fold(m, idx_bits)`` and
    ``fold(3 * m, tag_bits)`` with ``m`` row ``r``'s history masked to
    ``lengths[t]`` bits: the hash inputs of TAGE's and ITTAGE's table
    indexing, in the flat layout their ``_folds`` return.  The dtype is
    the narrowest unsigned type that holds both fold widths (``uint16``
    for every built-in predictor geometry).
    """
    widest = max(idx_bits, tag_bits)
    dtype = np.uint16 if widest <= 16 else np.uint32 if widest <= 32 else np.uint64
    rows = np.empty((limbs.shape[0], 2 * len(lengths)), dtype=dtype)
    for table, length in enumerate(lengths):
        masked = mask_limbs(limbs, length)
        rows[:, 2 * table] = fold_limbs(masked, idx_bits)
        rows[:, 2 * table + 1] = fold_limbs(triple_limbs(masked), tag_bits)
    return rows


def row_typecode(idx_bits: int, tag_bits: int) -> str:
    """The narrowest unsigned :mod:`array` typecode that holds both fold
    widths: a software fold row's twin of :func:`fold_pair_rows`'s dtype."""
    widest = max(idx_bits, tag_bits)
    return "H" if widest <= 16 else "I" if widest <= 32 else "Q"


def align_down(addr: int, size: int) -> int:
    """Align ``addr`` down to a multiple of ``size`` (a power of two)."""
    return addr & ~(size - 1)


def block_addr(addr: int, block_bytes: int = 32) -> int:
    """Address of the fetch block (default 32B, Section IV-A) holding ``addr``."""
    return addr & ~(block_bytes - 1)


def block_offset(addr: int, block_bytes: int = 32) -> int:
    """Instruction slot index of ``addr`` within its fetch block."""
    return (addr & (block_bytes - 1)) >> 2


def line_addr(addr: int, line_bytes: int = 64) -> int:
    """Address of the cache line (default 64B) holding ``addr``."""
    return addr & ~(line_bytes - 1)


def target_hash(pc: int, target: int) -> int:
    """Taken-branch hash from the paper's Eq. 2.

    ``target hash = (instruction address >> 2) XOR (target >> 3)``
    """
    return (pc >> 2) ^ (target >> 3)
