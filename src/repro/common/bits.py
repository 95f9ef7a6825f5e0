"""Bit-manipulation helpers used throughout the simulator.

All addresses are byte addresses held in plain Python ints.  The ISA is
fixed-length 32-bit (4-byte) instructions, as assumed by the paper
(Section IV), so instruction indices and byte addresses convert by a
shift of 2.
"""

from __future__ import annotations

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
    hashing call this for every table.
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
