"""ChampSim trace ingestion: the first external workload source.

ChampSim IPC-1 traces (the paper's own evaluation substrate) are flat
streams of fixed 64-byte records, one per retired instruction::

    ip                  u64 LE   instruction pointer
    is_branch           u8       retired as a branch?
    branch_taken        u8       did it redirect the sequential PC?
    destination_registers u8[2]  architectural register writes
    source_registers    u8[4]    architectural register reads
    destination_memory  u64[2]   (unused here)
    source_memory       u64[4]   (unused here)

usually compressed with xz or gzip.  ChampSim never stores the branch
*kind* -- its tracer encodes it in the register usage pattern around
three special registers (stack pointer 6, flags 25, instruction
pointer 26), and the decode side reverses that encoding.  This module
does the same, vectorised over numpy record arrays.

The pipeline is built for multi-GB files:

* **bounded chunked decode** -- the (de)compressed byte stream is
  consumed in fixed ``chunk_records`` slices and decoding stops at the
  first chunk boundary past the requested window, so a multi-GB file
  costs only the prefix a run needs.  Nothing is persisted: each
  process decodes its own prefix.  Per-record validation reports
  absolute record indices (truncated tail, corrupt record, empty file)
  so a bad trace fails with a pinpoint message.
* **address remapping** -- trace IPs are variable-length x86 addresses;
  the simulator's ISA is fixed 4-byte.  Unique static IPs are ranked
  and remapped to ``base + 4*rank``, which preserves code locality and
  maps sequential execution to ``addr + 4`` exactly as the fetch and
  commit layers require.

Decoded records become the same structures every downstream layer
already consumes: an :class:`~repro.trace.oracle.OracleStream` of
segments plus a reconstructed :class:`~repro.trace.cfg.Program` static
image (branch map, code bounds, fetch-block metadata).  A tiny
:func:`write_champsim_trace` encoder emits the canonical register
patterns from a synthetic (program, stream) pair -- it generates the
committed golden fixture and powers decode/encode round-trip tests.
"""

from __future__ import annotations

import gzip
import hashlib
import lzma
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.isa.instructions import BranchKind, Instruction
from repro.trace.cfg import Program, ProgramSpec
from repro.trace.oracle import OracleStream, Segment
from repro.trace.source import TRACE_SLACK, trace_name_for_path

CHAMPSIM_DECODER_VERSION = 1
"""Bump when decode/classification/remap changes can alter the stream;
it is part of every trace's workload fingerprint, so every cached
result of a trace invalidates at once."""

RECORD_BYTES = 64

REG_STACK_POINTER = 6
REG_FLAGS = 25
REG_INSTRUCTION_POINTER = 26

RECORD_DTYPE = np.dtype(
    [
        ("ip", "<u8"),
        ("is_branch", "u1"),
        ("taken", "u1"),
        ("dst_regs", "u1", (2,)),
        ("src_regs", "u1", (4,)),
        ("dst_mem", "<u8", (2,)),
        ("src_mem", "<u8", (4,)),
    ]
)
assert RECORD_DTYPE.itemsize == RECORD_BYTES

DEFAULT_CHUNK_RECORDS = 65_536
"""Records per decode chunk (4 MiB of raw trace)."""

_XZ_MAGIC = b"\xfd7zXZ\x00"
_GZ_MAGIC = b"\x1f\x8b"


class TraceFormatError(ValueError):
    """A ChampSim trace file is malformed (truncated, corrupt, empty)."""


# ----------------------------------------------------------------------
# Byte access
# ----------------------------------------------------------------------
def _open_trace(path: Path):
    """Open a trace for streaming reads, sniffing the compression.

    The suffix is a hint only; the magic bytes decide, so a renamed
    file still decodes (or fails with a format error, not garbage).
    """
    with open(path, "rb") as probe:
        magic = probe.read(6)
    if magic.startswith(_XZ_MAGIC):
        return lzma.open(path, "rb")
    if magic.startswith(_GZ_MAGIC):
        return gzip.open(path, "rb")
    return open(path, "rb")


def file_digest(path: str | Path) -> str:
    """SHA-256 of the file bytes (compressed form; identity of the input)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _read_exactly(fh, n: int) -> bytes:
    """Read up to ``n`` bytes, looping over short reads from the codec."""
    parts = []
    remaining = n
    while remaining > 0:
        block = fh.read(remaining)
        if not block:
            break
        parts.append(block)
        remaining -= len(block)
    return b"".join(parts)


# ----------------------------------------------------------------------
# Record classification
# ----------------------------------------------------------------------
def classify_records(records: np.ndarray, first_index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate one chunk and derive per-record (ip, kind, taken) arrays.

    ``first_index`` is the chunk's absolute record offset, used to make
    corruption messages pinpoint the failing record.  Branch kinds are
    recovered from the tracer's register-usage encoding (see module
    docstring); a branch record matching no known pattern is
    conservatively INDIRECT (target never recoverable at pre-decode).
    """
    bad = (records["is_branch"] > 1) | (records["taken"] > 1) | (records["ip"] == 0)
    if bad.any():
        i = int(np.argmax(bad))
        rec = records[i]
        raise TraceFormatError(
            f"corrupt record #{first_index + i} (file offset {(first_index + i) * RECORD_BYTES}): "
            f"ip={int(rec['ip']):#x} is_branch={int(rec['is_branch'])} taken={int(rec['taken'])}"
        )

    src = records["src_regs"]
    dst = records["dst_regs"]
    r_sp = (src == REG_STACK_POINTER).any(axis=1)
    r_flags = (src == REG_FLAGS).any(axis=1)
    r_ip = (src == REG_INSTRUCTION_POINTER).any(axis=1)
    r_other = (
        (src != 0)
        & (src != REG_STACK_POINTER)
        & (src != REG_FLAGS)
        & (src != REG_INSTRUCTION_POINTER)
    ).any(axis=1)
    w_sp = (dst == REG_STACK_POINTER).any(axis=1)

    is_branch = records["is_branch"] == 1
    kinds = np.zeros(len(records), dtype=np.uint8)
    kinds[is_branch] = BranchKind.INDIRECT  # fallback for unknown patterns
    direct = is_branch & r_ip & ~r_other
    kinds[direct & r_flags & ~r_sp] = BranchKind.COND_DIRECT
    kinds[direct & ~r_flags & ~r_sp] = BranchKind.UNCOND_DIRECT
    kinds[direct & ~r_flags & r_sp & w_sp] = BranchKind.CALL_DIRECT
    kinds[is_branch & r_sp & w_sp & ~r_ip & ~r_other] = BranchKind.RETURN
    kinds[is_branch & r_other & ~r_ip & ~r_sp] = BranchKind.INDIRECT
    kinds[is_branch & r_other & ~r_ip & r_sp & w_sp] = BranchKind.INDIRECT_CALL

    taken = records["taken"].astype(np.uint8)
    taken[~is_branch] = 0
    return records["ip"].astype(np.uint64), kinds, taken


# ----------------------------------------------------------------------
# Chunked decode
# ----------------------------------------------------------------------
@dataclass
class DecodedPrefix:
    """The decoded (ip, kind, taken) arrays for a trace prefix."""

    ips: np.ndarray
    kinds: np.ndarray
    takens: np.ndarray

    def __len__(self) -> int:
        return len(self.ips)


def load_decoded_prefix(
    path: str | Path, needed_records: int, chunk_records: int = DEFAULT_CHUNK_RECORDS
) -> DecodedPrefix:
    """Stream-decode a prefix of at least ``needed_records`` records.

    Records are read and classified ``chunk_records`` at a time, and
    decoding stops at the first chunk boundary past the window (or at
    EOF); nothing is written anywhere.
    """
    path = Path(path)
    chunk_bytes = chunk_records * RECORD_BYTES
    out_ips: list[np.ndarray] = []
    out_kinds: list[np.ndarray] = []
    out_takens: list[np.ndarray] = []
    decoded = 0
    try:
        fh = _open_trace(path)
    except OSError as exc:
        raise TraceFormatError(f"cannot open trace {path}: {exc}") from exc
    with fh:
        while True:
            try:
                blob = _read_exactly(fh, chunk_bytes)
            except (lzma.LZMAError, gzip.BadGzipFile, EOFError, OSError) as exc:
                raise TraceFormatError(
                    f"{path.name}: compressed stream error after record {decoded}: {exc}"
                ) from exc
            if not blob:
                break
            extra = len(blob) % RECORD_BYTES
            if extra:
                raise TraceFormatError(
                    f"{path.name}: truncated trace: {extra} trailing byte(s) after "
                    f"record {decoded + len(blob) // RECORD_BYTES} "
                    f"(file is not a whole number of {RECORD_BYTES}-byte records)"
                )
            records = np.frombuffer(blob, dtype=RECORD_DTYPE)
            ips, kinds, takens = classify_records(records, decoded)
            out_ips.append(ips)
            out_kinds.append(kinds)
            out_takens.append(takens)
            decoded += len(records)
            if len(blob) < chunk_bytes or decoded >= needed_records:
                break
    if decoded == 0:
        raise TraceFormatError(f"{path.name}: empty trace (contains no records)")
    return DecodedPrefix(
        ips=np.concatenate(out_ips),
        kinds=np.concatenate(out_kinds),
        takens=np.concatenate(out_takens),
    )


# ----------------------------------------------------------------------
# Workload reconstruction
# ----------------------------------------------------------------------
def build_workload(
    prefix: DecodedPrefix,
    n_instructions: int,
    base_addr: int = 0x10_0000,
) -> tuple[Program, OracleStream, dict]:
    """Rebuild (Program, OracleStream, anomaly counters) from records.

    The stream covers ``len(prefix) - 1`` instructions (the final
    record only supplies the last taken-branch target); static branch
    kinds are resolved per unique IP with direct kinds observed at more
    than one taken target demoted to their indirect form, and non-branch
    discontinuities synthesised as pseudo-indirect taken branches so the
    committed stream stays segment-consistent.
    """
    n_records = len(prefix)
    if n_records < 2:
        raise TraceFormatError("trace too short: need at least 2 records")
    if n_records - 1 < n_instructions:
        raise TraceFormatError(
            f"trace ends after {n_records - 1} usable instruction(s); "
            f"the requested window needs {n_instructions}"
        )

    uniq, inverse = np.unique(prefix.ips, return_inverse=True)
    rec_addr = (base_addr + 4 * inverse).astype(np.int64)
    disc = np.zeros(n_records, dtype=bool)
    disc[:-1] = rec_addr[1:] != rec_addr[:-1] + 4
    kinds = prefix.kinds
    takens = prefix.takens

    anomalies = {
        "pseudo_branches": 0,
        "kind_conflicts": 0,
        "demoted_direct": 0,
        "not_taken_discontinuities": 0,
    }

    # Static pass: one kind and (for direct kinds) one target per IP.
    static_kind = np.zeros(len(uniq), dtype=np.uint8)
    static_target = np.zeros(len(uniq), dtype=np.int64)
    taken_targets: dict[int, set[int]] = {}
    interesting = np.nonzero((kinds != 0) | disc)[0]
    for i in interesting:
        idx = int(inverse[i])
        kind = int(kinds[i])
        if kind == 0:
            # Non-branch discontinuity (trap/interrupt/unmarked branch):
            # model the IP as an indirect branch taken on those occurrences.
            if static_kind[idx] == 0:
                static_kind[idx] = BranchKind.INDIRECT
                anomalies["pseudo_branches"] += 1
            continue
        if static_kind[idx] == 0:
            static_kind[idx] = kind
        elif static_kind[idx] != kind:
            anomalies["kind_conflicts"] += 1  # first observation wins
        if (takens[i] or disc[i]) and i + 1 < n_records:
            taken_targets.setdefault(idx, set()).add(int(rec_addr[i + 1]))

    for idx, targets in taken_targets.items():
        kind = int(static_kind[idx])
        if kind in (BranchKind.COND_DIRECT, BranchKind.UNCOND_DIRECT, BranchKind.CALL_DIRECT):
            if len(targets) == 1:
                static_target[idx] = next(iter(targets))
            else:
                static_kind[idx] = (
                    BranchKind.INDIRECT_CALL
                    if kind == BranchKind.CALL_DIRECT
                    else BranchKind.INDIRECT
                )
                anomalies["demoted_direct"] += 1

    # Dynamic pass: segment assembly over the first n_records - 1 records.
    n_stream = n_records - 1
    segments: list[Segment] = []
    seg = Segment(start=int(rec_addr[0]), n_instrs=0)
    total_branches = 0
    total_taken = 0
    inv = inverse
    for i in range(n_stream):
        seg.n_instrs += 1
        record_kind = int(kinds[i])
        if record_kind == 0 and not disc[i]:
            continue
        addr = int(rec_addr[i])
        idx = int(inv[i])
        kind = BranchKind(int(static_kind[idx]))
        taken = bool(takens[i]) or bool(disc[i])
        if record_kind != 0 and not bool(takens[i]) and bool(disc[i]):
            anomalies["not_taken_discontinuities"] += 1
        target = int(rec_addr[i + 1]) if taken else int(static_target[idx])
        seg.branches.append((addr, kind, taken, target))
        total_branches += 1
        if taken:
            total_taken += 1
            seg.next_start = target
            segments.append(seg)
            seg = Segment(start=target, n_instrs=0)
    if seg.n_instrs:
        segments.append(seg)

    stream = OracleStream(
        segments=segments,
        total_instructions=n_stream,
        total_branches=total_branches,
        total_taken=total_taken,
    )

    branch_map: dict[int, Instruction] = {}
    for idx in np.nonzero(static_kind)[0]:
        kind = BranchKind(int(static_kind[idx]))
        addr = base_addr + 4 * int(idx)
        branch_map[addr] = Instruction(
            addr=addr,
            kind=kind,
            target=int(static_target[idx]) if kind.is_pc_relative else 0,
        )

    program = Program(
        spec=ProgramSpec(),
        entry=int(rec_addr[0]),
        blocks={},
        branches=branch_map,
        behaviours=[],
        functions=[],
        code_start=base_addr,
        code_end=base_addr + 4 * len(uniq),
    )
    return program, stream, anomalies


# ----------------------------------------------------------------------
# The workload source
# ----------------------------------------------------------------------
@dataclass
class ChampSimTrace:
    """A ChampSim trace file as a first-class workload source."""

    path: str
    name: str = ""
    chunk_records: int = DEFAULT_CHUNK_RECORDS
    _digest: str | None = field(default=None, repr=False, compare=False)
    _anomalies: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.path = os.fspath(self.path)
        if not self.name:
            self.name = trace_name_for_path(self.path)
        if self.chunk_records < 1:
            raise ValueError("chunk_records must be positive")

    @property
    def category(self) -> str:
        return "trace"

    @property
    def source_kind(self) -> str:
        return "champsim"

    def digest(self) -> str:
        """SHA-256 of the trace file (computed once per source object)."""
        if self._digest is None:
            self._digest = file_digest(self.path)
        return self._digest

    def _decode(self, n_instructions: int) -> tuple[Program, OracleStream, dict]:
        prefix = load_decoded_prefix(self.path, n_instructions + TRACE_SLACK + 1, self.chunk_records)
        return build_workload(prefix, n_instructions)

    def materialize(self, n_instructions: int) -> tuple[Program, OracleStream]:
        """Decode the window's prefix and rebuild program + stream.

        The stream carries up to :data:`TRACE_SLACK` instructions of
        run-ahead margin past ``n_instructions`` when the file is long
        enough; shorter files fail with the usable window named.
        """
        program, stream, self._anomalies = self._decode(n_instructions)
        program.fetch_meta()
        return program, stream

    def expected_stream(self, n_instructions: int) -> OracleStream:
        """Independent re-decode of the file for the differential oracle
        (never the object :meth:`materialize` returned)."""
        return self._decode(n_instructions)[1]

    def fingerprint_data(self) -> dict:
        return {
            "kind": "champsim",
            "digest": self.digest(),
            "decoder": CHAMPSIM_DECODER_VERSION,
        }

    def info(self) -> dict:
        stat = os.stat(self.path)
        payload = {
            "source": self.source_kind,
            "path": self.path,
            "bytes": stat.st_size,
            "digest": self.digest(),
            "decoder_version": CHAMPSIM_DECODER_VERSION,
            "chunk_records": self.chunk_records,
        }
        if self._anomalies is not None:
            payload["anomalies"] = dict(self._anomalies)
        return payload


# ----------------------------------------------------------------------
# Encoder (fixtures and round-trip tests)
# ----------------------------------------------------------------------
_ENCODE_REGS = {
    BranchKind.COND_DIRECT: ((REG_INSTRUCTION_POINTER, REG_FLAGS, 0, 0), (REG_INSTRUCTION_POINTER, 0)),
    BranchKind.UNCOND_DIRECT: ((REG_INSTRUCTION_POINTER, 0, 0, 0), (REG_INSTRUCTION_POINTER, 0)),
    BranchKind.CALL_DIRECT: (
        (REG_INSTRUCTION_POINTER, REG_STACK_POINTER, 0, 0),
        (REG_INSTRUCTION_POINTER, REG_STACK_POINTER),
    ),
    BranchKind.RETURN: ((REG_STACK_POINTER, 0, 0, 0), (REG_INSTRUCTION_POINTER, REG_STACK_POINTER)),
    BranchKind.INDIRECT: ((15, 0, 0, 0), (REG_INSTRUCTION_POINTER, 0)),
    BranchKind.INDIRECT_CALL: ((REG_STACK_POINTER, 15, 0, 0), (REG_INSTRUCTION_POINTER, REG_STACK_POINTER)),
}


def encode_stream(stream: OracleStream) -> np.ndarray:
    """Encode a committed stream as raw ChampSim records.

    Walks every segment's instructions in commit order, emitting the
    canonical register pattern for each dynamic branch record and plain
    records for everything else.  Synthetic 4-byte addresses are written
    as the IPs (the decoder's rank remap is order-preserving, so a
    decode of the result reproduces the same structure).
    """
    records = np.zeros(stream.total_instructions, dtype=RECORD_DTYPE)
    row = 0
    for seg in stream.segments:
        bi = 0
        branches = seg.branches
        addr = seg.start
        for _ in range(seg.n_instrs):
            rec = records[row]
            rec["ip"] = addr
            if bi < len(branches) and branches[bi][0] == addr:
                _addr, kind, taken, _target = branches[bi]
                bi += 1
                src, dst = _ENCODE_REGS[kind]
                rec["is_branch"] = 1
                rec["taken"] = 1 if taken else 0
                rec["src_regs"] = src
                rec["dst_regs"] = dst
            addr += 4
            row += 1
    return records


def write_champsim_trace(path: str | Path, stream: OracleStream) -> Path:
    """Write a stream as a ChampSim trace file (.xz/.gz by suffix)."""
    path = Path(path)
    blob = encode_stream(stream).tobytes()
    name = path.name
    if name.endswith(".xz"):
        blob = lzma.compress(blob, preset=9)
    elif name.endswith(".gz"):
        blob = gzip.compress(blob, compresslevel=9, mtime=0)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)
    return path
