"""Miniature *dedup*: deduplicated, compressed archival pipeline.

PARSEC's dedup fragments a stream into chunks, fingerprints them with SHA-1,
deduplicates via a hash table, and compresses unique chunks with zlib.  The
paper's Table II lists ``sha1_block_data_order`` twice (two calling
contexts), ``_tr_flush_block``, ``write_file`` and ``adler32`` among the top
candidates; ``hashtable_search`` appears among the worst (pointer-chasing,
little compute).  dedup is also the one benchmark that needed Sigil's
memory-limit option: the pipeline keeps allocating fresh chunk buffers, so
its touched address range (and thus shadow footprint) grows with the input
(section III-A).

The miniature preserves all of that: per-chunk output buffers come from
fresh arena allocations, SHA-1 runs from both ``FragmentRefine`` and
``Deduplicate`` contexts, and ``write_file`` copies into the archive buffer
while ``main`` performs the actual I/O syscalls.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.decorators import traced
from repro.runtime.memory import Buffer
from repro.runtime.runtime import TracedRuntime
from repro.workloads.base import InputSize, Workload
from repro.workloads.lib import LibEnv, memcpy, op_new

__all__ = ["Dedup"]


@traced("sha1_block_data_order")
def sha1_block(rt: TracedRuntime, data: Buffer, start: int, count: int, digest: Buffer) -> None:
    """SHA-1 compression over 64-byte blocks: compute-dense (80 rounds)."""
    acc = np.zeros(4, dtype=np.int64)
    for off in range(start, start + count, 64):
        block = data.read_block(off, min(64, start + count - off))
        rt.iops(80 * 4)
        acc = (acc * 31 + int(block.sum())) & 0x7FFFFFFF
    digest.write_block(acc, 0)


@traced("adler32")
def adler32(rt: TracedRuntime, data: Buffer, start: int, count: int) -> int:
    """Rolling checksum "optimized for speed over accuracy"."""
    block = data.read_block(start, count)
    rt.iops(2 * count)
    a = int(block.sum()) % 65521
    b = int(np.arange(count, 0, -1).dot(block)) % 65521
    return (b << 16) | a


@traced("hashtable_search")
def hashtable_search(
    rt: TracedRuntime, table: Buffer, digest: Buffer, probes: int
) -> int:
    """Open-addressing probe walk: much memory, little compute (Table III)."""
    key = int(digest.read(0))
    slot = key % (table.length - probes)
    for i in range(probes):
        entry = int(table.read(slot + i))
        rt.iops(4)
        if entry == 0 or entry == key:
            table.write(slot + i, key)
            return int(entry == key)
    return 0


@traced("_tr_flush_block")
def tr_flush_block(
    rt: TracedRuntime, chunk: Buffer, start: int, count: int, out: Buffer
) -> int:
    """zlib block flush: Huffman code emit over the chunk."""
    data = chunk.read_block(start, count)
    rt.iops(6 * count)
    packed = (data.astype(np.int64) * 131) % 251
    n_out = max(8, count * 5 // 8)
    out.write_block(packed[:n_out].astype(out.dtype), 0)
    return n_out


@traced("Compress")
def compress(
    rt: TracedRuntime, env: LibEnv, chunk: Buffer, start: int, count: int, out: Buffer
) -> int:
    rt.iops(12)
    n_out = tr_flush_block(rt, chunk, start, count, out)
    adler32(rt, out, 0, min(n_out, out.length))
    return n_out


@traced("write_file")
def write_file(
    rt: TracedRuntime, env: LibEnv, src: Buffer, count: int, archive: Buffer, stream_state: Buffer
) -> int:
    """Append a compressed chunk to the archive image (main does the I/O).

    The archive cursor lives in memory: successive calls read and advance
    it, serialising the output stage as a real container writer would.
    """
    pos = int(stream_state.read(0))
    count = min(count, archive.length - pos)
    memcpy(rt, archive, pos, src, 0, count)
    rt.iops(10)
    stream_state.write(0, pos + count)
    return pos + count


@traced("Deduplicate")
def deduplicate(
    rt: TracedRuntime,
    env: LibEnv,
    stream: Buffer,
    start: int,
    count: int,
    digest: Buffer,
    table: Buffer,
) -> bool:
    """Hash-table lookup; on collision re-verify the fingerprint."""
    rt.iops(8)
    duplicate = hashtable_search(rt, table, digest, probes=4)
    if duplicate:
        # Verify against hash collisions: second sha1 context (Table II).
        sha1_block(rt, stream, start, min(64, count), digest)
    return bool(duplicate)


@traced("FragmentRefine")
def fragment_refine(
    rt: TracedRuntime,
    env: LibEnv,
    stream: Buffer,
    start: int,
    count: int,
    digest: Buffer,
) -> None:
    """Rabin-style boundary scan + first-context SHA-1 fingerprint.

    The rolling-hash window slides in overlapping steps, so every stream
    byte is read twice by the scan (visible as 1-9 re-use in Figure 8).
    """
    window_size = 32
    for off in range(start, start + count - window_size + 1, window_size // 2):
        stream.read_block(off, window_size)
        rt.iops(window_size)
        rt.branch("rabin.slide", off + window_size < start + count)
    sha1_block(rt, stream, start, count, digest)


class Dedup(Workload):
    """Chunking + SHA-1 dedup + compression pipeline (PARSEC miniature)."""
    name = "dedup"
    description = "chunking + SHA-1 dedup + zlib-style compression pipeline"

    PARAMS = {
        InputSize.SIMSMALL: {"n_chunks": 48, "chunk_size": 512, "table_slots": 1024},
        InputSize.SIMMEDIUM: {"n_chunks": 96, "chunk_size": 512, "table_slots": 2048},
        InputSize.SIMLARGE: {"n_chunks": 192, "chunk_size": 512, "table_slots": 4096},
    }

    def main(self, rt: TracedRuntime) -> None:
        p = self.params
        n_chunks, chunk_size = p["n_chunks"], p["chunk_size"]
        rng = self.rng()
        env = LibEnv.create(rt.arena)

        stream = rt.arena.alloc_u8("dedup.stream", n_chunks * chunk_size)
        digest = rt.arena.alloc_i64("dedup.digest", 4)
        table = rt.arena.alloc_i64("dedup.table", p["table_slots"])
        archive = rt.arena.alloc_u8("dedup.archive", n_chunks * chunk_size)
        stream_state = rt.arena.alloc_i64("dedup.stream_state", 2)

        # ~25% duplicate chunks: repeat a base pattern.
        base = rng.integers(0, 256, chunk_size)
        data = rng.integers(0, 256, stream.length)
        for i in range(0, n_chunks, 4):
            data[i * chunk_size : (i + 1) * chunk_size] = base
        stream.poke_block(data)
        rt.syscall("read", output_bytes=stream.nbytes)
        op_new(rt, env, archive.length)

        pos = 0
        written = 0
        for i in range(n_chunks):
            # Pipeline queue management, refcounting, anchoring bookkeeping
            # in the Encode driver.
            rt.iops(250)
            rt.branch("encode.chunk", i + 1 < n_chunks)
            start = i * chunk_size
            fragment_refine(rt, env, stream, start, chunk_size, digest)
            if not deduplicate(rt, env, stream, start, chunk_size, digest, table):
                # Fresh output buffer per unique chunk: the growing address
                # footprint that motivates the shadow-memory page limit.
                out = rt.arena.alloc_u8(f"dedup.out{i}", chunk_size)
                n_out = compress(rt, env, stream, start, chunk_size, out)
                pos = write_file(rt, env, out, n_out, archive, stream_state)
                written += 1

        rt.iops(8)
        self.checksum = float(pos + written)
        rt.syscall("write", input_bytes=pos)
