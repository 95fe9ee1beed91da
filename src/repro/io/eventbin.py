"""Binary columnar event logs (``# sigil-events 2``): the one readable form.

Version 2 stores an event log as NumPy structured arrays in
length-prefixed chunks, so logs stream to disk while they are collected
and stream back as whole arrays, never touching a per-row Python object.
Every event-log input -- :func:`load_event_arrays`, the streaming analyses,
``repro critpath``/``timeline``/``trace`` -- reads through
:func:`iter_event_chunks`.  The v1 text format (:mod:`repro.io.eventfile`)
is write-only, for reading and diffing by eye; its magic is recognised
here only to reject it by name.

Layout::

    # sigil-events 2\\n                       ASCII magic line
    <chunk> <chunk> ... <chunk>              length-prefixed chunks

Every chunk is ``tag[4] codec[4] length[u64-le] payload[length]``:

========  =====================================================
``head``  JSON header: format version, chunk row target, codec
``segs``  rows of :data:`~repro.core.segments.SEG_DTYPE`
          (ctx, call, start, ops, thread; seg id = row index)
``oced``  rows of :data:`~repro.core.segments.OC_EDGE_DTYPE`
          (kind 0=order/1=call, src, dst; insertion order kept)
``data``  rows of :data:`~repro.core.segments.DATA_EDGE_DTYPE`
          (src, dst, unique bytes)
``end.``  JSON trailer: total row counts, for truncation checks
========  =====================================================

Codecs are ``raw.`` (verbatim), ``gzip`` (zlib) and ``zstd`` (only when the
optional :mod:`zstandard` package is installed; never required).  A table
may span any number of chunks -- the streaming writer emits a chunk
whenever its buffer fills, so serialisation needs O(chunk) memory, and the
streaming reader (:func:`iter_event_chunks`) hands back one decoded array
per chunk without materialising the file.

The format is lossless: the v1 text of a log loaded back from v2 is
byte-identical to the v1 text of the log itself (segment order, the
interleaving of order/call edges, and aggregated data-edge order are all
preserved).
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from pathlib import Path
from typing import BinaryIO, Iterator, Optional, Tuple, Union

import numpy as np

from repro.core.segments import (
    DATA_EDGE_DTYPE,
    OC_EDGE_DTYPE,
    SEG_DTYPE,
    EventArrays,
    first_violation,
)

__all__ = [
    "MAGIC_V2",
    "BinaryEventWriter",
    "dump_events_bin",
    "dumps_events_bin",
    "load_event_arrays",
    "iter_event_chunks",
    "locate_row",
    "zstd_available",
    "TABLE_NAMES",
]

MAGIC_V2 = b"# sigil-events 2\n"
#: The write-only v1 text format's magic, recognised only to reject it.
_MAGIC_V1 = b"# sigil-events 1"

_TAG_HEAD = b"head"
_TAG_SEGS = b"segs"
_TAG_OCED = b"oced"
_TAG_DATA = b"data"
_TAG_END = b"end."

_CODEC_RAW = b"raw."
_CODEC_GZIP = b"gzip"
_CODEC_ZSTD = b"zstd"

_CHUNK_HEADER = struct.Struct("<4s4sQ")

#: Rows per chunk before the streaming writer flushes (per table).
DEFAULT_CHUNK_ROWS = 1 << 18

_DTYPES = {
    _TAG_SEGS: SEG_DTYPE,
    _TAG_OCED: OC_EDGE_DTYPE,
    _TAG_DATA: DATA_EDGE_DTYPE,
}


def zstd_available() -> bool:
    """Whether the optional zstandard codec can be used on this machine."""
    try:
        import zstandard  # noqa: F401
    except ImportError:
        return False
    return True


def _encode(payload: bytes, codec: bytes) -> bytes:
    if codec == _CODEC_RAW:
        return payload
    if codec == _CODEC_GZIP:
        return zlib.compress(payload, 6)
    if codec == _CODEC_ZSTD:
        import zstandard

        return zstandard.ZstdCompressor().compress(payload)
    raise ValueError(f"unknown event-chunk codec {codec!r}")


def _decode(payload: bytes, codec: bytes, what: str) -> bytes:
    """``payload`` decoded; a codec failure is a ValueError naming ``what``."""
    if codec == _CODEC_RAW:
        return payload
    if codec == _CODEC_GZIP:
        decompress, codec_error = zlib.decompress, zlib.error
    elif codec == _CODEC_ZSTD:
        try:
            import zstandard
        except ImportError:
            raise ValueError(
                "event file uses zstd chunks but the zstandard package "
                f"is not installed ({what})"
            ) from None
        decompress = zstandard.ZstdDecompressor().decompress
        codec_error = zstandard.ZstdError
    else:
        raise ValueError(f"unknown event-chunk codec {codec!r} in {what}")
    try:
        return decompress(payload)
    except codec_error as exc:
        raise ValueError(
            f"corrupt event file: {codec!r} decode failed in {what}: {exc}"
        ) from exc


def _codec_for(compression: Optional[str]) -> bytes:
    if compression in (None, "none", "raw"):
        return _CODEC_RAW
    if compression == "gzip":
        return _CODEC_GZIP
    if compression == "zstd":
        if not zstd_available():
            raise ValueError(
                "zstd compression requested but zstandard is not installed"
            )
        return _CODEC_ZSTD
    raise ValueError(f"unknown compression {compression!r}")


class BinaryEventWriter:
    """Streaming chunk writer for ``# sigil-events 2``.

    Rows arrive as structured arrays (:meth:`write_segments`,
    :meth:`write_order_call_edges`, :meth:`write_data_edges`) in any
    number of calls; a chunk goes to disk whenever a table's buffer
    reaches ``chunk_rows``, so the log never has to be fully materialised
    to serialise.  Usable as a context manager; :meth:`close` seals the
    file with the trailer chunk.
    """

    def __init__(
        self,
        sink: Union[str, Path, BinaryIO],
        *,
        compression: Optional[str] = "gzip",
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ):
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        self._codec = _codec_for(compression)
        self._chunk_rows = chunk_rows
        if hasattr(sink, "write"):
            self._fh: BinaryIO = sink  # type: ignore[assignment]
            self._owns_fh = False
        else:
            self._fh = open(sink, "wb")
            self._owns_fh = True
        self._counts = {_TAG_SEGS: 0, _TAG_OCED: 0, _TAG_DATA: 0}
        self._buffers = {tag: [] for tag in self._counts}
        self._buffered = {tag: 0 for tag in self._counts}
        self._closed = False
        self._fh.write(MAGIC_V2)
        self._write_chunk(
            _TAG_HEAD,
            json.dumps(
                {
                    "version": 2,
                    "chunk_rows": chunk_rows,
                    "codec": self._codec.decode().rstrip("."),
                }
            ).encode(),
            codec=_CODEC_RAW,
        )

    # -- low level ---------------------------------------------------------

    def _write_chunk(self, tag: bytes, payload: bytes, *, codec: bytes) -> None:
        encoded = _encode(payload, codec)
        self._fh.write(_CHUNK_HEADER.pack(tag, codec, len(encoded)))
        self._fh.write(encoded)

    def _append(self, tag: bytes, rows: np.ndarray) -> None:
        if self._closed:
            raise ValueError("writer is closed")
        rows = np.ascontiguousarray(rows, dtype=_DTYPES[tag])
        if not len(rows):
            return
        self._counts[tag] += len(rows)
        self._buffers[tag].append(rows)
        self._buffered[tag] += len(rows)
        if self._buffered[tag] >= self._chunk_rows:
            self._flush_table(tag)

    def _flush_table(self, tag: bytes) -> None:
        if not self._buffered[tag]:
            return
        block = (
            self._buffers[tag][0]
            if len(self._buffers[tag]) == 1
            else np.concatenate(self._buffers[tag])
        )
        for start in range(0, len(block), self._chunk_rows):
            rows = block[start : start + self._chunk_rows]
            self._write_chunk(tag, rows.tobytes(), codec=self._codec)
        self._buffers[tag] = []
        self._buffered[tag] = 0

    # -- bulk appends ------------------------------------------------------

    def write_segments(self, segs: np.ndarray) -> None:
        """Append rows of :data:`SEG_DTYPE` (seg ids = arrival order)."""
        self._append(_TAG_SEGS, segs)

    def write_order_call_edges(self, edges: np.ndarray) -> None:
        """Append rows of :data:`OC_EDGE_DTYPE` in insertion order."""
        self._append(_TAG_OCED, edges)

    def write_data_edges(self, edges: np.ndarray) -> None:
        """Append rows of :data:`DATA_EDGE_DTYPE` (aggregated per pair)."""
        self._append(_TAG_DATA, edges)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Flush buffered rows and seal the file with the trailer chunk."""
        if self._closed:
            return
        for tag in (_TAG_SEGS, _TAG_OCED, _TAG_DATA):
            self._flush_table(tag)
        self._write_chunk(
            _TAG_END,
            json.dumps(
                {
                    "segments": self._counts[_TAG_SEGS],
                    "order_call_edges": self._counts[_TAG_OCED],
                    "data_edges": self._counts[_TAG_DATA],
                }
            ).encode(),
            codec=_CODEC_RAW,
        )
        self._closed = True
        if self._owns_fh:
            self._fh.close()

    def __enter__(self) -> "BinaryEventWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# whole-log serialisation
# ---------------------------------------------------------------------------


def dump_events_bin(
    events: EventArrays,
    sink: Union[str, Path, BinaryIO],
    *,
    compression: Optional[str] = "gzip",
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> None:
    """Write an event log as ``# sigil-events 2``."""
    with BinaryEventWriter(
        sink, compression=compression, chunk_rows=chunk_rows
    ) as writer:
        writer.write_segments(events.segs)
        writer.write_order_call_edges(events.ordercall)
        writer.write_data_edges(events.data)


def dumps_events_bin(
    events: EventArrays,
    *,
    compression: Optional[str] = "gzip",
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> bytes:
    """Serialise an event log to ``# sigil-events 2`` bytes."""
    buf = io.BytesIO()
    dump_events_bin(
        events, buf, compression=compression, chunk_rows=chunk_rows
    )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------


#: Largest single ``read`` when fetching a chunk payload.
_READ_BLOCK = 1 << 24


def _read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    # Bounded reads: a corrupt 64-bit chunk length then ends in a short
    # read at end of file instead of one allocation of that many bytes.
    parts = []
    while n > 0:
        part = fh.read(min(n, _READ_BLOCK))
        if not part:
            raise ValueError(f"truncated event file: short read in {what}")
        parts.append(part)
        n -= len(part)
    return b"".join(parts)


#: Table names accepted by ``iter_event_chunks(..., tables=...)``.
TABLE_NAMES = ("segs", "oced", "data")

_TAG_BY_NAME = {
    "segs": _TAG_SEGS,
    "oced": _TAG_OCED,
    "data": _TAG_DATA,
}


def iter_event_chunks(
    source: Union[str, Path, BinaryIO],
    *,
    tables: Optional[Tuple[str, ...]] = None,
) -> Iterator[Tuple[str, np.ndarray]]:
    """Stream decoded chunks of a v2 file as ``(table, rows)`` pairs.

    ``table`` is ``"segs"``, ``"oced"`` or ``"data"``; ``rows`` is one
    structured array per on-disk chunk.  Constant memory in the file size:
    one chunk is decoded at a time, which is what lets analyses run
    out-of-core over logs larger than RAM.  ``tables`` restricts the yield
    to a subset of tables; chunks of other tables are skipped without
    decoding their payloads (their trailer counts are then not verified,
    since counting rows would require the decode being skipped).

    Raises :class:`ValueError` on a write-only v1 text log, a bad magic,
    an unknown chunk tag or codec, a payload its codec cannot decode, or a
    truncated file (no trailer, a row-count mismatch, or a chunk length
    past the end of the file); truncation and corruption errors name the
    chunk index and the byte offset at which the bad chunk starts, so a
    damaged log can be inspected with ``dd``/``xxd`` directly.
    """
    for table, rows, _where in _located_chunks(source, tables):
        yield table, rows


def locate_row(
    source: Union[str, Path, BinaryIO], table: str, row: int
) -> Optional[str]:
    """Where ``table``'s row ``row`` was read from: ``"chunk C at byte B"``.

    A second pass over ``source`` (decoding only ``table``'s chunks), for
    naming a bad row once a streamed check has found one; None if the
    table has fewer rows.
    """
    seen = 0
    for _table, rows, where in _located_chunks(source, (table,)):
        seen += len(rows)
        if row < seen:
            return where
    return None


def _located_chunks(
    source: Union[str, Path, BinaryIO],
    tables: Optional[Tuple[str, ...]],
) -> Iterator[Tuple[str, np.ndarray, str]]:
    """:func:`iter_event_chunks`, each chunk with where it starts."""
    if tables is not None:
        unknown = set(tables) - set(TABLE_NAMES)
        if unknown:
            raise ValueError(f"unknown event tables {sorted(unknown)!r}")
    wanted = (
        None if tables is None else {_TAG_BY_NAME[name] for name in tables}
    )
    fh: BinaryIO
    if hasattr(source, "read"):
        fh = source  # type: ignore[assignment]
        owns = False
    else:
        fh = open(source, "rb")
        owns = True
    try:
        magic = fh.read(len(MAGIC_V2))
        if magic.startswith(_MAGIC_V1):
            raise ValueError(
                "a v1 text event log (magic '# sigil-events 1' at byte 0) "
                "is write-only, for reading by eye; event readers take v2 "
                "(write it with --events-format bin, the default)"
            )
        if magic != MAGIC_V2:
            raise ValueError(
                f"not a v2 sigil event file (bad magic {magic!r} at byte 0)"
            )
        counts = {_TAG_SEGS: 0, _TAG_OCED: 0, _TAG_DATA: 0}
        sealed = False
        # Chunk index and byte offset of the chunk being read, tracked
        # manually so error messages work on unseekable streams too.
        index = 0
        offset = len(MAGIC_V2)
        while True:
            header = fh.read(_CHUNK_HEADER.size)
            if not header:
                break
            where = f"chunk {index} at byte {offset}"
            if len(header) != _CHUNK_HEADER.size:
                raise ValueError(
                    f"truncated event file: partial chunk header ({where})"
                )
            tag, codec, length = _CHUNK_HEADER.unpack(header)
            skip = (
                wanted is not None
                and tag not in (_TAG_HEAD, _TAG_END)
                and tag not in wanted
            )
            what = f"{tag!r} payload ({where})"
            if skip:
                # Advance past the payload without decoding it.
                _read_exact(fh, length, what)
                payload = b""
            else:
                payload = _decode(_read_exact(fh, length, what), codec, what)
            index += 1
            offset += _CHUNK_HEADER.size + length
            if skip or tag == _TAG_HEAD:
                continue
            if tag == _TAG_END:
                try:
                    trailer = json.loads(payload.decode())
                except ValueError as exc:  # bad UTF-8 or bad JSON
                    raise ValueError(
                        f"corrupt event file: unreadable trailer in {what}"
                    ) from exc
                if not isinstance(trailer, dict):
                    raise ValueError(
                        f"corrupt event file: trailer is not an object in "
                        f"{what}"
                    )
                expected = {
                    t: trailer.get(name, 0)
                    for t, name in (
                        (_TAG_SEGS, "segments"),
                        (_TAG_OCED, "order_call_edges"),
                        (_TAG_DATA, "data_edges"),
                    )
                    if wanted is None or t in wanted
                }
                read = {t: counts[t] for t in expected}
                if expected != read:
                    raise ValueError(
                        "corrupt event file: trailer row counts "
                        f"{expected} != read {read} ({where})"
                    )
                sealed = True
                continue
            dtype = _DTYPES.get(tag)
            if dtype is None:
                raise ValueError(
                    f"unknown event-chunk tag {tag!r} ({where})"
                )
            if len(payload) % dtype.itemsize:
                raise ValueError(
                    f"corrupt event file: {len(payload)} bytes are not whole "
                    f"{dtype.itemsize}-byte rows in {what}"
                )
            rows = np.frombuffer(payload, dtype=dtype)
            counts[tag] += len(rows)
            yield tag.decode().rstrip("."), rows, where
        if not sealed:
            raise ValueError(
                "truncated event file: missing trailer (writer not "
                f"closed?) after chunk {index} at byte {offset}"
            )
    finally:
        if owns:
            fh.close()


def load_event_arrays(source: Union[str, Path, BinaryIO]) -> EventArrays:
    """Load a v2 event log into :class:`EventArrays` (no per-row objects).

    The one event-log loader.  Besides :func:`iter_event_chunks`' errors,
    a row that breaks :func:`~repro.core.segments.check_rows` raises a
    :class:`ValueError` naming its table row and the chunk and byte offset
    it was read from.
    """
    blocks = {name: [] for name in TABLE_NAMES}
    wheres = {name: [] for name in TABLE_NAMES}
    for table, rows, where in _located_chunks(source, None):
        blocks[table].append(rows)
        wheres[table].append(where)

    def cat(name: str, dtype) -> np.ndarray:
        table = blocks[name]
        if not table:
            return np.empty(0, dtype=dtype)
        return table[0] if len(table) == 1 else np.concatenate(table)

    arrays = EventArrays(
        segs=cat("segs", SEG_DTYPE),
        ordercall=cat("oced", OC_EDGE_DTYPE),
        data=cat("data", DATA_EDGE_DTYPE),
    )
    for name, rows in zip(
        TABLE_NAMES, (arrays.segs, arrays.ordercall, arrays.data)
    ):
        bad = first_violation(name, rows, arrays.n_segments)
        if bad is not None:
            row, message = bad
            ends = np.cumsum([len(block) for block in blocks[name]])
            chunk = int(np.searchsorted(ends, row, side="right"))
            raise ValueError(
                f"{message} ({name} row {row}, in {wheres[name][chunk]})"
            )
    return arrays
