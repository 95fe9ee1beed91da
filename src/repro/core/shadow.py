"""Two-level shadow memory (Table I), after Nethercote & Seward.

"The goal of memory shadowing is to hold a shadow data object for every
unique byte used by the program. ... It is a two-level table, similar to an
operating system page-table, where each level is indexed by a portion of the
data byte-address.  The second-level structures are created only when the
corresponding portions of the address space are accessed.  These second-level
structures are a chunk of shadow objects which are initialized to 'invalid'
until the data byte corresponding to those addresses are used by the binary."
(paper, section II-B)

Each second-level chunk is one packed little-endian record buffer (a
``bytearray``), one record per shadowed unit.  The fields of Table I are
NumPy views into that buffer (``np.frombuffer`` with a record dtype), in
this order:

======================  =======  ==============================================
field                   dtype    meaning (Table I)
======================  =======  ==============================================
``writer``              int32    last writer (context id; -1 = invalid)
``reader``              int32    last reader (context id; -1 = invalid)
``reader_call``         int64    last reader call (global call number)
``writer_seg``          int64    segment that performed the last write
                                 (event mode only)
``reuse_count``         int32    # of non-unique accesses (reuse mode)
``win_first``           int64    re-use lifetime start (reuse mode)
``win_last``            int64    re-use lifetime finish (reuse mode)
======================  =======  ==============================================

A record is 16 B, 24 B with event mode, 36 B with reuse mode and 44 B with
both.  Packing the fields lets the profiler treat a run of units whose
records are byte-identical as one value: it compares raw bytes to find the
runs, decodes each run's record once with :mod:`struct`, and stores the
result back as one repeated record.  The shadow state under an access is
almost always uniform (the observation behind memcheck's distinguished
secondary maps), so an access costs O(1) interpreter work, not per-unit
array work.

The optional memory limit implements the paper's FIFO eviction of the shadow
pages whose addresses were least recently touched; before a page is dropped
its open re-use state is handed to a finalisation callback so aggregate
accuracy degrades gracefully (the paper reports the loss "negligible").
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from typing import Callable, Iterator, NamedTuple, Optional, Tuple

import numpy as np

__all__ = [
    "ShadowPage",
    "ShadowMemory",
    "SHADOW_PAGE_SIZE",
    "RecordLayout",
    "record_layout",
]

#: Shadow objects per second-level chunk.
SHADOW_PAGE_SIZE = 4096


#: (name, struct code, initial value) of every record field, in buffer order.
_BASE_FIELDS = (("writer", "i", -1), ("reader", "i", -1), ("reader_call", "q", -1))
_EVENT_FIELDS = (("writer_seg", "q", -1),)
_REUSE_FIELDS = (("reuse_count", "i", 0), ("win_first", "q", -1), ("win_last", "q", -1))
_FIELD_NAMES = tuple(
    name for name, _, _ in _BASE_FIELDS + _EVENT_FIELDS + _REUSE_FIELDS
)


def _record_fields(*, reuse_mode: bool, event_mode: bool):
    """The record's (name, struct code, initial value) fields, in order."""
    return (
        _BASE_FIELDS
        + (_EVENT_FIELDS if event_mode else ())
        + (_REUSE_FIELDS if reuse_mode else ())
    )


class RecordLayout(NamedTuple):
    """One mode's packed record: its ``struct`` format, the decoded initial
    record, and each field's index in a decoded record (``None`` when the
    field's mode is off)."""

    struct: struct.Struct
    initial: Tuple[int, ...]
    writer: int
    reader: int
    reader_call: int
    writer_seg: Optional[int]
    reuse_count: Optional[int]
    win_first: Optional[int]
    win_last: Optional[int]


def record_layout(*, reuse_mode: bool, event_mode: bool) -> RecordLayout:
    """The packed little-endian layout of one shadow record."""
    fields = _record_fields(reuse_mode=reuse_mode, event_mode=event_mode)
    names = [name for name, _, _ in fields]
    return RecordLayout(
        struct.Struct("<" + "".join(code for _, code, _ in fields)),
        tuple(init for _, _, init in fields),
        **{n: names.index(n) if n in names else None for n in _FIELD_NAMES},
    )


class ShadowPage:
    """Second-level chunk of shadow objects for one page of address space.

    ``buf`` holds the packed records and ``words`` is its ``(units, record
    size / 4)`` uint32 view (every record size is a multiple of 4), on which
    the profiler finds where runs of identical records end.  Each Table I
    field is a writable view into ``buf`` through the record dtype (``None``
    when its mode is off).
    """

    __slots__ = ("page_no", "buf", "words") + _FIELD_NAMES

    def __init__(self, page_no: int, *, reuse_mode: bool, event_mode: bool):
        self.page_no = page_no
        fields = _record_fields(reuse_mode=reuse_mode, event_mode=event_mode)
        layout = record_layout(reuse_mode=reuse_mode, event_mode=event_mode)
        self.buf = bytearray(layout.struct.pack(*layout.initial)) * SHADOW_PAGE_SIZE
        dtype = np.dtype([(name, "<" + code) for name, code, _ in fields])
        records = np.frombuffer(self.buf, dtype=dtype)
        self.words = np.frombuffer(self.buf, dtype="<u4").reshape(
            SHADOW_PAGE_SIZE, layout.struct.size // 4
        )
        for name in _FIELD_NAMES:
            setattr(self, name, records[name] if name in dtype.names else None)

    @property
    def nbytes(self) -> int:
        """Footprint of this page's shadow records in bytes."""
        return len(self.buf)


class ShadowMemory:
    """First level of the two-level table: page number -> shadow chunk.

    Parameters
    ----------
    reuse_mode, event_mode:
        Which optional shadow fields to allocate.
    max_pages:
        The memory-limit option; when set, the least recently touched page
        is evicted once the limit is exceeded.
    on_evict:
        Called with each page just before it is dropped, so the profiler can
        finalise open re-use windows and per-byte re-use counts.
    """

    def __init__(
        self,
        *,
        reuse_mode: bool = False,
        event_mode: bool = False,
        max_pages: Optional[int] = None,
        on_evict: Optional[Callable[[ShadowPage], None]] = None,
    ):
        self._pages: "OrderedDict[int, ShadowPage]" = OrderedDict()
        self._reuse_mode = reuse_mode
        self._event_mode = event_mode
        self._max_pages = max_pages
        self._on_evict = on_evict
        self.pages_created = 0
        self.pages_evicted = 0
        self.peak_pages = 0

    # -- lookup -----------------------------------------------------------

    def page(self, page_no: int) -> ShadowPage:
        """Get (or create) the shadow chunk for address page ``page_no``."""
        page = self._pages.get(page_no)
        if page is not None:
            if self._max_pages is not None:
                self._pages.move_to_end(page_no)
            return page
        page = ShadowPage(
            page_no, reuse_mode=self._reuse_mode, event_mode=self._event_mode
        )
        self._pages[page_no] = page
        self.pages_created += 1
        if len(self._pages) > self.peak_pages:
            self.peak_pages = len(self._pages)
        if self._max_pages is not None and len(self._pages) > self._max_pages:
            _, victim = self._pages.popitem(last=False)
            self.pages_evicted += 1
            if self._on_evict is not None:
                self._on_evict(victim)
        return page

    def chunks(self, addr: int, size: int) -> Iterator[Tuple[ShadowPage, int, int]]:
        """Split ``[addr, addr+size)`` into per-page (page, lo, hi) slices."""
        if size <= 0:
            return
        page_no = addr // SHADOW_PAGE_SIZE
        offset = addr % SHADOW_PAGE_SIZE
        remaining = size
        while remaining > 0:
            chunk = min(SHADOW_PAGE_SIZE - offset, remaining)
            yield self.page(page_no), offset, offset + chunk
            remaining -= chunk
            page_no += 1
            offset = 0

    def pages(self) -> Iterator[ShadowPage]:
        """All live pages (used by end-of-run finalisation)."""
        return iter(self._pages.values())

    # -- accounting ------------------------------------------------------------

    @property
    def live_pages(self) -> int:
        return len(self._pages)

    @property
    def shadow_bytes(self) -> int:
        """Current footprint of all live shadow chunks."""
        return len(self._pages) * self.page_bytes

    @property
    def peak_shadow_bytes(self) -> int:
        """Upper-bound footprint estimate from the peak live page count."""
        return self.peak_pages * self.page_bytes

    @property
    def page_bytes(self) -> int:
        """Footprint of one shadow chunk, from the record layout."""
        layout = record_layout(
            reuse_mode=self._reuse_mode, event_mode=self._event_mode
        )
        return layout.struct.size * SHADOW_PAGE_SIZE
