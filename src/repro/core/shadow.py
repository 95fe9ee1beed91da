"""Two-level shadow memory (Table I), after Nethercote & Seward.

"The goal of memory shadowing is to hold a shadow data object for every
unique byte used by the program. ... It is a two-level table, similar to an
operating system page-table, where each level is indexed by a portion of the
data byte-address.  The second-level structures are created only when the
corresponding portions of the address space are accessed.  These second-level
structures are a chunk of shadow objects which are initialized to 'invalid'
until the data byte corresponding to those addresses are used by the binary."
(paper, section II-B)

Each second-level chunk stores its maximal runs of identical shadow
records: the runs' start units, ascending from 0, in an ``array('H')``, and
one packed little-endian record per run, back to back in one ``bytearray``.
A record holds Table I's fields in this order: ``writer`` and ``reader``
(int32 context ids, -1 = invalid), ``reader_call`` (int64 global call
number), in event mode ``writer_seg`` (int64, the segment of the last
write), and in reuse mode ``reuse_count`` (int32, the non-unique accesses)
and ``win_first``/``win_last`` (int64, the re-use lifetime window).  That is
16 B, 24 B with event mode, 36 B with reuse mode and 44 B with both.

The shadow state under an access is almost always uniform (the observation
behind memcheck's distinguished secondary maps, here generalised from pages
to runs), so a page holds a handful of runs, not 4,096 records.  An access
bisects to the runs it covers, decodes each once with :mod:`struct`, and
splices the new records back in, merging equal neighbours: its work grows
with the runs it meets, not the units it covers.  The footprint reported
(:attr:`ShadowMemory.shadow_bytes`) stays the paper's per-byte model, 4,096
records per live page; :attr:`ShadowMemory.live_runs` counts the runs held.

The optional memory limit evicts the least recently touched shadow page
(the paper's "simple FIFO mechanism", but every touch renews a page); before
a page is dropped its open re-use state is handed to a finalisation callback
so aggregate accuracy degrades gracefully (the paper reports the loss
"negligible").
"""

from __future__ import annotations

import struct
from array import array
from collections import OrderedDict
from itertools import groupby
from operator import eq, itemgetter
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

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
    fields = (
        _BASE_FIELDS
        + (_EVENT_FIELDS if event_mode else ())
        + (_REUSE_FIELDS if reuse_mode else ())
    )
    names = [name for name, _, _ in fields]
    return RecordLayout(
        struct.Struct("<" + "".join(code for _, code, _ in fields)),
        tuple(init for _, _, init in fields),
        *(names.index(n) if n in names else None for n in RecordLayout._fields[2:]),
    )


class ShadowPage:
    """Second-level chunk of shadow objects for one page of address space.

    Run ``k`` covers units ``[starts[k], starts[k + 1])`` (the last run ends
    at the page end) and its packed record is ``recs[k * size:(k + 1) *
    size]``.  Runs are maximal: no two neighbours hold equal records.
    """

    __slots__ = ("page_no", "size", "starts", "recs")

    def __init__(self, page_no: int, *, reuse_mode: bool, event_mode: bool):
        layout = record_layout(reuse_mode=reuse_mode, event_mode=event_mode)
        self.page_no = page_no
        self.size = layout.struct.size
        self.starts = array("H", (0,))
        self.recs = bytearray(layout.struct.pack(*layout.initial))

    @property
    def nbytes(self) -> int:
        """This page's footprint in the per-byte model (a record per unit)."""
        return self.size * SHADOW_PAGE_SIZE

    def splice(self, i: int, j: int, lo: int, hi: int, new: List[bytes]) -> None:
        """Replace the records of runs ``[i, j)``, the runs that units
        ``[lo, hi)`` meet, within those units: ``new[k - i]`` is run ``k``'s
        new record there, or ``new`` is one record for all of ``[lo, hi)``.
        The parts of runs ``i`` and ``j - 1`` outside ``[lo, hi)`` keep
        their records, and equal neighbours merge."""
        starts = self.starts
        recs = self.recs
        size = self.size
        end = starts[j] if j < len(starts) else SHADOW_PAGE_SIZE
        if j == i + 1:
            # A partly covered run that keeps its record does not change.
            if (starts[i] < lo or end > hi) and recs.startswith(new[0], i * size):
                return
        elif len(new) == 1:
            # One record over several runs: keep run i, and run j - 1 only
            # for what of it lies past hi.
            keep = j
            if end > hi:
                keep -= 1
                starts[keep] = hi
            del starts[i + 1 : keep]
            del recs[(i + 1) * size : keep * size]
            j = i + 1
            end = hi
        # Cut runs j - 1 at hi and i at lo (at most two inserts), so that
        # runs [i, j) span [lo, hi) exactly.
        if end > hi:
            starts.insert(j, hi)
            recs[j * size : j * size] = recs[(j - 1) * size : j * size]
        if starts[i] < lo:
            i += 1
            j += 1
            starts.insert(i, lo)
            recs[i * size : i * size] = recs[(i - 1) * size : i * size]
        recs[i * size : j * size] = b"".join(new)
        # Merge equal neighbours: the last new run with run j, new runs with
        # each other (rare), and the first new run with run i - 1.
        if recs.startswith(new[-1], j * size):
            del starts[j]
            del recs[j * size : (j + 1) * size]
        if j > i + 1 and any(map(eq, new, new[1:])):
            runs = [(starts[k], recs[k * size : (k + 1) * size]) for k in range(i, j)]
            kept = [next(group) for _, group in groupby(runs, itemgetter(1))]
            starts[i:j] = array("H", [start for start, _ in kept])
            recs[i * size : j * size] = b"".join([rec for _, rec in kept])
        if i and recs.startswith(new[0], (i - 1) * size):
            del starts[i]
            del recs[i * size : (i + 1) * size]


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
    def live_runs(self) -> int:
        """Runs of identical records the live shadow chunks hold."""
        return sum(len(page.starts) for page in self._pages.values())

    @property
    def shadow_bytes(self) -> int:
        """Current footprint of all live shadow chunks (per-byte model)."""
        return len(self._pages) * self.page_bytes

    @property
    def peak_shadow_bytes(self) -> int:
        """Footprint at the peak live page count (per-byte model)."""
        return self.peak_pages * self.page_bytes

    @property
    def page_bytes(self) -> int:
        """Footprint of one shadow chunk in the per-byte model."""
        layout = record_layout(
            reuse_mode=self._reuse_mode, event_mode=self._event_mode
        )
        return layout.struct.size * SHADOW_PAGE_SIZE
