"""Configuration for the Sigil profiler."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["DEFAULT_WINDOW_OPS", "SigilConfig"]

#: Default window width, in operations, of the time-resolved curves
#: (:mod:`repro.analysis.windowed`).  It lives here, with the other
#: standard-library-only knobs, so the CLI's ``--window`` default costs no
#: numpy import.
DEFAULT_WINDOW_OPS = 4096


@dataclass(frozen=True)
class SigilConfig:
    """Knobs of a Sigil run, mirroring the tool's command line.

    Attributes
    ----------
    reuse_mode:
        Extend every shadow object with re-use variables (Table I,
        "Additional variables for Reuse mode"): per-byte re-use counts and
        re-use lifetime windows, aggregated per function context.
    event_mode:
        Record the execution as a sequence of dependent events (compute
        segments joined by data-transfer edges) in addition to aggregates;
        required for critical-path analysis (sections II-C2, IV-C).
    max_shadow_pages:
        The paper's memory-limit command-line option: bound the number of
        live shadow pages, evicting the least recently touched page (every
        touch renews a page) when the bound is exceeded.  The paper calls it
        "a simple FIFO mechanism to free up space from shadow bytes of
        addresses that have been least recently touched".  ``None`` disables
        the limit.  The paper enables this only for dedup.
    line_size:
        Granularity of shadowing in bytes.  1 is the paper's byte-level
        default; setting the cache line size (e.g. 64) gives the
        line-granularity mode of section IV-B3 / Figure 12.
    """

    reuse_mode: bool = False
    event_mode: bool = False
    max_shadow_pages: Optional[int] = None
    line_size: int = 1

    def __post_init__(self) -> None:
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ValueError("line_size must be a positive power of two")
        if self.max_shadow_pages is not None and self.max_shadow_pages <= 0:
            raise ValueError("max_shadow_pages must be positive or None")
