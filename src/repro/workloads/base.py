"""Workload framework: miniature PARSEC-like programs on the traced runtime.

The paper evaluates Sigil on serial PARSEC-2.1 workloads (plus SPEC
libquantum).  Those binaries cannot run under a pure-Python substrate, so
each workload here is a *synthetic miniature*: a small real program whose
function inventory, call structure, and dataflow shape mirror the original
benchmark's hot paths as the paper describes them.  They compute real
results (checked by tests) -- they are programs, not event generators.

Every workload:

* stages its input with untraced pokes plus a ``read`` syscall (mirroring
  how file data enters a real process without Valgrind seeing the kernel's
  stores),
* runs a ``main``-rooted call tree of traced kernels, and
* emits results through a ``write`` syscall.

Input sizes scale like PARSEC's simsmall / simmedium / simlarge.
"""

from __future__ import annotations

import abc
import enum
import zlib
from typing import TYPE_CHECKING, Any, ClassVar, Dict, Mapping, Optional

import numpy as np

if TYPE_CHECKING:
    from repro.runtime.runtime import TracedRuntime
    from repro.trace.observer import TraceObserver

__all__ = ["InputSize", "Workload"]


class InputSize(str, enum.Enum):
    """PARSEC-style input scales."""

    SIMSMALL = "simsmall"
    SIMMEDIUM = "simmedium"
    SIMLARGE = "simlarge"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Workload(abc.ABC):
    """Base class: a named, sized, deterministic traced program.

    Subclasses define ``PARAMS`` (per-size parameter dicts) and ``main``
    (the program body, which receives the :class:`TracedRuntime` whose
    function stack already contains ``main``).
    """

    #: Benchmark name as the paper reports it (e.g. ``"blackscholes"``).
    name: ClassVar[str] = ""
    #: Originating suite: ``"parsec"`` or ``"spec"``.
    suite: ClassVar[str] = "parsec"
    #: One-line description of what the miniature models.
    description: ClassVar[str] = ""
    #: Per-size parameters.
    PARAMS: ClassVar[Mapping[InputSize, Mapping[str, Any]]] = {}

    def __init__(self, size: InputSize | str = InputSize.SIMSMALL):
        self.size = InputSize(size)
        if self.size not in self.PARAMS:
            raise ValueError(f"{self.name}: no parameters for size {self.size}")

    @property
    def params(self) -> Dict[str, Any]:
        return dict(self.PARAMS[self.size])

    def rng(self) -> np.random.Generator:
        """Deterministic per-workload, per-size random source."""
        seed = zlib.crc32(f"{self.name}/{self.size.value}".encode())
        return np.random.default_rng(seed)

    def run(self, observer: Optional[TraceObserver] = None) -> TracedRuntime:
        """Execute the workload under ``observer`` and return the runtime."""
        # Imported here so `InputSize` (the CLI's --size choices) loads
        # without the runtime; every subclass module imports it anyway.
        from repro.runtime.runtime import TracedRuntime

        rt = TracedRuntime(observer)
        with rt.run("main"):
            self.main(rt)
        return rt

    @abc.abstractmethod
    def main(self, rt: TracedRuntime) -> None:
        """The program body (already inside the traced ``main``)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(size={self.size.value!r})"
