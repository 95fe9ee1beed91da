"""Package exports that import their defining submodule on first use.

Every re-exporting package ``__init__`` names its exports in one table,
from defining submodule to the names it exports, and hands the table to
:func:`lazy_exports`.  ``from repro.core import SigilProfiler`` keeps
working, but ``import repro.core.segments`` no longer drags the profiler
and its shadow memory in with it: a process imports only the modules it
touches.  The table is also where ``__all__`` and ``dir()`` come from, so
an export is named once.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package`` (PEP 562).

    ``table`` maps each defining module (absolute dotted name) to the
    names the package re-exports from it.  The returned ``__getattr__``
    imports a name's module on first access and caches the value on the
    package, so later lookups are plain attribute reads.  A name that is
    in no row raises ``AttributeError``, which also lets ``from package
    import submodule`` fall through to the import system.
    """
    origin: Dict[str, str] = {
        name: module for module, names in table.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return list(origin), __getattr__, __dir__
