"""Structured run manifests: the machine-readable record of one run.

Every telemetry-enabled profiling run emits a JSON manifest next to its
profile output.  The manifest is the self-overhead counterpart of the
profile itself: what ran (workload, size, config hash, git revision), how
long each pipeline phase took, the metric snapshot (shadow footprint,
classification totals, per-kind event counts), and the achieved events/sec
throughput.  ``repro stats`` renders and compares these files, and the
benchmark harness appends one line per run to
``benchmarks/results/manifests.jsonl`` -- the longitudinal performance
trajectory future optimisation PRs measure themselves against.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

__all__ = ["MANIFEST_SCHEMA", "Manifest", "build_manifest", "config_hash", "git_rev"]

#: Version tag embedded in every manifest; bump on incompatible change.
MANIFEST_SCHEMA = "repro-manifest/1"


def config_hash(config: Union[Mapping[str, Any], Any, None]) -> str:
    """Stable short hash of a configuration mapping or dataclass.

    The hash keys the manifest to the exact tool configuration, so two
    manifests compare apples-to-apples only when their hashes agree.
    """
    if config is None:
        payload: Any = {}
    elif dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = dataclasses.asdict(config)
    else:
        payload = dict(config)
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()
    return digest[:12]


def git_rev(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """Short git revision of ``cwd`` (or this checkout); None if unavailable."""
    where = Path(cwd) if cwd is not None else Path(__file__).resolve().parent
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=where,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


@dataclass
class Manifest:
    """One run's structured self-telemetry record (JSON round-trippable)."""

    workload: str
    size: str
    command: str = ""
    config: Dict[str, Any] = field(default_factory=dict)
    config_hash: str = ""
    git_rev: Optional[str] = None
    phases: Dict[str, float] = field(default_factory=dict)
    #: Completed phase spans ``[path, start, end]`` (second offsets from the
    #: first timer reading); empty in pre-span manifests.
    spans: list = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    events_total: int = 0
    events_per_sec: float = 0.0
    created_unix: float = 0.0
    schema: str = MANIFEST_SCHEMA

    # -- conversion -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form, suitable for ``json.dumps``."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Manifest":
        """Rebuild from a dict, ignoring unknown keys (forward compat)."""
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        """Parse a manifest from its JSON form.

        Raises :class:`ValueError`: a JSON syntax error names its line and
        column; a top-level value that is not an object, or an object
        lacking the ``workload`` or ``size`` every manifest has, is named
        as such.
        """
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(
                "manifest JSON must be an object; the top-level value is "
                f"a {type(data).__name__}"
            )
        missing = [key for key in ("workload", "size") if key not in data]
        if missing:
            raise ValueError(
                "manifest JSON object lacks the key(s) "
                + ", ".join(repr(key) for key in missing)
            )
        return cls.from_dict(data)

    # -- files ------------------------------------------------------------

    def write(self, path: Union[str, Path]) -> Path:
        """Write the manifest to ``path`` and return it."""
        target = Path(path)
        target.write_text(self.to_json() + "\n")
        return target

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Manifest":
        """Load a manifest written by :meth:`write`."""
        return cls.from_json(Path(path).read_text())

    # -- convenience lookups ----------------------------------------------

    def metric(self, name: str, default: Any = 0) -> Any:
        """A metric value by dotted name, with a default for absent keys."""
        return self.metrics.get(name, default)

    def phase_seconds(self, name: str) -> float:
        """Wall seconds of one phase (0.0 when the phase never ran)."""
        return float(self.phases.get(name, 0.0))

    def phase_spans(self) -> list:
        """Recorded spans as ``(path, start, end)`` tuples (may be empty)."""
        return [
            (str(path), float(start), float(end))
            for path, start, end in self.spans
        ]


def build_manifest(
    *,
    workload: str,
    size: str,
    command: str = "",
    config: Union[Mapping[str, Any], Any, None] = None,
    phases: Optional[Mapping[str, float]] = None,
    spans: Optional[list] = None,
    metrics: Optional[Mapping[str, Any]] = None,
    events_total: int = 0,
    execute_seconds: float = 0.0,
) -> Manifest:
    """Assemble a :class:`Manifest` with derived fields filled in.

    ``events_per_sec`` is events over the *execute* phase only -- setup and
    aggregation are pipeline overhead, not dispatch throughput.
    """
    if config is None:
        cfg_dict: Dict[str, Any] = {}
    elif dataclasses.is_dataclass(config) and not isinstance(config, type):
        cfg_dict = dataclasses.asdict(config)
    else:
        cfg_dict = dict(config)
    return Manifest(
        workload=workload,
        size=size,
        command=command,
        config=cfg_dict,
        config_hash=config_hash(cfg_dict),
        git_rev=git_rev(),
        phases=dict(phases or {}),
        spans=[list(span) for span in (spans or [])],
        metrics=dict(metrics or {}),
        events_total=events_total,
        events_per_sec=events_total / execute_seconds if execute_seconds > 0 else 0.0,
        created_unix=time.time(),
    )
