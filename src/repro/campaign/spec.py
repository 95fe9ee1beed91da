"""Campaign specs: a declarative sweep matrix expanded into addressed jobs.

The paper's evaluation is a *campaign*: every figure and table sweeps the
PARSEC suite across tool stacks, input sizes and Sigil configurations.  A
:class:`CampaignSpec` states that sweep declaratively -- lists of
workloads, sizes, tools and config variants -- and :meth:`CampaignSpec.jobs`
expands the cross product into :class:`Job` objects.

Every job is **content-addressed**: its :attr:`Job.key` is the SHA-256 of
the canonical JSON of (workload, size, tool stack, full Sigil config,
``repro.__version__``).  Two jobs that would compute the same profile share
a key, so the result store can answer "have I already done this?" exactly;
bumping the package version invalidates every key, so stale profiles from
an older pipeline are never served.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.core.config import SigilConfig
from repro.harness import TOOL_STACKS
from repro.workloads import ALL_NAMES, InputSize

__all__ = ["Job", "CampaignSpec", "canonical_config"]


def canonical_config(config: Union[Mapping[str, Any], SigilConfig, None]) -> Dict[str, Any]:
    """The full, defaults-included dict form of a Sigil configuration.

    Keying jobs on the *complete* config (not just the keys a spec spelled
    out) makes ``{}`` and ``{"reuse_mode": False}`` hash identically, and
    makes adding a config field a key-visible change only when its value
    differs from the default.
    """
    if config is None:
        cfg = SigilConfig()
    elif isinstance(config, SigilConfig):
        cfg = config
    else:
        cfg = SigilConfig(**dict(config))
    return dataclasses.asdict(cfg)


def _registered_runner_tools() -> frozenset:
    """Tools with a registered custom runner (beyond the built-in stacks).

    A benchmark or test can register a runner (see
    :func:`repro.campaign.executor.register_runner`) and then sweep it
    through a spec like any built-in stack.  Imported lazily: the executor
    imports this module.
    """
    try:
        from repro.campaign.executor import RUNNERS
    except ImportError:  # pragma: no cover - circular import during init
        return frozenset()
    return frozenset(RUNNERS)


def _package_version() -> str:
    # Imported lazily: repro/__init__ imports harness, which must not pull
    # the campaign package back in at import time.
    import repro

    return repro.__version__


@dataclass
class Job:
    """One cell of the campaign matrix: a single profiling run to perform."""

    workload: str
    size: str = InputSize.SIMSMALL.value
    tool: str = "sigil+callgrind"
    config: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.size = InputSize(self.size).value
        self.config = canonical_config(self.config)

    @property
    def label(self) -> str:
        """Human-readable identity, e.g. ``vips/simsmall/sigil``."""
        return f"{self.workload}/{self.size}/{self.tool}"

    @property
    def key(self) -> str:
        """Content address of this job (64 hex chars, SHA-256)."""
        payload = {
            "workload": self.workload,
            "size": self.size,
            "tool": self.tool,
            "config": self.config,
            "version": _package_version(),
        }
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()

    def sigil_config(self) -> SigilConfig:
        """The :class:`SigilConfig` this job runs under."""
        return SigilConfig(**self.config)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "size": self.size,
            "tool": self.tool,
            "config": dict(self.config),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Job":
        return cls(
            workload=str(data["workload"]),
            size=str(data.get("size", InputSize.SIMSMALL.value)),
            tool=str(data.get("tool", "sigil+callgrind")),
            config=dict(data.get("config", {})),
        )


@dataclass
class CampaignSpec:
    """A declarative batch of profiling jobs: the matrix before expansion.

    ``configs`` is a list of Sigil-config variants (dicts of
    :class:`SigilConfig` fields); the default single empty dict means "the
    default configuration".  Expansion is the full cross product
    ``workloads x sizes x tools x configs``, in deterministic order.
    """

    name: str = "campaign"
    workloads: List[str] = field(default_factory=list)
    sizes: List[str] = field(default_factory=lambda: [InputSize.SIMSMALL.value])
    tools: List[str] = field(default_factory=lambda: ["sigil+callgrind"])
    configs: List[Dict[str, Any]] = field(default_factory=lambda: [{}])

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Fail fast on anything the expansion would choke on later."""
        if not self.name or "/" in self.name:
            raise ValueError(f"invalid campaign name {self.name!r}")
        unknown = [w for w in self.workloads if w not in ALL_NAMES]
        if unknown:
            raise ValueError(
                f"unknown workloads: {', '.join(unknown)}; "
                f"available: {', '.join(ALL_NAMES)}"
            )
        for size in self.sizes:
            InputSize(size)  # raises ValueError on junk
        bad_tools = [t for t in self.tools if t not in TOOL_STACKS
                     and t not in _registered_runner_tools()]
        if bad_tools:
            raise ValueError(
                f"unknown tool stacks: {', '.join(bad_tools)}; "
                f"available: {', '.join(TOOL_STACKS)}"
            )
        for cfg in self.configs:
            try:
                canonical_config(cfg)  # raises on unknown fields / bad values
            except TypeError as exc:  # an unknown SigilConfig field
                raise ValueError(f"invalid config {cfg!r}: {exc}") from exc

    def jobs(self) -> List[Job]:
        """Expand the matrix into content-addressed jobs."""
        expanded: List[Job] = []
        for workload in self.workloads:
            for size in self.sizes:
                for tool in self.tools:
                    for config in self.configs:
                        expanded.append(
                            Job(workload=workload, size=size, tool=tool,
                                config=dict(config))
                        )
        return expanded

    def __len__(self) -> int:
        return (len(self.workloads) * len(self.sizes) * len(self.tools)
                * len(self.configs))

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "workloads": list(self.workloads),
            "sizes": list(self.sizes),
            "tools": list(self.tools),
            "configs": [dict(c) for c in self.configs],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown campaign spec keys: {', '.join(sorted(unknown))}"
            )
        return cls(**{k: v for k, v in data.items() if k in known})

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("campaign spec JSON must be an object")
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n")
        return target

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignSpec":
        return cls.from_json(Path(path).read_text())

    # -- convenience constructors -----------------------------------------

    @classmethod
    def from_lists(
        cls,
        *,
        name: str = "campaign",
        workloads: Iterable[str],
        sizes: Optional[Iterable[str]] = None,
        tools: Optional[Iterable[str]] = None,
        configs: Optional[Iterable[Mapping[str, Any]]] = None,
    ) -> "CampaignSpec":
        """Build a spec from iterables, applying the documented defaults."""
        return cls(
            name=name,
            workloads=list(workloads),
            sizes=list(sizes) if sizes else [InputSize.SIMSMALL.value],
            tools=list(tools) if tools else ["sigil+callgrind"],
            configs=[dict(c) for c in configs] if configs else [{}],
        )
