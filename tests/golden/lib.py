"""Shared machinery for the golden-profile fixtures.

A golden fixture pins the *byte-exact* canonical profile text of one
workload run.  The same module is used by the pytest suite (compare) and by
``make regen-golden`` (rewrite), so the two can never disagree about how a
profile is produced.

Fixture runs deliberately span the profiler's modes: baseline byte
granularity, re-use mode, and a threaded workload driven outside the
registry.  All runs are fully deterministic (seeded workload data, no
wall-clock anywhere in the profile).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict

from repro.callgrind import CallgrindCollector
from repro.core import SigilConfig, SigilProfiler
from repro.io.callgrindfile import dumps_callgrind
from repro.io.eventbin import dumps_events_bin
from repro.io.profilefile import dumps_profile, profile_digest
from repro.trace.batch import BatchingTransport
from repro.workloads.fluidanimate_parallel import ParallelFluidanimate
from repro.workloads.registry import get_workload

GOLDEN_DIR = Path(__file__).parent

FIXTURE_FORMAT = 1


@dataclass(frozen=True)
class GoldenSpec:
    """One pinned run: how to build the workload and the tool observing it.

    ``tool`` selects the profiler: ``"sigil"`` (SigilProfiler under
    ``config``) or ``"callgrind"`` (CallgrindCollector with default cache
    geometry and branch predictor).
    """

    key: str
    workload: str
    size: str
    make_workload: Callable[[], object]
    tool: str = "sigil"
    config: SigilConfig = SigilConfig()


SPECS: Dict[str, GoldenSpec] = {
    spec.key: spec
    for spec in (
        GoldenSpec(
            key="blackscholes",
            workload="blackscholes",
            size="simsmall",
            make_workload=lambda: get_workload("blackscholes", "simsmall"),
        ),
        GoldenSpec(
            key="dedup",
            workload="dedup",
            size="simsmall",
            make_workload=lambda: get_workload("dedup", "simsmall"),
            # dedup is the paper's memory-limit case study; pin re-use mode
            # here so the golden set covers the re-use aggregates too.
            config=SigilConfig(reuse_mode=True),
        ),
        GoldenSpec(
            key="fluidanimate_parallel",
            workload="fluidanimate-parallel",
            size="simsmall",
            # Not in the registry (it is the threading case study, not one
            # of the paper's 14 benchmarks); drive the class directly.
            make_workload=lambda: ParallelFluidanimate("simsmall"),
        ),
        GoldenSpec(
            key="sigil-reuse",
            workload="blackscholes",
            size="simsmall",
            make_workload=lambda: get_workload("blackscholes", "simsmall"),
            # Pins re-use mode, scalar and behind strict flushes, on a
            # second workload (dedup above covers re-use on the
            # memory-limit case study);
            # event mode additionally pins the producer-segment tracking.
            config=SigilConfig(reuse_mode=True, event_mode=True),
        ),
        GoldenSpec(
            key="callgrind",
            workload="blackscholes",
            size="simsmall",
            make_workload=lambda: get_workload("blackscholes", "simsmall"),
            # Pins the vectorised cache-simulation and branch-predictor
            # batch kernels end to end, including the cycle model.
            tool="callgrind",
        ),
    )
}


def fixture_path(key: str) -> Path:
    return GOLDEN_DIR / f"{key}.json"


def run_spec(spec: GoldenSpec, batch_size: int = 0):
    """Run the spec's workload; return the tool that observed it."""
    if spec.tool == "callgrind":
        tool = CallgrindCollector()
    else:
        tool = SigilProfiler(spec.config)
    observer = BatchingTransport(tool, batch_size) if batch_size else tool
    spec.make_workload().run(observer)
    return tool


def compute_text(spec: GoldenSpec, batch_size: int = 0) -> str:
    """Run the spec's workload and return its canonical profile text."""
    tool = run_spec(spec, batch_size)
    if spec.tool == "callgrind":
        return dumps_callgrind(tool.profile)
    return dumps_profile(tool.profile())


#: The spec whose event log is pinned in ``events.json``.
EVENTS_KEY = "sigil-reuse"
EVENTS_PATH = GOLDEN_DIR / "events.json"


def compute_event_digest(spec: GoldenSpec) -> str:
    """sha256 of the spec's event log in the raw (uncompressed) v2 encoding.

    The profile text does not carry the event log, and the differential
    tests compare event logs with their edges sorted; the digest pins the
    encoded bytes, including the insertion order of the data edges.
    """
    events = run_spec(spec).profile().events
    return "sha256:" + hashlib.sha256(
        dumps_events_bin(events, compression=None)
    ).hexdigest()


def render_events_fixture(digest: str) -> str:
    """The on-disk JSON of the event-log digest fixture."""
    fixture = {
        "format": FIXTURE_FORMAT,
        "spec": EVENTS_KEY,
        "encoding": "sigil-events 2, compression=None",
        "digest": digest,
    }
    return json.dumps(fixture, indent=2, sort_keys=True) + "\n"


def render_fixture(spec: GoldenSpec, text: str) -> str:
    """The on-disk JSON for one fixture (newline-terminated, stable keys)."""
    profile = {
        "format": FIXTURE_FORMAT,
        "tool": spec.tool,
        "workload": spec.workload,
        "size": spec.size,
        "digest": "sha256:" + _digest_of(text),
        "profile": text.splitlines(),
    }
    if spec.tool == "sigil":
        profile["reuse_mode"] = spec.config.reuse_mode
        profile["line_size"] = spec.config.line_size
    return json.dumps(profile, indent=2, sort_keys=True) + "\n"


def _digest_of(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_fixture(key: str) -> dict:
    return json.loads(fixture_path(key).read_text())


def fixture_text(fixture: dict) -> str:
    return "\n".join(fixture["profile"]) + "\n"


def regenerate(keys=None) -> None:
    """Rewrite the named fixtures (all of them by default)."""
    for key in keys or sorted(SPECS):
        spec = SPECS[key]
        text = compute_text(spec)
        fixture_path(key).write_text(render_fixture(spec, text))
        print(f"regenerated {fixture_path(key).relative_to(GOLDEN_DIR.parent.parent)}")
    if EVENTS_KEY in (keys or SPECS):
        EVENTS_PATH.write_text(
            render_events_fixture(compute_event_digest(SPECS[EVENTS_KEY]))
        )
        print(f"regenerated {EVENTS_PATH.relative_to(GOLDEN_DIR.parent.parent)}")
