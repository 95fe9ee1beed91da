"""Every entry point's run manifest has the same shape.

``repro profile``, ``repro reuse``, ``repro run`` and ``line_reuse_run`` all
go through the harness's one run driver, so each records the same pipeline
phases and the same per-kind event counts.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.harness import line_reuse_run
from repro.telemetry import EventCounter, Manifest, Telemetry

TOY = Path(__file__).resolve().parents[2] / "examples" / "toy_program.s"

PHASES = {"setup", "execute", "aggregate"}
EVENT_KEYS = {f"events.{kind}" for kind in EventCounter().by_kind()} | {
    "events.total"
}


def _cli(*argv):
    def snapshot(tmp_path):
        path = tmp_path / "run.manifest.json"
        assert main([*argv, "--manifest-out", str(path)]) == 0
        manifest = Manifest.load(path)
        return manifest.phases, manifest.metrics

    return snapshot


def _line_reuse(tmp_path):
    profiler = line_reuse_run("blackscholes", "simsmall", telemetry=Telemetry())
    manifest = profiler.manifest
    return manifest.phases, manifest.metrics


ENTRY_POINTS = {
    "profile": _cli("profile", "blackscholes"),
    "reuse": _cli("reuse", "blackscholes"),
    "reuse-mrc": _cli("reuse", "blackscholes", "--mrc"),
    "run": _cli("run", str(TOY)),
    "line_reuse_run": _line_reuse,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_phases_and_event_keys_match_across_entry_points(entry, tmp_path):
    phases, metrics = ENTRY_POINTS[entry](tmp_path)
    assert set(phases) == PHASES
    assert {key for key in metrics if key.startswith("events.")} == EVENT_KEYS
    assert metrics["events.total"] > 0
