"""A `repro` process imports what its command runs, and nothing more.

Each check runs in a fresh interpreter and reads ``sys.modules`` after the
command: the post-processing commands (``timeline``, ``critpath``) must not
load the profiler, the workloads or the campaign engine, ``profile`` must
not load the offline analyses, and a campaign worker must not compile a
module per job that its coordinator could have handed it through the fork.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules (a name, or a package and everything under it) that an offline
#: analysis of an event log has no use for.
NOT_FOR_ANALYSES = (
    "repro.harness",
    "repro.core.profiler",
    "repro.core.shadow",
    "repro.callgrind",
    "repro.workloads.registry",
    "repro.trace.batch",
    "repro.trace.observer",
    "repro.telemetry.heartbeat",
    "repro.telemetry.counting",
    "repro.analysis.cdfg",
    "repro.analysis.partition",
    "repro.analysis.bbcurve",
    "repro.analysis.merge",
    "repro.analysis.diff",
    "repro.io.profilefile",
    "repro.campaign",
    "repro.serve",
    "repro.vm",
)

#: An upper bound on the `repro.*` modules `timeline` and `critpath` load
#: (all 78 were loaded when every package imported its whole subtree).
ANALYSIS_MODULE_LIMIT = 30

_MARK = "REPRO-MODULES "

_REPORT = f"print({_MARK!r} + json.dumps([code, mods]))\n"

_CLI_CHILD = """
import json, sys
from repro.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
mods = sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))
""" + _REPORT

_WORKER_CHILD = """
import json, sys
from repro.campaign.executor import _worker_main
from repro.campaign.spec import Job

job = Job(workload="blackscholes", size="simsmall", tool="sigil",
          config={"event_mode": True}).to_dict()
before = set(sys.modules)
_worker_main(job, sys.argv[1], sys.argv[2])
code = 0
mods = sorted(m for m in set(sys.modules) - before
              if m == "repro" or m.startswith("repro."))
""" + _REPORT


def _child(code: str, *argv: str, cwd: Path):
    """Run ``code`` in a fresh interpreter; (exit code, repro modules)."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.rsplit(_MARK, 1)[1]
    exit_code, modules = json.loads(line)
    return exit_code, modules


def _within(module: str, names) -> bool:
    return any(module == n or module.startswith(n + ".") for n in names)


@pytest.fixture(scope="module")
def profiled(tmp_path_factory):
    """One `repro profile` child writing all three outputs."""
    out = tmp_path_factory.mktemp("imports")
    code, modules = _child(
        _CLI_CHILD, "profile", "blackscholes", "--size", "simsmall",
        "-o", str(out / "p.profile"), "--events-out", str(out / "e.events"),
        "--callgrind-out", str(out / "c.cg"), cwd=out,
    )
    assert code == 0
    return out, modules


def test_profile_loads_no_offline_analysis(profiled):
    _, modules = profiled
    stray = [m for m in modules if _within(
        m, ("repro.analysis", "repro.campaign", "repro.serve", "repro.vm"))]
    assert stray == []
    assert "repro.core.profiler" in modules  # it did profile


@pytest.mark.parametrize("argv", [
    ("timeline", "{log}", "-o", "{dir}/t.json"),
    ("critpath", "{log}", "--cores", "1,2"),
], ids=["timeline", "critpath"])
def test_analysis_commands_load_only_the_reader_and_analyses(profiled, argv):
    out, _ = profiled
    args = [a.format(log=out / "e.events", dir=out) for a in argv]
    code, modules = _child(_CLI_CHILD, *args, cwd=out)
    assert code == 0
    assert [m for m in modules if _within(m, NOT_FOR_ANALYSES)] == []
    assert len(modules) <= ANALYSIS_MODULE_LIMIT, modules


def test_bare_cli_import_loads_no_tool(tmp_path):
    code, modules = _child(_CLI_CHILD, cwd=tmp_path)
    assert code == 0
    assert [m for m in modules if _within(m, NOT_FOR_ANALYSES)] == []


def test_bare_cli_import_loads_no_numpy(tmp_path):
    """``cli.py`` needs ``InputSize`` for ``--size``; that must not cost a
    numpy import in commands that never touch an array."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_campaign_job_imports_nothing_its_coordinator_lacks(tmp_path):
    _, added = _child(
        _WORKER_CHILD, str(tmp_path / "store"), str(tmp_path / "error"),
        cwd=tmp_path,
    )
    assert added == []
    assert not (tmp_path / "error").exists()
