"""The paired run keeps one calling-context layer.

In the ``sigil+callgrind`` pipe the Callgrind collector follows the
:class:`~repro.common.cct.ContextTracker` that Sigil drives.  Its output must
be exactly what Callgrind alone writes: the shared tree also holds Sigil's
system-call nodes, and the writers number contexts densely past them.
"""

from __future__ import annotations

import pytest

from repro.callgrind import CallgrindCollector
from repro.common.cct import SYSCALL_PREFIX, ContextTracker, ContextTree
from repro.core import SigilConfig, SigilProfiler
from repro.harness import profile_workload, run_tool
from repro.io.callgrindfile import dumps_callgrind
from repro.io.kcachegrind import export_callgrind
from repro.telemetry import Telemetry
from repro.trace.observer import ObserverPipe
from repro.workloads.fluidanimate_parallel import ParallelFluidanimate
from repro.workloads.registry import ALL_NAMES


def _outputs(profile, tmp_path):
    path = tmp_path / "cg.out"
    export_callgrind(profile, path)
    return dumps_callgrind(profile), path.read_text()


@pytest.mark.parametrize("name", ALL_NAMES)
def test_paired_callgrind_output_equals_callgrind_alone(name, tmp_path):
    alone = run_tool(name, "simsmall", "callgrind", telemetry=Telemetry())
    paired = run_tool(name, "simsmall", "sigil+callgrind", telemetry=Telemetry())
    assert any(n.name.startswith(SYSCALL_PREFIX) for n in paired.callgrind.tree.nodes)
    assert _outputs(paired.callgrind, tmp_path) == _outputs(alone.callgrind, tmp_path)
    assert paired.manifest.metric("callgrind.calls") == alone.manifest.metric(
        "callgrind.calls"
    )


def _callgrind_metrics(collector):
    telemetry = Telemetry()
    collector.record_telemetry(telemetry)
    return telemetry.metrics.snapshot()


def test_threaded_paired_run_equals_callgrind_alone(tmp_path):
    alone = CallgrindCollector()
    ParallelFluidanimate("simsmall").run(alone)
    sigil = SigilProfiler(SigilConfig())
    paired = CallgrindCollector(contexts=sigil.contexts)
    ParallelFluidanimate("simsmall").run(ObserverPipe([sigil, paired]))
    assert _outputs(paired.profile, tmp_path) == _outputs(alone.profile, tmp_path)
    assert _callgrind_metrics(paired) == _callgrind_metrics(alone)


def test_paired_profiles_share_one_tree_and_one_cost_record():
    run = profile_workload("blackscholes", "simsmall")
    assert run.callgrind.tree is run.sigil.tree
    assert run.callgrind.self_costs is run.sigil.functions


def test_paired_run_tracks_each_event_once(monkeypatch):
    """One tracker and one tree per paired run, and each enter, exit,
    operation and access reaches that tracker exactly once."""
    built = {"tracker": 0, "tree": 0}
    calls = {}

    def counting(cls, key, method):
        original = getattr(cls, method)

        def wrapper(self, *args):
            if method == "__init__":
                built[key] += 1
            else:
                calls[method] = calls.get(method, 0) + 1
            return original(self, *args)

        monkeypatch.setattr(cls, method, wrapper)

    counting(ContextTracker, "tracker", "__init__")
    counting(ContextTree, "tree", "__init__")
    for hook in ("on_fn_enter", "on_fn_exit", "on_op", "on_mem_read",
                 "on_mem_write", "on_mem_batch_runs"):
        counting(ContextTracker, None, hook)
    run = profile_workload("dedup", "simsmall", telemetry=Telemetry())
    assert built == {"tracker": 1, "tree": 1}
    m = run.manifest
    assert calls == {
        "on_fn_enter": m.metric("events.fn_enter"),
        "on_fn_exit": m.metric("events.fn_exit"),
        "on_op": m.metric("events.op"),
        "on_mem_read": m.metric("events.mem_read"),
        "on_mem_write": m.metric("events.mem_write"),
    }
