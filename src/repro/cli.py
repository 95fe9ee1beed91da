"""Command-line interface: profile, inspect and post-process workloads.

The released Sigil ships as a tool plus post-processing scripts; this module
is that surface for the reproduction::

    repro list
    repro list --json
    repro profile vips --reuse --events -o vips.profile --events-out vips.events
    repro profile vips --events-out vips.events --events-format text
    repro profile vips --telemetry --heartbeat 100000
    repro report vips.profile --top 10
    repro partition blackscholes --bandwidth 8
    repro reuse vips --function conv_gen
    repro critpath vips.events
    repro critpath streamcluster --cores 1,2,4,8
    repro trace vips.events --format chrome -o vips.trace.json
    repro trace vips.profile --format collapsed --weight unique_in
    repro stats vips-simsmall.manifest.json
    repro campaign run --workloads vips,dedup --sizes simsmall,simmedium -j 4
    repro campaign status sweep
    repro campaign resume sweep -j 4
    repro serve --port 8787 --store /var/lib/repro
    repro submit blackscholes --tool native --url http://127.0.0.1:8787
    repro watch job-000001 --url http://127.0.0.1:8787
    repro metrics --url http://127.0.0.1:8787

The ``campaign`` family executes whole sweep matrices in parallel worker
processes against a shared on-disk result store (see
:mod:`repro.campaign`); re-running a campaign recomputes nothing that the
store already holds, and an interrupted campaign picks up where it stopped
with ``resume``.

The ``serve`` family turns that engine into a long-running daemon
(:mod:`repro.serve`): ``serve`` hosts it, ``submit`` posts jobs over HTTP,
``watch`` follows a job's sequence-numbered event trace (file tail or live
SSE), and ``metrics`` scrapes the daemon's Prometheus endpoint.

Commands accepting a workload name run it live; ``report``/``critpath`` also
accept files produced by ``profile``, supporting the paper's offline model.
Workload-running commands take the shared telemetry/logging flags
(``--telemetry``/``--no-telemetry``, ``--manifest-out``, ``--heartbeat``,
``-v``/``-q``); telemetry-enabled runs write a JSON manifest that ``repro
stats`` renders and compares.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

# Only what `build_parser` needs is imported here; each command imports what
# it runs, so `repro timeline` never loads the profiler or the campaign
# engine, and a bare `import repro.cli` stays cheap.
from repro.core.config import DEFAULT_WINDOW_OPS
from repro.io.tracefmt import COLLAPSED_WEIGHTS as _COLLAPSED_WEIGHTS
from repro.workloads import InputSize

if TYPE_CHECKING:
    from repro.telemetry import Manifest, Telemetry

__all__ = ["main", "build_parser"]

log = logging.getLogger("repro.cli")


def _fmt_be(value: float) -> str:
    return f"{value:.3f}" if math.isfinite(value) else "inf"


# ---------------------------------------------------------------------------
# logging + telemetry plumbing
# ---------------------------------------------------------------------------


class _StderrHandler(logging.StreamHandler):
    """Stream handler that re-resolves ``sys.stderr`` on every record.

    Tests (and shells) swap ``sys.stderr``; binding the stream at handler
    construction would silently write into the dead object.
    """

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, value):  # StreamHandler.__init__ assigns; ignore it
        pass


class _LevelFormatter(logging.Formatter):
    """Formats ``error: message`` style lines (lowercase level names)."""

    def format(self, record: logging.LogRecord) -> str:
        prefix = record.levelname.lower()
        return f"{prefix}: {record.getMessage()}"


def _setup_logging(verbosity: int) -> None:
    """Configure the ``repro.*`` logger namespace from ``-v``/``-q`` counts."""
    root = logging.getLogger("repro")
    if verbosity >= 2:
        level = logging.DEBUG
    elif verbosity == 1:
        level = logging.INFO
    elif verbosity == 0:
        level = logging.WARNING
    else:
        level = logging.ERROR
    root.setLevel(level)
    if not any(isinstance(h, _StderrHandler) for h in root.handlers):
        handler = _StderrHandler()
        handler.setFormatter(_LevelFormatter())
        root.addHandler(handler)
    root.propagate = False


def _telemetry_from(args) -> Optional[Telemetry]:
    """Build this invocation's telemetry session (None when disabled).

    Telemetry is on by default -- the run measures itself -- and disabled
    with ``--no-telemetry``, which leaves the event counter out of the
    observer pipe: zero additional Python-level calls per event.
    """
    if getattr(args, "no_telemetry", False):
        return None
    from repro.telemetry import Telemetry

    return Telemetry(
        heartbeat_events=getattr(args, "heartbeat", None),
        heartbeat_seconds=getattr(args, "heartbeat_secs", None),
    )


def _manifest_path(args, *, default_stem: str) -> Optional[Path]:
    """Where this run's manifest belongs, or None to skip writing.

    Priority: an explicit ``--manifest-out``; else next to ``-o`` output,
    when that names a regular file (not ``/dev/null`` or a pipe); else
    (only with an explicit ``--telemetry``) ``<stem>.manifest.json`` in the
    working directory.
    """
    manifest_out = getattr(args, "manifest_out", None)
    if manifest_out:
        return Path(manifest_out)
    output = getattr(args, "output", None)
    if output and Path(output).is_file():
        return Path(f"{output}.manifest.json")
    if getattr(args, "telemetry", False):
        return Path(f"{default_stem}.manifest.json")
    return None


def _emit_manifest(args, manifest: Optional[Manifest], *, default_stem: str) -> None:
    """Write the run manifest when the flags ask for one."""
    if manifest is None:
        return
    path = _manifest_path(args, default_stem=default_stem)
    if path is None:
        return
    argv = getattr(args, "_argv", None)
    manifest.command = " ".join(argv) if argv else args.command
    manifest.write(path)
    print(f"manifest written to {path}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_list(args) -> int:
    from repro.analysis import render_table
    from repro.workloads import ALL_NAMES, WORKLOADS

    if getattr(args, "json", False):
        from repro.harness import TOOL_STACKS

        payload = {
            "workloads": [
                {
                    "name": name,
                    "suite": WORKLOADS[name].suite,
                    "description": WORKLOADS[name].description,
                    "sizes": sorted(
                        s.value for s in WORKLOADS[name].PARAMS
                    ),
                }
                for name in ALL_NAMES
            ],
            "sizes": [s.value for s in InputSize],
            "tools": list(TOOL_STACKS),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = [
        (name, WORKLOADS[name].suite, WORKLOADS[name].description)
        for name in ALL_NAMES
    ]
    print(render_table(["workload", "suite", "description"], rows))
    print(f"\nsizes: {', '.join(s.value for s in InputSize)}")
    return 0


def _write_events(args, events, path) -> None:
    """Write an event file in the format ``--events-format`` selected.

    Binary v2 is the default (columnar, chunked, compressed -- see
    docs/file-formats.md); ``--events-format text`` writes the line-oriented
    v1 for reading and diffing by eye.  Nothing reads v1 back.
    """
    from repro.io import dump_events, dump_events_bin

    if getattr(args, "events_format", "bin") == "text":
        dump_events(events, path)
    else:
        dump_events_bin(events, path)


def _run(args, *, reuse: bool = False, events: bool = False, extra_tools=()):
    from repro.core import SigilConfig
    from repro.harness import _profile

    # Asking for an event-file or trace output implies collecting events.
    events = events or bool(
        getattr(args, "events_out", None) or getattr(args, "trace_out", None)
    )
    config = SigilConfig(
        reuse_mode=reuse or getattr(args, "reuse", False),
        event_mode=events or getattr(args, "events", False),
        line_size=getattr(args, "line_size", 1),
        max_shadow_pages=getattr(args, "max_shadow_pages", None),
    )
    return _profile(
        args.workload, args.size, config, True, True, _telemetry_from(args),
        extra_tools,
    )


def cmd_profile(args) -> int:
    from repro.io import dump_callgrind, dump_profile

    run = _run(args)
    profile = run.sigil
    print(
        f"{run.name} ({run.size.value}): {profile.total_time} instructions, "
        f"{len(profile.contexts())} contexts, {len(profile.comm)} edges, "
        f"shadow {profile.shadow_stats.shadow_bytes // 1024} KB, "
        f"{run.wall_seconds:.2f}s wall"
    )
    if run.manifest is not None:
        print(
            f"phases: setup {run.setup_seconds:.2f}s, "
            f"execute {run.execute_seconds:.2f}s, "
            f"aggregate {run.aggregate_seconds:.2f}s; "
            f"{run.manifest.events_total:,} events "
            f"({run.manifest.events_per_sec:,.0f} ev/s)"
        )
    if args.output:
        dump_profile(profile, args.output)
        print(f"profile written to {args.output}")
    if args.events_out:
        _write_events(args, profile.events, args.events_out)
        print(f"event file written to {args.events_out}")
    if args.callgrind_out:
        dump_callgrind(run.callgrind, args.callgrind_out)
        print(f"callgrind profile written to {args.callgrind_out}")
    if args.trace_out:
        run.write_trace(args.trace_out)
        print(f"chrome trace written to {args.trace_out} "
              "(open in ui.perfetto.dev)")
    _emit_manifest(
        args, run.manifest, default_stem=f"{run.name}-{run.size.value}"
    )
    if not (args.output or args.events_out or args.callgrind_out
            or args.trace_out):
        _print_summary(profile, args.top)
    return 0


def _print_summary(profile, top: int) -> None:
    from repro.analysis import CDFG, render_table

    cdfg = CDFG(profile)
    rows = []
    ranked = sorted(
        profile.contexts(), key=lambda n: profile.fn_comm(n.id).ops, reverse=True
    )
    for node in ranked[:top]:
        comm = profile.fn_comm(node.id)
        rows.append((
            cdfg.label(node.id),
            node.calls,
            comm.ops,
            profile.unique_input_bytes(node.id),
            profile.unique_output_bytes(node.id),
            profile.unique_local_bytes(node.id),
        ))
    print()
    print(render_table(
        ["context", "calls", "ops", "uniq_in_B", "uniq_out_B", "local_B"],
        rows,
        title=f"top {min(top, len(ranked))} contexts by operations",
    ))


def cmd_report(args) -> int:
    from repro.analysis import CDFG, render_calltree, render_table
    from repro.io import load_profile

    profile = load_profile(args.profile)
    _print_summary(profile, args.top)
    if args.tree:
        print()
        print(render_calltree(profile))
    cdfg = CDFG(profile)
    edges = sorted(
        cdfg.data_edges(), key=lambda e: e.unique_bytes, reverse=True
    )[: args.top]
    rows = [
        (cdfg.label(e.writer), cdfg.label(e.reader), e.unique_bytes, e.nonunique_bytes)
        for e in edges
    ]
    print()
    print(render_table(
        ["producer", "consumer", "unique_B", "nonunique_B"],
        rows,
        title=f"top {len(rows)} data edges by unique bytes",
    ))
    if args.dot:
        Path(args.dot).write_text(cdfg.to_dot(max_nodes=args.top))
        print(f"\nCDFG written to {args.dot} (graphviz)")
    if args.kcachegrind:
        from repro.io import export_sigil

        export_sigil(profile, args.kcachegrind)
        print(f"\ncallgrind-format file written to {args.kcachegrind} "
              "(open in kcachegrind)")
    return 0


def cmd_partition(args) -> int:
    from repro.analysis import (
        BusModel,
        PartitionPolicy,
        coverage_report,
        render_table,
        trim_calltree,
    )
    from repro.io import load_callgrind, load_profile

    run = None
    if args.profile and args.callgrind:
        sigil = load_profile(args.profile)
        callgrind = load_callgrind(args.callgrind)
        name = Path(args.profile).stem
    else:
        run = _run(args)
        sigil, callgrind, name = run.sigil, run.callgrind, run.name
    policy = PartitionPolicy(bus=BusModel(bytes_per_cycle=args.bandwidth))
    trimmed = trim_calltree(sigil, callgrind, policy)
    report = coverage_report(name, trimmed)
    print(
        f"{name}: {report.n_candidates} candidates cover "
        f"{report.coverage:.0%} of estimated execution time\n"
    )
    rows = [
        (c.name, _fmt_be(c.breakeven), c.costs.ops,
         c.costs.unique_input_bytes, c.costs.unique_output_bytes)
        for c in trimmed.sorted_candidates()[: args.top]
    ]
    print(render_table(
        ["function", "S(breakeven)", "incl_ops", "uniq_in_B", "uniq_out_B"],
        rows,
        title="acceleration candidates by breakeven speedup (Eq. 1)",
    ))
    if run is not None:
        _emit_manifest(args, run.manifest,
                       default_stem=f"{run.name}-{run.size.value}-partition")
    return 0


def cmd_reuse(args) -> int:
    from repro.analysis import (
        byte_reuse_breakdown,
        lifetime_histogram,
        render_barchart,
        render_histogram,
        render_table,
        top_reuse_functions,
        top_unique_contributors,
    )
    from repro.core import ReuseDistanceProfiler

    # --mrc's stack distances ride in the same run as Sigil and Callgrind.
    distance = ReuseDistanceProfiler(64)
    run = _run(args, reuse=True, extra_tools=[distance] if args.mrc else [])
    profile = run.sigil
    breakdown = byte_reuse_breakdown(profile)
    print(render_barchart(
        {k: 100 * v for k, v in breakdown.items()},
        title=f"{run.name}: % of data bytes by re-use count",
        fmt="{:.1f}%",
    ))
    rankings = top_reuse_functions(profile, n=args.top)
    if rankings:
        rows = [
            (r.label, r.reused_windows, r.reuse_accesses,
             f"{r.average_lifetime:.0f}")
            for r in rankings
        ]
        print()
        print(render_table(
            ["function", "reused_windows", "re-reads", "avg_lifetime"],
            rows,
            title="top re-using functions",
        ))
    print()
    print("top unique-byte contributors:")
    for label, volume, share in top_unique_contributors(profile, n=5):
        print(f"  {label:24s} {volume:>10} B  ({share:.1%})")
    if args.function:
        matches = [
            node for node in profile.contexts()
            if node.name == args.function
        ]
        if not matches:
            log.error("function %r not found", args.function)
            return 2
        for node in matches:
            hist = lifetime_histogram(profile, node.id)
            print()
            print(render_histogram(
                hist,
                title=f"re-use lifetime histogram: {args.function} "
                      f"(context {'/'.join(node.path)})",
            ))
    if args.mrc:
        rows = [
            (capacity, f"{capacity * 64 // 1024} KB", f"{ratio:.4f}")
            for capacity, ratio in distance.miss_ratio_curve(
                [2 ** k for k in range(2, 14)]
            )
        ]
        print()
        print(render_table(
            ["capacity_lines", "capacity", "predicted_miss_ratio"],
            rows,
            title="miss-ratio curve from LRU stack distances (64B lines)",
        ))
    _emit_manifest(
        args, run.manifest, default_stem=f"{run.name}-{run.size.value}-reuse"
    )
    return 0


def cmd_run(args) -> int:
    """Assemble and profile a user program (see repro.vm.asm for syntax)."""
    from repro.analysis import render_table, trim_calltree
    from repro.callgrind import CallgrindCollector
    from repro.core import SigilConfig, SigilProfiler
    from repro.harness import _drive
    from repro.io import dump_profile
    from repro.vm import Machine
    from repro.vm.asm import assemble

    tel = _telemetry_from(args)
    config = SigilConfig(
        reuse_mode=args.reuse,
        event_mode=args.events or bool(args.events_out),
    )
    started = time.perf_counter()
    program = assemble(Path(args.program).read_text(), entry=args.entry)
    sigil = SigilProfiler(config)
    callgrind = CallgrindCollector(contexts=sigil.contexts)
    result, profile, _, manifest = _drive(
        lambda obs: Machine(telemetry=tel).run(program, obs),
        [sigil, callgrind],
        sigil.profile,
        name=Path(args.program).name,
        size="program",
        config=config,
        telemetry=tel,
        started=started,
    )
    print(
        f"{args.program}: returned {result.value!r}, "
        f"{result.instructions} instructions, "
        f"{len(profile.contexts())} contexts"
    )
    if args.output:
        dump_profile(profile, args.output)
        print(f"profile written to {args.output}")
    if args.events_out:
        _write_events(args, profile.events, args.events_out)
        print(f"event file written to {args.events_out}")
    _emit_manifest(args, manifest, default_stem=Path(args.program).stem)
    _print_summary(profile, args.top)
    trimmed = trim_calltree(profile, callgrind.profile)
    rows = [
        (c.name, _fmt_be(c.breakeven), c.costs.ops, c.costs.unique_comm_bytes)
        for c in trimmed.sorted_candidates()[: args.top]
    ]
    if rows:
        print()
        print(render_table(
            ["function", "S(breakeven)", "incl_ops", "unique_comm_B"],
            rows,
            title="acceleration candidates",
        ))
    return 0


def cmd_figures(args) -> int:
    """Regenerate every paper table/figure (runs the benchmark harness)."""
    import pytest as _pytest

    bench_dir = Path(__file__).resolve().parent.parent.parent / "benchmarks"
    if not bench_dir.exists():
        log.error(
            "benchmarks/ not found next to the package; run from a "
            "source checkout"
        )
        return 2
    pytest_args = [str(bench_dir), "--benchmark-only", "-q"]
    if args.only:
        pytest_args += ["-k", args.only]
    code = _pytest.main(pytest_args)
    results = bench_dir / "results"
    if results.exists():
        print(f"\nartifacts in {results}:")
        for path in sorted(results.glob("*.txt")):
            print(f"  {path.name}")
    return int(code)


def cmd_diff(args) -> int:
    """Compare two saved profiles (callgrind_diff analogue)."""
    from repro.analysis import diff_profiles, render_table
    from repro.io import load_profile

    baseline = load_profile(args.baseline)
    subject = load_profile(args.subject)
    diff = diff_profiles(baseline, subject)
    print(
        f"total ops: {diff.total_ops[0]} -> {diff.total_ops[1]} "
        f"({diff.ops_ratio:.2f}x)"
    )
    rows = []
    for d in diff.by_ops_change(args.top):
        rows.append((
            "/".join(d.path),
            f"{d.calls[0]}->{d.calls[1]}",
            f"{d.ops[0]}->{d.ops[1]}",
            f"{d.ops_delta:+d}",
            f"{d.unique_input[0]}->{d.unique_input[1]}",
        ))
    print()
    print(render_table(
        ["context", "calls", "ops", "ops_delta", "uniq_in_B"],
        rows,
        title=f"top {len(rows)} contexts by |ops change|",
    ))
    appeared = diff.appeared()
    gone = diff.disappeared()
    if appeared:
        print("\nonly in subject: " + ", ".join("/".join(d.path) for d in appeared))
    if gone:
        print("\nonly in baseline: " + ", ".join("/".join(d.path) for d in gone))
    return 0


def cmd_critpath(args) -> int:
    from repro.analysis import (
        ChunkSource,
        analyze_critical_path,
        events_to_dot,
        render_table,
        speedup_curve,
    )
    from repro.io import load_event_arrays

    tree = None
    run = None
    if Path(args.target).exists():
        name = Path(args.target).stem
        try:
            if args.dot or args.cores:
                # Rendering and scheduling need every segment row anyway;
                # load them once and hand the arrays to each analysis.
                events = load_event_arrays(args.target)
            else:
                # Out-of-core: the analysis streams the file chunk-at-a-time.
                events = ChunkSource(args.target)
            result = analyze_critical_path(
                events, telemetry=_telemetry_from(args)
            )
        except (OSError, ValueError) as exc:
            log.error("cannot analyse %s: %s", args.target, exc)
            return 2
    else:
        from repro.workloads import WORKLOADS

        if args.target not in WORKLOADS:
            log.error(
                "%r is neither an event file nor a workload name", args.target
            )
            return 2
        args.workload = args.target
        run = _run(args, events=True)
        events = run.sigil.events
        tree = run.sigil.tree
        name = run.name
        result = analyze_critical_path(events, telemetry=_telemetry_from(args))
    print(f"{name}: serial {result.serial_length} ops, "
          f"critical path {result.critical_length} ops")
    if args.dot:
        Path(args.dot).write_text(events_to_dot(events, tree, result))
        print(f"dependency-chain graph written to {args.dot} (graphviz)")
    print(f"maximum function-level parallelism: {result.max_parallelism:.2f}")
    if tree is not None:
        chain = " -> ".join(result.path_functions(tree))
        print(f"critical chain (leaf to main): {chain}")
    if args.cores:
        print()
        rows = [
            (r.n_cores, r.makespan, f"{r.speedup:.2f}",
             f"{r.efficiency:.2f}", r.cross_core_bytes)
            for r in speedup_curve(events, args.cores)
        ]
        print(render_table(
            ["cores", "makespan", "speedup", "efficiency", "cross_core_B"],
            rows,
            title="list-scheduled speedup (achievable, vs. theoretical limit)",
        ))
    if run is not None:
        _emit_manifest(args, run.manifest,
                       default_stem=f"{run.name}-{run.size.value}-critpath")
    return 0


def _fmt_metric_value(value) -> str:
    """Render one manifest metric; histogram summaries become one line.

    Histograms snapshot as dicts (count/sum/min/max/mean plus the p50/p90/
    p99 estimates); everything else prints as-is.
    """
    if isinstance(value, dict) and "count" in value:
        if not value.get("count"):
            return "count=0"
        parts = [f"count={value['count']}"]
        for key in ("mean", "p50", "p90", "p99"):
            v = value.get(key)
            if isinstance(v, (int, float)):
                parts.append(f"{key}={v:.6g}")
        return " ".join(parts)
    return str(value)


def cmd_stats(args) -> int:
    """Render and compare run manifests written by telemetry-enabled runs."""
    from repro.analysis import render_table
    from repro.telemetry import Manifest

    manifests = []
    for path in args.manifests:
        try:
            if path == "-":  # piped straight out of a CI log
                manifests.append(
                    (Path("<stdin>"), Manifest.from_json(sys.stdin.read()))
                )
            else:
                manifests.append((Path(path), Manifest.load(path)))
        except (OSError, ValueError, TypeError) as exc:
            log.error("cannot read manifest %s: %s", path, exc)
            return 2
    rows = []
    for path, m in manifests:
        rows.append((
            path.name,
            m.workload,
            m.size,
            f"{m.phase_seconds('setup'):.3f}",
            f"{m.phase_seconds('execute'):.3f}",
            f"{m.phase_seconds('aggregate'):.3f}",
            f"{m.events_total:,}",
            f"{m.events_per_sec:,.0f}",
            m.metric("sigil.shadow.peak_shadow_bytes") // 1024,
            f"{m.metric('sigil.bytes.unique'):,}",
            f"{m.metric('sigil.bytes.nonunique'):,}",
        ))
    print(render_table(
        ["manifest", "workload", "size", "setup_s", "execute_s", "aggr_s",
         "events", "ev/s", "peak_shadow_KB", "uniq_B", "nonuniq_B"],
        rows,
        title=f"{len(rows)} run manifest{'s' if len(rows) != 1 else ''}",
    ))
    if args.verbose_metrics:
        for path, m in manifests:
            print(f"\n{path.name} (git {m.git_rev or '?'}, "
                  f"config {m.config_hash or '?'}):")
            for name, value in sorted(m.metrics.items()):
                print(f"  {name:40s} {_fmt_metric_value(value)}")
    if len(manifests) >= 2:
        base_path, base = manifests[0]

        def _ratio(new: float, old: float) -> str:
            return f"{new / old:.2f}x" if old else "n/a"

        rows = []
        for path, m in manifests[1:]:
            rows.append((
                path.name,
                _ratio(m.phase_seconds("execute"), base.phase_seconds("execute")),
                _ratio(m.events_per_sec, base.events_per_sec),
                _ratio(
                    m.metric("sigil.shadow.peak_shadow_bytes"),
                    base.metric("sigil.shadow.peak_shadow_bytes"),
                ),
                _ratio(
                    m.metric("sigil.bytes.unique"),
                    base.metric("sigil.bytes.unique"),
                ),
                "yes" if m.config_hash == base.config_hash else "NO",
            ))
        print()
        print(render_table(
            ["manifest", "execute", "ev/s", "peak_shadow", "uniq_B",
             "same_config"],
            rows,
            title=f"relative to {base_path.name}",
        ))
    return 0


_EVENTS_MAGIC = b"# sigil-events"
_PROFILE_MAGIC = "# sigil-profile"


def _sniff_trace_input(text: str) -> str:
    """Classify a decoded `repro trace` input: 'profile' or 'manifest'."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return "manifest"
    first = stripped.splitlines()[0] if stripped else ""
    if first.startswith(_PROFILE_MAGIC):
        return "profile"
    raise ValueError(
        "unrecognised input: expected a sigil event file, a sigil profile, "
        "or a run-manifest JSON"
    )


def cmd_trace(args) -> int:
    """Export visual trace formats: Perfetto timelines and flamegraphs."""
    from repro.io import (
        dumps_chrome,
        events_to_chrome,
        load_event_arrays,
        manifest_to_chrome,
        profile_to_collapsed,
    )
    from repro.io.profilefile import loads_profile
    from repro.telemetry import Manifest

    source = Path(args.input)
    try:
        raw = source.read_bytes()
        if raw.startswith(_EVENTS_MAGIC):
            # Either version: the v2 reader loads v2 and rejects v1.
            kind, text = "events", ""
        else:
            text = raw.decode()
            kind = _sniff_trace_input(text)
    except (OSError, ValueError) as exc:
        log.error("cannot read %s: %s", args.input, exc)
        return 2

    if args.format == "chrome":
        if kind == "events":
            try:
                events = load_event_arrays(source)
            except ValueError as exc:
                log.error("cannot read %s: %s", args.input, exc)
                return 2
            trace = events_to_chrome(events)
            summary = (f"{events.n_segments} segments, "
                       f"{len(events.data)} data flows")
        elif kind == "manifest":
            manifest = Manifest.from_json(text)
            trace = manifest_to_chrome(manifest)
            summary = (f"{manifest.workload}/{manifest.size}, "
                       f"{len(manifest.phases)} pipeline phases")
        else:
            log.error(
                "aggregate profiles carry no timeline; use --format "
                "collapsed for a flamegraph, or trace an --events-out file"
            )
            return 2
        rendered = dumps_chrome(trace)
        suffix = ".trace.json"
    else:  # collapsed
        if kind != "profile":
            log.error(
                "collapsed stacks need the calling-context tree of an "
                "aggregate profile (`repro profile -o`); %s is a %s file",
                args.input, kind,
            )
            return 2
        rendered = profile_to_collapsed(loads_profile(text), weight=args.weight)
        summary = f"weight {args.weight}, {len(rendered.splitlines())} stacks"
        suffix = ".collapsed"

    if args.output == "-":
        sys.stdout.write(rendered)
        return 0
    out = Path(args.output) if args.output else source.with_name(
        source.stem + suffix
    )
    out.write_text(rendered)
    what = "chrome trace" if args.format == "chrome" else "collapsed stacks"
    hint = "ui.perfetto.dev" if args.format == "chrome" else "speedscope.app"
    print(f"{what} written to {out} ({summary}; open in {hint})")
    return 0


def cmd_timeline(args) -> int:
    """Time-resolved curves of an event log as Perfetto counter tracks.

    Streams the file chunk-at-a-time (bounded memory on arbitrarily large
    v2 logs) and emits WS(t), communication-bytes-per-window, ops-per-window
    and mean-reuse-lifetime counter tracks.
    """
    from repro.analysis.windowed import windowed_curves
    from repro.io import curves_to_chrome, dumps_chrome

    source = Path(args.events)
    try:
        curves = windowed_curves(
            source, window=args.window, telemetry=_telemetry_from(args)
        )
    except (OSError, ValueError) as exc:
        log.error("cannot analyse %s: %s", args.events, exc)
        return 2

    if args.curves_out:
        Path(args.curves_out).write_text(
            json.dumps(curves.to_dict(), separators=(",", ":")) + "\n"
        )

    rendered = dumps_chrome(curves_to_chrome(curves))
    if args.output == "-":
        sys.stdout.write(rendered)
        return 0
    out = (
        Path(args.output)
        if args.output
        else source.with_name(source.stem + ".timeline.json")
    )
    out.write_text(rendered)
    peak = curves.peak_ws_bytes
    print(
        f"timeline written to {out} ({curves.n_windows} windows of "
        f"{curves.window} ops, {curves.total_segments} segments, "
        f"{curves.total_comm_bytes} comm bytes, peak WS {peak} B; "
        f"open in ui.perfetto.dev)"
    )
    return 0


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


def _campaign_store(args):
    from repro.campaign import ResultStore

    return ResultStore(getattr(args, "store", None))


def _campaign_spec_from(args):
    """Build the campaign spec from ``--spec`` or the matrix flags."""
    from repro.campaign import CampaignSpec
    from repro.workloads import ALL_NAMES

    if getattr(args, "spec", None):
        spec = CampaignSpec.load(args.spec)
        if getattr(args, "name", None):
            spec.name = args.name
            spec.validate()
        return spec
    if not getattr(args, "workloads", None):
        raise ValueError("campaign run needs --spec FILE or --workloads LIST")
    workloads = (
        list(ALL_NAMES) if args.workloads == "all" else args.workloads.split(",")
    )
    configs = [json.loads(c) for c in (args.config or [])]
    return CampaignSpec.from_lists(
        name=getattr(args, "name", None) or "campaign",
        workloads=workloads,
        sizes=args.sizes.split(",") if args.sizes else None,
        tools=args.tools.split(",") if args.tools else None,
        configs=configs or None,
    )


def _campaign_execute(args, spec, store, state, *, skip_keys=frozenset()) -> int:
    """Shared body of ``campaign run`` and ``campaign resume``."""
    from repro.campaign import run_campaign, write_campaign_manifest

    jobs = spec.jobs()
    if args.dry_run:
        result = run_campaign(jobs, store, None, dry_run=True,
                              skip_keys=skip_keys)
        for job in jobs:
            rec = result.records[job.key]
            verb = "cached" if rec.cached else "run"
            print(f"{verb:7s} {job.key[:12]}  {job.label}")
        print(result.summary(spec.name))
        return 0
    result = run_campaign(
        jobs,
        store,
        state,
        workers=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        backoff=args.backoff,
        heartbeat_seconds=getattr(args, "heartbeat_secs", None),
        progress=lambda line: log.info("%s", line),
        skip_keys=skip_keys,
    )
    manifest_path = write_campaign_manifest(
        state, jobs, result.records, store,
        wall_seconds=result.wall_seconds,
    )
    print(result.summary(spec.name))
    print(f"campaign manifest written to {manifest_path}")
    if not result.ok:
        for rec in result.records.values():
            if rec.state != "done":
                log.error("%s: %s%s", rec.label, rec.state,
                          f" ({rec.error})" if rec.error else "")
        return 1
    return 0


def cmd_campaign_run(args) -> int:
    from repro.campaign import CampaignState

    store = _campaign_store(args)
    spec = _campaign_spec_from(args)
    state = CampaignState(store.campaign_dir(spec.name))
    if not args.dry_run:
        state.save_spec(spec)
    return _campaign_execute(args, spec, store, state)


def cmd_campaign_resume(args) -> int:
    from repro.campaign import CampaignState

    store = _campaign_store(args)
    state = CampaignState(store.campaign_dir(args.name))
    spec = state.load_spec()
    completed = state.completed_keys()
    log.info("resume: %d of %d jobs already complete",
             len(completed), len(spec))
    return _campaign_execute(args, spec, store, state,
                             skip_keys=completed)


def cmd_campaign_status(args) -> int:
    from repro.campaign import (
        CampaignState,
        build_campaign_manifest,
        render_status,
    )

    store = _campaign_store(args)
    state = CampaignState(store.campaign_dir(args.name))
    spec = state.load_spec()
    jobs = spec.jobs()
    records = state.replay()
    if getattr(args, "json", False):
        print(json.dumps(
            build_campaign_manifest(spec.name, jobs, records, store),
            indent=2, sort_keys=True,
        ))
        return 0
    print(render_status(spec.name, jobs, records, store))
    return 0


def cmd_campaign_clean(args) -> int:
    import shutil

    from repro.campaign import CampaignState

    store = _campaign_store(args)
    if getattr(args, "all", False):
        if store.root.exists():
            shutil.rmtree(store.root)
            print(f"removed store {store.root}")
        else:
            print(f"nothing to remove at {store.root}")
        return 0
    if not getattr(args, "name", None):
        log.error("campaign clean needs a campaign name or --all")
        return 2
    state = CampaignState(store.campaign_dir(args.name))
    removed_jobs = 0
    if getattr(args, "objects", False) and state.exists():
        spec = state.load_spec()
        removed_jobs = sum(store.drop(job.key) for job in spec.jobs())
    if state.remove():
        suffix = f" and {removed_jobs} stored results" if removed_jobs else ""
        print(f"removed campaign '{args.name}'{suffix}")
        return 0
    log.error("no campaign named %r under %s", args.name, store.root)
    return 2


def cmd_campaign_verify(args) -> int:
    """Integrity-check every stored result; non-zero exit on corruption."""
    store = _campaign_store(args)
    report = store.verify_all()
    if report.corrupt:
        for key in report.corrupt:
            log.error("corrupt store entry: %s", key)
        print(f"store {store.root}: {report.checked} entries checked, "
              f"{len(report.corrupt)} CORRUPT")
        return 1
    print(f"store {store.root}: {report.checked} entries checked, all ok")
    return 0


# ---------------------------------------------------------------------------
# serve: profiling-as-a-service
# ---------------------------------------------------------------------------


def _http_json(url: str, body=None, timeout: float = 30.0):
    """One JSON request against the serve daemon; errors become one line."""
    import urllib.error
    import urllib.request

    data = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    req = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        detail = ""
        try:
            detail = json.loads(exc.read().decode()).get("error", "")
        except (ValueError, OSError):
            pass
        raise RuntimeError(
            f"{url}: HTTP {exc.code}" + (f": {detail}" if detail else "")
        ) from None
    except urllib.error.URLError as exc:
        raise RuntimeError(f"cannot reach {url}: {exc.reason}") from None


def cmd_serve(args) -> int:
    """Run the profiling daemon until interrupted (ctrl-C exits cleanly)."""
    from repro.campaign import ResultStore
    from repro.serve import create_server, serve_forever

    store = ResultStore(getattr(args, "store", None))
    server = create_server(
        store,
        host=args.host,
        port=args.port,
        workers=args.jobs,
        concurrency=args.concurrency,
        timeout=args.timeout,
        retries=args.retries,
        heartbeat_seconds=getattr(args, "heartbeat_secs", None) or 5.0,
        resume=not args.no_resume,
    )
    host, port = server.server_address[0], server.server_address[1]
    print(f"repro serve: listening on http://{host}:{port} "
          f"(store {store.root})")
    sys.stdout.flush()
    serve_forever(server, port_file=args.port_file)
    return 0


def cmd_submit(args) -> int:
    """POST one job to a running daemon; prints only the job id (stdout)."""
    if args.body:
        text = sys.stdin.read() if args.body == "-" else Path(args.body).read_text()
        body = json.loads(text)
    elif args.workload:
        body = {
            "workload": args.workload,
            "size": args.size,
            "tool": args.tool,
        }
        if args.config:
            body["config"] = json.loads(args.config)
    else:
        log.error("submit needs a WORKLOAD or --body FILE")
        return 2
    resp = _http_json(args.url.rstrip("/") + "/jobs", body)
    log.info("submitted %s (%s cells) to %s", resp["job"], resp["cells"],
             args.url)
    print(resp["job"])
    return 0


def _render_trace_record(rec) -> str:
    """One human line per trace record (shared by both watch modes)."""
    seq = rec.get("seq", 0)
    event = str(rec.get("event", "?"))
    bits = []
    if rec.get("label"):
        bits.append(str(rec["label"]))
    if event == "done":
        bits.append(
            "cached" if rec.get("cached")
            else f"{float(rec.get('seconds', 0.0)):.2f}s"
        )
    elif event in ("submitted", "resumed"):
        bits.append(f"{rec.get('name', '?')}: {rec.get('cells', '?')} cells")
    elif event == "heartbeat":
        bits.append(str(rec.get("message", "")))
    elif event == "phases":
        skip = {"seq", "event", "t", "job", "key", "label"}
        bits.append(" ".join(
            f"{k}={float(v):.3f}s" for k, v in sorted(rec.items())
            if k not in skip and isinstance(v, (int, float))
        ))
    elif event in ("completed", "error"):
        state = str(rec.get("state", event))
        summary = " ".join(
            f"{k}={rec[k]}" for k in
            ("total", "done", "cached", "executed", "failed", "timeout")
            if k in rec
        )
        bits.append(state + (f" ({summary})" if summary else ""))
        if rec.get("message"):
            bits.append(str(rec["message"]))
    elif rec.get("error"):
        bits.append(str(rec["error"]))
    return f"#{int(seq):<4d} {event:<10s} " + "  ".join(b for b in bits if b)


def _watch_exit_code(rec) -> int:
    """Map a terminal trace record to the watcher's exit code."""
    return 0 if rec.get("state") == "done" else 1


def _watch_sse(args) -> int:
    """Stream a job's events from a daemon over SSE until it finishes."""
    import urllib.error
    import urllib.request

    url = (f"{args.url.rstrip('/')}/jobs/{args.job}/events"
           f"?after={args.after}")
    try:
        resp = urllib.request.urlopen(url, timeout=args.timeout or 300.0)
    except urllib.error.HTTPError as exc:
        log.error("%s: HTTP %d", url, exc.code)
        return 2
    except urllib.error.URLError as exc:
        log.error("cannot reach %s: %s", url, exc.reason)
        return 2
    from repro.serve import TERMINAL_EVENTS

    with resp:
        for raw in resp:
            line = raw.decode("utf-8", "replace").rstrip("\n")
            if not line.startswith("data: "):
                continue  # id:/event:/retry:/pings; data carries the record
            rec = json.loads(line[len("data: "):])
            print(_render_trace_record(rec))
            sys.stdout.flush()
            if rec.get("event") in TERMINAL_EVENTS:
                return _watch_exit_code(rec)
    log.error("stream ended before the job finished")
    return 1


def cmd_watch(args) -> int:
    """Follow a serve job to completion: trace-file tail or SSE (--url)."""
    if args.url:
        return _watch_sse(args)
    import time as _time

    from repro.campaign import ResultStore
    from repro.serve import TERMINAL_EVENTS
    from repro.telemetry import read_jsonl

    store = ResultStore(getattr(args, "store", None))
    trace = store.root / "serve" / "jobs" / args.job / "trace.jsonl"
    if not trace.parent.exists():
        log.error("no such serve job: %s (under %s)", args.job, store.root)
        return 2
    deadline = (_time.monotonic() + args.timeout) if args.timeout else None
    last = args.after
    while True:
        for rec in read_jsonl(trace):
            if int(rec.get("seq", 0)) <= last:
                continue
            last = int(rec.get("seq", 0))
            print(_render_trace_record(rec))
            sys.stdout.flush()
            if rec.get("event") in TERMINAL_EVENTS:
                return _watch_exit_code(rec)
        if deadline is not None and _time.monotonic() >= deadline:
            log.error("gave up after %.0fs (job still running)", args.timeout)
            return 1
        _time.sleep(0.2)


def cmd_metrics(args) -> int:
    """Scrape a daemon's Prometheus exposition and print it verbatim."""
    import urllib.error
    import urllib.request

    url = args.url.rstrip("/") + "/metrics"
    try:
        with urllib.request.urlopen(url, timeout=10.0) as resp:
            sys.stdout.write(resp.read().decode())
    except urllib.error.URLError as exc:
        log.error("cannot scrape %s: %s", url, exc)
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer that is zero or more."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _core_counts(text: str) -> List[int]:
    """argparse type: comma-separated positive core counts (``1,2,4``)."""
    try:
        return [_positive_int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text!r}"
        ) from None


def _positive_float(text: str) -> float:
    """argparse type: a strictly positive float."""
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _telemetry_parent() -> argparse.ArgumentParser:
    """Shared telemetry/logging flags, attachable to any subcommand.

    Defaults are ``SUPPRESS`` so a flag given before the subcommand (on the
    main parser) is not clobbered by the subparser's defaults; readers use
    ``getattr`` with fallbacks.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("telemetry / logging")
    group.add_argument(
        "--telemetry", action="store_true", default=argparse.SUPPRESS,
        help="measure the run itself and always write a JSON run manifest")
    group.add_argument(
        "--no-telemetry", dest="no_telemetry", action="store_true",
        default=argparse.SUPPRESS,
        help="disable self-telemetry (zero extra calls on the event path)")
    group.add_argument(
        "--manifest-out", metavar="FILE", default=argparse.SUPPRESS,
        help="write the run manifest to FILE")
    group.add_argument(
        "--heartbeat", type=_positive_int, metavar="N",
        default=argparse.SUPPRESS,
        help="print a stderr progress line every N dispatched events")
    group.add_argument(
        "--heartbeat-secs", type=_positive_float, metavar="T",
        default=argparse.SUPPRESS,
        help="print a stderr progress line at least every T seconds")
    group.add_argument(
        "-v", "--verbose", action="count", default=argparse.SUPPRESS,
        help="more logging (-v info, -vv debug)")
    group.add_argument(
        "-q", "--quiet", action="count", default=argparse.SUPPRESS,
        help="less logging (errors only)")
    return parent


def _add_events_format_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--events-format", choices=["text", "bin"], default="bin",
        help="event-file format for --events-out: 'bin' is the columnar "
             "# sigil-events 2 (compact, loads without per-row objects); "
             "'text' is the line-oriented v1, written for people to read "
             "and diff; every reader takes bin (default: bin)")


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    # Not argparse `choices`: unknown workloads are reported by the registry
    # with a one-line error (see `main`), not a usage dump -- campaign
    # workers and scripts parse that stderr line.
    p.add_argument("workload", metavar="WORKLOAD",
                   help="benchmark to run (see `repro list`)")
    p.add_argument("--size", default="simsmall",
                   choices=[s.value for s in InputSize])


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for every subcommand."""
    common = _telemetry_parent()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sigil reproduction: function-level communication profiling",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list available workloads")
    p.add_argument("--json", action="store_true",
                   help="emit the workload registry as machine-readable "
                        "JSON (for scripting campaign specs)")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("profile", help="profile a workload with Sigil",
                       parents=[common])
    _add_workload_args(p)
    p.add_argument("--reuse", action="store_true", help="enable re-use mode")
    p.add_argument("--events", action="store_true", help="enable event mode")
    p.add_argument("--line-size", type=int, default=1,
                   help="shadow granularity in bytes (power of two)")
    p.add_argument("--max-shadow-pages", type=int, default=None,
                   help="shadow-memory limit (pages); evicts the least "
                        "recently touched page")
    p.add_argument("-o", "--output", help="write the aggregate profile here")
    p.add_argument("--events-out", help="write the event file here")
    _add_events_format_arg(p)
    p.add_argument("--callgrind-out", help="write the callgrind profile here")
    p.add_argument("--trace-out", metavar="FILE",
                   help="write a Chrome/Perfetto trace of the run here "
                        "(implies --events)")
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("report", help="summarise a saved profile")
    p.add_argument("profile", help="file written by `repro profile -o`")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--tree", action="store_true",
                   help="print the annotated calling-context tree")
    p.add_argument("--dot", help="write a graphviz CDFG here")
    p.add_argument("--kcachegrind",
                   help="export communication metrics in callgrind format")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("partition", help="HW/SW partitioning study",
                       parents=[common])
    p.add_argument("workload", nargs="?", metavar="WORKLOAD")
    p.add_argument("--size", default="simsmall",
                   choices=[s.value for s in InputSize])
    p.add_argument("--profile", help="saved Sigil profile (offline mode)")
    p.add_argument("--callgrind", help="saved callgrind profile (offline mode)")
    p.add_argument("--bandwidth", type=float, default=8.0,
                   help="SoC bus bandwidth, bytes/cycle")
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("reuse", help="data re-use study", parents=[common])
    _add_workload_args(p)
    p.add_argument("--function", help="print this function's lifetime histogram")
    p.add_argument("--mrc", action="store_true",
                   help="also print the stack-distance miss-ratio curve")
    p.add_argument("--top", type=int, default=8)
    p.set_defaults(func=cmd_reuse)

    p = sub.add_parser("figures", help="regenerate the paper's tables/figures")
    p.add_argument("--only", help="pytest -k filter, e.g. 'fig7 or table2'")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("diff", help="compare two saved profiles")
    p.add_argument("baseline")
    p.add_argument("subject")
    p.add_argument("--top", type=int, default=15)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("run", help="assemble and profile a .s program",
                       parents=[common])
    p.add_argument("program", help="assembly file (see repro.vm.asm)")
    p.add_argument("--entry", default="main")
    p.add_argument("--reuse", action="store_true")
    p.add_argument("--events", action="store_true")
    p.add_argument("-o", "--output", help="write the aggregate profile here")
    p.add_argument("--events-out", help="write the event file here")
    _add_events_format_arg(p)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("critpath", help="critical-path / scheduling study",
                       parents=[common])
    p.add_argument("target", help="event file or workload name")
    p.add_argument("--size", default="simsmall",
                   choices=[s.value for s in InputSize])
    p.add_argument("--cores", type=_core_counts,
                   help="comma-separated core counts to schedule")
    p.add_argument("--dot", help="write the dependency-chain graph here")
    p.set_defaults(func=cmd_critpath)

    p = sub.add_parser("trace",
                       help="export Perfetto timelines / flamegraphs")
    p.add_argument("input",
                   help="event file, aggregate profile, or run manifest")
    p.add_argument("--format", choices=["chrome", "collapsed"],
                   default="chrome",
                   help="chrome: Perfetto/chrome://tracing JSON (event file "
                        "or manifest); collapsed: speedscope/FlameGraph "
                        "stacks (aggregate profile)")
    p.add_argument("--weight", choices=sorted(_COLLAPSED_WEIGHTS),
                   default="ops",
                   help="flamegraph weight axis (collapsed format only)")
    p.add_argument("-o", "--output",
                   help="output file (default: derived from input; "
                        "'-' for stdout)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "timeline",
        help="time-resolved WS(t)/communication counter tracks",
        parents=[common],
    )
    p.add_argument("events", help="event file (v2 logs stream out of core)")
    p.add_argument("--window", type=_positive_int, metavar="N",
                   default=DEFAULT_WINDOW_OPS,
                   help="window width in retired operations "
                        f"(default {DEFAULT_WINDOW_OPS})")
    p.add_argument("-o", "--output",
                   help="Perfetto trace output (default: "
                        "<events>.timeline.json; '-' for stdout)")
    p.add_argument("--curves-out", metavar="FILE",
                   help="also write the raw repro-windowed/1 curves JSON")
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("stats", help="print / compare run manifests")
    p.add_argument("manifests", nargs="+",
                   help="manifest JSON files written by telemetry runs "
                        "('-' reads one manifest from stdin)")
    p.add_argument("--metrics", dest="verbose_metrics", action="store_true",
                   help="also dump every raw metric per manifest")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "campaign",
        help="batch profiling campaigns: parallel, cached, resumable",
    )
    csub = p.add_subparsers(dest="campaign_cmd", required=True)

    def _store_arg(cp: argparse.ArgumentParser) -> None:
        cp.add_argument(
            "--store", metavar="DIR", default=None,
            help="result store root (default: $REPRO_CAMPAIGN_STORE "
                 "or ./.repro-campaigns)")

    def _exec_args(cp: argparse.ArgumentParser) -> None:
        cp.add_argument("-j", "--jobs", type=_positive_int, default=1,
                        metavar="N", help="worker processes (default 1)")
        cp.add_argument("--timeout", type=_positive_float, metavar="S",
                        default=None,
                        help="kill any job running longer than S seconds")
        cp.add_argument("--retries", type=_nonnegative_int, default=1,
                        metavar="N",
                        help="re-attempts per failed/timed-out job "
                             "(default 1)")
        cp.add_argument("--backoff", type=_positive_float, default=0.5,
                        metavar="S",
                        help="base retry backoff; doubles per attempt "
                             "(default 0.5s)")
        cp.add_argument("--dry-run", action="store_true",
                        help="plan and classify jobs without running any")

    cp = csub.add_parser("run", help="plan and execute a campaign",
                         parents=[common])
    cp.add_argument("--spec", metavar="FILE",
                    help="campaign spec JSON (see docs/campaigns.md)")
    cp.add_argument("--name", help="campaign name (default: from spec "
                                   "or 'campaign')")
    cp.add_argument("--workloads", metavar="LIST",
                    help="comma-separated workloads, or 'all'")
    cp.add_argument("--sizes", metavar="LIST",
                    help="comma-separated input sizes (default simsmall)")
    cp.add_argument("--tools", metavar="LIST",
                    help="comma-separated tool stacks "
                         "(default sigil+callgrind)")
    cp.add_argument("--config", action="append", metavar="JSON",
                    help="SigilConfig variant as JSON; repeatable, each "
                         "adds one matrix axis entry")
    _store_arg(cp)
    _exec_args(cp)
    cp.set_defaults(func=cmd_campaign_run)

    cp = csub.add_parser("resume", help="finish an interrupted campaign",
                         parents=[common])
    cp.add_argument("name", help="campaign name (as given to run)")
    _store_arg(cp)
    _exec_args(cp)
    cp.set_defaults(func=cmd_campaign_resume)

    cp = csub.add_parser("status", help="show a campaign's job states")
    cp.add_argument("name", help="campaign name (as given to run)")
    cp.add_argument("--json", action="store_true",
                    help="emit the campaign manifest JSON instead of "
                         "the table")
    _store_arg(cp)
    cp.set_defaults(func=cmd_campaign_status)

    cp = csub.add_parser("clean", help="drop campaign state / results")
    cp.add_argument("name", nargs="?", help="campaign to remove")
    cp.add_argument("--objects", action="store_true",
                    help="also drop the named campaign's stored results")
    cp.add_argument("--all", action="store_true",
                    help="remove the entire store root")
    _store_arg(cp)
    cp.set_defaults(func=cmd_campaign_clean)

    cp = csub.add_parser(
        "verify",
        help="integrity-check every stored result (exit 1 on corruption)")
    _store_arg(cp)
    cp.set_defaults(func=cmd_campaign_verify)

    default_url = "http://127.0.0.1:8787"

    p = sub.add_parser(
        "serve",
        help="run the profiling-as-a-service daemon (HTTP + SSE + metrics)",
        parents=[common],
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8787,
                   help="bind port; 0 picks an ephemeral one (default 8787)")
    p.add_argument("--port-file", metavar="FILE",
                   help="write the bound host:port here once listening "
                        "(pairs with --port 0 in scripts)")
    p.add_argument("-j", "--jobs", type=_positive_int, default=1, metavar="N",
                   help="worker processes per campaign (default 1)")
    p.add_argument("--concurrency", type=_positive_int, default=1,
                   metavar="N", help="serve jobs executing at once "
                                     "(default 1)")
    p.add_argument("--timeout", type=_positive_float, metavar="S",
                   default=None,
                   help="kill any cell running longer than S seconds")
    p.add_argument("--retries", type=_nonnegative_int, default=1,
                   metavar="N",
                   help="re-attempts per failed cell (default 1)")
    p.add_argument("--no-resume", action="store_true",
                   help="do not re-queue journaled jobs from a previous run")
    _store_arg(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit", help="submit a job to a running repro serve daemon",
        parents=[common],
    )
    p.add_argument("workload", nargs="?", metavar="WORKLOAD",
                   help="workload for a single-cell job")
    p.add_argument("--size", default="simsmall",
                   choices=[s.value for s in InputSize])
    p.add_argument("--tool", default="sigil+callgrind",
                   help="tool stack (default sigil+callgrind)")
    p.add_argument("--config", metavar="JSON",
                   help="SigilConfig overrides for the cell")
    p.add_argument("--body", metavar="FILE",
                   help="raw JSON job body instead of the flags "
                        "('-' reads stdin); accepts the campaign form too")
    p.add_argument("--url", default=default_url,
                   help=f"daemon base URL (default {default_url})")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "watch", help="follow a serve job's event trace to completion",
        parents=[common],
    )
    p.add_argument("job", metavar="JOB", help="serve job id (job-NNNNNN)")
    p.add_argument("--url", default=None,
                   help="stream over SSE from this daemon URL instead of "
                        "tailing the trace file")
    p.add_argument("--after", type=int, default=0, metavar="SEQ",
                   help="skip events with seq <= SEQ (resume a watch)")
    p.add_argument("--timeout", type=_positive_float, metavar="S",
                   default=None, help="give up after S seconds")
    _store_arg(p)
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser(
        "metrics", help="scrape a serve daemon's Prometheus /metrics")
    p.add_argument("--url", default=default_url,
                   help=f"daemon base URL (default {default_url})")
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    _setup_logging(
        getattr(args, "verbose", 0) - getattr(args, "quiet", 0)
    )
    if args.command == "partition" and not args.workload and not (
        args.profile and args.callgrind
    ):
        parser.error("partition needs a workload or --profile AND --callgrind")
    try:
        return args.func(args)
    except BrokenPipeError:  # output piped into head/less and closed early
        return 0
    except KeyboardInterrupt:
        # A killed campaign (or any long run) exits cleanly; journaled
        # state makes `repro campaign resume` pick up from here.
        log.error("interrupted")
        return 130
    except Exception as exc:
        # One line on stderr, never a traceback: campaign workers and
        # scripts drive this CLI and parse its stderr.  -vv keeps the
        # traceback for debugging.
        if log.isEnabledFor(logging.DEBUG):
            log.exception("command failed")
        else:
            message = (
                exc.args[0]
                if isinstance(exc, KeyError) and exc.args
                else exc
            )
            log.error("%s", message)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
