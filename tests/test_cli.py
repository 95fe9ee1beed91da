"""CLI tests: every subcommand, live and offline paths."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

from tests.eventlog import event_arrays


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_lists_all_workloads(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        for name in ("blackscholes", "libquantum", "x264"):
            assert name in out
        assert "simsmall" in out


class TestProfile:
    def test_summary_output(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "streamcluster", "--top", "5")
        assert code == 0
        assert "streamcluster" in out
        assert "contexts" in out
        assert "uniq_in_B" in out

    def test_writes_all_outputs(self, capsys, tmp_path):
        prof = tmp_path / "w.profile"
        events = tmp_path / "w.events"
        cg = tmp_path / "w.cg"
        code, out, _ = run_cli(
            capsys, "profile", "freqmine", "--reuse", "--events",
            "-o", str(prof), "--events-out", str(events),
            "--callgrind-out", str(cg),
        )
        assert code == 0
        assert prof.read_text().startswith("# sigil-profile 1")
        # Event files default to the binary columnar v2 format.
        assert events.read_bytes().startswith(b"# sigil-events 2\n")
        assert cg.read_text().startswith("# callgrind-equiv 1")

    def test_events_out_implies_events(self, capsys, tmp_path):
        events = tmp_path / "x.events"
        code, _, _ = run_cli(
            capsys, "profile", "freqmine", "--events-out", str(events),
        )
        assert code == 0
        assert events.read_bytes().startswith(b"# sigil-events 2\n")

    def test_events_format_text_writes_v1(self, capsys, tmp_path):
        events = tmp_path / "x.events"
        code, _, _ = run_cli(
            capsys, "profile", "freqmine", "--events-out", str(events),
            "--events-format", "text",
        )
        assert code == 0
        assert events.read_text().startswith("# sigil-events 1")

    def test_binary_and_text_events_analyze_identically(self, capsys, tmp_path):
        """Both formats hold the same log: the text file is the text of
        the binary file's log, byte for byte."""
        from repro.io import dumps_events, load_event_arrays

        text_path = tmp_path / "t.events"
        bin_path = tmp_path / "b.events"
        for path, fmt in ((text_path, "text"), (bin_path, "bin")):
            code, _, _ = run_cli(
                capsys, "profile", "freqmine", "--events-out", str(path),
                "--events-format", fmt,
            )
            assert code == 0
        assert text_path.read_text() == dumps_events(
            load_event_arrays(bin_path)
        )

    def test_trace_out_writes_combined_chrome_trace(self, capsys, tmp_path):
        trace = tmp_path / "run.trace.json"
        code, out, _ = run_cli(
            capsys, "profile", "blackscholes", "--trace-out", str(trace),
        )
        assert code == 0
        assert "perfetto" in out
        events = json.loads(trace.read_text())
        assert isinstance(events, list)
        pids = {e["pid"] for e in events}
        assert 0 in pids and 1 in pids  # pipeline track + workload thread
        phase_names = {e["name"] for e in events if e.get("cat") == "phase"}
        assert {"setup", "execute", "aggregate"} <= phase_names

    def test_memory_limit_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "dedup", "--max-shadow-pages", "8",
        )
        assert code == 0

    def test_unknown_workload_rejected(self, capsys):
        code, _, err = run_cli(capsys, "profile", "doom")
        assert code == 1
        # One line on stderr, no traceback: campaign workers parse this.
        assert "unknown workload" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


class TestReport:
    def test_offline_report(self, capsys, tmp_path):
        prof = tmp_path / "w.profile"
        run_cli(capsys, "profile", "canneal", "-o", str(prof))
        code, out, _ = run_cli(capsys, "report", str(prof), "--top", "6")
        assert code == 0
        assert "data edges" in out
        assert "mul" in out or "swap_locations" in out

    def test_dot_export(self, capsys, tmp_path):
        prof = tmp_path / "w.profile"
        dot = tmp_path / "w.dot"
        run_cli(capsys, "profile", "canneal", "-o", str(prof))
        code, _, _ = run_cli(capsys, "report", str(prof), "--dot", str(dot))
        assert code == 0
        assert dot.read_text().startswith("digraph")


class TestPartition:
    def test_live(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "blackscholes")
        assert code == 0
        assert "S(breakeven)" in out
        assert "candidates cover" in out

    def test_offline_matches_live(self, capsys, tmp_path):
        prof = tmp_path / "bs.profile"
        cg = tmp_path / "bs.cg"
        run_cli(capsys, "profile", "blackscholes", "-o", str(prof),
                "--callgrind-out", str(cg))
        code, offline_out, _ = run_cli(
            capsys, "partition", "--profile", str(prof), "--callgrind", str(cg)
        )
        assert code == 0
        _, live_out, _ = run_cli(capsys, "partition", "blackscholes")
        # Same candidate table (headers + rows), regardless of run order.
        offline_table = offline_out.split("\n\n")[-1]
        live_table = live_out.split("\n\n")[-1]
        assert offline_table == live_table

    def test_bandwidth_changes_breakeven(self, capsys):
        _, narrow, _ = run_cli(capsys, "partition", "vips", "--bandwidth", "1")
        _, wide, _ = run_cli(capsys, "partition", "vips", "--bandwidth", "64")
        assert narrow != wide

    def test_missing_inputs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "partition")

    def test_live_run_writes_its_manifest(self, capsys, tmp_path):
        manifest = tmp_path / "p.json"
        code, out, _ = run_cli(
            capsys, "partition", "blackscholes", "--manifest-out", str(manifest)
        )
        assert code == 0
        assert f"manifest written to {manifest}" in out
        phases = json.loads(manifest.read_text())["phases"]
        assert set(phases) >= {"setup", "execute", "aggregate"}


class TestReuse:
    def test_breakdown_and_rankings(self, capsys):
        code, out, _ = run_cli(capsys, "reuse", "vips")
        assert code == 0
        assert "re-use count" in out
        assert "conv_gen" in out
        assert "contributors" in out

    def test_function_histogram(self, capsys):
        code, out, _ = run_cli(
            capsys, "reuse", "vips", "--function", "imb_XYZ2Lab"
        )
        assert code == 0
        assert "lifetime histogram" in out

    def test_unknown_function(self, capsys):
        code, _, err = run_cli(capsys, "reuse", "vips", "--function", "nope")
        assert code == 2
        assert "not found" in err

    def test_mrc_rides_in_the_profiled_run(self, capsys, monkeypatch):
        """--mrc prints a standalone stack-distance run's curve, yet runs
        the workload only once: the profiler joins the Sigil run."""
        from repro.core import ReuseDistanceProfiler
        from repro.workloads import get_workload
        from repro.workloads.base import Workload

        standalone = ReuseDistanceProfiler(64)
        get_workload("dedup", "simsmall").run(standalone)
        expected = [
            [str(capacity), str(capacity * 64 // 1024), "KB", f"{ratio:.4f}"]
            for capacity, ratio in standalone.miss_ratio_curve(
                [2 ** k for k in range(2, 14)]
            )
        ]

        runs = []
        real_run = Workload.run

        def counting_run(self, observer=None):
            runs.append(self.name)
            return real_run(self, observer)

        monkeypatch.setattr(Workload, "run", counting_run)
        code, out, _ = run_cli(capsys, "reuse", "dedup", "--mrc")
        assert code == 0
        assert runs == ["dedup"]
        curve = out.split("miss-ratio curve from LRU stack distances")[1]
        rows = [line.split() for line in curve.splitlines()
                if line[:1].isdigit()]
        assert rows == expected


class TestCritpath:
    def test_live_workload(self, capsys):
        code, out, _ = run_cli(capsys, "critpath", "streamcluster")
        assert code == 0
        assert "parallelism" in out
        assert "pkmedian" in out

    def test_event_file_with_schedule(self, capsys, tmp_path):
        events = tmp_path / "sc.events"
        run_cli(capsys, "profile", "streamcluster", "--events",
                "--events-out", str(events))
        code, out, _ = run_cli(
            capsys, "critpath", str(events), "--cores", "1,2,4"
        )
        assert code == 0
        assert "speedup" in out
        assert "cross_core_B" in out

    def test_bogus_target(self, capsys):
        code, _, err = run_cli(capsys, "critpath", "no-such-thing")
        assert code == 2

    def test_live_run_writes_its_manifest(self, capsys, tmp_path):
        manifest = tmp_path / "c.json"
        code, out, _ = run_cli(
            capsys, "critpath", "blackscholes", "--manifest-out", str(manifest)
        )
        assert code == 0
        assert f"manifest written to {manifest}" in out
        phases = json.loads(manifest.read_text())["phases"]
        assert set(phases) >= {"setup", "execute", "aggregate"}

    @pytest.mark.parametrize("cores", ["a", "0", "-2", "2,,4"])
    def test_bad_cores_is_a_usage_error(self, capsys, cores):
        """A bad --cores fails while parsing, before any profiling runs."""
        with pytest.raises(SystemExit) as excinfo:
            run_cli(capsys, "critpath", "streamcluster", "--cores", cores)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --cores" in err

    def test_every_input_form_renders_the_same_log(self, capsys, tmp_path):
        """`critpath --dot` and `trace --format chrome` give the same text
        for the v2 file and a live run of the same workload.  Event files
        carry no function names, so file labels read ``ctxN`` where the
        live run names the function."""
        import re

        from repro import SigilConfig, profile_workload
        from repro.io import dumps_chrome, events_to_chrome, load_profile

        prof = tmp_path / "bs.profile"
        events = tmp_path / "bs.bin"
        code, _, _ = run_cli(
            capsys, "profile", "blackscholes", "--size", "simsmall",
            "-o", str(prof), "--events-out", str(events),
        )
        assert code == 0
        dots = {}
        for form, target in (("v2", events), ("run", "blackscholes")):
            dot = tmp_path / f"{form}.dot"
            code, _, _ = run_cli(
                capsys, "critpath", str(target), "--size", "simsmall",
                "--dot", str(dot),
            )
            assert code == 0
            dots[form] = dot.read_text()
        code, trace, _ = run_cli(
            capsys, "trace", str(events), "--format", "chrome", "-o", "-"
        )
        assert code == 0
        tree = load_profile(prof).tree
        named = re.sub(
            r'label="ctx(\d+)\\n',
            lambda m: f'label="{tree.node(int(m[1])).name}\\n',
            dots["v2"],
        )
        assert named == dots["run"] != dots["v2"]
        live = profile_workload(
            "blackscholes", "simsmall", config=SigilConfig(event_mode=True),
            with_callgrind=False,
        )
        assert trace == dumps_chrome(events_to_chrome(live.sigil.events))


class TestTrace:
    @pytest.fixture()
    def bs_files(self, capsys, tmp_path):
        """One blackscholes run's event file, profile and manifest."""
        events = tmp_path / "e.txt"
        prof = tmp_path / "p.profile"
        manifest = tmp_path / "m.manifest.json"
        code, _, _ = run_cli(
            capsys, "profile", "blackscholes", "--size", "simsmall",
            "--events-out", str(events), "-o", str(prof),
            "--manifest-out", str(manifest),
        )
        assert code == 0
        return events, prof, manifest

    def test_chrome_round_trip_matches_event_log(self, capsys, bs_files):
        from collections import defaultdict

        from repro.io import load_event_arrays

        events_path, _, _ = bs_files
        target = events_path.with_name("t.json")
        code, _, _ = run_cli(
            capsys, "trace", str(events_path), "--format", "chrome",
            "-o", str(target),
        )
        assert code == 0
        log = load_event_arrays(events_path)
        trace = json.loads(target.read_text())
        # Chrome trace-event schema: a list of ph-keyed dicts.
        assert isinstance(trace, list)
        assert all(isinstance(e, dict) and "ph" in e for e in trace)
        # Segment count round-trips.
        slices = [e for e in trace if e["ph"] == "X"]
        assert len(slices) == log.n_segments
        # Per-track ordering is monotone in ts.
        by_track = defaultdict(list)
        for e in slices:
            by_track[(e["pid"], e["tid"])].append(e["ts"])
        for ts in by_track.values():
            assert ts == sorted(ts)
        # Flow ids resolve: one start + one finish each; bytes total matches.
        pairs = defaultdict(set)
        for e in trace:
            if e["ph"] in ("s", "f"):
                pairs[e["id"]].add(e["ph"])
        assert all(kinds == {"s", "f"} for kinds in pairs.values())
        total = sum(
            e["args"]["bytes"] for e in trace if e["ph"] == "s"
        )
        assert total == int(log.data["bytes"].sum()) > 0

    def test_collapsed_export_with_weight(self, capsys, bs_files):
        _, prof, _ = bs_files
        target = prof.with_name("f.collapsed")
        code, out, _ = run_cli(
            capsys, "trace", str(prof), "--format", "collapsed",
            "--weight", "unique_in", "-o", str(target),
        )
        assert code == 0
        assert "speedscope" in out
        lines = target.read_text().splitlines()
        assert lines
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)

    def test_manifest_renders_pipeline_phases(self, capsys, bs_files):
        _, _, manifest = bs_files
        target = manifest.with_name("pipe.trace.json")
        code, out, _ = run_cli(capsys, "trace", str(manifest), "-o", str(target))
        assert code == 0
        names = {e["name"] for e in json.loads(target.read_text())
                 if e["ph"] == "X"}
        assert {"setup", "execute", "aggregate"} <= names

    def test_stdout_output(self, capsys, bs_files):
        _, prof, _ = bs_files
        code, out, _ = run_cli(
            capsys, "trace", str(prof), "--format", "collapsed", "-o", "-",
        )
        assert code == 0
        assert "main" in out

    def test_default_output_lands_next_to_input(self, capsys, bs_files):
        events_path, _, _ = bs_files
        code, _, _ = run_cli(capsys, "trace", str(events_path))
        assert code == 0
        assert events_path.with_name("e.trace.json").exists()

    def test_profile_rejected_for_chrome(self, capsys, bs_files):
        _, prof, _ = bs_files
        code, _, err = run_cli(capsys, "trace", str(prof), "--format", "chrome")
        assert code == 2
        assert "collapsed" in err

    def test_events_rejected_for_collapsed(self, capsys, bs_files):
        events_path, _, _ = bs_files
        code, _, err = run_cli(
            capsys, "trace", str(events_path), "--format", "collapsed",
        )
        assert code == 2
        assert "profile" in err

    def test_unrecognised_input(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.txt"
        bogus.write_text("hello\n")
        code, _, err = run_cli(capsys, "trace", str(bogus))
        assert code == 2
        assert "unrecognised" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "trace", str(tmp_path / "nope.txt"))
        assert code == 2

    def test_bad_edge_fails_with_its_line(self, capsys, tmp_path):
        """Regression: an out-of-range edge loaded silently and still
        produced a trace.  The error names the edge's row and chunk."""
        import numpy as np

        from repro.core.segments import (
            DATA_EDGE_DTYPE,
            OC_EDGE_DTYPE,
            SEG_DTYPE,
            EventArrays,
        )
        from repro.io import dump_events_bin

        events = tmp_path / "bad.events"
        dump_events_bin(EventArrays(
            segs=np.array([(0, 0, 0, 1, 0), (1, 1, 1, 1, 0)], dtype=SEG_DTYPE),
            ordercall=np.array([(0, 0, 9)], dtype=OC_EDGE_DTYPE),
            data=np.empty(0, dtype=DATA_EDGE_DTYPE),
        ), events)
        target = tmp_path / "bad.trace.json"
        code, _, err = run_cli(
            capsys, "trace", str(events), "--format", "chrome",
            "-o", str(target),
        )
        assert code == 2
        assert "endpoints out of range" in err
        assert "oced row 0, in chunk 2 at byte" in err
        assert not target.exists()

    def test_empty_event_log_renders_empty_trace(self, capsys, tmp_path):
        """An empty log exports as ``[]`` -- valid Chrome trace JSON."""
        from repro.io import dump_events_bin

        events = tmp_path / "empty.bin"
        dump_events_bin(event_arrays(), events)
        target = tmp_path / "empty.trace.json"
        code, _, _ = run_cli(
            capsys, "trace", str(events), "-o", str(target)
        )
        assert code == 0
        assert json.loads(target.read_text()) == []


class TestTimeline:
    @pytest.fixture()
    def event_file(self, tmp_path):
        from repro.io import dump_events_bin

        log = event_arrays(
            [(i % 2, i, 10 * i, 10) for i in range(6)],
            [("order", i - 1, i) for i in range(1, 6)],
            [(0, 2, 64), (1, 5, 16)],
        )
        path = tmp_path / "ev.bin"
        dump_events_bin(log, path)
        return path

    def test_writes_counter_tracks(self, capsys, event_file):
        target = event_file.with_name("tl.json")
        code, out, _ = run_cli(
            capsys, "timeline", str(event_file), "--window", "10",
            "-o", str(target),
        )
        assert code == 0
        assert "6 windows of 10 ops" in out
        assert "perfetto" in out
        trace = json.loads(target.read_text())
        names = {e["name"] for e in trace if e["ph"] == "C"}
        assert "WS(t) bytes" in names
        assert "comm bytes/window" in names
        assert all(e["ph"] in ("C", "M") for e in trace)

    def test_default_output_lands_next_to_input(self, capsys, event_file):
        code, _, _ = run_cli(
            capsys, "timeline", str(event_file), "--window", "10"
        )
        assert code == 0
        assert event_file.with_name("ev.timeline.json").exists()

    def test_stdout_output(self, capsys, event_file):
        code, out, _ = run_cli(
            capsys, "timeline", str(event_file), "--window", "10", "-o", "-"
        )
        assert code == 0
        assert isinstance(json.loads(out), list)

    def test_curves_out_writes_schema_artifact(self, capsys, event_file):
        from repro.analysis.windowed import WINDOWED_SCHEMA, WindowedCurves

        curves_path = event_file.with_name("curves.json")
        code, _, _ = run_cli(
            capsys, "timeline", str(event_file), "--window", "10",
            "--curves-out", str(curves_path), "-o", "-",
        )
        assert code == 0
        payload = json.loads(curves_path.read_text())
        assert payload["schema"] == WINDOWED_SCHEMA
        curves = WindowedCurves.from_dict(payload)
        assert curves.n_windows == 6
        assert curves.total_comm_bytes == 80

    def test_empty_log(self, capsys, tmp_path):
        from repro.io import dump_events_bin

        events = tmp_path / "empty.bin"
        dump_events_bin(event_arrays(), events)
        code, out, _ = run_cli(capsys, "timeline", str(events), "-o", "-")
        assert code == 0
        assert json.loads(out) == []

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "timeline", str(tmp_path / "nope.bin")
        )
        assert code == 2
        assert "cannot analyse" in err

    def test_window_must_be_positive(self, capsys, event_file):
        with pytest.raises(SystemExit):
            run_cli(
                capsys, "timeline", str(event_file), "--window", "0"
            )


class TestRun:
    def test_assembly_program(self, capsys, tmp_path):
        src = tmp_path / "prog.s"
        src.write_text(
            ".func main\n"
            "    const r0, 4096\n"
            "    const r1, 5\n"
            "    store r1, [r0+0], 8\n"
            "    call double, r0 -> r2\n"
            "    ret r2\n"
            "\n"
            ".func double/1\n"
            "    load r1, [r0+0], 8\n"
            "    muli r2, r1, 2\n"
            "    ret r2\n"
        )
        code, out, _ = run_cli(capsys, "run", str(src))
        assert code == 0
        assert "returned 10" in out
        assert "double" in out

    def test_run_writes_outputs(self, capsys, tmp_path):
        src = tmp_path / "prog.s"
        src.write_text(".func main\n    const r0, 1\n    ret r0\n")
        prof = tmp_path / "p.profile"
        events = tmp_path / "p.events"
        code, _, _ = run_cli(
            capsys, "run", str(src), "--events",
            "-o", str(prof), "--events-out", str(events),
        )
        assert code == 0
        assert prof.exists() and events.exists()

    def test_shipped_example_runs(self, capsys):
        from pathlib import Path

        example = Path(__file__).parent.parent / "examples" / "toy_program.s"
        code, out, _ = run_cli(capsys, "run", str(example))
        assert code == 0
        assert "returned 42" in out

    def test_run_manifest_reports_the_transport(self, capsys, tmp_path):
        """`run` attaches Sigil, which has no batch kernel, so it dispatches
        scalar and its manifest carries no transport metrics."""
        from pathlib import Path

        example = Path(__file__).parent.parent / "examples" / "toy_program.s"
        manifest = tmp_path / "m.manifest.json"
        code, _, _ = run_cli(
            capsys, "run", str(example), "--manifest-out", str(manifest)
        )
        assert code == 0
        metrics = json.loads(manifest.read_text())["metrics"]
        assert metrics["events.total"] > 0
        assert "batch.flushes" not in metrics


class TestReportTree:
    def test_calltree_rendering(self, capsys, tmp_path):
        prof = tmp_path / "w.profile"
        run_cli(capsys, "profile", "dedup", "-o", str(prof))
        code, out, _ = run_cli(capsys, "report", str(prof), "--tree")
        assert code == 0
        assert "incl%" in out
        assert "sha1_block_data_order" in out

    def test_matmul_example(self, capsys):
        from pathlib import Path

        example = Path(__file__).parent.parent / "examples" / "matmul.s"
        code, out, _ = run_cli(capsys, "run", str(example))
        assert code == 0
        assert "returned 4944" in out  # sum of (A @ A) with A = 1..16
        assert "dot_row" in out


class TestFigures:
    def test_single_figure_regeneration(self, capsys):
        code, out, _ = run_cli(capsys, "figures", "--only", "fig9")
        assert code == 0
        assert "fig9_vips_lifetimes.txt" in out

    def test_kcachegrind_export(self, capsys, tmp_path):
        prof = tmp_path / "w.profile"
        kcg = tmp_path / "w.callgrind"
        run_cli(capsys, "profile", "dedup", "-o", str(prof))
        code, out, _ = run_cli(
            capsys, "report", str(prof), "--kcachegrind", str(kcg)
        )
        assert code == 0
        assert kcg.read_text().startswith("# callgrind format")
        assert "events: Ops UniqIn UniqOut Local NonUniqIn" in kcg.read_text()


class TestAssemblyPipeline:
    def test_run_then_offline_analyses(self, capsys, tmp_path):
        """Author a program in assembly, profile it once, then run the
        report and critical-path studies purely from the files."""
        src = tmp_path / "prog.s"
        src.write_text(
            ".func main\n"
            "    const r0, 4096\n"
            "    call fill, r0\n"
            "    call sum, r0 -> r1\n"
            "    ret r1\n"
            "\n"
            ".func fill/1\n"
            "    const r1, 0\n"
            "loop:\n"
            "    muli r2, r1, 8\n"
            "    add  r3, r0, r2\n"
            "    store r1, [r3+0], 8\n"
            "    addi r1, r1, 1\n"
            "    lti  r4, r1, 8\n"
            "    br   r4, loop\n"
            "    ret\n"
            "\n"
            ".func sum/1\n"
            "    const r1, 0\n"
            "    const r2, 0\n"
            "sloop:\n"
            "    muli r3, r1, 8\n"
            "    add  r4, r0, r3\n"
            "    load r5, [r4+0], 8\n"
            "    add  r2, r2, r5\n"
            "    addi r1, r1, 1\n"
            "    lti  r6, r1, 8\n"
            "    br   r6, sloop\n"
            "    ret r2\n"
        )
        prof = tmp_path / "p.profile"
        events = tmp_path / "p.events"
        code, out, _ = run_cli(
            capsys, "run", str(src), "--events",
            "-o", str(prof), "--events-out", str(events),
        )
        assert code == 0
        assert "returned 28" in out  # 0+1+...+7

        code, out, _ = run_cli(capsys, "report", str(prof), "--tree")
        assert code == 0
        assert "fill" in out and "sum" in out

        code, out, _ = run_cli(capsys, "critpath", str(events), "--cores", "1,2")
        assert code == 0
        assert "parallelism" in out
