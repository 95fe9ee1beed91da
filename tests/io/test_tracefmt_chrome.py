"""Chrome trace-event export: schema validity, round-trip totals, pipeline,
byte pins and the one encoder's contract."""

from __future__ import annotations

import hashlib
import io
import json
import random
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.windowed import windowed_curves
from repro.common.cct import ContextTree
from repro.core.segments import EventLog
from repro.io import (
    curves_to_chrome,
    dumps_chrome,
    dumps_events_bin,
    events_to_chrome,
    load_event_arrays,
    manifest_to_chrome,
    spans_to_chrome,
)
from repro.io.tracefmt import PIPELINE_PID, CounterTrack, synthesize_spans
from repro.telemetry import Manifest

VALID_PHASES = {"X", "M", "s", "f", "C", "B", "E", "b", "e", "i"}


def rendered(parts):
    """The trace as it ships: builder parts through the one encoder."""
    return json.loads(dumps_chrome(parts))


def slices(trace):
    return [e for e in trace if e["ph"] == "X"]


def flows(trace):
    return [e for e in trace if e["ph"] in ("s", "f")]


class TestEventTimeline:
    def test_serialises_to_a_list_of_ph_keyed_dicts(self, blackscholes_profiles):
        sigil, _ = blackscholes_profiles
        parsed = json.loads(dumps_chrome(events_to_chrome(sigil.events)))
        assert isinstance(parsed, list) and parsed
        for event in parsed:
            assert isinstance(event, dict)
            assert event["ph"] in VALID_PHASES
            if event["ph"] != "M":
                assert isinstance(event["ts"], (int, float))
            assert "pid" in event and "tid" in event

    def test_one_duration_event_per_segment(self, blackscholes_profiles):
        sigil, _ = blackscholes_profiles
        trace = rendered(events_to_chrome(sigil.events))
        assert len(slices(trace)) == sigil.events.n_segments

    def test_per_track_ordering_is_monotone(self, blackscholes_profiles):
        sigil, _ = blackscholes_profiles
        by_track = defaultdict(list)
        for event in slices(rendered(events_to_chrome(sigil.events))):
            by_track[(event["pid"], event["tid"])].append(event["ts"])
        assert by_track
        for track_ts in by_track.values():
            assert track_ts == sorted(track_ts)

    def test_flow_bytes_total_matches_event_log(self, blackscholes_profiles):
        sigil, _ = blackscholes_profiles
        expected = int(sigil.events.data["bytes"].sum())
        starts = [e for e in flows(rendered(events_to_chrome(sigil.events)))
                  if e["ph"] == "s"]
        assert sum(e["args"]["bytes"] for e in starts) == expected > 0

    def test_flow_ids_resolve_in_pairs(self, blackscholes_profiles):
        sigil, _ = blackscholes_profiles
        seen = defaultdict(lambda: {"s": 0, "f": 0})
        for event in flows(rendered(events_to_chrome(sigil.events))):
            seen[event["id"]][event["ph"]] += 1
            if event["ph"] == "f":
                assert event["bp"] == "e"  # bind to the enclosing slice
        assert seen
        for counts in seen.values():
            assert counts == {"s": 1, "f": 1}

    def test_flows_point_forward_in_time(self, blackscholes_profiles):
        sigil, _ = blackscholes_profiles
        trace = rendered(events_to_chrome(sigil.events))
        start_ts = {e["id"]: e["ts"] for e in trace if e["ph"] == "s"}
        for event in trace:
            if event["ph"] == "f":
                assert event["ts"] >= start_ts[event["id"]] - 0

    def test_counter_tracks_are_cumulative(self, blackscholes_profiles):
        sigil, _ = blackscholes_profiles
        trace = rendered(events_to_chrome(sigil.events))
        for name, total in (
            ("unique bytes (cum)", int(sigil.events.data["bytes"].sum())),
            ("ops (cum)", sigil.events.total_ops()),
        ):
            samples = [e for e in trace if e["ph"] == "C" and e["name"] == name]
            values = [e["args"][name] for e in samples]
            assert values == sorted(values)
            assert values[-1] == total

    def test_tree_labels_name_the_tracks(self, toy_profiles):
        sigil, _ = toy_profiles
        trace = rendered(events_to_chrome(sigil.events, sigil.tree))
        names = {e["name"] for e in slices(trace)}
        assert {"main", "A", "C", "D"} <= names
        thread_names = {
            e["args"]["name"] for e in trace
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "A" in thread_names

    def test_without_tree_tracks_use_ctx_ids(self, toy_profiles):
        sigil, _ = toy_profiles
        reloaded = load_event_arrays(io.BytesIO(dumps_events_bin(sigil.events)))
        trace = rendered(events_to_chrome(reloaded))
        names = {e["name"] for e in slices(trace)}
        assert all(name.startswith("ctx") for name in names)

    def test_threads_map_to_processes(self):
        log = EventLog()
        log.new_segment(1, 1, 0, thread=0).ops = 4
        log.new_segment(2, 2, 4, thread=3).ops = 2
        trace = rendered(events_to_chrome(log.to_arrays()))
        pids = {e["pid"] for e in slices(trace)}
        assert pids == {1, 4}  # pid_base + thread


class TestEmptyLog:
    def test_empty_log_renders_as_empty_trace(self):
        """``[]`` is valid Chrome trace JSON; an empty log must not emit
        orphan counter samples or process metadata."""
        trace = events_to_chrome(EventLog().to_arrays())
        assert trace == []
        assert json.loads(dumps_chrome(trace)) == []


class TestCurveTracks:
    def _curves(self, window=10):
        log = EventLog()
        for i in range(4):
            log.new_segment(i, i, 10 * i).ops = 10
        log.add_data_bytes(0, 2, 64)
        log.add_data_bytes(1, 3, 16)
        return windowed_curves(log.to_arrays(), window=window)

    def test_one_sample_per_window_per_track(self):
        curves = self._curves()
        trace = rendered(curves_to_chrome(curves))
        counters = [e for e in trace if e["ph"] == "C"]
        by_name = defaultdict(list)
        for event in counters:
            assert event["args"][event["name"]] is not None
            by_name[event["name"]].append(event["ts"])
        assert set(by_name) == {
            "WS(t) bytes", "comm bytes/window", "ops/window",
            "mean reuse lifetime (ops)", "unique bytes (cum)", "ops (cum)",
        }
        for ts in by_name.values():
            assert ts == [k * curves.window for k in range(curves.n_windows)]

    def test_ws_track_carries_the_curve(self):
        curves = self._curves()
        ws = [
            e["args"]["WS(t) bytes"]
            for e in rendered(curves_to_chrome(curves))
            if e["ph"] == "C" and e["name"] == "WS(t) bytes"
        ]
        assert ws == curves.ws_bytes.tolist()

    def test_cumulative_tracks_optional(self):
        trace = rendered(
            curves_to_chrome(self._curves(), include_cumulative=False)
        )
        names = {e["name"] for e in trace if e["ph"] == "C"}
        assert "unique bytes (cum)" not in names and "ops (cum)" not in names

    def test_process_name_optional(self):
        named = rendered(curves_to_chrome(self._curves()))
        meta = [e for e in named if e["ph"] == "M"]
        assert meta and meta[0]["args"]["name"] == "workload timeline"
        anonymous = rendered(
            curves_to_chrome(self._curves(), process_name=None)
        )
        assert not [e for e in anonymous if e["ph"] == "M"]

    def test_empty_curves_render_as_empty_trace(self):
        assert curves_to_chrome(windowed_curves(EventLog().to_arrays())) == []

    def test_combined_harness_trace_is_schema_valid(self, toy_profiles):
        """ProfiledRun.chrome_trace keeps every event in the valid-phase
        set once the timeline counter tracks ride along."""
        sigil, _ = toy_profiles
        trace = rendered(events_to_chrome(sigil.events) + curves_to_chrome(
            windowed_curves(sigil.events),
            include_cumulative=False,
            process_name=None,
        ))
        for event in trace:
            assert event["ph"] in VALID_PHASES


class TestPipelineSpans:
    def test_spans_render_as_phase_slices(self):
        spans = [("setup", 0.0, 0.5), ("execute", 0.5, 2.0)]
        trace = spans_to_chrome(spans)
        phases = slices(trace)
        assert [e["name"] for e in phases] == ["setup", "execute"]
        assert phases[0]["pid"] == PIPELINE_PID
        assert phases[1]["ts"] == pytest.approx(0.5e6)
        assert phases[1]["dur"] == pytest.approx(1.5e6)

    def test_synthesize_spans_nests_children_in_parents(self):
        spans = {p: (s, e) for p, s, e in synthesize_spans(
            {"setup": 1.0, "execute": 4.0, "execute/replay": 3.0,
             "aggregate": 0.5}
        )}
        assert spans["setup"] == (0.0, 1.0)
        assert spans["execute"] == (1.0, 5.0)
        assert spans["execute/replay"] == (1.0, 4.0)  # inside the parent
        assert spans["aggregate"] == (5.0, 5.5)

    def test_manifest_prefers_recorded_spans(self):
        manifest = Manifest(
            workload="w", size="s",
            phases={"setup": 1.0, "execute": 2.0},
            spans=[["setup", 0.25, 1.25], ["execute", 1.25, 3.25]],
        )
        phases = slices(manifest_to_chrome(manifest))
        assert phases[0]["ts"] == pytest.approx(0.25e6)

    def test_pre_span_manifest_falls_back_to_synthesis(self):
        manifest = Manifest(
            workload="w", size="s", phases={"setup": 1.0, "execute": 2.0}
        )
        phases = slices(manifest_to_chrome(manifest))
        assert [e["name"] for e in phases] == ["setup", "execute"]
        assert phases[1]["ts"] == pytest.approx(1e6)

    def test_process_named_after_workload(self):
        manifest = Manifest(workload="vips", size="simsmall",
                            phases={"execute": 1.0})
        meta = [e for e in manifest_to_chrome(manifest)
                if e["ph"] == "M" and e["name"] == "process_name"]
        assert "vips/simsmall" in meta[0]["args"]["name"]


# ---------------------------------------------------------------------------
# byte pins and the encoder's contract
# ---------------------------------------------------------------------------


def _seeded_log(seed=2013, n_segments=80):
    """Three threads, eight contexts, zero-ops segments, data edges in both
    directions and byte counts past 2**32."""
    rng = random.Random(seed)
    log = EventLog()
    clocks = [0, 5, 11]  # one op clock per thread, so segments overlap
    for call in range(n_segments):
        thread = rng.randrange(3)
        seg = log.new_segment(rng.randrange(1, 9), call, clocks[thread],
                              thread=thread)
        seg.ops = rng.choice((0, 1, 3, 17, 40, 129))
        clocks[thread] += seg.ops
    for _ in range(3 * n_segments):
        src, dst = rng.randrange(n_segments), rng.randrange(n_segments)
        log.add_data_bytes(src, dst, rng.choice((1, 8, 64, 4096, 2**40)))
    return log.to_arrays()


def _seeded_tree():
    """Contexts 0-6 (so ctx 7 and 8 fall back to ids), named with quotes,
    a backslash and non-ASCII text."""
    tree = ContextTree()
    parent = tree.root
    for name in ("main", 'say "hi"', "back\\slash", "größe", "λ", "f"):
        parent = tree.child(parent, name)
    return tree


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedBytes:
    """sha256 of the shipped bytes, captured before counter tracks became
    columns: the encoder may change, the trace may not."""

    @pytest.mark.parametrize("window, default, bare", [
        (16,
         "f17229a6014bda644b40b57aa39e2854843bd849dc1887bae514487f249681c4",
         "58dc04864a3a0a91da764291d102b9cd40a4da52e45c61981778273cc5392eb7"),
        (64,
         "5e3e427c5a4c8eb96ea3d6f14e2ea7f2c082b4eca92b8e8d7aba1e2d94604ef6",
         "c103540e224f2f4f7c93280dd13a63501b869d7b33db644e8933be09ff3eb099"),
    ])
    def test_curve_tracks(self, window, default, bare):
        curves = windowed_curves(_seeded_log(), window=window)
        assert curves.n_windows > 1
        assert _sha(dumps_chrome(curves_to_chrome(curves))) == default
        assert _sha(dumps_chrome(curves_to_chrome(
            curves, include_cumulative=False, process_name=None,
        ))) == bare

    def test_event_trace(self):
        trace = dumps_chrome(events_to_chrome(_seeded_log()))
        assert _sha(trace) == (
            "809d982f4f1d693b41a0311a9b05acd0d2fe59c23b1c4030e8a5064684e155a6"
        )

    def test_event_trace_with_tree(self):
        trace = dumps_chrome(events_to_chrome(_seeded_log(), _seeded_tree()))
        assert _sha(trace) == (
            "1fa55ccff644064a3a1f708312251f9c56e956760078dc303c81bb1552793b2d"
        )


def _as_dicts(parts):
    """Each counter track expanded to the sample dicts it stands for."""
    out = []
    for part in parts:
        if isinstance(part, CounterTrack):
            out.extend(
                {"ph": "C", "name": part.name, "pid": part.pid, "tid": 0,
                 "ts": ts, "args": {part.name: value}}
                for ts, value in zip(part.ts, part.values)
            )
        else:
            out.append(part)
    return out


_names = st.one_of(
    st.sampled_from(["WS(t) bytes", 'q"uote', "back\\slash", "größe λ",
                     "%s"]),
    st.text(max_size=8),
)
_values = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0, -1, 2**53 + 1, -(2**63), -0.0, 1e-7, 1e22, 0.5]),
    st.floats(allow_nan=False, allow_infinity=False).map(
        lambda v: round(v, 3)
    ),
)


@st.composite
def _tracks(draw):
    values = draw(st.lists(_values, max_size=6))
    ts = draw(st.lists(st.integers(min_value=0, max_value=2**60),
                       min_size=len(values), max_size=len(values)))
    return CounterTrack(draw(_names), draw(st.integers(0, 99)), ts, values)


_events = st.fixed_dictionaries({
    "ph": st.sampled_from(["M", "X", "s"]),
    "name": _names,
    "pid": st.integers(0, 99),
    "args": st.dictionaries(_names, _values, max_size=2),
})


class TestEncoder:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(_tracks(), _events), max_size=6))
    def test_equals_json_of_the_expanded_dicts(self, parts):
        expected = json.dumps(_as_dicts(parts), separators=(",", ":")) + "\n"
        assert dumps_chrome(parts) == expected

    @pytest.mark.parametrize("bad", [
        float("nan"), float("inf"), -float("inf"), True, None,
        np.int64(3), np.float64(0.5),
    ])
    def test_rejects_a_value_json_would_misrender(self, bad):
        track = CounterTrack("ops/window", 1, [0, 8, 16], [1, bad, 2])
        with pytest.raises(ValueError, match=r"'ops/window'.*sample 1"):
            dumps_chrome([{"ph": "M"}, track])

    def test_rejects_a_bad_timestamp(self):
        track = CounterTrack("ops/window", 1, [0, float("nan")], [1, 2])
        with pytest.raises(ValueError, match=r"'ops/window'.*sample 1 ts"):
            dumps_chrome([track])

    def test_rejects_columns_of_unequal_length(self):
        with pytest.raises(ValueError, match="'ops/window'"):
            dumps_chrome([CounterTrack("ops/window", 1, [0, 8], [1])])

    def test_int_beyond_float_range_is_written_exactly(self):
        track = CounterTrack("big", 1, [0, 1], [10**400, 0.5])
        assert json.loads(dumps_chrome([track]))[0]["args"]["big"] == 10**400
