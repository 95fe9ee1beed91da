"""Event-mode tests: segments and dependency edges (section II-C2, Fig 3)."""

from __future__ import annotations

import numpy as np

from repro.core import SigilConfig, SigilProfiler
from repro.core.segments import OC_KIND_CALL, OC_KIND_ORDER, EventLog
from repro.trace.events import OpKind


def _profiler() -> SigilProfiler:
    return SigilProfiler(SigilConfig(event_mode=True))


class TestSegmentCreation:
    def test_resumed_caller_gets_new_segment(self):
        """Figure 3: 'we add the second occurrence of A as a separate node
        although it belongs to the same call'."""
        p = _profiler()
        p.on_run_begin()
        p.on_fn_enter("A")
        p.on_op(OpKind.INT, 10)
        p.on_fn_enter("C")
        p.on_op(OpKind.INT, 18)
        p.on_fn_exit("C")
        p.on_op(OpKind.INT, 5)
        p.on_fn_exit("A")
        p.on_run_end()
        events = p.profile().events
        a_ctx = p.tree.by_name("A")[0].id
        a_segments = events.segs[events.segs["ctx"] == a_ctx]
        assert len(a_segments) == 2
        assert a_segments["call"][0] == a_segments["call"][1]
        assert a_segments["ops"].tolist() == [10, 5]

    def test_order_edge_enforces_same_call_order(self):
        """'We also add a dependency link to the previous occurrence of A to
        conservatively enforce order between regions within A.'"""
        p = _profiler()
        p.on_run_begin()
        p.on_fn_enter("A")
        p.on_fn_enter("C")
        p.on_fn_exit("C")
        p.on_fn_exit("A")
        p.on_run_end()
        events = p.profile().events
        a_ctx = p.tree.by_name("A")[0].id
        a_ids = np.flatnonzero(events.segs["ctx"] == a_ctx).tolist()
        order = [
            e for e in events.ordercall.tolist()
            if e == (OC_KIND_ORDER, a_ids[0], a_ids[1])
        ]
        assert len(order) == 1

    def test_call_edge_from_caller_segment(self):
        p = _profiler()
        p.on_run_begin()
        p.on_fn_enter("A")
        p.on_fn_enter("C")
        p.on_fn_exit("C")
        p.on_fn_exit("A")
        p.on_run_end()
        events = p.profile().events
        ctx = events.segs["ctx"].tolist()
        a0 = ctx.index(p.tree.by_name("A")[0].id)
        c0 = ctx.index(p.tree.by_name("C")[0].id)
        assert (OC_KIND_CALL, a0, c0) in events.ordercall.tolist()


class TestDataEdges:
    def test_data_edge_weighted_by_unique_bytes(self):
        p = _profiler()
        p.on_run_begin()
        p.on_fn_enter("A")
        p.on_mem_write(0x100, 24)
        p.on_fn_exit("A")
        p.on_fn_enter("D")
        p.on_mem_read(0x100, 24)
        p.on_mem_read(0x100, 24)  # re-read adds no new edge weight
        p.on_fn_exit("D")
        p.on_run_end()
        events = p.profile().events
        assert len(events.data) == 1
        assert events.data["bytes"][0] == 24

    def test_consumption_identifies_producing_segment(self):
        """'Node D is then added when it consumes data from that particular
        call of A' -- the edge points to the exact producing segment."""
        p = _profiler()
        p.on_run_begin()
        for i in range(2):
            p.on_fn_enter("A")
            p.on_mem_write(0x100 + 64 * i, 8)
            p.on_fn_exit("A")
        p.on_fn_enter("D")
        p.on_mem_read(0x100 + 64, 8)  # from the SECOND call of A
        p.on_fn_exit("D")
        p.on_run_end()
        events = p.profile().events
        assert len(events.data) == 1
        a_segs = np.flatnonzero(
            events.segs["ctx"] == p.tree.by_name("A")[0].id
        )
        assert events.data["src"][0] == a_segs[1]

    def test_edges_point_forward_in_time(self):
        p = _profiler()
        p.on_run_begin()
        p.on_fn_enter("A")
        p.on_mem_write(0x100, 8)
        p.on_fn_enter("B")
        p.on_mem_read(0x100, 8)
        p.on_mem_write(0x200, 8)
        p.on_fn_exit("B")
        p.on_mem_read(0x200, 8)
        p.on_fn_exit("A")
        p.on_run_end()
        events = p.profile().events
        for table in (events.ordercall, events.data):
            assert (table["src"] < table["dst"]).all()


class TestEventLogUnit:
    def test_data_bytes_aggregate_per_pair(self):
        log = EventLog()
        log.new_segment(0, 0, 0)
        log.new_segment(1, 1, 1)
        log.add_data_bytes(0, 1, 8)
        log.add_data_bytes(0, 1, 16)
        assert log.to_arrays().data.tolist() == [(0, 1, 24)]

    def test_self_edges_ignored(self):
        log = EventLog()
        log.new_segment(0, 0, 0)
        log.add_data_bytes(0, 0, 8)
        assert len(log.to_arrays().data) == 0

    def test_total_ops(self):
        log = EventLog()
        s1 = log.new_segment(0, 0, 0)
        s2 = log.new_segment(1, 1, 0)
        s1.ops = 7
        s2.ops = 5
        assert log.to_arrays().total_ops() == 12
