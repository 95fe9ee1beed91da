"""Profile persistence round-trip tests."""

from __future__ import annotations

import pytest

from repro.io import dump_profile, dumps_profile, load_profile, loads_profile


class TestRoundTrip:
    def test_text_roundtrip_stable(self, toy_profiles):
        sigil, _ = toy_profiles
        text = dumps_profile(sigil)
        loaded = loads_profile(text)
        assert dumps_profile(loaded) == text

    def test_tree_preserved(self, toy_profiles):
        sigil, _ = toy_profiles
        loaded = loads_profile(dumps_profile(sigil))
        assert len(loaded.tree) == len(sigil.tree)
        for node in sigil.contexts():
            other = loaded.tree.find(node.path)
            assert other is not None
            assert other.calls == node.calls

    def test_edges_preserved(self, toy_profiles):
        sigil, _ = toy_profiles
        loaded = loads_profile(dumps_profile(sigil))
        for (w, r), edge in sigil.comm.items():
            w_path = sigil.tree.node(w).path if w >= 0 else None
            r_path = sigil.tree.node(r).path
            lw = loaded.tree.find(w_path).id if w_path is not None else w
            lr = loaded.tree.find(r_path).id
            other = loaded.comm.get(lw, lr)
            assert other.unique_bytes == edge.unique_bytes
            assert other.nonunique_bytes == edge.nonunique_bytes

    def test_reuse_preserved(self, toy_profiles):
        sigil, _ = toy_profiles
        loaded = loads_profile(dumps_profile(sigil))
        assert loaded.reuse is not None
        assert loaded.reuse.byte_breakdown() == sigil.reuse.byte_breakdown()

    def test_file_roundtrip(self, toy_profiles, tmp_path):
        sigil, _ = toy_profiles
        path = tmp_path / "toy.profile"
        dump_profile(sigil, path)
        loaded = load_profile(path)
        assert loaded.total_time == sigil.total_time

    def test_analysis_works_on_loaded_profile(self, toy_profiles):
        """Post-processing released profile data without re-running Sigil."""
        from repro.analysis import CDFG

        sigil, _ = toy_profiles
        loaded = loads_profile(dumps_profile(sigil))
        cdfg = CDFG(loaded)
        assert len(cdfg.data_edges()) == len(CDFG(sigil).data_edges())


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(ValueError):
            loads_profile("not a profile\n")

    def test_unknown_line_kind(self):
        with pytest.raises(ValueError):
            loads_profile("# sigil-profile 1\nfrobnicate 1 2 3\n")

    def test_newline_in_name_rejected_at_dump(self, toy_profiles):
        sigil, _ = toy_profiles
        node = sigil.contexts()[0]
        original = node.name
        try:
            node.name = "bad\nname"
            with pytest.raises(ValueError):
                dumps_profile(sigil)
        finally:
            node.name = original


@pytest.mark.parametrize(
    "brk", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
            "\u2028", "\u2029"],
)
def test_names_with_other_line_breaks_roundtrip(brk, tmp_path):
    """Only "\\n" ends a line of a profile or a Callgrind file, the one
    character the writers reject in a name; any other line break that
    ``str.splitlines`` knows survives a dump and load through both tools.
    Files are read and written with no newline translation, so a "\\r" in
    a name is not read back as "\\n"."""
    from repro.callgrind import CallgrindCollector
    from repro.core import SigilConfig, SigilProfiler
    from repro.io import dump_callgrind, dumps_callgrind, load_callgrind
    from repro.trace.events import OpKind

    name = f"odd{brk}name"
    sigil = SigilProfiler(SigilConfig())
    callgrind = CallgrindCollector()
    for tool in (sigil, callgrind):
        tool.on_run_begin()
        tool.on_fn_enter("main")
        tool.on_mem_write(64, 8)
        tool.on_fn_enter(name)
        tool.on_op(OpKind.INT, 3)
        tool.on_mem_read(64, 8)
        tool.on_fn_exit(name)
        tool.on_fn_exit("main")
        tool.on_run_end()

    dump_profile(sigil.profile(), tmp_path / "p.sigil")
    loaded = load_profile(tmp_path / "p.sigil")
    assert name in {node.name for node in loaded.contexts()}
    assert dumps_profile(loaded) == dumps_profile(sigil.profile())
    dump_callgrind(callgrind.profile, tmp_path / "p.callgrind")
    loaded_cg = load_callgrind(tmp_path / "p.callgrind")
    assert name in {node.name for node in loaded_cg.tree.nodes}
    assert dumps_callgrind(loaded_cg) == dumps_callgrind(callgrind.profile)
