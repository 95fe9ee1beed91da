"""End-to-end CLI telemetry: manifests out of `repro profile`, into `stats`."""

from __future__ import annotations

import json
import os

from repro.cli import main
from repro.telemetry import MANIFEST_SCHEMA, Manifest


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProfileManifest:
    def test_telemetry_flag_writes_manifest_in_cwd(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(
            capsys, "profile", "vips", "--size", "simsmall", "--telemetry"
        )
        assert code == 0
        path = tmp_path / "vips-simsmall.manifest.json"
        assert path.exists()
        assert "manifest written to" in out

        m = Manifest.load(path)
        assert m.schema == MANIFEST_SCHEMA
        assert m.workload == "vips"
        assert m.size == "simsmall"
        assert "profile vips --size simsmall --telemetry" in m.command
        assert m.phase_seconds("execute") > 0
        assert m.events_per_sec > 0
        assert m.metric("sigil.shadow.peak_shadow_bytes") > 0
        assert m.metric("sigil.bytes.unique") > 0
        assert m.metric("sigil.bytes.nonunique") > 0

    def test_manifest_out_overrides_location(self, capsys, tmp_path):
        target = tmp_path / "custom.json"
        code, _, _ = run_cli(
            capsys, "profile", "blackscholes",
            "--manifest-out", str(target),
        )
        assert code == 0
        assert target.exists()

    def test_manifest_lands_next_to_profile_output(self, capsys, tmp_path):
        prof = tmp_path / "w.profile"
        code, _, _ = run_cli(
            capsys, "profile", "blackscholes", "-o", str(prof),
        )
        assert code == 0
        assert prof.exists()
        assert (tmp_path / "w.profile.manifest.json").exists()

    def test_no_sibling_manifest_for_non_file_output(
        self, capsys, tmp_path, monkeypatch
    ):
        """``-o /dev/null`` must not lead to ``/dev/null.manifest.json``;
        with ``--telemetry`` the manifest falls back to the working
        directory."""
        written = []
        monkeypatch.setattr(
            Manifest, "write", lambda self, path: written.append(str(path))
        )
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(
            capsys, "profile", "blackscholes", "-o", os.devnull
        )
        assert code == 0
        assert written == []
        assert "manifest written" not in out
        code, _, _ = run_cli(
            capsys, "profile", "blackscholes", "-o", os.devnull, "--telemetry"
        )
        assert code == 0
        assert written == ["blackscholes-simsmall.manifest.json"]

    def test_no_telemetry_writes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(
            capsys, "profile", "blackscholes", "--no-telemetry"
        )
        assert code == 0
        assert not list(tmp_path.glob("*.manifest.json"))
        assert "manifest written" not in out

    def test_global_flag_before_subcommand(self, capsys, tmp_path):
        target = tmp_path / "pre.json"
        code, _, _ = run_cli(
            capsys, "--manifest-out", str(target), "profile", "blackscholes",
        )
        assert code == 0
        assert target.exists()

    def test_non_positive_heartbeat_is_a_usage_error(self, capsys):
        import pytest

        for argv in (
            ["profile", "blackscholes", "--heartbeat", "0"],
            ["profile", "blackscholes", "--heartbeat-secs", "-1"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "must be positive" in capsys.readouterr().err

    def test_heartbeat_lines_on_stderr(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "profile", "blackscholes", "--heartbeat", "500",
            "--manifest-out", str(tmp_path / "hb.json"),
        )
        assert code == 0
        assert "[repro] blackscholes/simsmall:" in err
        assert "(done)" in err


class TestReuseAndRunManifests:
    def test_reuse_manifest(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(
            capsys, "reuse", "dedup", "--size", "simsmall", "--telemetry"
        )
        assert code == 0
        m = Manifest.load(tmp_path / "dedup-simsmall-reuse.manifest.json")
        assert m.config["reuse_mode"] is True
        assert m.metric("sigil.bytes.unique") > 0

    def test_run_manifest_for_vm_program(self, capsys, tmp_path, monkeypatch):
        from pathlib import Path

        toy = Path(__file__).resolve().parents[2] / "examples" / "toy_program.s"
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(
            capsys, "run", str(toy), "--telemetry"
        )
        assert code == 0
        manifests = list(tmp_path.glob("*.manifest.json"))
        assert len(manifests) == 1
        m = Manifest.load(manifests[0])
        assert m.metric("vm.instructions_retired") > 0
        assert m.phase_seconds("execute") > 0


class TestStats:
    def _write_manifest(self, capsys, path):
        code, _, _ = run_cli(
            capsys, "profile", "vips", "--manifest-out", str(path),
        )
        assert code == 0

    def test_renders_single_manifest(self, capsys, tmp_path):
        path = tmp_path / "vips.json"
        self._write_manifest(capsys, path)
        code, out, _ = run_cli(capsys, "stats", str(path))
        assert code == 0
        assert "vips" in out
        assert "execute_s" in out
        assert "ev/s" in out

    def test_compares_two_manifests(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        self._write_manifest(capsys, a)
        self._write_manifest(capsys, b)
        code, out, _ = run_cli(capsys, "stats", str(a), str(b))
        assert code == 0
        assert "vs" in out or "ratio" in out.lower() or "same_config" in out

    def test_metrics_dump(self, capsys, tmp_path):
        path = tmp_path / "vips.json"
        self._write_manifest(capsys, path)
        code, out, _ = run_cli(capsys, "stats", str(path), "--metrics")
        assert code == 0
        assert "sigil.bytes.unique" in out

    def test_unreadable_manifest_fails_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "stats", str(bad))
        assert code == 2
        assert "cannot read manifest" in err

    def test_rejects_wrong_shape(self, capsys, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text(json.dumps([1, 2, 3]))
        code, _, err = run_cli(capsys, "stats", str(bad))
        assert code == 2

    def test_dash_reads_manifest_from_stdin(self, capsys, tmp_path, monkeypatch):
        import io
        import sys

        path = tmp_path / "vips.json"
        self._write_manifest(capsys, path)
        monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
        code, out, _ = run_cli(capsys, "stats", "-")
        assert code == 0
        assert "<stdin>" in out
        assert "vips" in out

    def test_dash_with_garbage_stdin_fails_cleanly(self, capsys, monkeypatch):
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO("{broken"))
        code, _, err = run_cli(capsys, "stats", "-")
        assert code == 2
        assert "cannot read manifest" in err
