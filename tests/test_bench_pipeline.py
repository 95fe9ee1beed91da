"""``benchmarks/bench_pipeline.py`` writes its report and checks the A/B."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_pipeline_reports_both_sides(tmp_path):
    out = tmp_path / "BENCH_pipeline.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_pipeline.py"),
         "-o", str(out), "--size", "simsmall", "--repeats", "2",
         "--programs", "blackscholes"],
        check=True, env=env, capture_output=True,
    )
    row = json.loads(out.read_text())["programs"]["blackscholes"]
    assert row["identical_output"] is True
    for side in ("shipped", "transport"):
        spread = row[side]["wall_s"]
        assert 0 < spread["q1"] <= spread["median"] <= spread["q3"]
        assert set(row[side]["phases_s"]) == {"setup", "execute", "aggregate"}
    # The paper pipe holds Sigil, so only the bench's variant batches.
    assert "flushes" not in row["shipped"]
    assert row["transport"]["flushes"] > 0


def test_side_order_rotates_the_first_side():
    from benchmarks.bench_pipeline import side_order

    sides = ("shipped", "transport", "parent")
    firsts = [side_order(sides, r)[0] for r in range(6)]
    assert firsts == list(sides) * 2
    assert all(sorted(side_order(sides, r)) == sorted(sides) for r in range(3))
    # Two sides alternate.
    assert side_order(sides[:2], 1) == ("transport", "shipped")


def test_bench_pipeline_pairs_with_a_parent_tree(tmp_path):
    """This tree as its own parent: same bytes, and the change-wins count
    covers every repeat."""
    out = tmp_path / "BENCH_pipeline.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_pipeline.py"),
         "-o", str(out), "--size", "simsmall", "--repeats", "2",
         "--programs", "blackscholes", "--parent", str(ROOT)],
        check=True, env=env, capture_output=True,
    )
    report = json.loads(out.read_text())
    row = report["programs"]["blackscholes"]
    spread = row["parent"]["wall_s"]
    assert 0 < spread["q1"] <= spread["median"] <= spread["q3"]
    paired = row["vs_parent"]
    assert paired["repeats"] == 2
    assert 0 <= paired["change_wins"] <= 2
    assert paired["identical_output"] is True
    assert set(report["total_median_wall_s"]) == {
        "shipped", "transport", "parent"
    }


def test_bench_pipeline_rejects_a_parent_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_pipeline.py"),
         "-o", str(tmp_path / "b.json"), "--parent", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "--parent: no package at" in proc.stderr
    assert not (tmp_path / "b.json").exists()
