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
