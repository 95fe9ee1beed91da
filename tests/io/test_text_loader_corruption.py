"""Corrupted profile and Callgrind text fails as a located ``ValueError``.

A seeded fuzz deletes, truncates and rewrites lines of a real run's output.
Every corrupted copy either still parses or raises a ``ValueError`` whose
message names the line, never a bare ``KeyError``/``IndexError``.
"""

from __future__ import annotations

import random

import pytest

from repro.core import SigilConfig
from repro.harness import profile_workload
from repro.io.callgrindfile import dumps_callgrind, loads_callgrind
from repro.io.profilefile import dumps_profile, loads_profile

N_CORRUPTIONS = 200


@pytest.fixture(scope="module")
def texts():
    run = profile_workload(
        "blackscholes", "simsmall",
        config=SigilConfig(reuse_mode=True, event_mode=True),
    )
    return {
        "profile": (dumps_profile(run.sigil), loads_profile),
        "callgrind": (dumps_callgrind(run.callgrind), loads_callgrind),
    }


def _corrupt(text: str, rng: random.Random) -> str:
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    how = rng.choice(("delete", "truncate-line", "truncate-text", "token"))
    if how == "delete":
        del lines[i]
    elif how == "truncate-line":
        lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    elif how == "truncate-text":
        return text[: rng.randrange(len(text))]
    else:
        fields = lines[i].split(" ")
        fields[rng.randrange(len(fields))] = rng.choice(("x", "-1", "", "99999"))
        lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["profile", "callgrind"])
def test_corrupt_text_loads_or_names_the_line(texts, fmt):
    text, loads = texts[fmt]
    rng = random.Random(f"{fmt}-corruption")
    failures = 0
    for _ in range(N_CORRUPTIONS):
        bad = _corrupt(text, rng)
        try:
            loads(bad)
        except ValueError as exc:
            assert "line" in str(exc), (str(exc), bad[:200])
            failures += 1
    # The fuzz must actually exercise the error paths.
    assert failures > N_CORRUPTIONS // 10


@pytest.mark.parametrize("fmt,record", [
    ("profile", "fn 9999 1 2"),
    ("callgrind", "cost 9999 1 2"),
], ids=["profile", "callgrind"])
def test_error_names_line_number_and_text(texts, fmt, record):
    text, loads = texts[fmt]
    lines = text.splitlines()
    bad = "\n".join([lines[0], lines[1], record, *lines[2:]])
    with pytest.raises(ValueError, match=f"line 3: '{record}'"):
        loads(bad)
