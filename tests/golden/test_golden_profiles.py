"""Golden-profile fixtures: byte-exact end-to-end pins on real workloads.

Each fixture stores the canonical profile text of one deterministic
workload run.  Any divergence -- a classification change, a clock drift, a
serialisation tweak -- fails with a unified diff and instructions.  The
batched transport is additionally required to reproduce the same bytes as
the scalar path, making these fixtures the end-to-end complement of the
Hypothesis differential tests.
"""

from __future__ import annotations

import difflib
import json

import pytest

from tests.golden.lib import (
    EVENTS_KEY,
    EVENTS_PATH,
    SPECS,
    compute_event_digest,
    compute_text,
    fixture_path,
    fixture_text,
    load_fixture,
)

KEYS = sorted(SPECS)


def _diff_message(key: str, want: str, got: str) -> str:
    diff = "\n".join(
        difflib.unified_diff(
            want.splitlines(),
            got.splitlines(),
            fromfile=f"tests/golden/{key}.json (pinned)",
            tofile=f"{key} (computed)",
            lineterm="",
        )
    )
    return (
        f"golden profile for {key!r} diverged from the pinned fixture.\n"
        f"{diff}\n\n"
        "If this change to the profiler's output is INTENTIONAL, refresh\n"
        "the fixtures with `make regen-golden` and commit the diff.\n"
        "If it is not, this is a regression: the profiler no longer\n"
        "reproduces its pinned output byte for byte."
    )


@pytest.fixture(scope="module")
def computed():
    """Each spec's scalar profile text, computed once per test session."""
    return {key: compute_text(SPECS[key], batch_size=0) for key in KEYS}


@pytest.mark.parametrize("key", KEYS)
def test_fixture_exists(key):
    assert fixture_path(key).exists(), (
        f"missing golden fixture tests/golden/{key}.json -- "
        "generate it with `make regen-golden`"
    )


@pytest.mark.parametrize("key", KEYS)
def test_profile_matches_golden(key, computed):
    fixture = load_fixture(key)
    want = fixture_text(fixture)
    got = computed[key]
    assert got == want, _diff_message(key, want, got)


@pytest.mark.parametrize("key", KEYS)
def test_digest_matches_golden(key, computed):
    """The pinned digest guards the fixture file itself against hand-edits."""
    import hashlib

    fixture = load_fixture(key)
    body = fixture_text(fixture)
    assert fixture["digest"] == "sha256:" + hashlib.sha256(body.encode()).hexdigest(), (
        f"tests/golden/{key}.json is internally inconsistent (profile lines "
        "do not hash to the recorded digest); regenerate it with "
        "`make regen-golden` instead of editing by hand"
    )


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("batch_size", [64, 4096])
def test_batched_transport_reproduces_golden(key, batch_size, computed):
    """The batched transport must hit the same bytes as the scalar path."""
    got = compute_text(SPECS[key], batch_size=batch_size)
    assert got == computed[key], (
        f"batched transport (batch_size={batch_size}) diverged from the "
        f"scalar profile for {key!r} -- transport must be invisible in the "
        "output"
    )


def test_event_log_matches_golden():
    """The event log's encoded bytes, data-edge order included, are pinned.

    The profile text carries no event log, so this digest is the only pin
    on the order in which the profiler inserts data edges.
    """
    want = json.loads(EVENTS_PATH.read_text())["digest"]
    got = compute_event_digest(SPECS[EVENTS_KEY])
    assert got == want, (
        f"the {EVENTS_KEY!r} event log no longer encodes to the pinned "
        f"bytes ({got} != {want}).  If the change is INTENTIONAL, refresh "
        "tests/golden/events.json with `make regen-golden`."
    )
