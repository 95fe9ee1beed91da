"""Property: every on-disk reader loads a corrupted file or says where.

One real run's outputs -- the v2 event log (raw and gzip chunks), the
Sigil profile, the Callgrind file and the run manifest -- are corrupted by
truncation, bit flips, cut byte spans, and deleted or rewritten lines.
Each reader must either load the result or raise a :class:`ValueError`
that names where the damage is: the line for the text formats, the chunk
and byte offset for the event log, and for the manifest the JSON line and
column, the top-level value, or the missing key.  An event log that loads must also be a well-formed log, one the
text writer can print.
"""

from __future__ import annotations

import io
import re
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SigilConfig
from repro.harness import profile_workload
from repro.io import (
    dumps_callgrind,
    dumps_events,
    dumps_events_bin,
    dumps_profile,
    iter_event_chunks,
    load_event_arrays,
    loads_callgrind,
    loads_profile,
)
from repro.telemetry import Manifest, Telemetry


@lru_cache(maxsize=None)
def outputs() -> dict:
    run = profile_workload(
        "blackscholes", "simsmall",
        config=SigilConfig(reuse_mode=True, event_mode=True),
        telemetry=Telemetry(),
    )
    events = run.sigil.events
    return {
        # Small chunks, so a log spans many of them.
        "events-raw": dumps_events_bin(events, compression=None, chunk_rows=64),
        "events-gzip": dumps_events_bin(events, compression="gzip", chunk_rows=64),
        "profile": dumps_profile(run.sigil).encode(),
        "callgrind": dumps_callgrind(run.callgrind).encode(),
        "manifest": run.manifest.to_json().encode(),
    }


def _read_events(blob: bytes) -> None:
    list(iter_event_chunks(io.BytesIO(blob)))
    dumps_events(load_event_arrays(io.BytesIO(blob)))


def _read_text(loads):
    return lambda blob: loads(blob.decode("utf-8", errors="replace"))


EVENT_WHERE = r"chunk \d+ at byte \d+|at byte \d+"
LINE_WHERE = r"line \d+"
READERS = {
    "events-raw": (_read_events, EVENT_WHERE),
    "events-gzip": (_read_events, EVENT_WHERE),
    "profile": (_read_text(loads_profile), LINE_WHERE),
    "callgrind": (_read_text(loads_callgrind), LINE_WHERE),
    "manifest": (
        _read_text(Manifest.from_json),
        r"line \d+ column \d+|top-level value|lacks the key\(s\) '\w+'",
    ),
}

#: Field rewrites that break parsers in distinct ways.
_TOKENS = (b"x", b"-1", b"", b"99999", b"9" * 25, b"1e9", b"nan", b"{", b'"')


def corrupt(blob: bytes, data) -> bytes:
    """``blob`` damaged in one of six ways, drawn from ``data``."""
    n = len(blob)
    how = data.draw(st.sampled_from(
        ("truncate", "flip", "cut", "delete-line", "rewrite-line",
         "rewrite-field")
    ))
    if how == "truncate":
        return blob[: data.draw(st.integers(0, n - 1))]
    if how == "flip":
        pos = data.draw(st.integers(0, n - 1))
        out = bytearray(blob)
        out[pos] ^= 1 << data.draw(st.integers(0, 7))
        return bytes(out)
    if how == "cut":
        start = data.draw(st.integers(0, n - 1))
        end = data.draw(st.integers(start + 1, min(n, start + 64)))
        return blob[:start] + blob[end:]
    lines = blob.split(b"\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    if how == "delete-line":
        del lines[i]
    elif how == "rewrite-line":
        lines[i] = data.draw(st.binary(max_size=40))
    else:
        fields = lines[i].split(b" ")
        j = data.draw(st.integers(0, len(fields) - 1))
        fields[j] = data.draw(st.sampled_from(_TOKENS) | st.binary(max_size=8))
        lines[i] = b" ".join(fields)
    return b"\n".join(lines)


@pytest.mark.parametrize("fmt", sorted(READERS))
@given(data=st.data())
@settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_corrupt_input_loads_or_says_where(fmt, data):
    read, where = READERS[fmt]
    bad = corrupt(outputs()[fmt], data)
    try:
        read(bad)
    except ValueError as exc:
        assert re.search(where, str(exc)), str(exc)


def _rewrite(old: bytes, new: bytes):
    return lambda blob: blob.replace(old, new, 1)


def _bad_edge_kind(blob: bytes) -> bytes:
    """The first order/call row's kind byte set to 7 (neither kind)."""
    first_row = blob.index(b"oced") + 16
    return blob[:first_row] + b"\x07" + blob[first_row + 1 :]


@pytest.mark.parametrize("fmt, damage", [
    ("profile", _rewrite(b"reuse-buckets ", b"reuse-buckets " + b"9" * 25 + b" ")),
    ("manifest", _rewrite(b'"workload"', b'"workloaf"')),
    ("events-raw", _bad_edge_kind),
], ids=["profile-oversized-int", "manifest-lost-key", "events-edge-kind"])
def test_known_damage_says_where(fmt, damage):
    """Regressions: these raised a bare OverflowError, TypeError, and (in
    the text writer, after loading) KeyError."""
    read, where = READERS[fmt]
    with pytest.raises(ValueError, match=where):
        read(damage(outputs()[fmt]))
