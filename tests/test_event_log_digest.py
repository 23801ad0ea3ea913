"""The event-log SHA-256 hashes bounded chunks of lines.

``jsonl_digest`` joins up to ``DIGEST_CHUNK_LINES`` lines per ``update``
instead of hashing line by line.  The hashed bytes must be exactly the
JSONL text (every line followed by ``"\\n"``) at every chunk boundary,
and a log with no lines must still hash ``b""``.
"""

import hashlib

import pytest

from repro.fleet.metrics import DIGEST_CHUNK_LINES, EventLog, jsonl_digest

COUNTS = [
    0, 1, 2,
    DIGEST_CHUNK_LINES - 1, DIGEST_CHUNK_LINES, DIGEST_CHUNK_LINES + 1,
    2 * DIGEST_CHUNK_LINES, 2 * DIGEST_CHUNK_LINES + 1,
]


def _per_line(lines):
    """The former hash: one ``update`` per line and one per newline."""
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def _log(count):
    log = EventLog()
    for i in range(count):
        log.append("epoch", i * 1000, server_id=i % 3, note="né" if i % 2 else "")
    return log


@pytest.mark.parametrize("count", COUNTS)
def test_event_log_digest_equals_the_per_line_hash(count):
    log = _log(count)
    assert log.digest() == _per_line(log.lines())


@pytest.mark.parametrize("count", COUNTS)
def test_any_iterable_of_lines(count):
    lines = [f"line {i} ∆" * (i % 4) for i in range(count)]
    assert jsonl_digest(iter(lines)) == _per_line(lines)
    assert jsonl_digest(lines) == _per_line(lines)


def test_no_lines_hash_no_bytes():
    empty = hashlib.sha256(b"").hexdigest()
    assert EventLog().digest() == empty
    assert jsonl_digest([]) == empty
    # One empty line is one newline, not nothing.
    assert jsonl_digest([""]) == hashlib.sha256(b"\n").hexdigest()
