"""The trace file is written and read a bounded chunk at a time: the writer
gives the bytes of the whole text joined at once, the reader takes exactly
the lines of the whole text, and neither holds the whole text."""

import gc
import random
import sys
import tracemalloc
import warnings

import pytest

from enertree.errors import DomainError
from enertree.harness import ExperimentConfig, replay_trace, run_single
from enertree.scheduler import (
    RULE_TAGS,
    TRACE_BLOCK,
    TRACE_CHUNK,
    InteractionTrace,
    TraceRecord,
    read_trace,
    write_trace,
)

from conftest import records

C = TRACE_CHUNK
B = TRACE_BLOCK


def _synthetic(steps, moved=(), n=30, seed=0):
    """A trace of ``steps`` random records; the steps in ``moved`` carry an
    amount moved, a loss fraction, or both."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(steps):
        u = rng.randrange(n)
        pairs.append((u, (u + 1 + rng.randrange(n - 1)) % n))
    rules = [rng.choice(["NOOP", "UW", "SS", "RS"]) for _ in range(steps)]
    kinds = [(None, 0.125), (-2.5, None), (0.1 + 0.2, 0.19999999999999998)]
    moves = {step: kinds[step % 3] for step in sorted(moved)}
    return InteractionTrace(seed, {"n": n, "protocol": "arbitrary"}, pairs, rules, moves, "ab" * 32)


def _reference(trace):
    """The bytes of a trace as the whole text joined at once."""
    return ("\n".join(trace.lines()) + "\n").encode("ascii")


@pytest.mark.contract
@pytest.mark.parametrize("steps", [0, 1, C - 1, C, C + 1, 2 * C + 3])
def test_write_trace_gives_the_bytes_of_the_whole_text(tmp_path, steps):
    # Moves on the first and the last step of a chunk; chunk 1 has none.
    trace = _synthetic(steps, {s for s in (0, C - 1, 2 * C, 2 * C + 2) if s < steps})
    path = tmp_path / "trace.txt"
    write_trace(trace, path)
    assert path.read_bytes() == _reference(trace)
    header = trace.lines()[:4]
    assert trace.lines() == header + [rec.line() for rec in records(trace)]
    assert read_trace(path) == trace


@pytest.mark.contract
def test_write_trace_of_a_trace_read_back_from_a_file(tmp_path):
    config = ExperimentConfig(n=10, protocol="kary:2", energy_protocol="lambda:2",
                              loss="normal:0.2,0.05", master_seed=3)
    live = run_single(config, 0, record_trace=True).outcome.trace
    assert len(live) > 2 * C and live.moves
    path, copy = tmp_path / "trace.txt", tmp_path / "copy.txt"
    path.write_bytes(_reference(live))
    trace = read_trace(path)
    write_trace(trace, copy)
    assert copy.read_bytes() == path.read_bytes()
    assert replay_trace(trace).digest == live.final_digest


AMOUNTS = [None, 1.0, -1.0, 5e-324, -5e-324, 1e300, -1e300, -0.0, 0.0, 0.1 + 0.2, -2.5, 17]
BETAS = [None, 0.0, 0.999, 5e-324, 0.19999999999999998, 0.5]


def _every_field(n, steps, seed=0, config=None):
    """A trace over n nodes whose records hold every rule tag, nodes 0 and
    n - 1 in both places, and every amount and loss fraction above: steps
    with both, with an amount alone and with a loss fraction alone."""
    rng = random.Random(seed)
    pairs = [(0, n - 1), (n - 1, 0)]
    while len(pairs) < steps:
        u, v = rng.sample(range(n), 2)
        pairs.append((u, v))
    tags = sorted(RULE_TAGS)
    rules = [tags[step % len(tags)] for step in range(steps)]
    moves = {}
    for step in rng.sample(range(steps), min(steps, 3 * len(AMOUNTS) * len(BETAS))):
        moves[step] = (rng.choice(AMOUNTS), rng.choice(BETAS))
        if moves[step] == (None, None):
            moves[step] = (-0.0, None)
    for step, move in zip((steps - 1, C - 1, C), [(None, 0.25), (5e-324, None), (-1e300, 0.999)]):
        if step < steps:
            moves[step] = move
    if config is None:
        config = {"n": n, "protocol": "arbitrary"}
    return InteractionTrace(seed, config, pairs[:steps], rules, moves, "cd" * 32)


WRITER_CASES = {  # name: (n, steps, config), config None for {"n": n, ...}
    "n=2": (2, C + 5, None),
    "n=11": (11, 2 * C + 1, None),
    "n=300": (300, 3 * C, None),
    "n=300, fewer steps than nodes": (300, 250, None),
    "no n in the config": (11, C + 5, {}),
    "a string n": (11, C + 5, {"n": "11"}),
}


@pytest.mark.contract
@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_each_written_record_line_is_the_reference_line(tmp_path, case):
    # The writer formats each record inline (node names from a table where
    # the config gives n); every line must be ``TraceRecord.line``'s.
    n, steps, config = WRITER_CASES[case]
    trace = _every_field(n, steps, config=config)
    moves = trace.moves
    assert set(trace.rules) == RULE_TAGS
    assert any(m is None and b is not None for m, b in moves.values())
    assert any(m is not None and b is None for m, b in moves.values())
    assert {repr(m) for m, _ in moves.values()} >= {"-0.0", "5e-324", "1e+300", "-1e+300"}
    lines = trace.lines()
    assert len(lines) == 4 + steps
    for step, ((u, v), rule) in enumerate(zip(trace.pairs, trace.rules)):
        expected = TraceRecord(step, u, v, rule, *moves.get(step, (None, None))).line()
        assert lines[4 + step] == expected
    path = tmp_path / "trace.txt"
    write_trace(trace, path)
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")


def test_a_trace_with_fewer_steps_than_nodes_builds_no_name_table(tmp_path):
    # n = 10^6 and 3 records: a table of every node's name would take about
    # 58 MB.
    trace = InteractionTrace(1, {"n": 10**6}, [(0, 999_999), (5, 3), (999_999, 0)],
                             ["NOOP", "SS", "NOOP"], {1: (-0.0, 0.5)})
    path = tmp_path / "trace.txt"
    tracemalloc.start()
    try:
        write_trace(trace, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert path.read_text(encoding="ascii").splitlines()[4:] == [
        "0 0 999999 NOOP - -", "1 5 3 SS -0.0 0.5", "2 999999 0 NOOP - -"]


def _text(steps=12_000):
    """The text of a trace that spans several blocks."""
    return _reference(_synthetic(steps, range(0, steps, 97))).decode("ascii")


def _break_at(text, index, sep="\n"):
    """``text`` with spaces added at the end of one line, so that a line
    break ``sep`` starts at ``index``."""
    q = text.rfind(sep, 0, index + len(sep))
    return text[:q] + " " * (index - q) + text[q:]


def _agree(path):
    """``read_trace(path)`` gives what ``read_trace`` gives on the lines of
    the whole text: the same trace, or a DomainError with the same message.
    Returns the message, or None."""
    whole = path.read_text(encoding="ascii").splitlines()
    try:
        expected = read_trace(whole)
    except DomainError as exc:
        with pytest.raises(DomainError) as caught:
            read_trace(path)
        assert str(caught.value) == str(exc)
        return str(exc)
    assert read_trace(path) == expected
    return None


def _spaced(text, sep):
    """Every line break of ``text`` as ``sep``, with one at the end of the
    first block and one across the start of the second."""
    text = text.replace("\n", sep)
    return _break_at(_break_at(text, B - 1, sep), 2 * B - len(sep) // 2, sep)


CASES = {
    "newline ends a block": lambda t: _break_at(t, B - 1),
    "newline starts a block": lambda t: _break_at(t, B),
    "newlines on both sides of a block boundary": lambda t: _break_at(_break_at(t, B), B - 1),
    "CRLF": lambda t: _spaced(t, "\r\n"),
    "CRLF across 8 KiB": lambda t: _break_at(t.replace("\n", "\r\n"), 8191, "\r\n"),
    "lone CR": lambda t: _spaced(t, "\r"),
    "VT": lambda t: _spaced(t, "\x0b"),
    "FF": lambda t: _spaced(t, "\x0c"),
    "FS": lambda t: _spaced(t, "\x1c"),
    "VT in a record": lambda t: t[:B + 100] + "\x0b" + t[B + 100:],
    "FF ends a block": lambda t: _break_at(t, B - 1).replace("\n", "\x0c\n", 1),
    "FS before a newline": lambda t: t.replace("\n", "\x1c\n"),
    "no final newline": lambda t: t[:-1],
    "ends at a block boundary without a newline": lambda t: _break_at(t, 2 * B)[:2 * B],
    "blank lines in header and body": lambda t: t.replace("# seed", "\n  \n# seed").replace(
        "\n", "\n\n \t\n", 3000) + "\n" * 10,
    "a blank line spans three blocks": lambda t: _break_at(t, B // 2)[:B // 2 + 1]
    + " " * (2 * B) + _break_at(t, B // 2)[B // 2:],
}


@pytest.mark.contract
@pytest.mark.parametrize("case", sorted(CASES))
def test_read_trace_of_a_file_takes_the_lines_of_its_whole_text(tmp_path, case):
    path = tmp_path / "trace.txt"
    path.write_bytes(CASES[case](_text()).encode("ascii"))
    assert len(path.read_bytes()) > 2 * B or case == "ends at a block boundary without a newline"
    assert (_agree(path) is None) == (case != "VT in a record")


@pytest.mark.contract
def test_read_trace_of_a_record_padded_across_three_blocks(tmp_path):
    text = _text()
    head = text.rfind("\n", 0, B // 2) + 1
    step, _, tail = text[head:].partition(" ")
    path = tmp_path / "trace.txt"
    path.write_bytes((text[:head] + step + " " * (2 * B) + tail).encode("ascii"))
    assert _agree(path) is None
    assert read_trace(path) == read_trace(text.splitlines())


@pytest.mark.contract
def test_a_non_ascii_byte_in_a_later_block(tmp_path):
    # With no fault on an earlier line, the reader reports the byte with
    # the message of a whole-text read; a fault on an earlier line comes
    # first.
    data = bytearray(_text().encode("ascii"))
    data[2 * B + 500] = 0xE9
    path = tmp_path / "trace.txt"
    path.write_bytes(bytes(data))
    with pytest.raises(UnicodeDecodeError) as whole:
        path.read_text(encoding="ascii")
    with pytest.raises(DomainError) as caught:
        read_trace(path)
    assert str(caught.value) == f"cannot read trace {path}: {whole.value}"
    data[B + 10:B + 10] = b"\nbogus\n"
    path.write_bytes(bytes(data))
    with pytest.raises(DomainError, match="malformed trace record: 'bogus'"):
        read_trace(path)


def test_write_and_read_hold_no_whole_text(tmp_path):
    # 200,000 records: joining the whole text peaked at 18.6 MB, and
    # reading it whole at 15.1 MB above the trace read.
    trace = _synthetic(200_000, range(0, 200_000, 50))
    path = tmp_path / "trace.txt"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_trace(trace, path)
        write_peak = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        back = read_trace(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == trace
    assert write_peak < 1_000_000
    assert peak - kept < 1_000_000


def test_read_trace_closes_its_file_on_a_fault(tmp_path, monkeypatch):
    text = _text()
    path = tmp_path / "trace.txt"
    path.write_bytes((text[:B + 10] + "\nbogus\n" + text[B + 10:]).encode("ascii"))
    unclosed = []
    monkeypatch.setattr(sys, "unraisablehook", unclosed.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        try:
            read_trace(path)
        except DomainError as exc:
            message = str(exc)
        gc.collect()
    assert message == "malformed trace record: 'bogus'"
    assert unclosed == []
