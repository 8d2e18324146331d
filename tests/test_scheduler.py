import functools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from enertree.errors import DomainError
from enertree.harness import ExperimentConfig, replay_trace, run_single
from enertree.scheduler import (
    RULE_TAGS,
    InteractionTrace,
    RandomScheduler,
    ScriptedScheduler,
    TraceRecord,
    derive_run_seed,
    make_rng,
    read_trace,
    sample_pair,
    write_trace,
)

from conftest import build_tree, pair_mask, records


def test_sample_pair_rejects_single_node():
    with pytest.raises(DomainError):
        sample_pair(make_rng(0), 1)


def test_two_nodes_always_the_single_pair():
    rng = make_rng(5)
    for _ in range(200):
        assert set(sample_pair(rng, 2)) == {0, 1}


def test_pair_frequencies_uniform():
    # 1e6 draws over the 45 pairs of n=10; each within 5% of 1/45
    rng = make_rng(123)
    n = 10
    draws = 1_000_000
    counts = Counter()
    for _ in range(draws):
        u, v = sample_pair(rng, n)
        counts[frozenset((u, v))] += 1
    expected = draws / 45
    assert len(counts) == 45
    for pair, count in counts.items():
        assert abs(count - expected) <= 0.05 * expected, (pair, count)


def test_orientation_unbiased():
    rng = make_rng(99)
    forward = 0
    trials = 200_000
    for _ in range(trials):
        u, v = sample_pair(rng, 6)
        if u < v:
            forward += 1
    assert abs(forward - trials / 2) < 0.02 * trials


def test_mean_wait_for_fixed_pair_matches_geometric():
    # first appearance of pair {0, 1} for n=10 is geometric with mean 45
    rng = make_rng(7)
    target = frozenset((0, 1))
    trials = 10_000
    total = 0
    for _ in range(trials):
        steps = 0
        while True:
            steps += 1
            if frozenset(sample_pair(rng, 10)) == target:
                break
        total += steps
    mean = total / trials
    assert abs(mean - 45.0) <= 4.5


def test_fairness_every_pair_appears():
    # within 100 * C(n,2) steps every pair shows up (n=6)
    n = 6
    budget = 100 * (n * (n - 1) // 2)
    for seed in range(10):
        rng = make_rng(seed)
        seen = set()
        for _ in range(budget):
            seen.add(frozenset(sample_pair(rng, n)))
        assert len(seen) == n * (n - 1) // 2


def test_same_seed_same_sequence():
    r1, r2 = make_rng(42), make_rng(42)
    seq1 = [sample_pair(r1, 20) for _ in range(500)]
    seq2 = [sample_pair(r2, 20) for _ in range(500)]
    assert seq1 == seq2


@pytest.mark.parametrize("n", [2, 3, 16, 17, 30, 100, 257, 1000])
def test_skip_reproduces_sample_pair(n):
    # 200k pairs through skip, against pair-by-pair sampling: every pair it
    # passes over is outside the mask, and it stops on the first pair inside
    # it or on the limit-th.
    fast, slow = make_rng(n), make_rng(n)
    scheduler = RandomScheduler(fast, n)
    stops = {(u, v) for u, v in [(0, 1), (1, 0), (n - 1, n // 2), (n // 3, 0)] if u != v}
    mask = pair_mask(n, stops)
    limits = [1, 2, 5, 40, 300]
    drawn = 0
    recording = False
    while drawn < 200_000:
        # every other skip hands back the pairs it passes over
        limit = limits[drawn % len(limits)]
        recording = not recording
        handed = [] if recording else None
        k, u, v = scheduler.skip(limit, mask, handed)
        passed = [sample_pair(slow, n) for _ in range(k - 1)]
        assert not stops.intersection(passed)
        assert handed is None or handed == passed
        assert (u, v) == sample_pair(slow, n)
        assert (u, v) in stops or k == limit
        drawn += k
    assert fast.getstate() == slow.getstate()


def test_skip_leaves_the_generator_state_of_step_sampling():
    # gauss() caches its second value; skipping draws whole pairs only, so
    # the cached value and every later draw stay in step.
    n = 30
    fast, slow = make_rng(8), make_rng(8)
    scheduler = RandomScheduler(fast, n)
    none = pair_mask(n, [])
    for limit in (3, 50, 1):
        fast.gauss(0.2, 0.05)
        slow.gauss(0.2, 0.05)
        scheduler.skip(limit, none)
        for _ in range(limit):
            sample_pair(slow, n)
        assert fast.getstate() == slow.getstate()
        assert fast.gauss(0.2, 0.05) == slow.gauss(0.2, 0.05)


class _NoRandrange(random.Random):
    def randrange(self, *args, **kwargs):
        raise AssertionError("pairs are drawn with getrandbits alone")


def test_pairs_rest_on_getrandbits_alone():
    # The pairs and the generator state they leave do not depend on how the
    # interpreter implements randrange: a generator whose randrange raises
    # draws what a plain one draws at the same seed, on every path.
    n = 30
    plain, bare = random.Random(4), _NoRandrange(4)
    mask = pair_mask(n, [(0, 1), (7, 3)])
    scheduler = RandomScheduler(bare, n)
    for recording in (False, True):
        for limit in (1, 5, 300):
            handed = [] if recording else None
            k, u, v = scheduler.skip(limit, mask, handed)
            pairs = [sample_pair(plain, n) for _ in range(k)]
            assert (u, v) == pairs[-1]
            assert handed is None or handed == pairs[:-1]
    for _ in range(100):
        assert scheduler.next_pair() == sample_pair(plain, n)
        assert sample_pair(bare, n) == sample_pair(plain, n)
    assert bare.getstate() == plain.getstate()


def test_derive_run_seed_spreads():
    seeds = {derive_run_seed(42, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_run_seed(42, 0) == derive_run_seed(42, 0)
    assert derive_run_seed(42, 0) != derive_run_seed(43, 0)


def _script(pairs):
    """A trace of idle steps at the given pairs, one step each."""
    return InteractionTrace(0, {}, pairs=list(pairs), rules=["NOOP"] * len(pairs))


def test_scripted_scheduler_skip_plays_the_script():
    # skip stops at the next pair in the mask or at the limit-th pair, as
    # RandomScheduler.skip does, and hands back the pairs it passes over
    script = [(0, 1), (2, 3), (3, 2), (1, 4), (4, 0), (2, 1)]
    sched = ScriptedScheduler(_script(script))
    mask = pair_mask(5, [(3, 2), (2, 1)])
    handed = []
    assert sched.skip(10, mask, handed) == (3, 3, 2)
    assert handed == script[:2]
    assert sched.skip(2, mask) == (2, 4, 0)
    assert sched.next_pair() == (2, 1)
    assert sched.pos == len(script)


def test_scripted_scheduler_empty_script_raises():
    sched = ScriptedScheduler(_script([]))
    mask = pair_mask(2, [(0, 1)])
    with pytest.raises(DomainError):
        sched.next_pair()
    with pytest.raises(DomainError):
        sched.skip(1, mask)


def test_scripted_skip_past_the_end_raises():
    # A skip that would need a pair beyond the script raises, as the step
    # by step path does when it asks for that pair; one that stops at a
    # pair in the mask within the script does not.
    script = [(0, 1), (1, 2), (2, 0)]
    mask = pair_mask(3, [(2, 0)])
    none = pair_mask(3, [])
    assert ScriptedScheduler(_script(script)).skip(5, mask) == (3, 2, 0)
    assert ScriptedScheduler(_script(script)).skip(3, none) == (3, 2, 0)
    with pytest.raises(DomainError):
        ScriptedScheduler(_script(script)).skip(4, none)
    sched = ScriptedScheduler(_script(script))
    sched.skip(2, none)
    with pytest.raises(DomainError):
        sched.skip(2, none)


def test_scripted_scheduler_replays_recorded_moves():
    # skip stops at a step whose record moved energy, though its pair is not
    # in the mask; move applies that record's amount and loss fraction
    trace = _script([(0, 1), (1, 2), (2, 0)])
    trace.rules[1] = "LAMBDA"
    trace.moves[1] = (-4.0, 0.25)
    sched = ScriptedScheduler(trace)
    none = pair_mask(3, [])
    pop = build_tree(3, [(1, 2)], [10.0, 10.0, 10.0])
    assert sched.skip(3, none) == (2, 1, 2)
    assert sched.move(pop, 1, 2) == (-4.0, 0.25)
    assert pop.energy.per_node == [10.0, 13.0, 6.0]
    assert pop.energy.lost == 1.0
    assert sched.next_pair() == (2, 0)
    assert sched.move(pop, 2, 0) == (0.0, None)
    assert pop.energy.per_node == [10.0, 13.0, 6.0]


def test_read_trace_validates_pairs():
    header = ["# enertree-trace v1", "# seed=0", '# config={"n": 3}', "# digest=-"]
    assert len(read_trace(header + ["0 0 1 SS - -"])) == 1
    for record in ("0 0 0 SS - -", "0 0 9 SS - -", "0 -1 2 SS - -"):
        with pytest.raises(DomainError, match="invalid pair"):
            read_trace(header + [record])


def test_scripted_scheduler_exhaustion_without_fallback():
    sched = ScriptedScheduler(_script([(0, 1)]))
    sched.next_pair()
    with pytest.raises(DomainError):
        sched.next_pair()


def test_trace_record_line_roundtrip():
    rec = TraceRecord(3, 1, 2, "LAMBDA", 12.125, 0.19999999999999998)
    assert TraceRecord.parse(rec.line()) == rec
    rec2 = TraceRecord(0, 4, 7, "NOOP")
    assert TraceRecord.parse(rec2.line()) == rec2


def test_trace_file_roundtrip(tmp_path):
    trace = InteractionTrace(seed=99, config={"n": 3, "protocol": "arbitrary"},
                             pairs=[(0, 1), (1, 2)], rules=["SS", "LAMBDA"], moves={1: (5.5, 0.0)})
    trace.final_digest = "ab" * 32
    path = tmp_path / "trace.txt"
    write_trace(trace, path)
    loaded = read_trace(path)
    assert loaded.seed == trace.seed
    assert loaded.config == trace.config
    assert loaded.final_digest == trace.final_digest
    assert records(loaded) == records(trace)


def test_read_trace_checks_a_recurring_record_tail_once():
    # An idle record's tail ("u v rule - -") that passed every check is
    # reused for later lines; they give the records the full parse gives,
    # and their steps are still checked.
    header = ["# enertree-trace v1", "# seed=0", '# config={"n": 3}', "# digest=-"]
    body = ["0 0 1 NOOP - -", "1 0 1 NOOP - -", "02 0 1 NOOP - -", "3  0 1 NOOP - -",
            "4 0 1 NOOP - 0.5", "5 0 1 NOOP - 0.5", "6 2 1 UW - -", "7 2 1 UW - -"]
    assert records(read_trace(header + body)) == [TraceRecord.parse(line) for line in body]
    with pytest.raises(DomainError, match="consecutive"):
        read_trace(header + ["0 0 1 NOOP - -", "2 0 1 NOOP - -"])
    with pytest.raises(DomainError, match="invalid pair"):
        read_trace(header + ["0 0 1 NOOP - -", "1 0 3 NOOP - -", "2 0 3 NOOP - -"])
    # after a line that starts with a blank, its tail holds six fields
    with pytest.raises(DomainError, match="malformed trace record"):
        read_trace(header + [" 0 0 1 NOOP - -", "1 0 0 1 NOOP - -"])


def test_trace_record_roundtrip_property():
    from hypothesis import given, strategies as st

    @given(
        step=st.integers(0, 10**9),
        u=st.integers(0, 10**6),
        v=st.integers(0, 10**6),
        rule=st.sampled_from(["SS", "RS", "UW", "NOOP", "LAMBDA", "KDEPTH"]),
        moved=st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
        beta=st.one_of(st.none(), st.floats(0, 0.999)),
    )
    def check(step, u, v, rule, moved, beta):
        rec = TraceRecord(step, u, v, rule, moved, beta)
        assert TraceRecord.parse(rec.line()) == rec

    check()


# Real traces: k-ary rules (idle tree-edge steps are UW lines) lossless, and
# arbitrary rules lossy.
TRACED = {
    "kary": ExperimentConfig(n=8, protocol="kary:2", energy_protocol="lambda:2", master_seed=3),
    "arbitrary": ExperimentConfig(n=8, protocol="arbitrary", energy_protocol="ideal",
                                  loss="normal:0.2,0.05", initial_energy="random", master_seed=3),
}


@functools.cache
def _trace_lines(name):
    return tuple(run_single(TRACED[name], 0, record_trace=True).outcome.trace.lines())


@pytest.mark.parametrize("name", sorted(TRACED))
def test_trace_file_round_trips_through_the_reader(tmp_path, name):
    # Writing a trace that was read gives back the bytes of the file, and
    # replaying it gives the recorded digest.
    path, copy = tmp_path / "trace.txt", tmp_path / "copy.txt"
    path.write_text("\n".join(_trace_lines(name)) + "\n", encoding="ascii")
    trace = read_trace(path)
    assert trace.moves and ("UW" in trace.rules) == (name == "kary")
    write_trace(trace, copy)
    assert copy.read_bytes() == path.read_bytes()
    assert replay_trace(trace).digest == trace.final_digest


def _per_line(body, n):
    """The records of a trace body by the reference path, one line at a
    time: blank lines skipped, ``TraceRecord.parse`` on each other line,
    steps consecutive from 0, pairs of two nodes in [0, n). Raises the
    DomainError of the first line it rejects."""
    records = []
    for line in body:
        try:
            rec = TraceRecord.parse(line)
        except DomainError:
            if not line.strip():
                continue
            if line.strip().startswith("#"):
                raise DomainError(f"unexpected trace header line: {line.strip()!r}") from None
            raise
        if rec.step != len(records):
            raise DomainError("trace steps must be consecutive from 0")
        if not (0 <= rec.u < n and 0 <= rec.v < n) or rec.u == rec.v:
            raise DomainError(f"trace step {rec.step}: invalid pair ({rec.u}, {rec.v}) for n={n}")
        records.append(rec)
    return records


@st.composite
def damaged_traces(draw):
    """A real trace with one token of a record line replaced (in that line,
    or in every line with the same tail), or one record line replaced,
    dropped or repeated."""
    lines = list(_trace_lines(draw(st.sampled_from(sorted(TRACED)))))
    i = draw(st.integers(4, len(lines) - 1))
    step = str(i - 4)
    tokens = st.one_of(
        st.sampled_from(sorted(RULE_TAGS) + ["BOGUS", "-", "", " ", "#", "0.5", "-0.0", "nan"]),
        st.sampled_from([step, "0" + step, "+" + step, str(i - 3), str(i - 5), "-1", "8", "1_0"]),
        st.integers(-1, 8).map(str),
        st.sampled_from(lines[4:]).map(str.split).flatmap(st.sampled_from),
    )
    damage = draw(st.sampled_from(["token", "tail", "line", "drop", "repeat"]))
    if damage in ("token", "tail"):
        j = draw(st.integers(0, len(lines[i].split(" ")) - 1))
        token = draw(tokens)
        tail = lines[i].partition(" ")[2]
        for k in range(i, len(lines) if damage == "tail" else i + 1):
            if lines[k].partition(" ")[2] == tail:
                fields = lines[k].split(" ")
                fields[j] = token
                lines[k] = " ".join(fields)
    elif damage == "line":
        lines[i] = draw(st.sampled_from(lines[4:]) | st.text(" 0123456789-.#NOPUWS\t", max_size=16))
    elif damage == "drop":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return lines


@settings(max_examples=200, deadline=None, derandomize=True)
@given(damaged_traces())
def test_read_trace_agrees_with_the_per_line_path(lines):
    # The reader looks recurring idle tails up in a table; it must accept
    # exactly what the per-line path accepts, give the same records, and
    # reject with the same first fault.
    try:
        expected = _per_line(lines[4:], 8)
    except DomainError as exc:
        with pytest.raises(DomainError) as caught:
            read_trace(lines)
        assert str(caught.value) == str(exc)
    else:
        assert records(read_trace(lines)) == expected
