"""Fair probabilistic scheduler with deterministic seeding, the scripted
scheduler that replays a trace, and the replayable interaction trace.

The repo-wide PRNG is CPython's ``random.Random`` (Mersenne Twister,
MT19937), which produces the same sequence for the same integer seed on
every platform. Per-run seeds derive from (master_seed, run_index) through
SHA-256, so runs are independent and reproducible in isolation.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import count, islice
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

from .energy import BETA_CAP, PROTOCOL_TAGS
from .errors import DomainError
from .formation import CONNECTING_RULES, NOOP, UW

TRACE_MAGIC = "# enertree-trace v1"

# What a trace record's rule field may hold: a formation rule, or the tag of
# the energy protocol that moved energy.
RULE_TAGS = CONNECTING_RULES | {UW, NOOP} | PROTOCOL_TAGS

# The amount moved and loss fraction of a step that carries neither.
_NO_MOVE = (None, None)


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """Documented splitting rule: first 8 bytes of sha256(b"<master>:<index>")."""
    digest = hashlib.sha256(f"{master_seed}:{run_index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def sample_pair(rng: random.Random, n: int) -> tuple[int, int]:
    """Draw an unordered pair uniformly from the n(n-1)/2 pairs, presented in
    a uniformly random orientation (both orderings equally likely): u from
    [0, n) and v from [0, n - 1), each as ``getrandbits(k.bit_length())``
    with rejection, then v shifted past u."""
    if n < 2:
        raise DomainError("pair sampling needs at least two nodes")
    m = n - 1
    ku = n.bit_length()
    kv = m.bit_length()
    bits = rng.getrandbits
    u = bits(ku)
    while u >= n:
        u = bits(ku)
    v = bits(kv)
    while v >= m:
        v = bits(kv)
    return u, v + (v >= u)


class RandomScheduler:
    """Uniform pairwise scheduler; one call per discrete time step.

    ``skip`` draws pairs in a tight loop until one matters to the caller.
    The loop is ``sample_pair`` inlined, kept separate for speed and pinned
    against it by the tests: the same generator calls in the same order, so
    the pairs, and the generator state after each of them, are the ones
    pair-by-pair sampling gives.
    """

    __slots__ = ("rng", "n")

    def __init__(self, rng: random.Random, n: int):
        if n < 2:
            raise DomainError("scheduler needs at least two nodes")
        self.rng = rng
        self.n = n

    def next_pair(self) -> tuple[int, int]:
        return sample_pair(self.rng, self.n)

    def skip(
        self, limit: int, mask: Sequence[bytes], drawn: Optional[list] = None
    ) -> tuple[int, int, int]:
        """Draw pairs until one is in ``mask`` or until the ``limit``-th;
        returns how many were drawn and the last pair. ``mask[u][v - (v >
        u)]`` is nonzero for the oriented pairs (u, v) to stop at: row u,
        column v as drawn from [0, n - 1), before the shift past u.
        With ``drawn``, every pair drawn before the last is appended to it."""
        if drawn is not None:
            return self._skip_recording(limit, mask, drawn)
        n = self.n
        m = n - 1
        ku = n.bit_length()
        kv = m.bit_length()
        bits = self.rng.getrandbits
        for k in range(1, limit + 1):
            u = bits(ku)
            while u >= n:
                u = bits(ku)
            v = bits(kv)
            while v >= m:
                v = bits(kv)
            if mask[u][v]:
                break
        return k, u, v + (v >= u)

    def _skip_recording(self, limit: int, mask: Sequence[bytes], drawn: list) -> tuple[int, int, int]:
        # The loop of ``skip``, handing back the pairs it passes over.
        n = self.n
        m = n - 1
        ku = n.bit_length()
        kv = m.bit_length()
        bits = self.rng.getrandbits
        append = drawn.append
        for k in range(1, limit + 1):
            u = bits(ku)
            while u >= n:
                u = bits(ku)
            v = bits(kv)
            while v >= m:
                v = bits(kv)
            if mask[u][v] or k == limit:
                break
            append((u, v + (v >= u)))
        return k, u, v + (v >= u)


class ScriptedScheduler:
    """Replays a trace: yields each step's recorded pair and applies that
    step's recorded energy move. Raises DomainError past the last step.

    Pair orientation is taken verbatim from the trace, standing in for the
    "either may become the parent" choices of the random scheduler.
    """

    __slots__ = ("pairs", "moves", "moved_steps", "pos")

    def __init__(self, trace: "InteractionTrace"):
        self.pairs = trace.pairs
        self.moves = trace.moves
        # The steps that moved energy, where ``skip`` must stop.
        self.moved_steps = sorted(step for step, (moved, _) in trace.moves.items() if moved)
        self.pos = 0

    def next_pair(self) -> tuple[int, int]:
        if self.pos >= len(self.pairs):
            raise DomainError("scripted scheduler exhausted")
        pair = self.pairs[self.pos]
        self.pos += 1
        return pair

    def skip(
        self, limit: int, mask: Sequence[bytes], drawn: Optional[list] = None
    ) -> tuple[int, int, int]:
        """``RandomScheduler.skip`` over the trace: the next step whose pair
        is in ``mask`` or that moved energy, or the ``limit``-th, whichever
        comes first. DomainError if the trace ends before either."""
        pairs = self.pairs
        start = self.pos
        stop = start + limit
        moved_steps = self.moved_steps
        j = bisect_left(moved_steps, start)
        if j < len(moved_steps) and moved_steps[j] < stop:
            stop = moved_steps[j] + 1
        for i in range(start, min(stop, len(pairs))):
            u, v = pairs[i]
            if mask[u][v - (v > u)]:
                break
        else:
            i = stop - 1
            if i >= len(pairs):
                raise DomainError("scripted scheduler exhausted")
            u, v = pairs[i]
        if drawn is not None:
            drawn += pairs[start:i]
        self.pos = i + 1
        return i + 1 - start, u, v

    def move(self, pop, u: int, v: int) -> tuple[float, Optional[float]]:
        """Apply the recorded signed amount and loss fraction of the step
        whose pair was yielded last, reproducing the original float
        operations bit for bit."""
        moved, beta = self.moves.get(self.pos - 1, _NO_MOVE)
        if not moved:
            return 0.0, None
        fraction = 0.0 if beta is None else beta
        if moved > 0:
            pop.energy.transfer(u, v, moved, fraction)
        else:
            pop.energy.transfer(v, u, -moved, fraction)
        return moved, beta


class TraceRecord(NamedTuple):
    """One scheduler step as a trace line: the oriented pair, the rule that
    fired, and the energy moved (signed: positive = u sent to v) with its
    loss fraction. ``parse`` is the reference reader of one line."""

    step: int
    u: int
    v: int
    rule: str
    moved: Optional[float] = None
    beta: Optional[float] = None

    def line(self) -> str:
        moved = "-" if self.moved is None else repr(self.moved)
        beta = "-" if self.beta is None else repr(self.beta)
        return f"{self.step} {self.u} {self.v} {self.rule} {moved} {beta}"

    @staticmethod
    def parse(line: str) -> "TraceRecord":
        """One record line; DomainError unless it has six fields: integers
        for the step and the pair, a known rule tag, and ``-`` or a finite
        amount moved and ``-`` or a loss fraction in [0, BETA_CAP]."""
        try:
            step, u, v, rule, moved, beta = line.split()
            moved = None if moved == "-" else float(moved)
            beta = None if beta == "-" else float(beta)
            record = TraceRecord(int(step), int(u), int(v), rule, moved, beta)
        except ValueError:
            record = None
        if (
            record is None
            or rule not in RULE_TAGS
            or not (moved is None or math.isfinite(moved))
            or not (beta is None or 0.0 <= beta <= BETA_CAP)
        ):
            raise DomainError(f"malformed trace record: {line!r}")
        return record


@dataclass
class InteractionTrace:
    """Seeded, replayable record of every scheduler pick and rule firing,
    held as columns: each step's pair and rule, and ``{step: (moved,
    beta)}`` for the few steps that carry either field (``TraceRecord``
    gives their meaning)."""

    seed: int
    config: dict
    pairs: list[tuple[int, int]] = field(default_factory=list)
    rules: list[str] = field(default_factory=list)
    moves: dict[int, tuple[Optional[float], Optional[float]]] = field(default_factory=dict)
    final_digest: Optional[str] = None

    def __len__(self) -> int:
        return len(self.pairs)

    def lines(self) -> list[str]:
        header = [
            TRACE_MAGIC,
            f"# seed={self.seed}",
            "# config=" + json.dumps(self.config, sort_keys=True),
            f"# digest={self.final_digest or '-'}",
        ]
        pairs, rules = self.pairs, self.rules
        body = [f"{step} {u} {v} {rule} - -" for step, (u, v), rule in zip(count(), pairs, rules)]
        for step, (moved, beta) in self.moves.items():
            body[step] = TraceRecord(step, *pairs[step], rules[step], moved, beta).line()
        return header + body


def write_trace(trace: InteractionTrace, path: "str | Path") -> None:
    Path(path).write_text("\n".join(trace.lines()) + "\n", encoding="ascii")


def read_trace(source: "str | Path | Iterable[str]") -> InteractionTrace:
    """Parse a trace as ``write_trace`` writes it. DomainError on anything
    else: text that is not ASCII, a missing or repeated header line, a seed
    that is not an integer, a config that is not a JSON object with an
    integer ``n``, a malformed record (see ``TraceRecord.parse``), steps
    that are not consecutive from 0, or a pair outside [0, n) or of one
    node."""
    if isinstance(source, (str, Path)):
        try:
            lines = Path(source).read_text(encoding="ascii").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError(f"cannot read trace {source}: {exc}") from exc
    else:
        lines = list(source)
    if not lines or lines[0].strip() != TRACE_MAGIC:
        raise DomainError("not an enertree trace file")
    # The header: comment lines up to the first record.
    header: dict[str, str] = {}
    body = len(lines)
    for i in range(1, len(lines)):
        line = lines[i].strip()
        if line and not line.startswith("#"):
            body = i
            break
        if not line:
            continue
        key, _, value = line[1:].strip().partition("=")
        if key not in ("seed", "config", "digest") or key in header:
            raise DomainError(f"unexpected trace header line: {line!r}")
        header[key] = value
    if "seed" not in header or "config" not in header:
        raise DomainError("trace file missing seed or config header")
    try:
        seed = int(header["seed"])
        config = json.loads(header["config"])
    except (ValueError, RecursionError) as exc:  # json.JSONDecodeError is a ValueError
        raise DomainError(f"malformed trace header: {exc}") from exc
    n = config.get("n") if isinstance(config, dict) else None
    if type(n) is not int:
        raise DomainError("trace config must be a JSON object with an integer n")
    digest = header.get("digest", "-")
    trace = InteractionTrace(seed, config, final_digest=None if digest == "-" else digest)
    # The records, each checked as it is read. Most are idle steps written
    # as "step u v rule - -", whose tail recurs: a line that is exactly the
    # step and a tail that passed every check once takes that tail's pair
    # and rule from a table. Every other line is parsed in full.
    pairs, rules, moves = trace.pairs, trace.rules, trace.moves
    add_pair, add_rule = pairs.append, rules.append
    idle: dict[str, tuple] = {}
    step = 0
    for line in islice(lines, body, None):
        head, _, tail = line.partition(" ")
        known = idle.get(tail)
        if known is not None and head == str(step):
            add_pair(known[0])
            add_rule(known[1])
            step += 1
            continue
        try:
            rec = TraceRecord.parse(line)
        except DomainError:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                raise DomainError(f"unexpected trace header line: {line!r}") from None
            raise
        if rec.step != step:
            raise DomainError("trace steps must be consecutive from 0")
        if not (0 <= rec.u < n and 0 <= rec.v < n) or rec.u == rec.v:
            raise DomainError(f"trace step {step}: invalid pair ({rec.u}, {rec.v}) for n={n}")
        add_pair((rec.u, rec.v))
        add_rule(rec.rule)
        if rec.moved is not None or rec.beta is not None:
            moves[step] = (rec.moved, rec.beta)
        elif rec.line() == line:
            idle[tail] = (pairs[-1], rec.rule)
        step += 1
    return trace
