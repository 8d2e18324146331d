"""Fair probabilistic scheduler with deterministic seeding, plus the scripted
variant and the replayable interaction trace.

The repo-wide PRNG is CPython's ``random.Random`` (Mersenne Twister,
MT19937), which produces the same sequence for the same integer seed on
every platform. Per-run seeds derive from (master_seed, run_index) through
SHA-256, so runs are independent and reproducible in isolation.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .energy import BETA_CAP, PROTOCOL_TAGS
from .errors import DomainError
from .formation import CONNECTING_RULES, NOOP, UW

PRNG_NAME = "python-random-mt19937"

TRACE_MAGIC = "# enertree-trace v1"

# What a trace record's rule field may hold: a formation rule, or the tag of
# the energy protocol that moved energy.
RULE_TAGS = CONNECTING_RULES | {UW, NOOP} | PROTOCOL_TAGS


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """Documented splitting rule: first 8 bytes of sha256(b"<master>:<index>")."""
    digest = hashlib.sha256(f"{master_seed}:{run_index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def sample_pair(rng: random.Random, n: int) -> tuple[int, int]:
    """Draw an unordered pair uniformly from the n(n-1)/2 pairs, presented in
    a uniformly random orientation (both orderings equally likely)."""
    if n < 2:
        raise DomainError("pair sampling needs at least two nodes")
    u = rng.randrange(n)
    v = rng.randrange(n - 1)
    if v >= u:
        v += 1
    return u, v


class RandomScheduler:
    """Uniform pairwise scheduler; one call per discrete time step.

    ``skip`` draws pairs in a tight loop until one matters to the caller.
    It makes the generator calls ``sample_pair`` makes, in the same order:
    ``randrange(k)`` is ``getrandbits(k.bit_length())`` with rejection. So
    the pairs, and the generator state after each of them, are the same as
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

    def pair_mask(self, pairs: Iterable[tuple[int, int]]) -> list[bytes]:
        """The oriented pairs ``skip`` should stop at, in its own layout:
        row u, column v as ``randrange(n - 1)`` drew it."""
        rows = [bytearray(self.n - 1) for _ in range(self.n)]
        for u, v in pairs:
            rows[u][v - (v > u)] = 1
        return [bytes(row) for row in rows]

    def skip(self, limit: int, mask: Sequence[bytes]) -> tuple[int, int, int]:
        """Draw pairs until one is in ``mask`` (from ``pair_mask``) or until
        the ``limit``-th; returns how many were drawn and the last pair."""
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


@functools.cache
def skip_matches_sampler() -> bool:
    """Whether ``RandomScheduler.skip`` reproduces ``sample_pair`` on this
    interpreter, checked once per process on throwaway generators: pair by
    pair, over long skips, and in the generator state they leave."""
    return all(_skip_agrees(n) for n in (2, 3, 16, 30, 257))


def _skip_agrees(n: int) -> bool:
    fast, slow = random.Random(n), random.Random(n)
    scheduler = RandomScheduler(fast, n)
    none = scheduler.pair_mask([])
    for limit in [1] * 100 + [64, 300]:
        _, u, v = scheduler.skip(limit, none)
        for _ in range(limit):
            pair = sample_pair(slow, n)
        if (u, v) != pair:
            return False
    return fast.getstate() == slow.getstate()


class ScriptedScheduler:
    """Yields a fixed pair sequence, then falls back to uniform sampling.

    Pair orientation is taken verbatim from the script, standing in for the
    "either may become the parent" choices of the random scheduler.
    """

    __slots__ = ("pairs", "pos", "n", "rng")

    def __init__(
        self,
        pairs: Sequence[tuple[int, int]],
        n: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ):
        if n is not None:
            for u, v in pairs:
                if not (0 <= u < n and 0 <= v < n) or u == v:
                    raise DomainError(f"invalid scripted pair ({u}, {v})")
        self.pairs = list(pairs)
        self.pos = 0
        self.n = n
        self.rng = rng

    def next_pair(self) -> tuple[int, int]:
        if self.pos < len(self.pairs):
            pair = self.pairs[self.pos]
            self.pos += 1
            return pair
        if self.rng is None or self.n is None:
            raise DomainError("scripted scheduler exhausted and no fallback rng")
        return sample_pair(self.rng, self.n)


@dataclass(frozen=True)
class TraceRecord:
    """One scheduler step: the oriented pair, the rule that fired, and the
    energy moved (signed: positive = u sent to v) with its loss fraction."""

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
        parts = line.split()
        try:
            step, u, v, rule, moved, beta = parts
            record = TraceRecord(
                step=int(step),
                u=int(u),
                v=int(v),
                rule=rule,
                moved=None if moved == "-" else float(moved),
                beta=None if beta == "-" else float(beta),
            )
        except ValueError:
            record = None
        if (
            record is None
            or rule not in RULE_TAGS
            or not (record.moved is None or math.isfinite(record.moved))
            or not (record.beta is None or 0.0 <= record.beta <= BETA_CAP)
        ):
            raise DomainError(f"malformed trace record: {line!r}")
        return record


@dataclass
class InteractionTrace:
    """Seeded, replayable record of every scheduler pick and rule firing."""

    seed: int
    config: dict
    records: list[TraceRecord] = field(default_factory=list)
    final_digest: Optional[str] = None

    def append(self, record: TraceRecord) -> None:
        if record.step != len(self.records):
            raise DomainError("trace steps must be consecutive from 0")
        self.records.append(record)

    def lines(self) -> list[str]:
        out = [
            TRACE_MAGIC,
            f"# seed={self.seed}",
            "# config=" + json.dumps(self.config, sort_keys=True),
            f"# digest={self.final_digest or '-'}",
        ]
        out.extend(r.line() for r in self.records)
        return out


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
    header: dict[str, str] = {}
    trace = InteractionTrace(seed=0, config={})
    for line in lines[1:]:
        line = line.strip()
        if not line.startswith("#"):
            if line:
                trace.append(TraceRecord.parse(line))
            continue
        key, _, value = line[1:].strip().partition("=")
        if key not in ("seed", "config", "digest") or key in header or trace.records:
            raise DomainError(f"unexpected trace header line: {line!r}")
        header[key] = value
    if "seed" not in header or "config" not in header:
        raise DomainError("trace file missing seed or config header")
    try:
        trace.seed = int(header["seed"])
        trace.config = json.loads(header["config"])
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise DomainError(f"malformed trace header: {exc}") from exc
    n = trace.config.get("n") if isinstance(trace.config, dict) else None
    if type(n) is not int:
        raise DomainError("trace config must be a JSON object with an integer n")
    for rec in trace.records:
        if not (0 <= rec.u < n and 0 <= rec.v < n) or rec.u == rec.v:
            raise DomainError(f"trace step {rec.step}: invalid pair ({rec.u}, {rec.v}) for n={n}")
    digest = header.get("digest", "-")
    trace.final_digest = None if digest == "-" else digest
    return trace
