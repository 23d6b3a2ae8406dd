"""Shared pieces of the workloads: the op record, seeded sampling and
the object-language formula generator."""

from __future__ import annotations

import hashlib
import math
import random
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Op:
    """One timed call into goedellab.

    `call` runs the op and returns its value; an exception it raises is
    the op's outcome too.  `check(ok, value)` returns None when the
    outcome is right, else (wrong_value, cause): wrong_value is true when
    the program returned an answer that disagrees with the oracle, false
    when it refused, crashed or answered where a refusal was documented.
    """

    kind: str
    key: str
    call: Callable[[], Any]
    check: Callable[[bool, Any], tuple[bool, str] | None]
    props: dict[str, float] = field(default_factory=dict)  # input properties, by name


class Tally:
    """What a run keeps of its ops: latencies in one array per kind, the
    failures alone, a running count, sum and maximum of each input
    property, and 8-byte digests of the inputs.  None of it holds objects
    per op, so the process's peak RSS hardly grows with the op count."""

    def __init__(self):
        self.latencies: dict[str, array] = {}
        self.failures: list[list] = []  # [kind, wrong answer, cause, input]
        self.props: dict[str, list] = {}  # name -> [ops with it, sum, max]
        self.digests = array("q")

    @property
    def ops(self) -> int:
        return len(self.digests)

    def add(self, op: Op, latency: float, failure) -> None:
        self.latencies.setdefault(op.kind, array("d")).append(latency)
        if failure:
            self.failures.append([op.kind, failure[0], failure[1], op.key[:160]])
        for name, v in op.props.items():
            s = self.props.setdefault(name, [0, 0, v])
            s[0] += 1
            s[1] += v
            s[2] = max(s[2], v)
        self.digests.append(int.from_bytes(hashlib.blake2b(op.key.encode(), digest_size=8).digest(),
                                           "little", signed=True))

    def result(self) -> dict:
        ops = self.ops
        repeats = ops - len(set(self.digests))
        return {
            "latencies": {k: v.tolist() for k, v in self.latencies.items()},
            "failures": self.failures,
            # share: of all ops, those with the property; mean and max over those
            "properties": dict({name: {"share": round(n / ops, 4), "mean": round(total / n, 4), "max": top}
                                for name, (n, total, top) in sorted(self.props.items())},
                               repeated_input_share=round(repeats / max(ops, 1), 4)),
        }


def round_rng(seed: int, label: str, index: int) -> random.Random:
    # string seeds hash with sha512, independent of PYTHONHASHSEED
    return random.Random("%d/%s/%d" % (seed, label, index))


def stratum(rng: random.Random, lo: float, hi: float, k: int, strata: int) -> float:
    """A point in the middle tenth of the k-th of `strata` equal slices of
    [lo, hi): a stratified sample whose cost varies little between seeds."""
    width = (hi - lo) / strata
    return lo + width * (k + 0.45 + 0.1 * rng.random())


def log_stratum(rng, lo: float, hi: float, k: int, strata: int) -> float:
    return math.exp(stratum(rng, math.log(lo), math.log(hi), k, strata))


def expect_raise(name: str):
    """A check that passes when the op raised exception type `name`."""

    def check(ok, value):
        if ok:
            return True, "answered where %s is documented" % name
        if type(value).__name__ != name:
            return False, "raised %s (%s), expected %s" % (type(value).__name__, value, name)
        return None

    return check


def expect_value(expected, render=repr, convert=lambda v: v):
    """A check that passes when the op returned `expected` (after
    `convert`, which must call no goedellab function)."""

    def check(ok, value):
        if not ok:
            return False, "raised %s: %s" % (type(value).__name__, str(value)[:120])
        got = convert(value)
        if got != expected:
            return True, "got %s, expected %s" % (render(got)[:80], render(expected)[:80])
        return None

    return check


# --- object-language formulas (oracle tuples) ---------------------------


def random_term(rng: random.Random, depth: int, max_var: int = 3):
    if depth <= 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.4:
            return ("var", rng.randrange(max_var))
        if r < 0.8:
            return ("nat", rng.randrange(4))
        return ("nat", rng.randrange(5, 40))
    kind = rng.randrange(3)
    if kind == 0:
        inner = random_term(rng, depth - 1, max_var)
        return ("nat", inner[1] + 1) if inner[0] == "nat" else ("succ", inner)
    if kind == 1:
        return ("sub", random_term(rng, depth - 1, max_var), random_term(rng, depth - 1, max_var))
    return ("diag", random_term(rng, depth - 1, max_var))


def random_formula(rng: random.Random, depth: int, max_var: int = 3):
    if depth <= 0:
        if rng.random() < 0.5:
            return ("dem", random_term(rng, 1, max_var))
        return ("eq", random_term(rng, 1, max_var), random_term(rng, 1, max_var))
    kind = rng.randrange(4)
    if kind == 0:
        return ("not", random_formula(rng, depth - 1, max_var))
    if kind == 1:
        return ("imp", random_formula(rng, depth - 1, max_var), random_formula(rng, depth - 1, max_var))
    if kind == 2:
        return ("all", rng.randrange(max_var), random_formula(rng, depth - 1, max_var))
    return random_formula(rng, 0, max_var)


def sized_formula(rng: random.Random, size: int, max_var: int = 3):
    """A random formula with exactly `size` connectives and quantifiers
    over atoms of one or two short terms, so that ops on it cost about
    the same whatever the seed."""
    if size <= 0:
        terms = [("var", rng.randrange(max_var)), ("nat", rng.randrange(3)),
                 ("diag", ("var", rng.randrange(max_var))), ("succ", ("var", rng.randrange(max_var)))]
        if rng.random() < 0.5:
            return ("dem", rng.choice(terms))
        return ("eq", rng.choice(terms), rng.choice(terms))
    kind = rng.randrange(3)
    if kind == 0:
        return ("not", sized_formula(rng, size - 1, max_var))
    if kind == 1:
        return ("all", rng.randrange(max_var), sized_formula(rng, size - 1, max_var))
    left = rng.randrange(size)
    return ("imp", sized_formula(rng, left, max_var), sized_formula(rng, size - 1 - left, max_var))


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(round_size: int) -> int:
    """The highest of 99/95/90/75/50 that leaves at least 10 samples of
    one round beyond it; a run holds whole rounds, so every run has at
    least that many."""
    for pct in (99, 95, 90, 75, 50):
        if round_size - math.ceil(pct / 100.0 * round_size) >= 10:
            return pct
    return 50
