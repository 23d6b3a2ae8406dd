"""Bit-exact arithmetization.

A formula is coded by writing it as a Polish (prefix) token string
t_1..t_k and forming prod p_i^{t_i} over the first k primes.  Token
codes are >= 1, so a gap in the prime-exponent sequence is detectable
and decoding is exact.  The enumeration of one-free-variable formulas
orders them by ascending code.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
from operator import itemgetter

from . import formulas as F
from .errors import NotUnary, NotWellFormed, ResourceBound
from .syntax import Node, walk

# --- token table -------------------------------------------------------

NOT, IMP, ALL, EQ, DEM, SUB, DIAG, ZERO, S = 1, 2, 3, 4, 5, 6, 7, 8, 9
VAR_BASE = 13  # x_i -> 13 + i; 10..12 reserved (parens/comma, never emitted)
RESERVED = {10, 11, 12}

# Materialization guard for codes built from substituted numerals.
MAX_TOKENS = 200_000

# Decoding reads a run that ends the code, such as a numeral's S tokens,
# with one power and one division: on a 2-vCPU machine `x0 = 4000` (489k
# bits) and `x0 = 4080` (499,881 bits) take about 30 ms.  A huge exponent
# is read a few digits at a time: `Dem(x315000)` (499k bits) takes about
# 1.2-1.4 s.  A code without runs is still read prime by prime, each prime
# by divisions of the whole remainder, so its cost grows with the square
# of the bit length: tokens alternating 8 and 9 (461k bits) take 1.3-1.5 s.
# Those worst cases are why the bound stays where it is; longer codes are
# refused before the first division.
MAX_DECODE_BITS = 500_000

# Folded into the index table's checksum: a table written under another
# token table fails the check and is rebuilt.
CODEC_VERSION = "goedellab-codec/1 tokens %s" % " ".join(
    map(str, (NOT, IMP, ALL, EQ, DEM, SUB, DIAG, ZERO, S, VAR_BASE))
)

# --- primes ------------------------------------------------------------

_primes = [2, 3, 5, 7, 11, 13]


def _ensure_primes(k: int) -> None:
    """Grow the global prime list to at least k entries.

    Sieves one segment [lo, 2*lo) at a time; every prime below sqrt(2*lo)
    is already in the list.
    """
    while len(_primes) < k:
        lo = _primes[-1] + 1
        hi = 2 * lo
        sieve = bytearray([1]) * (hi - lo)
        for p in _primes:
            if p * p >= hi:
                break
            first = max(p * p, -(-lo // p) * p) - lo
            sieve[first::p] = bytes(len(range(first, hi - lo, p)))
        _primes.extend(itertools.compress(range(lo, hi), sieve))


def nth_prime(i: int) -> int:
    """0-based."""
    _ensure_primes(i + 1)
    return _primes[i]


# --- tokenization ------------------------------------------------------


# The token table: the kind of slot a token fills (as the reader's messages
# name it) -> token -> (its node class, the kinds of its operand slots, the
# second None for one operand).  The leaves 0 and x_i are read on their own.
_FORMULA, _TERM, _VARIABLE = "formula", "term", "quantifier variable"
_RULES = {
    _FORMULA: {NOT: (F.Not, _FORMULA, None), IMP: (F.Implies, _FORMULA, _FORMULA),
               ALL: (F.ForAll, _VARIABLE, _FORMULA), EQ: (F.Eq, _TERM, _TERM),
               DEM: (F.Dem, _TERM, None)},
    _TERM: {SUB: (F.Sub, _TERM, _TERM), DIAG: (F.Diag, _TERM, None), S: (F.Succ, _TERM, None)},
    _VARIABLE: {},
}
# the token of every node type but the leaves Var and Num
_TOKEN = {rule[0]: tok for table in _RULES.values() for tok, rule in table.items()}


def formula_tokens(f: F.Formula) -> list[int]:
    """The Polish token string of f: one token per node in walk order, a
    numeral spelled out as S...S0 and a quantifier followed by its variable."""
    out: list[int] = []
    for x in walk(f):
        if isinstance(x, F.Var):
            out.append(VAR_BASE + x.index)
        elif isinstance(x, F.Num):
            if x.value > MAX_TOKENS:
                raise ResourceBound("numeral literal %d too large to tokenize" % x.value)
            out += [S] * x.value
            out.append(ZERO)
        else:
            out.append(_TOKEN[type(x)])
            if isinstance(x, F.ForAll):
                out.append(VAR_BASE + x.var)
    return out


def tokens_to_formula(tokens: list[int]) -> F.Formula:
    """Parse a Polish token string as exactly one formula, left to right:
    the first token that cannot stand where it is is the error.  The
    innermost open node is (build, arg): arg is None while a node of one
    operand waits for it, the kind of the second operand while a node of
    two waits for its first, and that first while it waits for its second.
    The stack holds the nodes around it, and (None, None) when none is
    open.  A run of S is read in one step, as one node: (successors, its
    length)."""
    n, stack = len(tokens), []
    build = arg = None
    kind, pos = _FORMULA, 0
    while True:
        if pos == n:
            raise NotWellFormed("token string ends inside a %s" % kind)
        tok = tokens[pos]
        pos += 1
        if tok >= VAR_BASE and kind is not _FORMULA:
            x = tok - VAR_BASE if kind is _VARIABLE else F.Var(tok - VAR_BASE)
        elif tok == ZERO and kind is _TERM:
            x = F.ZERO
        else:
            stack.append((build, arg))
            try:
                build, kind, arg = _RULES[kind][tok]
            except KeyError:
                if tok in RESERVED or tok <= 0:
                    raise NotWellFormed("reserved or invalid token code %d" % tok) from None
                if kind is _VARIABLE:
                    raise NotWellFormed("quantifier not followed by a variable token") from None
                raise NotWellFormed("token %d cannot start a %s" % (tok, kind)) from None
            if tok == S:
                start = pos - 1
                while pos < n and tokens[pos] == S:
                    pos += 1
                build, arg = F.successors, pos - start
            continue
        # x is read: it completes each open node it is the last operand of
        while build is not None:
            if arg is None:
                x = build(x)
            elif type(arg) is str:
                kind, arg = arg, x
                break
            else:
                x = build(arg, x)
            build, arg = stack.pop()
        else:
            if pos != n:
                raise NotWellFormed("trailing tokens after a complete formula")
            return x


# --- encode / decode ---------------------------------------------------


def _product(factors: list[int]) -> int:
    """Product by a balanced tree: each round multiplies neighbours, so
    the big multiplications are between operands of about equal size.
    The last few are multiplied in order, which is cheaper for short lists."""
    while len(factors) > 8:
        odd = factors[-1:] if len(factors) % 2 else []
        factors = [a * b for a, b in zip(factors[::2], factors[1::2])] + odd
    return math.prod(factors)


def _runs_code(runs) -> int:
    """prod p_i^{t_i} of a token string given as (token, count) runs.

    A run of c copies of t from prime i on contributes
    (p_i * ... * p_{i+c-1})^t.
    """
    _ensure_primes(sum(c for (_, c) in runs))
    factors = []
    i = 0
    for tok, count in runs:
        base = _primes[i] if count == 1 else _product(_primes[i:i + count])
        factors.append(base**tok)
        i += count
    return _product(factors)


def encode_tokens(tokens: list[int]) -> int:
    _ensure_primes(len(tokens))
    return _product([p**t for p, t in zip(_primes, tokens)])


def encode_formula(f: F.Formula) -> int:
    return encode_tokens(formula_tokens(f))


# CPython's long division is fastest by a one-digit divisor, below 2**30.
_DIGIT_BITS = 30


def _strip_prime(g: int, p: int) -> tuple[int, int]:
    """(g / p^e, e) for the exponent e of the prime p in g.

    Strips p^k (a power of p below one digit) while it divides; the rest
    of the exponent is read off the small remainder.
    """
    k = max(1, _DIGIT_BITS // p.bit_length())
    pk = p**k
    e = 0
    q, r = divmod(g, pk)
    while not r:
        g, e = q, e + k
        q, r = divmod(g, pk)
    j = 0
    while r % p == 0:
        r //= p
        j += 1
    if j:
        g //= p**j
        e += j
    return g, e


def _run_end(g: int, i: int, t: int, sums: list[float]) -> int:
    """Where a run of t from prime i ends if at most two tokens follow it
    to the end of the code g, else 0.

    The run's length is guessed from g's size: the largest c with
    t * log2(p_i ... p_{i+c-1}) at most log2 g.  A tail may outweigh a t,
    so the end is c or a little below it.  An end is taken when the bits of
    g past it are u * log2 p + v * log2 p' for the two primes after it and
    naturals u + v < 127, and one remainder modulo a small power of the
    run's last prime shows that it carries exactly t: the logarithms of
    close primes can nearly cancel (2 log2 p_2004 - log2 p_2003 - log2
    p_2005 is under 1e-6).  The floats only guess; the caller proves the
    end by one exact division.  sums[j] is log2(p_0 ... p_{j-1}), grown here
    as far as the guess needs and kept for the next one.
    """
    bits = math.log2(g)
    while len(sums) <= i + 1 or sums[-1] - sums[i] <= bits / t:
        have = len(sums) - 1
        upto = have + have // 4 + 8
        _ensure_primes(upto)
        last = sums.pop()  # accumulate yields it again first
        sums += itertools.accumulate(map(math.log2, _primes[have:upto]), initial=last)
    c = bisect.bisect_right(sums, sums[i] + bits / t) - 1 - i
    _ensure_primes(i + c + 2)
    for end in range(c, max(c - 4, 0), -1):
        rest = bits - t * (sums[i + end] - sums[i])
        a, b = math.log2(_primes[i + end]), math.log2(_primes[i + end + 1])
        # u * a + v * b = rest with u + v = n, for the few n that a < b allow
        for n in range(math.ceil(rest / b - 1e-9), min(int(rest / a + 1e-9), 126) + 1):
            u = round((n * b - rest) / (b - a))
            if 0 <= u <= n and abs(rest - u * a - (n - u) * b) < 1e-6:
                break
        else:
            continue
        p = _primes[i + end - 1]
        r = g % p ** (t + 1)
        if r and not r % p**t:
            return end
    return 0


def decode_tokens(g: int) -> list[int]:
    """The exponents of the first primes in g, up to the last factor.

    Once two neighbouring exponents are equal (t), the next `block` primes
    are guessed to carry t as well: g is divided by their product B to the
    t-th power in one long division, which CPython does several times
    faster per digit than one one-digit division per prime.  The guess is
    taken only when the division is exact and the quotient is prime to B,
    which proves every exponent in the block is exactly t; so a gap is
    reported at the same prime as prime by prime.  The block doubles after
    each hit until the first miss, then halves after every guess (an
    exponential search for the run's end).  After a miss the next prime is
    read alone; a missed block of one prime has already read it.

    A run that ends a code of more than 8,192 bits, such as the S tokens of
    the numeral in `x0 = m`, is read top down instead: once its first
    block has hit, the run's end is guessed from the size of g
    (`_run_end`), and the whole rest of the run is one block, taken under
    the same proof.  If the guess is missed or refuted, the block search
    goes on as above.
    """
    if g < 1:
        raise NotWellFormed("Goedel numbers are naturals >= 1")
    if g.bit_length() > MAX_DECODE_BITS:
        raise ResourceBound(
            "code of %d bits exceeds the decode bound of %d bits"
            % (g.bit_length(), MAX_DECODE_BITS)
        )
    tokens = []
    i = 0
    block, grow = 1, True
    sums = [0.0]
    while g > 1:
        p, e = nth_prime(i), None
        if block and len(tokens) > 1 and tokens[-1] == tokens[-2]:
            t = tokens[-1]
            # in a code of up to 8,192 bits the divisions are cheap, and a
            # guess that misses costs a logarithm per prime still left
            if block == 2 and grow and g.bit_length() > 8192:
                c = _run_end(g, i, t, sums)
                if c:
                    base = _product(_primes[i:i + c])
                    q, r = divmod(g, base**t)
                    if not r and math.gcd(q, base) == 1:
                        # the run is read: the next prime is read alone
                        tokens.extend([t] * c)
                        g, i, block = q, i + c, 0
                        continue
            _ensure_primes(i + block)
            base = p if block == 1 else _product(_primes[i:i + block])
            # base**t > g needs no division to be a miss
            if (base.bit_length() - 1) * t < g.bit_length():
                q, r = divmod(g, base**t)
                if not r and math.gcd(q, base) == 1:
                    tokens.extend([t] * block)
                    g, i = q, i + block
                    block = block * 2 if grow else block // 2
                    continue
                if block == 1:
                    # the division has read p's exponent e: if e < t,
                    # r = g mod p^t is p^e times a unit, and
                    # g / p^e = q p^(t-e) + r / p^e
                    if r:
                        r, e = _strip_prime(r, p)
                        g = q * p ** (t - e) + r
                    else:
                        g, e = _strip_prime(q, p)
                        e += t
            block, grow = block // 2, False
        if e is None:
            g, e = _strip_prime(g, p)
        if e == 0:
            raise NotWellFormed(
                "exponent gap at prime %d (not a contiguous token string)" % p
            )
        if tokens and e != tokens[-1]:
            block, grow = 1, True
        tokens.append(e)
        i += 1
    return tokens


def decode_formula(g: int) -> F.Formula:
    tokens = decode_tokens(g)
    if not tokens:
        raise NotWellFormed("empty sequence")
    return tokens_to_formula(tokens)


# --- run-length token codes (for substituted-numeral blowup) -----------


class CodeRLE(Node):
    """A Goedel number given by its run-length encoded token string.

    Exact and comparable even when the token string (hence the integer)
    is astronomically long, as happens when a numeral as large as a
    formula's own code is substituted into it.
    """

    # runs: (token, repeat count)
    __slots__ = _fields = _data = ("runs",)

    @staticmethod
    def from_runs(pairs) -> "CodeRLE":
        """The code of the token string given as (token, count) pairs: pairs
        of one token in a row make one run, and a count of 0 none."""
        return CodeRLE(tuple((tok, sum(c for _, c in group)) for tok, group in
                             itertools.groupby((p for p in pairs if p[1]), itemgetter(0))))

    def to_int(self) -> int:
        n = sum(c for (_, c) in self.runs)
        if n > MAX_TOKENS:
            raise ResourceBound(
                "code has %d tokens, over the bound of %d to materialize" % (n, MAX_TOKENS)
            )
        return _runs_code(self.runs)


def _substitute_x0_numeral(psi: F.Formula, m: int) -> CodeRLE:
    """Run-length code of psi with the numeral of m for every free x0."""
    tokens = formula_tokens(psi)
    if any(a == ALL and b == VAR_BASE for a, b in zip(tokens, tokens[1:])):
        # psi also binds x0 somewhere, which needs scope-aware substitution
        if m > MAX_TOKENS:
            raise ResourceBound("numeral of %d too large for symbolic route" % m)
        return CodeRLE.from_runs((tok, 1) for tok in formula_tokens(F.substitute(psi, 0, F.Num(m))))
    return CodeRLE.from_runs(pair for tok in tokens
                             for pair in (((S, m), (ZERO, 1)) if tok == VAR_BASE else ((tok, 1),)))


# --- enumeration of unary formulas -------------------------------------


def _scan_unary(bound: int):
    """All (code, tokens) with code <= bound, formula unary in x0 exactly.

    Branch and bound over grammar-valid Polish prefixes, depth first on an
    explicit stack.  A state holds the partial product, the next position
    and the slots still open, left to right; a slot is a formula or a term
    slot with the mask of the variables bound above it.  A prefix is cut
    when its product times the cheapest completion of its open slots
    exceeds the bound.  Binders precede their bodies, so a variable other
    than x0 that is unbound where it appears stays free: it is cut there.
    """
    # no code <= bound has k tokens, so no token sits at position k or later
    k, prod = 1, 2
    while prod <= bound:
        k += 1
        prod *= nth_prime(k - 1)
    _ensure_primes(k + 3)
    p = _primes
    # cheapest factor of a term (`0`) or a formula from position i on, a
    # lower bound: later subformulas start no earlier than the shortest
    # ones before them allow, a factor only grows with its position, and
    # the entries past position k stay 1
    min_t = [p[i] ** ZERO for i in range(k + 3)]
    min_f = [1] * (k + 4)
    for i in reversed(range(k + 1)):
        min_f[i] = min(
            p[i] ** NOT * min_f[i + 1],
            p[i] ** IMP * min_f[i + 1] * min_f[i + 3],
            p[i] ** ALL * p[i + 1] ** VAR_BASE * min_f[i + 2],
            p[i] ** EQ * min_t[i + 1] * min_t[i + 2],
            p[i] ** DEM * min_t[i + 1],
        )

    def fits(q: int, i: int, slots: tuple) -> bool:
        """q times the cheapest completion of slots from position i is
        within the bound."""
        for is_formula, _ in slots:
            if i >= k:
                return False
            if is_formula:
                q *= min_f[i]
                i += 2
            else:
                q *= min_t[i]
                i += 1
            if q > bound:
                return False
        return q <= bound

    # (product, next position, open slots, tokens, free x0 seen)
    stack = [(1, 0, ((True, 0),), (), False)]
    while stack:
        q, i, slots, tokens, x0 = stack.pop()
        if not slots:
            if x0:
                yield q, tokens
            continue
        (is_formula, bound_vars), rest = slots[0], slots[1:]
        pi = p[i]
        if is_formula:
            f1, t1 = (True, bound_vars), (False, bound_vars)
            children = [
                (pi**NOT, (NOT,), (f1,)),
                (pi**IMP, (IMP,), (f1, f1)),
                (pi**EQ, (EQ,), (t1, t1)),
                (pi**DEM, (DEM,), (t1,)),
            ]
            v = 0
            while True:  # ALL, a variable token, then a body
                factor = pi**ALL * p[i + 1] ** (VAR_BASE + v)
                body = ((True, bound_vars | 1 << v),)
                if not fits(q * factor, i + 2, body + rest):
                    break
                children.append((factor, (ALL, VAR_BASE + v), body))
                v += 1
        else:
            t1 = (False, bound_vars)
            children = [
                (pi**SUB, (SUB,), (t1, t1)),
                (pi**DIAG, (DIAG,), (t1,)),
                (pi**ZERO, (ZERO,), ()),
                (pi**S, (S,), (t1,)),
            ]
            for v in range(max(1, bound_vars.bit_length())):
                if v == 0 or bound_vars >> v & 1:
                    children.append((pi ** (VAR_BASE + v), (VAR_BASE + v,), ()))
        for factor, toks, opened in children:
            q2, j, slots2 = q * factor, i + len(toks), opened + rest
            if fits(q2, j, slots2):
                seen = x0 or (toks == (VAR_BASE,) and not bound_vars & 1)
                stack.append((q2, j, slots2, tokens + toks, seen))


# The enumeration this process has scanned: (bound, entries), every unary
# formula with code <= bound as (code, formula), ascending.  One tuple, so
# that a reader never pairs a new bound with an old list.  Nodes are
# immutable, so the entries are shared by every answer read off them.
_table: tuple[int, list[tuple[int, F.Formula]]] = (0, [])


def unary_formulas_below(bound: int) -> list[tuple[int, F.Formula]]:
    """Sorted (code, formula) for every unary formula with code <= bound,
    as a new list.  A bound within the table's is read off it; a larger one
    is scanned once and replaces the table."""
    global _table
    if bound > _table[0]:
        found = sorted(_scan_unary(bound))
        _table = (bound, [(code, tokens_to_formula(list(tk))) for code, tk in found])
    entries = _table[1]
    return entries[:bisect.bisect_right(entries, bound, key=itemgetter(0))]


def count_unary_below(bound: int, stop: int | None = None) -> int:
    """How many unary formulas have code <= bound, or stop if that many or
    more do.  A bound within the table's is read off it; a larger one is
    counted as the scan streams, up to stop, and the table stays as it is."""
    have, entries = _table
    if bound <= have:
        n = bisect.bisect_right(entries, bound, key=itemgetter(0))
    else:
        n = sum(1 for _ in itertools.islice(_scan_unary(bound), stop))
    return n if stop is None else min(n, stop)


def formula_at(n: int, cache: "IndexTable | None" = None) -> F.Formula:
    """The n-th unary formula in ascending code order."""
    if n < 0:
        raise NotUnary("indices are naturals")
    if cache is not None:
        hit = cache.formula_at(n)
        if hit is not None:
            return hit
    bound = 10**12
    while True:
        entries = unary_formulas_below(bound)
        if len(entries) > n:
            if cache is not None:
                cache.record(entries)
            return entries[n][1]
        bound *= 10**8


def index_of(f: F.Formula, cache: "IndexTable | None" = None, stop: int | None = None) -> int:
    """Inverse of formula_at; errors unless free vars are exactly {x0}.
    With stop, the count stops there: an index of stop or more is stop."""
    if F.free_vars(f) != {0}:
        raise NotUnary(
            "free variable set is %s, need exactly {x0}" % sorted(F.free_vars(f))
        )
    code = encode_formula(f)
    if cache is not None:
        hit = cache.index_of(code)
        if hit is not None:
            return hit if stop is None else min(hit, stop)
    n = count_unary_below(code - 1, stop)
    if cache is not None and n != stop:
        cache.record_single(n, code, f)
    return n


def numeral_limit(psi: F.Formula) -> int:
    """The least m for which psi with the numeral of m for x0 is over
    MAX_TOKENS tokens, so that sub_num(index of psi, m) must raise
    ResourceBound: each of psi's k free x0 becomes m + 1 tokens, so the
    code has len(tokens) + k * m.  k counts free occurrences only, so the
    limit is exact when psi also binds x0, and under the symbolic route's
    refusal of an m over MAX_TOKENS."""
    n = len(formula_tokens(psi))
    k = len(formula_tokens(F.substitute(psi, 0, F.Num(1)))) - n
    return max(0, (MAX_TOKENS - n) // k + 1)


# --- numeric substitution functions ------------------------------------


def sub_num_rle(n: int, m: int, cache: "IndexTable | None" = None) -> CodeRLE:
    return _substitute_x0_numeral(formula_at(n, cache), m)


def sub_num(n: int, m: int, cache: "IndexTable | None" = None) -> int:
    """Code of the n-th unary formula with the numeral of m substituted."""
    return sub_num_rle(n, m, cache).to_int()


def diag_num_rle(g: int) -> CodeRLE:
    psi = decode_formula(g)
    if F.free_vars(psi) != {0}:
        raise NotUnary("decoded formula is not unary in x0")
    return _substitute_x0_numeral(psi, g)


def diag_num(g: int) -> int:
    """Code of psi(numeral of g) where psi is the decoding of g."""
    return diag_num_rle(g).to_int()


# --- persisted index table ---------------------------------------------


class IndexTable:
    """Line-based cache `<index> <code-hex> <printed formula>` with a
    checksum header; regenerable from scratch at any time.

    The checksum covers CODEC_VERSION and the body, so a table written
    under another token table fails it.  Entries keep the printed text; a
    formula is parsed only when looked up.
    """

    def __init__(self, path: str | None):
        self.path = path
        self.entries: dict[int, tuple[int, str]] = {}
        self.by_code: dict[int, int] = {}
        if path and os.path.exists(path):
            self._load()

    @property
    def by_index(self) -> dict[int, tuple[int, F.Formula]]:
        """Every entry as (code, formula), parsed on each access."""
        return {idx: (code, F.parse_formula(text)) for idx, (code, text) in self.entries.items()}

    @staticmethod
    def _digest(body: str) -> str:
        import hashlib  # only the index table needs it; keeps it off CLI start-up

        return hashlib.sha256(("%s\n%s" % (CODEC_VERSION, body)).encode()).hexdigest()

    def _load(self) -> None:
        with open(self.path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or not lines[0].startswith("# sha256:"):
            return  # stale or foreign file; rebuild lazily
        if self._digest("\n".join(lines[1:])) != lines[0][len("# sha256:"):]:
            return
        for line in lines[1:]:
            if not line.strip():
                continue
            idx_s, code_hex, text = line.split(" ", 2)
            idx, code = int(idx_s), int(code_hex, 16)
            self.entries[idx] = (code, text)
            self.by_code[code] = idx

    @property
    def contiguous(self) -> int:
        """How many indices from 0 on the table holds without a gap."""
        n = 0
        while n in self.entries:
            n += 1
        return n

    def save(self) -> None:
        """Write the table to a temporary file beside it, then rename it
        over the old one, so a reader never sees a partial table."""
        if not self.path:
            return
        body = "\n".join(
            "%d %x %s" % (idx, code, text) for idx, (code, text) in sorted(self.entries.items())
        )
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        tmp = "%s.%d.tmp" % (self.path, os.getpid())
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write("# sha256:%s\n%s\n" % (self._digest(body), body))
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def formula_at(self, n: int) -> F.Formula | None:
        if n in self.entries:
            return F.parse_formula(self.entries[n][1])
        return None

    def index_of(self, code: int) -> int | None:
        return self.by_code.get(code)

    def _add(self, idx: int, code: int, f: F.Formula) -> bool:
        """Store one entry; False when the table already has it."""
        if idx in self.entries and self.entries[idx][0] == code:
            return False
        self.entries[idx] = (code, F.print_formula(f))
        self.by_code[code] = idx
        return True

    def record(self, entries: list[tuple[int, F.Formula]]) -> None:
        added = [self._add(idx, code, f) for idx, (code, f) in enumerate(entries)]
        if any(added):
            self.save()

    def record_single(self, idx: int, code: int, f: F.Formula) -> None:
        if self._add(idx, code, f):
            self.save()


DEFAULT_CACHE_ENV = "GOEDEL_CACHE_DIR"


def default_cache_path(cache_dir: str | None = None) -> str | None:
    d = cache_dir or os.environ.get(DEFAULT_CACHE_ENV)
    if d is None:
        return None
    return os.path.join(d, "index-table.txt")
