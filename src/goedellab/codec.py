"""Bit-exact arithmetization.

A formula is coded by writing it as a Polish (prefix) token string
t_1..t_k and forming prod p_i^{t_i} over the first k primes.  Token
codes are >= 1, so a gap in the prime-exponent sequence is detectable
and decoding is exact.  The enumeration of one-free-variable formulas
orders them by ascending code.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

from . import formulas as F
from .errors import NotUnary, NotWellFormed, ResourceBound

# --- token table -------------------------------------------------------

NOT, IMP, ALL, EQ, DEM, SUB, DIAG, ZERO, S = 1, 2, 3, 4, 5, 6, 7, 8, 9
VAR_BASE = 13  # x_i -> 13 + i; 10..12 reserved (parens/comma, never emitted)
RESERVED = {10, 11, 12}

# Materialization guard for codes built from substituted numerals.
MAX_TOKENS = 200_000

# --- primes ------------------------------------------------------------

_primes = [2, 3, 5, 7, 11, 13]


def _ensure_primes(k: int) -> None:
    """Grow the global prime list to at least k entries."""
    while len(_primes) < k:
        n = _primes[-1] + 2
        while True:
            composite = False
            for p in _primes:
                if p * p > n:
                    break
                if n % p == 0:
                    composite = True
                    break
            if not composite:
                _primes.append(n)
                break
            n += 2


def nth_prime(i: int) -> int:
    """0-based."""
    _ensure_primes(i + 1)
    return _primes[i]


# --- tokenization ------------------------------------------------------


def term_tokens(t: F.Term, out: list[int]) -> None:
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, F.Var):
            out.append(VAR_BASE + t.index)
        elif isinstance(t, F.Zero):
            out.append(ZERO)
        elif isinstance(t, F.Num):
            if t.value > MAX_TOKENS:
                raise ResourceBound(
                    "numeral literal %d too large to tokenize" % t.value
                )
            out.extend([S] * t.value)
            out.append(ZERO)
        elif isinstance(t, F.Succ):
            n = 0
            while isinstance(t, F.Succ):
                n += 1
                t = t.arg
            out.extend([S] * n)
            stack.append(t)
        elif isinstance(t, F.Diag):
            out.append(DIAG)
            stack.append(t.arg)
        else:
            out.append(SUB)
            stack.append(t.right)
            stack.append(t.left)


def formula_tokens(f: F.Formula) -> list[int]:
    out: list[int] = []
    stack: list = [f]
    while stack:
        x = stack.pop()
        if isinstance(x, F.Not):
            out.append(NOT)
            stack.append(x.sub)
        elif isinstance(x, F.Implies):
            out.append(IMP)
            stack.append(x.right)
            stack.append(x.left)
        elif isinstance(x, F.ForAll):
            out.append(ALL)
            out.append(VAR_BASE + x.var)
            stack.append(x.body)
        elif isinstance(x, F.Eq):
            out.append(EQ)
            term_tokens(x.left, out)
            term_tokens(x.right, out)
        else:
            out.append(DEM)
            term_tokens(x.arg, out)
    return out


def tokens_to_formula(tokens: list[int]) -> F.Formula:
    """Parse a Polish token string as exactly one formula."""
    pos = 0

    def need(kind: str) -> int:
        nonlocal pos
        if pos >= len(tokens):
            raise NotWellFormed("token string ends inside a %s" % kind)
        tok = tokens[pos]
        pos += 1
        if tok in RESERVED or tok <= 0:
            raise NotWellFormed("reserved or invalid token code %d" % tok)
        return tok

    def formula() -> F.Formula:
        tok = need("formula")
        if tok == NOT:
            return F.Not(formula())
        if tok == IMP:
            left = formula()
            return F.Implies(left, formula())
        if tok == ALL:
            var = need("quantifier variable")
            if var < VAR_BASE:
                raise NotWellFormed("quantifier not followed by a variable token")
            return F.ForAll(var - VAR_BASE, formula())
        if tok == EQ:
            left = term()
            return F.Eq(left, term())
        if tok == DEM:
            return F.Dem(term())
        raise NotWellFormed("token %d cannot start a formula" % tok)

    def term() -> F.Term:
        tok = need("term")
        if tok >= VAR_BASE:
            return F.Var(tok - VAR_BASE)
        if tok == ZERO:
            return F.ZERO
        if tok == S:
            n = 1
            nonlocal pos
            while pos < len(tokens) and tokens[pos] == S:
                n += 1
                pos += 1
            inner = term()
            # canonical form: long successor chains over zero collapse to
            # the compact literal, mirroring the parser's convention
            if inner == F.ZERO and n > F.NUMERAL_CHAIN_LIMIT:
                return F.Num(n)
            for _ in range(n):
                inner = F.Succ(inner)
            return inner
        if tok == SUB:
            left = term()
            return F.Sub(left, term())
        if tok == DIAG:
            return F.Diag(term())
        raise NotWellFormed("token %d cannot start a term" % tok)

    f = formula()
    if pos != len(tokens):
        raise NotWellFormed("trailing tokens after a complete formula")
    return f


# --- encode / decode ---------------------------------------------------


def encode_tokens(tokens: list[int]) -> int:
    _ensure_primes(len(tokens))
    g = 1
    for i, tok in enumerate(tokens):
        g *= _primes[i] ** tok
    return g


def encode_formula(f: F.Formula) -> int:
    return encode_tokens(formula_tokens(f))


def decode_tokens(g: int) -> list[int]:
    if g < 1:
        raise NotWellFormed("Goedel numbers are naturals >= 1")
    tokens = []
    i = 0
    while g > 1:
        p = nth_prime(i)
        e = 0
        while g % p == 0:
            g //= p
            e += 1
        if e == 0:
            raise NotWellFormed(
                "exponent gap at prime %d (not a contiguous token string)" % p
            )
        tokens.append(e)
        i += 1
    return tokens


def decode_formula(g: int) -> F.Formula:
    tokens = decode_tokens(g)
    if not tokens:
        raise NotWellFormed("empty sequence")
    return tokens_to_formula(tokens)


@dataclass(frozen=True)
class ProofCode:
    """Exact factored form of a proof's Goedel number, prod p_i^{g_i}.

    The exponents are whole formula codes, so the materialized integer is
    astronomically large for all but toy proofs; it stays factored here.
    """

    factors: tuple[tuple[int, int], ...]  # (prime, formula code), in step order

    def formula_codes(self) -> list[int]:
        return [g for (_, g) in self.factors]

    def to_int(self, max_bits: int = 10_000_000) -> int:
        bits = sum(g * p.bit_length() for (p, g) in self.factors)
        if bits > max_bits:
            raise ResourceBound(
                "proof code needs about %d bits; raise max_bits to materialize"
                % bits
            )
        g = 1
        for p, e in self.factors:
            g *= p**e
        return g


def encode_proof(step_formulas: list[F.Formula]) -> ProofCode:
    if not step_formulas:
        raise NotWellFormed("proofs are nonempty")
    _ensure_primes(len(step_formulas))
    return ProofCode(
        tuple(
            (_primes[i], encode_formula(f)) for i, f in enumerate(step_formulas)
        )
    )


def decode_proof(code: ProofCode) -> list[F.Formula]:
    return [decode_formula(g) for g in code.formula_codes()]


# --- run-length token codes (for substituted-numeral blowup) -----------


@dataclass(frozen=True)
class CodeRLE:
    """A Goedel number given by its run-length encoded token string.

    Exact and comparable even when the token string (hence the integer)
    is astronomically long, as happens when a numeral as large as a
    formula's own code is substituted into it.
    """

    runs: tuple[tuple[int, int], ...]  # (token, repeat count)

    @staticmethod
    def from_tokens(tokens: list[int]) -> "CodeRLE":
        runs: list[list[int]] = []
        for tok in tokens:
            if runs and runs[-1][0] == tok:
                runs[-1][1] += 1
            else:
                runs.append([tok, 1])
        return CodeRLE(tuple((t, c) for t, c in runs))

    def token_count(self) -> int:
        return sum(c for (_, c) in self.runs)

    def to_int(self, max_tokens: int = MAX_TOKENS) -> int:
        n = self.token_count()
        if n > max_tokens:
            raise ResourceBound(
                "code has %d tokens; raise max_tokens to materialize" % n
            )
        _ensure_primes(n)
        g = 1
        i = 0
        for tok, count in self.runs:
            for _ in range(count):
                g *= _primes[i] ** tok
                i += 1
        return g


def _substitute_x0_numeral(psi: F.Formula, m: int) -> CodeRLE:
    """Run-length code of psi with the numeral of m for every free x0."""
    tokens = formula_tokens(psi)
    if any(a == ALL and b == VAR_BASE for a, b in zip(tokens, tokens[1:])):
        # psi also binds x0 somewhere, which needs scope-aware substitution
        if m > MAX_TOKENS:
            raise ResourceBound("numeral of %d too large for symbolic route" % m)
        return CodeRLE.from_tokens(formula_tokens(F.substitute(psi, 0, F.numeral(m))))
    runs: list[tuple[int, int]] = []

    def push(tok: int, count: int = 1) -> None:
        if runs and runs[-1][0] == tok:
            runs[-1] = (tok, runs[-1][1] + count)
        else:
            runs.append((tok, count))

    for tok in tokens:
        if tok == VAR_BASE:
            if m:
                push(S, m)
            push(ZERO)
        else:
            push(tok)
    return CodeRLE(tuple(runs))


# --- enumeration of unary formulas -------------------------------------


def _scan_unary(bound: int):
    """All (code, tokens) with code <= bound, formula unary in x0 exactly.

    Depth-first search over grammar-valid Polish prefixes; a prefix is
    abandoned as soon as its partial prime product exceeds the bound.
    """
    # enough primes that the primorial exceeds the bound
    k, prod = 1, 2
    while prod <= bound:
        k += 1
        prod *= nth_prime(k - 1)
    _ensure_primes(k + 2)
    primes = _primes
    n = k + 1

    def gen_formula(i, prod):
        # yields (next position, product, free-variable mask, tokens)
        if i >= n:
            return
        p = primes[i]
        q = prod * p  # NOT
        if q <= bound:
            for (j, pr, fv, tk) in gen_formula(i + 1, q):
                yield (j, pr, fv, (NOT,) + tk)
        q = prod * p * p  # IMP
        if q <= bound:
            for (j1, pr1, fv1, tk1) in gen_formula(i + 1, q):
                for (j2, pr2, fv2, tk2) in gen_formula(j1, pr1):
                    yield (j2, pr2, fv1 | fv2, (IMP,) + tk1 + tk2)
        q = prod * p**ALL  # ALL, then a variable token, then a body
        if q <= bound and i + 1 < n:
            p2 = primes[i + 1]
            v = 0
            while True:
                q2 = q * p2 ** (VAR_BASE + v)
                if q2 > bound:
                    break
                for (j, pr, fv, tk) in gen_formula(i + 2, q2):
                    yield (j, pr, fv & ~(1 << v), (ALL, VAR_BASE + v) + tk)
                v += 1
        q = prod * p**EQ
        if q <= bound:
            for (j1, pr1, fv1, tk1) in gen_term(i + 1, q):
                for (j2, pr2, fv2, tk2) in gen_term(j1, pr1):
                    yield (j2, pr2, fv1 | fv2, (EQ,) + tk1 + tk2)
        q = prod * p**DEM
        if q <= bound:
            for (j, pr, fv, tk) in gen_term(i + 1, q):
                yield (j, pr, fv, (DEM,) + tk)

    def gen_term(i, prod):
        if i >= n:
            return
        p = primes[i]
        q = prod * p**SUB
        if q <= bound:
            for (j1, pr1, fv1, tk1) in gen_term(i + 1, q):
                for (j2, pr2, fv2, tk2) in gen_term(j1, pr1):
                    yield (j2, pr2, fv1 | fv2, (SUB,) + tk1 + tk2)
        q = prod * p**DIAG
        if q <= bound:
            for (j, pr, fv, tk) in gen_term(i + 1, q):
                yield (j, pr, fv, (DIAG,) + tk)
        q = prod * p**ZERO
        if q <= bound:
            yield (i + 1, q, 0, (ZERO,))
        q = prod * p**S
        if q <= bound:
            for (j, pr, fv, tk) in gen_term(i + 1, q):
                yield (j, pr, fv, (S,) + tk)
        v = 0
        while True:
            q = prod * p ** (VAR_BASE + v)
            if q > bound:
                break
            yield (i + 1, q, 1 << v, (VAR_BASE + v,))
            v += 1

    for (_, pr, fv, tk) in gen_formula(0, 1):
        if fv == 1:
            yield (pr, tk)


def unary_formulas_below(bound: int) -> list[tuple[int, F.Formula]]:
    """Sorted (code, formula) for every unary formula with code <= bound."""
    found = sorted(_scan_unary(bound))
    return [(code, tokens_to_formula(list(tk))) for code, tk in found]


def count_unary_below(bound: int) -> int:
    return sum(1 for _ in _scan_unary(bound))


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


def index_of(f: F.Formula, cache: "IndexTable | None" = None) -> int:
    """Inverse of formula_at; errors unless free vars are exactly {x0}."""
    if F.free_vars(f) != {0}:
        raise NotUnary(
            "free variable set is %s, need exactly {x0}" % sorted(F.free_vars(f))
        )
    code = encode_formula(f)
    if cache is not None:
        hit = cache.index_of(code)
        if hit is not None:
            return hit
    n = count_unary_below(code - 1)
    if cache is not None:
        cache.record_single(n, code, f)
    return n


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
    checksum header; regenerable from scratch at any time."""

    def __init__(self, path: str | None):
        self.path = path
        self.by_index: dict[int, tuple[int, F.Formula]] = {}
        self.by_code: dict[int, int] = {}
        # indices 0..contiguous-1 are known to be the full ascending prefix
        self.contiguous = 0
        if path and os.path.exists(path):
            self._load()

    def _load(self) -> None:
        with open(self.path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or not lines[0].startswith("# sha256:"):
            return  # stale or foreign file; rebuild lazily
        body = "\n".join(lines[1:])
        if hashlib.sha256(body.encode()).hexdigest() != lines[0][len("# sha256:"):]:
            return
        for line in lines[1:]:
            if not line.strip():
                continue
            idx_s, code_hex, text = line.split(" ", 2)
            idx, code = int(idx_s), int(code_hex, 16)
            self.by_index[idx] = (code, F.parse_formula(text))
            self.by_code[code] = idx
        self._recompute_contiguous()

    def _recompute_contiguous(self) -> None:
        n = 0
        while n in self.by_index:
            n += 1
        self.contiguous = n

    def save(self) -> None:
        if not self.path:
            return
        lines = [
            "%d %x %s" % (idx, code, F.print_formula(f))
            for idx, (code, f) in sorted(self.by_index.items())
        ]
        body = "\n".join(lines)
        digest = hashlib.sha256(body.encode()).hexdigest()
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write("# sha256:%s\n%s\n" % (digest, body))

    def formula_at(self, n: int) -> F.Formula | None:
        if n in self.by_index:
            return self.by_index[n][1]
        return None

    def index_of(self, code: int) -> int | None:
        if code in self.by_code:
            return self.by_code[code]
        # every cached code in the contiguous prefix exceeding this code
        # proves absence only within the prefix; stay conservative
        return None

    def record(self, entries: list[tuple[int, F.Formula]]) -> None:
        for idx, (code, f) in enumerate(entries):
            self.by_index[idx] = (code, f)
            self.by_code[code] = idx
        self._recompute_contiguous()
        self.save()

    def record_single(self, idx: int, code: int, f: F.Formula) -> None:
        self.by_index[idx] = (code, f)
        self.by_code[code] = idx
        self._recompute_contiguous()
        self.save()


DEFAULT_CACHE_ENV = "GOEDEL_CACHE_DIR"


def default_cache_path(cache_dir: str | None = None) -> str | None:
    d = cache_dir or os.environ.get(DEFAULT_CACHE_ENV)
    if d is None:
        return None
    return os.path.join(d, "index-table.txt")
