"""Reference implementations the benchmark checks goedellab against.

Nothing here imports goedellab.  The coding follows the documented
scheme (a formula in Polish notation, coded as prod p_i^t_i with the
token table below); the modal and propositional parts follow the
textbook semantics.  Formulas are plain tuples:

  terms     ('var', i) ('nat', n) ('succ', t) ('sub', a, b) ('diag', a)
  formulas  ('not', f) ('imp', a, b) ('all', v, f) ('eq', a, b) ('dem', t)

('nat', n) is the numeral S^n(0); it prints as a successor chain up to
1000 and as a decimal literal above, as the README specifies.
"""

from __future__ import annotations

NOT, IMP, ALL, EQ, DEM, SUB, DIAG, ZERO, S = 1, 2, 3, 4, 5, 6, 7, 8, 9
VAR_BASE = 13
NUMERAL_CHAIN_LIMIT = 1000

# The oracle materializes codes of at most this many tokens; beyond it a
# documented ResourceBound is the expected answer.
MATERIALIZE_TOKENS = 200_000


# --- primes -------------------------------------------------------------


class Primes:
    """The first n primes by a doubling sieve of Eratosthenes."""

    def __init__(self):
        self.list = [2, 3, 5, 7, 11, 13]

    def first(self, n: int) -> list[int]:
        limit = 32
        while len(self.list) < n:
            limit *= 2
            sieve = bytearray([1]) * (limit + 1)
            sieve[0:2] = b"\x00\x00"
            for p in range(2, int(limit**0.5) + 1):
                if sieve[p]:
                    sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
            self.list = [i for i in range(limit + 1) if sieve[i]]
        return self.list


PRIMES = Primes()


# --- tokens and codes ---------------------------------------------------


def term_tokens(t, out: list[int]) -> None:
    stack = [t]
    while stack:
        t = stack.pop()
        tag = t[0]
        if tag == "var":
            out.append(VAR_BASE + t[1])
        elif tag == "nat":
            out.extend([S] * t[1])
            out.append(ZERO)
        elif tag == "succ":
            out.append(S)
            stack.append(t[1])
        elif tag == "diag":
            out.append(DIAG)
            stack.append(t[1])
        else:
            out.append(SUB)
            stack.append(t[2])
            stack.append(t[1])


def tokens(f) -> list[int]:
    out: list[int] = []
    stack = [f]
    while stack:
        f = stack.pop()
        tag = f[0]
        if tag == "not":
            out.append(NOT)
            stack.append(f[1])
        elif tag == "imp":
            out.append(IMP)
            stack.append(f[2])
            stack.append(f[1])
        elif tag == "all":
            out += [ALL, VAR_BASE + f[1]]
            stack.append(f[2])
        elif tag == "eq":
            out.append(EQ)
            term_tokens(f[1], out)
            term_tokens(f[2], out)
        else:
            out.append(DEM)
            term_tokens(f[1], out)
    return out


def _product(factors: list[int]) -> int:
    while len(factors) > 1:
        nxt = [factors[i] * factors[i + 1] for i in range(0, len(factors) - 1, 2)]
        if len(factors) % 2:
            nxt.append(factors[-1])
        factors = nxt
    return factors[0] if factors else 1


def encode_tokens(toks: list[int]) -> int:
    primes = PRIMES.first(len(toks))
    return _product([primes[i] ** t for i, t in enumerate(toks)])


def encode(f) -> int:
    return encode_tokens(tokens(f))


def decode_tokens(g: int) -> list[int] | None:
    """Exponent sequence of g over an initial segment of the primes, or
    None when g is not such a product (a gap, or g < 2)."""
    if g < 2:
        return None
    toks = []
    i = 0
    while g > 1:
        p = PRIMES.first(i + 1)[i]
        if g % p:
            return None
        e = 0
        # strip p^(2^k) blocks first, so long exponents cost few divisions
        powers = [p]
        while g % (powers[-1] * powers[-1]) == 0:
            powers.append(powers[-1] * powers[-1])
        for k in range(len(powers) - 1, -1, -1):
            if g % powers[k] == 0:
                g //= powers[k]
                e += 1 << k
        while g % p == 0:
            g //= p
            e += 1
        toks.append(e)
        i += 1
    return toks


def parse_tokens(toks: list[int]):
    """The formula a Polish token string spells, or None if it spells
    no formula exactly."""
    pos = 0
    n = len(toks)

    def need():
        nonlocal pos
        if pos >= n:
            raise ValueError
        pos += 1
        return toks[pos - 1]

    def term():
        nonlocal pos
        tok = need()
        if tok >= VAR_BASE:
            return ("var", tok - VAR_BASE)
        if tok == ZERO:
            return ("nat", 0)
        if tok == S:
            k = 1
            while pos < n and toks[pos] == S:
                k += 1
                pos += 1
            inner = term()
            if inner[0] == "nat":
                return ("nat", inner[1] + k)
            for _ in range(k):
                inner = ("succ", inner)
            return inner
        if tok == SUB:
            left = term()
            return ("sub", left, term())
        if tok == DIAG:
            return ("diag", term())
        raise ValueError

    def formula():
        tok = need()
        if tok == NOT:
            return ("not", formula())
        if tok == IMP:
            left = formula()
            return ("imp", left, formula())
        if tok == ALL:
            v = need()
            if v < VAR_BASE:
                raise ValueError
            return ("all", v - VAR_BASE, formula())
        if tok == EQ:
            left = term()
            return ("eq", left, term())
        if tok == DEM:
            return ("dem", term())
        raise ValueError

    try:
        f = formula()
    except (ValueError, RecursionError):
        return None
    return f if pos == n else None


def decode(g: int):
    toks = decode_tokens(g)
    return None if not toks else parse_tokens(toks)


# --- syntax helpers -----------------------------------------------------


def term_free(t) -> set[int]:
    out = set()
    stack = [t]
    while stack:
        t = stack.pop()
        if t[0] == "var":
            out.add(t[1])
        elif t[0] in ("succ", "diag"):
            stack.append(t[1])
        elif t[0] == "sub":
            stack += [t[1], t[2]]
    return out


def free_vars(f) -> set[int]:
    tag = f[0]
    if tag == "not":
        return free_vars(f[1])
    if tag == "imp":
        return free_vars(f[1]) | free_vars(f[2])
    if tag == "all":
        return free_vars(f[2]) - {f[1]}
    if tag == "eq":
        return term_free(f[1]) | term_free(f[2])
    return term_free(f[1])


def _subst_term(t, var, repl):
    tag = t[0]
    if tag == "var":
        return repl if t[1] == var else t
    if tag == "nat":
        return t
    if tag in ("succ", "diag"):
        inner = _subst_term(t[1], var, repl)
        if tag == "succ" and inner[0] == "nat":
            return ("nat", inner[1] + 1)
        return (tag, inner)
    return ("sub", _subst_term(t[1], var, repl), _subst_term(t[2], var, repl))


def substitute(f, var: int, repl):
    """Replace the free occurrences of x_var by the closed term repl."""
    tag = f[0]
    if tag == "not":
        return ("not", substitute(f[1], var, repl))
    if tag == "imp":
        return ("imp", substitute(f[1], var, repl), substitute(f[2], var, repl))
    if tag == "all":
        return f if f[1] == var else ("all", f[1], substitute(f[2], var, repl))
    if tag == "eq":
        return ("eq", _subst_term(f[1], var, repl), _subst_term(f[2], var, repl))
    return ("dem", _subst_term(f[1], var, repl))


def print_term(t) -> str:
    depth = 0
    while t[0] == "succ":
        depth += 1
        t = t[1]
    tag = t[0]
    if tag == "var":
        core = "x%d" % t[1]
    elif tag == "nat":
        if t[1] > NUMERAL_CHAIN_LIMIT:
            core = str(t[1])
        else:
            core = "S(" * t[1] + "0" + ")" * t[1]
    elif tag == "diag":
        core = "diag(%s)" % print_term(t[1])
    else:
        core = "sub(%s,%s)" % (print_term(t[1]), print_term(t[2]))
    return "S(" * depth + core + ")" * depth


def _extends_right(f) -> bool:
    while f[0] == "not":
        f = f[1]
    return f[0] == "all"


def print_formula(f) -> str:
    tag = f[0]
    if tag == "not":
        inner = print_formula(f[1])
        return "~(" + inner + ")" if f[1][0] == "eq" else "~" + inner
    if tag == "imp":
        left = print_formula(f[1])
        if _extends_right(f[1]):
            left = "(" + left + ")"
        return "(%s -> %s)" % (left, print_formula(f[2]))
    if tag == "all":
        return "forall x%d. %s" % (f[1], print_formula(f[2]))
    if tag == "eq":
        return "%s = %s" % (print_term(f[1]), print_term(f[2]))
    return "Dem(%s)" % print_term(f[1])


def from_program(obj):
    """Tuple form of a goedellab formula or term, read through its
    dataclass fields only (no library function is called)."""
    kind = type(obj).__name__
    if kind == "Succ":
        depth = 0
        while type(obj).__name__ == "Succ":
            depth += 1
            obj = obj.arg
        inner = from_program(obj)
        if inner[0] == "nat" and type(obj).__name__ == "Zero":
            return ("nat", depth)
        for _ in range(depth):
            inner = ("succ", inner)
        return inner
    if kind == "Var":
        return ("var", obj.index)
    if kind == "Zero":
        return ("nat", 0)
    if kind == "Num":
        return ("nat", obj.value)
    if kind == "Sub":
        return ("sub", from_program(obj.left), from_program(obj.right))
    if kind == "Diag":
        return ("diag", from_program(obj.arg))
    if kind == "Not":
        return ("not", from_program(obj.sub))
    if kind == "Implies":
        return ("imp", from_program(obj.left), from_program(obj.right))
    if kind == "ForAll":
        return ("all", obj.var, from_program(obj.body))
    if kind == "Eq":
        return ("eq", from_program(obj.left), from_program(obj.right))
    if kind == "Dem":
        return ("dem", from_program(obj.arg))
    raise TypeError("not a goedellab formula: %r" % (obj,))


def format_number(n: int) -> str:
    """The CLI's documented text form of a number."""
    if n < 1 << 64:
        return str(n)
    h = "%x" % n
    return "hex%d:%s" % (len(h), h)


# --- exhaustive enumeration of unary formulas ----------------------------


def unary_below(bound: int) -> list[tuple[int, tuple]]:
    """Every (code, formula) with code <= bound whose free variables are
    exactly {x0}, in ascending code order.

    Depth-first over Polish token strings.  A prefix is dropped once its
    product times the cheapest completion of its open slots exceeds the
    bound: a formula slot costs at least p^DEM q^ZERO, a term slot p^ZERO
    and a quantifier-variable slot p^VAR_BASE.
    """
    primes = PRIMES.first(64)
    found: list[tuple[int, list[int]]] = []

    def cheapest(slots: list[str], i: int) -> int:
        c = 1
        for s in reversed(slots):
            if s == "F":
                c *= primes[i] ** DEM * primes[i + 1] ** ZERO
                i += 2
            elif s == "T":
                c *= primes[i] ** ZERO
                i += 1
            else:
                c *= primes[i] ** VAR_BASE
                i += 1
        return c

    def dfs(slots: list[str], i: int, prod: int, toks: list[int]) -> None:
        if not slots:
            found.append((prod, list(toks)))
            return
        slot = slots.pop()
        p = primes[i]
        if slot == "F":
            options = [(NOT, ["F"]), (IMP, ["F", "F"]), (ALL, ["F", "V"]),
                       (EQ, ["T", "T"]), (DEM, ["T"])]
        elif slot == "T":
            options = [(SUB, ["T", "T"]), (DIAG, ["T"]), (ZERO, []), (S, ["T"])]
            v = 0
            while prod * p ** (VAR_BASE + v) <= bound:
                options.append((VAR_BASE + v, []))
                v += 1
        else:
            options = []
            v = 0
            while prod * p ** (VAR_BASE + v) <= bound:
                options.append((VAR_BASE + v, []))
                v += 1
        for tok, push in options:
            q = prod * p**tok
            rest = slots + push
            if q * cheapest(rest, i + 1) > bound:
                continue
            toks.append(tok)
            dfs(rest, i + 1, q, toks)
            toks.pop()
        slots.append(slot)

    dfs(["F"], 0, 1, [])
    out = []
    for code, toks in sorted(found):
        f = parse_tokens(toks)
        if f is not None and free_vars(f) == {0}:
            out.append((code, f))
    return out


# --- modal logic ----------------------------------------------------------
#
# ('atom', name) ('not', f) ('imp', a, b) ('and', a, b) ('or', a, b)
# ('iff', a, b) ('box', f) ('dia', f)


def modal_text(f) -> str:
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag == "not":
        return "~" + modal_text(f[1])
    if tag == "box":
        return "[]" + modal_text(f[1])
    if tag == "dia":
        return "<>" + modal_text(f[1])
    op = {"imp": "->", "and": "&", "or": "|", "iff": "<->"}[tag]
    return "(%s %s %s)" % (modal_text(f[1]), op, modal_text(f[2]))


def modal_depth(f) -> int:
    tag = f[0]
    if tag == "atom":
        return 0
    if tag == "not":
        return modal_depth(f[1])
    if tag in ("box", "dia"):
        return 1 + modal_depth(f[1])
    return max(modal_depth(f[1]), modal_depth(f[2]))


class Kripke:
    """A finite model: succ[w] is the set of R-successors of world w."""

    def __init__(self, worlds: int, succ: list[set[int]], valuation: dict[str, set[int]]):
        self.worlds = worlds
        self.succ = succ
        self.valuation = valuation

    @classmethod
    def from_program(cls, model) -> "Kripke":
        """Read a goedellab KripkeModel through its fields."""
        succ = [set() for _ in range(model.worlds)]
        for a, b in model.relation:
            succ[a].add(b)
        return cls(model.worlds, succ, {a: set(ws) for a, ws in model.valuation})

    def transitive(self) -> bool:
        return all(self.succ[v] <= self.succ[w] for w in range(self.worlds) for v in self.succ[w])

    def irreflexive(self) -> bool:
        return all(w not in self.succ[w] for w in range(self.worlds))

    def frame_ok(self, logic: str) -> bool:
        if logic == "K":
            return True
        if logic == "K4":
            return self.transitive()
        return self.transitive() and self.irreflexive()

    def extension(self, f) -> frozenset[int]:
        """The set of worlds forcing f, computed bottom-up once per
        subformula."""
        memo: dict = {}
        everything = frozenset(range(self.worlds))

        def ext(g):
            if g in memo:
                return memo[g]
            tag = g[0]
            if tag == "atom":
                r = frozenset(self.valuation.get(g[1], ()))
            elif tag == "not":
                r = everything - ext(g[1])
            elif tag == "imp":
                r = (everything - ext(g[1])) | ext(g[2])
            elif tag == "and":
                r = ext(g[1]) & ext(g[2])
            elif tag == "or":
                r = ext(g[1]) | ext(g[2])
            elif tag == "iff":
                a, b = ext(g[1]), ext(g[2])
                r = (a & b) | (everything - a - b)
            elif tag == "box":
                inner = ext(g[1])
                r = frozenset(w for w in everything if self.succ[w] <= inner)
            else:
                inner = ext(g[1])
                r = frozenset(w for w in everything if self.succ[w] & inner)
            memo[g] = r
            return r

        return ext(f)


def box_atoms_satisfiable(f) -> bool:
    """Truth table over f's atoms and modal subformulas taken as opaque
    propositions (a diamond is the negation of a box of the negation)."""

    def norm(g):
        tag = g[0]
        if tag == "dia":
            return ("not", ("box", ("not", norm(g[1]))))
        if tag == "box":
            return ("box", norm(g[1]))
        if tag == "not":
            return ("not", norm(g[1]))
        if tag == "atom":
            return g
        return (tag, norm(g[1]), norm(g[2]))

    g = norm(f)
    keys: list = []

    def scan(h):
        if h[0] in ("atom", "box"):
            if h not in keys:
                keys.append(h)
        elif h[0] == "not":
            scan(h[1])
        else:
            scan(h[1])
            scan(h[2])

    scan(g)

    def ev(h, row):
        tag = h[0]
        if tag in ("atom", "box"):
            return row >> keys.index(h) & 1 == 1
        if tag == "not":
            return not ev(h[1], row)
        a, b = ev(h[1], row), ev(h[2], row)
        return {"imp": (not a) or b, "and": a and b, "or": a or b, "iff": a == b}[tag]

    return any(ev(g, row) for row in range(1 << len(keys)))


# --- propositional meta-formulas -----------------------------------------
#
# ('assert', d) ('dem', d) ('not', f) ('imp', a, b) ('iff', a, b)
# designators: ('app', i, j) ('ine', j) ('negd', d), index terms ints or 'q'


def meta_text(f) -> str:
    tag = f[0]
    if tag == "assert":
        return desig_text(f[1])
    if tag == "dem":
        return "Dem[%s]" % desig_text(f[1])
    if tag == "not":
        return "~" + meta_text(f[1])
    op = "->" if tag == "imp" else "<->"
    return "(%s %s %s)" % (meta_text(f[1]), op, meta_text(f[2]))


def desig_text(d) -> str:
    if d[0] == "app":
        return "App(%s,%s)" % (d[1], d[2])
    if d[0] == "ine":
        return "InE(%s)" % d[1]
    return "~" + desig_text(d[1])


def _norm_desig(d):
    """InE(t) is App(q, t) by definition; double designator negation
    cancels."""
    neg = False
    while d[0] == "negd":
        neg = not neg
        d = d[1]
    if d[0] == "ine":
        d = ("app", "q", d[1])
    return ("negd", d) if neg else d


def _literal(f, negated: bool):
    """Atom key and polarity.  As documented in goedellab.meta, a negated
    assertion is the assertion of the negated designator, and atoms over
    distinct designators are independent propositions."""
    d = _norm_desig(f[1])
    if f[0] == "assert" and negated:
        return ("assert", _norm_desig(("negd", d))), False
    return (f[0], d), negated


def meta_eval(f, row: dict) -> bool:
    negated = False
    while f[0] == "not":
        negated = not negated
        f = f[1]
    if f[0] in ("assert", "dem"):
        key, neg = _literal(f, negated)
        return row[key] != neg
    a, b = meta_eval(f[1], row), meta_eval(f[2], row)
    v = ((not a) or b) if f[0] == "imp" else a == b
    return v != negated


def meta_atoms(f, acc: set) -> None:
    negated = False
    while f[0] == "not":
        negated = not negated
        f = f[1]
    if f[0] in ("assert", "dem"):
        acc.add(_literal(f, negated)[0])
    else:
        meta_atoms(f[1], acc)
        meta_atoms(f[2], acc)


def meta_rows(formulas):
    acc: set = set()
    for f in formulas:
        meta_atoms(f, acc)
    keys = sorted(acc, key=repr)
    for bits in range(1 << len(keys)):
        yield {k: bool(bits >> i & 1) for i, k in enumerate(keys)}


def meta_satisfiable(formulas) -> bool:
    return any(all(meta_eval(f, row) for f in formulas) for row in meta_rows(formulas))


def meta_consequence(premises, conclusion) -> bool:
    return all(
        meta_eval(conclusion, row)
        for row in meta_rows(list(premises) + [conclusion])
        if all(meta_eval(p, row) for p in premises)
    )
