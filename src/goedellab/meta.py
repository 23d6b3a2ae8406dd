"""Schema language over proposition designators with a Dem modality.

Designators name object-level propositions abstractly: App(i, j) is the
proposition obtained by feeding index j to the i-th unary formula,
InE(j) says j lies in the diagonal-unprovability set E, and q is the
distinguished symbolic index of E's membership formula, so InE(t) and
App(q, t) designate the same proposition.

Dem[...] wraps a designator as a provability statement; a bare
designator asserts the designated proposition itself.  Negation on an
asserted designator and negation of the assertion are identified
(classical meta-logic), and construction picks the designator-side form:
`MNot` and `NegD` fold as they are built, so every meta formula, however
it was parsed or rebuilt, has no double negation and no negated assertion.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import and_

from .errors import ResourceBound
from .syntax import Cursor, Node, extends_right, print_node, truth_columns, walk

# --- index terms -------------------------------------------------------


class MetaVar(Node):
    __slots__ = _fields = ("name",)
    _data = ("name",)


class Const(Node):
    __slots__ = _fields = ("value",)  # a natural, or the symbolic index "q"
    _data = ("value",)


IndexTerm = MetaVar | Const

Q = Const("q")

# --- designators -------------------------------------------------------


class App(Node):
    __slots__ = _fields = ("func", "arg")

    def _show(self, parts, stack):
        # by hand, as `formulas.Num`'s: every atom's key prints a
        # designator, and from `_pieces` the meta ops ran about 5% slower
        f, a = self.func, self.arg
        parts.append("App(%s,%s)" % (f.name if type(f) is MetaVar else f.value,
                                     a.name if type(a) is MetaVar else a.value))


class InE(Node):
    __slots__ = _fields = ("arg",)

    def _show(self, parts, stack):
        a = self.arg
        parts.append("InE(%s)" % (a.name if type(a) is MetaVar else a.value))


class NegD(Node):
    """The negation ~d of a designator.  A double negation folds as it is
    built: NegD(NegD(d)) is d, so the operand of a NegD is never a NegD."""

    __slots__ = _fields = ("sub",)
    _pieces = ("~", 0)

    def __new__(cls, sub):
        if isinstance(sub, NegD):
            return sub.sub
        return super().__new__(cls)


class DVar(Node):
    """Designator hole in a schema (written d*)."""

    __slots__ = _fields = ("name",)
    _data = ("name",)
    _pieces = (0,)


Designator = App | InE | NegD | DVar

# --- meta formulas -----------------------------------------------------


class Assert(Node):
    __slots__ = _fields = ("desig",)
    _pieces = (0,)


class DemOf(Node):
    __slots__ = _fields = ("desig",)
    _pieces = ("Dem[", 0, "]")


class MNot(Node):
    """The negation of a meta formula, folded as it is built: MNot(MNot(phi))
    is phi, and MNot(Assert(d)) is Assert(NegD(d)).  So MNot is an
    involution, and its operand is never an MNot or an Assert."""

    __slots__ = _fields = ("sub",)
    _prefix = True
    _pieces = ("~", 0)

    def __new__(cls, sub):
        if isinstance(sub, MNot):
            return sub.sub
        if isinstance(sub, Assert):
            return Assert(NegD(sub.desig))
        return super().__new__(cls)


class MImplies(Node):
    __slots__ = _fields = ("left", "right")
    _pieces = ("(", (0, extends_right), " -> ", 1, ")")


class MIff(Node):
    __slots__ = _fields = ("left", "right")
    _pieces = ("(", (0, extends_right), " <-> ", 1, ")")


class ForAllIndex(Node):
    __slots__ = _fields = ("var", "body")
    _data = ("var",)
    _quantifier = True
    _pieces = ("all ", 0, ". ", 1)


MetaFormula = Assert | DemOf | MNot | MImplies | MIff | ForAllIndex
print_meta = print_desig = print_node


# --- structural helpers ------------------------------------------------


def desig_metavars(d: Designator) -> set[str]:
    return {t.name for t in walk(d) if isinstance(t, MetaVar)}


def free_metavars(phi: MetaFormula) -> set[str]:
    free, stack = set(), [(phi, frozenset())]  # (formula, the names bound around it)
    while stack:
        x, bound = stack.pop()
        if isinstance(x, (Assert, DemOf)):
            free |= desig_metavars(x.desig) - bound
        elif isinstance(x, ForAllIndex):
            stack.append((x.body, bound | {x.var}))
        else:
            stack += ((getattr(x, f), bound) for f in x._children)
    return free


def has_dvar(x) -> bool:
    return any(isinstance(d, DVar) for d in walk(x))


def is_ground(phi: MetaFormula) -> bool:
    """Whether phi has no free metavariable and no `DVar`.  One walk on an
    explicit stack of (node, the names bound around it), which stops at
    the first of either."""
    stack = [(phi, frozenset())]
    while stack:
        x, bound = stack.pop()
        t = type(x)
        if t is MetaVar:
            if x.name not in bound:
                return False
        elif t is DVar:
            return False
        elif t is ForAllIndex:
            stack.append((x.body, bound | {x.var}))
        elif t is not Const:
            stack += [(getattr(x, f), bound) for f in x._children]
    return True


def map_atoms(phi: MetaFormula, fn, bound: str | None) -> MetaFormula:
    """Rebuild phi with the innermost designator of every atom passed
    through fn.  A quantifier over the index variable `bound` (None for
    none) keeps its body as it is.  On an explicit stack, a connective or
    quantifier x lies as (x,) under its operands; when (x,) pops, their
    values are on top of `values`, and x is rebuilt from them."""
    values, stack = [], [phi]
    while stack:
        x = stack.pop()
        t = type(x)
        if t is Assert or t is DemOf:
            d = x.desig  # the operand of a NegD is never a NegD
            values.append(t(NegD(fn(d.sub)) if type(d) is NegD else fn(d)))
        elif t is tuple:
            x = x[0]
            t = type(x)
            if t is MNot:
                values[-1] = MNot(values[-1])
            elif t is ForAllIndex:
                values[-1] = ForAllIndex(x.var, values[-1])
            else:
                right = values.pop()
                values[-1] = t(values[-1], right)
        elif t is MImplies or t is MIff:
            stack += ((x,), x.right, x.left)
        elif t is MNot:
            stack += ((x,), x.sub)
        elif x.var != bound:
            stack += ((x,), x.body)
        else:
            values.append(x)
    return values[0]


def subst_index(phi: MetaFormula, name: str, value: Const) -> MetaFormula:
    def on_term(t: IndexTerm) -> IndexTerm:
        return value if isinstance(t, MetaVar) and t.name == name else t

    def on_leaf(d: Designator) -> Designator:
        if isinstance(d, App):
            return App(on_term(d.func), on_term(d.arg))
        if isinstance(d, InE):
            return InE(on_term(d.arg))
        return d

    return map_atoms(phi, on_leaf, name)


def _expand_leaf(d: Designator) -> Designator:
    return App(Q, d.arg) if isinstance(d, InE) else d


def expand_ine(phi: MetaFormula) -> MetaFormula:
    """Definitional rewrite: InE(t) and App(q, t) designate the same
    proposition; expand to the App form."""
    return map_atoms(phi, _expand_leaf, None)


def canonical_text(phi: MetaFormula) -> str:
    """The text of `expand_ine(phi)`, without the rebuild: the printed text
    with each InE(t) written App(q,t).  This is exact because `InE(` is
    printed only as that designator: every other `(` opens `App(` or an
    implication or equivalence, whose `(` follows the start of the text,
    `~`, a space or another `(`."""
    return print_meta(phi).replace("InE(", "App(q,")


# --- parsing -----------------------------------------------------------

# an index term inside a designator scanned as one token: a numeral that
# int() converts at once, or an index variable (q has a variable's shape)
_ITERM = r"(?:[0-9]{1,18}|[a-z][A-Za-z0-9_]*)"


def _is_index_var(tok: str) -> bool:
    # the lexeme makes a word [A-Za-z_][A-Za-z0-9_]* and an optional `*`,
    # so this is [a-z][A-Za-z0-9_]* on the tokens of `_MetaParser`
    return "a" <= tok[0] <= "z" and tok[-1] != "*"


@lru_cache(maxsize=4096)
def _designator(tok: str) -> Designator:
    """The designator of a designator token.  Nodes are immutable, so the
    texts that repeat a designator can share its node."""
    terms = [Q if t == "q" else Const(int(t)) if t[0] <= "9" else MetaVar(t)
             for t in tok[4:-1].split(",")]
    return App(*terms) if tok[0] == "A" else InE(*terms)


class _MetaParser(Cursor):
    # the meta lexer has no `&` or `|` token.  A designator App(i,j) or
    # InE(j) written as printed, over short index terms, is one token; any
    # other, spaced or malformed, is read from its words and punctuation
    lexeme = (r"[~().,\[\]]|(?:App\(%s,|InE\()%s\)|<->|->|[0-9]+|[A-Za-z_][A-Za-z0-9_]*\*?"
              % (_ITERM, _ITERM))
    neg, imp, iff = MNot, MImplies, MIff

    def shown(self, tok: str) -> str:
        # a designator token is named by its first word
        return tok[:3] if tok[3:4] == "(" else tok

    def atom(self) -> MetaFormula:
        tokens = self.tokens
        i = self.i
        tok = tokens[i]
        if tok == "Dem":
            if tokens[i + 1] != "[":
                self.i = i + 1
                self.expect("[")
            self.i = i + 2
            d = self.desig()
            if tokens[self.i] != "]":
                self.expect("]")
            self.i += 1
            return DemOf(d)
        if tok == "all":
            name = tokens[i + 1]
            if not _is_index_var(name):
                self.fail("expected an index variable, got %r" % self.shown(name), i + 1)
            self.i = i + 2
            self.expect(".")
            return ForAllIndex(name, self.formula())
        return Assert(self.desig())

    def desig(self) -> Designator:
        i = self.i
        tok = self.tokens[i]
        self.i = i + 1
        if tok[3:4] == "(":  # App(i,j) or InE(j), one token
            return _designator(tok)
        if tok == "~":
            return NegD(self.desig())
        if tok == "App":
            self.expect("(")
            func = self.iterm()
            self.expect(",")
            arg = self.iterm()
            self.expect(")")
            return App(func, arg)
        if tok == "InE":
            self.expect("(")
            arg = self.iterm()
            self.expect(")")
            return InE(arg)
        if tok.endswith("*"):
            return DVar(tok)
        self.fail("expected a designator, found %r" % tok, i)

    def iterm(self) -> IndexTerm:
        i = self.i
        tok = self.tokens[i]
        self.i = i + 1
        if tok == "q":
            return Q
        if tok.isdigit():
            return Const(self.number(tok, i))
        if _is_index_var(tok):
            return MetaVar(tok)
        self.fail("expected an index term, found %r" % self.shown(tok), i)


def parse_meta(text: str) -> MetaFormula:
    p = _MetaParser(text)
    return p.parse(p.formula)


def parse_desig(text: str) -> Designator:
    p = _MetaParser(text)
    return p.parse(p.desig)


# --- propositional engine over modal atoms -----------------------------

MAX_ATOMS = 14


def _truth_rows(formulas: list[MetaFormula]) -> tuple[int, list[int]]:
    """(full, one int per formula whose bit r says it holds in row r of
    the truth table over the formulas' atoms, sorted by key), each
    formula's quantifier prefix stripped.  An atom is an Assert, a DemOf,
    or a quantified formula under a connective, which is opaque: its
    body's atoms are not counted.  Its key is its `canonical_text`, which
    writes InE(t) as App(q,t), the same proposition; distinct atoms are
    independent: no theory of provability is baked in here.

    Each formula is walked once into a program of atom keys and
    connectives, node before operands, right operand first: read
    backwards, it is the formula in postfix, which one loop evaluates."""
    program, keys = [], set()
    for phi in formulas:
        while type(phi) is ForAllIndex:
            phi = phi.body
        stack = [phi]
        while stack:
            x = stack.pop()
            t = type(x)
            if t is MNot:
                stack.append(x.sub)
            elif t is MImplies or t is MIff:
                stack += (x.left, x.right)
            else:  # an atom, as its key
                t = canonical_text(x)
                keys.add(t)
            program.append(t)
    if len(keys) > MAX_ATOMS:
        raise ResourceBound("%d modal atoms exceed the truth-table bound" % len(keys))
    full, cols = truth_columns(len(keys))
    column = dict(zip(sorted(keys), cols))
    values = []  # the last formulas' values first
    for t in reversed(program):
        if t is MNot:
            values[-1] ^= full
        elif t is MImplies:
            right = values.pop()
            values[-1] = (full ^ values[-1]) | right
        elif t is MIff:
            right = values.pop()
            values[-1] ^= full ^ right
        else:
            values.append(column[t])
    values.reverse()
    return full, values


def tautological_consequence(
    premises: list[MetaFormula], conclusion: MetaFormula
) -> bool:
    """Truth-table check over the modal atoms of premises and conclusion."""
    full, values = _truth_rows(premises + [conclusion])
    return reduce(and_, values[:-1], full) & ~values[-1] == 0


def satisfiable(formulas: list[MetaFormula]) -> bool:
    full, values = _truth_rows(formulas)
    return reduce(and_, values, full) != 0
