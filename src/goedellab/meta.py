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

import re
from functools import reduce
from operator import and_

from .errors import ResourceBound
from .syntax import Cursor, Node, extends_right, truth_columns, walk

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


class InE(Node):
    __slots__ = _fields = ("arg",)


class NegD(Node):
    """The negation ~d of a designator.  A double negation folds as it is
    built: NegD(NegD(d)) is d, so the operand of a NegD is never a NegD."""

    __slots__ = _fields = ("sub",)

    def __new__(cls, sub):
        if isinstance(sub, NegD):
            return sub.sub
        return super().__new__(cls)


class DVar(Node):
    """Designator hole in a schema (written d*)."""

    __slots__ = _fields = ("name",)
    _data = ("name",)


Designator = App | InE | NegD | DVar

# --- meta formulas -----------------------------------------------------


class Assert(Node):
    __slots__ = _fields = ("desig",)


class DemOf(Node):
    __slots__ = _fields = ("desig",)


class MNot(Node):
    """The negation of a meta formula, folded as it is built: MNot(MNot(phi))
    is phi, and MNot(Assert(d)) is Assert(NegD(d)).  So MNot is an
    involution, and its operand is never an MNot or an Assert."""

    __slots__ = _fields = ("sub",)
    _prefix = True

    def __new__(cls, sub):
        if isinstance(sub, MNot):
            return sub.sub
        if isinstance(sub, Assert):
            return Assert(NegD(sub.desig))
        return super().__new__(cls)


class MImplies(Node):
    __slots__ = _fields = ("left", "right")


class MIff(Node):
    __slots__ = _fields = ("left", "right")


class ForAllIndex(Node):
    __slots__ = _fields = ("var", "body")
    _data = ("var",)
    _quantifier = True


MetaFormula = Assert | DemOf | MNot | MImplies | MIff | ForAllIndex


# --- structural helpers ------------------------------------------------


def desig_metavars(d: Designator) -> set[str]:
    return {t.name for t in walk(d) if isinstance(t, MetaVar)}


def free_metavars(phi: MetaFormula) -> set[str]:
    if isinstance(phi, (Assert, DemOf)):
        return desig_metavars(phi.desig)
    if isinstance(phi, MNot):
        return free_metavars(phi.sub)
    if isinstance(phi, (MImplies, MIff)):
        return free_metavars(phi.left) | free_metavars(phi.right)
    return free_metavars(phi.body) - {phi.var}


def has_dvar(x) -> bool:
    return any(isinstance(d, DVar) for d in walk(x))


def is_ground(phi: MetaFormula) -> bool:
    return not free_metavars(phi) and not has_dvar(phi)


def _map_leaf(d: Designator, fn) -> Designator:
    """Rebuild d with its innermost, non-negation designator passed
    through fn."""
    if isinstance(d, NegD):
        return NegD(_map_leaf(d.sub, fn))
    return fn(d)


def map_atoms(phi: MetaFormula, fn, bound: str | None) -> MetaFormula:
    """Rebuild phi with the innermost designator of every atom passed
    through fn.  A quantifier over the index variable `bound` (None for
    none) keeps its body as it is."""
    if isinstance(phi, Assert):
        return Assert(_map_leaf(phi.desig, fn))
    if isinstance(phi, DemOf):
        return DemOf(_map_leaf(phi.desig, fn))
    if isinstance(phi, MNot):
        return MNot(map_atoms(phi.sub, fn, bound))
    if isinstance(phi, (MImplies, MIff)):
        return type(phi)(map_atoms(phi.left, fn, bound), map_atoms(phi.right, fn, bound))
    if phi.var == bound:
        return phi
    return ForAllIndex(phi.var, map_atoms(phi.body, fn, bound))


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


def expand_desig(d: Designator) -> Designator:
    """Definitional rewrite on a designator: InE(t) -> App(q, t)."""
    return _map_leaf(d, _expand_leaf)


def expand_ine(phi: MetaFormula) -> MetaFormula:
    """Definitional rewrite: InE(t) and App(q, t) designate the same
    proposition; expand to the App form."""
    return map_atoms(phi, _expand_leaf, None)


# --- printing ----------------------------------------------------------


def print_iterm(t: IndexTerm) -> str:
    return t.name if isinstance(t, MetaVar) else str(t.value)


def print_desig(d: Designator) -> str:
    if isinstance(d, App):
        return "App(%s,%s)" % (print_iterm(d.func), print_iterm(d.arg))
    if isinstance(d, InE):
        return "InE(%s)" % print_iterm(d.arg)
    if isinstance(d, NegD):
        return "~" + print_desig(d.sub)
    return d.name


def print_meta(phi: MetaFormula) -> str:
    if isinstance(phi, Assert):
        return print_desig(phi.desig)
    if isinstance(phi, DemOf):
        return "Dem[%s]" % print_desig(phi.desig)
    if isinstance(phi, MNot):
        return "~" + print_meta(phi.sub)
    if isinstance(phi, (MImplies, MIff)):
        left = print_meta(phi.left)
        if extends_right(phi.left):
            left = "(" + left + ")"
        op = "->" if isinstance(phi, MImplies) else "<->"
        return "(%s %s %s)" % (left, op, print_meta(phi.right))
    return "all %s. %s" % (phi.var, print_meta(phi.body))


# --- parsing -----------------------------------------------------------

class _MetaParser(Cursor):
    # the meta lexer has no `&` or `|` token
    lexeme = r"<->|->|[~().,\[\]]|[0-9]+|[A-Za-z_][A-Za-z0-9_]*\*?"
    neg, imp, iff = MNot, MImplies, MIff

    def atom(self) -> MetaFormula:
        tok = self.peek()
        if tok == "all":
            self.next()
            name = self.next()
            if not re.fullmatch(r"[a-z][A-Za-z0-9_]*", name):
                self.fail("expected an index variable, got %r" % name, self.i - 1)
            self.expect(".")
            return ForAllIndex(name, self.formula())
        if tok == "Dem":
            self.next()
            self.expect("[")
            d = self.desig()
            self.expect("]")
            return DemOf(d)
        return Assert(self.desig())

    def desig(self) -> Designator:
        tok = self.next()
        if tok == "~":
            return NegD(self.desig())
        if tok == "App":
            self.expect("(")
            i = self.iterm()
            self.expect(",")
            j = self.iterm()
            self.expect(")")
            return App(i, j)
        if tok == "InE":
            self.expect("(")
            j = self.iterm()
            self.expect(")")
            return InE(j)
        if tok.endswith("*"):
            return DVar(tok)
        self.fail("expected a designator, found %r" % tok, self.i - 1)

    def iterm(self) -> IndexTerm:
        tok = self.next()
        if tok == "q":
            return Q
        if tok.isdigit():
            return Const(self.number(tok, self.i - 1))
        if re.fullmatch(r"[a-z][A-Za-z0-9_]*", tok):
            return MetaVar(tok)
        self.fail("expected an index term, found %r" % tok, self.i - 1)


def parse_meta(text: str) -> MetaFormula:
    p = _MetaParser(text)
    return p.parse(p.formula)


def parse_desig(text: str) -> Designator:
    p = _MetaParser(text)
    return p.parse(p.desig)


# --- propositional engine over modal atoms -----------------------------

MAX_ATOMS = 14
_ATOMS = (Assert, DemOf, ForAllIndex)


def _prepare(formulas: list[MetaFormula]) -> list[MetaFormula]:
    """Strip quantifier prefixes and expand InE for atom identity.

    Distinct DemOf/Assert atoms over distinct designators are mutually
    independent: no theory of provability is baked in here.
    """
    out = []
    for phi in formulas:
        while isinstance(phi, ForAllIndex):
            phi = phi.body
        out.append(expand_ine(phi))
    return out


def _truth_rows(formulas: list[MetaFormula]) -> tuple[int, list[int]]:
    """(full, one int per formula whose bit r says it holds in row r of
    the truth table over the formulas' atoms).  An atom is an Assert, a
    DemOf, or a quantified formula under a connective, which is opaque:
    keyed by its printed text, its body's atoms are not counted."""
    keys = set()
    stack = list(formulas)
    while stack:
        phi = stack.pop()
        if isinstance(phi, _ATOMS):
            keys.add(print_meta(phi))
        else:
            stack += (getattr(phi, f) for f in phi._children)
    if len(keys) > MAX_ATOMS:
        raise ResourceBound("%d modal atoms exceed the truth-table bound" % len(keys))
    full, cols = truth_columns(len(keys))
    column = dict(zip(sorted(keys), cols))

    def rows(phi: MetaFormula) -> int:
        if isinstance(phi, _ATOMS):
            return column[print_meta(phi)]
        if isinstance(phi, MNot):
            return full ^ rows(phi.sub)
        if isinstance(phi, MImplies):
            return (full ^ rows(phi.left)) | rows(phi.right)
        return full ^ rows(phi.left) ^ rows(phi.right)

    return full, [rows(phi) for phi in formulas]


def tautological_consequence(
    premises: list[MetaFormula], conclusion: MetaFormula
) -> bool:
    """Truth-table check over the modal atoms of premises and conclusion."""
    full, values = _truth_rows(_prepare(premises + [conclusion]))
    return reduce(and_, values[:-1], full) & ~values[-1] == 0


def satisfiable(formulas: list[MetaFormula]) -> bool:
    full, values = _truth_rows(_prepare(list(formulas)))
    return reduce(and_, values, full) != 0
