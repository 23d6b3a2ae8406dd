"""Object-language ASTs, concrete-syntax parser and canonical printer.

The canonical AST uses only negation, implication, the universal
quantifier, equality and the Dem predicate.  Conjunction, disjunction,
biconditional and the existential quantifier exist only in the concrete
syntax and are expanded while parsing.
"""

from __future__ import annotations

import re

from .errors import NotClosed, ParseError
from .syntax import Cursor, Node, extends_right, print_node, remember, walk

# --- terms -------------------------------------------------------------


class Var(Node):
    __slots__ = _fields = ("index",)
    _data = ("index",)
    _pieces = ("x", 0)


# Numerals up to this value print as S(...(0)) chains, larger ones in decimal.
NUMERAL_CHAIN_LIMIT = 1000


class Num(Node):
    """The numeral S^value(0), the one representation of a closed numeral."""

    __slots__ = _fields = ("value",)
    _data = ("value",)

    def _show(self, parts, stack):
        v = self.value
        parts.append(str(v) if v > NUMERAL_CHAIN_LIMIT else "S(" * v + "0" + ")" * v)


class Succ(Node):
    """S(t) of a term that is not a numeral: S of Num(n) is Num(n + 1)."""

    __slots__ = _fields = ("arg",)
    _pieces = ("S(", 0, ")")

    def __new__(cls, arg):
        if isinstance(arg, Num):
            return Num(arg.value + 1)
        return super().__new__(cls)


class Sub(Node):
    __slots__ = _fields = ("left", "right")
    _pieces = ("sub(", 0, ",", 1, ")")


class Diag(Node):
    __slots__ = _fields = ("arg",)
    _pieces = ("diag(", 0, ")")


Term = Var | Num | Succ | Sub | Diag

ZERO = Num(0)


def successors(n: int, t: Term) -> Term:
    """S applied n times to t; over a numeral, one numeral."""
    if isinstance(t, Num):
        return Num(t.value + n)
    for _ in range(n):
        t = Succ(t)
    return t


# --- formulas ----------------------------------------------------------


class Eq(Node):
    __slots__ = _fields = ("left", "right")
    _pieces = (0, " = ", 1)


class Dem(Node):
    __slots__ = _fields = ("arg",)
    _pieces = ("Dem(", 0, ")")


class Not(Node):
    __slots__ = _fields = ("sub",)
    _prefix = True
    _pieces = ("~", (0, Eq))


class Implies(Node):
    __slots__ = _fields = ("left", "right")
    _pieces = ("(", (0, extends_right), " -> ", 1, ")")


class ForAll(Node):
    __slots__ = _fields = ("var", "body")
    _data = ("var",)
    _quantifier = True
    _pieces = ("forall x", 0, ". ", 1)


Formula = Not | Implies | ForAll | Eq | Dem
print_term = print_formula = print_node


def term_free_vars(t: Term) -> set[int]:
    return {v.index for v in walk(t) if isinstance(v, Var)}


def free_vars(f: Formula) -> set[int]:
    """The indices of the variables free in f, walked on an explicit stack
    of (node, the indices bound around it)."""
    free, stack = set(), [(f, frozenset())]
    while stack:
        x, bound = stack.pop()
        cls = type(x)
        if cls is Var:
            if x.index not in bound:
                free.add(x.index)
        elif cls is Implies or cls is Eq or cls is Sub:
            stack += ((x.left, bound), (x.right, bound))
        elif cls is Not:
            stack.append((x.sub, bound))
        elif cls is ForAll:
            stack.append((x.body, bound | {x.var}))
        elif cls is not Num:  # Dem, Succ, Diag
            stack.append((x.arg, bound))
    return free


def substitute(f: Formula, var: int, t: Term) -> Formula:
    """Replace every free occurrence of x_var by the closed term t.  A
    subtree with nothing to replace is returned as itself, so the result
    shares it with f.  The walk is post-order on an explicit stack: a node
    lies as (node, its one operand or None) under its operands, and when
    that pair pops, their results are on top of `done`."""
    if term_free_vars(t):
        raise NotClosed("substituted term must be closed: %s" % print_term(t))
    done, stack = [], [f]
    while stack:
        x = stack.pop()
        cls = type(x)
        if cls is tuple:
            x, operand = x
            cls = type(x)
            a = done.pop()
            if operand is None:  # two operands, a the right one
                left = done[-1]
                done[-1] = x if left is x.left and a is x.right else cls(left, a)
            elif a is operand:
                done.append(x)
            else:
                done.append(ForAll(x.var, a) if cls is ForAll else cls(a))
        elif cls is Var:
            done.append(t if x.index == var else x)
        elif cls is Num or cls is ForAll and x.var == var:
            done.append(x)
        elif cls is Implies or cls is Eq or cls is Sub:
            stack += ((x, None), x.right, x.left)
        else:  # Not, ForAll, Dem, Succ, Diag
            operand = x.sub if cls is Not else x.body if cls is ForAll else x.arg
            stack += ((x, operand), operand)
    return done[0]


# --- parser ------------------------------------------------------------

_WORD_RE = re.compile(r"[A-Za-z_]+")

_KEYWORDS = {"forall", "exists", "Dem", "sub", "diag", "S"}

# the first character of a term's first token: a numeral, a variable, S, sub
# or diag (no other token starts with s or d)
_TERM_START = "0123456789xSsd"


def _numerals(depth: int) -> str:
    """The pattern of S(...S(0)...) with 1 to depth successors, as printed:
    its closing parentheses are counted by nesting, one level per S."""
    pattern = r"S\(0\){%d}" % depth
    for k in range(depth - 1, 0, -1):
        pattern = r"S\((?:0\){%d}|%s)" % (k, pattern)
    return pattern


# a printed numeral of at most this many successors is one token
NUMERAL_TOKEN = 64


class _Parser(Cursor):
    # a printed numeral is one token; any other run of `S(` is one token,
    # the successors of the term that follows, up to its `)`.  The
    # punctuation, the most frequent tokens, is tried first; no other
    # token starts with it
    lexeme = (r"[()~&|.,=]|%s|(?:S\s*\(\s*)+|->|<->|x[0-9]+|[0-9]+|[A-Za-z_]+"
              % _numerals(NUMERAL_TOKEN))
    neg, imp = Not, Implies

    def fault(self, tok: str) -> str | None:
        if tok not in _KEYWORDS and _WORD_RE.fullmatch(tok):
            return "unknown identifier %r" % tok
        return None

    def shown(self, tok: str) -> str:
        # a run of `S(` is named by its first S
        return "S" if tok[0] == "S" else tok

    def atom(self) -> Formula:
        i = self.i
        tok = self.tokens[i]
        if tok[0] in _TERM_START:
            left = self.term()
            self.expect("=")
            return Eq(left, self.term())
        if tok == "Dem":
            self.i = i + 1
            self.expect("(")
            t = self.term()
            self.expect(")")
            return Dem(t)
        if tok in ("forall", "exists"):
            self.i = i + 2
            var_tok = self.tokens[i + 1]
            if not var_tok.startswith("x") or not var_tok[1:].isdigit():
                self.fail("expected a variable after %r" % tok, i + 1)
            self.expect(".")
            body = self.formula()
            index = self.number(var_tok[1:], i + 1)
            if tok == "forall":
                return ForAll(index, body)
            return Not(ForAll(index, Not(body)))
        self.fail("expected a formula, found %r" % tok)

    def term(self) -> Term:
        i = self.i
        tok = self.tokens[i]
        self.i = i + 1
        c = tok[0]
        if c == "x" and tok[1:].isdigit():
            return Var(self.number(tok[1:], i))
        if c.isdigit():
            return Num(self.number(tok, i))
        if c == "S":
            if tok[-1] == ")":  # a printed numeral
                return Num(tok.count("S"))
            if tok == "S":
                self.expect("(")  # fails: an S before `(` is part of a run
            depth = tok.count("S")
            t = self.term()
            close = self.i + depth
            if self.tokens[self.i:close] != [")"] * depth:
                for _ in range(depth):
                    self.expect(")")  # fails at the first token that is not `)`
            self.i = close
            return successors(depth, t)
        if tok == "diag":
            self.expect("(")
            t = self.term()
            self.expect(")")
            return Diag(t)
        if tok == "sub":
            self.expect("(")
            a = self.term()
            self.expect(",")
            b = self.term()
            self.expect(")")
            return Sub(a, b)
        self.fail("expected a term, found %r" % tok, i)


def parse_formula(text: str) -> Formula:
    """The formula of text; a file's texts are read by `read_formula`."""
    p = _Parser(text)
    return p.parse(p.formula)


def read_formula(text: str, memo: dict) -> tuple[Formula, bool, bool]:
    """The formula of text, read with a memo of the groups of one file
    (see `syntax.remember`), which records text: a group of the memo that
    text restates is read as the node recorded, unscanned.  Errors, and
    the formula, are those of text read alone.  Also how text was read
    (see `syntax.Cursor`): whether it is one operand, and whether the
    right operand of the last `->` read is, which is the consequent of
    text's main `->` where it has one."""
    try:
        p = _Parser(text, memo)
        f = p.parse(p.formula)
    except ParseError:
        parse_formula(text)  # raises the error of text alone
        raise
    one = p.joined != 0
    remember(memo, text, f, one)
    return f, one, p.consequent


def parse_term(text: str) -> Term:
    p = _Parser(text)
    return p.parse(p.term)
