"""Lexer, token cursor and connective rules shared by the three concrete
syntaxes: object formulas (`formulas`), meta schemas (`meta`) and modal
formulas (`modal`).  Each parser supplies its token pattern, its AST
constructors and the rules of its own operands.
`natural` converts every decimal literal of the text formats, proof
files and audit scripts included; `is_natural` is its rule for what a
decimal literal is.  `read_text` reads every input file."""

from __future__ import annotations

import re
import sys
from typing import Iterable

from .errors import ParseError, WorkbenchError

END = "<end>"

_SPACE = re.compile(r"\s*")


def tokenize(pattern: re.Pattern, text: str):
    """Yield (token, start position) for each token of text, then
    (END, len(text)).  `pattern` matches one token; whitespace between
    tokens is skipped."""
    pos = _SPACE.match(text).end()
    while pos < len(text):
        m = pattern.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], pos)
        yield m.group(), pos
        pos = _SPACE.match(text, m.end()).end()
    yield END, len(text)


def is_natural(text: str) -> bool:
    """Whether text is a decimal numeral: ASCII digits only.  int() and
    str.isdecimal() also take other scripts' digits, such as Arabic-Indic."""
    return text.isascii() and text.isdecimal()


def natural(digits: str, pos: int | None = None) -> int:
    """The value of a decimal numeral.  Anything but ASCII digits, or more
    of them than int() converts (`sys.get_int_max_str_digits()`), is a
    parse error, not a ValueError."""
    if not is_natural(digits):
        raise ParseError("not a decimal numeral: %r" % digits, pos)
    limit = sys.get_int_max_str_digits()
    if limit and len(digits) > limit:
        raise ParseError("numeral of %d digits exceeds the limit of %d" % (len(digits), limit), pos)
    return int(digits)


def read_text(path: str) -> str:
    """The contents of an input file, decoded as UTF-8 whatever the locale.
    A file that does not decode is a WorkbenchError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise WorkbenchError("%s is not UTF-8 text: byte 0x%02x at offset %d"
                                 % (path, e.object[e.start], e.start)) from None


# binary connective -> (its binding level, the level of its right operand);
# a right operand at the connective's own level groups it to the right
_BINARY = {"<->": (0, 0), "->": (1, 1), "|": (2, 3), "&": (3, 4)}


class Cursor:
    """Recursive-descent position over a token list, with the connective
    rules of all three syntaxes.  Precedence, loosest first: `<->`, `->`,
    `|`, `&`, then `~`, the syntax's other prefix operators and
    parentheses; `<->` and `->` group to the right, `|` and `&` to the
    left.  `formula` reads all four binary connectives by precedence
    climbing, so a parenthesis or quantifier costs two or three calls of
    nesting, not one per precedence level.

    A subclass sets `neg` and `imp` to its AST's negation and implication,
    may set `iff` to a biconditional node of its own and `prefixes` to its
    other prefix operators, and defines `atom`, the rule for everything
    else."""

    neg = imp = None
    # token -> constructor; read here, so a chain of them nests one call deep each
    prefixes: dict = {}

    def __init__(self, tokens: Iterable[tuple[str, int]]):
        self.tokens = list(tokens)
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def next(self) -> tuple[str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, want: str) -> None:
        tok, pos = self.next()
        if tok != want:
            raise ParseError("expected %r, found %r" % (want, tok), pos)

    def fail(self, message: str):
        raise ParseError(message, self.tokens[self.i][1])

    def iff(self, a, b):
        # (a -> b) & (b -> a)
        return self.neg(self.imp(self.imp(a, b), self.neg(self.imp(b, a))))

    def formula(self, level: int = 0):
        """A formula whose connectives outside parentheses bind at `level`
        or tighter."""
        left = self.unary()
        while True:
            tok = self.peek()
            op = _BINARY.get(tok)
            if op is None or op[0] < level:
                return left
            self.next()
            right = self.formula(op[1])
            if tok == "->":
                left = self.imp(left, right)
            elif tok == "&":
                left = self.neg(self.imp(left, self.neg(right)))
            elif tok == "|":
                left = self.imp(self.neg(left), right)
            else:
                left = self.iff(left, right)

    def unary(self):
        tok = self.peek()
        if tok == "~":
            self.next()
            return self.neg(self.unary())
        wrap = self.prefixes.get(tok)
        if wrap is not None:
            self.next()
            return wrap(self.unary())
        if tok == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        return self.atom()

    def parse(self, rule):
        """Apply a grammar rule that must consume the whole input."""
        result = rule()
        tok, pos = self.tokens[self.i]
        if tok != END:
            raise ParseError("trailing input %r" % tok, pos)
        return result
