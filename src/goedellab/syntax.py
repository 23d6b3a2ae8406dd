"""Lexer and token cursor shared by the three concrete syntaxes: object
formulas (`formulas`), meta schemas (`meta`) and modal formulas
(`modal`).  Each parser supplies its token pattern and grammar rules.
`natural` converts every decimal literal of the text formats, proof
files and audit scripts included; `is_natural` is its rule for what a
decimal literal is."""

from __future__ import annotations

import re
import sys
from typing import Iterable

from .errors import ParseError

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


class Cursor:
    """Recursive-descent position over a token list."""

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

    def parse(self, rule):
        """Apply a grammar rule that must consume the whole input."""
        result = rule()
        tok, pos = self.tokens[self.i]
        if tok != END:
            raise ParseError("trailing input %r" % tok, pos)
        return result
