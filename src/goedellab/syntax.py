"""Node base, scanner, token cursor and connective rules shared by the
three concrete syntaxes: object formulas (`formulas`), meta schemas
(`meta`) and modal formulas (`modal`).  `Node` is also the base of every
other record: proof steps and verdicts, audit steps and reports, codes,
certificates and Kripke models.  Each parser supplies its token
pattern, its AST constructors and the rules of its own operands.
`is_natural` is the rule for what a decimal literal is: `decimal`
converts a literal that it has accepted, as a proof file or an audit
script reads one outside a formula, and `Cursor.number` converts one
that a scanner matched.  `remember` records a parsed group in a memo,
the table through which `Cursor` reads a group restated in one file
once.  `print_node` is the one printer of all three syntaxes: it prints
any node, on an explicit stack, from the `_pieces` its class declares
or, for a hot leaf such as a numeral or a designator, its own `_show`.
`read_text` reads every input file, and `truth_columns` is the truth
table that the modal and meta engines sweep."""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from itertools import islice

from .errors import ParseError, WorkbenchError


class Node:
    """Base of the AST classes of the three syntaxes and of every other
    record.  A subclass names its fields once, `__slots__ = _fields = (...)`,
    and gets a constructor that takes them in order; `_data` names the
    fields that hold plain values, and every other field holds a node.  A
    record that is not an AST declares every field `_data`, so `walk`
    never enters it.  Nodes are immutable by contract: the hash is
    computed once, on first use, and cached, and `copy.copy` and
    `copy.deepcopy` return the node itself.

    Hash, equality and repr behave as a frozen dataclass's (the hash of a
    node is the hash of the tuple of its field values), but each walks an
    explicit stack, so no depth of nesting exceeds the recursion limit."""

    __slots__ = ("_hash",)
    _fields: tuple[str, ...]
    _data: tuple[str, ...] = ()
    _prefix = _quantifier = False  # how the text of a node ends (`extends_right`)

    def __init_subclass__(cls):
        # the node fields, last first: the order in which `walk` stacks them
        cls._children = tuple(f for f in reversed(cls._fields) if f not in cls._data)

    def __init__(self, *values, **named):
        # compiled when the class first builds a node, not on import
        _compile_fields(type(self))
        self.__init__(*values, **named)

    def _values(self) -> tuple:
        """The tuple of the node's field values."""
        _compile_fields(type(self))
        return self._values()

    def __hash__(self) -> int:
        # post-order: a node is hashed once all its children are
        stack = [self]
        while self._hash is None:
            node = stack[-1]
            todo = [getattr(node, f) for f in node._children if getattr(node, f)._hash is None]
            if todo:
                stack += todo
            else:
                node._hash = hash(node._values())
                stack.pop()
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        # pairs of nodes of one type still to compare, pushed side by side
        stack = [self, other]
        while stack:
            b, a = stack.pop(), stack.pop()
            if a._hash is not None and b._hash is not None and a._hash != b._hash:
                return False
            for f in a._data:
                if getattr(a, f) != getattr(b, f):
                    return False
            for f in a._children:
                x, y = getattr(a, f), getattr(b, f)
                if x is not y:
                    if type(x) is not type(y):
                        return False
                    stack += (x, y)
        return True

    def __repr__(self) -> str:
        # the stack holds nodes still to print and text ready to emit
        parts, stack = [], [self]
        while stack:
            x = stack.pop()
            if not isinstance(x, Node):
                parts.append(x)
                continue
            stack.append(")")
            for i in reversed(range(len(x._fields))):
                v = getattr(x, x._fields[i])
                stack += (v if isinstance(v, Node) else repr(v), ", " * (i > 0) + x._fields[i] + "=")
            stack.append(type(x).__qualname__ + "(")
        return "".join(parts)

    def _show(self, parts, stack):
        # compiled from `_pieces` when the class first prints, not on import
        type(self)._show = _compile_show(type(self))
        return self._show(parts, stack)

    def __copy__(self):
        # immutable: a copy of a node, however deep, is the node itself
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        # rebuilt through the constructor, so a pickle never carries the
        # cached hash: a str's hash differs between processes (PYTHONHASHSEED)
        return type(self), self._values()


def _compile_fields(cls) -> None:
    """Compile `__init__` and `_values` onto the class that declares
    `_fields`, as `_compile_show` compiles `_show`.  Both read and write
    each slot by name, as fast as hand-written ones; a loop over setattr
    would build a node three times as slowly."""
    owner = next(c for c in cls.__mro__ if "_fields" in vars(c))
    fields = owner._fields
    namespace: dict = {}
    exec("def __init__(self, %s):\n%s    self._hash = None\n"
         "def _values(self):\n    return (%s)\n"
         % (", ".join(fields), "".join("    self.%s = %s\n" % (f, f) for f in fields),
            "".join("self.%s, " % f for f in fields)), namespace)
    owner.__init__, owner._values = namespace["__init__"], namespace["_values"]


def print_node(node: Node) -> str:
    """The text of node.  The stack holds what is left to print, last first,
    so no depth of nesting exceeds the recursion limit."""
    parts, stack = [], [node]
    while stack:
        x = stack.pop()
        if type(x) is str:
            parts.append(x)
        else:  # x and its first operands, down to a leaf
            while x is not None:
                x = x._show(parts, stack)
    return "".join(parts)


def _compile_show(cls):
    """`_show(parts, stack)` from `cls._pieces`, compiled once as `__init__`
    is.  A piece is a str, printed as it is, a field's index, printed as
    that field (a plain value as str() of it), or (index, test) for the
    first node field, in parentheses where the operand is of the class
    test, or where test(operand) holds.  `_show` appends the text before
    the first operand to parts, pushes the rest onto stack, last first,
    and returns that operand, or None."""
    head, first, test, after = "", None, None, []  # head: an f-string body
    for piece in cls._pieces:
        i, wrap = piece if isinstance(piece, tuple) else (piece, None)
        if isinstance(i, str) or cls._fields[i] in cls._data:
            text = i if isinstance(i, str) else "{self.%s}" % cls._fields[i]
            if first is None:
                head += text
            else:
                after.append("f%r" % text)
        elif first is None:
            first, test = "self." + cls._fields[i], wrap
        else:
            assert wrap is None, "only a first operand is wrapped"
            after.append("self." + cls._fields[i])
    after.reverse()
    lines = ["x = %s" % first]
    if test:
        lines += ["if %s:" % ("type(x) is test" if isinstance(test, type) else "test(x)"),
                  "    parts.append(f%r)" % (head + "("),
                  "    stack += (%s,)" % ", ".join(after + ["')'"]), "    return x"]
    lines += ["parts.append(f%r)" % head] * bool(head)
    lines += ["stack += (%s,)" % ", ".join(after)] * bool(after) + ["return x"]
    namespace = {"test": test}
    exec("def _show(self, parts, stack):\n    %s\n" % "\n    ".join(lines), namespace)
    return namespace["_show"]


def extends_right(node: Node) -> bool:
    """Whether the text of node runs on to the end of its group, as a
    quantifier's does, and so needs parentheses as a left operand.  A
    prefix operator's text ends as its operand's does."""
    while node._prefix:
        node = node.sub
    return node._quantifier


def walk(node: Node):
    """Yield node and every node below it in pre-order: each node before its
    children, and the children left to right.  A node reached twice through
    sharing is yielded twice."""
    stack = [node]
    while stack:
        x = stack.pop()
        yield x
        for f in x._children:
            stack.append(getattr(x, f))


@lru_cache(maxsize=32)
def truth_columns(k: int) -> tuple[int, tuple[int, ...]]:
    """The truth table of k variables as bit columns: (full, cols), where
    full has one bit per row (2**k rows) and bit r of cols[i] is bit i of
    r, the value of variable i in row r."""
    full = (1 << (1 << k)) - 1
    cols = []
    for i in range(k):
        half = 1 << i
        # the pattern 0^half 1^half, repeated over all rows
        cols.append(full // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half))
    return full, tuple(cols)


END = "<end>"
# the token of a group read from a memo; its node is `Cursor.reused[i]`
GROUP = "<group>"
# a memo files each group under its first KEY characters; a shorter
# group costs less to scan again than to look up, and is not recorded
KEY = 8
# a file restates mostly its last steps, and each `(` is tried against at
# most SHARED groups, so a file of groups that share their first
# characters is still read in linear time
SHARED = 8
# where a memo's group may start: a `(` right after a letter opens an
# argument list or a run of S, never a group.  The `(` is matched before
# the look-behind, which is then tried only where a `(` stands
_OPEN = re.compile(r"\((?<![A-Za-z]\()")
# a syntax accepts at most this many tokens without checking them again
ACCEPTED = 4096
# int() converts a numeral of this many digits under any limit Python
# allows (`sys.set_int_max_str_digits` takes no other limit below 640
# but 0, no limit)
SAFE_DIGITS = 640


def is_natural(text: str) -> bool:
    """Whether text is a decimal numeral: ASCII digits only.  int() and
    str.isdecimal() also take other scripts' digits, such as Arabic-Indic."""
    return text.isascii() and text.isdecimal()


_TOO_LONG = "numeral of %d digits exceeds the limit of %d"


def decimal(digits: str) -> int:
    """The value of digits that `is_natural` accepted.  More of them than
    int() converts (`sys.get_int_max_str_digits()`) is a parse error, not
    a ValueError."""
    if len(digits) > SAFE_DIGITS:
        limit = sys.get_int_max_str_digits()
        if limit and len(digits) > limit:
            raise ParseError(_TOO_LONG % (len(digits), limit))
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


def remember(memo: dict, text: str, node: Node) -> None:
    """Record in memo that text, a parenthesized group, parses as node.
    A memo maps the first KEY characters of each group to {group: node},
    the last SHARED groups recorded with those characters."""
    if len(text) >= KEY:
        groups = memo.setdefault(text[:KEY], {})
        groups[text] = node
        if len(groups) > SHARED:
            del groups[next(iter(groups))]


# binary connective -> (its binding level, the level of its right operand);
# a right operand at the connective's own level groups it to the right
_BINARY = {"<->": (0, 0), "->": (1, 1), "|": (2, 3), "&": (3, 4)}
# the level of a prefix operator's operand: tighter than every connective
PREFIX = 5


class Cursor:
    """Recursive-descent position over the tokens of a text, with the
    connective rules of all three syntaxes.  Precedence, loosest first:
    `<->`, `->`, `|`, `&`, then `~`, the syntax's other prefix operators
    and parentheses; `<->` and `->` group to the right, `|` and `&` to the
    left.  `formula` reads all four binary connectives by precedence
    climbing, and an operand at its start, so a parenthesis or prefix
    operator costs one call of nesting and a quantifier two, not one per
    precedence level.

    A subclass sets `lexeme` to the regular expression of one token of
    its syntax (with no group of its own), `neg` and `imp` to its AST's
    negation and implication, may set `iff` to a biconditional node of
    its own and `prefixes` to its other prefix operators, and defines
    `atom`, the rule for everything else.

    The text is scanned once, by one `findall`; whitespace between tokens
    is skipped.  A lexical fault (a character no token starts with, or a
    token `fault` rejects) is reported before any parse error, the first
    one in the text.  `fault` sees each token once per syntax: the tokens
    it passed are kept in `accepted`, up to ACCEPTED of them.  A token's
    position is found only when an error names it.

    Given a memo (see `remember`), a group of the memo found at a `(` of
    the text is not scanned: it becomes one token, GROUP, which `formula`
    reads as its node.  Anywhere else GROUP is a parse error.  A group
    counts as one token where an error's position counts all of its
    tokens, so a caller that gets a ParseError reads the text again
    without the memo, for the error of the text alone.

    A call of `formula` that joins two operands by a binary connective
    sets `joined` to the token index where it started.  A formula read by
    a call that joined none is one operand: no binary connective joins it
    outside its parentheses, though a quantifier's body runs on to its
    end.  So the whole text is one operand unless `joined` is 0, and
    `consequent` tells whether the right operand of the last `->` read
    is, which in a text whose main connective is `->` is that
    connective's consequent."""

    lexeme: str
    neg = imp = None
    # token -> constructor; read here, so a chain of them nests one call deep each
    prefixes: dict = {}
    joined = -1
    consequent = False

    def __init_subclass__(cls):
        cls.scanner = None  # compiled when the syntax first reads a text
        # the tokens `fault` has passed, per syntax: a word one syntax
        # accepts may be unknown to another
        cls.accepted = set()

    def __init__(self, text: str, memo: dict | None = None):
        self.text = text
        scanner = self.scanner
        if scanner is None:
            # a token, or any other visible character: a lexical fault, which
            # findall returns as "" and finditer as a match without group 1
            scanner = type(self).scanner = re.compile(r"(%s)|\S" % self.lexeme)
        scan = scanner.findall
        # token index -> the node of a group read from the memo
        self.reused = reused = {}
        if memo:
            tokens = []
            at = 0  # the end of the last group read from the memo
            search = _OPEN.search
            m = search(text)
            while m:
                a = m.start()
                groups = memo.get(text[a:a + KEY])
                if groups:
                    # at most one group of the memo starts at a: it ends
                    # where the `(` at a closes.  Mostly it is the last
                    # one recorded, so the newest are tried first
                    for group, node in reversed(groups.items()):
                        if text.startswith(group, a):
                            tokens += scan(text, at, a)
                            reused[len(tokens)] = node
                            tokens.append(GROUP)
                            at = a + len(group)
                            break
                m = search(text, at if at > a else a + 1)
            tokens += scan(text, at)
        else:
            tokens = scan(text)
        # faults are rare and most tokens repeat: check each token the
        # syntax has not accepted before, once
        accepted = self.accepted
        if not accepted.issuperset(tokens):
            for tok in set(tokens) - accepted:
                if not tok or self.fault(tok) is not None:
                    for m in scanner.finditer(text):
                        tok = m.group(1)
                        message = ("unexpected character %r" % m.group() if tok is None
                                   else self.fault(tok))
                        if message is not None:
                            raise ParseError(message, m.start())
                if len(accepted) >= ACCEPTED:
                    accepted.clear()
                accepted.add(tok)
        tokens.append(END)
        self.tokens = tokens
        self.i = 0

    def fault(self, tok: str) -> str | None:
        """The message for a token that the syntax's pattern matches but
        rejects, such as an unknown word, else None."""
        return None

    def shown(self, tok: str) -> str:
        """A token as an error message names it."""
        return tok

    def expect(self, want: str) -> None:
        tok = self.tokens[self.i]
        if tok != want:
            self.fail("expected %r, found %r" % (want, self.shown(tok)))
        self.i += 1

    def fail(self, message: str, i: int | None = None):
        """Raise a ParseError at token i, by default the next one.  Its
        position comes from a second scan of the text, up to that token."""
        m = next(islice(self.scanner.finditer(self.text), self.i if i is None else i, None), None)
        raise ParseError(message, len(self.text) if m is None else m.start())

    def number(self, digits: str, i: int) -> int:
        """The value of digits, which the scanner matched as ASCII digits;
        more of them than int() converts is a fault at token i."""
        if len(digits) > SAFE_DIGITS:
            limit = sys.get_int_max_str_digits()
            if limit and len(digits) > limit:
                self.fail(_TOO_LONG % (len(digits), limit), i)
        return int(digits)

    def iff(self, a, b):
        # (a -> b) & (b -> a)
        return self.neg(self.imp(self.imp(a, b), self.neg(self.imp(b, a))))

    def formula(self, level: int = 0):
        """A formula whose connectives outside parentheses bind at `level`
        or tighter; at level PREFIX, one operand of a prefix operator."""
        # the token at self.i is read inline, here and in the formula and
        # meta parsers' rules: a method call per token would cost more
        # than the read itself
        tokens = self.tokens
        i = self.i
        tok = tokens[i]
        if tok == "(":
            self.i = i + 1
            left = self.formula()
            if tokens[self.i] != ")":
                self.expect(")")
            self.i += 1
        elif tok == GROUP:
            self.i = i + 1
            left = self.reused[i]
        elif tok == "~":
            self.i = i + 1
            left = self.neg(self.formula(PREFIX))
        elif tok in self.prefixes:
            self.i = i + 1
            left = self.prefixes[tok](self.formula(PREFIX))
        else:
            left = self.atom()
        while True:
            tok = tokens[self.i]
            op = _BINARY.get(tok)
            if op is None or op[0] < level:
                return left
            start = self.i = self.i + 1
            right = self.formula(op[1])
            if tok == "->":
                left = self.imp(left, right)
                # no call starts where another does
                self.consequent = self.joined != start
            elif tok == "&":
                left = self.neg(self.imp(left, self.neg(right)))
            elif tok == "|":
                left = self.imp(self.neg(left), right)
            else:
                left = self.iff(left, right)
            self.joined = i

    def parse(self, rule):
        """Apply a grammar rule that must consume the whole input."""
        result = rule()
        if self.tokens[self.i] != END:
            self.fail("trailing input %r" % self.shown(self.tokens[self.i]))
        return result
