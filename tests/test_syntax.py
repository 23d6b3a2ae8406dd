"""The scanner and connective rules shared by the formula, modal and meta
parsers: one precedence and associativity table run through all three,
and the one-`findall` scanner against the per-position one it replaced."""

import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_formula, random_meta, random_modal, random_term
from goedellab import formulas as F, meta as M, modal as Mo
from goedellab.errors import ParseError
from goedellab.formulas import NUMERAL_TOKEN
from goedellab.syntax import _OPEN, ACCEPTED, END, SAFE_DIGITS, decimal


def _connectives(neg, imp, iff=None):
    def and_(x, y):
        return neg(imp(x, neg(y)))

    def or_(x, y):
        return imp(neg(x), y)

    def iff_(x, y):
        return and_(imp(x, y), imp(y, x))

    return neg, imp, and_, or_, iff or iff_


# parse, connectives, and the atoms a, b, c written and parsed
SYNTAXES = {
    "formulas": (F.parse_formula, _connectives(F.Not, F.Implies),
                 ("0 = 0", "Dem(x1)", "x2 = S(0)"),
                 (F.Eq(F.ZERO, F.ZERO), F.Dem(F.Var(1)), F.Eq(F.Var(2), F.Num(1)))),
    "modal": (Mo.parse_modal, _connectives(Mo.Neg, Mo.Imp), ("p", "q", "r"),
              (Mo.Atom("p"), Mo.Atom("q"), Mo.Atom("r"))),
    "meta": (M.parse_meta, _connectives(M.MNot, M.MImplies, M.MIff),
             ("InE(n)", "Dem[App(q,q)]", "d*"),
             (M.Assert(M.InE(M.MetaVar("n"))), M.DemOf(M.App(M.Q, M.Q)), M.Assert(M.DVar("d*")))),
}

# text over the atoms a, b, c, and its AST from (neg, imp, and, or, iff, a, b, c)
TABLE = [
    ("a -> b -> c", lambda N, I, A, O, E, a, b, c: I(a, I(b, c))),
    ("a <-> b <-> c", lambda N, I, A, O, E, a, b, c: E(a, E(b, c))),
    ("a | b | c", lambda N, I, A, O, E, a, b, c: O(O(a, b), c)),
    ("a & b & c", lambda N, I, A, O, E, a, b, c: A(A(a, b), c)),
    ("a | b & c", lambda N, I, A, O, E, a, b, c: O(a, A(b, c))),
    ("a & b | c", lambda N, I, A, O, E, a, b, c: O(A(a, b), c)),
    ("a -> b | c", lambda N, I, A, O, E, a, b, c: I(a, O(b, c))),
    ("a | b -> c", lambda N, I, A, O, E, a, b, c: I(O(a, b), c)),
    ("a <-> b -> c", lambda N, I, A, O, E, a, b, c: E(a, I(b, c))),
    ("a -> b <-> c", lambda N, I, A, O, E, a, b, c: E(I(a, b), c)),
    ("~a & b", lambda N, I, A, O, E, a, b, c: A(N(a), b)),
    ("a & ~b", lambda N, I, A, O, E, a, b, c: A(a, N(b))),
    ("~(a & b)", lambda N, I, A, O, E, a, b, c: N(A(a, b))),
    ("~~a -> b", lambda N, I, A, O, E, a, b, c: I(N(N(a)), b)),
    ("(a -> b) -> c", lambda N, I, A, O, E, a, b, c: I(I(a, b), c)),
    ("(a <-> b) <-> c", lambda N, I, A, O, E, a, b, c: E(E(a, b), c)),
    ("a | (b | c)", lambda N, I, A, O, E, a, b, c: O(a, O(b, c))),
    ("((a))", lambda N, I, A, O, E, a, b, c: a),
]


def _cases():
    for name in SYNTAXES:
        for text, shape in TABLE:
            yield pytest.param(name, text, shape, id="%s: %s" % (name, text))


@pytest.mark.parametrize("name, text, shape", _cases())
def test_precedence_and_associativity(name, text, shape):
    parse, connectives, written, atoms = SYNTAXES[name]
    source = text.replace("a", "{0}").replace("b", "{1}").replace("c", "{2}").format(*written)
    if name == "meta" and ("&" in text or "|" in text):
        # the meta syntax has no conjunction or disjunction
        first = min(source.index(op) for op in "&|" if op in source)
        with pytest.raises(ParseError) as exc:
            parse(source)
        assert str(exc.value) == "unexpected character %r (at position %d)" % (
            source[first], first)
    else:
        assert parse(source) == shape(*connectives, *atoms)


def test_meta_rejects_conjunction_and_disjunction_at_their_position():
    for text, message in (("InE(n) & InE(q)", "unexpected character '&' (at position 7)"),
                          ("~Dem[d*] | d*", "unexpected character '|' (at position 9)")):
        with pytest.raises(ParseError) as exc:
            M.parse_meta(text)
        assert str(exc.value) == message


def test_a_quantifier_body_runs_to_the_end_of_the_input():
    neg, imp, and_, or_, iff = SYNTAXES["formulas"][1]
    a, b, c = SYNTAXES["formulas"][3]
    assert F.parse_formula("forall x0. 0 = 0 -> Dem(x1) | x2 = S(0)") == F.ForAll(
        0, imp(a, or_(b, c)))
    assert F.parse_formula("exists x3. 0 = 0 <-> Dem(x1)") == neg(F.ForAll(
        3, neg(iff(a, b))))
    assert F.parse_formula("0 = 0 -> forall x0. Dem(x1) & x2 = S(0)") == imp(
        a, F.ForAll(0, and_(b, c)))
    assert F.parse_formula("(forall x0. 0 = 0) -> Dem(x1)") == imp(F.ForAll(0, a), b)
    assert F.parse_formula("~forall x0. 0 = 0 -> Dem(x1)") == neg(F.ForAll(0, imp(a, b)))

    neg, imp, _, _, iff = SYNTAXES["meta"][1]
    a, b, c = SYNTAXES["meta"][3]
    assert M.parse_meta("all n. InE(n) <-> Dem[App(q,q)] -> d*") == M.ForAllIndex(
        "n", iff(a, imp(b, c)))
    assert M.parse_meta("InE(n) -> all m. Dem[App(q,q)] -> d*") == imp(
        a, M.ForAllIndex("m", imp(b, c)))
    assert M.parse_meta("(all n. InE(n)) -> d*") == imp(M.ForAllIndex("n", a), c)


def test_nesting_depth_per_level():
    # a parenthesis nests two calls deep, a quantifier three and a prefix
    # operator one; one rule per precedence level would take five or six
    # calls per parenthesis and run out of recursion below 200 of them
    for parse, atom in ((F.parse_formula, "0 = 0"), (Mo.parse_modal, "p"), (M.parse_meta, "d*")):
        parse("(" * 300 + atom + ")" * 300)
    assert F.print_formula(F.parse_formula("forall x0. " * 250 + "0 = 0")).count("forall") == 250
    assert M.print_meta(M.parse_meta("all n. " * 250 + "d*")).count("all") == 250
    assert Mo.modal_depth(Mo.parse_modal("[]" * 600 + "p")) == 600


# --- the scanner -------------------------------------------------------


@pytest.mark.parametrize("parse, text, message", [
    # the first lexical fault in text order, whichever kind comes first
    (F.parse_formula, "y = \u0661", "unknown identifier 'y' (at position 0)"),
    (F.parse_formula, "\u0661 = y", "unexpected character '\u0661' (at position 0)"),
    # a bare S after a run of `S(`, and a run named by its first S
    (F.parse_formula, "S(S S(0)) = 0", "expected '(', found 'S' (at position 4)"),
    (F.parse_term, "S(0) S(1)", "trailing input 'S' (at position 5)"),
    # the closing parentheses of a run
    (F.parse_formula, "S(S(0) = 0", "expected ')', found '=' (at position 7)"),
    (F.parse_formula, "S(S(S(0)) = S", "expected ')', found '=' (at position 10)"),
    # a fault after a valid prefix; a lexical fault comes before a parse error
    (M.parse_meta, "all n. InE(n) -> Dem[App(n, $)]", "unexpected character '$' (at position 28)"),
    (Mo.parse_modal, "[]p -> <>q & r!", "unexpected character '!' (at position 14)"),
    (Mo.parse_modal, "p q !", "unexpected character '!' (at position 4)"),
    # a modal formula missing where one is expected, at the end too
    (Mo.parse_modal, "", "expected a formula, found '<end>' (at position 0)"),
    (Mo.parse_modal, "[]", "expected a formula, found '<end>' (at position 2)"),
    (Mo.parse_modal, "p -> ->", "expected a formula, found '->' (at position 5)"),
    (Mo.parse_modal, "~<->", "expected a formula, found '<->' (at position 1)"),
    (Mo.parse_modal, ")", "expected a formula, found ')' (at position 0)"),
    # a numeral too long for int() is reported at its own token
    (M.parse_desig, "App(q, " + "9" * 5000 + ")",
     "numeral of 5000 digits exceeds the limit of 4300 (at position 7)"),
    (F.parse_formula, "0 = S(" + "9" * 5000 + ")",
     "numeral of 5000 digits exceeds the limit of 4300 (at position 6)"),
    (F.parse_formula, "Dem(x0) -> x" + "1" * 4301 + " = 0",
     "numeral of 4301 digits exceeds the limit of 4300 (at position 11)"),
    (F.parse_formula, "forall x" + "1" * 4301 + ". 0 = 0",
     "numeral of 4301 digits exceeds the limit of 4300 (at position 7)"),
])
def test_scanner_error_contract(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


_SPACE = re.compile(r"\s*")
_WORD = re.compile(r"[A-Za-z_]+")

# syntax -> (its cursor, the per-token pattern of the referee, its keywords,
# or None where a word needs none)
SCANNERS = {
    "formulas": (F._Parser, re.compile(r"<->|->|[~&|().,=]|x[0-9]+|[0-9]+|[A-Za-z_]+"),
                 {"forall", "exists", "Dem", "sub", "diag", "S"}),
    "meta": (M._MetaParser, re.compile(r"<->|->|[~().,\[\]]|[0-9]+|[A-Za-z_][A-Za-z0-9_]*\*?"), None),
    "modal": (Mo._Parser, re.compile(r"\[\]|<>|<->|->|[~&|()]|[a-z][a-z0-9_]*"), None),
}


def _referee_tokens(pattern, keywords, text):
    """The scanner the parsers had before: one pattern match per token at
    each position after the whitespace, the first fault raised as soon as
    it is met.  (token, position) pairs, then (END, len(text))."""
    out = []
    pos = _SPACE.match(text).end()
    while pos < len(text):
        m = pattern.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], pos)
        tok = m.group()
        if keywords is not None and tok not in keywords and _WORD.fullmatch(tok):
            raise ParseError("unknown identifier %r" % tok, pos)
        out.append((tok, pos))
        pos = _SPACE.match(text, m.end()).end()
    out.append((END, len(text)))
    return out


def _scanned(cursor_class, text):
    """The tokens of the scanner at their positions, with each run of `S(`
    spelled out as its S and ( tokens, and each meta designator token as
    its words and punctuation.  An error at the first, middle or last
    token reports that token's position."""
    cursor = cursor_class(text)
    starts = [m.start() for m in cursor.scanner.finditer(text)] + [len(text)]
    assert len(starts) == len(cursor.tokens)
    for i in {0, len(starts) // 2, len(starts) - 1}:
        with pytest.raises(ParseError) as exc:
            cursor.fail("", i)
        assert exc.value.position == starts[i]
    out = []
    for tok, pos in zip(cursor.tokens, starts):
        if tok[0] == "S" and "(" in tok:
            out += [(c, pos + k) for k, c in enumerate(tok) if not c.isspace()]
        elif tok[3:4] == "(":  # App(i,j) or InE(j)
            out += [(m.group(), pos + m.start()) for m in re.finditer(r"\w+|\S", tok)]
        else:
            out.append((tok, pos))
    return out


def _outcome(scan, *args):
    try:
        return scan(*args)
    except ParseError as e:
        return str(e)


_PRINTED = {
    "formulas": lambda rng: rng.choice((
        F.print_formula(random_formula(rng, rng.randrange(4))),
        F.print_term(random_term(rng, rng.randrange(4))) + " = " + "S(" * rng.randrange(40)
        + rng.choice(("0", "x1", "S")) + ")" * rng.randrange(40))),
    "meta": lambda rng: M.print_meta(random_meta(rng, rng.randrange(4))),
    "modal": lambda rng: Mo.print_modal(random_modal(rng, rng.randrange(4))),
}

_PIECES = ["S(", "S (", "S", "(", ")", " ", "\n", "\t", "0", "12", "x1", "x", "y", "Sx", "\u0661", "\u00e9",
           "&", "|", "~", "->", "<->", "<", "-", "=", ",", ".", "[", "]", "[]", "<>", "*", "_", "$",
           "forall", "Dem", "sub", "all", "App", "InE", "q", "d*", "p"]


def _mutated(rng, text):
    for _ in range(rng.randrange(4)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randrange(3))
        text = text[:i] + rng.choice(_PIECES) * (rng.random() < 0.8) + text[j:]
    return text


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(SCANNERS)), st.randoms(use_true_random=False),
       st.lists(st.sampled_from(_PIECES), max_size=10))
def test_scanner_agrees_with_the_per_position_referee(syntax, rng, pieces):
    cursor_class, pattern, keywords = SCANNERS[syntax]
    for text in (_mutated(rng, _PRINTED[syntax](rng)), "".join(pieces)):
        assert _outcome(_scanned, cursor_class, text) == _outcome(
            _referee_tokens, pattern, keywords, text), text


def test_scanner_agrees_with_the_referee_on_deep_numerals():
    rng = random.Random(12)
    for depth in (1, 2, 999, 1000):
        for inner, close in (("0", depth), ("x1", depth), ("0", depth - 1), ("0 = S", depth + 1)):
            text = "x0 = " + "S" + " (" * rng.randrange(2) + "(S(" * (depth - 1) + inner + ")" * close
            assert _outcome(_scanned, F._Parser, text) == _outcome(
                _referee_tokens, *SCANNERS["formulas"][1:], text)


# --- the scanner's fast paths --------------------------------------------


def test_a_word_stays_unknown_after_many_valid_parses():
    # the tokens a syntax has accepted are not checked again; a word never is
    for k in range(300):
        F.parse_formula("(x%d = S(%d) -> forall x1. Dem(diag(x1)))" % (k, k))
    with pytest.raises(ParseError) as exc:
        F.parse_formula("y = 0")
    assert str(exc.value) == "unknown identifier 'y' (at position 0)"


def test_a_word_one_syntax_accepts_stays_unknown_to_another():
    M.parse_meta("all n. InE(n) -> Dem[App(n,n)]")
    with pytest.raises(ParseError) as exc:
        F.parse_formula("InE(x0) = 0")
    assert str(exc.value) == "unknown identifier 'InE' (at position 0)"


def test_the_accepted_tokens_stay_bounded():
    for k in range(ACCEPTED + 10):
        F.parse_formula("x%d = 0" % k)
    assert len(F._Parser.accepted) <= ACCEPTED
    with pytest.raises(ParseError) as exc:
        F.parse_formula("x0 = x1 -> y")
    assert str(exc.value) == "unknown identifier 'y' (at position 11)"


def test_the_group_search_finds_each_open_parenthesis_not_after_a_letter():
    lookbehind_first = re.compile(r"(?<![A-Za-z])\(")
    rng = random.Random(2201)
    for _ in range(2000):
        text = "".join(rng.choice("((()) aSx0-é_[") for _ in range(rng.randrange(30)))
        assert ([m.start() for m in _OPEN.finditer(text)]
                == [m.start() for m in lookbehind_first.finditer(text)]), text


def test_a_long_numeral_keeps_its_message():
    for text, message in (
        ("0 = " + "1" * 4301, "numeral of 4301 digits exceeds the limit of 4300 (at position 4)"),
        ("Dem(x" + "1" * 4301 + ")", "numeral of 4301 digits exceeds the limit of 4300 (at position 4)"),
    ):
        with pytest.raises(ParseError) as exc:
            F.parse_formula(text)
        assert str(exc.value) == message
    with pytest.raises(ParseError) as exc:
        decimal("1" * 4301)
    assert str(exc.value) == "numeral of 4301 digits exceeds the limit of 4300"


def test_the_digit_limit_is_read_above_the_least_one_python_allows():
    # below SAFE_DIGITS no limit is read; at the least limit Python allows,
    # one digit more is still refused
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(SAFE_DIGITS)
    try:
        assert F.parse_term("9" * SAFE_DIGITS) == F.Num(int("9" * SAFE_DIGITS))
        assert decimal("9" * SAFE_DIGITS) == int("9" * SAFE_DIGITS)
        with pytest.raises(ParseError) as exc:
            F.parse_term("9" * (SAFE_DIGITS + 1))
        assert str(exc.value) == "numeral of 641 digits exceeds the limit of 640 (at position 0)"
        with pytest.raises(ParseError) as exc:
            decimal("9" * (SAFE_DIGITS + 1))
        assert str(exc.value) == "numeral of 641 digits exceeds the limit of 640"
    finally:
        sys.set_int_max_str_digits(old)


class _RunsOnly(F._Parser):
    """The formula parser without its printed-numeral token: every run of
    `S(` is read as successors of the term after it, up to its `)`."""
    lexeme = r"[()~&|.,=]|(?:S\s*\(\s*)+|->|<->|x[0-9]+|[0-9]+|[A-Za-z_]+"


def _read(cursor_class, text):
    try:
        p = cursor_class(text)
        return p.parse(p.formula)
    except ParseError as e:
        return str(e)


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False))
def test_a_printed_numeral_reads_as_its_runs_read(rng):
    depth = rng.choice((0, 1, 2, 5, NUMERAL_TOKEN - 1, NUMERAL_TOKEN, NUMERAL_TOKEN + 1))
    numeral = "S(" * depth + "0" + ")" * depth
    text = rng.choice(("%s = x1", "Dem(%s)", "x0 = S(%s)", "(Dem(x0) -> diag(%s) = 0)",
                       "sub(%s,x1) = %s", "~(%s = 0)", "forall x1. %s = S(S(%s))")).replace(
        "%s", numeral)
    for _ in range(rng.randrange(3)):
        # a parenthesis or an S dropped, doubled or moved, a space put in
        i = rng.randrange(len(text) + 1)
        text = text[:i] + rng.choice(("", ")", "(", "S", " ", "0")) + text[i + rng.randrange(2):]
    assert _read(F._Parser, text) == _read(_RunsOnly, text), text


class _WordsOnly(M._MetaParser):
    """The meta parser without its designator token: App(i,j) and InE(j)
    are read from their words and punctuation."""
    lexeme = r"<->|->|[~().,\[\]]|[0-9]+|[A-Za-z_][A-Za-z0-9_]*\*?"


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False))
def test_a_designator_token_reads_as_its_words_read(rng):
    term = lambda: rng.choice(("q", "0", "7", "n", "xInE", "q_1", "9" * 18, "9" * 19, "00"))
    text = rng.choice((
        M.print_meta(random_meta(rng, rng.randrange(4))),
        "Dem[App(%s,%s)] -> ~InE(%s)" % (term(), term(), term()),
        "all %s. (InE(%s) <-> ~Dem[~App(%s,%s)])" % (term(), term(), term(), term()),
        # a designator where none is due
        "all %s. InE(%s) App(%s,%s)" % (term(), term(), term(), term()),
    ))
    for _ in range(rng.randrange(1, 4)):
        # a character dropped, a stray `)` or `,` put in, or a span reversed
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randrange(1, 12))
        text = rng.choice((text[:i] + text[i + 1:], text[:i] + rng.choice("),") + text[i:],
                           text[:i] + text[i:j][::-1] + text[j:]))
    assert _read(M._MetaParser, text) == _read(_WordsOnly, text), text
