import copy
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_formula
from goedellab import formulas as F
from goedellab.errors import NotClosed, ParseError
from goedellab.syntax import decimal, is_natural


def test_parse_core_connectives():
    f = F.parse_formula("~Dem(x0) -> 0 = S(0)")
    assert f == F.Implies(F.Not(F.Dem(F.Var(0))), F.Eq(F.ZERO, F.Succ(F.ZERO)))


def test_parse_forall_scopes_to_the_right():
    f = F.parse_formula("forall x1. x1 = x1 -> x1 = x1")
    assert isinstance(f, F.ForAll)
    assert isinstance(f.body, F.Implies)


def test_abbreviations_desugar():
    a, b = F.Dem(F.Var(0)), F.Eq(F.ZERO, F.ZERO)
    assert F.parse_formula("Dem(x0) & 0 = 0") == F.Not(F.Implies(a, F.Not(b)))
    assert F.parse_formula("Dem(x0) | 0 = 0") == F.Implies(F.Not(a), b)
    assert F.parse_formula("exists x0. Dem(x0)") == F.Not(F.ForAll(0, F.Not(a)))
    iff = F.parse_formula("Dem(x0) <-> 0 = 0")
    assert iff == F.Not(F.Implies(F.Implies(a, b), F.Not(F.Implies(b, a))))


def test_print_parenthesizes_quantifier_on_the_left_of_arrow():
    f = F.Implies(F.ForAll(0, F.Eq(F.Var(0), F.Var(0))), F.Eq(F.ZERO, F.ZERO))
    text = F.print_formula(f)
    assert F.parse_formula(text) == f


def test_numerals():
    assert F.Num(0) == F.ZERO
    assert F.Num(3) == F.Succ(F.Succ(F.Succ(F.ZERO)))
    assert F.Num(169).value == 169
    big = F.parse_term("S(" * 1 + "0" + ")" * 1)
    assert big.value == 1


def test_successor_of_a_numeral_is_the_next_numeral():
    assert F.Succ(F.ZERO) == F.Num(1)
    assert F.Succ(F.Num(1500)) == F.Num(1501)
    assert F.parse_term("S(1500)") == F.Num(1501)
    assert F.print_term(F.parse_term("S(1000)")) == "1001"
    assert F.print_term(F.parse_term("S(999)")) == "S(" * 1000 + "0" + ")" * 1000
    assert isinstance(F.Succ(F.Var(0)), F.Succ)
    assert F.substitute(F.parse_formula("Dem(S(x0))"), 0, F.Num(1234)) == F.Dem(F.Num(1235))


def test_terms_copy_and_pickle():
    f = F.parse_formula("Dem(S(sub(x0, S(2)))) -> S(x1) = 5")
    assert copy.copy(f) == copy.deepcopy(f) == pickle.loads(pickle.dumps(f)) == f


def test_numerals_compare_hash_print_and_parse_without_recursion():
    assert F.parse_term("1000") == F.parse_term("1000") == F.Num(1000)
    for n in list(range(0, F.NUMERAL_CHAIN_LIMIT, 37)) + [999, 1000, 1001, 10**30]:
        t = F.Num(n)
        assert t == F.Num(n) and hash(t) == hash(F.Num(n))
        assert F.parse_term(F.print_term(t)) == t


def test_parse_large_decimal_literal_is_compact():
    t = F.parse_term("7091786130187500000")
    assert isinstance(t, F.Num)
    assert t.value == 7091786130187500000


def test_free_vars_and_substitute():
    f = F.parse_formula("forall x1. x0 = x1")
    assert F.free_vars(f) == {0}
    g = F.substitute(f, 0, F.Num(2))
    assert F.print_formula(g) == "forall x1. S(S(0)) = x1"
    with pytest.raises(NotClosed):
        F.substitute(f, 0, F.Var(2))


def test_substitute_respects_binding():
    f = F.parse_formula("forall x0. x0 = x0")
    assert F.substitute(f, 0, F.ZERO) == f


def test_substitute_returns_what_it_does_not_change_as_itself():
    f = F.parse_formula("(Dem(x2) -> forall x0. (x0 = x1 -> ~x0 = S(x2)))")
    g = F.substitute(f, 1, F.Num(3))
    assert F.print_formula(g) == "(Dem(x2) -> forall x0. (x0 = S(S(S(0))) -> ~(x0 = S(x2))))"
    # the antecedent and the negation have nothing to replace
    assert g.left is f.left and g.right.body.right is f.right.body.right
    # nor has anything where x0 is bound, or x5 is not free
    assert F.substitute(f, 0, F.ZERO) is f and F.substitute(f, 5, F.ZERO) is f


_DEEP = """
from goedellab import formulas as F
f = F.Eq(F.Var(0), F.Var(1))
for _ in range(1500):
    f = F.Not(f)
t = F.Var(0)
for _ in range(1500):
    t = F.Succ(t)
g = F.Implies(f, F.Dem(t))
h = F.substitute(g, 0, F.Num(3))
print(sorted(F.free_vars(g)), sorted(F.free_vars(h)), h.right == F.Dem(F.Num(1503)),
      F.substitute(g, 1, F.ZERO).right is g.right, F.substitute(g, 2, F.ZERO) is g)
"""


def test_substitute_and_free_vars_walk_1500_nested_negations():
    # in a child process: a RecursionError over deep nodes is slow to fail
    # inside pytest
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", _DEEP], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.stdout == "[0, 1] [1] True True True\n", out.stderr


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        F.parse_formula("Dem(x0) ->")
    with pytest.raises(ParseError):
        F.parse_formula("0 = 0 extra")
    with pytest.raises(ParseError):
        F.parse_formula("forall 0. 0 = 0")


def test_decimal_literals_are_ascii_digits_only():
    assert is_natural("0012") and decimal("0012") == 12
    # Arabic-Indic, fullwidth and superscript digits; int() reads the first two
    for text in ("\u0661\u0662", "\uff11", "\u00b2", "", "+1"):
        assert not is_natural(text), text
    with pytest.raises(ParseError, match="unexpected character"):
        F.parse_formula("x0 = \u0661\u0662")


def test_round_trip_seeded_sample():
    rng = random.Random(7)
    for _ in range(500):
        f = random_formula(rng, rng.randrange(1, 6))
        assert F.parse_formula(F.print_formula(f)) == f


@st.composite
def _terms(draw, depth=3):
    if depth == 0:
        return draw(
            st.sampled_from([F.ZERO, F.Var(0), F.Var(1), F.Num(1500), F.Num(2**40)])
        )
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return F.Succ(draw(_terms(depth=depth - 1)))
    if kind == 1:
        return F.Sub(draw(_terms(depth=depth - 1)), draw(_terms(depth=depth - 1)))
    if kind == 2:
        return F.Diag(draw(_terms(depth=depth - 1)))
    return draw(_terms(depth=0))


@st.composite
def _formulas(draw, depth=3):
    if depth == 0:
        return draw(
            st.sampled_from([F.Dem(F.Var(0)), F.Eq(F.ZERO, F.Var(1)), F.Dem(F.ZERO)])
        )
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return F.Not(draw(_formulas(depth=depth - 1)))
    if kind == 1:
        return F.Implies(draw(_formulas(depth=depth - 1)), draw(_formulas(depth=depth - 1)))
    if kind == 2:
        return F.ForAll(draw(st.integers(0, 2)), draw(_formulas(depth=depth - 1)))
    if kind == 3:
        return F.Eq(draw(_terms(depth=depth - 1)), draw(_terms(depth=depth - 1)))
    return F.Dem(draw(_terms(depth=depth - 1)))


@settings(max_examples=200, deadline=None)
@given(_formulas())
def test_printer_parser_round_trip_property(f):
    assert F.parse_formula(F.print_formula(f)) == f
