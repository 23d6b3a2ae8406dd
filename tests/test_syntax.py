"""The connective rules shared by the formula, modal and meta parsers: one
precedence and associativity table run through all three."""

import pytest

from goedellab import formulas as F, meta as M, modal as Mo
from goedellab.errors import ParseError


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
