import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NO_SHRINK, random_meta
from goedellab import meta as M
from goedellab.errors import ParseError, ResourceBound
from goedellab.syntax import walk

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_parse_print_round_trip():
    for text in [
        "all n. (InE(n) <-> ~Dem[App(n,n)])",
        "(Dem[d*] -> d*)",
        "Dem[~App(q,q)]",
        "~Dem[App(q,q)]",
        "(App(q,q) -> ~Dem[App(q,q)])",
        "all n. (Dem[App(n,n)] -> Dem[~InE(n)])",
    ]:
        assert M.print_meta(M.parse_meta(text)) == text


def test_q_is_a_distinguished_constant():
    f = M.parse_meta("Dem[App(q,3)]")
    assert f == M.DemOf(M.App(M.Q, M.Const(3)))


def test_normalization_identifies_assertion_and_designator_negation():
    a = M.parse_meta("~App(q,q)")
    b = M.MNot(M.Assert(M.App(M.Q, M.Q)))
    assert a == b == M.Assert(M.NegD(M.App(M.Q, M.Q)))
    assert M.MNot(M.MNot(M.DemOf(M.App(M.Q, M.Q)))) == M.DemOf(M.App(M.Q, M.Q))
    assert M.parse_meta("~~Dem[App(q,q)]") == M.parse_meta("Dem[App(q,q)]")


def test_negations_fold_at_construction():
    d = M.App(M.Q, M.Const(1))
    assert M.NegD(M.NegD(d)) is d
    x = M.DemOf(d)
    assert M.MNot(M.MNot(x)) is x
    folded = M.MNot(M.Assert(d))
    assert type(folded) is M.Assert and folded == M.Assert(M.NegD(d))
    assert M.MNot(M.Assert(M.NegD(d))) == M.Assert(d)
    read = M.parse_meta("~~~App(q,1) -> Dem[~~InE(q)]")
    assert M.print_meta(read) == "(~App(q,1) -> Dem[InE(q)])"


def _folds_left(phi) -> list:
    """The nodes of phi that construction should have folded away."""
    return [x for x in walk(phi)
            if isinstance(x, M.NegD) and isinstance(x.sub, M.NegD)
            or isinstance(x, M.MNot) and isinstance(x.sub, (M.MNot, M.Assert))]


def _in_one_form(rng, depth):
    built = random_meta(rng, depth)
    parsed = M.parse_meta(M.print_meta(built))
    for phi in (built, parsed):
        assert _folds_left(phi) == []
        assert M.MNot(M.MNot(phi)) == phi
        assert M.MNot(phi) != phi
        # so print -> parse -> print is the identity
        assert M.parse_meta(M.print_meta(phi)) == phi


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(st.integers(0, 4), st.randoms(use_true_random=False))
def test_meta_formulas_are_in_one_form_by_construction(depth, rng):
    _in_one_form(rng, depth)


def test_seeded_meta_formulas_are_in_one_form_by_construction():
    # hypothesis draws a `Random`'s values from a distribution of its own,
    # not the generator's, so the generator's own is sampled here too
    rng = random.Random(2801)
    for _ in range(5000):
        _in_one_form(rng, rng.randrange(5))


def test_ine_expansion():
    f = M.parse_meta("Dem[InE(q)]")
    assert M.expand_ine(f) == M.parse_meta("Dem[App(q,q)]")


def test_substitution():
    f = M.parse_meta("all n. (InE(n) -> Dem[App(n,n)])")
    inst = M.subst_index(f.body, "n", M.Q)
    assert M.print_meta(inst) == "(InE(q) -> Dem[App(q,q)])"


def test_free_metavars_of_deep_quantifiers():
    # in a fresh interpreter, where a RecursionError is a plain traceback.
    # The nodes are built directly, because the parser cannot read 1,500
    # nested quantifiers yet.  The truth table prints the quantified atom
    probe = (
        "from goedellab import meta as M\n"
        "phi = M.MImplies(M.DemOf(M.App(M.MetaVar('n'), M.MetaVar('m'))), M.Assert(M.DVar('d*')))\n"
        "ground = M.DemOf(M.InE(M.MetaVar('n')))\n"
        "for k in range(1500):\n"
        "    phi = M.ForAllIndex('n' if k % 2 else 'k', phi)\n"
        "    ground = M.ForAllIndex('n', ground)\n"
        "print(M.is_ground(phi), M.is_ground(ground))\n"
        "print(M.print_meta(phi).count('all '), M.satisfiable([M.MImplies(phi, phi)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "False True\n1500 True\n"


def test_substitution_and_rewrite_under_deep_quantifiers():
    # in a fresh interpreter, as above; 1,500 nested `all m.` over an atom
    # in n, built as nodes
    probe = (
        "from goedellab import meta as M\n"
        "phi = M.MImplies(M.DemOf(M.NegD(M.InE(M.MetaVar('n')))), M.Assert(M.App(M.Q, M.MetaVar('m'))))\n"
        "for _ in range(1500):\n"
        "    phi = M.ForAllIndex('m', phi)\n"
        "deep = M.subst_index(phi, 'n', M.Const(3))\n"
        "print(M.print_meta(deep) == 'all m. ' * 1500 + '(Dem[~InE(3)] -> App(q,m))')\n"
        "print(M.print_meta(M.expand_ine(deep)) == 'all m. ' * 1500 + '(Dem[~App(q,3)] -> App(q,m))')\n"
        "print(M.subst_index(phi, 'm', M.Q) is phi)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "True\nTrue\nTrue\n"


def test_free_metavars_respect_each_binding():
    for text, free in (("all n. (App(n,m) -> all m. InE(m))", {"m"}),
                       ("(all n. InE(n)) -> InE(n)", {"n"}),
                       ("all n. all n. App(n,q)", set()),
                       ("all n. (all n. InE(n)) -> Dem[App(n,k)]", {"k"}),
                       ("all n. App(n,m) -> Dem[App(k,q)]", {"k", "m"})):
        # ground exactly when no name is free, and once a constant is put
        # in for each free name
        phi = M.parse_meta(text)
        for name in sorted(free):
            assert not M.is_ground(phi), text
            phi = M.subst_index(phi, name, M.Const(0))
        assert M.is_ground(phi), text


def test_tautological_consequence_of_the_reconstruction():
    premises = [
        M.parse_meta("all n. (InE(n) <-> ~Dem[App(n,n)])"),
        M.parse_meta("(Dem[InE(n)] -> InE(n))"),
        M.parse_meta("all n. (~Dem[App(n,n)] -> Dem[InE(n)])"),
    ]
    conclusion = M.parse_meta("all n. (Dem[App(q,n)] <-> ~Dem[App(n,n)])")
    assert M.tautological_consequence(premises, conclusion)
    # dropping the completeness premise breaks the backward direction
    assert not M.tautological_consequence(premises[:2], conclusion)


def test_satisfiability():
    assert M.satisfiable([M.parse_meta("Dem[App(q,q)]")])
    assert not M.satisfiable(
        [M.parse_meta("(Dem[App(q,q)] <-> ~Dem[App(q,q)])")]
    )
    # Dem-atoms over distinct designators are independent
    assert M.satisfiable(
        [M.parse_meta("Dem[App(q,q)]"), M.parse_meta("Dem[~App(q,q)]")]
    )


def test_a_quantifier_under_a_connective_is_one_atom():
    x = M.parse_meta("Dem[App(1,1)] -> all n. Dem[App(n,n)]")
    assert M.satisfiable([x])
    assert not M.satisfiable([x, M.MNot(x)])
    # the body's 15 atoms are not counted: the whole quantifier is one
    big = " -> ".join("Dem[App(%d,n)]" % i for i in range(15))
    assert M.tautological_consequence([M.parse_meta("~(d* -> all n. %s)" % big)], M.parse_meta("d*"))


def test_atom_bound_is_enforced():
    formulas = [M.parse_meta("Dem[App(%d,%d)]" % (i, i)) for i in range(15)]
    with pytest.raises(ResourceBound):
        M.satisfiable(formulas)


def test_parse_errors():
    with pytest.raises(ParseError):
        M.parse_meta("Dem[")
    with pytest.raises(ParseError):
        M.parse_meta("InE(n) extra")
    with pytest.raises(ParseError):
        M.parse_meta("all . InE(n)")
