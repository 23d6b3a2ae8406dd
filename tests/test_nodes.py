"""The node base (`syntax.Node`) of the AST classes of the three syntaxes
and of every other record: hash, equality and repr as a frozen
dataclass's, without recursion, copies that are the node itself, and
pickles that never carry a cached hash."""

import copy
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_formula, random_meta, random_modal
from goedellab import audit, codec, diagonal, kernel
from goedellab import formulas as F
from goedellab import meta as M
from goedellab import modal as Md
from goedellab.syntax import Node, walk

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

DEPTH = 5000

SYNTAXES = {
    "formula": (random_formula, F.print_formula),
    "meta": (random_meta, M.print_meta),
    "modal": (random_modal, Md.print_modal),
}


def _shadow(x):
    """x as nested tuples of its field values: a frozen dataclass hashes to
    the hash of this tuple."""
    return tuple(_shadow(v) if isinstance(v, Node) else v for v in x._values())


def _object_chain(bottom: int) -> F.Formula:
    t = F.Var(1)
    for _ in range(DEPTH):
        t = F.Succ(t)
    f = F.Eq(t, F.Var(bottom))
    for _ in range(DEPTH):
        f = F.Not(f)
    return f


def _meta_chain(bottom: str) -> M.MetaFormula:
    # negations fold as they are built, so each one guards an implication
    phi = M.Assert(M.DVar(bottom + "*"))
    for _ in range(DEPTH):
        phi = M.MNot(M.MImplies(phi, M.DemOf(M.InE(M.Q))))
    return phi


def _modal_chain(bottom: str) -> Md.ModalFormula:
    f = Md.Atom(bottom)
    for _ in range(DEPTH):
        f = Md.Neg(Md.Box(f))
    return f


def test_deep_chains_hash_compare_and_print():
    for build, bottoms, head in [
        (_object_chain, (0, 2), "Not(sub=Not(sub="),
        (_meta_chain, ("d", "e"), "MNot(sub=MImplies(left=MNot(sub=MImplies("),
        (_modal_chain, ("p", "q"), "Neg(sub=Box(sub=Neg("),
    ]:
        a, b, other = build(bottoms[0]), build(bottoms[0]), build(bottoms[1])
        assert a == b and a != other
        assert hash(a) == hash(b)
        # and again with every hash cached
        assert a == b and a != other and hash(a) != hash(other)
        text = repr(a)
        assert text.startswith(head) and text == repr(b) != repr(other)


def test_deep_chains_copy_as_themselves():
    for chain in (_object_chain(0), _meta_chain("d"), _modal_chain("p")):
        assert copy.copy(chain) is chain
        assert copy.deepcopy(chain) is chain
        # inside a container too, where deepcopy goes through the memo
        pair = copy.deepcopy([chain, chain])
        assert pair[0] is chain and pair[1] is chain


def test_repr_keeps_the_dataclass_format():
    f = F.Not(F.Eq(F.Succ(F.Var(0)), F.Num(3)))
    assert repr(f) == "Not(sub=Eq(left=Succ(arg=Var(index=0)), right=Num(value=3)))"
    assert repr(M.ForAllIndex("n", M.Assert(M.App(M.Q, M.MetaVar("n"))))) == (
        "ForAllIndex(var='n', body=Assert(desig=App(func=Const(value='q'), "
        "arg=MetaVar(name='n'))))")


def test_walk_is_pre_order_left_to_right():
    f = F.parse_formula("forall x1. (Dem(sub(x0, x1)) -> ~x0 = S(x2))")
    assert [type(x).__name__ for x in walk(f)] == [
        "ForAll", "Implies", "Dem", "Sub", "Var", "Var", "Not", "Eq", "Var", "Succ", "Var"]
    assert [x.index for x in walk(f) if isinstance(x, F.Var)] == [0, 1, 0, 2]
    p = Md.Atom("p")
    assert [x for x in walk(Md.Imp(p, p)) if isinstance(x, Md.Atom)] == [p, p]


_ast = st.tuples(st.sampled_from(sorted(SYNTAXES)), st.integers(0, 3),
                 st.randoms(use_true_random=False))


@settings(max_examples=300, deadline=None)
@given(_ast, st.integers(0, 3), st.randoms(use_true_random=False))
def test_nodes_hash_compare_and_copy_as_values(drawn, depth2, rng2):
    syntax, depth, rng = drawn
    build, show = SYNTAXES[syntax]
    x, y = build(rng, depth), build(rng2, depth2)
    for node in walk(x):
        assert hash(node) == hash(_shadow(node))
    assert (x == y) == (show(x) == show(y))
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert twin == x and hash(twin) == hash(x) and show(twin) == show(x)


def test_a_pickled_node_does_not_carry_its_hash():
    atom = Md.Atom("p")
    hash(atom)
    data = pickle.dumps(atom).hex()
    code = ("import pickle, sys\n"
            "atom = pickle.loads(bytes.fromhex(sys.argv[1]))\n"
            "print(hash(atom) == hash(('p',)), atom == __import__('goedellab.modal').modal.Atom('p'))\n")
    # at least one of the two seeds differs from this process's
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        out = subprocess.run([sys.executable, "-c", code, data], env=env, capture_output=True,
                             text=True, timeout=60)
        assert out.stdout == "True True\n", out.stderr


_ZERO = F.Eq(F.Num(0), F.Num(0))
_MODEL = Md.KripkeModel(2, frozenset({(0, 1)}), (("p", frozenset({1})),))
_REFL = M.Assert(M.DVar("d*"))
_ASSUMPTION = audit.Assumption("REFL", _REFL, "reflection")
_STEP = audit.Step("1", "UseAssumption", ("REFL", None), "")
_CHECKED = audit.CheckedStep("1", _REFL, "UseAssumption", True, None, frozenset({"REFL"}),
                             frozenset(), "")
_FINDING = audit.Finding("11", "iff-neg", False, "equivalence", True)

# every record that is not an AST: a builder of one instance, and the repr
# it had as a dataclass (AuditReport's less `minimal_inconsistent_subsets=[]`,
# a field that no caller set and that is gone)
RECORDS = {
    "CodeRLE": (lambda: codec.CodeRLE(((1, 2), (3, 1))), "CodeRLE(runs=((1, 2), (3, 1)))"),
    "DiagonalCertificate": (
        lambda: diagonal.DiagonalCertificate(F.Eq(F.Var(0), F.Num(0)), 7, _ZERO, 42, True),
        "DiagonalCertificate(psi=Eq(left=Var(index=0), right=Num(value=0)), q=7, "
        "sentence=Eq(left=Num(value=0), right=Num(value=0)), sentence_code=42, "
        "fixed_point_checked=True)"),
    "Axiom": (lambda: kernel.Axiom("P1", (("A", _ZERO), ("B", _ZERO))),
              "Axiom(schema='P1', binding=(('A', Eq(left=Num(value=0), right=Num(value=0))), "
              "('B', Eq(left=Num(value=0), right=Num(value=0)))))"),
    "ModusPonens": (lambda: kernel.ModusPonens(1, 0), "ModusPonens(implication=1, antecedent=0)"),
    "Generalize": (lambda: kernel.Generalize(1, 0), "Generalize(step=1, var=0)"),
    "EvalFact": (lambda: kernel.EvalFact(), "EvalFact()"),
    "Premise": (lambda: kernel.Premise("H"), "Premise(label='H')"),
    "ProofObject": (lambda: kernel.ProofObject(((_ZERO, kernel.EvalFact()),)),
                    "ProofObject(steps=((Eq(left=Num(value=0), right=Num(value=0)), "
                    "EvalFact()),))"),
    "Verdict": (lambda: kernel.Verdict(False, 2, "bad"),
                "Verdict(ok=False, step=2, reason='bad')"),
    "KripkeModel": (lambda: Md.KripkeModel(2, frozenset({(0, 1)}), (("p", frozenset({1})),)),
                    "KripkeModel(worlds=2, relation=frozenset({(0, 1)}), "
                    "valuation=(('p', frozenset({1})),))"),
    "ModelWitness": (lambda: Md.ModelWitness(_MODEL, 1),
                     "ModelWitness(model=KripkeModel(worlds=2, relation=frozenset({(0, 1)}), "
                     "valuation=(('p', frozenset({1})),)), world=1)"),
    "Assumption": (lambda: audit.Assumption("REFL", _REFL, "reflection"),
                   "Assumption(label='REFL', schema=Assert(desig=DVar(name='d*')), "
                   "provenance='reflection')"),
    "Step": (lambda: audit.Step("1", "UseAssumption", ("REFL", None), ""),
             "Step(id='1', rule='UseAssumption', args=('REFL', None), provenance='')"),
    "DerivationScript": (
        lambda: audit.DerivationScript((_ASSUMPTION,), (_STEP,)),
        "DerivationScript(assumptions=(Assumption(label='REFL', schema=Assert(desig="
        "DVar(name='d*')), provenance='reflection'),), steps=(Step(id='1', "
        "rule='UseAssumption', args=('REFL', None), provenance=''),))"),
    "CheckedStep": (
        lambda: audit.CheckedStep("1", _REFL, "UseAssumption", True, None, frozenset({"REFL"}),
                                  frozenset(), ""),
        "CheckedStep(id='1', formula=Assert(desig=DVar(name='d*')), rule='UseAssumption', "
        "ok=True, reason=None, assumptions=frozenset({'REFL'}), hypotheses=frozenset(), "
        "provenance='')"),
    "Finding": (lambda: audit.Finding("11", "iff-neg", False, "equivalence", True),
                "Finding(step='11', pattern='iff-neg', requires_consistency=False, "
                "detail='equivalence', unsat_confirmed=True)"),
    "AuditReport": (
        lambda: audit.AuditReport([_CHECKED], [_FINDING], {"App(q,q)": "overdetermined"},
                                  frozenset({"REFL"}), ["REFL"]),
        "AuditReport(steps=[CheckedStep(id='1', formula=Assert(desig=DVar(name='d*')), "
        "rule='UseAssumption', ok=True, reason=None, assumptions=frozenset({'REFL'}), "
        "hypotheses=frozenset(), provenance='')], contradictions=[Finding(step='11', "
        "pattern='iff-neg', requires_consistency=False, detail='equivalence', "
        "unsat_confirmed=True)], classification={'App(q,q)': 'overdetermined'}, "
        "consumed=frozenset({'REFL'}), assumption_labels=['REFL'])"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_values_as_frozen_dataclasses_were(name):
    build, text = RECORDS[name]
    r, twin = build(), build()
    assert isinstance(r, Node) and type(r).__name__ == name and not list(walk(r))[1:]
    assert repr(r) == text
    assert r == twin and not r != twin
    # a record of another class, even of the same name and fields, with the
    # same values is another value
    fields = type(r)._fields
    other = type(name, (Node,), {"__slots__": fields, "_fields": fields, "_data": fields})
    assert r != other(*r._values()) and not r == other(*r._values())
    try:
        h = hash(r._values())
    except TypeError:
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == h == hash(twin)
    for copied in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert copied == r and repr(copied) == text


def test_generalize_is_not_modus_ponens_and_evalfact_has_no_fields():
    assert kernel.Generalize(1, 0) != kernel.ModusPonens(1, 0)
    assert kernel.EvalFact() == kernel.EvalFact() and repr(kernel.EvalFact()) == "EvalFact()"
    assert hash(kernel.EvalFact()) == hash(())
    assert repr(kernel.VALID) == "Verdict(ok=True, step=None, reason=None)"
