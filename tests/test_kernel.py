import itertools

import pytest

from goedellab import codec, kernel
from goedellab import formulas as F


def _taut(f: F.Formula) -> bool:
    """Independent propositional truth-table oracle: non-implication,
    non-negation subformulas are atoms."""
    atoms: dict[str, F.Formula] = {}

    def scan(g):
        if isinstance(g, F.Implies):
            scan(g.left)
            scan(g.right)
        elif isinstance(g, F.Not):
            scan(g.sub)
        else:
            atoms.setdefault(F.print_formula(g), g)

    def ev(g, a):
        if isinstance(g, F.Implies):
            return (not ev(g.left, a)) or ev(g.right, a)
        if isinstance(g, F.Not):
            return not ev(g.sub, a)
        return a[F.print_formula(g)]

    scan(f)
    names = sorted(atoms)
    return all(
        ev(f, dict(zip(names, vals)))
        for vals in itertools.product((False, True), repeat=len(names))
    )


A = F.Dem(F.Var(0))


def test_identity_proof_valid_and_sound():
    proof = kernel.identity_proof(A)
    assert kernel.check_proof(proof) == kernel.VALID
    assert len(proof.steps) == 5
    assert proof.last_formula() == F.Implies(A, A)
    for f, _ in proof.steps:
        assert _taut(f)


def test_identity_not_shorter_within_axiom_pool():
    """a -> a is not itself an axiom instance and is not reachable with a
    single modus ponens over instances bound within the proof's own
    subformula pool (an exhaustive check at that binding depth)."""
    target = F.Implies(A, A)
    pool = [A, target, F.Implies(A, target), F.Implies(target, A)]
    instances = []
    for x, y in itertools.product(pool, repeat=2):
        instances.append(F.Implies(x, F.Implies(y, x)))  # P1
        instances.append(
            F.Implies(F.Implies(F.Not(x), F.Not(y)), F.Implies(y, x))  # P3
        )
    for x, y, z in itertools.product(pool, repeat=3):
        instances.append(  # P2
            F.Implies(
                F.Implies(x, F.Implies(y, z)),
                F.Implies(F.Implies(x, y), F.Implies(x, z)),
            )
        )
    assert target not in instances
    one_mp = {
        imp.right
        for imp in instances
        if isinstance(imp, F.Implies) and imp.left in instances
    }
    assert target not in one_mp


def test_mutated_proof_fails_at_the_mutated_step():
    proof = kernel.identity_proof(A)
    steps = list(proof.steps)
    f2, just2 = steps[1]
    steps[1] = (F.Implies(A, F.Implies(A, A)), just2)  # corrupt the P1 instance
    verdict = kernel.check_proof(kernel.ProofObject(tuple(steps)))
    assert not verdict.ok
    assert verdict.step == 2
    assert "instance" in verdict.reason


def test_modus_ponens_is_strictly_backward():
    bad = kernel.ProofObject(
        ((F.Eq(F.ZERO, F.ZERO), kernel.ModusPonens(2, 1)),)
    )
    verdict = kernel.check_proof(bad)
    assert not verdict.ok and "forward" in verdict.reason


def test_eval_fact_checks_true_equations_only():
    # sub(0, S(S(0))) evaluated independently: Dem S S 0 -> 2^5 3^9 5^9 7^8
    expected = 2**5 * 3**9 * 5**9 * 7**8
    good = F.Eq(F.Sub(F.ZERO, F.Num(2)), F.Num(expected))
    assert kernel.check_proof(
        kernel.ProofObject(((good, kernel.EvalFact()),))
    ) == kernel.VALID
    bad = F.Eq(F.Sub(F.ZERO, F.Num(2)), F.Num(expected + 1))
    verdict = kernel.check_proof(kernel.ProofObject(((bad, kernel.EvalFact()),)))
    assert not verdict.ok and "false" in verdict.reason


def test_eval_fact_respects_resource_bounds():
    # an index past the enumeration guard is reported, not computed
    f = F.Eq(F.Sub(F.Num(10**6), F.ZERO), F.ZERO)
    verdict = kernel.check_proof(kernel.ProofObject(((f, kernel.EvalFact()),)))
    assert not verdict.ok and "evaluation failed" in verdict.reason


def test_inst_requires_closed_witness():
    body = F.Eq(F.Var(0), F.Var(0))
    bind = (("A", body), ("t", F.Var(1)), ("x", 0))
    f = F.Implies(F.ForAll(0, body), F.Eq(F.Var(1), F.Var(1)))
    verdict = kernel.check_proof(
        kernel.ProofObject(((f, kernel.Axiom("INST", bind)),))
    )
    assert not verdict.ok and "closed" in verdict.reason


def test_generalization_and_premises():
    eq = F.Eq(F.Var(0), F.Var(0))
    proof = kernel.ProofObject(
        (
            (eq, kernel.Premise("refl")),
            (F.ForAll(0, eq), kernel.Generalize(1, 0)),
        )
    )
    assert kernel.check_proof(proof, {"refl": eq}) == kernel.VALID
    missing = kernel.check_proof(proof, {})
    assert not missing.ok and "undeclared" in missing.reason


PROOF_TEXT = """
# the identity derivation, in file form
1. (Dem(x0) -> ((Dem(x0) -> Dem(x0)) -> Dem(x0))) -> ((Dem(x0) -> (Dem(x0) -> Dem(x0))) -> (Dem(x0) -> Dem(x0))) ; P2[A := Dem(x0); B := Dem(x0) -> Dem(x0); C := Dem(x0)]
2. (Dem(x0) -> ((Dem(x0) -> Dem(x0)) -> Dem(x0))) ; P1[A := Dem(x0); B := Dem(x0) -> Dem(x0)]
3. ((Dem(x0) -> (Dem(x0) -> Dem(x0))) -> (Dem(x0) -> Dem(x0))) ; MP 1 2
4. (Dem(x0) -> (Dem(x0) -> Dem(x0))) ; P1[A := Dem(x0); B := Dem(x0)]
5. (Dem(x0) -> Dem(x0)) ; MP 3 4
"""


def test_proof_file_round_trip():
    proof, premises = kernel.parse_proof_file(PROOF_TEXT)
    assert premises == {}
    assert kernel.check_proof(proof) == kernel.VALID
    assert proof.steps == kernel.identity_proof(A).steps


def test_proof_file_rejects_bad_numbering():
    with pytest.raises(kernel.ParseError):
        kernel.parse_proof_file("2. 0 = 0 ; EVAL")


def test_proof_code_of_shipped_proof_is_lazy():
    proof = kernel.identity_proof(A)
    pc = codec.encode_proof([f for f, _ in proof.steps])
    assert codec.decode_proof(pc) == [f for f, _ in proof.steps]
