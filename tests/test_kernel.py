import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_formula
from goedellab import kernel
from goedellab import formulas as F
from goedellab.errors import ParseError
from goedellab.syntax import KEY, SHARED


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


@pytest.mark.parametrize("text, message", [
    ("١. 0 = 0 ; EVAL", "step line needs a leading number, got '١'"),
    ("9" * 5000 + ". 0 = 0 ; EVAL", "numeral of 5000 digits exceeds the limit of 4300"),
    ("01. 0 = 0 ; EVAL\n2. 0 = 0 ; MP 1 x1", "MP cites two steps"),
    # the literals are all checked before either is converted
    ("1. 0 = 0 ; EVAL\n2. 0 = 0 ; MP %s +1" % ("9" * 5000), "MP cites two steps"),
    ("1. 0 = 0 ; EVAL\n2. 0 = 0 ; MP 1 %s" % ("9" * 5000),
     "numeral of 5000 digits exceeds the limit of 4300"),
    ("1. 0 = 0 ; EVAL\n2. 0 = 0 ; GEN 1 ١", "GEN cites a step and a variable"),
    ("1. 0 = 0 ; EVAL\n2. 0 = 0 ; GEN 1 x" + "9" * 5000,
     "numeral of 5000 digits exceeds the limit of 4300"),
    ("1. 0 = 0 ; INST[x := x١; A := 0 = 0; t := 0]", "binding x needs a variable, got 'x١'"),
])
def test_the_literals_of_a_proof_line_keep_their_messages(text, message):
    with pytest.raises(ParseError) as exc:
        kernel.parse_proof_file(text)
    assert str(exc.value) == message


# --- a group restated in a file is read once ------------------------------
#
# A file is a list of lines: ("premise", label, text), ("step", text, just)
# or a blank line (""), where just is "EVAL", "MP i j" or a pair (a, b) of
# texts for P1[A := a; B := b].


def _file_text(lines) -> str:
    out, k = [], 0
    for line in lines:
        if line == "":
            out.append("")
        elif line[0] == "premise":
            out.append("premise %s : %s" % line[1:])
        else:
            k += 1
            just = line[2] if isinstance(line[2], str) else "P1[A := %s; B := %s]" % line[2]
            out.append("%d. %s ; %s" % (k, line[1], just))
    return "\n".join(out) + "\n"


def _read_alone(lines):
    """What the file must give: each text parsed alone, in the order the
    kernel reports their errors (a step's formula, then its binding), as
    the reprs of the steps and premises, or the first error, with its line."""
    steps, premises = [], {}
    for n, line in enumerate(lines, start=1):
        if line == "":
            continue
        try:
            if line[0] == "premise":
                premises[line[1]] = F.parse_formula(line[2])
                continue
            f, just = F.parse_formula(line[1]), line[2]
            if just == "EVAL":
                just = kernel.EvalFact()
            elif isinstance(just, str):
                just = kernel.ModusPonens(*map(int, just.split()[1:]))
            else:
                just = kernel.Axiom("P1", (("A", F.parse_formula(just[0])),
                                           ("B", F.parse_formula(just[1]))))
            steps.append((f, just))
        except ParseError as e:
            return "line %d: %s" % (n, e)
    return repr(tuple(steps)), repr(premises)


def _read_in_file(lines):
    try:
        proof, premises = kernel.parse_proof_file(_file_text(lines))
    except ParseError as e:
        return str(e)
    return repr(proof.steps), repr(premises)


def _restated(rng, texts) -> str:
    """A formula text that restates earlier texts as groups, in a shape
    that reuse must read as the text alone reads it."""
    # often the text just before: a restatement of the previous step
    a = texts[-1] if rng.random() < 0.4 else rng.choice(texts)
    b = rng.choice(texts)
    return rng.choice((
        a,
        "(%s)" % a,
        "(%s -> %s)" % (a, b),
        "~(%s) -> ~(%s)" % (a, b),
        "forall x1. (%s)" % a,
        # whitespace variants of a recorded group
        "( %s ) -> (%s )" % (a, b),
        "(%s)  |\t(%s)" % (a, b),
        # "(a) -> (b)" read whole, then as the prefix of a longer text
        "(%s) -> (%s)" % (a, b),
        "(%s) -> (%s) & %s" % (a, b, a),
        "%s & %s" % (a, b),
        "%s -> %s" % (a, b),
        # a group glued to a run of S(, or in a term's place
        "S((%s)) = 0" % a,
        "S (S((%s))) = 0" % a,
        "Dem((%s))" % a,
        # a fault after a reused group
        "(%s) -> (%s) )" % (a, b),
        "(%s) & $" % a,
        "(%s) -> y" % a,
    ))


def _random_file(rng):
    texts = [F.print_formula(random_formula(rng, rng.randrange(4))) for _ in range(3)]
    lines = []
    for _ in range(rng.randrange(1, 9)):
        text = _restated(rng, texts)
        r = rng.random()
        if r < 0.15:
            lines.append(("premise", "H%d" % len(lines), text))
        elif r < 0.2:
            lines.append("")
        elif r < 0.6:
            lines.append(("step", text, (_restated(rng, texts), _restated(rng, texts))))
        else:
            lines.append(("step", text, rng.choice(("EVAL", "MP 1 1"))))
        texts.append(text)
    return lines


@settings(max_examples=500, deadline=None)
@given(st.randoms(use_true_random=False))
def test_a_file_reads_each_formula_as_it_reads_alone(rng):
    lines = _random_file(rng)
    assert _read_in_file(lines) == _read_alone(lines), _file_text(lines)


@pytest.mark.parametrize("lines", [
    # the prefix trap: "(a) -> (b)" is not one group, so it does not match
    # the start of "(a) -> (b) & c"
    [("step", "(0 = 0) -> (Dem(x1))", "EVAL"),
     ("step", "(0 = 0) -> (Dem(x1)) & x2 = x2", "EVAL")],
    # a whitespace variant is scanned, the recorded spelling reused
    [("step", "(0 = 0 -> Dem(x1))", "EVAL"),
     ("step", "( 0 = 0 -> Dem(x1)) -> (0 = 0 -> Dem(x1))", "EVAL")],
    # a recorded group glued to a run of S( is the error of the text alone
    [("step", "(0 = 0 -> Dem(x1))", "EVAL"), ("step", "x0 = S((0 = 0 -> Dem(x1)))", "EVAL")],
    [("step", "(0 = 0 -> Dem(x1))", "EVAL"), ("step", "Dem((0 = 0 -> Dem(x1)))", "EVAL")],
    # a fault after a reused group, in a formula and in a binding
    [("step", "(0 = 0 -> 0 = 0)", "EVAL"), ("step", "((0 = 0 -> 0 = 0) -> 0 = )", "EVAL")],
    [("premise", "H", "(0 = 0 -> 0 = 0)"), "",
     ("step", "(0 = 0 -> 0 = 0)", ("(0 = 0 -> 0 = 0)", "(0 = 0 -> 0 = 0) $"))],
])
def test_reuse_reads_each_text_as_alone(lines):
    assert _read_in_file(lines) == _read_alone(lines)


# weakening by P1 and MP, each formula printed as the workload prints it
_CHAIN = [
    ("0 = 0", "EVAL"),
    ("(0 = 0 -> (Dem(x1) -> 0 = 0))", "P1[A := 0 = 0; B := Dem(x1)]"),
    ("(Dem(x1) -> 0 = 0)", "MP 2 1"),
    ("((Dem(x1) -> 0 = 0) -> (x2 = x2 -> (Dem(x1) -> 0 = 0)))",
     "P1[A := (Dem(x1) -> 0 = 0); B := x2 = x2]"),
    ("(x2 = x2 -> (Dem(x1) -> 0 = 0))", "MP 4 3"),
    ("((x2 = x2 -> (Dem(x1) -> 0 = 0)) -> (0 = 0 -> (x2 = x2 -> (Dem(x1) -> 0 = 0))))",
     "P1[A := (x2 = x2 -> (Dem(x1) -> 0 = 0)); B := 0 = 0]"),
    ("(0 = 0 -> (x2 = x2 -> (Dem(x1) -> 0 = 0)))", "MP 6 5"),
]
CHAIN = "".join("%d. %s ; %s\n" % (k, f, j) for k, (f, j) in enumerate(_CHAIN, start=1))


def test_a_chain_shares_the_node_of_each_restated_group():
    proof, _ = kernel.parse_proof_file(CHAIN)
    f = [s[0] for s in proof.steps]
    assert kernel.check_proof(proof) == kernel.VALID
    for mp, p1 in ((3, 4), (5, 6)):
        # the MP formula is the node that the next P1 step restates: as
        # its antecedent, the consequent of its consequent and its binding A
        mp, p1, binding = f[mp - 1], f[p1 - 1], proof.steps[p1 - 1][1].bound()
        assert p1.left is mp and p1.right.right is mp and binding["A"] is mp
    # and the MP formula after that P1 step holds it as its consequent
    assert f[4].right is f[2] and f[6].right is f[4]
    # read alone, no node is shared
    alone = F.parse_formula("((Dem(x1) -> 0 = 0) -> (x2 = x2 -> (Dem(x1) -> 0 = 0)))")
    assert alone == f[3] and alone.left is not alone.right.right


def test_a_memo_keeps_the_last_groups_that_share_a_start():
    memo = {}
    texts = ["(" * KEY + "x0 = %d" % k + ")" * KEY for k in range(3 * SHARED)]
    for text in texts:
        F.parse_formula(text, memo)
    # each `(` is tried against at most SHARED groups, however many a file has
    assert max(len(groups) for groups in memo.values()) == SHARED
    # the last ones recorded are kept: restating the last text reuses it
    last = F.parse_formula(texts[-1], memo)
    assert F.parse_formula("~" + texts[-1], memo).sub is last


def test_a_formula_restated_whole_is_read_once():
    text = ("premise H : 0 = 0 -> 0 = 0\n"
            "1. 0 = 0 -> 0 = 0 ; PREMISE H\n"
            "2. (0 = 0 -> 0 = 0) -> (x1 = x1 -> (0 = 0 -> 0 = 0)) ; P1[A := 0 = 0 -> 0 = 0; B := x1 = x1]\n"
            "3. x1 = x1 -> (0 = 0 -> 0 = 0) ; MP 2 1\n")
    proof, premises = kernel.parse_proof_file(text)
    assert kernel.check_proof(proof, premises) == kernel.VALID
    h = premises["H"]
    assert proof.steps[0][0] is h and proof.steps[1][1].bound()["A"] is h
    # the binding is read before its formula, which restates it as a group
    assert proof.steps[1][0].left is h and proof.steps[1][0].right.right is h


@pytest.mark.parametrize("line, message", [
    # an error in a step's formula is reported before one in its justification
    ("1. 0 = ) ; P1[A := $; B := 0 = 0]", "line 1: expected a term, found ')' (at position 4)"),
    ("1. 0 = ) ; INST[x := y; A := 0 = 0; t := 0]", "line 1: expected a term, found ')' (at position 4)"),
    ("1. 0 = 0 ; P1[A := $; B := 0 = )]", "line 1: unexpected character '$' (at position 0)"),
    ("1. 0 = 0 ; INST[x := y; A := 0 = 0; t := 0]", "binding x needs a variable, got 'y'"),
])
def test_a_step_reports_the_error_of_its_formula_first(line, message):
    with pytest.raises(ParseError) as exc:
        kernel.parse_proof_file(line + "\n")
    assert str(exc.value) == message
