import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NO_SHRINK, random_formula
from goedellab import kernel
from goedellab import formulas as F
from goedellab.errors import ParseError
from goedellab.syntax import KEY, SHARED, extends_right


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


# diag of a number that codes no unary formula: 0 is no Goedel number,
# 1 and 2 decode to no formula, and 41006250000 codes `0 = 0`, a closed one
@pytest.mark.parametrize("arg, message", [
    (F.ZERO, "Goedel numbers are naturals >= 1"),
    (F.Num(1), "empty sequence"),
    (F.Num(2), "token string ends inside a formula"),
    (F.Num(41006250000), "decoded formula is not unary in x0"),
])
def test_eval_of_diag_of_no_unary_formula_is_a_failed_step(arg, message):
    f = F.Eq(F.Diag(arg), F.ZERO)
    verdict = kernel.check_proof(kernel.ProofObject(((f, kernel.EvalFact()),)))
    assert verdict == kernel.Verdict(False, 1, "evaluation failed: " + message)


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
# or a blank line (""), where just is "EVAL", "MP i j", "GEN s xV", a pair
# (a, b) of texts for P1[A := a; B := b] or a triple (a, b, c) for
# P2[A := a; B := b; C := c].


def _file_text(lines) -> str:
    out, k = [], 0
    for line in lines:
        if line == "":
            out.append("")
        elif line[0] == "premise":
            out.append("premise %s : %s" % line[1:])
        else:
            k += 1
            just = line[2]
            if not isinstance(just, str):
                just = "%s[%s]" % ("P1" if len(just) == 2 else "P2",
                                   "; ".join("%s := %s" % p for p in zip("ABC", just)))
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
            elif just[:3] == "GEN":
                _, s, v = just.split()
                just = kernel.Generalize(int(s), int(v[1:]))
            elif isinstance(just, str):
                just = kernel.ModusPonens(*map(int, just.split()[1:]))
            else:
                just = kernel.Axiom("P1" if len(just) == 2 else "P2",
                                    tuple(zip("ABC", map(F.parse_formula, just))))
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


# Formula texts spelled as the printer would not, each with whether it is
# one operand: a connective outside parentheses joins the rest, and a
# quantifier's body runs on to the end of the text.
_UNPRINTED = [
    ("%s -> %s", False), ("%s <-> %s", False), ("%s & %s", False), ("%s | %s", False),
    ("(%s) -> (%s)", False), ("forall x1. %s -> %s", True), ("~%s & %s", False),
    ("(%s ) -> %s", False), ("((%s) -> %s)", True), ("forall x02. (%s -> %s)", True),
]


def _parses(text) -> bool:
    try:
        F.parse_formula(text)
    except ParseError:
        return False
    return True


def _spelling(rng, texts) -> tuple[str, bool]:
    """An earlier text, or a new one of two earlier texts, unprinted, with
    whether it is one operand.  Mostly they are texts that parse, so that
    the steps after it are read too."""
    if rng.random() < 0.9:
        texts = [t for t in texts if _parses(t)] or texts
    if rng.random() < 0.5:
        return rng.choice(texts), None
    shape, one = rng.choice(_UNPRINTED)
    return shape % (rng.choice(texts), rng.choice(texts)), one


def _as_operand(rng, text, one, left) -> str:
    """text as an operand of `->`: in the printer's parentheses, in
    parentheses anyway, or bare even where it is not one operand."""
    try:
        f = F.parse_formula(text)
    except ParseError:  # an error of the text itself: any spelling will do
        f = None
    if one is None:  # an earlier text: one operand if printed
        one = f is not None and F.print_formula(f) == text
    r = rng.random()
    if r < 0.6:
        bare = one and not (left and f is not None and extends_right(f))
    else:
        bare = r < 0.8
    return text if bare else "(%s)" % text


def _instance(rng, bound) -> str:
    """The text of a P1 (two bindings) or P2 (three) instance."""
    a, b = [(t, one, _as_operand(rng, t, one, True)) for t, one in bound[:2]]
    right = lambda x: _as_operand(rng, x[0], x[1], False)
    if len(bound) == 2:
        text = "(%s -> (%s -> %s))" % (a[2], b[2], right(a))
    else:
        c = right(bound[2])
        text = "((%s -> (%s -> %s)) -> ((%s -> %s) -> (%s -> %s)))" % (
            a[2], b[2], c, a[2], right(b), a[2], c)
    # now and then a space more, or the outer parentheses dropped
    r = rng.random()
    if r < 0.1:
        return text.replace(" -> ", "  -> ", 1)
    if r < 0.2:
        return text[1:-1]
    return text


def _citing(rng, lines, texts, steps):
    """One or two step lines that cite earlier steps by MP, GEN, P1 or P2,
    in printed and unprinted spellings, now and then citing themselves or
    a later step."""
    k = len(steps) + 1
    cite = lambda: rng.randrange(1, k + 2)  # now and then itself or later
    r = rng.random()
    if r < 0.1:
        # the identity proof of a printed formula: P2, P1, MP, P1, MP
        a = F.print_formula(random_formula(rng, rng.randrange(3)))
        aa = "(%s -> %s)" % (a, a)
        out = [("step", "((%s -> (%s -> %s)) -> ((%s -> %s) -> %s))" % (a, aa, a, a, aa, aa),
                (a, aa, a)),
               ("step", "(%s -> (%s -> %s))" % (a, aa, a), (a, aa)),
               ("step", "((%s -> %s) -> %s)" % (a, aa, aa), "MP %d %d" % (k, k + 1)),
               ("step", "(%s -> %s)" % (a, aa), (a, a)),
               ("step", aa, "MP %d %d" % (k + 2, k + 3))]
    elif r < 0.2:
        # weakening by P1 and MP, twice, from an earlier step's text
        j = rng.randrange(1, k) if k > 1 else 1
        cur, one = (steps[j - 1], None) if k > 1 else _spelling(rng, texts)
        out = []
        if k == 1:
            out.append(("step", cur, "EVAL"))
            j, k = 1, 2
        for _ in range(2):
            b = _spelling(rng, texts)
            out.append(("step", _instance(rng, [(cur, one), b]), (cur, b[0])))
            cur = "(%s -> %s)" % (_as_operand(rng, b[0], b[1], True), cur)
            one = True
            out.append(("step", cur, "MP %d %d" % (k, j)))
            j, k = k + 1, k + 2
    elif r < 0.45:
        # an implication of an earlier step's text, then its consequent by MP
        j = rng.randrange(1, k) if k > 1 else 1
        tj = steps[j - 1] if k > 1 else "0 = 0"
        t, _ = _spelling(rng, texts)
        shape = rng.choice(("(%s -> %s)", "(%s -> %s)", "((%s) -> %s)", "((%s) -> %s)",
                            "%s -> %s", "(%s) -> %s", "(%s  -> %s)", "(%s -> (%s))"))
        out = [("step", shape % (tj, t), "EVAL"),
               ("step", t if rng.random() < 0.8 else t + " ", "MP %d %d" % (
                   (k, j) if rng.random() < 0.8 else (cite(), cite())))]
    elif r < 0.6:
        s = rng.randrange(1, k) if k > 1 and rng.random() < 0.8 else cite()
        ts = steps[s - 1] if s < k else rng.choice(texts)
        v = rng.randrange(3)
        shape = rng.choice(("forall x%d. %s", "forall x%d. %s", "forall x0%d. %s",
                            "forall x%d.  %s", "forall x%d. (%s)"))
        # now and then the text binds another variable than GEN names
        w = v if rng.random() < 0.8 else v + 1
        out = [("step", shape % (w, ts), "GEN %d x%d" % (s, v))]
    else:
        bound = [_spelling(rng, texts) for _ in range(rng.choice((2, 3)))]
        out = [("step", _instance(rng, bound), tuple(t for t, _ in bound))]
    for line in out:
        lines.append(line)
        texts.append(line[1])
        steps.append(line[1].strip())


def _random_file(rng):
    texts = [F.print_formula(random_formula(rng, rng.randrange(4))) for _ in range(3)]
    lines, steps = [], []
    # half the files have no error but in the steps that cite, so that
    # their later steps are read too
    clean = rng.random() < 0.5
    for _ in range(rng.randrange(1, 9)):
        r = rng.random()
        if r < 0.45:
            _citing(rng, lines, texts, steps)
            continue
        text = _restated(rng, texts)
        while clean and not _parses(text):
            text = _restated(rng, texts)
        if r < 0.5:
            lines.append(("premise", "H%d" % len(lines), text))
        elif r < 0.55:
            lines.append("")
        else:
            if r < 0.75:
                just = ((rng.choice(texts), rng.choice(texts)) if clean
                        else (_restated(rng, texts), _restated(rng, texts)))
            else:
                just = rng.choice(("EVAL", "MP 1 1"))
            lines.append(("step", text, just))
            steps.append(text)
        texts.append(text)
    return lines


@settings(max_examples=500, deadline=None, phases=NO_SHRINK)
@given(st.randoms(use_true_random=False))
def test_a_file_reads_each_formula_as_it_reads_alone(rng):
    lines = _random_file(rng)
    assert _read_in_file(lines) == _read_alone(lines), _file_text(lines)


def test_seeded_files_read_each_formula_as_they_read_alone():
    # the same files from Python's own generator, whose draws hypothesis
    # does not steer towards its simplest values
    for seed in range(1500):
        lines = _random_file(random.Random(seed))
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


@pytest.mark.parametrize("lines", [
    # a binding that is not one operand stands in parentheses in the
    # instance: here it is bare, so the text is read, and it is no instance
    [("step", "0 = 0", "EVAL"),
     ("step", "(0 = 0 -> 0 = 0 -> (x1 = x1 -> 0 = 0 -> 0 = 0))",
      ("0 = 0 -> 0 = 0", "x1 = x1"))],
    # an MP text "(a) -> (b)" is not one group: it is recorded wrapped, so
    # a later text that starts with it reads as it reads alone
    [("step", "0 = 0", "EVAL"),
     ("step", "(0 = 0 -> (0 = 0) -> (x1 = x1))", "EVAL"),
     ("step", "(0 = 0) -> (x1 = x1)", "MP 2 1"),
     ("step", "((0 = 0) -> (x1 = x1) -> Dem(0))", "EVAL")],
])
def test_a_step_that_restates_its_citations_reads_as_alone(lines):
    assert _read_in_file(lines) == _read_alone(lines)


def test_a_binding_bare_where_it_is_not_one_operand_is_no_instance():
    text = _file_text([("step", "0 = 0", "EVAL"),
                       ("step", "(0 = 0 -> 0 = 0 -> (x1 = x1 -> 0 = 0 -> 0 = 0))",
                        ("0 = 0 -> 0 = 0", "x1 = x1"))])
    verdict = kernel.check_proof(*kernel.parse_proof_file(text))
    assert verdict == kernel.Verdict(False, 2, "not an instance of P1 under the given binding")


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
        F.read_formula(text, memo)
    # each `(` is tried against at most SHARED groups, however many a file has
    assert max(len(groups) for groups in memo.values()) == SHARED
    # the last ones recorded are kept: restating the last text reuses it
    last = F.read_formula(texts[-1], memo)[0]
    assert F.read_formula("~" + texts[-1], memo)[0].sub is last


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
