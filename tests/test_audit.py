import itertools
import json
import random
import time

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from goedellab import audit
from goedellab import meta as M
from goedellab.errors import ParseError, ResourceBound
from goedellab.syntax import walk


@pytest.fixture(scope="module")
def canonical():
    return audit.check_script(audit.canonical_antinomy_script())


@pytest.fixture(scope="module")
def goedel():
    return audit.check_script(audit.goedel_script())


# --- the canonical replay ----------------------------------------------

CANONICAL_FORMULAS = {
    "1": "all n. (InE(n) <-> ~Dem[App(n,n)])",
    "2": "all n. (~InE(n) <-> Dem[App(n,n)])",
    "3": "all n. (Dem[App(n,n)] -> Dem[~InE(n)])",
    "4": "all n. (Dem[~InE(n)] -> ~InE(n))",
    "5": "all n. (~InE(n) -> Dem[App(n,n)])",
    "6": "all n. (Dem[~InE(n)] -> Dem[App(n,n)])",
    "7": "all n. (Dem[~InE(n)] <-> Dem[App(n,n)])",
    "8": "all n. (Dem[~App(q,n)] <-> Dem[App(n,n)])",
    "9": "all n. (Dem[App(q,n)] <-> ~Dem[App(n,n)])",
    "10": "(Dem[~App(q,q)] <-> Dem[App(q,q)])",
    "11": "(Dem[App(q,q)] <-> ~Dem[App(q,q)])",
}

CANONICAL_DEPS = {
    "1": {"DEF_E"},
    "2": {"DEF_E"},
    "3": {"NEC_DEF"},
    "4": {"REFL"},
    "5": {"DEF_E"},
    "6": {"DEF_E", "REFL"},
    "7": {"DEF_E", "NEC_DEF", "REFL"},
    "8": {"DEF_E", "NEC_DEF", "REFL"},
    "9": {"COMP_E", "DEF_E", "REFL"},
    "10": {"DEF_E", "NEC_DEF", "REFL"},
    "11": {"COMP_E", "DEF_E", "REFL"},
}


def test_canonical_has_eleven_valid_steps(canonical):
    assert [s.id for s in canonical.steps] == [str(k) for k in range(1, 12)]
    assert canonical.all_valid()
    for s in canonical.steps:
        assert M.print_meta(s.formula) == CANONICAL_FORMULAS[s.id]
        assert set(s.assumptions) == CANONICAL_DEPS[s.id]
        assert not s.hypotheses


def test_canonical_contradictions(canonical):
    found = {f.step: f for f in canonical.contradictions}
    assert set(found) == {"10", "11"}
    assert found["11"].pattern == "iff-neg"
    assert not found["11"].requires_consistency
    assert found["11"].unsat_confirmed
    assert found["10"].pattern == "dem-neg-iff"
    assert found["10"].requires_consistency


def test_canonical_classification_and_consumption(canonical):
    assert canonical.classification == {"App(q,q)": "overdetermined"}
    assert canonical.consumed == {"DEF_E", "NEC_DEF", "REFL", "COMP_E"}


def test_reconstruction_step_is_marked(canonical):
    assert canonical.step("9").provenance == "reconstruction"
    assert all(
        s.provenance == "" for s in canonical.steps if s.id != "9"
    )


# --- minimal inconsistent subsets --------------------------------------


def restricted(script, labels):
    """The script declaring only the assumptions in `labels`: a step that
    cites any other label fails as an unknown assumption label."""
    return audit.DerivationScript(
        tuple(a for a in script.assumptions if a.label in labels), script.steps
    )


def inconsistent(script, labels):
    """Whether a fresh engine run restricted to `labels` finds a
    contradiction that counts under them."""
    report = audit.check_script(restricted(script, labels))
    return any(not f.requires_consistency or "CONS" in labels for f in report.contradictions)


def referee_cores(script):
    """The minimal inconsistent label sets, one restricted run per set."""
    labels = script.labels()
    found = [
        set(combo)
        for r in range(len(labels) + 1)
        for combo in itertools.combinations(labels, r)
        if inconsistent(script, set(combo))
    ]
    return sorted(sorted(s) for s in found if not any(t < s for t in found))


def test_minimal_cores_verified_independently():
    script = audit.canonical_antinomy_script()
    cores = audit.minimal_inconsistent_subsets(script)
    assert cores == [["COMP_E", "DEF_E", "REFL"]]

    for core in cores:
        assert ["DEF_E"] != core
        assert inconsistent(script, set(core))
        for r in range(len(core)):
            for sub in itertools.combinations(core, r):
                assert not inconsistent(script, set(sub))
    # and no strictly smaller mixed subset anywhere derives it
    labels = script.labels()
    for r in range(3):
        for sub in itertools.combinations(labels, r):
            assert not inconsistent(script, set(sub))


# the canonical replay with consistency declared: step 10's finding counts
CANONICAL_WITH_CONS = audit.CANONICAL_SCRIPT_TEXT + "assume CONS : Dem[d*] -> ~Dem[~d*]\n"
SHIPPED = [
    audit.CANONICAL_SCRIPT_TEXT,
    CANONICAL_WITH_CONS,
    audit.GOEDEL_SCRIPT_TEXT,
    audit.GOEDEL_SCRIPT_TEXT + audit.GOEDEL_EXTENSION_TEXT,
]
# every formula a shipped script derives, and the negation of each
# unquantified one, to restate as an extra assumption, each also with
# InE(t) written App(q,t), so a pair may meet across the two forms
DERIVED = {
    M.print_meta(s.formula)
    for text in SHIPPED
    for s in audit.check_script(audit.parse_script(text)).steps
    if s.ok
}
RESTATED = DERIVED | {"~" + text for text in DERIVED if not text.startswith("all ")}
RESTATED = sorted(RESTATED | {text.replace("InE(", "App(q,") for text in RESTATED})


@st.composite
def mutated_scripts(draw):
    """A shipped script with step lines dropped, duplicated or swapped,
    plus extra assumptions that restate a derived formula or its negation."""
    lines = draw(st.sampled_from(SHIPPED)).splitlines()
    assumes = [line for line in lines if line.startswith("assume ")]
    steps = [line for line in lines if line.startswith("step ")]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, len(steps) - 1)), draw(st.integers(0, len(steps) - 1))
        edit = draw(st.sampled_from(["drop", "duplicate", "swap"]))
        if edit == "drop" and len(steps) > 1:
            del steps[i]
        elif edit == "duplicate":
            steps.insert(j, steps[i])
        else:
            steps[i], steps[j] = steps[j], steps[i]
    for k in range(draw(st.integers(0, 6 - len(assumes)))):
        assumes.append("assume X%d : %s" % (k, draw(st.sampled_from(RESTATED))))
        steps.insert(draw(st.integers(0, len(steps))), "step x%d := assume X%d" % (k, k))
    return "\n".join(assumes + steps) + "\n"


TWO_DERIVATIONS = """\
assume A : Dem[App(1,1)]
assume B : Dem[App(1,1)]
assume C : ~Dem[App(1,1)]
step 1 := assume A
step 2 := assume B
step 3 := assume C
"""

# a pair across the two forms of one designator, met from either side
ACROSS_INE = """\
assume A : ~InE(3)
assume B : App(q,3)
assume C : ~InE(3)
step 1 := assume A
step 2 := assume B
step 3 := assume C
"""


@pytest.mark.parametrize("text, cores", [
    (TWO_DERIVATIONS, [["A", "C"], ["B", "C"]]),
    (CANONICAL_WITH_CONS, [["COMP_E", "DEF_E", "REFL"], ["CONS", "DEF_E", "NEC_DEF", "REFL"]]),
    (ACROSS_INE, [["A", "B"], ["B", "C"]]),
], ids=["two-derivations", "canonical-with-cons", "across-ine"])
def test_known_cores(text, cores):
    assert audit.minimal_inconsistent_subsets(audit.parse_script(text)) == cores


@settings(max_examples=60, deadline=None)
@given(mutated_scripts())
@example(TWO_DERIVATIONS)
@example(CANONICAL_WITH_CONS)
def test_cores_match_one_run_per_label_set(text):
    try:
        script = audit.parse_script(text)
    except ParseError:
        reject()  # a dropped or moved step that a `derive` cites
    assert audit.minimal_inconsistent_subsets(script) == referee_cores(script)


def test_cores_check_every_step_as_audit_run_does():
    # {A} is a core, yet the `derive` over 16 atoms that also cites L is
    # checked: the one run covers every step, as `audit run` does
    big = "Dem[App(1,1)]"
    for k in range(2, 17):
        big = "(Dem[App(%d,%d)] -> %s)" % (k, k, big)
    script = audit.parse_script(
        "assume A : Dem[App(1,1)] <-> ~Dem[App(1,1)]\nassume L : Dem[App(2,2)]\n"
        "step 1 := assume A\nstep 2 := derive %s from A, L\n" % big
    )
    for audit_call in (audit.check_script, audit.minimal_inconsistent_subsets):
        with pytest.raises(ResourceBound, match="16 modal atoms"):
            audit_call(script)


def test_cores_run_the_engine_once(monkeypatch):
    runs = []
    run = audit._Engine.run

    def counted_run(self):
        runs.append(self)
        return run(self)

    monkeypatch.setattr(audit._Engine, "run", counted_run)
    script = audit.parse_script(TWO_DERIVATIONS)
    for expected in (1, 2):
        audit.minimal_inconsistent_subsets(script)
        assert len(runs) == expected


# the canonical replay with CONS, a restatement X of its step 10, and P,
# the negation of step 10 with ~App(q,q) written ~InE(q)
SEVEN_LABELS = CANONICAL_WITH_CONS + """\
assume X : Dem[~App(q,q)] <-> Dem[App(q,q)]
assume P : ~(Dem[~InE(q)] <-> Dem[App(q,q)])
step x := assume X
step p := assume P
"""
# and N, an equivalence of a statement with its own negation
EIGHT_LABELS = SEVEN_LABELS + """\
assume N : Dem[App(q,q)] <-> ~Dem[App(q,q)]
step n := assume N
"""


@pytest.mark.parametrize("text, cores", [
    (SEVEN_LABELS, [["COMP_E", "DEF_E", "REFL"], ["CONS", "DEF_E", "NEC_DEF", "REFL"],
                    ["CONS", "X"], ["DEF_E", "NEC_DEF", "P", "REFL"], ["P", "X"]]),
    (EIGHT_LABELS, [["COMP_E", "DEF_E", "REFL"], ["CONS", "DEF_E", "NEC_DEF", "REFL"],
                    ["CONS", "X"], ["DEF_E", "NEC_DEF", "P", "REFL"], ["N"], ["P", "X"]]),
], ids=["seven-labels", "eight-labels"])
def test_cores_of_more_than_six_labels_match_one_run_per_label_set(text, cores):
    script = audit.parse_script(text)
    assert audit.minimal_inconsistent_subsets(script) == cores == referee_cores(script)


def test_forty_and_forty_labels_give_every_pair_at_once():
    lines = ["assume A%d : Dem[App(1,1)]\nstep a%d := assume A%d" % (k, k, k) for k in range(40)]
    lines += ["assume B%d : ~Dem[App(1,1)]\nstep b%d := assume B%d" % (k, k, k) for k in range(40)]
    script = audit.parse_script("\n".join(lines) + "\n")
    start = time.perf_counter()
    cores = audit.minimal_inconsistent_subsets(script)
    assert time.perf_counter() - start < 1
    assert cores == sorted(["A%d" % i, "B%d" % j] for i in range(40) for j in range(40))


# 15 atoms: Dem[App(1,1)] and Dem[App(k,k)] for k = 2..15
OVER_BOUND = "Dem[App(1,1)]"
for k in range(2, 16):
    OVER_BOUND = "(Dem[App(%d,%d)] -> %s)" % (k, k, OVER_BOUND)


@pytest.mark.parametrize("text", [
    "assume C : %s\nassume D : ~%s\nstep 1 := assume C\nstep 2 := assume D\n"
    % (OVER_BOUND, OVER_BOUND),
    # the over-bound pair needs A, B, C and D, so it holds the core {A, B}:
    # a search over label sets that skips every set holding a core found
    # before never confirms it
    "assume A : Dem[App(1,1)]\nassume B : ~Dem[App(1,1)]\n"
    "assume C : Dem[App(1,1)] -> (~Dem[App(1,1)] -> %s)\nassume D : ~%s\n"
    "step 1 := assume A\nstep 2 := assume B\nstep 3 := assume C\nstep 4 := mp 3 1\n"
    "step 5 := mp 4 2\nstep 6 := assume D\n" % (OVER_BOUND, OVER_BOUND),
], ids=["pair", "pair-holding-a-core"])
def test_cores_confirm_an_over_bound_pair_as_audit_run_does(text):
    script = audit.parse_script(text)
    for audit_call in (audit.check_script, audit.minimal_inconsistent_subsets):
        with pytest.raises(ResourceBound, match="^15 modal atoms"):
            audit_call(script)


# --- the independence replay -------------------------------------------


def test_goedel_branches_close_without_hypotheses(goedel):
    assert goedel.all_valid()
    r1, r2 = goedel.step("r1"), goedel.step("r2")
    assert M.print_meta(r1.formula) == "~Dem[App(q,q)]"
    assert M.print_meta(r2.formula) == "~Dem[~App(q,q)]"
    assert not r1.hypotheses and not r2.hypotheses
    assert r1.assumptions == {"DEF_E", "REFL"}
    assert r2.assumptions == {"DEF_E", "REFL", "CONS"}


def test_goedel_classifies_the_diagonal_as_independent(goedel):
    assert goedel.classification == {"App(q,q)": "independent"}
    assert goedel.consumed == {"DEF_E", "REFL", "CONS"}
    assert goedel.contradictions == []


def test_hypothetical_steps_carry_their_suppositions(goedel):
    assert goedel.step("5").hypotheses == {"h1"}
    assert goedel.step("7").hypotheses == {"h1"}
    assert goedel.step("12").hypotheses == {"h2"}
    assert goedel.step("h1").assumptions == frozenset()


def test_extended_mode_flips_to_overdetermined():
    ext = audit.check_script(audit.goedel_script(extended=True))
    assert ext.all_valid()
    x4 = ext.step("x4")
    assert M.print_meta(x4.formula) == "Dem[App(q,q)]"
    assert x4.assumptions == {"DEF_E", "REFL", "COMP_E"}
    assert ext.classification == {"App(q,q)": "overdetermined"}
    pairs = [f for f in ext.contradictions if f.pattern == "contradictory-pair"]
    assert pairs and pairs[0].step == "x4" and pairs[0].unsat_confirmed


def test_compare_modes():
    result = audit.compare_modes()
    assert result["both"] == ["DEF_E", "REFL"]
    assert result["only_canonical"] == ["COMP_E", "NEC_DEF"]
    assert result["only_goedel"] == ["CONS"]
    assert result["canonical_classification"] == {"App(q,q)": "overdetermined"}
    assert result["goedel_classification"] == {"App(q,q)": "independent"}


# --- classification off one truth table --------------------------------


def per_question(d, theory):
    """The status of d as `classify` read it before it took one truth
    table: each question asked with a truth table of its own, over the
    theory's atoms and the question's."""
    pos, neg = M.DemOf(d), M.DemOf(M.NegD(d))

    def entails(phi):
        return M.tautological_consequence(theory, phi)

    p, n = entails(pos), entails(neg)
    if p and n:
        return "overdetermined"
    if p:
        return "provable"
    if n:
        return "refutable"
    if entails(M.MNot(pos)) and entails(M.MNot(neg)):
        return "independent"
    return "unknown"


def referee_classification(report):
    """The report's classification asked question by question over its
    valid, hypothesis-free ground steps, with the atom bound one higher,
    so that a question's own atom does not tip 14 atoms of facts over it."""
    theory = [s.formula for s in report.steps
              if s.ok and not s.hypotheses and M.is_ground(s.formula)]
    designators = {M.canonical_text(d): d for phi in theory for d in walk(phi)
                   if isinstance(d, (M.App, M.InE)) and not M.desig_metavars(d)}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(M, "MAX_ATOMS", M.MAX_ATOMS + 1)
        return {k: per_question(d, theory) for k, d in designators.items()}


@pytest.mark.parametrize("text", SHIPPED,
                         ids=["canonical", "canonical-with-cons", "goedel", "goedel-extended"])
def test_shipped_scripts_classify_as_each_question_did(text):
    report = audit.check_script(audit.parse_script(text))
    assert report.classification == referee_classification(report)


@settings(max_examples=60, deadline=None)
@given(mutated_scripts())
def test_mutated_scripts_classify_as_each_question_did(text):
    try:
        report = audit.check_script(audit.parse_script(text))
    except ParseError:
        reject()  # a dropped or moved step that a `derive` cites
    assert report.classification == referee_classification(report)


# InE(t) and App(q,t) name one proposition
SEEDED_DESIGNATORS = ["App(1,1)", "App(2,3)", "App(0,5)", "App(q,q)", "InE(q)", "App(q,3)",
                      "InE(3)"]


def seeded_script(rng):
    """A script assuming 1-9 facts over 2-5 designators d, built from the
    atoms Dem[d], Dem[~d], d and ~d with ~, -> and <->, at most 14 atoms
    in all, which one in four joins in one fact; one in six also
    supposes a formula, which is no fact."""
    designators = rng.sample(SEEDED_DESIGNATORS, rng.randint(2, 5))
    # d and ~d come as a pair, since a ~ put before one gives the other
    units = [[form % d] for d in designators for form in ("Dem[%s]", "Dem[~%s]")]
    units += [[d, "~" + d] for d in designators]
    rng.shuffle(units)
    atoms, limit = [], rng.randint(1, 14)
    for unit in units:
        if len(atoms) + len(unit) <= limit:
            atoms += unit

    def formula(depth):
        if depth == 0 or rng.random() < 0.3:
            return "~" * rng.randrange(2) + rng.choice(atoms)
        form = rng.choice(("~%s", "(%s -> %s)", "(%s <-> %s)"))
        return form % tuple(formula(depth - 1) for _ in range(form.count("%s")))

    facts = [formula(rng.choice((0, 0, 1, 2))) for _ in range(rng.randint(1, 9))]
    if rng.randrange(4) == 0:  # and one fact over every atom drawn
        facts[0] = " -> ".join(rng.sample(atoms, len(atoms)))
    lines = ["assume A%d : %s" % (i, f) for i, f in enumerate(facts)]
    lines += ["step %d := assume A%d" % (i, i) for i in range(len(facts))]
    if rng.randrange(6) == 0:
        lines.append("step h := suppose %s" % formula(1))
    return "\n".join(lines) + "\n"


def test_seeded_scripts_classify_as_each_question_did():
    rng = random.Random(2828)
    verdicts, inconsistent_theories = set(), 0
    for _ in range(600):
        report = audit.check_script(audit.parse_script(seeded_script(rng)))
        assert report.classification == referee_classification(report)
        verdicts |= set(report.classification.values())
        if not M.satisfiable([s.formula for s in report.steps if not s.hypotheses]):
            inconsistent_theories += 1
            assert set(report.classification.values()) == {"overdetermined"}
    assert verdicts == {"provable", "refutable", "independent", "overdetermined", "unknown"}
    assert inconsistent_theories >= 10


# one designator of each verdict
FIVE_VERDICTS = """\
assume A : Dem[App(1,1)]
assume B : Dem[~App(2,2)]
assume C : ~Dem[App(3,3)]
assume D : ~Dem[~App(3,3)]
assume E : Dem[App(4,4)]
assume F : Dem[~App(4,4)]
assume G : App(5,5)
step 1 := assume A
step 2 := assume B
step 3 := assume C
step 4 := assume D
step 5 := assume E
step 6 := assume F
step 7 := assume G
"""


def test_one_table_reads_all_five_verdicts():
    report = audit.check_script(audit.parse_script(FIVE_VERDICTS))
    assert report.classification == {
        "App(1,1)": "provable", "App(2,2)": "refutable", "App(3,3)": "independent",
        "App(4,4)": "overdetermined", "App(5,5)": "unknown"} == referee_classification(report)


@pytest.mark.parametrize("text, tables", [
    (audit.GOEDEL_SCRIPT_TEXT, 1),
    (audit.CANONICAL_SCRIPT_TEXT, 3),
    (audit.GOEDEL_SCRIPT_TEXT + audit.GOEDEL_EXTENSION_TEXT, 2),
    (FIVE_VERDICTS, 1),
], ids=["goedel", "canonical", "goedel-extended", "five-verdicts"])
def test_one_truth_table_serves_every_designator(monkeypatch, text, tables):
    # the canonical replay's `derive` and its iff-neg finding take one
    # table each, and the extended replay's contradictory pair one
    calls = []
    truth_rows = M._truth_rows
    monkeypatch.setattr(M, "_truth_rows", lambda formulas: calls.append(1) or truth_rows(formulas))
    audit.check_script(audit.parse_script(text))
    assert len(calls) == tables


# 14 atoms: App(1,1) and Dem[App(k,k)] for k = 2..14
FOURTEEN = "App(1,1)"
for k in range(2, 15):
    FOURTEEN = "(Dem[App(%d,%d)] -> %s)" % (k, k, FOURTEEN)


def test_fourteen_atoms_and_a_free_question_answer():
    # the facts do not mention Dem[App(1,1)] or any Dem[~App(k,k)], so
    # the questions about them take no 15th column
    report = audit.check_script(audit.parse_script(
        "assume A : %s\nassume B : Dem[App(2,2)]\nstep 1 := assume A\nstep 2 := assume B\n"
        % FOURTEEN))
    expected = {"App(%d,%d)" % (k, k): "unknown" for k in range(1, 15)}
    expected["App(2,2)"] = "provable"
    assert report.classification == expected == referee_classification(report)


def test_fifteen_atoms_are_over_the_bound():
    script = audit.parse_script("assume A : %s\nstep 1 := assume A\n" % OVER_BOUND)
    with pytest.raises(ResourceBound, match="^15 modal atoms exceed the truth-table bound$"):
        audit.check_script(script)


def test_opaque_atoms_over_the_bound_answer_without_a_ground_designator():
    # 15 quantified atoms under connectives, and no ground designator to
    # classify, so no table is built
    opaque = "(all n. Dem[App(n,1)])"
    for k in range(2, 16):
        opaque = "((all n. Dem[App(n,%d)]) -> %s)" % (k, opaque)
    report = audit.check_script(audit.parse_script("assume A : %s\nstep 1 := assume A\n" % opaque))
    assert report.all_valid() and report.classification == {}
    with pytest.raises(ResourceBound, match="^15 modal atoms"):
        M.satisfiable([report.steps[0].formula])


# --- engine rule checking ----------------------------------------------


def _script(text):
    return audit.parse_script(text)


def test_modus_ponens_rejects_mismatch():
    report = audit.check_script(
        _script(
            """
assume REFL : Dem[d*] -> d*
step 1 := assume REFL [App(q,q)]
step 2 := suppose Dem[~App(q,q)]
step 3 := mp 1 2
"""
        )
    )
    bad = report.step("3")
    assert not bad.ok and "mismatch" in bad.reason


def test_reductio_requires_a_real_supposition():
    report = audit.check_script(
        _script(
            """
assume DEF_E : all n. InE(n) <-> ~Dem[App(n,n)]
step 1 := assume DEF_E
step 2 := suppose Dem[App(q,q)]
step 3 := suppose ~Dem[App(q,q)]
step 4 := reductio 1 by 2, 3
"""
        )
    )
    assert not report.step("4").ok
    assert "supposition" in report.step("4").reason


def test_steps_citing_invalid_steps_are_invalid():
    report = audit.check_script(
        _script(
            """
assume DEF_E : all n. InE(n) <-> ~Dem[App(n,n)]
step 1 := assume NOPE
step 2 := transpose 1
"""
        )
    )
    assert not report.step("1").ok
    assert not report.step("2").ok and "invalid step" in report.step("2").reason


def test_schema_assumption_requires_template():
    report = audit.check_script(
        _script(
            """
assume REFL : Dem[d*] -> d*
step 1 := assume REFL
"""
        )
    )
    assert not report.step("1").ok and "template" in report.step("1").reason


def test_excluded_assumptions_invalidate_their_steps():
    script = audit.canonical_antinomy_script()
    report = audit.check_script(restricted(script, {"DEF_E", "NEC_DEF", "REFL"}))
    assert report.step("8").ok
    assert report.step("9").reason == "unknown assumption label 'COMP_E'"
    assert not report.step("11").ok
    # without CONS the remaining finding does not count as a contradiction
    assert all(f.requires_consistency for f in report.contradictions)


def test_parse_script_errors():
    with pytest.raises(ParseError):
        audit.parse_script("step 1 := frobnicate 2")
    with pytest.raises(ParseError):
        audit.parse_script("assume X missing-colon")
    with pytest.raises(ParseError):
        audit.parse_script(
            "assume A : Dem[App(q,q)]\nassume A : Dem[App(q,q)]"
        )
    with pytest.raises(ParseError):
        audit.parse_script(
            "step 1 := derive Dem[App(q,q)] from NOWHERE"
        )


def test_report_json_is_versioned_and_serializable(canonical):
    d = canonical.to_json_dict()
    assert d["schema"] == "audit/1"
    assert len(d["steps"]) == 11
    assert d["minimal_inconsistent_subsets"] == []
    json.dumps(d)  # must not raise


# --- every script rule: one accepted and one rejected step -------------

RULE_ASSUMPTIONS = """\
assume DEF_E : all n. InE(n) <-> ~Dem[App(n,n)]
assume REFL  : Dem[d*] -> d*
"""

# (JSON rule name, steps, reason of the last step or None)
RULE_CASES = [
    ("UseAssumption", "step 1 := assume DEF_E", None),
    ("UseAssumption", "step 1 := assume REFL [App(q,q)]", None),
    (
        "UseAssumption",
        "step 1 := assume REFL",
        "assumption REFL is a designator schema; a [template] is required",
    ),
    ("UseAssumption", "step 1 := assume DEF_E [App(q,q)]",
     "assumption DEF_E takes no template"),
    ("UseAssumption", "step 1 := assume NOPE", "unknown assumption label 'NOPE'"),
    # the label is looked up before its template is read
    ("UseAssumption", "step 1 := assume NOPE [App(q,q)]", "unknown assumption label 'NOPE'"),
    ("Transpose", "step 1 := assume DEF_E\nstep 2 := transpose 1", None),
    ("Transpose", "step 1 := suppose Dem[App(q,q)]\nstep 2 := transpose 1",
     "transpose needs an implication or equivalence"),
    ("IffElimF", "step 1 := assume DEF_E\nstep 2 := ifff 1", None),
    ("IffElimF", "step 1 := suppose Dem[App(q,q)]\nstep 2 := ifff 1",
     "iff-elim needs an equivalence"),
    ("IffElimB", "step 1 := assume DEF_E\nstep 2 := iffb 1", None),
    ("IffElimB", "step 1 := assume REFL [App(q,q)]\nstep 2 := iffb 1",
     "iff-elim needs an equivalence"),
    (
        "Syllogism",
        "step 1 := suppose Dem[App(q,q)] -> Dem[App(1,1)]\n"
        "step 2 := suppose Dem[App(1,1)] -> Dem[App(2,2)]\n"
        "step 3 := syll 1 2",
        None,
    ),
    (
        "Syllogism",
        "step 1 := suppose Dem[App(q,q)] -> Dem[App(1,1)]\n"
        "step 2 := suppose Dem[App(2,2)] -> Dem[App(3,3)]\n"
        "step 3 := syll 1 2",
        "middle terms do not match",
    ),
    (
        "Syllogism",
        "step 1 := assume DEF_E\nstep 2 := assume REFL [App(q,q)]\nstep 3 := syll 1 2",
        "quantifier prefixes differ: ['n'] vs []",
    ),
    (
        "Syllogism",
        "step 1 := assume DEF_E\nstep 2 := ifff 1\nstep 3 := syll 1 2",
        "both cited steps must be implications",
    ),
    (
        "IffIntro",
        "step 1 := suppose Dem[App(1,1)] -> Dem[App(2,2)]\n"
        "step 2 := suppose Dem[App(2,2)] -> Dem[App(1,1)]\n"
        "step 3 := iffi 1 2",
        None,
    ),
    (
        "IffIntro",
        "step 1 := suppose Dem[App(1,1)] -> Dem[App(2,2)]\n"
        "step 2 := suppose Dem[App(1,1)] -> Dem[App(2,2)]\n"
        "step 3 := iffi 1 2",
        "implications are not mutually converse",
    ),
    ("Instantiate", "step 1 := assume DEF_E\nstep 2 := inst 1 n q", None),
    ("Instantiate", "step 1 := assume DEF_E\nstep 2 := inst 1 n 7", None),
    ("Instantiate", "step 1 := assume DEF_E\nstep 2 := inst 1 m q",
     "step '1' is not universally quantified over 'm'"),
    ("RewriteE", "step 1 := assume DEF_E\nstep 2 := rewriteE 1", None),
    ("RewriteE", "step 1 := assume DEF_E\nstep 2 := rewriteE 9",
     "reference to unknown or later step '9'"),
    ("NegPush", "step 1 := assume DEF_E\nstep 2 := negpush 1", None),
    ("NegPush", "step 1 := assume REFL\nstep 2 := negpush 1",
     "cites invalid step '1'"),
    (
        "ModusPonens",
        "step 1 := assume REFL [App(q,q)]\nstep 2 := suppose Dem[App(q,q)]\nstep 3 := mp 1 2",
        None,
    ),
    (
        "ModusPonens",
        "step 1 := assume REFL [App(q,q)]\nstep 2 := suppose Dem[~App(q,q)]\nstep 3 := mp 1 2",
        "antecedent mismatch",
    ),
    ("ModusPonens", "step 1 := assume DEF_E\nstep 2 := mp 1 1",
     "modus ponens applies to unquantified steps"),
    (
        "ModusPonens",
        "step 1 := suppose Dem[App(q,q)]\nstep 2 := mp 1 1",
        "step '1' is not an implication",
    ),
    (
        "TautCons",
        "step 1 := suppose Dem[App(q,q)]\n"
        "step 2 := derive App(q,q) from 1, REFL[InE(q)], DEF_E",
        None,
    ),
    (
        "TautCons",
        "step 1 := suppose Dem[App(q,q)]\nstep 2 := derive ~App(q,q) from 1, REFL[InE(q)]",
        "stated conclusion is not a tautological consequence",
    ),
    ("TautCons", "step 1 := derive App(q,q) from REFL",
     "assumption REFL is a designator schema; a [template] is required"),
    ("TautCons", "step 1 := derive App(q,q) from DEF_E[InE(q)]",
     "assumption DEF_E takes no template"),
    ("TautCons", "step 1 := derive App(q,q) from NOPE[InE(q)]",
     "unknown assumption label 'NOPE'"),
    ("Suppose", "step 1 := suppose Dem[App(q,q)]", None),
    ("Suppose", "step 1 := suppose Dem[App(q,q)]\nstep 1 := suppose Dem[App(q,q)]",
     "duplicate step id"),
    (
        "Reductio",
        "step h := suppose Dem[App(q,q)]\nstep n := suppose ~Dem[App(q,q)]\n"
        "step r := reductio h by h, n",
        None,
    ),
    (
        "Reductio",
        "step 1 := assume DEF_E\nstep 2 := suppose Dem[App(q,q)]\n"
        "step 3 := suppose ~Dem[App(q,q)]\nstep 4 := reductio 1 by 2, 3",
        "'1' is not a supposition",
    ),
    (
        "Reductio",
        "step h := suppose Dem[App(q,q)]\nstep n := suppose Dem[App(1,1)]\n"
        "step r := reductio h by h, n",
        "cited steps are not contradictory",
    ),
    (
        "Reductio",
        "step h := suppose Dem[App(1,1)]\nstep 2 := suppose Dem[App(q,q)]\n"
        "step 3 := suppose ~Dem[App(q,q)]\nstep r := reductio h by 2, 3",
        "contradiction does not depend on the supposition",
    ),
    # a template with a comma cited as a `derive` premise
    (
        "TautCons",
        "step 1 := suppose Dem[App(q,q)]\nstep 2 := derive App(q,q) from 1, REFL[App(q,q)]",
        None,
    ),
]


def _json_steps(steps):
    script = audit.parse_script(RULE_ASSUMPTIONS + steps + "\n")
    return audit.check_script(script).to_json_dict()["steps"]


@pytest.mark.parametrize(
    "rule, steps, reason",
    RULE_CASES,
    ids=["%s-%d" % (case[0], i) for i, case in enumerate(RULE_CASES)],
)
def test_rule_table(rule, steps, reason):
    last = _json_steps(steps)[-1]
    assert (last["rule"], last["valid"], last["reason"]) == (rule, reason is None, reason)
    assert (last["formula"] is None) == (reason is not None)


# rule text of step 2 (after `step 1 := assume DEF_E`) that does not parse
RULE_PARSE_ERRORS = [
    ("transpose 1 2", "transpose cites one step"),
    ("negpush", "negpush cites one step"),
    ("syll 1", "syll cites two steps"),
    ("derive App(q,q) from 1, NOWHERE", "unknown premise reference 'NOWHERE'"),
]


@pytest.mark.parametrize("rule_text, message", RULE_PARSE_ERRORS)
def test_rule_table_parse_errors(rule_text, message):
    with pytest.raises(ParseError) as err:
        audit.parse_script(RULE_ASSUMPTIONS + "step 1 := assume DEF_E\nstep 2 := " + rule_text)
    assert str(err.value) == message


def test_rule_table_accepts_and_rejects_every_rule():
    names = {
        "UseAssumption", "Transpose", "IffElimF", "IffElimB", "Syllogism",
        "IffIntro", "Instantiate", "RewriteE", "NegPush", "ModusPonens",
        "TautCons", "Suppose", "Reductio",
    }
    accepted = {rule for rule, _, reason in RULE_CASES if reason is None}
    rejected = {rule for rule, _, reason in RULE_CASES if reason is not None}
    assert accepted == rejected == names


def test_forward_reference_and_duplicate_ids_in_json():
    steps = _json_steps(
        "step 1 := transpose 2\nstep 2 := assume DEF_E\n"
        "step 2 := ifff 1\nstep 3 := iffb 2"
    )
    assert [(s["id"], s["rule"], s["valid"], s["reason"]) for s in steps] == [
        ("1", "Transpose", False, "reference to unknown or later step '2'"),
        ("2", "UseAssumption", True, None),
        ("2", "IffElimF", False, "duplicate step id"),
        ("3", "IffElimB", False, "cites invalid step '2'"),
    ]
