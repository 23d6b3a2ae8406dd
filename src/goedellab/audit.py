"""Labeled meta-inference engine.

Replays the eleven-equation derivation chain and the two reductio
arguments over the designator algebra, tracking which labeled
assumptions every step consumes, flagging contradiction shapes, and
computing minimal inconsistent assumption subsets from one checked run
by filtering its steps on their assumption sets.

All of Dem's logical behavior enters through labeled assumptions; the
engine itself only applies structural rules, which is what makes the
assumption audit meaningful.
"""

from __future__ import annotations

import re
from functools import reduce
from operator import and_

from . import meta as M
from .errors import ParseError, WorkbenchError
from .syntax import Node, decimal, is_natural, walk

# --- assumptions -------------------------------------------------------


class Assumption(Node):
    # schema: a MetaFormula that may contain the designator hole d*
    __slots__ = _fields = _data = ("label", "schema", "provenance")


BUILTIN_PROVENANCE = {
    "DEF_E": "definition of the diagonal-unprovability set E",
    "NEC_DEF": "provability closure of E's definition",
    "REFL": "reflection: whatever is provable is true",
    "COMP_E": "reconstruction: an unprovable diagonal instance has provable E-membership",
    "CONS": "consistency: no proposition is provable together with its negation",
}


# --- script steps ------------------------------------------------------

# script keyword -> rule name, for the rules citing one or two steps
_ONE_REF = {
    "transpose": "Transpose",
    "ifff": "IffElimF",
    "iffb": "IffElimB",
    "rewriteE": "RewriteE",
    "negpush": "NegPush",
}
_TWO_REFS = {"syll": "Syllogism", "iffi": "IffIntro", "mp": "ModusPonens"}

# a comma between `derive` premises, not one inside a template such as
# REFL[App(q,q)]: no `]` follows it before the next `[`
_PREMISE_SEP = re.compile(r",(?![^\[]*\])")

# an assumption label or step id: one word that a reference can cite
_WORD = re.compile(r"[^\s\[\],]+")


class Step(Node):
    """One script step.  `rule` names the rule as the report prints it;
    `args` holds its parsed operands:

    UseAssumption  (label, template or None)
    Transpose, IffElimF, IffElimB, RewriteE, NegPush  (ref,)
    Syllogism, IffIntro, ModusPonens  (ref, ref)
    Instantiate  (ref, var, Const)
    TautCons  (conclusion, premises): a premise is a step id, or a
              (label, template or None) pair citing an assumption
    Suppose  (formula,)
    Reductio  (hypothesis, positive, negative)
    """

    __slots__ = _fields = _data = ("id", "rule", "args", "provenance")


class DerivationScript(Node):
    __slots__ = _fields = _data = ("assumptions", "steps")

    def assumption(self, label: str) -> Assumption:
        for a in self.assumptions:
            if a.label == label:
                return a
        raise RuleError("unknown assumption label %r" % label)

    def labels(self) -> list[str]:
        return [a.label for a in self.assumptions]


class RuleError(WorkbenchError):
    pass


# --- checked output ----------------------------------------------------


class CheckedStep(Node):
    # formula is None when the step fails, reason None when it holds
    __slots__ = _fields = _data = (
        "id", "formula", "rule", "ok", "reason", "assumptions", "hypotheses", "provenance")


class Finding(Node):
    # pattern: "iff-neg" | "dem-neg-iff" | "contradictory-pair"
    __slots__ = _fields = _data = (
        "step", "pattern", "requires_consistency", "detail", "unsat_confirmed")


class AuditReport(Node):
    # classification: printed designator -> its provability status
    __slots__ = _fields = _data = (
        "steps", "contradictions", "classification", "consumed", "assumption_labels")

    def step(self, id: str) -> CheckedStep:
        for s in self.steps:
            if s.id == id:
                return s
        raise KeyError(id)

    def all_valid(self) -> bool:
        return all(s.ok for s in self.steps)

    def to_json_dict(self) -> dict:
        return {
            "schema": "audit/1",
            "assumptions": self.assumption_labels,
            "steps": [
                {
                    "id": s.id,
                    "formula": M.print_meta(s.formula) if s.formula else None,
                    "rule": s.rule,
                    "valid": s.ok,
                    "reason": s.reason,
                    "assumptions": sorted(s.assumptions),
                    "hypotheses": sorted(s.hypotheses),
                    "provenance": s.provenance,
                }
                for s in self.steps
            ],
            "contradictions": [
                {
                    "step": f.step,
                    "pattern": f.pattern,
                    "requires_consistency": f.requires_consistency,
                    "detail": f.detail,
                    "unsat_confirmed": f.unsat_confirmed,
                }
                for f in self.contradictions
            ],
            "classification": dict(sorted(self.classification.items())),
            "consumed_assumptions": sorted(self.consumed),
            # a report finds no cores; `minimal_inconsistent_subsets` does
            "minimal_inconsistent_subsets": [],
        }


# --- rule application --------------------------------------------------


def _strip_prefix(phi: M.MetaFormula) -> tuple[list[str], M.MetaFormula]:
    prefix = []
    while isinstance(phi, M.ForAllIndex):
        prefix.append(phi.var)
        phi = phi.body
    return prefix, phi


def _rewrap(prefix: list[str], phi: M.MetaFormula) -> M.MetaFormula:
    for var in reversed(prefix):
        phi = M.ForAllIndex(var, phi)
    return phi


def _common_prefix(f1, f2):
    p1, m1 = _strip_prefix(f1)
    p2, m2 = _strip_prefix(f2)
    if p1 != p2:
        raise RuleError("quantifier prefixes differ: %s vs %s" % (p1, p2))
    return p1, m1, m2


def instantiate_assumption(
    assumption: Assumption, template: M.Designator | None
) -> M.MetaFormula:
    schema = assumption.schema
    if M.has_dvar(schema):
        if template is None:
            raise RuleError(
                "assumption %s is a designator schema; a [template] is required"
                % assumption.label
            )
        schema = M.map_atoms(
            schema, lambda d: template if isinstance(d, M.DVar) else d, None
        )
        for var in sorted(M.desig_metavars(template)):
            schema = M.ForAllIndex(var, schema)
    elif template is not None:
        raise RuleError("assumption %s takes no template" % assumption.label)
    return schema


class _Engine:
    def __init__(self, script: DerivationScript):
        self.script = script
        self.checked: dict[str, CheckedStep] = {}

    def _assumption(self, label: str, template: M.Designator | None):
        assumption = self.script.assumption(label)  # raises on unknown
        return instantiate_assumption(assumption, template), frozenset([label]), frozenset()

    def _cited(self, ref: str) -> CheckedStep:
        if ref not in self.checked:
            raise RuleError("reference to unknown or later step %r" % ref)
        s = self.checked[ref]
        if not s.ok:
            raise RuleError("cites invalid step %r" % ref)
        return s

    def run(self) -> list[CheckedStep]:
        out = []
        for step in self.script.steps:
            try:
                formula, deps, hyps = self._apply(step)
                reason = None
            except RuleError as e:
                reason = str(e)
            if step.id in self.checked:
                reason = "duplicate step id"
            if reason is not None:
                formula, deps, hyps = None, frozenset(), frozenset()
            cs = CheckedStep(
                step.id, formula, step.rule, reason is None, reason, deps, hyps, step.provenance
            )
            self.checked[step.id] = cs
            out.append(cs)
        return out

    def _apply(self, step: Step):
        rule, args = step.rule, step.args
        if rule == "UseAssumption":
            return self._assumption(*args)

        if rule == "Suppose":
            return args[0], frozenset(), frozenset([step.id])

        if rule in _ONE_REF.values():
            s = self._cited(args[0])
            prefix, matrix = _strip_prefix(s.formula)
            if rule == "Transpose":
                if isinstance(matrix, M.MIff):
                    matrix = M.MIff(M.MNot(matrix.left), M.MNot(matrix.right))
                elif isinstance(matrix, M.MImplies):
                    matrix = M.MImplies(M.MNot(matrix.right), M.MNot(matrix.left))
                else:
                    raise RuleError("transpose needs an implication or equivalence")
            elif rule in ("IffElimF", "IffElimB"):
                if not isinstance(matrix, M.MIff):
                    raise RuleError("iff-elim needs an equivalence")
                if rule == "IffElimF":
                    matrix = M.MImplies(matrix.left, matrix.right)
                else:
                    matrix = M.MImplies(matrix.right, matrix.left)
            elif rule == "RewriteE":
                matrix = M.expand_ine(matrix)
            # NegPush: construction has already pushed every negation in
            return _rewrap(prefix, matrix), s.assumptions, s.hypotheses

        if rule in _TWO_REFS.values():
            s1, s2 = self._cited(args[0]), self._cited(args[1])
            deps = s1.assumptions | s2.assumptions
            hyps = s1.hypotheses | s2.hypotheses
            if rule == "ModusPonens":
                p1, m1 = _strip_prefix(s1.formula)
                if p1:
                    raise RuleError("modus ponens applies to unquantified steps")
                if not isinstance(m1, M.MImplies):
                    raise RuleError("step %r is not an implication" % args[0])
                if m1.left != s2.formula:
                    raise RuleError("antecedent mismatch")
                return m1.right, deps, hyps
            prefix, m1, m2 = _common_prefix(s1.formula, s2.formula)
            if not isinstance(m1, M.MImplies) or not isinstance(m2, M.MImplies):
                raise RuleError("both cited steps must be implications")
            if rule == "Syllogism":
                if m1.right != m2.left:
                    raise RuleError("middle terms do not match")
                return _rewrap(prefix, M.MImplies(m1.left, m2.right)), deps, hyps
            if m1.left != m2.right or m1.right != m2.left:
                raise RuleError("implications are not mutually converse")
            return _rewrap(prefix, M.MIff(m1.left, m1.right)), deps, hyps

        if rule == "Instantiate":
            ref, var, value = args
            s = self._cited(ref)
            if not isinstance(s.formula, M.ForAllIndex) or s.formula.var != var:
                raise RuleError(
                    "step %r is not universally quantified over %r" % (ref, var)
                )
            return M.subst_index(s.formula.body, var, value), s.assumptions, s.hypotheses

        if rule == "TautCons":
            conclusion, premises = args
            formulas, deps, hyps = [], frozenset(), frozenset()
            for ref in premises:
                if isinstance(ref, str):
                    s = self._cited(ref)
                    phi, d, h = s.formula, s.assumptions, s.hypotheses
                else:
                    phi, d, h = self._assumption(*ref)
                formulas.append(phi)
                deps |= d
                hyps |= h
            if not M.tautological_consequence(formulas, conclusion):
                raise RuleError("stated conclusion is not a tautological consequence")
            return conclusion, deps, hyps

        if rule == "Reductio":
            hyp_id, pos_id, neg_id = args
            hyp = self._cited(hyp_id)
            if hyp.rule != "Suppose":
                raise RuleError("%r is not a supposition" % hyp_id)
            pos, neg_ = self._cited(pos_id), self._cited(neg_id)
            if M.MNot(pos.formula) != neg_.formula:
                raise RuleError("cited steps are not contradictory")
            if hyp_id not in (pos.hypotheses | neg_.hypotheses):
                raise RuleError("contradiction does not depend on the supposition")
            hyps = (pos.hypotheses | neg_.hypotheses) - {hyp_id}
            deps = pos.assumptions | neg_.assumptions
            return M.MNot(hyp.formula), deps, hyps

        raise RuleError("unknown rule %r" % rule)


# --- contradiction detection and classification ------------------------


def _facts(steps: list[CheckedStep]) -> list[tuple[CheckedStep, bool]]:
    """The valid, hypothesis-free steps, each with whether its formula is
    ground."""
    return [(s, M.is_ground(s.formula)) for s in steps if s.ok and not s.hypotheses]


def _find_contradictions(facts) -> tuple[list[Finding], list[frozenset[str]]]:
    """The findings of the facts, in step order, and the label set each
    needs: its step's assumptions, with CONS where it requires
    consistency.  A contradictory pair is reported at the later step, but
    it needs that step's labels with those of each earlier one."""
    findings: list[Finding] = []
    needs: list[frozenset[str]] = []
    # canonical text of a ground fact -> (first step id, its formula, the
    # assumptions of each step with that text)
    ground_seen: dict[str, tuple[str, M.MetaFormula, list[frozenset[str]]]] = {}
    for s, ground in facts:
        m = _strip_prefix(s.formula)[1]
        if isinstance(m, M.MIff):
            left, right = m.left, m.right
            if M.MNot(left) == right:
                findings.append(
                    Finding(
                        s.id,
                        "iff-neg",
                        False,
                        "equivalence of a statement with its own negation",
                        not M.satisfiable([m]),
                    )
                )
                needs.append(s.assumptions)
            elif isinstance(left, M.DemOf) and isinstance(right, M.DemOf):
                if M.canonical_text(M.NegD(left.desig)) == M.canonical_text(right.desig):
                    findings.append(
                        Finding(
                            s.id,
                            "dem-neg-iff",
                            True,
                            "provability of a statement equivalent to provability "
                            "of its negation; contradictory given consistency",
                            False,
                        )
                    )
                    needs.append(s.assumptions | {"CONS"})
        if ground:
            key = M.canonical_text(s.formula)
            # a meta text starts with `~` exactly when its formula is an
            # MNot or an Assert(NegD(d)), the two forms MNot unfolds
            neg_key = key[1:] if key[0] == "~" else "~" + key
            if neg_key in ground_seen:
                other_id, other, partners = ground_seen[neg_key]
                findings.append(
                    Finding(
                        s.id,
                        "contradictory-pair",
                        False,
                        "contradicts step %s" % other_id,
                        not M.satisfiable([s.formula, other]),
                    )
                )
                needs += (s.assumptions | a for a in partners)
            ground_seen.setdefault(key, (s.id, s.formula, []))[2].append(s.assumptions)
    return findings, needs


def classify(d: M.Designator, rows: int, column: dict[str, int]) -> str:
    """Provability status of the designated proposition under a report's
    ground facts: provable, refutable, independent, overdetermined, or
    unknown.  Bit r of `rows` is set when every fact holds in row r of
    their truth table, and `column` maps each of their atoms' keys to its
    column."""

    def settled(atom):
        # (the facts entail the atom, its negation): no row where they
        # hold has it false, or true; a free atom has both values in each
        c = column.get(M.canonical_text(atom))
        if c is None:
            return not rows, not rows
        return not rows & ~c, not rows & c

    (p, not_p), (n, not_n) = settled(M.DemOf(d)), settled(M.DemOf(M.NegD(d)))
    if p and n:
        return "overdetermined"
    if p:
        return "provable"
    if n:
        return "refutable"
    if not_p and not_n:
        return "independent"
    return "unknown"


# --- top-level checking ------------------------------------------------


def check_script(script: DerivationScript) -> AuditReport:
    steps = _Engine(script).run()
    facts = _facts(steps)
    findings = _find_contradictions(facts)[0]
    # the formulas of the valid, hypothesis-free ground steps
    theory = [s.formula for s, ground in facts if ground]
    # its ground App and InE designators, by canonical text
    designators = {M.canonical_text(d): d for phi in theory for d in walk(phi)
                   if isinstance(d, (M.App, M.InE)) and not M.desig_metavars(d)}
    classification = {}
    if designators:
        full, values, column = M._truth_rows(theory)
        rows = reduce(and_, values, full)
        classification = {k: classify(d, rows, column) for k, d in sorted(designators.items())}
    consumed = frozenset().union(*(s.assumptions for s in steps if s.ok))
    return AuditReport(steps, findings, classification, consumed, script.labels())


def minimal_inconsistent_subsets(script: DerivationScript) -> list[list[str]]:
    """All subset-minimal assumption-label sets from which some
    contradiction of the script remains derivable, read off one engine
    run.  The rules are monotone, so a step holds under a label set
    exactly when it holds under all labels and consumes only the set's;
    a set is then inconsistent exactly when it holds what some finding
    needs, and the cores are the minimal needs among the script's labels."""
    labels = frozenset(script.labels())
    needs = _find_contradictions(_facts(_Engine(script).run()))[1]
    cores: list[frozenset[str]] = []
    # by size: a need is a core unless it holds a core found before it
    for need in sorted({n for n in needs if n <= labels}, key=len):
        if not any(core < need for core in cores):
            cores.append(need)
    return sorted(sorted(core) for core in cores)


# --- script text format ------------------------------------------------
#
#   assume LABEL : <meta-formula>
#   step ID := assume LABEL [<designator>]?
#   step ID := transpose REF | ifff REF | iffb REF | rewriteE REF | negpush REF
#   step ID := syll R1 R2 | iffi R1 R2 | mp R1 R2
#   step ID := inst REF VAR CONST
#   step ID := derive <meta-formula> from P1, P2, ...
#   step ID := suppose <meta-formula>
#   step ID := reductio H by R1, R2
#   an optional trailing `! note` records step provenance


def _assumption_ref(text: str) -> tuple[str, M.Designator | None]:
    """`LABEL` or `LABEL[designator]`, as (label, template or None)."""
    text = text.strip()
    if "[" in text and text.endswith("]"):
        label, inner = text[:-1].split("[", 1)
        return label.strip(), M.parse_desig(inner)
    return text, None


def _premise_ref(text: str, known_steps: set[str], known_labels: set[str]):
    """A step id, or a (label, template) pair citing an assumption."""
    label, template = _assumption_ref(text)
    if template is None and label in known_steps:
        return label
    if template is None and label not in known_labels:
        raise ParseError("unknown premise reference %r" % label)
    return label, template


def _check_word(text: str, what: str) -> None:
    if not _WORD.fullmatch(text):
        raise ParseError("%s must be one word, not %r" % (what, text))


def parse_script(text: str) -> DerivationScript:
    assumptions: list[Assumption] = []
    steps: list[Step] = []
    known_labels: set[str] = set()
    known_steps: set[str] = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("assume "):
            rest = line[len("assume "):]
            if ":" not in rest:
                raise ParseError("assume line needs 'LABEL : formula'")
            label, formula_text = (s.strip() for s in rest.split(":", 1))
            _check_word(label, "assumption label")
            assumptions.append(
                Assumption(
                    label,
                    M.parse_meta(formula_text),
                    BUILTIN_PROVENANCE.get(label, "script-declared"),
                )
            )
            if label in known_labels:
                raise ParseError("duplicate assumption label %r" % label)
            known_labels.add(label)
            continue
        if not line.startswith("step "):
            raise ParseError("unrecognized line %r" % line)
        rest = line[len("step "):]
        if ":=" not in rest:
            raise ParseError("step line needs 'ID := rule'")
        step_id, rule_text = (s.strip() for s in rest.split(":=", 1))
        _check_word(step_id, "step id")
        provenance = ""
        if "!" in rule_text:
            rule_text, provenance = (s.strip() for s in rule_text.rsplit("!", 1))
        rule, args = _parse_rule(rule_text, known_steps, known_labels)
        steps.append(Step(step_id, rule, args, provenance))
        known_steps.add(step_id)
    return DerivationScript(tuple(assumptions), tuple(steps))


def _parse_rule(
    text: str, known_steps: set[str], known_labels: set[str]
) -> tuple[str, tuple]:
    """The rule name and operands of a step's rule text."""
    head, _, rest = text.partition(" ")
    rest = rest.strip()
    if head == "assume":
        return "UseAssumption", _assumption_ref(rest)
    if head in _ONE_REF:
        if len(rest.split()) != 1:
            raise ParseError("%s cites one step" % head)
        return _ONE_REF[head], (rest,)
    if head in _TWO_REFS:
        parts = rest.split()
        if len(parts) != 2:
            raise ParseError("%s cites two steps" % head)
        return _TWO_REFS[head], tuple(parts)
    if head == "inst":
        parts = rest.split()
        if len(parts) != 3 or not (parts[2] == "q" or is_natural(parts[2])):
            raise ParseError("inst needs: inst REF VAR CONST")
        value = M.Q if parts[2] == "q" else M.Const(decimal(parts[2]))
        return "Instantiate", (parts[0], parts[1], value)
    if head == "suppose":
        return "Suppose", (M.parse_meta(rest),)
    if head == "derive":
        if " from " not in rest:
            raise ParseError("derive needs: derive FORMULA from REF, ...")
        formula_text, refs_text = rest.rsplit(" from ", 1)
        refs = tuple(
            _premise_ref(r, known_steps, known_labels) for r in _PREMISE_SEP.split(refs_text)
        )
        return "TautCons", (M.parse_meta(formula_text), refs)
    if head == "reductio":
        if " by " not in rest:
            raise ParseError("reductio needs: reductio H by R1, R2")
        hyp, refs_text = rest.split(" by ", 1)
        refs = [r.strip() for r in refs_text.split(",")]
        if len(refs) != 2:
            raise ParseError("reductio cites two contradictory steps")
        return "Reductio", (hyp.strip(), refs[0], refs[1])
    raise ParseError("unknown rule %r" % head)


# --- shipped scripts ---------------------------------------------------

CANONICAL_SCRIPT_TEXT = """\
# Replay of the eleven-equation derivation chain.
assume DEF_E   : all n. InE(n) <-> ~Dem[App(n,n)]
assume NEC_DEF : all n. Dem[App(n,n)] -> Dem[~InE(n)]
assume REFL    : Dem[d*] -> d*
assume COMP_E  : all n. ~Dem[App(n,n)] -> Dem[InE(n)]

step 1  := assume DEF_E
step 2  := transpose 1
step 3  := assume NEC_DEF
step 4  := assume REFL [~InE(n)]
step 5  := ifff 2
step 6  := syll 4 5
step 7  := iffi 6 3
step 8  := rewriteE 7
step 9  := derive all n. Dem[App(q,n)] <-> ~Dem[App(n,n)] from 1, REFL[InE(n)], COMP_E ! reconstruction
step 10 := inst 8 n q
step 11 := inst 9 n q
"""

GOEDEL_SCRIPT_TEXT = """\
# The two reductio arguments; only DEF_E, REFL and CONS are consumed.
assume DEF_E : all n. InE(n) <-> ~Dem[App(n,n)]
assume REFL  : Dem[d*] -> d*
assume CONS  : Dem[d*] -> ~Dem[~d*]

step 1  := assume DEF_E
step 2  := inst 1 n q
step 3  := rewriteE 2

# branch 1: suppose the diagonal sentence is provable
step h1 := suppose Dem[App(q,q)]
step 4  := assume REFL [App(q,q)]
step 5  := mp 4 h1
step 6  := ifff 3
step 7  := mp 6 5
step r1 := reductio h1 by h1, 7

# branch 2: suppose its negation is provable
step h2 := suppose Dem[~App(q,q)]
step 8  := assume REFL [~App(q,q)]
step 9  := mp 8 h2
step 10 := transpose 3
step 11 := ifff 10
step 12 := mp 11 9
step 13 := assume CONS [App(q,q)]
step 14 := mp 13 12
step r2 := reductio h2 by h2, 14
"""

GOEDEL_EXTENSION_TEXT = """\
# With the reconstructed completeness premise added, the independence
# verdict collapses into overdetermination.
assume COMP_E : all n. ~Dem[App(n,n)] -> Dem[InE(n)]

step x1 := assume COMP_E
step x2 := inst x1 n q
step x3 := rewriteE x2
step x4 := mp x3 r1
"""


def canonical_antinomy_script() -> DerivationScript:
    return parse_script(CANONICAL_SCRIPT_TEXT)


def goedel_script(extended: bool = False) -> DerivationScript:
    text = GOEDEL_SCRIPT_TEXT
    if extended:
        text += GOEDEL_EXTENSION_TEXT
    return parse_script(text)


def compare_modes() -> dict:
    """Which labeled premises are exclusive to the paradoxical replay."""
    canonical = check_script(canonical_antinomy_script())
    goedel = check_script(goedel_script())
    a, b = canonical.consumed, goedel.consumed
    return {
        "schema": "audit-compare/1",
        "both": sorted(a & b),
        "only_canonical": sorted(a - b),
        "only_goedel": sorted(b - a),
        "canonical_classification": canonical.classification,
        "goedel_classification": goedel.classification,
    }
