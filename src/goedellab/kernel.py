"""Minimal Hilbert-style proof checker.

The trusted core is deliberately tiny: three propositional schemas, the
universal-instantiation schema, modus ponens, generalization, premises,
and an evaluation oracle for closed term equations.  Schema instances
are given explicitly in the justification, so checking is syntactic
equality throughout.

Premises are read as their universal closures, and generalization is
unrestricted, as in Gödel's 1931 system: from a premise `x0 = 0`, GEN
derives `forall x0. x0 = 0`.
"""

from __future__ import annotations

from . import codec
from . import formulas as F
from .errors import NotClosed, ParseError, ResourceBound
from .syntax import KEY, Node, decimal, extends_right, is_natural, remember

# eval_term refuses to enumerate past this index
MAX_EVAL_INDEX = 10_000


class Axiom(Node):
    # schema: P1 | P2 | P3 | INST; binding: sorted (name, Formula/Term/int)
    __slots__ = _fields = _data = ("schema", "binding")

    def bound(self) -> dict:
        return dict(self.binding)


class ModusPonens(Node):
    # 1-based earlier steps proving A -> B and A
    __slots__ = _fields = _data = ("implication", "antecedent")


class Generalize(Node):
    # a 1-based earlier step, and the index of the variable to bind
    __slots__ = _fields = _data = ("step", "var")


class EvalFact(Node):
    __slots__ = _fields = _data = ()


class Premise(Node):
    __slots__ = _fields = _data = ("label",)


Justification = Axiom | ModusPonens | Generalize | EvalFact | Premise


class ProofObject(Node):
    # steps: (formula, justification) pairs
    __slots__ = _fields = _data = ("steps",)

    def last_formula(self) -> F.Formula:
        return self.steps[-1][0]


class Verdict(Node):
    # step: the 1-based first failing step, None when ok
    __slots__ = _fields = _data = ("ok", "step", "reason")


VALID = Verdict(True, None, None)


def eval_term(t: F.Term) -> int:
    """Arithmetic meaning of a closed term; sub/diag via the codec.

    A run of successors is counted in a loop, so its depth costs no
    recursion."""
    succs = 0
    while isinstance(t, F.Succ):
        succs += 1
        t = t.arg
    if isinstance(t, F.Var):
        raise NotClosed("cannot evaluate open term x%d" % t.index)
    if isinstance(t, F.Num):
        return succs + t.value
    if isinstance(t, F.Diag):
        return succs + codec.diag_num(eval_term(t.arg))
    n = eval_term(t.left)
    if n > MAX_EVAL_INDEX:
        raise ResourceBound("refusing to enumerate to index %d" % n)
    return succs + codec.sub_num(n, eval_term(t.right))


def _schema_formula(schema: str, b: dict) -> F.Formula:
    if schema == "P1":
        a, c = b["A"], b["B"]
        return F.Implies(a, F.Implies(c, a))
    if schema == "P2":
        a, c, d = b["A"], b["B"], b["C"]
        return F.Implies(
            F.Implies(a, F.Implies(c, d)),
            F.Implies(F.Implies(a, c), F.Implies(a, d)),
        )
    if schema == "P3":
        a, c = b["A"], b["B"]
        return F.Implies(F.Implies(F.Not(a), F.Not(c)), F.Implies(c, a))
    if schema == "INST":
        var, body, t = b["x"], b["A"], b["t"]
        if F.term_free_vars(t):
            raise NotClosed("INST needs a closed witness term")
        return F.Implies(F.ForAll(var, body), F.substitute(body, var, t))
    raise KeyError("unknown schema %s" % schema)


def check_proof(p: ProofObject, premises: dict[str, F.Formula] | None = None) -> Verdict:
    premises = premises or {}
    for k, (f, just) in enumerate(p.steps, start=1):

        def bad(reason: str) -> Verdict:
            return Verdict(False, k, reason)

        if isinstance(just, Axiom):
            try:
                expected = _schema_formula(just.schema, just.bound())
            except KeyError as e:
                return bad(str(e))
            except NotClosed as e:
                return bad(str(e))
            if expected != f:
                return bad("not an instance of %s under the given binding" % just.schema)
        elif isinstance(just, ModusPonens):
            for cited in (just.implication, just.antecedent):
                if not 1 <= cited < k:
                    return bad("forward reference to step %d" % cited)
            imp = p.steps[just.implication - 1][0]
            ant = p.steps[just.antecedent - 1][0]
            if not isinstance(imp, F.Implies):
                return bad("cited step %d is not an implication" % just.implication)
            # a formula read off its citation is their very node
            if imp.left is not ant and imp.left != ant:
                return bad("antecedent mismatch")
            if imp.right is not f and imp.right != f:
                return bad("consequent mismatch")
        elif isinstance(just, Generalize):
            if not 1 <= just.step < k:
                return bad("forward reference to step %d" % just.step)
            if f != F.ForAll(just.var, p.steps[just.step - 1][0]):
                return bad("not the generalization of step %d" % just.step)
        elif isinstance(just, EvalFact):
            if not isinstance(f, F.Eq):
                return bad("EVAL applies to term equations only")
            try:
                left, right = eval_term(f.left), eval_term(f.right)
            except (NotClosed, ResourceBound) as e:
                return bad("evaluation failed: %s" % e)
            if left != right:
                return bad("equation is false: %d != %d" % (left, right))
        elif isinstance(just, Premise):
            if just.label not in premises:
                return bad("undeclared premise %r" % just.label)
            if premises[just.label] != f:
                return bad("formula differs from premise %r" % just.label)
        else:
            return bad("unknown justification")
    return VALID


# --- proof file format -------------------------------------------------
#
#   premise LABEL : <formula>
#   1. <formula> ; P1[A := <formula>; B := <formula>]
#   2. <formula> ; MP 1 2 | GEN 1 x0 | EVAL | PREMISE LABEL
#                | INST[x := x0; A := <formula>; t := <term>]


def _parse_binding(text: str, formula) -> tuple[tuple[tuple[str, object], ...], dict]:
    """The binding's sorted (name, value) pairs, and the text of each
    formula value by name."""
    entries, spelled = {}, {}
    for part in text.split(";"):
        name, assign, value = part.partition(":=")
        if not assign:
            if part.strip():
                raise ParseError("binding entry %r lacks ':='" % part.strip())
            continue
        name, value = name.strip(), value.strip()
        if name == "x":
            if not value.startswith("x") or not is_natural(value[1:]):
                raise ParseError("binding x needs a variable, got %r" % value)
            entries[name] = decimal(value[1:])
        elif name == "t":
            entries[name] = F.parse_term(value)
        else:
            entries[name] = formula(value)
            spelled[name] = value
    # the names differ, so the pairs sort by name alone
    return tuple(sorted(entries.items())), spelled


_SCHEMAS = {"P1", "P2", "P3", "INST"}


def _parse_justification(text: str, formula) -> tuple[Justification, dict | None]:
    """A justification, and the text of each formula its binding names."""
    text = text.strip()
    # a schema is followed by its binding at once: `P1 [` is no justification
    schema, bracket, inner = text.partition("[")
    if bracket and schema in _SCHEMAS:
        if not inner.endswith("]"):
            raise ParseError("unterminated binding in %r" % text)
        binding, spelled = _parse_binding(inner[:-1], formula)
        return Axiom(schema, binding), spelled
    if text == "EVAL":
        return EvalFact(), None
    parts = text.split()
    # a keyword is the whole first word: PREMISEH or MPX is no justification
    keyword = parts[0] if parts else ""
    if keyword == "PREMISE":
        if len(parts) != 2:
            raise ParseError("PREMISE cites one label")
        return Premise(parts[1]), None
    if keyword == "MP":
        if len(parts) != 3 or not (is_natural(parts[1]) and is_natural(parts[2])):
            raise ParseError("MP cites two steps")
        return ModusPonens(decimal(parts[1]), decimal(parts[2])), None
    if keyword == "GEN":
        if not (
            len(parts) == 3
            and is_natural(parts[1])
            and parts[2].startswith("x")
            and is_natural(parts[2][1:])
        ):
            raise ParseError("GEN cites a step and a variable")
        return Generalize(decimal(parts[1]), decimal(parts[2][1:])), None
    raise ParseError("unrecognized justification %r" % text)


class _Reader:
    """The formulas of one proof file, each text read once.

    `read` maps each formula text read to its node and its shape: a pair
    (one, consequent), where one tells whether the text is one operand
    (see `syntax.Cursor`), and consequent is the shape of the consequent
    of its main `->`, or None where that is not known.

    A step whose text restates the texts it cites is not read: its node is
    composed from theirs.  An MP step's text t is the consequent of its
    implication's text, written `(tj -> t)` or `((tj) -> t)` around its
    antecedent's text tj; a GEN step's is `forall xV. ` and the text it
    generalizes; a P1 or P2 step's is its instance, with each binding text
    spelled as `print_node` places a formula.  A cited text stands bare
    only where it was read as one operand and, left of `->`, does not run
    on to the end of its group; else it stands in parentheses.  Any other
    spelling is read as it is.  A composed text is recorded in the memo
    as `parse_formula` would record it, so later texts read alike."""

    def __init__(self):
        self.memo: dict = {}
        self.read: dict[str, tuple] = {}
        self.texts: list[str] = []  # the text of step k at k - 1

    def formula(self, text: str) -> F.Formula:
        r = self.read.get(text)
        if r is None:
            f, one, consequent = F.read_formula(text, self.memo)
            r = self.read[text] = f, (one, (consequent, None))
        return r[0]

    def step(self, text: str, just: Justification, spelled: dict | None, steps: list) -> F.Formula:
        """The formula of a step's text, which follows steps."""
        self.texts.append(text)
        r = self.read.get(text)
        if r is None:
            if isinstance(just, ModusPonens):
                r = self._consequent(text, just.implication, just.antecedent, len(steps))
            elif isinstance(just, Generalize):
                s = just.step
                if 1 <= s <= len(steps) and text == "forall x%d. " % just.var + self.texts[s - 1]:
                    r = F.ForAll(just.var, steps[s - 1][0]), (True, None)
            elif isinstance(just, Axiom) and just.schema in ("P1", "P2"):
                r = self._instance(text, just, spelled)
            if r is None:
                return self.formula(text)
            self.read[text] = r
            # as parse_formula records it: as itself only if one group
            # that is not a group of the memo already
            one_group = r[1][0] and text[0] == "(" and text not in self.memo.get(text[:KEY], ())
            remember(self.memo, text if one_group else "(" + text + ")", r[0])
        return r[0]

    def _consequent(self, text: str, i: int, j: int, known: int):
        """The node and shape of an MP step's text read off the texts of
        steps i and j, of the known ones, or None."""
        if not (1 <= i <= known and 1 <= j <= known):
            return None
        ti, tj = self.texts[i - 1], self.texts[j - 1]
        fi, (_, consequent) = self.read[ti]
        fj, (one, _) = self.read[tj]
        if consequent is None or type(fi) is not F.Implies:
            return None
        if ti == "(" + tj + " -> " + text + ")":
            if not one or extends_right(fj):
                return None
        elif ti != "((" + tj + ") -> " + text + ")":
            return None
        # an implication whose antecedent is tj's node: the `->` written
        # after tj is its main connective, so text is its consequent
        if fi.left != fj:
            return None
        return fi.right, consequent

    def _operand(self, text: str, left: bool) -> tuple[str, tuple]:
        """The spelling and shape of a binding text as an operand of `->`."""
        f, shape = self.read[text]
        if shape[0] and not (left and extends_right(f)):
            return text, shape
        return "(" + text + ")", (True, shape[1])

    def _instance(self, text: str, just: Axiom, spelled: dict):
        """The node and shape of a P1 or P2 step's text composed from its
        binding's texts, or None."""
        names = ("A", "B") if just.schema == "P1" else ("A", "B", "C")
        if not all(name in spelled for name in names):
            return None
        a = self._operand(spelled["A"], True)[0]
        b = self._operand(spelled["B"], True)[0]
        if just.schema == "P1":
            a_right, shape = self._operand(spelled["A"], False)
            composed = "(" + a + " -> (" + b + " -> " + a_right + "))"
            shape = (True, (True, shape))
        else:
            c, shape = self._operand(spelled["C"], False)
            composed = ("((" + a + " -> (" + b + " -> " + c + ")) -> ((" + a + " -> "
                        + self._operand(spelled["B"], False)[0] + ") -> (" + a + " -> " + c + ")))")
            shape = (True, (True, (True, shape)))
        if text != composed:
            return None
        return _schema_formula(just.schema, just.bound()), shape


def parse_proof_file(text: str) -> tuple[ProofObject, dict[str, F.Formula]]:
    """The proof and premises of a proof file.  A formula that the file
    restates whole is read once, and so is a formula group that it
    restates: its node is shared by every formula that restates it (see
    `formulas.parse_formula`).  A step that restates the texts it cites is
    not read at all (see `_Reader`).  A parse error inside a formula or
    term names its 1-based line."""
    premises: dict[str, F.Formula] = {}
    steps: list[tuple[F.Formula, Justification]] = []
    reader = _Reader()
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        try:
            _parse_line(line, premises, steps, reader)
        except ParseError as e:
            # only an error inside a formula or term has a position
            if e.position is not None:
                e.args = ("line %d: %s" % (n, e),)
            raise
    return ProofObject(tuple(steps)), premises


def _parse_line(line: str, premises: dict, steps: list, reader: _Reader) -> None:
    """Add the premise or step of one line, stripped of its comment."""
    formula = reader.formula
    # as in a justification, the keyword is the whole first word
    if line.startswith("premise") and line.split(None, 1)[0] == "premise":
        label, colon, formula_text = line[7:].partition(":")
        label = label.strip()
        if not (colon and label):
            raise ParseError("premise line needs 'LABEL : formula'")
        if len(label.split()) > 1:
            raise ParseError("premise label must be one word, not %r" % label)
        if label in premises:
            raise ParseError("duplicate premise label %r" % label)
        premises[label] = formula(formula_text.strip())
        return
    num_text, dot, rest = line.partition(".")
    if not dot:
        raise ParseError("step line needs 'k. formula ; justification'")
    digits = num_text.strip()
    if not is_natural(digits):
        raise ParseError("step line needs a leading number, got %r" % num_text)
    k = decimal(digits)
    if k != len(steps) + 1:
        raise ParseError("step numbered %d, expected %d" % (k, len(steps) + 1))
    formula_text, semicolon, just_text = rest.partition(";")
    if not semicolon:
        raise ParseError("step %d lacks a justification" % k)
    formula_text = formula_text.strip()
    # the justification is read first: a binding states a schema's
    # operands whole, and the step's formula restates them as groups
    try:
        just, spelled = _parse_justification(just_text, formula)
    except (ParseError, RecursionError):
        formula(formula_text)  # an error in the formula is reported first
        raise
    steps.append((reader.step(formula_text, just, spelled, steps), just))


def identity_proof(a: F.Formula) -> ProofObject:
    """The 5-step derivation of a -> a from P1 and P2."""
    aa = F.Implies(a, a)
    s1 = F.Implies(
        F.Implies(a, F.Implies(aa, a)),
        F.Implies(F.Implies(a, aa), aa),
    )
    s2 = F.Implies(a, F.Implies(aa, a))
    s3 = F.Implies(F.Implies(a, aa), aa)
    s4 = F.Implies(a, aa)
    bind = lambda **kw: tuple(sorted(kw.items()))
    return ProofObject(
        (
            (s1, Axiom("P2", bind(A=a, B=aa, C=a))),
            (s2, Axiom("P1", bind(A=a, B=aa))),
            (s3, ModusPonens(1, 2)),
            (s4, Axiom("P1", bind(A=a, B=a))),
            (aa, ModusPonens(3, 4)),
        )
    )
