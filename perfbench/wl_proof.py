"""The proof-checking part of the `lib` workload: in-process proof
kernel, audit engine and propositional meta-logic calls.

Why: each call costs milliseconds at the seed commit, which disappears
under the CLI's interpreter start; without this part the parsers and
truth-table merges of ROADMAP item 5 would go unmeasured.  Proofs are
generated valid (or mutated at a known step), so the construction is the
oracle; meta-formulas are judged by the benchmark's own truth table.
"""

from __future__ import annotations

import re

import oracle as O
from common import Op, expect_value, sized_formula

CANONICAL = """\
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

GOEDEL = """\
assume DEF_E : all n. InE(n) <-> ~Dem[App(n,n)]
assume REFL  : Dem[d*] -> d*
assume CONS  : Dem[d*] -> ~Dem[~d*]

step 1  := assume DEF_E
step 2  := inst 1 n q
step 3  := rewriteE 2
step h1 := suppose Dem[App(q,q)]
step 4  := assume REFL [App(q,q)]
step 5  := mp 4 h1
step 6  := ifff 3
step 7  := mp 6 5
step r1 := reductio h1 by h1, 7
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

EXTENSION = """\
assume COMP_E : all n. ~Dem[App(n,n)] -> Dem[InE(n)]
step x1 := assume COMP_E
step x2 := inst x1 n q
step x3 := rewriteE x2
step x4 := mp x3 r1
"""

# What each script establishes, per the README and the source paper: the
# canonical chain uses all four premises and overdetermines the diagonal
# sentence; the independence replay uses DEF_E, REFL and CONS only.
SCRIPTS = {
    "canonical": (CANONICAL, 11, {"DEF_E", "NEC_DEF", "REFL", "COMP_E"}, "overdetermined",
                  [("10", "dem-neg-iff"), ("11", "iff-neg")]),
    "goedel": (GOEDEL, 18, {"DEF_E", "REFL", "CONS"}, "independent", []),
    "extended": (GOEDEL + EXTENSION, 22, {"DEF_E", "REFL", "CONS", "COMP_E"}, "overdetermined",
                 [("x4", "contradictory-pair")]),
}
# The only minimal inconsistent premise set of the canonical chain; the
# benchmark's self-test re-derives it with its own truth table.
CANONICAL_CORE = {"DEF_E", "REFL", "COMP_E"}

INDICES = ("0", "1", "2", "3", "q")


def rename(text: str, mapping: dict[str, str]) -> str:
    return re.sub(r"\b(%s)\b" % "|".join(mapping), lambda m: mapping[m.group(1)], text)


def random_renaming(rng, labels) -> dict[str, str]:
    letters = "ABCDEFGHJKMNPRSTUVWXYZ"
    return {a: "L%s%d" % ("".join(rng.choice(letters) for _ in range(3)), i)
            for i, a in enumerate(sorted(labels))}


# --- Hilbert proofs -----------------------------------------------------


def imp(a, b):
    return ("imp", a, b)


def identity_steps(a):
    """The five-step derivation of a -> a from P1 and P2."""
    aa = imp(a, a)
    pa, paa = O.print_formula(a), O.print_formula(aa)
    return [
        (imp(imp(a, imp(aa, a)), imp(imp(a, aa), aa)), "P2[A := %s; B := %s; C := %s]" % (pa, paa, pa)),
        (imp(a, imp(aa, a)), "P1[A := %s; B := %s]" % (pa, paa)),
        (imp(imp(a, aa), aa), "MP 1 2"),
        (imp(a, aa), "P1[A := %s; B := %s]" % (pa, pa)),
        (aa, "MP 3 4"),
    ]


def chain_steps(rng, length: int):
    """A derivation of `length` steps from a true closed equation by
    weakening (P1 + MP), generalization and instantiation (INST + MP), in
    a fixed rhythm so that its size depends on `length` alone."""
    # successor chains stay shallow; numerals above 1000 are literals
    n = rng.choice((rng.randrange(2, 60), rng.randrange(1001, 1500)))
    eq = ("eq", ("nat", n), ("nat", n))
    steps = [(eq, "EVAL")]
    cur, at = eq, 1
    while len(steps) < length:
        phase = len(steps) % 5
        if phase == 1 and len(steps) + 3 <= length:
            cur = ("all", rng.randrange(3), cur)
            steps.append((cur, "GEN %d x%d" % (at, cur[1])))
            var, body = cur[1], cur[2]
            t = ("nat", rng.randrange(5))
            inst = O.substitute(body, var, t)
            steps.append((imp(cur, inst), "INST[x := x%d; A := %s; t := %s]"
                          % (var, O.print_formula(body), O.print_term(t))))
            steps.append((inst, "MP %d %d" % (len(steps), len(steps) - 1)))
            cur, at = inst, len(steps)
        elif len(steps) + 2 <= length:
            b = sized_formula(rng, 1)
            steps.append((imp(cur, imp(b, cur)), "P1[A := %s; B := %s]"
                          % (O.print_formula(cur), O.print_formula(b))))
            cur = imp(b, cur)
            steps.append((cur, "MP %d %d" % (len(steps), at)))
            at = len(steps)
        else:
            steps.append((eq, "EVAL"))
    return steps


def proof_text(steps) -> str:
    return "".join("%d. %s ; %s\n" % (k, O.print_formula(f), j) for k, (f, j) in enumerate(steps, 1))


class Proof:
    def __init__(self, G):
        self.G = G

    def kernel(self, rng, kind: str, size: int, mutate: bool):
        kernel = self.G.kernel
        steps = identity_steps(sized_formula(rng, 3)) if kind == "identity" else chain_steps(rng, size)
        bad = None
        if mutate:
            bad = rng.randrange(2, len(steps) + 1)
            f, j = steps[bad - 1]
            if j.startswith("MP") and rng.random() < 0.5:
                steps[bad - 1] = (f, "MP %d %d" % (bad, bad))  # cites itself
            else:
                steps[bad - 1] = (("not", f), j)
        text = proof_text(steps)

        def call():
            proof, premises = kernel.parse_proof_file(text)
            return kernel.check_proof(proof, premises)

        def check(ok, value):
            if not ok:
                return False, "raised %s: %s" % (type(value).__name__, value)
            if bad is None and not value.ok:
                return True, "valid proof rejected at step %s: %s" % (value.step, value.reason)
            if bad is not None and (value.ok or value.step != bad):
                return True, "mutation at step %d: verdict ok=%s step=%s" % (bad, value.ok, value.step)
            return None

        op_kind = "proof_" + kind + ("_mutated" if mutate else "")
        return Op(op_kind, "pf:" + text, call, check, {"proof_steps": len(steps)})

    def audit(self, rng, name: str, renamed: bool):
        audit = self.G.audit
        text, nsteps, consumed, verdict, findings = SCRIPTS[name]
        labels = {"DEF_E", "NEC_DEF", "REFL", "COMP_E", "CONS"}
        mapping = random_renaming(rng, labels) if renamed else {a: a for a in labels}
        text = rename(text, mapping)
        expected = (nsteps, True, {mapping[a] for a in consumed}, {"App(q,q)": verdict}, findings)

        def convert(r):
            return (len(r.steps), all(s.ok for s in r.steps), set(r.consumed), dict(r.classification),
                    [(f.step, f.pattern) for f in r.contradictions])

        return Op("audit_" + name + ("_renamed" if renamed else ""), "au:" + text,
                  lambda: audit.check_script(audit.parse_script(text)),
                  expect_value(expected, convert=convert))

    def cores(self, rng, renamed: bool):
        audit = self.G.audit
        labels = {"DEF_E", "NEC_DEF", "REFL", "COMP_E"}
        mapping = random_renaming(rng, labels) if renamed else {a: a for a in labels}
        text = rename(CANONICAL, mapping)
        expected = [sorted(mapping[a] for a in CANONICAL_CORE)]
        return Op("audit_cores", "co:" + text,
                  lambda: audit.minimal_inconsistent_subsets(audit.parse_script(text)),
                  expect_value(expected))

    def random_meta(self, rng, atoms, size: int):
        if size <= 1:
            return rng.choice(atoms)
        r = rng.random()
        if r < 0.25:
            return ("not", self.random_meta(rng, atoms, size - 1))
        half = size // 2
        return (rng.choice(("imp", "imp", "iff")), self.random_meta(rng, atoms, half),
                self.random_meta(rng, atoms, size - half))

    def meta_atoms(self, rng, k: int):
        out = []
        while len(out) < k:
            i, j = rng.choice(INDICES), rng.choice(INDICES)
            d = rng.choice((("app", i, j), ("app", i, j), ("ine", j), ("negd", ("app", i, j))))
            a = (rng.choice(("dem", "dem", "assert")), d)
            if a not in out:
                out.append(a)
        return out

    def meta(self, rng, consequence: bool):
        meta = self.G.meta
        atoms = self.meta_atoms(rng, 6)
        if consequence:
            a, c = self.random_meta(rng, atoms, 4), self.random_meta(rng, atoms, 3)
            premises = [a, imp(a, c)] if rng.random() < 0.5 else [self.random_meta(rng, atoms, 5), a]
            texts = [O.meta_text(p) for p in premises]
            ctext = O.meta_text(c)
            expected = O.meta_consequence(premises, c)
            return Op("meta_consequence", "mc:%s|%s" % (texts, ctext),
                      lambda: meta.tautological_consequence([meta.parse_meta(t) for t in texts],
                                                            meta.parse_meta(ctext)),
                      expect_value(expected))
        formulas = [self.random_meta(rng, atoms, 5) for _ in range(3)]
        texts = [O.meta_text(f) for f in formulas]
        expected = O.meta_satisfiable(formulas)
        return Op("meta_satisfiable", "ms:%s" % texts,
                  lambda: meta.satisfiable([meta.parse_meta(t) for t in texts]),
                  expect_value(expected))

    def warmup(self, rng):
        return [self.kernel(rng, "identity", 5, False), self.kernel(rng, "chain", 4, True),
                self.audit(rng, "goedel", True), self.cores(rng, True),
                self.meta(rng, True), self.meta(rng, False)]

    def round(self, rng):
        ops = [self.kernel(rng, "identity", 5, i % 3 == 2) for i in range(9)]
        for size in (8, 16, 32, 48):
            ops += [self.kernel(rng, "chain", size, False), self.kernel(rng, "chain", size, True)]
        for name in ("canonical", "goedel", "extended"):
            ops += [self.audit(rng, name, False), self.audit(rng, name, True)]
        ops += [self.cores(rng, renamed) for renamed in (False, True, True)]
        ops += [self.meta(rng, i % 2 == 0) for i in range(30)]
        rng.shuffle(ops)
        return ops
