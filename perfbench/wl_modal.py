"""The modal part of the `lib` workload: in-process tableau, model search
and forcing on formulas with 2-3 atoms and modal depth at most 4.

Why: frame generation, the valuation sweep, the tableau and forcing do
all the work in this part and the codec does none.  Every formula's status is
known by construction: satisfiable ones are read off a planted model,
unsatisfiable ones instantiate a schema that is valid in the logic, so
they stay propositionally satisfiable and make the search walk every
frame within its bound.  A fixed share of each round is of that second
kind, so a frame-order change that helps one kind of search and hurts
the other shows up.
"""

from __future__ import annotations

import oracle as O
from common import Op, expect_value

ATOMS = ("p", "q", "r")

# README's notable schemas with their verdicts in K, K4 and GL, from the
# literature (Boolos, "The Logic of Provability", 1993): K proves the
# distribution axiom, K4 adds 4, GL adds Loeb's axiom; T holds in none.
SCHEMAS = (
    ("[](p -> r) -> ([]p -> []r)", ("valid", "valid", "valid")),
    ("[]p -> [][]p", ("sat", "valid", "valid")),
    ("[]p -> p", ("sat", "sat", "sat")),
    ("[]([]p -> p) -> []p", ("sat", "sat", "valid")),
    ("[]p <-> ~[]p", ("unsat", "unsat", "unsat")),
    ("p <-> ~[]p", ("sat", "sat", "sat")),
    ("[](p <-> ~[]p)", ("sat", "sat", "sat")),
    ("[]~p <-> []p", ("sat", "sat", "sat")),
    ("~[]f & ~[]~f", ("sat", "sat", "sat")),
    ("[](p & ~p)", ("sat", "sat", "sat")),
)
LOGICS = ("K", "K4", "GL")

# (logic, world bound, atoms) of the exhaustive searches: 0.02-0.8 s each
# at the seed commit
EXHAUSTIVE = (("GL", 5, 2), ("GL", 4, 3), ("K4", 4, 2), ("K4", 3, 3), ("K", 3, 2), ("K", 3, 3))
BOUNDS = {"GL": 5, "K4": 4, "K": 3}


def random_modal(rng, atoms, depth: int, size: int):
    """A random formula with `size` atom occurrences and modal depth at
    most `depth`."""
    r = rng.random()
    if depth > 0 and r < 0.3:
        return (rng.choice(("box", "dia")), random_modal(rng, atoms, depth - 1, size))
    if r < 0.4:
        return ("not", random_modal(rng, atoms, depth, size))
    if size <= 1:
        return ("atom", rng.choice(atoms))
    left = rng.randrange(1, size)
    return (rng.choice(("imp", "and", "or", "iff")),
            random_modal(rng, atoms, depth, left), random_modal(rng, atoms, depth, size - left))


def random_frame(rng, logic: str, n: int, density: float) -> list[set[int]]:
    succ = [set() for _ in range(n)]
    if logic == "GL":
        order = list(range(n))
        rng.shuffle(order)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    succ[order[i]].add(order[j])
    else:
        for a in range(n):
            for b in range(n):
                if rng.random() < density:
                    succ[a].add(b)
    if logic != "K":
        changed = True
        while changed:
            changed = False
            for w in range(n):
                reach = set().union(*[succ[v] for v in succ[w]]) if succ[w] else set()
                if not reach <= succ[w]:
                    succ[w] |= reach
                    changed = True
    return succ


def with_atoms(rng, f, atoms):
    """Conjoin f with a random formula that mentions every atom."""
    extra = ("atom", atoms[0])
    for a in atoms[1:]:
        extra = (rng.choice(("or", "and", "imp")), extra, ("atom", a))
    if rng.random() < 0.5:
        extra = ("dia", extra)
    return ("and", f, extra)


class Modal:
    def __init__(self, G):
        self.G = G

    # --- formulas with known status -----------------------------------

    def planted(self, rng, logic: str, natoms: int, max_worlds: int):
        """(formula, model, world) with the formula forced at the world."""
        atoms = ATOMS[:natoms]
        n = rng.randrange(1, max_worlds + 1)
        model = O.Kripke(n, random_frame(rng, logic, n, 0.45),
                         {a: {w for w in range(n) if rng.random() < 0.5} for a in atoms})
        f = with_atoms(rng, random_modal(rng, atoms, 3, 5), atoms)
        ext = model.extension(f)
        if not ext:
            f = ("not", f)
            ext = model.extension(f)
        return f, model, min(ext)

    def unsat(self, rng, logic: str, natoms: int, core=None):
        """A formula with no model in the logic that is still
        propositionally satisfiable over its modal subformulas."""
        atoms = ATOMS[:natoms]
        while True:
            x = random_modal(rng, atoms, 1, 2)
            y = random_modal(rng, atoms, 1, 2)
            cores = [("and", ("box", x), ("dia", ("not", x))),
                     ("and", ("and", ("box", ("imp", x, y)), ("box", x)), ("not", ("box", y)))]
            if logic != "K":
                cores.append(("and", ("box", x), ("not", ("box", ("box", x)))))
            if logic == "GL":
                cores.append(("and", ("box", ("imp", ("box", x), x)), ("not", ("box", x))))
            f = with_atoms(rng, cores[core] if core is not None else rng.choice(cores), atoms)
            if O.modal_depth(f) <= 4 and O.box_atoms_satisfiable(f):
                return f

    # --- ops -----------------------------------------------------------

    def tableau(self, rng, logic, sat: bool, valid_form: bool):
        modal = self.G.modal
        f = self.planted(rng, logic, rng.choice((2, 3)), BOUNDS[logic])[0] if sat \
            else self.unsat(rng, logic, rng.choice((2, 3)))
        if valid_form:
            text = O.modal_text(("not", f))
            return Op("is_valid", "v:%s:%s" % (logic, text),
                      lambda: modal.is_valid(modal.parse_modal(text), logic), expect_value(not sat))
        text = O.modal_text(f)
        return Op("is_satisfiable", "s:%s:%s" % (logic, text),
                  lambda: modal.is_satisfiable(modal.parse_modal(text), logic), expect_value(sat))

    def witness_check(self, f, logic, bound, expect_found):
        def check(ok, value):
            if not ok:
                return False, "raised %s: %s" % (type(value).__name__, value)
            if value is None:
                if expect_found:
                    return True, "no model found, but one exists within %d worlds" % bound
                return None
            if not expect_found:
                return True, "returned a model of a formula that has none"
            model = O.Kripke.from_program(value.model)
            if model.worlds > bound or not model.frame_ok(logic):
                return True, "witness frame is not a %s frame within %d worlds" % (logic, bound)
            if value.world not in model.extension(f):
                return True, "witness does not force the formula at its world"
            return None

        return check

    def find(self, rng, logic, bound, natoms, sat: bool, core=None):
        modal = self.G.modal
        if sat:
            f = self.planted(rng, logic, natoms, bound)[0]
        else:
            f = self.unsat(rng, logic, natoms, core)
        text = O.modal_text(f)
        return Op("find_model" if sat else "find_model_exhaust", "f:%s:%d:%s" % (logic, bound, text),
                  lambda: modal.find_model(modal.parse_modal(text), logic, bound),
                  self.witness_check(f, logic, bound, sat),
                  {"find_model_exhausts_" + logic: float(not sat)})

    def status(self, rng, logic, sat: bool):
        modal = self.G.modal
        if sat:
            f, model, _ = self.planted(rng, logic, 2, 4)
            holds_everywhere = len(model.extension(f)) == model.worlds
            worlds = model.worlds
        else:
            f = self.unsat(rng, logic, 2)
        text = O.modal_text(f)

        def check(ok, value):
            if not ok:
                return False, "raised %s: %s" % (type(value).__name__, value)
            if not sat:
                return None if value == "unsatisfiable" else (True, "verdict %r, expected unsatisfiable" % value)
            if value == "valid" and holds_everywhere:
                return None
            if value.startswith("satisfiable (") and int(value[13:].split()[0]) <= worlds:
                return None
            return True, "verdict %r for a formula with a %d-world model" % (value, worlds)

        return Op("status", "st:%s:%s" % (logic, text),
                  lambda: modal.status(modal.parse_modal(text), logic), check)

    def schema(self, index, logic):
        modal = self.G.modal
        text, verdicts = SCHEMAS[index]
        want = verdicts[LOGICS.index(logic)]

        def check(ok, value):
            if not ok:
                return False, "raised %s: %s" % (type(value).__name__, value)
            if (want == "valid" and value == "valid") or (want == "unsat" and value == "unsatisfiable") \
                    or (want == "sat" and value.startswith("satisfiable")):
                return None
            return True, "%s in %s: verdict %r, literature says %s" % (text, logic, value, want)

        return Op("status_schema", "sc:%s:%s" % (logic, text),
                  lambda: modal.status(modal.parse_modal(text), logic), check)

    def forces(self, rng, n, depth, hole: bool):
        """[]^depth p on a dense frame where every world has the same number
        of successors; p holds everywhere, or everywhere but one world,
        which lets the recursion stop early."""
        modal = self.G.modal
        degree = round(0.8 * n)
        succ = [set(rng.sample(range(n), degree)) for _ in range(n)]
        truth = set(range(n))
        if hole:
            truth.discard(rng.randrange(n))
        f = ("atom", "p")
        for _ in range(depth):
            f = ("box", f)
        text = O.modal_text(f)
        world = rng.randrange(n)
        expected = world in O.Kripke(n, succ, {"p": truth}).extension(f)
        relation = [(a, b) for a in range(n) for b in sorted(succ[a])]
        model = modal.make_model(n, relation, {"p": truth})
        return Op("forces", "fc:%r:%s:%d" % (relation, sorted(truth), world),
                  lambda: model.forces(world, modal.parse_modal(text)), expect_value(expected))

    # --- rounds --------------------------------------------------------

    def warmup(self, rng):
        return [
            self.tableau(rng, "K", True, False), self.tableau(rng, "K", False, True),
            self.find(rng, "K", 2, 2, True), self.find(rng, "K", 2, 2, False),
            self.status(rng, "K", True), self.schema(0, "K"), self.forces(rng, 3, 2, False),
        ]

    def round(self, rng):
        ops = []
        for i in range(62):
            ops.append(self.tableau(rng, LOGICS[i % 3], i % 4 < 2, i % 8 >= 5))
        for i in range(10):
            ops.append(self.find(rng, LOGICS[i % 3], BOUNDS[LOGICS[i % 3]], 2 + i % 2, True))
        for i, (logic, bound, natoms) in enumerate(EXHAUSTIVE):
            ops.append(self.find(rng, logic, bound, natoms, False, i % 2))
        for i in range(6):
            ops.append(self.status(rng, LOGICS[i % 3], i < 4))
        for k in range(4):
            ops.append(self.schema(rng.randrange(len(SCHEMAS)), LOGICS[k % 3]))
        # strata (worlds, depth) twice each, and the 6^5-path ones three
        # times, so that the tail percentile sits in a cluster of ops of
        # the same cost; again with a hole in p's extension
        strata = ((6, 4), (7, 4), (8, 4), (6, 5), (7, 5), (8, 5), (6, 6), (7, 6))
        for n, depth in strata * 2 + ((7, 5), (8, 5)):
            ops.append(self.forces(rng, n, depth, False))
        for n, depth in strata * 2:
            ops.append(self.forces(rng, n, depth, True))
        rng.shuffle(ops)
        return ops
