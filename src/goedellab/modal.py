"""Decision procedures for the modal logics K, K4 and GL.

Three independent engines are provided on purpose:

* a direct Kripke-model checker (`KripkeModel.forces`) — the small
  trusted base;
* an exhaustive finite-model search (`find_model`) that sweeps one frame
  per isomorphism class, sizes ascending, from a generated table whose
  entries are the first frames a labeled search from one world meets
  (GL frames are exactly the finite strict partial orders); its
  valuation sweep runs over all valuations at once, one bit per
  valuation in a Python int;
* a tableau satisfiability procedure (`is_satisfiable` / `is_valid`)
  that decides the logics outright.

Every model returned by the search is re-verified by the direct checker
before it leaves this module.  Search bounds are explicit; exceeding
them raises ResourceBound rather than returning a silently wrong answer.
"""

from __future__ import annotations

import json
import re
from functools import cache, reduce
from operator import or_

from .errors import ResourceBound, WorkbenchError
from .syntax import Cursor, Node, read_text, truth_columns, walk

LOGICS = ("K", "K4", "GL")

# model-search caps; the tableau has no world bound
GL_MAX_WORLDS = 6
K_MAX_WORLDS = 4
MAX_SEARCH_BITS = 22  # atoms * worlds valuation-space bound
# model files: labeling a sparse W-world chain takes about W**2 / 16 bytes
MAX_MODEL_WORLDS = 10_000


# --- syntax ------------------------------------------------------------


class Atom(Node):
    __slots__ = _fields = ("name",)
    _data = ("name",)


class Neg(Node):
    __slots__ = _fields = ("sub",)


class Imp(Node):
    __slots__ = _fields = ("left", "right")


class Box(Node):
    __slots__ = _fields = ("sub",)


ModalFormula = Atom | Neg | Imp | Box


def Dia(f: ModalFormula) -> ModalFormula:
    return Neg(Box(Neg(f)))


def And(a: ModalFormula, b: ModalFormula) -> ModalFormula:
    return Neg(Imp(a, Neg(b)))


def atoms_of(f: ModalFormula) -> set[str]:
    return {g.name for g in walk(f) if isinstance(g, Atom)}


def modal_depth(f: ModalFormula) -> int:
    if isinstance(f, Atom):
        return 0
    if isinstance(f, Neg):
        return modal_depth(f.sub)
    if isinstance(f, Box):
        return 1 + modal_depth(f.sub)
    return max(modal_depth(f.left), modal_depth(f.right))


def print_modal(f: ModalFormula) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Neg):
        return "~" + print_modal(f.sub)
    if isinstance(f, Box):
        return "[]" + print_modal(f.sub)
    return "(%s -> %s)" % (print_modal(f.left), print_modal(f.right))


class _Parser(Cursor):
    lexeme = r"\[\]|<>|<->|->|[~&|()]|[a-z][a-z0-9_]*"
    neg, imp = Neg, Imp
    prefixes = {"[]": Box, "<>": Dia}

    def atom(self) -> ModalFormula:
        tok = self.next()
        if re.fullmatch(r"[a-z][a-z0-9_]*", tok):
            return Atom(tok)
        self.fail("expected a formula, found %r" % tok, self.i - 1)


def parse_modal(text: str) -> ModalFormula:
    p = _Parser(text)
    return p.parse(p.formula)


# --- Kripke models: the trusted base -----------------------------------


class KripkeModel(Node):
    # valuation: (atom, the worlds where it holds) pairs, sorted by atom
    __slots__ = _fields = _data = ("worlds", "relation", "valuation")

    def is_transitive(self) -> bool:
        r = self.relation
        return all((a, d) in r for (a, b) in r for (c, d) in r if b == c)

    def is_irreflexive(self) -> bool:
        return all(a != b for (a, b) in self.relation)

    def frame_ok(self, logic: str) -> bool:
        """On finite frames, transitive + irreflexive characterizes GL
        (converse well-foundedness is automatic)."""
        if logic == "K":
            return True
        if logic == "K4":
            return self.is_transitive()
        if logic == "GL":
            return self.is_transitive() and self.is_irreflexive()
        raise WorkbenchError("unknown logic %r" % logic)

    def truth_mask(self, f: ModalFormula) -> int:
        """The worlds forcing f, as an int with bit u for world u.  Bottom-up
        labeling: each subformula occurrence is labeled once."""
        full = (1 << self.worlds) - 1
        succ: dict[int, int] = {}
        for a, b in self.relation:
            succ[a] = succ.get(a, 0) | 1 << b
        ext = {a: sum(1 << u for u in ws) for a, ws in self.valuation}

        def label(g: ModalFormula) -> int:
            if isinstance(g, Atom):
                return ext.get(g.name, 0)
            if isinstance(g, Neg):
                return full ^ label(g.sub)
            if isinstance(g, Imp):
                return (full ^ label(g.left)) | label(g.right)
            bad = full ^ label(g.sub)
            return full ^ sum(1 << u for u, s in succ.items() if s & bad)

        return label(f)

    def forces(self, w: int, f: ModalFormula) -> bool:
        if not 0 <= w < self.worlds:
            raise WorkbenchError("world %d out of range" % w)
        return bool(self.truth_mask(f) >> w & 1)

    def to_json_dict(self) -> dict:
        return {
            "worlds": self.worlds,
            "relation": sorted([list(p) for p in self.relation]),
            "valuation": {a: sorted(ws) for a, ws in self.valuation},
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "KripkeModel":
        try:
            # JSON also yields floats and bools (True == 1); neither counts
            worlds = d["worlds"]
            if type(worlds) is not int or worlds < 1:
                raise ValueError("worlds: %r is not a positive integer" % (worlds,))
            if worlds > MAX_MODEL_WORLDS:
                raise ResourceBound(
                    "model of %d worlds exceeds the bound of %d" % (worlds, MAX_MODEL_WORLDS)
                )

            def world(x) -> int:
                if type(x) is not int or not 0 <= x < worlds:
                    raise ValueError("%r is not a world of the model" % (x,))
                return x

            relation = frozenset((world(a), world(b)) for a, b in d["relation"])
            valuation = tuple(
                sorted(
                    (str(a), frozenset(world(w) for w in ws))
                    for a, ws in d.get("valuation", {}).items()
                )
            )
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise WorkbenchError("malformed model description: %s" % e)
        return cls(worlds, relation, valuation)

    @classmethod
    def load(cls, path: str) -> "KripkeModel":
        try:
            return cls.from_json_dict(json.loads(read_text(path)))
        except json.JSONDecodeError as e:
            raise WorkbenchError("model file is not valid JSON: %s" % e)


def make_model(
    worlds: int, relation, valuation: dict[str, set[int]]
) -> KripkeModel:
    return KripkeModel(
        worlds,
        frozenset(tuple(p) for p in relation),
        tuple(sorted((a, frozenset(ws)) for a, ws in valuation.items())),
    )


# --- frame classes -----------------------------------------------------
#
# Frames are kept as succ-bitmask tuples: succ[w] has bit v set iff wRv.


@cache
def _class_frames(logic: str, n: int) -> tuple[tuple[int, ...], ...]:
    """One frame of n worlds per isomorphism class, for n from 1 to the
    logic's cap: the first frame of each class that a labeled search from
    one world meets, in the order it meets them.  The table is decoded one
    size at a time on first use, so importing this module does not load
    it, and a one-world search never does."""
    if n == 1:
        return ((0,),) if logic == "GL" else ((0,), (1,))
    from ._frame_classes import FRAMES

    text, width, mask = FRAMES[logic][n - 1], -(-n * n // 4), (1 << n) - 1
    codes = (int(text[i : i + width], 16) for i in range(0, len(text), width))
    return tuple(tuple(c >> (a * n) & mask for a in range(n)) for c in codes)


# --- bit-parallel valuation sweep --------------------------------------
#
# Valuations are the rows of a truth table over atoms x worlds: in row v,
# atom i holds at world w iff bit i*n + w of v is set.  A truth value is
# kept per world as an int with one bit per row.


def _sweep(f: ModalFormula, succ: tuple[int, ...], atom_order: dict[str, int]):
    """For each world w, the rows (valuations) under which w forces f."""
    n = len(succ)
    full, cols = truth_columns(n * len(atom_order))

    def ev(g: ModalFormula) -> list[int]:
        if isinstance(g, Atom):
            i = atom_order[g.name]
            return list(cols[i * n : i * n + n])
        if isinstance(g, Neg):
            return [full ^ x for x in ev(g.sub)]
        if isinstance(g, Imp):
            return [(full ^ a) | b for a, b in zip(ev(g.left), ev(g.right))]
        sub = ev(g.sub)
        out = []
        for w in range(n):
            rows = full
            for u in range(n):
                if succ[w] >> u & 1:
                    rows &= sub[u]
            out.append(rows)
        return out

    return ev(f)


def _prop_satisfiable(f: ModalFormula) -> bool:
    """Treat Box-subformulas as opaque atoms; a propositionally
    unsatisfiable formula has no model in any logic."""
    keys: set[str] = set()

    def scan(g: ModalFormula):
        if isinstance(g, (Atom, Box)):
            keys.add(print_modal(g))
        elif isinstance(g, Neg):
            scan(g.sub)
        else:
            scan(g.left)
            scan(g.right)

    scan(f)
    if len(keys) > 20:
        return True  # inconclusive; defer to the real procedures
    full, cols = truth_columns(len(keys))
    column = dict(zip(sorted(keys), cols))

    def ev(g: ModalFormula) -> int:
        if isinstance(g, (Atom, Box)):
            return column[print_modal(g)]
        if isinstance(g, Neg):
            return full ^ ev(g.sub)
        return (full ^ ev(g.left)) | ev(g.right)

    return ev(f) != 0


class ModelWitness(Node):
    __slots__ = _fields = _data = ("model", "world")

    def to_json_dict(self) -> dict:
        d = self.model.to_json_dict()
        d["world"] = self.world
        return d


def find_model(
    f: ModalFormula, logic: str = "GL", max_worlds: int | None = None
) -> ModelWitness | None:
    """Exhaustive search for a pointed model of f within the logic's
    world bound.  None means no model exists within that bound (and, if
    the formula is propositionally unsatisfiable, no model at all).

    Whether some world of a frame forces f under some valuation does not
    depend on how the worlds are labeled.  So the search sweeps one frame
    per isomorphism class, sizes ascending: the first frame of the class
    that a labeled search from one world meets, in the order it meets
    them.  The first labeled frame with a model is its class's entry, and
    every class listed before it has no model, so the witness is the one
    that labeled search would find."""
    if logic not in LOGICS:
        raise WorkbenchError("unknown logic %r" % logic)
    if max_worlds is not None and max_worlds < 1:
        raise WorkbenchError("the search bound must be at least 1 world, not %d" % max_worlds)
    if not _prop_satisfiable(f):
        return None
    cap = GL_MAX_WORLDS if logic == "GL" else K_MAX_WORLDS
    bound = cap if max_worlds is None else max_worlds
    if bound > cap:
        raise ResourceBound("%s frame search capped at %d worlds" % (logic, cap))
    atom_names = sorted(atoms_of(f))
    atom_order = {a: i for i, a in enumerate(atom_names)}
    for n in range(1, bound + 1):
        if n * len(atom_names) > MAX_SEARCH_BITS:
            raise ResourceBound(
                "%d atoms on %d worlds exceed the valuation sweep bound"
                % (len(atom_names), n)
            )
        for succ in _class_frames(logic, n):
            forced = _sweep(f, succ, atom_order)
            hit = reduce(or_, forced)
            if hit:
                # the lowest valuation row, then the highest world forcing f in it
                v = (hit & -hit).bit_length() - 1
                world = max(w for w in range(n) if forced[w] >> v & 1)
                valuation = {
                    a: {w for w in range(n) if (v >> (i * n + w)) & 1}
                    for a, i in atom_order.items()
                }
                relation = {
                    (w, u) for w in range(n) for u in range(n) if succ[w] >> u & 1
                }
                model = make_model(n, relation, valuation)
                if not (model.frame_ok(logic) and model.forces(world, f)):
                    raise AssertionError(
                        "search produced a bad witness (frame/forcing re-check failed)"
                    )
                return ModelWitness(model, world)
    return None


# --- tableau decision procedure ----------------------------------------


def _push(branch: frozenset, f: ModalFormula) -> frozenset | None:
    """Add f (collapsing double negation); None signals branch closure."""
    while isinstance(f, Neg) and isinstance(f.sub, Neg):
        f = f.sub.sub
    comp = f.sub if isinstance(f, Neg) else Neg(f)
    if comp in branch:
        return None
    return branch | {f}


def _saturated(branch: frozenset):
    """Fully expand the propositional connectives; yields open saturated
    branches containing only atoms, negated atoms, Box and ~Box."""
    for f in branch:
        if isinstance(f, Imp):
            rest = branch - {f}
            for side in (Neg(f.left), f.right):
                b = _push(rest, side)
                if b is not None:
                    yield from _saturated(b)
            return
        if isinstance(f, Neg) and isinstance(f.sub, Imp):
            rest = branch - {f}
            b = _push(rest, f.sub.left)
            if b is not None:
                b = _push(b, Neg(f.sub.right))
            if b is not None:
                yield from _saturated(b)
            return
    yield branch


def _branch_satisfiable(
    branch: frozenset, logic: str, path: frozenset, budget: int
) -> bool:
    if budget < 0:
        raise ResourceBound("tableau depth bound exceeded")
    for sat in _saturated(branch):
        boxed = [g for g in sat if isinstance(g, Box)]
        diamonds = [
            g for g in sat if isinstance(g, Neg) and isinstance(g.sub, Box)
        ]
        ok = True
        for d in diamonds:
            psi = d.sub.sub  # d is ~[]psi
            succ: frozenset | None = frozenset()
            for g in boxed:
                succ = _push(succ, g.sub)
                if succ is not None and logic in ("K4", "GL"):
                    succ = _push(succ, g)
                if succ is None:
                    break
            if succ is not None and logic == "GL":
                succ = _push(succ, Box(psi))
            if succ is not None:
                succ = _push(succ, Neg(psi))
            if succ is None:
                ok = False
                break
            if logic == "K4" and succ in path:
                continue  # a transitive loop realizes this demand
            if not _branch_satisfiable(succ, logic, path | {succ}, budget - 1):
                ok = False
                break
        if ok:
            return True
    return False


def is_satisfiable(f: ModalFormula, logic: str = "GL") -> bool:
    if logic not in LOGICS:
        raise WorkbenchError("unknown logic %r" % logic)
    start = _push(frozenset(), f)
    if start is None:
        return False
    # GL re-expansion terminates because each successor fulfills one more
    # Box subformula for good; the budget is a generous safety net.
    budget = 4 * (len(_box_subformulas(f)) + 1) * (modal_depth(f) + 1) + 8
    return _branch_satisfiable(start, logic, frozenset([start]), budget)


def _box_subformulas(f: ModalFormula) -> set[ModalFormula]:
    return {g for g in walk(f) if isinstance(g, Box)}


def is_valid(f: ModalFormula, logic: str = "GL") -> bool:
    return not is_satisfiable(Neg(f), logic)


def find_countermodel(
    f: ModalFormula, logic: str = "GL", max_worlds: int | None = None
) -> ModelWitness | None:
    return find_model(Neg(f), logic, max_worlds)


# --- verdicts and the shipped corpus -----------------------------------


def status(f: ModalFormula, logic: str) -> str:
    """One of: valid | unsatisfiable | satisfiable (n worlds) |
    satisfiable."""
    if not is_satisfiable(f, logic):
        return "unsatisfiable"
    if is_valid(f, logic):
        return "valid"
    try:
        witness = find_model(f, logic)
    except ResourceBound:
        witness = None
    if witness is not None:
        return "satisfiable (%d worlds)" % witness.model.worlds
    return "satisfiable"


NOTABLE_SCHEMAS: tuple[tuple[str, str], ...] = (
    ("K distribution", "[](p -> r) -> ([]p -> []r)"),
    ("transitivity 4", "[]p -> [][]p"),
    ("reflection T", "[]p -> p"),
    ("Loeb", "[]([]p -> p) -> []p"),
    ("provable iff refutable", "[]p <-> ~[]p"),
    ("fixed point", "p <-> ~[]p"),
    ("boxed fixed point", "[](p <-> ~[]p)"),
    ("neg-box agreement", "[]~p <-> []p"),
    ("consistency", "~[]f & ~[]~f"),
    ("box of falsum", "[](p & ~p)"),
)


def schema_verdicts() -> list[dict]:
    rows = []
    for name, text in NOTABLE_SCHEMAS:
        f = parse_modal(text)
        rows.append(
            {
                "name": name,
                "formula": text,
                **{logic: status(f, logic) for logic in LOGICS},
            }
        )
    return rows


# A fixed corpus exercised by the test suite: text, plus the expected
# satisfiability of the formula in each logic per the tableau.
CORPUS: tuple[str, ...] = (
    "p",
    "~p",
    "p -> p",
    "~(p -> p)",
    "p & ~p",
    "p | ~p",
    "[]p",
    "~[]p",
    "<>p",
    "[]p & ~p",
    "[]p -> p",
    "~([]p -> p)",
    "[]p -> [][]p",
    "~([]p -> [][]p)",
    "[](p -> r) -> ([]p -> []r)",
    "~([](p -> r) -> ([]p -> []r))",
    "[]([]p -> p) -> []p",
    "~([]([]p -> p) -> []p)",
    "[]p <-> ~[]p",
    "p <-> ~[]p",
    "[](p <-> ~[]p)",
    "[](p <-> ~[]p) & ~[]p",
    "[](p <-> ~[]p) & []p",
    "[]~p <-> []p",
    "<>p & <>~p",
    "[]p & <>~p",
    "<>(p & r) -> (<>p & <>r)",
    "(<>p & <>r) -> <>(p & r)",
    "[][]p -> []p",
    "<><>p -> <>p",
    "[]((p -> r) & p) -> []r",
    "<>p -> <>[]~p",
)
