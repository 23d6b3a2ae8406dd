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
  that decides the logics outright.  A branch is an int, one bit per
  literal of the formula's closure (`_Closure`), and its implications
  are expanded lowest literal first; a successor starts from one mask,
  the operands of the branch's boxes (and in K4 and GL the boxes), plus
  the demand's literals.  So the work does not depend on the hash seed.

The search and the tableau read one closure: the sweep evaluates its
subformulas in order, and the search's propositional check is "some
open saturated branch exists".  Every model returned by the search is
re-verified by the direct checker, which does not read the closure,
before it leaves this module.  Search bounds are explicit; exceeding
them raises ResourceBound rather than returning a silently wrong answer.
"""

from __future__ import annotations

import json
from functools import cache, reduce
from operator import and_, or_

from .errors import ResourceBound, WorkbenchError
from .syntax import Cursor, Node, print_node, read_text, truth_columns

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
    _pieces = (0,)


class Neg(Node):
    __slots__ = _fields = ("sub",)
    _pieces = ("~", 0)


class Imp(Node):
    __slots__ = _fields = ("left", "right")
    _pieces = ("(", 0, " -> ", 1, ")")


class Box(Node):
    __slots__ = _fields = ("sub",)
    _pieces = ("[]", 0)


ModalFormula = Atom | Neg | Imp | Box
print_modal = print_node


def Dia(f: ModalFormula) -> ModalFormula:
    return Neg(Box(Neg(f)))


def And(a: ModalFormula, b: ModalFormula) -> ModalFormula:
    return Neg(Imp(a, Neg(b)))


def modal_depth(f: ModalFormula) -> int:
    return _Closure(f).depth


class _Parser(Cursor):
    lexeme = r"\[\]|<>|<->|->|[~&|()]|[a-z][a-z0-9_]*"
    neg, imp = Neg, Imp
    prefixes = {"[]": Box, "<>": Dia}

    def atom(self) -> ModalFormula:
        # the lexeme's one word token is [a-z][a-z0-9_]*, and END starts with <
        tok = self.tokens[self.i]
        if "a" <= tok[0] <= "z":
            self.i += 1
            return Atom(tok)
        self.fail("expected a formula, found %r" % tok)


def parse_modal(text: str) -> ModalFormula:
    p = _Parser(text)
    return p.parse(p.formula)


class _Closure:
    """A formula's subformulas, numbered once (the Fischer-Ladner closure).
    Each one that is not a negation gets an index k, operands first, keyed
    by its kind and its operands' literals, so a shared or repeated
    subformula gets one.  Literal 2k is subformula k and 2k+1 its negation:
    i ^ 1 is the complement of literal i, and ~~g is g.  keys[k] is an
    atom's name, the literal s for the box of s, or (a, b) for a -> b.  A
    set of literals is an int with bit i for literal i; imps and boxes
    hold bit 2k of each implication and box."""

    __slots__ = ("keys", "top", "imps", "boxes", "depth", "evens")

    def __init__(self, f: ModalFormula):
        index: dict = {}  # key -> k
        lit: dict[int, int] = {}  # id(node) -> literal
        depth: list[int] = []  # index -> modal depth
        imps = boxes = 0
        stack = [f]
        pop, get = stack.pop, lit.get
        while stack:
            g = pop()
            kind = type(g)
            if kind is Imp:
                a, b = get(id(g.left)), get(id(g.right))
                if a is None or b is None:
                    stack += (g, g.right, g.left)
                    continue
                key, d = (a, b), max(depth[a >> 1], depth[b >> 1])
            elif kind is Atom:
                key, d = g.name, 0
            else:
                a = get(id(g.sub))
                if a is None:
                    stack += (g, g.sub)
                    continue
                if kind is Neg:
                    lit[id(g)] = a ^ 1
                    continue
                key, d = a, depth[a >> 1] + 1
            k = index.setdefault(key, len(depth))
            lit[id(g)] = 2 * k
            if k == len(depth):
                depth.append(d)
                if kind is Imp:
                    imps |= 1 << 2 * k
                elif kind is Box:
                    boxes |= 1 << 2 * k
        self.keys, self.top, self.imps, self.boxes = list(index), lit[id(f)], imps, boxes
        self.depth = depth[self.top >> 1]
        self.evens = (4 ** len(depth) - 1) // 3


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
        labeling from an explicit stack: each subformula occurrence is
        labeled once, and its connective applied to its operands' labels."""
        full = (1 << self.worlds) - 1
        succ: dict[int, int] = {}
        for a, b in self.relation:
            succ[a] = succ.get(a, 0) | 1 << b
        ext = {a: sum(1 << u for u in ws) for a, ws in self.valuation}
        # todo holds subformulas to label and, below their operands, the
        # classes of connectives to apply to the labels on top of `labels`
        todo: list = [f]
        labels: list[int] = []
        while todo:
            g = todo.pop()
            if g is Imp:
                right = labels.pop()
                labels[-1] = (full ^ labels[-1]) | right
            elif g is Neg:
                labels[-1] ^= full
            elif g is Box:
                bad = full ^ labels[-1]
                labels[-1] = full ^ sum(1 << u for u, s in succ.items() if s & bad)
            elif type(g) is Atom:
                labels.append(ext.get(g.name, 0))
            elif type(g) is Imp:
                todo += (Imp, g.right, g.left)
            else:
                todo += (type(g), g.sub)
        return labels[0]

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


def _sweep(c: _Closure, succ: tuple[int, ...], atom_order: dict[str, int]):
    """For each world w, the rows (valuations) under which w forces the
    closure's formula, each subformula evaluated once, operands first."""
    n = len(succ)
    full, cols = truth_columns(n * len(atom_order))
    below = [[u for u in range(n) if s >> u & 1] for s in succ]
    # vals[k]: per world, the rows forcing subformula k; literal 2k+1's
    # rows are full ^ those, so `l & 1 and full` flips a literal l
    vals: list = []
    for key in c.keys:
        if type(key) is str:
            i = atom_order[key] * n
            vals.append(cols[i : i + n])
        elif type(key) is tuple:
            a, b = key
            na, nb = full if not a & 1 else 0, b & 1 and full
            vals.append([(x ^ na) | (y ^ nb) for x, y in zip(vals[a >> 1], vals[b >> 1])])
        else:
            sub, ns = vals[key >> 1], key & 1 and full
            vals.append([reduce(and_, [sub[u] ^ ns for u in us], full) for us in below])
    nt = c.top & 1 and full
    return [x ^ nt for x in vals[c.top >> 1]]


def _prop_satisfiable(c: _Closure) -> bool:
    """Whether an open saturated branch (never empty) exists: if not, the
    formula has no model in any logic."""
    return any(_saturated(c, 1 << c.top))


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
    c = _Closure(f)
    if not _prop_satisfiable(c):
        return None
    cap = GL_MAX_WORLDS if logic == "GL" else K_MAX_WORLDS
    bound = cap if max_worlds is None else max_worlds
    if bound > cap:
        raise ResourceBound("%s frame search capped at %d worlds" % (logic, cap))
    atom_names = sorted(key for key in c.keys if type(key) is str)
    atom_order = {a: i for i, a in enumerate(atom_names)}
    for n in range(1, bound + 1):
        if n * len(atom_names) > MAX_SEARCH_BITS:
            raise ResourceBound(
                "%d atoms on %d worlds exceed the valuation sweep bound"
                % (len(atom_names), n)
            )
        for succ in _class_frames(logic, n):
            forced = _sweep(c, succ, atom_order)
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


def _saturated(c: _Closure, branch: int):
    """Fully expand the propositional connectives, lowest literal first;
    yields open saturated branches, which hold only atoms, boxes and
    their negations."""
    keys, evens, composite = c.keys, c.evens, c.imps * 3
    stack = [branch]
    while stack:
        b = stack.pop()
        todo = b & composite
        if not todo:
            yield b
            continue
        low = todo & -todo
        i = low.bit_length() - 1
        left, right = keys[i >> 1]
        b ^= low
        if i & 1:  # ~(left -> right): left and ~right
            kids = (b | 1 << left | 1 << (right ^ 1),)
        else:  # left -> right: ~left or right, ~left expanded first
            kids = (b | 1 << right, b | 1 << (left ^ 1))
        stack += [k for k in kids if not k & k >> 1 & evens]


def _branch_satisfiable(
    c: _Closure, branch: int, logic: str, path: frozenset, budget: int
) -> bool:
    if budget < 0:
        raise ResourceBound("tableau depth bound exceeded")
    for sat in _saturated(c, branch):
        # every successor holds each box's operand, and in K4 and GL the
        # box; the bit of literal 2k has bit_length 2k + 1, so >> 1 is k
        boxed = sat & c.boxes
        base = 0 if logic == "K" else boxed
        while boxed:
            low = boxed & -boxed
            boxed ^= low
            base |= 1 << c.keys[low.bit_length() >> 1]
        # each ~[]psi, as the bit of []psi, demands a successor with ~psi
        demands = sat >> 1 & c.boxes
        while demands:
            low = demands & -demands
            demands ^= low
            succ = base | 1 << (c.keys[low.bit_length() >> 1] ^ 1)
            if logic == "GL":
                succ |= low  # []psi holds there too
            if succ & succ >> 1 & c.evens:
                break
            if logic == "K4" and succ in path:
                continue  # a transitive loop realizes this demand
            if not _branch_satisfiable(c, succ, logic, path | {succ}, budget - 1):
                break
        else:
            return True
    return False


def is_satisfiable(f: ModalFormula, logic: str = "GL") -> bool:
    if logic not in LOGICS:
        raise WorkbenchError("unknown logic %r" % logic)
    c = _Closure(f)
    start = 1 << c.top
    # GL re-expansion terminates because each successor fulfills one more
    # Box subformula for good; the budget is a generous safety net.
    budget = 4 * (c.boxes.bit_count() + 1) * (c.depth + 1) + 8
    return _branch_satisfiable(c, start, logic, frozenset([start]), budget)


def is_valid(f: ModalFormula, logic: str = "GL") -> bool:
    return not is_satisfiable(Neg(f), logic)


def model_within_bound(f: ModalFormula, logic: str) -> ModelWitness | None:
    """`find_model(f, logic)`, or None where the search would pass its
    bound: no witness within it."""
    try:
        return find_model(f, logic)
    except ResourceBound:
        return None


# --- verdicts and the shipped corpus -----------------------------------


def status(f: ModalFormula, logic: str) -> str:
    """One of: valid | unsatisfiable | satisfiable (n worlds) |
    satisfiable."""
    if not is_satisfiable(f, logic):
        return "unsatisfiable"
    if is_valid(f, logic):
        return "valid"
    witness = model_within_bound(f, logic)
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
