import importlib.util
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from functools import reduce
from itertools import permutations
from operator import or_
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goedellab import modal as Md
from goedellab._frame_classes import FRAMES
from goedellab.errors import ParseError, ResourceBound, WorkbenchError
from goedellab.syntax import truth_columns, walk

p, r = Md.Atom("p"), Md.Atom("r")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the table's generator, which holds the labeled frame generators
_spec = importlib.util.spec_from_file_location(
    "frame_classes", Path(__file__).resolve().parents[1] / "tools" / "frame_classes.py"
)
FC = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(FC)


# --- syntax ------------------------------------------------------------


def test_parse_desugars_into_the_core():
    assert Md.parse_modal("[]p -> p") == Md.Imp(Md.Box(p), p)
    assert Md.parse_modal("<>p") == Md.Neg(Md.Box(Md.Neg(p)))
    assert Md.parse_modal("p & r") == Md.Neg(Md.Imp(p, Md.Neg(r)))
    assert Md.parse_modal("p | r") == Md.Imp(Md.Neg(p), r)
    assert Md.parse_modal("p <-> r") == Md.And(Md.Imp(p, r), Md.Imp(r, p))


def test_parse_print_round_trip_on_the_corpus():
    for text in Md.CORPUS:
        f = Md.parse_modal(text)
        assert Md.parse_modal(Md.print_modal(f)) == f


def test_parse_errors():
    with pytest.raises(ParseError):
        Md.parse_modal("p ->")
    with pytest.raises(ParseError):
        Md.parse_modal("p q")
    with pytest.raises(ParseError):
        Md.parse_modal("P")  # atoms are lowercase


# --- the direct model checker ------------------------------------------


def test_forces_on_a_hand_built_model():
    # 0 -> 1, 0 -> 2; p at 1 only
    m = Md.make_model(3, [(0, 1), (0, 2)], {"p": {1}})
    assert m.forces(1, p)
    assert not m.forces(0, Md.Box(p))
    assert m.forces(0, Md.parse_modal("<>p & <>~p"))
    assert m.forces(1, Md.Box(p))  # vacuously: no successors
    assert m.frame_ok("GL") and m.frame_ok("K4") and m.frame_ok("K")


def test_frame_conditions():
    loop = Md.make_model(1, [(0, 0)], {})
    assert loop.frame_ok("K") and loop.frame_ok("K4")
    assert not loop.frame_ok("GL")
    chain = Md.make_model(3, [(0, 1), (1, 2)], {})
    assert not chain.frame_ok("K4")  # missing (0, 2)


def test_model_json_round_trip_and_validation():
    m = Md.make_model(2, [(0, 1)], {"p": {0}})
    assert Md.KripkeModel.from_json_dict(m.to_json_dict()) == m
    with pytest.raises(WorkbenchError):
        Md.KripkeModel.from_json_dict({"worlds": 1, "relation": [[0, 5]]})
    with pytest.raises(WorkbenchError):
        Md.KripkeModel.from_json_dict({"relation": []})


@pytest.mark.parametrize(
    "model",
    [
        {"worlds": 2.7, "relation": []},
        {"worlds": -1, "relation": []},
        {"worlds": 0, "relation": []},
        {"worlds": True, "relation": []},
        {"worlds": "2", "relation": []},
        {"worlds": 2, "relation": [[0, True]]},
        {"worlds": 2, "relation": [[0.0, 1]]},
        {"worlds": 2, "relation": [], "valuation": {"p": [True]}},
        {"worlds": 2, "relation": [], "valuation": {"p": [1.0]}},
        {"worlds": 2, "relation": [], "valuation": [["p", [0]]]},
    ],
)
def test_model_fields_must_be_real_ints(model):
    with pytest.raises(WorkbenchError, match="malformed model description"):
        Md.KripkeModel.from_json_dict(model)


def _referee_forces(m: Md.KripkeModel, w: int, f) -> bool:
    """The forcing clauses read literally, one world at a time."""
    if isinstance(f, Md.Atom):
        return w in dict(m.valuation).get(f.name, frozenset())
    if isinstance(f, Md.Neg):
        return not _referee_forces(m, w, f.sub)
    if isinstance(f, Md.Imp):
        return not _referee_forces(m, w, f.left) or _referee_forces(m, w, f.right)
    return all(_referee_forces(m, v, f.sub) for (u, v) in m.relation if u == w)


def _random_modal(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return Md.Atom(rng.choice("pqr"))  # r has no extension
    kind = rng.randrange(3)
    if kind == 0:
        return Md.Neg(_random_modal(rng, depth - 1))
    if kind == 1:
        return Md.Box(_random_modal(rng, depth - 1))
    return Md.Imp(_random_modal(rng, depth - 1), _random_modal(rng, depth - 1))


def test_forces_agrees_with_the_clauses_on_random_models():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(1, 5)
        rel = [(a, b) for a in range(n) for b in range(n) if rng.random() < 0.35]
        val = {a: {w for w in range(n) if rng.random() < 0.5} for a in "pq"}
        m = Md.make_model(n, rel, val)
        f = _random_modal(rng, 4)
        for w in range(n):
            assert m.forces(w, f) == _referee_forces(m, w, f), (m, w, f)


def test_deep_boxes_are_checked_in_linear_time():
    n = 8
    succ = (1 << n) - 1
    complete = [(a, b) for a in range(n) for b in range(n)]
    f = p
    for _ in range(10):
        f = Md.Box(f)
    for truth in (set(range(n)), set(range(n)) - {3}):
        m = Md.make_model(n, complete, {"p": truth})
        start = time.perf_counter()
        forced = [m.forces(w, f) for w in range(n)]
        assert time.perf_counter() - start < 0.1
        rows = Md._sweep(Md._Closure(f), (succ,) * n, {"p": 0})
        v = sum(1 << w for w in truth)  # the sweep's row for this valuation
        assert forced == [bool(rows[w] >> v & 1) for w in range(n)]
        assert forced == [len(truth) == n] * n


# --- frame enumeration -------------------------------------------------
#
# The generators of tools/frame_classes.py, which writes the frame-class
# table, against the generators as they were before they kept only
# successor masks, kept as referees: the same frames must come out in the
# same order.


def _referee_gl_frames(max_n: int):
    def exact(target: int, n: int, succ: list[int], pred: list[int]):
        if n == target:
            yield n, tuple(succ)
            return
        down_closed = [
            p
            for p in range(1 << n)
            if all(pred[x] & ~p == 0 for x in range(n) if p >> x & 1)
        ]
        up_closed = [
            s
            for s in range(1 << n)
            if all(succ[x] & ~s == 0 for x in range(n) if s >> x & 1)
        ]
        for p in down_closed:
            for s in up_closed:
                if p & s:
                    continue
                if any(s & ~succ[x] for x in range(n) if p >> x & 1):
                    continue
                new_succ = [
                    succ[x] | (1 << n) if p >> x & 1 else succ[x] for x in range(n)
                ]
                new_pred = [
                    pred[x] | (1 << n) if s >> x & 1 else pred[x] for x in range(n)
                ]
                new_succ.append(s)
                new_pred.append(p)
                yield from exact(target, n + 1, new_succ, new_pred)

    for target in range(1, max_n + 1):
        yield from exact(target, 0, [], [])


def _referee_k_frames(max_n: int, transitive: bool):
    for n in range(1, max_n + 1):
        pairs = [(a, b) for a in range(n) for b in range(n)]
        for bits in range(1 << (n * n)):
            succ = [0] * n
            for i, (a, b) in enumerate(pairs):
                if bits >> i & 1:
                    succ[a] |= 1 << b
            if transitive:
                ok = True
                for a in range(n):
                    m, acc = succ[a], succ[a]
                    while m:
                        b = (m & -m).bit_length() - 1
                        m &= m - 1
                        acc |= succ[b]
                    if acc & ~succ[a]:
                        ok = False
                        break
                if not ok:
                    continue
            yield n, tuple(succ)


def _referee_frames(logic: str, max_n: int):
    if logic == "GL":
        return _referee_gl_frames(max_n)
    return _referee_k_frames(max_n, logic == "K4")


def test_gl_frames_match_the_referee():
    assert list(FC.gl_frames(5)) == list(_referee_gl_frames(5))


def test_k_frames_match_the_referee():
    for transitive in (False, True):
        got = list(FC.k_frames(3, transitive))
        assert got == list(_referee_k_frames(3, transitive))


def test_strict_poset_counts_are_exact():
    counts = Counter(n for n, _ in FC.gl_frames(5))
    assert [counts[i] for i in range(1, 6)] == [1, 3, 19, 219, 4231]


def test_k4_frames_are_the_transitive_ones():
    frames = [succ for n, succ in FC.k_frames(3, transitive=True) if n == 3]
    for succ in frames:
        m = Md.make_model(
            3, [(a, b) for a in range(3) for b in range(3) if succ[a] >> b & 1], {}
        )
        assert m.is_transitive()
    # independently counted: transitive relations on 3 labeled points
    assert len(frames) == 171


# --- the frame-class table --------------------------------------------
#
# Brute-force orbits, the referee of the shipped table: the orbit of a
# frame is the codes of all n! relabelings of it, where bit a * n + b of a
# code is set iff world a sees world b.

CLASS_COUNTS = {
    "GL": [1, 2, 5, 16, 63, 318],  # OEIS A000112
    "K": [2, 10, 104, 3044],  # OEIS A000595
    "K4": [2, 8, 39, 242],
}


def _code(succ) -> int:
    return sum(s << (a * len(succ)) for a, s in enumerate(succ))


def _orbit(succ) -> set[int]:
    """The codes of every relabeling of the frame."""
    n = len(succ)
    pairs = [(a, b) for a in range(n) for b in range(n) if succ[a] >> b & 1]
    return {sum(1 << (pi[a] * n + pi[b]) for a, b in pairs) for pi in permutations(range(n))}


def _class_table(logic: str):
    return [Md._class_frames(logic, n) for n in range(1, len(CLASS_COUNTS[logic]) + 1)]


def test_class_counts_per_size_are_pinned():
    caps = {"K": Md.K_MAX_WORLDS, "K4": Md.K_MAX_WORLDS, "GL": Md.GL_MAX_WORLDS}
    assert {logic: len(sizes) for logic, sizes in FRAMES.items()} == caps
    for logic in Md.LOGICS:
        assert [len(frames) for frames in _class_table(logic)] == CLASS_COUNTS[logic]


def test_class_table_entries_are_frames_of_their_logic():
    for logic in Md.LOGICS:
        for n, frames in enumerate(_class_table(logic), 1):
            for succ in frames:
                relation = [(a, b) for a in range(n) for b in range(n) if succ[a] >> b & 1]
                assert Md.make_model(n, relation, {}).frame_ok(logic), (logic, succ)


def test_class_table_entries_are_pairwise_non_isomorphic():
    for logic in Md.LOGICS:
        for frames in _class_table(logic):
            assert len({min(_orbit(succ)) for succ in frames}) == len(frames)


@pytest.mark.parametrize("logic, max_n", [("GL", 6), ("K", 4), ("K4", 4)])
def test_class_table_is_regenerated_from_the_labeled_frames(logic, max_n):
    # each entry is the first frame of its orbit in the labeled order, and
    # the entries of a size come in the order their orbits are first met; so
    # the first labeled frame with a model is the entry of its class, and
    # every entry before it is in a class with no model.  With the pinned
    # counts this proves every size complete.
    seen: set[tuple[int, int]] = set()
    firsts: list[list[tuple[int, ...]]] = [[] for _ in range(max_n)]
    for n, succ in _referee_frames(logic, max_n):
        if (n, _code(succ)) not in seen:
            seen.update((n, c) for c in _orbit(succ))
            firsts[n - 1].append(succ)
    assert [list(entries) for entries in _class_table(logic)] == firsts
    # one world is served without the table; its row must agree all the same
    assert FRAMES[logic][0] == "".join("%x" % _code(succ) for succ in firsts[0])


# --- search and tableau ------------------------------------------------


def test_fixed_point_satisfiable_in_gl_with_one_world():
    w = Md.find_model(Md.parse_modal("p <-> ~[]p"), "GL")
    assert w is not None and w.model.worlds == 1
    assert w.model.forces(w.world, Md.parse_modal("p <-> ~[]p"))
    # the terminal world makes everything boxed, so p must be false
    assert not w.model.forces(w.world, p)


def test_box_iff_not_box_unsatisfiable_everywhere():
    f = Md.parse_modal("[]p <-> ~[]p")
    for logic in Md.LOGICS:
        assert not Md.is_satisfiable(f, logic)
        assert Md.find_model(f, logic) is None


def test_loeb_valid_in_gl_only_with_small_k_countermodel():
    loeb = Md.parse_modal("[]([]p -> p) -> []p")
    assert Md.is_valid(loeb, "GL")
    assert not Md.is_valid(loeb, "K")
    assert not Md.is_valid(loeb, "K4")
    counter = Md.find_model(Md.Neg(loeb), "K")
    assert counter is not None and counter.model.worlds <= 2
    assert counter.model.forces(counter.world, Md.Neg(loeb))


def test_k_distribution_valid_everywhere():
    f = Md.parse_modal("[](p -> r) -> ([]p -> []r)")
    for logic in Md.LOGICS:
        assert Md.is_valid(f, logic)


def test_four_axiom_needs_transitivity():
    f = Md.parse_modal("[]p -> [][]p")
    assert Md.is_valid(f, "K4") and Md.is_valid(f, "GL")
    assert not Md.is_valid(f, "K")
    counter = Md.find_model(Md.Neg(f), "K")
    assert counter is not None
    assert counter.model.forces(counter.world, Md.Neg(f))


def test_gl_rejects_infinite_ascent():
    # demands an endless chain of p-worlds, impossible on a converse
    # well-founded frame
    f = Md.parse_modal("p & []p & <>p & [](p -> <>p)")
    assert not Md.is_satisfiable(f, "GL")
    assert Md.find_model(f, "GL") is None
    assert Md.is_satisfiable(f, "K")  # a reflexive point serves


def test_tableau_and_bounded_search_never_disagree_on_the_corpus():
    for text in Md.CORPUS:
        f = Md.parse_modal(text)
        for logic, cap in (("K", 3), ("K4", 3), ("GL", 4)):
            sat = Md.is_satisfiable(f, logic)
            witness = Md.find_model(f, logic, max_worlds=cap)
            if witness is not None:
                assert sat, (text, logic)
                assert witness.model.frame_ok(logic)
                assert witness.model.forces(witness.world, f)
            if not sat:
                assert witness is None, (text, logic)
        # satisfiable formulas must be witnessed within the caps
        if Md.is_satisfiable(f, "GL"):
            assert Md.find_model(f, "GL", max_worlds=4) is not None, text



# --- the tableau's work ------------------------------------------------

# counts the tableau's steps over a seeded formula set, in a process of
# its own, so that the hash seed can be set
_COUNT_TABLEAU_CALLS = """
import random
from goedellab import modal as Md

calls = 0
step = Md._branch_satisfiable

def counted(*args):
    global calls
    calls += 1
    return step(*args)

Md._branch_satisfiable = counted

def text(rng, depth):
    r = rng.random()
    if depth == 0 or r < 0.2:
        return rng.choice("pqr")
    if r < 0.5:
        return rng.choice(("~", "[]", "<>")) + text(rng, depth - 1)
    op = rng.choice(("->", "&", "|", "<->"))
    return "(%s %s %s)" % (text(rng, depth - 1), op, text(rng, depth - 1))

rng = random.Random(3)
for _ in range(100):
    f = Md.parse_modal(text(rng, 5))
    for logic in Md.LOGICS:
        Md.is_satisfiable(f, logic)
print(calls)
"""


def test_the_tableau_does_the_same_work_under_every_hash_seed():
    counts = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-c", _COUNT_TABLEAU_CALLS], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        counts.append(int(proc.stdout))
    assert counts == [counts[0]] * 3, counts


def test_a_gl_box_chain_takes_one_tableau_step_per_world(monkeypatch):
    calls = []
    step = Md._branch_satisfiable
    monkeypatch.setattr(Md, "_branch_satisfiable", lambda *a: calls.append(1) or step(*a))
    assert not Md.is_valid(Md.parse_modal("[]" * 300 + "p"), "GL")
    assert len(calls) == 301


def test_box_chains_and_nested_biconditionals_are_decided_fast():
    chain = Md.parse_modal("[]" * 600 + "p")
    start = time.perf_counter()
    assert not Md.is_valid(chain, "GL")
    assert time.perf_counter() - start < 0.5
    # <-> shares its operands: 20 nested are a tree of 2**20 paths
    text = "p"
    for _ in range(20):
        text = "p <-> (%s)" % text
    nested = Md.parse_modal(text)
    start = time.perf_counter()
    assert not Md.is_valid(nested, "GL")
    assert time.perf_counter() - start < 0.1


def _referee_prop_satisfiable(f) -> bool:
    """The propositional check as it was before the closure: atoms and
    boxes are opaque, keyed by their printed text, in a truth table."""

    def opaque(g) -> set:
        if isinstance(g, (Md.Atom, Md.Box)):
            return {Md.print_modal(g)}
        return set().union(*map(opaque, g._values()))

    full, cols = truth_columns(len(opaque(f)))
    column = dict(zip(sorted(opaque(f)), cols))

    def ev(g) -> int:
        if isinstance(g, (Md.Atom, Md.Box)):
            return column[Md.print_modal(g)]
        if isinstance(g, Md.Neg):
            return full ^ ev(g.sub)
        return (full ^ ev(g.left)) | ev(g.right)

    return ev(f) != 0


def _without_double_negations(f):
    while isinstance(f, Md.Neg) and isinstance(f.sub, Md.Neg):
        f = f.sub.sub
    if isinstance(f, Md.Atom):
        return f
    if isinstance(f, Md.Imp):
        return Md.Imp(_without_double_negations(f.left), _without_double_negations(f.right))
    return type(f)(_without_double_negations(f.sub))


@st.composite
def _modal_formulas(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        return Md.Atom(draw(st.sampled_from("pq")))
    kind = draw(st.integers(0, 4))
    if kind == 4:
        return Md.Imp(draw(_modal_formulas(depth - 1)), draw(_modal_formulas(depth - 1)))
    # a diamond ~[]~g puts a double negation under a box when g is one
    wrap = (Md.Neg, Md.Box, Md.Dia, lambda g: Md.Neg(Md.Neg(g)))[kind]
    return wrap(draw(_modal_formulas(depth - 1)))


@settings(max_examples=400, deadline=None)
@given(st.lists(_modal_formulas(), min_size=1, max_size=3))
def test_the_propositional_check_and_the_engines_agree(parts):
    f = reduce(Md.And, parts)  # several demands at once
    c = Md._Closure(f)
    prop = Md._prop_satisfiable(c)
    # the referee keys []~~p and []p apart; the check identifies them
    assert prop == _referee_prop_satisfiable(_without_double_negations(f))
    if not _referee_prop_satisfiable(f):
        assert not prop
    for logic, cap in (("K", 3), ("K4", 3), ("GL", 4)):
        sat = Md.is_satisfiable(f, logic)
        if not prop:
            assert not sat
        witness = Md.find_model(f, logic, cap)
        if witness is not None:
            assert sat and witness.model.forces(witness.world, f)
        if not sat:
            assert witness is None

def _referee_find_model(f, logic: str, max_worlds=None):
    """find_model without the class table: the labeled frames in order from
    one world; the first frame with a model gives the witness."""
    c = Md._Closure(f)
    if not Md._prop_satisfiable(c):
        return None
    cap = Md.GL_MAX_WORLDS if logic == "GL" else Md.K_MAX_WORLDS
    bound = cap if max_worlds is None else max_worlds
    if bound > cap:
        raise ResourceBound("%s frame search capped at %d worlds" % (logic, cap))
    frames = _referee_frames(logic, bound)
    atom_names = sorted({g.name for g in walk(f) if isinstance(g, Md.Atom)})
    atom_order = {a: i for i, a in enumerate(atom_names)}
    for n, succ in frames:
        if n * len(atom_names) > Md.MAX_SEARCH_BITS:
            raise ResourceBound(
                "%d atoms on %d worlds exceed the valuation sweep bound"
                % (len(atom_names), n)
            )
        forced = Md._sweep(c, succ, atom_order)
        hit = reduce(or_, forced)
        if hit:
            v = (hit & -hit).bit_length() - 1
            world = max(w for w in range(n) if forced[w] >> v & 1)
            valuation = {
                a: {w for w in range(n) if (v >> (i * n + w)) & 1}
                for a, i in atom_order.items()
            }
            relation = {
                (w, u) for w in range(n) for u in range(n) if succ[w] >> u & 1
            }
            return Md.ModelWitness(Md.make_model(n, relation, valuation), world)
    return None


def _search_result(f, logic, max_worlds, search):
    try:
        witness = search(f, logic, max_worlds)
    except ResourceBound as e:
        return ("ResourceBound", str(e))  # the message names the size
    return None if witness is None else witness.to_json_dict()


def _random_demands(rng, atoms):
    """A conjunction of random formulas with diamonds: several demands at
    once need larger frames than one random formula does."""
    def one(depth):
        if depth == 0 or rng.random() < 0.25:
            return Md.Atom(rng.choice(atoms))
        kind = rng.randrange(4)
        if kind == 0:
            return Md.Neg(one(depth - 1))
        if kind == 1:
            return Md.Box(one(depth - 1))
        if kind == 2:
            return Md.Dia(one(depth - 1))
        return Md.Imp(one(depth - 1), one(depth - 1))

    f = one(rng.randint(1, 4))
    for _ in range(rng.randrange(4)):
        f = Md.And(f, one(rng.randint(2, 4)))
    return f


def test_witnesses_match_the_labeled_search():
    rng = random.Random(8)
    sizes = Counter()
    for _ in range(600):
        logic = rng.choice(Md.LOGICS)
        cap = Md.GL_MAX_WORLDS if logic == "GL" else Md.K_MAX_WORLDS
        bound = rng.randint(1, cap)
        f = _random_demands(rng, "pqr"[: rng.randint(1, 3)])
        got = _search_result(f, logic, bound, Md.find_model)
        if got is None and (logic, bound) in (("GL", 6), ("K", 4)) and not Md.is_satisfiable(f, logic):
            # the referee would sweep all 134,496 or 66,066 labeled frames;
            # the tableau confirms that there is no model at all
            sizes["none"] += 1
            continue
        assert got == _search_result(f, logic, bound, _referee_find_model), (logic, bound, f)
        sizes[got["worlds"] if got else "none"] += 1
    # the sample reaches past one world and covers empty searches
    assert sizes[2] + sizes[3] >= 50 and sizes["none"] >= 50, sizes


@pytest.mark.parametrize(
    "text, logic, max_worlds",
    [
        ("p", "GL", 7),  # over the cap
        ("p", "K", 5),
        ("[](p -> v) & []p & <>~v & q & r & s & t", "GL", None),  # 6 atoms trip at 4 worlds
        ("[](p -> v) & []p & <>~v & q & r & s & t & u & w", "K", None),  # 8 atoms trip at 3
        # propositionally unsatisfiable ([]p & ~[]p): no search, so no trip
        ("[]p & <>~p & q & r & s & t & u", "GL", None),
        ("[]p & <>~p & q & r & s & t & u & v & w", "K", None),
        ("<>p & <>q & <>r & <>s & <>t", "K4", 4),  # 5 atoms: 4 worlds fit, 20 bits
        (" & ".join("<>p%d" % i for i in range(23)), "K", 1),  # trips at 1 world
    ],
)
def test_resource_bounds_match_the_labeled_search(text, logic, max_worlds):
    f = Md.parse_modal(text)
    got = _search_result(f, logic, max_worlds, Md.find_model)
    assert got == _search_result(f, logic, max_worlds, _referee_find_model)


def test_a_propositionally_unsatisfiable_formula_has_no_model_at_once():
    # <>~p is ~[]~~p, and the check reads []~~p as []p
    for text in ("[]p & <>~p & q & r & s & t & u", "[]p & <>~p & q & r & s & t & u & v & w"):
        f = Md.parse_modal(text)
        assert not Md._prop_satisfiable(Md._Closure(f))
        for logic in Md.LOGICS:
            assert Md.find_model(f, logic) is None


@pytest.mark.parametrize("bound", [0, -1])
def test_a_search_bound_below_one_is_an_error(bound):
    with pytest.raises(WorkbenchError, match="at least 1 world"):
        Md.find_model(p, "GL", bound)
    with pytest.raises(WorkbenchError, match="at least 1 world"):
        Md.find_model(Md.parse_modal("p & ~p"), "K", bound)


def test_models_of_the_corpus_match_the_labeled_search():
    for text in Md.CORPUS:
        f = Md.parse_modal(text)
        for logic, bound in (("K", 3), ("K4", 3), ("GL", 4)):
            assert _search_result(f, logic, bound, Md.find_model) == _search_result(
                f, logic, bound, _referee_find_model
            ), (text, logic)


def test_unsatisfiable_searches_are_fast():
    for text in ("[]p & <>~p", "[](p -> q) & []p & <>~q"):
        f = Md.parse_modal(text)
        for logic in Md.LOGICS:
            start = time.perf_counter()
            assert Md.find_model(f, logic) is None
            assert time.perf_counter() - start < 2.0, (text, logic)


def test_corpus_is_large_enough():
    assert len(set(Md.CORPUS)) >= 30


def test_resource_bounds_are_reported():
    with pytest.raises(ResourceBound):
        Md.find_model(p, "K", max_worlds=5)
    with pytest.raises(ResourceBound):
        Md.find_model(p, "GL", max_worlds=7)
    # 23 atoms exceed the valuation sweep bound already at one world
    many_atoms = Md.parse_modal(" & ".join("<>p%d" % i for i in range(23)))
    with pytest.raises(ResourceBound):
        Md.find_model(many_atoms, "GL")


def test_schema_verdict_table():
    rows = {row["name"]: row for row in Md.schema_verdicts()}
    assert rows["Loeb"]["GL"] == "valid"
    assert rows["Loeb"]["K"].startswith("satisfiable")
    assert rows["provable iff refutable"] == {
        "name": "provable iff refutable",
        "formula": "[]p <-> ~[]p",
        "K": "unsatisfiable",
        "K4": "unsatisfiable",
        "GL": "unsatisfiable",
    }
    assert rows["fixed point"]["GL"] == "satisfiable (1 worlds)"
    assert rows["transitivity 4"]["K4"] == "valid"
    assert rows["reflection T"]["GL"].startswith("satisfiable")


def test_model_file_round_trip(tmp_path):
    m = Md.make_model(2, [(0, 1)], {"p": {1}})
    path = tmp_path / "model.json"
    path.write_text(json.dumps(m.to_json_dict()))
    assert Md.KripkeModel.load(str(path)) == m
    with pytest.raises(WorkbenchError):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        Md.KripkeModel.load(str(bad))
