"""Differential tests of the bit-parallel truth-table engine
(`meta.truth_columns`) against row-by-row references."""

import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goedellab import meta as M
from goedellab import modal as Md
from goedellab.errors import ResourceBound
from goedellab.syntax import walk

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_truth_columns_enumerate_the_rows():
    for k in range(5):
        full, cols = M.truth_columns(k)
        assert full == (1 << (1 << k)) - 1 and len(cols) == k
        for r in range(1 << k):
            assert [col >> r & 1 for col in cols] == [r >> i & 1 for i in range(k)]


# --- modal sweep against the direct Kripke checker ---------------------


@st.composite
def _modal(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return Md.Atom(draw(st.sampled_from("pq")))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return Md.Neg(draw(_modal(depth=depth - 1)))
    if kind == 1:
        return Md.Box(draw(_modal(depth=depth - 1)))
    return Md.Imp(draw(_modal(depth=depth - 1)), draw(_modal(depth=depth - 1)))


@st.composite
def _frames(draw):
    n = draw(st.integers(1, 3))
    return tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n))


@settings(max_examples=200, deadline=None)
@given(_modal(), _frames())
def test_sweep_agrees_with_forcing_on_every_valuation(f, succ):
    n = len(succ)
    names = sorted({g.name for g in walk(f) if isinstance(g, Md.Atom)})
    forced = Md._sweep(Md._Closure(f), succ, {a: i for i, a in enumerate(names)})
    relation = [(w, u) for w in range(n) for u in range(n) if succ[w] >> u & 1]
    for v in range(1 << (n * len(names))):
        valuation = {
            a: {w for w in range(n) if v >> (i * n + w) & 1} for i, a in enumerate(names)
        }
        model = Md.make_model(n, relation, valuation)
        for w in range(n):
            assert bool(forced[w] >> v & 1) == model.forces(w, f), (v, w)


# --- meta truth tables against a row-by-row oracle ---------------------

_DESIGNATORS = [
    M.App(M.Const(1), M.Const(2)),
    M.App(M.Q, M.Const(1)),
    M.InE(M.Const(1)),  # the same proposition as App(q,1)
    M.NegD(M.App(M.Const(1), M.Const(2))),
    M.App(M.MetaVar("n"), M.Const(1)),
    M.App(M.Q, M.MetaVar("xInE")),
    M.InE(M.MetaVar("xInE")),  # `InE` in a variable's name is no designator
    M.DVar("d*"),
]


@st.composite
def _meta(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        d = draw(st.sampled_from(_DESIGNATORS))
        return draw(st.sampled_from([M.Assert(d), M.DemOf(d)]))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return M.MNot(draw(_meta(depth=depth - 1)))
    if kind == 3:  # a prefix of the formula, or an atom under a connective
        return M.ForAllIndex(draw(st.sampled_from(["n", "xInE"])), draw(_meta(depth=depth - 1)))
    cls = M.MImplies if kind == 1 else M.MIff
    return cls(draw(_meta(depth=depth - 1)), draw(_meta(depth=depth - 1)))


def _oracle_rows(formulas):
    """Each assignment to the atoms as a list of the formulas' values, each
    formula's quantifier prefix stripped; None beyond `meta.MAX_ATOMS`
    atoms.  An atom is an Assert, a DemOf or a quantified formula under a
    connective, keyed by the printed text of its InE expansion."""
    prepared = []
    for phi in formulas:
        while isinstance(phi, M.ForAllIndex):
            phi = phi.body
        prepared.append(phi)
    keys = set()

    def key(phi):
        return M.print_meta(M.expand_ine(phi))

    def atoms(phi):
        if isinstance(phi, (M.Assert, M.DemOf, M.ForAllIndex)):
            keys.add(key(phi))
        elif isinstance(phi, M.MNot):
            atoms(phi.sub)
        else:
            atoms(phi.left)
            atoms(phi.right)

    def ev(phi, a):
        if isinstance(phi, (M.Assert, M.DemOf, M.ForAllIndex)):
            return a[key(phi)]
        if isinstance(phi, M.MNot):
            return not ev(phi.sub, a)
        if isinstance(phi, M.MImplies):
            return not ev(phi.left, a) or ev(phi.right, a)
        return ev(phi.left, a) == ev(phi.right, a)

    for phi in prepared:
        atoms(phi)
    if len(keys) > M.MAX_ATOMS:
        return None
    names = sorted(keys)
    rows = []
    for values in itertools.product((False, True), repeat=len(names)):
        a = dict(zip(names, values))
        rows.append([ev(phi, a) for phi in prepared])
    return rows


@settings(max_examples=300, deadline=None)
@given(st.lists(_meta(), min_size=1, max_size=3), _meta())
def test_meta_engine_agrees_with_row_by_row_oracle(premises, conclusion):
    # the atoms' key, and the audit's key of a negation, without the rebuild
    for phi in premises + [conclusion]:
        key = M.canonical_text(phi)
        assert key == M.print_meta(M.expand_ine(phi))
        assert (key[1:] if key[0] == "~" else "~" + key) == M.print_meta(M.expand_ine(M.MNot(phi)))
    rows = _oracle_rows(premises + [conclusion])
    if rows is None:
        with pytest.raises(ResourceBound):
            M.satisfiable(premises + [conclusion])
        return
    assert M.satisfiable(premises) == any(all(row[:-1]) for row in rows)
    assert M.tautological_consequence(premises, conclusion) == all(
        row[-1] for row in rows if all(row[:-1])
    )


# --- no numpy ----------------------------------------------------------


def test_cli_runs_without_numpy():
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "from goedellab import cli\n"
        "sys.exit(cli.main(['model', 'find', 'p <-> ~[]p']))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(b"model with 1 world(s), formula forced at world 0\n")
