"""The benchmark's own tests: its oracles against brute force and the
literature, and a corrupted answer caught in every workload (`lib` in
each of its three parts).

usage: python3 perfbench/selftest.py   (from the root of a checkout)
"""

from __future__ import annotations

import itertools
import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import oracle as O  # noqa: E402
import wl_arith  # noqa: E402
import wl_cli  # noqa: E402
import wl_modal  # noqa: E402
import wl_proof  # noqa: E402
from common import random_formula  # noqa: E402
from worker import execute, import_goedellab  # noqa: E402

G = import_goedellab(os.path.join(os.getcwd(), "src"))


def brute_unary_below(bound):
    """Every exponent sequence over an initial segment of the primes with
    product <= bound, read as Polish tokens; no pruning but the bound."""
    primes = O.PRIMES.first(64)
    out = []

    def grow(i, prod, toks):
        if toks:
            f = O.parse_tokens(toks)
            if f is not None and O.free_vars(f) == {0}:
                out.append((prod, f))
        e, q = 1, prod * primes[i]
        while q <= bound:
            grow(i + 1, q, toks + [e])
            e, q = e + 1, q * primes[i]

    grow(0, 1, [])
    return sorted(out)


def failures(ops):
    out = []
    for op in ops:
        _, ok, value = execute(op)
        failure = op.check(ok, value)
        if failure:
            out.append((op.kind, failure))
    return out


class Patch:
    """Temporarily replace an attribute."""

    def __init__(self, owner, name, make):
        self.owner, self.name, self.make = owner, name, make

    def __enter__(self):
        self.orig = getattr(self.owner, self.name)
        setattr(self.owner, self.name, self.make(self.orig))

    def __exit__(self, *exc):
        setattr(self.owner, self.name, self.orig)


def flip_outermost(forces):
    """A forcing check whose outermost answer is negated."""
    depth = [0]

    def flipped(self, w, f):
        depth[0] += 1
        try:
            answer = forces(self, w, f)
        finally:
            depth[0] -= 1
        return answer if depth[0] else not answer

    return flipped


class Oracles(unittest.TestCase):
    def test_enumerator_matches_brute_force(self):
        self.assertEqual(O.unary_below(10**15), brute_unary_below(10**15))

    def test_codes_round_trip(self):
        rng = random.Random(7)
        for _ in range(300):
            f = random_formula(rng, 4)
            self.assertEqual(O.decode(O.encode(f)), f)
        self.assertEqual(O.encode(("eq", ("nat", 0), ("nat", 0))), 41006250000)
        self.assertIsNone(O.decode(2 * 5))

    def test_e_membership_sits_at_169(self):
        table = O.unary_below(10**36)
        self.assertEqual(len(table), 403)
        self.assertEqual(table[169][1], wl_cli.E_MEMBERSHIP)

    def test_canonical_core_by_truth_table(self):
        # DEF_E, REFL[InE(q)] and COMP_E at n := q, with InE(q) = App(q,q)
        a, d = ("assert", ("app", "q", "q")), ("dem", ("app", "q", "q"))
        inst = {"DEF_E": ("iff", a, ("not", d)), "REFL": ("imp", d, a),
                "COMP_E": ("imp", ("not", d), d)}
        self.assertFalse(O.meta_satisfiable(list(inst.values())))
        for pair in itertools.combinations(inst, 2):
            self.assertTrue(O.meta_satisfiable([inst[k] for k in pair]))
        self.assertEqual(set(inst), wl_proof.CANONICAL_CORE)

    def test_modal_semantics(self):
        rng = random.Random(3)
        loeb = ("imp", ("box", ("imp", ("box", ("atom", "p")), ("atom", "p"))), ("box", ("atom", "p")))
        four = ("imp", ("box", ("atom", "p")), ("box", ("box", ("atom", "p"))))
        for _ in range(200):
            n = rng.randrange(1, 5)
            val = {"p": {w for w in range(n) if rng.random() < 0.5}}
            gl = O.Kripke(n, wl_modal.random_frame(rng, "GL", n, 0.5), val)
            self.assertTrue(gl.frame_ok("GL"))
            self.assertEqual(len(gl.extension(loeb)), n)
            k4 = O.Kripke(n, wl_modal.random_frame(rng, "K4", n, 0.5), val)
            self.assertEqual(len(k4.extension(four)), n)
        gen = wl_modal.Modal(None)
        for logic in wl_modal.LOGICS:
            for _ in range(20):
                f = gen.unsat(rng, logic, 2)
                self.assertTrue(O.box_atoms_satisfiable(f))
                f, model, world = gen.planted(rng, logic, 3, 4)
                self.assertTrue(model.frame_ok(logic) and world in model.extension(f))


class CorruptedAnswersAreCaught(unittest.TestCase):
    def test_arith(self):
        wl = wl_arith.Arith(G)
        rng = random.Random(1)
        ops = [wl.roundtrip(rng) for _ in range(5)] + [wl.scan(10**20), wl.formula_at(5),
                                                      wl.index_of(9), wl.sub_num(3, 40)]
        self.assertEqual(failures(ops), [])
        with Patch(G.codec, "encode_tokens", lambda orig: lambda toks: orig(toks) + 1):
            self.assertEqual({k for k, _ in failures(ops)}, {"roundtrip", "index_of"})
            self.assertEqual(len(failures(ops[:5])), 5)
        with Patch(G.codec, "unary_formulas_below", lambda orig: lambda b: orig(b)[1:]):
            self.assertEqual([k for k, _ in failures(ops)], ["unary_below", "formula_at", "sub_num"])
        with Patch(G.codec.CodeRLE, "to_int", lambda orig: lambda self: orig(self) * 2):
            self.assertEqual([k for k, _ in failures(ops)], ["sub_num"])

    def test_modal(self):
        wl = wl_modal.Modal(G)
        rng = random.Random(2)
        ops = [wl.tableau(rng, "K4", sat, valid) for sat in (True, False) for valid in (True, False)]
        ops += [wl.find(rng, "K", 2, 2, True), wl.forces(rng, 4, 3, False)]
        self.assertEqual(failures(ops), [])
        with Patch(G.modal, "_branch_satisfiable", lambda orig: lambda *a: not orig(*a)):
            self.assertEqual(len(failures(ops[:4])), 4)
        with Patch(G.modal.KripkeModel, "forces", flip_outermost):
            self.assertEqual([k for k, _ in failures(ops[4:])], ["find_model", "forces"])
        with Patch(G.modal, "find_model", lambda orig: lambda *a: None):
            self.assertEqual([k for k, _ in failures(ops[4:5])], ["find_model"])

    def test_proof(self):
        wl = wl_proof.Proof(G)
        rng = random.Random(3)
        ops = [wl.kernel(rng, "chain", 10, mutate) for mutate in (False, True)]
        ops += [wl.audit(rng, "goedel", True), wl.cores(rng, True), wl.meta(rng, True), wl.meta(rng, False)]
        self.assertEqual(failures(ops), [])
        with Patch(G.kernel, "check_proof", lambda orig: lambda *a: G.kernel.VALID):
            self.assertEqual([k for k, _ in failures(ops[:2])], ["proof_chain_mutated"])
        with Patch(G.meta, "tautological_consequence", lambda orig: lambda *a: not orig(*a)):
            self.assertEqual([k for k, _ in failures(ops[2:])],
                             ["audit_goedel_renamed", "audit_cores", "meta_consequence"])
        with Patch(G.meta, "satisfiable", lambda orig: lambda fs: not orig(fs)):
            self.assertEqual([k for k, _ in failures(ops[2:])], ["meta_satisfiable"])

    def test_cli(self):
        outputs = []

        def fake_run(args):
            return outputs.pop(0)

        wl = wl_cli.Cli(fake_run, os.path.join(os.getcwd(), ".perfbench"))
        rng = random.Random(4)
        f = ("eq", ("nat", 0), ("nat", 0))
        ops = [wl.encode(rng, f), wl.diagonalize(rng, True), wl.audit(rng, "cores"),
               wl.model_find(rng, True)]
        outputs[:] = [(0, "41006250000\n", ""), (0, "{}\n", ""), (0, "core: {DEF_E}\n", ""),
                      (0, "model with 1 world(s), formula forced at world 0\n{}", "")]
        self.assertEqual(len(failures(ops[:1])), 0)
        self.assertEqual(len(failures(ops[1:])), 3)
        outputs[:] = [(2, "", "usage")]
        self.assertEqual(failures(ops[:1])[0][1][0], False)


if __name__ == "__main__":
    unittest.main()
