"""Acceptance gate: nine numbered criteria, one printed verdict line each.

Run with `pytest -v`; the verdict lines print outside pytest's capture so
they always appear in the log.  Each criterion re-derives its expected
values from independent oracles (shared with the unit-test modules)
rather than from the code under test.
"""

import itertools
import random
import time
from contextlib import contextmanager

from goedellab import audit, codec, diagonal, kernel, modal
from goedellab import formulas as F
from goedellab import meta as M

from conftest import random_formula
from test_audit import inconsistent
from test_codec import _oracle_unary_below
from test_kernel import _taut


@contextmanager
def criterion(capsys, n, title):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print("ACCEPTANCE %d (%s): FAIL" % (n, title))
        raise
    else:
        with capsys.disabled():
            print("ACCEPTANCE %d (%s): PASS" % (n, title))


def test_criterion_1_codec_round_trip(capsys):
    with criterion(capsys, 1, "codec round trip, 10000 formulas"):
        rng = random.Random(20260825)
        start = time.monotonic()
        failures = 0
        for _ in range(10000):
            f = random_formula(rng, rng.randrange(7), allow_num=False)
            if codec.decode_formula(codec.encode_formula(f)) != f:
                failures += 1
        elapsed = time.monotonic() - start
        assert failures == 0
        assert elapsed < 10.0, "round trip took %.1fs" % elapsed


def test_criterion_2_worked_constants(capsys):
    with criterion(capsys, 2, "worked constants"):
        eq = F.Eq(F.ZERO, F.ZERO)
        dem = F.Dem(F.Var(0))
        assert codec.encode_formula(eq) == 41006250000
        assert codec.encode_formula(dem) == 51018336
        assert codec.decode_formula(41006250000) == eq
        assert codec.decode_formula(51018336) == dem


def test_criterion_3_enumeration_vs_oracle(capsys, empty_table):
    with criterion(capsys, 3, "enumeration agrees with brute force"):
        oracle = _oracle_unary_below(10**12)
        entries = codec.unary_formulas_below(10**12)
        assert [code for code, _ in entries] == [code for code, _ in oracle]
        for k, (code, toks) in enumerate(oracle):
            f = codec.formula_at(k)
            assert codec.encode_formula(f) == code
            assert codec.formula_tokens(f) == list(toks)
            assert codec.index_of(f) == k
        assert codec.formula_at(0) == F.Dem(F.Var(0))


def test_criterion_4_diagonal_fixed_point(capsys):
    with criterion(capsys, 4, "diagonal fixed point, two routes"):
        cert = diagonal.diagonalize(diagonal.e_membership_formula())
        assert cert.fixed_point_checked
        # route one: substitute and encode directly
        direct = codec.encode_formula(
            F.substitute(cert.psi, 0, F.Num(cert.q))
        )
        # route two: arithmetized substitution on the enumeration index
        assert cert.sentence_code == codec.sub_num(cert.q, cert.q) == direct


def test_criterion_5_canonical_audit(capsys):
    with criterion(capsys, 5, "canonical audit, findings at 10 and 11"):
        start = time.monotonic()
        report = audit.check_script(audit.canonical_antinomy_script())
        elapsed = time.monotonic() - start
        for k in range(1, 10):
            assert report.step(str(k)).ok
        found = {f.step: f for f in report.contradictions}
        assert set(found) == {"10", "11"}
        assert found["11"].pattern == "iff-neg"
        assert M.print_meta(report.step("11").formula) == (
            "(Dem[App(q,q)] <-> ~Dem[App(q,q)])"
        )
        assert found["10"].pattern == "dem-neg-iff"
        assert found["10"].requires_consistency
        assert elapsed < 1.0, "audit took %.2fs" % elapsed


def test_criterion_6_minimal_cores(capsys):
    with criterion(capsys, 6, "minimal inconsistent assumption sets"):
        script = audit.canonical_antinomy_script()
        cores = audit.minimal_inconsistent_subsets(script)
        assert cores
        for core in cores:
            assert core != ["DEF_E"]
            assert inconsistent(script, set(core))
            for r in range(len(core)):
                for sub in itertools.combinations(core, r):
                    assert not inconsistent(script, set(sub))


def test_criterion_7_independence_and_compare(capsys):
    with criterion(capsys, 7, "independence run and mode contrast"):
        report = audit.check_script(audit.goedel_script())
        assert report.all_valid()
        assert report.classification == {"App(q,q)": "independent"}
        assert report.consumed == {"DEF_E", "REFL", "CONS"}
        result = audit.compare_modes()
        assert "COMP_E" in result["only_canonical"]
        assert "NEC_DEF" in result["only_canonical"]
        assert "COMP_E" not in result["both"] and "NEC_DEF" not in result["both"]


def test_criterion_8_modal_oracles(capsys):
    with criterion(capsys, 8, "modal search and tableau agree"):
        fixed = modal.parse_modal("p <-> ~[]p")
        witness = modal.find_model(fixed, "GL")
        assert witness is not None and witness.model.worlds == 1
        assert witness.model.forces(witness.world, fixed)

        contradiction = modal.parse_modal("[]p <-> ~[]p")
        for bound in range(1, modal.GL_MAX_WORLDS + 1):
            assert modal.find_model(contradiction, "GL", bound) is None
        for logic, cap in (("K", modal.K_MAX_WORLDS), ("K4", modal.K_MAX_WORLDS)):
            for bound in range(1, cap + 1):
                assert modal.find_model(contradiction, logic, bound) is None
        for logic in modal.LOGICS:
            assert not modal.is_satisfiable(contradiction, logic)

        loeb = modal.parse_modal("[]([]p -> p) -> []p")
        assert modal.is_valid(loeb, "GL")
        counter = modal.find_model(modal.Neg(loeb), "K")
        assert counter is not None and counter.model.worlds <= 2
        assert counter.model.forces(counter.world, modal.Neg(loeb))

        assert len(set(modal.CORPUS)) >= 30
        for text in modal.CORPUS:
            f = modal.parse_modal(text)
            for logic, cap in (("K", 3), ("K4", 3), ("GL", 4)):
                sat = modal.is_satisfiable(f, logic)
                found = modal.find_model(f, logic, max_worlds=cap)
                if found is not None:
                    assert sat, (text, logic)
                    assert found.model.forces(found.world, f)
                if not sat:
                    assert found is None, (text, logic)


def test_criterion_9_kernel_soundness(capsys):
    with criterion(capsys, 9, "kernel proofs have semantic confirmation"):
        A = F.Dem(F.Var(0))
        proof = kernel.identity_proof(A)
        assert kernel.check_proof(proof) == kernel.VALID
        assert len(proof.steps) == 5
        for f, _ in proof.steps:  # independent truth-table oracle
            assert _taut(f)
        steps = list(proof.steps)
        f2, just2 = steps[1]
        steps[1] = (F.Implies(A, F.Implies(A, A)), just2)
        verdict = kernel.check_proof(kernel.ProofObject(tuple(steps)))
        assert not verdict.ok and verdict.step == 2
