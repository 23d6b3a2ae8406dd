import json
import os
import subprocess
import sys
import time

import pytest

from goedellab import cli, codec
from goedellab import formulas as F
from goedellab.errors import WorkbenchError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- number formatting -------------------------------------------------


def test_small_numbers_print_in_decimal():
    assert cli.format_number(41006250000) == "41006250000"


def test_big_numbers_print_length_prefixed_hex():
    n = 2 * 3**5 * 5**6 * 7**13 * 11**13
    text = cli.format_number(n)
    assert text.startswith("hex") and ":" in text
    assert cli.parse_number(text) == n


def test_parse_number_accepts_common_forms():
    assert cli.parse_number("1e12") == 10**12
    assert cli.parse_number("0x2A") == 42
    assert cli.parse_number("41_006_250_000") == 41006250000
    with pytest.raises(Exception):
        cli.parse_number("hex3:ff")  # length prefix mismatch
    with pytest.raises(Exception):
        cli.parse_number("12.5e3")  # only exact integers
    assert cli.parse_number("120e-1") == 12
    for text in ("1e-3", "12e-1"):  # not integers
        with pytest.raises(WorkbenchError, match="not a number"):
            cli.parse_number(text)


def test_parse_number_rejects_negative_numbers():
    for text in ("-5", "-0", "-1e3", "-0x5", "hex2:-5"):
        with pytest.raises(WorkbenchError, match="not a number"):
            cli.parse_number(text)


def test_negative_number_arguments_are_exit_one(capsys):
    for argv in (("subnum", "--", "1", "-5"), ("enumerate", "--up-to=-5")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "not a number" in err


def test_exponent_form_obeys_the_digit_limit(capsys):
    for bound in ("1e100000000", "1e-100000000"):
        start = time.perf_counter()
        code, out, err = run(capsys, "enumerate", "--up-to", bound)
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert "not a number" in err
    assert cli.parse_number("1e4000") == 10**4000


# --- encode / decode ---------------------------------------------------


def test_encode_decode_round_trip(capsys):
    code, out, _ = run(capsys, "encode", "0 = 0")
    assert code == 0 and out == "41006250000\n"
    code, out, _ = run(capsys, "decode", "41006250000")
    assert code == 0 and out == "0 = 0\n"


def test_encode_json(capsys):
    code, out, _ = run(capsys, "--json", "encode", "Dem(x0)")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "schema": "code/1",
        "formula": "Dem(x0)",
        "code_hex": "%x" % 51018336,
    }


def test_decode_rejects_non_codes(capsys):
    code, out, err = run(capsys, "decode", "1")
    assert code == 1 and out == ""
    assert err.startswith("not-well-formed:")
    code, _, err = run(capsys, "decode", "10")  # exponent gap
    assert code == 1 and err.startswith("not-well-formed:")


def test_output_is_deterministic(capsys):
    first = run(capsys, "--json", "audit", "canonical")
    second = run(capsys, "--json", "audit", "canonical")
    assert first == second


# --- enumerate and the cache -------------------------------------------


def test_enumerate_text_format(capsys):
    code, out, _ = run(capsys, "enumerate", "--up-to", "1e12")
    assert code == 0
    lines = out.splitlines()
    assert lines == [
        "0 51018336 Dem(x0)",
        "1 593261718750 ~Dem(x0)",
    ]


def test_enumerate_writes_checksummed_cache(tmp_path, capsys):
    code, out, _ = run(
        capsys, "--cache-dir", str(tmp_path), "enumerate", "--up-to", "1e16"
    )
    assert code == 0 and len(out.splitlines()) == 7
    cache_file = tmp_path / "index-table.txt"
    lines = cache_file.read_text().splitlines()
    assert lines[0].startswith("# sha256:")
    assert len(lines) == 8
    # a reload sees the same seven entries as a contiguous prefix
    table = codec.IndexTable(str(cache_file))
    assert table.contiguous == 7
    assert table.by_index[0][1] == F.parse_formula("Dem(x0)")


def test_cache_dir_env_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GOEDEL_CACHE_DIR", str(tmp_path))
    code, _, _ = run(capsys, "enumerate", "--up-to", "1e12")
    assert code == 0
    assert (tmp_path / "index-table.txt").exists()


def test_corrupted_cache_is_ignored(tmp_path, capsys):
    cache_file = tmp_path / "index-table.txt"
    cache_file.write_text("# sha256:deadbeef\n0 abc garbage\n")
    code, out, _ = run(
        capsys, "--cache-dir", str(tmp_path), "enumerate", "--up-to", "1e12"
    )
    assert code == 0 and len(out.splitlines()) == 2


# --- subnum / diagnum / diagonalize ------------------------------------


def test_subnum_matches_the_library(capsys):
    code, out, _ = run(capsys, "subnum", "169", "169")
    assert code == 0
    assert cli.parse_number(out.strip()) == codec.sub_num(169, 169)
    # every documented number form: exponent, 0x hex, length-prefixed hex
    for n, m in (("1", "1e3"), ("0x2", "6e2"), ("hex1:3", "0x5dc"), ("1", "hex3:3e8")):
        code, out, _ = run(capsys, "subnum", n, m)
        assert code == 0
        expected = codec.sub_num(cli.parse_number(n), cli.parse_number(m))
        assert cli.parse_number(out.strip()) == expected


def test_subnum_resource_bound_is_exit_three(capsys):
    code, out, err = run(capsys, "subnum", "0", "300000")
    assert code == 3 and out == ""
    assert err.startswith("resource bound:")


def test_diagnum_reports_astronomical_results_as_resource_bound(capsys):
    # diagonalizing any genuine formula code yields a code whose token
    # count is itself astronomical; the run-length API (diag_num_rle)
    # handles those, the integer printer declines honestly
    g = 2 * 3**5 * 5**6 * 7**13 * 11**13
    code, _, err = run(capsys, "diagnum", "0x%x" % g)
    assert code == 3 and err.startswith("resource bound:")


def test_diagonalize_json(capsys):
    code, out, _ = run(capsys, "--json", "diagonalize")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "diagonal/1"
    assert payload["q"] == 169
    assert payload["fixed_point_checked"] is True
    assert int(payload["sentence_code_hex"], 16) == codec.sub_num(169, 169)


# --- prove check -------------------------------------------------------

PROOF_TEXT = """
1. (Dem(x0) -> ((Dem(x0) -> Dem(x0)) -> Dem(x0))) -> ((Dem(x0) -> (Dem(x0) -> Dem(x0))) -> (Dem(x0) -> Dem(x0))) ; P2[A := Dem(x0); B := Dem(x0) -> Dem(x0); C := Dem(x0)]
2. (Dem(x0) -> ((Dem(x0) -> Dem(x0)) -> Dem(x0))) ; P1[A := Dem(x0); B := Dem(x0) -> Dem(x0)]
3. ((Dem(x0) -> (Dem(x0) -> Dem(x0))) -> (Dem(x0) -> Dem(x0))) ; MP 1 2
4. (Dem(x0) -> (Dem(x0) -> Dem(x0))) ; P1[A := Dem(x0); B := Dem(x0)]
5. (Dem(x0) -> Dem(x0)) ; MP 3 4
"""


def test_prove_check_valid(tmp_path, capsys):
    path = tmp_path / "identity.proof"
    path.write_text(PROOF_TEXT)
    code, out, _ = run(capsys, "prove", "check", str(path))
    assert code == 0 and out == "valid (5 steps)\n"
    code, out, _ = run(capsys, "--json", "prove", "check", str(path))
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["conclusion"] == "(Dem(x0) -> Dem(x0))"


def test_prove_check_invalid_is_exit_one(tmp_path, capsys):
    path = tmp_path / "broken.proof"
    path.write_text("1. Dem(x0) ; MP 1 1\n")
    code, out, _ = run(capsys, "prove", "check", str(path))
    assert code == 1 and out.startswith("invalid at step 1")


def test_prove_check_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "prove", "check", str(tmp_path / "nope"))
    assert code == 1 and err.startswith("error:")


@pytest.mark.parametrize("arg, message", [
    ("0", "Goedel numbers are naturals >= 1"),
    ("S(0)", "empty sequence"),
    ("S(S(0))", "token string ends inside a formula"),
    ("41006250000", "decoded formula is not unary in x0"),
])
def test_eval_of_diag_of_no_unary_formula_is_an_invalid_step(tmp_path, capsys, arg, message):
    path = tmp_path / "diag.proof"
    path.write_text("1. diag(%s) = 0 ; EVAL\n" % arg)
    code, out, err = run(capsys, "prove", "check", str(path))
    assert (code, out, err) == (1, "invalid at step 1: evaluation failed: %s\n" % message, "")
    code, out, err = run(capsys, "--json", "prove", "check", str(path))
    assert code == 1 and err == ""
    assert json.loads(out) == {"schema": "proof/1", "valid": False, "step": 1,
                               "reason": "evaluation failed: " + message,
                               "conclusion": "diag(%s) = 0" % arg}


def test_premises_are_read_as_universal_closures(tmp_path, capsys):
    path = tmp_path / "gen.proof"
    path.write_text("premise H : x0 = 0\n1. x0 = 0 ; PREMISE H\n2. forall x0. x0 = 0 ; GEN 1 x0\n")
    code, out, _ = run(capsys, "prove", "check", str(path))
    assert code == 0 and out == "valid (2 steps)\n"


@pytest.mark.parametrize("n", [330, 1000])
def test_generalizing_a_numeral_premise_is_valid(tmp_path, capsys, n):
    path = tmp_path / "gen.proof"
    path.write_text(
        "premise H : x0 = %d\n1. x0 = %d ; PREMISE H\n2. forall x0. x0 = %d ; GEN 1 x0\n"
        % (n, n, n)
    )
    code, out, _ = run(capsys, "prove", "check", str(path))
    assert (code, out) == (0, "valid (2 steps)\n")


def test_successor_of_a_numeral_matches_the_next_numeral_in_proofs(tmp_path, capsys):
    path = tmp_path / "succ.proof"
    path.write_text("premise H : x0 = S(1500)\n1. x0 = 1501 ; PREMISE H\n")
    code, out, _ = run(capsys, "prove", "check", str(path))
    assert (code, out) == (0, "valid (1 steps)\n")


def test_eval_of_a_deep_successor_chain_over_sub(tmp_path, capsys):
    # 1500 S over a term that is no numeral stays a chain of Succ nodes
    def chain(n):
        return "S(" * n + "sub(0,0)" + ")" * n

    path = tmp_path / "deep.proof"
    path.write_text("1. %s = %s ; EVAL\n" % (chain(1500), chain(1500)))
    code, out, _ = run(capsys, "prove", "check", str(path))
    assert (code, out) == (0, "valid (1 steps)\n")
    path.write_text("1. %s = %s ; EVAL\n" % (chain(1500), chain(1499)))
    code, out, _ = run(capsys, "prove", "check", str(path))
    value = codec.sub_num(0, 0)
    assert code == 1
    assert out.startswith("invalid at step 1")
    assert "equation is false: %d != %d" % (value + 1500, value + 1499) in out


def test_premise_over_a_deep_successor_chain(tmp_path, capsys):
    # 2000 S over a variable stay a chain of Succ nodes, compared with the premise
    chain = "S(" * 2000 + "x1" + ")" * 2000
    path = tmp_path / "deep.proof"
    path.write_text("premise H : x0 = %s\n1. x0 = %s ; PREMISE H\n" % (chain, chain))
    code, out, _ = run(capsys, "prove", "check", str(path))
    assert (code, out) == (0, "valid (1 steps)\n")


_KEYWORD_PROOFS = {
    "PREMISE": "premise H : x0 = 0\n1. x0 = 0 ; %s\n",
    "MP": "premise H : x0 = 0\n1. x0 = 0 ; PREMISE H\n"
          "2. (x0 = 0 -> (Dem(x0) -> x0 = 0)) ; P1[A := x0 = 0; B := Dem(x0)]\n"
          "3. (Dem(x0) -> x0 = 0) ; %s\n",
    "GEN": "premise H : x0 = 0\n1. x0 = 0 ; PREMISE H\n2. forall x0. x0 = 0 ; %s\n",
}


@pytest.mark.parametrize(
    "kind, justification, verdict",
    [
        ("PREMISE", "PREMISE H", "valid (1 steps)\n"),
        ("PREMISE", "PREMISEH", None),
        # a label is one word
        ("PREMISE", "PREMISE", "PREMISE cites one label"),
        ("PREMISE", "PREMISE H K", "PREMISE cites one label"),
        ("PREMISE", "PREMISE H  K", "PREMISE cites one label"),
        ("MP", "MP 2 1", "valid (3 steps)\n"),
        ("MP", "MPX 2 1", None),
        ("GEN", "GEN 1 x0", "valid (2 steps)\n"),
        ("GEN", "GENERALIZE 1 x0", None),
    ],
)
def test_a_justification_keyword_is_the_whole_first_word(tmp_path, capsys, kind, justification,
                                                          verdict):
    path = tmp_path / "keyword.proof"
    path.write_text(_KEYWORD_PROOFS[kind] % justification)
    code, out, err = run(capsys, "prove", "check", str(path))
    # verdict: the verdict printed, or a parse error's message (None: the
    # justification is unrecognized)
    if verdict is not None and verdict.startswith("valid"):
        assert (code, out) == (0, verdict)
    else:
        assert (code, out) == (1, "")
        message = verdict or "unrecognized justification %r" % justification
        assert err == "parse error: %s\n" % message


@pytest.mark.parametrize(
    "text, message",
    [
        # not premise lines, so read as step lines
        ("premiseH : 0 = 0\n1. 0 = 0 ; PREMISE H\n",
         "step line needs 'k. formula ; justification'"),
        ("premises H : 0 = 0\n1. 0 = 0 ; PREMISE s H\n",
         "step line needs 'k. formula ; justification'"),
        ("premise  : 0 = 0\n1. 0 = 0 ; EVAL\n", "premise line needs 'LABEL : formula'"),
        ("premise H : 0 = 0\npremise H : 1 = 1\n1. 1 = 1 ; PREMISE H\n",
         "duplicate premise label 'H'"),
        ("premise H K : 0 = 0\n1. 0 = 0 ; PREMISE H K\n",
         "premise label must be one word, not 'H K'"),
        ("premise H\tK : 0 = 0\n1. 0 = 0 ; EVAL\n", "premise label must be one word, not 'H\\tK'"),
    ],
)
def test_premise_is_a_whole_word_and_a_label_is_declared_once(tmp_path, capsys, text, message):
    path = tmp_path / "premise.proof"
    path.write_text(text)
    code, out, err = run(capsys, "prove", "check", str(path))
    # the whole of stderr is the message: no traceback
    assert (code, out, err) == (1, "", "parse error: %s\n" % message)


@pytest.mark.parametrize(
    "text, message",
    [
        ("premise H : x0 = 0 : 1\n", "line 1: unexpected character ':' (at position 7)"),
        # blank and comment lines count
        ("# a comment\n\npremise H : 0 = 0\n1. (0 = 0 -> ) ; PREMISE H\n",
         "line 4: expected a formula, found ')' (at position 10)"),
        # after a group that the line restates from line 1
        ("1. (0 = 0 -> 0 = 0) ; EVAL\n2. ((0 = 0 -> 0 = 0) -> 0 = ) ; EVAL\n",
         "line 2: expected a term, found ')' (at position 25)"),
        # in a binding's formula and in its term
        ("1. (0 = 0 -> (Dem(x0) -> 0 = 0)) ; P1[A := 0 = 0; B := Dem(y)]\n",
         "line 1: unknown identifier 'y' (at position 4)"),
        ("1. 0 = 0 ; EVAL\n2. (forall x0. x0 = x0 -> 0 = 0) ; INST[x := x0; A := x0 = x0; t := S(]\n",
         "line 2: expected a term, found '<end>' (at position 2)"),
        ("1. x0 = S(%s) ; EVAL\n" % ("9" * 5000),
         "line 1: numeral of 5000 digits exceeds the limit of 4300 (at position 7)"),
    ],
)
def test_a_fault_inside_a_formula_names_its_line(tmp_path, capsys, text, message):
    path = tmp_path / "fault.proof"
    path.write_text(text)
    code, out, err = run(capsys, "prove", "check", str(path))
    assert (code, out, err) == (1, "", "parse error: %s\n" % message)


@pytest.mark.parametrize(
    "command, text",
    [
        ("prove", "1. Dem(x0) ; MP a b\n"),
        ("prove", "1. Dem(x0) ; GEN 1 xq\n"),
        ("prove", "1. Dem(x0) ; INST[x := x\u00b2; A := Dem(x0); t := 0]\n"),
        ("prove", "\u00b2. Dem(x0) ; MP 1 1\n"),
        ("audit", "assume REFL : Dem[d*] -> d*\nstep 1 := assume REFL\nstep 2 := inst 1 n zz\n"),
        # Arabic-Indic digits, which int() and str.isdecimal() accept
        ("prove", "\u0661. Dem(x0) ; EVAL\n"),
        ("prove", "1. Dem(x0) ; MP \u0661 1\n"),
        ("prove", "1. Dem(x0) ; GEN 1 x\u0661\n"),
        ("prove", "1. Dem(x0) ; INST[x := x\u0661; A := Dem(x0); t := 0]\n"),
        ("audit", "assume REFL : Dem[d*] -> d*\nstep 1 := assume REFL\nstep 2 := inst 1 n \u0661\n"),
        ("audit", "assume A : Dem[App(\u0661,1)]\nstep 1 := assume A\n"),
    ],
)
def test_malformed_step_numbers_are_parse_errors(tmp_path, capsys, command, text):
    path = tmp_path / "input"
    path.write_text(text)
    action = "check" if command == "prove" else "run"
    code, out, err = run(capsys, command, action, str(path))
    assert code == 1 and out == ""
    assert err.startswith("parse error") and "Traceback" not in err


# --- audit -------------------------------------------------------------


def test_audit_canonical_json(capsys):
    code, out, _ = run(capsys, "--json", "audit", "canonical")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "audit/1"
    assert len(payload["steps"]) == 11
    assert all(s["valid"] for s in payload["steps"])
    assert {c["step"] for c in payload["contradictions"]} == {"10", "11"}
    assert payload["classification"] == {"App(q,q)": "overdetermined"}


def test_audit_canonical_text(capsys):
    code, out, _ = run(capsys, "audit", "canonical")
    assert code == 0
    assert "contradiction at 11: iff-neg" in out
    assert "contradiction at 10: dem-neg-iff (requires consistency)" in out
    assert "classification: App(q,q) is overdetermined" in out
    assert "assumptions consumed: COMP_E, DEF_E, NEC_DEF, REFL" in out


def test_audit_goedel(capsys):
    code, out, _ = run(capsys, "--json", "audit", "goedel")
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == {"App(q,q)": "independent"}
    assert sorted(payload["consumed_assumptions"]) == ["CONS", "DEF_E", "REFL"]
    assert payload["contradictions"] == []


def test_audit_compare(capsys):
    code, out, _ = run(capsys, "--json", "audit", "compare")
    assert code == 0
    payload = json.loads(out)
    assert payload["only_canonical"] == ["COMP_E", "NEC_DEF"]
    assert payload["only_goedel"] == ["CONS"]


def test_audit_cores(capsys):
    code, out, _ = run(capsys, "--json", "audit", "cores")
    assert code == 0
    payload = json.loads(out)
    assert payload["minimal_inconsistent_subsets"] == [
        ["COMP_E", "DEF_E", "REFL"]
    ]


def test_audit_run_invalid_script_is_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.audit"
    path.write_text(
        "assume REFL : Dem[d*] -> d*\nstep 1 := assume REFL\n"
    )
    code, out, _ = run(capsys, "audit", "run", str(path))
    assert code == 1 and "BAD" in out


@pytest.mark.parametrize("command", ["run", "cores"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("assume  : Dem[App(1,1)]\nstep 1 := assume \n",
         "assumption label must be one word, not ''"),
        # checked before the formula is parsed
        ("assume A B : Dem[App(1,\n", "assumption label must be one word, not 'A B'"),
        ("assume A[1] : Dem[App(1,1)]\n", "assumption label must be one word, not 'A[1]'"),
        ("assume A : Dem[App(1,1)]\nstep a b := assume A\n",
         "step id must be one word, not 'a b'"),
        ("assume A : Dem[App(1,1)]\nstep a,b := assume A\n",
         "step id must be one word, not 'a,b'"),
        ("assume A : Dem[App(1,1)]\nstep  := assume A\n", "step id must be one word, not ''"),
    ],
)
def test_audit_labels_and_step_ids_are_one_word(tmp_path, capsys, command, text, message):
    path = tmp_path / "label.audit"
    path.write_text(text)
    code, out, err = run(capsys, "audit", command, str(path))
    assert (code, out, err) == (1, "", "parse error: %s\n" % message)


@pytest.mark.parametrize(
    "text, ran, cores",
    [
        (
            "assume X : ~all n. (Dem[App(n,n)] -> Dem[~InE(n)])\nassume Y : Dem[App(1,1)]\n"
            "step 1 := assume X\nstep 2 := assume Y\n",
            "1    ok  ~all n. (Dem[App(n,n)] -> Dem[~InE(n)])  uses {X}\n"
            "2    ok  Dem[App(1,1)]  uses {Y}\n"
            "classification: App(1,1) is provable\nassumptions consumed: X, Y\n",
            "no inconsistent assumption subset\n",
        ),
        (
            "assume X : Dem[App(1,1)] -> all n. Dem[App(n,n)]\n"
            "step 1 := derive Dem[App(1,1)] -> Dem[App(1,1)] from X\n",
            "1    ok  (Dem[App(1,1)] -> Dem[App(1,1)])  uses {X}\n"
            "classification: App(1,1) is unknown\nassumptions consumed: X\n",
            "no inconsistent assumption subset\n",
        ),
        (
            "assume X : Dem[App(1,1)] -> all n. Dem[App(n,n)]\n"
            "assume Z : ~(Dem[App(1,1)] -> all n. Dem[App(n,n)])\n"
            "step 1 := assume X\nstep 2 := assume Z\n",
            "1    ok  (Dem[App(1,1)] -> all n. Dem[App(n,n)])  uses {X}\n"
            "2    ok  ~(Dem[App(1,1)] -> all n. Dem[App(n,n)])  uses {Z}\n"
            "contradiction at 2: contradictory-pair — contradicts step 1\n"
            "classification: App(1,1) is overdetermined\nassumptions consumed: X, Z\n",
            "core: {X, Z}\n",
        ),
        (
            # the quantifier on the left keeps its parentheses when printed
            "assume A : (all n. Dem[App(n,n)]) -> Dem[App(1,1)]\nstep 1 := assume A\n",
            "1    ok  ((all n. Dem[App(n,n)]) -> Dem[App(1,1)])  uses {A}\n"
            "classification: App(1,1) is unknown\nassumptions consumed: A\n",
            "no inconsistent assumption subset\n",
        ),
    ],
    ids=["negated-quantifier", "quantifier-in-a-premise", "opaque-pair", "quantifier-on-the-left"],
)
def test_a_quantifier_under_a_connective_is_an_opaque_atom(tmp_path, capsys, text, ran, cores):
    path = tmp_path / "quantified.audit"
    path.write_text(text)
    assert run(capsys, "audit", "run", str(path)) == (0, ran, "")
    assert run(capsys, "audit", "cores", str(path)) == (0, cores, "")


# --- model -------------------------------------------------------------


def test_model_check(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps(
            {"worlds": 2, "relation": [[0, 1]], "valuation": {"p": [1]}}
        )
    )
    code, out, _ = run(capsys, "model", "check", str(path), "[]p")
    assert code == 0 and out == "forced at worlds: 0, 1\n"
    code, out, _ = run(capsys, "model", "check", str(path), "p", "--world", "0")
    assert code == 0 and out == "false\n"
    code, out, _ = run(capsys, "--json", "model", "check", str(path), "<>p")
    payload = json.loads(out)
    assert payload["forcing_worlds"] == [0]


def test_a_long_conjunction_gets_a_verdict(tmp_path, capsys):
    f = " & ".join(["[]p"] * 1500)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"worlds": 2, "relation": [[0, 1]], "valuation": {"p": [1]}}))
    assert run(capsys, "model", "check", str(path), f) == (0, "forced at worlds: 0, 1\n", "")
    code, out, err = run(capsys, "model", "find", f)
    assert (code, out.splitlines()[0], err) == (
        0, "model with 1 world(s), formula forced at world 0", "")
    code, out, err = run(capsys, "model", "valid", f)
    assert (code, out.splitlines()[:2], err) == (0, ["invalid in GL", "{"], "")


def test_a_long_conjunction_prints_as_json(tmp_path):
    f = " & ".join(["[]p"] * 1500)
    # `a & b` reads as ~(a -> ~b), and `&` groups to the left
    printed = "~(" * 1499 + "[]p" + " -> ~[]p)" * 1499
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"worlds": 2, "relation": [[0, 1]], "valuation": {"p": [1]}}))
    env = dict(os.environ, PYTHONPATH=SRC)
    for argv, key, value in ((("model", "find", f), "found", True),
                             (("model", "valid", f), "valid", False),
                             (("model", "check", str(path), f), "forcing_worlds", [0, 1])):
        # in a fresh interpreter, where a RecursionError is a plain traceback
        proc = subprocess.run([sys.executable, "-m", "goedellab.cli", "--json", *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        payload = json.loads(proc.stdout)
        assert (payload["formula"], payload[key]) == (printed, value)


def test_a_deep_code_decodes_and_a_deep_term_prints():
    # in a fresh interpreter, where a RecursionError is a plain traceback.
    # The code of 1,500 ~ over 0 = 0 is built from its tokens, because the
    # parser cannot read that text yet
    env = dict(os.environ, PYTHONPATH=SRC)
    code = codec.encode_tokens([codec.NOT] * 1500 + [codec.EQ, codec.ZERO, codec.ZERO])
    proc = subprocess.run([sys.executable, "-m", "goedellab.cli", "decode", "0x%x" % code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "~" * 1500 + "(0 = 0)\n", "")
    probe = ("from goedellab import formulas as F\nt = F.Var(0)\nfor _ in range(5000):\n"
             "    t = F.Diag(t)\nprint(F.print_formula(F.Dem(t)))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "Dem(" + "diag(" * 5000 + "x0" + ")" * 5001 + "\n"


def test_model_check_world_out_of_range_is_exit_one(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"worlds": 3, "relation": [], "valuation": {}}))
    for flags in ((), ("--json",)):
        for world in ("9", "3", "-1"):
            code, out, err = run(capsys, *flags, "model", "check", str(path), "p",
                                 "--world", world)
            assert code == 1 and out == ""
            assert "world %s out of range" % world in err


@pytest.mark.parametrize(
    "argv",
    [["prove", "check", "{file}"], ["audit", "run", "{file}"], ["audit", "cores", "{file}"],
     ["model", "check", "{file}", "p"]],
    ids=["prove-check", "audit-run", "audit-cores", "model-check"],
)
def test_an_input_file_that_is_not_utf8_is_exit_one(tmp_path, capsys, argv):
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xff\xfe1. 0 = 0 ; EVAL\n")
    code, out, err = run(capsys, *[a.replace("{file}", str(path)) for a in argv])
    assert code == 1 and out == ""
    assert err == "error: %s is not UTF-8 text: byte 0xff at offset 0\n" % path
    assert "Traceback" not in err


@pytest.mark.parametrize("worlds", [2.7, -1, True])
def test_model_world_count_must_be_a_positive_int(tmp_path, capsys, worlds):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"worlds": worlds, "relation": [], "valuation": {}}))
    code, out, err = run(capsys, "model", "check", str(path), "p")
    assert code == 1 and out == ""
    assert "malformed model description" in err


def test_model_find(capsys):
    code, out, _ = run(
        capsys, "--json", "model", "find", "p <-> ~[]p", "--logic", "GL"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["witness"]["worlds"] == 1
    code, out, _ = run(capsys, "model", "find", "[]p <-> ~[]p")
    assert code == 0 and out == "no model within the search bound\n"


def test_model_valid(capsys):
    code, out, _ = run(
        capsys, "model", "valid", "[]([]p -> p) -> []p", "--logic", "GL"
    )
    assert code == 0 and out == "valid in GL\n"
    code, out, _ = run(
        capsys, "--json", "model", "valid", "[]([]p -> p) -> []p", "--logic", "K"
    )
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["countermodel"]["worlds"] <= 2


def test_model_valid_of_a_deep_box_chain(capsys):
    # the tableau keeps each formula in a frozenset, so it hashes all 400 levels
    code, out, _ = run(capsys, "model", "valid", "[]" * 400 + "p")
    assert code == 0 and out.splitlines()[0] == "invalid in GL"


def test_model_find_resource_bound(capsys):
    code, _, err = run(
        capsys, "model", "find", "p", "--logic", "GL", "--max-worlds", "9"
    )
    assert code == 3 and err.startswith("resource bound:")


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize("bound", ["0", "-1"])
def test_model_find_bound_below_one_is_exit_one(capsys, json_flag, bound):
    code, out, err = run(capsys, *json_flag, "model", "find", "p", "--max-worlds", bound)
    assert code == 1 and out == ""
    assert err == "error: the search bound must be at least 1 world, not %s\n" % bound


# --- usage and parse errors --------------------------------------------


def test_usage_error_is_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_formula_parse_error_is_exit_one(capsys):
    code, _, err = run(capsys, "encode", "Dem(")
    assert code == 1 and err.startswith("parse error:")


@pytest.mark.parametrize("argv, exit_code, line", [
    (["decode", "1"], 1, "not-well-formed: empty sequence"),
    (["encode", "0 = "], 1, "parse error: expected a term, found '<end>' (at position 4)"),
    (["subnum", "0", "300000"], 3,
     "resource bound: code has 300002 tokens, over the bound of 200000 to materialize"),
    (["diagonalize", "--template", "x1 = x1"], 1,
     "error: diagonalization needs free variable set exactly {x0}"),
    (["model", "check", "m.json", "p", "--world", "١"], 1,
     "error: not a number: '١' (digits must be ASCII)"),
    (["prove", "check", "missing.proof"], 1,
     "error: [Errno 2] No such file or directory: 'missing.proof'"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_an_error_is_one_labelled_line_on_stderr(tmp_path, capsys, monkeypatch, argv,
                                                exit_code, line):
    # the golden corpus records stdout and exit codes, not stderr
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps({"worlds": 3, "relation": [], "valuation": {}}))
    assert run(capsys, *argv) == (exit_code, "", line + "\n")


# --- decimal literals longer than int() converts -----------------------

HUGE = "9" * 5000  # sys.get_int_max_str_digits() is 4300 by default


@pytest.mark.parametrize(
    "formula", ["x%s = 0" % HUGE, "S(%s) = 0" % HUGE], ids=["variable", "numeral"]
)
def test_oversized_literals_in_encode_are_parse_errors(capsys, formula):
    code, out, err = run(capsys, "encode", formula)
    assert code == 1 and out == ""
    assert err.startswith("parse error") and "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    [
        "%s. Dem(x0) ; MP 1 1\n" % HUGE,
        "1. Dem(x0) ; MP %s 1\n" % HUGE,
        "1. Dem(x0) ; INST[x := x%s; A := Dem(x0); t := 0]\n" % HUGE,
    ],
    ids=["step-number", "mp-reference", "inst-variable"],
)
def test_oversized_literals_in_proof_files_are_parse_errors(tmp_path, capsys, text):
    path = tmp_path / "input.proof"
    path.write_text(text)
    code, out, err = run(capsys, "prove", "check", str(path))
    assert code == 1 and out == ""
    assert err.startswith("parse error") and "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    [
        "assume A : Dem[App(%s,1)]\nstep 1 := assume A\n" % HUGE,
        "assume D : all n. InE(n) <-> ~Dem[App(n,n)]\n"
        "step 1 := assume D\nstep 2 := inst 1 n %s\n" % HUGE,
    ],
    ids=["designator-index", "inst-constant"],
)
def test_oversized_literals_in_audit_scripts_are_parse_errors(tmp_path, capsys, text):
    path = tmp_path / "input.audit"
    path.write_text(text)
    code, out, err = run(capsys, "audit", "run", str(path))
    assert code == 1 and out == ""
    assert err.startswith("parse error") and "Traceback" not in err


# --- model-file world bound --------------------------------------------


def test_model_world_count_is_bounded(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"worlds": 10_001, "relation": [], "valuation": {}}))
    for flags in ((), ("--json",)):
        code, out, err = run(capsys, *flags, "model", "check", str(path), "p")
        assert code == 3 and out == ""
        assert err.startswith("resource bound")
    path.write_text(json.dumps({"worlds": 10_000, "relation": [], "valuation": {}}))
    code, out, _ = run(capsys, "model", "check", str(path), "p")
    assert code == 0 and out == "forced at worlds: (none)\n"
    code, out, _ = run(capsys, "model", "check", str(path), "~p", "--world", "9999")
    assert code == 0 and out == "true\n"


# --- numerals are ASCII digits -------------------------------------------

ARABIC_12 = "\u0661\u0662"  # Arabic-Indic one and two: int("\u0661\u0662") == 12


@pytest.mark.parametrize(
    "argv",
    [
        ["encode", "x0 = " + ARABIC_12],
        ["encode", "x%s = 0" % ARABIC_12],
        ["decode", ARABIC_12],
        ["subnum", ARABIC_12[0], ARABIC_12[1]],
        ["diagnum", "hex2:" + ARABIC_12],
        ["enumerate", "--up-to", ARABIC_12 + "e3"],
        ["model", "find", "p", "--max-worlds", ARABIC_12[1]],
    ],
    ids=["encode-numeral", "encode-variable", "decode", "subnum", "diagnum", "enumerate",
         "max-worlds"],
)
def test_non_ascii_digits_are_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(("parse error", "error: not a number")) and "Traceback" not in err


def test_non_ascii_world_is_exit_one(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"worlds": 3, "relation": [], "valuation": {}}))
    code, out, err = run(capsys, "model", "check", str(path), "p", "--world", "\u0661")
    assert code == 1 and out == ""
    assert err == "error: not a number: '\u0661' (digits must be ASCII)\n"
    with pytest.raises(SystemExit) as exc:  # other malformed values stay usage errors
        cli.main(["model", "check", str(path), "p", "--world", "one"])
    assert exc.value.code == 2
    assert "argument --world: invalid int value: 'one'" in capsys.readouterr().err


# --- decode bound ----------------------------------------------------------


def test_decode_just_under_the_bit_bound_finishes(capsys):
    f = F.Eq(F.Var(0), F.Num(4080))
    g = codec.encode_formula(f)
    assert codec.MAX_DECODE_BITS - 1000 < g.bit_length() <= codec.MAX_DECODE_BITS
    start = time.perf_counter()
    code, out, _ = run(capsys, "decode", "%#x" % g)
    assert time.perf_counter() - start < 15
    assert (code, out) == (0, "x0 = 4080\n")


def test_decode_over_the_bit_bound_is_exit_three(capsys, monkeypatch):
    g = codec.encode_formula(F.Eq(F.Var(0), F.Num(4081)))
    assert codec.MAX_DECODE_BITS < g.bit_length()
    monkeypatch.setattr(codec, "nth_prime", lambda i: pytest.fail("divided past the bound"))
    for flags in ((), ("--json",)):
        code, out, err = run(capsys, *flags, "decode", "%#x" % g)
        assert code == 3 and out == ""
        assert err == "resource bound: code of %d bits exceeds the decode bound of %d bits\n" % (
            g.bit_length(), codec.MAX_DECODE_BITS)


# --- start-up: each command imports only the modules it runs -----------------

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# runs cli.main in a fresh interpreter, then prints the goedellab modules
# it imported, and whether it imported hashlib, dataclasses and inspect, as
# the last line of stdout
_PROBE = """
import json, sys
from goedellab.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as e:
    code = e.code
loaded = sorted(m[len("goedellab."):] for m in sys.modules if m.startswith("goedellab."))
print(json.dumps([code, loaded] + [m in sys.modules for m in ("hashlib", "dataclasses", "inspect")]))
"""


def _fresh(argv, code=_PROBE):
    env = {k: v for k, v in os.environ.items() if k != "GOEDEL_CACHE_DIR"}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=60)
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "argv, exit_code, modules",
    [
        (["encode", "0 = 0"], 0, {"cli", "errors", "syntax", "formulas", "codec"}),
        (["--json", "diagonalize"], 0, {"cli", "errors", "syntax", "formulas", "codec",
                                        "diagonal"}),
        (["prove", "check", "{proof}"], 0, {"cli", "errors", "syntax", "formulas", "codec",
                                            "kernel"}),
        (["audit", "goedel"], 0, {"cli", "errors", "syntax", "meta", "audit"}),
        (["model", "find", "p"], 0, {"cli", "errors", "syntax", "modal"}),
        (["model", "valid", "[]p -> [][]p"], 0, {"cli", "errors", "syntax", "modal"}),
        (["no-such-command"], 2, {"cli", "errors"}),
    ],
    ids=["encode", "diagonalize", "prove-check", "audit-goedel", "model-find", "model-valid",
         "usage-error"],
)
def test_command_imports_only_its_subsystems(tmp_path, argv, exit_code, modules):
    proof = tmp_path / "identity.proof"
    proof.write_text(PROOF_TEXT)
    out = _fresh([a.replace("{proof}", str(proof)) for a in argv])
    assert json.loads(out.splitlines()[-1]) == [exit_code, sorted(modules), False, False, False]


def test_package_imports_subsystems_on_first_access():
    out = _fresh([], code=(
        "import sys, goedellab\n"
        "assert 'goedellab.modal' not in sys.modules\n"
        "print(goedellab.modal.LOGICS, goedellab.modal is sys.modules['goedellab.modal'])\n"
        "try:\n"
        "    goedellab.nope\n"
        "except AttributeError as e:\n"
        "    print(e)\n"
    ))
    assert out == "('K', 'K4', 'GL') True\nmodule 'goedellab' has no attribute 'nope'\n"


def test_logic_choices_match_the_modal_module(capsys):
    from goedellab import modal

    assert cli.LOGICS == modal.LOGICS
    with pytest.raises(SystemExit) as exc:
        cli.main(["model", "find", "p", "--logic", "S5"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --logic: invalid choice: 'S5' (choose from 'K', 'K4', 'GL')\n")
