import pytest

from goedellab import codec, diagonal
from goedellab import formulas as F
from goedellab.errors import NotUnary


def test_membership_formula_shape():
    psi = diagonal.e_membership_formula()
    assert psi == F.Not(F.Dem(F.Sub(F.Var(0), F.Var(0))))
    assert F.free_vars(psi) == {0}


def test_membership_formula_code():
    # Polish: ~ Dem sub x0 x0 -> tokens (1, 5, 6, 13, 13)
    expected = 2 * 3**5 * 5**6 * 7**13 * 11**13
    psi = diagonal.e_membership_formula()
    assert codec.encode_formula(psi) == expected


def test_goedel_sentence_certificate():
    cert = diagonal.goedel_sentence()
    assert cert.q == 169
    assert cert.fixed_point_checked
    assert cert.psi == diagonal.e_membership_formula()
    assert cert.sentence == F.substitute(cert.psi, 0, F.Num(169))
    # both routes already agreed inside diagonalize; pin them again here
    assert cert.sentence_code == codec.encode_formula(cert.sentence)
    assert cert.sentence_code == codec.sub_num(cert.q, cert.q)


def test_q_is_the_count_of_smaller_unary_formulas():
    psi = diagonal.e_membership_formula()
    code = codec.encode_formula(psi)
    assert codec.count_unary_below(code - 1) == 169
    # and the enumeration really places psi at that position
    entries = codec.unary_formulas_below(code)
    assert entries[169] == (code, psi)


def test_diagonalize_simplest_template():
    cert = diagonal.diagonalize(F.Dem(F.Var(0)))
    assert cert.q == 0
    assert cert.sentence == F.Dem(F.ZERO)
    assert cert.sentence_code == 2**5 * 3**8


def test_diagonalize_rejects_non_unary():
    with pytest.raises(NotUnary):
        diagonal.diagonalize(F.Eq(F.ZERO, F.ZERO))
    with pytest.raises(NotUnary):
        diagonal.diagonalize(F.Eq(F.Var(0), F.Var(1)))


def test_certificate_json_shape():
    d = diagonal.goedel_sentence().to_json_dict()
    assert d["q"] == 169
    assert d["fixed_point_checked"] is True
    assert int(d["sentence_code_hex"], 16) == codec.sub_num(169, 169)
