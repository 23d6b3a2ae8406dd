import pytest

from goedellab import codec, diagonal
from goedellab import formulas as F
from goedellab.errors import NotUnary, ResourceBound


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
    cert = diagonal.diagonalize(diagonal.e_membership_formula())
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
    d = diagonal.diagonalize(diagonal.e_membership_formula()).to_json_dict()
    assert d["q"] == 169
    assert d["fixed_point_checked"] is True
    assert int(d["sentence_code_hex"], 16) == codec.sub_num(169, 169)


def test_diagonalize_stops_counting_at_the_first_index_it_cannot_build(monkeypatch):
    # under a bound of 400 tokens the limits fall among the first 403
    # indices; each template is refused exactly where its numeric route
    # must refuse, and built below that
    monkeypatch.setattr(codec, "MAX_TOKENS", 400)
    message = "template index is at least %d, so its sentence would have over 400 tokens"
    built = refused = 0
    for q, (_, psi) in enumerate(codec.unary_formulas_below(10**36)):
        limit = codec.numeral_limit(psi)
        if q < limit:
            assert diagonal.diagonalize(psi).q == q
            built += 1
        else:
            with pytest.raises(ResourceBound, match="^%s$" % (message % limit)):
                diagonal.diagonalize(psi)
            with pytest.raises(ResourceBound):
                codec.sub_num(q, q)
            refused += 1
    assert built > 300 and refused > 30


def test_a_template_that_binds_x0_stops_where_its_symbolic_route_refuses(monkeypatch):
    # 7 tokens with one free x0 at index 4,855: its sentence has 4,862 tokens
    psi = F.parse_formula("Dem(x0) -> forall x0. Dem(x0)")
    monkeypatch.setattr(codec, "MAX_TOKENS", 4_862)
    assert codec.numeral_limit(psi) == 4_856
    assert diagonal.diagonalize(psi).q == 4_855
    monkeypatch.setattr(codec, "MAX_TOKENS", 4_861)
    with pytest.raises(ResourceBound, match="^template index is at least 4855, "):
        diagonal.diagonalize(psi)
    with pytest.raises(ResourceBound, match="^code has 4862 tokens"):
        codec.sub_num(4_855, 4_855)
