"""Self-referential constructions: the E-membership formula, its index q,
and the sentence obtained by substituting q's own numeral into it.

The sentence keeps the unevaluated term sub(q-bar, q-bar) inside Dem, so
the self-reference is literal by evaluation: the argument of Dem
evaluates to the sentence's own code.  Substitution is by *index*, not
by code; code-based diagonalization lives in codec.diag_num.
"""

from __future__ import annotations

from . import codec
from . import formulas as F
from .errors import NotUnary
from .syntax import Node


class DiagonalCertificate(Node):
    __slots__ = _fields = _data = ("psi", "q", "sentence", "sentence_code", "fixed_point_checked")

    def to_json_dict(self) -> dict:
        return {
            "template": F.print_formula(self.psi),
            "psi": F.print_formula(self.psi),
            "q": self.q,
            "sentence": F.print_formula(self.sentence),
            "sentence_code_hex": "%x" % self.sentence_code,
            "fixed_point_checked": self.fixed_point_checked,
        }


def e_membership_formula() -> F.Formula:
    """The unary formula whose satisfaction at n says n's diagonal
    instance is unprovable."""
    return F.Not(F.Dem(F.Sub(F.Var(0), F.Var(0))))


def diagonalize(
    psi: F.Formula, cache: codec.IndexTable | None = None
) -> DiagonalCertificate:
    """Substitute psi's own index into psi and certify the fixed point
    numerically by two routes."""
    if F.free_vars(psi) != {0}:
        raise NotUnary("diagonalization needs free variable set exactly {x0}")
    q = codec.index_of(psi, cache)
    sentence = F.substitute(psi, 0, F.Num(q))
    # route 1: symbolic substitute-then-encode
    sentence_code = codec.encode_formula(sentence)
    # route 2: numeric path through the enumeration
    numeric = codec.sub_num(q, q, cache)
    if sentence_code != numeric:
        raise AssertionError(
            "fixed-point identity failed at index %d: symbolic and numeric "
            "routes disagree (codec bug)" % q
        )
    return DiagonalCertificate(
        psi=psi,
        q=q,
        sentence=sentence,
        sentence_code=sentence_code,
        fixed_point_checked=True,
    )


def goedel_sentence(cache: codec.IndexTable | None = None) -> DiagonalCertificate:
    """Certificate for the E-membership formula at its own index."""
    return diagonalize(e_membership_formula(), cache)
