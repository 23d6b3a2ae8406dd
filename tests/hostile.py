"""Hostile inputs to the command line, one row each.

A row names an input by `id` and gives the argv after
`python -m goedellab.cli`, the files that the argv names (a `{name}` in an
argument is replaced by the path of the file `name`, whose content is
text or bytes), and the exits allowed.  `open_item` is the ROADMAP item
that mends a row that fails today, and None for a row that passes.
`tests/test_hostile.py` runs each row as its own process; every row must
exit in 0-3 without a `Traceback` on stderr, and with a message on stderr
for an exit of 1-3.

The shapes are built here, not stored."""

from __future__ import annotations

import json
from typing import NamedTuple

from goedellab import audit, codec


class Row(NamedTuple):
    id: str
    argv: list[str]
    exits: tuple[int, ...]
    files: dict[str, str | bytes] = {}
    open_item: int | None = None


HUGE = "9" * 5000  # sys.get_int_max_str_digits() is 4300 by default
ARABIC_12 = "١٢"  # Arabic-Indic one and two: int() reads 12


def _model(worlds) -> str:
    return json.dumps({"worlds": worlds, "relation": [], "valuation": {}})


def _premise_proof(formula: str) -> str:
    return "premise H : %s\n1. %s ; PREMISE H\n" % (formula, formula)


def _decode(nots: int) -> list[str]:
    return ["decode", "0x%x" % codec.encode_tokens([codec.NOT] * nots + [codec.EQ, codec.ZERO,
                                                                         codec.ZERO])]


NOTS = "~" * 1500 + "0 = 0"
ARROWS = "0 = 0 -> " * 1500 + "0 = 0"

# eight labels: the canonical replay's four with CONS, a restatement of
# its step 10, and two assumptions that contradict each other
EIGHT_LABELS = audit.CANONICAL_SCRIPT_TEXT + """\
assume CONS : Dem[d*] -> ~Dem[~d*]
assume X    : Dem[~App(q,q)] <-> Dem[App(q,q)]
assume P    : Dem[App(1,1)]
assume N    : ~Dem[App(1,1)]
step x := assume X
step p := assume P
step n := assume N
"""

ROWS = [
    # deep shapes: each fails first in the parser, `syntax.Cursor.formula`
    # or the `atom` and `term` it calls
    Row("encode-1500-not", ["encode", NOTS], (0, 3), open_item=12),
    Row("encode-1200-parens", ["encode", "(" * 1200 + "0 = 0" + ")" * 1200], (0, 3),
        open_item=12),
    Row("encode-1500-arrows", ["encode", ARROWS], (0, 3), open_item=12),
    Row("encode-600-forall", ["encode", "forall x0. " * 600 + "0 = 0"], (0, 3),
        open_item=12),
    Row("encode-dem-1000-diag", ["encode", "Dem(" + "diag(" * 1000 + "0" + ")" * 1001],
        (0, 3), open_item=12),
    Row("encode-dem-1000-sub", ["encode", "Dem(" + "sub(" * 1000 + "0" + ", 0)" * 1000 + ")"],
        (0, 3), open_item=12),
    Row("model-find-1200-boxes", ["model", "find", "[]" * 1200 + "p"], (0, 3), open_item=12),
    Row("model-check-1200-boxes", ["model", "check", "{model}", "[]" * 1200 + "p"], (0, 3),
        {"model": _model(2)}, open_item=12),
    Row("model-valid-1500-not", ["model", "valid", "~" * 1500 + "p"], (0, 3), open_item=12),
    Row("model-valid-1500-nested-arrows", ["model", "valid", "(p -> " * 1500 + "p" + ")" * 1500],
        (0, 3), open_item=12),
    Row("prove-check-1500-not", ["prove", "check", "{proof}"], (0, 3),
        {"proof": _premise_proof(NOTS)}, open_item=12),
    Row("prove-check-1500-arrows", ["prove", "check", "{proof}"], (0, 3),
        {"proof": _premise_proof(ARROWS)}, open_item=12),
    Row("audit-run-1500-not", ["audit", "run", "{script}"], (0, 3),
        {"script": "assume A : %sDem[App(1,1)]\nstep 1 := assume A\n" % ("~" * 1500)},
        open_item=12),
    Row("audit-run-1500-all", ["audit", "run", "{script}"], (0, 3),
        {"script": "assume A : %sDem[App(n,n)]\nstep 1 := assume A\n" % ("all n. " * 1500)},
        open_item=12),
    Row("decode-1500-not", _decode(1500), (0,)),
    Row("decode-20000-not", _decode(20_000), (0,)),
    # malformed numbers
    Row("subnum-negative", ["subnum", "--", "1", "-5"], (1,)),
    Row("enumerate-negative", ["enumerate", "--up-to=-5"], (1,)),
    Row("enumerate-huge-exponent", ["enumerate", "--up-to", "1e100000000"], (1,)),
    Row("enumerate-fraction", ["enumerate", "--up-to", "12e-1"], (1,)),
    Row("diagnum-hex-length-mismatch", ["diagnum", "hex3:ff"], (1,)),
    Row("diagnum-non-ascii", ["diagnum", "hex2:" + ARABIC_12], (1,)),
    Row("decode-non-ascii", ["decode", ARABIC_12], (1,)),
    Row("encode-huge-variable", ["encode", "x%s = 0" % HUGE], (1,)),
    Row("prove-check-huge-step-number", ["prove", "check", "{proof}"], (1,),
        {"proof": "%s. Dem(x0) ; MP 1 1\n" % HUGE}),
    Row("audit-run-huge-index", ["audit", "run", "{script}"], (1,),
        {"script": "assume A : Dem[App(%s,1)]\nstep 1 := assume A\n" % HUGE}),
    # bad model files
    Row("model-worlds-fraction", ["model", "check", "{model}", "p"], (1,), {"model": _model(2.7)}),
    Row("model-worlds-negative", ["model", "check", "{model}", "p"], (1,), {"model": _model(-1)}),
    Row("model-worlds-bool", ["model", "check", "{model}", "p"], (1,), {"model": _model(True)}),
    Row("model-worlds-over-bound", ["model", "check", "{model}", "p"], (3,),
        {"model": _model(10_001)}),
    Row("model-world-out-of-range", ["model", "check", "{model}", "p", "--world", "9"], (1,),
        {"model": _model(3)}),
    # files that are not UTF-8
    *(Row("not-utf8-" + "-".join(argv[:2]), argv, (1,), {"bad": b"\xff\xfe1. 0 = 0 ; EVAL\n"})
      for argv in (["prove", "check", "{bad}"], ["audit", "run", "{bad}"],
                   ["audit", "cores", "{bad}"], ["model", "check", "{bad}", "p"])),
    Row("audit-cores-8-labels", ["audit", "cores", "{script}"], (0,),
        {"script": EIGHT_LABELS}),
]
