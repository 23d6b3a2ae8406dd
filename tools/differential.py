"""Run this checkout and an earlier revision on the same seeded inputs, and
print where their answers differ.

    python tools/differential.py --parent REV --seed N --count K

`git archive REV` is unpacked into a temporary directory.  Each tree then
answers in a child process of its own (this file, run with `--child` and
that tree's `src` first on the path, under PYTHONHASHSEED=0), and the two
answer lists are compared line by line.  The inputs come from the
generators below and the benchmark's, which both children share, so they
are the same text for both trees.  Six families of K cases each:

- meta: a meta formula, as text.  The answer is its printed form and that
  of its negation, `satisfiable` of it with the case before it, and
  whether it is a `tautological_consequence` of that case; then the
  printed form, or the error, of the text with a character dropped, with
  a stray `)` or `,` put in, with a span reversed, and with a designator
  copied to another place.  The forms are the ones the engines read: a
  tree that still has `meta.normalize` applies it, and negates through
  `meta.neg`.
- audit: a shipped audit script with lines dropped, duplicated or swapped,
  or a negation doubled; one in four also gets extra assumptions, each
  used by a step, up to 7-9 labels in all.  The answer is the report's
  JSON and the minimal inconsistent subsets, or the error that ends
  either.
- codec: an integer for `codec.decode_tokens`, built here from a token
  string: a run that ends the code, two runs of one token split by a short
  gap, a run broken near its end, tokens alternating 8 and 9, huge single
  exponents, an extra cofactor, or a random integer.  The answer is the
  decoded tokens as (token, count) runs, or the error's type and text.
- print: a Polish token string for `codec.tokens_to_formula`: the tokens
  of a random formula, built here, and that string with one token
  replaced, one dropped and one appended.  The answer is the formula's
  printed text, or the error.  After each four such cases comes a modal
  formula's text, and the answer is `modal.print_modal` of it as parsed.
- proof: a proof file, a chain of 8-48 steps or the identity derivation
  of a random formula, built and printed by the benchmark's own
  `perfbench/wl_proof.py`; then that file with one step negated, with one
  restated group respaced, with one character dropped, and with the
  outer parentheses dropped from one step's formula, from one binding or
  from one MP antecedent, so that a step that restates it is spelled as
  the printer would not spell it.  The answer is each step's printed
  formula and justification, the premises and `kernel.check_proof`'s
  verdict, or the error that ends the reading.
- scan: one seeded sequence of enumeration calls, answered in order by
  one process, so that what an earlier call leaves behind meets every
  later one: `unary_formulas_below` and `count_unary_below` at a bound
  from 1e10 to 1e40, log-uniform or the code, or the code - 1, of a
  random formula in x0 alone; `formula_at` and `diagonalize` of the
  template at an index below 400; `index_of` of such a formula; and
  `sub_num` of an index below 400 and a numeral below 300.  The answer is
  the count, the printed formula or index, a list's length and digest,
  the certificate's q and the digests of its sentence and code, or the
  error.

A change that means to alter some answers names them with `--allow REGEX`:
a case whose parent answer, as JSON, matches REGEX is counted as an
intended difference, not shown.  The exit status is 0 when every other
answer agrees, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")  # the proof family's generators
SHOWN = 5  # differing cases printed per family
SHOWN_INPUT = 600  # characters printed of each one's input (a proof file is long)

# --- inputs --------------------------------------------------------------

# `xInE` holds the letters of a designator, and 20 digits are more than the
# meta scanner reads as part of one
_TERMS = ["q", "0", "1", "n", "m", "xInE", "12345678901234567890"]


def _desig(rng: random.Random) -> str:
    kind = rng.randrange(3)
    if kind == 0:
        d = "App(%s,%s)" % (rng.choice(_TERMS), rng.choice(_TERMS))
    elif kind == 1:
        d = "InE(%s)" % rng.choice(_TERMS)
    else:
        d = rng.choice(["d*", "e*"])
    return "~" * rng.choice([0, 0, 1, 2, 3]) + d


def meta_text(rng: random.Random, depth: int) -> str:
    """A meta formula's text: negations of every kind, stacked up to three
    deep, quantifiers in parentheses wherever they sit."""
    kind = rng.randrange(5 if depth > 0 else 2)
    if kind == 0:
        text = _desig(rng)
    elif kind == 1:
        text = "Dem[%s]" % _desig(rng)
    elif kind == 2:
        text = "(all %s. %s)" % (rng.choice("nm"), meta_text(rng, depth - 1))
    else:
        op = "->" if kind == 3 else "<->"
        text = "(%s %s %s)" % (meta_text(rng, depth - 1), op, meta_text(rng, depth - 1))
    return "~" * rng.choice([0, 0, 0, 1, 2]) + text


def mutations(rng: random.Random, text: str) -> list[str]:
    """text with a character dropped, with a stray `)` or `,` put in, with
    a span of up to 12 characters reversed, and with one of its designators
    copied to where none is due."""
    i, j, k, m = (rng.randrange(len(text) + 1) for _ in range(4))
    end = k + rng.randrange(2, 13)
    designators = re.findall(r"(?:App|InE)\([^()]*\)", text) or ["App(q,q)"]
    return [text[:i] + text[i + 1:], text[:j] + rng.choice("),") + text[j:],
            text[:k] + text[k:end][::-1] + text[end:],
            text[:m] + rng.choice(designators) + text[m:]]


def _script_bases() -> list[list[str]]:
    from goedellab import audit
    texts = [audit.CANONICAL_SCRIPT_TEXT, audit.GOEDEL_SCRIPT_TEXT,
             audit.GOEDEL_SCRIPT_TEXT + audit.GOEDEL_EXTENSION_TEXT]
    return [[line for line in t.splitlines() if line.strip() and not line.startswith("#")]
            for t in texts]


def _doubled_negation(rng: random.Random, line: str) -> str:
    spots = [i for i, c in enumerate(line) if c in "~[" or line.startswith("Dem[", i)]
    if ":" not in line or not spots:
        return line
    i = rng.choice(spots)
    i += line[i] == "["  # inside a bracket, before its designator
    return line[:i] + "~~" + line[i:]


# formulas for extra assumptions: facts of the shipped scripts' kind, their
# negations, with InE(t) and App(q,t) mixed, and the three finding shapes
_EXTRA_FORMULAS = ["Dem[App(q,q)]", "~Dem[App(q,q)]", "Dem[~InE(q)]", "~Dem[~App(q,q)]",
                   "Dem[~InE(q)] <-> Dem[App(q,q)]", "~(Dem[~App(q,q)] <-> Dem[App(q,q)])",
                   "Dem[App(q,q)] <-> ~Dem[App(q,q)]", "InE(3)", "~App(q,3)",
                   "all n. Dem[App(n,n)]"]


def script_text(rng: random.Random, bases: list[list[str]]) -> str:
    lines = list(rng.choice(bases))
    if rng.randrange(4) == 0:
        labels = sum(line.startswith("assume ") for line in lines)
        for k in range(rng.randrange(7, 10) - labels):
            lines.insert(0, "assume X%d : %s" % (k, rng.choice(_EXTRA_FORMULAS)))
            lines.insert(rng.randrange(1, len(lines) + 1), "step x%d := assume X%d" % (k, k))
    for _ in range(rng.randrange(1, 4)):
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        kind = rng.randrange(4)
        if kind == 0 and len(lines) > 1:
            del lines[i]
        elif kind == 1:
            lines.insert(j, lines[i])
        elif kind == 2:
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i] = _doubled_negation(rng, lines[i])
    return "\n".join(lines) + "\n"


def _first_primes(k: int) -> list[int]:
    """The first k primes, by a sieve of Eratosthenes of this file's own."""
    n = int(k * (math.log(k + 2) + math.log(math.log(k + 2)))) + 16
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return list(itertools.compress(range(n), sieve))[:k]


def _product(factors: list[int]) -> int:
    """The product of factors, multiplied as a balanced tree."""
    while len(factors) > 1:
        factors = [math.prod(factors[j:j + 2]) for j in range(0, len(factors), 2)]
    return factors[0] if factors else 1


def _encode(runs: list[list[int]], primes: list[int]) -> int:
    """prod p_i^{t_i} of a token string given as [token, count] runs, a run
    at a time: (p_i ... p_{i+c-1})^t."""
    factors, i = [], 0
    for tok, count in runs:
        factors.append(_product(primes[i:i + count]) ** tok)
        i += count
    return _product(factors)


def codec_case(rng: random.Random, primes: list[int]) -> tuple[str, int]:
    """A decode input, described as [token, count] runs and a cofactor, and
    the input itself, of at most 6,040 tokens.  A token 0 is a gap: its
    prime is left out."""
    t = rng.choice([9, 9, 9, 1, 2, 8, 13, 14])
    head = [rng.choice([1, 2, 4, 5, 6, 13]) for _ in range(rng.randrange(4))]
    length = int(2 ** rng.uniform(1, math.log2(5000)))
    kind = rng.randrange(7)
    if kind == 0:  # a run that ends the code
        tokens = head + [t] * length + rng.choice([[], [8], [8, 13 + rng.randrange(40)]])
    elif kind == 1:  # two runs of one token, split by a gap of 1-5 primes
        gap = [rng.choice([x for x in (1, 4, 5, 6, 8, 13) if x != t])
               for _ in range(rng.randrange(1, 6))]
        tokens = head + [t] * length + gap + [t] * int(2 ** rng.uniform(1, 10)) + [8]
    elif kind == 2:  # a run broken in its last 4 primes
        tokens = head + [t] * length + [8]
        tokens[len(head) + length - 1 - rng.randrange(min(4, length))] = rng.choice(
            [0, t - 1, t + 1])
    elif kind == 3:  # tokens alternating 8 and 9
        tokens = [8 + k % 2 for k in range(int(2 ** rng.uniform(1, 11)))]
    elif kind == 4:  # huge single exponents
        tokens = head + [rng.randrange(1000, 320_000) for _ in range(rng.randrange(1, 3))]
    elif kind == 5:
        g = rng.getrandbits(rng.randrange(1, 2000))
        return "int %x" % g, g
    else:  # a run that ends the code, then a cofactor
        tokens = head + [t] * length + [8]
    extra = 1
    if kind == 6 or rng.random() < 0.15:
        extra = rng.choice([2, 3, 2**61 - 1, rng.getrandbits(64) | 1])
    runs = [[tok, len(list(group))] for tok, group in itertools.groupby(tokens)]
    g = _encode(runs, primes) * extra
    if kind == 3:
        return "%d tokens alternating 8 and 9 * %d" % (len(tokens), extra), g
    return "runs %s * %d" % (json.dumps(runs), extra), g


# codec's token table: ~ -> forall = Dem sub diag 0 S, then x_i is 13 + i
_NOT, _IMP, _ALL, _EQ, _DEM, _SUB, _DIAG, _ZERO, _S, _VAR = 1, 2, 3, 4, 5, 6, 7, 8, 9, 13


def polish_term(rng: random.Random, depth: int) -> list[int]:
    kind = rng.randrange(5 if depth > 0 else 2)
    if kind == 0:
        return [_VAR + rng.randrange(3)]
    if kind == 1:  # a numeral, sometimes past the printer's chain limit of 1000
        return [_S] * rng.choice([0, 1, 2, 5, 40, 999, 1000, 1001, 1200]) + [_ZERO]
    if kind == 2:
        return [_S] * rng.randrange(1, 4) + polish_term(rng, depth - 1)
    if kind == 3:
        return [_DIAG] + polish_term(rng, depth - 1)
    return [_SUB] + polish_term(rng, depth - 1) + polish_term(rng, depth - 1)


def polish_formula(rng: random.Random, depth: int) -> list[int]:
    """The Polish tokens of a random formula."""
    kind = rng.randrange(5 if depth > 0 else 2)
    if kind == 0:
        return [_EQ] + polish_term(rng, depth) + polish_term(rng, depth)
    if kind == 1:
        return [_DEM] + polish_term(rng, depth)
    if kind == 2:
        return [_NOT] * rng.choice([1, 1, 2]) + polish_formula(rng, depth - 1)
    if kind == 3:
        return [_IMP] + polish_formula(rng, depth - 1) + polish_formula(rng, depth - 1)
    return [_ALL, _VAR + rng.randrange(3)] + polish_formula(rng, depth - 1)


def token_cases(rng: random.Random) -> list[list[int]]:
    """A formula's tokens, then the same with a token replaced (by a
    reserved, invalid or other token too), one dropped and one appended."""
    tokens = polish_formula(rng, rng.randrange(5))
    pool = [0, -1, 10, 11, 12, 13, 14, 40] + list(range(1, 10))
    replaced, dropped = list(tokens), list(tokens)
    replaced[rng.randrange(len(tokens))] = rng.choice(pool)
    del dropped[rng.randrange(len(tokens))]
    return [tokens, replaced, dropped, tokens + [rng.choice(pool)]]


def _unary_term(rng: random.Random, depth: int) -> list[int]:
    kind = rng.randrange(5 if depth > 0 else 2)
    if kind < 2:
        return [(_VAR, _ZERO)[kind]]
    if kind == 2:
        return [_S] + _unary_term(rng, depth - 1)
    if kind == 3:
        return [_DIAG] + _unary_term(rng, depth - 1)
    return [_SUB] + _unary_term(rng, depth - 1) + _unary_term(rng, depth - 1)


def unary_tokens(rng: random.Random, primes: list[int]) -> tuple[list[int], int]:
    """The Polish tokens of a random formula whose one variable is x0,
    bound nowhere, and its code, at most 1e40."""
    while True:
        depth = rng.randrange(3)
        tokens = [_NOT] * rng.randrange(2) + rng.choice([
            [_DEM] + _unary_term(rng, depth),
            [_EQ] + _unary_term(rng, depth) + _unary_term(rng, depth)])
        code = _encode([[tok, 1] for tok in tokens], primes)
        if _VAR in tokens and code <= 10**40:
            return tokens, code


def scan_call(rng: random.Random, primes: list[int]) -> tuple:
    """One enumeration call: its name and its arguments."""
    kind = rng.choice(["below", "count", "at", "index", "diagonalize", "sub_num"])
    if kind in ("below", "count"):
        how = rng.randrange(3)
        if how == 0:
            return kind, int(10 ** rng.uniform(10, 40))
        return kind, unary_tokens(rng, primes)[1] - (how == 2)
    if kind == "index":
        return kind, unary_tokens(rng, primes)[0]
    if kind == "sub_num":
        return kind, rng.randrange(400), rng.randrange(300)
    return kind, rng.randrange(400)


def modal_text(rng: random.Random, depth: int) -> str:
    """A modal formula's text, with every connective and prefix."""
    kind = rng.randrange(5 if depth > 0 else 1)
    if kind == 0:
        return rng.choice("pqr")
    if kind == 1:
        return rng.choice(["~", "[]", "<>", "~~", "[]~"]) + modal_text(rng, depth - 1)
    op = rng.choice(["->", "<->", "&", "|"])
    text = "%s %s %s" % (modal_text(rng, depth - 1), op, modal_text(rng, depth - 1))
    return "(%s)" % text if kind < 4 else text


def _group_at(text: str, a: int) -> str | None:
    """The parenthesized group that opens at text[a], or None."""
    depth = 0
    for b in range(a, len(text)):
        depth += {"(": 1, ")": -1}.get(text[b], 0)
        if depth == 0:
            return text[a:b + 1]
    return None


def _respaced(rng: random.Random, text: str) -> str:
    """text with one group that it restates written with other spaces: no
    space around each `->`, and one after the `(`."""
    starts = [a for a in range(len(text)) if text[a] == "(" and not text[a - 1:a].isalpha()]
    rng.shuffle(starts)
    for a in starts:
        group = _group_at(text, a)
        if group is not None and " -> " in group and text.count(group) > 1:
            return text[:a] + "( " + group[1:].replace(" -> ", "->") + text[a + len(group):]
    return text


def _unwrapped(text: str) -> str:
    """text without its outer parentheses where they are one group around
    an implication, as a printed formula starting with `(` is, else text."""
    if text[:1] == "(" and _group_at(text, 0) == text:
        return text[1:-1]
    return text


def _unparenthesized(rng: random.Random, text: str, what: str) -> str:
    """text with one formula spelled as the printer would not, but read
    alike: the outer parentheses dropped from a step's formula ("step"),
    from one of a schema's bindings ("binding"), or from the formula of a
    step that an MP cites as its antecedent ("antecedent").  A step that
    restates it then no longer restates its printed text."""
    lines = text.splitlines(keepends=True)
    if what == "antecedent":
        cited = [int(line.split()[-1]) for line in lines if " ; MP " in line]
        ks = [k - 1 for k in cited if 0 < k <= len(lines)]
    else:
        ks = list(range(len(lines)))
    rng.shuffle(ks)
    for k in ks:
        head, sep, just = lines[k].partition(" ; ")
        if what == "binding":
            parts = just.split(" := ")
            if len(parts) < 2:
                continue
            i = rng.randrange(1, len(parts))
            # the value runs to the "; " before the next name, or to the "]"
            cut = parts[i].rfind("; " if i < len(parts) - 1 else "]")
            value = parts[i][:cut]
            if _unwrapped(value) != value:
                parts[i] = _unwrapped(value) + parts[i][cut:]
                lines[k] = head + sep + " := ".join(parts)
                break
        else:
            number, dot, formula = head.partition(". ")
            if _unwrapped(formula) != formula:
                lines[k] = number + dot + _unwrapped(formula) + sep + just
                break
    return "".join(lines)


def proof_texts(rng: random.Random) -> list[str]:
    """A proof file printed as the benchmark prints it, then the same with
    one step negated, one restated group respaced, one character dropped,
    and one formula, binding or MP antecedent unparenthesized."""
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)
    import wl_proof
    from common import sized_formula
    if rng.random() < 0.5:
        steps = wl_proof.identity_steps(sized_formula(rng, 3))
    else:
        steps = wl_proof.chain_steps(rng, rng.choice([8, 16, 32, 48]))
    text = wl_proof.proof_text(steps)
    negated = list(steps)
    k = rng.randrange(1, len(steps))
    negated[k] = (("not", steps[k][0]), steps[k][1])
    drop = rng.randrange(len(text))
    return [text, wl_proof.proof_text(negated), _respaced(rng, text), text[:drop] + text[drop + 1:],
            _unparenthesized(rng, text, rng.choice(("step", "binding", "antecedent")))]


# --- one tree's answers --------------------------------------------------
#
# goedellab is imported only in a child, from the tree whose `src` is first
# on its path


def _answer(fn) -> object:
    try:
        return fn()
    except Exception as e:  # an error is an answer too
        return "%s: %s" % (type(e).__name__, e)


def meta_answers(seed: int, count: int):
    from goedellab import meta as M
    canon = getattr(M, "normalize", lambda phi: phi)
    negate = getattr(M, "neg", M.MNot)
    rng = random.Random(seed)
    previous = None
    for _ in range(count):
        text = meta_text(rng, rng.randrange(5))
        misread = [_answer(lambda: M.print_meta(canon(M.parse_meta(m))))
                   for m in mutations(rng, text)]
        phi = _answer(lambda: canon(M.parse_meta(text)))
        if isinstance(phi, str):
            yield text, [phi] + misread
            continue
        answer = [M.print_meta(phi), M.print_meta(negate(phi))]
        if previous is not None:
            answer += [_answer(lambda: M.satisfiable([previous, phi])),
                       _answer(lambda: M.tautological_consequence([previous], phi))]
        previous = phi
        yield text, answer + misread


def audit_answers(seed: int, count: int):
    from goedellab import audit
    rng = random.Random(seed)
    bases = _script_bases()
    for _ in range(count):
        text = script_text(rng, bases)
        script = _answer(lambda: audit.parse_script(text))
        if isinstance(script, str):
            yield text, [script]
            continue
        report = _answer(lambda: json.dumps(audit.check_script(script).to_json_dict(),
                                            sort_keys=True))
        yield text, [report, _answer(lambda: audit.minimal_inconsistent_subsets(script))]


def codec_answers(seed: int, count: int):
    from goedellab import codec
    rng = random.Random(seed)
    primes = _first_primes(6040)
    for _ in range(count):
        text, g = codec_case(rng, primes)
        tokens = _answer(lambda: codec.decode_tokens(g))
        if isinstance(tokens, list):
            tokens = [[tok, len(list(group))] for tok, group in itertools.groupby(tokens)]
        yield text, [tokens]


def print_answers(seed: int, count: int):
    from goedellab import codec, formulas, modal
    rng = random.Random(seed)

    def cases():
        while True:
            for tokens in token_cases(rng):
                runs = [[tok, len(list(group))] for tok, group in itertools.groupby(tokens)]
                yield "tokens %s" % json.dumps(runs), [_answer(
                    lambda: formulas.print_formula(codec.tokens_to_formula(tokens)))]
            text = modal_text(rng, rng.randrange(5))
            yield "modal %s" % text, [_answer(lambda: modal.print_modal(modal.parse_modal(text)))]

    yield from itertools.islice(cases(), count)


def proof_answers(seed: int, count: int):
    from goedellab import formulas, kernel
    from goedellab.syntax import Node
    rng = random.Random(seed)

    def shown(v):
        return formulas.print_formula(v) if isinstance(v, Node) else v

    def answer(text: str):
        proof, premises = kernel.parse_proof_file(text)
        steps = [[shown(f), type(j).__name__, [[k, shown(v)] for k, v in j.binding]
                  if isinstance(j, kernel.Axiom) else list(j._values())] for f, j in proof.steps]
        verdict = kernel.check_proof(proof, premises)
        return [steps, sorted([k, shown(f)] for k, f in premises.items()),
                [verdict.ok, verdict.step, verdict.reason]]

    def cases():
        while True:
            for text in proof_texts(rng):
                yield text, [_answer(lambda: answer(text))]

    yield from itertools.islice(cases(), count)


def scan_answers(seed: int, count: int):
    from goedellab import codec, diagonal, formulas

    def digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def answer(call):
        kind, arg = call[0], call[1]
        if kind == "below":
            entries = codec.unary_formulas_below(arg)
            return [len(entries), digest("\n".join("%x %s" % (c, formulas.print_formula(f))
                                                   for c, f in entries))]
        if kind == "count":
            return codec.count_unary_below(arg)
        if kind == "at":
            return formulas.print_formula(codec.formula_at(arg))
        if kind == "index":
            return codec.index_of(codec.tokens_to_formula(arg))
        if kind == "sub_num":
            return digest("%x" % codec.sub_num(arg, call[2]))
        cert = diagonal.diagonalize(codec.formula_at(arg))
        return [cert.q, digest(formulas.print_formula(cert.sentence)),
                digest("%x" % cert.sentence_code)]

    rng = random.Random(seed)
    primes = _first_primes(64)
    for _ in range(count):
        call = scan_call(rng, primes)
        yield json.dumps(call), [_answer(lambda: answer(call))]


FAMILIES = {"meta": meta_answers, "audit": audit_answers, "codec": codec_answers,
            "print": print_answers, "proof": proof_answers, "scan": scan_answers}


def child(family: str, seed: int, count: int, tree: str) -> None:
    import goedellab
    if not os.path.abspath(goedellab.__file__).startswith(os.path.join(tree, "src") + os.sep):
        sys.exit("goedellab imported from %s, not from %s" % (goedellab.__file__, tree))
    for text, answer in FAMILIES[family](seed, count):
        print(json.dumps([text, answer]))


# --- comparison ----------------------------------------------------------


def answers(tree: str, family: str, seed: int, count: int) -> list[list]:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", family, "--tree", tree,
         "--seed", str(seed), "--count", str(count)],
        env=env, capture_output=True, text=True, check=False)
    if proc.returncode:
        sys.exit("%s child in %s failed:\n%s" % (family, tree, proc.stderr))
    return [json.loads(line) for line in proc.stdout.splitlines()]


def compare(parent: str, seed: int, count: int, allow: str | None) -> int:
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", ROOT, "archive", parent], capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        for family in FAMILIES:
            old = answers(tmp, family, seed, count)
            new = answers(ROOT, family, seed, count)
            diffs = [(o, n) for o, n in zip(old, new) if o != n]
            intended = len(diffs)
            if allow:
                diffs = [(o, n) for o, n in diffs if not re.search(allow, json.dumps(o[1]))]
            intended -= len(diffs)
            print("%s: %d cases, %d differ, %d more as --allow intends"
                  % (family, len(new), len(diffs), intended))
            for (text, o), (_, n) in diffs[:SHOWN]:
                print("  input:  %s" % json.dumps(text)[:SHOWN_INPUT])
                print("  parent: %s" % json.dumps(o))
                print("  this:   %s" % json.dumps(n))
            differing += len(diffs)
    return 1 if differing else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="the revision to compare against")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=1000, help="cases per family")
    ap.add_argument("--allow", metavar="REGEX",
                    help="accept a difference whose parent answer matches REGEX")
    ap.add_argument("--child", choices=sorted(FAMILIES), help=argparse.SUPPRESS)
    ap.add_argument("--tree", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child(args.child, args.seed, args.count, args.tree)
        return 0
    if not args.parent:
        ap.error("--parent is required")
    return compare(args.parent, args.seed, args.count, args.allow)


if __name__ == "__main__":
    sys.exit(main())
