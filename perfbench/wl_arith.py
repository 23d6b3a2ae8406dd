"""The codec part of the `lib` workload: in-process codec calls at the
sizes where the scan, the materialization and the decoder do nearly all
the work.

Why: the codec's scan, materialization and decode are the slow layers of
ROADMAP item 2; the modal and proof parts never reach them.  Sizes follow a
stratified log-uniform grid, so every round covers the same cost range
and the seed picks the values within each stratum and every formula.
Ops whose index lookups rescan up to 1e36 (formula_at past index 77,
diagonalize on such templates, 3-5 s each at the seed commit) are left
to the `cli` workload's uncached `diagonalize`, so that a round stays
short.
"""

from __future__ import annotations

import bisect

import oracle as O
from common import Op, expect_raise, expect_value, log_stratum, random_formula, sized_formula, stratum

TABLE_BOUND = 10**36
ROUNDTRIPS = 73


class Arith:
    def __init__(self, G):
        self.G = G
        # the oracle's unary formulas up to 1e36, in index order
        self.table = O.unary_below(TABLE_BOUND)
        # indices below 14 (a 1e20 scan) whose formula has one x0, so that
        # sub_num's cost depends on the numeral alone
        self.single_x0 = [n for n in range(2, 14) if O.tokens(self.table[n][1]).count(O.VAR_BASE) == 1]

    def index_near(self, log10_code: float) -> int:
        """Index of the last unary formula with code <= 10**log10_code."""
        codes = [c for c, _ in self.table]
        return max(1, bisect.bisect_right(codes, int(10**log10_code)) - 1)

    # --- op builders ---------------------------------------------------

    def roundtrip(self, rng):
        F, codec = self.G.formulas, self.G.codec
        f = sized_formula(rng, 8)
        text = O.print_formula(f)
        code = O.encode(f)

        def call():
            g = codec.encode_formula(F.parse_formula(text))
            return g, F.print_formula(codec.decode_formula(g))

        return Op("roundtrip", "rt:" + text, call, expect_value((code, text)),
                  {"decoded_bits": code.bit_length()})

    def decode(self, rng, m):
        codec = self.G.codec
        num, var = ("nat", m), ("var", rng.randrange(3))
        f = ("eq", var, num) if rng.random() < 0.5 else ("dem", ("sub", num, var))
        g = O.encode(f)
        return Op("decode_large", "dec:%x" % g, lambda: codec.decode_formula(g),
                  expect_value(f, convert=O.from_program), {"decoded_bits": g.bit_length()})

    def decode_bad(self, rng):
        codec = self.G.codec
        f = random_formula(rng, 2)
        toks = O.tokens(f)
        if rng.random() < 0.5:
            toks = toks + [O.ZERO]  # a trailing token
        else:
            toks = toks[:-1]  # a formula cut short
        g = O.encode_tokens(toks)
        return Op("decode_bad", "bad:%x" % g, lambda: codec.decode_formula(g),
                  expect_raise("NotWellFormed"), {"decoded_bits": g.bit_length()})

    def scan(self, b):
        codec = self.G.codec
        expected = [(c, f) for c, f in self.table if c <= b]

        def convert(entries):
            return [(c, O.from_program(f)) for c, f in entries]

        return Op("unary_below", "ub:%d" % b, lambda: codec.unary_formulas_below(b),
                  expect_value(expected, render=lambda v: "%d entries" % len(v), convert=convert),
                  {"scan_results": len(expected)})

    def formula_at(self, n):
        codec = self.G.codec
        return Op("formula_at", "at:%d" % n, lambda: codec.formula_at(n),
                  expect_value(self.table[n][1], convert=O.from_program))

    def index_of(self, n):
        F, codec = self.G.formulas, self.G.codec
        text = O.print_formula(self.table[n][1])
        return Op("index_of", "ix:" + text, lambda: codec.index_of(F.parse_formula(text)),
                  expect_value(n))

    def sub_num(self, n, m):
        codec = self.G.codec
        toks = O.tokens(O.substitute(self.table[n][1], 0, ("nat", m)))
        if len(toks) > O.MATERIALIZE_TOKENS:
            check = expect_raise("ResourceBound")
        else:
            check = expect_value(O.encode_tokens(toks), render=lambda v: "%d-bit code" % v.bit_length())
        return Op("sub_num", "sub:%d:%d" % (n, m), lambda: codec.sub_num(n, m), check,
                  {"materialized_tokens": len(toks)})

    def to_int(self, m):
        codec = self.G.codec
        runs = ((O.DEM, 1), (O.S, m), (O.ZERO, 1))
        expected = O.encode(("dem", ("nat", m)))
        return Op("rle_to_int", "rle:%d" % m, lambda: codec.CodeRLE(runs).to_int(),
                  expect_value(expected, render=lambda v: "%d-bit code" % v.bit_length()),
                  {"materialized_tokens": m + 2})

    def diag_num(self, n):
        codec = self.G.codec
        g, f = self.table[n]
        toks = O.tokens(f)
        total = len(toks) + toks.count(O.VAR_BASE) * g
        if total > O.MATERIALIZE_TOKENS:
            check = expect_raise("ResourceBound")
        else:
            check = expect_value(O.encode(O.substitute(f, 0, ("nat", g))))
        return Op("diag_num", "dn:%d" % g, lambda: codec.diag_num(g), check, {"diag_num_tokens": total})

    def diagonalize(self, q):
        F, diagonal = self.G.formulas, self.G.diagonal
        psi = self.table[q][1]
        text = O.print_formula(psi)
        sentence = O.substitute(psi, 0, ("nat", q))
        expected = (q, O.encode(sentence), sentence, True)

        def convert(cert):
            return (cert.q, cert.sentence_code, O.from_program(cert.sentence), cert.fixed_point_checked)

        return Op("diagonalize", "dg:" + text, lambda: diagonal.diagonalize(F.parse_formula(text)),
                  expect_value(expected, render=lambda v: "q=%r" % (v[0],), convert=convert))

    # --- rounds --------------------------------------------------------

    def warmup(self, rng):
        """One op of each kind, on inputs below every measured stratum."""
        return [
            self.roundtrip(rng), self.decode(rng, 50), self.decode_bad(rng),
            self.scan(10**10), self.formula_at(0), self.index_of(0), self.sub_num(0, 20),
            self.to_int(300), self.diag_num(1), self.diagonalize(1),
        ]

    def round(self, rng):
        ops = [self.roundtrip(rng) for _ in range(ROUNDTRIPS)]
        # every stratum twice, so that neighbouring order statistics (the
        # tail percentile) sit among ops of about the same cost
        for _ in range(2):
            ops += [self.decode(rng, int(log_stratum(rng, 200, 2000, k, 4))) for k in range(4)]
            ops.append(self.decode_bad(rng))
            ops += [self.scan(int(10 ** stratum(rng, 12, 36, k, 4))) for k in range(4)]
            # formula_at's cost steps with its scan bound (1e12, 1e20,
            # 1e28); index_of's grows with the code it counts up to
            buckets = ((0, 2), (2, 14), (14, 78))
            ops += [self.formula_at(int(stratum(rng, lo, hi, 0, 1))) for lo, hi in buckets]
            ops += [self.index_of(self.index_near(stratum(rng, 8, 36, k, 4))) for k in range(4)]
            ops += [self.sub_num(rng.choice(self.single_x0), int(log_stratum(rng, 100, 5000, k, 4)))
                    for k in range(4)]
            ops += [self.to_int(int(stratum(rng, 1000, 5000, k, 3))) for k in range(3)]
            ops += [self.diag_num(rng.randrange(2, 78)) for _ in range(2)]
            ops += [self.diagonalize(int(stratum(rng, lo, hi, 0, 1))) for lo, hi in buckets[1:]]
        rng.shuffle(ops)
        return ops
