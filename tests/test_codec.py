import hashlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_formula
from goedellab import codec
from goedellab import formulas as F
from goedellab.errors import NotUnary, NotWellFormed, ResourceBound
from goedellab.syntax import walk

# first primes, stated independently of the library's sieve
PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
          67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]


# --- worked constants, recomputed from scratch -------------------------


def test_worked_constant_eq_zero_zero():
    # Eq(0,0) in Polish: = 0 0 -> tokens (4, 8, 8)
    assert 2**4 * 3**8 * 5**8 == 41_006_250_000
    assert codec.encode_formula(F.Eq(F.ZERO, F.ZERO)) == 41_006_250_000
    assert codec.decode_formula(41_006_250_000) == F.Eq(F.ZERO, F.ZERO)


def test_worked_constant_dem_x0():
    # Dem(x0) in Polish: Dem x0 -> tokens (5, 13)
    assert 2**5 * 3**13 == 51_018_336
    assert codec.encode_formula(F.Dem(F.Var(0))) == 51_018_336
    assert codec.decode_formula(51_018_336) == F.Dem(F.Var(0))


def test_sub_num_worked_value():
    # Dem(x0) at the numeral of 2: Dem S S 0 -> tokens (5, 9, 9, 8)
    expected = 2**5 * 3**9 * 5**9 * 7**8
    assert expected == 7_091_786_130_187_500_000
    assert codec.sub_num(0, 2) == expected


# --- decoding error paths ----------------------------------------------


def test_decode_rejects_non_codes():
    # each code and the message it is refused with; the Polish reader's
    # faults are reported at the first token that cannot stand where it is
    cases = [
        (0, "Goedel numbers are naturals >= 1"),
        (1, "empty sequence"),
        (2 * 5, "exponent gap at prime 3"),
        (2**10 * 3**13, "reserved or invalid token code 10"),
        (2**1, "token string ends inside a formula"),  # ~ <missing>
        (2**4 * 3**8, "token string ends inside a term"),  # = 0 <missing>
        (2**3, "token string ends inside a quantifier variable"),  # forall <missing>
        (2**3 * 3**1, "quantifier not followed by a variable token"),
        (2**3 * 3**12, "reserved or invalid token code 12"),  # before the variable check
        (2**8, "token 8 cannot start a formula"),
        (2**13, "token 13 cannot start a formula"),
        (2**5 * 3**1, "token 1 cannot start a term"),
        (2**2 * 3**4 * 5**8 * 7**8 * 11**9, "token 9 cannot start a formula"),
        (2**4 * 3**8 * 5**8 * 7**8, "trailing tokens after a complete formula"),
        # the first fault from the left is the one reported
        (2**5 * 3**2 * 5**10, "token 2 cannot start a term"),
    ]
    for code, message in cases:
        with pytest.raises(NotWellFormed, match="^" + re.escape(message)):
            codec.decode_formula(code)


def test_the_polish_reader_reports_faults_of_token_lists():
    # token lists that no code spells: a non-positive token, or none
    for tokens, message in [([0], "reserved or invalid token code 0"),
                            ([5, -3], "reserved or invalid token code -3"),
                            ([], "token string ends inside a formula")]:
        with pytest.raises(NotWellFormed, match="^" + re.escape(message)):
            codec.tokens_to_formula(tokens)


def test_encode_is_injective_on_a_sample():
    rng = random.Random(11)
    seen = {}
    for _ in range(2000):
        f = random_formula(rng, rng.randrange(0, 4))
        toks = codec.formula_tokens(f)
        if len(toks) > 60:  # keep the prime-power products fast
            continue
        g = codec.encode_tokens(toks)
        assert seen.setdefault(g, f) == f


# --- independent enumeration oracle ------------------------------------
#
# Every Goedel number is an integer whose prime factorization uses a
# contiguous initial segment of the primes; enumerate exactly those
# integers below the bound, then filter by an arity-based Polish reader
# written here from scratch, and sort.


def _contiguous_smooth(bound):
    """All (product, exponent-tuple) with product = prod p_i^t_i <= bound,
    every t_i >= 1."""
    out = []

    def rec(i, prod, seq):
        p = PRIMES[i]
        v = prod * p
        t = 1
        while v <= bound:
            out.append((v, seq + (t,)))
            rec(i + 1, v, seq + (t,))
            v *= p
            t += 1

    rec(0, 1, ())
    return out


def _read_formula(toks, i):
    """Returns (next position, free variable set); raises ValueError."""
    if i >= len(toks):
        raise ValueError("truncated")
    t = toks[i]
    if t == 1:  # negation
        return _read_formula(toks, i + 1)
    if t == 2:  # implication
        j, fv1 = _read_formula(toks, i + 1)
        k, fv2 = _read_formula(toks, j)
        return k, fv1 | fv2
    if t == 3:  # universal quantifier
        if i + 1 >= len(toks) or toks[i + 1] < 13:
            raise ValueError("quantifier needs a variable")
        v = toks[i + 1] - 13
        j, fv = _read_formula(toks, i + 2)
        return j, fv - {v}
    if t == 4:  # equation
        j, fv1 = _read_term(toks, i + 1)
        k, fv2 = _read_term(toks, j)
        return k, fv1 | fv2
    if t == 5:  # provability predicate
        return _read_term(toks, i + 1)
    raise ValueError("not a formula token")


def _read_term(toks, i):
    if i >= len(toks):
        raise ValueError("truncated")
    t = toks[i]
    if t == 6:  # substitution function
        j, fv1 = _read_term(toks, i + 1)
        k, fv2 = _read_term(toks, j)
        return k, fv1 | fv2
    if t in (7, 9):  # diagonalization / successor
        return _read_term(toks, i + 1)
    if t == 8:  # zero
        return i + 1, set()
    if t >= 13:  # variable
        return i + 1, {t - 13}
    raise ValueError("not a term token")


def _oracle_unary_below(bound):
    found = []
    for code, toks in _contiguous_smooth(bound):
        try:
            j, fv = _read_formula(toks, 0)
        except ValueError:
            continue
        if j == len(toks) and fv == {0}:
            found.append((code, toks))
    return sorted(found)


@pytest.mark.parametrize("bound", [10**12, 10**16])
def test_enumeration_matches_brute_force_oracle(bound, empty_table):
    oracle = _oracle_unary_below(bound)
    got = codec.unary_formulas_below(bound)
    assert [(c, tuple(codec.formula_tokens(f))) for c, f in got] == oracle


def test_enumeration_small_counts(empty_table):
    # frozen counts, cross-checked by the oracle test above at 1e12/1e16
    assert codec.count_unary_below(10**12) == 2
    assert codec.count_unary_below(10**16) == 7
    assert codec.count_unary_below(10**20) == 14
    assert codec.count_unary_below(10**24) == 38


# --- the unpruned scan, kept as a referee for the pruned one -----------
#
# Depth-first over grammar-valid Polish prefixes, cut only when the
# partial product itself exceeds the bound.  Far slower than the library's
# branch and bound, but fast enough up to 1e32.


def _unpruned_unary_below(bound):
    k, prod = 1, 2
    while prod <= bound:
        k += 1
        prod *= codec.nth_prime(k - 1)
    n = k + 1
    primes = [codec.nth_prime(i) for i in range(n + 2)]

    def gen_formula(i, prod):
        # yields (next position, product, free-variable mask, tokens)
        if i >= n:
            return
        p = primes[i]
        q = prod * p  # negation
        if q <= bound:
            for (j, pr, fv, tk) in gen_formula(i + 1, q):
                yield (j, pr, fv, (1,) + tk)
        q = prod * p * p  # implication
        if q <= bound:
            for (j1, pr1, fv1, tk1) in gen_formula(i + 1, q):
                for (j2, pr2, fv2, tk2) in gen_formula(j1, pr1):
                    yield (j2, pr2, fv1 | fv2, (2,) + tk1 + tk2)
        q = prod * p**3  # quantifier, then a variable token, then a body
        if q <= bound and i + 1 < n:
            v = 0
            while True:
                q2 = q * primes[i + 1] ** (13 + v)
                if q2 > bound:
                    break
                for (j, pr, fv, tk) in gen_formula(i + 2, q2):
                    yield (j, pr, fv & ~(1 << v), (3, 13 + v) + tk)
                v += 1
        q = prod * p**4  # equation
        if q <= bound:
            for (j1, pr1, fv1, tk1) in gen_term(i + 1, q):
                for (j2, pr2, fv2, tk2) in gen_term(j1, pr1):
                    yield (j2, pr2, fv1 | fv2, (4,) + tk1 + tk2)
        q = prod * p**5  # provability predicate
        if q <= bound:
            for (j, pr, fv, tk) in gen_term(i + 1, q):
                yield (j, pr, fv, (5,) + tk)

    def gen_term(i, prod):
        if i >= n:
            return
        p = primes[i]
        q = prod * p**6  # substitution function
        if q <= bound:
            for (j1, pr1, fv1, tk1) in gen_term(i + 1, q):
                for (j2, pr2, fv2, tk2) in gen_term(j1, pr1):
                    yield (j2, pr2, fv1 | fv2, (6,) + tk1 + tk2)
        for tok in (7, 9):  # diagonalization, successor
            q = prod * p**tok
            if q <= bound:
                for (j, pr, fv, tk) in gen_term(i + 1, q):
                    yield (j, pr, fv, (tok,) + tk)
        q = prod * p**8  # zero
        if q <= bound:
            yield (i + 1, q, 0, (8,))
        v = 0
        while True:  # variables
            q = prod * p ** (13 + v)
            if q > bound:
                break
            yield (i + 1, q, 1 << v, (13 + v,))
            v += 1

    return sorted((pr, tk) for (_, pr, fv, tk) in gen_formula(0, 1) if fv == 1)


@pytest.mark.parametrize("bound", [10**20, 10**24, 10**28, 10**32])
def test_pruned_scan_matches_the_unpruned_scan(bound, empty_table):
    got = codec.unary_formulas_below(bound)
    assert [(c, tuple(codec.formula_tokens(f))) for c, f in got] == _unpruned_unary_below(bound)


def test_enumeration_large_counts(empty_table):
    # frozen counts; 1e28 and 1e32 are cross-checked by the unpruned scan
    assert codec.count_unary_below(10**28) == 78
    assert codec.count_unary_below(10**32) == 187
    assert codec.count_unary_below(10**36) == 403


def test_first_two_unary_formulas():
    entries = codec.unary_formulas_below(10**12)
    assert entries[0] == (51_018_336, F.Dem(F.Var(0)))
    assert entries[1] == (593_261_718_750, F.Not(F.Dem(F.Var(0))))
    assert codec.formula_at(0) == F.Dem(F.Var(0))


def test_index_of_inverts_formula_at(tmp_path):
    cache = codec.IndexTable(str(tmp_path / "index.txt"))
    for k in list(range(15)) + [20, 30, 39]:
        f = codec.formula_at(k, cache)
        assert codec.index_of(f, cache) == k
    # the persisted table reloads to the same answers
    reloaded = codec.IndexTable(str(tmp_path / "index.txt"))
    assert reloaded.formula_at(7) == codec.formula_at(7, cache)


def _write_table(path, version, body):
    digest = hashlib.sha256(("%s\n%s" % (version, body)).encode()).hexdigest()
    path.write_text("# sha256:%s\n%s\n" % (digest, body))


def test_index_table_from_another_codec_version_is_ignored(tmp_path):
    path = tmp_path / "index-table.txt"
    body = "0 %x Dem(x0)" % codec.encode_formula(F.Dem(F.Var(0)))
    _write_table(path, codec.CODEC_VERSION, body)
    assert codec.IndexTable(str(path)).formula_at(0) == F.Dem(F.Var(0))
    _write_table(path, "goedellab-codec/0 tokens 1 2 3", body)
    table = codec.IndexTable(str(path))
    assert table.formula_at(0) is None and table.contiguous == 0
    # a rebuild replaces the foreign table and leaves no temporary file
    codec.formula_at(1, table)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["index-table.txt"]
    assert codec.IndexTable(str(path)).contiguous == 2


def test_index_table_record_skips_rewrite_without_new_entries(tmp_path, monkeypatch):
    table = codec.IndexTable(str(tmp_path / "index-table.txt"))
    entries = codec.unary_formulas_below(10**16)
    table.record(entries)
    reloaded = codec.IndexTable(str(tmp_path / "index-table.txt"))
    monkeypatch.setattr(reloaded, "save", lambda: pytest.fail("rewrote an unchanged table"))
    reloaded.record(entries)
    reloaded.record_single(3, entries[3][0], entries[3][1])
    assert reloaded.contiguous == 7


def test_index_of_requires_unary():
    with pytest.raises(NotUnary):
        codec.index_of(F.Eq(F.ZERO, F.ZERO))
    with pytest.raises(NotUnary):
        codec.index_of(F.Eq(F.Var(1), F.Var(0)))


# --- the table a process keeps, against the scanner --------------------


def _fresh(bound):
    """Sorted (code, tokens) of a scan of its own, which reads no table."""
    return sorted(codec._scan_unary(bound))


def _pick_bound(rng, codes):
    """A bound from 1e10 to 1e40: log-uniform, or a code, or a code - 1."""
    kind = rng.randrange(3)
    if kind == 0:
        return int(10 ** rng.uniform(10, 40))
    return rng.choice(codes) - (kind == 2)


def test_seeded_mixed_calls_answer_as_a_fresh_scan(empty_table):
    rng = random.Random(3001)
    referee = _fresh(10**40)
    codes = [c for c, _ in referee]
    kinds = {"below": 0, "count": 0, "at": 0, "index": 0}
    for _ in range(200):
        kind = rng.choice(sorted(kinds))
        kinds[kind] += 1
        if kind == "below":
            b = _pick_bound(rng, codes)
            got = codec.unary_formulas_below(b)
            assert [(c, tuple(codec.formula_tokens(f))) for c, f in got] == _fresh(b)
        elif kind == "count":
            b = _pick_bound(rng, codes)
            assert codec.count_unary_below(b) == len(_fresh(b))
        elif kind == "at":
            n = rng.randrange(len(codes))
            assert codec.formula_tokens(codec.formula_at(n)) == list(referee[n][1])
        else:
            code, tokens = rng.choice(referee)
            f = codec.tokens_to_formula(list(tokens))
            assert codec.index_of(f) == len(_fresh(code - 1))
    assert min(kinds.values()) >= 30


def test_an_answer_is_a_new_list_and_a_count_above_the_table_streams(empty_table):
    got = codec.unary_formulas_below(10**20)
    assert codec._table[0] == 10**20
    expected = list(got)
    got.clear()
    smaller = codec.unary_formulas_below(10**16)
    smaller.reverse()
    smaller.append(expected[-1])
    assert codec.unary_formulas_below(10**20) == expected
    assert codec.unary_formulas_below(10**16) == expected[:7]
    # a count within the bound is read off the table, one above it streams
    table = codec._table
    assert codec.count_unary_below(10**16) == 7
    assert codec.count_unary_below(10**28) == 78
    assert codec.count_unary_below(10**28, stop=20) == 20
    assert codec._table is table
    # a list above the bound replaces the table
    assert len(codec.unary_formulas_below(10**24)) == 38 and codec._table[0] == 10**24


def test_numeral_limit_is_the_first_index_whose_sentence_cannot_be_built():
    for text, limit in [
        ("Dem(x0)", 199_999),  # 2 + m > 200,000 from m = 199,999 on
        ("~Dem(sub(x0,x0)) -> x0 = x0", 49_998),  # 9 tokens and 4 x0
        ("(forall x0. Dem(x0)) -> Dem(x0)", 199_994),  # one x0 of two is free
    ]:
        psi = F.parse_formula(text)
        n = len(codec.formula_tokens(psi))
        k = len(codec.formula_tokens(F.substitute(psi, 0, F.Num(1)))) - n
        assert codec.numeral_limit(psi) == limit
        assert n + k * (limit - 1) <= codec.MAX_TOKENS < n + k * limit


# --- round trips --------------------------------------------------------


def test_round_trip_seeded_sample():
    rng = random.Random(23)
    for _ in range(300):
        f = random_formula(rng, rng.randrange(0, 5), allow_num=False)
        assert codec.decode_formula(codec.encode_formula(f)) == f


def test_round_trip_compact_numeral_literal():
    # an S-run over 0 decodes to one numeral, long or short
    f = F.Eq(F.Num(1500), F.Var(0))
    assert codec.decode_formula(codec.encode_formula(f)) == f
    g = F.Eq(F.Num(200), F.ZERO)
    assert codec.decode_formula(codec.encode_formula(g)) == g


def test_decoded_numeral_prints_as_parsed():
    cases = [F.parse_formula("S(1000) = 0"), F.parse_formula("S(1500) = 0"),
             F.substitute(F.parse_formula("Dem(S(x0))"), 0, F.Num(1234))]
    for f in cases:
        g = codec.decode_formula(codec.encode_formula(f))
        assert F.print_formula(g) == F.print_formula(f)
    assert [F.print_formula(f) for f in cases] == ["1001 = 0", "1501 = 0", "Dem(1235)"]
    decoded = codec.decode_formula(codec.encode_formula(F.parse_formula("1000 = 0")))
    assert hash(decoded) == hash(F.Eq(F.Num(1000), F.ZERO))
    assert decoded == F.Eq(F.Num(1000), F.ZERO)


def _successors_over_numerals(node):
    return sum(isinstance(x, F.Succ) and isinstance(x.arg, F.Num) for x in walk(node))


@st.composite
def _numeral_terms(draw, depth=3):
    if depth == 0:
        return draw(st.one_of(st.integers(0, 40).map(F.Num), st.integers(0, 2).map(F.Var)))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return F.Succ(draw(_numeral_terms(depth - 1)))
    if kind == 1:
        return F.Sub(draw(_numeral_terms(depth - 1)), draw(_numeral_terms(depth - 1)))
    if kind == 2:
        return F.Diag(draw(_numeral_terms(depth - 1)))
    return draw(_numeral_terms(0))


@st.composite
def _numeral_formulas(draw, depth=2):
    kind = draw(st.integers(0, 3 if depth else 1))
    if kind == 0:
        return F.Eq(draw(_numeral_terms()), draw(_numeral_terms()))
    if kind == 1:
        return F.Dem(draw(_numeral_terms()))
    if kind == 2:
        return F.Not(draw(_numeral_formulas(depth - 1)))
    return F.ForAll(draw(st.integers(0, 2)), draw(_numeral_formulas(depth - 1)))


@settings(max_examples=150, deadline=None)
@given(_numeral_formulas(), st.integers(0, 2), st.integers(0, 40))
def test_no_successor_wraps_a_numeral(f, var, value):
    parsed = F.parse_formula(F.print_formula(f))
    decoded = codec.decode_formula(codec.encode_formula(f))
    assert parsed == decoded == f
    for g in (f, parsed, decoded, F.substitute(f, var, F.Num(value))):
        assert _successors_over_numerals(g) == 0


def _trial_division_primes(count):
    primes, n = [], 2
    while len(primes) < count:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    return primes


def _product_in_order(runs):
    tokens = [tok for tok, count in runs for _ in range(count)]
    g = 1
    for p, tok in zip(_trial_division_primes(len(tokens)), tokens):
        g *= p**tok
    return g


def test_primes_match_trial_division():
    primes = _trial_division_primes(3000)
    assert primes[:len(PRIMES)] == PRIMES
    assert [codec.nth_prime(i) for i in range(3000)] == primes


def test_tree_materialization_matches_the_product_in_order():
    rng = random.Random(31)
    cases = [(), ((9, 1),), ((5, 1), (9, 700), (8, 1))]
    for _ in range(40):
        cases.append(tuple((rng.choice([1, 2, 4, 5, 8, 9, 13, 20]), rng.randrange(1, 60))
                           for _ in range(rng.randrange(1, 12))))
    for runs in cases:
        expected = _product_in_order(runs)
        assert codec.CodeRLE(runs).to_int() == expected
        tokens = [tok for tok, count in runs for _ in range(count)]
        assert codec.encode_tokens(tokens) == expected


def test_decode_round_trips_long_runs_and_large_exponents():
    # exponents past one batch power of their prime (2^15, 3^15, 5^10, ...)
    # and long S runs
    for f in (F.Eq(F.Var(40), F.Num(1400)), F.Dem(F.Sub(F.Var(40), F.Var(0))),
              F.Eq(F.Num(300), F.Var(97))):
        tokens = codec.formula_tokens(f)
        assert codec.decode_tokens(codec.encode_tokens(tokens)) == tokens
        assert codec.decode_formula(codec.encode_formula(f)) == f
    g = 2**53 * 3**200 * 5**1
    assert codec.decode_tokens(g) == [53, 200, 1]
    with pytest.raises(NotWellFormed):
        codec.decode_tokens(2**58 * 5**3)  # exponent gap at 3


# --- the block decoder against the prime-by-prime loop -----------------


def _referee_decode_tokens(g):
    """The decoder before runs were read in blocks: one prime at a time."""
    if g < 1:
        raise NotWellFormed("Goedel numbers are naturals >= 1")
    if g.bit_length() > codec.MAX_DECODE_BITS:
        raise ResourceBound(
            "code of %d bits exceeds the decode bound of %d bits"
            % (g.bit_length(), codec.MAX_DECODE_BITS)
        )
    tokens = []
    i = 0
    while g > 1:
        p = codec.nth_prime(i)
        k = max(1, 30 // p.bit_length())
        pk = p**k
        e = 0
        q, r = divmod(g, pk)
        while not r:
            g, e = q, e + k
            q, r = divmod(g, pk)
        j = 0
        while r % p == 0:
            r //= p
            j += 1
        if j:
            g //= p**j
            e += j
        if e == 0:
            raise NotWellFormed(
                "exponent gap at prime %d (not a contiguous token string)" % p
            )
        tokens.append(e)
        i += 1
    return tokens


def _outcome(decode, g):
    try:
        return decode(g)
    except (NotWellFormed, ResourceBound) as e:
        return type(e), str(e)


def _assert_decoders_agree(g):
    assert _outcome(codec.decode_tokens, g) == _outcome(_referee_decode_tokens, g)


# Before its first guess the decoder reads two equal tokens alone, then
# guesses blocks of 1, 2, 4, ... primes: a run of 2^j + 1 ends exactly at
# the edge of the j-th block.
_BLOCK_EDGES = [2**j + 1 for j in range(1, 10)]


def _tails(t):
    """Tails after a run of t that ends the code.  Their weight puts the
    run's end at the guess c, or 1, 2 or 3 primes below it, or further
    (the last three); a 0 is a gap."""
    return [[], [t - 1], [t + 1], [t - 1, t + 1], [t + 1, t - 1], [t + 1, t + 1],
            [8, 20], [t + 1] * 3, [4 * t + 4], [60, 70]]


def _decode_cases(rng):
    """Token lists (0 is a gap) and extra factors of the kinds that steer
    the block decoder: runs ending near a block edge, alternating pairs,
    repeated huge exponents, gaps and off-by-one exponents inside runs,
    and runs that end the code after a short tail, whole or broken in
    their last primes."""
    def token():
        return rng.choice([1, 2, 3, 4, 5, 8, 9, 13, 14, 20])

    head = [token() for _ in range(rng.randrange(3))]
    tail = [token() for _ in range(rng.randrange(3))]
    kind = rng.randrange(7)
    if kind == 0:
        length = rng.choice(_BLOCK_EDGES) + rng.choice([-1, 0, 1])
        tokens = head + [rng.choice([8, 9, 13])] * length + tail
    elif kind == 1:
        tokens = head
        for _ in range(rng.randrange(1, 30)):
            tokens += [rng.choice([8, 9])] * 2
        tokens += tail
    elif kind == 2:
        tokens = [4] + [rng.choice([300, 2000, 5000])] * rng.randrange(2, 6)
    elif kind >= 5:
        t = rng.choice([1, 2, 9, 13])
        length = rng.randrange(2, 600)
        tokens = head + [t] * length + rng.choice(_tails(t))
        if kind == 6:
            tokens[len(head) + length - 1 - rng.randrange(min(4, length))] = rng.choice(
                [0, t - 1, t + 1])
    else:
        t = rng.choice([2, 9, 13])
        length = rng.randrange(2, 300)
        tokens = head + [t] * length + tail
        if kind == 3:
            # the run broken inside by a gap, a higher or a lower exponent
            tokens[len(head) + rng.randrange(length)] = rng.choice([0, t - 1, t + 1])
    extra = 1
    if kind == 4 or rng.random() < 0.2:
        # a factor past the last token: a later prime, a large prime, a
        # random cofactor
        extra = rng.choice([codec.nth_prime(len(tokens) + rng.randrange(3)),
                            2**61 - 1, rng.getrandbits(64) | 1])
    return tokens, extra


def test_block_decoder_matches_the_prime_by_prime_loop_on_seeded_codes():
    rng = random.Random(9)
    for _ in range(250):
        tokens, extra = _decode_cases(rng)
        g = codec.encode_tokens(tokens) * extra
        _assert_decoders_agree(g)
        if extra == 1 and 0 not in tokens:
            assert codec.decode_tokens(g) == tokens
    for length in _BLOCK_EDGES:
        for n in (length - 1, length, length + 1):
            for after in ([], [8], [8, 13], [10]):
                _assert_decoders_agree(codec.encode_tokens([5, 6] + [9] * n + after))
    for t in (1, 2, 9, 13):
        for after in _tails(t):
            # the last length puts the code past the decoder's 8,192-bit
            # floor for reading a run top down
            for n in (2, 3, 4, 5, 40, 1500 // t):
                _assert_decoders_agree(codec.encode_tokens([4, 13] + [t] * n + after))
    # `x60000 = x60000`
    _assert_decoders_agree(codec.encode_formula(F.Eq(F.Var(60000), F.Var(60000))))
    for bits in (1, 2, 8, 30, 64, 200, 2000):
        for _ in range(20):
            _assert_decoders_agree(rng.getrandbits(bits))
    for g in (-1, 0, 1, 2**codec.MAX_DECODE_BITS):
        _assert_decoders_agree(g)


@st.composite
def _run_codes(draw):
    run = st.one_of(st.tuples(st.sampled_from([0, 1, 2, 8, 9, 13]), st.integers(1, 70)),
                    st.tuples(st.just(1000), st.integers(1, 3)))
    runs = draw(st.lists(run, min_size=1, max_size=6))
    tokens = [tok for tok, count in runs for _ in range(count)]
    if draw(st.booleans()):
        # a long run and a short tail end the code
        t = draw(st.sampled_from([1, 2, 8, 9, 13]))
        tokens += [t] * draw(st.integers(2, 400))
        tokens += draw(st.lists(st.sampled_from([0, 1, 8, 14, 20, t - 1, t + 1]), max_size=3))
    if draw(st.booleans()):
        # one exponent off by one, a gap where it drops to 0
        at = draw(st.integers(0, len(tokens) - 1))
        tokens[at] = max(0, tokens[at] + draw(st.sampled_from([-1, 1])))
    extra = draw(st.sampled_from([1, 1, 2, 2**61 - 1, codec.nth_prime(len(tokens))]))
    return codec.encode_tokens(tokens) * extra


@settings(max_examples=150, deadline=None)
@given(st.one_of(_run_codes(), st.integers(-2, 2**300)))
def test_block_decoder_matches_the_prime_by_prime_loop(g):
    _assert_decoders_agree(g)


def _counted(helper, calls):
    def call(*args):
        calls.append(args)
        return helper(*args)
    return call


def test_a_long_run_is_decoded_in_blocks(monkeypatch):
    # prime by prime, `x0 = 2000` takes 2,003 steps, one per token.  Two S
    # tokens are read alone and one as a block of one prime; the run ends
    # the code, so the other 1,997 are one block, whose end is guessed from
    # the code's size: one product, of their primes.  The same holds for
    # `Dem(sub(2000, x1))`, whose run has two tokens after it.
    for text in ("x0 = 2000", "Dem(sub(2000, x1))"):
        f = F.parse_formula(text)
        g = codec.encode_formula(f)
        strips, products = [], []
        monkeypatch.setattr(codec, "_strip_prime", _counted(codec._strip_prime, strips))
        monkeypatch.setattr(codec, "_product", _counted(codec._product, products))
        assert codec.decode_formula(g) == f
        monkeypatch.undo()
        assert 0 < len(strips) <= 100
        assert products == [([codec.nth_prime(i) for i in range(5, 2002)],)]


def test_a_run_that_ends_the_code_is_found_at_each_candidate_end():
    # the guess c is the longest run with (p_4 ... p_{4+c-1})^9 <= g, here
    # found exactly; the tail's weight puts the run's true end at c or 1,
    # 2 or 3 primes below it, where it is found, or 4 below, where it is
    # not, nor when three tokens follow the run
    for after, below in (([8], 0), ([10], 1), ([8, 13], 2), ([14, 14], 3), ([20, 20], 4),
                         ([8, 13, 14], None)):
        tokens = [4, 13] + [9] * 300 + after
        g = codec.encode_tokens(tokens) // codec.encode_tokens(tokens[:4])
        c, power = 0, 1
        while power * codec.nth_prime(4 + c) ** 9 <= g:
            power *= codec.nth_prime(4 + c) ** 9
            c += 1
        if below is not None:
            assert c - 298 == below
        found = below is not None and below < 4
        assert codec._run_end(g, 4, 9, [0.0]) == (298 if found else 0)
        assert codec.decode_tokens(codec.encode_tokens(tokens)) == tokens


@pytest.mark.parametrize("broken", [0, 8, 10])
def test_a_wrong_guess_of_the_run_end_is_refuted(broken, monkeypatch):
    # an end is taken only under an exact division and a quotient prime to
    # the run's primes.  Guessed over a run whose last prime is broken, it
    # is refuted, and the block search reads the run.  The tail's one
    # prime puts the quotient at 0 (for a gap), 1 (for 8, refuted by the
    # remainder alone) or a multiple of the last prime (for 10, refuted by
    # the gcd alone).
    tokens = [4, 13] + [9] * 599 + [broken, 1]
    monkeypatch.setattr(codec, "_run_end", lambda g, i, t, sums: 602 - i)
    g = codec.encode_tokens(tokens)
    assert _outcome(codec.decode_tokens, g) == _outcome(_referee_decode_tokens, g)


# --- numeric substitution ----------------------------------------------


def test_sub_and_diag_agree_on_their_overlap():
    # diag on the code of formula #n equals sub of n at that same code;
    # compared exactly at the run-length level since the numbers have
    # millions of digits
    entries = codec.unary_formulas_below(10**20)
    for n, (code, _) in enumerate(entries):
        assert codec.diag_num_rle(code).runs == codec.sub_num_rle(n, code).runs


def test_diag_num_small_case_exact():
    g = 51_018_336  # Dem(x0)
    # Dem applied to the numeral of g: tokens 5, then g nines, then 8
    rle = codec.diag_num_rle(g)
    assert rle.runs == ((5, 1), (9, g), (8, 1))
    with pytest.raises(ResourceBound):
        rle.to_int()  # 51 million tokens is past the materialization bound


def test_diag_num_requires_unary_decoding():
    with pytest.raises(NotUnary):
        codec.diag_num(41_006_250_000)  # Eq(0,0) is closed, not unary


def test_sub_num_on_rebinding_formula_falls_back_symbolically(monkeypatch):
    # a unary formula that additionally binds x0; its code (hence its
    # index) is astronomically large, so route the index lookup directly
    f = F.parse_formula("(forall x0. Dem(x0)) -> Dem(x0)")
    assert F.free_vars(f) == {0}
    monkeypatch.setattr(codec, "formula_at", lambda n, cache=None: f)
    direct = codec.encode_formula(F.substitute(f, 0, F.Num(5)))
    assert codec.sub_num(0, 5) == direct
