import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from wml.errors import UndecidedError, capped_product
from wml.partitions import (
    cycle_type,
    dimension,
    murnaghan_nakayama,
    partitions_of,
    schur_dim,
    z_order,
)
from wml.ratfunc import Polynomial, RationalFunction, laurent
from wml.weingarten import (
    TraceMonomial,
    _close_last_generator,
    _integrate_letter,
    _rewirings,
    _split_at,
    _wg_over_common_denominator,
    expansion_prediction,
    moment,
    stable_inner_product,
    verify_word,
    wg,
    word_moment,
)
from wml.words import Word, cyclic_key, is_balanced, parse

ONE = RationalFunction(1)
N = RationalFunction.n_power(1)


def rf(num, den=(1,)):
    return RationalFunction(Polynomial(num), Polynomial(den))


class TestWeingartenFunction:
    def test_p1(self):
        assert wg((1,)) == ONE / N

    def test_p2_identity(self):
        assert wg((1, 1)) == rf((1,), (-1, 0, 1))  # 1/(n^2-1)

    def test_p2_transposition(self):
        assert wg((2,)) == rf((-1,), (0, -1, 0, 1))  # -1/(n(n^2-1))

    def test_n_min(self):
        assert wg((1, 1, 1)).n_min == 3

    def test_p3_table(self):
        # denominators factor as n(n^2-1)(n^2-4)
        assert wg((1, 1, 1)) == rf((-2, 0, 1), (0, 4, 0, -5, 0, 1))
        assert wg((2, 1)) == rf((-1,), (4, 0, -5, 0, 1))
        assert wg((3,)) == rf((2,), (0, 4, 0, -5, 0, 1))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_gram_inverse(self, p):
        # The defining property: Wg is the inverse of the Gram matrix
        # G(sigma, tau) = n^{cycles(sigma^-1 tau)} on S_p.
        perms = list(permutations(range(p)))

        def compose(a, b):
            return tuple(a[b[i]] for i in range(p))

        def invert(a):
            out = [0] * p
            for i, v in enumerate(a):
                out[v] = i
            return tuple(out)

        for sigma in perms:
            for pi in perms:
                total = RationalFunction(0)
                for tau in perms:
                    gram = RationalFunction.n_power(
                        len(cycle_type(compose(invert(sigma), tau)))
                    )
                    total = total + gram * wg(cycle_type(compose(invert(tau), pi)))
                expected = ONE if sigma == pi else RationalFunction(0)
                assert total == expected

    def test_gram_inverse_p4_identity_row(self):
        # G and Wg are class functions, so (G Wg)(sigma, pi) depends only on
        # sigma^-1 pi: the row sigma = e checks every entry
        perms = list(permutations(range(4)))

        def compose(a, b):
            return tuple(a[b[i]] for i in range(4))

        def invert(a):
            out = [0] * 4
            for i, v in enumerate(a):
                out[v] = i
            return tuple(out)

        for pi in perms:
            total = RationalFunction(0)
            for tau in perms:
                gram = RationalFunction.n_power(len(cycle_type(tau)))
                total = total + gram * wg(cycle_type(compose(invert(tau), pi)))
            assert total == (ONE if pi == (0, 1, 2, 3) else RationalFunction(0))

    @pytest.mark.parametrize("p", range(1, 7))
    def test_schur_character_sum(self, p):
        # the oracle: (1/p!^2) sum_lam dim(lam)^2 chi^lam(t) / s_lam(1^n)
        for t in partitions_of(p):
            total = RationalFunction(0)
            for lam in partitions_of(p):
                d = dimension(lam)
                total = total + RationalFunction(
                    d * d * murnaghan_nakayama(lam, t)) / schur_dim(lam)
            expected = total / (math.factorial(p) ** 2)
            assert wg(t) == expected and wg(t).n_min == p

    @pytest.mark.parametrize("p", range(1, 8))
    def test_common_denominator(self, p):
        # D_p = p! prod_c (n + c)^{m_c}: the cells of content c of a
        # partition lie on one diagonal, so the most there are is the
        # largest k whose k x (k + |c|) rectangle has at most p cells
        q = Polynomial.const(math.factorial(p))
        for c in range(1 - p, p):
            k = 0
            while (k + 1) * (k + 1 + abs(c)) <= p:
                k += 1
            for _ in range(k):
                q = q * Polynomial((c, 1))
        den, numerators = _wg_over_common_denominator(p)
        assert den == q
        assert sorted(numerators) == sorted(partitions_of(p))
        for t, num in numerators.items():
            assert RationalFunction(num, den) == wg(t)

    @pytest.mark.parametrize("p", [1, 3, 5])
    def test_table_reads_wg_once_per_cycle_type(self, monkeypatch, p):
        # perfbench's ``weingarten.pair_terms`` counts calls to the module
        # global ``wg``, so the table must read each weight through it
        import wml.weingarten

        calls = []

        def counting_wg(t):
            calls.append(t)
            return wg(t)

        monkeypatch.setattr(wml.weingarten, "wg", counting_wg)
        _wg_over_common_denominator.__wrapped__(p)
        assert sorted(calls) == sorted(partitions_of(p))


class TestStableInnerProduct:
    def test_xi1_ximinus1_with_1(self):
        assert stable_inner_product(TraceMonomial((1, -1)), TraceMonomial()) == 1

    def test_xi1_xi1(self):
        assert stable_inner_product(TraceMonomial((1,)), TraceMonomial((1,))) == 1

    def test_xi2_ximinus2_with_1(self):
        assert stable_inner_product(TraceMonomial((2, -2)), TraceMonomial()) == 2

    def test_mismatch_vanishes(self):
        assert stable_inner_product(TraceMonomial((1,)), TraceMonomial()) == 0
        assert stable_inner_product(TraceMonomial((2,)), TraceMonomial((1, 1))) == 0

    def test_multiplicities(self):
        # <xi_1^2 xi_-1^2, 1> = 2! = 2 ; <xi_2^2 xi_-2^2, 1> = 2! * 2^2 = 8
        assert stable_inner_product(TraceMonomial((1, 1, -1, -1)), TraceMonomial()) == 2
        assert stable_inner_product(TraceMonomial((2, 2, -2, -2)), TraceMonomial()) == 8


class TestWordMoment:
    def test_unbalanced_vanishes(self):
        assert word_moment([parse("x", 2)]).is_zero()
        assert moment(parse("x^2 y^2", 2), (1,)).is_zero()

    def test_commutator_trace(self):
        assert moment(parse("[x,y]", 2), (1,)) == ONE / N

    def test_diaconis_shahshahani(self):
        x = parse("x", 1)
        assert moment(x, (1, -1)) == ONE
        assert moment(x, (2, -2)) == RationalFunction(2)
        assert moment(x, (1, 1, -1, -1)) == RationalFunction(2)
        assert moment(x, (2, -1, -1)).is_zero()

    def test_trace_of_identity(self):
        # tr(w w^-1) = tr(I) = n
        assert word_moment([parse("xX", 1)]) == N
        assert word_moment([Word.identity(2), Word.identity(2)]) == \
            RationalFunction.n_power(2)

    def test_empty_product(self):
        assert word_moment([]) == ONE
        assert moment(parse("[x,y]", 2), ()) == ONE

    def test_single_letter_forced_pair_sum_matches_closed_form(self):
        # the recursive pair-sum rewiring must reproduce the one-matrix
        # orthogonality values it normally shortcut-evaluates
        x = parse("x", 1)
        cases = [
            ([x, ~x], ONE),
            ([x ** 2, (~x) ** 2], RationalFunction(2)),
            ([x, x, ~x, ~x], RationalFunction(2)),
            ([x ** 2, ~x, ~x], RationalFunction(0)),
            ([x ** 3, (~x) ** 3], RationalFunction(3)),
        ]
        for words, expected in cases:
            got = word_moment(words, force_pair_sum=True)
            assert got == expected, f"{[str(w) for w in words]}: {got} != {expected}"

    def test_two_letter_forced_pair_sum_agrees(self):
        for text, exps in [("[x,y]", (1,)), ("[x,y]", (1, -1)), ("[x,y^2]", (1,))]:
            w = parse(text, 2)
            words = [w ** m for m in exps]
            assert word_moment(words, force_pair_sum=True) == word_moment(words)

    def test_n_min_is_max_occurrence_count(self):
        w = parse("[x,y^2]", 2)
        f = moment(w, (1, -1))
        assert f.n_min == 4  # y appears 4 times with each sign in (w, w^-1)

    def test_term_cap(self):
        w = parse("[x,y]", 2)
        with pytest.raises(UndecidedError):
            moment(w, (1, -1), term_cap=1)

    def test_cap_messages(self):
        # a count that str() can write is quoted in full; a longer one is
        # not multiplied out, and the message gives a bound instead
        w = parse("[x,y]", 2)
        with pytest.raises(UndecidedError) as exc:
            moment(w, (500,))
        assert str(exc.value) == f"pair sum for generator 1 needs " \
            f"{math.factorial(500) ** 2} terms, over the cap"
        with pytest.raises(UndecidedError) as exc:
            moment(w, (1000,))
        assert str(exc.value) == \
            "pair sum for generator 1 needs at least 10^4300 terms, over the cap"

    def test_moments_pinned(self):
        # sha256 of the serialized moments and their Laurent series,
        # recorded before unused library code was deleted
        import hashlib
        import json

        digest = hashlib.sha256()
        for text, rank, exps in [
            ("[x,y]", 2, (1,)), ("[x,y]", 2, (2, -1)), ("[x,y]", 2, (1, -1)),
            ("[x,y]", 2, (3,)), ("[y,x]", 2, (2,)),
            ("[x,y][x,z]", 3, (1, -1)), ("x^2y^2x^-2y^-2", 2, (1,)),
            ("x y X", 2, (1,)), ("1", 2, (1, -2)),
        ]:
            f = moment(parse(text, rank), exps)
            digest.update(json.dumps([f.serialize(), laurent(f, 4).serialize()])
                          .encode() + b"\n")
        for texts in (["x", "X", "1"], ["1", "1"], ["x y", "Y X"]):
            f = word_moment([parse(t, 2) for t in texts])
            digest.update(json.dumps([f.serialize(), laurent(f, 4).serialize()])
                          .encode() + b"\n")
        assert digest.hexdigest() == \
            "7e7679cf0d434362299bebc6ebe544a7922f2c4f9f88dd0eaf9fb0c5e3f3dc6c"

    def test_cap_names_the_first_of_tied_generators(self):
        # generators are integrated in order of their letter counts, ties
        # in order of their first positive letter: y comes before x in
        # [y,x] and before z in [y,x][z,x], so y's pair sum hits the cap
        for text, rank, p in [("[y,x]", 2, 500), ("[y,x][z,x]", 3, 300)]:
            with pytest.raises(UndecidedError) as exc:
                moment(parse(text, rank), (p,))
            assert str(exc.value) == f"pair sum for generator 2 needs " \
                f"{math.factorial(p) ** 2} terms, over the cap"

    def test_long_power_refused_before_it_is_built(self):
        w = parse("[x,y]", 2)
        for exponents in [(250001,), (1, -250001), (10 ** 5000,)]:
            with pytest.raises(ValueError) as exc:
                moment(w, exponents)
            assert str(exc.value) == "word power longer than 1000000 letters"

    def test_capped_product_bound(self):
        # counts of up to 4300 digits are kept; past that, only a larger
        # cap keeps multiplying
        assert capped_product([10 ** 4300 - 1], 0) == 10 ** 4300 - 1
        assert capped_product([10 ** 4300], 0) is None
        assert capped_product([10 ** 4300], 10 ** 4301) == 10 ** 4300
        assert capped_product([], 0) == 1


class TestIntegratorConsistency:
    def test_random_collections_both_paths_agree(self):
        # the closed-form final step must match the raw pair-sum on random
        # balanced collections over two generators
        import random

        rng = random.Random(2024)
        trials = 0
        while trials < 12:
            letters = [rng.choice([1, 2, -1, -2])
                       for _ in range(rng.randint(1, 5))]
            w = Word(letters, 2)
            if w.is_identity():
                continue
            exps = rng.choice([(1, -1), (2, -2), (1, 1, -1, -1), (2, -1, -1)])
            words = [w ** m for m in exps]
            balanced_total = sum(len(u) for u in words)
            if balanced_total > 20:
                continue
            trials += 1
            fast = word_moment(words)
            slow = word_moment(words, force_pair_sum=True)
            assert fast == slow, (str(w), exps)

    def test_circle_group_specialization(self):
        # over U(1) every trace is a phase, so any balanced collection
        # integrates to exactly 1; check whenever the result is valid at 1
        for text, exps in [("x", (1, -1)), ("[x,y]", (1,)),
                           ("x y", (1, -1)), ("x y X Y x y X Y", (1,))]:
            w = parse(text, 2)
            f = moment(w, exps)
            if f.n_min == 1:
                assert f.evaluate(1) == 1, (text, exps)


def rf_json(num, n_min=1):
    return {"num_coeffs": num, "den_coeffs": [1], "n_min": n_min}


class TestEdgeCollections:
    # no pair sum at all, identity words, or a single generator: the values
    # and validity bounds below were read before the closing step became
    # one path, and the forced pair sum must give the same bytes
    X = parse("x", 1)

    @pytest.mark.parametrize("words, expected", [
        ([], rf_json([1])),
        ([Word.identity(2)] * 3, rf_json([0, 0, 0, 1])),
        ([Word.identity(0)], rf_json([0, 1])),
        ([X ** 3, X ** -3], rf_json([3], 3)),
        ([X, X, ~X, ~X], rf_json([2], 2)),
        ([X ** 2, ~X, ~X], rf_json([], 2)),
        ([X ** 2, X ** -2, Word.identity(1)], rf_json([0, 2], 2)),
    ])
    def test_pinned(self, words, expected):
        fast = word_moment(words)
        forced = word_moment(words, force_pair_sum=True)
        assert fast.serialize() == expected
        assert forced.serialize() == expected
        assert fast == forced


def reference_integrate_letter(monomial, gen):
    """Integrate out ``gen`` with one wg(type) * n^loops term per (sigma, tau)
    pair, summed as rational functions: the reference for the tallied sum."""
    active = [cw for cw in monomial if any(abs(a) == gen for a in cw)]
    passthrough = [cw for cw in monomial if cw not in active]
    occ = [(w, i) for w, cw in enumerate(active)
           for i, a in enumerate(cw) if abs(a) == gen]
    pos = [o for o in occ if active[o[0]][o[1]] > 0]
    neg = [o for o in occ if active[o[0]][o[1]] < 0]
    p = len(pos)
    if p != len(neg):
        return {}

    def next_occ(o):
        w, i = o
        k = (i + 1) % len(active[w])
        while abs(active[w][k]) != gen:
            k = (k + 1) % len(active[w])
        return (w, k)

    def segment(o):
        (w, i), (_, j) = o, next_occ(o)
        cw = active[w]
        return cw[i + 1:j] if j > i else cw[i + 1:] + cw[:j]

    out = {}
    for sigma in permutations(range(p)):
        for tau in permutations(range(p)):
            # the strand arriving at positive i leaves from negative sigma(i);
            # the one arriving at negative tau(i) leaves from positive i
            jump = {pos[i]: neg[sigma[i]] for i in range(p)}
            jump.update({neg[tau[i]]: pos[i] for i in range(p)})
            words, loops, seen = list(passthrough), 0, set()
            for start in occ:
                if start in seen:
                    continue
                letters, cur = [], start
                while cur not in seen:
                    seen.add(cur)
                    letters += segment(cur)
                    cur = jump[next_occ(cur)]
                key = cyclic_key(letters)
                if not key:
                    loops += 1
                else:
                    words.append(key)
            weight = wg(cycle_type(tuple(tau.index(sigma[i]) for i in range(p))))
            key = tuple(sorted(words))
            out[key] = out.get(key, RationalFunction(0)) + \
                weight * RationalFunction.n_power(loops)
    return out


class TestTalliedPairSum:
    @pytest.mark.parametrize("monomial", [
        ((1, 2, -1, -2),),  # [x,y], p = 1
        ((1, 2, -1, -2), (1, 2, -1, -2)),  # p = 2 over two words
        ((1, 2), (-2, -1)),  # closes loops
        ((1, 2), (-1, 3), (1, -3, -1, -2)),  # mixed: p = 2 over three words
        ((1, 2, -1, -2), (-3, -2), (2, 3)),  # passthrough words
        ((1, 2, -1, -2) * 3,),  # [x,y]^3, p = 3
        ((1, 1, 1, 2, -1, -1, -1, -2),),  # p = 3 in one block
        ((1, 2, -1, -2), (3, -1, -1, 2, 1, -3, 1), (2, 4)),  # mixed, p = 3
        ((1, 2, -1, -2) * 4,),  # [x,y]^4, p = 4: many tau per class
        ((1, 2, -1, -2) * 2, (2, 1, -2, -1) * 2),  # p = 4 over two words
        ((1, 3, -1, 2), (1, -2, -1, -3), (1, 1, -1, -1)),  # mixed, p = 4
    ])
    def test_matches_per_pair_reference(self, monomial):
        got = _integrate_letter(monomial, 1, [10 ** 6])
        expected = reference_integrate_letter(monomial, 1)
        assert got == expected
        assert {k: v.n_min for k, v in got.items()} == \
            {k: v.n_min for k, v in expected.items()}


def power_sum_moment(exponents):
    """E[prod_k tr(U^{e_k})] over Haar U(n), n large: the centralizer order
    prod_k m_k! k^{m_k} when the positive exponents and the negated
    negative ones form the same multiset, each k occurring m_k times, and
    0 otherwise."""
    positive = Counter(e for e in exponents if e > 0)
    if positive != Counter(-e for e in exponents if e < 0):
        return 0
    return math.prod(math.factorial(m) * k ** m for k, m in positive.items())


def reference_close_last_generator(monomial, gen, final):
    """Integrate out ``gen`` with one term per (sigma, tau) pair, as
    :func:`reference_integrate_letter` does, then ``final`` from each
    rewired monomial by power-sum orthogonality: the reference for the
    closing step, built without chains or classes of tau."""
    total = RationalFunction(0)
    for words, coeff in reference_integrate_letter(monomial, gen).items():
        sums = []
        for cw in words:
            assert all(abs(a) == final for a in cw)
            sums.append(sum(1 if a > 0 else -1 for a in cw))
        total = total + coeff * power_sum_moment(sums)
    return total


class TestRewiringClasses:
    # the pairs run as one rho loop per class of tau, each result counted
    # once per tau in the class: over any input the counts cover all p!^2
    @pytest.mark.parametrize("p", range(1, 6))
    def test_counts_sum_to_all_pairs(self, p):
        rng = random.Random(p)
        for _ in range(4):
            arrive = list(range(2 * p))
            rng.shuffle(arrive)
            letters = [tuple(rng.choice((2, -2, 3))
                             for _ in range(rng.randint(0, 2)))
                       for _ in range(2 * p)]
            sums = [rng.randint(-1, 1) for _ in range(2 * p)]
            for strands in (letters, sums, [()] * (2 * p), [0] * (2 * p)):
                total = sum(c for _, _, c in _rewirings(arrive, strands))
                assert total == math.factorial(p) ** 2, (arrive, strands)

    @pytest.mark.parametrize("monomial", [
        ((1, 2, -1, -2) * 5,),
        ((1, 2, -1, -2) * 3, (2, 1, -2, -1) * 2),
        ((1, 1, 2, -1, -1, -2), (1, 3, -1, -3), (1, 1, 1, -1, -1, -1)),
    ])
    def test_counts_sum_to_all_pairs_on_monomials(self, monomial):
        passthrough, segments, arrive = _split_at(monomial, 1, [10 ** 6])
        p = len(arrive) // 2
        sums = [sum(1 if a > 0 else -1 for a in seg) for seg in segments]
        for strands in (segments, sums):
            total = sum(c for _, _, c in _rewirings(arrive, strands))
            assert total == math.factorial(p) ** 2


class TestReducedOverCommonDenominator:
    # each pair sum's coefficients are quotients over D_p, whose factors are
    # known: they are put in canonical form with no polynomial gcd
    @pytest.mark.parametrize("monomial", [
        ((1, 2, -1, -2),),
        ((1, 2), (-2, -1)),
        ((1, 2, -1, -2) * 3,),
        ((1, 2, -1, -2) * 4,),
        ((1, 2, -1, -2) * 2, (2, 1, -2, -1) * 2),
        ((1, 1, 1, 1, 2, -1, -1, -1, -1, -2),),
    ])
    def test_pair_sums_take_no_gcd(self, monkeypatch, monomial):
        import wml.ratfunc

        calls = []
        gcd = wml.ratfunc.poly_gcd
        monkeypatch.setattr(wml.ratfunc, "poly_gcd",
                            lambda a, b: calls.append((a, b)) or gcd(a, b))
        values = list(_integrate_letter(monomial, 1, [10 ** 6]).values())
        values.append(_close_last_generator(monomial, 1, 2, [10 ** 6]))
        assert calls == []
        for v in values:
            reduced = RationalFunction(v.num, v.den, v.n_min)
            assert v.serialize() == reduced.serialize()


class TestClosedLastGenerator:
    # the last pair sum is closed with integer strand sums; the general
    # rewiring of every generator must give the same bytes
    @pytest.mark.parametrize("text, rank, exps", [
        ("[x,y]", 2, (4,)),
        ("[x,y]", 2, (2, -2)),
        ("[x,y]", 2, (2, -1, -1)),
        ("[x,[x,y]]", 2, (1, -1)),
        ("x^2y^2x^-2y^-2", 2, (1, -1)),
        ("[x,y][x,z]", 3, (1, -1)),
    ])
    def test_matches_forced_pair_sum(self, text, rank, exps):
        w = parse(text, rank)
        words = [w ** m for m in exps]
        assert word_moment(words).serialize() == \
            word_moment(words, force_pair_sum=True).serialize()

    @pytest.mark.parametrize("monomial", [
        ((1, 2, -1, -2),),
        ((1, 2, -1, -2) * 2,),
        ((1, 2, -1, -2) * 4,),  # [x,y]^2 at T = (2,): many tau per class
        ((1, 2, -1, -2) * 2, (2, 1, -2, -1) * 2),  # [x,y]^2 at T = (2, -2)
        ((1, 2), (-1, -2)),  # closes loops
        ((1, 1, 2, -1, -1, -2),),
        ((1, 2, 2, -1, -2, -2), (2,), (-2,)),  # passthrough words
        ((1, 2), (1, 2), (-1, -2), (-1, -2)),
        ((1, 2, 1, 2, -1, -1, -2, -2), (1, -2, -1, 2)),  # p = 3
        ((1, 1, 1, 1, 2, -1, -1, -1, -1, -2),),  # p = 4 in one block
    ])
    def test_matches_per_pair_reference(self, monomial):
        got = _close_last_generator(monomial, 1, 2, [10 ** 6])
        expected = reference_close_last_generator(monomial, 1, 2)
        assert got == expected
        if not got.is_zero():
            assert got.n_min == expected.n_min

    def test_pinned_six_occurrence_moments(self):
        # p = 6 on x, closed with y; read before the rho loop ran once per
        # class of tau
        expected = {
            "num_coeffs": [-272160, 0, 137160, 0, -91200, 0, 83814, 0,
                           -25923, 0, 3234, 0, -168, 0, 3],
            "den_coeffs": [0, 0, 14400, 0, -35476, 0, 28721, 0, -8668, 0,
                           1078, 0, -56, 0, 1],
            "n_min": 6,
        }
        assert moment(parse("[x,y]", 2), (3, -3)).serialize() == expected
        assert moment(parse("[x,y]^3", 2), (1, -1)).serialize() == expected

    def test_pinned_value_past_the_forced_cap(self):
        # forcing the pair sum on y (p = 8) would take 8!^2 pairs, so the
        # value the general rewiring gave before the closed path is pinned
        f = moment(parse("[x,y^2]", 2), (2, -2))
        assert f.serialize() == {
            "num_coeffs": [1344, 0, 80, 0, 106, 0, -28, 0, 2],
            "den_coeffs": [0, 0, -36, 0, 49, 0, -14, 0, 1],
            "n_min": 8,
        }

    def test_term_cap_boundary(self):
        # [x,y]^3 closes x (p = 3) with y: 3!^2 = 36 pairs
        w = parse("[x,y]", 2)
        with pytest.raises(UndecidedError) as exc:
            moment(w, (3,), term_cap=35)
        assert str(exc.value) == \
            "pair sum for generator 1 needs 36 terms, over the cap"
        assert moment(w, (3,), term_cap=36) == moment(w, (3,))

    def test_term_cap_charged_per_monomial(self):
        # y (p = 2) is integrated first, then z is closed on each of the
        # two monomials that leaves: 4 + 4 + 4 pairs
        w = parse("[x,y][x,z]", 3)
        with pytest.raises(UndecidedError) as exc:
            moment(w, (1, -1), term_cap=11)
        assert str(exc.value) == \
            "pair sum for generator 3 needs 4 terms, over the cap"
        assert moment(w, (1, -1), term_cap=12) == moment(w, (1, -1))

    def test_early_returns_charge_nothing(self):
        budget = [0]
        # unbalanced in the closed generator: the integral vanishes
        assert _close_last_generator(((1, 2), (2, -1, -1)), 1, 2,
                                     budget).is_zero()
        # the closed generator no longer occurs: tr(y^2) tr(y^-2) = 2
        assert _close_last_generator(((2, 2), (-2, -2)), 1, 2, budget) == \
            RationalFunction(2)
        assert budget == [0]
        with pytest.raises(UndecidedError):
            _close_last_generator(((1, 2, -1, -2),), 1, 2, budget)


def littlewood_richardson(alpha, gamma, delta):
    """c^alpha_{gamma delta} from characters of S_|gamma| x S_|delta|:
    sum over cycle types rho1, rho2 of chi^gamma(rho1) chi^delta(rho2)
    chi^alpha(rho1 u rho2) / (z_rho1 z_rho2)."""
    total = Fraction(0)
    for rho1 in partitions_of(sum(gamma)):
        for rho2 in partitions_of(sum(delta)):
            union = tuple(sorted(rho1 + rho2, reverse=True))
            total += Fraction(murnaghan_nakayama(gamma, rho1)
                              * murnaghan_nakayama(delta, rho2)
                              * murnaghan_nakayama(alpha, union),
                              z_order(rho1) * z_order(rho2))
    return total


def weyl_dimension(delta, eps, n):
    """Dimension of the irreducible [delta, eps] of U(n), of highest weight
    (delta, 0, ..., 0, -eps reversed), by Weyl's formula
    prod_{i<j} (l_i - l_j + j - i) / (j - i)."""
    weight = [*delta, *[0] * (n - len(delta) - len(eps)),
              *(-e for e in reversed(eps))]
    num = den = 1
    for i, j in combinations(range(n), 2):
        if weight[i] != weight[j]:
            num *= weight[i] - weight[j] + j - i
            den *= j - i
    return num // den


def character_expansion(exponents, genus):
    """E[prod_m tr W^m] for W = [x1,y1]...[xg,yg], as a function of an
    integer n at least the sum of |m|.

    With mu the positive and nu the negated negative exponents,
    p_mu(x) p_nu(xbar) = sum_{alpha, beta} chi^alpha(mu) chi^beta(nu)
    s_alpha(x) s_beta(xbar), and by Koike's rule (Adv. Math. 74, 1989)
    s_alpha(x) s_beta(xbar) = sum c^alpha_{gamma delta} c^beta_{gamma eps}
    chi_[delta, eps] once n >= l(alpha) + l(beta).  Frobenius-Mednykh gives
    E[chi(W)] = 1 / dim(chi)^(2g - 1) for every irreducible chi of U(n).
    """
    mu = tuple(sorted((m for m in exponents if m > 0), reverse=True))
    nu = tuple(sorted((-m for m in exponents if m < 0), reverse=True))
    a, b = sum(mu), sum(nu)
    weights = Counter()  # [delta, eps] -> its multiplicity in p_mu p_nu
    for alpha in partitions_of(a):
        for beta in partitions_of(b):
            chi = murnaghan_nakayama(alpha, mu) * murnaghan_nakayama(beta, nu)
            for k in range(min(a, b) + 1):
                for gamma, delta, eps in product(partitions_of(k),
                                                 partitions_of(a - k),
                                                 partitions_of(b - k)):
                    weights[delta, eps] += (
                        chi * littlewood_richardson(alpha, gamma, delta)
                        * littlewood_richardson(beta, gamma, eps))

    def at(n):
        if n < a + b:
            raise ValueError(f"Koike's rule needs n >= {a + b}, got {n}")
        return sum(Fraction(c) / weyl_dimension(delta, eps, n)
                   ** (2 * genus - 1) for (delta, eps), c in weights.items())
    return at


def assert_matches_character_expansion(text, rank, genus, exponents):
    """``moment`` agrees with the oracle at more integers n than twice its
    degree D = max(deg num, deg den), where no other rational function of
    degree at most D does."""
    f = moment(parse(text, rank), exponents)
    expected = character_expansion(exponents, genus)
    degree = max(f.num.degree, f.den.degree)
    start = max(f.n_min, sum(map(abs, exponents)))
    for n in range(start, start + 2 * degree + 2):
        assert f.evaluate(n) == expected(n), n


# every trace monomial with sum |m_i| <= 5: the positive exponents, then the
# negative ones, each a partition in weakly decreasing order of |m_i|
SMALL_MONOMIALS = [
    alpha + tuple(-b for b in beta)
    for total in range(1, 6) for a in range(total + 1)
    for alpha in partitions_of(a) for beta in partitions_of(total - a)
]


class TestCharacterExpansionOracle:
    @pytest.mark.parametrize("text, rank, genus, m", [
        *[("[x,y]", 2, 1, m) for m in range(1, 8)],
        *[("[x1,x2][x3,x4]", 4, 2, m) for m in (1, 2)],
    ])
    def test_surface_word_power_trace(self, text, rank, genus, m):
        assert_matches_character_expansion(text, rank, genus, (m,))

    @pytest.mark.parametrize("text, rank, genus, exponents", [
        *[("[x,y]", 2, 1, t) for t in (*SMALL_MONOMIALS, (3, -3))],
        ("[x1,x2][x3,x4]", 4, 2, (1, -1)),
    ], ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else None)
    def test_surface_word_mixed_moment(self, text, rank, genus, exponents):
        assert_matches_character_expansion(text, rank, genus, exponents)

    def test_weyl_dimension(self):
        # [lam, ()] has dimension s_lam(1^n); [(1), (1)] is the adjoint
        for n in range(2, 8):
            for lam in partitions_of(4):
                if len(lam) <= n:
                    assert weyl_dimension(lam, (), n) == \
                        schur_dim(lam).evaluate(n)
            assert weyl_dimension((1,), (1,), n) == n * n - 1


class TestMomentInvariances:
    def test_cyclic_rotation(self):
        w = parse("[x,y]", 2)
        for rot in (parse(t, 2) for t in ("x y X Y", "y X Y x", "X Y x y",
                                          "Y x y X")):
            assert moment(rot, (1,)) == moment(w, (1,))
            assert moment(rot, (1, -1)) == moment(w, (1, -1))

    def test_generator_relabeling(self):
        w = parse("[x,y]", 2)
        v = parse("[y,x]", 2)  # swap x <-> y composed with inverse-orbit
        assert moment(w, (1,)) == moment(v, (1,))

    def test_inversion(self):
        for text in ["[x,y]", "[x,y^2]"]:
            w = parse(text, 2)
            assert moment(w, (1,)) == moment(~w, (1,))
            assert moment(w, (-1,)) == moment(w, (1,))

    def test_conjugation(self):
        w = parse("[x,y]", 2)
        c = parse("y x", 2)
        assert moment(c * w * ~c, (1,)) == moment(w, (1,))

    def test_automorphism_invariance(self):
        # the measure only depends on the automorphism orbit of the word,
        # so applying Whitehead moves must not change any moment
        from wml.whitehead import type_ii_autos

        def apply(table, word):
            return Word([x for a in word.letters for x in table[a]], 2)

        w = parse("[x,y^2]", 2)
        base_tr = moment(w, (1,))
        base_pair = moment(w, (1, -1))
        images = []
        for table in type_ii_autos(2)[:6]:
            images.append(apply(table, w))
        for table in type_ii_autos(2)[6:9]:
            images.append(apply(table, images[0]))
        for image in images:
            assert moment(image, (1,)) == base_tr, str(image)
            assert moment(image, (1, -1)) == base_pair, str(image)


class TestTheoremOrders:
    def test_commutator_exact_frobenius(self):
        f = moment(parse("[x,y]", 2), (1,))
        assert f == ONE / N
        s = laurent(f, 3)
        assert s.e0 == -1 and s.coeffs[0] == 1

    def test_xi1_ximinus1_bound(self):
        # E_w[xi_1 xi_-1] - 1 has order <= 2(1 - pi(w)) = -2 for w = [x,y]
        f = moment(parse("[x,y]", 2), (1, -1))
        diff = f - ONE
        assert not diff.is_zero()
        assert diff.laurent_order <= -2

    def test_first_order_bound_on_corpus(self):
        # order of E_w[T] - <T,1> is <= 1 - pi(w) = -1 for these words
        for text in ["[x,y]", "[x,y^2]"]:
            w = parse(text, 2)
            for exps in [(1,), (-1,), (1, -1), (2, -2)]:
                f = moment(w, exps)
                c = stable_inner_product(TraceMonomial(exps), TraceMonomial())
                diff = f - RationalFunction(c)
                if not diff.is_zero():
                    assert diff.laurent_order <= -1, (text, exps)


class TestExpansionPrediction:
    def test_commutator_trace(self):
        pred = expansion_prediction(parse("[x,y]", 2), (1,), 2, 1)
        assert pred["constant"] == 0
        assert pred["second_coefficient"] == 1
        assert pred["second_exponent"] == -1
        assert pred["remainder_exponent"] == -2

    def test_cross_terms_vanish(self):
        pred = expansion_prediction(parse("[x,y]", 2), (1, -1), 2, 1)
        assert pred["constant"] == 1
        assert pred["second_coefficient"] == 0

    def test_rejects_proper_powers(self):
        with pytest.raises(ValueError):
            expansion_prediction(parse("x^2", 1), (1,), 1, 0)

    def test_rejects_trivial_word(self):
        # the expansion is stated for w != 1; pi(1) = 0 would make nonsense
        with pytest.raises(ValueError, match="nontrivial"):
            expansion_prediction(parse("1", 2), (1,), 0, 0)

    def test_infinite_pi(self):
        pred = expansion_prediction(parse("x", 2), (1, -1), float("inf"), 0)
        assert pred == {
            "constant": 1,
            "second_coefficient": 0,
            "second_exponent": None,
            "remainder_exponent": None,
        }


def laurent_rows(e0, coeffs):
    return [{"exponent": e0 - k, "coefficient": [c, 1]}
            for k, c in enumerate(coeffs)]


class TestVerifyWord:
    # the rows ``wml verify "[x,y]" -T 1 -T 1,-1`` prints
    COMMUTATOR_ROWS = [
        {
            "word": "x1 x2 x1^-1 x2^-1", "exponents": [1], "pi": 2,
            "comm_crit_count": 1,
            "rational": {"num_coeffs": [1], "den_coeffs": [0, 1], "n_min": 1},
            "display": "1 / n", "laurent": laurent_rows(-1, [1, 0, 0, 0, 0]),
            "constant_term": 0, "first_order_bound_passed": True,
            "two_term_expansion": {
                "predicted_constant": 0, "predicted_second_coefficient": 1,
                "second_exponent": -1, "remainder_exponent_bound": -2,
                "passed": True,
            },
            "trace_pair_bound": None,
        },
        {
            "word": "x1 x2 x1^-1 x2^-1", "exponents": [1, -1], "pi": 2,
            "comm_crit_count": 1,
            "rational": {"num_coeffs": [0, 0, 1], "den_coeffs": [-1, 0, 1],
                         "n_min": 2},
            "display": "n^2 / (n^2 - 1)",
            "laurent": laurent_rows(0, [1, 0, 1, 0, 1]),
            "constant_term": 1, "first_order_bound_passed": True,
            "two_term_expansion": {
                "predicted_constant": 1, "predicted_second_coefficient": 0,
                "second_exponent": -1, "remainder_exponent_bound": -2,
                "passed": True,
            },
            "trace_pair_bound": {"bound_exponent": -2, "passed": True},
        },
    ]

    def test_commutator_rows(self):
        rows = verify_word(parse("[x,y]", 2), [(1,), (1, -1)], 2, 1)
        assert rows == self.COMMUTATOR_ROWS

    def test_wrong_comm_crit_count_fails_expansion(self):
        # E[tr [x,y]] = 1/n, but a count of 2 predicts 2/n
        (row,) = verify_word(parse("[x,y]", 2), [(1,)], 2, 2)
        assert row["first_order_bound_passed"]
        assert row["two_term_expansion"]["predicted_second_coefficient"] == 2
        assert row["two_term_expansion"]["passed"] is False

    def test_wrong_infinite_pi_fails(self):
        # an infinite pi predicts E[tr [x,y]] = 0 exactly
        (row,) = verify_word(parse("[x,y]", 2), [(1,)], math.inf, 0)
        assert row["pi"] == "inf"
        assert row["first_order_bound_passed"] is False
        assert row["two_term_expansion"]["passed"] is False
        assert len(row["laurent"]) == 5

    def test_rejects_trivial_word(self):
        with pytest.raises(ValueError, match="nontrivial"):
            verify_word(parse("1", 2), [(1,), (1, -1)], 0, 0)

    def test_primitive_word(self):
        (row,) = verify_word(parse("x", 2), [(1, -1)], math.inf, 0)
        assert row["first_order_bound_passed"]
        assert row["two_term_expansion"]["passed"]
        assert row["trace_pair_bound"] == {"bound_exponent": None,
                                           "passed": True}


# The eight (word, rank, exponents) cases of the benchmark's ``moments``
# workload, pair sizes p = 1..4.
MOMENT_CORPUS = (
    ("[x,y]", 2, (1,)), ("[x,y]", 2, (3,)), ("[x1,x2][x3,x4]", 4, (2,)),
    ("[x,y]", 2, (2, -2)), ("[x,y]", 2, (4,)), ("[x,y]", 2, (2, -1, -1)),
    ("[x,[x,y]]", 2, (1, -1)), ("x^2y^2x^-2y^-2", 2, (1, -1)),
)

PIN_EXPONENTS = ((1,), (2,), (3,), (1, -1), (1, 1), (2, -1), (2, -2),
                 (1, -2), (1, 1, -1), (1, -1, 1, -1))


def pinned_moment_cases():
    """The ``moments`` corpus, then 150 seeded (word, exponents) pairs of
    ranks 2-3 and lengths 1-6 whose pair sizes are at most 4."""
    cases = [(parse(text, rank), exps) for text, rank, exps in MOMENT_CORPUS]
    rng = random.Random(30)
    while len(cases) < len(MOMENT_CORPUS) + 150:
        rank, length = rng.randint(2, 3), rng.randint(1, 6)
        letters = []
        while len(letters) < length:
            a = rng.choice((1, -1)) * rng.randint(1, rank)
            if not letters or a != -letters[-1]:
                letters.append(a)
        w, exps = Word(letters, rank), rng.choice(PIN_EXPONENTS)
        counts = is_balanced([w ** m for m in exps])[1]
        if max(counts.values(), default=0) <= 4:
            cases.append((w, exps))
    return cases


PINNED_MOMENTS = \
    "8ebf5e7106d139f481fc4a6653707cf6841ce0fceadb3b86d5f11dc6e29568a6"
PINNED_WEINGARTEN = \
    "628e8cb36c4d790973b2af3d8dfcb4f19cddac91fb058ea61f1bb1570d1eb73d"


class TestExactPins:
    # recorded before the Weingarten quotients were reduced by cancelling
    # linear factors and the Laurent expansion divided in integers: the
    # canonical form is unique, so neither may change a byte

    def test_moments_pinned(self):
        digest = hashlib.sha256()
        for w, exps in pinned_moment_cases():
            f = moment(w, exps)
            digest.update(json.dumps([str(w), exps, f.serialize(),
                                      laurent(f, 6).serialize(), str(f)])
                          .encode() + b"\n")
        assert digest.hexdigest() == PINNED_MOMENTS

    def test_weingarten_pinned(self):
        digest = hashlib.sha256()
        for p in range(1, 8):
            for t in partitions_of(p):
                digest.update(json.dumps([t, wg(t).serialize(), str(wg(t))])
                              .encode() + b"\n")
            den, numerators = _wg_over_common_denominator(p)
            table = sorted((t, a.coeffs) for t, a in numerators.items())
            digest.update(json.dumps([den.coeffs, table]).encode() + b"\n")
        assert digest.hexdigest() == PINNED_WEINGARTEN
