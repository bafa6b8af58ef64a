import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import wml.words
from wml.errors import ParseError
from wml.words import Word, commutator, cyclic_key, free_reduce, is_balanced, parse


def letters_strategy(rank=2, max_len=12):
    letter = st.sampled_from(
        [g for g in range(1, rank + 1)] + [-g for g in range(1, rank + 1)]
    )
    return st.lists(letter, max_size=max_len)


def all_reduced_words(rank, max_len):
    """Every freely reduced word over the given rank up to max_len letters."""
    alphabet = [g for g in range(1, rank + 1)] + [-g for g in range(1, rank + 1)]
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for a in alphabet:
                if w and w[-1] == -a:
                    continue
                nxt.append(w + (a,))
        words.extend(nxt)
        frontier = nxt
    return [Word(w, rank) for w in words]


class TestParsing:
    def test_commutator(self):
        assert parse("[x,y]", 2) == Word([1, 2, -1, -2], 2)

    def test_free_reduction_to_identity(self):
        assert parse("xX", 1).is_identity()

    def test_commutator_cube(self):
        w = parse("[x,y]^3", 2)
        assert len(w) == 12
        assert w == parse("[x,y]", 2) ** 3

    def test_indexed_generators(self):
        assert parse("x1 x2 X1", 2) == Word([1, 2, -1], 2)
        assert parse("x3^-1", 3) == Word([-3], 3)

    def test_single_letter_alphabet_order(self):
        # x, y, z are generators 1, 2, 3; then a, b, c, ...
        assert parse("z", 3) == Word([3], 3)
        assert parse("a", 4) == Word([4], 4)

    def test_powers_and_parens(self):
        assert parse("(xy)^2", 2) == Word([1, 2, 1, 2], 2)
        assert parse("x^-3", 1) == Word([-1, -1, -1], 1)
        assert parse("x^2 y^-1", 2) == Word([1, 1, -2], 2)

    def test_commutator_matches_the_product(self):
        # every pair of reduced words of rank 2 with at most 3 letters,
        # cancelling into each other in every way
        words = all_reduced_words(2, 3)
        for u in words:
            for v in words:
                c = commutator(u, v)
                assert c == u * v * ~u * ~v
                assert c.letters == free_reduce(c.letters)
        with pytest.raises(ValueError):
            commutator(Word([1], 1), Word([2], 2))

    def test_nested_commutator(self):
        w = parse("[[x,y],x]", 2)
        c = commutator(commutator(Word([1], 2), Word([2], 2)), Word([1], 2))
        assert w == c

    def test_rank_violation(self):
        with pytest.raises(ParseError):
            parse("y", 1)
        with pytest.raises(ParseError):
            parse("x5", 4)

    @pytest.mark.parametrize("text", ["1", "x", "[x,y]"])
    def test_negative_rank_refused(self, text):
        with pytest.raises(ValueError, match="rank must be at least 0"):
            parse(text, -1)

    def test_negative_rank_word_refused(self):
        with pytest.raises(ValueError, match="rank must be at least 0, "
                                             "got -3"):
            Word((), -3)

    @pytest.mark.parametrize("text", ["1", "x", "[x,y]"])
    def test_rank_above_max_refused(self, text):
        with pytest.raises(ValueError, match="rank must be at most 10000"):
            parse(text, wml.words.MAX_RANK + 1)

    def test_rank_above_max_word_refused(self):
        with pytest.raises(ValueError, match="rank must be at most 10000, "
                                             "got 1000000"):
            Word((), 10 ** 6)

    @pytest.mark.parametrize("rank", [*range(13), 10_000])
    def test_ranks_up_to_max_valid(self, rank):
        assert wml.words.MAX_RANK == 10_000
        assert parse("1", rank).rank == Word((), rank).rank == rank
        if rank:
            assert parse(f"x{rank}", rank).letters == (rank,)

    def test_syntax_errors_carry_position(self):
        with pytest.raises(ParseError) as exc:
            parse("x^", 1)
        assert exc.value.position is not None
        with pytest.raises(ParseError):
            parse("[x y]", 2)
        with pytest.raises(ParseError):
            parse("(x", 1)
        with pytest.raises(ParseError):
            parse("", 1)
        # the malformed inputs of the benchmark's cli corpus, at rank 2
        for text, message, position in [
            ("[x,y", "expected ']'", 4),
            ("x^", "expected an integer", 2),
            ("((x)", "expected ')'", 4),
            ("[x,,y]", "empty word expression", 3),
            ("x!y", "unexpected character '!'", 1),
            ("z", "generator x3 exceeds rank 2", 0),
            ("x^- 1", "expected an integer", 2),
            ("x^" + "9" * 5000, "number longer than 640 digits", 2),
            ("x" + "9" * 5000, "number longer than 640 digits", 1),
            ("x^\u00b2", "expected an integer", 2),
            ("x^\u0663", "expected an integer", 2),
            ("x\u0663", "unexpected character '\u0663'", 1),
        ]:
            with pytest.raises(ParseError) as exc:
                parse(text, 2)
            assert exc.value.position == position, text
            assert str(exc.value) == f"{message} (at position {position})"

    def test_digit_runs(self):
        # leading zeros do not count against the digit bound, and a run at
        # the bound converts before the length bound judges it
        assert parse("x^" + "0" * 5000 + "2", 2) == parse("x^2", 2)
        assert parse("x" + "0" * 5000 + "2", 2) == parse("y", 2)
        assert parse("1^" + "9" * 640, 2).is_identity()
        assert parse("(x X)^-99999999999999999999", 2).is_identity()
        with pytest.raises(ParseError) as exc:
            parse("x^-" + "9" * 640, 2)
        assert str(exc.value) == \
            "word longer than 1000000 letters (at position 2)"
        with pytest.raises(ParseError) as exc:
            parse("1^-" + "9" * 641, 2)
        assert str(exc.value) == \
            "number longer than 640 digits (at position 3)"

    def test_nesting_bound(self):
        # every '(' and '[' counts one level; a level past MAX_NESTING is a
        # parse error at its bracket, never a recursion overflow
        assert wml.words.MAX_NESTING == 100

        def parens(depth):
            return "(" * depth + "x" + ")" * depth

        def commutators(depth):
            text = "x"
            for _ in range(depth):
                text = f"[{text},y]"
            return text

        assert parse(parens(100), 2) == parse("x", 2)
        assert parse("(" * 90 + commutators(10) + ")" * 90, 2) == \
            parse(commutators(10), 2)
        for text in [parens(101), parens(1200), commutators(101),
                     commutators(400), "(" * 90 + commutators(11) + ")" * 90]:
            with pytest.raises(ParseError) as exc:
                parse(text, 2)
            assert str(exc.value) == \
                "nesting deeper than 100 brackets (at position 100)"
        # closing a bracket frees its level
        assert parse(parens(100) + parens(100), 2) == parse("x^2", 2)

    def test_length_bound(self, monkeypatch):
        # powers, products and commutators are checked before they are
        # spelled, at the position of the exponent, factor or bracket
        monkeypatch.setattr(wml.words, "MAX_WORD_LENGTH", 10)
        for text in ["x^10", "(x y)^-5", "x^6 y^4", "[x^2,y^3]"]:
            assert len(parse(text, 2)) == 10
        for text, position in [("x^11", 2), ("x^-11", 2), ("(x y)^6", 6),
                               ("x^6 y^5", 4), ("[x^3,y^3]", 0),
                               ("x [x^2,y^3]", 2)]:
            with pytest.raises(ParseError) as exc:
                parse(text, 2)
            assert str(exc.value) == \
                f"word longer than 10 letters (at position {position})"

    def test_products_reduce_in_linear_time(self, monkeypatch):
        # each factor cancels only at its junction with the product so far,
        # so the letters sent through free_reduce stay linear in the text
        expected = Word((1, 2) * 10000, 2)
        reduced = []

        def counting_free_reduce(letters):
            reduced.append(len(letters))
            return free_reduce(letters)

        monkeypatch.setattr(wml.words, "free_reduce", counting_free_reduce)
        assert parse("xy" * 10000, 2) == expected
        assert sum(reduced) <= 3 * 20000

    def test_commutators_reduce_in_linear_time(self, monkeypatch):
        # [u,v] cancels only where u, v, u^-1 and v^-1 meet: only the
        # power itself goes through free_reduce
        reduced = []

        def counting_free_reduce(letters):
            reduced.append(len(letters))
            return free_reduce(letters)

        monkeypatch.setattr(wml.words, "free_reduce", counting_free_reduce)
        w = parse("[x^5000,y]", 2)
        assert w.letters == (1,) * 5000 + (2,) + (-1,) * 5000 + (-2,)
        assert sum(reduced) < 2 * 5000

    def test_huge_power_refused_before_it_is_built(self):
        # 10^8 letters would take about 2.3 GB; a syntax error after the
        # power must not build it either
        tracemalloc.start()
        try:
            for text in ["x^100000000", "x^100000000 !"]:
                with pytest.raises(ParseError) as exc:
                    parse(text, 1)
                assert str(exc.value) == \
                    "word longer than 1000000 letters (at position 2)"
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20

    def test_printed_forms_pinned(self):
        for text, printed in [
            ("1", "1"),
            ("x^-1", "x1^-1"),
            ("(x^2 Y)^-2", "x2 x1^-2 x2 x1^-2"),
            ("[[x,y],[y,x^2]]",
             "x1 x2 x1 x2^-1 x1^-2 x2 x1 x2^-1 x1 x2 x1^-2 x2^-1"),
        ]:
            assert str(parse(text, 2)) == printed

    @given(letters_strategy(rank=3))
    def test_roundtrip_print_parse(self, letters):
        w = Word(letters, 3)
        assert parse(str(w), 3) == w


class TestReduction:
    @given(letters_strategy())
    def test_reduce_idempotent(self, letters):
        once = free_reduce(letters)
        assert free_reduce(once) == once

    @given(letters_strategy(), letters_strategy())
    def test_product_length_subadditive(self, a, b):
        u, v = Word(a, 2), Word(b, 2)
        assert len(u * v) <= len(u) + len(v)

    @given(letters_strategy())
    def test_inverse_cancels(self, letters):
        w = Word(letters, 2)
        assert (w * ~w).is_identity()
        assert (~w * w).is_identity()


class TestCyclicReduce:
    def test_conjugate(self):
        w = parse("x y X", 2)
        core, conj = w.cyclic_reduce()
        assert core == Word([2], 2)
        assert conj == Word([1], 2)
        assert conj * core * ~conj == w

    def test_already_reduced(self):
        w = parse("[x,y]", 2)
        core, conj = w.cyclic_reduce()
        assert core == w and conj.is_identity()

    def test_identity(self):
        core, conj = Word.identity(2).cyclic_reduce()
        assert core.is_identity() and conj.is_identity()

    def test_minimal_in_conjugacy_class(self):
        # brute force over conjugators of length <= 3
        conjugators = all_reduced_words(2, 3)
        for w in all_reduced_words(2, 5):
            core, conj = w.cyclic_reduce()
            assert conj * core * ~conj == w
            for c in conjugators:
                assert len(~c * w * c) >= len(core)

    def test_slices_are_not_reduced_again(self, monkeypatch):
        # the core and the conjugator are slices of a reduced word within
        # the rank, so neither is sent through free_reduce again
        w = parse("[x^1000,y]", 2)
        conjugate = parse("y", 2) * w * parse("Y", 2)
        reduced = []

        def counting_free_reduce(letters):
            reduced.append(len(letters))
            return free_reduce(letters)

        monkeypatch.setattr(wml.words, "free_reduce", counting_free_reduce)
        core, conj = w.cyclic_reduce()
        assert (core.letters, conj.letters) == (w.letters, ())
        core, conj = conjugate.cyclic_reduce()
        assert (core.letters, conj.letters) == (w.letters, (2,))
        assert sum(reduced) == 0


class TestProperPower:
    def test_square(self):
        ok, root, d = parse("x^2", 1).is_proper_power()
        assert ok and root == parse("x", 1) and d == 2

    def test_commutator_cube(self):
        ok, root, d = parse("[x,y]^3", 2).is_proper_power()
        assert ok and root == parse("[x,y]", 2) and d == 3

    def test_commutator_is_not_power(self):
        ok, root, d = parse("[x,y]", 2).is_proper_power()
        assert not ok and root == parse("[x,y]", 2) and d == 1

    def test_conjugated_power(self):
        w = parse("y x^2 Y", 2)
        ok, root, d = w.is_proper_power()
        assert ok and d == 2 and root == parse("y x Y", 2)
        assert root ** d == w

    def test_identity_is_not_proper_power(self):
        ok, _, d = Word.identity(2).is_proper_power()
        assert not ok and d == 1

    def test_against_brute_force(self):
        for w in all_reduced_words(2, 8):
            core, conj = w.cyclic_reduce()
            n = len(core)
            expect = False
            for p in range(1, n):
                if n % p:
                    continue
                u = conj * Word(core.letters[:p], 2) * ~conj
                if u ** (n // p) == w:
                    expect = True
                    break
            got, root, d = w.is_proper_power()
            assert got == expect
            assert root ** d == w
            if got:
                assert d >= 2

    def test_matches_divisor_scan(self):
        # the least period agrees with trying every divisor period, on
        # seeded random periodic words, conjugated or not
        rng = random.Random(12)
        for _ in range(300):
            rank = rng.randint(1, 3)
            root = Word([rng.choice((1, -1)) * rng.randint(1, rank)
                         for _ in range(rng.randint(1, 6))], rank)
            conj = Word([rng.choice((1, -1)) * rng.randint(1, rank)
                         for _ in range(rng.randint(0, 4))], rank)
            w = conj * root ** rng.randint(1, 6) * ~conj
            assert w.is_proper_power() == divisor_scan_power(w), w


def divisor_scan_power(w):
    """Reference: the least divisor p of the cyclic core length whose
    p-periodic extension is the core."""
    core, conj = w.cyclic_reduce()
    c = core.letters
    n = len(c)
    for p in range(1, n):
        if n % p == 0 and all(c[i] == c[i % p] for i in range(n)):
            return True, conj * Word(c[:p], w.rank) * ~conj, n // p
    return False, w, 1


class TestBalance:
    def test_commutator_balanced(self):
        ok, _ = is_balanced([parse("[x,y]", 2)])
        assert ok

    def test_single_generator(self):
        ok, totals = is_balanced([parse("x", 2)])
        assert not ok and totals[1] == 1

    @given(letters_strategy())
    def test_word_with_inverse(self, letters):
        w = Word(letters, 2)
        ok, _ = is_balanced([w, ~w])
        assert ok


class TestCanonicalKey:
    def test_conjugates_share_core(self):
        w = parse("[x,y]", 2)
        u = parse("y", 2) * w * parse("Y", 2)
        assert w.canonical_key().split("|")[1] == u.canonical_key().split("|")[1]
        assert w.canonical_key() != u.canonical_key()

    def test_distinct_words_distinct_keys(self):
        seen = {}
        for w in all_reduced_words(2, 4):
            key = w.canonical_key()
            assert key not in seen or seen[key] == w
            seen[key] = w

    def test_keys_pinned(self):
        # the keys name the CLI's cache files, so they may not move: every
        # reduced rank-2 word up to length 6, and some long periodic words
        words = all_reduced_words(2, 6) + [parse(text, 2) for text in [
            "[x,y]^7", "y [x,y]^5 Y", "(xxy)^20", "x^100", "X (xyxY)^9 x",
            "(xyXYx)^6 y"]]
        keys = "\n".join(w.canonical_key() for w in words)
        assert len(words) == 1463
        assert hashlib.sha256(keys.encode()).hexdigest() == \
            "7d439f4376529dfd31cebb33b43d9e7376bf9a0f43750d8a56d0bc62465132ed"


class TestCyclicKey:
    def test_identity(self):
        assert cyclic_key(()) == ()
        assert cyclic_key([1, 2, -2, -1]) == ()

    def test_one_key_per_conjugacy_class(self):
        # brute force: the key is the least rotation of the cyclic core,
        # shared by every conjugate and by unreduced spellings
        conjugators = all_reduced_words(2, 2)
        for w in all_reduced_words(2, 5):
            key = cyclic_key(w.letters)
            core = w.cyclic_reduce()[0].letters
            assert key == min((core[i:] + core[:i]
                               for i in range(len(core))), default=())
            for c in conjugators:
                assert cyclic_key((c * w * ~c).letters) == key
                assert cyclic_key(c.letters + w.letters + (~c).letters) \
                    == key

    def test_distinguishes_classes(self):
        assert cyclic_key(parse("x y", 2).letters) != \
            cyclic_key(parse("x Y", 2).letters)
        assert cyclic_key(parse("x^2 y", 2).letters) == (1, 1, 2)

    def test_long_word_in_linear_memory(self):
        # building every rotation of x y^4000 held about 122 MiB
        letters = (1,) + (2,) * 4000
        tracemalloc.start()
        try:
            key = cyclic_key(letters)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert key == letters
        assert peak < 5 * 2 ** 20


def reference_least_rotation(c):
    """The first index of a least rotation, by comparing all rotations."""
    return min(range(len(c)), key=lambda i: c[i:] + c[:i]) if c else 0


def reference_least_period(c):
    """The least p > 0 whose rotation fixes c, by trying each; 0 for ()."""
    return next((p for p in range(1, len(c) + 1) if c[p:] + c[:p] == c), 0)


def cyclically_reduced_tuples(rank, max_len):
    """Every cyclically reduced letter tuple of rank ``rank`` with 1 to
    ``max_len`` letters."""
    alphabet = [*range(1, rank + 1), *range(-rank, 0)]
    layer = [()]
    for _ in range(max_len):
        layer = [w + (a,) for w in layer for a in alphabet
                 if not w or w[-1] != -a]
        yield from (w for w in layer if w[0] != -w[-1])


class TestLeastRotation:
    def test_matches_reference_on_random_words(self):
        rng = random.Random(7)
        for _ in range(2000):
            c = tuple(rng.choice((1, -1, 2, -2, 3))
                      for _ in range(rng.randint(0, 16)))
            k, p = wml.words._least_rotation(c)
            assert k == reference_least_rotation(c)
            assert p == reference_least_period(c)

    def test_periodic_words_give_the_first_least_index(self):
        rng = random.Random(11)
        for _ in range(2000):
            base = tuple(rng.choice((1, -1, 2, -2))
                         for _ in range(rng.randint(1, 5)))
            c = base * rng.randint(2, 5)
            k = rng.randrange(len(c))
            c = c[k:] + c[:k]
            k, p = wml.words._least_rotation(c)
            assert k == reference_least_rotation(c)
            assert p == reference_least_period(c)

    @pytest.mark.parametrize("rank, max_len", [(2, 9), (3, 6)])
    def test_every_small_cyclic_word(self, rank, max_len):
        # the scan against all rotations, and is_proper_power against the
        # root and exponent that the least period spells
        for c in cyclically_reduced_tuples(rank, max_len):
            n = len(c)
            rotations = [c[i:] + c[:i] for i in range(n)]
            period = next((i for i in range(1, n) if rotations[i] == c), n)
            assert wml.words._least_rotation(c) == \
                (rotations.index(min(rotations)), period), c
            w = Word(c, rank)
            ok, root, d = w.is_proper_power()
            assert (ok, d) == (period < n, n // period), c
            assert root == (Word(c[:period], rank) if ok else w), c


def test_module_doctests():
    import doctest

    import wml.words

    result = doctest.testmod(wml.words)
    assert result.failed == 0 and result.attempted > 0


class TestPowers:
    @given(letters_strategy(max_len=6), st.integers(min_value=-4, max_value=4))
    def test_power_matches_repeated_product(self, letters, k):
        w = Word(letters, 2)
        expected = Word.identity(2)
        for _ in range(abs(k)):
            expected = expected * (w if k > 0 else ~w)
        assert w ** k == expected


def reference_syllables(w):
    """The runs of w as the hand-written loop found them, letter by letter."""
    runs = []
    for a in w.letters:
        g = abs(a)
        e = 1 if a > 0 else -1
        if runs and runs[-1][0] == g and (runs[-1][1] > 0) == (e > 0):
            runs[-1][1] += e
        else:
            runs.append([g, e])
    return [(g, e) for g, e in runs]


def reference_abelianization(w):
    """The exponent totals of w, one letter at a time."""
    totals = [0] * w.rank
    for a in w.letters:
        totals[abs(a) - 1] += 1 if a > 0 else -1
    return tuple(totals)


def checked_canonical_key(w):
    """``w.canonical_key()`` with every piece built by the checking
    constructor."""
    core, conj = w.cyclic_reduce()
    c = core.letters
    if not c:
        return "|"
    k = reference_least_rotation(c)
    rot = Word(c[k:] + c[:k], w.rank)
    return f"{Word(conj.letters + c[:k], w.rank)}|{rot}"


class TestDerivedWords:
    """Products, inverses, roots and key pieces are built unchecked; each
    equals the word the checking constructor builds from the same
    letters."""

    @staticmethod
    def seeded_words(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            rank = rng.randint(1, 4)

            def letters(most):
                return [rng.choice((1, -1)) * rng.randint(1, rank)
                        for _ in range(rng.randint(0, most))]

            root, conj = Word(letters(6), rank), Word(letters(4), rank)
            yield (Word(letters(12), rank), Word(letters(12), rank),
                   conj * root ** rng.randint(1, 5) * ~conj)

    def test_products_and_inverses_match_checked_builds(self):
        for u, v, _ in self.seeded_words(31, 500):
            assert u * v == Word(u.letters + v.letters, u.rank)
            assert ~u == Word([-a for a in reversed(u.letters)], u.rank)
            # the unchecked builds hold tuples, as the constructor's do
            assert type((u * v).letters) is type((~u).letters) is tuple

    def test_roots_and_keys_match_checked_builds(self):
        for u, v, w in self.seeded_words(32, 500):
            for word in (u, v, w):
                got = word.is_proper_power()
                assert got == divisor_scan_power(word), word
                power, root, d = got
                if power:
                    core, conj = word.cyclic_reduce()
                    p = len(core) // d
                    inverse = [-a for a in reversed(conj.letters)]
                    assert root == Word(conj.letters + core.letters[:p]
                                        + tuple(inverse), word.rank)
                assert word.canonical_key() == checked_canonical_key(word)

    def test_products_and_inverses_reduce_nothing(self, monkeypatch):
        # a product cancels only at its junction and an inverse is reduced
        # as it stands: no letter goes through free_reduce
        u = parse("[x^5000,y] x^300", 2)
        v = parse("x^-300 [y,x^5000]", 2)
        reduced = []

        def counting_free_reduce(letters):
            reduced.append(len(letters))
            return free_reduce(letters)

        monkeypatch.setattr(wml.words, "free_reduce", counting_free_reduce)
        assert (u * v).is_identity()
        assert ~u == v
        assert len(u * u) == 2 * len(u)
        assert sum(reduced) == 0

    def test_syllables_and_abelianization_match_letter_loops(self):
        for u, v, w in self.seeded_words(33, 500):
            for word in (u, v, w, u * v):
                assert word.syllables() == reference_syllables(word), word
                assert word.abelianization() == \
                    reference_abelianization(word), word
        long = parse("[x^4999,y] z^-7 x1 x4^3", 4)
        assert long.syllables() == reference_syllables(long)
        assert long.abelianization() == reference_abelianization(long) == \
            (1, 0, -7, 3)
