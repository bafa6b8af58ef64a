import random
from itertools import permutations, product
from math import gcd

import pytest

import wml.whitehead
from wml.errors import UndecidedError
from wml.whitehead import (
    _core_in_rank,
    _minimal_core,
    _whitehead_certificate,
    in_proper_free_factor,
    is_primitive,
    minimize,
    orbit_equivalent,
    type_i_canonical,
    type_ii_autos,
)
from wml.words import Word, cyclic_core, cyclic_key, parse


def random_word(rng, rank=2, max_len=8):
    letters = [
        rng.choice([g for g in range(1, rank + 1)] + [-g for g in range(1, rank + 1)])
        for _ in range(rng.randint(0, max_len))
    ]
    return Word(letters, rank)


class ReferenceTypeII:
    """Whitehead automorphism (A, a): a in A, -a not in A, applied to a
    whole word.  The reference the automorphism tables are checked against.

    On a generator x (positive letter, |x| != |a|):
      x in A only      -> x a
      -x in A only     -> a^-1 x
      x and -x in A    -> a^-1 x a
      neither          -> x
    and a maps to itself.
    """

    def __init__(self, letters, multiplier):
        self.letters = letters
        self.multiplier = multiplier

    def image_of_generator(self, g):
        a = self.multiplier
        if g == abs(a):
            return (g,)
        pre = (-a,) if -g in self.letters else ()
        post = (a,) if g in self.letters else ()
        return pre + (g,) + post

    def apply(self, w):
        out = []
        for letter in w.letters:
            image = self.image_of_generator(abs(letter))
            if letter < 0:
                image = tuple(-x for x in reversed(image))
            out.extend(image)
        return Word(out, w.rank)


def reference_autos(rank):
    """Every nontrivial second-kind automorphism, in the library's order."""
    signed = [g for g in range(1, rank + 1)] + [-g for g in range(1, rank + 1)]
    out = []
    for a in signed:
        others = [x for x in signed if x != a and x != -a]
        for bits in product((False, True), repeat=len(others)):
            chosen = frozenset(
                [a] + [x for x, keep in zip(others, bits) if keep]
            )
            if len(chosen) > 1:
                out.append(ReferenceTypeII(chosen, a))
    return out


def reference_minimize(w, rank):
    """Greedy Whitehead minimization on whole words: the first automorphism
    (in library order) that shortens the cyclic core is taken, then the scan
    restarts."""
    autos = reference_autos(rank)
    current, _ = w.cyclic_reduce()
    improved = True
    while improved and len(current) > 0:
        improved = False
        for auto in autos:
            core, _ = auto.apply(current).cyclic_reduce()
            if len(core) < len(current):
                current = core
                improved = True
                break
    return current


def reference_type_i_canonical(letters):
    """The least cyclic key over all u! * 2^u relabelings of the u
    generators of ``letters`` onto 1..u with signs: the enumeration the
    greedy key is checked against."""
    used = sorted({abs(a) for a in letters})
    relabelings = (
        {g: (i + 1) * sign for i, (g, sign) in enumerate(zip(perm, signs))}
        for perm in permutations(used)
        for signs in product((1, -1), repeat=len(used))
    )
    return min(cyclic_key(tuple(to[a] if a > 0 else -to[-a] for a in letters))
               for to in relabelings)


def apply_table(images, w):
    """The image of a word under an automorphism table."""
    return Word([x for a in w.letters for x in images[a]], w.rank)


def inverse_table(images):
    """The inverse (A - a + a^-1, a^-1) of a Whitehead automorphism: every
    letter an image adds around its own generator changes sign."""
    n = len(images)
    return tuple(
        image and tuple(x if abs(x) in (i, n - i) else -x for x in image)
        for i, image in enumerate(images)
    )


class TestTypeII:
    def test_identity_excluded(self):
        for images in type_ii_autos(2):
            assert any(images[g] != (g,) for g in (1, 2))

    def test_counts(self):
        # 2k choices of multiplier, 2^(2k-2) admissible sets, minus identities
        assert len(type_ii_autos(1)) == 0
        assert len(type_ii_autos(2)) == 4 * 4 - 4

    def test_inverse_on_generators(self):
        rng = random.Random(1)
        for images in type_ii_autos(2):
            inv = inverse_table(images)
            for _ in range(5):
                w = random_word(rng)
                assert apply_table(inv, apply_table(images, w)) == w
                assert apply_table(images, apply_table(inv, w)) == w

    def test_is_homomorphism(self):
        rng = random.Random(2)
        for images in type_ii_autos(3)[::7]:
            for _ in range(5):
                u = random_word(rng, rank=3)
                v = random_word(rng, rank=3)
                assert apply_table(images, u * v) == \
                    apply_table(images, u) * apply_table(images, v)

    def test_tables_match_reference(self):
        rng = random.Random(11)
        for rank in (2, 3, 4):
            tables = type_ii_autos(rank)
            references = reference_autos(rank)
            assert len(tables) == len(references)
            for images, auto in zip(tables, references):
                for _ in range(3):
                    w = random_word(rng, rank=rank)
                    assert apply_table(images, w) == auto.apply(w)


class TestTypeI:
    def test_preserves_length_and_orbit(self):
        # every permutation of the generators composed with inversions
        rng = random.Random(3)
        for perm in permutations((1, 2)):
            for signs in product((1, -1), repeat=2):
                images = [p * s for p, s in zip(perm, signs)]
                for _ in range(4):
                    w = random_word(rng)
                    image = Word([images[abs(a) - 1] * (1 if a > 0 else -1)
                                  for a in w.letters], 2)
                    assert len(image) == len(w)
                    if not w.is_identity():
                        assert orbit_equivalent(w, image, 2)


class TestMinimize:
    def test_primitive_product(self):
        minimal = minimize(parse("x y", 2), 2)
        assert len(minimal) == 1

    def test_commutator_already_minimal(self):
        minimal = minimize(parse("[x,y]", 2), 2)
        assert len(minimal) == 4

    def test_rank_one(self):
        minimal = minimize(parse("x", 1), 1)
        assert minimal == parse("x", 1)

    def test_never_increases(self):
        rng = random.Random(4)
        for _ in range(30):
            w = random_word(rng)
            core, _ = w.cyclic_reduce()
            assert len(minimize(w, 2)) <= len(core)

    def test_matches_reference(self):
        rng = random.Random(12)
        for rank, count in ((2, 40), (3, 25), (4, 10)):
            for _ in range(count):
                w = random_word(rng, rank=rank, max_len=10)
                assert minimize(w, rank) == reference_minimize(w, rank), str(w)

    def test_rejects_letters_above_rank(self):
        # a rank-2 table has no image for x3
        for check in (minimize, is_primitive, in_proper_free_factor):
            with pytest.raises(ValueError):
                check(parse("x y z", 3), 2)
            with pytest.raises(ValueError):
                check(parse("x^2 z^2", 3), 2)

    def test_core_in_rank_refuses_letters_above_a_smaller_rank(self):
        # a word's letters lie within its own rank, so only a smaller
        # requested rank can find one outside it
        w = parse("y x^2 z^-1 Y", 3)
        for rank in (1, 2):
            with pytest.raises(ValueError) as exc:
                _core_in_rank(w, rank)
            assert str(exc.value) == \
                f"x2 x1^2 x3^-1 x2^-1 has letters outside rank {rank}"
        assert _core_in_rank(parse("y x^2 Y", 3), 2) == (1, 1)
        for rank in (3, 4):
            assert _core_in_rank(w, rank) == (1, 1, -3)

    def test_search_builds_at_most_one_word(self, monkeypatch):
        # the search runs on letter tuples; only the returned word is a Word
        built = []

        def counting_word(letters, rank):
            built.append(tuple(letters))
            return Word(letters, rank)

        monkeypatch.setattr(wml.whitehead, "Word", counting_word)
        assert not is_primitive(parse("[x1,x2][x3,x4]", 4), 4)
        assert len(built) <= 1


class TestPrimitivity:
    def test_generator(self):
        assert is_primitive(parse("x", 2), 2)

    def test_commutator_not_primitive(self):
        assert not is_primitive(parse("[x,y]", 2), 2)

    def test_x2y2_not_primitive(self):
        assert not is_primitive(parse("x^2 y^2", 2), 2)

    def test_identity_not_primitive(self):
        assert not is_primitive(Word((), 2), 2)

    def test_conjugate_of_generator(self):
        assert is_primitive(parse("y x Y", 2), 2)

    def test_nielsen_image(self):
        # (xy, y) is a basis, so xy is primitive
        assert is_primitive(parse("x y", 2), 2)
        assert is_primitive(parse("x y^3", 2), 2)

    def test_search_runs_in_the_factor_of_the_letters_used(self):
        # every reduced word of length <= 5 over one or two generators of
        # F_3 or F_4: the answer is the one of the full-rank search
        from test_words import all_reduced_words
        for rank, used in [(3, (1, 3)), (3, (2,)), (4, (2, 4))]:
            for w in all_reduced_words(len(used), 5):
                to = dict(zip(range(1, len(used) + 1), used))
                v = Word([to[a] if a > 0 else -to[-a] for a in w.letters],
                         rank)
                core = cyclic_core(v.letters)
                assert is_primitive(v, rank) == \
                    (bool(core) and len(_minimal_core(core, rank)) == 1), \
                    str(v)

    def test_abelianization_obstruction(self):
        # gcd of the exponent vector must be 1 for a primitive element;
        # independent sanity bound on the corpus
        rng = random.Random(9)
        for _ in range(40):
            w = random_word(rng)
            if w.is_identity():
                continue
            ab = w.abelianization()
            g = gcd(abs(ab[0]), abs(ab[1]))
            if is_primitive(w, 2):
                assert g == 1 or ab == (0, 0) and False


class TestProperFreeFactor:
    def test_generator_in_factor(self):
        assert in_proper_free_factor(parse("x", 2), 2)

    def test_commutator_not_in_factor(self):
        assert not in_proper_free_factor(parse("[x,y]", 2), 2)

    def test_x2y2_not_in_factor(self):
        assert not in_proper_free_factor(parse("x^2 y^2", 2), 2)

    def test_power_of_generator(self):
        assert in_proper_free_factor(parse("x^3", 2), 2)

    def test_rank_one(self):
        assert not in_proper_free_factor(parse("x^2", 1), 1)

    def test_primitive_implies_factor(self):
        rng = random.Random(6)
        for _ in range(25):
            w = random_word(rng)
            if w.is_identity():
                continue
            if is_primitive(w, 2):
                assert in_proper_free_factor(w, 2)

    def test_cap_raises(self):
        with pytest.raises(UndecidedError):
            in_proper_free_factor(parse("[x,y]", 2), 2, orbit_cap=0)

    def test_cap_message_names_the_word(self):
        # the word as given, not its minimal form
        for text, rank, cap, printed in [
            ("y [x,y] Y", 2, 0, "x2 x1 x2 x1^-1 x2^-2"),
            ("z [x,y][x,z] Z", 3, 3,
             "x3 x1 x2 x1^-1 x2^-1 x1 x3 x1^-1 x3^-2"),
        ]:
            with pytest.raises(UndecidedError) as exc:
                in_proper_free_factor(parse(text, rank), rank, orbit_cap=cap)
            assert str(exc.value) == \
                f"orbit level of {printed} exceeds the cap {cap}"


class TestOrbitEquivalence:
    def test_commutator_swap(self):
        assert orbit_equivalent(parse("[x,y]", 2), parse("[y,x]", 2), 2)

    def test_commutator_vs_x2y2(self):
        assert not orbit_equivalent(parse("[x,y]", 2), parse("x^2 y^2", 2), 2)

    def test_primitives(self):
        assert orbit_equivalent(parse("x", 2), parse("x y", 2), 2)

    def test_reflexive_and_symmetric(self):
        rng = random.Random(8)
        words = [random_word(rng, max_len=6) for _ in range(8)]
        for u in words:
            assert orbit_equivalent(u, u, 2)
        for u in words[:4]:
            for v in words[:4]:
                assert orbit_equivalent(u, v, 2) == orbit_equivalent(v, u, 2)

    def test_transitive_spot(self):
        u = parse("[x,y]", 2)
        v = parse("[y,x]", 2)
        t = parse("y [x,y] Y", 2)
        assert orbit_equivalent(u, v, 2)
        assert orbit_equivalent(v, t, 2)
        assert orbit_equivalent(u, t, 2)

    def test_abelianization_soundness(self):
        # equivalent words have GL_2(Z)-equivalent exponent vectors; for
        # rank 2 the orbit invariant is the gcd (with 0 for the zero vector)
        rng = random.Random(10)
        words = [random_word(rng, max_len=6) for _ in range(10)]
        for u in words:
            for v in words:
                if orbit_equivalent(u, v, 2):
                    au, av = u.abelianization(), v.abelianization()
                    assert gcd(abs(au[0]), abs(au[1])) == gcd(abs(av[0]), abs(av[1]))

    def test_conjugates_equivalent(self):
        w = parse("x^2 y^2", 2)
        c = parse("y x", 2)
        assert orbit_equivalent(w, c * w * ~c, 2)

    def test_inverse_of_commutator(self):
        # [x,y]^-1 = [y,x] lies in the same orbit
        w = parse("[x,y]", 2)
        assert orbit_equivalent(w, ~w, 2)


    def test_letter_outside_rank_raises_when_keys_agree(self):
        # x z and x y have the same key, but z has no image over F_2
        for u, v in [("x z", "x y"), ("x y", "x z")]:
            with pytest.raises(ValueError):
                orbit_equivalent(parse(u, 3), parse(v, 3), 2)

    @pytest.mark.parametrize("u, v", [
        ("x y^-1 X y^-1", "x y^-2 x"),
        ("x y x y^-2", "y^-1 x^2 y^-2"),
        ("y x y^-2 x", "x y^-3 x"),
    ])
    def test_level_search_finds_the_target(self, u, v):
        # minimal words of different keys: only a length-preserving move
        # of the breadth-first search joins them
        u, v = parse(u, 2), parse(v, 2)
        assert len(minimize(u, 2)) == len(u) == len(minimize(v, 2)) == len(v)
        assert type_i_canonical(u.letters) != type_i_canonical(v.letters)
        assert orbit_equivalent(u, v, 2)
        assert orbit_equivalent(v, u, 2)

    def test_level_search_can_miss_at_equal_length(self):
        # x^3 y^2 and x^2 y x y^-1 are both minimal of length 5, and the
        # level of x^3 y^2 (which holds x^2 y x^-1 y too) misses the other
        u, v = parse("x^3 y^2", 2), parse("x^2 y x y^-1", 2)
        assert len(minimize(u, 2)) == len(minimize(v, 2)) == 5
        assert orbit_equivalent(u, parse("x^2 y x^-1 y", 2), 2)
        assert not orbit_equivalent(u, v, 2)
        assert not orbit_equivalent(v, u, 2)

    def test_relabelings_need_no_search(self):
        # the greedy minimizations of these two end in words of different
        # keys, whose level search the cap 0 would stop
        u = parse("x y x y x Y", 2)
        v = parse("y x y x y X", 2)
        assert orbit_equivalent(u, v, 2, orbit_cap=0)
        assert orbit_equivalent(parse("[x1,x2][x3,x4]", 4),
                                parse("[x4,x3][x2,x1]", 4), 4, orbit_cap=0)

    def test_cap_message_names_the_minimal_word(self):
        # the minimal form of u, whose level is searched
        for u, v, rank, cap, printed in [
            ("y [x,y] Y", "x^2 y^2", 2, 0, "x1 x2 x1^-1 x2^-1"),
            ("y x^2 y^2 z^2 Y", "x^3 y^3", 3, 3, "x1^2 x2^2 x3^2"),
        ]:
            with pytest.raises(UndecidedError) as exc:
                orbit_equivalent(parse(u, rank), parse(v, rank), rank,
                                 orbit_cap=cap)
            assert str(exc.value) == \
                f"orbit level of {printed} exceeds the cap {cap}"


class TestWhiteheadCertificate:
    def test_certified_classes_are_neither_primitive_nor_in_a_factor(self):
        # every cyclically reduced word of rank 2 up to length 8 and of
        # rank 3 up to length 6, one per rotation class, checked against
        # the searches the certificate skips
        from test_words import all_reduced_words
        classes = certified = 0
        for rank, max_len in [(2, 8), (3, 6)]:
            keys = {cyclic_key(w.letters)
                    for w in all_reduced_words(rank, max_len)
                    if w.letters and cyclic_core(w.letters) == w.letters}
            classes += len(keys)
            for core in keys:
                if _whitehead_certificate(core, rank):
                    certified += 1
                    assert len(_minimal_core(core, rank)) != 1, core
                    assert not in_proper_free_factor(Word(core, rank), rank), \
                        core
        assert (classes, certified) == (4892, 1530)

    def test_certified_word_skips_the_search(self, monkeypatch):
        def no_search(letters, rank):
            raise AssertionError("searched")

        monkeypatch.setattr(wml.whitehead, "_minimal_core", no_search)
        for text, rank in [("[x,y]", 2), ("x^2 y^2", 2), ("[x,y] z^2", 3),
                           ("[x1,x2][x3,x4]", 4), ("[x,z]", 5)]:
            assert not is_primitive(parse(text, rank), rank), text

    def test_rank_one_guard(self):
        # x and x^3 have the same graph over F_1, one edge {x, x^-1}, but
        # only x is primitive: the lemma needs rank >= 2
        assert _whitehead_certificate((1,), 1)
        assert _whitehead_certificate((1, 1, 1), 1)
        assert is_primitive(parse("x", 1), 1)
        assert not is_primitive(parse("x^3", 1), 1)
        assert is_primitive(parse("y", 3), 3)
        assert not is_primitive(parse("y^3", 3), 3)

    def test_graph_with_a_cut_vertex_is_not_certified(self):
        # x y^2: the pairs (x, y), (y, y), (y, x) give edges {x, y^-1},
        # {y, y^-1}, {y, x^-1}, a path through the cut vertices y^-1 and y
        assert not _whitehead_certificate((1, 2, 2), 2)
        assert not _whitehead_certificate((1, 2), 2)  # primitive
        assert _whitehead_certificate((1, 1, 2, 2), 2)


class TestPrimitivityVsNielsenEnumeration:
    def test_short_words(self):
        # independent oracle: enumerate the primitive elements of rank two
        # up to cyclic length 4 by closing {(x, y)} under elementary Nielsen
        # moves with a length cap, then compare classifications
        cap = 8

        def key(w):
            core, _ = w.cyclic_reduce()
            c = core.letters
            return min(c[i:] + c[:i] for i in range(len(c))) if c else ()

        basis_pairs = {(Word((1,), 2), Word((2,), 2))}
        frontier = list(basis_pairs)
        while frontier:
            new = []
            for (u, v) in frontier:
                for cand in [
                    (v, u), (~u, v), (u, ~v),
                    (u * v, v), (v * u, v), (u, u * v), (u, v * u),
                ]:
                    a, b = cand
                    if len(a) > cap or len(b) > cap:
                        continue
                    if cand not in basis_pairs:
                        basis_pairs.add(cand)
                        new.append(cand)
            frontier = new
        primitive_keys = set()
        for (u, v) in basis_pairs:
            for w in (u, v):
                core, _ = w.cyclic_reduce()
                if len(core) <= 4:
                    primitive_keys.add(key(w))

        from test_words import all_reduced_words
        for w in all_reduced_words(2, 4):
            if w.is_identity():
                continue
            if key(w) in primitive_keys:
                assert is_primitive(w, 2), str(w)
            else:
                # completeness of the bounded enumeration for these lengths
                assert not is_primitive(w, 2), str(w)


class TestTypeICanonical:
    def test_matches_reference_on_every_short_word(self):
        # the reference depends on the letters only through their cyclic
        # key and their number of generators, so it runs once per pair
        from test_words import all_reduced_words
        reference = {}
        for w in all_reduced_words(3, 7):
            key = (cyclic_key(w.letters), len({abs(a) for a in w.letters}))
            if key not in reference:
                reference[key] = reference_type_i_canonical(w.letters)
            assert type_i_canonical(w.letters) == reference[key], str(w)

    def test_matches_reference_on_random_letters(self):
        # letter tuples that need not be reduced at all, so generators may
        # cancel out of the core
        rng = random.Random(13)
        for rank in (4, 5):
            alphabet = [g for g in range(1, rank + 1)] + \
                [-g for g in range(1, rank + 1)]
            for _ in range(100):
                letters = tuple(rng.choice(alphabet)
                                for _ in range(rng.randint(0, 14)))
                assert type_i_canonical(letters) == \
                    reference_type_i_canonical(letters), letters
        for letters in [parse("x y^2 X", 2).letters, (1, 2, 2, -1),
                        (1, 3, -3, 2), (1, -1), (), (2, 1, -1, -2)]:
            assert type_i_canonical(letters) == \
                reference_type_i_canonical(letters), letters

    def test_relabeling_invariance(self):
        w = parse("x y^2 X", 2)
        v = parse("y x^2 Y", 2)  # x <-> y relabel
        assert type_i_canonical(w.letters) == type_i_canonical(v.letters)

    def test_inversion_invariance(self):
        w = parse("x y^2", 2)
        v = parse("x Y Y", 2)  # y -> y^-1
        assert type_i_canonical(w.letters) == type_i_canonical(v.letters)

    def test_different_generator_sets(self):
        # a word in {y} alone matches the same word written in {x}
        w = parse("y^3", 2)
        v = parse("x^3", 2)
        assert type_i_canonical(w.letters) == type_i_canonical(v.letters)
