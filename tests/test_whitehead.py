import random
from itertools import permutations, product
from math import gcd

import pytest

from wml.errors import UndecidedError
from wml.whitehead import (
    in_proper_free_factor,
    is_primitive,
    minimize,
    orbit_equivalent,
    type_i_canonical,
    type_ii_autos,
)
from wml.words import Word, parse


def random_word(rng, rank=2, max_len=8):
    letters = [
        rng.choice([g for g in range(1, rank + 1)] + [-g for g in range(1, rank + 1)])
        for _ in range(rng.randint(0, max_len))
    ]
    return Word(letters, rank)


class TestTypeII:
    def test_identity_excluded(self):
        for auto in type_ii_autos(2):
            assert len(auto.letters) >= 2

    def test_counts(self):
        # 2k choices of multiplier, 2^(2k-2) admissible sets, minus identities
        assert len(type_ii_autos(1)) == 0
        assert len(type_ii_autos(2)) == 4 * 4 - 4

    def test_inverse_on_generators(self):
        rng = random.Random(1)
        for auto in type_ii_autos(2):
            inv = auto.inverse()
            for _ in range(5):
                w = random_word(rng)
                assert inv.apply(auto.apply(w)) == w
                assert auto.apply(inv.apply(w)) == w

    def test_is_homomorphism(self):
        rng = random.Random(2)
        for auto in type_ii_autos(3)[::7]:
            for _ in range(5):
                u = random_word(rng, rank=3)
                v = random_word(rng, rank=3)
                assert auto.apply(u * v) == auto.apply(u) * auto.apply(v)


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
    def test_relabeling_invariance(self):
        w = parse("x y^2 X", 2)
        v = parse("y x^2 Y", 2)  # x <-> y relabel
        assert type_i_canonical(w) == type_i_canonical(v)

    def test_inversion_invariance(self):
        w = parse("x y^2", 2)
        v = parse("x Y Y", 2)  # y -> y^-1
        assert type_i_canonical(w) == type_i_canonical(v)

    def test_different_generator_sets(self):
        # a word in {y} alone matches the same word written in {x}
        w = parse("y^3", 2)
        v = parse("x^3", 2)
        assert type_i_canonical(w) == type_i_canonical(v)
