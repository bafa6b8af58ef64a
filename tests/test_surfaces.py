import math
import time
import tracemalloc
from itertools import permutations, product

import pytest

from wml.errors import UndecidedError, capped_multisets
from wml.stallings import core_graph
from wml.surfaces import (
    MatchingSpec,
    build_surface,
    enumerate_matchings,
    minimal_single_boundary_genus,
)
from wml.words import parse


def unique_spec(words, k=1):
    specs = list(enumerate_matchings(words, max_subdivision=k))
    assert len(specs) == 1
    return specs[0]


def ordered_matchings(words, max_subdivision):
    """Reference enumeration: per generator, the product over 1..K levels of
    its single matchings, so reordered levels are listed again."""
    occ = {}
    for wi, w in enumerate(words):
        for t, a in enumerate(w.letters):
            occ.setdefault(abs(a), ([], []))[a < 0].append((wi, t))
    gens = sorted(occ)
    per_gen = []
    for g in gens:
        pos, neg = occ[g]
        single = [tuple(zip(pos, perm)) for perm in permutations(neg)]
        per_gen.append([combo for k in range(1, max_subdivision + 1)
                        for combo in product(single, repeat=k)])
    for assignment in product(*per_gen):
        yield MatchingSpec(words, dict(zip(gens, assignment)))


def collapse_spec(w):
    """The annulus matching for (w, w^-1): every letter to its mirror."""
    words = (w, ~w)
    length = len(w)
    matchings = {}
    for t, a in enumerate(w.letters):
        gen = abs(a)
        pair = ((0, t), (1, length - 1 - t)) if a > 0 else \
            ((1, length - 1 - t), (0, t))
        matchings.setdefault(gen, []).append(pair)
    return MatchingSpec(words, {g: (tuple(m),) for g, m in matchings.items()})


def all_corner_counts(surface):
    """Reference Euler count: union-find over every inner and outer corner
    of the cellulation, then V, E and F tallied per component.  Returns
    the total (V, E, F) and the sorted (annuli, chi, boundary, genus) of
    the components."""
    sizes = [len(s) for s in surface.sub_letters]
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    for (_, _, (m, q), (m2, q2)) in surface.glue_pairs:
        union(("o", m, q), ("o", m2, (q2 + 1) % sizes[m2]))
        union(("o", m, (q + 1) % sizes[m]), ("o", m2, q2))
        union(("a", m), ("a", m2))
    comp_of = [find(("a", m)) for m in range(len(sizes))]
    vertices, edges, faces = {}, {}, {}
    for kind in ("i", "o"):
        for m, size in enumerate(sizes):
            for q in range(size):
                vertices.setdefault(comp_of[m], set()).add(find((kind, m, q)))
    for m, size in enumerate(sizes):
        edges[comp_of[m]] = edges.get(comp_of[m], 0) + 2 * size
        faces[comp_of[m]] = faces.get(comp_of[m], 0) + size
    for (_, _, (m, _), _) in surface.glue_pairs:
        edges[comp_of[m]] += 1
    components = []
    for c in set(comp_of):
        annuli = tuple(m for m in range(len(sizes)) if comp_of[m] == c)
        chi = len(vertices[c]) - edges[c] + faces[c]
        boundary = len(annuli)
        components.append((annuli, chi, boundary, (2 - boundary - chi) // 2))
    cells = (sum(map(len, vertices.values())), sum(edges.values()),
             sum(faces.values()))
    return cells, sorted(components)


class TestBuildSurface:
    def test_commutator_once_punctured_torus(self):
        # V=5, E=10, F=4: chi=-1, one boundary, genus 1
        spec = unique_spec([parse("[x,y]", 2)])
        s = build_surface(spec)
        assert s.cells == (5, 10, 4)
        assert len(s.components) == 1
        comp = s.components[0]
        assert comp.chi == -1
        assert comp.boundary == 1
        assert comp.genus == 1

    def test_annulus(self):
        spec = unique_spec([parse("x", 1), parse("X", 1)])
        s = build_surface(spec)
        comp = s.components[0]
        assert comp.chi == 0 and comp.boundary == 2 and comp.genus == 0

    def test_malformed_matching_rejected(self):
        w = parse("[x,y]", 2)
        with pytest.raises(ValueError):
            MatchingSpec((w,), {1: (((0, 0), (0, 1)),), 2: (((0, 1), (0, 3)),)})

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            MatchingSpec((parse("x", 1),), {})

    def test_trivial_word_rejected(self):
        # an empty annulus has no corners, so it would glue to chi = 0
        # with one boundary circle; the least genus of the identity is 0
        w = parse("[x,y]", 2)
        for words in ([parse("x X", 1)], [w, parse("1", 2)]):
            with pytest.raises(ValueError, match="nontrivial boundary words"):
                next(enumerate_matchings(words))
        assert minimal_single_boundary_genus(parse("[y,x][x,y]", 2)) == 0

    def test_matches_all_corner_reference(self):
        # chi from outer-corner classes agrees with counting every vertex,
        # edge and face of the cellulation
        cases = [
            (["[x,y]", "[y,x]"], 2, 2),
            (["[x,y]^2"], 2, 2),
            (["[x,y^2]", "[y^2,x]"], 2, 1),
            (["x", "X"], 1, 1),
            (["[x,y][x,z]"], 3, 1),
        ]
        for texts, rank, k in cases:
            words = [parse(t, rank) for t in texts]
            specs = list(enumerate_matchings(words, max_subdivision=k))
            assert specs, texts
            for spec in specs:
                s = build_surface(spec)
                got = sorted((c.annuli, c.chi, c.boundary, c.genus)
                             for c in s.components)
                assert (s.cells, got) == all_corner_counts(s), (texts, spec)

    def test_chi_invariant_under_equal_subdivision(self):
        # splitting every gluing into two parallel copies refines the
        # cellulation without changing the surface
        w = parse("[x,y]", 2)
        base = build_surface(unique_spec([w]))
        specs2 = [
            s for s in enumerate_matchings([w], max_subdivision=2)
            if all(s.subdivision(g) == 2 for g in (1, 2))
        ]
        assert len(specs2) == 1
        refined = build_surface(specs2[0])
        assert refined.components[0].chi == base.components[0].chi
        assert refined.components[0].genus == base.components[0].genus

    def test_genus_integrality_everywhere(self):
        # chi - (2 - boundary) is even for every built component
        for words in [
            [parse("[x,y]", 2)],
            [parse("[x,y]", 2), parse("[y,x]", 2)],
            [parse("[x,y]", 2), ~parse("[x,y]", 2)],
            [parse("x^2", 1), parse("X^2", 1)],
        ]:
            for spec in enumerate_matchings(words, max_subdivision=1):
                for comp in build_surface(spec).components:
                    assert (comp.chi - (2 - comp.boundary)) % 2 == 0
                    assert comp.genus >= 0


class TestImageSubgroup:
    def test_commutator_surface_fills_rank_two(self):
        spec = unique_spec([parse("[x,y]", 2)])
        s = build_surface(spec)
        g = s.image_subgroup(0)
        whole = core_graph([parse("x", 2), parse("y", 2)], 2)
        assert g == whole

    def test_annulus_image_is_cyclic(self):
        spec = unique_spec([parse("x", 1), parse("X", 1)])
        s = build_surface(spec)
        g = s.image_subgroup(0)
        assert g.subgroup_rank == 1
        assert g.rewrite(parse("x", 1)) is not None

    def test_collapse_matching_gives_cyclic_group(self):
        for text, rank in [("x", 1), ("[x,y]", 2), ("x y^2 x", 2)]:
            w = parse(text, rank)
            s = build_surface(collapse_spec(w))
            comp = s.components[0]
            assert comp.chi == 0 and comp.boundary == 2 and comp.genus == 0
            g = s.image_subgroup(0)
            assert g.subgroup_rank == 1
            assert g.rewrite(w) is not None

    def test_image_contains_boundary_words(self):
        for words in [
            [parse("[x,y]", 2), parse("[y,x]", 2)],
            [parse("[x,y]", 2), ~parse("[x,y]", 2)],
        ]:
            for spec in enumerate_matchings(words, max_subdivision=1):
                s = build_surface(spec)
                for i, comp in enumerate(s.components):
                    g = s.image_subgroup(i)
                    for m in comp.annuli:
                        assert g.rewrite(words[m]) is not None, (words, i, m)

    def test_multi_annulus_image_ranks_pinned(self):
        # (annuli, image rank) over every component of every subdivision-1
        # surface; the annulus basepoints must be wedged together
        for texts, expected in [
            (["[x,y^2]", "[y^2,x]"], {(1, 2): 8, (2, 1): 1, (2, 2): 43}),
            (["[x,y]", "[x,y]^-1", "[x,y]"],
             {(1, 2): 12, (2, 1): 2, (2, 2): 7, (3, 2): 26}),
        ]:
            tally = {}
            words = [parse(t, 2) for t in texts]
            for spec in enumerate_matchings(words, max_subdivision=1):
                s = build_surface(spec)
                for i, comp in enumerate(s.components):
                    key = (len(comp.annuli), s.image_subgroup(i).subgroup_rank)
                    tally[key] = tally.get(key, 0) + 1
            assert tally == expected, texts

    def test_records_pinned(self):
        # sha256 of every surface record with images at K = 1 and 2,
        # recorded before unused library code was deleted
        import hashlib
        import json

        digest = hashlib.sha256()
        for texts in (["[x,y]^2"], ["[x,y^2]"], ["[x,y]", "[y,x]"],
                      ["x y X y X Y x Y"]):
            words = [parse(t, 2) for t in texts]
            for k in (1, 2):
                for spec in enumerate_matchings(words, k):
                    record = build_surface(spec).to_json(images=True)
                    digest.update(json.dumps(record, sort_keys=True).encode()
                                  + b"\n")
        assert digest.hexdigest() == \
            "0ed8b827d880f8ab53b8902627f03247accea1275b734b79fde65bf3cda910ff"


class TestEnumeration:
    def test_single_commutator(self):
        assert len(list(enumerate_matchings([parse("[x,y]", 2)]))) == 1

    def test_x_xinv(self):
        assert len(list(enumerate_matchings([parse("x", 1), parse("X", 1)]))) == 1

    def test_commutator_and_inverse(self):
        words = [parse("[x,y]", 2), ~parse("[x,y]", 2)]
        assert len(list(enumerate_matchings(words))) == 4

    def test_spec_cap(self):
        words = [parse("[x,y]^2", 2), ~parse("[x,y]^2", 2)]
        with pytest.raises(UndecidedError):
            list(enumerate_matchings(words, max_subdivision=2, spec_cap=10))
        # [x,y]^2 at K = 3: each generator has C(2 + 3, 3) - 1 = 9
        # multisets of its 2 single matchings, so 81 collections in all
        words = [parse("[x,y]^2", 2)]
        assert len(list(enumerate_matchings(words, 3, spec_cap=81))) == 81
        with pytest.raises(UndecidedError):
            next(enumerate_matchings(words, 3, spec_cap=80))

    def test_cap_messages(self):
        # the partial count is quoted in full while str() can write it
        with pytest.raises(UndecidedError) as exc:
            next(enumerate_matchings([parse("[x^3,y^4]", 2)], 1, spec_cap=30))
        assert str(exc.value) == \
            "matching enumeration needs 144+ collections, over the cap"
        with pytest.raises(UndecidedError) as exc:
            next(enumerate_matchings([parse("[x^500,y]", 2)]))
        assert str(exc.value) == f"matching enumeration needs " \
            f"{math.factorial(500)}+ collections, over the cap"
        with pytest.raises(UndecidedError) as exc:
            next(enumerate_matchings([parse("[x^2000,y]", 2)]))
        assert str(exc.value) == "matching enumeration needs at least " \
            "10^4300 collections, over the cap"

    def test_large_subdivision_stops_at_the_bound(self):
        # C(10! + K, K) has over 4300 digits for these K; the running
        # binomial stops once it passes that bound
        for k in (200_000, 1_000_000):
            start = time.perf_counter()
            with pytest.raises(UndecidedError) as exc:
                next(enumerate_matchings([parse("[x^10,y]", 2)], k))
            assert time.perf_counter() - start < 5, k
            assert str(exc.value) == "matching enumeration needs at least " \
                "10^4300 collections, over the cap"

    def test_exact_count_under_the_bound(self):
        # C(10! + 2, 2) - 1 is over the cap but printable, so it is quoted
        with pytest.raises(UndecidedError) as exc:
            next(enumerate_matchings([parse("[x^10,y]", 2)], 2))
        count = math.comb(math.factorial(10) + 2, 2) - 1
        assert count == 6584100163200
        assert str(exc.value) == \
            f"matching enumeration needs {count}+ collections, over the cap"

    def test_capped_multisets(self):
        # C(kinds + size, size) - 1, kept exactly up to the capped_product
        # bound and None past it
        for kinds in (1, 2, 3, 24, 720):
            for size in (1, 2, 5, 40):
                assert capped_multisets(kinds, size, 0) == \
                    math.comb(kinds + size, size) - 1
        assert capped_multisets(1, 10 ** 12, 0) == 10 ** 12
        big = math.comb(4000 + 4000, 4000) - 1  # 2407 digits
        assert capped_multisets(4000, 4000, 0) == big
        huge = math.comb(8000 + 8000, 8000) - 1  # 4815 digits
        assert capped_multisets(8000, 8000, 0) is None
        assert capped_multisets(8000, 8000, huge) == huge
        assert capped_multisets(8000, 8000, huge - 1) is None

    def test_rejects_nonpositive_subdivision(self):
        for k in (0, -1):
            with pytest.raises(ValueError):
                list(enumerate_matchings([parse("[x,y]", 2)], max_subdivision=k))

    def test_dedup_does_not_lose_topology(self):
        # permuting subdivision indices must not change the attainable
        # topological data; the enumeration must cover the same set of
        # (chi, boundary, genus) component profiles as the reference
        words = [parse("[x,y]", 2), parse("[y,x]", 2)]

        def profile(specs):
            out = set()
            for spec in specs:
                s = build_surface(spec)
                out.add(
                    tuple(sorted((c.chi, c.boundary, c.genus)
                                 for c in s.components))
                )
            return out

        assert profile(enumerate_matchings(words, max_subdivision=2)) == \
            profile(ordered_matchings(words, max_subdivision=2))

    def test_cap_fires_before_choices_are_built(self):
        # [x,y]^7 at K = 2: 7! single matchings per generator make about
        # 12.7M choices each; the cap must fire without listing them
        words = [parse("[x,y]^7", 2)]
        tracemalloc.start()
        try:
            with pytest.raises(UndecidedError):
                next(enumerate_matchings(words, max_subdivision=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20

    def test_cap_fires_before_occurrences_are_listed(self, monkeypatch):
        # the count needs only the letter counts of each generator, and an
        # unbalanced collection is refused before the cap is looked at
        import wml.surfaces

        def no_occurrences(words):
            raise AssertionError("letter occurrences listed")

        monkeypatch.setattr(wml.surfaces, "_occurrences", no_occurrences)
        w = parse("[x^200000,y]", 2)
        for search in (lambda: next(enumerate_matchings([w])),
                       lambda: minimal_single_boundary_genus(w)):
            with pytest.raises(UndecidedError) as exc:
                search()
            assert str(exc.value) == "matching enumeration needs at " \
                "least 10^4300 collections, over the cap"
        unbalanced = parse("x^200000 y x^-199999", 2)
        with pytest.raises(ValueError, match="only balanced"):
            next(enumerate_matchings([unbalanced], spec_cap=0))
        assert minimal_single_boundary_genus(unbalanced) is None


class TestSpectrumMap:
    """Total Euler characteristics of the enumerated surfaces, keyed by
    (connected, sorted boundary counts per component)."""

    @staticmethod
    def spectrum(words):
        out = {}
        for spec in enumerate_matchings(words, max_subdivision=1):
            s = build_surface(spec)
            key = (len(s.components) == 1,
                   tuple(sorted(c.boundary for c in s.components)))
            out.setdefault(key, []).append(s.chi)
        return {key: sorted(chis) for key, chis in out.items()}

    def test_single_commutator(self):
        spectrum = self.spectrum([parse("[x,y]", 2)])
        assert spectrum == {(True, (1,)): [-1]}

    def test_annulus_pair(self):
        spectrum = self.spectrum([parse("x", 1), parse("X", 1)])
        assert spectrum == {(True, (2,)): [0]}

    def test_commutator_and_inverse(self):
        spectrum = self.spectrum([parse("[x,y]", 2), ~parse("[x,y]", 2)])
        # four collections: three connected surfaces (one of them the
        # annulus) plus the split into two punctured tori
        assert spectrum == {(True, (2,)): [-2, -2, 0], (False, (1, 1)): [-2]}


class TestGenusSearch:
    def test_commutator_genus_one(self):
        assert minimal_single_boundary_genus(parse("[x,y]", 2)) == 1

    def test_commutator_cube_genus_two(self):
        w = parse("[x,y]^3", 2)
        assert minimal_single_boundary_genus(w) == 2

    def test_unbalanced_none(self):
        assert minimal_single_boundary_genus(parse("x", 1)) is None

    def test_builds_no_surface(self, monkeypatch):
        import wml.surfaces

        def no_surface(spec):
            raise AssertionError("surface built")

        monkeypatch.setattr(wml.surfaces, "build_surface", no_surface)
        assert minimal_single_boundary_genus(parse("[x,y]^5", 2)) == 3
        assert minimal_single_boundary_genus(parse("[x,y][x,z]", 3)) == 2

    def test_figure_style_pair_includes_split_x(self):
        # for ([x,y], [y,x]) at subdivision 2 some collection splits the
        # x-letters in two; the enumeration must include such specs, and
        # their cellulation counts are pinned
        words = [parse("[x,y]", 2), parse("[y,x]", 2)]
        specs = [
            s for s in enumerate_matchings(words, max_subdivision=2)
            if s.subdivision(1) == 2 and s.subdivision(2) == 1
        ]
        assert specs
        profiles = set()
        for s in specs:
            surface = build_surface(s)
            profiles.add(
                tuple(sorted((c.chi, c.boundary) for c in surface.components))
            )
        # connected glued surfaces with both boundary circles occur at
        # chi in {-2, -4, 0}, alongside the split pair of genus-1 pieces
        assert ((-2, 2),) in profiles
        assert ((-4, 2),) in profiles
        assert ((0, 2),) in profiles
        assert ((-1, 1), (-1, 1)) in profiles


class TestChiBound:
    def test_second_corpus_word(self):
        # components whose joined image group is a rank >= 2 algebraic
        # extension of <w> never beat chi = 1 - pi(w)
        from wml.invariants import is_algebraic_extension, primitivity_rank
        from wml.stallings import core_graph

        w = parse("[x,y^2]", 2)
        pi, _ = primitivity_rank(w, 2)
        assert pi == 2
        cases = [([w], 2), ([w, ~w], 1)]
        checked = 0
        for words, k in cases:
            for spec in enumerate_matchings(words, max_subdivision=k):
                s = build_surface(spec)
                for i, comp in enumerate(s.components):
                    image = s.image_subgroup(i)
                    joined = core_graph(image.basis() + [w], 2)
                    if joined.subgroup_rank < 2:
                        continue
                    if not is_algebraic_extension(joined, w):
                        continue
                    checked += 1
                    assert comp.chi <= 1 - pi
        assert checked > 0


class TestFactorThrough:
    def test_cyclic_image_means_annulus(self):
        # components whose image subgroup lies in <w> carry no topology:
        # on the corpus they are exactly the chi = 0 annuli
        w = parse("[x,y]", 2)
        for spec in enumerate_matchings([w, ~w], max_subdivision=2):
            s = build_surface(spec)
            for i, comp in enumerate(s.components):
                image = s.image_subgroup(i)
                if image.subgroup_rank <= 1:
                    assert comp.chi == 0 and comp.genus == 0
                    basis = image.basis()
                    assert len(basis) == 1
                    assert _is_power_of(basis[0], w)

    def test_closed_surface_rank_bound(self):
        # gluing the two boundaries of a (w, w^-1) component gives a closed
        # surface of genus (2 - chi)/2 that surjects onto the image
        # subgroup, so the image rank is at most that genus
        w = parse("[x,y]", 2)
        for spec in enumerate_matchings([w, ~w], max_subdivision=2):
            s = build_surface(spec)
            for i, comp in enumerate(s.components):
                if comp.boundary != 2:
                    continue
                closed_genus = (2 - comp.chi) // 2
                image = s.image_subgroup(i)
                assert image.subgroup_rank <= closed_genus


def _is_power_of(candidate, w):
    for k in range(1, len(w) + 1):
        if w ** k == candidate or w ** (-k) == candidate:
            return True
    return candidate.is_identity()
