import itertools
import random
import sys

import pytest

import wml.stallings
from wml.errors import UndecidedError
from wml.stallings import (
    _canonicalize,
    _trim,
    core_graph,
    fold,
    fringe,
)
from wml.surfaces import build_surface, enumerate_matchings
from wml.words import Word, parse

from fringe_reference import (
    bell_fringe,
    bell_reference_words,
    open_bell_fringe,
    random_reduced_word,
)


def restart_scan_fold(num_vertices, edges, basepoint, rank, identify=()):
    """Reference fold: after every union, re-sort all edges and rescan
    from the start for an offending pair."""
    parent = list(range(num_vertices))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in identify:
        parent[find(a)] = find(b)
    edges = set(edges)
    while True:
        edges = {(find(src), find(dst), lab) for (src, dst, lab) in edges}
        out_seen, in_seen = {}, {}
        merge = None
        for (src, dst, lab) in sorted(edges):
            if (src, lab) in out_seen:
                merge = (dst, out_seen[(src, lab)])
                break
            out_seen[(src, lab)] = dst
            if (dst, lab) in in_seen:
                merge = (src, in_seen[(dst, lab)])
                break
            in_seen[(dst, lab)] = src
        if merge is None:
            break
        a, b = find(merge[0]), find(merge[1])
        if a != b:
            parent[a] = b
    base = find(basepoint)
    vertices = {base} | {v for e in edges for v in e[:2]}
    vertices, edges = _trim(vertices, edges, keep={base})
    return _canonicalize(vertices, edges, base, rank)


# the non-power words of the benchmark's invariants corpus; the sweep of
# primitivity_rank never reaches the fringe of a proper power
SWEPT_CORPUS = (
    ("[x,y]", 2), ("x^2 y^2 z^2", 3), ("[x,y][x,z]", 3),
    ("x^2y^2x^-2y^-2", 2), ("[x,y^3]", 2), ("[x,y][x,y^-1]", 2),
    ("[x^2,y^2]", 2), ("[x,[x,y]]", 2), ("[x1,x2][x3,x4]", 4),
)


def loop_edges(words):
    """Unfolded bouquet of the words: one loop per word at vertex 0."""
    num_vertices, edges = 1, []
    for w in words:
        v = 0
        for i, a in enumerate(w.letters):
            if i == len(w) - 1:
                u = 0
            else:
                u, num_vertices = num_vertices, num_vertices + 1
            edges.append((v, u, a) if a > 0 else (u, v, -a))
            v = u
    return num_vertices, edges


def fold_renumbered(words, rank, rng):
    """Fold the words' loop edges under a random vertex renumbering and a
    shuffled edge order."""
    num_vertices, edges = loop_edges(words)
    perm = list(range(num_vertices))
    rng.shuffle(perm)
    edges = [(perm[src], perm[dst], lab) for (src, dst, lab) in edges]
    rng.shuffle(edges)
    return fold(num_vertices, edges, perm[0], rank)


def brute_force_isomorphic(g1, g2):
    """Based labeled-graph isomorphism by permutation search."""
    if (g1.num_vertices, g1.num_edges) != (g2.num_vertices, g2.num_edges):
        return False
    n = g1.num_vertices
    for perm in itertools.permutations(range(n)):
        if perm[g1.basepoint] != g2.basepoint:
            continue
        mapped = {(perm[s], perm[d], l) for (s, d, l) in g1.edges}
        if mapped == set(g2.edges):
            return True
    return False


class TestCoreGraph:
    def test_whole_group(self):
        g = core_graph([parse("x", 2), parse("y", 2)], 2)
        assert g.num_vertices == 1 and g.num_edges == 2
        assert g.subgroup_rank == 2

    def test_commutator_cycle(self):
        g = core_graph([parse("[x,y]", 2)], 2)
        assert g.num_vertices == 4 and g.num_edges == 4
        assert g.subgroup_rank == 1
        assert g.rewrite(parse("[x,y]", 2)) is not None
        assert g.rewrite(parse("x", 2)) is None

    def test_fold_example(self):
        # <x^2, x y x^-1> folds to two vertices and rank 2
        g = core_graph([parse("x^2", 2), parse("x y X", 2)], 2)
        assert g.num_vertices == 2 and g.num_edges == 3
        assert g.subgroup_rank == 2
        assert g.rewrite(parse("x^2", 2)) is not None
        assert g.rewrite(parse("x y X", 2)) is not None
        assert g.rewrite(parse("x", 2)) is None
        assert g.rewrite(parse("y", 2)) is None

    def test_two_x_loops_fold_to_one(self):
        g = core_graph([parse("x", 1), parse("x", 1)], 1)
        assert g.num_vertices == 1 and g.num_edges == 1

    def test_conjugate_keeps_tail(self):
        # the core graph keeps the basepoint even at degree 1
        g = core_graph([parse("x y X", 2)], 2)
        assert g.num_vertices == 2
        assert g.subgroup_rank == 1

    def test_rank_at_most_generator_count(self):
        rng = random.Random(7)
        for _ in range(120):
            k = rng.randint(1, 4)
            gens = []
            for _ in range(k):
                letters = [
                    rng.choice([1, 2, -1, -2]) for _ in range(rng.randint(1, 8))
                ]
                gens.append(Word(letters, 2))
            g = core_graph([w for w in gens if not w.is_identity()] or
                           [Word((1,), 2)], 2)
            assert g.subgroup_rank <= k


class TestFoldConfluence:
    def test_random_fold_orders_agree(self):
        words = [parse("x^2", 2), parse("x y X", 2), parse("[x,y]", 2)]
        reference = core_graph(words, 2)
        for seed in range(25):
            rng = random.Random(seed)
            assert fold_renumbered(words, 2, rng) == reference

    def test_random_graphs_random_orders(self):
        rng = random.Random(3)
        for trial in range(40):
            gens = []
            for _ in range(rng.randint(1, 3)):
                letters = [
                    rng.choice([1, 2, -1, -2]) for _ in range(rng.randint(1, 10))
                ]
                gens.append(Word(letters, 2))
            gens = [w for w in gens if not w.is_identity()] or [Word((1,), 2)]
            reference = core_graph(gens, 2)
            for seed in range(4):
                shuffler = random.Random(1000 * trial + seed)
                assert fold_renumbered(gens, 2, shuffler) == reference

    def test_fold_idempotent(self):
        g = core_graph([parse("[x,y]", 2)], 2)
        again = fold(g.num_vertices, g.edges, g.basepoint, g.rank)
        assert again == g


class TestWorklistFold:
    def test_matches_restart_scan_reference(self):
        # connected edge data with identify pairs
        rng = random.Random(17)
        for _ in range(250):
            n = rng.randint(2, 8)
            rank = rng.randint(1, 3)
            edges = []
            for v in range(1, n):
                u = rng.randrange(v)
                lab = rng.randint(1, rank)
                edges.append((u, v, lab) if rng.random() < 0.5 else (v, u, lab))
            for _ in range(rng.randint(0, 2 * n)):
                edges.append((rng.randrange(n), rng.randrange(n),
                              rng.randint(1, rank)))
            basepoint = rng.randrange(n)
            identify = [(rng.randrange(n), rng.randrange(n))
                        for _ in range(rng.randint(0, 3))]
            got = fold(n, edges, basepoint, rank, identify)
            want = restart_scan_fold(n, edges, basepoint, rank, identify)
            assert got == want, (n, edges, basepoint, identify)


class TestCanonicalForm:
    def test_equality_iff_isomorphic(self):
        rng = random.Random(11)
        graphs = []
        for _ in range(30):
            letters = [rng.choice([1, 2, -1, -2]) for _ in range(rng.randint(1, 7))]
            w = Word(letters, 2)
            if w.is_identity():
                continue
            graphs.append(core_graph([w], 2))
        for g1 in graphs:
            for g2 in graphs:
                if g1.num_vertices <= 8 and g2.num_vertices <= 8:
                    assert (g1.serialize() == g2.serialize()) == \
                        brute_force_isomorphic(g1, g2)

    def test_relabeled_input_same_canonical_form(self):
        # spelling the subgroup differently must not change the graph
        g1 = core_graph([parse("x^2", 2), parse("x y X", 2)], 2)
        g2 = core_graph([parse("x y X", 2), parse("x^2", 2), parse("x^2", 2)], 2)
        assert g1 == g2


class TestMembershipRewrite:
    def test_identity_rewrite(self):
        g = core_graph([parse("x", 2), parse("y", 2)], 2)
        w = g.rewrite(parse("[x,y]", 2))
        assert w is not None
        # image is the commutator of the two basis letters, up to naming
        basis = g.basis()
        assert len(basis) == 2
        assert len(w) == 4 and w.abelianization() == (0, 0)

    def test_power_subgroup(self):
        g = core_graph([parse("x^2", 1)], 1)
        assert g.rewrite(parse("x^2", 1)) == Word((1,), 1)
        assert g.rewrite(parse("x", 1)) is None
        assert g.rewrite(parse("x^4", 1)) == Word((1, 1), 1)

    def test_rewrite_roundtrip(self):
        g = core_graph([parse("x^2", 2), parse("x y X", 2)], 2)
        basis = g.basis()
        for text in ["x^2", "x y X", "x^2 x y X", "(x y X)^-1 x^2"]:
            w = parse(text, 2)
            coords = g.rewrite(w)
            assert coords is not None
            rebuilt = Word((), 2)
            for a in coords.letters:
                rebuilt = rebuilt * (basis[abs(a) - 1] if a > 0 else ~basis[abs(a) - 1])
            assert rebuilt == w

    def test_non_member(self):
        g = core_graph([parse("[x,y]", 2)], 2)
        assert g.rewrite(parse("x", 2)) is None

    def test_crosses_an_edge_once(self):
        rose = core_graph([parse("x", 2), parse("y", 2)], 2)
        assert rose.crosses_an_edge_once(parse("x y x", 2))
        assert not rose.crosses_an_edge_once(parse("[x,y]", 2))
        # x^2 and x y X: the x y X loop crosses the x edges twice, y once
        g = core_graph([parse("x^2", 2), parse("x y X", 2)], 2)
        assert g.crosses_an_edge_once(parse("x y X", 2))
        assert not g.crosses_an_edge_once(parse("x y^2 X", 2))
        assert g.crosses_an_edge_once(parse("x^2", 2))
        assert not g.crosses_an_edge_once(parse("x^4", 2))
        for text in ["x", "y"]:
            with pytest.raises(ValueError):
                g.crosses_an_edge_once(parse(text, 2))


class TestBasis:
    def test_size_is_rank(self):
        rng = random.Random(5)
        for _ in range(40):
            letters = [rng.choice([1, 2, -1, -2]) for _ in range(rng.randint(1, 8))]
            w = Word(letters, 2)
            if w.is_identity():
                continue
            g = core_graph([w], 2)
            assert len(g.basis()) == g.subgroup_rank

    def test_basis_words_are_members(self):
        g = core_graph([parse("x^2", 2), parse("x y X", 2)], 2)
        for b in g.basis():
            assert g.rewrite(b) is not None

    def test_open_fringe_graphs_number_their_basis_tree(self):
        for text, rank in SWEPT_CORPUS:
            for _, graphs in fringe(parse(text, rank)).uncertified():
                for g in graphs:
                    assert_numbered_by_basis_tree(g)

    def test_image_graphs_number_their_basis_tree(self):
        # the image subgroups of ``wml surfaces "[x,y]" "[y,x]" -K 1``
        words = [parse("[x,y]", 2), parse("[y,x]", 2)]
        for spec in enumerate_matchings(words, 1):
            s = build_surface(spec)
            for i in range(len(s.components)):
                assert_numbered_by_basis_tree(s.image_subgroup(i))


def assert_numbered_by_basis_tree(g):
    """One walk numbers the graph and gives its basis tree: the vertices
    are numbered in the order the tree reaches them, every parent below
    its child, and the i-th basis word rewrites to the i-th letter."""
    parent, _ = g.spanning_tree()
    assert list(parent) == list(range(g.num_vertices))
    assert all(step[0] < v for v, step in parent.items() if step)
    basis = g.basis()
    for i, b in enumerate(basis):
        assert g.rewrite(b) == Word((i + 1,), len(basis))


def open_graphs(w):
    """The graphs of the open fringe of <w>, in the order it lists them."""
    return [g for _, graphs in fringe(w).uncertified() for g in graphs]


class TestFringe:
    def test_single_generator(self):
        # <x> is the one quotient, and x crosses its one edge once
        w = parse("x", 2)
        assert [g.basis() for g in bell_fringe(w)] == [[Word((1,), 2)]]
        assert len(fringe(w)) == 0 and open_graphs(w) == []

    def test_commutator_contains_self_and_whole_group(self):
        # both are quotients; [x,y] crosses each edge of its own 4-cycle
        # once, so only the whole group, where it crosses each edge
        # twice, is open
        w = parse("[x,y]", 2)
        itself = core_graph([w], 2)
        whole = core_graph([parse("x", 2), parse("y", 2)], 2)
        assert itself in bell_fringe(w) and whole in bell_fringe(w)
        assert whole in open_graphs(w) and itself not in open_graphs(w)

    def test_commutator_fringe_size_pinned(self):
        # the open congruences, of 7, 65, 234, 174, 1,467, 7,255 and
        # 76,123 in all; the first four agree with the filtered Bell
        # enumeration of bell_fringe (Bell(12) = 4,213,597 folds for the
        # fifth, too slow to repeat here)
        small = [
            ("[x,y]", 2, 1),
            ("x^2y^2x^-2y^-2", 2, 9),
            ("[x,y][x,z]", 3, 2),
            ("[x,[x,y]]", 2, 4),
        ]
        for text, rank, size in small:
            w = parse(text, rank)
            assert len(fringe(w)) == len(open_bell_fringe(w)) == size, text
        for text, cap, size in [("x^3y^3x^-3y^-3", 12, 31),
                                ("[x^3,y^4]", 14, 78),
                                ("x^4y^4x^-4y^-4", 16, 211)]:
            assert len(fringe(parse(text, 2), cap)) == size, text

    def test_matches_bell_reference(self):
        # one graph per open congruence, in the same order as folding
        # every set partition, deduplicating and leaving out the graphs
        # in which w's loop crosses an edge once
        for w in bell_reference_words():
            assert ([g.serialize() for g in open_graphs(w)]
                    == [g.serialize() for g in open_bell_fringe(w)]), w

    def test_matches_bell_reference_on_seeded_words(self):
        # 40 more seeded random freely reduced words of ranks 1-3 with
        # V <= 8, conjugators included
        rng = random.Random(2601)
        words = []
        while len(words) < 40:
            w = random_reduced_word(rng, rng.randint(1, 3), rng.randint(3, 12))
            if 0 < (len(w) + len(w.cyclic_reduce()[0])) // 2 <= 8:
                words.append(w)
        for w in words:
            assert ([g.serialize() for g in open_graphs(w)]
                    == [g.serialize() for g in open_bell_fringe(w)]), w

    def test_uncertified_buckets_match_the_certificate(self):
        # Fringe.uncertified groups the open congruences by rank; the
        # filtered Bell reference, grouped by rank, is the oracle
        words = bell_reference_words() + [
            parse(text, rank) for text, rank in SWEPT_CORPUS]
        for w in words:
            want = [(r, [g.serialize() for g in graphs]) for r, graphs
                    in itertools.groupby(open_bell_fringe(w),
                                         key=lambda g: g.subgroup_rank)]
            got = [(r, [g.serialize() for g in graphs])
                   for r, graphs in fringe(w).uncertified()]
            assert got == want, w

    def test_every_member_contains_word(self):
        for text in ["[x,y]", "x^2 y^2", "x^3"]:
            w = parse(text, 2)
            for g in open_graphs(w):
                assert g.rewrite(w) is not None

    def test_conjugation_covariance(self):
        w = parse("[x,y]^2", 2)
        base = open_graphs(w)
        base_ranks = [g.subgroup_rank for g in base]
        for text in ("(y X Y x)^2", "(X Y x y)^2", "(Y x y X)^2"):
            fr = open_graphs(parse(text, 2))
            assert len(fr) == len(base)
            assert sorted(g.subgroup_rank for g in fr) == base_ranks

    def test_vertex_cap(self):
        w = parse("[x,y]^4", 2)  # 16 vertices
        with pytest.raises(UndecidedError):
            fringe(w)

    def test_cap_fires_before_the_core_graph(self, monkeypatch):
        # V = (|w| + |cyclic core|) / 2 is read off the lengths, so a long
        # word over the cap is refused without building its graph
        def no_core_graph(*args):
            raise AssertionError("core_graph called")

        monkeypatch.setattr(wml.stallings, "core_graph", no_core_graph)
        for text, vertices in [("[x^200000,y]", 400002),
                               ("y x^100000 y^2 x^-100000 Y", 100003)]:
            with pytest.raises(UndecidedError) as exc:
                fringe(parse(text, 2))
            assert str(exc.value) == f"fringe needs set partitions of " \
                f"{vertices} vertices, over the cap 12"

    def test_deep_search_needs_no_recursion(self):
        # the search keeps one frame per undecided vertex on a list of its
        # own, so a core graph longer than the interpreter's recursion
        # limit is searched like a short one
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            sizes = [len(fringe(parse("x^150", 1), vertex_cap=200)),
                     len(fringe(parse("[x^30,y]", 2), vertex_cap=100))]
        finally:
            sys.setrecursionlimit(limit)
        # x^150 has one quotient <x^d> per divisor d of 150, and is
        # primitive only in <x^150>; [x^30,y] has 1,584 in all
        assert sizes == [11, 121]

    def test_deterministic_order(self):
        w = parse("x^2y^2x^-2y^-2", 2)
        a = [g.serialize() for g in open_graphs(w)]
        b = [g.serialize() for g in open_graphs(w)]
        assert a == b


class TestWedgeMarked:
    def test_two_loops_joined(self):
        # x-loops at both endpoints of a y-edge.  Identifying the
        # endpoints turns the y-edge into a loop; folding then merges the
        # two coincident x-loops, so the subgroup is <x, y>.
        edges = {(0, 0, 1), (1, 1, 1), (0, 1, 2)}
        g = fold(2, edges, 0, 2, identify=[(1, 0)])
        assert g.num_vertices == 1 and g.num_edges == 2
        assert g.rewrite(parse("x", 2)) is not None
        assert g.rewrite(parse("y", 2)) is not None

    def test_quotient_keeps_membership(self):
        w = parse("[x,y]", 2)
        base = core_graph([w], 2)
        # the vertex partition {0, 2}, {1, 3}
        g = fold(base.num_vertices, base.edges, base.basepoint, base.rank,
                 identify=[(0, 2), (1, 3)])
        assert g.rewrite(w) is not None
