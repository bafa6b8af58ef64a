import pytest

from wml.errors import UndecidedError
from wml.invariants import (
    INFINITY,
    analyze,
    comm_crit,
    commutator_length,
    critical_subgroups,
    is_algebraic_extension,
    primitivity_rank,
    standard_surface_word,
)
from wml.stallings import core_graph, fringe
from wml.words import Word, cyclic_key, parse

from fringe_reference import bell_fringe, open_bell_fringe

F2 = 2

# the eleven (word, rank) items of the benchmark's invariants workload
INVARIANTS_CORPUS = (
    ("[x,y]", 2), ("x^2 y^2 z^2", 3), ("[x,y]^3", 2), ("[x,y][x,z]", 3),
    ("x^2y^2x^-2y^-2", 2), ("[x,y^3]", 2), ("[x,y][x,y^-1]", 2),
    ("[x^2,y^2]", 2), ("[x,[x,y]]", 2), ("[x1,x2][x3,x4]", 4),
    ("([x,y][x,z])^2", 3),
)


class TestPrimitivityCertificates:
    def test_once_crossed_edge_means_primitive(self):
        # every quotient of the core graph of a non-power corpus word in
        # which its loop crosses an edge once (the Bell reference lists
        # them; the fringe leaves them out): the Whitehead search
        # minimizes the rewrite to one letter
        from wml.whitehead import _minimal_core

        certified, searched = 0, set()  # primitivity is conjugacy-invariant
        for text, rank in INVARIANTS_CORPUS:
            w = parse(text, rank)
            if w.is_proper_power()[0]:
                continue
            for graph in bell_fringe(w):
                if graph.crosses_an_edge_once(w):
                    certified += 1
                    r = graph.subgroup_rank
                    key = (r, cyclic_key(graph.rewrite(w).letters))
                    if key not in searched:
                        searched.add(key)
                        assert len(_minimal_core(key[1], r)) == 1, text
        assert certified > 500

    def test_search_steps_on_the_corpus(self, monkeypatch):
        # only primitivity_rank runs the search; without the once-crossed
        # edge certificate these sweeps take 71,528 images
        import wml.whitehead

        image = wml.whitehead._image
        calls = []

        def counting_image(images, core):
            calls.append(None)
            return image(images, core)

        monkeypatch.setattr(wml.whitehead, "_image", counting_image)
        for text, rank in INVARIANTS_CORPUS:
            w = parse(text, rank)
            if not w.is_proper_power()[0]:
                primitivity_rank(w, rank)
        assert len(calls) <= 3000


class TestPrimitivityRank:
    def test_identity(self):
        assert primitivity_rank(Word((), F2), F2)[0] == 0

    def test_primitive(self):
        assert primitivity_rank(parse("x", F2), F2)[0] == INFINITY
        assert primitivity_rank(parse("x y", F2), F2)[0] == INFINITY

    def test_proper_powers(self):
        for k in (2, 3):
            pi, witnesses = primitivity_rank(parse(f"x^{k}", F2), F2)
            assert pi == 1
            graph, rewritten = witnesses[0]
            assert graph.subgroup_rank == 1
            assert rewritten == Word((1,) * k, 1)

    def test_commutator(self):
        pi, witnesses = primitivity_rank(parse("[x,y]", F2), F2)
        assert pi == 2
        whole = core_graph([parse("x", F2), parse("y", F2)], F2)
        assert any(g == whole for g, _ in witnesses)

    def test_x2y2(self):
        assert primitivity_rank(parse("x^2 y^2", F2), F2)[0] == 2

    def test_x2y2z2_rank_three(self):
        assert primitivity_rank(parse("x^2 y^2 z^2", 3), 3)[0] == 3

    def test_conjugation_and_inversion_invariance(self):
        for text in ["[x,y]", "x^2 y^2", "x^3"]:
            w = parse(text, F2)
            base = primitivity_rank(w, F2)[0]
            assert primitivity_rank(~w, F2)[0] == base
            c = parse("y x", F2)
            assert primitivity_rank(c * w * ~c, F2)[0] == base

    def test_cap_propagates(self):
        with pytest.raises(UndecidedError):
            primitivity_rank(parse("[x,y]", F2), F2, fringe_cap=3)


class TestAlgebraicExtension:
    def test_cyclic_self(self):
        for text in ["x", "[x,y]", "x^2 y^2"]:
            w = parse(text, F2)
            assert is_algebraic_extension(core_graph([w], F2), w)

    def test_whole_group_over_commutator(self):
        whole = core_graph([parse("x", F2), parse("y", F2)], F2)
        assert is_algebraic_extension(whole, parse("[x,y]", F2))

    def test_whole_group_over_generator(self):
        whole = core_graph([parse("x", F2), parse("y", F2)], F2)
        assert not is_algebraic_extension(whole, parse("x", F2))

    def test_non_member_rejected(self):
        g = core_graph([parse("x^2", F2)], F2)
        with pytest.raises(ValueError):
            is_algebraic_extension(g, parse("x", F2))

    def test_rank_lemma_on_fringe_of_powers(self):
        # for every quotient H of the core graph of <w^d> that is
        # algebraic over <w^d> and not generated by a power of w:
        # rank<H, w> <= rank H and rank H >= pi(w), for d in {1, 2}
        for text in ["[x,y]", "x^2 y^2"]:
            w = parse(text, F2)
            pi = primitivity_rank(w, F2)[0]
            for d in (1, 2):
                wd = w ** d
                for graph in bell_fringe(wd):
                    basis = graph.basis()
                    rank_h = graph.subgroup_rank
                    if rank_h == 1:
                        root = basis[0]
                        if any(root ** k == wd or root ** (-k) == wd
                               for k in range(1, len(wd) + 1)):
                            continue
                    if not is_algebraic_extension(graph, wd):
                        continue
                    joined = core_graph(basis + [w], F2)
                    assert joined.subgroup_rank <= rank_h, (text, d)
                    assert rank_h >= pi, (text, d)


class TestCommutatorLength:
    def test_single_generator(self):
        assert commutator_length(parse("x", F2)) is INFINITY

    def test_commutator(self):
        assert commutator_length(parse("[x,y]", F2)) == 1

    def test_commutator_cube(self):
        assert commutator_length(parse("[x,y]^3", F2), genus_cap=3) == 2

    def test_identity(self):
        assert commutator_length(Word((), F2)) == 0

    def test_x2y2_infinite(self):
        assert commutator_length(parse("x^2 y^2", F2)) is INFINITY

    def test_cap_notation(self):
        assert commutator_length(parse("[x,y]^3", F2), genus_cap=1) == ">1"

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_culler_family(self, n):
        # cl([x,y]^n) = n // 2 + 1 (Culler, Topology 20, 1981)
        assert commutator_length(parse(f"[x,y]^{n}", F2)) == n // 2 + 1

    def test_sixth_power_over_the_matching_cap(self):
        with pytest.raises(UndecidedError) as exc:
            commutator_length(parse("[x,y]^6", F2))
        assert str(exc.value) == \
            "matching enumeration needs 518400+ collections, over the cap"

    def test_subdivision_one_decides_fifth_power(self):
        # letter pairings realize cl (Culler); only a higher-subdivision
        # enumeration of [x,y]^5 would overflow the matching cap
        w = parse("[x,y]^5", F2)
        assert commutator_length(w) == 3
        rep = analyze(w, F2)
        assert rep.cl == 3 and rep.undecided == {}


class TestStandardSurfaceWord:
    def test_genus_one(self):
        assert standard_surface_word(1) == parse("[x,y]", 2)

    def test_genus_two(self):
        w = standard_surface_word(2)
        assert len(w) == 8 and w.rank == 4
        assert w.abelianization() == (0, 0, 0, 0)


class TestCommCrit:
    def test_commutator(self):
        graphs, count = comm_crit(parse("[x,y]", F2), F2)
        assert count == 1
        whole = core_graph([parse("x", F2), parse("y", F2)], F2)
        assert graphs[0] == whole

    def test_commutator_of_square(self):
        # two distinct subgroups host [x,y^2] as a basis commutator; the
        # trace-moment coefficient of 1/n doubles accordingly
        w = parse("[x,y^2]", F2)
        graphs, count = comm_crit(w, F2)
        assert count == 2
        # explicit certificates: w = [x, y^2] in <x, y^2>, and
        # w = [xy, yx^-1] in <xy, yx^-1>
        from wml.words import commutator
        first = core_graph([parse("x", F2), parse("y^2", F2)], F2)
        a, b = parse("x y", F2), parse("y X", F2)
        assert commutator(a, b) == w
        second = core_graph([a, b], F2)
        keys = {g.serialize() for g in graphs}
        assert first.serialize() in keys
        assert second.serialize() in keys
        assert first != second

    def test_x2y2_empty(self):
        graphs, count = comm_crit(parse("x^2 y^2", F2), F2)
        assert count == 0 and graphs == []

    def test_odd_pi_empty(self):
        graphs, count = comm_crit(parse("x^2 y^2 z^2", 3), 3)
        assert count == 0

    def test_rejects_powers(self):
        with pytest.raises(ValueError):
            comm_crit(parse("x^2", F2), F2)

    def test_contained_in_critical_subgroups(self):
        for text in ["[x,y]", "[x,y^2]"]:
            w = parse(text, F2)
            crit_keys = {g.serialize() for g in critical_subgroups(w, F2)}
            graphs, _ = comm_crit(w, F2)
            for g in graphs:
                assert g.serialize() in crit_keys


class TestCriticalSubgroups:
    def test_square(self):
        graphs = critical_subgroups(parse("x^2", F2), F2)
        assert len(graphs) == 1
        assert graphs[0].subgroup_rank == 1

    def test_commutator_includes_whole_group(self):
        graphs = critical_subgroups(parse("[x,y]", F2), F2)
        whole = core_graph([parse("x", F2), parse("y", F2)], F2)
        assert any(g == whole for g in graphs)

    def test_primitive_empty(self):
        assert critical_subgroups(parse("x", F2), F2) == []


class TestClVsMomentDecay:
    def test_powers_of_commutator(self):
        # the least surface genus bounds the trace-moment decay:
        # E[tr] has Laurent order at most 1 - 2cl; both powers of [x,y]
        # attain the bound exactly
        from wml.ratfunc import Polynomial, RationalFunction
        from wml.weingarten import moment

        w2 = parse("[x,y]", F2) ** 2
        assert commutator_length(w2) == 2
        f2 = moment(w2, (1,))
        assert f2 == RationalFunction(Polynomial((-4,)), Polynomial((0, -1, 0, 1)))
        assert f2.laurent_order == -3

        w3 = parse("[x,y]", F2) ** 3
        assert commutator_length(w3) == 2
        f3 = moment(w3, (1,))
        assert f3.laurent_order == 1 - 2 * 2

    def test_bound_on_random_balanced_words(self):
        import random

        rng = random.Random(77)
        checked = 0
        while checked < 6:
            letters = [rng.choice([1, 2, -1, -2]) for _ in range(rng.randint(2, 8))]
            w = Word(letters, F2)
            if w.is_identity() or any(w.abelianization()):
                continue
            cl = commutator_length(w)
            if isinstance(cl, str):
                continue
            checked += 1
            from wml.weingarten import moment
            f = moment(w, (1,))
            if not f.is_zero():
                assert f.laurent_order <= 1 - 2 * cl, str(w)


class TestPiVsCl:
    def test_bound_on_corpus(self):
        for text, rank in [("[x,y]", 2), ("[x,y^2]", 2), ("[x,y]^3", 2)]:
            w = parse(text, rank)
            pi = primitivity_rank(w, rank)[0]
            cl = commutator_length(w)
            if pi is not INFINITY and not isinstance(cl, str) \
                    and cl is not INFINITY:
                assert pi <= 2 * cl


class TestAnalyze:
    def test_full_report(self):
        rep = analyze(parse("[x,y]", F2), F2)
        assert rep.pi == 2 and rep.cl == 1 and rep.comm_crit_count == 1
        data = rep.to_json()
        assert data["pi"] == 2 and data["cl"] == 1
        assert data["comm_crit_count"] == 1
        assert len(data["comm_crit"]) == 1
        assert not data["undecided"]

    def test_unused_generators_cost_nothing(self, monkeypatch):
        # the primitivity search runs in the factor of the letters used:
        # the 2 * 12 * (4^11 - 1) Whitehead tables of F_12, about 10^8,
        # are never built
        import time

        import wml.whitehead

        tables = wml.whitehead.type_ii_autos

        def small_rank_only(rank):
            assert rank <= 2, f"Whitehead tables of rank {rank} asked for"
            return tables(rank)

        monkeypatch.setattr(wml.whitehead, "type_ii_autos", small_rank_only)
        start = time.perf_counter()
        wide = analyze(parse("[x,y]", 12), 12).to_json()
        assert time.perf_counter() - start < 1
        assert wide == {**analyze(parse("[x,y]", F2), F2).to_json(),
                        "rank": 12}

    def test_infinite_values_serialize(self):
        rep = analyze(parse("x", F2), F2)
        data = rep.to_json()
        assert data["pi"] == "inf" and data["cl"] == "inf"

    def test_power_report(self):
        rep = analyze(parse("x^3", F2), F2)
        assert rep.pi == 1
        assert rep.proper_power[0] and rep.proper_power[2] == 3
        assert rep.comm_crit_count == 0

    def test_undecided_on_cap(self):
        rep = analyze(parse("[x,y]", F2), F2, fringe_cap=3)
        assert rep.pi == "undecided"
        assert "pi" in rep.undecided
        data = rep.to_json()
        assert data["pi"] == "undecided"

    def test_cl_undecided_on_a_huge_count(self):
        # 2000! matchings of x: a count too long for str() is still a cap
        rep = analyze(parse("[x^2000,y]", F2), F2)
        assert rep.cl == "undecided"
        assert rep.undecided["cl"] == "matching enumeration needs at least " \
            "10^4300 collections, over the cap"

    def test_one_fringe_pass(self, monkeypatch):
        import wml.invariants

        calls = []

        def counting_fringe(*args, **kwargs):
            calls.append(args)
            return fringe(*args, **kwargs)

        monkeypatch.setattr(wml.invariants, "fringe", counting_fringe)
        rep = analyze(parse("[x,y]", F2), F2)
        assert rep.pi == 2 and rep.comm_crit_count == 1
        assert len(calls) == 1

    @pytest.mark.parametrize("text", ["", "x", "x^3", "[x,y]", "[x,y]^2",
                                      "x^2 y^2"])
    def test_one_proper_power_test(self, monkeypatch, text):
        calls = []
        is_proper_power = Word.is_proper_power

        def counting(self):
            calls.append(self)
            return is_proper_power(self)

        monkeypatch.setattr(Word, "is_proper_power", counting)
        analyze(parse(text, F2) if text else Word((), F2), F2)
        assert len(calls) == 1

    def test_builds_only_the_swept_uncertified_graphs(self, monkeypatch):
        # [x,[x,y]] has 174 quotients; w's loop crosses an edge once in
        # all but 4 (two of rank 2, two of rank 3), which make its open
        # fringe, and pi = 2, so the sweep builds the two of rank 2,
        # besides the core graph of <w>
        import wml.stallings

        w = parse("[x,[x,y]]", F2)
        uncertified = open_bell_fringe(w)
        assert [g.subgroup_rank for g in uncertified] == [2, 2, 3, 3]
        core = core_graph([w], F2).serialize()
        built = []
        quotient = wml.stallings._quotient

        def counting_quotient(*args, **kwargs):
            built.append(quotient(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(wml.stallings, "_quotient", counting_quotient)
        rep = analyze(w, F2)
        assert rep.pi == 2
        assert built[0].serialize() == core
        assert sorted(g.serialize() for g in built[1:]) == \
            [g.serialize() for g in uncertified[:2]]

    def test_reports_pinned(self):
        # sha256 of the reports of 100 seeded random words of ranks 2-3 and
        # lengths 3-10, recorded before the fringe sweep read congruences on
        # the union-find state
        import hashlib
        import json
        import random

        rng = random.Random(13)
        digest = hashlib.sha256()
        for _ in range(100):
            rank, length = rng.randint(2, 3), rng.randint(3, 10)
            letters = []
            while len(letters) < length:
                a = rng.choice((1, -1)) * rng.randint(1, rank)
                if not letters or a != -letters[-1]:
                    letters.append(a)
            w = Word(letters, rank)
            report = json.dumps(analyze(w, rank).to_json(), sort_keys=True)
            digest.update(report.encode() + b"\n")
        assert digest.hexdigest() == \
            "f561ea3b660fc2300b5367dafd2c6bd6aa41b22842fbaf2b195d9ebad8e602eb"

    def test_primitive_word_skips_fringe(self, monkeypatch):
        # a primitive word is primitive in every subgroup containing it,
        # so pi = inf is settled before the fringe, whatever its cap
        import wml.invariants

        def no_fringe(*args, **kwargs):
            raise AssertionError("fringe called on a primitive word")

        monkeypatch.setattr(wml.invariants, "fringe", no_fringe)
        for text, rank in [("x y x y^2", 2), ("x1 x2 x3 x4 x5 x6", 6)]:
            rep = analyze(parse(text, rank), rank, fringe_cap=2)
            assert rep.pi == INFINITY and rep.pi_witnesses == []
            assert rep.undecided == {}
            assert rep.to_json()["pi"] == "inf"

    def test_one_primitivity_test_per_distinct_word(self, monkeypatch):
        # a graph whose loop crosses an edge once is certified without a
        # test; the sweep tests each (rank, least rotation of the cyclic
        # core) of the other rewrites once, so conjugate rewrites share
        # the verdict
        import wml.invariants
        from wml.whitehead import is_primitive

        calls = []

        def counting_is_primitive(word, rank):
            calls.append((word, rank))
            return is_primitive(word, rank)

        monkeypatch.setattr(wml.invariants, "is_primitive",
                            counting_is_primitive)
        for text, rank, pi, uncertified, tested in [
            ("[x1,x2][x3,x4]", 4, 4, 1, 1),
            ("x^2y^2x^-2y^-2", 2, 2, 8, 6),
        ]:
            calls.clear()
            w = parse(text, rank)
            rep = analyze(w, rank)
            assert rep.pi == pi
            swept = [g for g in bell_fringe(w) if g.subgroup_rank <= rep.pi]
            rewrites = [(g, g.rewrite(w)) for g in swept]
            tested_rewrites = [(g, r) for g, r in rewrites
                               if not g.crosses_an_edge_once(w)]
            keys = {(g.subgroup_rank,
                     min(c[i:] + c[:i] for c in [r.cyclic_reduce()[0].letters]
                         for i in range(max(1, len(c)))))
                    for g, r in tested_rewrites}
            assert len(tested_rewrites) == uncertified, text
            assert len(calls) == len(keys) == tested, text
            unmemoized = [(g.serialize(), str(r)) for g, r in rewrites
                          if not is_primitive(r, g.subgroup_rank)]
            assert [(g.serialize(), str(r))
                    for g, r in rep.pi_witnesses] == unmemoized

    def test_twelve_vertex_fringe_decided(self):
        # the core graph has 12 vertices, the default fringe cap
        rep = analyze(parse("x^3y^3x^-3y^-3", F2), F2)
        assert rep.undecided == {}
        assert rep.pi == 2 and rep.cl == 1

    def test_genus_cap_only_formats_cl(self):
        # comm_crit compares the uncapped genus with pi/2, so a cap below
        # the genus changes the printed cl and nothing else
        rep = analyze(parse("[x,y]", F2), F2, genus_cap=0)
        assert rep.cl == ">0"
        assert rep.comm_crit_count == 1

    def test_undecided_genus_leaves_comm_crit_open(self, monkeypatch):
        import wml.invariants

        def capped_search(word):
            raise UndecidedError("matching cap")

        monkeypatch.setattr(wml.invariants, "minimal_single_boundary_genus",
                            capped_search)
        rep = analyze(parse("[x,y]", F2), F2)
        assert rep.pi == 2 and rep.cl == "undecided"
        assert rep.comm_crit_count == "undecided"
        assert rep.undecided == {"cl": "matching cap",
                                 "comm_crit": "matching cap"}
        # an odd pi settles comm_crit without the genus
        rep = analyze(parse("[x,y][x,z]", 3), 3)
        assert rep.pi == 3 and rep.cl == "undecided"
        assert rep.comm_crit_count == 0 and "comm_crit" not in rep.undecided
