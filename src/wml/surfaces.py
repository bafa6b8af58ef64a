"""Surfaces glued from annuli along letter matchings.

Given boundary words (one annulus each, subdivided into one quadrilateral
per letter sub-segment), a matching collection picks, for every generator x
and every subdivision index j, a perfect matching between the (x, j) and
(x^-1, j) sub-segments across all words.  Gluing matched outer edges with
reversed orientation yields a compact oriented surface whose boundary
circles are the inner circles of the annuli.

Everything topological is computed combinatorially from the outer
corners, glued once by :func:`build_surface`: Euler characteristics by
union-find over them, genus from chi = 2 - 2g - b, and the image subgroup
of a component by folding the corner classes that the surface keeps, with
the matched pairs of the first subdivision level as labeled edges.
"""

from __future__ import annotations

from collections import Counter
from itertools import (accumulate, combinations_with_replacement,
                       permutations, product)

from .errors import (Immutable, UndecidedError, capped_multisets,
                     capped_product, count_text)
from .stallings import fold
from .words import is_balanced

DEFAULT_SPEC_CAP = 200_000


class MatchingSpec(Immutable):
    """Boundary words plus, per generator, one matching per subdivision index.

    A matching is a tuple of pairs ``(positive, negative)`` of letter
    occurrences, each occurrence being ``(word_index, position)``.  The
    words must be nontrivial: an empty annulus has no corners to glue.
    """

    __slots__ = ("words", "matchings")

    def __init__(self, words, matchings):
        words = tuple(words)
        if any(w.is_identity() for w in words):
            raise ValueError("matching specs need nontrivial boundary words")
        occ = _occurrences(words)
        if any(len(pos) != len(neg) for pos, neg in occ.values()):
            raise ValueError("matching specs need balanced word collections")
        sorted_matchings = {}
        for gen, levels in matchings.items():
            pos, neg = occ.get(gen, ([], []))
            sorted_matchings[gen] = tuple(tuple(sorted(m)) for m in levels)
            for matching in sorted_matchings[gen]:
                if [p for p, _ in matching] != pos:
                    raise ValueError(f"matching does not cover the {gen}-letters")
                if sorted(n for _, n in matching) != neg:
                    raise ValueError(
                        f"matching is not a bijection onto the inverse {gen}-letters"
                    )
        for gen, (pos, neg) in occ.items():
            if pos and gen not in matchings:
                raise ValueError(f"no matching supplied for generator {gen}")
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "matchings", sorted_matchings)

    def subdivision(self, gen):
        return len(self.matchings.get(gen, ()))


def _occurrences(words):
    """Per generator: the lists of its positive and of its negative letter
    occurrences, each in order."""
    occ = {}
    for wi, w in enumerate(words):
        for pos, a in enumerate(w.letters):
            lists = occ.setdefault(abs(a), ([], []))
            lists[0 if a > 0 else 1].append((wi, pos))
    return occ


class SurfaceComponent(Immutable):
    """Connected component data: annuli members, chi, boundary count, genus."""

    __slots__ = ("annuli", "chi", "boundary", "genus")

    def __init__(self, annuli, chi, boundary):
        object.__setattr__(self, "annuli", tuple(sorted(annuli)))
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "boundary", boundary)
        genus2 = 2 - boundary - chi
        if genus2 % 2 or genus2 < 0:
            raise RuntimeError(
                f"chi={chi}, boundary={boundary} is not an oriented surface"
            )
        object.__setattr__(self, "genus", genus2 // 2)

    def __repr__(self):
        return (
            f"SurfaceComponent(annuli={self.annuli}, chi={self.chi}, "
            f"boundary={self.boundary}, genus={self.genus})"
        )


class SurfaceComplex(Immutable):
    """The glued surface: cellulation counts, gluing list, components, and
    the class root of every outer corner, numbered as in build_surface."""

    __slots__ = ("spec", "sub_letters", "glue_pairs", "components", "chi",
                 "cells", "corner_roots")

    def __init__(self, spec, sub_letters, glue_pairs, components, cells,
                 corner_roots):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "sub_letters", sub_letters)
        object.__setattr__(self, "glue_pairs", tuple(glue_pairs))
        object.__setattr__(self, "components", tuple(components))
        object.__setattr__(self, "chi", sum(c.chi for c in components))
        object.__setattr__(self, "cells", cells)  # total (V, E, F)
        object.__setattr__(self, "corner_roots", tuple(corner_roots))

    def image_subgroup(self, component_index):
        """Folded graph of the subgroup generated by the images of all
        marked-point-to-marked-point paths of the component.

        Its vertices are the outer corners, each joined to its class root
        from :func:`build_surface`, and the component's corners at the
        annulus basepoints are wedged together.  A pair above level 1 has
        no arc, so its corners join; a first-level pair is an edge from
        corner q to corner q + 1, since crossing its arc in word direction
        at the positive occurrence reads the generator.  The corner classes
        of other components carry no edge, so the fold trims them away."""
        sub_letters = self.sub_letters
        offset = [0, *accumulate(map(len, sub_letters))]
        annuli = self.components[component_index].annuli
        base = offset[annuli[0]]
        joins = list(enumerate(self.corner_roots))
        joins += [(offset[m], base) for m in annuli]
        edges = []
        for (gen, j, (m, q), _) in self.glue_pairs:
            if m not in annuli:
                continue
            start = offset[m] + q
            end = offset[m] + (q + 1) % len(sub_letters[m])
            if j != 1:
                joins.append((start, end))
            elif sub_letters[m][q][1] < 0:
                raise RuntimeError(
                    "glue pairs store the positive occurrence first")
            else:
                edges.append((start, end, gen))
        return fold(offset[-1], edges, base,
                    max(w.rank for w in self.spec.words), identify=joins)

    def to_json(self, images=False):
        """The surface record of ``wml surfaces``; with ``images``, every
        component also carries the rank and serialized graph of its image
        subgroup."""
        components = []
        for i, c in enumerate(self.components):
            record = {"annuli": list(c.annuli), "chi": c.chi,
                      "boundary": c.boundary, "genus": c.genus}
            if images:
                image = self.image_subgroup(i)
                record["image_rank"] = image.subgroup_rank
                record["image_graph"] = image.serialize()
            components.append(record)
        return {
            "cells": {"vertices": self.cells[0], "edges": self.cells[1],
                      "faces": self.cells[2]},
            "annuli": [
                {
                    "word": str(w),
                    "sub_letters": [
                        {"position": t, "letter": a, "level": j}
                        for (t, a, j) in self.sub_letters[m]
                    ],
                }
                for m, w in enumerate(self.spec.words)
            ],
            "gluings": [
                {
                    "generator": g,
                    "level": j,
                    "positive": [m, q],
                    "negative": [m2, q2],
                }
                for (g, j, (m, q), (m2, q2)) in self.glue_pairs
            ],
            "components": components,
        }

    def __repr__(self):
        return f"SurfaceComplex(chi={self.chi}, components={list(self.components)})"


def _find(parent, x):
    """Root of ``x`` in a parent list, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def build_surface(spec):
    """Cellulate the annuli, glue matched outer edges, and read off the
    topology of every connected component.

    An annulus of s sub-quadrilaterals has s inner corners, s inner and s
    radial edges and s faces, and gluing touches none of them; it merges
    outer edges in pairs and outer corners into classes.  So a component's
    chi is its number of outer-corner classes minus its glued pairs.
    """
    words = spec.words
    # each annulus: one quadrilateral per letter sub-segment, levels
    # 1..k along a positive letter and k..1 along a negative one
    sub_letters = []  # per annulus: list of (letter position, letter, level j)
    first = []  # per annulus: index of each letter's first subquad
    for w in words:
        subs = []
        first.append([])
        for t, a in enumerate(w.letters):
            k = spec.subdivision(abs(a))
            levels = range(1, k + 1) if a > 0 else range(k, 0, -1)
            first[-1].append(len(subs))
            subs += [(t, a, j) for j in levels]
        sub_letters.append(tuple(subs))

    glue_pairs = []
    for gen in sorted(spec.matchings):
        k = spec.subdivision(gen)
        for j, matching in enumerate(spec.matchings[gen], start=1):
            for (wi, pos), (wj, njpos) in matching:
                glue_pairs.append((gen, j, (wi, first[wi][pos] + j - 1),
                                   (wj, first[wj][njpos] + k - j)))

    # outer corner q of annulus m is offset[m] + q
    sizes = [len(s) for s in sub_letters]
    offset = [0, *accumulate(sizes)]
    corner = list(range(offset[-1]))
    annulus = list(range(len(words)))
    for (_, _, (m, q), (m2, q2)) in glue_pairs:
        # orientation-reversing: start of one to end of the other
        for a, b in ((offset[m] + q, offset[m2] + (q2 + 1) % sizes[m2]),
                     (offset[m] + (q + 1) % sizes[m], offset[m2] + q2)):
            corner[_find(corner, a)] = _find(corner, b)
        annulus[_find(annulus, m)] = _find(annulus, m2)

    roots = [_find(corner, x) for x in range(offset[-1])]
    members = {}
    for m in range(len(words)):
        members.setdefault(_find(annulus, m), []).append(m)
    glued = Counter(_find(annulus, m) for (_, _, (m, _), _) in glue_pairs)
    components = []
    for root in sorted(members):
        classes = sum(roots[x] == x for m in members[root]
                      for x in range(offset[m], offset[m + 1]))
        components.append(SurfaceComponent(members[root], classes - glued[root],
                                           boundary=len(members[root])))
    faces = offset[-1]
    cells = (faces + sum(c.chi for c in components) + len(glue_pairs),
             2 * faces + len(glue_pairs), faces)
    return SurfaceComplex(spec, tuple(sub_letters), glue_pairs, components,
                          cells, roots)


def _check_collection_count(counts, max_subdivision, spec_cap):
    """Raise :class:`UndecidedError` unless the matching collections of at
    most ``max_subdivision`` matchings per generator, for generators with
    ``counts`` positive letters each, number at most ``spec_cap``.

    A generator with p positive letters has p! single matchings, and so
    C(p! + K, K) - 1 multisets of 1..K of them (K = ``max_subdivision``);
    the count needs no letter occurrence.  Returns the count."""
    total = 1
    for g in sorted(counts):
        singles = capped_product(range(1, counts[g] + 1), spec_cap)
        choices = None if singles is None else \
            capped_multisets(singles, max_subdivision, spec_cap)
        total = None if choices is None else \
            capped_product((total, choices), spec_cap)
        if total is None or total > spec_cap:
            raise UndecidedError(
                f"matching enumeration needs {count_text(total, '+')} "
                "collections, over the cap"
            )
    return total


def count_matchings(words, max_subdivision=1, spec_cap=DEFAULT_SPEC_CAP):
    """The number of matching collections :func:`enumerate_matchings`
    yields, after the same checks and without listing one: raises
    ``ValueError`` for ``max_subdivision`` below 1 or an unbalanced
    collection, and :class:`UndecidedError` over ``spec_cap``."""
    if max_subdivision < 1:
        raise ValueError(f"max_subdivision must be at least 1, got "
                         f"{max_subdivision}")
    balanced, counts = is_balanced(words)
    if not balanced:
        raise ValueError("only balanced collections bound surfaces")
    return _check_collection_count(counts, max_subdivision, spec_cap)


def enumerate_matchings(words, max_subdivision=1, spec_cap=DEFAULT_SPEC_CAP):
    """All matching collections with at most ``max_subdivision`` matchings
    per generator, one per multiset of matchings (permuting the subdivision
    indices gives the same surface).

    ``spec_cap`` bounds the number of collections, counted before any
    letter occurrence is listed.  Yields :class:`MatchingSpec` objects.
    """
    words = list(words)
    count_matchings(words, max_subdivision, spec_cap)

    occ = _occurrences(tuple(words))
    gens = sorted(occ)
    per_gen_choices = []
    for g in gens:
        pos, neg = occ[g]
        single = [tuple(zip(pos, perm)) for perm in permutations(neg)]
        per_gen_choices.append([
            combo for k in range(1, max_subdivision + 1)
            for combo in combinations_with_replacement(single, k)
        ])

    for assignment in product(*per_gen_choices):
        yield MatchingSpec(words, dict(zip(gens, assignment)))


def minimal_single_boundary_genus(word):
    """Least genus over the subdivision-1 matching-built surfaces with the
    single boundary word; 0 for the identity, which bounds a disc, and None
    when the word is not balanced.  Raises :class:`UndecidedError` when
    there are more than ``DEFAULT_SPEC_CAP`` letter pairings.

    A depth-first search pairs each positive letter, generators in order
    and letters in word order, with a free inverse letter, gluing the outer
    corners as :func:`build_surface` does on one annulus, in a union-find
    whose joins are undone from a trail on the way back.  A surface of L
    letters glued from c corner classes has genus (1 + L/2 - c) / 2, and
    gluing never raises c, so a branch is cut once its c cannot beat the
    best genus found.  A nontrivial word bounds no disc, so the search stops
    at the first genus-1 pairing.  No surface is built.
    """
    if word.is_identity():
        return 0
    balanced, counts = is_balanced([word])
    if not balanced:
        return None
    _check_collection_count(counts, 1, DEFAULT_SPEC_CAP)
    letters = word.letters
    size = len(letters)
    inverses = {}
    for q, a in enumerate(letters):
        if a < 0:
            inverses.setdefault(-a, []).append(q)
    slots = [(q, inverses[a]) for a, q in
             sorted((a, q) for q, a in enumerate(letters) if a > 0)]

    parent, weight, trail = list(range(size)), [1] * size, []

    def join(a, b):
        # the smaller class joins the larger, so that finds stay short
        # without the path compression that an undo could not reverse
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            if weight[a] > weight[b]:
                a, b = b, a
            parent[a] = b
            weight[b] += weight[a]
            trail.append(a)

    # per slot: 1 + the index of its glued candidate (0 while none is),
    # and the trail length before that gluing
    n = len(slots)
    tried, marks = [0] * n, [0] * n
    free = [True] * size
    best, depth = size, 0  # size is above every genus
    while depth >= 0:
        q, candidates = slots[depth]
        i = tried[depth]
        if i:
            while len(trail) > marks[depth]:
                a = trail.pop()
                weight[parent[a]] -= weight[a]
                parent[a] = a
            free[candidates[i - 1]] = True
        while i < len(candidates) and not free[candidates[i]]:
            i += 1
        if i == len(candidates):
            tried[depth] = 0
            depth -= 1
            continue
        q2 = candidates[i]
        tried[depth], marks[depth], free[q2] = i + 1, len(trail), False
        # orientation-reversing: start of one to end of the other
        join(q, (q2 + 1) % size)
        join((q + 1) % size, q2)
        # with c = size - len(trail) classes, every completion has genus
        # at least (1 + n - c) / 2
        bound = 1 + len(trail) - n
        if bound >= 2 * best:
            continue
        if depth + 1 < n:
            depth += 1
            continue
        best = bound // 2
        if best == 1:
            return 1
    return best
