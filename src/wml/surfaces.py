"""Surfaces glued from annuli along letter matchings.

Given boundary words (one annulus each, subdivided into one quadrilateral
per letter sub-segment), a matching collection picks, for every generator x
and every subdivision index j, a perfect matching between the (x, j) and
(x^-1, j) sub-segments across all words.  Gluing matched outer edges with
reversed orientation yields a compact oriented surface whose boundary
circles are the inner circles of the annuli.

Everything topological is computed combinatorially: Euler characteristics
by union-find over the outer corners, genus from chi = 2 - 2g - b, and
the image subgroup of a component from the dual graph whose vertices are
the regions between cut arcs and whose edges are the matched pairs of the
first subdivision level.
"""

from __future__ import annotations

from collections import Counter
from itertools import (accumulate, chain, combinations_with_replacement,
                       permutations, product)

from .errors import UndecidedError, capped_multisets, capped_product, count_text
from .stallings import fold
from .words import is_balanced

DEFAULT_SPEC_CAP = 200_000


class MatchingSpec:
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

    def __setattr__(self, name, value):
        raise AttributeError("MatchingSpec is immutable")

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


class SurfaceComponent:
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

    def __setattr__(self, name, value):
        raise AttributeError("SurfaceComponent is immutable")

    def __repr__(self):
        return (
            f"SurfaceComponent(annuli={self.annuli}, chi={self.chi}, "
            f"boundary={self.boundary}, genus={self.genus})"
        )


class SurfaceComplex:
    """The glued surface: cellulation counts, gluing list, components."""

    __slots__ = ("spec", "sub_letters", "glue_pairs", "components", "chi",
                 "cells")

    def __init__(self, spec, sub_letters, glue_pairs, components, cells):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "sub_letters", sub_letters)
        object.__setattr__(self, "glue_pairs", tuple(glue_pairs))
        object.__setattr__(self, "components", tuple(components))
        object.__setattr__(self, "chi", sum(c.chi for c in components))
        object.__setattr__(self, "cells", cells)  # total (V, E, F)

    def __setattr__(self, name, value):
        raise AttributeError("SurfaceComplex is immutable")

    def image_subgroup(self, component_index):
        """Folded graph of the subgroup generated by the images of all
        marked-point-to-marked-point paths of the component."""
        return _dual_graph(self, component_index)

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

    members = {}
    for m in range(len(words)):
        members.setdefault(_find(annulus, m), []).append(m)
    glued = Counter(_find(annulus, m) for (_, _, (m, _), _) in glue_pairs)
    components = []
    for root in sorted(members):
        classes = sum(corner[x] == x for m in members[root]
                      for x in range(offset[m], offset[m + 1]))
        components.append(SurfaceComponent(members[root], classes - glued[root],
                                           boundary=len(members[root])))
    faces = offset[-1]
    cells = (faces + sum(c.chi for c in components) + len(glue_pairs),
             2 * faces + len(glue_pairs), faces)
    return SurfaceComplex(spec, tuple(sub_letters), glue_pairs, components,
                          cells)


def _dual_graph(surface, component_index):
    """Fold the dual graph of a component: one vertex per region between
    the first-level arcs, one labeled edge per first-level matched pair,
    and the regions holding the annulus basepoints wedged together.

    Each sub-quadrilateral ``(m, q)`` has a corner on either side of its
    arc, and the joins of neighbouring corners are folded together with the
    labeled edges."""
    members = sorted(surface.components[component_index].annuli)
    offset, total = {}, 0
    for m in members:
        offset[m] = total
        total += len(surface.sub_letters[m])

    def corner(m, q, side):
        return 2 * (offset[m] + q) + side

    basepoint = corner(members[0], 0, 0)
    joins = [(corner(m, 0, 0), basepoint) for m in members]
    for m in members:
        size = len(surface.sub_letters[m])
        joins += [(corner(m, q, 1), corner(m, (q + 1) % size, 0))
                  for q in range(size)]
    edges = []
    for (gen, j, (m, q), (m2, q2)) in surface.glue_pairs:
        if m not in offset:
            continue
        joins += [(corner(m, q, 0), corner(m2, q2, 1)),
                  (corner(m, q, 1), corner(m2, q2, 0))]
        if j != 1:
            # no arc at this level: the whole double-quad is one region
            joins.append((corner(m, q, 0), corner(m, q, 1)))
            continue
        if surface.sub_letters[m][q][1] < 0:
            raise RuntimeError("glue pairs store the positive occurrence first")
        # crossing the arc in word direction at the positive occurrence
        # reads the generator
        edges.append((corner(m, q, 0), corner(m, q, 1), gen))
    return fold(2 * total, edges, basepoint,
                max(w.rank for w in surface.spec.words), identify=joins)


def enumerate_matchings(words, max_subdivision=1, spec_cap=DEFAULT_SPEC_CAP):
    """All matching collections with at most ``max_subdivision`` matchings
    per generator, one per multiset of matchings (permuting the subdivision
    indices gives the same surface).

    A generator with p positive letters has p! single matchings, and so
    C(p! + K, K) - 1 multisets of 1..K of them (K = ``max_subdivision``);
    ``spec_cap`` bounds the product of these counts before any letter
    occurrence is listed.  Yields :class:`MatchingSpec` objects.
    """
    if max_subdivision < 1:
        raise ValueError(f"max_subdivision must be at least 1, got "
                         f"{max_subdivision}")
    words = list(words)
    balanced, counts = is_balanced(words)
    if not balanced:
        raise ValueError("only balanced collections bound surfaces")
    gens = sorted(counts)
    total = 1
    for g in gens:
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

    occ = _occurrences(tuple(words))
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
    single boundary word, at most ``DEFAULT_SPEC_CAP`` of them; 0 for the
    identity, which bounds a disc, and None when the word is not
    balanced."""
    if word.is_identity():
        return 0
    specs = enumerate_matchings([word], 1, DEFAULT_SPEC_CAP)
    try:
        first = next(specs)
    except ValueError:  # raised only for an unbalanced word
        return None
    # one boundary word glues into one connected component
    return min(
        build_surface(spec).components[0].genus
        for spec in chain((first,), specs)
    )
