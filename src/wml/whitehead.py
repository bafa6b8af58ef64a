"""Whitehead automorphisms: word minimization, primitivity, free factors,
and automorphism-orbit equivalence.

All questions answered here are conjugacy-invariant, so the search runs on
cyclic cores (cyclically reduced letter tuples), automorphisms act on them
as tables of letter images, and all lengths are cyclic lengths.

The classical facts used:

* any word not of minimal cyclic length in its Aut(F_k)-orbit admits a
  length-reducing Whitehead automorphism of the second kind (so greedy
  minimization terminates at the orbit minimum);
* two minimal words in the same orbit are connected by a chain of
  length-preserving Whitehead automorphisms (so breadth-first search of the
  minimal level decides orbit equivalence);
* a word of minimal length lies in a proper free factor iff some word of
  its minimal level omits a generator;
* Whitehead's cut-vertex lemma (Whitehead, Ann. Math. 37, 1936;
  Heusener-Weidmann, 2019): over F_k with k >= 2, the Whitehead graph of a
  cyclically reduced word that is primitive, or lies in a proper free
  factor, is disconnected or has a cut vertex.  So a connected graph with
  no cut vertex certifies non-primitivity without a search.  At k = 1 the
  graph of x^m is the same for every m, so the lemma says nothing there.

Letter-permuting automorphisms (first kind) never change lengths or the
set of generators used, so search states are normalized modulo them.  The
least relabeling of a fixed sequence is found greedily: relabeling the
generators in order of first appearance onto u, u-1, ..., each with the
sign that makes its first letter negative, puts the least possible letter
at each position where a choice is still open, and the positions before
it do not depend on that choice.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .errors import UndecidedError
from .words import Word, cyclic_core, free_reduce

DEFAULT_ORBIT_CAP = 10 ** 6


@lru_cache(maxsize=None)
def type_ii_autos(rank):
    """All nontrivial Whitehead automorphisms of the second kind for F_rank,
    as a tuple built once per rank.

    The automorphism (A, a), with a in A and a^-1 not in A, fixes a and maps
    a generator x != a^±1 to x a if only x is in A, to a^-1 x if only x^-1
    is, to a^-1 x a if both are, and to x if neither is.  Each is a table of
    images indexed by signed letter: ``images[g]`` is the image of g and
    ``images[-g]`` that of g^-1 (index 0 is unused).  Tables with the same
    multiplier share their image tuples.
    """
    signed = [g for g in range(1, rank + 1)] + [-g for g in range(1, rank + 1)]
    out = []
    for a in signed:
        # the images of g and g^-1 for each (g^-1 in A, g in A), shared by
        # every table with this multiplier
        pairs = {}
        for g, pre, post in product(range(1, rank + 1), (False, True),
                                    (False, True)):
            image = (g,)
            if g != abs(a):
                image = ((-a,) if pre else ()) + image + ((a,) if post else ())
            pairs[g, pre, post] = image, tuple(-x for x in reversed(image))
        others = [x for x in signed if x != a and x != -a]
        for bits in product((False, True), repeat=len(others)):
            chosen = {a} | {x for x, keep in zip(others, bits) if keep}
            if len(chosen) == 1:
                continue  # identity map
            images = [None] * (2 * rank + 1)
            for g in range(1, rank + 1):
                images[g], images[-g] = pairs[g, -g in chosen, g in chosen]
            out.append(tuple(images))
    return tuple(out)


def _image(images, core):
    """The cyclic core of the image of a cyclic core under an automorphism
    table."""
    out = []
    for letter in core:
        for x in images[letter]:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return cyclic_core(out)


def type_i_canonical(letters):
    """Minimal cyclic form of a letter tuple over all letter permutations
    and inversions.

    Used as the search-state key: states differing by an automorphism of the
    first kind are interchangeable for every question asked here.  Each
    rotation of the cyclic core is relabeled greedily onto -u..u, for the
    u generators of ``letters``, and the least of these is the key: O(L^2)
    letters, not u! * 2^u cyclic keys.
    """
    u = len({abs(a) for a in letters})  # cancelled generators count too
    core = cyclic_core(free_reduce(letters))
    keys = []
    for start in range(len(core)):
        to = {}  # generator -> its signed label
        relabeled = []
        for a in core[start:] + core[:start]:
            g = abs(a)
            if g not in to:
                label = u - len(to)
                to[g] = -label if a > 0 else label
            relabeled.append(to[g] if a > 0 else -to[g])
        keys.append(tuple(relabeled))
    return min(keys, default=())


def _core_in_rank(w, rank):
    """The cyclic core of w, checked to use only generators 1..rank."""
    core = cyclic_core(w.letters)
    if any(abs(a) > rank for a in core):
        raise ValueError(f"{w} has letters outside rank {rank}")
    return core


def _whitehead_certificate(core, rank):
    """Whether the Whitehead graph of a nonempty cyclic core over
    generators 1..rank is connected and has no cut vertex.

    The vertices are the letters +-1..+-rank, with one edge {a, -b} for
    each cyclically consecutive pair (a, b) of the core.  For rank >= 2
    such a graph certifies, by the cut-vertex lemma, that the core is
    neither primitive nor in a proper free factor.
    """
    neighbours = {a: set() for g in range(1, rank + 1) for a in (g, -g)}
    pairs = set(zip(core, core[1:]))
    pairs.add((core[-1], core[0]))
    for a, b in pairs:
        neighbours[a].add(-b)
        neighbours[-b].add(a)

    def connected_without(cut):
        start = next(a for a in neighbours if a != cut)
        seen = {start, cut}
        stack = [start]
        while stack:
            for b in neighbours[stack.pop()] - seen:
                seen.add(b)
                stack.append(b)
        return seen.issuperset(neighbours)

    return all(connected_without(cut) for cut in (None, *neighbours))


def _minimal_core(letters, rank):
    """Greedy Whitehead minimization of a cyclic core over F_rank: a cyclic
    core of minimal length in its Aut(F_rank)-orbit."""
    current = letters
    while current:
        for images in type_ii_autos(rank):
            core = _image(images, current)
            if len(core) < len(current):
                current = core
                break
        else:
            break  # no automorphism shortens it
    return current


def minimize(w, rank):
    """Greedy Whitehead minimization: a cyclically reduced word of minimal
    cyclic length in the Aut(F_rank)-orbit of w."""
    return Word(_minimal_core(_core_in_rank(w, rank), rank), w.rank)


def is_primitive(w, rank):
    """A nontrivial word is primitive iff its minimal cyclic length is 1.

    A word in the free factor of the generators it uses is primitive in
    F_rank iff it is primitive there, so the search runs in that factor:
    the core is relabeled onto 1..u, in order, for its u generators.  For
    u >= 2 a Whitehead graph with no cut vertex answers False before any
    search.
    """
    core = _core_in_rank(w, rank)
    used = sorted({abs(a) for a in set(core)})  # set() first: few letters
    if len(used) < rank:
        to = {g: i + 1 for i, g in enumerate(used)}
        core = tuple(to[a] if a > 0 else -to[-a] for a in core)
        rank = len(used)
    if rank >= 2 and _whitehead_certificate(core, rank):
        return False
    return bool(core) and len(_minimal_core(core, rank)) == 1


def _minimal_level(w, core, rank, orbit_cap, stop):
    """Breadth-first search of the minimal level of the orbit of the
    minimal cyclic core ``core``; whether ``stop`` (a predicate on states)
    fires on one of its states.

    States are canonical forms modulo first-kind automorphisms; moves are
    length-preserving second-kind automorphisms.  The cap message names
    ``w``.
    """
    start = type_i_canonical(core)
    if stop(start):
        return True
    seen = {start}
    if len(seen) > orbit_cap:
        raise UndecidedError(f"orbit level of {w} exceeds the cap {orbit_cap}")
    frontier = [core]
    while frontier:
        next_frontier = []
        for state in frontier:
            for images in type_ii_autos(rank):
                image = _image(images, state)
                if len(image) != len(core):
                    continue
                key = type_i_canonical(image)
                if key in seen:
                    continue
                if len(seen) >= orbit_cap:
                    raise UndecidedError(
                        f"orbit level of {w} exceeds the cap {orbit_cap}"
                    )
                seen.add(key)
                if stop(key):
                    return True
                next_frontier.append(key)
        frontier = next_frontier
    return False


def in_proper_free_factor(w, rank, orbit_cap=DEFAULT_ORBIT_CAP):
    """Whether w is contained in a proper free factor of F_rank.

    True iff some word of the minimal orbit level omits a generator.
    Raises :class:`UndecidedError` when the level exceeds the cap.
    """
    if w.is_identity():
        raise ValueError("the trivial word lies in every free factor")
    if rank == 1:
        return False

    def omits_generator(state):
        return len({abs(a) for a in state}) < rank

    minimal = _minimal_core(_core_in_rank(w, rank), rank)
    return _minimal_level(w, minimal, rank, orbit_cap, omits_generator)


def orbit_equivalent(u, v, rank, orbit_cap=DEFAULT_ORBIT_CAP):
    """Aut(F_rank)-orbit equivalence of two words (up to conjugacy).

    Words whose cyclic cores differ by a letter permutation and inversion
    are equivalent without a search.
    """
    cu = _core_in_rank(u, rank)
    cv = _core_in_rank(v, rank)
    if type_i_canonical(cu) == type_i_canonical(cv):
        return True
    mu = minimize(u, rank)
    mv = minimize(v, rank)
    if len(mu) != len(mv):
        return False
    target = type_i_canonical(mv.letters)
    return _minimal_level(mu, mu.letters, rank, orbit_cap,
                          lambda s: s == target)
