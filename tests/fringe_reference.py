"""The Bell reference fringe, shared by the fringe and invariant tests: it
folds the core graph of <w> under every set partition of its vertices, so
it lists every quotient, open or certified, by a route that shares nothing
with the congruence search of :func:`wml.stallings.fringe` but the fold."""

import functools
import random

from wml.stallings import core_graph, fold
from wml.words import Word, parse


def _set_partitions(n):
    """All set partitions of range(n) as restricted-growth strings."""
    if n == 0:
        yield []
        return
    rgs = [0] * n

    def rec(i, max_used):
        if i == n:
            yield list(rgs)
            return
        for b in range(max_used + 2):
            rgs[i] = b
            yield from rec(i + 1, max(max_used, b))

    yield from rec(1, 0)


@functools.cache
def bell_fringe(w):
    """Every quotient of the core graph of <w>: fold it under every set
    partition of its vertices and deduplicate by canonical form, sorted by
    subgroup rank, then canonical form."""
    base = core_graph([w], w.rank)
    seen = {}
    for rgs in _set_partitions(base.num_vertices):
        identify = [(rgs.index(b), v) for v, b in enumerate(rgs)]
        g = fold(base.num_vertices, base.edges, base.basepoint, base.rank,
                 identify)
        seen.setdefault(g.serialize(), g)
    return tuple(sorted(seen.values(),
                        key=lambda g: (g.subgroup_rank, g.serialize())))


def open_bell_fringe(w):
    """The quotients of :func:`bell_fringe` in which w's loop crosses no
    edge once, in the same order."""
    return [g for g in bell_fringe(w) if not g.crosses_an_edge_once(w)]


def random_reduced_word(rng, rank, length):
    """A uniformly drawn freely reduced word of the given rank and length."""
    letters = []
    while len(letters) < length:
        a = rng.choice((1, -1)) * rng.randint(1, rank)
        if not letters or a != -letters[-1]:
            letters.append(a)
    return Word(letters, rank)


def bell_reference_words():
    """The 21 words of ``test_matches_bell_reference``: [x,[x,y]] (V=9)
    and 20 seeded random freely reduced words with V = 4-8."""
    rng = random.Random(2024)
    words = [parse("[x,[x,y]]", 2)]
    while len(words) < 21:
        rank, length = rng.randint(1, 3), rng.randint(4, 8)
        words.append(random_reduced_word(rng, rank, length))
    return words
