"""Whitehead automorphisms: word minimization, primitivity, free factors,
and automorphism-orbit equivalence.

All questions answered here are conjugacy-invariant, so words are handled
through their cyclic reductions and all lengths are cyclic lengths.

The classical facts used:

* any word not of minimal cyclic length in its Aut(F_k)-orbit admits a
  length-reducing Whitehead automorphism of the second kind (so greedy
  minimization terminates at the orbit minimum);
* two minimal words in the same orbit are connected by a chain of
  length-preserving Whitehead automorphisms (so breadth-first search of the
  minimal level decides orbit equivalence);
* a word of minimal length lies in a proper free factor iff some word of
  its minimal level omits a generator.

Letter-permuting automorphisms (first kind) never change lengths or the
set of generators used, so search states are normalized modulo them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product

from .errors import UndecidedError
from .words import Word, cyclic_key

DEFAULT_ORBIT_CAP = 10 ** 6


@dataclass(frozen=True)
class TypeII:
    """Whitehead automorphism (A, a): a in A, -a not in A.

    On a generator x (positive letter, |x| != |a|):
      x in A only      -> x a
      -x in A only     -> a^-1 x
      x and -x in A    -> a^-1 x a
      neither          -> x
    and a maps to itself.
    """

    letters: frozenset
    multiplier: int

    def __post_init__(self):
        if self.multiplier not in self.letters:
            raise ValueError("multiplier must belong to the letter set")
        if -self.multiplier in self.letters:
            raise ValueError("letter set may not contain the multiplier inverse")

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
            for x in image:
                if out and out[-1] == -x:
                    out.pop()
                else:
                    out.append(x)
        return Word(tuple(out), w.rank)

    def inverse(self):
        a = self.multiplier
        return TypeII(frozenset(self.letters - {a}) | {-a}, -a)


@lru_cache(maxsize=None)
def type_ii_autos(rank):
    """All nontrivial Whitehead automorphisms of the second kind for F_rank,
    as a tuple built once per rank."""
    signed = [g for g in range(1, rank + 1)] + [-g for g in range(1, rank + 1)]
    out = []
    for a in signed:
        others = [x for x in signed if x != a and x != -a]
        for bits in product((False, True), repeat=len(others)):
            chosen = frozenset(
                [a] + [x for x, keep in zip(others, bits) if keep]
            )
            if len(chosen) == 1:
                continue  # identity map
            out.append(TypeII(chosen, a))
    return tuple(out)


def type_i_canonical(w):
    """Minimal cyclic form over all letter permutations and inversions.

    Used as the search-state key: states differing by an automorphism of the
    first kind are interchangeable for every question asked here.
    """
    core, _ = w.cyclic_reduce()
    c = core.letters
    if not c:
        return ()
    used = sorted({abs(a) for a in c})
    best = None
    # relabel the occurring letters onto 1..u in every order and sign;
    # unused generators are symmetric and never enter the key
    for perm in permutations(used):
        relabel = {g: i + 1 for i, g in enumerate(perm)}
        for signs in product((1, -1), repeat=len(used)):
            sign_of = dict(zip(perm, signs))
            mapped = tuple(
                relabel[abs(a)] * sign_of[abs(a)] * (1 if a > 0 else -1)
                for a in c
            )
            key = cyclic_key(mapped)
            if best is None or key < best:
                best = key
    return best


def minimize(w, rank):
    """Greedy Whitehead minimization: a cyclically reduced word of minimal
    cyclic length in the Aut(F_rank)-orbit of w."""
    autos = type_ii_autos(rank)
    current, _ = w.cyclic_reduce()
    improved = True
    while improved and len(current) > 0:
        improved = False
        for auto in autos:
            candidate = auto.apply(current)
            core, _ = candidate.cyclic_reduce()
            if len(core) < len(current):
                current = core
                improved = True
                break
    return current


def is_primitive(w, rank):
    """A nontrivial word is primitive iff its minimal cyclic length is 1."""
    if w.is_identity():
        return False
    minimal = minimize(w, rank)
    return len(minimal) == 1


def _minimal_level(w, rank, orbit_cap, stop=None):
    """Breadth-first search of the minimal level of the orbit of w.

    States are canonical forms modulo first-kind automorphisms; moves are
    length-preserving second-kind automorphisms.  Returns the set of states,
    or early when ``stop`` (a predicate on states) fires.
    """
    minimal = minimize(w, rank)
    autos = type_ii_autos(rank)
    start = type_i_canonical(minimal)
    if stop is not None and stop(start):
        return {start}, True
    seen = {start}
    if len(seen) > orbit_cap:
        raise UndecidedError(f"orbit level of {w} exceeds the cap {orbit_cap}")
    frontier = [minimal]
    target_len = len(minimal)
    while frontier:
        next_frontier = []
        for word in frontier:
            for auto in autos:
                candidate = auto.apply(word)
                core, _ = candidate.cyclic_reduce()
                if len(core) != target_len:
                    continue
                key = type_i_canonical(core)
                if key in seen:
                    continue
                if len(seen) >= orbit_cap:
                    raise UndecidedError(
                        f"orbit level of {w} exceeds the cap {orbit_cap}"
                    )
                seen.add(key)
                if stop is not None and stop(key):
                    return seen, True
                next_frontier.append(Word(key, rank))
        frontier = next_frontier
    return seen, False


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

    _, found = _minimal_level(w, rank, orbit_cap, stop=omits_generator)
    return found


def orbit_equivalent(u, v, rank, orbit_cap=DEFAULT_ORBIT_CAP):
    """Aut(F_rank)-orbit equivalence of two words (up to conjugacy)."""
    mu = minimize(u, rank)
    mv = minimize(v, rank)
    if len(mu) != len(mv):
        return False
    if len(mu) == 0:
        return True
    target = type_i_canonical(mv)
    _, found = _minimal_level(mu, rank, orbit_cap, stop=lambda s: s == target)
    return found
