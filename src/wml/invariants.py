"""Word invariants: primitivity rank, commutator length, and the subgroups
in which a word is a product of basis commutators.

The primitivity rank pi(w) is the least rank of a subgroup containing w as
a non-primitive element (infinity for primitive w).  Minimal witnesses are
algebraic extensions of <w>, and every algebraic extension appears among
the folded quotients of the core graph of <w>, so the fringe enumeration is
a complete search space.

The commutator length is the least genus of an orientable one-boundary
surface spelling w.  By Culler, *Using surfaces to solve equations in free
groups* (Topology 20, 1981), a genus-minimal such surface can be glued from
the boundary annulus by pairing every letter with an inverse letter, so the
subdivision-1 matchings of :mod:`wml.surfaces` already realize cl(w).

Resource caps raise :class:`~wml.errors.UndecidedError`; the report format
records "undecided" rather than guessing a value.
"""

from __future__ import annotations

import math

from .errors import Immutable, UndecidedError
from .stallings import DEFAULT_FRINGE_VERTEX_CAP, core_graph, fringe
from .surfaces import minimal_single_boundary_genus
from .whitehead import DEFAULT_ORBIT_CAP, in_proper_free_factor, is_primitive, \
    orbit_equivalent
from .words import Word, _least_rotation, cyclic_core

INFINITY = math.inf
DEFAULT_GENUS_CAP = 3


def standard_surface_word(genus):
    """[a_1, b_1] ... [a_g, b_g] over rank 2g, in literal generator order."""
    letters = []
    for i in range(genus):
        a, b = 2 * i + 1, 2 * i + 2
        letters.extend([a, b, -a, -b])
    return Word(letters, max(1, 2 * genus))


def primitivity_rank(w, rank, fringe_cap=DEFAULT_FRINGE_VERTEX_CAP):
    """pi(w) together with the minimal-rank witnesses.

    Returns ``(pi, witnesses)`` where each witness is a pair
    ``(graph, w rewritten in the graph's basis)``.
    """
    return _primitivity_rank(w, rank, fringe_cap, w.is_proper_power())


def _primitivity_rank(w, rank, fringe_cap, proper_power):
    """:func:`primitivity_rank`, given ``proper_power``, the value of
    ``w.is_proper_power()``."""
    if w.is_identity():
        return 0, []
    power, root, exponent = proper_power
    if power:
        return 1, [(core_graph([root], rank), Word((1,) * exponent, 1))]
    # primitivity is invariant under conjugation, so each word is tested
    # once per rank and least rotation of its cyclic core, and the test
    # runs on that rotation
    primitive = {}

    def primitive_in(word, r):
        core = cyclic_core(word.letters)
        k, _ = _least_rotation(core)
        least = core[k:] + core[:k]
        if (r, least) not in primitive:
            word = Word._reduced(least, word.rank)
            primitive[r, least] = is_primitive(word, r)
        return primitive[r, least]

    # a primitive element is primitive in every subgroup containing it, so
    # the fringe could only confirm pi = infinity
    if primitive_in(w, w.rank):
        return INFINITY, []
    # the fringe comes in rising subgroup rank, and every graph in it
    # contains w, so none has rank 0 and every rewrite succeeds; the graphs
    # in which w's loop crosses some edge once are left out of it, since w
    # is primitive there.  The first rank with a witness is pi.
    witnesses = []
    for r, graphs in fringe(w, vertex_cap=fringe_cap).uncertified():
        for graph in graphs:
            rewritten = graph.rewrite(w)
            if not primitive_in(rewritten, r):
                witnesses.append((graph, rewritten))
        if witnesses:
            return r, witnesses
    return INFINITY, []


def is_algebraic_extension(graph, w, orbit_cap=DEFAULT_ORBIT_CAP):
    """Whether the subgroup is an algebraic extension of <w>: it contains w
    and w lies in no proper free factor of it."""
    rewritten = graph.rewrite(w)
    if rewritten is None:
        raise ValueError("the word is not a member of the subgroup")
    if rewritten.is_identity():
        raise ValueError("algebraic extensions are defined for nontrivial words")
    r = max(1, graph.subgroup_rank)
    return not in_proper_free_factor(rewritten, r, orbit_cap=orbit_cap)


def _least_genus(w):
    """Uncapped cl(w) from the subdivision-1 surface search: 0 for the
    identity, infinite when an exponent total is nonzero."""
    genus = minimal_single_boundary_genus(w)
    return INFINITY if genus is None else genus


def _capped(genus, genus_cap):
    """cl as reported: ">{genus_cap}" for a finite positive genus above the
    cap."""
    if genus in (0, INFINITY) or genus <= genus_cap:
        return genus
    return f">{genus_cap}"


def commutator_length(w, genus_cap=DEFAULT_GENUS_CAP):
    """cl(w): least genus writing w as a product of commutators.

    Infinite when the exponent totals are nonzero; otherwise the least genus
    over the matching-built one-boundary surfaces of subdivision 1, which
    realize cl(w) by Culler's theorem (Topology 20, 1981: a genus-minimal
    surface bounding w is glued by pairing each letter of w with an inverse
    letter).  Returns the string ">{genus_cap}" when the least genus
    exceeds the cap.
    """
    return _capped(_least_genus(w), genus_cap)


def _comm_crit(pi, witnesses, genus, orbit_cap):
    """The witnesses in which w is the standard surface word, when
    pi = 2 * genus.  A ``genus`` that is an :class:`UndecidedError` is
    raised only if pi leaves the answer open."""
    if pi is INFINITY or pi % 2 == 1:
        return [], 0
    if isinstance(genus, UndecidedError):
        raise genus
    if pi != 2 * genus:
        return [], 0
    # w is non-primitive in its standard-surface-word subgroups, so they
    # are among the witnesses of pi
    target = standard_surface_word(pi // 2)
    out = [
        graph for graph, rewritten in witnesses
        if not any(rewritten.abelianization())
        and orbit_equivalent(rewritten, target, pi, orbit_cap=orbit_cap)
    ]
    return out, len(out)


def comm_crit(w, rank, fringe_cap=DEFAULT_FRINGE_VERTEX_CAP,
              orbit_cap=DEFAULT_ORBIT_CAP):
    """Subgroups of rank pi(w) containing w as the standard surface word.

    Returns ``(graphs, count)``.  Empty when pi(w) is odd, infinite, or
    differs from twice the commutator length.
    """
    power, _, _ = w.is_proper_power()
    if w.is_identity() or power:
        raise ValueError("commutator-critical subgroups are defined for "
                         "nontrivial non-powers")
    pi, witnesses = primitivity_rank(w, rank, fringe_cap)
    if pi is INFINITY or pi % 2 == 1:
        return [], 0
    return _comm_crit(pi, witnesses, _least_genus(w), orbit_cap)


def critical_subgroups(w, rank, fringe_cap=DEFAULT_FRINGE_VERTEX_CAP):
    """Subgroups of rank exactly pi(w) containing w as a non-primitive
    element."""
    if w.is_identity():
        raise ValueError("critical subgroups are defined for nontrivial words")
    _, witnesses = primitivity_rank(w, rank, fringe_cap)
    return [graph for graph, _ in witnesses]


class InvariantReport(Immutable):
    """All invariants of a word in one record, JSON-serializable.

    Resource caps leave the affected fields as the string "undecided"
    (with the reason recorded) instead of a value.
    """

    __slots__ = ("word", "rank", "pi", "pi_witnesses", "cl", "comm_crit_graphs",
                 "comm_crit_count", "proper_power", "undecided")

    def __init__(self, word, rank, pi, pi_witnesses, cl, comm_crit_graphs,
                 comm_crit_count, proper_power, undecided):
        for name, value in [
            ("word", word), ("rank", rank), ("pi", pi),
            ("pi_witnesses", pi_witnesses), ("cl", cl),
            ("comm_crit_graphs", comm_crit_graphs),
            ("comm_crit_count", comm_crit_count),
            ("proper_power", proper_power), ("undecided", undecided),
        ]:
            object.__setattr__(self, name, value)

    def to_json(self):
        def encode_value(v):
            if v is INFINITY:
                return "inf"
            return v

        # a word that is no proper power is its own root: render it once
        word = str(self.word)
        root = self.proper_power[1]
        return {
            "word": word,
            "rank": self.rank,
            "pi": encode_value(self.pi),
            "cl": encode_value(self.cl),
            "comm_crit_count": self.comm_crit_count,
            "comm_crit": [g.serialize() for g in self.comm_crit_graphs]
            if isinstance(self.comm_crit_graphs, list) else self.comm_crit_graphs,
            "witnesses": [
                {"graph": g.serialize(), "rewritten": str(r)}
                for (g, r) in self.pi_witnesses
            ] if isinstance(self.pi_witnesses, list) else self.pi_witnesses,
            "proper_power": {
                "is_power": self.proper_power[0],
                "root": word if root is self.word else str(root),
                "exponent": self.proper_power[2],
            },
            "undecided": self.undecided,
        }


def analyze(w, rank, fringe_cap=DEFAULT_FRINGE_VERTEX_CAP,
            orbit_cap=DEFAULT_ORBIT_CAP, genus_cap=DEFAULT_GENUS_CAP):
    """Compute the full invariant report, degrading to "undecided" per field
    when a resource cap fires.  The fringe and the surface search each run
    once and feed every field."""
    undecided = {}
    proper_power = w.is_proper_power()

    try:
        pi, witnesses = _primitivity_rank(w, rank, fringe_cap, proper_power)
    except UndecidedError as exc:
        pi, witnesses = "undecided", "undecided"
        undecided["pi"] = exc.reason

    try:
        genus = _least_genus(w)
        cl = _capped(genus, genus_cap)
    except UndecidedError as exc:
        genus, cl = exc, "undecided"
        undecided["cl"] = exc.reason

    if w.is_identity() or proper_power[0]:
        graphs, count = [], 0
    elif pi == "undecided":
        graphs, count = "undecided", "undecided"
        undecided["comm_crit"] = undecided["pi"]
    else:
        try:
            graphs, count = _comm_crit(pi, witnesses, genus, orbit_cap)
        except UndecidedError as exc:
            graphs, count = "undecided", "undecided"
            undecided["comm_crit"] = exc.reason

    return InvariantReport(
        word=w,
        rank=rank,
        pi=pi,
        pi_witnesses=witnesses,
        cl=cl,
        comm_crit_graphs=graphs,
        comm_crit_count=count,
        proper_power=proper_power,
        undecided=undecided,
    )
