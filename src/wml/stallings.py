"""Stallings core graphs for finitely generated subgroups of a free group.

A labeled graph is a connected directed graph whose edges carry generator
labels, with a basepoint.  A folded graph (no two equal-label edges sharing
a source, nor sharing a target) canonically represents the subgroup of
words readable as loops at the basepoint.

Every graph is folded by one closure, :func:`_close`: it merges given
vertex pairs, then identifies offending edge pairs from a worklist until
none remain; the result is independent of the order in which pairs are
processed, and a trail of the changes is always kept.  :func:`fold` runs
it once, for core graphs and the image subgroups of glued surfaces, and
drops the trail; :func:`fringe` runs it once per join while it lists the
open congruences (fold-closed vertex partitions) of a core graph, each of
which gives one fringe quotient, and rolls each join back from the trail.
Canonical graphs are numbered by the breadth-first walk that gives their
basis tree, :func:`_walk`, so two folded graphs represent the same
subgroup exactly when their serializations coincide.
"""

from __future__ import annotations

from collections import Counter

from .errors import Immutable, UndecidedError
from .words import Word, cyclic_core

DEFAULT_FRINGE_VERTEX_CAP = 12


class LabeledGraph(Immutable):
    """Immutable folded, trimmed, canonically numbered labeled graph.

    Built by :func:`fold` (which :func:`core_graph` calls) and
    :func:`fringe`; the constructor expects data that is already folded
    and canonical.  Subgroup membership is ``rewrite(word) is not None``.
    """

    __slots__ = ("num_vertices", "edges", "basepoint", "rank", "_out", "_in")

    def __init__(self, num_vertices, edges, basepoint, rank):
        edges = tuple(sorted(edges))
        # per vertex, the target of each out-edge and the source of each
        # in-edge by label, the shape of the class maps of _close
        _, out, inc, collisions = _unfolded(num_vertices, edges)
        if collisions:
            raise ValueError("graph is not folded")
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "basepoint", basepoint)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_in", inc)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def subgroup_rank(self):
        """E - V + 1 for a connected graph."""
        return self.num_edges - self.num_vertices + 1

    def _loop(self, word):
        """The edges ``(src, dst, label)`` that the word's loop at the
        basepoint crosses, one per letter; None when the walk leaves the
        graph or ends away from the basepoint (the word is not a member)."""
        out, inc = self._out, self._in
        v = self.basepoint
        crossed = []
        for a in word.letters:
            u = out[v].get(a) if a > 0 else inc[v].get(-a)
            if u is None:
                return None
            crossed.append((v, u, a) if a > 0 else (u, v, -a))
            v = u
        return crossed if v == self.basepoint else None

    def crosses_an_edge_once(self, word):
        """Whether the loop of a member word crosses some edge exactly once.

        Such an edge is no bridge (a closed walk crosses a bridge an even
        number of times), so some spanning tree avoids it and the word,
        rewritten in that tree's basis, uses the edge's letter once: the
        word is primitive in the subgroup.
        """
        crossed = self._loop(word)
        if crossed is None:
            raise ValueError("the word is not a member of the subgroup")
        return 1 in Counter(crossed).values()

    def serialize(self):
        """Canonical text form: the header ``marked: `` (no graph has marked
        vertices; the header keeps the bytes of older reports and caches)
        plus one edge per line."""
        lines = [f"{src} {dst} {lab}" for (src, dst, lab) in self.edges]
        return "\n".join(["marked: "] + lines)

    def __eq__(self, other):
        return (
            isinstance(other, LabeledGraph)
            and self.rank == other.rank
            and self.serialize() == other.serialize()
        )

    def __hash__(self):
        return hash((self.rank, self.serialize()))

    def __repr__(self):
        return (
            f"LabeledGraph(V={self.num_vertices}, E={self.num_edges}, "
            f"rank={self.subgroup_rank})"
        )

    def spanning_tree(self):
        """The tree of :func:`_walk`: parent map {vertex: (parent, signed
        letter)}, in which every parent is numbered below its child, and
        the list of non-tree edges in canonical order."""
        parent = _walk(self.basepoint, self._out, self._in, self.rank)
        # every entry after the basepoint's is a tree edge
        tree_edges = {(p, u, a) if a > 0 else (u, p, -a)
                      for u, (p, a) in list(parent.items())[1:]}
        non_tree = [e for e in self.edges if e not in tree_edges]
        return parent, non_tree

    def basis(self):
        """Free basis of the subgroup, one word per non-tree edge: the tree
        path to its source, its letter, and the tree path back from its
        target."""
        parent, non_tree = self.spanning_tree()
        path = {}
        for v, step in parent.items():  # the walk reaches parents first
            path[v] = [] if step is None else path[step[0]] + [step[1]]
        return [Word(path[src] + [lab] + [-a for a in reversed(path[dst])],
                     self.rank) for (src, dst, lab) in non_tree]

    def rewrite(self, word):
        """Express a loop at the basepoint in basis coordinates.

        Returns a word over a rank-(subgroup rank) alphabet, or None when
        the trace does not close at the basepoint (not a member).
        """
        crossed = self._loop(word)
        if crossed is None:
            return None
        parent, non_tree = self.spanning_tree()
        index = {e: i + 1 for i, e in enumerate(non_tree)}
        letters = [index[edge] if a > 0 else -index[edge]
                   for edge, a in zip(crossed, word.letters) if edge in index]
        return Word(letters, max(1, len(non_tree)))


def fold(num_vertices, edges, basepoint, rank, identify=()):
    """Fold labeled edges on vertices ``0..num_vertices-1`` into a graph.

    Each pair in ``identify`` is merged, and then every pair of
    equal-label edges sharing a source or a target, by :func:`_close`.
    The folded graph is trimmed to its core (keeping the basepoint) and
    canonicalized.
    """
    edges = tuple(edges)
    parent, out, inc, pending = _unfolded(num_vertices, edges)
    pending.extend(identify)
    _close(parent, out, inc, pending, [])
    return _quotient(_roots(parent), edges, basepoint, rank)


def _unfolded(num_vertices, edges):
    """Union-find state of the discrete partition: ``parent``, the per-label
    maps ``out[v][label]`` and ``inc[v][label]``, and the vertex pairs that
    colliding equal-label edges force together."""
    parent = list(range(num_vertices))
    out = [{} for _ in range(num_vertices)]
    inc = [{} for _ in range(num_vertices)]
    pending = []
    for (src, dst, lab) in edges:
        targets = out[src]
        if lab in targets:
            pending.append((dst, targets[lab]))
        else:
            targets[lab] = dst
        sources = inc[dst]
        if lab in sources:
            pending.append((src, sources[lab]))
        else:
            sources[lab] = src
    return parent, out, inc, pending


def _close(parent, out, inc, pending, trail, decided=0):
    """Merge the pending vertex pairs and every pair they force, in place.

    A worklist over the union-find whose class roots carry the per-label
    maps: merging class ``a`` into class ``b`` queues one pair for each
    label the two maps share, and copies the others into ``b``'s map.  The
    root of a class is always its least vertex.  Returns False, leaving
    the state part-merged, as soon as two roots below ``decided`` would
    merge; True once the partition is a congruence (closed under folding).
    Each join ``a`` and each copied label, as a ``(map, label)`` pair, is
    appended to ``trail``, so that :func:`_undo` can restore the state,
    whichever way the closure ended.
    """
    while pending:
        a, b = pending.pop()
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a == b:
            continue
        if a < b:
            a, b = b, a
        if a < decided:
            return False
        parent[a] = b
        trail.append(a)
        for maps in (out, inc):
            into = maps[b]
            for lab, v in maps[a].items():
                if lab in into:
                    pending.append((v, into[lab]))
                else:
                    into[lab] = v
                    trail.append((into, lab))
    return True


def _undo(parent, trail, mark):
    """Roll a :func:`_close` state back until ``trail`` has ``mark``
    entries: a join is split again (the merged class kept its own maps),
    and a copied label deleted."""
    while len(trail) > mark:
        entry = trail.pop()
        if type(entry) is int:
            parent[entry] = entry
        else:
            into, lab = entry
            del into[lab]


def _roots(parent):
    """The root of every vertex.  A root is the least vertex of its class,
    so every parent is below its child and one pass in order suffices."""
    root = []
    for v, p in enumerate(parent):
        root.append(v if p == v else root[p])
    return root


def _quotient(root, edges, basepoint, rank):
    """The folded graph of a congruence, given by the root of each vertex:
    the images of the edges, trimmed and canonicalized."""
    base = root[basepoint]
    vertices = {v for v, r in enumerate(root) if r == v}
    folded = {(root[src], root[dst], lab) for (src, dst, lab) in edges}
    vertices, folded = _trim(vertices, folded, keep={base})
    return _canonicalize(vertices, folded, base, rank)


def _trim(vertices, edges, keep):
    """Iteratively drop degree-1 vertices not in ``keep`` (core property)."""
    vertices = set(vertices)
    edges = set(edges)
    while True:
        degree = {v: 0 for v in vertices}
        for (src, dst, lab) in edges:
            degree[src] += 1
            degree[dst] += 1
        removable = {
            v for v, d in degree.items() if d <= 1 and v not in keep
        }
        if not removable:
            return vertices, edges
        vertices -= removable
        edges = {
            e for e in edges if e[0] not in removable and e[1] not in removable
        }


def _canonicalize(vertices, edges, basepoint, rank):
    """Renumber a folded graph in the order that :func:`_walk` reaches its
    vertices from the basepoint."""
    _, out, inc, _ = _unfolded(max(vertices) + 1, edges)
    order = _walk(basepoint, out, inc, rank)
    if len(order) != len(vertices):
        raise ValueError("graph is not connected")
    number = {v: i for i, v in enumerate(order)}
    return LabeledGraph(len(number), {(number[src], number[dst], lab)
                                      for (src, dst, lab) in edges}, 0, rank)


def _walk(basepoint, out, inc, rank):
    """The breadth-first walk of a folded graph from the basepoint, labels
    in order, each label's outgoing edge first: {vertex: (parent, signed
    letter)} in the order reached, the basepoint's entry None."""
    parent = {basepoint: None}
    queue = [basepoint]
    for v in queue:
        targets, sources = out[v], inc[v]
        for lab in range(1, rank + 1):
            for u, letter in ((targets.get(lab), lab),
                              (sources.get(lab), -lab)):
                if u is not None and u not in parent:
                    parent[u] = (v, letter)
                    queue.append(u)
    return parent


def core_graph(generators, rank):
    """Folded core graph of the subgroup generated by the given words."""
    edges = []
    num_vertices = 1  # the basepoint is vertex 0
    for w in generators:
        if w.rank > rank:
            raise ValueError("generator rank exceeds ambient rank")
        v = 0
        for i, a in enumerate(w.letters):
            if i == len(w.letters) - 1:
                u = 0
            else:
                u = num_vertices
                num_vertices += 1
            edges.append((v, u, a) if a > 0 else (u, v, -a))
            v = u
    return fold(num_vertices, edges, 0, rank)


def fringe(w, vertex_cap=DEFAULT_FRINGE_VERTEX_CAP):
    """The open fringe of <w>: the distinct subgroups arising as folded
    vertex quotients of the core graph of <w> in which w's loop crosses no
    edge once, as a :class:`Fringe` that builds them one rank at a time.
    Every graph contains w.

    Every algebraic extension of <w> occurs among the quotients, so the
    fringe is a complete search space for minimal-rank witnesses, and in a
    quotient where w's loop crosses some edge once w is primitive (see
    :meth:`LabeledGraph.crosses_an_edge_once`), so no witness is lost by
    leaving those out.  A vertex partition that is closed under folding is
    a congruence, and the congruences are listed directly, each once, in
    the manner of Ganter's NextClosure ("Two basic algorithms in concept
    analysis", 1984): vertices are decided in order, each either opening a
    class of its own or joining the class of an earlier root, and a join
    is closed by :func:`_close` in place and undone from its trail
    afterwards.  A branch dies when the closure merges two classes already
    decided apart, and it is skipped whole once :func:`_certified` finds
    an edge that w's loop crosses once in every congruence below it.
    Distinct congruences give distinct graphs, since a morphism out of a
    connected graph is fixed by where the basepoint goes.

    A congruence's rank E' - V' + 1 is read from the class maps (trimming
    drops a vertex with each edge) before any graph is built.
    """
    if w.is_identity():
        raise ValueError("fringe of the trivial word is not defined")
    # the core graph of <w> is the cycle on the cyclic core of w plus the
    # conjugator as a hair, so its size is known before it is built
    num_vertices = (len(w) + len(cyclic_core(w.letters))) // 2
    if num_vertices > vertex_cap:
        raise UndecidedError(
            f"fringe needs set partitions of {num_vertices} vertices, "
            f"over the cap {vertex_cap}"
        )
    base = core_graph([w], w.rank)
    if base.num_vertices != num_vertices:
        raise RuntimeError(f"core graph of <{w}> has {base.num_vertices} "
                           f"vertices, not {num_vertices}")
    parent, out, inc, _ = _unfolded(num_vertices, base.edges)
    trail = []
    classes = {}  # subgroup rank -> [root of each vertex]
    # w's loop crosses each cycle edge of the core graph once and each hair
    # edge twice; per label, the sources of its edges and, apart, their
    # targets, each with those crossings, the highest vertex first
    ends = {}
    for (src, dst, lab), n in Counter(base._loop(w)).items():
        ends.setdefault((lab, 0), []).append((src, n))
        ends.setdefault((lab, 1), []).append((dst, n))
    ends = [sorted(group, reverse=True) for group in ends.values()]

    # one frame per undecided root: [vertex, next root to join, trail
    # mark], in place of a recursion as deep as the graph; the state is a
    # congruence in which the vertices below the deepest frame's are
    # decided.  A frame's first branch opens a class of its own, and each
    # later one joins an earlier root, in place, undone before the next
    frames = []
    i = 0
    while True:
        while i < num_vertices and parent[i] != i:
            i += 1
        if not _certified(parent, i, ends):
            if i < num_vertices:
                frames.append([i, 0, len(trail)])
                i += 1
                continue
            # every vertex is decided: keep the open congruence
            root = _roots(parent)
            roots = [v for v, r in enumerate(root) if r == v]
            rank = sum(len(out[v]) for v in roots) - len(roots) + 1
            classes.setdefault(rank, []).append(root)
        while frames:
            frame = frames[-1]
            i, j, mark = frame
            if j:  # the branch taken joined root j - 1
                _undo(parent, trail, mark)
            while j < i:
                if parent[j] == j:
                    if _close(parent, out, inc, [(i, j)], trail, decided=i):
                        break
                    _undo(parent, trail, mark)
                j += 1
            if j < i:
                frame[1] = j + 1
                i += 1
                break
            frames.pop()
        else:
            return Fringe(base, classes)


def _certified(parent, i, ends):
    """Whether w's loop crosses some edge once in every congruence below a
    :func:`fringe` state whose next undecided root is ``i``.

    The classes with roots below ``i`` are final: later joins are closed
    with ``decided`` at least ``i``, so no two of them merge, and a class
    that joins one of them brings no end of a label all of whose ends are
    already in them.  So when every source of the ``a``-edges lies in such
    a class and some class holds exactly one, crossed once, the quotient's
    ``a``-edge out of that class is crossed once in every congruence
    below; likewise for targets.  With every vertex decided this is
    exactly the certificate of :meth:`LabeledGraph.crosses_an_edge_once`
    on the built graph: the edges trimmed away are bridges, which a closed
    walk crosses an even number of times.

    ``ends`` lists, per label and end, each edge's end vertex with the
    number of times w's loop crosses the edge.
    """
    for group in ends:
        crossings = {}
        for v, n in group:
            while parent[v] != v:
                v = parent[v]
            if v >= i:
                break
            crossings[v] = crossings.get(v, 0) + n
        else:
            if 1 in crossings.values():
                return True
    return False


class Fringe:
    """The open fringe of <w> as :func:`fringe` lists it.

    It keeps the open congruences of the core graph of <w>, grouped by
    subgroup rank, not their graphs; :meth:`uncertified` builds the graphs
    one rank at a time.  ``len`` counts the open congruences.
    """

    def __init__(self, base, classes):
        self._base = base
        self._classes = classes

    def __len__(self):
        return sum(map(len, self._classes.values()))

    def uncertified(self):
        """``(rank, graphs)`` pairs in rising subgroup rank, of the graphs
        in which w's loop crosses no edge once, each list sorted by
        canonical form; a rank's graphs are built when it is reached."""
        base = self._base
        for rank in sorted(self._classes):
            built = [_quotient(root, base.edges, base.basepoint, base.rank)
                     for root in self._classes[rank]]
            yield rank, sorted(built, key=LabeledGraph.serialize)
