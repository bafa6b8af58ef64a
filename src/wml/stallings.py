"""Stallings core graphs for finitely generated subgroups of a free group.

A labeled graph is a connected directed graph whose edges carry generator
labels, with a basepoint and an optional set of marked vertices.  A folded
graph (no two equal-label edges sharing a source, nor sharing a target)
canonically represents the subgroup of words readable as loops at the
basepoint.

Folding is the worklist identification of offending edge pairs; the result
is independent of the order in which pairs are processed.  Graphs are
canonicalized by breadth-first relabeling from the basepoint with a fixed
edge order, so two folded graphs represent the same subgroup exactly when
their serializations coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UndecidedError
from .words import Word

DEFAULT_FRINGE_VERTEX_CAP = 12


@dataclass(frozen=True)
class RawGraph:
    """Unfolded labeled-graph data (e.g. a dual graph before folding)."""

    num_vertices: int
    edges: tuple
    basepoint: int
    marked: frozenset
    rank: int

    def subgroup(self):
        """Wedge the marked vertices into the basepoint and fold."""
        return subgroup_from_marked_graph(
            self.num_vertices, self.edges, self.basepoint, self.marked,
            self.rank,
        )


class LabeledGraph:
    """Immutable folded, trimmed, canonically numbered labeled graph.

    Use :func:`fold` / :func:`core_graph` to build one; the constructor
    expects data that is already folded and canonical.
    """

    __slots__ = ("num_vertices", "edges", "basepoint", "marked", "rank",
                 "_out", "_in")

    def __init__(self, num_vertices, edges, basepoint, marked, rank):
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "edges", tuple(sorted(edges)))
        object.__setattr__(self, "basepoint", basepoint)
        object.__setattr__(self, "marked", frozenset(marked))
        object.__setattr__(self, "rank", rank)
        out = {}
        inc = {}
        for (src, dst, lab) in self.edges:
            if (src, lab) in out or (dst, lab) in inc:
                raise ValueError("graph is not folded")
            out[(src, lab)] = dst
            inc[(dst, lab)] = src
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_in", inc)

    def __setattr__(self, name, value):
        raise AttributeError("LabeledGraph is immutable")

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def subgroup_rank(self):
        """E - V + 1 for a connected graph."""
        return self.num_edges - self.num_vertices + 1

    def step(self, vertex, letter):
        """Follow a signed letter from a vertex; None if no such edge."""
        if letter > 0:
            return self._out.get((vertex, letter))
        return self._in.get((vertex, -letter))

    def trace(self, word, start=None):
        """Trace a word from a vertex; final vertex or None if it leaves
        the graph."""
        v = self.basepoint if start is None else start
        for a in word.letters:
            v = self.step(v, a)
            if v is None:
                return None
        return v

    def contains(self, word):
        """Subgroup membership: the word reads a loop at the basepoint."""
        return self.trace(word) == self.basepoint

    def serialize(self):
        """Canonical text form: marked-vertex header plus one edge per line."""
        header = "marked: " + " ".join(str(v) for v in sorted(self.marked))
        lines = [f"{src} {dst} {lab}" for (src, dst, lab) in self.edges]
        return "\n".join([header] + lines)

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
        """BFS spanning tree: parent map {vertex: (parent, signed letter)}
        and the list of non-tree edges in canonical order."""
        parent = {self.basepoint: None}
        order = [self.basepoint]
        queue = [self.basepoint]
        tree_edges = set()
        while queue:
            v = queue.pop(0)
            for lab in range(1, self.rank + 1):
                for sign in (1, -1):
                    u = self.step(v, sign * lab)
                    if u is None or u in parent:
                        continue
                    parent[u] = (v, sign * lab)
                    tree_edges.add((v, u, lab) if sign > 0 else (u, v, lab))
                    order.append(u)
                    queue.append(u)
        non_tree = [e for e in self.edges if e not in tree_edges]
        return parent, non_tree

    def basis(self):
        """Free basis of the subgroup, one word per non-tree edge."""
        parent, non_tree = self.spanning_tree()
        paths = {}

        def path_to(v):
            if v not in paths:
                letters = []
                u = v
                while parent[u] is not None:
                    p, letter = parent[u]
                    letters.append(letter)
                    u = p
                paths[v] = list(reversed(letters))
            return paths[v]

        out = []
        for (src, dst, lab) in non_tree:
            letters = path_to(src) + [lab] + [-a for a in reversed(path_to(dst))]
            out.append(Word(letters, self.rank))
        return out

    def rewrite(self, word):
        """Express a loop at the basepoint in basis coordinates.

        Returns a word over a rank-(subgroup rank) alphabet, or None when
        the trace does not close at the basepoint (not a member).
        """
        parent, non_tree = self.spanning_tree()
        index = {e: i + 1 for i, e in enumerate(non_tree)}
        v = self.basepoint
        letters = []
        for a in word.letters:
            u = self.step(v, a)
            if u is None:
                return None
            edge = (v, u, a) if a > 0 else (u, v, -a)
            if edge in index:
                letters.append(index[edge] if a > 0 else -index[edge])
            v = u
        if v != self.basepoint:
            return None
        return Word(letters, max(1, len(non_tree)))


class _Builder:
    """Mutable multigraph used while folding."""

    def __init__(self, rank):
        self.rank = rank
        self.parent = []  # union-find
        self.edges = set()  # (src, dst, label) over current class reps
        self.basepoint = 0
        self.marked = set()

    def new_vertex(self):
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, v):
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
        return rb

    def add_loop(self, word):
        v = self.find(self.basepoint)
        for a in word.letters[:-1]:
            u = self.new_vertex()
            self.edges.add((v, u, a) if a > 0 else (u, v, -a))
            v = u
        if word.letters:
            a = word.letters[-1]
            b = self.find(self.basepoint)
            self.edges.add((v, b, a) if a > 0 else (b, v, -a))


def _fold_edges(builder, shuffle_rng=None):
    """Identify equal-label edges sharing a source or target until folded."""
    while True:
        edges = {}
        for (src, dst, lab) in builder.edges:
            s, d = builder.find(src), builder.find(dst)
            edges.setdefault((s, d, lab), None)
        builder.edges = set(edges)
        items = sorted(builder.edges)
        if shuffle_rng is not None:
            shuffle_rng.shuffle(items)
        out_seen = {}
        in_seen = {}
        merge = None
        for (src, dst, lab) in items:
            if (src, lab) in out_seen:
                merge = (dst, out_seen[(src, lab)])
                break
            out_seen[(src, lab)] = dst
            if (dst, lab) in in_seen:
                merge = (src, in_seen[(dst, lab)])
                break
            in_seen[(dst, lab)] = src
        if merge is None:
            return
        builder.union(*merge)


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


def _canonicalize(vertices, edges, basepoint, marked, rank):
    """BFS renumbering from the basepoint with edges in (label, sign) order."""
    out = {}
    inc = {}
    for (src, dst, lab) in edges:
        out[(src, lab)] = dst
        inc[(dst, lab)] = src
    number = {basepoint: 0}
    queue = [basepoint]
    while queue:
        v = queue.pop(0)
        for lab in range(1, rank + 1):
            for nxt in (out.get((v, lab)), inc.get((v, lab))):
                if nxt is not None and nxt not in number:
                    number[nxt] = len(number)
                    queue.append(nxt)
    if len(number) != len(vertices):
        raise ValueError("graph is not connected")
    new_edges = {
        (number[src], number[dst], lab) for (src, dst, lab) in edges
    }
    new_marked = {number[v] for v in marked if v in number}
    return LabeledGraph(len(number), new_edges, 0, new_marked, rank)


def fold(builder, shuffle_rng=None):
    """Fold, trim and canonicalize the graph held by a builder."""
    _fold_edges(builder, shuffle_rng)
    base = builder.find(builder.basepoint)
    marked = {builder.find(v) for v in builder.marked}
    edges = {
        (builder.find(src), builder.find(dst), lab)
        for (src, dst, lab) in builder.edges
    }
    vertices = {base} | marked
    for (src, dst, lab) in edges:
        vertices.add(src)
        vertices.add(dst)
    vertices, edges = _trim(vertices, edges, keep={base} | marked)
    return _canonicalize(vertices, edges, base, marked, rank=builder.rank)


def core_graph(generators, rank, shuffle_rng=None):
    """Folded core graph of the subgroup generated by the given words."""
    builder = _Builder(rank)
    builder.new_vertex()  # basepoint
    for w in generators:
        if w.rank > rank:
            raise ValueError("generator rank exceeds ambient rank")
        builder.add_loop(w)
    return fold(builder, shuffle_rng)


def graph_from_edges(num_vertices, edges, basepoint, marked, rank):
    """Fold arbitrary edge data (vertices 0..num_vertices-1) into a graph."""
    builder = _Builder(rank)
    for _ in range(num_vertices):
        builder.new_vertex()
    builder.basepoint = basepoint
    builder.marked = set(marked)
    builder.edges = set(edges)
    return fold(builder)


def wedge_marked(graph):
    """Identify all marked vertices with the basepoint and fold.

    The result represents the subgroup generated by the images of all
    marked-point-to-marked-point paths.
    """
    return subgroup_from_marked_graph(
        graph.num_vertices, graph.edges, graph.basepoint, graph.marked, graph.rank
    )


def subgroup_from_marked_graph(num_vertices, edges, basepoint, marked, rank):
    """Wedge the marked vertices into the basepoint of raw (possibly
    unfolded) edge data and fold the result."""
    builder = _Builder(rank)
    for _ in range(num_vertices):
        builder.new_vertex()
    builder.basepoint = basepoint
    builder.edges = set(edges)
    for v in marked:
        builder.union(v, basepoint)
    return fold(builder)


def quotient(graph, partition_map):
    """Fold the quotient by a vertex partition (vertex -> block id)."""
    builder = _Builder(graph.rank)
    for _ in range(graph.num_vertices):
        builder.new_vertex()
    builder.basepoint = graph.basepoint
    builder.edges = set(graph.edges)
    blocks = {}
    for v in range(graph.num_vertices):
        blocks.setdefault(partition_map[v], []).append(v)
    for members in blocks.values():
        for v in members[1:]:
            builder.union(members[0], v)
    return fold(builder)


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


def fringe(w, vertex_cap=DEFAULT_FRINGE_VERTEX_CAP, force=False):
    """All distinct subgroups arising as folded vertex quotients of the
    core graph of <w>.

    Every algebraic extension of <w> occurs among these, so the fringe is a
    complete search space for minimal-rank witnesses.  Returns a list of
    (graph, basis) pairs, deduplicated by canonical form, containing w.
    """
    if w.is_identity():
        raise ValueError("fringe of the trivial word is not defined")
    base = core_graph([w], w.rank)
    if base.num_vertices > vertex_cap and not force:
        raise UndecidedError(
            f"fringe needs set partitions of {base.num_vertices} vertices, "
            f"over the cap {vertex_cap}"
        )
    seen = {}
    for rgs in _set_partitions(base.num_vertices):
        g = quotient(base, rgs)
        key = g.serialize()
        if key not in seen:
            seen[key] = g
    out = []
    for g in seen.values():
        if not g.contains(w):
            raise RuntimeError(f"fringe quotient {g!r} does not contain {w}")
        out.append((g, g.basis()))
    out.sort(key=lambda pair: (pair[0].subgroup_rank, pair[0].serialize()))
    return out
