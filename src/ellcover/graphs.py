"""Trivalent connected multigraphs ("Feynman graphs") of genus g >= 2.

A graph of genus g has 2g-2 vertices (labelled 1..2g-2) and 3g-3 edges
(labelled by their position in the edge list, which is significant: it fixes
which formal variable q_k belongs to which edge).  Loops and parallel edges
are allowed at the type level; validation enforces trivalence, connectedness
and the vertex/edge cardinalities.

Besides validation this module provides one depth-first search behind
the bridges and the balanced positive integer flows, one
refinement-and-individualisation search behind the canonical form, the
isomorphism test and the automorphism group, and enumeration of
isomorphism classes by genus induction.

Every edge off the depth-first tree closes a cycle with it, and the unit
flows around those cycles sum to a balanced flow.  It is positive exactly
when every tree edge lies on one of the cycles, that is when no edge is a
bridge (Robbins, 1939), so the one search answers both questions.

Each search yields a graph's canonical form and its automorphisms at once,
so enumeration searches every candidate once and extends each class by one
genus-raising move per orbit of its automorphisms on the moves (the
parent-automorphism step of McKay's isomorph-free generation).  No class is
lost: an automorphism carries a move onto a move with an isomorphic result,
and a move on one of several parallel edges gives the same graph as on any
other of them.

The bridgeless classes, the only ones whose Feynman integrals do not vanish,
grow from the theta graph alone by the two moves that add an edge between
subdivided edges.  Such a move keeps a graph bridgeless, and by ear
decomposition (Robbins, 1939) every bridgeless trivalent graph of genus
g >= 3 is one applied to a bridgeless graph of genus g - 1: the last ear
is a single edge, not a loop (an inner vertex of the ear would have valence
2), and deleting it and smoothing its ends leaves a bridgeless graph.  So
the bridgeless path never builds a graph with a bridge.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from itertools import chain
from math import factorial

from ._frozen import Frozen, _check_int, _is_int


class GraphError(ValueError):
    """Base class for graph validation failures."""


class NotTrivalent(GraphError):
    pass


class NotConnected(GraphError):
    pass


class BadCardinality(GraphError):
    pass


class GenusTooLarge(GraphError):
    pass


class HasBridge(GraphError):
    pass


class MalformedGraph(GraphError):
    """Graph input of the wrong shape or type; the message names the field."""


class FeynmanGraph(Frozen):
    """A labelled multigraph: ``vertex_count`` vertices 1..n, edges as an
    ordered tuple of unordered pairs (stored min-first)."""

    __slots__ = ("vertex_count", "edges")

    @classmethod
    def from_edges(cls, vertex_count, edges) -> "FeynmanGraph":
        """Build from a vertex count and a list of vertex pairs; integers
        only (no floats, no booleans), else MalformedGraph."""
        _check_types(vertex_count, edges)
        _check_endpoints(vertex_count, edges)
        return cls(vertex_count, tuple(_pair(u, v) for u, v in edges))

    @classmethod
    def from_json(cls, data) -> "FeynmanGraph":
        """From a ``{"vertices": n, "edges": [[u, v], ...]}`` object or its
        JSON text; any other shape raises MalformedGraph."""
        if isinstance(data, str):
            try:
                data = json.loads(data)
            except ValueError as exc:
                raise MalformedGraph(f"graph JSON does not parse: {exc}") from None
        if not isinstance(data, dict):
            raise MalformedGraph(f"graph JSON must be an object, got {type(data).__name__}")
        for key in ("vertices", "edges"):
            if key not in data:
                raise MalformedGraph(f'graph JSON has no "{key}" field')
        return cls.from_edges(data["vertices"], data["edges"])

    def to_json(self) -> dict:
        return {"vertices": self.vertex_count, "edges": [list(e) for e in self.edges]}

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def genus(self) -> int:
        return len(self.edges) - self.vertex_count + 1

    def degree(self, v: int) -> int:
        """Valence of vertex v; a loop contributes 2."""
        d = 0
        for u, w in self.edges:
            if u == v:
                d += 1
            if w == v:
                d += 1
        return d

    def incident_edges(self, v: int) -> tuple:
        return tuple(k for k, (u, w) in enumerate(self.edges) if u == v or w == v)

    def has_loop(self) -> bool:
        return any(u == v for u, v in self.edges)

    def multiplicity_matrix(self):
        """m[u][v] = number of edges between u and v (loops on the diagonal),
        1-based with a dummy row/column 0."""
        n = self.vertex_count
        m = [[0] * (n + 1) for _ in range(n + 1)]
        for u, v in self.edges:
            m[u][v] += 1
            if u != v:
                m[v][u] += 1
        return m


def _check_types(vertex_count, edges) -> None:
    """MalformedGraph, naming the field, unless ``vertex_count`` is an
    integer and ``edges`` a list of pairs of integers."""
    if not _is_int(vertex_count):
        raise MalformedGraph(f'"vertices" must be an integer, got {vertex_count!r}')
    if not isinstance(edges, (list, tuple)):
        raise MalformedGraph(f'"edges" must be a list of vertex pairs, got {edges!r}')
    for k, e in enumerate(edges):
        if not (isinstance(e, (list, tuple)) and len(e) == 2 and _is_int(e[0]) and _is_int(e[1])):
            raise MalformedGraph(f'"edges"[{k}] must be a pair of integer vertices, got {e!r}')


def _check_endpoints(vertex_count, edges) -> None:
    """MalformedGraph naming the first edge with an endpoint outside
    1..vertex_count."""
    for k, e in enumerate(edges):
        if not all(1 <= x <= vertex_count for x in e):
            raise MalformedGraph(f'"edges"[{k}] = {e!r} references a vertex outside 1..{vertex_count}')


def _check_shape(graph) -> None:
    """MalformedGraph unless ``graph`` is a :class:`FeynmanGraph` with an
    integer vertex count and edges that are pairs of integers (whether they
    are its vertices is for :func:`validate` to say)."""
    if not isinstance(graph, FeynmanGraph):
        raise MalformedGraph(f"expected a FeynmanGraph, got {graph!r}")
    _check_types(graph.vertex_count, graph.edges)


def _is_connected(n, edges):
    if n == 0:
        return False
    adj = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * (n + 1)
    seen[1] = True
    queue = deque([1])
    count = 1
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                queue.append(v)
    return count == n


def validate(graph: FeynmanGraph) -> int:
    """Check all invariants and return the genus.

    Raises MalformedGraph (see :func:`_check_shape`), BadCardinality,
    NotTrivalent or NotConnected.
    """
    _check_shape(graph)
    n = graph.vertex_count
    e = len(graph.edges)
    if n < 2 or n % 2 or 2 * e != 3 * n:
        raise BadCardinality(
            f"{n} vertices / {e} edges do not match 2g-2 / 3g-3 for any g >= 2"
        )
    valence = Counter(chain.from_iterable(graph.edges))
    for v in range(1, n + 1):
        if valence[v] != 3:
            raise NotTrivalent(f"vertex {v} has valence {valence[v]}, expected 3")
    if not _is_connected(n, graph.edges):
        raise NotConnected("graph is not connected")
    return graph.genus


def _dfs(graph: FeynmanGraph) -> tuple:
    """One depth-first search from vertex 1: ``(sources, weights,
    bridges)``, with one source and one weight per edge.

    A tree edge points from parent to child.  Every other non-loop edge
    points from its later-found end up to its earlier one, an ancestor, and
    has weight 1; a tree edge's weight is the number of those edges that
    leave its child's subtree, kept as a net count per vertex that is added
    into the parent when the child is popped.  So the weights sum the unit
    flows around the cycles the non-tree edges close with the tree: they
    balance at every vertex and are 0 exactly on the tree edges that no
    cycle crosses, the bridges.  A loop has source ``None`` and weight 1.
    Parallel edges are told apart by index, so none of them is a bridge.

    ``bridges`` lists, ascending, the tree edges of weight 0, or every
    non-loop edge when some vertex is unreached.  MalformedGraph for an
    argument that is not a graph (see :func:`_check_shape`) or an edge with
    an endpoint outside 1..n.
    """
    _check_shape(graph)
    n = graph.vertex_count
    _check_endpoints(n, graph.edges)
    adj = [[] for _ in range(n + 1)]
    for k, (u, v) in enumerate(graph.edges):
        if u != v:
            adj[u].append((v, k))
            adj[v].append((u, k))
    sources = [None] * len(graph.edges)
    weights = [1] * len(graph.edges)
    found = [0] * (n + 1)  # discovery time, from 1; 0 while unseen
    net = [0] * (n + 1)  # edges up out of v less those into v; of its subtree once popped
    if n:
        found[1] = time = 1
        # (vertex, index of its tree edge, its unvisited incidences)
        stack = [(1, None, iter(adj[1]))]
        while stack:
            u, via, rest = stack[-1]
            for w, k in rest:
                if not found[w]:
                    time += 1
                    found[w] = time
                    sources[k] = u
                    stack.append((w, k, iter(adj[w])))
                    break
                if k != via and found[w] < found[u]:
                    sources[k] = u
                    net[u] += 1
                    net[w] -= 1
            else:
                stack.pop()
                if stack:
                    weights[via] = net[u]
                    net[stack[-1][0]] += net[u]
    if not all(found[1:]):
        return sources, weights, tuple(k for k, (u, v) in enumerate(graph.edges) if u != v)
    return sources, weights, tuple(k for k, w in enumerate(weights) if not w)


def bridges(graph: FeynmanGraph) -> tuple:
    """Indices (0-based), ascending, of all bridges: the non-loop edges whose
    removal leaves the graph disconnected (on a disconnected graph, all of
    them).  Loops are never bridges.

    The tree edges that no other edge's cycle crosses in the one
    depth-first search of :func:`_dfs`.  MalformedGraph for an argument
    that is not a graph (see :func:`_check_shape`) or an edge with an
    endpoint outside 1..n.
    """
    return _dfs(graph)[2]


def has_bridge(graph: FeynmanGraph):
    """Whether some edge disconnects the graph, plus the bridge indices."""
    b = bridges(graph)
    return bool(b), b


def _search(graph: FeynmanGraph) -> list:
    """Leaves of the refinement-and-individualisation search, as
    (relabelled sorted edge tuple, labelling) pairs with ``lab[v]`` the new
    label of vertex v (``lab[0]`` is 0).

    An ordered vertex partition starts with the vertices grouped by loop
    count and is refined until equitable: a vertex's signature is its sorted
    (neighbour cell, multiplicity) pairs, and every cell splits in place into
    new cells ordered by signature.  Each vertex of the first non-singleton
    cell is then individualised in turn (put in a cell of its own, first)
    and the search recurses; a discrete partition is a leaf, labelling the
    vertices by their cell positions.  Nothing in this depends on the input
    labels, so an isomorphism maps the leaves of one graph onto those of the
    other with the same edge tuples.
    """
    n = graph.vertex_count
    m = graph.multiplicity_matrix()
    neighbours = [[(u, m[v][u]) for u in range(1, n + 1) if u != v and m[v][u]] for v in range(n + 1)]
    leaves = []

    def refine(cells):
        while True:
            cell_of = [0] * (n + 1)
            for i, cell in enumerate(cells):
                for v in cell:
                    cell_of[v] = i
            split = []
            for cell in cells:
                if len(cell) == 1:
                    split.append(cell)
                    continue
                by_sig = {}
                for v in cell:
                    sig = tuple(sorted([(cell_of[u], k) for u, k in neighbours[v]]))
                    by_sig.setdefault(sig, []).append(v)
                split.extend(by_sig[sig] for sig in sorted(by_sig))
            if len(split) == len(cells):
                return cells
            cells = split

    # depth-first with an explicit stack of partitions, children pushed in
    # reverse so they are searched in cell order
    by_loops = {}
    for v in range(1, n + 1):
        by_loops.setdefault(m[v][v], []).append(v)
    stack = [[by_loops[k] for k in sorted(by_loops)]]
    while stack:
        cells = refine(stack.pop())
        i = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if i is not None:
            cell = cells[i]
            stack.extend(cells[:i] + [[v], [u for u in cell if u != v]] + cells[i + 1 :] for v in reversed(cell))
            continue
        lab = [0] * (n + 1)
        for i, (v,) in enumerate(cells):
            lab[v] = i + 1
        form = tuple(sorted((lab[u], lab[v]) if lab[u] <= lab[v] else (lab[v], lab[u]) for u, v in graph.edges))
        leaves.append((form, lab))
    return leaves


def _canon(graph: FeynmanGraph) -> tuple:
    """One :func:`_search` of ``graph``, read two ways: ``(form, maps,
    first)`` with ``form`` the least leaf form, ``first`` the labelling
    lab_0 of the first leaf that reaches it, and ``maps`` the automorphisms
    of ``FeynmanGraph(n, form)``.  Map i is lab_i ∘ lab_0⁻¹ over the leaves
    lab_0, lab_1, ... that reach the form, as a tuple ``img`` with ``img[x]``
    the image of vertex x (``img[0]`` is 0); the identity comes first.

    Two leaves reach the same form exactly when they differ by an
    automorphism, so the maps are the whole group, each once.  The graph is
    not validated: the public entry points do that, enumeration need not.
    """
    leaves = _search(graph)
    form = min(leaf_form for leaf_form, _ in leaves)
    matching = [lab for leaf_form, lab in leaves if leaf_form == form]
    first = matching[0]
    inverse = [0] * len(first)
    for v, label in enumerate(first):
        inverse[label] = v
    return form, [tuple(lab[v] for v in inverse) for lab in matching], first


def vertex_automorphisms(graph: FeynmanGraph) -> list:
    """Vertex permutations preserving the adjacency multiset, each as a tuple
    ``img`` with ``img[v]`` the image of vertex v (``img[0]`` is 0); the
    identity comes first.  Validates the graph.

    These are the maps of :func:`_canon` carried back to the graph's own
    labels: lab_0⁻¹ ∘ lab_i for each search leaf lab_i that reaches the
    canonical form.
    """
    validate(graph)
    _, maps, first = _canon(graph)
    inverse = [0] * len(first)
    for v, label in enumerate(first):
        inverse[label] = v
    return [tuple(inverse[img[label]] for label in first) for img in maps]


def automorphism_count(graph: FeynmanGraph) -> int:
    """Order of the multigraph automorphism group.  Validates the graph.

    Counts vertex permutations preserving the adjacency multiset; each is
    weighted by :func:`_edge_symmetry`.
    """
    validate(graph)
    return len(_canon(graph)[1]) * _edge_symmetry(graph)


def _edge_symmetry(graph: FeynmanGraph) -> int:
    """The automorphisms that fix every vertex: the permutations of parallel
    edges within each vertex pair, times the half-edge flip (a factor 2) of
    every loop."""
    n = graph.vertex_count
    m = graph.multiplicity_matrix()
    out = 1
    for u in range(1, n + 1):
        out *= factorial(m[u][u]) * 2 ** m[u][u]
        for v in range(u + 1, n + 1):
            out *= factorial(m[u][v])
    return out


def canonical_form(graph: FeynmanGraph) -> tuple:
    """The least relabelled sorted edge tuple over the leaves of the
    refinement search (:func:`_search`).  Validates the graph.

    Equal canonical forms characterise isomorphic multigraphs.  The form is
    minimal over the search leaves only, not over all n! relabelings, and
    ``FeynmanGraph(n, canonical_form(graph))`` has the same canonical form.
    """
    validate(graph)
    return _canon(graph)[0]


def is_isomorphic(a: FeynmanGraph, b: FeynmanGraph) -> bool:
    """Whether the two multigraphs are isomorphic.  Validates both."""
    validate(a)
    validate(b)
    return a.vertex_count == b.vertex_count and _canon(a)[0] == _canon(b)[0]


def _pair(u: int, v: int) -> tuple:
    return (u, v) if u <= v else (v, u)


def _extensions(n: int, edges: tuple, maps: list, bridgeless: bool = False):
    """Edge lists on n + 2 vertices made from the trivalent graph
    ``FeynmanGraph(n, edges)``, whose automorphisms are ``maps``, by the two
    genus-raising moves, with new vertices a = n + 1 and b = n + 2:

    (a) subdivide edge i by a and edge j by b and join a to b, or subdivide
        edge i twice (by a, then b) and join a to b;
    (b) subdivide edge i by a and hang b, carrying a loop, from a.

    Every connected trivalent graph of genus g >= 3 arises from one of
    genus g - 1: undo (a) by deleting an edge that is neither a loop nor a
    bridge and smoothing its endpoints, otherwise undo (b) at a vertex with
    a loop.

    ``bridgeless=True`` makes the (a) moves only, for a bridgeless parent.
    A new edge ab joins two points of a bridgeless graph, so no edge becomes
    a bridge; and (b) always makes one, the edge to the loop.  Every
    bridgeless graph of genus g >= 3 arises this way from a bridgeless one:
    the last ear of an ear decomposition (Robbins, 1939) is one edge uv that
    is not a loop, since an inner vertex of the ear would have valence 2.
    Deleting it leaves a bridgeless graph, smoothing u and v keeps it so,
    and the edge is the ab of an (a) move on the result (``twice`` when u
    and v were adjacent).

    One move is made per orbit of the moves under ``maps``.  A move is keyed
    by its kind and the unordered vertex pairs of the edges it subdivides,
    and moves whose keys share an orbit give isomorphic graphs (see
    :func:`enumerate_genus`).
    """
    a, b = n + 1, n + 2
    seen = set()

    def new_orbit(kind, pairs):
        if (kind, pairs) in seen:
            return False
        for img in maps:
            seen.add((kind, tuple(sorted(_pair(img[x], img[y]) for x, y in pairs))))
        return True

    for i, (u, v) in enumerate(edges):
        rest = edges[:i] + edges[i + 1 :]
        if not bridgeless and new_orbit("loop", ((u, v),)):
            yield rest + ((u, a), (v, a), (a, b), (b, b))
        if new_orbit("twice", ((u, v),)):
            yield rest + ((u, a), (a, b), (a, b), (v, b))
        for j in range(i + 1, len(edges)):
            x, y = edges[j]
            if new_orbit("join", ((u, v), (x, y))):
                yield rest[: j - 1] + rest[j:] + ((u, a), (v, a), (x, b), (y, b), (a, b))


def enumerate_genus(g: int, bridgeless: bool = False, max_genus: int = 5) -> list:
    """One canonical representative per isomorphism class of trivalent
    connected multigraphs of genus g (loops allowed): the graphs of
    :func:`_classes`.
    """
    return [graph for graph, _ in _classes(g, bridgeless, max_genus)]


def _classes(g: int, bridgeless: bool = False, max_genus: int = 5) -> list:
    """(representative, automorphisms) for each isomorphism class of
    trivalent connected multigraphs of genus g (loops allowed).  The
    automorphisms are the group :func:`vertex_automorphisms` gives for the
    representative, identity first, and were found by the one search per
    candidate that enumeration makes anyway, so a caller that needs them
    makes no search of its own.

    Classes are built by genus induction from the dumbbell and the theta
    graph with the moves of :func:`_extensions`, deduplicated by canonical
    form.  Each level keeps form -> automorphisms, both from the one search
    of :func:`_canon` per candidate, and a class is extended by one move
    per automorphism orbit of its moves.  No class is lost: an automorphism
    of the parent carries a move onto one whose result is isomorphic, and
    parallel edges do the same.  Each representative carries its canonical
    (sorted) edge list and the list is sorted by it, so output is
    deterministic.

    ``bridgeless=True`` gives only the classes without a bridge.  They grow
    from the theta graph alone by the (a) moves, which by ear decomposition
    reach every bridgeless class from a bridgeless parent and never make a
    bridge (see :func:`_extensions`), so no bridged graph is built or
    searched.  The classes, their order and their automorphism sets are
    those of the full enumeration with the bridged classes left out.
    """
    _check_int(g, "g")
    _check_int(max_genus, "max_genus")
    if not isinstance(bridgeless, bool):
        raise ValueError(f"bridgeless must be a bool, got {bridgeless!r}")
    if g < 2:
        raise BadCardinality("genus must be at least 2")
    if g > max_genus:
        raise GenusTooLarge(f"genus {g} exceeds the configured bound {max_genus}")
    # genus 2: the dumbbell (not bridgeless) and the theta graph, each with
    # its vertex swap
    swap = [(0, 1, 2), (0, 2, 1)]
    theta = ((1, 2), (1, 2), (1, 2))
    level = {theta: swap} if bridgeless else {((1, 1), (1, 2), (2, 2)): swap, theta: swap}
    for n in range(2, 2 * g - 2, 2):
        grown = {}
        for form, maps in level.items():
            for edges in _extensions(n, form, maps, bridgeless):
                child, child_maps, _ = _canon(FeynmanGraph(n + 2, edges))
                grown.setdefault(child, child_maps)
        level = grown
    return [(FeynmanGraph(2 * g - 2, form), level[form]) for form in sorted(level)]


class Orientation(Frozen):
    """Per-edge source vertex; ``None`` flags a loop (no orientation)."""

    __slots__ = ("sources",)

    def source(self, k):
        return self.sources[k]


class BalancedFlow(Frozen):
    """An orientation together with positive integer edge weights whose
    in-flow equals out-flow at every vertex."""

    __slots__ = ("orientation", "weights")


def balanced_orientation(graph: FeynmanGraph) -> BalancedFlow:
    """Orientation plus positive integer weights balanced at every vertex,
    which exist exactly when the graph has no bridge (HasBridge otherwise).

    The one depth-first search of :func:`_dfs`: the sum of the unit flows
    around the cycles that each non-tree edge closes with the tree, and
    weight 1 on each loop (which has no orientation).
    """
    sources, weights, b = _dfs(graph)
    if b:
        raise HasBridge(f"no balanced positive flow: bridges at edges {list(b)}")
    flow = BalancedFlow(Orientation(tuple(sources)), tuple(weights))
    assert is_balanced(graph, flow), "internal error: circulation not balanced"
    return flow


def is_balanced(graph: FeynmanGraph, flow: BalancedFlow) -> bool:
    """Whether every weight is a positive integer, every non-loop edge's
    source is one of its endpoints, and in-flow equals out-flow at every
    vertex.

    MalformedGraph for an argument that is not a graph (see
    :func:`_check_shape`) or an edge with an endpoint outside 1..n, and a
    ValueError naming ``flow`` unless it is a :class:`BalancedFlow` with one
    source and one weight per edge.
    """
    _check_shape(graph)
    _check_endpoints(graph.vertex_count, graph.edges)
    m = len(graph.edges)
    if not (
        isinstance(flow, BalancedFlow)
        and isinstance(flow.orientation, Orientation)
        and all(isinstance(f, (tuple, list)) and len(f) == m for f in (flow.orientation.sources, flow.weights))
    ):
        raise ValueError(f"flow must be a BalancedFlow with one source and one weight per edge, got {flow!r}")
    if not all(_is_int(w) and w > 0 for w in flow.weights):
        return False
    net = [0] * (graph.vertex_count + 1)
    for (u, v), src, w in zip(graph.edges, flow.orientation.sources, flow.weights):
        if u == v:
            continue
        if src not in (u, v):
            return False
        net[src] += w
        net[v if src == u else u] -= w
    return not any(net)
