"""Trivalent connected multigraphs ("Feynman graphs") of genus g >= 2.

A graph of genus g has 2g-2 vertices (labelled 1..2g-2) and 3g-3 edges
(labelled by their position in the edge list, which is significant: it fixes
which formal variable q_k belongs to which edge).  Loops and parallel edges
are allowed at the type level; validation enforces trivalence, connectedness
and the vertex/edge cardinalities.

Besides validation this module provides bridge detection, multigraph
automorphism counting, enumeration of isomorphism classes per genus, and the
construction of balanced positive integer flows (which exist exactly on the
bridgeless graphs).
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass
from math import factorial


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


@dataclass(frozen=True)
class FeynmanGraph:
    """A labelled multigraph: ``vertex_count`` vertices 1..n, edges as an
    ordered tuple of unordered pairs (stored min-first)."""

    vertex_count: int
    edges: tuple

    @classmethod
    def from_edges(cls, vertex_count, edges) -> "FeynmanGraph":
        norm = []
        for e in edges:
            u, v = e
            if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                raise GraphError(f"edge {e!r} references a vertex outside 1..{vertex_count}")
            norm.append((u, v) if u <= v else (v, u))
        return cls(vertex_count, tuple(norm))

    @classmethod
    def from_json(cls, data) -> "FeynmanGraph":
        if isinstance(data, str):
            data = json.loads(data)
        return cls.from_edges(int(data["vertices"]), data["edges"])

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


def _is_connected(n, edges, skip_edge=None):
    if n == 0:
        return False
    adj = [[] for _ in range(n + 1)]
    for k, (u, v) in enumerate(edges):
        if k == skip_edge:
            continue
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

    Raises BadCardinality, NotTrivalent or NotConnected.
    """
    n = graph.vertex_count
    e = len(graph.edges)
    if n < 2 or n % 2 or 2 * e != 3 * n:
        raise BadCardinality(
            f"{n} vertices / {e} edges do not match 2g-2 / 3g-3 for any g >= 2"
        )
    for v in range(1, n + 1):
        if graph.degree(v) != 3:
            raise NotTrivalent(f"vertex {v} has valence {graph.degree(v)}, expected 3")
    if not _is_connected(n, graph.edges):
        raise NotConnected("graph is not connected")
    return graph.genus


def bridges(graph: FeynmanGraph) -> tuple:
    """Indices (0-based) of all bridges.  Loops are never bridges."""
    out = []
    for k, (u, v) in enumerate(graph.edges):
        if u == v:
            continue
        if not _is_connected(graph.vertex_count, graph.edges, skip_edge=k):
            out.append(k)
    return tuple(out)


def has_bridge(graph: FeynmanGraph):
    """Whether some edge disconnects the graph, plus the bridge indices."""
    b = bridges(graph)
    return bool(b), b


def vertex_automorphisms(graph: FeynmanGraph) -> list:
    """Vertex permutations preserving the adjacency multiset, each as a tuple
    ``img`` with ``img[v]`` the image of vertex v (``img[0]`` is 0)."""
    n = graph.vertex_count
    m = graph.multiplicity_matrix()
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        img = (0,) + perm
        if all(
            m[img[u]][img[v]] == m[u][v]
            for u in range(1, n + 1)
            for v in range(u, n + 1)
        ):
            out.append(img)
    return out


def automorphism_count(graph: FeynmanGraph) -> int:
    """Order of the multigraph automorphism group.

    Counts vertex permutations preserving the adjacency multiset; each is
    weighted by the permutations of parallel edges within every preserved
    vertex pair and by the half-edge flip (a factor 2) of every loop.
    """
    n = graph.vertex_count
    m = graph.multiplicity_matrix()
    edge_factor = 1
    for u in range(1, n + 1):
        edge_factor *= factorial(m[u][u]) * 2 ** m[u][u]
        for v in range(u + 1, n + 1):
            edge_factor *= factorial(m[u][v])
    return len(vertex_automorphisms(graph)) * edge_factor


def _vertex_classes(graph: FeynmanGraph):
    """Group vertices by an isomorphism-invariant local key; returns the
    classes in a canonical order."""
    m = graph.multiplicity_matrix()
    n = graph.vertex_count
    keyed = {}
    for v in range(1, n + 1):
        key = (m[v][v], tuple(sorted(m[v][u] for u in range(1, n + 1) if u != v and m[v][u])))
        keyed.setdefault(key, []).append(v)
    return [keyed[k] for k in sorted(keyed)]


def canonical_form(graph: FeynmanGraph) -> tuple:
    """Lexicographically minimal sorted edge tuple over vertex relabelings.

    Equal canonical forms characterise isomorphic multigraphs.  Relabelings
    are restricted to maps matching vertices of equal local invariants, which
    prunes the search without changing the result (every isomorphism
    preserves the invariants).
    """
    classes = _vertex_classes(graph)
    blocks = []
    start = 1
    for cls in classes:
        blocks.append(list(range(start, start + len(cls))))
        start += len(cls)
    best = None
    for assignment in itertools.product(*(itertools.permutations(b) for b in blocks)):
        relabel = {}
        for cls, labels in zip(classes, assignment):
            for v, lab in zip(cls, labels):
                relabel[v] = lab
        edges = sorted(
            (relabel[u], relabel[v]) if relabel[u] <= relabel[v] else (relabel[v], relabel[u])
            for u, v in graph.edges
        )
        edges = tuple(edges)
        if best is None or edges < best:
            best = edges
    return best


def is_isomorphic(a: FeynmanGraph, b: FeynmanGraph) -> bool:
    return (
        a.vertex_count == b.vertex_count
        and len(a.edges) == len(b.edges)
        and canonical_form(a) == canonical_form(b)
    )


def _refined_colors(graph: FeynmanGraph, rounds: int = 3):
    """Iterated neighborhood refinement.  Returns a vertex -> color map whose
    colors are isomorphism-invariant nested tuples (loop count, incident
    multiplicities, then neighbor colors, repeated)."""
    n = graph.vertex_count
    m = graph.multiplicity_matrix()
    neighbors = {
        v: [u for u in range(1, n + 1) if u != v and m[v][u]] for v in range(1, n + 1)
    }
    colors = {
        v: (m[v][v], tuple(sorted(m[v][u] for u in neighbors[v]))) for v in range(1, n + 1)
    }
    for _ in range(rounds):
        new = {
            v: (colors[v], tuple(sorted((m[v][u], colors[u]) for u in neighbors[v])))
            for v in range(1, n + 1)
        }
        if len(set(new.values())) == len(set(colors.values())):
            break
        colors = new
    return colors


def _find_isomorphism(g1, colors1, g2, colors2) -> bool:
    """Backtracking isomorphism test guided by refinement colors."""
    n = g1.vertex_count
    if n != g2.vertex_count or sorted(colors1.values()) != sorted(colors2.values()):
        return False
    m1 = g1.multiplicity_matrix()
    m2 = g2.multiplicity_matrix()
    by_color = {}
    for u in range(1, n + 1):
        by_color.setdefault(colors2[u], []).append(u)
    # assign the most constrained vertices first
    order = sorted(range(1, n + 1), key=lambda v: (len(by_color[colors1[v]]), colors1[v], v))
    image = {}
    used = set()

    def extend(i):
        if i == n:
            return True
        v = order[i]
        for u in by_color[colors1[v]]:
            if u in used or m2[u][u] != m1[v][v]:
                continue
            if all(m2[u][image[w]] == m1[v][w] for w in image):
                image[v] = u
                used.add(u)
                if extend(i + 1):
                    return True
                del image[v]
                used.remove(u)
        return False

    return extend(0)


def _trivalent_matrices(n):
    """All symmetric multiplicity matrices with every valence 3 (loops count
    twice), generated by backtracking over vertices."""
    m = [[0] * (n + 1) for _ in range(n + 1)]
    left = [0] + [3] * n

    def rec(v):
        if v > n:
            yield [row[:] for row in m]
            return
        # distribute the remaining valence of v over loops and higher vertices
        for loops in range(left[v] // 2 + 1):
            rest = left[v] - 2 * loops
            targets = list(range(v + 1, n + 1))

            def place(i, todo):
                if todo == 0:
                    yield from rec(v + 1)
                    return
                if i == len(targets):
                    return
                u = targets[i]
                for k in range(min(todo, left[u]) + 1):
                    m[v][u] = m[u][v] = k
                    left[u] -= k
                    yield from place(i + 1, todo - k)
                    left[u] += k
                    m[v][u] = m[u][v] = 0

            m[v][v] = loops
            yield from place(0, rest)
            m[v][v] = 0

    yield from rec(1)


def _matrix_to_edges(m, n):
    edges = []
    for u in range(1, n + 1):
        edges.extend([(u, u)] * m[u][u])
        for v in range(u + 1, n + 1):
            edges.extend([(u, v)] * m[u][v])
    return tuple(edges)


def enumerate_genus(g: int, bridgeless: bool = False, max_genus: int = 5) -> list:
    """One canonical representative per isomorphism class of trivalent
    connected multigraphs of genus g (loops allowed).

    The representatives carry their canonical (sorted) edge list, so output
    is deterministic.  ``bridgeless=True`` keeps only the classes without a
    bridge.
    """
    if g < 2:
        raise BadCardinality("genus must be at least 2")
    if g > max_genus:
        raise GenusTooLarge(f"genus {g} exceeds the configured bound {max_genus}")
    n = 2 * g - 2
    # deduplicate with refinement-color fingerprints plus a direct
    # isomorphism test per bucket; the (much more expensive) canonical
    # labeling then runs only once per class
    buckets = {}
    for m in _trivalent_matrices(n):
        edges = _matrix_to_edges(m, n)
        if not _is_connected(n, edges):
            continue
        graph = FeynmanGraph(n, edges)
        colors = _refined_colors(graph)
        fingerprint = tuple(sorted(colors.values()))
        reps = buckets.setdefault(fingerprint, [])
        if not any(_find_isomorphism(graph, colors, rep, rep_colors) for rep, rep_colors in reps):
            reps.append((graph, colors))
    forms = sorted(
        canonical_form(graph) for reps in buckets.values() for graph, _ in reps
    )
    out = [FeynmanGraph(n, edges) for edges in forms]
    if bridgeless:
        out = [gr for gr in out if not bridges(gr)]
    return out


@dataclass(frozen=True)
class Orientation:
    """Per-edge source vertex; ``None`` flags a loop (no orientation)."""

    sources: tuple

    def source(self, k):
        return self.sources[k]


@dataclass(frozen=True)
class BalancedFlow:
    """An orientation together with positive integer edge weights whose
    in-flow equals out-flow at every vertex."""

    orientation: Orientation
    weights: tuple


def _dfs_orientation(graph: FeynmanGraph):
    """Orient tree edges away from the root and all remaining edges from the
    later-discovered endpoint to the earlier one.  On a bridgeless connected
    graph the resulting digraph is strongly connected."""
    n = graph.vertex_count
    order = {1: 0}
    sources = [None] * len(graph.edges)
    used = [False] * len(graph.edges)
    stack = [1]
    while stack:
        u = stack[-1]
        advanced = False
        for k in graph.incident_edges(u):
            if used[k]:
                continue
            a, b = graph.edges[k]
            if a == b:
                used[k] = True
                continue
            v = b if a == u else a
            if v not in order:
                used[k] = True
                sources[k] = u
                order[v] = len(order)
                stack.append(v)
                advanced = True
                break
        if not advanced:
            stack.pop()
    for k, (a, b) in enumerate(graph.edges):
        if sources[k] is None and a != b:
            sources[k] = a if order[a] > order[b] else b
    return Orientation(tuple(sources))


def balanced_orientation(graph: FeynmanGraph) -> BalancedFlow:
    """Orientation plus positive integer weights balanced at every vertex.

    Built as a sum of unit flows along directed cycles, one through each
    edge, which exists exactly when the graph has no bridge.
    """
    b = bridges(graph)
    if b:
        raise HasBridge(f"no balanced positive flow: bridges at edges {list(b)}")
    orient = _dfs_orientation(graph)
    n = len(graph.edges)
    heads = []
    for k, (u, v) in enumerate(graph.edges):
        src = orient.source(k)
        heads.append(v if src == u else u)
    weights = [0] * n
    for k in range(n):
        if weights[k] > 0:
            continue
        # shortest directed path from head(k) back to source(k)
        target = orient.source(k)
        start = heads[k]
        prev = {start: None}
        queue = deque([start])
        while queue and target not in prev:
            u = queue.popleft()
            for j in graph.incident_edges(u):
                if orient.source(j) != u:
                    continue
                v = heads[j]
                if v not in prev:
                    prev[v] = (u, j)
                    queue.append(v)
        if target not in prev:
            raise HasBridge("orientation is not strongly connected")
        weights[k] += 1
        v = target
        while prev[v] is not None:
            u, j = prev[v]
            weights[j] += 1
            v = u
    flow = BalancedFlow(orient, tuple(weights))
    assert is_balanced(graph, flow), "internal error: circulation not balanced"
    return flow


def is_balanced(graph: FeynmanGraph, flow: BalancedFlow) -> bool:
    """Check positivity and per-vertex conservation of a flow."""
    if any(w <= 0 for w in flow.weights):
        return False
    net = [0] * (graph.vertex_count + 1)
    for k, (u, v) in enumerate(graph.edges):
        if u == v:
            continue
        src = flow.orientation.source(k)
        snk = v if src == u else u
        net[src] += flow.weights[k]
        net[snk] -= flow.weights[k]
    return all(x == 0 for x in net)
