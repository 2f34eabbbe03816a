"""Seeded inputs for the benchmark workloads, plus the benchmark's own graph
checks.

Everything here is plain stdlib and never imports ``ellcover``, so the
library's speed cannot leak into input building and the checks stay
independent of the code they judge.  ``make(workload, seed, i)`` builds the
inputs of iteration ``i`` of a run from a string-seeded ``random.Random``:
the same (workload, seed, i) always gives the same graphs and relabellings,
whatever else the run did before.

Graphs are ``(vertex_count, edges)`` with 1-based vertices and the edge order
significant, as ``FeynmanGraph.from_edges`` takes them.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from math import factorial

WORKLOADS = ("series-deep", "series-wide", "graph-classify", "cli-oracles")

# the two bridgeless genus-3 classes
LADDER = (4, ((1, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 4)))
K4 = (4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
# the ladder again, with the edge order the library's tests call "caterpillar"
CATERPILLAR = (4, ((1, 3), (1, 2), (1, 2), (2, 4), (3, 4), (3, 4)))

# graph-classify: genus-5 graphs (8 vertices, 12 edges) per batch, by how
# many vertices share the largest local type.  canonical_form's search grows
# with the factorials of those class sizes, so a batch of freely drawn graphs
# varies several-fold in cost; a fixed mix keeps batches comparable.
CLASSIFY_VERTICES = 8
CLASSIFY_MIX = ((8, 2), (7, 2), (6, 8))  # (largest class size at most, graphs)


def relabel(rng: random.Random, graph) -> tuple:
    """A random isomorphic copy: vertex permutation plus edge-order shuffle."""
    n, edges = graph
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    out = [(perm[u - 1], perm[v - 1]) for u, v in edges]
    rng.shuffle(out)
    return n, tuple(out)


def is_connected(n: int, edges, skip=None) -> bool:
    adj = {v: [] for v in range(1, n + 1)}
    for k, (u, v) in enumerate(edges):
        if k != skip:
            adj[u].append(v)
            adj[v].append(u)
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def own_bridges(n: int, edges) -> tuple:
    """0-based indices of the non-loop edges whose removal disconnects."""
    return tuple(k for k, (u, v) in enumerate(edges) if u != v and not is_connected(n, edges, skip=k))


def _multiplicities(edges) -> Counter:
    return Counter((min(u, v), max(u, v)) for u, v in edges)


def local_types(n: int, edges) -> Counter:
    """Vertex count per local type (loops, sorted multiplicities to the
    distinct neighbours); a multiset that isomorphisms preserve."""
    mult = _multiplicities(edges)
    types = Counter()
    for v in range(1, n + 1):
        loops = mult.get((v, v), 0)
        others = tuple(sorted(c for (a, b), c in mult.items() if a != b and v in (a, b)))
        types[(loops, others)] += 1
    return types


def edge_symmetry(edges) -> int:
    """Automorphisms fixing every vertex: parallel edges permuted, loops
    flipped.  It divides the order of the automorphism group."""
    out = 1
    for (u, v), m in _multiplicities(edges).items():
        out *= factorial(m) * (2**m if u == v else 1)
    return out


def own_canonical(n: int, edges) -> tuple:
    """Lexicographically least sorted edge tuple over all n! relabellings;
    brute force, used only on graphs of at most 6 vertices."""
    best = None
    for perm in itertools.permutations(range(1, n + 1)):
        form = tuple(sorted((min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1])) for u, v in edges))
        if best is None or form < best:
            best = form
    return best


def random_trivalent(rng: random.Random, n: int) -> tuple:
    """A connected trivalent multigraph on n vertices (loops and parallel
    edges allowed) from a uniformly random pairing of 3n half-edges."""
    while True:
        half = [v for v in range(1, n + 1) for _ in range(3)]
        rng.shuffle(half)
        edges = tuple((half[i], half[i + 1]) for i in range(0, len(half), 2))
        if is_connected(n, edges):
            return n, edges


def classify_batch(rng: random.Random) -> list:
    """Graphs for one graph-classify batch, in the fixed mix CLASSIFY_MIX,
    shuffled."""
    want = {cap: count for cap, count in CLASSIFY_MIX}
    caps = sorted(want)
    batch = []
    while any(want.values()):
        graph = random_trivalent(rng, CLASSIFY_VERTICES)
        largest = max(local_types(*graph).values())
        cap = next(c for c in caps if largest <= c)
        if want[cap]:
            want[cap] -= 1
            batch.append(graph)
    rng.shuffle(batch)
    return batch


def make(workload: str, seed: int, iteration: int) -> dict:
    """Inputs for one iteration of a workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}:{iteration}")
    if workload == "series-deep":
        return {"graphs": {"ladder": relabel(rng, LADDER), "k4": relabel(rng, K4)}, "degree": 10}
    if workload == "series-wide":
        # f_g enumerates its own graphs, so the seed cannot reach this input
        return {"genus": 4, "degree": 3}
    if workload == "graph-classify":
        graphs = classify_batch(rng)
        return {"pairs": [(g, relabel(rng, g)) for g in graphs], "enumerate": 4}
    return {
        "graphs": {
            "k4": relabel(rng, K4),
            "ladder": relabel(rng, LADDER),
            "caterpillar": relabel(rng, CATERPILLAR),
        }
    }
