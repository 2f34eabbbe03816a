"""Tropical covers of a circle by enumeration of weighted edge tuples.

An admissible tuple assigns every edge a positive weight and a direction:
edges of branch degree a_k > 0 take any divisor of a_k as weight and either
direction; edges of branch degree 0 point from the earlier vertex (in the
chosen vertex order) to the later one and take any weight up to the total
degree.  The tuple must balance at every vertex: outgoing weight equals
incoming weight.  Each tuple contributes the product of its weights.

This is a complete combinatorial description of the labelled tropical covers
with the given branch profile over the base point, and it never touches
Laurent-polynomial arithmetic, so it serves as an independent oracle for the
integral path.

All enumeration runs on one graded depth-first search (:func:`_search`), a
generator that assigns one edge per level of a recursion (:func:`_assign`)
and yields each tuple with its degree and weight product, so a caller
collects, sums or stops at the first tuple as it likes.  Each edge carries
its choices for every branch degree it may take, in degree order (every
caller passes each edge an ascending set of degrees), and the search keeps
the running total degree: the first choice that would push it past the cap
ends that edge's loop, since every later choice does too.  Edges are
assigned in an order that saturates vertices early, fixed per vertex order,
and a saturated vertex must balance, which prunes the search: the edge that
saturates a vertex must carry the vertex's running balance, so its weight
and direction are fixed and only the choices with that weight and source are
tried.  A fixed branch type gives every edge one degree
(:func:`enumerate_tuples`, :func:`count_covers`); the graph series gives
every edge all degrees up to d_max and adds each tuple's weight product to
its degree (:func:`tropical_series`).  Degree-0 weights stop at the cap,
which is exact: every degree-0 edge crossing a cut of the vertex order
between two consecutive positions points forward, so balance makes their
total weight equal to the net weight carried back across the cut by edges of
positive branch degree, at most sum(a) = d (each such weight divides its
a_k).

Every sum over vertex orders calls the one order search of :mod:`.integrals`
with the automorphisms that :func:`~ellcover.integrals._group` gives, as on
the integral path: it validates the graph and gives none for a graph with a
bridge, so the search keeps no order and the sum is zero.  The order enters
the tuple search only through the source of each degree-0 edge
(:func:`_options`, the endpoint of lower rank); the order in which edges are
assigned changes no count.  So a per-order count depends only on the
acyclic orientation o the order induces, and the order search, called
without a kernel, returns one (order, weight) pair per orbit of acyclic
orientations.  Its order is a
lexicographically first topological order, placed only when no
automorphism fixing the placed vertices maps the next one lower, and kept
at the leaf only when no image of o under the automorphisms and reversal
has a smaller first topological order; its weight is the orbit size times
the linear extensions of o (the :mod:`.integrals` docstring gives the
rules and why they lose nothing).  The count (:func:`_graded_counts`)
searches each of those orders on its own and shares nothing between them,
so the two oracles share the orbit decomposition but no arithmetic.  The
per-order functions validate the graph but make no bridge test, since the
search finds no tuple on such a graph: the bridge carries a positive weight
across a cut that balance says no net weight may cross.  The orbits are
sound for these counts:

* reversing the order and flipping every source is a bijection between the
  tuples of an order and those of its reverse, weights kept, so reversal is
  used for every sum, including a fixed branch type
  (:func:`count_covers_total`);
* a vertex automorphism maps the tuples of one order onto the tuples of the
  image order for a permuted branch type, so it is used only for sums over
  all compositions of a degree (:func:`tropical_series`).
"""

from __future__ import annotations

from ._frozen import Frozen, _check_int, _is_int
from .graphs import FeynmanGraph
from .integrals import _group, _order_search, check_branch_type, check_order
from .propagator import divisors
from .quasimodular import QSeries


class CoverTuple(Frozen):
    """One admissible choice per edge: weight, source vertex (the direction
    of flow) and wrap count (number of times the edge passes over the base
    point: a_k / w_k, or 0 for branch degree 0)."""

    __slots__ = ("weights", "sources", "wraps")

    @property
    def multiplicity(self) -> int:
        m = 1
        for w in self.weights:
            m *= w
        return m

    @property
    def degree(self) -> int:
        return sum(w * l for w, l in zip(self.weights, self.wraps))


class TropicalCover(Frozen):
    """A cover tuple spelled out as a cover description: per-edge weights,
    base-point fiber counts, total degree and multiplicity."""

    __slots__ = ("graph", "order", "weights", "sources", "fiber_counts", "degree", "multiplicity")

    def to_json(self) -> dict:
        return {
            "order": list(self.order),
            "weights": list(self.weights),
            "sources": list(self.sources),
            "fiber_counts": list(self.fiber_counts),
            "degree": self.degree,
            "multiplicity": self.multiplicity,
        }


def _options(graph, rank, degrees, d_max):
    """Per edge, its (branch degree, weight, source, wrap) choices over the
    branch degrees in ``degrees[k]``, and the same choices indexed by
    (weight, source), both in one pass and in degree order: ``degrees[k]``
    must be ascending (a singleton or a range), which every caller's is.
    Degree-0 choices point from the vertex of lower ``rank`` and stop at
    weight ``d_max``."""
    options, forced = [], []
    for k, (u, v) in enumerate(graph.edges):
        ends = (u,) if u == v else (u, v)
        forward = (u if rank[u] < rank[v] else v,)
        choices, index = [], {}
        for a in degrees[k]:
            weights, sources = (divisors(a), ends) if a else (range(1, d_max + 1), forward)
            for w in weights:
                for src in sources:
                    opt = (a, w, src, a // w)
                    choices.append(opt)
                    index.setdefault((w, src), []).append(opt)
        options.append(choices)
        forced.append(index)
    return options, forced


def _search(graph, order, degrees, d_max):
    """Yield ``(degree, multiplicity, chosen)`` for every admissible tuple
    of total branch degree at most ``d_max``, where ``chosen[k]`` is edge
    k's (branch degree, weight, source, wrap) choice; ``chosen`` is one list
    that the search goes on to change, so a caller reads it before asking
    for the next tuple.  Degree-0 weights stop at ``d_max`` (exact, see the
    module docstring).  Each ``degrees[k]`` is ascending, so the first
    choice past the cap ends an edge's loop.  The caller has checked the
    order."""
    rank = {lab: i for i, lab in enumerate(order)}
    options, forced = _options(graph, rank, degrees, d_max)
    edges = graph.edges
    # assign edges in an order that completes vertices early, so balance can
    # be checked (and the search pruned) as soon as a vertex is saturated,
    # which is at its last edge in the sequence
    edge_seq = [k for _, k in sorted((max(rank[u], rank[v]), k) for k, (u, v) in enumerate(edges))]
    last = {x: i for i, k in enumerate(edge_seq) for x in edges[k]}
    steps = []
    for i, k in enumerate(edge_seq):
        u, v = edges[k]
        steps.append((k, u, v, last[u] > i, last[v] > i, options[k], forced[k]))
    yield from _assign(steps, 0, 0, 1, [0] * (graph.vertex_count + 1), [None] * len(edges), d_max)


def _assign(steps, i, degree, mult, balance, chosen, d_max):
    """Yield the tuples of :func:`_search` that extend the choices made for
    the edges before position i of ``steps``, which have total branch degree
    ``degree``, weight product ``mult`` and out-flow less in-flow
    ``balance`` per vertex.  ``steps[i]`` holds the edge, its endpoints,
    whether each is still open after it, and its choices and their
    (weight, source) index."""
    if i == len(steps):
        yield degree, mult, chosen
        return
    k, u, v, u_open, v_open, options, forced = steps[i]
    if (u_open and v_open) or u == v:
        # a loop leaves the balance as it is, so it keeps every choice
        choices = options
    else:
        # x saturates: a positive balance b needs weight b into x, a
        # negative one weight -b out of x; a zero balance admits nothing
        x, y = (v, u) if u_open else (u, v)
        b = balance[x]
        choices = forced.get((b, y) if b > 0 else (-b, x), ())
    for opt in choices:
        a, w, src, _ = opt
        if degree + a > d_max:
            break
        snk = v if src == u else u
        balance[src] += w
        balance[snk] -= w
        if (u_open or balance[u] == 0) and (v_open or balance[v] == 0):
            chosen[k] = opt
            yield from _assign(steps, i + 1, degree + a, mult * w, balance, chosen, d_max)
        balance[src] -= w
        balance[snk] += w


def enumerate_tuples(graph: FeynmanGraph, a, order) -> list:
    """All admissible tuples for the branch type and vertex order.

    Bridged graphs admit none.  Degree-0 weights stop at the total degree
    sum(a), which is exhaustive: every edge of a cover of degree d has
    weight at most d.
    """
    order = check_order(graph, order)
    a = check_branch_type(graph, a)
    # zip(*chosen) gives the branch degrees, weights, sources and wraps
    return [CoverTuple(*list(zip(*chosen))[1:]) for _, _, chosen in _search(graph, order, [(x,) for x in a], sum(a))]


def _graded_counts(graph, orders, degrees, d_max) -> dict:
    """Total branch degree -> the sum, over the (order, weight) pairs of
    ``orders``, of weight times the weight products of the order's tuples of
    that degree, for degrees up to d_max.  One search per order: nothing is
    shared between orders."""
    counts = {}
    for order, weight in orders:
        for degree, mult, _ in _search(graph, order, degrees, d_max):
            counts[degree] = counts.get(degree, 0) + weight * mult
    return counts


def count_covers(graph: FeynmanGraph, a, order) -> int:
    """Weighted tuple count for one vertex order: the sum of weight products."""
    order = check_order(graph, order)
    a = check_branch_type(graph, a)
    total = sum(a)
    return _graded_counts(graph, [(order, 1)], [(x,) for x in a], total).get(total, 0)


def count_covers_total(graph: FeynmanGraph, a) -> int:
    """Weighted tuple count summed over all (2g-2)! vertex orders, one per
    reversal orbit of acyclic orientations (the branch type is fixed, so
    automorphisms are not used)."""
    a = check_branch_type(graph, a)
    total = sum(a)
    orders = _order_search(graph, _group(graph, symmetric=False))
    return _graded_counts(graph, orders, [(x,) for x in a], total).get(total, 0)


def tropical_series(graph: FeynmanGraph, d_max: int) -> QSeries:
    """The graph series by tropical enumeration: coefficient of q^{2d} is
    the weighted tuple count in total degree d, summed over all vertex
    orders (one per automorphism-and-reversal orbit of acyclic orientations,
    weighted by the orders in it), for d <= d_max.  Equal to
    :func:`~ellcover.integrals.i_gamma_series`."""
    _check_int(d_max, "d_max", 0)
    orders = _order_search(graph, _group(graph))
    counts = _graded_counts(graph, orders, [range(d_max + 1)] * len(graph.edges), d_max)
    return QSeries({2 * d: c for d, c in counts.items()}, 2 * d_max + 2)


def reconstruct_cover(graph: FeynmanGraph, a, order, tup: CoverTuple) -> TropicalCover:
    """Spell a tuple out as the cover it encodes.

    The fiber count of edge k over the base point is its wrap count, so the
    fiber condition  fiber_count * weight = branch degree  holds by
    construction, and the degree is the total branch degree.

    The tuple is checked as :func:`_search` builds one: a ValueError names
    the first edge whose weight is not a positive integer, whose source is
    not one of its endpoints, whose fiber count times weight is not its
    branch degree, or which has branch degree 0 and is not sourced at its
    earlier endpoint in ``order``; and then the first vertex whose in-flow
    and out-flow differ.
    """
    a = check_branch_type(graph, a)
    order = check_order(graph, order)
    if not isinstance(tup, CoverTuple) or any(
        not isinstance(field, (tuple, list)) or len(field) != len(a) for field in (tup.weights, tup.sources, tup.wraps)
    ):
        raise ValueError(f"tup must be a CoverTuple with one weight, source and wrap per edge, got {tup!r}")
    rank = {lab: i for i, lab in enumerate(order)}
    net = [0] * (graph.vertex_count + 1)
    for k, ((u, v), w, src, wrap) in enumerate(zip(graph.edges, tup.weights, tup.sources, tup.wraps)):
        if not (_is_int(w) and w > 0):
            raise ValueError(f"edge {k}: weight must be a positive integer, got {w!r}")
        if not (_is_int(src) and src in (u, v)):
            raise ValueError(f"edge {k}: source {src!r} is not an endpoint of ({u}, {v})")
        if not _is_int(wrap) or wrap * w != a[k]:
            raise ValueError(f"edge {k}: fiber count {wrap!r} * weight {w} != branch degree {a[k]}")
        if not a[k] and rank[src] > min(rank[u], rank[v]):
            raise ValueError(f"edge {k}: branch degree 0 must be sourced at its earlier endpoint, not {src}")
        net[src] += w
        net[v if src == u else u] -= w
    for x in range(1, graph.vertex_count + 1):
        if net[x]:
            raise ValueError(f"vertex {x}: out-flow less in-flow is {net[x]}, not 0")
    return TropicalCover(
        graph=graph,
        order=order,
        weights=tup.weights,
        sources=tup.sources,
        fiber_counts=tup.wraps,
        degree=sum(a),
        multiplicity=tup.multiplicity,
    )
