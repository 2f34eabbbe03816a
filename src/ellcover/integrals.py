"""Graph integrals by iterated constant-term extraction.

For a graph of genus g, a branch type a (one non-negative integer per edge)
and a total order on the vertices, the integral coefficient is the constant
term, in every vertex variable, of the product of the per-edge factors from
:mod:`.propagator`.  The order enters the integrand in one place only: it
picks the source of every degree-0 edge's one-sided expansion (the earlier
endpoint).  The sequence in which the variables are extracted does not
change the value, so extraction runs in the vertex order itself, one
variable at a time.  An edge's factor is multiplied into the running
product just before its earlier endpoint v is eliminated, which keeps
intermediate supports small; v is then the source of every factor it
multiplies.  v's edges to one later neighbour w are parallel, with v as
their common source, so they are multiplied as one bundle: the product of
their factors, merged on (total degree, exponent), comes out of a table
built once per process for each (degree sets, weight bound, degree bound).
That is one multiply per later neighbour rather than one per edge.

Every bundle is multiplied by one rule: a term is made only if the bundles
after it can still bring the x_v exponent to 0 within the degree bound.  The
last bundle asks that of an end room, so x_v^0 is extracted as the last
product is formed.  Rooms are caps on the packed keys, and each bundle keeps
the terms that pass per x_v exponent in a row, largest cap first, so each
term of the running product walks its row until it reaches a cap (see
:func:`_vertex_step`).  Rows and rooms are built the first time their
exponent is met and kept for every later kernel (see :class:`_Kernel`).
This is exact: a dropped term has no completion within the bound, so it
adds nothing to the step's output, and every coefficient is positive, so
nothing cancels.

One kernel, :class:`_Kernel`, computes every integral, one vertex step
(:func:`_vertex_step`) at a time.  Monomials are packed into ints with one
digit per vertex, and vertex v owns digit v - 1 whatever the order.  The
state after eliminating a prefix of an order then does not depend on the
rest of it, so the order search below passes it down its recursion and
shares it across every order through that prefix; :func:`_eliminate` runs
a single order.  With label digits a term's key offset can be positive or
negative within one degree, but a key passes the degree bound exactly when
its degree digit does (no digit carries), so a cap on the keys stands for a
bound on the degree.

Summing over all (2g-2)! vertex orders gives the labelled count for the
branch type; summing those over compositions of d gives degree counts and
the graph series.  A single-order integral depends only on the acyclic
orientation o that the order induces on the distinct vertex pairs, and o
counts once per linear extension, ext(o) times.  Two symmetries act on the
orientations and keep the counts:

* reversal: reversing an order maps the integrand to its image under
  x -> 1/x, which keeps the constant term, so reversal is used for every
  sum, including a fixed branch type (:func:`gromov_witten_a`,
  :func:`generating_function`);
* vertex automorphisms: phi gives I(a, phi o order) = I(a o psi, order) for
  an edge map psi induced by phi, so they are used only for sums that are
  symmetric in the edges, that is over all compositions of d
  (:func:`gromov_witten_d`, :func:`i_gamma_series`, the tropical
  :func:`f_g`).  ``f_g`` passes the automorphisms that enumeration found
  with each class, and takes |Aut| from them, so it searches no class
  again.

With G the automorphisms used, every sum is one orientation per orbit of
Gamma = G x {identity, reversal}, weighed by its orbit size
2|G| / |Stab(o)| times ext(o).  Every sum calls one search,
:func:`_order_search`, with the G that :func:`_group` gives: it validates
the graph and gives no automorphism at all for a graph with a bridge (its
counts all vanish, and an empty group has no orbits).  The tropical
``f_g`` passes its classes' automorphisms directly, since they are valid
and bridgeless by construction.  The search is the only enumerator of
vertex orders: a depth-first search that stands for each orientation by its
lexicographically first topological order, lexfirst(o), and places a vertex
v only when

* lex-first: for the last placed vertex u larger than v, v has a neighbour
  placed at or after u (else v was free to come before u);
* prefix: no automorphism that fixes every placed vertex maps v below v.
  This loses nothing: if g fixes the prefix p and g(v) < v, every order c
  through p + v has g(c) <lex c, and g(c) is a topological order of g(o),
  so lexfirst(g(o)) <= g(c) <lex c = lexfirst(o) and the leaf test below
  drops c anyway.

At a leaf c = lexfirst(o), c is kept only if no h in Gamma has
lexfirst(h(o)) <lex c.  Each lexfirst(h(o)) is built greedily (the
available vertex of least image; for a reversed h, available once its
successors are placed) and abandoned at its first difference from c.  The
h that tie are those with h(o) = o, so they number |Stab(o)|.  With the
trivial group only orders with pair 0 (the least adjacent pair) forward are
placed, weighed 2 ext(o), and the leaf test does not apply: reversal
flips the pair.  So the search keeps one order per orbit, with no seen set
and no orbit built.

Given a kernel, the search is fused with it: one state per prefix, one
vertex step (:class:`_Kernel`) per node, and a prefix whose state is empty
is cut, which is exact, since every completion of that prefix has constant
term 0.  Most orientations vanish at low degree (at (g, d) = (6, 3), 202 of
the 71,117 orbits are nonzero), and the cut drops them at a prefix.  Every
integral sum goes this way: one search over the degree-graded factors for
the edge-symmetric sums (:func:`gromov_witten_d` reads one coefficient of
:func:`i_gamma_series`), and one search with reversal alone per branch type
of :func:`gromov_witten_a` and :func:`generating_function`.  Without a
kernel the search returns the (order, weight) representatives themselves,
which the tropical counts take.

The single-order entry points (:func:`integral_coeff`,
:func:`i_gamma_coeffs_for_order`) validate the graph but make no bridge
test.  They return zero for a graph with a loop, whose factor is singular;
a loop of a connected trivalent graph always sits behind a bridge.  On any
other graph with a bridge the extraction gives zero by itself: balance at
the cut forces the bridge's weight to 0, and every weight is positive.

The integral ``f_g`` uses neither the kernel nor the search: one sweep over
the cuts of the vertex order 1..n (:func:`_sweep`) sums the edge factors of
:mod:`.propagator` over every graph at once, with no graph built (see
:func:`f_g` for the identity).
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import comb, perm
from operator import itemgetter

from ._frozen import Frozen, _check_int, _is_int
from .graphs import (
    FeynmanGraph,
    GenusTooLarge,
    _check_shape,
    _classes,
    _edge_symmetry,
    bridges,
    validate,
    vertex_automorphisms,
)
from .laurent import _check_coeff
from .monodromy import check_budget, hurwitz_numbers
from .propagator import _factor_terms
from .quasimodular import QSeries


def all_orders(graph: FeynmanGraph):
    """All total orders of the vertices, as tuples of 1-based labels."""
    return itertools.permutations(range(1, graph.vertex_count + 1))


def _extension_count(preds) -> int:
    """The number of orders of the vertices 1..n in which every vertex v
    follows the vertices of the bitmask ``preds[v]``: placed-vertex subset
    -> number of ways to place it, one vertex more per step."""
    n = len(preds) - 1
    ways = {0: 1}
    for _ in range(n):
        grown = {}
        for placed, c in ways.items():
            for v in range(1, n + 1):
                if not placed >> v & 1 and not preds[v] & ~placed:
                    key = placed | 1 << v
                    grown[key] = grown.get(key, 0) + c
        ways = grown
    return ways.popitem()[1]


def _group(graph: FeynmanGraph, symmetric: bool = True) -> list:
    """The automorphisms that a sum over the vertex orders of ``graph`` may
    hand :func:`_order_search` (each ``img`` with ``img[v]`` the image of
    v): ``[]`` for a graph with a bridge, whose counts all vanish (an empty
    group has no orbits, so the search returns at once); the identity alone
    unless ``symmetric``; and :func:`~ellcover.graphs.vertex_automorphisms`
    otherwise.

    ``symmetric=True`` is sound only for counts that are symmetric in the
    edges, such as degree totals over all compositions: an automorphism
    permutes the edges, so per-branch-type counts would depend on which order
    represents each orbit.  Counts for a fixed branch type pass
    ``symmetric=False`` and the search uses reversal alone.

    Validates the graph.
    """
    validate(graph)
    if bridges(graph):
        return []
    if not symmetric:
        return [tuple(range(graph.vertex_count + 1))]
    return vertex_automorphisms(graph)


def check_order(graph: FeynmanGraph, order) -> tuple:
    validate(graph)
    order = check_ints(order, "order")
    if sorted(order) != list(range(1, graph.vertex_count + 1)):
        raise ValueError(f"{order!r} is not a permutation of 1..{graph.vertex_count}")
    return order


def check_ints(values, name: str) -> tuple:
    """``values`` as a tuple of integers; ValueError naming ``name`` for
    anything else."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of integers, got {values!r}") from None
    return tuple(_check_int(x, f"{name} entry") for x in values)


def check_branch_type(graph: FeynmanGraph, a) -> tuple:
    _check_shape(graph)
    a = check_ints(a, "branch type")
    if len(a) != len(graph.edges):
        raise ValueError(f"branch type has {len(a)} entries, expected {len(graph.edges)}")
    if any(x < 0 for x in a):
        raise ValueError("branch type entries must be non-negative")
    return a


def compositions(d: int, parts: int):
    """All ways to write d as an ordered sum of ``parts`` non-negative ints,
    in lexicographic order; none for a negative d."""
    _check_int(d, "d")
    _check_int(parts, "parts", 0)
    if d < 0 or parts == 0:
        return iter([()] if d == parts == 0 else [])
    # stars and bars: the parts - 1 bars among d + parts - 1 slots, in
    # lexicographic order, cut the d stars into the parts in that order
    slots = d + parts - 1
    return (
        tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))
        for bars in itertools.combinations(range(slots), parts - 1)
    )


@lru_cache(maxsize=256)
def _bundle_terms(degree_sets: tuple, w_max: int, d_max: int) -> tuple:
    """The product of parallel edge factors, one per entry of
    ``degree_sets`` (each edge's branch degrees, which must be ascending, as
    every caller's are: nothing sorts them, and the loop over them stops at
    the first past ``d_max``), as (total degree, exponent, coefficient)
    triples merged on (total degree, exponent) and truncated at total degree
    ``d_max``.  Every edge runs from the same source to the same sink, so
    each term stands for coefficient * (x_source / x_sink)^exponent.
    Sorted by degree ascending, then exponent descending; built once per key
    rather than once per vertex order."""
    factor = {a: _factor_terms(a, w_max) for a in set().union(*degree_sets)}
    terms = {(0, 0): 1}
    for ds in degree_sets:
        merged = {}
        for (t, e), c in terms.items():
            for a in ds:
                if t + a > d_max:
                    break
                for e2, c2 in factor[a]:
                    key = (t + a, e + e2)
                    merged[key] = merged.get(key, 0) + c * c2
        terms = merged
    return tuple(sorted(((t, e, c) for (t, e), c in terms.items()), key=lambda x: (x[0], -x[1])))


def _vertex_step(state, p, radix, bias, stages) -> dict:
    """Eliminate the vertex v whose packed digit has place ``p``: multiply
    the running product ``state`` by each of v's bundles to its later
    neighbours in turn, with v's x^0 extracted as the last product is
    formed.

    ``stages`` holds one (groups, rows, room) per bundle, its (degree * top,
    key offset, coefficient) terms grouped by exponent, and then the end
    stage, whose room is {bias: (d_max + 1) * top}.  A room maps a digit to
    a cap: a key with that digit has a completion within the degree bound in
    the stages from there on exactly when it is below the cap.  A key with
    digit ds meets a term of exponent e only if their sum is below the next
    room at ds + e: any other product has no completion, and every
    coefficient is positive, so dropping it changes no output.
    ``rows[ds]`` (see :func:`_row`) lists the terms that some key meets, by
    the cap below which a key meets them, largest first, so each key walks
    its row until it reaches a cap.  A vertex with no later neighbour has
    the end stage alone: its step keeps the keys whose digit is at the bias.
    """
    if len(stages) == 1:
        return {key: c for key, c in state.items() if key // p % radix == bias}
    for i in range(len(stages) - 1):
        rows = stages[i][1]
        product = {}
        get = product.get
        for key, c in state.items():
            ds = key // p % radix
            row = rows.get(ds)
            if row is None:
                row = _row(stages, i, ds)
            for cap, offset, c2 in row:
                if key >= cap:
                    break
                s = key + offset
                # all coefficients are positive, so nothing cancels
                product[s] = get(s, 0) + c * c2
        state = product
    return state


def _row(stages, i, ds) -> list:
    """Bundle i's row for v's digit ds, as (cap, key offset, coefficient)
    by cap, largest first (see :func:`_vertex_step`), and its room at ds:
    built the first time ds is met, after the later rooms that it reads.
    A group's terms ascend by degree, so its scan stops at the first that
    no key can meet."""
    groups, rows, room = stages[i]
    later = stages[i + 1][2]
    row = []
    for e, terms in groups:
        if ds + e not in later and i + 2 < len(stages):
            _row(stages, i + 1, ds + e)
        bound = later.get(ds + e, 0)
        for t, offset, c in terms:
            if t >= bound:
                break
            row.append((bound - t, offset, c))
    row.sort(key=itemgetter(0), reverse=True)
    rows[ds] = row
    room[ds] = row[0][0] if row else 0
    return row


@lru_cache(maxsize=256)
def _bundle(degree_sets: tuple, w_max: int, d_max: int, top: int, shift: int, bias: int) -> tuple:
    """The packed bundle of the parallel edges with the (ascending, sorted)
    ``degree_sets`` from a source to a sink whose places differ by
    ``shift``, as a :func:`_vertex_step` stage: its (degree * top, key
    offset, coefficient) terms grouped by exponent, each group ascending by
    degree, with the rows and room that it has as a step's last bundle.
    Those read only the end room, which the key fixes, so every step that
    ends on the bundle shares them.  Shared by every kernel (see
    :class:`_Kernel`)."""
    groups = {}
    for t, e, c in _bundle_terms(degree_sets, w_max, d_max):
        groups.setdefault(e, []).append((t * top, t * top + e * shift, c))
    return tuple(groups.items()), {}, {}


@lru_cache(maxsize=256)
def _step(p: int, top: int, bias: int, w_max: int, d_max: int, bundles: tuple) -> tuple:
    """The :func:`_vertex_step` arguments that eliminate the vertex of place
    ``p`` through its ``bundles``, one (sorted degree sets, shift) per later
    neighbour in neighbour order: one stage per bundle, then the end stage.
    The last bundle's stage is its :func:`_bundle` entry; the others get
    rows and rooms of their own, which start empty and are filled as steps
    meet them, by any kernel that reads the entry."""
    stages = [_bundle(sets, w_max, d_max, top, shift, bias) for sets, shift in bundles]
    stages[:-1] = [(groups, {}, {}) for groups, _, _ in stages[:-1]]
    stages.append((None, None, {bias: (d_max + 1) * top}))
    return p, 2 * bias + 1, bias, stages


class _Kernel:
    """The packing of one kernel pass (see :func:`_eliminate`), shared by
    :func:`_eliminate` and :func:`_order_search`: ``zero`` is the packed
    monomial 1 and ``top`` the weight of the degree digit.  :meth:`step`
    eliminates one vertex.

    Its set-up is read from two bounded memos that every kernel of the
    process shares: :func:`_bundle`, keyed by (sorted degree sets, w_max,
    d_max, top, shift, bias), and :func:`_step`, keyed by (place of v, top,
    bias, w_max, d_max, the later neighbours' (sorted degree sets, shift) in
    neighbour order).  The keys are sound: the radix is 2 bias + 1 and the
    end room {bias: (d_max + 1) top}, so every packed term, row and room,
    a :func:`_bundle` entry's too, is a function of the key alone, whatever
    graph, order or call first built it.  They hold the packed ints rather
    than a shift-free form: the vertex count and the radix are fixed per
    genus and degree bound, so (top, shift) recurs across relabellings,
    classes and calls, and a step read again pays no per-term offset loop.
    ``steps`` keeps a reference to each step read, per vertex and set of
    later neighbours, so a hot step costs one dict lookup, and a step that
    the memo evicts stays valid for the kernels that hold it."""

    __slots__ = ("zero", "top", "bias", "place", "w_max", "d_max", "neighbours", "adjacent", "steps")

    def __init__(self, graph, degrees, w_max, d_max):
        n = graph.vertex_count
        weight = max([w_max] + [max(ds) for ds in degrees])
        self.bias = 6 * weight + 1
        radix = 2 * self.bias + 1
        self.place = [radix ** (v - 1) for v in range(n + 1)]
        self.top = radix**n
        self.zero = (self.top - 1) // 2  # every vertex digit at the bias: the monomial 1
        self.w_max, self.d_max = w_max, d_max
        neighbours = [{} for _ in range(n + 1)]
        for k, (u, v) in enumerate(graph.edges):
            neighbours[u].setdefault(v, []).append(tuple(degrees[k]))
            neighbours[v].setdefault(u, []).append(tuple(degrees[k]))
        # per vertex, neighbour w -> the sorted degree sets of the edges to w
        self.neighbours = [{w: tuple(sorted(sets)) for w, sets in ws.items()} for ws in neighbours]
        self.adjacent = [sum(1 << w for w in ws) for ws in self.neighbours]
        # steps[v]: bitmask of later neighbours -> v's _vertex_step arguments
        self.steps = [{} for _ in range(n + 1)]

    def step(self, state, v, placed) -> dict:
        """``state`` with vertex v eliminated, the vertices of the bitmask
        ``placed`` eliminated before it.  The first time v meets a set of
        later neighbours, its arguments are read from :func:`_step`."""
        later = self.adjacent[v] & ~placed
        args = self.steps[v].get(later)
        if args is None:
            p = self.place[v]
            bundles = tuple((sets, p - self.place[w]) for w, sets in self.neighbours[v].items() if later >> w & 1)
            args = self.steps[v][later] = _step(p, self.top, self.bias, self.w_max, self.d_max, bundles)
        return _vertex_step(state, *args)


def _eliminate(graph, order, degrees, w_max, d_max) -> dict:
    """Total branch degree t -> the constant term in every vertex variable
    of the product of the edge factors, the variables extracted in
    ``order``, for t <= d_max.  ``{}`` when d_max < 1 (positive weights on
    an acyclically oriented factor set cannot balance at total degree 0) or
    when the graph has a loop (its factor is singular).

    Edge k's factor is the sum of its factors over the branch degrees in
    ``degrees[k]`` (ascending), each tagged with its degree; degree-0
    expansions stop at weight ``w_max``.  A monomial is packed into one int
    (Kronecker substitution): vertex v owns digit v - 1, set by its label and
    not by its position in an order, in base R = 2B+1 with every exponent
    biased by B, and the top digit (weight ``top``) holds the total degree.
    Multiplying monomials adds their keys, truncation is one comparison and
    the x_v exponent is a digit.  No digit carries: a vertex meets three edge
    ends of weight at most W each, so its exponent stays within 6W < B.

    An edge is multiplied when its earlier endpoint v is eliminated, so v is
    the source of every degree-0 expansion; the d > 0 factors are symmetric.
    v's fresh edges are grouped by their later endpoint w, and each group is
    multiplied as one bundle: the product of its parallel edge factors, read
    from :func:`_bundle_terms`, so v makes one multiply per later neighbour
    rather than one per edge.  A bundle term of degree t and exponent e adds
    e to v's exponent and -e to w's, so its key offset is
    t * top + e * (R^(v-1) - R^(w-1)).  That shift is positive when w has
    the smaller label, so within one degree the offsets need not ascend.
    The caps of :func:`_vertex_step` are exact all the same: no digit
    carries, so a key of degree s is s * top + r with 0 <= r < top, and it
    is below (s' + 1) * top exactly when s <= s'.  x_v^0 is extracted inside
    the multiply by v's last bundle.
    """
    if d_max < 1 or graph.has_loop():
        return {}
    kernel = _Kernel(graph, degrees, w_max, d_max)
    state, placed = {kernel.zero: 1}, 0
    # the last vertex needs no step: every term adds as much to one exponent
    # as it takes from another, so once the others are at 0, so is the last
    for v in order[:-1]:
        state = kernel.step(state, v, placed)
        placed |= 1 << v
    return {(key - kernel.zero) // kernel.top: c for key, c in state.items()}


def _order_search(graph, maps, degrees=None, w_max=None, d_max=None):
    """The sum over all n! vertex orders, by one depth-first search over
    lexicographically first topological orders (see the module docstring
    for its rules and why they lose nothing), one order kept per orbit of
    acyclic orientations under reversal and the automorphisms ``maps``
    (identity included, ``img[v]`` the image of v), as :func:`_group`
    gives them.  An empty group has no orbits, so the search returns at once.

    Given the kernel's ``degrees``, ``w_max`` and ``d_max`` (as for
    :func:`_eliminate`), it returns total branch degree -> the kernel sum
    over all orders, passing each prefix's state down the recursion
    (:func:`_place`) and cutting every prefix whose state is empty.
    Without them, it returns the (order, weight) pairs it keeps, the
    weights summing to n!.
    """
    n = graph.vertex_count
    kernel = None
    if degrees is not None:
        if not maps or d_max < 1 or graph.has_loop():
            return {}
        kernel = _Kernel(graph, degrees, w_max, d_max)
    elif not maps:
        return []
    adjacent = [0] * (n + 1)
    for u, v in graph.edges:
        if u != v:
            adjacent[u] |= 1 << v
            adjacent[v] |= 1 << u
    # the trivial group keeps pair 0, the least adjacent pair, forward
    pair = min((u, v) if u < v else (v, u) for u, v in graph.edges if u != v) if len(maps) == 1 else None
    out = {} if kernel else []
    state = {kernel.zero: 1} if kernel else None
    _place([], 0, state, maps, [0] * (n + 1), adjacent, pair, maps, kernel, out)
    return out


def _place(order, placed, state, fixing, before, adjacent, pair, maps, kernel, out):
    """Place each vertex that the rules let follow the prefix ``order`` (the
    bitmask ``placed``, with the kernel ``state`` after it and the
    automorphisms ``fixing`` that fix each of its vertices), least first,
    and recurse; add each leaf that the leaf test keeps to ``out``.
    ``before[v]`` is the bitmask of the vertices placed before v; ``pair``
    is pair 0 with the trivial group, else None."""
    n = len(adjacent) - 1
    for v in range(1, n + 1):
        if (
            placed >> v & 1
            or pair and v == pair[1] and not placed >> pair[0] & 1
            or any(img[v] < v for img in fixing)
        ):
            continue
        for u in reversed(order):
            if u > v:
                break
        else:
            u = 0
        # for the last placed vertex u above it, v needs a neighbour placed
        # at or after u
        if u and not adjacent[v] & placed & ~before[u]:
            continue
        before[v] = placed
        if len(order) < n - 1:
            after = kernel.step(state, v, placed) if kernel else None
            if kernel and not after:
                continue  # every completion of this prefix is 0
            order.append(v)
            fixed = [img for img in fixing if img[v] == v]
            _place(order, placed | 1 << v, after, fixed, before, adjacent, pair, maps, kernel, out)
            order.pop()
            continue
        # a leaf; the last vertex needs no step (see _eliminate)
        leaf = order + [v]
        preds = [adjacent[u] & before[u] for u in range(n + 1)]
        weight = 2 if pair else _orbit_size(leaf, preds, [a & ~p for a, p in zip(adjacent, preds)], maps)
        if not weight:
            continue
        weight *= _extension_count(preds)
        if not kernel:
            out.append((tuple(leaf), weight))
            continue
        for key, c in state.items():
            t = (key - kernel.zero) // kernel.top
            out[t] = out.get(t, 0) + weight * c


def _orbit_size(order, preds, succs, maps) -> int:
    """The orbit size 2|G| / |Stab(o)| of the orientation o whose
    lexicographically first topological order is ``order`` (v follows the
    bitmask ``preds[v]`` and precedes ``succs[v]``), under the automorphisms
    ``maps`` with and without reversal; 0 if some image of o has a
    lexicographically first topological order below ``order``.  Each
    image's order is built greedily and abandoned at its first difference
    from ``order``; its first vertex is the least image of a source (of a
    sink, reversed)."""
    ties = 0
    for deps in (succs, preds):
        starts = [u for u in order if not deps[u]]
        for img in maps:
            y = min(img[u] for u in starts)
            if y != order[0]:
                if y < order[0]:
                    return 0
                continue
            done = 1 << img.index(y)
            for x in order[1:]:
                y = min(img[u] for u in order if not done >> u & 1 and not deps[u] & ~done)
                if y != x:
                    if y < x:
                        return 0
                    break
                done |= 1 << img.index(y)
            else:
                ties += 1
    return 2 * len(maps) // ties


def integral_coeff(graph: FeynmanGraph, a, order, w_max=None) -> int:
    """Coefficient of the branch-type monomial in the single-order integral.

    ``order`` fixes the one-sided expansion of every degree-0 edge factor,
    and the vertex variables are extracted in it.  ``w_max`` (at least 1)
    bounds the degree-0 expansions and defaults to sum(a), which is exact:
    no balanced monomial can involve a larger weight.
    A graph with a loop gives 0 (see the module docstring).
    """
    order = check_order(graph, order)
    a = check_branch_type(graph, a)
    if w_max is not None:
        _check_int(w_max, "w_max", 1)
    total = sum(a)
    w_max = total if w_max is None else w_max
    return _eliminate(graph, order, [(x,) for x in a], w_max, total).get(total, 0)


def gromov_witten_a(graph: FeynmanGraph, a) -> int:
    """Labelled count for one branch type: the sum of the single-order
    integrals over all vertex orders, one per reversal orbit of acyclic
    orientations, in one kernel search."""
    a = check_branch_type(graph, a)
    total = sum(a)
    return _order_search(graph, _group(graph, symmetric=False), [(x,) for x in a], total, total).get(total, 0)


def gromov_witten_d(graph: FeynmanGraph, d: int) -> int:
    """Degree-d count scaled by |Aut|: the sum of the labelled counts over
    every composition of d into one part per edge, the q^{2d} coefficient of
    :func:`i_gamma_series` up to d (one search)."""
    _check_int(d, "degree", 0)
    return i_gamma_series(graph, d).coeff(2 * d)


def _branch_type(a, arity: int) -> tuple:
    """``a`` if it is a tuple of ``arity`` non-negative integers, the key
    rule of :class:`MultiSeries`; ValueError naming the branch type
    otherwise."""
    if not (isinstance(a, tuple) and len(a) == arity and all(_is_int(x) and x >= 0 for x in a)):
        raise ValueError(f"branch type must be a tuple of {arity} non-negative integers, got {a!r}")
    return a


class MultiSeries(Frozen):
    """Multigraded generating function: branch type -> count.

    The branch types are tuples of ``arity`` non-negative integers and the
    counts exact (``int`` or ``Fraction``); anything else raises, as in
    :class:`~ellcover.quasimodular.QSeries`.
    """

    __slots__ = ("arity", "coeffs")

    def __init__(self, arity: int, coeffs: dict):
        _check_int(arity, "arity", 0)
        if not isinstance(coeffs, Mapping):
            raise ValueError(f"coeffs must be a mapping from branch types to counts, got {coeffs!r}")
        clean = {}
        for a, c in coeffs.items():
            _branch_type(a, arity)
            if _check_coeff(c) != 0:
                clean[a] = c
        Frozen.__init__(self, arity, clean)

    def coeff(self, a: tuple) -> int:
        """The count of branch type ``a``, which follows the constructor's
        key rule."""
        return self.coeffs.get(_branch_type(a, self.arity), 0)

    def sorted_items(self):
        """Monomials in graded reverse lexicographic order, highest degree
        first (the order a computer algebra system would print)."""
        return sorted(self.coeffs.items(), key=lambda kv: (-sum(kv[0]), tuple(reversed(kv[0]))))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for a, c in self.sorted_items():
            mono = "*".join(
                f"q({i + 1})^{e}" if e > 1 else f"q({i + 1})"
                for i, e in enumerate(a)
                if e
            )
            parts.append(f"{c}*{mono}" if mono else str(c))
        return "+".join(parts)


def generating_function(graph: FeynmanGraph, d_max: int) -> MultiSeries:
    """All labelled counts with total branch degree at most d_max."""
    _check_shape(graph)
    _check_int(d_max, "d_max", 0)
    types = [a for d in range(d_max + 1) for a in compositions(d, len(graph.edges))]
    maps = _group(graph, symmetric=False)
    # one kernel search per branch type
    counts = {a: _order_search(graph, maps, [(x,) for x in a], sum(a), sum(a)).get(sum(a), 0) for a in types}
    return MultiSeries(len(graph.edges), counts)


def i_gamma_coeffs_for_order(graph: FeynmanGraph, order, d_max: int) -> dict:
    """Degree -> coefficient of the single-order integral, all degrees up to
    d_max in one pass: every edge runs over all its branch degrees at once,
    graded by total degree and truncated at d_max (degree-0 slots at weight
    d_max).  A graph with a loop gives ``{}``, as for :func:`integral_coeff`.
    """
    order = check_order(graph, order)
    _check_int(d_max, "d_max", 0)
    return _eliminate(graph, order, [range(d_max + 1)] * len(graph.edges), d_max, d_max)


def i_gamma_series(graph: FeynmanGraph, d_max: int) -> QSeries:
    """The graph series: coefficient of q^{2d} is the total labelled count in
    degree d, summed over all vertex orders (one per automorphism-and-reversal
    orbit of acyclic orientations, weighted by the orders in it), for
    d <= d_max, in one kernel search over the degree-graded factors."""
    _check_int(d_max, "d_max", 0)
    maps = _group(graph)
    counts = _order_search(graph, maps, [range(d_max + 1)] * len(graph.edges), d_max, d_max)
    return QSeries({2 * d: c for d, c in counts.items()}, 2 * d_max + 2)


@lru_cache(maxsize=16)
def _open_terms(d_max: int) -> tuple:
    """For m = 0..3 new edges opened at one vertex: exponent sum -> the
    (total degree, sorted exponents, coefficient) of every ordered m-tuple
    of edge terms (see :func:`_sweep`), merged on (total degree, sorted
    exponents), ascending, and truncated at total degree ``d_max`` >= 1.
    Three new edges are opened only by a vertex that closes none, so only
    their sum 0 is built."""
    one = {}  # exponent -> (degree, coefficient) of one edge's terms
    for a in range(d_max + 1):
        for e, c in _factor_terms(a, d_max):
            one.setdefault(e, []).append((a, c))
    tables = [{(0, ()): 1}]
    for m in (1, 2, 3):
        grown = {}
        for (t, exps), c in tables[-1].items():
            for e in [-sum(exps)] if m == 3 else one:
                for a, c2 in one.get(e, ()):
                    if t + a <= d_max:
                        key = (t + a, tuple(sorted(exps + (e,))))
                        grown[key] = grown.get(key, 0) + c * c2
        tables.append(grown)
    out = []
    for table in tables:
        by_sum = {}
        for (t, exps), c in sorted(table.items()):
            by_sum.setdefault(sum(exps), []).append((t, exps, c))
        out.append(by_sum)
    return tuple(out)


@lru_cache(maxsize=4096)
def _moves(pool: tuple, d_max: int) -> tuple:
    """Every way one vertex of the sweep (see :func:`_sweep`) leaves the
    open edges with the sorted exponents ``pool``, as (degree added, next
    pool, number of ways), merged on the first two and ascending by degree.
    The vertex closes k <= 3 edges of the pool, k_e of those with exponent
    e, in prod C(mult_e, k_e) * 3!/(3 - k)! ways, and opens 3 - k new ones
    whose exponents sum to the closed ones', so its own exponent is 0.

    A state with this pool has total degree at least ``low``: an open edge
    of exponent -2w has a degree a > 0 with w | a.  So a move that adds
    more than d_max - low is left out; no state makes it within the bound.
    """
    opened = _open_terms(d_max)
    low = -sum(e for e in pool if e < 0) // 2
    moves = {}
    for k in range(min(3, len(pool)) + 1):
        for closed in set(itertools.combinations(pool, k)):
            ways = perm(3, k)
            for e in set(closed):
                ways *= comb(pool.count(e), closed.count(e))
            rest = list(pool)
            for e in closed:
                rest.remove(e)
            for t, exps, c in opened[3 - k].get(sum(closed), ()):
                if low + t > d_max:
                    break
                key = (t, tuple(sorted(rest + list(exps))))
                moves[key] = moves.get(key, 0) + ways * c
    return tuple(sorted((t, nxt, c) for (t, nxt), c in moves.items()))


def _sweep(g: int, d_max: int) -> dict:
    """Total branch degree d -> the coefficient of q^{2d} in F_g, for
    1 <= d <= d_max, from the Feynman sum with no graph (see :func:`f_g`
    for the identity).  The budget of :func:`~ellcover.monodromy.check_budget`
    is checked first: the exponential formula's ~(g - 1)^2 (d + 1)^2 / 4
    big-int steps fit within its estimate.

    Vertices 1..n = 2g - 2 are placed in turn.  A state is (total degree,
    sorted exponents of the open edges: placed source, unplaced sink) with
    the number of weighted half-edge matchings that reach it; each vertex
    moves it by :func:`_moves`.  A step whose pool outgrows what the
    vertices left can close, 3 per vertex, is skipped.  The states with an
    empty pool after k vertices sum to Z_k."""
    check_budget(d_max, g)
    if d_max < 1:
        return {}
    n = 2 * g - 2
    states = {(0, ()): 1}
    z = [[1] + [0] * d_max]
    for v in range(1, n + 1):
        room = 3 * (n - v)
        grown = {}
        for (t, pool), c in states.items():
            for dt, nxt, ways in _moves(pool, d_max):
                if t + dt > d_max:
                    break
                if len(nxt) <= room:
                    key = (t + dt, nxt)
                    grown[key] = grown.get(key, 0) + c * ways
        states = grown
        z.append([states.get((t, ()), 0) for t in range(d_max + 1)])
    # connected sums: the block of vertex 1 has j vertices, an even number
    connected = {}
    for m in range(2, n + 1, 2):
        cm = z[m][:]
        for j in range(2, m, 2):
            b = comb(m - 1, j - 1)
            zr = z[m - j]
            for t1, x in enumerate(connected[j]):
                if x:
                    x *= b
                    for t2 in range(1, d_max + 1 - t1):
                        cm[t1 + t2] -= x * zr[t2]
        connected[m] = cm
    return {t: Fraction(x, 6**n) for t, x in enumerate(connected[n]) if x}


ORACLES = ("integral", "tropical", "sym")


def f_g(g: int, d_max: int, oracle: str = "integral") -> QSeries:
    """Generating series of the genus-g Hurwitz numbers of an elliptic curve
    up to q^{2 d_max}, by one of three independent paths:

    * ``"integral"``: the Feynman sum F_g = sum over the trivalent genus-g
      graphs Gamma of (1 / |Aut Gamma|) sum over the vertex orders Omega of
      I(Gamma, Omega), the single-order series of
      :func:`i_gamma_coeffs_for_order`, by one sweep (:func:`_sweep`) that
      builds no graph, at every genus whose work fits
      :func:`~ellcover.monodromy.check_budget`;
    * ``"tropical"``: the automorphism-weighted sum of
      :func:`~ellcover.tropical.tropical_series` over the bridgeless
      trivalent genus-g graphs (a graph with a bridge adds nothing), genus
      at most 5 (the bound of :func:`~ellcover.graphs.enumerate_genus`).
      The order search takes the automorphisms that enumeration found with
      each class, so no class is validated, tested for a bridge or searched
      for its automorphisms again;
    * ``"sym"``: :func:`~ellcover.monodromy.hurwitz_numbers`, the
      symmetric-group character formula for every degree up to ``d_max`` in
      one pass (no graphs, so the genus bound does not apply).

    The integral path rests on three steps, with n = 2g - 2:

    * (i) relabelling: a class has n! / |Aut_V| labellings on 1..n, and a
      relabelling takes each order to the identity, so F_g is the sum over
      the loopless trivalent multigraphs G on the labels 1..n of
      I(G, identity) / prod_{u<v} m_uv!, with m_uv the edges from u to v
      (a graph with a loop adds 0);
    * (ii) Wick: G arises from 6^n / prod m_uv! perfect matchings of the 3n
      half-edges with no pair inside a vertex, so F_g is 6^-n times the sum
      over those matchings;
    * (iii) the sweep: the vertices are placed in label order, and the
      state is the total degree and the exponents of the open edges, which
      cross the cut from a placed source to an unplaced sink.  A vertex
      closes k of them and opens 3 - k, and its exponent must come to 0.
      The states with no open edge after k vertices give Z_k, the sum over
      every graph on k vertices, disconnected ones included, and the
      exponential formula C_m = Z_m - sum_{j<m} C(m-1, j-1) C_j Z_{m-j}
      leaves the connected sums: F_g = C_n / 6^n.

    The pool stays small: every placed vertex is balanced, so the open
    exponents sum to 0; an exponent is +-2w for an edge of weight w, and a
    negative one needs a degree a > 0 with w | a.  So p open edges need
    total degree at least p / 2, the pool holds at most 2 d_max edges, and
    the number of states depends on d_max alone.

    The tropical oracle at a genus above 5 raises
    :class:`~ellcover.graphs.GenusTooLarge` naming the oracle and its
    bound.  The integral and ``sym`` paths check their work budget before
    any degree is counted.  Every coefficient is checked to be a
    non-negative integer.
    """
    if oracle not in ORACLES:
        raise ValueError(f"unknown oracle {oracle!r}, expected one of {', '.join(ORACLES)}")
    _check_int(g, "g", 2)
    _check_int(d_max, "d_max", 0)
    if oracle == "sym":
        total = {2 * d: h for d, h in enumerate(hurwitz_numbers(d_max, g), 1)}
    elif oracle == "integral":
        total = {2 * d: c for d, c in _sweep(g, d_max).items()}
    else:
        # tropical imports this module, so it is imported here; the oracle
        # keeps enumeration's bound: its genus-6 cost is unmeasured
        from .tropical import _graded_counts

        bound = 5
        if g > bound:
            raise GenusTooLarge(
                f"genus {g} exceeds the {oracle} oracle's genus bound {bound}; oracle=\"sym\" has no genus bound"
            )
        total = {}
        degrees = [range(d_max + 1)] * (3 * g - 3)  # every class has 3g - 3 edges
        for graph, maps in _classes(g, bridgeless=True, max_genus=bound):
            counts = _graded_counts(graph, _order_search(graph, maps), degrees, d_max)
            aut = len(maps) * _edge_symmetry(graph)
            for d, c in counts.items():
                total[2 * d] = total.get(2 * d, 0) + Fraction(c, aut)
    out = {}
    for e, c in total.items():
        if c != 0:
            frac = Fraction(c)
            if frac.denominator != 1 or frac < 0:
                raise ArithmeticError(f"coefficient of q^{e} is {frac}, expected a non-negative integer")
            out[e] = int(frac)
    return QSeries(out, 2 * d_max + 2)
