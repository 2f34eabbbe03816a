"""Slow, independent references that the tests pin the library against,
and helpers that no count of the library calls.

* :func:`order_orbits` walks all n! vertex orders.
* :func:`orientation_orbits` builds the orbits of acyclic orientations pair
  by pair, marking each orbit's images in a seen set: the orbit pass that
  the library's order search replaced.
* :func:`vertex_step` is the kernel's vertex step without the filter on
  the bundles before the last: it makes every term of their products.
* The permutation and partition helpers build the monodromy tests'
  tuple-by-tuple references (``ellcover.monodromy`` lists no partition and
  builds no permutation).

Only the automorphisms come from the library.
"""

import itertools
from math import factorial

from ellcover.graphs import vertex_automorphisms


def trivial_group(graph) -> list:
    """The identity alone, for sums that use reversal alone."""
    return [tuple(range(graph.vertex_count + 1))]


def order_orbits(graph, symmetric: bool = True) -> list:
    """(representative order, weight) for every orbit of the vertex orders
    under order reversal and, when ``symmetric``, the vertex automorphisms
    of ``graph``.  The representative is the orbit's lexicographically first
    order and the weight its size, so the weights sum to n!."""
    maps = vertex_automorphisms(graph) if symmetric else trivial_group(graph)
    seen = set()
    out = []
    for order in itertools.permutations(range(1, graph.vertex_count + 1)):
        if order in seen:
            continue
        orbit = set()
        for img in maps:
            image = tuple(img[v] for v in order)
            orbit.add(image)
            orbit.add(image[::-1])
        seen |= orbit
        out.append((order, len(orbit)))
    return out


def orientation_orbits(graph, maps=None) -> list:
    """(representative order, weight) for every orbit of the acyclic
    orientations of the distinct vertex pairs of ``graph`` under reversal
    and the vertex automorphisms ``maps`` (identity included, ``img[v]`` the
    image of v; all of them when None).  The representative is the
    lexicographically first topological order of one orientation of the
    orbit; the weight is the orbit size times the number of linear
    extensions of that orientation, so the weights sum to n!.

    A depth-first search orients the pairs one at a time and drops every
    choice that closes a cycle; the images of each new orientation are
    marked as seen, so each orbit is counted once.  The first pair keeps one
    direction, since every orbit has both (reversal flips it).
    """
    if maps is None:
        maps = vertex_automorphisms(graph)
    n = graph.vertex_count
    pairs = sorted({(u, v) for u, v in graph.edges if u != v})
    index = {p: i for i, p in enumerate(pairs)}
    # an orientation is a bitmask: bit i set points pair i = (u, v) from v to
    # u; moves[j][i][b] is the image bit, under map j, of pair i at direction b
    moves = []
    for img in maps:
        move = []
        for u, v in pairs:
            bit = 1 << index[min(img[u], img[v]), max(img[u], img[v])]
            move.append((0, bit) if img[u] < img[v] else (bit, 0))
        moves.append(move)
    full = (1 << len(pairs)) - 1
    seen = set()
    out = []
    # reach[x] is the bitmask of the vertices reachable from x, x included
    stack = [(0, 0, [1 << x for x in range(n + 1)])]
    while stack:
        i, mask, reach = stack.pop()
        if i < len(pairs):
            u, v = pairs[i]
            choices = ((1 << i, v, u), (0, u, v))
            for bit, src, snk in choices if i else choices[1:]:
                if reach[snk] >> src & 1:
                    continue  # src -> snk would close a cycle
                ahead = reach[snk]
                stack.append((i + 1, mask | bit, [r | ahead if r >> src & 1 else r for r in reach]))
            continue
        if mask in seen:
            continue
        orbit = set()
        for move in moves:
            image = 0
            for k, bits in enumerate(move):
                image |= bits[mask >> k & 1]
            orbit.add(image)
            orbit.add(image ^ full)
        seen.update(orbit)
        preds = [0] * (n + 1)
        for k, (u, v) in enumerate(pairs):
            if mask >> k & 1:
                preds[u] |= 1 << v
            else:
                preds[v] |= 1 << u
        out.append((first_extension(preds), extension_count(preds) * len(orbit)))
    return out


def first_extension(preds) -> tuple:
    """The lexicographically first order of 1..n in which every vertex v
    follows the vertices of the bitmask ``preds[v]``."""
    placed = 0
    order = []
    for _ in range(len(preds) - 1):
        v = next(v for v in range(1, len(preds)) if not placed >> v & 1 and not preds[v] & ~placed)
        placed |= 1 << v
        order.append(v)
    return tuple(order)


def extension_count(preds) -> int:
    """The number of orders of 1..n in which every vertex v follows the
    vertices of the bitmask ``preds[v]``, by placed-vertex subsets."""
    n = len(preds) - 1
    ways = {0: 1}
    for _ in range(n):
        grown = {}
        for placed, c in ways.items():
            for v in range(1, n + 1):
                if not placed >> v & 1 and not preds[v] & ~placed:
                    grown[placed | 1 << v] = grown.get(placed | 1 << v, 0) + c
        ways = grown
    return ways.popitem()[1]


def vertex_step(state, p, radix, bias, limit, top, stages, matched) -> dict:
    """``ellcover.integrals._vertex_step`` on the same arguments, with every
    bundle but the last multiplied in full: every term of state x bundle
    below ``limit`` is made, whether or not the bundles after it can bring
    the vertex's digit to the bias within the degree bound; ``top`` and the
    rows and rooms are not read."""
    for factor, _, _ in stages[:-1]:
        product = {}
        for key, c in state.items():
            for _, _, offset, c2 in factor:
                s = key + offset
                if s >= limit:
                    break
                product[s] = product.get(s, 0) + c * c2
        state = product
    if matched is None:
        return {key: c for key, c in state.items() if key // p % radix == bias}
    product = {}
    for key, c in state.items():
        for offset, c2 in matched.get(key // p % radix, ()):
            s = key + offset
            if s >= limit:
                break
            product[s] = product.get(s, 0) + c * c2
    return product


# -- permutations and partitions, on 0-based points ----------------------


def identity(d: int) -> tuple:
    return tuple(range(d))


def from_cycles(d: int, cycles) -> tuple:
    """Permutation of {0..d-1} from disjoint cycles of 0-based points."""
    img = list(range(d))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            img[x] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


def transpositions(d: int) -> list:
    out = []
    for i in range(d):
        for j in range(i + 1, d):
            img = list(range(d))
            img[i], img[j] = j, i
            out.append(tuple(img))
    return out


def partitions(d: int):
    """Partitions of d as non-increasing tuples, in reverse lexicographic
    order: each one lowers the last part above 1 of the previous and refills
    the rest greedily with parts no larger."""
    parts = [d] if d else []
    while True:
        yield tuple(parts)
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        parts[-1] -= 1
        largest, rest = parts[-1], ones + 1
        while rest > largest:
            parts.append(largest)
            rest -= largest
        if rest:
            parts.append(rest)


def partition_representative(d: int, cycle_type) -> tuple:
    """A permutation with the given cycle type, on consecutive points."""
    cycles = []
    start = 0
    for length in cycle_type:
        cycles.append(tuple(range(start, start + length)))
        start += length
    return from_cycles(d, cycles)


def conjugacy_class_size(d: int, cycle_type) -> int:
    """Size of the conjugacy class: d! / prod(i^{m_i} m_i!)."""
    centralizer = 1
    for length in set(cycle_type):
        m = cycle_type.count(length)
        centralizer *= length**m * factorial(m)
    return factorial(d) // centralizer


def content_sum(shape) -> int:
    """c(lambda): the sum of j - i over the boxes (i, j) of the Young
    diagram with row lengths ``shape``, from the top."""
    return sum(part * (part - 1) // 2 - i * part for i, part in enumerate(shape))
