"""Hurwitz numbers of an elliptic curve by symmetric-group monodromy counts.

A connected, simply ramified degree-d cover of genus g corresponds to a tuple
of permutations (tau_1, ..., tau_{2g-2}, alpha, sigma) of {1..d} with

  (1) every tau_i a transposition,
  (2) tau_{2g-2} o ... o tau_1 o sigma = alpha o sigma o alpha^{-1}
      (composition right to left: sigma acts first),
  (3) the subgroup generated by all of tau_i, sigma, alpha transitive.

The Hurwitz number is the tuple count divided by d!.  This path shares no
code or ideas with the graph-integral and tropical-cover paths, so agreement
across all three is a strong end-to-end check.

Permutations are tuples of images on 0-based points.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from math import factorial


class BudgetExceeded(RuntimeError):
    """The enumeration would exceed the configured work budget."""


DEFAULT_BUDGET = 10**8
BUDGET_ENV_VAR = "HURWITZ_WORK_BUDGET"


def identity(d: int) -> tuple:
    return tuple(range(d))


def compose(p, q):
    """p o q: apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(q)))


def inverse(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def conjugate(alpha, sigma):
    """alpha o sigma o alpha^{-1}."""
    return compose(alpha, compose(sigma, inverse(alpha)))


def from_cycles(d: int, cycles) -> tuple:
    """Permutation of {0..d-1} from disjoint cycles of 0-based points."""
    img = list(range(d))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            img[x] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


def is_transposition(p) -> bool:
    moved = [i for i, x in enumerate(p) if x != i]
    return len(moved) == 2 and p[moved[0]] == moved[1] and p[moved[1]] == moved[0]


def transpositions(d: int) -> list:
    out = []
    for i in range(d):
        for j in range(i + 1, d):
            img = list(range(d))
            img[i], img[j] = j, i
            out.append(tuple(img))
    return out


def is_transitive(perms, d: int) -> bool:
    """Whether the group generated by ``perms`` acts transitively on the d
    points, via union-find over the orbits of the generators."""
    parent = list(range(d))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for i in range(d):
            ri, rj = find(i), find(p[i])
            if ri != rj:
                parent[ri] = rj
    root = find(0)
    return all(find(i) == root for i in range(d))


def verify_tuple(taus, alpha, sigma) -> bool:
    """Check the three monodromy conditions for a single tuple."""
    if not all(is_transposition(t) for t in taus):
        return False
    product = sigma
    for t in taus:
        product = compose(t, product)
    if product != conjugate(alpha, sigma):
        return False
    return is_transitive(list(taus) + [sigma, alpha], len(sigma))


def partitions(d: int):
    """Partitions of d as non-increasing tuples."""

    def rec(rest, largest):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, largest), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail

    yield from rec(d, d)


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


def _estimated_work(d: int, g: int) -> int:
    """Tuples the full enumeration visits: one alpha and one sigma per
    permutation, one transposition per branch point (there are d(d-1)/2)."""
    return (d * (d - 1) // 2) ** (2 * g - 2) * factorial(d) ** 2


def _budget(budget):
    if budget is not None:
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    return int(env) if env else DEFAULT_BUDGET


def _count_for_sigma(d, g, sigma):
    """Number of (taus, alpha) completing a fixed sigma to a valid tuple."""
    perms = list(itertools.permutations(range(d)))
    # alpha grouped by the conjugate it produces, so only transitivity
    # remains to be checked per candidate
    by_conjugate = {}
    for alpha in perms:
        by_conjugate.setdefault(conjugate(alpha, sigma), []).append(alpha)
    count = 0
    for taus in itertools.product(transpositions(d), repeat=2 * g - 2):
        product = sigma
        for t in taus:
            product = compose(t, product)
        for alpha in by_conjugate.get(product, ()):
            if is_transitive(list(taus) + [sigma, alpha], d):
                count += 1
    return count


def hurwitz_count(d: int, g: int, class_reduction: bool = True, budget=None) -> Fraction:
    """The degree-d genus-g Hurwitz number as an exact rational (an integer
    tuple count divided by d!).

    With ``class_reduction`` (the default) sigma runs over one representative
    per cycle type, scaled by the class size; this is valid because
    conjugating a whole tuple preserves validity.  The naive full enumeration
    remains available with ``class_reduction=False`` for auditing.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    if g < 2:
        raise ValueError("genus must be at least 2")
    limit = _budget(budget)
    work = _estimated_work(d, g)
    if work > limit:
        raise BudgetExceeded(
            f"estimated work {work} exceeds budget {limit}"
            f" (raise {BUDGET_ENV_VAR} to override)"
        )
    total = 0
    if class_reduction:
        for cycle_type in partitions(d):
            sigma = partition_representative(d, cycle_type)
            total += conjugacy_class_size(d, cycle_type) * _count_for_sigma(d, g, sigma)
    else:
        for sigma in itertools.permutations(range(d)):
            total += _count_for_sigma(d, g, sigma)
    return Fraction(total, factorial(d))
