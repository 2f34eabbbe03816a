"""Hurwitz numbers of an elliptic curve by symmetric-group monodromy counts.

A connected, simply ramified degree-d cover of genus g corresponds to a tuple
of permutations (tau_1, ..., tau_{2g-2}, alpha, sigma) of {1..d} with

  (1) every tau_i a transposition,
  (2) tau_{2g-2} o ... o tau_1 o sigma = alpha o sigma o alpha^{-1}
      (composition right to left: sigma acts first),
  (3) the subgroup generated by all of tau_i, sigma, alpha transitive.

The Hurwitz number is the tuple count divided by d!.  :func:`hurwitz_count`
enumerates no tuple; it evaluates Dijkgraaf's character formula (1995).
By Frobenius, the pairs (alpha, sigma) with [alpha, sigma] = P number
d! sum_chi chi(P) / chi(1), and the sum of all transpositions, being central,
acts on the irreducible representation lambda by the content sum
c(lambda) = sum of j - i over the boxes (i, j) of lambda.  So the tuples with (1) and (2) number d! Z_d[2g - 2], where
Z_d[n] = sum over lambda |- d of c(lambda)^n.  For (3): the orbits of a tuple
split it into transitive tuples on the blocks, which share out the labelled
branch points, so sum_d x^d sum_n Z_d[n] u^n / n! is the exponential of the
same series of the Hurwitz numbers H_d[n].  Its logarithm gives H_d = M_d / d
with M_d = d Z_d - sum_{0<j<d} M_j * Z_{d-j}, where
(A * B)[i] = sum_r C(i, r) A[r] B[i - r] multiplies exponential series in u.

This path imports nothing from the package and shares no ideas with the
graph-integral and tropical-cover paths, so agreement across all three is a
strong end-to-end check.  The permutation helpers are what the tests'
tuple-by-tuple reference count is built from.

Permutations are tuples of images on 0-based points.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import comb, factorial


class BudgetExceeded(RuntimeError):
    """The count would exceed the configured work budget."""


DEFAULT_BUDGET = 10**8
BUDGET_ENV_VAR = "HURWITZ_WORK_BUDGET"


def identity(d: int) -> tuple:
    return tuple(range(d))


def compose(p, q):
    """p o q: apply q first, then p."""
    return tuple([p[x] for x in q])


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


def orbit_labels(maps, d: int) -> tuple:
    """The orbits of the group generated by ``maps`` as block labels: point
    i -> the least point of its orbit.  Each pair (i, p[i]) of a map p joins
    two blocks.  A block-label tuple is itself such a map, so it can stand in
    for the permutations with those orbits."""
    labels = list(range(d))
    for p in maps:
        for i, j in enumerate(p):
            a, b = labels[i], labels[j]
            if a != b:
                if a > b:
                    a, b = b, a
                labels = [a if x == b else x for x in labels]
    return tuple(labels)


def is_transitive(perms, d: int) -> bool:
    """Whether the group generated by ``perms`` acts transitively on the d
    points."""
    return not any(orbit_labels(perms, d))


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


def _partition_numbers():
    """p(0), p(1), ... by Euler's pentagonal number recurrence."""
    p = [1]
    while True:
        yield p[-1]
        n, total, k = len(p), 0, 1
        while k * (3 * k - 1) // 2 <= n:
            for pentagonal in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if pentagonal <= n:
                    total += (-1) ** (k + 1) * p[n - pentagonal]
            k += 1
        p.append(total)


def _estimated_work(d: int, g: int, limit=None) -> int:
    """Steps of :func:`hurwitz_count`: 2g - 1 content-sum powers for every
    partition of every j <= d, plus about (2g - 1)^2 d^2 convolution terms.
    The sum stops as soon as it passes ``limit``, so a refusal costs the same
    for any d."""
    width = 2 * g - 1
    work = width * width * d * d
    for _, p in zip(range(d + 1), _partition_numbers()):
        if limit is not None and work > limit:
            break
        work += width * p
    return work


def _budget(budget):
    if budget is not None:
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    return int(env) if env else DEFAULT_BUDGET


def check_budget(d: int, g: int, budget=None) -> None:
    """Raise :class:`BudgetExceeded` if the (d, g) count's estimated work
    exceeds ``budget`` (default: ``HURWITZ_WORK_BUDGET`` or
    ``DEFAULT_BUDGET``).  The estimate grows with d, so one check at the
    largest degree covers a whole series."""
    limit = _budget(budget)
    work = _estimated_work(d, g, limit)
    if work > limit:
        raise BudgetExceeded(
            f"estimated work for degree {d}, genus {g} is at least {work}, over the budget {limit}"
            f" (raise {BUDGET_ENV_VAR} to override)"
        )


def content_sum(shape) -> int:
    """c(lambda): the sum of j - i over the boxes (i, j) of the Young
    diagram with row lengths ``shape``, from the top."""
    return sum(part * (part - 1) // 2 - i * part for i, part in enumerate(shape))


def hurwitz_count(d: int, g: int, budget=None) -> Fraction:
    """The degree-d genus-g Hurwitz number as an exact rational (the tuple
    count of (1)-(3) divided by d!): the module docstring's Z_j[i] for
    j <= d and i <= 2g - 2, its recurrence for M_d, and M_d[2g - 2] / d."""
    for name, value in (("d", d), ("g", g)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if d < 1:
        raise ValueError(f"degree d must be positive, got {d}")
    if g < 2:
        raise ValueError(f"genus g must be at least 2, got {g}")
    check_budget(d, g, budget)
    n = 2 * g - 2
    z = []
    for j in range(d + 1):
        row = [0] * (n + 1)
        for shape in partitions(j):
            c, power = content_sum(shape), 1
            for i in range(n + 1):
                row[i] += power
                power *= c
        z.append(row)
    m = [None]
    for k in range(1, d + 1):
        row = [k * x for x in z[k]]
        for j in range(1, k):
            a, b = m[j], z[k - j]
            for i in range(n + 1):
                row[i] -= sum(comb(i, r) * a[r] * b[i - r] for r in range(i + 1))
        m.append(row)
    return Fraction(m[d][n], d)
