"""Hurwitz numbers of an elliptic curve by symmetric-group monodromy counts.

A connected, simply ramified degree-d cover of genus g corresponds to a tuple
of permutations (tau_1, ..., tau_{2g-2}, alpha, sigma) of {1..d} with

  (1) every tau_i a transposition,
  (2) tau_{2g-2} o ... o tau_1 o sigma = alpha o sigma o alpha^{-1}
      (composition right to left: sigma acts first),
  (3) the subgroup generated by all of tau_i, sigma, alpha transitive.

The Hurwitz number is the tuple count divided by d!.  The transpositions are
not enumerated one tuple at a time: only their product and the orbit
partition they generate enter (2) and (3), so :func:`hurwitz_count` counts
transposition tuples by (product, orbit partition) state, one transposition
per step, and then checks (2) and (3) once per (sigma, alpha, state).  There
are at most d! * Bell(d) states.  This path shares no code or ideas with the
graph-integral and tropical-cover paths, so agreement across all three is a
strong end-to-end check.

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


def check_budget(d: int, g: int, budget=None) -> None:
    """Raise :class:`BudgetExceeded` if the (d, g) count's estimated work
    exceeds ``budget`` (default: ``HURWITZ_WORK_BUDGET`` or
    ``DEFAULT_BUDGET``).  The estimate grows with d, so one check at the
    largest degree covers a whole series."""
    limit = _budget(budget)
    work = _estimated_work(d, g)
    if work > limit:
        raise BudgetExceeded(
            f"estimated work {work} exceeds budget {limit}"
            f" (raise {BUDGET_ENV_VAR} to override)"
        )


def _product_orbit_counts(d, steps, perms, index) -> dict:
    """N(P, B) over all tuples of ``steps`` transpositions, as
    {P: [(B, count), ...]}: P is the index in ``perms`` of the product
    tau_steps o ... o tau_1 and B the tuple's orbit partition as block labels
    (:func:`orbit_labels`).  Built one transposition at a time; the states
    are grouped by B, since appending (i j) merges the same two blocks of B
    whatever P is."""
    pairs = list(itertools.combinations(range(d), 2))
    # swaps[k][P] = index of (i j) o P for the k-th pair (i, j)
    swaps = [[index[compose(t, p)] for p in perms] for t in (from_cycles(d, [pair]) for pair in pairs)]
    state = {identity(d): {index[identity(d)]: 1}}
    for _ in range(steps):
        step = {}
        for blocks, counts in state.items():
            for (i, j), swap in zip(pairs, swaps):
                lo, hi = sorted((blocks[i], blocks[j]))
                merged = tuple([lo if b == hi else b for b in blocks])
                target = step.setdefault(merged, {})
                get = target.get
                for p, c in counts.items():
                    q = swap[p]
                    target[q] = get(q, 0) + c
        state = step
    out = {}
    for blocks, counts in state.items():
        for p, c in counts.items():
            out.setdefault(p, []).append((blocks, c))
    return out


def hurwitz_count(d: int, g: int, class_reduction: bool = True, budget=None) -> Fraction:
    """The degree-d genus-g Hurwitz number as an exact rational (an integer
    tuple count divided by d!).

    The transpositions enter only through their product P and their orbit
    partition B, so their tuples are counted once per (P, B) state
    (:func:`_product_orbit_counts`).  Condition (2) fixes
    P = alpha o sigma o alpha^{-1} o sigma^{-1} and condition (3) asks that
    B, the orbits of sigma and those of alpha join to one block, so

      count = sum over sigma, alpha, B of N(P, B) [B v sigma v alpha = 1].

    With ``class_reduction`` (the default) sigma runs over one representative
    per cycle type, scaled by the class size; this is valid because
    conjugating a whole tuple preserves validity.  ``class_reduction=False``
    runs sigma over all of S_d, for auditing.
    """
    for name, value in (("d", d), ("g", g)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if d < 1:
        raise ValueError(f"degree d must be positive, got {d}")
    if g < 2:
        raise ValueError(f"genus g must be at least 2, got {g}")
    check_budget(d, g, budget)
    perms = list(itertools.permutations(range(d)))
    index = {p: k for k, p in enumerate(perms)}
    counts = _product_orbit_counts(d, 2 * g - 2, perms, index)
    if class_reduction:
        sigmas = [(partition_representative(d, ct), conjugacy_class_size(d, ct)) for ct in partitions(d)]
    else:
        sigmas = [(sigma, 1) for sigma in perms]
    joins_to_one = {}
    total = 0
    for sigma, weight in sigmas:
        sigma_inv = inverse(sigma)
        for alpha in perms:
            entries = counts.get(index[compose(conjugate(alpha, sigma), sigma_inv)])
            if not entries:
                continue
            orbits = orbit_labels((sigma, alpha), d)
            for blocks, c in entries:
                key = (blocks, orbits)
                if key not in joins_to_one:
                    joins_to_one[key] = not any(orbit_labels(key, d))
                if joins_to_one[key]:
                    total += weight * c
    return Fraction(total, factorial(d))
