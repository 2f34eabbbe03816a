"""Hurwitz numbers of an elliptic curve by symmetric-group monodromy counts.

A connected, simply ramified degree-d cover of genus g corresponds to a tuple
of permutations (tau_1, ..., tau_{2g-2}, alpha, sigma) of {1..d} with

  (1) every tau_i a transposition,
  (2) tau_{2g-2} o ... o tau_1 o sigma = alpha o sigma o alpha^{-1}
      (composition right to left: sigma acts first),
  (3) the subgroup generated by all of tau_i, sigma, alpha transitive.

The Hurwitz number is the tuple count divided by d!.  :func:`hurwitz_numbers`
enumerates no tuple; it evaluates Dijkgraaf's character formula (1995).
By Frobenius, the pairs (alpha, sigma) with [alpha, sigma] = P number
d! sum_chi chi(P) / chi(1), and the sum of all transpositions, being central,
acts on the irreducible representation lambda by the content sum
c(lambda) = sum of j - i over the boxes (i, j) of lambda.  So the tuples
with (1) and (2) number d! Z_d[2g - 2], where Z_d[n] = sum over lambda |- d
of c(lambda)^n.  For (3): the orbits of a tuple split it into transitive
tuples on the blocks, which share out the labelled branch points, so
sum_d x^d sum_n Z_d[n] u^n / n! is the exponential of the same series of the
Hurwitz numbers H_d[n].  Its logarithm gives H_d = M_d / d with
M_d = d Z_d - sum_{0<j<d} M_j * Z_{d-j}, where
(A * B)[i] = sum_r C(i, r) A[r] B[i - r] multiplies exponential series in u.
One pass of the recurrence to d_max gives every H_d with d <= d_max.

No partition is listed.  Removing the first column (contents 0, -1, ...,
-(l - 1)) of a lambda |- j with l rows leaves a mu |- j - l with at most l
rows, each content one lower than in lambda, so c(lambda) = c(mu) + t with
t = j - l - l(l - 1)/2: the series sum_i c^i u^i / i! of lambda is e^{tu}
times that of mu.  Adding these for l = 1, 2, ..., j ascending, is the
coin-change recurrence for partitions, in place: row j - l already counts
up to l rows when row j reads it.  The table and the recurrence take about
(2g - 1)^2 d^2 / 4 terms each.

This path imports nothing from the package and shares no ideas with the
graph-integral and tropical-cover paths, so agreement across all three is a
strong end-to-end check.  The permutation helpers serve :func:`verify_tuple`
alone; the tests build their tuple-by-tuple references with their own.

Permutations are tuples of images on 0-based points.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import comb


class BudgetExceeded(RuntimeError):
    """The count would exceed the configured work budget."""


DEFAULT_BUDGET = 10**8
BUDGET_ENV_VAR = "HURWITZ_WORK_BUDGET"


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


def is_transposition(p) -> bool:
    moved = [i for i, x in enumerate(p) if x != i]
    return len(moved) == 2 and p[moved[0]] == moved[1] and p[moved[1]] == moved[0]


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


def _check_permutation(p, name: str, d=None) -> tuple:
    """``p`` as a tuple if it is a permutation of 0..d-1 (of 0..len(p)-1
    when d is None); ValueError naming ``name`` otherwise."""
    try:
        img = tuple(p)
    except TypeError:
        img = None
    if (
        img is None
        or any(isinstance(x, bool) or not isinstance(x, int) for x in img)
        or sorted(img) != list(range(len(img) if d is None else d))
    ):
        raise ValueError(f"{name} must be a permutation of 0..{'d-1' if d is None else d - 1}, got {p!r}")
    return img


def verify_tuple(taus, alpha, sigma) -> bool:
    """Check the three monodromy conditions for a single tuple.  ValueError
    naming the argument unless every entry of ``taus`` and ``alpha`` is a
    permutation of the points of ``sigma``."""
    sigma = _check_permutation(sigma, "sigma")
    alpha = _check_permutation(alpha, "alpha", len(sigma))
    try:
        taus = list(taus)
    except TypeError:
        raise ValueError(f"taus must be a sequence of permutations, got {taus!r}") from None
    taus = [_check_permutation(t, "taus entry", len(sigma)) for t in taus]
    if not all(is_transposition(t) for t in taus):
        return False
    product = sigma
    for t in taus:
        product = compose(t, product)
    if product != conjugate(alpha, sigma):
        return False
    return is_transitive(taus + [sigma, alpha], len(sigma))


def _estimated_work(d: int, g: int) -> int:
    """Steps of :func:`hurwitz_numbers` to degree d: table and recurrence."""
    return (2 * g - 1) ** 2 * d * d


def check_budget(d: int, g: int, budget=None) -> None:
    """Raise :class:`BudgetExceeded` if the work to degree d at genus g exceeds
    ``budget``, else ``HURWITZ_WORK_BUDGET``, else ``DEFAULT_BUDGET``."""
    name, value, limit = "budget", budget, budget
    if budget is None:
        name, value = BUDGET_ENV_VAR, os.environ.get(BUDGET_ENV_VAR) or str(DEFAULT_BUDGET)
        limit = int(value) if value.strip().isdecimal() else None
    if isinstance(limit, bool) or not isinstance(limit, int) or limit < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    work = _estimated_work(d, g)
    if work > limit:
        raise BudgetExceeded(
            f"estimated work for degree {d}, genus {g} is at least {work}, over the budget {limit}"
            f" (raise {BUDGET_ENV_VAR} to override)"
        )


def _check_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _star(a, b) -> list:
    """(A * B)[i] = sum_r C(i, r) A[r] B[i - r], as in the module docstring."""
    return [sum(comb(i, r) * a[r] * b[i - r] for r in range(i + 1)) for i in range(len(a))]


def _content_power_sums(d: int, n: int) -> list:
    """z[j][i] = sum over lambda |- j of c(lambda)^i for j <= d and i <= n,
    by first-column removal (see the module docstring)."""
    z = [[1] + [0] * n] + [[0] * (n + 1) for _ in range(d)]
    for rows in range(1, d + 1):
        for j in range(rows, d + 1):
            t = j - rows - rows * (rows - 1) // 2
            shifted = _star(z[j - rows], [t**i for i in range(n + 1)])
            z[j] = [x + y for x, y in zip(z[j], shifted)]
    return z


def hurwitz_numbers(d_max: int, g: int, budget=None) -> list:
    """[H_1, ..., H_{d_max}]: the genus-g Hurwitz numbers as exact rationals,
    from one pass of the recurrence, with the budget checked before any work."""
    if _check_int(d_max, "d_max") < 0:
        raise ValueError(f"d_max must be non-negative, got {d_max}")
    if _check_int(g, "g") < 2:
        raise ValueError(f"genus g must be at least 2, got {g}")
    check_budget(d_max, g, budget)
    n = 2 * g - 2
    z = _content_power_sums(d_max, n)
    m = [None]
    for k in range(1, d_max + 1):
        row = [k * x for x in z[k]]
        for j in range(1, k):
            row = [x - y for x, y in zip(row, _star(m[j], z[k - j]))]
        m.append(row)
    return [Fraction(row[n], k) for k, row in enumerate(m[1:], 1)]


def hurwitz_count(d: int, g: int, budget=None) -> Fraction:
    """The degree-d genus-g Hurwitz number, the last of :func:`hurwitz_numbers`."""
    if _check_int(d, "d") < 1:
        raise ValueError(f"degree d must be positive, got {d}")
    return hurwitz_numbers(d, g, budget)[-1]
