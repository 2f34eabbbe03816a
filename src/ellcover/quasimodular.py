"""Quasimodular representations of the graph series.

The generating series attached to a genus-g graph is a power series in q with
only even exponents, and it lies in the weight-(6g-6) graded piece of
Q[E2, E4, E6], where the Eisenstein series are taken in q^2:

    E2 = 1 - 24 sum sigma_1(n) q^{2n}
    E4 = 1 + 240 sum sigma_3(n) q^{2n}
    E6 = 1 - 504 sum sigma_5(n) q^{2n}

Given enough q-coefficients, the representation is found by solving an exact
linear system: its rows are cleared of denominators and eliminated
fraction-free (Bareiss) over the integers, and the unknowns become rationals
only at the end.  Extra coefficients make the system overdetermined and
provide a consistency check.  The monomials' coefficients are built from
integer lists of the powers of each Eisenstein series.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import lcm

from ._frozen import Frozen, _check_int, _is_int
from .laurent import _check_coeff, coeff_str


class Inconsistent(ValueError):
    """An overdetermined fit has no exact solution; something upstream is wrong."""


class Underdetermined(ValueError):
    """Too few series coefficients to pin down the representation."""


def divisor_sigma(n: int, power: int = 1) -> int:
    """Sum of the ``power``-th powers of the divisors of n."""
    _check_int(n, "n", 1)
    _check_int(power, "power", 0)
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**power
            e = n // d
            if e != d:
                total += e**power
        d += 1
    return total


class QSeries(Frozen):
    """Power series in q, truncated: coefficients are known exactly for all
    exponents < ``order`` (the series is O(q^order)).

    Exponents with no stored coefficient are zero.  Reading a coefficient at
    or beyond the truncation order, or at an exponent that is not a
    non-negative integer, raises, rather than silently returning 0.
    Coefficients must be exact (``int`` or ``Fraction``): a float raises
    ``TypeError``, as in :class:`~ellcover.laurent.LaurentPoly`.  Exponents
    must be non-negative integers.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: dict, order: int):
        _check_int(order, "order", 0)
        if not isinstance(coeffs, Mapping):
            raise ValueError(f"coeffs must be a mapping from exponents to coefficients, got {coeffs!r}")
        clean = {}
        for e, c in coeffs.items():
            if _check_int(e, "exponent") < 0:
                raise ValueError("negative exponents are not allowed in a QSeries")
            if _check_coeff(c) != 0 and e < order:
                clean[e] = c
        Frozen.__init__(self, clean, order)

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls({}, order)

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls({0: 1}, order)

    def coeff(self, exponent: int):
        if _check_int(exponent, "exponent", 0) >= self.order:
            raise ValueError(f"coefficient of q^{exponent} lies beyond the truncation O(q^{self.order})")
        return self.coeffs.get(exponent, 0)

    def truncate(self, order: int) -> "QSeries":
        if _check_int(order, "order", 0) > self.order:
            raise ValueError("cannot extend a truncated series")
        return QSeries({e: c for e, c in self.coeffs.items() if e < order}, order)

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        order = min(self.order, other.order)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return QSeries(out, order)

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c) -> "QSeries":
        return QSeries({e: c * v for e, v in self.coeffs.items()}, self.order)

    def __mul__(self, other: "QSeries") -> "QSeries":
        # truncated Cauchy product; valid because both factors have
        # non-negative exponents
        if not isinstance(other, QSeries):
            return NotImplemented
        order = min(self.order, other.order)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e < order:
                    out[e] = out.get(e, 0) + c1 * c2
        return QSeries(out, order)

    def __pow__(self, k: int) -> "QSeries":
        _check_int(k, "exponent", 0)
        result = QSeries.one(self.order)
        for _ in range(k):
            result = result * self
        return result

    def same_coefficients(self, other: "QSeries") -> bool:
        """Equality of coefficients on the common truncation range."""
        if not isinstance(other, QSeries):
            raise ValueError(f"other must be a QSeries, got {other!r}")
        order = min(self.order, other.order)
        return all(
            self.coeffs.get(e, 0) == other.coeffs.get(e, 0)
            for e in set(self.coeffs) | set(other.coeffs)
            if e < order
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = coeff_str(self.coeffs[e])
            if e == 0:
                parts.append(c)
            else:
                parts.append(f"{c}*q^{e}")
        return "+".join(parts).replace("+-", "-")


def eisenstein(weight: int, order: int) -> QSeries:
    """Normalized Eisenstein series of weight 2, 4 or 6, expanded in q^2 and
    truncated to O(q^order)."""
    if _check_int(weight, "weight") not in (2, 4, 6):
        raise ValueError("weight must be 2, 4 or 6")
    _check_int(order, "order", 0)
    mult, power = {2: (-24, 1), 4: (240, 3), 6: (-504, 5)}[weight]
    coeffs = {0: 1}
    n = 1
    while 2 * n < order:
        coeffs[2 * n] = mult * divisor_sigma(n, power)
        n += 1
    return QSeries(coeffs, order)


def weight_monomials(weight: int) -> list:
    """All (i, j, k) with 2i + 4j + 6k = weight, in a fixed deterministic
    order (i ascending, then j ascending)."""
    _check_int(weight, "weight")
    out = []
    for i in range(weight // 2 + 1):
        for j in range((weight - 2 * i) // 4 + 1):
            rest = weight - 2 * i - 4 * j
            if rest % 6 == 0:
                out.append((i, j, rest // 6))
    return out


def _monomial(ijk, weight: int) -> tuple:
    """``ijk`` if it is a triple (i, j, k) of non-negative integers with
    2i + 4j + 6k = ``weight``, the key rule of :class:`QuasimodularRep`;
    ValueError naming the monomial otherwise."""
    if not (isinstance(ijk, tuple) and len(ijk) == 3 and all(_is_int(p) and p >= 0 for p in ijk)):
        raise ValueError(f"monomial must be a triple (i, j, k) of non-negative integers, got {ijk!r}")
    i, j, k = ijk
    if 2 * i + 4 * j + 6 * k != weight:
        raise ValueError(f"monomial {(i, j, k)} is not of weight {weight}")
    return ijk


class QuasimodularRep(Frozen):
    """Exact coefficients over the monomial basis E2^i E4^j E6^k of one
    weight-homogeneous graded piece."""

    __slots__ = ("weight", "coeffs")

    def __init__(self, weight: int, coeffs: dict | None = None):
        _check_int(weight, "weight")
        if coeffs is None:
            coeffs = {}
        elif not isinstance(coeffs, Mapping):
            raise ValueError(f"coeffs must be a mapping from monomials (i, j, k) to coefficients, got {coeffs!r}")
        clean = {}
        for ijk, c in coeffs.items():
            _monomial(ijk, weight)
            if _check_coeff(c) != 0:
                clean[ijk] = Fraction(c)
        Frozen.__init__(self, weight, clean)

    def coeff(self, ijk: tuple) -> Fraction:
        """The coefficient of E2^i E4^j E6^k; ``ijk`` follows the
        constructor's key rule."""
        return self.coeffs.get(_monomial(ijk, self.weight), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for ijk in weight_monomials(self.weight):
            c = self.coeffs.get(ijk)
            if c is None:
                continue
            mono = "*".join(
                f"E{w}^{p}" for w, p in zip((2, 4, 6), ijk) if p
            )
            parts.append(f"({coeff_str(c)})*{mono}" if mono else f"({coeff_str(c)})")
        return " + ".join(parts)


def _monomial_table(monos, order: int) -> dict:
    """(i, j, k) -> the coefficients of E2^i E4^j E6^k at q^0, q^2, ... below
    q^order, as an int list, for every monomial in ``monos``.  The powers of
    each Eisenstein series are built once, by repeated truncated products of
    int lists, and each monomial is the product of three of them."""
    size = (order + 1) // 2

    def times(a, b):
        out = [0] * size
        for n, x in enumerate(a):
            if x:
                for m in range(size - n):
                    out[n + m] += x * b[m]
        return out

    powers = []
    for r, weight in enumerate((2, 4, 6)):
        e = eisenstein(weight, order)
        series = [e.coeff(2 * n) for n in range(size)]
        run = [[1] + [0] * (size - 1)]
        for _ in range(max((m[r] for m in monos), default=0)):
            run.append(times(run[-1], series))
        powers.append(run)
    return {(i, j, k): times(times(powers[0][i], powers[1][j]), powers[2][k]) for i, j, k in monos}


def eval_rep(rep: QuasimodularRep, order: int) -> QSeries:
    """Expand the Eisenstein-monomial combination back into a q-series."""
    if not isinstance(rep, QuasimodularRep):
        raise ValueError(f"rep must be a QuasimodularRep, got {rep!r}")
    _check_int(order, "order", 0)
    table = _monomial_table(list(rep.coeffs), order)
    total = {}
    for ijk, c in rep.coeffs.items():
        for n, x in enumerate(table[ijk]):
            total[2 * n] = total.get(2 * n, 0) + c * x
    return QSeries(total, order)


def _solve_exact(rows, rhs):
    """Fraction-free (Bareiss) elimination over the integers.

    Each row, right-hand side included, is first scaled by the common
    denominator of its entries, so the system is over the integers.  The
    forward pass keeps every entry an integer: an update cross-multiplies by
    the pivot and divides exactly by the previous pivot.  With the rows of
    the n unknowns' pivots forming a square system of determinant D (the
    last pivot), back-substitution finds the integers D * x by Cramer's rule,
    and only then are the unknowns made ``Fraction``s.

    Returns the unique solution; raises Underdetermined when the coefficient
    matrix has deficient column rank and Inconsistent when the (possibly
    overdetermined) system has no solution.
    """
    m = []
    for row, b in zip(rows, rhs):
        row = [Fraction(x) for x in row] + [Fraction(b)]
        scale = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (scale // x.denominator) for x in row])
    nrows, ncols = len(m), len(rows[0])
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i in range(r + 1, nrows):
            row = m[i]
            f = row[c]
            row[c] = 0
            for j in range(c + 1, ncols + 1):
                row[j] = (p * row[j] - f * top[j]) // prev
        prev = p
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if m[i][ncols] != 0:
            raise Inconsistent("overdetermined linear system has no exact solution")
    if r < ncols:
        raise Underdetermined(
            f"system determines only {r} of {ncols} unknowns; supply more series coefficients"
        )
    # r == ncols, so the pivots sit on the diagonal of the first ncols rows
    det = m[ncols - 1][ncols - 1]
    y = [0] * ncols
    for c in reversed(range(ncols)):
        row = m[c]
        y[c] = (det * row[ncols] - sum(row[j] * y[j] for j in range(c + 1, ncols))) // row[c]
    return [Fraction(v, det) for v in y]


def fit(series: QSeries, g: int) -> QuasimodularRep:
    """Express a genus-g graph series exactly in the weight-(6g-6) monomials
    E2^i E4^j E6^k.

    The series must carry at least as many even-exponent coefficients as
    there are monomials; any extra coefficients turn the solve into an
    overdetermined consistency check.
    """
    if not isinstance(series, QSeries):
        raise ValueError(f"series must be a QSeries, got {series!r}")
    _check_int(g, "g", 2)
    weight = 6 * g - 6
    monos = weight_monomials(weight)
    exponents = list(range(0, series.order, 2))
    if len(exponents) < len(monos):
        raise Underdetermined(
            f"need at least {len(monos)} even q-coefficients for weight {weight}, have {len(exponents)}"
        )
    if any(e % 2 for e in series.coeffs):
        raise ValueError("graph series must be even in q")
    table = _monomial_table(monos, series.order)
    rows = [[table[ijk][n] for ijk in monos] for n in range(len(exponents))]
    rhs = [series.coeff(e) for e in exponents]
    sol = _solve_exact(rows, rhs)
    return QuasimodularRep(weight, dict(zip(monos, sol)))
