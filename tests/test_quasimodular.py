import random
import time
from fractions import Fraction

import pytest

from ellcover import f_g
from ellcover.monodromy import hurwitz_numbers
from ellcover.quasimodular import (
    Inconsistent,
    QSeries,
    QuasimodularRep,
    Underdetermined,
    _solve_exact,
    divisor_sigma,
    eisenstein,
    eval_rep,
    fit,
    weight_monomials,
)

WEIGHT12_MONOMIALS = [
    (0, 0, 2),
    (0, 3, 0),
    (1, 1, 1),
    (2, 2, 0),
    (3, 0, 1),
    (4, 1, 0),
    (6, 0, 0),
]

# the two genus-3 graph series in the weight-12 basis above
CATERPILLAR_REP = {
    m: Fraction(16 * c, 1492992)
    for m, c in zip(WEIGHT12_MONOMIALS, (4, 4, -12, -3, 4, 6, -3))
}
K4_REP = {
    m: Fraction(24 * c, 1492992)
    for m, c in zip(WEIGHT12_MONOMIALS, (0, 3, 0, -9, 0, 9, -3))
    if c
}


def test_divisor_sigma():
    assert divisor_sigma(1) == 1
    assert divisor_sigma(3) == 4
    assert divisor_sigma(6) == 12
    assert divisor_sigma(2, 3) == 9
    assert divisor_sigma(2, 5) == 33
    with pytest.raises(ValueError):
        divisor_sigma(0)


def test_eisenstein_coefficients():
    e2 = eisenstein(2, 10)
    assert e2.coeff(0) == 1
    assert e2.coeff(2) == -24
    assert e2.coeff(6) == -96  # -24 * sigma(3)
    e4 = eisenstein(4, 6)
    assert e4.coeff(0) == 1
    assert e4.coeff(2) == 240
    assert e4.coeff(4) == 240 * 9
    e6 = eisenstein(6, 6)
    assert e6.coeff(2) == -504
    assert e6.coeff(4) == -504 * 33
    for series in (e2, e4, e6):
        assert all(e % 2 == 0 for e in series.coeffs)


def test_qseries_truncation_discipline():
    s = QSeries({2: 5}, 4)
    assert s.coeff(2) == 5 and s.coeff(0) == 0
    with pytest.raises(ValueError):
        s.coeff(4)
    with pytest.raises(ValueError):
        s.truncate(6)
    assert s.truncate(3).coeffs == {2: 5}


def test_qseries_arithmetic():
    a = QSeries({0: 1, 2: 3}, 6)
    b = QSeries({2: -3, 4: 1}, 6)
    assert (a + b).coeffs == {0: 1, 4: 1}
    assert (a * b).coeffs == {2: -3, 4: -8}  # (1+3q^2)(-3q^2+q^4) mod q^6
    assert (a**2).coeffs == {0: 1, 2: 6, 4: 9}
    assert str(QSeries({4: 32, 6: 1792}, 14)) == "32*q^4+1792*q^6"
    # subtraction adds the negated series and keeps the shorter truncation
    assert (a - b).coeffs == {0: 1, 2: 6, 4: -1}
    assert (a - QSeries({0: 1, 2: 3, 4: 2}, 4)) == QSeries({}, 4)
    assert a.scale(Fraction(1, 3)) == QSeries({0: Fraction(1, 3), 2: 1}, 6)
    assert a.scale(0).is_zero() and a.scale(0).order == 6


def test_weight_monomials():
    assert weight_monomials(12) == WEIGHT12_MONOMIALS
    assert weight_monomials(6) == [(0, 0, 1), (1, 1, 0), (3, 0, 0)]
    for w in (6, 12, 18):
        for i, j, k in weight_monomials(w):
            assert 2 * i + 4 * j + 6 * k == w


def test_rep_rejects_inhomogeneous_monomials():
    with pytest.raises(ValueError):
        QuasimodularRep(12, {(0, 2, 0): 1})


def test_fit_zero_series():
    rep = fit(QSeries.zero(16), 3)
    assert rep.is_zero()
    assert eval_rep(rep, 10).is_zero()


def test_fit_caterpillar(caterpillar_series_16):
    rep = fit(caterpillar_series_16, 3)
    assert rep.coeffs == CATERPILLAR_REP


def test_fit_k4(k4_series_16):
    rep = fit(k4_series_16, 3)
    assert rep.coeffs == K4_REP


def test_overdetermined_fit_is_consistent(caterpillar_series_16, k4_series_16):
    # the series carry 9 even coefficients for 7 unknowns; refitting on the
    # minimal 7 gives the same answer, so the extra equations are consistent
    for series in (caterpillar_series_16, k4_series_16):
        assert fit(series, 3).coeffs == fit(series.truncate(14), 3).coeffs


def test_roundtrip(caterpillar_series_16, k4_series_16):
    for series in (caterpillar_series_16, k4_series_16):
        rep = fit(series, 3)
        assert eval_rep(rep, series.order).same_coefficients(series)
    assert eval_rep(fit(k4_series_16, 3), 10).coeff(8) == 20736


def test_f3_fit(caterpillar_series_16, k4_series_16):
    # the Hurwitz series combines the two graph fits with weights 1/16, 1/24
    f3 = f_g(3, 8)
    rep = fit(f3, 3)
    expected = {
        m: Fraction(c, 1492992)
        for m, c in zip(WEIGHT12_MONOMIALS, (4, 7, -12, -12, 4, 15, -6))
    }
    assert rep.coeffs == expected
    combined = {
        m: Fraction(CATERPILLAR_REP.get(m, 0), 16) + Fraction(K4_REP.get(m, 0), 24)
        for m in WEIGHT12_MONOMIALS
    }
    assert rep.coeffs == {m: c for m, c in combined.items() if c}
    assert eval_rep(rep, f3.order).same_coefficients(f3)


def test_f2_fit_roundtrip():
    f2 = f_g(2, 4)  # 5 even coefficients for the 3 weight-6 monomials
    rep = fit(f2, 2)
    assert rep.weight == 6
    assert eval_rep(rep, f2.order).same_coefficients(f2)


def test_inconsistent_detection(caterpillar_series_16):
    corrupted = dict(caterpillar_series_16.coeffs)
    corrupted[16] = corrupted[16] + 1
    with pytest.raises(Inconsistent):
        fit(QSeries(corrupted, caterpillar_series_16.order), 3)


def test_underdetermined_detection(caterpillar_series_16):
    with pytest.raises(Underdetermined):
        fit(caterpillar_series_16.truncate(10), 3)


def test_fit_rejects_odd_series():
    with pytest.raises(ValueError):
        fit(QSeries({3: 1}, 20), 3)


@pytest.mark.parametrize("g", [3.0, "3", True, None])
def test_fit_takes_an_integer_genus(caterpillar_series_16, g):
    with pytest.raises(ValueError, match="^g must be an integer, got "):
        fit(caterpillar_series_16, g)


@pytest.mark.parametrize("c", [0.5, 1.0, True, "1", None])
def test_qseries_rejects_inexact_coefficients(c):
    with pytest.raises(TypeError, match="exact coefficient"):
        QSeries({0: 1, 2: c}, 4)


@pytest.mark.parametrize("c", [0.5, 1.0, True, "1", None])
def test_quasimodular_rep_rejects_inexact_coefficients(c):
    # Fraction(0.5) would build (1/2)*E2^6 from a float
    with pytest.raises(TypeError, match="exact coefficient"):
        QuasimodularRep(12, {(6, 0, 0): c})


# F_4 in the weight-18 monomials E2^i E4^j E6^k
F4_REP = {
    (0, 0, 3): Fraction(-53, 80621568),
    (0, 3, 1): Fraction(-373, 107495424),
    (1, 1, 2): Fraction(5, 663552),
    (1, 4, 0): Fraction(25, 4478976),
    (2, 2, 1): Fraction(-175, 17915904),
    (3, 0, 2): Fraction(-155, 53747712),
    (3, 3, 0): Fraction(-715, 214990848),
    (4, 1, 1): Fraction(245, 35831808),
    (5, 2, 0): Fraction(193, 71663616),
    (6, 0, 1): Fraction(-25, 26873856),
    (7, 1, 0): Fraction(-155, 71663616),
    (9, 0, 0): Fraction(355, 644972544),
}


@pytest.mark.parametrize("g,monomials", [(4, 12), (5, 19), (6, 27)])
def test_overdetermined_fits_of_the_hurwitz_series(g, monomials):
    # three even coefficients more than the weight-(6g - 6) monomials, so
    # every fit is an overdetermined consistency check
    assert len(weight_monomials(6 * g - 6)) == monomials
    series = f_g(g, monomials + 3, oracle="sym")
    rep = fit(series, g)
    assert eval_rep(rep, series.order) == series
    if g == 4:
        assert rep.coeffs == F4_REP


def test_fit_from_six_degrees_predicts_the_hurwitz_numbers_to_degree_70():
    # quasimodularity is independent of how the counts are computed: F_2
    # fitted from degrees up to 6 must give every count of one long pass
    rep = fit(f_g(2, 6, oracle="sym"), 2)
    start = time.perf_counter()
    numbers = hurwitz_numbers(70, 2)
    assert time.perf_counter() - start < 2
    assert eval_rep(rep, 142) == QSeries({2 * d: h for d, h in enumerate(numbers, 1)}, 142)


def test_rep_str_lists_exact_rationals():
    rep = QuasimodularRep(6, {(0, 0, 1): Fraction(1, 3), (3, 0, 0): -2})
    s = str(rep)
    assert "(1/3)*E6^1" in s and "(-2)*E2^3" in s


def reference_solve(rows, rhs):
    """Gauss-Jordan elimination in ``Fraction``s: the unique solution, or
    the name of the error (``Inconsistent`` checked first)."""
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    nrows, ncols = len(m), len(rows[0])
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    if any(m[i][ncols] != 0 for i in range(len(pivots), nrows)):
        return "Inconsistent"
    if len(pivots) < ncols:
        return "Underdetermined"
    return [m[row][ncols] for row in range(ncols)]


def solve_or_error(rows, rhs):
    try:
        return _solve_exact(rows, rhs)
    except (Inconsistent, Underdetermined) as exc:
        return type(exc).__name__


def random_entry(rng, fractions):
    x = rng.randint(-9, 9)
    return Fraction(x, rng.randint(1, 12)) if fractions and rng.random() < 0.5 else x


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "Fraction"])
def test_fraction_free_solve_matches_gauss_jordan(fractions):
    rng = random.Random(71 + fractions)
    outcomes = {}
    for trial in range(400):
        kind = ("solvable", "zero column", "rank deficient", "perturbed")[trial % 4]
        ncols = rng.randint(2, 7)
        nrows = ncols + rng.randint(kind == "perturbed", 3)
        rows = [[random_entry(rng, fractions) for _ in range(ncols)] for _ in range(nrows)]
        if kind == "zero column":
            # a zero column before a pivot column
            c = rng.randrange(ncols - 1)
            for row in rows:
                row[c] = 0
        if kind == "rank deficient":
            # one column a multiple of another
            c, c2 = rng.sample(range(ncols), 2)
            f = random_entry(rng, fractions)
            for row in rows:
                row[c] = f * row[c2]
        x = [random_entry(rng, fractions) for _ in range(ncols)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
        if kind == "perturbed" or (kind == "zero column" and trial % 8 == 1):
            rhs[rng.randrange(nrows)] += rng.choice([1, Fraction(1, 7)])
        want = reference_solve(rows, rhs)
        got = solve_or_error(rows, rhs)
        assert got == want, (rows, rhs)
        if isinstance(got, list):
            assert all(type(v) is Fraction for v in got)
            if kind == "solvable":
                assert got == x
        outcomes.setdefault(kind, set()).add(got if isinstance(got, str) else "solved")
    assert outcomes == {
        "solvable": {"solved"},
        "zero column": {"Underdetermined", "Inconsistent"},
        "rank deficient": {"Underdetermined"},
        "perturbed": {"Inconsistent"},
    }


def test_solve_raises_the_structured_errors():
    with pytest.raises(Underdetermined, match="only 1 of 2 unknowns"):
        _solve_exact([[1, 2], [2, 4], [3, 6]], [1, 2, 3])
    with pytest.raises(Inconsistent):
        _solve_exact([[1, 2], [2, 4], [0, 1]], [1, 3, 1])
    # a zero column ahead of the pivots leaves it undetermined
    with pytest.raises(Underdetermined):
        _solve_exact([[0, 1], [0, 2]], [1, 2])
    assert _solve_exact([[Fraction(1, 2), 0], [0, Fraction(2, 3)]], [1, 1]) == [2, Fraction(3, 2)]


def test_fit_round_trips_a_rep_with_fraction_coefficients():
    rng = random.Random(29)
    for g in (2, 3, 4):
        monos = weight_monomials(6 * g - 6)
        rep = QuasimodularRep(
            6 * g - 6, {m: Fraction(rng.randint(-50, 50), rng.randint(2, 999)) for m in monos}
        )
        assert any(c.denominator != 1 for c in rep.coeffs.values())
        for extra in (0, 3):
            order = 2 * (len(monos) + extra)
            assert fit(eval_rep(rep, order), g) == rep
