import itertools
import random
import re
import time
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest

from ellcover import monodromy
from ellcover.integrals import f_g
from ellcover.monodromy import (
    BUDGET_ENV_VAR,
    BudgetExceeded,
    compose,
    conjugate,
    hurwitz_count,
    hurwitz_numbers,
    inverse,
    is_transitive,
    is_transposition,
    orbit_labels,
    verify_tuple,
)
from reference import (
    conjugacy_class_size,
    content_sum,
    from_cycles,
    identity,
    partition_representative,
    partitions,
    transpositions,
)


def test_compose_applies_rightmost_first():
    # p o q means q acts first
    p = from_cycles(3, [(0, 1)])
    q = from_cycles(3, [(1, 2)])
    assert compose(p, q) == from_cycles(3, [(0, 1, 2)])


def test_inverse_and_conjugate():
    a = from_cycles(4, [(0, 1, 2)])
    assert compose(a, inverse(a)) == identity(4)
    s = from_cycles(4, [(0, 1)])
    assert conjugate(a, s) == from_cycles(4, [(1, 2)])


def test_transpositions():
    ts = transpositions(4)
    assert len(ts) == 6
    assert all(is_transposition(t) for t in ts)
    assert not is_transposition(identity(4))
    assert not is_transposition(from_cycles(4, [(0, 1, 2)]))


def test_monodromy_tuple_from_four_branch_points():
    # degree 4, genus 2: taus = (1 3),(2 4),(1 2),(1 3) applied after
    # sigma = (2 3) compose to (3 4), which equals the conjugate of sigma
    # by alpha = (2 3 4)  [cycles written on 1-based points, stored 0-based]
    taus = [
        from_cycles(4, [(0, 2)]),
        from_cycles(4, [(1, 3)]),
        from_cycles(4, [(0, 1)]),
        from_cycles(4, [(0, 2)]),
    ]
    alpha = from_cycles(4, [(1, 2, 3)])
    sigma = from_cycles(4, [(1, 2)])
    product = sigma
    for t in taus:
        product = compose(t, product)
    assert product == from_cycles(4, [(2, 3)])
    assert product == conjugate(alpha, sigma)
    assert verify_tuple(taus, alpha, sigma)


def test_alpha_participates_in_transitivity():
    # with sigma trivial and both taus equal, the transpositions alone fix a
    # point; a 3-cycle alpha is what makes the action transitive
    taus = [from_cycles(3, [(0, 1)]), from_cycles(3, [(0, 1)])]
    sigma = identity(3)
    assert verify_tuple(taus, from_cycles(3, [(0, 1, 2)]), sigma)
    assert not verify_tuple(taus, identity(3), sigma)


def test_verify_tuple_rejects_non_transpositions():
    taus = [identity(3), from_cycles(3, [(0, 1)])]
    assert not verify_tuple(taus, identity(3), identity(3))


def test_is_transitive():
    assert is_transitive([from_cycles(3, [(0, 1, 2)])], 3)
    assert not is_transitive([from_cycles(3, [(0, 1)])], 3)
    assert is_transitive([from_cycles(4, [(0, 1)]), from_cycles(4, [(2, 3)]), from_cycles(4, [(1, 2)])], 4)


def test_partitions_and_class_sizes():
    for d in (3, 4, 5):
        assert sum(conjugacy_class_size(d, p) for p in partitions(d)) == factorial(d)
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    rep = partition_representative(4, (2, 2))
    assert rep == from_cycles(4, [(0, 1), (2, 3)])


def test_degree_two_genus_three():
    # only one transposition exists in S_2, all four tau slots take it, and
    # both choices of each of alpha, sigma work: 4 tuples / 2! = 2
    assert hurwitz_count(2, 3) == 2


def test_degree_one_admits_no_branched_covers():
    # S_1 has no transpositions, so no tuple satisfies the conditions
    assert hurwitz_count(1, 2) == 0
    assert hurwitz_count(1, 3) == 0


def test_known_counts():
    assert hurwitz_count(2, 2) == 2
    assert hurwitz_count(3, 2) == 16
    assert hurwitz_count(3, 3) == 160
    assert hurwitz_count(4, 4) == 91920
    assert f_g(4, 4, oracle="sym").coeffs == {4: 2, 6: 1456, 8: 91920}
    # the integral oracle's f_g(2, 7) and f_g(3, 5) give the same numbers
    assert hurwitz_count(6, 2, budget=10**9) == 360
    assert hurwitz_count(5, 3, budget=10**9) == 18304


def reference_count(d, g, class_reduction=True):
    """The tuple count of :func:`hurwitz_count`, one (taus, alpha) tuple at a
    time: alpha is grouped by the conjugate it makes of sigma, so only
    transitivity is checked per candidate."""
    perms = list(itertools.permutations(range(d)))
    if class_reduction:
        sigmas = [(partition_representative(d, ct), conjugacy_class_size(d, ct)) for ct in partitions(d)]
    else:
        sigmas = [(sigma, 1) for sigma in perms]
    count = 0
    for sigma, weight in sigmas:
        by_conjugate = {}
        for alpha in perms:
            by_conjugate.setdefault(conjugate(alpha, sigma), []).append(alpha)
        for taus in itertools.product(transpositions(d), repeat=2 * g - 2):
            product = sigma
            for t in taus:
                product = compose(t, product)
            for alpha in by_conjugate.get(product, ()):
                if is_transitive(list(taus) + [sigma, alpha], d):
                    count += weight
    return Fraction(count, factorial(d))


# every (d, g) the tuple-by-tuple reference reaches within 2 * 10^6 tuples
# (d(d-1)/2 transpositions per branch point, d! each for alpha and sigma):
# (2..5, 2), (2..4, 3), (2..3, 4) and (2..3, 5)
REFERENCE_CASES = [
    (d, g)
    for g in range(2, 6)
    for d in range(2, 7)
    if (d * (d - 1) // 2) ** (2 * g - 2) * factorial(d) ** 2 <= 2 * 10**6
]


@pytest.mark.parametrize("d,g", REFERENCE_CASES)
def test_state_count_matches_tuple_by_tuple_reference(d, g):
    assert hurwitz_count(d, g) == reference_count(d, g)


def test_orbit_labels_name_each_orbit_by_its_least_point():
    assert orbit_labels([from_cycles(5, [(1, 3)]), from_cycles(5, [(3, 4)])], 5) == (0, 1, 2, 1, 1)
    assert orbit_labels([from_cycles(4, [(0, 3), (1, 2)])], 4) == (0, 1, 1, 0)
    assert orbit_labels([], 3) == (0, 1, 2)
    # a label tuple stands in for the permutations with its orbits
    assert orbit_labels([(0, 1, 1, 0), from_cycles(4, [(2, 3)])], 4) == (0, 0, 0, 0)


def test_result_is_exact_rational():
    value = hurwitz_count(3, 2)
    assert isinstance(value, Fraction)
    assert value.denominator == 1


def test_conjugation_invariance():
    rng = random.Random(17)
    d = 4
    ts = transpositions(d)
    for _ in range(40):
        taus = [rng.choice(ts) for _ in range(4)]
        alpha = tuple(rng.sample(range(d), d))
        sigma = tuple(rng.sample(range(d), d))
        gamma = tuple(rng.sample(range(d), d))
        conj = lambda p: compose(gamma, compose(p, inverse(gamma)))
        assert verify_tuple(taus, alpha, sigma) == verify_tuple(
            [conj(t) for t in taus], conj(alpha), conj(sigma)
        )


def test_budget_guard(monkeypatch):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    with pytest.raises(BudgetExceeded, match="^estimated work for degree 10000, genus 2 is at least"):
        hurwitz_count(10**4, 2)
    monkeypatch.setenv(BUDGET_ENV_VAR, "10")
    with pytest.raises(BudgetExceeded):
        hurwitz_count(3, 2)
    monkeypatch.delenv(BUDGET_ENV_VAR)
    assert hurwitz_count(2, 2, budget=10**6) == 2


def test_work_estimate_counts_transpositions_without_building_them(monkeypatch):
    # the estimate is the closed form (2g - 1)^2 d^2: the column-removal
    # table and the recurrence each take about a quarter of it in terms
    for d in range(1, 9):
        for g in (2, 3, 4):
            assert monodromy._estimated_work(d, g) == (2 * g - 1) ** 2 * d**2
    assert monodromy._estimated_work(5, 3) == 625
    assert monodromy._estimated_work(4, 5) == 1296
    # the default budget admits both
    assert hurwitz_count(5, 3) == 18304
    assert hurwitz_count(4, 5) == 3346368

    def refuse(d):
        raise AssertionError(f"table for d={d} built")

    # a refusal builds no table (the module has no partition or permutation
    # lister to call), and the estimate is a closed form, so it costs the
    # same at any degree
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    monkeypatch.setattr(monodromy, "_content_power_sums", lambda d, n: refuse(d))
    for d in (10**4, 10**6):
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            hurwitz_count(d, 2)
        assert time.perf_counter() - start < 0.05
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                hurwitz_count(d, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_input_validation():
    with pytest.raises(ValueError):
        hurwitz_count(0, 2)
    with pytest.raises(ValueError):
        hurwitz_count(2, 1)
    for d in (True, False, 2.0, "2", None):
        with pytest.raises(ValueError, match="^d must be an integer"):
            hurwitz_count(d, 2)
    for g in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="^g must be an integer"):
            hurwitz_count(2, g)


def test_sym_oracle_refuses_before_counting_any_degree(monkeypatch):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    built = []
    table = monodromy._content_power_sums

    def spy(d, n):
        built.append(d)
        return table(d, n)

    monkeypatch.setattr(monodromy, "_content_power_sums", spy)
    with pytest.raises(BudgetExceeded, match="^estimated work for degree 10000, genus 2 "):
        f_g(2, 10**4, oracle="sym")
    assert built == []
    # one table, to the largest degree, serves the whole series
    assert f_g(2, 3, oracle="sym").coeffs == {4: 2, 6: 16}
    assert built == [3]


def test_content_sums_and_partition_numbers():
    assert content_sum(()) == 0
    assert content_sum((3,)) == 3
    assert content_sum((1, 1, 1)) == -3
    assert content_sum((2, 1)) == 0
    assert content_sum((3, 1)) == 2
    # transposing the diagram negates every content
    assert content_sum((4, 2, 1)) == -content_sum((3, 2, 1, 1))
    # partitions lists each partition once, non-increasing, in reverse
    # lexicographic order
    for n in range(13):
        listed = list(partitions(n))
        assert all(sum(p) == n and all(p) and list(p) == sorted(p, reverse=True) for p in listed)
        assert listed == sorted(set(listed), reverse=True)


def test_column_removal_table_matches_listed_partitions():
    z = monodromy._content_power_sums(20, 8)
    assert len(z) == 21
    for j in range(21):
        contents = [content_sum(shape) for shape in partitions(j)]
        assert z[j] == [sum(c**i for c in contents) for i in range(9)]


@pytest.mark.parametrize("g", [2, 3])
def test_one_pass_gives_every_degree(g):
    assert hurwitz_numbers(12, g) == [hurwitz_count(d, g) for d in range(1, 13)]
    assert hurwitz_numbers(0, g) == []
    assert f_g(g, 0, oracle="sym").coeffs == {}


def test_hurwitz_numbers_input_validation():
    with pytest.raises(ValueError, match="^d_max must be non-negative"):
        hurwitz_numbers(-1, 2)
    with pytest.raises(ValueError, match="^genus g must be at least 2"):
        hurwitz_numbers(3, 1)
    for d_max in (True, 2.0, "2", None):
        with pytest.raises(ValueError, match="^d_max must be an integer"):
            hurwitz_numbers(d_max, 2)


@pytest.mark.parametrize("value", ["abc", "-5", "0", "1.5", "true"])
def test_budget_variable_must_be_a_positive_integer(monkeypatch, value):
    monkeypatch.setenv(BUDGET_ENV_VAR, value)
    message = f"HURWITZ_WORK_BUDGET must be a positive integer, got '{value}'"
    with pytest.raises(ValueError, match=re.escape(message)):
        hurwitz_count(2, 2)
    # an explicit budget takes precedence over the variable
    assert hurwitz_count(2, 2, budget=10**6) == 2
    # and is checked the same way
    for budget in (-5, 0, True, 1.5, "100"):
        with pytest.raises(ValueError, match="^budget must be a positive integer, got "):
            hurwitz_count(2, 2, budget=budget)
    # an empty variable means the default, as before
    monkeypatch.setenv(BUDGET_ENV_VAR, "")
    assert hurwitz_count(2, 2) == 2


@pytest.mark.parametrize("g,d", [(2, 14), (3, 10), (4, 5), (4, 7), (5, 5)])
def test_sym_oracle_matches_the_integral_oracle(g, d):
    assert f_g(g, d, oracle="sym") == f_g(g, d)


def test_sym_oracle_matches_the_tropical_oracle():
    assert f_g(3, 6, oracle="sym") == f_g(3, 6, oracle="tropical")
