import inspect
import itertools
import random
from math import comb, factorial

import pytest

from ellcover import (
    BadCardinality,
    CoverTuple,
    FeynmanGraph,
    GenusTooLarge,
    NotConnected,
    bridges,
    count_covers,
    count_covers_total,
    enumerate_genus,
    enumerate_tuples,
    f_g,
    generating_function,
    gromov_witten_a,
    gromov_witten_d,
    i_gamma_series,
    integral_coeff,
    reconstruct_cover,
    tropical_series,
)
from ellcover import graphs, integrals, tropical
from ellcover.integrals import (
    MultiSeries,
    all_orders,
    compositions,
    i_gamma_coeffs_for_order,
)
from ellcover.tropical import _graded_counts
from ellcover.laurent import LaurentPoly
from ellcover.propagator import edge_factor
from reference import first_extension, order_orbits, orientation_orbits, trivial_group, vertex_step


BRANCH = (0, 0, 0, 0, 1, 1)


def test_single_order_integral(caterpillar):
    assert integral_coeff(caterpillar, BRANCH, (3, 1, 2, 4)) == 4
    assert integral_coeff(caterpillar, BRANCH, (1, 2, 3, 4)) == 0


def test_only_two_orders_contribute(caterpillar):
    nonzero = {
        order: v
        for order in all_orders(caterpillar)
        if (v := integral_coeff(caterpillar, BRANCH, order))
    }
    assert nonzero == {(3, 1, 2, 4): 4, (4, 2, 1, 3): 4}


def test_gromov_witten_branch_type(caterpillar):
    assert gromov_witten_a(caterpillar, BRANCH) == 8
    assert gromov_witten_a(caterpillar, (0, 2, 1, 0, 0, 1)) == 256


def test_gromov_witten_degree(caterpillar, theta, dumbbell):
    assert gromov_witten_d(caterpillar, 2) == 32
    # theta degree totals read off its printed generating function
    assert gromov_witten_d(theta, 1) == 0
    assert gromov_witten_d(theta, 2) == 24
    assert gromov_witten_d(theta, 3) == 192
    assert gromov_witten_d(dumbbell, 2) == 0


def reference_gromov_witten_d(graph, d):
    """The degree-d count as one single-type integral per composition of d
    and automorphism-and-reversal orbit of vertex orders."""
    if bridges(graph):
        return 0
    orbits = order_orbits(graph)
    return sum(
        weight * integral_coeff(graph, a, order)
        for a in compositions(d, len(graph.edges))
        for order, weight in orbits
    )


def test_graded_degree_count_matches_composition_sum(caterpillar, theta, k4, dumbbell):
    for graph in (caterpillar, theta, k4, dumbbell):
        for d in range(5):
            assert gromov_witten_d(graph, d) == reference_gromov_witten_d(graph, d)


def test_zero_branch_type_gives_zero(theta, caterpillar, k4):
    for graph in (theta, caterpillar, k4):
        zero = (0,) * len(graph.edges)
        for order in all_orders(graph):
            assert integral_coeff(graph, zero, order) == 0


def test_generating_function_caterpillar(caterpillar):
    series = generating_function(caterpillar, 2)
    assert series.coeffs == {
        (2, 0, 0, 0, 0, 0): 8,
        (0, 1, 1, 0, 0, 0): 8,
        (0, 0, 0, 2, 0, 0): 8,
        (0, 0, 0, 0, 1, 1): 8,
    }
    assert str(series) == "8*q(1)^2+8*q(2)*q(3)+8*q(4)^2+8*q(5)*q(6)"


def test_generating_function_theta(theta):
    series = generating_function(theta, 3)
    assert str(series) == (
        "24*q(1)^3+20*q(1)^2*q(2)+20*q(1)*q(2)^2+24*q(2)^3+20*q(1)^2*q(3)"
        "+20*q(2)^2*q(3)+20*q(1)*q(3)^2+20*q(2)*q(3)^2+24*q(3)^3"
        "+4*q(1)^2+4*q(1)*q(2)+4*q(2)^2+4*q(1)*q(3)+4*q(2)*q(3)+4*q(3)^2"
    )


def test_generating_function_bridged_graph_is_zero(dumbbell):
    assert generating_function(dumbbell, 3).coeffs == {}
    assert str(generating_function(dumbbell, 3)) == "0"


def test_multiseries_sorted_order():
    s = MultiSeries(2, {(0, 1): 1, (2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert [a for a, _ in s.sorted_items()] == [(2, 0), (1, 1), (0, 2), (0, 1)]


def test_graph_series_known_values(caterpillar_series_16, k4_series_16):
    assert {e: c for e, c in caterpillar_series_16.coeffs.items() if e <= 12} == {
        4: 32,
        6: 1792,
        8: 25344,
        10: 182272,
        12: 886656,
    }
    assert {e: c for e, c in k4_series_16.coeffs.items() if e <= 12} == {
        6: 1152,
        8: 20736,
        10: 165888,
        12: 843264,
    }


def test_graph_series_agrees_with_composition_sum(caterpillar, theta):
    s = i_gamma_series(caterpillar, 2)
    assert s.coeff(4) == gromov_witten_d(caterpillar, 2)
    assert s.coeff(2) == gromov_witten_d(caterpillar, 1)
    t = i_gamma_series(theta, 3)
    for d in (1, 2, 3):
        assert t.coeff(2 * d) == gromov_witten_d(theta, d)


def test_bridged_graph_series_is_zero(dumbbell):
    assert i_gamma_series(dumbbell, 3).is_zero()


def test_f_g_values():
    f2 = f_g(2, 3)
    assert f2.coeffs == {4: 2, 6: 16}
    f3 = f_g(3, 3)
    assert f3.coeffs == {4: 2, 6: 160}


def test_f3_is_weighted_sum_of_graph_series(caterpillar_series_16, k4_series_16):
    f3 = f_g(3, 4)
    for d in (1, 2, 3, 4):
        # 1/16 and 1/24 over the common denominator 48
        expected = 3 * caterpillar_series_16.coeff(2 * d) + 2 * k4_series_16.coeff(2 * d)
        assert f3.coeff(2 * d) * 48 == expected


def test_order_reversal_symmetry(caterpillar, theta):
    rng = random.Random(5)
    cases = [(caterpillar, (0, 2, 1, 0, 0, 1)), (caterpillar, BRANCH)]
    for d in range(1, 5):
        for a in compositions(d, 3):
            cases.append((theta, a))
    for _ in range(12):
        d = rng.randint(1, 4)
        a = rng.choice(list(compositions(d, 6)))
        cases.append((caterpillar, a))
    for graph, a in cases:
        for order in all_orders(graph):
            rev = tuple(reversed(order))
            assert integral_coeff(graph, a, order) == integral_coeff(graph, a, rev)


def test_one_validation_per_single_order_call(caterpillar, monkeypatch):
    calls = []
    real = integrals.validate
    monkeypatch.setattr(integrals, "validate", lambda graph: calls.append(graph) or real(graph))
    assert integral_coeff(caterpillar, BRANCH, (3, 1, 2, 4)) == 4
    assert len(calls) == 1
    with pytest.raises(ValueError, match="not a permutation"):
        integral_coeff(caterpillar, BRANCH, (1, 2, 3, 3))


def test_truncation_robustness(caterpillar, theta, k4):
    for graph in (theta, caterpillar, k4):
        m = len(graph.edges)
        for d in (1, 2, 3):
            for a in itertools.islice(compositions(d, m), 12):
                base = gromov_witten_a(graph, a)
                order = tuple(range(1, graph.vertex_count + 1))
                assert integral_coeff(graph, a, order, w_max=d + 3) == integral_coeff(
                    graph, a, order
                )
                assert base >= 0


def test_bridge_iff_all_counts_vanish():
    from ellcover import bridges, enumerate_genus

    for g in (2, 3):
        for graph in enumerate_genus(g):
            m = len(graph.edges)
            nonzero = False
            for d in range(4):
                for a in compositions(d, m):
                    value = gromov_witten_a(graph, a)
                    assert value >= 0
                    if value:
                        nonzero = True
            assert bool(bridges(graph)) == (not nonzero)


def test_compositions_count():
    for d, parts in [(0, 3), (3, 3), (4, 6), (2, 1)]:
        assert len(list(compositions(d, parts))) == comb(d + parts - 1, parts - 1)
    assert list(compositions(2, 0)) == []
    assert list(compositions(0, 0)) == [()]


def test_compositions_come_in_lexicographic_order_without_recursion():
    assert list(compositions(2, 3)) == [(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]
    for d, parts in [(0, 1), (3, 1), (4, 3), (5, 4)]:
        listed = list(compositions(d, parts))
        assert listed == sorted(listed)
        assert listed == [a for a in itertools.product(range(d + 1), repeat=parts) if sum(a) == d]
    assert list(compositions(-1, 1)) == list(compositions(-1, 3)) == []
    # no recursion: many parts are as easy as few
    assert list(compositions(0, 2000)) == [(0,) * 2000]
    assert next(compositions(1, 2000)) == (0,) * 1999 + (1,)
    with pytest.raises(ValueError, match="^parts must be non-negative, got -1$"):
        compositions(2, -1)


def test_branch_type_validation(caterpillar):
    with pytest.raises(ValueError):
        integral_coeff(caterpillar, (1, 2, 3), (1, 2, 3, 4))
    with pytest.raises(ValueError):
        integral_coeff(caterpillar, (0, 0, 0, 0, 1, -1), (1, 2, 3, 4))
    with pytest.raises(ValueError):
        integral_coeff(caterpillar, BRANCH, (1, 2, 3))


PER_ORDER = (integral_coeff, count_covers, enumerate_tuples)
BAD_BRANCH_TYPES = ((2.0, 1, 0), (True, 1, 0), (1.5, 1, 0), "210")
BAD_ORDERS = ((1.0, 2.0), (True, 2))
BAD_INTEGER_CASES = (
    [(f, (a, (1, 2)), "branch type") for f in PER_ORDER for a in BAD_BRANCH_TYPES]
    + [(f, ((2, 1, 0), order), "order") for f in PER_ORDER for order in BAD_ORDERS]
    + [(f, (a,), "branch type") for f in (gromov_witten_a, count_covers_total) for a in BAD_BRANCH_TYPES]
)


@pytest.mark.parametrize(
    "fn, args, name", BAD_INTEGER_CASES, ids=[f"{f.__name__}{args!r}" for f, args, _ in BAD_INTEGER_CASES]
)
def test_orders_and_branch_types_take_integers_only(theta, fn, args, name):
    with pytest.raises(ValueError, match=f"^{name} entry must be an integer"):
        fn(theta, *args)


def ones(graph):
    return (1,) * len(graph.edges)


def identity_order(graph):
    return tuple(range(1, graph.vertex_count + 1))


GRAPH_SUMS = {
    "gromov_witten_a": lambda g: gromov_witten_a(g, ones(g)),
    "gromov_witten_d": lambda g: gromov_witten_d(g, 2),
    "generating_function": lambda g: generating_function(g, 2),
    "i_gamma_series": lambda g: i_gamma_series(g, 2),
    "count_covers_total": lambda g: count_covers_total(g, ones(g)),
    "tropical_series": lambda g: tropical_series(g, 2),
    # the single-order entry points validate through check_order
    "integral_coeff": lambda g: integral_coeff(g, ones(g), identity_order(g)),
    "i_gamma_coeffs_for_order": lambda g: i_gamma_coeffs_for_order(g, identity_order(g), 2),
    "count_covers": lambda g: count_covers(g, ones(g), identity_order(g)),
    "enumerate_tuples": lambda g: enumerate_tuples(g, ones(g), identity_order(g)),
    "reconstruct_cover": lambda g: reconstruct_cover(
        g, ones(g), identity_order(g), CoverTuple(ones(g), ones(g), ones(g))
    ),
}


@pytest.mark.parametrize("graph_sum", GRAPH_SUMS.values(), ids=list(GRAPH_SUMS))
def test_every_graph_sum_rejects_an_invalid_graph(graph_sum):
    triangle = FeynmanGraph.from_edges(3, [[1, 2], [2, 3], [1, 3]])
    with pytest.raises(BadCardinality):
        graph_sum(triangle)
    two_thetas = FeynmanGraph.from_edges(4, [[1, 2], [1, 2], [1, 2], [3, 4], [3, 4], [3, 4]])
    with pytest.raises(NotConnected):
        graph_sum(two_thetas)


def test_per_order_graded_extraction_matches_single(caterpillar):
    order = (3, 1, 2, 4)
    graded = i_gamma_coeffs_for_order(caterpillar, order, 3)
    for d in (1, 2, 3):
        total = sum(integral_coeff(caterpillar, a, order) for a in compositions(d, 6))
        assert graded.get(d, 0) == total


def test_f_g_rejects_small_genus():
    with pytest.raises(ValueError):
        f_g(1, 3)


@pytest.mark.parametrize("oracle", ["integral", "tropical", "sym"])
def test_f_g_rejects_non_integer_arguments(oracle):
    for g in (True, 3.0, "3"):
        with pytest.raises(ValueError, match="^g must be an integer"):
            f_g(g, 2, oracle=oracle)
    for d_max in (True, False, 2.0, None):
        with pytest.raises(ValueError, match="^d_max must be an integer"):
            f_g(3, d_max, oracle=oracle)


# -- the orbit-reduced path against a reference over every vertex order ----


def reference_coeffs(graph, order, degrees, d_max, elimination=None):
    """Total branch degree -> single-order integral, with ``LaurentPoly``
    edge factors and ``coeff_in``: edge k runs over ``degrees[k]``, and the
    running product is graded by degree and truncated at d_max, as are the
    degree-0 expansions.  The vertex variables are extracted in the sequence
    ``elimination`` (``order`` by default), each edge multiplied just before
    its first endpoint in it.  Independent of the packed kernel and of orbit
    reduction."""
    n = graph.vertex_count
    factors = [
        {a: edge_factor(n, k, graph.edges[k], a, order, d_max).expansion for a in degrees[k]}
        for k in range(len(graph.edges))
    ]
    state = {0: LaurentPoly.one(n)}
    used = set()
    for v in elimination or order:
        for k in graph.incident_edges(v):
            if k in used:
                continue
            used.add(k)
            product = {}
            for t1, p1 in state.items():
                for t2, p2 in factors[k].items():
                    if t1 + t2 <= d_max:
                        product[t1 + t2] = product.get(t1 + t2, LaurentPoly.zero(n)) + p1 * p2
            state = product
        state = {t: p.coeff_in(v - 1, 0) for t, p in state.items()}
    return {t: c for t, p in state.items() if (c := p.constant_term())}


def reference_series(graph, d_max):
    """Degree -> labelled count summed over all n! vertex orders."""
    total = {}
    for order in all_orders(graph):
        for t, c in reference_coeffs(graph, order, [range(d_max + 1)] * len(graph.edges), d_max).items():
            total[t] = total.get(t, 0) + c
    return total


@pytest.fixture(scope="module")
def genus4_bridgeless():
    return enumerate_genus(4, bridgeless=True)


def test_orbit_reduced_series_matches_all_orders(genus4_bridgeless):
    for graphs, d_max in ((enumerate_genus(3, bridgeless=True), 6), (genus4_bridgeless, 2)):
        for graph in graphs:
            series = i_gamma_series(graph, d_max)
            want = {2 * t: c for t, c in reference_series(graph, d_max).items()}
            assert series.coeffs == want
            assert all(type(c) is int for c in series.coeffs.values())


def test_reversal_orbits_match_all_orders_for_fixed_branch_type(genus4_bridgeless):
    rng = random.Random(23)
    cases = [(graph, 4) for graph in enumerate_genus(3, bridgeless=True)] + [(genus4_bridgeless[0], 2)]
    for graph, draws in cases:
        for _ in range(draws):
            a = tuple(rng.randint(0, 2) for _ in graph.edges)
            if not any(a):
                continue
            want = sum(
                reference_coeffs(graph, order, [(x,) for x in a], sum(a)).get(sum(a), 0)
                for order in all_orders(graph)
            )
            assert gromov_witten_a(graph, a) == want


def test_per_order_kernel_matches_the_reference(genus4_bridgeless):
    # the kernel extracts x_v^0 while it multiplies v's last fresh edge, with
    # v as the source of every edge it multiplies; its symmetric d > 0 terms
    # cannot tell the source from the sink, so a degree-0 edge is made the
    # last fresh edge of the first vertex v of the order
    rng = random.Random(41)
    for graph in enumerate_genus(3, bridgeless=True) + genus4_bridgeless:
        n = graph.vertex_count
        for _ in range(2):
            order = tuple(rng.sample(range(1, n + 1), n))
            want = reference_coeffs(graph, order, [range(4)] * len(graph.edges), 3)
            assert i_gamma_coeffs_for_order(graph, order, 3) == want
        nonzero = 0
        for _ in range(60):
            order = tuple(rng.sample(range(1, n + 1), n))
            last = graph.incident_edges(order[0])[-1]
            a = tuple(0 if k == last else rng.randint(0, 2) for k in range(len(graph.edges)))
            if not any(a):
                continue
            want = reference_coeffs(graph, order, [(x,) for x in a], sum(a)).get(sum(a), 0)
            assert integral_coeff(graph, a, order) == want
            nonzero += want != 0
            if nonzero == 3:
                break
        assert nonzero, graph.edges


def test_bundled_parallel_edges_match_the_reference(genus4_bridgeless):
    # the kernel multiplies a vertex's parallel edges to one later neighbour
    # as one bundle; every class of genus 2-4 with a multiple edge (the theta
    # graph's triple edge included) is checked against the per-edge
    # reference, on branch types whose parallel edges carry unequal degrees,
    # 0 beside a positive degree, and on the graded sum
    rng = random.Random(59)
    classes = [
        graph
        for graph in enumerate_genus(2, bridgeless=True) + enumerate_genus(3, bridgeless=True) + genus4_bridgeless
        if len(set(graph.edges)) < len(graph.edges)
    ]
    assert sorted(len(graph.edges) for graph in classes) == [3, 6, 9, 9, 9]
    for graph in classes:
        n = graph.vertex_count
        bundles = {}
        for k, e in enumerate(graph.edges):
            bundles.setdefault(e, []).append(k)
        nonzero_types = nonzero_graded = 0
        for _ in range(12):
            order = tuple(rng.sample(range(1, n + 1), n))
            a = [rng.randint(0, 2) for _ in graph.edges]
            for ks in bundles.values():
                if len(ks) > 1:
                    # 0 beside distinct positive degrees, in a random slot
                    unequal = [0] + rng.sample(range(1, 4), len(ks) - 1)
                    rng.shuffle(unequal)
                    for k, x in zip(ks, unequal):
                        a[k] = x
            a = tuple(a)
            want = reference_coeffs(graph, order, [(x,) for x in a], sum(a)).get(sum(a), 0)
            assert integral_coeff(graph, a, order) == want
            nonzero_types += want != 0
        # few orders give a nonzero graded sum (12 of 720 for one genus-4
        # class), so the orbit representatives are checked besides the
        # random orders
        orders = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(4)]
        for order in orders + [order for order, _ in orientation_orbits(graph)]:
            want = reference_coeffs(graph, order, [range(4)] * len(graph.edges), 3)
            assert i_gamma_coeffs_for_order(graph, order, 3) == want
            nonzero_graded += bool(want)
        assert nonzero_types and nonzero_graded, graph.edges


def reference_eliminate(graph, order, degrees, w_max, d_max):
    """The single-order kernel as it was before the prefix-sharing pass:
    vertex ``order[i]`` owns packed digit i, so every later endpoint has the
    higher place and a bundle's offsets ascend.  Same bundle tables; each
    bundle multiplied in full, the last one only into the terms that bring
    the digit to the bias; one order per call, nothing shared."""
    n = graph.vertex_count
    weight = max([w_max] + [max(ds) for ds in degrees])
    bias = 6 * weight + 1
    radix = 2 * bias + 1
    place = {v: radix**i for i, v in enumerate(order)}
    top = radix**n
    limit = (d_max + 1) * top
    zero = (top - 1) // 2
    state = {zero: 1}
    for v in order:
        p = place[v]
        bundles = {}
        for k in graph.incident_edges(v):
            w = sum(graph.edges[k]) - v
            if place[w] > p:
                bundles.setdefault(w, []).append(tuple(degrees[k]))
        if not bundles:
            state = {key: c for key, c in state.items() if key // p % radix == bias}
        last = len(bundles) - 1
        for i, (w, sets) in enumerate(bundles.items()):
            shift = p - place[w]
            table = integrals._bundle_terms(tuple(sorted(sets)), w_max, d_max)
            product = {}
            for key, c in state.items():
                for t, e, c2 in table:
                    if i == last and key // p % radix != bias - e:
                        continue
                    s = key + t * top + e * shift
                    if s >= limit:
                        break
                    product[s] = product.get(s, 0) + c * c2
            state = product
        if not state:
            return {}
    return {(key - zero) // top: c for key, c in state.items()}


def reference_pass(graph, orders, degrees, w_max, d_max):
    """Degree -> the sum of weight x :func:`reference_eliminate` over the
    (order, weight) pairs."""
    total = {}
    for order, weight in orders:
        for t, c in reference_eliminate(graph, order, degrees, w_max, d_max).items():
            total[t] = total.get(t, 0) + weight * c
    return total


def searched(graph, degrees, w_max, d_max, symmetric=True):
    """The kernel sum over all orders, as the public sums have the search
    make it."""
    return integrals._order_search(graph, integrals._group(graph, symmetric), degrees, w_max, d_max)


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_prefix_pass_matches_the_per_order_engine(g):
    # the search, which shares each prefix's state across every order
    # through it, against one-order runs of the engine it replaced over the
    # reference orbits, coefficient by coefficient: graded over the
    # orientation orbits of every bridgeless class, and for fixed random
    # branch types over the reversal orbits
    rng = random.Random(89 + g)
    classes = enumerate_genus(g, bridgeless=True)
    graded = 0
    for graph in classes:
        m = len(graph.edges)
        orbits = orientation_orbits(graph)
        for d in (1, 3, 5) if g <= 4 else (1, 3):
            degrees = [range(d + 1)] * m
            want = reference_pass(graph, orbits, degrees, d, d)
            assert searched(graph, degrees, d, d) == want
            graded += d == 3 and bool(want)
        reversal = orientation_orbits(graph, trivial_group(graph))
        nonzero = 0
        for _ in range(3 if g <= 4 else 1):
            a = tuple(rng.randint(0, 2) for _ in range(m))
            degrees, total = [(x,) for x in a], sum(a)
            if not total:
                continue
            want = reference_pass(graph, reversal, degrees, total, total)
            assert searched(graph, degrees, total, total, symmetric=False) == want
            nonzero += bool(want)
            if g <= 4:
                # a weight bound below the total degree truncates the same way
                want = reference_pass(graph, reversal, degrees, 1, total)
                assert searched(graph, degrees, 1, total, symmetric=False) == want
        assert nonzero or g == 5, graph.edges
    # 3 of the 16 genus-5 classes first count in degree 4
    assert graded == len(classes) - (3 if g == 5 else 0)


def test_offsets_that_descend_within_a_degree_break_exactly(k4, genus4_bridgeless):
    # each vertex owns the digit of its label, so in the order n, ..., 1 every
    # later neighbour w of v has a smaller label: v's shift R^(v-1) - R^(w-1)
    # is positive and a bundle's offsets descend within one degree.  The
    # caps on the keys stay exact, as a key's degree is its degree digit
    # alone; the LaurentPoly reference, with no packing, agrees.  The
    # reversed orbit representatives have such a descent too
    rng = random.Random(97)

    def descends(graph, order):
        # some edge runs from an earlier vertex to a later one of smaller label
        position = {v: i for i, v in enumerate(order)}
        return any((position[u] < position[v]) == (u > v) for u, v in graph.edges if u != v)

    for graph in [k4] + genus4_bridgeless:
        n, m = graph.vertex_count, len(graph.edges)
        order = tuple(range(n, 0, -1))
        nonzero = 0
        for _ in range(20):
            a = tuple(rng.randint(0, 2) for _ in range(m))
            if any(a):
                want = reference_coeffs(graph, order, [(x,) for x in a], sum(a)).get(sum(a), 0)
                assert integral_coeff(graph, a, order) == want
        for d in (1, 3):
            for rep, _ in orientation_orbits(graph):
                order = rep[::-1]
                assert descends(graph, order)
                want = reference_coeffs(graph, order, [range(d + 1)] * m, d)
                assert i_gamma_coeffs_for_order(graph, order, d) == want
                nonzero += bool(want)
        assert nonzero, graph.edges


def test_the_filtered_vertex_step_matches_the_full_one(monkeypatch, genus4_bridgeless):
    # the step multiplies each bundle of a vertex only where the bundles
    # after it, or for the last bundle the end room, can still bring the
    # vertex's digit to the bias within the degree bound; every call returns
    # exactly what the reference step, which makes every term of those
    # products and then keeps the digits at the bias, returns on the same
    # arguments, at each degree bound up to 10 on genus 2 and 3 and up to 6
    # on genus 4
    real = integrals._vertex_step
    seen = {"filtered": 0, "dropped": 0, "dropped from the last": 0, "no later neighbour": 0}
    bound = {}

    def checked(state, *args):
        _, radix, bias, stages = args
        d_max, top = bound["d_max"], radix ** bound["n"]
        # the last bundle is filtered by the end room: digit at the bias,
        # degree at most d_max
        assert stages[-1][2] == {bias: (d_max + 1) * top}
        want = vertex_step(state, *args, d_max, top)
        got = real(state, *args)
        assert got == want
        # per bundle, whether some row left out one of its terms
        dropped = [
            any(len(row) < sum(len(terms) for _, terms in groups) for row in rows.values())
            for groups, rows, _ in stages[:-1]
        ]
        seen["filtered"] += len(stages) > 2
        seen["dropped"] += any(dropped[:-1])
        seen["dropped from the last"] += any(dropped[-1:])
        seen["no later neighbour"] += len(stages) == 1
        return got

    monkeypatch.setattr(integrals, "_vertex_step", checked)
    classes = [(graph, 10) for graph in enumerate_genus(2, bridgeless=True) + enumerate_genus(3, bridgeless=True)]
    for graph, d_max in classes + [(graph, 6) for graph in genus4_bridgeless]:
        for d in range(1, d_max + 1):
            bound.update(d_max=d, n=graph.vertex_count)
            i_gamma_series(graph, d)
    assert all(seen.values()), seen


def test_packed_keys_never_carry(monkeypatch, genus4_bridgeless):
    # the caps compare whole keys for a degree bound, which is exact only if
    # no digit carries: at weight bound W every vertex digit of every key a
    # step returns stays within 6W of the bias, and the degree digit within
    # d_max, on every bridgeless class of genus 2-4 and a relabelled copy
    rng = random.Random(29)
    real = integrals._vertex_step
    bound = {}
    checked_keys = 0

    def checked(state, *args):
        nonlocal checked_keys
        _, radix, bias, _ = args
        # i_gamma_series(h, d) has weight bound and degree bound d
        d, n = bound["d"], bound["n"]
        assert bias == 6 * d + 1
        got = real(state, *args)
        for key in got:
            assert all(abs(key // radix**i % radix - bias) <= 6 * d for i in range(n)), key
            assert key // radix**n <= d, key
        checked_keys += len(got)
        return got

    monkeypatch.setattr(integrals, "_vertex_step", checked)
    classes = enumerate_genus(2, bridgeless=True) + enumerate_genus(3, bridgeless=True) + genus4_bridgeless
    for graph in classes:
        copy = relabelled(graph, rng)
        for d in range(1, 7):
            for h in (graph, copy):
                bound.update(d=d, n=h.vertex_count)
                i_gamma_series(h, d)
    assert checked_keys


def test_the_kernel_matches_the_laurent_reference_at_high_degree(k4, caterpillar):
    # at d = 8 the filter drops most of the products of the bundles before
    # the last (it rarely drops any at d <= 3); every orbit representative of the two genus-3
    # classes against the LaurentPoly reference, with no packing and no filter
    nonzero = 0
    for graph in (k4, caterpillar):
        for order, _ in representatives(graph):
            want = reference_coeffs(graph, order, [range(9)] * len(graph.edges), 8)
            assert i_gamma_coeffs_for_order(graph, order, 8) == want, order
            nonzero += bool(want)
    assert nonzero


@pytest.mark.parametrize(
    "g, d, oracle, searches", [(4, 3, "integral", 11), (5, 3, "integral", 57), (4, 2, "tropical", 11)]
)
def test_f_g_searches_each_candidate_once(monkeypatch, g, d, oracle, searches):
    # f_g takes the orbits' automorphisms and |Aut| from the searches of
    # enumeration, so it makes no search of its own: as many as the
    # bridgeless enumerate_genus, which searches no bridged graph (before:
    # 68 for f_g(4, 3), then 58 with every class grown)
    calls = []
    search = graphs._search
    monkeypatch.setattr(graphs, "_search", lambda graph: calls.append(graph) or search(graph))
    want = f_g(g, d, oracle="sym")
    assert f_g(g, d, oracle=oracle) == want
    assert len(calls) == searches
    calls.clear()
    enumerate_genus(g, bridgeless=True)
    assert len(calls) == searches


def test_elimination_order_independence(genus4_bridgeless):
    # the kernel eliminates in the vertex order; the reference eliminating in
    # shuffled sequences gives the same values, the fact that lets a count
    # depend on the order only through the orientation it induces
    rng = random.Random(17)
    for graph in enumerate_genus(3, bridgeless=True) + genus4_bridgeless:
        n = graph.vertex_count
        for _ in range(2):
            order = tuple(rng.sample(range(1, n + 1), n))
            elimination = tuple(rng.sample(range(1, n + 1), n))
            want = reference_coeffs(graph, order, [range(3)] * len(graph.edges), 2, elimination)
            assert i_gamma_coeffs_for_order(graph, order, 2) == want
            a = tuple(rng.randint(0, 2) for _ in graph.edges)
            if any(a):
                want = reference_coeffs(graph, order, [(x,) for x in a], sum(a), elimination).get(sum(a), 0)
                assert integral_coeff(graph, a, order) == want


def test_order_orbit_structure(k4, caterpillar, theta, genus4_bridgeless):
    assert len(order_orbits(k4)) == 1
    assert len(order_orbits(caterpillar)) == 6
    assert order_orbits(theta) == [((1, 2), 2)]
    assert sorted(len(order_orbits(graph)) for graph in genus4_bridgeless) == [7, 38, 72, 96, 102]
    for graph in enumerate_genus(3) + genus4_bridgeless:
        n = graph.vertex_count
        for symmetric in (True, False):
            orbits = order_orbits(graph, symmetric)
            assert sum(w for _, w in orbits) == factorial(n)
            assert len({order for order, _ in orbits}) == len(orbits)
        # reversal alone pairs every order with a different one
        assert all(w == 2 for _, w in order_orbits(graph, symmetric=False))


def weighted_sum(counts_for_order, orbits):
    """key -> the sum of weight x ``counts_for_order(order)`` over the
    (order, weight) pairs of ``orbits``."""
    total = {}
    for order, weight in orbits:
        for key, c in counts_for_order(order).items():
            total[key] = total.get(key, 0) + weight * c
    return total


def order_orbit_sum(graph, counts_for_order, symmetric):
    """The same sum over :func:`order_orbits`: one order per orbit of vertex
    orders, weighted by its size."""
    return weighted_sum(counts_for_order, order_orbits(graph, symmetric))


@pytest.mark.parametrize("symmetric", [True, False])
def test_orientation_orbits_sum_like_order_orbits(symmetric, genus4_bridgeless):
    # a single-order count depends only on the acyclic orientation the order
    # induces, so both orbit decompositions give the same sums; the per-order
    # counts are those behind i_gamma_series, tropical_series and
    # generating_function
    for graph in enumerate_genus(3, bridgeless=True) + genus4_bridgeless:
        degrees = [range(3)] * len(graph.edges)
        for counts_for_order in (
            lambda order: i_gamma_coeffs_for_order(graph, order, 3),
            lambda order: _graded_counts(graph, [(order, 1)], degrees, 2),
        ):
            want = order_orbit_sum(graph, counts_for_order, symmetric)
            assert weighted_sum(counts_for_order, representatives(graph, symmetric)) == want
    graph = genus4_bridgeless[0]
    types = [a for d in range(3) for a in compositions(d, len(graph.edges))]

    def gf_counts(order):
        # an automorphism permutes the edges, so under it only sums that are
        # symmetric in the edges are independent of the orbit representative:
        # key the counts by the sorted branch type
        counts = {}
        for a in types:
            key = a if not symmetric else tuple(sorted(a))
            counts[key] = counts.get(key, 0) + integral_coeff(graph, a, order)
        return counts

    want = order_orbit_sum(graph, gf_counts, symmetric)
    assert weighted_sum(gf_counts, representatives(graph, symmetric)) == want


def representatives(graph, symmetric=True):
    """The (order, weight) pairs the search keeps, as the tropical sums
    take them."""
    return integrals._order_search(graph, integrals._group(graph, symmetric))


def reference_orbits(graph, symmetric=True):
    """The reference orbit builder's listing, with reversal alone unless
    ``symmetric``."""
    return orientation_orbits(graph, None if symmetric else trivial_group(graph))


def test_orientation_orbit_structure(k4, caterpillar, theta):
    # K4's orientations form one orbit of acyclic tournaments: its 4! orders
    for listing in (representatives, reference_orbits):
        assert listing(k4) == [((1, 2, 3, 4), 24)]
        assert listing(theta) == [((1, 2), 2)]
        assert listing(theta, symmetric=False) == [((1, 2), 2)]
        assert sum(w for _, w in listing(caterpillar)) == 24
    counts = {True: [], False: []}
    for g in (2, 3, 4, 5):
        graphs = enumerate_genus(g, bridgeless=True)
        for symmetric in (True, False):
            found = 0
            for graph in graphs:
                n = graph.vertex_count
                orbits = representatives(graph, symmetric)
                assert sum(w for _, w in orbits) == factorial(n)
                assert all(sorted(order) == list(range(1, n + 1)) for order, _ in orbits)
                assert len({order for order, _ in orbits}) == len(orbits)
                found += len(orbits)
            counts[symmetric].append(found)
    # the search keeps one order per orbit of acyclic orientations: the 315
    # order orbits of genus 4 and 70,256 of genus 5 fall into these, and
    # reversal alone leaves these many
    assert counts[True] == [1, 5, 65, 1665]
    assert counts[False] == [1, 19, 363, 8118]
    # the reference orbit pass finds as many
    assert sum(len(orientation_orbits(graph)) for graph in enumerate_genus(4, bridgeless=True)) == 65


def test_orientation_orbits_list_no_vertex_order(monkeypatch, genus4_bridgeless):
    def forbidden(*args):
        raise AssertionError("an order was listed")

    monkeypatch.setattr(itertools, "permutations", forbidden)
    assert sum(len(representatives(graph)) for graph in genus4_bridgeless) == 65


def test_factor_term_tables_are_built_once_per_degree_and_bound(monkeypatch, genus4_bridgeless):
    # one bundle table per (degree sets, w_max, d_max), not one per vertex
    # order: graded to d = 3, genus 4 needs a single-edge and a double-edge
    # table, each reading the four degrees' terms once, and the 65 orbit
    # representatives of its 5 classes build no more tables than one class.
    # The packed bundles and steps above the tables are memos too, so every
    # kernel memo starts cold: a warm step would read no table at all
    calls = []
    real = integrals._factor_terms
    monkeypatch.setattr(integrals, "_factor_terms", lambda *args: calls.append(args) or real(*args))
    for memo in KERNEL_MEMOS:
        memo.cache_clear()
    doubled = next(graph for graph in genus4_bridgeless if len(set(graph.edges)) < len(graph.edges))
    i_gamma_series(doubled, 3)
    assert integrals._bundle_terms.cache_info().misses == 2
    for graph in genus4_bridgeless:
        i_gamma_series(graph, 3)
    assert integrals._bundle_terms.cache_info().misses == 2
    assert sorted(calls) == [(0, 3), (0, 3), (1, 3), (1, 3), (2, 3), (2, 3), (3, 3), (3, 3)]


KERNEL_MEMOS = (integrals._bundle_terms, integrals._bundle, integrals._step)


def test_shared_kernel_tables_change_no_value(caterpillar, k4):
    # every kernel of the process shares the packed bundles and steps, rows
    # included: cold, warm and on a relabelled copy, the degree-10 series
    # equal the reference orbit sums, which read neither memo
    rng = random.Random(24)
    for graph in (caterpillar, k4):
        degrees = [range(11)] * len(graph.edges)
        want = {2 * t: c for t, c in reference_pass(graph, orientation_orbits(graph), degrees, 10, 10).items()}
        for memo in KERNEL_MEMOS:
            memo.cache_clear()
        assert i_gamma_series(graph, 10).coeffs == want
        assert integrals._step.cache_info().misses > 0
        assert i_gamma_series(graph, 10).coeffs == want
        copy = relabelled(graph, rng)
        assert copy.edges != graph.edges
        assert i_gamma_series(copy, 10).coeffs == want


def test_evicted_kernel_tables_change_no_value(k4):
    # the step memo is bounded: flooding it past its size with the branch
    # types of one genus-3 class evicts steps that the genus-4 and genus-5
    # sums then build again, to the same values
    for memo in KERNEL_MEMOS:
        memo.cache_clear()
    generating_function(k4, 5)
    info = integrals._step.cache_info()
    assert info.misses > info.maxsize == info.currsize
    for g in (4, 5):
        assert f_g(g, 3) == f_g(g, 3, oracle="sym")


def test_skipping_the_bridge_test_gives_the_same_value():
    # loopless graphs with a bridge first appear at genus 4: their integrals
    # vanish without the short-circuit too
    loopless = [graph for graph in enumerate_genus(4) if bridges(graph) and not graph.has_loop()]
    assert loopless
    for graph in loopless:
        order = tuple(range(1, graph.vertex_count + 1))
        assert integral_coeff(graph, (1,) * len(graph.edges), order) == 0
        assert i_gamma_coeffs_for_order(graph, order, 3) == {}


def test_a_bridged_graph_sums_to_zero_without_a_kernel_or_a_tuple_search(monkeypatch):
    # the loopless bridged graphs of genus 4 pass the search's loop exit, so
    # only the empty group that _group gives for a bridge keeps every public
    # sum from building a kernel or searching tuples
    loopless = [graph for graph in enumerate_genus(4) if bridges(graph) and not graph.has_loop()]
    assert loopless

    def forbidden(*args):
        raise AssertionError("a bridged graph reached the kernel or the tuple search")

    monkeypatch.setattr(integrals, "_Kernel", forbidden)
    monkeypatch.setattr(tropical, "_search", forbidden)
    for graph in loopless:
        ones = (1,) * len(graph.edges)
        assert gromov_witten_a(graph, ones) == 0
        assert gromov_witten_d(graph, 3) == 0
        assert generating_function(graph, 2).coeffs == {}
        assert i_gamma_series(graph, 3).coeffs == {}
        assert tropical_series(graph, 3).coeffs == {}
        assert count_covers_total(graph, ones) == 0


def test_single_order_entry_points_give_zero_on_a_graph_with_a_loop():
    # a loop's factor is singular, so it must never be expanded
    looped = [graph for graph in enumerate_genus(2) + enumerate_genus(3) if graph.has_loop()]
    assert looped
    for graph in looped:
        ones = (1,) * len(graph.edges)
        for order in all_orders(graph):
            assert integral_coeff(graph, ones, order) == 0
            assert i_gamma_coeffs_for_order(graph, order, 3) == {}
            assert count_covers(graph, ones, order) == 0


def test_f4_through_degree_four():
    # the q^8 coefficient also follows from the character formula
    # sum over partitions of c(lambda)^6, followed by a log in q
    assert f_g(4, 4).coeffs == {4: 2, 6: 1456, 8: 91920}


def test_f5_through_degree_three():
    # the first genus-5 check of the graph oracles: 16 bridgeless classes,
    # 1,665 orientation orbits
    series = f_g(5, 3)
    assert series == f_g(5, 3, oracle="sym")
    assert series.coeffs == {4: 2, 6: 13120}


def test_f6_through_degree_three():
    # genus 6 through the integral oracle: 66 bridgeless classes, summed by
    # the order search.  The tropical oracle and the full enumeration keep
    # the genus bound 5
    series = f_g(6, 3)
    assert series == f_g(6, 3, oracle="sym")
    assert series.coeffs == {4: 2, 6: 118096}
    unbounded = '; oracle="sym" has no genus bound$'
    with pytest.raises(GenusTooLarge, match="^genus 6 exceeds the tropical oracle's genus bound 5" + unbounded):
        f_g(6, 1, oracle="tropical")
    with pytest.raises(GenusTooLarge, match="^genus 7 exceeds the integral oracle's genus bound 6" + unbounded):
        f_g(7, 1)


def relabelled(graph, rng):
    n = graph.vertex_count
    perm = rng.sample(range(1, n + 1), n)
    return FeynmanGraph.from_edges(n, [(perm[u - 1], perm[v - 1]) for u, v in graph.edges])


def orbit_pass(graph, orbits, degrees, d):
    """Degree -> the sum of weight x the single-order kernel, up to degree
    d, over the (order, weight) pairs of ``orbits``: the orbit pass that the
    search replaced.  It walks the sorted orders as a prefix trie, keeping
    one state per depth, so each order redoes only the vertex steps past the
    prefix it shares with the order before it."""
    kernel = integrals._Kernel(graph, degrees, d, d)
    n = graph.vertex_count
    total = {}
    states, placed, prev = [{kernel.zero: 1}], [0], ()
    for order, weight in sorted(orbits):
        depth = 0
        while depth < len(states) - 1 and order[depth] == prev[depth]:
            depth += 1
        del states[depth + 1 :], placed[depth + 1 :]
        while len(states) < n and states[-1]:
            v = order[len(states) - 1]
            states.append(kernel.step(states[-1], v, placed[-1]))
            placed.append(placed[-1] | 1 << v)
        if len(states) == n:
            for key, c in states[-1].items():
                t = (key - kernel.zero) // kernel.top
                total[t] = total.get(t, 0) + weight * c
        prev = order
    return total


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_order_search_matches_the_orbit_path(g):
    # the order search against the reference orbit pass, coefficient by
    # coefficient, on every bridgeless class as enumerated (with the maps
    # _classes found) and in two seeded relabellings (with
    # vertex_automorphisms), since the labels steer the lex-first and leaf
    # tests; each also with the trivial group, where the search uses
    # reversal alone.  Without a kernel it keeps one order per orbit, with
    # the orbit's weight
    rng = random.Random(101 + g)
    nonzero = 0
    for graph, maps in graphs._classes(g, bridgeless=True):
        n = graph.vertex_count
        copies = [(graph, maps)]
        for copy in (relabelled(graph, rng), relabelled(graph, rng)):
            copies.append((copy, graphs.vertex_automorphisms(copy)))
        for copy, group in copies:
            for group in (group, [tuple(range(n + 1))]):
                orbits = orientation_orbits(copy, group)
                kept = integrals._order_search(copy, group)
                assert sorted(w for _, w in kept) == sorted(w for _, w in orbits), (copy.edges, len(group))
                for d in range(1, 6 if g <= 4 else 5):
                    degrees = [range(d + 1)] * len(copy.edges)
                    want = orbit_pass(copy, orbits, degrees, d)
                    assert integrals._order_search(copy, group, degrees, d, d) == want, (copy.edges, len(group), d)
                    nonzero += bool(want)
                # the representatives kept sum to the same series
                assert orbit_pass(copy, kept, degrees, d) == want, (copy.edges, len(group))
    assert nonzero


def least_representative(graph, order, maps):
    """The least lexicographically first topological order among the images
    of the acyclic orientation that ``order`` induces, under the
    automorphisms ``maps`` with and without reversal: the one order that the
    search keeps for that orbit."""
    n = graph.vertex_count
    rank = {v: i for i, v in enumerate(order)}
    arcs = {(u, v) if rank[u] < rank[v] else (v, u) for u, v in graph.edges if u != v}
    firsts = []
    for img in maps:
        for flip in (False, True):
            preds = [0] * (n + 1)
            for u, v in arcs:
                src, snk = (img[v], img[u]) if flip else (img[u], img[v])
                preds[snk] |= 1 << src
            firsts.append(first_extension(preds))
    return min(firsts)


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_order_search_keeps_the_reference_orbits_in_lexicographic_order(g):
    # without a kernel, the search lists the reference orbits item for item,
    # with their weights, in lexicographic order, since the recursion tries
    # the least vertex first.  With the trivial group both keep pair 0
    # forward, so they keep the same order per orbit; otherwise the search
    # keeps the least lexicographically first order in the orbit
    for graph, maps in graphs._classes(g, bridgeless=True):
        reversal = trivial_group(graph)
        assert integrals._order_search(graph, reversal) == sorted(orientation_orbits(graph, reversal)), graph.edges
        want = sorted((least_representative(graph, order, maps), w) for order, w in orientation_orbits(graph, maps))
        assert integrals._order_search(graph, maps) == want, graph.edges


def test_the_searches_recurse_no_deeper_than_the_graph(monkeypatch):
    # both searches are plain recursion through a module-level name, so a
    # spy on that name sees every level.  On every genus-5 class the order
    # search nests one call per prefix, of 0 to n - 1 vertices (the last
    # vertex is placed in the loop), so n - 1 = 2g - 3 recursive calls below
    # its own; the tuple search one per edge and one for the complete tuple,
    # m + 1 in all
    depth, deepest = [0], {}

    def spying(module, name):
        real = getattr(module, name)

        def enter():
            depth[0] += 1
            deepest[name] = max(deepest.get(name, 0), depth[0])

        def place(*args):
            enter()
            try:
                return real(*args)
            finally:
                depth[0] -= 1

        def assign(*args):
            enter()
            try:
                yield from real(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(module, name, assign if inspect.isgeneratorfunction(real) else place)

    spying(integrals, "_place")
    spying(tropical, "_assign")
    tuple_depths = []
    for graph, maps in graphs._classes(5, bridgeless=True):
        n, m = graph.vertex_count, len(graph.edges)
        deepest.clear()
        kept = integrals._order_search(graph, maps)
        assert deepest == {"_place": n} and depth == [0], graph.edges
        # the kernel cuts empty prefixes, so it may stop short of a leaf
        deepest.clear()
        integrals._order_search(graph, maps, [range(3)] * m, 2, 2)
        assert 1 <= deepest["_place"] <= n and depth == [0], graph.edges
        deepest.clear()
        tropical._graded_counts(graph, kept, [range(3)] * m, 2)
        assert deepest["_assign"] <= m + 1 and depth == [0], graph.edges
        tuple_depths.append(deepest["_assign"] - m)
    # some order has a tuple of degree at most 2, so the search reaches it
    assert max(tuple_depths) == 1


@pytest.mark.parametrize("g", [3, 4])
def test_tropical_series_matches_the_orbit_path(g):
    # the tropical counts take the search's representatives: their sums
    # equal the graded tuple counts over the reference orbits, on every
    # bridgeless class and a seeded relabelling of it
    rng = random.Random(103 + g)
    nonzero = 0
    for graph in enumerate_genus(g, bridgeless=True):
        for copy in (graph, relabelled(graph, rng)):
            orbits = orientation_orbits(copy)
            for d in range(1, 5 if g == 3 else 4):
                want = _graded_counts(copy, orbits, [range(d + 1)] * len(copy.edges), d)
                assert tropical_series(copy, d).coeffs == {2 * t: c for t, c in want.items() if c}, (copy.edges, d)
                nonzero += bool(want)
    assert nonzero


def test_orbit_sum_hands_every_count_the_search(monkeypatch, caterpillar, k4, genus4_bridgeless):
    # every sum over orders, at every degree, is one call of the search:
    # i_gamma_series and gromov_witten_d with the automorphisms, the
    # fixed-branch-type sums and count_covers_total with the identity alone
    # (generating_function once per branch type), tropical_series for its
    # representatives; the values are those of the reference orbit pass.
    # tropical imports the search by name, so it is spied on there too
    calls = []
    real = integrals._order_search

    def spy(graph, maps, *args):
        calls.append(len(maps))
        return real(graph, maps, *args)

    monkeypatch.setattr(integrals, "_order_search", spy)
    monkeypatch.setattr(tropical, "_order_search", spy)
    for graph in (caterpillar, k4, genus4_bridgeless[0], genus4_bridgeless[-1]):
        orbits = orientation_orbits(graph)
        aut = len(graphs.vertex_automorphisms(graph))
        for d in range(1, 6):
            want = orbit_pass(graph, orbits, [range(d + 1)] * len(graph.edges), d)
            calls.clear()
            assert i_gamma_series(graph, d).coeffs == {2 * t: c for t, c in want.items()}
            assert gromov_witten_d(graph, d) == want.get(d, 0)
            assert calls == [aut, aut], (graph.edges, d)
    calls.clear()
    tropical_series(k4, 1)
    assert calls == [24]
    calls.clear()
    gromov_witten_a(k4, (1, 0, 0, 0, 0, 1))
    count_covers_total(k4, (1, 0, 0, 0, 0, 1))
    generating_function(k4, 1)
    assert calls == [1] * (2 + 7)


def test_negative_degrees_are_rejected(k4):
    with pytest.raises(ValueError, match="d_max"):
        i_gamma_series(k4, -2)
    with pytest.raises(ValueError, match="d_max"):
        generating_function(k4, -1)
    for oracle in ("integral", "tropical", "sym"):
        with pytest.raises(ValueError, match="d_max"):
            f_g(3, -1, oracle=oracle)
    with pytest.raises(ValueError, match="degree"):
        gromov_witten_d(k4, -1)
    assert i_gamma_series(k4, 0).coeffs == {} and f_g(3, 0).coeffs == {}
    for bad in (2.0, True):
        for fn, name in (
            (i_gamma_series, "d_max"),
            (tropical_series, "d_max"),
            (generating_function, "d_max"),
            (gromov_witten_d, "degree"),
            (lambda graph, d: f_g(3, d), "d_max"),
        ):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                fn(k4, bad)


SINGLE_ORDER_BOUNDS = {
    "w_max=2.5": (lambda g, o: integral_coeff(g, ones(g), o, w_max=2.5), "w_max must be an integer"),
    "w_max='3'": (lambda g, o: integral_coeff(g, ones(g), o, w_max="3"), "w_max must be an integer"),
    "w_max=True": (lambda g, o: integral_coeff(g, ones(g), o, w_max=True), "w_max must be an integer"),
    "w_max=0": (lambda g, o: integral_coeff(g, ones(g), o, w_max=0), "w_max must be at least 1"),
    "w_max=-1": (lambda g, o: integral_coeff(g, (0,) * 6, o, w_max=-1), "w_max must be at least 1"),
    "d_max=2.5": (lambda g, o: i_gamma_coeffs_for_order(g, o, 2.5), "d_max must be an integer"),
    "d_max=True": (lambda g, o: i_gamma_coeffs_for_order(g, o, True), "d_max must be an integer"),
    "d_max=-1": (lambda g, o: i_gamma_coeffs_for_order(g, o, -1), "d_max must be non-negative"),
}


@pytest.mark.parametrize("call, message", SINGLE_ORDER_BOUNDS.values(), ids=list(SINGLE_ORDER_BOUNDS))
def test_single_order_bounds_are_checked_at_entry(k4, call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call(k4, identity_order(k4))
