import random

import pytest

from ellcover import (
    CoverTuple,
    FeynmanGraph,
    count_covers,
    count_covers_total,
    enumerate_genus,
    enumerate_tuples,
    f_g,
    i_gamma_series,
    integral_coeff,
    reconstruct_cover,
    tropical_series,
)
from ellcover.integrals import all_orders, compositions
from ellcover.tropical import _search


def test_known_tuple_is_enumerated(caterpillar):
    # branch type (0,2,2,0,1,0) under the order x1<x3<x4<x2 admits, among
    # others, the choice with weights (1,2,1,1,1,2): edge 1 flows x1->x3,
    # edge 2 wraps once with weight 2 into x1, edge 3 wraps twice from x1,
    # edges 4,5 flow out of x4 and edge 6 runs x3->x4 with weight 2
    a = (0, 2, 2, 0, 1, 0)
    order = (1, 3, 4, 2)
    target = CoverTuple(
        weights=(1, 2, 1, 1, 1, 2),
        sources=(1, 2, 1, 4, 4, 3),
        wraps=(0, 1, 2, 0, 1, 0),
    )
    tuples = enumerate_tuples(caterpillar, a, order)
    assert target in tuples
    assert target.multiplicity == 4
    assert target.degree == 5


def test_tuples_are_duplicate_free(caterpillar):
    tuples = enumerate_tuples(caterpillar, (0, 2, 1, 0, 0, 1), (1, 3, 4, 2))
    assert len(set(tuples)) == len(tuples)


def test_zero_branch_type_has_no_tuples(theta, caterpillar):
    assert enumerate_tuples(theta, (0, 0, 0), (1, 2)) == []
    assert enumerate_tuples(caterpillar, (0,) * 6, (1, 2, 3, 4)) == []


def test_bridged_graph_has_no_tuples(dumbbell):
    assert enumerate_tuples(dumbbell, (1, 1, 1), (1, 2)) == []
    assert count_covers_total(dumbbell, (0, 2, 0)) == 0


def test_per_order_counts(caterpillar):
    a = (0, 2, 1, 0, 0, 1)
    assert count_covers(caterpillar, a, (1, 3, 4, 2)) == 128
    assert count_covers(caterpillar, a, (2, 4, 3, 1)) == 128
    zero_orders = [
        order
        for order in all_orders(caterpillar)
        if order not in ((1, 3, 4, 2), (2, 4, 3, 1))
    ]
    assert len(zero_orders) == 22
    assert all(count_covers(caterpillar, a, order) == 0 for order in zero_orders)
    assert count_covers_total(caterpillar, a) == 256


def test_reconstruct_cover(caterpillar):
    a = (0, 2, 2, 0, 1, 0)
    order = (1, 3, 4, 2)
    tup = CoverTuple(
        weights=(1, 2, 1, 1, 1, 2),
        sources=(1, 2, 1, 4, 4, 3),
        wraps=(0, 1, 2, 0, 1, 0),
    )
    cover = reconstruct_cover(caterpillar, a, order, tup)
    assert cover.degree == 5
    assert cover.multiplicity == 4
    assert cover.fiber_counts == (0, 1, 2, 0, 1, 0)
    assert cover.weights == (1, 2, 1, 1, 1, 2)
    data = cover.to_json()
    assert data["degree"] == 5 and data["multiplicity"] == 4


def test_reconstruct_rejects_mismatched_fibers(caterpillar):
    bad = CoverTuple(weights=(1,) * 6, sources=(1, 1, 1, 2, 3, 3), wraps=(0,) * 6)
    with pytest.raises(ValueError):
        reconstruct_cover(caterpillar, (0, 2, 2, 0, 1, 0), (1, 3, 4, 2), bad)


def test_reconstruct_rejects_a_tuple_the_search_cannot_make(k4):
    # a degree-0 edge has wrap 0, so the fiber condition holds for any
    # weight on it: weights, sources and balance are checked on their own
    with pytest.raises(ValueError, match="^edge 1: weight"):
        reconstruct_cover(
            k4, (1, 0, 1, 0, 1, 1), (1, 2, 3, 4),
            CoverTuple((1, -3, 1, 2.5, 1, 1), (1, 9, 1, "x", 2, 3), (1, 0, 1, 0, 1, 1)),
        )
    a, order = (0, 0, 2, 0, 1, 0), (1, 2, 3, 4)
    good = CoverTuple((1, 1, 2, 2, 1, 3), (1, 1, 4, 2, 4, 3), (0, 0, 1, 0, 1, 0))
    assert good in enumerate_tuples(k4, a, order)
    assert reconstruct_cover(k4, a, order, good).multiplicity == 12

    def changed(field, k, value):
        fields = {"weights": list(good.weights), "sources": list(good.sources), "wraps": list(good.wraps)}
        fields[field][k] = value
        return CoverTuple(**{name: tuple(values) for name, values in fields.items()})

    for bad, message in [
        (changed("weights", 1, -3), "edge 1: weight must be a positive integer"),
        (changed("weights", 3, 2.5), "edge 3: weight must be a positive integer"),
        (changed("weights", 3, True), "edge 3: weight must be a positive integer"),
        (changed("sources", 1, 9), "edge 1: source 9 is not an endpoint"),
        (changed("sources", 3, "x"), "edge 3: source 'x' is not an endpoint"),
        (changed("wraps", 2, 1.0), r"edge 2: fiber count 1.0 \* weight 2"),
        (changed("sources", 0, 2), "edge 0: branch degree 0 must be sourced at its earlier endpoint"),
        (changed("weights", 0, 2), "vertex 1: out-flow less in-flow is 1, not 0"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}"):
            reconstruct_cover(k4, a, order, bad)


def test_all_edges_wrap_once_when_weights_equal_degrees(caterpillar):
    # for branch types with every entry positive, picking w_k = a_k forces
    # wrap count 1 on every edge
    a = (1, 2, 1, 1, 1, 2)
    for order in ((1, 2, 3, 4), (4, 2, 3, 1)):
        for tup in enumerate_tuples(caterpillar, a, order):
            if tup.weights == a:
                assert tup.wraps == (1,) * 6


def test_fiber_condition_and_degree(caterpillar):
    a = (0, 2, 1, 0, 0, 1)
    for order in ((1, 3, 4, 2), (2, 4, 3, 1)):
        for tup in enumerate_tuples(caterpillar, a, order):
            cover = reconstruct_cover(caterpillar, a, order, tup)
            assert cover.degree == sum(a)
            assert all(
                f * w == ai for f, w, ai in zip(cover.fiber_counts, cover.weights, a)
            )
            assert tup.multiplicity >= 1


def test_balance_at_every_vertex(caterpillar):
    a = (0, 2, 1, 0, 0, 1)
    for tup in enumerate_tuples(caterpillar, a, (1, 3, 4, 2)):
        net = {v: 0 for v in range(1, 5)}
        for k, (u, v) in enumerate(caterpillar.edges):
            src = tup.sources[k]
            snk = v if src == u else u
            net[src] += tup.weights[k]
            net[snk] -= tup.weights[k]
        assert all(x == 0 for x in net.values())


def test_forced_orientation_on_degree_zero_edges(caterpillar):
    order = (3, 1, 2, 4)
    rank = {lab: i for i, lab in enumerate(order)}
    for tup in enumerate_tuples(caterpillar, (0, 0, 0, 0, 1, 1), order):
        for k, (u, v) in enumerate(caterpillar.edges):
            if (0, 0, 0, 0, 1, 1)[k] == 0:
                expected_src = u if rank[u] < rank[v] else v
                assert tup.sources[k] == expected_src


def test_oracle_equivalence_theta(theta):
    for d in range(5):
        for a in compositions(d, 3):
            for order in ((1, 2), (2, 1)):
                assert count_covers(theta, a, order) == integral_coeff(theta, a, order)


@pytest.mark.parametrize("graph_name", ["caterpillar", "k4"])
def test_oracle_equivalence_genus3(graph_name, request):
    # the central cross-check: the weighted tuple count and the Laurent
    # constant term agree for every branch type |a| <= 4 and every order
    graph = request.getfixturevalue(graph_name)
    orders = list(all_orders(graph))
    for d in range(5):
        for a in compositions(d, 6):
            for order in orders:
                assert count_covers(graph, a, order) == integral_coeff(graph, a, order)


# -- the graded, orbit-reduced oracle against per-branch-type counts -------


def reference_series(graph, d_max):
    """q-exponent -> labelled count: the sum of ``count_covers_total`` over
    every composition of every degree up to d_max, one search per branch
    type.  ``count_covers_total`` itself is checked against all n! orders in
    ``test_count_covers_total_matches_all_orders``."""
    total = {}
    for d in range(1, d_max + 1):
        s = sum(count_covers_total(graph, a) for a in compositions(d, len(graph.edges)))
        if s:
            total[2 * d] = s
    return total


def _relabelled(rng, graph):
    n = graph.vertex_count
    relabel = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
    edges = [(relabel[u], relabel[v]) for u, v in graph.edges]
    rng.shuffle(edges)
    return FeynmanGraph.from_edges(n, edges)


@pytest.mark.parametrize("genus, d_max", [(3, 4), (4, 2)])
def test_tropical_series_matches_per_type_reference(genus, d_max):
    rng = random.Random(genus)
    for graph in enumerate_genus(genus, bridgeless=True):
        want = reference_series(graph, d_max)
        series = tropical_series(graph, d_max)
        assert series.coeffs == want and series.order == 2 * d_max + 2
        assert all(type(c) is int for c in series.coeffs.values())
        for _ in range(2):
            assert tropical_series(_relabelled(rng, graph), d_max).coeffs == want


def test_tropical_series_equals_integral_series(caterpillar, k4, theta, dumbbell):
    for graph in (caterpillar, k4, theta):
        assert tropical_series(graph, 6) == i_gamma_series(graph, 6)
    assert tropical_series(dumbbell, 4).coeffs == {}


def test_count_covers_total_matches_all_orders():
    rng = random.Random(5)
    genus4 = enumerate_genus(4, bridgeless=True)
    cases = [(graph, 4) for graph in enumerate_genus(3, bridgeless=True)] + [(genus4[0], 2), (genus4[-1], 2)]
    for graph, draws in cases:
        orders = list(all_orders(graph))
        for _ in range(draws):
            a = tuple(rng.randint(0, 2) for _ in graph.edges)
            want = sum(count_covers(graph, a, order) for order in orders)
            assert count_covers_total(graph, a) == want


def test_f_g_oracles_agree():
    assert f_g(3, 6, oracle="tropical") == f_g(3, 6)
    assert f_g(4, 4, oracle="tropical") == f_g(4, 4)
    assert f_g(2, 4, oracle="sym") == f_g(2, 4)


def test_f_g_tropical_at_genus_5_agrees_with_sym():
    # the tropical oracle's largest genus, end to end: its 1,665 orders come
    # from the kernel-free order search alone
    assert f_g(5, 2, oracle="tropical") == f_g(5, 2, oracle="sym")


def test_f_g_rejects_unknown_oracle():
    with pytest.raises(ValueError, match="oracle"):
        f_g(2, 2, oracle="character")


def test_tropical_series_rejects_negative_degree(k4):
    with pytest.raises(ValueError, match="d_max"):
        tropical_series(k4, -1)
    assert tropical_series(k4, 0).coeffs == {}


def test_the_search_stops_at_the_first_tuple(caterpillar, dumbbell):
    # the search yields its tuples, so whether an order has any is one next()
    a = (0, 2, 2, 0, 1, 0)
    order = (1, 3, 4, 2)
    degree, mult, chosen = next(_search(caterpillar, order, [(x,) for x in a], sum(a)))
    first = enumerate_tuples(caterpillar, a, order)[0]
    assert degree == first.degree == 5 and mult == first.multiplicity
    assert [opt[1:] for opt in chosen] == list(zip(first.weights, first.sources, first.wraps))
    assert next(_search(dumbbell, (1, 2), [(1,), (1,), (1,)], 3), None) is None
