import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from ellcover import (
    BadCardinality,
    FeynmanGraph,
    GenusTooLarge,
    GraphError,
    HasBridge,
    MalformedGraph,
    NotConnected,
    NotTrivalent,
    automorphism_count,
    balanced_orientation,
    bridges,
    canonical_form,
    enumerate_genus,
    has_bridge,
    is_isomorphic,
    validate,
)
from ellcover import graphs
from ellcover.graphs import BalancedFlow, Orientation, _canon, _is_connected, is_balanced, vertex_automorphisms


def test_validate_genus(theta, dumbbell, caterpillar, k4):
    assert validate(caterpillar) == 3
    assert validate(theta) == 2
    assert validate(dumbbell) == 2
    assert validate(k4) == 3


def test_validate_errors():
    with pytest.raises(BadCardinality):
        validate(FeynmanGraph.from_edges(4, [[1, 2], [1, 2], [3, 4], [3, 4], [1, 3]]))
    with pytest.raises(NotTrivalent):
        validate(FeynmanGraph.from_edges(2, [[1, 1], [1, 1], [1, 2]]))
    two_thetas = FeynmanGraph.from_edges(4, [[1, 2]] * 3 + [[3, 4]] * 3)
    with pytest.raises(NotConnected):
        validate(two_thetas)
    with pytest.raises(GraphError):
        FeynmanGraph.from_edges(2, [[1, 3]])


def reference_validate(graph):
    """``validate`` with one edge scan per vertex (``FeynmanGraph.degree``):
    the reference for its one valence count."""
    n, e = graph.vertex_count, len(graph.edges)
    if n < 2 or n % 2 or 2 * e != 3 * n:
        raise BadCardinality(f"{n} vertices / {e} edges do not match 2g-2 / 3g-3 for any g >= 2")
    for v in range(1, n + 1):
        if graph.degree(v) != 3:
            raise NotTrivalent(f"vertex {v} has valence {graph.degree(v)}, expected 3")
    if not _is_connected(n, graph.edges):
        raise NotConnected("graph is not connected")
    return graph.genus


def outcome(call, graph):
    """The genus a call returns, or the type and message of its error."""
    try:
        return call(graph)
    except GraphError as exc:
        return type(exc), str(exc)


def test_validate_matches_the_per_vertex_scan_on_random_multigraphs(monkeypatch):
    # random trivalent multigraphs (paired stubs), some cut short, some with
    # one endpoint moved to another vertex or to 0, n + 1 or a negative
    # label, which no vertex 1..n counts
    rng = random.Random(23)
    samples = []
    for i in range(1500):
        n = rng.randint(0, 8)
        stubs = list(range(1, n + 1)) * 3
        rng.shuffle(stubs)
        edges = list(zip(stubs[::2], stubs[1::2]))
        if i % 5 == 0:
            edges = edges[: rng.randint(0, len(edges))]
        if edges and i % 3 == 0:
            k = rng.randrange(len(edges))
            edges[k] = (rng.choice((0, n + 1, -1, rng.randint(1, n))), edges[k][1])
        samples.append(FeynmanGraph(n, tuple(edges)))
    want = [outcome(reference_validate, graph) for graph in samples]
    assert {BadCardinality, NotTrivalent, NotConnected, 2, 3} <= {w if isinstance(w, int) else w[0] for w in want}
    # a graph with an endpoint outside 1..n fails as NotTrivalent, if its
    # cardinalities are right
    outside = [w for graph, w in zip(samples, want)
               if any(not 1 <= x <= graph.vertex_count for e in graph.edges for x in e)
               and not (isinstance(w, tuple) and w[0] is BadCardinality)]
    assert outside and all(w[0] is NotTrivalent for w in outside)
    # validate counts the valences once and never scans per vertex
    monkeypatch.setattr(FeynmanGraph, "degree", None)
    assert [outcome(validate, graph) for graph in samples] == want


def test_json_roundtrip(caterpillar):
    data = caterpillar.to_json()
    assert data == {"vertices": 4, "edges": [[1, 3], [1, 2], [1, 2], [2, 4], [3, 4], [3, 4]]}
    assert FeynmanGraph.from_json(data) == caterpillar


@pytest.mark.parametrize(
    "data, field",
    [
        ({"vertices": 2.9, "edges": [[1, 2]] * 3}, '"vertices"'),
        ({"vertices": True, "edges": []}, '"vertices"'),
        ({"vertices": "2", "edges": [[1, 2]] * 3}, '"vertices"'),
        ({"edges": [[1, 2]] * 3}, '"vertices"'),
        ({"vertices": 2}, '"edges"'),
        ({"vertices": 2, "edges": 3}, '"edges"'),
        ({"vertices": 2, "edges": [["1", 2], [1, 2], [1, 2]]}, '"edges"[0]'),
        ({"vertices": 2, "edges": [[1, 2], [1.0, 2], [1, 2]]}, '"edges"[1]'),
        ({"vertices": 2, "edges": [[1, 2], [1, 2], [1, True]]}, '"edges"[2]'),
        ({"vertices": 2, "edges": [[1, 2, 2]]}, '"edges"[0]'),
        ({"vertices": 2, "edges": [[1, 3]]}, '"edges"[0]'),
        ([2, [[1, 2]]], "object"),
        ("{not json", "parse"),
    ],
)
def test_malformed_json_names_the_field(data, field):
    with pytest.raises(MalformedGraph) as info:
        FeynmanGraph.from_json(data)
    assert isinstance(info.value, GraphError)
    assert field in str(info.value)


def test_bridges(theta, dumbbell, caterpillar):
    assert bridges(theta) == ()
    assert has_bridge(dumbbell) == (True, (1,))
    # exhaustive edge-removal confirms the 4-cycle with doubled sides is
    # 2-edge-connected
    assert has_bridge(caterpillar) == (False, ())


def test_loops_are_never_bridges():
    graph = FeynmanGraph.from_edges(2, [[1, 1], [1, 2], [2, 2]])
    assert 0 not in bridges(graph) and 2 not in bridges(graph)


def reference_bridges(graph):
    """The non-loop edges whose removal leaves the graph disconnected, by one
    connectivity walk per edge: the reference for the one-pass search."""
    edges = graph.edges
    n = graph.vertex_count
    return tuple(k for k, (u, v) in enumerate(edges) if u != v and not _is_connected(n, edges[:k] + edges[k + 1 :]))


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_one_pass_bridges_match_the_per_edge_walks(g):
    classes = enumerate_genus(g)
    assert any(bridges(graph) for graph in classes) and not all(bridges(graph) for graph in classes)
    for graph in classes:
        assert bridges(graph) == reference_bridges(graph), graph.edges


def assert_flow_exactly_when_bridgeless(graph, want):
    """``balanced_orientation`` gives a positive balanced flow when the
    reference bridges ``want`` are none, and raises HasBridge otherwise."""
    if want:
        with pytest.raises(HasBridge):
            balanced_orientation(graph)
    else:
        flow = balanced_orientation(graph)
        assert is_balanced(graph, flow) and all(w >= 1 for w in flow.weights), graph.edges


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_one_search_gives_bridges_and_flows_on_relabelled_classes(g):
    # the search walks incidences in edge order from vertex 1, so new vertex
    # labels and a new edge order give it other trees on every class
    rng = random.Random(1000 + g)
    for graph in enumerate_genus(g):
        n = graph.vertex_count
        for _ in range(5):
            label = [0] + rng.sample(range(1, n + 1), n)
            edges = [(label[u], label[v]) for u, v in graph.edges]
            rng.shuffle(edges)
            twin = FeynmanGraph.from_edges(n, edges)
            want = reference_bridges(twin)
            assert bridges(twin) == want, twin.edges
            assert_flow_exactly_when_bridgeless(twin, want)


def test_a_loop_carries_unit_flow_on_a_bridgeless_graph():
    # off the trivalent contract (valence 4), but no edge is a bridge: each
    # loop carries weight 1 and has no orientation
    graph = FeynmanGraph(2, ((1, 1), (1, 2), (1, 2), (2, 2)))
    assert bridges(graph) == ()
    flow = balanced_orientation(graph)
    assert flow.orientation.sources == (None, 1, 2, None)
    assert flow.weights == (1, 1, 1, 1)
    assert is_balanced(graph, flow)


def test_is_balanced_checks_the_flow_it_is_given(theta):
    flow = balanced_orientation(theta)
    sources, weights = flow.orientation.sources, flow.weights
    assert is_balanced(theta, BalancedFlow(Orientation(list(sources)), list(weights)))
    # a source off its edge is not counted at some other vertex
    two = FeynmanGraph(4, ((1, 2), (1, 2), (3, 4)))
    assert not is_balanced(two, BalancedFlow(Orientation((3, 1, 2)), (1, 1, 1)))
    assert not is_balanced(theta, BalancedFlow(Orientation((None,) + sources[1:]), weights))
    # every weight is a positive integer, a loop's too
    for bad in (0, -1, 1.5, True, Fraction(1), None):
        assert not is_balanced(theta, BalancedFlow(flow.orientation, (bad,) + weights[1:])), bad
    loops = FeynmanGraph(2, ((1, 1), (1, 2), (1, 2), (2, 2)))
    assert is_balanced(loops, BalancedFlow(Orientation((None, 1, 2, None)), (1, 1, 1, 1)))
    assert not is_balanced(loops, BalancedFlow(Orientation((None, 1, 2, None)), (1, 1, 1, 0)))


@pytest.mark.parametrize(
    "flow",
    [
        None,
        (Orientation((1, 1, 2)), (1, 1, 2)),
        BalancedFlow((1, 1, 2), (1, 1, 2)),
        BalancedFlow(Orientation((1, 1)), (1, 1, 2)),
        BalancedFlow(Orientation((1, 1, 2)), (1, 2)),
        BalancedFlow(Orientation((1, 1, 2)), (1, 1, 2, 1)),
        BalancedFlow(Orientation(None), (1, 1, 2)),
        BalancedFlow(Orientation((1, 1, 2)), 4),
    ],
    ids=["None", "pair", "bare sources", "short sources", "short weights", "long weights", "None sources",
         "int weights"],
)
def test_is_balanced_names_a_flow_of_the_wrong_shape(theta, flow):
    with pytest.raises(ValueError, match="^flow must be a BalancedFlow with one source and one weight per edge"):
        is_balanced(theta, flow)


def test_is_balanced_checks_the_graph():
    flow = BalancedFlow(Orientation((1, 1, 2)), (1, 1, 2))
    for graph in (None, [(1, 2)] * 3, FeynmanGraph(2, ((1, 2), (1, 2), (1, 3))), FeynmanGraph(2.0, ((1, 2),) * 3)):
        with pytest.raises(MalformedGraph):
            is_balanced(graph, flow)


def test_one_pass_bridges_match_the_per_edge_walks_on_random_multigraphs():
    # any valence, loops and parallel edges; half start from a random
    # spanning tree, the rest are often disconnected (every non-loop edge is
    # then a bridge, as removing it leaves the graph disconnected)
    rng = random.Random(71)
    seen = set()
    for i in range(600):
        n = rng.randint(1, 8)
        edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)] if i % 2 else []
        edges += [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 10))]
        rng.shuffle(edges)
        graph = FeynmanGraph.from_edges(n, edges)
        want = reference_bridges(graph)
        assert bridges(graph) == want, (n, edges)
        assert_flow_exactly_when_bridgeless(graph, want)
        connected = _is_connected(n, graph.edges)
        seen.add(("connected" if connected else "disconnected", bool(want)))
        seen.add(("loop", graph.has_loop()))
        seen.add(("parallel", len(set(graph.edges)) < len(graph.edges)))
        # a bridge doubled is no longer a bridge
        if connected and want:
            k = want[0]
            doubled = FeynmanGraph(n, graph.edges + (graph.edges[k],))
            assert k not in bridges(doubled) and bridges(doubled) == reference_bridges(doubled)
    assert seen >= {
        ("connected", True),
        ("connected", False),
        ("disconnected", True),
        ("loop", True),
        ("parallel", True),
    }


def test_automorphism_counts(theta, dumbbell, caterpillar, k4):
    assert automorphism_count(theta) == 12  # 2 vertex maps x 3! parallel edges
    assert automorphism_count(dumbbell) == 8  # 2 vertex maps x 2 loop flips each
    assert automorphism_count(caterpillar) == 16
    assert automorphism_count(k4) == 24


def test_automorphism_count_relabeling_invariant(caterpillar, dumbbell):
    rng = random.Random(3)
    for graph in (caterpillar, dumbbell):
        for _ in range(5):
            other = _relabelled(rng, graph)
            assert automorphism_count(other) == automorphism_count(graph)
            assert canonical_form(other) == canonical_form(graph)
            assert is_isomorphic(other, graph)


def _reference_maps(a, b):
    """Every vertex bijection ``img`` (``img[0]`` is 0) carrying a's
    multiplicity matrix onto b's, by a scan of all n! permutations."""
    n = a.vertex_count
    ma, mb = a.multiplicity_matrix(), b.multiplicity_matrix()
    for perm in itertools.permutations(range(1, n + 1)):
        img = (0,) + perm
        if all(mb[img[u]][img[v]] == ma[u][v] for u in range(1, n + 1) for v in range(u, n + 1)):
            yield img


def _reference_isomorphic(a, b):
    return a.vertex_count == b.vertex_count and any(True for _ in _reference_maps(a, b))


def _relabelled(rng, graph):
    n = graph.vertex_count
    relabel = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
    edges = [(relabel[u], relabel[v]) for u, v in graph.edges]
    rng.shuffle(edges)
    return FeynmanGraph.from_edges(n, edges)


def _random_genus5_graphs(rng, count):
    out = []
    while len(out) < count:
        points = list(range(24))
        rng.shuffle(points)
        G = _pairing_to_graph(8, [(points[2 * i], points[2 * i + 1]) for i in range(12)])
        if _is_connected(8, G.edges):
            out.append(_relabelled(rng, G))
    return out


@pytest.fixture(scope="module")
def search_test_graphs():
    """Every class of genus <= 4, seeded random genus-5 pairings, and a
    relabelled twin of each."""
    rng = random.Random(5)
    graphs = [G for g in (2, 3, 4) for G in enumerate_genus(g)] + _random_genus5_graphs(rng, 10)
    return [(G, _relabelled(rng, G)) for G in graphs]


def test_automorphisms_match_reference_scan(search_test_graphs):
    for graph, twin in search_test_graphs:
        for G in (graph, twin):
            found = vertex_automorphisms(G)
            assert found[0] == tuple(range(G.vertex_count + 1))
            assert len(set(found)) == len(found)
            assert set(found) == set(_reference_maps(G, G)), G.edges


def test_canonical_form_decides_isomorphism_like_reference_scan(search_test_graphs):
    for i, (graph, twin) in enumerate(search_test_graphs):
        assert canonical_form(graph) == canonical_form(twin)
        assert _reference_isomorphic(graph, twin)
        # the next graph of the same vertex count: another class, or for
        # random genus-5 pairings possibly the same one
        other = search_test_graphs[(i + 1) % len(search_test_graphs)][1]
        if other.vertex_count == graph.vertex_count:
            same = canonical_form(graph) == canonical_form(other)
            assert same == _reference_isomorphic(graph, other) == is_isomorphic(graph, other)


def test_enumerate_genus_2():
    found = enumerate_genus(2)
    assert [g.edges for g in found] == [
        ((1, 1), (1, 2), (2, 2)),  # dumbbell
        ((1, 2), (1, 2), (1, 2)),  # theta
    ]
    assert enumerate_genus(2, bridgeless=True)[0].edges == ((1, 2), (1, 2), (1, 2))


def test_enumerate_genus_3(caterpillar, k4):
    found = enumerate_genus(3)
    assert len(found) == 5
    assert sorted(automorphism_count(g) for g in found) == [8, 16, 16, 24, 48]
    bridgeless = enumerate_genus(3, bridgeless=True)
    assert len(bridgeless) == 2
    forms = {canonical_form(g) for g in bridgeless}
    assert forms == {canonical_form(caterpillar), canonical_form(k4)}


def test_enumerate_validates_and_dedupes():
    # class counts 2, 5, 17, 71 are certified by the mass formula below
    expected_classes = {2: 2, 3: 5, 4: 17, 5: 71}
    for g in (2, 3, 4, 5):
        found = enumerate_genus(g)
        assert len(found) == expected_classes[g]
        forms = [canonical_form(G) for G in found]
        assert len(set(forms)) == len(found)
        for G in found:
            assert validate(G) == g
            assert G.edges == canonical_form(G)


def test_enumerate_genus_6_matches_oeis():
    # OEIS A005967: 388 connected trivalent multigraphs with loops on 10
    # vertices; the mass formula certifies the count independently
    found = enumerate_genus(6, max_genus=6)
    assert len(found) == 388
    assert len({G.edges for G in found}) == 388
    mass = sum(Fraction(factorial(10) * 6**10, automorphism_count(G)) for G in found)
    assert mass == _connected_pairing_count(10)


def test_genus_bounds():
    with pytest.raises(GenusTooLarge):
        enumerate_genus(6)
    with pytest.raises(BadCardinality):
        enumerate_genus(1)


@pytest.mark.parametrize("g", [3.0, "3", True, None])
def test_enumerate_genus_takes_an_integer_genus(g):
    with pytest.raises(ValueError, match="^g must be an integer, got "):
        enumerate_genus(g)


@pytest.mark.parametrize("max_genus", ["5", None, 5.5, 5.0, True])
def test_enumerate_genus_takes_an_integer_bound(max_genus):
    with pytest.raises(ValueError, match="^max_genus must be an integer, got "):
        enumerate_genus(3, max_genus=max_genus)


@pytest.mark.parametrize("bridgeless", ["no", "", 1, 0, None, 1.0])
@pytest.mark.parametrize("enumerate_", [enumerate_genus, graphs._classes])
def test_enumeration_takes_a_bool_bridgeless_flag(enumerate_, bridgeless):
    # the flag picks the start graphs and the moves, so a truthy string must
    # not pass for True
    with pytest.raises(ValueError, match="^bridgeless must be a bool, got "):
        enumerate_(3, bridgeless=bridgeless)


@pytest.mark.parametrize(
    "call",
    [canonical_form, automorphism_count, vertex_automorphisms, lambda G: is_isomorphic(G, G)],
    ids=["canonical_form", "automorphism_count", "vertex_automorphisms", "is_isomorphic"],
)
@pytest.mark.parametrize(
    "graph",
    [
        FeynmanGraph(0, ()),
        FeynmanGraph(2, ((1, 5),)),
        FeynmanGraph(2, ((1, 2), (1, 2), (2, 2))),
        FeynmanGraph(4, ((1, 2),) * 3 + ((3, 4),) * 3),
    ],
    ids=["empty", "vertex-out-of-range", "not-trivalent", "disconnected"],
)
def test_graph_search_entry_points_validate(call, graph):
    with pytest.raises(GraphError):
        call(graph)


def test_is_isomorphic_validates_both_sides(theta):
    with pytest.raises(BadCardinality):
        is_isomorphic(theta, FeynmanGraph(2, ((1, 5),)))
    with pytest.raises(BadCardinality):
        is_isomorphic(FeynmanGraph(2, ((1, 5),)), theta)


def _reference_extensions(n, edges):
    """Every genus-raising move of the trivalent graph on n vertices, with no
    reduction by automorphisms or parallel edges."""
    a, b = n + 1, n + 2
    for i, (u, v) in enumerate(edges):
        rest = edges[:i] + edges[i + 1 :]
        yield rest + ((u, a), (v, a), (a, b), (b, b))
        yield rest + ((u, a), (a, b), (a, b), (v, b))
        for j in range(i + 1, len(edges)):
            x, y = edges[j]
            yield rest[: j - 1] + rest[j:] + ((u, a), (v, a), (x, b), (y, b), (a, b))


def _reference_enumerate(g):
    forms = [((1, 1), (1, 2), (2, 2)), ((1, 2), (1, 2), (1, 2))]
    for n in range(2, 2 * g - 2, 2):
        forms = sorted(
            {canonical_form(FeynmanGraph(n + 2, edges)) for form in forms for edges in _reference_extensions(n, form)}
        )
    return [FeynmanGraph(2 * g - 2, form) for form in forms]


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_one_move_per_orbit_gives_the_full_move_classes(g):
    assert enumerate_genus(g) == _reference_enumerate(g)


def test_enumeration_keeps_the_automorphisms_of_each_form(monkeypatch):
    # every candidate of genus 3 and 4 goes through _canon once; the maps it
    # returns act on FeynmanGraph(n, form), not on the candidate
    seen = {}

    def recording(graph):
        form, maps, first = _canon(graph)
        seen.setdefault(form, []).append(maps)
        return form, maps, first

    monkeypatch.setattr(graphs, "_canon", recording)
    enumerate_genus(4)
    monkeypatch.undo()
    assert {form for form in seen if len(form) == 6} == {G.edges for G in enumerate_genus(3)}
    assert {form for form in seen if len(form) == 9} == {G.edges for G in enumerate_genus(4)}
    for form, found in seen.items():
        F = FeynmanGraph(2 * len(form) // 3, form)
        want = set(_reference_maps(F, F))
        for maps in found:
            assert maps[0] == tuple(range(F.vertex_count + 1))
            assert len(maps) == len(set(maps)) and set(maps) == want, form
    for G in enumerate_genus(2):
        assert _canon(G)[1] == [(0, 1, 2), (0, 2, 1)]


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_classes_carry_their_automorphisms(g):
    # f_g reads the orbits' automorphisms and |Aut| off these, with no search
    classes = graphs._classes(g)
    assert [graph for graph, _ in classes] == enumerate_genus(g)
    assert [graph for graph, _ in graphs._classes(g, bridgeless=True)] == enumerate_genus(g, bridgeless=True)
    for graph, maps in classes:
        assert maps[0] == tuple(range(graph.vertex_count + 1))
        assert len(set(maps)) == len(maps) and set(maps) == set(vertex_automorphisms(graph))
        assert len(maps) * graphs._edge_symmetry(graph) == automorphism_count(graph)


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_bridgeless_classes_grow_from_bridgeless_parents(monkeypatch, g):
    # growing from the theta graph by the (a) moves alone finds the bridged
    # enumeration's bridgeless classes, in its order with its automorphism
    # sets, and searches no graph with a bridge
    searched = []

    def recording(graph):
        searched.append(graph)
        return _canon(graph)

    monkeypatch.setattr(graphs, "_canon", recording)
    found = graphs._classes(g, bridgeless=True, max_genus=6)
    monkeypatch.undo()
    assert bool(searched) == (g > 2) and not any(bridges(G) for G in searched)
    want = [(G, maps) for G, maps in graphs._classes(g, max_genus=6) if not bridges(G)]
    assert [G for G, _ in found] == [G for G, _ in want]
    for (_, maps), (_, want_maps) in zip(found, want):
        assert maps[0] == want_maps[0] and len(maps) == len(set(maps)) and set(maps) == set(want_maps)


@pytest.mark.parametrize(
    "g, bridgeless, searches",
    [
        pytest.param(4, False, 58, id="4-58"),
        pytest.param(5, False, 396, id="5-396"),
        pytest.param(4, True, 11, id="4-bridgeless-11"),
        pytest.param(5, True, 57, id="5-bridgeless-57"),
    ],
)
def test_enumeration_searches_once_per_orbit_of_moves(monkeypatch, g, bridgeless, searches):
    # the full move set costs 153 and 1,071 searches, plus one more per class
    # for its automorphisms; the bridgeless classes need only the (a) moves
    # on bridgeless parents
    calls = []
    search = graphs._search

    def counting(graph):
        calls.append(graph)
        return search(graph)

    monkeypatch.setattr(graphs, "_search", counting)
    enumerate_genus(g, bridgeless=bridgeless)
    assert len(calls) == searches


def _pairing_to_graph(n, matching):
    """Half-edge h belongs to vertex h // 3 (0-based); a perfect matching of
    the 3n half-edges therefore yields a trivalent multigraph."""
    edges = tuple(sorted((min(a // 3, b // 3) + 1, max(a // 3, b // 3) + 1) for a, b in matching))
    return FeynmanGraph(n, edges)


def _all_pairings(points):
    if not points:
        yield []
        return
    first = points[0]
    for i in range(1, len(points)):
        rest = points[1:i] + points[i + 1 :]
        for sub in _all_pairings(rest):
            yield [(first, points[i])] + sub


def _connected_pairing_count(n):
    """Number of perfect matchings of 3n half-edges giving a connected graph,
    by inclusion-exclusion over the component containing the first vertex."""

    def double_factorial(m):
        r = 1
        while m > 1:
            r *= m
            m -= 2
        return r

    all_counts = {k: double_factorial(3 * k - 1) for k in range(0, n + 1, 2)}
    connected = {}
    for k in range(2, n + 1, 2):
        total = all_counts[k]
        for j in range(2, k, 2):
            total -= comb(k - 1, j - 1) * connected[j] * all_counts[k - j]
        connected[k] = total
    return connected[n]


@pytest.mark.parametrize("g", [2, 3])
def test_exhaustive_pairings_map_onto_enumeration(g):
    n = 2 * g - 2
    enumerated = {canonical_form(G) for G in enumerate_genus(g)}
    seen = set()
    connected = 0
    for matching in _all_pairings(list(range(3 * n))):
        G = _pairing_to_graph(n, matching)
        if not _is_connected(n, G.edges):
            continue
        connected += 1
        form = canonical_form(G)
        assert form in enumerated
        seen.add(form)
    assert seen == enumerated
    assert connected == _connected_pairing_count(n)


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_mass_formula(g):
    # each isomorphism class accounts for n! 6^n / |Aut| labelled half-edge
    # pairings, so the automorphism-weighted class count must reproduce the
    # number of connected pairings exactly
    n = 2 * g - 2
    mass = sum(
        Fraction(factorial(n) * 6**n, automorphism_count(G)) for G in enumerate_genus(g)
    )
    assert mass == _connected_pairing_count(n)


def test_random_genus4_pairings_hit_enumerated_classes():
    rng = random.Random(11)
    enumerated = {canonical_form(G) for G in enumerate_genus(4)}
    hits = 0
    for _ in range(60):
        points = list(range(18))
        rng.shuffle(points)
        matching = [(points[2 * i], points[2 * i + 1]) for i in range(9)]
        G = _pairing_to_graph(6, matching)
        if _is_connected(6, G.edges):
            hits += 1
            assert canonical_form(G) in enumerated
    assert hits > 0


@pytest.mark.parametrize("g", [2, 3, 4])
def test_loop_bearing_trivalent_graphs_have_bridges(g):
    for G in enumerate_genus(g):
        if G.has_loop():
            assert bridges(G), G.edges


@pytest.mark.parametrize("g", [2, 3, 4])
def test_balanced_orientation_exactly_on_bridgeless(g):
    for G in enumerate_genus(g):
        if bridges(G):
            with pytest.raises(HasBridge):
                balanced_orientation(G)
        else:
            flow = balanced_orientation(G)
            assert is_balanced(G, flow)
            assert all(w >= 1 for w in flow.weights)


def test_theta_balanced_flow(theta):
    flow = balanced_orientation(theta)
    assert sorted(flow.weights) == [1, 1, 2]
    assert is_balanced(theta, flow)
    # the doubled edge runs against the two unit edges
    heavy = flow.weights.index(2)
    for k in range(3):
        if k != heavy:
            assert flow.orientation.source(k) != flow.orientation.source(heavy)


def test_dumbbell_has_no_balanced_flow(dumbbell):
    with pytest.raises(HasBridge):
        balanced_orientation(dumbbell)


def test_caterpillar_balanced_flow(caterpillar):
    flow = balanced_orientation(caterpillar)
    assert is_balanced(caterpillar, flow)
