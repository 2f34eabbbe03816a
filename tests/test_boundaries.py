"""Library entry points at their boundaries: malformed arguments raise
structured errors (``MalformedGraph`` for anything that is not a graph, a
``ValueError`` naming the argument otherwise), and a call leaves no cyclic
garbage behind, so nothing it built waits for the cycle collector."""

import gc
import re

import pytest

import ellcover as E
import reference
from ellcover import graphs, integrals, propagator, quasimodular

K4_EDGES = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
K4 = E.FeynmanGraph.from_edges(4, K4_EDGES)
A = (1, 0, 1, 0, 1, 1)
ORDER = (1, 2, 3, 4)
K4_FLOW = graphs.BalancedFlow(graphs.Orientation((1, 1, 1, 2, 2, 3)), (1, 1, 1, 1, 1, 1))


def orientation_orbits(graph):
    """The orbit representatives of acyclic orientations, as the search
    keeps them under the automorphisms that ``_group`` gives."""
    return integrals._order_search(graph, integrals._group(graph))


# every entry point that takes a graph, called with fixed K4-sized arguments
GRAPH_ENTRY_POINTS = {
    "validate": lambda g: E.validate(g),
    "bridges": lambda g: E.bridges(g),
    "has_bridge": lambda g: E.has_bridge(g),
    "canonical_form": lambda g: E.canonical_form(g),
    "is_isomorphic(g, k4)": lambda g: E.is_isomorphic(g, K4),
    "is_isomorphic(k4, g)": lambda g: E.is_isomorphic(K4, g),
    "automorphism_count": lambda g: E.automorphism_count(g),
    "vertex_automorphisms": lambda g: graphs.vertex_automorphisms(g),
    "balanced_orientation": lambda g: E.balanced_orientation(g),
    "is_balanced": lambda g: graphs.is_balanced(g, K4_FLOW),
    # the orbit listings left the package: the orientation orbits come from
    # the order search, and the n!-order reference of the tests reaches
    # the graph only through vertex_automorphisms
    "orientation_orbits": orientation_orbits,
    "order_orbits": lambda g: reference.order_orbits(g),
    "i_gamma_series": lambda g: E.i_gamma_series(g, 2),
    "gromov_witten_d": lambda g: E.gromov_witten_d(g, 2),
    "gromov_witten_a": lambda g: E.gromov_witten_a(g, A),
    "generating_function": lambda g: E.generating_function(g, 1),
    "integral_coeff": lambda g: E.integral_coeff(g, A, ORDER),
    "i_gamma_coeffs_for_order": lambda g: integrals.i_gamma_coeffs_for_order(g, ORDER, 2),
    "tropical_series": lambda g: E.tropical_series(g, 2),
    "count_covers": lambda g: E.count_covers(g, A, ORDER),
    "count_covers_total": lambda g: E.count_covers_total(g, A),
    "enumerate_tuples": lambda g: E.enumerate_tuples(g, A, ORDER),
    "reconstruct_cover": lambda g: E.reconstruct_cover(g, A, ORDER, E.CoverTuple(A, A, A)),
}

NOT_GRAPHS = {
    "None": None,
    "4.0": 4.0,
    "str": "k4",
    "edge list": [list(e) for e in K4_EDGES],
    "float count": E.FeynmanGraph(4.0, K4_EDGES),
    "None count": E.FeynmanGraph(None, K4_EDGES),
    "None edges": E.FeynmanGraph(4, None),
    "None edge": E.FeynmanGraph(4, K4_EDGES[:5] + (None,)),
    "float vertex": E.FeynmanGraph(4, K4_EDGES[:5] + ((3, 4.0),)),
}


@pytest.mark.parametrize("call", GRAPH_ENTRY_POINTS.values(), ids=list(GRAPH_ENTRY_POINTS))
@pytest.mark.parametrize("bad", NOT_GRAPHS.values(), ids=list(NOT_GRAPHS))
def test_a_non_graph_raises_malformed_graph(call, bad):
    with pytest.raises(E.MalformedGraph):
        call(bad)


# (call, the argument its ValueError must name)
BAD_ARGUMENTS = {
    "gromov_witten_a(k4, None)": (lambda: E.gromov_witten_a(K4, None), "branch type"),
    "gromov_witten_a(k4, 5)": (lambda: E.gromov_witten_a(K4, 5), "branch type"),
    "integral_coeff(k4, None, order)": (lambda: E.integral_coeff(K4, None, ORDER), "branch type"),
    "integral_coeff(k4, a, None)": (lambda: E.integral_coeff(K4, A, None), "order"),
    "integral_coeff(k4, a, 5)": (lambda: E.integral_coeff(K4, A, 5), "order"),
    "i_gamma_coeffs_for_order(k4, None, 2)": (
        lambda: integrals.i_gamma_coeffs_for_order(K4, None, 2),
        "order",
    ),
    "count_covers(k4, a, None)": (lambda: E.count_covers(K4, A, None), "order"),
    "count_covers_total(k4, None)": (lambda: E.count_covers_total(K4, None), "branch type"),
    "enumerate_tuples(k4, None, order)": (lambda: E.enumerate_tuples(K4, None, ORDER), "branch type"),
    "reconstruct_cover(k4, a, order, None)": (lambda: E.reconstruct_cover(K4, A, ORDER, None), "tup"),
    "reconstruct_cover(k4, a, order, short tup)": (
        lambda: E.reconstruct_cover(K4, (1, 0, 0, 0, 0, 0), ORDER, E.CoverTuple((1,), (1,), (1,))),
        "tup",
    ),
    "reconstruct_cover(k4, a, order, long wraps)": (
        lambda: E.reconstruct_cover(K4, A, ORDER, E.CoverTuple(A, A, A + (0,))),
        "tup",
    ),
    "compositions(None, 2)": (lambda: E.compositions(None, 2), "d"),
    "compositions(2, None)": (lambda: E.compositions(2, None), "parts"),
    "compositions(2, -1)": (lambda: E.compositions(2, -1), "parts"),
    "fit(None, 3)": (lambda: E.fit(None, 3), "series"),
    "fit({}, 3)": (lambda: E.fit({}, 3), "series"),
    "eval_rep(None, 4)": (lambda: E.eval_rep(None, 4), "rep"),
    "eisenstein(2, None)": (lambda: E.eisenstein(2, None), "order"),
    "eisenstein(2, -3)": (lambda: E.eisenstein(2, -3), "order"),
    "eval_rep(rep, -2)": (lambda: E.eval_rep(E.QuasimodularRep(2, {(1, 0, 0): 1}), -2), "order"),
    "QSeries({0: 1}, 1.5)": (lambda: E.QSeries({0: 1}, 1.5), "order"),
    "QSeries({}, 'a')": (lambda: E.QSeries({}, "a"), "order"),
    "QSeries({}, -1)": (lambda: E.QSeries({}, -1), "order"),
    "QSeries.zero(True)": (lambda: E.QSeries.zero(True), "order"),
    "truncate(-1)": (lambda: E.QSeries({0: 1}, 4).truncate(-1), "order"),
    "truncate(2.0)": (lambda: E.QSeries({0: 1}, 4).truncate(2.0), "order"),
    "QSeries({1.5: 1}, 4)": (lambda: E.QSeries({1.5: 1}, 4), "exponent"),
    "QSeries({'a': 1}, 4)": (lambda: E.QSeries({"a": 1}, 4), "exponent"),
    "QSeries([], 4)": (lambda: E.QSeries([], 4), "coeffs"),
    "QSeries ** 1.5": (lambda: E.QSeries({0: 1}, 4) ** 1.5, "exponent"),
    "QSeries.coeff(-1)": (lambda: E.QSeries({0: 1}, 4).coeff(-1), "exponent"),
    "QSeries.coeff(1.5)": (lambda: E.QSeries({0: 1}, 4).coeff(1.5), "exponent"),
    "QSeries.coeff('a')": (lambda: E.QSeries({0: 1}, 4).coeff("a"), "exponent"),
    "MultiSeries.coeff('ab')": (lambda: E.MultiSeries(2, {(1, 0): 3}).coeff("ab"), "branch type"),
    "MultiSeries.coeff((1.5,))": (lambda: E.MultiSeries(2, {(1, 0): 3}).coeff((1.5,)), "branch type"),
    "MultiSeries.coeff(5)": (lambda: E.MultiSeries(2, {(1, 0): 3}).coeff(5), "branch type"),
    "MultiSeries(True, {})": (lambda: E.MultiSeries(True, {}), "arity"),
    "MultiSeries(1.5, {})": (lambda: E.MultiSeries(1.5, {}), "arity"),
    "MultiSeries(-1, {})": (lambda: E.MultiSeries(-1, {}), "arity"),
    "MultiSeries(2, [])": (lambda: E.MultiSeries(2, []), "coeffs"),
    "MultiSeries(2, {(1.5, 0): 1})": (lambda: E.MultiSeries(2, {(1.5, 0): 1}), "branch type"),
    "MultiSeries(2, {(1, 2, 3): 1})": (lambda: E.MultiSeries(2, {(1, 2, 3): 1}), "branch type"),
    "MultiSeries(2, {(1, -1): 1})": (lambda: E.MultiSeries(2, {(1, -1): 1}), "branch type"),
    "MultiSeries(2, {1: 1})": (lambda: E.MultiSeries(2, {1: 1}), "branch type"),
    "QuasimodularRep('a')": (lambda: E.QuasimodularRep("a"), "weight"),
    "QuasimodularRep(4.0)": (lambda: E.QuasimodularRep(4.0), "weight"),
    "QuasimodularRep(4, [])": (lambda: E.QuasimodularRep(4, []), "coeffs"),
    "QuasimodularRep(4, {(-1, 0, 1): 1})": (lambda: E.QuasimodularRep(4, {(-1, 0, 1): 1}), "monomial"),
    "QuasimodularRep(4, {(0.5, 0.75, 0): 1})": (lambda: E.QuasimodularRep(4, {(0.5, 0.75, 0): 1}), "monomial"),
    "QuasimodularRep.coeff('ab')": (lambda: E.QuasimodularRep(2, {(1, 0, 0): 1}).coeff("ab"), "monomial"),
    "QuasimodularRep.coeff((1.5, 0, 0))": (lambda: E.QuasimodularRep(2, {(1, 0, 0): 1}).coeff((1.5, 0, 0)), "monomial"),
    "QuasimodularRep.coeff((1, 0))": (lambda: E.QuasimodularRep(2, {(1, 0, 0): 1}).coeff((1, 0)), "monomial"),
    "QuasimodularRep.coeff((-1, 0, 0))": (lambda: E.QuasimodularRep(2, {(1, 0, 0): 1}).coeff((-1, 0, 0)), "monomial"),
    "eisenstein(2.0, 4)": (lambda: E.eisenstein(2.0, 4), "weight"),
    "eisenstein(3, 4)": (lambda: E.eisenstein(3, 4), "weight"),
    "LaurentPoly(1.5)": (lambda: E.LaurentPoly(1.5), "arity"),
    "LaurentPoly(True)": (lambda: E.LaurentPoly(True), "arity"),
    "LaurentPoly('a')": (lambda: E.LaurentPoly("a"), "arity"),
    "LaurentPoly(-1)": (lambda: E.LaurentPoly(-1), "arity"),
    "LaurentPoly(2, 'x')": (lambda: E.LaurentPoly(2, "x"), "terms"),
    "LaurentPoly(2, {(1.5, 1): 1})": (lambda: E.LaurentPoly(2, {(1.5, 1): 1}), "exponent vector"),
    "LaurentPoly(2, {1: 1})": (lambda: E.LaurentPoly(2, {1: 1}), "exponent vector"),
    "LaurentPoly(2, {(1,): 1})": (lambda: E.LaurentPoly(2, {(1,): 1}), "exponent vector"),
    "LaurentPoly.coeff('ab')": (lambda: E.LaurentPoly(2, {(1, -1): 3}).coeff("ab"), "exponent vector"),
    "LaurentPoly.coeff((1.5, -1))": (lambda: E.LaurentPoly(2, {(1, -1): 3}).coeff((1.5, -1)), "exponent vector"),
    "LaurentPoly.coeff((1,))": (lambda: E.LaurentPoly(2, {(1, -1): 3}).coeff((1,)), "exponent vector"),
    "coeff_in(5, 0)": (lambda: E.LaurentPoly(2, {(1, -1): 3}).coeff_in(5, 0), "var"),
    "coeff_in(-1, 0)": (lambda: E.LaurentPoly(2, {(1, -1): 3}).coeff_in(-1, 0), "var"),
    "coeff_in('a', 0)": (lambda: E.LaurentPoly(2, {(1, -1): 3}).coeff_in("a", 0), "var"),
    "coeff_in(0, 1.5)": (lambda: E.LaurentPoly(2, {(1, -1): 3}).coeff_in(0, 1.5), "exponent"),
    "support_in(2)": (lambda: E.LaurentPoly(2, {(1, -1): 3}).support_in(2), "var"),
    "LaurentPoly.variable(2, -1)": (lambda: E.LaurentPoly.variable(2, -1), "var"),
    "LaurentPoly.variable(2, 2)": (lambda: E.LaurentPoly.variable(2, 2), "var"),
    "LaurentPoly ** True": (lambda: E.LaurentPoly.one(2) ** True, "exponent"),
    "LaurentPoly ** -1": (lambda: E.LaurentPoly.one(2) ** -1, "exponent"),
    "weight_monomials(None)": (lambda: E.weight_monomials(None), "weight"),
    "verify_tuple(None, alpha, sigma)": (lambda: E.verify_tuple(None, (0, 1), (0, 1)), "taus"),
    "verify_tuple([None], alpha, sigma)": (lambda: E.verify_tuple([None], (0, 1), (0, 1)), "taus"),
    "verify_tuple(taus, None, sigma)": (lambda: E.verify_tuple([(1, 0)], None, (0, 1)), "alpha"),
    "verify_tuple(taus, alpha, (0, 0))": (lambda: E.verify_tuple([(1, 0)], (0, 1), (0, 0)), "sigma"),
    "verify_tuple(taus, (0, 1, 2), sigma)": (lambda: E.verify_tuple([(1, 0)], (0, 1, 2), (0, 1)), "alpha"),
    "edge_factor(None, ...)": (lambda: E.edge_factor(None, 0, (1, 2), 1, (1, 2), 1), "arity"),
    "edge_factor(2, 0, None, ...)": (lambda: E.edge_factor(2, 0, None, 1, (1, 2), 1), "endpoints"),
    "edge_factor(2, 0, (1, 3), ...)": (lambda: E.edge_factor(2, 0, (1, 3), 1, (1, 2), 1), "endpoints"),
    "edge_factor(..., a_k=None, ...)": (lambda: E.edge_factor(2, 0, (1, 2), None, (1, 2), 1), "a_k"),
    "edge_factor(..., order=None, ...)": (lambda: E.edge_factor(2, 0, (1, 2), 0, None, 1), "order"),
    "edge_factor(..., w_max=None)": (lambda: E.edge_factor(2, 0, (1, 2), 0, (1, 2), None), "w_max"),
    "edge_factor(2, 'x', ...)": (lambda: E.edge_factor(2, "x", (1, 2), 1, (1, 2), 1), "edge_index"),
    "edge_factor(2, -1, ...)": (lambda: E.edge_factor(2, -1, (1, 2), 1, (1, 2), 1), "edge_index"),
    "edge_factor(2, True, ...)": (lambda: E.edge_factor(2, True, (1, 2), 1, (1, 2), 1), "edge_index"),
    "edge_factor(..., a_k=1, ..., w_max=0)": (lambda: E.edge_factor(2, 0, (1, 2), 1, (1, 2), 0), "w_max"),
    "edge_factor(..., a_k=1, ..., w_max=-1)": (lambda: E.edge_factor(2, 0, (1, 2), 1, (1, 2), -1), "w_max"),
    "edge_factor(..., a_k=0, ..., w_max=0)": (lambda: E.edge_factor(2, 0, (1, 2), 0, (1, 2), 0), "w_max"),
    "divisors(2.5)": (lambda: propagator.divisors(2.5), "n"),
    "divisors(0)": (lambda: propagator.divisors(0), "n"),
    "divisor_sigma(2.0)": (lambda: quasimodular.divisor_sigma(2.0), "n"),
    "divisor_sigma(True)": (lambda: quasimodular.divisor_sigma(True), "n"),
    "divisor_sigma(0)": (lambda: quasimodular.divisor_sigma(0), "n"),
    "divisor_sigma(4, -1)": (lambda: quasimodular.divisor_sigma(4, -1), "power"),
    "divisor_sigma(4, 1.0)": (lambda: quasimodular.divisor_sigma(4, 1.0), "power"),
    "QSeries.same_coefficients(None)": (lambda: E.QSeries({0: 1}, 4).same_coefficients(None), "other"),
    "QSeries.same_coefficients({0: 1})": (lambda: E.QSeries({0: 1}, 4).same_coefficients({0: 1}), "other"),
    "propagator_coeff(None, 1, 1, 1)": (lambda: E.propagator_coeff(None, 1, 1, 1), "arity"),
    "propagator_coeff(2, 0, 2, 1)": (lambda: E.propagator_coeff(2, 0, 2, 1), "y"),
    "propagator_coeff(2, 0, 1, None)": (lambda: E.propagator_coeff(2, 0, 1, None), "d"),
    "expand_zero_term(None, 1, 2, 1)": (lambda: E.expand_zero_term(None, 1, 2, 1), "arity"),
    "expand_zero_term(2, -1, 1, 1)": (lambda: E.expand_zero_term(2, -1, 1, 1), "source"),
    "expand_zero_term(2, 0, 1, None)": (lambda: E.expand_zero_term(2, 0, 1, None), "w_max"),
    "is_balanced(k4, None)": (lambda: graphs.is_balanced(K4, None), "flow"),
    "is_balanced(k4, short flow)": (
        lambda: graphs.is_balanced(K4, graphs.BalancedFlow(K4_FLOW.orientation, (1,) * 5)),
        "flow",
    ),
}


@pytest.mark.parametrize("call, name", BAD_ARGUMENTS.values(), ids=list(BAD_ARGUMENTS))
def test_a_malformed_argument_raises_a_value_error_naming_it(call, name):
    with pytest.raises(ValueError, match=f"^{name} (entry )?must be "):
        call()


# an operand that is not a series: the operator gives way, so Python raises
# TypeError
SERIES_OPERANDS = {
    "QSeries * 3": lambda q: q * 3,
    "QSeries + 1": lambda q: q + 1,
    "QSeries - 1": lambda q: q - 1,
    "QSeries * LaurentPoly": lambda q: q * E.LaurentPoly.one(1),
}


@pytest.mark.parametrize("call", SERIES_OPERANDS.values(), ids=list(SERIES_OPERANDS))
def test_a_series_operator_gives_way_to_an_operand_that_is_not_a_series(call):
    with pytest.raises(TypeError, match="unsupported operand"):
        call(E.QSeries({0: 1, 2: 3}, 4))


def value_classes():
    from ellcover._frozen import Frozen

    return sorted(Frozen.__subclasses__(), key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", value_classes(), ids=lambda cls: cls.__name__)
def test_a_record_built_with_the_wrong_fields_raises_type_error(cls):
    fields = cls.__slots__
    with pytest.raises(TypeError):
        cls(*range(len(fields) + 1))
    if "__init__" in vars(cls):
        return  # a normalising record's own signature says the rest
    listed = re.escape(f"{cls.__name__} takes the fields ({', '.join(fields)})")
    for call in (
        lambda: cls(*range(len(fields) + 1)),
        lambda: cls(*range(len(fields) - 1)),
        lambda: cls(*range(len(fields)), unknown=1),
        lambda: cls(*range(len(fields)), **{fields[-1]: 0}),
    ):
        with pytest.raises(TypeError, match=f"^{listed}, "):
            call()


# a loop's factor is singular, so every factor builder refuses it at every
# degree, after the argument checks
LOOPS = {
    "propagator_coeff(2, 0, 0, 0)": lambda: E.propagator_coeff(2, 0, 0, 0),
    "propagator_coeff(2, 0, 0, 1)": lambda: E.propagator_coeff(2, 0, 0, 1),
    "propagator_coeff(2, 1, 1, 4)": lambda: E.propagator_coeff(2, 1, 1, 4),
    "expand_zero_term(2, 0, 0, 1)": lambda: E.expand_zero_term(2, 0, 0, 1),
    "edge_factor(2, 0, (1, 1), 0, ...)": lambda: E.edge_factor(2, 0, (1, 1), 0, (1, 2), 1),
    "edge_factor(2, 0, (2, 2), 3, ...)": lambda: E.edge_factor(2, 0, (2, 2), 3, (1, 2), 1),
}


@pytest.mark.parametrize("call", LOOPS.values(), ids=list(LOOPS))
def test_a_loop_raises_loop_edge_at_every_degree(call):
    with pytest.raises(E.LoopEdge):
        call()


# FeynmanGraph's constructor checks types only; from_edges and the
# depth-first search check the endpoints (validate rejects such a graph as
# NotTrivalent, since no vertex 1..n counts the outside endpoint)
OUTSIDE = {
    "(1, 5)": E.FeynmanGraph(2, ((1, 5), (1, 2), (1, 2))),
    "(0, 1)": E.FeynmanGraph(2, ((0, 1), (1, 2), (1, 2))),
}


@pytest.mark.parametrize("call", [E.bridges, E.has_bridge, E.balanced_orientation], ids=lambda f: f.__name__)
@pytest.mark.parametrize("graph", OUTSIDE.values(), ids=list(OUTSIDE))
def test_an_endpoint_outside_the_vertices_raises_malformed_graph_naming_the_edge(call, graph):
    with pytest.raises(E.MalformedGraph, match=r'^"edges"\[0\] = .* references a vertex outside 1\.\.2$'):
        call(graph)


@pytest.mark.parametrize("graph", OUTSIDE.values(), ids=list(OUTSIDE))
def test_validate_rejects_an_endpoint_outside_the_vertices_as_not_trivalent(graph):
    with pytest.raises(E.NotTrivalent, match="^vertex 2 has valence 2, expected 3$"):
        E.validate(graph)


ENTRY_POINTS = {
    "validate": lambda: E.validate(K4),
    "bridges": lambda: E.bridges(K4),
    "canonical_form": lambda: E.canonical_form(K4),
    "is_isomorphic": lambda: E.is_isomorphic(K4, K4),
    "automorphism_count": lambda: E.automorphism_count(K4),
    "vertex_automorphisms": lambda: graphs.vertex_automorphisms(K4),
    "enumerate_genus": lambda: E.enumerate_genus(4),
    "balanced_orientation": lambda: E.balanced_orientation(K4),
    "orientation_orbits": lambda: orientation_orbits(K4),
    "order_orbits": lambda: reference.order_orbits(K4),
    "f_g(4, 3)": lambda: E.f_g(4, 3),
    "f_g(3, 4)": lambda: E.f_g(3, 4),
    "f_g(3, 2, tropical)": lambda: E.f_g(3, 2, oracle="tropical"),
    "f_g(3, 4, sym)": lambda: E.f_g(3, 4, oracle="sym"),
    "i_gamma_series(k4, 2)": lambda: E.i_gamma_series(K4, 2),
    "i_gamma_series(k4, 4)": lambda: E.i_gamma_series(K4, 4),
    "gromov_witten_d": lambda: E.gromov_witten_d(K4, 2),
    "gromov_witten_a": lambda: E.gromov_witten_a(K4, A),
    "generating_function": lambda: E.generating_function(K4, 2),
    "integral_coeff": lambda: E.integral_coeff(K4, A, ORDER),
    "i_gamma_coeffs_for_order": lambda: integrals.i_gamma_coeffs_for_order(K4, ORDER, 3),
    "tropical_series": lambda: E.tropical_series(K4, 3),
    "count_covers": lambda: E.count_covers(K4, A, ORDER),
    "count_covers_total": lambda: E.count_covers_total(K4, A),
    "enumerate_tuples": lambda: E.enumerate_tuples(K4, A, ORDER),
    "fit": lambda: E.fit(E.f_g(2, 6, oracle="sym"), 2),
}


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=list(ENTRY_POINTS))
def test_a_call_leaves_no_cyclic_garbage(call):
    call()  # fills the memos, which are not garbage
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
