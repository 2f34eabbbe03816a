"""Per-edge factors of the graph integrand.

For an edge joining vertices x and y, the weight-series factor at branch
degree d is

    d > 0:   sum over divisors w of d of  w * ((x/y)^{2w} + (y/x)^{2w}),

an honest Laurent polynomial, symmetric in x and y.  At d = 0 the factor is
the rational function x^2 y^2 / (x^2 - y^2)^2, which has no canonical Laurent
expansion: expanding the geometric series requires choosing which variable is
"small".  That choice is dictated by a total order on the vertices: the
earlier vertex goes in the numerator, giving the one-sided expansion

    sum_{w >= 1} w * (x_early / x_late)^{2w},

truncated at a weight bound.  All signs are absorbed here, so downstream code
multiplies plain factors.
"""

from __future__ import annotations

from ._frozen import Frozen, _check_int, _is_int
from .laurent import LaurentPoly


class LoopEdge(ValueError):
    """Raised when asked to expand a factor for a loop; the integrand is
    singular there.  Callers must exclude loops via the bridge criterion."""


def _check_slots(arity, **slots) -> None:
    """ValueError naming the argument unless ``arity`` is a non-negative
    integer and every slot an integer in 0..arity-1."""
    _check_int(arity, "arity", 0)
    for name, slot in slots.items():
        if not 0 <= _check_int(slot, name) < arity:
            raise ValueError(f"{name} must be a slot in 0..{arity - 1}, got {slot}")


def divisors(n: int) -> list:
    _check_int(n, "n", 1)
    return [w for w in range(1, n + 1) if n % w == 0]


class ZeroDegreeFactor(Frozen):
    """Tag for the unexpanded degree-0 factor x^2 y^2 / (x^2 - y^2)^2.

    Stands in for a rational function; turning it into a series requires an
    orientation choice, see :func:`expand_zero_term`.
    """

    __slots__ = ("x_index", "y_index")


def _factor_terms(a_k: int, w_max: int) -> tuple:
    """The edge factor at branch degree a_k as (exponent, coefficient) pairs,
    each standing for coefficient * (x_source / x_sink)^exponent.

    For a_k > 0 this is the divisor sum, symmetric in source and sink.  For
    a_k = 0 it is the one-sided expansion truncated at weight ``w_max``, with
    the earlier vertex as source.  Every coefficient is a positive int.
    """
    if a_k < 0:
        raise ValueError("branch degree must be non-negative")
    if a_k:
        return tuple((s * 2 * w, w) for w in divisors(a_k) for s in (1, -1))
    if w_max < 1:
        raise ValueError("w_max must be at least 1")
    return tuple((2 * w, w) for w in range(1, w_max + 1))


def _laurent(arity: int, source: int, sink: int, terms) -> LaurentPoly:
    """LaurentPoly of sum c * (x_source / x_sink)^e over 0-based slots."""
    out = {}
    for e, c in terms:
        exps = [0] * arity
        exps[source] += e
        exps[sink] -= e
        out[tuple(exps)] = out.get(tuple(exps), 0) + c
    return LaurentPoly(arity, out)


def propagator_coeff(arity: int, x: int, y: int, d: int):
    """Degree-2d weight coefficient of the edge factor in variables x, y
    (0-based slots).

    Returns a LaurentPoly for d > 0 and a :class:`ZeroDegreeFactor` tag for
    d = 0.  A loop (x == y) raises :class:`LoopEdge` at every degree.
    """
    _check_slots(arity, x=x, y=y)
    _check_int(d, "d", 0)
    if x == y:
        raise LoopEdge(f"x = y = {x} is a loop; its factor is singular")
    if d == 0:
        return ZeroDegreeFactor(x, y)
    return _laurent(arity, x, y, _factor_terms(d, 0))


def expand_zero_term(arity: int, source: int, sink: int, w_max: int) -> LaurentPoly:
    """Truncated geometric expansion sum_{w=1}^{w_max} w*(x_source/x_sink)^{2w}.

    ``source`` must be the vertex slot earlier in the active vertex order.
    """
    _check_slots(arity, source=source, sink=sink)
    terms = _factor_terms(0, _check_int(w_max, "w_max", 1))
    if source == sink:
        raise LoopEdge("cannot expand the degree-0 factor of a loop")
    return _laurent(arity, source, sink, terms)


class EdgeFactor(Frozen):
    """An edge's expanded integrand factor.

    Every monomial of ``expansion`` has even exponents and its two nonzero
    exponents (in the slots of the edge's endpoints) are negatives of each
    other.
    """

    __slots__ = ("edge_index", "endpoints", "branch_degree", "expansion")


def edge_factor(arity: int, edge_index: int, endpoints, a_k: int, order, w_max: int) -> EdgeFactor:
    """Expanded factor for one edge under a vertex order.

    ``endpoints`` are 1-based vertex labels, ``order`` is the vertex order as
    a sequence of 1-based labels (earliest first).  For a_k = 0 the earlier
    endpoint becomes the numerator of the expansion; for a_k > 0 the factor
    is symmetric and the order is irrelevant.
    """
    _check_slots(arity)
    try:
        u, v = endpoints
    except (TypeError, ValueError):
        u = v = None
    if not all(_is_int(x) and 1 <= x <= arity for x in (u, v)):
        raise ValueError(f"endpoints must be a pair of vertices in 1..{arity}, got {endpoints!r}")
    _check_int(edge_index, "edge_index", 0)
    _check_int(a_k, "a_k", 0)
    _check_int(w_max, "w_max", 1)
    if u == v:
        raise LoopEdge(f"edge {u}-{v} is a loop; its factor is singular")
    try:
        src, snk = (u, v) if order.index(u) < order.index(v) else (v, u)
    except (AttributeError, TypeError, ValueError):
        raise ValueError(f"order must be a sequence of vertices holding both endpoints, got {order!r}") from None
    return EdgeFactor(edge_index, (u, v), a_k, _laurent(arity, src - 1, snk - 1, _factor_terms(a_k, w_max)))
