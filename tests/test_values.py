import copy
import pickle
from fractions import Fraction

import pytest

from ellcover import (
    BalancedFlow,
    CoverTuple,
    EdgeFactor,
    FeynmanGraph,
    LaurentPoly,
    MultiSeries,
    Orientation,
    QSeries,
    QuasimodularRep,
    TropicalCover,
    ZeroDegreeFactor,
)

THETA = FeynmanGraph(2, ((1, 2), (1, 2), (1, 2)))

# (class, constructor keywords in field order, hashable, picklable); a dict
# field makes a value unhashable
VALUES = [
    (FeynmanGraph, {"vertex_count": 2, "edges": ((1, 2), (1, 2), (1, 2))}, True, True),
    (Orientation, {"sources": (1, 2, None)}, True, True),
    (BalancedFlow, {"orientation": Orientation((1, 2, 1)), "weights": (1, 1, 2)}, True, True),
    (MultiSeries, {"arity": 2, "coeffs": {(1, 0): 3}}, False, True),
    (ZeroDegreeFactor, {"x_index": 0, "y_index": 1}, True, True),
    (
        EdgeFactor,
        {"edge_index": 0, "endpoints": (1, 2), "branch_degree": 1, "expansion": LaurentPoly.one(2)},
        True,
        True,
    ),
    (QSeries, {"coeffs": {2: 5}, "order": 4}, False, True),
    (QuasimodularRep, {"weight": 4, "coeffs": {(0, 1, 0): Fraction(1, 2)}}, False, True),
    (CoverTuple, {"weights": (1, 2, 1), "sources": (1, 2, 1), "wraps": (1, 1, 0)}, True, True),
    (
        TropicalCover,
        {
            "graph": THETA,
            "order": (1, 2),
            "weights": (1, 2, 1),
            "sources": (1, 2, 1),
            "fiber_counts": (1, 1, 0),
            "degree": 3,
            "multiplicity": 2,
        },
        True,
        True,
    ),
]


@pytest.mark.parametrize("cls, fields, hashable, picklable", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_classes_are_frozen_records(cls, fields, hashable, picklable):
    value = cls(**fields)
    twin = cls(*fields.values())
    assert value == twin and not value != twin
    assert value.__eq__(tuple(fields.values())) is NotImplemented
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert repr(value) == f"{cls.__name__}({shown})"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    if hashable:
        assert hash(value) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(value)
    assert copy.copy(value) == value
    if picklable:
        assert pickle.loads(pickle.dumps(value)) == value


def test_value_classes_normalise_and_validate_their_fields():
    assert MultiSeries(2, {(1, 0): 0, (0, 1): 2}).coeffs == {(0, 1): 2}
    with pytest.raises(TypeError, match="exact coefficient"):
        MultiSeries(2, {(1, 0): 0.5})
    assert QSeries({0: 1, 2: 0, 5: 7}, 4).coeffs == {0: 1}
    with pytest.raises(ValueError, match="negative exponents"):
        QSeries({-2: 1}, 4)
    assert QuasimodularRep(4).coeffs == {}
    assert QuasimodularRep(4, {(0, 1, 0): 3, (2, 0, 0): 0}).coeffs == {(0, 1, 0): Fraction(3)}
    with pytest.raises(ValueError, match="not of weight 4"):
        QuasimodularRep(4, {(1, 0, 0): 1})
    # coeff reads a key by the constructor's rule: a key the constructor
    # would take and that holds nothing reads 0, any other raises
    series = MultiSeries(2, {(1, 0): 0, (0, 1): 2})
    assert (series.coeff((0, 1)), series.coeff((1, 0)), series.coeff((5, 5))) == (2, 0, 0)
    rep = QuasimodularRep(4, {(0, 1, 0): 3})
    assert (rep.coeff((0, 1, 0)), rep.coeff((2, 0, 0))) == (Fraction(3), Fraction(0))
    with pytest.raises(ValueError, match="not of weight 4"):
        rep.coeff((1, 0, 0))
