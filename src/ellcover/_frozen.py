"""The base of ellcover's immutable value classes, and the package's one
integer rule.

``Frozen`` is written out by hand because ``dataclasses`` imports
``inspect`` and compiles every method when a class is created, which would
be the larger part of the cost of ``import ellcover``, paid by every cold
CLI call.  Its one constructor binds a record's fields; a class that
normalises its arguments computes the clean fields and then calls it.

``_is_int`` and ``_check_int`` are the rule "an integer, not a bool, at
least k" that every library argument and field is checked by.
"""


def _is_int(x) -> bool:
    """True for an ``int`` that is not a ``bool``."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_int(value, name: str, least: int | None = None) -> int:
    """``value`` if it is an integer (not a bool), and at least ``least``
    when that is given; ValueError naming ``name`` otherwise."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


class Frozen:
    """An immutable record whose fields are the ``__slots__`` of its class.

    A subclass names its fields in ``__slots__``, in constructor order, and
    the constructor here takes them by position or by name and sets each
    once; a wrong count or an unknown or repeated name raises a
    ``TypeError`` that lists the fields.  A subclass that normalises its
    arguments defines its own ``__init__``, which computes the clean fields
    and passes them on to this one.  An instance equals only an instance of
    the same class with equal fields, hashes as the tuple of its fields (so
    a record holding a dict is unhashable), prints as
    ``Class(field=value, ...)`` and pickles by calling its constructor on
    its fields.
    """

    __slots__ = ()

    def __init__(self, *fields, **named):
        slots = self.__slots__
        if named or len(fields) != len(slots):
            fields = self._bind(fields, named)
        for name, value in zip(slots, fields):
            object.__setattr__(self, name, value)

    def _bind(self, fields, named) -> tuple:
        """The fields in slot order from positions and names, or TypeError."""
        slots = self.__slots__
        bound = dict(zip(slots, fields))
        wrong = len(fields) > len(slots) or not named.keys() <= set(slots) - bound.keys()
        bound.update(named)
        if wrong or len(bound) != len(slots):
            raise TypeError(
                f"{type(self).__name__} takes the fields ({', '.join(slots)}), "
                f"got {len(fields)} by position and {', '.join(named) or 'none'} by name"
            )
        return tuple(bound[name] for name in slots)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return (self.__class__, self._fields())
