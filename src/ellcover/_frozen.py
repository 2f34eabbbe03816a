"""The base of ellcover's immutable value classes.

It is written out by hand because ``dataclasses`` imports ``inspect`` and
compiles every method when a class is created, which would be the larger
part of the cost of ``import ellcover``, paid by every cold CLI call.
"""


class Frozen:
    """An immutable record whose fields are the ``__slots__`` of its class.

    A subclass names its fields in ``__slots__``, in constructor order, and
    sets each once in its ``__init__`` through ``object.__setattr__``.  An
    instance equals only an instance of the same class with equal fields,
    hashes as the tuple of its fields (so a record holding a dict is
    unhashable), prints as ``Class(field=value, ...)`` and pickles by
    calling its constructor on its fields.
    """

    __slots__ = ()

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
