"""Sparse multivariate Laurent polynomials with exact rational coefficients.

Everything downstream (propagator factors, constant-term extraction, the
graph integrals) reduces to arithmetic in Z[x_1^{+-1}, ..., x_n^{+-1}] or its
rational-coefficient variant.  A polynomial is stored as a map from exponent
vectors (tuples of ints, possibly negative, one slot per variable) to nonzero
coefficients.  Coefficients are Python ints or ``fractions.Fraction``; floats
are rejected so no rounding can ever sneak in.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

from ._frozen import Frozen, _check_int, _is_int


class ArityMismatch(ValueError):
    """Raised when combining polynomials over different variable sets."""


def _check_coeff(c):
    if isinstance(c, (int, Fraction)) and not isinstance(c, bool):
        return c
    raise TypeError(f"exact coefficient (int or Fraction) required, got {type(c).__name__}")


def _exponents(exps, arity: int) -> tuple:
    """``exps`` if it is a tuple of ``arity`` integers, the key rule of
    :class:`LaurentPoly`; ValueError naming the exponent vector otherwise
    (an :class:`ArityMismatch` for a wrong length)."""
    if not (isinstance(exps, tuple) and all(map(_is_int, exps))):
        raise ValueError(f"exponent vector must be a tuple of integers, got {exps!r}")
    if len(exps) != arity:
        raise ArityMismatch(f"exponent vector must be of length {arity}, got {exps!r}")
    return exps


def _check_slot(var, arity: int) -> int:
    """``var`` if it is a variable slot 0..arity-1; ValueError naming it
    otherwise."""
    if _check_int(var, "var", 0) >= arity:
        raise ValueError(f"var must be a variable slot below the arity {arity}, got {var}")
    return var


def coeff_str(c) -> str:
    """Canonical "p" / "p/q" rendering of an exact coefficient."""
    c = Fraction(c)
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


class LaurentPoly(Frozen):
    """Immutable sparse Laurent polynomial of fixed arity."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[tuple, object] | None = None):
        _check_int(arity, "arity", 0)
        if terms is None:
            terms = {}
        elif not isinstance(terms, Mapping):
            raise ValueError(f"terms must be a mapping from exponent vectors to coefficients, got {terms!r}")
        clean = {}
        for exps, c in terms.items():
            _exponents(exps, arity)
            if _check_coeff(c) != 0:
                clean[exps] = clean.get(exps, 0) + c
        Frozen.__init__(self, arity, {e: c for e, c in clean.items() if c != 0})

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "LaurentPoly":
        return cls(arity)

    @classmethod
    def one(cls, arity: int) -> "LaurentPoly":
        return cls(arity, {(0,) * arity: 1})

    @classmethod
    def constant(cls, arity: int, c) -> "LaurentPoly":
        return cls(arity, {(0,) * arity: c})

    @classmethod
    def monomial(cls, arity: int, exps: Iterable[int], c=1) -> "LaurentPoly":
        return cls(arity, {tuple(exps): c})

    @classmethod
    def variable(cls, arity: int, index: int) -> "LaurentPoly":
        """The variable x_index (0-based slot) as a polynomial."""
        _check_int(arity, "arity", 0)
        exps = [0] * arity
        exps[_check_slot(index, arity)] = 1
        return cls(arity, {tuple(exps): 1})

    # -- ring operations ---------------------------------------------------

    def _require_same_arity(self, other: "LaurentPoly"):
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._require_same_arity(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return _raw(self.arity, terms)

    def __neg__(self):
        return _raw(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            if other == 0:
                return LaurentPoly.zero(self.arity)
            return _raw(self.arity, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._require_same_arity(other)
        # convolve the smaller support over the larger one
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(sum, zip(ea, eb)))
                s = out.get(e, 0) + ca * cb
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return _raw(self.arity, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        _check_int(k, "exponent", 0)
        result = LaurentPoly.one(self.arity)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exps: tuple):
        """Coefficient of a single monomial; ``exps`` follows the
        constructor's key rule."""
        return self.terms.get(_exponents(exps, self.arity), 0)

    def constant_term(self):
        """Coefficient of the all-zero exponent vector."""
        return self.terms.get((0,) * self.arity, 0)

    def coeff_in(self, var: int, exponent: int) -> "LaurentPoly":
        """All terms whose exponent in variable ``var`` equals ``exponent``,
        with that exponent zeroed out.  Arity is preserved.

        Iterating this over every variable at exponent 0 computes the
        multivariate constant term one variable at a time.
        """
        _check_slot(var, self.arity)
        _check_int(exponent, "exponent")
        out = {}
        for e, c in self.terms.items():
            if e[var] == exponent:
                z = list(e)
                z[var] = 0
                out[tuple(z)] = c
        return _raw(self.arity, out)

    def support_in(self, var: int) -> set:
        """Set of exponents of variable ``var`` occurring in the support."""
        _check_slot(var, self.arity)
        return {e[var] for e in self.terms}

    # -- presentation ------------------------------------------------------

    def monomial_list(self) -> list:
        """Debug serialization: sorted (exponent vector, "p/q") pairs."""
        return [(e, coeff_str(self.terms[e])) for e in sorted(self.terms)]

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        parts = []
        for e, c in self.monomial_list():
            mono = "*".join(f"x{i}^{p}" for i, p in enumerate(e) if p != 0)
            parts.append(f"{c}*{mono}" if mono else c)
        return "LaurentPoly(" + " + ".join(parts) + ")"


def _raw(arity: int, terms: dict) -> LaurentPoly:
    """Internal constructor skipping validation (terms already clean)."""
    p = LaurentPoly.__new__(LaurentPoly)
    Frozen.__init__(p, arity, terms)
    return p

