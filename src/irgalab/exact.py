"""Exact scalar arithmetic: sparse multivariate polynomials over the rationals.

Rationals are plain ``int`` and ``fractions.Fraction``; every exact scalar
in the package is one of those or a ``Polynomial``.  Polynomials are sparse
maps from exponent tuples to nonzero int or Fraction coefficients,
canonically ordered graded-lexicographically over a fixed ``VariableSet``.
All values are immutable; operations are pure.
"""

from __future__ import annotations

from numbers import Rational
from typing import Iterable, Iterator, Mapping

__all__ = [
    "VariableSet",
    "Polynomial",
    "IncompatibleVariablesError",
    "IncompleteAssignmentError",
]


class IncompatibleVariablesError(ValueError):
    """Raised when two polynomials over different variable sets are combined."""


class IncompleteAssignmentError(ValueError):
    """Raised when an evaluation point does not cover every variable."""


class VariableSet:
    """An ordered collection of distinct single-letter variable names.

    The order is fixed at construction and defines monomial exponent
    positions and the graded-lexicographic term order.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str] | str):
        names = tuple(names)
        for name in names:
            if len(name) != 1 or not name.isalpha():
                raise ValueError(f"variable names must be single letters, got {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    def __setattr__(self, name, value):
        raise AttributeError("VariableSet is immutable")

    def index(self, name: str) -> int:
        return self._index[name]

    def __contains__(self, name) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __eq__(self, other):
        return isinstance(other, VariableSet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VariableSet({''.join(self.names)!r})"


def _grade_key(mono: tuple) -> tuple:
    return (sum(mono), mono)


class Polynomial:
    """A sparse multivariate polynomial with exact coefficients.

    Terms map exponent tuples (one entry per variable) to nonzero
    coefficients.  Zero coefficients are never stored, so equality of the
    term maps is equality of polynomials.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: VariableSet, terms: Mapping[tuple, object] | None = None):
        width = len(variables)
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != width:
                    raise ValueError(f"monomial {mono} has wrong arity for {variables}")
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in monomial {mono}")
                if coeff == 0:
                    continue
                mono = tuple(mono)
                if mono in clean:
                    raise ValueError(f"duplicate monomial {mono}")
                clean[mono] = coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables: VariableSet) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: VariableSet, value) -> "Polynomial":
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, variables: VariableSet, name: str) -> "Polynomial":
        mono = [0] * len(variables)
        mono[variables.index(name)] = 1
        return cls(variables, {tuple(mono): 1})

    @classmethod
    def _raw(cls, variables, terms):
        # Internal: terms already canonical (no zeros, correct arity).
        obj = object.__new__(cls)
        object.__setattr__(obj, "variables", variables)
        object.__setattr__(obj, "terms", terms)
        return obj

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    # -- arithmetic ---------------------------------------------------------

    def _compat(self, other: "Polynomial"):
        if self.variables != other.variables:
            raise IncompatibleVariablesError(
                f"cannot combine polynomials over {self.variables} and {other.variables}"
            )

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            self._compat(other)
            return other
        if isinstance(other, Rational):
            return Polynomial.constant(self.variables, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = terms.get(mono, 0) + coeff
            if new == 0:
                terms.pop(mono, None)
            else:
                terms[mono] = new
        return Polynomial._raw(self.variables, terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Polynomial._raw(self.variables, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms or not other.terms:
            return Polynomial.zero(self.variables)
        # Iterate the smaller operand outside for fewer dict rebuilds.
        a, b = (self.terms, other.terms)
        if len(a) > len(b):
            a, b = b, a
        terms: dict = {}
        get = terms.get
        for mono_a, coeff_a in a.items():
            for mono_b, coeff_b in b.items():
                mono = tuple(x + y for x, y in zip(mono_a, mono_b))
                new = get(mono, 0) + coeff_a * coeff_b
                if new == 0:
                    terms.pop(mono, None)
                else:
                    terms[mono] = new
        return Polynomial._raw(self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        """Square-and-multiply power for a nonnegative integer exponent."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        base = self
        result = Polynomial.constant(self.variables, 1)
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    # -- queries ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, Rational):
                return self == Polynomial.constant(self.variables, other)
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def sorted_terms(self) -> list:
        """Terms in descending graded-lexicographic order."""
        return sorted(self.terms.items(), key=lambda kv: _grade_key(kv[0]), reverse=True)

    def diff_terms(self, other: "Polynomial") -> dict:
        """Monomial-level symmetric difference: mono -> (self coeff, other coeff)."""
        self._compat(other)
        out = {}
        for mono in set(self.terms) | set(other.terms):
            a = self.terms.get(mono, 0)
            b = other.terms.get(mono, 0)
            if a != b:
                out[mono] = (a, b)
        return out

    def evaluate(self, point: Mapping[str, object]):
        """Exact substitution; the point must cover every variable."""
        missing = [n for n in self.variables if n not in point]
        if missing:
            raise IncompleteAssignmentError(f"no value for variable(s) {missing}")
        values = [point[n] for n in self.variables]
        # Precompute the powers each variable actually needs.
        max_exp = [0] * len(values)
        for mono in self.terms:
            for i, e in enumerate(mono):
                if e > max_exp[i]:
                    max_exp[i] = e
        powers = []
        for v, top in zip(values, max_exp):
            row = [1]
            for _ in range(top):
                row.append(row[-1] * v)
            powers.append(row)
        total = 0
        for mono, coeff in self.terms.items():
            term = coeff
            for i, e in enumerate(mono):
                if e:
                    term = term * powers[i][e]
            total = total + term
        return total

    def __repr__(self):
        from .polytext import render_polynomial

        return f"<Polynomial {render_polynomial(self)}>"
