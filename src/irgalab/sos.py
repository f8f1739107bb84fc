"""Symbolic entry polynomials of the inverse relative gain array and exact
verification of sum-of-squares certificates.

Writing a unit-determinant symmetric PD matrix as R = L L^T with
unit-diagonal lower-triangular L makes R^-1 = adj(R) a polynomial matrix in
the strict-lower entries of L.  With T = R o adj(R), the adjugate entry
adj(T)_(i,j) equals det(T) * S_(i,j) for S = T^-1; since T is PD at every
real parameter point, that polynomial is nonnegative exactly when the IRGA
entry is.  Sizes 2..4 are derived symbolically here.  The bundled size-6
reference polynomial has 676,505 terms once expanded, which takes minutes
and about 0.8 GB, so it is checked unexpanded instead, by randomized
evaluation against an exact numeric oracle.

Certificates are lists of (nonnegative rational multiplier, polynomial
with rational coefficients) pairs; verification expands
sum(multiplier * body^2) exactly and demands literal term-by-term equality
with the target.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Callable, Mapping, Optional

import numpy as np

from .exact import ParseFailure, Polynomial, VariableSet
from .irga import _build_lower, _t_from_lower, mix64
from .linalg import Matrix, NumericFailure, adjugate_entry
from .polytext import ParsedExpression, _render_monomial, parse_expression, parse_polynomial

__all__ = [
    "cholesky_variables",
    "symbolic_gram",
    "entry_polynomial",
    "SymbolicCapabilityError",
    "InvalidCertificateError",
    "SoSCertificate",
    "CertificateCheck",
    "IdentityTestReport",
    "identity_test",
    "validate_identity_arguments",
    "exact_entry_oracle",
    "BUILTIN_ASSETS",
    "builtin_polynomial",
    "builtin_expression",
    "builtin_certificate",
    "data_path",
]

# Strict-lower Cholesky parameter letters in row-major order; l and o are
# skipped to avoid digit look-alikes, matching the bundled data files.
_PARAMETER_LETTERS = "abcdefghijkmnpq"

_SYMBOLIC_LIMIT = 4


class SymbolicCapabilityError(NumericFailure, ValueError):
    """Raised for sizes whose symbolic derivation is out of reach."""


class InvalidCertificateError(ParseFailure, ValueError):
    """Raised when a certificate is structurally invalid (not a failed check)."""


def cholesky_variables(n: int) -> VariableSet:
    """Variables of the unit-diagonal lower-triangular parameterization.

    Row-major: size 3 uses a; b, c and size 6 uses a..k, m, n, p, q.
    """
    count = n * (n - 1) // 2
    if count > len(_PARAMETER_LETTERS):
        raise ValueError(f"no parameter naming beyond size 6 (requested {n})")
    return VariableSet(_PARAMETER_LETTERS[:count])


def _symbolic_lower(n: int) -> Matrix:
    variables = cholesky_variables(n)
    values = [Polynomial.variable(variables, name) for name in variables.names]
    return Matrix(
        _build_lower(n, values, Polynomial.constant(variables, 1), Polynomial.zero(variables))
    )


@lru_cache(maxsize=None)
def symbolic_gram(n: int) -> Matrix:
    """R = L L^T over the symbolic unit-diagonal L; det(R) = 1 identically."""
    if not 2 <= n <= 6:
        raise ValueError("symbolic Gram matrix available for sizes 2..6")
    lower = _symbolic_lower(n)
    return lower @ lower.transpose()


@lru_cache(maxsize=None)
def _hadamard_gram_adjugate(n: int) -> Matrix:
    return Matrix(_t_from_lower(_symbolic_lower(n).rows))


@lru_cache(maxsize=None)
def entry_polynomial(n: int, i: int, j: int) -> Polynomial:
    """The (i, j) adjugate entry of T = R o adj(R), i.e. det(T) * S_(i,j).

    Only off-diagonal entries are meaningful for the nonnegativity question;
    sizes above 4 must use randomized identity testing instead.
    """
    if n > _SYMBOLIC_LIMIT:
        raise SymbolicCapabilityError(
            f"size {n} exceeds the symbolic range (2..{_SYMBOLIC_LIMIT}); "
            "use identity_test against the exact numeric oracle instead"
        )
    if n < 2:
        raise ValueError("entry polynomials start at size 2")
    if i == j:
        raise ValueError("entry polynomial is defined for off-diagonal entries")
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"entry ({i}, {j}) out of range for size {n}")
    return adjugate_entry(_hadamard_gram_adjugate(n), i, j)


@dataclass(frozen=True)
class CertificateCheck:
    """Outcome of an exact certificate expansion against a target."""

    ok: bool
    difference: dict  # rendered monomial -> (expansion coeff, target coeff), both str

    @property
    def rational(self) -> bool:
        """True by construction: multipliers and body coefficients are
        rational (the grammar has no irrational literal), so the expansion
        is too, and a verified certificate is checked with no irrational
        arithmetic (Peyrl & Parrilo, *Theor. Comput. Sci.* 409, 2008)."""
        return True

    def __bool__(self):
        return self.ok

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "expansion_rational": self.rational,
            "difference": {k: list(v) for k, v in self.difference.items()},
        }


class SoSCertificate:
    """A sum-of-squares certificate: nonnegative multipliers on squared bodies."""

    def __init__(self, variables: VariableSet, terms):
        checked = []
        for multiplier, body in terms:
            multiplier = Fraction(multiplier)
            if multiplier < 0:
                raise InvalidCertificateError(
                    f"negative multiplier {multiplier} invalidates the certificate"
                )
            if body.variables != variables:
                raise InvalidCertificateError("certificate body over wrong variables")
            checked.append((multiplier, body))
        self.variables = variables
        self.terms = tuple(checked)

    def __len__(self):
        return len(self.terms)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "SoSCertificate":
        try:
            variables = VariableSet(payload["variables"])
            raw_terms = [(Fraction(item["multiplier"]), item["body"]) for item in payload["terms"]]
            for _, body in raw_terms:
                if not isinstance(body, str):
                    raise TypeError(f"term body must be a string, got {body!r}")
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidCertificateError(f"malformed certificate JSON: {exc}") from exc
        terms = [(multiplier, parse_polynomial(body, variables)) for multiplier, body in raw_terms]
        return cls(variables, terms)

    @classmethod
    def load(cls, path) -> "SoSCertificate":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json_dict(json.load(handle))

    def expand(self) -> Polynomial:
        """Exact expansion of sum(multiplier * body^2)."""
        total = Polynomial.zero(self.variables)
        for multiplier, body in self.terms:
            total = total + (body * body) * multiplier
        return total

    def verify(self, target: Polynomial) -> CertificateCheck:
        """Exact comparison of the expansion with the target polynomial.

        On failure the monomial differences carry both coefficients.
        """
        expansion = self.expand()
        diff = expansion.diff_terms(target)
        rendered = {}
        names = self.variables.names
        for mono, (got, want) in sorted(diff.items()):
            rendered[_render_monomial(names, mono) or "1"] = (str(got), str(want))
        return CertificateCheck(ok=not diff, difference=rendered)


# -- randomized identity testing ------------------------------------------------


def exact_entry_oracle(n: int, i: int, j: int) -> Callable[[Mapping[str, Fraction]], Fraction]:
    """Exact numeric evaluator of the (i, j) adjugate entry of T = R o adj(R).

    Builds L from a rational assignment of the strict-lower parameters and
    evaluates entirely in rational arithmetic; this is the independent side
    of the randomized identity test.  It shares with the symbolic side only
    the generic L^-1 substitution that builds T, never its polynomials.
    Integer coordinates keep the result ``int``.
    """
    variables = cholesky_variables(n)

    def oracle(point: Mapping[str, Fraction]) -> Fraction:
        values = [point[name] for name in variables.names]
        values = [v if isinstance(v, int) else Fraction(v) for v in values]
        return adjugate_entry(Matrix(_t_from_lower(_build_lower(n, values, 1, 0))), i, j)

    return oracle


@dataclass(frozen=True)
class IdentityTestReport:
    """Per-point agreement record of a randomized identity test.

    ``degree_bound`` bounds the total degree of reference minus oracle, and
    ``error_bound`` is the Schwartz-Zippel bound on the probability that a
    reference that differs from the oracle agrees at every point.
    """

    trials: int
    points: tuple  # tuple of {name: str} assignments, in trial order
    agreements: int
    first_disagreement: Optional[dict]  # {"point", "reference", "oracle"}
    degree_bound: int
    error_bound: float

    @property
    def all_agree(self) -> bool:
        return self.agreements == self.trials

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "agreements": self.agreements,
            "all_agree": self.all_agree,
            "points": [dict(p) for p in self.points],
            "first_disagreement": self.first_disagreement,
            "degree_bound": self.degree_bound,
            "error_bound": self.error_bound,
        }


def validate_identity_arguments(n: int, i: int, j: int, trials: int, coordinate_range: int):
    """Raise ValueError unless the arguments describe a runnable identity test."""
    if not 2 <= n <= 6:
        raise ValueError(f"identity test needs 2 <= n <= 6 (got n={n})")
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise ValueError(f"need an off-diagonal entry with 1 <= i, j <= {n} (got ({i}, {j}))")
    if trials < 1:
        raise ValueError(f"trials must be >= 1 (got {trials})")
    if coordinate_range < 1:
        raise ValueError(f"coordinate range must be >= 1 (got {coordinate_range})")


def identity_test(
    reference,
    n: int,
    i: int,
    j: int,
    trials: int = 20,
    seed: int = 0,
    coordinate_range: int = 10**6,
) -> IdentityTestReport:
    """Compare a reference polynomial against the exact oracle at random points.

    ``reference`` is an expanded Polynomial or a ParsedExpression, whose
    shared-subexpression program is evaluated without expansion.  Point t
    draws integer coordinates in [-coordinate_range, coordinate_range] from
    the stream seeded by mix64(seed, t), keeping reports deterministic and
    order-independent.  Disagreement is a result, not an error; arguments
    outside ``validate_identity_arguments``, or a reference with a variable
    that ``cholesky_variables(n)`` lacks, raise ValueError.

    The difference of reference and oracle has total degree at most
    d = max(degree bound of the reference, 2n(n-1)): entries of L^-1 have
    degree <= n-1, so entries of T have degree <= 2n and its (n-1)-minors
    degree <= 2n(n-1).  If the two differ, all points agree with
    probability at most (d / (2 coordinate_range + 1)) ** trials.
    """
    validate_identity_arguments(n, i, j, trials, coordinate_range)
    variables = cholesky_variables(n)
    if isinstance(reference, ParsedExpression):
        names = reference.variable_names()
    else:
        names = reference.variables.names
    if not set(names) <= set(variables.names):
        raise ValueError(
            f"reference variables {''.join(sorted(names))} are not all among "
            f"the size-{n} variables {''.join(variables.names)}"
        )
    oracle = exact_entry_oracle(n, i, j)
    points = []
    agreements = 0
    first_disagreement = None
    for t in range(trials):
        rng = np.random.default_rng(mix64(seed, t))
        coords = rng.integers(-coordinate_range, coordinate_range + 1, size=len(variables))
        point = {name: int(c) for name, c in zip(variables.names, coords)}
        points.append({name: str(v) for name, v in point.items()})
        expected = oracle(point)
        got = reference.evaluate(point)
        if got == expected:
            agreements += 1
        elif first_disagreement is None:
            first_disagreement = {
                "point": {name: str(v) for name, v in point.items()},
                "reference": str(got),
                "oracle": str(expected),
            }
    if isinstance(reference, ParsedExpression):
        reference_degree = reference.degree_bound()
    else:
        reference_degree = reference.total_degree()
    degree = max(reference_degree, 2 * n * (n - 1))
    ratio = degree / (2 * coordinate_range + 1)
    # A probability bound: at most 1, and never reported as 0 on underflow.
    error_bound = 1.0 if ratio >= 1 else max(ratio**trials, math.ulp(0.0))
    return IdentityTestReport(
        trials=trials,
        points=tuple(points),
        agreements=agreements,
        first_disagreement=first_disagreement,
        degree_bound=degree,
        error_bound=error_bound,
    )


# -- bundled data assets ----------------------------------------------------------

BUILTIN_ASSETS = {
    "pn3": "pn3.poly",
    "pn4": "pn4.poly",
    "s4-entry12": "s4_entry12.poly",
    "s6-entry12": "s6_entry12.poly",
    "n3": "sos_n3.json",
    "n4": "sos_n4.json",
}


def data_path(filename: str):
    return resources.files("irgalab").joinpath("data").joinpath(filename)


def _read_asset(name: str) -> str:
    try:
        filename = BUILTIN_ASSETS[name]
    except KeyError:
        raise KeyError(
            f"unknown builtin asset {name!r}; available: {sorted(BUILTIN_ASSETS)}"
        ) from None
    return data_path(filename).read_text(encoding="utf-8")


def builtin_expression(name: str) -> ParsedExpression:
    """A builtin polynomial, unexpanded: parsed into its shared-subexpression program."""
    return parse_expression(_read_asset(name))


def builtin_polynomial(name: str, variables: VariableSet | None = None) -> Polynomial:
    """A builtin polynomial, expanded (do not use for s6-entry12)."""
    return parse_polynomial(_read_asset(name), variables)


def builtin_certificate(name: str) -> SoSCertificate:
    return SoSCertificate.from_json_dict(json.loads(_read_asset(name)))
