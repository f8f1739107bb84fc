"""Dense matrices over a pluggable scalar, plus the shared kernel routines.

Two carriers coexist and most public functions dispatch on type:

* ``numpy.ndarray`` (float64) for throughput work; and
* ``Matrix``, an immutable row-tuple container holding exact scalars
  (int, Fraction, or Polynomial) for certification work.

Every exact elimination runs over the integers, on D*A with D the LCM of
the entries' denominators, as one fraction-free elimination (Bareiss,
Math. Comp. 22, 1968).  Its forward pass's last pivot gives the determinant
of an int/Fraction matrix, and its pivots are the leading principal minors
that the exact positive-definiteness test (Sylvester's criterion) reads.
Its Jordan pass on [D*A | I] leaves the inverse of D*A times the last pivot
in the right half.  Polynomial determinants use cofactor expansion along
the first row.  The exact inverse and positive-definiteness test take
int/Fraction entries only and raise TypeError for any other.  Float
inverses use partially pivoted LU, factored and solved against the identity
in one LAPACK dgesv call, with an explicit pivot-magnitude check, and the
float positive-definiteness test and Cholesky factor both use LAPACK
dpotrf.  These LAPACK routines come from
scipy's ``_flapack`` extension, which is loaded by itself on the first
float inverse or Cholesky call: neither the ``scipy`` nor the
``scipy.linalg`` package is imported, and code that stays exact loads no
part of scipy.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Matrix",
    "NumericFailure",
    "DimensionMismatchError",
    "SingularMatrixError",
    "NumericallySingularError",
    "NotPositiveDefiniteError",
    "NotSymmetricError",
    "FloatAccuracyError",
    "hadamard",
    "kron",
    "inverse",
    "adjugate_entry",
    "cholesky",
    "is_positive_definite",
    "load_matrix",
    "load_vector",
    "to_json",
    "SYMMETRY_RTOL",
    "PIVOT_RTOL",
]

# The float tolerances: the symmetry check's and the singular-pivot check's.
SYMMETRY_RTOL = 1e-10
PIVOT_RTOL = 1e-12


def _check_tol(tol: float):
    """Raise ValueError unless a caller's tolerance is finite and >= 0."""
    if not 0 <= tol < math.inf:
        raise ValueError("tol must be finite and >= 0")


class NumericFailure(Exception):
    """Base of the errors that the command line reports as numeric failures."""


class DimensionMismatchError(NumericFailure, ValueError):
    pass


class SingularMatrixError(NumericFailure, ZeroDivisionError):
    pass


class NumericallySingularError(SingularMatrixError):
    pass


class NotPositiveDefiniteError(NumericFailure, ValueError):
    pass


class NotSymmetricError(NumericFailure, ValueError):
    pass


class FloatAccuracyError(NumericFailure, ValueError):
    """A float identity check missed its tolerance: the input is too
    ill-conditioned for the float result to be trusted."""


class Matrix:
    """Immutable dense matrix over exact scalars (row-major tuples)."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(tuple(row) for row in rows)
        width = len(rows[0]) if rows else 0
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows")
        if not width:
            raise DimensionMismatchError(f"empty matrix, shape {(len(rows), width)}")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- shape ----------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    @property
    def shape(self) -> tuple:
        return (self.n_rows, self.n_cols)

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.rows]!r})"

    # -- constructors -----------------------------------------------------------

    @classmethod
    def identity(cls, n: int, one=Fraction(1), zero=Fraction(0)) -> "Matrix":
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries: Sequence, zero=Fraction(0)) -> "Matrix":
        n = len(entries)
        return cls([[entries[i] if i == j else zero for j in range(n)] for i in range(n)])

    # -- arithmetic --------------------------------------------------------------

    def _same_shape(self, other: "Matrix"):
        if self.n_rows != other.n_rows or self.n_cols != other.n_cols:
            raise DimensionMismatchError(
                f"{self.n_rows}x{self.n_cols} vs {other.n_rows}x{other.n_cols}"
            )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.n_cols != other.n_rows:
            raise DimensionMismatchError(
                f"{self.n_rows}x{self.n_cols} @ {other.n_rows}x{other.n_cols}"
            )
        cols = list(zip(*other.rows))
        return Matrix(
            [[_dot(row, col) for col in cols] for row in self.rows]
        )

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.rows))

    def hadamard(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            [[a * b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def kron(self, other: "Matrix") -> "Matrix":
        return Matrix(
            [
                [a * b for a in row_a for b in row_b]
                for row_a in self.rows
                for row_b in other.rows
            ]
        )

    # -- reductions ----------------------------------------------------------------

    def row_sums(self) -> tuple:
        return tuple(sum(row) for row in self.rows)

    def col_sums(self) -> tuple:
        return tuple(sum(col) for col in zip(*self.rows))

    def min_entry(self):
        return min(a for row in self.rows for a in row)

    def submatrix(self, drop_row: int, drop_col: int) -> "Matrix":
        return Matrix([row[:drop_col] + row[drop_col + 1 :] for i, row in enumerate(self.rows) if i != drop_row])

    # -- determinant / inverse -------------------------------------------------------

    def det(self):
        """Exact determinant; for int/Fraction A, det(D*A) / D^n, an int when D = 1.

        det(D*A) is the last pivot of the forward pass of ``_bareiss``, which
        the exact PD test also reads, negated after an odd number of row swaps.
        """
        if not self.is_square:
            raise DimensionMismatchError("determinant of a non-square matrix")
        scaled = _integer_scaled(self.rows)
        if scaled is None:
            return _det_laplace(self.rows)
        rows, scale = scaled
        pivots, swaps = _bareiss(rows)
        d = -pivots[-1] if swaps % 2 else pivots[-1]
        return d if scale == 1 else Fraction(d, scale**self.n_rows)

    def inverse(self) -> "Matrix":
        """Exact inverse by the Jordan pass of Bareiss elimination on [D*A | I].

        Entries must be int or Fraction (else TypeError).  The pass ends with
        d * (D*A)^-1 in the right half, d its last pivot, so the result's
        Fraction entries are each normalised once from A^-1 = D * right / d.
        Raises SingularMatrixError when A is singular.
        """
        if not self.is_square:
            raise DimensionMismatchError("inverse of a non-square matrix")
        rows, scale = _rational_scaled(self.rows, "inverse")
        n = len(rows)
        for i, row in enumerate(rows):
            row.extend(1 if j == i else 0 for j in range(n))
        d = _bareiss(rows, jordan=True)[0][-1]
        if d == 0:
            raise SingularMatrixError("matrix is singular")
        return Matrix([[Fraction(scale * v, d) for v in row[n:]] for row in rows])

    def to_float_array(self) -> np.ndarray:
        return np.array([[float(a) for a in row] for row in self.rows], dtype=float)


def _dot(row, col):
    # Left to right as a Python loop adds, with the products formed in C;
    # None for empty input.
    products = map(operator.mul, row, col)
    first = next(products, None)
    return None if first is None else functools.reduce(operator.add, products, first)


def _bareiss(a: list, jordan: bool = False) -> tuple:
    """(pivots, swaps) of a fraction-free elimination (Bareiss) of n integer
    rows ``a``, at least n wide, in place.

    Step k swaps in the first lower row with a nonzero entry in column k
    only when the pivot is zero, then updates the columns right of k, the
    only ones read again, of every lower row (forward) or every other row
    (``jordan``) by a_ij <- (pivot*a_ij - a_ik*a_kj) / previous pivot, an
    exact division.  Pivot k is then the (k+1)-th leading minor of the
    row-swapped matrix: the last is +-det, and without swaps the pivots are
    the leading principal minors.  When no row can supply a nonzero pivot
    the pass stops with a last pivot of 0: the matrix is singular.
    """
    n, width = len(a), len(a[0])
    pivots = []
    swaps = 0
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                pivots.append(0)
                break
            a[k], a[swap] = a[swap], a[k]
            swaps += 1
        row_k = a[k]
        pivot = row_k[k]
        for row_i in a[:k] + a[k + 1 :] if jordan else a[k + 1 :]:
            lead = row_i[k]
            for j in range(k + 1, width):
                row_i[j] = _exact_div(pivot * row_i[j] - lead * row_k[j], prev)
        pivots.append(pivot)
        prev = pivot
    return pivots, swaps


def _exact_div(value: int, divisor: int) -> int:
    if divisor == 1:
        return value
    q, r = divmod(value, divisor)
    if r:
        raise ArithmeticError("inexact division in Bareiss elimination")
    return q


def _integer_scaled(rows):
    """(D*A as integer rows, D) for D the LCM of the entries' denominators.

    None unless every entry is an int or a Fraction.
    """
    if not all(isinstance(v, (int, Fraction)) for row in rows for v in row):
        return None
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (scale // v.denominator) for v in row] for row in rows], scale


def _rational_scaled(rows, operation: str):
    """``_integer_scaled(rows)``; TypeError unless every entry is an int or a Fraction."""
    scaled = _integer_scaled(rows)
    if scaled is None:
        raise TypeError(f"exact {operation} needs int or Fraction entries")
    return scaled


def _det_laplace(rows):
    """Determinant by cofactor expansion along the first row.

    Used for Polynomial scalars (no exact division); the symbolic entry
    polynomials only need minors of size at most 3.
    """
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for col, entry in enumerate(rows[0]):
        term = entry * _det_laplace([row[:col] + row[col + 1 :] for row in rows[1:]])
        total = total - term if col % 2 else total + term
    return total


def adjugate_entry(m: Matrix, i: int, j: int):
    """Entry (i, j), 1-based, of the adjugate (transpose of cofactors).

    Equals (-1)^(i+j) times the determinant of ``m`` with row j and column i
    deleted, so that inverse = adjugate / determinant.
    """
    if not m.is_square or m.n_rows < 2:
        raise DimensionMismatchError("adjugate entry needs a square matrix, n >= 2")
    if not (1 <= i <= m.n_rows and 1 <= j <= m.n_cols):
        raise IndexError(f"adjugate index ({i}, {j}) out of range")
    sub = m.submatrix(j - 1, i - 1)
    value = sub.det()
    return -value if (i + j) % 2 else value


# -- dispatching wrappers -----------------------------------------------------


def _max_abs(values: list) -> float:
    """``float(np.abs(values).max())`` for a nonempty list of floats.

    The builtin max keeps a NaN only when it comes first, where numpy's max
    is NaN whenever an entry is; so is the sum of the magnitudes, and it
    decides.  On short vectors this costs less than numpy's three calls.
    """
    magnitudes = list(map(abs, values))
    return math.nan if math.isnan(sum(magnitudes)) else max(magnitudes)


def _float_array(a) -> np.ndarray:
    """A float array of either carrier, so exact and float operands mix."""
    if isinstance(a, Matrix):
        return a.to_float_array()
    return np.asarray(a, dtype=float)


def hadamard(a, b):
    """Entrywise product; operands must have equal dimensions."""
    if isinstance(a, Matrix) and isinstance(b, Matrix):
        return a.hadamard(b)
    a = _float_array(a)
    b = _float_array(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"{a.shape} vs {b.shape}")
    return a * b


def kron(a, b):
    """Kronecker product; accepts matrices or vectors of either carrier."""
    if isinstance(a, Matrix) and isinstance(b, Matrix):
        return a.kron(b)
    return np.kron(_float_array(a), _float_array(b))


@functools.cache
def _lapack():
    """scipy's LAPACK extension ``scipy.linalg._flapack``, loaded on the first
    float LAPACK call.

    Only that extension is loaded, not the ``scipy`` or ``scipy.linalg``
    package: ``find_spec("scipy")`` locates the package's directory without
    running its ``__init__``, and the extension file is found in its
    ``linalg`` subdirectory.  The module is registered under its own name,
    so a later ``import scipy.linalg`` reuses it and its routines are the
    very objects ``scipy.linalg.lapack`` exports.  Raises ImportError when
    scipy is not installed or the extension file is missing.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(path, "linalg") for path in scipy.submodule_search_locations]
    )
    if spec is None:
        raise ImportError(f"cannot find {name}: is scipy installed?", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


@functools.lru_cache(maxsize=16)
def _identity(n: int) -> np.ndarray:
    """A read-only n x n identity; dgesv and dgetrs copy their right-hand side."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def inverse(a):
    """Exact Gauss-Jordan inverse, or float partially pivoted LU.

    The float path runs LAPACK dgesv on (A, I), whose LU and solve give the
    bits of scipy's lu_factor/lu_solve (the first float call loads scipy's
    ``_flapack`` extension alone, not the ``scipy`` or ``scipy.linalg``
    package), and rejects pivots below
    ``PIVOT_RTOL * max|entry|``, or a NaN or infinite entry, with
    NumericallySingularError; the exact path raises SingularMatrixError when
    the determinant vanishes.
    """
    if isinstance(a, Matrix):
        return a.inverse()
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise DimensionMismatchError(f"inverse of a non-square or empty matrix, shape {a.shape}")
    return _lu_inverse(a, np.maximum.reduce(np.abs(a), None))


def _lu_inverse(a: np.ndarray, scale) -> np.ndarray:
    """The float ``inverse`` of a square array whose largest |entry| is ``scale``."""
    if not math.isfinite(scale):
        raise NumericallySingularError("matrix has a NaN or infinite entry")
    if scale == 0:
        raise NumericallySingularError("zero matrix")
    # An exactly singular input leaves a zero pivot (info > 0), on which
    # dgesv factors but does not solve; the check below rejects it.
    lapack = _lapack()
    identity = _identity(a.shape[0])
    lu, piv, inv, info = lapack.dgesv(a, identity)
    pivot = min(map(abs, lu.diagonal().tolist()))
    # A NaN pivot (overflow in the elimination) lets the solve run, as the
    # NaN minimum of numpy's min would; Python's min may skip it.
    if pivot < PIVOT_RTOL * scale and not np.isnan(lu.diagonal()).any():
        raise NumericallySingularError(
            f"pivot {pivot:.3e} below {PIVOT_RTOL:.0e} * max entry {scale:.3e}"
        )
    if info > 0:
        # A zero pivot beside a NaN one passes the check, but dgesv returned
        # the right-hand side unsolved: solve on its LU.
        return lapack.dgetrs(lu, piv, identity)[0]
    return inv


def _check_symmetric(a) -> tuple:
    """(``a`` as a Matrix or float array, scale); raise NotSymmetricError
    unless it is symmetric.

    Exact matrices must be symmetric entry for entry, and their scale is
    None.  Float arrays must be square and nonempty (else
    DimensionMismatchError) and symmetric within
    ``SYMMETRY_RTOL * max(scale, 1)``, where scale is the largest |entry|:
    finite exactly when every entry is, and the float inverse's pivot
    bound.  A float array with a NaN or infinite entry is not compared (its
    difference could warn): the float positive-definiteness test rejects it.
    """
    if isinstance(a, Matrix):
        if a.rows != tuple(zip(*a.rows)):
            raise NotSymmetricError("matrix is not symmetric")
        return a, None
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise DimensionMismatchError(f"expected a nonempty square matrix, got shape {a.shape}")
    # np.maximum.reduce is what ndarray.max calls, without its wrapper.
    scale = np.maximum.reduce(np.abs(a), None)
    # a - a.T is antisymmetric to the bit, so its largest entry is its
    # largest |entry|.
    if math.isfinite(scale) and np.maximum.reduce(a - a.T, None) > SYMMETRY_RTOL * max(scale, 1.0):
        raise NotSymmetricError("matrix is not symmetric within tolerance")
    return a, scale


def _cholesky_lower(a: np.ndarray):
    """dpotrf's lower factor of a symmetric float array, or None unless it is PD.

    dpotrf reads only the lower triangle and lets +inf through on the
    diagonal, so the caller must first reject an ``a`` with a NaN or
    infinite entry: one whose ``_check_symmetric`` scale is not finite.
    """
    factor, info = _lapack().dpotrf(a, lower=1)
    return factor if info == 0 else None


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower-triangular factor with positive diagonal; A must be symmetric PD.

    Raises NotPositiveDefiniteError exactly when ``is_positive_definite``
    is False.
    """
    a, scale = _check_symmetric(np.asarray(a, dtype=float))
    factor = _cholesky_lower(a) if math.isfinite(scale) else None
    if factor is None:
        raise NotPositiveDefiniteError("matrix is not positive definite")
    return factor


def is_positive_definite(a) -> bool:
    """Sylvester criterion (exact scalars) or dpotrf success on finite entries (floats)."""
    a, scale = _check_symmetric(a)
    return (scale is None or math.isfinite(scale)) and _is_positive_definite(a)


def _is_positive_definite(a) -> bool:
    """``is_positive_definite`` for a Matrix, or a float array with finite
    entries, known to be symmetric."""
    if isinstance(a, Matrix):
        # Sylvester's criterion on the pivots; D*A's leading minors are A's
        # times powers of D > 0.
        rows, _ = _rational_scaled(a.rows, "positive-definiteness test")
        pivots, swaps = _bareiss(rows)
        return not swaps and all(p > 0 for p in pivots)
    return _cholesky_lower(a) is not None


# -- file formats ----------------------------------------------------------------
#
# Matrix files: one row per line, whitespace-separated entries, each entry a
# decimal float or exact rational p/q; '#' comments; blank lines ignored.
# Vector files: one entry per line or a single whitespace-separated line.


def _strip_lines(text: str) -> list[str]:
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    return rows


def _entry(token: str, exact: bool):
    """``Fraction(token)`` or its float; ValueError also for q = 0 and float overflow."""
    try:
        value = Fraction(token)
        return value if exact else float(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"bad entry {token!r}") from exc


def parse_matrix_text(text: str, exact: bool = False):
    """A Matrix (exact) or float array; ValueError for an empty file, a bad
    entry or ragged rows, in either mode."""
    rows = [[_entry(tok, exact) for tok in line.split()] for line in _strip_lines(text)]
    if not rows:
        raise ValueError("empty matrix file")
    matrix = Matrix(rows)
    return matrix if exact else np.array(matrix.rows, dtype=float)


def parse_vector_text(text: str, exact: bool = False):
    values = [_entry(tok, exact) for line in _strip_lines(text) for tok in line.split()]
    if not values:
        raise ValueError("empty vector file")
    return tuple(values) if exact else np.array(values, dtype=float)


def load_matrix(path, exact: bool = False):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_matrix_text(handle.read(), exact=exact)


def load_vector(path, exact: bool = False):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_vector_text(handle.read(), exact=exact)


def to_json(value):
    """A Matrix as rows of str, a rational as str, anything else as float(s)."""
    if isinstance(value, Matrix):
        return [[str(v) for v in row] for row in value.rows]
    if isinstance(value, (int, Fraction)):
        return str(value)
    return np.asarray(value, dtype=float).tolist()
