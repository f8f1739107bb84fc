import importlib.machinery
import importlib.util
import itertools
import math
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import irgalab
from irgalab import linalg
from irgalab.exact import Polynomial, VariableSet
from irgalab.irga import random_pd
from irgalab.linalg import (
    _adjugate_det,
    _integer_scaled,
    DimensionMismatchError,
    Matrix,
    NotPositiveDefiniteError,
    NotSymmetricError,
    NumericallySingularError,
    SingularMatrixError,
    adjugate_entry,
    cholesky,
    hadamard,
    inverse,
    is_positive_definite,
    kron,
    parse_matrix_text,
    parse_vector_text,
    to_json,
)


def frac_matrix(rows):
    return Matrix([[Fraction(v) for v in row] for row in rows])


def random_rational_matrix(rng, n, denom=8, top=9):
    while True:
        m = frac_matrix(
            [[Fraction(rng.randint(-top, top), rng.randint(1, denom)) for _ in range(n)] for _ in range(n)]
        )
        if m.det() != 0:
            return m


class TestHadamard:
    def test_identity(self):
        i2 = Matrix.identity(2)
        assert hadamard(i2, i2) == i2

    def test_worked_two_by_two(self):
        p = frac_matrix([[2, 1], [1, 1]])
        p_inv = frac_matrix([[1, -1], [-1, 2]])
        assert hadamard(p, p_inv) == frac_matrix([[2, -1], [-1, 2]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hadamard(np.ones((2, 3)), np.ones((3, 2)))


class TestKron:
    def test_diagonals(self):
        a = Matrix.diagonal([Fraction(1), Fraction(2)])
        b = Matrix.diagonal([Fraction(3), Fraction(4)])
        assert kron(a, b) == Matrix.diagonal([Fraction(v) for v in (3, 4, 6, 8)])

    def test_identities(self):
        assert kron(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)

    def test_mixed_product_property_exact(self):
        rng = random.Random(11)
        for _ in range(10):
            a = random_rational_matrix(rng, 2)
            b = random_rational_matrix(rng, 2)
            left = kron(a, b) @ kron(a.inverse(), b.inverse())
            assert left == Matrix.identity(4)

    def test_mixed_product_three_by_three(self):
        rng = random.Random(13)
        for _ in range(3):
            a = random_rational_matrix(rng, 3)
            b = random_rational_matrix(rng, 3)
            c = random_rational_matrix(rng, 3)
            d = random_rational_matrix(rng, 3)
            assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


class TestInverse:
    def test_worked_example(self):
        assert frac_matrix([[2, 1], [1, 1]]).inverse() == frac_matrix([[1, -1], [-1, 2]])

    def test_identity(self):
        assert Matrix.identity(3).inverse() == Matrix.identity(3)

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            frac_matrix([[1, 1], [1, 1]]).inverse()

    def test_float_singular(self):
        with pytest.raises(NumericallySingularError):
            inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", [(0, 0), (0, 1)])
    def test_float_non_finite_raises(self, bad, position):
        a = np.eye(2)
        a[position] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericallySingularError, match="NaN or infinite"):
                inverse(a)

    def test_float_inverse(self):
        a = np.array([[2.0, 1.0], [1.0, 1.0]])
        assert np.abs(inverse(a) @ a - np.eye(2)).max() < 1e-12

    def test_exact_inverse_random(self):
        rng = random.Random(3)
        for n in range(1, 7):
            m = random_rational_matrix(rng, n)
            assert m @ m.inverse() == Matrix.identity(n)

    def test_adjugate_agrees_with_det_times_inverse(self):
        rng = random.Random(5)
        for n in (2, 3, 4):
            m = random_rational_matrix(rng, n)
            det = m.det()
            inv = m.inverse()
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert adjugate_entry(m, i, j) == det * inv[i - 1, j - 1]


def reference_adjugate(m):
    """adj(m) from n^2 cofactor determinants, independent of the Gauss-Jordan pass."""
    n = m.n_rows
    if n == 1:
        return [[1]]
    return [[adjugate_entry(m, i + 1, j + 1) for j in range(n)] for i in range(n)]


@st.composite
def rational_matrices(draw):
    """Square rational matrices with many zero entries: row swaps and singular cases are common."""
    n = draw(st.integers(1, 7))
    entry = st.one_of(st.just(Fraction(0)), st.fractions(-5, 5, max_denominator=7))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows[0][0] = Fraction(0)
    return Matrix(rows)


class TestGaussJordanInverse:
    @given(rational_matrices())
    @settings(max_examples=60, deadline=None)
    def test_equals_adjugate_over_determinant(self, m):
        det = m.det()
        # The Gauss-Jordan pass runs on the integer matrix D*A.
        scaled = Matrix(_integer_scaled(m.rows)[0])
        if det == 0:
            with pytest.raises(SingularMatrixError):
                m.inverse()
            with pytest.raises(SingularMatrixError):
                _adjugate_det(scaled.rows)
            return
        assert _adjugate_det(scaled.rows) == (reference_adjugate(scaled), scaled.det())
        adj = reference_adjugate(m)
        inv = m.inverse()
        n = m.n_rows
        assert all(type(v) is Fraction for row in inv.rows for v in row)
        assert inv == Matrix([[Fraction(adj[i][j]) / det for j in range(n)] for i in range(n)])

    def test_integer_matrix_gives_integer_adjugate(self):
        m = Matrix([[0, 2, 1], [1, 1, 0], [3, 0, 1]])  # zero leading entry: needs a row swap
        adj, det = _adjugate_det(m.rows)
        assert det == m.det() == -5
        assert adj == reference_adjugate(m)
        assert all(type(v) is int for row in adj for v in row)
        assert m @ m.inverse() == Matrix.identity(3)

    def test_permutation_matrix(self):
        m = frac_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert m.inverse() == m.transpose()

    def test_polynomial_entries_are_rejected(self):
        variables = VariableSet("a")
        a = Polynomial.variable(variables, "a")
        m = Matrix([[a * a + 1, a], [a, Polynomial.constant(variables, 1)]])
        assert m.det() == Polynomial.constant(variables, 1)  # cofactor expansion
        with pytest.raises(TypeError):
            m.inverse()
        with pytest.raises(TypeError):
            inverse(m)
        with pytest.raises(TypeError):
            is_positive_definite(m)


class TestFloatInverse:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_bit_identical_to_scipy_lu(self, n):
        # The same LAPACK routines lu_factor/lu_solve run, so every bit agrees.
        for seed in range(25):
            for band in (2.0, 10.0):
                p = random_pd(n, seed, rng_range=band).p
                t = p * inverse(p)
                for a in (p, t):
                    expected = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), np.eye(n))
                    assert np.array_equal(inverse(a), expected)


    def test_nan_pivot_lets_the_solve_run(self):
        # Elimination on these finite entries overflows to a NaN pivot.
        # numpy's min of the pivots is then NaN, never below the bound, so
        # the solve runs, although a finite pivot (1.0) is below it.
        big = 1e308
        a = np.array([[1.0, big, -big], [1.0, -big, big], [1.0, big, big]])
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
        pivots = np.abs(lu.diagonal())
        assert np.isnan(pivots).any() and np.nanmin(pivots) < 1e-12 * big
        expected = scipy.linalg.lu_solve((lu, piv), np.eye(3), check_finite=False)
        assert np.array_equal(inverse(a), expected, equal_nan=True)

    def test_symmetric_check_bound_is_the_largest_difference(self):
        # Rejected exactly when max|a - a^T| exceeds SYMMETRY_RTOL * max(scale, 1).
        rng = np.random.default_rng(41)
        for n in range(2, 9):
            for _ in range(20):
                a = rng.uniform(-10.0, 10.0, (n, n))
                a = a + a.T
                i, j = rng.choice(n, 2, replace=False)
                a[i, j] += rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * 1e-10 * np.abs(a).max()
                expected = np.abs(a - a.T).max() > 1e-10 * max(np.abs(a).max(), 1.0)
                try:
                    linalg._check_symmetric(a)
                    rejected = False
                except NotSymmetricError:
                    rejected = True
                assert rejected == expected


class TestMaxAbs:
    @pytest.mark.parametrize(
        "values",
        [[0.0], [-3.0, 2.0], [1e-300, -0.0, 0.0], [np.inf, 1.0], [1.0, -np.inf, np.inf]],
    )
    def test_equals_numpy(self, values):
        assert linalg._max_abs(values) == float(np.abs(values).max())

    @pytest.mark.parametrize("position", range(4))
    def test_nan_anywhere_is_nan(self, position):
        # The builtin max keeps a NaN only in first place; numpy's anywhere.
        values = [2.0, -5.0, np.inf, 1.0]
        values[position] = np.nan
        assert math.isnan(float(np.abs(values).max()))
        assert math.isnan(linalg._max_abs(values))


# Run in a fresh interpreter, since this module imports scipy.linalg: the
# float inverses are taken before anything imports scipy.linalg, which is
# imported only afterwards to compare them and the loaded LAPACK routines.
_FRESH_INVERSE_PROBE = """
import sys
import numpy as np
from irgalab import linalg
from irgalab.irga import random_pd
assert "scipy.linalg" not in sys.modules
inverses = []
for n in range(2, 8):
    for seed in range(25):
        for band in (2.0, 10.0):
            p = random_pd(n, seed, rng_range=band).p
            p_inv = linalg.inverse(p)
            t = p * p_inv
            inverses += [(p, p_inv), (t, linalg.inverse(t))]
assert "scipy.linalg" not in sys.modules
import scipy.linalg
for a, got in inverses:
    expected = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), np.eye(len(a)))
    assert np.array_equal(got, expected)
lapack = linalg._lapack()
assert all(getattr(scipy.linalg.lapack, name) is getattr(lapack, name)
           for name in ("dgetrf", "dgetrs", "dpotrf"))
print(len(inverses))
"""


def test_first_float_inverses_load_only_the_lapack_extension():
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_INVERSE_PROBE],
        capture_output=True,
        text=True,
        cwd=Path(irgalab.__file__).resolve().parent.parent,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "600\n"


@pytest.mark.parametrize("installed", [False, True], ids=["no-scipy", "no-extension"])
def test_missing_lapack_extension_is_an_import_error(monkeypatch, tmp_path, installed):
    # find_spec("scipy") gives None without scipy; with a scipy whose linalg
    # directory lacks the extension file, PathFinder gives None.
    scipy = None
    if installed:
        (tmp_path / "linalg").mkdir()
        scipy = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        scipy.submodule_search_locations.append(str(tmp_path))
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(
        importlib.util, "find_spec", lambda name, *args: scipy if name == "scipy" else find_spec(name, *args)
    )
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    linalg._lapack.cache_clear()
    try:
        with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack") as raised:
            linalg._lapack()
    finally:
        linalg._lapack.cache_clear()
    assert raised.value.name == "scipy.linalg._flapack"


def leibniz_det(rows):
    """sum over permutations s of sign(s) * prod_i rows[i][s(i)]."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


# Symmetric, det 1; Bareiss swaps rows 0 and 1, then rows 2 and 3.
SWAP_TWICE = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]


def upper_half(sym):
    """The A with A + A^T == sym: sym's strict upper triangle and half its diagonal."""
    n = len(sym)
    return Matrix(
        [[Fraction(sym[i][j]) / (2 if i == j else 1) if i <= j else Fraction(0)
          for j in range(n)] for i in range(n)]
    )


POLY_VARIABLES = VariableSet("ab")
small_polynomials = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-4, 4), max_size=3
).map(lambda terms: Polynomial(POLY_VARIABLES, terms))


class TestDeterminant:
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.one_of(st.integers(-9, 9), st.fractions(-5, 5, max_denominator=7)),
                    min_size=n,
                    max_size=n,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    # Zero pivots force row swaps: one, one after a step, two; a zero column
    # ends the pass singular; 1x1 matrices have no elimination step.
    @example([[0, 1], [1, 0]])
    @example([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    @example(SWAP_TWICE)
    @example([[1, 0, 2], [3, 0, 4], [5, 0, 6]])
    @example([[0]])
    @example([[-3]])
    @example([[5]])
    @settings(max_examples=80, deadline=None)
    def test_exact_det_equals_leibniz_sum(self, rows):
        det = Matrix(rows).det()
        assert det == leibniz_det(rows)
        if all(Fraction(v).denominator == 1 for row in rows for v in row):
            assert type(det) is int

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(small_polynomials, min_size=n, max_size=n), min_size=n, max_size=n
            )
        ),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    )
    @settings(max_examples=40, deadline=None)
    def test_polynomial_det_commutes_with_evaluation(self, rows, values):
        point = dict(zip("ab", values))
        at_point = Matrix([[entry.evaluate(point) for entry in row] for row in rows])
        assert Matrix(rows).det().evaluate(point) == at_point.det()

    def test_polynomial_det_with_integer_leading_entry(self):
        a = Polynomial.variable(VariableSet("a"), "a")
        m = Matrix([[0, a, a], [a, 1, a], [a, a, 1]])
        assert m.det() == 2 * a**3 - 2 * a**2


class TestAdjugateEntry:
    def test_identity_off_diagonal(self):
        variables = VariableSet("a")
        one = Polynomial.constant(variables, 1)
        zero = Polynomial.zero(variables)
        i3 = Matrix.identity(3, one=one, zero=zero)
        assert adjugate_entry(i3, 1, 2).is_zero

    def test_two_by_two_hadamard_form(self):
        from irgalab.polytext import parse_polynomial

        variables = VariableSet("a")
        t = Matrix(
            [
                [parse_polynomial("1 + a^2", variables), parse_polynomial("- a^2", variables)],
                [parse_polynomial("- a^2", variables), parse_polynomial("a^2 + 1", variables)],
            ]
        )
        assert adjugate_entry(t, 1, 2) == parse_polynomial("a^2", variables)

    def test_index_validation(self):
        with pytest.raises(IndexError):
            adjugate_entry(Matrix.identity(2), 0, 1)
        with pytest.raises(DimensionMismatchError):
            adjugate_entry(frac_matrix([[1]]), 1, 1)


class TestCholesky:
    def test_worked_example(self):
        l = cholesky(np.array([[4.0, 2.0], [2.0, 2.0]]))
        assert np.abs(l - np.array([[2.0, 0.0], [1.0, 1.0]])).max() < 1e-12

    def test_identity(self):
        assert np.abs(cholesky(np.eye(4)) - np.eye(4)).max() == 0

    def test_not_pd(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_reconstruction_tolerance(self):
        rng = np.random.default_rng(7)
        for n in (2, 4, 6, 8):
            a = rng.standard_normal((n, n))
            p = a @ a.T + n * np.eye(n)
            l = cholesky(p)
            assert np.abs(l @ l.T - p).max() <= 1e-9 * np.abs(p).max()


NON_FINITE = {
    "nan-diagonal": np.array([[np.nan, 0.0], [0.0, 1.0]]),
    "nan-upper-only": np.array([[1.0, np.nan], [0.0, 1.0]]),
    "inf-diagonal": np.array([[np.inf, 0.0], [0.0, 1.0]]),
}


def numpy_cholesky_succeeds(a):
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


class TestOneCholesky:
    """``cholesky`` and the float ``is_positive_definite`` share one dpotrf."""

    NOT_PD = [
        np.array([[1.0, 2.0], [2.0, 1.0]]),
        np.array([[1.0, 1.0], [1.0, 1.0]]),  # singular
        np.zeros((3, 3)),
        np.array([[0.0, 0.0], [0.0, 1.0]]),
        np.array([[-1.0]]),
    ]

    def test_raises_exactly_when_not_positive_definite(self):
        rng = np.random.default_rng(11)
        verdicts = set()
        for _ in range(300):
            # Gram matrices of rank k <= n (singular when k < n), shifted
            # by a multiple of I that is zero a third of the time.
            n = int(rng.integers(1, 7))
            a = rng.standard_normal((n, int(rng.integers(0, n + 1))))
            shift = float(rng.choice([0.0, rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]))
            p = a @ a.T + shift * np.eye(n)
            pd = is_positive_definite(p)
            try:
                cholesky(p)
            except NotPositiveDefiniteError:
                assert not pd
            else:
                assert pd
            verdicts.add(pd)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("band", [2.0, 10.0, 30.0, 300.0])
    def test_verdicts_agree_with_numpy_cholesky(self, n, band):
        for seed in range(40):
            p = random_pd(n, seed, rng_range=band).p
            assert is_positive_definite(p) == numpy_cholesky_succeeds(p)

    @pytest.mark.parametrize("a", NOT_PD)
    def test_not_pd_and_singular_cases(self, a):
        assert not numpy_cholesky_succeeds(a)
        assert not is_positive_definite(a)
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(a)

    @pytest.mark.parametrize("name", sorted(NON_FINITE))
    def test_non_finite_is_not_positive_definite(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_positive_definite(NON_FINITE[name])
            with pytest.raises(NotPositiveDefiniteError):
                cholesky(NON_FINITE[name])


class TestPositiveDefinite:
    def test_identity(self):
        assert is_positive_definite(np.eye(3))
        assert is_positive_definite(Matrix.identity(3))

    def test_indefinite(self):
        assert not is_positive_definite(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert not is_positive_definite(frac_matrix([[1, 2], [2, 1]]))

    def test_zero_leading_minor(self):
        assert not is_positive_definite(frac_matrix([[0, 0], [0, 1]]))
        assert not is_positive_definite(frac_matrix([[1, 1, 0], [1, 1, 0], [0, 0, 1]]))
        assert not is_positive_definite(Matrix([[2, 1, 0], [1, 1, 1], [0, 1, 1]]))  # det 0

    @given(rational_matrices(), st.booleans())
    @example(upper_half([[0, 1], [1, 0]]), False)
    @example(upper_half([[1, 1, 0], [1, 1, 1], [0, 1, 1]]), False)
    @example(upper_half(SWAP_TWICE), False)
    @example(upper_half([[1, 0, 1], [0, 0, 0], [1, 0, 2]]), False)
    @example(upper_half([[0]]), False)
    @example(upper_half([[-3]]), False)
    @example(upper_half([[5]]), False)
    @settings(max_examples=80, deadline=None)
    def test_exact_agrees_with_leading_minors(self, a, gram):
        # A^T A is PD or has a zero minor; A + A^T is mostly indefinite.
        sym = a.transpose() @ a if gram else a + a.transpose()
        n = sym.n_rows
        expected = all(
            Matrix([row[:k] for row in sym.rows[:k]]).det() > 0 for k in range(1, n + 1)
        )
        assert is_positive_definite(sym) == expected

    def test_worked_demo_matrix(self):
        from irgalab.linalg import load_matrix
        from irgalab.sos import data_path

        p = load_matrix(data_path("gauge4_demo.mat"))
        assert is_positive_definite(p)


class TestFileFormats:
    def test_matrix_round_trip_exact(self):
        text = "# comment\n1/2 3\n\n-2 0.25  # trailing\n"
        m = parse_matrix_text(text, exact=True)
        assert m == frac_matrix([[Fraction(1, 2), 3], [-2, Fraction(1, 4)]])

    def test_matrix_float(self):
        m = parse_matrix_text("1 2\n3 4\n")
        assert m.dtype == float and m[1, 1] == 4.0

    def test_vector_forms(self):
        assert list(parse_vector_text("1 2 3")) == [1.0, 2.0, 3.0]
        assert list(parse_vector_text("1\n2\n3\n")) == [1.0, 2.0, 3.0]
        assert parse_vector_text("1/3", exact=True) == (Fraction(1, 3),)

    @pytest.mark.parametrize(
        "token, exact",
        [("1/0", False), ("1/0", True), ("nan", False), ("nan", True),
         ("x", False), ("x", True), ("1e400", False)],
    )
    def test_bad_entry_rejected(self, token, exact):
        with pytest.raises(ValueError):
            parse_matrix_text(f"1 {token}\n{token} 1\n", exact=exact)
        with pytest.raises(ValueError):
            parse_vector_text(f"1 {token}", exact=exact)

    def test_to_json(self):
        assert to_json(frac_matrix([[Fraction(1, 2), 3]])) == [["1/2", "3"]]
        assert to_json(Fraction(-1, 3)) == "-1/3"
        assert to_json(np.array([[0.5, 2.0]])) == [[0.5, 2.0]]
        assert to_json(np.float64(0.25)) == 0.25

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_matrix_text("# nothing here\n")
