from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irgalab.exact import (
    IncompatibleVariablesError,
    IncompleteAssignmentError,
    Polynomial,
    VariableSet,
)

ABC = VariableSet("abc")


def poly(text, variables=ABC):
    from irgalab.polytext import parse_polynomial

    return parse_polynomial(text, variables)


class TestVariableSet:
    def test_order_is_fixed(self):
        vs = VariableSet("cab")
        assert vs.names == ("c", "a", "b")
        assert vs.index("a") == 1

    def test_rejects_duplicates_and_long_names(self):
        with pytest.raises(ValueError):
            VariableSet("aa")
        with pytest.raises(ValueError):
            VariableSet(["ab"])


class TestPolynomialArithmetic:
    def test_difference_of_squares(self):
        a_plus_b = poly("a + b")
        a_minus_b = poly("a - b")
        assert a_plus_b * a_minus_b == poly("a^2 - b^2")

    def test_multiply_by_zero(self):
        p = poly("a^2 b^2 + a b c")
        assert (p * Polynomial.zero(ABC)).is_zero

    def test_rational_square_expansion(self):
        # The rational form of the paper's sqrt(2 -+ sqrt 3) pair of squares.
        expanded = poly("a b + 1/2 c") ** 2 + poly("c^2") * Fraction(3, 4)
        assert expanded == poly("a^2 b^2 + a b c + c^2")

    def test_rejects_non_rational_operands(self):
        with pytest.raises(TypeError):
            poly("a") + 0.5
        assert poly("a") != 0.5
        assert poly("3/2") == Fraction(3, 2)

    def test_variable_set_mismatch(self):
        other = poly("a + b", VariableSet("ab"))
        with pytest.raises(IncompatibleVariablesError):
            poly("a + b") + other

    def test_pow_validation(self):
        with pytest.raises(ValueError):
            poly("a") ** (-2)


class TestEvaluation:
    def test_pn3_at_ones(self):
        pn3 = poly("a^2 b^2 + a b c + c^2 + a^2 c^2 + b^2 c^2 - 2 a b c^3 + a^2 c^4")
        point = {"a": Fraction(1), "b": Fraction(1), "c": Fraction(1)}
        assert pn3.evaluate(point) == 4

    def test_constant(self):
        one = Polynomial.constant(ABC, 1)
        assert one.evaluate({"a": Fraction(9), "b": Fraction(-2), "c": Fraction(0)}) == 1

    def test_difference_of_squares_value(self):
        p = poly("a^2 - b^2", VariableSet("ab"))
        assert p.evaluate({"a": Fraction(2), "b": Fraction(1)}) == 3

    def test_missing_variable(self):
        with pytest.raises(IncompleteAssignmentError):
            poly("a b c").evaluate({"a": Fraction(1), "b": Fraction(1)})


class TestEqualityAndDiff:
    def test_equal_to_itself_and_expansion(self):
        pn3 = poly("a^2 b^2 + a b c + c^2 + a^2 c^2 + b^2 c^2 - 2 a b c^3 + a^2 c^4")
        assert pn3 == pn3
        assert poly("a^2 + 2 a b + b^2") == poly("(a + b)^2")

    def test_perturbation_difference(self):
        pn3 = poly("a^2 b^2 + a b c + c^2 + a^2 c^2 + b^2 c^2 - 2 a b c^3 + a^2 c^4")
        bumped = pn3 + poly("a b c")
        diff = pn3.diff_terms(bumped)
        assert diff == {(1, 1, 1): (1, 2)}


# Random polynomials for the algebraic laws.
small_coeffs = st.integers(min_value=-6, max_value=6)
monos = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)
random_polys = st.dictionaries(monos, small_coeffs, max_size=6).map(
    lambda terms: Polynomial(ABC, terms)
)


class TestRingLaws:
    @given(random_polys, random_polys, random_polys)
    @settings(max_examples=60, deadline=None)
    def test_distributivity(self, p, q, r):
        assert (p + q) * r == p * r + q * r

    @given(random_polys, random_polys)
    @settings(max_examples=60, deadline=None)
    def test_commutativity(self, p, q):
        assert p * q == q * p
        assert p + q == q + p

    @given(random_polys)
    @settings(max_examples=30, deadline=None)
    def test_insertion_order_independence(self, p):
        reordered = Polynomial(ABC, dict(reversed(list(p.terms.items()))))
        assert reordered == p

    @given(random_polys, random_polys, st.tuples(small_coeffs, small_coeffs, small_coeffs))
    @settings(max_examples=60, deadline=None)
    def test_evaluation_is_ring_homomorphism(self, p, q, values):
        point = dict(zip("abc", map(Fraction, values)))
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
