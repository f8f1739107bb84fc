from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irgalab.exact import Polynomial, QuadExt3, VariableSet
from irgalab.polytext import (
    PolyParseError,
    parse_expression,
    parse_polynomial,
    render_polynomial,
)

PN3_TEXT = "a^2 b^2 + a b c + c^2 + a^2 c^2 + b^2 c^2 - 2 a b c^3 + a^2 c^4"


class TestParsing:
    def test_pn3(self):
        p = parse_polynomial(PN3_TEXT)
        assert len(p) == 7
        assert p.terms[(2, 2, 0)] == 1
        assert p.terms[(1, 1, 3)] == -2

    def test_zero(self):
        assert parse_polynomial("0").is_zero

    def test_square_of_sum(self):
        assert parse_polynomial("(a+b)^2") == parse_polynomial("a^2 + 2 a b + b^2")

    def test_juxtaposition_without_spaces(self):
        assert parse_polynomial("ab", VariableSet("ab")) == parse_polynomial(
            "a b", VariableSet("ab")
        )

    def test_whitespace_and_comments(self):
        text = "# header comment\n  a^2   +\n\tb # trailing\n"
        assert parse_polynomial(text) == parse_polynomial("a^2 + b")

    def test_unicode_superscripts(self):
        assert parse_polynomial("a² b³") == parse_polynomial("a^2 b^3")
        assert parse_polynomial("a¹²") == parse_polynomial("a^12")

    def test_rational_literals(self):
        p = parse_polynomial("3/4 a - 2 b + 1/8")
        assert p.terms[(1, 0)] == Fraction(3, 4)
        assert p.terms[(0, 0)] == Fraction(1, 8)

    def test_sqrt3_keyword(self):
        p = parse_polynomial("sqrt3 a")
        assert p.terms[(1,)] == QuadExt3(0, 1)

    def test_unary_minus(self):
        assert parse_polynomial("-a + b") == parse_polynomial("b - a")
        assert parse_polynomial("-(a + b) c") == parse_polynomial("- a c - b c")


class TestDiagnostics:
    def test_unknown_identifier(self):
        with pytest.raises(PolyParseError) as err:
            parse_polynomial("a + z", VariableSet("abc"))
        diag = err.value.diagnostic
        assert "z" in diag.message
        assert diag.line == 1
        assert diag.column == 5

    def test_unbalanced_parentheses(self):
        with pytest.raises(PolyParseError) as err:
            parse_polynomial("(a + b")
        assert ")" in err.value.diagnostic.expected

    def test_malformed_exponent(self):
        with pytest.raises(PolyParseError) as err:
            parse_polynomial("a^b")
        assert "exponent" in err.value.diagnostic.message

    def test_bad_character(self):
        with pytest.raises(PolyParseError):
            parse_polynomial("a ? b")

    def test_offset_points_into_input(self):
        text = "a +\n b + $"
        with pytest.raises(PolyParseError) as err:
            parse_polynomial(text)
        diag = err.value.diagnostic
        assert 0 <= diag.offset < len(text)
        assert diag.line == 2

    def test_no_partial_result_on_error(self):
        # Any syntax problem raises; nothing is returned.
        with pytest.raises(PolyParseError):
            parse_polynomial("a + + b")


class TestRendering:
    def test_zero(self):
        assert render_polynomial(Polynomial.zero(VariableSet("ab"))) == "0"

    def test_canonical_order(self):
        p = Polynomial(VariableSet("abc"), {(2, 2, 0): 1, (1, 1, 1): 1})
        assert render_polynomial(p) == "a^2 b^2 + a b c"

    def test_negative_leading_term(self):
        p = parse_polynomial("-a^2 + b", VariableSet("ab"))
        assert render_polynomial(p) == "- a^2 + b"

    def test_quadext_coefficients_round_trip(self):
        source = "(4 - 2 sqrt3) a^2 + 2 sqrt3 b - sqrt3 + 1/2"
        p = parse_polynomial(source, VariableSet("ab"))
        assert parse_polynomial(render_polynomial(p), VariableSet("ab")) == p

    def test_pn4_transcription_round_trip(self):
        from irgalab.sos import builtin_polynomial

        pn4 = builtin_polynomial("pn4")
        again = parse_polynomial(render_polynomial(pn4), pn4.variables)
        assert again == pn4


coeffs = st.one_of(
    st.integers(-9, 9).map(Fraction),
    st.fractions(max_denominator=12),
    st.builds(QuadExt3, st.fractions(max_denominator=6), st.fractions(max_denominator=6)),
)
monos = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


@given(st.dictionaries(monos, coeffs, max_size=8))
@settings(max_examples=80, deadline=None)
def test_parse_render_round_trip(terms):
    variables = VariableSet("abc")
    p = Polynomial(variables, terms)
    assert parse_polynomial(render_polynomial(p), variables) == p


def test_expression_evaluation_matches_expansion():
    text = "(a + 2 b)^3 (a - b) + 1/3"
    expression = parse_expression(text)
    polynomial = parse_polynomial(text)
    point = {"a": Fraction(5, 3), "b": Fraction(-7, 2)}
    assert expression.evaluate(point) == polynomial.evaluate(point)


class TestCompiledEvaluation:
    POINTS = (
        {name: Fraction(k - 7, k + 2) for k, name in enumerate("abcdef")},
        {name: QuadExt3(Fraction(k, 3), 1 - k) for k, name in enumerate("abcdef")},
    )

    @pytest.mark.parametrize("asset", ["pn3", "pn4", "s4-entry12"])
    def test_matches_expansion_on_bundled_assets(self, asset):
        from irgalab.sos import builtin_expression

        expression = builtin_expression(asset)
        polynomial = expression.to_polynomial()
        for point in self.POINTS:
            assert expression.evaluate(point) == polynomial.evaluate(point)

    def test_sqrt3_literal(self):
        expression = parse_expression("(sqrt3 a + 1)^2 - 2 sqrt3 a")
        point = {"a": QuadExt3(0, 1)}
        assert expression.evaluate(point) == 10
        assert expression.evaluate(point) == expression.to_polynomial().evaluate(point)

    def test_missing_variable_raises(self):
        from irgalab.exact import IncompleteAssignmentError

        with pytest.raises(IncompleteAssignmentError):
            parse_expression("a b + c").evaluate({"a": 1, "b": 2})

    def test_integer_points_stay_integer(self):
        value = parse_expression("(a + 2 b)^3 - 4/2 a").evaluate({"a": 3, "b": -1})
        assert type(value) is int and value == -5

    def test_size_six_program_shares_subexpressions(self):
        from irgalab.sos import builtin_expression

        expression = builtin_expression("s6-entry12")
        assert len(expression._compiled()) == 881
        assert expression.degree_bound() == 31
        assert expression.variable_names() == frozenset("abcdefghijkmnpq")


# Random expressions paired with their value at POINT, computed directly.
POINT = {"a": Fraction(2, 3), "b": -3, "c": QuadExt3(Fraction(1, 2), 1)}

leaf_expressions = st.one_of(
    st.sampled_from("abc").map(lambda name: (name, POINT[name])),
    st.fractions(min_value=0, max_value=9, max_denominator=5).map(lambda q: (str(q), q)),
    st.just(("sqrt3", QuadExt3(0, 1))),
)


def _combine(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda p: (f"({p[0][0]} + {p[1][0]})", p[0][1] + p[1][1])),
        pair.map(lambda p: (f"({p[0][0]} - {p[1][0]})", p[0][1] - p[1][1])),
        pair.map(lambda p: (f"({p[0][0]}) ({p[1][0]})", p[0][1] * p[1][1])),
        # Repeated subtrees share one slot in the compiled program.
        children.map(lambda c: (f"(({c[0]}) ({c[0]}) - {c[0]})", c[1] * c[1] - c[1])),
        st.tuples(children, st.integers(0, 3)).map(
            lambda p: (f"({p[0][0]})^{p[1]}", p[0][1] ** p[1])
        ),
        children.map(lambda c: (f"-({c[0]})", -c[1])),
    )


@given(st.recursive(leaf_expressions, _combine, max_leaves=12))
@settings(max_examples=80, deadline=None)
def test_compiled_evaluation_matches_direct_arithmetic(case):
    text, value = case
    expression = parse_expression(text)
    assert expression.evaluate(POINT) == value
    assert expression.to_polynomial().evaluate(POINT) == value
