import hashlib
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irgalab.exact import Polynomial, QuadExt3, VariableSet
from irgalab.polytext import (
    ParseDiagnostic,
    PolyParseError,
    parse_expression,
    parse_polynomial,
    render_polynomial,
)

PN3_TEXT = "a^2 b^2 + a b c + c^2 + a^2 c^2 + b^2 c^2 - 2 a b c^3 + a^2 c^4"

# sha256 of repr(program) for the bundled assets: a parser change must
# leave these programs unchanged, instruction for instruction.
PROGRAM_SHA256 = {
    "s6-entry12": "06d72b5e6f75f5cc6052bdba8dfc729ac3798af25601819f03dbfeb3eeb19b0d",
    "pn3": "faf9a581e8978ac85ba3e46458901f490a3f17f147fd62c13ae74c3c97da0975",
    "pn4": "5feda85d3b8c5cb7624dbd438b96033825c2ffd501dba2bc809a35d45be80565",
    "s4-entry12": "9a87304329aef5d1dd56e33f0c16bcabbee8d10485854de4e1e73bee0d7468d4",
}


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

    @pytest.mark.parametrize(
        "text, diagnostic",
        [
            # Lexical errors.
            ("3/0", (0, 1, 1, "zero denominator", ())),
            ("1/", (1, 1, 2, "malformed rational", ("digit",))),
            ("a ? b", (2, 1, 3, "unexpected character '?'", ())),
            ("\uff11", (0, 1, 1, "unexpected character '\uff11'", ())),
            ("\u00bd", (0, 1, 1, "unexpected character '\u00bd'", ())),
            # Syntax errors.
            ("a^b", (2, 1, 3, "malformed exponent", ("nonnegative integer",))),
            ("(a + b", (6, 1, 7, "unbalanced parentheses", (")",))),
            # The whole input is lexed first, so the lexical error wins.
            ("a + + b $", (8, 1, 9, "unexpected character '$'", ())),
        ],
    )
    def test_diagnostics_table(self, text, diagnostic):
        with pytest.raises(PolyParseError) as err:
            parse_expression(text)
        d = err.value.diagnostic
        assert (d.offset, d.line, d.column, d.message, d.expected) == diagnostic

    @pytest.mark.parametrize(
        "text, program",
        [
            ("\u00e9 b", (("var", "\u00e9"), ("var", "b"), ("mul", (0, 1)))),
            ("a\u00a0b", (("var", "a"), ("var", "b"), ("mul", (0, 1)))),
            ("a\u00b2b", (("var", "a"), ("pow", 0, 2), ("var", "b"), ("mul", (1, 2)))),
            ("sqrt33", (("num", QuadExt3(0, 1)), ("num", 3), ("mul", (0, 1)))),
            ("sqrta", (("var", "s"), ("var", "q"), ("var", "r"), ("var", "t"), ("var", "a"),
                       ("mul", (0, 1, 2, 3, 4)))),
        ],
    )
    def test_lexical_edge_cases_parse(self, text, program):
        # Letters and whitespace follow str.isalpha and str.isspace; the
        # superscript two is an exponent, not a letter or a digit.
        assert parse_expression(text).program == program


class TestRendering:
    def test_zero(self):
        assert render_polynomial(Polynomial.zero(VariableSet("ab"))) == "0"

    def test_canonical_order(self):
        p = Polynomial(VariableSet("abc"), {(2, 2, 0): 1, (1, 1, 1): 1})
        assert render_polynomial(p) == "a^2 b^2 + a b c"

    def test_negative_leading_term(self):
        p = parse_polynomial("-a^2 + b", VariableSet("ab"))
        assert render_polynomial(p) == "- a^2 + b"

    @pytest.mark.parametrize(
        "terms, text",
        [
            ({(2, 0): QuadExt3(0, Fraction(2, 3)), (1, 1): QuadExt3(0, 1)},
             "2/3 sqrt3 a^2 + sqrt3 a b"),
            ({(1, 0): QuadExt3(1, -2), (0, 0): QuadExt3(-1, -1)},
             "(1 - 2 sqrt3) a - (1 + sqrt3)"),
            ({(0, 2): QuadExt3(0, -1), (0, 1): QuadExt3(-1, 2), (0, 0): QuadExt3(0, -3)},
             "- sqrt3 b^2 - (1 - 2 sqrt3) b - 3 sqrt3"),
            ({(1, 0): QuadExt3(Fraction(-1, 2)), (0, 0): QuadExt3(5, 1)},
             "- 1/2 a + (5 + sqrt3)"),
        ],
    )
    def test_quadext_coefficient_text(self, terms, text):
        assert render_polynomial(Polynomial(VariableSet("ab"), terms)) == text

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

    def test_invariants_are_computed_once_and_match_a_fresh_computation(self):
        from irgalab.exact import IncompleteAssignmentError
        from irgalab.sos import builtin_expression

        small = parse_expression("(a + 2 b)^3 c - a d + 5")
        assert small.variable_names() == frozenset("abcd")
        assert small.degree_bound() == small.to_polynomial().total_degree() == 4
        expression = builtin_expression("s6-entry12")
        names = expression.variable_names()
        assert names is expression.variable_names()
        assert names == frozenset(ins[1] for ins in expression.program if ins[0] == "var")
        assert expression.degree_bound() == 31
        point = dict.fromkeys(sorted(names - {"g"}), 1)
        with pytest.raises(IncompleteAssignmentError, match=r"\['g'\]"):
            expression.evaluate(point)

    def test_integer_points_stay_integer(self):
        value = parse_expression("(a + 2 b)^3 - 4/2 a").evaluate({"a": 3, "b": -1})
        assert type(value) is int and value == -5

    def test_size_six_program_shares_subexpressions(self):
        from irgalab.sos import builtin_expression

        expression = builtin_expression("s6-entry12")
        assert len(expression.program) == 881
        assert expression.degree_bound() == 31
        assert expression.variable_names() == frozenset("abcdefghijkmnpq")

    @pytest.mark.parametrize("asset, fingerprint", sorted(PROGRAM_SHA256.items()))
    def test_bundled_programs_are_pinned(self, asset, fingerprint):
        from irgalab.sos import builtin_expression

        program = builtin_expression(asset).program
        assert hashlib.sha256(repr(program).encode()).hexdigest() == fingerprint


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


# A reference lexer and parser: offset-carrying tokens from one finditer
# pass and a plain recursive descent.  The package's parser must give the
# same program, or fail with the same diagnostic, on any input.
_REFERENCE_TOKEN = re.compile(
    r"(?P<skip>[ \t\r\n]+|#[^\n]*)"
    r"|(?P<sqrt3>sqrt3)"
    r"|(?P<num>[0-9]+(?:/[0-9]*)?)"
    r"|(?P<op>[-+^()])"
    r"|(?P<super>[⁰¹²³⁴⁵⁶⁷⁸⁹]+)"
    r"|(?P<char>.)",
    re.DOTALL,
)


def _reference_diag(text, offset, message, expected=()):
    line = text.count("\n", 0, offset) + 1
    column = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return ParseDiagnostic(offset, line, column, message, tuple(expected))


def reference_tokenize(text):
    """(kind, value, offset) tokens, ending with ("end", None, len(text))."""
    tokens = []
    for match in _REFERENCE_TOKEN.finditer(text):
        kind, token, offset = match.lastgroup, match.group(), match.start()
        if kind == "skip" or (kind == "char" and token.isspace()):
            continue
        if kind == "num":
            numerator, slash, denominator = token.partition("/")
            value = int(numerator)
            if slash:
                if not denominator:
                    raise PolyParseError(_reference_diag(
                        text, offset + len(numerator), "malformed rational", ("digit",)))
                if int(denominator) == 0:
                    raise PolyParseError(_reference_diag(text, offset, "zero denominator"))
                value = Fraction(value, int(denominator))
                if value.denominator == 1:
                    value = value.numerator
            tokens.append(("num", value, offset))
        elif kind == "super":
            tokens.append(("super", int(token.translate(str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789"))), offset))
        elif kind == "char":
            if not token.isalpha():
                raise PolyParseError(_reference_diag(text, offset, f"unexpected character {token!r}"))
            tokens.append(("var", token, offset))
        else:
            tokens.append((token, None, offset))
    tokens.append(("end", None, len(text)))
    return tokens


def reference_parse(text, allowed=None):
    tokens = reference_tokenize(text)
    program, slots, pos = [], {}, 0

    def fail(message, expected=()):
        raise PolyParseError(_reference_diag(text, tokens[pos][2], message, expected))

    def emit(instruction):
        if instruction not in slots:
            slots[instruction] = len(program)
            program.append(instruction)
        return slots[instruction]

    def expr():
        nonlocal pos
        parts = [(1, term())]
        while tokens[pos][0] in ("+", "-"):
            sign = 1 if tokens[pos][0] == "+" else -1
            pos += 1
            parts.append((sign, term()))
        return parts[0][1] if len(parts) == 1 else emit(("add", tuple(parts)))

    def term():
        nonlocal pos
        sign = 1
        if tokens[pos][0] == "-":
            pos += 1
            sign = -1
        factors = [factor()]
        while tokens[pos][0] in ("var", "num", "sqrt3", "("):
            factors.append(factor())
        slot = factors[0] if len(factors) == 1 else emit(("mul", tuple(factors)))
        return emit(("add", ((-1, slot),))) if sign == -1 else slot

    def factor():
        nonlocal pos
        slot = base()
        kind, value, _ = tokens[pos]
        if kind == "^":
            pos += 1
            kind, value, _ = tokens[pos]
            if kind != "num" or type(value) is not int:
                fail("malformed exponent", ("nonnegative integer",))
            pos += 1
            return emit(("pow", slot, value))
        if kind == "super":
            pos += 1
            return emit(("pow", slot, value))
        return slot

    def base():
        nonlocal pos
        kind, value, _ = tokens[pos]
        if kind == "num":
            pos += 1
            return emit(("num", value))
        if kind == "sqrt3":
            pos += 1
            return emit(("num", QuadExt3(0, 1)))
        if kind == "var":
            if allowed is not None and value not in allowed:
                fail(f"unknown identifier {value!r}")
            pos += 1
            return emit(("var", value))
        if kind == "(":
            pos += 1
            slot = expr()
            if tokens[pos][0] != ")":
                fail("unbalanced parentheses", (")",))
            pos += 1
            return slot
        fail("expected a factor", ("variable", "number", "sqrt3", "("))

    expr()
    if tokens[pos][0] != "end":
        fail("unexpected token after expression", ("end of input",))
    return tuple(program)


_PIECES = [
    "a", "b", "z", "s", "q", "sqrt3", "sqrt", "0", "12", "4/2", "1/3", "3/0", "1/", "007",
    "+", "-", "^", "(", ")", "²", "³¹", " ", "  ", "\n", "\t", "# note\n", "#", "\u00a0",
    "$", "?", "\u00e9", "\u00bd", "\uff11",
]


@given(st.lists(st.sampled_from(_PIECES), max_size=14), st.sampled_from([None, "ab", "abz"]))
@settings(max_examples=400, deadline=None)
def test_parser_matches_reference_on_random_token_strings(pieces, names):
    text = "".join(pieces)
    allowed = None if names is None else VariableSet(names)
    try:
        expected = reference_parse(text, allowed)
    except PolyParseError as err:
        with pytest.raises(PolyParseError) as got:
            parse_expression(text, allowed)
        assert got.value.diagnostic == err.diagnostic
    else:
        assert parse_expression(text, allowed).program == expected
