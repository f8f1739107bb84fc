import hashlib
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irgalab.exact import Polynomial, VariableSet
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

    def test_sqrt3_is_letters_and_a_number(self):
        # No reserved words: "sqrt3" is the product of s, q, r, t and 3.
        assert parse_polynomial("sqrt3 a") == parse_polynomial("3 a q r s t")

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
            ("sqrt33", (("var", "s"), ("var", "q"), ("var", "r"), ("var", "t"), ("num", 33),
                        ("mul", (0, 1, 2, 3, 4)))),
            ("sqrta", (("var", "s"), ("var", "q"), ("var", "r"), ("var", "t"), ("var", "a"),
                       ("mul", (0, 1, 2, 3, 4)))),
        ],
    )
    def test_lexical_edge_cases_parse(self, text, program):
        # Letters and whitespace follow str.isalpha and str.isspace; the
        # superscript two is an exponent, not a letter or a digit.
        assert parse_expression(text).program == program

    def test_nesting_up_to_two_hundred_levels_parses(self):
        text = "(" * 200 + "a + 2" + ")" * 200 + "^3 " + "(" * 200 + "b" + ")" * 200
        assert parse_expression(text).program == reference_parse(text)

    def test_deeper_nesting_is_a_parse_error(self):
        # 5,000 levels would overflow the recursive descent; the diagnostic
        # points at the first '(' nested too deep.
        text = "# deep\n" + "(" * 5000 + "a" + ")" * 5000
        with pytest.raises(PolyParseError) as err:
            parse_expression(text)
        d = err.value.diagnostic
        assert (d.offset, d.line, d.column) == (207, 2, 201)
        assert d.message == "parentheses nested more than 200 deep"
        # A lexical error anywhere in the text still wins.
        with pytest.raises(PolyParseError, match="unexpected character '\\$'"):
            parse_expression(text + " $")


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
            ({(2, 0): Fraction(2, 3), (1, 1): 1}, "2/3 a^2 + a b"),
            ({(1, 0): Fraction(-7, 3), (0, 0): -2}, "- 7/3 a - 2"),
            ({(0, 2): -1, (0, 1): Fraction(-5, 2), (0, 0): 3}, "- b^2 - 5/2 b + 3"),
            ({(1, 0): Fraction(-1, 2), (0, 0): 5}, "- 1/2 a + 5"),
            ({(2, 0): Fraction(2, 3), (1, 1): -1, (0, 1): Fraction(-5, 2), (0, 0): 7},
             "2/3 a^2 - a b - 5/2 b + 7"),
        ],
        ids=["terms0", "terms1", "terms2", "terms3", "terms4"],
    )
    def test_rational_coefficient_text(self, terms, text):
        assert render_polynomial(Polynomial(VariableSet("ab"), terms)) == text

    def test_pn4_transcription_round_trip(self):
        from irgalab.sos import builtin_polynomial

        pn4 = builtin_polynomial("pn4")
        again = parse_polynomial(render_polynomial(pn4), pn4.variables)
        assert again == pn4


coeffs = st.one_of(
    st.integers(-9, 9).map(Fraction),
    st.fractions(max_denominator=12),
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


def program_order_value(program, point):
    """The value of ``program`` at ``point``, one instruction at a time, each
    product and sum taken left to right."""
    values = []
    for instruction in program:
        kind = instruction[0]
        if kind == "mul":
            total = values[instruction[1][0]]
            for slot in instruction[1][1:]:
                total = total * values[slot]
        elif kind == "add":
            total = 0
            for sign, slot in instruction[1]:
                total = total + values[slot] if sign == 1 else total - values[slot]
        elif kind == "pow":
            total = values[instruction[1]] ** instruction[2]
        else:
            total = point[instruction[1]] if kind == "var" else instruction[1]
        values.append(total)
    return values[-1]


class TestCompiledEvaluation:
    POINTS = (
        {name: Fraction(k - 7, k + 2) for k, name in enumerate("abcdef")},
        {name: 2 * k - 5 for k, name in enumerate("abcdef")},
    )

    @pytest.mark.parametrize("asset", ["pn3", "pn4", "s4-entry12"])
    def test_matches_expansion_on_bundled_assets(self, asset):
        from irgalab.sos import builtin_expression

        expression = builtin_expression(asset)
        polynomial = expression.to_polynomial()
        for point in self.POINTS:
            assert expression.evaluate(point) == polynomial.evaluate(point)

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

    def test_size_six_plan_folds_products_into_sums(self):
        from irgalab.sos import builtin_expression

        plan = builtin_expression("s6-entry12")._plan
        assert len(plan) == 147
        folded = [term for step in plan if step[0] == "add" for term in step[1] if term[2]]
        assert len(folded) == 734

    @pytest.mark.parametrize("text", ["(a) ((a) (a))", "(a + (a) ((a) (a)))", "b - (a b) (a)"])
    def test_product_of_a_product_is_not_folded(self, text):
        # The inner product is used once, by a product: it keeps a value of
        # its own, and only the outer one joins the sum.
        for point in self.POINTS:
            a, b = point["a"], point["b"]
            direct = {"(a) ((a) (a))": a * a * a, "(a + (a) ((a) (a)))": a + a * a * a,
                      "b - (a b) (a)": b - a * b * a}[text]
            expression = parse_expression(text)
            assert expression.evaluate(point) == direct
            assert expression.to_polynomial().evaluate(point) == direct

    @pytest.mark.parametrize("asset", ["pn4", "s4-entry12", "s6-entry12"])
    def test_plan_adds_and_multiplies_in_program_order(self, asset):
        from irgalab.sos import builtin_expression

        expression = builtin_expression(asset)
        names = sorted(expression.variable_names())
        # Floats show any change of order; integers must stay int.
        for point in ({name: 1.0 + 0.1 * k for k, name in enumerate(names)},
                      {name: k - 7 for k, name in enumerate(names)}):
            value = expression.evaluate(point)
            assert value == program_order_value(expression.program, point)
            assert type(value) is type(point[names[0]])

    @pytest.mark.parametrize("asset, fingerprint", sorted(PROGRAM_SHA256.items()))
    def test_bundled_programs_are_pinned(self, asset, fingerprint):
        from irgalab.sos import builtin_expression

        program = builtin_expression(asset).program
        assert hashlib.sha256(repr(program).encode()).hexdigest() == fingerprint


# Random expressions paired with their value at POINT, computed directly.
POINT = {"a": Fraction(2, 3), "b": -3, "c": Fraction(-5, 4)}

leaf_expressions = st.one_of(
    st.sampled_from("abc").map(lambda name: (name, POINT[name])),
    st.fractions(min_value=0, max_value=9, max_denominator=5).map(lambda q: (str(q), q)),
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
        while tokens[pos][0] in ("var", "num", "("):
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
        fail("expected a factor", ("variable", "number", "("))

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


# Texts built from a few small groups, repeated and nested, so that the
# parser meets group texts it has parsed before.  The other pieces put
# parentheses in comments, leave a '(' unclosed or a ')' stray, put
# exponents next to groups, and place syntax errors before lexical ones,
# also before lexical errors inside a later group.
_GROUP_PIECES = ["a", "b", "z", "2", "1/3", " + ", " - ", " ", "-"]
_MEMO_PIECES = [
    " + ", " - ", " ", "\n", "^2", "\u00b2", "a^(2)", "(a)\u00b2 (a)^2", "# (\n", "# )\n",
    "(", ")", "+ +", "$", "1/", "3/0", "(b $)", "((1/) a)",
]


@st.composite
def repeated_group_texts(draw):
    bodies = draw(st.lists(
        st.lists(st.sampled_from(_GROUP_PIECES), min_size=1, max_size=5).map("".join),
        min_size=1, max_size=3,
    ))
    for _ in range(draw(st.integers(0, 2))):
        # A group of earlier groups, itself available for repeating.
        parts = st.one_of(st.sampled_from(bodies).map("({})".format), st.sampled_from(_GROUP_PIECES))
        bodies.append("".join(draw(st.lists(parts, min_size=1, max_size=4))))
    groups = st.sampled_from(bodies).map("({})".format)
    pieces = st.one_of(groups, groups, st.sampled_from(_GROUP_PIECES), st.sampled_from(_MEMO_PIECES))
    return "".join(draw(st.lists(pieces, min_size=1, max_size=10)))


@given(repeated_group_texts(), st.sampled_from([None, "ab", "abz"]))
@example("(a # (\n+ b) (a # )\n+ b) + (a # x\n+ b)^2", None)
@example("(a + b) + (a + b", None)
@example("((a)) (a)) + ((a)", None)
@example("(a + b)\u00b2 + (a + b)^2 - a^(2)", None)
@example("(a + b) (a + + b) + (a + + b) $", None)
@example("(a + + b) + (a + + b) (b $)", None)
@example("(a z) + (a z)", "ab")
@example("(a z) + ((a z) b)^2 (a z)", "abz")
@settings(max_examples=400, deadline=None)
def test_repeated_groups_parse_as_the_reference_does(text, names):
    allowed = None if names is None else VariableSet(names)
    try:
        expected = reference_parse(text, allowed)
    except PolyParseError as err:
        with pytest.raises(PolyParseError) as got:
            parse_expression(text, allowed)
        assert got.value.diagnostic == err.diagnostic
    else:
        assert parse_expression(text, allowed).program == expected


def test_each_distinct_group_of_the_size_six_reference_is_lexed_once(monkeypatch):
    from irgalab import polytext
    from irgalab.sos import _read_asset

    text = _read_asset("s6-entry12")
    lexed = []
    lex = polytext._Parser.lex

    def recording_lex(parser, opening):
        lexed.append(parser.text[opening + 1:parser.close[opening]])
        return lex(parser, opening)

    monkeypatch.setattr(polytext._Parser, "lex", recording_lex)
    parse_expression(text)
    # The group texts, found independently of the parser's own match.
    code = re.sub(r"#[^\n]*", lambda match: " " * len(match.group()), text)
    groups, stack = [], []
    for at, char in enumerate(code):
        if char == "(":
            stack.append(at)
        elif char == ")":
            groups.append(code[stack.pop() + 1:at])
    assert len(groups) == 1864 and len(set(groups)) == 249
    assert lexed[0] == code
    assert sorted(lexed[1:]) == sorted(set(groups))
