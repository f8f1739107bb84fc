"""Plain-text polynomial grammar: parsing, rendering, and exact evaluation.

Grammar (EBNF)::

    expr     := term (('+' | '-') term)*
    term     := ['-'] factor+            # juxtaposition multiplies
    factor   := base ['^' uint | superscript-digits]
    base     := letter | rational | 'sqrt3' | '(' expr ')'
    rational := int ['/' uint]

Input is UTF-8; ``#`` starts a comment running to end of line; whitespace
between tokens is insignificant.  Variables are single letters, so ``ab``
and ``a b`` both denote a*b; the one multi-letter token, ``sqrt3``, is a
reserved word.  Unicode superscript digits are accepted and mean the same
as ``^k``.

``parse_polynomial`` expands the input into a canonical ``Polynomial``.
``parse_expression`` parses straight into a program of shared
subexpressions, which can be evaluated exactly without expansion; that is
the only practical route for the very large bundled reference polynomial.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .exact import IncompleteAssignmentError, Polynomial, QuadExt3, VariableSet

__all__ = [
    "ParseDiagnostic",
    "PolyParseError",
    "ParsedExpression",
    "parse_expression",
    "parse_polynomial",
    "render_polynomial",
]

_SUPER_DIGITS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")

# One token per match; any other single character falls through to
# ``char``, where str.isspace/str.isalpha decide whether it is whitespace,
# a variable, or an error.
_TOKEN = re.compile(
    r"(?P<skip>[ \t\r\n]+|#[^\n]*)"
    r"|(?P<sqrt3>sqrt3)"
    r"|(?P<num>[0-9]+(?:/[0-9]*)?)"
    r"|(?P<op>[-+^()])"
    r"|(?P<super>[⁰¹²³⁴⁵⁶⁷⁸⁹]+)"
    r"|(?P<char>.)",
    re.DOTALL,
)


@dataclass(frozen=True)
class ParseDiagnostic:
    """Location and context of a syntax error inside the input text."""

    offset: int
    line: int
    column: int
    message: str
    expected: tuple[str, ...] = ()

    def __str__(self):
        text = f"line {self.line}, column {self.column}: {self.message}"
        if self.expected:
            text += f" (expected {', '.join(self.expected)})"
        return text


class PolyParseError(ValueError):
    def __init__(self, diagnostic: ParseDiagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


# Tokens are (kind, value, offset); kinds:
#   num var sqrt3 + - ^ super ( ) end
# Integral literals are int, so integer points stay in integer arithmetic.
def _tokenize(text: str):
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, token, offset = match.lastgroup, match.group(), match.start()
        if kind == "skip":
            continue
        if kind == "num":
            numerator, slash, denominator = token.partition("/")
            value = int(numerator)
            if slash:
                if not denominator:
                    slash_at = offset + len(numerator)
                    raise PolyParseError(_diag(text, slash_at, "malformed rational", ("digit",)))
                if int(denominator) == 0:
                    raise PolyParseError(_diag(text, offset, "zero denominator"))
                value = Fraction(value, int(denominator))
                if value.denominator == 1:
                    value = value.numerator
            tokens.append(("num", value, offset))
        elif kind == "super":
            tokens.append(("super", int(token.translate(_SUPER_DIGITS)), offset))
        elif kind == "char":
            if token.isspace():
                continue
            if not token.isalpha():
                raise PolyParseError(_diag(text, offset, f"unexpected character {token!r}"))
            tokens.append(("var", token, offset))
        else:
            tokens.append((token, None, offset))
    tokens.append(("end", None, len(text)))
    return tokens


def _diag(text: str, offset: int, message: str, expected: tuple[str, ...] = ()):
    line = text.count("\n", 0, offset) + 1
    column = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return ParseDiagnostic(offset, line, column, message, expected)


# The parser emits a program: instruction k computes slot k from earlier
# slots, and equal instructions share one slot, so repeated subexpressions
# are computed once.  Instructions:
#   ("var", name)  ("num", value)  ("pow", slot, k)
#   ("mul", (slot, ...))  ("add", ((sign, slot), ...))
# Each method returns the slot of what it parsed; the last one is the root.
class _Parser:
    _FACTOR_START = ("var", "num", "sqrt3", "(")

    def __init__(self, text: str, allowed: VariableSet | None):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.allowed = allowed
        self.program = []
        self.slots = {}

    def emit(self, instruction) -> int:
        slot = self.slots.get(instruction)
        if slot is None:
            slot = self.slots[instruction] = len(self.program)
            self.program.append(instruction)
        return slot

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, expected=()):
        offset = self.peek()[2]
        raise PolyParseError(_diag(self.text, offset, message, tuple(expected)))

    def parse(self) -> tuple:
        self.expr()
        if self.peek()[0] != "end":
            self.fail(f"unexpected token after expression", ("end of input",))
        return tuple(self.program)

    def expr(self):
        parts = [(1, self.term())]
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            parts.append((1 if op == "+" else -1, self.term()))
        if len(parts) == 1:
            return parts[0][1]
        return self.emit(("add", tuple(parts)))

    def term(self):
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        factors = [self.factor()]
        while self.peek()[0] in self._FACTOR_START:
            factors.append(self.factor())
        slot = factors[0] if len(factors) == 1 else self.emit(("mul", tuple(factors)))
        if sign == -1:
            return self.emit(("add", ((-1, slot),)))
        return slot

    def factor(self):
        base = self.base()
        kind, value, _ = self.peek()
        if kind == "^":
            self.advance()
            kind, value, _ = self.peek()
            if kind != "num" or type(value) is not int:
                self.fail("malformed exponent", ("nonnegative integer",))
            self.advance()
            return self.emit(("pow", base, value))
        if kind == "super":
            self.advance()
            return self.emit(("pow", base, value))
        return base

    def base(self):
        kind, value, offset = self.peek()
        if kind == "num":
            self.advance()
            return self.emit(("num", value))
        if kind == "sqrt3":
            self.advance()
            return self.emit(("num", QuadExt3(0, 1)))
        if kind == "var":
            if self.allowed is not None and value not in self.allowed:
                self.fail(f"unknown identifier {value!r}")
            self.advance()
            return self.emit(("var", value))
        if kind == "(":
            self.advance()
            slot = self.expr()
            if self.peek()[0] != ")":
                self.fail("unbalanced parentheses", (")",))
            self.advance()
            return slot
        self.fail("expected a factor", ("variable", "number", "sqrt3", "("))


def _run(program, point: Mapping[str, object]):
    values = []
    for instruction in program:
        kind = instruction[0]
        if kind == "mul":
            slots = instruction[1]
            total = values[slots[0]]
            for slot in slots[1:]:
                total = total * values[slot]
        elif kind == "add":
            total = 0
            for sign, slot in instruction[1]:
                total = total + values[slot] if sign == 1 else total - values[slot]
        elif kind == "pow":
            total = values[instruction[1]] ** instruction[2]
        elif kind == "var":
            total = point[instruction[1]]
        else:
            total = instruction[1]
        values.append(total)
    return values[-1]


class ParsedExpression:
    """A polynomial kept as its parsed program, evaluated exactly without expansion.

    ``program`` lists the instructions in the order the parser emitted them;
    a subexpression that occurs several times in the text is computed once.
    """

    __slots__ = ("program",)

    def __init__(self, program: tuple):
        self.program = program

    def variable_names(self) -> frozenset:
        return frozenset(ins[1] for ins in self.program if ins[0] == "var")

    def degree_bound(self) -> int:
        """An upper bound on the total degree; cancellation can make it loose."""
        degrees = []
        for instruction in self.program:
            kind = instruction[0]
            if kind == "mul":
                degree = sum(degrees[slot] for slot in instruction[1])
            elif kind == "add":
                degree = max(degrees[slot] for _, slot in instruction[1])
            elif kind == "pow":
                degree = degrees[instruction[1]] * instruction[2]
            else:
                degree = 1 if kind == "var" else 0
            degrees.append(degree)
        return degrees[-1]

    def evaluate(self, point: Mapping[str, object]):
        missing = sorted(self.variable_names() - set(point))
        if missing:
            raise IncompleteAssignmentError(f"no value for variable(s) {missing}")
        return _run(self.program, point)

    def to_polynomial(self, variables: VariableSet | None = None) -> Polynomial:
        names = self.variable_names()
        if variables is None:
            variables = VariableSet(sorted(names))
        value = _run(self.program, {name: Polynomial.variable(variables, name) for name in names})
        if isinstance(value, Polynomial):
            return value
        return Polynomial.constant(variables, value)


def parse_expression(text: str, variables: VariableSet | None = None) -> ParsedExpression:
    """Parse without expanding; raises PolyParseError on any syntax problem."""
    return ParsedExpression(_Parser(text, variables).parse())


def parse_polynomial(text: str, variables: VariableSet | None = None) -> Polynomial:
    """Parse and expand into a canonical Polynomial.

    When ``variables`` is given, every identifier must belong to it and the
    result is ordered by it; otherwise the variables are the letters that
    appear, in alphabetical order.
    """
    expression = parse_expression(text, variables)
    return expression.to_polynomial(variables)


def _render_rational(value: Fraction) -> str:
    return str(value)


def _render_quadext(value: QuadExt3) -> str:
    # Produces a single grammar factor: "5", "2/3 sqrt3", or "(1 - 2 sqrt3)".
    if value.root == 0:
        return _render_rational(value.rat)
    if value.rat == 0:
        mag = abs(value.root)
        body = "sqrt3" if mag == 1 else f"{mag} sqrt3"
        return body if value.root > 0 else f"- {body}"
    root_mag = abs(value.root)
    root_text = "sqrt3" if root_mag == 1 else f"{root_mag} sqrt3"
    sign = "+" if value.root > 0 else "-"
    return f"({value.rat} {sign} {root_text})"


def _coeff_sign_and_text(coeff) -> tuple[int, str]:
    """Split a coefficient into a +-1 sign and a grammar rendering of |coeff|."""
    if isinstance(coeff, QuadExt3):
        leading = coeff.rat if coeff.rat != 0 else coeff.root
        if leading < 0:
            return -1, _render_quadext(-coeff)
        return 1, _render_quadext(coeff)
    coeff = Fraction(coeff)
    if coeff < 0:
        return -1, _render_rational(-coeff)
    return 1, _render_rational(coeff)


def render_polynomial(polynomial: Polynomial) -> str:
    """Canonical graded-lex rendering; parse(render(p)) == p exactly."""
    if polynomial.is_zero:
        return "0"
    names = polynomial.variables.names
    pieces = []
    for index, (mono, coeff) in enumerate(polynomial.sorted_terms()):
        sign, coeff_text = _coeff_sign_and_text(coeff)
        factors = []
        for name, exponent in zip(names, mono):
            if exponent == 1:
                factors.append(name)
            elif exponent > 1:
                factors.append(f"{name}^{exponent}")
        if not factors:
            body = coeff_text
        elif coeff_text == "1":
            body = " ".join(factors)
        else:
            body = coeff_text + " " + " ".join(factors)
        if index == 0:
            pieces.append(body if sign == 1 else f"- {body}")
        else:
            pieces.append(("+ " if sign == 1 else "- ") + body)
    return " ".join(pieces)
