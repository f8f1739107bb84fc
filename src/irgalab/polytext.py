"""Plain-text polynomial grammar: parsing, rendering, and tree evaluation.

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
``parse_expression`` keeps the parse tree, which can be evaluated exactly
without expansion; that is the only practical route for the very large
bundled reference polynomial.
"""

from __future__ import annotations

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

_SUPERSCRIPTS = "⁰¹²³⁴⁵⁶⁷⁸⁹"
_SUPER_VALUE = {ch: i for i, ch in enumerate(_SUPERSCRIPTS)}


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


def _is_ascii_digit(ch: str) -> bool:
    # str.isdigit() also accepts the unicode superscripts, which must lex
    # as exponents instead.
    return "0" <= ch <= "9"


# Tokens are (kind, value, offset); kinds:
#   num var sqrt3 + - ^ super ( ) end
def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        if text.startswith("sqrt3", i):
            tokens.append(("sqrt3", None, i))
            i += 5
            continue
        if ch.isalpha():
            tokens.append(("var", ch, i))
            i += 1
            continue
        if _is_ascii_digit(ch):
            start = i
            while i < n and _is_ascii_digit(text[i]):
                i += 1
            numerator = int(text[start:i])
            if i < n and text[i] == "/":
                j = i + 1
                if j < n and _is_ascii_digit(text[j]):
                    while j < n and _is_ascii_digit(text[j]):
                        j += 1
                    denominator = int(text[i + 1 : j])
                    if denominator == 0:
                        raise PolyParseError(_diag(text, start, "zero denominator"))
                    tokens.append(("num", Fraction(numerator, denominator), start))
                    i = j
                    continue
                raise PolyParseError(_diag(text, i, "malformed rational", ("digit",)))
            tokens.append(("num", Fraction(numerator), start))
            continue
        if ch in "+-^()":
            tokens.append((ch, None, i))
            i += 1
            continue
        if ch in _SUPER_VALUE:
            start = i
            value = 0
            while i < n and text[i] in _SUPER_VALUE:
                value = value * 10 + _SUPER_VALUE[text[i]]
                i += 1
            tokens.append(("super", value, start))
            continue
        raise PolyParseError(_diag(text, i, f"unexpected character {ch!r}"))
    tokens.append(("end", None, n))
    return tokens


def _diag(text: str, offset: int, message: str, expected: tuple[str, ...] = ()):
    line = text.count("\n", 0, offset) + 1
    column = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return ParseDiagnostic(offset, line, column, message, expected)


# Parse trees are nested tuples:
#   ("num", Fraction)  ("sqrt3",)  ("var", name)
#   ("add", (sign, node), ...)  ("mul", node, ...)  ("pow", node, k)
class _Parser:
    _FACTOR_START = ("var", "num", "sqrt3", "(")

    def __init__(self, text: str, allowed: VariableSet | None):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.allowed = allowed

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, expected=()):
        offset = self.peek()[2]
        raise PolyParseError(_diag(self.text, offset, message, tuple(expected)))

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            self.fail(f"unexpected token after expression", ("end of input",))
        return node

    def expr(self):
        parts = [(1, self.term())]
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            parts.append((1 if op == "+" else -1, self.term()))
        if len(parts) == 1 and parts[0][0] == 1:
            return parts[0][1]
        return ("add",) + tuple(parts)

    def term(self):
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        factors = [self.factor()]
        while self.peek()[0] in self._FACTOR_START:
            factors.append(self.factor())
        node = factors[0] if len(factors) == 1 else ("mul",) + tuple(factors)
        if sign == -1:
            return ("add", (-1, node))
        return node

    def factor(self):
        base = self.base()
        kind, value, _ = self.peek()
        if kind == "^":
            self.advance()
            kind, value, _ = self.peek()
            if kind != "num" or value.denominator != 1:
                self.fail("malformed exponent", ("nonnegative integer",))
            self.advance()
            return ("pow", base, int(value))
        if kind == "super":
            self.advance()
            return ("pow", base, value)
        return base

    def base(self):
        kind, value, offset = self.peek()
        if kind == "num":
            self.advance()
            return ("num", value)
        if kind == "sqrt3":
            self.advance()
            return ("sqrt3",)
        if kind == "var":
            if self.allowed is not None and value not in self.allowed:
                self.fail(f"unknown identifier {value!r}")
            self.advance()
            return ("var", value)
        if kind == "(":
            self.advance()
            node = self.expr()
            if self.peek()[0] != ")":
                self.fail("unbalanced parentheses", (")",))
            self.advance()
            return node
        self.fail("expected a factor", ("variable", "number", "sqrt3", "("))


# A compiled program is the parse tree in post-order with equal subtrees
# merged: instruction k computes slot k from earlier slots.  Instructions:
#   ("var", name)  ("num", value)  ("pow", slot, k)
#   ("mul", (slot, ...))  ("add", ((sign, slot), ...))
# Integral literals are stored as int, so integer points stay in integer
# arithmetic; the last instruction is the root.
def _compile(tree) -> tuple:
    program = []
    slots = {}

    def emit(instruction):
        slot = slots.get(instruction)
        if slot is None:
            slot = slots[instruction] = len(program)
            program.append(instruction)
        return slot

    def visit(node):
        kind = node[0]
        if kind == "var":
            return emit(node)
        if kind == "num":
            value = node[1]
            return emit(("num", value.numerator if value.denominator == 1 else value))
        if kind == "sqrt3":
            return emit(("num", QuadExt3(0, 1)))
        if kind == "pow":
            return emit(("pow", visit(node[1]), node[2]))
        if kind == "mul":
            return emit(("mul", tuple(visit(child) for child in node[1:])))
        if kind == "add":
            return emit(("add", tuple((sign, visit(child)) for sign, child in node[1:])))
        raise AssertionError(f"unknown node kind {kind}")

    visit(tree)
    return tuple(program)


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
    """A syntax tree that can be evaluated exactly without expansion.

    The first evaluation compiles the tree into a program in which equal
    subtrees are computed once; the program is kept for later calls.
    """

    __slots__ = ("tree", "_program")

    def __init__(self, tree):
        self.tree = tree
        self._program = None

    def _compiled(self) -> tuple:
        if self._program is None:
            self._program = _compile(self.tree)
        return self._program

    def variable_names(self) -> frozenset:
        return frozenset(ins[1] for ins in self._compiled() if ins[0] == "var")

    def degree_bound(self) -> int:
        """An upper bound on the total degree; cancellation can make it loose."""
        degrees = []
        for instruction in self._compiled():
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
        return _run(self._compiled(), point)

    def to_polynomial(self, variables: VariableSet | None = None) -> Polynomial:
        names = self.variable_names()
        if variables is None:
            variables = VariableSet(sorted(names))
        value = _run(
            self._compiled(), {name: Polynomial.variable(variables, name) for name in names}
        )
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
