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

_DIGITS = "0123456789"
_SUPERSCRIPTS = "⁰¹²³⁴⁵⁶⁷⁸⁹"
_SUPER_DIGITS = str.maketrans(_SUPERSCRIPTS, _DIGITS)

# One token per match of group 1: sqrt3, a number, a run of superscript
# digits, or any other single non-whitespace character (an operator, a
# letter, or an error).  A comment matches with group 1 empty, and
# whitespace (\s, which is str.isspace) matches nothing, so findall skips
# both.  A token's kind is read from its first character.
_TOKEN = re.compile(
    r"#[^\n]*|(sqrt3|[0-9]+(?:/[0-9]*)?|[⁰¹²³⁴⁵⁶⁷⁸⁹]+|\S)"
)
_END = ""  # follows the last token; no token is empty


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


def _lexical_error(token: str):
    """None for a valid token, else (offset within the token, message, expected)."""
    if token[0] in _DIGITS:
        numerator, slash, denominator = token.partition("/")
        if slash and not denominator:
            return len(numerator), "malformed rational", ("digit",)
        if slash and int(denominator) == 0:
            return 0, "zero denominator", ()
        return None
    if len(token) > 1 or token in "+-^()" or token in _SUPERSCRIPTS or token.isalpha():
        return None
    return 0, f"unexpected character {token!r}", ()


def _raise_first_lexical_error(text: str):
    for match in _TOKEN.finditer(text):
        error = match.group(1) and _lexical_error(match.group(1))
        if error:
            delta, message, expected = error
            raise PolyParseError(_diag(text, match.start() + delta, message, expected))


def _diag(text: str, offset: int, message: str, expected: tuple[str, ...] = ()):
    line = text.count("\n", 0, offset) + 1
    column = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return ParseDiagnostic(offset, line, column, message, expected)


# The parser emits a program: instruction k computes slot k from earlier
# slots, and equal instructions share one slot, so repeated subexpressions
# are computed once.  Instructions:
#   ("var", name)  ("num", value)  ("pow", slot, k)
#   ("mul", (slot, ...))  ("add", ((sign, slot), ...))
# ``expr`` and ``term`` return the slot of what they parsed; the last
# instruction is the root.  Tokens carry no offsets: ``fail`` finds the
# offset of token ``pos`` by lexing the text again.
class _Parser:
    def __init__(self, text: str, allowed: VariableSet | None):
        self.text = text
        tokens = [token for token in _TOKEN.findall(text) if token]
        # What each distinct token means where a factor or an exponent may
        # start.  The whole input is lexed before parsing, so the first
        # lexical error in the text wins over any syntax error.
        self.leaves = {"sqrt3": ("num", QuadExt3(0, 1))}
        self.powers = {}
        self.superscripts = {}
        for token in set(tokens):
            if _lexical_error(token):
                _raise_first_lexical_error(text)
            if token[0] in _DIGITS:
                # Integral literals are int, so integer points stay in
                # integer arithmetic.
                value = Fraction(token)
                value = value.numerator if value.denominator == 1 else value
                self.leaves[token] = ("num", value)
                if type(value) is int:
                    self.powers[token] = value
            elif token[0] in _SUPERSCRIPTS:
                self.superscripts[token] = int(token.translate(_SUPER_DIGITS))
            elif token.isalpha() and (allowed is None or token in allowed):
                self.leaves[token] = ("var", token)
        tokens.append(_END)
        self.tokens = tokens
        self.pos = 0
        self.program = []
        self.slots = {}

    def emit(self, instruction) -> int:
        slot = self.slots.get(instruction)
        if slot is None:
            slot = self.slots[instruction] = len(self.program)
            self.program.append(instruction)
        return slot

    def fail(self, message, expected=()):
        offsets = [match.start() for match in _TOKEN.finditer(self.text) if match.group(1)]
        offsets.append(len(self.text))
        raise PolyParseError(_diag(self.text, offsets[self.pos], message, tuple(expected)))

    def parse(self) -> tuple:
        self.expr()
        if self.tokens[self.pos] != _END:
            self.fail("unexpected token after expression", ("end of input",))
        return tuple(self.program)

    def expr(self) -> int:
        parts = [(1, self.term())]
        while True:
            token = self.tokens[self.pos]
            if token == "+":
                sign = 1
            elif token == "-":
                sign = -1
            else:
                break
            self.pos += 1
            parts.append((sign, self.term()))
        if len(parts) == 1:
            return parts[0][1]
        return self.emit(("add", tuple(parts)))

    def term(self) -> int:
        """['-'] factor+, each factor a leaf or '(' expr ')' with an optional exponent."""
        tokens, leaves, emit = self.tokens, self.leaves, self.emit
        negate = tokens[self.pos] == "-"
        if negate:
            self.pos += 1
        factors = []
        while True:
            token = tokens[self.pos]
            leaf = leaves.get(token)
            if leaf is not None:
                self.pos += 1
                slot = emit(leaf)
            elif token == "(":
                self.pos += 1
                slot = self.expr()
                if tokens[self.pos] != ")":
                    self.fail("unbalanced parentheses", (")",))
                self.pos += 1
            elif token.isalpha():
                self.fail(f"unknown identifier {token!r}")
            elif factors:
                break
            else:
                self.fail("expected a factor", ("variable", "number", "sqrt3", "("))
            token = tokens[self.pos]
            if token == "^":
                self.pos += 1
                exponent = self.powers.get(tokens[self.pos])
                if exponent is None:
                    self.fail("malformed exponent", ("nonnegative integer",))
                self.pos += 1
                slot = emit(("pow", slot, exponent))
            elif token in self.superscripts:
                self.pos += 1
                slot = emit(("pow", slot, self.superscripts[token]))
            factors.append(slot)
        slot = factors[0] if len(factors) == 1 else emit(("mul", tuple(factors)))
        if negate:
            return emit(("add", ((-1, slot),)))
        return slot


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
    The program is immutable, so its variable names and degree bound are
    computed once, at construction.
    """

    __slots__ = ("program", "_names", "_degree")

    def __init__(self, program: tuple):
        self.program = program
        self._names = frozenset(ins[1] for ins in program if ins[0] == "var")
        degrees = []
        for instruction in program:
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
        self._degree = degrees[-1]

    def variable_names(self) -> frozenset:
        return self._names

    def degree_bound(self) -> int:
        """An upper bound on the total degree; cancellation can make it loose."""
        return self._degree

    def evaluate(self, point: Mapping[str, object]):
        missing = sorted(self._names.difference(point))
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


def _coeff_sign_and_text(coeff) -> tuple[int, str]:
    """Split a coefficient into a +-1 sign and a grammar factor for |coeff|:
    "5", "2/3 sqrt3", or "(1 - 2 sqrt3)"."""
    quadratic = isinstance(coeff, QuadExt3)
    leading = (coeff.rat or coeff.root) if quadratic else coeff
    sign = -1 if leading < 0 else 1
    text = str(-coeff if sign < 0 else coeff)
    if quadratic and coeff.rat and coeff.root:
        text = f"({text})"
    return sign, text


def _render_monomial(names, mono) -> str:
    """The factors of ``mono`` over ``names``, as in "a^2 b"; "" for the constant."""
    return " ".join(f"{name}^{e}" if e > 1 else name for name, e in zip(names, mono) if e)


def render_polynomial(polynomial: Polynomial) -> str:
    """Canonical graded-lex rendering; parse(render(p)) == p exactly."""
    if polynomial.is_zero:
        return "0"
    names = polynomial.variables.names
    pieces = []
    for index, (mono, coeff) in enumerate(polynomial.sorted_terms()):
        sign, coeff_text = _coeff_sign_and_text(coeff)
        factors = _render_monomial(names, mono)
        if not factors:
            body = coeff_text
        elif coeff_text == "1":
            body = factors
        else:
            body = coeff_text + " " + factors
        if index == 0:
            pieces.append(body if sign == 1 else f"- {body}")
        else:
            pieces.append(("+ " if sign == 1 else "- ") + body)
    return " ".join(pieces)
