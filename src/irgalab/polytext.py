"""Plain-text polynomial grammar: parsing, rendering, and exact evaluation.

Grammar (EBNF)::

    expr     := term (('+' | '-') term)*
    term     := ['-'] factor+            # juxtaposition multiplies
    factor   := base ['^' uint | superscript-digits]
    base     := letter | rational | '(' expr ')'
    rational := int ['/' uint]

Input is UTF-8; ``#`` starts a comment running to end of line; whitespace
between tokens is insignificant.  Variables are single letters, so ``ab``
and ``a b`` both denote a*b; there are no multi-letter tokens.  Coefficients
are rational.  Unicode superscript digits are accepted and mean the same as
``^k``.

Parentheses may nest at most 200 deep; deeper nesting is a parse error.

``parse_polynomial`` expands the input into a canonical ``Polynomial``.
``parse_expression`` parses straight into a program of shared
subexpressions, which can be evaluated exactly without expansion; that is
the only practical route for the very large bundled reference polynomial.
A parenthesized group whose text occurs again is lexed and parsed only
once, which is most of the groups of the size-6 reference.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .exact import IncompleteAssignmentError, ParseFailure, Polynomial, VariableSet

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

# A comment runs from ``#`` to the end of its line.  The parser blanks each
# one to spaces, so offsets, lines and columns stay those of the input.
_COMMENT = re.compile(r"#[^\n]*")
# One token per match: a number, a run of superscript digits, or any other
# single non-whitespace character (an operator, a letter, or an error).
# Whitespace (\s, which is str.isspace) matches nothing, so findall skips
# it.  A token's kind is read from its first character.
_TOKEN = re.compile(r"[0-9]+(?:/[0-9]*)?|[⁰¹²³⁴⁵⁶⁷⁸⁹]+|\S")
_PAREN = re.compile(r"[()]")
_END = ""  # follows the last token of a span; no token is empty
# The descent recurses at each level of parentheses, so deeper nesting is a
# parse error rather than a RecursionError.
_MAX_NESTING = 200


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


class PolyParseError(ParseFailure, ValueError):
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
    if token[0] in _SUPERSCRIPTS or token in "+-^()" or token.isalpha():
        return None
    return 0, f"unexpected character {token!r}", ()


def _blank_comments(text: str) -> str:
    return _COMMENT.sub(lambda match: " " * len(match.group()), text)


def _raise_first_lexical_error(text: str):
    for match in _TOKEN.finditer(_blank_comments(text)):
        error = _lexical_error(match.group())
        if error:
            delta, message, expected = error
            raise PolyParseError(_diag(text, match.start() + delta, message, expected))


def _diag(text: str, offset: int, message: str, expected: tuple[str, ...] = ()):
    line = text.count("\n", 0, offset) + 1
    column = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return ParseDiagnostic(offset, line, column, message, expected)


def _token_offsets(text: str, start: int, end: int) -> list:
    return [match.start() for match in _TOKEN.finditer(text, start, end)]


# The parser emits a program: instruction k computes slot k from earlier
# slots, and equal instructions share one slot, so repeated subexpressions
# are computed once.  Instructions:
#   ("var", name)  ("num", value)  ("pow", slot, k)
#   ("mul", (slot, ...))  ("add", ((sign, slot), ...))
# ``expr`` and ``term`` return the slot of what they parsed; the last
# instruction is the root.  Evaluation does not walk the program itself but
# a plan derived from it (``_plan_of``), in which each product that one sum
# alone uses is a term of that sum rather than a value of its own.
#
# The parentheses are matched once, before the descent.  The top level and
# the inside of each group are spans.  A span is lexed only when the descent
# reaches it, and each group directly inside it is one token: the offset of
# its '('.  A group whose text was parsed before is skipped whole, with the
# slot it gave then (packrat parsing, memoized by span): emission is
# hash-consed, so parsing it again would emit nothing and return that slot.
# A '(' that is never closed opens a group running to the end of the text,
# which fails; a stray ')' is a token of the top level.  Each distinct token
# is validated when first met, but every diagnostic first looks for a
# lexical error in the whole text, so the first lexical error wins over any
# syntax error.  Tokens carry no offsets: ``fail`` finds the offset of token
# ``pos`` by lexing the current span again.
class _Parser:
    def __init__(self, text: str, allowed: VariableSet | None):
        self.text = text = _blank_comments(text)
        self.allowed = allowed
        # close[at]: the offset of the ')' matching the '(' at ``at``, or
        # len(text) if none does; the top level opens at -1.  children[at]:
        # the groups directly inside, in order.
        self.close = {-1: len(text)}
        self.children = {-1: []}
        stack = [-1]
        for match in _PAREN.finditer(text):
            at = match.start()
            if match.group() == "(":
                self.children[stack[-1]].append(at)
                self.children[at] = []
                stack.append(at)
                if len(stack) > _MAX_NESTING + 1:
                    _raise_first_lexical_error(text)
                    raise PolyParseError(_diag(
                        text, at, f"parentheses nested more than {_MAX_NESTING} deep"))
            elif len(stack) > 1:
                self.close[stack.pop()] = at
        for at in stack[1:]:
            self.close[at] = len(text)
        self.groups = {}  # the inner text of a parsed group -> its slot
        self.known = set()  # the tokens met so far
        # What each of them means where a factor or an exponent may start.
        self.leaves = {}
        self.powers = {}
        self.superscripts = {}
        self.program = []
        self.slots = {}

    def scan(self, opening: int, find) -> list:
        """``find(text, start, end)`` over the pieces of the span opened at
        ``opening``, with the offset of each child group's '(' in its place."""
        start, items = opening + 1, []
        for child in self.children[opening]:
            items += find(self.text, start, child)
            items.append(child)
            start = self.close[child] + 1
        items += find(self.text, start, self.close[opening])
        return items

    def lex(self, opening: int) -> list:
        """The tokens of the span opened at ``opening``, ending with _END."""
        tokens = self.scan(opening, _TOKEN.findall)
        for token in set(tokens).difference(self.known):
            if type(token) is str:
                self.learn(token)
        tokens.append(_END)
        return tokens

    def learn(self, token: str):
        self.known.add(token)
        if _lexical_error(token):
            _raise_first_lexical_error(self.text)
        if token[0] in _DIGITS:
            # Integral literals are int, so integer points stay in integer
            # arithmetic.
            value = Fraction(token)
            value = value.numerator if value.denominator == 1 else value
            self.leaves[token] = ("num", value)
            if type(value) is int:
                self.powers[token] = value
        elif token[0] in _SUPERSCRIPTS:
            self.superscripts[token] = int(token.translate(_SUPER_DIGITS))
        elif token.isalpha() and (self.allowed is None or token in self.allowed):
            self.leaves[token] = ("var", token)

    def emit(self, instruction) -> int:
        slot = self.slots.get(instruction)
        if slot is None:
            slot = self.slots[instruction] = len(self.program)
            self.program.append(instruction)
        return slot

    def fail(self, message, expected=()):
        _raise_first_lexical_error(self.text)
        offsets = self.scan(self.span, _token_offsets)
        offsets.append(self.close[self.span])
        raise PolyParseError(_diag(self.text, offsets[self.pos], message, tuple(expected)))

    def parse(self) -> tuple:
        self.span, self.tokens, self.pos = -1, self.lex(-1), 0
        self.expr()
        if self.tokens[self.pos] != _END:
            self.fail("unexpected token after expression", ("end of input",))
        return tuple(self.program)

    def group(self, opening: int) -> int:
        """The slot of the group whose '(' is at ``opening``."""
        close = self.close[opening]
        closed = close < len(self.text)
        inner = self.text[opening + 1:close]
        slot = self.groups.get(inner)
        # An unclosed group fails even when a closed one had the same text.
        if slot is not None and closed:
            return slot
        outer = self.span, self.tokens, self.pos
        self.span, self.tokens, self.pos = opening, self.lex(opening), 0
        slot = self.expr()
        if self.tokens[self.pos] != _END or not closed:
            self.fail("unbalanced parentheses", (")",))
        self.span, self.tokens, self.pos = outer
        self.groups[inner] = slot
        return slot

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
        """['-'] factor+, each factor a leaf or a group with an optional exponent."""
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
            elif type(token) is int:
                self.pos += 1
                slot = self.group(token)
            elif token.isalpha():
                self.fail(f"unknown identifier {token!r}")
            elif factors:
                break
            else:
                self.fail("expected a factor", ("variable", "number", "("))
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


def _plan_of(program: tuple) -> tuple:
    """The steps that ``_run`` walks: ``program`` with each product that one
    sum alone uses folded into that sum.

    A step computes one value from the values of earlier steps, indexed in
    step order:
      ("var", name)  ("num", value)  ("pow", index, k)
      ("mul", first, rest)  ("add", ((sign, first, rest), ...))
    A product is ``first`` times each index of ``rest`` in turn, and a sum
    term is a product: a folded ``mul`` keeps its factors, any other slot
    is a product of one factor, ``(sign, index, ())``.  A product that
    another product uses is not folded, so every factor has a value of its
    own.
    """
    uses = Counter()
    for instruction in program:
        kind = instruction[0]
        if kind == "add":
            uses.update(slot for _, slot in instruction[1])
        elif kind == "mul":
            uses.update(instruction[1])
        elif kind == "pow":
            uses[instruction[1]] += 1
    folded = {
        slot
        for instruction in program
        if instruction[0] == "add"
        for _, slot in instruction[1]
        if uses[slot] == 1 and program[slot][0] == "mul"
    }
    index = {}  # program slot -> step index

    def product(factors):
        return index[factors[0]], tuple(index[slot] for slot in factors[1:])

    steps = []
    for slot, instruction in enumerate(program):
        if slot in folded:
            continue
        kind = instruction[0]
        if kind == "add":
            step = ("add", tuple(
                (sign, *product(program[term][1] if term in folded else (term,)))
                for sign, term in instruction[1]
            ))
        elif kind == "mul":
            step = ("mul", *product(instruction[1]))
        elif kind == "pow":
            step = ("pow", index[instruction[1]], instruction[2])
        else:
            step = instruction
        index[slot] = len(steps)
        steps.append(step)
    return tuple(steps)


def _run(plan: tuple, point: Mapping[str, object]):
    values = []
    for step in plan:
        kind = step[0]
        if kind == "add":
            total = 0
            for sign, first, rest in step[1]:
                term = values[first]
                for index in rest:
                    term = term * values[index]
                total = total + term if sign == 1 else total - term
        elif kind == "mul":
            total = values[step[1]]
            for index in step[2]:
                total = total * values[index]
        elif kind == "pow":
            total = values[step[1]] ** step[2]
        elif kind == "var":
            total = point[step[1]]
        else:
            total = step[1]
        values.append(total)
    return values[-1]


class ParsedExpression:
    """A polynomial kept as its parsed program, evaluated exactly without expansion.

    ``program`` lists the instructions in the order the parser emitted them;
    a subexpression that occurs several times in the text is computed once.
    The program is immutable, so its variable names, degree bound and
    evaluation plan are computed once, at construction.  The plan
    (``_plan_of``) evaluates each sum of products as one step; ``evaluate`` and
    ``to_polynomial`` both walk it, multiplying and adding in the program's
    order.
    """

    __slots__ = ("program", "_plan", "_names", "_degree")

    def __init__(self, program: tuple):
        self.program = program
        self._plan = _plan_of(program)
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
        return _run(self._plan, point)

    def to_polynomial(self, variables: VariableSet | None = None) -> Polynomial:
        names = self.variable_names()
        if variables is None:
            variables = VariableSet(sorted(names))
        value = _run(self._plan, {name: Polynomial.variable(variables, name) for name in names})
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
    """Split a rational coefficient into a +-1 sign and the text of |coeff|,
    as in "5" or "2/3"."""
    return (-1, str(-coeff)) if coeff < 0 else (1, str(coeff))


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
