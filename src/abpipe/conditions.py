"""Boolean condition expressions over statistical results.

Grammar::

    expr  := term (("and" | "or") term)*
    term  := field op number | "(" expr ")"
    field := "p_value" | "mean_a" | "mean_b" | "effect"
    op    := "<" | "<=" | ">" | ">=" | "==" | "!="

where each field is the :class:`~abpipe.stats.StatResult` attribute of
that name (``effect`` is ``mean_b - mean_a``). Boolean operators share one
precedence level and associate left to right, matching the flat grammar.
:data:`COMPARE` is the one table of the six comparison operators: it
evaluates these conditions and a population split's class conditions
(``model.ClassCondition``), and the tokenizer and the blueprint parser
accept exactly its keys.

Besides evaluation, this module offers a syntactic satisfiability check
used to flag overlapping transition rules: expressions are expanded to
DNF and each conjunction is tested for a non-empty per-field interval.
Fields are treated as independent dimensions (the linear tie between
``effect`` and the means is ignored), so the check is conservative: it
can flag pairs that are not truly co-satisfiable, never the reverse.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

FIELDS = ("p_value", "mean_a", "mean_b", "effect")
# two-character operators first, so the tokenizer never reads "<=" as "<"
COMPARE = {
    "<=": operator.le,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
}
_BOUNDED = {"p_value": (0.0, 1.0)}


class ConditionSyntaxError(ValueError):
    """Raised for malformed condition text; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Comparison:
    field: str
    op: str
    value: float

    def evaluate(self, result) -> bool:
        return COMPARE[self.op](getattr(result, self.field), self.value)


@dataclass(frozen=True)
class BoolOp:
    op: str  # "and" | "or"
    left: "Comparison | BoolOp"
    right: "Comparison | BoolOp"

    def evaluate(self, result) -> bool:
        left = self.left.evaluate(result)
        right = self.right.evaluate(result)
        return (left and right) if self.op == "and" else (left or right)


Condition = Comparison | BoolOp


# ---------------------------------------------------------------------------
# parsing


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()":
            tokens.append(("paren", ch, i))
            i += 1
            continue
        matched = False
        for op in COMPARE:
            if text.startswith(op, i):
                tokens.append(("op", op, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch.isdigit() or ch in "+-." and i + 1 < len(text):
            j = i + 1
            while j < len(text) and (text[j].isdigit() or text[j] in ".eE+-"):
                # stop a trailing +/- that is not an exponent sign
                if text[j] in "+-" and text[j - 1] not in "eE":
                    break
                j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ConditionSyntaxError(f"bad number {text[i:j]!r}", i) from None
            tokens.append(("number", repr(value), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in ("and", "or"):
                tokens.append(("bool", word, i))
            elif word in FIELDS:
                tokens.append(("field", word, i))
            else:
                raise ConditionSyntaxError(f"unknown identifier {word!r}", i)
            i = j
            continue
        raise ConditionSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        token = self._peek()
        if token is None:
            raise ConditionSyntaxError("unexpected end of expression", len(self.text))
        self.pos += 1
        return token

    def parse(self) -> Condition:
        node = self._expr()
        leftover = self._peek()
        if leftover is not None:
            raise ConditionSyntaxError(
                f"unexpected token {leftover[1]!r}", leftover[2]
            )
        return node

    def _expr(self) -> Condition:
        node = self._term()
        while True:
            token = self._peek()
            if token is None or token[0] != "bool":
                return node
            self.pos += 1
            right = self._term()
            node = BoolOp(token[1], node, right)

    def _term(self) -> Condition:
        token = self._next()
        if token[0] == "paren" and token[1] == "(":
            node = self._expr()
            closing = self._next()
            if closing[0] != "paren" or closing[1] != ")":
                raise ConditionSyntaxError("expected ')'", closing[2])
            return node
        if token[0] != "field":
            raise ConditionSyntaxError(
                f"expected a field name, got {token[1]!r}", token[2]
            )
        op_token = self._next()
        if op_token[0] != "op":
            raise ConditionSyntaxError(
                f"expected a comparison operator, got {op_token[1]!r}", op_token[2]
            )
        num_token = self._next()
        if num_token[0] != "number":
            raise ConditionSyntaxError(
                f"expected a number, got {num_token[1]!r}", num_token[2]
            )
        return Comparison(token[1], op_token[1], float(num_token[1]))


def parse_condition(text: str) -> Condition:
    """Parse condition text to an AST; raises ConditionSyntaxError."""
    if not text or not text.strip():
        raise ConditionSyntaxError("empty condition", 0)
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# syntactic satisfiability


def _to_dnf(node: Condition) -> list[list[Comparison]]:
    if isinstance(node, Comparison):
        if node.op == "!=":
            return [
                [Comparison(node.field, "<", node.value)],
                [Comparison(node.field, ">", node.value)],
            ]
        return [[node]]
    left = _to_dnf(node.left)
    right = _to_dnf(node.right)
    if node.op == "or":
        return left + right
    return [lc + rc for lc in left for rc in right]


def _interval_nonempty(comparisons: list[Comparison], field: str) -> bool:
    lo, lo_inc = -math.inf, True
    hi, hi_inc = math.inf, True
    bound = _BOUNDED.get(field)
    if bound is not None:
        lo, hi = bound
    for c in comparisons:
        if c.field != field:
            continue
        if c.op in ("<", "<="):
            if c.value < hi or (c.value == hi and c.op == "<" and hi_inc):
                hi, hi_inc = c.value, c.op == "<="
        elif c.op in (">", ">="):
            if c.value > lo or (c.value == lo and c.op == ">" and lo_inc):
                lo, lo_inc = c.value, c.op == ">="
        elif c.op == "==":
            if c.value < lo or (c.value == lo and not lo_inc):
                return False
            if c.value > hi or (c.value == hi and not hi_inc):
                return False
            lo = hi = c.value
            lo_inc = hi_inc = True
    if lo > hi:
        return False
    if lo == hi and not (lo_inc and hi_inc):
        return False
    return True


def _conjunction_satisfiable(comparisons: list[Comparison]) -> bool:
    return all(_interval_nonempty(comparisons, f) for f in FIELDS)


def satisfiable(condition: Condition) -> bool:
    """Whether any field assignment satisfies the condition (syntactic)."""
    return any(_conjunction_satisfiable(c) for c in _to_dnf(condition))


def conditions_overlap(a: Condition, b: Condition) -> bool:
    """Whether the two conditions admit a common satisfying assignment.

    Conservative in the flagging direction: independence of fields may
    report overlap for pairs only a linear relation could separate.
    """
    return satisfiable(BoolOp("and", a, b))


def covers_everything(conditions: list[Condition]) -> bool:
    """Whether the disjunction of the conditions is a tautology.

    Used to decide if a test's rule set leaves room for the implicit
    default transition to End. Checked by negating to DNF-of-negations;
    conservative the safe way (may say "not covering" for covers that
    need the effect/means relation).
    """
    if not conditions:
        return False
    negated: list[list[list[Comparison]]] = []
    for condition in conditions:
        negated.append(_to_dnf(_negate(condition)))
    # conjunction over rules of (negated rule); satisfiable => not covering
    combos: list[list[Comparison]] = [[]]
    for dnf in negated:
        combos = [acc + conj for acc in combos for conj in dnf]
        combos = [c for c in combos if _conjunction_satisfiable(c)]
        if not combos:
            return True
    return not combos


def _negate(node: Condition) -> Condition:
    if isinstance(node, Comparison):
        flipped = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}
        return Comparison(node.field, flipped[node.op], node.value)
    inner_op = "or" if node.op == "and" else "and"
    return BoolOp(inner_op, _negate(node.left), _negate(node.right))
