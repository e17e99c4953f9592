"""Unit tests for the expression evaluator (the Tydi-lang math system)."""

import itertools

import pytest

from repro.errors import TydiEvaluationError, TydiNameError, TydiTypeError
from repro.lang import ast
from repro.lang.expr import (
    _normalize_number,
    _require_bool,
    _require_number,
    _values_equal,
    evaluate_expr,
)
from repro.lang.parser import parse_source
from repro.lang.values import ClockDomainValue, Scope, describe_value
from repro.utils.source import SourceFile


def evaluate(expression, **bindings):
    scope = Scope(name="test")
    for name, value in bindings.items():
        scope.define(name, value)
    expr = parse_source(f"const v = {expression};").declarations[0].value
    return evaluate_expr(expr, scope)


class TestArithmetic:
    def test_integer_arithmetic_stays_integer(self):
        assert evaluate("2 + 3 * 4") == 14
        assert isinstance(evaluate("2 + 3"), int)

    def test_division_produces_float_when_needed(self):
        assert evaluate("7 / 2") == 3.5
        assert evaluate("8 / 2") == 4
        assert isinstance(evaluate("8 / 2"), int)

    def test_modulo(self):
        assert evaluate("17 % 5") == 2

    def test_power(self):
        assert evaluate("2 ^ 10") == 1024

    def test_paper_decimal_width(self):
        # Bit(ceil(log2(10^15 - 1))) from Section IV-A == 50 bits.
        assert evaluate("ceil(log2(10 ^ 15 - 1))") == 50

    def test_paper_decimal_width_with_variable(self):
        assert evaluate("ceil(log2(10 ^ decimal_width_memory - 1))", decimal_width_memory=15) == 50

    def test_unary_minus(self):
        assert evaluate("-3 + 10") == 7

    def test_division_by_zero(self):
        with pytest.raises(TydiEvaluationError):
            evaluate("1 / 0")

    def test_modulo_by_zero(self):
        with pytest.raises(TydiEvaluationError):
            evaluate("1 % 0")

    def test_string_concatenation(self):
        assert evaluate('"MED " + "BAG"') == "MED BAG"

    def test_string_plus_number_rejected(self):
        with pytest.raises(TydiTypeError):
            evaluate('"a" + 1')

    def test_array_concatenation(self):
        assert evaluate("[1, 2] + [3]") == [1, 2, 3]


class TestComparisonsAndBooleans:
    def test_comparisons(self):
        assert evaluate("3 < 5") is True
        assert evaluate("3 >= 5") is False
        assert evaluate("2 == 2.0") is True
        assert evaluate("2 != 3") is True

    def test_string_comparison(self):
        assert evaluate('"abc" < "abd"') is True

    def test_boolean_logic(self):
        assert evaluate("true && false") is False
        assert evaluate("true || false") is True
        assert evaluate("!false") is True

    def test_short_circuit_avoids_error(self):
        # The right operand would divide by zero; && must not evaluate it.
        assert evaluate("false && (1 / 0 == 1)") is False
        assert evaluate("true || (1 / 0 == 1)") is True

    def test_boolean_operator_requires_bool(self):
        with pytest.raises(TydiTypeError):
            evaluate("1 && true")

    def test_bool_not_equal_to_int(self):
        assert evaluate("true == 1") is False


class TestBuiltins:
    def test_rounding(self):
        assert evaluate("ceil(2.1)") == 3
        assert evaluate("floor(2.9)") == 2
        assert evaluate("round(2.5)") == 2  # banker's rounding, like Python

    def test_log_and_sqrt(self):
        assert evaluate("log2(8)") == 3
        assert evaluate("log10(1000)") == 3
        assert evaluate("sqrt(16)") == 4

    def test_log_of_non_positive(self):
        with pytest.raises(TydiEvaluationError):
            evaluate("log2(0)")

    def test_min_max(self):
        assert evaluate("min(3, 1, 2)") == 1
        assert evaluate("max([3, 1, 2])") == 3

    def test_abs_and_pow(self):
        assert evaluate("abs(-4)") == 4
        assert evaluate("pow(2, 8)") == 256

    def test_len(self):
        assert evaluate("len([1, 2, 3])") == 3
        assert evaluate('len("abc")') == 3

    def test_len_of_number_rejected(self):
        with pytest.raises(TydiTypeError):
            evaluate("len(3)")

    def test_range(self):
        assert evaluate("range(4)") == [0, 1, 2, 3]
        assert evaluate("range(2, 5)") == [2, 3, 4]
        assert evaluate("range(0, 6, 2)") == [0, 2, 4]

    def test_range_zero_step(self):
        with pytest.raises(TydiEvaluationError):
            evaluate("range(0, 4, 0)")

    def test_clockdomain(self):
        value = evaluate('clockdomain("fast")')
        assert value == ClockDomainValue("fast")

    def test_concat(self):
        assert evaluate('concat("a", 1, "b")') == "a1b"

    def test_unknown_function(self):
        with pytest.raises(TydiEvaluationError):
            evaluate("mystery(1)")

    def test_wrong_arity(self):
        with pytest.raises(TydiEvaluationError):
            evaluate("ceil(1, 2)")


class TestArraysAndRanges:
    def test_array_literal(self):
        assert evaluate('["MED BAG", "MED BOX"]') == ["MED BAG", "MED BOX"]

    def test_indexing(self):
        assert evaluate("[10, 20, 30][1]") == 20

    def test_nested_indexing(self):
        assert evaluate("[[1, 2], [3, 4]][1][0]") == 3

    def test_index_out_of_bounds(self):
        with pytest.raises(TydiEvaluationError):
            evaluate("[1, 2][5]")

    def test_index_non_array(self):
        with pytest.raises(TydiTypeError):
            evaluate("3[0]")

    def test_range_expression(self):
        assert evaluate("0 -> 4") == [0, 1, 2, 3]
        assert evaluate("2 -> 2") == []

    def test_range_with_variables(self):
        assert evaluate("0 -> channel", channel=3) == [0, 1, 2]


class TestIdentifiers:
    def test_lookup(self):
        assert evaluate("x * 2", x=21) == 42

    def test_undefined(self):
        with pytest.raises(TydiNameError):
            evaluate("missing + 1")


# ---------------------------------------------------------------------------
# Binary operators against the evaluator they had before their fast paths
# ---------------------------------------------------------------------------


def _reference_evaluate_binary(expr: ast.BinaryOp, scope: Scope) -> object:
    """``_evaluate_binary`` before its plain-int fast path, verbatim."""
    op = expr.op

    # Short-circuiting boolean operators.
    if op in ("&&", "||"):
        left = _require_bool(evaluate_expr(expr.left, scope), expr.span, f"operator {op!r}")
        if op == "&&" and not left:
            return False
        if op == "||" and left:
            return True
        return _require_bool(evaluate_expr(expr.right, scope), expr.span, f"operator {op!r}")

    left = evaluate_expr(expr.left, scope)
    right = evaluate_expr(expr.right, scope)

    if op in ("==", "!="):
        equal = _values_equal(left, right)
        return equal if op == "==" else not equal

    if op == "+":
        # String concatenation and array concatenation are allowed.
        if isinstance(left, str) or isinstance(right, str):
            if isinstance(left, str) and isinstance(right, str):
                return left + right
            raise TydiTypeError(
                f"cannot add {describe_value(left)} and {describe_value(right)}", expr.span
            )
        if isinstance(left, list) and isinstance(right, list):
            return left + right

    if op in ("+", "-", "*", "/", "%", "^"):
        lnum = _require_number(left, expr.span, f"operator {op!r}")
        rnum = _require_number(right, expr.span, f"operator {op!r}")
        try:
            if op == "+":
                result: float | int = lnum + rnum
            elif op == "-":
                result = lnum - rnum
            elif op == "*":
                result = lnum * rnum
            elif op == "/":
                if rnum == 0:
                    raise TydiEvaluationError("division by zero", expr.span)
                result = lnum / rnum
            elif op == "%":
                if rnum == 0:
                    raise TydiEvaluationError("modulo by zero", expr.span)
                result = lnum % rnum
            else:  # "^"
                result = lnum**rnum
        except OverflowError as exc:
            raise TydiEvaluationError(f"arithmetic overflow: {exc}", expr.span) from exc
        return _normalize_number(result)

    if op in ("<", "<=", ">", ">="):
        if isinstance(left, str) and isinstance(right, str):
            pass  # lexicographic comparison of strings is allowed
        else:
            _require_number(left, expr.span, f"operator {op!r}")
            _require_number(right, expr.span, f"operator {op!r}")
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right

    raise TydiEvaluationError(f"unknown binary operator {op!r}", expr.span)


_SPAN = SourceFile("x", "ops.td").span(0, 1)
_OPERANDS = [0, 1, -3, 7, 2**70, 2.5, -0.5, 1e308, True, False, "a", "b", [1], [2, 3]]
_OPERATORS = ["+", "-", "*", "/", "%", "^", "==", "!=", "<", "<=", ">", ">=", "&&", "||"]


def _binary_outcome(evaluate_binary, op, left, right):
    expr = ast.BinaryOp(_SPAN, op, ast.Literal(_SPAN, left), ast.Literal(_SPAN, right))
    try:
        value = evaluate_binary(expr, Scope(name="ops"))
    except Exception as exc:  # the reference defines which exceptions escape
        return ("raised", type(exc), str(exc))
    return ("value", type(value), repr(value))


@pytest.mark.parametrize("op", _OPERATORS)
def test_binary_operators_match_reference(op):
    for left, right in itertools.product(_OPERANDS, repeat=2):
        if op == "^" and right == 2**70:
            continue  # an exponent too large to compute
        reference = _binary_outcome(_reference_evaluate_binary, op, left, right)
        optimized = _binary_outcome(evaluate_expr, op, left, right)
        assert optimized == reference, (op, left, right)
