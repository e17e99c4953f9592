"""Expression evaluator: the "math system" of Tydi-lang (Section IV-A).

The paper's motivating example is computing the bit width of a SQL decimal:
``Bit(ceil(log2(10^15 - 1)))``.  The evaluator therefore supports integer and
floating-point arithmetic (``+ - * / % ^``), comparisons, boolean logic,
string concatenation, array literals and indexing, half-open ranges
(``a -> b``) for ``for`` loops, and a small library of builtin math functions
(``ceil``, ``floor``, ``round``, ``log2``, ``log10``, ``log``, ``sqrt``,
``abs``, ``min``, ``max``, ``pow``, ``len``, ``range``, ``clockdomain``).

Integer-preserving semantics: operations on two ints yield an int where the
mathematical result is integral (``/`` yields a float unless it divides
evenly), and ``ceil``/``floor``/``round`` always return ints so they can be
used directly as ``Bit`` widths.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import TydiEvaluationError, TydiTypeError
from repro.lang import ast
from repro.lang.values import ClockDomainValue, Scope, describe_value


def _require_number(value: object, span: object, context: str) -> float | int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TydiTypeError(f"{context} requires a number, got {describe_value(value)}", span)
    return value


def _require_operand(value: object, span: object, op: str) -> float | int:
    """:func:`_require_number` for an operand of ``op``, formatting the
    error context only when the check fails."""
    if value.__class__ is int or value.__class__ is float:
        return value
    return _require_number(value, span, f"operator {op!r}")


def _require_int(value: object, span: object, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TydiTypeError(f"{context} requires an integer, got {describe_value(value)}", span)
    return value


def _require_bool(value: object, span: object, context: str) -> bool:
    if not isinstance(value, bool):
        raise TydiTypeError(f"{context} requires a boolean, got {describe_value(value)}", span)
    return value


def _normalize_number(value: float | int) -> float | int:
    """Collapse floats that are exactly integral back to int."""
    if isinstance(value, float) and value.is_integer() and abs(value) < 2**63:
        return int(value)
    return value


def _builtin_range(args: list[object], span: object) -> list[int]:
    if len(args) == 1:
        stop = _require_int(args[0], span, "range()")
        return list(range(stop))
    if len(args) == 2:
        start = _require_int(args[0], span, "range()")
        stop = _require_int(args[1], span, "range()")
        return list(range(start, stop))
    if len(args) == 3:
        start = _require_int(args[0], span, "range()")
        stop = _require_int(args[1], span, "range()")
        step = _require_int(args[2], span, "range()")
        if step == 0:
            raise TydiEvaluationError("range() step must not be zero", span)
        return list(range(start, stop, step))
    raise TydiEvaluationError(f"range() takes 1-3 arguments, got {len(args)}", span)


def _one_number(name: str, fn: Callable[[float], float], integral: bool = False):
    def wrapper(args: list[object], span: object) -> object:
        if len(args) != 1:
            raise TydiEvaluationError(f"{name}() takes exactly 1 argument, got {len(args)}", span)
        x = _require_number(args[0], span, f"{name}()")
        try:
            result = fn(x)
        except ValueError as exc:
            raise TydiEvaluationError(f"{name}({x}) is not defined: {exc}", span) from exc
        return int(result) if integral else _normalize_number(result)

    return wrapper


def _builtin_min_max(name: str, fn: Callable) -> Callable:
    def wrapper(args: list[object], span: object) -> object:
        if not args:
            raise TydiEvaluationError(f"{name}() requires at least one argument", span)
        if len(args) == 1 and isinstance(args[0], (list, tuple)):
            items = list(args[0])
        else:
            items = args
        for item in items:
            _require_number(item, span, f"{name}()")
        return _normalize_number(fn(items))

    return wrapper


def _builtin_len(args: list[object], span: object) -> int:
    if len(args) != 1:
        raise TydiEvaluationError(f"len() takes exactly 1 argument, got {len(args)}", span)
    value = args[0]
    if isinstance(value, (list, tuple, str)):
        return len(value)
    raise TydiTypeError(f"len() requires an array or string, got {describe_value(value)}", span)


def _builtin_pow(args: list[object], span: object) -> object:
    if len(args) != 2:
        raise TydiEvaluationError(f"pow() takes exactly 2 arguments, got {len(args)}", span)
    base = _require_number(args[0], span, "pow()")
    exponent = _require_number(args[1], span, "pow()")
    return _normalize_number(base**exponent)


def _builtin_clockdomain(args: list[object], span: object) -> ClockDomainValue:
    if len(args) != 1 or not isinstance(args[0], str):
        raise TydiEvaluationError("clockdomain() takes exactly one string argument", span)
    return ClockDomainValue(args[0])


def _builtin_concat(args: list[object], span: object) -> str:
    return "".join(str(a) for a in args)


BUILTIN_FUNCTIONS: dict[str, Callable[[list[object], object], object]] = {
    "ceil": _one_number("ceil", math.ceil, integral=True),
    "floor": _one_number("floor", math.floor, integral=True),
    "round": _one_number("round", round, integral=True),
    "log2": _one_number("log2", math.log2),
    "log10": _one_number("log10", math.log10),
    "log": _one_number("log", math.log),
    "sqrt": _one_number("sqrt", math.sqrt),
    "abs": _one_number("abs", abs),
    "min": _builtin_min_max("min", min),
    "max": _builtin_min_max("max", max),
    "pow": _builtin_pow,
    "len": _builtin_len,
    "range": _builtin_range,
    "clockdomain": _builtin_clockdomain,
    "concat": _builtin_concat,
}


def evaluate_expr(expr: ast.Expr, scope: Scope) -> object:
    """Evaluate an expression AST node to a runtime value."""
    if isinstance(expr, ast.Literal):
        return expr.value

    if isinstance(expr, ast.BinaryOp):
        return _evaluate_binary(expr, scope)

    if isinstance(expr, ast.Identifier):
        return scope.lookup(expr.name, expr.span)

    if isinstance(expr, ast.ArrayLiteral):
        return [evaluate_expr(item, scope) for item in expr.items]

    if isinstance(expr, ast.IndexExpr):
        base = evaluate_expr(expr.base, scope)
        index = evaluate_expr(expr.index, scope)
        if not isinstance(base, (list, tuple)):
            raise TydiTypeError(
                f"only arrays can be indexed, got {describe_value(base)}", expr.span
            )
        idx = _require_int(index, expr.span, "array index")
        if idx < 0 or idx >= len(base):
            raise TydiEvaluationError(
                f"array index {idx} out of bounds for array of length {len(base)}", expr.span
            )
        return base[idx]

    if isinstance(expr, ast.RangeExpr):
        start = _require_int(evaluate_expr(expr.start, scope), expr.span, "range start")
        end = _require_int(evaluate_expr(expr.end, scope), expr.span, "range end")
        return list(range(start, end))

    if isinstance(expr, ast.Call):
        function = BUILTIN_FUNCTIONS.get(expr.function)
        if function is None:
            raise TydiEvaluationError(f"unknown function {expr.function!r}", expr.span)
        arguments = [evaluate_expr(a, scope) for a in expr.arguments]
        return function(arguments, expr.span)

    if isinstance(expr, ast.UnaryOp):
        operand = evaluate_expr(expr.operand, scope)
        if expr.op == "-":
            return _normalize_number(-_require_number(operand, expr.span, "unary '-'"))
        if expr.op == "!":
            return not _require_bool(operand, expr.span, "unary '!'")
        raise TydiEvaluationError(f"unknown unary operator {expr.op!r}", expr.span)

    raise TydiEvaluationError(f"cannot evaluate expression node {type(expr).__name__}", expr.span)


def _evaluate_binary(expr: ast.BinaryOp, scope: Scope) -> object:
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

    if left.__class__ is int and right.__class__ is int:
        # The common case, and the general path's result for two plain ints:
        # no type error, no overflow and nothing to normalise.
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right

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
        lnum = _require_operand(left, expr.span, op)
        rnum = _require_operand(right, expr.span, op)
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
            _require_operand(left, expr.span, op)
            _require_operand(right, expr.span, op)
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right

    raise TydiEvaluationError(f"unknown binary operator {op!r}", expr.span)


def _values_equal(left: object, right: object) -> bool:
    """Equality across value kinds; numbers compare numerically."""
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool) and left == right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return float(left) == float(right)
    if isinstance(left, ClockDomainValue) and isinstance(right, ClockDomainValue):
        return left.name == right.name
    return type(left) is type(right) and left == right
