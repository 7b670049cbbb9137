"""Tiny safe grammar for scalar time profiles in separable forcing:
polynomials in t (+, -, *, /, ** with numeric literals), exp(), sin()."""

from __future__ import annotations

import ast
import math

from .errors import ConfigError

_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARY = (ast.UAdd, ast.USub)
_FUNCS = {"exp": math.exp, "sin": math.sin}


def _validate(node):
    if isinstance(node, ast.Expression):
        _validate(node.body)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
        _validate(node.left)
        _validate(node.right)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARY):
        _validate(node.operand)
    elif isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) \
            and not isinstance(node.value, bool):
        pass
    elif isinstance(node, ast.Name) and node.id == "t":
        pass
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCS and len(node.args) == 1
            and not node.keywords):
        _validate(node.args[0])
    else:
        raise ConfigError(
            f"time expression: unsupported construct {ast.dump(node)}")


def compile_time_expression(text):
    """Compile ``text`` into a float -> float function, or raise ConfigError;
    the function raises ConfigError where ``text`` fails or is not finite."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"time expression {text!r}: {exc.msg}") from None
    _validate(tree)
    code = compile(tree, "<time-expression>", "eval")
    env = {"__builtins__": {}}
    env.update(_FUNCS)

    def fn(t):
        try:
            value = float(eval(code, env, {"t": float(t)}))
            if not math.isfinite(value):
                raise ValueError(f"value {value}")
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise ConfigError(f"time expression {text!r} fails at t = {t}: "
                              f"{exc}") from None
        return value

    return fn
