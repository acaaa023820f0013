"""Small arithmetic expression language for problem files.

Grammar version 1.  An expression is parsed with Python's ``ast`` module,
checked and built once into nested closures (no source text is compiled),
and evaluated against numpy arrays, so expressions broadcast over batches of
states.  Allowed syntax:

* numeric literals (evaluated as floats), the declared variable names,
* binary ``+  -  *  /  **``, unary ``-``/``+``, parentheses,
* calls to ``exp``, ``sin``, ``cos``, ``abs``, ``min``, ``max``
  (``min``/``max`` take two or more arguments and apply elementwise).

Nothing else is accepted; in particular no attribute access, subscripts,
comparisons or names outside the declared variable set.  Expressions nest at
most ``MAX_DEPTH`` levels, so evaluation stays far from the recursion limit.
"""

from __future__ import annotations

import ast
import operator
import warnings

import numpy as np

GRAMMAR_VERSION = "1"
MAX_DEPTH = 200

_FUNCS = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "abs": np.abs,
}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}

# min and max fold their two or more arguments left to right, elementwise
_FOLDS = {"min": np.minimum, "max": np.maximum}


class ExpressionError(ValueError):
    """The expression uses syntax or names outside the grammar."""


class Expression:
    """A compiled expression; call with keyword arrays for each variable."""

    def __init__(self, source: str, variables):
        if not isinstance(source, str):
            raise ExpressionError(f"an expression must be a string, got {source!r:.80}")
        self.source = source
        self.variables = tuple(variables)
        try:
            # sources such as "1if x1 else 2" warn before the grammar rejects them
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SyntaxWarning)
                tree = ast.parse(source, mode="eval")
        except (SyntaxError, ValueError, RecursionError) as exc:
            raise ExpressionError(f"cannot parse {source!r:.80}: {exc}") from None
        self._fn = self._compile(tree.body, 0)

    def _compile(self, node, depth):
        """Check one node against the grammar and build it into a closure of
        the variable environment, children first; no source text is compiled."""
        if depth >= MAX_DEPTH:
            raise ExpressionError(f"expression nests deeper than {MAX_DEPTH} levels")
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ExpressionError(f"literal {node.value!r} is not a number")
            # literals are floats, so 2**-1 is 0.5 and 3**40 cannot wrap an int64
            try:
                value = float(node.value)
            except OverflowError:
                raise ExpressionError("integer literal too large for a float") from None
            return lambda env: value
        if isinstance(node, ast.Name):
            if node.id not in self.variables:
                raise ExpressionError(
                    f"unknown variable {node.id!r}; allowed: {', '.join(self.variables)}"
                )
            return operator.itemgetter(node.id)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            op = _BINOPS[type(node.op)]
            left = self._compile(node.left, depth + 1)
            right = self._compile(node.right, depth + 1)
            return lambda env: op(left(env), right(env))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            operand = self._compile(node.operand, depth + 1)
            if isinstance(node.op, ast.USub):
                return lambda env: -operand(env)
            return lambda env: +operand(env)
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.keywords:
                raise ExpressionError("only plain calls to named functions are allowed")
            name = node.func.id
            if name in _FUNCS:
                if len(node.args) != 1:
                    raise ExpressionError(f"{name}() takes exactly one argument")
            elif name in _FOLDS:
                if len(node.args) < 2:
                    raise ExpressionError(f"{name}() takes two or more arguments")
            else:
                raise ExpressionError(f"unknown function {name!r}")
            args = [self._compile(arg, depth + 1) for arg in node.args]
            if name in _FUNCS:
                func, (arg,) = _FUNCS[name], args
                return lambda env: func(arg(env))
            fold = _FOLDS[name]

            def folded(env):
                out, *rest = [arg(env) for arg in args]
                for val in rest:
                    out = fold(out, val)
                return out
            return folded
        raise ExpressionError(
            f"disallowed syntax {type(node).__name__} in {self.source!r}"
        )

    def __call__(self, **env):
        missing = [v for v in self.variables if v not in env]
        if missing:
            raise ExpressionError(f"missing variables: {', '.join(missing)}")
        return self._fn(env)

    def __repr__(self):
        return f"Expression({self.source!r})"
