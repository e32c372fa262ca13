"""callback-arity: schedule_callback argument lists must fit the callee.

``sim.schedule_callback(delay, fn, *args)`` applies ``fn(*args)`` when
the heap entry fires (``resource.use_then(duration, fn, arg)`` likewise
applies ``fn(arg)``) -- hours of simulated time after the call site, so
an arity mismatch surfaces as a TypeError with a useless stack.  When
the callee is resolvable statically (a ``self._method`` of the
enclosing class or a function defined in the same module), this rule
checks the argument count against the callee's signature at lint time.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.analysis.linter import FileContext, Violation
from repro.analysis.rules import Rule, register

#: scheduling entry points -> number of leading non-callback parameters
#: (the delay / absolute time / hold duration) before the callable.
SCHEDULERS = {"schedule_callback": 1, "schedule_callback_at": 1, "use_then": 1}


@dataclass(frozen=True)
class _Arity:
    """Positional-argument window a callable accepts."""

    min_args: int
    max_args: Optional[int]  # None = *args

    def accepts(self, n: int) -> bool:
        if n < self.min_args:
            return False
        return self.max_args is None or n <= self.max_args


def _arity_of(func: ast.AST, drop_self: bool) -> _Arity:
    args = func.args
    positional = list(args.posonlyargs) + list(args.args)
    if drop_self and positional:
        positional = positional[1:]
    total = len(positional)
    required = total - len(args.defaults)
    return _Arity(
        min_args=max(0, required),
        max_args=None if args.vararg is not None else total,
    )


class _Tables(ast.NodeVisitor):
    """Module functions and per-class method signatures."""

    def __init__(self) -> None:
        self.functions: Dict[str, _Arity] = {}
        self.methods: Dict[str, Dict[str, _Arity]] = {}
        self._class: Optional[str] = None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        previous, self._class = self._class, node.name
        self.methods.setdefault(node.name, {})
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                is_static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list
                )
                if not child.decorator_list or is_static:
                    self.methods[node.name][child.name] = _arity_of(
                        child, drop_self=not is_static
                    )
        self.generic_visit(node)
        self._class = previous

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if self._class is None and not node.decorator_list:
            self.functions[node.name] = _arity_of(node, drop_self=False)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]


class _CallVisitor(ast.NodeVisitor):
    def __init__(self, rule: "CallbackArityRule", ctx: FileContext, tables: _Tables):
        self.rule = rule
        self.ctx = ctx
        self.tables = tables
        self._class: Optional[str] = None
        self.found = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        previous, self._class = self._class, node.name
        self.generic_visit(node)
        self._class = previous

    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in SCHEDULERS):
            return
        skip = SCHEDULERS[func.attr]
        if len(node.args) < skip + 1 or node.keywords:
            return
        callback = node.args[skip]
        passed = node.args[skip + 1:]
        if any(isinstance(a, ast.Starred) for a in passed):
            return
        arity = self._resolve(callback)
        if arity is None:
            return
        n = len(passed)
        if not arity.accepts(n):
            upper = "*" if arity.max_args is None else str(arity.max_args)
            target = ast.unparse(callback)
            self.found.append(
                self.rule.violation(
                    self.ctx,
                    node,
                    f"{func.attr} passes {n} argument(s) to {target}, which "
                    f"takes {arity.min_args}..{upper}; the TypeError would "
                    f"only fire when the heap entry runs",
                )
            )

    def _resolve(self, callback: ast.AST) -> Optional[_Arity]:
        if isinstance(callback, ast.Lambda):
            return _arity_of(callback, drop_self=False)
        if isinstance(callback, ast.Name):
            return self.tables.functions.get(callback.id)
        if (
            isinstance(callback, ast.Attribute)
            and isinstance(callback.value, ast.Name)
            and callback.value.id == "self"
            and self._class is not None
        ):
            return self.tables.methods.get(self._class, {}).get(callback.attr)
        return None


@register
class CallbackArityRule(Rule):
    name = "callback-arity"
    description = (
        "schedule_callback(_at)/use_then argument counts must match the callee's "
        "signature (checked when the callee resolves statically)"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        tables = _Tables()
        tables.visit(ctx.tree)
        visitor = _CallVisitor(self, ctx, tables)
        visitor.visit(ctx.tree)
        yield from visitor.found
