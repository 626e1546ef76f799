"""Reusable data-flow primitives for repro.lint.

The engine here is the **backward origin resolver**
(:class:`OriginResolver`): it answers "where does this expression's
value come from" *interprocedurally*, through local assignments,
function parameters (mapped onto caller arguments at every known call
site, including ``functools.partial`` bindings, keyword-only params,
and declared defaults), module-level constants (across imports),
``self.*`` attributes (chased into ``__init__``), and resolved call
return values.  The answer is a set of :class:`Origin` leaves —
literals, unresolved parameters, external calls, attribute reads —
that rule families classify (is this seed SeedSequence-derived?  is
this observed value wall-clock tainted?).  :func:`attr_targets` and
:func:`name_targets` decompose assignment targets for it.

The resolver is a static over-approximation with bounded depth;
unresolvable expressions bottom out in explicit ``Origin`` kinds rather
than being silently dropped, so rules can choose how to treat
uncertainty.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .astutil import dotted
from .graph import CallGraph, CallSite, FunctionInfo, ModuleGraph

#: Interprocedural hop budget for the origin resolver.
MAX_DEPTH = 8
#: Call sites examined per parameter (breadth bound).
MAX_SITES = 25


# ----------------------------------------------------------------------
# Assignment-target decomposition
# ----------------------------------------------------------------------
def attr_targets(target: ast.expr) -> list[str]:
    """Attribute names written by one assignment target on ``self``."""
    node = target
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return [node.attr]
    if isinstance(node, (ast.Tuple, ast.List)):
        out: list[str] = []
        for element in node.elts:
            out.extend(attr_targets(element))
        return out
    return []


def name_targets(target: ast.expr) -> list[str]:
    """Local names written by one assignment target.

    ``caches[node] = ...`` taints the local ``caches`` container, so
    subscript targets unwrap to their base name.
    """
    while isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, ast.Starred):
        return name_targets(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[str] = []
        for element in target.elts:
            out.extend(name_targets(element))
        return out
    return []


# ----------------------------------------------------------------------
# Backward origin resolution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Origin:
    """One leaf of a backward slice.

    Kinds: ``literal`` (a constant; ``value`` holds it), ``module-const``
    (a named module-level literal; ``value`` holds it, ``detail`` the
    dotted name), ``param`` (a parameter with no known caller),
    ``default`` (a parameter default that is not a literal), ``call``
    (an unresolved call; ``detail`` is the dotted callee), ``attr`` (an
    attribute read; ``detail`` like ``config.seed``), ``name`` (an
    unresolvable bare name).
    """

    kind: str
    detail: str
    value: object = None


def _scope_statements(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[ast.stmt]:
    """Statements in the function's own scope (nested defs excluded)."""
    out: list[ast.stmt] = []
    stack: list[ast.stmt] = list(node.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        out.append(stmt)
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                stack.append(child)
            elif isinstance(child, ast.excepthandler):
                stack.extend(child.body)
    return out


class OriginResolver:
    """Backward interprocedural slicing over a :class:`CallGraph`."""

    def __init__(self, graph: ModuleGraph, callgraph: CallGraph):
        self.graph = graph
        self.callgraph = callgraph
        self._locals_cache: dict[str, dict[str, list[ast.expr]]] = {}
        self._site_index: dict[str, dict[int, CallSite]] = {}

    # -- public API ----------------------------------------------------
    def origins(self, function: FunctionInfo, expr: ast.expr) -> set[Origin]:
        """Every origin leaf the expression's value can come from."""
        return self._expr(function, expr, MAX_DEPTH, frozenset())

    def callers_with_param(
        self,
        function: FunctionInfo,
        names: frozenset[str],
        depth: int = 6,
    ) -> FunctionInfo | None:
        """A transitive caller carrying a parameter from ``names``.

        Walks the caller graph breadth-first from ``function`` (itself
        excluded) and returns the first function whose signature has a
        parameter in ``names``; None when no such caller exists within
        ``depth`` hops.
        """
        seen = {function.key}
        frontier = [function]
        for _ in range(depth):
            next_frontier: list[FunctionInfo] = []
            for current in frontier:
                for site in self.callgraph.callers.get(current.key, ()):
                    caller = site.caller
                    if caller.key in seen:
                        continue
                    seen.add(caller.key)
                    if caller.param_names() & names:
                        return caller
                    next_frontier.append(caller)
            if not next_frontier:
                return None
            frontier = next_frontier
        return None

    # -- internals -----------------------------------------------------
    def _local_defs(self, function: FunctionInfo) -> dict[str, list[ast.expr]]:
        """Name -> right-hand-side expressions assigned in this scope."""
        cached = self._locals_cache.get(function.key)
        if cached is not None:
            return cached
        defs: dict[str, list[ast.expr]] = {}

        def record(target: ast.expr, value: ast.expr) -> None:
            for name in name_targets(target):
                defs.setdefault(name, []).append(value)

        for stmt in _scope_statements(function.node):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    record(target, stmt.value)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                if stmt.value is not None:
                    record(stmt.target, stmt.value)
            elif isinstance(stmt, ast.For):
                record(stmt.target, stmt.iter)
            elif isinstance(stmt, ast.With):
                for item in stmt.items:
                    if item.optional_vars is not None:
                        record(item.optional_vars, item.context_expr)
        for node in ast.walk(function.node):
            if isinstance(node, ast.NamedExpr):
                record(node.target, node.value)
        self._locals_cache[function.key] = defs
        return defs

    def _sites_in(self, function: FunctionInfo) -> dict[int, CallSite]:
        """id(Call node) -> resolved CallSite for calls in ``function``."""
        cached = self._site_index.get(function.key)
        if cached is not None:
            return cached
        index = {
            id(site.call): site
            for site in self.callgraph.callees.get(function.key, ())
        }
        self._site_index[function.key] = index
        return index

    def _expr(
        self,
        function: FunctionInfo,
        expr: ast.expr,
        depth: int,
        stack: frozenset[tuple[str, str]],
    ) -> set[Origin]:
        if depth <= 0:
            return {Origin("name", "<depth-limit>")}
        if isinstance(expr, ast.Constant):
            return {Origin("literal", repr(expr.value), expr.value)}
        if isinstance(expr, ast.Name):
            return self._name(function, expr.id, depth, stack)
        if isinstance(expr, ast.Attribute):
            return self._attribute(function, expr, depth, stack)
        if isinstance(expr, ast.Call):
            return self._call(function, expr, depth, stack)
        if isinstance(expr, ast.BinOp):
            return self._expr(function, expr.left, depth, stack) | self._expr(
                function, expr.right, depth, stack
            )
        if isinstance(expr, ast.UnaryOp):
            return self._expr(function, expr.operand, depth, stack)
        if isinstance(expr, ast.BoolOp):
            out: set[Origin] = set()
            for value in expr.values:
                out |= self._expr(function, value, depth, stack)
            return out
        if isinstance(expr, ast.IfExp):
            return self._expr(function, expr.body, depth, stack) | self._expr(
                function, expr.orelse, depth, stack
            )
        if isinstance(expr, ast.NamedExpr):
            return self._expr(function, expr.value, depth, stack)
        if isinstance(expr, ast.Subscript):
            return self._expr(function, expr.value, depth, stack)
        if isinstance(expr, ast.Starred):
            return self._expr(function, expr.value, depth, stack)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            out = set()
            for element in expr.elts:
                out |= self._expr(function, element, depth, stack)
            return out
        if isinstance(expr, ast.Dict):
            out = set()
            for value in expr.values:
                if value is not None:
                    out |= self._expr(function, value, depth, stack)
            return out
        if isinstance(expr, ast.Compare):
            out = self._expr(function, expr.left, depth, stack)
            for comparator in expr.comparators:
                out |= self._expr(function, comparator, depth, stack)
            return out
        if isinstance(expr, ast.JoinedStr):
            out = set()
            for value in expr.values:
                if isinstance(value, ast.FormattedValue):
                    out |= self._expr(function, value.value, depth, stack)
            return out
        if isinstance(expr, ast.Lambda):
            return {Origin("name", "<lambda>")}
        # Comprehensions and anything else: fall back to the names read.
        out = set()
        for node in ast.walk(expr):
            if isinstance(node, ast.Name):
                out |= self._name(function, node.id, depth - 1, stack)
        return out or {Origin("name", "<opaque>")}

    def _name(
        self,
        function: FunctionInfo,
        name: str,
        depth: int,
        stack: frozenset[tuple[str, str]],
    ) -> set[Origin]:
        key = (function.key, f"name:{name}")
        if key in stack:
            return set()
        stack = stack | {key}
        out: set[Origin] = set()
        defs = self._local_defs(function).get(name, ())
        for value in defs:
            out |= self._expr(function, value, depth, stack)
        if name in function.param_names():
            out |= self._param(function, name, depth, stack)
            return out
        if out:
            return out
        # Closure lookup: nested functions read the enclosing scope.
        parent_key = function.parent_function
        info = self.graph.modules.get(function.module)
        while parent_key is not None and info is not None:
            parent = info.functions.get(parent_key)
            if parent is None:
                break
            parent_defs = self._local_defs(parent).get(name, ())
            for value in parent_defs:
                out |= self._expr(parent, value, depth, stack)
            if name in parent.param_names():
                out |= self._param(parent, name, depth, stack)
            if out:
                return out
            parent_key = parent.parent_function
        # Module-level constant, possibly imported from elsewhere.
        value = self.graph.constant_value(function.module, name)
        resolved = self.graph.resolve_name(function.module, name) or name
        if value is not None:
            return {Origin("module-const", resolved, value)}
        if info is not None and name in info.constants:
            return self._expr(function, info.constants[name], depth, stack)
        return {Origin("name", resolved)}

    def _param(
        self,
        function: FunctionInfo,
        name: str,
        depth: int,
        stack: frozenset[tuple[str, str]],
    ) -> set[Origin]:
        key = (function.key, f"param:{name}")
        if key in stack:
            return set()
        stack = stack | {key}
        sites = self.callgraph.callers.get(function.key, ())[:MAX_SITES]
        out: set[Origin] = set()
        default = function.default_for(name)
        for site in sites:
            bound = self._bind(site, function, name)
            if bound is not None:
                out |= self._expr(site.caller, bound, depth - 1, stack)
            elif default is not None:
                out |= self._default_origins(function, default, depth, stack)
            else:
                # *args/**kwargs forwarding or star-splat at the site.
                out.add(Origin("param", f"{function.key}:{name}"))
        if not sites:
            if default is not None:
                out |= self._default_origins(function, default, depth, stack)
            out.add(Origin("param", f"{function.key}:{name}"))
        return out

    def _default_origins(
        self,
        function: FunctionInfo,
        default: ast.expr,
        depth: int,
        stack: frozenset[tuple[str, str]],
    ) -> set[Origin]:
        """Defaults evaluate in the defining module's scope at def time."""
        if isinstance(default, ast.Constant):
            return {Origin("literal", repr(default.value), default.value)}
        name = dotted(default)
        if name is not None:
            value = self.graph.constant_value(function.module, name)
            resolved = self.graph.resolve_name(function.module, name) or name
            if value is not None:
                return {Origin("module-const", resolved, value)}
            target = self.graph.function_at(resolved)
            if target is not None:
                return {Origin("name", target.key)}
            return {Origin("default", resolved)}
        if isinstance(default, ast.Call):
            callee = dotted(default.func)
            if callee is not None:
                resolved = (
                    self.graph.resolve_name(function.module, callee) or callee
                )
                return {Origin("call", resolved)}
        return {Origin("default", ast.dump(default)[:80])}

    def _attribute(
        self,
        function: FunctionInfo,
        expr: ast.Attribute,
        depth: int,
        stack: frozenset[tuple[str, str]],
    ) -> set[Origin]:
        name = dotted(expr)
        if name is None:
            return {Origin("attr", f"<expr>.{expr.attr}")}
        head, _, _ = name.partition(".")
        # self.X: chase the attribute into __init__ stores.
        if head == "self" and function.owner_class is not None:
            attr = name.split(".")[1]
            key = (function.key, f"self:{attr}")
            if key in stack:
                return set()
            stack = stack | {key}
            info = self.graph.modules.get(function.module)
            init = (
                info.functions.get(f"{function.owner_class}.__init__")
                if info is not None
                else None
            )
            out: set[Origin] = set()
            if init is not None:
                for stmt in _scope_statements(init.node):
                    if isinstance(stmt, ast.Assign):
                        targets = stmt.targets
                        value = stmt.value
                    elif (
                        isinstance(stmt, (ast.AnnAssign, ast.AugAssign))
                        and stmt.value is not None
                    ):
                        targets = [stmt.target]
                        value = stmt.value
                    else:
                        continue
                    for target in targets:
                        if attr in attr_targets(target):
                            out |= self._expr(init, value, depth - 1, stack)
            return out or {Origin("attr", name)}
        # Module/constant reads through imports resolve like names.
        value = self.graph.constant_value(function.module, name)
        resolved = self.graph.resolve_name(function.module, name) or name
        if value is not None:
            return {Origin("module-const", resolved, value)}
        return {Origin("attr", resolved)}

    def _call(
        self,
        function: FunctionInfo,
        expr: ast.Call,
        depth: int,
        stack: frozenset[tuple[str, str]],
    ) -> set[Origin]:
        site = self._sites_in(function).get(id(expr))
        if site is not None and site.callee.qualname.split(".")[-1] != "__init__":
            callee = site.callee
            key = (callee.key, "returns")
            if key in stack:
                return set()
            out: set[Origin] = set()
            returns = [
                stmt
                for stmt in _scope_statements(callee.node)
                if isinstance(stmt, ast.Return) and stmt.value is not None
            ]
            for stmt in returns:
                out |= self._expr(
                    callee, stmt.value, depth - 1, stack | {key}
                )
            return out or {Origin("call", callee.key)}
        if site is not None:
            # Constructor: the value is an instance of the callee's class.
            owner = site.callee.owner_class or site.callee.qualname
            return {Origin("call", f"{site.callee.module}.{owner}")}
        name = dotted(expr.func)
        if name is None:
            if isinstance(expr.func, ast.Attribute):
                out = {Origin("call", f"<expr>.{expr.func.attr}")}
            else:
                out = {Origin("call", "<dynamic>")}
        else:
            resolved = self.graph.resolve_name(function.module, name) or name
            out = {Origin("call", resolved)}
        # An opaque call's value may derive from whatever flows into it
        # (``int(time.time())`` is wall-clock tainted), so the arguments'
        # origins ride along with the call leaf.
        for arg in expr.args:
            out |= self._expr(function, arg, depth - 1, stack)
        for keyword in expr.keywords:
            out |= self._expr(function, keyword.value, depth - 1, stack)
        return out

    def _bind(
        self, site: CallSite, callee: FunctionInfo, name: str
    ) -> ast.expr | None:
        """The caller-side expression bound to parameter ``name``."""
        for keyword in site.bound_keywords:
            if keyword.arg == name:
                return keyword.value
        for keyword in site.call.keywords:
            if keyword.arg == name:
                return keyword.value
        params = [arg.arg for arg in callee.params()]
        if name not in params:
            return None
        index = params.index(name)
        positional = list(site.bound_args) + list(site.call.args)
        kwonly = {arg.arg for arg in callee.node.args.kwonlyargs}
        if name in kwonly:
            return None
        if index < len(positional):
            arg = positional[index]
            if isinstance(arg, ast.Starred):
                return None
            return arg
        return None
