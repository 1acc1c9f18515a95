"""Interprocedural call graph over the linted batch.

Resolution is by *module-level name binding*, the only kind Python makes
static: import aliases (via :mod:`repro.analysis.astutil`), module
functions, classes and their methods (including single-inheritance-style
base lookup when the base resolves to a batch class), ``self.``/``cls.``
method calls, ``ClassName.method`` references, nested ``def`` names, and
a small local-instance inference (``x = ClassName(...)`` makes ``x.m()``
resolve).  Anything dynamic — getattr, dict dispatch, decorators that
swap callables — is out of scope and simply yields no edge, which keeps
the graph an under-approximation: good for "is a blocking call reachable"
warnings, where a missed edge costs a warning, not a crash.

Calls that resolve through an import alias to a name *outside* the batch
(``time.sleep``, ``socket.socket``) are recorded per caller in
``CallGraph.external`` so rules can reason about well-known library
primitives without the batch containing them.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.astutil import (
    dotted_name,
    import_aliases,
    resolve_name,
    walk_own_scope,
)
from repro.analysis.engine import ModuleInfo
from repro.analysis.flow.cfg import FunctionNode

__all__ = ["CallEdge", "CallGraph", "FunctionInfo", "build_call_graph"]


@dataclass
class FunctionInfo:
    """One function in the batch, addressed by dotted qualname."""

    qualname: str
    module: str
    node: FunctionNode
    line: int
    is_async: bool
    #: qualname of the innermost enclosing class, if a method
    class_qualname: Optional[str] = None
    #: names bound by nested ``def``s in this function's own scope
    local_bindings: Dict[str, str] = field(default_factory=dict)
    #: local variables inferred as instances of batch classes
    local_types: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class CallEdge:
    """A resolved call: ``caller`` invokes ``callee`` at ``line``."""

    caller: str
    callee: str
    line: int


@dataclass
class _ClassInfo:
    qualname: str
    methods: Dict[str, str] = field(default_factory=dict)
    #: base-class names as resolved dotted strings (may or may not be
    #: batch classes; looked up lazily during method resolution)
    bases: List[str] = field(default_factory=list)


@dataclass
class _ModuleScope:
    aliases: Dict[str, str] = field(default_factory=dict)
    #: top-level name -> ("func" | "class", qualname)
    bindings: Dict[str, Tuple[str, str]] = field(default_factory=dict)


class CallGraph:
    """Functions, resolved call edges, and external library calls."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        #: caller qualname -> outgoing edges (deduped, source order)
        self.edges: Dict[str, List[CallEdge]] = {}
        #: caller qualname -> [(resolved external dotted name, line)]
        self.external: Dict[str, List[Tuple[str, int]]] = {}
        self._classes: Dict[str, _ClassInfo] = {}
        self._scopes: Dict[str, _ModuleScope] = {}

    # -- queries ------------------------------------------------------
    def callees(self, qualname: str) -> List[CallEdge]:
        return self.edges.get(qualname, [])

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """All functions reachable from ``roots`` (roots included)."""
        seen: Set[str] = set()
        queue = deque(r for r in roots if r in self.functions)
        seen.update(queue)
        while queue:
            current = queue.popleft()
            for edge in self.edges.get(current, []):
                if edge.callee not in seen:
                    seen.add(edge.callee)
                    queue.append(edge.callee)
        return seen

    def call_path(self, root: str, target: str) -> Optional[List[CallEdge]]:
        """A shortest chain of edges from ``root`` to ``target``.

        Returns ``[]`` when root *is* the target, ``None`` when
        unreachable.
        """
        if root == target:
            return []
        if root not in self.functions:
            return None
        parents: Dict[str, CallEdge] = {}
        queue = deque([root])
        while queue:
            current = queue.popleft()
            for edge in self.edges.get(current, []):
                if edge.callee in parents or edge.callee == root:
                    continue
                parents[edge.callee] = edge
                if edge.callee == target:
                    chain: List[CallEdge] = []
                    node = target
                    while node != root:
                        chain.append(parents[node])
                        node = parents[node].caller
                    chain.reverse()
                    return chain
                queue.append(edge.callee)
        return None

    def resolve_callable(
        self, module: str, node: ast.AST, enclosing: Optional[FunctionInfo] = None
    ) -> Optional[str]:
        """Resolve a Name/Attribute expression to a batch function.

        Used for callbacks passed by reference (``install_tap(self._on_event)``);
        ``enclosing`` supplies the ``self``/local context.
        """
        dotted = dotted_name(node)
        if dotted is None:
            return None
        return self._resolve(module, dotted, enclosing, as_call=False)

    # -- construction helpers (used by build_call_graph) --------------
    def _lookup_method(
        self, class_qualname: str, name: str, seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        if seen is None:
            seen = set()
        if class_qualname in seen:
            return None
        seen.add(class_qualname)
        info = self._classes.get(class_qualname)
        if info is None:
            return None
        if name in info.methods:
            return info.methods[name]
        for base in info.bases:
            found = self._lookup_method(base, name, seen)
            if found is not None:
                return found
        return None

    def _resolve(
        self,
        module: str,
        dotted: str,
        enclosing: Optional[FunctionInfo],
        as_call: bool,
    ) -> Optional[str]:
        """Resolve ``dotted`` as seen from ``module`` to a function qualname.

        With ``as_call`` a bare class reference maps to its ``__init__``.
        """
        scope = self._scopes.get(module)
        if scope is None:
            return None
        parts = dotted.split(".")
        head = parts[0]

        if enclosing is not None:
            if (
                head in ("self", "cls")
                and enclosing.class_qualname is not None
                and len(parts) == 2
            ):
                return self._lookup_method(enclosing.class_qualname, parts[1])
            if len(parts) == 1 and head in enclosing.local_bindings:
                return enclosing.local_bindings[head]
            if len(parts) == 2 and head in enclosing.local_types:
                return self._lookup_method(enclosing.local_types[head], parts[1])

        binding = scope.bindings.get(head)
        if binding is not None:
            kind, qualname = binding
            if kind == "func":
                return qualname if len(parts) == 1 else None
            if len(parts) == 1:
                return self._lookup_method(qualname, "__init__") if as_call else None
            if len(parts) == 2:
                return self._lookup_method(qualname, parts[1])
            return None

        full = resolve_name(dotted, scope.aliases)
        if full in self.functions:
            return full
        if full in self._classes:
            return self._lookup_method(full, "__init__") if as_call else None
        owner, _, method = full.rpartition(".")
        if owner in self._classes:
            return self._lookup_method(owner, method)
        return None


def _class_base_name(base: ast.expr, scope: _ModuleScope) -> Optional[str]:
    dotted = dotted_name(base)
    if dotted is None:
        return None
    head = dotted.split(".")[0]
    binding = scope.bindings.get(head)
    if binding is not None and binding[0] == "class" and "." not in dotted:
        return binding[1]
    return resolve_name(dotted, scope.aliases)


def _collect_definitions(graph: CallGraph, info: ModuleInfo) -> None:
    """First pass: register functions, classes, and module bindings."""
    scope = _ModuleScope(aliases=import_aliases(info.tree))
    graph._scopes[info.module] = scope

    for child in info.tree.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope.bindings[child.name] = ("func", f"{info.module}.{child.name}")
        elif isinstance(child, ast.ClassDef):
            scope.bindings[child.name] = ("class", f"{info.module}.{child.name}")

    def visit(node: ast.AST, prefix: str, cls: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{child.name}"
                serial = 2
                while qualname in graph.functions:
                    qualname = f"{prefix}.{child.name}#{serial}"
                    serial += 1
                graph.functions[qualname] = FunctionInfo(
                    qualname=qualname,
                    module=info.module,
                    node=child,
                    line=child.lineno,
                    is_async=isinstance(child, ast.AsyncFunctionDef),
                    class_qualname=cls,
                )
                if cls is not None and isinstance(node, ast.ClassDef):
                    class_info = graph._classes.get(cls)
                    if class_info is not None:
                        class_info.methods.setdefault(child.name, qualname)
                visit(child, f"{prefix}.{child.name}", cls)
            elif isinstance(child, ast.ClassDef):
                class_qualname = f"{prefix}.{child.name}"
                class_info = _ClassInfo(qualname=class_qualname)
                for base in child.bases:
                    resolved = _class_base_name(base, scope)
                    if resolved is not None:
                        class_info.bases.append(resolved)
                graph._classes[class_qualname] = class_info
                visit(child, class_qualname, class_qualname)
            else:
                visit(child, prefix, cls)

    visit(info.tree, info.module, None)


def _collect_function_locals(graph: CallGraph, fi: FunctionInfo) -> None:
    """Second pass, per function: nested-def names and local instances."""
    scope = graph._scopes[fi.module]
    for child in ast.iter_child_nodes(fi.node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = f"{fi.qualname}.{child.name}"
            if nested in graph.functions:
                fi.local_bindings[child.name] = nested
    for node in walk_own_scope(fi.node):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
        ):
            target_class = _resolved_class(graph, scope, fi, node.value)
            if target_class is not None:
                fi.local_types[node.targets[0].id] = target_class


def _resolved_class(
    graph: CallGraph, scope: _ModuleScope, fi: FunctionInfo, call: ast.Call
) -> Optional[str]:
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    head = dotted.split(".")[0]
    binding = scope.bindings.get(head)
    if binding is not None and binding[0] == "class" and "." not in dotted:
        return binding[1]
    full = resolve_name(dotted, scope.aliases)
    return full if full in graph._classes else None


def _collect_edges(graph: CallGraph, fi: FunctionInfo) -> None:
    """Third pass, per function: resolve calls into edges / externals."""
    scope = graph._scopes[fi.module]
    edges: List[CallEdge] = []
    seen: Set[Tuple[str, int]] = set()
    externals: List[Tuple[str, int]] = []
    seen_external: Set[Tuple[str, int]] = set()
    for node in walk_own_scope(fi.node):
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_name(node.func)
        if dotted is None:
            continue
        target = graph._resolve(fi.module, dotted, fi, as_call=True)
        if target is not None:
            key = (target, node.lineno)
            if key not in seen:
                seen.add(key)
                edges.append(CallEdge(fi.qualname, target, node.lineno))
            continue
        head = dotted.split(".")[0]
        if head in scope.aliases:
            full = resolve_name(dotted, scope.aliases)
            key = (full, node.lineno)
            if key not in seen_external:
                seen_external.add(key)
                externals.append((full, node.lineno))
    if edges:
        graph.edges[fi.qualname] = edges
    if externals:
        graph.external[fi.qualname] = externals


def build_call_graph(modules: Sequence[ModuleInfo]) -> CallGraph:
    """The call graph over ``modules`` (typically the whole lint batch)."""
    graph = CallGraph()
    for info in modules:
        _collect_definitions(graph, info)
    for fi in graph.functions.values():
        _collect_function_locals(graph, fi)
    for fi in graph.functions.values():
        _collect_edges(graph, fi)
    return graph
