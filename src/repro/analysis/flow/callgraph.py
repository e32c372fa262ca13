"""Module-level call graph with alias-aware resolution.

Two layers:

* :class:`ModuleIndex` — the lexical index of ONE parsed file: every
  function/method (including nested ones) with its enclosing scope
  chain, per-scope local names, class attribute types inferred from
  ``self.x = ClassName(...)`` / annotated parameters, and resolution
  of callback references (``self.method``, nested functions, module
  functions, aliases).  The migrated simlint rules
  (``schedule-shared-state``, ``cross-shard-state``) run on this layer
  alone, keeping their per-file semantics.

* :class:`Program` — the whole-repo graph: ModuleIndexes for every
  file, cross-module import resolution, call edges (plain calls and
  ``schedule_callback`` / ``schedule_timer`` / ``process`` targets,
  which become the event-callback roots), and reachability queries.

Resolution is deliberately conservative: an edge is only added when
the callee is identified (self methods through the class and its
in-repo bases, attribute receivers with inferred types, imported
names, local function aliases).  Unresolvable calls get no edge —
clients treat missing edges as "unknown", never as "safe to assume
pure", except where documented (see DESIGN.md §9 known unsoundness).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.linter import FileContext, LintError, iter_python_files

#: scheduling entry points whose second argument is an event callback.
SCHEDULERS = ("schedule_callback", "schedule_callback_at", "schedule_timer")

#: callback continuations (``Store.get_then(fn)``,
#: ``Resource.use_then(duration, fn, arg)``) -> position of the
#: callable, which runs from its own heap entry like a scheduled one.
CONTINUATIONS = {"get_then": 0, "use_then": 1}

_FLOW_DISABLE_RE = re.compile(
    r"#\s*simflow:\s*(disable-file|disable)"
    r"\s*(?:=\s*([\w-]+(?:\s*,\s*[\w-]+)*))?"
)


@dataclass
class FunctionInfo:
    """One function, method, nested function, or lambda."""

    qualname: str
    module: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef | Lambda
    ctx: FileContext
    cls: Optional[str] = None  # owning class bare name, if a method
    parent: Optional[str] = None  # qualname of lexically enclosing function
    is_generator: bool = False

    @property
    def args(self) -> ast.arguments:
        return self.node.args

    def param_names(self) -> Set[str]:
        a = self.node.args
        names = {p.arg for p in list(a.posonlyargs) + list(a.args) + list(a.kwonlyargs)}
        if a.vararg:
            names.add(a.vararg.arg)
        if a.kwarg:
            names.add(a.kwarg.arg)
        return names


@dataclass
class ClassInfo:
    qualname: str
    name: str
    module: str
    bases: List[str] = field(default_factory=list)  # reference strings
    methods: Dict[str, str] = field(default_factory=dict)  # name -> fn qualname
    #: attribute name -> class reference string (from ``self.x = Cls(...)``
    #: or ``self.x = param`` with an annotated parameter).
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: the class body defines ``__slots__`` (or ``@dataclass(slots=True)``);
    #: whether instances actually lack a ``__dict__`` additionally depends
    #: on every base -- see :meth:`Program.is_slotted`.
    slotted: bool = False


@dataclass(frozen=True)
class CallSite:
    caller: str
    callee: str
    line: int
    col: int
    kind: str  # "call" | "scheduled"


def own_nodes(scope: ast.AST) -> Iterable[ast.AST]:
    """Walk ``scope`` without descending into nested function/class
    defs (the defs themselves are yielded, their bodies are not)."""
    body = scope.body if isinstance(scope.body, list) else [scope.body]
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def assigned_names(scope: ast.AST) -> Set[str]:
    """Names bound by assignment/for/with directly in ``scope``."""
    names: Set[str] = set()
    for node in own_nodes(scope):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            targets = [node.target]
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            targets = [i.optional_vars for i in node.items if i.optional_vars]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
    return names


def _annotation_ref(node: Optional[ast.AST]) -> Optional[str]:
    """Render an annotation to a dotted reference string, if simple."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip().strip('"')
    if isinstance(node, (ast.Name, ast.Attribute)):
        try:
            return ast.unparse(node)
        except Exception:  # pragma: no cover - unparse is total on these
            return None
    if isinstance(node, ast.Subscript):  # Optional[X] / List[X] — take X
        return None
    return None


class ModuleIndex:
    """Lexical scoping index of one parsed file."""

    def __init__(self, ctx: FileContext):
        self.ctx = ctx
        self.module = ctx.module_name or ctx.path
        #: qualname -> FunctionInfo (module funcs, methods, nested, lambdas)
        self.functions: Dict[str, FunctionInfo] = {}
        #: bare class name -> ClassInfo
        self.classes: Dict[str, ClassInfo] = {}
        #: id(ast node) -> FunctionInfo for reverse lookups
        self.by_node: Dict[int, FunctionInfo] = {}
        #: module-level function name -> qualname
        self.module_functions: Dict[str, str] = {}
        #: simflow disable comments (mirrors simlint's in FileContext)
        self.flow_disabled_lines: Dict[int, Set[str]] = {}
        self.flow_disabled_file: Set[str] = set()
        self._scan_flow_disables()
        self._index()

    # -- disable comments -------------------------------------------------
    def _scan_flow_disables(self) -> None:
        for lineno, text in enumerate(self.ctx.lines, start=1):
            if "simflow" not in text:
                continue
            match = _FLOW_DISABLE_RE.search(text)
            if not match:
                continue
            kind, names = match.group(1), match.group(2)
            rules = (
                {n.strip() for n in names.split(",") if n.strip()}
                if names
                else {"*"}
            )
            if kind == "disable-file":
                self.flow_disabled_file |= rules
            else:
                self.flow_disabled_lines.setdefault(lineno, set()).update(rules)

    def is_disabled(self, rule: str, line: int) -> bool:
        if "*" in self.flow_disabled_file or rule in self.flow_disabled_file:
            return True
        on_line = self.flow_disabled_lines.get(line, ())
        return "*" in on_line or rule in on_line

    # -- indexing ---------------------------------------------------------
    def _index(self) -> None:
        self._walk_scope(self.ctx.tree, prefix=self.module, cls=None, parent=None)
        for info in self.classes.values():
            self._infer_attr_types(info)

    def _walk_scope(
        self,
        scope: ast.AST,
        prefix: str,
        cls: Optional[str],
        parent: Optional[str],
    ) -> None:
        body = scope.body if isinstance(scope.body, list) else [scope.body]
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{stmt.name}"
                info = FunctionInfo(
                    qualname=qual,
                    module=self.module,
                    name=stmt.name,
                    node=stmt,
                    ctx=self.ctx,
                    cls=cls,
                    parent=parent,
                    is_generator=any(
                        isinstance(n, (ast.Yield, ast.YieldFrom))
                        for n in own_nodes(stmt)
                    ),
                )
                self.functions[qual] = info
                self.by_node[id(stmt)] = info
                if cls is not None and parent is None:
                    self.classes[cls].methods[stmt.name] = qual
                elif cls is None and parent is None:
                    self.module_functions[stmt.name] = qual
                self._walk_scope(stmt, prefix=qual, cls=None, parent=qual)
                self._collect_lambdas(stmt, qual)
            elif isinstance(stmt, ast.ClassDef) and cls is None and parent is None:
                # Reuse the slots-hot-path rule's detection so the two
                # layers can never disagree about what "slotted" means.
                from repro.analysis.rules.slots_hot_path import _is_slotted

                info = ClassInfo(
                    qualname=f"{prefix}.{stmt.name}",
                    name=stmt.name,
                    module=self.module,
                    bases=[
                        r for r in (_annotation_ref(b) for b in stmt.bases) if r
                    ],
                    slotted=_is_slotted(stmt),
                )
                self.classes[stmt.name] = info
                self._walk_scope(
                    stmt, prefix=info.qualname, cls=stmt.name, parent=None
                )

    def _collect_lambdas(self, fn: ast.AST, prefix: str) -> None:
        for node in own_nodes(fn):
            for child in ast.walk(node):
                if isinstance(child, ast.Lambda) and id(child) not in self.by_node:
                    qual = f"{prefix}.<lambda>L{child.lineno}"
                    info = FunctionInfo(
                        qualname=qual,
                        module=self.module,
                        name="<lambda>",
                        node=child,
                        ctx=self.ctx,
                        parent=prefix,
                    )
                    self.functions[qual] = info
                    self.by_node[id(child)] = info

    def _infer_attr_types(self, cls: ClassInfo) -> None:
        for qual in cls.methods.values():
            fn = self.functions[qual]
            params: Dict[str, str] = {}
            args = fn.node.args
            for p in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
                ref = _annotation_ref(p.annotation)
                if ref:
                    params[p.arg] = ref
            for node in own_nodes(fn.node):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        ref = self._value_type_ref(node.value, params)
                        if ref and target.attr not in cls.attr_types:
                            cls.attr_types[target.attr] = ref

    def _value_type_ref(
        self, value: ast.AST, params: Dict[str, str]
    ) -> Optional[str]:
        """Class reference for an assigned value: ``Cls(...)`` or an
        annotated parameter name."""
        if isinstance(value, ast.Call):
            ref = _annotation_ref(value.func)
            if ref and ref.rsplit(".", 1)[-1][:1].isupper():
                return ref
        if isinstance(value, ast.Name):
            return params.get(value.id)
        return None

    # -- scope helpers ----------------------------------------------------
    def scope_chain(self, fn: FunctionInfo) -> List[FunctionInfo]:
        """The function plus its lexically enclosing functions, inner first."""
        chain = [fn]
        cur = fn
        while cur.parent is not None:
            cur = self.functions[cur.parent]
            chain.append(cur)
        return chain

    def local_names(self, fn: FunctionInfo) -> Set[str]:
        """Assigned locals + parameters of one function scope."""
        return assigned_names(fn.node) | fn.param_names()

    def enclosing_shared_names(self, fn: FunctionInfo) -> Set[str]:
        """Names a nested function/lambda shares with its enclosing
        function scopes (candidates for closure-shared state)."""
        names: Set[str] = set()
        for scope in self.scope_chain(fn):
            names |= self.local_names(scope)
        return names

    def nested_functions(self, fn: FunctionInfo) -> Dict[str, FunctionInfo]:
        body = fn.node.body if isinstance(fn.node.body, list) else []
        return {
            stmt.name: self.by_node[id(stmt)]
            for stmt in body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

    # -- reference resolution ---------------------------------------------
    def resolve_callback(
        self, expr: ast.AST, scope: Optional[FunctionInfo]
    ) -> Optional[FunctionInfo]:
        """Resolve a callback reference expression inside ``scope``.

        Handles lambdas, nested functions (through the lexical chain),
        module functions, ``self.method`` (through in-repo base
        classes), and single-assignment local aliases of any of these.
        """
        return self._resolve_ref(expr, scope, seen=set())

    def _resolve_ref(
        self,
        expr: ast.AST,
        scope: Optional[FunctionInfo],
        seen: Set[str],
    ) -> Optional[FunctionInfo]:
        if isinstance(expr, ast.Lambda):
            info = self.by_node.get(id(expr))
            return info
        if isinstance(expr, ast.Name):
            if scope is not None:
                for enclosing in self.scope_chain(scope):
                    nested = self.nested_functions(enclosing)
                    if expr.id in nested:
                        return nested[expr.id]
                alias = self._local_alias(expr.id, scope, seen)
                if alias is not None:
                    return alias
            qual = self.module_functions.get(expr.id)
            if qual is not None:
                return self.functions[qual]
            return None
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and scope is not None
            and scope.cls is not None
        ):
            return self.resolve_method(scope.cls, expr.attr)
        return None

    def _local_alias(
        self, name: str, scope: FunctionInfo, seen: Set[str]
    ) -> Optional[FunctionInfo]:
        """``f = self._handler`` / ``f = helper``: follow the alias when
        ``name`` has exactly one plain assignment in ``scope``."""
        if name in seen:
            return None
        seen.add(name)
        sources = [
            node.value
            for node in own_nodes(scope.node)
            if isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets
            )
        ]
        if len(sources) != 1:
            return None
        return self._resolve_ref(sources[0], scope, seen)

    def resolve_method(
        self, cls_name: str, method: str, _seen: Optional[Set[str]] = None
    ) -> Optional[FunctionInfo]:
        """A method by name on a class or its in-repo base classes
        (in-module only; :class:`Program` extends this across modules)."""
        seen = _seen if _seen is not None else set()
        if cls_name in seen:
            return None
        seen.add(cls_name)
        info = self.classes.get(cls_name)
        if info is None:
            return None
        qual = info.methods.get(method)
        if qual is not None:
            return self.functions[qual]
        for base in info.bases:
            found = self.resolve_method(base.rsplit(".", 1)[-1], method, seen)
            if found is not None:
                return found
        return None


class Program:
    """The whole-repo view: every ModuleIndex plus cross-module edges."""

    def __init__(self, indexes: Sequence[ModuleIndex]):
        self.indexes: List[ModuleIndex] = list(indexes)
        self.by_module: Dict[str, ModuleIndex] = {
            idx.module: idx for idx in self.indexes
        }
        self.functions: Dict[str, FunctionInfo] = {}
        for idx in self.indexes:
            self.functions.update(idx.functions)
        #: bare class name -> [ClassInfo] across modules
        self._classes_by_name: Dict[str, List[ClassInfo]] = {}
        for idx in self.indexes:
            for info in idx.classes.values():
                self._classes_by_name.setdefault(info.name, []).append(info)
        self.edges: List[CallSite] = []
        self.edges_from: Dict[str, List[CallSite]] = {}
        #: qualnames used as scheduled callbacks / generator processes.
        self.callback_roots: Set[str] = set()
        #: root qualname -> scheduling kinds it was registered under
        #: ("callback" | "timer" | "process") -- the event-mix buckets
        #: the simcost profile-guided ranker joins against.
        self.root_kinds: Dict[str, Set[str]] = {}
        self._build_edges()

    # -- construction -----------------------------------------------------
    @classmethod
    def from_paths(cls, paths: Iterable[str]) -> "Program":
        indexes = []
        for path in iter_python_files(paths):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except OSError as exc:
                raise LintError(f"{path}: {exc}") from exc
            indexes.append(ModuleIndex(FileContext(path, source)))
        return cls(indexes)

    def _build_edges(self) -> None:
        for idx in self.indexes:
            for fn in idx.functions.values():
                self._edges_for_function(idx, fn)

    def _edges_for_function(self, idx: ModuleIndex, fn: FunctionInfo) -> None:
        local_types = self._local_types(idx, fn)
        for node in own_nodes(fn.node):
            if not isinstance(node, ast.Call):
                continue
            callee = self._resolve_call(idx, fn, node, local_types)
            if callee is not None:
                self._add_edge(fn, callee, node, "call")
            self._scheduled_targets(idx, fn, node)

    def _add_edge(
        self, fn: FunctionInfo, callee: FunctionInfo, node: ast.AST, kind: str
    ) -> None:
        site = CallSite(
            caller=fn.qualname,
            callee=callee.qualname,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            kind=kind,
        )
        self.edges.append(site)
        self.edges_from.setdefault(fn.qualname, []).append(site)

    def _scheduled_targets(
        self, idx: ModuleIndex, fn: FunctionInfo, node: ast.Call
    ) -> None:
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        target_expr: Optional[ast.AST] = None
        kind = "callback"
        if attr in SCHEDULERS and len(node.args) >= 2:
            target_expr = node.args[1]
            if attr == "schedule_timer":
                kind = "timer"
        elif attr in CONTINUATIONS and len(node.args) > CONTINUATIONS[attr]:
            target_expr = node.args[CONTINUATIONS[attr]]
        elif attr == "process" and node.args:
            gen = node.args[0]
            if isinstance(gen, ast.Call):  # sim.process(self._rx_proc())
                target_expr = gen.func
            else:
                target_expr = gen
            kind = "process"
        if target_expr is None:
            return
        target = idx.resolve_callback(target_expr, fn)
        if target is None and isinstance(target_expr, (ast.Name, ast.Attribute)):
            target = self._resolve_imported(idx, target_expr)
        if target is not None:
            self._add_edge(fn, target, node, "scheduled")
            self.callback_roots.add(target.qualname)
            self.root_kinds.setdefault(target.qualname, set()).add(kind)

    def _local_types(self, idx: ModuleIndex, fn: FunctionInfo) -> Dict[str, str]:
        """name -> class reference for annotated params and
        ``x = ClassName(...)`` locals."""
        types: Dict[str, str] = {}
        if isinstance(fn.node, ast.Lambda):
            return types
        args = fn.node.args
        for p in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            ref = _annotation_ref(p.annotation)
            if ref:
                types[p.arg] = ref
        for node in own_nodes(fn.node):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                ref = _annotation_ref(node.value.func)
                if ref and ref.rsplit(".", 1)[-1][:1].isupper():
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            types[target.id] = ref
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                ref = _annotation_ref(node.annotation)
                if ref:
                    types[node.target.id] = ref
        return types

    def _resolve_call(
        self,
        idx: ModuleIndex,
        fn: FunctionInfo,
        node: ast.Call,
        local_types: Dict[str, str],
    ) -> Optional[FunctionInfo]:
        func = node.func
        # name(...) — nested / module-level / imported / class constructor
        if isinstance(func, ast.Name):
            local = idx.resolve_callback(func, fn)
            if local is not None:
                return local
            ctor = self._constructor(idx, func.id)
            if ctor is not None:
                return ctor
            return self._resolve_imported(idx, func)
        if not isinstance(func, ast.Attribute):
            return None
        base = func.value
        # self.m(...)
        if isinstance(base, ast.Name) and base.id == "self" and fn.cls is not None:
            found = self._resolve_method_global(idx, fn.cls, func.attr)
            if found is not None:
                return found
        # self.attr.m(...) via inferred attribute types
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
            and fn.cls is not None
        ):
            cls_info = idx.classes.get(fn.cls)
            if cls_info is not None:
                ref = cls_info.attr_types.get(base.attr)
                if ref is not None:
                    return self._method_of_ref(ref, func.attr)
        # var.m(...) via local annotation / construction
        if isinstance(base, ast.Name) and base.id in local_types:
            return self._method_of_ref(local_types[base.id], func.attr)
        # module.func(...) via imports
        return self._resolve_imported(idx, func)

    def _constructor(self, idx: ModuleIndex, name: str) -> Optional[FunctionInfo]:
        cls_info = idx.classes.get(name)
        if cls_info is None:
            hit = self._unique_class(name)
            if hit is None:
                return None
            cls_info = hit
        init = cls_info.methods.get("__init__")
        if init is not None:
            return self.functions.get(init)
        return None

    def _unique_class(self, bare: str) -> Optional[ClassInfo]:
        hits = self._classes_by_name.get(bare, [])
        return hits[0] if len(hits) == 1 else None

    def _method_of_ref(self, ref: str, method: str) -> Optional[FunctionInfo]:
        bare = ref.rsplit(".", 1)[-1]
        cls_info = self._unique_class(bare)
        if cls_info is None:
            return None
        idx = self.by_module.get(cls_info.module)
        if idx is None:
            return None
        return self._resolve_method_global(idx, cls_info.name, method)

    def _resolve_method_global(
        self, idx: ModuleIndex, cls_name: str, method: str
    ) -> Optional[FunctionInfo]:
        """Like ModuleIndex.resolve_method but follows base classes into
        other modules of the program."""
        found = idx.resolve_method(cls_name, method)
        if found is not None:
            return found
        info = idx.classes.get(cls_name)
        if info is None:
            hit = self._unique_class(cls_name)
            if hit is None:
                return None
            info = hit
            idx2 = self.by_module.get(info.module)
            if idx2 is not None and idx2 is not idx:
                return self._resolve_method_global(idx2, info.name, method)
            return None
        for base in info.bases:
            bare = base.rsplit(".", 1)[-1]
            base_info = self._unique_class(bare)
            if base_info is None:
                continue
            base_idx = self.by_module.get(base_info.module)
            if base_idx is None:
                continue
            found = self._resolve_method_global(base_idx, base_info.name, method)
            if found is not None:
                return found
        return None

    def _resolve_imported(
        self, idx: ModuleIndex, ref: ast.AST
    ) -> Optional[FunctionInfo]:
        """Resolve ``mod.func`` / imported ``func`` across modules."""
        qual = idx.ctx.qualified_name(ref)
        if qual is None:
            return None
        hit = self.functions.get(qual)
        if hit is not None:
            return hit
        # re-exported names: match a unique program function by suffix
        module, _, bare = qual.rpartition(".")
        if not module.startswith("repro"):
            return None
        candidates = [
            f
            for f in self.functions.values()
            if f.name == bare and f.cls is None and f.parent is None
        ]
        return candidates[0] if len(candidates) == 1 else None

    # -- queries ----------------------------------------------------------
    def resolver(self, fn: FunctionInfo):
        """A per-function closure mapping an ``ast.Call`` inside ``fn``
        to its resolved callee (or None) — the same resolution used to
        build the edges, exposed for the flow clients."""
        idx = self.by_module.get(fn.module)
        if idx is None:  # pragma: no cover - fn always comes from an index
            return lambda call: None
        local_types = self._local_types(idx, fn)

        def resolve(call: ast.Call) -> Optional[FunctionInfo]:
            return self._resolve_call(idx, fn, call, local_types)

        return resolve

    def is_disabled(self, finding) -> bool:
        """simflow/simlint disable comments for a Finding-like object."""
        for idx in self.indexes:
            if idx.ctx.path == finding.path:
                if idx.is_disabled(finding.rule, finding.line):
                    return True
                return idx.ctx.is_disabled(finding.rule, finding.line)
        return False

    def index_for_path(self, path: str) -> Optional[ModuleIndex]:
        for idx in self.indexes:
            if idx.ctx.path == path:
                return idx
        return None

    def is_slotted(self, cls_name: str, _seen: Optional[Set[str]] = None) -> Optional[bool]:
        """Whether instances of the (unique) class named ``cls_name``
        have no per-instance ``__dict__``.

        ``True`` requires the class body *and every resolvable base* to
        carry ``__slots__`` -- Python silently adds a ``__dict__`` when
        any class in the MRO lacks slots.  ``False`` means a definition
        was found without slots; ``None`` means unknown (class not in
        the program, ambiguous bare name, or an unresolvable non-trivial
        base such as an external mixin)."""
        seen = _seen if _seen is not None else set()
        bare = cls_name.rsplit(".", 1)[-1]
        if bare in seen:
            return True
        seen.add(bare)
        info = self._unique_class(bare)
        if info is None:
            return None
        if not info.slotted:
            return False
        for base in info.bases:
            base_bare = base.rsplit(".", 1)[-1]
            if base_bare in ("object", "Generic", "Protocol"):
                continue
            base_ok = self.is_slotted(base_bare, seen)
            if base_ok is None and base_bare.endswith(("Error", "Exception", "Warning")):
                continue  # exception hierarchies are never hot-path state
            if base_ok is not True:
                return base_ok
        return True

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """Qualnames reachable over call edges from ``roots``."""
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            for site in self.edges_from.get(cur, ()):
                if site.callee not in seen:
                    stack.append(site.callee)
        return seen

    def reachable_from_callbacks(self) -> Set[str]:
        """Everything reachable from an event callback or a simulated
        process — the code whose determinism the engine depends on."""
        return self.reachable_from(self.callback_roots)
