"""Project symbol table: modules, classes, functions, and their state.

One :class:`ModuleSymbol` per linted file, built from the engine's
already-parsed :class:`~repro.analysis.lint.engine.FileContext` (this
module never parses).  Symbols are keyed by dotted *qualname* —
``repro.serve.runtime.ServingRuntime._run_shard`` — derived from the
file's path, so cross-file references resolve through the same names
the import map produces.

Beyond names, class symbols record the state the concurrency rules
reason about:

- ``class_mutable_attrs``: class-body bindings of mutable containers
  (shared across every instance, hence across every shard);
- ``instance_attr_types``: ``self.x = SomeClass(...)`` constructor
  assignments in ``__init__``, used to type ``self.x.method()`` calls;
- ``private_mutable_attrs``: underscore-prefixed instance attributes
  initialised to mutable containers — per-target monitor state that
  must never be touched from outside its owning shard's call path.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
from typing import Iterable, Mapping

from repro.analysis.lint.engine import FileContext

#: Constructor calls (resolved through import aliases) that produce a
#: mutable container, in addition to dict/list/set literals and builtins.
MUTABLE_CONSTRUCTORS = frozenset({
    "collections.defaultdict", "collections.Counter",
    "collections.OrderedDict", "collections.deque",
})


def module_name_for(display_path: str) -> str:
    """Dotted module name for a linted file.

    Preference order: the path tail after the last ``src`` component
    (the repo layout), else from the first ``repro`` component (already
    repo-relative), else — for fixtures and scratch files — the bare
    stem.  ``__init__.py`` maps to its package.
    """
    parts = list(pathlib.PurePosixPath(display_path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    elif "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    return ".".join(parts) if parts else display_path


def _is_mutable_value(node: ast.expr, imports: Mapping[str, str]) -> bool:
    """A dict/list/set literal, comprehension, or mutable constructor."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set,
                         ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in ("dict", "list", "set"):
                return True
            return imports.get(func.id) in MUTABLE_CONSTRUCTORS
        if isinstance(func, ast.Attribute):
            dotted = _dotted(func)
            if dotted is None:
                return False
            root, _, rest = dotted.partition(".")
            target = imports.get(root, root)
            return f"{target}.{rest}" in MUTABLE_CONSTRUCTORS
    return False


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _annotation_name(node: ast.expr | None) -> str | None:
    """Dotted name of a simple annotation (``X``, ``a.X``, ``"X"``)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, (ast.Name, ast.Attribute)):
        return _dotted(node)
    return None


@dataclasses.dataclass
class FunctionSymbol:
    """One function or method definition (nested defs included)."""

    qualname: str
    name: str
    module: str
    ctx: FileContext
    node: ast.FunctionDef | ast.AsyncFunctionDef
    owner: "ClassSymbol | None" = None
    parent: "FunctionSymbol | None" = None

    @property
    def is_method(self) -> bool:
        return self.owner is not None and self.parent is None


@dataclasses.dataclass
class ClassSymbol:
    """One class definition plus the state shape its rules care about."""

    qualname: str
    name: str
    module: str
    ctx: FileContext
    node: ast.ClassDef
    #: base-class names as written (dotted), resolved lazily by the graph
    bases: tuple[str, ...] = ()
    methods: dict[str, FunctionSymbol] = dataclasses.field(default_factory=dict)
    #: class-body mutable container bindings (non-ALL_CAPS, non-dunder)
    class_mutable_attrs: dict[str, ast.AST] = dataclasses.field(
        default_factory=dict
    )
    #: ``self.x = Ctor(...)`` in __init__: attr -> dotted constructor name
    instance_attr_types: dict[str, str] = dataclasses.field(default_factory=dict)
    #: ``self._x = {}``-style private mutable state from __init__
    private_mutable_attrs: frozenset[str] = frozenset()


@dataclasses.dataclass
class ModuleSymbol:
    """One linted file as a module."""

    name: str
    ctx: FileContext
    functions: dict[str, FunctionSymbol] = dataclasses.field(default_factory=dict)
    classes: dict[str, ClassSymbol] = dataclasses.field(default_factory=dict)
    #: module-level mutable container bindings (name -> defining node),
    #: excluding ALL_CAPS frozen-by-convention constants and dunders
    mutable_globals: dict[str, ast.AST] = dataclasses.field(default_factory=dict)
    #: module-level constructed objects: ``TRACER = Tracer()`` and the
    #: like (name -> dotted constructor as resolved through imports).
    #: ALL_CAPS names are *included* here — a shared tracer is shared no
    #: matter how it is spelled.
    global_instances: dict[str, str] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class SymbolTable:
    """Qualname-keyed view over every linted file."""

    modules: dict[str, ModuleSymbol] = dataclasses.field(default_factory=dict)
    functions: dict[str, FunctionSymbol] = dataclasses.field(default_factory=dict)
    classes: dict[str, ClassSymbol] = dataclasses.field(default_factory=dict)
    #: bare method name -> every class method with that name
    method_index: dict[str, tuple[FunctionSymbol, ...]] = dataclasses.field(
        default_factory=dict
    )
    #: private mutable attr name -> every class declaring it
    private_attr_index: dict[str, tuple[ClassSymbol, ...]] = dataclasses.field(
        default_factory=dict
    )


def _harvest_init(cls: ClassSymbol) -> None:
    """Fill instance-attr facts from the class's ``__init__``."""
    init = cls.methods.get("__init__")
    if init is None:
        return
    imports = cls.ctx.imports
    private: set[str] = set()
    for node in ast.walk(init.node):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            if attr.startswith("_") and _is_mutable_value(node.value, imports):
                private.add(attr)
            if isinstance(node.value, ast.Call):
                ctor = _dotted(node.value.func)
                if ctor is not None:
                    cls.instance_attr_types.setdefault(attr, ctor)
    cls.private_mutable_attrs = frozenset(private)


def _class_symbol(
    ctx: FileContext, module: str, node: ast.ClassDef
) -> ClassSymbol:
    qualname = f"{module}.{node.name}"
    bases = tuple(
        dotted for dotted in (_dotted(b) for b in node.bases) if dotted
    )
    cls = ClassSymbol(
        qualname=qualname,
        name=node.name,
        module=module,
        ctx=ctx,
        node=node,
        bases=bases,
    )
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls.methods[stmt.name] = FunctionSymbol(
                qualname=f"{qualname}.{stmt.name}",
                name=stmt.name,
                module=module,
                ctx=ctx,
                node=stmt,
                owner=cls,
            )
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if (
                stmt.value is not None
                and not stmt.target.id.isupper()
                and not stmt.target.id.startswith("__")
                and _is_mutable_value(stmt.value, ctx.imports)
            ):
                cls.class_mutable_attrs[stmt.target.id] = stmt
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if (
                    isinstance(target, ast.Name)
                    and not target.id.isupper()
                    and not target.id.startswith("__")
                    and _is_mutable_value(stmt.value, ctx.imports)
                ):
                    cls.class_mutable_attrs[target.id] = stmt
    _harvest_init(cls)
    return cls


def _module_symbol(ctx: FileContext) -> ModuleSymbol:
    name = module_name_for(ctx.display_path)
    mod = ModuleSymbol(name=name, ctx=ctx)
    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = FunctionSymbol(
                qualname=f"{name}.{stmt.name}",
                name=stmt.name,
                module=name,
                ctx=ctx,
                node=stmt,
            )
            mod.functions[stmt.name] = fn
        elif isinstance(stmt, ast.ClassDef):
            mod.classes[stmt.name] = _class_symbol(ctx, name, stmt)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                [t for t in stmt.targets if isinstance(t, ast.Name)]
                if isinstance(stmt, ast.Assign)
                else [stmt.target] if isinstance(stmt.target, ast.Name) else []
            )
            value = stmt.value
            if value is None:
                continue
            if _is_mutable_value(value, ctx.imports):
                for target in targets:
                    if target.id.isupper() or target.id.startswith("__"):
                        continue
                    mod.mutable_globals[target.id] = stmt
            elif isinstance(value, ast.Call):
                ctor = _dotted(value.func)
                if ctor is not None:
                    root, _, rest = ctor.partition(".")
                    resolved = ctx.imports.get(root)
                    if resolved is not None:
                        ctor = f"{resolved}.{rest}" if rest else resolved
                    for target in targets:
                        mod.global_instances[target.id] = ctor
    return mod


def _nested_functions(table: SymbolTable, fn: FunctionSymbol) -> None:
    """Register defs nested directly or transitively inside ``fn``."""
    for stmt in ast.walk(fn.node):
        if stmt is fn.node:
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Attribute the nested def to its closest registered ancestor;
            # one level of qualname nesting is enough for call resolution.
            nested = FunctionSymbol(
                qualname=f"{fn.qualname}.{stmt.name}",
                name=stmt.name,
                module=fn.module,
                ctx=fn.ctx,
                node=stmt,
                owner=fn.owner,
                parent=fn,
            )
            table.functions.setdefault(nested.qualname, nested)


def build_symbol_table(contexts: Iterable[FileContext]) -> SymbolTable:
    """One table over every file, in deterministic path order."""
    table = SymbolTable()
    for ctx in sorted(contexts, key=lambda c: c.display_path):
        mod = _module_symbol(ctx)
        if mod.name in table.modules:
            # Same module linted twice (duplicate path forms): first wins.
            continue
        table.modules[mod.name] = mod
        for fn in mod.functions.values():
            table.functions[fn.qualname] = fn
            _nested_functions(table, fn)
        for cls in mod.classes.values():
            table.classes[cls.qualname] = cls
            for method in cls.methods.values():
                table.functions[method.qualname] = method
                _nested_functions(table, method)
    by_method: dict[str, list[FunctionSymbol]] = {}
    by_attr: dict[str, list[ClassSymbol]] = {}
    for qualname in sorted(table.functions):
        fn = table.functions[qualname]
        if fn.is_method:
            by_method.setdefault(fn.name, []).append(fn)
    for qualname in sorted(table.classes):
        cls = table.classes[qualname]
        for attr in sorted(cls.private_mutable_attrs):
            by_attr.setdefault(attr, []).append(cls)
    table.method_index = {name: tuple(fns) for name, fns in by_method.items()}
    table.private_attr_index = {
        attr: tuple(classes) for attr, classes in by_attr.items()
    }
    return table
