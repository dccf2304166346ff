"""Whole-program effect analysis over the lint call graph.

:mod:`repro.lint.project` answers "who calls whom"; this module answers
"who *does* what".  Every function in the analysed tree (plus each
module's top-level code) gets an **effect summary** — which module-level
globals it reads, which it writes, and which IO surfaces it touches —
computed as a fixpoint over the call graph: a function's summary is its
own local effects joined with the summaries of everything it calls.
The join is set union over a finite universe, so the shared worklist
(:func:`repro.lint.project.solve`, re-queueing a function's callers
whenever its summary grows) converges on recursive and
mutually-recursive graphs in O(edges × effects).  Local effects are
read off the AST nodes each :class:`~repro.lint.project.FunctionNode`
owns, so this module walks no scopes of its own.

On top of the summaries sit three *entry-point* discoveries:

* **fork-task entries** — first arguments of ``map_tasks(fn, ...)`` /
  ``scheduler.map(fn, ...)`` / ``.submit(fn, ...)`` call sites: these
  run in pool workers, so their transitive writes never survive the
  join unless explicitly merged back;
* **cache builders** — ``build`` arguments of
  ``TestbedCache.get_or_build(key, build)`` sites (plain names, dotted
  references, and the call targets inside ``lambda: ...`` builders):
  their transitive reads must be derivable from the key;
* **event handlers** — methods registered in a ``self.*handlers*``
  dict literal, plus the ``_handle_*`` naming convention inside
  ``repro.simulator.*``: the batched loop may reorder whole slices, so
  handlers must confine their effects to engine-owned instance state.

Four rules consume those views (all pragma-suppressible at both the
anchored definition line and the offending effect-site line):

* ``shared-mutable-global`` — task-reachable code writes a module-level
  global with no entry in :data:`MERGE_BACK_REGISTRY`;
* ``cache-key-escape`` — a cache builder transitively reads stateful
  module globals or ambient IO (environment, files, sockets);
* ``impure-event-handler`` — an event handler transitively writes
  module globals or performs IO;
* ``fork-held-resource`` — a module-level OS resource (file handle,
  lock, socket) created at import time — i.e. pre-fork — is used by
  task-reachable code.

Precision notes, so nobody over-trusts the output: instance-attribute
mutation (``self.x = ...``) is *engine-owned state* and never tracked;
aliasing a global into a local (``g = GLOBAL; g.append(...)``) hides
the write; attribute calls on arbitrary objects stay unresolved, same
as in the call graph.  Reads are only reported for *stateful* globals —
those some function in the tree actually writes, or OS resources —
so module-level constant tables do not drown the table.  Modules in
:data:`EFFECT_BOUNDARY_MODULES` are the hand-audited runtime machinery
(profiling, rng, testbed cache, scheduler): effects neither originate
from nor propagate through them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.base import Rule
from repro.lint.checkers import task_dispatches, unwrap_partial
from repro.lint.findings import Finding, sort_findings
from repro.lint.project import (
    FunctionNode,
    ModuleInfo,
    ProjectModel,
    is_internal,
    matches_function,
    render_chain,
    solve,
)

SHARED_MUTABLE_GLOBAL = "shared-mutable-global"
CACHE_KEY_ESCAPE = "cache-key-escape"
IMPURE_EVENT_HANDLER = "impure-event-handler"
FORK_HELD_RESOURCE = "fork-held-resource"

EFFECT_RULES: Tuple[Rule, ...] = (
    Rule(SHARED_MUTABLE_GLOBAL,
         "fork-task-reachable code mutates a module-level global with no "
         "registered merge-back hook"),
    Rule(CACHE_KEY_ESCAPE,
         "testbed-cache builder reads state not derivable from its key "
         "arguments"),
    Rule(IMPURE_EVENT_HANDLER,
         "simulator event handler with effects outside engine-owned "
         "state"),
    Rule(FORK_HELD_RESOURCE,
         "pre-fork module-level OS resource used in task-reachable code"),
)

#: Module-level globals whose worker-side mutations are *deliberately*
#: reconciled at join time.  Every entry documents where the merge-back
#: lives; ``shared-mutable-global`` skips these.
MERGE_BACK_REGISTRY: Dict[str, str] = {
    "repro.simulator.engine:_EVENTS_TOTAL":
        "worker deltas ride back in TaskOutcome and are folded into the "
        "parent counter by TaskScheduler.map via engine.absorb_events()",
    "repro.runtime.cache:_DEFAULT":
        "hit/miss counter deltas ride back in TaskOutcome and are folded "
        "in task order via TestbedCache.absorb_stats()",
    "repro.sanitize.instrument:_TYPE_CRC":
        "content-keyed CRC memo: worker-local entries are recomputed "
        "identically on demand, so dropping them at join loses nothing",
    "repro.runtime.chaos:_DELAYS_INJECTED":
        "injected-delay counter: worker deltas ride back in TaskOutcome "
        "and are folded into the parent by TaskScheduler.map via "
        "chaos.absorb_delays()",
}

#: Hand-audited runtime machinery: the sanctioned clock, the entropy
#: boundary, and the cache/scheduler whose *job* is cross-process state
#: reconciliation.  Effects neither originate from nor flow through
#: these modules.
EFFECT_BOUNDARY_MODULES = frozenset({
    "repro.obs.profiling",
    "repro.utils.rng",
    "repro.runtime.cache",
    "repro.runtime.scheduler",
})

#: Event-handler naming convention only applies under this prefix.
_SIMULATOR_PREFIX = "repro.simulator"

#: Container-mutating method names on a module-global receiver.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "appendleft", "popleft",
    "sort", "reverse", "set",
})

#: Dotted call targets that constitute IO (ambient, non-key input or
#: output to the host).  Builtins ``open``/``input``/``print`` are
#: matched by bare name as well.
_IO_CALLS = frozenset({
    "open", "input", "print",
    "os.open", "os.fdopen", "os.remove", "os.unlink", "os.rename",
    "os.replace", "os.mkdir", "os.makedirs", "os.listdir", "os.scandir",
    "os.getcwd", "os.getenv", "os.uname", "os.system", "os.popen",
    "socket.socket", "socket.create_connection", "socket.gethostname",
    "sqlite3.connect",
    "subprocess.run", "subprocess.Popen", "subprocess.call",
    "subprocess.check_call", "subprocess.check_output",
    "tempfile.mkstemp", "tempfile.mkdtemp", "tempfile.NamedTemporaryFile",
    "tempfile.TemporaryFile",
    "shutil.copy", "shutil.copyfile", "shutil.copytree", "shutil.move",
    "shutil.rmtree",
    "urllib.request.urlopen",
    "platform.node", "getpass.getuser",
})

#: Module-level calls whose result is an OS resource held across fork.
_RESOURCE_FACTORIES = frozenset({
    "open", "os.fdopen", "socket.socket", "socket.create_connection",
    "sqlite3.connect", "threading.Lock", "threading.RLock",
    "threading.Semaphore", "threading.BoundedSemaphore",
    "threading.Condition", "threading.Event", "multiprocessing.Lock",
    "multiprocessing.RLock", "multiprocessing.Queue",
    "tempfile.NamedTemporaryFile", "tempfile.TemporaryFile",
})

#: Module-level calls known to build immutable (or context-local)
#: values — never classified as shared mutable state.
_IMMUTABLE_FACTORIES = frozenset({
    "frozenset", "tuple", "re.compile", "collections.namedtuple",
    "typing.TypeVar", "typing.NewType", "contextvars.ContextVar",
})


@dataclass(frozen=True)
class GlobalVar:
    """One module-level binding: ``module:NAME``."""

    key: str
    module: str
    name: str
    path: str
    line: int
    kind: str  # "container" | "object" | "resource" | "contextvar" | "scalar"

    @property
    def mutable(self) -> bool:
        return self.kind in ("container", "object", "resource")


@dataclass
class LocalEffect:
    """Effects a single function performs directly (no callees).

    Each map goes ``target -> first line`` so chain messages can point
    at the concrete effect site.
    """

    reads: Dict[str, int] = field(default_factory=dict)
    writes: Dict[str, int] = field(default_factory=dict)
    io: Dict[str, int] = field(default_factory=dict)

    def note(self, table: Dict[str, int], target: str, line: int) -> None:
        if target not in table or line < table[target]:
            table[target] = line


@dataclass(frozen=True)
class EntryPoint:
    """One discovered entry: the function key plus the discovery site."""

    key: str
    site_path: str
    site_line: int
    via: str  # "map_tasks" | "scheduler" | "get_or_build" | ...


@dataclass
class EffectAnalysis:
    """The computed effect tables for one :class:`ProjectModel`."""

    model: ProjectModel
    globals: Dict[str, GlobalVar]
    local: Dict[str, LocalEffect]
    summaries: Dict[str, "Summary"]
    stateful: Set[str]
    task_entries: List[EntryPoint]
    cache_builders: List[EntryPoint]
    event_handlers: List[str]

    def classify(self, key: str) -> str:
        """Lattice point of one function: pure < read < mutates < io."""
        summary = self.summaries.get(key)
        if summary is None:
            return "pure"
        if summary.io:
            return "io"
        if summary.writes:
            return "mutates"
        if summary.reads & self.stateful:
            return "read"
        return "pure"


@dataclass
class Summary:
    """Transitive effect sets (targets only; sites stay local)."""

    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    io: Set[str] = field(default_factory=set)

    def merge(self, other: "Summary") -> bool:
        """Union ``other`` in; True when anything changed."""
        before = (len(self.reads), len(self.writes), len(self.io))
        self.reads |= other.reads
        self.writes |= other.writes
        self.io |= other.io
        return (len(self.reads), len(self.writes), len(self.io)) != before


# -- global-variable discovery ---------------------------------------


def _classify_module_value(
    info: ModuleInfo, value: Optional[ast.expr]
) -> str:
    """Kind of a module-level binding, from the shape of its RHS."""
    if value is None:
        return "scalar"
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return "container"
    if isinstance(value, ast.Call):
        resolved = info.source.resolve(value.func)
        name = resolved
        if name is None and isinstance(value.func, ast.Name):
            name = value.func.id
        if name is None:
            return "object"
        if name in _RESOURCE_FACTORIES:
            return "resource"
        if name in _IMMUTABLE_FACTORIES or name.endswith("ContextVar"):
            return "contextvar" if name.endswith("ContextVar") else "scalar"
        if name in ("list", "dict", "set", "bytearray") or (
            name.startswith("collections.")
            and not name.endswith("namedtuple")
        ):
            return "container"
        return "object"
    return "scalar"


def _collect_globals(model: ProjectModel) -> Dict[str, GlobalVar]:
    table: Dict[str, GlobalVar] = {}

    def record(info: ModuleInfo, target: ast.expr,
               value: Optional[ast.expr], line: int) -> None:
        if not isinstance(target, ast.Name):
            return
        name = target.id
        if name.startswith("__") or name in info.functions:
            return
        if name in info.classes or name in info.source.aliases:
            return
        key = f"{info.name}:{name}"
        if key in table:
            return  # first binding wins (later rebinds are not defs)
        table[key] = GlobalVar(
            key=key, module=info.name, name=name,
            path=info.source.display_path, line=line,
            kind=_classify_module_value(info, value),
        )

    def scan(info: ModuleInfo, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    record(info, target, stmt.value, stmt.lineno)
            elif isinstance(stmt, ast.AnnAssign):
                record(info, stmt.target, stmt.value, stmt.lineno)
            elif isinstance(stmt, ast.If):
                scan(info, stmt.body)
                scan(info, stmt.orelse)
            elif isinstance(stmt, ast.Try):
                scan(info, stmt.body)
                scan(info, stmt.orelse)
                scan(info, stmt.finalbody)

    for name in sorted(model.modules):
        scan(model.modules[name], model.modules[name].source.tree.body)
    return table


# -- local effect collection -----------------------------------------


def _collect_binds(fn: FunctionNode) -> Tuple[Set[str], Set[str]]:
    """``(locally bound names, names declared global)`` for one def."""
    binds: Set[str] = set()
    declared: Set[str] = set()
    node = fn.node
    if isinstance(node, ast.Module):
        return binds, declared
    binds.update(arg.arg for arg in fn.params)
    args = node.args
    if args.vararg is not None:
        binds.add(args.vararg.arg)
    if args.kwarg is not None:
        binds.add(args.kwarg.arg)

    def scan(nodes: Iterable[ast.AST]) -> None:
        for child in nodes:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                binds.add(child.name)
                continue  # nested scopes are separate nodes
            if isinstance(child, ast.Lambda):
                continue
            if isinstance(child, ast.Global):
                declared.update(child.names)
            elif isinstance(child, ast.Name) and isinstance(
                child.ctx, (ast.Store, ast.Del)
            ):
                binds.add(child.id)
            elif isinstance(child, ast.ExceptHandler) and child.name:
                binds.add(child.name)
            elif isinstance(child, ast.Import):
                for alias in child.names:
                    binds.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(child, ast.ImportFrom):
                for alias in child.names:
                    binds.add(alias.asname or alias.name)
            scan(ast.iter_child_nodes(child))

    scan(node.body)
    return binds - declared, declared


class _EffectCollector:
    """Attributes the AST nodes one function owns to its local effects.

    A node inside a class body counts as its owner's, with the owner's
    enclosing class (the only place the class matters is a handler
    table, which lives in a method body).  A redefined key (property
    setter) owns both bodies, read with the last def's local names.
    """

    def __init__(
        self,
        model: ProjectModel,
        fn: FunctionNode,
        globals_table: Dict[str, GlobalVar],
        local: Dict[str, LocalEffect],
        handler_keys: Set[str],
    ) -> None:
        self._info = model.modules[fn.module]
        self._globals = globals_table
        self._local = local
        self._handlers = handler_keys
        self._fn = fn
        self._module_scope = isinstance(fn.node, ast.Module)
        self._binds, self._declared = _collect_binds(fn)

    def run(self) -> None:
        for node in self._fn.owned:
            self._classify(node, self._fn.enclosing_class)

    # -- effect classification ----------------------------------------

    def _note(self, table: str, key: str, line: int) -> None:
        # A module initialising (or re-reading) its own globals at
        # import time is definition, not shared-state traffic.
        if table != "io" and self._module_scope and key.startswith(
            f"{self._info.name}:"
        ):
            return
        effect = self._local.setdefault(self._fn.key, LocalEffect())
        effect.note(getattr(effect, table), key, line)

    def _global_key_for(self, node: ast.expr) -> Optional[str]:
        """``module:NAME`` when ``node`` denotes a module-level global."""
        if isinstance(node, ast.Name):
            if node.id in self._binds:
                return None
            if node.id in self._declared or (
                node.id not in self._info.source.aliases
            ):
                key = f"{self._info.name}:{node.id}"
                return key if key in self._globals else None
        resolved = self._info.source.resolve(node)
        if resolved is None or not resolved.startswith("repro"):
            return None
        module, _, name = resolved.rpartition(".")
        if not module:
            return None
        key = f"{module}:{name}"
        return key if key in self._globals else None

    def _classify(
        self, node: ast.AST, enclosing_class: Optional[str]
    ) -> None:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets: List[ast.expr]
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            else:
                targets = [node.target]
            for target in targets:
                self._classify_store(node, target)
            if isinstance(node, ast.Assign):
                self._maybe_handler_table(node, enclosing_class)
            return
        if isinstance(node, ast.Call):
            self._classify_call(node)
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            key = self._global_key_for(node)
            if key is not None:
                self._note("reads", key, node.lineno)
            return
        if isinstance(node, ast.Attribute) and isinstance(
            node.ctx, ast.Load
        ):
            resolved = self._info.source.resolve(node)
            if resolved == "os.environ":
                self._note("io", "os.environ", node.lineno)
                return
            key = self._global_key_for(node)
            if key is not None:
                self._note("reads", key, node.lineno)

    def _classify_store(self, stmt: ast.AST, target: ast.expr) -> None:
        line = int(getattr(stmt, "lineno", 1))
        if isinstance(target, ast.Name):
            if target.id in self._declared:
                key = f"{self._info.name}:{target.id}"
                if key in self._globals:
                    self._note("writes", key, line)
            return
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            key = self._global_key_for(target.value)
            if key is not None:
                self._note("writes", key, line)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._classify_store(stmt, element)

    def _classify_call(self, node: ast.Call) -> None:
        func = node.func
        resolved = self._info.source.resolve(func)
        name = resolved
        if name is None and isinstance(func, ast.Name):
            if func.id in ("open", "input", "print") and (
                func.id not in self._binds
                and func.id not in self._info.functions
            ):
                name = func.id
        if name is not None and name in _IO_CALLS:
            self._note("io", name, node.lineno)
            return
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATOR_METHODS
        ):
            key = self._global_key_for(func.value)
            if key is not None:
                kind = self._globals[key].kind
                if kind == "contextvar":
                    return  # context-local by design (ambient pattern)
                self._note("writes", key, node.lineno)

    def _maybe_handler_table(
        self, node: ast.Assign, enclosing_class: Optional[str]
    ) -> None:
        """``self._handlers = {Type: self._handle_x, ...}`` registration."""
        if enclosing_class is None or not isinstance(node.value, ast.Dict):
            return
        if not any(
            isinstance(t, ast.Attribute) and "handler" in t.attr.lower()
            for t in node.targets
        ):
            return
        for value in node.value.values:
            if (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id in ("self", "cls")
            ):
                key = self._info.functions.get(
                    f"{enclosing_class}.{value.attr}"
                )
                if key is not None:
                    self._handlers.add(key)


# -- entry-point discovery -------------------------------------------


def _resolve_callable_ref(
    model: ProjectModel, info: ModuleInfo, node: ast.expr
) -> Optional[str]:
    """Function key for a bare callable reference (not a call);
    ``functools.partial(fn, ...)`` resolves to ``fn``."""
    node = unwrap_partial(info.source, node)
    if isinstance(node, ast.Call):
        return None
    resolved = info.source.resolve(node)
    if resolved is not None and is_internal(resolved):
        return model.lookup_internal(resolved)
    if isinstance(node, ast.Name):
        return info.functions.get(node.id)
    return None


def _lambda_targets(
    model: ProjectModel, info: ModuleInfo, node: ast.Lambda
) -> List[str]:
    """Internal call targets inside a ``lambda: ...`` builder body."""
    keys: List[str] = []
    for child in ast.walk(node.body):
        if isinstance(child, ast.Call):
            key = _resolve_callable_ref(model, info, child.func)
            if key is not None:
                keys.append(key)
    return keys


def _discover_entries(
    model: ProjectModel,
) -> Tuple[List[EntryPoint], List[EntryPoint]]:
    """``(task entries, cache-builder roots)`` from every call site."""
    tasks: Dict[Tuple[str, str, int], EntryPoint] = {}
    builders: Dict[Tuple[str, str, int], EntryPoint] = {}
    for name in sorted(model.modules):
        info = model.modules[name]
        path = info.source.display_path
        for node in task_dispatches(info.source):
            via = ("map_tasks" if not isinstance(node.func, ast.Attribute)
                   else f"scheduler.{node.func.attr}")
            key = _resolve_callable_ref(model, info, node.args[0])
            if key is not None:
                tasks.setdefault((key, path, node.lineno), EntryPoint(
                    key=key, site_path=path, site_line=node.lineno, via=via,
                ))
        for raw in info.raw_calls:
            node = raw.node
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr == "get_or_build"):
                continue
            build: Optional[ast.expr] = None
            if len(node.args) >= 2:
                build = node.args[1]
            else:
                for keyword in node.keywords:
                    if keyword.arg == "build":
                        build = keyword.value
            if build is None:
                continue
            if isinstance(build, ast.Lambda):
                keys = _lambda_targets(model, info, build)
            else:
                resolved_key = _resolve_callable_ref(model, info, build)
                keys = [resolved_key] if resolved_key is not None else []
            for key in keys:
                builders.setdefault((key, path, node.lineno), EntryPoint(
                    key=key, site_path=path, site_line=node.lineno,
                    via="get_or_build",
                ))
    return (
        [tasks[k] for k in sorted(tasks)],
        [builders[k] for k in sorted(builders)],
    )


def _discover_handlers(
    model: ProjectModel, registered: Set[str]
) -> List[str]:
    handlers = set(registered)
    for key in model.functions:
        node = model.functions[key]
        if not node.module.startswith(_SIMULATOR_PREFIX):
            continue
        parts = node.qualname.rsplit(".", 1)
        if len(parts) == 2 and parts[1].startswith("_handle_"):
            handlers.add(key)
    return sorted(handlers)


# -- the fixpoint -----------------------------------------------------


def _is_boundary(model: ProjectModel, key: str) -> bool:
    return model.functions[key].module in EFFECT_BOUNDARY_MODULES


def _compute_summaries(
    model: ProjectModel, local: Dict[str, LocalEffect]
) -> Dict[str, Summary]:
    summaries: Dict[str, Summary] = {}
    for key in sorted(model.functions):
        effect = local.get(key)
        summary = Summary()
        if effect is not None and not _is_boundary(model, key):
            summary.reads = set(effect.reads)
            summary.writes = set(effect.writes)
            summary.io = set(effect.io)
        summaries[key] = summary

    def step(current: str) -> Sequence[str]:
        if _is_boundary(model, current):
            return ()  # boundary functions keep an empty summary
        changed = False
        for edge in model.functions[current].edges:
            if edge.internal and not _is_boundary(model, edge.target):
                changed |= summaries[current].merge(summaries[edge.target])
        return model.callers.get(current, ()) if changed else ()

    solve(sorted(summaries), step)
    return summaries


# -- reachability -----------------------------------------------------


def _paths_from(
    model: ProjectModel, start: str
) -> Dict[str, Tuple[str, ...]]:
    """Shortest call paths from ``start``, pruned at effect boundaries."""
    if start not in model.functions:
        return {}
    paths: Dict[str, Tuple[str, ...]] = {start: (start,)}

    def step(current: str) -> List[str]:
        reached = sorted({
            edge.target for edge in model.functions[current].edges
            if edge.internal and edge.target not in paths
            and not _is_boundary(model, edge.target)
        })
        for target in reached:
            paths[target] = (*paths[current], target)
        return reached

    solve([start], step)
    return paths


# -- the analysis entry point ----------------------------------------


def analyze(model: ProjectModel) -> EffectAnalysis:
    """Run the whole effect pass over a built :class:`ProjectModel`."""
    globals_table = _collect_globals(model)
    local: Dict[str, LocalEffect] = {}
    registered_handlers: Set[str] = set()
    for key in sorted(model.functions):
        _EffectCollector(
            model, model.functions[key], globals_table, local,
            registered_handlers,
        ).run()
    stateful: Set[str] = {
        key for key, var in globals_table.items()
        if var.kind == "resource"
    }
    for effect in local.values():
        stateful.update(effect.writes)
    # Drop reads of never-written, non-resource globals everywhere: a
    # module-level table nobody mutates is a constant, not state.
    for effect in local.values():
        effect.reads = {
            key: line for key, line in effect.reads.items()
            if key in stateful
        }
    summaries = _compute_summaries(model, local)
    task_entries, cache_builders = _discover_entries(model)
    handlers = _discover_handlers(model, registered_handlers)
    return EffectAnalysis(
        model=model,
        globals=globals_table,
        local=local,
        summaries=summaries,
        stateful=stateful,
        task_entries=task_entries,
        cache_builders=cache_builders,
        event_handlers=handlers,
    )


# -- the four rules ---------------------------------------------------

#: One effect site a rule reports: ``(target, line, verb)``.
_Site = Tuple[str, int, str]


def _sites(table: Dict[str, int], verb: str) -> List[_Site]:
    return [(target, line, verb) for target, line in sorted(table.items())]


def _reached_sites(
    analysis: EffectAnalysis,
    start: str,
    rule_id: str,
    sites_of: Callable[[EffectAnalysis, LocalEffect], List[_Site]],
    seen: Set[Tuple[str, str]],
) -> Iterator[Tuple[str, str, str]]:
    """``(target, verb, chain)`` per new target reachable from ``start``.

    Functions are visited nearest first.  The first site of a target
    whose line carries no ``rule_id`` pragma is reported, and
    ``(start, target)`` joins ``seen`` so it is reported only once.
    """
    model = analysis.model
    paths = _paths_from(model, start)
    for reached in sorted(paths, key=lambda k: (len(paths[k]), k)):
        effect = analysis.local.get(reached)
        if effect is None:
            continue
        node = model.functions[reached]
        source = model.modules[node.module].source
        for target, line, verb in sites_of(analysis, effect):
            if (start, target) in seen or source.is_suppressed(
                rule_id, line
            ):
                continue
            seen.add((start, target))
            terminal = f"{target} ({node.path}:{line})"
            yield target, verb, render_chain(model, paths[reached],
                                             terminal)


def _unmerged_writes(
    analysis: EffectAnalysis, effect: LocalEffect
) -> List[_Site]:
    return [
        site for site in _sites(effect.writes, "mutates")
        if site[0] not in MERGE_BACK_REGISTRY
        and analysis.globals[site[0]].kind != "contextvar"
    ]


def _key_escapes(
    analysis: EffectAnalysis, effect: LocalEffect
) -> List[_Site]:
    return [*_sites(effect.reads, "reads module state"),
            *_sites(effect.writes, "mutates module state"),
            *_sites(effect.io, "performs IO via")]


def _impure_sites(
    analysis: EffectAnalysis, effect: LocalEffect
) -> List[_Site]:
    return [*_sites(effect.writes, "writes"),
            *_sites(effect.io, "performs IO via")]


def _resource_uses(
    analysis: EffectAnalysis, effect: LocalEffect
) -> List[_Site]:
    first: Dict[str, int] = {}
    for table in (effect.reads, effect.writes):
        for target, line in table.items():
            if analysis.globals[target].kind == "resource" and (
                target not in first or line < first[target]
            ):
                first[target] = line
    return _sites(first, "uses")


def _tasks(analysis: EffectAnalysis) -> List[Tuple[str, str]]:
    return [(e.key, "") for e in analysis.task_entries]


def _builders(analysis: EffectAnalysis) -> List[Tuple[str, str]]:
    return [(e.key, f"{e.site_path}:{e.site_line}")
            for e in analysis.cache_builders]


def _handlers(analysis: EffectAnalysis) -> List[Tuple[str, str]]:
    return [(key, "") for key in analysis.event_handlers]


class _EffectRule(NamedTuple):
    """One effect rule: it walks from every ``(entry key, registration
    site)`` that ``entries`` yields and reports, once per entry and
    target, the nearest site that ``sites`` finds."""

    rule_id: str
    entries: Callable[[EffectAnalysis], List[Tuple[str, str]]]
    sites: Callable[[EffectAnalysis, LocalEffect], List[_Site]]
    #: Formatted with the entry's qualname ``fn``, the ``target``, the
    #: site's ``verb``, the call ``chain``, the entry's registration
    #: ``site`` and the target global's definition ``origin``.
    message: str


_EFFECT_RULES: Tuple[_EffectRule, ...] = (
    _EffectRule(
        SHARED_MUTABLE_GLOBAL, _tasks, _unmerged_writes,
        "fork task {fn} mutates module-level {target} with no registered "
        "merge-back hook: {chain}; worker-local mutations are dropped at "
        "join — return the state with the task result or register a "
        "merge-back (repro.lint.effects.MERGE_BACK_REGISTRY)",
    ),
    _EffectRule(
        CACHE_KEY_ESCAPE, _builders, _key_escapes,
        "cache builder {fn} (registered at {site}) {verb} {target}, which "
        "is not derivable from its key arguments: {chain}; a stale hit "
        "returns a value built from state the key never saw",
    ),
    _EffectRule(
        IMPURE_EVENT_HANDLER, _handlers, _impure_sites,
        "event handler {fn} {verb} {target} outside engine-owned state: "
        "{chain}; the batched loop reorders whole slices, so handler "
        "effects must stay on the engine instance",
    ),
    _EffectRule(
        FORK_HELD_RESOURCE, _tasks, _resource_uses,
        "fork task {fn} uses {target}, an OS resource created at import "
        "time ({origin}) and inherited across fork: {chain}; open it "
        "inside the task (or after the pool starts) so workers get their "
        "own handle",
    ),
)


def effect_findings(analysis: EffectAnalysis) -> List[Finding]:
    """All four rules, canonically ordered (site pragmas applied)."""
    model = analysis.model
    findings: List[Finding] = []
    for rule_id, entries, sites_of, template in _EFFECT_RULES:
        seen: Set[Tuple[str, str]] = set()
        for start, site in entries(analysis):
            node = model.functions[start]
            for target, verb, chain in _reached_sites(
                analysis, start, rule_id, sites_of, seen
            ):
                var = analysis.globals.get(target)
                origin = "" if var is None else f"{var.path}:{var.line}"
                findings.append(Finding(
                    rule_id=rule_id, path=node.path, line=node.line,
                    message=template.format(
                        fn=node.qualname, target=target, verb=verb,
                        chain=chain, site=site, origin=origin,
                    ),
                ))
    return sort_findings(findings)


def effect_rule_catalog() -> Dict[str, str]:
    """``rule id -> summary`` for the effect rules."""
    return {rule.rule_id: rule.summary for rule in EFFECT_RULES}


# -- the effect report (CLI / CI artifact) ---------------------------


def effect_report(
    analysis: EffectAnalysis,
    findings: Iterable[Finding],
    function: Optional[str] = None,
) -> Dict[str, object]:
    """Deterministic JSON-ready payload of the whole effect table.

    ``function`` filters the function table to keys equal to, or whose
    qualname matches, the given name (``repro lint effects --function``).
    """
    model = analysis.model
    task_reachable: Set[str] = set()
    for entry in analysis.task_entries:
        task_reachable.update(_paths_from(model, entry.key))
    entry_keys = {e.key for e in analysis.task_entries}
    builder_keys = {e.key for e in analysis.cache_builders}
    handler_keys = set(analysis.event_handlers)
    functions: List[Dict[str, object]] = []
    for key in sorted(model.functions):
        node = model.functions[key]
        if not matches_function(function, key, node.qualname):
            continue
        summary = analysis.summaries[key]
        functions.append({
            "function": key,
            "path": node.path,
            "line": node.line,
            "effect": analysis.classify(key),
            "reads": sorted(summary.reads & analysis.stateful),
            "writes": sorted(summary.writes),
            "io": sorted(summary.io),
            "task_entry": key in entry_keys,
            "task_reachable": key in task_reachable,
            "cache_builder": key in builder_keys,
            "event_handler": key in handler_keys,
        })
    globals_rows: List[Dict[str, object]] = []
    for key in sorted(analysis.globals):
        var = analysis.globals[key]
        if not (var.mutable or key in analysis.stateful):
            continue
        globals_rows.append({
            "global": key,
            "path": var.path,
            "line": var.line,
            "kind": var.kind,
            "stateful": key in analysis.stateful,
            "merge_back": MERGE_BACK_REGISTRY.get(key),
        })
    return {
        "functions": functions,
        "globals": globals_rows,
        "entry_points": {
            "tasks": [
                {"function": e.key, "site": f"{e.site_path}:{e.site_line}",
                 "via": e.via}
                for e in analysis.task_entries
            ],
            "cache_builders": [
                {"function": e.key, "site": f"{e.site_path}:{e.site_line}",
                 "via": e.via}
                for e in analysis.cache_builders
            ],
            "event_handlers": list(analysis.event_handlers),
        },
        "findings": [finding.to_dict() for finding in findings],
    }
