"""Rule ``concurrency`` — process-wide mutable state must be guarded.

Invariant protected: process-wide registries that are *lazily*
populated — module-level globals written on first use, such as the
shard-worker pool registry and its "workers cannot start here" latch
in ``repro/shardexec/pool.py`` — are reachable from many threads at
once (every serving session attaches through them).  An unsynchronized
check-then-create (``if _POOL is None: _POOL = …``) racing on first
use can build two pools: one leaks its workers forever, and "shared"
invariants documented on the global (one pool per log root) silently
stop holding.  The same shape applies to any flag or cache written
through ``global`` from code reachable by more than one thread.

The rule: inside any function, an assignment to a module-level name
(one the module also assigns at top level, reached via a ``global``
statement) must be lexically inside a ``with`` block whose context
expression mentions a lock-ish identifier (``*lock*``/``*mutex*``,
case-insensitive).  Alternatives for genuine one-time init done before
threads exist: register the global with a ``# repro-lint: single-init``
comment on its module-level assignment, or suppress the site with
``# repro-lint: ignore[concurrency]``.

Known limitation (documented, deliberate): mutations through method
calls on module-level containers (``_CACHE[key] = …``) are not
flagged — the rule targets the lazy-init/flag-write shape that has
actually bitten this codebase.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.analysis.astutil import iter_with_ancestors, mentions_lock
from tools.analysis.core import Checker, Finding, SourceFile

__all__ = ["ConcurrencyChecker"]


def _module_level_names(tree: ast.Module) -> dict[str, int]:
    """Names assigned in the module body, with their first line."""
    names: dict[str, int] = {}
    for node in tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.setdefault(target.id, node.lineno)
    return names


def _assigned_names(node: ast.AST) -> list[ast.Name]:
    """``Name`` targets this statement writes (stores), if any."""
    targets: list[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    names: list[ast.Name] = []
    for target in targets:
        if isinstance(target, ast.Tuple):
            names.extend(
                element
                for element in target.elts
                if isinstance(element, ast.Name)
            )
        elif isinstance(target, ast.Name):
            names.append(target)
    return names


class ConcurrencyChecker(Checker):
    """Bare ``global`` writes and unsynchronized lazy-init."""

    name = "concurrency"
    description = (
        "module-global writes must hold a lock (or be registered "
        "single-init)"
    )

    def applies_to(self, rel: str) -> bool:
        return rel.startswith("src/repro/")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        module_names = _module_level_names(source.tree)
        single_init = {
            name
            for name, line in module_names.items()
            if line in source.single_init
        }
        for node, ancestors in iter_with_ancestors(source.tree):
            if not isinstance(node, ast.Global):
                continue
            declared = [
                name
                for name in node.names
                if name in module_names and name not in single_init
            ]
            if not declared:
                continue
            function = next(
                (
                    ancestor
                    for ancestor in reversed(ancestors)
                    if isinstance(
                        ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)
                    )
                ),
                None,
            )
            if function is None:
                continue  # `global` at module level is a no-op
            yield from self._check_function(source, function, declared)

    def _check_function(
        self,
        source: SourceFile,
        function: ast.AST,
        declared: list[str],
    ) -> Iterator[Finding]:
        wanted = set(declared)
        for node, ancestors in iter_with_ancestors(function):
            # stay inside *this* function: a nested def has its own
            # `global` statement or doesn't write the name
            if any(
                isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef))
                and ancestor is not function
                for ancestor in ancestors
            ):
                continue
            for target in _assigned_names(node):
                if target.id not in wanted:
                    continue
                if self._under_lock(ancestors):
                    continue
                yield Finding(
                    source.rel,
                    node.lineno,
                    self.name,
                    f"unsynchronized write to module global "
                    f"{target.id!r} in {getattr(function, 'name', '?')!r} "
                    "— threaded dispatch can race the check-then-create; "
                    "guard the write with a lock (double-checked is "
                    "fine), or register the global with "
                    "'# repro-lint: single-init' if it provably "
                    "initializes before threads start",
                )

    @staticmethod
    def _under_lock(ancestors: tuple[ast.AST, ...]) -> bool:
        for ancestor in ancestors:
            if isinstance(ancestor, (ast.With, ast.AsyncWith)) and any(
                mentions_lock(item.context_expr) for item in ancestor.items
            ):
                return True
        return False
