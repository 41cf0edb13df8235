"""Rule ``ipc`` — only registered messages cross worker pipes.

Invariant protected: the shard-worker protocol
(:mod:`repro.shardexec.messages`) is a *closed* set of flat, frozen
dataclasses registered with ``@register_message``.  ``multiprocessing``
pipes pickle whatever they are handed, so the easy bug is shipping an
object that merely *happens* to pickle — a closure-captured engine, a
view holding the coordinator's graph, a dict someone improvised — and
the protocol silently stops being a protocol: a journal-only worker
starts receiving coordinator state it has no use for, every batch pays
to pickle it, and the worker-side allowlist rejects it only at
runtime, mid-window, tearing the window.

The rule, over ``src/repro/shardexec/``: the payload of every
``*.send(payload)`` call (and the message argument of the pool's
``_send(index, message)`` wrapper) must be traceable to a registered
message —

* a constructor call of a class decorated with ``@register_message``
  anywhere in the package (``conn.send(ErrorReply(...))``);
* a call to a function or method whose return annotation names a
  registered message class (``conn.send(context.seal(message))`` where
  ``def seal(...) -> SealAck``);
* a local variable whose every binding in the enclosing function is one
  of the above.

Flagged: literals (dicts, tuples, strings, lambdas, comprehensions),
calls to anything unregistered, and variables bound to either.

Known limitations: bare names with no local binding (function
parameters, values received off the pipe) are accepted — dataflow
across call boundaries is the runtime allowlist's job, not a
one-file-at-a-time linter's.  The rule keys on method *names*
(``send`` / ``_send``), so an unrelated ``send`` method on a non-pipe
object inside the package would be held to the same standard — in this
package, that is a feature.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from tools.analysis.astutil import call_name, iter_with_ancestors
from tools.analysis.core import Checker, Finding, Project, SourceFile

__all__ = ["IpcChecker"]


def _decorator_name(node: ast.expr) -> str:
    """Trailing identifier of a decorator expression."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _annotation_name(node: Optional[ast.expr]) -> str:
    """Trailing identifier of a return annotation (``SealAck``,
    ``messages.SealAck``, or the string form ``"SealAck"``)."""
    if node is None:
        return ""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.rsplit(".", 1)[-1]
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _registered_classes(tree: ast.AST) -> Iterator[str]:
    """Class names decorated with ``@register_message``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            _decorator_name(decorator) == "register_message"
            for decorator in node.decorator_list
        ):
            yield node.name


def _producers(tree: ast.AST, registered: frozenset[str]) -> Iterator[str]:
    """Names of functions annotated as returning a registered message."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _annotation_name(node.returns) in registered:
                yield node.name


_LITERALS = (
    ast.Constant,
    ast.Dict,
    ast.List,
    ast.Set,
    ast.Tuple,
    ast.JoinedStr,
    ast.Lambda,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


class IpcChecker(Checker):
    """Worker-pipe payloads must be registered protocol messages."""

    name = "ipc"
    description = (
        "shardexec pipe sends must carry @register_message payloads"
    )

    def applies_to(self, rel: str) -> bool:
        return rel.startswith("src/repro/shardexec/")

    # ------------------------------------------------------------------
    # All work happens in finalize: the allowlist is the union of every
    # @register_message class in the package, so no single file can be
    # judged before all of them were parsed.
    # ------------------------------------------------------------------

    def finalize(self, project: Project) -> Iterator[Finding]:
        scoped = [
            source
            for source in project.files
            if self.applies_to(source.rel)
        ]
        registered = frozenset(
            name
            for source in scoped
            for name in _registered_classes(source.tree)
        )
        producers = frozenset(
            name
            for source in scoped
            for name in _producers(source.tree, registered)
        )
        for source in scoped:
            yield from self._check_sends(source, registered, producers)

    def _check_sends(
        self,
        source: SourceFile,
        registered: frozenset[str],
        producers: frozenset[str],
    ) -> Iterator[Finding]:
        for node, ancestors in iter_with_ancestors(source.tree):
            payload = _send_payload(node)
            if payload is None:
                continue
            verdict = self._verdict(payload, ancestors, registered, producers)
            if verdict is not None:
                yield Finding(source.rel, node.lineno, self.name, verdict)

    def _verdict(
        self,
        payload: ast.expr,
        ancestors: tuple[ast.AST, ...],
        registered: frozenset[str],
        producers: frozenset[str],
    ) -> Optional[str]:
        """A finding message when the payload is not sanctioned, else
        ``None``."""
        if _sanctioned_call(payload, registered, producers):
            return None
        if isinstance(payload, ast.Call):
            name = call_name(payload) or "<computed>"
            return (
                f"pipe send of unregistered call result `{name}(...)` — "
                "payloads must be @register_message constructors (see "
                "repro.shardexec.messages)"
            )
        if isinstance(payload, _LITERALS):
            return (
                "pipe send of a bare literal — wrap the payload in a "
                "@register_message dataclass from repro.shardexec.messages"
            )
        if isinstance(payload, ast.Name):
            bindings = _local_bindings(payload.id, ancestors)
            if bindings and not any(
                _sanctioned_call(value, registered, producers)
                for value in bindings
            ):
                return (
                    f"pipe send of `{payload.id}`, which is never bound "
                    "to a registered message in this function"
                )
        return None


def _send_payload(node: ast.AST) -> Optional[ast.expr]:
    """The message expression of a pipe-send call, or ``None``.

    ``anything.send(payload)`` and the coordinator's
    ``self._send(index, payload)`` wrapper are both transport calls.
    """
    if not isinstance(node, ast.Call) or not isinstance(
        node.func, ast.Attribute
    ):
        return None
    if node.func.attr == "send" and len(node.args) >= 1:
        return node.args[0]
    if node.func.attr == "_send" and len(node.args) >= 2:
        return node.args[1]
    return None


def _sanctioned_call(
    node: ast.expr,
    registered: frozenset[str],
    producers: frozenset[str],
) -> bool:
    """Is ``node`` a call producing a registered message?"""
    if not isinstance(node, ast.Call):
        return False
    tail = call_name(node).rsplit(".", 1)[-1]
    return tail in registered or tail in producers


def _local_bindings(
    name: str, ancestors: tuple[ast.AST, ...]
) -> list[ast.expr]:
    """Every value assigned to ``name`` in the innermost enclosing
    function (parameters and outer scopes yield no bindings)."""
    for scope in reversed(ancestors):
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
    else:
        return []
    values: list[ast.expr] = []
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
            targets = [node.target]
            value = node.value
        else:
            continue
        if value is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                values.append(value)
    return values
