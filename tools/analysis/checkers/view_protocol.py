"""Rule ``view-protocol`` — every view subclasses ``IncrementalView``,
writes the incremental half of the contract, and leaves ``apply`` to
the protocol.

Invariant protected: the engine fan-out, the snapshot store, and the
router all duck-type against :class:`repro.engine.view.IncrementalView`
— ``absorb`` for dispatch, ``snapshot``/``restore`` for persistence,
``relevance``/``empty_output`` for routing.  A view that implements
``absorb`` but forgets ``restore`` (or changes an arity) type-checks
nowhere and fails at the worst possible time: during recovery or the
first routed batch.  Python's ``Protocol`` only checks method *names*
at ``isinstance`` time, and only for the methods the protocol itself
declares — this rule checks the whole table, statically.

The protocol writes ``apply`` once — ``G ⊕ ΔG`` with
``Delta.apply_to``, then ``absorb`` — so the engine's fan-out and a
standalone ``apply`` run the same code.  A view that defines its own
``apply`` re-creates a second maintenance path and is a finding.

A class is a *view candidate* when it subclasses ``IncrementalView``
or defines both ``absorb`` and ``snapshot`` methods (the pair nothing
but a view defines).  Under ``src/repro/dataflow/`` the trigger is
stricter: the dataflow package exists to let users define *new* view
classes, so there a class defining **any** method from the tables
below is a candidate — a user view that implements ``apply`` and
``snapshot`` but forgets ``restore`` must be caught even though it
never defined ``absorb``.  Every candidate must subclass
``IncrementalView``, must not define ``apply``, and must define the
required table, each callable with the engine's calling convention
(positional arity range, ``classmethod`` where required):

============== ============================= =====================
method          called as                     flavor
============== ============================= =====================
absorb          (delta, new_nodes)            instance
snapshot        ()                            instance
restore         (graph, state, meter)         classmethod
relevance       ()                            instance
empty_output    ()                            instance
============== ============================= =====================

``insert_edge (source, target, **labels)`` and ``delete_edge (source,
target)`` have defaults on the protocol (one-update batches through
``apply``); a view that overrides them with a unit algorithm keeps
those arities.

The checker also guards itself against protocol drift: when the file
defining ``IncrementalView`` is in the scanned set, any protocol
method missing from these tables is reported — so extending the
protocol forces the rule (and with it every implementation) to catch
up.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional

from tools.analysis.core import Checker, Finding, SourceFile

__all__ = ["ViewProtocolChecker"]

#: The protocol class: checked for drift against the tables below, not
#: as an implementation, and the base every view subclasses.
_PROTOCOL_CLASS = "IncrementalView"

#: Under this prefix, defining *any* protocol method makes a class a
#: candidate (the package hosts user-defined views; partial
#: implementations must not slip through the absorb+snapshot trigger).
_STRICT_PREFIX = "src/repro/dataflow/"


@dataclass(frozen=True)
class _MethodSpec:
    """Expected shape of one protocol method."""

    #: positional arguments the engine/persistence layer passes
    #: (excluding self/cls)
    call_arity: int
    classmethod_required: bool = False
    allows_kwargs: bool = False
    rendered: str = ""


_REQUIRED: dict[str, _MethodSpec] = {
    "absorb": _MethodSpec(2, rendered="(delta, new_nodes)"),
    "snapshot": _MethodSpec(0, rendered="()"),
    "restore": _MethodSpec(3, classmethod_required=True,
                           rendered="(graph, state, meter)"),
    "relevance": _MethodSpec(0, rendered="()"),
    "empty_output": _MethodSpec(0, rendered="()"),
}

#: Written on the protocol; a view may override them with a unit
#: algorithm at the same arity.
_OVERRIDABLE: dict[str, _MethodSpec] = {
    "insert_edge": _MethodSpec(2, allows_kwargs=True,
                               rendered="(source, target, **labels)"),
    "delete_edge": _MethodSpec(2, rendered="(source, target)"),
}

#: Written once on the protocol; an override is a second maintenance path.
_FINAL = "apply"

_TABLE = {*_REQUIRED, *_OVERRIDABLE, _FINAL}


def _methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _subclasses_protocol(cls: ast.ClassDef) -> bool:
    return any(
        (isinstance(base, ast.Name) and base.id == _PROTOCOL_CLASS)
        or (isinstance(base, ast.Attribute) and base.attr == _PROTOCOL_CLASS)
        for base in cls.bases
    )


def _is_classmethod(method: ast.FunctionDef) -> bool:
    return any(
        isinstance(decorator, ast.Name) and decorator.id == "classmethod"
        for decorator in method.decorator_list
    )


def _arity_error(method: ast.FunctionDef, spec: _MethodSpec) -> Optional[str]:
    """Why the def cannot be called at the protocol's arity, or None."""
    args = method.args
    positional = list(args.posonlyargs) + list(args.args)
    if positional:
        positional = positional[1:]  # drop self / cls
    defaults = len(args.defaults)
    minimum = max(0, len(positional) - defaults)
    maximum = len(positional) if args.vararg is None else None
    if spec.call_arity < minimum:
        return (
            f"requires at least {minimum} positional argument(s); the "
            f"engine calls it with {spec.call_arity}"
        )
    if maximum is not None and spec.call_arity > maximum:
        return (
            f"accepts at most {maximum} positional argument(s); the "
            f"engine calls it with {spec.call_arity}"
        )
    return None


class ViewProtocolChecker(Checker):
    """Candidate view classes must implement the full protocol."""

    name = "view-protocol"
    description = (
        "view classes must subclass IncrementalView, leave apply to it, "
        "and implement the rest of its table"
    )

    def applies_to(self, rel: str) -> bool:
        return rel.startswith("src/repro/")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = _methods(node)
            if node.name == _PROTOCOL_CLASS:
                yield from self._check_protocol_drift(source, node, methods)
                continue
            subclass = _subclasses_protocol(node)
            if source.rel.startswith(_STRICT_PREFIX):
                candidate = subclass or not _TABLE.isdisjoint(methods)
            else:
                candidate = subclass or (
                    "absorb" in methods and "snapshot" in methods
                )
            if candidate:
                yield from self._check_candidate(source, node, methods, subclass)

    def _check_candidate(
        self,
        source: SourceFile,
        cls: ast.ClassDef,
        methods: dict[str, ast.FunctionDef],
        subclass: bool,
    ) -> Iterator[Finding]:
        if not subclass:
            yield Finding(
                source.rel,
                cls.lineno,
                self.name,
                f"view class {cls.name!r} does not subclass "
                f"{_PROTOCOL_CLASS} — the protocol supplies apply, "
                "insert_edge and delete_edge",
            )
        if _FINAL in methods:
            yield Finding(
                source.rel,
                methods[_FINAL].lineno,
                self.name,
                f"{cls.name}.{_FINAL} overrides the protocol's single "
                "maintenance path (G ⊕ ΔG, then absorb) — write absorb "
                "only",
            )
        for name, spec in _REQUIRED.items():
            if name not in methods:
                yield Finding(
                    source.rel,
                    cls.lineno,
                    self.name,
                    f"view class {cls.name!r} is missing "
                    f"{name}{spec.rendered} — required by the "
                    "IncrementalView contract (engine fan-out, routing, "
                    "and snapshot recovery all duck-type against it)",
                )
        for name, spec in {**_REQUIRED, **_OVERRIDABLE}.items():
            method = methods.get(name)
            if method is None:
                continue
            if spec.classmethod_required and not _is_classmethod(method):
                yield Finding(
                    source.rel,
                    method.lineno,
                    self.name,
                    f"{cls.name}.{name} must be a @classmethod — "
                    "persistence restores views without an instance",
                )
                continue
            problem = _arity_error(method, spec)
            if problem is not None:
                yield Finding(
                    source.rel,
                    method.lineno,
                    self.name,
                    f"{cls.name}.{name} {problem} "
                    f"(protocol signature: {name}{spec.rendered})",
                )

    def _check_protocol_drift(
        self,
        source: SourceFile,
        cls: ast.ClassDef,
        methods: dict[str, ast.FunctionDef],
    ) -> Iterator[Finding]:
        for name, method in methods.items():
            if name.startswith("_"):
                continue
            if name not in _TABLE:
                yield Finding(
                    source.rel,
                    method.lineno,
                    self.name,
                    f"protocol method {cls.name}.{name} is not in the "
                    "view-protocol rule's method table — update "
                    "tools/analysis/checkers/view_protocol.py so every "
                    "implementation is held to the new contract",
                )
