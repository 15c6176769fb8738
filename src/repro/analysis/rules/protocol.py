"""R004 — protocol-drift: every backend matches ``ExecutionBackend``.

The schedule executor is written purely against the nine-primitive
``ExecutionBackend`` protocol, and ``backend="auto"`` dispatch (a-Tucker
style) is only sound if every dispatch target honors the *same* call
shape — a backend that renames a parameter, drops a keyword, or ships a
different default silently diverges the moment a caller passes by
keyword or relies on the default.

The rule parses the base module (option ``base-glob``, default
``*/backends/base.py``), collects the abstract methods of the protocol
class (option ``protocol``, default ``ExecutionBackend``), then checks
every class in the project that lists the protocol as a base — and every
class deriving from one of those, for the methods it overrides:

* every abstract method is implemented (same name) by a direct subclass;
* positional parameter names match, in order;
* keyword-only parameter names match, in order;
* every default value matches the base's, token for token
  (annotations are deliberately *not* compared — backends legitimately
  narrow ``Any`` handles to their own handle types).

If the base module is not among the analyzed files the rule has nothing
to anchor to and stays silent (lint ``src`` as a whole for full
coverage).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from repro.analysis.core import FileContext, Finding, Project, Rule

__all__ = ["ProtocolDriftRule"]

DEFAULT_BASE_GLOB = "*/backends/base.py"
DEFAULT_PROTOCOL = "ExecutionBackend"


@dataclass(frozen=True)
class MethodSig:
    """The comparable shape of one method signature."""

    args: tuple[str, ...]
    defaults: tuple[str, ...]  # unparsed, aligned to the tail of args
    kwonly: tuple[str, ...]
    kw_defaults: tuple[str | None, ...]
    vararg: str | None
    kwarg: str | None


def _signature(node: ast.FunctionDef) -> MethodSig:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return MethodSig(
        args=tuple(names),
        defaults=tuple(ast.unparse(d) for d in args.defaults),
        kwonly=tuple(a.arg for a in args.kwonlyargs),
        kw_defaults=tuple(
            None if d is None else ast.unparse(d) for d in args.kw_defaults
        ),
        vararg=args.vararg.arg if args.vararg else None,
        kwarg=args.kwarg.arg if args.kwarg else None,
    )


def _is_abstract(node: ast.FunctionDef) -> bool:
    for dec in node.decorator_list:
        name = dec.attr if isinstance(dec, ast.Attribute) else (
            dec.id if isinstance(dec, ast.Name) else None
        )
        if name in ("abstractmethod", "abstractproperty"):
            return True
    return False


def _class_methods(node: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        item.name: item
        for item in node.body
        if isinstance(item, ast.FunctionDef)
    }


def _base_names(node: ast.ClassDef) -> set[str]:
    out: set[str] = set()
    for base in node.bases:
        if isinstance(base, ast.Name):
            out.add(base.id)
        elif isinstance(base, ast.Attribute):
            out.add(base.attr)
    return out


def _drift(base: MethodSig, impl: MethodSig) -> list[str]:
    problems: list[str] = []
    if impl.args != base.args:
        problems.append(
            f"positional parameters {list(impl.args)} != protocol's "
            f"{list(base.args)}"
        )
    if impl.kwonly != base.kwonly:
        problems.append(
            f"keyword-only parameters {list(impl.kwonly)} != protocol's "
            f"{list(base.kwonly)}"
        )
    else:
        for name, base_default, impl_default in zip(
            base.kwonly, base.kw_defaults, impl.kw_defaults
        ):
            if base_default != impl_default:
                problems.append(
                    f"default for '{name}' is {impl_default or '<required>'} "
                    f"!= protocol's {base_default or '<required>'}"
                )
    if impl.args == base.args and impl.defaults != base.defaults:
        problems.append(
            f"positional defaults {list(impl.defaults)} != protocol's "
            f"{list(base.defaults)}"
        )
    if impl.vararg != base.vararg:
        problems.append(
            f"*{impl.vararg or ''} != protocol's *{base.vararg or ''}"
        )
    if impl.kwarg != base.kwarg:
        problems.append(
            f"**{impl.kwarg or ''} != protocol's **{base.kwarg or ''}"
        )
    return problems


class ProtocolDriftRule(Rule):
    id = "R004"
    name = "protocol-drift"
    description = (
        "every ExecutionBackend subclass implements each abstract method "
        "with a matching signature and defaults"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        base_glob = str(
            project.config.option(self.id, "base-glob", DEFAULT_BASE_GLOB)
        )
        protocol = str(
            project.config.option(self.id, "protocol", DEFAULT_PROTOCOL)
        )
        base_ctx = project.find_file(base_glob)
        if base_ctx is None:
            return
        base_class = next(
            (
                node
                for node in ast.walk(base_ctx.tree)
                if isinstance(node, ast.ClassDef) and node.name == protocol
            ),
            None,
        )
        if base_class is None:
            yield self.finding(
                base_ctx,
                1,
                f"protocol class {protocol} not found in {base_ctx.path}",
            )
            return
        abstract = {
            name: _signature(fn)
            for name, fn in _class_methods(base_class).items()
            if _is_abstract(fn)
        }
        classes = [
            (ctx, node)
            for ctx in project.files
            if ctx is not base_ctx
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef)
        ]
        # Subclasses of a backend (by name, to a fixpoint) inherit the
        # protocol: only the methods they override are checked.
        backends = {protocol}
        grown = True
        while grown:
            grown = False
            for _, node in classes:
                if node.name not in backends and _base_names(node) & backends:
                    backends.add(node.name)
                    grown = True
        for ctx, node in classes:
            if node.name == protocol or node.name not in backends:
                continue
            direct = protocol in _base_names(node)
            methods = _class_methods(node)
            for name in sorted(abstract):
                impl = methods.get(name)
                if impl is None:
                    if direct:
                        yield self.finding(
                            ctx,
                            node,
                            f"{node.name} does not implement "
                            f"{protocol}.{name}; the schedule executor "
                            "will hit the abstract method at runtime",
                        )
                    continue
                for problem in _drift(abstract[name], _signature(impl)):
                    yield self.finding(
                        ctx,
                        impl,
                        f"{node.name}.{name} drifts from "
                        f"{protocol}.{name}: {problem}",
                    )
