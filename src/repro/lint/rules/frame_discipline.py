"""Rule ``frame-discipline``: forks join, branches scope, charges review.

Deferred-time service frames (DESIGN.md §10) are the substrate the
overlap numbers stand on; three mechanical mistakes corrupt their
accounting silently — every test stays green, the latency tables just
stop meaning anything:

1. **an unjoined fork** — a function fans out with
   :class:`~repro.common.frames.FrameFork` but never calls ``join()``,
   so the frame cursor stays at the *fork point* instead of the slowest
   branch and the fan-out becomes free;
2. **an unscoped branch** — ``fork.branch()`` called outside a ``with``
   statement never replays the cursor nor records the branch end (and
   never closes its happens-before task);
3. **a cursor poke** — assigning ``frame.cursor_us`` directly teleports
   a frame's clock without the max/replay bookkeeping ``charge_elapsed``
   and ``FrameFork`` maintain, leaking time across frame boundaries.
   Service code *charges*; only :data:`ALLOWED_CURSOR_MODULES` — the
   frame substrate (busy timelines included) and the disk's inlined
   copy of a timeline charge — may move a cursor by hand.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List

from repro.lint.framework import Finding, ParsedModule, Rule, register

#: Modules reviewed as legitimate direct movers of a frame cursor.
ALLOWED_CURSOR_MODULES: FrozenSet[str] = frozenset(
    {
        # the frame substrate itself (charge_elapsed, FrameFork replay,
        # BusyTimeline reservations)
        "repro.common.frames",
        # the disk's reference paths inline BusyTimeline.charge_ceiled
        # operation for operation (DESIGN.md §13) and therefore move
        # the cursor exactly where the timeline would
        "repro.simdisk.disk",
    }
)

#: Frame-cursor attributes no one else may assign.
CURSOR_ATTRS: FrozenSet[str] = frozenset({"cursor_us"})


@register
class FrameDisciplineRule(Rule):
    """Fork/branch/charge misuse in deferred-time service code."""

    rule_id = "frame-discipline"
    hint = (
        "join every FrameFork (the join charges the slowest branch), "
        "enter branch() with a with-statement, and move frame time by "
        "charging (charge_elapsed / BusyTimeline.charge) — only the "
        "substrate modules in repro.lint.rules.frame_discipline."
        "ALLOWED_CURSOR_MODULES assign cursor_us directly"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        cursor_allowed = module.module in ALLOWED_CURSOR_MODULES
        for qualname, func in _functions(module.tree):
            own = list(_own_nodes(func))
            forks = [
                node for node in own
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "FrameFork"
            ]
            joins = any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                for node in own
            )
            for fork in forks:
                if not joins:
                    yield module.finding(
                        fork, self.rule_id,
                        f"{qualname} creates a FrameFork but never joins it",
                        self.hint,
                    )
            scoped = _with_scoped_calls(own)
            for node in own:
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "branch"
                    and node not in scoped
                ):
                    yield module.finding(
                        node, self.rule_id,
                        f"{qualname} calls branch() outside a with statement",
                        self.hint,
                    )
                if not cursor_allowed and _pokes_cursor(node):
                    yield module.finding(
                        node, self.rule_id,
                        f"{qualname} assigns a frame cursor directly "
                        "instead of charging",
                        self.hint,
                    )


def _pokes_cursor(node: ast.AST) -> bool:
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AugAssign):
        targets = [node.target]
    return any(
        isinstance(target, ast.Attribute) and target.attr in CURSOR_ATTRS
        for target in targets
    )


def _with_scoped_calls(nodes: List[ast.AST]) -> set:
    """Calls appearing as a with-statement's context expression."""
    scoped = set()
    for node in nodes:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.context_expr, ast.Call):
                    scoped.add(item.context_expr)
    return scoped


def _functions(tree: ast.Module) -> Iterator[tuple]:
    """Yield ``(qualname, def-node)`` for every function, nested included."""

    def visit(node: ast.AST, prefix: str) -> Iterator[tuple]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield qualname, child
                yield from visit(child, f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")
            else:
                yield from visit(child, prefix)

    yield from visit(tree, "")


def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Every node of a function body, minus nested function/class bodies."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            stack.extend(ast.iter_child_nodes(node))
