"""Control-flow graphs for Vault functions.

The paper's checker "forms a control flow graph for each function and
computes the held-key set before and after each node" (§3).  Our
checker computes the same fixpoint syntax-directed (the language is
fully structured), but this module builds the explicit CFG for
analyses that want one: unreachable-code detection, program statistics
(`vaultc stats`), and the dataflow engine in
:mod:`repro.core.dataflow`.

A :class:`CFG` is a set of basic blocks.  Each block carries the
statements/expressions that execute straight-line; edges carry an
optional label ("true"/"false" for branches, the constructor name for
switch cases, "back" for loop back edges).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Set, Tuple

from ..syntax import ast

_block_ids = itertools.count(1)


class Block:
    """One basic block: straight-line statements, then a terminator."""

    def __init__(self) -> None:
        self.id = next(_block_ids)
        self.stmts: List[ast.Stmt] = []
        #: outgoing edges: (target block, label)
        self.succs: List[Tuple["Block", Optional[str]]] = []
        self.preds: List["Block"] = []
        #: what ends the block: "fallthrough", "branch", "switch",
        #: "return", "loop", or "exit"
        self.terminator = "fallthrough"

    def link(self, target: "Block", label: Optional[str] = None) -> None:
        self.succs.append((target, label))
        target.preds.append(self)

    def __repr__(self) -> str:
        return f"B{self.id}({len(self.stmts)} stmts, {self.terminator})"


class CFG:
    """The control-flow graph of one function body."""

    def __init__(self, name: str):
        self.name = name
        self.entry = Block()
        self.exit = Block()
        self.exit.terminator = "exit"
        self.blocks: List[Block] = [self.entry, self.exit]

    def new_block(self) -> Block:
        block = Block()
        self.blocks.append(block)
        return block

    # -- queries ------------------------------------------------------------

    def reachable_blocks(self) -> Set[int]:
        seen: Set[int] = set()
        stack = [self.entry]
        while stack:
            block = stack.pop()
            if block.id in seen:
                continue
            seen.add(block.id)
            for target, _ in block.succs:
                stack.append(target)
        return seen

    def unreachable_blocks(self) -> List[Block]:
        reachable = self.reachable_blocks()
        return [b for b in self.blocks
                if b.id not in reachable and (b.stmts or b is not self.exit)]

    def edge_count(self) -> int:
        return sum(len(b.succs) for b in self.blocks)

    def reverse_postorder(self) -> List[Block]:
        """Blocks reachable from the entry, in reverse postorder.

        This is the classic iteration order for forward dataflow: a
        block's dominators come before it, so most facts are in place
        by the time a block is visited and fixpoints need fewer sweeps.
        The traversal follows ``succs`` in declaration order, so the
        result is deterministic for a given CFG.
        """
        order: List[Block] = []
        seen: Set[int] = {self.entry.id}
        # Iterative DFS carrying an explicit successor cursor per frame.
        stack: List[Tuple[Block, int]] = [(self.entry, 0)]
        while stack:
            block, idx = stack[-1]
            if idx < len(block.succs):
                stack[-1] = (block, idx + 1)
                target = block.succs[idx][0]
                if target.id not in seen:
                    seen.add(target.id)
                    stack.append((target, 0))
            else:
                stack.pop()
                order.append(block)
        order.reverse()
        return order

    def back_edges(self) -> List[Tuple[Block, Block]]:
        """Edges labelled as loop back edges."""
        return [(b, t) for b in self.blocks
                for (t, label) in b.succs if label == "back"]

    def stats(self) -> Dict[str, int]:
        return {
            "blocks": len(self.blocks),
            "edges": self.edge_count(),
            "statements": sum(len(b.stmts) for b in self.blocks),
            "loops": len(self.back_edges()),
            "unreachable": len(self.unreachable_blocks()),
        }

    def render(self) -> str:
        lines = [f"cfg {self.name}:"]
        for block in self.blocks:
            role = ""
            if block is self.entry:
                role = " (entry)"
            elif block is self.exit:
                role = " (exit)"
            succs = ", ".join(
                f"B{t.id}" + (f"[{label}]" if label else "")
                for t, label in block.succs)
            lines.append(f"  B{block.id}{role}: {len(block.stmts)} stmt(s)"
                         f" -> {succs or '∅'}")
        return "\n".join(lines)


class _Builder:
    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.loop_stack: List[Tuple[Block, Block]] = []  # (head, after)

    def build(self, body: ast.Block) -> None:
        end = self._stmts(body.stmts, self.cfg.entry)
        if end is not None:
            end.link(self.cfg.exit)

    def _stmts(self, stmts: List[ast.Stmt],
               current: Optional[Block]) -> Optional[Block]:
        for stmt in stmts:
            if current is None:
                # Dead code: still materialise a block so unreachable
                # statements are visible to analyses.
                current = self.cfg.new_block()
            current = self._stmt(stmt, current)
        return current

    def _stmt(self, stmt: ast.Stmt,
              current: Block) -> Optional[Block]:
        if isinstance(stmt, ast.Block):
            return self._stmts(stmt.stmts, current)

        if isinstance(stmt, ast.If):
            current.stmts.append(ast.ExprStmt(stmt.cond.span, stmt.cond))
            current.terminator = "branch"
            then_block = self.cfg.new_block()
            current.link(then_block, "true")
            then_end = self._stmt(stmt.then, then_block)
            if stmt.orelse is not None:
                else_block = self.cfg.new_block()
                current.link(else_block, "false")
                else_end = self._stmt(stmt.orelse, else_block)
            else:
                else_block = None
                else_end = None
            join = self.cfg.new_block()
            if then_end is not None:
                then_end.link(join)
            if stmt.orelse is None:
                current.link(join, "false")
            elif else_end is not None:
                else_end.link(join)
            if then_end is None and stmt.orelse is not None and \
                    else_end is None:
                return None
            return join

        if isinstance(stmt, ast.While):
            head = self.cfg.new_block()
            head.terminator = "loop"
            current.link(head)
            head.stmts.append(ast.ExprStmt(stmt.cond.span, stmt.cond))
            body_block = self.cfg.new_block()
            after = self.cfg.new_block()
            head.link(body_block, "true")
            head.link(after, "false")
            self.loop_stack.append((head, after))
            body_end = self._stmt(stmt.body, body_block)
            self.loop_stack.pop()
            if body_end is not None:
                body_end.link(head, "back")
            return after

        if isinstance(stmt, ast.Switch):
            current.stmts.append(
                ast.ExprStmt(stmt.scrutinee.span, stmt.scrutinee))
            current.terminator = "switch"
            join = self.cfg.new_block()
            any_fallthrough = False
            for case in stmt.cases:
                case_block = self.cfg.new_block()
                label = case.pattern.ctor or "default"
                current.link(case_block, label)
                case_end = self._stmts(case.body, case_block)
                if case_end is not None:
                    case_end.link(join)
                    any_fallthrough = True
            return join if any_fallthrough or not stmt.cases else None

        if isinstance(stmt, ast.Return):
            current.stmts.append(stmt)
            current.terminator = "return"
            current.link(self.cfg.exit)
            return None

        if isinstance(stmt, ast.Break):
            current.stmts.append(stmt)
            if self.loop_stack:
                current.link(self.loop_stack[-1][1], "break")
            return None

        if isinstance(stmt, ast.Continue):
            current.stmts.append(stmt)
            if self.loop_stack:
                current.link(self.loop_stack[-1][0], "continue")
            return None

        current.stmts.append(stmt)
        return current


def build_cfg(fundef: ast.FunDef) -> CFG:
    """Build the control-flow graph of one function definition."""
    cfg = CFG(fundef.decl.name)
    _Builder(cfg).build(fundef.body)
    return cfg


def program_cfgs(program: ast.Program) -> Dict[str, CFG]:
    """CFGs for every function definition in a compilation unit."""
    cfgs: Dict[str, CFG] = {}

    def walk(decls):
        for decl in decls:
            if isinstance(decl, ast.FunDef):
                cfgs[decl.decl.name] = build_cfg(decl)
            elif isinstance(decl, ast.ModuleDecl):
                walk(decl.decls)

    walk(program.decls)
    return cfgs
