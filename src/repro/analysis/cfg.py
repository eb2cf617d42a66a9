"""Control-flow graph construction and loop analysis.

Builds a basic-block CFG over an :class:`~repro.isa.program.Program`,
computes reachability and dominators, and discovers natural loops
(back edges whose target dominates their source).  The compiler emits
only structured, reducible control flow — strip-mined vector loops,
scalar DO loops, and forward GOTOs — so the classic dominator-based
natural-loop algorithm recovers the full loop nest exactly.

Everything downstream of this module (dataflow, checkers, the static
count and critical-path estimators) works in terms of the
:class:`CFG` / :class:`Loop` vocabulary defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import AnalysisError
from ..isa.instructions import Instruction
from ..isa.program import Program


@dataclass(frozen=True)
class BasicBlock:
    """A maximal straight-line instruction run ``[start, end]``."""

    index: int
    start: int  #: pc of the first instruction
    end: int  #: pc of the last instruction (inclusive)
    successors: tuple[int, ...]  #: block indices
    predecessors: tuple[int, ...]  #: block indices

    def pcs(self) -> range:
        return range(self.start, self.end + 1)

    def __len__(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class Loop:
    """A natural loop: all blocks on paths from latches back to header."""

    header: int  #: block index of the loop entry
    blocks: frozenset[int]  #: block indices, including header and latches
    latches: tuple[int, ...]  #: back-edge source blocks

    def __contains__(self, block_index: int) -> bool:
        return block_index in self.blocks


class CFG:
    """Control-flow graph of one program.

    Construct via :func:`build_cfg`; blocks are in program (pc) order,
    so ``blocks[0]`` is the entry block.
    """

    def __init__(self, program: Program, blocks: tuple[BasicBlock, ...]):
        self.program = program
        self.blocks = blocks
        self._block_of_pc: tuple[int, ...] = tuple(
            index
            for index, block in enumerate(blocks)
            for _ in block.pcs()
        )

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    def block_of(self, pc: int) -> BasicBlock:
        """The basic block containing instruction ``pc``."""
        try:
            return self.blocks[self._block_of_pc[pc]]
        except IndexError:
            raise AnalysisError(
                f"pc {pc} out of range for program "
                f"{self.program.name!r} ({len(self.program)} instructions)"
            ) from None

    def instruction(self, pc: int) -> Instruction:
        return self.program[pc]

    @cached_property
    def reachable(self) -> frozenset[int]:
        """Block indices reachable from the entry block."""
        if not self.blocks:
            return frozenset()
        seen = {0}
        stack = [0]
        while stack:
            for successor in self.blocks[stack.pop()].successors:
                if successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
        return frozenset(seen)

    # ------------------------------------------------------------------
    # Dominators and loops
    # ------------------------------------------------------------------

    @cached_property
    def dominators(self) -> dict[int, frozenset[int]]:
        """Per reachable block: the set of blocks dominating it."""
        reachable = self.reachable
        if not reachable:
            return {}
        order = sorted(reachable)
        full = frozenset(order)
        dom: dict[int, frozenset[int]] = {b: full for b in order}
        dom[0] = frozenset({0})
        changed = True
        while changed:
            changed = False
            for b in order:
                if b == 0:
                    continue
                preds = [
                    p for p in self.blocks[b].predecessors
                    if p in reachable
                ]
                new: frozenset[int] = full
                for p in preds:
                    new = new & dom[p]
                new = new | {b}
                if new != dom[b]:
                    dom[b] = new
                    changed = True
        return dom

    def dominates(self, a: int, b: int) -> bool:
        """True when block ``a`` dominates block ``b``."""
        if b not in self.dominators:
            raise AnalysisError(f"block {b} is unreachable")
        return a in self.dominators[b]

    @cached_property
    def loops(self) -> tuple[Loop, ...]:
        """Natural loops, innermost (fewest blocks) first."""
        dom = self.dominators
        back_edges: dict[int, list[int]] = {}
        for b in sorted(self.reachable):
            for s in self.blocks[b].successors:
                if s in dom.get(b, frozenset()):
                    back_edges.setdefault(s, []).append(b)
        loops = []
        for header, latches in back_edges.items():
            body = {header}
            stack = [latch for latch in latches if latch != header]
            while stack:
                b = stack.pop()
                if b in body:
                    continue
                body.add(b)
                stack.extend(
                    p for p in self.blocks[b].predecessors
                    if p in self.reachable
                )
            loops.append(
                Loop(header, frozenset(body), tuple(sorted(latches)))
            )
        loops.sort(key=lambda lp: (len(lp.blocks), lp.header))
        return tuple(loops)

    def innermost_loop_of(self, block_index: int) -> Loop | None:
        """The smallest loop containing a block, or None."""
        for loop in self.loops:  # sorted smallest-first
            if block_index in loop:
                return loop
        return None

    def loop_depth(self, block_index: int) -> int:
        """Loop-nesting depth of a block (0 = not in any loop)."""
        return sum(1 for loop in self.loops if block_index in loop)

    def loop_pcs(self, loop: Loop) -> tuple[int, ...]:
        """All pcs inside a loop, in program order."""
        pcs: list[int] = []
        for index in sorted(loop.blocks):
            pcs.extend(self.blocks[index].pcs())
        return tuple(pcs)

    def __repr__(self) -> str:
        return (
            f"CFG({self.program.name!r}, blocks={len(self.blocks)}, "
            f"loops={len(self.loops)})"
        )


def build_cfg(program: Program) -> CFG:
    """Partition a program into basic blocks and link them."""
    n = len(program)
    if n == 0:
        return CFG(program, ())
    leaders = {0}
    for pc, instr in enumerate(program):
        if instr.is_branch:
            target = program.branch_targets[pc]
            leaders.add(target)
            if pc + 1 < n:
                leaders.add(pc + 1)
    starts = sorted(leaders)
    bounds = []
    for i, start in enumerate(starts):
        end = (starts[i + 1] - 1) if i + 1 < len(starts) else n - 1
        bounds.append((start, end))
    index_of_start = {start: i for i, (start, _) in enumerate(bounds)}

    successors: list[tuple[int, ...]] = []
    for start, end in bounds:
        last = program[end]
        succ: list[int] = []
        if last.is_branch:
            succ.append(index_of_start[program.branch_targets[end]])
            if last.mnemonic == "jbrs" and end + 1 < n:
                succ.append(index_of_start[end + 1])
        elif end + 1 < n:
            succ.append(index_of_start[end + 1])
        successors.append(tuple(dict.fromkeys(succ)))

    predecessors: list[list[int]] = [[] for _ in bounds]
    for index, succ in enumerate(successors):
        for s in succ:
            predecessors[s].append(index)

    blocks = tuple(
        BasicBlock(
            index=i,
            start=start,
            end=end,
            successors=successors[i],
            predecessors=tuple(predecessors[i]),
        )
        for i, (start, end) in enumerate(bounds)
    )
    return CFG(program, blocks)
