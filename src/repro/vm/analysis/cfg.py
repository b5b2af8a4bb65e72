"""Control-flow graph construction for PRE bytecode.

Basic blocks are maximal straight-line instruction runs; leaders are the
entry, every jump target and every instruction after a jump or ``exit``
(:func:`block_starts`, the partition :mod:`repro.vm.jit` compiles from
too).  Edges follow the interpreter's control transfers exactly:

* ``exit`` terminates — no successors;
* an out-of-range jump target or falling past the last instruction
  faults at run time (``pc out of program``) — also no successors, but
  the block is recorded in :attr:`ControlFlowGraph.fall_off` so rules
  can flag it;
* a conditional jump has up to two successors (target, fall-through).

On top of the raw graph the module computes reachability, DFS-exact
cycle detection (``loop_free``), back edges with their natural loops,
a topological order of the acyclic reachable subgraph, and the
longest-path bound over it (:meth:`ControlFlowGraph.longest_path`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from ..isa import JUMP_OPS, Instruction, Op


def block_starts(instructions: Sequence[Instruction]) -> List[int]:
    """The sorted leaders of a non-empty program: the entry, every
    in-range jump target, and every instruction after a jump or exit."""
    n = len(instructions)
    leaders = {0}
    for pc, ins in enumerate(instructions):
        op = ins.opcode
        if op in JUMP_OPS or op is Op.EXIT:
            if pc + 1 < n:
                leaders.add(pc + 1)
            if op in JUMP_OPS:
                target = pc + 1 + ins.offset
                if 0 <= target < n:
                    leaders.add(target)
    return sorted(leaders)


@dataclass(frozen=True)
class BasicBlock:
    """Instructions ``[start, end)`` with no internal control transfer."""

    start: int
    end: int
    successors: Tuple[int, ...]  # start pcs of successor blocks

    @property
    def size(self) -> int:
        return self.end - self.start


class ControlFlowGraph:
    """The block graph of one program plus derived structure."""

    def __init__(self, instructions: Sequence[Instruction]):
        self.instructions = list(instructions)
        n = len(self.instructions)
        self.blocks: Dict[int, BasicBlock] = {}
        #: Block starts whose execution can run past the program (or take
        #: an out-of-range jump): a guaranteed runtime fault if reached.
        self.fall_off: Set[int] = set()
        if n == 0:
            self.entry = 0
            self._reachable: FrozenSet[int] = frozenset()
            self._loop_free = True
            self._back_edges: List[Tuple[int, int]] = []
            return

        order = block_starts(self.instructions)
        for i, start in enumerate(order):
            end = order[i + 1] if i + 1 < len(order) else n
            self.blocks[start] = BasicBlock(
                start, end, self._successors(start, end, n))
        self.entry = 0
        self._reachable = frozenset(self._compute_reachable())
        self._loop_free, self._back_edges = self._dfs_cycles()

    # --- construction ---------------------------------------------------

    def _successors(self, start: int, end: int, n: int) -> Tuple[int, ...]:
        last = self.instructions[end - 1]
        op = last.opcode
        if op is Op.EXIT:
            return ()
        if op is Op.JA:
            target = end + last.offset
            if 0 <= target < n:
                return (target,)
            self.fall_off.add(start)
            return ()
        if op in JUMP_OPS:  # conditional
            succs = []
            target = end + last.offset
            if 0 <= target < n:
                succs.append(target)
            else:
                self.fall_off.add(start)
            if end < n:
                if end not in succs:
                    succs.append(end)
            else:
                self.fall_off.add(start)
            return tuple(succs)
        # Straight-line block: falls into the next leader, or off the end.
        if end < n:
            return (end,)
        self.fall_off.add(start)
        return ()

    def _compute_reachable(self) -> Set[int]:
        seen: Set[int] = set()
        stack = [self.entry]
        while stack:
            b = stack.pop()
            if b in seen:
                continue
            seen.add(b)
            stack.extend(s for s in self.blocks[b].successors if s not in seen)
        return seen

    def _dfs_cycles(self) -> Tuple[bool, List[Tuple[int, int]]]:
        """Iterative DFS over the reachable subgraph.

        Returns ``(acyclic, back_edges)``; an edge to a gray (on-stack)
        node is a back edge, and their absence proves the graph acyclic.
        """
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {b: WHITE for b in self._reachable}
        back: List[Tuple[int, int]] = []
        for root in sorted(self._reachable):
            if color[root] != WHITE:
                continue
            stack: List[Tuple[int, int]] = [(root, 0)]
            color[root] = GRAY
            while stack:
                node, idx = stack[-1]
                succs = self.blocks[node].successors
                if idx < len(succs):
                    stack[-1] = (node, idx + 1)
                    nxt = succs[idx]
                    if color[nxt] == WHITE:
                        color[nxt] = GRAY
                        stack.append((nxt, 0))
                    elif color[nxt] == GRAY:
                        back.append((node, nxt))
                else:
                    color[node] = BLACK
                    stack.pop()
        return (not back), back

    # --- queries ---------------------------------------------------------

    @property
    def reachable_blocks(self) -> FrozenSet[int]:
        return self._reachable

    def reachable_pcs(self) -> List[int]:
        pcs: List[int] = []
        for start in sorted(self._reachable):
            block = self.blocks[start]
            pcs.extend(range(block.start, block.end))
        return pcs

    @property
    def loop_free(self) -> bool:
        """Exact: no cycle among reachable blocks."""
        return self._loop_free

    @property
    def back_edges(self) -> List[Tuple[int, int]]:
        """DFS back edges ``(tail, head)`` over reachable blocks."""
        return list(self._back_edges)

    def predecessors(self) -> Dict[int, List[int]]:
        preds: Dict[int, List[int]] = {b: [] for b in self.blocks}
        for start, block in self.blocks.items():
            for succ in block.successors:
                preds[succ].append(start)
        return preds

    def natural_loop(self, tail: int, head: int) -> FrozenSet[int]:
        """Blocks of the natural loop of back edge ``tail -> head``."""
        preds = self.predecessors()
        loop = {head, tail}
        work = [tail] if tail != head else []
        while work:
            node = work.pop()
            for p in preds[node]:
                if p not in loop:
                    loop.add(p)
                    work.append(p)
        return frozenset(loop)

    def loop_instructions(
            self, loop_blocks: Iterable[int]) -> List[Tuple[int, Instruction]]:
        """``(pc, instruction)`` pairs of the given loop body, in program
        order (used by the termination checker and fuel certifier)."""
        out: List[Tuple[int, Instruction]] = []
        for start in sorted(loop_blocks):
            block = self.blocks[start]
            for pc in range(block.start, block.end):
                out.append((pc, self.instructions[pc]))
        return out

    def loops(self) -> Dict[int, FrozenSet[int]]:
        """Natural loops keyed by header block (merged per header)."""
        merged: Dict[int, Set[int]] = {}
        for tail, head in self._back_edges:
            merged.setdefault(head, set()).update(self.natural_loop(tail, head))
        return {head: frozenset(body) for head, body in merged.items()}

    def terminator_blocks(self) -> Set[int]:
        """Blocks execution cannot leave via an edge (exit or fault)."""
        return {b for b in self.blocks if not self.blocks[b].successors}

    def can_terminate_from(self) -> Set[int]:
        """Reachable blocks from which some terminator is reachable.

        A reachable block *not* in this set can never stop executing by
        itself — entering it is a guaranteed infinite loop (stopped only
        by the fuel budget or a faulting side effect)."""
        preds = self.predecessors()
        settled = {b for b in self.terminator_blocks() if b in self._reachable}
        work = list(settled)
        while work:
            node = work.pop()
            for p in preds[node]:
                if p in self._reachable and p not in settled:
                    settled.add(p)
                    work.append(p)
        return settled

    def topo_order(self) -> List[int]:
        """Reverse-postorder of the reachable subgraph (valid topological
        order when :attr:`loop_free`)."""
        seen: Set[int] = set()
        post: List[int] = []
        if not self._reachable:
            return post
        stack: List[Tuple[int, int]] = [(self.entry, 0)]
        seen.add(self.entry)
        while stack:
            node, idx = stack[-1]
            succs = self.blocks[node].successors
            if idx < len(succs):
                stack[-1] = (node, idx + 1)
                nxt = succs[idx]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, 0))
            else:
                post.append(node)
                stack.pop()
        post.reverse()
        return post

    def longest_path(self, weight: Callable[[int], int]) -> int:
        """Worst-case accumulated block weight of a path from the entry
        over the reachable blocks, skipping the back edges (a loop-free
        graph has none): reverse postorder is a topological order of
        what is left."""
        back = set(self._back_edges)
        bound: Dict[int, int] = {}
        for start in reversed(self.topo_order()):
            succs = [bound[s] for s in self.blocks[start].successors
                     if (start, s) not in back]
            bound[start] = weight(start) + (max(succs) if succs else 0)
        return bound.get(self.entry, 0)

    def call_count(self, start: int) -> int:
        """Helper calls (``CALL`` instructions) in the block at ``start``."""
        block = self.blocks[start]
        return sum(1 for pc in range(block.start, block.end)
                   if self.instructions[pc].opcode is Op.CALL)

    def unreachable_blocks(self) -> List[int]:
        return sorted(b for b in self.blocks if b not in self._reachable)

