"""Generic finite two-player turn-based arenas and safety solving.

Agent 0 must keep the play inside the safe set forever and must always be
able to move: a blocked agent-0 vertex is losing for agent 0.  A blocked
agent-1 vertex, by contrast, is winning for agent 0.  Solving is the
classical backward attractor fixpoint; the solver additionally returns a
positional strategy on agent 0's winning region (lowest-id successor) so
callers can extract witnesses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import IO


@dataclass(frozen=True)
class Arena:
    owner: tuple[int, ...]
    succ: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.succ) != len(self.owner):
            raise ValueError("owner and successor tables must have equal length")
        if not all(o in (0, 1) for o in self.owner):
            raise ValueError("vertex owner must be 0 or 1")
        n = len(self.owner)
        cleaned = []
        for targets in self.succ:
            targets = tuple(sorted(set(targets)))
            if targets and not (0 <= targets[0] and targets[-1] < n):
                raise ValueError("edge endpoint out of range")
            cleaned.append(targets)
        object.__setattr__(self, "succ", tuple(cleaned))

    @property
    def n(self) -> int:
        return len(self.owner)


@dataclass(frozen=True)
class SafetyInstance:
    arena: Arena
    safe: frozenset[int]

    def __post_init__(self):
        if not all(0 <= v < self.arena.n for v in self.safe):
            raise ValueError("safe set references unknown vertices")


@dataclass(frozen=True)
class SafetyResult:
    win0: frozenset[int]
    win1: frozenset[int]
    strategy0: dict[int, int]


def solve_safety(instance: SafetyInstance) -> SafetyResult:
    """Backward attractor for agent 1 of the unsafe and blocked vertices.

    An agent-1 vertex joins the attractor if some successor is in it, an
    agent-0 vertex if all successors are (blocked counts as all).  Agent 0
    wins everywhere else, and on its winning vertices some successor stays
    winning, which yields the positional strategy.
    """
    arena, safe = instance.arena, instance.safe
    n = arena.n
    preds: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for w in arena.succ[v]:
            preds[w].append(v)
    remaining = [len(arena.succ[v]) for v in range(n)]
    in_attractor = [False] * n
    queue: deque[int] = deque()
    for v in range(n):
        if v not in safe or (arena.owner[v] == 0 and not arena.succ[v]):
            in_attractor[v] = True
            queue.append(v)
    while queue:
        w = queue.popleft()
        for v in preds[w]:
            if in_attractor[v]:
                continue
            if arena.owner[v] == 1:
                in_attractor[v] = True
                queue.append(v)
            else:
                remaining[v] -= 1
                if remaining[v] == 0:
                    in_attractor[v] = True
                    queue.append(v)
    win1 = frozenset(v for v in range(n) if in_attractor[v])
    win0 = frozenset(v for v in range(n) if not in_attractor[v])
    strategy0 = {}
    for v in win0:
        if arena.owner[v] == 0 and arena.succ[v]:
            strategy0[v] = min(w for w in arena.succ[v] if w in win0)
    return SafetyResult(win0, win1, strategy0)


def dump_arena(arena: Arena, out: IO[str], header: str = "", labels: list[str] | None = None) -> None:
    """Line-based debug dump: one vertex line per vertex, labelled from
    `labels` if given, then one edge per line."""
    if header:
        out.write(f"# {header}\n")
    for v in range(arena.n):
        label = labels[v] if labels else ""
        out.write(f"vertex {v} owner={arena.owner[v]} {label}\n".rstrip() + "\n")
    for v in range(arena.n):
        for w in arena.succ[v]:
            out.write(f"edge {v} {w}\n")
