"""The iterated game itself: agents, goals, Moore-machine strategies.

Each agent owns one channel of the product alphabet and repeatedly emits a
symbol; the joint emission is the next letter of the play.  Strategies are
Moore machines (output depends on the current state only), optionally
bounded-channel: a machine with a mask reads only those channels of each
observed letter.  Verification steps a profile's machines together, one
joint state at a time, from the states its searches reach; no product of
the machines is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alphabet import ChannelMask, Letter, ProductAlphabet, UltimatelyPeriodicWord, project
from .automata import GoalAutomaton, accepts_prefix


@dataclass(frozen=True)
class Ibg:
    """A k-agent iterated game: one goal automaton per agent."""

    alphabet: ProductAlphabet
    goals: tuple[GoalAutomaton, ...]

    def __post_init__(self):
        object.__setattr__(self, "goals", tuple(self.goals))
        if len(self.goals) != self.alphabet.k:
            raise ValueError(f"need one goal per agent, got {len(self.goals)} for k={self.alphabet.k}")
        for i, goal in enumerate(self.goals):
            if goal.alphabet != self.alphabet:
                raise ValueError(f"goal {i} is over a different alphabet")
            if goal.mask.agents and goal.mask.agents[-1] >= self.alphabet.k:
                raise ValueError(f"goal {i} mask references a nonexistent channel")

    @property
    def k(self) -> int:
        return self.alphabet.k

    @property
    def agents(self) -> range:
        return range(self.k)


@dataclass(frozen=True)
class MooreMachine:
    """A strategy for one agent: reads letters, outputs its own symbols."""

    owner: int
    alphabet: ProductAlphabet
    mask: ChannelMask
    names: tuple[str, ...]
    initial: int
    output: tuple[int, ...]
    trans: dict[tuple[int, Letter], int]

    def __post_init__(self):
        n = len(self.names)
        if not 0 <= self.owner < self.alphabet.k:
            raise ValueError("machine owner out of range")
        if not 0 <= self.initial < n:
            raise ValueError("initial state out of range")
        if len(self.output) != n:
            raise ValueError("output table must cover every state")
        own_size = len(self.alphabet.channels[self.owner])
        if not all(0 <= x < own_size for x in self.output):
            raise ValueError("output symbol out of range for the owner's channel")
        if self.mask.agents and self.mask.agents[-1] >= self.alphabet.k:
            raise ValueError("mask references a nonexistent channel")
        rls = list(self.alphabet.restricted_letters(self.mask))
        for s in range(n):
            for rl in rls:
                target = self.trans.get((s, rl))
                if target is None:
                    raise ValueError(f"machine transition table not total at state {self.names[s]}")
                if not 0 <= target < n:
                    raise ValueError("machine transition target out of range")

    @property
    def n_states(self) -> int:
        return len(self.names)

    def step(self, state: int, letter: Letter) -> int:
        """The successor on a full letter, read through the mask.  Verification
        steps every machine of a profile with it as its searches go."""
        return self.trans[state, project(letter, self.mask)]


@dataclass(frozen=True)
class StrategyProfile:
    machines: tuple[MooreMachine, ...]

    def __post_init__(self):
        object.__setattr__(self, "machines", tuple(self.machines))
        for i, m in enumerate(self.machines):
            if m.owner != i:
                raise ValueError(f"machine at position {i} is owned by agent {m.owner}")
        if self.machines:
            alphabet = self.machines[0].alphabet
            if any(m.alphabet != alphabet for m in self.machines):
                raise ValueError("profile machines disagree on the alphabet")
            if len(self.machines) != alphabet.k:
                raise ValueError("profile must have one machine per agent")

    @property
    def alphabet(self) -> ProductAlphabet:
        return self.machines[0].alphabet


def winning_set(trace: UltimatelyPeriodicWord, game: Ibg) -> frozenset[int]:
    """The agents whose goals accept a finite prefix of the trace."""
    return frozenset(i for i in game.agents if accepts_prefix(game.goals[i], trace))
