"""The iterated game itself: agents, goals, Moore-machine strategies.

Each agent owns one channel of the product alphabet and repeatedly emits a
symbol; the joint emission is the next letter of the play.  Strategies are
Moore machines (output depends on the current state only), optionally
bounded-channel: a machine with a mask reads only those channels of each
observed letter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import repeat

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


@dataclass(frozen=True)
class GlobalMoore:
    """Reachable product of a profile's machines: one transducer for all agents.

    gamma maps each product state to the full letter the coalition emits
    there.  trans is total over reachable states and all input letters, and
    its entries are inserted state by state in discovery order, each state's
    in lexicographic letter order.  Verification indexes it by (state,
    letter); the benchmark's tracer reads len(trans).
    """

    alphabet: ProductAlphabet
    components: tuple[tuple[int, ...], ...]
    initial: int
    gamma: tuple[Letter, ...]
    trans: dict[tuple[int, Letter], int]

    @property
    def n_states(self) -> int:
        return len(self.components)


def product_profile(profile: StrategyProfile) -> GlobalMoore:
    """Component-wise product, materializing only states reachable from the
    joint initial state under arbitrary input letters."""
    machines = profile.machines
    alphabet = profile.alphabet
    start = tuple(m.initial for m in machines)
    index = {start: 0}
    components = [start]
    gamma: list[Letter] = []
    trans: dict[tuple[int, Letter], int] = {}

    # Letter-indexed tables, built once per build instead of once per
    # (joint state, letter).  Letter x is the x-th letter in lexicographic
    # order.  projections[mask][x] is letter x restricted to the mask;
    # row_of(j, s) is machine j's successor row: entry x is its successor
    # from state s on letter x.
    letters = list(alphabet.letters())
    projections = {
        mask: [project(letter, mask) for letter in letters]
        for mask in {m.mask for m in machines}
    }

    @cache
    def row_of(j: int, s: int) -> list[int]:
        m = machines[j]
        return [m.trans[s, rl] for rl in projections[m.mask]]

    i = 0
    while i < len(components):
        state = components[i]
        gamma.append(tuple(m.output[s] for m, s in zip(machines, state)))
        successors = list(zip(*[row_of(j, s) for j, s in enumerate(state)]))
        # New joint states are numbered in the order of the first letter
        # reaching them, as a letter-by-letter walk would number them.
        for nxt in dict.fromkeys(successors):
            if nxt not in index:
                index[nxt] = len(components)
                components.append(nxt)
        trans.update(zip(zip(repeat(i), letters), map(index.__getitem__, successors)))
        i += 1
    return GlobalMoore(alphabet, tuple(components), 0, tuple(gamma), trans)


def primary_trace(g: GlobalMoore) -> UltimatelyPeriodicWord:
    """The unique word produced when every agent follows the profile.

    Feed the machine its own output until a product state repeats; the total
    transition function guarantees the trace is infinite, and the pigeonhole
    bound |prefix| + |period| <= |S| holds.
    """
    state = g.initial
    seen: dict[int, int] = {}
    letters: list[Letter] = []
    while state not in seen:
        seen[state] = len(letters)
        letter = g.gamma[state]
        letters.append(letter)
        state = g.trans[state, letter]
    start = seen[state]
    return UltimatelyPeriodicWord(tuple(letters[:start]), tuple(letters[start:]))


def winning_set(trace: UltimatelyPeriodicWord, game: Ibg) -> frozenset[int]:
    """The agents whose goals accept a finite prefix of the trace."""
    return frozenset(i for i in game.agents if accepts_prefix(game.goals[i], trace))
