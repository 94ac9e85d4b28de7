"""Finite-word goal automata over product alphabets: DFA, NFA, and AFA.

All three kinds read letters of the game's product alphabet, optionally
through a channel mask (bounded-channel automata key their transitions on
the restricted letter only, which keeps tables polynomial when the mask is
small).  Acceptance of an infinite word means acceptance of some finite
prefix, including the empty prefix when the initial state is accepting.

Every goal is read as an NFA (`as_nfa`): verification and prefix
acceptance search over its states, and only realizability determinises it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union

from .alphabet import ChannelMask, Letter, ProductAlphabet, UltimatelyPeriodicWord, project


# ---------------------------------------------------------------------------
# Positive boolean formulas over automaton states (AFA transition targets).


@dataclass(frozen=True)
class FTrue:
    pass


@dataclass(frozen=True)
class FFalse:
    pass


@dataclass(frozen=True)
class FAtom:
    state: int


@dataclass(frozen=True)
class FAnd:
    args: tuple["BoolFormula", ...]


@dataclass(frozen=True)
class FOr:
    args: tuple["BoolFormula", ...]


BoolFormula = Union[FTrue, FFalse, FAtom, FAnd, FOr]


def f_and(args: Iterable[BoolFormula]) -> BoolFormula:
    """Conjunction with constant folding."""
    kept = []
    for a in args:
        if isinstance(a, FFalse):
            return FFalse()
        if not isinstance(a, FTrue):
            kept.append(a)
    if not kept:
        return FTrue()
    if len(kept) == 1:
        return kept[0]
    return FAnd(tuple(kept))


def f_or(args: Iterable[BoolFormula]) -> BoolFormula:
    kept = []
    for a in args:
        if isinstance(a, FTrue):
            return FTrue()
        if not isinstance(a, FFalse):
            kept.append(a)
    if not kept:
        return FFalse()
    if len(kept) == 1:
        return kept[0]
    return FOr(tuple(kept))


def formula_atoms(f: BoolFormula) -> frozenset[int]:
    if isinstance(f, FAtom):
        return frozenset((f.state,))
    if isinstance(f, (FAnd, FOr)):
        out: frozenset[int] = frozenset()
        for a in f.args:
            out |= formula_atoms(a)
        return out
    return frozenset()


def formula_eval(f: BoolFormula, true_states: frozenset[int] | set[int]) -> bool:
    t = type(f)
    if t is FAtom:
        return f.state in true_states
    if t is FAnd:
        return all(formula_eval(a, true_states) for a in f.args)
    if t is FOr:
        return any(formula_eval(a, true_states) for a in f.args)
    return t is FTrue


def minimal_models(formulas: Sequence[BoolFormula]) -> list[frozenset[int]]:
    """Antichain of minimal assignments satisfying every formula.

    Enumerates subsets of the occurring atoms by increasing size and keeps a
    model only if no already-found model is contained in it.  Sound for the
    positive formulas used here: supersets of a model are always models.
    """
    atoms: set[int] = set()
    for f in formulas:
        atoms |= formula_atoms(f)
    ordered = sorted(atoms)
    models: list[frozenset[int]] = []
    for size in range(len(ordered) + 1):
        for combo in itertools.combinations(ordered, size):
            s = frozenset(combo)
            if any(m <= s for m in models):
                continue
            if all(formula_eval(f, s) for f in formulas):
                models.append(s)
    return models


# ---------------------------------------------------------------------------
# The three goal automaton kinds.  States are interned ids 0..n-1; `names`
# carries the external labels used by the file format.


@dataclass(frozen=True)
class Dfa:
    alphabet: ProductAlphabet
    mask: ChannelMask
    names: tuple[str, ...]
    initial: int
    accepting: frozenset[int]
    delta: dict[tuple[int, Letter], int]

    def __post_init__(self):
        n = len(self.names)
        if not 0 <= self.initial < n:
            raise ValueError("initial state out of range")
        if not all(0 <= q < n for q in self.accepting):
            raise ValueError("accepting state out of range")
        rls = list(self.alphabet.restricted_letters(self.mask))
        for q in range(n):
            for rl in rls:
                target = self.delta.get((q, rl))
                if target is None:
                    raise ValueError(f"transition table not total at state {self.names[q]}, letter {rl}")
                if not 0 <= target < n:
                    raise ValueError("transition target out of range")
        if len(self.delta) != n * len(rls):
            raise ValueError("transition table has keys outside Q x restricted alphabet")

    @property
    def n_states(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class Nfa:
    alphabet: ProductAlphabet
    mask: ChannelMask
    names: tuple[str, ...]
    initial: int
    accepting: frozenset[int]
    triples: frozenset[tuple[int, Letter, int]]

    def __post_init__(self):
        n = len(self.names)
        if not 0 <= self.initial < n:
            raise ValueError("initial state out of range")
        if not all(0 <= q < n for q in self.accepting):
            raise ValueError("accepting state out of range")
        for q, rl, p in self.triples:
            if not (0 <= q < n and 0 <= p < n):
                raise ValueError("transition endpoint out of range")
            if len(rl) != len(self.mask):
                raise ValueError("transition letter does not match mask")

    @property
    def n_states(self) -> int:
        return len(self.names)

    @cached_property
    def successors(self) -> dict[tuple[int, Letter], tuple[int, ...]]:
        out: dict[tuple[int, Letter], list[int]] = {}
        for q, rl, p in self.triples:
            out.setdefault((q, rl), []).append(p)
        return {key: tuple(sorted(set(ps))) for key, ps in out.items()}

    def step_set(self, states: frozenset[int], rl: Letter) -> frozenset[int]:
        succ = self.successors
        return frozenset(p for q in states for p in succ.get((q, rl), ()))


@dataclass(frozen=True)
class Afa:
    alphabet: ProductAlphabet
    mask: ChannelMask
    names: tuple[str, ...]
    initial: int
    accepting: frozenset[int]
    delta: dict[tuple[int, Letter], BoolFormula]

    def __post_init__(self):
        n = len(self.names)
        if not 0 <= self.initial < n:
            raise ValueError("initial state out of range")
        if not all(0 <= q < n for q in self.accepting):
            raise ValueError("accepting state out of range")
        rls = list(self.alphabet.restricted_letters(self.mask))
        for q in range(n):
            for rl in rls:
                f = self.delta.get((q, rl))
                if f is None:
                    raise ValueError(f"transition table not total at state {self.names[q]}, letter {rl}")
                if not all(0 <= a < n for a in formula_atoms(f)):
                    raise ValueError("formula references unknown state")

    @property
    def n_states(self) -> int:
        return len(self.names)


GoalAutomaton = Union[Dfa, Nfa, Afa]


# ---------------------------------------------------------------------------
# Direct finite-word evaluators.  These are the oracles the conversion tests
# compare against, so they stay independent of determinize / afa_to_nfa.


def dfa_accepts(dfa: Dfa, word: Sequence[Letter]) -> bool:
    q = dfa.initial
    for letter in word:
        q = dfa.delta[q, project(letter, dfa.mask)]
    return q in dfa.accepting


def nfa_accepts(nfa: Nfa, word: Sequence[Letter]) -> bool:
    """Reachable-subset simulation; a run that dies rejects."""
    current = frozenset((nfa.initial,))
    for letter in word:
        current = nfa.step_set(current, project(letter, nfa.mask))
        if not current:
            return False
    return bool(current & nfa.accepting)


def afa_accepts(afa: Afa, word: Sequence[Letter]) -> bool:
    """Backward evaluation of the transition formulas over the word.

    value[q] says whether state q accepts the remaining suffix; at the end of
    the word that is plain membership in the accepting set.  Equivalent to
    the run-tree and obligation-set semantics because formulas are positive.
    """
    value = {q: q in afa.accepting for q in range(afa.n_states)}
    for letter in reversed(word):
        rl = project(letter, afa.mask)
        true_states = frozenset(q for q, v in value.items() if v)
        value = {q: formula_eval(afa.delta[q, rl], true_states) for q in range(afa.n_states)}
    return value[afa.initial]


# ---------------------------------------------------------------------------
# Prefix acceptance on lassos.


def accepts_prefix(goal: GoalAutomaton, word: UltimatelyPeriodicWord) -> bool:
    """Does the goal accept some finite prefix of the infinite word?

    One search over (state of `as_nfa(goal)`, canonical lasso position)
    pairs, at most |Q| * span of them: the goal reads the letter at the
    position, which then moves on, from the last letter back to the
    period's start.  The length-0 prefix counts, so an accepting initial
    state accepts every word.
    """
    nfa = as_nfa(goal)
    letters = word.prefix + word.period
    for letter in letters:
        nfa.alphabet.check_letter(letter)
    rls = [project(letter, nfa.mask) for letter in letters]
    nxt = list(range(1, len(letters))) + [len(word.prefix)]
    seen = {(nfa.initial, 0)}
    stack = list(seen)
    while stack:
        q, t = stack.pop()
        if q in nfa.accepting:
            return True
        new = {(p, nxt[t]) for p in nfa.successors.get((q, rls[t]), ())} - seen
        seen |= new
        stack.extend(new)
    return False


# ---------------------------------------------------------------------------
# Conversions.


def _subset_name(names: tuple[str, ...], subset: frozenset[int]) -> str:
    return "{" + ",".join(names[q] for q in sorted(subset)) + "}"


def determinize(nfa: Nfa) -> Dfa:
    """Subset construction over reachable subsets only.

    Subsets are canonicalized as sorted state-id sets and interned in BFS
    discovery order; the empty subset appears as an explicit rejecting sink
    so the result is total.
    """
    rls = list(nfa.alphabet.restricted_letters(nfa.mask))
    index: dict[frozenset[int], int] = {}
    subsets: list[frozenset[int]] = []

    def intern(s: frozenset[int]) -> int:
        if s not in index:
            index[s] = len(subsets)
            subsets.append(s)
        return index[s]

    delta: dict[tuple[int, Letter], int] = {}
    intern(frozenset((nfa.initial,)))
    i = 0
    while i < len(subsets):
        current = subsets[i]
        for rl in rls:
            delta[i, rl] = intern(nfa.step_set(current, rl))
        i += 1
    names = tuple(_subset_name(nfa.names, s) for s in subsets)
    accepting = frozenset(i for i, s in enumerate(subsets) if s & nfa.accepting)
    return Dfa(nfa.alphabet, nfa.mask, names, 0, accepting, delta)


def afa_to_nfa(afa: Afa) -> Nfa:
    """Obligation-set construction, restricted to minimal successor models.

    NFA states are the reachable obligation sets; a set is accepting when
    every obligation is already an accepting AFA state, in particular the
    empty set (all obligations discharged by constants) is accepting.
    """
    rls = list(afa.alphabet.restricted_letters(afa.mask))
    index: dict[frozenset[int], int] = {}
    sets: list[frozenset[int]] = []

    def intern(s: frozenset[int]) -> int:
        if s not in index:
            index[s] = len(sets)
            sets.append(s)
        return index[s]

    triples: set[tuple[int, Letter, int]] = set()
    intern(frozenset((afa.initial,)))
    i = 0
    while i < len(sets):
        obligations = sets[i]
        for rl in rls:
            for model in minimal_models([afa.delta[q, rl] for q in sorted(obligations)]):
                triples.add((i, rl, intern(model)))
        i += 1
    names = tuple(_subset_name(afa.names, s) for s in sets)
    accepting = frozenset(i for i, s in enumerate(sets) if s <= afa.accepting)
    return Nfa(afa.alphabet, afa.mask, names, 0, accepting, frozenset(triples))


def as_nfa(goal: GoalAutomaton) -> Nfa:
    """The goal as an NFA with the same language, the normal form read by
    everything but realizability: a DFA's table becomes triples, an NFA is
    returned as is, and an AFA becomes its obligation NFA."""
    if isinstance(goal, Nfa):
        return goal
    if isinstance(goal, Dfa):
        triples = frozenset((q, rl, p) for (q, rl), p in goal.delta.items())
        return Nfa(goal.alphabet, goal.mask, goal.names, goal.initial, goal.accepting, triples)
    if isinstance(goal, Afa):
        return afa_to_nfa(goal)
    raise TypeError(f"not a goal automaton: {goal!r}")


def as_afa(goal: Dfa | Nfa) -> Afa:
    """Wrap a DFA or NFA as an AFA with disjunction-only formulas."""
    nfa = as_nfa(goal)
    succ = nfa.successors
    delta = {
        (q, rl): f_or(FAtom(p) for p in succ.get((q, rl), ()))
        for q in range(nfa.n_states)
        for rl in nfa.alphabet.restricted_letters(nfa.mask)
    }
    return Afa(nfa.alphabet, nfa.mask, nfa.names, nfa.initial, nfa.accepting, delta)
