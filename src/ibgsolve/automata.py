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


def _bits(mask: int) -> list[int]:
    """The members of a set stored as a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _model_order(mask: int) -> tuple[int, list[int]]:
    """Sort key of a model: by size, then its ascending members compared
    lexicographically, which is the order `itertools.combinations` yields
    the subsets of a sorted atom list in."""
    return mask.bit_count(), _bits(mask)


def _minimize(masks: Iterable[int]) -> list[int]:
    """The minimal sets of a family of bitmask sets, duplicates dropped,
    ordered by size.  Distinct sets of one size never contain each other, so
    each set is checked only against the kept sets of smaller sizes."""
    kept: list[int] = []
    for _, group in itertools.groupby(sorted(set(masks), key=int.bit_count), int.bit_count):
        if kept:
            smaller = tuple(kept)
            kept += [m for m in group if all(k & m != k for k in smaller)]
        else:
            kept += group
    return kept


def _conjoin(antichains: Iterable[list[int]]) -> list[int]:
    """Antichain of a conjunction: the minimised pairwise unions, folded
    left from {∅}, which is the product's identity and so is skipped; stops
    at the first empty result without reading further antichains."""
    acc = [0]
    for models in antichains:
        if models == [0]:
            continue
        acc = models if acc == [0] else _minimize(a | b for a in acc for b in models)
        if not acc:
            break
    return acc


def _antichain(f: BoolFormula) -> list[int]:
    """Minimal models of one formula as bitmasks (De Wulf, Doyen, Henzinger
    and Raskin's antichains, CAV 2006).

    Bottom-up over the formula's tree with an explicit post-order stack, so
    depth costs no recursion and no formula object is hashed: an atom a
    gives {{a}}, true {∅}, false ∅, an OR the minimised union of its
    arguments' antichains and an AND their minimised product (`_conjoin`).
    """
    done: list[list[int]] = []
    stack: list[tuple[BoolFormula, bool]] = [(f, False)]
    while stack:
        g, expanded = stack.pop()
        t = type(g)
        if t is FAtom:
            done.append([1 << g.state])
        elif t is FAnd or t is FOr:
            if not expanded:
                stack.append((g, True))
                stack.extend((a, False) for a in g.args)
                continue
            split = len(done) - len(g.args)
            args = done[split:]
            del done[split:]
            if t is FAnd:
                done.append(_conjoin(args))
            else:
                done.append(_minimize(m for models in args for m in models))
        else:
            done.append([0] if t is FTrue else [])
    return done[0]


def minimal_models(formulas: Sequence[BoolFormula]) -> list[frozenset[int]]:
    """Antichain of minimal assignments satisfying every formula.

    Computed bottom-up over each formula (`_antichain`) and conjoined, never
    by enumerating subsets of the atoms, so it costs time per model and not
    per subset.  Sound and complete for the positive formulas used here:
    supersets of a model are always models.  The models come sorted by size
    and then by their ascending members, the order in which an enumeration
    of subsets by increasing size would find them; `afa_to_nfa` interns
    successor sets in this order, so its state ids and names depend on it.
    """
    models = _conjoin(_antichain(f) for f in formulas)
    return [frozenset(_bits(m)) for m in sorted(models, key=_model_order)]


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


def _subset_name(names: tuple[str, ...], members: list[int]) -> str:
    return "{" + ",".join(names[q] for q in members) + "}"


def determinize(nfa: Nfa) -> Dfa:
    """Subset construction over reachable subsets only.

    Subsets are int bitmasks over the NFA's state ids.  Each restricted
    letter has one row holding every state's successor mask, so a subset's
    successor on a letter is the OR of the rows of its members.  Subsets are
    interned in BFS discovery order, letters in `restricted_letters` order,
    and named by their members in ascending id order; the empty subset
    appears as an explicit rejecting sink so the result is total.
    """
    rls = list(nfa.alphabet.restricted_letters(nfa.mask))
    rows = {rl: [0] * nfa.n_states for rl in rls}
    for q, rl, p in nfa.triples:
        row = rows.get(rl)
        if row is not None:
            row[q] |= 1 << p
    index = {1 << nfa.initial: 0}
    subsets = [1 << nfa.initial]
    names: list[str] = []
    delta: dict[tuple[int, Letter], int] = {}
    i = 0
    while i < len(subsets):
        members = _bits(subsets[i])
        names.append(_subset_name(nfa.names, members))
        for rl, row in rows.items():
            target = 0
            for q in members:
                target |= row[q]
            j = index.get(target)
            if j is None:
                j = index[target] = len(subsets)
                subsets.append(target)
            delta[i, rl] = j
        i += 1
    accepting_mask = sum(1 << q for q in nfa.accepting)
    accepting = frozenset(i for i, s in enumerate(subsets) if s & accepting_mask)
    return Dfa(nfa.alphabet, nfa.mask, tuple(names), 0, accepting, delta)


def afa_to_nfa(afa: Afa) -> Nfa:
    """Obligation-set construction, restricted to minimal successor models.

    NFA states are the reachable obligation sets, stored as bitmasks; a set
    is accepting when every obligation is already an accepting AFA state,
    in particular the empty set (all obligations discharged by constants) is
    accepting.  The antichain of each transition formula is computed once
    per (state, letter), and a set's successors on a letter are the
    minimised product of its members' antichains, taken in ascending state
    order.  Successors are interned in BFS order, per letter in
    `minimal_models` order, so state ids and names are those of conjoining
    the members' formulas with `minimal_models`.
    """
    rls = list(afa.alphabet.restricted_letters(afa.mask))
    antichains: dict[tuple[int, Letter], list[int]] = {}

    def antichain(q: int, rl: Letter) -> list[int]:
        models = antichains.get((q, rl))
        if models is None:
            models = antichains[q, rl] = _antichain(afa.delta[q, rl])
        return models

    index = {1 << afa.initial: 0}
    sets = [1 << afa.initial]
    names: list[str] = []
    triples: set[tuple[int, Letter, int]] = set()
    i = 0
    while i < len(sets):
        obligations = _bits(sets[i])
        names.append(_subset_name(afa.names, obligations))
        for rl in rls:
            models = _conjoin(antichain(q, rl) for q in obligations)
            for model in sorted(models, key=_model_order):
                j = index.get(model)
                if j is None:
                    j = index[model] = len(sets)
                    sets.append(model)
                triples.add((i, rl, j))
        i += 1
    accepting_mask = sum(1 << q for q in afa.accepting)
    accepting = frozenset(i for i, s in enumerate(sets) if not s & ~accepting_mask)
    return Nfa(afa.alphabet, afa.mask, tuple(names), 0, accepting, frozenset(triples))


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
