"""Seeded random generators and the two hand-built benchmark games.

Everything takes an explicit random.Random so the suites are reproducible;
the acceptance tests pin their seeds.
"""

from __future__ import annotations

import itertools
import random
from types import SimpleNamespace

from ibgsolve import (
    Afa,
    Arena,
    ChannelMask,
    Dfa,
    FAtom,
    FFalse,
    FTrue,
    FAnd,
    FOr,
    Ibg,
    MooreMachine,
    Nfa,
    ProductAlphabet,
    StrategyProfile,
    UltimatelyPeriodicWord,
    goal_as_dfa,
    project,
    realizable,
)
from ibgsolve.automata import formula_atoms, formula_eval
from ibgsolve.realizability import _build_product

SYMBOL_POOL = ("a", "b", "c", "d", "e", "f", "g", "h")


def two_channel_alphabet() -> ProductAlphabet:
    return ProductAlphabet((("a", "b"), ("c", "d")))


def contains_letter_dfa(alphabet: ProductAlphabet, symbols) -> Dfa:
    """Accepting sink once the given letter occurs."""
    hit = alphabet.letter(symbols)
    delta = {}
    for letter in alphabet.letters():
        delta[(0, letter)] = 1 if letter == hit else 0
        delta[(1, letter)] = 1
    return Dfa(alphabet, alphabet.full_mask(), ("watch", "hit"), 0, frozenset({1}), delta)


def first_letter_dfa(alphabet: ProductAlphabet, hits) -> Dfa:
    """Accepts iff the first letter is one of `hits`; both outcomes are sinks."""
    hit_letters = {alphabet.letter(h) for h in hits}
    delta = {}
    for letter in alphabet.letters():
        delta[(0, letter)] = 1 if letter in hit_letters else 2
        delta[(1, letter)] = 1
        delta[(2, letter)] = 2
    return Dfa(alphabet, alphabet.full_mask(), ("start", "win", "lose"), 0, frozenset({1}), delta)


def ev_game() -> Ibg:
    """Agent 0 wants to see (a,c), agent 1 wants to see (b,c)."""
    alphabet = two_channel_alphabet()
    return Ibg(
        alphabet,
        (contains_letter_dfa(alphabet, ("a", "c")), contains_letter_dfa(alphabet, ("b", "c"))),
    )


def mp_game() -> Ibg:
    """Matching pennies on the first letter: agent 0 wants agreement
    ((a,c) or (b,d)), agent 1 wants disagreement."""
    alphabet = two_channel_alphabet()
    return Ibg(
        alphabet,
        (
            first_letter_dfa(alphabet, [("a", "c"), ("b", "d")]),
            first_letter_dfa(alphabet, [("a", "d"), ("b", "c")]),
        ),
    )


def constant_profile(game: Ibg, picks) -> StrategyProfile:
    machines = []
    for i in game.agents:
        pick = picks[i]
        if isinstance(pick, str):
            pick = game.alphabet.channels[i].index(pick)
        machines.append(
            MooreMachine(i, game.alphabet, ChannelMask.of(()), ("s",), 0, (pick,), {(0, ()): 0})
        )
    return StrategyProfile(tuple(machines))


# ---------------------------------------------------------------------------
# Random corpora.


def random_alphabet(rng: random.Random, max_k: int = 3, max_symbols: int = 2) -> ProductAlphabet:
    k = rng.randint(1, max_k)
    channels = []
    for _ in range(k):
        size = rng.randint(1, max_symbols)
        channels.append(tuple(SYMBOL_POOL[:size]))
    return ProductAlphabet(tuple(channels))


def random_mask(rng: random.Random, k: int) -> ChannelMask:
    if rng.random() < 0.7:
        return ChannelMask.full(k)
    return ChannelMask.of(i for i in range(k) if rng.random() < 0.5)


def random_dfa(rng: random.Random, alphabet: ProductAlphabet, max_states: int = 4) -> Dfa:
    n = rng.randint(1, max_states)
    mask = random_mask(rng, alphabet.k)
    names = tuple(f"q{i}" for i in range(n))
    delta = {
        (q, rl): rng.randrange(n)
        for q in range(n)
        for rl in alphabet.restricted_letters(mask)
    }
    accepting = frozenset(q for q in range(n) if rng.random() < 0.35)
    return Dfa(alphabet, mask, names, rng.randrange(n), accepting, delta)


def random_nfa(rng: random.Random, alphabet: ProductAlphabet, max_states: int = 4) -> Nfa:
    n = rng.randint(1, max_states)
    mask = random_mask(rng, alphabet.k)
    names = tuple(f"q{i}" for i in range(n))
    triples = set()
    for q in range(n):
        for rl in alphabet.restricted_letters(mask):
            for p in range(n):
                if rng.random() < 0.3:
                    triples.add((q, rl, p))
    accepting = frozenset(q for q in range(n) if rng.random() < 0.35)
    return Nfa(alphabet, mask, names, rng.randrange(n), accepting, frozenset(triples))


def random_formula(rng: random.Random, n_states: int, depth: int = 2):
    if depth == 0 or rng.random() < 0.4:
        roll = rng.random()
        if roll < 0.1:
            return FTrue()
        if roll < 0.2:
            return FFalse()
        return FAtom(rng.randrange(n_states))
    args = tuple(random_formula(rng, n_states, depth - 1) for _ in range(rng.randint(2, 3)))
    return FAnd(args) if rng.random() < 0.5 else FOr(args)


def random_afa(rng: random.Random, alphabet: ProductAlphabet, max_states: int = 4) -> Afa:
    n = rng.randint(1, max_states)
    mask = random_mask(rng, alphabet.k)
    names = tuple(f"q{i}" for i in range(n))
    delta = {
        (q, rl): random_formula(rng, n)
        for q in range(n)
        for rl in alphabet.restricted_letters(mask)
    }
    accepting = frozenset(q for q in range(n) if rng.random() < 0.35)
    return Afa(alphabet, mask, names, rng.randrange(n), accepting, delta)


def random_goal(rng: random.Random, alphabet: ProductAlphabet, max_states: int = 4):
    kind = rng.choice(("dfa", "nfa", "afa"))
    if kind == "dfa":
        return random_dfa(rng, alphabet, max_states)
    if kind == "nfa":
        return random_nfa(rng, alphabet, max_states)
    return random_afa(rng, alphabet, max_states)


def random_game(rng: random.Random, max_k: int = 3, max_states: int = 4, kinds: str = "mixed") -> Ibg:
    alphabet = random_alphabet(rng, max_k)
    goals = []
    for _ in range(alphabet.k):
        if kinds == "dfa":
            goals.append(random_dfa(rng, alphabet, max_states))
        else:
            goals.append(random_goal(rng, alphabet, max_states))
    return Ibg(alphabet, tuple(goals))


def random_machine(rng: random.Random, game: Ibg, owner: int, max_states: int = 3) -> MooreMachine:
    alphabet = game.alphabet
    n = rng.randint(1, max_states)
    mask = random_mask(rng, alphabet.k)
    names = tuple(f"s{i}" for i in range(n))
    trans = {
        (s, rl): rng.randrange(n)
        for s in range(n)
        for rl in alphabet.restricted_letters(mask)
    }
    output = tuple(rng.randrange(len(alphabet.channels[owner])) for _ in range(n))
    return MooreMachine(owner, alphabet, mask, names, rng.randrange(n), output, trans)


def random_profile(rng: random.Random, game: Ibg, max_states: int = 3) -> StrategyProfile:
    return StrategyProfile(
        tuple(random_machine(rng, game, i, max_states) for i in game.agents)
    )


def toggle_machine(alphabet: ProductAlphabet, owner: int) -> MooreMachine:
    """Outputs symbol 0, symbol 1, symbol 0, ... regardless of input."""
    mask = ChannelMask.of(())
    return MooreMachine(
        owner, alphabet, mask, ("even", "odd"), 0, (0, 1), {(0, ()): 1, (1, ()): 0}
    )


def echo_machine(alphabet: ProductAlphabet, owner: int, watched: int) -> MooreMachine:
    """Copies the watched agent's previous pick onto its own channel."""
    mask = ChannelMask.of((watched,))
    n = len(alphabet.channels[watched])
    assert n == len(alphabet.channels[owner])
    names = tuple(f"saw{i}" for i in range(n))
    trans = {(s, (t,)): t for s in range(n) for t in range(n)}
    return MooreMachine(owner, alphabet, mask, names, 0, tuple(range(n)), trans)


def letter_at_a_time_product(profile: StrategyProfile) -> SimpleNamespace:
    """Reference product of a profile's machines: every machine steps on
    every letter of every reachable joint state.  Joint states are numbered
    in discovery order from 0, the initial one; gamma[s] is the letter the
    profile commits in state s and trans[s, letter] its successor."""
    machines = profile.machines
    alphabet = profile.alphabet
    start = tuple(m.initial for m in machines)
    index = {start: 0}
    components = [start]
    gamma = []
    trans = {}
    i = 0
    while i < len(components):
        state = components[i]
        gamma.append(tuple(m.output[s] for m, s in zip(machines, state)))
        for letter in alphabet.letters():
            nxt = tuple(m.step(s, letter) for m, s in zip(machines, state))
            if nxt not in index:
                index[nxt] = len(components)
                components.append(nxt)
            trans[i, letter] = index[nxt]
        i += 1
    return SimpleNamespace(alphabet=alphabet, initial=0, gamma=tuple(gamma), trans=trans)


def random_word(rng: random.Random, alphabet: ProductAlphabet, max_len: int = 8) -> list:
    length = rng.randint(0, max_len)
    return [
        tuple(rng.randrange(len(c)) for c in alphabet.channels) for _ in range(length)
    ]


def random_lasso(rng: random.Random, alphabet: ProductAlphabet, max_len: int = 4) -> UltimatelyPeriodicWord:
    prefix = tuple(random_word(rng, alphabet, max_len))
    period = tuple(random_word(rng, alphabet, max_len - 1)) + (
        tuple(rng.randrange(len(c)) for c in alphabet.channels),
    )
    return UltimatelyPeriodicWord(prefix, period)


def random_arena(rng: random.Random, max_vertices: int = 50) -> Arena:
    n = rng.randint(1, max_vertices)
    owner = tuple(rng.randint(0, 1) for _ in range(n))
    succ = []
    for _ in range(n):
        degree = rng.choice((0, 1, 1, 2, 2, 3))
        succ.append(tuple(rng.randrange(n) for _ in range(degree)))
    return Arena(owner, tuple(succ))


def nth_from_end_nfa(alphabet: ProductAlphabet, n: int) -> Nfa:
    """Words whose (n-1)-th letter from the end reads symbol 1 on channel 0;
    the n-state automaton guesses the position, the minimal deterministic
    automaton needs 2^(n-1) states."""
    mask = ChannelMask.of((0,))
    names = tuple(f"q{i}" for i in range(n))
    triples = set()
    for rl in alphabet.restricted_letters(mask):
        triples.add((0, rl, 0))
        for i in range(1, n - 1):
            triples.add((i, rl, i + 1))
    triples.add((0, (1,), 1))
    return Nfa(alphabet, mask, names, 0, frozenset({n - 1}), frozenset(triples))


# ---------------------------------------------------------------------------
# Reference witness.


def full_mask_witness(game: Ibg, winners, lasso, refined, deviation_games) -> StrategyProfile:
    """Reference for `extract_witness`: the same modes A, B and C, but every
    machine reads every channel and steps on every full letter.  Mode A
    moves to mode B on a letter deviating in exactly one losing agent's
    channel, and any other divergence, a winner's included, to mode C."""
    alphabet = game.alphabet
    goal_dfas = refined.goal_dfas
    losers = [j for j in game.agents if j not in winners]
    span = lasso.span
    wrap = len(lasso.prefix)
    prod_states = [refined.initial]
    for t in range(span):
        prod_states.append(refined.trans[prod_states[-1], lasso.at(t)])

    index = {("A", 0): 0}
    states = [("A", 0)]
    outputs = []
    trans = {}
    i = 0
    while i < len(states):
        state = states[i]
        if state[0] == "A":
            expected = lasso.at(state[1])
        elif state[0] == "B":
            expected = deviation_games[state[1]].strategy_letter(state[2])
        else:
            expected = tuple(0 for _ in game.agents)
        outputs.append(expected)
        for letter in alphabet.letters():
            diff = [c for c in game.agents if letter[c] != expected[c]]
            if state[0] == "A":
                p = state[1]
                if not diff:
                    nxt = ("A", p + 1 if p + 1 < span else wrap)
                elif len(diff) == 1 and diff[0] in losers:
                    j = diff[0]
                    goal_state = refined.states[prod_states[p]][j]
                    nxt = ("B", j, goal_dfas[j].delta[goal_state, project(letter, goal_dfas[j].mask)])
                else:
                    nxt = ("C",)
            elif state[0] == "B" and all(c == state[1] for c in diff):
                j, q = state[1], state[2]
                nxt = ("B", j, goal_dfas[j].delta[q, project(letter, goal_dfas[j].mask)])
            else:
                nxt = ("C",)
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            trans[i, letter] = index[nxt]
        i += 1

    def state_name(state) -> str:
        if state[0] == "A":
            return f"replay{state[1]}"
        if state[0] == "B":
            return f"escape{state[1]}_{goal_dfas[state[1]].names[state[2]]}"
        return "default"

    names = tuple(state_name(s) for s in states)
    return StrategyProfile(tuple(
        MooreMachine(agent, alphabet, alphabet.full_mask(), names, 0,
                     tuple(out[agent] for out in outputs), dict(trans))
        for agent in game.agents
    ))


def reference_witness(game: Ibg, winners) -> StrategyProfile | None:
    """The full-mask reference witness for the lasso `realizable` picks, or
    None when no equilibrium with this winning set exists."""
    verdict = realizable(game, winners)
    if not verdict.realizable:
        return None
    goal_dfas = tuple(goal_as_dfa(g) for g in game.goals)
    refined = _build_product(goal_dfas, verdict.winners, game.alphabet, verdict.deviation_games)
    return full_mask_witness(game, verdict.winners, verdict.lasso, refined, verdict.deviation_games)


# ---------------------------------------------------------------------------
# Reference conversions: the enumeration antichain and the frozenset subset
# and obligation-set constructions the bitmask kernels must reproduce.


def reference_minimal_models(formulas) -> list[frozenset[int]]:
    """Enumerates subsets of the occurring atoms by increasing size and keeps
    a model only if no already-found model is contained in it."""
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


def _reference_subset_name(names, subset) -> str:
    return "{" + ",".join(names[q] for q in sorted(subset)) + "}"


def reference_determinize(nfa: Nfa) -> Dfa:
    """Subsets as frozensets, stepped with `Nfa.step_set` and interned in
    BFS discovery order."""
    rls = list(nfa.alphabet.restricted_letters(nfa.mask))
    index: dict[frozenset[int], int] = {}
    subsets: list[frozenset[int]] = []

    def intern(s: frozenset[int]) -> int:
        if s not in index:
            index[s] = len(subsets)
            subsets.append(s)
        return index[s]

    delta = {}
    intern(frozenset((nfa.initial,)))
    i = 0
    while i < len(subsets):
        current = subsets[i]
        for rl in rls:
            delta[i, rl] = intern(nfa.step_set(current, rl))
        i += 1
    names = tuple(_reference_subset_name(nfa.names, s) for s in subsets)
    accepting = frozenset(i for i, s in enumerate(subsets) if s & nfa.accepting)
    return Dfa(nfa.alphabet, nfa.mask, names, 0, accepting, delta)


def reference_afa_to_nfa(afa: Afa) -> Nfa:
    """Obligation sets as frozensets, each set's successors the
    `reference_minimal_models` of its members' formulas."""
    rls = list(afa.alphabet.restricted_letters(afa.mask))
    index: dict[frozenset[int], int] = {}
    sets: list[frozenset[int]] = []

    def intern(s: frozenset[int]) -> int:
        if s not in index:
            index[s] = len(sets)
            sets.append(s)
        return index[s]

    triples = set()
    intern(frozenset((afa.initial,)))
    i = 0
    while i < len(sets):
        obligations = sets[i]
        for rl in rls:
            for model in reference_minimal_models([afa.delta[q, rl] for q in sorted(obligations)]):
                triples.add((i, rl, intern(model)))
        i += 1
    names = tuple(_reference_subset_name(afa.names, s) for s in sets)
    accepting = frozenset(i for i, s in enumerate(sets) if s <= afa.accepting)
    return Nfa(afa.alphabet, afa.mask, names, 0, accepting, frozenset(triples))
