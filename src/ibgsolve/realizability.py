"""Decide whether a Nash equilibrium with a prescribed winning set exists.

The pipeline: convert every goal to a DFA whose accepting states lead to
one absorbing sink, solve one deviation safety game per losing agent, build
the product Buchi automaton over the goal states, keeping only transitions
that stay in every losing agent's deviation-game winning region (so no
loser's goal accepts), and test the result for nonemptiness.  A product state
accepts once every winner's goal is in its sink.  A nonempty automaton
yields a lasso, from which a witness profile is built: replay the lasso
while everyone conforms, switch to the relevant deviation game's positional
strategy after a unilateral deviation by a losing agent.  Its machines read
only the losers' channels, the only ones such a deviation can change.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .alphabet import ChannelMask, Letter, ProductAlphabet, UltimatelyPeriodicWord, project
from .automata import Dfa, GoalAutomaton, as_nfa, determinize
from .game import Ibg, MooreMachine, StrategyProfile
from .safety import Arena, SafetyInstance, SafetyResult, solve_safety


def goal_as_dfa(goal: GoalAutomaton) -> Dfa:
    """The goal as a DFA in the one normal form realizability works on.

    A DFA goal is taken as it is; any other goal is determinised from its
    `as_nfa` form.  A goal is satisfied once some prefix is accepted, so
    nothing after the first accepting state matters: every transition into
    or out of an accepting state goes to one sink, which loops on every
    letter.  The sink is the initial state if that accepts, else the lowest
    accepting id.  States, names and the accepting set are kept; the
    accepting set is closed under transitions, and a word has an accepted
    prefix iff it has one under the goal.
    """
    dfa = goal if isinstance(goal, Dfa) else determinize(as_nfa(goal))
    accepting = dfa.accepting
    if not accepting:
        return dfa
    sink = dfa.initial if dfa.initial in accepting else min(accepting)
    delta = {
        (q, rl): sink if q in accepting or target in accepting else target
        for (q, rl), target in dfa.delta.items()
    }
    return Dfa(dfa.alphabet, dfa.mask, dfa.names, dfa.initial, accepting, delta)


@dataclass
class DeviationGame:
    """Safety game for one potential deviator.

    Agent 0 is the coalition of everyone else: from a goal state q it
    commits to a letter, then the deviator may replace its own channel
    before the goal steps.  The coalition must keep the goal out of its
    accepting set; accepting goal states are unsafe and blocked.  Agent-1
    vertices are keyed on the letter restricted to the goal's mask plus the
    deviator's channel, which merges letters the game cannot distinguish.
    """

    agent: int
    goal: Dfa
    keys: ChannelMask
    arena: Arena
    v1_index: dict[tuple[int, Letter], int]
    v1_vertices: list[tuple[int, Letter]]
    result: SafetyResult

    @property
    def size(self) -> int:
        return self.arena.n

    def v0_in_win0(self, q: int) -> bool:
        return q in self.result.win0

    def v1_in_win0(self, q: int, letter: Letter) -> bool:
        return self.v1_index[q, project(letter, self.keys)] in self.result.win0

    def strategy_letter(self, q: int) -> Letter:
        """Expand the positional choice at a winning coalition vertex into a
        concrete full letter (unconstrained channels take symbol 0)."""
        chosen = self.result.strategy0[q]
        _, rl = self.v1_vertices[chosen - self.goal.n_states]
        letter = [0] * self.goal.alphabet.k
        for pos, channel in enumerate(self.keys.agents):
            letter[channel] = rl[pos]
        return tuple(letter)

    def labels(self) -> list[str]:
        """One label per arena vertex, for `safety.dump_arena`."""
        names = self.goal.names
        alphabet = self.goal.alphabet
        return [f"q={name}" for name in names] + [
            f"q={names[q]} committed={alphabet.format(rl, self.keys)}" for q, rl in self.v1_vertices
        ]


def build_deviation_game(game: Ibg, agent: int, goal_dfa: Dfa) -> DeviationGame:
    """Build and solve the deviation game for one agent's goal DFA."""
    alphabet = game.alphabet
    keys = goal_dfa.mask.union((agent,))
    n_goal = goal_dfa.n_states
    key_letters = list(alphabet.restricted_letters(keys))
    key_pos = {channel: i for i, channel in enumerate(keys.agents)}
    goal_positions = [key_pos[c] for c in goal_dfa.mask.agents]
    agent_pos = key_pos[agent]
    agent_symbols = range(len(alphabet.channels[agent]))

    v1_vertices = [(q, rl) for q in range(n_goal) if q not in goal_dfa.accepting for rl in key_letters]
    v1_index = {vertex: n_goal + i for i, vertex in enumerate(v1_vertices)}

    n = n_goal + len(v1_vertices)
    owner = [0] * n_goal + [1] * len(v1_vertices)
    succ: list[list[int]] = [[] for _ in range(n)]
    for (q, rl), vid in v1_index.items():
        succ[q].append(vid)
        for c in agent_symbols:
            deviated = rl[:agent_pos] + (c,) + rl[agent_pos + 1:]
            target = goal_dfa.delta[q, tuple(deviated[p] for p in goal_positions)]
            succ[vid].append(target)
    arena = Arena(tuple(owner), tuple(tuple(s) for s in succ))
    safe = frozenset(v for v in range(n) if not (v < n_goal and v in goal_dfa.accepting))
    result = solve_safety(SafetyInstance(arena, safe))
    return DeviationGame(agent, goal_dfa, keys, arena, v1_index, v1_vertices, result)


# ---------------------------------------------------------------------------
# Product Buchi automaton over all goal DFAs.


ProductState = tuple[int, ...]


@dataclass
class ProductBuchi:
    """Deterministic Buchi automaton accepting words on which exactly the
    prescribed winners' goals are satisfied.

    A state is the tuple of goal states.  Goals come from `goal_as_dfa`, so
    accepting goal states are absorbing, and a state accepts iff every
    winner's goal is in its accepting set.  Transitions that leave some
    losing agent's deviation-game winning region are undefined; that region
    holds no accepting goal state, so no loser's goal accepts either.
    States are numbered in breadth-first discovery order, each source's
    letters lowest first, and `trans` is filled in that order.  `parent[v]` is the (source, letter)
    that discovered v (None for the initial state); `buchi_nonempty` takes
    its stem from it.
    """

    goal_dfas: tuple[Dfa, ...]
    states: list[ProductState]
    initial: int | None
    trans: dict[tuple[int, Letter], int]
    accepting: frozenset[int]
    parent: list[tuple[int, Letter] | None]

    @property
    def n_states(self) -> int:
        return len(self.states)


def _build_product(
    goal_dfas: tuple[Dfa, ...],
    winners: frozenset[int],
    alphabet: ProductAlphabet,
    deviation_games: dict[int, DeviationGame],
) -> ProductBuchi:
    """The reachable product of `goal_as_dfa` goals, pruned by one deviation
    game per losing agent (`{}` when every agent wins)."""
    k = len(goal_dfas)
    losers = [j for j in range(k) if j not in winners]
    # A losing agent who can escape its deviation game from the start makes
    # the instance empty; that includes a goal accepting the empty prefix,
    # whose initial vertex is unsafe.
    for j in losers:
        if not deviation_games[j].v0_in_win0(goal_dfas[j].initial):
            return ProductBuchi(goal_dfas, [], None, {}, frozenset(), [])
    start: ProductState = tuple(d.initial for d in goal_dfas)
    index: dict[ProductState, int] = {start: 0}
    states: list[ProductState] = [start]
    trans: dict[tuple[int, Letter], int] = {}
    parent: list[tuple[int, Letter] | None] = [None]

    # Letter-indexed tables, built once per goal state the search reaches
    # instead of once per (product state, letter).  Letter x is the x-th
    # letter in lexicographic order.  row_of(j, q) is goal j's successor
    # row: entry x is delta_j(q, letter x restricted to goal j's mask).
    # allowed_of(j, q), for a loser j, is an int whose bit x is set iff
    # letter x stays in j's deviation-game winning region.  That keeps goal
    # j out of its accepting set too: the agent-1 vertex has the conforming
    # target among its successors, and accepting goal states are unsafe.
    # A product state ANDs its losers' masks and walks the set bits lowest
    # first, so transitions are inserted in letter order, per source state
    # in discovery order.
    letters = list(alphabet.letters())
    full = (1 << len(letters)) - 1
    goal_positions: list[list[int]] = []
    for d in goal_dfas:
        classes = {rl: n for n, rl in enumerate(alphabet.restricted_letters(d.mask))}
        goal_positions.append([classes[project(letter, d.mask)] for letter in letters])

    @cache
    def row_of(j: int, q: int) -> tuple[int, ...]:
        d = goal_dfas[j]
        by_class = [d.delta[q, rl] for rl in alphabet.restricted_letters(d.mask)]
        return tuple([by_class[n] for n in goal_positions[j]])

    @cache
    def allowed_of(j: int, q: int) -> int:
        dev = deviation_games[j]
        mask = 0
        for x, letter in enumerate(letters):
            if dev.v1_in_win0(q, letter):
                mask |= 1 << x
        return mask

    i = 0
    while i < len(states):
        qs = states[i]
        state_rows = [row_of(j, q) for j, q in enumerate(qs)]
        keep = full
        for j in losers:
            keep &= allowed_of(j, qs[j])
        while keep:
            low = keep & -keep
            keep ^= low
            x = low.bit_length() - 1
            state = tuple([r[x] for r in state_rows])
            target = index.get(state)
            if target is None:
                target = index[state] = len(states)
                states.append(state)
                parent.append((i, letters[x]))
            trans[i, letters[x]] = target
        i += 1
    accepting = frozenset(
        v for v, qs in enumerate(states)
        if all(qs[w] in goal_dfas[w].accepting for w in winners)
    )
    return ProductBuchi(goal_dfas, states, 0, trans, accepting, parent)


def _tarjan_cyclic(n: int, succ: list[list[int]]) -> list[bool]:
    """Which vertices lie on some cycle (nontrivial SCC or self-loop)."""
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    cyclic = [False] * n
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, iter(succ[root]))]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index_of[w] == -1:
                    index_of[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index_of[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                if len(component) > 1:
                    for w in component:
                        cyclic[w] = True
                elif v in succ[v]:
                    cyclic[v] = True
    return cyclic


def buchi_nonempty(ab: ProductBuchi) -> UltimatelyPeriodicWord | None:
    """Return an accepted lasso, or None when the language is empty.

    Accepting goal states are absorbing, so every state reachable from an
    accepting state is accepting; with none the language is empty at once.
    Otherwise nonemptiness reduces to finding a reachable accepting state
    that lies on a cycle.  The lowest-numbered one is the first a BFS
    finds; its `parent` path is the stem, and the shortest cycle through it
    is found by BFS.  Both break ties by lowest letter index.
    """
    if not ab.accepting:
        return None
    n = ab.n_states
    # Out-edges per state in trans insertion order, which _build_product
    # makes letter order: walking them visits letters lowest first.
    out: list[list[tuple[Letter, int]]] = [[] for _ in range(n)]
    for (v, letter), w in ab.trans.items():
        out[v].append((letter, w))
    succ = [sorted({w for _, w in edges}) for edges in out]

    cyclic = _tarjan_cyclic(n, succ)
    target = next((v for v in range(n) if cyclic[v] and v in ab.accepting), None)
    if target is None:
        return None

    stem: list[Letter] = []
    step = ab.parent[target]
    while step is not None:
        v, letter = step
        stem.append(letter)
        step = ab.parent[v]
    stem.reverse()

    # Shortest cycle through the target, again lowest letter first.
    cycle_parent: dict[int, tuple[int, Letter]] = {}
    frontier = [target]
    reached_back = False
    visited = set()
    while frontier and not reached_back:
        nxt_frontier = []
        for v in frontier:
            for letter, w in out[v]:
                if w == target:
                    cycle_parent[target] = (v, letter)
                    reached_back = True
                    break
                if w not in visited:
                    visited.add(w)
                    cycle_parent[w] = (v, letter)
                    nxt_frontier.append(w)
            if reached_back:
                break
        frontier = nxt_frontier
    loop: list[Letter] = []
    v = target
    while True:
        p, letter = cycle_parent[v]
        loop.append(letter)
        v = p
        if v == target:
            break
    loop.reverse()
    return UltimatelyPeriodicWord(tuple(stem), tuple(loop))


# ---------------------------------------------------------------------------
# Witness extraction and the top-level decision procedure.


@dataclass
class RealizabilityStats:
    goal_dfa_states: tuple[int, ...]
    deviation_arena_sizes: dict[int, int]
    product_states: int
    product_transitions: int


@dataclass
class RealizabilityVerdict:
    winners: frozenset[int]
    realizable: bool
    lasso: UltimatelyPeriodicWord | None
    witness: StrategyProfile | None
    stats: RealizabilityStats
    deviation_games: dict[int, DeviationGame]


def _replay_lasso(ab: ProductBuchi, lasso: UltimatelyPeriodicWord) -> list[int]:
    """Product states visited at each lasso position; sanity-checks that the
    lasso really is accepted by the refined automaton."""
    span = lasso.span
    states = [ab.initial]
    for t in range(span):
        state = ab.trans.get((states[-1], lasso.at(t)))
        if state is None:
            raise RuntimeError("witness lasso left the refined automaton")
        states.append(state)
    if states[span] != states[len(lasso.prefix)]:
        raise RuntimeError("witness lasso period does not close a cycle")
    if states[len(lasso.prefix)] not in ab.accepting:
        raise RuntimeError("witness lasso cycle misses the accepting set")
    return states


def extract_witness(
    game: Ibg,
    winners: frozenset[int],
    lasso: UltimatelyPeriodicWord,
    refined: ProductBuchi,
    deviation_games: dict[int, DeviationGame],
) -> StrategyProfile:
    """Build one Moore machine per agent realizing the equilibrium.

    Mode A replays the lasso while the observed history matches it.  On the
    first letter deviating in exactly one losing agent's channel, mode B
    tracks that agent's deviation game with the coalition's positional
    strategy.  Any other divergence falls through to mode C, a fixed
    constant output.

    Every machine reads only the losers' channels (none when every agent
    wins).  An equilibrium need only withstand unilateral deviations by
    losers: a winner is already satisfied.  While every agent but one
    loser conforms, the unread channels carry the expected letter's
    symbols, so each restricted letter is filled in from the expected
    letter and the goal state it lands in is exact.  A winner's deviation
    is therefore never seen, and mode C is reached only when two or more
    losers deviate at once.
    """
    alphabet = game.alphabet
    prod_states = _replay_lasso(refined, lasso)
    span = lasso.span
    wrap = len(lasso.prefix)
    goal_dfas = refined.goal_dfas
    losers = [j for j in range(alphabet.k) if j not in winners]
    mask = ChannelMask.of(losers)
    restricted = list(alphabet.restricted_letters(mask))

    def next_pos(p: int) -> int:
        return p + 1 if p + 1 < span else wrap

    ModeState = tuple
    start: ModeState = ("A", 0)
    index: dict[ModeState, int] = {start: 0}
    states: list[ModeState] = [start]
    outputs: list[Letter] = []
    trans: dict[tuple[int, Letter], int] = {}

    def intern(state: ModeState) -> int:
        if state not in index:
            index[state] = len(states)
            states.append(state)
        return index[state]

    i = 0
    while i < len(states):
        state = states[i]
        if state[0] == "A":
            expected = lasso.at(state[1])
        elif state[0] == "B":
            expected = deviation_games[state[1]].strategy_letter(state[2])
        else:
            expected = tuple(0 for _ in range(alphabet.k))
        outputs.append(expected)
        for rl in restricted:
            letter = list(expected)
            for j, x in zip(losers, rl):
                letter[j] = x
            diff = [j for j in losers if letter[j] != expected[j]]
            if state[0] == "A":
                p = state[1]
                if not diff:
                    nxt: ModeState = ("A", next_pos(p))
                elif len(diff) == 1:
                    j = diff[0]
                    q = prod_states[p]
                    goal_state = refined.states[q][j]
                    landed = goal_dfas[j].delta[goal_state, project(letter, goal_dfas[j].mask)]
                    nxt = ("B", j, landed)
                else:
                    nxt = ("C",)
            elif state[0] == "B":
                j, q = state[1], state[2]
                if all(c == j for c in diff):
                    landed = goal_dfas[j].delta[q, project(letter, goal_dfas[j].mask)]
                    nxt = ("B", j, landed)
                else:
                    nxt = ("C",)
            else:
                nxt = ("C",)
            trans[i, rl] = intern(nxt)
        i += 1

    def state_name(state: ModeState) -> str:
        if state[0] == "A":
            return f"replay{state[1]}"
        if state[0] == "B":
            return f"escape{state[1]}_{goal_dfas[state[1]].names[state[2]]}"
        return "default"

    names = tuple(state_name(s) for s in states)
    machines = []
    for agent in game.agents:
        machines.append(
            MooreMachine(
                owner=agent,
                alphabet=alphabet,
                mask=mask,
                names=names,
                initial=0,
                output=tuple(out[agent] for out in outputs),
                trans=dict(trans),
            )
        )
    return StrategyProfile(tuple(machines))


def realizable(game: Ibg, winners: frozenset[int] | set[int]) -> RealizabilityVerdict:
    """Decide whether an equilibrium with exactly this winning set exists."""
    winners = frozenset(winners)
    if not all(0 <= i < game.k for i in winners):
        raise ValueError(f"winners {sorted(winners)} contain an unknown agent (k={game.k})")
    goal_dfas = tuple(goal_as_dfa(goal) for goal in game.goals)
    deviation_games = {
        j: build_deviation_game(game, j, goal_dfas[j])
        for j in game.agents
        if j not in winners
    }
    refined = _build_product(goal_dfas, winners, game.alphabet, deviation_games)
    lasso = buchi_nonempty(refined)
    witness = None
    if lasso is not None:
        witness = extract_witness(game, winners, lasso, refined, deviation_games)
    stats = RealizabilityStats(
        goal_dfa_states=tuple(d.n_states for d in goal_dfas),
        deviation_arena_sizes={j: g.size for j, g in sorted(deviation_games.items())},
        product_states=refined.n_states,
        product_transitions=len(refined.trans),
    )
    return RealizabilityVerdict(winners, lasso is not None, lasso, witness, stats, deviation_games)
