"""Check whether a given strategy profile is an equilibrium for a winning set.

The profile's machines are multiplied into one global transducer; each
agent's goal is then checked separately against it by a forward search over
(goal state, profile state) pairs.  Winners need their goal to accept on the
primary trace, where every step consumes the profile's own output.  Losing
agents need the opposite, and more: no path on which the other agents follow
their machines and the loser emits whatever it likes may reach acceptance.
With the profile fixed the coalition has no choices left, so this is plain
reachability for the deviator and no game is solved.

Goal kinds: every goal is searched as its `as_nfa` form, so the search is
relational and never determinises.  An AFA becomes its obligation NFA
only, which avoids a second exponential blowup.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .alphabet import Letter, project
from .automata import GoalAutomaton, Nfa, as_nfa
from .game import GlobalMoore, Ibg, StrategyProfile, product_profile


@dataclass(frozen=True)
class Search:
    """Outcome of one forward search: the letters leading to the first
    accepting pair found (None if there is none) and the work done, counted
    as pairs reached plus pairs expanded."""

    path: tuple[Letter, ...] | None
    size: int


def _search(goal: Nfa, g: GlobalMoore, deviator: int | None = None) -> Search:
    """Breadth-first search over (goal state, profile state) pairs from the
    initial pair.  Every agent emits what its machine commits, except the
    deviator, if given, which may emit any of its symbols, lowest first.
    Accepting pairs end their branch.  The search runs to exhaustion so that
    `size` does not depend on where acceptance lies; the returned path is
    the one to the first accepting pair found, whose predecessors are each
    found first and through the lowest letter."""
    succ = goal.successors
    mask = goal.mask
    start = (goal.initial, g.initial)
    parent: dict[tuple[int, int], tuple[tuple[int, int], Letter] | None] = {start: None}
    queue: deque[tuple[int, int]] = deque([start])
    expanded = 0
    found: tuple[int, int] | None = None
    own_symbols = range(len(g.alphabet.channels[deviator])) if deviator is not None else ()
    while queue:
        q, s = v = queue.popleft()
        if q in goal.accepting:
            if found is None:
                found = v
            continue
        expanded += 1
        committed = g.gamma[s]
        if deviator is None:
            letters = (committed,)
        else:
            letters = [committed[:deviator] + (c,) + committed[deviator + 1:] for c in own_symbols]
        for letter in letters:
            s2 = g.trans[s, letter]
            for q2 in succ.get((q, project(letter, mask)), ()):
                if (q2, s2) not in parent:
                    parent[q2, s2] = (v, letter)
                    queue.append((q2, s2))
    if found is None:
        return Search(None, len(parent) + expanded)
    path: list[Letter] = []
    step = parent[found]
    while step is not None:
        v, letter = step
        path.append(letter)
        step = parent[v]
    path.reverse()
    return Search(tuple(path), len(parent) + expanded)


def i_query(goal: Nfa, g: GlobalMoore) -> tuple[bool, tuple[Letter, ...] | None]:
    """Does the goal accept a finite prefix of the primary trace?

    Passes iff an accepting goal state is reachable when every step
    consumes the profile's own output, returning the shortest accepted
    prefix.
    """
    path = _search(goal, g).path
    return path is not None, path


@dataclass
class Violation:
    kind: str  # "primary-trace" or "deviant-trace"
    prefix: tuple[Letter, ...]
    escape: tuple[Letter, ...]


def j_query(goal: Nfa, g: GlobalMoore, agent: int) -> tuple[bool, Violation | None, Search]:
    """Passes iff the agent's goal accepts no prefix of any trace on which
    the other agents follow the profile and the agent emits what it likes.

    On failure the violation is classified.  If the goal accepts a prefix of
    the primary trace outright, that shortest prefix is a "primary-trace"
    violation with an empty escape.  Otherwise it is a "deviant-trace"
    violation whose escape is the shortest letter sequence (lowest letters
    first) that drives the goal into acceptance from the start.  Its prefix
    is always empty: the deviator can always conform to the profile, so
    every pair of the primary trace is reachable from the initial pair, and
    the earliest point at which an escape exists is therefore the start.

    The third element is the deviator's search, whose `size` counts the
    pairs it reached plus the pairs it expanded.
    """
    primary = _search(goal, g).path
    deviant = _search(goal, g, agent)
    if primary is not None:
        return False, Violation("primary-trace", primary, ()), deviant
    if deviant.path is not None:
        return False, Violation("deviant-trace", (), deviant.path), deviant
    return True, None, deviant


@dataclass
class QueryResult:
    agent: int
    passed: bool
    path: tuple[Letter, ...] | None = None
    violation: Violation | None = None


@dataclass
class VerificationReport:
    winners: frozenset[int]
    is_equilibrium: bool
    winner_results: dict[int, QueryResult]
    loser_results: dict[int, QueryResult]
    stats: dict[str, object]


def query_goal(goal: GoalAutomaton) -> Nfa:
    """The goal in the form every query searches: `as_nfa(goal)`."""
    return as_nfa(goal)


def verify(game: Ibg, winners: frozenset[int] | set[int], profile: StrategyProfile) -> VerificationReport:
    """Is the profile an equilibrium whose winning set is exactly `winners`?"""
    winners = frozenset(winners)
    if not all(0 <= i < game.k for i in winners):
        raise ValueError(f"winners {sorted(winners)} contain an unknown agent (k={game.k})")
    if len(profile.machines) != game.k:
        raise ValueError(f"profile has {len(profile.machines)} machines for {game.k} agents")
    if profile.alphabet != game.alphabet:
        raise ValueError("profile and game disagree on the alphabet")
    g = product_profile(profile)
    goals = [query_goal(goal) for goal in game.goals]
    winner_results: dict[int, QueryResult] = {}
    loser_results: dict[int, QueryResult] = {}
    dev_sizes: dict[int, int] = {}
    for i in sorted(winners):
        passed, path = i_query(goals[i], g)
        winner_results[i] = QueryResult(i, passed, path=path)
    for j in game.agents:
        if j in winners:
            continue
        passed, violation, search = j_query(goals[j], g, j)
        loser_results[j] = QueryResult(j, passed, violation=violation)
        dev_sizes[j] = search.size
    ok = all(r.passed for r in winner_results.values()) and all(
        r.passed for r in loser_results.values()
    )
    stats = {
        "profile_states": g.n_states,
        "deviation_arena_sizes": dev_sizes,
    }
    return VerificationReport(winners, ok, winner_results, loser_results, stats)
