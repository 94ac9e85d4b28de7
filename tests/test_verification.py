import random
from collections import deque

import pytest

from ibgsolve import (
    Arena,
    Dfa,
    Ibg,
    SafetyInstance,
    StrategyProfile,
    as_afa,
    as_nfa,
    i_query,
    j_query,
    oracle_verify,
    product_profile,
    query_goal,
    solve_safety,
    verify,
)
from ibgsolve.alphabet import project

import corpus


@pytest.fixture
def const_ac(ev_game):
    return corpus.constant_profile(ev_game, ("a", "c"))


# ---------------------------------------------------------------------------
# i-queries


def test_i_query_pass_with_shortest_path(ev_game, const_ac):
    g = product_profile(const_ac)
    passed, path = i_query(query_goal(ev_game.goals[0]), g)
    assert passed
    assert len(path) == 1


def test_i_query_fail(ev_game, const_ac):
    g = product_profile(const_ac)
    passed, path = i_query(query_goal(ev_game.goals[1]), g)
    assert not passed
    assert path is None


def test_i_query_accepting_initial_state(ev_game, const_ac):
    goal = ev_game.goals[0]
    eager = Dfa(goal.alphabet, goal.mask, goal.names, goal.initial,
                goal.accepting | {goal.initial}, goal.delta)
    g = product_profile(const_ac)
    passed, path = i_query(query_goal(eager), g)
    assert passed
    assert path == ()


def test_i_query_matches_prefix_acceptance():
    from ibgsolve import accepts_prefix, primary_trace

    rng = random.Random(211)
    for _ in range(150):
        game = corpus.random_game(rng)
        profile = corpus.random_profile(rng, game)
        g = product_profile(profile)
        trace = primary_trace(g)
        for goal in game.goals:
            passed, _ = i_query(query_goal(goal), g)
            assert passed == accepts_prefix(goal, trace)


# ---------------------------------------------------------------------------
# profile deviation games and j-queries
#
# The profile-constrained deviation game is searched forward over
# (goal state, profile state) pairs; the test_profile_deviation_game_* tests
# check through j_query what its winning regions decide.


def test_profile_deviation_game_no_accepting_states(ev_game, mp_game):
    # A goal without accepting states never breaches: every agent passes
    # under every constant profile.
    for game in (ev_game, mp_game):
        for picks in (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")):
            g = product_profile(corpus.constant_profile(game, picks))
            for agent, goal in enumerate(game.goals):
                hollow = Dfa(goal.alphabet, goal.mask, goal.names, goal.initial,
                             frozenset(), goal.delta)
                passed, violation, search = j_query(query_goal(hollow), g, agent)
                assert passed
                assert violation is None
                assert search.path is None


def test_profile_deviation_game_mp_initial_breach(mp_game):
    # Whichever letter a constant profile commits first, one agent's goal
    # accepts it and the other agent escapes at the start by flipping its
    # own symbol.
    for picks in (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")):
        profile = corpus.constant_profile(mp_game, picks)
        g = product_profile(profile)
        committed = g.gamma[g.initial]
        satisfied = 0 if picks in (("a", "c"), ("b", "d")) else 1
        deviator = 1 - satisfied
        passed, violation, _ = j_query(query_goal(mp_game.goals[deviator]), g, deviator)
        assert not passed
        assert violation.kind == "deviant-trace"
        assert violation.prefix == ()
        assert len(violation.escape) == 1
        (letter,) = violation.escape
        assert letter[satisfied] == committed[satisfied]
        assert letter[deviator] != committed[deviator]


def test_profile_deviation_game_ev_initial_safe(ev_game):
    # Agent 1 needs (b,c) and agent 0 needs (a,c); neither can produce its
    # letter while the other agent's constant symbol rules it out.
    for picks, agent in ((("a", "c"), 1), (("a", "d"), 0), (("a", "d"), 1), (("b", "d"), 0)):
        g = product_profile(corpus.constant_profile(ev_game, picks))
        passed, violation, search = j_query(query_goal(ev_game.goals[agent]), g, agent)
        assert passed
        assert violation is None
        assert search.path is None


def test_profile_deviation_game_accepting_states_lose(ev_game):
    # constant (b,c) satisfies agent 1's goal on the primary trace itself,
    # constant (a,c) agent 0's
    for picks, agent in ((("b", "c"), 1), (("a", "c"), 0)):
        g = product_profile(corpus.constant_profile(ev_game, picks))
        passed, violation, _ = j_query(query_goal(ev_game.goals[agent]), g, agent)
        assert not passed
        assert violation.kind == "primary-trace"
        assert len(violation.prefix) == 1
        assert violation.escape == ()


def test_j_query_mp_deviant_violation(mp_game):
    profile = corpus.constant_profile(mp_game, ("a", "c"))
    g = product_profile(profile)
    passed, violation, _ = j_query(query_goal(mp_game.goals[1]), g, 1)
    assert not passed
    assert violation.kind == "deviant-trace"
    assert violation.prefix == ()
    assert len(violation.escape) == 1


def test_j_query_ev_passes(ev_game, const_ac):
    g = product_profile(const_ac)
    passed, violation, _ = j_query(query_goal(ev_game.goals[1]), g, 1)
    assert passed
    assert violation is None


def test_j_query_empty_language_always_passes(ev_game, const_ac):
    goal = ev_game.goals[1]
    hollow = Dfa(goal.alphabet, goal.mask, goal.names, goal.initial, frozenset(), goal.delta)
    g = product_profile(const_ac)
    passed, _, _ = j_query(query_goal(hollow), g, 1)
    assert passed


def test_j_query_primary_trace_violation(ev_game):
    # constant (b,c) satisfies agent 1's goal on the primary trace itself
    profile = corpus.constant_profile(ev_game, ("b", "c"))
    g = product_profile(profile)
    passed, violation, _ = j_query(query_goal(ev_game.goals[1]), g, 1)
    assert not passed
    assert violation.kind == "primary-trace"
    assert len(violation.prefix) == 1
    assert violation.escape == ()


def _reference_successors(goal, q, letter):
    rl = project(letter, goal.mask)
    if isinstance(goal, Dfa):
        return (goal.delta[q, rl],)
    return goal.successors.get((q, rl), ())


def _reference_primary_bfs(goal, g):
    """BFS along the profile's own output; returns the dequeue order up to
    and including the first accepting vertex, and the parents."""
    start = (goal.initial, g.initial)
    parent = {}
    seen = {start}
    queue = deque([start])
    order = []
    while queue:
        q, s = queue.popleft()
        order.append((q, s))
        if q in goal.accepting:
            break
        letter = g.gamma[s]
        s2 = g.trans[s, letter]
        for q2 in _reference_successors(goal, q, letter):
            if (q2, s2) not in seen:
                seen.add((q2, s2))
                parent[q2, s2] = ((q, s), letter)
                queue.append((q2, s2))
    return order, parent


def _reference_path(parent, start, vertex):
    out = []
    while vertex != start:
        vertex, letter = parent[vertex]
        out.append(letter)
    return tuple(reversed(out))


def reference_i_query(goal, g):
    start = (goal.initial, g.initial)
    order, parent = _reference_primary_bfs(goal, g)
    if order[-1][0] not in goal.accepting:
        return False, None
    return True, _reference_path(parent, start, order[-1])


def reference_j_query(goal, g, agent):
    """A loser's check as a two-player safety game: the coalition commits
    the profile's letter, the deviator picks its own symbol, and the
    deviator wins by reaching acceptance.  Returns passed, violation kind,
    prefix, escape and the arena's vertex count."""
    v0_index = {}
    v0_vertices = []
    pending = deque()

    def intern(q, s):
        if (q, s) not in v0_index:
            v0_index[q, s] = len(v0_vertices)
            v0_vertices.append((q, s))
            pending.append((q, s))
        return v0_index[q, s]

    intern(goal.initial, g.initial)
    v1_edges = []
    while pending:
        q, s = pending.popleft()
        if q in goal.accepting:
            continue
        committed = g.gamma[s]
        targets = []
        for c in range(len(g.alphabet.channels[agent])):
            letter = committed[:agent] + (c,) + committed[agent + 1:]
            s2 = g.trans[s, letter]
            for q2 in _reference_successors(goal, q, letter):
                targets.append((intern(q2, s2), letter))
        v1_edges.append((v0_index[q, s], targets))
    n0 = len(v0_vertices)
    n = n0 + len(v1_edges)
    succ = [[] for _ in range(n)]
    edge_letter = {}
    for pos, (v0_id, targets) in enumerate(v1_edges):
        succ[v0_id].append(n0 + pos)
        for target, letter in sorted(targets):
            succ[n0 + pos].append(target)
            edge_letter.setdefault((n0 + pos, target), letter)
    arena = Arena(tuple([0] * n0 + [1] * len(v1_edges)), tuple(tuple(t) for t in succ))
    accepting = {v0_index[q, s] for q, s in v0_vertices if q in goal.accepting}
    win1 = solve_safety(SafetyInstance(arena, frozenset(range(n)) - accepting)).win1

    start = (goal.initial, g.initial)
    order, parent = _reference_primary_bfs(goal, g)
    breaches = [v for v in order if v0_index[v] in win1]
    if not breaches:
        return True, None, None, None, arena.n
    if order[-1][0] in goal.accepting:
        return False, "primary-trace", _reference_path(parent, start, order[-1]), (), arena.n
    # escape: BFS over the arena from the earliest breach to acceptance
    source = v0_index[breaches[0]]
    arena_parent = {}
    queue = deque([source])
    seen = {source}
    while queue:
        v = queue.popleft()
        if v in accepting:
            break
        for w in arena.succ[v]:
            if w not in seen:
                seen.add(w)
                arena_parent[w] = v
                queue.append(w)
    vertices = [v]
    while vertices[-1] != source:
        vertices.append(arena_parent[vertices[-1]])
    vertices.reverse()
    escape = tuple(
        edge_letter[v, w] for v, w in zip(vertices, vertices[1:]) if arena.owner[v] == 1
    )
    return False, "deviant-trace", _reference_path(parent, start, breaches[0]), escape, arena.n


def test_j_query_matches_arena_reference():
    rng = random.Random(251)
    kinds = {"primary-trace": 0, "deviant-trace": 0, None: 0}
    for n in range(600):
        game = corpus.random_game(rng, kinds="dfa" if n % 4 == 0 else "mixed")
        g = product_profile(corpus.random_profile(rng, game))
        for agent, goal in enumerate(game.goals):
            goal = query_goal(goal)
            assert i_query(goal, g) == reference_i_query(goal, g)
            passed, violation, search = j_query(goal, g, agent)
            got = (passed,) + (
                (None, None, None) if violation is None
                else (violation.kind, violation.prefix, violation.escape)
            ) + (search.size,)
            assert got == reference_j_query(goal, g, agent)
            kinds[got[1]] += 1
    assert min(kinds.values()) > 20


def replay_escape(game, profile, agent, violation):
    """Mechanical replay: escape letters must match the machines off the
    deviating channel and drive the goal into acceptance."""
    from ibgsolve.automata import Nfa

    goal = query_goal(game.goals[agent])
    machines = profile.machines
    states = [m.initial for m in machines]
    current = {goal.initial}
    for letter in violation.prefix:
        outputs = tuple(m.output[s] for m, s in zip(machines, states))
        assert letter == outputs
        nxt = set()
        for q in current:
            if isinstance(goal, Nfa):
                nxt.update(goal.successors.get((q, project(letter, goal.mask)), ()))
            else:
                nxt.add(goal.delta[q, project(letter, goal.mask)])
        current = nxt
        states = [m.step(s, letter) for m, s in zip(machines, states)]
    accepted = bool(current & goal.accepting)
    for letter in violation.escape:
        outputs = tuple(m.output[s] for m, s in zip(machines, states))
        assert all(letter[c] == outputs[c] for c in range(game.k) if c != agent)
        nxt = set()
        for q in current:
            if isinstance(goal, Nfa):
                nxt.update(goal.successors.get((q, project(letter, goal.mask)), ()))
            else:
                nxt.add(goal.delta[q, project(letter, goal.mask)])
        current = nxt
        states = [m.step(s, letter) for m, s in zip(machines, states)]
        if current & goal.accepting:
            accepted = True
    assert accepted


def test_violations_replay_to_acceptance():
    rng = random.Random(223)
    replayed = {"primary-trace": 0, "deviant-trace": 0}
    for _ in range(300):
        game = corpus.random_game(rng)
        profile = corpus.random_profile(rng, game)
        winners = frozenset(i for i in game.agents if rng.random() < 0.4)
        report = verify(game, winners, profile)
        for j, result in report.loser_results.items():
            if result.violation is not None:
                replay_escape(game, profile, j, result.violation)
                replayed[result.violation.kind] += 1
    assert replayed["primary-trace"] > 10
    assert replayed["deviant-trace"] > 10


# ---------------------------------------------------------------------------
# verify


def test_verify_ev_constant_is_equilibrium_for_0(ev_game, const_ac):
    report = verify(ev_game, frozenset({0}), const_ac)
    assert report.is_equilibrium
    assert report.winner_results[0].passed
    assert report.loser_results[1].passed


def test_verify_ev_constant_not_equilibrium_for_01(ev_game, const_ac):
    report = verify(ev_game, frozenset({0, 1}), const_ac)
    assert not report.is_equilibrium
    assert not report.winner_results[1].passed


def test_verify_empty_winners_empty_goals(alphabet, ev_game):
    hollow = tuple(
        Dfa(g.alphabet, g.mask, g.names, g.initial, frozenset(), g.delta) for g in ev_game.goals
    )
    game = Ibg(alphabet, hollow)
    rng = random.Random(227)
    for _ in range(10):
        profile = corpus.random_profile(rng, game)
        assert verify(game, frozenset(), profile).is_equilibrium


def test_verify_rejects_wrong_profile_shape(ev_game, const_ac):
    with pytest.raises(ValueError):
        verify(ev_game, frozenset({0}), StrategyProfile((const_ac.machines[0],)))


def test_verify_rejects_alphabet_mismatch(ev_game):
    other_game = corpus.random_game(random.Random(229), max_k=2)
    profile = corpus.random_profile(random.Random(229), other_game)
    if other_game.alphabet != ev_game.alphabet:
        with pytest.raises(ValueError):
            verify(ev_game, frozenset(), profile)


def test_report_answer_consistent_with_queries():
    rng = random.Random(233)
    for _ in range(120):
        game = corpus.random_game(rng)
        profile = corpus.random_profile(rng, game)
        winners = frozenset(i for i in game.agents if rng.random() < 0.5)
        report = verify(game, winners, profile)
        expected = all(r.passed for r in report.winner_results.values()) and all(
            r.passed for r in report.loser_results.values()
        )
        assert report.is_equilibrium == expected


def test_verify_agrees_with_oracle():
    rng = random.Random(239)
    for _ in range(250):
        game = corpus.random_game(rng)
        profile = corpus.random_profile(rng, game)
        winners = frozenset(i for i in game.agents if rng.random() < 0.5)
        assert verify(game, winners, profile).is_equilibrium == oracle_verify(
            game, winners, profile
        )


def test_verify_kind_invariant():
    rng = random.Random(241)
    for _ in range(60):
        game = corpus.random_game(rng, kinds="dfa")
        profile = corpus.random_profile(rng, game)
        winners = frozenset(i for i in game.agents if rng.random() < 0.5)
        base = verify(game, winners, profile).is_equilibrium
        nfa_game = Ibg(game.alphabet, tuple(as_nfa(g) for g in game.goals))
        afa_game = Ibg(game.alphabet, tuple(as_afa(g) for g in game.goals))
        assert verify(nfa_game, winners, profile).is_equilibrium == base
        assert verify(afa_game, winners, profile).is_equilibrium == base
