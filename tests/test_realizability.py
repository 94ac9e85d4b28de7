import itertools
import random

import pytest

from ibgsolve import (
    Afa,
    ChannelMask,
    Dfa,
    Nfa,
    Lasso,
    accepts_prefix,
    afa_to_nfa,
    as_afa,
    as_nfa,
    buchi_nonempty,
    build_deviation_game,
    determinize,
    extract_witness,
    goal_as_dfa,
    oracle_realizable_onesided,
    oracle_verify,
    project,
    realizable,
    verify,
    winning_set,
    Ibg,
    OracleConfig,
)
from ibgsolve.realizability import _build_product

import corpus


def all_winner_sets(game):
    for r in range(game.k + 1):
        for combo in itertools.combinations(range(game.k), r):
            yield frozenset(combo)


# ---------------------------------------------------------------------------
# deviation games


def test_deviation_game_no_accepting_states(ev_game):
    goal = ev_game.goals[1]
    hollow = Dfa(goal.alphabet, goal.mask, goal.names, goal.initial, frozenset(), goal.delta)
    dev = build_deviation_game(ev_game, 1, hollow)
    assert dev.result.win0 == frozenset(range(dev.arena.n))


def test_deviation_game_mp_deviator_always_escapes(alphabet, mp_game):
    # agent 1 flips its first pick into the mismatch goal's accepting state
    dev = build_deviation_game(mp_game, 1, mp_game.goals[1])
    q0 = mp_game.goals[1].initial
    for letter in alphabet.letters():
        assert not dev.v1_in_win0(q0, letter)
    assert not dev.v0_in_win0(q0)


def test_deviation_game_ev_coalition_holds(alphabet, ev_game):
    # channel 0 stays on a, so "contains (b,c)" is unreachable for agent 1
    dev = build_deviation_game(ev_game, 1, ev_game.goals[1])
    q0 = ev_game.goals[1].initial
    assert dev.v1_in_win0(q0, alphabet.letter(("a", "c")))
    assert dev.v1_in_win0(q0, alphabet.letter(("a", "d")))
    assert not dev.v1_in_win0(q0, alphabet.letter(("b", "c")))


def test_deviation_game_bounded_channel_vertex_classes(ev_game):
    # a goal masked to channel 1 only keys its agent-1 vertices on channel 1
    alphabet = ev_game.alphabet
    mask = ChannelMask.of((1,))
    delta = {(0, (0,)): 1, (0, (1,)): 0, (1, (0,)): 1, (1, (1,)): 1}
    goal = Dfa(alphabet, mask, ("q0", "hit"), 0, frozenset({1}), delta)
    dev = build_deviation_game(ev_game, 1, goal)
    # keys = mask plus the deviator's channel = just channel 1 here
    assert dev.keys.agents == (1,)
    assert dev.arena.n == 2 + 1 * 2  # one non-accepting state, two key letters


# ---------------------------------------------------------------------------
# goal normal form


def product_for(game, winners, goal_dfas=None):
    """The product and deviation games `realizable` builds."""
    if goal_dfas is None:
        goal_dfas = tuple(goal_as_dfa(g) for g in game.goals)
    devs = {
        j: build_deviation_game(game, j, goal_dfas[j])
        for j in game.agents
        if j not in winners
    }
    return _build_product(goal_dfas, winners, game.alphabet, devs), devs


def test_goal_as_dfa_accepting_sink():
    rng = random.Random(113)
    checked = 0
    for _ in range(120):
        alphabet = corpus.random_alphabet(rng)
        goal = corpus.random_goal(rng, alphabet)
        plain = {Dfa: lambda g: g, Nfa: determinize, Afa: lambda g: determinize(afa_to_nfa(g))}[type(goal)](goal)
        dfa = goal_as_dfa(goal)
        assert dfa.n_states == plain.n_states
        assert dfa.names == plain.names
        assert dfa.initial == plain.initial
        assert dfa.accepting == plain.accepting
        if dfa.accepting:
            sink = dfa.initial if dfa.initial in dfa.accepting else min(dfa.accepting)
            for (q, rl), target in dfa.delta.items():
                if q in dfa.accepting or plain.delta[q, rl] in dfa.accepting:
                    assert target == sink
                else:
                    assert target == plain.delta[q, rl]
            checked += 1
        else:
            assert dfa.delta == plain.delta
        for _ in range(8):
            lasso = corpus.random_lasso(rng, alphabet)
            assert accepts_prefix(dfa, lasso) == accepts_prefix(goal, lasso)
    assert checked > 40


# ---------------------------------------------------------------------------
# product automaton


def test_product_all_goals_immediately_satisfied(alphabet, ev_game):
    always = []
    for goal in ev_game.goals:
        always.append(
            Dfa(goal.alphabet, goal.mask, goal.names, goal.initial, frozenset({0, 1}), goal.delta)
        )
    game = Ibg(alphabet, tuple(always))
    ab, _ = product_for(game, frozenset({0, 1}))
    assert ab.initial in ab.accepting  # satisfied at construction
    assert ab.n_states == 1
    assert buchi_nonempty(ab) is not None


def test_product_empty_goals_empty_winners(alphabet, ev_game):
    hollow = tuple(
        Dfa(g.alphabet, g.mask, g.names, g.initial, frozenset(), g.delta) for g in ev_game.goals
    )
    game = Ibg(alphabet, hollow)
    ab, _ = product_for(game, frozenset())
    assert ab.accepting == frozenset(range(ab.n_states))
    assert buchi_nonempty(ab) is not None


def test_product_mp_empty_winners_is_empty(mp_game):
    ab, _ = product_for(mp_game, frozenset())
    # every first letter satisfies one of the two goals, so each loser can
    # escape at once and no transition survives
    assert not ab.trans
    assert buchi_nonempty(ab) is None


def test_accepting_set_closed_under_transitions():
    rng = random.Random(83)
    for _ in range(60):
        game = corpus.random_game(rng, kinds="dfa")
        goal_dfas = tuple(goal_as_dfa(g) for g in game.goals)
        for d in goal_dfas:
            for (q, _), target in d.delta.items():
                if q in d.accepting:
                    assert target in d.accepting
        for winners in all_winner_sets(game):
            ab, _ = product_for(game, winners, goal_dfas)
            for (src, _), dst in ab.trans.items():
                if src in ab.accepting:
                    assert dst in ab.accepting


def test_refine_mp_kills_initial_transitions(mp_game):
    for winners in [frozenset(), frozenset({0}), frozenset({1})]:
        ab, _ = product_for(mp_game, winners)
        assert buchi_nonempty(ab) is None


def test_refine_ev_keeps_safe_letters(alphabet, ev_game):
    winners = frozenset({0})
    ab, _ = product_for(ev_game, winners)
    surviving = {letter for (src, letter) in ab.trans if src == ab.initial}
    assert surviving == {alphabet.letter(("a", "c")), alphabet.letter(("a", "d"))}
    lasso = buchi_nonempty(ab)
    assert lasso is not None
    assert accepts_prefix(ab.goal_dfas[0], lasso)
    assert winning_set(lasso, ev_game) == winners


def reference_product(goal_dfas, winners, alphabet, deviation_games):
    """The product as the definition reads, one letter at a time, with the
    set of winners still pending next to the goal states: states,
    transitions in insertion order, and accepting states."""
    losers = [j for j in range(len(goal_dfas)) if j not in winners]
    if any(goal_dfas[j].initial in goal_dfas[j].accepting for j in losers):
        return [], [], frozenset()
    if not all(deviation_games[j].v0_in_win0(goal_dfas[j].initial) for j in losers):
        return [], [], frozenset()
    pending = frozenset(i for i in winners if goal_dfas[i].initial not in goal_dfas[i].accepting)
    states = [(tuple(d.initial for d in goal_dfas), pending)]
    trans = []
    for v, (qs, pending) in enumerate(states):
        for letter in alphabet.letters():
            nxt = tuple(d.delta[q, project(letter, d.mask)] for d, q in zip(goal_dfas, qs))
            if any(nxt[j] in goal_dfas[j].accepting for j in losers):
                continue
            if not all(deviation_games[j].v1_in_win0(qs[j], letter) for j in losers):
                continue
            state = (nxt, frozenset(i for i in pending if nxt[i] not in goal_dfas[i].accepting))
            if state not in states:
                states.append(state)
            trans.append(((v, letter), states.index(state)))
    accepting = frozenset(v for v, (_, pending) in enumerate(states) if not pending)
    return states, trans, accepting


def reference_lasso(n, trans, accepting, alphabet):
    """First accepting state on a cycle in BFS order, reached by the BFS
    stem and closed by the shortest cycle, lowest letter first."""
    if n == 0:
        return None
    edges = dict(trans)

    def step(v):
        return [(letter, edges[v, letter]) for letter in alphabet.letters() if (v, letter) in edges]

    def on_cycle(v):
        stack, seen = [w for _, w in step(v)], set()
        while stack:
            w = stack.pop()
            if w == v:
                return True
            if w not in seen:
                seen.add(w)
                stack.extend(x for _, x in step(w))
        return False

    parent = {0: None}
    order = [0]
    for v in order:
        for letter, w in step(v):
            if w not in parent:
                parent[w] = (v, letter)
                order.append(w)
    target = next((v for v in order if v in accepting and on_cycle(v)), None)
    if target is None:
        return None
    stem, v = [], target
    while parent[v] is not None:
        v, letter = parent[v]
        stem.append(letter)
    back = {}
    queue = [target]
    for v in queue:
        hit = next((letter for letter, w in step(v) if w == target), None)
        if hit is not None:
            back[target] = (v, hit)
            break
        for letter, w in step(v):
            if w not in back:
                back[w] = (v, letter)
                queue.append(w)
    loop, v = [], target
    while True:
        v, letter = back[v]
        loop.append(letter)
        if v == target:
            break
    return Lasso(tuple(reversed(stem)), tuple(reversed(loop)))


def test_product_matches_letter_at_a_time_reference():
    rng = random.Random(109)
    games = [corpus.ev_game(), corpus.mp_game()]
    games += [corpus.random_game(rng) for _ in range(50)]
    games += [corpus.random_game(rng, max_k=4, kinds="dfa") for _ in range(10)]
    for game in games:
        goal_dfas = tuple(goal_as_dfa(g) for g in game.goals)
        for winners in all_winner_sets(game):
            ab, devs = product_for(game, winners, goal_dfas)
            states, trans, accepting = reference_product(goal_dfas, winners, game.alphabet, devs)
            assert ab.states == [qs for qs, _ in states]
            assert list(ab.trans.items()) == trans
            assert ab.accepting == accepting
            expected = reference_lasso(len(states), trans, accepting, game.alphabet)
            assert buchi_nonempty(ab) == expected


def test_deviation_region_holds_no_accepting_goal_state():
    # _build_product prunes a loser's letters by its deviation region alone;
    # this is why that also keeps the loser's goal from accepting.
    rng = random.Random(113)
    games = [corpus.ev_game(), corpus.mp_game()]
    games += [corpus.random_game(rng) for _ in range(50)]
    games += [corpus.random_game(rng, max_k=4, kinds="dfa") for _ in range(10)]
    accepting_initial = winning_v1 = 0
    for game in games:
        for j, goal in enumerate(game.goals):
            d = goal_as_dfa(goal)
            dev = build_deviation_game(game, j, d)
            if d.initial in d.accepting:
                accepting_initial += 1
                assert not dev.v0_in_win0(d.initial)
            for q in range(d.n_states):
                if q in d.accepting:
                    continue
                for letter in game.alphabet.letters():
                    if dev.v1_in_win0(q, letter):
                        winning_v1 += 1
                        assert d.delta[q, project(letter, d.mask)] not in d.accepting
    assert accepting_initial and winning_v1


# ---------------------------------------------------------------------------
# nonemptiness


def test_nonempty_no_transitions(mp_game):
    ab, _ = product_for(mp_game, frozenset())
    assert buchi_nonempty(ab) is None


def test_nonempty_accepting_self_loop(alphabet, ev_game):
    hollow = tuple(
        Dfa(g.alphabet, g.mask, g.names, g.initial, frozenset(), g.delta) for g in ev_game.goals
    )
    game = Ibg(alphabet, hollow)
    ab, _ = product_for(game, frozenset())
    lasso = buchi_nonempty(ab)
    assert lasso is not None
    assert lasso.prefix == ()
    assert len(lasso.period) == 1
    # lowest-index letter that closes a self-loop on the initial state:
    # (a,c) moves the first tracker off its start state, so (a,d) is first
    assert lasso.period[0] == alphabet.letter(("a", "d"))


def test_nonempty_lasso_satisfies_winning_set(ev_game):
    verdict = realizable(ev_game, frozenset({0}))
    assert verdict.lasso is not None
    assert winning_set(verdict.lasso, ev_game) == {0}


# ---------------------------------------------------------------------------
# the full decision procedure


def test_mp_game_fully_unrealizable(mp_game):
    for winners in all_winner_sets(mp_game):
        assert not realizable(mp_game, winners).realizable


def test_ev_game_table(ev_game):
    expected = {
        frozenset(): True,
        frozenset({0}): True,
        frozenset({1}): False,
        frozenset({0, 1}): True,
    }
    for winners, answer in expected.items():
        assert realizable(ev_game, winners).realizable == answer


def test_trivially_realizable_full_winners(alphabet, ev_game):
    always = tuple(
        Dfa(g.alphabet, g.mask, g.names, g.initial, frozenset(range(g.n_states)), g.delta)
        for g in ev_game.goals
    )
    game = Ibg(alphabet, always)
    assert realizable(game, frozenset({0, 1})).realizable


def test_realizable_rejects_unknown_agent(ev_game):
    with pytest.raises(ValueError):
        realizable(ev_game, frozenset({7}))


def test_epsilon_accepting_loser_is_unrealizable(alphabet, ev_game):
    goal = ev_game.goals[1]
    eager = Dfa(goal.alphabet, goal.mask, goal.names, goal.initial,
                goal.accepting | {goal.initial}, goal.delta)
    game = Ibg(alphabet, (ev_game.goals[0], eager))
    verdict = realizable(game, frozenset({0}))
    assert not verdict.realizable
    assert verdict.stats.product_states == 0


# ---------------------------------------------------------------------------
# witnesses


def test_witness_replays_lasso_on_conforming_history(alphabet, ev_game):
    verdict = realizable(ev_game, frozenset({0}))
    witness = verdict.witness
    assert witness is not None
    states = [m.initial for m in witness.machines]
    for t in range(8):
        letter = tuple(m.output[s] for m, s in zip(witness.machines, states))
        assert letter == verdict.lasso.at(t)
        states = [m.step(s, letter) for m, s in zip(witness.machines, states)]


def test_witness_ev_keeps_channel0_on_a_after_deviation(alphabet, ev_game):
    verdict = realizable(ev_game, frozenset({0}))
    witness = verdict.witness
    machine0 = witness.machines[0]
    state = machine0.initial
    # agent 1 deviates to d at step 0; the coalition keeps playing a forever
    deviant = (verdict.lasso.at(0)[0], 1 - verdict.lasso.at(0)[1])
    state = machine0.step(state, deviant)
    for _ in range(5):
        assert alphabet.channels[0][machine0.output[state]] == "a"
        state = machine0.step(state, alphabet.letter(("a", "d")))


def test_witness_full_winners_is_plain_replayer(ev_game):
    verdict = realizable(ev_game, frozenset({0, 1}))
    witness = verdict.witness
    # no losing agents, so every state is replay or default
    for m in witness.machines:
        assert all(name.startswith(("replay", "default")) for name in m.names)


def test_every_witness_passes_both_verifiers():
    rng = random.Random(97)
    count = 0
    for _ in range(25):
        game = corpus.random_game(rng, kinds="dfa")
        for winners in all_winner_sets(game):
            verdict = realizable(game, winners)
            if not verdict.realizable:
                continue
            count += 1
            assert verify(game, winners, verdict.witness).is_equilibrium
            assert oracle_verify(game, winners, verdict.witness)
    assert count > 10


def test_witness_matches_full_mask_reference(ev_game, mp_game):
    # Every machine reads only the losers' channels, and on every letter a
    # lone loser's deviation (or conformance) can produce it reacts as the
    # full-mask reference does: same target state, same outputs.
    rng = random.Random(109)
    games = [ev_game, mp_game]
    for _ in range(40):
        game = corpus.random_game(rng, kinds="dfa")
        games.append(game)
        games.append(Ibg(game.alphabet, tuple(as_nfa(g) for g in game.goals)))
        games.append(Ibg(game.alphabet, tuple(as_afa(g) for g in game.goals)))
    for _ in range(40):
        games.append(corpus.random_game(rng))
    witnesses = escapes = letters_checked = 0
    for game in games:
        for winners in all_winner_sets(game):
            verdict = realizable(game, winners)
            if not verdict.realizable:
                continue
            witnesses += 1
            got = verdict.witness
            want = corpus.reference_witness(game, winners)
            mask = ChannelMask.of(j for j in game.agents if j not in winners)
            expected_of = [tuple(m.output[s] for m in got.machines) for s in range(got.machines[0].n_states)]
            for m, ref in zip(got.machines, want.machines):
                assert m.mask == mask
                ref_index = {name: s for s, name in enumerate(ref.names)}
                for s, name in enumerate(m.names):
                    r = ref_index[name]
                    assert m.output[s] == ref.output[r]
                    escapes += name.startswith("escape")
                    for letter in game.alphabet.letters():
                        if any(letter[w] != expected_of[s][w] for w in winners):
                            continue
                        target, ref_target = m.step(s, letter), ref.step(r, letter)
                        assert m.names[target] == ref.names[ref_target]
                        assert m.output[target] == ref.output[ref_target]
                        letters_checked += 1
            assert verify(game, winners, got).is_equilibrium
            assert oracle_verify(game, winners, got)
    assert witnesses > 100 and escapes > 0 and letters_checked > 1000


def test_witness_lasso_recheck_guards_against_bad_input(ev_game):
    refined, devs = product_for(ev_game, frozenset({0}))
    bogus = Lasso((), (ev_game.alphabet.letter(("b", "c")),))
    with pytest.raises(RuntimeError):
        extract_witness(ev_game, frozenset({0}), bogus, refined, devs)


# ---------------------------------------------------------------------------
# cross-representation and oracle coupling


def test_pipeline_equivalence_across_goal_kinds():
    rng = random.Random(103)
    for _ in range(30):
        game = corpus.random_game(rng, kinds="dfa")
        nfa_game = Ibg(game.alphabet, tuple(as_nfa(g) for g in game.goals))
        afa_game = Ibg(game.alphabet, tuple(as_afa(g) for g in game.goals))
        for winners in all_winner_sets(game):
            a = realizable(game, winners).realizable
            b = realizable(nfa_game, winners).realizable
            c = realizable(afa_game, winners).realizable
            assert a == b == c


def test_one_sided_oracle_coupling():
    rng = random.Random(107)
    for _ in range(15):
        game = corpus.random_game(rng, max_k=2, kinds="dfa")
        for winners in all_winner_sets(game):
            result = oracle_realizable_onesided(game, winners, OracleConfig(memory=1))
            if result.status == "found-witness":
                assert realizable(game, winners).realizable


def test_stats_report_construction_sizes(ev_game):
    verdict = realizable(ev_game, frozenset({0}))
    assert verdict.stats.goal_dfa_states == (2, 2)
    assert set(verdict.stats.deviation_arena_sizes) == {1}
    assert verdict.stats.product_states > 0


def test_single_agent_game(alphabet):
    nfa = corpus.nth_from_end_nfa(corpus.ProductAlphabet((("0", "1"),)), 3)
    game = Ibg(nfa.alphabet, (nfa,))
    assert realizable(game, frozenset({0})).realizable
    verdict = realizable(game, frozenset())
    assert not verdict.realizable  # agent 0 can always deviate to win alone
