import random

import pytest

from ibgsolve import (
    ChannelMask,
    GlobalMoore,
    Ibg,
    Lasso,
    MooreMachine,
    StrategyProfile,
    primary_trace,
    product_profile,
    winning_set,
)

import corpus


def toggle_machine(alphabet, owner):
    # outputs symbol 0, symbol 1, symbol 0, ... regardless of input
    mask = ChannelMask.of(())
    return MooreMachine(
        owner, alphabet, mask, ("even", "odd"), 0, (0, 1), {(0, ()): 1, (1, ()): 0}
    )


def echo_machine(alphabet, owner, watched):
    # copies the watched agent's previous pick onto its own channel
    mask = ChannelMask.of((watched,))
    n = len(alphabet.channels[watched])
    assert n == len(alphabet.channels[owner])
    names = tuple(f"saw{i}" for i in range(n))
    trans = {(s, (t,)): t for s in range(n) for t in range(n)}
    return MooreMachine(owner, alphabet, mask, names, 0, tuple(range(n)), trans)


def test_product_of_constant_machines(alphabet, ev_game):
    profile = corpus.constant_profile(ev_game, ("a", "c"))
    g = product_profile(profile)
    assert g.n_states == 1
    assert g.gamma[0] == alphabet.letter(("a", "c"))


def test_product_size_bound(alphabet, ev_game):
    rng = random.Random(13)
    for _ in range(30):
        m0 = corpus.random_machine(rng, ev_game, 0, max_states=2)
        m1 = corpus.random_machine(rng, ev_game, 1, max_states=3)
        g = product_profile(StrategyProfile((m0, m1)))
        assert g.n_states <= m0.n_states * m1.n_states


def test_product_echo_machine(alphabet, ev_game):
    profile = StrategyProfile(
        (corpus.constant_profile(ev_game, ("a", "c")).machines[0], echo_machine(alphabet, 1, 0))
    )
    g = product_profile(profile)
    assert g.n_states == 2
    outputs = {g.gamma[s] for s in range(2)}
    assert outputs == {alphabet.letter(("a", "c")), alphabet.letter(("a", "d"))}
    # the echo output tracks the observed channel-0 pick
    for s in range(2):
        for letter in alphabet.letters():
            target = g.trans[s, letter]
            assert g.gamma[target][1] == letter[0]


def letter_at_a_time_product(profile):
    # Reference: steps every machine on every letter of every joint state.
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
    return GlobalMoore(alphabet, tuple(components), 0, tuple(gamma), trans)


def test_product_profile_matches_letter_at_a_time_reference(ev_game, mp_game):
    rng = random.Random(59)
    profiles = []
    for _ in range(320):
        game = corpus.random_game(rng, max_k=rng.choice((2, 3, 4)))
        profiles.append(corpus.random_profile(rng, game, max_states=rng.choice((2, 3, 4))))
    for game in (ev_game, mp_game):
        for picks in (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")):
            profiles.append(corpus.constant_profile(game, picks))
    witness = corpus.reference_witness(ev_game, {0, 1})
    assert witness is not None
    assert all(m.mask == ChannelMask.full(2) and m.n_states > 1 for m in witness.machines)
    profiles.append(witness)
    for profile in profiles:
        got = product_profile(profile)
        want = letter_at_a_time_product(profile)
        assert got.alphabet == want.alphabet
        assert got.initial == want.initial
        assert got.components == want.components
        assert got.gamma == want.gamma
        assert list(got.trans.items()) == list(want.trans.items())


def test_primary_trace_constant(alphabet, ev_game):
    g = product_profile(corpus.constant_profile(ev_game, ("a", "c")))
    trace = primary_trace(g)
    assert trace.prefix == ()
    assert trace.period == (alphabet.letter(("a", "c")),)


def test_primary_trace_toggler(alphabet, ev_game):
    const_c = corpus.constant_profile(ev_game, ("a", "c")).machines[1]
    profile = StrategyProfile((toggle_machine(alphabet, 0), const_c))
    trace = primary_trace(product_profile(profile))
    assert trace.prefix == ()
    assert trace.period == (alphabet.letter(("a", "c")), alphabet.letter(("b", "c")))


def test_primary_trace_pigeonhole_bound():
    rng = random.Random(29)
    for _ in range(60):
        game = corpus.random_game(rng)
        g = product_profile(corpus.random_profile(rng, game))
        trace = primary_trace(g)
        assert trace.span <= g.n_states


def test_primary_trace_matches_step_by_step_simulation():
    rng = random.Random(37)
    for _ in range(60):
        game = corpus.random_game(rng)
        profile = corpus.random_profile(rng, game)
        trace = primary_trace(product_profile(profile))
        states = [m.initial for m in profile.machines]
        for t in range(3 * trace.span):
            letter = tuple(m.output[s] for m, s in zip(profile.machines, states))
            assert letter == trace.at(t)
            states = [m.step(s, letter) for m, s in zip(profile.machines, states)]


def test_winning_set_ev(alphabet, ev_game):
    ac = alphabet.letter(("a", "c"))
    bc = alphabet.letter(("b", "c"))
    assert winning_set(Lasso((), (ac,)), ev_game) == {0}
    assert winning_set(Lasso((ac,), (bc,)), ev_game) == {0, 1}


def test_winning_set_empty_goals(alphabet, ev_game):
    from ibgsolve import Dfa

    hollow = []
    for goal in ev_game.goals:
        hollow.append(Dfa(goal.alphabet, goal.mask, goal.names, goal.initial, frozenset(), goal.delta))
    game = Ibg(alphabet, tuple(hollow))
    rng = random.Random(41)
    assert winning_set(corpus.random_lasso(rng, alphabet), game) == frozenset()


def test_winning_set_invariant_under_unrolling():
    rng = random.Random(43)
    for _ in range(40):
        game = corpus.random_game(rng)
        lasso = corpus.random_lasso(rng, game.alphabet)
        assert winning_set(lasso, game) == winning_set(lasso.unrolled(), game)


def test_bounded_channel_machine_ignores_masked_out_channels():
    rng = random.Random(47)
    for _ in range(40):
        game = corpus.random_game(rng)
        machine = corpus.random_machine(rng, game, rng.randrange(game.k))
        for s in range(machine.n_states):
            for l1 in game.alphabet.letters():
                for l2 in game.alphabet.letters():
                    if all(l1[c] == l2[c] for c in machine.mask.agents):
                        assert machine.step(s, l1) == machine.step(s, l2)


def test_profile_owner_order_enforced(alphabet, ev_game):
    machines = corpus.constant_profile(ev_game, ("a", "c")).machines
    with pytest.raises(ValueError):
        StrategyProfile((machines[1], machines[0]))


def test_game_requires_matching_alphabet(ev_game):
    other = corpus.random_alphabet(random.Random(53), max_k=2)
    with pytest.raises(ValueError):
        Ibg(other, ev_game.goals)
