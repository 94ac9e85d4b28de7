import random

import pytest

from ibgsolve import (
    Ibg,
    Lasso,
    StrategyProfile,
    winning_set,
)
from ibgsolve.oracle import _simulated_primary_lasso

import corpus


# The product of a profile's machines is built only on the test side, as the
# reference of verification's searches; these pin it on hand-checked cases.


def test_product_of_constant_machines(alphabet, ev_game):
    g = corpus.letter_at_a_time_product(corpus.constant_profile(ev_game, ("a", "c")))
    assert len(g.gamma) == 1
    assert g.gamma[0] == alphabet.letter(("a", "c"))


def test_product_size_bound(alphabet, ev_game):
    rng = random.Random(13)
    for _ in range(30):
        m0 = corpus.random_machine(rng, ev_game, 0, max_states=2)
        m1 = corpus.random_machine(rng, ev_game, 1, max_states=3)
        g = corpus.letter_at_a_time_product(StrategyProfile((m0, m1)))
        assert len(g.gamma) <= m0.n_states * m1.n_states


def test_product_echo_machine(alphabet, ev_game):
    profile = StrategyProfile(
        (corpus.constant_profile(ev_game, ("a", "c")).machines[0], corpus.echo_machine(alphabet, 1, 0))
    )
    g = corpus.letter_at_a_time_product(profile)
    assert len(g.gamma) == 2
    assert set(g.gamma) == {alphabet.letter(("a", "c")), alphabet.letter(("a", "d"))}
    # the echo output tracks the observed channel-0 pick
    for s in range(2):
        for letter in alphabet.letters():
            assert g.gamma[g.trans[s, letter]][1] == letter[0]


# The primary trace, as the oracle simulates it machine by machine.


def test_primary_trace_constant(alphabet, ev_game):
    trace = _simulated_primary_lasso(corpus.constant_profile(ev_game, ("a", "c")), budget=10)
    assert trace.prefix == ()
    assert trace.period == (alphabet.letter(("a", "c")),)


def test_primary_trace_toggler(alphabet, ev_game):
    const_c = corpus.constant_profile(ev_game, ("a", "c")).machines[1]
    profile = StrategyProfile((corpus.toggle_machine(alphabet, 0), const_c))
    trace = _simulated_primary_lasso(profile, budget=10)
    assert trace.prefix == ()
    assert trace.period == (alphabet.letter(("a", "c")), alphabet.letter(("b", "c")))


def test_primary_trace_pigeonhole_bound():
    rng = random.Random(29)
    for _ in range(60):
        game = corpus.random_game(rng)
        profile = corpus.random_profile(rng, game)
        trace = _simulated_primary_lasso(profile, budget=10_000)
        assert trace.span <= len(corpus.letter_at_a_time_product(profile).gamma)


def test_primary_trace_matches_step_by_step_simulation():
    rng = random.Random(37)
    for _ in range(60):
        game = corpus.random_game(rng)
        profile = corpus.random_profile(rng, game)
        trace = _simulated_primary_lasso(profile, budget=10_000)
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
