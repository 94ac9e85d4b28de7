import json
import random

import pytest

from ibgsolve import (
    Afa,
    ChannelMask,
    Dfa,
    Ibg,
    MooreMachine,
    Nfa,
    StrategyProfile,
    afa_accepts,
    as_afa,
    as_nfa,
    dfa_accepts,
    nfa_accepts,
    verify,
)
from ibgsolve.formats import (
    FormatError,
    dump_json,
    load_automaton_file,
    load_game,
    load_profile,
    save_automaton_file,
    save_game,
    save_profile,
)

import corpus


def test_game_round_trip(ev_game):
    data = save_game(ev_game)
    loaded, names = load_game(json.loads(dump_json(data)))
    assert loaded.alphabet == ev_game.alphabet
    assert loaded.goals == ev_game.goals
    assert names == ["p0", "p1"]


def test_game_round_trip_random_goals():
    rng = random.Random(307)
    for _ in range(30):
        game = corpus.random_game(rng)
        loaded, _ = load_game(save_game(game))
        assert loaded.goals == game.goals


def test_profile_round_trip(ev_game):
    rng = random.Random(311)
    for _ in range(20):
        profile = corpus.random_profile(rng, ev_game)
        loaded = load_profile(save_profile(profile), ev_game.alphabet)
        assert loaded == profile


def test_automaton_file_round_trip():
    rng = random.Random(313)
    for _ in range(20):
        alpha = corpus.random_alphabet(rng)
        goal = corpus.random_goal(rng, alpha)
        alpha2, loaded = load_automaton_file(save_automaton_file(goal))
        assert alpha2 == alpha
        assert loaded == goal


def test_shipped_games_load(games_dir, ev_game, mp_game):
    with open(games_dir / "ev.json") as fh:
        loaded_ev, _ = load_game(json.load(fh))
    with open(games_dir / "mp.json") as fh:
        loaded_mp, _ = load_game(json.load(fh))
    assert loaded_ev.goals == ev_game.goals
    assert loaded_mp.goals == mp_game.goals


def test_shipped_profile_is_equilibrium(games_dir, ev_game):
    with open(games_dir / "ev_profile_ac.json") as fh:
        profile = load_profile(json.load(fh), ev_game.alphabet)
    assert verify(ev_game, frozenset({0}), profile).is_equilibrium


def test_unknown_top_level_field_rejected(ev_game):
    data = save_game(ev_game)
    data["extra"] = 1
    with pytest.raises(FormatError, match="extra"):
        load_game(data)


def test_unknown_goal_field_rejected(ev_game):
    data = save_game(ev_game)
    data["agents"][0]["goal"]["bonus"] = []
    with pytest.raises(FormatError, match="bonus"):
        load_game(data)


def test_missing_field_named(ev_game):
    data = save_game(ev_game)
    del data["agents"][1]["goal"]["initial"]
    with pytest.raises(FormatError, match="initial"):
        load_game(data)


def test_unknown_state_rejected(ev_game):
    data = save_game(ev_game)
    data["agents"][0]["goal"]["initial"] = "nonexistent"
    with pytest.raises(FormatError, match="nonexistent"):
        load_game(data)


def test_unknown_symbol_rejected(ev_game):
    data = save_game(ev_game)
    data["agents"][0]["goal"]["transitions"][0]["letter"] = ["z", "c"]
    with pytest.raises(FormatError, match="'z'"):
        load_game(data)


def test_partial_dfa_rejected(ev_game):
    data = save_game(ev_game)
    del data["agents"][0]["goal"]["transitions"][0]
    with pytest.raises(FormatError, match="total"):
        load_game(data)


def test_bad_version_rejected(ev_game):
    data = save_game(ev_game)
    data["version"] = "other"
    with pytest.raises(FormatError, match="version"):
        load_game(data)


def test_ltlf_goal_in_game_file(alphabet):
    data = {
        "version": "ibg-game-1",
        "agents": [
            {"name": "p0", "alphabet": ["a", "b"],
             "goal": {"kind": "ltlf", "formula": "F(p0=a & p1=c)"}},
            {"name": "p1", "alphabet": ["c", "d"],
             "goal": {"kind": "ltlf", "formula": "G(p1=d)"}},
        ],
    }
    game, _ = load_game(data)
    assert isinstance(game.goals[0], Afa)
    assert isinstance(game.goals[1], Afa)


def test_ltlf_goal_syntax_error_names_field(alphabet):
    data = {
        "version": "ibg-game-1",
        "agents": [
            {"name": "p0", "alphabet": ["a", "b"],
             "goal": {"kind": "ltlf", "formula": "G("}},
        ],
    }
    with pytest.raises(FormatError, match="formula"):
        load_game(data)


def test_profile_wrong_machine_count(ev_game):
    profile = corpus.constant_profile(ev_game, ("a", "c"))
    data = save_profile(profile)
    data["machines"].pop()
    with pytest.raises(FormatError, match="machines"):
        load_profile(data, ev_game.alphabet)


def two_state_profile(game):
    # Full-mask machines with two states, so transitions[0] and [1] leave
    # the same state on different letters.
    full = ChannelMask.full(game.k)
    trans = {(s, letter): 1 - s for s in range(2) for letter in game.alphabet.letters()}
    return StrategyProfile(tuple(
        MooreMachine(i, game.alphabet, full, ("s", "t"), 0, (0, 1), trans) for i in game.agents
    ))


def transition_error_cases(target):
    # (edit of transitions[1], message suffix after "<path>.transitions[1]").
    bad_target = (
        ("to", "nowhere", ".to: unknown state 'nowhere'")
        if target == "to"
        else ("formula", {"op": "atom", "state": "nowhere"}, ".formula.state: unknown state 'nowhere'")
    )
    return [
        (lambda ts: ts[1].update(extra=1), ": unknown field 'extra'"),
        (lambda ts: ts[1].pop(target), f": missing field {target!r}"),
        (lambda ts: (ts[1].update(extra=1), ts[1].pop("from")), ": unknown field 'extra'"),
        (lambda ts: ts.__setitem__(1, ["from"]), ": expected an object"),
        (lambda ts: ts[1].update({"from": "nowhere"}), ".from: unknown state 'nowhere'"),
        (lambda ts: ts[1].update({"from": 5}), ".from: expected a string"),
        (lambda ts: ts[1].update({"from": "nowhere", "letter": ["z"]}), ".from: unknown state 'nowhere'"),
        (lambda ts: ts[1].update({bad_target[0]: bad_target[1]}), bad_target[2]),
        (lambda ts: ts[1].update(letter=["a", "z"]), ".letter: unknown symbol 'z' on channel 1"),
        (lambda ts: ts[1].update(letter=["a"]), ".letter: expected 2 symbols, got 1"),
        (lambda ts: ts[1].update(letter="ac"), ".letter: expected a list of strings"),
        (lambda ts: ts[1].update(letter=["a", 3]), ".letter: expected a list of strings"),
    ]


def duplicate_cases(target):
    bad_target = "nowhere" if target == "to" else {"op": "nope"}
    return [
        (lambda ts: ts.__setitem__(1, dict(ts[0])), ": duplicate transition source"),
        (lambda ts: ts.__setitem__(1, dict(ts[0], **{target: bad_target})), ": duplicate transition source"),
    ]


def test_transition_errors_exact_messages(ev_game):
    profile = save_profile(two_state_profile(ev_game))
    games = {
        "dfa": ev_game,
        "nfa": Ibg(ev_game.alphabet, tuple(as_nfa(g) for g in ev_game.goals)),
        "afa": Ibg(ev_game.alphabet, tuple(as_afa(g) for g in ev_game.goals)),
    }
    subjects = [("profile", "machines[0].transitions[1]", "to", True)]
    subjects += [(kind, "agents[0].goal.transitions[1]", "formula" if kind == "afa" else "to", kind != "nfa")
                 for kind in games]
    checked = 0
    for kind, path, target, unique in subjects:
        cases = transition_error_cases(target) + (duplicate_cases(target) if unique else [])
        for edit, suffix in cases:
            if kind == "profile":
                data = json.loads(dump_json(profile))
                edit(data["machines"][0]["transitions"])
                load = lambda: load_profile(data, ev_game.alphabet)  # noqa: E731
            else:
                data = json.loads(dump_json(save_game(games[kind])))
                edit(data["agents"][0]["goal"]["transitions"])
                load = lambda: load_game(data)  # noqa: E731
            with pytest.raises(FormatError) as excinfo:
                load()
            assert str(excinfo.value) == path + suffix, (kind, suffix)
            checked += 1
    assert checked == 4 * 12 + 3 * 2


def test_channel_masks_read_as_written(ev_game):
    # A letter lists its symbols in mask order, so a mask must hold distinct
    # channels in ascending order; anything else is rejected, not reordered.
    cases = [
        ([True], "expected a list of agent indices"),
        ([0, 0], "expected distinct channels in ascending order"),
        ([1, 0], "expected distinct channels in ascending order"),
    ]
    for mask, message in cases:
        game = json.loads(dump_json(save_game(ev_game)))
        game["agents"][0]["goal"]["channels"] = mask
        with pytest.raises(FormatError) as excinfo:
            load_game(game)
        assert str(excinfo.value) == f"agents[0].goal.channels: {message}"
        profile = json.loads(dump_json(save_profile(two_state_profile(ev_game))))
        profile["machines"][1]["channels"] = mask
        with pytest.raises(FormatError) as excinfo:
            load_profile(profile, ev_game.alphabet)
        assert str(excinfo.value) == f"machines[1].channels: {message}"


def test_saved_goals_evaluate_identically():
    rng = random.Random(331)
    for _ in range(20):
        alpha = corpus.random_alphabet(rng)
        goal = corpus.random_goal(rng, alpha)
        _, loaded = load_automaton_file(save_automaton_file(goal))
        for _ in range(10):
            w = corpus.random_word(rng, alpha)
            if isinstance(goal, Dfa):
                assert dfa_accepts(goal, w) == dfa_accepts(loaded, w)
            elif isinstance(goal, Nfa):
                assert nfa_accepts(goal, w) == nfa_accepts(loaded, w)
            else:
                assert afa_accepts(goal, w) == afa_accepts(loaded, w)
