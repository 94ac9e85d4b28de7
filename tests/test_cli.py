import json
import re

from ibgsolve import cli, verify
from ibgsolve.cli import main
from ibgsolve.formats import load_automaton_file, load_profile

import corpus


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_of(out):
    body = out[out.index("{"):]
    return json.loads(body)


def strip_wall_time(out):
    return re.sub(r'"wall_time_s": [0-9.e-]+', '"wall_time_s": X', out)


def test_realizable_mp_empty_winners(capsys, games_dir):
    code, out, _ = run_cli(capsys, "realizable", str(games_dir / "mp.json"), "--winners", "")
    assert code == 1
    assert out.startswith("UNREALIZABLE")
    assert record_of(out)["verdict"] == "UNREALIZABLE"


def test_realizable_ev_writes_verifying_witness(capsys, games_dir, tmp_path, ev_game):
    witness_path = tmp_path / "witness.json"
    code, out, _ = run_cli(
        capsys, "realizable", str(games_dir / "ev.json"),
        "--winners", "0", "--witness", str(witness_path),
    )
    assert code == 0
    assert out.startswith("REALIZABLE")
    with open(witness_path) as fh:
        profile = load_profile(json.load(fh), ev_game.alphabet)
    assert verify(ev_game, frozenset({0}), profile).is_equilibrium


def test_realizable_bad_winner_exits_2(capsys, games_dir):
    code, _, err = run_cli(capsys, "realizable", str(games_dir / "ev.json"), "--winners", "7")
    assert code == 2
    assert "7" in err


def test_realizable_malformed_game_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": "ibg-game-1", "agents": [], "junk": 1}')
    code, _, err = run_cli(capsys, "realizable", str(bad), "--winners", "")
    assert code == 2
    assert "junk" in err


def test_realizable_internal_error_exits_3(capsys, games_dir, monkeypatch):
    # A crash must not exit 1, which would read as UNREALIZABLE.
    def crash(game, winners):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "realizable", crash)
    code, out, err = run_cli(capsys, "realizable", str(games_dir / "ev.json"), "--winners", "0")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


DEEP_FORMULA = "X(" * 1500 + "p0=a" + ")" * 1500


def test_deep_ltlf_goal_exits_2(capsys, tmp_path):
    # Nesting deeper than the recursion limit is bad input, not a crash.
    game = tmp_path / "deep.json"
    game.write_text(json.dumps({
        "version": "ibg-game-1",
        "agents": [{"name": "p0", "alphabet": ["a", "b"],
                    "goal": {"kind": "ltlf", "formula": DEEP_FORMULA}}],
    }))
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({
        "version": "ibg-profile-1",
        "machines": [{"states": ["s"], "initial": "s", "channels": [], "output": {"s": "a"},
                      "transitions": [{"from": "s", "letter": [], "to": "s"}]}],
    }))
    for argv in (
        ("realizable", str(game), "--winners", "0"),
        ("verify", str(game), str(profile), "--winners", "0"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: agents[0].goal.formula:")
        assert err.count("\n") == 1


def test_deep_json_exits_2(capsys, tmp_path):
    game = tmp_path / "deep.json"
    game.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "realizable", str(game), "--winners", "0")
    assert code == 2
    assert out == ""
    assert err == f"error: {game}: nested too deeply\n"


def test_non_list_accepting_exits_2(capsys, games_dir, tmp_path):
    # A string must not be read as a list of one-character state names.
    for accepting in (5, None, "q1"):
        data = json.loads((games_dir / "ev.json").read_text())
        data["agents"][0]["goal"]["accepting"] = accepting
        game = tmp_path / "bad_accepting.json"
        game.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "realizable", str(game), "--winners", "0")
        assert code == 2
        assert out == ""
        assert err == "error: agents[0].goal.accepting: expected a list of strings\n"


def test_convert_deep_ltlf_exits_2(capsys, tmp_path):
    src = tmp_path / "alphabet.json"
    src.write_text(json.dumps({"version": "ibg-automaton-1", "channels": [["a", "b"]]}))
    code, out, err = run_cli(
        capsys, "convert", "--ltlf2afa", DEEP_FORMULA, str(src), str(tmp_path / "out.json")
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: formula:")
    assert err.count("\n") == 1


def one_agent_ltlf_game(tmp_path, formula):
    game = tmp_path / "game.json"
    game.write_text(json.dumps({
        "version": "ibg-game-1",
        "agents": [{"name": "p0", "alphabet": ["a", "b"],
                    "goal": {"kind": "ltlf", "formula": formula}}],
    }))
    return game


def test_ltlf_goal_nested_300_deep_is_solved(capsys, tmp_path):
    # The parser keeps its own stack, so depth is no longer bounded by it.
    formula = "X(" * 300 + "p0=a" + ")" * 300
    game = one_agent_ltlf_game(tmp_path, formula)
    code, out, _ = run_cli(capsys, "realizable", str(game), "--winners", "0")
    assert code == 0
    assert out.startswith("REALIZABLE\n")
    src = tmp_path / "alphabet.json"
    src.write_text(json.dumps({"version": "ibg-automaton-1", "channels": [["a", "b"]]}))
    code, out, _ = run_cli(
        capsys, "convert", "--ltlf2afa", formula, str(src), str(tmp_path / "out.json")
    )
    assert code == 0
    assert out.startswith("CONVERTED\n")
    assert record_of(out)["states"] == 301


def test_propositional_chains_300_deep_are_solved(capsys, tmp_path):
    # minimal_models keeps its own stack, so a deep AND/OR transition
    # formula is no recursion hazard.
    for op, expected_code, verdict in (("&", 1, "UNREALIZABLE"), ("|", 0, "REALIZABLE")):
        formula = f"X(p0=b) {op} (" * 300 + "X(p0=a)" + ")" * 300
        game = one_agent_ltlf_game(tmp_path, formula)
        code, out, err = run_cli(capsys, "realizable", str(game), "--winners", "0")
        assert (code, err) == (expected_code, "")
        assert out.startswith(verdict + "\n")


def test_nested_eventually_goal_is_solved(capsys, tmp_path):
    # Conversion costs time per obligation set and model, not per subset of
    # the atoms, so 40 levels solve; the goal DFA's size does not grow.
    sizes = []
    for depth in (8, 40):
        game = one_agent_ltlf_game(tmp_path, "F(" * depth + "p0=a" + ")" * depth)
        code, out, _ = run_cli(capsys, "realizable", str(game), "--winners", "0", "--stats")
        assert code == 0
        assert out.startswith("REALIZABLE\n")
        sizes.append(record_of(out)["stats"]["goal_dfa_states"])
    assert sizes[0] == sizes[1]


def test_convert_wide_afa(capsys, tmp_path):
    # From `init` each letter demands an AND of 10 binary ORs over 20
    # accepting atom states.  Letter a pairs 2k with 2k+1; letter b pairs
    # the atoms along two 10-cycles, so the two letters share 2^2 of their
    # 2^10 minimal models: 1 + (2 * 2^10 - 4) + the empty set = 2046 states.
    atoms = [f"a{i}" for i in range(20)]
    pairings = {
        "a": [(2 * k, 2 * k + 1) for k in range(10)],
        "b": [(base + 2 * k + 1, base + (2 * k + 2) % 10) for base in (0, 10) for k in range(5)],
    }
    transitions = []
    for sym, pairs in pairings.items():
        transitions.append({"from": "init", "letter": [sym], "formula": {"op": "and", "args": [
            {"op": "or", "args": [{"op": "atom", "state": atoms[x]}, {"op": "atom", "state": atoms[y]}]}
            for x, y in pairs
        ]}})
        transitions += [{"from": a, "letter": [sym], "formula": {"op": "true"}} for a in atoms]
    src = tmp_path / "wide.json"
    src.write_text(json.dumps({
        "version": "ibg-automaton-1", "channels": [["a", "b"]],
        "automaton": {"kind": "afa", "states": ["init"] + atoms, "initial": "init",
                      "accepting": atoms, "transitions": transitions},
    }))
    code, out, _ = run_cli(capsys, "convert", "--afa2nfa", str(src), str(tmp_path / "out.json"))
    assert code == 0
    assert out.startswith("CONVERTED\n")
    assert record_of(out)["states"] == 2046


def test_realizable_stats_include_goal_sizes(capsys, games_dir):
    code, out, _ = run_cli(
        capsys, "realizable", str(games_dir / "ev.json"), "--winners", "0", "--stats"
    )
    assert code == 0
    stats = record_of(out)["stats"]
    assert stats["goal_dfa_states"] == [2, 2]
    assert "deviation_arena_sizes" in stats
    assert stats["product_states"] > 0


EV_W0_ARENAS = (
    "# deviation game, agent 1\n"
    "vertex 0 owner=0 q=watch\n"
    "vertex 1 owner=0 q=hit\n"
    "vertex 2 owner=1 q=watch committed=(a,c)\n"
    "vertex 3 owner=1 q=watch committed=(a,d)\n"
    "vertex 4 owner=1 q=watch committed=(b,c)\n"
    "vertex 5 owner=1 q=watch committed=(b,d)\n"
    "edge 0 2\n"
    "edge 0 3\n"
    "edge 0 4\n"
    "edge 0 5\n"
    "edge 2 0\n"
    "edge 3 0\n"
    "edge 4 0\n"
    "edge 4 1\n"
    "edge 5 0\n"
    "edge 5 1\n"
)

MP_W0_ARENAS = (
    "# deviation game, agent 1\n"
    "vertex 0 owner=0 q=start\n"
    "vertex 1 owner=0 q=win\n"
    "vertex 2 owner=0 q=lose\n"
    "vertex 3 owner=1 q=start committed=(a,c)\n"
    "vertex 4 owner=1 q=start committed=(a,d)\n"
    "vertex 5 owner=1 q=start committed=(b,c)\n"
    "vertex 6 owner=1 q=start committed=(b,d)\n"
    "vertex 7 owner=1 q=lose committed=(a,c)\n"
    "vertex 8 owner=1 q=lose committed=(a,d)\n"
    "vertex 9 owner=1 q=lose committed=(b,c)\n"
    "vertex 10 owner=1 q=lose committed=(b,d)\n"
    "edge 0 3\n"
    "edge 0 4\n"
    "edge 0 5\n"
    "edge 0 6\n"
    "edge 2 7\n"
    "edge 2 8\n"
    "edge 2 9\n"
    "edge 2 10\n"
    "edge 3 1\n"
    "edge 3 2\n"
    "edge 4 1\n"
    "edge 4 2\n"
    "edge 5 1\n"
    "edge 5 2\n"
    "edge 6 1\n"
    "edge 6 2\n"
    "edge 7 2\n"
    "edge 8 2\n"
    "edge 9 2\n"
    "edge 10 2\n"
)


def test_realizable_dump_arenas(capsys, games_dir, tmp_path):
    dump = tmp_path / "arenas.txt"
    for name, expected_code, expected in (("ev", 0, EV_W0_ARENAS), ("mp", 1, MP_W0_ARENAS)):
        code, _, _ = run_cli(
            capsys, "realizable", str(games_dir / f"{name}.json"),
            "--winners", "0", "--dump-arenas", str(dump),
        )
        assert code == expected_code
        assert dump.read_text() == expected


def test_verify_ev_constant(capsys, games_dir):
    code, out, _ = run_cli(
        capsys, "verify", str(games_dir / "ev.json"), str(games_dir / "ev_profile_ac.json"),
        "--winners", "0",
    )
    assert code == 0
    assert out.startswith("IS-W-NE")
    record = record_of(out)
    assert record["queries"]["0"]["passed"] is True
    assert record["queries"]["1"]["passed"] is True


def test_verify_failure_reports_query(capsys, games_dir):
    code, out, _ = run_cli(
        capsys, "verify", str(games_dir / "ev.json"), str(games_dir / "ev_profile_ac.json"),
        "--winners", "0,1",
    )
    assert code == 1
    record = record_of(out)
    assert record["verdict"] == "NOT-W-NE"
    assert record["queries"]["1"]["passed"] is False


def test_verify_explain_includes_paths(capsys, games_dir):
    code, out, _ = run_cli(
        capsys, "verify", str(games_dir / "mp.json"), str(games_dir / "ev_profile_ac.json"),
        "--winners", "0", "--explain",
    )
    assert code == 1
    record = record_of(out)
    entry = record["queries"]["1"]
    assert entry["violation"] == "deviant-trace"
    assert entry["escape"] == [["a", "d"]]


def test_verify_wrong_profile_exits_2(capsys, games_dir, tmp_path):
    bad = tmp_path / "profile.json"
    bad.write_text('{"version": "ibg-profile-1", "machines": []}')
    code, _, err = run_cli(
        capsys, "verify", str(games_dir / "ev.json"), str(bad), "--winners", "0"
    )
    assert code == 2
    assert "machines" in err


def test_determinism_modulo_wall_time(capsys, games_dir):
    _, out1, _ = run_cli(capsys, "realizable", str(games_dir / "ev.json"), "--winners", "0", "--stats")
    _, out2, _ = run_cli(capsys, "realizable", str(games_dir / "ev.json"), "--winners", "0", "--stats")
    assert strip_wall_time(out1) == strip_wall_time(out2)


def test_convert_determinize(capsys, tmp_path, alphabet):
    from ibgsolve.formats import dump_json, save_automaton_file

    nfa = corpus.nth_from_end_nfa(alphabet, 3)
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    src.write_text(dump_json(save_automaton_file(nfa)))
    code, out, _ = run_cli(capsys, "convert", "--determinize", str(src), str(dst))
    assert code == 0
    _, dfa = load_automaton_file(json.loads(dst.read_text()))
    assert dfa.n_states == 4  # 2^(3-1) reachable subsets
    code2, _, _ = run_cli(capsys, "convert", "--determinize", str(dst), str(tmp_path / "x.json"))
    assert code2 == 2  # determinize expects an nfa


def test_convert_afa2nfa(capsys, tmp_path, ev_game):
    from ibgsolve import as_afa
    from ibgsolve.formats import dump_json, save_automaton_file

    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    src.write_text(dump_json(save_automaton_file(as_afa(ev_game.goals[0]))))
    code, _, _ = run_cli(capsys, "convert", "--afa2nfa", str(src), str(dst))
    assert code == 0
    _, nfa = load_automaton_file(json.loads(dst.read_text()))
    assert nfa.n_states <= ev_game.goals[0].n_states + 1


def test_convert_ltlf2afa(capsys, tmp_path):
    src = tmp_path / "alphabet.json"
    dst = tmp_path / "out.json"
    src.write_text(json.dumps({
        "version": "ibg-automaton-1",
        "channels": [["a", "b"], ["c", "d"]],
    }))
    code, out, _ = run_cli(capsys, "convert", "--ltlf2afa", "F(p0=a & p1=c)", str(src), str(dst))
    assert code == 0
    _, afa = load_automaton_file(json.loads(dst.read_text()))
    assert afa.n_states <= 4


def test_convert_round_trip_stability(capsys, tmp_path, alphabet):
    from ibgsolve.formats import dump_json, save_automaton_file

    nfa = corpus.nth_from_end_nfa(alphabet, 2)
    src = tmp_path / "in.json"
    mid = tmp_path / "mid.json"
    src.write_text(dump_json(save_automaton_file(nfa)))
    run_cli(capsys, "convert", "--determinize", str(src), str(mid))
    first = mid.read_text()
    run_cli(capsys, "convert", "--determinize", str(src), str(mid))
    assert mid.read_text() == first


def test_oracle_verify_cli(capsys, games_dir):
    code, out, _ = run_cli(
        capsys, "oracle", "verify", str(games_dir / "ev.json"),
        str(games_dir / "ev_profile_ac.json"), "--winners", "0",
    )
    assert code == 0
    assert record_of(out)["verdict"] == "IS-W-NE"


def test_oracle_verify_cli_overflow(capsys, games_dir):
    code, out, _ = run_cli(
        capsys, "oracle", "verify", str(games_dir / "ev.json"),
        str(games_dir / "ev_profile_ac.json"), "--winners", "0", "--budget", "1",
    )
    assert code == 2
    assert record_of(out)["verdict"] == "ORACLE-OVERFLOW"


def test_oracle_onesided_cli(capsys, games_dir):
    code, out, _ = run_cli(
        capsys, "oracle", "realizable-onesided", str(games_dir / "mp.json"),
        "--winners", "0,1",
    )
    assert code == 1
    assert record_of(out)["verdict"] == "UNKNOWN"
    code, out, _ = run_cli(
        capsys, "oracle", "realizable-onesided", str(games_dir / "ev.json"),
        "--winners", "0",
    )
    assert code == 0
    record = record_of(out)
    assert record["verdict"] == "FOUND-WITNESS"
    assert "witness" in record
