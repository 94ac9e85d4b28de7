"""Reference checks: every answer the CLI gives is checked here, outside the
timed region.

- realizable: the verdict against the expected-verdict table (README,
  "Expected verdicts"); for REALIZABLE answers the witness file equals the
  record's witness, `oracle_verify` accepts it, and the winning set of the
  reported lasso is exactly W.
- convert: the output loads as the right automaton kind, its state count
  matches the record, --determinize of the nth-from-end NFA has exactly
  2^(n-1) states, and input and output agree with each other (and with a
  direct evaluation where the benchmark knows the language) on a seeded
  word battery.
- verify: the verdict against `oracle_verify` on the same files.

Each check returns a list of problems (empty when the answer is right) and
the size facts the CLI reported, for the per-query rows.
"""

from __future__ import annotations

import json
import os
import random
from types import SimpleNamespace

BATTERY_WORDS = 40


def read_stdout(path: str) -> tuple[str, dict]:
    with open(path) as fh:
        verdict, _, rest = fh.read().partition("\n")
    return verdict, json.loads(rest)


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def check(query, lib: SimpleNamespace, rc: int, stdout_path: str, outputs: dict[str, str],
          seed: int) -> tuple[list[str], dict]:
    """`outputs` maps each file the query writes to where pass 0's copy is."""
    try:
        verdict, record = read_stdout(stdout_path)
    except (OSError, ValueError) as e:
        return [f"unreadable stdout: {e}"], {}
    try:
        if query.kind == "realizable":
            return _check_realizable(query, lib, rc, verdict, record, outputs)
        if query.kind == "convert":
            return _check_convert(query, lib, rc, verdict, record, outputs, seed)
        return _check_verify(query, lib, rc, verdict, record)
    except Exception as e:  # a check that crashes is a failed query, not a crashed run
        return [f"reference check raised {type(e).__name__}: {e}"], {}


def _check_realizable(query, lib, rc, verdict, record, outputs):
    expected = query.expect["verdict"]
    problems = []
    if verdict != expected or rc != (0 if expected == "REALIZABLE" else 1):
        problems.append(f"expected {expected}, got {verdict} (exit {rc})")
    stats = record.get("stats", {})
    facts = {
        "goal_dfa_states": sum(stats.get("goal_dfa_states", [])),
        "product_states": stats.get("product_states"),
        "product_transitions": stats.get("product_transitions"),
    }
    game, _ = lib.formats.load_game(_load(query.expect["game"]))
    winners = frozenset(query.expect["winners"])
    witness_path = outputs[query.expect["witness"]]
    if expected == "UNREALIZABLE":
        if "lasso" in record or "witness" in record or os.path.exists(witness_path):
            problems.append("UNREALIZABLE answer came with a lasso or witness")
        return problems, facts
    witness = _load(witness_path)
    if witness != record.get("witness"):
        problems.append("witness file differs from the record's witness")
    profile = lib.formats.load_profile(witness, game.alphabet)
    facts["witness_states"] = profile.machines[0].n_states
    if not lib.ibgsolve.oracle_verify(game, winners, profile):
        problems.append("oracle_verify rejects the witness")
    lasso = lib.ibgsolve.UltimatelyPeriodicWord(
        tuple(game.alphabet.letter(x) for x in record["lasso"]["prefix"]),
        tuple(game.alphabet.letter(x) for x in record["lasso"]["period"]),
    )
    facts["lasso_length"] = lasso.span
    if lib.ibgsolve.winning_set(lasso, game) != winners:
        problems.append("the lasso's winning set is not W")
    return problems, facts


def _battery(alphabet, rng: random.Random, max_len: int) -> list[tuple]:
    sizes = [len(c) for c in alphabet.channels]
    return [
        tuple(tuple(rng.randrange(s) for s in sizes) for _ in range(rng.randint(0, max_len)))
        for _ in range(BATTERY_WORDS)
    ]


def _conjunction_holds(conjuncts, word, alphabet) -> bool:
    def sym(letter, channel):
        return alphabet.channels[channel][letter[channel]]

    return all(
        any(sym(word[t], i) == s and sym(word[t + 1], j) == u for t in range(len(word) - 1))
        for i, s, j, u in conjuncts
    )


def _check_convert(query, lib, rc, verdict, record, outputs, seed):
    problems = []
    if verdict != "CONVERTED" or rc != 0:
        return [f"expected CONVERTED, got {verdict} (exit {rc})"], {}
    alphabet, out = lib.formats.load_automaton_file(_load(outputs[query.outputs[0]]))
    facts = {"states": out.n_states}
    if record.get("states") != out.n_states:
        problems.append("record state count differs from the output file")
    op = query.expect["op"]
    rng = random.Random(f"battery:{seed}:{query.qid}")
    ns = lib.ibgsolve
    if op == "ltlf2afa":
        if not isinstance(out, ns.Afa):
            return problems + ["ltlf2afa did not produce an afa"], facts
        formula = lib.ltlf.parse(query.argv[2], alphabet)
        for word in _battery(alphabet, rng, 10):
            direct = _conjunction_holds(query.expect["conjuncts"], word, alphabet)
            if not direct == lib.ltlf.holds(formula, word, alphabet) == ns.afa_accepts(out, word):
                problems.append(f"ltlf2afa disagrees on word {word}")
                break
        return problems, facts
    _, source = lib.formats.load_automaton_file(_load(query.expect["input"]))
    if op == "afa2nfa":
        if not isinstance(out, ns.Nfa):
            return problems + ["afa2nfa did not produce an nfa"], facts
        facts["transitions"] = len(out.triples)
        for word in _battery(alphabet, rng, 8):
            if ns.afa_accepts(source, word) != ns.nfa_accepts(out, word):
                problems.append(f"afa2nfa disagrees on word {word}")
                break
        return problems, facts
    n = query.expect["n"]
    if not isinstance(out, ns.Dfa):
        return problems + ["determinize did not produce a dfa"], facts
    if out.n_states != 2 ** (n - 1):
        problems.append(f"determinize gave {out.n_states} states, expected 2^{n - 1}")
    trigger = alphabet.channels[0].index(query.expect["trigger"])
    for word in _battery(alphabet, rng, n + 4):
        direct = len(word) >= n - 1 and word[len(word) - (n - 1)][0] == trigger
        if not direct == ns.nfa_accepts(source, word) == ns.dfa_accepts(out, word):
            problems.append(f"determinize disagrees on word {word}")
            break
    return problems, facts


def _check_verify(query, lib, rc, verdict, record):
    game, _ = lib.formats.load_game(_load(query.expect["game"]))
    profile = lib.formats.load_profile(_load(query.expect["profile"]), game.alphabet)
    winners = frozenset(query.expect["winners"])
    stats = record.get("stats", {})
    facts = {
        "profile_states": stats.get("profile_states"),
        "deviation_vertices": sum(stats.get("deviation_arena_sizes", {}).values()),
    }
    try:
        truth = lib.ibgsolve.oracle_verify(game, winners, profile)
    except lib.ibgsolve.OracleOverflow as e:
        return [f"oracle overflow: {e}"], facts
    expected = "IS-W-NE" if truth else "NOT-W-NE"
    facts["oracle"] = expected
    problems = []
    if verdict != expected or rc != (0 if truth else 1):
        problems.append(f"oracle says {expected}, CLI said {verdict} (exit {rc})")
    if sorted(int(a) for a in record.get("queries", {})) != list(game.agents):
        problems.append("record does not answer for every agent")
    return problems, facts
