"""JSON file formats for games, profiles, automata, and result records.

Loading is strict: unknown fields, missing fields, and anything violating
the in-memory invariants are rejected with an error naming the offending
field path.  Saving is deterministic, so load(save(x)) round-trips and
identical inputs produce identical files.
"""

from __future__ import annotations

import json
from typing import Any

from .alphabet import ChannelMask, Letter, ProductAlphabet, UltimatelyPeriodicWord
from .automata import (
    Afa,
    BoolFormula,
    Dfa,
    FAnd,
    FAtom,
    FFalse,
    FOr,
    FTrue,
    GoalAutomaton,
    Nfa,
)
from .game import Ibg, MooreMachine, StrategyProfile
from . import ltlf

GAME_VERSION = "ibg-game-1"
PROFILE_VERSION = "ibg-profile-1"
AUTOMATON_VERSION = "ibg-automaton-1"


class FormatError(ValueError):
    """Raised on malformed input files; the message names the field."""


def _require_keys(obj: Any, path: str, required: set[str], optional: set[str] = frozenset()) -> None:
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: expected an object")
    unknown = set(obj) - required - optional
    if unknown:
        raise FormatError(f"{path}: unknown field {sorted(unknown)[0]!r}")
    missing = required - set(obj)
    if missing:
        raise FormatError(f"{path}: missing field {sorted(missing)[0]!r}")


def _string(obj: Any, path: str) -> str:
    if not isinstance(obj, str):
        raise FormatError(f"{path}: expected a string")
    return obj


def _string_list(obj: Any, path: str) -> list[str]:
    if not isinstance(obj, list) or not all(isinstance(x, str) for x in obj):
        raise FormatError(f"{path}: expected a list of strings")
    return obj


# ---------------------------------------------------------------------------
# Automata.


def _load_mask(obj: Any, path: str, k: int) -> ChannelMask:
    if obj is None:
        return ChannelMask.full(k)
    # Letters list their symbols in mask order, so a mask is read as written:
    # a bool is no index, and a repeated or descending entry is rejected.
    if not isinstance(obj, list) or not all(type(x) is int for x in obj):
        raise FormatError(f"{path}: expected a list of agent indices")
    if any(not 0 <= x < k for x in obj):
        raise FormatError(f"{path}: channel index out of range")
    if any(a >= b for a, b in zip(obj, obj[1:])):
        raise FormatError(f"{path}: expected distinct channels in ascending order")
    return ChannelMask(tuple(obj))


def _state_id(name: Any, path: str, index: dict[str, int]) -> int:
    name = _string(name, path)
    if name not in index:
        raise FormatError(f"{path}: unknown state {name!r}")
    return index[name]


def _load_letter(obj: Any, path: str, alphabet: ProductAlphabet, mask: ChannelMask) -> Letter:
    symbols = _string_list(obj, path)
    try:
        return alphabet.letter(symbols, mask)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None


_EDGE_KEYS = {"to": {"from", "letter", "to"}, "formula": {"from", "letter", "formula"}}


def _load_edge(
    t: Any,
    i: int,
    path: str,
    index: dict[str, int],
    alphabet: ProductAlphabet,
    mask: ChannelMask,
    seen: dict | None,
    target: str = "to",
) -> tuple[int, Letter, Any]:
    """The entry `path.transitions[i]` as (source, letter, target).

    `target` names the entry's third field: a state name under "to", any
    value (returned as is) otherwise.  With `seen` given, a (source, letter)
    key already in it is a duplicate.  A well-formed entry costs a few
    lookups; only an entry failing one of them gets field paths built, as it
    is checked again field by field to raise the error naming the field.
    """
    try:
        if t.keys() == _EDGE_KEYS[target] and type(t["letter"]) is list:
            key = (index[t["from"]], alphabet.letter(t["letter"], mask))
            if seen is None or key not in seen:
                return (*key, index[t["to"]] if target == "to" else t[target])
    except (AttributeError, LookupError, TypeError, ValueError):
        pass
    tp = f"{path}.transitions[{i}]"
    _require_keys(t, tp, _EDGE_KEYS[target])
    key = (_state_id(t["from"], f"{tp}.from", index),
           _load_letter(t["letter"], f"{tp}.letter", alphabet, mask))
    if seen is not None and key in seen:
        raise FormatError(f"{tp}: duplicate transition source")
    return (*key, _state_id(t["to"], f"{tp}.to", index) if target == "to" else t[target])


def _load_formula(obj: Any, path: str, index: dict[str, int]) -> BoolFormula:
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: expected a formula object")
    op = obj.get("op")
    if op == "true":
        _require_keys(obj, path, {"op"})
        return FTrue()
    if op == "false":
        _require_keys(obj, path, {"op"})
        return FFalse()
    if op == "atom":
        _require_keys(obj, path, {"op", "state"})
        return FAtom(_state_id(obj["state"], f"{path}.state", index))
    if op in ("and", "or"):
        _require_keys(obj, path, {"op", "args"})
        args = obj["args"]
        if not isinstance(args, list):
            raise FormatError(f"{path}.args: expected a list")
        parts = tuple(_load_formula(a, f"{path}.args[{i}]", index) for i, a in enumerate(args))
        return FAnd(parts) if op == "and" else FOr(parts)
    raise FormatError(f"{path}.op: unknown operator {op!r}")


def _save_formula(f: BoolFormula, names: tuple[str, ...]) -> dict:
    if isinstance(f, FTrue):
        return {"op": "true"}
    if isinstance(f, FFalse):
        return {"op": "false"}
    if isinstance(f, FAtom):
        return {"op": "atom", "state": names[f.state]}
    op = "and" if isinstance(f, FAnd) else "or"
    return {"op": op, "args": [_save_formula(a, names) for a in f.args]}


def load_goal(obj: Any, path: str, alphabet: ProductAlphabet) -> GoalAutomaton:
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: expected an object")
    kind = obj.get("kind")
    if kind == "ltlf":
        _require_keys(obj, path, {"kind", "formula"})
        text = _string(obj["formula"], f"{path}.formula")
        try:
            formula = ltlf.parse(text, alphabet)
            return ltlf.compile_to_afa(formula, alphabet)
        except ltlf.LtlfSyntaxError as e:
            raise FormatError(f"{path}.formula: {e}") from None
        except RecursionError:
            raise FormatError(f"{path}.formula: nested too deeply") from None
    if kind not in ("dfa", "nfa", "afa"):
        raise FormatError(f"{path}.kind: expected dfa, nfa, afa, or ltlf, got {kind!r}")
    _require_keys(
        obj, path, {"kind", "states", "initial", "accepting", "transitions"}, {"channels"}
    )
    names = tuple(_string_list(obj["states"], f"{path}.states"))
    if len(set(names)) != len(names):
        raise FormatError(f"{path}.states: duplicate state name")
    index = {name: i for i, name in enumerate(names)}
    mask = _load_mask(obj.get("channels"), f"{path}.channels", alphabet.k)
    initial = _state_id(obj["initial"], f"{path}.initial", index)
    accepting = frozenset(
        _state_id(name, f"{path}.accepting[{i}]", index)
        for i, name in enumerate(_string_list(obj["accepting"], f"{path}.accepting"))
    )
    transitions = obj["transitions"]
    if not isinstance(transitions, list):
        raise FormatError(f"{path}.transitions: expected a list")
    try:
        if kind == "dfa":
            delta: dict[tuple[int, Letter], int] = {}
            for i, t in enumerate(transitions):
                q, rl, target = _load_edge(t, i, path, index, alphabet, mask, delta)
                delta[q, rl] = target
            return Dfa(alphabet, mask, names, initial, accepting, delta)
        if kind == "nfa":
            triples = frozenset(
                _load_edge(t, i, path, index, alphabet, mask, None)
                for i, t in enumerate(transitions)
            )
            return Nfa(alphabet, mask, names, initial, accepting, triples)
        adelta: dict[tuple[int, Letter], BoolFormula] = {}
        for i, t in enumerate(transitions):
            q, rl, formula = _load_edge(t, i, path, index, alphabet, mask, adelta, "formula")
            adelta[q, rl] = _load_formula(formula, f"{path}.transitions[{i}].formula", index)
        return Afa(alphabet, mask, names, initial, accepting, adelta)
    except FormatError:
        raise
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None


def save_goal(goal: GoalAutomaton) -> dict:
    alphabet = goal.alphabet
    out: dict[str, Any] = {}
    out["kind"] = {Dfa: "dfa", Nfa: "nfa", Afa: "afa"}[type(goal)]
    if goal.mask != alphabet.full_mask():
        out["channels"] = list(goal.mask.agents)
    out["states"] = list(goal.names)
    out["initial"] = goal.names[goal.initial]
    out["accepting"] = [goal.names[q] for q in sorted(goal.accepting)]
    transitions = []
    if isinstance(goal, Nfa):
        for q, rl, p in sorted(goal.triples):
            transitions.append({
                "from": goal.names[q],
                "letter": list(alphabet.symbols(rl, goal.mask)),
                "to": goal.names[p],
            })
    else:
        for (q, rl), target in sorted(goal.delta.items()):
            entry = {"from": goal.names[q], "letter": list(alphabet.symbols(rl, goal.mask))}
            if isinstance(goal, Dfa):
                entry["to"] = goal.names[target]
            else:
                entry["formula"] = _save_formula(target, goal.names)
            transitions.append(entry)
    out["transitions"] = transitions
    return out


# ---------------------------------------------------------------------------
# Games.


def load_game(data: Any) -> tuple[Ibg, list[str]]:
    """Returns the game and the agent names (by agent index)."""
    _require_keys(data, "game", {"version", "agents"})
    if data["version"] != GAME_VERSION:
        raise FormatError(f"version: expected {GAME_VERSION!r}")
    agents = data["agents"]
    if not isinstance(agents, list) or not agents:
        raise FormatError("agents: expected a nonempty list")
    names = []
    channels = []
    for i, agent in enumerate(agents):
        _require_keys(agent, f"agents[{i}]", {"name", "alphabet", "goal"})
        names.append(_string(agent["name"], f"agents[{i}].name"))
        channels.append(tuple(_string_list(agent["alphabet"], f"agents[{i}].alphabet")))
    try:
        alphabet = ProductAlphabet(tuple(channels))
    except ValueError as e:
        raise FormatError(f"agents: {e}") from None
    goals = tuple(
        load_goal(agent["goal"], f"agents[{i}].goal", alphabet)
        for i, agent in enumerate(agents)
    )
    return Ibg(alphabet, goals), names


def save_game(game: Ibg, names: list[str] | None = None) -> dict:
    names = names or [f"p{i}" for i in game.agents]
    return {
        "version": GAME_VERSION,
        "agents": [
            {
                "name": names[i],
                "alphabet": list(game.alphabet.channels[i]),
                "goal": save_goal(game.goals[i]),
            }
            for i in game.agents
        ],
    }


# ---------------------------------------------------------------------------
# Profiles.


def load_profile(data: Any, alphabet: ProductAlphabet) -> StrategyProfile:
    _require_keys(data, "profile", {"version", "machines"})
    if data["version"] != PROFILE_VERSION:
        raise FormatError(f"version: expected {PROFILE_VERSION!r}")
    entries = data["machines"]
    if not isinstance(entries, list):
        raise FormatError("machines: expected a list")
    if len(entries) != alphabet.k:
        raise FormatError(f"machines: expected {alphabet.k} machines, got {len(entries)}")
    machines = []
    for i, entry in enumerate(entries):
        path = f"machines[{i}]"
        _require_keys(entry, path, {"states", "initial", "output", "transitions"}, {"channels"})
        names = tuple(_string_list(entry["states"], f"{path}.states"))
        if len(set(names)) != len(names):
            raise FormatError(f"{path}.states: duplicate state name")
        index = {name: s for s, name in enumerate(names)}
        mask = _load_mask(entry.get("channels"), f"{path}.channels", alphabet.k)
        initial = _state_id(entry["initial"], f"{path}.initial", index)
        output_obj = entry["output"]
        if not isinstance(output_obj, dict):
            raise FormatError(f"{path}.output: expected an object")
        output = []
        for s, name in enumerate(names):
            if name not in output_obj:
                raise FormatError(f"{path}.output: missing state {name!r}")
            sym = _string(output_obj[name], f"{path}.output.{name}")
            if sym not in alphabet.channels[i]:
                raise FormatError(f"{path}.output.{name}: unknown symbol {sym!r} on channel {i}")
            output.append(alphabet.channels[i].index(sym))
        if set(output_obj) - set(names):
            raise FormatError(f"{path}.output: unknown state name")
        transitions = entry["transitions"]
        if not isinstance(transitions, list):
            raise FormatError(f"{path}.transitions: expected a list")
        trans: dict[tuple[int, Letter], int] = {}
        for t_i, t in enumerate(transitions):
            s, rl, target = _load_edge(t, t_i, path, index, alphabet, mask, trans)
            trans[s, rl] = target
        try:
            machines.append(MooreMachine(i, alphabet, mask, names, initial, tuple(output), trans))
        except ValueError as e:
            raise FormatError(f"{path}: {e}") from None
    try:
        return StrategyProfile(tuple(machines))
    except ValueError as e:
        raise FormatError(f"machines: {e}") from None


def save_profile(profile: StrategyProfile) -> dict:
    alphabet = profile.alphabet
    machines = []
    for m in profile.machines:
        entry: dict[str, Any] = {"states": list(m.names), "initial": m.names[m.initial]}
        if m.mask != alphabet.full_mask():
            entry["channels"] = list(m.mask.agents)
        entry["output"] = {
            m.names[s]: alphabet.channels[m.owner][m.output[s]] for s in range(m.n_states)
        }
        entry["transitions"] = [
            {
                "from": m.names[s],
                "letter": list(alphabet.symbols(rl, m.mask)),
                "to": m.names[target],
            }
            for (s, rl), target in sorted(m.trans.items())
        ]
        machines.append(entry)
    return {"version": PROFILE_VERSION, "machines": machines}


# ---------------------------------------------------------------------------
# Standalone automaton files (conversion subcommand).


def load_automaton_file(data: Any) -> tuple[ProductAlphabet, GoalAutomaton | None]:
    _require_keys(data, "automaton-file", {"version", "channels"}, {"automaton"})
    if data["version"] != AUTOMATON_VERSION:
        raise FormatError(f"version: expected {AUTOMATON_VERSION!r}")
    channels = data["channels"]
    if not isinstance(channels, list):
        raise FormatError("channels: expected a list of symbol lists")
    try:
        alphabet = ProductAlphabet(
            tuple(tuple(_string_list(c, f"channels[{i}]")) for i, c in enumerate(channels))
        )
    except ValueError as e:
        raise FormatError(f"channels: {e}") from None
    automaton = None
    if "automaton" in data:
        automaton = load_goal(data["automaton"], "automaton", alphabet)
    return alphabet, automaton


def save_automaton_file(automaton: GoalAutomaton) -> dict:
    return {
        "version": AUTOMATON_VERSION,
        "channels": [list(c) for c in automaton.alphabet.channels],
        "automaton": save_goal(automaton),
    }


# ---------------------------------------------------------------------------
# Shared pieces of result records.


def lasso_to_jsonable(lasso: UltimatelyPeriodicWord, alphabet: ProductAlphabet) -> dict:
    return {
        "prefix": [list(alphabet.symbols(x)) for x in lasso.prefix],
        "period": [list(alphabet.symbols(x)) for x in lasso.period],
    }


def letters_to_jsonable(letters: tuple[Letter, ...], alphabet: ProductAlphabet) -> list:
    return [list(alphabet.symbols(x)) for x in letters]


def dump_json(data: Any) -> str:
    return json.dumps(data, indent=2) + "\n"
