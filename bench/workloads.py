"""Seeded workload generators for the ibgsolve benchmark.

Each generator returns a list of `Query` objects: the CLI arguments of one
command, the input files that command reads (as JSON-able objects, written
at set-up), the files it writes, and the facts the reference check needs.
Everything here is plain Python data built by the benchmark itself; no
solver code runs while a workload is generated, so a change to the solver
cannot change its own inputs.

The seed changes content, never size: for `ring` and `ring-shared` it only
renames symbols (equal-length names, same index order), so every size count
repeats exactly across seeds; for `convert` and `verify` it draws symbols,
pairings, goals and machines, with every family parameter fixed.
"""

from __future__ import annotations

import itertools
import random
import re
import string
from dataclasses import dataclass, field

GAME_VERSION = "ibg-game-1"
PROFILE_VERSION = "ibg-profile-1"
AUTOMATON_VERSION = "ibg-automaton-1"


@dataclass
class Query:
    qid: str
    kind: str  # "realizable", "verify" or "convert"
    argv: list[str]
    params: dict
    files: dict[str, object] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    expect: dict = field(default_factory=dict)
    frontier: bool = False


# The frontier (largest) query runs as this many same-size copies with
# different content, and `largest_s` is the median over all their runs: a
# single query's time is too noisy on a shared host.
FRONTIER_COPIES = 3

# (symbols per channel, agents).  The ladders stop at about half a second
# per query on a quiet 2-core host, so that a 20 s run holds many passes
# even when neighbours slow the host 3x: the positive ring at k=7 with 2
# symbols takes ~1.3 s, at k=8 ~13 s and at k=6 with 3 symbols ~5.5 s; the
# shared-goal ring at k=7 with 3 symbols ~1.2 s and at k=9 with 2 ~2.5 s.
RING_LADDER = [(2, k) for k in range(2, 7)] + [(3, k) for k in range(2, 6)]
RING_FRONTIER = (3, 5)
SHARED_LADDER = [(2, k) for k in range(2, 9)] + [(3, k) for k in range(2, 7)]
SHARED_FRONTIER = (2, 8)
RING_SMOKE = [(2, 2), (2, 3), (3, 3)]

# Channels of the LTLf conjunctions; channels of the AFA conjunctions given
# to --afa2nfa (6 take ~3 s); OR-pairs of the wide AFAs (8 pairs take
# ~1.3 s); n of the nth-from-end NFAs given to --determinize (16 takes
# ~0.9 s and writes 12 MB).
CONVERT_LTLF = [4, 4, 5, 5]
CONVERT_AFA = [4, 5]
CONVERT_WIDE = [6, 7]
CONVERT_DET = [10, 12, 14, 15]
CONVERT_SMOKE = {"ltlf": [3], "afa": [2], "wide": [3], "det": [4, 6]}

# (channels, symbols per channel, machine states) of the random-profile
# games, and (channels, symbols, lockstep states) of the witness-shaped ones.
# Many small games keep the seed-to-seed spread of the answer mix (and so of
# the bytes written) small; the last random shape, 3^6 joint states x 64
# letters, is the frontier.
VERIFY_RANDOM = [(5, 2, 3)] * 30 + [(6, 2, 3)] * FRONTIER_COPIES
VERIFY_LOCKSTEP = [(5, 3, 40)]
VERIFY_SMOKE_RANDOM = [(3, 2, 2)] * 4
VERIFY_SMOKE_LOCKSTEP = [(3, 2, 4)]
WRONG_W_EVERY = 6

WORKLOADS = ("ring", "ring-shared", "convert", "verify")


def build(workload: str, seed: int, smoke: bool = False) -> list[Query]:
    if workload == "ring":
        return ring_queries(seed, shared=False, smoke=smoke)
    if workload == "ring-shared":
        return ring_queries(seed, shared=True, smoke=smoke)
    if workload == "convert":
        return convert_queries(seed, smoke)
    if workload == "verify":
        return verify_queries(seed, smoke)
    raise ValueError(f"unknown workload {workload!r}")


def symbol_names(rng: random.Random, m: int) -> list[str]:
    """m distinct two-letter symbol names in a seeded order."""
    pool = ["".join(p) for p in itertools.product(string.ascii_lowercase, repeat=2)]
    return rng.sample(pool, m)


def _with_copies(ladder, frontier):
    """(m, k, copy suffix) per rung; the frontier rung comes in copies."""
    for m, k in ladder:
        if (m, k) == frontier:
            for c in range(FRONTIER_COPIES):
                yield m, k, f"-c{c}"
        else:
            yield m, k, ""


# ---------------------------------------------------------------------------
# ring and ring-shared: realizable --stats --witness on the ring LTLf family.


def ring_formula(i: int, k: int, target: str) -> str:
    return f"F(p{i}={target} & X(p{(i + 1) % k}={target}))"


def ring_queries(seed: int, shared: bool, smoke: bool) -> list[Query]:
    rng = random.Random(f"ring:{seed}")
    if smoke:
        ladder, frontier = RING_SMOKE, RING_SMOKE[-1]
    elif shared:
        ladder, frontier = SHARED_LADDER, SHARED_FRONTIER
    else:
        ladder, frontier = RING_LADDER, RING_FRONTIER
    queries = []
    for m, k, copy in _with_copies(ladder, frontier):
        names = symbol_names(rng, m)
        goals = [ring_formula(i, k, names[1]) for i in range(k)]
        if shared:
            # Loser k//2 gets winner k//2-1's goal: see README, "Expected verdicts".
            goals[k // 2] = goals[k // 2 - 1]
        winners = list(range(k // 2))
        game = {
            "version": GAME_VERSION,
            "agents": [
                {"name": f"p{i}", "alphabet": names, "goal": {"kind": "ltlf", "formula": goals[i]}}
                for i in range(k)
            ],
        }
        qid = f"{'shared' if shared else 'ring'}-m{m}-k{k}{copy}"
        game_file, witness_file = f"{qid}.game.json", f"{qid}.witness.json"
        queries.append(Query(
            qid=qid,
            kind="realizable",
            argv=["realizable", game_file, "--winners", ",".join(map(str, winners)),
                  "--stats", "--witness", witness_file],
            params={"k": k, "symbols": m},
            files={game_file: game},
            outputs=[witness_file],
            expect={
                "verdict": "UNREALIZABLE" if shared else "REALIZABLE",
                "game": game_file,
                "winners": winners,
                "witness": witness_file,
            },
            frontier=bool(copy),
        ))
    return queries


# ---------------------------------------------------------------------------
# convert: --ltlf2afa, --afa2nfa and --determinize.


def _automaton_file(channels: list[list[str]], automaton: dict | None = None) -> dict:
    out: dict = {"version": AUTOMATON_VERSION, "channels": channels}
    if automaton is not None:
        out["automaton"] = automaton
    return out


def _ring_conjuncts(rng: random.Random, c: int, names: list[str]) -> list[tuple[int, str, int, str]]:
    """(i, s, j, t) for the conjunct F(p_i=s & X(p_j=t)), j = i+1 mod c."""
    return [(i, rng.choice(names), (i + 1) % c, rng.choice(names)) for i in range(c)]


def conjunction_formula(conjuncts) -> str:
    return " & ".join(f"F(p{i}={s} & X(p{j}={t}))" for i, s, j, t in conjuncts)


def conjunction_afa(conjuncts, c: int, names: list[str]) -> dict:
    """AFA for the conjunction of F(p_i=s & X(p_j=t)), built directly.

    State w_i waits for s on channel i, n_i needs t on channel j next; the
    initial state is the conjunction of the waiting states' first step.
    """
    states = ["init"] + [f"w{i}" for i in range(len(conjuncts))] + [f"n{i}" for i in range(len(conjuncts))]
    transitions = []
    for letter in itertools.product(names, repeat=c):
        wait_steps = []
        for idx, (i, s, j, t) in enumerate(conjuncts):
            stay = {"op": "atom", "state": f"w{idx}"}
            if letter[i] == s:
                wait_steps.append({"op": "or", "args": [stay, {"op": "atom", "state": f"n{idx}"}]})
            else:
                wait_steps.append(stay)
            hit = letter[j] == t
            transitions.append({"from": f"n{idx}", "letter": list(letter),
                                "formula": {"op": "true" if hit else "false"}})
        for idx, step in enumerate(wait_steps):
            transitions.append({"from": f"w{idx}", "letter": list(letter), "formula": step})
        transitions.append({"from": "init", "letter": list(letter),
                            "formula": {"op": "and", "args": wait_steps}})
    return {"kind": "afa", "states": states, "initial": "init", "accepting": [],
            "transitions": transitions}


def wide_afa(rng: random.Random, pairs: int, names: list[str]) -> dict:
    """One channel; from the initial state each letter demands an AND of
    `pairs` binary ORs over 2*pairs atom states (a seeded pairing per
    letter), and every atom state accepts at once.  afa_to_nfa enumerates
    all 2^(2*pairs) atom subsets per letter in minimal_models."""
    atoms = [f"a{i}" for i in range(2 * pairs)]
    states = ["init"] + atoms
    transitions = []
    for sym in names:
        order = atoms[:]
        rng.shuffle(order)
        formula = {"op": "and", "args": [
            {"op": "or", "args": [{"op": "atom", "state": order[2 * p]},
                                  {"op": "atom", "state": order[2 * p + 1]}]}
            for p in range(pairs)
        ]}
        transitions.append({"from": "init", "letter": [sym], "formula": formula})
        for a in atoms:
            transitions.append({"from": a, "letter": [sym], "formula": {"op": "true"}})
    return {"kind": "afa", "states": states, "initial": "init", "accepting": atoms,
            "transitions": transitions}


def nth_from_end_nfa(n: int, names: list[str], trigger: str) -> dict:
    """Words whose letter n-1 places from the end reads `trigger` on channel
    0.  n states; its subset construction has exactly 2^(n-1) states."""
    states = [f"q{i}" for i in range(n)]
    transitions = [{"from": "q0", "letter": [s], "to": "q0"} for s in names]
    transitions.append({"from": "q0", "letter": [trigger], "to": "q1"})
    for i in range(1, n - 1):
        transitions += [{"from": f"q{i}", "letter": [s], "to": f"q{i + 1}"} for s in names]
    return {"kind": "nfa", "channels": [0], "states": states, "initial": "q0",
            "accepting": [f"q{n - 1}"], "transitions": transitions}


def convert_queries(seed: int, smoke: bool) -> list[Query]:
    rng = random.Random(f"convert:{seed}")
    plan = CONVERT_SMOKE if smoke else {
        "ltlf": CONVERT_LTLF, "afa": CONVERT_AFA, "wide": CONVERT_WIDE, "det": CONVERT_DET}
    queries = []
    for idx, c in enumerate(plan["ltlf"]):
        names = symbol_names(rng, 2)
        conjuncts = _ring_conjuncts(rng, c, names)
        qid = f"ltlf2afa-c{c}-{idx}"
        channels = [names] * c
        queries.append(Query(
            qid=qid, kind="convert",
            argv=["convert", "--ltlf2afa", conjunction_formula(conjuncts), f"{qid}.in.json", f"{qid}.out.json"],
            params={"channels": c, "symbols": 2},
            files={f"{qid}.in.json": _automaton_file(channels)},
            outputs=[f"{qid}.out.json"],
            expect={"op": "ltlf2afa", "conjuncts": conjuncts, "channels": channels},
        ))
    for idx, c in enumerate(plan["afa"]):
        names = symbol_names(rng, 2)
        conjuncts = _ring_conjuncts(rng, c, names)
        qid = f"afa2nfa-ring-c{c}-{idx}"
        channels = [names] * c
        queries.append(Query(
            qid=qid, kind="convert",
            argv=["convert", "--afa2nfa", f"{qid}.in.json", f"{qid}.out.json"],
            params={"channels": c, "symbols": 2},
            files={f"{qid}.in.json": _automaton_file(channels, conjunction_afa(conjuncts, c, names))},
            outputs=[f"{qid}.out.json"],
            expect={"op": "afa2nfa", "input": f"{qid}.in.json"},
        ))
    for idx, pairs in enumerate(plan["wide"]):
        names = symbol_names(rng, 2)
        qid = f"afa2nfa-wide-m{pairs}-{idx}"
        queries.append(Query(
            qid=qid, kind="convert",
            argv=["convert", "--afa2nfa", f"{qid}.in.json", f"{qid}.out.json"],
            params={"m": pairs, "symbols": 2},
            files={f"{qid}.in.json": _automaton_file([names], wide_afa(rng, pairs, names))},
            outputs=[f"{qid}.out.json"],
            expect={"op": "afa2nfa", "input": f"{qid}.in.json"},
        ))
    det = plan["det"][:-1] + [plan["det"][-1]] * FRONTIER_COPIES
    for idx, n in enumerate(det):
        names = symbol_names(rng, 2)
        trigger = rng.choice(names)
        other = symbol_names(rng, 2)
        qid = f"determinize-n{n}-{idx}"
        queries.append(Query(
            qid=qid, kind="convert",
            argv=["convert", "--determinize", f"{qid}.in.json", f"{qid}.out.json"],
            params={"n": n, "symbols": 2},
            files={f"{qid}.in.json": _automaton_file([names, other], nth_from_end_nfa(n, names, trigger))},
            outputs=[f"{qid}.out.json"],
            expect={"op": "determinize", "input": f"{qid}.in.json", "n": n, "trigger": trigger},
            frontier=idx >= len(plan["det"]) - 1,
        ))
    return queries


# ---------------------------------------------------------------------------
# verify: verify --explain on seeded games and profiles.


def _restricted(channels: list[list[str]], mask: list[int]):
    return itertools.product(*(channels[c] for c in mask))


def random_goal(rng: random.Random, agent: int, channels: list[list[str]], kind: str) -> dict:
    """A small DFA, NFA or LTLf goal over the agent's channel and one other."""
    k = len(channels)
    other = rng.choice([c for c in range(k) if c != agent])
    mask = sorted({agent, other})
    if kind == "ltlf":
        x, y = rng.choice(channels[agent]), rng.choice(channels[other])
        template = rng.randrange(3)
        if template == 0:
            formula = f"F(p{agent}={x} & X(p{other}={y}))"
        elif template == 1:
            formula = f"F(p{agent}={x}) & F(p{other}={y})"
        else:
            formula = f"(p{other}={y}) U (p{agent}={x})"
        return {"kind": "ltlf", "formula": formula}
    n = rng.randint(3, 4)
    states = [f"q{i}" for i in range(n)]
    letters = list(_restricted(channels, mask))
    accepting = [states[-1]]
    if kind == "dfa":
        transitions = [
            {"from": q, "letter": list(rl), "to": rng.choice(states)}
            for q in states for rl in letters
        ]
    else:
        transitions = [
            {"from": q, "letter": list(rl), "to": p}
            for q in states for rl in letters for p in states if rng.random() < 0.3
        ]
    return {"kind": kind, "channels": mask, "states": states, "initial": "q0",
            "accepting": accepting, "transitions": transitions}


def random_profile(rng: random.Random, channels: list[list[str]], n: int) -> dict:
    """Bounded-channel machines with seeded outputs: machine i reads only
    channel perm[i], advances round its n states on that channel's first
    symbol, stays on the second and jumps at random on any other, so every
    machine moves on its own and exactly n^k joint states are reachable."""
    k = len(channels)
    perm = list(range(k))
    rng.shuffle(perm)
    machines = []
    for i in range(k):
        states = [f"s{j}" for j in range(n)]
        read = perm[i]
        transitions = []
        for j in range(n):
            for idx, sym in enumerate(channels[read]):
                target = (j + 1) % n if idx == 0 else j if idx == 1 else rng.randrange(n)
                transitions.append({"from": states[j], "letter": [sym], "to": states[target]})
        machines.append({
            "states": states, "initial": "s0", "channels": [read],
            "output": {s: rng.choice(channels[i]) for s in states},
            "transitions": transitions,
        })
    return {"version": PROFILE_VERSION, "machines": machines}


def lockstep_profile(rng: random.Random, channels: list[list[str]], n: int) -> dict:
    """Witness-shaped profile: every machine reads every channel and shares
    one n-state cycle that replays a seeded script while the observed letter
    matches it; any other letter jumps to a seeded state.  All machines
    have the same transitions, so the joint product stays on the diagonal."""
    script = [tuple(rng.choice(c) for c in channels) for _ in range(n)]
    states = [f"t{j}" for j in range(n)]
    transitions = []
    for j in range(n):
        for letter in itertools.product(*channels):
            target = (j + 1) % n if letter == script[j] else rng.randrange(n)
            transitions.append({"from": states[j], "letter": list(letter), "to": states[target]})
    machines = [
        {"states": states, "initial": "t0",
         "output": {states[j]: script[j][i] for j in range(n)},
         "transitions": transitions}
        for i in range(len(channels))
    ]
    return {"version": PROFILE_VERSION, "machines": machines}


def primary_lasso(profile: dict, k: int):
    """Simulate the profile on its own output; returns (letters, loop_start)
    with letters given as symbol tuples."""
    machines = profile["machines"]
    tables = []
    for m in machines:
        mask = m.get("channels", list(range(k)))
        tables.append((mask, {(t["from"], tuple(t["letter"])): t["to"] for t in m["transitions"]}))
    state = tuple(m["initial"] for m in machines)
    seen: dict[tuple, int] = {}
    letters = []
    while state not in seen:
        seen[state] = len(letters)
        letter = tuple(m["output"][s] for m, s in zip(machines, state))
        letters.append(letter)
        state = tuple(
            table[s, tuple(letter[c] for c in mask)]
            for (mask, table), s in zip(tables, state)
        )
    return letters, seen[state]


def goal_won(goal: dict, letters, loop: int) -> bool:
    """Does the goal accept some finite prefix of the lasso?"""
    if goal["kind"] == "ltlf":
        return _ltlf_template_won(goal["formula"], letters, loop)
    mask = goal["channels"]
    accepting = set(goal["accepting"])
    succ: dict = {}
    for t in goal["transitions"]:
        succ.setdefault((t["from"], tuple(t["letter"])), set()).add(t["to"])
    current = frozenset([goal["initial"]])
    span, period = len(letters), len(letters) - loop
    seen = set()
    pos = 0
    while True:
        if current & accepting:
            return True
        canonical = pos if pos < span else loop + (pos - loop) % period
        if (current, canonical) in seen or not current:
            return False
        seen.add((current, canonical))
        letter = letters[canonical]
        rl = tuple(letter[c] for c in mask)
        current = frozenset(p for q in current for p in succ.get((q, rl), ()))
        pos += 1


def _ltlf_template_won(formula: str, letters, loop: int) -> bool:
    """Prefix acceptance of the three LTLf templates of `random_goal`."""
    word = letters + letters[loop:]  # every position, and the one after it
    (c1, s1), (c2, s2) = [(int(c), s) for c, s in re.findall(r"p(\d+)=([a-z]+)", formula)]
    if "X(" in formula:
        return any(word[t][c1] == s1 and word[t + 1][c2] == s2 for t in range(len(word) - 1))
    if formula.startswith("F("):
        return any(w[c1] == s1 for w in word) and any(w[c2] == s2 for w in word)
    for w in word:  # (p_c1=s1) U (p_c2=s2)
        if w[c2] == s2:
            return True
        if w[c1] != s1:
            return False
    return False


def verify_queries(seed: int, smoke: bool) -> list[Query]:
    rng = random.Random(f"verify:{seed}")
    random_shapes = VERIFY_SMOKE_RANDOM if smoke else VERIFY_RANDOM
    shapes = [("random", s) for s in random_shapes]
    shapes += [("lockstep", s) for s in (VERIFY_SMOKE_LOCKSTEP if smoke else VERIFY_LOCKSTEP)]
    queries = []
    for idx, (family, (k, m, n)) in enumerate(shapes):
        channels = [symbol_names(rng, m) for _ in range(k)]
        kinds = ["dfa", "nfa", "ltlf"]
        goals = [random_goal(rng, i, channels, kinds[(i + idx) % 3]) for i in range(k)]
        if family == "random":
            profile = random_profile(rng, channels, n)
        else:
            profile = lockstep_profile(rng, channels, n)
        letters, loop = primary_lasso(profile, k)
        winners = {i for i in range(k) if goal_won(goals[i], letters, loop)}
        wrong = idx % WRONG_W_EVERY == WRONG_W_EVERY - 1
        if wrong:
            winners ^= {rng.randrange(k)}
        game = {
            "version": GAME_VERSION,
            "agents": [{"name": f"p{i}", "alphabet": channels[i], "goal": goals[i]} for i in range(k)],
        }
        qid = f"verify-{family}-{idx:02d}-k{k}-m{m}-n{n}"
        game_file, profile_file = f"{qid}.game.json", f"{qid}.profile.json"
        queries.append(Query(
            qid=qid, kind="verify",
            argv=["verify", game_file, profile_file, "--winners", ",".join(map(str, sorted(winners))),
                  "--explain"],
            params={"k": k, "symbols": m, "n": n, "family": family, "wrong_w": wrong},
            files={game_file: game, profile_file: profile},
            expect={"game": game_file, "profile": profile_file, "winners": sorted(winners)},
            frontier=family == "random" and (k, m, n) == random_shapes[-1],
        ))
    return queries
