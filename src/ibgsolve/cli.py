"""Command-line front end.

Exit codes: 0 for a positive verdict (realizable, equilibrium, witness
found, successful conversion), 1 for a negative verdict, 2 for malformed
input or oracle overflow, 3 for an internal error (any other exception), so
that a crash never reads as a verdict.  Every command prints a one-line
verdict followed by a JSON result record; records are byte-identical across
runs except for the wall_time_s field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any

from . import formats, ltlf
from .alphabet import ProductAlphabet
from .automata import Afa, Nfa, afa_to_nfa, determinize
from .game import Ibg, StrategyProfile
from .oracle import OracleConfig, OracleOverflow, oracle_realizable_onesided, oracle_verify
from .realizability import realizable
from .safety import dump_arena
from .verification import verify


def _parse_winners(text: str, k: int) -> frozenset[int]:
    if text.strip() == "":
        return frozenset()
    try:
        agents = [int(x) for x in text.split(",")]
    except ValueError:
        raise formats.FormatError(f"winners: expected comma-separated agent indices, got {text!r}")
    for a in agents:
        if not 0 <= a < k:
            raise formats.FormatError(f"winners: agent {a} out of range for {k} agents")
    return frozenset(agents)


def _read_json(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise formats.FormatError(f"{path}: {e.strerror}")
    except json.JSONDecodeError as e:
        raise formats.FormatError(f"{path}: invalid JSON: {e}")
    except RecursionError:
        raise formats.FormatError(f"{path}: nested too deeply") from None


def _load_game(path: str) -> tuple[Ibg, list[str]]:
    return formats.load_game(_read_json(path))


def _load_profile(path: str, alphabet: ProductAlphabet) -> StrategyProfile:
    return formats.load_profile(_read_json(path), alphabet)


def _emit(record: dict, started: float) -> None:
    record["wall_time_s"] = round(time.monotonic() - started, 6)
    sys.stdout.write(formats.dump_json(record))


def _cmd_realizable(args: argparse.Namespace) -> int:
    started = time.monotonic()
    game, _ = _load_game(args.game)
    winners = _parse_winners(args.winners, game.k)
    verdict = realizable(game, winners)
    answer = "REALIZABLE" if verdict.realizable else "UNREALIZABLE"
    print(answer)
    record: dict[str, Any] = {
        "command": "realizable",
        "game": args.game,
        "winners": sorted(winners),
        "verdict": answer,
    }
    if verdict.lasso is not None:
        record["lasso"] = formats.lasso_to_jsonable(verdict.lasso, game.alphabet)
    if verdict.witness is not None:
        record["witness"] = formats.save_profile(verdict.witness)
        if args.witness:
            with open(args.witness, "w") as fh:
                fh.write(formats.dump_json(record["witness"]))
    if args.stats:
        record["stats"] = {
            "goal_dfa_states": list(verdict.stats.goal_dfa_states),
            "deviation_arena_sizes": {
                str(j): size for j, size in verdict.stats.deviation_arena_sizes.items()
            },
            "product_states": verdict.stats.product_states,
            "product_transitions": verdict.stats.product_transitions,
        }
    if args.dump_arenas:
        with open(args.dump_arenas, "w") as fh:
            for j, dev in sorted(verdict.deviation_games.items()):
                dump_arena(dev.arena, fh, header=f"deviation game, agent {j}", labels=dev.labels())
    _emit(record, started)
    return 0 if verdict.realizable else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    started = time.monotonic()
    game, _ = _load_game(args.game)
    profile = _load_profile(args.profile, game.alphabet)
    winners = _parse_winners(args.winners, game.k)
    report = verify(game, winners, profile)
    answer = "IS-W-NE" if report.is_equilibrium else "NOT-W-NE"
    print(answer)
    queries: dict[str, Any] = {}
    for i, result in sorted(report.winner_results.items()):
        entry: dict[str, Any] = {"role": "winner", "passed": result.passed}
        if result.passed and result.path is not None:
            entry["accepted_prefix_length"] = len(result.path)
        queries[str(i)] = entry
    for j, result in sorted(report.loser_results.items()):
        entry = {"role": "loser", "passed": result.passed}
        if not result.passed and result.violation is not None:
            entry["violation"] = result.violation.kind
            if args.explain:
                entry["primary_prefix"] = formats.letters_to_jsonable(
                    result.violation.prefix, game.alphabet
                )
                entry["escape"] = formats.letters_to_jsonable(
                    result.violation.escape, game.alphabet
                )
        queries[str(j)] = entry
    record = {
        "command": "verify",
        "game": args.game,
        "profile": args.profile,
        "winners": sorted(winners),
        "verdict": answer,
        "queries": queries,
        "stats": {
            "profile_states": report.stats["profile_states"],
            "deviation_arena_sizes": {
                str(j): size
                for j, size in sorted(report.stats["deviation_arena_sizes"].items())
            },
        },
    }
    _emit(record, started)
    return 0 if report.is_equilibrium else 1


def _cmd_convert(args: argparse.Namespace) -> int:
    started = time.monotonic()
    alphabet, automaton = formats.load_automaton_file(_read_json(args.input))
    if args.determinize:
        if not isinstance(automaton, Nfa):
            raise formats.FormatError("automaton: determinize expects an nfa")
        result = determinize(automaton)
        operation = "determinize"
    elif args.afa2nfa:
        if not isinstance(automaton, Afa):
            raise formats.FormatError("automaton: afa2nfa expects an afa")
        result = afa_to_nfa(automaton)
        operation = "afa2nfa"
    else:
        try:
            formula = ltlf.parse(args.ltlf2afa, alphabet)
            result = ltlf.compile_to_afa(formula, alphabet)
        except ltlf.LtlfSyntaxError as e:
            raise formats.FormatError(f"formula: {e}")
        except RecursionError:
            raise formats.FormatError("formula: nested too deeply") from None
        operation = "ltlf2afa"
    with open(args.output, "w") as fh:
        fh.write(formats.dump_json(formats.save_automaton_file(result)))
    print("CONVERTED")
    _emit(
        {
            "command": "convert",
            "operation": operation,
            "input": args.input,
            "output": args.output,
            "states": result.n_states,
        },
        started,
    )
    return 0


def _cmd_oracle_verify(args: argparse.Namespace) -> int:
    started = time.monotonic()
    game, _ = _load_game(args.game)
    profile = _load_profile(args.profile, game.alphabet)
    winners = _parse_winners(args.winners, game.k)
    config = OracleConfig(max_states=args.budget)
    record: dict[str, Any] = {
        "command": "oracle-verify",
        "game": args.game,
        "profile": args.profile,
        "winners": sorted(winners),
    }
    try:
        ok = oracle_verify(game, winners, profile, config)
    except OracleOverflow as e:
        record["verdict"] = "ORACLE-OVERFLOW"
        record["detail"] = str(e)
        print("ORACLE-OVERFLOW")
        _emit(record, started)
        return 2
    record["verdict"] = "IS-W-NE" if ok else "NOT-W-NE"
    print(record["verdict"])
    _emit(record, started)
    return 0 if ok else 1


def _cmd_oracle_onesided(args: argparse.Namespace) -> int:
    started = time.monotonic()
    game, _ = _load_game(args.game)
    winners = _parse_winners(args.winners, game.k)
    config = OracleConfig(
        max_states=args.budget, memory=args.memory, max_profiles=args.max_profiles
    )
    result = oracle_realizable_onesided(game, winners, config)
    print(result.status.upper())
    record: dict[str, Any] = {
        "command": "oracle-realizable-onesided",
        "game": args.game,
        "winners": sorted(winners),
        "verdict": result.status.upper(),
        "profiles_checked": result.profiles_checked,
        "truncated": result.truncated,
        "overflowed": result.overflowed,
    }
    if result.witness is not None:
        record["witness"] = formats.save_profile(result.witness)
    _emit(record, started)
    return 0 if result.status == "found-witness" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibgsolve",
        description="Equilibrium realizability and verification for iterated Boolean games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("realizable", help="decide whether a W-equilibrium exists")
    p.add_argument("game")
    p.add_argument("--winners", required=True, help="comma-separated agent indices; empty for none")
    p.add_argument("--witness", help="write the witness profile to this file when realizable")
    p.add_argument("--stats", action="store_true", help="include construction sizes in the record")
    p.add_argument("--dump-arenas", help="write deviation-game arenas as an edge list")
    p.set_defaults(run=_cmd_realizable)

    p = sub.add_parser("verify", help="check whether a profile is a W-equilibrium")
    p.add_argument("game")
    p.add_argument("profile")
    p.add_argument("--winners", required=True)
    p.add_argument("--explain", action="store_true", help="include violation paths in the record")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("convert", help="automaton conversions")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--determinize", action="store_true")
    group.add_argument("--afa2nfa", action="store_true")
    group.add_argument("--ltlf2afa", metavar="FORMULA")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(run=_cmd_convert)

    p = sub.add_parser("oracle", help="brute-force reference procedures")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)

    q = oracle_sub.add_parser("verify", help="explicit-state equilibrium check")
    q.add_argument("game")
    q.add_argument("profile")
    q.add_argument("--winners", required=True)
    q.add_argument("--budget", type=int, help="cap on explored states per search")
    q.set_defaults(run=_cmd_oracle_verify)

    q = oracle_sub.add_parser("realizable-onesided", help="search bounded-memory profiles for a witness")
    q.add_argument("game")
    q.add_argument("--winners", required=True)
    q.add_argument("--memory", type=int, default=1, choices=(0, 1))
    q.add_argument("--max-profiles", type=int, default=20_000)
    q.add_argument("--budget", type=int)
    q.set_defaults(run=_cmd_oracle_onesided)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (formats.FormatError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
