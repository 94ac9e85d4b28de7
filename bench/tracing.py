"""Spans around the public function of each ibgsolve layer.

`Tracer.install` wraps every function listed in `LAYERS` wherever a module
of the package binds it (the defining module and every module that imported
it by name), so a traced pass runs exactly the code the CLI runs, with a
span at each layer boundary.  `Tracer.remove` puts the originals back.  A
function that no longer exists is reported as missing and the run goes on.

Spans stay in memory: name, start, end, parent span, query id.  A span's
self time is its duration minus its children's durations and minus the time
spent counting sizes on its children's results; per-layer times are sums of
self times, so together with `cli.other_s` they add up to the traced total.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


def _count_afa(afa, counts):
    counts["ltlf.afa_states"] += afa.n_states


def _count_nfa(nfa, counts):
    counts["automata.nfa_states"] += nfa.n_states
    counts["automata.nfa_transitions"] += len(nfa.triples)


def _count_dfa(dfa, counts):
    counts["automata.dfa_states"] += dfa.n_states


def _count_goal_dfa(dfa, counts):
    counts["realizability.goal_dfa_states"] += dfa.n_states


def _count_arena(dev, counts):
    counts["realizability.arena_vertices"] += dev.size


def _count_product(ab, counts):
    counts["realizability.product_states"] += ab.n_states
    counts["realizability.product_transitions"] += len(ab.trans)
    counts["realizability.product_edges"] += len({(v, w) for (v, _), w in ab.trans.items()})


def _count_lasso(lasso, counts):
    if lasso is not None:
        counts["realizability.lasso_length"] += lasso.span


def _count_witness(profile, counts):
    counts["realizability.witness_states"] += profile.machines[0].n_states
    counts["realizability.witness_transitions"] += sum(len(m.trans) for m in profile.machines)


def _count_profile(g, counts):
    counts["game.profile_states"] += g.n_states
    counts["game.profile_transitions"] += len(g.trans)


def _count_deviation(result, counts):
    counts["verification.deviation_vertices"] += result[2].size


# (module, function, per-layer time metric, size counter).  cli._read_json
# decodes the input files, so it counts as loading.
LAYERS = [
    ("cli", "_read_json", "formats.load_s", None),
    ("formats", "load_game", "formats.load_s", None),
    ("formats", "load_profile", "formats.load_s", None),
    ("formats", "load_automaton_file", "formats.load_s", None),
    ("formats", "save_profile", "formats.emit_s", None),
    ("formats", "save_automaton_file", "formats.emit_s", None),
    ("formats", "lasso_to_jsonable", "formats.emit_s", None),
    ("formats", "letters_to_jsonable", "formats.emit_s", None),
    ("formats", "dump_json", "formats.emit_s", None),
    ("ltlf", "parse", "ltlf.parse_s", None),
    ("ltlf", "compile_to_afa", "ltlf.compile_s", _count_afa),
    ("automata", "afa_to_nfa", "automata.afa_to_nfa_s", _count_nfa),
    ("automata", "determinize", "automata.determinize_s", _count_dfa),
    ("realizability", "goal_as_dfa", "realizability.goal_dfa_s", _count_goal_dfa),
    ("realizability", "build_deviation_game", "realizability.deviation_s", _count_arena),
    ("safety", "solve_safety", "safety.solve_s", None),
    ("realizability", "_build_product", "realizability.product_s", _count_product),
    ("realizability", "buchi_nonempty", "realizability.nonempty_s", _count_lasso),
    ("realizability", "extract_witness", "realizability.witness_s", _count_witness),
    ("game", "product_profile", "game.product_profile_s", _count_profile),
    ("verification", "query_goal", "verification.query_goal_s", None),
    ("verification", "i_query", "verification.i_query_s", None),
    ("verification", "j_query", "verification.j_query_s", _count_deviation),
]

COUNTS = [
    "ltlf.afa_states",
    "automata.nfa_states",
    "automata.nfa_transitions",
    "automata.dfa_states",
    "realizability.goal_dfa_states",
    "realizability.arena_vertices",
    "realizability.product_states",
    "realizability.product_transitions",
    "realizability.product_edges",
    "realizability.lasso_length",
    "realizability.witness_states",
    "realizability.witness_transitions",
    "game.profile_states",
    "game.profile_transitions",
    "verification.deviation_vertices",
]

TIMES = sorted({metric for _, _, metric, _ in LAYERS}) + ["cli.other_s"]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, query id, counting time]
        self.stack: list[int] = []
        self.query: str | None = None
        self.counts: dict[str, int] = defaultdict(int)
        self.outside_counting = 0.0  # counting time not inside any span
        self.missing: list[str] = []
        self.metric_of: dict[str, str] = {}
        self._patches: list[tuple[object, str, object]] = []

    def install(self, modules: dict[str, object]) -> None:
        """`modules` maps short names ("cli", "formats", ...) to the loaded
        modules of the package."""
        for mod_name, func_name, metric, counter in LAYERS:
            name = f"{mod_name}.{func_name}"
            original = getattr(modules.get(mod_name), func_name, None)
            if original is None:
                self.missing.append(name)
                continue
            self.metric_of[name] = metric
            wrapper = self._wrap(name, original, counter)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.query, 0.0]
            tracer.spans.append(span)
            tracer.stack.append(index)
            span[1] = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer.stack.pop()
            if counter is not None:
                started = perf_counter()
                counter(return_value, tracer.counts)
                spent = perf_counter() - started
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]][5] += spent
                else:
                    tracer.outside_counting += spent
            return return_value

        return wrapper

    def begin_query(self, query: str) -> int:
        """Start attributing spans and counts to a query; returns the index
        of its first span, for `end_query`."""
        self.query = query
        self.counts = defaultdict(int)
        self.outside_counting = 0.0
        return len(self.spans)

    def end_query(self, first: int, elapsed: float) -> tuple[dict[str, float], dict[str, int]]:
        """Per-layer self times and counts of the query whose spans start at
        index `first` and which took `elapsed` seconds in total."""
        spans = self.spans[first:]
        times: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(spans)
        top_level = 0.0
        for span in spans:
            duration = span[2] - span[1]
            parent = span[3]
            if parent >= first:
                child_time[parent - first] += duration
            else:
                top_level += duration
        for i, span in enumerate(spans):
            times[self.metric_of[span[0]]] += (span[2] - span[1]) - child_time[i] - span[5]
        times["cli.other_s"] += elapsed - top_level - self.outside_counting
        self.query = None
        return dict(times), dict(self.counts)
