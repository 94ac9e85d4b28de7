#!/usr/bin/env python3
"""ibgsolve benchmark: one workload, closed loop, one client, one process.

    python3 bench/run.py --workload ring --seed 1 --seconds 20 --trace 0

The checkout is the directory above bench/.  Set-up imports ibgsolve from
`src/`, generates the workload from the seed and writes its input files
under `.bench_work/`; it is repeated and its median reported as `setup_s`.
Then whole passes over the workload's queries run through
`ibgsolve.cli.main` until `--seconds` have passed (the pass in progress
finishes); each query starts when the previous one returns.  Times are
scaled to a reference host speed (see REFERENCE_CHUNK_S).  Every answer of
the first pass is checked against the reference (reference.py) after the
timed passes, and every later pass must repeat the first pass's exit codes
and records (apart from `wall_time_s`).

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` untraced and traced passes alternate and it holds the per-layer
metrics (tracing.py).  A human-readable report goes to stderr, and the
per-query rows, latencies and spans to `.bench_results/`.  The exit code is
0 when every answer is right, 1 when one is not, 2 when the benchmark
cannot run (for instance without `src/ibgsolve`).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import pkgutil
import platform
import re
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# The host's speed drifts by 2x within minutes (other tenants share the
# cores and caches), so every time is scaled to a reference speed: multiplied
# by REFERENCE_CHUNK_S over the duration of `reference_chunk` measured around
# it.  REFERENCE_CHUNK_S is the chunk's duration on a quiet 2-core x86-64
# host under Python 3.11; on such a host the scaled times are wall seconds.
REFERENCE_LETTERS = list(itertools.product(range(3), repeat=4))
REFERENCE_CHUNK_S = 0.025
CHUNK_AFTER_S = 0.15
LATENCY_PERCENTILES = (50, 90, 95, 99, 99.9)
# What one pass of each workload is, in the terms of the end-to-end table.
PASS_METRIC = {"ring": "realize_s", "ring-shared": "refute_s", "convert": "convert_s", "verify": "verify_s"}
WALL_TIME_RE = re.compile(rb'\n\s*"wall_time_s": [^\n]*')


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny ladders, for the benchmark's own tests")
    return parser.parse_args(argv)


def import_ibgsolve(src: Path) -> SimpleNamespace:
    """Fresh import of the package, so each set-up repeat pays for it."""
    for name in [n for n in sys.modules if n == "ibgsolve" or n.startswith("ibgsolve.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("ibgsolve")
    modules = {info.name: importlib.import_module(f"ibgsolve.{info.name}")
               for info in pkgutil.iter_modules(package.__path__)}
    return SimpleNamespace(ibgsolve=package, modules=modules, **modules)


def write_inputs(work: Path, queries) -> None:
    """Write every input file, then drop the contents: a heap full of them
    would slow every garbage collection inside the timed queries."""
    work.mkdir(parents=True)
    for query in queries:
        for name, content in query.files.items():
            with open(work / name, "w") as fh:
                json.dump(content, fh, separators=(",", ":"))
        query.files = dict.fromkeys(query.files)


def read_commit(root: Path) -> str:
    """HEAD of a git checkout, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def verdict_and_digest(path: str) -> tuple[str, str]:
    """The verdict line and a digest of the whole output without
    `wall_time_s`, the one field allowed to differ between runs."""
    with open(path, "rb") as fh:
        data = fh.read()
    verdict = data.split(b"\n", 1)[0].decode(errors="replace")
    return verdict, hashlib.sha1(WALL_TIME_RE.sub(b"", data)).hexdigest()


def run_query(lib, query, tracer):
    """One CLI call with stdout going to a file, as a user redirecting it.
    Returns exit code, seconds, per-layer times and counts (traced), error."""
    gc.collect()
    stdout_path = f"{query.qid}.stdout"
    error = None
    layer_times = counts = None
    mark = tracer.begin_query(query.qid) if tracer else 0
    with open(stdout_path, "w") as out, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        started = perf_counter()
        try:
            rc = lib.cli.main(list(query.argv))
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
            error = err.getvalue()
        except Exception:
            rc = None
            error = traceback.format_exc()
        out.flush()
        elapsed = perf_counter() - started
    if tracer:
        layer_times, counts = tracer.end_query(mark, elapsed)
    written = os.path.getsize(stdout_path) + sum(
        os.path.getsize(p) for p in query.outputs if os.path.exists(p))
    verdict, digest = verdict_and_digest(stdout_path)
    return SimpleNamespace(rc=rc, wall=elapsed, seconds=None, bytes=written, error=error,
                           verdict=verdict, digest=digest, layer_times=layer_times, counts=counts)


def reference_chunk() -> float:
    """Wall seconds of a fixed piece of work shaped like the solver's
    product constructions: a breadth-first search over the product of four
    4-state counters, interning tuple states and storing every letter-keyed
    transition in a dict (256 states, 20,736 transitions).  A chunk with a
    small working set tracks the host's speed far worse, because neighbours
    slow memory-heavy code more than they slow arithmetic."""
    started = perf_counter()
    start = (0, 0, 0, 0)
    index = {start: 0}
    states = [start]
    trans = {}
    i = 0
    while i < len(states):
        state = states[i]
        for letter in REFERENCE_LETTERS:
            nxt = tuple((q + 1) % 4 if x == c % 3 else q for c, (q, x) in enumerate(zip(state, letter)))
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            trans[i, letter] = index[nxt]
        i += 1
    return perf_counter() - started


def speed_scale(before: float, after: float) -> float:
    """Factor that turns wall seconds into seconds at the reference host
    speed, from the reference chunks run nearest before and after."""
    return 2 * REFERENCE_CHUNK_S / (before + after)


def keep_first_pass(queries) -> dict[str, dict[str, str]]:
    """Move pass 0's stdout and output files aside for the reference check."""
    kept = {}
    for query in queries:
        files = {}
        for name in [f"{query.qid}.stdout"] + query.outputs:
            target = f"{name}.pass0"
            if os.path.exists(name):
                os.replace(name, target)
            files[name] = target
        kept[query.qid] = files
    return kept


def percentile_summary(samples: list[float]) -> dict:
    """Median and the highest listed percentile with at least ten samples
    beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    summary = {"count": n, "median_ms": statistics.median(ordered) * 1e3}
    for p in LATENCY_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            summary["percentile"] = p
            summary["value_ms"] = ordered[min(n - 1, int(n * p / 100))] * 1e3
    return summary


def measure(args, lib, queries):
    """Timed passes; returns the list of passes, each a list of results."""
    tracer = tracing.Tracer() if args.trace else None
    passes: list[tuple[bool, list]] = []
    kept = None
    deadline = perf_counter() + args.seconds
    while not passes or perf_counter() < deadline or (args.trace and len(passes) < 2):
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.install(lib.modules)
        results, waiting = [], []
        before = reference_chunk()
        try:
            for i, q in enumerate(queries):
                result = run_query(lib, q, tracer if traced else None)
                results.append(result)
                waiting.append(result)
                # Short queries share the chunks around them: a chunk after
                # each would cost more than the queries themselves.
                if result.wall >= CHUNK_AFTER_S or i == len(queries) - 1:
                    after = reference_chunk()
                    scale = speed_scale(before, after)
                    for w in waiting:
                        w.seconds = w.wall * scale
                        if w.layer_times:
                            w.layer_times = {k: v * scale for k, v in w.layer_times.items()}
                    waiting, before = [], after
        finally:
            if traced:
                tracer.remove()
        passes.append((traced, results))
        if kept is None:
            kept = keep_first_pass(queries)
    return passes, kept, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    root = BENCH_DIR.parent
    src = root / "src"
    if not (src / "ibgsolve" / "__init__.py").is_file():
        print(f"error: {src / 'ibgsolve'} not found; bench/ must sit in an ibgsolve checkout",
              file=sys.stderr)
        return 2
    header = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": read_commit(root), "loadavg": os.getloadavg(), "platform": platform.platform(),
    }
    print("# " + json.dumps(header), file=sys.stderr)
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    old_cwd = os.getcwd()
    try:
        setup_times = []
        before = reference_chunk()
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            started = perf_counter()
            lib = import_ibgsolve(src)
            queries = workloads.build(args.workload, args.seed, args.smoke)
            write_inputs(work, queries)
            wall = perf_counter() - started
            after = reference_chunk()
            setup_times.append(wall * speed_scale(before, after))
            before = after
        os.chdir(work)
        passes, kept, tracer = measure(args, lib, queries)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        before = reference_chunk()
        started = perf_counter()
        checks = [
            reference.check(q, lib, passes[0][1][i].rc, kept[q.qid][f"{q.qid}.stdout"],
                            kept[q.qid], args.seed)
            for i, q in enumerate(queries)
        ]
        check_s = (perf_counter() - started) * speed_scale(before, reference_chunk())
    finally:
        os.chdir(old_cwd)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / ".bench_work").rmdir()
    return report(args, root, header, queries, setup_times, passes, checks, check_s,
                  peak_rss_mb, tracer)


def report(args, root, header, queries, setup_times, passes, checks, check_s, peak_rss_mb, tracer) -> int:
    first = passes[0][1]
    problems: dict[str, list[str]] = {q.qid: list(checks[i][0]) for i, q in enumerate(queries)}
    for i, q in enumerate(queries):
        if first[i].error:
            problems[q.qid].append(f"pass 0 raised: {first[i].error.strip().splitlines()[-1]}")
    attempted = failed = 0
    for p, (_, results) in enumerate(passes):
        for i, q in enumerate(queries):
            attempted += 1
            r = results[i]
            bad = bool(problems[q.qid]) if p == 0 else (
                r.error is not None or r.rc != first[i].rc or r.digest != first[i].digest)
            if bad:
                failed += 1
                if p > 0:
                    problems[q.qid].append(f"pass {p} differs from pass 0 (exit {r.rc})")
    plain = [results for traced, results in passes if not traced]
    traced_passes = [results for traced, results in passes if traced]
    medians = query_medians(plain)
    pass_s = sum(medians)
    frontier = [i for i, q in enumerate(queries) if q.frontier]
    samples = [r.seconds for results in plain for r in results]

    rows = []
    for i, q in enumerate(queries):
        row = {"id": q.qid, "kind": q.kind, "params": q.params, "exit": first[i].rc,
               "answer": first[i].verdict, "sizes": checks[i][1], "median_s": medians[i],
               "times_s": [results[i].seconds for results in plain],
               "wall_s": [results[i].wall for results in plain], "bytes": first[i].bytes,
               "problems": problems[q.qid]}
        if traced_passes:
            row["layer_counts"] = traced_passes[0][i].counts
        rows.append(row)

    if args.trace:
        metrics = per_layer_metrics(traced_passes, pass_s, check_s)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "pass_s": (pass_s, "s"),
            "largest_s": (statistics.median(results[i].seconds for results in plain for i in frontier), "s"),
            "queries_per_s": (len(queries) / pass_s, "1/s"),
            "output_bytes": (statistics.median(sum(r.bytes for r in results) for results in plain), "B"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "correct_frac": ((attempted - failed) / attempted, "ratio"),
        }
    latency = percentile_summary(samples)
    summary = {
        "header": header, "passes": len(passes), "traced_passes": len(traced_passes),
        "pass_s_is": PASS_METRIC[args.workload], "check_s": check_s,
        "setup_times_s": setup_times, "latency": latency, "failed_frac": failed / attempted,
        "missing_layers": tracer.missing if tracer else [],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "rows": rows,
    }
    if tracer:
        summary["spans"] = tracer.spans
    results_dir = root / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(summary))
    print_report(summary, queries, rows, latency, failed, attempted, out)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary["metrics"]}))
    return 0 if correct else 1


def query_medians(passes) -> list[float]:
    """Each query's median time over the passes.  Their sum is the typical
    pass: noise from a shared host comes in bursts that hit single queries,
    and a per-query median drops them where a median of pass totals keeps
    part of every burst."""
    return [statistics.median(results[i].seconds for results in passes) for i in range(len(passes[0]))]


def per_layer_metrics(traced_passes, pass_s, check_s) -> dict:
    metrics = {}
    for name in tracing.TIMES:
        per_pass = [sum((r.layer_times or {}).get(name, 0.0) for r in results) for results in traced_passes]
        metrics[name] = (statistics.median(per_pass), "s")
    counts = {name: sum((r.counts or {}).get(name, 0) for r in traced_passes[0]) for name in tracing.COUNTS}
    for name in tracing.COUNTS:
        metrics[name] = (counts[name], "count")
    edges = counts["realizability.product_edges"]
    metrics["realizability.letters_per_edge"] = (
        counts["realizability.product_transitions"] / edges if edges else 0.0, "ratio")
    metrics["oracle.check_s"] = (check_s, "s")
    metrics["trace.overhead_frac"] = (sum(query_medians(traced_passes)) / pass_s - 1, "ratio")
    return metrics


def print_report(summary, queries, rows, latency, failed, attempted, out) -> None:
    err = sys.stderr
    print(f"# passes {summary['passes']} (traced {summary['traced_passes']}), "
          f"queries per pass {len(queries)}", file=err)
    for row in rows:
        flag = "" if not row["problems"] else "  FAILED: " + "; ".join(row["problems"])
        print(f"  {row['id']:<36} {row['answer']:<12} {row['median_s'] * 1e3:10.1f} ms "
              f"{row['bytes']:>10} B  {json.dumps(row['sizes'])}{flag}", file=err)
    print(f"# query latency: median {latency['median_ms']:.2f} ms"
          + (f", p{latency['percentile']} {latency['value_ms']:.2f} ms" if "percentile" in latency else "")
          + f" over {latency['count']} queries", file=err)
    print(f"# failed_frac {failed / attempted:.4f} ratio ({failed} of {attempted}); "
          f"reference checks took {summary['check_s']:.2f} s", file=err)
    if summary["missing_layers"]:
        print(f"# missing layers: {', '.join(summary['missing_layers'])}", file=err)
    for name, m in summary["metrics"].items():
        print(f"  {name:<40} {m['value']:>16.6f} {m['unit']}", file=err)
        if name == "pass_s":
            print(f"  {summary['pass_s_is']:<40} {m['value']:>16.6f} {m['unit']}  (pass_s on this workload)",
                  file=err)
    print(f"# rows and spans: {out}", file=err)


if __name__ == "__main__":
    sys.exit(main())
