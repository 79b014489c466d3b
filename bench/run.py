"""vgbs benchmark: closed-loop query workloads with oracle-checked answers.

    python3 bench/run.py --workload {cli,tuples,reach} --seed N --seconds S --trace {0,1}

One process, one client: each query starts when the previous one has
returned.  The engine is imported from src/ (it need not be installed)
and receives only the generated inputs.  Every answer is checked after
the timed loop by oracles that share no code with the engine.

--trace 0 prints the end-to-end metrics of an untraced run.  --trace 1
runs the same query stream untraced and then traced on fresh
presentations, and prints the per-layer metrics with the tracing
overhead.  The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

QUERY_LIMIT_S = 4.0  # per-query time limit; a stopped query fails and counts as the limit
SETUP_REPEATS = 11
UNTRACED_SHARE = 0.4  # of --seconds, in a traced run; the traced pass gets the rest

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "max_size_p50_ms": "ms",
    "decided_share": "share",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}


class QueryTimeout(BaseException):
    """Raised by the alarm; a BaseException so no engine handler can swallow it."""


def _alarm(signum, frame):
    raise QueryTimeout()


def setup_once(workload, inputs):
    """Import vgbs afresh and build the presentations the workload
    reuses; returns (seconds, state)."""
    for name in [m for m in sys.modules if m == "vgbs" or m.startswith("vgbs.")]:
        del sys.modules[name]
    begin = perf_counter()
    for name in workload.modules:
        importlib.import_module(name)
    state = workload.build(inputs)
    return perf_counter() - begin, state


def run_pass(workload, state, stream, seconds, max_queries=None, tracer=None):
    """Closed loop over whole blocks of the stream until the time is up,
    so every run has the same query mix.  Generating and converting the
    next query is excluded from the clock.  Returns (records, wall)."""
    records = []
    excluded = 0.0
    begin = perf_counter()
    deadline = begin + seconds
    while max_queries is None or len(records) < max_queries:
        made = perf_counter()
        q = next(stream)
        if q is None:
            excluded += perf_counter() - made
            if perf_counter() - excluded >= deadline:
                break
            continue
        prepared = workload.prepare(state, q)
        ready = perf_counter()
        excluded += ready - made
        if tracer is not None:
            tracer.query_id = len(records)
        error = None
        output = None
        signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
        try:
            output = workload.execute(prepared)
        except QueryTimeout:
            error = "timeout"
        except Exception:  # a crash is a failed query, and the loop goes on
            error = traceback.format_exc()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - ready
        if error == "timeout":
            elapsed = QUERY_LIMIT_S
        records.append((q, output, error, elapsed))
    return records, perf_counter() - begin - excluded


def mersenne_probe():
    """Time the 2^61-1 rank-one query (gen.mersenne_query), stopped at the
    per-query limit.  The engine's trial-division factoring stalls on it,
    so it is timed apart from the counted queries.  Returns (seconds, ok);
    ok is False for a crash or a wrong answer, not for a stop at the limit."""
    reach = WORKLOADS["reach"]()
    q = gen.mersenne_query()
    graph = importlib.import_module("vgbs.graph")
    prepared = reach.prepare({q[0].name: graph.build_presentation(graph.graph_from_dict(q[0].doc))}, q)
    begin = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
    try:
        answer = reach.execute(prepared)
    except QueryTimeout:
        return perf_counter() - begin, True
    except Exception:
        print(f"mersenne61 probe failed: {traceback.format_exc().strip().splitlines()[-1]}", file=sys.stderr)
        return perf_counter() - begin, False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = perf_counter() - begin
    ok, _ = reach.check(q, answer)
    if not ok:
        print(f"mersenne61 probe: wrong answer {str(answer)[:200]}", file=sys.stderr)
    return elapsed, ok


def check(workload, records):
    """(correct, attempted, failed, decided) over the records."""
    correct = True
    failed = decided = 0
    for q, output, error, _ in records:
        if error is not None:
            failed += 1
            if error != "timeout":
                correct = False
                print(f"query failed: {error.strip().splitlines()[-1]}", file=sys.stderr)
            continue
        try:
            ok, was_decided = workload.check(q, output)
        except Exception:  # output the oracle cannot read is a wrong answer
            ok, was_decided = False, False
        if not ok:
            correct = False
            failed += 1
            print(f"wrong answer: {q[0]} -> {str(output)[:200]}", file=sys.stderr)
        decided += was_decided and ok
    return correct, len(records), failed, decided


def end_to_end(workload, records, wall, setup_s, rss_mb, failed, decided):
    times_ms = [r[3] * 1000.0 for r in records]
    largest = [r[3] * 1000.0 for r in records if workload.largest(r[0])]
    attempted = len(records)
    return {
        "setup_s": setup_s,
        "queries_per_s": attempted / wall,
        "query_p50_ms": statistics.median(times_ms),
        "query_p90_ms": statistics.quantiles(times_ms, n=10, method="inclusive")[8],
        "max_size_p50_ms": statistics.median(largest),
        "decided_share": decided / attempted,
        "ok_share": (attempted - failed) / attempted,
        "peak_rss_mb": rss_mb,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = HERE.parent / "src"
    if not (src / "vgbs" / "__init__.py").is_file():
        print(f"bench: no vgbs package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    oracles.self_check()
    signal.signal(signal.SIGALRM, _alarm)

    workload = WORKLOADS[args.workload]()
    inputs = workload.inputs(args.seed)
    timings = []
    for _ in range(SETUP_REPEATS):
        seconds, state = setup_once(workload, inputs)
        timings.append(seconds)
    setup_s = statistics.median(timings)

    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        if hasattr(workload, "write_graphs"):
            workload.write_graphs(inputs, workdir)
        if not args.trace:
            records, wall = run_pass(workload, state, workload.stream(args.seed, inputs), args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            correct, attempted, failed, decided = check(workload, records)
            metrics = end_to_end(workload, records, wall, setup_s, rss_mb, failed, decided)
            units = END_TO_END_UNITS
        else:
            plain, _ = run_pass(workload, state, workload.stream(args.seed, inputs),
                                args.seconds * UNTRACED_SHARE)
            state = workload.build(inputs)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced, _ = run_pass(workload, state, workload.stream(args.seed, inputs),
                                     args.seconds * (1 - UNTRACED_SHARE), len(plain), tracer)
            finally:
                tracer.uninstall()
            # same queries on equally fresh caches; stalled queries count only their limit
            pairs = [(a[3], b[3]) for a, b in zip(plain, traced) if a[2] != "timeout" and b[2] != "timeout"]
            overhead = sum(b for _, b in pairs) / sum(a for a, _ in pairs)
            if tracer.missing:
                print("trace: missing functions: " + ", ".join(tracer.missing))
            correct, attempted, failed, _ = check(workload, plain + traced)
            metrics = tracer.metrics(overhead)
            probe_s, probe_ok = mersenne_probe()
            correct = correct and probe_ok
            metrics["gbs.mersenne61_probe_s"] = probe_s
            units = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, _layer_unit(k))} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name):
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
