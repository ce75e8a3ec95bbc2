"""polygonic benchmark: one workload per run, single process, single thread.

    python3 perfbench/run.py --workload hh-field --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; polygonic is imported from ./src.
A run repeats whole passes over the workload's ops until --seconds have
passed (at least one pass).  Every pass starts from a fresh import of
polygonic and freshly built inputs, so no pass sees another's caches.  Each
op runs under a per-op time cap and its answer is checked against an oracle
from oracles.py.

--trace 0 prints the end-to-end metrics.  setup_s is the median of at least
MIN_SETUPS timed set-ups spread over the run; wall_s is the median pass.
Both are scaled to a fixed host speed by a reference loop timed beside them
(hostclock.py); the measured times are printed too.  --trace 1 makes an
untimed warm pass, then alternates traced and untraced passes, prints the
per-layer metrics (self time per layer, counts, and the tracing overhead)
and writes every span to .perfbench/ once at the end.  The last line of
stdout is one JSON object; the lines before it record the environment and
each failed op.  See perfbench/README.md.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

import capping  # noqa: E402  (benchmark modules sit next to this file)
import workloads  # noqa: E402
from hostclock import REF_S, HostClock  # noqa: E402
from spans import Tracer  # noqa: E402

# Set-ups timed before the first pass, when the process holds no results
# yet; more are timed between ops and after the last pass, up to MIN_SETUPS.
EARLY_SETUPS = 10
MIN_SETUPS = 30
# An untraced run times one more set-up between ops at most this often, so
# that setup_s samples the host over the whole run, not over a second or two
# at its end (a pass of hh-field or int-normal-form takes half a minute).
SETUP_EVERY_S = 1.0
# It samples the reference loop (hostclock.py) this often: between ops at
# most this often in wall time, and inside an op after this much CPU time.
HOST_EVERY_S = 0.5
# A fresh process runs its first second or two measurably slower on a shared
# host, and its first set-ups also pay for growing the heap and importing
# polygonic's dependencies.  Untimed set-ups for this long before anything
# is timed keep both out of every metric.
WARM_UP_S = 1.5
# No op starts after this many seconds, and no op's cap reaches past it, so
# a run ends well inside three minutes even when every op hits its cap.
RUN_DEADLINE_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}

# Per-layer self times: metric name -> span name.
LAYER_TIMES = {
    "hochschild.bar_complex_s": "hochschild.bar_complex",
    "hochschild.chain_maps_s": "hochschild.chain_maps",
    "hochschild.chain_check_s": "hochschild.chain_check",
    "hochschild.homology_s": "hochschild.homology",
    "hochschild.induced_s": "hochschild.induced",
    "hochschild.iso_check_s": "hochschild.iso_check",
    "rings.snf_s": "rings.snf",
    "rings.int_kernel_s": "rings.int_kernel",
    "rings.solve_int_s": "rings.solve_int",
    "rings.invariant_factors_s": "rings.invariant_factors",
    "rings.matmul_s": "rings.matmul",
    "witt.add_s": "witt.add",
    "witt.multiply_s": "witt.multiply",
    "witt.frobenius_s": "witt.frobenius",
    "witt.verschiebung_s": "witt.verschiebung",
    "witt.recover_base_s": "witt.recover_base",
    "mackey.axioms_s": "mackey.axioms",
    "mackey.gfp_s": "mackey.gfp",
    "mackey.transfer_core_s": "mackey.transfer_core",
    "mackey.evaluate_span_s": "mackey.evaluate_span",
    "qfin.pullback_s": "qfin.pullback",
    "qfin.compose_spans_s": "qfin.compose_spans",
    "cyclic.hom_set_s": "cyclic.hom_set",
    "cyclic.cut_s": "cyclic.cut",
    "operad.envelope_s": "operad.envelope",
    "truncation.divide_s": "truncation.divide",
    "cli.invoke_s": "cli.invoke",
    "trace.bookkeeping_s": "trace.bookkeeping",
}
LAYER_COUNTS = (
    "hochschild.bar_dim_total",
    "hochschild.boundary_nnz",
    "rings.snf_calls",
    "rings.snf_max_bits",
    "rings.snf_capped",
    "witt.ops",
    "mackey.axiom_checks",
    "cyclic.hom_set_size",
    "cli.invocations",
)


class SetupError(Exception):
    pass


def load_polygonic():
    """Import polygonic from ./src afresh and return its modules."""
    for name in [m for m in sys.modules if m == "polygonic" or m.startswith("polygonic.")]:
        del sys.modules[name]
    pkg = importlib.import_module("polygonic")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise SetupError(f"polygonic imported from {pkg.__file__}, not from {SRC}")
    importlib.import_module("polygonic.cli")
    from click.testing import CliRunner

    names = ("rings", "truncation", "cyclic", "operad", "qfin", "mackey", "witt", "hochschild", "cli")
    pg = types.SimpleNamespace(**{n: sys.modules[f"polygonic.{n}"] for n in names})
    pg.runner = CliRunner()
    return pg


def warm_up(workload, seed, seconds):
    end = time.perf_counter() + seconds
    setup(workload, seed)
    while time.perf_counter() < end:
        setup(workload, seed)


def setup(workload, seed):
    """Import polygonic afresh and build the inputs; returns (ops, start, end)."""
    gc.collect()
    start = time.perf_counter()
    pg = load_polygonic()
    ops = workloads.WORKLOADS[workload](pg, seed, OUT)
    return ops, start, time.perf_counter()


def sample_setup(workload, seed):
    """Time one more set-up between ops, then put the running pass's modules back."""
    saved = {name: mod for name, mod in sys.modules.items() if name == "polygonic" or name.startswith("polygonic.")}
    interval = setup(workload, seed)[1:]
    for name in [m for m in sys.modules if m == "polygonic" or m.startswith("polygonic.")]:
        del sys.modules[name]
    sys.modules.update(saved)
    gc.collect()
    return interval


def run_pass(ops, expected, seed, deadline, tracer=None, between=None, clock=None):
    """Run every op once; returns ((start, end) of each op run, failures).

    between() runs before each op, outside its timing.  A clock samples the
    host inside each op; `end` leaves out the time that took."""
    intervals, failures = [], []
    for idx, op in enumerate(ops):
        if between is not None:
            between()
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            failures.append(_failure(op, seed, "deadline", 0.0))
            continue
        cap = min(op.cap_s, remaining)
        if tracer is not None:
            tracer.op_id = idx
            call = lambda: op.traced(tracer)  # noqa: E731
        else:
            call = op.run
        if clock is not None:
            clock.arm()
        start = time.perf_counter()
        try:
            result = capping.run_capped(call, cap)
            status = None
        except capping.OpTimeout:
            status = f"timeout after {cap:g} s"
        except Exception as exc:  # a raising op is a failed op, never a crashed run
            status = f"raised {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if clock is not None:
            end -= clock.disarm()
        intervals.append((start, end))
        latency = end - start
        if status is None:
            try:
                if op.answer(result) != expected[idx]:
                    status = "wrong answer"
            except Exception as exc:
                status = f"unreadable answer: {type(exc).__name__}: {exc}"
        if status is None:
            if tracer is not None and op.counts:
                op.counts(tracer, result)
        else:
            failures.append(_failure(op, seed, status, latency))
    return intervals, failures


def _failure(op, seed, status, latency):
    record = {"kind": op.kind, "size": op.size, "seed": seed, "status": status, "latency_s": latency}
    if op.detail is not None:
        record["input"] = op.detail
    return record


def commit_id():
    """HEAD of ./.git read from files (no subprocess); 'unknown' in a plain checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quantile(values, k):
    """k-th decile (k = 5 is the median); statistics.quantiles needs two points."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[k - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tracers, plain_walls, traced_walls):
    out = {}
    per_pass = [t.self_times() for t in tracers]
    for name, span in LAYER_TIMES.items():
        out[name] = metric(statistics.median(times.get(span, 0.0) for times in per_pass), "s")
    first = tracers[0]
    counts = dict(first.counts)
    counts.update(first.maxima)
    counts["rings.snf_capped"] = first.capped("rings.snf")
    for name in LAYER_COUNTS:
        out[name] = metric(counts.get(name, 0), "count")
    out["trace.overhead_s"] = metric(statistics.median(traced_walls) - statistics.median(plain_walls), "s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(SRC):
        print(f"error: no polygonic sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    # mackey gfp is measured at its default pool size of 1.
    os.environ.pop("POLYGONIC_MAX_THREADS", None)
    capping.install()

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }
    print(json.dumps({"env": env}, sort_keys=True))

    clock = HostClock(HOST_EVERY_S)
    setups = []  # (start, end) of every timed set-up

    def timed_setup(sample=setup):
        setups.append(sample(args.workload, args.seed)[-2:])
        clock.sample()

    try:
        warm_up(args.workload, args.seed, WARM_UP_S)
        clock.sample()
        started = time.perf_counter()
        for _ in range(EARLY_SETUPS):
            timed_setup()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    deadline = started + RUN_DEADLINE_S
    # The first pass of a process runs several percent slower than later
    # ones.  A traced run therefore starts with an untimed "warm" pass, so
    # that its traced and untraced passes compare like with like.
    first, cycle = (("warm", "traced", "plain"), ("traced", "plain")) if args.trace else (("plain",), ("plain",))
    walls, scaled_walls, latencies, failures, tracers = {"warm": [], "plain": [], "traced": []}, [], [], [], []
    expected = None
    attempted = 0
    passes = 0
    next_sample = time.perf_counter() + SETUP_EVERY_S

    def between():
        nonlocal next_sample
        now = time.perf_counter()
        if now >= next_sample:
            timed_setup(sample_setup)
            next_sample = time.perf_counter() + SETUP_EVERY_S
        elif now >= clock.times[-1] + HOST_EVERY_S:
            clock.sample()

    while True:
        mode = first[passes] if passes < len(first) else cycle[(passes - len(first)) % len(cycle)]
        pass_started = time.perf_counter()
        ops, *interval = setup(args.workload, args.seed)
        setups.append(interval)
        clock.sample()
        if expected is None:
            expected = [op.expect() for op in ops]
        tracer = Tracer() if mode == "traced" else None
        gc.collect()
        if args.trace:
            intervals, failed = run_pass(ops, expected, args.seed, deadline, tracer)
        else:
            intervals, failed = run_pass(ops, expected, args.seed, deadline, between=between, clock=clock)
        clock.sample()
        walls[mode].append(sum(end - start for start, end in intervals))
        attempted += len(ops)
        failures.extend(failed)
        if mode == "plain":
            # One scale per pass: a single op of hh-field runs for up to 20 s,
            # longer than the host keeps one speed, and is sampled only at its ends.
            scaled_walls.append(walls[mode][-1] * clock.scale(intervals[0][0], intervals[-1][1]))
            latencies.extend(end - start for start, end in intervals)
        elif mode == "traced":
            tracers.append(tracer)
        passes += 1
        now = time.perf_counter()
        last = now - pass_started
        if passes >= len(first) and (now - started + last * len(cycle) > args.seconds or now + last > deadline):
            break
    ops_per_pass = len(ops)
    # Release the last pass's inputs and results before the remaining set-ups.
    ops = tracer = None
    gc.collect()
    while len(setups) < MIN_SETUPS:
        timed_setup()

    for record in failures:
        print(json.dumps({"failed_op": record}, sort_keys=True))
    correct = not any(f["status"] == "wrong answer" for f in failures)

    if args.trace:
        metrics = layer_metrics(tracers, walls["plain"], walls["traced"])
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"env": env, "metrics": metrics, "passes": [t.to_json() for t in tracers]}, fh)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = {
            "setup_s": statistics.median((end - start) * clock.scale(start, end) for start, end in setups),
            "wall_s": statistics.median(scaled_walls),
            "ok_share": (attempted - len(failures)) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: metric(value, END_TO_END[name]) for name, value in metrics.items()}
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6f} {m['unit']}")
    # Reported but not gated: per-op percentiles settle only on small-exact,
    # which runs thousands of ops; the other workloads run a few dozen.
    print(f"{'fail_share':32s} {len(failures) / attempted:>16.6f} share")
    if latencies:
        for label, k in (("op_p50_ms", 5), ("op_p90_ms", 9)):
            print(f"{label:32s} {1000 * quantile(latencies, k):>16.6f} ms (of {len(latencies)} untraced ops)")
    # The measured times behind the scaled setup_s and wall_s (hostclock.py).
    print(f"{'setup_measured_s':32s} {statistics.median(end - start for start, end in setups):>16.6f} s (of {len(setups)} set-ups)")
    if walls["plain"]:
        print(f"{'wall_measured_s':32s} {statistics.median(walls['plain']):>16.6f} s")
    print(f"{'reference_loop_ms':32s} {1000 * statistics.median(clock.loops):>16.6f} ms (of {len(clock.loops)}; {1000 * REF_S:g} ms at the scale of setup_s and wall_s)")
    print(f"passes {passes}, ops attempted {attempted}, failed {len(failures)}, ops per pass {ops_per_pass}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
