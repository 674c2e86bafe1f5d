"""pxpy benchmark: end-to-end metrics per workload, or a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Each run imports pxpy from ./src of the checkout it sits in and never from
an installed copy; without ./src/pxpy it exits with code 2. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. The lines before it print every metric by name
with its unit, then one JSON line of run metadata.

Operations are timed one at a time from outside pxpy, over repeated passes
through the workload's operations; the timings use each operation's
fastest repeats (see Tally), and throughput is their work over
their summed latencies, so the benchmark's own checking between operations
is not counted. Every operation's output is checked against reference.py;
a mismatch, an exception or an unexpected exit code counts as failed.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("certify", "explain", "bigtrace", "cli")
SETUP_PROBES = 11
FASTEST_REPEATS = 3
# Passes over a workload's operations in a traced run. The traced part does
# a fixed amount of work, so its counts repeat exactly for a seed and its
# times compare across commits; the rest of --seconds runs untraced, for
# the tracing overhead.
TRACED_PASSES = {"certify": 4, "explain": 16, "bigtrace": 4, "cli": 20}
PERCENTILE_LADDER = (50, 75, 90, 95, 99, 99.9)

WORK_ALIAS = {
    "certify": "exponent pairs searched per second at workers=1, strips included",
    "explain": "candidates_per_s (candidates explained per second)",
    "bigtrace": "candidates_per_s (candidates explained per second)",
    "cli": "commands_per_s (pxpy.cli.main commands per second, in process)",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Fixed boxes for oracle.pool.overhead_ms: all above the oracle's pool
# threshold, so workers=2 starts a pool.
POOL_OVERHEAD_BOXES = ((2, 1, 120, 120), (3, 2, 120, 120), (97, 1, 90, 90))
POOL_OVERHEAD_REPEATS = 3
# Passes over certify's boxes at workers=2 after the timed loop, for the
# ungated pool_pairs_per_s.
POOL_PASSES = 3
CLI_PROCESS_REPEATS = 7


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="internal: set the workload up, print 'ready' and exit",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def percentile(sorted_values: list, q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    position = q / 100 * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (position - low)


def tail_percentile(samples: int) -> float:
    """The highest ladder percentile that leaves at least ten samples beyond it."""
    fitting = [q for q in PERCENTILE_LADDER if samples * (100 - q) / 100 >= 10]
    return fitting[-1] if fitting else 50


@dataclass
class Tally:
    """Operations attempted and failed, their work, and their timings.

    On a shared machine other tenants slow whole stretches of a run by a
    third or more, so the end-to-end timings use only the FASTEST_REPEATS
    fastest repeats of each distinct operation (slot): what it costs when
    the program is left alone. Keeping just those also keeps the
    benchmark's own memory independent of how many operations a run does.
    """

    slots: int
    attempted: int = 0
    failed: int = 0
    work: int = 0
    busy_ns: int = 0
    failures: list = field(default_factory=list)
    fastest: list = field(init=False)

    def __post_init__(self) -> None:
        self.fastest = [[] for _ in range(self.slots)]

    def attempt(self, workload, op, slot: int, recorder=None) -> None:
        clock = time.perf_counter_ns
        start = clock()
        try:
            if recorder is None:
                result = workload.run(op)
            else:
                result = recorder.operation(self.attempted, workload.run, op)
        except Exception as exc:  # a raising operation is a failed operation
            elapsed = clock() - start
            self._fail(op, f"raised {exc!r}")
        else:
            elapsed = clock() - start
            try:
                agrees = workload.check(op, result)
            except (KeyError, IndexError, TypeError, ValueError):  # malformed output
                agrees = False
            if not agrees:
                self._fail(op, "output disagrees with the reference")
        self.attempted += 1
        self.work += op.work
        self.busy_ns += elapsed
        kept = self.fastest[slot]
        if len(kept) < FASTEST_REPEATS:
            bisect.insort(kept, elapsed)
        elif elapsed < kept[-1]:
            kept.pop()
            bisect.insort(kept, elapsed)

    def _fail(self, op, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            args = ", ".join(
                f"<{a.bit_length()}-bit int>" if isinstance(a, int) and a.bit_length() > 64 else repr(a)
                for a in op.args
            )
            self.failures.append(f"{op.kind}({args}): {why}"[:300])

    def merge(self, other: "Tally") -> None:
        """Count other's attempts and failures too (its timings stay apart)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures

    def rate(self) -> float:
        """Work per second over every attempt."""
        return self.work / (self.busy_ns / 1e9)

    def fastest_repeats(self, ops: list) -> tuple[list, int]:
        """Latencies (ms, sorted) and work of each slot's fastest repeats."""
        latencies = sorted(ns / 1e6 for kept in self.fastest for ns in kept)
        work = sum(op.work * len(kept) for op, kept in zip(ops, self.fastest))
        return latencies, work


def measure(workload, seconds: float) -> Tally:
    """Closed loop over the workload's operations for about `seconds`.

    Workloads with a heterogeneous template run whole passes over it, so
    every slot gets the same number of repeats.
    """
    tally = Tally(len(workload.ops))
    deadline = time.perf_counter() + seconds
    while True:
        for slot, op in enumerate(workload.ops):
            tally.attempt(workload, op, slot)
            if not workload.complete_cycles and time.perf_counter() >= deadline:
                return tally
        if time.perf_counter() >= deadline:
            return tally


def self_check(workload) -> bool:
    """A deliberately wrong expectation must be counted as failed."""
    tally = Tally(1)
    tally.attempt(workload, workload.wrong_op(), 0)
    return tally.failed == 1 and tally.attempted == 1


def setup_probe_seconds(args) -> list[float]:
    """Seconds from starting a fresh interpreter to the workload being ready."""
    times = []
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-probe",
    ]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as probe:
            line = probe.stdout.readline()
            ready = time.perf_counter()
            probe.stdout.read()
            code = probe.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe exited with code {code} before it was ready")
        times.append(ready - start)
    return times


def git_sha() -> str | None:
    git = ROOT / ".git"
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
    return None


def run_metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def end_to_end(args, workload) -> tuple[Tally, dict, dict]:
    tally = measure(workload, args.seconds)
    # The ungated passes run before the peak RSS is read, so their child
    # processes count in children_peak_rss_mb and the setup probes do not.
    pool = pool_pass(workload) if args.workload == "certify" else None
    cold = cold_pass(workload) if args.workload == "cli" else None
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    setups = setup_probe_seconds(args)
    latencies, work = tally.fastest_repeats(workload.ops)
    tail_q = tail_percentile(len(latencies))
    metrics = {
        "setup_s": statistics.median(setups),
        "work_per_s": work / (sum(latencies) / 1000),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_tail_ms": percentile(latencies, tail_q),
        "peak_rss_mb": own,
    }
    meta = {
        "samples": {
            "setup_s": len(setups),
            "work_per_s": len(latencies),
            "latency_p50_ms": len(latencies),
            "latency_tail_ms": len(latencies),
            "peak_rss_mb": 1,
        },
        "tail_percentile": tail_q,
        "work_per_s_means": WORK_ALIAS[args.workload],
        "operations_attempted": tally.attempted,
        "distinct_operations": len(workload.ops),
        "work_timed": work,
        "setup_s_samples": setups,
        "children_peak_rss_mb": children,
    }
    if pool is not None:
        tally.merge(pool)
        meta["pairs_per_s"] = box_rate(workload.ops, tally)
        meta["pool_pairs_per_s"] = box_rate(workload.pool_ops, pool)
        meta["pool_passes"] = POOL_PASSES
    if cold is not None:
        tally.merge(cold)
        cold_ms = sorted(ns / 1e6 for kept in cold.fastest for ns in kept)
        meta["cold_latency_p50_ms"] = percentile(cold_ms, 50)
        meta["cold_latency_max_ms"] = cold_ms[-1]
        meta["cold_commands"] = len(cold_ms)
    return tally, metrics, meta


def pool_pass(workload) -> Tally:
    """certify's boxes at workers=2, a fixed number of times, untimed by the gates."""
    pool = Tally(len(workload.pool_ops))
    for _ in range(POOL_PASSES):
        for slot, op in enumerate(workload.pool_ops):
            pool.attempt(workload, op, slot)
    return pool


def box_rate(ops: list, tally: Tally) -> float:
    """Exponent pairs per second over the fastest repeats of the search boxes alone."""
    chosen = [
        (op, kept)
        for op, kept in zip(ops, tally.fastest)
        if op.kind in ("brute_force", "cross_check")
    ]
    pairs = sum(op.work * len(kept) for op, kept in chosen)
    return pairs / (sum(sum(kept) for _, kept in chosen) / 1e9)


def cold_pass(workload) -> Tally:
    """cli's commands once each as cold processes, untimed by the gates."""
    cold = Tally(len(workload.ops))
    as_processes = SimpleNamespace(run=workload.run_cold, check=workload.check)
    for slot, op in enumerate(workload.ops):
        cold.attempt(as_processes, op, slot)
    return cold


def time_process(command: list[str], env: dict) -> float:
    start = time.perf_counter()
    subprocess.run(command, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return (time.perf_counter() - start) * 1000


def derived_metrics(seed: int) -> tuple[dict, dict]:
    """Outside-in figures for the pool and the cold CLI (ms), and their sample counts."""
    import workloads
    from pxpy import classifier, oracle

    pool_overheads = []
    for p, n, x_max, y_max in POOL_OVERHEAD_BOXES:
        instance, box = classifier.EquationInstance(p, n), oracle.SearchBox(x_max, y_max)
        walls = {}
        for workers in (1, 2):
            runs = []
            for _ in range(POOL_OVERHEAD_REPEATS):
                start = time.perf_counter()
                oracle.brute_force(instance, box, workers=workers)
                runs.append((time.perf_counter() - start) * 1000)
            walls[workers] = statistics.median(runs)
        pool_overheads.append(walls[2] - walls[1] / 2)

    cli = workloads.make("cli", seed, str(ROOT), traced=True)
    interpreter = statistics.median(
        time_process([sys.executable, "-c", "pass"], cli.env) for _ in range(CLI_PROCESS_REPEATS)
    )
    imported = statistics.median(
        time_process([sys.executable, "-c", "import pxpy.cli"], cli.env)
        for _ in range(CLI_PROCESS_REPEATS)
    )
    main_runs = []
    for _ in range(2):
        for op in cli.ops:
            start = time.perf_counter()
            cli.run(op)
            main_runs.append((time.perf_counter() - start) * 1000)
    metrics = {
        "oracle.pool.overhead_ms": statistics.mean(pool_overheads),
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": imported - interpreter,
        "cli.main_ms": statistics.mean(main_runs),
    }
    samples = {
        "oracle.pool.overhead_ms": len(POOL_OVERHEAD_BOXES) * POOL_OVERHEAD_REPEATS,
        "cli.interpreter_ms": CLI_PROCESS_REPEATS,
        "cli.import_ms": CLI_PROCESS_REPEATS,
        "cli.main_ms": len(main_runs),
    }
    return metrics, samples


def per_layer(args, workload) -> tuple[Tally, dict, dict]:
    from spans import OP_SPAN, TRACED_NAMES, SpanRecorder

    started = time.perf_counter()
    tally = Tally(len(workload.ops))
    with SpanRecorder() as recorder:
        for _ in range(TRACED_PASSES[args.workload]):
            for slot, op in enumerate(workload.ops):
                tally.attempt(workload, op, slot, recorder)
    untraced = measure(workload, max(1.0, args.seconds - (time.perf_counter() - started)))
    stats = recorder.per_name()
    metrics = {}
    for name in TRACED_NAMES:
        for key in ("calls", "self_ms", "total_ms"):
            metrics[f"{name}.{key}"] = stats[name][key]
    roots = stats["arithmetic.integer_root"]["calls"]
    traces = stats["classifier.trace_candidate"]["calls"]
    pairs = recorder.searched_pairs
    metrics["arithmetic.integer_root.exact_ratio"] = recorder.exact_roots / roots if roots else 0.0
    metrics["classifier.trace_candidate.accept_ratio"] = (
        recorder.accepted_traces / traces if traces else 0.0
    )
    metrics["oracle.brute_force.pairs"] = pairs
    metrics["oracle.brute_force.hit_ratio"] = recorder.search_hits / pairs if pairs else 0.0
    metrics["arithmetic.p_adic_valuation.max_digits"] = recorder.largest_valuation_digits()
    derived, derived_samples = derived_metrics(args.seed)
    metrics.update(derived)
    metrics["bench.ops.total_ms"] = stats[OP_SPAN]["total_ms"]
    metrics["bench.trace_overhead_ratio"] = tally.rate() / untraced.rate()
    span_file = recorder.write(OUT_DIR, args.workload, {"seed": args.seed})
    total = metrics["bench.ops.total_ms"]
    shares = {name: stats[name]["self_ms"] / total for name in TRACED_NAMES if stats[name]["calls"]}
    meta = {
        "spans": len(recorder),
        "span_file": str(span_file.relative_to(ROOT)),
        "self_share_of_ops": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "samples": {
            "traced operations": tally.attempted,
            "bench.trace_overhead_ratio": untraced.attempted,
            **derived_samples,
        },
        "traced_workers": 1 if args.workload == "certify" else None,
    }
    tally.merge(untraced)
    return tally, metrics, meta


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".calls", ".pairs")):
        return "count"
    if name.endswith(".max_digits"):
        return "digits"
    return "ratio"


def run_one(args) -> int:
    import workloads

    workload = workloads.make(args.workload, args.seed, str(ROOT), traced=bool(args.trace))
    warm_up = Tally(1)
    for op in workload.warm_up_ops():
        warm_up.attempt(workload, op, 0)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    if args.trace:
        tally, metrics, meta = per_layer(args, workload)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        tally, metrics, meta = end_to_end(args, workload)
        units = END_TO_END_UNITS
    tally.merge(warm_up)
    if not self_check(workload):
        print("self-check failed: a wrong expectation was not counted as failed", file=sys.stderr)
        return 1
    failed_ratio = tally.failed / tally.attempted
    meta.update(run_metadata(args), failed_ratio=failed_ratio, failures=tally.failures)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        note = ""
        if name == "work_per_s":
            note = f"  = {WORK_ALIAS[args.workload]}"
        elif name == "latency_tail_ms":
            note = f"  (p{meta['tail_percentile']:g} of {meta['samples'][name]} samples)"
        print(f"  {name:<44} {value:>16.6f} {units[name]}{note}")
    print(f"  {'failed_ratio':<44} {failed_ratio:>16.6f} ratio  ({tally.failed} of {tally.attempted})")
    print(json.dumps({"meta": meta}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"workload {name} exited with code {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pxpy" / "__init__.py").is_file():
        print(f"error: no pxpy sources under {SRC}; run from a pxpy checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
