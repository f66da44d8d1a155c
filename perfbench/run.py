"""Closed-loop benchmark of the interfmin toolkit.

    python3 perfbench/run.py --workload exact1d --seed 1 --seconds 25 --trace 0

Runs one workload (or `all`) as a closed loop: one process, one thread, one
caller that waits for each item before starting the next.  Inputs come from
the seed and are generated before the timed loop; every item's output is
checked.  Human-readable lines go first; the last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones (throughput, per-item
latency, set-up time, peak memory).  Times are in reference seconds: each
wall time is scaled by how fast a fixed probe loop ran around it (see
`probe`); the raw wall-clock figures are printed alongside.  With `--trace 1` they are the per-layer
ones, derived from spans the benchmark records around its calls into the
program, and the spans are written to `perfbench/out/`.

The program is imported from `src/` next to this directory; the benchmark
exits with code 2 when that source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("exact1d", "bruteforce", "nna1d", "reduce2d")
DEFAULT_SEED = 1
HELD_OUT_SEED = 20141  # confirms a claimed gain; not used while tuning a change
SETUP_SAMPLES = 5

# The probe's duration when the host is quiet, measured on the 2-core
# machine the first baselines came from.  On a shared host the same code
# runs up to 1.7x slower for seconds at a time; the probe slows with it.
PROBE_REFERENCE_S = 0.0015

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "item_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def load_program():
    """Import the workloads against `src/interfmin` of this checkout."""
    if not (SRC / "interfmin" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'interfmin'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import interfmin  # noqa: E402

    if Path(interfmin.__file__).resolve().parent != SRC / "interfmin":
        print(f"error: interfmin imported from {interfmin.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    import workloads  # noqa: E402  (needs interfmin on the path)

    return workloads


def attempt(workload, item, tracer, index: int) -> str | None:
    """Run one item; the reason it failed, or None when it was verified.
    A failing item never ends the loop."""
    from interfmin.errors import CapExceededError
    from workloads import CheckFailed

    try:
        with tracer.item(index):
            workload.run_item(item, tracer)
    except CheckFailed as exc:
        return f"check: {exc}"
    except CapExceededError as exc:
        return f"refused: {exc}"
    except Exception as exc:  # an item's crash is a counted failure, not the run's end
        return f"{type(exc).__name__}: {exc}"
    return None


def probe() -> float:
    """Wall time of a fixed pure-Python Fraction loop that calls no program
    code: how fast the host runs Python right now."""
    start = time.perf_counter()
    x = Fraction(1, 3)
    for _ in range(300):
        x = x * Fraction(3, 4) + 1 if x < 5 else x - 3
    return time.perf_counter() - start


def reference_seconds(took: float, probes: list[float]) -> float:
    """Scale a wall time by the mean of the probes taken around it."""
    return took * PROBE_REFERENCE_S / statistics.fmean(probes)


def run_items(workload, pool, tracer, deadline: float) -> list[tuple[float, float, str | None]]:
    """Closed loop over the pool, cycling, in whole blocks: no block starts
    after the deadline.  Returns each item's wall time, its time in
    reference seconds and its failure reason (None when verified).

    A probe runs before each item and after the last; an item's reference
    time uses the probes of its whole block, which smooths out the probe's
    own jitter."""
    walls, reasons, probes = [], [], [probe()]
    index = 0
    while index % workload.block or time.perf_counter() < deadline:
        start = time.perf_counter()
        reasons.append(attempt(workload, pool[index % len(pool)], tracer, index))
        walls.append(time.perf_counter() - start)
        probes.append(probe())
        index += 1
    results = []
    for first in range(0, len(walls), workload.block):
        last = first + workload.block
        around = probes[first : last + 1]
        results += [(took, reference_seconds(took, around), why) for took, why in zip(walls[first:last], reasons[first:last])]
    return results


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Wall and reference seconds of fresh processes that import the program
    and build the inputs, from process start to where the first item would
    run."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload, "--seed", str(seed)]
    before = probe()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        took = time.perf_counter() - start
        after = probe()
        samples.append((took, reference_seconds(took, [before, after])))
        before = after
    return samples


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); a lone sample is its own."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
    )


def report_failures(failures: Counter) -> None:
    for reason, times in failures.most_common():
        print(f"  failed x{times}: {reason}")


def run_untraced(wl, args) -> int:
    from tracing import Tracer

    tracer = Tracer(enabled=False)
    pool = wl.make_pool(args.seed, tracer)
    setups = measure_setup(wl.name, args.seed)
    results = run_items(wl, pool, tracer, time.perf_counter() + args.seconds)
    failures = Counter(reason for _, _, reason in results if reason is not None)
    failed = sum(failures.values())
    attempted = len(results)
    refs = [ref for _, ref, reason in results if reason is None]
    wall = [took for took, _, reason in results if reason is None]
    if not refs:
        print(f"{wl.name}: no item verified")
        report_failures(failures)
        return 1
    metrics = {
        "items_per_s": len(refs) / sum(ref for _, ref, _ in results),
        "item_p50_s": quantile(refs, 50),
        "item_p90_s": quantile(refs, 90),
        "setup_s": statistics.median(ref for _, ref in setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n = len(refs)
    elapsed = sum(took for took, _, _ in results)
    print(f"workload {wl.name}: closed loop, 1 client, seed {args.seed}, {elapsed:.1f} s timed")
    print("  metric        reference (wall clock)")
    print(f"  items_per_s   {metrics['items_per_s']:.4g} ({n / elapsed:.4g}) 1/s   {n} items")
    print(f"  item_p50_s    {metrics['item_p50_s']:.4g} ({quantile(wall, 50):.4g}) s   {n} samples")
    print(f"  item_p90_s    {metrics['item_p90_s']:.4g} ({quantile(wall, 90):.4g}) s   {n} samples, {n - int(0.9 * n)} beyond p90")
    print(
        f"  setup_s       {metrics['setup_s']:.4g} ({statistics.median(w for w, _ in setups):.4g}) s"
        f"   median of {len(setups)} fresh processes"
    )
    print(f"  peak_rss_mib  {metrics['peak_rss_mib']:.4g} MiB")
    print(f"  fail_ratio    {failed}/{attempted} = {failed / attempted:.4g} failed/attempted")
    report_failures(failures)
    print(result_line(failed == 0, attempted, failed, metrics, END_TO_END_UNITS))
    return 0


def trace_items(wl, seconds: float) -> int:
    """Items in the traced pass, whole blocks: fixed by workload and run
    length, so the per-layer counts repeat exactly at one seed."""
    return wl.block * max(1, round(wl.nominal_items_per_s * seconds / 2 / wl.block))


def run_traced(wl, args) -> int:
    from tracing import UNITS, Tracer, layer_metrics

    tracer = Tracer(enabled=True)
    pool = wl.make_pool(args.seed, tracer)
    count = trace_items(wl, args.seconds)
    # Each item runs untraced, then traced: the overhead compares the same
    # items, both warm.  Only the traced runs leave spans.
    plain = Tracer(enabled=False)
    failures: Counter = Counter()
    elapsed = {plain: 0.0, tracer: 0.0}
    for index in range(count):
        item = pool[index % len(pool)]
        for which in (plain, tracer):
            start = time.perf_counter()
            reason = attempt(wl, item, which, index)
            elapsed[which] += time.perf_counter() - start
            if reason is not None:
                failures[reason] += 1
    failed = sum(failures.values())
    metrics = layer_metrics(tracer.spans, overhead_ratio=elapsed[tracer] / elapsed[plain])
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    print(f"workload {wl.name}: traced pass of {count} items, seed {args.seed}, {len(tracer.spans)} spans -> {spans_path}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:.6g} {UNITS[name]}")
    report_failures(failures)
    print(result_line(failed == 0, 2 * count, failed, metrics, UNITS))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"input seed (held-out seed: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workloads = load_program()
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        from tracing import Tracer

        wl.make_pool(args.seed, Tracer(enabled=False))
        return 0
    return run_traced(wl, args) if args.trace else run_untraced(wl, args)


if __name__ == "__main__":
    sys.exit(main())
