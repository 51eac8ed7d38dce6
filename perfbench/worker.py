"""One workload process: cold import, warm-up, closed loop, checks.

Started by run.py with PYTHONPATH pointing at the checkout's `src/`.  It
prints `READY {...}` once the first timed query can start, `SPEED {...}`
with a machine-speed probe right after, and `RESULT {...}` at the end;
everything else it prints goes to stderr.

The loop is closed with one client: the next query starts when the
previous one has returned.  Only the query call is timed.  Inputs are
generated and answers are checked between queries, outside the timing,
and whole cycles are run so that every run sees the same mix.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def import_fatpoints() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import fatpoints

    if Path(fatpoints.__file__).resolve().parent != ROOT / "src" / "fatpoints":
        raise ImportError(f"fatpoints imported from {fatpoints.__file__}, "
                          f"not from {ROOT / 'src'}")


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of Fraction, int and int64-array work.

    The kernel uses no fatpoints code, so no change to the package can move
    it; it measures how fast this machine runs such code right now.  The
    array stays under 128 KiB so that no call maps fresh pages.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 2000):
        total += Fraction(1, i % 97 + 1)
    x = 0
    for i in range(30000):
        x += i * i % 7
    a = (np.arange(100 * 120, dtype=np.int64).reshape(100, 120) * 7919) % 65537
    for c in range(99):
        a[c + 1:, c:] = (a[c + 1:, c:] - a[c + 1:, c:c + 1] * a[c, c:]) % 65537
    return time.perf_counter() - start


def machine_speed() -> float:
    return min(reference_kernel() for _ in range(2))


PROBE_EVERY = 8   # queries between two machine-speed probes


def new_stats() -> dict:
    return {"latency_s": [], "segment": [], "busy_s": 0.0, "gen_s": 0.0,
            "failed": 0, "ref_s": []}


def run_cycles(wl, tracer, seconds: float, cycles: int | None, stats: dict) -> int:
    """Run whole cycles until `seconds` of query time (or `cycles` cycles).

    The machine-speed probe runs before the first query and after every
    PROBE_EVERY queries, so every query has a probe on either side of it.
    """
    if not stats["ref_s"]:
        stats["ref_s"].append(machine_speed())
    done = 0
    while (stats["busy_s"] < seconds) if cycles is None else (done < cycles):
        t = time.perf_counter()
        batch = wl.cycle()
        stats["gen_s"] += time.perf_counter() - t
        for qid, q in enumerate(batch, start=len(stats["latency_s"])):
            if tracer is not None:
                tracer.qid = qid
            t0 = time.perf_counter()
            try:
                result = wl.run(q)
                error = None
            except Exception as exc:   # a failed query is counted, not fatal
                result, error = None, exc
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.qid = None
            stats["latency_s"].append(elapsed)
            stats["segment"].append(len(stats["ref_s"]) - 1)
            stats["busy_s"] += elapsed
            ok = False
            if error is None:
                try:
                    ok = wl.check(q, result)
                except Exception as exc:
                    error = exc
            if not ok:
                stats["failed"] += 1
                print(f"FAILED {q.kind} {q.args!r}: {error!r}", file=sys.stderr)
            if len(stats["latency_s"]) % PROBE_EVERY == 0:
                stats["ref_s"].append(machine_speed())
        done += 1
    if stats["segment"] and stats["segment"][-1] == len(stats["ref_s"]) - 1:
        stats["ref_s"].append(machine_speed())
    return done


def relative_busy(stats: dict) -> float:
    """Query time in units of the speed probe taken around each query."""
    ref = stats["ref_s"]
    return sum(t * 2 / (ref[k] + ref[k + 1])
               for t, k in zip(stats["latency_s"], stats["segment"]))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    import_fatpoints()
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from tracing import Tracer, layer_metrics

    def fresh(tag: str):
        cache = Path(args.work_dir) / f"orbit-cache-{tag}"
        cache.mkdir(parents=True, exist_ok=True)
        return workloads.Workload(args.workload, args.seed, str(cache))

    # Warm-up belongs to set-up; generating its inputs does not.
    wl = fresh("main")
    t = time.perf_counter()
    warm = wl.warmup()
    gen_s = time.perf_counter() - t
    for q in warm:
        if not wl.check(q, wl.run(q)):
            raise AssertionError(f"warm-up query {q.kind} failed its check")
    print("READY " + json.dumps({"gen_s": gen_s}), flush=True)
    print("SPEED " + json.dumps({"ref_s": machine_speed()}), flush=True)
    if args.setup_only:
        return 0

    stats = new_stats()
    result: dict = {}
    if not args.trace:
        result["cycles"] = run_cycles(wl, None, args.seconds, None, stats)
    else:
        # Untraced half first, then the same cycles again under tracing.
        plain = new_stats()
        cycles = run_cycles(wl, None, args.seconds / 2, None, plain)
        traced = fresh("traced")
        tracer = Tracer()
        tracer.install()
        try:
            run_cycles(traced, tracer, 0, cycles, stats)
        finally:
            tracer.uninstall()
        queries = len(stats["latency_s"])
        result["attempted"] = queries + len(plain["latency_s"])
        stats["failed"] += plain["failed"]
        result["cycles"] = cycles
        result["layers"] = layer_metrics(tracer, queries, {
            "cli.emit_bytes": traced.emitted / queries,
            "trace.overhead_pct": 100.0 * (relative_busy(stats) / relative_busy(plain) - 1),
        })
        if args.spans:
            tracer.write(args.spans)
    result.setdefault("attempted", len(stats["latency_s"]))
    result.update(
        latency_s=stats["latency_s"], busy_s=stats["busy_s"], failed=stats["failed"],
        gen_s=stats["gen_s"], ref_s=stats["ref_s"], segment=stats["segment"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
