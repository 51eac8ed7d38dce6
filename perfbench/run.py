"""Benchmark of fatpoints: end-to-end metrics, or per-layer ones when traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload interp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --out results.json

Each workload runs in its own process (worker.py) as a closed loop with
one client.  Set-up is measured from spawning that process until its
first timed query can start (cold `import fatpoints` plus warm-up, minus
input generation), three times per run, and reported as the median.  With
`--trace 1` the run reports per-layer metrics from span recorders and the
tracing overhead instead.  Every answer is checked; the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("interp", "classify", "orbit")
SETUPS = 3
WORKER_TIMEOUT_S = 150
# End-to-end times are scaled to the speed at which worker.reference_kernel
# takes this long, about its typical time on the 2-core Intel Xeon virtual
# machine the baseline was measured on.
REF_NOMINAL_S = 0.015


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    cap = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def spawn(args: list[str], timeout: float) -> dict:
    """Run one worker; return its set-up seconds, speed probe and result."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), *args]
    lines: list[tuple[float, str]] = []
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(),
                            cwd=ROOT, text=True)

    def read() -> None:
        for line in proc.stdout:
            lines.append((time.perf_counter(), line))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise TimeoutError(f"worker exceeded {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join()
        proc.stdout.close()
    tagged = {}
    for t, line in lines:
        tag, _, body = line.partition(" ")
        if tag in ("READY", "SPEED", "RESULT"):
            tagged.setdefault(tag, (t, json.loads(body)))
    if code != 0 or "READY" not in tagged or "SPEED" not in tagged:
        raise RuntimeError(f"worker exited with code {code}")
    t_ready, ready = tagged["READY"]
    return {"setup_s": t_ready - start - ready["gen_s"],
            "ref_s": tagged["SPEED"][1]["ref_s"],
            "result": tagged.get("RESULT", (None, None))[1]}


def import_times() -> tuple[float, float]:
    """Cumulative import time of fatpoints and of sympy, from -X importtime."""
    fat, sym = [], []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fatpoints"],
                             env=worker_env(), cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True).stderr
        found = {}
        for line in out.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in ("fatpoints", "sympy"):
                found[parts[2]] = int(parts[1]) / 1e6
        fat.append(found["fatpoints"])
        sym.append(found.get("sympy", 0.0))
    return statistics.median(fat), statistics.median(sym)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine_info(seed: int) -> dict:
    info = {"nproc": os.cpu_count(), "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(), "blas_threads": blas_threads(),
            "seed": seed}
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    probe = ("import json, numpy, sympy; "
             "print(json.dumps([numpy.__version__, sympy.__version__]))")
    out = subprocess.run([sys.executable, "-c", probe], env=worker_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    if out.returncode == 0:
        info["numpy"], info["sympy"] = json.loads(out.stdout)
    return info


END_TO_END_UNITS = {"latency_p50_ms": "ms", "latency_p90_ms": "ms",
                    "throughput_qps": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spans: str | None) -> dict:
    work = ROOT / ".perfbench_work" / f"{os.getpid()}-{name}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(int(trace)), "--work-dir", str(work)]
        runs = [spawn(base + ["--setup-only"], 120) for _ in range(SETUPS - 1)]
        runs.append(spawn(base + (["--spans", spans] if spans else []),
                          WORKER_TIMEOUT_S + 2 * seconds))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res = runs[-1]["result"]
    lat = res["latency_s"]
    # Scale each time to the reference speed: a set-up by the speed probe of
    # its own process, a query by the mean of the probes on either side.
    ref = res["ref_s"]
    scaled = [t * 2 * REF_NOMINAL_S / (ref[k] + ref[k + 1])
              for t, k in zip(lat, res["segment"])]
    raw = {
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_p90_ms": 1000 * percentile(lat, 90),
        "throughput_qps": len(lat) / res["busy_s"],
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    metrics = {
        "latency_p50_ms": 1000 * statistics.median(scaled),
        "latency_p90_ms": 1000 * percentile(scaled, 90),
        "throughput_qps": len(scaled) / sum(scaled),
        "setup_s": statistics.median(r["setup_s"] * REF_NOMINAL_S / r["ref_s"]
                                     for r in runs),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    units = dict(END_TO_END_UNITS)
    if trace:
        metrics = dict(res["layers"])
        metrics["cli.import_s"], metrics["cli.import_sympy_s"] = import_times()
        units = {k: layer_unit(k) for k in metrics}
        raw = {}
    return {"attempted": res["attempted"], "failed": res["failed"],
            "queries_timed": len(lat), "cycles": res["cycles"],
            "ref_s": statistics.median(res["ref_s"]), "raw": raw,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def layer_unit(name: str) -> str:
    if name in ("cli.import_s", "cli.import_sympy_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_yield") or name == "weyl.members_per_rep":
        return "ratio"
    if name == "trace.overhead_pct":
        return "%"
    if name.endswith("_s"):
        return "s/query"
    if name.endswith("_bytes"):
        return "B/query"
    return "count/query"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write results and machine info here")
    ap.add_argument("--spans", default=None, help="write the traced run's spans here")
    args = ap.parse_args()
    if not (ROOT / "src" / "fatpoints" / "__init__.py").is_file():
        print(f"error: no fatpoints sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    info = machine_info(args.seed)
    print("machine " + json.dumps(info, sort_keys=True))
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         args.spans)
        except (RuntimeError, TimeoutError, subprocess.SubprocessError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        res = results[name]
        for key, metric in res["metrics"].items():
            raw = f" (as timed: {res['raw'][key]:.6g})" if key in res["raw"] else ""
            print(f"{name} {key} {metric['value']:.6g} {metric['unit']}{raw}")
        print(f"{name} failed_ratio {res['failed'] / res['attempted']:.6g} ratio "
              f"({res['failed']} of {res['attempted']}; {res['queries_timed']} timed "
              f"queries in {res['cycles']} cycles; reference kernel {res['ref_s']:.6g} s)")
    if args.out:
        Path(args.out).write_text(json.dumps({"machine": info, "seconds": args.seconds,
                                              "trace": args.trace, "results": results},
                                             indent=2, sort_keys=True) + "\n")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = (results[names[0]]["metrics"] if len(names) == 1 else
               {f"{n}.{k}": v for n in names for k, v in results[n]["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
