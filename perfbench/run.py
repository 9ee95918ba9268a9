"""sccasimir benchmark: cold-start workloads through the public functions.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload jump_all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Each pass runs one workload's fixed set of evaluations in a fresh
interpreter (so the pairing-kernel cache is cold, as for every CLI call),
checks every output against ``reference.json``, and reports its wall time
and peak memory.  Passes repeat until ``--seconds`` have been spent; the
run reports medians.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of traced passes interleaved with
untraced ones.  The last stdout line is one JSON object; the full result,
with every computed value and machine provenance, is written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("jump_all", "temperature_scan", "normal_state", "pipeline")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 5
# a pass is not started when it would likely end past this many seconds
RUN_BUDGET_S = 150.0
PASS_TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # one process, no worker threads: BLAS gets a single thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                               "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    """Machine and code identity, so results from different machines are
    not compared."""
    info = {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "blas_threads": 1,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }
    for package in ("numpy", "scipy", "click"):
        try:
            info[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            info[package] = None
    return info


def time_import(env: dict) -> dict:
    """A fresh interpreter importing the CLI, as every user pays it."""
    proc = subprocess.run([sys.executable, str(BENCH / "probe.py")], env=env,
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=PASS_TIMEOUT_S)
    return json.loads(proc.stdout.splitlines()[-1])


def run_pass(workload: str, seed: int, trace: bool, tiny: bool, env: dict,
             index: int) -> dict:
    spans = OUT / f"spans-{workload}-seed{seed}-pass{index}.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
         str(int(trace)), str(int(tiny)), str(spans)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        timeout=PASS_TIMEOUT_S)
    return json.loads(proc.stdout.splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one workload; returns the full result."""
    env = child_env()
    OUT.mkdir(exist_ok=True)
    plain, traced = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        plain.append(run_pass(workload, seed, False, tiny, env, len(plain)))
        if trace:
            traced.append(run_pass(workload, seed, True, tiny, env, len(traced)))
        now = time.monotonic()
        if now - start >= seconds or now + (now - began) - start > RUN_BUDGET_S:
            break
    # after the passes, so a fresh checkout is already byte-compiled
    setup = [] if trace else [time_import(env) for _ in range(setup_samples)]

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    if trace:
        metrics = {}
        for name, (unit, _) in tracing.LAYER_METRICS.items():
            values = [p["layers"][name] for p in traced if name in p["layers"]]
            if len(values) == len(traced):
                metrics[name] = _metric(statistics.median(values), unit)
        overhead = statistics.median(p["wall_s"] for p in traced) - plain_wall
        metrics[tracing.OVERHEAD_METRIC[0]] = _metric(overhead,
                                                      tracing.OVERHEAD_METRIC[1])
    else:
        metrics = {
            "wall_s": _metric(plain_wall, END_TO_END["wall_s"]),
            "setup_s": _metric(statistics.median(s["corrected_s"] for s in setup),
                               END_TO_END["setup_s"]),
            "peak_rss_mb": _metric(statistics.median(p["peak_rss_mb"] for p in plain),
                                   END_TO_END["peak_rss_mb"]),
        }
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "provenance": provenance(), "setup_samples": setup,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "metrics": metrics,
        "passes": {"untraced": plain, "traced": traced},
    }


def summary(result: dict) -> str:
    parts = [f"{name} = {m['value']:.6g} {m['unit']}"
             for name, m in result["metrics"].items()]
    parts.append(f"error_rate = {result['error_rate']:.6g} "
                 f"({result['failed']}/{result['attempted']})")
    return f"# {result['workload']}: " + ", ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sccasimir" / "__init__.py").is_file():
        print(f"error: no sccasimir sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run(name, args.seed, args.seconds, bool(args.trace))
        path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        for p in result["passes"]["untraced"] + result["passes"]["traced"]:
            for op in p["ops"]:
                for failure in op["failures"]:
                    print(f"# FAILED {failure}")
        print(summary(result))
        print(f"# result written to {path.relative_to(ROOT)}")
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
