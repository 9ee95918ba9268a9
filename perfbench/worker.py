"""One benchmark pass in a fresh interpreter, so the kernel cache is cold.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE(0|1) TINY(0|1) SPANS_PATH

Prints the pass result as one JSON object.  ``sccasimir`` must be
importable (the run puts the checkout's ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
from pathlib import Path

import tracing
import workloads
from probe import Probe

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def run_pass(workload: str, seed: int, trace: bool, tiny: bool, workdir: Path,
             reference: dict, spans_path: Path | None = None) -> dict:
    """Build the workload, time its operations, then check them.

    ``workdir`` is created, used as the current directory while the
    operations run, and removed afterwards.
    """
    recorder = tracing.Recorder() if trace else None
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        ops = workloads.build(workload, seed, tiny, workdir, recorder)
        os.chdir(workdir)
        if recorder is not None:
            recorder.install()
        records = []
        with Probe() as timer:
            for op in ops:
                try:
                    records.append((op.run(), None))
                except Exception as exc:  # an operation that raises is counted, not fatal
                    records.append(({}, f"{type(exc).__name__}: {exc}"))
    finally:
        if recorder is not None:
            recorder.restore()
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    results = []
    for op, (record, error) in zip(ops, records):
        failures = [error] if error else workloads.check(
            op, record, reference.get(workload, {}))
        results.append({"key": op.key, **record, "failures": failures})
    out = {
        "wall_s": timer.corrected(),
        "timing": timer.summary(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(results),
        "failed": sum(1 for r in results if r["failures"]),
        "ops": results,
    }
    if recorder is not None:
        out["layers"] = recorder.metrics(timer.clock)
        if spans_path is not None:
            recorder.write(spans_path)
    return out


def main(argv: list[str]) -> int:
    workload, seed, trace, tiny, spans_path = argv
    spans = Path(spans_path)
    result = run_pass(workload, int(seed), trace == "1", tiny == "1",
                      spans.parent / f"work-{os.getpid()}", load_reference(), spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
