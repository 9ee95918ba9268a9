"""Freeze the reference outputs that every benchmark run is checked against.

Usage, from the root of a checkout:  PYTHONPATH=src python3 perfbench/freeze.py

Runs every operation of every workload, covering every entry of the
``pipeline`` noise pools, and writes the checked fields to
``perfbench/reference.json``.  The file is frozen from the code the
benchmark was defined on; regenerate it only for a change that is meant to
move a number, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import workloads
from worker import REFERENCE


def _freeze(ops, table: dict) -> None:
    for op in ops:
        if op.expected is not None:
            continue
        record = op.run()
        table[op.key] = {name: record[name] for name in op.checked}
        print(f"{op.key}: {table[op.key]}", flush=True)


def main() -> int:
    workdir = Path(__file__).resolve().parent.parent / ".bench_out" / "freeze"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    reference = {}
    for name in ("jump_all", "temperature_scan", "normal_state"):
        table = reference.setdefault(name, {})
        for tiny in (False, True):
            _freeze(workloads.build(name, 0, tiny, workdir), table)
    table = reference.setdefault("pipeline", {})
    pools = (range(workloads.SWEEP_POOL), range(workloads.DYNES_POOL), None)
    _freeze(workloads.pipeline(0, False, workdir, pools=pools), table)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for index in range(workloads.CLI_POOL):
            _freeze(workloads.pipeline(0, False, workdir, pools=([], [], index)), table)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
