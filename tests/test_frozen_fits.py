"""The benchmark's frozen Dynes fits, reproduced in tier-1.

``perfbench/reference.json`` pins every ``dynes_fit`` pool entry (to 1e-4)
and the stdout bytes of every ``dynes-fit`` CLI round trip.  These tests
run the benchmark's own operations from ``perfbench/workloads.py`` against
that file, so a conductance change that would flip a frozen value fails
here, before a benchmark run sees it.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))["pipeline"]


def _failures(ops):
    return [reason for op in ops for reason in workloads.check(op, op.run(), REFERENCE)]


def test_every_frozen_dynes_fit_is_reproduced(tmp_path):
    ops = workloads.pipeline(0, False, tmp_path,
                             pools=([], range(workloads.DYNES_POOL), None))
    assert {op.key for op in ops} == {k for k in REFERENCE if k.startswith("dynes_fit[")}
    assert _failures(ops) == []


def test_every_frozen_dynes_fit_command_prints_its_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the echoed csv path is relative, as when frozen
    keys, failures = set(), []
    for pool in range(workloads.CLI_POOL):
        # building a pool's operations writes that pool's input files
        ops = [op for op in workloads.pipeline(0, False, tmp_path, pools=([], [], pool))
               if op.key.startswith("cli.dynes-fit[")]
        keys |= {op.key for op in ops}
        failures += _failures(ops)
    assert keys == {k for k in REFERENCE if k.startswith("cli.dynes-fit[")}
    assert failures == []
