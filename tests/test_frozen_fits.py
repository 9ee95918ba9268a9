"""The benchmark's frozen values, reproduced in tier-1.

``perfbench/reference.json`` pins every value the benchmark checks: the
engine values of ``jump_all``, ``temperature_scan`` and ``normal_state``,
every ``sweep`` and ``dynes_fit`` pool entry of ``pipeline``, and the
stdout (and written-file) bytes of every CLI round trip.  These tests run
the benchmark's own operations from ``perfbench/workloads.py`` against
that file, so a change that would flip a frozen value fails here, before a
benchmark run sees it.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def _failures(ops, workload="pipeline"):
    return [reason for op in ops
            for reason in workloads.check(op, op.run(), REFERENCE[workload])]


def _frozen(prefix):
    return {k for k in REFERENCE["pipeline"] if k.startswith(prefix)}


@pytest.mark.parametrize("workload", ["jump_all", "temperature_scan", "normal_state"])
def test_every_frozen_engine_value_is_reproduced(workload):
    # the tiny variant freezes an operation of its own (jump_all at 2 um)
    ops = {op.key: op for tiny in (False, True)
           for op in workloads.build(workload, 0, tiny, None)}
    assert {key for key, op in ops.items() if op.expected is None} == \
        set(REFERENCE[workload])
    assert _failures(ops.values(), workload) == []


def test_every_frozen_sweep_is_reproduced(tmp_path):
    ops = workloads.pipeline(0, False, tmp_path,
                             pools=(range(workloads.SWEEP_POOL), [], None))
    assert {op.key for op in ops} == _frozen("sweep[")
    assert _failures(ops) == []


def test_every_frozen_dynes_fit_is_reproduced(tmp_path):
    ops = workloads.pipeline(0, False, tmp_path,
                             pools=([], range(workloads.DYNES_POOL), None))
    assert {op.key for op in ops} == _frozen("dynes_fit[")
    assert _failures(ops) == []


def _command_failures(tmp_path, monkeypatch, dynes_fit):
    """Run, pool by pool and in order, the CLI round trip's ``dynes-fit``
    commands or all its others; returns the keys run and the failures."""
    monkeypatch.chdir(tmp_path)  # the echoed csv path is relative, as when frozen
    keys, failures = set(), []
    for pool in range(workloads.CLI_POOL):
        # building a pool's operations writes that pool's input files
        ops = [op for op in workloads.pipeline(0, False, tmp_path, pools=([], [], pool))
               if op.key.startswith("cli.dynes-fit[") == dynes_fit]
        keys |= {op.key for op in ops}
        failures += _failures(ops)
    return keys, failures


def test_every_frozen_dynes_fit_command_prints_its_bytes(tmp_path, monkeypatch):
    keys, failures = _command_failures(tmp_path, monkeypatch, dynes_fit=True)
    assert keys == _frozen("cli.dynes-fit[")
    assert failures == []


def test_every_other_frozen_command_prints_its_bytes(tmp_path, monkeypatch):
    # both generate-sweep runs, sweep with its report file, lcpd-fit and tables
    keys, failures = _command_failures(tmp_path, monkeypatch, dynes_fit=False)
    assert keys == _frozen("cli.") - _frozen("cli.dynes-fit[")
    assert failures == []
