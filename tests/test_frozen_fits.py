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


# the l >= 1 term count of every normal_state sum and temperature_scan gradient:
# reference.json pins their values only, within tolerances that a moved stop can pass.
# The stop judges the l >= 1 series against a total without the static TE term, which
# every prescription shares; the plasma-bcs TE term of the 300 nm, 60 K gradient is not
# in it, so that sum takes one term more than when it was (237 against 236)
TERM_COUNTS = {
    "normal_state": {
        "pressure[plasma,Omega=1e4,T=0.1,d=500nm]": 43_364,
        "pressure[plasma,T=1.0,d=190nm]": 12_521,
        "gradient[drude,T=4.0,d=190nm]": 4_502,
        "gradient[drude,T=25.0,d=120nm]": 1_142,
        "pressure[drude,T=25.0,d=120.12nm]": 955,
        "pressure[drude,T=25.0,d=119.88nm]": 957,
        "gradient[drude,T=60.0,d=120nm]": 498,
        "pressure[drude,T=60.0,d=120.12nm]": 419,
        "pressure[drude,T=60.0,d=119.88nm]": 420,
        "gradient[drude,T=25.0,d=190nm]": 790,
        "pressure[drude,T=25.0,d=190.19nm]": 612,
        "pressure[drude,T=25.0,d=189.81nm]": 613,
        "gradient[drude,T=60.0,d=190nm]": 344,
        "pressure[drude,T=60.0,d=190.19nm]": 269,
        "pressure[drude,T=60.0,d=189.81nm]": 270,
        "gradient[drude,T=25.0,d=300nm]": 543,
        "pressure[drude,T=25.0,d=300.3nm]": 389,
        "pressure[drude,T=25.0,d=299.7nm]": 389,
        "gradient[drude,T=60.0,d=300nm]": 237,
        "pressure[drude,T=60.0,d=300.3nm]": 172,
        "pressure[drude,T=60.0,d=299.7nm]": 172,
        "gradient[drude,T=25.0,d=420nm]": 409,
        "pressure[drude,T=25.0,d=420.42nm]": 275,
        "pressure[drude,T=25.0,d=419.58nm]": 276,
        "gradient[drude,T=60.0,d=420nm]": 178,
        "pressure[drude,T=60.0,d=420.42nm]": 122,
        "pressure[drude,T=60.0,d=419.58nm]": 123,
        "gradient[drude,T=25.0,d=500nm]": 353,
        "pressure[drude,T=25.0,d=500.5nm]": 229,
        "pressure[drude,T=25.0,d=499.5nm]": 230,
        "gradient[drude,T=60.0,d=500nm]": 154,
        "pressure[drude,T=60.0,d=500.5nm]": 102,
        "pressure[drude,T=60.0,d=499.5nm]": 103,
    },
    "temperature_scan": {
        "gradient[bcs,T=13.2,d=1213nm]": 297,
        "gradient[bcs,T=13.45,d=1213nm]": 292,
        "gradient[bcs,T=13.7,d=1213nm]": 287,
        "gradient[bcs,T=13.95,d=1213nm]": 282,
        "gradient[bcs,T=14.19,d=1213nm]": 277,
        "gradient[drude,T=14.3,d=1213nm]": 275,
        "gradient[drude,T=14.6,d=1213nm]": 270,
    },
}


@pytest.mark.parametrize("workload", sorted(TERM_COUNTS))
def test_every_engine_sum_keeps_its_term_count(workload):
    ops = [op for op in workloads.build(workload, 0, False, None)
           if op.key.startswith(("gradient[", "pressure["))]
    assert {op.key: op.run()["n_terms"] for op in ops} == TERM_COUNTS[workload]


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
