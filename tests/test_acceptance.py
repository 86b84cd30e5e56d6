"""Acceptance gate: twelve criteria, one test and one pass/fail line each.

Criteria 1 through 9, 11 and 12 run the library's oracle-agreement suites
with their time budgets; criterion 10 drives the command line for
golden-output stability and the aggregate check command.  One more test
checks that every suite has a budget.
"""

import json
import subprocess
import sys
import types

import pytest

from infgon.acceptance import ALL_SUITES, run_suite

SUITES = dict(ALL_SUITES)

BUDGETS = {
    "crossing-ext-bridge": 30.0,
    "serre-duality": 30.0,
    "tower-colim-vs-wedge": 60.0,
    "inverse-tower-vs-wedge": 60.0,
    "prufer-prufer-tower": 60.0,
    "classification-fixtures": 5.0,
    "overarc-witnesses": 10.0,
    "graded-duality": 5.0,
    "shift-equivariance": 30.0,
    "family-maximality": 10.0,
    "tower-exactness": 10.0,
}


def test_every_suite_has_a_budget():
    assert [name for name in SUITES if name not in BUDGETS] == []


def run_criterion(number, name):
    result = run_suite(name, SUITES[name])
    budget = BUDGETS[name]
    line = (
        f"{'PASS' if result.passed else 'FAIL'} criterion-{number} {name} "
        f"checked={result.checked} time={result.seconds:.2f}s "
        f"budget={budget:.0f}s"
    )
    print(line)
    assert result.passed, f"criterion-{number} {name}: {result.detail}"
    assert result.seconds < budget, (
        f"criterion-{number} {name} overran its budget: "
        f"{result.seconds:.2f}s >= {budget:.0f}s"
    )
    return result


def test_criterion_01_crossing_ext_bridge():
    run_criterion(1, "crossing-ext-bridge")


def test_criterion_02_serre_duality():
    run_criterion(2, "serre-duality")


def test_criterion_03_tower_colim_vs_wedge():
    run_criterion(3, "tower-colim-vs-wedge")


def test_criterion_04_inverse_tower_vs_wedge():
    run_criterion(4, "inverse-tower-vs-wedge")


def test_criterion_05_prufer_prufer_tower():
    run_criterion(5, "prufer-prufer-tower")


def test_criterion_06_classification_fixtures():
    run_criterion(6, "classification-fixtures")


def test_criterion_07_overarc_witnesses():
    run_criterion(7, "overarc-witnesses")


def test_criterion_08_graded_duality():
    run_criterion(8, "graded-duality")


def test_criterion_09_shift_equivariance():
    run_criterion(9, "shift-equivariance")


def test_criterion_10_cli_golden_and_check(tmp_path):
    from infgon.cli import main

    fan = tmp_path / "fan.json"
    fan.write_text(
        json.dumps(
            {"generators": [{"kind": "fan", "vertex": 0}], "infinite_arcs": [0]}
        )
    )

    def capture(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "infgon.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    golden_commands = [
        ["classify", "--config", str(fan), "--json"],
        ["hom", "--from", "f:0:0", "--to", "p:0", "--json"],
        ["render", "--config", str(fan), "--window", "-5:5"],
    ]
    for argv in golden_commands:
        first = capture(argv)
        second = capture(argv)
        assert first == second, f"output drifted between runs: {argv}"

    rc = main(["check"])
    line = f"{'PASS' if rc == 0 else 'FAIL'} criterion-10 cli-golden-and-check"
    print(line)
    assert rc == 0


def test_criterion_11_family_maximality():
    run_criterion(11, "family-maximality")


def test_criterion_12_tower_exactness():
    run_criterion(12, "tower-exactness")


def test_tower_exactness_shares_no_tail_code():
    # its oracle side scans for the trailing runs and writes the quarter
    # rule out itself
    from infgon import acceptance

    shared = {"_quarter", "_stable_split", "_run_starts", "_run_row", "_region_run", "_starts"}
    assert shared.isdisjoint(vars(acceptance))


def _names(fn, seen):
    # the global and attribute names fn reads, and those of the module
    # functions it calls, transitively
    codes = [fn.__code__]
    while codes:
        code = codes.pop()
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        for name in set(code.co_names) - seen:
            seen.add(name)
            f = fn.__globals__.get(name)
            if isinstance(f, types.FunctionType):
                _names(f, seen)
    return seen


def test_ray_reads_keep_their_oracles_off_the_kernel():
    # the ray reads of three tower suites compare quiver._region, on arc
    # ends from arcs.object_to_arc, with wedge_contains or an inline slot
    # rule: neither the oracle nor the arc ends may reach the kernel, or
    # the arc ends a FiniteInd derives for it
    from infgon import arcs, quiver

    kernel = {"_region", "_region_run", "_hom_answer", "hom_dim", "ext_dim", "_i", "_j"}
    for fn in (quiver.wedge_contains, arcs.object_to_arc):
        assert kernel.isdisjoint(_names(fn, set())), fn.__name__
