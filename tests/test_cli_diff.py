"""The comparison of tools/cli_diff.py on hand-made records."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cli_diff.py"
_SPEC = importlib.util.spec_from_file_location("cli_diff", _PATH)
cli_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_diff)


def record(op, kind="balance", code=0, out="verdict: converged\nresidual: 1e-12\n", err=""):
    return {"op": op, "kind": kind, "code": code, "out": out, "err": err}


def test_identical_records_do_not_differ():
    ours = [record("solve-mix/1/0"), record("solve-mix/1/1", kind="torus", code=21, err="x\n")]
    assert cli_diff.differences(ours, [dict(r) for r in ours]) == []


def test_each_differing_op_is_named_with_its_first_differing_line():
    ours = [
        record("solve-mix/1/0"),
        record("solve-mix/1/1", kind="balance_target", out="a\nb\nc\n"),
        record("solve-mix/1/2", kind="torus", code=21, err="cap\n"),
        record("solve-mix/1/3", out="a\n"),
        record("solve-mix/1/4"),
    ]
    theirs = [
        record("solve-mix/1/0"),
        record("solve-mix/1/1", kind="balance_target", out="a\nB\nC\n"),
        record("solve-mix/1/2", kind="torus", code=0, err="flat\n"),
        record("solve-mix/1/3", out="a\nb\n"),
        record("solve-mix/1/5"),
    ]
    assert cli_diff.differences(ours, theirs) == [
        ("solve-mix/1/1", "balance_target", "stdout line 2: b | B"),
        ("solve-mix/1/2", "torus", "exit 21 | 0"),  # the exit code is compared first
        ("solve-mix/1/3", "balance", "stdout line 2: <end> | b"),
        ("solve-mix/1/4", "balance", "missing in the other checkout"),
        ("solve-mix/1/5", "balance", "missing in this checkout"),
    ]


def test_a_stderr_difference_is_reported():
    ours = [record("balance-large/2/7", err="error: one\n")]
    theirs = [record("balance-large/2/7", err="error: two\n")]
    assert cli_diff.differences(ours, theirs) == [
        ("balance-large/2/7", "balance", "stderr line 1: error: one | error: two")
    ]


def test_a_trace_difference_is_reported_and_a_missing_trace_reads_as_empty():
    trace = "iteration,residual,kempf_ness\n0,0.5,0\n1,1e-11,-0.25\n"
    ours = [
        dict(record("balance-large/1/3"), trace=trace),
        record("balance-large/1/4"),
        dict(record("balance-large/1/5"), trace=trace),
    ]
    theirs = [
        dict(record("balance-large/1/3"), trace=trace.replace("1e-11", "2e-11")),
        dict(record("balance-large/1/4"), trace=""),
        dict(record("balance-large/1/5"), trace=trace),
    ]
    assert cli_diff.differences(ours, theirs) == [
        (
            "balance-large/1/3",
            "balance",
            "trace line 3: 1,1e-11,-0.25 | 1,2e-11,-0.25 (numbers only, largest difference 1e-11)",
        )
    ]


def test_a_difference_in_numbers_only_reports_the_largest_one():
    ours = [
        record("solve-mix/1/11", kind="weight", out="lambda,flow\n0.5,0.25\n1,-2e-3\n"),
        record("solve-mix/1/12", kind="weight", out="x 1.5\n"),
        record("solve-mix/2/3", kind="torus", code=21, err="residual 2e-10 after 7\n"),
    ]
    theirs = [
        record("solve-mix/1/11", kind="weight", out="lambda,flow\n0.5,0.2500001\n1,-2.5e-3\n"),
        record("solve-mix/1/12", kind="weight", out="y 1.5\n"),
        record("solve-mix/2/3", kind="torus", code=21, err="residual 3e-10 after 7\n"),
    ]
    assert cli_diff.differences(ours, theirs) == [
        (
            "solve-mix/1/11",
            "weight",
            "stdout line 2: 0.5,0.25 | 0.5,0.2500001 (numbers only, largest difference 0.0005)",
        ),
        ("solve-mix/1/12", "weight", "stdout line 1: x 1.5 | y 1.5"),  # the text differs too
        (
            "solve-mix/2/3",
            "torus",
            "stderr line 1: residual 2e-10 after 7 | residual 3e-10 after 7 "
            "(numbers only, largest difference 1e-10)",
        ),
    ]


def test_the_summary_gives_each_kind_its_differing_ops_and_largest_number_difference():
    ours = [
        record("solve-mix/1/0", kind="weight", out="1,0.25\n"),
        record("solve-mix/1/1", kind="weight", out="1,0.5\n"),
        record("solve-mix/1/2", kind="weight", out="1,0.75\n"),
        record("solve-mix/1/3", kind="torus", code=21),
        record("solve-mix/1/4", kind="torus"),
        record("solve-mix/1/5"),
    ]
    theirs = [
        record("solve-mix/1/0", kind="weight", out="1,0.2500001\n"),
        record("solve-mix/1/1", kind="weight", out="1,0.5\n"),
        record("solve-mix/1/2", kind="weight", out="1,0.76\n"),
        record("solve-mix/1/3", kind="torus", code=0),
        record("solve-mix/1/4", kind="torus"),
        record("solve-mix/1/5"),
        record("solve-mix/1/6", kind="sphere_balance"),
    ]
    assert cli_diff.kind_summary(ours, theirs) == [
        "balance: 0 of 1 ops differ",
        "sphere_balance: 1 of 1 ops differ",  # run by the other checkout only
        "torus: 1 of 2 ops differ",  # an exit code has no numeric difference
        "weight: 2 of 3 ops differ, largest numeric difference 0.01",
    ]


def test_the_runs_cover_every_benchmark_workload_on_two_seeds(monkeypatch):
    monkeypatch.syspath_prepend(str(_PATH.parents[1] / "perfbench"))
    inputs = importlib.import_module("inputs")
    assert {name for name, _ in cli_diff.RUNS} == set(inputs.WORKLOADS)
    for name in inputs.WORKLOADS:
        assert sorted(seed for run, seed in cli_diff.RUNS if run == name) == [1, 2]
