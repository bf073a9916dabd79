"""The summary and exit code of tools/measure_intake.py on hand-made rows."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "measure_intake.py"
_SPEC = importlib.util.spec_from_file_location("measure_intake", _PATH)
measure_intake = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(measure_intake)

STAGES = measure_intake.STAGES


def op_row(ms, text="t", verdict="converged", iterations=5):
    return {
        "ms": dict(zip(STAGES, ms)),
        "numbers": "n",
        "text": text,
        "verdict": verdict,
        "iterations": iterations,
    }


def merge_row(ms, kept=10):
    return {"ms": {"merge": ms}, "kept": kept}


def side(inputs, merges=()):
    return {"inputs": list(inputs), "merges": list(merges)}


def test_the_summary_sums_each_stage_and_counts_differing_outputs():
    this = side(
        [op_row([1.0, 2.0, 0.5, 3.0, 0.25]), op_row([2.0, 1.0, 0.5, 1.0, 0.25], text="a")],
        [merge_row(4.0), merge_row(9.5, kept=7)],
    )
    other = side(
        [op_row([1.5, 4.0, 0.5, 3.0, 0.5]), op_row([2.5, 2.0, 0.25, 1.0, 0.5], iterations=6)],
        [merge_row(8.0), merge_row(20.0, kept=8)],
    )
    assert measure_intake.summary(this, other) == {
        "inputs": 2,
        "outputs_differ": 2,  # the second input (text and iterations) and the second cloud
        "this_ms": {"parse_json": 3.0, "read_numbers": 3.0, "construct": 1.0, "balance": 4.0, "print": 0.5,
                    "total": 11.5},
        "this_merge_ms": [4.0, 9.5],
        "other_ms": {"parse_json": 4.0, "read_numbers": 6.0, "construct": 0.75, "balance": 4.0, "print": 1.0,
                     "total": 15.75},
        "other_merge_ms": [8.0, 20.0],
    }


def test_best_of_takes_each_stages_least_time_over_the_rounds():
    rounds = [[op_row([3.0, 1.0, 2.0, 5.0, 1.0])], [op_row([2.0, 4.0, 1.0, 6.0, 0.5])]]
    assert measure_intake.best_of(rounds) == [op_row([2.0, 1.0, 1.0, 5.0, 0.5])]
    assert measure_intake.best_of([[merge_row(3.0)], [merge_row(2.5)]]) == [merge_row(2.5)]


CASES = [
    {"file": "/x/m0000.json", "method": "fixed-point"},
    {"file": "/x/m0001.json", "method": "geodesic-descent"},
]


def fake_run(monkeypatch, theirs):
    """Run main on CASES with this checkout's rows fixed and the other checkout's rows
    ``theirs``; no subprocess runs.  Returns the checkouts in the order they ran."""
    ran = []

    def run_checkout(checkout, in_path, work):
        with open(in_path, encoding="utf-8") as fh:
            assert json.load(fh) == CASES
        ran.append(checkout)
        ours = side([op_row([1.0] * 5), op_row([2.0] * 5)], [merge_row(1.0)] * 3)
        return ours if checkout == measure_intake.ROOT else theirs

    monkeypatch.setattr(measure_intake, "cases", lambda work: CASES)
    monkeypatch.setattr(measure_intake, "run_checkout", run_checkout)
    return ran


@pytest.fixture
def other(tmp_path):
    (tmp_path / "src" / "measure_balancer").mkdir(parents=True)
    return tmp_path


def test_main_exits_0_when_every_output_agrees(monkeypatch, capsys, other):
    ran = fake_run(monkeypatch, side([op_row([3.0] * 5), op_row([4.0] * 5)], [merge_row(2.0)] * 3))
    assert measure_intake.main([str(other)]) == 0
    order = [measure_intake.ROOT, other.resolve()]
    assert ran == (order[::-1] + order) * (measure_intake.ROUNDS // 2)  # round 0: other first
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["this_ms"]["total"] == 15.0
    assert report["summary"]["other_ms"]["total"] == 35.0
    assert [r["file"] for r in report["inputs"]] == ["m0000.json", "m0001.json"]
    assert [(r["m"], r["n"]) for r in report["merges"]] == list(measure_intake.MERGE_CLOUDS)


@pytest.mark.parametrize("theirs", [
    side([op_row([1.0] * 5), op_row([2.0] * 5, verdict="diverged")], [merge_row(1.0)] * 3),
    side([op_row([1.0] * 5), op_row([2.0] * 5)], [merge_row(1.0)] * 2 + [merge_row(1.0, kept=9)]),
], ids=["verdict", "kept-atoms"])
def test_main_exits_1_when_an_output_differs(theirs, monkeypatch, capsys, other):
    fake_run(monkeypatch, theirs)
    assert measure_intake.main([str(other)]) == 1
    assert json.loads(capsys.readouterr().out)["summary"]["outputs_differ"] == 1


@pytest.mark.parametrize("args", [[], ["a", "b"], ["no-checkout"]], ids=["none", "two", "not-a-checkout"])
def test_main_exits_2_on_a_bad_argument(args, monkeypatch, capsys, tmp_path):
    def no_cases(work):
        raise AssertionError("no case may be built")

    monkeypatch.setattr(measure_intake, "cases", no_cases)
    args = [str(tmp_path / a) if a == "no-checkout" else a for a in args]
    assert measure_intake.main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: measure_intake.py OTHER_CHECKOUT")
