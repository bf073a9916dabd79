"""The summary and exit code of tools/descent_iters.py on hand-made rows."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from measure_balancer import AtomicMeasure

from helpers import gaussian_integer_measure, near_cutoff_cloud, near_hyperplane_cloud, rng

_PATH = Path(__file__).resolve().parent.parent / "tools" / "descent_iters.py"
_SPEC = importlib.util.spec_from_file_location("descent_iters", _PATH)
descent_iters = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(descent_iters)


def side(iterations, verdict="converged", ms=1.0, trials=None):
    trials = iterations + 1 if trials is None else trials  # the start and one trial per step
    return {"iterations": iterations, "verdict": verdict, "trials": trials, "ms": ms}


def row(this, other):
    return {"input": "x", "method": "fixed-point", "this": this, "other": other}


def test_the_summary_counts_changes_and_gives_each_side_its_sums_and_maxima():
    rows = [
        row(side(10, ms=1.5), side(10, ms=2.0)),
        row(side(12, "diverged", 0.1), side(8, "diverged", 0.2)),
        row(side(3, "ill-conditioned"), side(4, "diverged")),
        row(side(0, ms=0.2), side(1, "max-iterations", 0.125)),
    ]
    assert descent_iters.summary(rows) == {
        "inputs": 4,
        "more_iterations": 1,  # only the second input needs more here
        "iterations_differ": 3,
        "largest_iteration_change": 4,
        "verdicts_differ": 2,
        "theta_max_difference": None,  # no row has theta
        "this_iterations": 25,
        "this_max_iterations": 12,
        "this_trials": 29,
        "this_ms": 2.8,
        "other_iterations": 23,
        "other_max_iterations": 10,
        "other_trials": 27,
        "other_ms": 3.325,
    }


def test_the_summary_sums_each_sides_trials_apart_from_its_iterations():
    # Another trial count at the same iterations is a longer line search.
    rows = [
        row(side(10, trials=25), side(10, trials=14)),
        row(side(0, "exit-22", trials=0), side(0, "exit-22", trials=0)),
        row(side(3, "diverged", trials=4), side(3, "diverged", trials=9)),
    ]
    out = descent_iters.summary(rows)
    assert (out["this_trials"], out["other_trials"]) == (29, 23)
    assert (out["this_iterations"], out["other_iterations"]) == (13, 13)
    assert (out["iterations_differ"], out["verdicts_differ"]) == (0, 0)


def test_the_summary_gives_the_largest_iteration_change_with_its_sign_and_the_largest_theta_difference():
    rows = [
        row(dict(side(4), theta=[0.5, -0.5]), dict(side(9), theta=[0.25, -0.25])),
        row(dict(side(6), theta=[0.0, 0.0]), dict(side(5), theta=[1e-9, -1e-9])),
        row(side(0, "exit-22"), side(0, "exit-22")),
    ]
    out = descent_iters.summary(rows)
    assert (out["more_iterations"], out["iterations_differ"], out["largest_iteration_change"]) == (1, 2, -5)
    assert out["theta_max_difference"] == 0.25
    assert out["verdicts_differ"] == 0


def test_equal_rows_change_nothing():
    rows = [row(side(5), side(5)), row(side(7, "diverged"), side(7, "diverged"))]
    out = descent_iters.summary(rows)
    assert (out["more_iterations"], out["verdicts_differ"]) == (0, 0)
    assert out["this_iterations"] == out["other_iterations"] == 12


CASES = [
    ("planted", "planted/n2/s0", "{}", "fixed-point", None),
    ("planted", "planted/n2/s0", "{}", "geodesic-descent", None),
    ("solve-mix", "solve-mix/1/4", "{}", "target", '{"rho": []}'),
]


def fake_run(monkeypatch, theirs):
    """Run main on CASES with this checkout's rows all converged in 3
    iterations and the other checkout's rows ``theirs``; no subprocess runs."""
    seen = []

    def run_checkout(checkout, in_path, work):
        with open(in_path, encoding="utf-8") as fh:
            seen.append((checkout, json.load(fh)))
        return [side(3) for _ in CASES] if checkout == descent_iters.ROOT else theirs

    monkeypatch.setattr(descent_iters, "cases", lambda: CASES)
    monkeypatch.setattr(descent_iters, "run_checkout", run_checkout)
    return seen


@pytest.fixture
def other(tmp_path):
    (tmp_path / "src" / "measure_balancer").mkdir(parents=True)
    return tmp_path


def test_main_exits_0_when_no_verdict_differs(monkeypatch, capsys, other):
    seen = fake_run(monkeypatch, [side(3), side(4), side(2)])
    assert descent_iters.main([str(other)]) == 0
    docs = [{"measure": "{}", "method": m, "target": t} for *_, m, t in CASES]
    assert seen == [(descent_iters.ROOT, docs), (other.resolve(), docs)]
    report = json.loads(capsys.readouterr().out)
    assert list(report["groups"]) == ["planted/fixed-point", "planted/geodesic-descent", "solve-mix/target"]
    assert report["groups"]["planted/geodesic-descent"]["other_iterations"] == 4
    assert report["groups"]["planted/geodesic-descent"]["other_trials"] == 5
    assert report["groups"]["solve-mix/target"]["this_trials"] == 4
    assert [r["input"] for r in report["inputs"]] == [label for _, label, *_ in CASES]


def test_main_exits_1_when_a_groups_verdicts_differ(monkeypatch, capsys, other):
    fake_run(monkeypatch, [side(3), side(3), side(200, "max-iterations")])
    assert descent_iters.main([str(other)]) == 1
    groups = json.loads(capsys.readouterr().out)["groups"]
    assert {name: g["verdicts_differ"] for name, g in groups.items()} == {
        "planted/fixed-point": 0,
        "planted/geodesic-descent": 0,
        "solve-mix/target": 1,
    }


@pytest.mark.parametrize("args", [[], ["a", "b"], ["no-checkout"]], ids=["none", "two", "not-a-checkout"])
def test_main_exits_2_on_a_bad_argument(args, monkeypatch, capsys, tmp_path):
    def no_cases():
        raise AssertionError("no case may be built")

    monkeypatch.setattr(descent_iters, "cases", no_cases)
    args = [str(tmp_path / a) if a == "no-checkout" else a for a in args]
    assert descent_iters.main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: descent_iters.py OTHER_CHECKOUT")


def test_the_sweep_takes_one_group_per_residue_of_i():
    groups = [None if c is None else c[0] for c in map(descent_iters.sweep_case, range(8))]
    assert groups == [
        "gaussian-integer", "near-cutoff", None, "near-hyperplane",
        "gaussian-integer", "near-cutoff", None, "near-hyperplane",
    ]


@pytest.mark.parametrize("i", [517, 521])
def test_the_near_cutoff_group_is_a_near_hyperplane_cloud_of_smaller_eps(i):
    group, label, nu = descent_iters.sweep_case(i)
    n = 1 + i % 3
    assert (group, label) == ("near-cutoff", f"near-cutoff/n{n}/s{i}")
    assert nu.to_json() == near_cutoff_cloud(i).to_json()
    r = rng(i)
    eps = 10.0 ** r.uniform(-10.3, -8.5)
    assert nu.to_json() == near_hyperplane_cloud(r, n, eps).to_json()


def test_the_other_groups_keep_their_inputs():
    r = rng(3)
    assert descent_iters.sweep_case(3)[2].to_json() == near_hyperplane_cloud(r, 1, 10.0 ** r.uniform(-9, -6)).to_json()
    assert descent_iters.sweep_case(12)[2].to_json() == gaussian_integer_measure(rng(12), 1, 6).to_json()


def test_a_torus_theta_is_compared_after_the_gauge_rule(monkeypatch, capsys, other):
    # Coordinates 0 and 1 form one component of the support graph and 2 is
    # untouched: the other side's theta differs by a constant on each.
    nu = AtomicMeasure(np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]), np.array([0.5, 0.5]))
    cases = [("torus", "torus/partial/n2/m2/s0", nu.to_json(), "torus", "[0.1, 0.2, -0.3]")]
    ours = dict(side(3), theta=[0.25, -0.25, 0.0])
    theirs = dict(side(3), theta=[1.25, 0.75, -2.0])
    monkeypatch.setattr(descent_iters, "cases", lambda: cases)
    monkeypatch.setattr(
        descent_iters, "run_checkout", lambda c, i, w: [dict(ours if c == descent_iters.ROOT else theirs)]
    )
    assert descent_iters.main([str(other)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["groups"]["torus/torus"]["theta_max_difference"] <= 1e-15
    assert report["inputs"][0]["other"]["theta"] == pytest.approx([0.25, -0.25, 0.0], abs=1e-15)


@pytest.mark.parametrize("i", range(8))
def test_the_torus_group_draws_its_sizes_supports_and_targets_from_i(i):
    group, label, nu, beta = descent_iters.torus_case(i)
    n, m = 1 + i % 5, 2 + (i // 5) % 7
    kind = "partial" if i % 2 else "full"
    assert (group, label) == ("torus", f"torus/{kind}/n{n}/m{m}/s{i}")
    assert (nu.dim, beta.shape) == (n, (n + 1,))
    assert nu.atom_count == m if i % 2 == 0 else nu.atom_count <= m  # atoms on one axis merge
    support = np.abs(nu.coeff_matrix()) > 1e-12
    assert support.any(axis=1).all() and support.all() == (i % 2 == 0)
    assert not support[:, -1].any() if i % 4 == 3 else True
    assert abs(beta.sum()) <= 1e-12
    same = descent_iters.torus_case(i)
    assert nu.to_json() == same[2].to_json() and np.array_equal(beta, same[3])


def test_the_cases_end_with_the_torus_group():
    torus = [c for c in descent_iters.cases() if c[3] == "torus"]
    assert len(torus) == descent_iters.TORUS_END
    group, label, doc, _, target = torus[5]
    assert (group, label) == descent_iters.torus_case(5)[:2]
    assert json.loads(target) == descent_iters.torus_case(5)[3].tolist()


def test_the_worker_counts_the_moved_states_of_one_solve(tmp_path, monkeypatch):
    # Each repeat restarts the count, so a row's trials are those of one solve.
    from measure_balancer import balance, balancing

    nu = gaussian_integer_measure(rng(4), 2, 5)
    calls = []
    moved_state = balancing.moved_state
    monkeypatch.setattr(balancing, "moved_state", lambda *a: calls.append(1) or moved_state(*a))
    want = balance(nu, method="geodesic-descent")
    in_path = tmp_path / "cases.json"
    in_path.write_text(json.dumps([{"measure": nu.to_json(), "method": "geodesic-descent", "target": None}]))
    (got,) = descent_iters.run_checkout(descent_iters.ROOT, str(in_path), str(tmp_path))
    assert (got["iterations"], got["verdict"]) == (want.iterations, want.verdict)
    assert got["trials"] == len(calls) > want.iterations
