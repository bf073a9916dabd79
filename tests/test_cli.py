"""Command-line interface: subcommands, exit codes, file formats."""

import csv
import gc
import importlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import measure_balancer
from measure_balancer import AtomicMeasure, ProjectivePoint, SphereMeasure, balancing, cli, stability
from measure_balancer.cli import main

from helpers import (
    SINGULAR_S_SEEDS,
    direct_momentum_residual,
    near_hyperplane_cloud,
    random_vector,
    rng,
    singular_s_cloud,
    stable_measure,
    torus_gradient,
)


def write_measure(tmp_path, name, rows, weights):
    nu = AtomicMeasure([ProjectivePoint(z) for z in rows], weights)
    path = tmp_path / name
    path.write_text(nu.to_json(), encoding="utf-8")
    return str(path)


def write_sphere(tmp_path, name, points, weights):
    sm = SphereMeasure(np.array(points, dtype=float), weights)
    path = tmp_path / name
    path.write_text(sm.to_json(), encoding="utf-8")
    return str(path)


def json_tail(output: str) -> dict:
    """Parse the canonical JSON document that ends a report."""
    start = output.index("\n{")
    return json.loads(output[start:])


@pytest.fixture
def stable_file(tmp_path):
    return write_measure(
        tmp_path, "stable.json",
        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.34, 0.33, 0.33],
    )


@pytest.fixture
def polystable_file(tmp_path):
    return write_measure(
        tmp_path, "poly.json", [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]
    )


@pytest.fixture
def semistable_file(tmp_path):
    return write_measure(
        tmp_path, "semi.json",
        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.5, 0.25, 0.25],
    )


@pytest.fixture
def unstable_file(tmp_path):
    return write_measure(
        tmp_path, "unstable.json", [[1.0, 0.0], [0.0, 1.0]], [0.9, 0.1]
    )


# ---------------------------------------------------------------------------
# classify


def test_classify_exit_codes_cover_all_verdicts(
    stable_file, polystable_file, semistable_file, unstable_file, capsys
):
    assert main(["classify", stable_file]) == 0
    assert main(["classify", polystable_file]) == 10
    assert main(["classify", semistable_file]) == 11
    assert main(["classify", unstable_file]) == 12
    capsys.readouterr()


def test_classify_reports_margin_and_json(stable_file, capsys):
    assert main(["classify", stable_file]) == 0
    out = capsys.readouterr().out
    assert "verdict: stable" in out
    doc = json_tail(out)
    assert doc["kind"] == "stable"
    assert doc["margin"] == pytest.approx(0.5 - 0.34)
    assert doc["certificate"] is None


def test_classify_unstable_includes_certificate(unstable_file, capsys):
    assert main(["classify", unstable_file]) == 12
    out = capsys.readouterr().out
    doc = json_tail(out)
    cert = doc["certificate"]
    assert cert["dim"] == 0
    assert cert["mass"] == pytest.approx(0.9)
    assert cert["atom_indices"] == [0]
    assert len(cert["basis"]) == 1


def test_classify_strict_flag_changes_boundary_verdict(tmp_path, capsys):
    eps = 5e-10
    path = write_measure(
        tmp_path, "near.json", [[1.0, 0.0], [0.0, 1.0]], [0.5 - eps, 0.5 + eps]
    )
    assert main(["classify", path]) == 10  # snapped to the boundary
    assert main(["classify", "--strict", path]) == 12  # exact arithmetic
    capsys.readouterr()


def test_decompose_reports_blocks(polystable_file, capsys):
    assert main(["decompose", polystable_file]) == 10
    out = capsys.readouterr().out
    doc = json_tail(out)
    blocks = doc["decomposition"]["blocks"]
    assert len(blocks) == 2
    assert sorted(b["mass"] for b in blocks) == [0.5, 0.5]
    assert all(b["dim"] == 0 for b in blocks)
    assert all(b["measure"]["n"] == 0 for b in blocks)


def test_decompose_stable_measure_gives_single_block(stable_file, capsys):
    assert main(["decompose", stable_file]) == 0
    doc = json_tail(capsys.readouterr().out)
    assert len(doc["decomposition"]["blocks"]) == 1
    assert doc["decomposition"]["blocks"][0]["mass"] == pytest.approx(1.0)


def thirteen_atoms(kind):
    """13-atom rows and weights: stable, or on the boundary with or without a split."""
    r = rng(41)
    if kind == "stable":
        nu = stable_measure(r, 2, m=13)
        return nu.coeff_matrix(), nu.weights
    if kind == "semistable":  # an atom of mass 1/2 on CP^1 beside 12 others
        return [[1.0, 0.0]] + [random_vector(r, 2) for _ in range(12)], [0.5] + [1 / 24] * 12
    # a point of mass 1/3 and 12 atoms on a line that misses it
    line = [np.concatenate([[0.0], random_vector(r, 2)]) for _ in range(12)]
    return [[1.0, 0.0, 0.0]] + line, [1 / 3] + [1 / 18] * 12


@pytest.mark.parametrize(
    "command, kind, code",
    [("decompose", "stable", 0), ("classify", "semistable", 11), ("classify", "polystable", 10)],
)
def test_thirteen_atom_measures_are_answered(tmp_path, command, kind, code, capsys):
    path = write_measure(tmp_path, "m13.json", *thirteen_atoms(kind))
    assert main([command, path]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json_tail(captured.out)
    if code == 11:
        assert doc["decomposition"] is None
    else:
        blocks = doc["decomposition"]["blocks"]
        assert sum(len(b["measure"]["atoms"]) for b in blocks) == 13


@pytest.mark.parametrize("argv", [["classify"], ["classify", "--decompose"], ["decompose"]])
def test_candidates_are_enumerated_once_per_call(
    argv, stable_file, polystable_file, semistable_file, unstable_file, monkeypatch, capsys
):
    calls = []
    enumerate_candidates = stability.candidate_subspaces

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_candidates(*args, **kwargs)

    monkeypatch.setattr(stability, "candidate_subspaces", counted)
    for path in (stable_file, polystable_file, semistable_file, unstable_file):
        calls.clear()
        main(argv + [path])
        assert len(calls) == 1, path


def test_classify_missing_file_is_input_error(capsys):
    assert main(["classify", "/nonexistent/measure.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_classify_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 1, "atoms": [', encoding="utf-8")
    assert main(["classify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


# (command, document read as DOC, message on stderr) of each input check
MALFORMED_INPUTS = {
    "matrix-not-object": (["weight", "STABLE", "--direction", "DOC"], "[1, 2]", "DOC: expected a JSON object"),
    "matrix-key-missing": (["weight", "STABLE", "--direction", "DOC"], '{"b": []}',
                           'DOC: direction document needs key "a"'),
    "matrix-rows-empty": (["weight", "STABLE", "--direction", "DOC"], '{"a": []}',
                          "expected a non-empty list of matrix rows"),
    "matrix-row-not-list": (["weight", "STABLE", "--direction", "DOC"], '{"a": [[[1, 0], [0, 0]], 1]}',
                            "matrix rows must be non-empty lists"),
    "matrix-row-empty": (["balance", "STABLE", "--target", "DOC"], '{"rho": [[]]}',
                         "matrix rows must be non-empty lists"),
    "matrix-ragged": (["balance", "STABLE", "--target", "DOC"], '{"rho": [[[0.5, 0], [0, 0]], [[0.5, 0]]]}',
                      "matrix rows have inconsistent lengths"),
    "random-zero": (["weight", "STABLE", "--random", "0"], None, "--random needs a positive count"),
    "measure-not-object": (["classify", "DOC"], "[]", "measure document must be a JSON object"),
    "measure-atoms-empty": (["classify", "DOC"], '{"n": 1, "atoms": []}', '"atoms" must be a non-empty list'),
    "measure-atom-no-z": (["classify", "DOC"], '{"n": 1, "atoms": [{"w": 1}]}',
                          'each atom needs keys "z" and "w"'),
    "measure-atom-no-w": (["classify", "DOC"], '{"n": 1, "atoms": [{"z": [[1, 0], [0, 0]]}]}',
                          'each atom needs keys "z" and "w"'),
    "sphere-atoms-empty": (["sphere", "DOC", "com"], '{"atoms": []}', '"atoms" must be a non-empty list'),
    "sphere-atom-no-x": (["sphere", "DOC", "com"], '{"atoms": [{"w": 1}]}',
                         'each sphere atom needs keys "x" and "w"'),
    "sphere-atom-no-w": (["sphere", "DOC", "balance"], '{"atoms": [{"x": [0, 0, 1]}]}',
                         'each sphere atom needs keys "x" and "w"'),
    "torus-beta-nan": (["torus", "STABLE", "--beta=nan,0"], None, "beta components must be finite"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_each_input_check_exits_2_with_its_message(tmp_path, stable_file, case, capsys):
    argv, document, message = MALFORMED_INPUTS[case]
    doc = tmp_path / "doc.json"
    if document is not None:
        doc.write_text(document, encoding="utf-8")
    argv = [{"STABLE": stable_file, "DOC": str(doc)}.get(a, a) for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message.replace('DOC', str(doc))}\n"


# argv of each reader of an input document, DOC the document it reads
DOCUMENT_READERS = {
    "measure": ["classify", "DOC"],
    "sphere": ["sphere", "DOC", "com"],
    "target": ["balance", "STABLE", "--target", "DOC"],
}


@pytest.mark.parametrize("reader", sorted(DOCUMENT_READERS))
def test_a_file_that_is_not_utf8_exits_2(tmp_path, stable_file, reader, capsys):
    doc = tmp_path / "doc.json"
    doc.write_bytes(b'{"n": 1}\xff')
    argv = [{"STABLE": stable_file, "DOC": str(doc)}.get(a, a) for a in DOCUMENT_READERS[reader]]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read {doc}: 'utf-8' codec can't decode byte 0xff")


# argv of each writer of an output file, OUT the file it writes
OUTPUT_WRITERS = {
    "balance-trace": ["balance", "STABLE", "--trace", "OUT"],
    "weight-output": ["weight", "STABLE", "--random", "2", "--output", "OUT"],
}


@pytest.mark.parametrize("writer", sorted(OUTPUT_WRITERS))
def test_an_output_file_that_cannot_be_written_exits_2(tmp_path, stable_file, writer, capsys):
    path = tmp_path / "missing" / "out.csv"
    argv = [{"STABLE": stable_file, "OUT": str(path)}.get(a, a) for a in OUTPUT_WRITERS[writer]]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: [Errno 2] No such file or directory")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not path.parent.exists()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("reader", sorted(DOCUMENT_READERS))
def test_deeply_nested_json_exits_2_and_leaves_the_gc_as_it_was(
    tmp_path, stable_file, reader, enabled, capsys
):
    doc = tmp_path / "doc.json"
    doc.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    argv = [{"STABLE": stable_file, "DOC": str(doc)}.get(a, a) for a in DOCUMENT_READERS[reader]]
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert main(argv) == 2
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: invalid JSON: maximum recursion depth exceeded")


# ---------------------------------------------------------------------------
# weight


def test_weight_with_explicit_direction(tmp_path, stable_file, capsys):
    dpath = tmp_path / "dir.json"
    dpath.write_text(
        json.dumps({"a": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}),
        encoding="utf-8",
    )
    assert main(["weight", stable_file, "--direction", str(dpath)]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 1
    # stratum masses: 0.33 on the low eigenvalue, 0.67 on the high one
    assert float(rows[0]["lambda"]) == pytest.approx(-0.33 + 0.67, abs=1e-12)
    assert rows[0]["eigenvalues"].split() == ["-1", "1"]


def test_weight_random_scan_writes_csv_file(tmp_path, stable_file, capsys):
    out_path = tmp_path / "scan.csv"
    code = main(
        ["weight", stable_file, "--random", "4", "--seed", "7",
         "--output", str(out_path)]
    )
    assert code == 0
    rows = list(csv.DictReader(out_path.read_text(encoding="utf-8").splitlines()))
    assert len(rows) == 4
    assert [r["direction"] for r in rows] == ["0", "1", "2", "3"]
    for r in rows:
        assert float(r["lambda"]) > 0  # the measure is stable
    capsys.readouterr()


def test_weight_random_scan_is_deterministic(stable_file, capsys):
    main(["weight", stable_file, "--random", "3", "--seed", "11"])
    first = capsys.readouterr().out
    main(["weight", stable_file, "--random", "3", "--seed", "11"])
    second = capsys.readouterr().out
    assert first == second


def test_weight_flow_check_columns(stable_file, capsys):
    assert main(["weight", stable_file, "--random", "2", "--flow-check", "40"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(out.splitlines()))
    for r in rows:
        assert abs(float(r["flow_discrepancy"])) <= 1e-6
        assert float(r["flow_lambda"]) == pytest.approx(
            float(r["lambda"]), abs=1e-6
        )


def test_weight_flow_check_at_large_times_skips_absent_components(tmp_path, capsys):
    # [0:1] has no component on the top eigenvalue of diag(1, -1); at t = 400
    # its factor exp(800) times that zero component must not become NaN.
    path = write_measure(tmp_path, "nu.json", [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.4, 0.3, 0.3])
    dpath = tmp_path / "dir.json"
    dpath.write_text(
        json.dumps({"a": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}),
        encoding="utf-8",
    )
    assert main(["weight", path, "--direction", str(dpath), "--flow-check", "400"]) == 0
    (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
    assert float(row["lambda"]) == pytest.approx(0.4, abs=1e-12)
    assert float(row["flow_lambda"]) == pytest.approx(0.4, abs=1e-12)


def test_flow_check_and_sphere_balance_build_no_projective_point(
    tmp_path, stable_file, monkeypatch, capsys
):
    sphere = write_sphere(
        tmp_path, "sphere.json", [[0, 0, 1.0], [0, 0, -1.0], [1.0, 0, 0]], [0.45, 0.3, 0.25]
    )
    built = []
    post_init = ProjectivePoint.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ProjectivePoint, "__post_init__", counted)
    assert main(["weight", stable_file, "--random", "5", "--flow-check", "40"]) == 0
    assert main(["sphere", sphere, "balance"]) == 0
    capsys.readouterr()
    assert built == []
    ProjectivePoint([1.0, 0.0])  # the count does see a construction
    assert len(built) == 1


def test_weight_rejects_a_negative_seed(stable_file, capsys):
    assert main(["weight", stable_file, "--random", "3", "--seed", "-1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("t_max", ["inf", "nan"])
def test_weight_rejects_a_non_finite_flow_check_time(stable_file, capsys, t_max):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["weight", stable_file, "--random", "3", "--flow-check", t_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "t_max must be finite and >= 0" in captured.err


def test_a_random_weight_scan_decomposes_with_one_eigh(stable_file, monkeypatch, capsys):
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert main(["weight", stable_file, "--random", "100"]) == 0
    capsys.readouterr()
    assert shapes == [(100, 2, 2)]


def test_weight_needs_a_direction_source(stable_file, capsys):
    assert main(["weight", stable_file]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# balance


def test_balance_converges_and_reports_group_element(stable_file, capsys):
    assert main(["balance", stable_file]) == 0
    out = capsys.readouterr().out
    assert "verdict: converged" in out
    doc = json_tail(out)
    assert doc["verdict"] == "converged"
    assert doc["residual"] <= 1e-10
    g = np.array([[complex(re, im) for re, im in row] for row in doc["g"]])
    assert abs(np.linalg.det(g) - 1.0) < 1e-9


def test_balance_unstable_exits_20_with_certificate(unstable_file, capsys):
    assert main(["balance", unstable_file]) == 20
    doc = json_tail(capsys.readouterr().out)
    assert doc["verdict"] == "diverged"
    assert doc["certificate"]["mass"] == pytest.approx(0.9, abs=1e-6)


def test_balance_semistable_exits_21(semistable_file, capsys):
    assert main(["balance", semistable_file, "--max-iter", "200"]) == 21
    doc = json_tail(capsys.readouterr().out)
    assert doc["verdict"] == "max-iterations"


def balance_converges_then_exits_23(tmp_path, nu, method, limit, capsys, monkeypatch):
    """Under the default COND_LIMIT ``balance`` converges on the stable nu (exit
    0, the printed g balances nu to 1e-9); with COND_LIMIT lowered to ``limit``,
    below the cond(g) that nu needs, it exits 23 with no certificate."""
    path = tmp_path / "near.json"
    path.write_text(nu.to_json(), encoding="utf-8")
    assert main(["balance", str(path), "--method", method]) == 0
    doc = json_tail(capsys.readouterr().out)
    assert doc["verdict"] == "converged"
    g = np.array([[complex(re, im) for re, im in row] for row in doc["g"]])
    assert direct_momentum_residual(measure_balancer.GroupElement(g), nu) <= 1e-9
    monkeypatch.setattr(balancing, "COND_LIMIT", limit)
    assert main(["balance", str(path), "--method", method]) == 23
    out = capsys.readouterr().out
    assert "verdict: ill-conditioned" in out
    doc = json_tail(out)
    assert doc["verdict"] == "ill-conditioned"
    assert doc["certificate"] is None


@pytest.mark.parametrize("method", ["fixed-point", "geodesic-descent"])
def test_balance_near_a_hyperplane_exits_23_without_certificate(tmp_path, method, capsys, monkeypatch):
    # Stable (margin 1/12); balancing needs cond(g) of about 2.2e6.
    nu = near_hyperplane_cloud(rng(72), 2, 1e-6)
    balance_converges_then_exits_23(tmp_path, nu, method, 1e5, capsys, monkeypatch)


@pytest.mark.parametrize("method", ["fixed-point", "geodesic-descent"])
@pytest.mark.parametrize("seed", SINGULAR_S_SEEDS)
def test_balance_with_a_rounded_singular_s_exits_23(tmp_path, seed, method, capsys, monkeypatch):
    # Balancing needs cond(g) of 3e8 to 1.5e9, so S = g* g would round to a
    # singular matrix; g itself converges.  A limit of 1e6 stops the run
    # ill-conditioned, and it must not exit 2.
    balance_converges_then_exits_23(tmp_path, singular_s_cloud(seed), method, 1e6, capsys, monkeypatch)


def test_balance_trace_csv(tmp_path, stable_file, capsys):
    trace_path = tmp_path / "trace.csv"
    assert main(["balance", stable_file, "--trace", str(trace_path)]) == 0
    rows = list(csv.DictReader(trace_path.read_text(encoding="utf-8").splitlines()))
    assert list(rows[0].keys()) == ["iteration", "residual", "kempf_ness"]
    assert [int(r["iteration"]) for r in rows] == list(range(len(rows)))
    residuals = [float(r["residual"]) for r in rows]
    assert residuals[-1] <= 1e-10
    doc = json_tail(capsys.readouterr().out)
    assert len(rows) == doc["iterations"] + 1


def test_balance_geodesic_descent_method(stable_file, capsys):
    assert main(["balance", stable_file, "--method", "geodesic-descent"]) == 0
    doc = json_tail(capsys.readouterr().out)
    assert doc["residual"] <= 1e-10


def test_balance_with_target_state(tmp_path, stable_file, capsys):
    tpath = tmp_path / "target.json"
    tpath.write_text(
        json.dumps({"rho": [[[0.6, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.4, 0.0]]]}),
        encoding="utf-8",
    )
    assert main(["balance", stable_file, "--target", str(tpath)]) == 0
    doc = json_tail(capsys.readouterr().out)
    assert doc["residual"] <= 1e-10


def test_balance_target_reports_a_failed_gram_solve(tmp_path, stable_file, capsys, monkeypatch):
    def failing_solve(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    tpath = tmp_path / "target.json"
    tpath.write_text(
        json.dumps({"rho": [[[0.6, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.4, 0.0]]]}),
        encoding="utf-8",
    )
    assert main(["balance", stable_file, "--target", str(tpath)]) == 2
    assert "error: Gram operator solve failed" in capsys.readouterr().err


def test_balance_target_on_unstable_is_input_error(
    tmp_path, unstable_file, capsys
):
    tpath = tmp_path / "target.json"
    tpath.write_text(
        json.dumps({"rho": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}),
        encoding="utf-8",
    )
    assert main(["balance", unstable_file, "--target", str(tpath)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["true", "1" + "0" * 400], ids=["bool", "huge-int"])
@pytest.mark.parametrize("command", ["classify", "weight --direction", "balance --target", "sphere com"])
def test_a_bool_or_an_over_large_integer_is_an_input_error(tmp_path, stable_file, command, value, capsys):
    path = str(tmp_path / "doc.json")
    document, where, argv = {  # the number V in a document, its place, and the command reading it
        "classify": ('{"n": 1, "atoms": [{"z": [[1, 0], [V, 0]], "w": 1}]}', "atoms[0].z[1][0]",
                     ["classify", path]),
        "weight --direction": ('{"a": [[[V, 0], [0, 0]], [[0, 0], [-1, 0]]]}', "a[0][0][0]",
                               ["weight", stable_file, "--direction", path]),
        "balance --target": ('{"rho": [[[0.6, 0], [0, 0]], [[0, 0], [0.4, V]]]}', "rho[1][1][1]",
                             ["balance", stable_file, "--target", path]),
        "sphere com": ('{"atoms": [{"x": [0, V, 1], "w": 1}]}', "atoms[0].x[1]", ["sphere", path, "com"]),
    }[command]
    Path(path).write_text(document.replace("V", value), encoding="utf-8")
    assert main(argv) == 2
    assert f"error: {where} must be a finite number, got {value}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sphere


def test_sphere_com_report(tmp_path, capsys):
    path = write_sphere(
        tmp_path, "sphere.json",
        [[0, 0, 1.0], [0, 0, -1.0], [1.0, 0, 0]], [0.5, 0.25, 0.25],
    )
    assert main(["sphere", path, "com"]) == 0
    doc = json_tail(capsys.readouterr().out)
    assert doc["center_of_mass"] == pytest.approx([0.25, 0.0, 0.25])


def test_sphere_balance_centers_measure(tmp_path, capsys):
    path = write_sphere(
        tmp_path, "sphere.json",
        [[0, 0, 1.0], [0, 0, -1.0], [1.0, 0, 0]], [0.45, 0.3, 0.25],
    )
    assert main(["sphere", path, "balance", "--tol", "5e-11"]) == 0
    out = capsys.readouterr().out
    assert "mobius" in out
    doc = json_tail(out)
    assert np.linalg.norm(doc["final_com"]) <= 1e-10


def test_sphere_balance_dominant_atom_exits_20(tmp_path, capsys):
    path = write_sphere(
        tmp_path, "sphere.json", [[0, 0, 1.0], [0, 0, -1.0]], [0.6, 0.4]
    )
    assert main(["sphere", path, "balance"]) == 20
    doc = json_tail(capsys.readouterr().out)
    cert = doc["certificate"]
    assert cert["mass"] == pytest.approx(0.6)
    assert cert["sphere_point"] == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)


@pytest.mark.parametrize("command", ["balance", "balance --target", "torus", "sphere balance"])
@pytest.mark.parametrize("cap, code", [("-1", 2), ("0", 21)])
def test_iteration_cap_must_not_be_negative(tmp_path, stable_file, command, cap, code, capsys):
    target = tmp_path / "target.json"
    target.write_text(
        json.dumps({"rho": [[[0.6, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.4, 0.0]]]}),
        encoding="utf-8",
    )
    sphere = write_sphere(
        tmp_path, "sphere.json",
        [[0, 0, 1.0], [0, 0, -1.0], [1.0, 0, 0]], [0.45, 0.3, 0.25],
    )
    argv = {
        "balance": ["balance", stable_file],
        "balance --target": ["balance", stable_file, "--target", str(target)],
        "torus": ["torus", stable_file, "--beta", "0.1,-0.1"],
        "sphere balance": ["sphere", sphere, "balance"],
    }[command]
    assert main(argv + ["--max-iter", cap]) == code
    err = capsys.readouterr().err
    assert ("iteration cap must be >= 0" in err) == (code == 2)


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
@pytest.mark.parametrize(
    "command, flag",
    [("classify", "--tol-eq"), ("decompose", "--tol-eq"), ("balance", "--tol"),
     ("torus", "--tol"), ("sphere balance", "--tol")],
)
def test_tolerances_must_be_finite_and_nonnegative(tmp_path, command, flag, value, capsys):
    # Mass 0.6 on one point of CP^2: unstable, margin -0.267.  A tolerance of
    # -1, nan or inf used to turn this into stable, semistable, polystable or
    # a converged balance.
    unstable = write_measure(
        tmp_path, "u.json",
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [0.6, 0.2, 0.2],
    )
    sphere = write_sphere(tmp_path, "s.json", [[0, 0, 1.0], [1.0, 0, 0]], [0.6, 0.4])
    argv = {
        "classify": ["classify", unstable],
        "decompose": ["decompose", unstable],
        "balance": ["balance", unstable],
        "torus": ["torus", unstable, "--beta=0.1,-0.05,-0.05"],
        "sphere balance": ["sphere", sphere, "balance"],
    }[command]
    assert main(argv + [f"{flag}={value}"]) == 2
    assert f"must be finite and >= 0, got {value}" in capsys.readouterr().err
    assert main(argv + [f"{flag}=0"]) != 2  # 0 is exact comparison, still valid


# ---------------------------------------------------------------------------
# torus


def test_torus_solve_reports_theta(stable_file, capsys):
    assert main(["torus", stable_file, "--beta", "0.1,-0.1"]) == 0
    doc = json_tail(capsys.readouterr().out)
    assert doc["converged"] is True
    assert doc["residual"] <= 1e-10
    assert doc["theta"][0] + doc["theta"][1] == pytest.approx(0.0, abs=1e-12)


# Two inputs on which the Newton solve used to stall a few iterations in, at
# residual 4.5e-10 and 2.2e-10, once the objective's decrease fell below its
# floating-point resolution: (atom rows as [re, im] pairs, weights, beta).
STALLED_TORUS = [
    (
        [
            [[0.8874268020834881, -0.048873006284681636], [0.26440407491364926, 0.3744003009742762]],
            [[-0.8482119679808129, 0.2333893659437605], [0.3988470177583048, 0.25881831014013046]],
            [[-0.5927278408251124, -0.29698418294343176], [-0.7460045710714508, -0.0628592215408625]],
            [[0.7383649722383685, -0.3658818093762742], [-0.26593542493848327, 0.5002259680402102]],
        ],
        [0.38500880396828047, 0.21276087070589383, 0.13437536611602424, 0.26785495920980135],
        "0.11020491095452845,-0.11020491095452845",
    ),
    (
        [
            [[0.27053831712928184, 0.06638782141057555], [-0.6950350519875559, -0.05334463062284567],
             [0.051594512405897644, -0.6586503695551827]],
            [[-0.4221601717169084, 0.3207830260119678], [0.5158894347658468, 0.20489553206520275],
             [-0.6323955556066349, -0.10407119161527632]],
            [[-0.42774325823907794, 0.5548195133116804], [-0.038172466812611085, -0.4839885861105563],
             [-0.42794522460448886, 0.30061904249392757]],
            [[0.3044297598941069, 0.32236330540216523], [-0.12006369707769508, -0.62600297009071],
             [-0.4333317838485068, -0.45752920760244686]],
            [[-0.4821265007600449, -0.07066665442954448], [-0.20433781822170782, 0.11564420155570265],
             [0.5901655629992987, -0.5992806889574092]],
            [[-0.1688062097685843, 0.51870064463382], [0.38746943679388895, 0.4143946405046418],
             [0.5515600625315527, 0.27636953466666553]],
        ],
        [0.1879303613730496, 0.2016896313886439, 0.13275533903287154, 0.3408720220314982,
         0.05300747679004229, 0.08374516938389445],
        "-0.09942106062560918,-0.07126360940165882,0.170684670027268",
    ),
]


@pytest.mark.parametrize("rows, weights, beta", STALLED_TORUS)
def test_torus_solve_does_not_stall_near_the_optimum(tmp_path, rows, weights, beta, capsys):
    atoms = [{"z": z, "w": w} for z, w in zip(rows, weights)]
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"n": len(rows[0]) - 1, "atoms": atoms}), encoding="utf-8")
    assert main(["torus", str(path), f"--beta={beta}"]) == 0
    doc = json_tail(capsys.readouterr().out)
    assert doc["converged"] is True
    nu = AtomicMeasure.from_json(path.read_text(encoding="utf-8"))
    p_target = np.array([float(b) for b in beta.split(",")]) + 1.0 / len(rows[0])
    assert np.linalg.norm(torus_gradient(nu, doc["theta"]) - p_target) <= 1e-10


def test_torus_outside_polytope_exits_22(tmp_path, capsys):
    path = write_measure(
        tmp_path, "pinned.json", [[1.0, 0.0], [1.0, 1.0]], [0.5, 0.5]
    )
    assert main(["torus", path, "--beta=-0.2,0.2"]) == 22
    assert "error:" in capsys.readouterr().err


def test_torus_target_on_an_untouched_coordinate_exits_22_and_names_it(tmp_path, capsys):
    path = write_measure(
        tmp_path, "plane.json", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]], [1 / 3] * 3
    )
    assert main(["torus", path, "--beta=0,0,0"]) == 22
    assert "coordinate 2 is unreachable" in capsys.readouterr().err


def test_torus_iteration_cap_exits_21(stable_file, capsys):
    # Reachable p_0 is (0.34, 0.67); ask for 1e-7 inside the upper edge with
    # an iteration budget far too small to get there.
    beta0 = 0.67 - 1e-7 - 0.5
    beta = f"{beta0},{-beta0}"
    assert main(["torus", stable_file, "--beta", beta, "--max-iter", "2"]) == 21
    assert "error:" in capsys.readouterr().err


def test_torus_bad_beta_is_input_error(stable_file, capsys):
    assert main(["torus", stable_file, "--beta", "0.1,oops"]) == 2
    assert main(["torus", stable_file, "--beta", "0.1,0.1"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# determinism and the console script


def test_classify_output_is_byte_identical_across_runs(tmp_path, capsys):
    r = rng(70)
    nu = stable_measure(r, 3)
    path = tmp_path / "m.json"
    path.write_text(nu.to_json(), encoding="utf-8")
    main(["classify", str(path), "--decompose"])
    first = capsys.readouterr().out
    main(["classify", str(path), "--decompose"])
    second = capsys.readouterr().out
    assert first == second


# ---------------------------------------------------------------------------
# one parser per process, scipy.optimize on the first LP (full support solves none)


def test_calls_on_the_one_parser_do_not_leak_into_each_other(tmp_path, stable_file, capsys):
    assert cli._parser() is cli._parser()
    with pytest.raises(SystemExit) as exc:
        main(["classify", stable_file, "--no-such-flag"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert main(["classify", stable_file]) == 0
    assert json_tail(capsys.readouterr().out)["decomposition"] is None

    assert main(["classify", "--decompose", stable_file]) == 0
    assert len(json_tail(capsys.readouterr().out)["decomposition"]["blocks"]) == 1
    assert main(["classify", stable_file]) == 0  # --decompose does not stick
    assert json_tail(capsys.readouterr().out)["decomposition"] is None

    assert main(["decompose", stable_file]) == 0
    capsys.readouterr()
    assert main(["classify", stable_file]) == 0  # nor does decompose's default
    assert json_tail(capsys.readouterr().out)["decomposition"] is None

    eps = 5e-10
    near = write_measure(tmp_path, "near.json", [[1.0, 0.0], [0.0, 1.0]], [0.5 - eps, 0.5 + eps])
    assert main(["classify", "--strict", near]) == 12
    assert main(["classify", near]) == 10  # --strict does not stick
    assert main(["decompose", near]) == 10
    capsys.readouterr()


def test_importing_the_package_leaves_scipy_optimize_unloaded(tmp_path):
    nu = AtomicMeasure(
        [ProjectivePoint([1.0, 0.0]), ProjectivePoint([0.0, 1.0]), ProjectivePoint([1.0, 1.0])],
        [0.34, 0.33, 0.33],
    )
    path = tmp_path / "m.json"
    path.write_text(nu.to_json(), encoding="utf-8")
    package_root = Path(measure_balancer.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import measure_balancer.cli\n"
        "import measure_balancer\n"
        "print('scipy.optimize' in sys.modules)\n"
        "code = measure_balancer.cli.main(['torus', sys.argv[2], '--beta', '0.1,-0.1'])\n"
        "print('scipy.optimize' in sys.modules, code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(package_root), str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "False"
    assert lines[-1] == "True 0"
    assert json_tail("\n".join(lines[1:-1]))["converged"] is True


def test_a_torus_solve_on_full_support_leaves_scipy_optimize_unloaded(tmp_path):
    path = write_measure(tmp_path, "full.json", [[1.0, 1.0], [1.0, -1.0], [1.0, 2.0]], [0.34, 0.33, 0.33])
    package_root = Path(measure_balancer.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import measure_balancer.cli\n"
        "code = measure_balancer.cli.main(['torus', sys.argv[2], '--beta', '0.1,-0.1'])\n"
        "print('scipy.optimize' in sys.modules, code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(package_root), path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "False 0"
    assert json_tail("\n".join(lines[:-1]))["converged"] is True


def project_scripts() -> dict:
    """The `[project.scripts]` table of the repository's `pyproject.toml`."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def write_launcher(bin_dir: Path, name: str, entry: str) -> None:
    """Write the launcher an install writes for the entry `module:attr`."""
    module, _, attr = entry.partition(":")
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n",
        encoding="utf-8",
    )
    script.chmod(0o755)


def test_console_script_runs_in_subprocess(tmp_path, monkeypatch):
    nu = AtomicMeasure(
        [ProjectivePoint([1.0, 0.0]), ProjectivePoint([0.0, 1.0])], [0.5, 0.5]
    )
    path = tmp_path / "m.json"
    path.write_text(nu.to_json(), encoding="utf-8")
    # Import the package from where this test imported it, whatever the cwd.
    package_root = Path(measure_balancer.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "measure_balancer.cli", str(path)],
        capture_output=True,
        text=True,
        input="",
        env=env,
    )
    # `python -m measure_balancer.cli` has no subcommand here: argparse errors
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr

    # The declared entry point returns the exit code rather than exiting.
    name = "measure-balancer"
    entry = project_scripts()[name]
    module, _, attr = entry.partition(":")
    func = getattr(importlib.import_module(module), attr)
    monkeypatch.setattr(sys, "argv", [name, "classify", str(path)])
    assert func() == 10

    # Run it by name, as users type it, through the launcher an install writes.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    write_launcher(bin_dir, name, entry)
    env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
    proc = subprocess.run(
        [name, "classify", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 10
    assert "polystable-not-stable" in proc.stdout
