"""The benchmark's output checker accepts right answers and flags wrong ones."""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checker  # noqa: E402
import inputs  # noqa: E402
from measure_balancer import cli  # noqa: E402


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def make_op(tmp_path, kind, z, w, expect, extra=()):
    path = tmp_path / "m.json"
    path.write_bytes(inputs._measure_bytes(z, w))
    command = "balance" if kind == "balance" else kind
    return inputs.Op(0, kind, [command, str(path), *extra], dict(expect, z=z, w=w, decompose=kind == "decompose"))


def with_doc(out, edit):
    """The report with its JSON document replaced by edit(document)."""
    head, _, _ = out.partition("\n{")
    doc = checker._doc(out)
    edit(doc)
    return head + "\n" + json.dumps(doc)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(5))


def test_balanced_g_passes_and_perturbed_g_is_flagged(tmp_path, rng):
    z, w, exp = inputs.stable_generic(rng, 2, 6)
    op = make_op(tmp_path, "balance", z, w, exp)
    code, out, err = run_cli(op.argv)
    assert checker.check(op, code, out, err) == ("ok", "")

    def perturb(doc):
        doc["g"][0][1][0] += 1e-6

    state, reason = checker.check(op, code, with_doc(out, perturb), err)
    assert state == "wrong" and "residual" in reason


def test_wrong_exit_code_is_flagged(tmp_path, rng):
    z, w, exp = inputs.planted_unstable(rng, 3, 1)
    op = make_op(tmp_path, "classify", z, w, exp)
    code, out, err = run_cli(op.argv)
    assert code == 12 and checker.check(op, code, out, err) == ("ok", "")
    assert checker.check(op, 0, out, err)[0] == "wrong"
    assert checker.check(op, 21, out, err)[0] == "cap"
    refusal = "error: 14 atoms exceeds the partition cap 12\n"
    assert checker.check(op, 2, "", refusal) == ("refused", "exit 2 instead of 12: " + refusal.strip())
    assert checker.check(op, None, "", "LinAlgError: SVD did not converge\n")[0] == "crash"
    assert checker.check(op, 20, out, err)[0] == "wrong"


@pytest.mark.parametrize("kind,extra", [("classify", ()), ("balance", ("--method", "geodesic-descent"))])
def test_missing_or_light_certificate_is_flagged(tmp_path, rng, kind, extra):
    z, w, exp = inputs.planted_unstable(rng, 2, 1)
    op = make_op(tmp_path, kind, z, w, exp, extra)
    code, out, err = run_cli(op.argv)
    assert checker.check(op, code, out, err) == ("ok", "")

    def drop(doc):
        doc["certificate"] = None

    def lighten(doc):
        doc["certificate"]["mass"] = (doc["certificate"]["dim"] + 1) / 3

    assert checker.check(op, code, with_doc(out, drop), err) == ("wrong", "certificate missing")
    assert checker.check(op, code, with_doc(out, lighten), err)[0] == "wrong"


def test_polystable_blocks_are_checked(tmp_path, rng):
    z, w, exp = inputs.polystable(rng, [1, 1, 2])
    op = make_op(tmp_path, "decompose", z, w, exp)
    code, out, err = run_cli(op.argv)
    assert code == 10 and checker.check(op, code, out, err) == ("ok", "")

    def shift_mass(doc):
        doc["decomposition"]["blocks"][0]["mass"] += 0.01

    assert checker.check(op, code, with_doc(out, shift_mass), err)[0] == "wrong"
