"""The tracer restores the package, and BENCHMARK.json names what run.py emits."""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from measure_balancer import balancing, cli, geometry, stability  # noqa: E402


def test_uninstall_restores_every_binding(tmp_path):
    before = (cli.classify, balancing.classify, stability.classify, np.linalg.svd, geometry.ProjectivePoint.__init__)
    rng = np.random.Generator(np.random.PCG64(1))
    z, w, _ = inputs.stable_generic(rng, 2, 5)
    path = tmp_path / "m.json"
    path.write_bytes(inputs._measure_bytes(z, w))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.classify is not before[0] and stability.classify is not before[2]
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.run_op(0, cli.main, ["classify", str(path)])
    finally:
        tracer.uninstall()
    after = (cli.classify, balancing.classify, stability.classify, np.linalg.svd, geometry.ProjectivePoint.__init__)
    assert code == 0
    assert all(a is b for a, b in zip(before, after))
    assert tracer.calls["stability.classify"][0] == 1
    assert tracer.counts["stability.svd_calls"] == 5 + 10  # subsets of size 1 and 2
    assert all(span[4] == 0 for span in tracer.spans)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == run.per_layer_units()
    record = run.Record(None, 0, "", "", 0.01)
    emitted = run.end_to_end([record, record], 0.02, 1.0, 0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in emitted.items()}


def test_attempted_and_failed_count_each_op_of_the_list_once():
    ops = [inputs.Op(i, "classify", ["classify", f"m{i}.json"], {"verdict": "stable"}) for i in range(4)]

    def main(argv):
        return 2 if argv[1] == "m1.json" else 0

    timed = [run.call(main, ops[i]) for i in (0, 1, 0, 1)]  # a loop that wrapped early
    rest = run.run_rest(main, ops, timed)
    assert [rec.op.op_id for rec in rest] == [2, 3]

    class Checker:
        @staticmethod
        def check(op, code, out, err):
            return ("ok", "") if code == 0 else ("refused", "exit 2")

    tally, failures, failed_ops = run.check_all(Checker, timed + rest)
    assert failed_ops == {1}
    assert tally == {"ok": 4, "refused": 2}
    assert failures[0]["times"] == 2
