"""The benchmark's input generator is a pure function of (workload, seed)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import inputs  # noqa: E402


@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_same_seed_gives_identical_files_and_another_seed_does_not(name):
    first = inputs.make_workload(name, 7)
    again = inputs.make_workload(name, 7)
    other = inputs.make_workload(name, 8)
    assert first.files == again.files
    assert [op.argv for op in first.ops] == [op.argv for op in again.ops]
    assert first.files.keys() == other.files.keys()
    assert all(first.files[f] != other.files[f] for f in first.files)


def test_every_op_reads_a_generated_file():
    for name in ("classify-small", "solve-mix"):
        wl = inputs.make_workload(name, 3)
        assert len(wl.ops) % wl.block == 0
        for op in wl.ops:
            assert all(arg in wl.files for arg in op.argv if arg.endswith(".json"))
