"""The JSON codec: bulk decoding of numbers and [re, im] pairs, and the pair encoder."""

import cProfile
import gc
import json
import pstats
import re
import warnings

import numpy as np
import pytest

from measure_balancer import AtomicMeasure, InvalidInput, SphereMeasure, cli, measures, sphere
from measure_balancer.cli import _basis_vectors
from measure_balancer.util import canonical_json, fmt_float, parse_json, read_numbers, to_pairs

from helpers import (
    random_measure,
    random_unitary,
    reference_complex_to_pair,
    reference_matrix_to_pairs,
    reference_pair_to_complex,
    reference_pairs_to_matrix,
    rng,
)


def random_number(r, exponents=300):
    """A JSON number of one of the kinds a document may hold."""
    kind = r.integers(6)
    if kind == 0:  # ints, some beyond 2**53 where rounding shows
        return int(r.integers(-(2**62), 2**62)) * int(r.choice([1, 1000]))
    if kind == 1:
        return -0.0
    if kind == 2:  # subnormals
        return float(r.choice([5e-324, -5e-324, 2.5e-310])) * float(r.integers(1, 9))
    if kind == 3:  # 17-digit values across the exponent range
        return float(f"{r.normal():.16e}") * 10.0 ** int(r.integers(-exponents, exponents))
    return float(r.normal())


def json_round_trip(obj):
    return json.loads(json.dumps(obj))


def test_read_numbers_is_bit_equal_to_the_per_pair_decoder():
    r = rng(90)
    for _ in range(200):
        rows, cols = int(r.integers(1, 6)), int(r.integers(1, 6))
        doc = json_round_trip([[[random_number(r), random_number(r)] for _ in range(cols)] for _ in range(rows)])
        ours = read_numbers(doc, (rows, cols, 2), "a[{}]").view(complex)[..., 0]
        assert ours.tobytes() == reference_pairs_to_matrix(doc).tobytes()


def test_from_json_is_bit_equal_to_the_per_pair_decoder():
    r = rng(91)
    for _ in range(50):
        n, m = int(r.integers(1, 5)), int(r.integers(1, 12))
        atoms = [  # a leading 1 keeps every row away from zero and overflow
            {"z": [[1, 0]] + [[random_number(r, 30), random_number(r, 30)] for _ in range(n)],
             "w": float(r.random()) + 0.5}
            for _ in range(m)
        ]
        total = sum(a["w"] for a in atoms)
        for a in atoms:
            a["w"] /= total
        doc = json_round_trip({"n": n, "atoms": atoms})
        rows = [[reference_pair_to_complex(v) for v in a["z"]] for a in doc["atoms"]]
        expected = AtomicMeasure(np.array(rows, dtype=complex), [float(a["w"]) for a in doc["atoms"]])
        nu = AtomicMeasure.from_json_dict(doc)
        assert nu.coeffs.tobytes() == expected.coeffs.tobytes()
        assert nu.weights.tobytes() == expected.weights.tobytes()


def test_encoders_write_the_text_of_the_per_number_encoder():
    r = rng(92)
    for _ in range(20):
        nu = random_measure(r, int(r.integers(1, 5)), int(r.integers(1, 9)))
        reference = {
            "n": nu.dim,
            "atoms": [
                {"z": [reference_complex_to_pair(v) for v in row], "w": float(w)}
                for row, w in zip(nu.coeffs, nu.weights)
            ],
        }
        assert nu.to_json() == canonical_json(reference) + "\n"
        k = int(r.integers(2, 6))
        g = random_unitary(r, k) * np.exp(r.normal(size=k))
        g[0, 0] = -0.0  # a signed zero prints as 0
        assert canonical_json(to_pairs(g)) == canonical_json(reference_matrix_to_pairs(g))
        basis = g[:, : int(r.integers(1, k + 1))]
        columns = [reference_matrix_to_pairs(basis[:, j : j + 1].T)[0] for j in range(basis.shape[1])]
        assert canonical_json(_basis_vectors(basis)) == canonical_json(columns)


def test_sphere_json_keeps_its_text():
    pts = np.array([[0.0, 0.0, 1.0], [0.6, -0.0, 0.8], [1.0, 0.0, 0.0]])
    sm = SphereMeasure(pts, [0.2, 0.3, 0.5])
    reference = {
        "atoms": [
            {"x": [float(v) for v in x], "w": float(w)} for x, w in zip(sm.points, sm.weights)
        ]
    }
    assert sm.to_json() == canonical_json(reference) + "\n"


@pytest.mark.parametrize(
    "obj, message",
    [
        ([[True, 0]], "a[0][0] must be a finite number, got true"),
        ([[0, 10**400]], "a[0][1] must be a finite number, got 1000"),
        ([[0, "1"]], 'a[0][1] must be a finite number, got "1"'),
        ([[None, 0]], "a[0][0] must be a finite number, got null"),
        ([[0, float("nan")]], "a[0][1] must be a finite number, got NaN"),
        ([[0, float("-inf")]], "a[0][1] must be a finite number, got -Infinity"),
        ([[0, 0], [1, 2, 3]], "a[1] must be a list of 2 numbers, got [1, 2, 3]"),
        ([[0, 0], 5], "a[1] must be a list of 2 numbers, got 5"),
        ([[0, [1]]], "a[0][1] must be a finite number, got [1]"),
    ],
)
def test_read_numbers_names_the_first_bad_entry(obj, message):
    shape = (len(obj), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match=re.escape(message)):
            read_numbers(obj, shape, "a[{}]")


def test_the_float_range_ends_where_float_overflows():
    top = 2**1024 - 2**970  # the first integer float() rounds to infinity
    assert read_numbers([top - 1], (1,), "w[{}]")[0] == float(top - 1) == np.finfo(float).max
    with pytest.raises(OverflowError):
        float(top)
    with pytest.raises(InvalidInput, match="must be a finite number"):
        read_numbers([top], (1,), "w[{}]")


def test_from_json_makes_no_call_per_number():
    r = rng(93)
    m, n = 200, 5
    text = random_measure(r, n, m).to_json()
    profile = cProfile.Profile()
    profile.runcall(AtomicMeasure.from_json, text)
    calls = max(ncalls for ncalls, *_ in pstats.Stats(profile).stats.values())
    assert calls < 3 * m < m * (n + 1)  # a few per atom (key and length checks), none per number


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), np.float64("nan")])
def test_fmt_float_refuses_a_non_finite_number(value):
    with pytest.raises(InvalidInput, match=re.escape(f"non-finite number in output: {float(value)!r}")):
        fmt_float(value)


BULK_M, BULK_N = 3000, 30


@pytest.fixture(scope="module")
def bulk_text():
    """An m = 3000, n = 30 measure document; its last atom holds numbers of every kind."""
    r = rng(94)
    pairs = r.normal(size=(BULK_M, BULK_N + 1, 2)).tolist()
    pairs[-1] = [[random_number(r), random_number(r)] for _ in range(BULK_N + 1)]
    pairs[-1][0] = [1, 0]  # keeps the row away from zero and overflow
    return json.dumps({"n": BULK_N, "atoms": [{"z": z, "w": 1 / BULK_M} for z in pairs]})


def test_bulk_read_of_a_large_document_is_bit_equal_to_the_per_pair_decoder(bulk_text):
    atoms = json.loads(bulk_text)["atoms"]
    zs = [a["z"] for a in atoms]
    ours = read_numbers(zs, (BULK_M, BULK_N + 1, 2), "atoms[{}].z").view(complex)[..., 0]
    assert ours.tobytes() == reference_pairs_to_matrix(zs).tobytes()
    w = read_numbers([a["w"] for a in atoms], (BULK_M,), "atoms[{}].w")
    assert w.tobytes() == np.full(BULK_M, 1 / BULK_M).tobytes()


TOP = 2**1024 - 2**970  # the first integer float() rounds to infinity
LAST = f"atoms[{BULK_M - 1}]"


@pytest.mark.parametrize(
    "where, value, message",
    [
        ("pair", [1.5, 0, 2], f"{LAST}.z[{BULK_N}] must be a list of 2 numbers, got [1.5, 0, 2]"),
        ("pair", {"re": 1}, f'{LAST}.z[{BULK_N}] must be a list of 2 numbers, got {{"re": 1}}'),
        ("pair", [], f"{LAST}.z[{BULK_N}] must be a list of 2 numbers, got []"),
        ("w", True, f"{LAST}.w must be a finite number, got true"),
        ("re", TOP, f"{LAST}.z[{BULK_N}][0] must be a finite number, got {TOP}"),
        ("re", float("nan"), f"{LAST}.z[{BULK_N}][0] must be a finite number, got NaN"),
    ],
    ids=["3-entry-pair", "dict-pair", "empty-pair", "true-weight", "overflowing-int", "nan"],
)
def test_a_fault_in_the_last_atom_of_a_large_document_is_named(bulk_text, where, value, message):
    doc = json.loads(bulk_text)
    last = doc["atoms"][-1]
    if where == "w":
        last["w"] = value
    elif where == "pair":
        last["z"][-1] = value
    else:
        last["z"][-1][0] = value
    text = json.dumps(doc)  # NaN is written as the literal the parser accepts
    with pytest.raises(InvalidInput) as info:
        AtomicMeasure.from_json(text)
    assert str(info.value) == message


def test_the_first_fault_in_document_order_is_named(bulk_text):
    doc = json.loads(bulk_text)
    doc["atoms"][5]["z"][2][1] = float("nan")
    doc["atoms"][-1]["z"][-1] = [1.5, 0, 2]
    with pytest.raises(InvalidInput, match=re.escape("atoms[5].z[2][1] must be a finite number, got NaN")):
        AtomicMeasure.from_json(json.dumps(doc))


def test_a_fault_in_the_last_atom_walks_that_atom_alone(bulk_text):
    doc = json.loads(bulk_text)
    doc["atoms"][-1]["z"][-1] = []
    text = json.dumps(doc)
    profile = cProfile.Profile()
    with pytest.raises(InvalidInput):
        profile.runcall(AtomicMeasure.from_json, text)
    stats = pstats.Stats(profile).stats.items()
    walks = [nc for (_, _, func), (_, nc, *_) in stats if func == "_first_fault"]
    assert walks and walks[0] < 1000  # the walk of one atom: 1 + (n + 1) + 2 (n + 1) at most


MEASURE_TEXT = '{"n": 1, "atoms": [{"z": [[1, 0], [0, 0]], "w": 0.5}, {"z": [[0, 0], [1, 0]], "w": 0.5}]}'


def recording(seen, name, fn):
    """fn, recording (name, whether the cyclic GC is on) at each call."""

    def recorded(*args):
        seen.append((name, gc.isenabled()))
        return fn(*args)

    return recorded


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "text", ['{"n": 1}', "not json {", MEASURE_TEXT], ids=["valid", "invalid", "measure"]
)
def test_parse_json_pauses_the_cyclic_gc_and_leaves_it_as_it_found_it(enabled, text, monkeypatch):
    # The pause covers the reader too: read_numbers runs with the GC paused.
    seen = []
    monkeypatch.setattr(json, "loads", recording(seen, "loads", json.loads))
    monkeypatch.setattr(measures, "read_numbers", recording(seen, "read_numbers", measures.read_numbers))
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        try:
            nu = parse_json(text, AtomicMeasure.from_json_dict)
            assert nu.atom_count == 2
        except InvalidInput:
            assert text != MEASURE_TEXT
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
    reads = 2 if text == MEASURE_TEXT else 0
    assert seen == [("loads", False)] + [("read_numbers", False)] * reads


@pytest.mark.parametrize("reader", ["measure", "sphere", "matrix"])
def test_every_document_reader_reads_its_numbers_with_the_gc_paused(reader, tmp_path, monkeypatch):
    module, text, read = {
        "measure": (measures, MEASURE_TEXT, AtomicMeasure.from_json),
        "sphere": (sphere, '{"atoms": [{"x": [0, 0, 1], "w": 1}]}', SphereMeasure.from_json),
        "matrix": (cli, '{"rho": [[[1, 0]]]}', lambda t: cli._load_matrix(write(tmp_path, t), "rho", "target")),
    }[reader]
    seen = []
    monkeypatch.setattr(module, "read_numbers", recording(seen, "read_numbers", module.read_numbers))
    assert gc.isenabled()
    read(text)
    assert gc.isenabled()
    assert seen and set(seen) == {("read_numbers", False)}


def write(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    return str(path)
