"""The JSON codec: bulk decoding of numbers and [re, im] pairs, and the pair encoder."""

import cProfile
import json
import pstats
import re
import warnings

import numpy as np
import pytest

from measure_balancer import AtomicMeasure, InvalidInput, SphereMeasure
from measure_balancer.cli import _basis_vectors
from measure_balancer.util import canonical_json, read_numbers, to_pairs

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
