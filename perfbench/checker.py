"""Per-op output checks against answers known by construction.

Each check recomputes what the CLI claims from the input atoms and plain
numpy, without calling the package:

- balancing: ||sum_i w_i P(g z_i) - Id/(n+1)|| from the returned g;
- target solves: the same sum against the target state rho;
- certificates: the stated mass is the weight of the stated atoms, those
  atoms lie in the stated span, and for instability the mass exceeds
  (dim+1)/(n+1);
- splittings: block dimensions sum to n+1 and each block carries
  dim/(n+1);
- torus: the softmax gradient at the returned theta hits the target;
- sphere: the centre of mass after the returned Mobius map is recomputed;
- weight: every row satisfies lambda = eigenvalues . masses.

An op ends in one of five states.  ``ok`` is a right answer.  Three states
are ops that gave no answer: ``refused`` (exit 2, an error on valid input,
such as an enumeration cap), ``cap`` (exit 21, an iteration cap) and
``crash`` (an uncaught exception).  ``wrong`` is an answer that contradicts
the known one: another verdict's exit code, or an output that fails its
recomputation.  Only ``ok`` counts as a success.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

RESIDUAL_TOL = 1e-9  # the CLI stops at 1e-10; recomputation adds rounding
MASS_TOL = 1e-9  # matches the CLI's default equality tolerance for margins
SPAN_TOL = 1e-8  # distance of a certificate atom from the stated span

VERDICT_EXIT = {
    "stable": 0,
    "polystable-not-stable": 10,
    "semistable-not-polystable": 11,
    "unstable": 12,
}


def expected_exit(op) -> int:
    if op.kind in ("classify", "decompose"):
        return VERDICT_EXIT[op.expect["verdict"]]
    if op.kind == "balance" and op.expect.get("verdict") == "unstable":
        return 20
    return 0


def check(op, code, out: str, err: str) -> tuple[str, str]:
    """(state, reason) for one op; reason is empty when the op is ok."""
    want = expected_exit(op)
    if code != want:
        msg = err.strip().splitlines()[-1] if err.strip() else ""
        state = {2: "refused", 21: "cap", None: "crash"}.get(code, "wrong")
        return state, f"exit {code} instead of {want}: {msg or 'no message'}"
    try:
        problem = _CHECKS[op.kind](op.expect, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problem = f"unreadable output ({type(exc).__name__}: {exc})"
    return ("ok", "") if problem is None else ("wrong", problem)


# ---------------------------------------------------------------------------
# parsing and recomputation helpers


def _doc(out: str) -> dict:
    return json.loads(out[out.index("\n{"):])


def _matrix(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _moved_momentum(g, z, w) -> np.ndarray:
    """sum_i w_i P(g z_i), P the orthogonal projector onto the line."""
    moved = z @ g.T
    moved /= np.linalg.norm(moved, axis=1, keepdims=True)
    return (moved.T * w) @ moved.conj()


def _certificate_problem(cert, z, w, n):
    if cert is None:
        return "certificate missing"
    basis = _matrix(cert["basis"]).T  # columns span the subspace
    idx = list(cert["atom_indices"])
    if basis.shape != (n + 1, cert["dim"] + 1):
        return f"certificate basis shape {basis.shape} does not match dim {cert['dim']}"
    if abs(cert["mass"] - float(w[idx].sum())) > MASS_TOL:
        return f"certificate mass {cert['mass']} is not the weight of its atoms"
    inside = z[idx].T
    off = np.linalg.norm(inside - basis @ (basis.conj().T @ inside), axis=0)
    if idx and off.max() > SPAN_TOL:
        return f"certificate atom lies {off.max():.2e} off its span"
    return None


def _over_massive_problem(cert, z, w, n):
    problem = _certificate_problem(cert, z, w, n)
    if problem is None and not cert["mass"] > (cert["dim"] + 1) / (n + 1) + MASS_TOL:
        problem = (
            f"certificate mass {cert['mass']} does not exceed "
            f"(dim+1)/(n+1) = {(cert['dim'] + 1) / (n + 1)}"
        )
    return problem


# ---------------------------------------------------------------------------
# per-subcommand checks; each returns None or the reason for failure


def _check_classify(exp, out):
    doc = _doc(out)
    z, w = exp["z"], exp["w"]
    n = z.shape[1] - 1
    verdict = exp["verdict"]
    if doc["kind"] != verdict:
        return f"verdict {doc['kind']} instead of {verdict}"
    if abs(doc["margin"] - exp["margin"]) > MASS_TOL:
        return f"margin {doc['margin']} instead of {exp['margin']}"
    cert, dec = doc["certificate"], doc["decomposition"]
    if verdict == "stable":
        if cert is not None:
            return "stable verdict carries a certificate"
        if not exp["decompose"]:
            return None if dec is None else "unrequested decomposition"
        blocks = (dec or {}).get("blocks", [])
        if len(blocks) != 1 or blocks[0]["dim"] != n or abs(blocks[0]["mass"] - 1.0) > MASS_TOL:
            return "stable decomposition is not the single full block"
        return None
    problem = _certificate_problem(cert, z, w, n)
    if problem:
        return problem
    tight = (cert["dim"] + 1) / (n + 1)
    if verdict == "unstable":
        if cert["dim"] != exp["cert_dim"] or list(cert["atom_indices"]) != exp["cert_atoms"]:
            return "certificate is not the planted subspace"
        if not cert["mass"] > tight + MASS_TOL:
            return f"certificate mass {cert['mass']} does not exceed {tight}"
        return None if dec is None else "unstable verdict carries a decomposition"
    if abs(cert["mass"] - tight) > MASS_TOL:
        return f"boundary certificate mass {cert['mass']} is not (dim+1)/(n+1) = {tight}"
    if verdict == "semistable-not-polystable":
        if not set(cert["atom_indices"]) <= set(exp["tight_within"]):
            return "tight subspace outside the planted one"
        return None if dec is None else "semistable verdict carries a decomposition"
    if dec is None:
        return "polystable verdict without a decomposition"
    dims = sorted(block["dim"] + 1 for block in dec["blocks"])
    if sum(dims) != n + 1:
        return f"block dimensions {dims} do not sum to n+1 = {n + 1}"
    for block in dec["blocks"]:
        if abs(block["mass"] - (block["dim"] + 1) / (n + 1)) > MASS_TOL:
            return f"block mass {block['mass']} is not dim/(n+1)"
    if dims != exp["blocks"]:
        return f"block dimensions {dims} differ from the planted {exp['blocks']}"
    return None


def _check_balance(exp, out):
    doc = _doc(out)
    z, w = exp["z"], exp["w"]
    n = z.shape[1] - 1
    if exp["verdict"] == "unstable":
        if doc["verdict"] != "diverged":
            return f"verdict {doc['verdict']} on unstable input"
        return _over_massive_problem(doc["certificate"], z, w, n)
    if doc["verdict"] != "converged":
        return f"verdict {doc['verdict']} on stable input"
    target = exp["rho"] if "rho" in exp else np.eye(n + 1) / (n + 1)
    residual = float(np.linalg.norm(_moved_momentum(_matrix(doc["g"]), z, w) - target))
    if residual > RESIDUAL_TOL:
        return f"recomputed momentum residual {residual:.3e} exceeds {RESIDUAL_TOL}"
    return None


def _check_torus(exp, out):
    doc = _doc(out)
    if doc["converged"] is not True:
        return "torus solve not converged"
    theta = np.asarray(doc["theta"])
    sq = np.abs(exp["z"]) ** 2
    with np.errstate(divide="ignore"):
        logits = 2.0 * theta[None, :] + np.log(sq)
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    residual = float(np.linalg.norm(exp["w"] @ p - exp["p_target"]))
    if residual > RESIDUAL_TOL:
        return f"recomputed torus residual {residual:.3e} exceeds {RESIDUAL_TOL}"
    return None


def _sphere_to_cp1(x):
    cos_half = np.sqrt(np.maximum(0.0, (1.0 + x[:, 2]) / 2.0))
    sin_half = np.sqrt(np.maximum(0.0, (1.0 - x[:, 2]) / 2.0))
    phase = np.exp(1j * np.arctan2(x[:, 1], x[:, 0]))
    return np.stack([cos_half + 0j, phase * sin_half], axis=1)


def _check_sphere(exp, out):
    doc = _doc(out)
    if doc["verdict"] != "converged":
        return f"verdict {doc['verdict']} on a centerable sphere measure"
    moved = _sphere_to_cp1(exp["x"]) @ _matrix(doc["mobius"]).T
    moved /= np.linalg.norm(moved, axis=1, keepdims=True)
    cross = moved[:, 0] * moved[:, 1].conj()
    bloch = np.stack(
        [2.0 * cross.real, -2.0 * cross.imag, np.abs(moved[:, 0]) ** 2 - np.abs(moved[:, 1]) ** 2],
        axis=1,
    )
    com = exp["w"] @ bloch
    reported = np.asarray(doc["final_com"])
    if np.linalg.norm(com - reported) > RESIDUAL_TOL:
        return f"final_com {reported.tolist()} differs from the recomputed {com.tolist()}"
    if np.linalg.norm(com) > RESIDUAL_TOL:
        return f"centre of mass {np.linalg.norm(com):.3e} away from the origin"
    return None


def _check_weight(exp, out):
    rows = list(csv.reader(io.StringIO(out)))
    header, body = rows[0], rows[1:]
    if len(body) != exp["rows"]:
        return f"{len(body)} weight rows instead of {exp['rows']}"
    if ("flow_lambda" in header) != exp["flow"]:
        return "flow-check columns do not match the request"
    for row in body:
        eig = np.array(row[1].split(), dtype=float)
        mass = np.array(row[2].split(), dtype=float)
        lam = float(row[3])
        if abs(lam - float(eig @ mass)) > 1e-12 * max(1.0, float(np.abs(eig).max())):
            return f"direction {row[0]}: lambda {lam} is not eigenvalues . masses"
        if mass.min() < 0.0 or abs(mass.sum() - 1.0) > MASS_TOL:
            return f"direction {row[0]}: stratum masses do not form a distribution"
        if exp["flow"] and abs(float(row[5]) - (lam - float(row[4]))) > 1e-12:
            return f"direction {row[0]}: flow discrepancy is not lambda - flow_lambda"
    return None


_CHECKS = {
    "classify": _check_classify,
    "decompose": _check_classify,
    "balance": _check_balance,
    "balance_target": _check_balance,
    "torus": _check_torus,
    "sphere_balance": _check_sphere,
    "weight": _check_weight,
}
