"""Command-line frontend.

Subcommands: classify, weight, balance, sphere, torus, decompose.  Exit
codes: 0 stable/converged, 10 polystable-not-stable, 11
semistable-not-polystable, 12 unstable, 2 input error, 20 diverged,
21 iteration cap hit, 22 torus target outside the reachable polytope, 23
ill-conditioned (balancing needs cond(S) beyond COND_LIMIT).
All structured output is deterministic (canonical JSON / CSV with
17-significant-digit floats).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

import numpy as np

from .balancing import (
    COND_LIMIT,
    DEFAULT_MAX_ITER,
    DEFAULT_NEWTON_MAX_ITER,
    DEFAULT_TOL,
    VERDICT_CONVERGED,
    VERDICT_DIVERGED,
    VERDICT_ILL_CONDITIONED,
    VERDICT_MAX_ITERATIONS,
    BalanceResult,
    balance,
    torus_solve,
)
from .errors import (
    BalancerError,
    InvalidInput,
    MaxIterations,
    TargetOutsidePolytope,
)
from .geometry import ProjectivePoint, random_directions, spectral_decompose
from .measures import AtomicMeasure
from .sphere import (
    SphereMeasure,
    center_of_mass,
    hersch_balance,
    projective_point_to_sphere,
)
from .stability import (
    DEFAULT_TOL_EQ,
    PolystableSplitting,
    StabilityKind,
    StabilityVerdict,
    Subspace,
    classify,
)
from .util import canonical_json, fmt_float, parse_json, read_numbers, to_pairs
from .weights import lambda_via_flow, maximal_weight

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_POLYSTABLE = 10
EXIT_SEMISTABLE = 11
EXIT_UNSTABLE = 12
EXIT_DIVERGED = 20
EXIT_MAX_ITERATIONS = 21
EXIT_OUTSIDE_POLYTOPE = 22
EXIT_ILL_CONDITIONED = 23

_KIND_EXIT = {
    StabilityKind.STABLE: EXIT_OK,
    StabilityKind.POLYSTABLE_NOT_STABLE: EXIT_POLYSTABLE,
    StabilityKind.SEMISTABLE_NOT_POLYSTABLE: EXIT_SEMISTABLE,
    StabilityKind.UNSTABLE: EXIT_UNSTABLE,
}

_VERDICT_EXIT = {
    VERDICT_CONVERGED: EXIT_OK,
    VERDICT_DIVERGED: EXIT_DIVERGED,
    VERDICT_MAX_ITERATIONS: EXIT_MAX_ITERATIONS,
    VERDICT_ILL_CONDITIONED: EXIT_ILL_CONDITIONED,
}


def _fmt_complex(v: complex) -> str:
    if v.imag == 0.0:
        return fmt_float(v.real)
    sign = "+" if v.imag >= 0 else "-"
    return f"{fmt_float(v.real)} {sign} {fmt_float(abs(v.imag))}i"


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc


def _load_measure(path: str) -> AtomicMeasure:
    return AtomicMeasure.from_json(_read_text(path))


def _load_sphere(path: str) -> SphereMeasure:
    return SphereMeasure.from_json(_read_text(path))


def _load_matrix(path: str, key: str, what: str) -> np.ndarray:
    """The complex matrix under ``key`` of a JSON file: rows of [re, im] pairs."""
    data = parse_json(_read_text(path))
    if not isinstance(data, dict):
        raise InvalidInput(f"{path}: expected a JSON object")
    if key not in data:
        raise InvalidInput(f'{path}: {what} document needs key "{key}"')
    rows = data[key]
    if not isinstance(rows, list) or not rows:
        raise InvalidInput("expected a non-empty list of matrix rows")
    for row in rows:
        if not isinstance(row, list) or not row:
            raise InvalidInput("matrix rows must be non-empty lists")
        if len(row) != len(rows[0]):
            raise InvalidInput("matrix rows have inconsistent lengths")
    pairs = read_numbers(rows, (len(rows), len(rows[0]), 2), key + "[{}]")
    return pairs.view(complex)[..., 0]


def _basis_vectors(basis: np.ndarray) -> list:
    """Serialize the columns of an orthonormal basis as coordinate vectors."""
    return to_pairs(basis.T)


def _subspace_dict(sub: Subspace) -> dict:
    return {
        "dim": sub.proj_dim,
        "mass": float(sub.mass),
        "atom_indices": [int(i) for i in sub.atom_indices],
        "basis": _basis_vectors(sub.basis),
    }


def _splitting_dict(splitting: PolystableSplitting) -> dict:
    return {
        "blocks": [
            {
                "dim": block.linear_dim - 1,
                "mass": float(block.mass),
                "basis": _basis_vectors(block.basis),
                "measure": block.measure.to_json_dict(),
            }
            for block in splitting.blocks
        ]
    }


def _print_verdict(verdict: StabilityVerdict, boundary_note: bool) -> None:
    print(f"verdict: {verdict.kind.value}")
    print(f"margin: {fmt_float(verdict.margin)}")
    if verdict.certificate is not None:
        cert = verdict.certificate
        print(
            f"certificate: subspace of projective dimension {cert.proj_dim} "
            f"carrying mass {fmt_float(cert.mass)} "
            f"(atoms {[int(i) for i in cert.atom_indices]})"
        )
    if verdict.decomposition is not None:
        dims = [b.linear_dim for b in verdict.decomposition.blocks]
        print(f"decomposition: {len(dims)} blocks of linear dimensions {dims}")
    if boundary_note:
        print("note: margin within tolerance of equality (boundary case)")
    doc = {
        "kind": verdict.kind.value,
        "margin": float(verdict.margin),
        "certificate": (
            _subspace_dict(verdict.certificate)
            if verdict.certificate is not None
            else None
        ),
        "decomposition": (
            _splitting_dict(verdict.decomposition)
            if verdict.decomposition is not None
            else None
        ),
    }
    print()
    print(canonical_json(doc))


def cmd_classify(args) -> int:
    nu = _load_measure(args.measure)
    tol_eq = 0.0 if args.strict else args.tol_eq
    verdict = classify(nu, tol_eq=tol_eq)
    if args.decompose and verdict.kind is StabilityKind.STABLE:
        verdict.decomposition = PolystableSplitting.single_block(nu)
    boundary = abs(verdict.margin) <= max(args.tol_eq, 1e-15) and args.strict
    _print_verdict(verdict, boundary)
    return _KIND_EXIT[verdict.kind]


def cmd_weight(args) -> int:
    nu = _load_measure(args.measure)
    if args.direction is not None:
        dirs = [spectral_decompose(_load_matrix(args.direction, "a", "direction"))]
    elif args.random is not None:
        if args.random < 1:
            raise InvalidInput("--random needs a positive count")
        dirs = random_directions(args.random, nu.dim, seed=args.seed)
    else:
        raise InvalidInput("weight needs --direction FILE or --random COUNT")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["direction", "eigenvalues", "masses", "lambda"]
    if args.flow_check is not None:
        header += ["flow_lambda", "flow_discrepancy"]
    writer.writerow(header)
    for i, d in enumerate(dirs):
        rep = maximal_weight(nu, d)
        row = [
            str(i),
            " ".join(fmt_float(v) for v in rep.eigenvalues),
            " ".join(fmt_float(v) for v in rep.masses),
            fmt_float(rep.lam),
        ]
        if args.flow_check is not None:
            flow = lambda_via_flow(nu, d, t_max=args.flow_check)
            row += [fmt_float(flow), fmt_float(rep.lam - flow)]
        writer.writerow(row)
    text = buf.getvalue()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _write_trace(path: str, trace: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "residual", "kempf_ness"])
        for it, residual, energy in trace:
            writer.writerow([str(it), fmt_float(residual), fmt_float(energy)])


def _print_balance(result: BalanceResult) -> None:
    print(f"verdict: {result.verdict}")
    print(f"residual: {fmt_float(result.residual)}")
    print(f"iterations: {result.iterations}")
    if result.certificate is not None:
        cert = result.certificate
        print(
            f"certificate: subspace of projective dimension {cert.proj_dim} "
            f"carrying mass {fmt_float(cert.mass)}"
        )
    doc = {
        "verdict": result.verdict,
        "residual": float(result.residual),
        "iterations": result.iterations,
        "g": to_pairs(result.g.g),
        "certificate": (
            _subspace_dict(result.certificate)
            if result.certificate is not None
            else None
        ),
    }
    print()
    print(canonical_json(doc))


def cmd_balance(args) -> int:
    nu = _load_measure(args.measure)
    target = None
    if args.target is not None:
        target = _load_matrix(args.target, "rho", "target")
    result = balance(
        nu,
        target_rho=target,
        method=args.method,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    if args.trace:
        _write_trace(args.trace, result.trace)
    _print_balance(result)
    return _VERDICT_EXIT[result.verdict]


def cmd_sphere(args) -> int:
    sm = _load_sphere(args.measure)
    if args.action == "com":
        com = center_of_mass(sm)
        print(f"center_of_mass: ({', '.join(fmt_float(v) for v in com)})")
        print()
        print(canonical_json({"center_of_mass": [float(v) for v in com]}))
        return EXIT_OK
    mobius, result, final_com = hersch_balance(
        sm, tol=args.tol, max_iter=args.max_iter
    )
    a, b = mobius.g[0, 0], mobius.g[0, 1]
    c, d = mobius.g[1, 0], mobius.g[1, 1]
    print(f"verdict: {result.verdict}")
    print(f"residual: {fmt_float(result.residual)}")
    print(f"iterations: {result.iterations}")
    print(
        "mobius: w -> (c + d w)/(a + b w) on the affine chart w = z1/z0, with"
    )
    print(
        f"  a = {_fmt_complex(a)}, b = {_fmt_complex(b)}, "
        f"c = {_fmt_complex(c)}, d = {_fmt_complex(d)}"
    )
    print(f"final_com: ({', '.join(fmt_float(v) for v in final_com)})")
    doc = {
        "verdict": result.verdict,
        "residual": float(result.residual),
        "iterations": result.iterations,
        "mobius": to_pairs(mobius.g),
        "final_com": [float(v) for v in final_com],
        "certificate": None,
    }
    if result.certificate is not None:
        cert_doc = _subspace_dict(result.certificate)
        if result.certificate.basis.shape == (2, 1):
            sphere_pt = projective_point_to_sphere(
                ProjectivePoint(result.certificate.basis[:, 0])
            )
            cert_doc["sphere_point"] = [float(v) for v in sphere_pt]
            print(
                "certificate: atom at "
                f"({', '.join(fmt_float(v) for v in sphere_pt)}) "
                f"carries mass {fmt_float(result.certificate.mass)}"
            )
        doc["certificate"] = cert_doc
    print()
    print(canonical_json(doc))
    return _VERDICT_EXIT[result.verdict]


def cmd_torus(args) -> int:
    nu = _load_measure(args.measure)
    try:
        beta = [float(part) for part in args.beta.split(",")]
    except ValueError as exc:
        raise InvalidInput(f"cannot parse --beta: {exc}") from exc
    result = torus_solve(nu, beta, tol=args.tol, max_iter=args.max_iter)
    print(f"converged: {result.converged}")
    print(f"residual: {fmt_float(result.residual)}")
    print(f"iterations: {result.iterations}")
    print(f"theta: ({', '.join(fmt_float(v) for v in result.theta)})")
    print()
    print(
        canonical_json(
            {
                "converged": result.converged,
                "residual": float(result.residual),
                "iterations": result.iterations,
                "theta": [float(v) for v in result.theta],
            }
        )
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="measure-balancer",
        description=(
            "Classify atomic measures on complex projective space by "
            "stability and move them to prescribed momentum values."
        ),
        epilog=(
            "Exit codes: 0 stable/converged, 10 polystable-not-stable, "
            "11 semistable-not-polystable, 12 unstable, 2 input error, "
            "20 diverged, 21 iteration cap, 22 target outside polytope, "
            f"23 ill-conditioned (balancing needs cond(S) beyond {COND_LIMIT:g}). "
            "Set MEASURE_BALANCER_THREADS to cap BLAS parallelism. Random "
            "directions use numpy's PCG64 generator."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="stability verdict for a measure")
    p_classify.add_argument("measure", help="measure JSON file")
    p_classify.add_argument(
        "--strict",
        action="store_true",
        help="no tolerance snapping: only exact equality counts as boundary",
    )
    p_classify.add_argument(
        "--tol-eq", type=float, default=DEFAULT_TOL_EQ, dest="tol_eq",
        help="equality tolerance for the margin (default %(default)s)",
    )
    p_classify.add_argument(
        "--decompose",
        action="store_true",
        help="also report the polystable splitting when one exists",
    )
    p_classify.set_defaults(func=cmd_classify, decompose=False)

    p_decompose = sub.add_parser(
        "decompose", help="classify and always report the splitting"
    )
    p_decompose.add_argument("measure", help="measure JSON file")
    p_decompose.add_argument("--strict", action="store_true")
    p_decompose.add_argument("--tol-eq", type=float, default=DEFAULT_TOL_EQ, dest="tol_eq")
    p_decompose.set_defaults(func=cmd_classify, decompose=True, strict=False)

    p_weight = sub.add_parser(
        "weight", help="maximal weights of a measure along directions (CSV)"
    )
    p_weight.add_argument("measure", help="measure JSON file")
    p_weight.add_argument(
        "--direction", help='direction JSON file with key "a" ([[re,im],...] rows)'
    )
    p_weight.add_argument(
        "--random", type=int, help="number of seeded random directions to scan"
    )
    p_weight.add_argument("--seed", type=int, default=0, help="PCG64 seed (>= 0)")
    p_weight.add_argument(
        "--flow-check",
        type=float,
        dest="flow_check",
        help="also evaluate the flow oracle at this time and its discrepancy",
    )
    p_weight.add_argument("--output", help="write CSV here instead of stdout")
    p_weight.set_defaults(func=cmd_weight)

    p_balance = sub.add_parser("balance", help="move a measure to zero momentum")
    p_balance.add_argument("measure", help="measure JSON file")
    p_balance.add_argument(
        "--target", help='target state JSON file with key "rho"'
    )
    p_balance.add_argument(
        "--method",
        choices=["fixed-point", "geodesic-descent"],
        default="fixed-point",
    )
    p_balance.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_balance.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER, dest="max_iter")
    p_balance.add_argument("--trace", help="write per-iteration CSV trace here")
    p_balance.set_defaults(func=cmd_balance)

    p_sphere = sub.add_parser(
        "sphere", help="center-of-mass tools for measures on the 2-sphere"
    )
    p_sphere.add_argument("measure", help="sphere measure JSON file")
    p_sphere.add_argument(
        "action", choices=["com", "balance"], help="report or Mobius-center"
    )
    p_sphere.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_sphere.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER, dest="max_iter")
    p_sphere.set_defaults(func=cmd_sphere)

    p_torus = sub.add_parser(
        "torus", help="diagonal-torus solve for a prescribed momentum target"
    )
    p_torus.add_argument("measure", help="measure JSON file")
    p_torus.add_argument(
        "--beta",
        required=True,
        help=(
            "comma-separated target components (sum 0); use --beta=-0.2,0.2 "
            "when the first component is negative"
        ),
    )
    p_torus.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_torus.add_argument(
        "--max-iter", type=int, default=DEFAULT_NEWTON_MAX_ITER, dest="max_iter"
    )
    p_torus.set_defaults(func=cmd_torus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TargetOutsidePolytope as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUTSIDE_POLYTOPE
    except MaxIterations as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MAX_ITERATIONS
    except BalancerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
