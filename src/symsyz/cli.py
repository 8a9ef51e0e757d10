"""Command-line front door.

Subcommands: resolve (full Betti pipeline), betti (alias), bott (one weight),
schubert (Weyl/geometry data), verify (property suites). All output is
deterministic for fixed flags; JSON output is canonically sorted.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bott import QDominantWeight, bott
from .exactmat import InexactElimination
from .geometry import PluckerMismatch, SliceEscape, desing_data, opposite_cell_pattern
from .partitions import NonIntegralDimension
from .resolution import EnlargedTableMismatch, RationalSingularityViolation, k_polynomial, resolve
from .verify import DEFAULT_SUITES, run_suites
from .weyl import (
    InvalidParameters,
    ParabolicMarker,
    PermutationWordError,
    WeylElementC,
    avoids_patterns,
    check_parameters,
    family_element,
    length_A,
    length_C,
    m_value,
    tangent_dim_at_id_C,
    w_max_rep,
    w_tilde_min_rep,
)

USAGE_EXIT = 2
INTERNAL_EXIT = 3
MAX_WALK_LOG2 = 17  # at most 2^17 leg tuples in one hook-family walk (an exponent: no huge ints)
MAX_SCHUBERT_N = 30  # the 4231/3142 scan of w_max reads all C(2n, 4) subsequences
# failed internal checks, each reported as one `error:<code>:` line with INTERNAL_EXIT
INTEGRITY_CODES = {
    RationalSingularityViolation: "rational-singularity-violation",
    NonIntegralDimension: "non-integral-dimension",
    PluckerMismatch: "plucker-mismatch",
    SliceEscape: "slice-escape",
    PermutationWordError: "permutation-word",
    InexactElimination: "inexact-elimination",
    EnlargedTableMismatch: "enlarged-table-mismatch",
    ValueError: "internal-value-error",  # last: any other ValueError past the boundary checks
}


def _fail(code: str, message: str, exit_code: int) -> int:
    print(f"error:{code}: {message}", file=sys.stderr)
    return exit_code


def _integrity_failure(exc: Exception) -> int:
    code = next(code for kind, code in INTEGRITY_CODES.items() if isinstance(exc, kind))
    return _fail(code, str(exc), INTERNAL_EXIT)


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _print_json(payload: dict) -> None:
    """Print json.dumps(payload, sort_keys=True, separators=(",", ":")) one
    piece at a time: the top-level keys in sorted order, and each item of a
    top-level list encoded on its own, so no string of the whole document,
    nor of a whole table, is ever built."""
    write, encode = sys.stdout.write, _ENCODER.encode
    write("{")
    for position, key in enumerate(sorted(payload)):
        value = payload[key]
        write(("," if position else "") + encode(key) + ":")
        if isinstance(value, list):
            write("[")
            for index, item in enumerate(value):
                write(("," if index else "") + encode(item))
            write("]")
        else:
            write(encode(value))
    write("}\n")


def cmd_resolve(args) -> int:
    if 1 <= args.k < args.r == args.n and (bits := args.n - args.k + 1) > MAX_WALK_LOG2:
        return _fail("too-large", f"(n, k) = ({args.n}, {args.k}) walks 2^{bits} leg tuples,"
                     f" more than 2^{MAX_WALK_LOG2}", USAGE_EXIT)
    try:
        report = resolve(args.n, args.k, args.r, max_t=args.max_t)
    except InvalidParameters as exc:
        return _fail("invalid-params", str(exc), USAGE_EXIT)
    except tuple(INTEGRITY_CODES) as exc:
        return _integrity_failure(exc)
    data = report.data
    if not report.supported():
        if args.format == "json":
            _print_json({
                "params": {"n": args.n, "k": args.k, "r": args.r},
                "unsupported": report.unsupported_reason,
                "geometry": _desing_dict(data),
            })
        else:
            print(f"unsupported: {report.unsupported_reason}")
            _print_desing(data)
        return 0
    if args.format == "json":
        _print_json({
            "params": {"n": args.n, "k": args.k, "r": args.r},
            "ring": {"variables": data.ambient_dim},
            "betti": report.table.to_json_dict(),
            "codim": data.codim,
            "k_polynomial": k_polynomial(report.table),
            "degree": report.consistency.degree,
            "divisible": report.consistency.divisible,
            "enlarged": report.enlarged.to_json_dict() if report.enlarged else None,
            "subresolution": report.enlarged_contains_closed_form,
        })
    else:
        print(f"minimal free resolution terms for (n, k, r) = ({args.n}, {args.k}, {args.r})")
        print(report.table.text_grid())
        print(f"codim {data.codim}; K-polynomial {k_polynomial(report.table)}")
        print(
            f"K divisible by (1-z)^codim: {report.consistency.divisible};"
            f" degree {report.consistency.degree}"
        )
        if report.enlarged is not None:
            print("enlarged-space table:")
            print(report.enlarged.text_grid())
            print(f"contains closed form: {report.enlarged_contains_closed_form}")
    if args.max_t is None:
        # exploratory truncations legitimately break these; full runs must not
        if not report.consistency.divisible:
            return _fail("k-polynomial-indivisible", "consistency check failed", INTERNAL_EXIT)
        if report.enlarged_contains_closed_form is False:
            return _fail("subresolution-containment", "containment failed", INTERNAL_EXIT)
    return 0


def cmd_bott(args) -> int:
    try:
        entries = tuple(int(x) for x in args.weight.split(","))
        weight = QDominantWeight(args.n, args.m, entries)
    except ValueError as exc:
        return _fail("invalid-weight", str(exc), USAGE_EXIT)
    answer = bott(weight)
    if args.format == "json":
        payload = {"weight": list(entries), "n": args.n, "m": args.m}
        if answer.zero:
            payload["cohomology"] = None
        else:
            payload["cohomology"] = {
                "degree": answer.degree,
                "label": list(answer.label),
                "dim": answer.dimension,
            }
        _print_json(payload)
    elif answer.zero:
        print("ZERO")
    else:
        label = ",".join(str(x) for x in answer.label)
        print(f"j={answer.degree} beta=({label}) dim={answer.dimension}")
    return 0


def cmd_schubert(args) -> int:
    try:
        check_parameters(args.n, args.k, args.r)
        if args.n > MAX_SCHUBERT_N:
            return _fail("too-large", f"n = {args.n} is above the schubert cap of {MAX_SCHUBERT_N}",
                         USAGE_EXIT)
        w = family_element(args.n, args.k, args.r)
        tilde = w_tilde_min_rep(w, ParabolicMarker((args.r - args.k, args.n)))
        wmax = w_max_rep(args.n, args.k, args.r)
        wmax_elt = WeylElementC.from_full_word(wmax)
        w_full, w_tilde = w.full_word(), tilde.full_word()
        lengths = {
            "l_C(w)": length_C(w),
            "l_A(full)": length_A(w_full),
            "m": m_value(w),
            "l_C(w_max)": length_C(wmax_elt),
        }
        smooth = tangent_dim_at_id_C(wmax_elt) == length_C(wmax_elt)
        avoiding = avoids_patterns(wmax, [(4, 2, 3, 1), (3, 1, 4, 2)])
        cell_dimension = opposite_cell_pattern(args.n, args.k, args.r).dimension()
        data = desing_data(args.n, args.k, args.r)
    except InvalidParameters as exc:
        return _fail("invalid-params", str(exc), USAGE_EXIT)
    except tuple(INTEGRITY_CODES) as exc:
        return _integrity_failure(exc)
    if args.format == "json":
        _print_json({
            "params": {"n": args.n, "k": args.k, "r": args.r},
            "w": list(w.half_word),
            "w_full": list(w_full),
            "w_tilde": list(w_tilde),
            "w_max": list(wmax),
            "lengths": lengths,
            "smooth_total_space": smooth,
            "pattern_avoiding": avoiding,
            "cell_dimension": cell_dimension,
            "geometry": _desing_dict(data),
        })
    else:
        print(f"w       = {w.half_word} (half word), length {lengths['l_C(w)']}")
        print(f"w~      = {w_tilde}")
        print(f"w_max   = {wmax}")
        print(f"smooth desingularisation: tangent=length {smooth};"
              f" 4231/3142 avoiding {avoiding}")
        print(f"opposite cell pattern: {cell_dimension} free coordinates")
        _print_desing(data)
    return 0


def _desing_dict(data) -> dict:
    return {
        "base": data.base,
        "base_dim": data.base_dim,
        "fibre_dim": data.fibre_dim,
        "dim_Z": data.dim_z,
        "dim_Y": data.dim_y,
        "ambient_dim": data.ambient_dim,
        "codim": data.codim,
        "bundle_rank": data.bundle_rank,
    }


def _print_desing(data) -> None:
    print(
        f"base {data.base} of dim {data.base_dim}; fibre dim {data.fibre_dim};"
        f" dim Y = dim Z = {data.dim_y}; codim {data.codim} in dim-{data.ambient_dim}"
        f" ambient; bundle rank {data.bundle_rank}"
    )


def cmd_verify(args) -> int:
    names = args.suites.split(",") if args.suites else list(DEFAULT_SUITES)
    unknown = [x for x in names if x not in DEFAULT_SUITES]
    if unknown:
        return _fail("unknown-suite", ", ".join(map(repr, unknown)), USAGE_EXIT)
    try:
        results = run_suites(args.seed, names, fast=args.fast)
    except tuple(INTEGRITY_CODES) as exc:
        return _integrity_failure(exc)
    failed = False
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
        failed = failed or not result.passed
    return 1 if failed else 0


def _add_nkr(parser) -> None:
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--r", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symsyz",
        description="Betti tables of opposite cells of symplectic Schubert varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("resolve", "betti"):
        p = sub.add_parser(name, help="compute the graded Betti table")
        _add_nkr(p)
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--max-t", dest="max_t", type=int, default=None,
                       help="degree filter: keep only internal degrees t <= MAX_T (MAX_T >= 0)")
        p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("bott", help="cohomology of one irreducible bundle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--weight", type=str, required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_bott)

    p = sub.add_parser("schubert", help="Weyl-group and desingularisation data")
    _add_nkr(p)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_schubert)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--suites", type=str, default="")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
