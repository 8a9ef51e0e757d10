"""Command-line front door.

Subcommands: resolve (full Betti pipeline), betti (alias), bott (one weight),
schubert (Weyl/geometry data), verify (property suites). All output is
deterministic for fixed flags; JSON output is canonically sorted.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys

from .bott import QDominantWeight, bott
from .resolution import desing_data, k_polynomial, resolve
from .weyl import (
    InvalidParameters,
    avoids_patterns,
    cell_cuts,
    check_parameters,
    family_element,
    length_A,
    length_C,
    m_value,
    tangent_dim_at_id_C,
    w_max_rep,
    w_tilde_min_rep,
)


def _lazy(name: str):
    """symsyz.<name>, put in sys.modules now and run on its first attribute
    access, so that `resolve` never compiles what only schubert and verify need."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[full] = importlib.util.module_from_spec(spec)
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


# the layers of schubert and verify; the benchmark's tracer finds all four in sys.modules
exactmat, polynomials = _lazy("exactmat"), _lazy("polynomials")
geometry, verify = _lazy("geometry"), _lazy("verify")

USAGE_EXIT = 2
INTERNAL_EXIT = 3
MAX_WALK_LOG2 = 17  # at most 2^17 leg tuples in one hook-family walk (an exponent: no huge ints)
MAX_SCHUBERT_N = 60  # the cell pattern's (r-k)(n-r+k)^2 Poly products: about 0.3 s at n = 60 on 2 cores
# failed internal checks, each reported as one `error:<code>:` line with INTERNAL_EXIT;
# matched in this order, each class looked up by module only once a command has failed
INTEGRITY_CODES = {
    ("symsyz.resolution", "RationalSingularityViolation"): "rational-singularity-violation",
    ("symsyz.partitions", "NonIntegralDimension"): "non-integral-dimension",
    ("symsyz.geometry", "PluckerMismatch"): "plucker-mismatch",
    ("symsyz.geometry", "SliceEscape"): "slice-escape",
    ("symsyz.exactmat", "InexactElimination"): "inexact-elimination",
    ("symsyz.resolution", "EnlargedTableMismatch"): "enlarged-table-mismatch",
    ("builtins", "ValueError"): "internal-value-error",  # last: any other ValueError past the boundary checks
}


def _fail(code: str, message: str, exit_code: int) -> int:
    print(f"error:{code}: {message}", file=sys.stderr)
    return exit_code


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
    check_parameters(args.n, args.k, args.r)
    if args.r == args.n and (bits := args.n - args.k + 1) > MAX_WALK_LOG2:
        return _fail("too-large", f"(n, k) = ({args.n}, {args.k}) walks 2^{bits} leg tuples,"
                     f" more than 2^{MAX_WALK_LOG2}", USAGE_EXIT)
    # every check of a full run is made inside `resolve`, before anything prints
    report = resolve(args.n, args.k, args.r, max_t=args.max_t)
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
    check_parameters(args.n, args.k, args.r)
    if args.n > MAX_SCHUBERT_N:
        return _fail("too-large", f"n = {args.n} is above the schubert cap of {MAX_SCHUBERT_N}",
                     USAGE_EXIT)
    w = family_element(args.n, args.k, args.r)
    w_tilde = w_tilde_min_rep(w, cell_cuts(args.n, args.k, args.r))
    wmax = w_max_rep(args.n, args.k, args.r)
    lengths = {
        "l_C(w)": length_C(w),
        "l_A(full)": length_A(w),
        "m": m_value(w),
        "l_C(w_max)": length_C(wmax),
    }
    smooth = tangent_dim_at_id_C(wmax) == lengths["l_C(w_max)"]
    avoiding = avoids_patterns(wmax)
    cell_dimension = geometry.opposite_cell_pattern(args.n, args.k, args.r).dimension()
    data = desing_data(args.n, args.k, args.r)
    if args.format == "json":
        _print_json({
            "params": {"n": args.n, "k": args.k, "r": args.r},
            "w": list(w[:args.n]),
            "w_full": list(w),
            "w_tilde": list(w_tilde),
            "w_max": list(wmax),
            "lengths": lengths,
            "smooth_total_space": smooth,
            "pattern_avoiding": avoiding,
            "cell_dimension": cell_dimension,
            "geometry": _desing_dict(data),
        })
    else:
        print(f"w       = {w[:args.n]} (half word), length {lengths['l_C(w)']}")
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
    names = args.suites.split(",") if args.suites else list(verify.DEFAULT_SUITES)
    unknown = [x for x in names if x not in verify.DEFAULT_SUITES]
    if unknown:
        return _fail("unknown-suite", ", ".join(map(repr, unknown)), USAGE_EXIT)
    results = verify.run_suites(args.seed, names, fast=args.fast)
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
    try:  # the one failure boundary: commands raise before they print
        return args.func(args)
    except InvalidParameters as exc:
        return _fail("invalid-params", str(exc), USAGE_EXIT)
    except (ArithmeticError, RuntimeError, ValueError) as exc:  # the bases of INTEGRITY_CODES
        for (module, name), code in INTEGRITY_CODES.items():
            if isinstance(exc, getattr(sys.modules[module], name)):
                return _fail(code, str(exc), INTERNAL_EXIT)
        raise


if __name__ == "__main__":
    sys.exit(main())
