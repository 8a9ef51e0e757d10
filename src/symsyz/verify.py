"""Seeded verification suites shared by the command line and the test
suite. Each suite returns (name, passed, detail) and is deterministic for a
fixed seed."""

from __future__ import annotations

import random
from math import comb
from typing import NamedTuple

from . import exactmat as em
from .bott import QDominantWeight, bott
from .geometry import (
    PluckerMismatch,
    cell_matrix,
    desing_data,
    is_symplectic,
    opposite_cell_factor,
    opposite_cell_pattern,
    plucker_restriction,
    random_cell_point,
    random_symplectic_cell_point,
    product_identification,
    product_identification_inverse,
)
from .partitions import exterior_of_sym2, schur_dim
from .resolution import (
    consistency_check,
    enlarged_space_table,
    jpw_closed_form,
    k_polynomial,
    minor_generators,
)
from .weyl import (
    avoids_patterns,
    cell_cuts,
    family_element,
    length_C,
    tangent_dim_at_id_C,
    w_max_rep,
    w_tilde_min_rep,
)

SYMPLECTIC_BOUND = 4  # entries drawn by random_symplectic


class SuiteResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def all_parameters(n_max: int):
    return [
        (n, k, r)
        for n in range(2, n_max + 1)
        for r in range(2, n + 1)
        for k in range(1, r)
    ]


def plucker_suite(seed: int, n_max: int = 5, points_per_case: int = 200) -> SuiteResult:
    """Exact agreement of the three closed-form minor identities with the
    expanded determinants on random integer cell points; every 50th point
    also checks each minor against Bareiss elimination."""
    rng = random.Random(f"plucker:{seed}:{n_max}")
    checked = 0
    for n, k, r in all_parameters(n_max):
        for count in range(points_per_case):
            matrix = cell_matrix(n, k, r, random_cell_point(n, k, r, rng))
            try:
                checked += plucker_restriction(n, k, r, matrix, cross_check=count % 50 == 0)
            except PluckerMismatch as exc:
                return SuiteResult("plucker", False, str(exc))
    return SuiteResult("plucker", True, f"{checked} minors matched exactly")


def random_symplectic(n: int, rng: random.Random) -> em.Matrix:
    """Random symplectic matrix with invertible upper-left block, built as
    (lower unipotent) * (parabolic) = [[I, 0], [J s1, I]] * [[a, c], [0, e]]
    from integer draws in [-SYMPLECTIC_BOUND, SYMPLECTIC_BOUND], with
    c = a J s2 and e = J a^-T J. The product is assembled from its blocks,
    [[a, c], [J s1 a, J s1 c + e]]; a product with J reverses rows."""
    values = range(-SYMPLECTIC_BOUND, SYMPLECTIC_BOUND + 1)  # randint's draws, at half the cost
    while True:
        a = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
        try:
            a_inv = em.inverse(a)
            break
        except ValueError:
            continue
    j_s1 = _random_symmetric(n, values, rng)[::-1]
    c = em.mat_mul(a, _random_symmetric(n, values, rng)[::-1])
    e = [[a_inv[n - 1 - t][n - 1 - s] for t in range(n)] for s in range(n)]
    corner = [[x + y for x, y in zip(row, e_row)] for row, e_row in zip(em.mat_mul(j_s1, c), e)]
    return em.block2(a, c, em.mat_mul(j_s1, a), corner)


def _random_symmetric(n: int, values: range, rng: random.Random) -> em.Matrix:
    m = em.zeros(n, n)
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.choice(values)
    return m


def factorization_suite(seed: int, count: int = 200) -> SuiteResult:
    rng = random.Random(f"factor:{seed}")
    done = 0
    for _ in range(count):
        n = rng.choice((2, 3, 4, 5))
        z = random_symplectic(n, rng)
        try:
            z1, z2 = opposite_cell_factor(z)
        except ValueError as exc:
            return SuiteResult("factorization", False, f"{exc} at n={n}")
        if not em.mat_mul_equals(z1, z2, z):
            return SuiteResult("factorization", False, "recomposition mismatch")
        if not is_symplectic(z2):
            return SuiteResult("factorization", False, "parabolic factor not symplectic")
        done += 1
    return SuiteResult("factorization", True, f"{done} factorizations exact")


def plethysm_suite() -> SuiteResult:
    e_max, t_max = 5, 6
    for e in range(1, e_max + 1):
        dim = e * (e + 1) // 2
        for t in range(t_max + 1):
            total = sum(
                schur_dim(lam, e) * mult for lam, mult in exterior_of_sym2(t, e)
            )
            if total != comb(dim, t):
                return SuiteResult(
                    "plethysm", False,
                    f"dimension count fails at e={e}, t={t}: {total}",
                )
    return SuiteResult("plethysm", True, f"all counts match up to e={e_max}, t={t_max}")


def bott_euler_suite() -> SuiteResult:
    """Line bundles on the projective line: weight (0, d) with cut 1 behaves
    exactly like the degree-d line bundle."""
    d_range = 6
    for d in range(-d_range, d_range + 1):
        answer = bott(QDominantWeight(2, 1, (0, d)))
        if d >= 0:
            ok = not answer.zero and answer.degree == 0 and answer.dimension == d + 1
        elif d == -1:
            ok = answer.zero
        else:
            ok = not answer.zero and answer.degree == 1 and answer.dimension == -d - 1
        if not ok:
            return SuiteResult("bott-euler", False, f"degree {d}: got {answer}")
        euler = 0 if answer.zero else (-1) ** answer.degree * answer.dimension
        if euler != d + 1:
            return SuiteResult("bott-euler", False, f"Euler characteristic off at {d}")
    return SuiteResult("bott-euler", True, f"line bundles |d| <= {d_range} match")


def betti_suite() -> SuiteResult:
    n_max = 5
    for n in range(2, n_max + 1):
        for k in range(1, n):
            table = jpw_closed_form(n, k)
            codim = desing_data(n, k, n).codim
            if codim != comb(n - k + 1, 2):
                return SuiteResult("betti", False, f"codim mismatch at {(n, k)}")
            if table.length() != codim:
                return SuiteResult("betti", False, f"length != codim at {(n, k)}")
            report = consistency_check(table, codim)
            if not report.divisible or report.degree <= 0:
                return SuiteResult("betti", False, f"K-polynomial fails at {(n, k)}")
            gens = minor_generators(n, k)
            f1 = table.entries.get((1, k + 1), 0)
            if len(gens) != f1:
                return SuiteResult(
                    "betti", False,
                    f"generator count {len(gens)} != F_1 rank {f1} at {(n, k)}",
                )
            if any(g.degree() != k + 1 for g in gens):
                return SuiteResult("betti", False, f"generator degree off at {(n, k)}")
            first_degrees = sorted(d for (i, d) in table.entries if i == 1)
            if first_degrees != [k + 1]:
                return SuiteResult("betti", False, f"F_1 degrees {first_degrees} at {(n, k)}")
    return SuiteResult("betti", True, f"closed form consistent for n <= {n_max}")


def subresolution_suite() -> SuiteResult:
    cases = ((3, 2, 3), (4, 2, 4))
    for n, k, r in cases:
        big = enlarged_space_table(n, k, r)
        small = jpw_closed_form(n, k)
        if not big.contains(small):
            return SuiteResult("subresolution", False, f"containment fails at {(n, k, r)}")
        if k_polynomial(big) == k_polynomial(small) and big.entries != small.entries:
            return SuiteResult("subresolution", False, f"tables differ but K agrees at {(n, k, r)}")
    return SuiteResult("subresolution", True, f"{len(cases)} enlarged tables contain the closed form")


def weyl_suite(n_max: int = 6) -> SuiteResult:
    for n in range(2, n_max + 1):
        for r in range(2, n + 1):
            for k in range(1, r):
                wmax = w_max_rep(n, k, r)
                if not avoids_patterns(wmax):
                    return SuiteResult("weyl", False, f"pattern occurs at {(n, k, r)}")
                if tangent_dim_at_id_C(wmax) != length_C(wmax):
                    return SuiteResult("weyl", False, f"tangent != length at {(n, k, r)}")
                # the family element is its own minimal coset representative
                if family_element(n, k, r) != w_tilde_min_rep(wmax, cell_cuts(n, k, r)):
                    return SuiteResult("weyl", False, f"coset reps disagree at {(n, k, r)}")
    expected = (3, 4, 6, 9, 10, 1, 2, 5, 7, 8)
    got = w_tilde_min_rep(family_element(5, 2, 4), cell_cuts(5, 2, 4))
    if got != expected:
        return SuiteResult("weyl", False, f"minimal representative {got}")
    return SuiteResult("weyl", True, f"patterns/tangent/coset checks pass for n <= {n_max}")


def product_suite(seed: int, n_max: int = 5, points_per_case: int = 100) -> SuiteResult:
    rng = random.Random(f"product:{seed}")
    for n, k, r in all_parameters(n_max):
        data = desing_data(n, k, r)
        if data.dim_y + data.codim != n * (n + 1) // 2:
            return SuiteResult("product", False, f"dimension bookkeeping at {(n, k, r)}")
        if r == n and data.codim != comb(n - k + 1, 2):
            return SuiteResult("product", False, f"codim at {(n, k, r)}")
        for count in range(points_per_case):
            point = random_symplectic_cell_point(n, k, r, rng)
            m = point.matrix()
            if not is_symplectic(m):
                return SuiteResult("product", False, f"pattern not symplectic at {(n, k, r)}")
            # the symbolic pattern checks the block form once per case
            if count == 0 and not opposite_cell_pattern(n, k, r).is_member(m):
                return SuiteResult("product", False, f"point leaves the pattern at {(n, k, r)}")
            try:
                sym, base = product_identification(n, k, r, m)
            except ValueError as exc:
                return SuiteResult("product", False, f"{exc} at {(n, k, r)}")
            # matrix() pastes the blocks verbatim: equal points, equal matrices
            if product_identification_inverse(n, k, r, sym, base) != point:
                return SuiteResult("product", False, f"round trip fails at {(n, k, r)}")
    return SuiteResult("product", True, f"{points_per_case} round trips per case, n <= {n_max}")


DEFAULT_SUITES = (
    "weyl",
    "plethysm",
    "bott-euler",
    "plucker",
    "factorization",
    "product",
    "betti",
    "subresolution",
)


def run_suites(seed: int, names=DEFAULT_SUITES, fast: bool = False) -> list[SuiteResult]:
    points = 40 if fast else 200
    n_max = 4 if fast else 5
    runners = {
        "weyl": lambda: weyl_suite(n_max=5 if fast else 6),
        "plethysm": plethysm_suite,
        "bott-euler": bott_euler_suite,
        "plucker": lambda: plucker_suite(seed, n_max=n_max, points_per_case=points),
        "factorization": lambda: factorization_suite(seed, count=points),
        "product": lambda: product_suite(seed, n_max=n_max, points_per_case=points // 2),
        "betti": betti_suite,
        "subresolution": subresolution_suite,
    }
    return [runners[name]() for name in names]
