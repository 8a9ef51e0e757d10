"""Correctness checks for the benchmark's operations.

Everything here is computed apart from the ``symsyz`` package: hook-content
and Weyl dimensions, Frobenius coordinates, the Jozefiak-Pragacz-Weyman hook
families, the rho-shift form of Bott's theorem, the Harris-Tu degree formula
and Goto's Gorenstein criterion. Each checker returns a list of problems; an
empty list means the output passed.

A table is a dict {(i, d): (mult, labels)} where labels is a sorted list of
(label tuple, dim) pairs, as read from ``resolve --format json``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

# ---------------------------------------------------------------------------
# Partition calculus


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0])) if lam else ()


def hook_content_dim(lam: tuple[int, ...], n: int) -> int:
    """dim S_lam(C^n): the product over cells of (n + col - row) / hook.
    A partition with more than n rows gets a zero factor at (n, 0)."""
    conj = conjugate(lam)
    num = den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= n + j - i
            den *= (row - j) + (conj[j] - i) - 1
    dim, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"hook-content quotient not integral for {lam}")
    return dim


def weyl_dimension(beta: tuple[int, ...]) -> int:
    """Weyl dimension formula for GL_n: prod_{i<j} (b_i - b_j + j - i)/(j - i)."""
    num = den = 1
    for i, j in combinations(range(len(beta)), 2):
        num *= beta[i] - beta[j] + j - i
        den *= j - i
    dim, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"Weyl quotient not integral for {beta}")
    return dim


def from_frobenius(arms: tuple[int, ...], legs: tuple[int, ...]) -> tuple[int, ...]:
    """Partition with Frobenius coordinates (arms | legs), both strictly
    decreasing: row i < s has length arm_i + i + 1, and a row i >= s meets
    only the columns j < s whose length leg_j + j + 1 exceeds i."""
    s = len(arms)
    rows = legs[0] + 1 if s else 0
    return tuple(
        arms[i] + i + 1 if i < s else sum(1 for j in range(s) if legs[j] + j + 1 > i)
        for i in range(rows)
    )


# ---------------------------------------------------------------------------
# Reference tables


def _table(raw: dict) -> dict:
    """{(i, d): [(label, dim), ...]} -> {(i, d): (mult, sorted labels)}."""
    out = {}
    for key, labels in raw.items():
        labels = sorted(labels, reverse=True)
        out[key] = (sum(dim for _, dim in labels), labels)
    return out


@lru_cache(maxsize=None)
def jpw_table(n: int, k: int, max_t: int | None = None) -> dict:
    """Closed form of the rank <= k locus of symmetric n-by-n matrices, in
    degrees <= max_t: for each even s >= 2 and arms a_1 > .. > a_s in
    [k-1, n-1] with legs a_j - (k-1), the hook partition lam of 2t sits at
    (t - k s / 2, t) with label lam' and the dimension of S_lam'(C^n)."""
    raw = {(0, 0): [((), 1)]}
    for s in range(2, n - k + 2, 2):
        for arms in combinations(range(n - 1, k - 2, -1), s):
            lam = from_frobenius(arms, tuple(a - (k - 1) for a in arms))
            t = sum(lam) // 2
            if max_t is not None and t > max_t:
                continue
            label = conjugate(lam)
            raw.setdefault((t - k * s // 2, t), []).append(
                (label, hook_content_dim(label, n)))
    return _table(raw)


def rho_shift_bott(alpha: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Bott's theorem through the rho-shift: alpha + rho with a repeated
    entry has no cohomology; otherwise the answer sits in degree equal to
    the number of inversions of alpha + rho, with label sort(alpha + rho) - rho."""
    n = len(alpha)
    shifted = [a + n - 1 - i for i, a in enumerate(alpha)]
    if len(set(shifted)) < n:
        return None
    inversions = sum(1 for i, j in combinations(range(n), 2) if shifted[i] < shifted[j])
    label = tuple(v - (n - 1 - i) for i, v in enumerate(sorted(shifted, reverse=True)))
    return inversions, label


@lru_cache(maxsize=None)
def enlarged_table(n: int, k: int, max_t: int | None = None) -> dict:
    """Table of the direct image over the enlarged base, in degrees <= max_t,
    for k = 2u and m = n - u: the t-th exterior power of Sym^2 of an m-space splits into
    the partitions with legs a strict subset of {0..m-1} and arm = leg + 1
    (t = sum of legs + their number); the summand lam pushed forward from
    the Grassmannian of u-planes is the weight (0^u, lam) with cut m after
    the block swap, and a class in degree j lands at (t - j, t)."""
    u = k // 2
    m = n - u
    raw = {}
    for s in range(m + 1):
        for legs in combinations(range(m - 1, -1, -1), s):
            lam = from_frobenius(tuple(b + 1 for b in legs), legs)
            t = sum(lam) // 2
            if max_t is not None and t > max_t:
                continue
            answer = rho_shift_bott((0,) * u + lam + (0,) * (m - len(lam)))
            if answer is None:
                continue
            j, label = answer
            raw.setdefault((t - j, t), []).append((label, weyl_dimension(label)))
    return _table(raw)


def harris_tu_degree(n: int, k: int) -> int:
    """Degree of the rank <= k locus of symmetric n-by-n matrices:
    prod_{a=0}^{n-k-1} C(n+a, n-k-a) / C(2a+1, a)."""
    value = Fraction(1)
    for a in range(n - k):
        value *= Fraction(comb(n + a, n - k - a), comb(2 * a + 1, a))
    if value.denominator != 1:
        raise ArithmeticError(f"Harris-Tu product not integral at {(n, k)}")
    return int(value)


# ---------------------------------------------------------------------------
# Reading and checking resolve output


def read_table(rows: list[dict]) -> dict:
    return {
        (row["i"], row["degree"]): (
            row["mult"], sorted(((tuple(lab), dim) for lab, dim in row["schur"]), reverse=True))
        for row in rows
    }


def k_polynomial(table: dict) -> list[int]:
    top = max(d for _, d in table)
    coeffs = [0] * (top + 1)
    for (i, d), (mult, _) in table.items():
        coeffs[d] += -mult if i % 2 else mult
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def generator_problems(table: dict) -> list[str]:
    row0 = {key: mult for key, (mult, _) in table.items() if key[0] <= 0}
    return [] if row0 == {(0, 0): 1} else [f"position 0 holds {row0}, not one generator at (0, 0)"]


def codim_problems(table: dict, n: int, k: int) -> list[str]:
    codim = comb(n - k + 1, 2)
    length = max(i for i, _ in table)
    return [] if length == codim else [f"length {length} != codim {codim} (not Cohen-Macaulay)"]


def degree_problems(table: dict, n: int, k: int) -> list[str]:
    """Divide the K-polynomial of the table by (1 - z)^codim; the quotient
    at z = 1 must be the Harris-Tu degree."""
    coeffs = k_polynomial(table)
    for step in range(comb(n - k + 1, 2)):
        if sum(coeffs) != 0:
            return [f"K-polynomial not divisible by (1-z)^{step + 1}"]
        coeffs = [sum(coeffs[: j + 1]) for j in range(len(coeffs) - 1)] or [0]
    expected = harris_tu_degree(n, k)
    return [] if sum(coeffs) == expected else [f"degree {sum(coeffs)} != Harris-Tu {expected}"]


def gorenstein_problems(table: dict, n: int, k: int) -> list[str]:
    """beta_{i,d} = beta_{c-i, D-d} holds exactly when n - k is odd."""
    c = max(i for i, _ in table)
    top = max(d for i, d in table if i == c)
    mults = {key: mult for key, (mult, _) in table.items()}
    symmetric = all(mults.get((c - i, top - d), 0) == mult for (i, d), mult in mults.items())
    if symmetric == ((n - k) % 2 == 1):
        return []
    return [f"Gorenstein symmetry is {symmetric} but n - k = {n - k}"]


def first_syzygy_problems(table: dict, n: int, k: int) -> list[str]:
    row1 = {key: mult for key, (mult, _) in table.items() if key[0] == 1}
    expected = {(1, k + 1): hook_content_dim((2,) * (k + 1), n)}
    return [] if row1 == expected else [f"position 1 holds {row1}, expected {expected}"]


def label_problems(table: dict, dim) -> list[str]:
    """Each printed label dimension is recomputed by `dim`, and each
    multiplicity is the sum over its labels."""
    problems = []
    for key, (mult, labels) in sorted(table.items()):
        dims = [dim(label) for label, _ in labels]
        if [d for _, d in labels] != dims or sum(dims) != mult:
            problems.append(f"entry {key}: mult {mult}, labels {labels}, recomputed dims {dims}")
    return problems


def table_problems(name: str, got: dict, expected: dict) -> list[str]:
    problems = []
    for key in sorted(set(got) | set(expected)):
        if got.get(key) != expected.get(key):
            problems.append(f"{name} entry {key}: got {got.get(key)}, expected {expected.get(key)}")
    return problems[:5]


def closed_form_problems(table: dict, n: int, k: int) -> list[str]:
    return (generator_problems(table) + codim_problems(table, n, k)
            + degree_problems(table, n, k) + gorenstein_problems(table, n, k)
            + first_syzygy_problems(table, n, k)
            + label_problems(table, lambda lab: hook_content_dim(lab, n)))


def resolve_problems(payload: dict, n: int, k: int, max_t: int | None = None) -> list[str]:
    """Check one ``resolve --n N --k K --r N --format json [--max-t T]``."""
    if payload.get("params") != {"n": n, "k": k, "r": n}:
        return [f"params {payload.get('params')}"]
    problems = []
    if payload["ring"] != {"variables": n * (n + 1) // 2}:
        problems.append(f"ring {payload['ring']}")
    table = read_table(payload["betti"])
    if payload["k_polynomial"] != k_polynomial(table):
        problems.append("printed K-polynomial differs from the table's")
    if max_t is None:
        problems += closed_form_problems(table, n, k)
        if payload["codim"] != comb(n - k + 1, 2):
            problems.append(f"printed codim {payload['codim']}")
    problems += table_problems("closed-form", table, jpw_table(n, k, max_t))
    if k % 2:
        if payload["enlarged"] is not None:
            problems.append("odd k printed an enlarged table")
        return problems
    enlarged = read_table(payload["enlarged"])
    problems += table_problems("enlarged", enlarged, enlarged_table(n, k, max_t))
    problems += label_problems(enlarged, weyl_dimension)
    contains = all(enlarged.get(key, (0, []))[0] >= mult for key, (mult, _) in table.items())
    if not contains or payload["subresolution"] is not True:
        problems.append(f"containment {contains}, printed subresolution {payload['subresolution']}")
    return problems


# ---------------------------------------------------------------------------
# verify and the generator counts


def plucker_minors(n_max: int, points: int) -> int:
    """Minors the Plucker suite checks: for every (n, k, r) with
    1 <= k < r <= n <= n_max and l = r - k, l(2n - r) minors in the first
    band and l(n - l) in each of the two bands below the last cut."""
    return points * sum(
        (r - k) * (2 * n - r) + 2 * (r - k) * (n - r + k)
        for n in range(2, n_max + 1) for r in range(2, n + 1) for k in range(1, r))


FAST_POINTS, FAST_N_MAX = 40, 4  # what `verify --fast` passes to the point suites
FAST_DETAILS = {
    "weyl": "patterns/tangent/coset checks pass for n <= 5",
    "plethysm": "all counts match up to e=5, t=6",
    "bott-euler": "line bundles |d| <= 6 match",
    "plucker": "minors matched exactly",
    "factorization": "factorizations exact",
    "product": f"{FAST_POINTS // 2} round trips per case, n <= {FAST_N_MAX}",
    "betti": "closed form consistent for n <= 5",
    "subresolution": "2 enlarged tables contain the closed form",
}
COUNTED = ("plucker", "factorization")  # their detail starts with a work count


def verify_problems(stdout: str) -> tuple[dict[str, int], list[str]]:
    """One PASS line per suite of ``verify --fast``, in order, each with the
    detail its parameters give. Returns the work counts the counted suites
    print, which `work_problems` compares with the parameters."""
    work = dict.fromkeys(COUNTED, 0)
    lines = stdout.splitlines()
    if len(lines) != len(FAST_DETAILS):
        return work, [f"verify printed {len(lines)} lines for {len(FAST_DETAILS)} suites"]
    problems = []
    for line, (suite, detail) in zip(lines, FAST_DETAILS.items()):
        prefix = f"PASS {suite}: "
        got = line[len(prefix):] if line.startswith(prefix) else None
        if got is not None and suite in COUNTED:
            count, _, got = got.partition(" ")
            work[suite] = int(count) if count.isdigit() else -1
        if got != detail:
            problems.append(f"verify line {line!r}, expected {prefix}{detail}")
    return work, problems


def work_problems(total: dict[str, int], runs: int) -> list[str]:
    """Accumulated work over `runs` verify runs against the parameters."""
    expected = {"plucker": runs * plucker_minors(FAST_N_MAX, FAST_POINTS),
                "factorization": runs * FAST_POINTS}
    return [] if total == expected else [f"verify work {total}, expected {expected}"]


def gencount_problems(payload: dict, n: int, k: int) -> list[str]:
    expected = hook_content_dim((2,) * (k + 1), n)
    got = {key: payload.get(key) for key in ("n", "k", "generators", "f1")}
    want = {"n": n, "k": k, "generators": expected, "f1": expected}
    return [] if got == want else [f"generator counts {got}, expected {want}"]
