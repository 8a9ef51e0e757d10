"""Sparse exact multivariate polynomials with integer coefficients, rational
only if a caller supplies ``Fraction``s.

A monomial is a sorted tuple of (variable, exponent) pairs; variables are
arbitrary hashable keys. Just enough arithmetic for minors of symbolic
matrices and for rank computations on spans of polynomials.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

Monomial = tuple[tuple[object, int], ...]


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, int] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(): c})

    @staticmethod
    def var(name) -> "Poly":
        return Poly({((name, 1),): 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Poly(terms)

    def __sub__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) - c
        return Poly(terms)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mul_monomials(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(out)

    def degree(self) -> int:
        return max((sum(e for _, e in m) for m in self.terms), default=0)

    def evaluate(self, values: dict):
        """The value at `values`: an int for int values, exact for Fractions."""
        total = 0
        for m, c in self.terms.items():
            term = c
            for v, e in m:
                term *= values[v] ** e
            total += term
        return total

    def leading_key(self) -> Monomial:
        return max(self.terms)

    def sign_canonical(self) -> "Poly":
        """Normalise so the coefficient of the largest monomial is positive."""
        return -self if self.terms and self.terms[self.leading_key()] < 0 else self

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                f"{v}" if e == 1 else f"{v}^{e}" for v, e in m
            ) or "1"
            bits.append(f"{c}*{mono}")
        return " + ".join(bits)


# a monomial lists its variables in the order of their reprs
_variable_order = lru_cache(maxsize=None)(lambda pair: repr(pair[0]))


def _mul_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    exps: dict[object, int] = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items(), key=_variable_order))


def poly_det(rows: list[list[Poly]]) -> Poly:
    """Determinant of a square matrix of polynomials by memoized Laplace
    expansion along the rows: an s-by-s matrix costs 2^s sub-determinants,
    one per set of remaining columns (the row is implied by its size)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    memo = {(): Poly.const(1)}

    def expand(cols: tuple[int, ...]) -> Poly:
        if cols not in memo:
            row, total = rows[n - len(cols)], Poly.zero()
            for pos, col in enumerate(cols):
                if row[col]:
                    term = row[col] * expand(cols[:pos] + cols[pos + 1:])
                    total = total + term if pos % 2 == 0 else total - term
            memo[cols] = total
        return memo[cols]

    return expand(tuple(range(n)))


def span_rank_and_basis(polys: list[Poly]) -> tuple[int, list[Poly]]:
    """Rank of the linear span, plus the inputs independent of those before
    them (a basis, in input order), by fraction-free echelon over ℤ: rows are
    kept by leading monomial, only leading terms are eliminated, and each step
    divides out the content. Rational inputs are cleared once, at entry."""
    pivots: dict[Monomial, dict[Monomial, int]] = {}
    basis: list[Poly] = []
    for original in polys:
        den = lcm(*(c.denominator for c in original.terms.values()))
        p = {m: int(c * den) for m, c in original.terms.items()}
        while p:
            lead = max(p)
            if lead not in pivots:
                pivots[lead] = p
                basis.append(original)
                break
            q = pivots[lead]
            g = gcd(p[lead], q[lead])
            a, b = q[lead] // g, p[lead] // g
            p = {m: a * c for m, c in p.items()}
            for m, c in q.items():
                p[m] = p.get(m, 0) - b * c
            content = gcd(*p.values())  # 0 only when p vanished
            p = {m: c // content for m, c in p.items() if c}
    return len(basis), basis
