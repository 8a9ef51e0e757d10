"""Sparse exact multivariate polynomials with integer coefficients, rational
only if a caller supplies ``Fraction``s.

A monomial is a sorted tuple of (variable, exponent) pairs; variables are
hashable keys with distinct reprs, sorted by repr. Just enough arithmetic for
minors of symbolic matrices and for rank computations on spans of
polynomials.
"""

from __future__ import annotations

from bisect import bisect_left
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
        for a, b in ((self, other), (other, self)):
            if len(b.terms) == 1:
                ((m, c),) = b.terms.items()
                if len(m) == 1 and m[0][1] == 1:
                    return a._times_variable(m[0][0], c)
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mul_monomials(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(out)

    def _times_variable(self, v, c) -> "Poly":
        """self * c*v: v goes into each monomial at its place in the
        variable order, or raises its exponent there, so no two monomials
        merge and the terms are those of the general product."""
        key = _variable_order((v, 1))
        out: dict[Monomial, int] = {}
        for m, c1 in self.terms.items():
            i = bisect_left(m, key, key=_variable_order)
            if i < len(m) and m[i][0] == v:
                m = m[:i] + ((v, m[i][1] + 1),) + m[i + 1:]
            else:
                m = m[:i] + ((v, 1),) + m[i:]
            out[m] = c1 * c
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
    one per set of remaining columns."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    return _laplace(rows, tuple(range(n)), tuple(range(n)), {})


def _laplace(matrix: list[list[Poly]], rows: tuple, cols: tuple, memo: dict,
             symmetric: bool = False) -> Poly:
    """The minor of `matrix` on `rows` by `cols`, expanded along its first
    row. `memo` maps (rows, cols) to the minors already found, so a caller
    that shares one memo across many minors expands each sub-minor once. For
    a symmetric matrix minor(R, C) = minor(C, R), and the key is folded to
    rows <= cols."""
    key = (cols, rows) if symmetric and cols < rows else (rows, cols)
    if key not in memo:
        total: dict[Monomial, int] = {}  # one accumulator, not a new Poly per term
        for pos, col in enumerate(cols):
            factor = matrix[rows[0]][col]
            if factor:
                sign = -1 if pos % 2 else 1
                for m, c in (factor * _laplace(matrix, rows[1:], cols[:pos] + cols[pos + 1:],
                                               memo, symmetric)).terms.items():
                    total[m] = total.get(m, 0) + sign * c
        memo[key] = Poly(total) if rows else Poly.const(1)
    return memo[key]


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
