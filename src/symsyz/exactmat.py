"""Small exact matrix toolkit over int/Fraction: block assembly, products,
inverses, and fraction-free determinants. Matrices are lists of lists.
Integer inputs stay plain ints; a Fraction appears only where a division
really leaves one (an inverse, a rational product or determinant)."""

from __future__ import annotations

from math import lcm
from operator import mul

Matrix = list[list]  # int or Fraction entries


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def antidiag(n: int) -> Matrix:
    """The antidiagonal matrix J of ones."""
    return [[int(i + j == n - 1) for j in range(n)] for i in range(n)]


def from_rows(rows) -> Matrix:
    return [list(row) for row in rows]


def shape(m: Matrix) -> tuple[int, int]:
    return len(m), len(m[0]) if m else 0


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return shape(a) == shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def transpose(m: Matrix) -> Matrix:
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch: {shape(a)} * {shape(b)}")
    ia, da = _scaled(a)
    ib, db = _scaled(transpose(b))
    den = da * db
    if den == 1:
        return [[sum(map(mul, row, col)) for col in ib] for row in ia]
    return [[_exact(sum(map(mul, row, col)), den) for col in ib] for row in ia]


def _exact(num: int, den: int):
    """num / den as an int when it divides, as a Fraction otherwise."""
    q, rest = divmod(num, den)
    if not rest:
        return q
    from fractions import Fraction  # imported here: integer runs never need it

    return Fraction(num, den)


def _scaled(m: Matrix) -> tuple[list[list[int]], int]:
    """Integer rows and one common denominator: m == rows / den. Products
    of exact matrices then cost one normalisation per entry instead of one
    per Fraction operation. An all-int matrix comes back as it is, den 1."""
    if all(type(x) is int for row in m for x in row):
        return m, 1
    den = lcm(1, *(x.denominator for row in m for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in m], den


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a: Matrix) -> Matrix:
    return [[-x for x in row] for row in a]


def is_symmetric(m: Matrix) -> bool:
    r, c = shape(m)
    return r == c and all(m[i][j] == m[j][i] for i in range(r) for j in range(r))


def block2(a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> Matrix:
    """Assemble [[a, b], [c, d]]."""
    top = [ra + rb for ra, rb in zip(a, b)]
    bottom = [rc + rd for rc, rd in zip(c, d)]
    return top + bottom


def split4(m: Matrix, row_cut: int, col_cut: int) -> tuple[Matrix, Matrix, Matrix, Matrix]:
    a = [row[:col_cut] for row in m[:row_cut]]
    b = [row[col_cut:] for row in m[:row_cut]]
    c = [row[:col_cut] for row in m[row_cut:]]
    d = [row[col_cut:] for row in m[row_cut:]]
    return a, b, c, d


class InexactElimination(ArithmeticError):
    """A fraction-free elimination step that must divide exactly left a
    remainder."""


def inverse(m: Matrix) -> Matrix:
    """Fraction-free Gauss-Jordan (Bareiss) inverse; raises ValueError on
    singular input.

    Elimination runs on the integer matrix [den*m | I]. Each step divides
    by the previous pivot exactly, and leaves the eliminated columns of the
    left block as prev*I, so a row keeps only the columns still to come. At
    the end the rows hold d*(den*m)^-1, d the last pivot. Integral entries
    come back as int, the rest as Fraction.

    >>> inverse([[2, 1], [1, 1]])
    [[1, -1], [-1, 2]]
    """
    n, c = shape(m)
    if n != c:
        raise ValueError("inverse needs a square matrix")
    rows, den = _scaled(m)
    work = [list(row) + unit for row, unit in zip(rows, identity(n))]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][0]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        top = work[col]
        p = top.pop(0)
        for r in range(n):
            if r == col:
                continue
            row = work[r]
            f = row[0]
            steps = [divmod(p * x - f * y, prev) for x, y in zip(row[1:], top)]
            if any(rest for _, rest in steps):
                raise InexactElimination(
                    f"Bareiss step on column {col} of a {n}x{n} inverse left a remainder"
                )
            work[r] = [q for q, _ in steps]
        prev = p
    return [[_exact(x * den, prev) for x in row] for row in work]


def det_bareiss(m: Matrix):
    """Fraction-free determinant (Bareiss); exact for int or Fraction entries."""
    n, c = shape(m)
    if n != c:
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    # on the integer matrix den * m every Bareiss division is exact; the
    # elimination overwrites a copy of its rows
    rows, den = _scaled(m)
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return _exact(sign * a[n - 1][n - 1], den ** n)
