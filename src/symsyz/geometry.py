"""Concrete matrix models for opposite cells in the symplectic flag variety.

Everything is exact rational arithmetic. The ambient group lives inside
SL(2n): a block matrix [[A, C], [D, E]] is symplectic for the form
F = [[0, J], [-J, 0]] (J the antidiagonal of ones) iff Z^T F Z = F, which
is what :func:`is_symplectic` checks. Such matrices are plain 2n-by-2n
lists of rows; a point of the symplectic opposite cell is an
:class:`OppositeCellPoint`.

Coordinates x[i][j] on the opposite big cell of the three-step type-A
parabolic quotient sit strictly below the block diagonal with cuts
{r-k, n, 2n-(r-k)}; points are dicts {(i, j): value} on those positions.
"""

from __future__ import annotations

import random
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from . import exactmat as em
from .polynomials import Poly
from .weyl import cell_cuts, check_parameters

CELL_POINT_BOUND = 9  # entries of random_cell_point
SYMPLECTIC_POINT_BOUND = 6  # entries of random_symplectic_cell_point


def _freeze(m) -> tuple:
    return tuple(tuple(row) for row in m)


def is_symplectic(m: em.Matrix) -> bool:
    """Check Z^T F Z == F exactly for the 2n-by-2n matrix Z = m (in blocks,
    A^T J D = D^T J A, C^T J E = E^T J C and A^T J E - D^T J C = J), as
    M^T (F M) == d^2 F in integers for Z = M/d. F M is M's rows in reverse
    order with the last n of them negated. Both sides are antisymmetric, so
    only the entries above the diagonal are compared.

    >>> is_symplectic(em.identity(4))
    True
    """
    rows, cols = em.shape(m)
    if rows != cols or rows % 2:
        raise ValueError("need a square matrix of even size")
    n = rows // 2
    ints, den = em._scaled(m)
    f_rows = ints[:n - 1:-1] + [[-x for x in row] for row in ints[n - 1::-1]]
    columns, f_columns = list(zip(*ints)), list(zip(*f_rows))
    return all(sum(map(mul, columns[i], f_columns[j])) == (den * den if i + j == rows - 1 else 0)
               for i in range(rows) for j in range(i + 1, rows))


class NotInOppositeCellError(ValueError):
    """Raised when the upper-left block is singular."""


class PluckerMismatch(RuntimeError):
    """A Plucker minor disagrees with its closed form or its Bareiss value."""


class SliceEscape(RuntimeError):
    """A component of the product identification left its linear slice."""


def opposite_cell_factor(m: em.Matrix) -> tuple[em.Matrix, em.Matrix]:
    """Factor a symplectic 2n-by-2n matrix with invertible A as z1 * z2 with
    z1 lower unipotent (block D A^{-1}) and z2 block upper triangular in the
    parabolic. Verifies both factorisation identities before returning.
    """
    if not is_symplectic(m):
        raise ValueError("matrix is not symplectic")
    n = len(m) // 2
    a, c, d, e = em.split4(m, n, n)
    try:
        a_inv = em.inverse(a)
    except ValueError:
        raise NotInOppositeCellError("upper-left block is singular") from None
    da_inv = em.mat_mul(d, a_inv)
    # J(DA^{-1}) must be symmetric, and A^T J (E - DA^{-1}C) must equal J;
    # J X is X with its rows reversed, entrywise (J X)[i][j] = X[n-1-i][j]
    if any(da_inv[n - 1 - i][j] != da_inv[n - 1 - j][i] for i in range(n) for j in range(i)):
        raise ValueError("factorisation identity for the unipotent part fails")
    schur = em.mat_sub(e, em.mat_mul(da_inv, c))
    if not em.mat_mul_equals(em.transpose(a), schur[::-1], em.antidiag(n)):
        raise ValueError("factorisation identity for the parabolic part fails")
    z1 = em.block2(em.identity(n), em.zeros(n, n), da_inv, em.identity(n))
    z2 = em.block2(a, c, em.zeros(n, n), schur)
    return z1, z2


# ---------------------------------------------------------------------------
# Coordinates on the opposite big cell of the three-step parabolic quotient


@lru_cache(maxsize=None)
def free_positions(n: int, k: int, r: int) -> tuple[tuple[int, int], ...]:
    """Positions (i, j) with j <= cut < i for one of the three cuts."""
    cuts = cell_cuts(n, k, r)
    return tuple(
        (i, j)
        for i in range(1, 2 * n + 1)
        for j in range(1, i)
        if any(j <= l < i for l in cuts)
    )


def random_cell_point(n: int, k: int, r: int, rng: random.Random) -> dict[tuple[int, int], int]:
    """Random integer coordinates in [-CELL_POINT_BOUND, CELL_POINT_BOUND] on
    the free positions."""
    values = range(-CELL_POINT_BOUND, CELL_POINT_BOUND + 1)  # randint's draws, at half the cost
    return {pos: rng.choice(values) for pos in free_positions(n, k, r)}


def cell_matrix(n: int, k: int, r: int, point: dict) -> em.Matrix:
    """Assemble the lower unidiagonal 2n-by-2n matrix of a cell point. The
    entries are the point's own exact values, so an integer point gives an
    integer matrix and its minors stay in integer arithmetic."""
    if stray := point.keys() - set(free_positions(n, k, r)):
        raise ValueError(f"position {min(stray)} is not free for {(n, k, r)}")
    m = em.identity(2 * n)
    for (i, j), value in point.items():
        m[i - 1][j - 1] = value
    return m


def _row_minors(m: em.Matrix, cut: int, i: int) -> list:
    """The minors with rows {1..cut} \\ {j} + {i} and columns 1..cut of a
    lower unidiagonal matrix, for j = 1..cut (list index j - 1). One
    back-substitution solves y L = (row i) over the unit lower triangular
    top-left block L; with det L = 1, Cramer's rule gives minor j as
    (-1)^(cut-j) y_j."""
    y = m[i - 1][:cut]
    for s in range(cut - 1, 0, -1):
        if coeff := y[s]:
            y[:s] = [v - coeff * x for v, x in zip(y[:s], m[s])]
    return [-v if (cut - j) % 2 else v for j, v in enumerate(y, 1)]


def _minor_det_bareiss(m: em.Matrix, l: int, i: int, j: int):
    rows = [s for s in range(1, l + 1) if s != j] + [i]
    return em.det_bareiss([m[s - 1][:l] for s in rows])


def plucker_restriction(n: int, k: int, r: int, matrix: em.Matrix,
                        cross_check: bool = False) -> int:
    """Check the restrictions of the Plucker coordinates p_(i,j) to the
    opposite cell at one point, given as its ``cell_matrix``: for every
    index pair of the three treated ranges, the actual minor of the matrix
    must equal the closed form for the range exactly. Returns the number of
    pairs checked, l(2n - r) + 2 l(n - l).

    Ranges: (i > r, j <= l) uses the first cut; (i > big, j in the second
    or third column band) use the last cut. One row solve gives every minor
    of a row. The closed forms read coordinates below the diagonal, which
    are the matrix entries there.
    """
    l, mid, big = cell_cuts(n, k, r)
    ranges = (
        (l, range(r + 1, 2 * n + 1), range(1, l + 1)),
        (big, range(big + 1, 2 * n + 1), range(l + 1, big + 1)),
    )
    checked = 0
    for cut, rows, cols in ranges:
        for i in rows:
            row, minors = matrix[i - 1], _row_minors(matrix, cut, i)
            for j in cols:
                closed = row[j - 1]
                if l < j <= mid:
                    # the subtracted product pairs the tail of row i (columns
                    # n+1..big) with the column of the middle block above it
                    closed -= sum(row[s] * matrix[s][j - 1] for s in range(n, big))
                if (cut - j) % 2:
                    closed = -closed
                minor = minors[j - 1]
                if cross_check and minor != (bareiss := _minor_det_bareiss(matrix, cut, i, j)):
                    raise PluckerMismatch(
                        f"minor/Bareiss mismatch at {(n, k, r, i, j)}: {minor} != {bareiss}"
                    )
                if minor != closed:
                    raise PluckerMismatch(
                        f"minor/closed-form mismatch at {(n, k, r, i, j)}: {minor} != {closed}"
                    )
        checked += len(rows) * len(cols)
    return checked


# ---------------------------------------------------------------------------
# Matrix forms of the opposite cells


def _xvar(i: int, j: int):
    return ("x", i, j)


class CellPattern(NamedTuple):
    """Symbolic form of an opposite cell inside the big cell: every position
    of the 2n-by-2n matrix as a polynomial in the free coordinates."""

    n: int
    k: int
    r: int
    free: tuple[tuple[int, int], ...]
    entries: dict

    def entry(self, i: int, j: int) -> Poly:
        return self.entries.get((i, j), Poly.zero())

    def dimension(self) -> int:
        return len(self.free)

    def is_member(self, matrix) -> bool:
        m = em.from_rows(matrix)
        if em.shape(m) != (2 * self.n, 2 * self.n):
            return False
        values = {
            _xvar(i, j): m[i - 1][j - 1] for (i, j) in self.free
        }
        for i in range(1, 2 * self.n + 1):
            for j in range(1, 2 * self.n + 1):
                expected = self.entry(i, j).evaluate(values) if (i, j) in self.entries \
                    else (1 if i == j else 0)
                if m[i - 1][j - 1] != expected:
                    return False
        return True


def opposite_cell_pattern(n: int, k: int, r: int) -> CellPattern:
    """Constrained block pattern of the symplectic opposite cell of the
    distinguished Schubert variety.

    The two lower-left blocks vanish, the bottom band of the first column
    block of coordinates is zero, the bottom band is tied to the first band,
    the middle block is symmetric under J, and the bottom-middle block
    couples as a product. ``OppositeCellPoint`` is the same cell in block
    form; this symbolic form is the independent check on it.
    """
    l, mid, big = cell_cuts(n, k, r)
    q = n - l
    entries: dict[tuple[int, int], Poly] = {}
    free: list[tuple[int, int]] = []

    def set_free(i, j):
        entries[(i, j)] = Poly.var(_xvar(i, j))
        free.append((i, j))

    # first band: rows l+1..n, columns 1..l, bottom n-r rows zero
    for i in range(l + 1, n + 1):
        for j in range(1, l + 1):
            if i <= r:
                set_free(i, j)
            else:
                entries[(i, j)] = Poly.zero()
    # middle block D2: rows n+1..big, columns l+1..n; J D2 symmetric, so
    # mirror-diagonal pairs share one coordinate
    for i in range(n + 1, big + 1):
        for j in range(l + 1, n + 1):
            mi, mj = _d2_mirror(n, l, i, j)
            if (mi, mj) in entries:
                entries[(i, j)] = entries[(mi, mj)]
            else:
                set_free(i, j)
    # E' = -J (A')^T J, entrywise: e'[s][t] = -a'[q+1-t][l+1-s]
    for i in range(big + 1, 2 * n + 1):
        for j in range(n + 1, big + 1):
            s, t = i - big, j - n
            entries[(i, j)] = -entries[(l + (q + 1 - t), l + 1 - s)]
    # coupled block: rows big+1..2n, columns l+1..n equal E' D2
    for i in range(big + 1, 2 * n + 1):
        for j in range(l + 1, n + 1):
            total = Poly.zero()
            for s in range(1, q + 1):
                total = total + entries[(i, n + s)] * entries[(n + s, j)]
            entries[(i, j)] = total
    # everything else below the diagonal is zero
    for i in range(1, 2 * n + 1):
        for j in range(1, i):
            entries.setdefault((i, j), Poly.zero())
    return CellPattern(n, k, r, tuple(free), entries)


def _d2_mirror(n: int, l: int, i: int, j: int) -> tuple[int, int]:
    # J D2 symmetric ties (row, col) to the antidiagonal mirror inside D2
    s, t = i - n, j - l  # 1-based inside the block of size q = n - l
    q = n - l
    return n + (q + 1 - t), l + (q + 1 - s)


def random_symplectic_cell_point(n: int, k: int, r: int, rng: random.Random) -> OppositeCellPoint:
    """Random integer point of the symplectic opposite cell, with entries in
    [-SYMPLECTIC_POINT_BOUND, SYMPLECTIC_POINT_BOUND]. The draws follow
    ``opposite_cell_pattern(n, k, r).free``: the nonzero rows of A' row by
    row, then D2 row by row, where an entry whose J-mirror came earlier
    copies it instead of drawing."""
    l = cell_cuts(n, k, r)[0]
    q = n - l
    values = range(-SYMPLECTIC_POINT_BOUND, SYMPLECTIC_POINT_BOUND + 1)
    draw = lambda: rng.choice(values)  # randint's draws, at half the cost
    a_prime = [[draw() for _ in range(l)] if i < r - l else [0] * l for i in range(q)]
    d2 = [[0] * q for _ in range(q)]
    for s in range(q):
        for t in range(q):
            mirror = (q - 1 - t, q - 1 - s)
            d2[s][t] = d2[mirror[0]][mirror[1]] if mirror < (s, t) else draw()
    return OppositeCellPoint(n, k, r, a_prime, d2)


# ---------------------------------------------------------------------------
# Points in block form and the product identification


class _CellBlocks(NamedTuple):
    n: int
    k: int
    r: int
    a_prime: tuple
    d2: tuple


class OppositeCellPoint(_CellBlocks):
    """Point of the symplectic opposite cell, determined by the first band
    A' ((n-(r-k)) x (r-k), bottom n-r rows zero) and the middle block D2
    (J D2 symmetric); the bottom band is the derived block -J (A')^T J.
    The constructor checks both blocks and stores them as tuples of rows."""

    __slots__ = ()

    def __new__(cls, n: int, k: int, r: int, a_prime, d2):
        l = r - k
        q = n - l
        a_prime = em.from_rows(a_prime)
        d2 = em.from_rows(d2)
        if em.shape(a_prime) != (q, l) or len(d2) != q or any(len(row) != q for row in d2):
            raise ValueError("block shapes do not match the parameters")
        if any(a_prime[i][j] != 0 for i in range(r - l, q) for j in range(l)):
            raise ValueError("bottom rows of the first band must vanish")
        # J D2 symmetric, entrywise: (J D2)[i][j] = d2[q-1-i][j]
        if any(d2[q - 1 - i][j] != d2[q - 1 - j][i] for i in range(q) for j in range(i)):
            raise ValueError("J D2 must be symmetric")
        return super().__new__(cls, n, k, r, _freeze(a_prime), _freeze(d2))

    @property
    def e_prime(self) -> em.Matrix:
        """-J (A')^T J, entrywise e'[s][t] = -a'[q-1-t][l-1-s]."""
        l, q = self.r - self.k, self.n - (self.r - self.k)
        return [[-self.a_prime[q - 1 - t][l - 1 - s] for t in range(q)] for s in range(l)]

    def matrix(self) -> em.Matrix:
        l, mid, big = cell_cuts(self.n, self.k, self.r)
        e_prime = self.e_prime
        m = em.identity(2 * self.n)
        _paste(m, self.a_prime, l, 0)
        _paste(m, self.d2, self.n, l)
        _paste(m, e_prime, big, self.n)
        _paste(m, em.mat_mul(e_prime, self.d2), big, l)
        return m

    @staticmethod
    def from_matrix(n: int, k: int, r: int, matrix) -> "OppositeCellPoint":
        """Read A' and D2 off a 2n-by-2n matrix; raises ValueError unless the
        matrix is exactly the point those blocks determine."""
        m = em.from_rows(matrix)
        if em.shape(m) != (2 * n, 2 * n):
            raise ValueError("matrix does not satisfy the cell pattern")
        l = cell_cuts(n, k, r)[0]
        q = n - l
        point = OppositeCellPoint(
            n, k, r,
            tuple(tuple(m[l + i][:l]) for i in range(q)),
            tuple(tuple(m[n + i][l:n]) for i in range(q)),
        )
        if point.matrix() != m:
            raise ValueError("matrix does not satisfy the cell pattern")
        return point


def _paste(m: em.Matrix, block: em.Matrix, row0: int, col0: int) -> None:
    for i, row in enumerate(block):
        m[row0 + i][col0:col0 + len(row)] = row


def product_identification(n: int, k: int, r: int, matrix) -> tuple[em.Matrix, em.Matrix]:
    """Split a symplectic cell member into its two linear components: the
    symmetric matrix D^T J A and the unipotent base factor A. Raises
    ValueError unless the matrix is a cell point, and SliceEscape unless the
    symmetric component lies in the fibre slice: supported on the trailing
    square of side n-(r-k). (The base slice, A' zero below row r, is the
    cell point's own constructor check.)"""
    m = em.from_rows(matrix)
    OppositeCellPoint.from_matrix(n, k, r, m)
    a, _, d, _ = em.split4(m, n, n)
    sym = em.mat_mul(em.transpose(d), a[::-1])  # J A is A with its rows reversed
    if not em.is_symmetric(sym) or any(row[j] for row in sym for j in range(r - k)):
        raise SliceEscape(f"symmetric component escapes its slice at {(n, k, r)}")
    return sym, a


def product_identification_inverse(n: int, k: int, r: int, sym, base) -> OppositeCellPoint:
    """The cell point of the two components: A' is the base's rows below
    r-k, and D2 is J times the trailing square of sym, its rows reversed."""
    l = r - k
    return OppositeCellPoint(
        n, k, r,
        [row[:l] for row in base[l:]],
        [row[l:] for row in reversed(sym[l:])],
    )


# ---------------------------------------------------------------------------
# Desingularisation bookkeeping


class DesingData(NamedTuple):
    n: int
    k: int
    r: int
    base: str
    base_dim: int
    fibre_dim: int
    dim_z: int
    dim_y: int
    ambient_dim: int
    codim: int
    bundle_rank: int


def desing_data(n: int, k: int, r: int) -> DesingData:
    """Dimension bookkeeping of the desingularisation: total space is a
    vector bundle of rank dim(V_w) over a Grassmannian of dimension k(r-k),
    mapping birationally onto the opposite cell inside the symmetric
    matrices.

    >>> desing_data(2, 1, 2).dim_y, desing_data(2, 1, 2).codim
    (2, 1)
    """
    check_parameters(n, k, r)
    ambient = n * (n + 1) // 2
    q = n - (r - k)
    fibre = q * (q + 1) // 2  # symmetric matrices on the trailing q-by-q square
    base_dim = k * (r - k)
    dim_z = base_dim + fibre
    return DesingData(
        n=n, k=k, r=r,
        base=f"GL_{r}/P''_{{{r - k}}}",
        base_dim=base_dim,
        fibre_dim=fibre,
        dim_z=dim_z,
        dim_y=dim_z,
        ambient_dim=ambient,
        codim=ambient - dim_z,
        bundle_rank=ambient - fibre,
    )
