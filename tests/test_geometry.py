import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from symsyz import exactmat as em
from symsyz.geometry import (
    CELL_POINT_BOUND,
    NotInOppositeCellError,
    OppositeCellPoint,
    _row_minors,
    cell_matrix,
    free_positions,
    is_symplectic,
    opposite_cell_factor,
    opposite_cell_pattern,
    plucker_restriction,
    product_identification,
    product_identification_inverse,
    random_cell_point,
    random_symplectic_cell_point,
)
from symsyz import verify
from symsyz.resolution import desing_data
from symsyz.verify import SYMPLECTIC_BOUND, all_parameters, random_symplectic
from symsyz.weyl import cell_cuts, family_element, length_C

from oracles import symplectic_form


def test_symplectic_form_shape():
    f = symplectic_form(3)
    ft = em.transpose(f)
    assert ft == [[-x for x in row] for row in f]
    em.inverse(f)  # invertible


def test_is_symplectic_identity_and_form():
    assert is_symplectic(em.identity(6))
    # the form matrix itself preserves the form, with singular upper block
    f = symplectic_form(3)
    assert is_symplectic(f)


def test_is_symplectic_diag_block():
    rng = random.Random(3)
    for n in (2, 3, 4):
        while True:
            a = em.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            )
            try:
                em.inverse(a)
                break
            except ValueError:
                continue
        j = em.antidiag(n)
        e = em.mat_mul(j, em.mat_mul(em.transpose(em.inverse(a)), j))
        z = em.block2(a, em.zeros(n, n), em.zeros(n, n), e)
        assert is_symplectic(z)


def test_generic_matrix_is_not_symplectic():
    rng = random.Random(5)
    hits = 0
    for _ in range(20):
        m = [[rng.randint(-5, 5) for _ in range(6)] for _ in range(6)]
        hits += is_symplectic(m)
    assert hits == 0


def test_is_symplectic_against_the_product_by_the_form():
    """The row-reversal form of F Z against the product Z^T (F Z) itself,
    on symplectic matrices and on copies with one entry moved."""
    rng = random.Random("is_symplectic")
    for n in range(1, 6):
        f = symplectic_form(n)
        for _ in range(12):
            z = random_symplectic(n, rng)
            perturbed = em.from_rows(z)
            perturbed[rng.randrange(2 * n)][rng.randrange(2 * n)] += rng.choice((1, -1, Fraction(1, 2)))
            for m in (z, perturbed):
                expected = em.mat_mul(em.transpose(m), em.mat_mul(f, m)) == f
                assert is_symplectic(m) == expected
            assert is_symplectic(z)


def test_factorization_identity_and_errors():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice((2, 3, 4))
        z = random_symplectic(n, rng)
        z1, z2 = opposite_cell_factor(z)
        assert em.mat_mul(z1, z2) == z
        f = symplectic_form(n)
        assert em.mat_mul(em.transpose(z2), em.mat_mul(f, z2)) == f
        # z1 is lower unipotent with persymmetric corner
        a, c, y, e = em.split4(z1, n, n)
        assert a == e == em.identity(n) and c == em.zeros(n, n)
        assert em.is_symmetric(em.mat_mul(em.antidiag(n), y))
    z1, z2 = opposite_cell_factor(em.identity(4))
    assert z1 == em.identity(4) and z2 == em.identity(4)
    with pytest.raises(NotInOppositeCellError):
        opposite_cell_factor(symplectic_form(2))
    for bad_shape in ([[1, 0, 0]] * 3, [[1, 0]] * 3):
        with pytest.raises(ValueError):
            is_symplectic(bad_shape)
        with pytest.raises(ValueError):
            opposite_cell_factor(bad_shape)


def test_factorization_identities_refuse_non_symplectic_blocks(monkeypatch):
    # with the symplectic check bypassed, each identity refuses the block it
    # checks: J D A^-1 not symmetric, then A^T J (E - D A^-1 C) = 2J, not J
    monkeypatch.setattr("symsyz.geometry.is_symplectic", lambda m: True)
    one, zero = em.identity(2), em.zeros(2, 2)
    with pytest.raises(ValueError, match="unipotent part fails"):
        opposite_cell_factor(em.block2(one, zero, [[1, 0], [0, 0]], one))
    for e in ([[2, 0], [0, 2]], [[Fraction(1, 2), 0], [0, 2]]):
        with pytest.raises(ValueError, match="parabolic part fails"):
            opposite_cell_factor(em.block2(one, zero, zero, e))
    z1, z2 = opposite_cell_factor(em.block2(one, zero, [[1, 0], [0, 1]], one))
    assert z1 == em.block2(one, zero, one, one) and z2 == em.identity(4)


def test_free_positions_count():
    # positions strictly below the block diagonal at the three cuts
    n, k, r = 5, 2, 4
    l, mid, big = cell_cuts(n, k, r)
    count = 0
    for i in range(1, 11):
        for j in range(1, i):
            count += any(j <= c < i for c in (l, mid, big))
    assert len(free_positions(n, k, r)) == count


def test_cell_matrix_refuses_positions_that_are_not_free():
    n, k, r = 3, 1, 2
    point = {pos: 1 for pos in free_positions(n, k, r)}
    assert cell_matrix(n, k, r, point)[1][0] == 1
    for stray in ((1, 1), (2, 3), (3, 2)):  # on and above the diagonal, inside a block
        assert stray not in free_positions(n, k, r)
        with pytest.raises(ValueError, match=re.escape(f"position {stray} is not free")):
            cell_matrix(n, k, r, {**point, stray: 1})


def test_plucker_zero_point():
    n, k, r = 5, 2, 4
    l = r - k
    zero = cell_matrix(n, k, r, {pos: 0 for pos in free_positions(n, k, r)})
    assert zero == em.identity(2 * n)
    assert plucker_restriction(n, k, r, zero, cross_check=True) == l * (2 * n - r) + 2 * l * (n - l)
    for i in range(r + 1, 2 * n + 1):
        assert _row_minors(zero, l, i) == [0] * l


def test_plucker_identities_random():
    rng = random.Random(2024)
    for n, k, r in all_parameters(4):
        l = r - k
        for _ in range(20):
            point = random_cell_point(n, k, r, rng)
            matrix = cell_matrix(n, k, r, point)
            checked = plucker_restriction(n, k, r, matrix, cross_check=True)
            assert checked == l * (2 * n - r) + 2 * l * (n - l), (n, k, r)
            # the first closed form read off the point itself, not the matrix
            for i in range(r + 1, 2 * n + 1):
                minors = _row_minors(matrix, l, i)
                for j in range(1, l + 1):
                    assert minors[j - 1] == (-1) ** (l - j) * point[(i, j)]


def test_row_minors_match_bareiss():
    """Every minor one row solve gives, at each of the three cuts, against
    the Bareiss determinant of the rows {1..cut} \\ {j} + {i}."""
    rng = random.Random("row minors")
    for n, k, r in all_parameters(4):
        for _ in range(3):
            matrix = cell_matrix(n, k, r, random_cell_point(n, k, r, rng))
            for cut in cell_cuts(n, k, r):
                for i in range(cut + 1, 2 * n + 1):
                    minors = _row_minors(matrix, cut, i)
                    assert len(minors) == cut
                    for j in range(1, cut + 1):
                        rows = [s for s in range(1, cut + 1) if s != j] + [i]
                        expected = em.det_bareiss([matrix[s - 1][:cut] for s in rows])
                        assert minors[j - 1] == expected, (n, k, r, cut, i, j)


def test_draws_match_a_randint_reference():
    """rng.choice over the value range makes the draws randint makes: the
    same cell points and the same symplectic matrices (the symplectic cell
    points are held to randint by test_block_form_draws_the_pattern_point)."""
    for n, k, r in all_parameters(5):
        rng = random.Random(f"draws:{n}:{k}:{r}")
        reference = random.Random(f"draws:{n}:{k}:{r}")
        point = random_cell_point(n, k, r, rng)
        assert point == {pos: reference.randint(-CELL_POINT_BOUND, CELL_POINT_BOUND)
                         for pos in free_positions(n, k, r)}
        assert rng.getstate() == reference.getstate()
    bound = SYMPLECTIC_BOUND
    for n in range(1, 6):
        rng, reference = random.Random(n), random.Random(n)
        z = random_symplectic(n, rng)
        while True:
            a = [[reference.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            try:
                a_inv = em.inverse(a)
                break
            except ValueError:
                continue
        s1, s2 = em.zeros(n, n), em.zeros(n, n)
        for s in (s1, s2):
            for i in range(n):
                for j in range(i, n):
                    s[i][j] = s[j][i] = reference.randint(-bound, bound)
        j = em.antidiag(n)
        z1 = em.block2(em.identity(n), em.zeros(n, n), em.mat_mul(j, s1), em.identity(n))
        e = em.mat_mul(j, em.mat_mul(em.transpose(a_inv), j))
        z2 = em.block2(a, em.mat_mul(a, em.mat_mul(j, s2)), em.zeros(n, n), e)
        assert z == em.mat_mul(z1, z2), n
        assert [[type(x) for x in row] for row in z] == \
            [[type(x) for x in row] for row in em.mat_mul(z1, z2)], n
        assert rng.getstate() == reference.getstate()


def test_pattern_example_entry():
    pattern = opposite_cell_pattern(5, 2, 4)
    # coupled block: row 9 of E' = -J (A')^T J times column 3 of D2, where
    # E'[9][6] = -x(5, 2) vanishes with the bottom row of the first band
    entry = pattern.entry(9, 3)
    x = lambda i, j: ("x", i, j)
    assert entry.terms == {
        ((x(3, 2), 1), (x(8, 3), 1)): -1,
        ((x(4, 2), 1), (x(7, 3), 1)): -1,
    }
    # identity matrix is a member (all free coordinates zero)
    assert pattern.is_member(em.identity(10))
    # violating the zero band of the first column block breaks membership
    bad = em.identity(10)
    bad[4][0] = Fraction(1)  # row 5 of the first band must vanish
    assert not pattern.is_member(bad)


def test_pattern_membership_implies_symplectic():
    rng = random.Random(31)
    for n, k, r in all_parameters(5):
        m = random_symplectic_cell_point(n, k, r, rng).matrix()
        assert is_symplectic(m)
        assert opposite_cell_pattern(n, k, r).is_member(m)


def test_pattern_dimensions():
    # symplectic pattern dimension equals the cell dimension of the variety
    for n, k, r in all_parameters(5):
        pattern = opposite_cell_pattern(n, k, r)
        assert pattern.dimension() == desing_data(n, k, r).dim_y


def _fibre_slice_positions(n, k, r):
    """One position (i, j), i >= j, of each symmetric pair in the fibre
    slice: the trailing square of side n-(r-k)."""
    l = r - k
    return [(i, j) for i in range(l + 1, n + 1) for j in range(l + 1, i + 1)]


def test_product_identification_examples():
    n, k, r = 2, 1, 2
    zero = OppositeCellPoint(n, k, r, [[0]], [[0]]).matrix()
    sym, base = product_identification(n, k, r, zero)
    assert sym == em.zeros(2, 2)
    # one-parameter family: V_w is one-dimensional
    assert desing_data(2, 1, 2).fibre_dim == len(_fibre_slice_positions(2, 1, 2)) == 1
    rng = random.Random(13)
    for n, k, r in all_parameters(4):
        l = r - k
        for _ in range(25):
            point = random_symplectic_cell_point(n, k, r, rng)
            m = point.matrix()
            sym, base = product_identification(n, k, r, m)
            assert em.is_symmetric(sym)
            assert all(sym[i][j] == 0 for i in range(n) for j in range(n)
                       if min(i, j) < l), (n, k, r)
            back = product_identification_inverse(n, k, r, sym, base)
            assert back == point
            assert back.matrix() == m


def test_product_suite_assembles_each_point_twice(monkeypatch):
    """Once from the drawn blocks and once inside from_matrix; the round
    trip compares blocks, not matrices."""
    drawn, assembled = [], []
    real_draw, real_matrix = verify.random_symplectic_cell_point, OppositeCellPoint.matrix

    def draw(*args):
        drawn.append(real_draw(*args))
        return drawn[-1]

    def matrix(self):
        assembled.append(self)
        return real_matrix(self)

    monkeypatch.setattr(verify, "random_symplectic_cell_point", draw)
    monkeypatch.setattr(OppositeCellPoint, "matrix", matrix)
    assert verify.product_suite(seed=3, n_max=4, points_per_case=5).passed
    assert len(drawn) == 5 * len(all_parameters(4))
    assert Counter(assembled) == Counter(drawn * 2)


def test_cell_point_validation():
    with pytest.raises(ValueError):
        OppositeCellPoint(3, 1, 2, [[1], [1]], [[1, 0], [0, 1]])  # bottom row must vanish
    with pytest.raises(ValueError):
        OppositeCellPoint(3, 1, 2, [[1], [0]], [[1, 0], [0, 2]])  # J d2 not symmetric


def test_slices():
    assert desing_data(2, 1, 2).fibre_dim == 1
    assert desing_data(5, 2, 4).fibre_dim == 6
    assert desing_data(4, 3, 4).fibre_dim == 6
    assert desing_data(5, 2, 4).base_dim == 4  # = k(r-k), the free rows of A'


def test_fibre_dim_counts_the_slice():
    for n, k, r in all_parameters(8):
        l = r - k
        data = desing_data(n, k, r)
        assert data.fibre_dim == len(_fibre_slice_positions(n, k, r)), (n, k, r)
        # the base slice: rows l+1..r of the first band, zero below row r
        assert data.base_dim == len([(i, j) for i in range(l + 1, r + 1)
                                     for j in range(1, l + 1)]), (n, k, r)


def test_desing_data_examples():
    d = desing_data(2, 1, 2)
    assert (d.base_dim, d.fibre_dim, d.dim_y, d.codim) == (1, 1, 2, 1)
    d = desing_data(3, 1, 3)
    assert d.codim == 3
    # base is a projective space when k = r - 1
    d = desing_data(4, 3, 4)
    assert d.base_dim == 3 and d.codim == 1


def test_desing_dimensions_match_weyl_length():
    # the opposite cell has dimension equal to the Weyl-group length
    for n, k, r in all_parameters(6):
        data = desing_data(n, k, r)
        assert data.dim_y == length_C(family_element(n, k, r)), (n, k, r)
        assert data.dim_y + data.codim == n * (n + 1) // 2
        assert data.bundle_rank == n * (n + 1) // 2 - data.fibre_dim
        if r == n:
            c = n - k + 1
            assert data.codim == c * (c - 1) // 2


def test_fibre_slice_convention_flag():
    """The verbatim vanishing conditions for the fibre slice (zero when the
    column index is at most r-k or the row index is below n-(r-k), applied
    to symmetric pairs) agree with the implemented slice exactly when
    n <= 2(r-k) + 1. Beyond that they under-count; the implemented slice is
    the one whose dimension matches the Weyl-group length, so it wins.
    This test is the explicit flag for that convention choice."""
    for n, k, r in all_parameters(6):
        l = r - k
        q = n - l
        verbatim = sum(
            1
            for i in range(1, n + 1)
            for j in range(1, i + 1)
            if not (j <= l or i < q or i <= l or j < q)
        )
        implemented = len(_fibre_slice_positions(n, k, r))
        assert implemented == desing_data(n, k, r).fibre_dim
        assert implemented == length_C(family_element(n, k, r)) - k * l
        if n <= 2 * l + 1:
            assert verbatim == implemented, (n, k, r)
        else:
            assert verbatim < implemented, (n, k, r)


def test_minor_suite_rejects_miswired_product():
    """Teeth check: pairing the row tail of the first column band (instead
    of the band above the extra row) in the third closed form disagrees
    with the exact minor on generic points, so the identity suite would
    catch that miswiring."""
    rng = random.Random(99)
    n, k, r = 3, 1, 2
    l, mid, big = cell_cuts(n, k, r)
    disagreements = 0
    for _ in range(50):
        point = random_cell_point(n, k, r, rng)
        matrix = cell_matrix(n, k, r, point)
        for i in range(big + 1, 2 * n + 1):
            for j in range(l + 1, mid + 1):
                true_value = _row_minors(matrix, big, i)[j - 1]
                miswired = (-1) ** (big - j) * (
                    point.get((i, j), 0)
                    - sum(
                        point.get((i, l + s), 0) * point.get((n + s, j), 0)
                        for s in range(1, n - l + 1)
                    )
                )
                disagreements += miswired != true_value
    assert disagreements > 0


def test_opposite_cell_point_type():
    point = OppositeCellPoint(3, 1, 2, ((2,), (0,)), ((1, 2), (3, 1)))
    assert is_symplectic(point.matrix())
    back = OppositeCellPoint.from_matrix(3, 1, 2, point.matrix())
    assert back == point
    with pytest.raises(ValueError):
        OppositeCellPoint(3, 1, 2, ((2,), (1,)), ((1, 2), (3, 1)))


def test_product_identification_rejects_non_members():
    bad = em.identity(6)
    bad[3][0] = Fraction(1)  # breaks the unipotent cell shape
    with pytest.raises(ValueError):
        product_identification(3, 1, 2, bad)
    # the base slice: a nonzero entry of A' below row r
    rng = random.Random(47)
    for n, k, r in all_parameters(5):
        if r == n:
            continue
        bad = random_symplectic_cell_point(n, k, r, rng).matrix()
        bad[rng.randrange(r, n)][rng.randrange(r - k)] = rng.choice((-1, 1))
        with pytest.raises(ValueError, match="bottom rows of the first band must vanish"):
            product_identification(n, k, r, bad)


def _pattern_point(pattern, rng, bound=6):
    """Evaluate the symbolic pattern on draws in its free order."""
    values = {("x", i, j): rng.randint(-bound, bound) for (i, j) in pattern.free}
    m = em.identity(2 * pattern.n)
    for (i, j), poly in pattern.entries.items():
        m[i - 1][j - 1] = poly.evaluate(values)
    return m


def test_block_form_draws_the_pattern_point():
    rng = random.Random(41)
    for n, k, r in all_parameters(5):
        pattern = opposite_cell_pattern(n, k, r)
        for _ in range(5):
            clone = random.Random()
            clone.setstate(rng.getstate())
            m = random_symplectic_cell_point(n, k, r, rng).matrix()
            assert m == _pattern_point(pattern, clone), (n, k, r)
            assert rng.getstate() == clone.getstate()
            assert all(type(x) is int for row in m for x in row)


def test_from_matrix_accepts_exactly_the_pattern_members():
    rng = random.Random(43)

    def agree(n, k, r, pattern, m):
        try:
            OppositeCellPoint.from_matrix(n, k, r, m)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == pattern.is_member(m), (n, k, r, m)
        return accepted

    for n, k, r in all_parameters(5):
        pattern = opposite_cell_pattern(n, k, r)
        size = 2 * n
        m = random_symplectic_cell_point(n, k, r, rng).matrix()
        assert agree(n, k, r, pattern, m)
        rejected = 0
        for i in range(size):  # every entry, above, on and below the diagonal
            for j in range(size):
                bad = [list(row) for row in m]
                bad[i][j] += rng.choice((-2, -1, 1, 2))
                rejected += not agree(n, k, r, pattern, bad)
        assert rejected > size * size // 2
        for rows, cols in ((size - 1, size - 1), (size, size + 1), (size + 2, size), (0, 0)):
            wrong = [[int(a == b) for b in range(cols)] for a in range(rows)]
            assert not agree(n, k, r, pattern, wrong)
