import random
from fractions import Fraction

import pytest

from symsyz import exactmat as em
from symsyz.geometry import (
    BlockMatrix2n,
    NotInOppositeCellError,
    OppositeCellPoint,
    cell_cuts,
    cell_point_from_blocks,
    desing_data,
    free_positions,
    is_symplectic,
    opposite_cell_factor,
    opposite_cell_pattern,
    plucker_restriction,
    product_identification,
    product_identification_inverse,
    random_cell_point,
    random_symplectic_cell_point,
    sym_coordinates,
    symplectic_form,
    t_slice,
    v_prime_slice,
    v_slice,
)
from symsyz.verify import all_parameters, random_symplectic
from symsyz.weyl import family_element, length_C


def test_symplectic_form_shape():
    f = symplectic_form(3)
    ft = em.transpose(f)
    assert em.mat_eq(ft, em.mat_neg(f))
    em.inverse(f)  # invertible


def test_is_symplectic_identity_and_form():
    assert is_symplectic(BlockMatrix2n.from_matrix(em.identity(6)))
    # the form matrix itself preserves the form, with singular upper block
    f = symplectic_form(3)
    assert is_symplectic(BlockMatrix2n.from_matrix(f))


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
        z = BlockMatrix2n.from_blocks(a, em.zeros(n, n), em.zeros(n, n), e)
        assert is_symplectic(z)


def test_generic_matrix_is_not_symplectic():
    rng = random.Random(5)
    hits = 0
    for _ in range(20):
        m = [[rng.randint(-5, 5) for _ in range(6)] for _ in range(6)]
        hits += is_symplectic(BlockMatrix2n.from_matrix(m))
    assert hits == 0


def test_factorization_identity_and_errors():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice((2, 3, 4))
        z = random_symplectic(n, rng)
        z1, z2 = opposite_cell_factor(z)
        assert em.mat_eq(em.mat_mul(z1, z2), z.as_matrix())
        f = symplectic_form(n)
        assert em.mat_eq(em.mat_mul(em.transpose(z2), em.mat_mul(f, z2)), f)
        # z1 is lower unipotent with persymmetric corner
        sym = sym_coordinates(z1)
        assert em.is_symmetric(sym)
    ident = BlockMatrix2n.from_matrix(em.identity(4))
    z1, z2 = opposite_cell_factor(ident)
    assert em.mat_eq(z1, em.identity(4)) and em.mat_eq(z2, em.identity(4))
    with pytest.raises(NotInOppositeCellError):
        opposite_cell_factor(BlockMatrix2n.from_matrix(symplectic_form(2)))


def test_sym_coordinates_examples():
    z = em.identity(4)
    assert em.mat_eq(sym_coordinates(z), em.zeros(2, 2))
    y = em.from_rows([[5, 7], [2, 5]])  # persymmetric
    z = em.block2(em.identity(2), em.zeros(2, 2), y, em.identity(2))
    assert sym_coordinates(z) == em.from_rows([[2, 5], [5, 7]])
    bad = em.block2(em.identity(2), em.zeros(2, 2), em.from_rows([[1, 0], [0, 2]]), em.identity(2))
    with pytest.raises(ValueError):
        sym_coordinates(bad)


def test_free_positions_count():
    # positions strictly below the block diagonal at the three cuts
    n, k, r = 5, 2, 4
    l, mid, big = cell_cuts(n, k, r)
    count = 0
    for i in range(1, 11):
        for j in range(1, i):
            count += any(j <= c < i for c in (l, mid, big))
    assert len(free_positions(n, k, r)) == count


def test_plucker_zero_point():
    n, k, r = 5, 2, 4
    zero = {pos: 0 for pos in free_positions(n, k, r)}
    for i in range(r + 1, 2 * n + 1):
        for j in range(1, r - k + 1):
            value = plucker_restriction(n, k, r, i, j, zero)
            assert value.minor == 0


def test_plucker_identities_random():
    rng = random.Random(2024)
    for n, k, r in all_parameters(4):
        l, mid, big = cell_cuts(n, k, r)
        for _ in range(20):
            point = random_cell_point(n, k, r, rng)
            for i in range(r + 1, 2 * n + 1):
                for j in range(1, l + 1):
                    p = plucker_restriction(n, k, r, i, j, point, cross_check=True)
                    sign = (-1) ** (l - j)
                    assert p.closed_form == sign * point[(i, j)]
            for i in range(big + 1, 2 * n + 1):
                for j in range(mid + 1, big + 1):
                    plucker_restriction(n, k, r, i, j, point, cross_check=True)
                for j in range(l + 1, mid + 1):
                    plucker_restriction(n, k, r, i, j, point, cross_check=True)


def test_plucker_rejects_outside_range():
    point = {pos: 1 for pos in free_positions(3, 1, 2)}
    with pytest.raises(ValueError):
        plucker_restriction(3, 1, 2, 2, 1, point)


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
        m = random_symplectic_cell_point(n, k, r, rng)
        assert is_symplectic(BlockMatrix2n.from_matrix(m))
        assert opposite_cell_pattern(n, k, r).is_member(m)


def test_pattern_dimensions():
    # symplectic pattern dimension equals the cell dimension of the variety
    for n, k, r in all_parameters(5):
        pattern = opposite_cell_pattern(n, k, r)
        assert pattern.dimension() == desing_data(n, k, r).dim_y


def test_product_identification_examples():
    n, k, r = 2, 1, 2
    zero = cell_point_from_blocks(n, k, r, [[0]], [[0]])
    sym, base = product_identification(n, k, r, zero)
    assert em.mat_eq(sym, em.zeros(2, 2))
    # one-parameter family: V_w is one-dimensional
    assert v_slice(2, 1, 2).dimension() == 1
    rng = random.Random(13)
    for n, k, r in all_parameters(4):
        for _ in range(25):
            m = random_symplectic_cell_point(n, k, r, rng)
            sym, base = product_identification(n, k, r, m)
            assert v_slice(n, k, r).contains(sym)
            back = product_identification_inverse(n, k, r, sym, base)
            assert em.mat_eq(back, em.from_rows(m))


def test_cell_point_validation():
    with pytest.raises(ValueError):
        cell_point_from_blocks(3, 1, 2, [[1], [1]], [[1, 0], [0, 1]])  # bottom row must vanish
    with pytest.raises(ValueError):
        cell_point_from_blocks(3, 1, 2, [[1], [0]], [[1, 0], [0, 2]])  # J d2 not symmetric


def test_slices():
    assert v_slice(2, 1, 2).dimension() == 1
    assert v_slice(5, 2, 4).dimension() == 6
    assert v_slice(4, 3, 4).dimension() == 6
    assert v_prime_slice(5, 2, 4).dimension() == 4  # = k(r-k), the base dimension
    assert t_slice(3, 1).dimension() == 3
    assert t_slice(3, 0).dimension() == 0
    # complement of the enlarged slice has the stated dimension
    for n in range(2, 7):
        for u in range(0, n // 2 + 1):
            dim = t_slice(n, u).dimension()
            assert n * (n + 1) // 2 - dim == (n - u) * (n - u + 1) // 2


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
        implemented = v_slice(n, k, r).dimension()
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
        for i in range(big + 1, 2 * n + 1):
            for j in range(l + 1, mid + 1):
                true_value = plucker_restriction(n, k, r, i, j, point).minor
                miswired = (-1) ** (big - j) * (
                    Fraction(point.get((i, j), 0))
                    - sum(
                        Fraction(point.get((i, l + s), 0))
                        * Fraction(point.get((n + s, j), 0))
                        for s in range(1, n - l + 1)
                    )
                )
                disagreements += miswired != true_value
    assert disagreements > 0


def test_opposite_cell_point_type():
    point = OppositeCellPoint(3, 1, 2, ((2,), (0,)), ((1, 2), (3, 1)))
    assert is_symplectic(BlockMatrix2n.from_matrix(point.matrix()))
    back = OppositeCellPoint.from_matrix(3, 1, 2, point.matrix())
    assert back == point
    with pytest.raises(ValueError):
        OppositeCellPoint(3, 1, 2, ((2,), (1,)), ((1, 2), (3, 1)))


def test_product_identification_rejects_non_members():
    bad = em.identity(6)
    bad[3][0] = Fraction(1)  # breaks the unipotent cell shape
    with pytest.raises(ValueError):
        product_identification(3, 1, 2, bad)


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
            m = random_symplectic_cell_point(n, k, r, rng)
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
        m = random_symplectic_cell_point(n, k, r, rng)
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
