"""Differential checks of the exact matrix toolkit against plain Fraction
arithmetic, and of its promise that integer inputs stay plain ints."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from symsyz import exactmat as em

from oracles import fraction_inverse


def _random_matrix(rng, rows, cols, rational):
    if rational:
        return [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(cols)]
                for _ in range(rows)]
    return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]


def _naive_mul(a, b):
    return [[sum((Fraction(a[i][s]) * b[s][j] for s in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def _naive_det(m):
    """Leibniz sum over permutations."""
    n = len(m)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction((-1) ** inversions)
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


@pytest.mark.parametrize("rational", [False, True])
def test_mat_mul_against_fraction_arithmetic(rational):
    rng = random.Random(f"mul:{rational}")
    for _ in range(200):
        rows, inner, cols = (rng.randint(1, 5) for _ in range(3))
        a = _random_matrix(rng, rows, inner, rational)
        b = _random_matrix(rng, inner, cols, rational and rng.random() < 0.5)
        assert em.mat_mul(a, b) == _naive_mul(a, b)
    with pytest.raises(ValueError):
        em.mat_mul([[1, 2]], [[1, 2]])


@pytest.mark.parametrize("rational", [False, True])
def test_mat_mul_equals_against_fraction_arithmetic(rational):
    # the true product, a copy with one entry moved, and a wrong shape
    rng = random.Random(f"mul_equals:{rational}")
    for _ in range(200):
        rows, inner, cols = (rng.randint(1, 5) for _ in range(3))
        a = _random_matrix(rng, rows, inner, rational)
        b = _random_matrix(rng, inner, cols, rational and rng.random() < 0.5)
        product = _naive_mul(a, b)
        assert em.mat_mul_equals(a, b, product)
        moved = [list(row) for row in product]
        moved[rng.randrange(rows)][rng.randrange(cols)] += rng.choice((1, -1, Fraction(1, 7)))
        assert not em.mat_mul_equals(a, b, moved)
        assert not em.mat_mul_equals(a, b, [row + [0] for row in product])
        assert not em.mat_mul_equals(a, b, product[:-1])
    with pytest.raises(ValueError):
        em.mat_mul_equals([[1, 2]], [[1, 2]], [[1, 2]])


@pytest.mark.parametrize("rational", [False, True])
def test_det_bareiss_against_leibniz(rational):
    rng = random.Random(f"det:{rational}")
    for _ in range(200):
        n = rng.randint(1, 5)
        m = _random_matrix(rng, n, n, rational)
        if rng.random() < 0.2:  # a repeated row makes it singular
            m[-1] = list(m[0])
        if rng.random() < 0.3:  # a zero pivot forces a row swap
            m[0][0] = 0
        before = [list(row) for row in m]
        assert em.det_bareiss(m) == _naive_det(m)
        assert m == before  # the elimination works on a copy
    assert em.det_bareiss([]) == 1


@pytest.mark.parametrize("rational", [False, True])
def test_inverse_against_fraction_arithmetic(rational):
    rng = random.Random(f"inv:{rational}")
    checked = singular = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        m = _random_matrix(rng, n, n, rational)
        if rng.random() < 0.15:  # a repeated row makes it singular
            m[-1] = list(m[0])
        if rng.random() < 0.3:  # a zero pivot forces a row swap
            m[0][0] = 0
        before = [list(row) for row in m]
        try:
            expected = fraction_inverse(m)
        except ValueError:  # singular
            with pytest.raises(ValueError):
                em.inverse(m)
            singular += 1
            continue
        inv = em.inverse(m)
        assert m == before  # the elimination works on a copy
        assert inv == expected
        # integral entries are plain ints, the rest Fractions
        assert all(type(x) is (int if x.denominator == 1 else Fraction)
                   for row in inv for x in row)
        assert _naive_mul(m, inv) == em.identity(n)
        checked += 1
    assert checked > 250 and singular > 20
    with pytest.raises(ValueError):
        em.inverse([[1, 2], [2, 4]])
    assert em.inverse([]) == []
    unimodular = [[2, 3], [1, 2]]
    assert em.inverse(unimodular) == [[2, -3], [-1, 2]]
    assert all(type(x) is int for row in em.inverse(unimodular) for x in row)


def test_inverse_raises_on_an_inexact_step(monkeypatch):
    # every Bareiss step divides exactly; a remainder is an arithmetic fault,
    # and must not read as ValueError, which callers take for "singular"
    assert issubclass(em.InexactElimination, ArithmeticError)
    assert not issubclass(em.InexactElimination, ValueError)

    monkeypatch.setattr(em, "divmod", lambda a, b: (a // b, a % b + 1), raising=False)
    with pytest.raises(em.InexactElimination):
        em.inverse([[2, 1, 0], [1, 3, 1], [0, 1, 4]])


def test_integer_inputs_stay_int():
    rows = [[3, -1, 0], [2, 5, -7], [0, 1, 4]]
    m = em.from_rows(rows)
    assert m == rows and m[0] is not rows[0]  # a copy, not a view
    product = em.mat_mul(m, em.antidiag(3))
    for matrix in (m, em.identity(3), em.zeros(2, 3), em.antidiag(3), product):
        assert all(type(x) is int for row in matrix for x in row)
    assert type(em.det_bareiss(m)) is int
    # a rational product whose entries happen to be integers comes back as ints
    half = [[Fraction(1, 2), Fraction(3, 2)], [Fraction(5, 2), Fraction(1, 2)]]
    evens = em.mat_mul(half, [[2, 4], [6, 8]])
    assert evens == [[10, 14], [8, 14]]
    assert all(type(x) is int for row in evens for x in row)
    assert em.mat_mul(half, [[1, 0], [0, 1]])[0][0] == Fraction(1, 2)
