"""Differential tests of the polynomial layer: the memoized determinant
against the permutation sum, the product by one variable against the general
product, the echelon span rank against a rescanning elimination over Q, and
the minor generators against the oracle minors and against one determinant
per minor."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from symsyz.polynomials import Poly, poly_det, span_rank_and_basis
from symsyz.resolution import generic_symmetric_entry, minor_generators

from oracles import PRIME, _perm_sign, _rref_mod_p, span_rank_by_scan, symmetric_minor_polys

VARIABLES = ("a", "b", "c", "d")


def random_coefficient(rng: random.Random, rational: bool):
    if rational and rng.random() < 0.5:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return rng.randint(-5, 5)


def random_poly(rng: random.Random, rational: bool, max_terms: int = 3) -> Poly:
    total = Poly.zero()
    for _ in range(rng.randint(0, max_terms)):
        term = Poly.const(random_coefficient(rng, rational))
        for _ in range(rng.randint(0, 2)):
            term = term * Poly.var(rng.choice(VARIABLES))
        total = total + term
    return total


def leibniz_det(rows: list[list[Poly]]) -> Poly:
    total = Poly.zero()
    for perm in itertools.permutations(range(len(rows))):
        term = Poly.const(_perm_sign(perm))
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def fraction_det(rows: list[list]) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            factor = m[r][c] / m[c][c]
            m[r] = [x - factor * y for x, y in zip(m[r], m[c])]
    return det


@pytest.mark.parametrize("rational", [False, True])
def test_poly_det_against_permutation_sum(rational):
    rng = random.Random(f"poly_det:{rational}")
    for size in range(6):
        for _ in range(12 if size < 5 else 3):
            rows = [[random_poly(rng, rational) for _ in range(size)] for _ in range(size)]
            det = poly_det(rows)
            assert det == leibniz_det(rows)
            # and at a rational point, against elimination on the values
            point = {v: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for v in VARIABLES}
            values = [[entry.evaluate(point) for entry in row] for row in rows]
            assert det.evaluate(point) == fraction_det(values)
    assert poly_det([]) == Poly.const(1)
    with pytest.raises(ValueError):
        poly_det([[Poly.var("a"), Poly.zero()]])


def test_poly_coefficients_stay_integers():
    x, y = Poly.var("x"), Poly.var("y")
    product = (x + Poly.const(2)) * (x - y) - Poly.const(3) * y
    assert all(type(c) is int for c in product.terms.values())
    assert repr(product) == "-5*y + 1*x^2 + -1*x*y + 2*x"  # monomials in reverse tuple order
    assert product.evaluate({"x": 1, "y": Fraction(1, 3)}) == Fraction(1)
    half = Poly.const(Fraction(1, 2)) * x
    assert half.terms == {(("x", 1),): Fraction(1, 2)} and repr(half) == "1/2*x"


def general_product(a: Poly, b: Poly) -> dict:
    """The product's terms by the textbook double loop: exponents added,
    variables sorted by repr, coefficients summed, zeros dropped."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            m = tuple(sorted(exps.items(), key=lambda pair: repr(pair[0])))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


@pytest.mark.parametrize("rational", [False, True])
def test_single_variable_product_against_general_product(rational):
    """Products by c*v, with v first ("a"), in the middle ("c"), last ("e")
    or already present ("b", "d"), in both operand orders."""
    rng = random.Random(f"times_variable:{rational}")
    for _ in range(40):
        p = Poly.zero()
        for _ in range(rng.randint(0, 4)):
            term = Poly.const(random_coefficient(rng, rational))
            for _ in range(rng.randint(0, 3)):
                term = term * Poly.var(rng.choice(("b", "d")))
            p = p + term
        for v in ("a", "b", "c", "d", "e"):
            factor = Poly({((v, 1),): random_coefficient(rng, rational) or 1})
            for left, right in ((p, factor), (factor, p)):
                product = left * right
                assert list(product.terms.items()) == list(general_product(left, right).items())
                if not rational:
                    assert all(type(c) is int for c in product.terms.values())


@pytest.mark.parametrize("rational", [False, True])
def test_negation_and_variable_products_take_their_terms_uncopied(rational):
    """Negation and products by c*v keep the terms they build as they are:
    those equal the general product's and the negated coefficients, with no
    zero coefficient to filter."""
    rng = random.Random(f"uncopied:{rational}")
    for _ in range(40):
        p = random_poly(rng, rational, max_terms=4)
        negated = -p
        assert negated.terms == {m: -c for m, c in p.terms.items()}
        assert negated == Poly.const(-1) * p and -negated == p
        for v in ("a", "c", "e"):
            factor = Poly({((v, 1),): random_coefficient(rng, rational) or 1})
            product = p * factor
            assert product.terms == general_product(p, factor)
            assert all(c != 0 for c in product.terms.values()) and all(
                c != 0 for c in negated.terms.values())
    terms = {(("a", 1),): 2}
    assert Poly._wrap(terms).terms is terms


def planted_span(rng: random.Random, count: int) -> list[Poly]:
    """Random polynomials, about a third of them rational combinations of
    earlier ones, with rational coefficients throughout."""
    polys: list[Poly] = []
    for _ in range(count):
        if len(polys) >= 2 and rng.random() < 0.35:
            combo = Poly.zero()
            for p in rng.sample(polys, rng.randint(1, min(3, len(polys)))):
                combo = combo + Poly.const(random_coefficient(rng, True)) * p
            polys.append(combo)
        else:
            polys.append(random_poly(rng, rational=True, max_terms=4))
    return polys


def test_span_rank_against_scan_elimination():
    rng = random.Random("span")
    for trial in range(60):
        polys = planted_span(rng, rng.randint(0, 14))
        rank, basis = span_rank_and_basis(polys)
        expected_rank, kept = span_rank_by_scan([p.terms for p in polys])
        assert rank == expected_rank == len(basis)
        assert [id(p) for p in basis] == [id(polys[i]) for i in kept]


def _oracle_vector(poly: Poly, n: int) -> dict[tuple[int, ...], int]:
    """A generator in the oracle's coordinates: exponent vectors over the
    variables x_ij, i <= j, in row-major order."""
    index = {(i, j): t for t, (i, j) in enumerate(
        (i, j) for i in range(1, n + 1) for j in range(i, n + 1))}
    out = {}
    for monomial, c in poly.terms.items():
        exps = [0] * len(index)
        for (_, i, j), e in monomial:
            exps[index[(i, j)]] += e
        out[tuple(exps)] = c
    return out


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7) for k in range(1, n)]
                         + [(7, 2), (7, 3)])
def test_minor_generators_are_independent_oracle_minors(n, k):
    gens = [_oracle_vector(g, n) for g in minor_generators(n, k)]
    minors = {tuple(sorted(m.items())) for m in symmetric_minor_polys(n, k + 1)}
    for g in gens:
        negated = {m: -c for m, c in g.items()}
        assert tuple(sorted(g.items())) in minors or tuple(sorted(negated.items())) in minors
    columns = sorted({m for g in gens for m in g})
    position = {m: t for t, m in enumerate(columns)}
    mat = np.zeros((len(gens), len(columns)), dtype=np.int64)
    for row, g in enumerate(gens):
        for m, c in g.items():
            mat[row, position[m]] = c
    _, pivots = _rref_mod_p(mat, PRIME)
    assert len(pivots) == len(gens)


def minor_generators_one_det_per_minor(n: int, k: int) -> list[Poly]:
    """The minor generators with a separate `poly_det` for every minor."""
    subsets = list(itertools.combinations(range(1, n + 1), k + 1))
    seen, minors = set(), []
    for start, rows in enumerate(subsets):
        for cols in subsets[start:]:
            det = poly_det([[generic_symmetric_entry(i, j) for j in cols] for i in rows]).sign_canonical()
            if det and det not in seen:
                seen.add(det)
                minors.append(det)
    return span_rank_and_basis(minors)[1]


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7) for k in range(1, n)] + [(7, 2)])
def test_minor_generators_match_one_det_per_minor(n, k):
    # equal term dicts; their insertion order may differ, which nothing reads
    expected = minor_generators_one_det_per_minor(n, k)
    assert [g.terms for g in minor_generators(n, k)] == [g.terms for g in expected]


def test_minor_generators_expand_each_sub_minor_once(monkeypatch):
    """At (7, 3) the 4,130 products are one per entry of each distinct
    sub-minor up to transpose; separate determinants make 20,160."""
    products = 0
    general = Poly.__mul__

    def counting(a, b):
        nonlocal products
        products += 1
        return general(a, b)

    monkeypatch.setattr(Poly, "__mul__", counting)
    minor_generators(7, 3)
    assert products <= 4130


def test_evaluate_keeps_integer_values_int():
    x, y = Poly.var("x"), Poly.var("y")
    p = x * x * y - Poly.const(3) * y + Poly.const(2)
    value = p.evaluate({"x": 2, "y": -5})
    assert type(value) is int and value == -3
    assert type(Poly.zero().evaluate({})) is int
    assert p.evaluate({"x": Fraction(1, 2), "y": 2}) == Fraction(-7, 2)
