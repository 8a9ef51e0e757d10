from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from symsyz import resolution
from symsyz.bott import (
    QDominantWeight,
    bott,
    bundle_cohomology,
)
from symsyz.partitions import weyl_dim
from symsyz.resolution import enlarged_space_table

from oracles import bott_by_exchange, bott_by_rho, exchange, line_bundle_cohomology


def weight_st():
    def build(draw):
        n = draw(st.integers(2, 12))
        m = draw(st.integers(1, n - 1))
        first = draw(
            st.lists(st.integers(-10, 10), min_size=m, max_size=m).map(
                lambda xs: tuple(sorted(xs, reverse=True))
            )
        )
        second = draw(
            st.lists(st.integers(-10, 10), min_size=n - m, max_size=n - m).map(
                lambda xs: tuple(sorted(xs, reverse=True))
            )
        )
        return QDominantWeight(n, m, first + second)

    return st.composite(build)()


def assert_agrees(answer, expected):
    """`expected` is an oracle's None or (degree, label)."""
    if expected is None:
        assert answer.zero
    else:
        assert (answer.degree, answer.label) == expected


def test_exchange_examples():
    assert exchange((0, 2), 1) == (1, 1)
    assert exchange((0, 1), 1) == (0, 1)
    assert exchange((3, 0, 0), 2) == (3, -1, 1)
    with pytest.raises(ValueError):
        exchange((1, 2), 2)


def test_weight_validation():
    with pytest.raises(ValueError):
        QDominantWeight(3, 1, (0, 1, 2))
    with pytest.raises(ValueError):
        QDominantWeight(3, 3, (3, 2, 1))
    QDominantWeight(3, 1, (5, 2, 0))


def test_bott_examples():
    assert bott(QDominantWeight(2, 1, (0, 0))).label == (0, 0)
    assert bott(QDominantWeight(2, 1, (0, 0))).degree == 0
    assert bott(QDominantWeight(2, 1, (1, 0))).zero
    answer = bott(QDominantWeight(2, 1, (2, 0)))
    assert (answer.degree, answer.label, answer.dimension) == (1, (1, 1), 1)


def test_bott_projective_line_oracle():
    # the weight (0, d) with cut 1 carries the degree-d line bundle
    for d in range(-6, 7):
        expected = line_bundle_cohomology(d)
        answer = bott(QDominantWeight(2, 1, (0, d)))
        if not expected:
            assert answer.zero
        else:
            (degree, dim), = expected.items()
            assert not answer.zero
            assert (answer.degree, answer.dimension) == (degree, dim)


def test_bott_euler_characteristic():
    for d in range(-6, 7):
        answer = bott(QDominantWeight(2, 1, (0, d)))
        chi = 0 if answer.zero else (-1) ** answer.degree * answer.dimension
        assert chi == d + 1


@settings(max_examples=400)
@given(weight_st())
def test_bott_matches_rho_oracle(w):
    answer = bott(w)
    assert_agrees(answer, bott_by_rho(w.entries, w.m))
    assert_agrees(answer, bott_by_exchange(w.entries, w.m))


def test_enlarged_summands_match_exchange_oracle(monkeypatch):
    # every summand weight the enlarged base checks with bott, one per member
    # of the closed-form walk, for each even k with n <= 12
    weights = []
    monkeypatch.setattr(resolution, "bott", lambda w: weights.append(w) or bott(w))
    for n in range(3, 13):
        for k in range(2, n, 2):
            enlarged_space_table(n, k, n)
    assert len(weights) == sum(2 ** (n - k + 1) for n in range(3, 13) for k in range(2, n, 2))
    for w in weights:
        assert_agrees(bott(w), bott_by_exchange(w.entries, w.m))
        # built without the constructor's check, yet one it accepts unchanged
        assert type(w) is QDominantWeight and QDominantWeight(w.n, w.m, w.entries) == w


@settings(max_examples=200)
@given(weight_st(), st.integers(-4, 4))
def test_bott_twist_equivariance(w, c):
    shifted = QDominantWeight(w.n, w.m, tuple(x + c for x in w.entries))
    a, b = bott(w), bott(shifted)
    if a.zero:
        assert b.zero
    else:
        assert b.degree == a.degree
        assert b.label == tuple(x + c for x in a.label)


def test_nonincreasing_weight_lands_in_degree_zero():
    # block swap of (3,1 | 5,3) is already nonincreasing
    answer = bott(QDominantWeight(4, 2, (3, 1, 5, 3)))
    assert not answer.zero
    assert (answer.degree, answer.label) == (0, (5, 3, 3, 1))
    assert answer.dimension == weyl_dim((5, 3, 3, 1))


def test_bundle_cohomology_empty_and_trivial():
    assert bundle_cohomology([], 3, 1) == {}
    out = bundle_cohomology([()], 3, 1)
    assert out == {0: [(0, 0, 0)]}


def test_bundle_cohomology_forced_hypersurface_class():
    # the rank-two case: the top exterior power of the syzygy bundle over
    # the projective line must contribute exactly one class in degree one
    answer = bott(QDominantWeight(2, 1, (3, 1)))
    assert not answer.zero and answer.degree == 1
    assert answer.dimension == 1


def test_bundle_cohomology_rejects_long_label():
    # a label is padded with zeros to n entries, so it has at most m parts
    expected = bott(QDominantWeight(4, 3, (2, 1, 0, 0)))
    assert bundle_cohomology([(2, 1)], 4, 3) == {expected.degree: [expected.label]}
    with pytest.raises(ValueError):
        bundle_cohomology([(1, 1)], 3, 1)


def test_bott_projective_space_sections():
    # on the Grassmannian of hyperplane-complements, twists of the dual
    # tautological line have polynomial spaces of sections
    for n in range(2, 6):
        for d in range(5):
            answer = bott(QDominantWeight(n, n - 1, (0,) * (n - 1) + (d,)))
            assert (answer.degree, answer.dimension) == (0, comb(n + d - 1, d))


def test_bott_serre_duality_on_projective_space():
    # H^{n-1} of the (-n-d)-twist is dual to H^0 of the d-twist
    for n in range(2, 6):
        for d in range(5):
            answer = bott(QDominantWeight(n, n - 1, (0,) * (n - 1) + (-n - d,)))
            assert not answer.zero
            assert answer.degree == n - 1
            assert answer.dimension == comb(n + d - 1, d)
        for gap in range(1, n):
            # the twists strictly between 0 and -n have no cohomology at all
            assert bott(QDominantWeight(n, n - 1, (0,) * (n - 1) + (-gap,))).zero
