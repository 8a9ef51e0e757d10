import pytest

from symsyz.weyl import (
    ParabolicMarker,
    PermutationWordError,
    WeylElementC,
    avoids_patterns,
    bruhat_leq,
    bruhat_leq_grassmannian,
    family_element,
    h_side_cuts,
    length_A,
    length_C,
    m_value,
    sort_blocks,
    tangent_dim_at_id_A,
    tangent_dim_at_id_C,
    w_max_rep,
    w_tilde_min_rep,
)

from oracles import reduced_word_lengths


def all_params(n_max):
    return [
        (n, k, r)
        for n in range(2, n_max + 1)
        for r in range(2, n + 1)
        for k in range(1, r)
    ]


def random_weyl_c(n, rng):
    values = list(range(1, 2 * n + 1))
    half = []
    for _ in range(n):
        a = rng.choice(values)
        half.append(a)
        values.remove(a)
        values.remove(2 * n + 1 - a)
    return WeylElementC(n, tuple(half))


def test_length_A_examples():
    assert length_A((1, 2, 3, 4)) == 0
    assert length_A((4, 2, 3, 1)) == 5
    assert length_A((2, 1)) == 1


def test_length_A_matches_reduced_words():
    table = reduced_word_lengths(4)
    for word, expected in table.items():
        assert length_A(word) == expected


def test_m_value_examples():
    assert m_value(WeylElementC(3, (1, 2, 3))) == 0
    assert m_value(WeylElementC(2, (4, 2))) == 1
    assert m_value(family_element(5, 2, 4)) == 3


def test_length_C_examples():
    assert length_C(WeylElementC(2, (1, 2))) == 0
    assert length_C(WeylElementC(2, (4, 2))) == 3
    # simple reflections below the last one have length one
    for n in (2, 3, 4):
        for i in range(1, n):
            half = list(range(1, n + 1))
            half[i - 1], half[i] = half[i], half[i - 1]
            assert length_C(WeylElementC(n, tuple(half))) == 1


def test_length_parity_random():
    import random

    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 6)
        w = random_weyl_c(n, rng)
        total = length_A(w.full_word()) + m_value(w)
        assert total % 2 == 0
        assert length_C(w) == total // 2


def test_weyl_element_validation():
    with pytest.raises(ValueError):
        WeylElementC(2, (1, 4))  # 1 and 4 are mirrors
    with pytest.raises(ValueError):
        WeylElementC(2, (1, 1))
    with pytest.raises(ValueError):
        WeylElementC(2, (5, 2))


def test_family_element_examples():
    assert family_element(5, 2, 4).half_word == (3, 4, 6, 9, 10)
    assert family_element(2, 1, 2).half_word == (2, 4)
    assert family_element(3, 1, 2).half_word == (2, 4, 6)
    with pytest.raises(ValueError):
        family_element(3, 2, 2)


def test_w_tilde_examples():
    w = family_element(5, 2, 4)
    tilde = w_tilde_min_rep(w, ParabolicMarker((2, 5)))
    assert tilde.full_word() == (3, 4, 6, 9, 10, 1, 2, 5, 7, 8)
    ident = WeylElementC(3, (1, 2, 3))
    assert w_tilde_min_rep(ident, ParabolicMarker((1, 3))).full_word() == tuple(range(1, 7))


def test_w_max_examples():
    assert w_max_rep(2, 1, 2) == (2, 4, 1, 3)
    assert w_max_rep(5, 2, 4)[:4] == (4, 3, 10, 9)


def test_w_max_block_sort_recovers_w_tilde():
    for n, k, r in all_params(6):
        marker = ParabolicMarker((r - k, n))
        cuts = h_side_cuts(marker, n)
        tilde = w_tilde_min_rep(family_element(n, k, r), marker)
        assert sort_blocks(w_max_rep(n, k, r), cuts) == tilde.full_word()


def test_avoids_patterns_examples():
    assert avoids_patterns((1, 2, 3, 4), [(4, 2, 3, 1), (3, 1, 4, 2)])
    assert not avoids_patterns((4, 2, 3, 1), [(4, 2, 3, 1)])
    assert avoids_patterns(w_max_rep(5, 2, 4), [(4, 2, 3, 1), (3, 1, 4, 2)])


def test_w_max_always_avoids():
    for n, k, r in all_params(6):
        assert avoids_patterns(w_max_rep(n, k, r), [(4, 2, 3, 1), (3, 1, 4, 2)])


def test_bruhat_grassmannian_examples():
    assert bruhat_leq_grassmannian((1, 2), (3, 4))
    assert not bruhat_leq_grassmannian((2, 3), (1, 4))
    with pytest.raises(ValueError):
        bruhat_leq_grassmannian((1,), (1, 2))


def test_bruhat_full_small():
    # on S_3 the Bruhat order is the reflection order; spot-check all pairs
    assert bruhat_leq((1, 2, 3), (3, 2, 1))
    assert bruhat_leq((2, 1, 3), (3, 1, 2))
    assert not bruhat_leq((3, 1, 2), (2, 3, 1))
    assert not bruhat_leq((2, 3, 1), (3, 1, 2))


def test_tangent_dim_type_a_examples():
    assert tangent_dim_at_id_A((2, 1)) == 1
    ident = tuple(range(1, 5))
    assert tangent_dim_at_id_A(ident) == 0
    # the longest element is smooth: tangent dimension equals length
    w0 = (4, 3, 2, 1)
    assert tangent_dim_at_id_A(w0) == length_A(w0)


def test_tangent_dim_type_c_identity():
    assert tangent_dim_at_id_C(WeylElementC(3, (1, 2, 3))) == 0


def test_w_max_smoothness_all_params():
    for n, k, r in all_params(6):
        wmax = WeylElementC.from_full_word(w_max_rep(n, k, r))
        assert tangent_dim_at_id_C(wmax) == length_C(wmax), (n, k, r)


def test_type_a_singular_case_detected():
    # the 4231 pattern itself is singular at the identity in the full flag
    word = (4, 2, 3, 1)
    assert tangent_dim_at_id_A(word) > length_A(word)


def test_reflection_vanishing_criterion_at_first_cut():
    # at the first cut, the reflection coset {1..l}\{j} + {i} drops below
    # the distinguished coset (k+1..r) exactly when i exceeds r
    for n, k, r in all_params(6):
        l = r - k
        target = tuple(range(k + 1, r + 1))
        for j in range(1, l + 1):
            for i in range(l + 1, 2 * n + 1):
                prefix = sorted(set(range(1, l + 1)) - {j} | {i})
                assert bruhat_leq_grassmannian(prefix, target) == (i <= r), (n, k, r, i, j)


def test_w_tilde_small_symplectic_case():
    # block-sorting oracle on the (2,4) element of the rank-two group
    w = WeylElementC(2, (2, 4))
    tilde = w_tilde_min_rep(w, ParabolicMarker((1, 2)))
    full = w.full_word()
    expected = tuple(sorted(full[:1]) + sorted(full[1:2]) + sorted(full[2:3]) + sorted(full[3:]))
    assert tilde.full_word() == expected == (2, 4, 1, 3)


def test_full_word_checks_it_is_a_permutation():
    w = WeylElementC(2, (1, 3))
    assert w.full_word() == (1, 3, 2, 4)
    w = WeylElementC._make((2, (1, 1)))  # a state the constructor refuses; _make skips it
    with pytest.raises(PermutationWordError):
        w.full_word()
