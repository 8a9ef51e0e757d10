import itertools
import math
import random

import pytest

from symsyz.weyl import (
    _transpositions_below,
    avoids_patterns,
    cell_cuts,
    check_type_c_word,
    family_element,
    length_A,
    length_C,
    m_value,
    tangent_dim_at_id_C,
    w_max_rep,
    w_tilde_min_rep,
)

from oracles import (
    avoids_patterns_by_scan,
    bruhat_leq,
    bruhat_leq_grassmannian,
    reduced_word_lengths,
    transposition,
)

PATTERNS = [(4, 2, 3, 1), (3, 1, 4, 2)]  # the pair avoids_patterns tests


def all_params(n_max):
    return [
        (n, k, r)
        for n in range(2, n_max + 1)
        for r in range(2, n + 1)
        for k in range(1, r)
    ]


def _mirror_closed(half, n):
    # the type-C word whose first half is `half`
    return tuple(half) + tuple(2 * n + 1 - a for a in reversed(half))


def random_weyl_c(n, rng):
    values = list(range(1, 2 * n + 1))
    half = []
    for _ in range(n):
        a = rng.choice(values)
        half.append(a)
        values.remove(a)
        values.remove(2 * n + 1 - a)
    return _mirror_closed(half, n)


def type_c_words(n):
    """Every element of W_C(n) as a word: a first half of n letters of 1..2n
    holding no letter together with its mirror."""
    for half in itertools.permutations(range(1, 2 * n + 1), n):
        if not any(2 * n + 1 - a in half for a in half):
            yield _mirror_closed(half, n)


def test_length_A_examples():
    assert length_A((1, 2, 3, 4)) == 0
    assert length_A((4, 2, 3, 1)) == 5
    assert length_A((2, 1)) == 1


def test_length_A_matches_reduced_words():
    table = reduced_word_lengths(4)
    for word, expected in table.items():
        assert length_A(word) == expected


def test_m_value_examples():
    assert m_value((1, 2, 3, 4, 5, 6)) == 0
    assert m_value((4, 2, 3, 1)) == 1
    assert m_value(family_element(5, 2, 4)) == 3


def test_length_C_examples():
    assert length_C((1, 2, 3, 4)) == 0
    assert length_C((4, 2, 3, 1)) == 3
    # simple reflections below the last one have length one
    for n in (2, 3, 4):
        for i in range(1, n):
            half = list(range(1, n + 1))
            half[i - 1], half[i] = half[i], half[i - 1]
            assert length_C(_mirror_closed(half, n)) == 1


def test_length_parity_random():
    import random

    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 6)
        w = random_weyl_c(n, rng)
        total = length_A(w) + m_value(w)
        assert total % 2 == 0
        assert length_C(w) == total // 2


def test_weyl_element_validation():
    assert check_type_c_word([2, 4, 1, 3]) == (2, 4, 1, 3)
    assert check_type_c_word(()) == ()
    with pytest.raises(ValueError, match="even length"):
        check_type_c_word((1, 2, 3))
    with pytest.raises(ValueError, match="not a permutation"):
        check_type_c_word((1, 4, 1, 4))  # the letters 1 and 4 are mirrors
    with pytest.raises(ValueError, match="not a permutation"):
        check_type_c_word((5, 2, 3, 0))
    with pytest.raises(ValueError, match="not mirror-symmetric"):
        check_type_c_word((1, 2, 4, 3))


def test_check_type_c_word_accepts_exactly_w_c():
    # among all of S_2n, the accepted words are the 2^n n! elements of W_C(n)
    for n in range(1, 5):
        accepted = []
        for word in itertools.permutations(range(1, 2 * n + 1)):
            try:
                accepted.append(check_type_c_word(word))
            except ValueError:
                pass
        assert accepted == sorted(type_c_words(n)), n
        assert len(accepted) == 2 ** n * math.factorial(n)


def test_family_element_examples():
    assert family_element(5, 2, 4) == (3, 4, 6, 9, 10, 1, 2, 5, 7, 8)
    assert family_element(2, 1, 2) == (2, 4, 1, 3)
    assert family_element(3, 1, 2) == (2, 4, 6, 1, 3, 5)
    for n, k, r in all_params(6):
        assert check_type_c_word(family_element(n, k, r)) == family_element(n, k, r)
    with pytest.raises(ValueError):
        family_element(3, 2, 2)


def test_w_tilde_examples():
    w = family_element(5, 2, 4)
    assert w_tilde_min_rep(w, cell_cuts(5, 2, 4)) == (3, 4, 6, 9, 10, 1, 2, 5, 7, 8)
    assert w_tilde_min_rep(tuple(range(1, 7)), (1, 3, 5)) == tuple(range(1, 7))
    assert w_tilde_min_rep((2, 1, 3, 4, 6, 5), (2, 4)) == tuple(range(1, 7))
    assert w_tilde_min_rep(tuple(range(6, 0, -1)), (1, 3, 5)) == (6, 4, 5, 2, 3, 1)
    assert w_tilde_min_rep((2, 4, 1, 3), ()) == (1, 2, 3, 4)


def test_w_tilde_refuses_cuts_that_are_not_mirror_closed():
    # the block (4, 1, 3) sorts to (1, 3, 4): the word (2, 1, 3, 4) is not type C
    with pytest.raises(ValueError, match="not mirror-symmetric"):
        w_tilde_min_rep((2, 4, 1, 3), (1,))
    with pytest.raises(ValueError, match="not mirror-symmetric"):
        w_tilde_min_rep((1, 2, 4, 3), (1, 3))


def test_w_max_examples():
    assert w_max_rep(2, 1, 2) == (2, 4, 1, 3)
    assert w_max_rep(5, 2, 4)[:4] == (4, 3, 10, 9)


def test_w_max_block_sort_recovers_w_tilde():
    # the family element is its own minimal coset representative, and the
    # block sort of w_max gives it back, for all 4,495 (n, k, r) with n <= 30
    params = all_params(30)
    assert len(params) == 4495
    for n, k, r in params:
        cuts = cell_cuts(n, k, r)
        w = family_element(n, k, r)
        assert w_tilde_min_rep(w, cuts) == w == w_tilde_min_rep(w_max_rep(n, k, r), cuts)


def test_avoids_patterns_examples():
    assert avoids_patterns((1, 2, 3, 4))
    assert not avoids_patterns((4, 2, 3, 1))
    assert not avoids_patterns((3, 1, 4, 2))
    assert avoids_patterns(w_max_rep(5, 2, 4))
    # one pattern at a time is a question for the scan
    assert not avoids_patterns_by_scan((4, 2, 3, 1), [(4, 2, 3, 1)])
    assert avoids_patterns_by_scan((3, 1, 4, 2), [(4, 2, 3, 1)])
    assert avoids_patterns_by_scan((4, 2, 3, 1), [(3, 1, 4, 2)])


def test_avoids_patterns_matches_the_scan():
    avoiding = []
    for size in range(8):
        words = list(itertools.permutations(range(1, size + 1)))
        for word in words:
            assert avoids_patterns(word) == avoids_patterns_by_scan(word, PATTERNS), word
        avoiding.append(sum(map(avoids_patterns, words)))
    # words of S_0 .. S_7 avoiding both; S_4 loses just the two patterns
    assert avoiding == [1, 1, 2, 6, 22, 88, 366, 1552]
    rng = random.Random("avoids_patterns")
    for _ in range(300):
        word = list(range(1, rng.randint(1, 20) + 1))
        rng.shuffle(word)
        assert avoids_patterns(word) == avoids_patterns_by_scan(word, PATTERNS), word


def test_w_max_always_avoids():
    for n, k, r in all_params(10):
        word = w_max_rep(n, k, r)
        assert avoids_patterns(word), (n, k, r)
        assert avoids_patterns_by_scan(word, PATTERNS), (n, k, r)


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
    # the type-A tangent dimension at the identity counts the transpositions below
    assert _transpositions_below((2, 1)) == [(1, 2)]
    ident = tuple(range(1, 5))
    assert _transpositions_below(ident) == []
    # the longest element is smooth: tangent dimension equals length
    w0 = (4, 3, 2, 1)
    assert len(_transpositions_below(w0)) == length_A(w0)


def test_tangent_dim_type_c_identity():
    assert tangent_dim_at_id_C((1, 2, 3, 4, 5, 6)) == 0


def _transpositions_below_by_bruhat(word):
    # the reference: every transposition (a b) tested with the full Bruhat order
    size = len(word)
    return [(a, b) for b in range(2, size + 1) for a in range(1, b)
            if bruhat_leq(transposition(size, a, b), word)]


def _tangent_dim_c_by_bruhat(word):
    below = _transpositions_below_by_bruhat(word)
    total = len(below) + sum(1 for a, b in below if a + b == len(word) + 1)
    assert total % 2 == 0
    return total // 2


def test_transpositions_below_match_bruhat_on_all_of_s_n():
    singular = 0
    for size in range(1, 7):
        for word in itertools.permutations(range(1, size + 1)):
            below = _transpositions_below(word)
            assert below == _transpositions_below_by_bruhat(word), word
            tangent = len(below)
            # smooth exactly when 3412 and 4231 are avoided (Lakshmibai-Sandhya)
            smooth = avoids_patterns_by_scan(word, [(3, 4, 1, 2), (4, 2, 3, 1)])
            assert (tangent == length_A(word)) == smooth, word
            singular += not smooth
    # 0, 0, 0, 2, 32 and 354 singular words in S_1 .. S_6
    assert singular == 388


def test_tangent_dim_type_c_matches_bruhat_on_all_of_w_c():
    elements = singular = 0
    for n in range(1, 5):
        for w in type_c_words(n):
            tangent = tangent_dim_at_id_C(w)
            assert tangent == _tangent_dim_c_by_bruhat(w), w
            elements += 1
            singular += tangent > length_C(w)
    assert elements == 2 + 8 + 48 + 384
    assert singular > 0


def test_w_max_smoothness_all_params():
    for n, k, r in all_params(8):
        word = w_max_rep(n, k, r)
        assert _transpositions_below(word) == _transpositions_below_by_bruhat(word), (n, k, r)
        assert tangent_dim_at_id_C(word) == _tangent_dim_c_by_bruhat(word) == length_C(word), \
            (n, k, r)


def test_type_a_singular_case_detected():
    # the 4231 pattern itself is singular at the identity in the full flag
    word = (4, 2, 3, 1)
    assert len(_transpositions_below(word)) > length_A(word)


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
    w = (2, 4, 1, 3)
    expected = tuple(sorted(w[:1]) + sorted(w[1:2]) + sorted(w[2:3]) + sorted(w[3:]))
    assert w_tilde_min_rep(w, (1, 2, 3)) == expected == (2, 4, 1, 3)
