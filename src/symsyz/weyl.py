"""Symmetric-group and type-C Weyl-group combinatorics.

Permutations of {1..N} are plain tuples in one-line notation. An element of
the symplectic Weyl group W_C(n) is such a tuple of length 2n with
a_{2n+1-i} = 2n+1-a_i (Bjorner-Brenti, Combinatorics of Coxeter Groups,
ch. 8); `check_type_c_word` is the one check of that shape.
"""

from __future__ import annotations

import itertools
from typing import Sequence


def check_permutation(word: Sequence[int]) -> tuple[int, ...]:
    word = tuple(word)
    if sorted(word) != list(range(1, len(word) + 1)):
        raise ValueError(f"not a permutation of 1..{len(word)}: {word}")
    return word


def check_type_c_word(word: Sequence[int]) -> tuple[int, ...]:
    """The word as a tuple, if it is a mirror-symmetric permutation of 1..2n.

    >>> check_type_c_word([2, 4, 1, 3])
    (2, 4, 1, 3)
    """
    word = check_permutation(word)
    if len(word) % 2:
        raise ValueError(f"a type-C word has even length: {word}")
    if any(a + b != len(word) + 1 for a, b in zip(word, reversed(word))):
        raise ValueError(f"word is not mirror-symmetric: {word}")
    return word


def length_A(word: Sequence[int]) -> int:
    """Coxeter length in type A = inversion count of the one-line word.

    >>> length_A((1, 2, 3, 4)), length_A((4, 2, 3, 1)), length_A((2, 1))
    (0, 5, 1)
    """
    word = check_permutation(word)
    return sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )


def avoids_patterns(word: Sequence[int]) -> bool:
    """True iff the permutation word contains neither 4231 nor 3142, in
    O(N^2) for N letters. Each pattern holds a pair b < c with w_b < w_c: in
    4231 a letter before b exceeds w_c and one after c is below w_b; in 3142
    the largest letter m below w_c before b exceeds w_b, and a letter after
    c lies between w_b and m.

    >>> avoids_patterns((1, 2, 3, 4)), avoids_patterns((4, 2, 3, 1)), avoids_patterns((3, 1, 4, 2))
    (True, False, False)
    """
    word = check_permutation(word)
    size = len(word)
    # below[b][v]: the largest letter under v in word[:b], 0 if none;
    # above[c][v]: the smallest letter over v in word[c+1:], size + 1 if none
    below, above = [[0] * (size + 2)], [[size + 1] * (size + 2)]
    for u, v in zip(word[:-1], reversed(word[1:])):
        below.append(below[-1][:u + 1] + [max(x, u) for x in below[-1][u + 1:]])
        above.append([min(x, v) for x in above[-1][:v]] + above[-1][v:])
    above.reverse()
    for b, wb in enumerate(word):
        before = below[b]
        for c in range(b + 1, size):
            wc, after = word[c], above[c]
            # 4231, then 3142 with m = before[wc]: wb < m and after[wb] < m
            if wb < wc and (before[-1] > wc and after[0] < wb or wb < before[wc] > after[wb]):
                return False
    return True


def _transpositions_below(word: tuple[int, ...]) -> list[tuple[int, int]]:
    """The pairs a < b with the transposition (a b) below `word` in the Bruhat
    order. By the tableau criterion (Bjorner-Brenti, Combinatorics of Coxeter
    Groups, 2.6) they are those with max(w_1..w_a) >= b and min(w_b..w_N) <= a."""
    prefix_max = list(itertools.accumulate(word, max))
    suffix_min = list(itertools.accumulate(reversed(word), min))[::-1]
    return [(a, b) for b in range(2, len(word) + 1) for a in range(1, b)
            if prefix_max[a - 1] >= b and suffix_min[b - 1] <= a]


def primed(i: int, n: int) -> int:
    """The mirrored index i' = 2n+1-i."""
    return 2 * n + 1 - i


def m_value(word: Sequence[int]) -> int:
    """#{i <= n : a_i > n} on the first half of the type-C word.

    >>> m_value((4, 2, 3, 1))
    1
    """
    word = check_type_c_word(word)
    n = len(word) // 2
    return sum(1 for a in word[:n] if a > n)


def length_C(word: Sequence[int]) -> int:
    """Type-C length: (inversions of the word + m_value) / 2.

    The sum is always even; a parity failure means a corrupted element.

    >>> length_C((4, 2, 3, 1))
    3
    """
    total = length_A(word) + m_value(word)
    if total % 2:
        raise ValueError(f"length parity violated for {tuple(word)}")
    return total // 2


def family_element(n: int, k: int, r: int) -> tuple[int, ...]:
    """The distinguished Weyl element for parameters 1 <= k < r <= n, whose
    first half is (k+1, .., r, n', .., (r+1)', k', .., 1'), with the middle
    primed block empty when r = n.

    >>> family_element(5, 2, 4)
    (3, 4, 6, 9, 10, 1, 2, 5, 7, 8)
    >>> family_element(2, 1, 2)
    (2, 4, 1, 3)
    """
    check_parameters(n, k, r)
    half = list(range(k + 1, r + 1))
    half += [primed(i, n) for i in range(n, r, -1)]
    half += [primed(i, n) for i in range(k, 0, -1)]
    return tuple(half + [primed(a, n) for a in reversed(half)])


class InvalidParameters(ValueError):
    """An input refused at the API boundary: a usage error, not a fault."""


def check_parameters(n: int, k: int, r: int) -> None:
    if not (1 <= k < r <= n):
        raise InvalidParameters(f"parameters must satisfy 1 <= k < r <= n, got {(n, k, r)}")


def cell_cuts(n: int, k: int, r: int) -> tuple[int, int, int]:
    """The mirror-closed cuts {r-k, n, 2n-(r-k)} of the parabolic of the
    opposite cell: its blocks in S_2n and the block form of its points."""
    check_parameters(n, k, r)
    return (r - k, n, 2 * n - (r - k))


def w_tilde_min_rep(word: Sequence[int], cuts: Sequence[int]) -> tuple[int, ...]:
    """Minimal representative of the coset of the type-C word modulo the
    parabolic whose blocks the cuts delimit: each block sorted ascendingly.
    Only mirror-closed cuts keep the result a type-C word, which is checked.

    >>> w_tilde_min_rep(family_element(5, 2, 4), cell_cuts(5, 2, 4))
    (3, 4, 6, 9, 10, 1, 2, 5, 7, 8)
    """
    word = check_type_c_word(word)
    bounds = [0, *sorted(cuts), len(word)]
    blocks = (sorted(word[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
    return check_type_c_word([a for block in blocks for a in block])


def _descending(a: int, b: int) -> list[int]:
    # the bracket [a, b]: a, a-1, ..., b; empty when a < b
    return list(range(a, b - 1, -1))


def w_max_rep(n: int, k: int, r: int) -> tuple[int, ...]:
    """Maximal representative in S_2n of the sorted-block coset of the
    family element: descending runs
    [r,k+1][1',k'][(r+1)',n'][n,r+1][k,1][(k+1)',r'], the middle two blocks
    empty when r = n.

    >>> w_max_rep(2, 1, 2)
    (2, 4, 1, 3)
    >>> w_max_rep(5, 2, 4)[:4]
    (4, 3, 10, 9)
    """
    check_parameters(n, k, r)
    word = _descending(r, k + 1)
    word += _descending(primed(1, n), primed(k, n))
    word += _descending(primed(r + 1, n), primed(n, n))
    word += _descending(n, r + 1)
    word += _descending(k, 1)
    word += [primed(i, n) for i in range(k + 1, r + 1)]
    return check_permutation(word)


def tangent_dim_at_id_C(word: Sequence[int]) -> int:
    """Tangent-space dimension at the identity of the full-flag type-C
    Schubert variety of the word: half of (type-A tangent dimension of the
    word plus the number of mirrored transpositions (i i') below it)."""
    word = check_type_c_word(word)
    below = _transpositions_below(word)
    total = len(below) + sum(1 for a, b in below if a + b == len(word) + 1)
    if total % 2:
        raise ValueError(f"tangent dimension parity violated for {word}")
    return total // 2
