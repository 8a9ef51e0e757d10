"""Symmetric-group and type-C Weyl-group combinatorics.

Permutations of {1..N} are plain tuples in one-line notation. An element of
the symplectic Weyl group W_C(n) inside S_{2n} satisfies
a_i = 2n+1-a_{2n+1-i}; it is stored as the half word (a_1..a_n), with the
full word materialised on demand.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence


class PermutationWordError(RuntimeError):
    """A word built to be a permutation is not one."""


def is_permutation_word(word: Sequence[int]) -> bool:
    """True iff word is a bijection on {1..N} in one-line notation."""
    n = len(word)
    return sorted(word) == list(range(1, n + 1))


def check_permutation(word: Sequence[int]) -> tuple[int, ...]:
    word = tuple(word)
    if not is_permutation_word(word):
        raise ValueError(f"not a permutation of 1..{len(word)}: {word}")
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


def _is_pattern_match(sub: tuple[int, ...], pattern: tuple[int, ...]) -> bool:
    # order-isomorphism of equal-length sequences of distinct values
    return all(
        (sub[a] < sub[b]) == (pattern[a] < pattern[b])
        for a in range(len(sub))
        for b in range(a + 1, len(sub))
    )


def avoids_patterns(word: Sequence[int], patterns: Sequence[Sequence[int]]) -> bool:
    """True iff no subsequence of word is order-isomorphic to any pattern.

    Exhaustive scan of all C(len(word), len(pattern)) subsequences: a word
    of 60 letters (`schubert` at its cap n = 30) takes seconds.

    >>> avoids_patterns((1, 2, 3, 4), [(4, 2, 3, 1)])
    True
    >>> avoids_patterns((4, 2, 3, 1), [(4, 2, 3, 1)])
    False
    """
    word = check_permutation(word)
    for pattern in patterns:
        pattern = tuple(pattern)
        k = len(pattern)
        for positions in itertools.combinations(range(len(word)), k):
            if _is_pattern_match(tuple(word[p] for p in positions), pattern):
                return False
    return True


class _Marker(NamedTuple):
    omitted: tuple[int, ...]


class ParabolicMarker(_Marker):
    """Ascending set of omitted simple-root indices of a parabolic subgroup."""

    __slots__ = ()

    def __new__(cls, omitted):
        omitted = tuple(sorted(set(int(i) for i in omitted)))
        if omitted and omitted[0] < 1:
            raise ValueError("simple-root indices start at 1")
        return super().__new__(cls, omitted)

    def check_range(self, rank: int) -> None:
        if any(i > rank for i in self.omitted):
            raise ValueError(f"omitted indices {self.omitted} exceed rank {rank}")


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


class _HalfWord(NamedTuple):
    n: int
    half_word: tuple[int, ...]


class WeylElementC(_HalfWord):
    """Element of the type-C Weyl group, stored as the half word a_1..a_n.
    The constructor checks that the half word extends to a mirror-symmetric
    permutation."""

    __slots__ = ()

    def __new__(cls, n: int, half_word):
        half = tuple(int(a) for a in half_word)
        if len(half) != n:
            raise ValueError(f"half word must have length {n}")
        letters = set(half)
        if len(letters) != n or not all(1 <= a <= 2 * n for a in half):
            raise ValueError(f"half word entries must be distinct in 1..{2 * n}")
        if any(primed(a, n) in letters for a in half):
            raise ValueError("half word may not contain both v and its mirror")
        return super().__new__(cls, n, half)

    def full_word(self) -> tuple[int, ...]:
        """The symmetric 2n-letter one-line word with a_i = 2n+1-a_{2n+1-i}."""
        n, half = self.n, self.half_word
        tail = tuple(primed(half[2 * n - i], n) for i in range(n + 1, 2 * n + 1))
        word = half + tail
        if not is_permutation_word(word):
            raise PermutationWordError(f"full word {word} of {half} is not a permutation")
        return word

    @staticmethod
    def from_full_word(word: Sequence[int]) -> "WeylElementC":
        word = check_permutation(word)
        if len(word) % 2:
            raise ValueError("full word must have even length")
        n = len(word) // 2
        for i in range(1, 2 * n + 1):
            if word[i - 1] != primed(word[primed(i, n) - 1], n):
                raise ValueError("word is not mirror-symmetric")
        return WeylElementC(n, word[:n])


def m_value(w: WeylElementC) -> int:
    """#{i <= n : a_i > n} on the half word.

    >>> m_value(WeylElementC(2, (4, 2)))
    1
    """
    return sum(1 for a in w.half_word if a > w.n)


def length_C(w: WeylElementC) -> int:
    """Type-C length: (inversions of the full word + m_value) / 2.

    The sum is always even; a parity failure means a corrupted element.

    >>> length_C(WeylElementC(2, (4, 2)))
    3
    """
    total = length_A(w.full_word()) + m_value(w)
    if total % 2:
        raise ValueError(f"length parity violated for {w}")
    return total // 2


def family_element(n: int, k: int, r: int) -> WeylElementC:
    """The distinguished Weyl element for parameters 1 <= k < r <= n:
    (k+1, .., r, n', .., (r+1)', k', .., 1'), with the middle primed block
    empty when r = n.

    >>> family_element(5, 2, 4).half_word
    (3, 4, 6, 9, 10)
    >>> family_element(2, 1, 2).half_word
    (2, 4)
    """
    check_parameters(n, k, r)
    half = list(range(k + 1, r + 1))
    half += [primed(i, n) for i in range(n, r, -1)]
    half += [primed(i, n) for i in range(k, 0, -1)]
    return WeylElementC(n, tuple(half))


class InvalidParameters(ValueError):
    """An input refused at the API boundary: a usage error, not a fault."""


def check_parameters(n: int, k: int, r: int) -> None:
    if not (1 <= k < r <= n):
        raise InvalidParameters(f"parameters must satisfy 1 <= k < r <= n, got {(n, k, r)}")


def h_side_cuts(marker: ParabolicMarker, n: int) -> tuple[int, ...]:
    """Mirror-closed cut set in S_2n induced by type-C omitted indices."""
    marker.check_range(n)
    cuts = set()
    for i in marker.omitted:
        cuts.add(i)
        cuts.add(2 * n - i)
    return tuple(sorted(cuts))


def sort_blocks(word: Sequence[int], cuts: Sequence[int]) -> tuple[int, ...]:
    """Sort each block delimited by the cuts ascendingly."""
    word = check_permutation(word)
    bounds = [0] + [c for c in sorted(cuts)] + [len(word)]
    out: list[int] = []
    for a, b in zip(bounds, bounds[1:]):
        out.extend(sorted(word[a:b]))
    return tuple(out)


def w_tilde_min_rep(w: WeylElementC, marker: ParabolicMarker) -> WeylElementC:
    """Minimal representative of the coset of w modulo the parabolic with the
    given omitted type-C indices: ascending sort of the blocks of the full
    word between the mirror-closed cuts.

    >>> w = family_element(5, 2, 4)
    >>> w_tilde_min_rep(w, ParabolicMarker((2, 5))).full_word()
    (3, 4, 6, 9, 10, 1, 2, 5, 7, 8)
    """
    sorted_word = sort_blocks(w.full_word(), h_side_cuts(marker, w.n))
    return WeylElementC.from_full_word(sorted_word)


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


def tangent_dim_at_id_C(w: WeylElementC) -> int:
    """Tangent-space dimension at the identity of the full-flag type-C
    Schubert variety of w: half of (type-A tangent dimension of the full
    word plus the number of mirrored transpositions (i i') below it)."""
    below = _transpositions_below(w.full_word())
    total = len(below) + sum(1 for a, b in below if b == primed(a, w.n))
    if total % 2:
        raise ValueError(f"tangent dimension parity violated for {w}")
    return total // 2
